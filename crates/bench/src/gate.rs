//! The bench artifact schema and the bench-regression gate.
//!
//! Every bench artifact and baseline — `BENCH_core.json`,
//! `BENCH_serve.json`, `BENCH_robustness.json` and the files under
//! `crates/bench/baselines/` — is one JSON object with a `"bench"` name,
//! a free-form `"config"` echo, and a `"rows"` array of measurements in
//! one shape:
//!
//! ```json
//! { "layer": "matching", "metric": "indexed_p99", "shape": "n=200,cell=0.5", "unit": "us", "value": 1407.275 }
//! ```
//!
//! `layer` names the subsystem measured, `shape` the workload point,
//! `metric` the quantity and `unit` its unit; `value` is a number, or a
//! hex string for a full-range `u64` such as a campaign checksum. Every
//! document is built as a [`JsonValue`] and written by
//! [`JsonValue::to_pretty`].
//!
//! The gate diffs a fresh run against a committed baseline: every
//! baseline row whose `(layer, metric)` appears in [`TOLERANCES`] must
//! exist in the fresh run under the same `(layer, shape, metric)` and
//! stay within its [`Tolerance`]. The baseline declares which rows are
//! gated, so a shape that times only part of a layer gates only that
//! part; extra fresh rows are ignored, since widening a sweep is not a
//! regression. Tolerances are deliberately loose: interleaved
//! min-of-rounds timing still jitters (frequency scaling, shared boxes),
//! and the gate's job is to catch *structural* losses like giving back
//! the packed-kernel speedup, not 10% wobble. They live here, in code,
//! rather than in the baseline rows, so that no data file can loosen a
//! gate unnoticed.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use wsn_telemetry::json::{format_f64, JsonValue};

/// How far a gated metric may move from its baseline value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Lower is better: passes iff `fresh ≤ baseline × ratio + slack`.
    /// The absolute `slack` (in the row's unit) keeps tiny baselines from
    /// turning scheduler noise into failures.
    Max {
        /// Multiplicative headroom on the baseline value.
        ratio: f64,
        /// Absolute headroom on top.
        slack: f64,
    },
    /// Higher is better: passes iff `fresh ≥ baseline / factor`.
    Min {
        /// Maximum tolerated slowdown factor.
        factor: f64,
    },
    /// Deterministic structure: the fresh value must equal the baseline.
    Exact,
}

/// The gated `(layer, metric)` pairs.
///
/// Ungated on purpose: the scalar-reference timings and the rebuild-per-
/// event repair median exist to normalize the speedup story (regressing a
/// control is not a product regression), and the speedups are derived
/// from gated timings. The live-churn repair median is gated at n = 40,
/// cell 4 m — the finest n = 40 grid with real sub-ms margin; repair cost
/// is linear in cell count. Served latencies include queue wait under
/// pipelined load, so their allowances are wide: that gate exists to
/// catch a lock on the hot path or an accidental O(sessions) scan.
/// Extended-vector matching is a serial f64 sum per candidate, so its
/// timings swing with the host (up to 2× between runs on a shared
/// 2-vCPU box); its allowance still catches a return to the linear scan,
/// which costs 10–30× more. The sampling-vector rows are single-digit
/// microseconds, so they carry a 2 µs slack; a return to building
/// per-pair `Option<f64>` components and repacking them costs 4–6× more.
pub const TOLERANCES: [(&str, &str, Tolerance); 17] = [
    ("facemap", "faces", Tolerance::Exact),
    ("build", "packed_serial", max(1.75, 2.0)),
    ("build", "packed_parallel", max(2.0, 2.0)),
    ("build", "packed_adaptive", max(2.0, 2.0)),
    ("matching", "packed_exhaustive", max(1.75, 25.0)),
    ("matching", "heuristic_warm", max(2.5, 10.0)),
    ("matching", "indexed", max(1.75, 25.0)),
    ("matching", "indexed_p99", max(1.75, 50.0)),
    ("matching", "indexed_ext", max(2.5, 25.0)),
    ("matching", "indexed_ext_p99", max(2.5, 50.0)),
    ("sampling", "vector_basic", max(2.5, 2.0)),
    ("sampling", "vector_ext", max(2.5, 2.0)),
    ("repair", "incremental_median", max(3.0, 300.0)),
    ("serve", "round_p50_us", max(3.0, 2_000.0)),
    ("serve", "round_p99_us", max(3.0, 10_000.0)),
    ("serve", "open_per_sec", Tolerance::Min { factor: 3.0 }),
    ("serve", "rounds_per_sec", Tolerance::Min { factor: 3.0 }),
];

const fn max(ratio: f64, slack: f64) -> Tolerance {
    Tolerance::Max { ratio, slack }
}

/// The tolerance gating `(layer, metric)`, if it is gated at all.
pub fn tolerance(layer: &str, metric: &str) -> Option<Tolerance> {
    TOLERANCES
        .iter()
        .find(|(l, m, _)| *l == layer && *m == metric)
        .map(|(_, _, tol)| *tol)
}

/// One measurement row.
pub fn row(
    layer: &str,
    shape: &str,
    metric: &str,
    unit: &str,
    value: impl Into<JsonValue>,
) -> JsonValue {
    JsonValue::object([
        ("layer", layer.into()),
        ("shape", shape.into()),
        ("metric", metric.into()),
        ("unit", unit.into()),
        ("value", value.into()),
    ])
}

/// A bench document: `bench`, `config` and `rows`, plus any `extra`
/// top-level members (a `"metrics"` snapshot, a pass flag).
pub fn artifact<'a>(
    bench: &str,
    config: JsonValue,
    rows: Vec<JsonValue>,
    extra: impl IntoIterator<Item = (&'a str, JsonValue)>,
) -> JsonValue {
    JsonValue::object(
        [
            ("bench", bench.into()),
            ("config", config),
            ("rows", rows.into()),
        ]
        .into_iter()
        .chain(extra),
    )
}

/// A parsed row, borrowing from its document.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row<'a> {
    /// Subsystem measured.
    pub layer: &'a str,
    /// Workload point.
    pub shape: &'a str,
    /// Quantity measured.
    pub metric: &'a str,
    /// Unit of `value`.
    pub unit: &'a str,
    /// The measurement.
    pub value: &'a JsonValue,
}

impl Row<'_> {
    /// `layer[shape].metric` — how violations name a row.
    fn label(&self) -> String {
        format!("{}[{}].{}", self.layer, self.shape, self.metric)
    }
}

/// The rows of a bench document; `Err` names the first malformed row, or
/// says the document is not a bench artifact at all.
pub fn rows(doc: &JsonValue) -> Result<Vec<Row<'_>>, String> {
    let items = doc
        .get("rows")
        .and_then(JsonValue::as_array)
        .ok_or("no \"rows\" array — not a bench artifact")?;
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let field = |key: &str| {
                item.get(key)
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| format!("row {i}: missing string {key:?}"))
            };
            Ok(Row {
                layer: field("layer")?,
                shape: field("shape")?,
                metric: field("metric")?,
                unit: field("unit")?,
                value: item
                    .get("value")
                    .ok_or_else(|| format!("row {i}: missing \"value\""))?,
            })
        })
        .collect()
}

/// Compares a fresh bench document against a baseline one.
///
/// Returns the violations, each naming its row as `layer[shape].metric`
/// (empty = the gate passes). `Err` means the documents cannot be
/// compared at all — not bench artifacts, different benches, or an empty
/// baseline — which the caller reports as a failure too, with a
/// different message ("wrong file", not "regression").
pub fn check(fresh: &JsonValue, baseline: &JsonValue) -> Result<Vec<String>, String> {
    let base_rows = rows(baseline).map_err(|e| format!("baseline: {e}"))?;
    let fresh_rows = rows(fresh).map_err(|e| format!("fresh run: {e}"))?;
    if base_rows.is_empty() {
        return Err("baseline: empty \"rows\" — nothing to gate against".into());
    }
    let bench = |doc: &JsonValue| {
        doc.get("bench")
            .and_then(JsonValue::as_str)
            .map(String::from)
    };
    if bench(fresh) != bench(baseline) {
        return Err(format!(
            "fresh run is bench {:?}, baseline is bench {:?}",
            bench(fresh),
            bench(baseline)
        ));
    }
    let by_key: BTreeMap<_, _> = fresh_rows
        .iter()
        .map(|r| ((r.layer, r.shape, r.metric), r))
        .collect();
    let mut violations = Vec::new();
    for base in &base_rows {
        let Some(tol) = tolerance(base.layer, base.metric) else {
            continue;
        };
        match by_key.get(&(base.layer, base.shape, base.metric)) {
            None => violations.push(format!("{}: missing from the fresh run", base.label())),
            Some(fresh) => violations.extend(judge(tol, base, fresh)?),
        }
    }
    Ok(violations)
}

/// The violation `fresh` commits against `base` under `tol`, if any;
/// `Err` if the baseline value itself is unusable.
fn judge(tol: Tolerance, base: &Row, fresh: &Row) -> Result<Option<String>, String> {
    let label = base.label();
    let unit = base.unit;
    // The numeric tolerances need a numeric baseline and a sane fresh value.
    let base_number = || {
        base.value
            .as_f64()
            .ok_or_else(|| format!("baseline: {label} is not a number"))
    };
    let fresh_number = fresh.value.as_f64().filter(|v| v.is_finite() && *v >= 0.0);
    let insane = || {
        Some(format!(
            "{label}: {} is not a sane measurement",
            show(fresh.value)
        ))
    };
    Ok(match tol {
        Tolerance::Exact => (fresh.value != base.value).then(|| {
            format!(
                "{label}: changed — baseline {}, fresh {} (seeded and deterministic, \
                 must match exactly)",
                show(base.value),
                show(fresh.value)
            )
        }),
        Tolerance::Max { ratio, slack } => {
            let base_v = base_number()?;
            let Some(fresh_v) = fresh_number else {
                return Ok(insane());
            };
            let limit = base_v * ratio + slack;
            (fresh_v > limit).then(|| {
                format!(
                    "{label}: regressed — {fresh_v:.3} vs baseline {base_v:.3} {unit} \
                     (limit {limit:.3} = {base_v:.3}×{ratio} + {slack})"
                )
            })
        }
        Tolerance::Min { factor } => {
            let base_v = base_number()?;
            let Some(fresh_v) = fresh_number else {
                return Ok(insane());
            };
            let floor = base_v / factor;
            (fresh_v < floor).then(|| {
                format!(
                    "{label}: collapsed — {fresh_v:.1} vs baseline {base_v:.1} {unit} \
                     (floor {floor:.1} = {base_v:.1}÷{factor})"
                )
            })
        }
    })
}

fn show(value: &JsonValue) -> String {
    match value {
        JsonValue::Num(v) => format_f64(*v),
        JsonValue::Str(s) => s.clone(),
        other => format!("{other:?}"),
    }
}

/// Reads and parses a baseline document, naming the path on failure.
/// Gate binaries call this before their workload runs, so a bad path
/// fails in milliseconds.
pub fn read_baseline(path: &Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    JsonValue::parse(&text)
        .map_err(|e| format!("baseline {} is not valid JSON: {e}", path.display()))
}

/// Runs [`check`] and reports it: prints `gate: PASS` or every
/// violation, and returns the process exit code (success only on a
/// pass).
pub fn run(fresh: &JsonValue, baseline: &JsonValue, baseline_path: &Path) -> ExitCode {
    let path = baseline_path.display();
    match check(fresh, baseline) {
        Ok(violations) if violations.is_empty() => {
            println!("gate: PASS — all gated metrics within tolerance of {path}");
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            eprintln!("gate: FAIL — {} regression(s) vs {path}:", violations.len());
            for v in &violations {
                eprintln!("gate:   {v}");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("gate: cannot compare against {path}: {e}");
            ExitCode::FAILURE
        }
    }
}
