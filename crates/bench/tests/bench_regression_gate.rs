//! The bench-regression gate, table-driven: every case is a fresh
//! document, a baseline, and what [`gate::check`] must say about them —
//! on synthetic rows and on the committed baselines.

use fttt_bench::gate::{self, Tolerance};
use wsn_telemetry::json::JsonValue;

/// A bench document holding `(layer, shape, metric, value)` rows.
fn doc(bench: &str, rows: &[(&str, &str, &str, f64)]) -> JsonValue {
    let rows = rows
        .iter()
        .map(|(layer, shape, metric, value)| gate::row(layer, shape, metric, "u", *value))
        .collect();
    gate::artifact(bench, JsonValue::object::<&str>([]), rows, [])
}

/// A `perf_snapshot` sweep: per `(shape, faces, packed_exhaustive µs)`,
/// the face count, fixed build timings and three match timings.
fn core(points: &[(&str, f64, f64)]) -> JsonValue {
    let rows: Vec<_> = points
        .iter()
        .flat_map(|&(shape, faces, packed_us)| {
            [
                ("facemap", shape, "faces", faces),
                ("build", shape, "scalar_reference", 9.0),
                ("build", shape, "packed_serial", 4.0),
                ("build", shape, "packed_parallel", 2.0),
                ("build", shape, "packed_adaptive", 1.0),
                ("matching", shape, "scalar_reference", 900.0),
                ("matching", shape, "packed_exhaustive", packed_us),
                ("matching", shape, "heuristic_warm", 5.0),
            ]
        })
        .collect();
    doc("perf_snapshot", &rows)
}

/// A `serve_load` run at `sessions=10000,rounds=5`.
fn serve(p50: f64, p99: f64, opens: f64, rps: f64) -> JsonValue {
    let shape = "sessions=10000,rounds=5";
    doc(
        "serve",
        &[
            ("serve", shape, "open_per_sec", opens),
            ("serve", shape, "rounds_per_sec", rps),
            ("serve", shape, "round_p50_us", p50),
            ("serve", shape, "round_p99_us", p99),
            ("serve", shape, "digest_checked", 10_000.0),
        ],
    )
}

/// A committed baseline, parsed.
fn committed(name: &str) -> JsonValue {
    let path = format!("{}/baselines/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("committed baseline missing");
    JsonValue::parse(&text).expect("committed baseline is not valid JSON")
}

/// `baseline` with every `matching/packed_exhaustive` value pushed past
/// any tolerance, whatever its scale.
fn doctored(mut baseline: JsonValue) -> JsonValue {
    for row in baseline.get_mut("rows").unwrap().as_array_mut().unwrap() {
        let hit = row.get("layer").and_then(JsonValue::as_str) == Some("matching")
            && row.get("metric").and_then(JsonValue::as_str) == Some("packed_exhaustive");
        if let (true, Some(JsonValue::Num(v))) = (hit, row.get_mut("value")) {
            *v = *v * 10.0 + 1000.0;
        }
    }
    baseline
}

/// What the gate must report.
enum Expect {
    /// No violations.
    Pass,
    /// Exactly these violations, in baseline order, each matched by the
    /// given substrings.
    Fail(&'static [&'static [&'static str]]),
    /// Every violation matches all the substrings; at least `n` of them.
    FailAll(usize, &'static [&'static str]),
    /// Not comparable at all; the error contains the substring.
    Error(&'static str),
}

#[test]
fn gate_cases() {
    let n10 = "n=10,cell=1";
    let n20 = "n=20,cell=1";
    let base_core = core(&[(n10, 100.0, 50.0), (n20, 400.0, 100.0)]);
    let base_serve = serve(800.0, 4000.0, 20_000.0, 60_000.0);
    let churn_rows = |repair_us: f64| {
        vec![
            ("facemap", "n=40,cell=1", "faces", 9910.0),
            ("matching", "n=40,cell=1", "packed_exhaustive", 100.0),
            ("facemap", "n=40,cell=4", "faces", 625.0),
            ("repair", "n=40,cell=4", "incremental_median", repair_us),
            ("repair", "n=40,cell=4", "rebuild_median", 5000.0),
        ]
    };
    let churn = |repair_us: f64| doc("perf_snapshot", &churn_rows(repair_us));
    let mut no_repair = churn_rows(400.0);
    no_repair.retain(|&(layer, ..)| layer != "repair");
    let scale = |indexed: f64, p99: Option<f64>| {
        let shape = "n=200,cell=0.5";
        let mut rows = vec![
            ("matching", shape, "packed_exhaustive", 9000.0),
            ("matching", shape, "indexed", indexed),
        ];
        rows.extend(p99.map(|v| ("matching", shape, "indexed_p99", v)));
        doc("perf_snapshot", &rows)
    };
    let cases: Vec<(&str, JsonValue, JsonValue, Expect)> = vec![
        (
            "identical documents pass",
            base_core.clone(),
            base_core.clone(),
            Expect::Pass,
        ),
        (
            // 100 µs × 1.75 + 25 = 200 µs limit; 10× is far past it.
            "a regression names (layer, shape, metric)",
            core(&[(n10, 100.0, 50.0), (n20, 400.0, 1000.0)]),
            base_core.clone(),
            Expect::Fail(&[&["matching[n=20,cell=1].packed_exhaustive: regressed"]]),
        ),
        (
            "small wobble passes",
            core(&[(n10, 100.0, 50.0), (n20, 400.0, 130.0)]),
            base_core.clone(),
            Expect::Pass,
        ),
        (
            "a face-count change fails",
            core(&[(n10, 100.0, 50.0), (n20, 401.0, 100.0)]),
            base_core.clone(),
            Expect::Fail(&[&["facemap[n=20,cell=1].faces: changed", "400", "401"]]),
        ),
        (
            // The n=20 shape is gone entirely, and n=10 lost one metric.
            "a missing row or metric fails",
            doc(
                "perf_snapshot",
                &[
                    ("facemap", n10, "faces", 100.0),
                    ("build", n10, "packed_serial", 4.0),
                    ("build", n10, "packed_parallel", 2.0),
                    ("build", n10, "packed_adaptive", 1.0),
                    ("matching", n10, "heuristic_warm", 5.0),
                ],
            ),
            base_core.clone(),
            Expect::Fail(&[
                &["matching[n=10,cell=1].packed_exhaustive: missing"],
                &["facemap[n=20,cell=1].faces: missing"],
                &["build[n=20,cell=1].packed_serial: missing"],
                &["build[n=20,cell=1].packed_parallel: missing"],
                &["build[n=20,cell=1].packed_adaptive: missing"],
                &["matching[n=20,cell=1].packed_exhaustive: missing"],
                &["matching[n=20,cell=1].heuristic_warm: missing"],
            ]),
        ),
        (
            "extra fresh rows are ignored",
            core(&[
                (n10, 100.0, 50.0),
                (n20, 400.0, 100.0),
                ("n=80,cell=1", 9999.0, 400.0),
            ]),
            base_core.clone(),
            Expect::Pass,
        ),
        (
            // The baseline row has no `indexed_p99` and no build rows, so
            // neither is gated; a gated metric it has still regresses.
            "rows absent from the baseline are not gated",
            scale(3000.0, Some(800.0)),
            scale(300.0, None),
            Expect::Fail(&[&["matching[n=200,cell=0.5].indexed: regressed"]]),
        ),
        (
            // 400 × 3.0 + 300 = 1500 µs limit on the cell-4 repair row; the
            // n=40 cell-1 row must neither shadow it nor be blamed.
            "two rows that share n but differ in cell are distinct keys",
            churn(2000.0),
            churn(400.0),
            Expect::Fail(&[&["repair[n=40,cell=4].incremental_median: regressed"]]),
        ),
        (
            "a repair median inside its allowance passes",
            churn(1400.0),
            churn(400.0),
            Expect::Pass,
        ),
        (
            // Other rows at n=40, even at cell 4, do not stand in for it.
            "a dropped repair row fails",
            doc("perf_snapshot", &no_repair),
            churn(400.0),
            Expect::Fail(&[&["repair[n=40,cell=4].incremental_median: missing"]]),
        ),
        (
            "a throughput metric passes when it rises",
            serve(800.0, 4000.0, 90_000.0, 200_000.0),
            base_serve.clone(),
            Expect::Pass,
        ),
        (
            "a throughput metric fails when it collapses",
            serve(800.0, 4000.0, 5_000.0, 60_000.0),
            base_serve.clone(),
            Expect::Fail(&[&["serve[sessions=10000,rounds=5].open_per_sec: collapsed"]]),
        ),
        (
            // p50 800 × 3 + 2000 = 4400 µs limit.
            "a served latency regression fails",
            serve(10_000.0, 4000.0, 20_000.0, 60_000.0),
            base_serve.clone(),
            Expect::Fail(&[&["serve[sessions=10000,rounds=5].round_p50_us: regressed"]]),
        ),
        (
            "identical serve documents pass",
            base_serve.clone(),
            base_serve.clone(),
            Expect::Pass,
        ),
        (
            "a served row missing from the fresh run fails",
            doc(
                "serve",
                &[("serve", "sessions=50,rounds=2", "digest_checked", 50.0)],
            ),
            base_serve.clone(),
            Expect::FailAll(4, &["serve[sessions=10000,rounds=5]", "missing"]),
        ),
        (
            "a foreign fresh document is an error",
            JsonValue::parse(r#"{"hello": 1}"#).unwrap(),
            base_core.clone(),
            Expect::Error("fresh run: no \"rows\""),
        ),
        (
            "a foreign baseline is an error",
            base_core.clone(),
            JsonValue::parse(r#"{"hello": 1}"#).unwrap(),
            Expect::Error("baseline: no \"rows\""),
        ),
        (
            "an empty baseline is an error",
            base_core.clone(),
            doc("perf_snapshot", &[]),
            Expect::Error("nothing to gate against"),
        ),
        (
            "a baseline of another bench is an error",
            base_core.clone(),
            base_serve.clone(),
            Expect::Error("baseline is bench"),
        ),
        (
            "the committed core baseline passes against itself",
            committed("core.json"),
            committed("core.json"),
            Expect::Pass,
        ),
        (
            "the committed serve baseline passes against itself",
            committed("serve.json"),
            committed("serve.json"),
            Expect::Pass,
        ),
        (
            "a doctored run against the committed core baseline fails",
            doctored(committed("core.json")),
            committed("core.json"),
            Expect::FailAll(5, &["matching[", "].packed_exhaustive: regressed"]),
        ),
    ];
    for (name, fresh, baseline, expect) in cases {
        let got = gate::check(&fresh, &baseline);
        match (expect, got) {
            (Expect::Pass, Ok(v)) => assert!(v.is_empty(), "{name}: {v:?}"),
            (Expect::Fail(want), Ok(v)) => {
                assert_eq!(v.len(), want.len(), "{name}: {v:?}");
                for (msg, needles) in v.iter().zip(want) {
                    for needle in needles.iter() {
                        assert!(msg.contains(needle), "{name}: {msg:?} lacks {needle:?}");
                    }
                }
            }
            (Expect::FailAll(n, needles), Ok(v)) => {
                assert!(v.len() >= n, "{name}: {v:?}");
                for msg in &v {
                    for needle in needles {
                        assert!(msg.contains(needle), "{name}: {msg:?} lacks {needle:?}");
                    }
                }
            }
            (Expect::Error(needle), Err(e)) => assert!(e.contains(needle), "{name}: {e}"),
            (_, got) => panic!("{name}: unexpected {got:?}"),
        }
    }
}

/// The tolerance table holds exactly the gated set: the face count as
/// `Exact`, and twelve core and four served metrics with their allowances.
/// Changing an allowance is a reviewed edit to this list.
#[test]
fn tolerance_table_is_the_gated_set() {
    let max = |ratio, slack| Tolerance::Max { ratio, slack };
    let want = [
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
    assert_eq!(gate::TOLERANCES, want);
    assert_eq!(gate::tolerance("matching", "scalar_reference"), None);
    assert_eq!(gate::tolerance("repair", "rebuild_median"), None);
}

/// The committed core baseline gates every shape it should: the full
/// n = 10/20/40 sweep with build timings, the match-only n = 100/200
/// scale rows, the sampling-vector rows at the served (n = 10) and the
/// campaign (n = 30) shapes, and exactly one n = 40 cell-4 live-churn
/// repair row, whose incremental median is sub-millisecond and which
/// keeps its ungated rebuild-per-event control.
#[test]
fn committed_core_baseline_covers_every_gated_shape() {
    let doc = committed("core.json");
    let rows = gate::rows(&doc).unwrap();
    let gated = |layer: &str, metric: &str| -> Vec<&str> {
        rows.iter()
            .filter(|r| r.layer == layer && r.metric == metric)
            .map(|r| r.shape)
            .collect()
    };
    let sweep = ["n=10,cell=1", "n=20,cell=1", "n=40,cell=1"];
    let scale = ["n=100,cell=0.5", "n=200,cell=0.5"];
    let all: Vec<&str> = sweep.iter().chain(&scale).copied().collect();
    assert_eq!(gated("build", "packed_serial"), sweep);
    assert_eq!(gated("matching", "indexed"), all);
    assert_eq!(gated("matching", "indexed_p99"), all);
    assert_eq!(gated("matching", "indexed_ext"), all);
    assert_eq!(gated("matching", "indexed_ext_p99"), all);
    let mut faces = all.clone();
    faces.push("n=40,cell=4");
    assert_eq!(gated("facemap", "faces"), faces);
    let engine = ["n=10,cell=2", "n=30,cell=2"];
    assert_eq!(gated("sampling", "vector_basic"), engine);
    assert_eq!(gated("sampling", "vector_ext"), engine);
    assert_eq!(gated("repair", "incremental_median"), ["n=40,cell=4"]);
    assert_eq!(gated("repair", "rebuild_median"), ["n=40,cell=4"]);
    let repair = rows
        .iter()
        .find(|r| r.layer == "repair" && r.metric == "incremental_median")
        .unwrap();
    let us = repair.value.as_f64().unwrap();
    assert!(
        us > 0.0 && us < 1000.0,
        "incremental repair not sub-ms: {us}"
    );
}
