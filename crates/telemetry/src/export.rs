//! Snapshot exporters: a JSON document and Prometheus text exposition.
//!
//! Both are dependency-free; the JSON document is embedded under
//! `"metrics"` in the repo's `BENCH_core.json` / `BENCH_robustness.json`
//! artifacts and written by the one [`JsonValue`] writer.

use crate::json::JsonValue;
use crate::registry::{HistogramSnapshot, Snapshot};
use std::fmt::Write as _;

// The canonical formatters live in `crate::json` (public — the bench
// artifacts reuse them); these aliases keep the crate-internal call sites.
pub(crate) use crate::json::{format_f64 as json_f64, format_str as json_str};

/// `a.b-c` → `a_b_c`: Prometheus metric names must match
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`. Every other character becomes `_`, a
/// leading digit gets a `_` prefix, and an empty name becomes `_`.
fn prom_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    match out.chars().next() {
        None => out.push('_'),
        Some(c) if c.is_ascii_digit() => out.insert(0, '_'),
        Some(_) => {}
    }
    out
}

/// Escapes a string for a `# HELP` line: backslashes and newlines only,
/// per the exposition format.
fn prom_help_text(text: &str) -> String {
    text.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a string for use inside a quoted label value: backslash,
/// double quote, newline.
fn prom_label_value(text: &str) -> String {
    text.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Resolves the exposition-format family name for `name`, deduplicating
/// post-sanitization collisions (`a.b` and `a-b` both map to `a_b`):
/// the first claimant (in emission order — counters, then gauges, then
/// histograms, each sorted) keeps the clean name, later ones get a
/// deterministic `_dupN` suffix so no family is ever declared twice. A
/// histogram family also claims its implicit `_bucket`/`_sum`/`_count`
/// series names, so a counter literally named `x_count` pushes histogram
/// `x` onto a suffixed name rather than colliding.
fn claim_family(
    used: &mut std::collections::BTreeSet<String>,
    name: &str,
    histogram: bool,
) -> String {
    let base = prom_name(name);
    let mut i = 1usize;
    loop {
        let candidate = if i == 1 {
            base.clone()
        } else {
            format!("{base}_dup{i}")
        };
        let mut series = vec![candidate.clone()];
        if histogram {
            for suffix in ["_bucket", "_sum", "_count"] {
                series.push(format!("{candidate}{suffix}"));
            }
        }
        if series.iter().all(|s| !used.contains(s)) {
            used.extend(series);
            return candidate;
        }
        i += 1;
    }
}

impl Snapshot {
    /// The snapshot as a JSON document: `counters`, `gauges` and
    /// `histograms` objects keyed by metric name, each histogram carrying
    /// its `bounds`, per-bucket `counts` (overflow last), `count` and
    /// `sum`. Counts are JSON numbers, exact below 2⁵³.
    /// [`Snapshot::from_json_value`] reads it back.
    pub fn to_json_value(&self) -> JsonValue {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.as_str(), JsonValue::Num(*v as f64)));
        let gauges = self
            .gauges
            .iter()
            .map(|(k, v)| (k.as_str(), JsonValue::Num(*v)));
        let histograms = self.histograms.iter().map(|(k, h)| {
            let bounds = h.bounds.iter().map(|b| JsonValue::Num(*b)).collect();
            let counts = h.counts.iter().map(|c| JsonValue::Num(*c as f64)).collect();
            let hist = JsonValue::object([
                ("bounds", JsonValue::Arr(bounds)),
                ("counts", JsonValue::Arr(counts)),
                ("count", JsonValue::Num(h.count as f64)),
                ("sum", JsonValue::Num(h.sum)),
            ]);
            (k.as_str(), hist)
        });
        JsonValue::object([
            ("counters", JsonValue::object(counters)),
            ("gauges", JsonValue::object(gauges)),
            ("histograms", JsonValue::object(histograms)),
        ])
    }

    /// The snapshot in the Prometheus text exposition format (version
    /// 0.0.4): one `# HELP`/`# TYPE` pair per family, cumulative `le`
    /// buckets, `_sum`/`_count` series. Names are sanitized to
    /// `[a-zA-Z_:][a-zA-Z0-9_:]*` (dots and dashes become underscores, a
    /// leading digit is prefixed); the `HELP` line carries the original
    /// registry name, escaped, so a scrape can be mapped back. Two
    /// registry names that sanitize to the same family are disambiguated
    /// with a deterministic `_dupN` suffix rather than declared twice.
    /// Output is guaranteed to pass [`validate_prometheus_text`].
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut used = std::collections::BTreeSet::new();
        for (name, v) in &self.counters {
            let n = claim_family(&mut used, name, false);
            let _ = writeln!(out, "# HELP {n} {}", prom_help_text(name));
            let _ = writeln!(out, "# TYPE {n} counter");
            let _ = writeln!(out, "{n} {v}");
        }
        for (name, v) in &self.gauges {
            let n = claim_family(&mut used, name, false);
            let _ = writeln!(out, "# HELP {n} {}", prom_help_text(name));
            let _ = writeln!(out, "# TYPE {n} gauge");
            let _ = writeln!(out, "{n} {}", json_f64(*v));
        }
        for (name, h) in &self.histograms {
            let n = claim_family(&mut used, name, true);
            let _ = writeln!(out, "# HELP {n} {}", prom_help_text(name));
            let _ = writeln!(out, "# TYPE {n} histogram");
            let mut cumulative = 0u64;
            for (bound, count) in h.bounds.iter().zip(&h.counts) {
                cumulative += count;
                let _ = writeln!(
                    out,
                    "{n}_bucket{{le=\"{}\"}} {cumulative}",
                    prom_label_value(&json_f64(*bound))
                );
            }
            let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{n}_sum {}", json_f64(h.sum));
            let _ = writeln!(out, "{n}_count {}", h.count);
        }
        out
    }
}

/// Whether `name` is a legal exposition-format metric name.
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Whether `name` is a legal label name (`[a-zA-Z_][a-zA-Z0-9_]*`).
fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// A parsed sample line: series name, labels, value.
type Sample = (String, Vec<(String, String)>, f64);

/// Splits a sample line into (series name, labels, value), validating the
/// label syntax (`{key="escaped value",...}`).
fn parse_sample(line: &str) -> Result<Sample, String> {
    let (name_part, rest) = match line.find('{') {
        Some(brace) => {
            let close = line
                .rfind('}')
                .ok_or_else(|| "unterminated label block".to_string())?;
            if close < brace {
                return Err("unterminated label block".into());
            }
            let labels = parse_labels(&line[brace + 1..close])?;
            (&line[..brace], (labels, line[close + 1..].trim_start()))
        }
        None => {
            let mut parts = line.splitn(2, [' ', '\t']);
            let name = parts.next().unwrap_or_default();
            let value = parts.next().unwrap_or_default().trim_start();
            (name, (Vec::new(), value))
        }
    };
    let (labels, value_part) = rest;
    if !valid_metric_name(name_part) {
        return Err(format!("invalid metric name {name_part:?}"));
    }
    // A trailing timestamp (integer) is legal; the value is the first token.
    let mut tokens = value_part.split_ascii_whitespace();
    let value_tok = tokens
        .next()
        .ok_or_else(|| format!("series {name_part:?} has no value"))?;
    if let Some(ts) = tokens.next() {
        if ts.parse::<i64>().is_err() {
            return Err(format!("series {name_part:?}: bad timestamp {ts:?}"));
        }
    }
    if tokens.next().is_some() {
        return Err(format!("series {name_part:?}: trailing tokens"));
    }
    let value = match value_tok {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        other => other
            .parse::<f64>()
            .map_err(|_| format!("series {name_part:?}: bad value {other:?}"))?,
    };
    Ok((name_part.to_string(), labels, value))
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=': {rest:?}"))?;
        let key = rest[..eq].trim();
        if !valid_label_name(key) {
            return Err(format!("invalid label name {key:?}"));
        }
        let after = rest[eq + 1..].trim_start();
        if !after.starts_with('"') {
            return Err(format!("label {key:?}: value not quoted"));
        }
        // Scan the quoted value honouring \" escapes.
        let mut escaped = false;
        let mut end = None;
        for (i, c) in after[1..].char_indices() {
            if escaped {
                if !matches!(c, '\\' | '"' | 'n') {
                    return Err(format!("label {key:?}: bad escape \\{c}"));
                }
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                end = Some(i);
                break;
            }
        }
        let end = end.ok_or_else(|| format!("label {key:?}: unterminated value"))?;
        let raw = &after[1..1 + end];
        let value = raw
            .replace("\\n", "\n")
            .replace("\\\"", "\"")
            .replace("\\\\", "\\");
        labels.push((key.to_string(), value));
        rest = after[1 + end + 1..].trim_start();
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped.trim_start();
        } else if !rest.is_empty() {
            return Err(format!("junk after label {key:?}: {rest:?}"));
        }
    }
    Ok(labels)
}

/// Validates Prometheus text-exposition output line by line — the golden
/// gate for [`Snapshot::to_prometheus`] and for live `/metrics` scrapes.
///
/// Enforced, beyond per-line syntax:
/// * `# HELP` / `# TYPE` appear at most once per family, `TYPE` before any
///   of the family's samples;
/// * every sample belongs to a family with a declared `TYPE` (histogram
///   samples may use the implicit `_bucket`/`_sum`/`_count` suffixes, and
///   `_bucket` series must carry an `le` label).
///
/// Returns the number of sample lines on success, or
/// `Err((line_number, diagnostic))` (1-based) on the first violation.
pub fn validate_prometheus_text(text: &str) -> Result<usize, (usize, String)> {
    use std::collections::BTreeMap;
    let mut types: BTreeMap<String, &str> = BTreeMap::new();
    let mut helps: std::collections::BTreeSet<String> = Default::default();
    let mut sampled: std::collections::BTreeSet<String> = Default::default();
    let mut samples = 0usize;
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let fail = |msg: String| Err((lineno, msg));
        if line.trim().is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("HELP ") {
                let (name, _help) = rest.split_once(' ').unwrap_or((rest, ""));
                if !valid_metric_name(name) {
                    return fail(format!("HELP for invalid metric name {name:?}"));
                }
                if !helps.insert(name.to_string()) {
                    return fail(format!("duplicate HELP for family {name:?}"));
                }
            } else if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut parts = rest.split_ascii_whitespace();
                let name = parts.next().unwrap_or_default();
                let kind = parts.next().unwrap_or_default();
                if !valid_metric_name(name) {
                    return fail(format!("TYPE for invalid metric name {name:?}"));
                }
                let kind = match kind {
                    "counter" => "counter",
                    "gauge" => "gauge",
                    "histogram" => "histogram",
                    "summary" => "summary",
                    "untyped" => "untyped",
                    other => return fail(format!("family {name:?}: unknown type {other:?}")),
                };
                if types.insert(name.to_string(), kind).is_some() {
                    return fail(format!("duplicate TYPE for family {name:?}"));
                }
                if sampled.contains(name) {
                    return fail(format!("TYPE for family {name:?} after its samples"));
                }
            }
            // Other comments are legal free text.
            continue;
        }
        let (series, labels, _value) = match parse_sample(line) {
            Ok(parsed) => parsed,
            Err(e) => return fail(e),
        };
        samples += 1;
        // Resolve the family: exact TYPE match, else a histogram suffix.
        let family = if types.contains_key(&series) {
            series.clone()
        } else {
            let stripped = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|s| series.strip_suffix(s))
                .map(str::to_string);
            match stripped {
                Some(base) if types.get(&base).copied() == Some("histogram") => base,
                _ => return fail(format!("series {series:?} has no declared TYPE")),
            }
        };
        if types.get(&family).copied() == Some("histogram")
            && series.ends_with("_bucket")
            && !labels.iter().any(|(k, _)| k == "le")
        {
            return fail(format!("histogram bucket series {series:?} lacks le label"));
        }
        sampled.insert(family);
    }
    Ok(samples)
}

impl Snapshot {
    /// Parses a snapshot back from its [`Snapshot::to_json_value`] form — the
    /// inverse the multi-process campaign merge path needs: each shard
    /// exports its snapshot to disk, the coordinator re-parses and
    /// [`Snapshot::try_merge`]s them.
    ///
    /// Round-trip contract (covered by tests):
    /// * counters are exact for values < 2⁵³ (JSON numbers are f64; the
    ///   parser rejects non-integral counter/count values rather than
    ///   silently rounding);
    /// * gauges and histogram bounds/sums round-trip bit-exactly for
    ///   finite values because the writer emits shortest-round-trip
    ///   `Display` strings; non-finite gauges/sums are written as `null`
    ///   and re-parse as NaN (documented lossiness: the sign and payload
    ///   of the non-finite value are gone);
    /// * histogram `counts` keep the overflow bucket (`bounds.len() + 1`
    ///   entries) so merged bucket shapes stay compatible.
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let doc = JsonValue::parse(text).map_err(|e| format!("snapshot JSON: {e}"))?;
        Snapshot::from_json_value(&doc)
    }

    /// Like [`Snapshot::from_json`], over an already-parsed document (for
    /// snapshots embedded inside a larger artifact).
    pub fn from_json_value(doc: &JsonValue) -> Result<Snapshot, String> {
        let mut snap = Snapshot::default();
        for (name, v) in object_of(doc, "counters")? {
            let n = v
                .as_u64()
                .ok_or_else(|| format!("counter {name:?}: not a non-negative integer"))?;
            snap.counters.insert(name.clone(), n);
        }
        for (name, v) in object_of(doc, "gauges")? {
            snap.gauges.insert(name.clone(), f64_or_nan(v, name)?);
        }
        for (name, v) in object_of(doc, "histograms")? {
            let bounds = array_of(v, name, "bounds")?
                .iter()
                .map(|b| {
                    b.as_f64()
                        .ok_or_else(|| format!("histogram {name:?}: non-numeric bound"))
                })
                .collect::<Result<Vec<f64>, String>>()?;
            let counts = array_of(v, name, "counts")?
                .iter()
                .map(|c| {
                    c.as_u64()
                        .ok_or_else(|| format!("histogram {name:?}: non-integer bucket count"))
                })
                .collect::<Result<Vec<u64>, String>>()?;
            if counts.len() != bounds.len() + 1 {
                return Err(format!(
                    "histogram {name:?}: {} counts for {} bounds (need bounds + overflow)",
                    counts.len(),
                    bounds.len()
                ));
            }
            let count = v
                .get("count")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("histogram {name:?}: missing integral \"count\""))?;
            let sum = v
                .get("sum")
                .map(|s| f64_or_nan(s, name))
                .transpose()?
                .ok_or_else(|| format!("histogram {name:?}: missing \"sum\""))?;
            snap.histograms.insert(
                name.clone(),
                HistogramSnapshot {
                    bounds,
                    counts,
                    count,
                    sum,
                },
            );
        }
        Ok(snap)
    }
}

fn object_of<'a>(
    doc: &'a JsonValue,
    key: &str,
) -> Result<&'a std::collections::BTreeMap<String, JsonValue>, String> {
    match doc.get(key) {
        Some(JsonValue::Obj(map)) => Ok(map),
        _ => Err(format!("snapshot JSON: missing {key:?} object")),
    }
}

fn array_of<'a>(v: &'a JsonValue, name: &str, key: &str) -> Result<&'a [JsonValue], String> {
    v.get(key)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("histogram {name:?}: missing {key:?} array"))
}

/// The writer spells NaN/∞ as `null`; re-parse it as NaN so a round-trip
/// stays a gauge rather than an error.
fn f64_or_nan(v: &JsonValue, name: &str) -> Result<f64, String> {
    match v {
        JsonValue::Null => Ok(f64::NAN),
        other => other
            .as_f64()
            .ok_or_else(|| format!("{name:?}: not a number or null")),
    }
}

#[cfg(test)]
mod tests {
    use crate::Registry;

    #[test]
    fn json_golden_output() {
        let r = Registry::new();
        r.counter("match.evaluations").add(12);
        r.counter("build.faces").add(3);
        r.gauge("session.samples_k").set(7.0);
        r.histogram("match.tie_width", &[1.0, 2.0]).observe(1.0);
        r.histogram("match.tie_width", &[1.0, 2.0]).observe(5.0);
        let json = r.snapshot().to_json_value().to_pretty();
        let expected = "{\n\
                        \x20 \"counters\": { \"build.faces\": 3, \"match.evaluations\": 12 },\n\
                        \x20 \"gauges\": { \"session.samples_k\": 7 },\n\
                        \x20 \"histograms\": {\n\
                        \x20   \"match.tie_width\": {\n\
                        \x20     \"bounds\": [1, 2],\n\
                        \x20     \"count\": 2,\n\
                        \x20     \"counts\": [1, 0, 1],\n\
                        \x20     \"sum\": 6\n\
                        \x20   }\n\
                        \x20 }\n\
                        }\n";
        assert_eq!(json, expected);
    }

    #[test]
    fn json_empty_sections_collapse() {
        let json = Registry::new().snapshot().to_json_value().to_pretty();
        assert_eq!(
            json,
            "{ \"counters\": {}, \"gauges\": {}, \"histograms\": {} }\n"
        );
    }

    #[test]
    fn prometheus_golden_output() {
        let r = Registry::new();
        r.counter("fttt.match.evaluations").add(9);
        r.gauge("fttt.session.samples_k").set(5.0);
        let h = r.histogram("fttt.match.tie_width", &[1.0, 2.0]);
        h.observe(1.0);
        h.observe(2.0);
        h.observe(99.0);
        let text = r.snapshot().to_prometheus();
        let expected = "# HELP fttt_match_evaluations fttt.match.evaluations\n\
                        # TYPE fttt_match_evaluations counter\n\
                        fttt_match_evaluations 9\n\
                        # HELP fttt_session_samples_k fttt.session.samples_k\n\
                        # TYPE fttt_session_samples_k gauge\n\
                        fttt_session_samples_k 5\n\
                        # HELP fttt_match_tie_width fttt.match.tie_width\n\
                        # TYPE fttt_match_tie_width histogram\n\
                        fttt_match_tie_width_bucket{le=\"1\"} 1\n\
                        fttt_match_tie_width_bucket{le=\"2\"} 2\n\
                        fttt_match_tie_width_bucket{le=\"+Inf\"} 3\n\
                        fttt_match_tie_width_sum 102\n\
                        fttt_match_tie_width_count 3\n";
        assert_eq!(text, expected);
        assert_eq!(crate::validate_prometheus_text(&text), Ok(7));
    }

    #[test]
    fn prometheus_sanitizes_hostile_names() {
        let r = Registry::new();
        r.counter("7seg-rate").inc(); // leading digit + dash
        r.counter("").inc(); // empty name
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("# TYPE _7seg_rate counter\n"), "{text}");
        assert!(text.contains("\n_7seg_rate 1\n"), "{text}");
        assert!(text.contains("# TYPE _ counter\n"), "{text}");
        crate::validate_prometheus_text(&text).unwrap();
    }

    #[test]
    fn prometheus_collisions_get_deterministic_suffixes_not_double_decls() {
        let r = Registry::new();
        // All three sanitize to `a_b`.
        r.counter("a.b").add(1);
        r.counter("a-b").add(2);
        r.gauge("a b").set(3.0);
        // A counter that squats on histogram `h`'s implicit series name.
        r.counter("h_count").add(4);
        r.histogram("h", &[1.0]).observe(0.5);
        let text = r.snapshot().to_prometheus();
        // `a-b` sorts before `a.b` in the counter section.
        assert!(text.contains("# TYPE a_b counter\n"), "{text}");
        assert!(text.contains("# HELP a_b a-b\n"), "{text}");
        assert!(text.contains("# TYPE a_b_dup2 counter\n"), "{text}");
        assert!(text.contains("# TYPE a_b_dup3 gauge\n"), "{text}");
        // Histogram `h` is displaced off the clean name by `h_count`.
        assert!(text.contains("# TYPE h_dup2 histogram\n"), "{text}");
        assert!(text.contains("h_dup2_count 1\n"), "{text}");
        crate::validate_prometheus_text(&text).unwrap();
    }

    #[test]
    fn prometheus_help_escapes_backslash_and_newline() {
        let r = Registry::new();
        r.counter("weird\\name\nwith.newline").inc();
        let text = r.snapshot().to_prometheus();
        assert!(
            text.contains("# HELP weird_name_with_newline weird\\\\name\\nwith.newline\n"),
            "{text}"
        );
        crate::validate_prometheus_text(&text).unwrap();
    }

    #[test]
    fn validator_rejects_malformed_exposition() {
        for (text, needle) in [
            ("no_type_decl 1\n", "no declared TYPE"),
            (
                "# TYPE x counter\n# TYPE x counter\nx 1\n",
                "duplicate TYPE",
            ),
            ("x 1\n# TYPE x counter\n", "no declared TYPE"),
            ("# TYPE x counter\nx one\n", "bad value"),
            ("# TYPE x counter\nx{bad-label=\"v\"} 1\n", "invalid label"),
            ("# TYPE x counter\nx{l=\"v} 1\n", "unterminated"),
            (
                "# TYPE x histogram\nx_bucket{foo=\"1\"} 1\n",
                "lacks le label",
            ),
            ("# TYPE x widget\n", "unknown type"),
            ("# HELP x a\n# HELP x b\n", "duplicate HELP"),
            ("# TYPE x counter\n9bad 1\n", "invalid metric name"),
        ] {
            let (line, err) = crate::validate_prometheus_text(text).unwrap_err();
            assert!(err.contains(needle), "{text:?}: {err:?} lacks {needle:?}");
            assert!(line >= 1);
        }
    }

    #[test]
    fn validator_accepts_labels_timestamps_and_blank_lines() {
        let text = "# scraped from somewhere\n\
                    # TYPE x counter\n\
                    x{shard=\"3\",host=\"a\\\"b\"} 12 1700000000\n\
                    \n\
                    # TYPE lat histogram\n\
                    lat_bucket{le=\"0.5\"} 1\n\
                    lat_bucket{le=\"+Inf\"} 2\n\
                    lat_sum 3.5\n\
                    lat_count 2\n";
        assert_eq!(crate::validate_prometheus_text(text), Ok(5));
    }
}

#[cfg(test)]
mod roundtrip_tests {
    use crate::registry::{HistogramSnapshot, Snapshot};

    fn sample() -> Snapshot {
        let mut s = Snapshot::default();
        s.counters.insert("a.events".into(), 12);
        s.counters.insert("b.big".into(), (1u64 << 53) - 1);
        s.gauges.insert("g.tenth".into(), 0.1);
        s.gauges.insert("g.tiny".into(), 1e-308);
        s.gauges.insert("g.negzero".into(), -0.0);
        s.gauges.insert("g.pi".into(), std::f64::consts::PI);
        s.histograms.insert(
            "h.lat".into(),
            HistogramSnapshot {
                bounds: vec![0.1, 1.0, 10.0],
                counts: vec![1, 2, 0, 3],
                count: 6,
                sum: 123.456789,
            },
        );
        s
    }

    #[test]
    fn export_reparse_is_lossless_for_finite_values() {
        let snap = sample();
        let back = Snapshot::from_json(&snap.to_json_value().to_pretty()).unwrap();
        assert_eq!(back.counters, snap.counters);
        assert_eq!(back.gauges.len(), snap.gauges.len());
        for (k, v) in &snap.gauges {
            let r = back.gauges[k];
            assert_eq!(r.to_bits(), v.to_bits(), "gauge {k} mangled: {v} -> {r}");
        }
        assert_eq!(back.histograms, snap.histograms);
    }

    #[test]
    fn embedded_form_reparses_too() {
        let snap = sample();
        let embedded = crate::json::JsonValue::object([("metrics", snap.to_json_value())]);
        let doc = crate::json::JsonValue::parse(&embedded.to_pretty()).unwrap();
        let back = Snapshot::from_json_value(doc.get("metrics").unwrap()).unwrap();
        assert_eq!(back.counters, snap.counters);
        assert_eq!(back.histograms, snap.histograms);
    }

    #[test]
    fn non_finite_gauges_round_trip_to_nan_by_contract() {
        let mut s = Snapshot::default();
        s.gauges.insert("g.inf".into(), f64::INFINITY);
        let back = Snapshot::from_json(&s.to_json_value().to_pretty()).unwrap();
        assert!(back.gauges["g.inf"].is_nan());
    }

    /// The shard-merge path end to end: export → reparse → merge must
    /// behave exactly like merging the in-memory snapshots — counters
    /// add, gauges last-write-wins, equal-bounds histograms add, and
    /// mismatched-bounds histograms refuse with the same named error.
    #[test]
    fn reparsed_merge_matches_in_memory_merge() {
        let a = sample();
        let mut b = sample();
        b.counters.insert("a.events".into(), 30);
        b.gauges.insert("g.pi".into(), 2.5);

        let mut in_memory = a.clone();
        in_memory.try_merge(&b).unwrap();

        let mut reparsed = Snapshot::from_json(&a.to_json_value().to_pretty()).unwrap();
        reparsed
            .try_merge(&Snapshot::from_json(&b.to_json_value().to_pretty()).unwrap())
            .unwrap();

        assert_eq!(reparsed.counters, in_memory.counters);
        assert_eq!(reparsed.histograms, in_memory.histograms);
        assert_eq!(
            reparsed.counters["a.events"], 42,
            "counters add across shards"
        );
        assert_eq!(reparsed.gauges["g.pi"], 2.5, "gauges last-write-wins");
        assert_eq!(reparsed.histograms["h.lat"].count, 12, "histograms add");

        // A shard exported by a different telemetry version (other bucket
        // ladder) must fail the reparsed merge with the same named error
        // as the in-memory path — not silently fold garbage.
        let mut c = sample();
        c.histograms.insert(
            "h.lat".into(),
            HistogramSnapshot {
                bounds: vec![0.5, 5.0], // mismatched bounds vs `a`
                counts: vec![4, 0, 1],
                count: 5,
                sum: 9.25,
            },
        );
        let in_memory_err = a.clone().try_merge(&c).unwrap_err();
        let reparsed_err = Snapshot::from_json(&a.to_json_value().to_pretty())
            .unwrap()
            .try_merge(&Snapshot::from_json(&c.to_json_value().to_pretty()).unwrap())
            .unwrap_err();
        assert_eq!(in_memory_err, reparsed_err);
    }

    #[test]
    fn malformed_documents_are_rejected_with_named_cause() {
        for (text, needle) in [
            ("{}", "missing \"counters\""),
            (
                r#"{"counters": {"c": 1.5}, "gauges": {}, "histograms": {}}"#,
                "non-negative integer",
            ),
            (
                r#"{"counters": {}, "gauges": {}, "histograms":
                    {"h": {"bounds": [1], "counts": [1], "count": 1, "sum": 1}}}"#,
                "need bounds + overflow",
            ),
        ] {
            let err = Snapshot::from_json(text).unwrap_err();
            assert!(err.contains(needle), "{err:?} lacks {needle:?}");
        }
    }
}
