//! The suite's JSON reader and writer.
//!
//! The `BENCH_*.json` artifacts, their baselines, campaign shard files and
//! metrics snapshots are built as a [`JsonValue`] and written by
//! [`JsonValue::to_pretty`]; the trace exports and the `wsn-serve` ops
//! bodies still format their JSON by hand. Everything that reads a
//! document back (`fttt-sim explain`, the bench regression gate, the shard
//! merge) parses with [`JsonValue::parse`], a hand-rolled recursive-descent
//! reader. It accepts exactly standard JSON (RFC 8259): objects, arrays,
//! strings with escapes, numbers, booleans and null. It is not
//! performance-tuned; the inputs are kilobyte-scale artifacts this repo
//! wrote itself.

use std::collections::BTreeMap;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null` (also produced for NaN/∞ by this crate's writers).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64` (the writers only emit f64-exact
    /// values).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object. Keys sort; duplicate keys keep the last value.
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Parses `text` as one JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Member `key` of an object, if present.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// Mutable member `key` of an object, if present.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut JsonValue> {
        match self {
            JsonValue::Obj(map) => map.get_mut(key),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The elements, mutably, if this is an array.
    pub fn as_array_mut(&mut self) -> Option<&mut Vec<JsonValue>> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The number if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The number as an integer, if this is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The string if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// An object from `(key, value)` pairs (later duplicates win).
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
        JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The document as written to a file: two-space indent, keys in
    /// sorted order, a trailing newline. An array of scalars stays on one
    /// line, and so does an object of at most six scalars, so a bench
    /// row reads as one line. Numbers go through
    /// [`format_f64`], strings through [`format_str`].
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, "");
        out.push('\n');
        out
    }

    fn is_flat(&self) -> bool {
        let leaf = |v: &JsonValue| match v {
            JsonValue::Arr(items) => items.is_empty(),
            JsonValue::Obj(map) => map.is_empty(),
            _ => true,
        };
        match self {
            JsonValue::Arr(items) => items.iter().all(leaf),
            JsonValue::Obj(map) => map.len() <= INLINE_MEMBERS && map.values().all(leaf),
            _ => true,
        }
    }

    fn write_pretty(&self, out: &mut String, indent: &str) {
        let (open, close, members): (char, char, Vec<(Option<&str>, &JsonValue)>) = match self {
            JsonValue::Null => return out.push_str("null"),
            JsonValue::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(v) => return out.push_str(&format_f64(*v)),
            JsonValue::Str(s) => return out.push_str(&format_str(s)),
            JsonValue::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            JsonValue::Obj(map) => (
                '{',
                '}',
                map.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            ),
        };
        if members.is_empty() {
            out.push(open);
            out.push(close);
            return;
        }
        let inner = format!("{indent}  ");
        // One line reads `{ "a": 1, "b": 2 }` or `[1, 2]`.
        let (first, sep, last) = if self.is_flat() {
            let pad = if open == '{' { " " } else { "" };
            (pad.to_string(), ", ".to_string(), pad.to_string())
        } else {
            (
                format!("\n{inner}"),
                format!(",\n{inner}"),
                format!("\n{indent}"),
            )
        };
        out.push(open);
        out.push_str(&first);
        for (i, (key, value)) in members.iter().enumerate() {
            if i > 0 {
                out.push_str(&sep);
            }
            if let Some(key) = key {
                out.push_str(&format_str(key));
                out.push_str(": ");
            }
            value.write_pretty(out, &inner);
        }
        out.push_str(&last);
        out.push(close);
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Num(v)
    }
}

/// Counts ride as JSON numbers, exact below 2⁵³. There is no `From<u64>`
/// on purpose: a full-range `u64` (a seed, a digest) belongs in a hex
/// string, and a `u64` count says `Num(v as f64)` where it is written.
impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::Num(v as f64)
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}

impl From<Vec<JsonValue>> for JsonValue {
    fn from(v: Vec<JsonValue>) -> Self {
        JsonValue::Arr(v)
    }
}

/// The most members an object of scalars may have and still be written
/// on one line: a bench row's five fit, a metrics block does not.
const INLINE_MEMBERS: usize = 6;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-ascii \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            self.pos += 4;
                            // Surrogate pairs are not emitted by this
                            // crate's writers; map lone surrogates to the
                            // replacement character rather than erroring.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| "invalid utf-8 in string".to_string())?;
                    let c = s.chars().next().ok_or("unterminated string")?;
                    if (c as u32) < 0x20 {
                        return Err(format!("raw control character at byte {}", self.pos));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ascii by construction");
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }
}

/// Formats an `f64` as a JSON number literal: Rust's `Display` for finite
/// values (the shortest decimal string that parses back to the exact same
/// bits — so writer → [`JsonValue::parse`] → `f64` round-trips losslessly),
/// `null` for NaN/infinities (JSON has no spelling for them).
///
/// This is *the* float formatter for every artifact this workspace writes;
/// anything that a checksum or a replay diff will later re-read must go
/// through it rather than a truncating `format!("{:.3}")`.
pub fn format_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Escapes `s` as a JSON string literal (quotes, backslashes, and control
/// characters below U+0020).
pub fn format_str(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(
            JsonValue::parse(" -1.5e2 ").unwrap(),
            JsonValue::Num(-150.0)
        );
        assert_eq!(
            JsonValue::parse("\"a\\n\\\"b\\u0041\"").unwrap(),
            JsonValue::Str("a\n\"bA".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let doc =
            JsonValue::parse(r#"{"rows": [{"n": 10, "ok": true}, {"n": 20}], "x": null}"#).unwrap();
        let rows = doc.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("n").unwrap().as_f64(), Some(10.0));
        assert_eq!(rows[0].get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("x"), Some(&JsonValue::Null));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn round_trips_own_snapshot_export() {
        let r = crate::Registry::new();
        r.counter("fttt.match.evaluations").add(12);
        r.gauge("fttt.session.samples_k").set(7.5);
        r.histogram("fttt.match.tie_width", &[1.0, 2.0])
            .observe(1.0);
        let doc = JsonValue::parse(&r.snapshot().to_json_value().to_pretty()).unwrap();
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("fttt.match.evaluations"))
                .and_then(JsonValue::as_u64),
            Some(12)
        );
        assert_eq!(
            doc.get("gauges")
                .and_then(|g| g.get("fttt.session.samples_k"))
                .and_then(JsonValue::as_f64),
            Some(7.5)
        );
        let h = doc
            .get("histograms")
            .and_then(|h| h.get("fttt.match.tie_width"))
            .unwrap();
        assert_eq!(h.get("count").and_then(JsonValue::as_u64), Some(1));
    }

    #[test]
    fn writer_golden_output() {
        let doc = JsonValue::object([
            ("bench", JsonValue::from("demo")),
            ("empty", JsonValue::object::<&str>([])),
            (
                "rows",
                JsonValue::from(vec![
                    JsonValue::object([("value", JsonValue::from(1.5)), ("n", 10usize.into())]),
                    JsonValue::object([("value", JsonValue::Num(f64::NAN))]),
                ]),
            ),
            ("tags", vec![JsonValue::from("a\"b"), true.into()].into()),
        ]);
        let expected = "{\n\
                        \x20 \"bench\": \"demo\",\n\
                        \x20 \"empty\": {},\n\
                        \x20 \"rows\": [\n\
                        \x20   { \"n\": 10, \"value\": 1.5 },\n\
                        \x20   { \"value\": null }\n\
                        \x20 ],\n\
                        \x20 \"tags\": [\"a\\\"b\", true]\n\
                        }\n";
        assert_eq!(doc.to_pretty(), expected);
    }

    /// Writer → reader is lossless for every finite float and for any
    /// nesting the writer lays out flat or expanded.
    #[test]
    fn writer_round_trips_through_the_reader() {
        let floats = [0.1 + 0.2, 1e-308, -0.0, 1407.275, 2.0f64.powi(53) - 1.0];
        let doc = JsonValue::object([
            (
                "floats",
                floats
                    .iter()
                    .map(|v| JsonValue::from(*v))
                    .collect::<Vec<_>>()
                    .into(),
            ),
            (
                "nested",
                JsonValue::object([("inner", JsonValue::object([("x", JsonValue::Null)]))]),
            ),
            ("s", "tab\there\u{1}".into()),
        ]);
        let back = JsonValue::parse(&doc.to_pretty()).unwrap();
        assert_eq!(back, doc);
        let got = back.get("floats").and_then(JsonValue::as_array).unwrap();
        for (g, want) in got.iter().zip(floats) {
            assert_eq!(g.as_f64().unwrap().to_bits(), want.to_bits());
        }
    }

    #[test]
    fn mutation_helpers_reach_nested_numbers() {
        let mut doc = JsonValue::parse(r#"{"match_us": {"packed_exhaustive": 100.0}}"#).unwrap();
        let v = doc
            .get_mut("match_us")
            .and_then(|m| m.get_mut("packed_exhaustive"))
            .unwrap();
        *v = JsonValue::Num(1000.0);
        assert_eq!(
            doc.get("match_us")
                .and_then(|m| m.get("packed_exhaustive"))
                .and_then(JsonValue::as_f64),
            Some(1000.0)
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("{}{}").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
        assert!(JsonValue::parse("nul").is_err());
    }

    #[test]
    fn parses_jsonl_lines_independently() {
        let text = "{\"kind\":\"meta\",\"dropped\":0}\n{\"seq\":1,\"name\":\"x\"}\n";
        let lines: Vec<JsonValue> = text.lines().map(|l| JsonValue::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1].get("name").and_then(JsonValue::as_str), Some("x"));
    }
}
