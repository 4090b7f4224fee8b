//! The trace journal: a lock-light, fixed-capacity ring buffer of typed
//! events with Chrome-trace and JSONL exporters.
//!
//! Metrics (the other half of this crate) answer "how much / how often";
//! the journal answers *what happened on round 317*. Instrumented code
//! emits [`TraceEvent`]s — span begin/end pairs with parent ids, instants,
//! and round markers — into a process-wide [`Journal`] installed via
//! [`crate::install_journal`]. Design constraints, in order:
//!
//! * **Never block the hot path.** Each event claims a monotonic sequence
//!   number with one `fetch_add` and writes into slot `seq % capacity`
//!   under a `try_lock`; a contended slot (two writers `capacity` events
//!   apart racing the same cell) *drops the event and counts it* instead
//!   of waiting. Overwritten events (ring overflow) are counted the same
//!   way, so `retained + dropped == emitted` always holds exactly.
//! * **No tearing.** A slot is only ever read or written under its own
//!   (practically uncontended) mutex, so a drained event is always one
//!   that some thread wrote in full.
//! * **Plain-data export.** [`Journal::snapshot`] returns a [`TraceLog`]
//!   sorted by sequence number, which renders as Chrome trace-event JSON
//!   ([`TraceLog::to_chrome_json`], loadable in Perfetto / `chrome://tracing`)
//!   or as line-delimited JSON ([`TraceLog::to_jsonl`]).

use crate::export::{json_f64, json_str};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Default journal capacity used by the CLI surfaces: large enough for a
/// full fault-campaign run's round events, small enough to stay a few MB.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1 << 16;

/// A typed argument value attached to a [`TraceEvent`].
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer (counts, ids, round numbers).
    U64(u64),
    /// Floating-point value (times, fractions, similarities).
    F64(f64),
    /// Boolean flag (health-check verdicts).
    Bool(bool),
    /// Free-form text (cause labels, hop paths).
    Str(String),
    /// A wall-clock duration in microseconds. Rendered like
    /// [`ArgValue::F64`] in the raw exports; the canonical form drops it,
    /// since it measures the machine, not the simulation.
    WallUs(f64),
}

impl ArgValue {
    fn render_json(&self) -> String {
        match self {
            ArgValue::U64(v) => v.to_string(),
            ArgValue::F64(v) | ArgValue::WallUs(v) => json_f64(*v),
            ArgValue::Bool(v) => v.to_string(),
            ArgValue::Str(s) => json_str(s),
        }
    }
}

/// What kind of event a [`TraceEvent`] is.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceKind {
    /// A span opened; `id` is unique per journal, `parent` is the id of
    /// the span enclosing it on the same thread (if any).
    SpanBegin {
        /// Journal-unique span id.
        id: u64,
        /// Enclosing span on the emitting thread, if any.
        parent: Option<u64>,
    },
    /// The span `id` closed.
    SpanEnd {
        /// Id of the span being closed.
        id: u64,
    },
    /// A point-in-time marker.
    Instant,
    /// A tracking-round marker (one per [`fttt` session] round).
    Round {
        /// Session round index.
        round: u64,
    },
}

/// One journal entry.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Monotonic sequence number (journal-wide claim order).
    pub seq: u64,
    /// Microseconds since the journal's creation.
    pub t_us: f64,
    /// Small per-process thread ordinal (not the OS thread id).
    pub thread: u64,
    /// Event name, dot-separated like metric names.
    pub name: &'static str,
    /// Event kind.
    pub kind: TraceKind,
    /// Typed key/value payload.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// Monotonic per-process thread ordinals, assigned on first emission.
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ORDINAL: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    /// Stack of open span ids on this thread, for parent linking.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn thread_ordinal() -> u64 {
    THREAD_ORDINAL.with(|t| *t)
}

/// A lock-light, fixed-capacity ring-buffer event journal.
///
/// See the module docs for the concurrency contract. The journal is
/// usually installed process-wide ([`crate::install_journal`]) and fed
/// through the free functions [`crate::trace_instant`] /
/// [`crate::trace_round`] and the journal half of [`crate::span`], but it
/// can also be used directly.
#[derive(Debug)]
pub struct Journal {
    epoch: Instant,
    slots: Vec<Mutex<Option<TraceEvent>>>,
    next_seq: AtomicU64,
    next_span: AtomicU64,
    dropped: AtomicU64,
}

impl Journal {
    /// A journal holding at most `capacity` events (older and contended
    /// events are dropped, and counted, once the ring wraps).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "journal needs at least one slot");
        Self {
            epoch: Instant::now(),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            next_seq: AtomicU64::new(0),
            next_span: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// A journal with [`DEFAULT_JOURNAL_CAPACITY`] slots.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever emitted to this journal (retained or dropped).
    pub fn emitted(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// Events lost so far: overwritten by ring wrap-around plus the rare
    /// try-lock collisions. `emitted() == retained + dropped()` exactly.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records one event. Never blocks: a contended slot drops the event
    /// and counts it in [`Journal::dropped`].
    pub fn record(&self, name: &'static str, kind: TraceKind, args: Vec<(&'static str, ArgValue)>) {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let event = TraceEvent {
            seq,
            t_us: self.epoch.elapsed().as_secs_f64() * 1e6,
            thread: thread_ordinal(),
            name,
            kind,
            args,
        };
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        match slot.try_lock() {
            Ok(mut guard) => {
                if guard.replace(event).is_some() {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Opens a span: assigns a journal-unique id, links it to the
    /// enclosing span on this thread and records the begin event.
    /// Pair with [`Journal::end_span`] (the RAII [`crate::span`] does).
    pub fn begin_span(&self, name: &'static str) -> u64 {
        let id = self.next_span.fetch_add(1, Ordering::Relaxed);
        let parent = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let parent = stack.last().copied();
            stack.push(id);
            parent
        });
        self.record(name, TraceKind::SpanBegin { id, parent }, Vec::new());
        id
    }

    /// Closes the span `id` opened by [`Journal::begin_span`].
    pub fn end_span(&self, name: &'static str, id: u64) {
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if stack.last() == Some(&id) {
                stack.pop();
            } else if let Some(pos) = stack.iter().rposition(|&v| v == id) {
                stack.remove(pos);
            }
        });
        self.record(name, TraceKind::SpanEnd { id }, Vec::new());
    }

    /// A point-in-time copy of the retained events, sorted by sequence
    /// number. The journal keeps recording; the log does not change.
    pub fn snapshot(&self) -> TraceLog {
        let mut events: Vec<TraceEvent> = self
            .slots
            .iter()
            .filter_map(|slot| {
                slot.lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .as_ref()
                    .cloned()
            })
            .collect();
        events.sort_by_key(|e| e.seq);
        TraceLog {
            events,
            dropped: self.dropped(),
            capacity: self.capacity(),
        }
    }
}

impl Default for Journal {
    fn default() -> Self {
        Self::new()
    }
}

/// A plain-data copy of a journal's retained events, in sequence order.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceLog {
    /// Retained events, ascending by `seq`.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring wrap-around or slot contention.
    pub dropped: u64,
    /// Ring capacity of the source journal.
    pub capacity: usize,
}

impl TraceLog {
    /// Total events emitted to the source journal (retained + dropped).
    pub fn emitted(&self) -> u64 {
        self.events.len() as u64 + self.dropped
    }

    /// The log in the Chrome trace-event JSON format (object form with
    /// `traceEvents`), loadable in Perfetto and `chrome://tracing`.
    ///
    /// Span begin/end map to `ph: "B"`/`"E"`, instants and round markers
    /// to `ph: "i"`; `ts` is microseconds, `tid` the thread ordinal. The
    /// sequence number, span ids and round index travel in `args` so no
    /// information is lost relative to [`TraceLog::to_jsonl`].
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"displayTimeUnit\": \"ms\",\n");
        let _ = writeln!(
            out,
            "  \"otherData\": {{ \"capacity\": {}, \"dropped\": {}, \"emitted\": {} }},",
            self.capacity,
            self.dropped,
            self.emitted()
        );
        out.push_str("  \"traceEvents\": [\n");
        for (i, e) in self.events.iter().enumerate() {
            let ph = match e.kind {
                TraceKind::SpanBegin { .. } => "B",
                TraceKind::SpanEnd { .. } => "E",
                TraceKind::Instant | TraceKind::Round { .. } => "i",
            };
            let mut args = format!("\"seq\": {}", e.seq);
            match &e.kind {
                TraceKind::SpanBegin { id, parent } => {
                    let _ = write!(args, ", \"span\": {id}");
                    match parent {
                        Some(p) => {
                            let _ = write!(args, ", \"parent\": {p}");
                        }
                        None => args.push_str(", \"parent\": null"),
                    }
                }
                TraceKind::SpanEnd { id } => {
                    let _ = write!(args, ", \"span\": {id}");
                }
                TraceKind::Round { round } => {
                    let _ = write!(args, ", \"round\": {round}");
                }
                TraceKind::Instant => {}
            }
            for (k, v) in &e.args {
                let _ = write!(args, ", {}: {}", json_str(k), v.render_json());
            }
            let instant_scope = if ph == "i" { ", \"s\": \"t\"" } else { "" };
            let _ = write!(
                out,
                "    {{ \"name\": {}, \"cat\": \"fttt\", \"ph\": \"{ph}\"{instant_scope}, \
                 \"ts\": {}, \"pid\": 0, \"tid\": {}, \"args\": {{ {args} }} }}",
                json_str(e.name),
                json_f64(e.t_us),
                e.thread,
            );
            out.push_str(if i + 1 == self.events.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The log as line-delimited JSON: one meta line (`kind: "meta"` with
    /// capacity/dropped/emitted) followed by one object per event.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"kind\":\"meta\",\"capacity\":{},\"dropped\":{},\"emitted\":{}}}",
            self.capacity,
            self.dropped,
            self.emitted()
        );
        for e in &self.events {
            let _ = write!(
                out,
                "{{\"seq\":{},\"ts_us\":{},\"thread\":{},\"name\":{}",
                e.seq,
                json_f64(e.t_us),
                e.thread,
                json_str(e.name)
            );
            match &e.kind {
                TraceKind::SpanBegin { id, parent } => {
                    let _ = write!(out, ",\"kind\":\"span_begin\",\"span\":{id},\"parent\":");
                    match parent {
                        Some(p) => {
                            let _ = write!(out, "{p}");
                        }
                        None => out.push_str("null"),
                    }
                }
                TraceKind::SpanEnd { id } => {
                    let _ = write!(out, ",\"kind\":\"span_end\",\"span\":{id}");
                }
                TraceKind::Instant => out.push_str(",\"kind\":\"instant\""),
                TraceKind::Round { round } => {
                    let _ = write!(out, ",\"kind\":\"round\",\"round\":{round}");
                }
            }
            out.push_str(",\"args\":{");
            for (i, (k, v)) in e.args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}:{}", json_str(k), v.render_json());
            }
            out.push_str("}}\n");
        }
        out
    }

    /// The log in the *canonical* line-delimited form used by the
    /// determinism tests and the replay diff: everything that depends on
    /// scheduling rather than on simulation state is stripped — wall-clock
    /// `ts_us` and [`ArgValue::WallUs`] args, global sequence numbers,
    /// per-thread ordinals, and span ids (begin/end keep only their kind
    /// tag) — and the event lines are
    /// sorted lexicographically, so per-thread interleaving and racy
    /// sequence assignment cannot reorder the output. Time survives only
    /// where it is *virtual*: the round index on round markers and any
    /// simulation-time `t` the emitter put in `args`.
    ///
    /// Two identically-seeded runs whose emitters use stable (not
    /// process-global) session ids produce byte-identical canonical logs
    /// under any `par_map_threads` width, provided no events were dropped;
    /// the leading meta line carries the drop count so a diff surfaces a
    /// lossy capture instead of silently passing on a truncated log.
    pub fn to_canonical_jsonl(&self) -> String {
        let mut lines: Vec<String> = Vec::with_capacity(self.events.len());
        for e in &self.events {
            let mut line = format!("{{\"name\":{}", json_str(e.name));
            match &e.kind {
                TraceKind::SpanBegin { .. } => line.push_str(",\"kind\":\"span_begin\""),
                TraceKind::SpanEnd { .. } => line.push_str(",\"kind\":\"span_end\""),
                TraceKind::Instant => line.push_str(",\"kind\":\"instant\""),
                TraceKind::Round { round } => {
                    let _ = write!(line, ",\"kind\":\"round\",\"round\":{round}");
                }
            }
            line.push_str(",\"args\":{");
            let args = e
                .args
                .iter()
                .filter(|(_, v)| !matches!(v, ArgValue::WallUs(_)));
            for (i, (k, v)) in args.enumerate() {
                if i > 0 {
                    line.push(',');
                }
                let _ = write!(line, "{}:{}", json_str(k), v.render_json());
            }
            line.push_str("}}");
            lines.push(line);
        }
        lines.sort_unstable();
        let mut out = format!(
            "{{\"kind\":\"meta\",\"events\":{},\"dropped\":{}}}\n",
            lines.len(),
            self.dropped
        );
        for line in &lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instant(journal: &Journal, name: &'static str) {
        journal.record(name, TraceKind::Instant, Vec::new());
    }

    #[test]
    fn events_are_sequenced_and_timestamped() {
        let j = Journal::with_capacity(8);
        instant(&j, "a");
        instant(&j, "b");
        let log = j.snapshot();
        assert_eq!(log.events.len(), 2);
        assert_eq!(log.events[0].seq, 0);
        assert_eq!(log.events[1].seq, 1);
        assert!(log.events[0].t_us <= log.events[1].t_us);
        assert_eq!(log.dropped, 0);
        assert_eq!(log.emitted(), 2);
    }

    #[test]
    fn overflow_keeps_newest_and_counts_exactly() {
        let j = Journal::with_capacity(4);
        for _ in 0..11 {
            instant(&j, "e");
        }
        let log = j.snapshot();
        // Retained: the last `capacity` sequence numbers, oldest first.
        assert_eq!(
            log.events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![7, 8, 9, 10]
        );
        assert_eq!(log.dropped, 7, "11 emitted - 4 retained");
        assert_eq!(log.emitted(), 11);
    }

    #[test]
    fn spans_nest_with_parent_ids() {
        let j = Journal::with_capacity(16);
        let outer = j.begin_span("outer");
        let inner = j.begin_span("inner");
        j.end_span("inner", inner);
        j.end_span("outer", outer);
        let log = j.snapshot();
        assert_eq!(
            log.events[0].kind,
            TraceKind::SpanBegin {
                id: outer,
                parent: None
            }
        );
        assert_eq!(
            log.events[1].kind,
            TraceKind::SpanBegin {
                id: inner,
                parent: Some(outer)
            }
        );
        assert_eq!(log.events[2].kind, TraceKind::SpanEnd { id: inner });
        assert_eq!(log.events[3].kind, TraceKind::SpanEnd { id: outer });
    }

    #[test]
    fn out_of_order_span_end_keeps_stack_consistent() {
        let j = Journal::with_capacity(16);
        let a = j.begin_span("a");
        let b = j.begin_span("b");
        // Close the outer span first: the inner one must still link to it
        // and later close without corrupting the thread stack.
        j.end_span("a", a);
        let c = j.begin_span("c");
        j.end_span("c", c);
        j.end_span("b", b);
        let log = j.snapshot();
        assert_eq!(
            log.events[3].kind,
            TraceKind::SpanBegin {
                id: c,
                parent: Some(b)
            }
        );
        let d = j.begin_span("d");
        assert_eq!(
            j.snapshot().events.last().unwrap().kind,
            TraceKind::SpanBegin {
                id: d,
                parent: None
            }
        );
    }

    /// Golden test for the Chrome exporter: a hand-built log with fixed
    /// timestamps must render byte-for-byte (Perfetto loads this shape).
    #[test]
    fn chrome_export_golden() {
        let log = TraceLog {
            events: vec![
                TraceEvent {
                    seq: 0,
                    t_us: 1.5,
                    thread: 0,
                    name: "fttt.build.total",
                    kind: TraceKind::SpanBegin {
                        id: 0,
                        parent: None,
                    },
                    args: Vec::new(),
                },
                TraceEvent {
                    seq: 1,
                    t_us: 2.0,
                    thread: 0,
                    name: "fttt.session.round",
                    kind: TraceKind::Round { round: 3 },
                    args: vec![
                        ("cause", ArgValue::Str("starved".into())),
                        ("missing", ArgValue::F64(0.75)),
                        ("held", ArgValue::Bool(false)),
                        ("k_after", ArgValue::U64(7)),
                    ],
                },
                TraceEvent {
                    seq: 2,
                    t_us: 9.25,
                    thread: 1,
                    name: "fttt.build.total",
                    kind: TraceKind::SpanEnd { id: 0 },
                    args: Vec::new(),
                },
            ],
            dropped: 1,
            capacity: 8,
        };
        let expected = "{\n\
            \x20 \"displayTimeUnit\": \"ms\",\n\
            \x20 \"otherData\": { \"capacity\": 8, \"dropped\": 1, \"emitted\": 4 },\n\
            \x20 \"traceEvents\": [\n\
            \x20   { \"name\": \"fttt.build.total\", \"cat\": \"fttt\", \"ph\": \"B\", \"ts\": 1.5, \"pid\": 0, \"tid\": 0, \"args\": { \"seq\": 0, \"span\": 0, \"parent\": null } },\n\
            \x20   { \"name\": \"fttt.session.round\", \"cat\": \"fttt\", \"ph\": \"i\", \"s\": \"t\", \"ts\": 2, \"pid\": 0, \"tid\": 0, \"args\": { \"seq\": 1, \"round\": 3, \"cause\": \"starved\", \"missing\": 0.75, \"held\": false, \"k_after\": 7 } },\n\
            \x20   { \"name\": \"fttt.build.total\", \"cat\": \"fttt\", \"ph\": \"E\", \"ts\": 9.25, \"pid\": 0, \"tid\": 1, \"args\": { \"seq\": 2, \"span\": 0 } }\n\
            \x20 ]\n\
            }\n";
        assert_eq!(log.to_chrome_json(), expected);
    }

    #[test]
    fn jsonl_export_golden() {
        let log = TraceLog {
            events: vec![TraceEvent {
                seq: 4,
                t_us: 3.5,
                thread: 2,
                name: "wsn.regime.apply",
                kind: TraceKind::Instant,
                args: vec![("dropped", ArgValue::U64(12))],
            }],
            dropped: 0,
            capacity: 16,
        };
        let expected = "{\"kind\":\"meta\",\"capacity\":16,\"dropped\":0,\"emitted\":1}\n\
            {\"seq\":4,\"ts_us\":3.5,\"thread\":2,\"name\":\"wsn.regime.apply\",\"kind\":\"instant\",\"args\":{\"dropped\":12}}\n";
        assert_eq!(log.to_jsonl(), expected);
    }

    /// The canonical export strips every scheduling-dependent field (seq,
    /// ts, thread, span ids, wall-clock args) and sorts lines — so two logs holding the
    /// same events in different interleavings with different sequence
    /// numbers render byte-identically.
    #[test]
    fn canonical_jsonl_is_interleaving_invariant() {
        let round = TraceEvent {
            seq: 1,
            t_us: 2.0,
            thread: 0,
            name: "fttt.session.round",
            kind: TraceKind::Round { round: 3 },
            args: vec![
                ("session", ArgValue::U64(7)),
                ("cause", ArgValue::Str("starved".into())),
                ("step_us", ArgValue::WallUs(12.5)),
            ],
        };
        let begin = TraceEvent {
            seq: 0,
            t_us: 1.5,
            thread: 0,
            name: "fttt.build.total",
            kind: TraceKind::SpanBegin {
                id: 0,
                parent: None,
            },
            args: Vec::new(),
        };
        let a = TraceLog {
            events: vec![begin.clone(), round.clone()],
            dropped: 0,
            capacity: 8,
        };
        // Same events, swapped order, different seq/thread/ts/span ids.
        let mut begin2 = begin;
        begin2.seq = 9;
        begin2.thread = 3;
        begin2.t_us = 99.0;
        begin2.kind = TraceKind::SpanBegin {
            id: 5,
            parent: Some(4),
        };
        let mut round2 = round;
        round2.seq = 2;
        round2.t_us = 41.5;
        round2.args[2].1 = ArgValue::WallUs(40.0);
        let b = TraceLog {
            events: vec![round2, begin2],
            dropped: 0,
            capacity: 32,
        };
        let canon = a.to_canonical_jsonl();
        assert_eq!(canon, b.to_canonical_jsonl());
        let expected = "{\"kind\":\"meta\",\"events\":2,\"dropped\":0}\n\
            {\"name\":\"fttt.build.total\",\"kind\":\"span_begin\",\"args\":{}}\n\
            {\"name\":\"fttt.session.round\",\"kind\":\"round\",\"round\":3,\"args\":{\"session\":7,\"cause\":\"starved\"}}\n";
        assert_eq!(canon, expected);
        // The raw export keeps the wall-clock arg the canonical one drops.
        assert!(a.to_jsonl().contains("\"step_us\":12.5"));
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_rejected() {
        let _ = Journal::with_capacity(0);
    }
}
