//! Outside-in spans: the benchmark wraps its calls into each layer's
//! public functions in `wsn_telemetry` journal spans. Every span of one
//! round hangs under that round's `perfbench.round` span, so the spans of
//! a round share its id. The journal stays private to the benchmark (it is
//! never installed process-wide), so the layers' own instrumentation stays
//! off and only the benchmark's spans are recorded.

use std::collections::HashMap;
use std::sync::Arc;
use wsn_telemetry::{ArgValue, Journal, TraceKind};

pub struct Tracer {
    journal: Arc<Journal>,
}

impl Tracer {
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            journal: Arc::new(Journal::with_capacity(capacity)),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.journal.begin_span(name);
        let out = f();
        self.journal.end_span(name, id);
        out
    }

    /// Runs `f` as round `round`: a `perfbench.round` span that parents
    /// every span `f` opens, tagged with the round id.
    pub fn round<T>(&self, round: u64, f: impl FnOnce() -> T) -> T {
        self.journal.record(
            "perfbench.round",
            TraceKind::Round { round },
            vec![("round", ArgValue::U64(round))],
        );
        self.span("perfbench.round", f)
    }

    /// Span durations in microseconds, by span name. Fails if the ring
    /// dropped events, since the durations would then be a biased sample.
    pub fn durations_us(&self) -> Result<HashMap<&'static str, Vec<f64>>, String> {
        let log = self.journal.snapshot();
        if log.dropped > 0 {
            return Err(format!(
                "trace journal dropped {} of {} events; raise its capacity",
                log.dropped,
                self.journal.emitted()
            ));
        }
        let mut open: HashMap<u64, f64> = HashMap::new();
        let mut out: HashMap<&'static str, Vec<f64>> = HashMap::new();
        for e in &log.events {
            match e.kind {
                TraceKind::SpanBegin { id, .. } => {
                    open.insert(id, e.t_us);
                }
                TraceKind::SpanEnd { id } => {
                    if let Some(t0) = open.remove(&id) {
                        out.entry(e.name).or_default().push(e.t_us - t0);
                    }
                }
                _ => {}
            }
        }
        Ok(out)
    }
}

/// Runs `f` in a span when tracing, bare otherwise.
pub fn timed<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}
