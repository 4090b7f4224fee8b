//! `fttt-sim explain`: render a `--trace-out` journal as a human-readable
//! timeline of session status transitions and their causes.
//!
//! Accepts both trace formats the journal writes: a Chrome trace-event
//! document (one JSON object with a `traceEvents` array) or line-delimited
//! JSON (one meta line, then one object per event). Round data lives in the
//! per-event `args` object in both, so extraction is format-agnostic once
//! the event objects are in hand.

use wsn_telemetry::json::JsonValue;

/// Aggregated `fttt.match.index` activity (the coarse-to-fine matcher's
/// chunk-pruning instants), either for one round or for a whole trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IndexStats {
    /// Indexed matches performed.
    pub matches: u64,
    /// Chunk bounds computed across those matches.
    pub chunks: u64,
    /// Chunks whose faces were actually scanned.
    pub scanned: u64,
    /// Chunks pruned wholesale by their envelope lower bound.
    pub pruned: u64,
}

impl IndexStats {
    fn absorb(&mut self, event: &JsonValue) {
        let args = event.get("args");
        let u = |key| {
            args.and_then(|a| a.get(key))
                .and_then(JsonValue::as_u64)
                .unwrap_or(0)
        };
        self.matches += 1;
        self.chunks += u("chunks");
        self.scanned += u("scanned");
        self.pruned += u("pruned");
    }
}

/// One `fttt.map.repair` event: a live-churn face-map repair. The epoch
/// arrives hex-encoded like every other digest in the journal; `epoch`
/// holds the parsed ordinal when the hex is canonical.
#[derive(Debug, Clone)]
pub struct RepairRecord {
    /// Owning session's process-unique id (0 for traces without one).
    pub session: u64,
    /// Simulation time of the churn event.
    pub t: f64,
    /// Post-repair map epoch (`None` when the hex field is malformed).
    pub epoch: Option<u64>,
    pub node: u64,
    /// Death when true, (re)birth otherwise.
    pub death: bool,
    pub planes_retired: u64,
    pub planes_added: u64,
    pub cells_reclassified: u64,
    pub faces_before: u64,
    pub faces_after: u64,
    pub repair_us: f64,
    /// The session's warm-start face did not survive the repair exactly
    /// (it re-enters the recovery ladder at a forced re-acquisition).
    pub face_remapped: bool,
}

/// One `fttt.session.round` event, decoded from either trace format.
#[derive(Debug, Clone)]
pub struct RoundRecord {
    /// Owning session's process-unique id (0 for old traces without one).
    pub session: u64,
    pub round: u64,
    pub t: f64,
    pub status_before: String,
    pub status: String,
    pub cause: String,
    pub missing: f64,
    pub zeros: f64,
    pub k: u64,
    pub k_after: u64,
    pub held: bool,
    pub reacquired: bool,
    pub similarity: Option<f64>,
    /// Indexed-matcher activity journaled since the previous round event
    /// (matches run *during* a round precede its closing event).
    pub index: IndexStats,
}

/// Everything `explain` pulls out of one trace file.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Session rounds in journal order.
    pub rounds: Vec<RoundRecord>,
    /// Live-churn face-map repairs, ordered by (session, time) so the
    /// timeline can interleave them with their session's rounds.
    pub repairs: Vec<RepairRecord>,
    /// Dropped-event count from the journal meta, when present.
    pub dropped: Option<u64>,
    /// Whole-trace indexed-matcher totals (including matches after the
    /// last round event, which no round can claim).
    pub index_totals: IndexStats,
    /// Occurrence counts of every other event name in the trace.
    pub other_events: Vec<(String, u64)>,
}

fn str_of(obj: &JsonValue, key: &str) -> Option<String> {
    obj.get(key).and_then(JsonValue::as_str).map(str::to_owned)
}

fn f64_of(obj: &JsonValue, key: &str) -> Option<f64> {
    obj.get(key).and_then(JsonValue::as_f64)
}

fn bool_of(obj: &JsonValue, key: &str) -> bool {
    obj.get(key).and_then(JsonValue::as_bool).unwrap_or(false)
}

/// Decodes one journal event object; `Some` only for session rounds.
fn round_of(event: &JsonValue) -> Option<RoundRecord> {
    if str_of(event, "name").as_deref() != Some("fttt.session.round") {
        return None;
    }
    let args = event.get("args")?;
    // Chrome puts the round ordinal in args, JSONL beside them.
    let round = args
        .get("round")
        .or_else(|| event.get("round"))
        .and_then(JsonValue::as_u64)?;
    Some(RoundRecord {
        session: args.get("session").and_then(JsonValue::as_u64).unwrap_or(0),
        round,
        t: f64_of(args, "t")?,
        status_before: str_of(args, "status_before")?,
        status: str_of(args, "status")?,
        cause: str_of(args, "cause")?,
        missing: f64_of(args, "missing").unwrap_or(0.0),
        zeros: f64_of(args, "zeros").unwrap_or(0.0),
        k: args.get("k").and_then(JsonValue::as_u64).unwrap_or(0),
        k_after: args.get("k_after").and_then(JsonValue::as_u64).unwrap_or(0),
        held: bool_of(args, "held"),
        reacquired: bool_of(args, "reacquired"),
        similarity: f64_of(args, "similarity"),
        index: IndexStats::default(),
    })
}

/// Decodes one journal event object; `Some` only for map repairs.
fn repair_of(event: &JsonValue) -> Option<RepairRecord> {
    if str_of(event, "name").as_deref() != Some("fttt.map.repair") {
        return None;
    }
    let args = event.get("args")?;
    let u = |key| args.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
    Some(RepairRecord {
        session: u("session"),
        t: f64_of(args, "t").unwrap_or(0.0),
        epoch: str_of(args, "epoch")
            .as_deref()
            .and_then(wsn_network::replay::parse_digest_hex),
        node: u("node"),
        death: bool_of(args, "death"),
        planes_retired: u("planes_retired"),
        planes_added: u("planes_added"),
        cells_reclassified: u("cells"),
        faces_before: u("faces_before"),
        faces_after: u("faces_after"),
        repair_us: f64_of(args, "repair_us").unwrap_or(0.0),
        face_remapped: bool_of(args, "face_remapped"),
    })
}

/// Walks every event object in a trace file's text — Chrome trace-event
/// or line-delimited JSON — and returns the journal's dropped-event count
/// when the meta carries one.
fn for_each_event(text: &str, note: &mut dyn FnMut(&JsonValue)) -> Result<Option<u64>, String> {
    if let Ok(doc) = JsonValue::parse(text) {
        // A whole-file parse succeeding means Chrome trace-event format.
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .ok_or("not a trace file: no \"traceEvents\" array")?;
        for e in events {
            note(e);
        }
        Ok(doc
            .get("otherData")
            .and_then(|o| o.get("dropped"))
            .and_then(JsonValue::as_u64))
    } else {
        // Otherwise it must be line-delimited JSON.
        let mut dropped = None;
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let e = JsonValue::parse(line)
                .map_err(|err| format!("line {}: not JSON ({err})", i + 1))?;
            if str_of(&e, "kind").as_deref() == Some("meta") {
                dropped = e.get("dropped").and_then(JsonValue::as_u64);
                continue;
            }
            note(&e);
        }
        Ok(dropped)
    }
}

/// Parses a trace file's text in either format into a [`TraceSummary`].
pub fn load(text: &str) -> Result<TraceSummary, String> {
    let mut summary = TraceSummary::default();
    let mut counts = std::collections::BTreeMap::<String, u64>::new();
    // Indexed matches run *inside* a round, so their instants precede the
    // round's closing event in journal order: accumulate until the next
    // round event claims them. Must happen before the stable sort below —
    // attribution is positional, not keyed.
    let mut pending = IndexStats::default();
    let mut note = |event: &JsonValue| {
        if str_of(event, "name").as_deref() == Some("fttt.match.index") {
            pending.absorb(event);
            summary.index_totals.absorb(event);
            return;
        }
        if let Some(rep) = repair_of(event) {
            summary.repairs.push(rep);
            return;
        }
        if let Some(mut r) = round_of(event) {
            r.index = std::mem::take(&mut pending);
            summary.rounds.push(r);
        } else if let Some(name) = str_of(event, "name") {
            *counts.entry(name).or_insert(0) += 1;
        }
    };
    let dropped = for_each_event(text, &mut note)?;
    summary.dropped = dropped;
    summary.rounds.sort_by_key(|r| (r.session, r.round));
    summary
        .repairs
        .sort_by(|a, b| a.session.cmp(&b.session).then(a.t.total_cmp(&b.t)));
    summary.other_events = counts.into_iter().collect();
    Ok(summary)
}

/// Writes every not-yet-rendered repair at or before `upto` (as a
/// `(session, t)` bound; `None` drains the rest), advancing `next` and
/// opening a new per-session block when the timeline crosses sessions.
fn flush_repairs(
    out: &mut String,
    repairs: &[RepairRecord],
    next: &mut usize,
    upto: Option<(u64, f64)>,
    many_sessions: bool,
    current_session: &mut Option<u64>,
) {
    use std::fmt::Write as _;
    while let Some(rep) = repairs.get(*next) {
        if let Some((session, t)) = upto {
            let due = rep.session < session || (rep.session == session && rep.t <= t);
            if !due {
                break;
            }
        }
        if many_sessions && *current_session != Some(rep.session) {
            *current_session = Some(rep.session);
            let _ = writeln!(out, "— session {} —", rep.session);
        }
        let epoch = rep.epoch.map_or_else(|| "?".to_owned(), |e| e.to_string());
        let _ = writeln!(
            out,
            "churn       t={:>6.1}s  epoch {}: node {} {}, {} planes retired, {} added, \
             {} cells reclassified, faces {} -> {}, repair {:.0} µs{}",
            rep.t,
            epoch,
            rep.node,
            if rep.death { "died" } else { "joined" },
            rep.planes_retired,
            rep.planes_added,
            rep.cells_reclassified,
            rep.faces_before,
            rep.faces_after,
            rep.repair_us,
            if rep.face_remapped {
                ", face remapped"
            } else {
                ""
            },
        );
        *next += 1;
    }
}

fn pct(fraction: f64) -> String {
    format!("{:.0}%", 100.0 * fraction)
}

/// Renders the human-readable timeline: one line per status transition
/// (naming the round and the cause), ladder movements, and a summary.
pub fn render(summary: &TraceSummary) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if summary.rounds.is_empty() && summary.repairs.is_empty() {
        out.push_str("no session rounds in this trace\n");
        if !summary.other_events.is_empty() {
            out.push_str("(the journal holds other events — see below)\n");
        }
    }
    let sessions: std::collections::BTreeSet<u64> = summary
        .rounds
        .iter()
        .map(|r| r.session)
        .chain(summary.repairs.iter().map(|r| r.session))
        .collect();
    let many_sessions = sessions.len() > 1;
    let mut current_session = None;
    let mut transitions = 0usize;
    let mut next_repair = 0usize;
    for r in &summary.rounds {
        // Churn repairs interleave with rounds by simulation time: render
        // every repair due at or before this round first (even when the
        // round itself stays silent).
        flush_repairs(
            &mut out,
            &summary.repairs,
            &mut next_repair,
            Some((r.session, r.t)),
            many_sessions,
            &mut current_session,
        );
        let mut notes = Vec::new();
        if r.status_before != r.status {
            transitions += 1;
            notes.push(format!("{} -> {}", r.status_before, r.status));
        }
        if r.k_after != r.k {
            notes.push(format!(
                "k {} -> {} ({})",
                r.k,
                r.k_after,
                if r.k_after > r.k {
                    "escalated"
                } else {
                    "relaxed"
                }
            ));
        }
        if r.held {
            notes.push("held last estimate".into());
        }
        if r.reacquired {
            notes.push("reacquired by exhaustive fallback".into());
        }
        if notes.is_empty() {
            continue; // steady-state rounds stay silent
        }
        // Only on rounds that already have something to say: pruning
        // effectiveness of the indexed matches that ran inside them.
        if r.index.matches > 0 {
            notes.push(format!(
                "index pruned {}/{} chunks over {} match(es)",
                r.index.pruned, r.index.chunks, r.index.matches
            ));
        }
        // Campaign traces interleave many sessions; break the timeline
        // into per-session blocks so round ordinals read coherently (and
        // only for sessions that have something to say).
        if many_sessions && current_session != Some(r.session) {
            current_session = Some(r.session);
            let _ = writeln!(out, "— session {} —", r.session);
        }
        let _ = write!(
            out,
            "round {:>4}  t={:>6.1}s  cause: {:<10}  missing {:>4}, zeros {:>4}",
            r.round,
            r.t,
            r.cause,
            pct(r.missing),
            pct(r.zeros),
        );
        if let Some(sim) = r.similarity {
            let _ = write!(out, ", sim {sim:.2}");
        }
        let _ = writeln!(out, "  | {}", notes.join("; "));
    }
    flush_repairs(
        &mut out,
        &summary.repairs,
        &mut next_repair,
        None,
        many_sessions,
        &mut current_session,
    );
    let _ = writeln!(out, "---");
    let _ = writeln!(
        out,
        "{} rounds across {} session(s), {} status transition(s)",
        summary.rounds.len(),
        sessions.len(),
        transitions
    );
    let mut causes = std::collections::BTreeMap::<&str, u64>::new();
    for r in &summary.rounds {
        *causes.entry(r.cause.as_str()).or_insert(0) += 1;
    }
    if !causes.is_empty() {
        let rendered: Vec<String> = causes.iter().map(|(c, n)| format!("{c} x{n}")).collect();
        let _ = writeln!(out, "causes: {}", rendered.join(", "));
    }
    if !summary.repairs.is_empty() {
        let deaths = summary.repairs.iter().filter(|r| r.death).count();
        let remaps = summary.repairs.iter().filter(|r| r.face_remapped).count();
        let _ = writeln!(
            out,
            "map repairs: {} ({} death(s), {} birth(s)), {} warm-face remap(s)",
            summary.repairs.len(),
            deaths,
            summary.repairs.len() - deaths,
            remaps
        );
    }
    if let Some(last) = summary.rounds.last() {
        let _ = writeln!(out, "final status: {}", last.status);
    }
    let ix = &summary.index_totals;
    if ix.matches > 0 {
        let rate = if ix.chunks > 0 {
            100.0 * ix.pruned as f64 / ix.chunks as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "indexed matching: {} match(es), pruned {} of {} chunk bounds ({rate:.0}%)",
            ix.matches, ix.pruned, ix.chunks
        );
    }
    if let Some(dropped) = summary.dropped {
        if dropped > 0 {
            let _ = writeln!(
                out,
                "warning: journal dropped {dropped} event(s) — raise the capacity \
                 or shorten the run for a complete record"
            );
        }
    }
    for (name, n) in &summary.other_events {
        let _ = writeln!(out, "other events: {name} x{n}");
    }
    out
}

/// One `fttt.client.push` event: the client-observed side of a traced
/// push batch (`serve_load --trace-out`).
#[derive(Debug, Clone)]
pub struct ClientPush {
    /// Wire trace id, parsed from the hex field (`None` when malformed).
    pub trace: Option<u64>,
    pub session: u64,
    pub rounds: u64,
    /// Full client-observed round trip: send → matching reply.
    pub rtt_us: f64,
}

/// One `fttt.server.push` event: the shard-side span for the same batch,
/// stamped with the request's trace id.
#[derive(Debug, Clone)]
pub struct ServerPush {
    pub trace: Option<u64>,
    pub session: u64,
    pub shard: u64,
    pub rounds: u64,
    /// Time the worker spent actually stepping rounds (no queue wait).
    pub work_us: f64,
}

/// Push-correlation view of one journal: every cross-wire event, keyed
/// for a trace-id join against the journal from the other side.
#[derive(Debug, Clone, Default)]
pub struct WireTrace {
    pub client_pushes: Vec<ClientPush>,
    pub server_pushes: Vec<ServerPush>,
    /// `fttt.server.shed` trace ids. The client retries a shed push under
    /// the *same* trace id, so a shed and a server span sharing an id
    /// read as "shed, retried, served".
    pub sheds: Vec<Option<u64>>,
    /// `fttt.server.stale_epoch` rejections: (trace, session, opened
    /// epoch, current epoch).
    pub stales: Vec<(Option<u64>, u64, u64, u64)>,
}

/// Parses a trace file's text (either format) into its cross-wire events.
pub fn load_wire(text: &str) -> Result<WireTrace, String> {
    let mut w = WireTrace::default();
    for_each_event(text, &mut |event| {
        let Some(name) = str_of(event, "name") else {
            return;
        };
        let Some(args) = event.get("args") else {
            return;
        };
        let trace = str_of(args, "trace")
            .as_deref()
            .and_then(wsn_network::replay::parse_digest_hex);
        let u = |key: &str| args.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        match name.as_str() {
            "fttt.client.push" => w.client_pushes.push(ClientPush {
                trace,
                session: u("session"),
                rounds: u("rounds"),
                rtt_us: f64_of(args, "rtt_us").unwrap_or(0.0),
            }),
            "fttt.server.push" => w.server_pushes.push(ServerPush {
                trace,
                session: u("session"),
                shard: u("shard"),
                rounds: u("rounds"),
                work_us: f64_of(args, "work_us").unwrap_or(0.0),
            }),
            "fttt.server.shed" => w.sheds.push(trace),
            "fttt.server.stale_epoch" => {
                w.stales
                    .push((trace, u("session"), u("opened_epoch"), u("current_epoch")))
            }
            _ => {}
        }
    })?;
    Ok(w)
}

/// One push batch seen on both sides of the wire, joined by trace id.
#[derive(Debug, Clone)]
pub struct MatchedPush {
    pub trace: u64,
    pub session: u64,
    pub shard: u64,
    pub rounds: u64,
    pub rtt_us: f64,
    pub work_us: f64,
    /// Server sheds carrying this trace id (retries before it was served).
    pub sheds: u64,
}

/// The cross-wire join of a client trace against a server journal.
#[derive(Debug, Clone, Default)]
pub struct Correlation {
    pub matched: Vec<MatchedPush>,
    pub client_total: usize,
    pub server_total: usize,
    /// Client pushes with no matching server span (untraced v1 frames,
    /// a malformed id, or a dropped server event).
    pub client_only: usize,
    /// Server spans no client push claimed (other clients, drops).
    pub server_only: usize,
    pub sheds_total: usize,
    /// Sheds whose trace id the server eventually served — the client
    /// retried and got through.
    pub sheds_retried: usize,
    pub stales: usize,
    /// Trace ids on which the two journals disagree about the session id
    /// or round count (almost certainly journals from different runs).
    pub session_mismatches: usize,
}

/// Joins the two sides by trace id; journal order is irrelevant.
pub fn correlate(client: &WireTrace, server: &WireTrace) -> Correlation {
    let mut spans = std::collections::HashMap::<u64, &ServerPush>::new();
    let mut untraced_spans = 0usize;
    for s in &server.server_pushes {
        match s.trace {
            Some(t) => {
                spans.insert(t, s);
            }
            None => untraced_spans += 1,
        }
    }
    let served: std::collections::HashSet<u64> = server
        .server_pushes
        .iter()
        .filter_map(|s| s.trace)
        .collect();
    let mut shed_counts = std::collections::HashMap::<u64, u64>::new();
    for t in server.sheds.iter().flatten() {
        *shed_counts.entry(*t).or_insert(0) += 1;
    }
    let mut c = Correlation {
        client_total: client.client_pushes.len(),
        server_total: server.server_pushes.len(),
        sheds_total: server.sheds.len(),
        sheds_retried: shed_counts
            .iter()
            .filter(|(t, _)| served.contains(t))
            .map(|(_, n)| *n as usize)
            .sum(),
        stales: server.stales.len(),
        ..Correlation::default()
    };
    for p in &client.client_pushes {
        let Some(t) = p.trace else {
            c.client_only += 1;
            continue;
        };
        let Some(s) = spans.remove(&t) else {
            c.client_only += 1;
            continue;
        };
        if s.session != p.session || s.rounds != p.rounds {
            c.session_mismatches += 1;
        }
        c.matched.push(MatchedPush {
            trace: t,
            session: p.session,
            shard: s.shard,
            rounds: p.rounds,
            rtt_us: p.rtt_us,
            work_us: s.work_us,
            sheds: shed_counts.get(&t).copied().unwrap_or(0),
        });
    }
    c.server_only = untraced_spans + spans.len();
    c
}

/// `sorted` ascending; nearest-rank percentile.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Renders the cross-wire join: where each slow round actually spent its
/// time (shard work vs queue/wire), named per trace id.
pub fn render_correlation(c: &Correlation) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "cross-wire correlation: {} client push(es) <-> {} server span(s), {} matched by trace id",
        c.client_total,
        c.server_total,
        c.matched.len()
    );
    if c.matched.is_empty() {
        out.push_str(
            "no pushes share a trace id — run the client with --trace-out (traced v2 \
             frames) and the server with a journal, then correlate those two files\n",
        );
        return out;
    }
    let mut overheads: Vec<f64> = c
        .matched
        .iter()
        .map(|m| (m.rtt_us - m.work_us).max(0.0))
        .collect();
    overheads.sort_by(f64::total_cmp);
    let work: f64 = c.matched.iter().map(|m| m.work_us).sum();
    let rtt: f64 = c.matched.iter().map(|m| m.rtt_us).sum();
    let _ = writeln!(
        out,
        "queue+wire overhead per push (rtt − server work): p50 {:.0} µs, p99 {:.0} µs, max {:.0} µs",
        percentile(&overheads, 0.5),
        percentile(&overheads, 0.99),
        overheads.last().copied().unwrap_or(0.0),
    );
    let _ = writeln!(
        out,
        "server work accounts for {:.0}% of client-observed rtt overall",
        100.0 * work / rtt.max(1e-9),
    );
    let mut shards = std::collections::BTreeMap::<u64, u64>::new();
    for m in &c.matched {
        *shards.entry(m.shard).or_insert(0) += 1;
    }
    let spread: Vec<String> = shards
        .iter()
        .map(|(s, n)| format!("shard {s} x{n}"))
        .collect();
    let _ = writeln!(out, "shard spread: {}", spread.join(", "));
    let mut slowest: Vec<&MatchedPush> = c.matched.iter().collect();
    slowest.sort_by(|a, b| b.rtt_us.total_cmp(&a.rtt_us));
    let _ = writeln!(out, "slowest pushes (server-side attribution):");
    for m in slowest.iter().take(5) {
        let overhead = (m.rtt_us - m.work_us).max(0.0);
        let cause = if m.sheds > 0 {
            format!("  [shed x{} before served]", m.sheds)
        } else if overhead > m.work_us {
            "  [queue/wire dominated]".to_owned()
        } else {
            "  [server work dominated]".to_owned()
        };
        let _ = writeln!(
            out,
            "  trace {}  session {:>4}  shard {}  {} round(s)  rtt {:>7.0} µs = {:>6.0} µs work + {:>6.0} µs queue/wire{}",
            wsn_network::replay::digest_hex(m.trace),
            m.session,
            m.shard,
            m.rounds,
            m.rtt_us,
            m.work_us,
            overhead,
            cause,
        );
    }
    if c.sheds_total > 0 {
        let _ = writeln!(
            out,
            "sheds: {} ({} retried under the same trace id and served)",
            c.sheds_total, c.sheds_retried,
        );
    }
    if c.stales > 0 {
        let _ = writeln!(out, "stale-epoch rejections: {}", c.stales);
    }
    if c.client_only > 0 {
        let _ = writeln!(
            out,
            "client pushes with no server span: {} (untraced v1 frames, or the server \
             journal dropped events)",
            c.client_only,
        );
    }
    if c.server_only > 0 {
        let _ = writeln!(
            out,
            "server spans with no client push: {} (other clients, or the client journal \
             dropped events)",
            c.server_only,
        );
    }
    if c.session_mismatches > 0 {
        let _ = writeln!(
            out,
            "warning: {} trace id(s) name different sessions or round counts on the two \
             sides — are these journals from the same run?",
            c.session_mismatches,
        );
    }
    out
}

/// `explain CLIENT --correlate SERVER`: join the two journals and print
/// the attribution report.
pub fn run_correlate(client_path: &std::path::Path, server_path: &std::path::Path) {
    let read = |path: &std::path::Path| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {}: {e}", path.display());
            std::process::exit(2);
        })
    };
    let parse = |path: &std::path::Path, text: &str| {
        load_wire(text).unwrap_or_else(|e| {
            eprintln!("error: {}: {e}", path.display());
            std::process::exit(2);
        })
    };
    let client = parse(client_path, &read(client_path));
    let server = parse(server_path, &read(server_path));
    if client.client_pushes.is_empty() && !client.server_pushes.is_empty() {
        eprintln!(
            "note: {} holds server spans but no client pushes — argument order is \
             `explain CLIENT_TRACE --correlate SERVER_TRACE`",
            client_path.display(),
        );
    }
    print!("{}", render_correlation(&correlate(&client, &server)));
}

/// The `explain` subcommand: load, render, print.
pub fn run(path: &std::path::Path) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {}: {e}", path.display());
        std::process::exit(2);
    });
    match load(&text) {
        Ok(summary) => print!("{}", render(&summary)),
        Err(e) => {
            eprintln!("error: {}: {e}", path.display());
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_telemetry::trace::{ArgValue, Journal, TraceKind};

    /// Builds a journal holding two rounds (one Degraded transition) and an
    /// unrelated instant, then returns both serializations.
    fn sample_trace() -> (String, String) {
        let j = Journal::with_capacity(16);
        for (round, before, after, cause, missing) in [
            (0u64, "Tracking", "Tracking", "healthy", 0.0),
            (1, "Tracking", "Degraded", "blackout", 1.0),
        ] {
            j.record(
                "fttt.session.round",
                TraceKind::Round { round },
                vec![
                    ("t", ArgValue::F64(round as f64)),
                    ("status_before", ArgValue::Str(before.into())),
                    ("status", ArgValue::Str(after.into())),
                    ("cause", ArgValue::Str(cause.into())),
                    ("missing", ArgValue::F64(missing)),
                    ("zeros", ArgValue::F64(0.25)),
                    ("k", ArgValue::U64(5)),
                    ("k_after", ArgValue::U64(if round == 1 { 7 } else { 5 })),
                    ("held", ArgValue::Bool(round == 1)),
                    ("reacquired", ArgValue::Bool(false)),
                ],
            );
        }
        j.record("fttt.match.exhaustive", TraceKind::Instant, Vec::new());
        let log = j.snapshot();
        (log.to_chrome_json(), log.to_jsonl())
    }

    #[test]
    fn both_formats_decode_to_the_same_rounds() {
        let (chrome, jsonl) = sample_trace();
        for text in [chrome, jsonl] {
            let s = load(&text).unwrap();
            assert_eq!(s.rounds.len(), 2, "{text}");
            assert_eq!(s.rounds[1].round, 1);
            assert_eq!(s.rounds[1].cause, "blackout");
            assert_eq!(s.rounds[1].status_before, "Tracking");
            assert_eq!(s.rounds[1].status, "Degraded");
            assert_eq!(s.rounds[1].k_after, 7);
            assert!(s.rounds[1].held);
            assert_eq!(s.dropped, Some(0));
            assert_eq!(s.other_events, vec![("fttt.match.exhaustive".into(), 1)]);
        }
    }

    #[test]
    fn render_names_round_and_cause_of_each_transition() {
        let (chrome, _) = sample_trace();
        let text = render(&load(&chrome).unwrap());
        assert!(text.contains("round    1"), "{text}");
        assert!(text.contains("cause: blackout"), "{text}");
        assert!(text.contains("Tracking -> Degraded"), "{text}");
        assert!(text.contains("k 5 -> 7 (escalated)"), "{text}");
        assert!(
            text.contains("2 rounds across 1 session(s), 1 status transition(s)"),
            "{text}"
        );
        // One session only: no per-session block headers.
        assert!(!text.contains("— session"), "{text}");
        assert!(text.contains("final status: Degraded"), "{text}");
        // The healthy steady-state round stays silent in the timeline.
        assert!(!text.contains("round    0"), "{text}");
    }

    #[test]
    fn interleaved_sessions_split_into_blocks() {
        let j = Journal::with_capacity(16);
        for session in [3u64, 9] {
            j.record(
                "fttt.session.round",
                TraceKind::Round { round: 0 },
                vec![
                    ("session", ArgValue::U64(session)),
                    ("t", ArgValue::F64(0.0)),
                    ("status_before", ArgValue::Str("Tracking".into())),
                    ("status", ArgValue::Str("Degraded".into())),
                    ("cause", ArgValue::Str("starved".into())),
                ],
            );
        }
        let s = load(&j.snapshot().to_jsonl()).unwrap();
        assert_eq!(s.rounds[0].session, 3);
        assert_eq!(s.rounds[1].session, 9);
        let text = render(&s);
        assert!(text.contains("— session 3 —"), "{text}");
        assert!(text.contains("— session 9 —"), "{text}");
        assert!(text.contains("2 rounds across 2 session(s)"), "{text}");
    }

    /// Builds a journal interleaving indexed-match instants with rounds:
    /// two matches inside round 0 (silent round), one inside round 1 (a
    /// transition), one after the final round (attributable to no round).
    fn indexed_trace() -> String {
        let j = Journal::with_capacity(32);
        let index_instant = |chunks: u64, scanned: u64| {
            j.record(
                "fttt.match.index",
                TraceKind::Instant,
                vec![
                    ("face", ArgValue::U64(3)),
                    ("evaluated", ArgValue::U64(9)),
                    ("ties", ArgValue::U64(1)),
                    ("chunks", ArgValue::U64(chunks)),
                    ("scanned", ArgValue::U64(scanned)),
                    ("pruned", ArgValue::U64(chunks - scanned)),
                    ("tightness", ArgValue::F64(0.8)),
                ],
            );
        };
        let round = |round: u64, status: &str| {
            j.record(
                "fttt.session.round",
                TraceKind::Round { round },
                vec![
                    ("t", ArgValue::F64(round as f64)),
                    ("status_before", ArgValue::Str("Tracking".into())),
                    ("status", ArgValue::Str(status.into())),
                    ("cause", ArgValue::Str("healthy".into())),
                ],
            );
        };
        index_instant(10, 2);
        index_instant(10, 3);
        round(0, "Tracking");
        index_instant(20, 4);
        round(1, "Degraded");
        index_instant(8, 8);
        j.snapshot().to_jsonl()
    }

    #[test]
    fn index_instants_attribute_to_their_round_in_journal_order() {
        let s = load(&indexed_trace()).unwrap();
        assert_eq!(s.rounds.len(), 2);
        assert_eq!(
            s.rounds[0].index,
            IndexStats {
                matches: 2,
                chunks: 20,
                scanned: 5,
                pruned: 15
            }
        );
        assert_eq!(
            s.rounds[1].index,
            IndexStats {
                matches: 1,
                chunks: 20,
                scanned: 4,
                pruned: 16
            }
        );
        // Totals also cover the trailing match no round could claim.
        assert_eq!(
            s.index_totals,
            IndexStats {
                matches: 4,
                chunks: 48,
                scanned: 17,
                pruned: 31
            }
        );
        // Index instants are rendered as index stats, not "other events".
        assert!(s.other_events.is_empty(), "{:?}", s.other_events);
    }

    #[test]
    fn render_shows_pruning_effectiveness() {
        let text = render(&load(&indexed_trace()).unwrap());
        // Round 0 is steady-state: silent, even with index activity.
        assert!(!text.contains("round    0"), "{text}");
        // Round 1 transitions and reports its own pruning.
        assert!(
            text.contains("index pruned 16/20 chunks over 1 match(es)"),
            "{text}"
        );
        assert!(
            text.contains("indexed matching: 4 match(es), pruned 31 of 48 chunk bounds (65%)"),
            "{text}"
        );
    }

    /// A journal interleaving churn repairs with rounds: a silent round,
    /// a death repair (t between the rounds), a transition round, then a
    /// birth repair after the final round (flushed by the trailing drain).
    fn churn_trace() -> String {
        let j = Journal::with_capacity(32);
        let round = |round: u64, status: &str| {
            j.record(
                "fttt.session.round",
                TraceKind::Round { round },
                vec![
                    ("t", ArgValue::F64(round as f64 * 10.0)),
                    ("status_before", ArgValue::Str("Tracking".into())),
                    ("status", ArgValue::Str(status.into())),
                    ("cause", ArgValue::Str("healthy".into())),
                ],
            );
        };
        let repair = |t: f64, epoch: &str, node: u64, death: bool, remapped: bool| {
            j.record(
                "fttt.map.repair",
                TraceKind::Instant,
                vec![
                    ("t", ArgValue::F64(t)),
                    ("epoch", ArgValue::Str(epoch.into())),
                    ("node", ArgValue::U64(node)),
                    ("death", ArgValue::Bool(death)),
                    ("planes_retired", ArgValue::U64(if death { 12 } else { 0 })),
                    ("planes_added", ArgValue::U64(if death { 9 } else { 14 })),
                    ("cells", ArgValue::U64(625)),
                    ("faces_before", ArgValue::U64(841)),
                    ("faces_after", ArgValue::U64(838)),
                    ("repair_us", ArgValue::WallUs(480.2)),
                    ("face_remapped", ArgValue::Bool(remapped)),
                ],
            );
        };
        round(0, "Tracking");
        repair(5.0, &wsn_network::replay::digest_hex(3), 7, true, true);
        round(1, "Degraded");
        repair(15.0, "not-hex", 7, false, false);
        j.snapshot().to_jsonl()
    }

    #[test]
    fn repairs_decode_with_parsed_epochs() {
        let s = load(&churn_trace()).unwrap();
        assert_eq!(s.repairs.len(), 2);
        assert_eq!(s.repairs[0].epoch, Some(3));
        assert_eq!(s.repairs[0].node, 7);
        assert!(s.repairs[0].death);
        assert_eq!(s.repairs[0].planes_retired, 12);
        assert_eq!(s.repairs[0].faces_before, 841);
        assert_eq!(s.repairs[0].faces_after, 838);
        assert!(s.repairs[0].face_remapped);
        // A malformed epoch hex decodes to None, not a parse failure.
        assert_eq!(s.repairs[1].epoch, None);
        assert!(!s.repairs[1].death);
        // Repairs are rendered as churn lines, not "other events".
        assert!(s.other_events.is_empty(), "{:?}", s.other_events);
    }

    #[test]
    fn render_interleaves_repairs_by_time_and_totals_them() {
        let text = render(&load(&churn_trace()).unwrap());
        let death = text
            .find("epoch 3: node 7 died, 12 planes retired, 9 added, 625 cells reclassified")
            .expect(&text);
        assert!(text[death..].contains("faces 841 -> 838"), "{text}");
        assert!(
            text[death..].contains("repair 480 µs, face remapped"),
            "{text}"
        );
        // The death (t=5) lands between round 0 (silent, t=0) and the
        // round-1 transition (t=10); the birth (t=15) follows round 1 and
        // renders an unparseable epoch as "?".
        let transition = text.find("round    1").expect(&text);
        let birth = text.find("epoch ?: node 7 joined").expect(&text);
        assert!(death < transition && transition < birth, "{text}");
        assert!(
            text.contains("map repairs: 2 (1 death(s), 1 birth(s)), 1 warm-face remap(s)"),
            "{text}"
        );
    }

    #[test]
    fn repair_only_sessions_still_open_a_timeline_block() {
        let j = Journal::with_capacity(8);
        for session in [2u64, 5] {
            j.record(
                "fttt.map.repair",
                TraceKind::Instant,
                vec![
                    ("session", ArgValue::U64(session)),
                    ("t", ArgValue::F64(1.0)),
                    (
                        "epoch",
                        ArgValue::Str(wsn_network::replay::digest_hex(session)),
                    ),
                    ("node", ArgValue::U64(1)),
                    ("death", ArgValue::Bool(true)),
                ],
            );
        }
        let s = load(&j.snapshot().to_jsonl()).unwrap();
        let text = render(&s);
        // No rounds at all: the trailing drain still renders both repairs
        // under their own session headers.
        assert!(!text.contains("no session rounds"), "{text}");
        assert!(text.contains("— session 2 —"), "{text}");
        assert!(text.contains("— session 5 —"), "{text}");
        assert!(text.contains("epoch 5: node 1 died"), "{text}");
        assert!(text.contains("0 rounds across 2 session(s)"), "{text}");
    }

    #[test]
    fn foreign_files_are_rejected_with_a_reason() {
        assert!(load("{\"hello\": 1}").is_err());
        assert!(load("not json at all").is_err());
    }

    /// Client + server journals for one traced run: trace 1 served clean,
    /// trace 2 shed once then served, trace 3 never journaled server-side
    /// (a v1 push or a drop), trace 9 served for some other client, plus
    /// one stale-epoch rejection.
    fn wire_pair() -> (String, String) {
        use wsn_network::replay::digest_hex;
        let client = Journal::with_capacity(16);
        for (trace, session, rtt) in [(1u64, 10u64, 500.0), (2, 11, 2500.0), (3, 12, 400.0)] {
            client.record(
                "fttt.client.push",
                TraceKind::Instant,
                vec![
                    ("trace", ArgValue::Str(digest_hex(trace))),
                    ("session", ArgValue::U64(session)),
                    ("rounds", ArgValue::U64(4)),
                    ("rtt_us", ArgValue::F64(rtt)),
                ],
            );
        }
        let server = Journal::with_capacity(16);
        server.record(
            "fttt.server.shed",
            TraceKind::Instant,
            vec![
                ("trace", ArgValue::Str(digest_hex(2))),
                ("shard", ArgValue::U64(1)),
                ("context", ArgValue::U64(11)),
            ],
        );
        for (trace, session, shard, work) in [
            (1u64, 10u64, 0u64, 300.0),
            (2, 11, 1, 700.0),
            (9, 40, 1, 100.0),
        ] {
            server.record(
                "fttt.server.push",
                TraceKind::Instant,
                vec![
                    ("trace", ArgValue::Str(digest_hex(trace))),
                    ("session", ArgValue::U64(session)),
                    ("shard", ArgValue::U64(shard)),
                    ("rounds", ArgValue::U64(4)),
                    ("work_us", ArgValue::F64(work)),
                ],
            );
        }
        server.record(
            "fttt.server.stale_epoch",
            TraceKind::Instant,
            vec![
                ("trace", ArgValue::Str(digest_hex(7))),
                ("session", ArgValue::U64(33)),
                ("shard", ArgValue::U64(0)),
                ("opened_epoch", ArgValue::U64(1)),
                ("current_epoch", ArgValue::U64(2)),
            ],
        );
        (client.snapshot().to_jsonl(), server.snapshot().to_jsonl())
    }

    #[test]
    fn correlation_joins_both_sides_by_trace_id() {
        let (c_text, s_text) = wire_pair();
        let client = load_wire(&c_text).unwrap();
        let server = load_wire(&s_text).unwrap();
        assert_eq!(client.client_pushes.len(), 3);
        assert_eq!(server.server_pushes.len(), 3);
        let c = correlate(&client, &server);
        assert_eq!(c.matched.len(), 2);
        let clean = c.matched.iter().find(|m| m.session == 10).unwrap();
        assert_eq!(clean.shard, 0);
        assert_eq!(clean.rtt_us, 500.0);
        assert_eq!(clean.work_us, 300.0);
        assert_eq!(clean.sheds, 0);
        let retried = c.matched.iter().find(|m| m.session == 11).unwrap();
        assert_eq!(
            retried.sheds, 1,
            "the shed retry shares the push's trace id"
        );
        assert_eq!(c.client_only, 1, "trace 3 has no server span");
        assert_eq!(c.server_only, 1, "trace 9 has no client push");
        assert_eq!((c.sheds_total, c.sheds_retried), (1, 1));
        assert_eq!(c.stales, 1);
        assert_eq!(c.session_mismatches, 0);
    }

    #[test]
    fn correlation_render_names_the_server_side_cause() {
        let (c_text, s_text) = wire_pair();
        let c = correlate(&load_wire(&c_text).unwrap(), &load_wire(&s_text).unwrap());
        let text = render_correlation(&c);
        assert!(
            text.contains("3 client push(es) <-> 3 server span(s), 2 matched"),
            "{text}"
        );
        assert!(text.contains("shard 0 x1, shard 1 x1"), "{text}");
        // The slowest push (trace 2, rtt 2500) is attributed to its shed.
        assert!(text.contains("[shed x1 before served]"), "{text}");
        assert!(
            text.contains("sheds: 1 (1 retried under the same trace id and served)"),
            "{text}"
        );
        assert!(text.contains("stale-epoch rejections: 1"), "{text}");
        assert!(
            text.contains("client pushes with no server span: 1"),
            "{text}"
        );
        assert!(
            text.contains("server spans with no client push: 1"),
            "{text}"
        );
    }

    #[test]
    fn correlation_of_unrelated_traces_says_so() {
        let j = Journal::with_capacity(4);
        let empty = j.snapshot().to_chrome_json();
        let c = correlate(&load_wire(&empty).unwrap(), &load_wire(&empty).unwrap());
        let text = render_correlation(&c);
        assert!(text.contains("no pushes share a trace id"), "{text}");
    }

    #[test]
    fn correlation_flags_session_mismatches() {
        use wsn_network::replay::digest_hex;
        let one = |name: &'static str, session: u64| {
            let j = Journal::with_capacity(4);
            let mut kv = vec![
                ("trace", ArgValue::Str(digest_hex(5))),
                ("session", ArgValue::U64(session)),
                ("rounds", ArgValue::U64(1)),
            ];
            kv.push(if name == "fttt.client.push" {
                ("rtt_us", ArgValue::F64(10.0))
            } else {
                ("work_us", ArgValue::F64(5.0))
            });
            j.record(name, TraceKind::Instant, kv);
            j.snapshot().to_jsonl()
        };
        let c = correlate(
            &load_wire(&one("fttt.client.push", 1)).unwrap(),
            &load_wire(&one("fttt.server.push", 2)).unwrap(),
        );
        assert_eq!(c.matched.len(), 1);
        assert_eq!(c.session_mismatches, 1);
        assert!(render_correlation(&c).contains("different sessions"));
    }

    #[test]
    fn empty_trace_renders_a_note() {
        let j = Journal::with_capacity(4);
        let text = render(&load(&j.snapshot().to_chrome_json()).unwrap());
        assert!(text.contains("no session rounds"), "{text}");
    }
}
