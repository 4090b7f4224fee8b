//! Journal-driven replay: re-run a recorded campaign from its own header
//! and diff the live rounds against the recording, plus the
//! golden-checksum gate the `fault_campaign --check-determinism` mode
//! runs against `crates/bench/baselines/robustness_checksums.json`.
//!
//! A campaign journal is self-describing: the `fttt.campaign.header`
//! event carries the config, the kind (built-in or custom, with the
//! schedule text embedded) and the face-map digest; each
//! `fttt.campaign.trial` event maps a stable session id to its cell,
//! derived seed and replay digest; each `fttt.session.round` event
//! carries the full per-round monitor record. [`parse_recording`] lifts
//! any of the journal's serializations (JSONL, canonical JSONL, Chrome
//! trace) back into a [`RecordedCampaign`]; [`replay_and_diff`] re-runs
//! the campaign from the header alone and reports every field-level
//! divergence, ordered so "first divergent round" means first in
//! deterministic campaign order — the earliest point where the live
//! simulation left the recorded trajectory.

use std::collections::BTreeMap;

use crate::robustness::{
    campaign_cells, campaign_checksum, run_campaign_stats, CampaignConfig, CampaignKind,
};
use fttt::replay::{digest_hex, parse_digest_hex};
use wsn_telemetry::json::JsonValue;
use wsn_telemetry::{ArgValue, Journal, TraceKind, TraceLog};

/// One recorded `fttt.session.round` event, field-for-field.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedRound {
    /// Simulation time, seconds.
    pub t: f64,
    /// Status before the round's checks.
    pub status_before: String,
    /// Status after.
    pub status: String,
    /// Judged cause label.
    pub cause: String,
    /// Blackout hold?
    pub blackout: bool,
    /// Check verdicts.
    pub stranded: bool,
    /// See [`fttt::session::RoundTrace`].
    pub starved: bool,
    /// See [`fttt::session::RoundTrace`].
    pub teleported: bool,
    /// Estimate held rather than fresh?
    pub held: bool,
    /// Forced exhaustive re-acquisition?
    pub reacquired: bool,
    /// Missing fraction of the sampling vector.
    pub missing: f64,
    /// Zero fraction among known components.
    pub zeros: f64,
    /// Sampling times used this round.
    pub k: u64,
    /// Sampling times requested for the next round.
    pub k_after: u64,
    /// Estimate coordinates.
    pub x: f64,
    /// Estimate coordinates.
    pub y: f64,
    /// 1-based matched face, 0 = blackout hold.
    pub face: u64,
    /// Match similarity. `None` on blackout holds *and* for non-finite
    /// similarities (a perfect match scores +inf, which JSON cannot
    /// carry — it serializes as null).
    pub similarity: Option<f64>,
}

/// One recorded `fttt.campaign.trial` event.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedTrial {
    /// Cell index in campaign order.
    pub cell: u64,
    /// Trial index within the cell.
    pub trial: u64,
    /// The trial's derived RNG seed.
    pub seed: u64,
    /// Rounds the trial ran.
    pub rounds: u64,
    /// The trial's replay digest.
    pub digest: u64,
}

/// A campaign recording, reconstructed from its journal.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedCampaign {
    /// The recorded config.
    pub cfg: CampaignConfig,
    /// What was run (schedule text embedded for custom runs).
    pub kind: CampaignKind,
    /// The recorded face-map digest.
    pub map_digest: u64,
    /// Per-trial records keyed by stable session id.
    pub trials: BTreeMap<u64, RecordedTrial>,
    /// Per-round records keyed by `(session id, round index)`.
    pub rounds: BTreeMap<(u64, u64), RecordedRound>,
}

/// Looks a field up at the event root, then inside its `"args"` object —
/// covering the JSONL layout (args nested, round at root) and the Chrome
/// layout (everything inside `args`).
fn field<'a>(event: &'a JsonValue, key: &str) -> Option<&'a JsonValue> {
    event
        .get(key)
        .or_else(|| event.get("args").and_then(|a| a.get(key)))
}

fn req_u64(event: &JsonValue, key: &str, ctx: &str) -> Result<u64, String> {
    field(event, key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("{ctx}: missing integral {key:?}"))
}

fn req_f64(event: &JsonValue, key: &str, ctx: &str) -> Result<f64, String> {
    field(event, key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("{ctx}: missing numeric {key:?}"))
}

fn req_bool(event: &JsonValue, key: &str, ctx: &str) -> Result<bool, String> {
    field(event, key)
        .and_then(JsonValue::as_bool)
        .ok_or_else(|| format!("{ctx}: missing boolean {key:?}"))
}

fn req_str(event: &JsonValue, key: &str, ctx: &str) -> Result<String, String> {
    field(event, key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("{ctx}: missing string {key:?}"))
}

/// Full-range u64s (seeds, digests) travel as hex strings — JSON numbers
/// are f64 and would silently round them above 2^53.
fn req_hex(event: &JsonValue, key: &str, ctx: &str) -> Result<u64, String> {
    field(event, key)
        .and_then(JsonValue::as_str)
        .and_then(parse_digest_hex)
        .ok_or_else(|| format!("{ctx}: missing hex {key:?}"))
}

/// Splits a journal serialization into its event objects: a full JSON
/// document with a `traceEvents` array (Chrome form), or line-delimited
/// JSON where each line is one event (plain and canonical JSONL; the
/// meta line and blank lines are skipped, anything else malformed is an
/// error).
fn event_objects(text: &str) -> Result<Vec<JsonValue>, String> {
    if let Ok(doc) = JsonValue::parse(text) {
        if let Some(events) = doc.get("traceEvents").and_then(JsonValue::as_array) {
            return Ok(events.to_vec());
        }
        // A single-line JSONL journal parses as one object; fall through
        // to per-line handling below for uniform meta-line skipping.
    }
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = JsonValue::parse(line).map_err(|e| format!("journal line {}: {e}", i + 1))?;
        if v.get("kind").and_then(JsonValue::as_str) == Some("meta") {
            continue;
        }
        events.push(v);
    }
    Ok(events)
}

/// Parses a journal serialization into a [`RecordedCampaign`].
///
/// Fails loudly when the journal has no campaign header (nothing to
/// replay from), names an unknown kind, or a round/trial event is
/// missing fields.
pub fn parse_recording(text: &str) -> Result<RecordedCampaign, String> {
    let events = event_objects(text)?;
    let mut header: Option<(CampaignConfig, CampaignKind, u64)> = None;
    let mut trials = BTreeMap::new();
    let mut rounds = BTreeMap::new();
    for event in &events {
        match field(event, "name").and_then(JsonValue::as_str) {
            Some("fttt.campaign.header") => {
                if header.is_some() {
                    return Err("journal holds more than one campaign header; \
                                replay one campaign at a time"
                        .into());
                }
                let ctx = "campaign header";
                let cfg = CampaignConfig {
                    seed: req_hex(event, "seed", ctx)?,
                    trials: req_u64(event, "trials", ctx)? as usize,
                    duration: req_f64(event, "duration_s", ctx)?,
                    nodes: req_u64(event, "nodes", ctx)? as usize,
                };
                let kind = match req_str(event, "campaign_kind", ctx)?.as_str() {
                    "builtin" => CampaignKind::Builtin,
                    "custom" => CampaignKind::Custom {
                        label: req_str(event, "label", ctx)?,
                        schedule: req_str(event, "schedule", ctx)?,
                    },
                    "churn" => CampaignKind::Churn,
                    other => return Err(format!("{ctx}: unknown campaign kind {other:?}")),
                };
                let map_digest = req_hex(event, "map_digest", ctx)?;
                header = Some((cfg, kind, map_digest));
            }
            Some("fttt.campaign.trial") => {
                let ctx = "campaign trial event";
                let session = req_u64(event, "session", ctx)?;
                trials.insert(
                    session,
                    RecordedTrial {
                        cell: req_u64(event, "cell", ctx)?,
                        trial: req_u64(event, "trial", ctx)?,
                        seed: req_hex(event, "seed", ctx)?,
                        rounds: req_u64(event, "rounds", ctx)?,
                        digest: req_hex(event, "digest", ctx)?,
                    },
                );
            }
            Some("fttt.session.round") => {
                let ctx = "session round event";
                let session = req_u64(event, "session", ctx)?;
                let round = req_u64(event, "round", ctx)?;
                rounds.insert((session, round), parse_round(event, ctx)?);
            }
            _ => {}
        }
    }
    let (cfg, kind, map_digest) =
        header.ok_or("journal has no fttt.campaign.header event — nothing to replay from")?;
    Ok(RecordedCampaign {
        cfg,
        kind,
        map_digest,
        trials,
        rounds,
    })
}

fn parse_round(event: &JsonValue, ctx: &str) -> Result<RecordedRound, String> {
    Ok(RecordedRound {
        t: req_f64(event, "t", ctx)?,
        status_before: req_str(event, "status_before", ctx)?,
        status: req_str(event, "status", ctx)?,
        cause: req_str(event, "cause", ctx)?,
        blackout: req_bool(event, "blackout", ctx)?,
        stranded: req_bool(event, "stranded", ctx)?,
        starved: req_bool(event, "starved", ctx)?,
        teleported: req_bool(event, "teleported", ctx)?,
        held: req_bool(event, "held", ctx)?,
        reacquired: req_bool(event, "reacquired", ctx)?,
        missing: req_f64(event, "missing", ctx)?,
        zeros: req_f64(event, "zeros", ctx)?,
        k: req_u64(event, "k", ctx)?,
        k_after: req_u64(event, "k_after", ctx)?,
        x: req_f64(event, "x", ctx)?,
        y: req_f64(event, "y", ctx)?,
        face: req_u64(event, "face", ctx)?,
        similarity: field(event, "similarity").and_then(JsonValue::as_f64),
    })
}

/// One field-level disagreement between the recording and the live
/// re-run.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Stable session id the divergence is in.
    pub session: u64,
    /// Round index, `None` for trial- or campaign-level divergences.
    pub round: Option<u64>,
    /// Which field disagreed.
    pub field: String,
    /// The recorded value, rendered.
    pub recorded: String,
    /// The live value, rendered.
    pub live: String,
}

/// The outcome of a replay diff.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Round events in the recording.
    pub recorded_rounds: usize,
    /// Round events the live re-run produced.
    pub live_rounds: usize,
    /// Every divergence, in deterministic campaign order — `divergences
    /// .first()` is *the* first divergent round.
    pub divergences: Vec<Divergence>,
    /// The live run's campaign checksum.
    pub checksum: u64,
}

impl ReplayReport {
    /// A faithful recording replays with zero divergences.
    pub fn is_faithful(&self) -> bool {
        self.divergences.is_empty()
    }
}

fn bits_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// Re-runs the recorded campaign from its header and diffs every round
/// and trial digest against the recording.
///
/// The live run executes under a private journal (any installed journal
/// is restored afterwards), single-process — the recording may have come
/// from any shard layout or thread count, which is exactly what the diff
/// is meant to be invariant to.
pub fn replay_and_diff(rec: &RecordedCampaign) -> Result<ReplayReport, String> {
    let saved = wsn_telemetry::uninstall_journal();
    // Big enough that a full campaign cannot drop round events — a lossy
    // capture would diff as spurious missing rounds.
    let journal = std::sync::Arc::new(Journal::with_capacity(1 << 20));
    wsn_telemetry::install_journal(std::sync::Arc::clone(&journal));
    let stats = run_campaign_stats(&rec.cfg, &rec.kind, 1, 0);
    let log = journal.snapshot();
    wsn_telemetry::uninstall_journal();
    if let Some(prev) = saved {
        wsn_telemetry::install_journal(prev);
    }
    if log.dropped > 0 {
        return Err(format!(
            "replay journal dropped {} events — raise the journal capacity",
            log.dropped
        ));
    }

    let cells = campaign_cells(&rec.kind);
    let checksum = campaign_checksum(&rec.cfg, &cells, stats.map_digest, &stats.stats);
    let (live_trials, live_rounds) = live_maps(&log)?;

    let mut divergences = Vec::new();
    if rec.map_digest != stats.map_digest {
        divergences.push(Divergence {
            session: 0,
            round: None,
            field: "map_digest".into(),
            recorded: digest_hex(rec.map_digest),
            live: digest_hex(stats.map_digest),
        });
    }
    // Order sessions by campaign position (cell, trial) so the first
    // reported divergence is the first in deterministic campaign order,
    // not in id order. Sessions only one side knows about sort last.
    let mut sessions: Vec<u64> = rec
        .trials
        .keys()
        .chain(live_trials.keys())
        .chain(rec.rounds.keys().map(|(s, _)| s))
        .chain(live_rounds.keys().map(|(s, _)| s))
        .copied()
        .collect();
    sessions.sort_unstable();
    sessions.dedup();
    sessions.sort_by_key(|s| {
        live_trials
            .get(s)
            .or_else(|| rec.trials.get(s))
            .map_or((u64::MAX, u64::MAX), |t| (t.cell, t.trial))
    });

    for session in sessions {
        diff_session(session, rec, &live_trials, &live_rounds, &mut divergences);
    }
    Ok(ReplayReport {
        recorded_rounds: rec.rounds.len(),
        live_rounds: live_rounds.len(),
        divergences,
        checksum,
    })
}

type RoundMap = BTreeMap<(u64, u64), RecordedRound>;

/// Lifts the live journal snapshot into the same keyed maps the recording
/// parses to — straight from the typed events, no JSON round-trip.
fn live_maps(log: &TraceLog) -> Result<(BTreeMap<u64, RecordedTrial>, RoundMap), String> {
    let mut trials = BTreeMap::new();
    let mut rounds = BTreeMap::new();
    for e in &log.events {
        let arg_u64 = |key: &str| {
            e.args.iter().find_map(|(k, v)| match v {
                ArgValue::U64(n) if *k == key => Some(*n),
                _ => None,
            })
        };
        let arg_f64 = |key: &str| {
            e.args.iter().find_map(|(k, v)| match v {
                ArgValue::F64(n) if *k == key => Some(*n),
                _ => None,
            })
        };
        let arg_bool = |key: &str| {
            e.args.iter().find_map(|(k, v)| match v {
                ArgValue::Bool(b) if *k == key => Some(*b),
                _ => None,
            })
        };
        let arg_str = |key: &str| {
            e.args.iter().find_map(|(k, v)| match v {
                ArgValue::Str(s) if *k == key => Some(s.clone()),
                _ => None,
            })
        };
        match e.name {
            "fttt.campaign.trial" => {
                let session = arg_u64("session").ok_or("live trial event lost its session id")?;
                trials.insert(
                    session,
                    RecordedTrial {
                        cell: arg_u64("cell").unwrap_or(u64::MAX),
                        trial: arg_u64("trial").unwrap_or(u64::MAX),
                        seed: arg_str("seed")
                            .as_deref()
                            .and_then(parse_digest_hex)
                            .unwrap_or(0),
                        rounds: arg_u64("rounds").unwrap_or(0),
                        digest: arg_str("digest")
                            .as_deref()
                            .and_then(parse_digest_hex)
                            .ok_or("live trial event lost its digest")?,
                    },
                );
            }
            "fttt.session.round" => {
                let TraceKind::Round { round } = e.kind else {
                    continue;
                };
                let session = arg_u64("session").ok_or("live round event lost its session id")?;
                let ctx = "live round event";
                let need_f = |k: &str| arg_f64(k).ok_or_else(|| format!("{ctx}: missing {k:?}"));
                let need_b = |k: &str| arg_bool(k).ok_or_else(|| format!("{ctx}: missing {k:?}"));
                let need_u = |k: &str| arg_u64(k).ok_or_else(|| format!("{ctx}: missing {k:?}"));
                let need_s = |k: &str| arg_str(k).ok_or_else(|| format!("{ctx}: missing {k:?}"));
                rounds.insert(
                    (session, round),
                    RecordedRound {
                        t: need_f("t")?,
                        status_before: need_s("status_before")?,
                        status: need_s("status")?,
                        cause: need_s("cause")?,
                        blackout: need_b("blackout")?,
                        stranded: need_b("stranded")?,
                        starved: need_b("starved")?,
                        teleported: need_b("teleported")?,
                        held: need_b("held")?,
                        reacquired: need_b("reacquired")?,
                        missing: need_f("missing")?,
                        zeros: need_f("zeros")?,
                        k: need_u("k")?,
                        k_after: need_u("k_after")?,
                        x: need_f("x")?,
                        y: need_f("y")?,
                        face: need_u("face")?,
                        // Non-finite similarities (a perfect match is
                        // +inf) serialize as JSON null, so the recording
                        // side reads them back as None — normalize the
                        // live side identically or faithful replays
                        // would self-report divergence.
                        similarity: arg_f64("similarity").filter(|v| v.is_finite()),
                    },
                );
            }
            _ => {}
        }
    }
    Ok((trials, rounds))
}

fn diff_session(
    session: u64,
    rec: &RecordedCampaign,
    live_trials: &BTreeMap<u64, RecordedTrial>,
    live_rounds: &RoundMap,
    divergences: &mut Vec<Divergence>,
) {
    let push = |divergences: &mut Vec<Divergence>,
                round: Option<u64>,
                field: &str,
                recorded: String,
                live: String| {
        divergences.push(Divergence {
            session,
            round,
            field: field.into(),
            recorded,
            live,
        });
    };
    // Round-by-round, in index order; the first field mismatch of a round
    // is reported and the rest of that round skipped (one cause per
    // round keeps the report readable — downstream fields of the same
    // round almost always disagree too).
    let recorded: Vec<(&(u64, u64), &RecordedRound)> = rec
        .rounds
        .range((session, 0)..=(session, u64::MAX))
        .collect();
    let max_round = recorded
        .iter()
        .map(|((_, r), _)| *r + 1)
        .max()
        .unwrap_or(0)
        .max(
            live_rounds
                .range((session, 0)..=(session, u64::MAX))
                .map(|((_, r), _)| *r + 1)
                .max()
                .unwrap_or(0),
        );
    for round in 0..max_round {
        let key = (session, round);
        match (rec.rounds.get(&key), live_rounds.get(&key)) {
            (Some(a), Some(b)) => {
                if let Some((field, rec_v, live_v)) = first_field_diff(a, b) {
                    push(divergences, Some(round), field, rec_v, live_v);
                }
            }
            (Some(_), None) => push(
                divergences,
                Some(round),
                "presence",
                "recorded".into(),
                "absent from live run".into(),
            ),
            (None, Some(_)) => push(
                divergences,
                Some(round),
                "presence",
                "absent from recording".into(),
                "live run produced it".into(),
            ),
            (None, None) => {}
        }
    }
    // Trial digests: the strongest per-trial check (covers regime/world
    // state the round events do not carry).
    match (rec.trials.get(&session), live_trials.get(&session)) {
        (Some(a), Some(b)) if a.digest != b.digest => push(
            divergences,
            None,
            "trial digest",
            digest_hex(a.digest),
            digest_hex(b.digest),
        ),
        (Some(_), None) => push(
            divergences,
            None,
            "trial",
            "recorded".into(),
            "absent from live run".into(),
        ),
        (None, Some(_)) => push(
            divergences,
            None,
            "trial",
            "absent from recording".into(),
            "live run produced it".into(),
        ),
        _ => {}
    }
}

/// The first disagreeing field of a round, in the digest's canonical
/// field order. Floats compare by bit pattern — the journal's exact
/// shortest-round-trip formatting makes that meaningful.
fn first_field_diff(
    a: &RecordedRound,
    b: &RecordedRound,
) -> Option<(&'static str, String, String)> {
    macro_rules! check {
        ($field:ident, $eq:expr, $fmt:expr) => {
            if !$eq(&a.$field, &b.$field) {
                return Some((stringify!($field), $fmt(&a.$field), $fmt(&b.$field)));
            }
        };
    }
    let feq = |x: &f64, y: &f64| bits_eq(*x, *y);
    let ffmt = |x: &f64| format!("{x}");
    let seq = |x: &String, y: &String| x == y;
    let sfmt = |x: &String| x.clone();
    let beq = |x: &bool, y: &bool| x == y;
    let bfmt = |x: &bool| x.to_string();
    let ueq = |x: &u64, y: &u64| x == y;
    let ufmt = |x: &u64| x.to_string();
    check!(t, feq, ffmt);
    check!(status_before, seq, sfmt);
    check!(status, seq, sfmt);
    check!(cause, seq, sfmt);
    check!(face, ueq, ufmt);
    check!(x, feq, ffmt);
    check!(y, feq, ffmt);
    check!(blackout, beq, bfmt);
    check!(stranded, beq, bfmt);
    check!(starved, beq, bfmt);
    check!(teleported, beq, bfmt);
    check!(held, beq, bfmt);
    check!(reacquired, beq, bfmt);
    check!(missing, feq, ffmt);
    check!(zeros, feq, ffmt);
    check!(k, ueq, ufmt);
    check!(k_after, ueq, ufmt);
    if a.similarity.map(f64::to_bits) != b.similarity.map(f64::to_bits) {
        let fmt = |s: &Option<f64>| s.map_or("none".to_string(), |v| format!("{v}"));
        return Some(("similarity", fmt(&a.similarity), fmt(&b.similarity)));
    }
    None
}

/// The baseline key a `(config, campaign kind)` pair maps to in the
/// golden-checksum file. `campaign` is a
/// [`crate::robustness::campaign_kind_label`].
pub fn checksum_key(cfg: &CampaignConfig, campaign: &str) -> String {
    format!(
        "campaign={},seed={},trials={},duration={},nodes={}",
        campaign, cfg.seed, cfg.trials, cfg.duration, cfg.nodes
    )
}

/// Checks a freshly computed campaign checksum against the committed
/// baseline document. `Ok(())` means the run matches its golden value;
/// `Err` names the drift or the missing entry.
///
/// The baseline is a bench document whose rows are `campaign` /
/// `checksum` rows keyed by [`checksum_key`] with hex-string values —
/// the same row a `BENCH_robustness.json` carries. This is an exact
/// check of the run's *own* entry, not a [`crate::gate::check`] over the
/// whole baseline: a campaign run knows one checksum, not all of them.
pub fn check_checksum(
    baseline_text: &str,
    cfg: &CampaignConfig,
    campaign: &str,
    checksum: u64,
) -> Result<(), String> {
    let doc = JsonValue::parse(baseline_text).map_err(|e| format!("checksum baseline: {e}"))?;
    if doc.get("bench").and_then(JsonValue::as_str) != Some("fault_campaign_checksums") {
        return Err("checksum baseline: not a fault_campaign_checksums document".into());
    }
    let rows = crate::gate::rows(&doc).map_err(|e| format!("checksum baseline: {e}"))?;
    let key = checksum_key(cfg, campaign);
    let Some(row) = rows
        .iter()
        .find(|r| r.layer == "campaign" && r.metric == "checksum" && r.shape == key)
    else {
        return Err(format!(
            "checksum baseline has no entry for {key} — run fault_campaign with this config \
             (it prints the checksum) and commit it"
        ));
    };
    let golden = row
        .value
        .as_str()
        .and_then(parse_digest_hex)
        .ok_or_else(|| format!("checksum baseline: {key} is not a hex checksum"))?;
    if golden == checksum {
        Ok(())
    } else {
        Err(format!(
            "campaign checksum drift for {key}: committed {} vs computed {} — \
             the simulation no longer reproduces its golden trajectory",
            digest_hex(golden),
            digest_hex(checksum)
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_baseline_round_trips_and_gates() {
        let fast = CampaignConfig::fast(42);
        let full = CampaignConfig::full(42);
        let rows = [
            (fast, "builtin", 0xabc),
            (full, "builtin", 0xdef),
            (fast, "churn", 0x123),
        ]
        .iter()
        .map(|(cfg, campaign, sum)| {
            let key = checksum_key(cfg, campaign);
            crate::gate::row("campaign", &key, "checksum", "hex", digest_hex(*sum))
        })
        .collect();
        let doc = crate::gate::artifact(
            "fault_campaign_checksums",
            JsonValue::object::<&str>([]),
            rows,
            [],
        );
        let text = doc.to_pretty();
        assert!(check_checksum(&text, &fast, "builtin", 0xabc).is_ok());
        assert!(check_checksum(&text, &full, "builtin", 0xdef).is_ok());
        // The same config under a different campaign kind is a different
        // golden entry.
        assert!(check_checksum(&text, &fast, "churn", 0x123).is_ok());
        assert!(check_checksum(&text, &fast, "churn", 0xabc).is_err());

        let drift = check_checksum(&text, &fast, "builtin", 0xabd).unwrap_err();
        assert!(drift.contains("drift"), "{drift}");
        assert!(drift.contains("0x0000000000000abc"), "{drift}");

        let missing =
            check_checksum(&text, &CampaignConfig::fast(7), "builtin", 0xabc).unwrap_err();
        assert!(missing.contains("no entry"), "{missing}");
        assert!(missing.contains("seed=7"), "{missing}");

        let foreign = r#"{ "bench": "perf_snapshot", "rows": [] }"#;
        assert!(check_checksum(foreign, &fast, "builtin", 0xabc).is_err());
    }

    #[test]
    fn recording_parse_rejects_headerless_and_malformed_journals() {
        let err = parse_recording("").unwrap_err();
        assert!(err.contains("no fttt.campaign.header"), "{err}");

        let err = parse_recording("{not json at all").unwrap_err();
        assert!(err.contains("journal line 1"), "{err}");

        // A header missing its seed is named, not silently defaulted.
        let line = r#"{"name":"fttt.campaign.header","kind":"instant","args":{"campaign_kind":"builtin"}}"#;
        let err = parse_recording(line).unwrap_err();
        assert!(err.contains("\"seed\""), "{err}");
    }

    #[test]
    fn first_field_diff_reports_in_canonical_order() {
        let base = RecordedRound {
            t: 1.0,
            status_before: "Tracking".into(),
            status: "Tracking".into(),
            cause: "healthy".into(),
            blackout: false,
            stranded: false,
            starved: false,
            teleported: false,
            held: false,
            reacquired: false,
            missing: 0.0,
            zeros: 0.0,
            k: 5,
            k_after: 5,
            x: 10.0,
            y: 20.0,
            face: 3,
            similarity: Some(0.9),
        };
        assert_eq!(first_field_diff(&base, &base), None);
        // status diverges before x in the canonical order even when both
        // disagree.
        let mut b = base.clone();
        b.status = "Lost".into();
        b.x = 11.0;
        let (field, rec, live) = first_field_diff(&base, &b).unwrap();
        assert_eq!(field, "status");
        assert_eq!((rec.as_str(), live.as_str()), ("Tracking", "Lost"));
        // similarity None vs Some is a divergence, not a wildcard.
        let mut b = base.clone();
        b.similarity = None;
        assert_eq!(first_field_diff(&base, &b).unwrap().0, "similarity");
    }
}
