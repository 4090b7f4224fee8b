//! The traced run: per-layer metrics, timed from outside each layer.
//!
//! 1. An in-process, single-thread replay of the workload's generated
//!    inputs through the layers' public functions, every call in a span
//!    (see [`crate::trace`]), then the same replay without spans: the
//!    difference is the tracing overhead.
//! 2. On served workloads, a served run with the ops plane on: a low fixed
//!    rate (for the reconciliation), edge probes, then the workload's own
//!    open-loop rate. `/metrics` is scraped between the phases. The
//!    campaign has no wire: its `server.*` and `client.*` metrics read 0.
//! 3. Reconciliation: at low load the layers must add up to the client
//!    p50 within the spec's tolerance (checked on `serve-small`).

use crate::campaign;
use crate::gen::{self, session_readings, World};
use crate::load::{self, Admin, Check, ChurnAt, Client, Conn, Mode, PhaseStats};
use crate::report::{median, percentile, proc_status, Outcome};
use crate::served::{self, churn_plan, ServerProc};
use crate::spec::{Kind, Spec, Workload, CLOSED_WINDOW};
use crate::trace::{timed, Tracer};
use fttt::replay::{digest_face_map, digest_round, Digest};
use fttt::{FaceId, RepairMode};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wsn_server::{ErrorCode, Frame, ReadingRound, RoundResult};
use wsn_telemetry::Registry;

/// Sessions and rounds of the in-process replay.
const REPLAY_SESSIONS: usize = 200;
const REPLAY_ROUNDS: usize = 20;
/// Calls per span for sub-microsecond functions.
const REPS: usize = 16;
/// Calls of `match_indexed` per vector kind.
const INDEXED_BASIC_CALLS: usize = 200;
const INDEXED_EXT_CALLS: usize = 20;
/// Repetitions of map-level operations.
const MAP_REPS: usize = 3;
/// Seconds of the low-rate served phase and of the workload-rate phase;
/// request/response pushes and edge probes at the low rate.
const LOW_S: f64 = 2.0;
const NOMINAL_S: f64 = 2.0;
const PROBES: usize = 300;
/// A session id the server never assigns: probes answer `UnknownSession`
/// after crossing the full edge (decode, shard queue, reply, write).
const PROBE_SESSION: u64 = u64::MAX >> 3;

/// Per-call medians of one replay.
struct Replay {
    spans: HashMap<&'static str, Vec<f64>>,
    push_bytes: f64,
    reacquired: usize,
    held: usize,
    rounds: usize,
}

/// One session's recorded inputs for the replay.
struct Recorded {
    extended: bool,
    readings: Vec<ReadingRound>,
}

fn reps<T>(f: impl Fn() -> T) {
    for _ in 0..REPS {
        std::hint::black_box(f());
    }
}

/// Replays the recorded rounds through the layers, in spans if `tracer`.
fn replay(world: &World, recorded: &[Recorded], tracer: Option<&Tracer>) -> Replay {
    let map = &world.map;
    let mut out = Replay {
        spans: HashMap::new(),
        push_bytes: 0.0,
        reacquired: 0,
        held: 0,
        rounds: 0,
    };
    let mut bytes = Vec::new();
    for (g, rec) in recorded.iter().enumerate() {
        let mut session = world.shadow(Arc::clone(map), rec.extended);
        let mut digest = Digest::new();
        let mut previous: Option<FaceId> = None;
        for (r, reading) in rec.readings.iter().enumerate() {
            let id = ((g as u64) << 20) | r as u64;
            let mut body = || {
                let push = Frame::Push {
                    session: id,
                    rounds: vec![reading.clone()],
                };
                let encoded = timed(tracer, "wire.encode.push", || {
                    reps(|| push.encode());
                    push.encode()
                });
                bytes.push(encoded.len() as f64);
                timed(tracer, "wire.decode.push", || {
                    reps(|| Frame::decode(&encoded[4..]))
                });
                let basic = timed(tracer, "sampling.vector.basic", || {
                    fttt::basic_sampling_vector(&reading.group)
                });
                let ext = timed(tracer, "sampling.vector.ext", || {
                    fttt::extended_sampling_vector(&reading.group)
                });
                let v = map.project_sampling_vector(if rec.extended { ext } else { basic });
                let start = previous.unwrap_or_else(|| map.center_face());
                timed(tracer, "matching.heuristic", || {
                    std::hint::black_box(fttt::match_heuristic(map, &v, start))
                });
                let round = timed(tracer, "session.step", || {
                    session.step(reading.t, &reading.group)
                });
                timed(tracer, "replay.round_digest", || {
                    reps(|| {
                        let mut d = digest;
                        digest_round(&mut d, &round);
                        d.value()
                    })
                });
                digest_round(&mut digest, &round);
                let reply = Frame::Rounds {
                    session: id,
                    results: vec![RoundResult::from_round(&round)],
                    digest: digest.value(),
                };
                let encoded = timed(tracer, "wire.encode.rounds", || {
                    reps(|| reply.encode());
                    reply.encode()
                });
                timed(tracer, "wire.decode.rounds", || {
                    reps(|| Frame::decode(&encoded[4..]))
                });
                round
            };
            let round = match tracer {
                Some(t) => t.round(id, body),
                None => body(),
            };
            previous = round.face.or(previous);
            out.reacquired += usize::from(round.reacquired);
            out.held += usize::from(round.held);
            out.rounds += 1;
        }
    }
    out.push_bytes = median(&bytes);
    out
}

/// Times `match_indexed` on the recorded vectors of one kind.
fn indexed_calls(
    world: &World,
    recorded: &[Recorded],
    extended: bool,
    calls: usize,
    tracer: &Tracer,
) {
    let all: Vec<&ReadingRound> = recorded.iter().flat_map(|r| &r.readings).collect();
    let stride = (all.len() / calls).max(1);
    for reading in all.iter().step_by(stride).take(calls) {
        let v = if extended {
            fttt::extended_sampling_vector(&reading.group)
        } else {
            fttt::basic_sampling_vector(&reading.group)
        };
        let v = world.map.project_sampling_vector(v);
        let name = if extended {
            "matching.indexed.ext"
        } else {
            "matching.indexed.basic"
        };
        tracer.span(name, || {
            std::hint::black_box(fttt::match_indexed(&world.map, &v))
        });
    }
}

/// Clone, kill, revive and digest the workload's map, in spans.
fn map_ops(w: &Workload, tracer: &Tracer) -> Result<(), String> {
    let params = w.params();
    let field = params.grid_field();
    let mut map = None;
    for _ in 0..MAP_REPS {
        map = Some(tracer.span("facemap.build", || params.face_map(&field)));
    }
    let map = map.expect("MAP_REPS > 0");
    let node = *w.churn_nodes.first().ok_or("workload has no churn_nodes")?;
    for _ in 0..MAP_REPS {
        let mut copy = tracer.span("facemap.clone", || map.clone());
        tracer.span("repair.kill", || {
            copy.kill_node(node, RepairMode::Incremental)
        });
        tracer.span("replay.map_digest", || digest_face_map(&copy));
        tracer.span("repair.revive", || {
            copy.revive_node(node, RepairMode::Incremental)
        });
        tracer.span("replay.map_digest", || digest_face_map(&copy));
    }
    Ok(())
}

/// Counts from the layers' own counters, through a registry sink:
/// `(evaluations per round, pruned chunk share)`.
fn counted(world: &World, recorded: &[Recorded]) -> (f64, f64) {
    let registry = Arc::new(Registry::new());
    wsn_telemetry::install(Arc::clone(&registry));
    let mut rounds = 0usize;
    for rec in recorded {
        let mut session = world.shadow(Arc::clone(&world.map), rec.extended);
        for r in &rec.readings {
            std::hint::black_box(session.step(r.t, &r.group));
            rounds += 1;
        }
    }
    let steps = registry.snapshot();
    // The index's pruning, also on direct calls (a session may never
    // re-acquire on an easy workload).
    for rec in recorded.iter().take(INDEXED_BASIC_CALLS / REPLAY_ROUNDS) {
        for r in &rec.readings {
            let v = world
                .map
                .project_sampling_vector(fttt::basic_sampling_vector(&r.group));
            std::hint::black_box(fttt::match_indexed(&world.map, &v));
        }
    }
    wsn_telemetry::uninstall();
    let all = registry.snapshot();
    let counter =
        |s: &wsn_telemetry::Snapshot, name: &str| s.counters.get(name).copied().unwrap_or(0) as f64;
    let evaluations = counter(&steps, "fttt.match.evaluations") / rounds.max(1) as f64;
    let total = counter(&all, "fttt.match.index.chunks_total");
    let pruned = counter(&all, "fttt.match.index.chunks_pruned");
    (evaluations, if total > 0.0 { pruned / total } else { 0.0 })
}

/// `GET /metrics` from the ops plane, as `series -> value`.
fn scrape(addr: &str) -> Result<HashMap<String, f64>, String> {
    let mut s = std::net::TcpStream::connect(addr).map_err(|e| format!("ops connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    s.write_all(b"GET /metrics HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n")
        .map_err(|e| format!("ops write: {e}"))?;
    let mut text = String::new();
    s.read_to_string(&mut text)
        .map_err(|e| format!("ops read: {e}"))?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .ok_or("ops reply has no body")?;
    Ok(body
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (k, v) = l.rsplit_once(' ')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect())
}

/// Median of a Prometheus histogram's increase between two scrapes,
/// interpolated linearly inside the bucket holding it.
fn histogram_median(
    before: &HashMap<String, f64>,
    after: &HashMap<String, f64>,
    name: &str,
) -> f64 {
    let prefix = format!("{name}_bucket{{le=\"");
    let mut buckets: Vec<(f64, f64)> = after
        .iter()
        .filter_map(|(k, v)| {
            let le = k.strip_prefix(&prefix)?.strip_suffix("\"}")?;
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((bound, v - before.get(k).copied().unwrap_or(0.0)))
        })
        .collect();
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = buckets.last().map_or(0.0, |b| b.1);
    if total <= 0.0 {
        return 0.0;
    }
    let (mut lo, mut below) = (0.0, 0.0);
    for (bound, cum) in buckets {
        if cum >= total / 2.0 {
            if !bound.is_finite() || cum <= below {
                return lo;
            }
            return lo + (bound - lo) * (total / 2.0 - below) / (cum - below);
        }
        lo = bound;
        below = cum;
    }
    lo
}

fn delta(before: &HashMap<String, f64>, after: &HashMap<String, f64>, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}

/// What the served part measured.
#[derive(Default)]
struct ServedPart {
    /// Push RTT p50 pipelined at the low rate (open loop).
    open_p50_us: f64,
    /// Push RTT p50 one request at a time at the same pace.
    rtt_p50_us: f64,
    round_us: f64,
    probe_p50_us: f64,
    shed_per_1k: f64,
    stale_per_churn: f64,
    threads: f64,
    late_p99_ms: f64,
    p99_ms: f64,
}

fn served_part(
    w: &Workload,
    world: &World,
    seed: u64,
    bin: &str,
    out: &mut Outcome,
) -> Result<ServedPart, String> {
    let low_n = (w.low_rate * LOW_S).round() as usize;
    let nominal_n = (w.open_rate * NOMINAL_S).round() as usize;
    // Low-rate rounds, plus one per session for the request/response pushes.
    let low_rounds = low_n.div_ceil(w.sessions) + PROBES.div_ceil(w.sessions);
    let warm_n = w.warmup_rounds;
    let rounds = warm_n + low_rounds + nominal_n.div_ceil(w.sessions);
    // Every workload's traced run churns the map at least once, so the
    // replies are recorded and replayed per epoch after the run.
    let inputs = gen::generate(w, world, seed, 0, rounds, false);
    let check = Check::Record;

    let server = ServerProc::spawn(bin, w, true)?;
    let ops = server.ops.clone().ok_or("no ops banner")?;
    let mut conn = Conn::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
    let mut admin = Admin::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
    let mut client = Client::new(w.sessions);
    let mut stats = PhaseStats::default();
    stats.absorb(served::open_all(&mut conn, &mut client, &inputs));
    let warm = Mode::Closed {
        window: CLOSED_WINDOW,
        limit: warm_n,
        deadline: None,
    };
    stats.absorb(load::run_phase(
        &mut conn,
        &mut client,
        &inputs,
        &check,
        warm,
        None,
        &[],
    ));

    // Open loop at the low rate: pushes pipelined on the data connection.
    let low = load::run_phase(
        &mut conn,
        &mut client,
        &inputs,
        &check,
        Mode::Open {
            rate: w.low_rate,
            base: warm_n,
            n: low_n,
        },
        None,
        &[],
    );
    let open_p50_us = median(&low.rtt_us);
    stats.absorb(low);

    // Request/response at the same pace: one real push, then one edge
    // probe (a push to a session that does not exist), one at a time.
    let s0 = scrape(&ops)?;
    let probe = inputs[0].round(0);
    let pace = Duration::from_secs_f64(1.0 / w.low_rate);
    let (mut push_us, mut probe_us) = (Vec::new(), Vec::new());
    for i in 0..PROBES {
        let s = i % w.sessions;
        if client.next_round(s) < warm_n + low_rounds {
            push_us.push(client.ping(&mut admin, &inputs, &check, s, &mut stats)?);
        }
        std::thread::sleep(pace);
        let t = Instant::now();
        let reply = admin.request(&Frame::Push {
            session: PROBE_SESSION,
            rounds: vec![probe.clone()],
        })?;
        probe_us.push(t.elapsed().as_secs_f64() * 1e6);
        out.check(
            matches!(
                reply,
                Frame::Error {
                    code: ErrorCode::UnknownSession,
                    ..
                }
            ),
            || format!("edge probe: unexpected reply {reply:?}"),
        );
        std::thread::sleep(pace);
    }
    let s1 = scrape(&ops)?;

    // Bring every session to the workload-rate phase's first round.
    let catch_up = Mode::Closed {
        window: CLOSED_WINDOW,
        limit: warm_n + low_rounds,
        deadline: None,
    };
    stats.absorb(load::run_phase(
        &mut conn,
        &mut client,
        &inputs,
        &check,
        catch_up,
        None,
        &[],
    ));
    let s2 = scrape(&ops)?;
    let plan = if w.churns_under_load() {
        churn_plan(w, 0, Duration::from_secs_f64(NOMINAL_S))
    } else {
        vec![ChurnAt {
            at: Duration::from_secs_f64(NOMINAL_S / 2.0),
            node: *w.churn_nodes.first().ok_or("workload has no churn_nodes")?,
            death: true,
        }]
    };
    let nominal = load::run_phase(
        &mut conn,
        &mut client,
        &inputs,
        &check,
        Mode::Open {
            rate: w.open_rate,
            base: warm_n + low_rounds,
            n: nominal_n,
        },
        Some(&mut admin),
        &plan,
    );
    let (_, threads) = proc_status(server.pid())?;
    let s3 = scrape(&ops)?;
    let late_p99_ms = percentile(&nominal.late_us, 0.99) / 1e3;
    // The p99 over the pushes scheduled before the first churn: the
    // re-open storm after it is what server.stale_per_churn counts. Under
    // churn the storms are part of the workload, so every push counts.
    let cutoff = match plan.first() {
        Some(c) if !w.churns_under_load() => c.at.as_secs_f64(),
        _ => f64::INFINITY,
    };
    let steady: Vec<f64> = nominal
        .latency_us
        .iter()
        .zip(&nominal.latency_at_s)
        .filter(|(_, &at)| at < cutoff)
        .map(|(&us, _)| us)
        .collect();
    let p99_ms = percentile(&steady, 0.99) / 1e3;
    let pushes = nominal.acked.max(1) as f64;
    let churns = nominal.churns.len();
    stats.absorb(nominal);
    server.shutdown(&mut admin)?;

    served::absorb(out, &stats);
    served::follow_churn(&world.map, &stats.churns, out, |map, out| {
        served::verify_segments(world, &inputs, &client.segments, map, out);
    });
    out.check(
        served::doctored_reply_detected(world, &inputs, &check, &client.segments, &stats.sample),
        || "self-test: a reply with one flipped bit was not counted as a failure".into(),
    );
    Ok(ServedPart {
        open_p50_us,
        rtt_p50_us: median(&push_us),
        round_us: histogram_median(&s0, &s1, "fttt_server_round_us"),
        probe_p50_us: median(&probe_us),
        shed_per_1k: delta(&s2, &s3, "fttt_server_shed") / pushes * 1e3,
        stale_per_churn: if churns > 0 {
            delta(&s2, &s3, "fttt_server_sessions_invalidated") / churns as f64
        } else {
            0.0
        },
        threads: threads as f64,
        late_p99_ms,
        p99_ms,
    })
}

/// Campaign trials per second measured in a child pinned to one core.
fn pinned_rate(w: &Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = args
        .iter()
        .position(|a| a == "--spec")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "perfbench/spec.json".into());
    let output = std::process::Command::new("taskset")
        .args(["-c", "0"])
        .arg(exe)
        .args(["--campaign-pass", "--workload", &w.name, "--seed"])
        .arg(seed.to_string())
        .args(["--seconds", "1", "--spec", &spec])
        .output()
        .map_err(|e| format!("taskset: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "pinned campaign pass failed: {}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let line = text.lines().last().unwrap_or_default();
    line.split("\"trials_per_s\": {\"value\": ")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("pinned campaign pass printed {line:?}"))
}

/// Helper mode: one reduced campaign pass, reporting trials/s.
pub fn campaign_pass_rate(w: &Workload, seed: u64) -> Result<Outcome, String> {
    let p = campaign::pass(&campaign::config(w, seed, w.speedup_trials));
    let mut out = Outcome {
        attempted: p.trials as u64,
        ..Outcome::default()
    };
    out.metric("trials_per_s", p.trials as f64 / p.seconds, "1/s");
    Ok(out)
}

/// `(speedup, regime activations per trial)` for the campaign workload.
/// The pass run with a registry sink must repeat the plain pass's
/// checksums and both must keep the churn invariants.
fn campaign_layers(w: &Workload, seed: u64, out: &mut Outcome) -> Result<(f64, f64), String> {
    let cfg = campaign::config(w, seed, w.speedup_trials);
    let two = campaign::pass(&cfg);
    let one = pinned_rate(w, seed)?;
    let registry = Arc::new(Registry::new());
    wsn_telemetry::install(Arc::clone(&registry));
    let counted = campaign::pass(&cfg);
    wsn_telemetry::uninstall();
    campaign::check_repeat_tested(out, counted.checksums, two.checksums);
    out.attempted += (two.trials + counted.trials) as u64;
    for v in two.violations.iter().chain(&counted.violations) {
        out.fail(v.clone());
    }
    let activations = registry
        .snapshot()
        .counters
        .get("wsn.regime.activations")
        .copied()
        .unwrap_or(0) as f64;
    Ok((
        (two.trials as f64 / two.seconds) / one,
        activations / counted.trials as f64,
    ))
}

/// `par_map_threads(2)` over `par_map_threads(1)` on the replay sessions.
fn shadow_speedup(world: &World, recorded: &[Recorded]) -> f64 {
    let work = |threads: usize| {
        let t = Instant::now();
        std::hint::black_box(wsn_parallel::par_map_threads(
            threads,
            recorded,
            |_, rec| gen::expect_rounds(world, Arc::clone(&world.map), rec.extended, &rec.readings),
        ));
        t.elapsed().as_secs_f64()
    };
    let one = median(&[work(1), work(1), work(1)]);
    let two = median(&[work(2), work(2), work(2)]);
    one / two
}

fn spans_of<'a>(r: &'a Replay, name: &str) -> &'a [f64] {
    r.spans.get(name).map_or(&[], Vec::as_slice)
}

pub fn run(
    spec: &Spec,
    w: &Workload,
    seed: u64,
    _seconds: f64,
    bin: &str,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let world = World::build(w);
    let tracer = Tracer::new(1 << 21);

    // 1. In-process replay of the workload's own generated inputs.
    let sessions = match w.kind {
        Kind::Served => REPLAY_SESSIONS.min(w.sessions),
        Kind::Campaign => REPLAY_SESSIONS,
    };
    let recorded: Vec<Recorded> = (0..sessions as u64)
        .map(|g| Recorded {
            extended: gen::is_extended(g),
            readings: session_readings(w, &world, seed, g, REPLAY_ROUNDS, Some(&tracer)).0,
        })
        .collect();
    let bare = |world: &World| {
        let t = Instant::now();
        std::hint::black_box(replay(world, &recorded, None).rounds);
        t.elapsed().as_secs_f64()
    };
    let untraced_a = bare(&world);
    let t = Instant::now();
    let traced = replay(&world, &recorded, Some(&tracer));
    let traced_s = t.elapsed().as_secs_f64();
    let untraced_b = bare(&world);
    indexed_calls(&world, &recorded, false, INDEXED_BASIC_CALLS, &tracer);
    indexed_calls(&world, &recorded, true, INDEXED_EXT_CALLS, &tracer);
    map_ops(w, &tracer)?;
    let spans = Replay {
        spans: tracer.durations_us()?,
        ..traced
    };
    let (evaluations, pruned) = counted(&world, &recorded);
    let (speedup, activations) = match w.kind {
        Kind::Campaign => campaign_layers(w, seed, &mut out)?,
        Kind::Served => (shadow_speedup(&world, &recorded), 0.0),
    };
    let per = |name: &str, div: f64| median(spans_of(&spans, name)) / div;
    let encode_push = per("wire.encode.push", (REPS + 1) as f64);
    let decode_push = per("wire.decode.push", REPS as f64);
    let encode_rounds = per("wire.encode.rounds", (REPS + 1) as f64);
    let decode_rounds = per("wire.decode.rounds", REPS as f64);
    let steps = spans_of(&spans, "session.step");
    let rounds = spans.rounds.max(1) as f64;

    // 2. The served part.
    let served = w.kind == Kind::Served;
    let part = if served {
        served_part(w, &world, seed, bin, &mut out)?
    } else {
        ServedPart::default()
    };

    // 3. Reconciliation at low load, one request at a time: decode push +
    // encode reply + decode reply are the codec work on a round trip (the
    // client sends pre-encoded frames). Pipelining at the same rate adds
    // the stall reported as server.pipeline_stall_us.
    let codec_path = decode_push + encode_rounds + decode_rounds;
    let overhead = traced_s / ((untraced_a + untraced_b) / 2.0) - 1.0;
    out.note(format!("tracing overhead {:.1} %", overhead * 100.0));
    let (mut edge, mut gap) = (0.0, 0.0);
    if served {
        edge = part.rtt_p50_us - part.round_us - codec_path;
        let probe_edge = part.probe_p50_us - decode_push;
        gap = ((codec_path + part.round_us + probe_edge) - part.rtt_p50_us).abs()
            / part.rtt_p50_us.max(1e-9);
        out.note(format!(
            "reconcile at {} requests/s, one at a time: client p50 {:.1} us = codec {codec_path:.1} + server round {:.1} + edge {edge:.1}; edge probe {probe_edge:.1} us; gap {:.1} % (tolerance {:.0} %)",
            w.low_rate,
            part.rtt_p50_us,
            part.round_us,
            gap * 100.0,
            spec.reconcile_tolerance * 100.0,
        ));
        out.note(format!(
            "pipelined at the same rate: client p50 {:.1} us, stall {:.1} us over one-at-a-time",
            part.open_p50_us,
            part.open_p50_us - part.rtt_p50_us
        ));
    }
    if w.name == "serve-small" {
        out.check(edge >= 0.0, || {
            format!("reconciliation: server.edge_us is negative ({edge:.1} us)")
        });
        out.check(gap <= spec.reconcile_tolerance, || {
            format!(
                "reconciliation: layers miss the client p50 by {:.1} % (> {:.0} %)",
                gap * 100.0,
                spec.reconcile_tolerance * 100.0
            )
        });
    }
    if part.late_p99_ms > spec.late_limit_ms {
        out.note(format!(
            "FLAGGED: generator fell behind at {} rounds/s (p99 late {:.3} ms); client.late_ms and server.shed_per_1k include its delay",
            w.open_rate, part.late_p99_ms
        ));
    }

    out.metric("wire.encode_us", encode_push + encode_rounds, "us");
    out.metric("wire.decode_us", decode_push + decode_rounds, "us");
    out.metric("wire.push_bytes", spans.push_bytes, "bytes");
    out.metric("server.round_us", part.round_us, "us");
    out.metric("server.edge_us", edge, "us");
    out.metric(
        "server.pipeline_stall_us",
        part.open_p50_us - part.rtt_p50_us,
        "us",
    );
    out.metric("server.shed_per_1k", part.shed_per_1k, "count");
    out.metric("server.stale_per_churn", part.stale_per_churn, "count");
    out.metric("server.threads", part.threads, "count");
    out.metric("session.step_us.p50", median(steps), "us");
    out.metric("session.step_us.p99", percentile(steps, 0.99), "us");
    out.metric(
        "session.reacquire_frac",
        spans.reacquired as f64 / rounds,
        "frac",
    );
    out.metric("session.held_frac", spans.held as f64 / rounds, "frac");
    out.metric(
        "sampling.vector_us.basic",
        per("sampling.vector.basic", 1.0),
        "us",
    );
    out.metric(
        "sampling.vector_us.ext",
        per("sampling.vector.ext", 1.0),
        "us",
    );
    out.metric(
        "matching.heuristic_us",
        per("matching.heuristic", 1.0),
        "us",
    );
    out.metric(
        "matching.indexed_basic_us",
        per("matching.indexed.basic", 1.0),
        "us",
    );
    out.metric(
        "matching.indexed_ext_us",
        per("matching.indexed.ext", 1.0),
        "us",
    );
    out.metric("matching.evaluations_per_round", evaluations, "count");
    out.metric("matching.index_pruned_frac", pruned, "frac");
    out.metric("facemap.build_ms", per("facemap.build", 1e3), "ms");
    out.metric("facemap.clone_ms", per("facemap.clone", 1e3), "ms");
    out.metric("repair.kill_ms", per("repair.kill", 1e3), "ms");
    out.metric("repair.revive_ms", per("repair.revive", 1e3), "ms");
    out.metric("replay.map_digest_ms", per("replay.map_digest", 1e3), "ms");
    out.metric(
        "replay.round_digest_us",
        per("replay.round_digest", REPS as f64),
        "us",
    );
    out.metric("network.sample_us", per("network.sample", 1.0), "us");
    out.metric("regime.activations_per_trial", activations, "count");
    out.metric("parallel.speedup", speedup, "x");
    out.metric("client.late_ms", part.late_p99_ms, "ms");
    out.metric("p99_ms", part.p99_ms, "ms");
    out.metric("trace.overhead_frac", overhead, "frac");
    out.metric("reconcile.gap_frac", gap, "frac");
    Ok(out)
}
