//! Served workloads: `wsn-serve` spawned from its binary, driven over TCP.

use crate::gen::{self, expect_rounds, SessInput, World};
use crate::load::{self, Admin, Check, ChurnAt, ChurnRecord, Client, Conn, Mode, PhaseStats};
use crate::report::{cpu_ticks, median, per_window, percentile, proc_status, steal_since, Outcome};
use crate::spec::{Spec, Workload, CLOSED_WINDOW, SHARDS, STEAL_LIMIT};
use fttt::replay::digest_face_map;
use fttt::{FaceMap, RepairMode};
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wsn_server::Frame;

/// A flagged instance waits this long before it runs again, so a burst of
/// noise from outside the VM can pass.
const RERUN_PAUSE: Duration = Duration::from_secs(2);
/// No instance re-runs after this much of a run, so that a run, re-runs
/// included, stays within about 80 s.
const RERUN_UNTIL: Duration = Duration::from_secs(60);
/// Closed-loop capacity slice, seconds.
const CAPACITY_SLICE_S: f64 = 0.25;

/// A spawned `wsn-serve`; killed and reaped on drop if still running.
pub struct ServerProc {
    child: Child,
    pub addr: String,
    pub ops: Option<String>,
    /// Spawn to `LISTENING`, seconds.
    pub setup_s: f64,
}

impl ServerProc {
    pub fn spawn(bin: &str, w: &Workload, ops: bool) -> Result<ServerProc, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--listen", "127.0.0.1:0", "--shards"])
            .arg(SHARDS.to_string())
            .arg("--nodes")
            .arg(w.nodes.to_string())
            .arg("--cell-size")
            .arg(w.cell_m.to_string());
        if ops {
            cmd.args(["--ops-listen", "127.0.0.1:0"]);
        }
        let t = Instant::now();
        let mut child = cmd
            .stdout(Stdio::piped())
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {bin}: {e}"))?;
        let mut out = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = |prefix: &str| -> Result<String, String> {
            let mut line = String::new();
            out.read_line(&mut line)
                .map_err(|e| format!("wsn-serve banner: {e}"))?;
            line.trim()
                .strip_prefix(prefix)
                .map(str::to_string)
                .ok_or_else(|| format!("wsn-serve printed {line:?}, want {prefix}<addr>"))
        };
        let addr = banner("LISTENING ");
        let setup_s = t.elapsed().as_secs_f64();
        let ops_addr = if ops {
            Some(banner("OPS LISTENING "))
        } else {
            None
        };
        let mut proc = ServerProc {
            child,
            addr: String::new(),
            ops: None,
            setup_s,
        };
        proc.addr = addr?;
        proc.ops = ops_addr.transpose()?;
        Ok(proc)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the server to shut down over `admin` and reaps it.
    pub fn shutdown(mut self, admin: &mut Admin) -> Result<(), String> {
        let reply = admin.request(&Frame::Shutdown);
        let until = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("wsn-serve exited with {status}")),
                Ok(None) if Instant::now() < until => std::thread::sleep(Duration::from_millis(5)),
                Ok(None) => return Err("wsn-serve did not exit after Shutdown".into()),
                Err(e) => return Err(format!("waiting for wsn-serve: {e}")),
            }
        }
        match reply? {
            Frame::ShutdownAck => Ok(()),
            other => Err(format!("shutdown: unexpected reply {other:?}")),
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Opens every session on `conn` (pipelined); returns the phase stats.
pub fn open_all(conn: &mut Conn, client: &mut Client, inputs: &[SessInput]) -> PhaseStats {
    load::run_phase(
        conn,
        client,
        inputs,
        &Check::Record,
        Mode::Closed {
            window: 0,
            limit: 0,
            deadline: None,
        },
        None,
        &[],
    )
}

/// The workload's churn events from position `from` of its endless
/// kill/revive cycle, one every `churn_every_s` over `window`.
pub fn churn_plan(w: &Workload, from: usize, window: Duration) -> Vec<ChurnAt> {
    let cycle = w.churn_events();
    if !w.churns_under_load() || cycle.is_empty() {
        return Vec::new();
    }
    let every = w.churn_every_s;
    (0..)
        .map(|i| (i, Duration::from_secs_f64(every * (i as f64 + 0.5))))
        .take_while(|(_, at)| *at < window)
        .map(|(i, at)| {
            let (node, death) = cycle[(from + i) % cycle.len()];
            ChurnAt { at, node, death }
        })
        .collect()
}

/// One server instance's windows, and the rounds per session they can use:
/// warm-up + open + closed budget. Each instance opens its own sessions
/// and serves them from round 0.
pub struct Shape {
    pub open_n: usize,
    pub open_s: f64,
    pub closed_s: f64,
    pub rounds: usize,
}

impl Shape {
    pub fn new(w: &Workload, spec: &Spec, seconds: f64) -> Shape {
        let per_instance = seconds / spec.instances as f64;
        let open_s = per_instance * spec.open_share;
        let closed_s = per_instance - open_s;
        let open_n = (w.open_rate * open_s).round() as usize;
        let closed_n = (w.closed_budget_rps * closed_s).ceil() as usize;
        Shape {
            open_n,
            open_s,
            closed_s,
            rounds: w.warmup_rounds + open_n.div_ceil(w.sessions) + closed_n.div_ceil(w.sessions),
        }
    }
}

/// The benchmark's own copy of the map, repaired with the same events the
/// server saw. Checks every `ChurnAck` against it and hands `visit` the
/// map of every epoch reached, one at a time.
pub fn follow_churn(
    base: &Arc<FaceMap>,
    churns: &[ChurnRecord],
    out: &mut Outcome,
    mut visit: impl FnMut(&Arc<FaceMap>, &mut Outcome),
) {
    visit(base, out);
    let mut map = (**base).clone();
    for c in churns {
        if c.death {
            map.kill_node(c.node, RepairMode::Incremental);
        } else {
            map.revive_node(c.node, RepairMode::Incremental);
        }
        let digest = digest_face_map(&map);
        out.check(c.epoch == map.epoch() && c.map_digest == digest, || {
            format!(
                "ChurnAck for node {} (death {}) reports epoch {} digest {:#x}; own copy has epoch {} digest {digest:#x}",
                c.node, c.death, c.epoch, c.map_digest, map.epoch()
            )
        });
        let shared = Arc::new(map);
        visit(&shared, out);
        map = Arc::try_unwrap(shared).unwrap_or_else(|m| (*m).clone());
    }
}

/// Replays the recorded segments served on `map`'s epoch and compares
/// each served round; also checks each segment's map digest.
pub fn verify_segments(
    world: &World,
    inputs: &[SessInput],
    segments: &[load::Segment],
    map: &Arc<FaceMap>,
    out: &mut Outcome,
) {
    let epoch = map.epoch();
    let digest = digest_face_map(map);
    let mine: Vec<&load::Segment> = segments.iter().filter(|s| s.epoch == epoch).collect();
    let results: Vec<Vec<String>> = wsn_parallel::par_map_threads(2, &mine, |_, seg| {
        let input = &inputs[seg.session];
        let mut bad = Vec::new();
        if seg.map_digest != digest {
            bad.push(format!(
                "session {} open ack map digest {:#x} != own map {digest:#x} at epoch {epoch}",
                input.global, seg.map_digest
            ));
        }
        let readings: Vec<_> = (seg.start..seg.start + seg.served.len())
            .map(|r| input.round(r))
            .collect();
        let want = expect_rounds(world, Arc::clone(map), input.extended, &readings);
        for (i, (got, want)) in seg.served.iter().zip(&want).enumerate() {
            if got != want {
                bad.push(format!(
                    "result mismatch: session {} round {} (epoch {epoch}, segment round {i})",
                    input.global,
                    seg.start + i
                ));
            }
        }
        bad
    });
    for (seg, bad) in mine.iter().zip(results) {
        out.attempted += 1 + seg.served.len() as u64;
        for b in bad {
            out.fail(b);
        }
    }
}

/// Doctored-reply self-test: flips one bit of a served reply and sends
/// it, with the reply as served, through the check the run's replies went
/// through, on scratch tallies: against the stored shadow expectation, or
/// recorded into a copy of its segment that is replayed on the map.
/// Returns whether exactly the doctored reply was counted as failed.
pub fn doctored_reply_detected(
    world: &World,
    inputs: &[SessInput],
    check: &Check<'_>,
    segments: &[load::Segment],
    sample: &Option<(usize, usize, wsn_server::RoundResult, u64)>,
) -> bool {
    let Some((s, r, res, digest)) = sample else {
        return false;
    };
    let (s, r) = (*s, *r);
    let mut doctored = res.clone();
    doctored.x = f64::from_bits(doctored.x.to_bits() ^ 1);
    match check {
        Check::Shadow(shadow) => {
            let input = &shadow[s];
            let mut scratch = PhaseStats::default();
            for reply in [res, &doctored] {
                load::verify_reply(
                    &mut scratch,
                    input.expected[r],
                    input.global,
                    r,
                    reply,
                    *digest,
                );
            }
            scratch.failed == 1
        }
        Check::Record => {
            let Some(seg) = segments
                .iter()
                .find(|g| g.session == s && (g.start..g.start + g.served.len()).contains(&r))
            else {
                return false;
            };
            let mut copy = seg.clone();
            copy.served[r - seg.start].0 = gen::result_hash(&doctored);
            let mut scratch = Outcome::default();
            verify_segments(
                world,
                inputs,
                &[seg.clone(), copy],
                &world.map,
                &mut scratch,
            );
            scratch.failed == 1
        }
    }
}

/// Adds a phase's attempted and failed tallies to `out`.
pub fn absorb(out: &mut Outcome, stats: &PhaseStats) {
    out.attempted += stats.attempted;
    out.failed += stats.failed;
    for f in &stats.failures {
        if out.failures.len() < 16 {
            out.failures.push(f.clone());
        }
    }
}

/// What server instances measured, pooled.
#[derive(Default)]
struct Pooled {
    setup_s: Vec<f64>,
    open_rates: Vec<f64>,
    latency_us: Vec<f64>,
    capacity_slices: Vec<f64>,
    churn_ms: Vec<f64>,
    rss_mb: Vec<f64>,
    late_p99_ms: f64,
    /// Share of CPU time stolen by the hypervisor while timing.
    steal: f64,
    error_sum: f64,
    error_n: u64,
    sheds: u64,
    stale: u64,
    closed_acked: u64,
}

impl Pooled {
    fn merge(&mut self, other: Pooled) {
        self.setup_s.extend(other.setup_s);
        self.open_rates.extend(other.open_rates);
        self.latency_us.extend(other.latency_us);
        self.capacity_slices.extend(other.capacity_slices);
        self.churn_ms.extend(other.churn_ms);
        self.rss_mb.extend(other.rss_mb);
        self.late_p99_ms = self.late_p99_ms.max(other.late_p99_ms);
        self.steal = self.steal.max(other.steal);
        self.error_sum += other.error_sum;
        self.error_n += other.error_n;
        self.sheds += other.sheds;
        self.stale += other.stale;
        self.closed_acked += other.closed_acked;
    }
}

/// Spawns a server, checks it serves the benchmark's own map, and opens
/// every session on it.
fn spawn_open(
    bin: &str,
    w: &Workload,
    world: &World,
    inputs: &[SessInput],
    out: &mut Outcome,
    pooled: &mut Pooled,
) -> Result<(ServerProc, Conn, Admin, Client), String> {
    let server = ServerProc::spawn(bin, w, false)?;
    pooled.setup_s.push(server.setup_s);
    let mut conn = Conn::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
    let admin = Admin::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
    let mut client = Client::new(w.sessions);
    let opened = open_all(&mut conn, &mut client, inputs);
    absorb(out, &opened);
    pooled
        .open_rates
        .push(opened.opens as f64 / opened.busy_s.max(1e-9));
    let own = digest_face_map(&world.map);
    for seg in &client.segments {
        out.check(seg.map_digest == own, || {
            format!(
                "session {} opened on map digest {:#x}, own build has {own:#x}",
                inputs[seg.session].global, seg.map_digest
            )
        });
    }
    Ok((server, conn, admin, client))
}

/// One server instance: warm-up, open-loop window, closed-loop window,
/// idle churn, then the checks that run after the windows.
#[allow(clippy::too_many_arguments)]
fn instance(
    spec: &Spec,
    w: &Workload,
    shape: &Shape,
    world: &World,
    inputs: &[SessInput],
    bin: &str,
    out: &mut Outcome,
    pooled: &mut Pooled,
) -> Result<(), String> {
    let under_load = w.churns_under_load();
    let (server, mut conn, mut admin, mut client) = spawn_open(bin, w, world, inputs, out, pooled)?;
    let check = if under_load {
        Check::Record
    } else {
        Check::Shadow(inputs)
    };
    let mut stats = PhaseStats::default();

    // Warm-up: every session's first rounds (the cold climb and the early
    // re-acquisitions), untimed.
    let warm = Mode::Closed {
        window: CLOSED_WINDOW,
        limit: w.warmup_rounds,
        deadline: None,
    };
    stats.absorb(load::run_phase(
        &mut conn,
        &mut client,
        inputs,
        &check,
        warm,
        None,
        &[],
    ));

    // Open-loop latency window.
    let ticks = cpu_ticks();
    let plan = churn_plan(w, 0, Duration::from_secs_f64(shape.open_s));
    let open = load::run_phase(
        &mut conn,
        &mut client,
        inputs,
        &check,
        Mode::Open {
            rate: w.open_rate,
            base: w.warmup_rounds,
            n: shape.open_n,
        },
        Some(&mut admin),
        &plan,
    );
    pooled.latency_us.extend_from_slice(&open.latency_us);
    pooled.late_p99_ms = pooled
        .late_p99_ms
        .max(percentile(&open.late_us, 0.99) / 1e3);
    pooled.error_sum += open.error_sum;
    pooled.error_n += open.error_n;
    pooled.sheds += open.sheds;
    let churned = open.churns.len();
    stats.absorb(open);

    // Closed-loop capacity window: acks per CAPACITY_SLICE_S slice.
    let plan = churn_plan(w, churned, Duration::from_secs_f64(shape.closed_s));
    let closed = load::run_phase(
        &mut conn,
        &mut client,
        inputs,
        &check,
        Mode::Closed {
            window: CLOSED_WINDOW,
            limit: shape.rounds,
            deadline: Some(Duration::from_secs_f64(shape.closed_s)),
        },
        Some(&mut admin),
        &plan,
    );
    let ones = vec![1.0; closed.acked_at_s.len()];
    let sending = shape
        .closed_s
        .min(closed.acked_at_s.last().copied().unwrap_or(0.0));
    // The first slice is the window filling up; it is not counted.
    let slices = per_window(&closed.acked_at_s, &ones, CAPACITY_SLICE_S, sending, |v| {
        v.len() as f64 / CAPACITY_SLICE_S
    });
    pooled
        .capacity_slices
        .extend(slices.iter().skip(1).copied());
    pooled.closed_acked += closed.acked;
    stats.absorb(closed);

    // Churn acks on the idle server, for workloads without churn under load.
    if !under_load {
        for _ in 0..spec.idle_churn_cycles {
            for (node, death) in w.churn_events() {
                stats.attempted += 1;
                match load::churn_now(&mut admin, node, death) {
                    Ok(rec) => stats.churns.push(rec),
                    Err(e) => stats.fail(e),
                }
            }
        }
    }
    pooled.steal = steal_since(ticks);
    pooled
        .churn_ms
        .extend(stats.churns.iter().map(|c| c.ack_ms));
    pooled.stale += stats.stale;
    pooled.rss_mb.push(proc_status(server.pid())?.0);
    server.shutdown(&mut admin)?;
    absorb(out, &stats);

    // Checks that run after the windows: every ChurnAck against the
    // benchmark's own repaired map and, under churn, every served round
    // against a replay on its epoch's map.
    follow_churn(&world.map, &stats.churns, out, |map, out| {
        if under_load {
            verify_segments(world, inputs, &client.segments, map, out);
        }
    });
    if under_load {
        let reached = 1 + stats.churns.len() as u64;
        let stray = client.segments.iter().find(|s| s.epoch >= reached);
        out.check(stray.is_none(), || {
            format!(
                "a session opened at epoch {:?}; only {reached} epochs were reached",
                stray.map(|s| s.epoch)
            )
        });
    }
    out.check(
        doctored_reply_detected(world, inputs, &check, &client.segments, &stats.sample),
        || "self-test: a reply with one flipped bit was not counted as a failure".into(),
    );
    Ok(())
}

/// Runs a served workload end to end: extra spawns that only time set-up
/// and session opens, then `instances` full server instances whose
/// samples are pooled. An instance whose generator fell behind its
/// schedule, or during which the hypervisor stole more than `STEAL_LIMIT`
/// of the CPU time, is flagged and its figures are dropped: it runs again
/// on a fresh server after a pause, unless the run is `RERUN_UNTIL` old
/// (then a flagged instance is reported, with its flag).
pub fn run(
    spec: &Spec,
    w: &Workload,
    seed: u64,
    seconds: f64,
    bin: &str,
) -> Result<Outcome, String> {
    let started = Instant::now();
    let mut out = Outcome::default();
    let shape = Shape::new(w, spec, seconds);
    let world = World::build(w);
    let under_load = w.churns_under_load();

    // Inputs and (for workloads without churn) the shadow truth, up front.
    // Each instance serves its own sessions, so the instances add
    // independent samples of the workload rather than repeat one.
    let t = Instant::now();
    let inputs: Vec<Vec<SessInput>> = (0..spec.instances)
        .map(|k| {
            let first = (k * w.sessions) as u64;
            gen::generate(w, &world, seed, first, shape.rounds, !under_load)
        })
        .collect();
    gen::check_push_layout(&inputs[0][0].frames[0])?;
    out.note(format!(
        "inputs: {} instances x {} sessions x {} rounds generated in {:.2} s (shadow {})",
        spec.instances,
        w.sessions,
        shape.rounds,
        t.elapsed().as_secs_f64(),
        if under_load {
            "after the windows"
        } else {
            "before the windows"
        }
    ));

    let mut pooled = Pooled::default();
    // Spawns that only time set-up and opens. One the host stole more
    // than STEAL_LIMIT from is spawned again, as many extra times at most.
    let wanted = spec.setup_spawns.saturating_sub(spec.instances);
    let (mut kept, mut extra) = (0, wanted);
    while kept < wanted {
        let mut one = Pooled::default();
        let ticks = cpu_ticks();
        let (server, _conn, mut admin, _client) =
            spawn_open(bin, w, &world, &inputs[0], &mut out, &mut one)?;
        server.shutdown(&mut admin)?;
        if steal_since(ticks) > STEAL_LIMIT && extra > 0 {
            extra -= 1;
            continue;
        }
        pooled.merge(one);
        kept += 1;
    }
    for (k, instance_inputs) in inputs.iter().enumerate() {
        loop {
            let mut one = Pooled::default();
            instance(
                spec,
                w,
                &shape,
                &world,
                instance_inputs,
                bin,
                &mut out,
                &mut one,
            )?;
            let late = one.late_p99_ms > spec.late_limit_ms;
            let noisy = one.steal > STEAL_LIMIT;
            if !late && !noisy {
                pooled.merge(one);
                break;
            }
            let flagged = format!(
                "FLAGGED: instance {k}: {}",
                if late {
                    format!(
                        "generator fell behind (p99 send lateness {:.3} ms > {} ms)",
                        one.late_p99_ms, spec.late_limit_ms
                    )
                } else {
                    format!(
                        "host stole {:.1} % of the CPU time (> {:.1} %)",
                        one.steal * 100.0,
                        STEAL_LIMIT * 100.0
                    )
                }
            );
            if started.elapsed() > RERUN_UNTIL {
                out.note(format!(
                    "{flagged}; no re-runs left, its figures are reported"
                ));
                pooled.merge(one);
                break;
            }
            out.note(format!(
                "{flagged}; its figures are dropped and it runs again"
            ));
            std::thread::sleep(RERUN_PAUSE);
        }
    }
    out.note(format!(
        "{} instances; open loop: {} pushes at {} /s each, {} latency samples (p50 {:.3} ms; p99 {:.3} ms, not gated, see spec.json), p99 send lateness {:.3} ms, host steal up to {:.1} %, sheds {}; closed loop: {} rounds acked, median of {} slices; {} churn acks; {} stale replies",
        spec.instances,
        shape.open_n,
        w.open_rate,
        pooled.latency_us.len(),
        median(&pooled.latency_us) / 1e3,
        percentile(&pooled.latency_us, 0.99) / 1e3,
        pooled.late_p99_ms,
        pooled.steal * 100.0,
        pooled.sheds,
        pooled.closed_acked,
        pooled.capacity_slices.len(),
        pooled.churn_ms.len(),
        pooled.stale
    ));
    out.metric("setup_s", median(&pooled.setup_s), "s");
    out.metric("capacity_rps", median(&pooled.capacity_slices), "1/s");
    out.metric("p50_ms", median(&pooled.latency_us) / 1e3, "ms");
    out.metric("churn_ack_ms", median(&pooled.churn_ms), "ms");
    out.metric("rss_mb", median(&pooled.rss_mb), "MB");
    out.metric("trials_per_s", median(&pooled.open_rates), "1/s");
    out.metric(
        "mean_error_m",
        pooled.error_sum / pooled.error_n.max(1) as f64,
        "m",
    );
    Ok(out)
}
