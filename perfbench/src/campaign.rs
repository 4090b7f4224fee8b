//! The in-process fault campaign workload.

use crate::report::{cpu_ticks, median, proc_status, steal_since, Outcome};
use crate::spec::{Workload, STEAL_LIMIT};
use fttt::replay::digest_face_map;
use fttt::RepairMode;
use fttt_bench::robustness::{
    campaign_checksum, check_churn_digests, run_campaign_stats, CampaignConfig, CampaignKind,
};
use std::time::Instant;

/// The campaign configuration of a workload.
pub fn config(w: &Workload, seed: u64, trials: usize) -> CampaignConfig {
    CampaignConfig {
        seed,
        trials,
        duration: w.duration_s,
        nodes: w.nodes,
    }
}

/// One campaign pass (the `Builtin` then the `Churn` kind).
pub struct Pass {
    pub seconds: f64,
    pub trials: usize,
    pub rounds: u64,
    /// Checksums of the two kinds, in order.
    pub checksums: [u64; 2],
    pub error_sum: f64,
    /// Churn-family invariant violations.
    pub violations: Vec<String>,
}

pub fn pass(cfg: &CampaignConfig) -> Pass {
    let t = Instant::now();
    let kinds = [CampaignKind::Builtin, CampaignKind::Churn];
    let stats: Vec<_> = kinds
        .iter()
        .map(|k| run_campaign_stats(cfg, k, 1, 0))
        .collect();
    let seconds = t.elapsed().as_secs_f64();
    let mut p = Pass {
        seconds,
        trials: 0,
        rounds: 0,
        checksums: [0; 2],
        error_sum: 0.0,
        violations: Vec::new(),
    };
    for (i, cs) in stats.iter().enumerate() {
        p.trials += cs.stats.len();
        p.rounds += cs.stats.iter().map(|s| s.rounds).sum::<u64>();
        p.error_sum += cs.stats.iter().map(|s| s.mean_error).sum::<f64>();
        p.checksums[i] = campaign_checksum(cfg, &cs.cells, cs.map_digest, &cs.stats);
        p.violations
            .extend(check_churn_digests(&cs.cells, &cs.stats));
    }
    p
}

/// Clone + incremental repair + map digest: the work `wsn-serve` does
/// under its map lock for one `Churn`, timed in process.
pub fn churn_cycle_ms(map: &fttt::FaceMap, events: &[(usize, bool)]) -> Vec<f64> {
    let mut current = map.clone();
    events
        .iter()
        .map(|&(node, death)| {
            let t = Instant::now();
            let mut next = current.clone();
            if death {
                next.kill_node(node, RepairMode::Incremental);
            } else {
                next.revive_node(node, RepairMode::Incremental);
            }
            std::hint::black_box(digest_face_map(&next));
            current = next;
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// Checks that a repeated pass reproduced the first run's checksums.
fn check_repeat(out: &mut Outcome, again: [u64; 2], first: [u64; 2]) {
    out.check(again == first, || {
        format!(
            "repeated pass: campaign checksums {:#x}/{:#x}, first run {:#x}/{:#x}",
            again[0], again[1], first[0], first[1]
        )
    });
}

/// [`check_repeat`], plus its self-test: the same check, on scratch
/// tallies, must count a repeat whose checksum has one flipped bit.
pub fn check_repeat_tested(out: &mut Outcome, again: [u64; 2], first: [u64; 2]) {
    check_repeat(out, again, first);
    let mut scratch = Outcome::default();
    check_repeat(&mut scratch, [again[0] ^ 1, again[1]], first);
    out.check(scratch.failed == 1, || {
        "self-test: a checksum with one flipped bit was not counted as a failure".into()
    });
}

/// Map builds timed for `setup_s` before each pass.
const BUILDS_PER_PASS: usize = 3;
/// Distinct pass seeds every run completes, however long that takes, so
/// `mean_error_m` is a pure function of the seed.
const MIN_PASSES: usize = 6;

/// Passes kept for the timings however noisy the host was.
const MIN_QUIET: usize = 3;

/// The timings taken around one pass.
struct Timing {
    /// Map builds before the pass, seconds.
    builds: Vec<f64>,
    /// One churn cycle before the pass, ms per event.
    churn_ms: Vec<f64>,
    /// Share of CPU time stolen by the hypervisor meanwhile.
    steal: f64,
}

/// Runs the campaign workload: passes (each on its own seed drawn from the
/// run's seed) until `seconds`, then pass 0 again, whose checksums must
/// repeat. Before each pass the campaign map is built `BUILDS_PER_PASS`
/// times (`setup_s`) and its churn nodes killed and revived once
/// (`churn_ack_ms`), so these short timings sample the whole run rather
/// than one moment of it. The timings of a pass during which the
/// hypervisor stole more than `STEAL_LIMIT` of the CPU time are dropped,
/// unless fewer than `MIN_QUIET` passes would be left.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let params = w.params();
    let field = params.grid_field();
    let between_passes = || {
        let mut map = None;
        let builds: Vec<f64> = (0..BUILDS_PER_PASS)
            .map(|_| {
                let t = Instant::now();
                map = Some(params.face_map(&field));
                t.elapsed().as_secs_f64()
            })
            .collect();
        let cycle = churn_cycle_ms(&map.expect("BUILDS_PER_PASS > 0"), &w.churn_events());
        (builds, cycle)
    };

    let pass_cfg = |k: u64| config(w, wsn_parallel::seed_for(seed, k), w.trials);
    let t = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut timed: Vec<Timing> = Vec::new();
    // The first cycle pays the first-touch page faults; not counted.
    between_passes();
    let timed_pass = |k: u64| {
        let ticks = cpu_ticks();
        let (builds, churn_ms) = between_passes();
        let p = pass(&pass_cfg(k));
        let steal = steal_since(ticks);
        (
            p,
            Timing {
                builds,
                churn_ms,
                steal,
            },
        )
    };
    while passes.len() < MIN_PASSES || t.elapsed().as_secs_f64() < seconds {
        let (p, timing) = timed_pass(passes.len() as u64);
        passes.push(p);
        timed.push(timing);
    }
    let (again, timing) = timed_pass(0);
    out.attempted += again.trials as u64;
    check_repeat_tested(&mut out, again.checksums, passes[0].checksums);
    for (i, p) in passes.iter().enumerate() {
        out.attempted += p.trials as u64;
        for v in &p.violations {
            out.fail(format!("pass {i}: {v}"));
        }
    }
    let first = passes[0].checksums;
    let scored = &passes[..MIN_PASSES];
    let error = scored.iter().map(|p| p.error_sum).sum::<f64>()
        / scored.iter().map(|p| p.trials).sum::<usize>() as f64;
    passes.push(again);
    timed.push(timing);

    let quiet: Vec<usize> = (0..passes.len())
        .filter(|&i| timed[i].steal <= STEAL_LIMIT)
        .collect();
    let kept: Vec<usize> = if quiet.len() >= MIN_QUIET {
        quiet
    } else {
        (0..passes.len()).collect()
    };
    let noisy = passes.len() - kept.len();
    if noisy > 0 {
        out.note(format!(
            "FLAGGED: the host stole more than {:.1} % of the CPU time during {noisy} of {} passes; their timings are dropped",
            STEAL_LIMIT * 100.0,
            passes.len()
        ));
    } else if timed.iter().any(|t| t.steal > STEAL_LIMIT) {
        out.note(format!(
            "FLAGGED: the host stole more than {:.1} % of the CPU time during most passes; every pass's timings are reported",
            STEAL_LIMIT * 100.0
        ));
    }
    let busy: f64 = kept.iter().map(|&i| passes[i].seconds).sum();
    let trials: usize = kept.iter().map(|&i| passes[i].trials).sum();
    let rounds: u64 = kept.iter().map(|&i| passes[i].rounds).sum();
    let lat_ms: Vec<f64> = kept.iter().map(|&i| passes[i].seconds * 1e3).collect();
    let builds: Vec<f64> = kept.iter().flat_map(|&i| timed[i].builds.clone()).collect();
    let churn_ms: Vec<f64> = kept
        .iter()
        .flat_map(|&i| timed[i].churn_ms.clone())
        .collect();
    let (rss_mb, _) = proc_status(std::process::id())?;
    out.note(format!(
        "campaign: {} passes of {} trials at nodes = {} ({} latency samples), pass 0 checksums {:#018x}/{:#018x} repeated",
        passes.len(),
        passes[0].trials,
        w.nodes,
        lat_ms.len(),
        first[0],
        first[1]
    ));
    out.metric("setup_s", median(&builds), "s");
    out.metric("capacity_rps", rounds as f64 / busy, "1/s");
    out.metric("p50_ms", median(&lat_ms), "ms");
    out.metric("churn_ack_ms", median(&churn_ms), "ms");
    out.metric("rss_mb", rss_mb, "MB");
    out.metric("trials_per_s", trials as f64 / busy, "1/s");
    out.metric("mean_error_m", error, "m");
    Ok(out)
}
