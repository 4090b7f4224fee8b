//! Satellite of the determinism work: two identically-seeded campaign
//! runs must serialize to byte-identical *canonical* journals, including
//! when the per-trial work is spread across different
//! `par_map_threads` widths — the canonical form strips everything
//! scheduling-dependent (wall-clock timestamps and durations, sequence
//! numbers, thread ordinals) and sorts, so only simulation state is left
//! to compare.
//!
//! The journal sink is process-global: one `#[test]` drives all phases
//! sequentially.

use std::sync::Arc;

use fttt::replay::stable_session_id;
use fttt::session::{SessionOptions, TrackingSession};
use fttt::tracker::{Tracker, TrackerOptions};
use fttt_bench::robustness::{run_campaign_stats, CampaignConfig, CampaignKind};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wsn_parallel::{par_map_threads, seed_for};
use wsn_telemetry::Journal;

/// Runs `f` under a fresh journal and returns the canonical JSONL.
fn canonical_of<F: FnOnce()>(f: F) -> String {
    let journal = Arc::new(Journal::with_capacity(1 << 16));
    wsn_telemetry::install_journal(Arc::clone(&journal));
    f();
    wsn_telemetry::uninstall_journal();
    let log = journal.snapshot();
    assert_eq!(log.dropped, 0, "canonical form is only meaningful lossless");
    log.to_canonical_jsonl()
}

/// A small batch of stable-id sessions, fanned out over `threads`
/// workers.
fn session_batch(threads: usize) {
    let params = fttt::config::PaperParams::default()
        .with_nodes(8)
        .with_cell_size(2.0);
    let field = params.grid_field();
    let map = params.face_map(&field);
    let idx: Vec<u64> = (0..4).collect();
    par_map_threads(threads, &idx, |_, &i| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed_for(99, i));
        let trace = params.random_trace(4.0, &mut rng);
        let mut session = TrackingSession::new(
            Tracker::new(map.clone(), TrackerOptions::heuristic()),
            SessionOptions::new(params.samples_k).with_max_speed(params.max_speed),
        )
        .with_session_id(stable_session_id(
            "det-test",
            "FTTT-basic",
            None,
            i,
            map.epoch(),
        ));
        let sampler = params.sampler();
        session.run(&trace, &mut rng, |_, pos, _, r| {
            sampler.sample(&field, pos, r)
        });
    });
}

#[test]
fn identically_seeded_runs_serialize_to_identical_canonical_journals() {
    // Phase 1: the full campaign path (header + trial + round events),
    // run twice under the default thread fan-out. Different wall-clock,
    // different interleaving — same canonical bytes.
    let cfg = CampaignConfig {
        seed: 17,
        trials: 2,
        duration: 4.0,
        nodes: 8,
    };
    let kind = CampaignKind::Custom {
        label: "det".into(),
        schedule: "burst enter=0.2 exit=0.4 loss_bad=0.9".into(),
    };
    let a = canonical_of(|| {
        run_campaign_stats(&cfg, &kind, 1, 0);
    });
    let b = canonical_of(|| {
        run_campaign_stats(&cfg, &kind, 1, 0);
    });
    assert!(
        a.lines().count() > 10,
        "campaign journal should hold header + trials + rounds:\n{a}"
    );
    assert_eq!(
        a, b,
        "identically-seeded campaigns must journal identically"
    );

    // Phase 1b: the churn family. Lineage jobs interleave their lanes'
    // rounds and journal one `fttt.map.repair` per session per event;
    // the repair's wall-clock time stays in the raw journal only.
    let churn_cfg = CampaignConfig {
        duration: 20.0,
        ..cfg
    };
    let a = canonical_of(|| {
        run_campaign_stats(&churn_cfg, &CampaignKind::Churn, 1, 0);
    });
    let b = canonical_of(|| {
        run_campaign_stats(&churn_cfg, &CampaignKind::Churn, 1, 0);
    });
    let count = |name: &str| a.lines().filter(|l| l.contains(name)).count();
    // 2 repairing policies x 2 methods x 2 trials, 6 churn events each.
    assert_eq!(
        count("\"fttt.map.repair\""),
        48,
        "one repair event per session per churn event:\n{a}"
    );
    // ... but one repair per lineage (policy) per event.
    assert_eq!(
        count("\"name\":\"fttt.map.repair.total\",\"kind\":\"span_begin\""),
        12,
        "each lineage must repair each churn event once:\n{a}"
    );
    assert!(
        !a.contains("repair_us"),
        "canonical JSONL must not leak repair wall-clock"
    );
    assert_eq!(
        a, b,
        "identically-seeded churn campaigns must journal identically"
    );

    // Phase 2: explicit thread widths. One worker vs four must not move a
    // byte — stable session ids keep events identity-keyed, canonical
    // serialization strips the scheduling.
    let serial = canonical_of(|| session_batch(1));
    let wide = canonical_of(|| session_batch(4));
    assert_eq!(
        serial, wide,
        "canonical journal must be invariant to par_map_threads width"
    );

    // Sanity: the *raw* JSONL of two runs genuinely differs (wall-clock
    // timestamps), so the equality above is the canonicalization working,
    // not an empty statement.
    let journal = Arc::new(Journal::with_capacity(1 << 16));
    wsn_telemetry::install_journal(Arc::clone(&journal));
    session_batch(1);
    wsn_telemetry::uninstall_journal();
    let raw = journal.snapshot().to_jsonl();
    assert!(raw.contains("\"ts_us\":"), "raw JSONL keeps wall-clock");
    assert!(
        !serial.contains("\"ts_us\":"),
        "canonical JSONL must not leak wall-clock"
    );
}
