//! The fault campaign: graceful-degradation envelopes for self-healing
//! tracking sessions under composable fault regimes.
//!
//! Each campaign cell runs seeded Monte-Carlo trials of a
//! [`TrackingSession`] (basic or extended FTTT under the heuristic matcher
//! with the session's recovery ladder) against a fault regime described in
//! the `wsn_network::spec` schedule language — the same parser users feed
//! config files through, so the campaign doubles as an end-to-end test of
//! that path. Two families of cells:
//!
//! * a **node-failure sweep** over rates {0, 0.1, 0.3, 0.5}, the paper's
//!   Section-7 fault axis, which must show *graceful* degradation: error
//!   grows with the rate but stays inside an envelope anchored at the
//!   fault-free mean and capped below a blind field-centre guess;
//! * **showcase regimes** exercising each [`wsn_network::RegimeKind`]:
//!   bursty loss, a total blackout window (which must drive the session
//!   Lost *and back*), energy-coupled death, stuck-at and drifting
//!   sensors;
//! * a **churn family** ([`CampaignKind::Churn`]): a staggered death/birth
//!   storm run under three map policies — `churn-stale` (the map is never
//!   repaired, the control a fault-oblivious deployment would be),
//!   `churn-incremental` (live incremental face-map repair) and
//!   `churn-rebuild` (full rebuild per event, the reference the
//!   incremental path must digest-match). Every repair folds the
//!   post-repair map epoch and face-map digest into the trial's world
//!   digest, so churned campaigns stay bit-replayable and shard-identical
//!   exactly like static ones; [`check_churn_digests`] asserts the
//!   incremental and rebuild policies produced identical per-trial
//!   digests.
//!
//! [`check_envelopes`] turns those expectations into machine-checked
//! assertions; the `fault_campaign` binary and the CLI `campaign`
//! subcommand print the table, write `BENCH_robustness.json` and fail on
//! any violation.
//!
//! # Execution
//!
//! Every trial runs as a *lane* of one runner ([`run_lanes`]), against a
//! face-map *lineage*. The lanes of one repairing policy — both methods,
//! every trial — step in lockstep over their shared round grid and share
//! one lineage: each churn event is repaired once and digested once, and
//! every lane adopts the repaired map ([`TrackingSession::adopt_churn`]).
//! All other trials (stale and non-churn) are single lanes whose lineage
//! never leaves the pristine map, which every lane shares through one
//! `Arc` — no trial copies the map. The incremental and rebuild lineages
//! repair independently, so [`check_churn_digests`] still compares two
//! separately repaired maps at every epoch.
//!
//! # Determinism
//!
//! The campaign is a pure function of `(master seed, schedule, config)`:
//! trial `i` of every cell is seeded with `seed_for(cfg.seed, i)`, each
//! trial folds its full per-round state (session rounds, regime state,
//! live-node sets — see [`fttt::replay`]) into a [`TrialStat::digest`],
//! and the trial digests fold into a campaign [`campaign_checksum`]. The
//! per-trial records are also the unit of distribution: a shard runs the
//! trial subset `i % shards == shard_id` of every cell, writes its
//! [`TrialStat`]s to disk ([`shard_document`]), and the coordinator
//! merges them back ([`parse_shard_json`]) — aggregation always walks the
//! per-trial stats in `(cell, trial)` order, so single-process and merged
//! sharded runs produce bit-identical rows and checksums.

use std::sync::Arc;

use fttt::config::PaperParams;
use fttt::facemap::{FaceMap, RepairMode};
use fttt::replay::{digest_face_map, digest_hex, digest_world, parse_digest_hex, Digest};
use fttt::session::{SessionOptions, SessionRun, TrackStatus, TrackingSession};
use fttt::tracker::{Tracker, TrackerOptions};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wsn_mobility::Trace;
use wsn_network::{GroupSampler, RegimeEngine, Schedule, SensorField};
use wsn_parallel::{chunk_len, par_map_threads, recommended_threads, seed_for};
use wsn_telemetry as telemetry;
use wsn_telemetry::json::JsonValue;

use crate::gate;

/// Campaign workload parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// Master seed; every trial derives deterministically from it.
    pub seed: u64,
    /// Monte-Carlo trials per campaign cell.
    pub trials: usize,
    /// Trace duration per trial, seconds.
    pub duration: f64,
    /// Deployed node count.
    pub nodes: usize,
}

impl CampaignConfig {
    /// The full campaign workload.
    pub fn full(seed: u64) -> Self {
        Self {
            seed,
            trials: 6,
            duration: 40.0,
            nodes: 10,
        }
    }

    /// A reduced smoke workload (seeded, a few seconds of wall clock) for
    /// tier-1 CI.
    pub fn fast(seed: u64) -> Self {
        Self {
            seed,
            trials: 3,
            duration: 20.0,
            nodes: 8,
        }
    }
}

/// The node-failure rates of the sweep family (the paper's fault axis).
pub const SWEEP_RATES: [f64; 4] = [0.0, 0.1, 0.3, 0.5];

/// Regime label of the sweep family rows.
pub const SWEEP_REGIME: &str = "node-failure";

/// Regime label of the blackout showcase (the Lost→Tracking regression
/// anchor).
pub const BLACKOUT_REGIME: &str = "blackout";

/// The churn campaign's schedule: a staggered death storm (nodes 1, 3, 5
/// die at t = 4, 6, 8) whose casualties all come back 6 s later — both
/// repair directions (retire *and* re-rasterize) exercised inside even
/// the fast config's 20 s trace.
pub const CHURN_SCHEDULE: &str = "churn nodes=1,3,5 from=4 every=2 dead_for=6";

/// How a churn-campaign cell maintains its face map while nodes die and
/// return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnPolicy {
    /// Never repair: sessions keep matching against the stale pristine
    /// map (dead nodes still silenced by the regime). The
    /// fault-oblivious control.
    Stale,
    /// Incremental repair per event ([`RepairMode::Incremental`]).
    Incremental,
    /// Full rebuild per event ([`RepairMode::Rebuild`]) — the reference
    /// trajectory the incremental path must digest-match.
    Rebuild,
}

impl ChurnPolicy {
    /// How the policy repairs its map, `None` for [`ChurnPolicy::Stale`].
    fn repair_mode(self) -> Option<RepairMode> {
        match self {
            ChurnPolicy::Stale => None,
            ChurnPolicy::Incremental => Some(RepairMode::Incremental),
            ChurnPolicy::Rebuild => Some(RepairMode::Rebuild),
        }
    }
}

/// The churn policies in campaign order, with their regime labels.
pub const CHURN_POLICIES: [(&str, ChurnPolicy); 3] = [
    ("churn-stale", ChurnPolicy::Stale),
    ("churn-incremental", ChurnPolicy::Incremental),
    ("churn-rebuild", ChurnPolicy::Rebuild),
];

/// Resolves a churn regime label back to its policy (`None` for
/// non-churn cells).
pub fn churn_policy_of(regime: &str) -> Option<ChurnPolicy> {
    CHURN_POLICIES
        .iter()
        .find(|(label, _)| *label == regime)
        .map(|&(_, policy)| policy)
}

/// The showcase regimes: `(label, schedule text)`. Windows are placed
/// inside even the fast config's 20 s trace.
pub fn showcase_regimes() -> Vec<(&'static str, &'static str)> {
    vec![
        ("burst", "burst enter=0.15 exit=0.35 loss_bad=0.95"),
        (BLACKOUT_REGIME, "outage from=8 until=14"),
        ("energy", "energy battery=0.003"),
        ("stuck", "stuck nodes=0,1 from=5"),
        ("drift", "drift nodes=2 from=5 rate=0.5"),
    ]
}

/// One campaign cell: a (regime, method) pair aggregated over trials.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRow {
    /// Regime label (`node-failure` for the sweep family).
    pub regime: String,
    /// Method label.
    pub method: &'static str,
    /// Node-failure rate for sweep rows, `None` for showcase rows.
    pub fault_rate: Option<f64>,
    /// Mean over trials of the per-trial mean error, metres.
    pub mean_error: f64,
    /// Largest per-trial mean error (worst world).
    pub worst_error: f64,
    /// Mean fraction of rounds spent [`TrackStatus::Lost`].
    pub lost_fraction: f64,
    /// Mean fraction of rounds spent [`TrackStatus::Degraded`].
    pub degraded_fraction: f64,
    /// Trials that entered [`TrackStatus::Lost`] at least once.
    pub trials_lost: usize,
    /// Among `trials_lost`, the fraction that returned to
    /// [`TrackStatus::Tracking`] afterwards (1.0 when none were lost).
    pub recovery_rate: f64,
    /// Mean sampling times `k` per round (adaptive escalation cost).
    pub mean_samples: f64,
}

/// The two session-wrapped trackers under test.
const METHODS: [(&str, bool); 2] = [("FTTT-basic", false), ("FTTT-ext", true)];

/// Resolves a method label back to its `(label, extended)` pair — the
/// shard-file parser needs the `&'static str` identity.
fn method_by_label(label: &str) -> Option<(&'static str, bool)> {
    METHODS.iter().copied().find(|(name, _)| *name == label)
}

/// What a campaign runs: the built-in sweep + showcases, or one
/// user-provided schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignKind {
    /// The node-failure sweep, every showcase regime, and the churn
    /// family.
    Builtin,
    /// Both methods against one schedule (the CLI `--schedule` path).
    Custom {
        /// Row label.
        label: String,
        /// The schedule text (embedded in the journal header so a replay
        /// can re-run without the original file).
        schedule: String,
    },
    /// The live-topology-churn family: [`CHURN_SCHEDULE`] under every
    /// [`ChurnPolicy`], both methods.
    Churn,
}

/// The label a campaign kind carries in journal headers and the golden
/// checksum baseline.
pub fn campaign_kind_label(kind: &CampaignKind) -> &'static str {
    match kind {
        CampaignKind::Builtin => "builtin",
        CampaignKind::Custom { .. } => "custom",
        CampaignKind::Churn => "churn",
    }
}

/// One campaign cell's static identity, in deterministic campaign order.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Index in campaign order (row order of the artifact).
    pub index: usize,
    /// Regime label.
    pub regime: String,
    /// Method label.
    pub method: &'static str,
    /// Extended sampling vectors?
    pub extended: bool,
    /// Node-failure rate for sweep cells.
    pub fault_rate: Option<f64>,
    /// The cell's schedule, as parseable text.
    pub schedule_text: String,
}

/// The cells a campaign kind expands to, in deterministic order.
///
/// # Panics
///
/// Panics if a custom schedule fails to parse (callers validate first) or
/// a built-in one does (a bug in this module).
pub fn campaign_cells(kind: &CampaignKind) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    match kind {
        CampaignKind::Builtin => {
            for (method, extended) in METHODS {
                for rate in SWEEP_RATES {
                    cells.push(CellSpec {
                        index: cells.len(),
                        regime: SWEEP_REGIME.to_string(),
                        method,
                        extended,
                        fault_rate: Some(rate),
                        schedule_text: format!("static node_failure={rate}"),
                    });
                }
            }
            for (label, text) in showcase_regimes() {
                for (method, extended) in METHODS {
                    cells.push(CellSpec {
                        index: cells.len(),
                        regime: label.to_string(),
                        method,
                        extended,
                        fault_rate: None,
                        schedule_text: text.to_string(),
                    });
                }
            }
            cells.extend(churn_cells(cells.len()));
        }
        CampaignKind::Custom { label, schedule } => {
            Schedule::parse(schedule).expect("custom schedule must have been validated");
            for (method, extended) in METHODS {
                cells.push(CellSpec {
                    index: cells.len(),
                    regime: label.clone(),
                    method,
                    extended,
                    fault_rate: None,
                    schedule_text: schedule.clone(),
                });
            }
        }
        CampaignKind::Churn => cells.extend(churn_cells(0)),
    }
    cells
}

/// The churn family's cells (every policy × every method), starting at
/// `base` in campaign order. The builtin campaign appends these after
/// the showcases; [`CampaignKind::Churn`] runs exactly these.
fn churn_cells(base: usize) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for (label, _) in CHURN_POLICIES {
        for (method, extended) in METHODS {
            cells.push(CellSpec {
                index: base + cells.len(),
                regime: label.to_string(),
                method,
                extended,
                fault_rate: None,
                schedule_text: CHURN_SCHEDULE.to_string(),
            });
        }
    }
    cells
}

/// One completed trial: the unit the sharded runner ships between
/// processes and the unit aggregation/checksumming walk. Everything a
/// [`CampaignRow`] needs survives a JSON round-trip exactly — floats are
/// written with shortest-round-trip formatting, digests as hex strings.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialStat {
    /// Cell index into [`campaign_cells`] order.
    pub cell: usize,
    /// Trial index within the cell.
    pub trial: u64,
    /// The trial's derived RNG seed (`seed_for(cfg.seed, trial)`).
    pub seed: u64,
    /// Stable session id (deterministic across processes and threads).
    pub session: u64,
    /// Mean geographic error over the trial's rounds, metres.
    pub mean_error: f64,
    /// Rounds in the trial.
    pub rounds: u64,
    /// Rounds that ended [`TrackStatus::Lost`].
    pub lost_rounds: u64,
    /// Rounds that ended [`TrackStatus::Degraded`].
    pub degraded_rounds: u64,
    /// The session declared Lost and later returned to Tracking.
    pub recovered: bool,
    /// Total sampling times spent across the trial.
    pub total_samples: u64,
    /// The trial's replay digest (seed + per-round session state + regime
    /// state + live-node sets + ground-truth errors).
    pub digest: u64,
}

fn campaign_params(cfg: &CampaignConfig) -> PaperParams {
    PaperParams::default()
        .with_nodes(cfg.nodes)
        .with_cell_size(2.0)
}

/// The campaign's immutable context: config, deployment, the cells with
/// their parsed schedules, and the pristine face map. The map is built
/// once per campaign and shared through one `Arc` — the build is
/// deterministic, so this is purely a time and memory saver. No trial
/// copies it: a repairing [lineage](run_lanes) builds each epoch beside
/// the last and shares it among its lanes the same way.
struct TrialEnv<'a> {
    cfg: &'a CampaignConfig,
    params: &'a PaperParams,
    field: &'a SensorField,
    map: &'a Arc<FaceMap>,
    cells: &'a [CellSpec],
    schedules: &'a [Schedule],
}

/// Builds the campaign context for `kind` and hands it to `f`.
///
/// # Panics
///
/// Panics if a cell's schedule fails to parse.
fn with_env<R>(cfg: &CampaignConfig, kind: &CampaignKind, f: impl FnOnce(&TrialEnv) -> R) -> R {
    let params = campaign_params(cfg);
    let field = params.grid_field();
    let map = Arc::new(params.face_map(&field));
    let cells = campaign_cells(kind);
    let schedules: Vec<Schedule> = cells
        .iter()
        .map(|c| Schedule::parse(&c.schedule_text).expect("cell schedule is valid"))
        .collect();
    f(&TrialEnv {
        cfg,
        params: &params,
        field: &field,
        map: &map,
        cells: &cells,
        schedules: &schedules,
    })
}

/// One trial, run as a lane of [`run_lanes`]: a stable-id session over
/// the lineage's map, its own RNG stream, trace and regime engine, and
/// the world digest its rounds and adopted repairs fold into.
struct Lane<'a> {
    cell: &'a CellSpec,
    trial: u64,
    seed: u64,
    rng: ChaCha8Rng,
    trace: Trace,
    session: TrackingSession,
    engine: RegimeEngine,
    world: Digest,
    run: SessionRun,
}

impl<'a> Lane<'a> {
    fn new(env: &TrialEnv<'a>, cell: usize, trial: u64) -> Self {
        let cell = &env.cells[cell];
        let params = env.params;
        let seed = seed_for(env.cfg.seed, trial);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Grid deployment: the campaign compares fault regimes, so the
        // geometry is held fixed and only noise/faults vary per trial.
        let trace = params.random_trace(env.cfg.duration, &mut rng);
        let options = TrackerOptions {
            extended: cell.extended,
            ..TrackerOptions::heuristic()
        };
        let session_options =
            SessionOptions::new(params.samples_k).with_max_speed(params.max_speed);
        // The epoch folded into the id is the map's at session start —
        // always the pristine build here, but a harness that re-runs a
        // trial against an already-churned map keys differently.
        let session_id = fttt::replay::stable_session_id(
            &cell.regime,
            cell.method,
            cell.fault_rate,
            trial,
            env.map.epoch(),
        );
        let session = TrackingSession::new(
            Tracker::shared(Arc::clone(env.map), options),
            session_options,
        )
        .with_session_id(session_id);
        Self {
            cell,
            trial,
            seed,
            rng,
            run: SessionRun {
                rounds: Vec::with_capacity(trace.len()),
                errors: Vec::with_capacity(trace.len()),
            },
            trace,
            session,
            engine: env.schedules[cell.index].engine(env.field.len()),
            world: Digest::new(),
        }
    }

    /// Samples and steps round `r`, folding the delivered grouping and
    /// the regime state into the world digest.
    fn step(&mut self, field: &SensorField, base: &GroupSampler, r: usize) {
        let p = self.trace.points()[r];
        let sampler = GroupSampler {
            samples: self.session.requested_samples(),
            ..base.clone()
        };
        let mut g = sampler.sample(field, p.pos, &mut self.rng);
        self.engine.apply(p.t, &mut g, &mut self.rng);
        digest_world(&mut self.world, &self.engine, &g);
        let round = self.session.step(p.t, &g);
        self.run.errors.push(round.estimate.distance(p.pos));
        self.run.rounds.push(round);
    }

    /// The finished trial's record (journaled as `fttt.campaign.trial`).
    fn finish(self) -> TrialStat {
        let session = self.session.session_id();
        let stat = trial_stat_of(
            self.cell, self.trial, self.seed, session, self.world, &self.run,
        );
        journal_trial(self.cell, &stat);
        stat
    }
}

/// Runs `lanes` — `(cell, trial)` pairs — in lockstep over their shared
/// round grid against one face-map *lineage*, returning one
/// [`TrialStat`] per lane in input order.
///
/// With a `mode`, the lineage follows the churn schedule its lanes share:
/// before the round at time `t`, each churn event since the previous
/// round is repaired **once** ([`FaceMap::repaired`] builds the next
/// epoch beside the current one, which the lanes still hold, without
/// copying it) and digested once, and every lane adopts the result
/// ([`TrackingSession::adopt_churn`]) and folds the new epoch and map
/// digest into its world digest. That is exactly what a private
/// [`TrackingSession::apply_churn`] per lane would do, since the repair
/// is deterministic. Without a mode (stale and non-churn lanes) the
/// lineage never leaves the pristine map: the regime still silences dead
/// columns, but the map and the digest never move.
fn run_lanes(
    env: &TrialEnv<'_>,
    mode: Option<RepairMode>,
    lanes: &[(usize, u64)],
) -> Vec<TrialStat> {
    let mut lanes: Vec<Lane<'_>> = lanes
        .iter()
        .map(|&(cell, trial)| Lane::new(env, cell, trial))
        .collect();
    let rounds = lanes.first().map_or(0, |l| l.trace.len());
    assert!(
        lanes.iter().all(|l| l.trace.len() == rounds),
        "lanes must share one round grid"
    );
    // Churn events are a pure function of the schedule, which all lanes
    // of a repairing lineage share.
    debug_assert!(
        mode.is_none()
            || lanes
                .iter()
                .all(|l| l.cell.schedule_text == lanes[0].cell.schedule_text)
    );
    let base = env.params.sampler();
    let mut map = Arc::clone(env.map);
    let mut prev_t = None;
    for r in 0..rounds {
        let t = lanes[0].trace.points()[r].t;
        if let Some(mode) = mode {
            let events = lanes[0].engine.churn_events_between(prev_t, t);
            prev_t = Some(t);
            for e in events {
                let previous = Arc::downgrade(&map);
                let (next, report) = map.repaired(e.node, e.death, mode);
                map = Arc::new(next);
                let digest = digest_face_map(&map);
                for lane in &mut lanes {
                    lane.session.adopt_churn(t, Arc::clone(&map), &report);
                    lane.world.write_u64(report.epoch);
                    lane.world.write_u64(digest);
                }
                // At most one repaired map per lineage stays resident:
                // once every lane holds the new epoch, the previous one
                // is freed (unless it is the campaign's pristine map).
                debug_assert!(
                    previous.strong_count() == 0 || previous.as_ptr() == Arc::as_ptr(env.map)
                );
            }
        }
        for lane in &mut lanes {
            debug_assert_eq!(lane.trace.points()[r].t, t, "lanes out of lockstep");
            lane.step(env.field, &base, r);
        }
    }
    lanes.into_iter().map(Lane::finish).collect()
}

/// One job of the campaign's parallel map: the lanes of one lineage.
struct Job {
    mode: Option<RepairMode>,
    lanes: Vec<(usize, u64)>,
}

/// The campaign's jobs for the trial subset `trials` of every cell: one
/// lineage job per repairing [`ChurnPolicy`] holding all of its lanes
/// (both methods), and one single-lane job per other trial.
///
/// The lineage jobs are the heavy ones, so they go first — the longest
/// jobs bound the makespan — and a chunk apart, a chunk being
/// [`chunk_len`] jobs, what a worker of [`par_map_threads`] over
/// `threads` claims at once, so no worker claims two of them together.
fn campaign_jobs(cells: &[CellSpec], trials: &[u64], threads: usize) -> Vec<Job> {
    let mode_of = |c: &CellSpec| churn_policy_of(&c.regime).and_then(ChurnPolicy::repair_mode);
    let lineages: Vec<Job> = [RepairMode::Incremental, RepairMode::Rebuild]
        .into_iter()
        .map(|mode| Job {
            mode: Some(mode),
            lanes: cells
                .iter()
                .filter(|c| mode_of(c) == Some(mode))
                .flat_map(|c| trials.iter().map(|&t| (c.index, t)))
                .collect(),
        })
        .filter(|job| !job.lanes.is_empty())
        .collect();
    let singles: Vec<Job> = cells
        .iter()
        .filter(|c| mode_of(c).is_none())
        .flat_map(|c| {
            trials.iter().map(|&t| Job {
                mode: None,
                lanes: vec![(c.index, t)],
            })
        })
        .collect();
    let total = lineages.len() + singles.len();
    let chunk = chunk_len(threads, total);
    let mut singles = singles.into_iter();
    let mut jobs = Vec::with_capacity(total);
    for lineage in lineages {
        jobs.push(lineage);
        jobs.extend(singles.by_ref().take(chunk - 1));
    }
    jobs.extend(singles);
    jobs
}

/// A finished trial's record. Its replay digest folds the seed, the
/// world digest (per-round groupings and regime state, plus the epoch and
/// [`digest_face_map`] of every map the trial adopted), then the run.
fn trial_stat_of(
    cell: &CellSpec,
    trial: u64,
    seed: u64,
    session: u64,
    world: Digest,
    run: &SessionRun,
) -> TrialStat {
    let mut digest = Digest::new();
    digest.write_u64(seed);
    digest.write_digest(world);
    fttt::replay::digest_run(&mut digest, run);
    TrialStat {
        cell: cell.index,
        trial,
        seed,
        session,
        mean_error: run.error_stats().mean,
        rounds: run.rounds.len() as u64,
        lost_rounds: run.rounds_in(TrackStatus::Lost) as u64,
        degraded_rounds: run.rounds_in(TrackStatus::Degraded) as u64,
        recovered: run.recovered_from_lost(),
        total_samples: run.total_samples() as u64,
        digest: digest.value(),
    }
}

/// The outcome of running (a shard of) a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignStats {
    /// The campaign's cells, in order.
    pub cells: Vec<CellSpec>,
    /// Per-trial records, sorted by `(cell, trial)`. A shard holds only
    /// its trial subset.
    pub stats: Vec<TrialStat>,
    /// Digest of the (shared, deterministic) face map.
    pub map_digest: u64,
}

/// Runs the trials of every cell whose index satisfies
/// `trial % shards == shard_id` — `shards = 1, shard_id = 0` is the full
/// single-process campaign. Emits the campaign header and one per-trial
/// event into the trace journal when one is installed.
///
/// # Panics
///
/// Panics if `cfg.trials == 0`, `shard_id >= shards`, or a schedule fails
/// to parse.
pub fn run_campaign_stats(
    cfg: &CampaignConfig,
    kind: &CampaignKind,
    shards: usize,
    shard_id: usize,
) -> CampaignStats {
    assert!(cfg.trials > 0, "need at least one trial");
    assert!(
        shards > 0 && shard_id < shards,
        "shard {shard_id}/{shards} out of range"
    );
    with_env(cfg, kind, |env| {
        let map_digest = digest_face_map(env.map);
        journal_header(cfg, kind, env.cells, map_digest);
        let trials: Vec<u64> = (0..cfg.trials as u64)
            .filter(|i| *i as usize % shards == shard_id)
            .collect();
        let threads = recommended_threads();
        let jobs = campaign_jobs(env.cells, &trials, threads);
        let mut stats: Vec<TrialStat> = par_map_threads(threads, &jobs, |_, job| {
            run_lanes(env, job.mode, &job.lanes)
        })
        .into_iter()
        .flatten()
        .collect();
        stats.sort_by_key(|s| (s.cell, s.trial));
        CampaignStats {
            cells: env.cells.to_vec(),
            stats,
            map_digest,
        }
    })
}

/// Emits the `fttt.campaign.header` journal event: everything a replay
/// needs to re-run the campaign (config, kind, schedule text, map digest).
fn journal_header(cfg: &CampaignConfig, kind: &CampaignKind, cells: &[CellSpec], map_digest: u64) {
    if !telemetry::journal_enabled() {
        return;
    }
    use telemetry::ArgValue;
    // Full-range u64s travel as hex strings everywhere they are
    // serialized: JSON numbers are f64, exact only below 2^53, and both
    // the master seed and the derived trial seeds use all 64 bits.
    let mut args = vec![
        ("seed", ArgValue::Str(digest_hex(cfg.seed))),
        ("trials", ArgValue::U64(cfg.trials as u64)),
        ("duration_s", ArgValue::F64(cfg.duration)),
        ("nodes", ArgValue::U64(cfg.nodes as u64)),
        ("cells", ArgValue::U64(cells.len() as u64)),
        ("map_digest", ArgValue::Str(digest_hex(map_digest))),
    ];
    // "campaign_kind", not "kind": the JSONL event root already carries a
    // "kind" (the trace-event kind tag) and the replay parser reads both
    // layers.
    args.push((
        "campaign_kind",
        ArgValue::Str(campaign_kind_label(kind).into()),
    ));
    if let CampaignKind::Custom { label, schedule } = kind {
        args.push(("label", ArgValue::Str(label.clone())));
        args.push(("schedule", ArgValue::Str(schedule.clone())));
    }
    telemetry::trace_instant("fttt.campaign.header", args);
}

/// Emits one `fttt.campaign.trial` journal event mapping the trial's
/// stable session id to its cell identity and replay digest.
fn journal_trial(cell: &CellSpec, stat: &TrialStat) {
    if !telemetry::journal_enabled() {
        return;
    }
    use telemetry::ArgValue;
    let mut args = vec![
        ("session", ArgValue::U64(stat.session)),
        ("cell", ArgValue::U64(stat.cell as u64)),
        ("regime", ArgValue::Str(cell.regime.clone())),
        ("method", ArgValue::Str(cell.method.into())),
        ("trial", ArgValue::U64(stat.trial)),
        ("seed", ArgValue::Str(digest_hex(stat.seed))),
        ("rounds", ArgValue::U64(stat.rounds)),
        ("digest", ArgValue::Str(digest_hex(stat.digest))),
    ];
    if let Some(rate) = cell.fault_rate {
        args.push(("fault_rate", ArgValue::F64(rate)));
    }
    telemetry::trace_instant("fttt.campaign.trial", args);
}

/// Aggregates per-trial stats into campaign rows.
///
/// Walks the stats in `(cell, trial)` order — sorting first — so the
/// floating-point reduction order is identical no matter how the stats
/// were produced (one process, merged shards, any thread count).
///
/// # Panics
///
/// Panics if any cell is missing trials (an incomplete shard set must not
/// silently aggregate into wrong rows).
pub fn rows_from_stats(
    cfg: &CampaignConfig,
    cells: &[CellSpec],
    stats: &[TrialStat],
) -> Vec<CampaignRow> {
    let mut stats: Vec<&TrialStat> = stats.iter().collect();
    stats.sort_by_key(|s| (s.cell, s.trial));
    let mut rows = Vec::with_capacity(cells.len());
    for cell in cells {
        let cell_stats: Vec<&&TrialStat> = stats.iter().filter(|s| s.cell == cell.index).collect();
        assert_eq!(
            cell_stats.len(),
            cfg.trials,
            "cell {} ({}/{}) has {} trials, campaign wants {} — merged an incomplete shard set?",
            cell.index,
            cell.regime,
            cell.method,
            cell_stats.len(),
            cfg.trials
        );
        let n = cell_stats.len() as f64;
        let lost: Vec<&&&TrialStat> = cell_stats.iter().filter(|s| s.lost_rounds > 0).collect();
        let recovery_rate = if lost.is_empty() {
            1.0
        } else {
            lost.iter().filter(|s| s.recovered).count() as f64 / lost.len() as f64
        };
        rows.push(CampaignRow {
            regime: cell.regime.clone(),
            method: cell.method,
            fault_rate: cell.fault_rate,
            mean_error: cell_stats.iter().map(|s| s.mean_error).sum::<f64>() / n,
            worst_error: cell_stats
                .iter()
                .map(|s| s.mean_error)
                .fold(f64::NEG_INFINITY, f64::max),
            lost_fraction: cell_stats
                .iter()
                .map(|s| s.lost_rounds as f64 / s.rounds as f64)
                .sum::<f64>()
                / n,
            degraded_fraction: cell_stats
                .iter()
                .map(|s| s.degraded_rounds as f64 / s.rounds as f64)
                .sum::<f64>()
                / n,
            trials_lost: lost.len(),
            recovery_rate,
            mean_samples: cell_stats
                .iter()
                .map(|s| s.total_samples as f64 / s.rounds as f64)
                .sum::<f64>()
                / n,
        });
    }
    rows
}

/// The campaign checksum: a pure function of `(config, cells, map, every
/// trial digest)` folded in canonical `(cell, trial)` order. Wall-clock
/// quantities (durations, timestamps, telemetry histograms) are *not*
/// folded — the checksum pins the simulation, not the machine.
pub fn campaign_checksum(
    cfg: &CampaignConfig,
    cells: &[CellSpec],
    map_digest: u64,
    stats: &[TrialStat],
) -> u64 {
    let mut d = Digest::new();
    d.write_u64(cfg.seed);
    d.write_u64(cfg.trials as u64);
    d.write_f64(cfg.duration);
    d.write_u64(cfg.nodes as u64);
    d.write_u64(map_digest);
    d.write_u64(cells.len() as u64);
    for cell in cells {
        d.write_str(&cell.regime);
        d.write_str(cell.method);
        d.write_bool(cell.fault_rate.is_some());
        d.write_f64(cell.fault_rate.unwrap_or(0.0));
        d.write_str(&cell.schedule_text);
    }
    let mut ordered: Vec<&TrialStat> = stats.iter().collect();
    ordered.sort_by_key(|s| (s.cell, s.trial));
    d.write_u64(ordered.len() as u64);
    for s in ordered {
        d.write_u64(s.cell as u64);
        d.write_u64(s.trial);
        d.write_u64(s.digest);
    }
    d.value()
}

/// Runs the whole campaign: the node-failure sweep then the showcase
/// regimes, for both methods, in deterministic row order.
///
/// # Panics
///
/// Panics if `cfg.trials == 0` or a built-in schedule fails to parse
/// (which would be a bug in this module).
pub fn run_campaign(cfg: &CampaignConfig) -> Vec<CampaignRow> {
    let cs = run_campaign_stats(cfg, &CampaignKind::Builtin, 1, 0);
    rows_from_stats(cfg, &cs.cells, &cs.stats)
}

/// Runs both session-wrapped methods against one user-provided schedule
/// (the CLI `campaign --schedule` path). Row order follows the method
/// order.
///
/// # Panics
///
/// Panics if `cfg.trials == 0` or `schedule_text` does not parse (the CLI
/// validates it first).
pub fn run_custom_schedule(
    cfg: &CampaignConfig,
    label: &str,
    schedule_text: &str,
) -> Vec<CampaignRow> {
    let kind = CampaignKind::Custom {
        label: label.to_string(),
        schedule: schedule_text.to_string(),
    };
    let cs = run_campaign_stats(cfg, &kind, 1, 0);
    rows_from_stats(cfg, &cs.cells, &cs.stats)
}

/// The churn family's strongest invariant, checked over the *per-trial*
/// stats: the `churn-incremental` and `churn-rebuild` cells of the same
/// method must have produced bit-identical trial digests — the
/// incrementally repaired map walked the exact trajectory the
/// rebuild-per-event reference did, round for round, epoch for epoch.
/// Returns one message per mismatch; empty for campaigns without churn
/// cells.
pub fn check_churn_digests(cells: &[CellSpec], stats: &[TrialStat]) -> Vec<String> {
    let mut violations = Vec::new();
    for (method, _) in METHODS {
        let cell_of = |policy_label: &str| {
            cells
                .iter()
                .find(|c| c.regime == policy_label && c.method == method)
        };
        let (Some(inc), Some(reb)) = (cell_of("churn-incremental"), cell_of("churn-rebuild"))
        else {
            continue;
        };
        let digest_of = |cell: usize, trial: u64| {
            stats
                .iter()
                .find(|s| s.cell == cell && s.trial == trial)
                .map(|s| s.digest)
        };
        let trials: Vec<u64> = stats
            .iter()
            .filter(|s| s.cell == inc.index)
            .map(|s| s.trial)
            .collect();
        for trial in trials {
            match (digest_of(inc.index, trial), digest_of(reb.index, trial)) {
                (Some(a), Some(b)) if a != b => violations.push(format!(
                    "{method} churn trial {trial}: incremental digest {} != rebuild digest {} — \
                     incremental repair left the rebuild-per-event trajectory",
                    digest_hex(a),
                    digest_hex(b)
                )),
                _ => {}
            }
        }
    }
    violations
}

/// Checks the graceful-degradation envelopes; returns one message per
/// violation (empty = campaign passes).
///
/// * every cell's error is finite and positive;
/// * no cell degrades past a blind field-centre guess
///   (`0.55 × field_side`);
/// * per method, sweep means stay inside the envelope anchored at the
///   fault-free mean: `mean(rate) ≤ 3 × mean(0) + 12 m`;
/// * the blackout showcase actually drives sessions Lost, and a majority
///   of those sessions recover to Tracking.
pub fn check_envelopes(rows: &[CampaignRow], field_side: f64) -> Vec<String> {
    let mut violations = Vec::new();
    let blind_guess = 0.55 * field_side;
    for r in rows {
        if !r.mean_error.is_finite() || r.mean_error <= 0.0 {
            violations.push(format!(
                "{}/{}: mean error {} is not finite-positive",
                r.regime, r.method, r.mean_error
            ));
        } else if r.mean_error > blind_guess {
            violations.push(format!(
                "{}/{}: mean error {:.1} m exceeds the blind-guess scale {:.1} m",
                r.regime, r.method, r.mean_error, blind_guess
            ));
        }
    }
    for (label, _) in METHODS {
        let sweep: Vec<&CampaignRow> = rows
            .iter()
            .filter(|r| r.regime == SWEEP_REGIME && r.method == label)
            .collect();
        // No sweep rows at all: a custom or churn campaign — nothing to
        // anchor. A *partial* sweep (rows but no rate-0 anchor) is still
        // an error.
        if sweep.is_empty() {
            continue;
        }
        let Some(baseline) = sweep.iter().find(|r| r.fault_rate == Some(0.0)) else {
            violations.push(format!("{label}: sweep has no fault-free baseline row"));
            continue;
        };
        for r in &sweep {
            let bound = 3.0 * baseline.mean_error + 12.0;
            if r.mean_error > bound {
                violations.push(format!(
                    "{label}: rate {:?} mean {:.1} m breaks the envelope {:.1} m \
                     (3 × fault-free {:.1} m + 12 m)",
                    r.fault_rate, r.mean_error, bound, baseline.mean_error
                ));
            }
        }
    }
    for r in rows.iter().filter(|r| r.regime == BLACKOUT_REGIME) {
        if r.trials_lost == 0 {
            violations.push(format!(
                "{}/{}: no trial entered Lost during a total blackout",
                r.regime, r.method
            ));
        } else if r.recovery_rate < 0.5 {
            violations.push(format!(
                "{}/{}: only {:.0}% of lost sessions recovered after the blackout",
                r.regime,
                r.method,
                100.0 * r.recovery_rate
            ));
        }
    }
    violations
}

/// The field side the campaign runs on (for envelope scaling).
pub fn campaign_field_side(cfg: &CampaignConfig) -> f64 {
    campaign_params(cfg).field_side
}

/// The `BENCH_robustness.json` document: per cell, one `campaign` row
/// for each aggregate at shape `regime=…,method=…` (plus `,rate=…` on the
/// node-failure sweep), and the campaign checksum as a `checksum` row at
/// the [`crate::replay::checksum_key`] shape — the same row the
/// golden-checksum baseline holds. The telemetry snapshot rides along
/// under `"metrics"`.
///
/// Floats keep every bit through [`JsonValue::to_pretty`], so the replay
/// diff and the sharded merge see the values the run computed; the
/// checksum is a hex *string*, since JSON numbers are f64 and lose
/// integer precision above 2⁵³.
pub fn artifact(
    rows: &[CampaignRow],
    cfg: &CampaignConfig,
    kind: &CampaignKind,
    checksum: u64,
    violations: &[String],
    metrics: &wsn_telemetry::Snapshot,
) -> JsonValue {
    let config = JsonValue::object([
        ("seed", digest_hex(cfg.seed).into()),
        ("trials", cfg.trials.into()),
        ("duration_s", cfg.duration.into()),
        ("nodes", cfg.nodes.into()),
        ("field_side_m", campaign_field_side(cfg).into()),
        (
            "sweep_rates",
            SWEEP_RATES
                .iter()
                .map(|r| JsonValue::from(*r))
                .collect::<Vec<_>>()
                .into(),
        ),
        (
            "envelope",
            "mean(rate) <= 3*mean(0) + 12 m; all cells <= 0.55*field_side; \
             blackout must reach Lost and majority-recover"
                .into(),
        ),
    ]);
    let mut out = Vec::with_capacity(7 * rows.len() + 1);
    for r in rows {
        let mut shape = format!("regime={},method={}", r.regime, r.method);
        if let Some(rate) = r.fault_rate {
            shape.push_str(&format!(",rate={rate}"));
        }
        let mut push = |metric, unit, value: f64| {
            out.push(gate::row("campaign", &shape, metric, unit, value));
        };
        push("mean_error_m", "m", r.mean_error);
        push("worst_error_m", "m", r.worst_error);
        push("lost_fraction", "frac", r.lost_fraction);
        push("degraded_fraction", "frac", r.degraded_fraction);
        push("trials_lost", "count", r.trials_lost as f64);
        push("recovery_rate", "frac", r.recovery_rate);
        push("mean_samples", "count", r.mean_samples);
    }
    out.push(gate::row(
        "campaign",
        &crate::replay::checksum_key(cfg, campaign_kind_label(kind)),
        "checksum",
        "hex",
        digest_hex(checksum),
    ));
    gate::artifact(
        "fault_campaign",
        config,
        out,
        [
            ("violations", violations.len().into()),
            ("pass", violations.is_empty().into()),
            ("metrics", metrics.to_json_value()),
        ],
    )
}

/// One shard's output: config echo, shard coordinates, per-trial stats
/// and the shard's telemetry snapshot. The coordinator re-parses it with
/// [`parse_shard_json`] and merges. Full-range `u64`s (seeds, digests)
/// are hex strings; counts and the 48-bit session ids are exact numbers.
pub fn shard_document(
    cfg: &CampaignConfig,
    shards: usize,
    shard_id: usize,
    stats: &[TrialStat],
    map_digest: u64,
    metrics: &wsn_telemetry::Snapshot,
) -> JsonValue {
    let exact = |v: u64| JsonValue::Num(v as f64);
    let trials = stats
        .iter()
        .map(|s| {
            JsonValue::object([
                ("cell", s.cell.into()),
                ("trial", exact(s.trial)),
                ("seed", digest_hex(s.seed).into()),
                ("session", exact(s.session)),
                ("mean_error", s.mean_error.into()),
                ("rounds", exact(s.rounds)),
                ("lost_rounds", exact(s.lost_rounds)),
                ("degraded_rounds", exact(s.degraded_rounds)),
                ("recovered", s.recovered.into()),
                ("total_samples", exact(s.total_samples)),
                ("digest", digest_hex(s.digest).into()),
            ])
        })
        .collect::<Vec<_>>();
    JsonValue::object([
        ("bench", "fault_campaign_shard".into()),
        ("shard", shard_id.into()),
        ("shards", shards.into()),
        (
            "config",
            JsonValue::object([
                ("seed", digest_hex(cfg.seed).into()),
                ("trials", cfg.trials.into()),
                ("duration_s", cfg.duration.into()),
                ("nodes", cfg.nodes.into()),
            ]),
        ),
        ("map_digest", digest_hex(map_digest).into()),
        ("trials", trials.into()),
        ("metrics", metrics.to_json_value()),
    ])
}

/// A parsed shard file.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardFile {
    /// Which shard wrote it.
    pub shard: usize,
    /// Out of how many.
    pub shards: usize,
    /// The config the shard ran (must match the coordinator's).
    pub config: CampaignConfig,
    /// The shard's face-map digest (must match across shards).
    pub map_digest: u64,
    /// The shard's per-trial records.
    pub stats: Vec<TrialStat>,
    /// The shard's telemetry snapshot.
    pub metrics: wsn_telemetry::Snapshot,
}

fn field_u64(v: &JsonValue, key: &str, ctx: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("{ctx}: missing integral {key:?}"))
}

fn field_f64(v: &JsonValue, key: &str, ctx: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("{ctx}: missing numeric {key:?}"))
}

/// Parses a [`shard_document`] back.
pub fn parse_shard_json(text: &str) -> Result<ShardFile, String> {
    let doc = JsonValue::parse(text).map_err(|e| format!("shard file: {e}"))?;
    if doc.get("bench").and_then(JsonValue::as_str) != Some("fault_campaign_shard") {
        return Err("shard file: not a fault_campaign_shard document".into());
    }
    let cfg_doc = doc
        .get("config")
        .ok_or_else(|| "shard file: missing \"config\"".to_string())?;
    let config = CampaignConfig {
        seed: cfg_doc
            .get("seed")
            .and_then(JsonValue::as_str)
            .and_then(parse_digest_hex)
            .ok_or_else(|| "shard config: missing hex \"seed\"".to_string())?,
        trials: field_u64(cfg_doc, "trials", "shard config")? as usize,
        duration: field_f64(cfg_doc, "duration_s", "shard config")?,
        nodes: field_u64(cfg_doc, "nodes", "shard config")? as usize,
    };
    let map_digest = doc
        .get("map_digest")
        .and_then(JsonValue::as_str)
        .and_then(parse_digest_hex)
        .ok_or_else(|| "shard file: missing hex \"map_digest\"".to_string())?;
    let trials = doc
        .get("trials")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| "shard file: missing \"trials\" array".to_string())?;
    let mut stats = Vec::with_capacity(trials.len());
    for (i, t) in trials.iter().enumerate() {
        let ctx = format!("shard trial {i}");
        stats.push(TrialStat {
            cell: field_u64(t, "cell", &ctx)? as usize,
            trial: field_u64(t, "trial", &ctx)?,
            seed: t
                .get("seed")
                .and_then(JsonValue::as_str)
                .and_then(parse_digest_hex)
                .ok_or_else(|| format!("{ctx}: missing hex \"seed\""))?,
            session: field_u64(t, "session", &ctx)?,
            mean_error: field_f64(t, "mean_error", &ctx)?,
            rounds: field_u64(t, "rounds", &ctx)?,
            lost_rounds: field_u64(t, "lost_rounds", &ctx)?,
            degraded_rounds: field_u64(t, "degraded_rounds", &ctx)?,
            recovered: t
                .get("recovered")
                .and_then(JsonValue::as_bool)
                .ok_or_else(|| format!("{ctx}: missing boolean \"recovered\""))?,
            total_samples: field_u64(t, "total_samples", &ctx)?,
            digest: t
                .get("digest")
                .and_then(JsonValue::as_str)
                .and_then(parse_digest_hex)
                .ok_or_else(|| format!("{ctx}: missing hex \"digest\""))?,
        });
    }
    let metrics = doc
        .get("metrics")
        .ok_or_else(|| "shard file: missing \"metrics\"".to_string())
        .and_then(wsn_telemetry::Snapshot::from_json_value)?;
    Ok(ShardFile {
        shard: field_u64(&doc, "shard", "shard file")? as usize,
        shards: field_u64(&doc, "shards", "shard file")? as usize,
        config,
        map_digest,
        stats,
        metrics,
    })
}

/// Re-export: labels the shard-merge and replay paths use to resolve
/// methods.
pub fn method_labels() -> Vec<&'static str> {
    METHODS.iter().map(|(label, _)| *label).collect()
}

/// Looks up whether a method label runs extended vectors (shard/replay
/// parsers reject unknown labels).
pub fn method_extended(label: &str) -> Option<bool> {
    method_by_label(label).map(|(_, extended)| extended)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn showcase_schedules_all_parse() {
        for (label, text) in showcase_regimes() {
            assert!(Schedule::parse(text).is_ok(), "{label} schedule must parse");
        }
    }

    /// The per-trial reference the lineage runner must reproduce: one
    /// session per trial over a private copy of the map, every churn
    /// event repaired by that session's own
    /// [`TrackingSession::apply_churn`].
    fn reference_trial(env: &TrialEnv<'_>, cell: &CellSpec, trial: u64) -> TrialStat {
        let params = env.params;
        let seed = seed_for(env.cfg.seed, trial);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let trace = params.random_trace(env.cfg.duration, &mut rng);
        let options = TrackerOptions {
            extended: cell.extended,
            ..TrackerOptions::heuristic()
        };
        let session_id = fttt::replay::stable_session_id(
            &cell.regime,
            cell.method,
            cell.fault_rate,
            trial,
            env.map.epoch(),
        );
        let mut session = TrackingSession::new(
            Tracker::new(FaceMap::clone(env.map), options),
            SessionOptions::new(params.samples_k).with_max_speed(params.max_speed),
        )
        .with_session_id(session_id);
        let mode = churn_policy_of(&cell.regime).and_then(ChurnPolicy::repair_mode);
        // The sampling closure and the between-rounds churn closure never
        // run concurrently, so runtime borrows are safe.
        let engine = std::cell::RefCell::new(env.schedules[cell.index].engine(env.field.len()));
        let world = std::cell::RefCell::new(Digest::new());
        let base = params.sampler();
        let mut prev_t = None;
        let run = session.run_with(
            &trace,
            &mut rng,
            |k, pos, t, r| {
                let sampler = GroupSampler {
                    samples: k,
                    ..base.clone()
                };
                let mut g = sampler.sample(env.field, pos, r);
                let mut engine = engine.borrow_mut();
                engine.apply(t, &mut g, r);
                digest_world(&mut world.borrow_mut(), &engine, &g);
                g
            },
            |s, t| {
                let Some(mode) = mode else { return };
                let events = engine.borrow().churn_events_between(prev_t, t);
                prev_t = Some(t);
                for e in events {
                    let report = s.apply_churn(t, e.node, e.death, mode);
                    let mut w = world.borrow_mut();
                    w.write_u64(report.epoch);
                    w.write_u64(digest_face_map(s.tracker().map()));
                }
            },
        );
        trial_stat_of(cell, trial, seed, session_id, world.into_inner(), &run)
    }

    #[test]
    fn single_trial_cell_is_deterministic() {
        let kind = CampaignKind::Custom {
            label: "one".into(),
            schedule: "static node_failure=0.3".into(),
        };
        let run = |seed| {
            let cfg = CampaignConfig {
                seed,
                trials: 1,
                duration: 5.0,
                nodes: 8,
            };
            with_env(&cfg, &kind, |env| run_lanes(env, None, &[(0, 0)]))
        };
        let a = run(9);
        assert_eq!(a, run(9), "trial records and digests must agree");
        // A different seed must move the digest.
        assert_ne!(
            a[0].digest,
            run(10)[0].digest,
            "different seed, same digest — digest is blind"
        );
    }

    /// The lineage runner against the per-trial reference: every trial of
    /// the fast churn campaign — stale, incremental and rebuild, both
    /// methods — must give the same record, digest included, as a private
    /// session repairing its own map.
    #[test]
    fn lineage_runner_matches_per_trial_reference() {
        let cfg = CampaignConfig::fast(42);
        let cs = run_campaign_stats(&cfg, &CampaignKind::Churn, 1, 0);
        assert_eq!(cs.stats.len(), cs.cells.len() * cfg.trials);
        assert!(check_churn_digests(&cs.cells, &cs.stats).is_empty());
        with_env(&cfg, &CampaignKind::Churn, |env| {
            for stat in &cs.stats {
                let cell = &cs.cells[stat.cell];
                assert_eq!(
                    &reference_trial(env, cell, stat.trial),
                    stat,
                    "{}/{} trial {}",
                    cell.regime,
                    cell.method,
                    stat.trial
                );
            }
        });
    }

    /// Lineage jobs lead, one per chunk, and every trial lands in exactly
    /// one job.
    #[test]
    fn lineage_jobs_are_spread_one_per_chunk() {
        let cells = campaign_cells(&CampaignKind::Builtin);
        let trials: Vec<u64> = (0..6).collect();
        let jobs = campaign_jobs(&cells, &trials, 2);
        let chunk = chunk_len(2, jobs.len());
        assert!(chunk > 1, "the builtin campaign spans multi-job chunks");
        let heavy: Vec<usize> = (0..jobs.len())
            .filter(|&i| jobs[i].mode.is_some())
            .collect();
        assert_eq!(heavy, vec![0, chunk]);
        for &i in &heavy {
            assert_eq!(jobs[i].lanes.len(), 2 * trials.len(), "both methods");
        }
        let mut lanes: Vec<(usize, u64)> = jobs.iter().flat_map(|j| j.lanes.clone()).collect();
        lanes.sort_unstable();
        let all: Vec<(usize, u64)> = cells
            .iter()
            .flat_map(|c| trials.iter().map(move |&t| (c.index, t)))
            .collect();
        assert_eq!(lanes, all);
    }

    /// The sharding invariant, in miniature: running the trials of every
    /// cell split across 3 "shards" and merging must reproduce the
    /// single-process rows bit-for-bit and the same campaign checksum —
    /// for a static schedule and for the churn family, whose lineages
    /// each shard repairs on its own.
    #[test]
    fn sharded_stats_merge_to_identical_rows_and_checksum() {
        let mini = CampaignConfig {
            seed: 5,
            trials: 3,
            duration: 4.0,
            nodes: 8,
        };
        let custom = CampaignKind::Custom {
            label: "mini".into(),
            schedule: "static node_failure=0.2".into(),
        };
        // 20 s covers every death and revival of the churn schedule.
        let churn = CampaignConfig {
            duration: 20.0,
            ..mini
        };
        for (cfg, kind) in [(mini, custom), (churn, CampaignKind::Churn)] {
            let single = run_campaign_stats(&cfg, &kind, 1, 0);
            let mut merged: Vec<TrialStat> = Vec::new();
            let mut map_digests = Vec::new();
            for shard_id in 0..3 {
                let part = run_campaign_stats(&cfg, &kind, 3, shard_id);
                assert_eq!(part.cells, single.cells);
                map_digests.push(part.map_digest);
                merged.extend(part.stats);
            }
            assert!(map_digests.iter().all(|d| *d == single.map_digest));
            // Shards see disjoint trial subsets that union to the full set.
            assert_eq!(merged.len(), single.stats.len());

            let rows_single = rows_from_stats(&cfg, &single.cells, &single.stats);
            let rows_merged = rows_from_stats(&cfg, &single.cells, &merged);
            assert_eq!(rows_single, rows_merged);
            assert_eq!(
                campaign_checksum(&cfg, &single.cells, single.map_digest, &single.stats),
                campaign_checksum(&cfg, &single.cells, single.map_digest, &merged),
            );
        }
    }

    /// Shard files survive the disk round-trip exactly: stats (floats
    /// included) and metrics parse back equal.
    #[test]
    fn shard_json_round_trips_exactly() {
        let cfg = CampaignConfig {
            seed: 11,
            trials: 2,
            duration: 3.0,
            nodes: 8,
        };
        let kind = CampaignKind::Custom {
            label: "rt".into(),
            schedule: "burst enter=0.3 exit=0.3 loss_bad=0.9".into(),
        };
        let part = run_campaign_stats(&cfg, &kind, 2, 1);
        let registry = wsn_telemetry::Registry::new();
        registry.counter("wsn.regime.activations").add(3);
        registry.gauge("fttt.session.samples_k").set(0.1 + 0.2);
        let snap = registry.snapshot();
        let text = shard_document(&cfg, 2, 1, &part.stats, part.map_digest, &snap).to_pretty();
        let back = parse_shard_json(&text).unwrap();
        assert_eq!(back.shard, 1);
        assert_eq!(back.shards, 2);
        assert_eq!(back.config, cfg);
        assert_eq!(back.map_digest, part.map_digest);
        assert_eq!(back.stats, part.stats);
        assert_eq!(back.metrics, snap);
    }

    #[test]
    fn incomplete_merge_is_rejected_loudly() {
        let cfg = CampaignConfig {
            seed: 5,
            trials: 2,
            duration: 3.0,
            nodes: 8,
        };
        let kind = CampaignKind::Custom {
            label: "mini".into(),
            schedule: "static node_failure=0.2".into(),
        };
        let part = run_campaign_stats(&cfg, &kind, 2, 0);
        let result = std::panic::catch_unwind(|| rows_from_stats(&cfg, &part.cells, &part.stats));
        assert!(result.is_err(), "one shard of two must not aggregate");
    }

    #[test]
    fn envelope_flags_blowup_and_missing_baseline() {
        let row = |regime: &str, rate: Option<f64>, mean: f64| CampaignRow {
            regime: regime.to_string(),
            method: "FTTT-basic",
            fault_rate: rate,
            mean_error: mean,
            worst_error: mean,
            lost_fraction: 0.0,
            degraded_fraction: 0.0,
            trials_lost: 0,
            recovery_rate: 1.0,
            mean_samples: 5.0,
        };
        // A 0-rate baseline of 5 m and a 0.5-rate mean of 40 m breaks
        // 3·5 + 12 = 27 m. FTTT-ext has no sweep rows at all, which is a
        // campaign without a sweep family for that method — skipped, not
        // flagged.
        let rows = vec![
            row(SWEEP_REGIME, Some(0.0), 5.0),
            row(SWEEP_REGIME, Some(0.5), 40.0),
        ];
        let v = check_envelopes(&rows, 100.0);
        assert_eq!(v.len(), 1, "exactly the envelope break: {v:?}");
        assert!(v[0].contains("breaks the envelope"), "{v:?}");
        // A partial sweep — rows but no rate-0 anchor — is still flagged.
        let rows = vec![row(SWEEP_REGIME, Some(0.5), 10.0)];
        let v = check_envelopes(&rows, 100.0);
        assert!(
            v.iter().any(|m| m.contains("no fault-free baseline")),
            "{v:?}"
        );
        // A blackout row that never reached Lost is a violation too.
        let rows = vec![row(BLACKOUT_REGIME, None, 10.0)];
        let v = check_envelopes(&rows, 100.0);
        assert!(v.iter().any(|m| m.contains("entered Lost")), "{v:?}");
    }

    /// The artifact's rows carry every aggregate bit-exactly through the
    /// shared writer and reader, showcase rows omit the rate from their
    /// shape, and the checksum and a full-range master seed ride as hex
    /// strings.
    #[test]
    fn artifact_rows_round_trip_exactly() {
        let cfg = CampaignConfig::fast(u64::MAX);
        let mean = 9.123456789012345;
        let row = |regime: &str, rate| CampaignRow {
            regime: regime.into(),
            method: "FTTT-basic",
            fault_rate: rate,
            mean_error: mean,
            worst_error: mean * 1.5,
            lost_fraction: 1.0 / 3.0,
            degraded_fraction: 0.1 + 0.2,
            trials_lost: 1,
            recovery_rate: 2.0 / 3.0,
            mean_samples: 5.123,
        };
        let rows = [row(SWEEP_REGIME, Some(0.1)), row("burst", None)];
        let registry = wsn_telemetry::Registry::new();
        registry.counter("wsn.regime.activations").add(7);
        let doc = artifact(
            &rows,
            &cfg,
            &CampaignKind::Builtin,
            0xdead_beef,
            &[],
            &registry.snapshot(),
        );
        let doc = JsonValue::parse(&doc.to_pretty()).unwrap();
        let parsed = gate::rows(&doc).unwrap();
        let value = |shape: &str, metric: &str| {
            parsed
                .iter()
                .find(|r| r.shape == shape && r.metric == metric)
                .map(|r| r.value.clone())
        };
        for shape in [
            "regime=node-failure,method=FTTT-basic,rate=0.1",
            "regime=burst,method=FTTT-basic",
        ] {
            for (metric, want) in [
                ("mean_error_m", mean),
                ("worst_error_m", mean * 1.5),
                ("lost_fraction", 1.0 / 3.0),
                ("degraded_fraction", 0.1 + 0.2),
                ("trials_lost", 1.0),
                ("recovery_rate", 2.0 / 3.0),
                ("mean_samples", 5.123),
            ] {
                let got = value(shape, metric).and_then(|v| v.as_f64()).unwrap();
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{shape} {metric}: {want} -> {got}"
                );
            }
        }
        let key = crate::replay::checksum_key(&cfg, "builtin");
        assert_eq!(
            value(&key, "checksum"),
            Some(JsonValue::Str("0x00000000deadbeef".into()))
        );
        assert_eq!(parsed.len(), 2 * 7 + 1);
        let seed = doc.get("config").and_then(|c| c.get("seed"));
        assert_eq!(
            seed.and_then(JsonValue::as_str).and_then(parse_digest_hex),
            Some(u64::MAX)
        );
        assert_eq!(doc.get("pass"), Some(&JsonValue::Bool(true)));
        assert_eq!(
            doc.get("metrics")
                .and_then(|m| m.get("counters"))
                .and_then(|c| c.get("wsn.regime.activations"))
                .and_then(JsonValue::as_u64),
            Some(7)
        );
    }
}
