//! Self-healing tracking sessions: health monitoring, a recovery ladder
//! and adaptive sampling on top of [`Tracker`].
//!
//! The paper's fault rule (eq. 6) absorbs *erasure* faults — missing
//! readings become `*` components and drop out of the distance sum. A
//! session defends against what that rule cannot see: climbs stranded far
//! from the target, groupings so sparse the match is meaningless, total
//! blackouts, and lying sensors whose readings are present but wrong.
//! Three behavioral health checks run per round:
//!
//! 1. **Relative similarity** — the match similarity against the rolling
//!    median of recent finite similarities (absolute thresholds are
//!    useless: the attainable similarity depends on noise and geometry).
//! 2. **Missing fraction** — the share of `*` components in the sampling
//!    vector; past a threshold the `*`-rule has eaten so much of the
//!    vector that whatever face wins is weakly supported.
//! 3. **Estimate plausibility** — the jump from the last trusted estimate
//!    against the target's maximum speed; RSS matchers fail by
//!    teleporting, real targets don't.
//!
//! Failing checks walk a recovery ladder: trust the (heuristic) climb →
//! force an exhaustive-quality re-acquisition (executed under the
//! tracker's [`MatchStrategy`](crate::matching::MatchStrategy) — by
//! default the chunk-indexed matcher, which returns the identical face at
//! a fraction of the scan cost) → hold the last trusted estimate and
//! report [`TrackStatus::Lost`]. In parallel the session escalates the
//! sampling times `k` toward the Section-5.1 bound
//! `k > 1 − log₂(1 − λ^{1/N})` ([`crate::theory::required_sampling_times`])
//! evaluated at the *live* pair count — fewer responding nodes mean fewer
//! pairs, so the bound, and the session's sampling effort, adapt to the
//! fault regime — and decays `k` back once rounds run healthy again.

use crate::error::ErrorStats;
use crate::facemap::{FaceId, FaceMap, RepairMode, RepairReport};
use crate::theory::required_sampling_times;
use crate::tracker::Tracker;
use rand::Rng;
use std::sync::Arc;
use wsn_geometry::Point;
use wsn_mobility::Trace;
use wsn_network::{pair_count, GroupSampling};
use wsn_telemetry as telemetry;

/// The session's judgement of how much to trust the current estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackStatus {
    /// Healthy: the estimate passed every check.
    Tracking,
    /// One or more health checks failed recently; the estimate is reported
    /// but should be treated with suspicion.
    Degraded,
    /// The target is considered lost (persistent check failures or
    /// blackout); the session holds the last trusted estimate and keeps
    /// attempting re-acquisition.
    Lost,
}

/// Session configuration. All thresholds have workable defaults via
/// [`SessionOptions::new`]; fields are public for tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionOptions {
    /// A round is unhealthy when its similarity falls below this fraction
    /// of the rolling median of recent finite similarities.
    pub reacquire_ratio: f64,
    /// A round is unhealthy when more than this fraction of the sampling
    /// vector is `*` (unknown).
    pub max_missing_fraction: f64,
    /// Maximum plausible target speed in m/s; estimates jumping farther
    /// than `max_speed·Δt + jump_slack` from the last trusted estimate are
    /// unhealthy. `f64::INFINITY` disables the check.
    pub max_speed: f64,
    /// Slack added to the plausible-jump radius, metres (covers face
    /// granularity: even a perfect match moves in centroid-sized steps).
    pub jump_slack: f64,
    /// Baseline sampling times `k` per grouping.
    pub base_samples: usize,
    /// Ceiling on escalated sampling times.
    pub max_samples: usize,
    /// Target probability λ for the Section-5.1 sampling-times bound used
    /// when escalating `k` under fault pressure.
    pub lambda: f64,
    /// Consecutive unhealthy rounds before the session declares
    /// [`TrackStatus::Lost`].
    pub lost_after: usize,
    /// Consecutive healthy rounds before a degraded/lost session returns
    /// to [`TrackStatus::Tracking`].
    pub recover_after: usize,
}

impl SessionOptions {
    /// Defaults around a baseline of `base_samples` sampling times.
    ///
    /// # Panics
    ///
    /// Panics if `base_samples == 0`.
    pub fn new(base_samples: usize) -> Self {
        assert!(base_samples > 0, "need at least one sample per grouping");
        Self {
            reacquire_ratio: 0.5,
            max_missing_fraction: 0.5,
            max_speed: f64::INFINITY,
            jump_slack: 15.0,
            base_samples,
            max_samples: base_samples.max(12),
            lambda: 0.95,
            lost_after: 3,
            recover_after: 2,
        }
    }

    /// Sets the plausible-speed check.
    pub fn with_max_speed(mut self, speed: f64) -> Self {
        self.max_speed = speed;
        self
    }
}

/// The per-round causal record: which health checks fired, what the
/// monitor concluded and how the recovery ladder moved.
///
/// Every [`TrackingSession::step`] builds one and attaches it to the
/// returned [`SessionRound`]; when a trace journal is installed
/// ([`wsn_telemetry::install_journal`]) the same record is emitted as a
/// `fttt.session.round` journal event, which `fttt-sim explain` renders
/// into a status-transition timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundTrace {
    /// Zero-based index of this round within the session's lifetime.
    pub round: u64,
    /// Session status *before* this round's checks ran.
    pub status_before: TrackStatus,
    /// Why the round was judged the way it was: `"healthy"`, or the
    /// highest-priority failing check (`"blackout"` > `"stranded"` >
    /// `"starved"` > `"teleported"`).
    pub cause: &'static str,
    /// The sampling vector was empty or all-`*`; the session held.
    pub blackout: bool,
    /// Similarity fell below `reacquire_ratio` × rolling median.
    pub stranded: bool,
    /// Missing fraction exceeded `max_missing_fraction`.
    pub starved: bool,
    /// The estimate jumped farther than the target could travel.
    pub teleported: bool,
    /// Fraction of *known* components that are exactly zero — pairs whose
    /// order was sampled but never observed flipped. A spike alongside a
    /// healthy missing fraction points at lying (stuck/drifting) sensors
    /// rather than erasures.
    pub zero_fraction: f64,
    /// Sampling times `k` in effect after this round's escalation/decay
    /// (the request for the *next* round; `SessionRound::samples` is the
    /// `k` this round was sampled with).
    pub k_after: usize,
}

/// One session round: the estimate plus everything the monitor saw.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRound {
    /// Round timestamp, seconds.
    pub t: f64,
    /// The reported estimate (held from the last trusted round when the
    /// session could not localize).
    pub estimate: Point,
    /// Session status *after* this round's checks.
    pub status: TrackStatus,
    /// Sampling times `k` the session requested for this round.
    pub samples: usize,
    /// The face the round's match landed on, `None` when the round was a
    /// blackout hold (no match ran). On held non-blackout rounds this is
    /// still the *fresh* match's face — the rejected localization — while
    /// `estimate` is the hold; the replay digest folds both.
    pub face: Option<FaceId>,
    /// Similarity of the match, `None` when the round was a blackout hold.
    pub similarity: Option<f64>,
    /// Fraction of `*` components in the sampling vector (1.0 on
    /// blackout).
    pub missing_fraction: f64,
    /// `true` if the session forced an exhaustive re-acquisition.
    pub reacquired: bool,
    /// `true` if the estimate is a hold of the last trusted one rather
    /// than a fresh localization.
    pub held: bool,
    /// The round's causal record (check verdicts, cause, ladder movement).
    pub trace: RoundTrace,
}

/// A completed session run over a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRun {
    /// Per-round records, in trace order.
    pub rounds: Vec<SessionRound>,
    /// Geographic errors against the trace ground truth, parallel to
    /// `rounds`.
    pub errors: Vec<f64>,
}

impl SessionRun {
    /// Summary statistics of the per-round errors.
    ///
    /// # Panics
    ///
    /// Panics if the run is empty.
    pub fn error_stats(&self) -> ErrorStats {
        ErrorStats::from_errors(&self.errors)
    }

    /// Number of rounds that ended in `status`.
    pub fn rounds_in(&self, status: TrackStatus) -> usize {
        self.rounds.iter().filter(|r| r.status == status).count()
    }

    /// `true` if the session declared [`TrackStatus::Lost`] at some round
    /// and returned to [`TrackStatus::Tracking`] at a later one.
    pub fn recovered_from_lost(&self) -> bool {
        match self
            .rounds
            .iter()
            .position(|r| r.status == TrackStatus::Lost)
        {
            None => false,
            Some(i) => self.rounds[i..]
                .iter()
                .any(|r| r.status == TrackStatus::Tracking),
        }
    }

    /// Total sampling times spent across the run (the energy-side cost of
    /// adaptive escalation).
    pub fn total_samples(&self) -> usize {
        self.rounds.iter().map(|r| r.samples).sum()
    }
}

/// Rolling window of recent finite similarities for the health monitor
/// (matches the tracker's internal window length).
const HEALTH_WINDOW: usize = 8;

/// A self-healing tracking session wrapping a [`Tracker`].
#[derive(Debug, Clone)]
pub struct TrackingSession {
    tracker: Tracker,
    options: SessionOptions,
    status: TrackStatus,
    samples: usize,
    unhealthy_streak: usize,
    healthy_streak: usize,
    /// Last trusted (healthy) estimate and its timestamp.
    last_trusted: Option<(f64, Point)>,
    /// Last reported estimate (trusted or not) — the hold value.
    last_reported: Option<Point>,
    recent_sims: std::collections::VecDeque<f64>,
    /// Escalation ladder: force exhaustive re-acquisition next round.
    force_reacquire: bool,
    /// Lifetime round counter, indexing [`RoundTrace::round`].
    round_index: u64,
    /// Process-unique id stamped on journaled round events, so traces
    /// holding many interleaved sessions (campaigns) stay separable.
    /// Clones share the id of the original.
    session_id: u64,
}

/// Source of [`TrackingSession::session_id`] values.
static NEXT_SESSION_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl TrackingSession {
    /// Wraps `tracker` in a session with the given options.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < lambda < 1`, `base_samples ≤ max_samples` and
    /// `base_samples > 0`.
    pub fn new(tracker: Tracker, options: SessionOptions) -> Self {
        assert!(
            options.lambda > 0.0 && options.lambda < 1.0,
            "λ must be in (0, 1), got {}",
            options.lambda
        );
        assert!(
            options.base_samples > 0,
            "need at least one sample per grouping"
        );
        assert!(
            options.base_samples <= options.max_samples,
            "base_samples {} exceeds max_samples {}",
            options.base_samples,
            options.max_samples
        );
        Self {
            tracker,
            options,
            status: TrackStatus::Tracking,
            samples: options.base_samples,
            unhealthy_streak: 0,
            healthy_streak: 0,
            last_trusted: None,
            last_reported: None,
            recent_sims: std::collections::VecDeque::new(),
            force_reacquire: false,
            round_index: 0,
            session_id: NEXT_SESSION_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        }
    }

    /// Current status.
    pub fn status(&self) -> TrackStatus {
        self.status
    }

    /// Sampling times `k` the session wants for the next grouping.
    pub fn requested_samples(&self) -> usize {
        self.samples
    }

    /// The session's options.
    pub fn options(&self) -> SessionOptions {
        self.options
    }

    /// The wrapped tracker (read-only) — the seam deterministic harnesses
    /// use to fold the tracker's face-map state into replay digests after
    /// an [`TrackingSession::apply_churn`] repair.
    pub fn tracker(&self) -> &Tracker {
        &self.tracker
    }

    /// Replaces the process-unique session id with a caller-chosen one.
    ///
    /// The default ids come from a process-global counter, so sessions
    /// created on racing worker threads get ids in a nondeterministic
    /// order — and across processes (sharded campaigns) the same trial
    /// gets different ids entirely. Deterministic pipelines (the fault
    /// campaign, replay) derive a *stable* id from the trial's identity
    /// instead and install it here before the first round, so journaled
    /// round events key identically across runs, thread counts and
    /// processes. Keep ids below 2⁵³ if the journal will be re-read
    /// through JSON (numbers are f64 there).
    pub fn with_session_id(mut self, id: u64) -> Self {
        self.session_id = id;
        self
    }

    /// The id stamped on this session's journaled round events.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Processes one grouping sampling taken at time `t`.
    ///
    /// `group` should have been sampled with [`requested_samples`]
    /// columns of `k` readings, but any grouping is accepted — the monitor
    /// judges what arrived, not what was asked for.
    ///
    /// [`requested_samples`]: TrackingSession::requested_samples
    pub fn step(&mut self, t: f64, group: &GroupSampling) -> SessionRound {
        let status_before = self.status;
        let samples_requested = self.samples;
        let round_index = self.round_index;
        self.round_index += 1;
        let v = self.tracker.sampling_vector(group);
        let unknown = v.unknown_count();
        let missing_fraction = if v.is_empty() {
            1.0
        } else {
            unknown as f64 / v.len() as f64
        };
        let known = v.len() - unknown;
        let zero_fraction = if known == 0 {
            0.0
        } else {
            v.zero_count() as f64 / known as f64
        };
        let blackout = v.is_empty() || unknown == v.len();

        if blackout {
            // Nothing to match against: matching an all-`*` vector ties
            // every face and would report the field centre. Hold instead.
            let estimate = self.hold_estimate(group);
            self.record_unhealthy();
            self.escalate_samples(group);
            let round = SessionRound {
                t,
                estimate,
                status: self.status,
                samples: samples_requested,
                face: None,
                similarity: None,
                missing_fraction,
                reacquired: false,
                held: true,
                trace: RoundTrace {
                    round: round_index,
                    status_before,
                    cause: "blackout",
                    blackout: true,
                    stranded: false,
                    starved: false,
                    teleported: false,
                    zero_fraction,
                    k_after: self.samples,
                },
            };
            self.note_round(&round);
            return round;
        }

        let reacquired = self.force_reacquire;
        let (estimate, outcome) = if reacquired {
            self.force_reacquire = false;
            self.tracker.reacquire_vector(&v)
        } else {
            self.tracker.localize_vector(&v)
        };

        // Health checks.
        let stranded = self
            .rolling_median()
            .is_some_and(|median| outcome.similarity < self.options.reacquire_ratio * median);
        let starved = missing_fraction > self.options.max_missing_fraction;
        let teleported = self.options.max_speed.is_finite()
            && self.last_trusted.is_some_and(|(t0, p0)| {
                let dt = (t - t0).max(0.0);
                estimate.distance(p0) > self.options.max_speed * dt + self.options.jump_slack
            });
        self.record_sim(outcome.similarity);

        let healthy = !(stranded || starved || teleported);
        if healthy {
            self.record_healthy();
            self.last_trusted = Some((t, estimate));
        } else {
            self.record_unhealthy();
            // Ladder rung 2: a stranded or teleporting climb gets one
            // forced exhaustive re-acquisition before the session gives
            // up on the warm start entirely.
            if (stranded || teleported) && !reacquired {
                self.force_reacquire = true;
            }
        }

        // While Lost, keep reporting the hold until re-acquisition proves
        // itself: a Lost session's fresh estimates are exactly the ones
        // the checks just rejected.
        let (reported, held) = if self.status == TrackStatus::Lost && !healthy {
            (self.hold_estimate(group), true)
        } else {
            self.last_reported = Some(estimate);
            (estimate, false)
        };

        if healthy {
            self.decay_samples();
        } else {
            self.escalate_samples(group);
        }
        let cause = if healthy {
            "healthy"
        } else if stranded {
            "stranded"
        } else if starved {
            "starved"
        } else {
            "teleported"
        };
        let round = SessionRound {
            t,
            estimate: reported,
            status: self.status,
            samples: samples_requested,
            face: Some(outcome.face),
            similarity: Some(outcome.similarity),
            missing_fraction,
            reacquired,
            held,
            trace: RoundTrace {
                round: round_index,
                status_before,
                cause,
                blackout: false,
                stranded,
                starved,
                teleported,
                zero_fraction,
                k_after: self.samples,
            },
        };
        self.note_round(&round);
        round
    }

    /// Runs a whole trace, asking `sample` for each grouping. The closure
    /// receives the requested sampling times `k`, the ground-truth target
    /// position, the round time and the RNG, and returns the grouping as
    /// delivered to the base station — the seam where a
    /// `wsn_network::RegimeEngine` and/or `Uplink` slot in.
    pub fn run<R, F>(&mut self, trace: &Trace, rng: &mut R, sample: F) -> SessionRun
    where
        R: Rng + ?Sized,
        F: FnMut(usize, Point, f64, &mut R) -> GroupSampling,
    {
        self.run_with(trace, rng, sample, |_, _| {})
    }

    /// Like [`TrackingSession::run`], but calls `before_round(self, t)`
    /// ahead of each round's sampling — the seam where a churn schedule
    /// applies pending [`TrackingSession::apply_churn`] events at their
    /// simulation times, between rounds, exactly where a deployed base
    /// station would learn of them.
    pub fn run_with<R, F, B>(
        &mut self,
        trace: &Trace,
        rng: &mut R,
        mut sample: F,
        mut before_round: B,
    ) -> SessionRun
    where
        R: Rng + ?Sized,
        F: FnMut(usize, Point, f64, &mut R) -> GroupSampling,
        B: FnMut(&mut Self, f64),
    {
        let mut rounds = Vec::with_capacity(trace.len());
        let mut errors = Vec::with_capacity(trace.len());
        for p in trace.points() {
            before_round(self, p.t);
            let group = sample(self.samples, p.pos, p.t, rng);
            let round = self.step(p.t, &group);
            errors.push(round.estimate.distance(p.pos));
            rounds.push(round);
        }
        SessionRun { rounds, errors }
    }

    /// Applies one churn event (death when `death`, birth otherwise) at
    /// simulation time `t`: repairs the tracker's face map, then migrates
    /// the session across the epoch bump exactly as
    /// [`TrackingSession::adopt_churn`] does.
    pub fn apply_churn(
        &mut self,
        t: f64,
        node: usize,
        death: bool,
        mode: RepairMode,
    ) -> RepairReport {
        let (report, warm_exact) = self.tracker.apply_churn(node, death, mode);
        self.migrate_across_churn(t, &report, warm_exact);
        report
    }

    /// Adopts `map`, repaired elsewhere by the churn event `report`
    /// describes, at simulation time `t` — how many sessions on one
    /// deployment share a single repair. Migrates the warm start across
    /// the epoch bump ([`Tracker::adopt_churn`]), restarts the health
    /// monitor's similarity window (its medians were measured against the
    /// old pair dimension), and — when the warm-start face did not survive
    /// the repair exactly — re-enters the recovery ladder at a forced full
    /// re-acquisition, since the remapped face is a merged/split stand-in
    /// rather than the face the climb actually matched.
    ///
    /// Emits one `fttt.map.repair` journal event (the record `fttt-sim
    /// explain` renders) with the post-repair epoch hex-encoded like
    /// every other u64 digest, and the repair's wall-clock time as an
    /// [`ArgValue::WallUs`](telemetry::ArgValue::WallUs), which the
    /// canonical journal drops.
    pub fn adopt_churn(&mut self, t: f64, map: Arc<FaceMap>, report: &RepairReport) {
        let warm_exact = self.tracker.adopt_churn(map, report);
        self.migrate_across_churn(t, report, warm_exact);
    }

    /// The session half of the churn migration both paths share.
    fn migrate_across_churn(&mut self, t: f64, report: &RepairReport, warm_exact: bool) {
        self.recent_sims.clear();
        let face_remapped = !warm_exact;
        if face_remapped {
            self.force_reacquire = true;
        }
        if telemetry::enabled() {
            telemetry::counter_add("fttt.session.churn_events", 1);
            if face_remapped {
                telemetry::counter_add("fttt.session.churn_remaps", 1);
            }
        }
        if telemetry::journal_enabled() {
            use telemetry::ArgValue;
            telemetry::trace_instant(
                "fttt.map.repair",
                vec![
                    ("session", ArgValue::U64(self.session_id)),
                    ("t", ArgValue::F64(t)),
                    (
                        "epoch",
                        ArgValue::Str(wsn_network::replay::digest_hex(report.epoch)),
                    ),
                    ("node", ArgValue::U64(report.node as u64)),
                    ("death", ArgValue::Bool(report.death)),
                    (
                        "planes_retired",
                        ArgValue::U64(report.planes_retired as u64),
                    ),
                    ("planes_added", ArgValue::U64(report.planes_added as u64)),
                    ("cells", ArgValue::U64(report.cells_reclassified as u64)),
                    ("faces_before", ArgValue::U64(report.faces_before as u64)),
                    ("faces_after", ArgValue::U64(report.faces_after as u64)),
                    ("repair_us", ArgValue::WallUs(report.repair_us)),
                    ("face_remapped", ArgValue::Bool(face_remapped)),
                ],
            );
        }
    }

    fn hold_estimate(&self, group: &GroupSampling) -> Point {
        self.last_reported
            .or(self.last_trusted.map(|(_, p)| p))
            // A session born into blackout has nothing to hold; the map
            // centre is the only defensible prior.
            .unwrap_or_else(|| {
                let _ = group;
                self.tracker
                    .map()
                    .face(self.tracker.map().center_face())
                    .centroid
            })
    }

    fn rolling_median(&self) -> Option<f64> {
        if self.recent_sims.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = self.recent_sims.iter().copied().collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite similarities"));
        Some(sorted[sorted.len() / 2])
    }

    fn record_sim(&mut self, s: f64) {
        if s.is_finite() {
            if self.recent_sims.len() == HEALTH_WINDOW {
                self.recent_sims.pop_front();
            }
            self.recent_sims.push_back(s);
        }
    }

    fn record_healthy(&mut self) {
        self.unhealthy_streak = 0;
        self.healthy_streak += 1;
        match self.status {
            TrackStatus::Tracking => {}
            TrackStatus::Degraded | TrackStatus::Lost => {
                if self.healthy_streak >= self.options.recover_after {
                    self.status = TrackStatus::Tracking;
                }
            }
        }
    }

    fn record_unhealthy(&mut self) {
        self.healthy_streak = 0;
        self.unhealthy_streak += 1;
        if self.unhealthy_streak >= self.options.lost_after {
            if self.status != TrackStatus::Lost {
                // Ladder rung 3: give up the warm start and the similarity
                // history — both are poisoned by whatever went wrong.
                self.tracker.reset();
                self.recent_sims.clear();
            }
            self.status = TrackStatus::Lost;
        } else if self.status == TrackStatus::Tracking {
            self.status = TrackStatus::Degraded;
        }
    }

    /// Escalates `k` toward the Section-5.1 bound at the live pair count.
    ///
    /// With fewer than two live nodes there are no pairs, so the bound is
    /// undefined and extra samples buy no localization evidence — the old
    /// `.max(1)` fabricated a phantom pair and escalated against it. Now
    /// the session leaves `k` alone and lets the unhealthy streak walk the
    /// status toward [`TrackStatus::Lost`] instead.
    fn escalate_samples(&mut self, group: &GroupSampling) {
        // A node the map knows is dead cannot contribute pairs even if a
        // stale reading for it arrived; the bound must see the post-churn
        // pair count, not phantom pairs.
        let map = self.tracker.map();
        let live = (0..group.node_count())
            .filter(|&j| group.node_responded(j) && map.is_node_live(j))
            .count();
        let pairs = pair_count(live);
        if pairs == 0 {
            return;
        }
        let needed = required_sampling_times(self.options.lambda, pairs);
        let before = self.samples;
        self.samples = needed
            .clamp(self.options.base_samples, self.options.max_samples)
            .max(self.samples);
        if self.samples > before {
            telemetry::counter_add("fttt.session.escalations", 1);
        }
    }

    /// Decays `k` one step back toward the baseline after a healthy round.
    fn decay_samples(&mut self) {
        if self.samples > self.options.base_samples {
            self.samples -= 1;
        }
    }

    /// Per-round telemetry: round/hold/re-acquisition counters, the
    /// current-`k` gauge and health-ladder transition counts into the
    /// metrics sink, plus one `fttt.session.round` event carrying the
    /// full [`RoundTrace`] into the trace journal. Each half is a no-op
    /// when its sink is not installed.
    fn note_round(&self, round: &SessionRound) {
        let before = round.trace.status_before;
        if telemetry::enabled() {
            telemetry::counter_add("fttt.session.rounds", 1);
            if round.held {
                telemetry::counter_add("fttt.session.holds", 1);
            }
            if round.reacquired {
                telemetry::counter_add("fttt.session.reacquisitions", 1);
            }
            telemetry::gauge_set("fttt.session.samples_k", self.samples as f64);
            if before != self.status {
                telemetry::counter_add("fttt.session.transitions", 1);
                let name = match self.status {
                    TrackStatus::Tracking => "fttt.session.to_tracking",
                    TrackStatus::Degraded => "fttt.session.to_degraded",
                    TrackStatus::Lost => "fttt.session.to_lost",
                };
                telemetry::counter_add(name, 1);
            }
        }
        if telemetry::journal_enabled() {
            use telemetry::ArgValue;
            let trace = &round.trace;
            let mut args = vec![
                ("session", ArgValue::U64(self.session_id)),
                ("t", ArgValue::F64(round.t)),
                ("status_before", ArgValue::Str(status_name(before).into())),
                ("status", ArgValue::Str(status_name(round.status).into())),
                ("cause", ArgValue::Str(trace.cause.into())),
                ("blackout", ArgValue::Bool(trace.blackout)),
                ("stranded", ArgValue::Bool(trace.stranded)),
                ("starved", ArgValue::Bool(trace.starved)),
                ("teleported", ArgValue::Bool(trace.teleported)),
                ("missing", ArgValue::F64(round.missing_fraction)),
                ("zeros", ArgValue::F64(trace.zero_fraction)),
                ("k", ArgValue::U64(round.samples as u64)),
                ("k_after", ArgValue::U64(trace.k_after as u64)),
                ("held", ArgValue::Bool(round.held)),
                ("reacquired", ArgValue::Bool(round.reacquired)),
                ("x", ArgValue::F64(round.estimate.x)),
                ("y", ArgValue::F64(round.estimate.y)),
                // Faces journal 1-based so 0 can mean "no match ran"
                // (blackout hold) without an optional-arg shape change.
                (
                    "face",
                    ArgValue::U64(round.face.map_or(0, |f| f.0 as u64 + 1)),
                ),
            ];
            if let Some(sim) = round.similarity {
                args.push(("similarity", ArgValue::F64(sim)));
            }
            telemetry::trace_round("fttt.session.round", trace.round, args);
        }
    }
}

/// The stable journal/CLI spelling of a [`TrackStatus`].
pub fn status_name(status: TrackStatus) -> &'static str {
    match status {
        TrackStatus::Tracking => "Tracking",
        TrackStatus::Degraded => "Degraded",
        TrackStatus::Lost => "Lost",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facemap::FaceMap;
    use crate::tracker::TrackerOptions;
    use rand::SeedableRng;
    use wsn_geometry::Rect;
    use wsn_mobility::WaypointPath;
    use wsn_network::{Deployment, GroupSampler, SensorField};
    use wsn_signal::PathLossModel;

    fn rng(seed: u64) -> rand_chacha::ChaCha8Rng {
        rand_chacha::ChaCha8Rng::seed_from_u64(seed)
    }

    fn setup(sigma: f64) -> (SensorField, FaceMap, GroupSampler) {
        let field = Rect::square(100.0);
        let deployment = Deployment::grid(9, field);
        let sensor_field = SensorField::new(deployment, 150.0);
        let model = PathLossModel::new(-40.0, 0.0, 4.0, sigma);
        let c = model.uncertainty_constant(1.0);
        let map = FaceMap::build(&sensor_field.deployment().positions(), field, c, 2.0);
        let sampler = GroupSampler::new(model, 5);
        (sensor_field, map, sampler)
    }

    fn trace() -> Trace {
        WaypointPath::new(vec![Point::new(20.0, 50.0), Point::new(80.0, 50.0)])
            .walk_constant(3.0, 1.0)
    }

    fn session(map: FaceMap) -> TrackingSession {
        TrackingSession::new(
            Tracker::new(map, TrackerOptions::heuristic()),
            SessionOptions::new(5).with_max_speed(6.0),
        )
    }

    #[test]
    fn clean_run_stays_tracking() {
        let (field, map, sampler) = setup(4.0);
        let mut s = session(map);
        let run = s.run(&trace(), &mut rng(1), |k, pos, _, r| {
            let sampler = GroupSampler {
                samples: k,
                ..sampler.clone()
            };
            sampler.sample(&field, pos, r)
        });
        assert_eq!(run.rounds_in(TrackStatus::Lost), 0);
        assert!(
            run.error_stats().mean < 20.0,
            "mean {}",
            run.error_stats().mean
        );
        // Healthy rounds decay k back to baseline.
        assert_eq!(s.requested_samples(), 5);
    }

    #[test]
    fn blackout_enters_lost_and_holds() {
        let (field, map, sampler) = setup(4.0);
        let mut s = session(map);
        let nodes = field.len();
        // Blackout between t = 6 and t = 12.
        let run = s.run(&trace(), &mut rng(2), |k, pos, t, r| {
            if (6.0..12.0).contains(&t) {
                GroupSampling::empty(nodes, k)
            } else {
                let sampler = GroupSampler {
                    samples: k,
                    ..sampler.clone()
                };
                sampler.sample(&field, pos, r)
            }
        });
        assert!(
            run.rounds_in(TrackStatus::Lost) > 0,
            "blackout must reach Lost"
        );
        assert!(
            run.recovered_from_lost(),
            "session must recover after the blackout"
        );
        // Held rounds report the pre-blackout estimate, not the map centre.
        let held: Vec<_> = run.rounds.iter().filter(|r| r.held).collect();
        assert!(!held.is_empty());
        for r in &held {
            assert!(r.similarity.is_none() || r.status == TrackStatus::Lost);
            assert!(r.estimate.x.is_finite() && r.estimate.y.is_finite());
        }
    }

    #[test]
    fn partial_blackout_escalates_sampling_times() {
        let (field, map, sampler) = setup(4.0);
        let mut s = session(map);
        let nodes = field.len();
        let mut max_k = 0;
        let _ = s.run(&trace(), &mut rng(3), |k, pos, t, r| {
            max_k = max_k.max(k);
            let sampler = GroupSampler {
                samples: k,
                ..sampler.clone()
            };
            let mut g = sampler.sample(&field, pos, r);
            if t >= 6.0 {
                // Six of nine nodes fall silent: three live nodes leave
                // three pairs, a defined Section-5.1 bound to escalate
                // toward (λ = 0.95, N = 3 ⟹ k = 7).
                for node in 3..nodes {
                    for inst in 0..g.instants() {
                        g.set(inst, node, None);
                    }
                }
            }
            g
        });
        assert!(max_k > 5, "fault pressure must escalate k, saw {max_k}");
        assert!(max_k <= s.options().max_samples);
    }

    /// The phantom-pair regression: with fewer than two live nodes there
    /// are no pairs, so the session must hold `k` at baseline and walk
    /// toward Lost — the old `.max(1)` escalated against a fictitious
    /// one-pair bound.
    #[test]
    fn zero_live_nodes_hold_k_and_walk_to_lost() {
        let (_, map, _) = setup(4.0);
        let mut s = session(map);
        let g = GroupSampling::empty(9, 5);
        for i in 0..4 {
            let round = s.step(i as f64, &g);
            assert_eq!(round.samples, 5, "no pairs must not escalate k");
        }
        assert_eq!(s.requested_samples(), 5);
        assert_eq!(s.status(), TrackStatus::Lost);
    }

    #[test]
    fn one_live_node_holds_k_and_walks_to_lost() {
        let (_, map, _) = setup(4.0);
        let mut s = session(map);
        let mut g = GroupSampling::empty(9, 5);
        for inst in 0..g.instants() {
            g.set(inst, 4, Some(wsn_signal::Rss::new(-50.0)));
        }
        assert!(g.node_responded(4));
        for i in 0..4 {
            let round = s.step(i as f64, &g);
            assert_eq!(round.samples, 5, "one live node has no pairs; k must hold");
        }
        assert_eq!(s.requested_samples(), 5);
        assert_eq!(s.status(), TrackStatus::Lost);
    }

    #[test]
    fn session_born_into_blackout_reports_finite_hold() {
        let (_, map, _) = setup(4.0);
        let mut s = session(map);
        let g = GroupSampling::empty(9, 5);
        for i in 0..5 {
            let round = s.step(i as f64, &g);
            assert!(round.held);
            assert!(round.estimate.x.is_finite() && round.estimate.y.is_finite());
        }
        assert_eq!(s.status(), TrackStatus::Lost);
    }

    #[test]
    fn status_degrades_before_lost() {
        let (_, map, _) = setup(4.0);
        let mut s = session(map);
        let g = GroupSampling::empty(9, 5);
        assert_eq!(s.step(0.0, &g).status, TrackStatus::Degraded);
        assert_eq!(s.step(1.0, &g).status, TrackStatus::Degraded);
        assert_eq!(s.step(2.0, &g).status, TrackStatus::Lost);
    }

    #[test]
    fn round_trace_records_cause_and_ladder_movement() {
        let (_, map, _) = setup(4.0);
        let mut s = session(map);
        let g = GroupSampling::empty(9, 5);
        let r0 = s.step(0.0, &g);
        assert_eq!(r0.trace.round, 0);
        assert_eq!(r0.trace.status_before, TrackStatus::Tracking);
        assert_eq!(r0.status, TrackStatus::Degraded);
        assert_eq!(r0.trace.cause, "blackout");
        assert!(r0.trace.blackout);
        assert!(!r0.trace.stranded && !r0.trace.starved && !r0.trace.teleported);
        // No pairs: k must not escalate.
        assert_eq!(r0.trace.k_after, 5);
        let r1 = s.step(1.0, &g);
        assert_eq!(r1.trace.round, 1);
        assert_eq!(r1.trace.status_before, TrackStatus::Degraded);
    }

    #[test]
    fn healthy_rounds_trace_healthy_cause_and_zero_stats() {
        let (field, map, sampler) = setup(4.0);
        let mut s = session(map);
        let run = s.run(&trace(), &mut rng(7), |k, pos, _, r| {
            let sampler = GroupSampler {
                samples: k,
                ..sampler.clone()
            };
            sampler.sample(&field, pos, r)
        });
        let healthy = run
            .rounds
            .iter()
            .filter(|r| r.trace.cause == "healthy")
            .count();
        assert!(healthy > 0, "a clean run must have healthy rounds");
        for (i, r) in run.rounds.iter().enumerate() {
            assert_eq!(r.trace.round, i as u64, "rounds index the session lifetime");
            assert!((0.0..=1.0).contains(&r.trace.zero_fraction));
            assert_eq!(
                r.trace.cause == "healthy",
                !r.trace.blackout && !r.trace.stranded && !r.trace.starved && !r.trace.teleported
            );
        }
    }

    // NOTE: journal-emission coverage for `note_round` lives in
    // `crates/bench/tests/telemetry_spine.rs` — installing the
    // process-global journal from this multi-threaded unit-test binary
    // would race other tests' sessions into the same ring.

    #[test]
    fn invalid_options_rejected() {
        let (_, map, _) = setup(4.0);
        let mut bad = SessionOptions::new(5);
        bad.lambda = 1.5;
        let result = std::panic::catch_unwind(|| {
            TrackingSession::new(Tracker::new(map, TrackerOptions::default()), bad)
        });
        assert!(result.is_err());
    }
}
