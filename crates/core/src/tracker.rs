//! The end-to-end tracking driver: grouping sampling → sampling vector →
//! face matching → location estimate, repeated along a trace.

use crate::error::ErrorStats;
use crate::facemap::{FaceId, FaceMap, RepairMode, RepairReport};
use crate::matching::{match_full, match_heuristic, MatchOutcome, MatchStrategy};
use crate::sampling::{basic_sampling_vector, columns_sampling_vector, extended_sampling_vector};
use crate::vector::SamplingVector;
use rand::Rng;
use std::sync::Arc;
use wsn_geometry::Point;
use wsn_mobility::Trace;
use wsn_network::{GroupSampler, GroupSampling, SensorField};
use wsn_telemetry as telemetry;

/// Which matcher a tracker uses per localization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Matching {
    /// Scan every face (the `O(n⁴)` maximum-likelihood baseline matcher).
    Exhaustive,
    /// Algorithm 2: hill-climb over neighbor links, warm-started from the
    /// previous localization.
    Heuristic {
        /// Re-run exhaustively when the climb strands below this
        /// similarity (guards against local maxima after target jumps);
        /// `None` trusts the climb unconditionally.
        fallback_below: Option<f64>,
        /// Re-run exhaustively when the climb's similarity falls below
        /// this fraction of the rolling median of recent (finite)
        /// similarities. Unlike an absolute threshold, this tracks the
        /// run's own attainable similarity level — under heavy noise the
        /// median drops with it, so re-acquisition stays rare — while
        /// still catching a climb stranded on a low plateau far from the
        /// target (the warm-start divergence mode of sequential RSS
        /// trackers). `None` disables the check.
        reacquire_ratio: Option<f64>,
    },
}

/// Tracker configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackerOptions {
    /// Use the extended (quantitative) sampling vectors of Section 6.
    pub extended: bool,
    /// Matching strategy.
    pub matching: Matching,
    /// How full-accuracy matches execute — the exhaustive matcher itself,
    /// the heuristic's fallback/re-acquisition scans, everything that
    /// must return the exact maximum-likelihood face. Both strategies are
    /// bit-identical in outcome; [`MatchStrategy::Indexed`] (the default)
    /// prunes whole chunks of faces by an envelope lower bound first.
    pub strategy: MatchStrategy,
    /// On similarity ties, report the mean of the tied faces' centroids
    /// (the paper's tie rule) instead of the first face's centroid.
    pub tie_average: bool,
}

impl Default for TrackerOptions {
    /// Basic FTTT with exhaustive ML matching and tie averaging — the
    /// configuration of the paper's headline simulations.
    fn default() -> Self {
        Self {
            extended: false,
            matching: Matching::Exhaustive,
            strategy: MatchStrategy::default(),
            tie_average: true,
        }
    }
}

impl TrackerOptions {
    /// Extended FTTT (Section 6) with exhaustive matching.
    pub fn extended() -> Self {
        Self {
            extended: true,
            ..Self::default()
        }
    }

    /// Basic FTTT with the heuristic matcher (Algorithm 2).
    ///
    /// An *absolute* fallback threshold is useless under realistic noise
    /// (the best attainable similarity is routinely below any fixed
    /// threshold, so it would re-run the exhaustive scan on nearly every
    /// localization and erase the heuristic's complexity win). Instead the
    /// climb re-acquires exhaustively only when its similarity drops below
    /// half the rolling median of recent matches — the signature of a climb
    /// stranded on a plateau far from the target, which would otherwise
    /// poison the warm start for many localizations in a row.
    pub fn heuristic() -> Self {
        Self {
            matching: Matching::Heuristic {
                fallback_below: None,
                reacquire_ratio: Some(DEFAULT_REACQUIRE_RATIO),
            },
            ..Self::default()
        }
    }
}

/// Default `reacquire_ratio` of [`TrackerOptions::heuristic`]: re-acquire
/// when the climb lands below half the recent rolling-median similarity.
pub const DEFAULT_REACQUIRE_RATIO: f64 = 0.5;

/// Rolling window of recent finite similarities kept for the relative
/// re-acquisition check (long enough to ride out single bad groupings,
/// short enough to track regime changes within a few seconds).
const SIMILARITY_WINDOW: usize = 8;

/// One localization along a tracking run.
#[derive(Debug, Clone, PartialEq)]
pub struct Localization {
    /// Trace timestamp, seconds.
    pub t: f64,
    /// Ground-truth target position.
    pub truth: Point,
    /// FTTT's location estimate.
    pub estimate: Point,
    /// Matched face.
    pub face: FaceId,
    /// Similarity of the match.
    pub similarity: f64,
    /// Geographic error `‖estimate − truth‖`, metres.
    pub error: f64,
    /// Similarity evaluations spent on this localization.
    pub evaluated: usize,
}

/// A completed tracking run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackingRun {
    /// Per-localization records, in trace order.
    pub localizations: Vec<Localization>,
}

impl TrackingRun {
    /// The per-point errors, in trace order.
    pub fn errors(&self) -> Vec<f64> {
        self.localizations.iter().map(|l| l.error).collect()
    }

    /// Summary statistics of the per-point errors.
    ///
    /// # Panics
    ///
    /// Panics if the run is empty.
    pub fn error_stats(&self) -> ErrorStats {
        ErrorStats::from_errors(&self.errors())
    }

    /// Total similarity evaluations across the run (the matching work the
    /// heuristic matcher is meant to shrink).
    pub fn total_evaluated(&self) -> usize {
        self.localizations.iter().map(|l| l.evaluated).sum()
    }
}

/// The FTTT tracker: holds a (possibly shared) face map, remembers the
/// previous face for warm-started matching.
///
/// The map is behind an [`Arc`] so a server hosting tens of thousands of
/// concurrent sessions keeps one copy of the division instead of one per
/// session; [`Tracker::apply_churn`] builds the repaired map beside the
/// shared one, so a tracker that repairs its map privately never disturbs
/// its siblings, and [`Tracker::adopt_churn`] lets many trackers share
/// one repair.
#[derive(Debug, Clone)]
pub struct Tracker {
    map: Arc<FaceMap>,
    options: TrackerOptions,
    previous: Option<FaceId>,
    recent_sims: std::collections::VecDeque<f64>,
}

impl Tracker {
    /// Creates a tracker over a prebuilt face map it owns exclusively.
    pub fn new(map: FaceMap, options: TrackerOptions) -> Self {
        Self::shared(Arc::new(map), options)
    }

    /// Creates a tracker over a face map shared with other trackers. No
    /// map data is copied unless this tracker later churns its map.
    pub fn shared(map: Arc<FaceMap>, options: TrackerOptions) -> Self {
        Self {
            map,
            options,
            previous: None,
            recent_sims: std::collections::VecDeque::new(),
        }
    }

    /// The face map.
    pub fn map(&self) -> &FaceMap {
        &self.map
    }

    /// The options.
    pub fn options(&self) -> TrackerOptions {
        self.options
    }

    /// The face the next heuristic match climbs from (the previous
    /// localization's, remapped across any churn since), `None` before
    /// the first match or after [`Tracker::reset`].
    pub fn warm_start(&self) -> Option<FaceId> {
        self.previous
    }

    /// Forgets the previous localization (e.g. when the target was lost).
    pub fn reset(&mut self) {
        self.previous = None;
        self.recent_sims.clear();
    }

    /// Rolling median of the recent finite similarities, `None` before the
    /// first finite match.
    fn rolling_median_similarity(&self) -> Option<f64> {
        if self.recent_sims.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = self.recent_sims.iter().copied().collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite similarities"));
        Some(sorted[sorted.len() / 2])
    }

    fn record_similarity(&mut self, s: f64) {
        // Exact matches (infinite similarity) would poison any relative
        // threshold; the window tracks only the finite noise floor.
        if s.is_finite() {
            if self.recent_sims.len() == SIMILARITY_WINDOW {
                self.recent_sims.pop_front();
            }
            self.recent_sims.push_back(s);
        }
    }

    /// Builds the sampling vector this tracker's options call for,
    /// projected onto the map's live pair set — after churn the grouping
    /// still reports all deployment pairs, but only planes of live pairs
    /// partition the field, so dead pairs' components must not vote.
    pub fn sampling_vector(&self, group: &GroupSampling) -> SamplingVector {
        let extended = self.options.extended;
        match self.map.churned_live_nodes() {
            // Built on the live columns alone, which equals projecting the
            // full vector: a pair's value reads only its two columns.
            Some(live) if group.node_count() == self.map.deployment().len() => {
                columns_sampling_vector(group, live, extended)
            }
            _ => {
                let v = if extended {
                    extended_sampling_vector(group)
                } else {
                    basic_sampling_vector(group)
                };
                self.map.project_sampling_vector(v)
            }
        }
    }

    /// Repairs the tracker's map for one churn event (death when `death`,
    /// birth otherwise), then adopts the result ([`Tracker::adopt_churn`]).
    /// Returns the repair report and whether the warm-start face survived
    /// the repair *exactly* (same cell set); callers should treat an
    /// inexact survival as a stale warm start and force a full
    /// re-acquisition.
    pub fn apply_churn(
        &mut self,
        node: usize,
        death: bool,
        mode: RepairMode,
    ) -> (RepairReport, bool) {
        // The repair builds the next map beside the current one, which
        // may be shared: siblings keep their epoch, and nothing is copied.
        let (map, report) = self.map.repaired(node, death, mode);
        let warm_exact = self.adopt_churn(Arc::new(map), &report);
        (report, warm_exact)
    }

    /// Switches to `map`, repaired elsewhere by the churn event `report`
    /// describes, and migrates the warm-start state across the epoch
    /// bump: the previous face is remapped through the repair's old→new
    /// face table, and the rolling similarity window — measured against
    /// the old pair dimension — is restarted. Many trackers can adopt one
    /// shared repair instead of each repairing a private copy. Returns
    /// whether the warm-start face survived exactly, as
    /// [`Tracker::apply_churn`] does.
    ///
    /// `map` must be the current map with exactly that repair applied.
    pub fn adopt_churn(&mut self, map: Arc<FaceMap>, report: &RepairReport) -> bool {
        debug_assert_eq!(map.epoch(), report.epoch, "map is not the report's epoch");
        debug_assert_eq!(
            self.map.epoch() + 1,
            report.epoch,
            "report does not start from this tracker's map"
        );
        self.map = map;
        self.recent_sims.clear();
        let mut warm_exact = true;
        self.previous = self.previous.take().and_then(|f| {
            let (nf, exact) = report.remap_face(f)?;
            warm_exact = exact;
            Some(nf)
        });
        warm_exact
    }

    /// Localizes one grouping sampling; returns the estimate and the raw
    /// match outcome. Updates the warm-start state.
    pub fn localize(&mut self, group: &GroupSampling) -> (Point, MatchOutcome) {
        let v = self.sampling_vector(group);
        self.localize_vector(&v)
    }

    /// [`Tracker::localize`] on a sampling vector already built by
    /// [`Tracker::sampling_vector`] — for callers that inspect the vector
    /// themselves and should not build it twice.
    pub fn localize_vector(&mut self, v: &SamplingVector) -> (Point, MatchOutcome) {
        let outcome = match self.options.matching {
            Matching::Exhaustive => match_full(&self.map, v, self.options.strategy),
            Matching::Heuristic {
                fallback_below,
                reacquire_ratio,
            } => {
                let start = self.previous.unwrap_or_else(|| self.map.center_face());
                let out = match_heuristic(&self.map, v, start);
                let below_absolute = fallback_below.is_some_and(|th| out.similarity < th);
                let stranded = reacquire_ratio.is_some_and(|r| {
                    self.rolling_median_similarity()
                        .is_some_and(|median| out.similarity < r * median)
                });
                if below_absolute || stranded {
                    if telemetry::journal_enabled() {
                        use telemetry::ArgValue;
                        telemetry::trace_instant(
                            "fttt.tracker.fallback_reacquire",
                            vec![
                                ("similarity", ArgValue::F64(out.similarity)),
                                ("below_absolute", ArgValue::Bool(below_absolute)),
                                ("stranded", ArgValue::Bool(stranded)),
                            ],
                        );
                    }
                    let mut ex = match_full(&self.map, v, self.options.strategy);
                    ex.evaluated += out.evaluated;
                    ex
                } else {
                    out
                }
            }
        };
        self.record_similarity(outcome.similarity);
        self.previous = Some(outcome.face);
        let estimate = self.resolve_estimate(&outcome);
        (estimate, outcome)
    }

    /// Localizes one grouping sampling with a forced full-accuracy match
    /// (under the configured [`MatchStrategy`]), regardless of the
    /// configured matching mode, and rebases the warm start on the
    /// result. The session layer's recovery ladder uses this when the
    /// heuristic climb is suspected of being stranded.
    pub fn reacquire(&mut self, group: &GroupSampling) -> (Point, MatchOutcome) {
        let v = self.sampling_vector(group);
        self.reacquire_vector(&v)
    }

    /// [`Tracker::reacquire`] on a sampling vector already built by
    /// [`Tracker::sampling_vector`].
    pub fn reacquire_vector(&mut self, v: &SamplingVector) -> (Point, MatchOutcome) {
        let outcome = match_full(&self.map, v, self.options.strategy);
        self.record_similarity(outcome.similarity);
        self.previous = Some(outcome.face);
        let estimate = self.resolve_estimate(&outcome);
        (estimate, outcome)
    }

    /// Tracks a target along `trace`: one grouping sampling and one
    /// localization per trace point.
    pub fn track<R: Rng + ?Sized>(
        &mut self,
        field: &SensorField,
        sampler: &GroupSampler,
        trace: &Trace,
        rng: &mut R,
    ) -> TrackingRun {
        self.track_with(field, sampler, trace, rng, |g, _| g)
    }

    /// Like [`Tracker::track`], but pipes every grouping sampling through
    /// `transform` before localization — the hook for inserting a
    /// transport layer (e.g. `wsn_network::Uplink::deliver`) or any other
    /// degradation between the sensors and the matcher.
    pub fn track_with<R, F>(
        &mut self,
        field: &SensorField,
        sampler: &GroupSampler,
        trace: &Trace,
        rng: &mut R,
        mut transform: F,
    ) -> TrackingRun
    where
        R: Rng + ?Sized,
        F: FnMut(GroupSampling, &mut R) -> GroupSampling,
    {
        let mut localizations = Vec::with_capacity(trace.len());
        for p in trace.points() {
            let group = transform(sampler.sample(field, p.pos, rng), rng);
            let (estimate, outcome) = self.localize(&group);
            localizations.push(Localization {
                t: p.t,
                truth: p.pos,
                estimate,
                face: outcome.face,
                similarity: outcome.similarity,
                error: estimate.distance(p.pos),
                evaluated: outcome.evaluated,
            });
        }
        TrackingRun { localizations }
    }

    fn resolve_estimate(&self, outcome: &MatchOutcome) -> Point {
        if self.options.tie_average && outcome.ties.len() > 1 {
            let mut x = 0.0;
            let mut y = 0.0;
            for &id in &outcome.ties {
                let c = self.map.face(id).centroid;
                x += c.x;
                y += c.y;
            }
            let n = outcome.ties.len() as f64;
            Point::new(x / n, y / n)
        } else {
            self.map.face(outcome.face).centroid
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use wsn_geometry::Rect;
    use wsn_mobility::{TimedPoint, WaypointPath};
    use wsn_network::{Deployment, FaultModel};
    use wsn_signal::PathLossModel;

    fn rng(seed: u64) -> rand_chacha::ChaCha8Rng {
        rand_chacha::ChaCha8Rng::seed_from_u64(seed)
    }

    fn setup(n: usize, sigma: f64, k: usize) -> (SensorField, FaceMap, GroupSampler) {
        let field = Rect::square(100.0);
        let deployment = Deployment::grid(n, field);
        let sensor_field = SensorField::new(deployment, 150.0);
        let model = PathLossModel::new(-40.0, 0.0, 4.0, sigma);
        let c = model.uncertainty_constant(1.0);
        let map = FaceMap::build(&sensor_field.deployment().positions(), field, c, 2.0);
        let sampler = GroupSampler::new(model, k);
        (sensor_field, map, sampler)
    }

    fn straight_trace() -> Trace {
        WaypointPath::new(vec![Point::new(20.0, 50.0), Point::new(80.0, 50.0)])
            .walk_constant(3.0, 1.0)
    }

    #[test]
    fn noiseless_tracking_is_tight() {
        // σ = 0 keeps every pair ordinal outside the ε-band; the estimate
        // should stay within a few face diameters of the truth.
        let (field, map, sampler) = setup(9, 0.0, 3);
        let mut tracker = Tracker::new(map, TrackerOptions::default());
        let run = tracker.track(&field, &sampler, &straight_trace(), &mut rng(1));
        let stats = run.error_stats();
        assert!(stats.mean < 8.0, "noiseless mean error {}", stats.mean);
    }

    #[test]
    fn noisy_tracking_beats_field_scale() {
        let (field, map, sampler) = setup(9, 6.0, 5);
        let mut tracker = Tracker::new(map, TrackerOptions::default());
        let run = tracker.track(&field, &sampler, &straight_trace(), &mut rng(2));
        let stats = run.error_stats();
        // A blind guess at the field centre averages ~25 m on this trace.
        assert!(stats.mean < 20.0, "noisy mean error {}", stats.mean);
    }

    #[test]
    fn heuristic_matches_exhaustive_accuracy_with_less_work() {
        let (field, map, sampler) = setup(9, 6.0, 5);
        let trace = straight_trace();
        let mut ex = Tracker::new(map.clone(), TrackerOptions::default());
        let run_ex = ex.track(&field, &sampler, &trace, &mut rng(3));
        let mut he = Tracker::new(map, TrackerOptions::heuristic());
        let run_he = he.track(&field, &sampler, &trace, &mut rng(3));
        // Same RNG stream ⟹ identical samplings; errors must be close on
        // average, and the heuristic must evaluate far fewer faces.
        let (me, mh) = (run_ex.error_stats().mean, run_he.error_stats().mean);
        assert!(mh <= me * 1.5 + 2.0, "heuristic {mh} vs exhaustive {me}");
        assert!(
            run_he.total_evaluated() < run_ex.total_evaluated() / 2,
            "heuristic {} vs exhaustive {} evaluations",
            run_he.total_evaluated(),
            run_ex.total_evaluated()
        );
    }

    #[test]
    fn extended_reduces_error_deviation() {
        let (field, map, sampler) = setup(9, 6.0, 5);
        let trace = straight_trace();
        let mut basic_stds = Vec::new();
        let mut ext_stds = Vec::new();
        for seed in 0..8 {
            let mut basic = Tracker::new(map.clone(), TrackerOptions::default());
            basic_stds.push(
                basic
                    .track(&field, &sampler, &trace, &mut rng(100 + seed))
                    .error_stats()
                    .std,
            );
            let mut ext = Tracker::new(map.clone(), TrackerOptions::extended());
            ext_stds.push(
                ext.track(&field, &sampler, &trace, &mut rng(100 + seed))
                    .error_stats()
                    .std,
            );
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&ext_stds) <= mean(&basic_stds) * 1.1,
            "extended std {} vs basic {}",
            mean(&ext_stds),
            mean(&basic_stds)
        );
    }

    #[test]
    fn tracking_survives_node_failures() {
        let (field, map, sampler) = setup(9, 6.0, 5);
        let faulty = sampler
            .clone()
            .with_fault(FaultModel::with_node_failure(0.3));
        let mut tracker = Tracker::new(map, TrackerOptions::default());
        let run = tracker.track(&field, &faulty, &straight_trace(), &mut rng(5));
        let stats = run.error_stats();
        assert!(stats.mean.is_finite());
        assert!(stats.mean < 30.0, "faulty mean error {}", stats.mean);
    }

    #[test]
    fn localize_warm_start_state() {
        let (field, map, sampler) = setup(9, 6.0, 5);
        let mut tracker = Tracker::new(map, TrackerOptions::heuristic());
        assert!(tracker.previous.is_none());
        let group = sampler.sample(&field, Point::new(50.0, 50.0), &mut rng(6));
        let _ = tracker.localize(&group);
        assert!(tracker.previous.is_some());
        tracker.reset();
        assert!(tracker.previous.is_none());
    }

    /// The vector entry points are the group entry points minus the
    /// vector build: same outcomes, same warm-start state afterwards.
    #[test]
    fn vector_entry_points_match_group_entry_points() {
        let (field, map, sampler) = setup(9, 6.0, 5);
        for options in [TrackerOptions::heuristic(), TrackerOptions::extended()] {
            let mut by_group = Tracker::new(map.clone(), options);
            let mut by_vector = Tracker::new(map.clone(), options);
            let mut r = rng(11);
            for (i, x) in [20.0, 35.0, 50.0, 65.0].into_iter().enumerate() {
                let g = sampler.sample(&field, Point::new(x, 50.0), &mut r);
                let v = by_vector.sampling_vector(&g);
                let (a, b) = if i % 2 == 0 {
                    (by_group.localize(&g), by_vector.localize_vector(&v))
                } else {
                    (by_group.reacquire(&g), by_vector.reacquire_vector(&v))
                };
                assert_eq!(a, b, "round {i}");
                assert_eq!(by_group.warm_start(), by_vector.warm_start());
            }
        }
    }

    #[test]
    fn track_with_applies_the_transform() {
        let (field, map, sampler) = setup(9, 6.0, 5);
        let trace = straight_trace();
        // Identity transform reproduces plain track() exactly.
        let mut a = Tracker::new(map.clone(), TrackerOptions::default());
        let run_a = a.track(&field, &sampler, &trace, &mut rng(41));
        let mut b = Tracker::new(map.clone(), TrackerOptions::default());
        let run_b = b.track_with(&field, &sampler, &trace, &mut rng(41), |g, _| g);
        assert_eq!(run_a, run_b);
        // A censoring transform (drop every reading of node 0) changes the
        // run but keeps it sane.
        let mut c = Tracker::new(map, TrackerOptions::default());
        let run_c = c.track_with(&field, &sampler, &trace, &mut rng(41), |mut g, _| {
            for t in 0..g.instants() {
                g.set(t, 0, None);
            }
            g
        });
        assert_ne!(run_a, run_c);
        assert!(run_c.error_stats().mean.is_finite());
    }

    #[test]
    fn shared_map_churn_is_copy_on_write() {
        let (field, map, sampler) = setup(9, 6.0, 5);
        let shared = Arc::new(map);
        let mut a = Tracker::shared(Arc::clone(&shared), TrackerOptions::default());
        let mut b = Tracker::shared(Arc::clone(&shared), TrackerOptions::default());
        let epoch0 = shared.epoch();
        a.apply_churn(3, true, RepairMode::Incremental);
        // Only `a` sees the repair; the shared original and `b` are
        // untouched.
        assert!(a.map().epoch() > epoch0);
        assert_eq!(shared.epoch(), epoch0);
        assert_eq!(b.map().epoch(), epoch0);
        assert!(!a.map().is_node_live(3));
        assert!(b.map().is_node_live(3));
        let group = sampler.sample(&field, Point::new(50.0, 50.0), &mut rng(9));
        let (estimate, _) = b.localize(&group);
        assert!(estimate.x.is_finite() && estimate.y.is_finite());
    }

    #[test]
    fn run_records_are_consistent() {
        let (field, map, sampler) = setup(4, 6.0, 3);
        let trace = Trace::new(vec![
            TimedPoint::new(0.0, Point::new(30.0, 30.0)),
            TimedPoint::new(1.0, Point::new(32.0, 30.0)),
        ]);
        let mut tracker = Tracker::new(map, TrackerOptions::default());
        let run = tracker.track(&field, &sampler, &trace, &mut rng(7));
        assert_eq!(run.localizations.len(), 2);
        for l in &run.localizations {
            assert!((l.error - l.estimate.distance(l.truth)).abs() < 1e-12);
            assert!(l.similarity > 0.0);
        }
    }
}
