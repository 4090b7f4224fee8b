//! The metrics registry and its plain-data snapshots.

use crate::metrics::{Counter, Gauge, Histogram};
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

/// A named collection of counters, gauges and histograms.
///
/// Metrics are created lazily on first use and handed out as `Arc`s, so a
/// hot loop can resolve its counter once and update it lock-free. Names are
/// dot-separated paths (`fttt.match.evaluations`); the maps are B-trees so
/// snapshots and exports iterate in sorted order deterministically.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self
            .counters
            .read()
            .expect("registry lock poisoned")
            .get(name)
        {
            return Arc::clone(c);
        }
        let mut map = self.counters.write().expect("registry lock poisoned");
        Arc::clone(map.entry(name.to_owned()).or_default())
    }

    /// The gauge named `name`, created at `0.0` on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self
            .gauges
            .read()
            .expect("registry lock poisoned")
            .get(name)
        {
            return Arc::clone(g);
        }
        let mut map = self.gauges.write().expect("registry lock poisoned");
        Arc::clone(map.entry(name.to_owned()).or_default())
    }

    /// The histogram named `name`, created with `bounds` on first use.
    /// Later calls return the existing histogram and ignore `bounds`.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        if let Some(h) = self
            .histograms
            .read()
            .expect("registry lock poisoned")
            .get(name)
        {
            return Arc::clone(h);
        }
        let mut map = self.histograms.write().expect("registry lock poisoned");
        Arc::clone(
            map.entry(name.to_owned())
                .or_insert_with(|| Arc::new(Histogram::new(bounds))),
        )
    }

    /// A point-in-time copy of every metric's current value.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .read()
            .expect("registry lock poisoned")
            .iter()
            .map(|(k, c)| (k.clone(), c.get()))
            .collect();
        let gauges = self
            .gauges
            .read()
            .expect("registry lock poisoned")
            .iter()
            .map(|(k, g)| (k.clone(), g.get()))
            .collect();
        let histograms = self
            .histograms
            .read()
            .expect("registry lock poisoned")
            .iter()
            .map(|(k, h)| {
                (
                    k.clone(),
                    HistogramSnapshot {
                        bounds: h.bounds().to_vec(),
                        counts: h.bucket_counts(),
                        count: h.count(),
                        sum: h.sum(),
                    },
                )
            })
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// A point-in-time copy of a histogram's state.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Configured upper bounds (excluding the implicit `+Inf`).
    pub bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) counts; one entry per bound plus the
    /// trailing `+Inf` overflow bucket.
    pub counts: Vec<u64>,
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Arithmetic mean of the observations, or `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Plain-data copy of a [`Registry`]: mergeable across trials, exportable as
/// JSON or Prometheus text (see the [`export`](crate::Snapshot::to_json_value)
/// methods).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the snapshot carries no metrics at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Fold `other` into `self`: counters add, gauges take `other`'s value
    /// (last write wins), histograms with identical bounds add bucket
    /// counts and sums.
    ///
    /// A histogram present on both sides whose bucket bounds disagree —
    /// snapshots from different telemetry versions, or a registry whose
    /// bucket ladder changed between releases — cannot be merged
    /// meaningfully: adding counts bucket-by-bucket would silently
    /// misattribute observations. That case is a named
    /// [`MergeError::HistogramBounds`], and the merge is atomic: on error
    /// `self` is left exactly as it was (validation happens before any
    /// mutation).
    pub fn try_merge(&mut self, other: &Snapshot) -> Result<(), MergeError> {
        for (name, h) in &other.histograms {
            if let Some(mine) = self.histograms.get(name) {
                if mine.bounds != h.bounds {
                    return Err(MergeError::HistogramBounds {
                        name: name.clone(),
                        ours: mine.bounds.clone(),
                        theirs: h.bounds.clone(),
                    });
                }
            }
        }
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            self.gauges.insert(name.clone(), *v);
        }
        for (name, h) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => {
                    for (a, b) in mine.counts.iter_mut().zip(&h.counts) {
                        *a += b;
                    }
                    mine.count += h.count;
                    mine.sum += h.sum;
                }
                None => {
                    self.histograms.insert(name.clone(), h.clone());
                }
            }
        }
        Ok(())
    }

    /// Merges per-shard snapshots into one, folding in ascending shard-id
    /// order regardless of the order `parts` arrives in.
    ///
    /// [`Snapshot::try_merge`] is order-sensitive for gauges (last write
    /// wins), so a coordinator that merged shards in arrival order —
    /// thread completion, readdir order, hash-map iteration — would
    /// produce merged gauge values that differ from run to run. Sorting by
    /// shard id first makes the merged snapshot a pure function of the
    /// shard contents: ties on shard id keep their relative order (stable
    /// sort), so duplicate ids are at least deterministic for a given
    /// input order.
    ///
    /// Fails with the first [`MergeError`] encountered (in shard-id
    /// order), naming the offending histogram.
    pub fn merge_shards(parts: Vec<(usize, Snapshot)>) -> Result<Snapshot, MergeError> {
        let mut parts = parts;
        parts.sort_by_key(|(shard, _)| *shard);
        let mut merged = Snapshot::new();
        for (_, snap) in &parts {
            merged.try_merge(snap)?;
        }
        Ok(merged)
    }
}

/// Why two [`Snapshot`]s refused to merge.
#[derive(Clone, Debug, PartialEq)]
pub enum MergeError {
    /// The same histogram name carries different bucket ladders on the two
    /// sides — typically snapshots produced by different telemetry
    /// versions. Bucket-by-bucket addition would be garbage, so the merge
    /// refuses instead.
    HistogramBounds {
        /// The histogram's registry name.
        name: String,
        /// The bounds already held by the merge target.
        ours: Vec<f64>,
        /// The bounds carried by the snapshot being folded in.
        theirs: Vec<f64>,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::HistogramBounds { name, ours, theirs } => write!(
                f,
                "histogram {name:?}: bucket bounds differ ({ours:?} vs {theirs:?}) — \
                 snapshots from different telemetry versions cannot be merged"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_hands_out_shared_metrics() {
        let r = Registry::new();
        r.counter("a").add(2);
        r.counter("a").add(3);
        assert_eq!(r.counter("a").get(), 5);
        r.gauge("g").set(1.5);
        assert_eq!(r.gauge("g").get(), 1.5);
        let h = r.histogram("h", &[1.0, 2.0]);
        h.observe(0.5);
        // Second resolve ignores the (different) bounds and returns the same
        // histogram.
        r.histogram("h", &[9.0]).observe(1.5);
        assert_eq!(h.bucket_counts(), vec![1, 1, 0]);
    }

    #[test]
    fn snapshot_copies_current_state() {
        let r = Registry::new();
        r.counter("events").add(7);
        r.gauge("level").set(-2.0);
        r.histogram("width", &[1.0, 4.0]).observe(3.0);
        let snap = r.snapshot();
        assert_eq!(snap.counters["events"], 7);
        assert_eq!(snap.gauges["level"], -2.0);
        let h = &snap.histograms["width"];
        assert_eq!(h.counts, vec![0, 1, 0]);
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 3.0);
        assert_eq!(h.mean(), 3.0);
        // Registry keeps evolving; the snapshot does not.
        r.counter("events").inc();
        assert_eq!(snap.counters["events"], 7);
    }

    #[test]
    fn merge_adds_counters_overwrites_gauges_sums_histograms() {
        let a = Registry::new();
        a.counter("c").add(2);
        a.gauge("g").set(1.0);
        a.histogram("h", &[1.0, 2.0]).observe(0.5);
        let b = Registry::new();
        b.counter("c").add(40);
        b.counter("only_b").inc();
        b.gauge("g").set(9.0);
        b.histogram("h", &[1.0, 2.0]).observe(1.5);
        let mut merged = a.snapshot();
        merged.try_merge(&b.snapshot()).unwrap();
        assert_eq!(merged.counters["c"], 42);
        assert_eq!(merged.counters["only_b"], 1);
        assert_eq!(merged.gauges["g"], 9.0);
        let h = &merged.histograms["h"];
        assert_eq!(h.counts, vec![1, 1, 0]);
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 2.0);
    }

    #[test]
    fn merge_shards_is_order_independent() {
        // Three shards that all set the same gauge: the merged value must
        // be shard 2's no matter how the parts are ordered on arrival.
        let part = |shard: usize| {
            let r = Registry::new();
            r.counter("rounds").add(10 + shard as u64);
            r.gauge("queue_depth").set(shard as f64);
            r.histogram("lat", &[1.0, 2.0]).observe(shard as f64);
            (shard, r.snapshot())
        };
        let orderings: [[usize; 3]; 3] = [[0, 1, 2], [2, 0, 1], [1, 2, 0]];
        let merged: Vec<Snapshot> = orderings
            .iter()
            .map(|o| Snapshot::merge_shards(o.iter().map(|&s| part(s)).collect()).unwrap())
            .collect();
        assert_eq!(merged[0], merged[1]);
        assert_eq!(merged[0], merged[2]);
        assert_eq!(merged[0].counters["rounds"], 33);
        assert_eq!(
            merged[0].gauges["queue_depth"], 2.0,
            "highest shard id wins the gauge, not arrival order"
        );
        assert_eq!(merged[0].histograms["lat"].count, 3);
    }

    /// Regression for the silent-garbage bug: merging snapshots whose
    /// histogram bucket ladders disagree (e.g. produced by two different
    /// telemetry versions) used to replace the histogram wholesale,
    /// silently discarding one side's observations. It is now a named
    /// error, and the failed merge leaves the target untouched.
    #[test]
    fn merge_refuses_mismatched_histogram_bounds() {
        // "Old telemetry version": a 2-bucket latency ladder.
        let a = Registry::new();
        a.counter("rounds").add(5);
        a.histogram("lat_us", &[1.0, 10.0]).observe(0.5);
        // "New telemetry version": the ladder grew a bucket.
        let b = Registry::new();
        b.counter("rounds").add(7);
        b.histogram("lat_us", &[1.0, 10.0, 100.0]).observe(3.0);

        let mut merged = a.snapshot();
        let before = merged.clone();
        let err = merged.try_merge(&b.snapshot()).unwrap_err();
        match &err {
            MergeError::HistogramBounds { name, ours, theirs } => {
                assert_eq!(name, "lat_us");
                assert_eq!(ours, &vec![1.0, 10.0]);
                assert_eq!(theirs, &vec![1.0, 10.0, 100.0]);
            }
        }
        let msg = err.to_string();
        assert!(msg.contains("lat_us"), "{msg}");
        assert!(msg.contains("telemetry versions"), "{msg}");
        // Atomic failure: nothing — not even the counters — was folded in.
        assert_eq!(merged, before);

        // merge_shards surfaces the same error instead of folding garbage.
        let parts = vec![(0usize, a.snapshot()), (1usize, b.snapshot())];
        assert!(Snapshot::merge_shards(parts).is_err());
    }

    #[test]
    fn merge_accepts_histogram_only_on_one_side() {
        let a = Registry::new();
        a.histogram("h", &[1.0]).observe(0.5);
        let b = Registry::new();
        b.histogram("other", &[2.0, 4.0]).observe(3.0);
        let mut merged = a.snapshot();
        merged.try_merge(&b.snapshot()).unwrap();
        assert_eq!(merged.histograms["h"].count, 1);
        assert_eq!(merged.histograms["other"].count, 1);
    }
}
