//! Fault injection for the sampling data path.
//!
//! The paper's fault-tolerance discussion (Section 4.4.3) assumes sensors
//! may fail to return results for a whole grouping sampling ("breakdown of
//! sensors or fault occurrence"). We model that directly, plus a finer
//! per-reading drop (a lost one-shot sample) that exercises Algorithm 1's
//! handling of ragged columns.

use crate::node::NodeId;
use rand::Rng;
use std::collections::BTreeSet;
use std::fmt;

/// A rejected fault/uplink/regime configuration, with a human-readable
/// reason. Returned by the `validate` methods and the schedule parser of
/// [`crate::spec`] so that bad values (a probability of 1.5, a negative
/// deadline) are refused at parse/construction time instead of silently
/// misbehaving mid-run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(String);

impl ConfigError {
    /// Creates an error with the given reason.
    pub fn new(reason: impl Into<String>) -> Self {
        Self(reason.into())
    }

    /// The reason the configuration was rejected.
    pub fn reason(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Checks that `v` is a probability (`0 ≤ v ≤ 1`; NaN rejected).
pub(crate) fn check_probability(name: &str, v: f64) -> Result<(), ConfigError> {
    if (0.0..=1.0).contains(&v) {
        Ok(())
    } else {
        Err(ConfigError::new(format!(
            "{name} must be a probability in [0, 1], got {v}"
        )))
    }
}

/// Probabilistic and deterministic sensor faults.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultModel {
    /// Probability that a node returns nothing for an entire grouping
    /// sampling (drawn independently per node per localization).
    pub node_failure_prob: f64,
    /// Probability that any individual reading is lost.
    pub reading_drop_prob: f64,
    /// Nodes that never respond (hard failures fixed for the whole run).
    pub dead_nodes: BTreeSet<NodeId>,
}

impl FaultModel {
    /// No faults at all.
    pub fn none() -> Self {
        Self::default()
    }

    /// Per-sampling node failure with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a probability.
    pub fn with_node_failure(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        Self {
            node_failure_prob: p,
            ..Self::default()
        }
    }

    /// Per-reading drop with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a probability.
    pub fn with_reading_drop(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        Self {
            reading_drop_prob: p,
            ..Self::default()
        }
    }

    /// Marks `nodes` permanently dead.
    pub fn with_dead_nodes<I: IntoIterator<Item = NodeId>>(nodes: I) -> Self {
        Self {
            dead_nodes: nodes.into_iter().collect(),
            ..Self::default()
        }
    }

    /// Checks every field, rejecting out-of-range probabilities.
    ///
    /// Constructors already refuse bad values, but a `FaultModel` can also
    /// arrive with its public fields filled in directly (deserialized from
    /// a config file, built by a spec parser): this is the single place
    /// such a value must pass before it enters the sampling path.
    pub fn validate(&self) -> Result<(), ConfigError> {
        check_probability("node_failure_prob", self.node_failure_prob)?;
        check_probability("reading_drop_prob", self.reading_drop_prob)?;
        Ok(())
    }

    /// `true` if this model can never remove a reading.
    pub fn is_none(&self) -> bool {
        self.node_failure_prob == 0.0 && self.reading_drop_prob == 0.0 && self.dead_nodes.is_empty()
    }

    /// Decides whether `node` fails for one whole grouping sampling.
    pub fn node_fails<R: Rng + ?Sized>(&self, node: NodeId, rng: &mut R) -> bool {
        if self.dead_nodes.contains(&node) {
            return true;
        }
        self.node_failure_prob > 0.0 && rng.gen::<f64>() < self.node_failure_prob
    }

    /// Decides whether one reading is dropped.
    pub fn reading_drops<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        self.reading_drop_prob > 0.0 && rng.gen::<f64>() < self.reading_drop_prob
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand_chacha::ChaCha8Rng {
        rand_chacha::ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn none_never_faults() {
        let f = FaultModel::none();
        assert!(f.is_none());
        let mut r = rng(0);
        for i in 0..100 {
            assert!(!f.node_fails(NodeId(i), &mut r));
            assert!(!f.reading_drops(&mut r));
        }
    }

    #[test]
    fn dead_nodes_always_fail() {
        let f = FaultModel::with_dead_nodes([NodeId(3), NodeId(5)]);
        let mut r = rng(1);
        for _ in 0..50 {
            assert!(f.node_fails(NodeId(3), &mut r));
            assert!(f.node_fails(NodeId(5), &mut r));
            assert!(!f.node_fails(NodeId(0), &mut r));
        }
    }

    #[test]
    fn failure_rate_matches_probability() {
        let f = FaultModel::with_node_failure(0.3);
        let mut r = rng(2);
        let n = 100_000;
        let fails = (0..n).filter(|_| f.node_fails(NodeId(0), &mut r)).count() as f64 / n as f64;
        assert!((fails - 0.3).abs() < 0.01, "rate {fails}");
    }

    #[test]
    fn drop_rate_matches_probability() {
        let f = FaultModel::with_reading_drop(0.1);
        let mut r = rng(3);
        let n = 100_000;
        let drops = (0..n).filter(|_| f.reading_drops(&mut r)).count() as f64 / n as f64;
        assert!((drops - 0.1).abs() < 0.01, "rate {drops}");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_rejected() {
        let _ = FaultModel::with_node_failure(1.5);
    }
}
