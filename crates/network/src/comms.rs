//! The uplink layer: getting grouping samplings to the base station.
//!
//! The paper's system (Section 4.3) aggregates sampling results at base
//! stations or cluster heads; its outdoor testbed ships readings over an
//! 802.15.4 uplink to a MIB520-attached sink. Real uplinks lose and delay
//! packets, and a packet that misses the localization deadline is as good
//! as lost — another source for the `N̄_r` set the fault-tolerance rule
//! (eq. 6) absorbs. This module models that path: one message per sensor
//! per grouping (the sensor aggregates its `k` one-shot readings into one
//! packet), Bernoulli loss, Gaussian latency, hard deadline.

use crate::fault::{check_probability, ConfigError};
use crate::sampling::GroupSampling;
use rand::Rng;
use wsn_signal::Gaussian;

/// A sensor→sink uplink with loss, latency and a delivery deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct Uplink {
    /// Probability an entire message is lost.
    pub loss_prob: f64,
    /// Latency distribution, seconds (samples are clamped at 0).
    pub latency: Gaussian,
    /// Messages arriving after this many seconds are discarded
    /// (`f64::INFINITY` disables the deadline).
    pub deadline: f64,
}

impl Uplink {
    /// A lossless, instantaneous uplink.
    pub fn ideal() -> Self {
        Self {
            loss_prob: 0.0,
            latency: Gaussian::new(0.0, 0.0),
            deadline: f64::INFINITY,
        }
    }

    /// An uplink with the given loss probability, latency distribution and
    /// deadline.
    ///
    /// # Panics
    ///
    /// Panics if `loss_prob` is not a probability or `deadline` is
    /// negative/NaN.
    pub fn new(loss_prob: f64, latency: Gaussian, deadline: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&loss_prob),
            "loss probability out of range: {loss_prob}"
        );
        assert!(
            deadline >= 0.0 && !deadline.is_nan(),
            "deadline must be non-negative"
        );
        Self {
            loss_prob,
            latency,
            deadline,
        }
    }

    /// Checks every field, rejecting out-of-range values.
    ///
    /// [`Uplink::new`] already refuses bad values, but an `Uplink` can also
    /// arrive with its public fields filled in directly (deserialized from
    /// a config file, built by the [`crate::spec`] parser): this is the
    /// gate such a value must pass before it touches the data path.
    pub fn validate(&self) -> Result<(), ConfigError> {
        check_probability("loss_prob", self.loss_prob)?;
        if !self.latency.mean.is_finite() || !self.latency.std.is_finite() {
            return Err(ConfigError::new(format!(
                "latency distribution must be finite, got N({}, {}²)",
                self.latency.mean, self.latency.std
            )));
        }
        if self.latency.std < 0.0 {
            return Err(ConfigError::new(format!(
                "latency standard deviation must be non-negative, got {}",
                self.latency.std
            )));
        }
        if self.deadline.is_nan() || self.deadline < 0.0 {
            return Err(ConfigError::new(format!(
                "deadline must be non-negative seconds, got {}",
                self.deadline
            )));
        }
        Ok(())
    }

    /// Delivers one grouping sampling over the uplink: each responding
    /// node's column survives only if its message is neither lost nor
    /// late. Returns the sampling as seen by the base station, plus the
    /// per-node delivery latencies (`None` = not delivered).
    pub fn deliver<R: Rng + ?Sized>(
        &self,
        group: &GroupSampling,
        rng: &mut R,
    ) -> (GroupSampling, Vec<Option<f64>>) {
        let mut out = group.clone();
        let mut latencies = Vec::with_capacity(group.node_count());
        for j in 0..group.node_count() {
            if !group.node_responded(j) {
                latencies.push(None);
                continue;
            }
            let lost = self.loss_prob > 0.0 && rng.gen::<f64>() < self.loss_prob;
            let latency = self.latency.sample(rng).max(0.0);
            if lost || latency > self.deadline {
                for t in 0..group.instants() {
                    out.set(t, j, None);
                }
                latencies.push(None);
            } else {
                latencies.push(Some(latency));
            }
        }
        (out, latencies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use wsn_signal::Rss;

    fn rng(seed: u64) -> rand_chacha::ChaCha8Rng {
        rand_chacha::ChaCha8Rng::seed_from_u64(seed)
    }

    fn full_group(nodes: usize, k: usize) -> GroupSampling {
        let mut g = GroupSampling::empty(nodes, k);
        for t in 0..k {
            for j in 0..nodes {
                g.set(t, j, Some(Rss::new(-50.0 - j as f64)));
            }
        }
        g
    }

    #[test]
    fn ideal_uplink_is_transparent() {
        let g = full_group(4, 3);
        let (out, lat) = Uplink::ideal().deliver(&g, &mut rng(1));
        assert_eq!(out, g);
        assert!(lat.iter().all(|l| *l == Some(0.0)));
    }

    #[test]
    fn loss_clears_whole_columns() {
        let g = full_group(10, 4);
        let link = Uplink::new(0.5, Gaussian::new(0.0, 0.0), f64::INFINITY);
        let (out, lat) = link.deliver(&g, &mut rng(2));
        for (j, l) in lat.iter().enumerate() {
            let delivered = out.node_responded(j);
            assert_eq!(delivered, l.is_some());
            if !delivered {
                // All-or-nothing per column.
                assert!(out.column(j).all(|r| r.is_none()));
            }
        }
        // With p = 0.5 over 10 nodes, some but not all should get through.
        let through = (0..10).filter(|&j| out.node_responded(j)).count();
        assert!(through > 0 && through < 10, "through = {through}");
    }

    #[test]
    fn deadline_discards_late_messages() {
        let g = full_group(50, 2);
        // Mean latency 100 ms ± 50 ms, deadline 100 ms: ~half arrive late.
        let link = Uplink::new(0.0, Gaussian::new(0.1, 0.05), 0.1);
        let (out, lat) = link.deliver(&g, &mut rng(3));
        let on_time = (0..50).filter(|&j| out.node_responded(j)).count();
        assert!(on_time > 10 && on_time < 40, "on-time = {on_time}");
        for l in lat.iter().flatten() {
            assert!(*l <= 0.1 && *l >= 0.0);
        }
    }

    #[test]
    fn silent_nodes_stay_silent() {
        let mut g = full_group(3, 2);
        for t in 0..2 {
            g.set(t, 1, None);
        }
        let (out, lat) = Uplink::ideal().deliver(&g, &mut rng(4));
        assert!(!out.node_responded(1));
        assert_eq!(lat[1], None);
    }

    #[test]
    fn loss_rate_statistics() {
        let g = full_group(1, 1);
        let link = Uplink::new(0.2, Gaussian::new(0.0, 0.0), f64::INFINITY);
        let mut r = rng(5);
        let trials = 50_000;
        let lost = (0..trials)
            .filter(|_| {
                let (out, _) = link.deliver(&g, &mut r);
                !out.node_responded(0)
            })
            .count() as f64
            / trials as f64;
        assert!((lost - 0.2).abs() < 0.01, "loss rate {lost}");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_loss_prob_rejected() {
        let _ = Uplink::new(1.5, Gaussian::new(0.0, 0.0), 1.0);
    }
}
