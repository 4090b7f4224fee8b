//! One-shot detection sequences, the input of the certain-sequence
//! baselines.

use fttt::sampling::basic_sampling_vector_over;
use fttt::vector::SamplingVector;
use wsn_network::GroupSampling;

/// Builds the pairwise vector a certain-sequence method sees from a
/// **single** sampling instant (the latest of the grouping window — the
/// freshest reading available at localization time).
///
/// Pair rules mirror the fault handling of FTTT so the comparison stays
/// fair: both readings present → `+1`/`−1` by RSS order (`0` only on an
/// exact tie); one present → `±1` toward the responder; neither → `*`.
/// What distinguishes the baseline is what it *lacks*: with one sample
/// there is no flip evidence, so a target inside an uncertain area gets an
/// arbitrary — and over time, flapping — hard order.
///
/// # Panics
///
/// Panics if `group` has fewer than two node columns.
pub fn one_shot_vector(group: &GroupSampling) -> SamplingVector {
    let last = group.instants() - 1;
    basic_sampling_vector_over(group, last..last + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_signal::Rss;

    fn matrix(rows: Vec<Vec<Option<f64>>>) -> GroupSampling {
        GroupSampling::from_rows(
            rows.into_iter()
                .map(|r| r.into_iter().map(|v| v.map(Rss::new)).collect())
                .collect(),
        )
    }

    #[test]
    fn uses_only_the_last_instant() {
        // Earlier instants say n0 < n1; the last says n0 > n1. One-shot
        // must follow the last.
        let g = matrix(vec![
            vec![Some(-60.0), Some(-50.0)],
            vec![Some(-61.0), Some(-49.0)],
            vec![Some(-45.0), Some(-55.0)],
        ]);
        assert_eq!(one_shot_vector(&g).component(0), Some(1.0));
    }

    #[test]
    fn missing_node_rules() {
        let g = matrix(vec![vec![Some(-50.0), None, Some(-60.0)]]);
        let v = one_shot_vector(&g);
        // Pairs (0,1), (0,2), (1,2).
        assert_eq!(v.component(0), Some(1.0));
        assert_eq!(v.component(1), Some(1.0));
        assert_eq!(v.component(2), Some(-1.0));
    }

    #[test]
    fn both_missing_is_star() {
        let g = matrix(vec![vec![None, None]]);
        assert_eq!(one_shot_vector(&g).component(0), None);
    }

    #[test]
    fn exact_tie_is_zero() {
        let g = matrix(vec![vec![Some(-50.0), Some(-50.0)]]);
        assert_eq!(one_shot_vector(&g).component(0), Some(0.0));
    }
}
