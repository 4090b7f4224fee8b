//! Differential suite for Algorithm 1's order-set kernel: the basic and
//! extended sampling vectors must be **bit-identical** to a scalar port of
//! the per-pair evidence rule (count the instants where both nodes read
//! and `rss_i > rss_j`, `<`, or tie; eq. 6 for silent nodes) — every
//! component's bits, the packed kind and planes, and the outcome of every
//! matcher — over random groupings with silent nodes, dropped readings,
//! exact ties, signed zeros, multiword node sets (n up to 200) and any
//! number of instants (k up to 70). A churned map's live-column kernel must
//! equal the projection of the full vector.

use fttt::matching::{match_heuristic, match_indexed, MatchOutcome};
use fttt::sampling::{basic_sampling_vector, basic_sampling_vector_over, extended_sampling_vector};
use fttt::{FaceMap, RepairMode, SamplingVector, Tracker, TrackerOptions};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::{Arc, OnceLock};
use wsn_geometry::{Point, Rect};
use wsn_network::{GroupSampling, PairIter};
use wsn_signal::Rss;

/// The order evidence a grouping holds for one node pair.
#[derive(Default)]
struct PairEvidence {
    sequential: usize,
    reverse: usize,
    ties: usize,
}

impl PairEvidence {
    fn gather(group: &GroupSampling, i: usize, j: usize) -> Self {
        let mut ev = Self::default();
        for t in 0..group.instants() {
            if let (Some(a), Some(b)) = (group.get(t, i), group.get(t, j)) {
                if a > b {
                    ev.sequential += 1;
                } else if a < b {
                    ev.reverse += 1;
                } else {
                    ev.ties += 1;
                }
            }
        }
        ev
    }
}

/// The reference components, pair by pair.
fn reference(group: &GroupSampling, extended: bool) -> Vec<Option<f64>> {
    PairIter::new(group.node_count())
        .map(
            |(i, j)| match (group.node_responded(i), group.node_responded(j)) {
                (true, true) => {
                    let ev = PairEvidence::gather(group, i, j);
                    let common = ev.sequential + ev.reverse + ev.ties;
                    Some(if extended {
                        if common == 0 {
                            0.0
                        } else {
                            (ev.sequential as f64 - ev.reverse as f64) / common as f64
                        }
                    } else if ev.sequential > 0 && ev.reverse == 0 && ev.ties == 0 {
                        1.0
                    } else if ev.reverse > 0 && ev.sequential == 0 && ev.ties == 0 {
                        -1.0
                    } else {
                        0.0
                    })
                }
                (true, false) => Some(1.0),
                (false, true) => Some(-1.0),
                (false, false) => None,
            },
        )
        .collect()
}

/// A random `k × n` grouping. Each node is silent with probability
/// `silent` and each of its readings drops with probability `drop`.
/// Readings are a per-node level plus noise, rounded to a `step` of 0 (no
/// rounding), ½ or 1 dBm, or 4 dBm (coarse rounding forces exact ties);
/// a `near_zero` grouping reads around 0 dBm and writes every zero with a
/// random sign.
fn random_grouping(n: usize, k: usize, seed: u64) -> GroupSampling {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let silent = [0.0, 0.1, 0.5][rng.gen_range(0..3)];
    let drop = [0.0, 0.2, 0.6][rng.gen_range(0..3)];
    let step = [0.0, 0.5, 1.0, 4.0][rng.gen_range(0..4)];
    let near_zero = rng.gen_range(0..4) == 0;
    let (lo, hi, noise) = if near_zero {
        (-1.0, 1.0, 2.0)
    } else {
        (-90.0, -40.0, 6.0)
    };
    let level: Vec<f64> = (0..n).map(|_| rng.gen_range(lo..hi)).collect();
    let heard: Vec<bool> = (0..n).map(|_| !rng.gen_bool(silent)).collect();
    let mut group = GroupSampling::empty(n, k);
    for t in 0..k {
        for j in 0..n {
            if !heard[j] || rng.gen_bool(drop) {
                continue;
            }
            let mut x = level[j] + rng.gen_range(-noise..noise);
            if step > 0.0 {
                x = (x / step).round() * step;
            }
            if x == 0.0 && rng.gen_bool(0.5) {
                x = -0.0;
            }
            group.set(t, j, Some(Rss::new(x)));
        }
    }
    group
}

/// Asserts the kernel's vector is the reference's, bit for bit and plane
/// for plane.
fn assert_identical(v: &SamplingVector, expected: Vec<Option<f64>>) -> Result<(), TestCaseError> {
    prop_assert_eq!(v.len(), expected.len());
    for (i, (got, want)) in v.iter().zip(&expected).enumerate() {
        prop_assert_eq!(
            got.map(f64::to_bits),
            want.map(f64::to_bits),
            "component {}: {:?} vs {:?}",
            i,
            got,
            want
        );
    }
    let packed = SamplingVector::new(expected);
    prop_assert_eq!(v.is_ternary(), packed.is_ternary());
    prop_assert_eq!(v, &packed);
    Ok(())
}

fn assert_same_outcome(a: &MatchOutcome, b: &MatchOutcome) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.face, b.face);
    prop_assert_eq!(a.similarity.to_bits(), b.similarity.to_bits());
    prop_assert_eq!(&a.ties, &b.ties);
    prop_assert_eq!(a.evaluated, b.evaluated);
    prop_assert_eq!(a.rounds, b.rounds);
    Ok(())
}

/// Small face maps to match against, built once: 6 and 12 sensors.
fn maps() -> &'static [FaceMap] {
    static MAPS: OnceLock<Vec<FaceMap>> = OnceLock::new();
    MAPS.get_or_init(|| {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        [6, 12]
            .map(|n| {
                let positions: Vec<Point> = (0..n)
                    .map(|_| Point::new(rng.gen_range(2.0..48.0), rng.gen_range(2.0..48.0)))
                    .collect();
                FaceMap::build(&positions, Rect::square(50.0), 1.15, 2.5)
            })
            .into()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn kernel_matches_the_pair_rule(
        n in prop_oneof![2usize..=12, 13usize..=80, 120usize..=200],
        k in prop_oneof![1usize..=9, 10usize..=70],
        seed in 0u64..u64::MAX,
    ) {
        let group = random_grouping(n, k, seed);
        assert_identical(&basic_sampling_vector(&group), reference(&group, false))?;
        assert_identical(&extended_sampling_vector(&group), reference(&group, true))?;
    }

    #[test]
    fn window_kernel_matches_the_cut_grouping(
        n in 2usize..=90,
        k in 1usize..=12,
        seed in 0u64..u64::MAX,
        cut in (0usize..12, 1usize..12),
    ) {
        let group = random_grouping(n, k, seed);
        let start = cut.0 % k;
        let end = (start + cut.1).min(k);
        let rows: Vec<Vec<Option<Rss>>> =
            (start..end).map(|t| group.row(t).to_vec()).collect();
        let cut_group = GroupSampling::from_rows(rows);
        assert_identical(
            &basic_sampling_vector_over(&group, start..end),
            reference(&cut_group, false),
        )?;
    }

    #[test]
    fn matchers_agree_with_the_reference_vector(
        which in 0usize..2,
        k in 1usize..=9,
        seed in 0u64..u64::MAX,
        extended in any_bool(),
    ) {
        let map = &maps()[which];
        let group = random_grouping(map.positions().len(), k, seed);
        let v = if extended {
            extended_sampling_vector(&group)
        } else {
            basic_sampling_vector(&group)
        };
        let r = SamplingVector::new(reference(&group, extended));
        assert_same_outcome(&match_indexed(map, &v), &match_indexed(map, &r))?;
        let start = map.center_face();
        assert_same_outcome(&match_heuristic(map, &v, start), &match_heuristic(map, &r, start))?;
    }

    #[test]
    fn live_columns_equal_the_projection(
        kill in 0usize..12,
        revive in 0usize..12,
        k in 1usize..=9,
        seed in 0u64..u64::MAX,
        extended in any_bool(),
    ) {
        let mut map = maps()[1].clone();
        let n = map.positions().len();
        map.kill_node(kill % n, RepairMode::Incremental);
        let other = revive % n;
        if other != kill % n {
            map.kill_node(other, RepairMode::Incremental);
            map.revive_node(other, RepairMode::Incremental);
        }
        let group = random_grouping(n, k, seed);
        let full = if extended {
            extended_sampling_vector(&group)
        } else {
            basic_sampling_vector(&group)
        };
        let projected = map.project_sampling_vector(full);
        let options = TrackerOptions { extended, ..TrackerOptions::default() };
        let tracker = Tracker::shared(Arc::new(map), options);
        let live = tracker.sampling_vector(&group);
        prop_assert_eq!(live.len(), tracker.map().pair_dimension());
        assert_identical(&live, projected.iter().collect())?;
    }
}

fn any_bool() -> impl Strategy<Value = bool> {
    (0u8..2).prop_map(|b| b == 1)
}
