//! Differential suite for the coarse-to-fine chunk index: `match_indexed`
//! must return the **bit-identical** outcome of `match_exhaustive` — same
//! winning face, same similarity bits, same complete tie set — over random
//! deployments and every query shape the matchers accept, and the chunk
//! envelope lower bound that justifies its pruning must never exceed the
//! true distance of any member face, for ternary and extended queries, at
//! any dimension up to 1000.

use fttt::matching::{match_exhaustive, match_indexed};
use fttt::vector::{PackedQuery, SamplingVector, SignaturePlanes, SignatureVector};
use fttt::FaceMap;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wsn_geometry::{Point, Rect};

fn arb_positions(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        (1.0..99.0f64, 1.0..99.0f64).prop_map(|(x, y)| Point::new(x, y)),
        n,
    )
}

/// A random ternary sampling vector (components in {−1, 0, +1, *}).
fn random_ternary<R: Rng + ?Sized>(dim: usize, rng: &mut R) -> SamplingVector {
    SamplingVector::new(
        (0..dim)
            .map(|_| match rng.gen_range(0..4) {
                0 => Some(-1.0),
                1 => Some(0.0),
                2 => Some(1.0),
                _ => None,
            })
            .collect(),
    )
}

/// A random extended vector that also hits the exact values −1, 0 and +1
/// (the ordinal pairs of a real extended sampling) and `*`, with at least
/// one fractional component so the query stays extended.
fn random_mixed_extended<R: Rng + ?Sized>(dim: usize, rng: &mut R) -> SamplingVector {
    let mut comps: Vec<Option<f64>> = (0..dim)
        .map(|_| match rng.gen_range(0..5) {
            0 => None,
            1 => Some(-1.0),
            2 => Some(0.0),
            3 => Some(1.0),
            _ => Some(rng.gen_range(-1.0..=1.0f64)),
        })
        .collect();
    comps[rng.gen_range(0..dim)] = Some(0.5);
    SamplingVector::new(comps)
}

/// A random extended sampling vector (components anywhere in [−1, 1] or *).
fn random_extended<R: Rng + ?Sized>(dim: usize, rng: &mut R) -> SamplingVector {
    SamplingVector::new(
        (0..dim)
            .map(|_| {
                if rng.gen_range(0..5) == 0 {
                    None
                } else {
                    Some(rng.gen_range(-1.0..=1.0f64))
                }
            })
            .collect(),
    )
}

/// Asserts the indexed outcome is the exhaustive outcome, bit for bit.
fn assert_identical(map: &FaceMap, v: &SamplingVector, what: &str) {
    let ex = match_exhaustive(map, v);
    let ix = match_indexed(map, v);
    assert_eq!(ix.face, ex.face, "{what}: winner differs");
    assert_eq!(
        ix.similarity.to_bits(),
        ex.similarity.to_bits(),
        "{what}: similarity differs ({} vs {})",
        ix.similarity,
        ex.similarity
    );
    assert_eq!(ix.ties, ex.ties, "{what}: tie set differs");
    assert!(
        ix.evaluated <= ex.evaluated,
        "{what}: index evaluated {} > scan's {}",
        ix.evaluated,
        ex.evaluated
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random deployments, random ternary queries: the index is a drop-in
    /// replacement for the exhaustive scan.
    #[test]
    fn indexed_is_bit_identical_on_ternary_queries(
        positions in arb_positions(2..12),
        seed in 0u64..10_000,
    ) {
        let map = FaceMap::build(&positions, Rect::square(100.0), 1.15, 2.0);
        prop_assert!(map.planes().has_chunks());
        let dim = map.pair_dimension();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..8 {
            assert_identical(&map, &random_ternary(dim, &mut rng), "ternary");
        }
        // Exact face signatures: unique zero-distance winners exercise
        // the hardest pruning (every other chunk bound must exceed 0).
        for f in map.faces().iter().step_by(1 + map.face_count() / 8) {
            let v = SamplingVector::new(
                map.signature(f.id).iter().map(|&c| Some(c as f64)).collect(),
            );
            assert_identical(&map, &v, "exact signature");
        }
    }

    /// Extended queries (real-valued bounds over the same index) and the
    /// all-star vector of a zero-live-node round (every component `*`,
    /// everything ties).
    #[test]
    fn indexed_is_bit_identical_on_extended_and_all_star_queries(
        positions in arb_positions(2..10),
        seed in 0u64..10_000,
    ) {
        let map = FaceMap::build(&positions, Rect::square(100.0), 1.15, 2.0);
        let dim = map.pair_dimension();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..4 {
            assert_identical(&map, &random_extended(dim, &mut rng), "extended");
            assert_identical(&map, &random_mixed_extended(dim, &mut rng), "mixed extended");
        }
        let all_star = SamplingVector::new(vec![None; dim]);
        assert_identical(&map, &all_star, "all-star");
        let ix = match_indexed(&map, &all_star);
        prop_assert_eq!(ix.ties.len(), map.face_count());
    }

    /// The envelope lower bounds are sound at every dimension 1..=1000:
    /// for random signatures, random two-level chunkings, and random
    /// ternary and extended queries, `super_lower_bound(s) ≤
    /// chunk_lower_bound(c) ≤ d²(f)` for every leaf chunk `c` under
    /// super-chunk `s` and every face `f` in `c`, and a one-face chunk's
    /// bound is that face's d². (These are the invariants the two-level
    /// prune rests on; FaceMaps cap out near dim ≈ 60 in this suite, so
    /// the planes are driven directly.) All values are nonnegative
    /// `f64`s, whose bit patterns order like their values, so comparing
    /// `to_bits` checks the inequalities exactly, with no tolerance.
    #[test]
    fn chunk_lower_bound_is_sound_at_any_dimension(
        dim in 1usize..=1000,
        faces in 1usize..24,
        chunks in 1u32..6,
        supers in 1u32..3,
        seed in 0u64..10_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let sigs: Vec<SignatureVector> = (0..faces)
            .map(|_| {
                SignatureVector::new((0..dim).map(|_| rng.gen_range(-1i8..=1)).collect())
            })
            .collect();
        let mut planes = SignaturePlanes::from_signatures(dim, sigs.iter());
        // Random leaf keys, each nested under a random (but per-leaf
        // consistent) super key, as build_chunks requires.
        let leaf_super: Vec<u32> =
            (0..chunks).map(|_| rng.gen_range(0..supers)).collect();
        let leaf_of: Vec<u32> =
            (0..faces).map(|_| rng.gen_range(0..chunks)).collect();
        let super_of: Vec<u32> =
            leaf_of.iter().map(|&c| leaf_super[c as usize]).collect();
        planes.build_chunks(&leaf_of, &super_of);
        let queries = [
            random_ternary(dim, &mut rng),
            random_ternary(dim, &mut rng),
            random_extended(dim, &mut rng),
            random_mixed_extended(dim, &mut rng),
            random_mixed_extended(dim, &mut rng),
        ];
        for v in &queries {
            let q = PackedQuery::new(v);
            for s in 0..planes.super_count() {
                let sb = planes.super_lower_bound(s, &q);
                prop_assert!(sb.is_sign_positive());
                for c in planes.super_chunks(s) {
                    let lb = planes.chunk_lower_bound(c, &q);
                    prop_assert!(
                        sb.to_bits() <= lb.to_bits(),
                        "dim {} super {} chunk {}: super bound {} > leaf bound {}",
                        dim, s, c, sb, lb
                    );
                    let members = planes.chunk_faces(c);
                    for &f in members {
                        let d2 = planes.distance_squared(f as usize, &q);
                        prop_assert!(
                            lb.to_bits() <= d2.to_bits(),
                            "dim {} chunk {} face {}: bound {} > distance {}",
                            dim, c, f, lb, d2
                        );
                        if members.len() == 1 {
                            prop_assert_eq!(lb.to_bits(), d2.to_bits());
                        }
                    }
                }
            }
        }
    }
}

/// A ~1000-dimensional *map* (46 nodes, C(46,2) = 1035 pairs) through the
/// full build-and-match path, on a coarse grid to keep the build cheap.
#[test]
fn indexed_matches_at_thousand_dimensions() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let positions: Vec<Point> = (0..46)
        .map(|_| Point::new(rng.gen_range(1.0..99.0), rng.gen_range(1.0..99.0)))
        .collect();
    let map = FaceMap::build(&positions, Rect::square(100.0), 1.15, 5.0);
    assert_eq!(map.pair_dimension(), 1035);
    assert!(map.planes().has_chunks());
    let dim = map.pair_dimension();
    for _ in 0..4 {
        assert_identical(&map, &random_ternary(dim, &mut rng), "dim-1035 ternary");
    }
    for _ in 0..2 {
        assert_identical(
            &map,
            &random_mixed_extended(dim, &mut rng),
            "dim-1035 extended",
        );
    }
    let f = &map.faces()[map.face_count() / 2];
    let v = SamplingVector::new(
        map.signature(f.id)
            .iter()
            .map(|&c| Some(c as f64))
            .collect(),
    );
    assert_identical(&map, &v, "dim-1035 exact signature");
}

/// Degenerate map with a single face: the index must return it for any
/// query without panicking, exactly like the scan.
#[test]
fn degenerate_one_face_map() {
    let far = vec![Point::new(10_000.0, 50.0), Point::new(10_010.0, 50.0)];
    let map = FaceMap::build(&far, Rect::square(100.0), 1.15, 5.0);
    assert_eq!(map.face_count(), 1);
    for v in [
        SamplingVector::new(vec![Some(1.0)]),
        SamplingVector::new(vec![Some(-1.0)]),
        SamplingVector::new(vec![None]),
        SamplingVector::new(vec![Some(0.25)]),
    ] {
        assert_identical(&map, &v, "one-face map");
    }
}
