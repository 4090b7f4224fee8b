//! Circles of Apollonius and pairwise uncertain-region classification.
//!
//! For a node pair `(a, b)` the paper derives (Section 3.2) that RSS readings
//! of the two nodes cannot be reliably ordered whenever the distance ratio
//! `d(p, a) / d(p, b)` lies within `[1/C, C]`, where `C > 1` is the
//! *uncertainty constant* computed from the radio model (eq. 3, provided by
//! `wsn-signal`). The two boundary loci `d(p,a)/d(p,b) = 1/C` and `= C` are
//! circles of Apollonius (eq. 4, Fig. 2); the band between them — containing
//! the perpendicular bisector — is the pair's **uncertain area**.
//!
//! This module provides:
//!
//! * [`apollonius_circle`] — the Apollonius circle for an arbitrary pair and
//!   ratio (the paper derives only the symmetric `(±d, 0)` case; deployments
//!   are arbitrary, so we need the general form),
//! * [`PairRegion`] / [`PairRegion::classify`] — the `sqrt`-free three-way
//!   classification used when rasterizing faces,
//! * [`UncertainBoundary`] — both boundary circles of a pair, for
//!   visualization and geometric queries.

use crate::circle::Circle;
use crate::point::Point;

/// Where a point lies relative to a node pair's uncertain area.
///
/// `NearFirst` means firmly nearer to the first node of the pair (the paper
/// assigns such points the signature component `+1`, with "first" being the
/// smaller node ID); `NearSecond` is the symmetric case (`-1`); `Uncertain`
/// is the band between the two Apollonius circles (`0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PairRegion {
    /// `d(p,a)/d(p,b) < 1/C`: the RSS order is reliably `a` before `b`.
    NearFirst,
    /// `1/C ≤ d(p,a)/d(p,b) ≤ C`: the order may flip between samples.
    Uncertain,
    /// `d(p,a)/d(p,b) > C`: the order is reliably `b` before `a`.
    NearSecond,
}

impl PairRegion {
    /// Classifies point `p` against the pair `(a, b)` with uncertainty
    /// constant `c ≥ 1`.
    ///
    /// Expressed entirely in squared distances, so it costs two
    /// subtractions, four multiplies and two compares per call — this is the
    /// inner loop of face-map rasterization (`cells × pairs` calls).
    ///
    /// With `c == 1` the uncertain band degenerates to the perpendicular
    /// bisector itself, which models the *certain*-sequence baselines.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `c < 1` or `c` is not finite.
    #[inline]
    pub fn classify(p: Point, a: Point, b: Point, c: f64) -> PairRegion {
        debug_assert!(
            c.is_finite() && c >= 1.0,
            "uncertainty constant must be ≥ 1"
        );
        let da2 = p.distance_squared(a);
        let db2 = p.distance_squared(b);
        let c2 = c * c;
        // ratio < 1/C  ⟺  da²·C² < db²     (firmly nearer to a)
        if da2 * c2 < db2 {
            PairRegion::NearFirst
        // ratio > C    ⟺  da² > C²·db²     (firmly nearer to b)
        } else if da2 > c2 * db2 {
            PairRegion::NearSecond
        } else {
            PairRegion::Uncertain
        }
    }

    /// The classification seen when the pair is enumerated in the opposite
    /// order (`NearFirst` ↔ `NearSecond`).
    #[inline]
    pub fn flipped(self) -> PairRegion {
        match self {
            PairRegion::NearFirst => PairRegion::NearSecond,
            PairRegion::Uncertain => PairRegion::Uncertain,
            PairRegion::NearSecond => PairRegion::NearFirst,
        }
    }

    /// The signature-vector component for this region (Definition 6):
    /// `+1`, `0`, or `-1`.
    #[inline]
    pub fn signature_component(self) -> i8 {
        match self {
            PairRegion::NearFirst => 1,
            PairRegion::Uncertain => 0,
            PairRegion::NearSecond => -1,
        }
    }
}

/// The Apollonius circle `{ p : d(p,a)/d(p,b) = k }` for `k > 0`, `k ≠ 1`.
///
/// Centre `(a − k²·b) / (1 − k²)` and radius `k·|ab| / |1 − k²|`. For
/// `k < 1` the circle encloses `a`; for `k > 1` it encloses `b`. Returns
/// `None` when `k == 1` (the locus is the perpendicular bisector, not a
/// circle) or when the inputs are degenerate (`a == b`, or non-positive /
/// non-finite `k`).
///
/// ```
/// use wsn_geometry::{apollonius_circle, Point};
///
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(10.0, 0.0);
/// let circle = apollonius_circle(a, b, 0.5).unwrap();
/// // Every point on the circle is twice as close to `a` as to `b`.
/// let p = circle.point_at(1.0);
/// assert!((p.distance(a) / p.distance(b) - 0.5).abs() < 1e-9);
/// assert!(apollonius_circle(a, b, 1.0).is_none()); // bisector, not a circle
/// ```
pub fn apollonius_circle(a: Point, b: Point, k: f64) -> Option<Circle> {
    if !k.is_finite() || k <= 0.0 {
        return None;
    }
    let ab = b - a;
    let d = ab.norm();
    if d <= f64::EPSILON {
        return None;
    }
    let k2 = k * k;
    let denom = 1.0 - k2;
    if denom.abs() <= f64::EPSILON {
        return None;
    }
    let cx = (a.x - k2 * b.x) / denom;
    let cy = (a.y - k2 * b.y) / denom;
    let radius = k * d / denom.abs();
    Some(Circle::new(Point::new(cx, cy), radius))
}

/// Both Apollonius circles bounding a pair's uncertain area (Definition 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UncertainBoundary {
    /// First node of the pair.
    pub a: Point,
    /// Second node of the pair.
    pub b: Point,
    /// Uncertainty constant `C > 1`.
    pub c: f64,
    /// Circle `d(p,a)/d(p,b) = 1/C`; its interior is the `NearFirst` region.
    pub near_first: Circle,
    /// Circle `d(p,a)/d(p,b) = C`; its interior is the `NearSecond` region.
    pub near_second: Circle,
}

impl UncertainBoundary {
    /// Builds the boundary for pair `(a, b)` and constant `c`.
    ///
    /// Returns `None` for `c ≤ 1` (no band — use
    /// [`PairRegion::classify`] with `c = 1` for the bisector-only model) or
    /// coincident nodes.
    pub fn new(a: Point, b: Point, c: f64) -> Option<Self> {
        if !c.is_finite() || c <= 1.0 {
            return None;
        }
        let near_first = apollonius_circle(a, b, 1.0 / c)?;
        let near_second = apollonius_circle(a, b, c)?;
        Some(Self {
            a,
            b,
            c,
            near_first,
            near_second,
        })
    }

    /// Classifies `p` (must agree with [`PairRegion::classify`]).
    pub fn classify(&self, p: Point) -> PairRegion {
        PairRegion::classify(p, self.a, self.b, self.c)
    }

    /// Width of the uncertain band along the segment `a..b`, in metres:
    /// the gap between the two circles on the line through the nodes.
    ///
    /// This is the quantity that grows with `C` and shrinks as the pair
    /// moves apart *relative to their separation* (Fig. 3's transition from
    /// thin bands to bands swallowing all certain faces).
    pub fn band_width_on_axis(&self) -> f64 {
        let d = self.a.distance(self.b);
        // On the axis, the NearFirst circle crosses at distance d/(C+1)·C… —
        // derive from the ratio directly: points x ∈ [0, d] from a, ratio
        // x/(d-x) = 1/C  ⟹  x = d/(C+1); ratio = C ⟹ x = dC/(C+1).
        let x_lo = d / (self.c + 1.0);
        let x_hi = d * self.c / (self.c + 1.0);
        x_hi - x_lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper eq. (4): nodes at (±d, 0) give a boundary circle with centre
    /// `((C²+1)/(C²−1)·d, 0)` (on one side) and radius `2Cd/(C²−1)`.
    #[test]
    fn matches_paper_symmetric_form() {
        let d = 7.5;
        let c = 1.4;
        let a = Point::new(d, 0.0);
        let b = Point::new(-d, 0.0);
        // Circle of points with d(p,a)/d(p,b) = C: encloses b (negative x side).
        let circ = apollonius_circle(a, b, c).unwrap();
        let c2 = c * c;
        let expect_cx = -(c2 + 1.0) / (c2 - 1.0) * d;
        let expect_r = 2.0 * c * d / (c2 - 1.0);
        assert!(
            (circ.center.x - expect_cx).abs() < 1e-9,
            "{} vs {expect_cx}",
            circ.center.x
        );
        assert!(circ.center.y.abs() < 1e-12);
        assert!((circ.radius - expect_r).abs() < 1e-9);
        // And the mirror circle for ratio 1/C encloses a, symmetrically.
        let mirror = apollonius_circle(a, b, 1.0 / c).unwrap();
        assert!((mirror.center.x + expect_cx).abs() < 1e-9);
        assert!((mirror.radius - expect_r).abs() < 1e-9);
    }

    #[test]
    fn circle_points_have_the_claimed_ratio() {
        let a = Point::new(2.0, 3.0);
        let b = Point::new(-4.0, 1.0);
        for &k in &[0.3, 0.8, 1.7, 4.0] {
            let circ = apollonius_circle(a, b, k).unwrap();
            for i in 0..16 {
                let theta = i as f64 * std::f64::consts::PI / 8.0;
                let p = circ.point_at(theta);
                let ratio = p.distance(a) / p.distance(b);
                assert!(
                    (ratio - k).abs() < 1e-6,
                    "k={k} theta={theta}: ratio {ratio}"
                );
            }
        }
    }

    #[test]
    fn degenerate_inputs_yield_none() {
        let a = Point::new(1.0, 1.0);
        let b = Point::new(5.0, -2.0);
        assert!(apollonius_circle(a, b, 1.0).is_none());
        assert!(apollonius_circle(a, a, 2.0).is_none());
        assert!(apollonius_circle(a, b, 0.0).is_none());
        assert!(apollonius_circle(a, b, -3.0).is_none());
        assert!(apollonius_circle(a, b, f64::NAN).is_none());
        assert!(UncertainBoundary::new(a, b, 1.0).is_none());
        assert!(UncertainBoundary::new(a, a, 2.0).is_none());
    }

    #[test]
    fn classify_three_regions_on_axis() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        let c = 1.5;
        // Right next to a: firmly near a.
        assert_eq!(
            PairRegion::classify(Point::new(1.0, 0.0), a, b, c),
            PairRegion::NearFirst
        );
        // Midpoint: ratio 1 ∈ [1/C, C] — uncertain.
        assert_eq!(
            PairRegion::classify(Point::new(5.0, 0.0), a, b, c),
            PairRegion::Uncertain
        );
        // Right next to b: firmly near b.
        assert_eq!(
            PairRegion::classify(Point::new(9.0, 0.0), a, b, c),
            PairRegion::NearSecond
        );
        // The band edges: x/(10−x) = 1/1.5 ⟹ x = 4, and x = 6 on the other side.
        assert_eq!(
            PairRegion::classify(Point::new(3.99, 0.0), a, b, c),
            PairRegion::NearFirst
        );
        assert_eq!(
            PairRegion::classify(Point::new(4.01, 0.0), a, b, c),
            PairRegion::Uncertain
        );
        assert_eq!(
            PairRegion::classify(Point::new(5.99, 0.0), a, b, c),
            PairRegion::Uncertain
        );
        assert_eq!(
            PairRegion::classify(Point::new(6.01, 0.0), a, b, c),
            PairRegion::NearSecond
        );
    }

    #[test]
    fn classify_c1_degenerates_to_bisector() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(4.0, 0.0);
        assert_eq!(
            PairRegion::classify(Point::new(1.9, 7.0), a, b, 1.0),
            PairRegion::NearFirst
        );
        assert_eq!(
            PairRegion::classify(Point::new(2.0, -3.0), a, b, 1.0),
            PairRegion::Uncertain
        );
        assert_eq!(
            PairRegion::classify(Point::new(2.1, 7.0), a, b, 1.0),
            PairRegion::NearSecond
        );
    }

    #[test]
    fn classify_agrees_with_boundary_circles() {
        let a = Point::new(-3.0, 2.0);
        let b = Point::new(6.0, -1.0);
        let c = 1.25;
        let ub = UncertainBoundary::new(a, b, c).unwrap();
        // Sample a lattice of points; circle membership must match classify.
        for ix in -20..=20 {
            for iy in -20..=20 {
                let p = Point::new(ix as f64 * 0.7, iy as f64 * 0.7);
                let expected = if ub.near_first.contains(p) {
                    PairRegion::NearFirst
                } else if ub.near_second.contains(p) {
                    PairRegion::NearSecond
                } else {
                    PairRegion::Uncertain
                };
                assert_eq!(ub.classify(p), expected, "at {p}");
            }
        }
    }

    #[test]
    fn flipped_is_involutive_and_consistent() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(5.0, 5.0);
        let c = 1.3;
        for ix in -10..=10 {
            for iy in -10..=10 {
                let p = Point::new(ix as f64, iy as f64);
                let fwd = PairRegion::classify(p, a, b, c);
                let rev = PairRegion::classify(p, b, a, c);
                assert_eq!(fwd.flipped(), rev);
                assert_eq!(fwd.flipped().flipped(), fwd);
            }
        }
    }

    #[test]
    fn signature_components() {
        assert_eq!(PairRegion::NearFirst.signature_component(), 1);
        assert_eq!(PairRegion::Uncertain.signature_component(), 0);
        assert_eq!(PairRegion::NearSecond.signature_component(), -1);
    }

    #[test]
    fn band_width_grows_with_c() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        let narrow = UncertainBoundary::new(a, b, 1.1)
            .unwrap()
            .band_width_on_axis();
        let wide = UncertainBoundary::new(a, b, 2.0)
            .unwrap()
            .band_width_on_axis();
        assert!(narrow < wide);
        // C = 1.5 on a 10 m pair: edges at 4 m and 6 m ⟹ 2 m band.
        let w = UncertainBoundary::new(a, b, 1.5)
            .unwrap()
            .band_width_on_axis();
        assert!((w - 2.0).abs() < 1e-9);
    }
}
