//! Circles with containment and intersection predicates.

use crate::point::Point;

/// A circle in the plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circle {
    /// Centre of the circle.
    pub center: Point,
    /// Radius in metres (non-negative).
    pub radius: f64,
}

impl Circle {
    /// Creates a circle; `radius` must be non-negative and finite.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative or not finite (a malformed radius here
    /// would silently corrupt every face classification downstream).
    pub fn new(center: Point, radius: f64) -> Self {
        assert!(
            radius.is_finite() && radius >= 0.0,
            "circle radius must be finite and non-negative, got {radius}"
        );
        Self { center, radius }
    }

    /// `true` if `p` lies strictly inside the circle.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        self.center.distance_squared(p) < self.radius * self.radius
    }

    /// `true` if `p` lies inside or on the circle.
    #[inline]
    pub fn contains_closed(&self, p: Point) -> bool {
        self.center.distance_squared(p) <= self.radius * self.radius
    }

    /// Signed distance from `p` to the circle boundary: negative inside,
    /// zero on the boundary, positive outside.
    #[inline]
    pub fn signed_distance(&self, p: Point) -> f64 {
        self.center.distance(p) - self.radius
    }

    /// `true` if the two circles intersect or touch (closed test).
    pub fn intersects(&self, other: &Circle) -> bool {
        let d2 = self.center.distance_squared(other.center);
        let rsum = self.radius + other.radius;
        let rdiff = (self.radius - other.radius).abs();
        d2 <= rsum * rsum && d2 >= rdiff * rdiff
    }

    /// Area of the disc.
    #[inline]
    pub fn area(&self) -> f64 {
        std::f64::consts::PI * self.radius * self.radius
    }

    /// Point on the circle at angle `theta` (radians, measured from +x).
    #[inline]
    pub fn point_at(&self, theta: f64) -> Point {
        Point::new(
            self.center.x + self.radius * theta.cos(),
            self.center.y + self.radius * theta.sin(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn containment_open_vs_closed() {
        let c = Circle::new(Point::new(0.0, 0.0), 2.0);
        let on_boundary = Point::new(2.0, 0.0);
        assert!(!c.contains(on_boundary));
        assert!(c.contains_closed(on_boundary));
        assert!(c.contains(Point::new(1.0, 1.0)));
        assert!(!c.contains(Point::new(2.0, 2.0)));
    }

    #[test]
    fn signed_distance_sign_convention() {
        let c = Circle::new(Point::new(1.0, 1.0), 1.0);
        assert!(c.signed_distance(Point::new(1.0, 1.0)) < 0.0);
        assert!((c.signed_distance(Point::new(2.0, 1.0))).abs() < 1e-12);
        assert!(c.signed_distance(Point::new(4.0, 1.0)) > 0.0);
    }

    #[test]
    fn intersection_cases() {
        let a = Circle::new(Point::new(0.0, 0.0), 1.0);
        // Overlapping.
        assert!(a.intersects(&Circle::new(Point::new(1.5, 0.0), 1.0)));
        // Externally tangent.
        assert!(a.intersects(&Circle::new(Point::new(2.0, 0.0), 1.0)));
        // Disjoint.
        assert!(!a.intersects(&Circle::new(Point::new(3.0, 0.0), 1.0)));
        // One strictly inside the other: boundaries do not meet.
        assert!(!a.intersects(&Circle::new(Point::new(0.0, 0.0), 0.25)));
        // Internally tangent.
        assert!(a.intersects(&Circle::new(Point::new(0.5, 0.0), 0.5)));
    }

    #[test]
    fn point_at_lies_on_boundary() {
        let c = Circle::new(Point::new(3.0, -1.0), 2.5);
        for i in 0..8 {
            let theta = i as f64 * std::f64::consts::FRAC_PI_4;
            let p = c.point_at(theta);
            assert!((c.center.distance(p) - c.radius).abs() < 1e-12);
        }
    }

    #[test]
    fn area_of_unit_circle() {
        let c = Circle::new(Point::ORIGIN, 1.0);
        assert!((c.area() - std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "radius must be finite")]
    fn negative_radius_rejected() {
        let _ = Circle::new(Point::ORIGIN, -1.0);
    }
}
