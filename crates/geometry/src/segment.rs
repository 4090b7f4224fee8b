//! Line segments (mobility path legs).

use crate::point::{Point, Vector};

/// A directed line segment from `start` to `end`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Start point.
    pub start: Point,
    /// End point.
    pub end: Point,
}

impl Segment {
    /// Creates a segment.
    #[inline]
    pub const fn new(start: Point, end: Point) -> Self {
        Self { start, end }
    }

    /// Segment length.
    #[inline]
    pub fn length(&self) -> f64 {
        self.start.distance(self.end)
    }

    /// Displacement from start to end.
    #[inline]
    pub fn direction(&self) -> Vector {
        self.end - self.start
    }

    /// Point at parameter `t ∈ [0, 1]` (clamped).
    #[inline]
    pub fn point_at(&self, t: f64) -> Point {
        self.start.lerp(self.end, t.clamp(0.0, 1.0))
    }

    /// Point at arc-length `s` metres from the start (clamped to the
    /// segment). For zero-length segments returns `start`.
    pub fn point_at_distance(&self, s: f64) -> Point {
        let len = self.length();
        if len <= f64::EPSILON {
            self.start
        } else {
            self.point_at(s / len)
        }
    }

    /// Shortest distance from point `p` to the segment.
    pub fn distance_to_point(&self, p: Point) -> f64 {
        let d = self.direction();
        let len2 = d.norm_squared();
        if len2 <= f64::EPSILON {
            return self.start.distance(p);
        }
        let t = ((p - self.start).dot(d) / len2).clamp(0.0, 1.0);
        self.point_at(t).distance(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_and_direction() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(3.0, 4.0));
        assert_eq!(s.length(), 5.0);
        assert_eq!(s.direction(), Vector::new(3.0, 4.0));
    }

    #[test]
    fn point_at_clamps() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        assert_eq!(s.point_at(0.5), Point::new(5.0, 0.0));
        assert_eq!(s.point_at(-1.0), s.start);
        assert_eq!(s.point_at(2.0), s.end);
    }

    #[test]
    fn point_at_distance_walks_arc_length() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(3.0, 4.0));
        let p = s.point_at_distance(2.5);
        assert!((s.start.distance(p) - 2.5).abs() < 1e-12);
        // Clamped beyond the end.
        assert_eq!(s.point_at_distance(100.0), s.end);
        // Degenerate segment.
        let z = Segment::new(Point::new(1.0, 1.0), Point::new(1.0, 1.0));
        assert_eq!(z.point_at_distance(5.0), z.start);
    }

    #[test]
    fn distance_to_point_cases() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        // Perpendicular foot inside the segment.
        assert!((s.distance_to_point(Point::new(5.0, 3.0)) - 3.0).abs() < 1e-12);
        // Beyond the end: distance to endpoint.
        assert!((s.distance_to_point(Point::new(13.0, 4.0)) - 5.0).abs() < 1e-12);
        // Before the start.
        assert!((s.distance_to_point(Point::new(-3.0, 4.0)) - 5.0).abs() < 1e-12);
    }
}
