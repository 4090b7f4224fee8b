//! Axis-aligned rectangles (the monitored field, deployment regions).

use crate::point::Point;

/// An axis-aligned rectangle `[min.x, max.x] × [min.y, max.y]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Rect {
    /// Creates a rectangle from two opposite corners.
    ///
    /// # Panics
    ///
    /// Panics if the corners are not ordered (`min.x > max.x` etc.) or not
    /// finite.
    pub fn new(min: Point, max: Point) -> Self {
        assert!(
            min.is_finite() && max.is_finite(),
            "rect corners must be finite"
        );
        assert!(
            min.x <= max.x && min.y <= max.y,
            "rect corners must be ordered: {min} !<= {max}"
        );
        Self { min, max }
    }

    /// The paper's square field: `[0, side] × [0, side]` (Table 1 uses
    /// `side = 100` m).
    pub fn square(side: f64) -> Self {
        Rect::new(Point::ORIGIN, Point::new(side, side))
    }

    /// Width along x.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height along y.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Centre point.
    #[inline]
    pub fn center(&self) -> Point {
        self.min.midpoint(self.max)
    }

    /// Closed containment test.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Clamps `p` into the rectangle (used to keep mobility traces in-field).
    #[inline]
    pub fn clamp(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
        )
    }

    /// Smallest rectangle containing both `self` and `other`.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect::new(
            Point::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            Point::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        )
    }

    /// Smallest rectangle containing both `self` and the point `p`.
    pub fn union_point(&self, p: Point) -> Rect {
        Rect::new(
            Point::new(self.min.x.min(p.x), self.min.y.min(p.y)),
            Point::new(self.max.x.max(p.x), self.max.y.max(p.y)),
        )
    }

    /// A degenerate rectangle containing only `p`.
    pub fn point(p: Point) -> Rect {
        Rect::new(p, p)
    }

    /// Shortest distance between the two (closed) rectangles; zero if they
    /// touch or overlap.
    pub fn distance_to(&self, other: &Rect) -> f64 {
        let dx = (self.min.x - other.max.x)
            .max(other.min.x - self.max.x)
            .max(0.0);
        let dy = (self.min.y - other.max.y)
            .max(other.min.y - self.max.y)
            .max(0.0);
        (dx * dx + dy * dy).sqrt()
    }

    /// Grows the rectangle by `margin` on every side (negative shrinks).
    ///
    /// # Panics
    ///
    /// Panics if shrinking past a degenerate rectangle.
    pub fn inflate(&self, margin: f64) -> Rect {
        Rect::new(
            Point::new(self.min.x - margin, self.min.y - margin),
            Point::new(self.max.x + margin, self.max.y + margin),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_field_dimensions() {
        let f = Rect::square(100.0);
        assert_eq!(f.width(), 100.0);
        assert_eq!(f.height(), 100.0);
        assert_eq!(f.area(), 10_000.0);
        assert_eq!(f.center(), Point::new(50.0, 50.0));
    }

    #[test]
    fn containment_is_closed() {
        let r = Rect::new(Point::new(0.0, 0.0), Point::new(2.0, 3.0));
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(r.contains(Point::new(2.0, 3.0)));
        assert!(r.contains(Point::new(1.0, 1.5)));
        assert!(!r.contains(Point::new(-0.001, 1.0)));
        assert!(!r.contains(Point::new(1.0, 3.001)));
    }

    #[test]
    fn clamp_projects_outside_points() {
        let r = Rect::square(10.0);
        assert_eq!(r.clamp(Point::new(-5.0, 5.0)), Point::new(0.0, 5.0));
        assert_eq!(r.clamp(Point::new(12.0, 15.0)), Point::new(10.0, 10.0));
        let inside = Point::new(3.0, 4.0);
        assert_eq!(r.clamp(inside), inside);
    }

    #[test]
    fn inflate_grows_symmetrically() {
        let r = Rect::square(10.0).inflate(2.0);
        assert_eq!(r.min, Point::new(-2.0, -2.0));
        assert_eq!(r.max, Point::new(12.0, 12.0));
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn unordered_corners_rejected() {
        let _ = Rect::new(Point::new(1.0, 0.0), Point::new(0.0, 1.0));
    }

    #[test]
    fn union_covers_both() {
        let a = Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        let b = Rect::new(Point::new(2.0, -1.0), Point::new(3.0, 0.5));
        let u = a.union(&b);
        assert_eq!(u.min, Point::new(0.0, -1.0));
        assert_eq!(u.max, Point::new(3.0, 1.0));
        let up = a.union_point(Point::new(-2.0, 5.0));
        assert_eq!(up.min, Point::new(-2.0, 0.0));
        assert_eq!(up.max, Point::new(1.0, 5.0));
    }

    #[test]
    fn rect_distance_cases() {
        let a = Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        // Overlapping / touching: zero.
        assert_eq!(a.distance_to(&a), 0.0);
        let touching = Rect::new(Point::new(1.0, 0.0), Point::new(2.0, 1.0));
        assert_eq!(a.distance_to(&touching), 0.0);
        // Separated horizontally.
        let right = Rect::new(Point::new(4.0, 0.0), Point::new(5.0, 1.0));
        assert_eq!(a.distance_to(&right), 3.0);
        assert_eq!(right.distance_to(&a), 3.0);
        // Diagonal separation: Euclidean corner distance.
        let diag = Rect::new(Point::new(4.0, 5.0), Point::new(6.0, 7.0));
        assert_eq!(a.distance_to(&diag), 5.0);
    }
}
