//! Time-stamped target trajectories.

use wsn_geometry::Point;

/// One trajectory sample: the target was at `pos` at time `t` (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedPoint {
    /// Time in seconds.
    pub t: f64,
    /// Target position.
    pub pos: Point,
}

impl TimedPoint {
    /// Creates a sample.
    #[inline]
    pub const fn new(t: f64, pos: Point) -> Self {
        Self { t, pos }
    }
}

/// A target trajectory: a non-empty sequence of [`TimedPoint`]s with
/// strictly increasing timestamps, interpolated linearly between samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    points: Vec<TimedPoint>,
}

impl Trace {
    /// Wraps a sample sequence.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty, timestamps are not strictly increasing,
    /// or any coordinate/timestamp is non-finite.
    pub fn new(points: Vec<TimedPoint>) -> Self {
        assert!(!points.is_empty(), "a trace needs at least one sample");
        for w in points.windows(2) {
            assert!(
                w[1].t > w[0].t,
                "trace timestamps must strictly increase: {} !< {}",
                w[0].t,
                w[1].t
            );
        }
        for p in &points {
            assert!(
                p.t.is_finite() && p.pos.is_finite(),
                "trace samples must be finite"
            );
        }
        Self { points }
    }

    /// The samples, in time order.
    #[inline]
    pub fn points(&self) -> &[TimedPoint] {
        &self.points
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Always `false` (construction requires ≥ 1 sample).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// First timestamp.
    #[inline]
    pub fn start_time(&self) -> f64 {
        self.points[0].t
    }

    /// Last timestamp.
    #[inline]
    pub fn end_time(&self) -> f64 {
        self.points[self.points.len() - 1].t
    }

    /// `end_time − start_time`.
    #[inline]
    pub fn duration(&self) -> f64 {
        self.end_time() - self.start_time()
    }

    /// Total path length (sum of inter-sample distances).
    pub fn path_length(&self) -> f64 {
        self.points
            .windows(2)
            .map(|w| w[0].pos.distance(w[1].pos))
            .sum()
    }

    /// Position at time `t`, linearly interpolated; clamped to the first /
    /// last sample outside the time range.
    ///
    /// ```
    /// use wsn_geometry::Point;
    /// use wsn_mobility::{TimedPoint, Trace};
    ///
    /// let trace = Trace::new(vec![
    ///     TimedPoint::new(0.0, Point::new(0.0, 0.0)),
    ///     TimedPoint::new(10.0, Point::new(20.0, 0.0)),
    /// ]);
    /// assert_eq!(trace.position_at(2.5), Point::new(5.0, 0.0));
    /// assert_eq!(trace.position_at(99.0), Point::new(20.0, 0.0)); // clamped
    /// ```
    pub fn position_at(&self, t: f64) -> Point {
        let pts = &self.points;
        if t <= pts[0].t {
            return pts[0].pos;
        }
        if t >= pts[pts.len() - 1].t {
            return pts[pts.len() - 1].pos;
        }
        // Binary search for the enclosing segment.
        let idx = pts.partition_point(|p| p.t <= t);
        let (a, b) = (&pts[idx - 1], &pts[idx]);
        let frac = (t - a.t) / (b.t - a.t);
        a.pos.lerp(b.pos, frac)
    }

    /// Resamples the trace at a fixed period `dt`, starting at
    /// `start_time()` and including `end_time()`'s clamped position.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive.
    pub fn resample(&self, dt: f64) -> Trace {
        assert!(
            dt.is_finite() && dt > 0.0,
            "resample period must be positive"
        );
        let mut out = Vec::new();
        let mut t = self.start_time();
        let end = self.end_time();
        while t < end {
            out.push(TimedPoint::new(t, self.position_at(t)));
            t += dt;
        }
        out.push(TimedPoint::new(end, self.position_at(end)));
        Trace::new(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l_trace() -> Trace {
        Trace::new(vec![
            TimedPoint::new(0.0, Point::new(0.0, 0.0)),
            TimedPoint::new(10.0, Point::new(10.0, 0.0)),
            TimedPoint::new(20.0, Point::new(10.0, 10.0)),
        ])
    }

    #[test]
    fn interpolation_between_samples() {
        let tr = l_trace();
        assert_eq!(tr.position_at(5.0), Point::new(5.0, 0.0));
        assert_eq!(tr.position_at(15.0), Point::new(10.0, 5.0));
        assert_eq!(tr.position_at(10.0), Point::new(10.0, 0.0));
    }

    #[test]
    fn clamping_outside_time_range() {
        let tr = l_trace();
        assert_eq!(tr.position_at(-5.0), Point::new(0.0, 0.0));
        assert_eq!(tr.position_at(100.0), Point::new(10.0, 10.0));
    }

    #[test]
    fn metrics() {
        let tr = l_trace();
        assert_eq!(tr.duration(), 20.0);
        assert_eq!(tr.path_length(), 20.0);
        assert_eq!(tr.len(), 3);
    }

    #[test]
    fn resample_has_fixed_period_and_covers_end() {
        let tr = l_trace().resample(3.0);
        let ts: Vec<f64> = tr.points().iter().map(|p| p.t).collect();
        assert_eq!(ts, vec![0.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0, 20.0]);
        // Positions stay on the original polyline.
        assert_eq!(tr.position_at(3.0), Point::new(3.0, 0.0));
        assert_eq!(tr.points().last().unwrap().pos, Point::new(10.0, 10.0));
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn non_monotone_rejected() {
        let _ = Trace::new(vec![
            TimedPoint::new(0.0, Point::ORIGIN),
            TimedPoint::new(0.0, Point::new(1.0, 1.0)),
        ]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_rejected() {
        let _ = Trace::new(vec![]);
    }
}
