//! The random waypoint mobility model (paper Table 1 / reference [30]).

use crate::trace::{TimedPoint, Trace};
use rand::Rng;
use wsn_geometry::{Point, Rect};

/// Random waypoint: the target repeatedly picks a uniform destination in
/// the field, walks there in a straight line at a uniform-random speed, and
/// optionally pauses before the next leg.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomWaypoint {
    /// Field the target roams in.
    pub field: Rect,
    /// Minimum speed, m/s (Table 1: 1).
    pub min_speed: f64,
    /// Maximum speed, m/s (Table 1: 5).
    pub max_speed: f64,
    /// Pause at each waypoint, seconds (paper uses continuous movement: 0).
    pub pause: f64,
}

impl RandomWaypoint {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < min_speed ≤ max_speed` and `pause ≥ 0`, all
    /// finite.
    pub fn new(field: Rect, min_speed: f64, max_speed: f64, pause: f64) -> Self {
        assert!(
            min_speed.is_finite() && max_speed.is_finite() && pause.is_finite(),
            "mobility parameters must be finite"
        );
        assert!(
            min_speed > 0.0,
            "min speed must be positive, got {min_speed}"
        );
        assert!(max_speed >= min_speed, "max speed below min speed");
        assert!(pause >= 0.0, "pause must be non-negative");
        Self {
            field,
            min_speed,
            max_speed,
            pause,
        }
    }

    /// The paper's setting: 1–5 m/s, no pause.
    pub fn paper_default(field: Rect) -> Self {
        Self::new(field, 1.0, 5.0, 0.0)
    }

    /// Generates a trace of `duration` seconds sampled every `dt` seconds,
    /// starting from a uniform-random position.
    ///
    /// # Panics
    ///
    /// Panics if `duration` or `dt` is not strictly positive.
    pub fn trace<R: Rng + ?Sized>(&self, duration: f64, dt: f64, rng: &mut R) -> Trace {
        assert!(
            duration > 0.0 && duration.is_finite(),
            "duration must be positive"
        );
        assert!(dt > 0.0 && dt.is_finite(), "dt must be positive");
        let mut pos = self.random_point(rng);
        let mut samples = Vec::with_capacity((duration / dt).ceil() as usize + 1);
        let mut t = 0.0;
        // Current leg state.
        let mut dest = self.random_point(rng);
        let mut speed = self.random_speed(rng);
        let mut pause_left = 0.0_f64;
        while t <= duration {
            samples.push(TimedPoint::new(t, pos));
            let mut step_left = dt;
            // Advance the continuous-time state by dt, possibly across
            // several waypoint arrivals within one sampling period.
            while step_left > 0.0 {
                if pause_left > 0.0 {
                    let hold = pause_left.min(step_left);
                    pause_left -= hold;
                    step_left -= hold;
                    continue;
                }
                let to_dest = dest - pos;
                let dist = to_dest.norm();
                let reach = speed * step_left;
                if reach < dist {
                    pos += to_dest * (reach / dist);
                    step_left = 0.0;
                } else {
                    pos = dest;
                    step_left -= if speed > 0.0 { dist / speed } else { step_left };
                    pause_left = self.pause;
                    dest = self.random_point(rng);
                    speed = self.random_speed(rng);
                }
            }
            t += dt;
        }
        Trace::new(samples)
    }

    fn random_point<R: Rng + ?Sized>(&self, rng: &mut R) -> Point {
        Point::new(
            rng.gen_range(self.field.min.x..=self.field.max.x),
            rng.gen_range(self.field.min.y..=self.field.max.y),
        )
    }

    fn random_speed<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.max_speed > self.min_speed {
            rng.gen_range(self.min_speed..=self.max_speed)
        } else {
            self.min_speed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand_chacha::ChaCha8Rng {
        rand_chacha::ChaCha8Rng::seed_from_u64(seed)
    }

    fn model() -> RandomWaypoint {
        RandomWaypoint::paper_default(Rect::square(100.0))
    }

    #[test]
    fn trace_covers_duration_with_fixed_period() {
        let tr = model().trace(60.0, 0.5, &mut rng(1));
        assert_eq!(tr.start_time(), 0.0);
        assert!((tr.end_time() - 60.0).abs() < 0.5 + 1e-9);
        assert_eq!(tr.len(), 121);
    }

    #[test]
    fn target_stays_in_field() {
        let field = Rect::square(100.0);
        let tr = model().trace(120.0, 0.1, &mut rng(2));
        for p in tr.points() {
            assert!(field.contains(p.pos), "escaped to {}", p.pos);
        }
    }

    #[test]
    fn speed_between_samples_is_bounded() {
        let m = model();
        let dt = 0.1;
        let tr = m.trace(60.0, dt, &mut rng(3));
        for w in tr.points().windows(2) {
            let v = w[0].pos.distance(w[1].pos) / dt;
            // Up to max_speed (a leg change inside dt can only slow it down).
            assert!(v <= m.max_speed + 1e-6, "speed {v}");
        }
    }

    #[test]
    fn moves_at_least_at_min_speed_without_pause() {
        let m = model();
        let tr = m.trace(60.0, 1.0, &mut rng(4));
        // Total path length must be at least min_speed × duration (waypoint
        // turns inside a step only shorten the displacement, not the path,
        // so allow a generous margin).
        assert!(tr.path_length() > 0.5 * m.min_speed * 60.0);
    }

    #[test]
    fn pause_produces_stationary_stretches() {
        let m = RandomWaypoint::new(Rect::square(50.0), 5.0, 5.0, 10.0);
        let tr = m.trace(100.0, 0.5, &mut rng(5));
        let stationary = tr
            .points()
            .windows(2)
            .filter(|w| w[0].pos.distance(w[1].pos) < 1e-12)
            .count();
        assert!(
            stationary > 10,
            "expected pauses, found {stationary} stationary steps"
        );
    }

    #[test]
    fn reproducible_under_seed() {
        let a = model().trace(30.0, 0.5, &mut rng(9));
        let b = model().trace(30.0, 0.5, &mut rng(9));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "min speed")]
    fn zero_speed_rejected() {
        let _ = RandomWaypoint::new(Rect::square(10.0), 0.0, 1.0, 0.0);
    }
}
