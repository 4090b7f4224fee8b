//! Sensor deployments: grid, uniform-random, cross, explicit.

use crate::node::{NodeId, SensorNode};
use rand::Rng;
use wsn_geometry::{Point, Rect};

/// A concrete placement of sensors in the field.
///
/// IDs are always dense `0..n` in construction order, which fixes the
/// canonical pair enumeration (see [`crate::pairs`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Deployment {
    nodes: Vec<SensorNode>,
    field: Rect,
}

impl Deployment {
    /// Wraps explicit positions (all must lie inside `field`).
    ///
    /// # Panics
    ///
    /// Panics if any position falls outside `field` or fewer than two nodes
    /// are given (no pairs — nothing to track with).
    pub fn explicit(positions: &[Point], field: Rect) -> Self {
        assert!(
            positions.len() >= 2,
            "need at least two sensors, got {}",
            positions.len()
        );
        let nodes = positions
            .iter()
            .enumerate()
            .map(|(i, &pos)| {
                assert!(field.contains(pos), "node {i} at {pos} outside the field");
                SensorNode::new(NodeId(i as u32), pos)
            })
            .collect();
        Self { nodes, field }
    }

    /// Regular near-square grid of `n` sensors inside `field` (the paper's
    /// Fig. 10(a,b) "deployed in grid" scenario).
    ///
    /// Sensors are placed at the centres of an `r × c` lattice with
    /// `r·c ≥ n`, `r ≈ c`, row-major; surplus lattice sites are left empty.
    pub fn grid(n: usize, field: Rect) -> Self {
        assert!(n >= 2, "need at least two sensors, got {n}");
        let cols = (n as f64).sqrt().ceil() as usize;
        let rows = n.div_ceil(cols);
        let dx = field.width() / cols as f64;
        let dy = field.height() / rows as f64;
        let positions: Vec<Point> = (0..n)
            .map(|i| {
                let (row, col) = (i / cols, i % cols);
                Point::new(
                    field.min.x + (col as f64 + 0.5) * dx,
                    field.min.y + (row as f64 + 0.5) * dy,
                )
            })
            .collect();
        Self::explicit(&positions, field)
    }

    /// `n` sensors i.i.d. uniform over `field` (the paper's random
    /// deployment, Fig. 10(c,d) and all performance sweeps).
    pub fn random_uniform<R: Rng + ?Sized>(n: usize, field: Rect, rng: &mut R) -> Self {
        assert!(n >= 2, "need at least two sensors, got {n}");
        let positions: Vec<Point> = (0..n)
            .map(|_| {
                Point::new(
                    rng.gen_range(field.min.x..=field.max.x),
                    rng.gen_range(field.min.y..=field.max.y),
                )
            })
            .collect();
        Self::explicit(&positions, field)
    }

    /// The outdoor testbed's cross ("+") deployment (paper Fig. 13): one
    /// sensor at `center` and `arm_len` sensors spaced `spacing` metres
    /// along each of the four axis directions — `4·arm_len + 1` sensors.
    ///
    /// # Panics
    ///
    /// Panics if the cross does not fit inside `field`.
    pub fn cross(center: Point, arm_len: usize, spacing: f64, field: Rect) -> Self {
        assert!(
            spacing > 0.0 && spacing.is_finite(),
            "spacing must be positive"
        );
        let mut positions = vec![center];
        for step in 1..=arm_len {
            let d = step as f64 * spacing;
            positions.push(Point::new(center.x + d, center.y));
            positions.push(Point::new(center.x - d, center.y));
            positions.push(Point::new(center.x, center.y + d));
            positions.push(Point::new(center.x, center.y - d));
        }
        Self::explicit(&positions, field)
    }

    /// The deployed sensors, in ID order.
    #[inline]
    pub fn nodes(&self) -> &[SensorNode] {
        &self.nodes
    }

    /// Number of sensors.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always `false` (construction requires ≥ 2 nodes); included for API
    /// completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The monitored field.
    #[inline]
    pub fn field(&self) -> Rect {
        self.field
    }

    /// Positions only, in ID order.
    pub fn positions(&self) -> Vec<Point> {
        self.nodes.iter().map(|n| n.pos).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn field() -> Rect {
        Rect::square(100.0)
    }

    #[test]
    fn explicit_assigns_dense_ids() {
        let d = Deployment::explicit(&[Point::new(1.0, 1.0), Point::new(2.0, 2.0)], field());
        assert_eq!(d.len(), 2);
        assert_eq!(d.nodes()[0].id, NodeId(0));
        assert_eq!(d.nodes()[1].id, NodeId(1));
    }

    #[test]
    #[should_panic(expected = "outside the field")]
    fn explicit_rejects_out_of_field() {
        let _ = Deployment::explicit(&[Point::new(1.0, 1.0), Point::new(200.0, 2.0)], field());
    }

    #[test]
    fn grid_layout_properties() {
        let d = Deployment::grid(9, field());
        assert_eq!(d.len(), 9);
        // 3×3 lattice on a 100 m field: centres at 100/6, 50, 500/6.
        let expect = 100.0 / 6.0;
        assert!((d.nodes()[0].pos.x - expect).abs() < 1e-9);
        assert!((d.nodes()[0].pos.y - expect).abs() < 1e-9);
        assert!((d.nodes()[4].pos.x - 50.0).abs() < 1e-9);
        // All in-field and distinct.
        for (i, a) in d.nodes().iter().enumerate() {
            assert!(field().contains(a.pos));
            for b in &d.nodes()[i + 1..] {
                assert!(a.pos.distance(b.pos) > 1.0);
            }
        }
    }

    #[test]
    fn grid_handles_non_square_counts() {
        for n in [2, 3, 5, 7, 10, 12, 40] {
            let d = Deployment::grid(n, field());
            assert_eq!(d.len(), n, "n={n}");
            for node in d.nodes() {
                assert!(field().contains(node.pos));
            }
        }
    }

    #[test]
    fn random_uniform_stays_in_field_and_is_seeded() {
        let mut r1 = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let mut r2 = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let a = Deployment::random_uniform(25, field(), &mut r1);
        let b = Deployment::random_uniform(25, field(), &mut r2);
        assert_eq!(a, b, "same seed must reproduce the deployment");
        for node in a.nodes() {
            assert!(field().contains(node.pos));
        }
    }

    #[test]
    fn cross_shape_of_paper_testbed() {
        // 9 motes: centre + 2 per arm at 10 m spacing.
        let d = Deployment::cross(Point::new(50.0, 50.0), 2, 10.0, field());
        assert_eq!(d.len(), 9);
        assert_eq!(d.nodes()[0].pos, Point::new(50.0, 50.0));
        let xs: Vec<f64> = d.nodes().iter().map(|n| n.pos.x).collect();
        let ys: Vec<f64> = d.nodes().iter().map(|n| n.pos.y).collect();
        assert!(xs.contains(&70.0) && xs.contains(&30.0));
        assert!(ys.contains(&70.0) && ys.contains(&30.0));
        // Every node is on one of the two axes through the centre.
        for n in d.nodes() {
            assert!(n.pos.x == 50.0 || n.pos.y == 50.0);
        }
    }

    #[test]
    #[should_panic(expected = "outside the field")]
    fn cross_must_fit() {
        let _ = Deployment::cross(Point::new(95.0, 50.0), 2, 10.0, field());
    }
}
