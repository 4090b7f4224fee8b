//! Sensor node identity and placement.

use std::fmt;
use wsn_geometry::Point;

/// Dense, zero-based sensor identifier.
///
/// The paper's value convention ("+1 means nearer to the smaller node ID",
/// Definitions 4 and 6) makes IDs semantically load-bearing: the suite keeps
/// them dense (`0..n`) and sorted everywhere so the pair enumeration of
/// [`crate::pairs`] is canonical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Zero-based index into the deployment's node list.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A deployed sensor: identity plus position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorNode {
    /// Node identifier (dense, equals its index in the deployment).
    pub id: NodeId,
    /// Position in the field, metres.
    pub pos: Point,
}

impl SensorNode {
    /// Creates a node.
    #[inline]
    pub const fn new(id: NodeId, pos: Point) -> Self {
        Self { id, pos }
    }

    /// Distance from this node to `target`.
    #[inline]
    pub fn distance_to(&self, target: Point) -> f64 {
        self.pos.distance(target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_ordering_and_index() {
        assert!(NodeId(0) < NodeId(1));
        assert_eq!(NodeId(7).index(), 7);
        assert_eq!(format!("{}", NodeId(3)), "n3");
    }

    #[test]
    fn node_distance() {
        let n = SensorNode::new(NodeId(0), Point::new(0.0, 0.0));
        assert_eq!(n.distance_to(Point::new(3.0, 4.0)), 5.0);
    }
}
