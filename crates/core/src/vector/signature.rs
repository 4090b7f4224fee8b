//! Face signature vectors (Definition 6).

use std::fmt;
use wsn_geometry::PairRegion;

/// The ternary signature of a face: one component in `{-1, 0, +1}` per node
/// pair, in canonical pair order.
///
/// `Eq + Hash` so face-map construction can group grid cells by signature.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SignatureVector {
    components: Box<[i8]>,
}

impl SignatureVector {
    /// Wraps raw components.
    ///
    /// # Panics
    ///
    /// Panics if empty or any component is outside `{-1, 0, 1}`.
    pub fn new(components: Vec<i8>) -> Self {
        assert!(!components.is_empty(), "signature vector cannot be empty");
        for (i, &v) in components.iter().enumerate() {
            assert!((-1..=1).contains(&v), "component {i} out of range: {v}");
        }
        Self {
            components: components.into_boxed_slice(),
        }
    }

    /// Wraps components already known to be valid (non-empty, every value
    /// in `{-1, 0, 1}`) — the per-face materialization path out of the
    /// packed plane arena, where the invariant holds by construction and
    /// re-validating every component would be the loop's main cost.
    pub(crate) fn from_trusted(components: Vec<i8>) -> Self {
        debug_assert!(!components.is_empty());
        debug_assert!(components.iter().all(|v| (-1..=1).contains(v)));
        Self {
            components: components.into_boxed_slice(),
        }
    }

    /// Builds a signature from per-pair region classifications.
    pub fn from_regions<I: IntoIterator<Item = PairRegion>>(regions: I) -> Self {
        let comps: Vec<i8> = regions
            .into_iter()
            .map(|r| r.signature_component())
            .collect();
        Self::new(comps)
    }

    /// Number of pair components.
    #[inline]
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Always `false` (construction requires ≥ 1 component).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Component for pair index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn component(&self, i: usize) -> i8 {
        self.components[i]
    }

    /// All components.
    #[inline]
    pub fn components(&self) -> &[i8] {
        &self.components
    }

    /// Number of components in which two signatures differ, weighted by the
    /// squared difference — the `‖V_s(f) − V_s(f′)‖²` of Theorem 1.
    pub fn distance_squared(&self, other: &SignatureVector) -> f64 {
        assert_eq!(self.len(), other.len(), "signature dimension mismatch");
        self.components
            .iter()
            .zip(other.components.iter())
            .map(|(&a, &b)| {
                let d = (a - b) as f64;
                d * d
            })
            .sum()
    }
}

impl fmt::Display for SignatureVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.components.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let s = SignatureVector::new(vec![-1, 1, 1, 1, 1, 0]);
        assert_eq!(s.len(), 6);
        assert_eq!(s.component(0), -1);
        assert_eq!(s.component(5), 0);
        assert_eq!(format!("{s}"), "[-1,1,1,1,1,0]");
    }

    #[test]
    fn from_regions_matches_paper_convention() {
        let s = SignatureVector::from_regions([
            PairRegion::NearFirst,
            PairRegion::Uncertain,
            PairRegion::NearSecond,
        ]);
        assert_eq!(s.components(), &[1, 0, -1]);
    }

    #[test]
    fn hashable_and_groupable() {
        use std::collections::HashMap;
        let mut m: HashMap<SignatureVector, u32> = HashMap::new();
        *m.entry(SignatureVector::new(vec![1, 0])).or_default() += 1;
        *m.entry(SignatureVector::new(vec![1, 0])).or_default() += 1;
        *m.entry(SignatureVector::new(vec![0, 1])).or_default() += 1;
        assert_eq!(m.len(), 2);
        assert_eq!(m[&SignatureVector::new(vec![1, 0])], 2);
    }

    #[test]
    fn distance_squared_neighbor_faces() {
        // Theorem 1: neighbor faces differ by exactly one component by ±1.
        let a = SignatureVector::new(vec![1, 1, 0]);
        let b = SignatureVector::new(vec![1, 0, 0]);
        assert_eq!(a.distance_squared(&b), 1.0);
        let c = SignatureVector::new(vec![-1, 0, 0]);
        assert_eq!(a.distance_squared(&c), 5.0);
        assert_eq!(a.distance_squared(&a), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_component_rejected() {
        let _ = SignatureVector::new(vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_rejected() {
        let _ = SignatureVector::new(vec![]);
    }
}
