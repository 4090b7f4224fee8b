//! Sampling vectors (Definitions 4, 5, 10 and the `*` of eq. 6).

use std::fmt;

/// What one grouping sampling observed, one component per node pair in
/// canonical order.
///
/// Components are `Some(v)` with `v ∈ [−1, 1]` or `None`, the paper's `*`
/// (neither node of the pair returned any reading, eq. 6 case 4). Basic
/// vectors (Definition 4) only ever hold `{−1.0, 0.0, +1.0}`; extended
/// vectors (Definition 10) use the whole interval.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingVector {
    components: Box<[Option<f64>]>,
}

impl SamplingVector {
    /// Wraps raw components.
    ///
    /// # Panics
    ///
    /// Panics if empty, or any known component is outside `[−1, 1]` or
    /// non-finite.
    pub fn new(components: Vec<Option<f64>>) -> Self {
        assert!(!components.is_empty(), "sampling vector cannot be empty");
        for (i, v) in components.iter().enumerate() {
            if let Some(v) = v {
                assert!(
                    v.is_finite() && (-1.0..=1.0).contains(v),
                    "component {i} out of range: {v}"
                );
            }
        }
        Self {
            components: components.into_boxed_slice(),
        }
    }

    /// Convenience constructor from the paper's integer notation, `None`
    /// standing for `*`.
    pub fn from_ternary(components: Vec<Option<i8>>) -> Self {
        Self::new(
            components
                .into_iter()
                .map(|c| c.map(|v| v as f64))
                .collect(),
        )
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

    /// Component for pair index `i` (`None` = `*`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn component(&self, i: usize) -> Option<f64> {
        self.components[i]
    }

    /// All components.
    #[inline]
    pub fn components(&self) -> &[Option<f64>] {
        &self.components
    }

    /// Count of `*` components (pairs with no information at all).
    pub fn unknown_count(&self) -> usize {
        self.components.iter().filter(|c| c.is_none()).count()
    }

    /// `true` if every known component is ternary (a basic vector).
    pub fn is_ternary(&self) -> bool {
        self.components
            .iter()
            .flatten()
            .all(|&v| v == -1.0 || v == 0.0 || v == 1.0)
    }
}

impl fmt::Display for SamplingVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.components.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            match v {
                Some(v) => write!(f, "{v:.2}")?,
                None => write!(f, "*")?,
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ternary_construction() {
        // The paper's Fig. 5 example vector [-1,1,1,1,1,0].
        let v = SamplingVector::from_ternary(vec![
            Some(-1),
            Some(1),
            Some(1),
            Some(1),
            Some(1),
            Some(0),
        ]);
        assert_eq!(v.len(), 6);
        assert!(v.is_ternary());
        assert_eq!(v.unknown_count(), 0);
        assert_eq!(v.component(0), Some(-1.0));
    }

    #[test]
    fn fault_tolerant_vector_with_stars() {
        // The paper's Section 4.4.3 example [1,1,1,-1,*,1].
        let v =
            SamplingVector::from_ternary(vec![Some(1), Some(1), Some(1), Some(-1), None, Some(1)]);
        assert_eq!(v.unknown_count(), 1);
        assert_eq!(v.component(4), None);
        assert_eq!(format!("{v}"), "[1.00,1.00,1.00,-1.00,*,1.00]");
    }

    #[test]
    fn extended_values_allowed() {
        // Fig. 9's extended vector [0.33, 1, 1, 1, 1, -1].
        let v = SamplingVector::new(vec![
            Some(1.0 / 3.0),
            Some(1.0),
            Some(1.0),
            Some(1.0),
            Some(1.0),
            Some(-1.0),
        ]);
        assert!(!v.is_ternary());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_interval_rejected() {
        let _ = SamplingVector::new(vec![Some(1.5)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn nan_rejected() {
        let _ = SamplingVector::new(vec![Some(f64::NAN)]);
    }
}
