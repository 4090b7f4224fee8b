//! Sampling vectors (Definitions 4, 5, 10 and the `*` of eq. 6).

use super::planes::words_for;
use std::fmt;

/// What one grouping sampling observed, one component per node pair in
/// canonical order.
///
/// Components are `Some(v)` with `v ∈ [−1, 1]` or `None`, the paper's `*`
/// (neither node of the pair returned any reading, eq. 6 case 4). Basic
/// vectors (Definition 4) only ever hold `{−1.0, 0.0, +1.0}`; extended
/// vectors (Definition 10) use the whole interval.
///
/// The vector is stored in the packed form the matching kernels read, so
/// no localization repacks it:
///
/// * **ternary** — every known component is in `{−1, 0, +1}`: three bit
///   planes, one bit per pair (`plus`, `minus`, and `present` for the
///   known pairs; `plus`/`minus` ⊆ `present`, padding bits clear);
/// * **extended** — any other vector: a value row (`0.0` under `*`) and a
///   `{0.0, 1.0}` presence mask.
///
/// The kind is a function of the components alone, so vectors that
/// compare equal component for component have the same kind and planes.
/// A ternary vector keeps no sign of zero: a `-0.0` component reads back
/// as `0.0` (the two are equal, and every distance treats them alike).
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingVector {
    dim: usize,
    repr: Repr,
}

/// The packed storage of a [`SamplingVector`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Repr {
    Ternary {
        plus: Box<[u64]>,
        minus: Box<[u64]>,
        present: Box<[u64]>,
    },
    Extended {
        vals: Box<[f64]>,
        mask: Box<[f64]>,
    },
}

impl SamplingVector {
    /// Wraps raw components, choosing the ternary form when every known
    /// component is in `{−1, 0, +1}` and the extended form otherwise.
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
        let dim = components.len();
        let ternary = components
            .iter()
            .flatten()
            .all(|&v| v == -1.0 || v == 0.0 || v == 1.0);
        if ternary {
            let words = words_for(dim);
            let (mut plus, mut minus, mut present) =
                (vec![0u64; words], vec![0u64; words], vec![0u64; words]);
            for (i, c) in components.iter().enumerate() {
                if let Some(c) = c {
                    let (w, b) = (i / 64, i % 64);
                    present[w] |= 1 << b;
                    plus[w] |= u64::from(*c == 1.0) << b;
                    minus[w] |= u64::from(*c == -1.0) << b;
                }
            }
            Self::from_planes(dim, plus, minus, present)
        } else {
            let vals = components.iter().map(|c| c.unwrap_or(0.0)).collect();
            let mask = components
                .iter()
                .map(|c| if c.is_some() { 1.0 } else { 0.0 })
                .collect();
            Self::from_extended(dim, vals, mask)
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

    /// A ternary vector from its planes (`plus`/`minus` ⊆ `present`, no
    /// bit at or past `dim`).
    pub(crate) fn from_planes(
        dim: usize,
        plus: Vec<u64>,
        minus: Vec<u64>,
        present: Vec<u64>,
    ) -> Self {
        debug_assert!(dim > 0 && present.len() == words_for(dim));
        debug_assert!(plus
            .iter()
            .zip(&minus)
            .zip(&present)
            .all(|((p, m), k)| p & m == 0 && (p | m) & !k == 0));
        debug_assert!(dim.is_multiple_of(64) || present[dim / 64] >> (dim % 64) == 0);
        Self {
            dim,
            repr: Repr::Ternary {
                plus: plus.into_boxed_slice(),
                minus: minus.into_boxed_slice(),
                present: present.into_boxed_slice(),
            },
        }
    }

    /// An extended vector from its value row and `{0.0, 1.0}` mask (`0.0`
    /// values under a clear mask). The caller guarantees some known value
    /// is outside `{−1, 0, +1}`.
    pub(crate) fn from_extended(dim: usize, vals: Vec<f64>, mask: Vec<f64>) -> Self {
        debug_assert!(dim > 0 && vals.len() == dim && mask.len() == dim);
        debug_assert!(vals
            .iter()
            .zip(&mask)
            .any(|(&v, &m)| m == 1.0 && v != -1.0 && v != 0.0 && v != 1.0));
        Self {
            dim,
            repr: Repr::Extended {
                vals: vals.into_boxed_slice(),
                mask: mask.into_boxed_slice(),
            },
        }
    }

    /// The packed storage.
    #[inline]
    pub(crate) fn repr(&self) -> &Repr {
        &self.repr
    }

    /// Number of pair components.
    #[inline]
    pub fn len(&self) -> usize {
        self.dim
    }

    /// Always `false` (construction requires ≥ 1 component).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.dim == 0
    }

    /// Component for pair index `i` (`None` = `*`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn component(&self, i: usize) -> Option<f64> {
        assert!(i < self.dim, "component {i} out of range ({})", self.dim);
        match &self.repr {
            Repr::Ternary {
                plus,
                minus,
                present,
            } => {
                let (w, b) = (i / 64, i % 64);
                (present[w] >> b & 1 == 1).then(|| {
                    if plus[w] >> b & 1 == 1 {
                        1.0
                    } else if minus[w] >> b & 1 == 1 {
                        -1.0
                    } else {
                        0.0
                    }
                })
            }
            Repr::Extended { vals, mask } => (mask[i] != 0.0).then_some(vals[i]),
        }
    }

    /// All components, in pair order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Option<f64>> + '_ {
        (0..self.dim).map(|i| self.component(i))
    }

    /// Count of `*` components (pairs with no information at all).
    pub fn unknown_count(&self) -> usize {
        match &self.repr {
            Repr::Ternary { present, .. } => self.dim - popcount(present.iter().copied()),
            Repr::Extended { mask, .. } => mask.iter().filter(|&&m| m == 0.0).count(),
        }
    }

    /// Count of known components equal to `0` (flipped pairs, or pairs
    /// with no order evidence).
    pub fn zero_count(&self) -> usize {
        match &self.repr {
            Repr::Ternary {
                plus,
                minus,
                present,
            } => popcount(
                present
                    .iter()
                    .zip(plus.iter().zip(minus.iter()))
                    .map(|(k, (p, m))| k & !(p | m)),
            ),
            Repr::Extended { vals, mask } => vals
                .iter()
                .zip(mask.iter())
                .filter(|&(&v, &m)| m != 0.0 && v == 0.0)
                .count(),
        }
    }

    /// `true` if every known component is ternary (a basic vector) — the
    /// vector is stored as bit planes.
    pub fn is_ternary(&self) -> bool {
        matches!(self.repr, Repr::Ternary { .. })
    }

    /// The vector restricted to the pair indices `idx`, in that order —
    /// a bit gather for ternary vectors; extended vectors re-choose their
    /// kind, since the kept components may all be ternary.
    pub(crate) fn gather(&self, idx: &[u32]) -> Self {
        match &self.repr {
            Repr::Ternary {
                plus,
                minus,
                present,
            } => {
                let words = words_for(idx.len());
                let (mut gp, mut gm, mut gk) =
                    (vec![0u64; words], vec![0u64; words], vec![0u64; words]);
                for (o, &i) in idx.iter().enumerate() {
                    let (w, b) = (i as usize / 64, i as usize % 64);
                    gp[o / 64] |= (plus[w] >> b & 1) << (o % 64);
                    gm[o / 64] |= (minus[w] >> b & 1) << (o % 64);
                    gk[o / 64] |= (present[w] >> b & 1) << (o % 64);
                }
                Self::from_planes(idx.len(), gp, gm, gk)
            }
            Repr::Extended { .. } => {
                Self::new(idx.iter().map(|&i| self.component(i as usize)).collect())
            }
        }
    }
}

fn popcount(words: impl Iterator<Item = u64>) -> usize {
    words.map(|w| w.count_ones() as usize).sum()
}

impl fmt::Display for SamplingVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.iter().enumerate() {
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
        assert_eq!(v.zero_count(), 1);
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
        assert_eq!(v.component(0), Some(1.0 / 3.0));
        assert_eq!(v.zero_count(), 0);
    }

    #[test]
    fn components_round_trip_both_kinds() {
        let dim = 150;
        let ternary: Vec<Option<f64>> = (0..dim)
            .map(|i| [Some(1.0), None, Some(0.0), Some(-1.0), None][i % 5])
            .collect();
        let v = SamplingVector::new(ternary.clone());
        assert!(v.is_ternary());
        assert_eq!(v.iter().collect::<Vec<_>>(), ternary);
        assert_eq!(v.unknown_count(), 60);
        assert_eq!(v.zero_count(), 30);

        let mut extended = ternary;
        extended[75] = Some(-0.25);
        let e = SamplingVector::new(extended.clone());
        assert!(!e.is_ternary());
        assert_eq!(e.iter().collect::<Vec<_>>(), extended);
        assert_eq!(e.unknown_count(), 60);
        assert_eq!(e.zero_count(), 30);
    }

    #[test]
    fn gather_rechooses_the_kind() {
        let v = SamplingVector::new(vec![Some(0.5), Some(1.0), None, Some(-1.0)]);
        let kept = v.gather(&[1, 2, 3]);
        assert!(kept.is_ternary());
        assert_eq!(kept, SamplingVector::new(vec![Some(1.0), None, Some(-1.0)]));
        assert!(!v.gather(&[3, 0]).is_ternary());
        let t = SamplingVector::from_ternary(vec![Some(1), None, Some(0), Some(-1)]);
        assert_eq!(
            t.gather(&[3, 1, 0]),
            SamplingVector::from_ternary(vec![Some(-1), None, Some(1)])
        );
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
