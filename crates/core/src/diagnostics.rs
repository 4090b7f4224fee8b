//! Run-level diagnostics: how much uncertainty the sampler actually
//! reported and how often matching was ambiguous.
//!
//! The experiments use these to *explain* error numbers rather than just
//! report them: e.g. the Fig.-12(b) inversion under Gaussian shadowing is
//! visible here as a zero-fraction that grows with the sampling times.

use crate::vector::SamplingVector;

/// Composition of one sampling vector's components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VectorComposition {
    /// Components equal to +1 or −1 (ordinal pairs).
    pub ordinal: usize,
    /// Components equal to 0 (flipped pairs / no order evidence).
    pub flipped: usize,
    /// Components strictly inside (−1, 1) excluding 0 (extended values).
    pub fractional: usize,
    /// `*` components (pairs with no readings at all).
    pub unknown: usize,
}

impl VectorComposition {
    /// Classifies every component of `v`.
    pub fn of(v: &SamplingVector) -> Self {
        let mut out = Self::default();
        for c in v.iter() {
            match c {
                None => out.unknown += 1,
                Some(x) if x == 1.0 || x == -1.0 => out.ordinal += 1,
                Some(0.0) => out.flipped += 1,
                Some(_) => out.fractional += 1,
            }
        }
        out
    }

    /// Total component count.
    pub fn total(&self) -> usize {
        self.ordinal + self.flipped + self.fractional + self.unknown
    }

    /// Fraction of flipped (0) components.
    pub fn flipped_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.flipped as f64 / self.total() as f64
        }
    }

    /// Fraction of `*` components.
    pub fn unknown_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.unknown as f64 / self.total() as f64
        }
    }

    /// Component-wise sum (for aggregating across localizations).
    pub fn add(&mut self, other: &VectorComposition) {
        self.ordinal += other.ordinal;
        self.flipped += other.flipped;
        self.fractional += other.fractional;
        self.unknown += other.unknown;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_all_kinds() {
        let v = SamplingVector::new(vec![
            Some(1.0),
            Some(-1.0),
            Some(0.0),
            Some(0.4),
            None,
            Some(0.0),
        ]);
        let c = VectorComposition::of(&v);
        assert_eq!(c.ordinal, 2);
        assert_eq!(c.flipped, 2);
        assert_eq!(c.fractional, 1);
        assert_eq!(c.unknown, 1);
        assert_eq!(c.total(), 6);
        assert!((c.flipped_fraction() - 2.0 / 6.0).abs() < 1e-12);
        assert!((c.unknown_fraction() - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn aggregation() {
        let a = VectorComposition {
            ordinal: 1,
            flipped: 2,
            fractional: 3,
            unknown: 4,
        };
        let mut b = VectorComposition {
            ordinal: 10,
            flipped: 20,
            fractional: 30,
            unknown: 40,
        };
        b.add(&a);
        assert_eq!(
            b,
            VectorComposition {
                ordinal: 11,
                flipped: 22,
                fractional: 33,
                unknown: 44
            }
        );
    }

    #[test]
    fn empty_fractions_are_zero() {
        let c = VectorComposition::default();
        assert_eq!(c.flipped_fraction(), 0.0);
        assert_eq!(c.unknown_fraction(), 0.0);
    }
}
