//! Received-signal-strength newtype.

use std::cmp::Ordering;
use std::fmt;

/// A received signal strength in dBm.
///
/// RSS values produced by the path-loss model are always finite, which lets
/// us give `Rss` a total order (what the grouping-sampling matrix sorts by)
/// without dragging NaN case analysis through every caller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rss(f64);

impl Rss {
    /// Wraps a dBm value.
    ///
    /// # Panics
    ///
    /// Panics if `dbm` is NaN (infinities are rejected too): a NaN reading
    /// would silently poison the order statistics of a whole grouping
    /// sampling.
    #[inline]
    pub fn new(dbm: f64) -> Self {
        assert!(dbm.is_finite(), "RSS must be finite, got {dbm}");
        Self(dbm)
    }

    /// The raw dBm value.
    #[inline]
    pub fn dbm(self) -> f64 {
        self.0
    }
}

impl Eq for Rss {}

impl PartialOrd for Rss {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rss {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Finite by construction, so partial_cmp never fails.
        self.0
            .partial_cmp(&other.0)
            .expect("RSS is finite by construction")
    }
}

impl fmt::Display for Rss {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} dBm", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_by_dbm() {
        let weak = Rss::new(-80.0);
        let strong = Rss::new(-40.0);
        assert!(strong > weak);
        assert_eq!(strong.max(weak), strong);
        assert_eq!(Rss::new(-55.5).dbm(), -55.5);
    }

    #[test]
    fn sortable_in_collections() {
        let mut v = vec![Rss::new(-60.0), Rss::new(-40.0), Rss::new(-75.0)];
        v.sort();
        assert_eq!(v, vec![Rss::new(-75.0), Rss::new(-60.0), Rss::new(-40.0)]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rejected() {
        let _ = Rss::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinity_rejected() {
        let _ = Rss::new(f64::INFINITY);
    }
}
