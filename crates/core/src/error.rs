//! Tracking-error statistics (the metrics of the paper's Section 7:
//! per-point geographic error, mean and standard deviation).

/// Summary statistics over a sequence of per-localization errors (metres).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorStats {
    /// Number of localizations.
    pub count: usize,
    /// Mean error.
    pub mean: f64,
    /// Population standard deviation of the error.
    pub std: f64,
    /// Root mean squared error.
    pub rmse: f64,
    /// Smallest error.
    pub min: f64,
    /// Largest error.
    pub max: f64,
}

impl ErrorStats {
    /// Computes the statistics.
    ///
    /// # Panics
    ///
    /// Panics if `errors` is empty or contains non-finite values.
    pub fn from_errors(errors: &[f64]) -> Self {
        assert!(!errors.is_empty(), "no errors to summarize");
        let n = errors.len() as f64;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &e in errors {
            assert!(e.is_finite(), "non-finite error value {e}");
            sum += e;
            sum_sq += e * e;
            min = min.min(e);
            max = max.max(e);
        }
        let mean = sum / n;
        // Clamp: catastrophic cancellation can push the variance a hair
        // below zero for constant inputs.
        let var = (sum_sq / n - mean * mean).max(0.0);
        Self {
            count: errors.len(),
            mean,
            std: var.sqrt(),
            rmse: (sum_sq / n).sqrt(),
            min,
            max,
        }
    }
}

/// The `q`-quantile of `errors` (`q ∈ [0, 1]`), by linear interpolation
/// between order statistics. `q = 0.5` is the median — more robust than
/// the mean when a tracker occasionally teleports.
///
/// # Panics
///
/// Panics if `errors` is empty, contains non-finite values, or `q` is
/// outside `[0, 1]`.
pub fn quantile(errors: &[f64], q: f64) -> f64 {
    assert!(!errors.is_empty(), "no errors to summarize");
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile must be in [0, 1], got {q}"
    );
    let mut sorted: Vec<f64> = errors.to_vec();
    for e in &sorted {
        assert!(e.is_finite(), "non-finite error value {e}");
    }
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// The median error: [`quantile`]`(errors, 0.5)`.
pub fn median(errors: &[f64]) -> f64 {
    quantile(errors, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_statistics() {
        let s = ErrorStats::from_errors(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.std - 1.118033988749895).abs() < 1e-12);
        assert!((s.rmse - (30.0_f64 / 4.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn constant_errors_have_zero_std() {
        let s = ErrorStats::from_errors(&[2.0; 100]);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.rmse, 2.0);
    }

    #[test]
    fn single_sample() {
        let s = ErrorStats::from_errors(&[7.0]);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.std, 0.0);
    }

    #[test]
    fn quantiles() {
        let errors = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&errors), 3.0);
        assert_eq!(quantile(&errors, 0.0), 1.0);
        assert_eq!(quantile(&errors, 1.0), 5.0);
        assert_eq!(quantile(&errors, 0.25), 2.0);
        // Interpolation between order statistics.
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn median_is_robust_to_outliers() {
        let errors = [1.0, 1.0, 1.0, 1.0, 100.0];
        assert_eq!(median(&errors), 1.0);
        assert!(ErrorStats::from_errors(&errors).mean > 20.0);
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn bad_quantile_rejected() {
        let _ = quantile(&[1.0], 1.5);
    }

    #[test]
    #[should_panic(expected = "no errors")]
    fn empty_rejected() {
        let _ = ErrorStats::from_errors(&[]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_rejected() {
        let _ = ErrorStats::from_errors(&[1.0, f64::NAN]);
    }
}
