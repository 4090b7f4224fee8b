//! Gaussian noise generation (the shadowing term `X ~ N(0, σ²)` of eq. 1).
//!
//! Implemented with the Box–Muller transform on top of any [`rand::Rng`]
//! rather than pulling in `rand_distr`: the suite needs exactly one
//! distribution, and keeping it in-repo keeps the dependency set to the
//! sanctioned crates.

use rand::Rng;

/// A normal distribution `N(mean, std²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gaussian {
    /// Mean of the distribution.
    pub mean: f64,
    /// Standard deviation (non-negative).
    pub std: f64,
}

impl Gaussian {
    /// Creates `N(mean, std²)`.
    ///
    /// # Panics
    ///
    /// Panics if `std` is negative or either parameter is non-finite.
    pub fn new(mean: f64, std: f64) -> Self {
        assert!(
            mean.is_finite() && std.is_finite(),
            "Gaussian parameters must be finite"
        );
        assert!(
            std >= 0.0,
            "standard deviation must be non-negative, got {std}"
        );
        Self { mean, std }
    }

    /// The standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Self {
            mean: 0.0,
            std: 1.0,
        }
    }

    /// Draws one sample via Box–Muller.
    ///
    /// Uses the polar-free basic form: `z = √(−2 ln u₁) · cos(2π u₂)` with
    /// `u₁ ∈ (0, 1]` so the log never sees zero. One of the two available
    /// variates is deliberately discarded — callers here draw few values per
    /// RNG and the stateless form keeps sampling reproducible regardless of
    /// call interleaving.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // gen::<f64>() is in [0, 1); flip to (0, 1] for the logarithm.
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        self.mean + self.std * z
    }

    /// Fills `out` with independent samples.
    pub fn sample_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        for v in out {
            *v = self.sample(rng);
        }
    }
}

/// The standard normal CDF `Φ(x)`, via `erf`-free Abramowitz–Stegun 7.1.26
/// style approximation with |error| < 7.5e-8 — ample for calibrating flip
/// probabilities.
pub fn normal_cdf(x: f64) -> f64 {
    // Φ(x) = ½·erfc(−x/√2); use a rational approximation of erfc.
    let z = x / std::f64::consts::SQRT_2;
    0.5 * erfc(-z)
}

/// Complementary error function (positive and negative arguments), with
/// relative error below 1.2e-7 (Numerical Recipes' `erfc` Chebyshev fit).
fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// The standard normal quantile `Φ⁻¹(p)` for `p ∈ (0, 1)`, by bisection on
/// [`normal_cdf`] (monotone; 80 iterations pin it far below the CDF
/// approximation error).
///
/// # Panics
///
/// Panics if `p` is outside `(0, 1)`.
pub fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "quantile probability must be in (0, 1), got {p}"
    );
    let (mut lo, mut hi) = (-40.0_f64, 40.0_f64);
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if normal_cdf(mid) < p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> impl Rng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn sample_statistics_match_parameters() {
        let g = Gaussian::new(3.0, 2.0);
        let mut r = rng(42);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| g.sample(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.02, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.02, "std {}", var.sqrt());
    }

    #[test]
    fn zero_std_is_deterministic() {
        let g = Gaussian::new(-7.0, 0.0);
        let mut r = rng(1);
        for _ in 0..100 {
            assert_eq!(g.sample(&mut r), -7.0);
        }
    }

    #[test]
    fn samples_are_always_finite() {
        let g = Gaussian::standard();
        let mut r = rng(7);
        for _ in 0..100_000 {
            assert!(g.sample(&mut r).is_finite());
        }
    }

    #[test]
    fn sample_into_fills_buffer() {
        let g = Gaussian::standard();
        let mut r = rng(3);
        let mut buf = [0.0; 32];
        g.sample_into(&mut r, &mut buf);
        // Vanishingly unlikely any entry is exactly zero.
        assert!(buf.iter().all(|v| *v != 0.0));
    }

    #[test]
    fn symmetric_tail_mass() {
        // ~15.9% of N(0,1) mass lies above +1 (and below −1).
        let g = Gaussian::standard();
        let mut r = rng(11);
        let n = 100_000;
        let above = (0..n).filter(|_| g.sample(&mut r) > 1.0).count() as f64 / n as f64;
        assert!((above - 0.1587).abs() < 0.01, "upper tail {above}");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_std_rejected() {
        let _ = Gaussian::new(0.0, -1.0);
    }

    #[test]
    fn normal_cdf_reference_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.0) - 0.841344746).abs() < 1e-6);
        assert!((normal_cdf(-1.0) - 0.158655254).abs() < 1e-6);
        assert!((normal_cdf(1.959963985) - 0.975).abs() < 1e-6);
        assert!((normal_cdf(-3.0) - 0.001349898).abs() < 1e-6);
        assert!(normal_cdf(9.0) > 1.0 - 1e-12);
    }

    #[test]
    fn inverse_normal_cdf_round_trips() {
        for &p in &[0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let x = inverse_normal_cdf(p);
            assert!((normal_cdf(x) - p).abs() < 1e-6, "p = {p}, x = {x}");
        }
        assert!((inverse_normal_cdf(0.975) - 1.959963985).abs() < 1e-4);
        // The quantile inherits the CDF approximation's ~1e-7 error.
        assert!(inverse_normal_cdf(0.5).abs() < 1e-5);
    }

    #[test]
    fn cdf_matches_sampling() {
        let g = Gaussian::standard();
        let mut r = rng(23);
        let n = 200_000;
        let below = (0..n).filter(|_| g.sample(&mut r) < 0.7).count() as f64 / n as f64;
        assert!((below - normal_cdf(0.7)).abs() < 0.005);
    }

    #[test]
    #[should_panic(expected = "in (0, 1)")]
    fn quantile_rejects_boundary() {
        let _ = inverse_normal_cdf(1.0);
    }
}
