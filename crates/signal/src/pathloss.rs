//! The log-distance path-loss model with log-normal shadowing (paper eq. 1)
//! and the uncertainty constant of eq. 3.

use crate::noise::Gaussian;
use crate::rss::Rss;
use rand::Rng;

/// Shortest distance the model evaluates at, in metres.
///
/// `log10(d)` diverges as `d → 0`; physically the far-field model is only
/// valid beyond the reference distance anyway, so distances are clamped to
/// this floor (1 cm — far below one grid cell, so the clamp never affects
/// face classification in practice, only the pathological "target standing
/// on a sensor" case).
pub const MIN_DISTANCE: f64 = 0.01;

/// The radio model of paper eq. (1):
/// `PL(d) = PL(d0) + A − 10·β·log10(d/d0) + X`, `X ~ N(0, σ²)`, `d0 = 1 m`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathLossModel {
    /// Measured path loss at the reference distance `d0 = 1 m`, in dBm.
    pub pl_d0: f64,
    /// The constant offset `A` of eq. (1), in dB.
    pub offset_a: f64,
    /// Path-loss exponent `β` (2 = free space; 3–4 = reflective
    /// environments; the paper's Table 1 uses 4).
    pub beta: f64,
    /// Shadowing standard deviation `σ_X` in dB (Table 1 uses 6).
    pub sigma: f64,
}

impl PathLossModel {
    /// Creates a model.
    ///
    /// # Panics
    ///
    /// Panics if `beta` is not strictly positive, `sigma` is negative, or
    /// any parameter is non-finite.
    pub fn new(pl_d0: f64, offset_a: f64, beta: f64, sigma: f64) -> Self {
        assert!(
            pl_d0.is_finite() && offset_a.is_finite() && beta.is_finite() && sigma.is_finite(),
            "path-loss parameters must be finite"
        );
        assert!(
            beta > 0.0,
            "path-loss exponent must be positive, got {beta}"
        );
        assert!(
            sigma >= 0.0,
            "shadowing σ must be non-negative, got {sigma}"
        );
        Self {
            pl_d0,
            offset_a,
            beta,
            sigma,
        }
    }

    /// The paper's simulation setting (Table 1): `β = 4`, `σ_X = 6`, with a
    /// typical `-40 dBm` reference loss and no extra offset.
    pub fn paper_default() -> Self {
        Self::new(-40.0, 0.0, 4.0, 6.0)
    }

    /// A noise-free variant (same deterministic part, `σ = 0`): useful in
    /// tests that need exact sequence ground truth.
    pub fn noiseless(&self) -> Self {
        Self {
            sigma: 0.0,
            ..*self
        }
    }

    /// Expected RSS at distance `d` metres (the deterministic part of
    /// eq. 1). `d` is clamped to [`MIN_DISTANCE`].
    #[inline]
    pub fn mean_rss(&self, d: f64) -> Rss {
        let d = d.max(MIN_DISTANCE);
        Rss::new(self.pl_d0 + self.offset_a - 10.0 * self.beta * d.log10())
    }

    /// One noisy RSS sample at distance `d` (full eq. 1).
    #[inline]
    pub fn sample_rss<R: Rng + ?Sized>(&self, d: f64, rng: &mut R) -> Rss {
        let noise = self.shadowing(rng);
        Rss::new(self.mean_rss(d).dbm() + noise)
    }

    /// Eq. 1's shadowing term alone: one zero-mean Gaussian draw of `σ`
    /// dB, the draw [`PathLossModel::sample_rss`] adds to the mean. Lets a
    /// caller sampling one distance many times compute the mean once.
    #[inline]
    pub fn shadowing<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        Gaussian::new(0.0, self.sigma).sample(rng)
    }

    /// One RSS sample with **bounded** (uniform) noise in
    /// `[−half_width, +half_width]` dB instead of eq. 1's Gaussian tail.
    ///
    /// This realizes the paper's *idealized* sensing model (Section 5): two
    /// nodes' order can only flip while the target is inside a bounded
    /// band around their bisector — with half-width `a`, the flip-possible
    /// region is exactly `|ΔRSS_mean| < 2a`, i.e. the Apollonius band of
    /// ratio `C = 10^{2a/(10β)}`. Outside it, sensing is always ordinal,
    /// which is the assumption behind the paper's claim that more sampling
    /// times monotonically reduce error. See
    /// [`PathLossModel::band_half_width`] for the converse mapping.
    ///
    /// # Panics
    ///
    /// Panics if `half_width` is negative or non-finite.
    #[inline]
    pub fn sample_rss_bounded<R: Rng + ?Sized>(&self, d: f64, half_width: f64, rng: &mut R) -> Rss {
        let noise = self.bounded_noise(half_width, rng);
        Rss::new(self.mean_rss(d).dbm() + noise)
    }

    /// The noise term of [`PathLossModel::sample_rss_bounded`] alone: one
    /// uniform draw in `[−half_width, +half_width]` dB (none when the
    /// width is zero).
    ///
    /// # Panics
    ///
    /// Panics if `half_width` is negative or non-finite.
    #[inline]
    pub fn bounded_noise<R: Rng + ?Sized>(&self, half_width: f64, rng: &mut R) -> f64 {
        assert!(
            half_width.is_finite() && half_width >= 0.0,
            "noise half-width must be non-negative, got {half_width}"
        );
        if half_width > 0.0 {
            rng.gen_range(-half_width..=half_width)
        } else {
            0.0
        }
    }

    /// The uniform-noise half-width (dB) whose flip-possible region is the
    /// Apollonius band of ratio `c`: `a = 5·β·log10(c)`.
    ///
    /// # Panics
    ///
    /// Panics if `c < 1` or non-finite.
    #[inline]
    pub fn band_half_width(&self, c: f64) -> f64 {
        assert!(c.is_finite() && c >= 1.0, "band ratio must be ≥ 1, got {c}");
        5.0 * self.beta * c.log10()
    }

    /// The uncertainty constant `C` for sensing resolution `epsilon` (dBm),
    /// per eq. (3). See [`uncertainty_constant`].
    #[inline]
    pub fn uncertainty_constant(&self, epsilon: f64) -> f64 {
        uncertainty_constant(epsilon, self.beta, self.sigma)
    }
}

/// The uncertainty constant of paper eq. (3):
///
/// ```text
/// C = exp( ln10/(10β)·ε + ½·(ln10/(10β)·√2·σ)² )
/// ```
///
/// `C ≥ 1`, with equality only for `ε = 0 ∧ σ = 0`. It bounds the distance
/// ratio within which two nodes' RSS cannot be ordered, and so fixes the
/// Apollonius uncertain boundaries of every node pair.
///
/// ```
/// use wsn_signal::uncertainty_constant;
///
/// // The paper's Table-1 setting: β = 4, σ = 6, ε = 1 ⟹ C ≈ 1.1935.
/// let c = uncertainty_constant(1.0, 4.0, 6.0);
/// assert!((c - 1.1935).abs() < 1e-3);
/// ```
///
/// # Panics
///
/// Panics if `epsilon` is negative, `beta` non-positive, `sigma` negative,
/// or any argument non-finite.
pub fn uncertainty_constant(epsilon: f64, beta: f64, sigma: f64) -> f64 {
    assert!(
        epsilon.is_finite() && beta.is_finite() && sigma.is_finite(),
        "uncertainty-constant arguments must be finite"
    );
    assert!(
        epsilon >= 0.0,
        "sensing resolution must be non-negative, got {epsilon}"
    );
    assert!(
        beta > 0.0,
        "path-loss exponent must be positive, got {beta}"
    );
    assert!(
        sigma >= 0.0,
        "shadowing σ must be non-negative, got {sigma}"
    );
    let g = std::f64::consts::LN_10 / (10.0 * beta);
    let spread = g * std::f64::consts::SQRT_2 * sigma;
    (g * epsilon + 0.5 * spread * spread).exp()
}

/// A **flip-calibrated** uncertainty constant: the distance ratio at which
/// a grouping sampling of `k` samples observes the pair's flip with
/// probability ½.
///
/// Eq. (3)'s constant characterizes where the *expected* RSS difference
/// drops below the resolution; but under Gaussian shadowing the *sampled*
/// order keeps flipping far outside that band, and the basic vector's
/// "ordinal only if all k samples agree" criterion grows stricter with k.
/// A face map built with eq. (3)'s C therefore under-sizes its `0` regions
/// relative to what the sampler actually reports, and increasingly so for
/// larger k — which is why, in a physically-noisy simulation, raising k
/// does not by itself lower the error the way the paper's idealized
/// flip-only-inside-the-band analysis (Section 5) predicts.
///
/// This function closes the loop: it finds the per-comparison reverse-order
/// probability `q` at which `P(all k comparisons agree) = (1−q)^k + q^k =
/// ½`, converts it to the mean RSS gap `Δ = ε + √2·σ·Φ⁻¹(1−q)` and returns
/// the matching ratio `C = 10^{Δ/(10β)}`. Building the face map with this
/// `C(k)` makes the offline division consistent with the online sampling
/// statistics at any k (the `fig12b` experiment contrasts both choices).
///
/// # Panics
///
/// Panics if `k < 2` (a single sample can never witness a flip) or on the
/// same parameter violations as [`uncertainty_constant`].
pub fn calibrated_uncertainty_constant(epsilon: f64, beta: f64, sigma: f64, k: usize) -> f64 {
    assert!(
        k >= 2,
        "flip calibration needs at least two samples, got {k}"
    );
    assert!(
        epsilon.is_finite() && beta.is_finite() && sigma.is_finite(),
        "calibrated-constant arguments must be finite"
    );
    assert!(
        epsilon >= 0.0,
        "sensing resolution must be non-negative, got {epsilon}"
    );
    assert!(
        beta > 0.0,
        "path-loss exponent must be positive, got {beta}"
    );
    assert!(
        sigma >= 0.0,
        "shadowing σ must be non-negative, got {sigma}"
    );

    // Solve (1−q)^k + q^k = ½ for q ∈ (0, ½); the LHS falls monotonically
    // from 1 (q = 0) to 2^{1−k} ≤ ½ (q = ½).
    let kf = k as i32;
    let agree = |q: f64| (1.0 - q).powi(kf) + q.powi(kf);
    let (mut lo, mut hi) = (0.0_f64, 0.5_f64);
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if agree(mid) > 0.5 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let q = 0.5 * (lo + hi);

    // Mean RSS gap whose comparison reverses with probability q under
    // X_n − X_m ~ N(0, 2σ²), plus the resolution dead-band.
    let delta =
        epsilon + std::f64::consts::SQRT_2 * sigma * crate::noise::inverse_normal_cdf(1.0 - q);
    10f64.powf(delta / (10.0 * beta)).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> impl Rng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn mean_rss_decreases_with_distance() {
        let m = PathLossModel::paper_default();
        let mut prev = m.mean_rss(0.5);
        for d in [1.0, 2.0, 5.0, 10.0, 40.0, 100.0] {
            let r = m.mean_rss(d);
            assert!(
                r < prev,
                "RSS must fall with distance: {r} !< {prev} at {d} m"
            );
            prev = r;
        }
    }

    #[test]
    fn reference_distance_anchors_the_model() {
        let m = PathLossModel::new(-40.0, 0.0, 4.0, 6.0);
        // At d0 = 1 m the log term vanishes.
        assert_eq!(m.mean_rss(1.0).dbm(), -40.0);
        // One decade out: −10β dB.
        assert_eq!(m.mean_rss(10.0).dbm(), -80.0);
    }

    #[test]
    fn offset_a_shifts_rss_uniformly() {
        let base = PathLossModel::new(-40.0, 0.0, 4.0, 0.0);
        let shifted = PathLossModel::new(-40.0, 7.5, 4.0, 0.0);
        for d in [1.0, 3.0, 30.0] {
            assert!((shifted.mean_rss(d).dbm() - base.mean_rss(d).dbm() - 7.5).abs() < 1e-12);
        }
    }

    #[test]
    fn tiny_distances_are_clamped() {
        let m = PathLossModel::paper_default();
        assert_eq!(m.mean_rss(0.0), m.mean_rss(MIN_DISTANCE));
        assert_eq!(m.mean_rss(1e-9), m.mean_rss(MIN_DISTANCE));
    }

    #[test]
    fn sample_rss_statistics() {
        let m = PathLossModel::paper_default();
        let mut r = rng(5);
        let n = 100_000;
        let d = 25.0;
        let samples: Vec<f64> = (0..n).map(|_| m.sample_rss(d, &mut r).dbm()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - m.mean_rss(d).dbm()).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - m.sigma).abs() < 0.05, "std {}", var.sqrt());
    }

    #[test]
    fn noiseless_is_deterministic() {
        let m = PathLossModel::paper_default().noiseless();
        let mut r = rng(9);
        let a = m.sample_rss(12.0, &mut r);
        let b = m.sample_rss(12.0, &mut r);
        assert_eq!(a, b);
        assert_eq!(a, m.mean_rss(12.0));
    }

    #[test]
    fn paper_constant_value() {
        // β = 4, σ = 6, ε = 1: g = ln10/40 ≈ 0.0575646;
        // C = exp(0.0575646 + ½·(0.0575646·√2·6)²) ≈ 1.1935.
        let c = uncertainty_constant(1.0, 4.0, 6.0);
        assert!((c - 1.1935).abs() < 1e-3, "C = {c}");
    }

    #[test]
    fn constant_is_one_only_without_noise_or_resolution() {
        assert_eq!(uncertainty_constant(0.0, 4.0, 0.0), 1.0);
        assert!(uncertainty_constant(0.5, 4.0, 0.0) > 1.0);
        assert!(uncertainty_constant(0.0, 4.0, 1.0) > 1.0);
    }

    #[test]
    fn constant_monotone_in_epsilon_and_sigma() {
        let mut prev = 1.0;
        for eps in [0.5, 1.0, 2.0, 3.0] {
            let c = uncertainty_constant(eps, 4.0, 6.0);
            assert!(c > prev);
            prev = c;
        }
        let mut prev = 1.0;
        for sigma in [1.0, 2.0, 4.0, 8.0] {
            let c = uncertainty_constant(1.0, 4.0, sigma);
            assert!(c > prev);
            prev = c;
        }
    }

    #[test]
    fn constant_decreases_with_beta() {
        // Stronger attenuation separates nodes better: C shrinks toward 1.
        let c2 = uncertainty_constant(1.0, 2.0, 6.0);
        let c4 = uncertainty_constant(1.0, 4.0, 6.0);
        assert!(c4 < c2);
    }

    /// Empirical link to the geometry: a target on the perpendicular
    /// bisector of two nodes sees each pairwise order about half the time.
    #[test]
    fn flip_probability_on_bisector() {
        let m = PathLossModel::paper_default();
        let mut r = rng(13);
        let d = 20.0_f64; // both nodes 20 m away
        let n = 20_000;
        let first_wins = (0..n)
            .filter(|_| m.sample_rss(d, &mut r) > m.sample_rss(d, &mut r))
            .count() as f64
            / n as f64;
        assert!(
            (first_wins - 0.5).abs() < 0.02,
            "P(first louder) = {first_wins}"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_beta_rejected() {
        let _ = uncertainty_constant(1.0, 0.0, 6.0);
    }

    #[test]
    fn calibrated_constant_widens_with_k() {
        // The set of ratios where a flip is likely to be *witnessed* grows
        // with the number of samples.
        let c3 = calibrated_uncertainty_constant(1.0, 4.0, 6.0, 3);
        let c5 = calibrated_uncertainty_constant(1.0, 4.0, 6.0, 5);
        let c9 = calibrated_uncertainty_constant(1.0, 4.0, 6.0, 9);
        assert!(c3 > 1.0);
        assert!(c5 > c3, "c5 {c5} vs c3 {c3}");
        assert!(c9 > c5, "c9 {c9} vs c5 {c5}");
        // And it is substantially wider than the expectation-based eq. (3).
        assert!(c5 > uncertainty_constant(1.0, 4.0, 6.0));
    }

    /// Monte-Carlo: at the calibrated boundary ratio, a k-sample grouping
    /// should see both orders about half the time.
    #[test]
    fn calibrated_constant_halves_flip_observation() {
        let (eps, beta, sigma, k) = (1.0, 4.0, 6.0, 5usize);
        let c = calibrated_uncertainty_constant(eps, beta, sigma, k);
        // Two nodes; target placed so that d_m/d_n = c exactly. The mean
        // RSS gap is then 10β·log10(c); include ε as the dead-band the
        // derivation uses (comparison is biased by ε at the boundary).
        let gap = 10.0 * beta * c.log10() - eps;
        let noise = Gaussian::new(0.0, sigma);
        let mut r = rng(31);
        let trials = 40_000;
        let mut flipped = 0;
        for _ in 0..trials {
            let mut seen_fwd = false;
            let mut seen_rev = false;
            for _ in 0..k {
                // Sign of (RSS_near − RSS_far): mean gap plus two noises.
                let delta = gap + noise.sample(&mut r) - noise.sample(&mut r);
                if delta >= 0.0 {
                    seen_fwd = true;
                } else {
                    seen_rev = true;
                }
            }
            if seen_fwd && seen_rev {
                flipped += 1;
            }
        }
        let frac = flipped as f64 / trials as f64;
        assert!((frac - 0.5).abs() < 0.03, "flip-witness fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "at least two samples")]
    fn calibration_needs_two_samples() {
        let _ = calibrated_uncertainty_constant(1.0, 4.0, 6.0, 1);
    }

    #[test]
    fn bounded_noise_stays_in_band() {
        let m = PathLossModel::paper_default();
        let mut r = rng(41);
        let mean = m.mean_rss(20.0).dbm();
        for _ in 0..10_000 {
            let s = m.sample_rss_bounded(20.0, 1.5, &mut r).dbm();
            assert!((s - mean).abs() <= 1.5 + 1e-12);
        }
        // Zero width is exact.
        assert_eq!(m.sample_rss_bounded(20.0, 0.0, &mut r), m.mean_rss(20.0));
    }

    #[test]
    fn band_half_width_matches_ratio() {
        let m = PathLossModel::paper_default();
        let c = uncertainty_constant(1.0, 4.0, 6.0);
        let a = m.band_half_width(c);
        // Two nodes at distance ratio exactly c: mean RSS gap = 2a, so a
        // flip under ±a noise is *just barely* impossible — the band edge.
        let gap = 10.0 * m.beta * c.log10();
        assert!((gap - 2.0 * a).abs() < 1e-12);
        assert_eq!(m.band_half_width(1.0), 0.0);
    }
}
