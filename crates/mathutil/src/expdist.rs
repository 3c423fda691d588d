//! Exponential distribution with a given *mean* (not rate).
//!
//! The Rayleigh-fading model of the paper states that received powers
//! `|h|²·P·d^{−α}` are exponentially distributed with mean `P·d^{−α}`
//! (Eq. (4)–(5)). Sampling uses the inverse-CDF transform, which keeps us
//! free of an extra distribution crate and is exact.

use rand::Rng;

/// Exponential distribution parameterized by its mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Creates a distribution with the given mean.
    ///
    /// # Panics
    /// Panics if `mean` is not finite and positive.
    pub fn with_mean(mean: f64) -> Self {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential mean must be finite and positive, got {mean}"
        );
        Self { mean }
    }

    /// The distribution mean.
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Draws one sample via inverse transform: `-mean · ln(1 − U)`.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.from_uniform(rng.gen())
    }

    /// The inverse transform of one uniform `u ∈ [0, 1)`:
    /// `-mean · ln(1 − u)`, bit for bit what [`Self::sample`] returns
    /// when its generator yields `u`.
    #[inline]
    pub fn from_uniform(&self, u: f64) -> f64 {
        // u ∈ [0,1); 1-u ∈ (0,1] so ln is finite.
        -self.mean * (1.0 - u).ln()
    }

    /// CDF `Pr(X ≤ x) = 1 − e^{−x/mean}` (Eq. (5) of the paper).
    #[inline]
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            -(-x / self.mean).exp_m1()
        }
    }

    /// Survival function `Pr(X > x) = e^{−x/mean}`.
    #[inline]
    pub fn sf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            1.0
        } else {
            (-x / self.mean).exp()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;
    use crate::stats::OnlineStats;
    use proptest::prelude::*;

    #[test]
    fn sample_mean_converges_to_parameter() {
        let dist = Exponential::with_mean(3.5);
        let mut rng = seeded_rng(11);
        let mut stats = OnlineStats::new();
        for _ in 0..200_000 {
            stats.push(dist.sample(&mut rng));
        }
        let rel = (stats.mean() - 3.5).abs() / 3.5;
        assert!(rel < 0.02, "relative error {rel}");
    }

    #[test]
    fn sample_variance_is_mean_squared() {
        let dist = Exponential::with_mean(2.0);
        let mut rng = seeded_rng(12);
        let mut stats = OnlineStats::new();
        for _ in 0..200_000 {
            stats.push(dist.sample(&mut rng));
        }
        let rel = (stats.variance() - 4.0).abs() / 4.0;
        assert!(rel < 0.05, "relative error {rel}");
    }

    #[test]
    fn samples_are_nonnegative_and_finite() {
        let dist = Exponential::with_mean(1e-9);
        let mut rng = seeded_rng(13);
        for _ in 0..10_000 {
            let x = dist.sample(&mut rng);
            assert!(x.is_finite() && x >= 0.0);
        }
    }

    #[test]
    fn cdf_matches_paper_equation_5() {
        let dist = Exponential::with_mean(2.0);
        assert_eq!(dist.cdf(0.0), 0.0);
        let x = 1.3;
        let expect = 1.0 - (-x / 2.0f64).exp();
        assert!((dist.cdf(x) - expect).abs() < 1e-15);
        assert!((dist.cdf(x) + dist.sf(x) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn empirical_cdf_matches_analytic() {
        let dist = Exponential::with_mean(1.0);
        let mut rng = seeded_rng(14);
        let n = 100_000;
        let below: usize = (0..n).filter(|_| dist.sample(&mut rng) <= 1.0).count();
        let emp = below as f64 / n as f64;
        assert!((emp - dist.cdf(1.0)).abs() < 0.01, "emp={emp}");
    }

    #[test]
    #[should_panic(expected = "mean must be finite and positive")]
    fn rejects_zero_mean() {
        Exponential::with_mean(0.0);
    }

    proptest! {
        #[test]
        fn cdf_is_monotone(mean in 1e-6f64..1e6, a in 0.0f64..100.0, b in 0.0f64..100.0) {
            let d = Exponential::with_mean(mean);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(d.cdf(lo) <= d.cdf(hi) + 1e-15);
            prop_assert!((0.0..=1.0).contains(&d.cdf(a)));
        }
    }
}
