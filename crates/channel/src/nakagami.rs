//! Nakagami-m fading — the standard generalization of Rayleigh.
//!
//! Under Nakagami-m fading the received *power* is Gamma-distributed
//! with shape `m` and mean `P·d^{−α}`; `m = 1` recovers the paper's
//! Rayleigh model exactly (Gamma(1, θ) is exponential), `m > 1` models
//! milder fading (strong line-of-sight), `1/2 ≤ m < 1` more severe
//! fading. The paper's closed form (Theorem 3.1) holds only for
//! `m = 1`; this module provides exact sampling as a [`FadingLaw`], so
//! the Monte-Carlo driver can measure how Rayleigh-designed schedules
//! (LDP/RLE) hold up when the real channel is not exactly Rayleigh.

use crate::gaussian;
use crate::law::FadingLaw;
use crate::params::ChannelParams;
use fading_math::Exponential;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The Nakagami-m fading channel (power gains are Gamma(m, mean/m)).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NakagamiChannel {
    /// Physical constants.
    pub params: ChannelParams,
    /// Shape parameter `m ≥ 1/2`; `1` is Rayleigh.
    pub m: f64,
}

impl NakagamiChannel {
    /// Creates the model.
    ///
    /// # Panics
    /// Panics unless `m ≥ 0.5` (the Nakagami validity range).
    pub fn new(params: ChannelParams, m: f64) -> Self {
        assert!(
            m.is_finite() && m >= 0.5,
            "Nakagami shape must satisfy m ≥ 1/2, got {m}"
        );
        Self { params, m }
    }
}

impl FadingLaw for NakagamiChannel {
    type Realization = ();

    fn begin<R: Rng + ?Sized>(&self, _: usize, _: &mut R) {}

    /// `Gamma(shape = m, scale = mean/m)`.
    #[inline]
    fn draw<R: Rng + ?Sized>(&self, _: &(), mean: &Exponential, _: usize, rng: &mut R) -> f64 {
        sample_gamma(rng, self.m, mean.mean() / self.m)
    }

    /// `None`: a Gamma draw takes a variable number of uniforms
    /// (rejection), so the kernel sums every row exactly.
    fn exponential_mean(&self, _: &(), _: f64, _: usize) -> Option<f64> {
        None
    }
}

/// Marsaglia–Tsang Gamma(shape, scale) sampling; for `shape < 1` uses
/// the Johnk boost `Gamma(a) = Gamma(a+1) · U^{1/a}`.
pub fn sample_gamma<R: Rng + ?Sized>(rng: &mut R, shape: f64, scale: f64) -> f64 {
    assert!(
        shape > 0.0 && scale > 0.0,
        "gamma parameters must be positive"
    );
    // Gamma variates drawn (the `shape < 1` boost counts both levels).
    fading_obs::counter!("channel.nakagami.draws").incr();
    if shape < 1.0 {
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        return sample_gamma(rng, shape + 1.0, scale) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let z = gaussian(rng);
        let v = (1.0 + c * z).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        if u.ln() < 0.5 * z * z + d - d * v + d * v.ln() {
            return d * v * scale;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fading_math::{seeded_rng, OnlineStats};

    #[test]
    fn gamma_sampler_matches_moments() {
        let mut rng = seeded_rng(1);
        for &(shape, scale) in &[(0.7, 2.0), (1.0, 1.5), (3.0, 0.5), (10.0, 2.0)] {
            let mut stats = OnlineStats::new();
            for _ in 0..100_000 {
                stats.push(sample_gamma(&mut rng, shape, scale));
            }
            let mean = shape * scale;
            let var = shape * scale * scale;
            assert!(
                (stats.mean() - mean).abs() < 0.03 * mean,
                "shape {shape}: mean {} vs {mean}",
                stats.mean()
            );
            assert!(
                (stats.variance() - var).abs() < 0.08 * var,
                "shape {shape}: var {} vs {var}",
                stats.variance()
            );
        }
    }

    #[test]
    fn m_equal_one_is_rayleigh() {
        // Gain distribution at m=1 must match the exponential model:
        // compare empirical CDF at a few points.
        let nak = NakagamiChannel::new(ChannelParams::paper_defaults(), 1.0);
        let mean = Exponential::with_mean(0.4);
        let mut rng = seeded_rng(2);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| nak.draw(&(), &mean, 0, &mut rng)).collect();
        for &x in &[0.2, 0.4, 0.8] {
            let emp = samples.iter().filter(|&&g| g <= x).count() as f64 / n as f64;
            let analytic = mean.cdf(x);
            assert!(
                (emp - analytic).abs() < 0.01,
                "CDF at {x}: {emp} vs {analytic}"
            );
        }
    }

    #[test]
    fn gains_are_positive_and_mean_preserving() {
        let nak = NakagamiChannel::new(ChannelParams::paper_defaults(), 2.5);
        let mean = Exponential::with_mean(1e-3);
        let mut rng = seeded_rng(4);
        let mut stats = OnlineStats::new();
        for _ in 0..50_000 {
            let g = nak.draw(&(), &mean, 1, &mut rng);
            assert!(g > 0.0 && g.is_finite());
            stats.push(g);
        }
        assert!((stats.mean() - mean.mean()).abs() < 0.03 * mean.mean());
    }

    #[test]
    #[should_panic(expected = "m ≥ 1/2")]
    fn rejects_small_m() {
        NakagamiChannel::new(ChannelParams::paper_defaults(), 0.3);
    }
}
