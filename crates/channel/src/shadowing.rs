//! Log-normal shadowing on top of fast fading.
//!
//! Large-scale obstructions multiply the *local-mean* received power by
//! a log-normal factor `10^{σ·Z/10}`, `Z ~ N(0,1)`, with `σ` in dB
//! (typically 4–12 dB outdoors). The paper's model captures only fast
//! (Rayleigh) fading; composing it with shadowing lets the extension
//! experiments measure how sensitive the `1 − ε` guarantee is to
//! slow-fading mis-modeling.
//!
//! The composed channel draws, per (sender, receiver) pair, a shadowing
//! factor that is *fixed for a realization lifetime* (shadowing is
//! quasi-static) and a fresh Rayleigh gain per slot. This is the
//! log-normal model of Halldórsson–Tonoyan's shadowing analysis.

use crate::gaussian;
use crate::law::FadingLaw;
use crate::params::ChannelParams;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Rayleigh fast fading composed with quasi-static log-normal shadowing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShadowedRayleigh {
    /// Physical constants.
    pub params: ChannelParams,
    /// Shadowing standard deviation in dB (`0` disables shadowing).
    pub sigma_db: f64,
}

impl ShadowedRayleigh {
    /// Creates the model.
    ///
    /// # Panics
    /// Panics if `sigma_db` is negative or non-finite.
    pub fn new(params: ChannelParams, sigma_db: f64) -> Self {
        assert!(
            sigma_db.is_finite() && sigma_db >= 0.0,
            "shadowing σ must be non-negative dB, got {sigma_db}"
        );
        Self { params, sigma_db }
    }

    /// Draws one quasi-static shadowing factor `10^{σZ/10}`.
    pub fn sample_shadow_factor<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.sigma_db == 0.0 {
            return 1.0;
        }
        fading_obs::counter!("channel.shadowing.draws").incr();
        10f64.powf(self.sigma_db * gaussian(rng) / 10.0)
    }

    /// Mean of the shadowing factor, `exp((σ·ln10/10)²/2)` — shadowing
    /// is *not* mean-one in linear scale (it is median-one), which is
    /// why it biases link budgets.
    pub fn shadow_mean(&self) -> f64 {
        let s = self.sigma_db * std::f64::consts::LN_10 / 10.0;
        (s * s / 2.0).exp()
    }
}

impl FadingLaw for ShadowedRayleigh {
    /// The `k²` shadowing factors `s_ij`, drawn sender-major before
    /// any gain.
    type Realization = Vec<f64>;

    fn begin<R: Rng + ?Sized>(&self, k: usize, rng: &mut R) -> Vec<f64> {
        (0..k * k).map(|_| self.sample_shadow_factor(rng)).collect()
    }

    /// `Exp(mean·s_ij)`: the factor is fixed before the slot's first
    /// gain.
    #[inline]
    fn exponential_mean(&self, s: &Vec<f64>, mean: f64, pair: usize) -> Option<f64> {
        Some(mean * s[pair])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fading_math::{seeded_rng, Exponential, OnlineStats};

    #[test]
    fn zero_sigma_reduces_to_rayleigh() {
        let params = ChannelParams::paper_defaults();
        let sh = ShadowedRayleigh::new(params, 0.0);
        let mut rng = seeded_rng(1);
        assert_eq!(sh.sample_shadow_factor(&mut rng), 1.0);
        assert_eq!(sh.shadow_mean(), 1.0);
        // Zero σ draws no RNG: every factor is 1 and each gain is the
        // Rayleigh draw off the same stream.
        let field = sh.begin(3, &mut rng);
        assert_eq!(field, vec![1.0; 9]);
        let mean = Exponential::with_mean(params.mean_gain(6.0));
        let mut twin = rng.clone();
        for _ in 0..1000 {
            let g = sh.draw(&field, &mean, 7, &mut rng);
            assert_eq!(g.to_bits(), mean.sample(&mut twin).to_bits());
        }
    }

    #[test]
    fn shadow_factor_is_median_one_mean_above_one() {
        let sh = ShadowedRayleigh::new(ChannelParams::paper_defaults(), 8.0);
        let mut rng = seeded_rng(2);
        let mut samples: Vec<f64> = (0..100_000)
            .map(|_| sh.sample_shadow_factor(&mut rng))
            .collect();
        samples.sort_by(f64::total_cmp);
        let median = samples[samples.len() / 2];
        assert!((median - 1.0).abs() < 0.05, "median {median}");
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!(
            (mean - sh.shadow_mean()).abs() < 0.1 * sh.shadow_mean(),
            "mean {mean} vs analytic {}",
            sh.shadow_mean()
        );
        assert!(mean > 1.0);
    }

    #[test]
    fn larger_sigma_spreads_the_factor() {
        let mut rng = seeded_rng(3);
        let mut spread = |sigma: f64| {
            let sh = ShadowedRayleigh::new(ChannelParams::paper_defaults(), sigma);
            let mut stats = OnlineStats::new();
            for _ in 0..50_000 {
                stats.push(sh.sample_shadow_factor(&mut rng).ln());
            }
            stats.std_dev()
        };
        let s4 = spread(4.0);
        let s12 = spread(12.0);
        assert!(s12 > 2.5 * s4, "σ=4 spread {s4}, σ=12 spread {s12}");
    }

    #[test]
    fn shadow_factor_scales_gain_mean() {
        let params = ChannelParams::paper_defaults();
        let sh = ShadowedRayleigh::new(params, 6.0);
        let mut rng = seeded_rng(4);
        let mean = Exponential::with_mean(params.mean_gain(10.0));
        // Pair 2 (sender 1 at receiver 0 of 2 links) carries factor 3.
        let field = vec![1.0, 1.0, 3.0, 1.0];
        let mut stats = OnlineStats::new();
        for _ in 0..100_000 {
            stats.push(sh.draw(&field, &mean, 2, &mut rng));
        }
        let expect = mean.mean() * 3.0;
        assert!((stats.mean() - expect).abs() < 0.02 * expect);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_sigma() {
        ShadowedRayleigh::new(ChannelParams::paper_defaults(), -1.0);
    }
}
