//! Temporally correlated Rayleigh fading (first-order Gauss–Markov).
//!
//! The paper treats every slot as an independent fading draw; physical
//! channels decorrelate over a coherence time, so consecutive slots are
//! correlated and losses come in bursts. The standard discrete-time
//! model keeps the underlying complex channel coefficient as an AR(1)
//! process,
//!
//! `h_t = ρ·h_{t−1} + √(1−ρ²)·w_t`,  `w_t ~ CN(0, σ²)`,
//!
//! whose envelope-power `|h_t|²` is marginally exponential with mean
//! `σ² = P·d^{−α}` (so every single slot still obeys Theorem 3.1
//! exactly), while the autocorrelation of the power process is `ρ²` per
//! slot. `ρ = J₀(2π f_D T)` links the coefficient to Doppler `f_D` and
//! slot length `T` in the Jakes model; here `ρ` is a direct parameter.
//!
//! Used by the burstiness extension (E12): expected failures per slot
//! are unchanged, but failures *cluster*, which is what ARQ and
//! higher-layer recovery actually feel.

use crate::gaussian;
use crate::params::ChannelParams;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A correlated Rayleigh process for one (sender, receiver) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrelatedGain {
    /// In-phase component of `h`.
    re: f64,
    /// Quadrature component of `h`.
    im: f64,
    /// Per-slot coefficient correlation `ρ ∈ [0, 1)`.
    rho: f64,
    /// Mean power `σ² = P·d^{−α}`.
    mean_power: f64,
}

/// The correlated-fading channel factory.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CorrelatedRayleigh {
    /// Physical constants.
    pub params: ChannelParams,
    /// Per-slot correlation of the complex coefficient (`0` recovers
    /// i.i.d. Rayleigh slots; power autocorrelation is `ρ²`).
    pub rho: f64,
}

impl CorrelatedRayleigh {
    /// Creates the model.
    ///
    /// # Panics
    /// Panics unless `0 ≤ ρ < 1`.
    pub fn new(params: ChannelParams, rho: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&rho),
            "coefficient correlation must be in [0,1), got {rho}"
        );
        Self { params, rho }
    }

    /// Initializes the process for a pair at distance `d`, drawing the
    /// stationary state.
    pub fn init<R: Rng + ?Sized>(&self, rng: &mut R, d: f64) -> CorrelatedGain {
        let mean_power = self.params.mean_gain(d);
        let s = (mean_power / 2.0).sqrt();
        CorrelatedGain {
            re: s * gaussian(rng),
            im: s * gaussian(rng),
            rho: self.rho,
            mean_power,
        }
    }
}

impl CorrelatedGain {
    /// Advances one slot and returns the realized power `|h_t|²`.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        let s = ((1.0 - self.rho * self.rho) * self.mean_power / 2.0).sqrt();
        self.re = self.rho * self.re + s * gaussian(rng);
        self.im = self.rho * self.im + s * gaussian(rng);
        self.re * self.re + self.im * self.im
    }

    /// The mean power of the process.
    pub fn mean_power(&self) -> f64 {
        self.mean_power
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fading_math::{seeded_rng, OnlineStats};

    fn chan(rho: f64) -> CorrelatedRayleigh {
        CorrelatedRayleigh::new(ChannelParams::paper_defaults(), rho)
    }

    #[test]
    fn marginal_power_is_exponential_with_the_rayleigh_mean() {
        // At any fixed t the power must match the paper's model: mean
        // P·d^{−α} and CDF 1 − e^{−x/mean}.
        let c = chan(0.9);
        let mut rng = seeded_rng(1);
        let d = 6.0;
        let mean = c.params.mean_gain(d);
        let mut stats = OnlineStats::new();
        let mut below_mean = 0u64;
        let n = 50_000;
        for _ in 0..n {
            // Fresh process each time: stationary marginal.
            let mut g = c.init(&mut rng, d);
            let p = g.step(&mut rng);
            stats.push(p);
            if p <= mean {
                below_mean += 1;
            }
        }
        assert!(
            (stats.mean() - mean).abs() < 0.03 * mean,
            "{}",
            stats.mean()
        );
        let frac = below_mean as f64 / n as f64;
        let expect = 1.0 - (-1.0f64).exp();
        assert!((frac - expect).abs() < 0.01, "{frac} vs {expect}");
    }

    #[test]
    fn rho_zero_is_iid() {
        let c = chan(0.0);
        let mut rng = seeded_rng(2);
        let mut g = c.init(&mut rng, 5.0);
        // Lag-1 power correlation ≈ 0.
        let mut xs = Vec::new();
        for _ in 0..40_000 {
            xs.push(g.step(&mut rng));
        }
        let corr = lag1_correlation(&xs);
        assert!(corr.abs() < 0.03, "lag-1 corr {corr}");
    }

    #[test]
    fn power_autocorrelation_is_rho_squared() {
        let rho = 0.9;
        let c = chan(rho);
        let mut rng = seeded_rng(3);
        let mut g = c.init(&mut rng, 5.0);
        let mut xs = Vec::new();
        for _ in 0..200_000 {
            xs.push(g.step(&mut rng));
        }
        let corr = lag1_correlation(&xs);
        assert!(
            (corr - rho * rho).abs() < 0.03,
            "lag-1 power corr {corr} vs ρ² = {}",
            rho * rho
        );
    }

    #[test]
    fn higher_rho_means_longer_outage_runs() {
        // Below-median runs lengthen with correlation.
        let mut rng = seeded_rng(4);
        let mut mean_run = |rho: f64| {
            let c = chan(rho);
            let mut g = c.init(&mut rng, 5.0);
            let median = c.params.mean_gain(5.0) * std::f64::consts::LN_2;
            let mut runs = Vec::new();
            let mut current = 0u32;
            for _ in 0..100_000 {
                if g.step(&mut rng) < median {
                    current += 1;
                } else if current > 0 {
                    runs.push(current);
                    current = 0;
                }
            }
            runs.iter().map(|&r| r as f64).sum::<f64>() / runs.len() as f64
        };
        let iid = mean_run(0.0);
        let sticky = mean_run(0.95);
        assert!(sticky > 2.0 * iid, "iid {iid}, ρ=0.95 {sticky}");
    }

    #[test]
    #[should_panic(expected = "must be in [0,1)")]
    fn rejects_rho_one() {
        chan(1.0);
    }

    fn lag1_correlation(xs: &[f64]) -> f64 {
        let n = xs.len() - 1;
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        let cov = (0..n)
            .map(|i| (xs[i] - mean) * (xs[i + 1] - mean))
            .sum::<f64>()
            / n as f64;
        cov / var
    }
}
