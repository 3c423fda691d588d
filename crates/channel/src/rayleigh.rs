//! The Rayleigh-fading channel model (Section II of the paper).
//!
//! Received powers are independent exponentials with mean `P·d^{−α}`.
//! Theorem 3.1 gives the closed-form success probability of a link under
//! a set of concurrent interferers, and Corollary 3.1 linearizes the
//! feasibility test via *interference factors*
//! `f_{i,j} = ln(1 + γ_th (d_jj/d_ij)^α)`:
//! link `j` meets its `1 − ε` reliability target iff
//! `Σ_{i ∈ P\{j}} f_{i,j} ≤ γ_ε = ln(1/(1−ε))`.

use crate::law::FadingLaw;
use crate::params::ChannelParams;
use fading_math::{Exponential, KahanSum};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The Rayleigh-fading channel.
///
/// ```
/// use fading_channel::{ChannelParams, RayleighChannel};
///
/// let ch = RayleighChannel::new(ChannelParams::paper_defaults());
/// // One interferer at the same distance as the link: Pr = 1/(1+γ_th) = 1/2.
/// let p = ch.success_probability(10.0, [10.0]);
/// assert!((p - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RayleighChannel {
    /// Physical constants.
    pub params: ChannelParams,
}

impl RayleighChannel {
    /// Creates the model over the given parameters.
    pub fn new(params: ChannelParams) -> Self {
        Self { params }
    }

    /// Samples the instantaneous received power `Z` at distance `d`
    /// (Eq. (5): `Z ~ Exp(mean = P·d^{−α})`).
    #[inline]
    pub fn sample_gain<R: Rng + ?Sized>(&self, rng: &mut R, d: f64) -> f64 {
        Exponential::with_mean(self.params.mean_gain(d)).sample(rng)
    }

    /// Interference factor with per-link power control: sender `i`
    /// transmits at `scale_i × P`, the desired sender at `scale_j × P`;
    /// the Theorem 3.1 derivation carries through with
    /// `f_{i,j} = ln(1 + γ_th (scale_i/scale_j) (d_jj/d_ij)^α)`.
    #[inline]
    pub fn interference_factor_scaled(
        &self,
        d_ij: f64,
        d_jj: f64,
        scale_i: f64,
        scale_j: f64,
    ) -> f64 {
        assert!(
            d_ij > 0.0 && d_jj > 0.0,
            "interference factor needs positive distances"
        );
        assert!(
            scale_i > 0.0 && scale_j > 0.0,
            "power scales must be positive"
        );
        (self.params.gamma_th * (scale_i / scale_j) * self.params.pow_alpha(d_jj / d_ij)).ln_1p()
    }

    /// The interference factor `f_{i,j}` of a sender at distance `d_ij`
    /// from receiver `j`, whose own link has length `d_jj` (Eq. (17)).
    ///
    /// `f_{i,j} = ln(1 + γ_th · (d_ij/d_jj)^{−α}) = ln(1 + γ_th (d_jj/d_ij)^α)`.
    ///
    /// # Panics
    /// Panics if either distance is non-positive.
    #[inline]
    pub fn interference_factor(&self, d_ij: f64, d_jj: f64) -> f64 {
        assert!(
            d_ij > 0.0 && d_jj > 0.0,
            "interference factor needs positive distances, got d_ij={d_ij}, d_jj={d_jj}"
        );
        (self.params.gamma_th * self.params.pow_alpha(d_jj / d_ij)).ln_1p()
    }

    /// Closed-form probability that receiver `j` decodes successfully
    /// (Theorem 3.1):
    /// `Pr(X_j ≥ γ_th) = Π_i 1/(1 + γ_th (d_jj/d_ij)^α) = exp(−Σ_i f_{i,j})`.
    ///
    /// `interferer_distances` yields `d_ij` for each concurrent
    /// *interfering* sender (the desired sender must not be included).
    pub fn success_probability<I>(&self, d_jj: f64, interferer_distances: I) -> f64
    where
        I: IntoIterator<Item = f64>,
    {
        (-self.sum_interference(d_jj, interferer_distances)).exp()
    }

    /// Sum of interference factors `Σ_i f_{i,j}` (compensated).
    pub fn sum_interference<I>(&self, d_jj: f64, interferer_distances: I) -> f64
    where
        I: IntoIterator<Item = f64>,
    {
        KahanSum::sum_iter(
            interferer_distances
                .into_iter()
                .map(|d_ij| self.interference_factor(d_ij, d_jj)),
        )
    }
}

impl FadingLaw for RayleighChannel {
    type Realization = ();

    fn begin<R: Rng + ?Sized>(&self, _: usize, _: &mut R) {}

    /// `Exp(mean)` (Eq. (5)).
    #[inline]
    fn exponential_mean(&self, _: &(), mean: f64, _: usize) -> Option<f64> {
        Some(mean)
    }

    /// Exactly 1: every draw's mean is the mean gain itself.
    fn mean_multiplier(&self) -> Option<f64> {
        Some(1.0)
    }

    /// One counter increment per run of realizations, so the
    /// Monte-Carlo hot loop never touches the registry per draw or per
    /// trial.
    fn count_draws(&self, draws: u64) {
        fading_obs::counter!("channel.rayleigh.draws").add(draws);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fading_math::{gamma_eps, seeded_rng, OnlineStats};
    use proptest::prelude::*;

    fn chan() -> RayleighChannel {
        RayleighChannel::new(ChannelParams::paper_defaults())
    }

    #[test]
    fn gain_sampling_mean_matches_power_law() {
        let c = chan();
        let mut rng = seeded_rng(21);
        let d = 4.0;
        let mut stats = OnlineStats::new();
        for _ in 0..100_000 {
            stats.push(c.sample_gain(&mut rng, d));
        }
        let expect = c.params.mean_gain(d);
        let rel = (stats.mean() - expect).abs() / expect;
        assert!(rel < 0.02, "rel error {rel}");
    }

    #[test]
    fn interference_factor_matches_eq_17() {
        let c = chan(); // α = 3, γ_th = 1
                        // d_ij = d_jj → f = ln(1 + 1) = ln 2.
        assert!((c.interference_factor(5.0, 5.0) - 2f64.ln()).abs() < 1e-15);
        // Interferer twice as far: f = ln(1 + 1/8).
        assert!((c.interference_factor(10.0, 5.0) - 1.125f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn interference_factor_decreases_with_interferer_distance() {
        let c = chan();
        let mut prev = f64::INFINITY;
        for i in 1..50 {
            let d_ij = i as f64;
            let f = c.interference_factor(d_ij, 5.0);
            assert!(f < prev);
            assert!(f > 0.0);
            prev = f;
        }
    }

    #[test]
    fn interference_factor_increases_with_link_length() {
        let c = chan();
        let mut prev = 0.0;
        for i in 1..50 {
            let d_jj = i as f64;
            let f = c.interference_factor(30.0, d_jj);
            assert!(f > prev, "longer links are easier to break");
            prev = f;
        }
    }

    #[test]
    fn success_probability_closed_form_is_product() {
        let c = chan();
        let d_jj = 5.0;
        let ds = [20.0, 35.0, 50.0];
        let product: f64 = ds
            .iter()
            .map(|&d: &f64| 1.0 / (1.0 + c.params.gamma_th * (d_jj / d).powf(c.params.alpha)))
            .product();
        let closed = c.success_probability(d_jj, ds.iter().copied());
        assert!((product - closed).abs() < 1e-12, "{product} vs {closed}");
    }

    #[test]
    fn no_interferers_means_certain_success() {
        // With N₀ ignored (Eq. (8)), SINR is infinite without interferers.
        let c = chan();
        assert_eq!(c.success_probability(10.0, std::iter::empty()), 1.0);
        assert_eq!(c.sum_interference(10.0, std::iter::empty()), 0.0);
    }

    #[test]
    fn monte_carlo_agrees_with_theorem_3_1() {
        // Empirical Pr(Z_jj / ΣZ_ij ≥ γ_th) vs the closed form.
        let c = chan();
        let d_jj = 6.0;
        let interferers = [15.0, 22.0, 40.0];
        let closed = c.success_probability(d_jj, interferers.iter().copied());
        let mut rng = seeded_rng(33);
        let trials = 200_000;
        let mut ok = 0u64;
        for _ in 0..trials {
            let signal = c.sample_gain(&mut rng, d_jj);
            let interference: f64 = interferers
                .iter()
                .map(|&d| c.sample_gain(&mut rng, d))
                .sum();
            if signal / interference >= c.params.gamma_th {
                ok += 1;
            }
        }
        let emp = ok as f64 / trials as f64;
        assert!(
            (emp - closed).abs() < 0.005,
            "empirical {emp} vs closed-form {closed}"
        );
    }

    #[test]
    fn corollary_3_1_threshold_is_sharp() {
        let c = chan();
        let g = gamma_eps(0.01);
        // Find an interferer distance where the factor equals γ_ε exactly:
        // ln(1 + (d_jj/d)^3) = g  →  d = d_jj / (e^g − 1)^{1/3}.
        let d_jj = 5.0;
        let d_crit = d_jj / (g.exp() - 1.0).powf(1.0 / 3.0);
        assert!(c.sum_interference(d_jj, [d_crit * 1.0001]) <= g);
        assert!(c.sum_interference(d_jj, [d_crit * 0.9999]) > g);
    }

    proptest! {
        #[test]
        fn success_probability_in_unit_interval(
            d_jj in 0.1f64..100.0,
            ds in proptest::collection::vec(0.1f64..1e4, 0..50),
            alpha in 2.1f64..6.0,
        ) {
            let c = RayleighChannel::new(ChannelParams::with_alpha(alpha));
            let p = c.success_probability(d_jj, ds.iter().copied());
            prop_assert!((0.0..=1.0).contains(&p), "p={p}");
        }

        #[test]
        fn adding_an_interferer_never_helps(
            d_jj in 0.1f64..100.0,
            ds in proptest::collection::vec(0.1f64..1e4, 1..30),
        ) {
            let c = chan();
            let without = c.success_probability(d_jj, ds[1..].iter().copied());
            let with = c.success_probability(d_jj, ds.iter().copied());
            prop_assert!(with <= without + 1e-12);
        }

        #[test]
        fn interference_sum_is_additive(
            d_jj in 0.1f64..100.0,
            ds in proptest::collection::vec(0.1f64..1e4, 0..30),
            extra in 0.1f64..1e4,
        ) {
            let c = chan();
            let base = c.sum_interference(d_jj, ds.iter().copied());
            let more = c.sum_interference(d_jj, ds.iter().copied().chain([extra]));
            let single = c.interference_factor(extra, d_jj);
            prop_assert!((more - base - single).abs() < 1e-9 * (1.0 + more.abs()));
        }
    }
}
