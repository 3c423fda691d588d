//! Wireless channel models for the fading-rls workspace.
//!
//! Two models live here:
//!
//! * [`rayleigh`] — the paper's model (Section II): the instantaneous
//!   power received at distance `d` from a sender transmitting at power
//!   `P` is exponential with mean `P·d^{−α}`. Theorem 3.1's closed-form
//!   success probability and Corollary 3.1's linear *interference
//!   factors* are implemented here.
//! * [`deterministic`] — the classical (non-fading) SINR model used by
//!   the ApproxLogN / ApproxDiversity baselines, in which the received
//!   power is exactly `P·d^{−α}`.
//!
//! [`sinr`] computes realized SINRs from sampled gain matrices, and
//! [`params`] holds the shared physical constants. [`law`] is the trait
//! the Monte-Carlo kernel draws through, for every fading channel.

pub mod capacity;
pub mod correlated;
pub mod deterministic;
pub mod law;
pub mod nakagami;
pub mod params;
pub mod rayleigh;
pub mod shadowing;
pub mod sinr;

pub use capacity::{ergodic_capacity, outage_probability, sinr_ccdf};
pub use correlated::{CorrelatedGain, CorrelatedRayleigh};
pub use deterministic::DeterministicSinr;
pub use law::FadingLaw;
pub use nakagami::NakagamiChannel;
pub use params::ChannelParams;
pub use rayleigh::RayleighChannel;
pub use shadowing::ShadowedRayleigh;
pub use sinr::{sinr_of, SinrOutcome};

/// Standard normal via Box–Muller.
pub(crate) fn gaussian<R: rand::Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}
