//! Monte-Carlo evaluation harness for Fading-R-LS schedulers.
//!
//! The paper evaluates schedules by simulation (Section V): draw
//! Rayleigh channel realizations, count how many scheduled links fail
//! to clear the decoding threshold, and measure delivered throughput.
//! This crate provides:
//!
//! * [`batch`] — pooled scheduling workspaces so sweep workers reuse
//!   warm scratch arenas instead of allocating per instance;
//! * [`slot`] — one channel realization of a schedule, generic over the
//!   fading law;
//! * [`churn`] — the per-slot queueing loop over a live instance, with
//!   optional link arrivals and departures;
//! * [`monte_carlo`] — many independent realizations in parallel
//!   (rayon), reduced in trial order so no statistic depends on the
//!   thread count;
//! * [`config`] — the paper's experiment configuration (500×500 field,
//!   link lengths U\[5,20\], ε = 0.01, γ_th = 1, λ = 1) plus sweep grids;
//! * [`runner`] — the Fig. 5/Fig. 6 sweeps over `N` and `α` for any set
//!   of schedulers;
//! * [`results`] — serializable result rows, text tables, and CSV.

pub mod batch;
pub mod churn;
pub mod config;
pub mod convergence;
pub mod monte_carlo;
pub mod results;
pub mod robustness;
pub mod runner;
pub mod slot;

pub use batch::BatchRunner;
pub use churn::{
    stability_frontier, ChurnConfig, ChurnEngine, ChurnResult, ChurnSlot, ChurnTelemetry,
    ServicePolicy, TelemetryConfig,
};
pub use config::ExperimentConfig;
pub use convergence::{convergence_trace, trials_for_ci, TracePoint};
pub use monte_carlo::{simulate_many, simulate_many_under, MonteCarloStats};
pub use results::{ResultRow, ResultTable};
pub use robustness::{burstiness, drift_reliability, sinr_histogram, BurstStats};
pub use runner::{sweep, sweep_alpha, sweep_n, SweepAxis};
pub use slot::{realized_sinrs, simulate_slot, SlotOutcome};
