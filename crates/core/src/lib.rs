//! Fading-Resistant Link Scheduling (Fading-R-LS).
//!
//! This crate is the paper's primary contribution: given a set of links
//! in the plane and a Rayleigh-fading channel, select the sender subset
//! maximizing total data rate such that every selected link succeeds
//! with probability at least `1 − ε` (Section III).
//!
//! The decision machinery rests on Corollary 3.1: link `j` meets its
//! reliability target under concurrent senders `P` iff
//! `Σ_{i∈P\{j}} f_{i,j} ≤ γ_ε`, with interference factors
//! `f_{i,j} = ln(1 + γ_th (d_jj/d_ij)^α)` served by an
//! [`interference::InterferenceBackend`]: either the dense precomputed
//! [`interference::InterferenceMatrix`] (the paper-scale default) or
//! the spatial-hash truncated [`sparse::SparseInterference`] with a
//! certified tail budget (the `10⁵`-link scale path; see
//! `docs/interference.md`).
//!
//! # Algorithms
//!
//! | Algorithm | Module | Guarantee | Notes |
//! |---|---|---|---|
//! | LDP | [`algo::ldp`] | `O(g(L))` | link-diversity grid partition (Alg. 1) |
//! | RLE | [`algo::rle`] | `O(1)` | uniform rates, shortest-first elimination (Alg. 2) |
//! | ApproxLogN | [`algo::approx_logn`] | — | deterministic-SINR baseline [Goussevskaia+ 07] |
//! | ApproxDiversity | [`algo::approx_diversity`] | — | deterministic-SINR baseline [Goussevskaia+ 09] |
//! | GreedyRate | [`algo::greedy`] | heuristic | feasibility-aware rate-greedy |
//! | Exact | [`algo::exact`] | optimal | branch-and-bound, small `N` |
//! | DLS | [`algo::dls`] | reconstruction | decentralized rounds (see DESIGN.md §5) |
//!
//! The ILP of Eq. (20)–(22) is in [`ilp`], the Knapsack reduction of
//! Theorem 3.2 in [`reduction`], and the multi-slot extension (the
//! paper's future work) in [`multislot`].

pub mod algo;
pub mod certify;
pub mod constants;
pub mod ctx;
pub mod feasibility;
pub mod ilp;
pub mod interference;
pub mod kernel;
pub mod multislot;
pub mod mutate;
pub mod problem;
pub mod reduction;
pub mod registry;
pub mod schedule;
pub mod scope;
pub mod sparse;

pub use certify::{replay_block, replay_trace, verify_schedule, Certificate};
pub use ctx::SchedCtx;
pub use feasibility::FeasibilityReport;
pub use interference::{InterferenceBackend, InterferenceMatrix};
pub use mutate::{BatchReceipt, LinkSpec, MutationBatch, MutationError};
pub use problem::{BackendChoice, Problem, ProblemBuilder};
pub use registry::AlgoId;
pub use schedule::Schedule;
pub use scope::Scope;
pub use sparse::{SparseConfig, SparseInterference};

/// A one-shot link scheduling algorithm.
///
/// `Send + Sync` so sweeps can evaluate instances in parallel; all
/// built-in schedulers are plain data.
pub trait Scheduler: Send + Sync {
    /// Human-readable algorithm name (used by result tables).
    fn name(&self) -> &'static str;

    /// Computes a schedule for one time slot over `scope`, using the
    /// caller's reusable workspace. This is the engine entry point: the
    /// ctx carries only buffer capacity, never semantic state, so the
    /// result is bit-identical to a fresh workspace's regardless of
    /// what the ctx was previously used for (see `docs/engine.md`).
    ///
    /// Only scope candidates are scheduled, weighted by the scope's
    /// weights (or their rates). The result equals this scheduler's
    /// schedule of a fresh build of the candidates alone, mapped back
    /// to live ids (see `docs/residual.md`).
    ///
    /// Implementations must return schedules that are feasible *under
    /// the model the algorithm assumes* — for the fading-resistant
    /// algorithms that is Corollary 3.1; for the deterministic
    /// baselines it is the non-fading SINR test (which is the point of
    /// the comparison).
    fn schedule_in(&self, problem: &Problem, scope: Scope<'_>, ctx: &mut SchedCtx) -> Schedule;

    /// Schedules every link with a private one-shot workspace —
    /// convenience wrapper over [`schedule_in`](Self::schedule_in) for
    /// call sites that don't schedule in a loop.
    fn schedule(&self, problem: &Problem) -> Schedule {
        self.schedule_in(problem, Scope::all(), &mut SchedCtx::new())
    }
}
