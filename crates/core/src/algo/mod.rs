//! Scheduling algorithms.
//!
//! The fading-resistant algorithms (LDP, RLE, and their shared
//! machinery) guarantee Corollary 3.1 feasibility; the baselines
//! (ApproxLogN, ApproxDiversity) guarantee only deterministic-SINR
//! feasibility and exist to reproduce the paper's fading-susceptibility
//! comparison (Fig. 5). The exact solvers bound everything from above
//! on small instances.

pub mod anneal;
pub mod approx_diversity;
pub mod approx_logn;
pub mod dls;
pub mod elim_core;
pub mod exact;
pub mod graph_model;
pub mod greedy;
pub mod grid_core;
pub mod ldp;
pub mod local_search;
pub mod power;
pub mod random;
pub mod rle;

pub use anneal::Anneal;
pub use approx_diversity::ApproxDiversity;
pub use approx_logn::ApproxLogN;
pub use dls::{Dls, DlsOutcome};
pub use exact::ExactBnb;
pub use graph_model::{ConflictRule, GraphModel};
pub use greedy::GreedyRate;
pub use grid_core::ClassMode;
pub use ldp::Ldp;
pub use local_search::LocalSearch;
pub use power::PowerAssignment;
pub use random::RandomFeasible;
pub use rle::Rle;

/// Emits the generic decision-trace block for schedulers whose search
/// is too entangled for per-decision attribution (B&B, annealing,
/// conflict graphs, …): an `AlgoStart` header, one `Pick` per
/// scheduled link, and the final membership. The replay verifier
/// checks membership — and the full γ_ε ledger when `certified`.
///
/// The fast path is allocation-free: nothing is built when tracing is
/// disabled, or when the ring is already saturated and would drop the
/// block on publish anyway. When a block is emitted it is staged in the
/// ctx's reusable scratch buffer and drained into the ring in place.
pub(crate) fn emit_algo_trace(
    scheduler: &str,
    n: usize,
    certified: bool,
    schedule: &crate::schedule::Schedule,
    ctx: &mut crate::ctx::SchedCtx,
) {
    use fading_obs::{trace, TraceEvent};
    if !fading_obs::tracing_enabled() || trace::ring_saturated() {
        return;
    }
    let buf = &mut ctx.trace_buf;
    buf.clear();
    buf.push(TraceEvent::AlgoStart {
        scheduler: scheduler.to_string(),
        n: n as u32,
        certified,
    });
    for id in schedule.iter() {
        buf.push(TraceEvent::Pick { link: id.0 });
    }
    buf.push(TraceEvent::End {
        scheduled: schedule.iter().map(|id| id.0).collect(),
    });
    trace::publish_from(buf);
}
