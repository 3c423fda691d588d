//! Graph-based (protocol-model) scheduling — the straw man the paper's
//! introduction knocks down, implemented honestly.
//!
//! Graph interference models (references \[1\]–\[9\] of the paper)
//! declare two links in conflict iff a *pairwise* test fails, then
//! schedule a maximal independent set of the conflict graph. The paper's
//! Section I critique: "although the interference from a single
//! far-away sender can be relatively small, the accumulated
//! interference from several such senders can be sufficiently high to
//! corrupt a transmission." This module provides two classic pairwise
//! rules so the critique can be measured (experiment `ext_graph_model`):
//!
//! * [`ConflictRule::PairwiseBudget`] — links conflict when *either*
//!   direction alone would exhaust the fading budget
//!   (`f_{i,j} > γ_ε` or `f_{j,i} > γ_ε`): the most charitable pairwise
//!   reading of Corollary 3.1;
//! * [`ConflictRule::DistanceRange`] — links conflict when either
//!   sender is within `range_factor × link length` of the other
//!   receiver: the classical protocol/disk model.
//!
//! Both produce maximal independent sets (greedy, shortest link first).
//! Neither bounds the *accumulated* factor, so their schedules violate
//! the reliability target — which is exactly the point.

use crate::problem::Problem;
use crate::schedule::Schedule;
use crate::scope::Scope;
use crate::Scheduler;
use fading_net::LinkId;

/// Pairwise conflict definition for the graph model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConflictRule {
    /// `f_{i,j} > γ_ε` or `f_{j,i} > γ_ε` — pairwise fading budget.
    PairwiseBudget,
    /// Disk/protocol model: sender within `factor · d` of the other
    /// receiver.
    DistanceRange {
        /// Interference-range multiple of the link length.
        factor: f64,
    },
}

/// Greedy maximal-independent-set scheduler on the pairwise conflict
/// graph (shortest links first, the standard heuristic).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphModel {
    /// The pairwise rule defining edges.
    pub rule: ConflictRule,
}

impl GraphModel {
    /// Graph model with the pairwise fading-budget rule.
    pub fn pairwise_budget() -> Self {
        Self {
            rule: ConflictRule::PairwiseBudget,
        }
    }

    /// Graph model with the protocol/disk rule.
    ///
    /// # Panics
    /// Panics unless `factor ≥ 1`.
    pub fn protocol(factor: f64) -> Self {
        assert!(factor >= 1.0, "interference range factor must be ≥ 1");
        Self {
            rule: ConflictRule::DistanceRange { factor },
        }
    }

    fn conflicts(&self, problem: &Problem, a: LinkId, b: LinkId) -> bool {
        match self.rule {
            ConflictRule::PairwiseBudget => {
                let g = problem.gamma_eps();
                problem.factor(a, b) > g || problem.factor(b, a) > g
            }
            ConflictRule::DistanceRange { factor } => {
                let links = problem.links();
                let d_ab = links.link(a).sender.distance(&links.link(b).receiver);
                let d_ba = links.link(b).sender.distance(&links.link(a).receiver);
                d_ab < factor * links.length(b) || d_ba < factor * links.length(a)
            }
        }
    }
}

impl Scheduler for GraphModel {
    fn name(&self) -> &'static str {
        match self.rule {
            ConflictRule::PairwiseBudget => "Graph(pairwise-budget)",
            ConflictRule::DistanceRange { .. } => "Graph(protocol)",
        }
    }

    fn schedule_in(
        &self,
        problem: &Problem,
        scope: Scope<'_>,
        ctx: &mut crate::ctx::SchedCtx,
    ) -> Schedule {
        let _span = fading_obs::Span::enter("core.graph_model.schedule");
        let links = problem.links();
        // Same (length asc, id asc) total order as the elimination
        // schedulers, so the two share one memo slot.
        let cached = ctx.order_is_cached(
            crate::ctx::OrderKind::ElimLength,
            scope.stamp(problem),
            scope
                .ids(problem)
                .flat_map(|i| [f64::from(i.0), links.length(i)]),
        );
        if !cached {
            ctx.order.clear();
            ctx.order.extend(scope.ids(problem));
            ctx.order.sort_unstable_by(|&a, &b| {
                links.length(a).total_cmp(&links.length(b)).then(a.cmp(&b))
            });
        }
        let mut chosen: Vec<LinkId> = Vec::new();
        for &cand in &ctx.order {
            if chosen.iter().all(|&c| !self.conflicts(problem, c, cand)) {
                chosen.push(cand);
            }
        }
        let s = Schedule::from_ids(chosen);
        // Graph models ignore accumulated interference entirely — their
        // schedules carry no γ_ε guarantee, so the trace is uncertified.
        super::emit_algo_trace(self.name(), scope.len(problem), false, &s, ctx);
        fading_obs::counter!("core.graph_model.picks").add(s.len() as u64);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::FeasibilityReport;
    use fading_net::{TopologyGenerator, UniformGenerator};

    fn problem(n: usize, seed: u64) -> Problem {
        Problem::paper(UniformGenerator::paper(n).generate(seed), 3.0)
    }

    #[test]
    fn schedules_are_pairwise_compatible() {
        let p = problem(200, 1);
        for model in [GraphModel::pairwise_budget(), GraphModel::protocol(2.0)] {
            let s = model.schedule(&p);
            assert!(!s.is_empty());
            for a in s.iter() {
                for b in s.iter() {
                    if a != b {
                        assert!(!model.conflicts(&p, a, b), "{a} and {b} conflict");
                    }
                }
            }
        }
    }

    #[test]
    fn schedule_is_maximal() {
        let p = problem(150, 2);
        let model = GraphModel::pairwise_budget();
        let s = model.schedule(&p);
        for cand in p.links().ids() {
            if s.contains(cand) {
                continue;
            }
            assert!(
                s.iter().any(|c| model.conflicts(&p, c, cand)),
                "{cand} could be added"
            );
        }
    }

    #[test]
    fn accumulated_interference_breaks_the_pairwise_schedule() {
        // The paper's Section I claim, as an assertion: pairwise
        // feasibility does not imply Corollary 3.1 feasibility. With
        // γ_ε ≈ 0.01 each pairwise factor is tiny, but dozens of them
        // accumulate.
        let mut violated = 0usize;
        for seed in 0..5 {
            let p = problem(300, seed);
            let s = GraphModel::pairwise_budget().schedule(&p);
            violated += FeasibilityReport::evaluate(&p, &s).violations().len();
        }
        assert!(
            violated > 0,
            "expected accumulation to break some pairwise-feasible links"
        );
    }

    #[test]
    fn larger_protocol_range_schedules_fewer_links() {
        let p = problem(300, 3);
        let tight = GraphModel::protocol(1.5).schedule(&p).len();
        let loose = GraphModel::protocol(6.0).schedule(&p).len();
        assert!(
            loose <= tight,
            "range 6 gave {loose}, range 1.5 gave {tight}"
        );
    }

    #[test]
    fn graph_model_out_schedules_the_fading_aware_algorithms() {
        // The allure of graph models: they look great on paper.
        let p = problem(300, 4);
        let graph = GraphModel::pairwise_budget().schedule(&p).len();
        let rle = crate::algo::Rle::new().schedule(&p).len();
        assert!(graph > rle, "graph {graph} vs RLE {rle}");
    }

    #[test]
    #[should_panic(expected = "range factor must be ≥ 1")]
    fn rejects_small_factor() {
        GraphModel::protocol(0.5);
    }
}
