//! Exact solvers for small instances.
//!
//! Fading-R-LS is NP-hard (Theorem 3.2), so these are exponential-time
//! reference solvers used to (i) verify the approximation algorithms'
//! empirical ratios against the proven bounds, (ii) validate the ILP
//! formulation, and (iii) check both directions of the Knapsack
//! reduction.
//!
//! [`branch_and_bound`] does depth-first search in non-increasing rate
//! order with a remaining-utility bound and incremental feasibility;
//! [`exhaustive`] enumerates all `2^N` subsets and exists purely as an
//! oracle for cross-checking the pruned search on tiny instances.
//! [`ExactBnb`] runs the same search over a scope's candidates, so its
//! size limit bounds the candidates, not the live problem.

use crate::ctx::SchedCtx;
use crate::feasibility::InterferenceAccumulator;
use crate::problem::Problem;
use crate::schedule::Schedule;
use crate::scope::Scope;
use crate::Scheduler;
use fading_net::LinkId;

/// Practical instance-size ceiling for [`branch_and_bound`]; beyond
/// this the search may take unbounded time and the caller almost
/// certainly wants an approximation algorithm instead.
pub const BNB_MAX_LINKS: usize = 40;

/// Exact optimum by branch-and-bound.
///
/// # Panics
/// Panics if the instance has more than [`BNB_MAX_LINKS`] links.
pub fn branch_and_bound(problem: &Problem) -> Schedule {
    search(problem, Scope::all(), &mut Vec::new())
}

/// The optimum over the candidates of `scope` (weighted by it), with
/// `sums` lent to the accumulator.
///
/// # Panics
/// Panics if the scope has more than [`BNB_MAX_LINKS`] candidates.
fn search(problem: &Problem, scope: Scope<'_>, sums: &mut Vec<f64>) -> Schedule {
    let k = scope.len(problem);
    assert!(
        k <= BNB_MAX_LINKS,
        "branch-and-bound limited to {BNB_MAX_LINKS} links, instance has {k}"
    );
    let weight = |id| scope.weight(problem, id);
    let mut order: Vec<LinkId> = scope.ids(problem).collect();
    // High weights first so good solutions are found early and the
    // utility bound prunes aggressively.
    order.sort_by(|&a, &b| weight(b).total_cmp(&weight(a)).then(a.cmp(&b)));
    // suffix[k] = total weight of order[k..]: the best any completion can add.
    let mut suffix = vec![0.0; order.len() + 1];
    for k in (0..order.len()).rev() {
        suffix[k] = suffix[k + 1] + weight(order[k]);
    }

    struct Search<'p> {
        problem: &'p Problem,
        scope: Scope<'p>,
        order: Vec<LinkId>,
        suffix: Vec<f64>,
        budget: f64,
        best_utility: f64,
        best: Vec<LinkId>,
        // Accumulated locally and flushed to the metric registry once
        // per solve, keeping the exponential search free of atomics.
        nodes: u64,
        pruned: u64,
    }

    impl Search<'_> {
        fn dfs(&mut self, k: usize, acc: &mut InterferenceAccumulator<'_>, utility: f64) {
            self.nodes += 1;
            if utility > self.best_utility {
                self.best_utility = utility;
                self.best = acc.selected().to_vec();
            }
            if k == self.order.len() {
                return;
            }
            if utility + self.suffix[k] <= self.best_utility {
                self.pruned += 1;
                return;
            }
            let id = self.order[k];
            // Include branch first: the weight ordering makes inclusion
            // the promising direction.
            if acc.addition_is_feasible(id, self.budget) {
                let undo = acc.checkpoint();
                acc.select(id);
                let gain = self.scope.weight(self.problem, id);
                self.dfs(k + 1, acc, utility + gain);
                acc.rollback(undo);
            }
            self.dfs(k + 1, acc, utility);
        }
    }

    let mut search = Search {
        problem,
        scope,
        order,
        suffix,
        budget: problem.gamma_eps(),
        best_utility: f64::NEG_INFINITY,
        best: Vec::new(),
        nodes: 0,
        pruned: 0,
    };
    let mut acc = InterferenceAccumulator::new(problem, scope, sums);
    search.dfs(0, &mut acc, 0.0);
    fading_obs::counter!("core.exact.nodes").add(search.nodes);
    fading_obs::counter!("core.exact.pruned").add(search.pruned);
    Schedule::from_ids(search.best)
}

/// Practical ceiling for [`exhaustive`] (cost `O(2^N · N²)`).
pub const EXHAUSTIVE_MAX_LINKS: usize = 18;

/// Exact optimum by full subset enumeration (oracle for tests).
///
/// # Panics
/// Panics if the instance has more than [`EXHAUSTIVE_MAX_LINKS`] links.
pub fn exhaustive(problem: &Problem) -> Schedule {
    let n = problem.len();
    assert!(
        n <= EXHAUSTIVE_MAX_LINKS,
        "exhaustive search limited to {EXHAUSTIVE_MAX_LINKS} links, instance has {n}"
    );
    let budget = problem.gamma_eps();
    let mut best_mask = 0u32;
    let mut best_utility = f64::NEG_INFINITY;
    for mask in 0u32..(1u32 << n) {
        let mut utility = 0.0;
        let mut feasible = true;
        for j in 0..n {
            if mask & (1 << j) == 0 {
                continue;
            }
            let jd = LinkId(j as u32);
            utility += problem.rate(jd);
            let mut sum = 0.0;
            for i in 0..n {
                if i != j && mask & (1 << i) != 0 {
                    sum += problem.factor(LinkId(i as u32), jd);
                }
            }
            if !crate::feasibility::within_budget(sum, budget) {
                feasible = false;
                break;
            }
        }
        if feasible && utility > best_utility {
            best_utility = utility;
            best_mask = mask;
        }
    }
    fading_obs::counter!("core.exact.exhaustive_masks").add(1u64 << n);
    Schedule::from_ids(
        (0..n)
            .filter(|j| best_mask & (1 << j) != 0)
            .map(|j| LinkId(j as u32)),
    )
}

/// [`branch_and_bound`] behind the [`Scheduler`] interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExactBnb;

impl ExactBnb {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self
    }
}

impl Scheduler for ExactBnb {
    fn name(&self) -> &'static str {
        "Exact(B&B)"
    }

    fn schedule_in(&self, problem: &Problem, scope: Scope<'_>, ctx: &mut SchedCtx) -> Schedule {
        let _span = fading_obs::Span::enter("core.exact.schedule");
        let s = search(problem, scope, &mut ctx.sums);
        super::emit_algo_trace("Exact(B&B)", scope.len(problem), true, &s, ctx);
        fading_obs::counter!("core.exact.picks").add(s.len() as u64);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::is_feasible;
    use fading_net::{RateModel, TopologyGenerator, UniformGenerator};

    fn small_problem(n: usize, seed: u64) -> Problem {
        // A small dense field so feasibility actually binds.
        let gen = UniformGenerator {
            side: 120.0,
            n,
            len_lo: 5.0,
            len_hi: 20.0,
            rates: RateModel::Fixed(1.0),
        };
        Problem::paper(gen.generate(seed), 3.0)
    }

    #[test]
    fn bnb_matches_exhaustive_on_small_instances() {
        for seed in 0..8 {
            let p = small_problem(10, seed);
            let bnb = branch_and_bound(&p);
            let oracle = exhaustive(&p);
            assert!(
                (bnb.utility(&p) - oracle.utility(&p)).abs() < 1e-9,
                "seed {seed}: B&B {} vs exhaustive {}",
                bnb.utility(&p),
                oracle.utility(&p)
            );
        }
    }

    #[test]
    fn bnb_matches_exhaustive_with_varied_rates() {
        for seed in 0..5 {
            let gen = UniformGenerator {
                side: 120.0,
                n: 11,
                len_lo: 5.0,
                len_hi: 20.0,
                rates: RateModel::Uniform { lo: 0.5, hi: 3.0 },
            };
            let p = Problem::paper(gen.generate(seed), 3.0);
            let bnb = branch_and_bound(&p);
            let oracle = exhaustive(&p);
            assert!(
                (bnb.utility(&p) - oracle.utility(&p)).abs() < 1e-9,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn optimum_is_feasible() {
        for seed in 0..5 {
            let p = small_problem(12, seed);
            let s = branch_and_bound(&p);
            assert!(is_feasible(&p, &s), "seed {seed}");
        }
    }

    #[test]
    fn optimum_dominates_every_heuristic() {
        for seed in 0..5 {
            let p = small_problem(12, seed);
            let opt = branch_and_bound(&p).utility(&p);
            for sched in [
                crate::algo::Ldp::new().schedule(&p).utility(&p),
                crate::algo::Rle::new().schedule(&p).utility(&p),
                crate::algo::GreedyRate.schedule(&p).utility(&p),
                crate::algo::RandomFeasible::new(1).schedule(&p).utility(&p),
            ] {
                assert!(
                    opt >= sched - 1e-9,
                    "seed {seed}: opt {opt} < heuristic {sched}"
                );
            }
        }
    }

    #[test]
    fn empty_instance_optimum_is_empty() {
        let links = fading_net::LinkSet::new(fading_geom::Rect::square(1.0), vec![]);
        let p = Problem::paper(links, 3.0);
        assert!(branch_and_bound(&p).is_empty());
        assert!(exhaustive(&p).is_empty());
    }

    #[test]
    fn isolated_links_are_all_scheduled() {
        // Links thousands of units apart don't interfere: optimum = all.
        use fading_geom::{Point2, Rect};
        use fading_net::{Link, LinkSet};
        let links: Vec<Link> = (0..6)
            .map(|i| {
                let base = Point2::new(i as f64 * 5000.0, 0.0);
                Link::new(LinkId(i), base, base + Point2::new(5.0, 0.0), 1.0)
            })
            .collect();
        let p = Problem::paper(LinkSet::new(Rect::square(30_000.0), links), 3.0);
        let s = branch_and_bound(&p);
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn bnb_matches_exhaustive_at_twelve_links() {
        for seed in 0..6 {
            let p = small_problem(12, seed);
            let bnb = branch_and_bound(&p);
            assert!(
                (bnb.utility(&p) - exhaustive(&p).utility(&p)).abs() < 1e-9,
                "seed {seed}"
            );
            assert!(is_feasible(&p, &bnb));
        }
    }

    #[test]
    fn bnb_matches_exhaustive_with_varied_rates_at_thirteen_links() {
        let gen = UniformGenerator {
            side: 120.0,
            n: 13,
            len_lo: 5.0,
            len_hi: 20.0,
            rates: RateModel::Uniform { lo: 0.5, hi: 3.0 },
        };
        for seed in 0..3 {
            let p = Problem::paper(gen.generate(seed), 3.0);
            assert!(
                (branch_and_bound(&p).utility(&p) - exhaustive(&p).utility(&p)).abs() < 1e-9,
                "seed {seed}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "branch-and-bound limited")]
    fn bnb_rejects_oversized_instances() {
        let p = Problem::paper(UniformGenerator::paper(60).generate(0), 3.0);
        branch_and_bound(&p);
    }
}
