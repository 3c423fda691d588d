//! Local-search post-optimizer for feasible schedules.
//!
//! Not from the paper: a polish pass that takes any feasible schedule
//! and greedily applies two kinds of moves while they help:
//!
//! * **Add** — insert an unscheduled link if the whole selection stays
//!   within the `γ_ε` budget (strict utility gain);
//! * **Swap(1→1)** — replace one member with one non-member of higher
//!   rate if the result is feasible.
//!
//! Every accepted move strictly increases utility, and utility is
//! bounded by `Σλ`, so termination is immediate; feasibility is an
//! invariant. The ablation bench uses it to measure how much utility
//! the guaranteed algorithms' conservative radii leave on the table.

use crate::feasibility::{within_budget, InterferenceAccumulator};
use crate::problem::Problem;
use crate::schedule::Schedule;
use crate::scope::Scope;
use crate::Scheduler;
use fading_net::LinkId;

/// Wraps a base scheduler with a local-search improvement pass.
#[derive(Debug, Clone, Copy)]
pub struct LocalSearch<S> {
    /// The scheduler whose output is polished.
    pub base: S,
    /// Upper bound on improvement rounds (each round scans all moves;
    /// a round with no accepted move terminates early).
    pub max_rounds: usize,
}

impl<S: Scheduler> LocalSearch<S> {
    /// Polishes `base`'s schedules with up to 50 improvement rounds.
    pub fn new(base: S) -> Self {
        Self {
            base,
            max_rounds: 50,
        }
    }
}

/// Improves `schedule` in place semantics (returns the improved copy).
pub fn improve(problem: &Problem, schedule: &Schedule, max_rounds: usize) -> Schedule {
    improve_in(problem, Scope::all(), schedule, max_rounds)
}

/// [`improve`] with moves restricted to the candidates of `scope`,
/// weighted by it.
fn improve_in(
    problem: &Problem,
    scope: Scope<'_>,
    schedule: &Schedule,
    max_rounds: usize,
) -> Schedule {
    let budget = problem.gamma_eps();
    let weight = |id| scope.weight(problem, id);
    let mut members: Vec<LinkId> = schedule.iter().collect();
    let mut sums = Vec::new();

    for _ in 0..max_rounds {
        let mut improved = false;
        // Add moves, on an accumulator of the current member set.
        let mut acc = InterferenceAccumulator::new(problem, scope, &mut sums);
        for &i in &members {
            acc.select(i);
        }
        for id in scope.ids(problem) {
            if members.contains(&id) {
                continue;
            }
            if acc.addition_is_feasible(id, budget) {
                acc.select(id);
                members.push(id);
                improved = true;
            }
        }
        // Swap moves: try to replace a member with a higher-weight
        // outsider (only useful with non-uniform weights).
        let outsiders: Vec<LinkId> = scope
            .ids(problem)
            .filter(|id| !members.contains(id))
            .collect();
        'swap: for k in 0..members.len() {
            let out = members[k];
            for &cand in &outsiders {
                if weight(cand) <= weight(out) {
                    continue;
                }
                let mut trial: Vec<LinkId> = members.clone();
                trial[k] = cand;
                if selection_feasible(problem, &trial, budget) {
                    members = trial;
                    improved = true;
                    break 'swap; // restart scanning with fresh state
                }
            }
        }
        if !improved {
            break;
        }
    }
    Schedule::from_ids(members)
}

fn selection_feasible(problem: &Problem, members: &[LinkId], budget: f64) -> bool {
    members.iter().all(|&j| {
        let sum: f64 = members
            .iter()
            .filter(|&&i| i != j)
            .map(|&i| problem.factor(i, j))
            .sum();
        within_budget(sum, budget)
    })
}

impl<S: Scheduler> Scheduler for LocalSearch<S> {
    fn name(&self) -> &'static str {
        "LocalSearch"
    }

    fn schedule_in(
        &self,
        problem: &Problem,
        scope: Scope<'_>,
        ctx: &mut crate::ctx::SchedCtx,
    ) -> Schedule {
        let _span = fading_obs::Span::enter("core.local_search.schedule");
        let base = self.base.schedule_in(problem, scope, ctx);
        let s = improve_in(problem, scope, &base, self.max_rounds);
        super::emit_algo_trace("LocalSearch", scope.len(problem), true, &s, ctx);
        fading_obs::counter!("core.local_search.picks").add(s.len() as u64);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{Ldp, Rle};
    use crate::feasibility::is_feasible;
    use fading_net::{RateModel, TopologyGenerator, UniformGenerator};

    fn problem(n: usize, seed: u64) -> Problem {
        Problem::paper(UniformGenerator::paper(n).generate(seed), 3.0)
    }

    #[test]
    fn never_decreases_utility_and_stays_feasible() {
        for seed in 0..5 {
            let p = problem(150, seed);
            for base in [&Ldp::new() as &dyn Scheduler, &Rle::new()] {
                let before = base.schedule(&p);
                let after = improve(&p, &before, 50);
                assert!(
                    after.utility(&p) >= before.utility(&p) - 1e-12,
                    "{} got worse on seed {seed}",
                    base.name()
                );
                assert!(is_feasible(&p, &after));
            }
        }
    }

    #[test]
    fn result_is_maximal() {
        let p = problem(120, 7);
        let after = improve(&p, &Rle::new().schedule(&p), 50);
        for id in p.links().ids() {
            if after.contains(id) {
                continue;
            }
            let mut trial: Vec<LinkId> = after.iter().collect();
            trial.push(id);
            assert!(
                !selection_feasible(&p, &trial, p.gamma_eps()),
                "{id} could still be added"
            );
        }
    }

    #[test]
    fn improves_ldp_substantially_on_dense_instances() {
        // LDP's colored grid leaves most of the region idle; the add
        // pass should recover a good chunk.
        let p = problem(400, 9);
        let before = Ldp::new().schedule(&p).utility(&p);
        let after = improve(&p, &Ldp::new().schedule(&p), 50).utility(&p);
        assert!(
            after >= before * 1.5,
            "expected a big gain: before {before}, after {after}"
        );
    }

    #[test]
    fn swap_moves_fire_with_heterogeneous_rates() {
        let gen = UniformGenerator {
            rates: RateModel::Uniform { lo: 1.0, hi: 10.0 },
            ..UniformGenerator::paper(120)
        };
        let p = Problem::paper(gen.generate(3), 3.0);
        let before = Rle::new().schedule(&p);
        let after = improve(&p, &before, 50);
        assert!(after.utility(&p) >= before.utility(&p));
        assert!(is_feasible(&p, &after));
    }

    #[test]
    fn empty_input_schedule_is_grown() {
        let p = problem(80, 11);
        let after = improve(&p, &Schedule::empty(), 50);
        assert!(!after.is_empty());
        assert!(is_feasible(&p, &after));
    }

    #[test]
    fn scheduler_wrapper_composes() {
        let p = problem(100, 13);
        let wrapped = LocalSearch::new(Rle::new());
        let s = wrapped.schedule(&p);
        assert!(is_feasible(&p, &s));
        assert!(s.utility(&p) >= Rle::new().schedule(&p).utility(&p) - 1e-12);
        assert_eq!(wrapped.name(), "LocalSearch");
    }
}
