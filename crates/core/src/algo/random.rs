//! Random-order feasible insertion — the weakest sane baseline.
//!
//! Inserts links in a seeded random order, keeping each link iff the
//! insertion preserves Corollary 3.1 feasibility. Used by tests (any
//! guaranteed algorithm should beat it on average) and by the ablation
//! benches as a floor.

use crate::ctx::SchedCtx;
use crate::feasibility::InterferenceAccumulator;
use crate::problem::Problem;
use crate::schedule::Schedule;
use crate::scope::Scope;
use crate::Scheduler;
use fading_math::seeded_rng;
use fading_obs::{ElimCause, TraceEvent, TraceScope};
use rand::seq::SliceRandom;

/// Random-order feasible insertion with a fixed seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomFeasible {
    /// Seed for the insertion order.
    pub seed: u64,
}

impl RandomFeasible {
    /// Creates the scheduler with the given seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }
}

impl Scheduler for RandomFeasible {
    fn name(&self) -> &'static str {
        "RandomFeasible"
    }

    fn schedule_in(&self, problem: &Problem, scope: Scope<'_>, ctx: &mut SchedCtx) -> Schedule {
        let _span = fading_obs::Span::enter("core.random.schedule");
        let k = scope.len(problem);
        // Shuffled, not sorted: claim the buffer as scratch so the
        // order memo is invalidated for the next memoizing caller.
        let order = ctx.order_scratch();
        order.clear();
        order.extend(scope.ids(problem));
        order.shuffle(&mut seeded_rng(self.seed));
        let budget = problem.gamma_eps();
        let mut tr = TraceScope::begin();
        if tr.active() {
            tr.push(TraceEvent::AlgoStart {
                scheduler: "RandomFeasible".to_string(),
                n: k as u32,
                certified: true,
            });
        }
        let SchedCtx { order, sums, .. } = ctx;
        let mut acc = InterferenceAccumulator::new(problem, scope, sums);
        for &id in order.iter() {
            if acc.addition_is_feasible(id, budget) {
                acc.select(id);
                tr.push(TraceEvent::Pick { link: id.0 });
            } else if tr.active() {
                tr.push(TraceEvent::Eliminate {
                    link: id.0,
                    cause: ElimCause::BudgetExceeded,
                    by: None,
                });
            }
        }
        let schedule = Schedule::from_ids(acc.selected().iter().copied());
        if tr.active() {
            tr.push(TraceEvent::End {
                scheduled: schedule.iter().map(|id| id.0).collect(),
            });
        }
        tr.finish();
        fading_obs::counter!("core.random.picks").add(schedule.len() as u64);
        fading_obs::counter!("core.random.eliminations").add((k - schedule.len()) as u64);
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::is_feasible;
    use fading_net::{LinkId, TopologyGenerator, UniformGenerator};

    #[test]
    fn schedules_are_feasible_and_nonempty() {
        for seed in 0..5 {
            let links = UniformGenerator::paper(150).generate(seed);
            let p = Problem::paper(links, 3.0);
            let s = RandomFeasible::new(seed).schedule(&p);
            assert!(!s.is_empty());
            assert!(is_feasible(&p, &s));
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let links = UniformGenerator::paper(100).generate(1);
        let p = Problem::paper(links, 3.0);
        assert_eq!(
            RandomFeasible::new(9).schedule(&p),
            RandomFeasible::new(9).schedule(&p)
        );
    }

    #[test]
    fn schedule_is_maximal() {
        // No unscheduled link could be added without breaking the budget.
        let links = UniformGenerator::paper(120).generate(2);
        let p = Problem::paper(links, 3.0);
        let s = RandomFeasible::new(5).schedule(&p);
        for id in p.links().ids() {
            if s.contains(id) {
                continue;
            }
            let mut ids: Vec<LinkId> = s.iter().collect();
            ids.push(id);
            let extended = Schedule::from_ids(ids);
            assert!(
                !is_feasible(&p, &extended),
                "{id} could have been added — schedule not maximal"
            );
        }
    }
}
