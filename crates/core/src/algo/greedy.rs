//! Rate-greedy fading-aware heuristic.
//!
//! Not from the paper: a natural upper-baseline that inserts links in
//! non-increasing rate order whenever the insertion keeps the whole
//! selection within the `γ_ε` budget (Corollary 3.1). It has no
//! approximation guarantee but is feasible by construction and useful
//! for calibrating how much utility the guaranteed algorithms leave on
//! the table.

use crate::ctx::{OrderKind, SchedCtx};
use crate::feasibility::InterferenceAccumulator;
use crate::problem::Problem;
use crate::schedule::Schedule;
use crate::scope::Scope;
use crate::Scheduler;
use fading_obs::{ElimCause, TraceEvent, TraceScope};

/// Greedy-by-rate insertion with exact feasibility checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GreedyRate;

impl GreedyRate {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self
    }
}

impl Scheduler for GreedyRate {
    fn name(&self) -> &'static str {
        "GreedyRate"
    }

    fn schedule_in(&self, problem: &Problem, scope: Scope<'_>, ctx: &mut SchedCtx) -> Schedule {
        let _span = fading_obs::Span::enter("core.greedy.schedule");
        let links = problem.links();
        let weight = |i| scope.weight(problem, i);
        // Highest weight first; ties by shorter length (easier to keep
        // feasible), then id — a total order, so the unstable sort's
        // result is unique and memoizable on the (weight, length) keys.
        let keys = scope
            .ids(problem)
            .flat_map(|i| [f64::from(i.0), weight(i), links.length(i)]);
        if !ctx.order_is_cached(OrderKind::GreedyRate, scope.stamp(problem), keys) {
            ctx.order.clear();
            ctx.order.extend(scope.ids(problem));
            ctx.order.sort_unstable_by(|&a, &b| {
                weight(b)
                    .total_cmp(&weight(a))
                    .then(links.length(a).total_cmp(&links.length(b)))
                    .then(a.cmp(&b))
            });
        }
        let budget = problem.gamma_eps();
        let k = scope.len(problem);
        let mut tr = TraceScope::begin();
        if tr.active() {
            tr.push(TraceEvent::AlgoStart {
                scheduler: "GreedyRate".to_string(),
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
        fading_obs::counter!("core.greedy.picks").add(schedule.len() as u64);
        fading_obs::counter!("core.greedy.eliminations").add((k - schedule.len()) as u64);
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::is_feasible;
    use fading_net::{RateModel, TopologyGenerator, UniformGenerator};

    #[test]
    fn schedules_are_feasible() {
        for seed in 0..5 {
            let links = UniformGenerator::paper(200).generate(seed);
            let p = Problem::paper(links, 3.0);
            let s = GreedyRate.schedule(&p);
            assert!(!s.is_empty());
            assert!(is_feasible(&p, &s), "seed={seed}");
        }
    }

    #[test]
    fn prefers_high_rate_links() {
        let gen = UniformGenerator {
            rates: RateModel::Uniform { lo: 1.0, hi: 10.0 },
            ..UniformGenerator::paper(100)
        };
        let p = Problem::paper(gen.generate(3), 3.0);
        let s = GreedyRate.schedule(&p);
        // The single highest-rate link is always schedulable first.
        let best = p
            .links()
            .ids()
            .max_by(|&a, &b| p.rate(a).total_cmp(&p.rate(b)))
            .unwrap();
        assert!(s.contains(best));
    }

    #[test]
    fn at_least_matches_rle_on_uniform_rates() {
        // Greedy has no guarantee, but with exact feasibility checks it
        // should not be systematically worse than the conservative RLE
        // radii on the paper workload.
        let mut greedy_total = 0.0;
        let mut rle_total = 0.0;
        for seed in 0..5 {
            let links = UniformGenerator::paper(300).generate(seed);
            let p = Problem::paper(links, 3.0);
            greedy_total += GreedyRate.schedule(&p).utility(&p);
            rle_total += crate::algo::Rle::new().schedule(&p).utility(&p);
        }
        assert!(
            greedy_total >= rle_total * 0.8,
            "{greedy_total} vs {rle_total}"
        );
    }

    #[test]
    fn empty_instance() {
        let links = fading_net::LinkSet::new(fading_geom::Rect::square(1.0), vec![]);
        let p = Problem::paper(links, 3.0);
        assert!(GreedyRate.schedule(&p).is_empty());
    }
}
