//! Multi-slot scheduling — the paper's stated future work
//! ("schedule all the links with the minimum number of time slots").
//!
//! The standard reduction from one-shot capacity maximization: run a
//! one-shot scheduler, commit its schedule to a slot, remove the
//! scheduled links, and repeat until every link has transmitted. If the
//! one-shot scheduler ever returns an empty schedule on a non-empty
//! residue (which the built-in schedulers never do, but the interface
//! can't promise), the shortest remaining link is scheduled alone —
//! a singleton is always feasible, so the loop terminates.

use crate::problem::Problem;
use crate::schedule::Schedule;
use crate::scope::Scope;
use crate::Scheduler;
use fading_net::LinkId;
use std::collections::HashMap;

/// A complete multi-slot schedule: every link appears in exactly one
/// slot, and every slot is feasible in isolation.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiSlotSchedule {
    slots: Vec<Schedule>,
    /// Link → slot index, precomputed so [`slot_of`](Self::slot_of) is
    /// `O(1)` instead of an `O(slots·n)` scan.
    slot_index: HashMap<LinkId, usize>,
}

impl MultiSlotSchedule {
    /// Builds the schedule from per-slot link sets, indexing each link's
    /// slot. A link appearing in several slots keeps its first.
    pub fn from_slots(slots: Vec<Schedule>) -> Self {
        let mut slot_index = HashMap::new();
        for (t, slot) in slots.iter().enumerate() {
            for id in slot.iter() {
                slot_index.entry(id).or_insert(t);
            }
        }
        Self { slots, slot_index }
    }

    /// The per-slot schedules, in transmission order.
    pub fn slots(&self) -> &[Schedule] {
        &self.slots
    }

    /// Number of time slots used.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Total number of scheduled link transmissions.
    pub fn total_links(&self) -> usize {
        self.slots.iter().map(Schedule::len).sum()
    }

    /// Slot index of a link, if scheduled (`O(1)`).
    pub fn slot_of(&self, id: LinkId) -> Option<usize> {
        self.slot_index.get(&id).copied()
    }
}

/// [`schedule_all_in`] with a private one-shot workspace.
pub fn schedule_all<S: Scheduler + ?Sized>(problem: &Problem, scheduler: &S) -> MultiSlotSchedule {
    schedule_all_in(problem, scheduler, &mut crate::ctx::SchedCtx::new())
}

/// Schedules *all* links of `problem` using `scheduler` for each slot,
/// driving every residual round through the caller's workspace.
///
/// Each round schedules the problem itself with the still-unscheduled
/// links as the [`Scope`], so every round reads the parent's power
/// scales, backend and stored factors, and nothing is rebuilt or
/// copied. The candidate list only shrinks, so the buffers sized by the
/// first round serve every later round without reallocating.
pub fn schedule_all_in<S: Scheduler + ?Sized>(
    problem: &Problem,
    scheduler: &S,
    ctx: &mut crate::ctx::SchedCtx,
) -> MultiSlotSchedule {
    let n = problem.len();
    let progress = fading_obs::Progress::new("multislot", "links", n as u64);
    let tracing = fading_obs::tracing_enabled();
    let mut remaining: Vec<LinkId> = problem.links().ids().collect();
    let mut slots = Vec::new();
    while !remaining.is_empty() {
        let slot_no = slots.len() as u64;
        if tracing {
            // The slot marker brackets the scheduler's own trace block,
            // which covers `backlog` candidates.
            fading_obs::trace::publish(vec![fading_obs::TraceEvent::SlotStart {
                slot: slot_no,
                backlog: remaining.len() as u32,
            }]);
        }
        let mut slot = scheduler.schedule_in(problem, Scope::candidates(&remaining), ctx);
        if slot.is_empty() {
            // Fallback: a singleton is always feasible (no interferers).
            let shortest = *remaining
                .iter()
                .min_by(|&&a, &&b| {
                    problem
                        .links()
                        .length(a)
                        .total_cmp(&problem.links().length(b))
                })
                .expect("remaining is non-empty");
            ctx.recycle(slot);
            slot = Schedule::from_ids([shortest]);
        }
        remaining.retain(|&id| !slot.contains(id));
        if tracing {
            fading_obs::trace::publish(vec![fading_obs::TraceEvent::SlotEnd {
                slot: slot_no,
                links: slot.iter().map(|id| id.0).collect(),
            }]);
        }
        slots.push(slot);
        let done = (n - remaining.len()) as u64;
        progress.report(
            done,
            &format!("slot {} · {} left", slots.len(), remaining.len()),
            done,
        );
    }
    MultiSlotSchedule::from_slots(slots)
}

/// A lower bound on the number of slots any multi-slot schedule needs:
/// the size of a clique in the *pairwise-conflict graph* (links `i, j`
/// conflict when even the two of them alone violate Corollary 3.1 —
/// `f_{i,j} > γ_ε` or `f_{j,i} > γ_ε`). Every member of such a clique
/// must occupy a distinct slot.
///
/// Finding the maximum clique is itself NP-hard; this returns a greedy
/// clique (highest-conflict-degree first), which is still a *valid*
/// lower bound, just not necessarily the best one.
pub fn conflict_clique_lower_bound(problem: &Problem) -> usize {
    let n = problem.len();
    if n == 0 {
        return 0;
    }
    let budget = problem.gamma_eps();
    let conflicts = |a: LinkId, b: LinkId| -> bool {
        problem.factor(a, b) > budget || problem.factor(b, a) > budget
    };
    // Conflict degree per link.
    let ids: Vec<LinkId> = problem.links().ids().collect();
    let mut order: Vec<LinkId> = ids.clone();
    let degree: Vec<usize> = ids
        .iter()
        .map(|&a| ids.iter().filter(|&&b| b != a && conflicts(a, b)).count())
        .collect();
    order.sort_by_key(|id| std::cmp::Reverse(degree[id.index()]));
    let mut clique: Vec<LinkId> = Vec::new();
    for cand in order {
        if clique.iter().all(|&m| conflicts(m, cand)) {
            clique.push(cand);
        }
    }
    clique.len().max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{GreedyRate, Ldp, Rle};
    use crate::feasibility::is_feasible;
    use fading_net::{TopologyGenerator, UniformGenerator};
    use std::collections::HashSet;

    fn problem(n: usize, seed: u64) -> Problem {
        Problem::paper(UniformGenerator::paper(n).generate(seed), 3.0)
    }

    fn assert_valid_cover(p: &Problem, ms: &MultiSlotSchedule) {
        let mut seen = HashSet::new();
        for slot in ms.slots() {
            assert!(!slot.is_empty(), "empty slot");
            assert!(is_feasible(p, slot), "infeasible slot");
            for id in slot.iter() {
                assert!(seen.insert(id), "link {id} scheduled twice");
            }
        }
        assert_eq!(seen.len(), p.len(), "not all links were scheduled");
    }

    #[test]
    fn rle_covers_all_links_with_feasible_slots() {
        let p = problem(120, 1);
        let ms = schedule_all(&p, &Rle::new());
        assert_valid_cover(&p, &ms);
        assert!(ms.num_slots() >= 1);
    }

    #[test]
    fn ldp_covers_all_links_with_feasible_slots() {
        let p = problem(80, 2);
        let ms = schedule_all(&p, &Ldp::new());
        assert_valid_cover(&p, &ms);
    }

    #[test]
    fn greedy_needs_no_more_slots_than_links() {
        let p = problem(60, 3);
        let ms = schedule_all(&p, &GreedyRate);
        assert_valid_cover(&p, &ms);
        assert!(ms.num_slots() <= p.len());
    }

    #[test]
    fn slot_of_finds_every_link() {
        let p = problem(50, 4);
        let ms = schedule_all(&p, &Rle::new());
        for id in p.links().ids() {
            assert!(ms.slot_of(id).is_some());
        }
        assert_eq!(ms.total_links(), p.len());
    }

    #[test]
    fn slot_index_matches_a_linear_scan() {
        let slots = vec![
            Schedule::from_ids([LinkId(3), LinkId(1)]),
            Schedule::from_ids([LinkId(0)]),
            Schedule::from_ids([LinkId(4), LinkId(2)]),
        ];
        let ms = MultiSlotSchedule::from_slots(slots.clone());
        for id in (0..6).map(LinkId) {
            let scanned = slots.iter().position(|s| s.contains(id));
            assert_eq!(ms.slot_of(id), scanned, "link {id}");
        }
        assert_eq!(ms.slot_of(LinkId(5)), None);
    }

    #[test]
    fn empty_problem_needs_zero_slots() {
        let links = fading_net::LinkSet::new(fading_geom::Rect::square(1.0), vec![]);
        let p = Problem::paper(links, 3.0);
        let ms = schedule_all(&p, &Rle::new());
        assert_eq!(ms.num_slots(), 0);
    }

    #[test]
    fn greedy_uses_fewer_or_equal_slots_than_singletons() {
        let p = problem(40, 5);
        let ms = schedule_all(&p, &GreedyRate);
        assert!(ms.num_slots() < p.len(), "parallelism should help");
    }

    #[test]
    fn lower_bound_is_respected_by_every_plan() {
        for seed in 0..4 {
            let p = problem(80, seed);
            let bound = conflict_clique_lower_bound(&p);
            assert!(bound >= 1);
            for s in [
                &Rle::new() as &dyn crate::Scheduler,
                &Ldp::new(),
                &GreedyRate,
            ] {
                let plan = schedule_all(&p, s);
                assert!(
                    plan.num_slots() >= bound,
                    "{}: {} slots below clique bound {bound} (seed {seed})",
                    s.name(),
                    plan.num_slots()
                );
            }
        }
    }

    #[test]
    fn lower_bound_detects_mutual_conflicts() {
        // A tight cluster of links all pairwise-conflicting: bound = n.
        use fading_geom::{Point2, Rect};
        use fading_net::{Link, LinkSet};
        let links: Vec<Link> = (0..5)
            .map(|i| {
                let y = i as f64 * 2.0;
                Link::new(
                    fading_net::LinkId(i),
                    Point2::new(0.0, y),
                    Point2::new(10.0, y),
                    1.0,
                )
            })
            .collect();
        let p = Problem::paper(LinkSet::new(Rect::square(100.0), links), 3.0);
        assert_eq!(conflict_clique_lower_bound(&p), 5);
    }

    #[test]
    fn lower_bound_is_one_for_isolated_links() {
        use fading_geom::{Point2, Rect};
        use fading_net::{Link, LinkSet};
        let links: Vec<Link> = (0..4)
            .map(|i| {
                let base = Point2::new(i as f64 * 10_000.0, 0.0);
                Link::new(
                    fading_net::LinkId(i),
                    base,
                    base + Point2::new(5.0, 0.0),
                    1.0,
                )
            })
            .collect();
        let p = Problem::paper(LinkSet::new(Rect::square(50_000.0), links), 3.0);
        assert_eq!(conflict_clique_lower_bound(&p), 1);
    }

    #[test]
    fn empty_problem_bound_is_zero() {
        let links = fading_net::LinkSet::new(fading_geom::Rect::square(1.0), vec![]);
        let p = Problem::paper(links, 3.0);
        assert_eq!(conflict_clique_lower_bound(&p), 0);
    }
}
