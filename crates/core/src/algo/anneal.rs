//! Simulated annealing for the general (weighted) Fading-R-LS.
//!
//! [`LocalSearch`] only adds links and swaps one-for-one, so it can
//! park in states where only a *group* move (drop one blocker, insert
//! two lighter links) improves utility. Annealing explores such moves:
//! toggle a random link (drop if selected; insert-with-repair if not),
//! accept worse states with probability `e^{Δ/T}` under a geometric
//! cooling schedule, and track the best feasible state ever visited.
//!
//! Feasibility is maintained as an invariant: insertions that would
//! break Corollary 3.1 greedily evict the lowest-rate conflicting
//! members first, and the move is evaluated on the repaired state.
//!
//! [`LocalSearch`]: crate::algo::LocalSearch

use crate::ctx::SchedCtx;
use crate::feasibility::within_budget;
use crate::problem::Problem;
use crate::schedule::Schedule;
use crate::scope::Scope;
use crate::Scheduler;
use fading_math::seeded_rng;
use fading_net::LinkId;
use rand::Rng;

/// Simulated-annealing scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Anneal {
    /// Move evaluations (the computational budget).
    pub iterations: u32,
    /// Initial temperature, in units of the mean link rate.
    pub t0: f64,
    /// Geometric cooling factor per iteration.
    pub cooling: f64,
    /// RNG seed (annealing is randomized; fixed seed = reproducible).
    pub seed: u64,
}

impl Anneal {
    /// A sensible default budget (10k moves, T₀ = 2 mean rates).
    pub fn new(seed: u64) -> Self {
        Self {
            iterations: 10_000,
            t0: 2.0,
            cooling: 0.9995,
            seed,
        }
    }
}

/// Internal mutable state: selection bitmap + per-receiver factor sums
/// (indexed by live id; only the candidates' entries are read).
struct State<'p> {
    problem: &'p Problem,
    scope: Scope<'p>,
    selected: Vec<bool>,
    sums: Vec<f64>,
    utility: f64,
}

impl<'p> State<'p> {
    fn new(problem: &'p Problem, scope: Scope<'p>) -> Self {
        Self {
            problem,
            scope,
            selected: vec![false; problem.len()],
            sums: vec![0.0; problem.len()],
            utility: 0.0,
        }
    }

    fn weight(&self, id: LinkId) -> f64 {
        self.scope.weight(self.problem, id)
    }

    fn insert(&mut self, id: LinkId) {
        debug_assert!(!self.selected[id.index()]);
        self.selected[id.index()] = true;
        self.utility += self.weight(id);
        if let Some(row) = self.problem.dense_row(id) {
            for (sum, f) in self.sums.iter_mut().zip(row) {
                *sum += f;
            }
        } else {
            let sums = &mut self.sums;
            let sparse = self.problem.factors().as_sparse().expect("a sparse store");
            sparse.for_each_out(id, &mut |j, f| sums[j.index()] += f);
        }
    }

    fn remove(&mut self, id: LinkId) {
        debug_assert!(self.selected[id.index()]);
        self.selected[id.index()] = false;
        self.utility -= self.weight(id);
        if let Some(row) = self.problem.dense_row(id) {
            for (sum, f) in self.sums.iter_mut().zip(row) {
                *sum -= f;
            }
        } else {
            let sums = &mut self.sums;
            let sparse = self.problem.factors().as_sparse().expect("a sparse store");
            sparse.for_each_out(id, &mut |j, f| sums[j.index()] -= f);
        }
    }

    /// Whether the current selection satisfies Corollary 3.1. Under a
    /// truncating backend the stored sums are lower bounds, so the test
    /// is taken against the *upper* envelope — conservative, keeping
    /// the tracked best state truly feasible (dense: exact, unchanged).
    fn feasible_with(&self, extra: Option<LinkId>) -> bool {
        let budget = self.problem.gamma_eps();
        let factors = self.problem.factors();
        let members = self.members().count() + usize::from(extra.is_some());
        self.scope
            .ids(self.problem)
            .filter(|&j| self.selected[j.index()] || extra == Some(j))
            .all(|j| {
                let mut s = self.sums[j.index()];
                if let Some(e) = extra {
                    if e != j {
                        s += self.problem.factor(e, j);
                    }
                }
                within_budget(s + members as f64 * factors.cut_bound(j), budget)
            })
    }

    /// The selected candidates, ascending.
    fn members(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.scope
            .ids(self.problem)
            .filter(|id| self.selected[id.index()])
    }
}

impl Scheduler for Anneal {
    fn name(&self) -> &'static str {
        "Anneal"
    }

    fn schedule_in(&self, problem: &Problem, scope: Scope<'_>, ctx: &mut SchedCtx) -> Schedule {
        let _span = fading_obs::Span::enter("core.anneal.schedule");
        let k = scope.len(problem);
        if k == 0 {
            return Schedule::empty();
        }
        let mean_rate = scope
            .ids(problem)
            .map(|id| scope.weight(problem, id))
            .sum::<f64>()
            / k as f64;
        let mut rng = seeded_rng(self.seed);
        // Start from the greedy solution: annealing then only has to
        // improve on a strong incumbent.
        let start = crate::algo::GreedyRate.schedule_in(problem, scope, ctx);
        let mut state = State::new(problem, scope);
        for id in start.iter() {
            state.insert(id);
        }
        let mut best: Vec<LinkId> = state.members().collect();
        let mut best_utility = state.utility;
        let mut temp = self.t0 * mean_rate;

        for _ in 0..self.iterations {
            let id = scope.id_at(rng.gen_range(0..k as u32) as usize);
            if state.selected[id.index()] {
                // Drop move.
                let delta = -state.weight(id);
                if delta >= 0.0 || rng.gen::<f64>() < (delta / temp).exp() {
                    state.remove(id);
                }
            } else {
                // Insert move with greedy repair: evict lowest-weight
                // conflicting members until the insertion is feasible.
                let mut evicted: Vec<LinkId> = Vec::new();
                while !state.feasible_with(Some(id)) {
                    let victim = state.members().min_by(|&a, &b| {
                        state.weight(a).total_cmp(&state.weight(b)).then(a.cmp(&b))
                    });
                    match victim {
                        Some(v) => {
                            state.remove(v);
                            evicted.push(v);
                        }
                        None => break,
                    }
                }
                let delta =
                    state.weight(id) - evicted.iter().map(|&v| state.weight(v)).sum::<f64>();
                if delta >= 0.0 || rng.gen::<f64>() < (delta / temp).exp() {
                    state.insert(id); // accept repaired insertion
                } else {
                    // Reject: undo the evictions.
                    for v in evicted {
                        state.insert(v);
                    }
                }
            }
            if state.utility > best_utility && state.feasible_with(None) {
                best_utility = state.utility;
                best = state.members().collect();
            }
            temp = (temp * self.cooling).max(1e-6);
        }
        let s = Schedule::from_ids(best);
        super::emit_algo_trace("Anneal", k, true, &s, ctx);
        fading_obs::counter!("core.anneal.picks").add(s.len() as u64);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{exact::branch_and_bound, GreedyRate};
    use crate::feasibility::is_feasible;
    use fading_net::{RateModel, TopologyGenerator, UniformGenerator};

    #[test]
    fn schedules_are_feasible() {
        for seed in 0..3 {
            let links = UniformGenerator::paper(120).generate(seed);
            let p = Problem::paper(links, 3.0);
            let s = Anneal::new(seed).schedule(&p);
            assert!(!s.is_empty());
            assert!(is_feasible(&p, &s), "seed {seed}");
        }
    }

    #[test]
    fn never_worse_than_the_greedy_start() {
        for seed in 0..3 {
            let gen = UniformGenerator {
                rates: RateModel::Uniform { lo: 0.5, hi: 5.0 },
                ..UniformGenerator::paper(150)
            };
            let p = Problem::paper(gen.generate(seed), 3.0);
            let greedy = GreedyRate.schedule(&p).utility(&p);
            let annealed = Anneal::new(seed).schedule(&p).utility(&p);
            assert!(
                annealed >= greedy - 1e-9,
                "seed {seed}: annealed {annealed} < greedy {greedy}"
            );
        }
    }

    #[test]
    fn matches_optimum_on_small_instances() {
        for seed in 0..4 {
            let gen = UniformGenerator {
                side: 120.0,
                n: 12,
                len_lo: 5.0,
                len_hi: 20.0,
                rates: RateModel::Uniform { lo: 0.5, hi: 3.0 },
            };
            let p = Problem::paper(gen.generate(seed), 3.0);
            let opt = branch_and_bound(&p).utility(&p);
            let annealed = Anneal::new(seed).schedule(&p).utility(&p);
            assert!(
                annealed >= 0.95 * opt,
                "seed {seed}: annealed {annealed} vs OPT {opt}"
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let links = UniformGenerator::paper(80).generate(9);
        let p = Problem::paper(links, 3.0);
        assert_eq!(Anneal::new(7).schedule(&p), Anneal::new(7).schedule(&p));
    }

    #[test]
    fn empty_instance() {
        let links = fading_net::LinkSet::new(fading_geom::Rect::square(1.0), vec![]);
        let p = Problem::paper(links, 3.0);
        assert!(Anneal::new(0).schedule(&p).is_empty());
    }
}
