//! Feasibility checking (Corollary 3.1) and per-link diagnostics.
//!
//! A schedule `P` is *feasible* when every member link `j` satisfies
//! `Σ_{i∈P\{j}} f_{i,j} ≤ γ_ε`, equivalently succeeds with probability
//! at least `1 − ε` (Theorem 3.1). The report also exposes each link's
//! analytic success probability `exp(−Σ f)` so the simulator's empirical
//! rates can be validated against the closed form.

use crate::problem::Problem;
use crate::schedule::Schedule;
use crate::scope::Scope;
use fading_math::KahanSum;
use fading_net::LinkId;

/// Relative tolerance for budget comparisons.
///
/// Exactly-critical instances (e.g. the Knapsack reduction with a
/// subset hitting the capacity exactly) land on the `Σ f = γ_ε`
/// boundary; the position → distance → factor roundtrip perturbs the
/// sum by a few ULPs, so the comparison allows a hair of slack. All
/// solvers (feasibility report, incremental accumulator, exhaustive,
/// ILP) share this constant so they agree on borderline schedules.
pub const BUDGET_RTOL: f64 = 1e-9;

/// Shared budget test: `sum ≤ budget` up to [`BUDGET_RTOL`].
#[inline]
pub fn within_budget(sum: f64, budget: f64) -> bool {
    sum <= budget * (1.0 + BUDGET_RTOL)
}

/// Budget test for a sum known only as a certified envelope
/// `[sum_lo, sum_lo + tail]` (the sparse backend's stored-factor sums;
/// see [`InterferenceBackend::cut_bound`](crate::InterferenceBackend::cut_bound)).
///
/// * `Some(true)` — the whole envelope passes: the true sum passes.
/// * `Some(false)` — the lower bound already fails: the true sum fails.
/// * `None` — the envelope straddles the threshold; the caller must
///   resolve exactly (factors are always recomputable in `O(1)`), so
///   feasibility verdicts never silently flip under truncation.
///
/// With `tail == 0` (dense/exhaustive backends) the result is always
/// `Some(within_budget(sum_lo, budget))`.
#[inline]
pub fn within_budget_certified(sum_lo: f64, tail: f64, budget: f64) -> Option<bool> {
    if !within_budget(sum_lo, budget) {
        Some(false)
    } else if within_budget(sum_lo + tail, budget) {
        Some(true)
    } else {
        None
    }
}

/// Per-link feasibility diagnostics for a schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FeasibilityReport {
    entries: Vec<LinkEntry>,
    gamma_eps: f64,
}

/// Diagnostics for one scheduled link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkEntry {
    /// The link.
    pub id: LinkId,
    /// `Σ_{i∈P\{j}} f_{i,j}` — the accumulated interference factor.
    pub interference_sum: f64,
    /// Analytic success probability `exp(−Σ f)` (Theorem 3.1).
    pub success_probability: f64,
    /// Whether the link meets the `γ_ε` budget.
    pub feasible: bool,
}

impl FeasibilityReport {
    /// Evaluates `schedule` against Corollary 3.1.
    pub fn evaluate(problem: &Problem, schedule: &Schedule) -> Self {
        let gamma_eps = problem.gamma_eps();
        let entries = schedule
            .iter()
            .map(|j| {
                let mut acc = KahanSum::new();
                for i in schedule.iter() {
                    if i != j {
                        acc.add(problem.factor(i, j));
                    }
                }
                let sum = acc.value();
                LinkEntry {
                    id: j,
                    interference_sum: sum,
                    success_probability: (-sum).exp(),
                    feasible: within_budget(sum, gamma_eps),
                }
            })
            .collect();
        Self { entries, gamma_eps }
    }

    /// Whether every scheduled link meets its reliability target.
    pub fn is_feasible(&self) -> bool {
        self.entries.iter().all(|e| e.feasible)
    }

    /// The links violating the budget.
    pub fn violations(&self) -> Vec<LinkId> {
        self.entries
            .iter()
            .filter(|e| !e.feasible)
            .map(|e| e.id)
            .collect()
    }

    /// Per-link diagnostics in schedule order.
    pub fn entries(&self) -> &[LinkEntry] {
        &self.entries
    }

    /// The budget the entries were checked against.
    pub fn gamma_eps(&self) -> f64 {
        self.gamma_eps
    }

    /// The worst (largest) interference sum, or 0 for empty schedules.
    pub fn worst_interference(&self) -> f64 {
        self.entries
            .iter()
            .map(|e| e.interference_sum)
            .fold(0.0, f64::max)
    }
}

/// Convenience wrapper: whether `schedule` is feasible on `problem`.
pub fn is_feasible(problem: &Problem, schedule: &Schedule) -> bool {
    FeasibilityReport::evaluate(problem, schedule).is_feasible()
}

/// Incremental feasibility helper used by constructive algorithms:
/// tracks, for every candidate of a [`Scope`], the accumulated
/// interference factor from the currently selected senders.
///
/// Under the dense backend the sums are exact. Under the sparse backend
/// they accumulate *stored* factors only, so each is a lower bound with
/// a certified envelope of `|selected| · cut_bound(j)`; every
/// verdict-producing method resolves a straddling envelope exactly —
/// feasibility decisions never differ between backends:
///
/// * A member's first straddle computes its exact sum (in selection
///   order, so it is bit-identical to what the dense backend would have
///   accumulated) and keeps it: each later [`select`](Self::select)
///   adds the new sender's factor to it, the same term in the same
///   order. A member is therefore resolved exactly at most once.
/// * A member whose receiver's store omits the candidate's sender takes
///   the certified bound on that factor
///   ([`InterferenceBackend::omitted_bound`](crate::InterferenceBackend::omitted_bound))
///   in place of the factor itself when its upper sum passes with it.
///
/// The sums live in a caller-lent buffer (a [`crate::SchedCtx`]'s, for
/// the schedulers): starting a selection zeroes only the candidates'
/// entries, and entries outside the scope are never read.
#[derive(Debug)]
pub struct InterferenceAccumulator<'a> {
    problem: &'a Problem,
    scope: Scope<'a>,
    sums: &'a mut Vec<f64>,
    selected: Vec<LinkId>,
    /// Per member (parallel to `selected`), the exact sum once resolved.
    exact: Vec<Option<f64>>,
}

/// A saved [`InterferenceAccumulator`] state: every candidate's sum and
/// each member's resolved sum, one entry per member, so its length is
/// the selection length (see [`InterferenceAccumulator::rollback`]).
#[derive(Debug)]
pub struct Checkpoint {
    sums: Vec<f64>,
    exact: Vec<Option<f64>>,
}

impl<'a> InterferenceAccumulator<'a> {
    /// Starts with an empty selection over `scope`, using `sums` (sized
    /// to the problem here) as the per-receiver ledger.
    pub fn new(problem: &'a Problem, scope: Scope<'a>, sums: &'a mut Vec<f64>) -> Self {
        sums.resize(problem.len(), 0.0);
        for j in scope.ids(problem) {
            sums[j.index()] = 0.0;
        }
        Self {
            problem,
            scope,
            sums,
            selected: Vec::new(),
            exact: Vec::new(),
        }
    }

    /// Adds sender `i` to the selection, updating every candidate's sum
    /// and every resolved member sum.
    pub fn select(&mut self, i: LinkId) {
        if let Some(row) = self.problem.dense_row(i) {
            match self.scope.list() {
                None => {
                    for (sum, f) in self.sums.iter_mut().zip(row) {
                        *sum += f;
                    }
                }
                Some(ids) => {
                    for &j in ids {
                        self.sums[j.index()] += row[j.index()];
                    }
                }
            }
        } else {
            let sums = &mut *self.sums;
            let sparse = self.problem.factors().as_sparse().expect("a sparse store");
            sparse.for_each_out(i, &mut |j, f| sums[j.index()] += f);
        }
        for (&j, exact) in self.selected.iter().zip(&mut self.exact) {
            if let Some(sum) = exact {
                *sum += self.problem.factor(i, j);
            }
        }
        self.selected.push(i);
        self.exact.push(None);
    }

    /// The current state, for a later [`rollback`](Self::rollback).
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            sums: self
                .scope
                .ids(self.problem)
                .map(|j| self.sums[j.index()])
                .collect(),
            exact: self.exact.clone(),
        }
    }

    /// Returns to `checkpoint`'s selection with every candidate's sum
    /// and every resolved member sum restored bit for bit — what a
    /// search's undo needs, where subtracting the factors back out
    /// would round.
    pub fn rollback(&mut self, checkpoint: Checkpoint) {
        self.selected.truncate(checkpoint.exact.len());
        self.exact = checkpoint.exact;
        for (j, sum) in self.scope.ids(self.problem).zip(checkpoint.sums) {
            self.sums[j.index()] = sum;
        }
    }

    /// Accumulated *stored* interference factor on candidate `j` from
    /// the selected senders (excluding `j` itself if selected —
    /// `f_{j,j}=0`). Exact under exhaustive backends; a certified lower
    /// bound (within [`tail_on`](Self::tail_on)) under truncation.
    #[inline]
    pub fn sum_on(&self, j: LinkId) -> f64 {
        self.sums[j.index()]
    }

    /// Certified width of the envelope on [`sum_on`](Self::sum_on):
    /// the true sum lies in `[sum_on(j), sum_on(j) + tail_on(j)]`.
    #[inline]
    pub fn tail_on(&self, j: LinkId) -> f64 {
        self.selected.len() as f64 * self.problem.factors().cut_bound(j)
    }

    /// The exact accumulated sum on `j` — a member's resolved sum when
    /// it has one, else recomputed when the backend truncates. Matches
    /// the dense accumulation bit-for-bit (same terms, same order, same
    /// formula).
    pub fn exact_sum_on(&self, j: LinkId) -> f64 {
        let member = self.selected.iter().position(|&m| m == j);
        member
            .and_then(|k| self.exact[k])
            .unwrap_or_else(|| self.recompute(j))
    }

    /// `exact_sum_on` without the member lookup: the stored sum when the
    /// receiver is exhaustive, else every selected factor summed afresh.
    fn recompute(&self, j: LinkId) -> f64 {
        if self.problem.factors().tail_cut(j) == 0.0 {
            return self.sums[j.index()];
        }
        let mut sum = 0.0;
        for &i in &self.selected {
            sum += self.problem.factor(i, j);
        }
        sum
    }

    /// Whether adding `candidate` would keep the *entire* selection
    /// (existing members and the candidate) within `budget`. Identical
    /// verdicts under every backend; resolves member sums it needs
    /// exactly, hence `&mut`.
    pub fn addition_is_feasible(&mut self, candidate: LinkId, budget: f64) -> bool {
        // Candidate's own constraint under current senders:
        if !self.certified_check(candidate, None, 0.0, budget) {
            return false;
        }
        // Existing members' constraints with the candidate added:
        let factors = self.problem.factors();
        for k in 0..self.selected.len() {
            let j = self.selected[k];
            // An omitted pair's factor is below `bound`, and rounding is
            // monotone, so passing with the bound passes with the factor.
            if let Some(bound) = factors.omitted_bound(candidate, j) {
                let upper = match self.exact[k] {
                    Some(exact) => exact + bound,
                    None => self.sums[j.index()] + bound + self.tail_on(j),
                };
                if within_budget(upper, budget) {
                    continue;
                }
            }
            if !self.certified_check(j, Some(k), self.problem.factor(candidate, j), budget) {
                return false;
            }
        }
        true
    }

    /// Budget check of `j`'s sum plus `extra`: the exact sum of member
    /// `member` when resolved, else the certified envelope with an exact
    /// fallback on a straddle, kept when `j` is a member.
    fn certified_check(
        &mut self,
        j: LinkId,
        member: Option<usize>,
        extra: f64,
        budget: f64,
    ) -> bool {
        if let Some(exact) = member.and_then(|k| self.exact[k]) {
            return within_budget(exact + extra, budget);
        }
        match within_budget_certified(self.sums[j.index()] + extra, self.tail_on(j), budget) {
            Some(v) => v,
            None => {
                fading_obs::counter!("core.accumulator.exact_fallbacks").incr();
                let exact = self.recompute(j);
                if let Some(k) = member {
                    self.exact[k] = Some(exact);
                }
                within_budget(exact + extra, budget)
            }
        }
    }

    /// The selected senders, in selection order.
    pub fn selected(&self) -> &[LinkId] {
        &self.selected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fading_geom::{Point2, Rect};
    use fading_net::{Link, LinkSet, TopologyGenerator, UniformGenerator};

    fn two_link_instance(gap: f64) -> Problem {
        // Two parallel horizontal links, senders `gap` apart vertically.
        let links = vec![
            Link::new(LinkId(0), Point2::new(0.0, 0.0), Point2::new(5.0, 0.0), 1.0),
            Link::new(LinkId(1), Point2::new(0.0, gap), Point2::new(5.0, gap), 1.0),
        ];
        Problem::paper(LinkSet::new(Rect::square(10_000.0), links), 3.0)
    }

    #[test]
    fn empty_schedule_is_feasible() {
        let p = two_link_instance(100.0);
        let r = FeasibilityReport::evaluate(&p, &Schedule::empty());
        assert!(r.is_feasible());
        assert_eq!(r.worst_interference(), 0.0);
    }

    #[test]
    fn singleton_is_always_feasible() {
        let p = two_link_instance(1.0);
        let s = Schedule::from_ids([LinkId(0)]);
        let r = FeasibilityReport::evaluate(&p, &s);
        assert!(r.is_feasible());
        assert_eq!(r.entries()[0].interference_sum, 0.0);
        assert_eq!(r.entries()[0].success_probability, 1.0);
    }

    #[test]
    fn far_apart_links_coexist_close_links_conflict() {
        let far = two_link_instance(5_000.0);
        let near = two_link_instance(1.0);
        let s = Schedule::from_ids([LinkId(0), LinkId(1)]);
        assert!(is_feasible(&far, &s));
        assert!(!is_feasible(&near, &s));
        let r = FeasibilityReport::evaluate(&near, &s);
        assert_eq!(r.violations(), vec![LinkId(0), LinkId(1)]);
    }

    #[test]
    fn success_probability_matches_closed_form() {
        let p = two_link_instance(300.0);
        let s = Schedule::from_ids([LinkId(0), LinkId(1)]);
        let r = FeasibilityReport::evaluate(&p, &s);
        for e in r.entries() {
            let expect = (-e.interference_sum).exp();
            assert!((e.success_probability - expect).abs() < 1e-15);
            // feasible ⟺ success prob ≥ 1−ε
            assert_eq!(
                e.feasible,
                e.success_probability >= 1.0 - p.epsilon() - 1e-12
            );
        }
    }

    #[test]
    fn accumulator_matches_report() {
        let links = UniformGenerator::paper(30).generate(7);
        let p = Problem::paper(links, 3.0);
        let chosen: Vec<LinkId> = [0u32, 5, 12, 20].iter().map(|&i| LinkId(i)).collect();
        let mut sums = Vec::new();
        let mut acc = InterferenceAccumulator::new(&p, Scope::all(), &mut sums);
        for &i in &chosen {
            acc.select(i);
        }
        let s = Schedule::from_ids(chosen.iter().copied());
        let report = FeasibilityReport::evaluate(&p, &s);
        for e in report.entries() {
            // Accumulator includes f_{j,j} = 0, so the sums agree.
            assert!(
                (acc.sum_on(e.id) - e.interference_sum).abs() < 1e-12,
                "{}",
                e.id
            );
        }
    }

    #[test]
    fn addition_feasibility_agrees_with_full_check() {
        let links = UniformGenerator::paper(40).generate(8);
        let p = Problem::paper(links, 3.0);
        let budget = p.gamma_eps();
        let mut sums = Vec::new();
        let mut acc = InterferenceAccumulator::new(&p, Scope::all(), &mut sums);
        let mut selected = Vec::new();
        for id in p.links().ids() {
            let fast = acc.addition_is_feasible(id, budget);
            let mut trial = selected.clone();
            trial.push(id);
            let slow = is_feasible(&p, &Schedule::from_ids(trial.iter().copied()));
            assert_eq!(fast, slow, "candidate {id} with {selected:?}");
            if fast {
                acc.select(id);
                selected.push(id);
            }
        }
        assert!(!selected.is_empty());
    }

    #[test]
    fn rollback_restores_the_candidate_sums_bit_for_bit() {
        let p = Problem::paper(UniformGenerator::paper(40).generate(9), 3.0);
        let ids: Vec<LinkId> = (0..40).step_by(3).map(LinkId).collect();
        let scope = Scope::candidates(&ids);
        let mut sums = vec![7.0; 40];
        let mut acc = InterferenceAccumulator::new(&p, scope, &mut sums);
        acc.select(LinkId(3));
        let before: Vec<u64> = ids.iter().map(|&j| acc.sum_on(j).to_bits()).collect();
        let cp = acc.checkpoint();
        acc.select(LinkId(9));
        acc.select(LinkId(27));
        acc.rollback(cp);
        assert_eq!(acc.selected(), &[LinkId(3)]);
        let after: Vec<u64> = ids.iter().map(|&j| acc.sum_on(j).to_bits()).collect();
        assert_eq!(before, after);
        // Candidate sums equal the unscoped accumulator's.
        let mut all_sums = Vec::new();
        let mut all = InterferenceAccumulator::new(&p, Scope::all(), &mut all_sums);
        all.select(LinkId(3));
        for &j in &ids {
            assert_eq!(all.sum_on(j).to_bits(), acc.sum_on(j).to_bits());
        }
    }
}
