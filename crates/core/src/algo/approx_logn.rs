//! ApproxLogN — the deterministic-SINR grid baseline
//! (Goussevskaia, Oswald, Wattenhofer, "Complexity in geometric SINR",
//! MobiHoc 2007 — reference \[14\] of the paper).
//!
//! Structurally identical to LDP, but (i) link classes keep both length
//! bounds (`2^{h}δ ≤ d < 2^{h+1}δ`), and (ii) the square scale `μ` is
//! derived from the *deterministic* SINR constraint (budget 1) rather
//! than the fading budget `γ_ε` — so its squares are far smaller, it
//! schedules far more links, and (the paper's point) those links have
//! no fading headroom and fail in a Rayleigh environment (Fig. 5).

use crate::algo::grid_core::{grid_schedule_labeled_in, ClassMode};
use crate::constants::approx_logn_mu;
use crate::ctx::SchedCtx;
use crate::problem::Problem;
use crate::schedule::Schedule;
use crate::scope::Scope;
use crate::Scheduler;

/// The ApproxLogN baseline scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ApproxLogN;

impl ApproxLogN {
    /// Creates the baseline.
    pub fn new() -> Self {
        Self
    }
}

impl Scheduler for ApproxLogN {
    fn name(&self) -> &'static str {
        "ApproxLogN"
    }

    fn schedule_in(&self, problem: &Problem, scope: Scope<'_>, ctx: &mut SchedCtx) -> Schedule {
        let mu = approx_logn_mu(problem.params());
        grid_schedule_labeled_in(
            problem,
            scope,
            ClassMode::TwoSided,
            mu,
            "core.approx_logn",
            false,
            ctx,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::FeasibilityReport;
    use fading_math::KahanSum;
    use fading_net::{TopologyGenerator, UniformGenerator};

    /// Number of scheduled links whose deterministic relative
    /// interference sum `Σ γ_th (d_jj/d_ij)^α` exceeds 1.
    fn det_violations(p: &Problem, s: &Schedule) -> usize {
        let det = p.deterministic_channel();
        s.iter()
            .filter(|&j| {
                let d_jj = p.links().length(j);
                let sum = KahanSum::sum_iter(s.iter().filter(|&i| i != j).map(|i| {
                    det.relative_interference(p.links().sender_receiver_distance(i, j), d_jj)
                }));
                sum > 1.0 + 1e-12
            })
            .count()
    }

    #[test]
    fn schedules_are_deterministically_feasible_in_practice() {
        // The [14] constant comes from a loose worst-case argument;
        // on random placements its schedules meet the deterministic
        // SINR threshold essentially always (the original paper's
        // working assumption). Allow a tiny tail for worst-case spots.
        let mut total = 0usize;
        let mut viol = 0usize;
        for &alpha in &[2.5, 3.0, 4.0, 4.5] {
            for seed in 0..3 {
                let links = UniformGenerator::paper(250).generate(seed);
                let p = Problem::paper(links, alpha);
                let s = ApproxLogN.schedule(&p);
                assert!(!s.is_empty());
                total += s.len();
                viol += det_violations(&p, &s);
            }
        }
        assert!(
            (viol as f64) <= 0.05 * total as f64,
            "{viol}/{total} deterministic violations — constant too loose"
        );
    }

    #[test]
    fn schedules_more_links_than_ldp() {
        // The fading-susceptibility trade-off: smaller squares ⇒ more
        // concurrent links.
        let mut logn_total = 0usize;
        let mut ldp_total = 0usize;
        for seed in 0..5 {
            let links = UniformGenerator::paper(400).generate(seed);
            let p = Problem::paper(links, 3.0);
            logn_total += ApproxLogN.schedule(&p).len();
            ldp_total += crate::algo::Ldp::new().schedule(&p).len();
        }
        assert!(
            logn_total > ldp_total,
            "ApproxLogN ({logn_total}) should out-schedule LDP ({ldp_total})"
        );
    }

    #[test]
    fn schedules_usually_violate_the_fading_budget() {
        // The crux of Fig. 5: deterministically-feasible schedules are
        // not 1−ε reliable under Rayleigh fading.
        let mut fading_violations = 0usize;
        for seed in 0..5 {
            let links = UniformGenerator::paper(400).generate(seed);
            let p = Problem::paper(links, 3.0);
            let s = ApproxLogN.schedule(&p);
            let report = FeasibilityReport::evaluate(&p, &s);
            fading_violations += report.violations().len();
        }
        assert!(
            fading_violations > 0,
            "expected some links to miss the 1−ε fading target"
        );
    }

    #[test]
    fn empty_instance() {
        let links = fading_net::LinkSet::new(fading_geom::Rect::square(1.0), vec![]);
        let p = Problem::paper(links, 3.0);
        assert!(ApproxLogN.schedule(&p).is_empty());
    }
}
