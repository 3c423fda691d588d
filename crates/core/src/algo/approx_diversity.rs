//! ApproxDiversity — the deterministic-SINR elimination baseline
//! (Goussevskaia, Wattenhofer, Halldórsson, Welzl, "Capacity of
//! arbitrary wireless networks", INFOCOM 2009 — reference \[15\] of the
//! paper).
//!
//! The same shortest-first elimination skeleton as RLE, but the
//! deletion test budgets deterministic *relative interference*
//! (`Σ γ_th (d_jj/d_ij)^α ≤ 1`) instead of the fading budget `γ_ε`,
//! and the deletion radius uses the deterministic constant. Its
//! schedules meet the classical SINR threshold with zero margin for
//! fading — which is exactly why it fails in Fig. 5.

use crate::algo::elim_core::{eliminate_schedule_in, ElimMetric};
use crate::constants::approx_diversity_c1;
use crate::ctx::SchedCtx;
use crate::problem::Problem;
use crate::schedule::Schedule;
use crate::scope::Scope;
use crate::Scheduler;

/// The ApproxDiversity baseline scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxDiversity {
    /// Budget split between already-picked and later-picked senders.
    pub c2: f64,
}

impl ApproxDiversity {
    /// The baseline with the symmetric split `c₂ = 1/2`.
    pub fn new() -> Self {
        Self { c2: 0.5 }
    }
}

impl Default for ApproxDiversity {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for ApproxDiversity {
    fn name(&self) -> &'static str {
        "ApproxDiversity"
    }

    fn schedule_in(&self, problem: &Problem, scope: Scope<'_>, ctx: &mut SchedCtx) -> Schedule {
        let c1 = approx_diversity_c1(problem.params(), self.c2);
        eliminate_schedule_in(
            problem,
            scope,
            c1,
            self.c2,
            ElimMetric::DeterministicRelative,
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

    fn deterministically_feasible(p: &Problem, s: &Schedule) -> bool {
        let det = p.deterministic_channel();
        s.iter().all(|j| {
            let d_jj = p.links().length(j);
            let sum = KahanSum::sum_iter(s.iter().filter(|&i| i != j).map(|i| {
                det.relative_interference(p.links().sender_receiver_distance(i, j), d_jj)
            }));
            sum <= 1.0 + 1e-9
        })
    }

    #[test]
    fn schedules_are_deterministically_feasible() {
        for &alpha in &[2.5, 3.0, 4.0] {
            for seed in 0..3 {
                let links = UniformGenerator::paper(250).generate(seed);
                let p = Problem::paper(links, alpha);
                let s = ApproxDiversity::new().schedule(&p);
                assert!(!s.is_empty());
                assert!(deterministically_feasible(&p, &s), "α={alpha} seed={seed}");
            }
        }
    }

    #[test]
    fn schedules_more_links_than_rle() {
        let mut div_total = 0usize;
        let mut rle_total = 0usize;
        for seed in 0..5 {
            let links = UniformGenerator::paper(300).generate(seed);
            let p = Problem::paper(links, 3.0);
            div_total += ApproxDiversity::new().schedule(&p).len();
            rle_total += crate::algo::Rle::new().schedule(&p).len();
        }
        assert!(
            div_total > rle_total,
            "ApproxDiversity ({div_total}) should out-schedule RLE ({rle_total})"
        );
    }

    #[test]
    fn schedules_usually_violate_the_fading_budget() {
        let mut violations = 0usize;
        for seed in 0..5 {
            let links = UniformGenerator::paper(300).generate(seed);
            let p = Problem::paper(links, 3.0);
            let s = ApproxDiversity::new().schedule(&p);
            violations += FeasibilityReport::evaluate(&p, &s).violations().len();
        }
        assert!(violations > 0, "baseline should miss the 1−ε fading target");
    }
}
