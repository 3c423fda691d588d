//! RLE — the Recursive Link Elimination algorithm (Section IV-B,
//! Algorithm 2).
//!
//! For the uniform-rate special case of Fading-R-LS. Repeatedly picks
//! the shortest remaining link, removes every link whose sender lies
//! within `c₁·d_ii` of the picked receiver
//! (`c₁ = √2 (12 ζ(α−1) γ_th/(γ_ε(1−c₂)))^{1/α} + 1`, Eq. (59)), and
//! removes every link whose accumulated interference factor from the
//! picked senders exceeds `c₂ γ_ε`. Feasible by Theorem 4.3 and a
//! constant-factor approximation by Theorem 4.4.

use crate::algo::elim_core::{eliminate_schedule_in, ElimMetric};
use crate::constants::rle_c1;
use crate::ctx::SchedCtx;
use crate::problem::Problem;
use crate::schedule::Schedule;
use crate::scope::Scope;
use crate::Scheduler;

/// The RLE scheduler.
///
/// ```
/// use fading_core::{algo::Rle, feasibility::is_feasible, Problem, Scheduler};
/// use fading_net::{TopologyGenerator, UniformGenerator};
///
/// let problem = Problem::paper(UniformGenerator::paper(100).generate(7), 3.0);
/// let schedule = Rle::new().schedule(&problem);
/// assert!(!schedule.is_empty());
/// assert!(is_feasible(&problem, &schedule)); // Theorem 4.3
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rle {
    /// Budget split `c₂ ∈ (0,1)` between already-picked and
    /// later-picked senders. The paper leaves the value open; 1/2 is
    /// the natural symmetric choice and the ablation (`--bin
    /// ablation_c2`) sweeps it.
    pub c2: f64,
}

impl Rle {
    /// RLE with the default symmetric split `c₂ = 1/2`.
    pub fn new() -> Self {
        Self { c2: 0.5 }
    }

    /// RLE with a custom budget split.
    pub fn with_c2(c2: f64) -> Self {
        assert!(c2 > 0.0 && c2 < 1.0, "c₂ must be in (0,1), got {c2}");
        Self { c2 }
    }

    /// The deletion radius factor `c₁` this instance uses on `problem`.
    pub fn c1(&self, problem: &Problem) -> f64 {
        rle_c1(problem.params(), problem.gamma_eps(), self.c2)
    }
}

impl Default for Rle {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for Rle {
    fn name(&self) -> &'static str {
        "RLE"
    }

    fn schedule_in(&self, problem: &Problem, scope: Scope<'_>, ctx: &mut SchedCtx) -> Schedule {
        eliminate_schedule_in(
            problem,
            scope,
            self.c1(problem),
            self.c2,
            ElimMetric::FadingFactor,
            ctx,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::{is_feasible, FeasibilityReport};
    use fading_net::{TopologyGenerator, UniformGenerator};

    #[test]
    fn rle_schedules_are_feasible_across_alpha() {
        // Theorem 4.3.
        for &alpha in &[2.5, 3.0, 3.5, 4.0, 4.5] {
            for seed in 0..3 {
                let links = UniformGenerator::paper(200).generate(seed);
                let p = Problem::paper(links, alpha);
                let s = Rle::new().schedule(&p);
                assert!(!s.is_empty());
                assert!(
                    is_feasible(&p, &s),
                    "α={alpha} seed={seed}: infeasible RLE schedule (worst {} vs γ_ε {})",
                    FeasibilityReport::evaluate(&p, &s).worst_interference(),
                    p.gamma_eps()
                );
            }
        }
    }

    #[test]
    fn rle_feasible_for_various_c2() {
        for &c2 in &[0.1, 0.3, 0.5, 0.7, 0.9] {
            let links = UniformGenerator::paper(250).generate(42);
            let p = Problem::paper(links, 3.0);
            let s = Rle::with_c2(c2).schedule(&p);
            assert!(is_feasible(&p, &s), "c₂={c2}");
        }
    }

    #[test]
    fn c1_matches_equation_59() {
        let links = UniformGenerator::paper(10).generate(0);
        let p = Problem::paper(links, 3.0);
        let rle = Rle::new();
        let expect = crate::constants::rle_c1(p.params(), p.gamma_eps(), 0.5);
        assert_eq!(rle.c1(&p), expect);
    }

    #[test]
    fn utility_grows_with_alpha() {
        // Fig. 6(b) mechanism: higher α shrinks c₁, so fewer links are
        // eliminated per pick.
        let links = UniformGenerator::paper(300).generate(9);
        let lo = Problem::paper(links.clone(), 2.5);
        let hi = Problem::paper(links, 4.5);
        let u_lo = Rle::new().schedule(&lo).utility(&lo);
        let u_hi = Rle::new().schedule(&hi).utility(&hi);
        assert!(
            u_hi > u_lo,
            "α=4.5 utility {u_hi} should exceed α=2.5 utility {u_lo}"
        );
    }

    #[test]
    fn rle_beats_ldp_on_the_paper_workload() {
        // Fig. 6's headline: RLE > LDP in throughput.
        let mut rle_total = 0.0;
        let mut ldp_total = 0.0;
        for seed in 0..5 {
            let links = UniformGenerator::paper(300).generate(seed);
            let p = Problem::paper(links, 3.0);
            rle_total += Rle::new().schedule(&p).utility(&p);
            ldp_total += crate::algo::Ldp::new().schedule(&p).utility(&p);
        }
        assert!(
            rle_total > ldp_total,
            "RLE total {rle_total} vs LDP total {ldp_total}"
        );
    }

    #[test]
    #[should_panic(expected = "c₂ must be in (0,1)")]
    fn rejects_out_of_range_c2() {
        Rle::with_c2(1.5);
    }
}
