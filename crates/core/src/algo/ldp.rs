//! LDP — the Link Diversity Partition algorithm (Section IV-A,
//! Algorithm 1).
//!
//! LDP builds one *nested* link class per length magnitude
//! (`L_k = {(s,r) : d_{s,r} < 2^{h_k+1} δ}`, Eq. (36)), tiles the region
//! with squares of side `β_k = 2^{h_k+1} β δ` where `β` comes from
//! Eq. (37) (plus the geometric safety margin discussed in
//! [`crate::constants`]), 4-colors the squares, picks the max-rate
//! receiver in each square, and returns the best of the `4·g(L)`
//! feasible schedules. Approximation ratio `O(g(L))` (Theorem 4.2).

use crate::algo::grid_core::{grid_schedule_labeled_in, ClassMode};
use crate::constants::ldp_beta;
use crate::ctx::SchedCtx;
use crate::problem::Problem;
use crate::schedule::Schedule;
use crate::scope::Scope;
use crate::Scheduler;

/// The LDP scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ldp {
    /// Class construction mode. [`ClassMode::Nested`] is the paper's
    /// algorithm; [`ClassMode::TwoSided`] reverts to the original \[14\]
    /// classes for the ablation experiment.
    pub mode: ClassMode,
}

impl Ldp {
    /// The paper's LDP (nested classes).
    pub fn new() -> Self {
        Self {
            mode: ClassMode::Nested,
        }
    }

    /// LDP with the pre-improvement two-sided classes (ablation A1).
    pub fn two_sided() -> Self {
        Self {
            mode: ClassMode::TwoSided,
        }
    }
}

impl Default for Ldp {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for Ldp {
    fn name(&self) -> &'static str {
        match self.mode {
            ClassMode::Nested => "LDP",
            ClassMode::TwoSided => "LDP(two-sided)",
        }
    }

    fn schedule_in(&self, problem: &Problem, scope: Scope<'_>, ctx: &mut SchedCtx) -> Schedule {
        let beta = ldp_beta(problem.params(), problem.gamma_eps());
        grid_schedule_labeled_in(problem, scope, self.mode, beta, "core.ldp", true, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::is_feasible;
    use fading_net::{TopologyGenerator, UniformGenerator};

    #[test]
    fn ldp_schedules_are_feasible_across_alpha() {
        // Theorem 4.1: every LDP schedule satisfies Corollary 3.1.
        for &alpha in &[2.5, 3.0, 3.5, 4.0, 4.5] {
            for seed in 0..3 {
                let links = UniformGenerator::paper(200).generate(seed);
                let p = Problem::paper(links, alpha);
                let s = Ldp::new().schedule(&p);
                assert!(
                    is_feasible(&p, &s),
                    "α={alpha} seed={seed}: infeasible LDP schedule"
                );
                assert!(!s.is_empty());
            }
        }
    }

    #[test]
    fn two_sided_variant_is_also_feasible() {
        for seed in 0..3 {
            let links = UniformGenerator::paper(150).generate(seed);
            let p = Problem::paper(links, 3.0);
            let s = Ldp::two_sided().schedule(&p);
            assert!(is_feasible(&p, &s), "seed={seed}");
        }
    }

    #[test]
    fn nested_beats_or_ties_two_sided() {
        // The paper's stated improvement (Section IV-A).
        for seed in 0..5 {
            let links = UniformGenerator::paper(250).generate(seed);
            let p = Problem::paper(links, 3.0);
            let nested = Ldp::new().schedule(&p).utility(&p);
            let two_sided = Ldp::two_sided().schedule(&p).utility(&p);
            assert!(nested >= two_sided - 1e-12, "seed={seed}");
        }
    }

    #[test]
    fn utility_grows_with_instance_size() {
        // Fig. 6(a) mechanism: more links → more occupied squares.
        let p_small = Problem::paper(UniformGenerator::paper(50).generate(11), 3.0);
        let p_large = Problem::paper(UniformGenerator::paper(500).generate(11), 3.0);
        let u_small = Ldp::new().schedule(&p_small).utility(&p_small);
        let u_large = Ldp::new().schedule(&p_large).utility(&p_large);
        assert!(
            u_large >= u_small,
            "LDP utility should not shrink with density: {u_small} vs {u_large}"
        );
    }

    #[test]
    fn names_distinguish_modes() {
        assert_eq!(Ldp::new().name(), "LDP");
        assert_eq!(Ldp::two_sided().name(), "LDP(two-sided)");
    }
}
