//! Monte-Carlo convergence diagnostics.
//!
//! EXPERIMENTS.md quotes means with 95% CIs; this module answers the
//! prior question — *how many trials are enough?* — by tracking the
//! running mean/CI as trials accumulate and finding the trial count at
//! which the CI half-width first drops below a target.
//!
//! Like `simulate_many`, a trace computes the schedule's mean gains
//! once into a `GainTable` and draws every trial from it.

use crate::slot::GainTable;
use fading_core::{Problem, Schedule};
use fading_math::{ci95_half_width, seeded_rng, split_seed, OnlineStats};
use serde::{Deserialize, Serialize};

/// One point of a convergence trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TracePoint {
    /// Trials accumulated so far.
    pub trials: u64,
    /// Running mean of failed transmissions per slot.
    pub failed_mean: f64,
    /// 95% CI half-width of that mean.
    pub failed_ci95: f64,
}

/// Runs trials sequentially, recording the running estimate at
/// `checkpoints` (must be increasing; the last entry is the total
/// trial count).
///
/// # Panics
/// Panics if `checkpoints` is empty or not strictly increasing.
pub fn convergence_trace(
    problem: &Problem,
    schedule: &Schedule,
    checkpoints: &[u64],
    base_seed: u64,
) -> Vec<TracePoint> {
    assert!(!checkpoints.is_empty(), "need at least one checkpoint");
    assert!(
        checkpoints.windows(2).all(|w| w[0] < w[1]),
        "checkpoints must be strictly increasing"
    );
    let total = *checkpoints.last().expect("non-empty");
    let mut stats = OnlineStats::new();
    let mut out = Vec::with_capacity(checkpoints.len());
    let mut next = 0usize;
    let table = GainTable::new(problem, schedule);
    let mut trials = table.trials(problem.channel());
    for t in 0..total {
        let mut rng = seeded_rng(split_seed(base_seed, t));
        let mut failed = 0usize;
        trials.verdicts(&mut rng, |_, success| failed += usize::from(!success));
        stats.push(failed as f64);
        if t + 1 == checkpoints[next] {
            out.push(TracePoint {
                trials: t + 1,
                failed_mean: stats.mean(),
                failed_ci95: ci95_half_width(&stats),
            });
            next += 1;
        }
    }
    out
}

/// The smallest trial count (among powers of two up to `max_trials`)
/// whose 95% CI half-width is at most `target_ci`, or `None` if even
/// `max_trials` does not reach it.
pub fn trials_for_ci(
    problem: &Problem,
    schedule: &Schedule,
    target_ci: f64,
    max_trials: u64,
    base_seed: u64,
) -> Option<u64> {
    assert!(target_ci > 0.0, "target CI must be positive");
    assert!(max_trials >= 2, "need at least two trials");
    let mut checkpoints = Vec::new();
    let mut t = 2u64;
    while t < max_trials {
        checkpoints.push(t);
        t *= 2;
    }
    checkpoints.push(max_trials);
    convergence_trace(problem, schedule, &checkpoints, base_seed)
        .into_iter()
        .find(|p| p.failed_ci95 <= target_ci)
        .map(|p| p.trials)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fading_core::algo::ApproxDiversity;
    use fading_core::Scheduler;
    use fading_net::{TopologyGenerator, UniformGenerator};

    fn setup() -> (Problem, Schedule) {
        let p = Problem::paper(UniformGenerator::paper(150).generate(3), 3.0);
        let s = ApproxDiversity::new().schedule(&p);
        (p, s)
    }

    #[test]
    fn trace_matches_checkpoints() {
        let (p, s) = setup();
        let trace = convergence_trace(&p, &s, &[10, 50, 200], 7);
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[0].trials, 10);
        assert_eq!(trace[2].trials, 200);
    }

    #[test]
    fn ci_shrinks_with_trials() {
        let (p, s) = setup();
        let trace = convergence_trace(&p, &s, &[50, 800], 11);
        assert!(
            trace[1].failed_ci95 < trace[0].failed_ci95,
            "{} vs {}",
            trace[1].failed_ci95,
            trace[0].failed_ci95
        );
        // 16× the trials ≈ 4× tighter CI (√n scaling), loosely checked.
        assert!(trace[1].failed_ci95 < 0.5 * trace[0].failed_ci95);
    }

    #[test]
    fn running_mean_is_consistent_with_full_run() {
        let (p, s) = setup();
        let trace = convergence_trace(&p, &s, &[500], 13);
        let full = crate::monte_carlo::simulate_many(&p, &s, 500, 13);
        assert!((trace[0].failed_mean - full.failed.mean).abs() < 1e-12);
    }

    #[test]
    fn trials_for_ci_finds_a_sufficient_count() {
        let (p, s) = setup();
        let needed = trials_for_ci(&p, &s, 0.2, 4096, 17).expect("should converge");
        assert!(needed <= 4096);
        // And the answer is honest: re-measure at that count.
        let trace = convergence_trace(&p, &s, &[needed], 17);
        assert!(trace[0].failed_ci95 <= 0.2 + 1e-12);
    }

    #[test]
    fn unreachable_target_returns_none() {
        let (p, s) = setup();
        assert_eq!(trials_for_ci(&p, &s, 1e-9, 64, 19), None);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_checkpoints() {
        let (p, s) = setup();
        convergence_trace(&p, &s, &[10, 10], 0);
    }
}
