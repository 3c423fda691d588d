//! Parallel Monte-Carlo estimation of slot metrics.
//!
//! Trials are embarrassingly parallel: each gets an independent RNG
//! stream derived from `(base_seed, trial_index)` via SplitMix. Workers
//! return each trial's outcome in trial order and one sequential pass
//! pushes them into Welford accumulators, so the statistics are
//! bit-identical at every thread count (merging per-thread partials
//! would not be: Chan's update rounds differently for each split).
//!
//! [`simulate_many_under`] serves every fading law of the kernel in
//! [`crate::slot`]; [`simulate_many`] is its Rayleigh case. The mean
//! gains are computed once into a `GainTable` shared by every trial
//! and worker, so a trial costs only its `|S|²` draws (schedules past
//! 2048 links stream their rows instead, to bound memory).

use crate::slot::{GainTable, Trials};
use fading_channel::FadingLaw;
use fading_core::{Problem, Schedule};
use fading_math::{seeded_rng, split_seed, OnlineStats, Summary};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Aggregated Monte-Carlo statistics for one (problem, schedule) pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonteCarloStats {
    /// Number of scheduled links.
    pub scheduled: usize,
    /// Total scheduled rate (the throughput if nothing faded).
    pub scheduled_rate: f64,
    /// Failed transmissions per slot.
    pub failed: Summary,
    /// Delivered rate per slot (realized throughput).
    pub throughput: Summary,
}

/// Trials whose outcomes are held at once (1 MiB): a huge trial count
/// streams through in blocks instead of allocating per trial.
const TRIALS_PER_BLOCK: u64 = 1 << 16;

/// Runs `trials` independent Rayleigh slot realizations of `schedule`.
///
/// ```
/// use fading_core::{algo::Rle, Problem, Scheduler};
/// use fading_net::{TopologyGenerator, UniformGenerator};
/// use fading_sim::{simulate_many, BatchRunner};
///
/// let problem = Problem::paper(UniformGenerator::paper(80).generate(3), 3.0);
/// // Batched sweeps schedule through a pooled workspace.
/// let schedule = BatchRunner::new().schedule(&Rle::new(), &problem);
/// let stats = simulate_many(&problem, &schedule, 200, 42);
/// // The ε = 1% target holds empirically.
/// assert!(stats.failed.mean <= 0.01 * schedule.len() as f64 + 0.3);
/// // Bit-reproducible: same seed, same numbers.
/// assert_eq!(stats, simulate_many(&problem, &schedule, 200, 42));
/// ```
pub fn simulate_many(
    problem: &Problem,
    schedule: &Schedule,
    trials: u64,
    base_seed: u64,
) -> MonteCarloStats {
    simulate_many_under(problem, schedule, problem.channel(), trials, base_seed)
}

/// Runs `trials` independent slot realizations of `schedule` under the
/// fading `law`; trial `t` draws from the stream
/// `split_seed(base_seed, t)`.
pub fn simulate_many_under<L: FadingLaw>(
    problem: &Problem,
    schedule: &Schedule,
    law: &L,
    trials: u64,
    base_seed: u64,
) -> MonteCarloStats {
    assert!(trials > 0, "at least one trial is required");
    let table = GainTable::new(problem, schedule);
    let one = |trials: &mut Trials<L>, t: u64| {
        let mut rng = seeded_rng(split_seed(base_seed, t));
        let (mut failed, mut delivered_rate) = (0.0, 0.0);
        trials.verdicts(&mut rng, |j, success| {
            if success {
                delivered_rate += problem.rate(j);
            } else {
                failed += 1.0;
            }
        });
        (failed, delivered_rate)
    };
    let mut failed = OnlineStats::new();
    let mut throughput = OnlineStats::new();
    for lo in (0..trials).step_by(TRIALS_PER_BLOCK as usize) {
        let hi = trials.min(lo + TRIALS_PER_BLOCK);
        let outcomes: Vec<(f64, f64)> = (lo..hi)
            .into_par_iter()
            .map_init(|| table.trials(law), one)
            .collect();
        for (f, d) in outcomes {
            failed.push(f);
            throughput.push(d);
        }
    }
    fading_obs::counter!("sim.mc.trials").add(trials);
    fading_obs::counter!("sim.mc.batches").incr();
    MonteCarloStats {
        scheduled: schedule.len(),
        scheduled_rate: schedule.utility(problem),
        failed: failed.summary(),
        throughput: throughput.summary(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fading_core::algo::{ApproxDiversity, Rle};
    use fading_core::{FeasibilityReport, Scheduler};
    use fading_net::{LinkId, TopologyGenerator, UniformGenerator};

    fn problem(n: usize, seed: u64) -> Problem {
        Problem::paper(UniformGenerator::paper(n).generate(seed), 3.0)
    }

    #[test]
    fn deterministic_across_runs() {
        let p = problem(60, 1);
        let s = Rle::new().schedule(&p);
        let a = simulate_many(&p, &s, 200, 42);
        let b = simulate_many(&p, &s, 200, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn feasible_schedule_failure_rate_is_within_epsilon() {
        // RLE schedules target per-link failure ≤ ε = 1%; the expected
        // failed count per slot is ≤ ε·|S|.
        let p = problem(200, 3);
        let s = Rle::new().schedule(&p);
        let stats = simulate_many(&p, &s, 4000, 11);
        let bound = p.epsilon() * s.len() as f64;
        assert!(
            stats.failed.mean <= bound + 3.0 * stats.failed.ci95.max(1e-3),
            "mean failed {} vs ε·|S| {}",
            stats.failed.mean,
            bound
        );
    }

    #[test]
    fn empirical_failures_match_analytic_success_probabilities() {
        // E[failures] = Σ_j (1 − Pr(X_j ≥ γ_th)) with the closed form
        // from Theorem 3.1 — the simulator must agree with the math.
        let p = problem(150, 4);
        let s = ApproxDiversity::new().schedule(&p);
        let report = FeasibilityReport::evaluate(&p, &s);
        let analytic: f64 = report
            .entries()
            .iter()
            .map(|e| 1.0 - e.success_probability)
            .sum();
        let stats = simulate_many(&p, &s, 6000, 13);
        assert!(
            (stats.failed.mean - analytic).abs() <= 4.0 * stats.failed.ci95 + 0.05,
            "empirical {} vs analytic {}",
            stats.failed.mean,
            analytic
        );
    }

    #[test]
    fn throughput_plus_failures_account_for_all_links() {
        // Unit rates: throughput + failed = |S| in every realization,
        // hence also in means.
        let p = problem(100, 5);
        let s = ApproxDiversity::new().schedule(&p);
        let stats = simulate_many(&p, &s, 500, 17);
        let total = stats.throughput.mean + stats.failed.mean;
        assert!(
            (total - s.len() as f64).abs() < 1e-9,
            "throughput {} + failed {} != |S| {}",
            stats.throughput.mean,
            stats.failed.mean,
            s.len()
        );
    }

    #[test]
    fn singleton_schedule_never_fails() {
        let p = problem(10, 6);
        let s = fading_core::Schedule::from_ids([LinkId(0)]);
        let stats = simulate_many(&p, &s, 300, 19);
        assert_eq!(stats.failed.mean, 0.0);
        assert_eq!(stats.throughput.mean, 1.0);
        assert_eq!(stats.scheduled, 1);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn rejects_zero_trials() {
        let p = problem(5, 7);
        simulate_many(&p, &Schedule::empty(), 0, 0);
    }
}
