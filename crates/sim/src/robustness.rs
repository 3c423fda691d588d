//! Robustness experiments beyond the paper's Rayleigh assumption.
//!
//! The paper's guarantee is exact *only* under Rayleigh fading with no
//! noise. These harnesses measure how LDP/RLE schedules behave when the
//! real channel deviates:
//!
//! * [`simulate_many_nakagami`] — the fast fading is Nakagami-m rather
//!   than Rayleigh (`m = 1` recovers the paper's model exactly);
//! * [`simulate_many_shadowed`] — quasi-static log-normal shadowing is
//!   layered on top of Rayleigh;
//! * [`drift_reliability`] — the topology drifts under random-waypoint
//!   mobility after the schedule was computed;
//! * [`sinr_histogram`] — the realized SINR distribution of a schedule.

use crate::monte_carlo::MonteCarloStats;
use crate::slot::GainTable;
use fading_channel::{sinr_of, NakagamiChannel, ShadowedRayleigh};
use fading_core::{FeasibilityReport, Problem, Schedule};
use fading_math::{seeded_rng, split_seed, Histogram, OnlineStats};
use fading_net::RandomWaypoint;
use rayon::prelude::*;

/// Monte-Carlo evaluation of `schedule` when the fast fading is
/// Nakagami-m instead of Rayleigh.
pub fn simulate_many_nakagami(
    problem: &Problem,
    schedule: &Schedule,
    m: f64,
    trials: u64,
    base_seed: u64,
) -> MonteCarloStats {
    assert!(trials > 0, "at least one trial is required");
    let channel = NakagamiChannel::new(*problem.params(), m);
    let links = problem.links();
    let (failed, throughput) = (0..trials)
        .into_par_iter()
        .fold(
            || (OnlineStats::new(), OnlineStats::new()),
            |(mut f, mut th), t| {
                let mut rng = seeded_rng(split_seed(base_seed, t));
                let mut failed_count = 0u32;
                let mut delivered = 0.0;
                for j in schedule.iter() {
                    let signal = channel.sample_gain(&mut rng, links.length(j));
                    let interference = schedule.iter().filter(|&i| i != j).map(|i| {
                        channel.sample_gain(&mut rng, links.sender_receiver_distance(i, j))
                    });
                    if sinr_of(problem.params(), signal, interference).success {
                        delivered += problem.rate(j);
                    } else {
                        failed_count += 1;
                    }
                }
                f.push(failed_count as f64);
                th.push(delivered);
                (f, th)
            },
        )
        .reduce(
            || (OnlineStats::new(), OnlineStats::new()),
            |(mut f1, mut t1), (f2, t2)| {
                f1.merge(&f2);
                t1.merge(&t2);
                (f1, t1)
            },
        );
    MonteCarloStats {
        scheduled: schedule.len(),
        scheduled_rate: schedule.utility(problem),
        failed: failed.summary(),
        throughput: throughput.summary(),
    }
}

/// Monte-Carlo evaluation under Rayleigh fast fading composed with
/// quasi-static log-normal shadowing of `sigma_db`: each trial draws a
/// fresh shadowing realization (one factor per sender→receiver pair in
/// the schedule), then one fast-fading realization on top of it.
pub fn simulate_many_shadowed(
    problem: &Problem,
    schedule: &Schedule,
    sigma_db: f64,
    trials: u64,
    base_seed: u64,
) -> MonteCarloStats {
    assert!(trials > 0, "at least one trial is required");
    let channel = ShadowedRayleigh::new(*problem.params(), sigma_db);
    let links = problem.links();
    let members: Vec<_> = schedule.iter().collect();
    let (failed, throughput) =
        (0..trials)
            .into_par_iter()
            .fold(
                || (OnlineStats::new(), OnlineStats::new()),
                |(mut f, mut th), t| {
                    let mut rng = seeded_rng(split_seed(base_seed, t));
                    // Quasi-static shadowing: one factor per (i, j) pair,
                    // fixed for the whole realization.
                    let k = members.len();
                    let mut shadow = vec![1.0f64; k * k];
                    for v in shadow.iter_mut() {
                        *v = channel.sample_shadow_factor(&mut rng);
                    }
                    let mut failed_count = 0u32;
                    let mut delivered = 0.0;
                    for (jj, &j) in members.iter().enumerate() {
                        let signal =
                            channel.sample_gain(&mut rng, links.length(j), shadow[jj * k + jj]);
                        let interference =
                            members.iter().enumerate().filter(|&(ii, _)| ii != jj).map(
                                |(ii, &i)| {
                                    channel.sample_gain(
                                        &mut rng,
                                        links.sender_receiver_distance(i, j),
                                        shadow[ii * k + jj],
                                    )
                                },
                            );
                        if sinr_of(problem.params(), signal, interference).success {
                            delivered += problem.rate(j);
                        } else {
                            failed_count += 1;
                        }
                    }
                    f.push(failed_count as f64);
                    th.push(delivered);
                    (f, th)
                },
            )
            .reduce(
                || (OnlineStats::new(), OnlineStats::new()),
                |(mut f1, mut t1), (f2, t2)| {
                    f1.merge(&f2);
                    t1.merge(&t2);
                    (f1, t1)
                },
            );
    MonteCarloStats {
        scheduled: schedule.len(),
        scheduled_rate: schedule.utility(problem),
        failed: failed.summary(),
        throughput: throughput.summary(),
    }
}

/// Expected failures per slot of a *fixed* schedule as the topology
/// drifts under random-waypoint mobility: entry `t` is the analytic
/// `Σ_j (1 − Pr(X_j ≥ γ_th))` (Theorem 3.1 — exact, no Monte-Carlo
/// needed) after `t` mobility steps of duration `dt`.
pub fn drift_reliability(
    problem: &Problem,
    schedule: &Schedule,
    speed: f64,
    dt: f64,
    steps: usize,
    seed: u64,
) -> Vec<f64> {
    let mut mobility = RandomWaypoint::new(problem.links(), speed, speed, seed);
    let mut out = Vec::with_capacity(steps + 1);
    let expected_failures = |p: &Problem| -> f64 {
        FeasibilityReport::evaluate(p, schedule)
            .entries()
            .iter()
            .map(|e| 1.0 - e.success_probability)
            .sum()
    };
    out.push(expected_failures(problem));
    for _ in 0..steps {
        let moved = mobility.step(dt);
        // Geometry changed, so factors must be recomputed — but the
        // drifted instance keeps the parent's ε, power scales, and
        // interference backend (a bare `Problem::new` silently dropped
        // all three).
        let drifted = problem.rebuild_with_links(moved);
        out.push(expected_failures(&drifted));
    }
    out
}

/// Burstiness statistics of a schedule under temporally correlated
/// fading (E12).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstStats {
    /// Overall per-link, per-slot failure rate (should match the i.i.d.
    /// rate — correlation does not change the marginal).
    pub failure_rate: f64,
    /// Mean length of consecutive-failure runs, per link (1.0 = fully
    /// isolated losses).
    pub mean_burst_len: f64,
    /// Longest failure run observed on any link.
    pub max_burst_len: u32,
}

/// Simulates `slots` *consecutive* slots of `schedule` under
/// Gauss–Markov correlated Rayleigh fading with per-slot coefficient
/// correlation `rho` (`0` = the paper's i.i.d. slots), and returns
/// failure burstiness statistics.
pub fn burstiness(
    problem: &Problem,
    schedule: &Schedule,
    rho: f64,
    slots: u32,
    seed: u64,
) -> BurstStats {
    assert!(slots > 0, "need at least one slot");
    let channel = fading_channel::CorrelatedRayleigh::new(*problem.params(), rho);
    let links = problem.links();
    let members: Vec<_> = schedule.iter().collect();
    let k = members.len();
    let mut rng = seeded_rng(seed);
    // One correlated process per (sender i, receiver j) pair.
    let mut gains: Vec<fading_channel::CorrelatedGain> = Vec::with_capacity(k * k);
    for &j in &members {
        for &i in &members {
            let d = if i == j {
                links.length(j)
            } else {
                links.sender_receiver_distance(i, j)
            };
            gains.push(channel.init(&mut rng, d));
        }
    }
    let mut failures = 0u64;
    let mut run_len = vec![0u32; k];
    let mut bursts: Vec<u32> = Vec::new();
    let mut max_burst = 0u32;
    for _ in 0..slots {
        for (jj, _) in members.iter().enumerate() {
            let mut signal = 0.0;
            let mut interference = 0.0;
            for (ii, _) in members.iter().enumerate() {
                let p = gains[jj * k + ii].step(&mut rng);
                if ii == jj {
                    signal = p;
                } else {
                    interference += p;
                }
            }
            let denom = problem.params().noise + interference;
            let ok = denom == 0.0 || signal / denom >= problem.params().gamma_th;
            if ok {
                if run_len[jj] > 0 {
                    bursts.push(run_len[jj]);
                    run_len[jj] = 0;
                }
            } else {
                failures += 1;
                run_len[jj] += 1;
                max_burst = max_burst.max(run_len[jj]);
            }
        }
    }
    bursts.extend(run_len.into_iter().filter(|&r| r > 0));
    let mean_burst_len = if bursts.is_empty() {
        0.0
    } else {
        bursts.iter().map(|&b| b as f64).sum::<f64>() / bursts.len() as f64
    };
    BurstStats {
        failure_rate: failures as f64 / (slots as u64 * k.max(1) as u64) as f64,
        mean_burst_len,
        max_burst_len: max_burst,
    }
}

/// Histogram of realized SINRs (in dB) across `trials` realizations of
/// `schedule`. Range `[lo_db, hi_db]`.
pub fn sinr_histogram(
    problem: &Problem,
    schedule: &Schedule,
    trials: u64,
    seed: u64,
    bins: usize,
    lo_db: f64,
    hi_db: f64,
) -> Histogram {
    let mut hist = Histogram::new(lo_db, hi_db, bins);
    let table = GainTable::new(problem, schedule);
    for t in 0..trials {
        let mut rng = seeded_rng(split_seed(seed, t));
        table.realize(&mut rng, |_, o| {
            if o.sinr.is_finite() && o.sinr > 0.0 {
                hist.record(10.0 * o.sinr.log10());
            }
        });
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monte_carlo::simulate_many;
    use fading_core::algo::Rle;
    use fading_core::Scheduler;
    use fading_net::{TopologyGenerator, UniformGenerator};

    fn setup(n: usize, seed: u64) -> (Problem, Schedule) {
        let p = Problem::paper(UniformGenerator::paper(n).generate(seed), 3.0);
        let s = Rle::new().schedule(&p);
        (p, s)
    }

    #[test]
    fn nakagami_m1_matches_rayleigh_statistics() {
        let (p, s) = setup(150, 1);
        let ray = simulate_many(&p, &s, 3000, 5);
        let nak = simulate_many_nakagami(&p, &s, 1.0, 3000, 6);
        assert!(
            (ray.failed.mean - nak.failed.mean).abs()
                <= 3.0 * (ray.failed.ci95 + nak.failed.ci95) + 0.02,
            "Rayleigh {} vs Nakagami(1) {}",
            ray.failed.mean,
            nak.failed.mean
        );
    }

    #[test]
    fn milder_fading_preserves_the_guarantee() {
        // m = 4 has less variance; an RLE schedule should fail no more
        // often than under Rayleigh.
        let (p, s) = setup(200, 2);
        let m1 = simulate_many_nakagami(&p, &s, 1.0, 2000, 7);
        let m4 = simulate_many_nakagami(&p, &s, 4.0, 2000, 8);
        assert!(
            m4.failed.mean <= m1.failed.mean + 2.0 * (m1.failed.ci95 + m4.failed.ci95) + 0.01,
            "m=4 {} vs m=1 {}",
            m4.failed.mean,
            m1.failed.mean
        );
    }

    #[test]
    fn shadowing_zero_sigma_matches_plain_rayleigh() {
        let (p, s) = setup(120, 3);
        let plain = simulate_many(&p, &s, 2000, 9);
        let shadowed = simulate_many_shadowed(&p, &s, 0.0, 2000, 10);
        assert!(
            (plain.failed.mean - shadowed.failed.mean).abs()
                <= 3.0 * (plain.failed.ci95 + shadowed.failed.ci95) + 0.02
        );
    }

    #[test]
    fn heavy_shadowing_erodes_the_guarantee() {
        // 8 dB shadowing must increase failures of a Rayleigh-designed
        // schedule (the mis-modeling penalty the extension quantifies).
        let (p, s) = setup(250, 4);
        let plain = simulate_many(&p, &s, 3000, 11);
        let shadowed = simulate_many_shadowed(&p, &s, 8.0, 3000, 12);
        assert!(
            shadowed.failed.mean > plain.failed.mean,
            "shadowed {} vs plain {}",
            shadowed.failed.mean,
            plain.failed.mean
        );
    }

    #[test]
    fn drift_starts_feasible_and_degrades() {
        let (p, s) = setup(200, 5);
        let curve = drift_reliability(&p, &s, 10.0, 1.0, 20, 13);
        assert_eq!(curve.len(), 21);
        // t = 0: the schedule honors ε per link.
        assert!(curve[0] <= p.epsilon() * s.len() as f64 * (1.0 + 1e-9));
        // Drift hurts on average: the tail of the curve exceeds the start.
        let tail_mean: f64 = curve[15..].iter().sum::<f64>() / 6.0;
        assert!(
            tail_mean >= curve[0],
            "expected degradation: start {} tail {}",
            curve[0],
            tail_mean
        );
    }

    #[test]
    fn burstiness_marginal_rate_is_correlation_invariant() {
        // Correlation reshapes failures into bursts but must not change
        // the per-slot failure rate (the marginal is still Rayleigh).
        let links = UniformGenerator::paper(250).generate(21);
        let p = Problem::paper(links, 3.0);
        let s = fading_core::algo::ApproxDiversity::new().schedule(&p);
        let iid = burstiness(&p, &s, 0.0, 3000, 5);
        let sticky = burstiness(&p, &s, 0.95, 3000, 6);
        assert!(
            (iid.failure_rate - sticky.failure_rate).abs() <= 0.3 * iid.failure_rate.max(0.005),
            "iid {} vs ρ=0.95 {}",
            iid.failure_rate,
            sticky.failure_rate
        );
        // …but bursts get longer.
        assert!(
            sticky.mean_burst_len > 1.3 * iid.mean_burst_len,
            "iid bursts {} vs sticky {}",
            iid.mean_burst_len,
            sticky.mean_burst_len
        );
    }

    #[test]
    fn burstiness_on_reliable_schedule_is_negligible() {
        let (p, s) = setup(150, 22);
        let b = burstiness(&p, &s, 0.9, 2000, 7);
        assert!(b.failure_rate < 0.01, "rate {}", b.failure_rate);
    }

    #[test]
    fn sinr_histogram_mass_sits_above_threshold_for_feasible_schedules() {
        let (p, s) = setup(150, 6);
        let hist = sinr_histogram(&p, &s, 200, 14, 40, -20.0, 60.0);
        assert!(hist.total() > 0);
        // γ_th = 1 = 0 dB: at least 99% of realized SINRs clear it.
        let below: u64 = (0..hist.num_bins())
            .filter(|&i| hist.bin_edges(i).1 <= 0.0)
            .map(|i| hist.bin_count(i))
            .sum::<u64>()
            + hist.underflow();
        let frac = below as f64 / hist.total() as f64;
        assert!(frac <= 0.011, "fraction below 0 dB: {frac}");
    }
}
