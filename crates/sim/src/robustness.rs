//! Robustness experiments beyond the paper's Rayleigh assumption.
//!
//! The paper's guarantee is exact *only* under Rayleigh fading with no
//! noise. These harnesses measure how LDP/RLE schedules behave when the
//! real channel deviates:
//!
//! * Nakagami-m fading (`m = 1` is the paper's model) and log-normal
//!   shadowing on Rayleigh are laws of the one Monte-Carlo driver,
//!   [`simulate_many_under`](crate::monte_carlo::simulate_many_under);
//! * [`drift_reliability`] — the topology drifts under random-waypoint
//!   mobility after the schedule was computed;
//! * [`burstiness`] — Gauss–Markov correlated fading. Its state carries
//!   across slots, draws the signal in place and sums without Kahan, so
//!   it keeps its own loop (the shared kernel would change `ext_bursts`);
//! * [`sinr_histogram`] — the realized SINR distribution of a schedule.

use crate::slot::GainTable;
use fading_core::{FeasibilityReport, Problem, Schedule};
use fading_math::{seeded_rng, split_seed, Histogram};
use fading_net::RandomWaypoint;

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
    let mut run = table.trials(problem.channel());
    for t in 0..trials {
        let mut rng = seeded_rng(split_seed(seed, t));
        run.sinrs(&mut rng, |_, sinr| {
            if sinr.is_finite() && sinr > 0.0 {
                hist.record(10.0 * sinr.log10());
            }
        });
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monte_carlo::{simulate_many, simulate_many_under, MonteCarloStats};
    use fading_channel::nakagami::sample_gamma;
    use fading_channel::{sinr_of, ChannelParams, NakagamiChannel, ShadowedRayleigh};
    use fading_core::algo::{ApproxDiversity, ApproxLogN, Rle};
    use fading_core::Scheduler;
    use fading_math::{Exponential, OnlineStats};
    use fading_net::{LinkId, TopologyGenerator, UniformGenerator};
    use proptest::prelude::*;
    use rand::rngs::StdRng;

    fn setup(n: usize, seed: u64) -> (Problem, Schedule) {
        let p = Problem::paper(UniformGenerator::paper(n).generate(seed), 3.0);
        let s = Rle::new().schedule(&p);
        (p, s)
    }

    /// A 150-link paper instance whose senders cycle through power
    /// scales ¼, 1 and 4, and its (lossy) ApproxDiversity schedule.
    fn powered() -> (Problem, Schedule) {
        let links = UniformGenerator::paper(150).generate(31);
        let scales = (0..links.len()).map(|i| [0.25, 1.0, 4.0][i % 3]).collect();
        let p = Problem::builder(links, ChannelParams::paper_defaults())
            .power_scales(scales)
            .build();
        let s = ApproxDiversity::new().schedule(&p);
        (p, s)
    }

    /// Statistics compared by bits (`Debug` prints every `f64` exactly).
    fn bits(stats: &MonteCarloStats) -> String {
        format!("{stats:?}")
    }

    /// The one-thread statistics of a per-trial `(failed, delivered)`.
    fn sequential(
        problem: &Problem,
        schedule: &Schedule,
        trials: u64,
        trial: impl Fn(&mut StdRng) -> (f64, f64),
        base_seed: u64,
    ) -> MonteCarloStats {
        let mut failed = OnlineStats::new();
        let mut throughput = OnlineStats::new();
        for t in 0..trials {
            let (f, d) = trial(&mut seeded_rng(split_seed(base_seed, t)));
            failed.push(f);
            throughput.push(d);
        }
        MonteCarloStats {
            scheduled: schedule.len(),
            scheduled_rate: schedule.utility(problem),
            failed: failed.summary(),
            throughput: throughput.summary(),
        }
    }

    /// The Nakagami trial loop as it stood before the shared kernel:
    /// means from `mean_gain(d)`, which drops power scales.
    fn old_nakagami(p: &Problem, s: &Schedule, m: f64, trials: u64, seed: u64) -> MonteCarloStats {
        let (params, links) = (p.params(), p.links());
        let trial = |rng: &mut StdRng| {
            let mut failed_count = 0u32;
            let mut delivered = 0.0;
            for j in s.iter() {
                let signal = sample_gamma(rng, m, params.mean_gain(links.length(j)) / m);
                let interference = s.iter().filter(|&i| i != j).map(|i| {
                    let mean = params.mean_gain(links.sender_receiver_distance(i, j));
                    sample_gamma(rng, m, mean / m)
                });
                if sinr_of(params, signal, interference).success {
                    delivered += p.rate(j);
                } else {
                    failed_count += 1;
                }
            }
            (failed_count as f64, delivered)
        };
        sequential(p, s, trials, trial, seed)
    }

    /// The shadowed trial loop as it stood before the shared kernel.
    fn old_shadowed(
        p: &Problem,
        s: &Schedule,
        sigma: f64,
        trials: u64,
        seed: u64,
    ) -> MonteCarloStats {
        let (params, links) = (p.params(), p.links());
        let channel = ShadowedRayleigh::new(*params, sigma);
        let members: Vec<LinkId> = s.iter().collect();
        let k = members.len();
        let trial = |rng: &mut StdRng| {
            let mut shadow = vec![1.0f64; k * k];
            for v in shadow.iter_mut() {
                *v = channel.sample_shadow_factor(rng);
            }
            let mut failed_count = 0u32;
            let mut delivered = 0.0;
            for (jj, &j) in members.iter().enumerate() {
                let mean = params.mean_gain(links.length(j)) * shadow[jj * k + jj];
                let signal = Exponential::with_mean(mean).sample(rng);
                let interference =
                    members
                        .iter()
                        .enumerate()
                        .filter(|&(ii, _)| ii != jj)
                        .map(|(ii, &i)| {
                            let d = links.sender_receiver_distance(i, j);
                            let mean = params.mean_gain(d) * shadow[ii * k + jj];
                            Exponential::with_mean(mean).sample(rng)
                        });
                if sinr_of(params, signal, interference).success {
                    delivered += p.rate(j);
                } else {
                    failed_count += 1;
                }
            }
            (failed_count as f64, delivered)
        };
        sequential(p, s, trials, trial, seed)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn driver_matches_the_old_loops_under_uniform_power(
            seed in 0u64..1_000_000,
            alpha_ix in 0usize..3,
            k in 0usize..24,
            m_ix in 0usize..5,
            sigma_ix in 0usize..3,
            trials in 1u64..40,
            base_seed in 0u64..1_000_000,
        ) {
            let alpha = [2.5, 3.0, 4.5][alpha_ix];
            let p = Problem::paper(UniformGenerator::paper(60).generate(seed), alpha);
            // Any schedule, feasible or not, so failures occur.
            let s = Schedule::from_ids(p.links().ids().take(k));
            let m = [0.5, 0.75, 1.0, 2.0, 4.0][m_ix];
            let nakagami = NakagamiChannel::new(*p.params(), m);
            prop_assert_eq!(
                bits(&simulate_many_under(&p, &s, &nakagami, trials, base_seed)),
                bits(&old_nakagami(&p, &s, m, trials, base_seed))
            );
            let sigma = [0.0, 2.0, 8.0][sigma_ix];
            let shadowed = ShadowedRayleigh::new(*p.params(), sigma);
            prop_assert_eq!(
                bits(&simulate_many_under(&p, &s, &shadowed, trials, base_seed)),
                bits(&old_shadowed(&p, &s, sigma, trials, base_seed))
            );
        }
    }

    #[test]
    fn nakagami_m1_meets_theorem_3_1_under_power_control() {
        let (p, s) = powered();
        let expected_failures = |p: &Problem| -> f64 {
            FeasibilityReport::evaluate(p, &s)
                .entries()
                .iter()
                .map(|e| 1.0 - e.success_probability)
                .sum()
        };
        let analytic = expected_failures(&p);
        let uniform = expected_failures(&Problem::new(p.links().clone(), *p.params(), p.epsilon()));
        let nak = NakagamiChannel::new(*p.params(), 1.0);
        let stats = simulate_many_under(&p, &s, &nak, 1000, 5);
        let tol = 4.0 * stats.failed.ci95 + 0.05;
        assert!(
            (stats.failed.mean - analytic).abs() <= tol,
            "Nakagami(1) {} vs Theorem 3.1 {analytic}",
            stats.failed.mean
        );
        assert!(
            (analytic - uniform).abs() > 2.0 * tol,
            "the powers must move the closed form ({analytic} vs {uniform} at uniform power)"
        );
    }

    #[test]
    fn nakagami_shape_orders_failures() {
        // Heavier-than-Rayleigh fading (m = 0.5) fails more often than
        // Rayleigh (m = 1); milder fading (m = 4) less often.
        let p = Problem::paper(UniformGenerator::paper(300).generate(2), 3.0);
        let s = ApproxLogN.schedule(&p);
        let failed = |m: f64| {
            let nak = NakagamiChannel::new(*p.params(), m);
            simulate_many_under(&p, &s, &nak, 1000, 8).failed
        };
        let (half, one, four) = (failed(0.5), failed(1.0), failed(4.0));
        assert!(
            half.mean - half.ci95 > one.mean + one.ci95
                && one.mean - one.ci95 > four.mean + four.ci95,
            "m=0.5 {} m=1 {} m=4 {}",
            half.mean,
            one.mean,
            four.mean
        );
    }

    #[test]
    fn zero_sigma_shadowing_is_rayleigh_bit_for_bit_under_power_control() {
        let (p, s) = powered();
        let plain = simulate_many(&p, &s, 500, 9);
        assert!(plain.failed.mean > 0.0, "the schedule must lose links");
        let shadowed =
            simulate_many_under(&p, &s, &ShadowedRayleigh::new(*p.params(), 0.0), 500, 9);
        assert_eq!(bits(&shadowed), bits(&plain));
    }

    #[test]
    fn heavy_shadowing_erodes_the_guarantee() {
        // 8 dB shadowing must increase failures of a Rayleigh-designed
        // schedule (the mis-modeling penalty the extension quantifies).
        let (p, s) = setup(250, 4);
        let plain = simulate_many(&p, &s, 3000, 11);
        let law = ShadowedRayleigh::new(*p.params(), 8.0);
        let shadowed = simulate_many_under(&p, &s, &law, 3000, 12);
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
