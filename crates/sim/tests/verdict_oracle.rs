//! The certified verdict path against exact SINRs.
//!
//! `simulate_slot` and `simulate_many` decide most receivers from an
//! upper bound on their interference and sum exactly only the rows the
//! bound leaves open; `realized_sinrs` sums every row. Off the same
//! seed they consume the same uniforms, so every verdict must equal
//! `sinr ≥ γ_th` of the exact SINR, and every statistic must equal a
//! per-trial loop over `realized_sinrs`, bit for bit. The instances are
//! dense random subsets (most are infeasible, so failures are common)
//! under power scales, ambient noise and several thresholds, and the
//! RLE, LDP and GreedyRate schedules whose receivers the signal draw
//! alone mostly certifies, and ApproxDiversity's, whose receivers
//! `simulate_many` mostly certifies from a heavy-first prefix of their
//! interferers: under seeded draws, and under scripted ones that give
//! every interferer the largest draw the uniform allows.

use fading_channel::{sinr_of, ChannelParams, FadingLaw, NakagamiChannel, ShadowedRayleigh};
use fading_core::algo::{ApproxDiversity, GreedyRate, Ldp, Rle};
use fading_core::{BackendChoice, Problem, Schedule, Scheduler, SparseConfig};
use fading_math::{seeded_rng, split_seed, Exponential, OnlineStats};
use fading_net::{LinkId, RateModel, TopologyGenerator, UniformGenerator};
use fading_sim::monte_carlo::simulate_many_under;
use fading_sim::{realized_sinrs, simulate_many, simulate_slot, MonteCarloStats};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::RngCore;

const ALPHAS: [f64; 5] = [2.5, 3.0, 4.0, 4.5, 6.0];

/// 70 paper-length links (rates vary) packed into a 200×200 field, so
/// large subsets are infeasible, at path-loss exponent `alpha`,
/// with senders cycling through `scales`, noise `noise_frac` times the
/// mean gain over the median link length, and threshold `gamma_th`;
/// and its link ids in a seeded random order.
fn instance(
    seed: u64,
    alpha: f64,
    gamma_th: f64,
    noise_frac: f64,
    scales: &[f64],
) -> (Problem, Vec<LinkId>) {
    let gen = UniformGenerator {
        rates: RateModel::Uniform { lo: 0.5, hi: 3.0 },
        side: 200.0,
        ..UniformGenerator::paper(70)
    };
    let links = gen.generate(seed);
    let n = links.len();
    let noise = noise_frac * ChannelParams::with_alpha(alpha).mean_gain(12.5);
    let p = Problem::builder(links, ChannelParams::new(alpha, gamma_th, 1.0, noise))
        .power_scales(scales.iter().copied().cycle().take(n).collect())
        .build();
    let mut ids: Vec<LinkId> = p.links().ids().collect();
    ids.shuffle(&mut seeded_rng(seed ^ 0x0AC1E));
    (p, ids)
}

/// The schedule sizes each case realizes: the degenerate 0, 1 and 2,
/// two random subsets and the whole field.
fn sizes((a, b): (usize, usize)) -> impl Iterator<Item = usize> {
    [0, 1, 2, a, b, 70].into_iter()
}

/// `simulate_many`'s statistics from a sequential loop over
/// `realized_sinrs`: trial `t` realizes on `split_seed(base_seed, t)`,
/// and a receiver succeeds when its exact SINR clears `γ_th`.
fn per_trial_oracle(p: &Problem, s: &Schedule, trials: u64, base_seed: u64) -> MonteCarloStats {
    let gamma_th = p.params().gamma_th;
    let mut failed = OnlineStats::new();
    let mut throughput = OnlineStats::new();
    for t in 0..trials {
        let sinrs = realized_sinrs(p, s, &mut seeded_rng(split_seed(base_seed, t)));
        let (mut f, mut d) = (0.0, 0.0);
        for (j, sinr) in sinrs {
            if sinr >= gamma_th {
                d += p.rate(j);
            } else {
                f += 1.0;
            }
        }
        failed.push(f);
        throughput.push(d);
    }
    MonteCarloStats {
        scheduled: s.len(),
        scheduled_rate: s.utility(p),
        failed: failed.summary(),
        throughput: throughput.summary(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn slot_verdicts_equal_exact_sinr_tests(
        seed in 0u64..1_000_000,
        alpha_ix in 0usize..ALPHAS.len(),
        gamma_ix in 0usize..3,
        noise_ix in 0usize..3,
        scales in proptest::collection::vec(0.25f64..4.0, 1..6),
        extra in (3usize..70, 3usize..70),
        rng_seed in 0u64..1_000_000,
    ) {
        let gamma_th = [0.25, 1.0, 4.0][gamma_ix];
        let noise_frac = [0.0, 0.05, 0.5][noise_ix];
        let (p, ids) = instance(seed, ALPHAS[alpha_ix], gamma_th, noise_frac, &scales);
        let mut failures = 0;
        for k in sizes(extra) {
            let s = Schedule::from_ids(ids[..k].iter().copied());
            let rng_seed = rng_seed + k as u64;
            let out = simulate_slot(&p, &s, &mut seeded_rng(rng_seed));
            let sinrs = realized_sinrs(&p, &s, &mut seeded_rng(rng_seed));
            let (pass, fail): (Vec<_>, Vec<_>) =
                sinrs.iter().partition(|&&(_, sinr)| sinr >= gamma_th);
            let pass: Vec<LinkId> = pass.into_iter().map(|&(j, _)| j).collect();
            let fail: Vec<LinkId> = fail.into_iter().map(|&(j, _)| j).collect();
            prop_assert_eq!(&out.successes, &pass);
            prop_assert_eq!(&out.failures, &fail);
            failures += fail.len();
            // Both paths leave the stream at the same point.
            let (mut a, mut b) = (seeded_rng(rng_seed), seeded_rng(rng_seed));
            simulate_slot(&p, &s, &mut a);
            realized_sinrs(&p, &s, &mut b);
            prop_assert_eq!(rand::Rng::gen::<u64>(&mut a), rand::Rng::gen::<u64>(&mut b));
        }
        // Guard the oracle's reach: the packed field fails somewhere.
        prop_assert!(failures > 0);
    }

    #[test]
    fn monte_carlo_equals_a_per_trial_exact_loop(
        seed in 0u64..1_000_000,
        alpha_ix in 0usize..ALPHAS.len(),
        gamma_ix in 0usize..3,
        noise_ix in 0usize..3,
        scales in proptest::collection::vec(0.25f64..4.0, 1..6),
        extra in (3usize..70, 3usize..70),
        trials in 1u64..12,
        base_seed in 0u64..1_000_000,
    ) {
        let gamma_th = [0.25, 1.0, 4.0][gamma_ix];
        let noise_frac = [0.0, 0.05, 0.5][noise_ix];
        let (p, ids) = instance(seed, ALPHAS[alpha_ix], gamma_th, noise_frac, &scales);
        for k in sizes(extra) {
            let s = Schedule::from_ids(ids[..k].iter().copied());
            // `Debug` prints every `f64` exactly: equal strings are equal bits.
            prop_assert_eq!(
                format!("{:?}", simulate_many(&p, &s, trials, base_seed)),
                format!("{:?}", per_trial_oracle(&p, &s, trials, base_seed))
            );
        }
    }
}

/// RLE, LDP, GreedyRate and ApproxDiversity schedules of 300 paper
/// links at α 3 and 4, on the dense store, the default sparse store and
/// a coarse sparse store (`tail_rtol = 1`) whose receivers omit many
/// interferers.
fn scheduled_cases() -> Vec<(String, Problem, Schedule)> {
    let backends = [
        BackendChoice::Dense,
        BackendChoice::Sparse(SparseConfig::default()),
        BackendChoice::Sparse(SparseConfig { tail_rtol: 1.0 }),
    ];
    let schedulers: [&dyn Scheduler; 4] = [
        &Rle::new(),
        &Ldp::new(),
        &GreedyRate,
        &ApproxDiversity::new(),
    ];
    let mut cases = Vec::new();
    for (seed, alpha) in [(3, 3.0), (4, 4.0)] {
        let links = UniformGenerator::paper(300).generate(seed);
        for backend in backends {
            let p = Problem::builder(links.clone(), ChannelParams::with_alpha(alpha))
                .backend(backend)
                .build();
            for scheduler in schedulers {
                let s = scheduler.schedule(&p);
                let name = format!("{} α {alpha} {backend:?}", scheduler.name());
                cases.push((name, p.clone(), s));
            }
        }
    }
    cases
}

/// The verdicts `simulate_slot` draws from `rng`, as (successes,
/// failures), and the exact SINR tests of `realized_sinrs` off a copy
/// of the same stream.
fn both_verdicts<R: RngCore + Clone>(
    p: &Problem,
    s: &Schedule,
    rng: &R,
) -> [(Vec<LinkId>, Vec<LinkId>); 2] {
    let out = simulate_slot(p, s, &mut rng.clone());
    let (pass, fail): (Vec<_>, Vec<_>) = realized_sinrs(p, s, &mut rng.clone())
        .into_iter()
        .partition(|&(_, sinr)| sinr >= p.params().gamma_th);
    let ids = |v: Vec<(LinkId, f64)>| v.into_iter().map(|(j, _)| j).collect();
    [(out.successes, out.failures), (ids(pass), ids(fail))]
}

#[test]
fn scheduler_schedules_certify_from_the_signal_and_keep_exact_verdicts() {
    let certified = fading_obs::counter!("sim.slot.signal_certified");
    for (name, p, s) in scheduled_cases() {
        let before = certified.value();
        for seed in 0..4 {
            let [got, want] = both_verdicts(&p, &s, &seeded_rng(seed));
            assert_eq!(got, want, "{name}, seed {seed}");
        }
        assert_eq!(
            format!("{:?}", simulate_many(&p, &s, 8, 5)),
            format!("{:?}", per_trial_oracle(&p, &s, 8, 5)),
            "{name}"
        );
        // Other tests add to the counter too, but a tier that never
        // fires leaves it still here.
        assert!(certified.value() > before, "{name}: nothing certified");
    }
}

#[test]
fn approx_diversity_monte_carlo_certifies_from_prefixes_and_equals_the_exact_loop() {
    // `simulate_many` tabulates the gains, so its open receivers draw
    // their interferers heaviest block first; the per-trial loop sums
    // every row exactly off the same streams.
    let prefix = fading_obs::counter!("sim.slot.prefix_certified");
    for (seed, alpha) in [(5, 3.0), (6, 4.0)] {
        let p = Problem::paper(UniformGenerator::paper(300).generate(seed), alpha);
        let s = ApproxDiversity::new().schedule(&p);
        let before = prefix.value();
        assert_eq!(
            format!("{:?}", simulate_many(&p, &s, 40, seed)),
            format!("{:?}", per_trial_oracle(&p, &s, 40, seed)),
            "α {alpha}"
        );
        // Other tests add to the counter too, but a stage that never
        // certifies leaves it still here.
        assert!(prefix.value() > before, "α {alpha}: no prefix certified");
    }
}

/// Replays `words` cyclically as `next_u64` draws, with random access
/// to them by block (draw `q` is 32-bit words `2q` and `2q + 1` of a
/// stream cut into 16-word blocks), so `simulate_slot` takes its keyed
/// path and `realized_sinrs` its in-order loop. A `k`-word script gives every receiver of a
/// `k`-link schedule the same draws, its signal's first. Seeks draw and
/// discard (the trait's default).
#[derive(Clone)]
struct Script {
    words: Vec<u64>,
    at: usize,
}

impl RngCore for Script {
    fn next_u32(&mut self) -> u32 {
        self.next_u64() as u32
    }
    fn next_u64(&mut self) -> u64 {
        let word = self.words[self.at % self.words.len()];
        self.at += 1;
        word
    }
    fn fill_bytes(&mut self, _: &mut [u8]) {
        unimplemented!("the kernel draws whole words")
    }
    fn block_offset(&self) -> Option<usize> {
        Some(2 * self.at % 16)
    }
    fn peek_blocks(&self, blocks: &[u64], out: &mut [[u32; 16]]) -> Option<usize> {
        for (block, &b) in out.iter_mut().zip(blocks) {
            let first = 16 * (2 * self.at / 16 + b as usize);
            for (w, word) in block.iter_mut().enumerate() {
                let x = first + w;
                *word = (self.words[x / 2 % self.words.len()] >> (32 * (x % 2))) as u32;
            }
        }
        Some(blocks.len())
    }
}

#[test]
fn largest_interferer_draws_keep_exact_verdicts() {
    // Every interferer draws `u64::MAX`, so `1 − U = 2^−53` and its
    // power is 53·ln 2 times its mean, the most the certificate allows
    // for. The signal's `−ln(1 − U)` sweeps 10^−4 … 36 in steps of
    // 2%, so for each receiver some signal lands just above its
    // certificate and some just below.
    let signals: Vec<u64> = (0..=420)
        .map(|g| {
            let neg_ln = 1e-4 * 1.02f64.powi(g);
            let u = -(-neg_ln).exp_m1();
            ((u * (1u64 << 53) as f64) as u64) << 11
        })
        .collect();
    for (name, p, s) in scheduled_cases() {
        let mut words = vec![u64::MAX; s.len()];
        for &signal in &signals {
            words[0] = signal;
            let [got, want] = both_verdicts(
                &p,
                &s,
                &Script {
                    words: words.clone(),
                    at: 0,
                },
            );
            assert_eq!(got, want, "{name}, signal word {signal:#x}");
        }
    }
}

/// `simulate_many_under`'s statistics from a sequential exact loop
/// under `law`: trial `t` begins the law's realization on
/// `split_seed(base_seed, t)`, then draws every pair in stream order
/// (each receiver's signal, then its interferers in schedule order) and
/// sums every row.
fn law_oracle<L: FadingLaw>(
    p: &Problem,
    s: &Schedule,
    law: &L,
    trials: u64,
    base_seed: u64,
) -> MonteCarloStats {
    let (ids, links) = (s.ids(), p.links());
    let k = ids.len();
    let mean = |j: usize, i: usize| {
        let d = if i == j {
            links.length(ids[j])
        } else {
            links.sender_receiver_distance(ids[i], ids[j])
        };
        Exponential::with_mean(p.params().mean_gain(d) * p.power_scale(ids[i]))
    };
    let mut failed = OnlineStats::new();
    let mut throughput = OnlineStats::new();
    for t in 0..trials {
        let mut rng = seeded_rng(split_seed(base_seed, t));
        let state = law.begin(k, &mut rng);
        let (mut f, mut d) = (0.0, 0.0);
        for (j, &rx) in ids.iter().enumerate() {
            let signal = law.draw(&state, &mean(j, j), j * k + j, &mut rng);
            let interference: Vec<f64> = (0..k)
                .filter(|&i| i != j)
                .map(|i| law.draw(&state, &mean(j, i), i * k + j, &mut rng))
                .collect();
            if sinr_of(p.params(), signal, interference).success {
                d += p.rate(rx);
            } else {
                f += 1.0;
            }
        }
        failed.push(f);
        throughput.push(d);
    }
    MonteCarloStats {
        scheduled: s.len(),
        scheduled_rate: s.utility(p),
        failed: failed.summary(),
        throughput: throughput.summary(),
    }
}

#[test]
fn shadowed_and_nakagami_monte_carlo_equal_the_exact_loop() {
    // Shadowing draws its factors first, so its realizations start
    // mid-block and take the table's whole-row stages; Nakagami has no
    // exponential mean and runs the in-order loop.
    for (seed, alpha) in [(5, 3.0), (6, 4.0)] {
        let p = Problem::paper(UniformGenerator::paper(300).generate(seed), alpha);
        let shadowed = ShadowedRayleigh::new(*p.params(), 6.0);
        let nakagami = NakagamiChannel::new(*p.params(), 2.0);
        for s in [ApproxDiversity::new().schedule(&p), Rle::new().schedule(&p)] {
            assert_eq!(
                format!("{:?}", simulate_many_under(&p, &s, &shadowed, 6, seed)),
                format!("{:?}", law_oracle(&p, &s, &shadowed, 6, seed)),
                "shadowed, α {alpha}"
            );
            assert_eq!(
                format!("{:?}", simulate_many_under(&p, &s, &nakagami, 3, seed)),
                format!("{:?}", law_oracle(&p, &s, &nakagami, 3, seed)),
                "Nakagami, α {alpha}"
            );
        }
    }
}

#[test]
fn failure_certified_rows_keep_exact_verdicts() {
    // The whole packed field at once: most receivers fail, and the drawn
    // lower bound decides many of them without an exact sum.
    let failed = fading_obs::counter!("sim.slot.failure_certified");
    for (seed, noise_frac) in [(11, 0.0), (12, 0.5)] {
        let (p, ids) = instance(seed, 3.0, 1.0, noise_frac, &[0.5, 1.0, 2.0]);
        let s = Schedule::from_ids(ids);
        let before = failed.value();
        assert_eq!(
            format!("{:?}", simulate_many(&p, &s, 16, seed)),
            format!("{:?}", per_trial_oracle(&p, &s, 16, seed)),
            "seed {seed}"
        );
        for rng_seed in 0..4 {
            let [got, want] = both_verdicts(&p, &s, &seeded_rng(rng_seed));
            assert_eq!(got, want, "seed {seed}, rng seed {rng_seed}");
        }
        // Other tests add to the counter too, but a certificate that
        // never fires leaves it still here.
        assert!(failed.value() > before, "seed {seed}: no failure certified");
    }
}

#[test]
fn realizations_started_mid_block_keep_exact_verdicts() {
    // 0 to 17 prior 32-bit draws start the realization at every word of
    // its first block, odd offsets (where a uniform straddles two
    // blocks) and even ones, and in a refilled buffer.
    for (name, p, s) in scheduled_cases().into_iter().step_by(3) {
        for prior in 0..=17u64 {
            let mut rng = seeded_rng(prior);
            for _ in 0..prior {
                rng.next_u32();
            }
            let [got, want] = both_verdicts(&p, &s, &rng);
            assert_eq!(got, want, "{name}, {prior} prior words");
            let (mut a, mut b) = (rng.clone(), rng.clone());
            simulate_slot(&p, &s, &mut a);
            realized_sinrs(&p, &s, &mut b);
            assert_eq!(a.next_u64(), b.next_u64(), "{name}, {prior} prior words");
        }
    }
}

#[test]
fn schedules_shorter_than_a_block_keep_exact_verdicts() {
    // Below 8 links several signals share one keystream block.
    let (p, ids) = instance(7, 3.0, 1.0, 0.05, &[1.0, 2.0]);
    for k in 1..8 {
        let s = Schedule::from_ids(ids[..k].iter().copied());
        assert_eq!(
            format!("{:?}", simulate_many(&p, &s, 24, k as u64)),
            format!("{:?}", per_trial_oracle(&p, &s, 24, k as u64)),
            "k = {k}"
        );
        for rng_seed in 0..8 {
            let [got, want] = both_verdicts(&p, &s, &seeded_rng(rng_seed));
            assert_eq!(got, want, "k = {k}, rng seed {rng_seed}");
        }
    }
}

#[test]
fn the_largest_table_and_the_smallest_streamed_schedule_equal_the_exact_loop() {
    // 2048 links is the largest schedule a gain table holds; at 2049
    // every trial streams its rows.
    let p = Problem::paper(UniformGenerator::paper(2049).generate(8), 3.0);
    let ids: Vec<LinkId> = p.links().ids().collect();
    for k in [2048, 2049] {
        let s = Schedule::from_ids(ids[..k].iter().copied());
        assert_eq!(
            format!("{:?}", simulate_many(&p, &s, 1, 9)),
            format!("{:?}", per_trial_oracle(&p, &s, 1, 9)),
            "k = {k}"
        );
    }
}
