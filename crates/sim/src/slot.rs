//! One time-slot channel realization.
//!
//! For every scheduled link `j`, draw the desired-signal power
//! `Z_{j,j} ~ Exp(P·d_jj^{−α})` and each interferer's power
//! `Z_{i,j} ~ Exp(P·d_ij^{−α})` independently (the Rayleigh model,
//! Eq. (5)), then test the realized SINR against `γ_th` (Eq. (7)–(8)).
//! A [`FadingLaw`] turns each mean into a draw (Rayleigh, Nakagami-m or
//! shadowed Rayleigh): [`simulate_slot`] and [`realized_sinrs`] are
//! Rayleigh, and the Monte-Carlo driver takes any law.
//!
//! Every draw is scaled by the problem's per-link power scale. The
//! online engine hands this module the live problem and a schedule of
//! its backlogged links, so the mean gains carry the true transmit
//! powers (see `docs/residual.md`).
//!
//! **Where mean gains are computed.** A realization is one kernel,
//! `realize`, that reads each receiver's row of mean gains
//! `P·d_ij^{−α}·scale_i` (schedule order; the diagonal entry is the
//! desired signal over `d_jj`) and draws the signal, then the
//! interferers, from one RNG. The rows come from one of two places:
//!
//! * `GainTable` computes all `|S|×|S|` means once per (problem,
//!   schedule). Many-trial callers — `simulate_many`,
//!   `convergence_trace`, `sinr_histogram` — build one and run every
//!   trial from it, so no trial pays for a `powf` or a square root.
//!   Past 2048 scheduled links the table would exceed 32 MiB, and each
//!   trial streams its rows instead.
//! * [`simulate_slot`] and [`realized_sinrs`] realize a schedule once,
//!   so they fill one scratch row per receiver as they go and never
//!   allocate a `|S|²` table (the engine's busy slots schedule hundreds
//!   of links).
//!
//! Both feed the same draws, in the same order, through the same
//! `KahanSum` in `sinr_of`, so every outcome is bit-identical whichever
//! source is used.

use fading_channel::{sinr_of, FadingLaw, SinrOutcome};
use fading_core::{Problem, Schedule};
use fading_math::Exponential;
use fading_net::LinkId;
use rand::Rng;

/// Outcome of one slot realization.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotOutcome {
    /// Links whose realized SINR cleared `γ_th`.
    pub successes: Vec<LinkId>,
    /// Links that failed.
    pub failures: Vec<LinkId>,
    /// Total rate of successful links (realized throughput).
    pub delivered_rate: f64,
}

impl SlotOutcome {
    /// Number of failed transmissions in this slot.
    pub fn failed_count(&self) -> usize {
        self.failures.len()
    }
}

/// Simulates one slot of `schedule` on `problem` using `rng`.
pub fn simulate_slot<R: Rng + ?Sized>(
    problem: &Problem,
    schedule: &Schedule,
    rng: &mut R,
) -> SlotOutcome {
    let mut out = SlotOutcome {
        successes: Vec::new(),
        failures: Vec::new(),
        delivered_rate: 0.0,
    };
    let mut rows = StreamRows::new(problem, schedule.ids());
    let law = problem.channel();
    realize(problem, schedule.ids(), &mut rows, law, rng, |j, o| {
        if o.success {
            out.successes.push(j);
            out.delivered_rate += problem.rate(j);
        } else {
            out.failures.push(j);
        }
    });
    out
}

/// One realization's SINR per scheduled link (schedule order).
pub fn realized_sinrs<R: Rng + ?Sized>(
    problem: &Problem,
    schedule: &Schedule,
    rng: &mut R,
) -> Vec<(LinkId, f64)> {
    let mut out = Vec::with_capacity(schedule.len());
    let mut rows = StreamRows::new(problem, schedule.ids());
    let law = problem.channel();
    realize(problem, schedule.ids(), &mut rows, law, rng, |j, o| {
        out.push((j, o.sinr))
    });
    out
}

/// A source of per-receiver mean-gain rows for [`realize`].
trait GainRows {
    /// Receiver `ids[j]`'s row: one exponential per scheduled sender,
    /// in schedule order; entry `j` is the desired signal.
    fn row(&mut self, j: usize) -> &[Exponential];
}

/// Most entries a [`GainTable`] allocates: 2^22 (32 MiB), i.e.
/// schedules of up to 2048 links. A larger schedule (a user's instance
/// file can hold one) streams its rows in every trial instead, keeping
/// memory at `|S|` entries like [`simulate_slot`].
const MAX_TABLE_ENTRIES: usize = 1 << 22;

/// The `|S|×|S|` mean gains of one (problem, schedule) pair, row-major
/// by receiver, computed once and shared by every trial (and every
/// rayon worker) that realizes the schedule.
pub(crate) struct GainTable<'a> {
    problem: &'a Problem,
    ids: &'a [LinkId],
    /// `None` past [`MAX_TABLE_ENTRIES`]: each trial streams its rows.
    gains: Option<Vec<Exponential>>,
}

impl<'a> GainTable<'a> {
    /// Tabulates every scheduled (sender, receiver) pair's mean gain.
    pub(crate) fn new(problem: &'a Problem, schedule: &'a Schedule) -> Self {
        Self::with_cap(problem, schedule, MAX_TABLE_ENTRIES)
    }

    fn with_cap(problem: &'a Problem, schedule: &'a Schedule, max_entries: usize) -> Self {
        let ids = schedule.ids();
        let k = ids.len();
        let gains = k
            .checked_mul(k)
            .filter(|&entries| entries <= max_entries)
            .map(|entries| {
                let mut gains = Vec::with_capacity(entries);
                for j in 0..k {
                    gains.extend(gain_row(problem, ids, j));
                }
                gains
            });
        Self {
            problem,
            ids,
            gains,
        }
    }

    /// [`Self::realize_under`] the problem's Rayleigh channel.
    pub(crate) fn realize<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        each: impl FnMut(LinkId, SinrOutcome),
    ) {
        self.realize_under(self.problem.channel(), rng, each);
    }

    /// Runs one realization under `law`, reporting each receiver's
    /// outcome in schedule order.
    pub(crate) fn realize_under<L: FadingLaw, R: Rng + ?Sized>(
        &self,
        law: &L,
        rng: &mut R,
        each: impl FnMut(LinkId, SinrOutcome),
    ) {
        match &self.gains {
            Some(gains) => {
                let mut rows = TableRows {
                    k: self.ids.len(),
                    gains,
                };
                realize(self.problem, self.ids, &mut rows, law, rng, each);
            }
            None => {
                let mut rows = StreamRows::new(self.problem, self.ids);
                realize(self.problem, self.ids, &mut rows, law, rng, each);
            }
        }
    }
}

/// Rows read out of a tabulated `|S|×|S|` slice.
struct TableRows<'t> {
    k: usize,
    gains: &'t [Exponential],
}

impl GainRows for TableRows<'_> {
    #[inline]
    fn row(&mut self, j: usize) -> &[Exponential] {
        &self.gains[j * self.k..(j + 1) * self.k]
    }
}

/// One scratch row, refilled for each receiver: a single realization
/// costs the same mean-gain work as tabulating and allocates `|S|`
/// entries instead of `|S|²`.
struct StreamRows<'a> {
    problem: &'a Problem,
    ids: &'a [LinkId],
    row: Vec<Exponential>,
}

impl<'a> StreamRows<'a> {
    fn new(problem: &'a Problem, ids: &'a [LinkId]) -> Self {
        Self {
            problem,
            ids,
            row: Vec::with_capacity(ids.len()),
        }
    }
}

impl GainRows for StreamRows<'_> {
    #[inline]
    fn row(&mut self, j: usize) -> &[Exponential] {
        self.row.clear();
        self.row.extend(gain_row(self.problem, self.ids, j));
        &self.row
    }
}

/// Receiver `ids[j]`'s mean gains `P·d_ij^{−α}·scale_i` from every
/// scheduled sender `i`, in schedule order, as the exponentials the
/// realization draws from (the diagonal uses the link length `d_jj`).
fn gain_row<'a>(
    problem: &'a Problem,
    ids: &'a [LinkId],
    j: usize,
) -> impl Iterator<Item = Exponential> + 'a {
    let params = problem.params();
    let links = problem.links();
    let rx = ids[j];
    ids.iter().enumerate().map(move |(i, &tx)| {
        let d = if i == j {
            links.length(rx)
        } else {
            links.sender_receiver_distance(tx, rx)
        };
        let scale = problem.power_scale(tx);
        debug_assert!(scale > 0.0, "power scale must be positive");
        Exponential::with_mean(params.mean_gain(d) * scale)
    })
}

/// The realization kernel: start a realization of `law`, then for each
/// scheduled receiver in schedule order draw its signal and then its
/// interferers (schedule order, skipping itself) from `rng`, and hand
/// `each` the realized SINR outcome.
fn realize<L: FadingLaw, R: Rng + ?Sized>(
    problem: &Problem,
    ids: &[LinkId],
    rows: &mut impl GainRows,
    law: &L,
    rng: &mut R,
    mut each: impl FnMut(LinkId, SinrOutcome),
) {
    let params = problem.params();
    let k = ids.len();
    let state = law.begin(k, rng);
    for (j, &rx) in ids.iter().enumerate() {
        let row = rows.row(j);
        let signal = law.draw(&state, &row[j], j * k + j, rng);
        let interference = (0..k)
            .filter(|&i| i != j)
            .map(|i| law.draw(&state, &row[i], i * k + j, rng));
        each(rx, sinr_of(params, signal, interference));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fading_channel::{ChannelParams, RayleighChannel};
    use fading_math::seeded_rng;
    use fading_net::{RateModel, TopologyGenerator, UniformGenerator};
    use proptest::prelude::*;
    use rand::seq::SliceRandom;

    fn problem(n: usize, seed: u64) -> Problem {
        Problem::paper(UniformGenerator::paper(n).generate(seed), 3.0)
    }

    #[test]
    fn empty_schedule_trivial_outcome() {
        let p = problem(10, 1);
        let mut rng = seeded_rng(0);
        let out = simulate_slot(&p, &Schedule::empty(), &mut rng);
        assert!(out.successes.is_empty());
        assert!(out.failures.is_empty());
        assert_eq!(out.delivered_rate, 0.0);
    }

    #[test]
    fn singleton_always_succeeds_without_noise() {
        // No interferers and N₀ = 0 ⇒ infinite SINR in every realization.
        let p = problem(10, 2);
        let mut rng = seeded_rng(1);
        let s = Schedule::from_ids([LinkId(3)]);
        for _ in 0..100 {
            let out = simulate_slot(&p, &s, &mut rng);
            assert_eq!(out.successes, vec![LinkId(3)]);
            assert_eq!(out.delivered_rate, 1.0);
        }
    }

    #[test]
    fn partition_is_exact() {
        let p = problem(50, 3);
        let s = Schedule::from_ids(p.links().ids());
        let mut rng = seeded_rng(2);
        let out = simulate_slot(&p, &s, &mut rng);
        assert_eq!(out.successes.len() + out.failures.len(), s.len());
        // Delivered rate equals the number of successes (unit rates).
        assert_eq!(out.delivered_rate, out.successes.len() as f64);
    }

    #[test]
    fn dense_all_on_schedule_sees_failures() {
        // Activating all 200 links in a 500×500 field is hopeless; some
        // failures are certain in any realization.
        let p = problem(200, 4);
        let s = Schedule::from_ids(p.links().ids());
        let mut rng = seeded_rng(3);
        let out = simulate_slot(&p, &s, &mut rng);
        assert!(out.failed_count() > 0);
    }

    /// The received power of a sender transmitting at `power_scale × P`
    /// over distance `d`, its mean gain recomputed per draw.
    fn sample_gain_scaled<R: Rng + ?Sized>(
        channel: &RayleighChannel,
        rng: &mut R,
        d: f64,
        power_scale: f64,
    ) -> f64 {
        Exponential::with_mean(channel.params.mean_gain(d) * power_scale).sample(rng)
    }

    /// The streaming `simulate_slot` as it stood before the shared
    /// kernel: each draw recomputes its mean gain through
    /// `sample_gain_scaled`. The oracle the kernel must match bit for bit.
    fn oracle_slot<R: Rng + ?Sized>(
        problem: &Problem,
        schedule: &Schedule,
        rng: &mut R,
    ) -> SlotOutcome {
        let channel = problem.channel();
        let links = problem.links();
        let mut successes = Vec::new();
        let mut failures = Vec::new();
        let mut delivered_rate = 0.0;
        for j in schedule.iter() {
            let signal = sample_gain_scaled(channel, rng, links.length(j), problem.power_scale(j));
            let interference = schedule.iter().filter(|&i| i != j).map(|i| {
                sample_gain_scaled(
                    channel,
                    rng,
                    links.sender_receiver_distance(i, j),
                    problem.power_scale(i),
                )
            });
            let outcome = fading_channel::sinr_of(problem.params(), signal, interference);
            if outcome.success {
                successes.push(j);
                delivered_rate += problem.rate(j);
            } else {
                failures.push(j);
            }
        }
        SlotOutcome {
            successes,
            failures,
            delivered_rate,
        }
    }

    /// `realized_sinrs` as it stood before the shared kernel.
    fn oracle_sinrs<R: Rng + ?Sized>(
        problem: &Problem,
        schedule: &Schedule,
        rng: &mut R,
    ) -> Vec<(LinkId, f64)> {
        let channel = problem.channel();
        let links = problem.links();
        schedule
            .iter()
            .map(|j| {
                let signal =
                    sample_gain_scaled(channel, rng, links.length(j), problem.power_scale(j));
                let interference = schedule.iter().filter(|&i| i != j).map(|i| {
                    sample_gain_scaled(
                        channel,
                        rng,
                        links.sender_receiver_distance(i, j),
                        problem.power_scale(i),
                    )
                });
                (
                    j,
                    fading_channel::sinr_of(problem.params(), signal, interference).sinr,
                )
            })
            .collect()
    }

    /// SINRs compared by bits: a one-ulp drift in any mean gain or
    /// draw shows here even when no success flips.
    fn sinr_bits(sinrs: &[(LinkId, f64)]) -> Vec<(LinkId, u64)> {
        sinrs.iter().map(|&(j, x)| (j, x.to_bits())).collect()
    }

    /// A [`GainTable`] realization collected into a `SlotOutcome`;
    /// `max_entries = 0` forces the streaming fallback.
    fn table_slot<R: Rng + ?Sized>(
        problem: &Problem,
        schedule: &Schedule,
        max_entries: usize,
        rng: &mut R,
    ) -> SlotOutcome {
        let mut out = SlotOutcome {
            successes: Vec::new(),
            failures: Vec::new(),
            delivered_rate: 0.0,
        };
        GainTable::with_cap(problem, schedule, max_entries).realize(rng, |j, o| {
            if o.success {
                out.successes.push(j);
                out.delivered_rate += problem.rate(j);
            } else {
                out.failures.push(j);
            }
        });
        out
    }

    /// Asserts outcome equality with the delivered rate compared by
    /// bits, not by `==`.
    fn assert_same(a: &SlotOutcome, b: &SlotOutcome) {
        assert_eq!(a.successes, b.successes);
        assert_eq!(a.failures, b.failures);
        assert_eq!(a.delivered_rate.to_bits(), b.delivered_rate.to_bits());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn kernel_matches_the_streaming_oracle(
            alpha_ix in 0usize..5,
            seed in 0u64..1_000_000,
            scales in proptest::collection::vec(0.25f64..4.0, 1..8),
            rng_seed in 0u64..1_000_000,
        ) {
            // Both `powf` exponents (2.5, 3.5, 4.5) and the integer ones.
            let alpha = [2.5, 3.0, 3.5, 4.0, 4.5][alpha_ix];
            let gen = UniformGenerator {
                rates: RateModel::Uniform { lo: 0.5, hi: 3.0 },
                ..UniformGenerator::paper(80)
            };
            let links = gen.generate(seed);
            let n = links.len();
            let p = Problem::builder(links, ChannelParams::with_alpha(alpha))
                .power_scales(scales.iter().copied().cycle().take(n).collect())
                .build();
            let mut ids: Vec<LinkId> = p.links().ids().collect();
            ids.shuffle(&mut seeded_rng(seed ^ 0x5eed));
            // Every |S| from 0 to 60; schedules need not be feasible.
            for k in 0..=60 {
                let s = Schedule::from_ids(ids[..k].iter().copied());
                let rng_seed = rng_seed + k as u64;
                let want = oracle_slot(&p, &s, &mut seeded_rng(rng_seed));
                assert_same(&simulate_slot(&p, &s, &mut seeded_rng(rng_seed)), &want);
                for cap in [MAX_TABLE_ENTRIES, 0] {
                    assert_same(&table_slot(&p, &s, cap, &mut seeded_rng(rng_seed)), &want);
                }
                let want = sinr_bits(&oracle_sinrs(&p, &s, &mut seeded_rng(rng_seed)));
                let streamed = realized_sinrs(&p, &s, &mut seeded_rng(rng_seed));
                prop_assert_eq!(sinr_bits(&streamed), want.clone());
                let mut tabulated = Vec::new();
                GainTable::new(&p, &s)
                    .realize(&mut seeded_rng(rng_seed), |j, o| tabulated.push((j, o.sinr)));
                prop_assert_eq!(sinr_bits(&tabulated), want);
                // Consecutive slots off one stream: both paths consume
                // exactly the oracle's draws.
                let mut a = seeded_rng(rng_seed);
                let mut b = seeded_rng(rng_seed);
                let mut c = seeded_rng(rng_seed);
                for _ in 0..3 {
                    let want = oracle_slot(&p, &s, &mut a);
                    assert_same(&simulate_slot(&p, &s, &mut b), &want);
                    assert_same(&table_slot(&p, &s, MAX_TABLE_ENTRIES, &mut c), &want);
                }
                let next = a.gen::<u64>();
                prop_assert_eq!(next, b.gen::<u64>());
                prop_assert_eq!(next, c.gen::<u64>());
            }
        }
    }

    #[test]
    fn deterministic_given_rng_state() {
        let p = problem(30, 5);
        let s = Schedule::from_ids(p.links().ids());
        let a = simulate_slot(&p, &s, &mut seeded_rng(7));
        let b = simulate_slot(&p, &s, &mut seeded_rng(7));
        assert_eq!(a, b);
    }
}
