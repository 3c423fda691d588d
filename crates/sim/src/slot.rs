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
//! **Two paths.** A realization's draws follow one stream order: for
//! each scheduled receiver in schedule order the signal's uniform, then
//! its interferers' (schedule order, skipping itself), so every row
//! takes exactly `k` words of the RNG whether they are read or not.
//!
//! * **The keyed path** (`keyed`) serves verdict callers under a law
//!   that draws `mean'·(−ln(1−U))` from one uniform
//!   ([`FadingLaw::exponential_mean`]: Rayleigh, shadowed Rayleigh). A
//!   verdict `X_j ≥ γ_th` is all they need, and a fading-aware schedule
//!   clears it by a wide margin almost everywhere (Thm 3.1). It reads
//!   only the uniforms a verdict needs, by stream position
//!   (`RngCore::peek_u64`, which computes just the ChaCha blocks that
//!   hold them on `StdRng`), decides each row by one certificate over a
//!   growing prefix of its interferers (`docs/THEORY.md` §7.2), and
//!   seeks the RNG past its `k²` words, where drawing them all would
//!   have left it.
//! * **The in-order loop** (`in_order`) draws and sums every row: for
//!   callers that need the SINR ([`realized_sinrs`], `sinr_histogram`),
//!   for laws with other draws (Nakagami's rejection takes a variable
//!   number of uniforms), and for a generator without random access,
//!   whose first `peek_u64` (the signals' fetch) returns `None`.
//!
//! **The prefix certificate.** With the signal drawn exactly and the
//! interferers of a prefix `D` drawn, the interference is at most
//! `Σ_{i∈D} m̄_i·Ē_i + E_MAX_UP·c·Σ_{i∉D} m̄_i` (plus `f64::MIN_POSITIVE`
//! per interferer), where `m̄_i` bounds the exact mean, `Ē_i ≥
//! −ln(1−U_i)` is read off the bits of `1−U_i` (`neg_ln_bound`, no
//! logarithm), `c` is the law's
//! [`mean_multiplier`](FadingLaw::mean_multiplier) and `E_MAX_UP` caps
//! `−ln(1−U)` of a 53-bit uniform. A receiver with
//! `signal / (N₀ + bound·(1 + CERT_SLACK)) ≥ γ_th` succeeds. With a
//! multiplier, the empty prefix tests the signal alone against each
//! bound the row has on its interferers' mean sum
//! (`sim.slot.signal_certified`). Then, one round across the open rows
//! per stage, a tabulated row under a multiplier draws its interferers
//! one keystream block at a time, heaviest mean sum first
//! (`sim.slot.prefix_certified`), until its last block completes it;
//! every other row has one stage, the whole row in stream order. A row
//! no prefix certifies is summed exactly from the uniforms its stages
//! kept, through the same inverse transform and `KahanSum` in `sinr_of`
//! as drawing every uniform would (`sim.slot.exact_rows`).
//!
//! A streamed slot's signal certificate bounds `Σ m_ij` by the stored
//! interference factors (`m_jj·(e^{F̄_j} − 1)/γ_th`, one walk of the
//! scheduled senders' rows per slot, `product_bounds`), then retries a
//! receiver left open with the geometric mean bounds; a table's uses its
//! row sums. Each bound dominates its exact counterpart and
//! `CERT_SLACK` covers the rounding, so a certified receiver's exact
//! SINR clears `γ_th` too, and every verdict is bit-identical to
//! summing every row.
//!
//! **Where mean gains come from.** `GainTable` computes all `|S|×|S|`
//! means once per (problem, schedule), and many-trial callers
//! (`simulate_many`, `convergence_trace`, `sinr_histogram`) run every
//! trial from it. [`simulate_slot`] and [`realized_sinrs`] realize a
//! schedule once, and so does a table past 2048 links (32 MiB): they
//! stream, bounding each row from geometry and computing exact means
//! only for an open row, so no `|S|²` table is allocated.

use fading_channel::{sinr_of, ChannelParams, FadingLaw, SinrOutcome};
use fading_core::{Problem, Schedule};
use fading_geom::Point2;
use fading_math::Exponential;
use fading_net::LinkId;
use rand::Rng;
use std::ops::Range;

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
    let table = GainTable::streaming(problem, schedule);
    table.trials(problem.channel()).verdicts(rng, |j, success| {
        if success {
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
    let table = GainTable::streaming(problem, schedule);
    table
        .trials(problem.channel())
        .sinrs(rng, |j, sinr| out.push((j, sinr)));
    out
}

/// A source of per-receiver mean gains for a realization.
trait GainRows {
    /// Receiver `ids[j]`'s exact row: one exponential per scheduled
    /// sender, in schedule order; entry `j` is the desired signal.
    fn row(&mut self, j: usize) -> &[Exponential];

    /// Entry `j` of [`Self::row`]`(j)`: the desired signal's exact mean.
    fn signal(&self, j: usize) -> Exponential;

    /// An upper bound on the mean of [`Self::row`]`(j)[i]` as an `f64`.
    fn mean_bound(&self, j: usize, i: usize) -> f64;

    /// Upper bounds on the exact sum of [`Self::row`]`(j)`'s interferer
    /// means (entry `j` left out), cheapest first; each is computed
    /// only when the one before it fails to certify the receiver.
    fn interference_means(&self, j: usize) -> impl Iterator<Item = f64> + '_;

    /// Stage `s` of receiver `j`'s prefixes: the stream positions of the
    /// interferers it draws, and an upper bound on the sum of the means
    /// still undrawn after it. The last stage completes the row; `None`
    /// past it.
    fn stage(&self, j: usize, s: usize) -> Option<(Range<usize>, f64)>;
}

/// The one stage of a row kept in stream order: stage 0 draws all of
/// receiver `j`'s interferers and leaves nothing undrawn.
#[inline]
fn whole_row(k: usize, j: usize, s: usize) -> Option<(Range<usize>, f64)> {
    (s == 0 && k > 1).then(|| (interferer_positions(k, j), 0.0))
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
    /// Otherwise the gains, each row's [`sum_up`] of its interferer
    /// means and its [`HeavyFirst`] stages.
    gains: Option<(Vec<Exponential>, Vec<f64>, HeavyFirst)>,
}

impl<'a> GainTable<'a> {
    /// Tabulates every scheduled (sender, receiver) pair's mean gain.
    pub(crate) fn new(problem: &'a Problem, schedule: &'a Schedule) -> Self {
        Self::with_cap(problem, schedule, MAX_TABLE_ENTRIES)
    }

    /// A table that streams its rows: for a schedule realized once.
    fn streaming(problem: &'a Problem, schedule: &'a Schedule) -> Self {
        Self::with_cap(problem, schedule, 0)
    }

    fn with_cap(problem: &'a Problem, schedule: &'a Schedule, max_entries: usize) -> Self {
        counters();
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
                let sums = gains
                    .chunks(k.max(1))
                    .enumerate()
                    .map(|(j, row)| sum_up(interferers(j, row.iter().map(Exponential::mean))))
                    .collect();
                let heavy = HeavyFirst::new(k, &gains);
                (gains, sums, heavy)
            });
        Self {
            problem,
            ids,
            gains,
        }
    }

    /// A run of realizations under `law`, for one worker: see
    /// [`Trials`].
    pub(crate) fn trials<'t, L: FadingLaw>(&'t self, law: &'t L) -> Trials<'t, 'a, L> {
        Trials {
            table: self,
            law,
            scratch: Scratch::default(),
        }
    }
}

/// One worker's run of realizations of a [`GainTable`] under one law
/// (`simulate_many` starts one per rayon chunk of its trials). Its
/// buffers serve every trial of the run, so the trials allocate
/// nothing, and it tallies the kernel's counters and the law's draws
/// locally and adds each total once, when dropped: a trial takes no
/// lock and touches no shared counter.
pub(crate) struct Trials<'t, 'a, L: FadingLaw> {
    table: &'t GainTable<'a>,
    law: &'t L,
    scratch: Scratch,
}

impl<L: FadingLaw> Trials<'_, '_, L> {
    /// Runs one realization, reporting whether each receiver
    /// succeeded, in schedule order: on the keyed path where the law
    /// and the generator allow it, otherwise in order.
    pub(crate) fn verdicts<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        each: impl FnMut(LinkId, bool),
    ) {
        let (table, law, scratch) = (self.table, self.law, &mut self.scratch);
        let k = table.ids.len();
        let certify = law.mean_multiplier().is_some();
        let state = law.begin(k, rng);
        match &table.gains {
            Some(gains) => {
                let mut rows = TableRows::new(k, gains, certify);
                realize(table, &mut rows, law, &state, rng, scratch, each);
            }
            None => {
                let mut rows = StreamRows::new(table.problem, table.ids, certify);
                realize(table, &mut rows, law, &state, rng, scratch, each);
            }
        }
    }

    /// Runs one realization in order, reporting each receiver's
    /// realized SINR in schedule order.
    pub(crate) fn sinrs<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        mut each: impl FnMut(LinkId, f64),
    ) {
        let (table, law, tally) = (self.table, self.law, &mut self.scratch.tally);
        let k = table.ids.len();
        let state = law.begin(k, rng);
        let each = |j, o: SinrOutcome| each(j, o.sinr);
        match &table.gains {
            Some(gains) => {
                let mut rows = TableRows::new(k, gains, false);
                in_order(table, &mut rows, law, &state, rng, tally, each);
            }
            None => {
                let mut rows = StreamRows::new(table.problem, table.ids, false);
                in_order(table, &mut rows, law, &state, rng, tally, each);
            }
        }
    }
}

impl<L: FadingLaw> Drop for Trials<'_, '_, L> {
    fn drop(&mut self) {
        let [exact, signal, prefix, blocks] = counters();
        let tally = self.scratch.tally;
        blocks.add(tally.keystream_blocks);
        self.law.count_draws(tally.draws);
        exact.add(tally.exact_rows);
        signal.add(tally.signal_certified);
        prefix.add(tally.prefix_certified);
    }
}

/// What a [`Trials`] run adds to the kernel's counters and the law's
/// draw count when it ends.
#[derive(Clone, Copy, Default)]
struct Tally {
    exact_rows: u64,
    signal_certified: u64,
    prefix_certified: u64,
    keystream_blocks: u64,
    draws: u64,
}

/// Uniforms per ChaCha block: 16 words, two per `next_u64`. A fresh
/// `StdRng`'s realization starts on a block boundary, so positions
/// `8b .. 8b + 8` share block `b`, and reading one of them computes
/// all eight.
const BLOCK_DRAWS: usize = 8;

/// Each tabulated row's interferers, grouped by the keystream block
/// their uniforms share, heaviest group first: stage `s` of a row draws
/// its `s`-th heaviest block (`docs/THEORY.md` §7.2), and the last, the
/// lightest, completes the row. Computed once per table and shared by
/// every trial.
///
/// Blocks, not single interferers: a scattered uniform costs a whole
/// block, and a block's eight uniforms cost no more than one, so a
/// block's mean sum is what one read buys.
struct HeavyFirst {
    /// Each stage's block (its first position `/ BLOCK_DRAWS`); row `j`'s
    /// stages are `at[j]..at[j + 1]`.
    blocks: Vec<u32>,
    /// Each stage's [`sum_up`] of the means it leaves undrawn.
    undrawn: Vec<f64>,
    at: Vec<u32>,
}

impl HeavyFirst {
    /// The stages of the `k×k` row-major `gains`.
    fn new(k: usize, gains: &[Exponential]) -> Self {
        let blocks_of = |j: usize| {
            let interferers = interferer_positions(k, j);
            interferers.start / BLOCK_DRAWS..interferers.end.div_ceil(BLOCK_DRAWS)
        };
        let stages: usize = (0..k).map(|j| blocks_of(j).len()).sum();
        let mut heavy = Self {
            blocks: Vec::with_capacity(stages),
            undrawn: Vec::with_capacity(stages),
            at: Vec::with_capacity(k + 1),
        };
        heavy.at.push(0);
        let mut row: Vec<(u32, f64)> = Vec::new();
        for (j, means) in gains.chunks(k.max(1)).enumerate() {
            // The naive sum of block `g`'s interferer means.
            let weight = |g: usize| {
                block(k, j, g)
                    .map(|p| means[interferer(k, j, p)].mean())
                    .fold(0.0, |a, b| a + b)
            };
            row.clear();
            row.extend(blocks_of(j).map(|g| (g as u32, weight(g))));
            row.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            // Each stage's undrawn sum: the lighter blocks' weights added
            // lightest first, a naive sum of their means in one more
            // order.
            let first = heavy.blocks.len();
            let mut rest = 0.0;
            for &(g, w) in row.iter().rev() {
                heavy.blocks.push(g);
                heavy.undrawn.push(rest * (1.0 + CERT_SLACK));
                rest += w;
            }
            heavy.blocks[first..].reverse();
            heavy.undrawn[first..].reverse();
            heavy.at.push(heavy.blocks.len() as u32);
        }
        heavy
    }
}

/// The positions of receiver `j`'s interferers in keystream block `g`.
#[inline]
fn block(k: usize, j: usize, g: usize) -> Range<usize> {
    let interferers = interferer_positions(k, j);
    (g * BLOCK_DRAWS).max(interferers.start)..((g + 1) * BLOCK_DRAWS).min(interferers.end)
}

/// Rows read out of a tabulated `|S|×|S|` slice; the bounds are the
/// exact means, each row's interferer sum is the table's, and with
/// `heavy` its interferers are drawn heaviest block first.
struct TableRows<'t> {
    k: usize,
    gains: &'t [Exponential],
    sums: &'t [f64],
    heavy: Option<&'t HeavyFirst>,
}

impl<'t> TableRows<'t> {
    /// The rows of a table's `(gains, sums, stages)`; `heavy` (a law
    /// with a multiplier) draws them in the [`HeavyFirst`] stages,
    /// otherwise whole.
    fn new(k: usize, table: &'t (Vec<Exponential>, Vec<f64>, HeavyFirst), heavy: bool) -> Self {
        let (gains, sums, stages) = table;
        Self {
            k,
            gains,
            sums,
            heavy: heavy.then_some(stages),
        }
    }
}

impl GainRows for TableRows<'_> {
    #[inline]
    fn row(&mut self, j: usize) -> &[Exponential] {
        &self.gains[j * self.k..(j + 1) * self.k]
    }

    #[inline]
    fn signal(&self, j: usize) -> Exponential {
        self.gains[j * self.k + j]
    }

    #[inline]
    fn mean_bound(&self, j: usize, i: usize) -> f64 {
        self.gains[j * self.k + i].mean()
    }

    #[inline]
    fn interference_means(&self, j: usize) -> impl Iterator<Item = f64> + '_ {
        std::iter::once(self.sums[j])
    }

    #[inline]
    fn stage(&self, j: usize, s: usize) -> Option<(Range<usize>, f64)> {
        let Some(HeavyFirst {
            blocks,
            undrawn,
            at,
        }) = self.heavy
        else {
            return whole_row(self.k, j, s);
        };
        let stage = at[j] as usize + s;
        (stage < at[j + 1] as usize)
            .then(|| (block(self.k, j, blocks[stage] as usize), undrawn[stage]))
    }
}

/// Rows computed per receiver: bounds from geometry, and one scratch
/// row of exact means filled only for a row the bound leaves open. A
/// realization allocates `|S|` entries (and, on the sparse store, one
/// id-to-position map), not `|S|²`. Each row is one whole-row stage.
struct StreamRows<'a> {
    problem: &'a Problem,
    ids: &'a [LinkId],
    /// Each scheduled sender's position and its [`power_bound`].
    senders: Vec<(Point2, f64)>,
    /// Each receiver's [`product_bounds`]; empty when the realization
    /// certifies no receiver from its signal alone.
    products: Vec<f64>,
    row: Vec<Exponential>,
}

impl<'a> StreamRows<'a> {
    /// Rows of `ids`; `certify` computes the [`product_bounds`].
    fn new(problem: &'a Problem, ids: &'a [LinkId], certify: bool) -> Self {
        let links = problem.links();
        let senders: Vec<(Point2, f64)> = ids
            .iter()
            .map(|&tx| {
                let power = power_bound(problem.params(), problem.power_scale(tx));
                (links.link(tx).sender, power)
            })
            .collect();
        let products = if certify {
            product_bounds(problem, ids, &senders)
        } else {
            Vec::new()
        };
        Self {
            problem,
            ids,
            senders,
            products,
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

    #[inline]
    fn signal(&self, j: usize) -> Exponential {
        exact_mean(self.problem, self.ids, j, j)
    }

    #[inline]
    fn mean_bound(&self, j: usize, i: usize) -> f64 {
        let rx = self.problem.links().link(self.ids[j]).receiver;
        let (tx, power) = self.senders[i];
        mean_bound(self.problem.params(), power, tx.distance(&rx))
    }

    /// The slot's product bound, then the sum of the geometric
    /// [`mean_bound`](GainRows::mean_bound)s.
    #[inline]
    fn interference_means(&self, j: usize) -> impl Iterator<Item = f64> + '_ {
        let geometric = move || {
            let params = self.problem.params();
            let rx = self.problem.links().link(self.ids[j]).receiver;
            let bounds = self.senders.iter();
            sum_up(interferers(
                j,
                bounds.map(|(tx, power)| mean_bound(params, *power, tx.distance(&rx))),
            ))
        };
        std::iter::once(self.products[j]).chain(std::iter::once_with(geometric))
    }

    #[inline]
    fn stage(&self, j: usize, s: usize) -> Option<(Range<usize>, f64)> {
        whole_row(self.ids.len(), j, s)
    }
}

/// `row` without its entry `j`: receiver `j`'s interferers.
#[inline]
fn interferers(j: usize, row: impl Iterator<Item = f64>) -> impl Iterator<Item = f64> {
    row.enumerate()
        .filter(move |&(i, _)| i != j)
        .map(|(_, x)| x)
}

/// An upper bound on the exact sum of the non-negative `terms`: their
/// naive sum times `1 + CERT_SLACK`, which covers the `k·u` a naive sum
/// of `k` terms can lose (see [`CERT_SLACK`]). `+∞` stays `+∞`.
#[inline]
fn sum_up(terms: impl Iterator<Item = f64>) -> f64 {
    terms.fold(0.0, |a, b| a + b) * (1.0 + CERT_SLACK)
}

/// Largest path-loss exponent the [`product_bounds`] accept: `pow_alpha`
/// turns a `u` error in the distance ratio into `α·u`, and the bounds'
/// slack covers `α ≤ 2^10` with room to spare.
const TAME_ALPHA: f64 = 1024.0;

/// `2^−250`: every interference factor whose computation underflows is
/// below it (under the [`product_bounds`] guards, `γ_th·scale_i/scale_j
/// ≤ 2^768`, so an underflowed `x_i` is below `2^−253`), and the bound
/// adds it once per interferer.
const FACTOR_FLOOR: f64 = f64::from_bits((1023 - 250) << 52);

/// `2^−500`: a signal mean at or above it was computed with relative
/// error only (every intermediate of `P·d^{−α}·scale` is normal), and a
/// streamed interferer mean that went subnormal on the way is off by
/// far less than it, so the bound adds it once per interferer.
const MEAN_FLOOR: f64 = f64::from_bits((1023 - 500) << 52);

/// Each scheduled receiver's bound `M̄_j ≥ Σ_{i≠j} m_ij` on its exact
/// interferer means, from Thm 3.1's product form (`docs/THEORY.md` §7.1).
///
/// With `x_i = γ_th·m_ij/m_jj`, `Π_i (1 + x_i) = e^{F_j}` for the
/// factor sum `F_j = Σ_i f_ij`, so `Σ_i m_ij ≤ m_jj·(e^{F_j} − 1)/γ_th`.
/// One walk of the scheduled senders' stored rows (CSR on the sparse
/// store, the matrix row on the dense one) gives `F̄_j`: the stored
/// factors, plus [`cut_bound`](fading_core::InterferenceBackend::cut_bound)
/// for each pair the store omits and [`FACTOR_FLOOR`] per interferer,
/// rounded up by `1 + CERT_SLACK`. The result is rounded up again and
/// gains [`MEAN_FLOOR`] per interferer. `O(Σ degree + |S|)` per slot.
/// `+∞` (no receiver certified) when `γ_th` or a scheduled sender's `P`
/// or scale is outside [`TAME`] or `α > TAME_ALPHA`, and for a receiver
/// whose signal mean is below [`MEAN_FLOOR`].
fn product_bounds(problem: &Problem, ids: &[LinkId], senders: &[(Point2, f64)]) -> Vec<f64> {
    let params = problem.params();
    let k = ids.len();
    let tame = TAME.contains(&params.gamma_th)
        && params.alpha <= TAME_ALPHA
        && senders.iter().all(|&(_, power)| power.is_finite());
    if !tame {
        return vec![f64::INFINITY; k];
    }
    let factors = problem.factors();
    let mut sums = vec![0.0; k];
    let mut stored = vec![0usize; k];
    match factors.as_sparse() {
        Some(sparse) => {
            let mut at = vec![u32::MAX; problem.len()];
            for (j, rx) in ids.iter().enumerate() {
                at[rx.index()] = j as u32;
            }
            for &tx in ids {
                let (receivers, row) = sparse.row_slices(tx);
                for (&rx, &f) in receivers.iter().zip(row) {
                    let j = at[rx as usize] as usize;
                    if j < k {
                        sums[j] += f;
                        stored[j] += 1;
                    }
                }
            }
        }
        None => {
            for &tx in ids {
                let row = problem.dense_row(tx).expect("a dense store");
                for (j, rx) in ids.iter().enumerate().filter(|&(_, &rx)| rx != tx) {
                    sums[j] += row[rx.index()];
                    stored[j] += 1;
                }
            }
        }
    }
    let others = k.saturating_sub(1) as f64;
    (0..k)
        .map(|j| {
            let omitted = (k - 1 - stored[j]) as f64 * factors.cut_bound(ids[j]);
            let f = (sums[j] + omitted + others * FACTOR_FLOOR) * (1.0 + CERT_SLACK);
            let signal = exact_mean(problem, ids, j, j).mean();
            if signal < MEAN_FLOOR {
                return f64::INFINITY;
            }
            signal * f.exp_m1() / params.gamma_th * (1.0 + CERT_SLACK) + others * MEAN_FLOOR
        })
        .collect()
}

/// Receiver `ids[j]`'s mean gains `P·d_ij^{−α}·scale_i` from every
/// scheduled sender `i`, in schedule order, as the exponentials the
/// realization draws from (the diagonal uses the link length `d_jj`).
fn gain_row<'a>(
    problem: &'a Problem,
    ids: &'a [LinkId],
    j: usize,
) -> impl Iterator<Item = Exponential> + 'a {
    (0..ids.len()).map(move |i| exact_mean(problem, ids, j, i))
}

/// Entry `i` of [`gain_row`]: sender `ids[i]`'s mean gain at receiver
/// `ids[j]`.
#[inline]
fn exact_mean(problem: &Problem, ids: &[LinkId], j: usize, i: usize) -> Exponential {
    let links = problem.links();
    let (tx, rx) = (ids[i], ids[j]);
    let d = if i == j {
        links.length(rx)
    } else {
        links.sender_receiver_distance(tx, rx)
    };
    let scale = problem.power_scale(tx);
    debug_assert!(scale > 0.0, "power scale must be positive");
    Exponential::with_mean(problem.params().mean_gain(d) * scale)
}

/// Relative slack on the interference bound: `2^−20`.
///
/// A row is certified when `signal / (N₀ + B̂·(1 + CERT_SLACK)) ≥ γ_th`,
/// where `B̂` is the naive sum of the `k−1` bound terms `b_i`, in any
/// order and grouping (a prefix's drawn terms, then its undrawn
/// allowance). Each `b_i` is at least the exact kernel's term `t_i`
/// (see [`mean_bound`], [`neg_ln_bound`] and [`worst_interference`];
/// `fl(x·y)` is monotone), so the slack covers the two sums' rounding
/// only. With `u = 2^−53`, all terms non-negative and
/// `T = Σ t_i ≤ Σ b_i`:
///
/// * a naive sum of `k−1` terms, in any order, makes `k−2` additions
///   and loses at most a factor `(1−u)^{k−2}`: `B̂ ≥ (1 − k·u)·T`;
/// * the exact kernel's Neumaier sum gains at most
///   `T̂ ≤ (1 + 2u + O(k·u²))·T` (Higham, *Accuracy and Stability of
///   Numerical Algorithms*, §4.3);
/// * the product `B̂·(1 + CERT_SLACK)` rounds down by at most `(1−u)`.
///
/// So `fl(B̂·(1 + CERT_SLACK)) ≥ T̂` whenever
/// `(1 + CERT_SLACK)(1 − u)(1 − k·u) ≥ 1 + 2u + O(k·u²)`, i.e. whenever
/// `CERT_SLACK ≳ (k + 3)·u`. Schedule ids are distinct `u32`s, so
/// `k ≤ 2^32` and `(k + 3)·u` is at most about `2^−21`, half of
/// `CERT_SLACK`; the other half covers the `O(k·u²)`. (A subnormal `B̂`
/// is an exact sum, and then so is `T̂ ≤ B̂`.) A fixed `10^−12`, like
/// the cut tolerance of the interference store, would stop covering
/// near `k ≈ 9000`. `N₀ + ·` and `signal / ·` are monotone in the
/// denominator, so the bound's SINR never exceeds the exact one. The
/// slack costs nothing in practice: the chord bound is already a few
/// percent above the draws it bounds.
const CERT_SLACK: f64 = 1.0 / (1u64 << 20) as f64;

/// Whether the interference bound `bound` certifies a success (see
/// [`CERT_SLACK`]); `false`, also on NaN, leaves the row open.
#[inline]
fn certified(params: &ChannelParams, signal: f64, bound: f64) -> bool {
    signal / (params.noise + bound * (1.0 + CERT_SLACK)) >= params.gamma_th
}

/// `ln 2` rounded up: `LN_2·(1 + 2^−50)` rounds to `LN_2 + 6 ulps`, and
/// `LN_2` sits 0.21 ulp below `ln 2`, so this is `ln 2·(1 + 8.3u)`
/// (`u = 2^−53`).
const LN_2_UP: f64 = std::f64::consts::LN_2 * (1.0 + 4.0 * f64::EPSILON);

/// An upper bound on `-x.ln()` for a normal `x > 0`, with no logarithm.
///
/// Write `x = 2^e·m`, `m ∈ [1, 2)`. The concave `ln` lies above its
/// chord, `ln m ≥ (m − 1)·ln 2`, so `−ln x ≤ (1 − e − m)·ln 2`, with
/// equality at powers of two. Two roundings against [`LN_2_UP`] leave
/// the result at least `(1 + 6.3u)·(−ln x)`, above libm's `ln`, which
/// is within one ulp (`docs/THEORY.md` §7). The kernel's `1 − U`
/// (`U = n·2^−53`) is always normal.
#[inline]
fn neg_ln_bound(x: f64) -> f64 {
    const MANTISSA: u64 = (1 << 52) - 1;
    let bits = x.to_bits();
    let e = (bits >> 52) as i64 - 1023;
    let m = f64::from_bits((bits & MANTISSA) | 1f64.to_bits());
    ((1 - e) as f64 - m) * LN_2_UP
}

/// Magnitudes (of `P`, a power scale and `d^α`) inside which every
/// product and quotient of the mean computations stays normal, so each
/// rounding is relative: `[2^−256, 2^256]`.
const TAME: std::ops::RangeInclusive<f64> =
    f64::from_bits((1023 - 256) << 52)..=f64::from_bits((1023 + 256) << 52);

/// `P·scale·(1 + 2^−48)`, the numerator of [`mean_bound`], computed
/// once per scheduled sender; `+∞` (no row it reaches is certified)
/// when `P` or `scale` is outside [`TAME`].
fn power_bound(params: &ChannelParams, scale: f64) -> f64 {
    if TAME.contains(&params.power) && TAME.contains(&scale) {
        params.power * scale * (1.0 + 16.0 * f64::EPSILON)
    } else {
        f64::INFINITY
    }
}

/// An upper bound on the exact mean gain `mean_gain(d)·scale` from
/// `power = `[`power_bound`]`(params, scale)`, with no `powf` at the
/// integer exponents.
///
/// The exact mean is within `4.01u` (`u = 2^−53`) of
/// `P·scale·d^{−α}`, and this quotient, before the `2^−48 = 32u`
/// inflation of [`power_bound`], within `8.02u` (`pow_alpha` compounds
/// up to five roundings at `α = 6`), so the inflated bound is larger
/// (`docs/THEORY.md` §7). Outside [`TAME`], `+∞` leaves the row to the
/// exact sum.
#[inline]
fn mean_bound(params: &ChannelParams, power: f64, d: f64) -> f64 {
    let path_loss = params.pow_alpha(d);
    if TAME.contains(&path_loss) {
        power / path_loss
    } else {
        f64::INFINITY
    }
}

/// `53·ln 2` rounded up: at least `(1 + 7.3u)·53·ln 2`. The 53-bit
/// uniform gives `1 − U ≥ 2^−53`, so libm's `−ln(1 − U)` (within one
/// ulp) and an interferer's term `fl(mean·(−ln(1 − U)))` never exceed
/// `E_MAX_UP` times the mean.
const E_MAX_UP: f64 = 53.0 * LN_2_UP;

/// The most interference `others` interferers can deliver when each
/// draws at most `c` times its mean and their means sum to at most
/// `means`: every uniform at its largest, plus `f64::MIN_POSITIVE` per
/// interferer for a term that rounds in the subnormal range.
#[inline]
fn worst_interference(c: f64, means: f64, others: usize) -> f64 {
    E_MAX_UP * c * means + others as f64 * f64::MIN_POSITIVE
}

/// Stream positions per chunk of rows (16 Ki, or one row if a row is
/// longer): a chunk's signals are read in one batch, and its open rows'
/// kept uniforms take at most 128 KiB.
const CHUNK_WORDS: usize = 1 << 14;

/// The uniform `rng.gen::<f64>()` makes of the word `word`: its top 53
/// bits times `2^−53` (the `Standard` distribution).
#[inline]
fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The stream positions of receiver `j`'s interferers in a `k`-link
/// realization: its row starts with the signal at `j·k`, then one
/// uniform per interferer in schedule order, skipping `j`.
#[inline]
fn interferer_positions(k: usize, j: usize) -> Range<usize> {
    j * k + 1..(j + 1) * k
}

/// The sender whose uniform is at position `p` of receiver `j`'s
/// [`interferer_positions`].
#[inline]
fn interferer(k: usize, j: usize, p: usize) -> usize {
    let q = p - (j * k + 1);
    q + usize::from(q >= j)
}

/// The kernel's counters: rows summed exactly, certified from the
/// signal, certified by a partial prefix, and keystream blocks computed.
/// A table resolves them before it allocates anything: a registration
/// is a long-lived allocation, and one placed above a table or a
/// realization's buffers kept the heap from shrinking (+0.6 MB peak RSS
/// on the paper-figure runs).
fn counters() -> [&'static fading_obs::Counter; 4] {
    [
        fading_obs::counter!("sim.slot.exact_rows"),
        fading_obs::counter!("sim.slot.signal_certified"),
        fading_obs::counter!("sim.slot.prefix_certified"),
        fading_obs::counter!("sim.slot.keystream_blocks"),
    ]
}

/// The buffers of [`keyed`], reused across a [`Trials`] run, and the
/// counts the run has yet to add.
#[derive(Default)]
struct Scratch {
    verdicts: Vec<bool>,
    open: Vec<OpenRow>,
    runs: Vec<Range<u64>>,
    words: Vec<u64>,
    kept: Vec<u64>,
    tally: Tally,
}

/// A receiver whose verdict the prefixes drawn so far leave open.
struct OpenRow {
    j: usize,
    /// Where its drawn uniforms are kept: `kept[slot·(k − 1)..]`, at
    /// their offsets in the row.
    slot: usize,
    signal: f64,
    /// The naive sum of the drawn interferers' bound terms.
    drawn: f64,
    /// How many interferers that sum covers.
    count: usize,
}

/// The realization kernel for verdicts: hand `each` whether every
/// scheduled receiver succeeded, in schedule order, from a realization
/// of `law` begun at `state`. It takes the [`keyed`] path, and the
/// [`in_order`] loop where the law has no
/// [`exponential_mean`](FadingLaw::exponential_mean) or `rng` no random
/// access. The counts go to `scratch`'s tally.
fn realize<L: FadingLaw, R: Rng + ?Sized>(
    table: &GainTable,
    rows: &mut impl GainRows,
    law: &L,
    state: &L::Realization,
    rng: &mut R,
    scratch: &mut Scratch,
    mut each: impl FnMut(LinkId, bool),
) {
    let exponential = !table.ids.is_empty() && law.exponential_mean(state, 1.0, 0).is_some();
    if !(exponential && keyed(table, rows, law, state, rng, scratch, &mut each)) {
        in_order(table, rows, law, state, rng, &mut scratch.tally, |j, o| {
            each(j, o.success)
        });
    }
}

/// Every receiver's realized SINR, drawn and summed in stream order.
fn in_order<L: FadingLaw, R: Rng + ?Sized>(
    table: &GainTable,
    rows: &mut impl GainRows,
    law: &L,
    state: &L::Realization,
    rng: &mut R,
    tally: &mut Tally,
    mut each: impl FnMut(LinkId, SinrOutcome),
) {
    let (params, ids) = (table.problem.params(), table.ids);
    let k = ids.len();
    for (j, &rx) in ids.iter().enumerate() {
        let row = rows.row(j);
        let signal = law.draw(state, &row[j], j * k + j, rng);
        let interference = (0..k)
            .filter(|&i| i != j)
            .map(|i| law.draw(state, &row[i], i * k + j, rng));
        each(rx, sinr_of(params, signal, interference));
    }
    tally.draws += (k * k) as u64;
}

/// Sets `words` to the uniforms at the positions of `runs`, run after
/// run, counted from where the realization began, and returns the
/// keystream blocks that took; `None`, reading nothing, on a generator
/// without random access.
fn peek<R: Rng + ?Sized>(rng: &R, runs: &[Range<u64>], words: &mut Vec<u64>) -> Option<u64> {
    words.clear();
    words.resize(
        runs.iter().map(|run| (run.end - run.start) as usize).sum(),
        0,
    );
    rng.peek_u64(runs, words).map(|blocks| blocks as u64)
}

/// The keyed path for a law with an
/// [`exponential_mean`](FadingLaw::exponential_mean), one chunk of rows
/// at a time, reading uniforms by stream position:
///
/// 1. every row's signal in one batch, and with a
///    [`mean_multiplier`](FadingLaw::mean_multiplier) the empty prefix's
///    certificate (the [`worst_interference`] of each of the row's
///    [`interference_means`](GainRows::interference_means));
/// 2. each [`stage`](GainRows::stage) of the rows still open in one
///    batch, and its prefix's certificate, until a row's last stage
///    completes it;
/// 3. each row still open: the exact sum of the uniforms its stages
///    kept.
///
/// Then it seeks `rng` past the realization's `k²` words. Returns
/// `false`, having read and moved nothing, when the first batch finds
/// no random access.
fn keyed<L: FadingLaw, R: Rng + ?Sized>(
    table: &GainTable,
    rows: &mut impl GainRows,
    law: &L,
    state: &L::Realization,
    rng: &mut R,
    scratch: &mut Scratch,
    each: &mut impl FnMut(LinkId, bool),
) -> bool {
    let (params, ids) = (table.problem.params(), table.ids);
    let k = ids.len();
    let others = k - 1;
    let multiplier = law.mean_multiplier();
    // The bound term of the draw of pair `pair` with mean bound `mean`
    // off the word `word`.
    let term = |mean: f64, pair: usize, word: u64| {
        let mean = law.exponential_mean(state, mean, pair);
        mean.unwrap_or(f64::INFINITY) * neg_ln_bound(1.0 - unit_f64(word))
    };
    let chunk = (CHUNK_WORDS / k).clamp(1, k);
    let Scratch {
        verdicts,
        open,
        runs,
        words,
        kept,
        tally,
    } = scratch;
    for lo in (0..k).step_by(chunk) {
        let hi = (lo + chunk).min(k);
        runs.clear();
        runs.extend((lo..hi).map(|j| (j * k) as u64..(j * k + 1) as u64));
        let Some(blocks) = peek(rng, runs, words) else {
            assert_eq!(lo, 0, "random access lost mid-realization");
            return false;
        };
        tally.keystream_blocks += blocks;
        verdicts.clear();
        open.clear();
        for (j, &word) in (lo..hi).zip(words.iter()) {
            let mean = law.exponential_mean(state, rows.signal(j).mean(), j * k + j);
            let signal = Exponential::with_mean(mean.expect("an exponential law"))
                .from_uniform(unit_f64(word));
            verdicts.push(true);
            let alone = multiplier.is_some_and(|c| {
                let worst = |means| worst_interference(c, means, others);
                rows.interference_means(j)
                    .any(|m| certified(params, signal, worst(m)))
            });
            if alone {
                tally.signal_certified += 1;
                tally.draws += 1;
            } else {
                open.push(OpenRow {
                    j,
                    slot: open.len(),
                    signal,
                    drawn: 0.0,
                    count: 0,
                });
            }
        }
        kept.resize(open.len() * others, 0);
        for s in 0.. {
            runs.clear();
            for row in open.iter() {
                if let Some((at, _)) = rows.stage(row.j, s) {
                    runs.push(at.start as u64..at.end as u64);
                }
            }
            if runs.is_empty() {
                break;
            }
            tally.keystream_blocks += peek(rng, runs, words).expect("random access");
            let mut read = &words[..];
            open.retain_mut(|row| {
                let j = row.j;
                let Some((at, undrawn)) = rows.stage(j, s) else {
                    return true;
                };
                let (drawn, rest) = read.split_at(at.len());
                read = rest;
                let first = at.start - (j * k + 1);
                kept[row.slot * others + first..][..at.len()].copy_from_slice(drawn);
                row.count += at.len();
                let mut sum = row.drawn;
                for (p, &word) in at.zip(drawn) {
                    let i = interferer(k, j, p);
                    sum += term(rows.mean_bound(j, i), i * k + j, word);
                }
                row.drawn = sum;
                let rest = multiplier.map_or(0.0, |c| worst_interference(c, undrawn, others));
                let decided = certified(params, row.signal, sum + rest);
                if decided {
                    tally.prefix_certified += u64::from(row.count < others);
                    tally.draws += 1 + row.count as u64;
                }
                !decided
            });
        }
        // The last stage completed every row still open.
        for row in open.iter() {
            let j = row.j;
            tally.draws += k as u64;
            tally.exact_rows += 1;
            let words = &kept[row.slot * others..][..others];
            let gains = rows.row(j);
            let interference = (0..k).filter(|&i| i != j).zip(words).map(|(i, &word)| {
                let mean = law.exponential_mean(state, gains[i].mean(), i * k + j);
                Exponential::with_mean(mean.expect("an exponential law"))
                    .from_uniform(unit_f64(word))
            });
            verdicts[j - lo] = sinr_of(params, row.signal, interference).success;
        }
        for (j, &verdict) in (lo..hi).zip(verdicts.iter()) {
            each(ids[j], verdict);
        }
    }
    rng.skip_u64((k * k) as u64);
    true
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
        let table = GainTable::with_cap(problem, schedule, max_entries);
        table.trials(problem.channel()).verdicts(rng, |j, success| {
            if success {
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
                    .trials(p.channel())
                    .sinrs(&mut seeded_rng(rng_seed), |j, sinr| tabulated.push((j, sinr)));
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

    /// `2^e` for a normal exponent.
    fn pow2(e: i64) -> f64 {
        f64::from_bits(((1023 + e) as u64) << 52)
    }

    #[test]
    fn ln_2_up_sits_six_ulps_above_ln_2() {
        assert_eq!(LN_2_UP.to_bits() - std::f64::consts::LN_2.to_bits(), 6);
    }

    #[test]
    fn chord_bound_dominates_ln_at_powers_of_two_and_their_neighbours() {
        let mut xs = vec![1.0, pow2(-53)];
        for e in -1022..=0 {
            let x = pow2(e);
            xs.extend([x, x.next_down(), x.next_up()]);
        }
        for x in xs.into_iter().filter(|x| x.is_normal()) {
            assert!(neg_ln_bound(x) >= -x.ln(), "x = {x:e}");
        }
        assert_eq!(neg_ln_bound(1.0), 0.0);
    }

    #[test]
    fn chord_bound_dominates_ln_on_the_uniform_grid() {
        // Every `1 − U` the kernel bounds is `(2^53 − n)·2^−53` for an
        // integer `n`: sweep both ends of the grid and a random sample.
        let grid = |n: u64| 1.0 - n as f64 * pow2(-53);
        let mut rng = seeded_rng(9);
        let ends = (0..4096).flat_map(|n| [grid(n), grid((1 << 53) - 1 - n)]);
        let sample = (0..1 << 20).map(|_| 1.0 - rng.gen::<f64>());
        for x in ends.chain(sample) {
            let bound = neg_ln_bound(x);
            assert!(bound >= -x.ln(), "x = {x:e}");
            // The chord stays within ln 2 − 1 − ln ln 2 ≈ 0.0597 of the
            // curve (at m = 1/ln 2): a bound, not a blanket.
            assert!(bound <= -x.ln() + 0.0598, "x = {x:e}");
        }
    }

    #[test]
    fn streamed_mean_bound_dominates_the_exact_mean() {
        let mut rng = seeded_rng(11);
        for alpha in [2.5, 3.0, 3.5, 4.0, 4.5, 6.0] {
            for power in [1.0, 0.37, 12.5] {
                let params = ChannelParams::new(alpha, 1.0, power, 0.0);
                for _ in 0..20_000 {
                    // Log-uniform distances in [10^−3, 10^4] and scales
                    // in [10^−3, 10^3].
                    let d = 10f64.powf(rng.gen_range(-3.0..4.0));
                    let scale = 10f64.powf(rng.gen_range(-3.0..3.0));
                    let exact = params.mean_gain(d) * scale;
                    let bound = mean_bound(&params, power_bound(&params, scale), d);
                    assert!(bound >= exact, "α {alpha} P {power} d {d:e} s {scale:e}");
                    assert!(
                        bound <= exact * (1.0 + 1e-13),
                        "loose: {bound:e} vs {exact:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn mean_bound_leaves_extreme_magnitudes_open() {
        let params = ChannelParams::with_alpha(4.0);
        assert_eq!(power_bound(&params, pow2(300)), f64::INFINITY);
        assert_eq!(power_bound(&params, pow2(-300)), f64::INFINITY);
        let power = power_bound(&params, 1.0);
        // d^4 = 2^280 and 2^−280: outside the normal-range window.
        assert_eq!(mean_bound(&params, power, pow2(70)), f64::INFINITY);
        assert_eq!(mean_bound(&params, power, pow2(-70)), f64::INFINITY);
        assert!(mean_bound(&params, power, pow2(60)).is_finite());
    }

    #[test]
    fn slack_covers_the_naive_sum_of_a_long_row() {
        // The worst row for the naive bound sum: one unit term, then `k`
        // terms of half an ulp of one. Each rounds away in the naive sum
        // (ties to even); the exact kernel's Neumaier sum keeps them all.
        // With bound terms equal to the exact ones, only the slack can
        // keep the certificate from passing a failing receiver.
        let params = ChannelParams::paper_defaults();
        for k in [1usize, 16, 4096, 1 << 16, 1 << 20] {
            let terms = || std::iter::once(1.0).chain(std::iter::repeat_n(pow2(-53), k));
            let naive: f64 = terms().sum();
            assert_eq!(naive, 1.0);
            let exact = fading_math::KahanSum::sum_iter(terms());
            assert_eq!(exact, 1.0 + k as f64 * pow2(-53));
            // The strongest signal the exact test still fails.
            let signal = exact.next_down();
            assert!(!sinr_of(&params, signal, terms()).success);
            assert!(!certified(&params, signal, naive), "k = {k}");
        }
        // A signal clearing the slack is certified.
        assert!(certified(&params, 1.0 + 2.0 * CERT_SLACK, 1.0));
    }

    #[test]
    fn signal_certificate_covers_the_naive_sum_of_a_long_row() {
        // The interferer means of `slack_covers_the_naive_sum_of_a_long_row`
        // (a unit mean, then `k` half-ulp means the naive sum rounds
        // away), every one drawn at the largest uniform.
        let params = ChannelParams::paper_defaults();
        let most = Exponential::with_mean(1.0).from_uniform(1.0 - pow2(-53));
        for k in [16usize, 4096, 1 << 16, 1 << 20] {
            let means = || std::iter::once(1.0).chain(std::iter::repeat_n(pow2(-53), k));
            let draws = means().map(|m| Exponential::with_mean(m).from_uniform(1.0 - pow2(-53)));
            let exact = fading_math::KahanSum::sum_iter(draws.clone());
            assert!(exact > most, "k = {k}: the half-ulp draws count");
            let signal = exact.next_down();
            assert!(!sinr_of(&params, signal, draws).success);
            let worst = worst_interference(1.0, sum_up(means()), k + 1);
            assert!(!certified(&params, signal, worst), "k = {k}");
        }
    }

    /// Replays `words` cyclically as `next_u64` draws, with random
    /// access to them unless `sequential`. Counts the draws and the
    /// seeks, which it overrides (one word per skipped draw), and
    /// records the positions it served by random access (from the
    /// start of the script).
    #[derive(Clone)]
    struct Script {
        words: Vec<u64>,
        at: usize,
        draws: usize,
        seeks: usize,
        sequential: bool,
        peeked: std::cell::RefCell<Vec<usize>>,
    }

    impl Script {
        fn new(words: Vec<u64>, sequential: bool) -> Self {
            Self {
                words,
                at: 0,
                draws: 0,
                seeks: 0,
                sequential,
                peeked: Default::default(),
            }
        }

        /// `(draws, seeks, position)`: a realization of a `k`-link slot
        /// on the keyed path leaves `(0, 1, k²)`, one in order
        /// `(k², 0, k²)`.
        fn moves(&self) -> (usize, usize, usize) {
            (self.draws, self.seeks, self.at)
        }
    }

    impl rand::RngCore for Script {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            let word = self.words[self.at % self.words.len()];
            self.at += 1;
            self.draws += 1;
            word
        }
        fn fill_bytes(&mut self, _: &mut [u8]) {
            unimplemented!("the kernel draws whole words")
        }
        fn skip_u64(&mut self, n: u64) {
            self.at += n as usize;
            self.seeks += 1;
        }
        fn peek_u64(&self, runs: &[Range<u64>], out: &mut [u64]) -> Option<usize> {
            if self.sequential {
                return None;
            }
            for (o, p) in out.iter_mut().zip(runs.iter().flat_map(Clone::clone)) {
                let at = self.at + p as usize;
                self.peeked.borrow_mut().push(at);
                *o = self.words[at % self.words.len()];
            }
            Some(0)
        }
    }

    /// The smallest 53-bit uniform numerator `n` that `passes`, for a
    /// test monotone in `n` that the largest one passes.
    fn smallest_passing(passes: impl Fn(u64) -> bool) -> u64 {
        let (mut lo, mut hi) = (0u64, (1 << 53) - 1);
        assert!(passes(hi), "certifiable at all");
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            (lo, hi) = if passes(mid) {
                (lo, mid)
            } else {
                (mid + 1, hi)
            };
        }
        assert!(lo > 0 && !passes(lo - 1));
        lo
    }

    /// Links 0 and 1 of a 40-link instance at path-loss exponent
    /// `alpha`, with power scales and noise `10^−9`, scheduled together.
    fn two_links(alpha: f64, seed: u64) -> (Problem, Schedule) {
        let p = Problem::builder(
            UniformGenerator::paper(40).generate(seed),
            ChannelParams::new(alpha, 1.0, 1.0, 1e-9),
        )
        .power_scales((0..40).map(|i| [0.5, 2.0, 1.0][i % 3]).collect())
        .build();
        (p, Schedule::from_ids([LinkId(0), LinkId(1)]))
    }

    #[test]
    fn a_signal_just_above_the_certificate_survives_the_largest_draw() {
        // Two links; each receiver draws its signal word, then its one
        // interferer `u64::MAX` (`1 − U = 2^−53`, a draw of 53·ln 2 times
        // its mean). The signal word is the smallest that receiver 0's
        // certificate accepts, from the table's row sum and from the
        // stream's product bound.
        for (alpha, seed) in [(3.0, 1), (4.0, 2), (2.5, 3)] {
            let (p, s) = two_links(alpha, seed);
            let table = GainTable::new(&p, &s);
            let stream = StreamRows::new(&p, s.ids(), true);
            let table_sum = table.gains.as_ref().unwrap().1[0];
            for (means, tabulated) in [(table_sum, true), (stream.products[0], false)] {
                let signal = |n: u64| stream.signal(0).from_uniform(n as f64 * pow2(-53));
                let worst = worst_interference(1.0, means, 1);
                let lo = smallest_passing(|n| certified(p.params(), signal(n), worst));
                let script = Script::new(vec![lo << 11, u64::MAX], false);
                let want = oracle_slot(&p, &s, &mut script.clone());
                let mut streamed = script.clone();
                assert_same(&simulate_slot(&p, &s, &mut streamed), &want);
                let mut tabled = script.clone();
                assert_same(&table_slot(&p, &s, MAX_TABLE_ENTRIES, &mut tabled), &want);
                assert!(want.successes.contains(&LinkId(0)), "α {alpha}");
                // The path whose certificate set the signal word never
                // reads receiver 0's interferer (word 1); both take the
                // keyed path: no draws, one seek past the slot.
                let certified = if tabulated { &tabled } else { &streamed };
                let peeked = certified.peeked.borrow();
                assert!(!peeked.contains(&1), "α {alpha}: read {peeked:?}");
                for rng in [&streamed, &tabled] {
                    assert_eq!(rng.moves(), (0, 1, 4));
                }
            }
        }
    }

    #[test]
    fn a_streamed_open_row_is_decided_by_its_whole_row_stage() {
        // Receiver 0's signal word is the largest that none of its
        // streamed bounds certifies, and its interferer draws zero
        // (`1 − U = 1`), so its one stage, the whole row, certifies it.
        // Receiver 1 draws the largest signal and a zero interferer.
        for (alpha, seed) in [(3.0, 1), (4.0, 2), (2.5, 3)] {
            let (p, s) = two_links(alpha, seed);
            let rows = StreamRows::new(&p, s.ids(), true);
            let signal = |n: u64| rows.signal(0).from_uniform(n as f64 * pow2(-53));
            let lo = smallest_passing(|n| {
                let worst = |means| worst_interference(1.0, means, 1);
                rows.interference_means(0)
                    .any(|m| certified(p.params(), signal(n), worst(m)))
            });
            let script = Script::new(vec![(lo - 1) << 11, 0, u64::MAX, 0], false);
            let want = oracle_slot(&p, &s, &mut script.clone());
            assert!(want.successes.contains(&LinkId(0)), "α {alpha}");
            let mut rng = script.clone();
            let table = GainTable::streaming(&p, &s);
            let mut trials = table.trials(p.channel());
            let mut successes = Vec::new();
            trials.verdicts(&mut rng, |j, success| {
                if success {
                    successes.push(j);
                }
            });
            assert_eq!(successes, want.successes, "α {alpha}");
            let tally = trials.scratch.tally;
            assert_eq!((tally.exact_rows, tally.prefix_certified), (0, 0));
            // Receiver 0's signal and interferer words, read once each.
            let peeked = rng.peeked.borrow();
            for q in [0, 1] {
                let reads = peeked.iter().filter(|&&at| at == q).count();
                assert_eq!(reads, 1, "α {alpha}: read {peeked:?}");
            }
            assert_eq!(rng.moves(), (0, 1, 4));
        }
    }

    /// ApproxDiversity's schedule of 300 paper links at path-loss
    /// exponent `alpha`: the fading-susceptible baseline, whose rows the
    /// signal alone rarely certifies.
    fn approx_diversity(alpha: f64, seed: u64) -> (Problem, Schedule) {
        use fading_core::{algo::ApproxDiversity, Scheduler};
        let p = Problem::paper(UniformGenerator::paper(300).generate(seed), alpha);
        let s = ApproxDiversity::new().schedule(&p);
        (p, s)
    }

    #[test]
    fn heavy_first_prefixes_keep_exact_verdicts_and_the_stream() {
        let prefix = fading_obs::counter!("sim.slot.prefix_certified");
        for (alpha, seed) in [(3.0, 1), (4.0, 2)] {
            let (p, s) = approx_diversity(alpha, seed);
            assert!(s.len() > 4 * BLOCK_DRAWS, "α {alpha}: {} links", s.len());
            let before = prefix.value();
            for rng_seed in 0..20 {
                let mut want = seeded_rng(rng_seed);
                let mut got = seeded_rng(rng_seed);
                for _ in 0..2 {
                    let oracle = oracle_slot(&p, &s, &mut want);
                    assert_same(&table_slot(&p, &s, MAX_TABLE_ENTRIES, &mut got), &oracle);
                }
                assert_eq!(want.gen::<u64>(), got.gen::<u64>(), "α {alpha}");
            }
            assert!(
                prefix.value() > before,
                "α {alpha}: no partial prefix certified"
            );
        }
    }

    #[test]
    fn largest_interferer_draws_keep_exact_heavy_first_verdicts() {
        // Every interferer draws `u64::MAX` (53·ln 2 times its mean, the
        // most the undrawn allowance covers), and the signal's
        // `−ln(1 − U)` sweeps 10^−3 … 36 in 5% steps, so each receiver's
        // certificate is tested just above and just below its edge at
        // every prefix. With random access and without.
        for (alpha, seed) in [(3.0, 3), (4.0, 4)] {
            let (p, s) = approx_diversity(alpha, seed);
            let k = s.len();
            for g in 0..=215 {
                let u = -(-1e-3 * 1.05f64.powi(g)).exp_m1();
                let mut words = vec![u64::MAX; k];
                words[0] = ((u * (1u64 << 53) as f64) as u64) << 11;
                for sequential in [false, true] {
                    let script = Script::new(words.clone(), sequential);
                    let mut want = script.clone();
                    let oracle = oracle_slot(&p, &s, &mut want);
                    let mut got = script.clone();
                    assert_same(&table_slot(&p, &s, MAX_TABLE_ENTRIES, &mut got), &oracle);
                    // Random access takes the keyed path, a sequential
                    // script the in-order loop.
                    let moves = if sequential {
                        (k * k, 0, k * k)
                    } else {
                        (0, 1, k * k)
                    };
                    assert_eq!(got.moves(), moves, "α {alpha} step {g}");
                    assert_eq!(want.at, k * k);
                    if sequential {
                        assert!(got.peeked.borrow().is_empty());
                    }
                }
            }
        }
    }

    #[test]
    fn heavy_first_stages_take_each_row_heaviest_block_first() {
        let (p, s) = approx_diversity(3.0, 5);
        let k = s.len();
        let table = GainTable::new(&p, &s);
        let rows = TableRows::new(k, table.gains.as_ref().unwrap(), true);
        let gains = rows.gains;
        for j in 0..k {
            let interferers = interferer_positions(k, j);
            // Row `j`'s interferer positions in block `g`, and their means.
            let members = |g: usize| {
                let at = g * BLOCK_DRAWS..(g + 1) * BLOCK_DRAWS;
                interferers.clone().filter(move |p| at.contains(p))
            };
            let mean = |p: usize| gains[j * k + interferer(k, j, p)].mean();
            let weight = |g: usize| members(g).map(mean).sum::<f64>();
            let mut rest: Vec<usize> = interferers.clone().map(|p| p / BLOCK_DRAWS).collect();
            rest.dedup();
            for s in 0.. {
                let Some((at, undrawn)) = rows.stage(j, s) else {
                    break;
                };
                let g = at.start / BLOCK_DRAWS;
                assert!(at.clone().eq(members(g)), "row {j} stage {s}: {at:?}");
                // The heaviest block not drawn yet, and an undrawn
                // allowance that covers the rest of the row.
                let once = rest
                    .iter()
                    .position(|&r| r == g)
                    .expect("a block of the row, once");
                rest.remove(once);
                assert!(rest.iter().all(|&r| weight(r) <= weight(g)));
                let exact = fading_math::KahanSum::sum_iter(
                    rest.iter().flat_map(|&r| members(r)).map(mean),
                );
                assert!(undrawn >= exact && undrawn <= exact * (1.0 + 2.0 * CERT_SLACK));
            }
            // The stages cover the row.
            assert!(rest.is_empty(), "row {j}");
        }
    }

    #[test]
    fn unit_f64_is_the_standard_uniform() {
        let words = [0, 1, 1 << 11, u64::MAX, 0x0123_4567_89ab_cdef];
        let mut script = Script::new(words.to_vec(), true);
        for w in words {
            assert_eq!(unit_f64(w).to_bits(), script.gen::<f64>().to_bits());
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
