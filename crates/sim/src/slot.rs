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
//! **Certified verdicts.** A realization is one kernel, `realize`: for
//! each scheduled receiver in schedule order it draws the signal, then
//! the interferers (schedule order, skipping itself), from one RNG.
//! Most callers need only the verdict `X_j ≥ γ_th`, which a
//! fading-aware schedule clears by a wide margin almost everywhere
//! (Thm 3.1). When the law draws `mean'·(−ln(1−U))` from one uniform
//! ([`FadingLaw::exponential_mean`]: Rayleigh, shadowed Rayleigh), a
//! verdict caller draws the signal exactly and then decides the row in
//! the cheapest of three tiers that settles it:
//!
//! 1. **The signal alone** (Rayleigh, whose
//!    [`mean_multiplier`](FadingLaw::mean_multiplier) is 1). The 53-bit
//!    uniform caps every `−ln(1−U)` at `53·ln 2`, so with `M̄_j` at least
//!    the sum of the interferers' means, a receiver with
//!    `signal / (N₀ + E_MAX_UP·M̄_j·(1 + CERT_SLACK)) ≥ γ_th` succeeds
//!    whatever they draw, and the RNG seeks past their `k − 1` uniforms
//!    (`RngCore::skip_u64`, `O(1)` on `StdRng`). `M̄_j` is a table's row
//!    sum; a streamed slot takes it from the stored interference factors
//!    (`m_jj·(e^{F̄_j} − 1)/γ_th`, one walk of the scheduled senders' rows
//!    per slot, `product_bounds`), then retries a receiver left open with
//!    the geometric mean bounds. `sim.slot.signal_certified` counts these.
//! 2. **The interference bound.** The row's uniforms are buffered in
//!    stream order and the interference bounded by `B = Σ_i m̄_i·Ē_i`,
//!    with `m̄_i` at least the exact mean (`mean_bound`; the tabulated
//!    mean itself) and `Ē_i ≥ −ln(1−U_i)` read off the bits of `1−U_i`
//!    (`neg_ln_bound`, no logarithm), under the same test.
//! 3. **The exact sum.** The buffered uniforms go through the same
//!    inverse transform and the same `KahanSum` in `sinr_of` as the draws
//!    would have. `sim.slot.exact_rows` counts these rows.
//!
//! Each bound dominates its exact counterpart and `CERT_SLACK` covers
//! the rounding, so a certified receiver's exact SINR clears `γ_th` too,
//! and every verdict and the RNG stream are bit-identical to summing
//! every row (`docs/THEORY.md` §7). Callers that need the SINR
//! ([`realized_sinrs`], `sinr_histogram`) and laws with other draws
//! (Nakagami's rejection takes a variable number of uniforms) sum every
//! row.
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
    let law = problem.channel();
    GainTable::streaming(problem, schedule).verdicts_under(law, rng, |j, success| {
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
    GainTable::streaming(problem, schedule).sinrs(rng, |j, sinr| out.push((j, sinr)));
    out
}

/// How much of each receiver's outcome a realization resolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Resolve {
    /// Only the verdict: certified from a bound where the law allows,
    /// summed exactly where the bounds leave it open.
    Verdicts,
    /// Every row's realized SINR, summed exactly.
    Sinrs,
}

/// One receiver's result in one realization.
#[derive(Debug, Clone, Copy)]
enum RowOutcome {
    /// The realized SINR, summed exactly.
    Exact(SinrOutcome),
    /// A success certified by a bound (on the signal alone or on the
    /// interference); no SINR was summed.
    Certified,
}

/// A source of per-receiver mean gains for [`realize`].
trait GainRows {
    /// Receiver `ids[j]`'s exact row: one exponential per scheduled
    /// sender, in schedule order; entry `j` is the desired signal.
    fn row(&mut self, j: usize) -> &[Exponential];

    /// Entry `j` of [`Self::row`]`(j)`: the desired signal's exact mean.
    fn signal(&self, j: usize) -> Exponential;

    /// Upper bounds on the means of [`Self::row`]`(j)` as `f64`s, in
    /// schedule order (entry `j` is unused).
    fn mean_bounds(&self, j: usize) -> impl Iterator<Item = f64> + '_;

    /// Upper bounds on the exact sum of [`Self::row`]`(j)`'s interferer
    /// means (entry `j` left out), cheapest first; each is computed
    /// only when the one before it fails to certify the receiver.
    fn interference_means(&self, j: usize) -> impl Iterator<Item = f64> + '_;
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
    /// Otherwise the gains and each row's [`sum_up`] of its interferer
    /// means.
    gains: Option<(Vec<Exponential>, Vec<f64>)>,
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
                (gains, sums)
            });
        Self {
            problem,
            ids,
            gains,
        }
    }

    /// Runs one realization under `law`, reporting whether each
    /// receiver succeeded, in schedule order.
    pub(crate) fn verdicts_under<L: FadingLaw, R: Rng + ?Sized>(
        &self,
        law: &L,
        rng: &mut R,
        mut each: impl FnMut(LinkId, bool),
    ) {
        self.realize(law, Resolve::Verdicts, rng, |j, o| match o {
            RowOutcome::Exact(o) => each(j, o.success),
            RowOutcome::Certified => each(j, true),
        });
    }

    /// Runs one Rayleigh realization, reporting each receiver's
    /// realized SINR in schedule order.
    pub(crate) fn sinrs<R: Rng + ?Sized>(&self, rng: &mut R, mut each: impl FnMut(LinkId, f64)) {
        let law = self.problem.channel();
        self.realize(law, Resolve::Sinrs, rng, |j, o| match o {
            RowOutcome::Exact(o) => each(j, o.sinr),
            RowOutcome::Certified => unreachable!("Resolve::Sinrs sums every row"),
        });
    }

    fn realize<L: FadingLaw, R: Rng + ?Sized>(
        &self,
        law: &L,
        resolve: Resolve,
        rng: &mut R,
        each: impl FnMut(LinkId, RowOutcome),
    ) {
        match &self.gains {
            Some((gains, sums)) => {
                let mut rows = TableRows {
                    k: self.ids.len(),
                    gains,
                    sums,
                };
                realize(self.problem, self.ids, &mut rows, law, resolve, rng, each);
            }
            None => {
                let certify = resolve == Resolve::Verdicts && law.mean_multiplier().is_some();
                let mut rows = StreamRows::new(self.problem, self.ids, certify);
                realize(self.problem, self.ids, &mut rows, law, resolve, rng, each);
            }
        }
    }
}

/// Rows read out of a tabulated `|S|×|S|` slice; the bounds are the
/// exact means, and each row's interferer sum is the table's.
struct TableRows<'t> {
    k: usize,
    gains: &'t [Exponential],
    sums: &'t [f64],
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
    fn mean_bounds(&self, j: usize) -> impl Iterator<Item = f64> + '_ {
        self.gains[j * self.k..(j + 1) * self.k]
            .iter()
            .map(Exponential::mean)
    }

    #[inline]
    fn interference_means(&self, j: usize) -> impl Iterator<Item = f64> + '_ {
        std::iter::once(self.sums[j])
    }
}

/// Rows computed per receiver: bounds from geometry, and one scratch
/// row of exact means filled only for a row the bound leaves open. A
/// realization allocates `|S|` entries (and, on the sparse store, one
/// id-to-position map), not `|S|²`.
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
    fn mean_bounds(&self, j: usize) -> impl Iterator<Item = f64> + '_ {
        let params = self.problem.params();
        let rx = self.problem.links().link(self.ids[j]).receiver;
        self.senders
            .iter()
            .map(move |(tx, power)| mean_bound(params, *power, tx.distance(&rx)))
    }

    /// The slot's product bound, then the sum of the geometric
    /// [`mean_bounds`](GainRows::mean_bounds).
    #[inline]
    fn interference_means(&self, j: usize) -> impl Iterator<Item = f64> + '_ {
        let geometric = move || sum_up(interferers(j, self.mean_bounds(j)));
        std::iter::once(self.products[j]).chain(std::iter::once_with(geometric))
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
                let row = factors.dense_row(tx).expect("a dense store");
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
/// where `B̂` is the naive (recursive) sum of the `k−1` bound terms
/// `b_i`. Each `b_i` is at least the exact kernel's term `t_i` (see
/// [`mean_bound`] and [`neg_ln_bound`]; `fl(x·y)` is monotone), so the
/// slack covers the two sums' rounding only. With `u = 2^−53`, all
/// terms non-negative and `T = Σ t_i ≤ Σ b_i`:
///
/// * the naive sum loses at most a factor `(1−u)^{k−2}`:
///   `B̂ ≥ (1 − k·u)·T`;
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

/// The realization kernel: start a realization of `law`, then for each
/// scheduled receiver in schedule order draw its signal and then its
/// interferers (schedule order, skipping itself) from `rng`, and hand
/// `each` the receiver's outcome. Under [`Resolve::Verdicts`] and a law
/// with an [`exponential_mean`](FadingLaw::exponential_mean), a row is
/// decided in up to three tiers, cheapest first:
///
/// 1. with a [`mean_multiplier`](FadingLaw::mean_multiplier), from the
///    signal draw alone against the [`worst_interference`] of each of
///    the row's [`interference_means`](GainRows::interference_means); a
///    certified row seeks `rng` past its interferers' uniforms;
/// 2. from the interference bound on the row's buffered uniforms;
/// 3. by the exact sum over those buffered uniforms.
///
/// Otherwise every row draws and sums exactly.
fn realize<L: FadingLaw, R: Rng + ?Sized>(
    problem: &Problem,
    ids: &[LinkId],
    rows: &mut impl GainRows,
    law: &L,
    resolve: Resolve,
    rng: &mut R,
    mut each: impl FnMut(LinkId, RowOutcome),
) {
    let params = problem.params();
    let k = ids.len();
    let others = k.saturating_sub(1);
    // Registered before any scratch is allocated: a registration is a
    // long-lived allocation, and one placed above a realization's
    // buffers kept the heap from shrinking (+0.6 MB peak RSS on the
    // paper-figure runs).
    let exact_counter = fading_obs::counter!("sim.slot.exact_rows");
    let signal_counter = fading_obs::counter!("sim.slot.signal_certified");
    let state = law.begin(k, rng);
    let multiplier = law
        .mean_multiplier()
        .filter(|_| resolve == Resolve::Verdicts);
    let mut uniforms = vec![0.0; k];
    let (mut exact_rows, mut signal_certified) = (0u64, 0u64);
    for (j, &rx) in ids.iter().enumerate() {
        let diagonal = j * k + j;
        let signal_mean = match resolve {
            Resolve::Verdicts => law.exponential_mean(&state, rows.signal(j).mean(), diagonal),
            Resolve::Sinrs => None,
        };
        let Some(signal_mean) = signal_mean else {
            let row = rows.row(j);
            let signal = law.draw(&state, &row[j], diagonal, rng);
            let interference = (0..k)
                .filter(|&i| i != j)
                .map(|i| law.draw(&state, &row[i], i * k + j, rng));
            each(rx, RowOutcome::Exact(sinr_of(params, signal, interference)));
            continue;
        };
        let signal = Exponential::with_mean(signal_mean).from_uniform(rng.gen());
        if let Some(c) = multiplier {
            let worst = |means| worst_interference(c, means, others);
            if rows
                .interference_means(j)
                .any(|m| certified(params, signal, worst(m)))
            {
                rng.skip_u64(others as u64);
                signal_certified += 1;
                each(rx, RowOutcome::Certified);
                continue;
            }
        }
        let mut bound = 0.0;
        for (i, (mean, u)) in rows.mean_bounds(j).zip(&mut uniforms).enumerate() {
            if i != j {
                *u = rng.gen();
                let mean = law.exponential_mean(&state, mean, i * k + j);
                bound += mean.unwrap_or(f64::INFINITY) * neg_ln_bound(1.0 - *u);
            }
        }
        if certified(params, signal, bound) {
            each(rx, RowOutcome::Certified);
            continue;
        }
        exact_rows += 1;
        let row = rows.row(j);
        let interference = (0..k).filter(|&i| i != j).map(|i| {
            let mean = law.exponential_mean(&state, row[i].mean(), i * k + j);
            Exponential::with_mean(mean.expect("an exponential law")).from_uniform(uniforms[i])
        });
        each(rx, RowOutcome::Exact(sinr_of(params, signal, interference)));
    }
    law.count_draws((k * k) as u64 - signal_certified * others as u64);
    if resolve == Resolve::Verdicts {
        exact_counter.add(exact_rows);
        signal_counter.add(signal_certified);
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
        GainTable::with_cap(problem, schedule, max_entries).verdicts_under(
            problem.channel(),
            rng,
            |j, success| {
                if success {
                    out.successes.push(j);
                    out.delivered_rate += problem.rate(j);
                } else {
                    out.failures.push(j);
                }
            },
        );
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

    /// Replays `words` cyclically as `next_u64` draws and counts the
    /// seeks, which it overrides (one word per skipped draw).
    #[derive(Clone)]
    struct Script {
        words: Vec<u64>,
        at: usize,
        seeks: usize,
    }

    impl rand::RngCore for Script {
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
        fn skip_u64(&mut self, n: u64) {
            self.at += n as usize;
            self.seeks += 1;
        }
    }

    #[test]
    fn a_signal_just_above_the_certificate_survives_the_largest_draw() {
        // Two links; each receiver draws its signal word, then its one
        // interferer `u64::MAX` (`1 − U = 2^−53`, a draw of 53·ln 2 times
        // its mean). The signal word is the smallest that receiver 0's
        // certificate accepts, from the table's row sum and from the
        // stream's product bound.
        for (alpha, seed) in [(3.0, 1), (4.0, 2), (2.5, 3)] {
            let p = Problem::builder(
                UniformGenerator::paper(40).generate(seed),
                ChannelParams::new(alpha, 1.0, 1.0, 1e-9),
            )
            .power_scales((0..40).map(|i| [0.5, 2.0, 1.0][i % 3]).collect())
            .build();
            let s = Schedule::from_ids([LinkId(0), LinkId(1)]);
            let table = GainTable::new(&p, &s);
            let stream = StreamRows::new(&p, s.ids(), true);
            let table_sum = table.gains.as_ref().unwrap().1[0];
            for means in [table_sum, stream.products[0]] {
                let signal = |n: u64| stream.signal(0).from_uniform(n as f64 * pow2(-53));
                let worst = worst_interference(1.0, means, 1);
                let passes = |n: u64| certified(p.params(), signal(n), worst);
                let (mut lo, mut hi) = (0u64, (1 << 53) - 1);
                assert!(passes(hi), "α {alpha}: certifiable at all");
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    (lo, hi) = if passes(mid) {
                        (lo, mid)
                    } else {
                        (mid + 1, hi)
                    };
                }
                assert!(lo > 0 && !passes(lo - 1));
                let script = Script {
                    words: vec![lo << 11, u64::MAX],
                    at: 0,
                    seeks: 0,
                };
                let want = oracle_slot(&p, &s, &mut script.clone());
                let mut streamed = script.clone();
                assert_same(&simulate_slot(&p, &s, &mut streamed), &want);
                let mut tabled = script.clone();
                assert_same(&table_slot(&p, &s, MAX_TABLE_ENTRIES, &mut tabled), &want);
                assert!(want.successes.contains(&LinkId(0)), "α {alpha}");
                for rng in [&streamed, &tabled] {
                    assert!(rng.seeks >= 1, "α {alpha}: certified from the signal");
                    assert_eq!(rng.at, 4);
                }
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
