//! Spatial-hash truncated interference store — the scale backend.
//!
//! The dense matrix costs `O(N²)` time and memory before any algorithm
//! runs; at `N = 10⁵` links that is 80 GB. This backend exploits the
//! geometry of Eq. (17): `f_{i,j} = ln(1 + γ_th (d_jj/d_ij)^α)` decays
//! like `d_ij^{−α}`, so almost all of a receiver's interference mass
//! comes from nearby senders. Per receiver `j` we store only the
//! factors of senders within a *truncation radius*
//!
//! ```text
//! R_j = d_jj · (γ_th · ρ_j / (e^τ − 1))^{1/α},   τ = tail_rtol · γ_ε,
//! ```
//!
//! (`ρ_j` is the worst-case power ratio onto `j`; 1 under uniform
//! power). By construction every *omitted* factor is individually below
//! the per-receiver cut `τ` — [`SparseInterference::tail_cut`] — up to
//! the rounding of the radius formula, so a sum accumulated from stored
//! factors over a selection `S` is a lower bound within
//! `|S| · τ · (1 + CUT_RTOL)` of the true sum
//! ([`SparseInterference::cut_bound`]). Feasibility checks account
//! for this envelope explicitly (see
//! [`within_budget_certified`](crate::feasibility::within_budget_certified))
//! and fall back to *exact* on-demand recomputation when the envelope
//! straddles the budget, so **verdicts never silently flip**: scalar
//! [`factor`](SparseInterference::factor) lookups recompute the Eq. (17)
//! formula through the same channel code path as the dense build and
//! are bit-identical to dense entries.
//!
//! When `R_j` reaches the instance diameter the receiver is stored
//! exhaustively and its cut is exactly `0` — at paper sizes and
//! densities the sparse backend therefore degenerates to a (CSR-shaped)
//! exact store (`max_tail_cut() == 0`). `docs/interference.md` derives
//! the bound.
//!
//! The store keeps one copy of each link's positions, the points of its
//! sender and receiver hashes, and none of its power scale: those stay
//! with the [`Problem`](crate::Problem), which hands them to every call
//! that computes a factor.

use crate::feasibility::BUDGET_RTOL;
use crate::interference::pair_factor;
use crate::mutate::LinkSpec;
use fading_channel::RayleighChannel;
use fading_geom::{Point2, SpatialHash};
use fading_net::{LinkId, LinkSet};
use fading_obs::PhaseTimer;
use rayon::prelude::*;

/// Instances below this size are built sequentially; the rayon
/// fork-join overhead only pays off once gathers get expensive.
const PARALLEL_THRESHOLD: usize = 64;

/// Relative slack on the per-receiver cut: an omitted factor is at most
/// `tail_cut(j) · (1 + CUT_RTOL)`. The radius formula rounds, so a
/// sender just outside `R_j` can carry a factor a few ULPs above `τ`.
pub const CUT_RTOL: f64 = 1e-12;

/// Truncation policy for [`SparseInterference`].
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SparseConfig {
    /// Per-factor cut as a fraction of `γ_ε`: any omitted factor is
    /// `< tail_rtol · γ_ε`. Smaller is more exact and stores more.
    pub tail_rtol: f64,
}

impl SparseConfig {
    /// Practical default: omitted factors below `10⁻³ · γ_ε`. Stored
    /// sums then carry a certified envelope of `|S| · 10⁻³ γ_ε`;
    /// verdict-producing checks resolve any straddle exactly.
    pub const DEFAULT_TAIL_RTOL: f64 = 1e-3;

    /// The strictest setting: cuts at `BUDGET_RTOL · γ_ε`, the same
    /// slack [`within_budget`](crate::feasibility::within_budget)
    /// already grants — truncation is then invisible even to raw sum
    /// comparisons. Needs far larger radii (it usually degenerates to
    /// the exhaustive store; see `docs/interference.md`).
    pub fn certified() -> Self {
        Self {
            tail_rtol: BUDGET_RTOL,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics unless `0 < tail_rtol ≤ 1`.
    fn validate(&self) {
        assert!(
            self.tail_rtol.is_finite() && self.tail_rtol > 0.0 && self.tail_rtol <= 1.0,
            "tail_rtol must be in (0, 1], got {}",
            self.tail_rtol
        );
    }
}

impl Default for SparseConfig {
    fn default() -> Self {
        Self {
            tail_rtol: Self::DEFAULT_TAIL_RTOL,
        }
    }
}

/// Near-field interference factors in CSR form over a spatial hash.
///
/// Stores, per *sender*, the (receiver, factor) pairs with the receiver
/// inside the sender's stored neighborhood; per *receiver*, the link
/// length, truncation radius and cut. Link positions are the points of
/// the two hashes; power scales are the owning problem's, passed to
/// each call that evaluates a factor. Any factor — stored or not — is
/// recomputable exactly in `O(1)`.
#[derive(Debug, Clone)]
pub struct SparseInterference {
    n: usize,
    channel: RayleighChannel,
    lengths: Vec<f64>,
    /// Hash over *sender* positions, for neighborhood queries; its
    /// points are the store's sender positions, in id order.
    sender_hash: SpatialHash,
    /// Hash over *receiver* positions, for the inverse query the row
    /// wiring needs — which receivers' radius balls contain a given
    /// sender. Queried at [`max_radius`](Self::max_radius), filtered by
    /// the exact per-receiver `d² ≤ r²` predicate. Its points are the
    /// store's receiver positions, in id order.
    receiver_hash: SpatialHash,
    /// Slack-row CSR by sender: the out-factors of sender `i` occupy
    /// `arena[row_start[i] .. row_start[i] + row_len[i]]` inside a
    /// reserved extent of `row_cap[i]` slots. Extents never overlap;
    /// a fresh build packs them tight (`cap == len`), and in-place
    /// mutation grows rows by relocating full ones to the arena tail
    /// (doubling their capacity) — see [`row_insert`](Self::row_insert).
    row_start: Vec<usize>,
    row_len: Vec<u32>,
    row_cap: Vec<u32>,
    arena_receivers: Vec<u32>,
    arena_factors: Vec<f64>,
    /// Arena slots stranded by row relocation; once more than half the
    /// arena is dead, [`maybe_compact`](Self::maybe_compact) repacks.
    dead: usize,
    /// Per-receiver truncation radius (senders within it are stored).
    radius: Vec<f64>,
    /// Per-receiver certified bound on any omitted factor (0 ⇒
    /// exhaustive).
    cut: Vec<f64>,
    /// The absolute per-factor cut budget `τ = tail_rtol · γ_ε`.
    tau: f64,
    tail_rtol: f64,
    /// Exact bbox diagonal the current radii were clamped with —
    /// maintained under mutation so reconciled radii stay bit-identical
    /// to a fresh build's.
    diameter: f64,
    /// Exact maximum power scale the current radii were computed with.
    max_scale: f64,
    /// Conservative upper bound on every entry of `radius`: exact after
    /// a build or an envelope reconcile, pushed up by appended links,
    /// never shrunk by removals (a stale-high bound only widens the
    /// inverse query, it cannot miss a receiver).
    max_radius: f64,
    /// Reusable index scratch for the mutation paths (column gathers,
    /// tail-rename holders, annulus edits) — excluded from `PartialEq`,
    /// carried so steady-state mutations allocate nothing per call.
    scratch: Vec<u32>,
}

impl PartialEq for SparseInterference {
    fn eq(&self, other: &Self) -> bool {
        // The hash cells, diameter, and max scale are derived from the
        // geometry, so only the hashed points are compared; the CSR is
        // compared row by row (logical contents, not arena layout) so a
        // mutated store with slack extents equals a freshly packed
        // build with the same stored factors.
        self.n == other.n
            && self.channel == other.channel
            && self.sender_hash.points() == other.sender_hash.points()
            && self.receiver_hash.points() == other.receiver_hash.points()
            && self.lengths == other.lengths
            && self.radius == other.radius
            && self.cut == other.cut
            && self.tau == other.tau
            && self.tail_rtol == other.tail_rtol
            && (0..self.n).all(|i| self.row(i) == other.row(i))
    }
}

impl SparseInterference {
    /// Builds the truncated store for `links`, with optional per-link
    /// power scales (`None` = uniform power; same contract as
    /// [`InterferenceMatrix::build`](crate::interference::InterferenceMatrix::build)).
    ///
    /// `gamma_eps` is the feasibility budget the truncation budget is
    /// relative to (`τ = config.tail_rtol · γ_ε`).
    ///
    /// # Panics
    /// Panics on an invalid `config`, a power vector of the wrong
    /// length, or non-positive scales.
    pub fn build(
        links: &LinkSet,
        channel: &RayleighChannel,
        powers: Option<&[f64]>,
        gamma_eps: f64,
        config: SparseConfig,
    ) -> Self {
        config.validate();
        assert!(
            gamma_eps.is_finite() && gamma_eps > 0.0,
            "gamma_eps must be positive"
        );
        let _span = fading_obs::span!("core.sparse.build");
        let started = std::time::Instant::now();
        let n = links.len();
        if let Some(p) = powers {
            assert_eq!(p.len(), n, "power vector length mismatch");
            assert!(
                p.iter().all(|&s| s.is_finite() && s > 0.0),
                "power scales must be positive"
            );
        }
        let senders = links.sender_positions();
        let receivers = links.receiver_positions();
        let lengths: Vec<f64> = links.ids().map(|i| links.length(i)).collect();
        let tau = config.tail_rtol * gamma_eps;
        let diameter = instance_diameter(senders.iter().chain(&receivers));
        let max_scale = max_power_scale(powers);

        // Per-receiver truncation radius: the distance at which the
        // worst-case factor onto j drops to τ. Capped at the instance
        // diameter, in which case the receiver is exhaustive (cut 0).
        let mut radius = vec![0.0f64; n];
        let mut cut = vec![0.0f64; n];
        for j in 0..n {
            let ratio = powers.map_or(1.0, |p| max_scale / p[j]);
            let (r, c) = truncation_for(channel, lengths[j], ratio, tau, diameter);
            radius[j] = r;
            cut[j] = c;
        }

        // Hash cell ≈ the typical query radius (performance only;
        // correctness is radius-driven).
        let mean_radius = if n == 0 {
            1.0
        } else {
            radius.iter().sum::<f64>() / n as f64
        };
        let cell = if mean_radius.is_finite() && mean_radius > 0.0 {
            mean_radius
        } else {
            1.0
        };
        let sender_hash = SpatialHash::build(&senders, cell);
        let receiver_hash = SpatialHash::build(&receivers, cell);
        drop((senders, receivers));
        let max_radius = radius.iter().copied().fold(0.0, f64::max);

        // Gather each receiver's stored in-neighborhood, then scatter
        // into a CSR keyed by sender.
        let (senders, receivers) = (sender_hash.points(), receiver_hash.points());
        let gather = |j: usize| -> Vec<(u32, f64)> {
            let mut found = Vec::new();
            sender_hash.for_each_in_radius(&receivers[j], radius[j], |i| {
                if i as usize != j {
                    let i = i as usize;
                    let d_ij = senders[i].distance(&receivers[j]);
                    let f = pair_factor(channel, d_ij, lengths[j], powers, i, j);
                    found.push((i as u32, f));
                }
            });
            found
        };
        let in_lists: Vec<Vec<(u32, f64)>> = if n >= PARALLEL_THRESHOLD {
            (0..n).into_par_iter().map(gather).collect()
        } else {
            (0..n).map(gather).collect()
        };

        let mut degree = vec![0usize; n];
        for list in &in_lists {
            for &(i, _) in list {
                degree[i as usize] += 1;
            }
        }
        // Fresh rows are packed tight: extent capacity equals length.
        let mut row_start = vec![0usize; n];
        for i in 1..n {
            row_start[i] = row_start[i - 1] + degree[i - 1];
        }
        let total = row_start.last().map_or(0, |&s| s) + degree.last().copied().unwrap_or(0);
        let row_len: Vec<u32> = degree.iter().map(|&d| d as u32).collect();
        let row_cap = row_len.clone();
        let mut next = row_start.clone();
        let mut arena_receivers = vec![0u32; total];
        let mut arena_factors = vec![0.0f64; total];
        // Iterating receivers in ascending order leaves every CSR row
        // sorted by receiver id.
        for (j, list) in in_lists.iter().enumerate() {
            for &(i, f) in list {
                let pos = next[i as usize];
                arena_receivers[pos] = j as u32;
                arena_factors[pos] = f;
                next[i as usize] = pos + 1;
            }
        }

        let pairs = (n as u64).saturating_mul(n.saturating_sub(1) as u64);
        fading_obs::counter!("core.sparse.builds").incr();
        fading_obs::counter!("core.sparse.factors_stored").add(total as u64);
        fading_obs::counter!("core.sparse.factors_pruned").add(pairs - total as u64);
        fading_obs::gauge("core.sparse.build_ms").set(started.elapsed().as_secs_f64() * 1e3);
        fading_obs::gauge("core.sparse.tail_cut_max").set(cut.iter().copied().fold(0.0, f64::max));
        let neighborhood = fading_obs::histogram(
            "core.sparse.in_degree",
            &[1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0],
        );
        for list in &in_lists {
            neighborhood.record(list.len() as f64);
        }

        Self {
            n,
            channel: *channel,
            lengths,
            sender_hash,
            receiver_hash,
            row_start,
            row_len,
            row_cap,
            arena_receivers,
            arena_factors,
            dead: 0,
            radius,
            cut,
            tau,
            tail_rtol: config.tail_rtol,
            diameter,
            max_scale,
            max_radius,
            scratch: Vec::new(),
        }
    }

    /// Row `i` of the CSR: the stored `(receiver, factor)` pairs of
    /// sender `i`, sorted by receiver id.
    #[inline]
    fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let lo = self.row_start[i];
        let hi = lo + self.row_len[i] as usize;
        (&self.arena_receivers[lo..hi], &self.arena_factors[lo..hi])
    }

    /// The stored out-row of `sender` as raw CSR slices `(receivers,
    /// factors)`, sorted by receiver id — the slice form of
    /// [`for_each_out`](Self::for_each_out), letting hot loops walk the
    /// row without a dynamic call per element.
    #[inline]
    pub fn row_slices(&self, sender: LinkId) -> (&[u32], &[f64]) {
        self.row(sender.index())
    }

    /// Number of links `N`.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the store covers no links.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Exact factor `f_{i,j}` under the power scales `powers` (the
    /// owning problem's; `None` = uniform) — recomputed from geometry
    /// through the same channel code path as the dense build, so the
    /// value is bit-identical to the dense matrix entry whether or not
    /// the pair is stored.
    #[inline]
    pub fn factor(&self, sender: LinkId, receiver: LinkId, powers: Option<&[f64]>) -> f64 {
        let (i, j) = (sender.index(), receiver.index());
        if i == j {
            return 0.0;
        }
        self.hashed_factor(i, j, powers)
    }

    /// `f_{i,j}` between two hashed links.
    #[inline]
    fn hashed_factor(&self, i: usize, j: usize, powers: Option<&[f64]>) -> f64 {
        let d_ij = self.sender_hash.points()[i].distance(&self.receiver_hash.points()[j]);
        pair_factor(&self.channel, d_ij, self.lengths[j], powers, i, j)
    }

    /// Stored out-factors of `sender` (every omitted receiver `j` has
    /// `f_{sender,j} < tail_cut(j)`), in ascending receiver order.
    #[inline]
    pub fn for_each_out(&self, sender: LinkId, f: &mut dyn FnMut(LinkId, f64)) {
        let (recv, fact) = self.row(sender.index());
        for (&j, &v) in recv.iter().zip(fact) {
            f(LinkId(j), v);
        }
    }

    /// The per-receiver cut `τ_j` the truncation radius is derived
    /// from (`0` ⇒ the receiver's neighborhood is exhaustive). An
    /// omitted factor can exceed it by a few ULPs; the certified bound
    /// is [`cut_bound`](Self::cut_bound).
    #[inline]
    pub fn tail_cut(&self, receiver: LinkId) -> f64 {
        self.cut[receiver.index()]
    }

    /// Certified upper bound on any single omitted factor onto
    /// `receiver`: the cut inflated by [`CUT_RTOL`], which absorbs the
    /// rounding of the radius formula (`0` ⇒ exhaustive).
    #[inline]
    pub fn cut_bound(&self, receiver: LinkId) -> f64 {
        self.cut[receiver.index()] * (1.0 + CUT_RTOL)
    }

    /// Certified upper bound on `f_{sender,receiver}` when the store
    /// omits the pair, i.e. the sender lies strictly outside the
    /// receiver's truncation radius (the `d² > R_j²` complement of the
    /// predicate that wires the rows); `None` for a stored pair and for
    /// every pair onto an exhaustive receiver.
    /// The bound is [`cut_bound`](Self::cut_bound). `O(1)`, no factor
    /// evaluation.
    #[inline]
    pub fn omitted_bound(&self, sender: LinkId, receiver: LinkId) -> Option<f64> {
        let j = receiver.index();
        let r = self.radius[j];
        let d_sq =
            self.sender_hash.points()[sender.index()].distance_sq(&self.receiver_hash.points()[j]);
        (self.cut[j] > 0.0 && d_sq > r * r).then(|| self.cut_bound(receiver))
    }

    /// The configured relative cut.
    pub fn tail_rtol(&self) -> f64 {
        self.tail_rtol
    }

    /// Number of stored off-diagonal factors.
    pub fn stored_factors(&self) -> u64 {
        self.row_len.iter().map(|&l| l as u64).sum()
    }

    /// The largest per-receiver cut (0 when exhaustive everywhere).
    pub fn max_tail_cut(&self) -> f64 {
        self.cut.iter().copied().fold(0.0, f64::max)
    }

    /// Bytes held by the interference storage proper: CSR arrays,
    /// per-receiver lengths, radii and cuts, and the two hashes, which
    /// hold the store's only copy of the link positions. Power scales
    /// belong to the problem and are not counted. The figure the
    /// large-n memory budget is checked against.
    pub fn storage_bytes(&self) -> u64 {
        let csr = self.row_start.len() * std::mem::size_of::<usize>()
            + (self.row_len.len() + self.row_cap.len() + self.arena_receivers.len())
                * std::mem::size_of::<u32>()
            + self.arena_factors.len() * std::mem::size_of::<f64>();
        let per_receiver =
            (self.lengths.len() + self.radius.len() + self.cut.len()) * std::mem::size_of::<f64>();
        // Hashes: one u32 index per point plus the point itself, for
        // the sender and receiver grids.
        let hash = (self.sender_hash.len() + self.receiver_hash.len())
            * (std::mem::size_of::<u32>() + std::mem::size_of::<Point2>());
        (csr + per_receiver + hash) as u64
    }

    // ------------------------------------------------------------------
    // In-place mutation.
    //
    // Invariant maintained by every operation below (and established by
    // `build`): entry `(i, j)` is stored iff sender `i` lies within
    // `radius[j]` of receiver `j` (`d² ≤ radius[j]²`) and `i ≠ j`,
    // with every CSR row sorted by receiver id. Because membership is a
    // pure predicate of geometry and `radius`, and `radius` is
    // reconciled to the fresh-build formula whenever the instance
    // envelope (bbox diameter, max power scale) moves, a mutated store
    // compares equal (`PartialEq`) to a from-scratch build over the
    // mutated link set — the property `tests/mutate_equivalence.rs`
    // pins. Certified cuts can only be *re-derived by the same formula*
    // (never hand-adjusted), so a truncated receiver's bound stays a
    // true bound at every intermediate state and feasibility verdicts
    // never flip (straddles always resolve by exact recomputation).
    // ------------------------------------------------------------------

    /// The row/column edits of one swap-remove (the link at `len()−1`
    /// takes index `k`, mirroring [`LinkSet::swap_remove`]), touching
    /// only the rows that store the removed receiver or the renumbered
    /// one. [`apply_batch`](Self::apply_batch) does the envelope
    /// reconcile and compaction once per batch.
    ///
    /// Removals can be chained this way because the membership
    /// invariant refers to the *current* `radius` array, and removal
    /// never changes a surviving receiver's radius. Only the final
    /// reconcile pulls the array back to the fresh-build formula.
    fn remove_one(&mut self, k: usize, laps: &mut PhaseTimer<APPLY_PHASES>) {
        assert!(k < self.n, "link index out of bounds");
        let last = self.n - 1;
        // Drop column k: by the invariant, exactly the senders within
        // radius[k] of receiver k store an entry onto it. The reusable
        // scratch keeps the warm mutation path allocation-free.
        let mut col = std::mem::take(&mut self.scratch);
        col.clear();
        let receiver = self.receiver_hash.points()[k];
        self.sender_hash
            .for_each_in_radius(&receiver, self.radius[k], |i| {
                if i as usize != k {
                    col.push(i);
                }
            });
        for i in col.drain(..) {
            self.row_remove(i as usize, k as u32);
        }
        laps.lap(ApplyPhase::ColDrop as usize);
        // Row k dies with its extent.
        self.dead += self.row_cap[k] as usize;
        // Rename receiver `last` → `k` wherever it is stored. It is the
        // maximum id, hence at each row's tail; re-seat it at the new
        // id's sorted position (row k itself is already dead, row last
        // never stores its own diagonal).
        if k != last {
            let receiver = self.receiver_hash.points()[last];
            self.sender_hash
                .for_each_in_radius(&receiver, self.radius[last], |i| {
                    let i = i as usize;
                    if i != last && i != k {
                        col.push(i as u32);
                    }
                });
            for i in col.drain(..) {
                self.row_rename_tail(i as usize, last as u32, k as u32);
            }
        }
        laps.lap(ApplyPhase::TailRename as usize);
        self.scratch = col;
        self.row_start.swap_remove(k);
        self.row_len.swap_remove(k);
        self.row_cap.swap_remove(k);
        self.lengths.swap_remove(k);
        self.radius.swap_remove(k);
        self.cut.swap_remove(k);
        self.sender_hash.swap_remove(k as u32);
        self.receiver_hash.swap_remove(k as u32);
        self.n = last;
        laps.lap(ApplyPhase::SwapRemove as usize);
    }

    /// Applies a whole transaction — removals (dense ids, strictly
    /// descending) then appended links (taking ids `n..n+k` in spec
    /// order) — with **one** envelope reconciliation and **one**
    /// compaction check for the entire batch. The one mutation routine
    /// of the store; `Problem::apply` calls it after validating the
    /// batch and committing its links and power scales. `powers` is
    /// that committed profile: the survivors' scales under their new
    /// ids, then the added links' (`None` = uniform).
    ///
    /// The result equals a fresh build over the final link set (and so
    /// any other split of the same mutations into batches): every
    /// intermediate state still satisfies the membership invariant
    /// *with respect to the current `radius` array*, stored factors are
    /// pure per-pair values independent of wiring order, and the final
    /// reconcile pulls the array back to the fresh-build formula once.
    /// Each new link's row and column are local hash queries (see
    /// [`wire_new_links`](Self::wire_new_links)), so a `k`-link batch
    /// costs `O(N + k·degree)` — the `O(N)` envelope scan paid once for
    /// the whole transaction, however the batch is spread over the
    /// region — instead of `k` separate `O(N)` passes.
    ///
    /// Each sub-phase's time in the batch is recorded once per batch as
    /// a `problem.apply.<phase>` histogram (see [`ApplyPhase`]); the
    /// clock is read per removal, per add and per phase, never per row
    /// edit.
    ///
    /// # Panics
    /// Panics if `removes` is not strictly descending or out of range.
    pub(crate) fn apply_batch(
        &mut self,
        removes: &[LinkId],
        adds: &[LinkSpec],
        powers: Option<&[f64]>,
    ) {
        if removes.is_empty() && adds.is_empty() {
            return;
        }
        assert!(
            removes.windows(2).all(|w| w[0] > w[1]),
            "apply_batch removals must be strictly descending"
        );
        if let Some(&first) = removes.first() {
            assert!(first.index() < self.n, "link index out of bounds");
        }
        let _span = fading_obs::span!("core.sparse.apply_batch");
        let mut laps = PhaseTimer::<APPLY_PHASES>::start(true);
        for &id in removes {
            self.remove_one(id.index(), &mut laps);
        }
        let n0 = self.n;
        // Reconcile the envelope once, with the new links' lengths in
        // place but their endpoints not yet hashed: the annulus edits
        // touch only surviving old pairs, and the new rows/columns are
        // wired directly under the final radii.
        self.lengths
            .extend(adds.iter().map(|spec| spec.sender.distance(&spec.receiver)));
        self.n = n0 + adds.len();
        self.refresh_envelope(adds, powers);
        for t in n0..self.n {
            let (r, c) = self.truncation_of(t, powers);
            self.radius.push(r);
            self.cut.push(c);
            self.max_radius = self.max_radius.max(r);
        }
        laps.lap(ApplyPhase::Reconcile as usize);
        if n0 < self.n {
            self.wire_new_links(adds, powers, &mut laps);
        }
        if self.maybe_compact() {
            laps.lap(ApplyPhase::Compact as usize);
        }
        // Every phase once per batch, zeros included.
        for (hist, &ns) in apply_hists().iter().zip(laps.phase_ns()) {
            hist.record(ns as f64);
        }
    }

    /// Wires rows and columns for the batch's new links (ids
    /// `n − adds.len() .. n`), whose lengths, radii, and cuts are
    /// already in place under the reconciled envelope; their endpoints
    /// come from `adds` and enter the hashes one link at a time, as
    /// each link's wiring completes.
    /// Both directions are local hash queries: the column gathers the
    /// senders inside the new receiver's radius from the sender hash,
    /// and the row answers the inverse question — which receivers'
    /// radius balls contain the new sender — from the receiver hash at
    /// the conservative `max_radius` bound, filtered with the exact
    /// `d² ≤ r²` predicate. Per-link cost is the local neighborhood
    /// regardless of how the batch is spread over the region, which is
    /// what keeps a slot's worth of *scattered* churn arrivals at
    /// `O(k · degree)` instead of the `O(k · N)` per-link receiver
    /// scans (or an `O(N)`-per-batch sweep that degenerates to visiting
    /// every link once the batch's bounding circle covers the region).
    fn wire_new_links(
        &mut self,
        adds: &[LinkSpec],
        powers: Option<&[f64]>,
        laps: &mut PhaseTimer<APPLY_PHASES>,
    ) {
        let mut col = std::mem::take(&mut self.scratch);
        let mut hits: Vec<u32> = Vec::with_capacity(64);
        for (t, spec) in (self.n - adds.len()..).zip(adds) {
            let (sender, receiver) = (spec.sender, spec.receiver);
            // Column t: already-wired senders (old plus earlier new —
            // each enters the hash as its own wiring completes) within
            // the new receiver's radius. Receiver t is the maximum
            // stored id, so each insert lands at its row's tail.
            col.clear();
            self.sender_hash
                .for_each_in_radius(&receiver, self.radius[t], |i| col.push(i));
            for i in col.drain(..) {
                let i = i as usize;
                let d_it = self.sender_hash.points()[i].distance(&receiver);
                let f = pair_factor(&self.channel, d_it, self.lengths[t], powers, i, t);
                self.row_insert(i, t as u32, f);
            }
            laps.lap(ApplyPhase::ColWire as usize);
            // Row t: receivers (old plus earlier new) whose radius ball
            // contains the new sender — the inverse query, answered by
            // the receiver hash at the conservative `max_radius` bound
            // and filtered with the exact `d² ≤ r²` predicate, then
            // sorted so the CSR row invariant holds. Local, whatever
            // the batch's spatial spread: a slot's worth of scattered
            // churn arrivals costs `O(k · neighborhood)`, not the
            // `O(k · N)` a per-link receiver scan would pay.
            hits.clear();
            let receivers = self.receiver_hash.points();
            self.receiver_hash
                .for_each_in_radius(&sender, self.max_radius, |j| {
                    let ju = j as usize;
                    if sender.distance_sq(&receivers[ju]) <= self.radius[ju] * self.radius[ju] {
                        hits.push(j);
                    }
                });
            hits.sort_unstable();
            let lo = self.arena_receivers.len();
            for &j in &hits {
                let j = j as usize;
                let d_tj = sender.distance(&self.receiver_hash.points()[j]);
                let f = pair_factor(&self.channel, d_tj, self.lengths[j], powers, t, j);
                self.arena_receivers.push(j as u32);
                self.arena_factors.push(f);
            }
            self.row_start.push(lo);
            let len = (self.arena_receivers.len() - lo) as u32;
            self.row_len.push(len);
            self.row_cap.push(len);
            self.sender_hash.insert(sender);
            self.receiver_hash.insert(receiver);
            laps.lap(ApplyPhase::RowWire as usize);
        }
        self.scratch = col;
    }

    /// Truncation radius and cut of receiver `j` under the *current*
    /// envelope — the same expression `build` evaluates, so reconciled
    /// values are bit-identical to a fresh build's.
    fn truncation_of(&self, j: usize, powers: Option<&[f64]>) -> (f64, f64) {
        let ratio = powers.map_or(1.0, |p| self.max_scale / p[j]);
        truncation_for(
            &self.channel,
            self.lengths[j],
            ratio,
            self.tau,
            self.diameter,
        )
    }

    /// Recomputes the instance envelope (bbox diameter over the hashed
    /// links plus the batch's not-yet-hashed `adds`, max power scale)
    /// and, if it moved, reconciles every hashed receiver's radius/cut
    /// to the fresh-build formula — inserting or dropping exactly the
    /// annulus entries between the old and new radius. Radii whose
    /// annulus lies beyond the new diameter need no row edits (no pair
    /// can be that far apart), which makes interior mutations under
    /// uniform power a pure value update.
    fn refresh_envelope(&mut self, adds: &[LinkSpec], powers: Option<&[f64]>) {
        let (senders, receivers) = (self.sender_hash.points(), self.receiver_hash.points());
        let diameter = instance_diameter(
            senders
                .iter()
                .chain(adds.iter().map(|spec| &spec.sender))
                .chain(receivers)
                .chain(adds.iter().map(|spec| &spec.receiver)),
        );
        let max_scale = max_power_scale(powers);
        if diameter == self.diameter && max_scale == self.max_scale {
            return;
        }
        self.diameter = diameter;
        self.max_scale = max_scale;
        let mut max_radius = 0.0f64;
        // The scratch is taken out of `self` so the hash-query closure
        // (which reads the hashed points) and the buffer can be
        // borrowed simultaneously.
        let mut touched = std::mem::take(&mut self.scratch);
        for j in 0..self.radius.len() {
            let (r, c) = self.truncation_of(j, powers);
            let old = self.radius[j];
            if r != old && old.min(r) < diameter {
                // The annulus between the radii can hold senders; patch
                // the affected rows. Membership uses the same `d² ≤ r²`
                // predicate as the build's hash gather.
                let (old_sq, new_sq) = (old * old, r * r);
                let (senders, receiver) =
                    (self.sender_hash.points(), self.receiver_hash.points()[j]);
                touched.clear();
                self.sender_hash
                    .for_each_in_radius(&receiver, old.max(r), |i| {
                        if i as usize != j {
                            let d_sq = senders[i as usize].distance_sq(&receiver);
                            if d_sq <= old_sq.max(new_sq) && d_sq > old_sq.min(new_sq) {
                                touched.push(i);
                            }
                        }
                    });
                fading_obs::counter!("core.sparse.reconcile_edits").add(touched.len() as u64);
                for i in touched.drain(..) {
                    if r > old {
                        let f = self.hashed_factor(i as usize, j, powers);
                        self.row_insert(i as usize, j as u32, f);
                    } else {
                        self.row_remove(i as usize, j as u32);
                    }
                }
            }
            self.radius[j] = r;
            self.cut[j] = c;
            max_radius = max_radius.max(r);
        }
        self.max_radius = max_radius;
        self.scratch = touched;
    }

    /// Inserts `(j, f)` into row `i` at its sorted position, relocating
    /// a full row to the arena tail with doubled capacity first.
    fn row_insert(&mut self, i: usize, j: u32, f: f64) {
        if self.row_len[i] == self.row_cap[i] {
            self.relocate(i);
        }
        let lo = self.row_start[i];
        let len = self.row_len[i] as usize;
        let row = &self.arena_receivers[lo..lo + len];
        // A new link's id is the store maximum, so every column-wire
        // insert is an append; only reconcile inserts need the seek.
        let at = lo
            + match row.last() {
                Some(&last) if last >= j => seek(row, j, self.n),
                _ => len,
            };
        debug_assert!(
            at == lo + len || self.arena_receivers[at] != j,
            "duplicate entry"
        );
        self.arena_receivers.copy_within(at..lo + len, at + 1);
        self.arena_factors.copy_within(at..lo + len, at + 1);
        self.arena_receivers[at] = j;
        self.arena_factors[at] = f;
        self.row_len[i] += 1;
    }

    /// Removes receiver `j` from row `i` (which must store it).
    fn row_remove(&mut self, i: usize, j: u32) {
        let lo = self.row_start[i];
        let len = self.row_len[i] as usize;
        let at = lo + seek(&self.arena_receivers[lo..lo + len], j, self.n);
        debug_assert_eq!(self.arena_receivers.get(at), Some(&j), "missing entry");
        self.arena_receivers.copy_within(at + 1..lo + len, at);
        self.arena_factors.copy_within(at + 1..lo + len, at);
        self.row_len[i] -= 1;
    }

    /// Renames row `i`'s tail entry (receiver `old`, the row maximum)
    /// to `new`, re-seating it at the sorted position.
    fn row_rename_tail(&mut self, i: usize, old: u32, new: u32) {
        let lo = self.row_start[i];
        let len = self.row_len[i] as usize;
        debug_assert_eq!(
            self.arena_receivers[lo + len - 1],
            old,
            "tail must be the max id"
        );
        let f = self.arena_factors[lo + len - 1];
        let at = lo + seek(&self.arena_receivers[lo..lo + len - 1], new, self.n);
        self.arena_receivers.copy_within(at..lo + len - 1, at + 1);
        self.arena_factors.copy_within(at..lo + len - 1, at + 1);
        self.arena_receivers[at] = new;
        self.arena_factors[at] = f;
    }

    /// Moves row `i` to the arena tail with doubled capacity, stranding
    /// its old extent (counted toward lazy compaction).
    fn relocate(&mut self, i: usize) {
        fading_obs::counter!("core.sparse.row_relocations").incr();
        let lo = self.row_start[i];
        let len = self.row_len[i] as usize;
        let cap = grown_row_cap(self.row_cap[i], self.row_len[i], self.n);
        let new_lo = self.arena_receivers.len();
        self.arena_receivers.resize(new_lo + cap as usize, 0);
        self.arena_factors.resize(new_lo + cap as usize, 0.0);
        self.arena_receivers.copy_within(lo..lo + len, new_lo);
        self.arena_factors.copy_within(lo..lo + len, new_lo);
        self.dead += self.row_cap[i] as usize;
        self.row_start[i] = new_lo;
        self.row_cap[i] = cap;
    }

    /// Repacks the arena once more than half of it is dead — amortized
    /// `O(stored)` across many mutations, never on the per-mutation hot
    /// path for healthy stores. Returns whether it repacked.
    fn maybe_compact(&mut self) -> bool {
        if self.dead == 0 || self.dead * 2 <= self.arena_receivers.len() {
            return false;
        }
        fading_obs::counter!("core.sparse.compactions").incr();
        let live: usize = self.row_len.iter().map(|&l| l as usize).sum();
        let mut recv = Vec::with_capacity(live);
        let mut fact = Vec::with_capacity(live);
        for i in 0..self.n {
            let lo = self.row_start[i];
            let len = self.row_len[i] as usize;
            self.row_start[i] = recv.len();
            self.row_cap[i] = self.row_len[i];
            recv.extend_from_slice(&self.arena_receivers[lo..lo + len]);
            fact.extend_from_slice(&self.arena_factors[lo..lo + len]);
        }
        self.arena_receivers = recv;
        self.arena_factors = fact;
        self.dead = 0;
        true
    }
}

/// The timed sub-phases of [`SparseInterference::apply_batch`]. Each
/// has a `problem.apply.<name>` histogram of nanoseconds per batch
/// (see `docs/telemetry.md`).
enum ApplyPhase {
    /// Removing each departing receiver from the rows that store it.
    ColDrop,
    /// Renaming the last id to the removed one in the rows that store
    /// it.
    TailRename,
    /// The per-link vector and hash swap-removes.
    SwapRemove,
    /// Pushing the new lengths, the envelope reconcile, and the new
    /// links' radii and cuts.
    Reconcile,
    /// Inserting each new receiver into the rows of its senders.
    ColWire,
    /// Building each new link's row and hashing its endpoints.
    RowWire,
    /// Repacking the arena (only batches that compacted charge it).
    Compact,
}

const APPLY_PHASES: usize = 7;

/// The `problem.apply.<phase>` histograms the sparse commit records
/// once per batch, in the order its phases first run: nanoseconds
/// spent per batch in column drop, tail rename, swap-removes, envelope
/// reconcile, column wire, row wire and compaction.
pub const APPLY_HISTOGRAMS: [&str; APPLY_PHASES] = [
    "problem.apply.col_drop",
    "problem.apply.tail_rename",
    "problem.apply.swap_remove",
    "problem.apply.reconcile",
    "problem.apply.col_wire",
    "problem.apply.row_wire",
    "problem.apply.compact",
];

/// The histograms, registered on first use so a batch never takes the
/// registry lock.
fn apply_hists() -> &'static [fading_obs::Histogram; APPLY_PHASES] {
    static HISTS: std::sync::OnceLock<[fading_obs::Histogram; APPLY_PHASES]> =
        std::sync::OnceLock::new();
    HISTS.get_or_init(|| {
        // 100 ns to 10 s in decades.
        let bounds = [1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10];
        std::array::from_fn(|i| fading_obs::histogram(APPLY_HISTOGRAMS[i], &bounds))
    })
}

/// Per-receiver truncation radius and certified cut: the distance at
/// which the worst-case factor onto a receiver of length `d_jj` drops
/// to `τ`, clamped to the instance diameter (⇒ exhaustive, cut 0). The
/// single code path `build` and the in-place mutation
/// reconcile share, so mutated radii are bit-identical to fresh ones.
#[inline]
fn truncation_for(
    channel: &RayleighChannel,
    length: f64,
    power_ratio: f64,
    tau: f64,
    diameter: f64,
) -> (f64, f64) {
    let alpha = channel.params.alpha;
    let gamma_th = channel.params.gamma_th;
    let r = length * (gamma_th * power_ratio / tau.exp_m1()).powf(1.0 / alpha);
    if r >= diameter || !r.is_finite() {
        (diameter, 0.0)
    } else {
        (r, tau)
    }
}

/// The maximum power scale of a profile — `1.0` for uniform power
/// **and for an empty profile** (a zero-link store with explicit
/// powers previously poisoned the envelope with `fold`'s `f64::MIN`
/// identity). The single code path `build` and `refresh_envelope`
/// share, so mutate ≡ rebuild holds bit for bit.
#[inline]
fn max_power_scale(powers: Option<&[f64]>) -> f64 {
    match powers {
        None => 1.0,
        Some([]) => 1.0,
        Some(p) => p.iter().copied().fold(f64::MIN, f64::max),
    }
}

/// Doubled row capacity for relocation, computed in 64-bit and clamped
/// to the largest useful extent (a row stores at most `n − 1`
/// receivers), so arenas near the `u32` limit cannot silently truncate
/// the capacity — the old `cap as u32` cast wrapped.
///
/// # Panics
/// Panics (checked, never wrapping) if even the clamped capacity
/// exceeds `u32::MAX` — only reachable with more than `u32::MAX + 1`
/// links, which [`fading_net::LinkSet`] already rejects.
fn grown_row_cap(cap: u32, len: u32, n: usize) -> u32 {
    let max_useful = (n.saturating_sub(1) as u64).max(len as u64 + 1);
    let grown = (cap as u64 * 2).max(4).min(max_useful);
    u32::try_from(grown).expect("sparse row capacity exceeds the u32 arena index space")
}

/// The position of the first entry `≥ j` in `row`, a sorted,
/// duplicate-free run of ids below `n`: exactly
/// `row.partition_point(|&x| x < j)`. Dense ids carry no spatial
/// order, so a row's ids spread evenly over `0..n` and the first probe
/// at `len · j / n` lands within a few entries of the answer; a gallop
/// from there brackets it and a bisection finishes inside the bracket.
/// On the cold rows of a large arena that is about one cache miss where
/// a plain bisection pays `log₂ len` dependent ones. Clustered ids only
/// cost a longer gallop (`O(log distance)` probes): the result is exact
/// for any `j` and `n`, and only the speed relies on the spread.
fn seek(row: &[u32], j: u32, n: usize) -> usize {
    let len = row.len();
    if len == 0 {
        return 0;
    }
    let guess = ((len as u64).saturating_mul(j as u64) / (n as u64).max(1)).min(len as u64 - 1);
    let guess = guess as usize;
    // Bracket the answer in `lo..=hi` by doubling steps away from the
    // guess.
    let (mut lo, mut hi);
    if row[guess] < j {
        lo = guess + 1;
        let mut step = 1;
        loop {
            let probe = lo + step - 1;
            if probe >= len {
                hi = len;
                break;
            }
            if row[probe] >= j {
                hi = probe;
                break;
            }
            lo = probe + 1;
            step *= 2;
        }
    } else {
        hi = guess;
        let mut step = 1;
        loop {
            if hi < step {
                lo = 0;
                break;
            }
            let probe = hi - step;
            if row[probe] < j {
                lo = probe + 1;
                break;
            }
            hi = probe;
            step *= 2;
        }
    }
    lo + row[lo..hi].partition_point(|&x| x < j)
}

/// Diameter of the bounding box of all link endpoints — an upper bound
/// on any sender→receiver distance, hence the "store everything" radius
/// cap.
fn instance_diameter<'a>(endpoints: impl IntoIterator<Item = &'a Point2>) -> f64 {
    let mut min = Point2::new(f64::INFINITY, f64::INFINITY);
    let mut max = Point2::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
    for p in endpoints {
        min = Point2::new(min.x.min(p.x), min.y.min(p.y));
        max = Point2::new(max.x.max(p.x), max.y.max(p.y));
    }
    if min.x > max.x {
        return 1.0; // no endpoints
    }
    // Straight corner-to-corner distance; `Rect::new` would reject the
    // degenerate boxes real mutations produce (a single link, or every
    // endpoint on one axis-aligned line).
    let diag = min.distance(&max);
    if diag.is_finite() && diag > 0.0 {
        diag
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Problem;
    use fading_channel::ChannelParams;
    use fading_math::gamma_eps;
    use fading_net::{TopologyGenerator, UniformGenerator};

    fn paper_pair(n: usize, seed: u64, rtol: f64) -> (LinkSet, Problem, SparseInterference) {
        let links = UniformGenerator::paper(n).generate(seed);
        let channel = RayleighChannel::new(ChannelParams::paper_defaults());
        let dense = Problem::builder(links.clone(), channel.params).build();
        let sparse = SparseInterference::build(
            &links,
            &channel,
            None,
            gamma_eps(0.01),
            SparseConfig { tail_rtol: rtol },
        );
        (links, dense, sparse)
    }

    #[test]
    fn scalar_factors_are_bit_identical_to_dense() {
        let (links, dense, sparse) = paper_pair(40, 9, SparseConfig::DEFAULT_TAIL_RTOL);
        for i in links.ids() {
            for j in links.ids() {
                assert_eq!(
                    sparse.factor(i, j, None).to_bits(),
                    dense.factor(i, j).to_bits(),
                    "f({i},{j})"
                );
            }
        }
    }

    #[test]
    fn certified_config_is_exhaustive_at_paper_scale() {
        // Under the strictest cut the truncation radius (≈ 4642·d_jj at
        // α = 3) exceeds the paper region's 707-unit diameter for every
        // link, so the sparse store degenerates to an exact CSR: every
        // pair stored, all cuts zero.
        let (_, dense, sparse) = paper_pair(50, 10, SparseConfig::certified().tail_rtol);
        assert_eq!(sparse.max_tail_cut(), 0.0);
        assert_eq!(
            sparse.stored_factors(),
            (dense.len() * (dense.len() - 1)) as u64
        );
    }

    #[test]
    fn truncation_prunes_and_bounds_omitted_factors() {
        // A coarse cut on a spread-out instance must actually prune, and
        // every pruned factor must be below its receiver's cut.
        let (links, dense, sparse) = paper_pair(80, 11, 0.5);
        assert!(sparse.max_tail_cut() > 0.0, "0.5·γ_ε must truncate");
        assert!(sparse.stored_factors() < (links.len() * (links.len() - 1)) as u64);
        for i in links.ids() {
            let mut stored = vec![false; links.len()];
            sparse.for_each_out(i, &mut |j, f| {
                stored[j.index()] = true;
                assert_eq!(f.to_bits(), dense.factor(i, j).to_bits());
            });
            for j in links.ids() {
                if i != j && !stored[j.index()] {
                    let bound = sparse
                        .omitted_bound(i, j)
                        .expect("unstored pair is omitted");
                    assert!(
                        dense.factor(i, j) <= bound,
                        "omitted f({i},{j}) = {} exceeds cut {}",
                        dense.factor(i, j),
                        sparse.tail_cut(j)
                    );
                } else if i != j {
                    assert_eq!(sparse.omitted_bound(i, j), None, "stored ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn omitted_bound_covers_senders_just_past_the_radius() {
        // Senders on a circle of radius R_0 around receiver 0: rounding
        // puts some just outside it, where the factor can exceed the
        // bare cut by a few ULPs. The slackened bound must cover them.
        use fading_net::Link;
        let channel = RayleighChannel::new(ChannelParams::with_alpha(3.0));
        let store = |probes: &[Point2]| {
            let mut links = vec![
                Link::new(
                    LinkId(0),
                    Point2::new(0.0, 0.0),
                    Point2::new(10.0, 0.0),
                    1.0,
                ),
                Link::new(
                    LinkId(1),
                    Point2::new(5e3, 5e3),
                    Point2::new(5e3 + 10.0, 5e3),
                    1.0,
                ),
            ];
            for (k, &s) in probes.iter().enumerate() {
                let r = Point2::new(s.x + 3.0 + (k % 5) as f64 * 0.01, s.y + 1.0);
                links.push(Link::new(LinkId(2 + k as u32), s, r, 1.0));
            }
            let links = LinkSet::new(fading_geom::Rect::square(2e4), links);
            let config = SparseConfig::default();
            SparseInterference::build(&links, &channel, None, gamma_eps(0.01), config)
        };
        let r = store(&[]).radius[0];
        let probes: Vec<Point2> = (0..4000)
            .map(|k| {
                let (theta, d) = (k as f64 * 1.5707e-3, r * (1.0 + (k % 7) as f64 * 1e-16));
                Point2::new(10.0 + d * theta.cos(), d * theta.sin())
            })
            .collect();
        let s = store(&probes);
        assert_eq!(s.radius[0], r);
        let (mut omitted, mut past_cut) = (0, 0);
        for k in 0..probes.len() {
            let i = LinkId(2 + k as u32);
            if let Some(bound) = s.omitted_bound(i, LinkId(0)) {
                let f = s.factor(i, LinkId(0), None);
                assert!(f <= bound, "f({i}, 0) = {f} exceeds {bound}");
                omitted += 1;
                past_cut += usize::from(f > s.tail_cut(LinkId(0)));
            }
        }
        assert!(
            omitted > 0 && past_cut > 0,
            "{omitted} omitted, {past_cut} past the cut"
        );
        assert_eq!(
            s.omitted_bound(LinkId(1), LinkId(0)),
            Some(s.tail_cut(LinkId(0)) * (1.0 + CUT_RTOL))
        );
    }

    #[test]
    fn power_scales_honored() {
        let links = UniformGenerator::paper(30).generate(13);
        let channel = RayleighChannel::new(ChannelParams::paper_defaults());
        let powers: Vec<f64> = (0..30).map(|i| 0.5 + (i % 5) as f64 * 0.5).collect();
        let dense = Problem::builder(links.clone(), channel.params)
            .power_scales(powers.clone())
            .build();
        let sparse = SparseInterference::build(
            &links,
            &channel,
            Some(&powers),
            gamma_eps(0.01),
            SparseConfig::default(),
        );
        for i in links.ids() {
            for j in links.ids() {
                assert_eq!(
                    sparse.factor(i, j, Some(&powers)).to_bits(),
                    dense.factor(i, j).to_bits()
                );
            }
        }
    }

    #[test]
    fn empty_and_singleton_instances() {
        let channel = RayleighChannel::new(ChannelParams::paper_defaults());
        let empty = LinkSet::new(fading_geom::Rect::square(1.0), vec![]);
        let config = SparseConfig::default();
        let s = SparseInterference::build(&empty, &channel, None, gamma_eps(0.01), config);
        assert!(s.is_empty());
        assert_eq!(s.stored_factors(), 0);

        let one = UniformGenerator::paper(1).generate(15);
        let s = SparseInterference::build(&one, &channel, None, gamma_eps(0.01), config);
        assert_eq!(s.len(), 1);
        assert_eq!(s.stored_factors(), 0);
        assert_eq!(s.factor(LinkId(0), LinkId(0), None), 0.0);
    }

    /// Fresh build over the same geometry under `powers`, for
    /// mutation-parity checks.
    fn rebuild_of(s: &SparseInterference, powers: Option<&[f64]>) -> SparseInterference {
        let (senders, receivers) = (s.sender_hash.points(), s.receiver_hash.points());
        let links: Vec<fading_net::Link> = (0..s.n)
            .map(|i| fading_net::Link::new(LinkId(i as u32), senders[i], receivers[i], 1.0))
            .collect();
        let region = fading_geom::Rect::square(1e6);
        SparseInterference::build(
            &LinkSet::new(region, links),
            &s.channel,
            powers,
            s.tau / s.tail_rtol,
            SparseConfig {
                tail_rtol: s.tail_rtol,
            },
        )
    }

    #[test]
    fn add_and_remove_match_fresh_build() {
        for rtol in [SparseConfig::DEFAULT_TAIL_RTOL, 0.5] {
            let full = UniformGenerator::paper(90).generate(17);
            let channel = RayleighChannel::new(ChannelParams::paper_defaults());
            let head = {
                let keep: Vec<LinkId> = (0..60).map(LinkId).collect();
                full.restrict(&keep).0
            };
            let mut s = SparseInterference::build(
                &head,
                &channel,
                None,
                gamma_eps(0.01),
                SparseConfig { tail_rtol: rtol },
            );
            for t in 60..90 {
                let l = full.link(LinkId(t));
                s.apply_batch(&[], &[LinkSpec::new(l.sender, l.receiver)], None);
                if t % 9 == 0 || t == 89 {
                    assert_eq!(s, rebuild_of(&s, None), "rtol {rtol} after add {t}");
                }
            }
            // Interleave removals (interior, tail, repeated) with adds.
            for k in [3u32, 88, 0, 40, 40] {
                s.apply_batch(&[LinkId(k)], &[], None);
                assert_eq!(s, rebuild_of(&s, None), "rtol {rtol} after remove {k}");
            }
        }
    }

    #[test]
    fn powered_mutation_reconciles_the_envelope() {
        // Adding a higher-power link grows every receiver's truncation
        // radius (annulus inserts); removing it shrinks them back
        // (annulus removals). Both must land exactly on the fresh
        // build. A coarse cut keeps the store truncated so the
        // envelope actually moves.
        let links = UniformGenerator::paper(70).generate(18);
        let channel = RayleighChannel::new(ChannelParams::paper_defaults());
        let mut powers: Vec<f64> = (0..70).map(|i| 0.5 + (i % 4) as f64 * 0.25).collect();
        let mut s = SparseInterference::build(
            &links,
            &channel,
            Some(&powers),
            gamma_eps(0.01),
            SparseConfig { tail_rtol: 0.5 },
        );
        assert!(s.max_tail_cut() > 0.0, "0.5·γ_ε must truncate");
        let extra = UniformGenerator::paper(80).generate(19);
        let l = extra.link(LinkId(75));
        // The problem commits its power scales before the store.
        powers.push(4.0);
        s.apply_batch(
            &[],
            &[LinkSpec::new(l.sender, l.receiver).with_power_scale(4.0)],
            Some(&powers),
        );
        assert_eq!(s, rebuild_of(&s, Some(&powers)), "after high-power add");
        powers.swap_remove(70);
        s.apply_batch(&[LinkId(70)], &[], Some(&powers));
        assert_eq!(s, rebuild_of(&s, Some(&powers)), "after high-power remove");
    }

    #[test]
    fn drain_and_refill() {
        let links = UniformGenerator::paper(25).generate(21);
        let channel = RayleighChannel::new(ChannelParams::paper_defaults());
        let mut s = SparseInterference::build(
            &links,
            &channel,
            None,
            gamma_eps(0.01),
            SparseConfig::default(),
        );
        while !s.is_empty() {
            s.apply_batch(&[LinkId(s.len() as u32 / 2)], &[], None);
        }
        assert!(s.is_empty());
        for i in 0..25 {
            let l = links.link(LinkId(i));
            s.apply_batch(&[], &[LinkSpec::new(l.sender, l.receiver)], None);
        }
        assert_eq!(s, rebuild_of(&s, None));
        assert!(s.stored_factors() > 0);
    }

    #[test]
    fn batch_matches_sequential_and_fresh_build() {
        // apply_batch defers the envelope reconcile and compaction to
        // the end of the batch; the result must still be bit-identical
        // to a chain of one-mutation batches (and hence the fresh
        // build). k = 50 > 32 also exercises the transient-hash row
        // gather.
        for rtol in [SparseConfig::DEFAULT_TAIL_RTOL, 0.5] {
            let full = UniformGenerator::paper(90).generate(29);
            let channel = RayleighChannel::new(ChannelParams::paper_defaults());
            let head = {
                let keep: Vec<LinkId> = (0..40).map(LinkId).collect();
                full.restrict(&keep).0
            };
            let built = SparseInterference::build(
                &head,
                &channel,
                None,
                gamma_eps(0.01),
                SparseConfig { tail_rtol: rtol },
            );
            let removes = [LinkId(35), LinkId(12), LinkId(0)];
            let specs: Vec<LinkSpec> = (40..90)
                .map(|t| {
                    let l = full.link(LinkId(t));
                    LinkSpec::new(l.sender, l.receiver)
                })
                .collect();
            let mut sequential = built.clone();
            for &k in &removes {
                sequential.apply_batch(&[k], &[], None);
            }
            for spec in &specs {
                sequential.apply_batch(&[], std::slice::from_ref(spec), None);
            }
            let mut batched = built.clone();
            batched.apply_batch(&removes, &specs, None);
            assert_eq!(batched, sequential, "rtol {rtol}");
            assert_eq!(batched, rebuild_of(&batched, None), "rtol {rtol} vs fresh");
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let links = UniformGenerator::paper(30).generate(31);
        let channel = RayleighChannel::new(ChannelParams::paper_defaults());
        let built = SparseInterference::build(
            &links,
            &channel,
            None,
            gamma_eps(0.01),
            SparseConfig::default(),
        );
        let mut s = built.clone();
        s.apply_batch(&[], &[], None);
        assert_eq!(s, built, "empty batch must not touch the store");
    }

    #[test]
    fn grown_row_cap_doubles_clamps_and_checks_the_boundary() {
        // Ordinary growth: double, floor of 4, clamp to n − 1.
        assert_eq!(grown_row_cap(0, 0, 10), 4);
        assert_eq!(grown_row_cap(3, 3, 100), 6);
        assert_eq!(grown_row_cap(6, 6, 8), 7, "clamped to n - 1 receivers");
        // Synthetic degree profile at the u32 boundary: doubling a
        // 2³¹-entry row used to evaluate `(cap as usize * 2) as u32`
        // = 2³² mod 2³² = **0**, a silently wrapped zero capacity. The
        // 64-bit arithmetic clamps to the largest useful extent
        // (n − 1 stored receivers) instead.
        let huge_n = u32::MAX as usize; // n − 1 = u32::MAX − 1 receivers
        assert_eq!(
            grown_row_cap(1 << 31, 2_000_000_000, huge_n),
            u32::MAX - 1,
            "doubling past u32::MAX clamps to n - 1 instead of wrapping"
        );
        assert_eq!(
            grown_row_cap(u32::MAX - 1, u32::MAX - 2, huge_n),
            u32::MAX - 1
        );
        // A full row keeps at least one insert slot of headroom even
        // when the n − 1 clamp would forbid growth.
        assert_eq!(grown_row_cap(3, 3, 4), 4);
    }

    #[test]
    #[should_panic(expected = "u32 arena index space")]
    fn grown_row_cap_rejects_past_u32() {
        // Only reachable with > u32::MAX + 1 links; must be a checked
        // panic, not a silent wrap.
        grown_row_cap(u32::MAX, u32::MAX, u32::MAX as usize + 3);
    }

    #[test]
    fn instance_diameter_survives_degenerate_boxes() {
        // A single horizontal link spans a zero-height bounding box,
        // which `Rect::new` rejects; the diameter must not go through
        // it. (Surfaced by mutating an instance down to one link.)
        let s = [Point2::new(0.0, 5.0)];
        let r = [Point2::new(3.0, 5.0)];
        assert_eq!(instance_diameter(s.iter().chain(&r)), 3.0);
        // Coincident endpoints and the empty set fall back to 1.
        let p = [Point2::new(2.0, 2.0)];
        assert_eq!(instance_diameter(p.iter().chain(&p)), 1.0);
        assert_eq!(instance_diameter(&[] as &[Point2]), 1.0);
    }

    #[test]
    fn empty_powers_do_not_poison_the_envelope() {
        // A zero-link store with an explicit (empty) power profile used
        // to set max_scale = f64::MIN via the fold identity; the first
        // add then reconciled against garbage. Envelope values must
        // match the uniform-power empty store exactly.
        assert_eq!(max_power_scale(Some(&[])), 1.0);
        assert_eq!(max_power_scale(None), 1.0);
        assert_eq!(max_power_scale(Some(&[0.5, 2.0])), 2.0);
        let channel = RayleighChannel::new(ChannelParams::paper_defaults());
        let empty = LinkSet::new(fading_geom::Rect::square(1.0), vec![]);
        let mut s = SparseInterference::build(
            &empty,
            &channel,
            Some(&[]),
            gamma_eps(0.01),
            SparseConfig::default(),
        );
        assert_eq!(s.max_scale, 1.0);
        // Grow from empty with powered links; must equal a fresh build.
        let links = UniformGenerator::paper(6).generate(23);
        let mut powers = Vec::new();
        for i in 0..6 {
            let l = links.link(LinkId(i));
            let spec = LinkSpec::new(l.sender, l.receiver).with_power_scale(1.0 + i as f64 * 0.5);
            powers.push(spec.power_scale);
            s.apply_batch(&[], &[spec], Some(&powers));
        }
        assert_eq!(s, rebuild_of(&s, Some(&powers)));
    }

    #[test]
    fn row_slices_match_for_each_out() {
        let (links, _, sparse) = paper_pair(50, 24, 0.4);
        for i in links.ids() {
            let (recv, fact) = sparse.row_slices(i);
            let mut walked = Vec::new();
            sparse.for_each_out(i, &mut |j, f| walked.push((j.0, f)));
            let zipped: Vec<(u32, f64)> = recv.iter().copied().zip(fact.iter().copied()).collect();
            assert_eq!(zipped, walked);
        }
    }

    /// `seek` against `partition_point` at every entry, its
    /// neighbours, both ends of the `u32` range and one free probe.
    fn assert_seek_matches(row: &[u32], n: usize, free: u32) {
        let mut probes = vec![0, 1, u32::MAX - 1, u32::MAX, free];
        for &x in row {
            probes.extend([x.wrapping_sub(1), x, x.wrapping_add(1)]);
        }
        for j in probes {
            assert_eq!(
                seek(row, j, n),
                row.partition_point(|&x| x < j),
                "j = {j}, n = {n}, row = {row:?}"
            );
        }
    }

    #[test]
    fn seek_handles_the_corner_rows() {
        assert_seek_matches(&[], 1, 0);
        assert_seek_matches(&[], 0, 7);
        assert_seek_matches(&[0], 1, 0);
        assert_seek_matches(&[5], 10, 9);
        assert_seek_matches(&[0, 1, 2, 3, 4], 5, 2);
        assert_seek_matches(&[u32::MAX - 1, u32::MAX], 1 << 32, 3);
        // Every id clustered at the far end from the first probe.
        assert_seek_matches(&[99_990, 99_991, 99_995, 99_999], 100_000, 4);
        assert_seek_matches(&[0, 1, 2, 3], 100_000, 99_999);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The interpolated seek is `partition_point` on any sorted,
        /// duplicate-free row, whatever the spread of its ids: uniform
        /// over `0..n`, one dense run, a cluster at either end (the
        /// gallop's worst case), ids near `u32::MAX`, `n = 1`, and an
        /// `n` unrelated to the ids.
        #[test]
        fn seek_matches_partition_point(
            shape in 0usize..6,
            raw in proptest::collection::vec(0u32..u32::MAX, 0..300),
            n in 1u64..(1u64 << 32) + 1,
            free in 0u32..u32::MAX,
        ) {
            let len = raw.len() as u64;
            let (mut row, n): (Vec<u32>, u64) = match shape {
                0 => (raw.iter().map(|&x| (x as u64 % n) as u32).collect(), n),
                1 => {
                    let base = raw.first().map_or(0, |&x| x as u64 % n);
                    let end = (base + len).min(u32::MAX as u64 + 1);
                    ((base..end).map(|x| x as u32).collect(), n.max(end))
                }
                2 => {
                    // A window of width 4·len at the low or high end.
                    let width = (4 * len).max(1).min(n);
                    let lo = if free % 2 == 0 { 0 } else { n - width };
                    (raw.iter().map(|&x| (lo + x as u64 % width) as u32).collect(), n)
                }
                3 => (raw.iter().map(|&x| u32::MAX - x % 4096).collect(), 1 << 32),
                4 => (raw.iter().take(1).map(|_| 0).collect(), 1),
                _ => (raw.iter().map(|&x| x % 1_000_000).collect(), n % 100 + 1),
            };
            row.sort_unstable();
            row.dedup();
            assert_seek_matches(&row, n as usize, free);
        }
    }

    #[test]
    #[should_panic(expected = "tail_rtol")]
    fn rejects_non_positive_tail_rtol() {
        let links = UniformGenerator::paper(3).generate(16);
        let channel = RayleighChannel::new(ChannelParams::paper_defaults());
        SparseInterference::build(
            &links,
            &channel,
            None,
            gamma_eps(0.01),
            SparseConfig { tail_rtol: 0.0 },
        );
    }
}
