//! Reusable per-algorithm scratch workspaces — the zero-allocation
//! scheduling engine's arena (see `docs/engine.md`).
//!
//! Every `schedule()` call needs scratch state: a length-sorted
//! candidate order, alive bitmaps, per-receiver debit ledgers, a
//! spatial index over senders, grid cells and color buckets. Building
//! those from scratch per call is pure overhead when the Monte-Carlo
//! runner, online engine, and multislot loop invoke the scheduler
//! thousands of times on near-identical instances. A [`SchedCtx`] owns
//! all of it with buffer reuse: after one warm-up call at a given size,
//! steady-state [`crate::Scheduler::schedule_in`] calls for RLE and LDP
//! touch the heap zero times (asserted by `tests/zero_alloc.rs`).
//!
//! # Contract
//!
//! * A ctx carries **no semantic state** between calls — only capacity.
//!   `schedule_in` with a dirty reused ctx is bit-identical to a fresh
//!   `schedule()` (pinned by `tests/ctx_equivalence.rs`).
//! * The [`crate::Scope`] is a `schedule_in` argument, never ctx
//!   state: memo witnesses carry the candidate ids (see
//!   `SchedCtx::order_is_cached`).
//! * **Warm start**: a ctx sized for a problem of `n` links serves any
//!   problem with at most `n` links, under any scope, without
//!   reallocating. [`SchedCtx::prepare`] pre-sizes explicitly.
//! * A ctx is `Send` but deliberately not shared: one ctx per thread
//!   (`fading-sim`'s `BatchRunner` keeps a pool with one ctx per rayon
//!   worker). Sharing one behind a lock would serialize the scheduler.

use fading_geom::{CellIndex, Point2, SpatialGrid};
use fading_net::LinkId;
use fading_obs::TraceEvent;
use std::collections::HashMap;

/// Which sort produced the cached [`SchedCtx`] candidate order (the
/// memo tag; see `SchedCtx::order_is_cached`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OrderKind {
    /// Nothing cached, or `order` was clobbered by a non-memoizing
    /// user (`SchedCtx::order_scratch`).
    #[default]
    None,
    /// The elimination/graph schedulers' (length asc, id asc) order.
    ElimLength,
    /// GreedyRate's (rate desc, length asc, id asc) order.
    GreedyRate,
}

/// Reusable scratch arena threaded through
/// [`crate::Scheduler::schedule_in`].
///
/// Fields are `pub(crate)`: the layout is an implementation detail of
/// the algorithms; external users only create, [`prepare`](Self::prepare),
/// and hand the ctx to `schedule_in`.
#[derive(Debug, Default)]
pub struct SchedCtx {
    // --- elimination schedulers (RLE, ApproxDiversity) ---
    /// Candidate ids in the algorithm's processing order.
    pub(crate) order: Vec<LinkId>,
    /// Alive bitmap indexed by link id.
    pub(crate) alive: Vec<bool>,
    /// Per-receiver accumulated-interference ledger.
    pub(crate) acc: Vec<f64>,
    /// Candidate sender positions in id order (spatial-index input).
    pub(crate) senders: Vec<Point2>,
    /// Compacted list of still-alive candidate ids, ascending.
    pub(crate) live: Vec<u32>,
    /// Reusable spatial index over `senders`.
    pub(crate) spatial: SpatialGrid,
    /// Per-receiver sums lent to the insertion schedulers'
    /// [`crate::feasibility::InterferenceAccumulator`].
    pub(crate) sums: Vec<f64>,
    // --- grid schedulers (LDP, ApproxLogN) ---
    /// Occupied cell -> slot in `winners`.
    pub(crate) cell_slot: HashMap<CellIndex, u32>,
    /// Per-cell winning link, in first-encounter (id) order.
    pub(crate) winners: Vec<(CellIndex, LinkId)>,
    /// Per-square-color winner buckets.
    pub(crate) per_color: [Vec<LinkId>; 4],
    /// Distinct length magnitudes (the class exponents `G(L)`).
    pub(crate) exponents: Vec<u32>,
    /// Best (class, color) member set seen so far.
    pub(crate) best_ids: Vec<LinkId>,
    // --- verified order memoization ---
    /// Which sort (if any) produced the current `order`.
    order_kind: OrderKind,
    /// [`crate::Problem::stamp`] of the instance that produced `order`
    /// (`0` = none). Equal stamps imply bit-identical problems, hence
    /// bit-identical sort keys — the fine-grained fast path that lets
    /// warm state survive a churn loop without the `O(n)` key
    /// extraction + compare per call. Mutations move the stamp once
    /// per *transaction*, not once per link — a whole
    /// [`crate::MutationBatch`] committed by [`crate::Problem::apply`]
    /// is a single bump — so a slot's worth of churn costs every
    /// stamp-keyed memo (this one and `grid_stamp`) exactly one
    /// invalidation.
    order_stamp: u64,
    /// Sort keys that produced `order` — the memo witness (the
    /// fallback when the stamp misses, e.g. across clones or rebuilt
    /// instances with identical content).
    order_keys: Vec<f64>,
    /// Scratch for the candidate keys of the current call.
    key_scratch: Vec<f64>,
    // --- verified grid-selection memoization (grid_core) ---
    /// Whether `best_ids` and the `grid_*` fields cache a valid
    /// selection for the witness in `grid_keys`.
    grid_valid: bool,
    /// Problem stamp of the cached grid selection (`0` = none); same
    /// fast-path contract as `order_stamp`. The scheduler-config header
    /// (mode, scale, anchor) is still compared on a stamp hit — it is
    /// not a function of the problem.
    grid_stamp: u64,
    /// Grid-selection inputs that produced `best_ids` (memo witness).
    grid_keys: Vec<f64>,
    /// Scratch for the candidate grid witness of the current call.
    grid_scratch: Vec<f64>,
    /// Cached winning (class, color, utility).
    pub(crate) grid_best: (u32, u32, f64),
    /// Cached (classes, cells, colors) scan counts for observability.
    pub(crate) grid_counts: (u64, u64, u64),
    // --- tracing ---
    /// Scratch block for [`crate::algo`]'s generic trace emission.
    pub(crate) trace_buf: Vec<TraceEvent>,
    /// Recycled `Schedule` member vectors (see [`Self::recycle`]).
    pool: Vec<Vec<LinkId>>,
}

impl SchedCtx {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A workspace pre-sized for problems of up to `n` links.
    pub fn with_capacity(n: usize) -> Self {
        let mut ctx = Self::new();
        ctx.prepare(n);
        ctx
    }

    /// Reserves every buffer for problems of up to `n` links, so
    /// subsequent `schedule_in` calls at that size (or smaller, under
    /// any scope) allocate nothing.
    ///
    /// Idempotent; growing an already-warm ctx only extends the
    /// shortfall.
    pub fn prepare(&mut self, n: usize) {
        self.order.reserve(n);
        self.alive.reserve(n);
        self.acc.reserve(n);
        self.senders.reserve(n);
        self.live.reserve(n);
        self.sums.reserve(n);
        self.winners.reserve(n);
        self.best_ids.reserve(n);
        self.exponents.reserve(n);
        self.cell_slot.reserve(n);
        self.order_keys.reserve(3 * n);
        self.key_scratch.reserve(3 * n);
        self.grid_keys.reserve(5 * n + 4);
        self.grid_scratch.reserve(5 * n + 4);
        for bucket in &mut self.per_color {
            bucket.reserve(n);
        }
    }

    /// Verified memoization for the candidate `order`.
    ///
    /// Returns `true` when `order` was produced by the same `kind` of
    /// sort over bit-identical `keys` — each candidate's id followed by
    /// its sort keys, in scope order. The comparator is a pure function
    /// of its keys and link ids, so identical inputs provably yield the
    /// identical total order and the caller may skip the O(k log k)
    /// re-sort. Otherwise stores `keys` as the new memo witness and
    /// returns `false`; the caller must rebuild `order`.
    ///
    /// Two-tier check: if `stamp` (the caller's [`crate::Scope::stamp`],
    /// nonzero only for the whole, unweighted problem) matches the
    /// cached one, the keys are provably bit-identical — equal stamps
    /// mean the *same content snapshot*, and the keys are a pure
    /// function of the problem — so the `O(n)` key extraction and
    /// compare are skipped entirely (the mutation-epoch fast path). Two
    /// scopes of one problem share its stamp, so a candidate scope
    /// always compares its witness. On a stamp miss the bit-compare
    /// fallback still catches content-identical instances with
    /// different stamps (clones mutated and reverted, independently
    /// built equals) and adopts the new stamp on a hit.
    ///
    /// This never changes *what* is computed, only whether a sort whose
    /// result is already in the buffer runs again: equivalence with a
    /// fresh workspace (`tests/ctx_equivalence.rs`) is unaffected. NaN
    /// keys never compare equal, so they conservatively force a rebuild.
    pub(crate) fn order_is_cached(
        &mut self,
        kind: OrderKind,
        stamp: u64,
        keys: impl Iterator<Item = f64>,
    ) -> bool {
        if self.order_kind == kind && stamp != 0 && self.order_stamp == stamp {
            fading_obs::counter!("core.ctx.order_stamp_hits").incr();
            return true;
        }
        self.key_scratch.clear();
        self.key_scratch.extend(keys);
        if self.order_kind == kind && self.order_keys == self.key_scratch {
            self.order_stamp = stamp;
            return true;
        }
        std::mem::swap(&mut self.order_keys, &mut self.key_scratch);
        self.order_kind = kind;
        self.order_stamp = stamp;
        false
    }

    /// `order` for a caller whose ordering is not memoized (shuffles,
    /// one-off passes). Invalidates the memo so a later memoizing
    /// caller cannot mistake the clobbered buffer for its own cache.
    pub(crate) fn order_scratch(&mut self) -> &mut Vec<LinkId> {
        self.order_kind = OrderKind::None;
        self.order_stamp = 0;
        &mut self.order
    }

    /// Verified memoization for the grid-partition selection phase
    /// (see `algo::grid_core`), same contract as [`Self::order_is_cached`]:
    /// `true` means `best_ids`/`grid_best`/`grid_counts` were produced
    /// from a bit-identical `header ++ keys` witness and may be reused
    /// verbatim. On `false` the memo is marked invalid; the caller must
    /// recompute and revalidate via [`Self::grid_store`].
    ///
    /// Stamp fast path as in [`Self::order_is_cached`]: the per-link
    /// `keys` (ids included) are a pure function of the problem and
    /// scope, so a stamp hit skips extracting them — but the `header`
    /// (class mode, square scale, grid anchor) is scheduler
    /// configuration, not problem content, and is always compared.
    pub(crate) fn grid_is_cached(
        &mut self,
        stamp: u64,
        header: [f64; 4],
        keys: impl Iterator<Item = f64>,
    ) -> bool {
        if self.grid_valid
            && stamp != 0
            && self.grid_stamp == stamp
            && self.grid_keys.get(..4) == Some(header.as_slice())
        {
            fading_obs::counter!("core.ctx.grid_stamp_hits").incr();
            return true;
        }
        self.grid_scratch.clear();
        self.grid_scratch.extend_from_slice(&header);
        self.grid_scratch.extend(keys);
        if self.grid_valid && self.grid_keys == self.grid_scratch {
            self.grid_stamp = stamp;
            return true;
        }
        std::mem::swap(&mut self.grid_keys, &mut self.grid_scratch);
        self.grid_valid = false;
        self.grid_stamp = stamp;
        false
    }

    /// Validates the grid memo after a fresh selection pass stored its
    /// winners in `best_ids`.
    pub(crate) fn grid_store(&mut self, best: (u32, u32, f64), counts: (u64, u64, u64)) {
        self.grid_best = best;
        self.grid_counts = counts;
        self.grid_valid = true;
    }

    /// Takes a cleared member vector from the recycle pool (or a new
    /// one) for building a `Schedule` without a fresh allocation.
    pub(crate) fn take_members(&mut self) -> Vec<LinkId> {
        self.pool.pop().unwrap_or_default()
    }

    /// Returns a finished schedule's backing vector to the pool, so the
    /// next `schedule_in` can reuse it. Steady-state loops that want
    /// true zero allocation must recycle the schedules they consume;
    /// loops that keep them simply pay one member-vec allocation per
    /// retained schedule.
    pub fn recycle(&mut self, schedule: crate::schedule::Schedule) {
        let mut members = schedule.into_vec();
        members.clear();
        self.pool.push(members);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;

    #[test]
    fn recycled_vectors_are_reused() {
        let mut ctx = SchedCtx::new();
        let mut members = ctx.take_members();
        members.extend([LinkId(2), LinkId(0)]);
        let cap = members.capacity();
        let s = Schedule::from_vec(members);
        assert_eq!(s.len(), 2);
        ctx.recycle(s);
        let back = ctx.take_members();
        assert!(back.is_empty());
        assert_eq!(back.capacity(), cap, "pool must preserve capacity");
    }

    #[test]
    fn prepare_reserves_without_touching_len() {
        let mut ctx = SchedCtx::with_capacity(128);
        assert!(ctx.order.capacity() >= 128);
        assert!(ctx.acc.capacity() >= 128);
        assert!(ctx.order.is_empty());
        ctx.prepare(64); // shrinking request is a no-op
        assert!(ctx.order.capacity() >= 128);
    }
}
