//! Incremental topology mutation support types (see `docs/online.md`).
//!
//! [`crate::Problem::apply`] is the one way to change a live instance:
//! it commits a [`MutationBatch`] — typed adds ([`LinkSpec`]) plus
//! removes by *external* id — validated atomically, with one envelope
//! reconciliation and one spatial-index patch pass for the whole
//! batch. It patches the instance in place, but it renumbers: dense
//! `LinkId`s must stay contiguous (`0..n`), so removal uses
//! `swap_remove` semantics and the tail link takes the vacated id. A
//! long-running engine (the churn simulator, an external controller)
//! needs handles that *survive* that renumbering: the problem keeps
//! them itself ([`crate::Problem::external`], [`crate::Problem::id_of`]).
//! A single-link change is a one-element batch.

use fading_geom::Point2;
use fading_net::{LinkId, ValidationError};
use std::collections::HashMap;

/// A link to be added to a live [`crate::Problem`] — the mutation
/// counterpart of constructing a [`fading_net::Link`] through a
/// generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Sender position.
    pub sender: Point2,
    /// Receiver position.
    pub receiver: Point2,
    /// Traffic rate / scheduling weight `λ_i` (must be positive finite).
    pub rate: f64,
    /// Transmit power scale (`scale × P`; 1 = the uniform paper model).
    pub power_scale: f64,
}

impl LinkSpec {
    /// A uniform-power, unit-rate link — the paper's model.
    pub fn new(sender: Point2, receiver: Point2) -> Self {
        Self {
            sender,
            receiver,
            rate: 1.0,
            power_scale: 1.0,
        }
    }

    /// Sets the traffic rate.
    pub fn with_rate(mut self, rate: f64) -> Self {
        self.rate = rate;
        self
    }

    /// Sets the transmit power scale.
    pub fn with_power_scale(mut self, power_scale: f64) -> Self {
        self.power_scale = power_scale;
        self
    }
}

/// A transaction over a live [`crate::Problem`]: links to add (typed
/// [`LinkSpec`]s) and links to remove (by the *external* ids the
/// problem handed out, see [`crate::Problem::external`]).
/// [`crate::Problem::apply`] validates the whole batch atomically — on
/// any error nothing changes — and commits it with one envelope
/// reconciliation and one spatial-index patch pass, so a batch of `k`
/// mutations costs `O(N + k·degree)` instead of `k` separate `O(N)`
/// scans.
///
/// The batch is reusable: [`clear`](Self::clear) keeps the allocations
/// so a per-slot loop builds each slot's transaction without touching
/// the heap once warm.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MutationBatch {
    adds: Vec<LinkSpec>,
    removes: Vec<u64>,
}

impl MutationBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a link to add; batch slot order is insertion order.
    pub fn add(&mut self, spec: LinkSpec) -> &mut Self {
        self.adds.push(spec);
        self
    }

    /// Queues a removal by external id. Duplicate ids are allowed and
    /// collapse to one removal.
    pub fn remove(&mut self, ext: u64) -> &mut Self {
        self.removes.push(ext);
        self
    }

    /// The queued adds, in slot order.
    pub fn adds(&self) -> &[LinkSpec] {
        &self.adds
    }

    /// Replaces the queued add at `slot` — the retry path after
    /// [`MutationError::InvalidAdd`] reported that slot (e.g. the churn
    /// engine resampling a measure-zero coordinate collision).
    ///
    /// # Panics
    /// Panics if `slot` is out of range.
    pub fn replace_add(&mut self, slot: usize, spec: LinkSpec) {
        self.adds[slot] = spec;
    }

    /// Drops the queued add at `slot`; the adds after it move down one
    /// slot (e.g. the churn engine giving up on an arrival that no
    /// resample could place).
    ///
    /// # Panics
    /// Panics if `slot` is out of range.
    pub fn drop_add(&mut self, slot: usize) {
        self.adds.remove(slot);
    }

    /// The queued removals (external ids, as queued).
    pub fn removes(&self) -> &[u64] {
        &self.removes
    }

    /// Whether the batch queues no mutations.
    pub fn is_empty(&self) -> bool {
        self.adds.is_empty() && self.removes.is_empty()
    }

    /// Number of queued mutations (adds plus removes).
    pub fn len(&self) -> usize {
        self.adds.len() + self.removes.len()
    }

    /// Empties the batch, keeping its allocations for reuse.
    pub fn clear(&mut self) {
        self.adds.clear();
        self.removes.clear();
    }
}

/// What [`crate::Problem::apply`] committed: the new links' external
/// handles (spec order) and the removed links' external handles (the
/// order the removals were applied in).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchReceipt {
    /// External id of each added link, in batch slot order.
    pub added: Vec<u64>,
    /// External id of each removed link, in application order
    /// (descending dense id, deduplicated).
    pub removed: Vec<u64>,
}

/// Why a [`MutationBatch`] was rejected. The batch is transactional:
/// any error leaves the problem (and its external handles) untouched.
#[derive(Debug, Clone, PartialEq)]
pub enum MutationError {
    /// A removal named an external id with no live link (never issued,
    /// or already removed).
    UnknownExternal(u64),
    /// An added spec failed validation. `slot` indexes the batch's
    /// [`adds`](MutationBatch::adds); the embedded error carries the
    /// id the link would have taken.
    InvalidAdd {
        /// Index into the batch's adds.
        slot: usize,
        /// The underlying validation failure.
        source: ValidationError,
    },
}

impl std::fmt::Display for MutationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MutationError::UnknownExternal(ext) => {
                write!(f, "removal names unknown external link id {ext}")
            }
            MutationError::InvalidAdd { slot, source } => {
                write!(f, "batch add slot {slot} is invalid: {source}")
            }
        }
    }
}

impl std::error::Error for MutationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MutationError::UnknownExternal(_) => None,
            MutationError::InvalidAdd { source, .. } => Some(source),
        }
    }
}

/// Stable external handles over the dense, renumbering [`LinkId`]
/// space, once a removal has broken the identity; a field of
/// [`crate::Problem`], which until its first removal needs none
/// (external id = dense index).
///
/// External ids are `u64`s handed out once per added link and never
/// reused; dense ids are the contiguous `0..n` indices the problem's
/// matrices are addressed by. [`commit`](Self::commit) replays one
/// batch's renumbering in the order [`crate::Problem::apply`] applies
/// it.
#[derive(Debug, Clone)]
pub(crate) struct LinkIdMap {
    /// External id of each dense slot.
    dense_to_ext: Vec<u64>,
    /// Inverse: external id → dense index.
    ext_to_dense: HashMap<u64, u32>,
    /// Next external id to hand out (monotone, never reused).
    next_ext: u64,
}

impl LinkIdMap {
    /// The identity map over `n` links: dense id `i` ↔ external id `i`.
    pub(crate) fn identity(n: usize) -> Self {
        let dense_to_ext: Vec<u64> = (0..n as u64).collect();
        let ext_to_dense = dense_to_ext.iter().map(|&e| (e, e as u32)).collect();
        Self {
            dense_to_ext,
            ext_to_dense,
            next_ext: n as u64,
        }
    }

    /// Replays one committed batch: the swap-removes of `removes`
    /// (strictly descending dense ids; the tail link takes each vacated
    /// id), then `adds` appended links, each given a fresh handle.
    pub(crate) fn commit(&mut self, removes: &[LinkId], adds: usize) -> BatchReceipt {
        let mut removed = Vec::with_capacity(removes.len());
        for &id in removes {
            let k = id.index();
            let ext = self.dense_to_ext.swap_remove(k);
            self.ext_to_dense.remove(&ext);
            if k < self.dense_to_ext.len() {
                // The tail's external id now lives at dense slot `k`.
                self.ext_to_dense.insert(self.dense_to_ext[k], k as u32);
            }
            removed.push(ext);
        }
        let added: Vec<u64> = (self.next_ext..self.next_ext + adds as u64).collect();
        self.next_ext += adds as u64;
        for &ext in &added {
            self.ext_to_dense
                .insert(ext, self.dense_to_ext.len() as u32);
            self.dense_to_ext.push(ext);
        }
        BatchReceipt { added, removed }
    }

    /// Current dense id of an external handle (`None` once removed).
    pub(crate) fn dense(&self, ext: u64) -> Option<LinkId> {
        self.ext_to_dense.get(&ext).map(|&k| LinkId(k))
    }

    /// External handle of a dense id.
    ///
    /// # Panics
    /// Panics if `dense` is out of range.
    pub(crate) fn external(&self, dense: LinkId) -> u64 {
        self.dense_to_ext[dense.index()]
    }
}
