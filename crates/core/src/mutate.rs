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
//! needs handles that *survive* that renumbering — [`LinkIdMap`]
//! provides them by mirroring every mutation the problem performs.
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
/// [`LinkSpec`]s) and links to remove (by the *external* ids a
/// [`LinkIdMap`] handed out). [`crate::Problem::apply`] validates the
/// whole batch atomically — on any error nothing changes — and commits
/// it with one envelope reconciliation and one spatial-index patch
/// pass, so a batch of `k` mutations costs `O(N + k·degree)` instead
/// of `k` separate `O(N)` scans.
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
/// any error leaves the problem (and the [`LinkIdMap`]) untouched.
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
/// space.
///
/// External ids are `u64`s handed out once per added link and never
/// reused; dense ids are the contiguous `0..n` indices the problem's
/// matrices are addressed by. The map stays consistent by *mirroring*
/// the problem's mutations: call [`on_add`](Self::on_add) once per
/// appended link and [`on_swap_remove`](Self::on_swap_remove) once per
/// removed dense id, in the exact order the problem applied them —
/// which [`crate::Problem::apply`] does itself.
///
/// ```
/// use fading_core::LinkIdMap;
/// use fading_net::LinkId;
///
/// let mut map = LinkIdMap::with_len(3); // dense 0,1,2 ↔ external 0,1,2
/// let ext = map.on_add(); // dense 3
/// assert_eq!(map.dense(ext), Some(LinkId(3)));
/// map.on_swap_remove(LinkId(1)); // tail (dense 3) takes id 1
/// assert_eq!(map.dense(ext), Some(LinkId(1)));
/// assert_eq!(map.dense(1), None); // external 1 is gone
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkIdMap {
    /// External id of each dense slot.
    dense_to_ext: Vec<u64>,
    /// Inverse: external id → dense index.
    ext_to_dense: HashMap<u64, u32>,
    /// Next external id to hand out (monotone, never reused).
    next_ext: u64,
}

impl LinkIdMap {
    /// An empty map (for an engine that starts with no links).
    pub fn new() -> Self {
        Self::default()
    }

    /// A map over an existing instance of `n` links: dense id `i` gets
    /// external id `i`.
    pub fn with_len(n: usize) -> Self {
        let dense_to_ext: Vec<u64> = (0..n as u64).collect();
        let ext_to_dense = dense_to_ext.iter().map(|&e| (e, e as u32)).collect();
        Self {
            dense_to_ext,
            ext_to_dense,
            next_ext: n as u64,
        }
    }

    /// Registers one appended link (dense id = previous `len`) and
    /// returns its external handle. Mirror of one added
    /// [`crate::Problem::apply`] element, applied in spec order.
    pub fn on_add(&mut self) -> u64 {
        let ext = self.next_ext;
        self.next_ext += 1;
        self.ext_to_dense
            .insert(ext, self.dense_to_ext.len() as u32);
        self.dense_to_ext.push(ext);
        ext
    }

    /// Registers the removal of dense id `dense` with swap-remove
    /// semantics (the tail link takes its id), returning the removed
    /// link's external handle. Mirror of one removal step of
    /// [`crate::Problem::apply`] (descending dense id).
    ///
    /// # Panics
    /// Panics if `dense` is out of range.
    pub fn on_swap_remove(&mut self, dense: LinkId) -> u64 {
        let k = dense.index();
        let removed = self.dense_to_ext.swap_remove(k);
        self.ext_to_dense.remove(&removed);
        if k < self.dense_to_ext.len() {
            // The tail's external id now lives at dense slot `k`.
            self.ext_to_dense.insert(self.dense_to_ext[k], k as u32);
        }
        removed
    }

    /// Current dense id of an external handle (`None` once removed).
    pub fn dense(&self, ext: u64) -> Option<LinkId> {
        self.ext_to_dense.get(&ext).map(|&k| LinkId(k))
    }

    /// External handle of a dense id.
    ///
    /// # Panics
    /// Panics if `dense` is out of range.
    pub fn external(&self, dense: LinkId) -> u64 {
        self.dense_to_ext[dense.index()]
    }

    /// Number of live links.
    pub fn len(&self) -> usize {
        self.dense_to_ext.len()
    }

    /// Whether no links are live.
    pub fn is_empty(&self) -> bool {
        self.dense_to_ext.is_empty()
    }

    /// External handles of all live links, in dense-id order.
    pub fn externals(&self) -> &[u64] {
        &self.dense_to_ext
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_remove_track_renumbering() {
        let mut map = LinkIdMap::with_len(4);
        assert_eq!(map.len(), 4);
        assert_eq!(map.external(LinkId(2)), 2);
        let e4 = map.on_add();
        assert_eq!(e4, 4);
        assert_eq!(map.dense(e4), Some(LinkId(4)));

        // Remove dense 1: tail (dense 4 = external 4) takes id 1.
        assert_eq!(map.on_swap_remove(LinkId(1)), 1);
        assert_eq!(map.dense(1), None);
        assert_eq!(map.dense(e4), Some(LinkId(1)));
        assert_eq!(map.external(LinkId(1)), e4);
        assert_eq!(map.len(), 4);

        // Removing the tail itself moves nothing.
        assert_eq!(map.on_swap_remove(LinkId(3)), 3);
        assert_eq!(map.dense(3), None);
        assert_eq!(map.len(), 3);
        assert_eq!(map.externals(), &[0, e4, 2]);
    }

    #[test]
    fn external_ids_are_never_reused() {
        let mut map = LinkIdMap::new();
        let a = map.on_add();
        map.on_swap_remove(LinkId(0));
        let b = map.on_add();
        assert_ne!(a, b);
        assert_eq!(map.dense(b), Some(LinkId(0)));
    }

    #[test]
    fn drain_to_empty() {
        let mut map = LinkIdMap::with_len(3);
        while !map.is_empty() {
            map.on_swap_remove(LinkId(0));
        }
        assert_eq!(map.dense(0), None);
        let e = map.on_add();
        assert_eq!(e, 3);
        assert_eq!(map.dense(e), Some(LinkId(0)));
    }
}
