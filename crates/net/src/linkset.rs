//! Sets of links — the scheduling instance.

use crate::link::{validate_link, Link, LinkId};
use fading_geom::{Point2, Rect};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Hashable identity key of a coordinate pair: exact bit patterns with
/// `-0.0` normalized onto `+0.0`, so two points compare equal iff their
/// coordinates are numerically equal. Lets the duplicate-position
/// validation run in `O(N)` instead of the former `O(N²)` pair scan —
/// at the 10⁵-link scale the sparse interference backend targets, the
/// pair scan alone would dominate instance construction. Public so
/// incremental callers (e.g. `fading-core`'s batch mutation path) can
/// maintain their own position indexes with the exact same equality.
#[inline]
pub fn position_key(p: &Point2) -> (u64, u64) {
    ((p.x + 0.0).to_bits(), (p.y + 0.0).to_bits())
}

/// A scheduling instance: `N` links inside a deployment region.
///
/// Invariants enforced at construction (mirroring Section II of the
/// paper): senders are pairwise distinct, receivers are pairwise
/// distinct, every link has positive length and rate, and link ids equal
/// storage indices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkSet {
    region: Rect,
    links: Vec<Link>,
}

impl LinkSet {
    /// Builds a validated link set.
    ///
    /// # Panics
    /// Panics if ids are not `0..N` in order, or two senders (or two
    /// receivers) coincide. (A sender may coincide with a *different*
    /// link's receiver; the model only forbids shared senders/receivers.)
    /// Use [`LinkSet::try_new`] for recoverable validation of external
    /// data.
    pub fn new(region: Rect, links: Vec<Link>) -> Self {
        match Self::try_new(region, links) {
            Ok(set) => set,
            Err(e) => panic!("invalid link set: {e}"),
        }
    }

    /// Fallible constructor: returns the first validation failure
    /// instead of panicking.
    pub fn try_new(region: Rect, links: Vec<Link>) -> Result<Self, crate::error::ValidationError> {
        use crate::error::ValidationError as E;
        // Ids double as u32 arena indices in the interference stores;
        // `len as u32` below would silently truncate past this point.
        if links.len() > u32::MAX as usize {
            return Err(E::CapacityExceeded {
                requested: links.len(),
            });
        }
        for (i, l) in links.iter().enumerate() {
            if l.id.index() != i {
                return Err(E::MisnumberedId {
                    slot: i,
                    found: l.id,
                });
            }
            // Links deserialized from external files bypass Link::new's
            // checks; re-validate them here.
            validate_link(l.id, l.sender, l.receiver, l.rate)?;
        }
        let mut senders: HashMap<(u64, u64), LinkId> = HashMap::with_capacity(links.len());
        let mut receivers: HashMap<(u64, u64), LinkId> = HashMap::with_capacity(links.len());
        for l in &links {
            if let Some(&first) = senders.get(&position_key(&l.sender)) {
                return Err(E::DuplicateSender(first, l.id));
            }
            senders.insert(position_key(&l.sender), l.id);
            if let Some(&first) = receivers.get(&position_key(&l.receiver)) {
                return Err(E::DuplicateReceiver(first, l.id));
            }
            receivers.insert(position_key(&l.receiver), l.id);
        }
        Ok(Self { region, links })
    }

    /// Deployment region.
    pub fn region(&self) -> &Rect {
        &self.region
    }

    /// Number of links `N`.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the instance has no links.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// The link with the given id.
    #[inline]
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// All links in id order.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Iterator over link ids `0..N`.
    pub fn ids(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.links.len() as u32).map(LinkId)
    }

    /// Distance `d_{i,j}` from sender of link `i` to receiver of link `j`.
    /// For `i == j` this is the link length `d_{j,j}`.
    #[inline]
    pub fn sender_receiver_distance(&self, i: LinkId, j: LinkId) -> f64 {
        self.links[i.index()]
            .sender
            .distance(&self.links[j.index()].receiver)
    }

    /// Length of link `i` (`d_{i,i}`).
    #[inline]
    pub fn length(&self, i: LinkId) -> f64 {
        self.links[i.index()].length()
    }

    /// Shortest link length `δ` (`None` for an empty set).
    pub fn min_length(&self) -> Option<f64> {
        self.links.iter().map(Link::length).min_by(f64::total_cmp)
    }

    /// Longest link length (`None` for an empty set).
    pub fn max_length(&self) -> Option<f64> {
        self.links.iter().map(Link::length).max_by(f64::total_cmp)
    }

    /// Sum of all rates — the upper bound on any schedule's utility.
    pub fn total_rate(&self) -> f64 {
        self.links.iter().map(|l| l.rate).sum()
    }

    /// Whether every link carries the same rate (RLE's special case).
    pub fn has_uniform_rates(&self) -> bool {
        match self.links.split_first() {
            None => true,
            Some((first, rest)) => rest.iter().all(|l| l.rate == first.rate),
        }
    }

    /// Sender positions in id order (for spatial indexing).
    pub fn sender_positions(&self) -> Vec<Point2> {
        self.links.iter().map(|l| l.sender).collect()
    }

    /// Receiver positions in id order.
    pub fn receiver_positions(&self) -> Vec<Point2> {
        self.links.iter().map(|l| l.receiver).collect()
    }

    /// Appends a link under id `len()`. A plain push: the caller has
    /// *already* run [`validate_link`] and checked capacity and the
    /// uniqueness of both positions against every stored
    /// sender/receiver (e.g. via the position index `fading-core`'s
    /// mutation batches maintain), so a `k`-link batch costs `O(k)`.
    ///
    /// Appending an invalid link through this method violates the set's
    /// invariants; it is the caller's contract to prevent that.
    pub fn append_prechecked(&mut self, sender: Point2, receiver: Point2, rate: f64) {
        let id = LinkId(self.links.len() as u32);
        debug_assert!(validate_link(id, sender, receiver, rate).is_ok());
        self.links.push(Link {
            id,
            sender,
            receiver,
            rate,
        });
    }

    /// Removes link `id` in place with `Vec::swap_remove` semantics:
    /// the link previously holding the largest id is renumbered to
    /// `id`, keeping ids dense (`0..N`). Returns the *old* id of the
    /// renumbered link (`== id` when removing the tail), so callers
    /// can mirror the renumbering in their own per-link state.
    ///
    /// # Panics
    /// Panics if `id` is out of bounds.
    pub fn swap_remove(&mut self, id: LinkId) -> LinkId {
        let last = LinkId(self.links.len() as u32 - 1);
        self.links.swap_remove(id.index());
        if id != last {
            self.links[id.index()].id = id;
        }
        last
    }

    /// A new instance containing only `keep` (ids are renumbered to be
    /// dense; the returned mapping gives `new id → old id`).
    pub fn restrict(&self, keep: &[LinkId]) -> (LinkSet, Vec<LinkId>) {
        let mut mapping = Vec::with_capacity(keep.len());
        let links = keep
            .iter()
            .enumerate()
            .map(|(new_idx, &old)| {
                mapping.push(old);
                let l = self.link(old);
                Link::new(LinkId(new_idx as u32), l.sender, l.receiver, l.rate)
            })
            .collect();
        (LinkSet::new(self.region, links), mapping)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Segment = ((f64, f64), (f64, f64));

    fn mk(points: &[Segment]) -> LinkSet {
        let links = points
            .iter()
            .enumerate()
            .map(|(i, &(s, r))| Link::new(LinkId(i as u32), s.into(), r.into(), 1.0))
            .collect();
        LinkSet::new(Rect::square(100.0), links)
    }

    #[test]
    fn basic_accessors() {
        let ls = mk(&[((0.0, 0.0), (3.0, 4.0)), ((10.0, 10.0), (10.0, 12.0))]);
        assert_eq!(ls.len(), 2);
        assert_eq!(ls.length(LinkId(0)), 5.0);
        assert_eq!(ls.length(LinkId(1)), 2.0);
        assert_eq!(ls.min_length(), Some(2.0));
        assert_eq!(ls.max_length(), Some(5.0));
        assert_eq!(ls.total_rate(), 2.0);
        assert!(ls.has_uniform_rates());
    }

    #[test]
    fn cross_distances() {
        let ls = mk(&[((0.0, 0.0), (1.0, 0.0)), ((10.0, 0.0), (11.0, 0.0))]);
        // sender 0 → receiver 1
        assert_eq!(ls.sender_receiver_distance(LinkId(0), LinkId(1)), 11.0);
        // sender 1 → receiver 0
        assert_eq!(ls.sender_receiver_distance(LinkId(1), LinkId(0)), 9.0);
        // diagonal equals link length
        assert_eq!(
            ls.sender_receiver_distance(LinkId(0), LinkId(0)),
            ls.length(LinkId(0))
        );
    }

    #[test]
    fn empty_set_is_fine() {
        let ls = LinkSet::new(Rect::square(1.0), vec![]);
        assert!(ls.is_empty());
        assert_eq!(ls.min_length(), None);
        assert!(ls.has_uniform_rates());
        assert_eq!(ls.total_rate(), 0.0);
    }

    #[test]
    fn non_uniform_rates_detected() {
        let links = vec![
            Link::new(LinkId(0), Point2::origin(), Point2::new(1.0, 0.0), 1.0),
            Link::new(LinkId(1), Point2::new(5.0, 5.0), Point2::new(6.0, 5.0), 2.0),
        ];
        let ls = LinkSet::new(Rect::square(10.0), links);
        assert!(!ls.has_uniform_rates());
    }

    #[test]
    fn restrict_renumbers_and_maps() {
        let ls = mk(&[
            ((0.0, 0.0), (1.0, 0.0)),
            ((10.0, 0.0), (11.0, 0.0)),
            ((20.0, 0.0), (21.0, 0.0)),
        ]);
        let (sub, map) = ls.restrict(&[LinkId(2), LinkId(0)]);
        assert_eq!(sub.len(), 2);
        assert_eq!(map, vec![LinkId(2), LinkId(0)]);
        assert_eq!(sub.link(LinkId(0)).sender, Point2::new(20.0, 0.0));
        assert_eq!(sub.link(LinkId(1)).sender, Point2::new(0.0, 0.0));
    }

    #[test]
    fn swap_remove_renumbers_the_tail() {
        let mut ls = mk(&[
            ((0.0, 0.0), (1.0, 0.0)),
            ((10.0, 0.0), (11.0, 0.0)),
            ((20.0, 0.0), (21.0, 0.0)),
        ]);
        let moved = ls.swap_remove(LinkId(0));
        assert_eq!(moved, LinkId(2));
        assert_eq!(ls.len(), 2);
        assert_eq!(ls.link(LinkId(0)).sender, Point2::new(20.0, 0.0));
        assert_eq!(ls.link(LinkId(0)).id, LinkId(0));
        // Removing the tail moves nothing.
        let moved = ls.swap_remove(LinkId(1));
        assert_eq!(moved, LinkId(1));
        assert_eq!(ls.len(), 1);
        // Still a valid dense set.
        assert!(LinkSet::try_new(*ls.region(), ls.links().to_vec()).is_ok());
    }

    #[test]
    fn try_new_reports_the_failure() {
        use crate::error::ValidationError;
        // Duplicate sender.
        let links = vec![
            Link::new(LinkId(0), Point2::origin(), Point2::new(1.0, 0.0), 1.0),
            Link::new(LinkId(1), Point2::origin(), Point2::new(0.0, 1.0), 1.0),
        ];
        assert_eq!(
            LinkSet::try_new(Rect::square(10.0), links),
            Err(ValidationError::DuplicateSender(LinkId(0), LinkId(1)))
        );
        // Misnumbered id.
        let links = vec![Link::new(
            LinkId(2),
            Point2::origin(),
            Point2::new(1.0, 0.0),
            1.0,
        )];
        assert!(matches!(
            LinkSet::try_new(Rect::square(10.0), links),
            Err(ValidationError::MisnumberedId { slot: 0, .. })
        ));
        // Valid set round-trips.
        let links = vec![Link::new(
            LinkId(0),
            Point2::origin(),
            Point2::new(1.0, 0.0),
            1.0,
        )];
        assert!(LinkSet::try_new(Rect::square(10.0), links).is_ok());
    }

    #[test]
    fn try_new_catches_serde_smuggled_invalid_links() {
        // Deserialization bypasses Link::new; try_new must catch the
        // resulting zero-length / bad-rate links.
        let json = r#"{
            "region": {"x0": 0.0, "y0": 0.0, "x1": 10.0, "y1": 10.0},
            "links": [{
                "id": 0,
                "sender": {"x": 1.0, "y": 1.0},
                "receiver": {"x": 1.0, "y": 1.0},
                "rate": 1.0
            }]
        }"#;
        let raw: LinkSet = serde_json::from_str(json).unwrap();
        assert!(matches!(
            LinkSet::try_new(*raw.region(), raw.links().to_vec()),
            Err(crate::error::ValidationError::ZeroLengthLink(_))
        ));
    }

    #[test]
    #[should_panic(expected = "expected l0")]
    fn rejects_misnumbered_ids() {
        let links = vec![Link::new(
            LinkId(3),
            Point2::origin(),
            Point2::new(1.0, 0.0),
            1.0,
        )];
        LinkSet::new(Rect::square(10.0), links);
    }

    #[test]
    #[should_panic(expected = "share a sender position")]
    fn rejects_shared_sender() {
        let links = vec![
            Link::new(LinkId(0), Point2::origin(), Point2::new(1.0, 0.0), 1.0),
            Link::new(LinkId(1), Point2::origin(), Point2::new(0.0, 1.0), 1.0),
        ];
        LinkSet::new(Rect::square(10.0), links);
    }

    #[test]
    #[should_panic(expected = "share a receiver position")]
    fn rejects_shared_receiver() {
        let links = vec![
            Link::new(LinkId(0), Point2::origin(), Point2::new(1.0, 0.0), 1.0),
            Link::new(LinkId(1), Point2::new(2.0, 0.0), Point2::new(1.0, 0.0), 1.0),
        ];
        LinkSet::new(Rect::square(10.0), links);
    }
}
