//! Transmission links.

use crate::error::ValidationError;
use fading_geom::Point2;
use serde::{Deserialize, Serialize};

/// Identifier of a link within a [`crate::LinkSet`] — also the index of
/// the link in the set's storage, so lookups are O(1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LinkId(pub u32);

impl LinkId {
    /// The link's position in its set's storage.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for LinkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// A directed transmission link `(s_i, r_i)` with data rate `λ_i`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// Identifier (index within the owning set).
    pub id: LinkId,
    /// Sender position `s_i`.
    pub sender: Point2,
    /// Receiver position `r_i`.
    pub receiver: Point2,
    /// Data rate `λ_i` carried when the link succeeds.
    pub rate: f64,
}

/// The per-link checks every way into a link set runs — [`Link::new`],
/// [`crate::LinkSet::try_new`], and `fading-core`'s batch mutations:
/// finite coordinates, a nonzero length whose square is finite, and a
/// finite positive rate, in that order. `id` only labels the error.
pub fn validate_link(
    id: LinkId,
    sender: Point2,
    receiver: Point2,
    rate: f64,
) -> Result<(), ValidationError> {
    if !(sender.x.is_finite()
        && sender.y.is_finite()
        && receiver.x.is_finite()
        && receiver.y.is_finite())
    {
        return Err(ValidationError::NonFiniteCoordinate(id));
    }
    let length_sq = sender.distance_sq(&receiver);
    if length_sq == 0.0 {
        return Err(ValidationError::ZeroLengthLink(id));
    }
    if length_sq == f64::INFINITY {
        return Err(ValidationError::OverlongLink(id));
    }
    if !(rate.is_finite() && rate > 0.0) {
        return Err(ValidationError::BadRate { id, rate });
    }
    Ok(())
}

impl Link {
    /// Creates a link, validating geometry and rate.
    ///
    /// # Panics
    /// Panics if [`validate_link`] rejects it: a non-finite coordinate,
    /// coinciding sender and receiver, a length whose square overflows,
    /// or a rate that is not finite and positive.
    pub fn new(id: LinkId, sender: Point2, receiver: Point2, rate: f64) -> Self {
        if let Err(e) = validate_link(id, sender, receiver, rate) {
            panic!("invalid link: {e}");
        }
        Self {
            id,
            sender,
            receiver,
            rate,
        }
    }

    /// The link length `d_ii = |s_i − r_i|`.
    #[inline]
    pub fn length(&self) -> f64 {
        self.sender.distance(&self.receiver)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_is_sender_receiver_distance() {
        let l = Link::new(LinkId(0), Point2::new(0.0, 0.0), Point2::new(3.0, 4.0), 1.0);
        assert_eq!(l.length(), 5.0);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(LinkId(17).to_string(), "l17");
    }

    #[test]
    fn id_index_roundtrip() {
        assert_eq!(LinkId(5).index(), 5);
    }

    #[test]
    #[should_panic(expected = "zero length")]
    fn rejects_colocated_endpoints() {
        let p = Point2::new(1.0, 1.0);
        Link::new(LinkId(0), p, p, 1.0);
    }

    #[test]
    #[should_panic(expected = "too long")]
    fn rejects_links_whose_squared_length_overflows() {
        Link::new(
            LinkId(0),
            Point2::new(-8e307, 0.0),
            Point2::new(8e307, 0.0),
            1.0,
        );
    }

    #[test]
    fn the_longest_links_stay_finite() {
        let (s, r) = (Point2::new(1e300, 0.0), Point2::new(1e300, 1e154));
        assert!(validate_link(LinkId(0), s, r, 1.0).is_ok());
        assert!(Link::new(LinkId(0), s, r, 1.0).length().is_finite());
        let r = Point2::new(1e300, 1e285);
        assert_eq!(
            validate_link(LinkId(4), s, r, 1.0),
            Err(ValidationError::OverlongLink(LinkId(4)))
        );
    }

    #[test]
    #[should_panic(expected = "invalid rate")]
    fn rejects_zero_rate() {
        Link::new(LinkId(0), Point2::origin(), Point2::new(1.0, 0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-finite coordinate")]
    fn rejects_non_finite_coordinates() {
        Link::new(LinkId(0), Point2::origin(), Point2::new(f64::NAN, 0.0), 1.0);
    }
}
