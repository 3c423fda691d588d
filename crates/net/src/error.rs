//! Validation errors for fallible constructors.
//!
//! The panicking constructors (`Link::new`, `LinkSet::new`) are right
//! for experiment code where invalid geometry is a bug; services
//! ingesting *external* instance files need recoverable errors. The
//! `try_` constructors return these instead.

use crate::link::LinkId;

/// Why an instance failed validation.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidationError {
    /// A link's sender and receiver coincide.
    ZeroLengthLink(LinkId),
    /// A link is so long (|Δ| ≳ 1.34·10¹⁵⁴) that its squared length
    /// overflows `f64`, so its length would load as `+∞`.
    OverlongLink(LinkId),
    /// A link's rate is non-positive or non-finite.
    BadRate {
        /// The offending link.
        id: LinkId,
        /// The rate it carried.
        rate: f64,
    },
    /// Link ids are not the dense sequence `0..N`.
    MisnumberedId {
        /// Storage slot examined.
        slot: usize,
        /// Id found there.
        found: LinkId,
    },
    /// Two links share a sender position.
    DuplicateSender(LinkId, LinkId),
    /// Two links share a receiver position.
    DuplicateReceiver(LinkId, LinkId),
    /// A coordinate is NaN or infinite.
    NonFiniteCoordinate(LinkId),
    /// The instance holds more links than the `u32` id space can
    /// number. Ids double as arena indices throughout the interference
    /// substrate, so exceeding the space would silently truncate —
    /// rejected here instead.
    CapacityExceeded {
        /// Links the caller tried to store.
        requested: usize,
    },
    /// A link's transmit power scale is non-positive or non-finite.
    BadPowerScale {
        /// The offending link.
        id: LinkId,
        /// The scale it carried.
        scale: f64,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::ZeroLengthLink(id) => {
                write!(f, "link {id} has zero length (sender == receiver)")
            }
            ValidationError::OverlongLink(id) => {
                write!(f, "link {id} is too long: its squared length overflows f64")
            }
            ValidationError::BadRate { id, rate } => {
                write!(f, "link {id} has invalid rate {rate}")
            }
            ValidationError::MisnumberedId { slot, found } => {
                write!(f, "storage slot {slot} holds id {found}, expected l{slot}")
            }
            ValidationError::DuplicateSender(a, b) => {
                write!(f, "links {a} and {b} share a sender position")
            }
            ValidationError::DuplicateReceiver(a, b) => {
                write!(f, "links {a} and {b} share a receiver position")
            }
            ValidationError::NonFiniteCoordinate(id) => {
                write!(f, "link {id} has a non-finite coordinate")
            }
            ValidationError::CapacityExceeded { requested } => {
                write!(
                    f,
                    "instance holds {requested} links, exceeding the u32 id space"
                )
            }
            ValidationError::BadPowerScale { id, scale } => {
                write!(f, "link {id} has invalid power scale {scale}")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_links() {
        let e = ValidationError::DuplicateSender(LinkId(3), LinkId(7));
        assert_eq!(e.to_string(), "links l3 and l7 share a sender position");
        let e = ValidationError::BadRate {
            id: LinkId(1),
            rate: -2.0,
        };
        assert!(e.to_string().contains("l1"));
        assert!(e.to_string().contains("-2"));
        let e = ValidationError::CapacityExceeded {
            requested: 4_294_967_296,
        };
        assert!(e.to_string().contains("4294967296"));
        assert!(e.to_string().contains("u32"));
    }

    #[test]
    fn implements_std_error() {
        fn takes_error<E: std::error::Error>(_: E) {}
        takes_error(ValidationError::ZeroLengthLink(LinkId(0)));
    }
}
