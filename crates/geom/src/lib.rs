//! 2-D geometry substrate for the fading-rls workspace.
//!
//! The scheduling algorithms are geometric at heart: LDP partitions the
//! deployment region into a 4-colored grid of squares ([`grid`]), RLE
//! deletes all senders inside a disk around each chosen receiver
//! ([`spatial`] provides sub-quadratic radius queries), and every
//! topology generator works with [`Point2`]/[`Rect`].

pub mod grid;
pub mod point;
pub mod poisson;
pub mod rect;
pub mod spatial;

pub use grid::{CellIndex, GridColor, GridPartition};
pub use point::Point2;
pub use poisson::poisson_disk;
pub use rect::Rect;
pub use spatial::SpatialHash;
