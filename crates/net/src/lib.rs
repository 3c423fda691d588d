//! Network substrate for the fading-rls workspace.
//!
//! A scheduling instance is a [`LinkSet`]: `N` sender→receiver pairs in
//! a rectangular region, each with a data rate. The paper's evaluation
//! instance (uniform senders in a 500×500 square, receivers at distance
//! U\[5,20\] in a random direction) is [`generator::UniformGenerator`];
//! further generators (clustered, lattice, linear) exercise the
//! algorithms on qualitatively different geometries.
//!
//! [`diversity`] implements Definition 4.1 (length diversity `g(L)`),
//! which both drives LDP's class construction and appears in its
//! approximation guarantee.

pub mod diversity;
pub mod error;
pub mod generator;
pub mod io;
pub mod link;
pub mod linkset;
pub mod mobility;
pub mod stats;

pub use diversity::{diversity_exponents, length_diversity};
pub use error::ValidationError;
pub use generator::{
    ClusteredGenerator, CrowdedRegion, GridGenerator, LinearGenerator, PoissonGenerator, RateModel,
    TopologyGenerator, UniformGenerator, MAX_PLACEMENT_RETRIES,
};
pub use link::{validate_link, Link, LinkId};
pub use linkset::{position_key, LinkSet};
pub use mobility::RandomWaypoint;
pub use stats::{instance_stats, InstanceStats};
