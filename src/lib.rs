//! # fading-rls — Fading-Resistant Link Scheduling
//!
//! A reproduction of *"Fading-Resistant Link Scheduling in Wireless
//! Networks"* (Qiu & Shen, ICPP 2017) as a production-quality Rust
//! workspace. This facade crate re-exports the workspace's public API;
//! see the individual crates for the full documentation:
//!
//! * [`math`] — numeric substrate (ζ, compensated sums, statistics);
//! * [`geom`] — planar geometry (grids, coloring, spatial hashing);
//! * [`channel`] — Rayleigh-fading and deterministic SINR models;
//! * [`net`] — links, topologies, generators, length diversity;
//! * [`core`] — the Fading-R-LS problem, LDP/RLE and baseline
//!   schedulers, exact solvers, ILP, Knapsack reduction, multi-slot;
//! * [`sim`] — Monte-Carlo slot simulation and the Fig. 5/6 sweeps.
//!
//! ## Quickstart
//!
//! ```
//! use fading_rls::prelude::*;
//!
//! // The paper's workload: 300 links in a 500×500 field.
//! let links = UniformGenerator::paper(300).generate(42);
//! let problem = Problem::paper(links, 3.0); // α = 3, ε = 0.01
//!
//! // Schedule one slot with RLE and check the guarantee.
//! let schedule = Rle::new().schedule(&problem);
//! assert!(is_feasible(&problem, &schedule));
//!
//! // Monte-Carlo the channel: failures stay below ε per link.
//! let stats = simulate_many(&problem, &schedule, 200, 7);
//! assert!(stats.failed.mean <= 0.01 * schedule.len() as f64 + 0.5);
//! ```

pub use fading_channel as channel;
pub use fading_core as core;
pub use fading_geom as geom;
pub use fading_math as math;
pub use fading_net as net;
pub use fading_sim as sim;
pub use fading_viz as viz;

/// The most common imports in one place.
pub mod prelude {
    pub use fading_channel::{ChannelParams, DeterministicSinr, RayleighChannel};
    pub use fading_core::algo::{
        Anneal, ApproxDiversity, ApproxLogN, Dls, ExactBnb, GraphModel, GreedyRate, Ldp,
        LocalSearch, PowerAssignment, RandomFeasible, Rle,
    };
    pub use fading_core::feasibility::{is_feasible, FeasibilityReport};
    pub use fading_core::multislot::{schedule_all, MultiSlotSchedule};
    pub use fading_core::{Problem, Schedule, Scheduler};
    pub use fading_net::{
        ClusteredGenerator, GridGenerator, LinearGenerator, Link, LinkId, LinkSet, RateModel,
        TopologyGenerator, UniformGenerator,
    };
    pub use fading_sim::{simulate_many, simulate_slot, ExperimentConfig};
}
