//! Topology / workload generators.
//!
//! [`UniformGenerator`] reproduces the paper's evaluation setup
//! (Section V): senders uniform in a square region, each receiver at a
//! uniform random distance in a uniform random direction from its
//! sender. The other generators exercise the algorithms on structured
//! geometries (clusters, lattices, chains) for the extension
//! experiments.

use crate::link::{Link, LinkId};
use crate::linkset::{position_key, LinkSet};
use fading_geom::{Point2, Rect};
use fading_math::seeded_rng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// How link data rates are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RateModel {
    /// Every link gets the same rate (the paper's evaluation and RLE's
    /// special case).
    Fixed(f64),
    /// Rates drawn uniformly from `[lo, hi]` (the general Fading-R-LS
    /// problem that LDP targets).
    Uniform {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (inclusive).
        hi: f64,
    },
    /// Rate proportional to link length (`rate = scale · d`): longer
    /// hops carry more value, the regime where LDP's nested classes
    /// beat the original two-sided ones (ablation A1).
    LengthProportional {
        /// Multiplier applied to the link length.
        scale: f64,
    },
}

impl RateModel {
    /// Draws a rate for a link of length `length`.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R, length: f64) -> f64 {
        match *self {
            RateModel::Fixed(r) => r,
            RateModel::Uniform { lo, hi } => rng.gen_range(lo..=hi),
            RateModel::LengthProportional { scale } => scale * length,
        }
    }

    fn validate(&self) {
        match *self {
            RateModel::Fixed(r) => {
                assert!(r.is_finite() && r > 0.0, "fixed rate must be positive")
            }
            RateModel::Uniform { lo, hi } => assert!(
                lo.is_finite() && lo > 0.0 && hi >= lo,
                "uniform rate range must satisfy 0 < lo ≤ hi"
            ),
            RateModel::LengthProportional { scale } => assert!(
                scale.is_finite() && scale > 0.0,
                "length-proportional scale must be positive"
            ),
        }
    }
}

/// A reproducible instance generator.
pub trait TopologyGenerator {
    /// Generates an instance from a seed; equal seeds give equal
    /// instances.
    fn generate(&self, seed: u64) -> LinkSet;
}

/// The paper's Section V workload: senders uniform in a `side × side`
/// square, receiver of each sender at distance `U[len_lo, len_hi]` in a
/// uniformly random direction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UniformGenerator {
    /// Region side length (paper: 500).
    pub side: f64,
    /// Number of links.
    pub n: usize,
    /// Shortest possible link (paper: 5).
    pub len_lo: f64,
    /// Longest possible link (paper: 20).
    pub len_hi: f64,
    /// Rate model (paper: `Fixed(1.0)`).
    pub rates: RateModel,
}

impl UniformGenerator {
    /// The paper's exact evaluation configuration for `n` links.
    pub fn paper(n: usize) -> Self {
        Self {
            side: 500.0,
            n,
            len_lo: 5.0,
            len_hi: 20.0,
            rates: RateModel::Fixed(1.0),
        }
    }
}

/// Consecutive rejected placements after which
/// [`UniformGenerator::try_generate`] gives up. A duplicate position is
/// measure-zero in any region with room for the links, so this only
/// trips when the region holds fewer distinct positions than links
/// (e.g. a subnormal `side`).
pub const MAX_PLACEMENT_RETRIES: u32 = 1000;

/// Why a generator could not place its links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrowdedRegion {
    /// Links placed before giving up.
    pub placed: usize,
    /// Links requested.
    pub n: usize,
    /// The region side.
    pub side: f64,
}

impl std::fmt::Display for CrowdedRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot place {} links with distinct senders and receivers in a {}×{} region: \
             {MAX_PLACEMENT_RETRIES} placements in a row collided after {} links",
            self.n, self.side, self.side, self.placed
        )
    }
}

impl std::error::Error for CrowdedRegion {}

impl UniformGenerator {
    /// [`TopologyGenerator::generate`], but a region too small to hold
    /// `n` distinct senders and receivers is an error instead of an
    /// endless placement loop.
    ///
    /// # Panics
    /// Panics on a non-finite or non-positive side or an invalid length
    /// or rate range.
    pub fn try_generate(&self, seed: u64) -> Result<LinkSet, CrowdedRegion> {
        // Non-finite or non-positive geometry would otherwise panic
        // deep in sampling or never finish placing links.
        assert!(
            self.side.is_finite() && self.side > 0.0,
            "region side must be finite and positive, got {}",
            self.side
        );
        assert!(
            self.len_lo > 0.0 && self.len_hi >= self.len_lo && self.len_hi.is_finite(),
            "invalid length range"
        );
        self.rates.validate();
        let region = Rect::square(self.side);
        let mut rng = seeded_rng(seed);
        let mut links = Vec::with_capacity(self.n);
        // Constant-time duplicate rejection (exact coordinate identity)
        // keeps generation O(N) — the sparse backend's large-n smoke
        // draws 10⁵ links through this loop.
        let mut senders: HashSet<(u64, u64)> = HashSet::with_capacity(self.n);
        let mut receivers: HashSet<(u64, u64)> = HashSet::with_capacity(self.n);
        let mut retries = 0;
        while links.len() < self.n {
            let s = Point2::new(rng.gen_range(0.0..self.side), rng.gen_range(0.0..self.side));
            let d = rng.gen_range(self.len_lo..=self.len_hi);
            let theta = rng.gen_range(0.0..std::f64::consts::TAU);
            let r = s.offset_polar(d, theta);
            // Enforce the model's uniqueness assumptions; duplicates are
            // measure-zero but a seed could hit one.
            if senders.contains(&position_key(&s)) || receivers.contains(&position_key(&r)) {
                retries += 1;
                if retries == MAX_PLACEMENT_RETRIES {
                    return Err(CrowdedRegion {
                        placed: links.len(),
                        n: self.n,
                        side: self.side,
                    });
                }
                continue;
            }
            retries = 0;
            let id = LinkId(links.len() as u32);
            links.push(Link::new(id, s, r, self.rates.sample(&mut rng, d)));
            senders.insert(position_key(&s));
            receivers.insert(position_key(&r));
        }
        Ok(LinkSet::new(region, links))
    }
}

impl TopologyGenerator for UniformGenerator {
    /// # Panics
    /// Panics where [`UniformGenerator::try_generate`] does, and with
    /// its message where it returns an error.
    fn generate(&self, seed: u64) -> LinkSet {
        self.try_generate(seed).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Clustered topology: senders grouped in Gaussian-ish clusters
/// (uniform disk around cluster centers) — models dense hot spots where
/// interference is concentrated.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusteredGenerator {
    /// Region side length.
    pub side: f64,
    /// Number of clusters.
    pub clusters: usize,
    /// Links per cluster.
    pub links_per_cluster: usize,
    /// Radius of the disk each cluster's senders are drawn from.
    pub cluster_radius: f64,
    /// Shortest possible link.
    pub len_lo: f64,
    /// Longest possible link.
    pub len_hi: f64,
    /// Rate model.
    pub rates: RateModel,
}

impl TopologyGenerator for ClusteredGenerator {
    fn generate(&self, seed: u64) -> LinkSet {
        assert!(self.len_lo > 0.0 && self.len_hi >= self.len_lo);
        self.rates.validate();
        let region = Rect::square(self.side);
        let mut rng = seeded_rng(seed);
        let mut links = Vec::new();
        let mut senders: HashSet<(u64, u64)> = HashSet::new();
        let mut receivers: HashSet<(u64, u64)> = HashSet::new();
        for _ in 0..self.clusters {
            let center = Point2::new(rng.gen_range(0.0..self.side), rng.gen_range(0.0..self.side));
            let mut placed = 0;
            while placed < self.links_per_cluster {
                let rho = self.cluster_radius * rng.gen_range(0.0f64..1.0).sqrt();
                let phi = rng.gen_range(0.0..std::f64::consts::TAU);
                let s = center.offset_polar(rho, phi);
                let d = rng.gen_range(self.len_lo..=self.len_hi);
                let theta = rng.gen_range(0.0..std::f64::consts::TAU);
                let r = s.offset_polar(d, theta);
                if senders.contains(&position_key(&s)) || receivers.contains(&position_key(&r)) {
                    continue;
                }
                let id = LinkId(links.len() as u32);
                links.push(Link::new(id, s, r, self.rates.sample(&mut rng, d)));
                senders.insert(position_key(&s));
                receivers.insert(position_key(&r));
                placed += 1;
            }
        }
        LinkSet::new(region, links)
    }
}

/// Regular lattice of links: senders on a grid, each transmitting to a
/// receiver offset by a fixed vector — the "barrage relay / sensor
/// field" style workload with a single length magnitude (`g(L) = 1`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GridGenerator {
    /// Lattice rows.
    pub rows: usize,
    /// Lattice columns.
    pub cols: usize,
    /// Spacing between adjacent senders.
    pub spacing: f64,
    /// Link length (receiver offset magnitude; must be < spacing/2 so
    /// endpoints stay distinct).
    pub link_length: f64,
    /// Rate model.
    pub rates: RateModel,
}

impl TopologyGenerator for GridGenerator {
    fn generate(&self, seed: u64) -> LinkSet {
        assert!(self.rows > 0 && self.cols > 0, "empty lattice");
        assert!(
            self.link_length > 0.0 && self.link_length < self.spacing / 2.0,
            "link length must be in (0, spacing/2)"
        );
        self.rates.validate();
        let mut rng = seeded_rng(seed);
        let side = (self.cols.max(self.rows)) as f64 * self.spacing;
        let region = Rect::square(side.max(self.spacing));
        let mut links = Vec::with_capacity(self.rows * self.cols);
        for row in 0..self.rows {
            for col in 0..self.cols {
                let s = Point2::new(
                    (col as f64 + 0.5) * self.spacing,
                    (row as f64 + 0.5) * self.spacing,
                );
                // Alternate receiver directions so receivers stay distinct.
                let theta = ((row + col) % 4) as f64 * std::f64::consts::FRAC_PI_2;
                let r = s.offset_polar(self.link_length, theta);
                let id = LinkId(links.len() as u32);
                links.push(Link::new(
                    id,
                    s,
                    r,
                    self.rates.sample(&mut rng, self.link_length),
                ));
            }
        }
        LinkSet::new(region, links)
    }
}

/// Blue-noise deployment: senders placed by Poisson-disk sampling with
/// a minimum separation — the planned-deployment counterpart of
/// [`UniformGenerator`] (no clumps, so interference is more uniform
/// across links).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoissonGenerator {
    /// Region side length.
    pub side: f64,
    /// Maximum number of links (fewer if the region saturates first).
    pub max_n: usize,
    /// Minimum separation between senders.
    pub min_separation: f64,
    /// Shortest possible link.
    pub len_lo: f64,
    /// Longest possible link.
    pub len_hi: f64,
    /// Rate model.
    pub rates: RateModel,
}

impl TopologyGenerator for PoissonGenerator {
    fn generate(&self, seed: u64) -> LinkSet {
        assert!(self.len_lo > 0.0 && self.len_hi >= self.len_lo);
        self.rates.validate();
        let region = Rect::square(self.side);
        let mut rng = seeded_rng(seed);
        let senders = fading_geom::poisson_disk(&mut rng, &region, self.min_separation, self.max_n);
        let mut links = Vec::with_capacity(senders.len());
        let mut receivers: HashSet<(u64, u64)> = HashSet::with_capacity(senders.len());
        for s in senders {
            loop {
                let d = rng.gen_range(self.len_lo..=self.len_hi);
                let theta = rng.gen_range(0.0..std::f64::consts::TAU);
                let r = s.offset_polar(d, theta);
                if !receivers.contains(&position_key(&r)) {
                    let id = LinkId(links.len() as u32);
                    links.push(Link::new(id, s, r, self.rates.sample(&mut rng, d)));
                    receivers.insert(position_key(&r));
                    break;
                }
            }
        }
        LinkSet::new(region, links)
    }
}

/// A chain of links along a line ("highway"): high interference between
/// consecutive links, the classic worst case for shortest-first greedy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearGenerator {
    /// Number of links.
    pub n: usize,
    /// Distance between consecutive senders.
    pub spacing: f64,
    /// Link length (must be < spacing/2).
    pub link_length: f64,
    /// Rate model.
    pub rates: RateModel,
}

impl TopologyGenerator for LinearGenerator {
    fn generate(&self, seed: u64) -> LinkSet {
        assert!(self.n > 0, "empty chain");
        assert!(
            self.link_length > 0.0 && self.link_length < self.spacing / 2.0,
            "link length must be in (0, spacing/2)"
        );
        self.rates.validate();
        let mut rng = seeded_rng(seed);
        let side = (self.n as f64 + 1.0) * self.spacing;
        let region = Rect::new(
            Point2::new(0.0, -self.spacing),
            Point2::new(side, self.spacing),
        );
        let links = (0..self.n)
            .map(|i| {
                let s = Point2::new((i as f64 + 0.5) * self.spacing, 0.0);
                let r = Point2::new(s.x + self.link_length, 0.0);
                Link::new(
                    LinkId(i as u32),
                    s,
                    r,
                    self.rates.sample(&mut rng, self.link_length),
                )
            })
            .collect();
        LinkSet::new(region, links)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_generator_respects_paper_setup() {
        let gen = UniformGenerator::paper(200);
        let ls = gen.generate(7);
        assert_eq!(ls.len(), 200);
        assert!(ls.has_uniform_rates());
        for l in ls.links() {
            let len = l.length();
            assert!(
                (5.0..=20.0 + 1e-9).contains(&len),
                "length {len} outside [5,20]"
            );
            assert!(l.sender.x >= 0.0 && l.sender.x <= 500.0);
            assert!(l.sender.y >= 0.0 && l.sender.y <= 500.0);
            assert_eq!(l.rate, 1.0);
        }
    }

    #[test]
    fn uniform_generator_is_deterministic_per_seed() {
        let gen = UniformGenerator::paper(50);
        assert_eq!(gen.generate(3), gen.generate(3));
        assert_ne!(gen.generate(3), gen.generate(4));
    }

    #[test]
    fn uniform_rate_model_spreads_rates() {
        let gen = UniformGenerator {
            rates: RateModel::Uniform { lo: 1.0, hi: 4.0 },
            ..UniformGenerator::paper(100)
        };
        let ls = gen.generate(9);
        assert!(!ls.has_uniform_rates());
        for l in ls.links() {
            assert!((1.0..=4.0).contains(&l.rate));
        }
    }

    #[test]
    fn clustered_generator_counts() {
        let gen = ClusteredGenerator {
            side: 500.0,
            clusters: 4,
            links_per_cluster: 25,
            cluster_radius: 30.0,
            len_lo: 5.0,
            len_hi: 20.0,
            rates: RateModel::Fixed(1.0),
        };
        let ls = gen.generate(1);
        assert_eq!(ls.len(), 100);
    }

    #[test]
    fn grid_generator_has_single_magnitude() {
        let gen = GridGenerator {
            rows: 5,
            cols: 6,
            spacing: 50.0,
            link_length: 10.0,
            rates: RateModel::Fixed(1.0),
        };
        let ls = gen.generate(0);
        assert_eq!(ls.len(), 30);
        assert_eq!(crate::diversity::length_diversity(&ls), 1);
        for l in ls.links() {
            assert!((l.length() - 10.0).abs() < 1e-9);
        }
    }

    #[test]
    fn linear_generator_is_a_chain() {
        let gen = LinearGenerator {
            n: 10,
            spacing: 30.0,
            link_length: 5.0,
            rates: RateModel::Fixed(1.0),
        };
        let ls = gen.generate(0);
        assert_eq!(ls.len(), 10);
        for w in ls.links().windows(2) {
            assert!((w[1].sender.x - w[0].sender.x - 30.0).abs() < 1e-9);
        }
    }

    #[test]
    fn poisson_generator_enforces_separation() {
        let gen = PoissonGenerator {
            side: 300.0,
            max_n: 100,
            min_separation: 25.0,
            len_lo: 5.0,
            len_hi: 20.0,
            rates: RateModel::Fixed(1.0),
        };
        let ls = gen.generate(8);
        assert!(ls.len() > 20, "region should fit dozens of links");
        assert!(ls.len() <= 100);
        let senders = ls.sender_positions();
        for i in 0..senders.len() {
            for j in (i + 1)..senders.len() {
                assert!(
                    senders[i].distance(&senders[j]) >= 25.0 - 1e-9,
                    "senders {i},{j} too close"
                );
            }
        }
    }

    #[test]
    fn poisson_generator_is_deterministic() {
        let gen = PoissonGenerator {
            side: 200.0,
            max_n: 50,
            min_separation: 20.0,
            len_lo: 5.0,
            len_hi: 20.0,
            rates: RateModel::Fixed(1.0),
        };
        assert_eq!(gen.generate(3), gen.generate(3));
    }

    #[test]
    #[should_panic(expected = "link length must be in (0, spacing/2)")]
    fn grid_rejects_overlapping_links() {
        GridGenerator {
            rows: 2,
            cols: 2,
            spacing: 10.0,
            link_length: 6.0,
            rates: RateModel::Fixed(1.0),
        }
        .generate(0);
    }

    #[test]
    #[should_panic(expected = "region side must be finite and positive")]
    fn uniform_rejects_a_negative_side() {
        UniformGenerator {
            side: -5.0,
            ..UniformGenerator::paper(5)
        }
        .generate(0);
    }

    #[test]
    fn uniform_gives_up_on_a_region_with_too_few_positions() {
        // A subnormal side admits only a handful of distinct senders.
        let gen = UniformGenerator {
            side: 5e-324,
            ..UniformGenerator::paper(5)
        };
        let err = gen.try_generate(0).unwrap_err();
        assert!(err.placed < 5 && err.n == 5, "{err:?}");
        assert!(err.to_string().contains("cannot place 5 links"), "{err}");
        // Room to spare: the bound never trips, and `generate` agrees.
        let roomy = UniformGenerator::paper(200);
        assert_eq!(roomy.try_generate(3).unwrap(), roomy.generate(3));
    }

    #[test]
    #[should_panic(expected = "invalid length range")]
    fn uniform_rejects_an_infinite_length() {
        UniformGenerator {
            len_hi: f64::INFINITY,
            ..UniformGenerator::paper(5)
        }
        .generate(0);
    }
}
