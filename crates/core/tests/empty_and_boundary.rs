//! Degenerate-instance hardening: zero-link problems, empty scopes,
//! and mutation down to (and back up from) empty must be well-defined
//! on both interference backends, for every registered scheduler.
//! Regression tests for the empty-row panic family in the sparse CSR
//! builder (`row_start.last().unwrap()` on n = 0 rows and the apply
//! path), and for elimination schedulers whose deletion queries once
//! cost time in the square of the length ratio.

use fading_channel::ChannelParams;
use fading_core::{
    AlgoId, BackendChoice, LinkSpec, MutationBatch, Problem, SchedCtx, Scope, SparseConfig,
};
use fading_geom::{Point2, Rect};
use fading_net::{Link, LinkId, LinkSet, TopologyGenerator, UniformGenerator};
use std::time::{Duration, Instant};

fn empty_problem(backend: BackendChoice) -> Problem {
    let links = LinkSet::new(Rect::square(10.0), vec![]);
    Problem::builder(links, ChannelParams::paper_defaults())
        .backend(backend)
        .build()
}

/// A batch adding `specs`, in order.
fn add_batch(specs: &[LinkSpec]) -> MutationBatch {
    let mut batch = MutationBatch::new();
    for &spec in specs {
        batch.add(spec);
    }
    batch
}

fn backends() -> [BackendChoice; 2] {
    [
        BackendChoice::Dense,
        BackendChoice::Sparse(SparseConfig::default()),
    ]
}

#[test]
fn zero_link_problem_is_schedulable_by_every_algorithm() {
    for backend in backends() {
        let p = empty_problem(backend);
        assert_eq!(p.len(), 0);
        for algo in AlgoId::ALL {
            let s = algo.build(1).schedule(&p);
            assert!(s.is_empty(), "{algo} on empty ({backend:?})");
        }
    }
}

#[test]
fn an_empty_scope_schedules_nothing() {
    for backend in backends() {
        let links = UniformGenerator::paper(40).generate(11);
        let parent = Problem::builder(links, ChannelParams::paper_defaults())
            .backend(backend)
            .build();
        let weights = vec![1.0; 40];
        for scope in [
            Scope::candidates(&[]),
            Scope::candidates(&[]).weighted(&weights),
        ] {
            for algo in AlgoId::ALL {
                let s = algo
                    .build(1)
                    .schedule_in(&parent, scope, &mut SchedCtx::new());
                assert!(s.is_empty(), "{algo} on an empty scope ({backend:?})");
            }
        }
    }
}

#[test]
fn growing_from_empty_matches_a_batch_build() {
    for backend in backends() {
        let mut grown = empty_problem(backend);
        let seeds = UniformGenerator::paper(12).generate(29);
        let specs: Vec<LinkSpec> = seeds
            .links()
            .iter()
            .map(|l| LinkSpec::new(l.sender, l.receiver))
            .collect();
        grown.apply(&add_batch(&specs)).unwrap();
        let batch = Problem::builder(seeds, ChannelParams::paper_defaults())
            .backend(backend)
            .build();
        assert_eq!(grown.len(), 12);
        for i in grown.links().ids() {
            for j in grown.links().ids() {
                assert_eq!(
                    grown.factor(i, j).to_bits(),
                    batch.factor(i, j).to_bits(),
                    "f({i},{j}) after growth from empty ({backend:?})"
                );
            }
        }
    }
}

#[test]
fn removing_every_link_leaves_a_usable_instance() {
    for backend in backends() {
        let links = UniformGenerator::paper(15).generate(31);
        let mut p = Problem::builder(links, ChannelParams::paper_defaults())
            .backend(backend)
            .build();
        let mut all = MutationBatch::new();
        for k in p.links().ids() {
            all.remove(p.external(k));
        }
        p.apply(&all).unwrap();
        assert_eq!(p.len(), 0);
        for algo in AlgoId::ALL {
            assert!(algo.build(1).schedule(&p).is_empty());
        }
        // And it accepts arrivals after hitting empty.
        p.apply(&add_batch(&[LinkSpec::new(
            Point2::new(3.0, 3.0),
            Point2::new(4.5, 3.0),
        )]))
        .unwrap();
        assert_eq!(p.len(), 1);
        let s = AlgoId::Rle.build(1).schedule(&p);
        assert_eq!(s.len(), 1);
    }
}

#[test]
fn removing_no_links_is_a_no_op_mutation() {
    for backend in backends() {
        let links = UniformGenerator::paper(10).generate(37);
        let mut p = Problem::builder(links, ChannelParams::paper_defaults())
            .backend(backend)
            .build();
        let before: Vec<u64> = p
            .links()
            .ids()
            .flat_map(|i| p.links().ids().map(move |j| (i, j)))
            .map(|(i, j)| p.factor(i, j).to_bits())
            .collect();
        let stamp = p.stamp();
        let receipt = p.apply(&MutationBatch::new()).unwrap();
        assert!(receipt.removed.is_empty());
        assert_eq!(p.stamp(), stamp);
        let after: Vec<u64> = p
            .links()
            .ids()
            .flat_map(|i| p.links().ids().map(move |j| (i, j)))
            .map(|(i, j)| p.factor(i, j).to_bits())
            .collect();
        assert_eq!(before, after);
    }
}

/// A unit link at the origin and a link of length `ratio` far enough
/// away that neither disturbs the other.
fn short_and_long(ratio: f64) -> LinkSet {
    let far = 1e3 * ratio;
    let links = vec![
        Link::new(LinkId(0), Point2::new(0.0, 0.0), Point2::new(1.0, 0.0), 1.0),
        Link::new(
            LinkId(1),
            Point2::new(far, 0.0),
            Point2::new(far + ratio, 0.0),
            1.0,
        ),
    ];
    LinkSet::new(Rect::square(far + ratio), links)
}

/// RLE and ApproxDiversity index senders in cells of `c₁·δ` (δ the
/// shortest length) and delete within `c₁·d_ii` of each pick, so the
/// long link's query box spans `ratio` cells a side. Its cost must not
/// grow with that box: both links schedule at once.
#[test]
fn a_wide_length_ratio_keeps_elimination_schedulers_fast() {
    for ratio in [1e4, 1e6] {
        for backend in backends() {
            let p = Problem::builder(short_and_long(ratio), ChannelParams::paper_defaults())
                .backend(backend)
                .build();
            for algo in [AlgoId::Rle, AlgoId::ApproxDiversity] {
                let start = Instant::now();
                let s = algo.build(1).schedule(&p);
                let took = start.elapsed();
                assert_eq!(s.len(), 2, "{algo} at ratio {ratio} ({backend:?})");
                assert!(
                    took < Duration::from_secs(1),
                    "{algo} at ratio {ratio} ({backend:?}) took {took:?}"
                );
            }
        }
    }
}
