//! Thread-count invariance: every parallel construction path — the
//! chunked dense matrix build, the sparse CSR build — and the
//! schedulers on top must produce the same bits whether rayon runs one
//! worker or many, so `RAYON_NUM_THREADS` can change wall-clock only.
//!
//! One `#[test]` on purpose: the env var is process-global, and the
//! default harness runs sibling tests on concurrent threads.

use fading_channel::ChannelParams;
use fading_core::algo::{Ldp, Rle};
use fading_core::{BackendChoice, Problem, Scheduler, SparseConfig};
use fading_net::{LinkSet, TopologyGenerator, UniformGenerator};

fn with_threads<T>(setting: Option<&str>, f: impl Fn() -> T) -> T {
    match setting {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    let out = f();
    std::env::remove_var("RAYON_NUM_THREADS");
    out
}

/// Everything the parallel paths can influence, flattened to
/// comparable bits.
#[derive(PartialEq, Debug)]
struct Artifacts {
    dense_bits: Vec<u64>,
    sparse_store: fading_core::SparseInterference,
    rle_picks: Vec<u32>,
    ldp_picks: Vec<u32>,
}

fn build_artifacts(links: &LinkSet) -> Artifacts {
    // Dense build crosses PARALLEL_THRESHOLD (= 64) at this size.
    let dense = Problem::paper(links.clone(), 3.0);
    let dense_bits = links
        .ids()
        .flat_map(|i| {
            dense
                .dense_row(i)
                .unwrap()
                .iter()
                .map(|f| f.to_bits())
                .collect::<Vec<u64>>()
        })
        .collect();
    let sparse = Problem::builder(links.clone(), ChannelParams::with_alpha(3.0))
        .backend(BackendChoice::Sparse(SparseConfig::default()))
        .build();
    let rle_picks = Rle::new().schedule(&dense).iter().map(|id| id.0).collect();
    let ldp_picks = Ldp::new().schedule(&sparse).iter().map(|id| id.0).collect();
    let sparse_store = sparse
        .factors()
        .as_sparse()
        .expect("built with the sparse backend")
        .clone();
    Artifacts {
        dense_bits,
        sparse_store,
        rle_picks,
        ldp_picks,
    }
}

#[test]
fn constructions_are_bit_identical_across_thread_counts() {
    let links = UniformGenerator::paper(700).generate(20170714);
    let single = with_threads(Some("1"), || build_artifacts(&links));
    let four = with_threads(Some("4"), || build_artifacts(&links));
    let default = with_threads(None, || build_artifacts(&links));

    assert!(single == four, "1 thread vs 4 threads diverged");
    assert!(single == default, "1 thread vs default pool diverged");
}
