//! The vectorized substrate kernels pinned against their scalar
//! references.
//!
//! Three layers of the same contract:
//! 1. `kernel::debit_dense` must return bit-identical accumulators,
//!    alive bitmaps, and elimination counts vs a plain scalar walk —
//!    proptested over random factor rows, thresholds, and alive
//!    patterns.
//! 2. `kernel::row_sum` must agree with the sequential sum to within
//!    lane-reassociation rounding, and be deterministic.
//! 3. The two-phase hybrid in `eliminate_schedule` (branch-free
//!    full-row debits while most links are alive, compacted walk
//!    after) must produce the exact pick sequence of an always-scalar
//!    reference replication of Algorithm 2.

use fading_core::algo::elim_core::{eliminate_schedule, ElimMetric};
use fading_core::kernel;
use fading_core::Problem;
use fading_net::{LinkId, TopologyGenerator, UniformGenerator};
use proptest::prelude::*;

/// The scalar debit walk `debit_dense` replaces: ascending ids,
/// skipping dead receivers.
fn debit_scalar(row: &[f64], acc: &mut [f64], alive: &mut [bool], threshold: f64) -> u64 {
    let mut newly = 0u64;
    for j in 0..row.len() {
        if alive[j] {
            acc[j] += row[j];
            if acc[j] > threshold {
                alive[j] = false;
                newly += 1;
            }
        }
    }
    newly
}

proptest! {
    /// For every receiver that is alive going in, the branch-free
    /// kernel leaves bit-identical accumulator state and the same
    /// verdict as the scalar walk; the newly-eliminated counts match.
    /// (Dead receivers' accumulators are garbage by contract and are
    /// excluded from the comparison.)
    #[test]
    fn debit_dense_matches_scalar_walk(
        row in proptest::collection::vec(0.0f64..1.0, 1..200),
        acc0 in proptest::collection::vec(0.0f64..2.0, 200..201),
        alive_bits in proptest::collection::vec(0u8..2, 200..201),
        threshold in 0.1f64..3.0,
    ) {
        let n = row.len();
        let alive0: Vec<bool> = alive_bits[..n].iter().map(|&b| b == 1).collect();
        let mut acc_s = acc0[..n].to_vec();
        let mut alive_s = alive0.clone();
        let mut acc_v = acc_s.clone();
        let mut alive_v = alive_s.clone();

        let newly_s = debit_scalar(&row, &mut acc_s, &mut alive_s, threshold);
        let newly_v = kernel::debit_dense(&row, &mut acc_v, &mut alive_v, threshold);

        prop_assert_eq!(newly_s, newly_v);
        prop_assert_eq!(&alive_s, &alive_v);
        for j in 0..n {
            if alive0[j] {
                prop_assert_eq!(
                    acc_s[j].to_bits(),
                    acc_v[j].to_bits(),
                    "accumulator {} diverged", j
                );
            }
        }
    }

    /// The lane-blocked sum stays within reassociation rounding of the
    /// sequential sum and is a pure function of its input.
    #[test]
    fn row_sum_close_to_scalar_and_deterministic(
        xs in proptest::collection::vec(0.0f64..10.0, 1..500),
    ) {
        let s = kernel::row_sum_scalar(&xs);
        let v = kernel::row_sum(&xs);
        let tol = 1e-12 * s.abs().max(1.0);
        prop_assert!((s - v).abs() <= tol, "scalar {s} vs lanes {v}");
        prop_assert_eq!(v.to_bits(), kernel::row_sum(&xs).to_bits());
    }
}

/// Always-scalar replication of `elim_core::run` for the FadingFactor
/// metric: same pick order, same radius deletions (same `dist² ≤ r²`
/// predicate as the spatial hash), same ascending full-row debit walk.
fn reference_rle_picks(p: &Problem, c1: f64, c2: f64) -> Vec<u32> {
    let links = p.links();
    let n = links.len();
    let mut order: Vec<LinkId> = links.ids().collect();
    order.sort_by(|&a, &b| links.length(a).total_cmp(&links.length(b)).then(a.cmp(&b)));
    let threshold = c2 * p.gamma_eps();
    let mut alive = vec![true; n];
    let mut acc = vec![0.0f64; n];
    let mut picked = Vec::new();
    for &i in &order {
        if !alive[i.index()] {
            continue;
        }
        alive[i.index()] = false;
        picked.push(i.0);
        let receiver = links.link(i).receiver;
        let radius = c1 * links.length(i);
        for j in links.ids() {
            if alive[j.index()] && links.link(j).sender.distance_sq(&receiver) <= radius * radius {
                alive[j.index()] = false;
            }
        }
        let row = p
            .dense_row(i)
            .expect("reference requires the dense backend");
        for j in 0..n {
            if alive[j] {
                acc[j] += row[j];
                if acc[j] > threshold {
                    alive[j] = false;
                }
            }
        }
    }
    picked
}

/// The production hybrid (which starts branch-free and switches to the
/// compacted walk once survivors drop below 25%) must make the exact
/// pick sequence of the always-scalar reference, at sizes that
/// exercise the crossover and both sides of `PARALLEL_THRESHOLD`.
#[test]
fn hybrid_rle_matches_scalar_reference() {
    for &(n, seed) in &[(60usize, 20170714u64), (300, 42), (900, 7)] {
        let p = Problem::paper(UniformGenerator::paper(n).generate(seed), 3.0);
        for &c1 in &[1.5, 4.0, 12.0] {
            // `Schedule` stores its members id-sorted; the reference
            // records pick order. Compare as sets of scheduled links.
            let mut expect = reference_rle_picks(&p, c1, 0.5);
            expect.sort_unstable();
            let got: Vec<u32> = eliminate_schedule(&p, c1, 0.5, ElimMetric::FadingFactor)
                .iter()
                .map(|id| id.0)
                .collect();
            assert_eq!(got, expect, "n={n} seed={seed} c1={c1}");
        }
    }
}
