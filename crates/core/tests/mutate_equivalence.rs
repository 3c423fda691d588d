//! Mutation substrate equivalence (the online-engine contract, see
//! `docs/online.md`).
//!
//! `Problem::apply` patches a live instance's interference state in
//! place — dense matrix relayout, sparse CSR row edits plus an
//! envelope reconcile. These properties
//! pin that a mutated instance is *indistinguishable* from a
//! from-scratch build over the final link set: `PartialEq` (which
//! compares every stored factor bit-for-bit), schedules from a warm
//! reused `SchedCtx`, and feasibility verdicts, across backends,
//! path-loss exponents, truncation policies, and non-uniform powers —
//! including the uniform→powered profile transition mid-sequence.

use fading_channel::ChannelParams;
use fading_core::algo::{GreedyRate, Ldp, Rle};
use fading_core::feasibility::is_feasible;
use fading_core::{
    BackendChoice, BatchReceipt, LinkIdMap, LinkSpec, MutationBatch, MutationError, Problem,
    SchedCtx, Scheduler, Scope, SparseConfig,
};
use fading_geom::Point2;
use fading_net::{Link, LinkId, LinkSet, TopologyGenerator, UniformGenerator, ValidationError};
use proptest::prelude::*;

const ALPHAS: [f64; 3] = [2.5, 3.0, 4.0];
/// Exhaustive-at-paper-scale and genuinely-truncating cuts.
const TAIL_RTOLS: [f64; 2] = [1e-3, 5e-1];

/// A starting instance under the requested backend and power model.
fn initial(n: usize, seed: u64, alpha: f64, backend: BackendChoice, powered: bool) -> Problem {
    let links = UniformGenerator::paper(n).generate(seed);
    let params = ChannelParams::with_alpha(alpha);
    if powered {
        let scales: Vec<f64> = (0..n).map(|i| 0.5 + (i % 5) as f64 * 0.375).collect();
        Problem::builder(links, params)
            .power_scales(scales)
            .backend(backend)
            .build()
    } else {
        Problem::builder(links, params).backend(backend).build()
    }
}

/// A from-scratch build over the mutated problem's current link set
/// and power scales — the path the in-place mutation replaces.
fn rebuild(p: &Problem) -> Problem {
    let links = LinkSet::new(*p.links().region(), p.links().links().to_vec());
    let builder = Problem::builder(links, *p.params())
        .epsilon(p.epsilon())
        .backend(p.backend_choice());
    match p.power_scales() {
        Some(scales) => builder.power_scales(scales.to_vec()).build(),
        None => builder.build(),
    }
}

/// A batch adding one link.
fn add_batch(spec: LinkSpec) -> MutationBatch {
    let mut batch = MutationBatch::new();
    batch.add(spec);
    batch
}

/// A batch removing the given external ids.
fn remove_batch(exts: &[u64]) -> MutationBatch {
    let mut batch = MutationBatch::new();
    for &ext in exts {
        batch.remove(ext);
    }
    batch
}

/// One mutation op decoded from proptest payload: `(kind, x, y, w)`.
/// kind 0/1 → add a link (sender from `(x, y)`, receiver nudged by a
/// `w`-derived offset), kind 2 → remove a `w`-derived victim. Kind 1
/// adds with a non-uniform power scale, exercising the
/// uniform→materialized profile transition when the instance started
/// without power control.
type Op = (u8, f64, f64, f64);

fn apply_op(problem: &mut Problem, map: &mut LinkIdMap, op: Op, tag: usize) {
    let (kind, x, y, w) = op;
    match kind {
        2 if problem.len() > 1 => {
            let victim = LinkId((w.to_bits() % problem.len() as u64) as u32);
            let removal = remove_batch(&[map.external(victim)]);
            problem.apply(&removal, map).expect("live victim");
        }
        2 => {} // never empty the instance
        _ => {
            let sender = Point2::new(x, y);
            // Short link, receiver strictly inside the paper region.
            let receiver = Point2::new(
                (x + 1.0 + (w % 7.0)).min(999.75),
                (y + 0.5 + tag as f64 * 0.125).min(999.25),
            );
            let spec = LinkSpec::new(sender, receiver).with_rate(1.0 + (w % 3.0));
            let spec = if kind == 1 {
                spec.with_power_scale(0.5 + (w % 4.0) * 0.375)
            } else {
                spec
            };
            // Coincident positions are rejected with the instance
            // unchanged — a legal no-op for this property.
            let _ = problem.apply(&add_batch(spec), map);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After every op in a random add/remove interleaving, the mutated
    /// instance compares bit-identical (`PartialEq` covers all stored
    /// factors, radii, and cuts) to a from-scratch build, a warm
    /// reused ctx schedules it identically to a fresh one (mutation
    /// epochs invalidate the memos), and feasibility verdicts agree.
    #[test]
    fn mutate_equals_rebuild_at_every_step(
        n in 4usize..24,
        seed in 0u64..5_000,
        alpha_idx in 0usize..3,
        rtol_idx in 0usize..2,
        sparse_bit in 0usize..2,
        powered_bit in 0usize..2,
        ops in proptest::collection::vec(
            (0u8..3, 0.0f64..998.0, 0.0f64..998.0, 0.0f64..100.0),
            1..12,
        ),
    ) {
        let backend = if sparse_bit == 1 {
            BackendChoice::Sparse(SparseConfig { tail_rtol: TAIL_RTOLS[rtol_idx] })
        } else {
            BackendChoice::Dense
        };
        let mut problem = initial(n, seed, ALPHAS[alpha_idx], backend, powered_bit == 1);
        let mut map = LinkIdMap::with_len(n);
        let mut ctx = SchedCtx::new();
        let schedulers: [&dyn Scheduler; 3] = [&Rle::new(), &Ldp::new(), &GreedyRate];
        // Warm the ctx memos on the pre-mutation instance so stale
        // cached state is live when the first mutation lands.
        schedulers[0].schedule_in(&problem, Scope::all(), &mut ctx);

        for (tag, &op) in ops.iter().enumerate() {
            apply_op(&mut problem, &mut map, op, tag);
            let rebuilt = rebuild(&problem);
            prop_assert_eq!(&problem, &rebuilt, "state diverged after op {}", tag);
            // Rotate one scheduler per op (all three at the end).
            let s = schedulers[tag % schedulers.len()];
            let warm = s.schedule_in(&problem, Scope::all(), &mut ctx);
            let fresh = s.schedule(&rebuilt);
            prop_assert_eq!(&warm, &fresh, "{} diverged after op {}", s.name(), tag);
            prop_assert_eq!(
                is_feasible(&problem, &warm),
                is_feasible(&rebuilt, &warm),
                "verdict flipped after op {}", tag
            );
        }
        for s in schedulers {
            let rebuilt = rebuild(&problem);
            let warm = s.schedule_in(&problem, Scope::all(), &mut ctx);
            prop_assert_eq!(&warm, &s.schedule(&rebuilt), "{} diverged at end", s.name());
        }
    }

    /// Cross-backend verdict agreement after mutation: the sparse
    /// store's certified verdicts (truncation cuts and all) match the
    /// exact dense verdicts on the same mutated link set — truncated
    /// bounds stay true bounds through every patch, so verdicts never
    /// flip.
    #[test]
    fn sparse_verdicts_match_dense_after_mutation(
        n in 4usize..20,
        seed in 0u64..5_000,
        alpha_idx in 0usize..3,
        rtol_idx in 0usize..2,
        ops in proptest::collection::vec(
            (0u8..3, 0.0f64..998.0, 0.0f64..998.0, 0.0f64..100.0),
            1..10,
        ),
    ) {
        let params = ChannelParams::with_alpha(ALPHAS[alpha_idx]);
        let links = UniformGenerator::paper(n).generate(seed);
        let mut dense = Problem::builder(links.clone(), params).build();
        let mut sparse = Problem::builder(links, params)
            .backend(BackendChoice::Sparse(SparseConfig { tail_rtol: TAIL_RTOLS[rtol_idx] }))
            .build();
        let mut dense_map = LinkIdMap::with_len(n);
        let mut sparse_map = LinkIdMap::with_len(n);
        for (tag, &op) in ops.iter().enumerate() {
            apply_op(&mut dense, &mut dense_map, op, tag);
            apply_op(&mut sparse, &mut sparse_map, op, tag);
            prop_assert_eq!(dense.links(), sparse.links());
            // Every pairwise factor is exact under both backends.
            for a in dense.links().ids() {
                for b in dense.links().ids() {
                    prop_assert_eq!(
                        dense.factor(a, b).to_bits(),
                        sparse.factor(a, b).to_bits(),
                        "f({},{}) diverged after op {}", a.index(), b.index(), tag
                    );
                }
            }
            let every_other = fading_core::Schedule::from_ids(
                dense.links().ids().filter(|id| id.index() % 2 == 0),
            );
            prop_assert_eq!(
                is_feasible(&dense, &every_other),
                is_feasible(&sparse, &every_other),
                "verdict flipped after op {}", tag
            );
        }
    }

    /// The transactional path: a whole `MutationBatch` committed by
    /// `Problem::apply` (one envelope reconciliation, one spatial-index
    /// patch pass) lands bit-identically on the same state as applying
    /// the same mutations as a chain of one-element batches — and both
    /// equal a
    /// from-scratch build. Batches mix adds (uniform and powered),
    /// removals by external id, duplicate removals, and empty batches,
    /// across both backends and both truncation policies.
    #[test]
    fn batch_equals_sequential_equals_rebuild(
        n in 4usize..20,
        seed in 0u64..5_000,
        alpha_idx in 0usize..3,
        rtol_idx in 0usize..2,
        sparse_bit in 0usize..2,
        powered_bit in 0usize..2,
        batches in proptest::collection::vec(
            proptest::collection::vec((0u8..3, 0.0f64..998.0, 0.0f64..100.0), 0..8),
            1..5,
        ),
    ) {
        let backend = if sparse_bit == 1 {
            BackendChoice::Sparse(SparseConfig { tail_rtol: TAIL_RTOLS[rtol_idx] })
        } else {
            BackendChoice::Dense
        };
        let mut batched = initial(n, seed, ALPHAS[alpha_idx], backend, powered_bit == 1);
        let mut bat_map = LinkIdMap::with_len(n);
        let mut seq = batched.clone();
        let mut seq_map = bat_map.clone();
        let mut tag = 0usize;
        for ops in &batches {
            let mut batch = MutationBatch::new();
            let mut doomed: Vec<u64> = Vec::new();
            let mut planned_adds = 0usize;
            for &(kind, x, w) in ops {
                if kind == 2 {
                    // Remove a random live link not already doomed,
                    // keeping at least one link alive.
                    let live: Vec<u64> = bat_map
                        .externals()
                        .iter()
                        .copied()
                        .filter(|e| !doomed.contains(e))
                        .collect();
                    if live.len() > 1 {
                        let ext = live[(w.to_bits() % live.len() as u64) as usize];
                        doomed.push(ext);
                        batch.remove(ext);
                        if w > 50.0 {
                            batch.remove(ext); // duplicates collapse
                        }
                    }
                } else {
                    // Coordinates disjoint from the generator's region
                    // and from every other generated link.
                    let sender = Point2::new(5_000.0 + tag as f64 * 8.0, x);
                    let receiver =
                        Point2::new(5_000.0 + tag as f64 * 8.0 + 1.5 + (w % 5.0), x + 0.5);
                    let spec = LinkSpec::new(sender, receiver).with_rate(1.0 + (w % 3.0));
                    let spec = if kind == 1 {
                        spec.with_power_scale(0.5 + (w % 4.0) * 0.375)
                    } else {
                        spec
                    };
                    batch.add(spec);
                    planned_adds += 1;
                }
                tag += 1;
            }
            let stamp_before = batched.stamp();
            let receipt = batched.apply(&batch, &mut bat_map).unwrap();
            prop_assert_eq!(receipt.added.len(), planned_adds);
            prop_assert_eq!(receipt.removed.len(), doomed.len());
            if batch.is_empty() {
                prop_assert_eq!(batched.stamp(), stamp_before, "empty batch moved the stamp");
            } else {
                prop_assert_ne!(batched.stamp(), stamp_before, "commit must move the stamp");
            }
            // Sequential mirror: the same removals in the order the
            // batch applied them, one batch each, then adds one by one.
            for &ext in &receipt.removed {
                seq.apply(&remove_batch(&[ext]), &mut seq_map)
                    .expect("live on the sequential side");
            }
            for &spec in batch.adds() {
                seq.apply(&add_batch(spec), &mut seq_map).unwrap();
            }
            prop_assert_eq!(&batched, &seq, "batch != sequential");
            prop_assert_eq!(&bat_map, &seq_map, "maps diverged");
            let rebuilt = rebuild(&batched);
            prop_assert_eq!(&batched, &rebuilt, "batch != rebuild");
        }
    }
}

/// The paper instance with its links renumbered in order of sender x.
/// A sparse row then holds a band of neighbouring ids instead of ids
/// spread evenly over `0..n`, the layout where the CSR's interpolated
/// row seek lands furthest from its first probe.
fn x_sorted(n: usize, seed: u64) -> LinkSet {
    let generated = UniformGenerator::paper(n).generate(seed);
    let mut links = generated.links().to_vec();
    links.sort_by(|a, b| a.sender.x.total_cmp(&b.sender.x));
    let links = links
        .iter()
        .enumerate()
        .map(|(i, l)| Link::new(LinkId(i as u32), l.sender, l.receiver, l.rate))
        .collect();
    LinkSet::new(*generated.region(), links)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Mutate ≡ rebuild on both backends when link ids follow sender x,
    /// so every row's ids are clustered. Removals rename the
    /// right-most link into the hole and adds take the top ids, which
    /// keeps the rows clustered but no longer sorted by x.
    #[test]
    fn x_sorted_ids_mutate_equals_rebuild(
        n in 24usize..96,
        seed in 0u64..5_000,
        alpha_idx in 0usize..3,
        rtol_idx in 0usize..2,
        ops in proptest::collection::vec(
            (0u8..3, 0.0f64..998.0, 0.0f64..998.0, 0.0f64..100.0),
            1..16,
        ),
    ) {
        let links = x_sorted(n, seed);
        let params = ChannelParams::with_alpha(ALPHAS[alpha_idx]);
        for backend in [
            BackendChoice::Dense,
            BackendChoice::Sparse(SparseConfig { tail_rtol: TAIL_RTOLS[rtol_idx] }),
        ] {
            let mut problem = Problem::builder(links.clone(), params).backend(backend).build();
            let mut map = LinkIdMap::with_len(n);
            for (tag, &op) in ops.iter().enumerate() {
                apply_op(&mut problem, &mut map, op, tag);
                prop_assert_eq!(&problem, &rebuild(&problem), "{:?} diverged after op {}", backend, tag);
            }
        }
    }
}

/// Transactional edge cases: empty batches leave the stamp alone,
/// unknown externals and duplicate positions reject atomically, a
/// position freed by a removal is reusable by an add in the *same*
/// batch, and bad power scales surface as typed errors.
#[test]
fn transactional_batch_contract() {
    let mut p = Problem::paper(UniformGenerator::paper(6).generate(9), 3.0);
    let mut map = LinkIdMap::with_len(6);
    let before = p.clone();
    let stamp = p.stamp();

    // Empty batch: receipt empty, stamp untouched.
    let r = p.apply(&MutationBatch::new(), &mut map).unwrap();
    assert_eq!(r, BatchReceipt::default());
    assert_eq!(p.stamp(), stamp, "empty batch must not move the stamp");

    // Unknown external id: typed error, nothing changes.
    let mut batch = MutationBatch::new();
    batch.remove(99);
    assert_eq!(
        p.apply(&batch, &mut map),
        Err(MutationError::UnknownExternal(99))
    );
    assert_eq!(p, before);
    assert_eq!(map.len(), 6);

    // A removal frees its positions for an add in the same batch.
    let (pos_s, pos_r) = {
        let l = p.links().link(LinkId(2));
        (l.sender, l.receiver)
    };
    let mut batch = MutationBatch::new();
    batch
        .remove(2)
        .add(LinkSpec::new(pos_s, pos_r).with_rate(3.0));
    let receipt = p.apply(&batch, &mut map).unwrap();
    assert_eq!(receipt.removed, vec![2]);
    assert_eq!(receipt.added.len(), 1);
    assert_eq!(p.len(), 6);
    assert_eq!(p, rebuild(&p));

    // An add colliding with a live (non-removed) position rejects the
    // whole batch atomically.
    let live = p.links().link(LinkId(0)).sender;
    let mut batch = MutationBatch::new();
    batch.add(LinkSpec::new(live, Point2::new(7_777.0, 7.0)));
    let snapshot = p.clone();
    assert!(matches!(
        p.apply(&batch, &mut map),
        Err(MutationError::InvalidAdd {
            slot: 0,
            source: ValidationError::DuplicateSender(..),
        })
    ));
    assert_eq!(p, snapshot, "rejected batch must be a no-op");

    // A bad power scale is a typed error that leaves problem and map
    // untouched.
    let map_snapshot = map.clone();
    let bad =
        LinkSpec::new(Point2::new(9_000.0, 1.0), Point2::new(9_002.0, 1.0)).with_power_scale(-1.0);
    assert!(matches!(
        p.apply(&add_batch(bad), &mut map),
        Err(MutationError::InvalidAdd {
            slot: 0,
            source: ValidationError::BadPowerScale { .. },
        })
    ));
    assert_eq!(p, snapshot);
    assert_eq!(map, map_snapshot);
}

/// Batch semantics and error atomicity: new links take dense ids in
/// spec order, a mid-batch validation error leaves the instance
/// untouched, and duplicate removals collapse and apply in descending
/// dense order.
#[test]
fn batch_api_contract() {
    let mut p = Problem::paper(UniformGenerator::paper(6).generate(9), 3.0);
    let mut map = LinkIdMap::with_len(6);
    let before = p.clone();
    let stamp_before = p.stamp();

    let mut batch = MutationBatch::new();
    batch
        .add(LinkSpec::new(
            Point2::new(10.0, 10.0),
            Point2::new(12.0, 10.0),
        ))
        .add(LinkSpec::new(Point2::new(20.0, 10.0), Point2::new(22.0, 10.0)).with_rate(2.0));
    let receipt = p.apply(&batch, &mut map).unwrap();
    assert_eq!(receipt.added, vec![6, 7]);
    assert_eq!(map.dense(6), Some(LinkId(6)));
    assert_eq!(map.dense(7), Some(LinkId(7)));
    assert_eq!(p.len(), 8);
    assert_ne!(p.stamp(), stamp_before, "mutation must move the stamp");
    assert_eq!(p.rate(LinkId(7)), 2.0);

    // Second spec duplicates the first's sender: nothing is applied.
    let mut bad = MutationBatch::new();
    bad.add(LinkSpec::new(
        Point2::new(30.0, 10.0),
        Point2::new(32.0, 10.0),
    ))
    .add(LinkSpec::new(
        Point2::new(30.0, 10.0),
        Point2::new(34.0, 10.0),
    ));
    let snapshot = p.clone();
    assert!(matches!(
        p.apply(&bad, &mut map),
        Err(MutationError::InvalidAdd {
            slot: 1,
            source: ValidationError::DuplicateSender(LinkId(8), LinkId(9)),
        })
    ));
    assert_eq!(p, snapshot, "failed batch must be a no-op");

    // Duplicate ids are applied once, in descending dense order.
    let receipt = p.apply(&remove_batch(&[6, 7, 6]), &mut map).unwrap();
    assert_eq!(receipt.removed, vec![7, 6]);
    assert_eq!(p, before, "add then remove must round-trip");
}

/// The uniform→powered transition materializes an all-ones profile
/// bit-identically: factors over the pre-existing links are unchanged.
#[test]
fn power_profile_materialization_is_exact() {
    for backend in [
        BackendChoice::Dense,
        BackendChoice::Sparse(SparseConfig::default()),
    ] {
        let links = UniformGenerator::paper(12).generate(11);
        let mut p = Problem::builder(links, ChannelParams::with_alpha(3.0))
            .backend(backend)
            .build();
        let uniform = p.clone();
        let mut map = LinkIdMap::with_len(12);
        assert!(p.power_scales().is_none());
        let receipt = p
            .apply(
                &add_batch(
                    LinkSpec::new(Point2::new(500.0, 500.0), Point2::new(503.0, 500.0))
                        .with_power_scale(2.5),
                ),
                &mut map,
            )
            .unwrap();
        let scales = p.power_scales().expect("profile must materialize");
        assert_eq!(scales.len(), 13);
        assert!(scales[..12].iter().all(|&s| s == 1.0));
        assert_eq!(scales[12], 2.5);
        for a in uniform.links().ids() {
            for b in uniform.links().ids() {
                assert_eq!(
                    p.factor(a, b).to_bits(),
                    uniform.factor(a, b).to_bits(),
                    "pre-existing factors must not move"
                );
            }
        }
        // And the whole state still equals a from-scratch powered build.
        assert_eq!(p, rebuild(&p));
        p.apply(&remove_batch(&receipt.added), &mut map).unwrap();
        assert_eq!(
            p.power_scales(),
            Some(vec![1.0; 12].as_slice()),
            "profile stays materialized after the powered link leaves"
        );
    }
}
