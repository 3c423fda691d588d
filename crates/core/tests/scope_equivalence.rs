//! Scope equivalence (the scoped-scheduling contract).
//!
//! A scheduler called on a live problem with a candidate [`Scope`]
//! reads the problem's own stored factors, tail cuts and geometry, and
//! weighs candidates by the scope's weights. These properties pin that
//! this is indistinguishable from scheduling a from-scratch build of
//! the candidates alone (carrying the parent's ε, backend and sliced
//! power scales, with the weights as rates) and mapping the result
//! back to live ids: same schedules and same feasibility verdicts, for
//! every registered scheduler, across backends, path-loss exponents,
//! power models, candidate subsets and weights.

use fading_channel::ChannelParams;
use fading_core::feasibility::is_feasible;
use fading_core::{AlgoId, BackendChoice, Problem, SchedCtx, Schedule, Scope, SparseConfig};
use fading_net::{Link, LinkId, LinkSet, TopologyGenerator, UniformGenerator};
use proptest::prelude::*;

const ALPHAS: [f64; 3] = [2.5, 3.0, 4.0];
/// Exhaustive-at-paper-scale and genuinely-truncating cuts.
const TAIL_RTOLS: [f64; 2] = [1e-3, 5e-1];
/// Largest scope the exact solver is run on here.
const EXACT_MAX_CANDIDATES: usize = 20;

/// A parent problem under the requested backend and power model.
fn parent(n: usize, seed: u64, alpha: f64, backend: BackendChoice, powered: bool) -> Problem {
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

/// The candidate subset encoded by `mask` (always non-empty: id 0 is
/// forced in when the mask selects nothing).
fn candidates(n: usize, mask: u64) -> Vec<LinkId> {
    let keep: Vec<LinkId> = (0..n)
        .filter(|&i| mask & (1 << (i % 64)) != 0)
        .map(|i| LinkId(i as u32))
        .collect();
    if keep.is_empty() {
        vec![LinkId(0)]
    } else {
        keep
    }
}

/// A from-scratch build of the candidates with the parent's full
/// configuration and the scope's weights as rates.
fn rebuild(parent: &Problem, scope: Scope<'_>) -> Problem {
    let keep = scope.list().expect("a candidate scope");
    let (sliced, _) = parent.links().restrict(keep);
    let links = sliced
        .links()
        .iter()
        .zip(keep)
        .map(|(l, &id)| Link {
            rate: scope.weight(parent, id),
            ..*l
        })
        .collect();
    let builder = Problem::builder(LinkSet::new(*sliced.region(), links), *parent.params())
        .epsilon(parent.epsilon())
        .backend(parent.backend_choice());
    match parent.power_scales() {
        Some(p) => builder
            .power_scales(keep.iter().map(|id| p[id.index()]).collect())
            .build(),
        None => builder.build(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Scoped scheduling ≡ rebuild-then-schedule, mapped back: the
    /// same schedule and the same feasibility verdict on both backends,
    /// for all ten registered schedulers.
    #[test]
    fn scoped_schedule_equals_rebuild_then_schedule(
        n in 4usize..40,
        seed in 0u64..5_000,
        alpha_idx in 0usize..3,
        rtol_idx in 0usize..2,
        sparse_bit in 0usize..2,
        powered_bit in 0usize..2,
        weighted_bit in 0usize..2,
        mask in 1u64..u64::MAX,
        weight_seed in 0u64..1_000,
    ) {
        let backend = if sparse_bit == 1 {
            BackendChoice::Sparse(SparseConfig { tail_rtol: TAIL_RTOLS[rtol_idx] })
        } else {
            BackendChoice::Dense
        };
        let parent = parent(n, seed, ALPHAS[alpha_idx], backend, powered_bit == 1);
        let keep = candidates(n, mask);
        let weights: Vec<f64> = (0..n as u64)
            .map(|i| 0.25 + ((i * 7919 + weight_seed) % 37) as f64 / 8.0)
            .collect();
        let mut scope = Scope::candidates(&keep);
        if weighted_bit == 1 {
            scope = scope.weighted(&weights);
        }
        let rebuilt = rebuild(&parent, scope);
        prop_assert_eq!(rebuilt.factors().name(), parent.factors().name());
        for (a, &i) in keep.iter().enumerate() {
            for (b, &j) in keep.iter().enumerate() {
                prop_assert_eq!(
                    parent.factor(i, j).to_bits(),
                    rebuilt.factor(LinkId(a as u32), LinkId(b as u32)).to_bits()
                );
            }
        }

        let mut ctx = SchedCtx::new();
        for algo in AlgoId::ALL {
            if algo == AlgoId::Exact && keep.len() > EXACT_MAX_CANDIDATES {
                continue;
            }
            let s = algo.build(seed);
            let scoped = s.schedule_in(&parent, scope, &mut ctx);
            let from_rebuild = s.schedule(&rebuilt);
            let mapped = Schedule::from_ids(from_rebuild.iter().map(|id| keep[id.index()]));
            prop_assert_eq!(&scoped, &mapped, "{} diverged", s.name());
            prop_assert_eq!(
                is_feasible(&parent, &scoped),
                is_feasible(&rebuilt, &from_rebuild),
                "{} verdicts diverged", s.name()
            );
        }
    }
}

/// The exact solver's size limit bounds the candidates, not the live
/// problem: a 12-link scope of a 60-link instance solves.
#[test]
fn exact_bounds_the_scope_not_the_problem() {
    let parent = parent(60, 4, 3.0, BackendChoice::Dense, false);
    let keep: Vec<LinkId> = (0..60).step_by(5).map(LinkId).collect();
    let scope = Scope::candidates(&keep);
    let s = AlgoId::Exact
        .build(0)
        .schedule_in(&parent, scope, &mut SchedCtx::new());
    assert!(!s.is_empty());
    assert!(s.iter().all(|id| keep.contains(&id)));
    let rebuilt = rebuild(&parent, scope);
    assert_eq!(s.len(), AlgoId::Exact.build(0).schedule(&rebuilt).len());
}
