//! Workspace-reuse equivalence (the ctx contract).
//!
//! A [`SchedCtx`] carries capacity only, never semantic state:
//! `schedule_in` through a *dirty* reused workspace — one that just
//! scheduled a different instance, of a different size, under a
//! different backend — must be bit-identical to a fresh `schedule()`.
//! Pinned across random topologies, path-loss exponents, both
//! interference backends, and non-uniform power scales — and across
//! scopes: a ctx dirtied under one candidate scope (or one set of
//! weights) of a problem must schedule another scope of the *same*
//! problem, whose stamp it has already seen, like a fresh ctx.

use fading_channel::ChannelParams;
use fading_core::algo::{ApproxDiversity, ApproxLogN, Dls, GreedyRate, Ldp, Rle};
use fading_core::{BackendChoice, Problem, SchedCtx, Scheduler, Scope, SparseConfig};
use fading_net::{LinkId, TopologyGenerator, UniformGenerator};
use proptest::prelude::*;

const ALPHAS: [f64; 3] = [2.5, 3.0, 4.0];

fn build(n: usize, seed: u64, alpha: f64, sparse: bool, powered: bool) -> Problem {
    let links = UniformGenerator::paper(n).generate(seed);
    let backend = if sparse {
        BackendChoice::Sparse(SparseConfig::default())
    } else {
        BackendChoice::Dense
    };
    let builder = Problem::builder(links, ChannelParams::with_alpha(alpha)).backend(backend);
    if powered {
        let scales: Vec<f64> = (0..n).map(|i| 0.5 + (i % 5) as f64 * 0.375).collect();
        builder.power_scales(scales).build()
    } else {
        builder.build()
    }
}

/// Every built-in scheduler that threads real scratch state through
/// the ctx (the stochastic ones are covered via their deterministic
/// seeds elsewhere; `LocalSearch` delegates to these bases).
fn schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(Rle::new()),
        Box::new(Ldp::new()),
        Box::new(Ldp::two_sided()),
        Box::new(Dls::new()),
        Box::new(GreedyRate),
        Box::new(ApproxLogN),
        Box::new(ApproxDiversity::new()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Dirty-ctx `schedule_in` ≡ fresh `schedule()` for every
    /// scheduler, α, backend, and power model.
    #[test]
    fn dirty_ctx_schedules_bit_identically(
        seed in 0u64..1000,
        n in 20usize..120,
        alpha_i in 0usize..ALPHAS.len(),
        sparse_i in 0usize..2,
        powered_i in 0usize..2,
    ) {
        let (sparse, powered) = (sparse_i == 1, powered_i == 1);
        let alpha = ALPHAS[alpha_i];
        let p = build(n, seed, alpha, sparse, powered);
        // Dirty the workspace on a *different* instance: larger,
        // other backend, other α, so every buffer holds stale state.
        let decoy = build(n + 40, seed ^ 0x9e37, ALPHAS[(alpha_i + 1) % 3], !sparse, !powered);
        for s in schedulers() {
            let mut ctx = SchedCtx::new();
            let stale = s.schedule_in(&decoy, Scope::all(), &mut ctx);
            ctx.recycle(stale);
            let warm = s.schedule_in(&p, Scope::all(), &mut ctx);
            let fresh = s.schedule(&p);
            prop_assert_eq!(&warm, &fresh, "{} diverged under reuse", s.name());
            // And again: the second reuse must also match.
            let warm2 = s.schedule_in(&p, Scope::all(), &mut ctx);
            prop_assert_eq!(&warm2, &fresh, "{} diverged on second reuse", s.name());
        }
    }

    /// A ctx dirtied under scope A of a problem schedules scope B of
    /// the same problem (same stamp) bit-identically to a fresh ctx —
    /// for different candidate lists, for the whole problem against a
    /// list, and for one list under two different weight vectors.
    #[test]
    fn scope_switch_on_one_stamp_schedules_like_a_fresh_ctx(
        seed in 0u64..1000,
        n in 20usize..120,
        alpha_i in 0usize..ALPHAS.len(),
        sparse_i in 0usize..2,
        powered_i in 0usize..2,
        mask_a in 1u64..u64::MAX,
        mask_b in 1u64..u64::MAX,
        weight_seed in 0u64..1000,
    ) {
        let p = build(n, seed, ALPHAS[alpha_i], sparse_i == 1, powered_i == 1);
        let subset = |mask: u64| -> Vec<LinkId> {
            (0..n as u32).filter(|&i| mask & (1 << (i % 64)) != 0).map(LinkId).collect()
        };
        let (a, b) = (subset(mask_a), subset(mask_b));
        let weights = |salt: u64| -> Vec<f64> {
            (0..n as u64).map(|i| 1.0 + ((i * 31 + weight_seed + salt) % 11) as f64).collect()
        };
        let (w1, w2) = (weights(0), weights(5));
        let pairs = [
            (Scope::candidates(&a), Scope::candidates(&b)),
            (Scope::all(), Scope::candidates(&b)),
            (Scope::candidates(&a), Scope::all()),
            (Scope::candidates(&a).weighted(&w1), Scope::candidates(&a).weighted(&w2)),
            (Scope::candidates(&a), Scope::candidates(&a).weighted(&w2)),
        ];
        for s in schedulers() {
            for (i, &(first, second)) in pairs.iter().enumerate() {
                let mut ctx = SchedCtx::new();
                let stale = s.schedule_in(&p, first, &mut ctx);
                ctx.recycle(stale);
                let warm = s.schedule_in(&p, second, &mut ctx);
                let fresh = s.schedule_in(&p, second, &mut SchedCtx::new());
                prop_assert_eq!(&warm, &fresh, "{} diverged on scope pair {}", s.name(), i);
            }
        }
    }
}
