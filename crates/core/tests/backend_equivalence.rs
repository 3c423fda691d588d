//! Dense/sparse backend equivalence (the tentpole contract).
//!
//! The sparse backend truncates *storage*, never *semantics*: scalar
//! factor lookups recompute Eq. (17) exactly, and every verdict-producing
//! check resolves a straddling certified envelope by exact recomputation.
//! These properties pin that contract across random topologies, path-loss
//! exponents, power scales, and truncation strengths — including
//! `tail_rtol` values large enough to force real truncation at paper
//! densities.

use fading_channel::ChannelParams;
use fading_core::algo::{Dls, GreedyRate, Ldp, Rle};
use fading_core::feasibility::{is_feasible, InterferenceAccumulator};
use fading_core::{
    BackendChoice, Problem, Schedule, Scheduler, Scope, SparseConfig, SparseInterference,
};
use fading_net::{LinkId, TopologyGenerator, UniformGenerator};
use proptest::prelude::*;
use rand::Rng;

const ALPHAS: [f64; 3] = [2.5, 3.0, 4.0];
/// From barely-truncating to aggressive (R ≈ 6·d_jj at α = 3).
const TAIL_RTOLS: [f64; 3] = [1e-3, 1e-1, 5e-1];

/// A dense and a sparse build of the same instance.
fn build_pair(
    n: usize,
    seed: u64,
    alpha: f64,
    tail_rtol: f64,
    powered: bool,
) -> (Problem, Problem) {
    let links = UniformGenerator::paper(n).generate(seed);
    let params = ChannelParams::with_alpha(alpha);
    let sparse = BackendChoice::Sparse(SparseConfig { tail_rtol });
    if powered {
        let scales: Vec<f64> = (0..n).map(|i| 0.5 + (i % 5) as f64 * 0.375).collect();
        (
            Problem::builder(links.clone(), params)
                .power_scales(scales.clone())
                .build(),
            Problem::builder(links, params)
                .power_scales(scales)
                .backend(sparse)
                .build(),
        )
    } else {
        (
            Problem::new(links.clone(), params, 0.01),
            Problem::builder(links, params).backend(sparse).build(),
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Scalar factor lookups are bit-identical between backends — the
    /// foundation every other equivalence rests on.
    #[test]
    fn factors_are_bit_identical(
        n in 2usize..40,
        seed in 0u64..5_000,
        alpha_idx in 0usize..3,
        rtol_idx in 0usize..3,
        powered_bit in 0usize..2,
    ) {
        let (dense, sparse) =
            build_pair(n, seed, ALPHAS[alpha_idx], TAIL_RTOLS[rtol_idx], powered_bit == 1);
        for i in dense.links().ids() {
            for j in dense.links().ids() {
                prop_assert_eq!(
                    dense.factor(i, j).to_bits(),
                    sparse.factor(i, j).to_bits(),
                    "f({}, {})", i, j
                );
            }
        }
    }

    /// Every deterministic scheduler produces the same schedule on both
    /// backends — feasibility verdicts never flip under truncation.
    #[test]
    fn schedulers_agree_on_every_backend(
        n in 2usize..50,
        seed in 0u64..5_000,
        alpha_idx in 0usize..3,
        rtol_idx in 0usize..3,
        powered_bit in 0usize..2,
    ) {
        let (dense, sparse) =
            build_pair(n, seed, ALPHAS[alpha_idx], TAIL_RTOLS[rtol_idx], powered_bit == 1);
        let schedulers: [&dyn Scheduler; 4] =
            [&Rle::new(), &Ldp::new(), &GreedyRate, &Dls::new()];
        for s in schedulers {
            let d = s.schedule(&dense);
            let p = s.schedule(&sparse);
            prop_assert_eq!(&d, &p, "{} diverged", s.name());
            prop_assert!(is_feasible(&dense, &d));
        }
    }

    /// Accumulated sums: the sparse stored sum is a lower bound within
    /// the certified envelope `|S|·cut_bound(j)` of the dense sum, the
    /// exact fallback reproduces the dense accumulation bit-for-bit, and
    /// per-step greedy admission verdicts coincide.
    #[test]
    fn accumulator_sums_stay_inside_the_certified_envelope(
        n in 2usize..40,
        seed in 0u64..5_000,
        alpha_idx in 0usize..3,
        rtol_idx in 0usize..3,
        powered_bit in 0usize..2,
    ) {
        let (dense, sparse) =
            build_pair(n, seed, ALPHAS[alpha_idx], TAIL_RTOLS[rtol_idx], powered_bit == 1);
        let budget = dense.gamma_eps();
        let (mut sums_d, mut sums_s) = (Vec::new(), Vec::new());
        let mut acc_d = InterferenceAccumulator::new(&dense, Scope::all(), &mut sums_d);
        let mut acc_s = InterferenceAccumulator::new(&sparse, Scope::all(), &mut sums_s);
        for id in dense.links().ids() {
            let admit_d = acc_d.addition_is_feasible(id, budget);
            let admit_s = acc_s.addition_is_feasible(id, budget);
            prop_assert_eq!(admit_d, admit_s, "admission verdict flipped at {}", id);
            if admit_d {
                acc_d.select(id);
                acc_s.select(id);
            }
        }
        for j in dense.links().ids() {
            let exact = acc_d.sum_on(j);
            let lo = acc_s.sum_on(j);
            let tail = acc_s.tail_on(j);
            // A hair of slack: both sums round independently per term.
            let slack = 1e-9 * (1.0 + exact.abs());
            prop_assert!(
                lo <= exact + slack && exact <= lo + tail + slack,
                "envelope violated on {j}: stored {lo}, exact {exact}, tail {tail}"
            );
            prop_assert_eq!(
                acc_s.exact_sum_on(j).to_bits(),
                exact.to_bits(),
                "exact fallback diverged on {}", j
            );
        }
    }

    /// Subset feasibility verdicts (the report path) coincide, and the
    /// sparse backend's discarded mass per receiver respects the
    /// per-factor cut: every omitted factor is individually at most the
    /// certified `cut_bound(j)` (the cut `τ_j` plus its `CUT_RTOL`
    /// rounding slack).
    #[test]
    fn subset_verdicts_and_omitted_factors_respect_the_cut(
        n in 2usize..40,
        seed in 0u64..5_000,
        alpha_idx in 0usize..3,
        rtol_idx in 0usize..3,
        stride in 1usize..4,
    ) {
        let (dense, sparse) =
            build_pair(n, seed, ALPHAS[alpha_idx], TAIL_RTOLS[rtol_idx], false);
        let subset = Schedule::from_ids(
            dense.links().ids().filter(|id| id.index() % stride == 0),
        );
        prop_assert_eq!(
            is_feasible(&dense, &subset),
            is_feasible(&sparse, &subset)
        );
        let model = sparse.factors().as_sparse().expect("sparse backend");
        // stored[j][i]: whether sender i's out-row stores receiver j.
        let mut stored = vec![vec![false; n]; n];
        for i in dense.links().ids() {
            let (receivers, factors) = model.row_slices(i);
            for (&j, &f) in receivers.iter().zip(factors) {
                stored[j as usize][i.index()] = true;
                prop_assert_eq!(
                    f.to_bits(),
                    dense.factor(i, LinkId(j)).to_bits(),
                    "stored f({}, {}) diverged", i, j
                );
            }
        }
        for j in dense.links().ids() {
            let cut = model.cut_bound(j);
            let stored = &stored[j.index()];
            for i in dense.links().ids() {
                if i != j && !stored[i.index()] {
                    prop_assert!(
                        dense.factor(i, j) <= cut,
                        "omitted f({i},{j}) = {} > certified cut {cut}",
                        dense.factor(i, j)
                    );
                }
            }
        }
    }
}

/// Runs admission over `order` on a dense and a sparse accumulator,
/// asserting equal verdicts at every step.
fn admit_in_lockstep(
    acc_d: &mut InterferenceAccumulator<'_>,
    acc_s: &mut InterferenceAccumulator<'_>,
    order: &[LinkId],
    budget: f64,
) {
    for &id in order {
        let admit = acc_d.addition_is_feasible(id, budget);
        assert_eq!(
            admit,
            acc_s.addition_is_feasible(id, budget),
            "admission verdict flipped at {}",
            id
        );
        if admit {
            acc_d.select(id);
            acc_s.select(id);
        }
    }
}

/// Every member's exact sum on the sparse side equals the dense sum.
fn member_sums_match(acc_d: &InterferenceAccumulator<'_>, acc_s: &InterferenceAccumulator<'_>) {
    assert_eq!(acc_d.selected(), acc_s.selected());
    for &j in acc_s.selected() {
        assert_eq!(
            acc_s.exact_sum_on(j).to_bits(),
            acc_d.sum_on(j).to_bits(),
            "member sum diverged on {}",
            j
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Straddle-heavy accumulator oracle: paper-density instances of a
    /// few hundred links, where member envelopes `|S|·cut_bound(j)` grow
    /// past the budget and resolve exactly, and the member loop's
    /// omitted-pair bound decides most checks. Admission runs in a
    /// random-weight order on both backends, with a checkpoint midway,
    /// a detour of admissions and a rollback; every verdict and every
    /// member's exact sum must equal the dense accumulation bit for bit.
    #[test]
    fn straddling_member_sums_stay_bit_identical(
        n in 150usize..400,
        seed in 0u64..5_000,
        alpha_idx in 0usize..2,
        rtol_idx in 0usize..3,
        powered_bit in 0usize..2,
    ) {
        let alpha = [3.0, 4.0][alpha_idx];
        let tail_rtol = [1e-3, 1e-2, 1e-1][rtol_idx];
        let (dense, sparse) = build_pair(n, seed, alpha, tail_rtol, powered_bit == 1);
        let budget = dense.gamma_eps();
        let mut rng = fading_math::seeded_rng(seed);
        let weights: Vec<f64> = (0..n).map(|_| rng.gen()).collect();
        let mut order: Vec<LinkId> = dense.links().ids().collect();
        order.sort_by(|a, b| weights[b.index()].total_cmp(&weights[a.index()]));
        let (mut sums_d, mut sums_s) = (Vec::new(), Vec::new());
        let mut acc_d = InterferenceAccumulator::new(&dense, Scope::all(), &mut sums_d);
        let mut acc_s = InterferenceAccumulator::new(&sparse, Scope::all(), &mut sums_s);
        let (head, tail) = order.split_at(n / 2);
        admit_in_lockstep(&mut acc_d, &mut acc_s, head, budget);
        member_sums_match(&acc_d, &acc_s);
        let (cp_d, cp_s) = (acc_d.checkpoint(), acc_s.checkpoint());
        let detour: Vec<LinkId> = tail.iter().rev().copied().collect();
        admit_in_lockstep(&mut acc_d, &mut acc_s, &detour, budget);
        member_sums_match(&acc_d, &acc_s);
        acc_d.rollback(cp_d);
        acc_s.rollback(cp_s);
        admit_in_lockstep(&mut acc_d, &mut acc_s, tail, budget);
        member_sums_match(&acc_d, &acc_s);
    }
}

/// The certified configuration stores the paper workload exhaustively:
/// truncation is invisible even to raw sum comparisons, so the Fig. 5
/// pipeline can run sparse with zero tail by construction.
#[test]
fn certified_config_is_exhaustive_on_the_paper_workload() {
    let links = UniformGenerator::paper(120).generate(20170714);
    let sparse = SparseInterference::build(
        &links,
        &fading_channel::RayleighChannel::new(ChannelParams::with_alpha(3.0)),
        None,
        fading_math::gamma_eps(0.01),
        SparseConfig::certified(),
    );
    assert_eq!(sparse.max_tail_cut(), 0.0);
}
