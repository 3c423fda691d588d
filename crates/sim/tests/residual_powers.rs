//! Regression: residual sub-problems must keep the parent's per-link
//! power scales (and backend). Before `Problem::restrict`, the
//! multi-slot loop and the queueing loop rebuilt residual
//! instances with `Problem::new`, silently reverting a powered instance
//! to uniform power — slots that are infeasible under the true powers
//! looked feasible, and vice versa.
//!
//! The instance here is engineered so the bug is *observable*: two
//! far-apart links that coexist under uniform power but conflict once
//! link 0's sender transmits at 1000×. The old code scheduled them
//! together; the fixed code must keep them in separate slots.

use fading_channel::ChannelParams;
use fading_core::algo::GreedyRate;
use fading_core::feasibility::is_feasible;
use fading_core::{multislot, Problem, Schedule};
use fading_geom::{Point2, Rect};
use fading_net::{Link, LinkId, LinkSet, UniformGenerator};
use fading_sim::{ChurnConfig, ChurnEngine, ChurnResult, ServicePolicy};

/// Two parallel length-5 links, 50 apart. Cross factors under uniform
/// power are `ln(1 + (5/50.2…)³) ≈ 1e-3 < γ_ε`; with sender 0 at 1000×
/// the 0→1 factor is `ln(1 + 1000·(5/50.2…)³) ≈ 0.69 ≫ γ_ε`.
fn links() -> LinkSet {
    LinkSet::new(
        Rect::square(100.0),
        vec![
            Link::new(LinkId(0), Point2::new(0.0, 0.0), Point2::new(5.0, 0.0), 1.0),
            Link::new(
                LinkId(1),
                Point2::new(0.0, 50.0),
                Point2::new(5.0, 50.0),
                1.0,
            ),
        ],
    )
}

const SCALES: [f64; 2] = [1000.0, 1.0];
const EPSILON: f64 = 0.01;

fn uniform() -> Problem {
    Problem::new(links(), ChannelParams::paper_defaults(), EPSILON)
}

fn powered() -> Problem {
    Problem::builder(links(), ChannelParams::paper_defaults())
        .epsilon(EPSILON)
        .power_scales(SCALES.to_vec())
        .build()
}

/// The preconditions the instance is engineered for — if these fail the
/// other tests in this file test nothing.
#[test]
fn instance_discriminates_uniform_from_powered() {
    let both = Schedule::from_ids([LinkId(0), LinkId(1)]);
    assert!(
        is_feasible(&uniform(), &both),
        "links must coexist under uniform power"
    );
    assert!(
        !is_feasible(&powered(), &both),
        "links must conflict under the true powers"
    );
}

/// Multi-slot scheduling on a powered instance: every slot must be
/// feasible under the *parent's* powers. The old residual rebuild
/// dropped the scales and packed both links into one slot.
#[test]
fn multislot_respects_parent_power_scales() {
    let p = powered();
    let ms = multislot::schedule_all(&p, &GreedyRate);
    for slot in ms.slots() {
        assert!(
            is_feasible(&p, slot),
            "slot {slot:?} infeasible under the parent's powers"
        );
    }
    assert_eq!(
        ms.num_slots(),
        2,
        "conflicting powered links need separate slots"
    );
    assert_eq!(ms.total_links(), 2);
}

const SLOTS: u64 = 120;

/// Queues on a fixed population: both links draw a packet every slot,
/// and no link arrives or departs.
fn queue(problem: Problem, policy: ServicePolicy) -> ChurnResult {
    let cfg = ChurnConfig {
        slots: SLOTS,
        link_arrival_rate: 0.0,
        mean_lifetime: f64::INFINITY,
        packet_prob: 1.0,
        seed: 9,
    };
    // The geometry only shapes arriving links, and none arrive.
    ChurnEngine::new(problem, UniformGenerator::paper(2), cfg).run(&GreedyRate, policy)
}

/// Queueing on the same instance, both service policies: with the true
/// powers at most one of the two links can be served per slot, and a
/// noise-free singleton always succeeds, so deliveries are exactly one
/// per slot. The old residual rebuild served both every slot (≈ 2 per
/// slot) because the uniform-power sub-instance saw no conflict.
#[test]
fn queueing_respects_parent_power_scales() {
    for policy in [ServicePolicy::PlainRates, ServicePolicy::MaxWeight] {
        let r = queue(powered(), policy);
        assert_eq!(r.packets_arrived, 2 * SLOTS, "deterministic arrivals");
        assert_eq!(
            r.packets_delivered, SLOTS,
            "{policy:?}: exactly one conflicting link can deliver per slot"
        );
        assert!((r.delivered_per_slot() - 1.0).abs() < 1e-12);
    }
}

/// The uniform-power twin delivers both packets every slot — pinning
/// that the powered behavior above comes from the power scales, not
/// from some other property of the geometry.
#[test]
fn uniform_twin_serves_both_links_every_slot() {
    let r = queue(uniform(), ServicePolicy::PlainRates);
    assert_eq!(r.packets_delivered, 2 * SLOTS);
    assert_eq!(r.final_backlog, 0);
}
