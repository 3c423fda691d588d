//! Benchmark self-test: every workload at toy size emits exactly the
//! metrics `BENCHMARK.json` names with all checks passing, its exact
//! figures repeat bit for bit for one seed, and a corrupted output is
//! counted as a failed op.

use fading_channel::ChannelParams;
use fading_core::algo::{GreedyRate, Ldp};
use fading_core::{BackendChoice, FeasibilityReport, Problem, Schedule, Scheduler, SparseConfig};
use fading_net::{LinkId, TopologyGenerator, UniformGenerator};
use fading_sim::{simulate_many, ChurnConfig, ChurnEngine, ServicePolicy};
use perfbench::engine::check_slot;
use perfbench::paper_figs::{check_cell, CellRun};
use perfbench::{run, OpOutput, OpTrace, Outcome, RunOptions, Scale, Tally, WORKLOADS};

/// The `(name, unit)` pairs `BENCHMARK.json` lists under `section`.
fn spec_metrics(section: &str) -> Vec<(String, String)> {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = spec
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section}"));
    let body = &spec[start..];
    let end = body.find(']').expect("a closed list");
    // The quoted value that follows `"key":` in `entry`.
    let value = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\"")).expect("the key") + key.len() + 2;
        entry[at..]
            .split('"')
            .nth(1)
            .expect("a quoted value")
            .to_string()
    };
    body[..end]
        .split('{')
        .skip(1)
        .map(|entry| (value(entry, "name"), value(entry, "unit")))
        .collect()
}

fn toy(workload: &str, seed: u64, trace: bool) -> Outcome {
    run(&RunOptions {
        workload: workload.to_string(),
        seed,
        seconds: 0.001,
        trace,
        scale: Scale::Toy,
    })
    .unwrap_or_else(|e| panic!("{workload}: {e}"))
}

fn names(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_workload_emits_every_named_metric() {
    let end_to_end = spec_metrics("end_to_end");
    let per_layer = spec_metrics("per_layer");
    assert!(!end_to_end.is_empty() && !per_layer.is_empty());
    for workload in WORKLOADS {
        for (trace, expected) in [(false, &end_to_end), (true, &per_layer)] {
            let outcome = toy(workload, 7, trace);
            assert!(
                outcome.correct && outcome.failed == 0,
                "{workload} trace={trace}: {:?}",
                outcome.notes
            );
            assert!(
                outcome.attempted >= 100,
                "{workload}: {}",
                outcome.attempted
            );
            assert_eq!(&names(&outcome), expected, "{workload} trace={trace}");
            assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
        }
    }
}

#[test]
fn exact_figures_repeat_for_one_seed() {
    for workload in WORKLOADS {
        let a = toy(workload, 11, false);
        let b = toy(workload, 11, false);
        for name in ["scheduled_per_op", "delivered_per_op"] {
            let (x, y) = (a.metric(name).unwrap(), b.metric(name).unwrap());
            assert_eq!(x.to_bits(), y.to_bits(), "{workload} {name}");
        }
        // The quality note carries link_fail_frac at full precision.
        let quality = |o: &Outcome| {
            o.notes
                .iter()
                .find(|n| n.starts_with("quality"))
                .cloned()
                .expect("a quality note")
        };
        assert_eq!(quality(&a), quality(&b), "{workload}");
    }
}

/// `schedule` plus a link outside it whose addition makes it infeasible.
fn conflicting(problem: &Problem, schedule: &Schedule) -> Schedule {
    (0..problem.len() as u32)
        .map(LinkId)
        .filter(|id| !schedule.contains(*id))
        .map(|id| Schedule::from_ids(schedule.iter().chain([id])))
        .find(|s| !FeasibilityReport::evaluate(problem, s).is_feasible())
        .expect("some link conflicts with the schedule")
}

/// Feeds one op's verdict through the run's tally.
fn failed_ops(ok: bool) -> u64 {
    let mut tally = Tally::new(1);
    let out = OpOutput {
        ns: 1,
        ok,
        scheduled: 1.0,
        delivered: 1.0,
        failed_tx: 0.0,
    };
    tally.record(&out, &OpTrace::new(false));
    tally.failed()
}

#[test]
fn a_conflicting_link_in_a_paper_cell_is_a_failed_op() {
    let problem = Problem::paper(UniformGenerator::paper(120).generate(3), 3.0);
    let schedule = Ldp::new().schedule(&problem);
    let stats = simulate_many(&problem, &schedule, 200, 5);
    let good = CellRun {
        problem: problem.clone(),
        schedule: schedule.clone(),
        stats,
    };
    assert_eq!(failed_ops(check_cell(&good, true)), 0);

    let corrupted = conflicting(&problem, &schedule);
    let stats = simulate_many(&problem, &corrupted, 200, 5);
    let bad = CellRun {
        problem,
        schedule: corrupted,
        stats,
    };
    assert_eq!(failed_ops(check_cell(&bad, true)), 1);
}

#[test]
fn a_dropped_packet_in_an_engine_slot_is_a_failed_op() {
    let gen = UniformGenerator::paper(300);
    let problem = Problem::builder(gen.generate(1), ChannelParams::with_alpha(4.0))
        .backend(BackendChoice::Sparse(SparseConfig::default()))
        .build();
    let cfg = ChurnConfig {
        slots: 1000,
        link_arrival_rate: 1.0,
        mean_lifetime: 200.0,
        packet_prob: 0.05,
        seed: 9,
    };
    let mut engine = ChurnEngine::new(problem, gen, cfg);
    let mut backlog = 0;
    let mut checked = 0;
    for _ in 0..60 {
        let slot = engine.step(&GreedyRate, ServicePolicy::MaxWeight);
        assert_eq!(failed_ops(check_slot(backlog, &slot, None)), 0);
        if slot.backlog > 0 {
            // The same slot with one queued packet gone missing.
            let mut dropped = slot;
            dropped.backlog -= 1;
            assert_eq!(failed_ops(check_slot(backlog, &dropped, None)), 1);
            checked += 1;
        }
        if slot.scheduled > 0 {
            // More links scheduled than were backlogged.
            assert!(!check_slot(backlog, &slot, Some(slot.scheduled as u64 - 1)));
        }
        backlog = slot.backlog;
    }
    assert!(checked > 0, "the engine built a backlog");
}
