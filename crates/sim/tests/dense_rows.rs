//! How many dense interference rows one paper-figure cell reads.
//!
//! The dense matrix evaluates a sender's row on its first read, so a
//! cell pays for the rows its scheduler, simulator and verifier touch,
//! not for all `N²` factors. At N = 300 the counts are pinned: LDP and
//! ApproxLogN choose by geometry and read none; RLE reads exactly its
//! picks, which are its schedule; `simulate_many` tabulates mean gains
//! from geometry and reads none; an exact feasibility report reads at
//! most the scheduled senders' rows. The `core.dense.rows_filled`
//! counter adds up the same fills and reaches the metrics snapshot and
//! its Prometheus rendering.
//!
//! One `#[test]` on purpose: the counter is process-global.

use fading_core::algo::{ApproxLogN, Ldp, Rle};
use fading_core::{FeasibilityReport, Problem, Scheduler};
use fading_net::{LinkSet, TopologyGenerator, UniformGenerator};
use fading_sim::{simulate_many, BatchRunner};

/// Dense rows `problem` has read so far.
fn rows(problem: &Problem) -> usize {
    problem
        .factors()
        .as_dense()
        .expect("a dense store")
        .rows_filled()
}

#[test]
fn a_paper_cell_reads_only_its_schedules_rows() {
    let links: LinkSet = UniformGenerator::paper(300).generate(20170714);
    let fresh = || Problem::paper(links.clone(), 3.0);
    let counter = fading_obs::counter!("core.dense.rows_filled");
    let start = counter.value();
    let runner = BatchRunner::new();

    for scheduler in [&Ldp::new() as &dyn Scheduler, &ApproxLogN::new()] {
        let p = fresh();
        let s = runner.schedule(scheduler, &p);
        assert!(!s.is_empty(), "{}", scheduler.name());
        assert_eq!(rows(&p), 0, "{} reads no rows", scheduler.name());
        simulate_many(&p, &s, 200, 1);
        assert_eq!(rows(&p), 0, "simulating {}", scheduler.name());
    }
    assert_eq!(counter.value(), start);

    let p = fresh();
    let rle = runner.schedule(&Rle::new(), &p);
    assert!(rle.len() > 10);
    assert_eq!(rows(&p), rle.len(), "RLE reads exactly its picks");
    simulate_many(&p, &rle, 1000, 1);
    assert_eq!(rows(&p), rle.len(), "simulate_many reads no row");

    let ldp = Ldp::new().schedule(&fresh());
    let mut reports = 0;
    for s in [&rle, &ldp] {
        let q = fresh();
        assert!(FeasibilityReport::evaluate(&q, s).is_feasible());
        assert!(
            rows(&q) <= s.len(),
            "{} rows for |S| = {}",
            rows(&q),
            s.len()
        );
        reports += rows(&q);
    }

    let total = rle.len() + reports;
    assert_eq!(counter.value() - start, total as u64);
    let snapshot = fading_obs::snapshot();
    assert_eq!(
        snapshot.counters.get("core.dense.rows_filled"),
        Some(&counter.value())
    );
    let prometheus = fading_obs::render_prometheus(&snapshot);
    assert!(prometheus.contains(&format!("\ncore_dense_rows_filled {}\n", counter.value())));
}
