//! The Fig. 5 / Fig. 6 sweeps.
//!
//! For every sweep value and every scheduler: generate `instances`
//! topologies, compute the schedule once per topology (the algorithms
//! are deterministic), then Monte-Carlo the channel `trials` times per
//! topology, and aggregate into a [`ResultRow`].

use crate::config::ExperimentConfig;
use crate::monte_carlo::{simulate_many, MonteCarloStats};
use crate::results::{aggregate_row, ResultRow, ResultTable};
use fading_channel::ChannelParams;
use fading_core::{Problem, Scheduler};
use fading_math::split_seed;
use fading_net::TopologyGenerator;
use rayon::prelude::*;

/// Which parameter a sweep varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepAxis {
    /// Number of links `N` (Fig. 5(a)/6(a)); `α` fixed at the default.
    NumLinks,
    /// Path-loss exponent `α` (Fig. 5(b)/6(b)); `N` fixed at the default.
    Alpha,
}

/// Runs the sweep selected by `axis` (dispatches to [`sweep_n`] /
/// [`sweep_alpha`]).
pub fn sweep(
    config: &ExperimentConfig,
    axis: SweepAxis,
    schedulers: &[&dyn Scheduler],
) -> ResultTable {
    match axis {
        SweepAxis::NumLinks => sweep_n(config, schedulers),
        SweepAxis::Alpha => sweep_alpha(config, schedulers),
    }
}

fn measure_point(
    config: &ExperimentConfig,
    n: usize,
    alpha: f64,
    scheduler: &dyn Scheduler,
    point_seed: u64,
    batch: &crate::batch::BatchRunner,
) -> Vec<MonteCarloStats> {
    fading_obs::gauge("sim.runner.threads").set(rayon::current_num_threads() as f64);
    // Summed per-instance busy time; divided by a point's wall time ×
    // thread count it gives the instance-parallelism occupancy.
    let busy_ms = fading_obs::counter!("sim.runner.instance_busy_ms");
    // Instances are independent and seeded, so evaluate them in
    // parallel; results are position-stable and bit-identical to the
    // sequential order.
    (0..config.instances)
        .into_par_iter()
        .map(|k| {
            let started = std::time::Instant::now();
            let inst_seed = split_seed(point_seed, k as u64);
            let links = config.generator(n).generate(inst_seed);
            let params = ChannelParams::new(alpha, config.gamma_th, 1.0, 0.0);
            let problem = Problem::builder(links, params)
                .epsilon(config.epsilon)
                .backend(config.interference)
                .build();
            let schedule = {
                let _span = fading_obs::span!("scheduler");
                batch.schedule(scheduler, &problem)
            };
            let stats = {
                let _span = fading_obs::span!("simulation");
                simulate_many(&problem, &schedule, config.trials, split_seed(inst_seed, 1))
            };
            busy_ms.add(started.elapsed().as_millis() as u64);
            stats
        })
        .collect()
}

/// Per-sweep progress and timing state shared by [`sweep_n`] /
/// [`sweep_alpha`].
struct SweepMeter {
    progress: fading_obs::Progress,
    point_ms: fading_obs::Histogram,
    last_point_ms: fading_obs::Gauge,
    done: u64,
    trials_done: u64,
}

impl SweepMeter {
    fn new(points: u64) -> Self {
        Self {
            progress: fading_obs::Progress::new("point", "trials", points),
            point_ms: fading_obs::histogram(
                "sim.runner.point_ms",
                &[10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0],
            ),
            last_point_ms: fading_obs::gauge("sim.runner.last_point_ms"),
            done: 0,
            trials_done: 0,
        }
    }
}

/// Measures one sweep point and aggregates it into a row, recording
/// wall time, progress, and a structured event along the way.
#[allow(clippy::too_many_arguments)]
fn measured_row(
    config: &ExperimentConfig,
    n: usize,
    alpha: f64,
    scheduler: &dyn Scheduler,
    point_seed: u64,
    axis_label: &'static str,
    x: f64,
    meter: &mut SweepMeter,
    batch: &crate::batch::BatchRunner,
) -> ResultRow {
    let started = std::time::Instant::now();
    let stats = measure_point(config, n, alpha, scheduler, point_seed, batch);
    let row = {
        let _span = fading_obs::span!("aggregation");
        aggregate_row(axis_label, x, scheduler.name(), &stats)
    };
    let ms = started.elapsed().as_secs_f64() * 1e3;
    meter.point_ms.record(ms);
    meter.last_point_ms.set(ms);
    let point_trials = config.trials * config.instances as u64;
    meter.done += 1;
    meter.trials_done += point_trials;
    meter.progress.report(
        meter.done,
        &format!("{axis_label}={x} · scheduler={}", scheduler.name()),
        meter.trials_done,
    );
    row
}

/// Sweeps `N` over `config.n_values` at `config.default_alpha`
/// (Fig. 5(a) failed-transmission series and Fig. 6(a) throughput
/// series, depending on which columns the caller reads).
pub fn sweep_n(config: &ExperimentConfig, schedulers: &[&dyn Scheduler]) -> ResultTable {
    let mut meter = SweepMeter::new((config.n_values.len() * schedulers.len()) as u64);
    // One workspace pool for the whole sweep: the largest point sizes
    // the arenas once and every later point reuses them.
    let batch = crate::batch::BatchRunner::new();
    let mut rows: Vec<ResultRow> = Vec::new();
    for (xi, &n) in config.n_values.iter().enumerate() {
        // One seed per sweep point: every scheduler is evaluated on the
        // same topologies (paired comparison, as in the paper).
        let point_seed = split_seed(config.seed, xi as u64);
        for scheduler in schedulers {
            rows.push(measured_row(
                config,
                n,
                config.default_alpha,
                *scheduler,
                point_seed,
                "N",
                n as f64,
                &mut meter,
                &batch,
            ));
        }
    }
    ResultTable::new(rows)
}

/// Sweeps `α` over `config.alpha_values` at `config.default_n`
/// (Fig. 5(b)/6(b)).
pub fn sweep_alpha(config: &ExperimentConfig, schedulers: &[&dyn Scheduler]) -> ResultTable {
    let mut meter = SweepMeter::new((config.alpha_values.len() * schedulers.len()) as u64);
    // Shared workspace pool across every point of the sweep.
    let batch = crate::batch::BatchRunner::new();
    let mut rows: Vec<ResultRow> = Vec::new();
    for (xi, &alpha) in config.alpha_values.iter().enumerate() {
        // One seed per sweep point (paired comparison across schedulers).
        let point_seed = split_seed(config.seed, (900_000 + xi) as u64);
        for scheduler in schedulers {
            rows.push(measured_row(
                config,
                config.default_n,
                alpha,
                *scheduler,
                point_seed,
                "alpha",
                alpha,
                &mut meter,
                &batch,
            ));
        }
    }
    ResultTable::new(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fading_core::algo::{ApproxLogN, Ldp, Rle};

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            n_values: vec![50, 150],
            alpha_values: vec![3.0, 4.0],
            default_n: 100,
            default_alpha: 3.0,
            instances: 2,
            trials: 50,
            ..ExperimentConfig::paper()
        }
    }

    #[test]
    fn sweep_n_produces_rows_per_point_and_algorithm() {
        let cfg = tiny_config();
        let table = sweep_n(&cfg, &[&Rle::new(), &Ldp::new()]);
        assert_eq!(table.rows.len(), 4); // 2 N values × 2 algorithms
        assert_eq!(table.series("RLE").len(), 2);
        assert_eq!(table.series("LDP").len(), 2);
        for r in &table.rows {
            assert_eq!(r.x_label, "N");
            assert_eq!(r.instances, 2);
            assert_eq!(r.trials, 50);
        }
    }

    #[test]
    fn sweep_alpha_produces_rows_per_point() {
        let cfg = tiny_config();
        let table = sweep_alpha(&cfg, &[&Rle::new()]);
        assert_eq!(table.rows.len(), 2);
        assert_eq!(table.rows[0].x, 3.0);
        assert_eq!(table.rows[1].x, 4.0);
        assert_eq!(table.rows[0].x_label, "alpha");
    }

    #[test]
    fn sweep_dispatch_matches_named_functions() {
        let cfg = tiny_config();
        assert_eq!(
            sweep(&cfg, SweepAxis::NumLinks, &[&Rle::new()]),
            sweep_n(&cfg, &[&Rle::new()])
        );
        assert_eq!(
            sweep(&cfg, SweepAxis::Alpha, &[&Rle::new()]),
            sweep_alpha(&cfg, &[&Rle::new()])
        );
    }

    #[test]
    fn sweeps_are_deterministic() {
        let cfg = tiny_config();
        let a = sweep_n(&cfg, &[&Rle::new()]);
        let b = sweep_n(&cfg, &[&Rle::new()]);
        assert_eq!(a, b);
    }

    #[test]
    fn fading_resistant_beats_baseline_on_failures() {
        // Miniature Fig. 5(a): RLE near-zero failures, ApproxLogN not.
        let cfg = ExperimentConfig {
            n_values: vec![300],
            instances: 3,
            trials: 200,
            ..ExperimentConfig::paper()
        };
        let table = sweep_n(&cfg, &[&Rle::new(), &ApproxLogN]);
        let rle = &table.series("RLE")[0];
        let logn = &table.series("ApproxLogN")[0];
        assert!(
            rle.failed_mean <= 0.05 * rle.scheduled_mean.max(1.0),
            "RLE failures {} too high",
            rle.failed_mean
        );
        assert!(
            logn.failed_mean > rle.failed_mean,
            "baseline ({}) should fail more than RLE ({})",
            logn.failed_mean,
            rle.failed_mean
        );
    }
}
