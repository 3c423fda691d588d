//! `paper-figs`: one op is one figure cell of the Fig. 5/6 binaries —
//! one topology instance of one sweep point under one scheduler, made
//! with the calls `sim::runner` makes (generate → build → schedule →
//! `simulate_many`) and the seeds it derives.
//!
//! Setup warms every scheduler up on one instance at the largest N, read
//! back from an instance file as `fading schedule --instance` reads it,
//! and verifies the fading-resistant schedules exactly. That is where
//! the benchmark measures `net::io` and `core::feasibility`.

use crate::{Layer, OpOutput, OpTrace, Scale, Workload, LAYERS};
use fading_channel::ChannelParams;
use fading_core::{AlgoId, FeasibilityReport, Problem, Schedule, Scheduler};
use fading_math::split_seed;
use fading_net::{io, LinkSet, TopologyGenerator};
use fading_sim::results::aggregate_row;
use fading_sim::{simulate_many, sweep_n, BatchRunner, ExperimentConfig, MonteCarloStats};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Directory, under the working directory, that holds the warm-up
/// instance file while a setup lasts.
const WORK_DIR: &str = ".bench_work";

/// Ops visit the cells of a round `STRIDE` apart (modulo the round
/// length, to which it is coprime). The cheap small-N cells that set
/// `op_p50_ms` are then spread over the whole window rather than bunched
/// at the start of each panel, so a host slowdown of a few seconds moves
/// the median no more than it moves the mean.
const STRIDE: usize = 23;

/// Fig. 5 panel: the fading-resistant schedulers and the two
/// deterministic-SINR baselines.
const FIG5: [AlgoId; 4] = [
    AlgoId::Ldp,
    AlgoId::Rle,
    AlgoId::ApproxLogN,
    AlgoId::ApproxDiversity,
];
/// Fig. 6 panel.
const FIG6: [AlgoId; 3] = [AlgoId::Ldp, AlgoId::Rle, AlgoId::Dls];

/// One sweep point under one scheduler.
#[derive(Debug, Clone, Copy)]
struct Cell {
    n: usize,
    alpha: f64,
    point_seed: u64,
    algo: AlgoId,
}

impl Cell {
    /// LDP and RLE promise per-link success ≥ 1 − ε (Thm 3.1).
    fn fading_resistant(&self) -> bool {
        matches!(self.algo, AlgoId::Ldp | AlgoId::Rle)
    }
}

/// The cells of figs 5a, 5b, 6a and 6b in `run_all` order, with the
/// point seeds `sweep_n` / `sweep_alpha` derive.
fn cells(config: &ExperimentConfig) -> Vec<Cell> {
    let mut out = Vec::new();
    for panel in [&FIG5[..], &FIG6[..]] {
        for (xi, &n) in config.n_values.iter().enumerate() {
            for &algo in panel {
                out.push(Cell {
                    n,
                    alpha: config.default_alpha,
                    point_seed: split_seed(config.seed, xi as u64),
                    algo,
                });
            }
        }
        for (xi, &alpha) in config.alpha_values.iter().enumerate() {
            for &algo in panel {
                out.push(Cell {
                    n: config.default_n,
                    alpha,
                    point_seed: split_seed(config.seed, (900_000 + xi) as u64),
                    algo,
                });
            }
        }
    }
    out
}

/// The experiment grid: `ExperimentConfig::paper()` seeded with the
/// workload seed, or a toy grid for the self-test.
fn config(seed: u64, scale: Scale) -> ExperimentConfig {
    let paper = ExperimentConfig {
        seed,
        ..ExperimentConfig::paper()
    };
    match scale {
        Scale::Full => paper,
        Scale::Toy => ExperimentConfig {
            n_values: vec![40, 80],
            alpha_values: vec![3.0, 4.0],
            default_n: 60,
            instances: 2,
            trials: 40,
            ..paper
        },
    }
}

pub struct PaperFigs {
    config: ExperimentConfig,
    cells: Vec<Cell>,
    schedulers: Vec<(AlgoId, Box<dyn Scheduler>)>,
    batch: BatchRunner,
    next: usize,
    setup_ns: [u64; LAYERS],
    setup_bytes: u64,
    setup_failed: Vec<String>,
}

/// Everything one cell computed.
pub struct CellRun {
    pub problem: Problem,
    pub schedule: Schedule,
    pub stats: MonteCarloStats,
}

impl PaperFigs {
    pub fn new(seed: u64, scale: Scale) -> Result<Self, String> {
        let config = config(seed, scale);
        let cells = cells(&config);
        assert!(
            (1..cells.len()).all(|j| j * STRIDE % cells.len() != 0),
            "STRIDE must be coprime to the round length"
        );
        let mut schedulers: Vec<(AlgoId, Box<dyn Scheduler>)> = Vec::new();
        for algo in FIG5.iter().chain(&FIG6) {
            if !schedulers.iter().any(|(a, _)| a == algo) {
                // Seed 0, as the figure binaries build their panels.
                schedulers.push((*algo, algo.build(0)));
            }
        }
        let mut w = Self {
            config,
            cells,
            schedulers,
            batch: BatchRunner::new(),
            next: 0,
            setup_ns: [0; LAYERS],
            setup_bytes: 0,
            setup_failed: Vec::new(),
        };
        w.warm_up()?;
        Ok(w)
    }

    /// Runs each scheduler once at the largest N, which sizes the pooled
    /// workspace for every later cell. The instance is saved, loaded
    /// back and checked equal to the generated one; each run is checked
    /// as a cell is, which verifies LDP and RLE exactly.
    fn warm_up(&mut self) -> Result<(), String> {
        let n_max = *self
            .config
            .n_values
            .iter()
            .max()
            .expect("a non-empty N sweep");
        let point_seed = split_seed(self.config.seed, u64::MAX);
        let inst_seed = split_seed(point_seed, 0);
        let mut trace = OpTrace::new(true);
        let generated = trace.time(Layer::Generate, || {
            self.config.generator(n_max).generate(inst_seed)
        });
        // Unique per setup, so concurrent runs in one process (the
        // self-test) never share a file.
        static SETUPS: AtomicUsize = AtomicUsize::new(0);
        let dir = PathBuf::from(WORK_DIR).join(format!(
            "paper-figs-{}-{}",
            std::process::id(),
            SETUPS.fetch_add(1, Ordering::Relaxed)
        ));
        let path = dir.join("warm-up.json");
        let mut bytes = 0;
        let loaded = std::fs::create_dir_all(&dir)
            .and_then(|()| io::save(&generated, &path))
            .and_then(|()| {
                bytes = std::fs::metadata(&path)?.len();
                trace.time(Layer::IoLoad, || io::load(&path))
            });
        let _ = std::fs::remove_dir_all(&dir);
        // Removes the parent too once no other setup uses it.
        let _ = std::fs::remove_dir(WORK_DIR);
        let loaded = loaded.map_err(|e| format!("{}: {e}", path.display()))?;
        let mut failed = Vec::new();
        if loaded != generated {
            failed.push("warm-up instance loads as saved".to_string());
        }
        for (algo, scheduler) in &self.schedulers {
            let cell = Cell {
                n: n_max,
                alpha: self.config.default_alpha,
                point_seed,
                algo: *algo,
            };
            let run = self.run_links(&cell, loaded.clone(), inst_seed, &mut trace);
            if !trace.time(Layer::Verify, || check_cell(&run, cell.fading_resistant())) {
                failed.push(format!("warm-up cell ({})", scheduler.name()));
            }
        }
        self.setup_ns = trace.ns;
        self.setup_bytes = bytes;
        self.setup_failed = failed;
        Ok(())
    }

    /// Instance `k` of `cell`, as `sim::runner::measure_point` makes it.
    fn run_cell(&self, cell: &Cell, k: u64, trace: &mut OpTrace) -> CellRun {
        let inst_seed = split_seed(cell.point_seed, k);
        let links = trace.time(Layer::Generate, || {
            self.config.generator(cell.n).generate(inst_seed)
        });
        self.run_links(cell, links, inst_seed, trace)
    }

    /// `cell` on the instance `links` generated from `inst_seed`.
    fn run_links(
        &self,
        cell: &Cell,
        links: LinkSet,
        inst_seed: u64,
        trace: &mut OpTrace,
    ) -> CellRun {
        let config = &self.config;
        let scheduler = self.scheduler(cell.algo);
        let params = ChannelParams::new(cell.alpha, config.gamma_th, 1.0, 0.0);
        let problem = trace.time(Layer::Build, || {
            Problem::builder(links, params)
                .epsilon(config.epsilon)
                .backend(config.interference)
                .build()
        });
        let schedule = trace.time(Layer::Schedule, || self.batch.schedule(scheduler, &problem));
        let stats = trace.time(Layer::MonteCarlo, || {
            simulate_many(&problem, &schedule, config.trials, split_seed(inst_seed, 1))
        });
        trace.candidates += problem.len() as u64;
        CellRun {
            problem,
            schedule,
            stats,
        }
    }

    fn scheduler(&self, algo: AlgoId) -> &dyn Scheduler {
        self.schedulers
            .iter()
            .find(|(a, _)| *a == algo)
            .map(|(_, s)| s.as_ref())
            .expect("every panel scheduler is built")
    }
}

/// The per-cell output checks. Every cell: failures + deliveries = |S|
/// (unit rates). LDP/RLE cells additionally: the schedule is exactly
/// feasible and the Monte-Carlo mean failures stay within ε·|S| plus
/// three 95% half-widths.
pub fn check_cell(run: &CellRun, fading_resistant: bool) -> bool {
    let s = run.schedule.len() as f64;
    let accounted = run.stats.failed.mean + run.stats.throughput.mean;
    if run.stats.scheduled != run.schedule.len() || (accounted - s).abs() > 1e-9 * s.max(1.0) {
        return false;
    }
    if !fading_resistant {
        return true;
    }
    FeasibilityReport::evaluate(&run.problem, &run.schedule).is_feasible()
        && run.stats.failed.mean <= run.problem.epsilon() * s + 3.0 * run.stats.failed.ci95
}

impl Workload for PaperFigs {
    fn round_len(&self) -> usize {
        self.cells.len()
    }

    fn quality_ops(&self) -> usize {
        2 * self.cells.len()
    }

    fn op(&mut self, trace: &mut OpTrace) -> OpOutput {
        let i = self.next;
        self.next += 1;
        let len = self.cells.len();
        let cell = self.cells[i % len * STRIDE % len];
        let k = ((i / len) % self.config.instances) as u64;
        let start = Instant::now();
        let run = self.run_cell(&cell, k, trace);
        let ns = start.elapsed().as_nanos() as u64;
        OpOutput {
            ns,
            ok: check_cell(&run, cell.fading_resistant()),
            scheduled: run.schedule.len() as f64,
            delivered: run.stats.throughput.mean,
            failed_tx: run.stats.failed.mean,
        }
    }

    /// One cell per Fig. 5 scheduler must equal `sweep_n` on a
    /// one-instance config of its sweep point. The failed checks of the
    /// last setup are reported here too.
    fn finish(&mut self) -> Vec<String> {
        let one = ExperimentConfig {
            n_values: vec![self.config.n_values[0]],
            instances: 1,
            ..self.config.clone()
        };
        let mut failed = self.setup_failed.clone();
        for algo in FIG5 {
            let cell = self
                .cells
                .iter()
                .find(|c| c.algo == algo)
                .copied()
                .expect("every Fig. 5 scheduler has cells");
            let run = self.run_cell(&cell, 0, &mut OpTrace::new(false));
            let scheduler = self.scheduler(algo);
            let ours = aggregate_row("N", cell.n as f64, scheduler.name(), &[run.stats]);
            let table = sweep_n(&one, &[scheduler]);
            if table.rows != [ours] {
                failed.push(format!("sweep_n agreement ({})", scheduler.name()));
            }
        }
        failed
    }

    fn setup_ns(&self) -> [u64; LAYERS] {
        self.setup_ns
    }

    fn setup_bytes(&self) -> u64 {
        self.setup_bytes
    }
}
