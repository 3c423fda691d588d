//! The repository benchmark: three closed-loop workloads driven through
//! the workspace crates' public functions. An untraced run reports the
//! end-to-end metrics; a traced run times every call into a layer from
//! outside and reports per-layer metrics. `README.md` in this directory
//! has the workload table and the layer → end-to-end mapping.

pub mod engine;
pub mod paper_figs;
pub mod report;

use std::collections::BTreeMap;
use std::time::Instant;

/// Instance sizes: the benchmarked ones, or toy ones for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Toy,
}

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["paper-figs", "churn-100k", "queue-10k"];

/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fewest timed ops per run, so that `op_p90_ms` has ten samples
/// beyond it.
const MIN_OPS: usize = 100;
/// The timed window stops at the next round boundary past this many
/// seconds even if it has fewer than `MIN_OPS` ops.
const MAX_WINDOW_S: f64 = 120.0;

/// A layer of the workspace that an op calls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `net::generator`: topology generation.
    Generate,
    /// `net::io::load`: instance-file parsing and validation.
    IoLoad,
    /// `core::problem` build with its interference store and spatial index.
    Build,
    /// `core::algo` schedulers.
    Schedule,
    /// `core::feasibility` exact verification.
    Verify,
    /// `sim::monte_carlo` with its Rayleigh channel sampling.
    MonteCarlo,
    /// The churn engine's `mutate` phase: staging the slot's batch.
    Stage,
    /// The churn engine's `commit` phase: `Problem::apply` (`core::mutate`,
    /// `core::sparse`).
    Commit,
    /// The churn engine's `envelope` phase: its O(N) bookkeeping walks.
    Walks,
    /// The churn engine's `restrict` phase: syncing the backlog sub-problem.
    Restrict,
    /// The churn engine's `service` phase: `sim::slot` channel realisation.
    Slot,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 11;

/// The paper's link density (300 links on a 500 × 500 field) scaled to
/// `n` links.
fn density_scaled(n: usize) -> fading_net::UniformGenerator {
    fading_net::UniformGenerator {
        side: 500.0 * (n as f64 / 300.0).sqrt(),
        n,
        len_lo: 5.0,
        len_hi: 20.0,
        rates: fading_net::RateModel::Fixed(1.0),
    }
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::Generate,
        Layer::IoLoad,
        Layer::Build,
        Layer::Schedule,
        Layer::Verify,
        Layer::MonteCarlo,
        Layer::Stage,
        Layer::Commit,
        Layer::Walks,
        Layer::Restrict,
        Layer::Slot,
    ];

    /// The metric prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Generate => "net.generate",
            Layer::IoLoad => "net.io.load",
            Layer::Build => "core.build",
            Layer::Schedule => "core.schedule",
            Layer::Verify => "core.verify",
            Layer::MonteCarlo => "sim.monte_carlo",
            Layer::Stage => "sim.churn.stage",
            Layer::Commit => "core.commit",
            Layer::Walks => "sim.churn.walks",
            Layer::Restrict => "sim.churn.restrict",
            Layer::Slot => "sim.slot",
        }
    }
}

/// Per-layer record of one op. Layer times are taken only when tracing
/// is on; untraced ops read no clock beyond the op's own latency.
#[derive(Debug, Clone)]
pub struct OpTrace {
    on: bool,
    /// Nanoseconds spent in each layer, indexed by `Layer as usize`.
    pub ns: [u64; LAYERS],
    /// Links offered to the schedulers (the base of `pick_ratio`).
    pub candidates: u64,
    /// Links added or removed by the op's commit.
    pub mutated: u64,
}

impl OpTrace {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            ns: [0; LAYERS],
            candidates: 0,
            mutated: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f`, charging its wall time to `layer` when tracing.
    #[inline]
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.ns[layer as usize] += start.elapsed().as_nanos() as u64;
        out
    }
}

/// What one op did: its latency, the verdict of its output checks, and
/// the quality figures behind `scheduled_per_op`, `delivered_per_op`
/// and `link_fail_frac`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpOutput {
    pub ns: u64,
    pub ok: bool,
    pub scheduled: f64,
    pub delivered: f64,
    pub failed_tx: f64,
}

/// One benchmarked workload, set up and ready for its timed ops.
pub trait Workload {
    /// Ops per round. Runs end on a round boundary, so every run times
    /// the same mix of ops.
    fn round_len(&self) -> usize;
    /// Ops whose quality figures make up the run's exact metrics; a
    /// multiple of `round_len`, and always completed.
    fn quality_ops(&self) -> usize;
    /// Runs and checks the next op.
    fn op(&mut self, trace: &mut OpTrace) -> OpOutput;
    /// Switches the workload's own instrumentation for the next round.
    fn set_traced(&mut self, _on: bool) {}
    /// Checks made once after the timed window; returns the names of
    /// the checks that failed.
    fn finish(&mut self) -> Vec<String>;
    /// Layer times spent in the last setup.
    fn setup_ns(&self) -> [u64; LAYERS];
    /// Instance-file bytes loaded in the last setup.
    fn setup_bytes(&self) -> u64 {
        0
    }
    /// Bytes held by the live sparse interference store (0 if none).
    fn storage_bytes(&self) -> u64 {
        0
    }
}

/// Generates, builds and warms up the named workload from `seed`.
pub fn setup(name: &str, seed: u64, scale: Scale) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "paper-figs" => Box::new(paper_figs::PaperFigs::new(seed, scale)?),
        "churn-100k" => Box::new(engine::EngineWorkload::churn(seed, scale)),
        "queue-10k" => Box::new(engine::EngineWorkload::queue(seed, scale)),
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of {})",
                WORKLOADS.join(", ")
            ))
        }
    })
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct RunOptions {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// A named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line of a run, plus diagnostic notes printed before it.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Accumulates op outputs over the timed window.
#[derive(Default)]
pub struct Tally {
    quality_ops: usize,
    ops: usize,
    failed: u64,
    untraced_ns: Vec<u64>,
    traced_ns: Vec<u64>,
    q_scheduled: f64,
    q_delivered: f64,
    q_failed_tx: f64,
    layer_ns: [u64; LAYERS],
    candidates: u64,
    mutated: u64,
    t_scheduled: f64,
    t_delivered: f64,
    coverage: Vec<f64>,
    counters: BTreeMap<String, u64>,
}

impl Tally {
    pub fn new(quality_ops: usize) -> Self {
        Self {
            quality_ops,
            ..Self::default()
        }
    }

    /// Counts one op; a failed output check counts as a failed op.
    pub fn record(&mut self, out: &OpOutput, trace: &OpTrace) {
        if !out.ok {
            self.failed += 1;
        }
        if self.ops < self.quality_ops {
            self.q_scheduled += out.scheduled;
            self.q_delivered += out.delivered;
            self.q_failed_tx += out.failed_tx;
        }
        self.ops += 1;
        if !trace.on() {
            self.untraced_ns.push(out.ns);
            return;
        }
        self.traced_ns.push(out.ns);
        for (acc, ns) in self.layer_ns.iter_mut().zip(trace.ns) {
            *acc += ns;
        }
        self.candidates += trace.candidates;
        self.mutated += trace.mutated;
        self.t_scheduled += out.scheduled;
        self.t_delivered += out.delivered;
        let covered: u64 = trace.ns.iter().sum();
        self.coverage.push(covered as f64 / out.ns.max(1) as f64);
    }

    /// Adds the counter movement of one traced round.
    fn add_counters(&mut self, before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>) {
        for (name, &v) in after {
            let d = v - before.get(name).copied().unwrap_or(0);
            *self.counters.entry(name.clone()).or_default() += d;
        }
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Sum of the counters whose names start with `prefix` and end with
    /// `suffix`.
    fn counter_sum(&self, prefix: &str, suffix: &str) -> f64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
            .map(|(_, &v)| v)
            .sum::<u64>() as f64
    }
}

/// Sets the workload up `SETUP_REPS` times, runs its closed loop for
/// `seconds` (to a round boundary, and at least `MIN_OPS` ops), then
/// makes the once-per-run checks. With `trace`, rounds alternate
/// between untraced and traced, and per-layer metrics are reported.
pub fn run(opts: &RunOptions) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous instance first, so that peak memory holds
        // one workload.
        drop(workload.take());
        let start = Instant::now();
        let w = setup(&opts.workload, opts.seed, opts.scale)?;
        setup_s.push(start.elapsed().as_secs_f64());
        workload = Some(w);
    }
    let mut w = workload.expect("SETUP_REPS > 0");
    let round = w.round_len();
    let quality_ops = w.quality_ops();
    let min_ops = quality_ops.max(MIN_OPS).div_ceil(round) * round;

    let run_start_counters = fading_obs::snapshot().counters;
    let mut tally = Tally::new(quality_ops);
    let mut rounds = 0usize;
    let started = Instant::now();
    loop {
        let traced = opts.trace && rounds % 2 == 1;
        w.set_traced(traced);
        let before = traced.then(|| fading_obs::snapshot().counters);
        for _ in 0..round {
            let mut trace = OpTrace::new(traced);
            let out = w.op(&mut trace);
            tally.record(&out, &trace);
        }
        if let Some(before) = before {
            tally.add_counters(&before, &fading_obs::snapshot().counters);
        }
        rounds += 1;
        let elapsed = started.elapsed().as_secs_f64();
        let enough = tally.ops >= min_ops && (!opts.trace || rounds >= 2);
        if (elapsed >= opts.seconds && enough) || elapsed >= MAX_WINDOW_S {
            break;
        }
    }
    let window_s = started.elapsed().as_secs_f64();
    w.set_traced(false);
    let peak_rss_mb = report::peak_rss_mb();
    let run_counters = fading_obs::snapshot().counters;
    let storage_bytes = w.storage_bytes();
    let failed_checks = w.finish();

    let mut notes = vec![
        format!(
            "workload={} seed={} ops={} rounds={} window_s={window_s:.3} setup_s={setup_s:?}",
            opts.workload, opts.seed, tally.ops, rounds
        ),
        quality_note(&tally),
        latency_note(&tally),
    ];
    for name in &failed_checks {
        notes.push(format!("check failed: {name}"));
    }
    let mut correct = tally.failed == 0 && failed_checks.is_empty() && tally.ops >= min_ops;
    let metrics = if opts.trace {
        let metrics = layer_metrics(
            &tally,
            &w.setup_ns(),
            w.setup_bytes(),
            storage_bytes,
            &run_start_counters,
            &run_counters,
        );
        // The layer spans must account for the ops: anything they miss
        // is time the trace cannot attribute. Nine ops in ten, and the
        // traced time as a whole, must be at least 90% covered; a single
        // op can lose its share to a preemption between two spans.
        for name in ["trace.coverage", "trace.coverage_p10"] {
            let covered = metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            if covered < 0.9 {
                notes.push(format!("{name} {covered:.3} < 0.9"));
                correct = false;
            }
        }
        metrics
    } else {
        end_to_end_metrics(&tally, window_s, &setup_s, peak_rss_mb)
    };
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        notes.push(format!("metric {} is not finite", bad.name));
        correct = false;
    }
    Ok(Outcome {
        correct,
        attempted: tally.ops as u64,
        failed: tally.failed + failed_checks.len() as u64,
        metrics,
        notes,
    })
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

fn end_to_end_metrics(tally: &Tally, window_s: f64, setup_s: &[f64], rss_mb: f64) -> Vec<Metric> {
    let lat_ms: Vec<f64> = tally
        .untraced_ns
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    let q = tally.quality_ops.max(1) as f64;
    vec![
        metric("ops_per_s", tally.ops as f64 / window_s, "1/s"),
        metric("op_p50_ms", report::percentile(&lat_ms, 0.5), "ms"),
        metric("op_p90_ms", report::percentile(&lat_ms, 0.9), "ms"),
        metric("setup_s", report::percentile(setup_s, 0.5), "s"),
        metric("peak_rss_mb", rss_mb, "MB"),
        metric("scheduled_per_op", tally.q_scheduled / q, "links/op"),
        metric("delivered_per_op", tally.q_delivered / q, "deliveries/op"),
    ]
}

/// The untraced latency distribution, for reading a run's shape.
fn latency_note(tally: &Tally) -> String {
    let ms: Vec<f64> = tally
        .untraced_ns
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    let q: Vec<String> = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
        .iter()
        .map(|&p| format!("{:.3}", report::percentile(&ms, p)))
        .collect();
    format!("latency_ms min/p10/p25/p50/p75/p90/max={}", q.join("/"))
}

/// The exact quality figures of the run's first `quality_ops` ops, at
/// full precision. They repeat bit for bit for one seed.
/// `link_fail_frac` stays out of the end-to-end metrics: on
/// `churn-100k` about one transmission in 10^4 fails, so over the
/// quality ops it reads 0 on some seeds.
fn quality_note(tally: &Tally) -> String {
    let q = tally.quality_ops.max(1) as f64;
    format!(
        "quality ops={} scheduled_per_op={:?} delivered_per_op={:?} link_fail_frac={:?}",
        tally.quality_ops,
        tally.q_scheduled / q,
        tally.q_delivered / q,
        tally.q_failed_tx / tally.q_scheduled.max(f64::MIN_POSITIVE)
    )
}

/// Per-layer metrics of the traced rounds.
fn layer_metrics(
    tally: &Tally,
    setup_ns: &[u64; LAYERS],
    setup_bytes: u64,
    storage_bytes: u64,
    run_before: &BTreeMap<String, u64>,
    run_after: &BTreeMap<String, u64>,
) -> Vec<Metric> {
    let ops = tally.traced_ns.len().max(1) as f64;
    let op_ns: u64 = tally.traced_ns.iter().sum();
    let covered: u64 = tally.layer_ns.iter().sum();
    let coverage = covered as f64 / op_ns.max(1) as f64;
    let per_op = |v: f64| v / ops;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut out = Vec::new();
    for layer in Layer::ALL {
        let ns = tally.layer_ns[layer as usize];
        // A layer the ops never call but the setup does (generation and
        // build on the engine workloads, file load and verification on
        // paper-figs) reports its time in one setup; its share of op
        // time stays 0.
        let ms = if ns == 0 {
            setup_ns[layer as usize] as f64 / 1e6
        } else {
            per_op(ns as f64) / 1e6
        };
        out.push(metric(&format!("{}.ms", layer.name()), ms, "ms"));
        out.push(metric(
            &format!("{}.share", layer.name()),
            ratio(ns as f64, op_ns as f64),
            "fraction",
        ));
    }
    let lns = |l: Layer| tally.layer_ns[l as usize] as f64;
    let draws = tally.counter("channel.rayleigh.draws");
    let run_delta = |name: &str| {
        (run_after.get(name).copied().unwrap_or(0) - run_before.get(name).copied().unwrap_or(0))
            as f64
    };
    let sub_syncs = ["rebuilds", "patches", "reuses", "holds"]
        .iter()
        .map(|k| tally.counter(&format!("sim.churn.sub.{k}")))
        .sum::<f64>();
    let untraced_p50 = report::percentile(
        &tally
            .untraced_ns
            .iter()
            .map(|&v| v as f64)
            .collect::<Vec<_>>(),
        0.5,
    );
    let traced_p50 = report::percentile(
        &tally
            .traced_ns
            .iter()
            .map(|&v| v as f64)
            .collect::<Vec<_>>(),
        0.5,
    );
    out.extend([
        metric("channel.rayleigh.draws", per_op(draws), "count"),
        metric(
            "channel.rayleigh.ns_per_draw",
            ratio(lns(Layer::MonteCarlo) + lns(Layer::Slot), draws),
            "ns",
        ),
        metric("core.mutate.links", per_op(tally.mutated as f64), "count"),
        metric(
            "core.sparse.reconcile_edits",
            per_op(tally.counter("core.sparse.reconcile_edits")),
            "count",
        ),
        metric(
            "core.sparse.row_relocations",
            per_op(tally.counter("core.sparse.row_relocations")),
            "count",
        ),
        metric(
            "core.sparse.compactions",
            run_delta("core.sparse.compactions"),
            "count",
        ),
        metric("core.sparse.storage_mb", storage_bytes as f64 / 1e6, "MB"),
        metric(
            "sim.churn.sub.rebuild_frac",
            ratio(tally.counter("sim.churn.sub.rebuilds"), sub_syncs),
            "fraction",
        ),
        metric(
            "problem.restrict.links",
            per_op(tally.counter("problem.restrict.links")),
            "count",
        ),
        metric(
            "core.schedule.pick_ratio",
            ratio(
                tally.counter_sum("core.", ".picks"),
                tally.candidates as f64,
            ),
            "fraction",
        ),
        metric(
            "core.accumulator.exact_fallbacks",
            per_op(tally.counter("core.accumulator.exact_fallbacks")),
            "count",
        ),
        metric(
            "core.ctx.stamp_hits",
            per_op(tally.counter_sum("core.ctx.", "_stamp_hits")),
            "count",
        ),
        metric(
            "sim.slot.success_ratio",
            ratio(tally.t_delivered, tally.t_scheduled),
            "fraction",
        ),
        metric("net.io.bytes", setup_bytes as f64, "bytes"),
        metric(
            "net.io.load.ns_per_byte",
            ratio(setup_ns[Layer::IoLoad as usize] as f64, setup_bytes as f64),
            "ns",
        ),
        metric("trace.overhead", ratio(traced_p50, untraced_p50), "ratio"),
        metric("trace.coverage", coverage, "fraction"),
        metric(
            "trace.coverage_p10",
            report::percentile(&tally.coverage, 0.1),
            "fraction",
        ),
    ]);
    out
}
