//! Programmatic bench runner behind `fading bench-report`.
//!
//! The ledger drives each workload as a programmatic entry point,
//! times it with a median-of-samples harness, and adds the engine
//! contract probes: warm/fresh ratios and ctx churn, and steady-state
//! allocation counts (the `crates/core/tests/zero_alloc.rs` contract,
//! via [`crate::alloc::CountingAlloc`] when the binary installs it).
//!
//! `--quick` changes *sampling only* (fewer samples per bench, same
//! per-sample batch budget), never the workload set, so quick and full
//! runs produce the same metric ids, stay diffable against the same
//! baseline, and agree on per-op medians up to noise.

use crate::schema::{BenchReport, MachineFingerprint, MetricKind, MetricRecord};
use fading_core::algo::{GreedyRate, Ldp, Rle};
use fading_core::{
    BackendChoice, LinkSpec, MutationBatch, Problem, SchedCtx, Scheduler, Scope, SparseConfig,
};
use fading_geom::Point2;
use fading_net::{RateModel, TopologyGenerator, UniformGenerator};
use rand::Rng;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// How a report run samples its workloads.
#[derive(Debug, Clone, Default)]
pub struct ReportOptions {
    /// Fewer samples and smaller per-sample budgets; identical
    /// workload set and metric ids.
    pub quick: bool,
    /// Only run metrics whose id contains this substring. Derived
    /// metrics additionally require their inputs to have run.
    pub filter: Option<String>,
    /// Run the release smoke workloads (`smoke.*` metrics, single-shot
    /// wall-clock seconds gated by `[max]` rows) instead of the micro
    /// suite. Functional invariants inside the smokes (storage budget,
    /// packet conservation, trace replay) fail the run outright.
    pub smoke: bool,
}

/// One timing estimate from [`measure_ns`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Median ns per operation across samples.
    pub median_ns: f64,
    /// 95% CI half-width around the median (notch estimate
    /// `1.58 · IQR / √samples`).
    pub ci95_ns: f64,
    /// Number of samples taken.
    pub samples: u64,
}

/// Times `f`: one warm-up call, a calibration call to pick an
/// iteration count filling `target` per sample, then `samples` timed
/// batches. Returns the median ns/op with a notch CI.
pub fn measure_ns<F: FnMut()>(samples: usize, target: Duration, mut f: F) -> Measurement {
    f(); // warm-up
    let probe_start = Instant::now();
    f();
    let probe = probe_start.elapsed().max(Duration::from_nanos(50));
    let iters = (target.as_nanos() / probe.as_nanos()).clamp(1, 1_000_000) as u64;

    let xs: Vec<f64> = (0..samples.max(2))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    summarize(xs)
}

/// Median + notch CI over raw per-op samples.
fn summarize(mut xs: Vec<f64>) -> Measurement {
    xs.sort_unstable_by(f64::total_cmp);
    let n = xs.len();
    let median = if n.is_multiple_of(2) {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    } else {
        xs[n / 2]
    };
    let iqr = xs[(3 * n) / 4] - xs[n / 4];
    Measurement {
        median_ns: median,
        ci95_ns: 1.58 * iqr / (n as f64).sqrt(),
        samples: n as u64,
    }
}

/// Collects [`MetricRecord`]s, applying the id filter.
struct Recorder {
    filter: Option<String>,
    samples: usize,
    target: Duration,
    metrics: Vec<MetricRecord>,
}

impl Recorder {
    fn wants(&self, id: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| id.contains(f))
    }

    /// Times `f` under the id, if the filter admits it.
    fn time<F: FnMut()>(&mut self, id: &str, f: F) {
        if !self.wants(id) {
            return;
        }
        let _span = fading_obs::span!("bench.report.measure");
        let m = measure_ns(self.samples, self.target, f);
        fading_obs::counter!("bench.report.benches").incr();
        self.metrics.push(MetricRecord {
            id: id.to_string(),
            kind: MetricKind::NsPerOp,
            value: m.median_ns,
            ci95: m.ci95_ns,
            samples: m.samples,
            lower_is_better: true,
        });
    }

    /// Records an externally collected timing, if the filter admits it
    /// (for workloads whose halves are timed inside one loop and can't
    /// go through [`Self::time`]).
    fn timed(&mut self, id: &str, m: Measurement) {
        if !self.wants(id) {
            return;
        }
        fading_obs::counter!("bench.report.benches").incr();
        self.metrics.push(MetricRecord {
            id: id.to_string(),
            kind: MetricKind::NsPerOp,
            value: m.median_ns,
            ci95: m.ci95_ns,
            samples: m.samples,
            lower_is_better: true,
        });
    }

    /// Records a derived (non-timed) metric, if the filter admits it.
    fn derived(&mut self, id: &str, kind: MetricKind, value: f64) {
        self.derived_dir(id, kind, value, true);
    }

    /// [`Self::derived`] with an explicit regression direction, for
    /// the few higher-is-better metrics (sustained rates).
    fn derived_dir(&mut self, id: &str, kind: MetricKind, value: f64, lower_is_better: bool) {
        if !self.wants(id) {
            return;
        }
        self.metrics.push(MetricRecord {
            id: id.to_string(),
            kind,
            value,
            ci95: 0.0,
            samples: 0,
            lower_is_better,
        });
    }

    fn value_of(&self, id: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.id == id).map(|m| m.value)
    }
}

/// Sizes shared by the algorithm family benches; three points so the
/// n-scaling exponent fit has a degree of freedom.
const FAMILY_SIZES: [usize; 3] = [100, 300, 1000];

/// Runs the full workload set and assembles a [`BenchReport`] dated
/// today. The caller decides where to write it.
pub fn run_report(opts: &ReportOptions) -> Result<BenchReport, String> {
    let _span = fading_obs::span!("bench.report");
    fading_obs::counter!("bench.report.runs").incr();
    // Quick mode takes fewer samples but keeps the full per-sample
    // batch budget: the batch length sets the iteration count inside
    // [`measure_ns`], and memory-bound sweeps (e.g. the 33 MB dense
    // row-sum walk) measure up to ~2.7x slower per op in short batches
    // on shared vCPUs. Shrinking only the sample count keeps quick and
    // full per-op estimates comparable, so a `--quick --check` against
    // a full-mode committed baseline doesn't trip on calibration bias.
    let samples = if opts.quick { 7 } else { 21 };
    let target = Duration::from_millis(25);
    let mut rec = Recorder {
        filter: opts.filter.clone(),
        samples,
        target,
        metrics: Vec::new(),
    };

    if opts.smoke {
        smoke_benches(&mut rec)?;
    } else {
        schedule_benches(&mut rec);
        substrate_benches(&mut rec);
        mutate_benches(&mut rec);
        mutate_batch_benches(&mut rec);
        churn_benches(&mut rec);
        churn_large_benches(&mut rec);
        queue_benches(&mut rec);
        engine_probes(&mut rec);
        scaling_exponents(&mut rec);
        if rec.wants("code.rust_loc") {
            let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
            let lines = rust_loc(&root)?;
            rec.derived("code.rust_loc", MetricKind::Lines, lines as f64);
        }
    }

    fading_obs::gauge("bench.report.metrics").set(rec.metrics.len() as f64);
    if rec.metrics.is_empty() {
        return Err(match &opts.filter {
            Some(f) => format!("filter {f:?} matched no bench ids"),
            None => "no benches ran".to_string(),
        });
    }
    BenchReport::new(crate::schema::today_utc(), rec.metrics)
}

/// Code size, the `code.rust_loc` row: the lines of every
/// `crates/*/src/**/*.rs` and `src/**/*.rs` file under `root`, each
/// counted up to its first `#[cfg(test)]` line. Vendored crates live in
/// `vendor/` and are not counted; tests, benches and examples live
/// outside `src/`.
pub fn rust_loc(root: &Path) -> Result<u64, String> {
    let mut dirs = vec![root.join("src")];
    let crates = root.join("crates");
    let entries =
        std::fs::read_dir(&crates).map_err(|e| format!("cannot list {}: {e}", crates.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot list {}: {e}", crates.display()))?;
        dirs.push(entry.path().join("src"));
    }
    let mut lines = 0;
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue; // a crate without `src/`, or a root without one
        };
        for entry in entries {
            let path = entry
                .map_err(|e| format!("cannot list {}: {e}", dir.display()))?
                .path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|x| x == "rs") {
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                lines += text
                    .lines()
                    .take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"))
                    .count() as u64;
            }
        }
    }
    Ok(lines)
}

/// The fingerprint a report generated here would carry (re-exported
/// for the CLI's mismatch messaging).
pub fn fingerprint() -> MachineFingerprint {
    MachineFingerprint::current()
}

/// Fresh and warm scheduling benches on the paper workload.
fn schedule_benches(rec: &mut Recorder) {
    const PANEL: [&str; 3] = ["ldp", "rle", "greedy"];
    for &n in &FAMILY_SIZES {
        // Skip the (expensive) problem construction when the filter
        // admits none of this size's ids.
        let any_wanted = PANEL.iter().any(|name| {
            rec.wants(&format!("schedule/{name}/{n}"))
                || (n == 1000 && rec.wants(&format!("schedule_warm/{name}/{n}")))
        });
        if !any_wanted {
            continue;
        }
        let problem = Problem::paper(UniformGenerator::paper(n).generate(42), 3.0);
        let panel: [(&str, Box<dyn Scheduler>); 3] = [
            ("ldp", Box::new(Ldp::new())),
            ("rle", Box::new(Rle::new())),
            ("greedy", Box::new(GreedyRate)),
        ];
        for (name, scheduler) in panel {
            rec.time(&format!("schedule/{name}/{n}"), || {
                black_box(scheduler.schedule(&problem));
            });
        }
        if n == 1000 {
            for (name, scheduler) in [
                ("ldp", Box::new(Ldp::new()) as Box<dyn Scheduler>),
                ("rle", Box::new(Rle::new())),
            ] {
                if !rec.wants(&format!("schedule_warm/{name}/{n}")) {
                    continue;
                }
                let mut ctx = SchedCtx::with_capacity(n);
                let problem = &problem;
                rec.time(&format!("schedule_warm/{name}/{n}"), move || {
                    let s = black_box(scheduler.schedule_in(problem, Scope::all(), &mut ctx));
                    ctx.recycle(s);
                });
            }
        }
    }
}

/// Substrate hot paths: interference build and row sums, the row-sum
/// kernel, one slot's channel realization and a short queueing run
/// (sizes trimmed to keep a full report under the CI wall guard).
fn substrate_benches(rec: &mut Recorder) {
    let params = fading_channel::ChannelParams::paper_defaults();
    // Paper-density instance scaled to `n` links: side grows as
    // √(n/300).
    let scaled = |n: usize| UniformGenerator {
        side: 500.0 * (n as f64 / 300.0).sqrt(),
        n,
        len_lo: 5.0,
        len_hi: 20.0,
        rates: RateModel::Fixed(1.0),
    };
    let sparse_backend = || BackendChoice::parse("sparse").expect("sparse backend parses");

    for &n in &[256usize, 2048] {
        if !rec.wants(&format!("interference_build/dense/{n}"))
            && !rec.wants(&format!("interference_build/sparse/{n}"))
        {
            continue;
        }
        let links = scaled(n).generate(7);
        rec.time(&format!("interference_build/dense/{n}"), || {
            black_box(
                Problem::builder(links.clone(), params)
                    .backend(BackendChoice::Dense)
                    .build(),
            );
        });
        rec.time(&format!("interference_build/sparse/{n}"), || {
            black_box(
                Problem::builder(links.clone(), params)
                    .backend(sparse_backend())
                    .build(),
            );
        });
    }

    {
        let n = 2048usize;
        if rec.wants(&format!("interference_row_sum/dense/{n}"))
            || rec.wants(&format!("interference_row_sum/sparse/{n}"))
        {
            let links = scaled(n).generate(9);
            let sum_all = |p: &Problem| {
                let mut total = 0.0f64;
                for i in p.links().ids() {
                    if let Some(row) = p.factors().dense_row(i) {
                        total += fading_core::kernel::row_sum(row);
                    } else {
                        let (_, fact) = p
                            .factors()
                            .as_sparse()
                            .expect("backend is dense or sparse")
                            .row_slices(i);
                        total += fading_core::kernel::row_sum(fact);
                    }
                }
                total
            };
            let dense = Problem::builder(links.clone(), params)
                .backend(BackendChoice::Dense)
                .build();
            rec.time(&format!("interference_row_sum/dense/{n}"), || {
                black_box(sum_all(&dense));
            });
            let sparse = Problem::builder(links, params)
                .backend(sparse_backend())
                .build();
            rec.time(&format!("interference_row_sum/sparse/{n}"), || {
                black_box(sum_all(&sparse));
            });
        }
    }

    {
        // The lane-blocked row-sum kernel against its scalar reference
        // on a synthetic 10⁵-factor row: the scalar sum is a serial
        // f64-add dependency chain, the kernel's 8 independent lanes
        // break it. `row_sum_kernel.speedup` is the ledgered contract
        // (gated ≥ 2× in `bench-gates.toml`).
        let n = 100_000usize;
        let scalar_id = format!("row_sum_kernel/scalar/{n}");
        let vector_id = format!("row_sum_kernel/vector/{n}");
        if rec.wants(&scalar_id) || rec.wants(&vector_id) || rec.wants("row_sum_kernel.speedup") {
            let channel = fading_channel::RayleighChannel::new(params);
            let xs: Vec<f64> = (0..n)
                .map(|k| channel.interference_factor(5.0 + (k % 997) as f64, 10.0))
                .collect();
            rec.time(&scalar_id, || {
                black_box(fading_core::kernel::row_sum_scalar(black_box(&xs)));
            });
            rec.time(&vector_id, || {
                black_box(fading_core::kernel::row_sum(black_box(&xs)));
            });
            if let (Some(s), Some(v)) = (rec.value_of(&scalar_id), rec.value_of(&vector_id)) {
                if v > 0.0 {
                    rec.derived_dir("row_sum_kernel.speedup", MetricKind::Ratio, s / v, false);
                }
            }
        }
    }

    if rec.wants("simulate_slot/rle/300") {
        let problem = Problem::paper(UniformGenerator::paper(300).generate(1), 3.0);
        let schedule = Rle::new().schedule(&problem);
        let mut rng = fading_math::seeded_rng(3);
        rec.time("simulate_slot/rle/300", move || {
            black_box(fading_sim::simulate_slot(&problem, &schedule, &mut rng));
        });
    }

    // The Monte-Carlo batch behind every figure cell: 1000 trials of
    // the same RLE schedule, mean gains tabulated once per call.
    if rec.wants("monte_carlo/rle/300x1000") {
        let problem = Problem::paper(UniformGenerator::paper(300).generate(1), 3.0);
        let schedule = Rle::new().schedule(&problem);
        rec.time("monte_carlo/rle/300x1000", || {
            black_box(fading_sim::simulate_many(&problem, &schedule, 1000, 5));
        });
    }

    // The uniforms under every Rayleigh draw: one `StdRng` refill (four
    // ChaCha12 blocks) covers 32 f64s, so 4096 draws take 128 refills.
    if rec.wants("rng/stdrng/f64x4096") {
        let mut rng = fading_math::seeded_rng(11);
        rec.time("rng/stdrng/f64x4096", move || {
            let mut acc = 0.0;
            for _ in 0..4096 {
                acc += rng.gen::<f64>();
            }
            black_box(acc);
        });
    }

    if rec.wants("queueing/greedy/100x50") {
        let geometry = UniformGenerator::paper(100);
        let problem = Problem::paper(geometry.generate(8), 3.0);
        let cfg = fixed_population(0.05, 50, 1);
        rec.time("queueing/greedy/100x50", || {
            black_box(
                fading_sim::ChurnEngine::new(problem.clone(), geometry, cfg)
                    .run(&GreedyRate, fading_sim::ServicePolicy::PlainRates),
            );
        });
    }
}

/// The queueing model as an engine config: a fixed population (no link
/// arrivals, lifetimes that never end) under Bernoulli packet arrivals.
fn fixed_population(packet_prob: f64, slots: u64, seed: u64) -> fading_sim::ChurnConfig {
    fading_sim::ChurnConfig {
        slots,
        link_arrival_rate: 0.0,
        mean_lifetime: f64::INFINITY,
        packet_prob,
        seed,
    }
}

/// Paper-density generator scaled to `n` links (side `√(n/300)·500`).
fn density_scaled(n: usize) -> UniformGenerator {
    UniformGenerator {
        side: 500.0 * (n as f64 / 300.0).sqrt(),
        n,
        len_lo: 5.0,
        len_hi: 20.0,
        rates: RateModel::Fixed(1.0),
    }
}

/// The online-engine mutate benches: single-link add / remove cycles
/// (one-element `Problem::apply` batches) against the from-scratch
/// rebuild they replace, at n = 10 000 on the sparse backend (α = 4,
/// the large-N smoke config — the dense matrix at this size would be
/// 800 MB).
/// `mutate.vs_rebuild.ratio` is the headline contract, gated by a
/// `[max]` ceiling of 0.1 in `bench-gates.toml`: a single-link patch
/// must stay ≥ 10× cheaper than rebuilding. (The transactional batch
/// contract is gated separately, at the churn scale where it matters —
/// see [`mutate_batch_benches`].)
fn mutate_benches(rec: &mut Recorder) {
    const N: usize = 10_000;
    let add_id = format!("mutate/add/{N}");
    let remove_id = format!("mutate/remove/{N}");
    let rebuild_id = format!("mutate/rebuild/{N}");
    let cycle_wanted = rec.wants(&add_id) || rec.wants(&remove_id);
    if !cycle_wanted && !rec.wants(&rebuild_id) {
        return;
    }
    let gen = density_scaled(N);
    let links = gen.generate(13);
    let params = fading_channel::ChannelParams::with_alpha(4.0);
    let backend = BackendChoice::Sparse(SparseConfig::default());
    let mut problem = Problem::builder(links.clone(), params)
        .backend(backend)
        .build();
    // Strictly interior positions (region center, sub-unit jitter so
    // the duplicate-position guard never trips) and short lengths: the
    // cost measured is the CSR/grid patch itself, not an
    // envelope-reconcile scan a boundary-growing link would force.
    let mid = gen.side / 2.0;
    let spec_at = |i: usize| {
        let dx = (i % 97) as f64 * 0.017;
        let dy = (i % 89) as f64 * 0.013;
        LinkSpec::new(
            Point2::new(mid + dx, mid + dy),
            Point2::new(mid + dx + 7.0, mid + dy + 5.0),
        )
    };

    if cycle_wanted {
        let rounds = rec.samples * 40;
        let mut add_ns = Vec::with_capacity(rounds);
        let mut remove_ns = Vec::with_capacity(rounds);
        let (mut add, mut remove) = (MutationBatch::new(), MutationBatch::new());
        // Rounds 0..4 are warm-up cycles (the first mutation on a fresh
        // build also pays the one-time envelope reconcile, the first
        // removal the one-time handle map).
        for i in 0..rounds + 4 {
            add.clear();
            add.add(spec_at(i));
            let start = Instant::now();
            let receipt = problem.apply(&add).expect("interior spec");
            let added_ns = start.elapsed().as_nanos() as f64;
            remove.clear();
            remove.remove(receipt.added[0]);
            let start = Instant::now();
            problem.apply(&remove).expect("just-added external");
            if i >= 4 {
                add_ns.push(added_ns);
                remove_ns.push(start.elapsed().as_nanos() as f64);
            }
        }
        rec.timed(&add_id, summarize(add_ns));
        rec.timed(&remove_id, summarize(remove_ns));
    }

    rec.time(&rebuild_id, || {
        black_box(
            Problem::builder(links.clone(), params)
                .backend(backend)
                .build(),
        );
    });

    if let (Some(add), Some(rebuild)) = (rec.value_of(&add_id), rec.value_of(&rebuild_id)) {
        if rebuild > 0.0 {
            rec.derived("mutate.vs_rebuild.ratio", MetricKind::Ratio, add / rebuild);
        }
    }
}

/// Steady-state churn-engine slot latency at n = 2000 (the release
/// smoke scale): Poisson arrivals and exponential departures patching
/// the live problem in place, greedy MaxWeight service every slot.
/// The derived `churn.slots_per_sec` is the sustained-throughput
/// contract, gated by a `[min]` floor in `bench-gates.toml`.
fn churn_benches(rec: &mut Recorder) {
    const N: usize = 2000;
    let slot_id = format!("churn_slot/maxweight/{N}");
    let tel_id = format!("churn_slot_telemetry/maxweight/{N}");
    let overhead_wanted = rec.wants(&tel_id) || rec.wants("churn_slot.telemetry_overhead");
    if !rec.wants(&slot_id) && !rec.wants("churn.slots_per_sec") && !overhead_wanted {
        return;
    }
    let gen = density_scaled(N);
    let problem = Problem::builder(
        gen.generate(17),
        fading_channel::ChannelParams::paper_defaults(),
    )
    .backend(BackendChoice::Dense)
    .build();
    // Arrival rate × lifetime = N keeps the population at equilibrium,
    // so every timed step sees the same regime.
    let cfg = fading_sim::ChurnConfig {
        slots: 1_000_000,
        link_arrival_rate: N as f64 / 100.0,
        mean_lifetime: 100.0,
        packet_prob: 0.2,
        seed: 5,
    };
    let mut engine = fading_sim::ChurnEngine::new(problem.clone(), gen, cfg);
    rec.time(&slot_id, move || {
        black_box(engine.step(&GreedyRate, fading_sim::ServicePolicy::MaxWeight));
    });
    if let Some(slot_ns) = rec.value_of(&slot_id) {
        if slot_ns > 0.0 {
            rec.derived_dir(
                "churn.slots_per_sec",
                MetricKind::Rate,
                1e9 / slot_ns,
                false,
            );
        }
    }

    if !overhead_wanted {
        return;
    }
    // Telemetry-overhead probe: two fresh same-seed engines walk the
    // same churn stream in lockstep — one bare, one with the full
    // steady-state telemetry footprint armed (in-memory series ring,
    // flight recorder with its detectors effectively disabled so the
    // probe measures the per-slot bookkeeping, not an anomaly dump).
    // Pairing the steps makes the ratio robust to machine drift within
    // the run; `churn_slot.telemetry_overhead` carries an absolute
    // `[max]` ceiling of 1.02 in `bench-gates.toml` — the armed path
    // may cost at most 2% on the release smoke scale.
    let mut plain = fading_sim::ChurnEngine::new(problem.clone(), gen, cfg);
    let mut armed = fading_sim::ChurnEngine::new(problem, gen, cfg);
    armed.arm(
        fading_sim::TelemetryConfig::new()
            .series(fading_obs::SlotSeries::in_memory(
                fading_obs::SeriesConfig::default(),
            ))
            .flight(
                fading_obs::FlightConfig {
                    min_stall_ns: u64::MAX,
                    growth_window: u32::MAX,
                    zero_delivery_window: u32::MAX,
                    capture_trace: false,
                    ..Default::default()
                },
                None,
            ),
    );
    for _ in 0..32 {
        // Warm both engines past the cold caches and ring growth.
        plain.step(&GreedyRate, fading_sim::ServicePolicy::MaxWeight);
        armed.step(&GreedyRate, fading_sim::ServicePolicy::MaxWeight);
    }
    let rounds = rec.samples * 16;
    let mut plain_ns = Vec::with_capacity(rounds);
    let mut armed_ns = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let start = Instant::now();
        black_box(plain.step(&GreedyRate, fading_sim::ServicePolicy::MaxWeight));
        plain_ns.push(start.elapsed().as_nanos() as f64);
        let start = Instant::now();
        black_box(armed.step(&GreedyRate, fading_sim::ServicePolicy::MaxWeight));
        armed_ns.push(start.elapsed().as_nanos() as f64);
    }
    let plain_total: f64 = plain_ns.iter().sum();
    let armed_total: f64 = armed_ns.iter().sum();
    rec.timed(&tel_id, summarize(armed_ns));
    if plain_total > 0.0 {
        rec.derived(
            "churn_slot.telemetry_overhead",
            MetricKind::Ratio,
            armed_total / plain_total,
        );
    }
}

/// The transactional mutate contract at the churn scale: one
/// `Problem::apply` of a 64-add `MutationBatch` versus the same 64
/// links pushed as 64 one-link batches, at n = 100 000 on the
/// sparse substrate (α = 4, the sustained-churn geometry). At this n a
/// single add is dominated by the per-commit `O(n)` terms — the
/// envelope reconcile scan and the exactness sweep — while the
/// per-link CSR wiring (factor evaluations against the ~constant local
/// neighborhood; density-scaled, so independent of n) stays small. The
/// batch pays the `O(n)` terms once where the sequential path pays
/// them 64 times, and the derived `mutate.batch.vs_sequential`
/// quotient certifies it: its `[max]` ceiling of 0.0625 in
/// `bench-gates.toml` says the whole 64-link batch must cost less than
/// four single adds.
fn mutate_batch_benches(rec: &mut Recorder) {
    const N: usize = 100_000;
    const K: usize = 64;
    let batch_id = format!("mutate/batch64/{N}");
    let seq_id = format!("mutate/seq64/{N}");
    if !rec.wants(&batch_id) && !rec.wants(&seq_id) && !rec.wants("mutate.batch.vs_sequential") {
        return;
    }
    let gen = density_scaled(N);
    let mut problem = Problem::builder(
        gen.generate(13),
        fading_channel::ChannelParams::with_alpha(4.0),
    )
    .backend(BackendChoice::Sparse(SparseConfig::default()))
    .build();
    // Strictly interior positions (region center, sub-unit jitter so
    // the duplicate-position guard never trips): boundary-growing links
    // would force envelope *changes* and annulus rewiring, which is a
    // different (and rarer) regime than the steady interior churn the
    // engine sustains.
    let mid = gen.side / 2.0;
    let spec_at = |i: usize| {
        let dx = (i % 97) as f64 * 0.017;
        let dy = (i % 89) as f64 * 0.013;
        LinkSpec::new(
            Point2::new(mid + dx, mid + dy),
            Point2::new(mid + dx + 7.0, mid + dy + 5.0),
        )
    };
    // Both paths append at the tail and then retire exactly that tail
    // block. Round 0 is warm-up: on a fresh build the first mutation
    // also pays the one-time envelope reconcile (and the first removal
    // the one-time handle map).
    let rounds = rec.samples * 4;
    let mut batch_ns = Vec::with_capacity(rounds);
    let mut seq_ns = Vec::with_capacity(rounds);
    let (mut one, mut undo) = (MutationBatch::new(), MutationBatch::new());
    for round in 0..=rounds {
        let mut batch = MutationBatch::new();
        for i in 0..K {
            batch.add(spec_at(i));
        }
        let start = Instant::now();
        let receipt = problem.apply(&batch).expect("interior specs");
        let elapsed = start.elapsed().as_nanos() as f64;
        if round > 0 {
            batch_ns.push(elapsed);
        }
        undo.clear();
        for &ext in &receipt.added {
            undo.remove(ext);
        }
        problem.apply(&undo).expect("just-added externals");

        undo.clear();
        let start = Instant::now();
        for i in 0..K {
            one.clear();
            one.add(spec_at(i));
            let receipt = problem.apply(&one).expect("interior spec");
            undo.remove(receipt.added[0]);
        }
        let elapsed = start.elapsed().as_nanos() as f64;
        if round > 0 {
            seq_ns.push(elapsed);
        }
        problem.apply(&undo).expect("just-added externals");
    }
    rec.timed(&batch_id, summarize(batch_ns));
    rec.timed(&seq_id, summarize(seq_ns));
    if let (Some(batch), Some(seq)) = (rec.value_of(&batch_id), rec.value_of(&seq_id)) {
        if seq > 0.0 {
            rec.derived("mutate.batch.vs_sequential", MetricKind::Ratio, batch / seq);
        }
    }
}

/// Sustained-churn slot latency at n = 100 000 on the sparse substrate
/// (α = 4, the large-N smoke geometry): the transactional mutate path
/// — one `MutationBatch` committed per slot — is what keeps a slot
/// affordable at this scale, while scheduling touches only the
/// backlogged links (the slot's scope). Arrival rate 200 × mean
/// lifetime 500 holds the population at the 100 000 equilibrium, and
/// the light packet load keeps the backlog (and so the scope)
/// stationary, so every timed step sees the same regime. The derived
/// `churn.slots_per_sec.100k` carries a `[min]` floor in
/// `bench-gates.toml` — the sustained-churn contract at n = 10^5.
///
/// The same slots split commit into its sub-phases:
/// `churn.commit_share.<phase>.100k` is each `problem.apply.<phase>`
/// histogram's time over every slot the timing ran, divided by the sum
/// of all seven. A slot here outlasts the 25 ms calibration target, so
/// the timing runs only the engine's first ~9 (`--quick`) or ~23 slots
/// after the build, well before its arena first compacts (~slot 180);
/// the compaction share reads 0 unless a change makes it compact that
/// early.
fn churn_large_benches(rec: &mut Recorder) {
    const N: usize = 100_000;
    let slot_id = format!("churn_slot/maxweight/{N}");
    let share_ids = fading_core::sparse::APPLY_HISTOGRAMS.map(|h| {
        let phase = h
            .strip_prefix("problem.apply.")
            .expect("problem.apply.* name");
        format!("churn.commit_share.{phase}.100k")
    });
    if !rec.wants(&slot_id)
        && !rec.wants("churn.slots_per_sec.100k")
        && !share_ids.iter().any(|id| rec.wants(id))
    {
        return;
    }
    let gen = density_scaled(N);
    let problem = Problem::builder(
        gen.generate(29),
        fading_channel::ChannelParams::with_alpha(4.0),
    )
    .backend(BackendChoice::Sparse(SparseConfig::default()))
    .build();
    let cfg = fading_sim::ChurnConfig {
        slots: 1_000_000,
        link_arrival_rate: 200.0,
        mean_lifetime: 500.0,
        packet_prob: 0.001,
        seed: 7,
    };
    let mut engine = fading_sim::ChurnEngine::new(problem, gen, cfg);
    let apply_ns = || {
        let snap = fading_obs::snapshot();
        fading_core::sparse::APPLY_HISTOGRAMS.map(|h| snap.histograms.get(h).map_or(0.0, |s| s.sum))
    };
    let before = apply_ns();
    let slot = measure_ns(rec.samples, rec.target, || {
        black_box(engine.step(&GreedyRate, fading_sim::ServicePolicy::MaxWeight));
    });
    let spent: Vec<f64> = apply_ns().iter().zip(&before).map(|(a, b)| a - b).collect();
    let total: f64 = spent.iter().sum();
    if total > 0.0 {
        for (id, ns) in share_ids.iter().zip(spent) {
            rec.derived(id, MetricKind::Ratio, ns / total);
        }
    }
    let slot_ns = slot.median_ns;
    rec.timed(&slot_id, slot);
    if slot_ns > 0.0 {
        rec.derived_dir(
            "churn.slots_per_sec.100k",
            MetricKind::Rate,
            1e9 / slot_ns,
            false,
        );
    }
}

/// The queue slot of perfbench's `queue-10k` workload: a fixed
/// population of 10^4 links (side 2886.75, sparse, α = 4, no churn)
/// under packet probability 0.03, which holds a backlog of a few
/// hundred links, scheduled by GreedyRate + MaxWeight after 100 warm-up
/// slots. Scheduling is the certified member checks of
/// `InterferenceAccumulator`, and three derived rows gate them:
///
/// * `queue.exact_fallbacks_per_slot.10k` — exact resolutions per slot
///   over a fixed 50 slots (`Ratio`, deterministic per seed, `[max]`);
/// * `queue.schedule_share.10k` — schedule time over slot time across
///   those slots, from the engine's `SlotRecord`s (`Ratio`, `[max]`);
/// * `queue.slots_per_sec.10k` — the inverse of the timed median
///   `queue_slot/maxweight/10000` (`Rate`, `[min]`).
fn queue_benches(rec: &mut Recorder) {
    const N: usize = 10_000;
    const SLOTS: usize = 50;
    let slot_id = format!("queue_slot/maxweight/{N}");
    let ids = [
        slot_id.as_str(),
        "queue.schedule_share.10k",
        "queue.exact_fallbacks_per_slot.10k",
        "queue.slots_per_sec.10k",
    ];
    if !ids.iter().any(|id| rec.wants(id)) {
        return;
    }
    let gen = density_scaled(N);
    let problem = Problem::builder(
        gen.generate(fading_math::split_seed(1, 1)),
        fading_channel::ChannelParams::with_alpha(4.0),
    )
    .backend(BackendChoice::Sparse(SparseConfig::default()))
    .build();
    let cfg = fixed_population(0.03, u64::MAX, fading_math::split_seed(1, 2));
    let mut engine = fading_sim::ChurnEngine::new(problem, gen, cfg);
    engine.arm(
        fading_sim::TelemetryConfig::new().series(fading_obs::SlotSeries::in_memory(
            fading_obs::SeriesConfig::default(),
        )),
    );
    let step = |engine: &mut fading_sim::ChurnEngine| {
        black_box(engine.step(&GreedyRate, fading_sim::ServicePolicy::MaxWeight));
    };
    for _ in 0..100 {
        step(&mut engine);
    }
    let fallbacks = || fading_obs::counter!("core.accumulator.exact_fallbacks").value();
    let before = fallbacks();
    for _ in 0..SLOTS {
        step(&mut engine);
    }
    rec.derived(
        "queue.exact_fallbacks_per_slot.10k",
        MetricKind::Ratio,
        (fallbacks() - before) as f64 / SLOTS as f64,
    );
    let series = engine
        .telemetry()
        .and_then(|t| t.series())
        .expect("armed with a series");
    let (schedule_ns, slot_ns) = series
        .records()
        .skip(100)
        .fold((0, 0), |(a, b), r| (a + r.schedule_ns, b + r.slot_ns));
    if slot_ns > 0 {
        rec.derived(
            "queue.schedule_share.10k",
            MetricKind::Ratio,
            schedule_ns as f64 / slot_ns as f64,
        );
    }
    let slot = measure_ns(rec.samples, rec.target, || step(&mut engine));
    let median = slot.median_ns;
    rec.timed(&slot_id, slot);
    if median > 0.0 {
        rec.derived_dir(
            "queue.slots_per_sec.10k",
            MetricKind::Rate,
            1e9 / median,
            false,
        );
    }
}

/// The engine-contract probes: warm/fresh ratio and ctx churn per
/// scheduler and steady-state allocations per warm call (the
/// `zero_alloc.rs` contract), gated by `bench-gates.toml` `[max]`. The
/// ratios divide this run's own `schedule*/…/1000` medians, so they
/// are only emitted when those benches ran (filters can exclude them).
fn engine_probes(rec: &mut Recorder) {
    // Ctx construction + drop, the only cost `schedule()` pays for the
    // workspace indirection. Measured once, shared by both schedulers.
    let churn_wanted = ["rle", "ldp"].iter().any(|name| {
        rec.wants(&format!("engine.{name}.ctx_churn_frac"))
            && rec.value_of(&format!("schedule/{name}/1000")).is_some()
    });
    let churn = churn_wanted.then(|| {
        measure_ns(rec.samples, rec.target, || {
            black_box(SchedCtx::new());
        })
        .median_ns
    });

    for name in ["rle", "ldp"] {
        let fresh = rec.value_of(&format!("schedule/{name}/1000"));
        let warm = rec.value_of(&format!("schedule_warm/{name}/1000"));
        if let (Some(fresh), Some(warm)) = (fresh, warm) {
            rec.derived(
                &format!("engine.{name}.warm_ratio"),
                MetricKind::Ratio,
                warm / fresh,
            );
        }
        if let (Some(fresh), Some(churn)) = (fresh, churn) {
            rec.derived(
                &format!("engine.{name}.ctx_churn_frac"),
                MetricKind::Ratio,
                churn / fresh,
            );
        }
    }

    // Steady-state allocations, only when the binary installed the
    // counting allocator (the `fading` CLI does; plain test binaries
    // do not).
    let allocs_wanted = ["rle", "ldp"]
        .iter()
        .any(|name| rec.wants(&format!("engine.{name}.steady_allocs")));
    if allocs_wanted && crate::alloc::counter_active() {
        let n = 256usize;
        let problem = Problem::paper(UniformGenerator::paper(n).generate(0), 3.0);
        for (name, scheduler) in [
            ("rle", Box::new(Rle::new()) as Box<dyn Scheduler>),
            ("ldp", Box::new(Ldp::new())),
        ] {
            let id = format!("engine.{name}.steady_allocs");
            if !rec.wants(&id) {
                continue;
            }
            let mut ctx = SchedCtx::with_capacity(n);
            for _ in 0..3 {
                let s = scheduler.schedule_in(&problem, Scope::all(), &mut ctx);
                ctx.recycle(s);
            }
            const CALLS: u64 = 10;
            let before = crate::alloc::allocations();
            for _ in 0..CALLS {
                let s = black_box(scheduler.schedule_in(&problem, Scope::all(), &mut ctx));
                ctx.recycle(s);
            }
            let per_call = (crate::alloc::allocations() - before) as f64 / CALLS as f64;
            rec.derived(&id, MetricKind::Allocs, per_call);
        }
    }
}

// ---- release smokes (`bench-report --smoke`) -------------------------

/// The release smoke workloads, formerly four separate ignored CI test
/// steps (`large_n_smoke.rs`, `queueing_smoke.rs`, the ignored
/// `traced_smoke` case, plus the new churn smoke). Functional
/// invariants are hard errors; wall clocks land in the ledger as
/// `smoke.*` [`MetricKind::Seconds`] rows whose `[max]` ceilings in
/// `bench-gates.toml` replace the old inline `Duration` guards.
fn smoke_benches(rec: &mut Recorder) -> Result<(), String> {
    smoke_large_n(rec)?;
    smoke_queueing(rec)?;
    smoke_traced(rec)?;
    smoke_churn(rec)?;
    smoke_churn_100k(rec)?;
    smoke_million(rec)
}

/// The sparse substrate at N = 100 000: build, RLE end-to-end, storage
/// budget, certified truncation, and sampled exact feasibility (see
/// `docs/interference.md`).
fn smoke_large_n(rec: &mut Recorder) -> Result<(), String> {
    if !rec.wants("smoke.large_n.build_s") && !rec.wants("smoke.large_n.wall_s") {
        return Ok(());
    }
    let n = 100_000usize;
    let started = Instant::now();
    // α = 4 (a Fig. 5(b) sweep value): the default truncation radius
    // keeps the near-field store inside the 1 GB budget.
    let links = density_scaled(n).generate(20170714);
    let build_started = Instant::now();
    let problem = Problem::builder(links, fading_channel::ChannelParams::with_alpha(4.0))
        .backend(BackendChoice::Sparse(SparseConfig::default()))
        .build();
    let build_s = build_started.elapsed().as_secs_f64();
    let model = problem
        .factors()
        .as_sparse()
        .ok_or("large-N smoke must run on the sparse backend")?;
    let storage = model.storage_bytes();
    if storage >= 1_000_000_000 {
        return Err(format!(
            "large-N smoke: interference storage is {storage} B, over the 1 GB budget"
        ));
    }
    if model.max_tail_cut() <= 0.0 {
        return Err(
            "large-N smoke: instance was stored exhaustively, truncation unexercised".into(),
        );
    }
    let schedule = Rle::new().schedule(&problem);
    if schedule.len() <= 1_000 {
        return Err(format!(
            "large-N smoke: RLE picked only {} links at N = 100k",
            schedule.len()
        ));
    }
    // Exact feasibility on a sample of receivers; factors recompute
    // exactly regardless of truncation.
    let members: Vec<_> = schedule.iter().collect();
    let budget = problem.gamma_eps();
    let step = (members.len() / 256).max(1);
    for &j in members.iter().step_by(step) {
        let sum: f64 = members
            .iter()
            .filter(|&&i| i != j)
            .map(|&i| problem.factor(i, j))
            .sum();
        if !fading_core::feasibility::within_budget(sum, budget) {
            return Err(format!(
                "large-N smoke: receiver {j} exceeds γ_ε: {sum} > {budget}"
            ));
        }
    }
    rec.derived("smoke.large_n.build_s", MetricKind::Seconds, build_s);
    rec.derived(
        "smoke.large_n.wall_s",
        MetricKind::Seconds,
        started.elapsed().as_secs_f64(),
    );
    Ok(())
}

/// The queueing loop (the engine over a fixed population) at n = 2000
/// × 200 slots under MaxWeight (see `docs/residual.md`), with packet
/// conservation.
fn smoke_queueing(rec: &mut Recorder) -> Result<(), String> {
    if !rec.wants("smoke.queueing.wall_s") {
        return Ok(());
    }
    let n = 2000usize;
    let geometry = density_scaled(n);
    let problem = Problem::builder(
        geometry.generate(20170715),
        fading_channel::ChannelParams::paper_defaults(),
    )
    .backend(BackendChoice::Dense)
    .build();
    let started = Instant::now();
    let result = fading_sim::ChurnEngine::new(problem, geometry, fixed_population(0.2, 200, 3))
        .run(&GreedyRate, fading_sim::ServicePolicy::MaxWeight);
    let wall_s = started.elapsed().as_secs_f64();
    if result.packets_delivered == 0 {
        return Err("queueing smoke: nothing delivered in 200 slots at n = 2000".into());
    }
    if !result.conserves_packets() {
        return Err(format!(
            "queueing smoke: packet conservation violated ({} arrived, {} delivered, {} queued)",
            result.packets_arrived, result.packets_delivered, result.final_backlog
        ));
    }
    rec.derived("smoke.queueing.wall_s", MetricKind::Seconds, wall_s);
    Ok(())
}

/// LDP and RLE at n = 1000 with the decision trace on (plus RLE on the
/// sparse backend): the JSONL stream must be complete, round-trip, and
/// replay to the emitted schedule with an audited γ_ε ledger (see
/// `docs/tracing.md`).
fn smoke_traced(rec: &mut Recorder) -> Result<(), String> {
    if !rec.wants("smoke.traced.wall_s") {
        return Ok(());
    }
    let started = Instant::now();
    let links = UniformGenerator::paper(1000).generate(42);
    let panel: [(&str, Box<dyn Scheduler>, BackendChoice); 3] = [
        ("ldp", Box::new(Ldp::default()), BackendChoice::Dense),
        ("rle", Box::new(Rle::default()), BackendChoice::Dense),
        (
            "rle-sparse",
            Box::new(Rle::default()),
            BackendChoice::Sparse(SparseConfig::default()),
        ),
    ];
    for (tag, scheduler, backend) in panel {
        let problem = Problem::builder(
            links.clone(),
            fading_channel::ChannelParams::with_alpha(3.0),
        )
        .backend(backend)
        .build();
        fading_obs::set_tracing(true);
        let _ = fading_obs::take_trace(); // start from an empty ring
        let schedule = scheduler.schedule(&problem);
        let trace = fading_obs::take_trace();
        fading_obs::set_tracing(false);
        if !trace.is_complete() {
            return Err(format!("traced smoke: {tag} trace truncated at n = 1000"));
        }
        let round_tripped = fading_obs::Trace::from_jsonl(&trace.to_jsonl())
            .map_err(|e| format!("traced smoke: {tag} JSONL does not round-trip: {e}"))?;
        let cert = fading_core::verify_schedule(&problem, &round_tripped, &schedule)
            .map_err(|e| format!("traced smoke: {tag} replay failed: {e}"))?;
        if !cert.ledger_checked {
            return Err(format!("traced smoke: {tag} ledger not audited"));
        }
    }
    rec.derived(
        "smoke.traced.wall_s",
        MetricKind::Seconds,
        started.elapsed().as_secs_f64(),
    );
    Ok(())
}

/// The streaming engine at the queueing-smoke scale: n = 2000 seed
/// population, 200 slots of per-slot Poisson arrivals / exponential
/// departures patching the problem in place, greedy MaxWeight service,
/// packet conservation across departures (see `docs/online.md`).
fn smoke_churn(rec: &mut Recorder) -> Result<(), String> {
    if !rec.wants("smoke.churn.wall_s") {
        return Ok(());
    }
    let n = 2000usize;
    let gen = density_scaled(n);
    let problem = Problem::builder(
        gen.generate(20170716),
        fading_channel::ChannelParams::paper_defaults(),
    )
    .backend(BackendChoice::Dense)
    .build();
    let cfg = fading_sim::ChurnConfig {
        slots: 200,
        link_arrival_rate: n as f64 / 100.0,
        mean_lifetime: 100.0,
        packet_prob: 0.2,
        seed: 11,
    };
    let started = Instant::now();
    let result = fading_sim::ChurnEngine::new(problem, gen, cfg)
        .run(&GreedyRate, fading_sim::ServicePolicy::MaxWeight);
    let wall_s = started.elapsed().as_secs_f64();
    if result.links_arrived == 0 || result.links_departed == 0 {
        return Err(format!(
            "churn smoke: no topology churn over 200 slots ({} arrived, {} departed)",
            result.links_arrived, result.links_departed
        ));
    }
    if result.packets_delivered == 0 {
        return Err("churn smoke: nothing delivered over 200 slots at n = 2000".into());
    }
    if !result.conserves_packets() {
        return Err(format!(
            "churn smoke: packet conservation violated ({} arrived != {} delivered + {} abandoned + {} queued)",
            result.packets_arrived,
            result.packets_delivered,
            result.packets_abandoned,
            result.final_backlog
        ));
    }
    rec.derived("smoke.churn.wall_s", MetricKind::Seconds, wall_s);
    Ok(())
}

/// Sustained churn at n = 100 000: the transactional per-slot mutate
/// path and backlog-scoped scheduling, end-to-end through the
/// engine for 50 slots on the sparse substrate. Functional invariants
/// (churn actually happened, packets conserved) are hard errors; the
/// wall clock lands as `smoke.churn_100k.wall_s` with a `[max]`
/// ceiling in `bench-gates.toml`.
fn smoke_churn_100k(rec: &mut Recorder) -> Result<(), String> {
    if !rec.wants("smoke.churn_100k.wall_s") {
        return Ok(());
    }
    let n = 100_000usize;
    let gen = density_scaled(n);
    let problem = Problem::builder(
        gen.generate(20170718),
        fading_channel::ChannelParams::with_alpha(4.0),
    )
    .backend(BackendChoice::Sparse(SparseConfig::default()))
    .build();
    let cfg = fading_sim::ChurnConfig {
        slots: 50,
        link_arrival_rate: 200.0,
        mean_lifetime: 500.0,
        packet_prob: 0.001,
        seed: 13,
    };
    let started = Instant::now();
    let result = fading_sim::ChurnEngine::new(problem, gen, cfg)
        .run(&GreedyRate, fading_sim::ServicePolicy::MaxWeight);
    let wall_s = started.elapsed().as_secs_f64();
    if result.links_arrived == 0 || result.links_departed == 0 {
        return Err(format!(
            "churn 100k smoke: no topology churn over 50 slots ({} arrived, {} departed)",
            result.links_arrived, result.links_departed
        ));
    }
    if result.packets_delivered == 0 {
        return Err("churn 100k smoke: nothing delivered over 50 slots at n = 100 000".into());
    }
    if !result.conserves_packets() {
        return Err(format!(
            "churn 100k smoke: packet conservation violated ({} arrived != {} delivered + {} abandoned + {} queued)",
            result.packets_arrived,
            result.packets_delivered,
            result.packets_abandoned,
            result.final_backlog
        ));
    }
    rec.derived("smoke.churn_100k.wall_s", MetricKind::Seconds, wall_s);
    Ok(())
}

/// The million-link substrate end-to-end: tile-sharded spatial build,
/// sparse CSR under a relaxed certified tail (`tail_rtol = 0.1` keeps
/// the store a few hundred MB where the default rtol would need
/// ~2.5 GB), RLE and LDP schedules, and sampled exact feasibility on
/// the RLE output. Wall ceilings live in `bench-gates.toml`
/// (`smoke.million.{build_s,wall_s}`).
fn smoke_million(rec: &mut Recorder) -> Result<(), String> {
    if !rec.wants("smoke.million.build_s") && !rec.wants("smoke.million.wall_s") {
        return Ok(());
    }
    let n = 1_000_000usize;
    let started = Instant::now();
    let links = density_scaled(n).generate(20170717);
    let build_started = Instant::now();
    let problem = Problem::builder(links, fading_channel::ChannelParams::with_alpha(4.0))
        .backend(BackendChoice::Sparse(SparseConfig { tail_rtol: 0.1 }))
        .build();
    let build_s = build_started.elapsed().as_secs_f64();
    let model = problem
        .factors()
        .as_sparse()
        .ok_or("million smoke must run on the sparse backend")?;
    let storage = model.storage_bytes();
    if storage >= 1_000_000_000 {
        return Err(format!(
            "million smoke: interference storage is {storage} B, over the 1 GB budget"
        ));
    }
    if model.max_tail_cut() <= 0.0 {
        return Err(
            "million smoke: instance was stored exhaustively, truncation unexercised".into(),
        );
    }
    let rle_schedule = Rle::new().schedule(&problem);
    if rle_schedule.len() <= 1_000 {
        return Err(format!(
            "million smoke: RLE picked only {} links at N = 10⁶",
            rle_schedule.len()
        ));
    }
    let ldp_schedule = Ldp::new().schedule(&problem);
    if ldp_schedule.is_empty() {
        return Err("million smoke: LDP scheduled nothing at N = 10⁶".into());
    }
    // Exact feasibility on a sample of RLE receivers; factors
    // recompute exactly regardless of truncation.
    let members: Vec<_> = rle_schedule.iter().collect();
    let budget = problem.gamma_eps();
    let step = (members.len() / 256).max(1);
    for &j in members.iter().step_by(step) {
        let sum: f64 = members
            .iter()
            .filter(|&&i| i != j)
            .map(|&i| problem.factor(i, j))
            .sum();
        if !fading_core::feasibility::within_budget(sum, budget) {
            return Err(format!(
                "million smoke: receiver {j} exceeds γ_ε: {sum} > {budget}"
            ));
        }
    }
    rec.derived("smoke.million.build_s", MetricKind::Seconds, build_s);
    rec.derived(
        "smoke.million.wall_s",
        MetricKind::Seconds,
        started.elapsed().as_secs_f64(),
    );
    Ok(())
}

/// Least-squares log-log slope of ns/op over the family sizes — the
/// empirical n-scaling exponent per scheduler.
fn scaling_exponents(rec: &mut Recorder) {
    for name in ["ldp", "rle", "greedy"] {
        let points: Vec<(f64, f64)> = FAMILY_SIZES
            .iter()
            .filter_map(|&n| {
                rec.value_of(&format!("schedule/{name}/{n}"))
                    .filter(|&v| v > 0.0)
                    .map(|v| ((n as f64).ln(), v.ln()))
            })
            .collect();
        if points.len() < 2 {
            continue;
        }
        let m = points.len() as f64;
        let (sx, sy) = points
            .iter()
            .fold((0.0, 0.0), |(sx, sy), (x, y)| (sx + x, sy + y));
        let (mx, my) = (sx / m, sy / m);
        let num: f64 = points.iter().map(|(x, y)| (x - mx) * (y - my)).sum();
        let den: f64 = points.iter().map(|(x, _)| (x - mx) * (x - mx)).sum();
        if den > 0.0 {
            rec.derived(
                &format!("scaling.{name}.exponent"),
                MetricKind::Exponent,
                num / den,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_ns_reports_plausible_timings() {
        let m = measure_ns(5, Duration::from_micros(200), || {
            black_box((0..100u64).sum::<u64>());
        });
        assert!(m.median_ns > 0.0);
        assert!(m.ci95_ns >= 0.0);
        assert_eq!(m.samples, 5);
    }

    #[test]
    fn filtered_report_runs_only_matching_ids_and_derives_exponent() {
        // Debug-build timings are meaningless but the plumbing is not:
        // a greedy-only filter must produce exactly the greedy family
        // plus its fitted exponent, sorted, with a valid schema.
        let report = run_report(&ReportOptions {
            quick: true,
            filter: Some("greedy".to_string()),
            smoke: false,
        })
        .unwrap();
        let ids: Vec<&str> = report.metrics.iter().map(|m| m.id.as_str()).collect();
        assert_eq!(
            ids,
            [
                "queueing/greedy/100x50",
                "scaling.greedy.exponent",
                "schedule/greedy/100",
                "schedule/greedy/1000",
                "schedule/greedy/300",
            ]
        );
        assert_eq!(report.schema_version, crate::schema::BENCH_SCHEMA_VERSION);
    }

    #[test]
    fn rust_loc_counts_source_lines_up_to_the_test_module() {
        let root = std::env::temp_dir().join(format!("rust_loc_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let write = |rel: &str, text: &str| {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, text).unwrap();
        };
        write(
            "crates/a/src/lib.rs",
            "fn a() {}\n\n#[cfg(test)]\nmod tests {}\n",
        );
        write("crates/a/src/deep/m.rs", "fn m() {}\n");
        write("crates/a/tests/t.rs", "fn t() {}\n");
        write("crates/b/Cargo.toml", "");
        write("src/main.rs", "fn main() {}\n// end\n");
        write("vendor/v/src/lib.rs", "fn v() {}\n");
        assert_eq!(rust_loc(&root).unwrap(), 2 + 1 + 2);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn unmatched_filter_is_a_clean_error() {
        let err = run_report(&ReportOptions {
            quick: true,
            filter: Some("no-such-bench".to_string()),
            smoke: false,
        })
        .unwrap_err();
        assert!(err.contains("no-such-bench"), "{err}");
    }
}
