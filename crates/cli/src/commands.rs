//! The CLI subcommands, separated from `main` for testability.

use crate::args::Args;
use fading_core::{BackendChoice, FeasibilityReport, Problem, Schedule, Scheduler};
use fading_net::{instance_stats, io, RateModel, UniformGenerator};
use fading_sim::simulate_many;
use std::path::Path;

/// Flags accepted by every subcommand (observability plumbing).
const GLOBAL_FLAGS: &[&str] = &["metrics-out", "trace-out", "prom-out", "progress", "quiet"];

/// Side effects a subcommand reports back to the shared [`run`]
/// wrapper: files it produced (hashed into the `--metrics-out`
/// manifest's `artifacts` list) and a non-error exit code
/// (`bench-report --check` uses `2` for fingerprint-mismatch
/// warnings; plain failures go through `Err` and exit `1`).
#[derive(Debug, Default)]
pub struct CmdEffects {
    /// Process exit code for a *successful* run; `0` unless set.
    pub exit_code: i32,
    /// `(kind, path)` pairs to record in the run manifest.
    pub artifacts: Vec<(String, std::path::PathBuf)>,
}

/// Rejects any option not in `allowed` (or [`GLOBAL_FLAGS`]), so a
/// typo'd flag fails loudly instead of silently using a default.
fn reject_unknown_flags(args: &Args, allowed: &[&str]) -> Result<(), String> {
    for key in args.options.keys() {
        if !allowed.contains(&key.as_str()) && !GLOBAL_FLAGS.contains(&key.as_str()) {
            return Err(format!(
                "unknown option --{key} for `{}`; see `fading help`",
                args.command
            ));
        }
    }
    Ok(())
}

/// Runs a parsed command, writing human output to `out`.
///
/// Every subcommand also honors `--progress` (throttled stderr
/// progress), `--quiet` (suppress progress and manifest chatter),
/// `--trace-out <path>` (write the schedulers' decision trace as
/// JSONL after a successful run), and `--metrics-out <path>` (write a
/// [`fading_obs::RunManifest`] JSON after a successful run; trace
/// files land in its `artifacts` list with their content hash).
pub fn run(args: &Args, out: &mut dyn std::io::Write) -> Result<i32, String> {
    let started = std::time::Instant::now();
    let quiet = args.flag("quiet");
    fading_obs::set_progress(args.flag("progress") && !quiet);
    let trace_out = args.get("trace-out");
    if trace_out.is_some() {
        fading_obs::set_tracing(true);
        let _ = fading_obs::take_trace(); // start from an empty ring
    }
    let mut effects = CmdEffects::default();
    let dispatched = dispatch(args, out, &mut effects);
    if trace_out.is_some() {
        fading_obs::set_tracing(false);
    }
    dispatched?;
    if let Some(path) = trace_out {
        let trace = fading_obs::take_trace();
        trace.write(Path::new(path))?;
        if !quiet {
            writeln!(out, "wrote {} trace events to {path}", trace.events.len())
                .map_err(|e| e.to_string())?;
        }
    }
    if let Some(path) = args.get("prom-out") {
        let text = fading_obs::render_prometheus(&fading_obs::snapshot());
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
        effects.artifacts.push(("prometheus".into(), path.into()));
        if !quiet {
            writeln!(out, "wrote prometheus metrics to {path}").map_err(|e| e.to_string())?;
        }
    }
    if let Some(path) = args.get("metrics-out") {
        let mut builder = fading_obs::ManifestBuilder::new(&args.command)
            .started_at(started)
            .seed(args.get_or("seed", 0).unwrap_or(0));
        for (key, value) in &args.options {
            builder = builder.config_kv(key, value);
        }
        if let Some(trace_path) = trace_out {
            builder = builder.artifact("trace", Path::new(trace_path));
        }
        for (kind, artifact_path) in &effects.artifacts {
            builder = builder.artifact(kind, artifact_path);
        }
        builder.finish().write(Path::new(path))?;
        if !quiet {
            writeln!(out, "wrote metrics manifest to {path}").map_err(|e| e.to_string())?;
        }
    }
    Ok(effects.exit_code)
}

fn dispatch(
    args: &Args,
    out: &mut dyn std::io::Write,
    effects: &mut CmdEffects,
) -> Result<(), String> {
    match args.command.as_str() {
        "generate" => {
            reject_unknown_flags(
                args,
                &["n", "out", "side", "len-lo", "len-hi", "seed", "rate"],
            )?;
            generate(args, out)
        }
        "stats" => {
            reject_unknown_flags(args, &["instance"])?;
            stats(args, out)
        }
        "schedule" => {
            reject_unknown_flags(
                args,
                &[
                    "instance",
                    "algo",
                    "alpha",
                    "eps",
                    "out",
                    "interference",
                    "tail-rtol",
                ],
            )?;
            schedule(args, out)
        }
        "simulate" => {
            reject_unknown_flags(
                args,
                &[
                    "instance",
                    "schedule",
                    "alpha",
                    "eps",
                    "trials",
                    "seed",
                    "interference",
                    "tail-rtol",
                ],
            )?;
            simulate(args, out)
        }
        "render" => {
            reject_unknown_flags(
                args,
                &["instance", "out", "schedule", "width", "grid-cell", "disks"],
            )?;
            render(args, out)
        }
        "multislot" => {
            reject_unknown_flags(
                args,
                &[
                    "instance",
                    "algo",
                    "alpha",
                    "eps",
                    "interference",
                    "tail-rtol",
                ],
            )?;
            multislot(args, out)
        }
        "capacity" => {
            reject_unknown_flags(
                args,
                &[
                    "instance",
                    "schedule",
                    "alpha",
                    "eps",
                    "interference",
                    "tail-rtol",
                ],
            )?;
            capacity(args, out)
        }
        "explain" => {
            reject_unknown_flags(
                args,
                &[
                    "trace",
                    "link",
                    "budgets",
                    "cascade",
                    "block",
                    "verify",
                    "instance",
                    "schedule",
                    "alpha",
                    "eps",
                    "interference",
                    "tail-rtol",
                ],
            )?;
            crate::explain::explain(args, out)
        }
        "churn" => {
            reject_unknown_flags(
                args,
                &[
                    "n",
                    "slots",
                    "algo",
                    "policy",
                    "link-rate",
                    "lifetime",
                    "packet-prob",
                    "frontier",
                    "seed",
                    "alpha",
                    "eps",
                    "interference",
                    "tail-rtol",
                    "side",
                    "len-lo",
                    "len-hi",
                    "out",
                    "series-out",
                    "series-timings",
                    "series-cadence",
                    "flight-out",
                    "flight-slots",
                    "watch",
                ],
            )?;
            churn(args, out, effects)
        }
        "bench-report" => {
            reject_unknown_flags(
                args,
                &[
                    "out", "dir", "from", "baseline", "gates", "filter", "diff-out", "check",
                    "quick", "smoke",
                ],
            )?;
            crate::bench_report::bench_report(args, out, effects)
        }
        "help" => write!(out, "{}", usage()).map_err(|e| e.to_string()),
        other => Err(format!("unknown subcommand {other}\n\n{}", usage())),
    }
}

/// The usage text.
pub fn usage() -> String {
    "fading — fading-resistant link scheduling (ICPP 2017 reproduction)

USAGE:
  fading generate --n <links> --out <file> [--side 500] [--len-lo 5]
                  [--len-hi 20] [--seed 0] [--rate 1.0]
  fading stats    --instance <file>
  fading schedule --instance <file> --algo <name> [--alpha 3] [--eps 0.01]
                  [--out <file>] [--interference dense|sparse|auto]
  fading simulate --instance <file> --schedule <file> [--alpha 3]
                  [--eps 0.01] [--trials 1000] [--seed 0]
                  [--interference dense|sparse|auto]
  fading render   --instance <file> --out <file.svg> [--schedule <file>]
                  [--width 800] [--grid-cell <units>] [--disks <radius-factor>]
  fading multislot --instance <file> --algo <name> [--alpha 3] [--eps 0.01]
                  [--interference dense|sparse|auto]
  fading capacity --instance <file> --schedule <file> [--alpha 3] [--eps 0.01]
                  [--interference dense|sparse|auto]
  fading explain  --trace <file.jsonl> [--link <id>] [--budgets]
                  [--cascade <pick#>] [--block <idx>]
                  [--verify --instance <file> [--schedule <file>]
                   [--alpha 3] [--eps 0.01] [--interference dense|sparse|auto]]
  fading churn    [--n 50] [--slots 200] [--algo greedy]
                  [--policy maxweight|plain] [--link-rate 1.0]
                  [--lifetime 50] [--packet-prob 0.2]
                  [--frontier p1,p2,...] [--seed 0] [--alpha 3]
                  [--eps 0.01] [--interference dense|sparse|auto]
                  [--side 500] [--len-lo 5] [--len-hi 20] [--out <json>]
                  [--series-out <file.jsonl>] [--series-timings]
                  [--series-cadence 1] [--flight-out <dir>]
                  [--flight-slots 64] [--watch]
                  streaming run: links arrive (Poisson, --link-rate per
                  slot) and depart (exponential --lifetime) while the
                  engine patches the live problem in place; --frontier
                  sweeps packet load and prints the stability table.
                  --series-out streams one JSON line per slot
                  (deterministic per seed; --series-timings appends the
                  measured per-phase ns fields; --series-cadence thins
                  the stream); --flight-out arms the flight recorder,
                  which keeps the last --flight-slots slots + their
                  decision traces and dumps a replayable post-mortem
                  bundle into the directory when an anomaly fires
                  (its capture is per-thread, so --trace-out still
                  records every slot); --watch turns
                  the progress line into a live slots/sec + phase-split
                  + health view (see docs/telemetry.md)
  fading bench-report [--out <BENCH_date.json>] [--dir <repo-root>]
                  [--check] [--baseline <file>] [--gates <bench-gates.toml>]
                  [--quick] [--smoke] [--filter <substr>] [--from <file>]
                  [--diff-out <file>]
                  runs the bench suite and writes a perf-trajectory
                  ledger entry; --check diffs it against the newest
                  committed BENCH_*.json and exits 0 (clean),
                  1 (regression), or 2 (fingerprint mismatch: would-be
                  regressions downgraded to warnings); --smoke runs the
                  release smoke workloads (smoke.* wall-clock rows
                  gated by bench-gates.toml [max]) instead of the
                  micro suite — including the 10^5- and 10^6-link
                  sparse-substrate builds with RLE+LDP end-to-end

ALGORITHMS:
  ldp | ldp-two-sided | rle | dls | greedy | random | exact | anneal |
  approx-logn | approx-diversity

INTERFERENCE BACKENDS (default dense):
  dense   exact N×N factor matrix (the paper configuration)
  sparse  spatial-hash truncated store; tune with --tail-rtol <frac>
          (omitted factors stay below tail-rtol × γ_ε; default 1e-3)
  auto    dense up to 4096 links, sparse above

GLOBAL FLAGS (every subcommand):
  --trace-out <file.jsonl>  write the schedulers' decision trace
                            (inspect and replay with `fading explain`)
  --metrics-out <file.json> write a run manifest (metrics, spans,
                            artifact hashes)
  --prom-out <file.prom>    write the metrics snapshot in Prometheus
                            text exposition format
  --progress                throttled progress on stderr
  --quiet                   suppress progress and chatter
  --help, -h                print this usage (same as `fading help`)
"
    .to_string()
}

fn load_instance(args: &Args) -> Result<fading_net::LinkSet, String> {
    let path = args.require("instance")?;
    io::load(Path::new(path)).map_err(|e| format!("cannot read {path}: {e}"))
}

pub(crate) fn build_problem(args: &Args, links: fading_net::LinkSet) -> Result<Problem, String> {
    let alpha: f64 = args.get_or("alpha", 3.0)?;
    let eps: f64 = args.get_or("eps", 0.01)?;
    if !alpha.is_finite() || alpha <= 2.0 {
        return Err(format!("--alpha must be > 2, got {alpha}"));
    }
    if !eps.is_finite() || eps <= 0.0 || eps >= 1.0 {
        return Err(format!("--eps must be in (0,1), got {eps}"));
    }
    Ok(
        Problem::builder(links, fading_channel::ChannelParams::with_alpha(alpha))
            .epsilon(eps)
            .backend(parse_backend(args)?)
            .build(),
    )
}

/// Resolves `--interference` / `--tail-rtol` to a [`BackendChoice`].
fn parse_backend(args: &Args) -> Result<BackendChoice, String> {
    let mut backend = match args.get("interference") {
        None => BackendChoice::Dense,
        Some(name) => BackendChoice::parse(name)?,
    };
    if let Some(v) = args.get("tail-rtol") {
        let tail_rtol: f64 = v
            .parse()
            .map_err(|e| format!("option --tail-rtol: cannot parse {v:?}: {e}"))?;
        if !tail_rtol.is_finite() || tail_rtol <= 0.0 || tail_rtol > 1.0 {
            return Err(format!("--tail-rtol must be in (0,1], got {tail_rtol}"));
        }
        match &mut backend {
            BackendChoice::Sparse(config) => config.tail_rtol = tail_rtol,
            _ => return Err("--tail-rtol only applies with --interference sparse".into()),
        }
    }
    Ok(backend)
}

/// Resolves an algorithm name to a scheduler via the typed registry.
pub fn scheduler_by_name(name: &str) -> Result<Box<dyn Scheduler>, String> {
    let id: fading_core::AlgoId = name.parse()?;
    Ok(id.build(0))
}

/// The uniform deployment geometry `generate` and `churn` both take
/// from `--side/--len-lo/--len-hi`, rejected with a message unless the
/// side is finite and positive and `0 < len-lo <= len-hi` are finite —
/// anything else panics in the generator or never finishes placing
/// links.
fn uniform_geometry(args: &Args, n: usize, rates: RateModel) -> Result<UniformGenerator, String> {
    let side: f64 = args.get_or("side", 500.0)?;
    let len_lo: f64 = args.get_or("len-lo", 5.0)?;
    let len_hi: f64 = args.get_or("len-hi", 20.0)?;
    if !(side.is_finite() && side > 0.0) {
        return Err(format!("--side must be finite and > 0, got {side}"));
    }
    if !(len_lo > 0.0 && len_lo <= len_hi && len_hi.is_finite()) {
        return Err(format!(
            "--len-lo and --len-hi must be finite with 0 < len-lo <= len-hi, got {len_lo} and {len_hi}"
        ));
    }
    Ok(UniformGenerator {
        side,
        n,
        len_lo,
        len_hi,
        rates,
    })
}

fn generate(args: &Args, out: &mut dyn std::io::Write) -> Result<(), String> {
    let n: usize = args.get_or("n", 0)?;
    if n == 0 {
        return Err("--n must be a positive link count".into());
    }
    let rate: f64 = args.get_or("rate", 1.0)?;
    if !(rate.is_finite() && rate > 0.0) {
        return Err(format!("--rate must be finite and > 0, got {rate}"));
    }
    let gen = uniform_geometry(args, n, RateModel::Fixed(rate))?;
    let links = gen
        .try_generate(args.get_or("seed", 0)?)
        .map_err(|e| e.to_string())?;
    let path = args.require("out")?;
    io::save(&links, Path::new(path)).map_err(|e| format!("cannot write {path}: {e}"))?;
    writeln!(out, "wrote {} links to {path}", links.len()).map_err(|e| e.to_string())
}

fn stats(args: &Args, out: &mut dyn std::io::Write) -> Result<(), String> {
    let links = load_instance(args)?;
    if links.is_empty() {
        return Err("instance is empty".into());
    }
    let s = instance_stats(&links);
    writeln!(
        out,
        "links:             {}\ndensity:           {:.6} links/unit²\nlengths:           {:.2} .. {:.2} (mean {:.2})\nlength diversity:  g(L) = {}\nnearest sender:    {:.2} (mean)\ndistance spread Δ: {:.1}",
        s.n, s.density, s.min_length, s.max_length, s.mean_length, s.diversity,
        s.mean_nearest_sender, s.distance_spread
    )
    .map_err(|e| e.to_string())
}

fn schedule(args: &Args, out: &mut dyn std::io::Write) -> Result<(), String> {
    let links = load_instance(args)?;
    let problem = build_problem(args, links)?;
    let scheduler = scheduler_by_name(args.require("algo")?)?;
    let schedule = scheduler.schedule(&problem);
    let report = FeasibilityReport::evaluate(&problem, &schedule);
    writeln!(
        out,
        "{}: scheduled {} of {} links (rate {:.2}), fading-feasible: {}",
        scheduler.name(),
        schedule.len(),
        problem.len(),
        schedule.utility(&problem),
        report.is_feasible()
    )
    .map_err(|e| e.to_string())?;
    if let Some(path) = args.get("out") {
        let json = serde_json::to_string_pretty(&schedule).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        writeln!(out, "wrote schedule to {path}").map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn simulate(args: &Args, out: &mut dyn std::io::Write) -> Result<(), String> {
    let links = load_instance(args)?;
    let problem = build_problem(args, links)?;
    let sched_path = args.require("schedule")?;
    let text = std::fs::read_to_string(sched_path)
        .map_err(|e| format!("cannot read {sched_path}: {e}"))?;
    let schedule: Schedule =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {sched_path}: {e}"))?;
    if let Some(bad) = schedule.iter().find(|id| id.index() >= problem.len()) {
        return Err(format!("schedule references nonexistent link {bad}"));
    }
    let trials: u64 = args.get_or("trials", 1000)?;
    let stats = simulate_many(&problem, &schedule, trials, args.get_or("seed", 0)?);
    writeln!(
        out,
        "{} links over {trials} Rayleigh slots:\n  failed/slot:     {:.4} ± {:.4}\n  throughput/slot: {:.3} ± {:.3}\n  budget (ε·|S|):  {:.3}",
        schedule.len(),
        stats.failed.mean,
        stats.failed.ci95,
        stats.throughput.mean,
        stats.throughput.ci95,
        problem.epsilon() * schedule.len() as f64
    )
    .map_err(|e| e.to_string())
}

fn multislot(args: &Args, out: &mut dyn std::io::Write) -> Result<(), String> {
    let links = load_instance(args)?;
    let problem = build_problem(args, links)?;
    let scheduler = scheduler_by_name(args.require("algo")?)?;
    let plan = fading_core::multislot::schedule_all(&problem, scheduler.as_ref());
    let bound = fading_core::multislot::conflict_clique_lower_bound(&problem);
    writeln!(
        out,
        "{}: {} links drained in {} slots (clique lower bound {bound})",
        scheduler.name(),
        problem.len(),
        plan.num_slots()
    )
    .map_err(|e| e.to_string())?;
    for (i, slot) in plan.slots().iter().enumerate() {
        let ids: Vec<String> = slot.iter().map(|id| id.to_string()).collect();
        writeln!(out, "  slot {:>3}: {}", i + 1, ids.join(" ")).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn capacity(args: &Args, out: &mut dyn std::io::Write) -> Result<(), String> {
    let links = load_instance(args)?;
    let problem = build_problem(args, links)?;
    let sched_path = args.require("schedule")?;
    let text = std::fs::read_to_string(sched_path)
        .map_err(|e| format!("cannot read {sched_path}: {e}"))?;
    let schedule: Schedule =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {sched_path}: {e}"))?;
    if let Some(bad) = schedule.iter().find(|id| id.index() >= problem.len()) {
        return Err(format!("schedule references nonexistent link {bad}"));
    }
    writeln!(
        out,
        "{:<8} {:>10} {:>16} {:>18}",
        "link", "success", "E[fail]/slot", "ergodic bit/s/Hz"
    )
    .map_err(|e| e.to_string())?;
    let mut total_cap = 0.0;
    for j in schedule.iter() {
        let d_jj = problem.links().length(j);
        let ds: Vec<f64> = schedule
            .iter()
            .filter(|&i| i != j)
            .map(|i| problem.links().sender_receiver_distance(i, j))
            .collect();
        let success =
            fading_channel::sinr_ccdf(problem.params(), d_jj, &ds, problem.params().gamma_th);
        let cap = fading_channel::ergodic_capacity(problem.params(), d_jj, &ds);
        if cap.is_finite() {
            total_cap += cap;
        }
        writeln!(
            out,
            "{:<8} {:>10.5} {:>16.5} {:>18.2}",
            j.to_string(),
            success,
            1.0 - success,
            cap
        )
        .map_err(|e| e.to_string())?;
    }
    writeln!(
        out,
        "total ergodic Shannon throughput: {total_cap:.2} bit/s/Hz"
    )
    .map_err(|e| e.to_string())
}

/// Streaming churn run: links arrive (Poisson) and depart (exponential
/// lifetimes) while the engine patches the live [`Problem`] in place
/// and schedules every slot. With `--frontier p1,p2,...` it sweeps the
/// packet arrival probability instead and prints the backlog-vs-load
/// stability table.
fn churn(
    args: &Args,
    out: &mut dyn std::io::Write,
    effects: &mut CmdEffects,
) -> Result<(), String> {
    let n: usize = args.get_or("n", 50)?;
    if n == 0 {
        return Err("--n must be a positive seed population".into());
    }
    let geometry = uniform_geometry(args, n, RateModel::Fixed(1.0))?;
    let seed: u64 = args.get_or("seed", 0)?;
    let links = geometry.try_generate(seed).map_err(|e| e.to_string())?;
    let problem = build_problem(args, links)?;
    let scheduler = scheduler_by_name(args.get("algo").unwrap_or("greedy"))?;
    let policy = match args.get("policy").unwrap_or("maxweight") {
        "maxweight" => fading_sim::ServicePolicy::MaxWeight,
        "plain" => fading_sim::ServicePolicy::PlainRates,
        other => return Err(format!("--policy must be maxweight or plain, got {other}")),
    };
    let cfg = fading_sim::ChurnConfig {
        slots: args.get_or("slots", 200)?,
        link_arrival_rate: args.get_or("link-rate", 1.0)?,
        mean_lifetime: args.get_or("lifetime", 50.0)?,
        packet_prob: args.get_or("packet-prob", 0.2)?,
        seed,
    };
    if cfg.slots == 0 {
        return Err("--slots must be positive".into());
    }
    if !cfg.link_arrival_rate.is_finite() || cfg.link_arrival_rate < 0.0 {
        return Err(format!(
            "--link-rate must be finite and >= 0, got {}",
            cfg.link_arrival_rate
        ));
    }
    if !cfg.mean_lifetime.is_finite() || cfg.mean_lifetime < 1.0 {
        return Err(format!(
            "--lifetime must be >= 1 slot, got {}",
            cfg.mean_lifetime
        ));
    }
    if !(0.0..=1.0).contains(&cfg.packet_prob) {
        return Err(format!(
            "--packet-prob must be in [0,1], got {}",
            cfg.packet_prob
        ));
    }
    let series_out = args.get("series-out");
    let flight_out = args.get("flight-out");
    let watch = args.flag("watch");
    let series_cadence: u64 = args.get_or("series-cadence", 1)?;
    if series_cadence == 0 {
        return Err("--series-cadence must be >= 1".into());
    }
    let flight_slots: usize = args.get_or("flight-slots", 64)?;
    if flight_slots == 0 {
        return Err("--flight-slots must be >= 1".into());
    }
    if watch {
        // The watch view is the progress line with a live phase split
        // and health state; it implies --progress.
        fading_obs::set_progress(!args.flag("quiet"));
    }

    if let Some(list) = args.get("frontier") {
        if series_out.is_some() || flight_out.is_some() {
            return Err(
                "--series-out/--flight-out apply to a single churn run, not --frontier sweeps"
                    .into(),
            );
        }
        let probs: Vec<f64> = list
            .split(',')
            .map(|v| {
                v.trim()
                    .parse::<f64>()
                    .map_err(|e| format!("--frontier: cannot parse {v:?}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        if probs.is_empty() || probs.iter().any(|p| !(0.0..=1.0).contains(p)) {
            return Err("--frontier needs comma-separated probabilities in [0,1]".into());
        }
        let frontier = fading_sim::stability_frontier(
            &problem,
            geometry,
            cfg,
            scheduler.as_ref(),
            policy,
            &probs,
        );
        writeln!(
            out,
            "{} over {} slots (λ_link {}, E[life] {}):",
            scheduler.name(),
            cfg.slots,
            cfg.link_arrival_rate,
            cfg.mean_lifetime
        )
        .map_err(|e| e.to_string())?;
        writeln!(
            out,
            "{:>12} {:>10} {:>12} {:>12} {:>10}",
            "packet-prob", "mean pop", "mean backlog", "max backlog", "delivered"
        )
        .map_err(|e| e.to_string())?;
        for (p, r) in &frontier {
            writeln!(
                out,
                "{:>12.3} {:>10.1} {:>12.1} {:>12} {:>10}",
                p, r.mean_population, r.mean_backlog, r.max_backlog, r.packets_delivered
            )
            .map_err(|e| e.to_string())?;
        }
        if let Some(path) = args.get("out") {
            let json = serde_json::to_string_pretty(&frontier).map_err(|e| e.to_string())?;
            std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
            effects.artifacts.push(("frontier".into(), path.into()));
            writeln!(out, "wrote frontier to {path}").map_err(|e| e.to_string())?;
        }
        return Ok(());
    }

    let mut engine = fading_sim::ChurnEngine::new(problem, geometry, cfg);
    // One declarative telemetry bundle: the flags fold into a single
    // TelemetryConfig and one arm() call (--watch alone arms the bare
    // timed path for the live phase split).
    let mut telemetry = fading_sim::TelemetryConfig::new();
    let mut armed = watch;
    if let Some(path) = series_out {
        let series_cfg = fading_obs::SeriesConfig {
            cadence: series_cadence,
            timings: args.flag("series-timings"),
            ..Default::default()
        };
        telemetry = telemetry.series(fading_obs::SlotSeries::to_path(
            series_cfg,
            Path::new(path),
        )?);
        armed = true;
    }
    if let Some(dir) = flight_out {
        let flight_cfg = fading_obs::FlightConfig {
            capacity: flight_slots,
            ..Default::default()
        };
        telemetry = telemetry.flight(flight_cfg, Some(dir.into()));
        armed = true;
    }
    if armed {
        engine.arm(telemetry);
    }
    let result = engine.run(scheduler.as_ref(), policy);
    writeln!(
        out,
        "{} over {} slots ({} policy):\n  links:   {} arrived, {} departed, mean population {:.1} (final {})\n  packets: {} arrived, {} delivered, {} abandoned, {} still queued\n  backlog: mean {:.1}, max {}\n  engine:  {:.0} slots/sec sustained",
        scheduler.name(),
        result.slots,
        match policy {
            fading_sim::ServicePolicy::MaxWeight => "maxweight",
            fading_sim::ServicePolicy::PlainRates => "plain",
        },
        result.links_arrived,
        result.links_departed,
        result.mean_population,
        result.final_population,
        result.packets_arrived,
        result.packets_delivered,
        result.packets_abandoned,
        result.final_backlog,
        result.mean_backlog,
        result.max_backlog,
        result.slots_per_sec
    )
    .map_err(|e| e.to_string())?;
    if !result.conserves_packets() {
        return Err("internal error: packet conservation violated".into());
    }
    if let Some(tel) = engine.take_telemetry() {
        if let Some(path) = series_out {
            let recorded = tel.series().map_or(0, |s| s.recorded());
            effects.artifacts.push(("series".into(), path.into()));
            writeln!(out, "wrote {recorded} slot records to {path}").map_err(|e| e.to_string())?;
        }
        if tel.health() != "ok" {
            writeln!(out, "  health:  anomaly `{}` fired", tel.health())
                .map_err(|e| e.to_string())?;
        }
        if let Some(dir) = tel.postmortem() {
            for name in [
                "postmortem.json",
                "flight_trace.jsonl",
                "replay_trace.jsonl",
                "replay_instance.json",
                "replay_meta.json",
            ] {
                let p = dir.join(name);
                if p.exists() {
                    effects.artifacts.push(("postmortem".into(), p));
                }
            }
            writeln!(out, "  post-mortem bundle at {}", dir.display())
                .map_err(|e| e.to_string())?;
        }
    }
    if let Some(path) = args.get("out") {
        let json = serde_json::to_string_pretty(&result).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        effects.artifacts.push(("churn".into(), path.into()));
        writeln!(out, "wrote churn result to {path}").map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn render(args: &Args, out: &mut dyn std::io::Write) -> Result<(), String> {
    let links = load_instance(args)?;
    let schedule: Option<Schedule> = match args.get("schedule") {
        None => None,
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            Some(serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))?)
        }
    };
    let options = fading_viz::RenderOptions {
        width_px: args.get_or("width", 800.0)?,
        grid_cell: match args.get("grid-cell") {
            None => None,
            Some(v) => Some(
                v.parse()
                    .map_err(|_| format!("--grid-cell: bad value {v}"))?,
            ),
        },
        deletion_radius_factor: match args.get("disks") {
            None => None,
            Some(v) => Some(v.parse().map_err(|_| format!("--disks: bad value {v}"))?),
        },
    };
    let svg = fading_viz::render_instance(&links, schedule.as_ref(), &options);
    let path = args.require("out")?;
    std::fs::write(path, svg).map_err(|e| format!("cannot write {path}: {e}"))?;
    writeln!(out, "rendered {} links to {path}", links.len()).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn run_line(line: &str) -> Result<String, String> {
        run_code(line).map(|(_, out)| out)
    }

    /// Like [`run_line`] but also returns the success exit code.
    fn run_code(line: &str) -> Result<(i32, String), String> {
        let args = parse(line.split_whitespace().map(String::from))?;
        let mut buf = Vec::new();
        let code = run(&args, &mut buf)?;
        Ok((code, String::from_utf8(buf).unwrap()))
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("fading_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn full_pipeline_generate_stats_schedule_simulate() {
        let inst = tmp("pipeline.json");
        let sched = tmp("pipeline_schedule.json");
        let out = run_line(&format!("generate --n 60 --seed 3 --out {inst}")).unwrap();
        assert!(out.contains("wrote 60 links"));

        let out = run_line(&format!("stats --instance {inst}")).unwrap();
        assert!(out.contains("links:             60"));
        assert!(out.contains("length diversity"));

        let out = run_line(&format!(
            "schedule --instance {inst} --algo rle --out {sched}"
        ))
        .unwrap();
        assert!(out.contains("RLE: scheduled"));
        assert!(out.contains("fading-feasible: true"));

        let out = run_line(&format!(
            "simulate --instance {inst} --schedule {sched} --trials 200"
        ))
        .unwrap();
        assert!(out.contains("failed/slot"));
    }

    #[test]
    fn churn_runs_a_streaming_horizon() {
        let json = tmp("churn_result.json");
        let out = run_line(&format!(
            "churn --n 25 --slots 30 --algo greedy --seed 7 --out {json}"
        ))
        .unwrap();
        assert!(out.contains("over 30 slots (maxweight policy)"));
        assert!(out.contains("slots/sec sustained"));
        assert!(out.contains(&format!("wrote churn result to {json}")));
        let text = std::fs::read_to_string(&json).unwrap();
        assert!(text.contains("\"slots\": 30"));
        assert!(text.contains("\"slots_per_sec\""));

        // Same seed, same run — everything but wall-clock slots/sec
        // (the last summary line) is deterministic.
        let again = run_line("churn --n 25 --slots 30 --algo greedy --seed 7").unwrap();
        let summary = out.lines().take(4).collect::<Vec<_>>().join("\n");
        assert!(again.starts_with(&summary));
    }

    #[test]
    fn churn_frontier_sweeps_packet_load() {
        let out =
            run_line("churn --n 20 --slots 25 --frontier 0.05,0.8 --seed 1 --interference sparse")
                .unwrap();
        assert!(out.contains("packet-prob"));
        assert!(out.contains("0.050"));
        assert!(out.contains("0.800"));
    }

    #[test]
    fn churn_rejects_bad_knobs() {
        assert!(run_line("churn --policy bogus").is_err());
        assert!(run_line("churn --lifetime 0.2").is_err());
        assert!(run_line("churn --packet-prob 1.5").is_err());
        assert!(run_line("churn --frontier 0.1,oops").is_err());
        assert!(run_line("churn --what 3").is_err());
        // Telemetry knobs validate too.
        assert!(run_line("churn --series-cadence 0").is_err());
        assert!(run_line("churn --flight-slots 0").is_err());
        let err = run_line("churn --frontier 0.1 --series-out s.jsonl").unwrap_err();
        assert!(err.contains("--frontier"), "{err}");
        // Geometry the generator cannot honour is a message, not a
        // panic or an endless placement loop.
        for knobs in BAD_GEOMETRY {
            let err = geometry_error(&format!("churn --n 5 --slots 2 {knobs}"));
            assert!(
                err.contains("--side") || err.contains("--len-lo"),
                "{knobs}: {err}"
            );
        }
        for knobs in ["--len-lo 0", "--side 0", "--len-lo 30 --len-hi 20"] {
            assert!(run_line(&format!("churn --n 5 --slots 2 {knobs}")).is_err());
        }
    }

    /// `--side/--len-lo/--len-hi` values the geometry helper rejects.
    const BAD_GEOMETRY: [&str; 9] = [
        "--len-lo 0",
        "--len-lo -1",
        "--side 0",
        "--side nan",
        "--side -5",
        "--side inf",
        "--len-hi inf",
        "--len-lo nan",
        "--len-lo 30 --len-hi 20",
    ];

    /// The geometry helper's verdict on a command line, called directly
    /// so a regression fails here instead of hanging in the generator.
    fn geometry_error(line: &str) -> String {
        let args = parse(line.split_whitespace().map(String::from)).unwrap();
        uniform_geometry(&args, 5, RateModel::Fixed(1.0)).unwrap_err()
    }

    #[test]
    fn generate_rejects_bad_knobs() {
        let inst = tmp("bad_knobs.json");
        for knobs in BAD_GEOMETRY {
            geometry_error(&format!("generate --n 5 --out {inst} {knobs}"));
        }
        for knobs in ["--len-lo 0", "--side nan", "--rate 0", "--rate inf"] {
            let err = run_line(&format!("generate --n 5 --out {inst} {knobs}")).unwrap_err();
            assert!(err.contains("must be"), "{knobs}: {err}");
        }
        assert!(uniform_geometry(
            &parse(["generate".to_string()]).unwrap(),
            5,
            RateModel::Fixed(1.0)
        )
        .is_ok());
        // A valid side too small to hold five distinct links is a
        // message, not an endless placement loop.
        for cmd in ["generate --n 5 --out {inst}", "churn --n 5 --slots 1"] {
            let line = format!("{} --side 5e-324", cmd.replace("{inst}", &inst));
            let err = run_line(&line).unwrap_err();
            assert!(err.contains("cannot place 5 links"), "{line}: {err}");
        }
    }

    #[test]
    fn churn_series_stream_is_byte_identical_across_reruns() {
        // Acceptance: the deterministic series is byte-stable at a
        // fixed seed; --series-timings opts into the measured fields.
        let s1 = tmp("churn_series_a.jsonl");
        let s2 = tmp("churn_series_b.jsonl");
        for s in [&s1, &s2] {
            let out = run_line(&format!(
                "churn --n 25 --slots 40 --seed 5 --series-out {s}"
            ))
            .unwrap();
            assert!(
                out.contains(&format!("wrote 40 slot records to {s}")),
                "{out}"
            );
        }
        let a = std::fs::read(&s1).unwrap();
        assert_eq!(a, std::fs::read(&s2).unwrap(), "series bytes diverged");
        let text = String::from_utf8(a).unwrap();
        assert_eq!(text.lines().count(), 40);
        assert!(!text.contains("_ns"), "det mode must omit timings");
        assert!(text.lines().all(|l| l.starts_with("{\"slot\":")));

        let s3 = tmp("churn_series_timed.jsonl");
        run_line(&format!(
            "churn --n 25 --slots 40 --seed 5 --series-timings --series-out {s3} --series-cadence 4"
        ))
        .unwrap();
        let timed = std::fs::read_to_string(&s3).unwrap();
        assert_eq!(timed.lines().count(), 10, "cadence 4 over 40 slots");
        assert!(timed.contains("\"slot_ns\":"));
    }

    #[test]
    fn churn_flight_out_stays_quiet_without_an_anomaly() {
        let dir = std::env::temp_dir().join("fading_cli_flight_quiet");
        let _ = std::fs::remove_dir_all(&dir);
        let out = run_line(&format!(
            "churn --n 20 --slots 30 --seed 3 --flight-out {}",
            dir.display()
        ))
        .unwrap();
        assert!(!out.contains("post-mortem"), "{out}");
        assert!(!dir.join("postmortem.json").exists());
    }

    #[test]
    fn churn_overload_dumps_a_postmortem_bundle_into_the_manifest() {
        // Every link draws a packet every slot: backlog grows strictly
        // and the queue-growth detector fires within the horizon.
        let dir = std::env::temp_dir().join("fading_cli_flight_fire");
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = tmp("churn_flight_manifest.json");
        let out = run_line(&format!(
            "churn --n 25 --slots 150 --seed 2 --packet-prob 1.0 --lifetime 80 \
             --flight-out {} --metrics-out {manifest}",
            dir.display()
        ))
        .unwrap();
        assert!(out.contains("anomaly `queue_growth` fired"), "{out}");
        assert!(out.contains("post-mortem bundle at"), "{out}");
        for name in [
            "postmortem.json",
            "flight_trace.jsonl",
            "replay_trace.jsonl",
        ] {
            assert!(dir.join(name).exists(), "missing {name}");
        }
        let m: fading_obs::RunManifest =
            serde_json::from_str(&std::fs::read_to_string(&manifest).unwrap()).unwrap();
        let bundle: Vec<_> = m
            .artifacts
            .iter()
            .filter(|a| a.kind == "postmortem")
            .collect();
        assert!(bundle.len() >= 3, "bundle files hashed into the manifest");
        assert!(bundle.iter().all(|a| a.sha256.len() == 64));
    }

    #[test]
    fn churn_flight_out_and_trace_out_run_together() {
        // The flight recorder captures on the stepping thread only, so
        // a global --trace-out in the same run still gets every slot
        // and the bundle's replay half still replays.
        let dir = std::env::temp_dir().join("fading_cli_flight_traced");
        let _ = std::fs::remove_dir_all(&dir);
        let trace = tmp("churn_flight_traced.jsonl");
        let out = run_line(&format!(
            "churn --n 25 --slots 150 --seed 2 --packet-prob 1.0 --lifetime 80 \
             --alpha 3 --eps 0.01 --flight-out {} --trace-out {trace}",
            dir.display()
        ))
        .unwrap();
        assert!(out.contains("post-mortem bundle at"), "{out}");
        let written =
            fading_obs::Trace::from_jsonl(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        assert!(written
            .events
            .iter()
            .any(|e| matches!(e, fading_obs::TraceEvent::SlotStart { .. })));
        let replay = fading_obs::Trace::from_jsonl(
            &std::fs::read_to_string(dir.join("replay_trace.jsonl")).unwrap(),
        )
        .unwrap();
        let links = fading_net::io::load(&dir.join("replay_instance.json")).unwrap();
        let problem =
            fading_core::Problem::builder(links, fading_channel::ChannelParams::with_alpha(3.0))
                .epsilon(0.01)
                .build();
        let certs = fading_core::certify::replay_trace(&problem, &replay)
            .expect("the bundle's trace replays on its instance");
        assert!(!certs.is_empty());
    }

    #[test]
    fn prom_out_renders_the_metrics_snapshot() {
        let prom = tmp("churn_prom.prom");
        let series = tmp("churn_prom_series.jsonl");
        let manifest = tmp("churn_prom_manifest.json");
        run_line(&format!(
            "churn --n 20 --slots 20 --seed 4 --series-out {series} \
             --prom-out {prom} --metrics-out {manifest} --watch --quiet"
        ))
        .unwrap();
        let text = std::fs::read_to_string(&prom).unwrap();
        assert!(text.contains("# TYPE"), "{text}");
        // The armed run registered the phase histograms globally.
        assert!(text.contains("churn_slot_ns"), "{text}");
        let body = std::fs::read_to_string(&manifest).unwrap();
        let m: fading_obs::RunManifest = serde_json::from_str(&body).unwrap();
        assert!(m.artifacts.iter().any(|a| a.kind == "series"));
        assert!(m.artifacts.iter().any(|a| a.kind == "prometheus"));
        // Satellite: derived quantiles ride along in the manifest.
        assert!(body.contains("\"p50\""), "quantiles missing from manifest");
    }

    #[test]
    fn every_algorithm_name_resolves() {
        for name in [
            "ldp",
            "ldp-two-sided",
            "rle",
            "dls",
            "greedy",
            "random",
            "exact",
            "anneal",
            "approx-logn",
            "approx-diversity",
        ] {
            assert!(scheduler_by_name(name).is_ok(), "{name}");
        }
        assert!(scheduler_by_name("nope").is_err());
    }

    #[test]
    fn sparse_backend_schedules_identically_to_dense() {
        let inst = tmp("backend.json");
        run_line(&format!("generate --n 80 --seed 11 --out {inst}")).unwrap();
        let dense = run_line(&format!("schedule --instance {inst} --algo rle")).unwrap();
        let sparse = run_line(&format!(
            "schedule --instance {inst} --algo rle --interference sparse"
        ))
        .unwrap();
        let auto = run_line(&format!(
            "schedule --instance {inst} --algo rle --interference auto"
        ))
        .unwrap();
        assert_eq!(dense, sparse);
        assert_eq!(dense, auto);
        assert!(dense.contains("fading-feasible: true"));
    }

    #[test]
    fn backend_flag_errors_are_clean() {
        let inst = tmp("backend_err.json");
        run_line(&format!("generate --n 5 --out {inst}")).unwrap();
        let err = run_line(&format!(
            "schedule --instance {inst} --algo rle --interference csr"
        ))
        .unwrap_err();
        assert!(err.contains("unknown interference backend"), "{err}");
        let err = run_line(&format!(
            "schedule --instance {inst} --algo rle --tail-rtol 1e-4"
        ))
        .unwrap_err();
        assert!(err.contains("--interference sparse"), "{err}");
        let err = run_line(&format!(
            "schedule --instance {inst} --algo rle --interference sparse --tail-rtol 2"
        ))
        .unwrap_err();
        assert!(err.contains("--tail-rtol"), "{err}");
    }

    #[test]
    fn unknown_subcommand_shows_usage() {
        let err = run_line("frobnicate").unwrap_err();
        assert!(err.contains("unknown subcommand"));
        assert!(err.contains("USAGE"));
    }

    #[test]
    fn schedule_rejects_bad_alpha() {
        let inst = tmp("bad_alpha.json");
        run_line(&format!("generate --n 5 --out {inst}")).unwrap();
        let err = run_line(&format!(
            "schedule --instance {inst} --algo rle --alpha 1.5"
        ))
        .unwrap_err();
        assert!(err.contains("--alpha"));
    }

    #[test]
    fn simulate_rejects_mismatched_schedule() {
        let inst_big = tmp("mismatch_big.json");
        let inst_small = tmp("mismatch_small.json");
        let sched = tmp("mismatch_schedule.json");
        run_line(&format!("generate --n 50 --out {inst_big}")).unwrap();
        run_line(&format!("generate --n 3 --out {inst_small}")).unwrap();
        run_line(&format!(
            "schedule --instance {inst_big} --algo greedy --out {sched}"
        ))
        .unwrap();
        let err = run_line(&format!(
            "simulate --instance {inst_small} --schedule {sched}"
        ))
        .unwrap_err();
        assert!(err.contains("nonexistent link"), "{err}");
    }

    #[test]
    fn missing_instance_file_is_a_clean_error() {
        let err = run_line("stats --instance /nonexistent/inst.json").unwrap_err();
        assert!(err.contains("cannot read"));
    }

    #[test]
    fn multislot_drains_everything() {
        let inst = tmp("multislot.json");
        run_line(&format!("generate --n 25 --out {inst}")).unwrap();
        let out = run_line(&format!("multislot --instance {inst} --algo greedy")).unwrap();
        assert!(out.contains("25 links drained"));
        assert!(out.contains("clique lower bound"));
        // Every link id appears exactly once across slots.
        let mut count = 0;
        for line in out.lines().filter(|l| l.trim_start().starts_with("slot")) {
            count += line.split_whitespace().skip(2).count();
        }
        assert_eq!(count, 25);
    }

    #[test]
    fn capacity_reports_per_link_numbers() {
        let inst = tmp("capacity.json");
        let sched = tmp("capacity_schedule.json");
        run_line(&format!("generate --n 40 --out {inst}")).unwrap();
        run_line(&format!(
            "schedule --instance {inst} --algo rle --out {sched}"
        ))
        .unwrap();
        let out = run_line(&format!("capacity --instance {inst} --schedule {sched}")).unwrap();
        assert!(out.contains("ergodic"));
        assert!(out.contains("total ergodic Shannon throughput"));
    }

    #[test]
    fn render_writes_svg() {
        let inst = tmp("render.json");
        let sched = tmp("render_schedule.json");
        let svg = tmp("render.svg");
        run_line(&format!("generate --n 30 --out {inst}")).unwrap();
        run_line(&format!(
            "schedule --instance {inst} --algo rle --out {sched}"
        ))
        .unwrap();
        let out = run_line(&format!(
            "render --instance {inst} --schedule {sched} --out {svg} --grid-cell 125 --disks 5"
        ))
        .unwrap();
        assert!(out.contains("rendered 30 links"));
        let body = std::fs::read_to_string(&svg).unwrap();
        assert!(body.starts_with("<svg"));
        assert!(body.contains("<line"));
    }

    #[test]
    fn help_prints_usage() {
        let out = run_line("help").unwrap();
        assert!(out.contains("USAGE"));
        assert!(out.contains("approx-diversity"));
        assert!(out.contains("bench-report"));
        assert!(out.contains("--check"));
    }

    #[test]
    fn unknown_flag_is_rejected_per_subcommand() {
        let err = run_line("generate --n 10 --trails 5").unwrap_err();
        assert!(err.contains("unknown option --trails"), "{err}");
        assert!(err.contains("generate"), "{err}");
        // `trials` is valid for simulate but not for schedule.
        let err = run_line("schedule --instance x --trials 10").unwrap_err();
        assert!(err.contains("unknown option --trials"), "{err}");
    }

    #[test]
    fn global_flags_are_accepted_everywhere() {
        let inst = tmp("globals.json");
        run_line(&format!("generate --n 10 --out {inst} --quiet")).unwrap();
        run_line(&format!("stats --instance {inst} --quiet")).unwrap();
    }

    #[test]
    fn metrics_out_writes_a_parseable_manifest() {
        let inst = tmp("manifest_inst.json");
        let sched = tmp("manifest_schedule.json");
        let manifest = tmp("manifest.json");
        run_line(&format!("generate --n 20 --seed 9 --out {inst}")).unwrap();
        run_line(&format!(
            "schedule --instance {inst} --algo rle --out {sched}"
        ))
        .unwrap();
        let out = run_line(&format!(
            "simulate --instance {inst} --schedule {sched} --trials 64 --seed 9 --metrics-out {manifest}"
        ))
        .unwrap();
        assert!(out.contains("wrote metrics manifest"), "{out}");
        let body = std::fs::read_to_string(&manifest).unwrap();
        let m: fading_obs::RunManifest = serde_json::from_str(&body).unwrap();
        assert_eq!(m.name, "simulate");
        assert_eq!(m.seed, 9);
        assert_eq!(m.config.get("trials").map(String::as_str), Some("64"));
        // The Monte-Carlo loop ran, so its trial counter must be ≥ 64
        // (other tests on the shared registry may add more).
        assert!(*m.metrics.counters.get("sim.mc.trials").unwrap_or(&0) >= 64);
    }

    /// A synthetic two-metric ledger entry for the `--check` tests.
    fn synthetic_report(rle_ns: f64) -> fading_bench::schema::BenchReport {
        use fading_bench::schema::{BenchReport, MetricKind, MetricRecord};
        let rec = |id: &str, value: f64| MetricRecord {
            id: id.to_string(),
            kind: MetricKind::NsPerOp,
            value,
            ci95: value * 0.01,
            samples: 7,
            lower_is_better: true,
        };
        BenchReport::new(
            "2026-08-08".into(),
            vec![
                rec("schedule/rle/1000", rle_ns),
                rec("schedule/ldp/1000", 5_000.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn bench_report_check_flags_a_doctored_regression_naming_bench_and_threshold() {
        let baseline_path = tmp("bench_baseline.json");
        let current_path = tmp("bench_current.json");
        // Doctored history: the baseline ran `schedule/rle/1000` 2×
        // faster than the current report claims.
        synthetic_report(1_000.0)
            .write(std::path::Path::new(&baseline_path))
            .unwrap();
        synthetic_report(2_000.0)
            .write(std::path::Path::new(&current_path))
            .unwrap();
        let err = run_line(&format!(
            "bench-report --from {current_path} --baseline {baseline_path} --check"
        ))
        .unwrap_err();
        assert!(err.contains("schedule/rle/1000"), "{err}");
        assert!(err.contains("threshold 30%"), "{err}");
        assert!(err.contains(&baseline_path), "{err}");
    }

    #[test]
    fn bench_report_check_is_clean_on_identical_history() {
        let baseline_path = tmp("bench_clean_baseline.json");
        let current_path = tmp("bench_clean_current.json");
        synthetic_report(1_000.0)
            .write(std::path::Path::new(&baseline_path))
            .unwrap();
        synthetic_report(1_010.0)
            .write(std::path::Path::new(&current_path))
            .unwrap();
        let (code, out) = run_code(&format!(
            "bench-report --from {current_path} --baseline {baseline_path} --check"
        ))
        .unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("clean"), "{out}");
    }

    #[test]
    fn bench_report_check_downgrades_regressions_on_fingerprint_mismatch() {
        let baseline_path = tmp("bench_fp_baseline.json");
        let current_path = tmp("bench_fp_current.json");
        let mut baseline = synthetic_report(1_000.0);
        baseline.fingerprint.cpu_model = "some other machine".into();
        baseline
            .write(std::path::Path::new(&baseline_path))
            .unwrap();
        synthetic_report(2_000.0)
            .write(std::path::Path::new(&current_path))
            .unwrap();
        let (code, out) = run_code(&format!(
            "bench-report --from {current_path} --baseline {baseline_path} --check"
        ))
        .unwrap();
        assert_eq!(code, 2);
        assert!(out.contains("fingerprint mismatch"), "{out}");
        assert!(out.contains("warning"), "{out}");
        assert!(out.contains("schedule/rle/1000"), "{out}");
    }

    #[test]
    fn bench_report_check_enforces_absolute_ceilings_across_fingerprints() {
        let baseline_path = tmp("bench_max_baseline.json");
        let current_path = tmp("bench_max_current.json");
        let gates_path = tmp("bench_max_gates.toml");
        let mut baseline = synthetic_report(1_000.0);
        baseline.fingerprint.cpu_model = "some other machine".into();
        baseline
            .write(std::path::Path::new(&baseline_path))
            .unwrap();
        synthetic_report(1_000.0)
            .write(std::path::Path::new(&current_path))
            .unwrap();
        std::fs::write(&gates_path, "[max]\n\"schedule/ldp/1000\" = 10.0\n").unwrap();
        let err = run_line(&format!(
            "bench-report --from {current_path} --baseline {baseline_path} \
             --gates {gates_path} --check"
        ))
        .unwrap_err();
        assert!(err.contains("schedule/ldp/1000"), "{err}");
        assert!(err.contains("ceiling"), "{err}");
    }

    #[test]
    fn bench_report_writes_a_real_ledger_entry_for_a_filtered_run() {
        let dir = std::env::temp_dir().join("fading_bench_report_emit");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out_path = dir.join("BENCH_out.json");
        let manifest = dir.join("manifest.json");
        // A single cheap bench keeps this a plumbing test, not a perf
        // run; debug timings are irrelevant.
        let (code, out) = run_code(&format!(
            "bench-report --filter schedule/greedy/300 --quick --out {} --metrics-out {}",
            out_path.display(),
            manifest.display()
        ))
        .unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("wrote 1 metrics"), "{out}");
        let report =
            fading_bench::schema::BenchReport::load(&out_path).expect("emitted report parses");
        assert_eq!(
            report.schema_version,
            fading_bench::schema::BENCH_SCHEMA_VERSION
        );
        assert_eq!(report.metrics.len(), 1);
        assert_eq!(report.metrics[0].id, "schedule/greedy/300");
        assert!(report.metrics[0].value > 0.0);
        // The ledger entry lands in the manifest's artifacts, hashed.
        let m: fading_obs::RunManifest =
            serde_json::from_str(&std::fs::read_to_string(&manifest).unwrap()).unwrap();
        let artifact = m
            .artifacts
            .iter()
            .find(|a| a.kind == "bench-report")
            .expect("bench-report artifact recorded");
        assert_eq!(artifact.sha256.len(), 64);
    }

    #[test]
    fn bench_report_check_survives_a_same_day_committed_baseline() {
        let dir = std::env::temp_dir().join("fading_bench_report_sameday");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // The newest (and only) committed entry bears today's date —
        // the merge-day seed state that used to make --check error
        // with "no committed BENCH_*.json found" (the default out
        // path collided with it and was excluded from the search).
        let committed = dir.join(format!("BENCH_{}.json", fading_bench::schema::today_utc()));
        synthetic_report(1_000.0).write(&committed).unwrap();
        let before = std::fs::read_to_string(&committed).unwrap();
        // The filtered run shares no metric ids with the baseline, so
        // the diff is all added/removed rows — verdict clean.
        let (code, out) = run_code(&format!(
            "bench-report --quick --filter schedule/greedy/300 --check --dir {}",
            dir.display()
        ))
        .unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("clean"), "{out}");
        // The committed entry served as the baseline and is untouched;
        // the fresh numbers landed outside the ledger scan.
        assert_eq!(std::fs::read_to_string(&committed).unwrap(), before);
        assert!(dir.join("target").join("BENCH_current.json").exists());
    }

    #[test]
    fn bench_report_check_never_diffs_a_report_against_itself() {
        let dir = std::env::temp_dir().join("fading_bench_report_selfdiff");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let committed = dir.join("BENCH_2026-01-01.json");
        synthetic_report(1_000.0).write(&committed).unwrap();
        // Spell the --from path differently from how the dir scan
        // finds it (`..` survives raw `Path` comparison); the
        // canonical-path exclusion must still recognize the sole
        // committed entry as the report under check instead of
        // reporting a trivially clean self-diff.
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        let alias = dir.join("sub").join("..").join("BENCH_2026-01-01.json");
        let err = run_line(&format!(
            "bench-report --from {} --check --dir {}",
            alias.display(),
            dir.display()
        ))
        .unwrap_err();
        assert!(err.contains("no committed BENCH_"), "{err}");
        assert!(err.contains("other than the report under check"), "{err}");
    }

    #[test]
    fn bench_report_check_without_baseline_names_the_search_dir() {
        let dir = std::env::temp_dir().join("fading_bench_report_nobase");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let current_path = tmp("bench_nobase_current.json");
        synthetic_report(1.0)
            .write(std::path::Path::new(&current_path))
            .unwrap();
        let err = run_line(&format!(
            "bench-report --from {current_path} --check --dir {}",
            dir.display()
        ))
        .unwrap_err();
        assert!(err.contains("no committed BENCH_"), "{err}");
        assert!(err.contains("fading_bench_report_nobase"), "{err}");
    }

    #[test]
    fn quiet_suppresses_manifest_chatter() {
        let inst = tmp("quiet_inst.json");
        let manifest = tmp("quiet_manifest.json");
        run_line(&format!("generate --n 10 --out {inst}")).unwrap();
        let out = run_line(&format!(
            "stats --instance {inst} --metrics-out {manifest} --quiet"
        ))
        .unwrap();
        assert!(!out.contains("wrote metrics manifest"), "{out}");
        assert!(std::path::Path::new(&manifest).exists());
    }
}
