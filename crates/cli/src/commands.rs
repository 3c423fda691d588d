//! The CLI subcommands, separated from `main` for testability.

use fading_bench::flags::Args;
use fading_core::{BackendChoice, FeasibilityReport, Problem, Schedule, Scheduler};
use fading_net::{instance_stats, io, RateModel, UniformGenerator};
use fading_sim::simulate_many;
use std::io::Write;
use std::path::Path;

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

/// A subcommand's body: reads its flags, writes its output to `out`,
/// and reports its side effects.
pub type Run = fn(&Args, &mut dyn Write, &mut CmdEffects) -> Result<(), String>;

/// Runs a parsed command, writing human output to `out`.
///
/// `--help` (and the `help` command) prints the help. Every subcommand
/// also honors the observability flags: progress, the decision trace,
/// the Prometheus snapshot and the run manifest, written after a
/// successful run.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<i32, String> {
    let Some(cmd) = crate::args::command(&args.command).filter(|_| !args.help) else {
        write!(out, "{}", crate::args::help(&args.command)).map_err(|e| e.to_string())?;
        return Ok(0);
    };
    let started = std::time::Instant::now();
    args.arm();
    let mut effects = CmdEffects::default();
    if let Err(e) = (cmd.run)(args, out, &mut effects) {
        args.disarm();
        return Err(e);
    }
    let seed = if args.declares("seed") {
        args.value("seed")?
    } else {
        0
    };
    args.finish(&args.command, started, seed, &effects.artifacts, out)?;
    Ok(effects.exit_code)
}

pub(crate) fn load_instance(path: &str) -> Result<fading_net::LinkSet, String> {
    io::load(Path::new(path)).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Reads the schedule JSON at `path`, rejecting ids outside the
/// instance's `0..links`.
pub(crate) fn load_schedule(path: &str, links: usize) -> Result<Schedule, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let schedule: Schedule =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
    if let Some(bad) = schedule.iter().find(|id| id.index() >= links) {
        return Err(format!(
            "{path}: schedule references nonexistent link {bad}"
        ));
    }
    Ok(schedule)
}

pub(crate) fn build_problem(args: &Args, links: fading_net::LinkSet) -> Result<Problem, String> {
    let params = fading_channel::ChannelParams::with_alpha(args.value("alpha")?);
    Ok(Problem::builder(links, params)
        .epsilon(args.value("eps")?)
        .backend(parse_backend(args)?)
        .build())
}

/// Resolves `--interference` / `--tail-rtol` to a [`BackendChoice`].
fn parse_backend(args: &Args) -> Result<BackendChoice, String> {
    let mut backend = BackendChoice::parse(args.require("interference")?)?;
    if let Some(tail_rtol) = args.opt("tail-rtol")? {
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
/// from `--side/--len-lo/--len-hi` (each range-checked by the table),
/// rejected with a message unless `len-lo <= len-hi < inf` — anything
/// else panics in the generator or never finishes placing links.
fn uniform_geometry(args: &Args, n: usize, rates: RateModel) -> Result<UniformGenerator, String> {
    let len_lo: f64 = args.value("len-lo")?;
    let len_hi: f64 = args.value("len-hi")?;
    if !(len_lo <= len_hi && len_hi.is_finite()) {
        return Err(format!(
            "--len-lo and --len-hi must be finite with 0 < len-lo <= len-hi, got {len_lo} and {len_hi}"
        ));
    }
    Ok(UniformGenerator {
        side: args.value("side")?,
        n,
        len_lo,
        len_hi,
        rates,
    })
}

pub(crate) fn generate(args: &Args, out: &mut dyn Write, _: &mut CmdEffects) -> Result<(), String> {
    let rate = RateModel::Fixed(args.value("rate")?);
    let gen = uniform_geometry(args, args.value("n")?, rate)?;
    let links = gen
        .try_generate(args.value("seed")?)
        .map_err(|e| e.to_string())?;
    let path = args.require("out")?;
    io::save(&links, Path::new(path)).map_err(|e| format!("cannot write {path}: {e}"))?;
    outln!(out, "wrote {} links to {path}", links.len())
}

pub(crate) fn stats(args: &Args, out: &mut dyn Write, _: &mut CmdEffects) -> Result<(), String> {
    let links = load_instance(args.require("instance")?)?;
    if links.is_empty() {
        return Err("instance is empty".into());
    }
    let s = instance_stats(&links);
    outln!(out, "links:             {}\ndensity:           {:.6} links/unit²\nlengths:           {:.2} .. {:.2} (mean {:.2})\nlength diversity:  g(L) = {}\nnearest sender:    {:.2} (mean)\ndistance spread Δ: {:.1}",
        s.n, s.density, s.min_length, s.max_length, s.mean_length, s.diversity,
        s.mean_nearest_sender, s.distance_spread)
}

pub(crate) fn schedule(args: &Args, out: &mut dyn Write, _: &mut CmdEffects) -> Result<(), String> {
    let links = load_instance(args.require("instance")?)?;
    let problem = build_problem(args, links)?;
    let scheduler = scheduler_by_name(args.require("algo")?)?;
    let schedule = scheduler.schedule(&problem);
    let report = FeasibilityReport::evaluate(&problem, &schedule);
    outln!(
        out,
        "{}: scheduled {} of {} links (rate {:.2}), fading-feasible: {}",
        scheduler.name(),
        schedule.len(),
        problem.len(),
        schedule.utility(&problem),
        report.is_feasible()
    )?;
    if let Some(path) = args.get("out") {
        let json = serde_json::to_string_pretty(&schedule).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        outln!(out, "wrote schedule to {path}")?;
    }
    Ok(())
}

pub(crate) fn simulate(args: &Args, out: &mut dyn Write, _: &mut CmdEffects) -> Result<(), String> {
    let links = load_instance(args.require("instance")?)?;
    let problem = build_problem(args, links)?;
    let schedule = load_schedule(args.require("schedule")?, problem.len())?;
    let trials: u64 = args.value("trials")?;
    let stats = simulate_many(&problem, &schedule, trials, args.value("seed")?);
    outln!(out, "{} links over {trials} Rayleigh slots:\n  failed/slot:     {:.4} ± {:.4}\n  throughput/slot: {:.3} ± {:.3}\n  budget (ε·|S|):  {:.3}",
        schedule.len(),
        stats.failed.mean,
        stats.failed.ci95,
        stats.throughput.mean,
        stats.throughput.ci95,
        problem.epsilon() * schedule.len() as f64)
}

pub(crate) fn multislot(
    args: &Args,
    out: &mut dyn Write,
    _: &mut CmdEffects,
) -> Result<(), String> {
    let links = load_instance(args.require("instance")?)?;
    let problem = build_problem(args, links)?;
    let scheduler = scheduler_by_name(args.require("algo")?)?;
    let plan = fading_core::multislot::schedule_all(&problem, scheduler.as_ref());
    let bound = fading_core::multislot::conflict_clique_lower_bound(&problem);
    outln!(
        out,
        "{}: {} links drained in {} slots (clique lower bound {bound})",
        scheduler.name(),
        problem.len(),
        plan.num_slots()
    )?;
    for (i, slot) in plan.slots().iter().enumerate() {
        let ids: Vec<String> = slot.iter().map(|id| id.to_string()).collect();
        outln!(out, "  slot {:>3}: {}", i + 1, ids.join(" "))?;
    }
    Ok(())
}

pub(crate) fn capacity(args: &Args, out: &mut dyn Write, _: &mut CmdEffects) -> Result<(), String> {
    let links = load_instance(args.require("instance")?)?;
    let problem = build_problem(args, links)?;
    let schedule = load_schedule(args.require("schedule")?, problem.len())?;
    outln!(
        out,
        "{:<8} {:>10} {:>16} {:>18}",
        "link",
        "success",
        "E[fail]/slot",
        "ergodic bit/s/Hz"
    )?;
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
        outln!(
            out,
            "{:<8} {:>10.5} {:>16.5} {:>18.2}",
            j.to_string(),
            success,
            1.0 - success,
            cap
        )?;
    }
    outln!(
        out,
        "total ergodic Shannon throughput: {total_cap:.2} bit/s/Hz"
    )
}

/// Streaming churn run: links arrive (Poisson) and depart (exponential
/// lifetimes) while the engine patches the live [`Problem`] in place
/// and schedules every slot. With `--frontier p1,p2,...` it sweeps the
/// packet arrival probability instead and prints the backlog-vs-load
/// stability table.
pub(crate) fn churn(
    args: &Args,
    out: &mut dyn Write,
    effects: &mut CmdEffects,
) -> Result<(), String> {
    let geometry = uniform_geometry(args, args.value("n")?, RateModel::Fixed(1.0))?;
    let seed: u64 = args.value("seed")?;
    let links = geometry.try_generate(seed).map_err(|e| e.to_string())?;
    let problem = build_problem(args, links)?;
    let scheduler = scheduler_by_name(args.require("algo")?)?;
    let policy = match args.require("policy")? {
        "plain" => fading_sim::ServicePolicy::PlainRates,
        _ => fading_sim::ServicePolicy::MaxWeight,
    };
    let cfg = fading_sim::ChurnConfig {
        slots: args.value("slots")?,
        link_arrival_rate: args.value("link-rate")?,
        mean_lifetime: args.value("lifetime")?,
        packet_prob: args.value("packet-prob")?,
        seed,
    };
    let series_out = args.get("series-out");
    let flight_out = args.get("flight-out");
    let watch = args.flag("watch");
    // Knobs of an output that is not being written would be silently
    // ignored; refuse them instead.
    for (knob, output, given) in [
        ("series-timings", "series-out", series_out),
        ("series-cadence", "series-out", series_out),
        ("flight-slots", "flight-out", flight_out),
    ] {
        if args.given(knob) && given.is_none() {
            return Err(format!("--{knob} only applies with --{output}"));
        }
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
        let probs = crate::args::parse_frontier(list)?;
        let frontier = fading_sim::stability_frontier(
            &problem,
            geometry,
            cfg,
            scheduler.as_ref(),
            policy,
            &probs,
        );
        outln!(
            out,
            "{} over {} slots (λ_link {}, E[life] {}):",
            scheduler.name(),
            cfg.slots,
            cfg.link_arrival_rate,
            cfg.mean_lifetime
        )?;
        outln!(
            out,
            "{:>12} {:>10} {:>12} {:>12} {:>10}",
            "packet-prob",
            "mean pop",
            "mean backlog",
            "max backlog",
            "delivered"
        )?;
        for (p, r) in &frontier {
            outln!(
                out,
                "{:>12.3} {:>10.1} {:>12.1} {:>12} {:>10}",
                p,
                r.mean_population,
                r.mean_backlog,
                r.max_backlog,
                r.packets_delivered
            )?;
        }
        if let Some(path) = args.get("out") {
            let json = serde_json::to_string_pretty(&frontier).map_err(|e| e.to_string())?;
            std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
            effects.artifacts.push(("frontier".into(), path.into()));
            outln!(out, "wrote frontier to {path}")?;
        }
        return Ok(());
    }

    let mut engine = fading_sim::ChurnEngine::new(problem, geometry, cfg);
    // One declarative telemetry bundle: the flags fold into a single
    // TelemetryConfig and one arm() call (--watch alone arms the bare
    // timed path for the live phase split).
    let mut telemetry = fading_sim::TelemetryConfig::new();
    if let Some(path) = series_out {
        let series_cfg = fading_obs::SeriesConfig {
            cadence: args.value("series-cadence")?,
            timings: args.flag("series-timings"),
            ..Default::default()
        };
        telemetry = telemetry.series(fading_obs::SlotSeries::to_path(
            series_cfg,
            Path::new(path),
        )?);
    }
    if let Some(dir) = flight_out {
        let flight_cfg = fading_obs::FlightConfig {
            capacity: args.value("flight-slots")?,
            ..Default::default()
        };
        telemetry = telemetry.flight(flight_cfg, Some(dir.into()));
    }
    if watch || series_out.is_some() || flight_out.is_some() {
        engine.arm(telemetry);
    }
    let result = engine.run(scheduler.as_ref(), policy);
    outln!(out, "{} over {} slots ({} policy):\n  links:   {} arrived, {} departed, mean population {:.1} (final {})\n  packets: {} arrived, {} delivered, {} abandoned, {} still queued\n  backlog: mean {:.1}, max {}\n  engine:  {:.0} slots/sec sustained",
        scheduler.name(),
        result.slots,
        args.require("policy")?,
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
        result.slots_per_sec)?;
    if !result.conserves_packets() {
        return Err("internal error: packet conservation violated".into());
    }
    if let Some(tel) = engine.take_telemetry() {
        if let Some(path) = series_out {
            let recorded = tel.series().map_or(0, |s| s.recorded());
            effects.artifacts.push(("series".into(), path.into()));
            outln!(out, "wrote {recorded} slot records to {path}")?;
        }
        if tel.health() != "ok" {
            outln!(out, "  health:  anomaly `{}` fired", tel.health())?;
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
            outln!(out, "  post-mortem bundle at {}", dir.display())?;
        }
    }
    if let Some(path) = args.get("out") {
        let json = serde_json::to_string_pretty(&result).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        effects.artifacts.push(("churn".into(), path.into()));
        outln!(out, "wrote churn result to {path}")?;
    }
    Ok(())
}

/// Most cells `render --grid-cell` may draw, one SVG rect each.
const MAX_GRID_CELLS: f64 = 100_000.0;

/// `--grid-cell`, refused when its grid over `region` would need more
/// than [`MAX_GRID_CELLS`] rects.
fn grid_cell(region: &fading_geom::Rect, cell: Option<f64>) -> Result<Option<f64>, String> {
    let (w, h) = (region.width(), region.height());
    match cell {
        Some(c) if (w / c).ceil() * (h / c).ceil() > MAX_GRID_CELLS => Err(format!(
            "--grid-cell {c:?} would draw more than {MAX_GRID_CELLS} cells over the {w} × {h} region"
        )),
        _ => Ok(cell),
    }
}

pub(crate) fn render(args: &Args, out: &mut dyn Write, _: &mut CmdEffects) -> Result<(), String> {
    let links = load_instance(args.require("instance")?)?;
    let schedule = match args.get("schedule") {
        None => None,
        Some(path) => Some(load_schedule(path, links.len())?),
    };
    let options = fading_viz::RenderOptions {
        width_px: args.value("width")?,
        grid_cell: grid_cell(links.region(), args.opt("grid-cell")?)?,
        deletion_radius_factor: args.opt("disks")?,
    };
    let svg = fading_viz::render_instance(&links, schedule.as_ref(), &options);
    let path = args.require("out")?;
    std::fs::write(path, svg).map_err(|e| format!("cannot write {path}: {e}"))?;
    outln!(out, "rendered {} links to {path}", links.len())
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
        let args = parse(line.split_whitespace().map(String::from)).map_err(|e| e.message)?;
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

    /// The verdict of the flag table and the geometry helper on a
    /// command line, called directly so a regression fails here instead
    /// of hanging in the generator.
    fn geometry_error(line: &str) -> String {
        parse(line.split_whitespace().map(String::from))
            .map_err(|e| e.message)
            .and_then(|args| uniform_geometry(&args, 5, RateModel::Fixed(1.0)).map(drop))
            .unwrap_err()
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
            &parse(["generate", "--n", "5", "--out", &inst].map(String::from)).unwrap(),
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
    fn render_rejects_what_would_panic_or_never_finish() {
        let inst = tmp("render_bad.json");
        let bad = tmp("render_bad_schedule.json");
        let svg = tmp("render_bad.svg");
        run_line(&format!("generate --n 20 --out {inst}")).unwrap();
        std::fs::write(&bad, r#"{"members":[0,999]}"#).unwrap();
        for knobs in [
            "--grid-cell 0".to_string(),
            "--grid-cell -1".into(),
            "--grid-cell nan".into(),
            "--grid-cell inf".into(),
            "--width 0".into(),
            "--width nan".into(),
            format!("--schedule {bad} --disks 2"),
            format!("--schedule {bad}"),
        ] {
            let err = run_line(&format!("render --instance {inst} --out {svg} {knobs}"));
            let err = err.unwrap_err();
            assert!(
                err.contains("--") || err.contains("nonexistent link"),
                "{knobs}: {err}"
            );
        }
        // A tiny positive cell would ask for ~10^16 rects: refused by
        // the bound, checked here without rendering anything.
        let region = fading_geom::Rect::square(500.0);
        let err = grid_cell(&region, Some(5e-6)).unwrap_err();
        assert!(err.contains("--grid-cell"), "{err}");
        assert_eq!(grid_cell(&region, Some(125.0)), Ok(Some(125.0)));
        assert_eq!(grid_cell(&region, None), Ok(None));
    }

    #[test]
    fn churn_refuses_knobs_of_an_output_it_does_not_write() {
        for (knob, needs) in [
            ("--series-timings", "--series-out"),
            ("--series-cadence 4", "--series-out"),
            ("--flight-slots 8", "--flight-out"),
        ] {
            let err = run_line(&format!("churn --n 5 --slots 2 {knob}")).unwrap_err();
            assert!(err.contains(needs), "{knob}: {err}");
        }
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

    /// Runs every subcommand once with most of its flags, so each read
    /// of a flag passes the table's `debug_assert!` that the command
    /// declares it.
    #[test]
    fn every_subcommand_reads_only_declared_flags() {
        let [inst, sched, trace, svg, series, base, cur] = [
            "every_inst.json",
            "every_sched.json",
            "every_trace.jsonl",
            "every.svg",
            "every_series.jsonl",
            "every_base.json",
            "every_cur.json",
        ]
        .map(tmp);
        let flight = tmp("every_flight");
        synthetic_report(1_000.0)
            .write(std::path::Path::new(&base))
            .unwrap();
        synthetic_report(1_000.0)
            .write(std::path::Path::new(&cur))
            .unwrap();
        let lines = [
            format!("generate --n 20 --seed 3 --side 400 --len-lo 4 --len-hi 16 --rate 1 --out {inst}"),
            format!("stats --instance {inst}"),
            format!("schedule --instance {inst} --algo rle --alpha 3 --eps 0.01 --interference sparse --tail-rtol 1e-3 --out {sched} --trace-out {trace}"),
            format!("simulate --instance {inst} --schedule {sched} --trials 8 --seed 1"),
            format!("render --instance {inst} --schedule {sched} --out {svg} --width 400 --grid-cell 100 --disks 2"),
            format!("multislot --instance {inst} --algo greedy"),
            format!("capacity --instance {inst} --schedule {sched}"),
            format!("explain --trace {trace} --budgets --block 0 --cascade 1 --verify --instance {inst} --schedule {sched} --interference sparse"),
            format!("churn --n 10 --slots 6 --algo greedy --policy plain --link-rate 1 --lifetime 20 --packet-prob 0.3 --series-out {series} --series-timings --series-cadence 2 --flight-out {flight} --flight-slots 8 --watch --quiet"),
            format!("bench-report --from {cur} --baseline {base} --check --dir . --gates {}", tmp("every_gates.toml")),
        ];
        std::fs::write(tmp("every_gates.toml"), "").unwrap();
        for line in &lines {
            run_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        let ran: Vec<&str> = lines.iter().filter_map(|l| l.split(' ').next()).collect();
        let declared: Vec<&str> = crate::args::COMMANDS.iter().map(|c| c.name).collect();
        assert_eq!(ran, declared);
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
