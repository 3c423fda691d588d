//! `fading bench-report` — the perf-trajectory ledger command.
//!
//! Runs the programmatic bench suite (`fading_bench::report`), writes
//! a schema-versioned `BENCH_<date>.json`, and with `--check` diffs it
//! against the newest committed ledger entry under the thresholds in
//! `bench-gates.toml`. Check runs default their output to
//! `<dir>/target/BENCH_current.json` — outside the ledger scan — so a
//! same-day committed entry (e.g. the seed on merge day) stays both
//! findable as the baseline and untouched on disk. Exit codes: 0
//! clean, 1 regression (via the normal error path, naming the
//! offending bench and threshold), 2 fingerprint mismatch (would-be
//! regressions reported as warnings). See `docs/bench-report.md`.

use crate::commands::CmdEffects;
use fading_bench::flags::Args;
use fading_bench::gates::{GateConfig, Status, Verdict};
use fading_bench::report::{run_report, ReportOptions};
use fading_bench::schema::{latest_report_path, today_utc, BenchReport};
use std::io::Write;
use std::path::{Path, PathBuf};

pub fn bench_report(
    args: &Args,
    out: &mut dyn Write,
    effects: &mut CmdEffects,
) -> Result<(), String> {
    let check = args.flag("check");
    let dir = PathBuf::from(args.require("dir")?);
    let out_path = match args.get("out") {
        Some(path) => PathBuf::from(path),
        // A check run must never drop its fresh numbers into the
        // ledger dir: a BENCH_<today>.json default would collide with
        // a committed same-day entry (overwriting the baseline it is
        // supposed to be judged against). `target/` is outside the
        // top-level BENCH_*.json scan.
        None if check => dir.join("target").join("BENCH_current.json"),
        None => dir.join(format!("BENCH_{}.json", today_utc())),
    };

    // Measure (or reuse a prior report with --from, for re-checks and
    // tests that must not pay a bench run).
    let current = match args.get("from") {
        Some(path) => BenchReport::load(Path::new(path))?,
        None => {
            args.say(out, "running bench suite (this takes a minute)...".into())?;
            run_report(&ReportOptions {
                quick: args.flag("quick"),
                filter: args.get("filter").map(String::from),
                smoke: args.flag("smoke"),
            })?
        }
    };

    // Resolve and *load* the baseline before writing the new report:
    // an explicit --out naming a committed entry then diffs against
    // that entry's pre-overwrite content. The only file excluded from
    // the search is the --from source — the one case where the diff
    // would trivially compare a report against itself.
    let baseline_path = match args.get("baseline") {
        Some(path) => Some(PathBuf::from(path)),
        None if check => {
            let under_check = args.get("from").map(Path::new);
            Some(latest_report_path(&dir, under_check).ok_or_else(|| {
                format!(
                    "no committed BENCH_*.json found in {}{} to check against; \
                     pass --baseline <file> or commit a seed report first",
                    dir.display(),
                    if under_check.is_some() {
                        " (other than the report under check)"
                    } else {
                        ""
                    }
                )
            })?)
        }
        None => None,
    };
    let baseline = baseline_path
        .as_deref()
        .map(BenchReport::load)
        .transpose()?;

    // Persist the ledger entry (skipped for --from unless --out asks
    // for a copy) and summarize.
    if args.get("from").is_none() || args.get("out").is_some() {
        if let Some(parent) = out_path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
        current.write(&out_path)?;
        effects
            .artifacts
            .push(("bench-report".to_string(), out_path.clone()));
        let (metrics, fingerprint) = (current.metrics.len(), current.fingerprint.describe());
        let path = out_path.display();
        args.say(
            out,
            format!("wrote {metrics} metrics to {path} ({fingerprint})"),
        )?;
    }

    let Some(baseline) = baseline else {
        return Ok(());
    };
    let gates = load_gates(args, &dir)?;
    let diff = fading_bench::gates::diff_reports(&baseline, &current, &gates);
    let table = diff.render_table();
    write!(out, "{table}").map_err(|e| e.to_string())?;
    if let Some(path) = args.get("diff-out") {
        std::fs::write(path, &table).map_err(|e| format!("cannot write {path}: {e}"))?;
        effects
            .artifacts
            .push(("bench-diff".to_string(), PathBuf::from(path)));
        args.say(out, format!("wrote diff table to {path}"))?;
    }
    if !check {
        return Ok(());
    }
    let baseline = baseline_path.as_deref().unwrap_or(Path::new("?")).display();
    match diff.verdict() {
        Verdict::Clean => outln!(out, "bench-report check: clean against {baseline}"),
        Verdict::Regression => Err(format!(
            "bench-report check failed against {baseline}:\n  {}",
            diff.failures().join("\n  ")
        )),
        Verdict::FingerprintWarning => {
            let regressed = diff.with_status(Status::Regressed).count();
            outln!(out, "bench-report check: fingerprint mismatch — {regressed} would-be regression(s) reported as warnings, not failures:")?;
            for line in diff.failures() {
                outln!(out, "  warning: {line}")?;
            }
            effects.exit_code = 2;
            Ok(())
        }
    }
}

/// `--gates <path>`, else `<dir>/bench-gates.toml` when present, else
/// built-in defaults (no per-metric overrides, no ceilings).
fn load_gates(args: &Args, dir: &Path) -> Result<GateConfig, String> {
    match args.get("gates") {
        Some(path) => GateConfig::load(Path::new(path)),
        None => {
            let default = dir.join("bench-gates.toml");
            if default.exists() {
                GateConfig::load(&default)
            } else {
                Ok(GateConfig::default())
            }
        }
    }
}
