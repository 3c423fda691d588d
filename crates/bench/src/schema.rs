//! The `BENCH_<date>.json` perf-trajectory schema.
//!
//! Every `fading bench-report` run emits one [`BenchReport`]: a flat,
//! schema-versioned list of [`MetricRecord`]s plus the
//! [`MachineFingerprint`] the numbers were measured on. Reports are
//! committed at the repo root (`BENCH_2026-08-08.json`, …) so the
//! performance trajectory travels with the code, and the regression
//! gates in [`crate::gates`] diff the current run against the newest
//! committed report.
//!
//! Serialization is deterministic: records are sorted by id, maps are
//! `BTreeMap`s, and JSON floats round-trip exactly (the vendored
//! `serde_json` enables `float_roundtrip`), so
//! `serialize(deserialize(x)) == x` byte-for-byte — asserted by
//! `tests/report_schema.rs`. Unknown fields are ignored on read, so a
//! version-1 reader still loads reports written by a later version
//! that only *added* fields.

use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Version written into every report; bumped on incompatible changes
/// (see `docs/bench-report.md` for the compatibility policy).
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// What a metric measures — determines how the diff renders it, not
/// how it is gated (all current kinds are gated lower-is-better via
/// [`MetricRecord::lower_is_better`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricKind {
    /// Wall-clock nanoseconds per operation (median of samples).
    NsPerOp,
    /// Heap allocations per steady-state call.
    Allocs,
    /// A dimensionless ratio (warm/fresh time, ctx churn fraction).
    Ratio,
    /// A fitted n-scaling exponent (log-log least squares).
    Exponent,
    /// Wall-clock seconds for a single-shot workload (the release
    /// smokes); gated by absolute `[max]` ceilings, not noise bands.
    Seconds,
    /// Operations per second (sustained churn slots/sec); the one kind
    /// where higher is better, gated by a `[min]` floor.
    Rate,
    /// Source lines (`code.rust_loc`), gated by a `[max]` ceiling.
    Lines,
}

/// One measured or derived metric.
///
/// Timing benches use `group/bench/param` ids
/// (`schedule/rle/1000`); derived probes use dotted metric ids
/// matching the `fading-obs` convention (`engine.rle.warm_ratio`).
/// Gate thresholds in `bench-gates.toml` are keyed by these ids.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricRecord {
    /// Stable identifier, unique within a report.
    pub id: String,
    /// What the value measures.
    pub kind: MetricKind,
    /// Point estimate (median for [`MetricKind::NsPerOp`]).
    pub value: f64,
    /// Half-width of the 95% confidence interval around `value`
    /// (median-notch estimate), `0.0` for derived metrics.
    pub ci95: f64,
    /// Number of measurement samples behind the estimate (`0` for
    /// derived metrics).
    pub samples: u64,
    /// Whether smaller values are better. Drives the regression
    /// direction in the gate check.
    pub lower_is_better: bool,
}

/// The machine a report was measured on. Numbers from different
/// fingerprints are never silently compared: a mismatch downgrades
/// relative regressions to warnings (exit code 2, not 1).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MachineFingerprint {
    /// `model name` from `/proc/cpuinfo`, or `"unknown"`.
    pub cpu_model: String,
    /// Logical core count (`std::thread::available_parallelism`).
    pub cores: u64,
    /// `rustc -V` of the compiler that built the harness. Part of the
    /// fingerprint because a toolchain bump legitimately moves codegen.
    pub rustc: String,
}

impl MachineFingerprint {
    /// Fingerprint of the running process' machine and toolchain.
    pub fn current() -> Self {
        Self {
            cpu_model: cpu_model(),
            cores: std::thread::available_parallelism().map_or(0, |t| t.get() as u64),
            rustc: env!("FADING_BENCH_RUSTC").to_string(),
        }
    }

    /// One-line human form (`"AMD EPYC 7R32 · 8 cores · rustc 1.79"`).
    pub fn describe(&self) -> String {
        format!("{} · {} cores · {}", self.cpu_model, self.cores, self.rustc)
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .filter(|m| !m.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A complete perf-trajectory ledger entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Schema version ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// UTC date the report was generated (`YYYY-MM-DD`); also encoded
    /// in the committed filename.
    pub date: String,
    /// `git describe --always --dirty` at run time, or `"unknown"`.
    pub git_describe: String,
    /// `"release"` or `"debug"` — debug numbers must never be
    /// compared against a release baseline.
    pub build_profile: String,
    /// Where the numbers were measured.
    pub fingerprint: MachineFingerprint,
    /// All metrics, sorted by id (the constructor enforces this).
    pub metrics: Vec<MetricRecord>,
}

impl BenchReport {
    /// Assembles a report for the current machine/build, sorting
    /// `metrics` by id and rejecting duplicate ids.
    pub fn new(date: String, mut metrics: Vec<MetricRecord>) -> Result<Self, String> {
        metrics.sort_by(|a, b| a.id.cmp(&b.id));
        if let Some(w) = metrics.windows(2).find(|w| w[0].id == w[1].id) {
            return Err(format!("duplicate metric id {:?} in bench report", w[0].id));
        }
        Ok(Self {
            schema_version: BENCH_SCHEMA_VERSION,
            date,
            git_describe: git_describe(),
            build_profile: if cfg!(debug_assertions) {
                "debug".to_string()
            } else {
                "release".to_string()
            },
            fingerprint: MachineFingerprint::current(),
            metrics,
        })
    }

    /// Looks up a metric by id.
    pub fn metric(&self, id: &str) -> Option<&MetricRecord> {
        self.metrics.iter().find(|m| m.id == id)
    }

    /// Deterministic pretty-printed JSON form.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_default()
    }

    /// Parses a report, ignoring unknown fields (forward compat).
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("invalid bench report: {e}"))
    }

    /// Reads a report file.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read bench report {}: {e}", path.display()))?;
        Self::from_json(&text)
            .map_err(|e| format!("cannot parse bench report {}: {e}", path.display()))
    }

    /// Writes the JSON form to `path`.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.to_json())
            .map_err(|e| format!("cannot write bench report {}: {e}", path.display()))
    }
}

/// The newest committed ledger entry in `dir`: the lexicographically
/// greatest `BENCH_*.json` (the `YYYY-MM-DD` date format makes
/// lexicographic order chronological), excluding `exclude` (the
/// report under check, e.g. a `--from` source, which must never be
/// diffed against itself). The exclusion compares canonicalized
/// paths, so a different spelling of the same file (`--dir ./`, an
/// absolute path, a `.` component) cannot defeat it.
pub fn latest_report_path(dir: &Path, exclude: Option<&Path>) -> Option<PathBuf> {
    let excluded = exclude.and_then(|p| p.canonicalize().ok());
    let entries = std::fs::read_dir(dir).ok()?;
    entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with("BENCH_") && name.ends_with(".json")
        })
        .filter(|p| match (&excluded, p.canonicalize().ok()) {
            (Some(x), Some(c)) => *x != c,
            // A nonexistent exclude (canonicalize fails) cannot be an
            // on-disk candidate, so nothing to filter.
            _ => true,
        })
        .max()
}

/// Today's UTC date as `YYYY-MM-DD` (no chrono offline; days-to-civil
/// conversion per Howard Hinnant's algorithm).
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs() as i64);
    let (y, m, d) = civil_from_days(secs.div_euclid(86_400));
    format!("{y:04}-{m:02}-{d:02}")
}

fn civil_from_days(days_since_epoch: i64) -> (i64, u32, u32) {
    let z = days_since_epoch + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_from_days_matches_known_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1)); // leap year
        assert_eq!(civil_from_days(19_723 + 59), (2024, 2, 29));
        assert_eq!(civil_from_days(20_673), (2026, 8, 8));
    }

    #[test]
    fn new_sorts_and_rejects_duplicate_ids() {
        let rec = |id: &str| MetricRecord {
            id: id.to_string(),
            kind: MetricKind::NsPerOp,
            value: 1.0,
            ci95: 0.0,
            samples: 1,
            lower_is_better: true,
        };
        let report = BenchReport::new("2026-08-08".into(), vec![rec("b"), rec("a")]).unwrap();
        let ids: Vec<&str> = report.metrics.iter().map(|m| m.id.as_str()).collect();
        assert_eq!(ids, ["a", "b"]);
        let err = BenchReport::new("2026-08-08".into(), vec![rec("a"), rec("a")]).unwrap_err();
        assert!(err.contains("duplicate metric id"), "{err}");
    }

    #[test]
    fn latest_report_path_picks_newest_and_honors_exclude() {
        let dir = std::env::temp_dir().join("fading_bench_latest_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(latest_report_path(&dir, None), None);
        for name in [
            "BENCH_2026-01-01.json",
            "BENCH_2026-08-08.json",
            "other.json",
        ] {
            std::fs::write(dir.join(name), "{}").unwrap();
        }
        let newest = dir.join("BENCH_2026-08-08.json");
        assert_eq!(latest_report_path(&dir, None), Some(newest.clone()));
        assert_eq!(
            latest_report_path(&dir, Some(&newest)),
            Some(dir.join("BENCH_2026-01-01.json"))
        );
    }

    #[test]
    fn latest_report_path_exclusion_survives_path_respelling() {
        let dir = std::env::temp_dir().join("fading_bench_exclude_spelling_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("BENCH_2026-08-08.json"), "{}").unwrap();
        // Same file, different spelling: `Path` equality normalizes
        // `.` but not `..`, so this alias is raw-unequal to the scan
        // result while canonicalizing to the same file.
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        let alias = dir.join("sub").join("..").join("BENCH_2026-08-08.json");
        assert_ne!(alias, dir.join("BENCH_2026-08-08.json"));
        assert_eq!(latest_report_path(&dir, Some(&alias)), None);
        // A nonexistent exclude filters nothing.
        let ghost = dir.join("BENCH_9999-01-01.json");
        assert_eq!(
            latest_report_path(&dir, Some(&ghost)),
            Some(dir.join("BENCH_2026-08-08.json"))
        );
    }
}
