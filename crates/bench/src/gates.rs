//! Fitness-function gates: `bench-gates.toml` and the regression
//! detector that diffs two [`BenchReport`]s under it.
//!
//! One config file at the repo root declares every perf threshold the
//! repo enforces — the per-metric relative noise bands for the
//! `fading bench-report --check` trajectory diff *and* the absolute
//! `[max]` ceilings / `[min]` floors the engine probes and the release
//! smokes (`bench-report --smoke`) assert — so a gate is a row in the
//! ledger, not a constant buried in a test.
//!
//! The parser is a deliberate hand-rolled subset of TOML (the build is
//! offline; no `toml` crate is vendored): `[section]` headers and
//! `key = value` lines where keys may be bare or double-quoted and
//! values are numbers, booleans, or double-quoted strings. `#` starts
//! a comment. That subset covers the whole gate file and fails loudly
//! on anything fancier.

use crate::schema::{BenchReport, MetricRecord};
use std::collections::BTreeMap;
use std::path::Path;

/// Parsed `bench-gates.toml`.
#[derive(Debug, Clone, PartialEq)]
pub struct GateConfig {
    /// `[gates] default_noise` — relative band applied to every metric
    /// without a `[noise]` override.
    pub default_noise: f64,
    /// `[noise]` — per-metric relative noise overrides, keyed by
    /// metric id.
    pub noise: BTreeMap<String, f64>,
    /// `[max]` — absolute ceilings, keyed by metric id. A current
    /// value above its ceiling fails the check regardless of the
    /// baseline (these rows subsume the old hard-coded engine gates).
    pub max: BTreeMap<String, f64>,
    /// `[min]` — absolute floors, keyed by metric id, for
    /// higher-is-better metrics (sustained churn slots/sec). A current
    /// value below its floor fails the check regardless of baseline.
    pub min: BTreeMap<String, f64>,
}

impl Default for GateConfig {
    fn default() -> Self {
        Self {
            default_noise: 0.30,
            noise: BTreeMap::new(),
            max: BTreeMap::new(),
            min: BTreeMap::new(),
        }
    }
}

impl GateConfig {
    /// Reads and parses a gate file.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read gate config {}: {e}", path.display()))?;
        Self::from_toml(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parses the TOML subset described in the module docs.
    pub fn from_toml(text: &str) -> Result<Self, String> {
        let mut config = Self::default();
        let mut section = String::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('[') {
                let name = header
                    .strip_suffix(']')
                    .ok_or_else(|| format!("line {}: unterminated section header", lineno + 1))?
                    .trim();
                if !matches!(name, "gates" | "noise" | "max" | "min") {
                    return Err(format!(
                        "line {}: unknown section [{name}] (expected [gates], [noise], [max], or [min])",
                        lineno + 1
                    ));
                }
                section = name.to_string();
                continue;
            }
            let (key, value) = parse_key_value(line)
                .map_err(|e| format!("line {}: {e} in {line:?}", lineno + 1))?;
            match section.as_str() {
                "gates" => match key.as_str() {
                    "default_noise" => config.default_noise = expect_number(&key, &value)?,
                    other => {
                        return Err(format!(
                            "line {}: unknown key {other:?} in [gates]",
                            lineno + 1
                        ))
                    }
                },
                "noise" => {
                    config
                        .noise
                        .insert(key.clone(), expect_number(&key, &value)?);
                }
                "max" => {
                    config.max.insert(key.clone(), expect_number(&key, &value)?);
                }
                "min" => {
                    config.min.insert(key.clone(), expect_number(&key, &value)?);
                }
                _ => {
                    return Err(format!(
                        "line {}: key {key:?} outside any section",
                        lineno + 1
                    ))
                }
            }
        }
        if !(config.default_noise.is_finite() && config.default_noise >= 0.0) {
            return Err(format!(
                "default_noise must be a nonnegative fraction, got {}",
                config.default_noise
            ));
        }
        // A NaN or negative band (or non-finite ceiling) would make
        // every comparison against it false, silently classifying all
        // changes as WithinNoise and neutering that metric's gate.
        for (key, &band) in &config.noise {
            if !(band.is_finite() && band >= 0.0) {
                return Err(format!(
                    "[noise] {key:?} must be a finite nonnegative fraction, got {band}"
                ));
            }
        }
        for (key, &limit) in &config.max {
            if !limit.is_finite() {
                return Err(format!(
                    "[max] {key:?} must be a finite ceiling, got {limit}"
                ));
            }
        }
        for (key, &limit) in &config.min {
            if !limit.is_finite() {
                return Err(format!("[min] {key:?} must be a finite floor, got {limit}"));
            }
        }
        Ok(config)
    }

    /// The relative noise band for a metric id.
    pub fn noise_for(&self, id: &str) -> f64 {
        self.noise.get(id).copied().unwrap_or(self.default_noise)
    }

    /// The absolute ceiling for a metric id, if one is declared.
    pub fn max_for(&self, id: &str) -> Option<f64> {
        self.max.get(id).copied()
    }

    /// The absolute floor for a metric id, if one is declared.
    pub fn min_for(&self, id: &str) -> Option<f64> {
        self.min.get(id).copied()
    }
}

/// One possible TOML value in the supported subset.
#[derive(Debug, Clone, PartialEq)]
enum TomlValue {
    Number(f64),
    Bool(bool),
    Str(String),
}

fn expect_number(key: &str, value: &TomlValue) -> Result<f64, String> {
    match value {
        TomlValue::Number(n) => Ok(*n),
        other => Err(format!("key {key:?}: expected a number, got {other:?}")),
    }
}

/// Drops a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses `key = value` where the key may be bare or double-quoted.
fn parse_key_value(line: &str) -> Result<(String, TomlValue), String> {
    let (raw_key, raw_value) = line
        .split_once('=')
        .ok_or_else(|| "expected `key = value`".to_string())?;
    let key = unquote(raw_key.trim())?;
    if key.is_empty() {
        return Err("empty key".to_string());
    }
    let raw_value = raw_value.trim();
    let value = if raw_value.starts_with('"') {
        TomlValue::Str(unquote(raw_value)?)
    } else if raw_value == "true" {
        TomlValue::Bool(true)
    } else if raw_value == "false" {
        TomlValue::Bool(false)
    } else {
        TomlValue::Number(
            raw_value
                .parse::<f64>()
                .map_err(|e| format!("cannot parse value {raw_value:?}: {e}"))?,
        )
    };
    Ok((key, value))
}

fn unquote(s: &str) -> Result<String, String> {
    if let Some(inner) = s.strip_prefix('"') {
        let inner = inner
            .strip_suffix('"')
            .ok_or_else(|| format!("unterminated string {s:?}"))?;
        if inner.contains('"') {
            return Err(format!("embedded quote in {s:?}"));
        }
        Ok(inner.to_string())
    } else {
        Ok(s.to_string())
    }
}

// ---- regression detection --------------------------------------------

/// Outcome of comparing one metric across two reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Moved in the good direction by more than the noise band.
    Improved,
    /// Change within the noise band.
    WithinNoise,
    /// Moved in the bad direction by more than the noise band.
    Regressed,
    /// Current value breaks its `[max]` ceiling or `[min]` floor.
    /// Enforced even across fingerprint mismatches (the limits are
    /// absolute contracts, not machine-relative timings).
    OverLimit,
    /// Present only in the current report (new bench).
    Added,
    /// Present only in the baseline (bench removed or not run).
    Removed,
}

/// One row of the diff table.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    pub id: String,
    pub baseline: Option<f64>,
    pub current: Option<f64>,
    /// Signed relative change `(current - baseline) / baseline`, when
    /// both sides exist and the baseline is nonzero.
    pub delta_frac: Option<f64>,
    /// The noise band (or the ceiling, for [`Status::OverLimit`]) the
    /// verdict was made against.
    pub threshold: f64,
    pub status: Status,
}

/// Final verdict of a `--check` run, in exit-code order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Exit 0: no regressions, no ceiling violations.
    Clean,
    /// Exit 1: a regression on a matching fingerprint, or any ceiling
    /// violation.
    Regression,
    /// Exit 2: would-be regressions, but the machine fingerprints
    /// differ, so they are reported as warnings.
    FingerprintWarning,
}

/// A full two-report comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Rows sorted by metric id.
    pub rows: Vec<DiffRow>,
    /// Whether the two reports share a machine fingerprint (and build
    /// profile — debug vs release counts as a mismatch).
    pub fingerprint_match: bool,
    /// Human description of the baseline machine.
    pub baseline_machine: String,
    /// Human description of the current machine.
    pub current_machine: String,
}

impl DiffReport {
    /// Rows with the given status.
    pub fn with_status(&self, status: Status) -> impl Iterator<Item = &DiffRow> {
        self.rows.iter().filter(move |r| r.status == status)
    }

    /// The check verdict under the fingerprint-downgrade rule.
    pub fn verdict(&self) -> Verdict {
        let over_limit = self.with_status(Status::OverLimit).count() > 0;
        let regressed = self.with_status(Status::Regressed).count() > 0;
        match (over_limit, regressed, self.fingerprint_match) {
            (true, _, _) => Verdict::Regression,
            (false, true, true) => Verdict::Regression,
            (false, true, false) => Verdict::FingerprintWarning,
            (false, false, _) => Verdict::Clean,
        }
    }

    /// One line per offending row, naming the metric and the threshold
    /// it broke — the text a failing CI run prints.
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for row in &self.rows {
            match row.status {
                Status::Regressed => out.push(format!(
                    "`{}` regressed: {} -> {} ({:+.1}%, noise threshold {:.0}%)",
                    row.id,
                    fmt_value(row.baseline.unwrap_or(f64::NAN)),
                    fmt_value(row.current.unwrap_or(f64::NAN)),
                    row.delta_frac.unwrap_or(f64::NAN) * 100.0,
                    row.threshold * 100.0
                )),
                Status::OverLimit => {
                    let cur = row.current.unwrap_or(f64::NAN);
                    out.push(if cur < row.threshold {
                        format!(
                            "`{}` under its floor: {} < min {}",
                            row.id,
                            fmt_value(cur),
                            fmt_value(row.threshold)
                        )
                    } else {
                        format!(
                            "`{}` over its ceiling: {} > max {}",
                            row.id,
                            fmt_value(cur),
                            fmt_value(row.threshold)
                        )
                    });
                }
                _ => {}
            }
        }
        out
    }

    /// Fixed-width text diff table (the CI artifact).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "baseline machine: {}\ncurrent machine:  {}{}\n\n",
            self.baseline_machine,
            self.current_machine,
            if self.fingerprint_match {
                ""
            } else {
                "  (MISMATCH — regressions downgraded to warnings)"
            }
        ));
        out.push_str(&format!(
            "{:<42} {:>14} {:>14} {:>9} {:>6}  {}\n",
            "metric", "baseline", "current", "delta", "thr", "status"
        ));
        for row in &self.rows {
            let delta = row
                .delta_frac
                .map_or("-".to_string(), |d| format!("{:+.1}%", d * 100.0));
            out.push_str(&format!(
                "{:<42} {:>14} {:>14} {:>9} {:>5.0}%  {}\n",
                row.id,
                row.baseline.map_or("-".to_string(), fmt_value),
                row.current.map_or("-".to_string(), fmt_value),
                delta,
                row.threshold * 100.0,
                match row.status {
                    Status::Improved => "improved",
                    Status::WithinNoise => "ok",
                    Status::Regressed =>
                        if self.fingerprint_match {
                            "REGRESSED"
                        } else {
                            "regressed? (fingerprint mismatch)"
                        },
                    Status::OverLimit => "OVER LIMIT",
                    Status::Added => "added",
                    Status::Removed => "removed",
                },
            ));
        }
        out
    }
}

fn fmt_value(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

/// Compares `current` against `baseline` under `gates`.
///
/// Per-metric rule, with `noise = gates.noise_for(id)`:
/// a metric regresses when it moves in its bad direction by more than
/// `noise` relative to the baseline; it improves when it moves in the
/// good direction by more than `noise`; otherwise it is within noise.
/// A `[max]` ceiling violation overrides all of that. Metrics present
/// on one side only are reported as added/removed, never as failures.
pub fn diff_reports(
    baseline: &BenchReport,
    current: &BenchReport,
    gates: &GateConfig,
) -> DiffReport {
    let mut ids: Vec<&str> = baseline
        .metrics
        .iter()
        .chain(current.metrics.iter())
        .map(|m| m.id.as_str())
        .collect();
    ids.sort_unstable();
    ids.dedup();

    let rows = ids
        .into_iter()
        .map(|id| diff_one(id, baseline.metric(id), current.metric(id), gates))
        .collect();
    let fingerprint_match = baseline.fingerprint == current.fingerprint
        && baseline.build_profile == current.build_profile;
    DiffReport {
        rows,
        fingerprint_match,
        baseline_machine: format!(
            "{} ({}, {})",
            baseline.fingerprint.describe(),
            baseline.build_profile,
            baseline.date
        ),
        current_machine: format!(
            "{} ({}, {})",
            current.fingerprint.describe(),
            current.build_profile,
            current.date
        ),
    }
}

fn diff_one(
    id: &str,
    baseline: Option<&MetricRecord>,
    current: Option<&MetricRecord>,
    gates: &GateConfig,
) -> DiffRow {
    let noise = gates.noise_for(id);
    // An absolute limit violation dominates every relative verdict.
    if let Some(cur) = current {
        let over_ceiling = gates.max_for(id).filter(|&limit| cur.value > limit);
        let under_floor = gates.min_for(id).filter(|&limit| cur.value < limit);
        if let Some(limit) = over_ceiling.or(under_floor) {
            return DiffRow {
                id: id.to_string(),
                baseline: baseline.map(|b| b.value),
                current: Some(cur.value),
                delta_frac: relative_delta(baseline, cur),
                threshold: limit,
                status: Status::OverLimit,
            };
        }
    }
    let (status, delta) = match (baseline, current) {
        (None, Some(_)) => (Status::Added, None),
        (Some(_), None) => (Status::Removed, None),
        (Some(base), Some(cur)) => {
            let delta = relative_delta(Some(base), cur);
            let bad_move = if cur.lower_is_better {
                cur.value > base.value * (1.0 + noise)
            } else {
                cur.value < base.value * (1.0 - noise)
            };
            let good_move = if cur.lower_is_better {
                cur.value < base.value * (1.0 - noise)
            } else {
                cur.value > base.value * (1.0 + noise)
            };
            // A zero baseline cannot scale a relative band: any
            // nonzero bad-direction move counts as a regression.
            let status = if base.value == 0.0 {
                match cur.value.partial_cmp(&0.0) {
                    Some(std::cmp::Ordering::Greater) if cur.lower_is_better => Status::Regressed,
                    Some(std::cmp::Ordering::Less) if !cur.lower_is_better => Status::Regressed,
                    _ => Status::WithinNoise,
                }
            } else if bad_move {
                Status::Regressed
            } else if good_move {
                Status::Improved
            } else {
                Status::WithinNoise
            };
            (status, delta)
        }
        (None, None) => unreachable!("id came from one of the reports"),
    };
    DiffRow {
        id: id.to_string(),
        baseline: baseline.map(|b| b.value),
        current: current.map(|c| c.value),
        delta_frac: delta,
        threshold: noise,
        status,
    }
}

fn relative_delta(baseline: Option<&MetricRecord>, current: &MetricRecord) -> Option<f64> {
    baseline
        .filter(|b| b.value != 0.0)
        .map(|b| (current.value - b.value) / b.value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_supported_subset() {
        let config = GateConfig::from_toml(
            r#"
# comment
[gates]
default_noise = 0.25   # trailing comment

[noise]
"schedule/rle/1000" = 0.4
bare_key = 0.1

[max]
"engine.rle.warm_ratio" = 0.75
"#,
        )
        .unwrap();
        assert_eq!(config.default_noise, 0.25);
        assert_eq!(config.noise_for("schedule/rle/1000"), 0.4);
        assert_eq!(config.noise_for("bare_key"), 0.1);
        assert_eq!(config.noise_for("anything-else"), 0.25);
        assert_eq!(config.max_for("engine.rle.warm_ratio"), Some(0.75));
        assert_eq!(config.max_for("nope"), None);
    }

    #[test]
    fn parse_errors_name_line_and_cause() {
        let err = GateConfig::from_toml("[nope]\n").unwrap_err();
        assert!(err.contains("unknown section [nope]"), "{err}");
        let err = GateConfig::from_toml("[noise]\nkey 0.5\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("key = value"), "{err}");
        let err = GateConfig::from_toml("[noise]\nkey = abc\n").unwrap_err();
        assert!(err.contains("cannot parse value"), "{err}");
        let err = GateConfig::from_toml("[gates]\ntypo_noise = 0.5\n").unwrap_err();
        assert!(err.contains("unknown key"), "{err}");
        let err = GateConfig::from_toml("orphan = 1\n").unwrap_err();
        assert!(err.contains("outside any section"), "{err}");
    }

    #[test]
    fn non_finite_or_negative_thresholds_are_rejected() {
        for (toml, want) in [
            ("[gates]\ndefault_noise = NaN\n", "nonnegative fraction"),
            ("[noise]\nbench = NaN\n", "finite nonnegative fraction"),
            ("[noise]\nbench = -0.1\n", "finite nonnegative fraction"),
            ("[noise]\nbench = inf\n", "finite nonnegative fraction"),
            ("[max]\nbench = NaN\n", "finite ceiling"),
            ("[max]\nbench = inf\n", "finite ceiling"),
        ] {
            let err = GateConfig::from_toml(toml).unwrap_err();
            assert!(err.contains(want), "{toml:?}: {err}");
        }
        // A zero band stays legal: it means any bad move fails.
        let config = GateConfig::from_toml("[noise]\nbench = 0.0\n").unwrap();
        assert_eq!(config.noise_for("bench"), 0.0);
    }

    #[test]
    fn strings_with_hash_survive_comment_stripping() {
        let config = GateConfig::from_toml("[noise]\n\"a#b\" = 0.5 # real comment\n").unwrap();
        assert_eq!(config.noise_for("a#b"), 0.5);
    }

    // ---- regression detector over synthetic two-point histories ----

    fn record(id: &str, value: f64) -> MetricRecord {
        MetricRecord {
            id: id.to_string(),
            kind: crate::schema::MetricKind::NsPerOp,
            value,
            ci95: 0.0,
            samples: 5,
            lower_is_better: true,
        }
    }

    fn report(metrics: Vec<MetricRecord>) -> BenchReport {
        BenchReport::new("2026-08-08".into(), metrics).unwrap()
    }

    fn status_of(diff: &DiffReport, id: &str) -> Status {
        diff.rows
            .iter()
            .find(|r| r.id == id)
            .unwrap_or_else(|| panic!("no row for {id}"))
            .status
    }

    /// The five canonical two-point histories: improvement,
    /// within-noise drift, regression, bench added, bench removed.
    #[test]
    fn detector_classifies_the_five_history_shapes() {
        let gates = GateConfig::default(); // 30% band
        let baseline = report(vec![
            record("improved", 1000.0),
            record("drift", 1000.0),
            record("regressed", 1000.0),
            record("removed", 1000.0),
        ]);
        let current = report(vec![
            record("improved", 500.0),   // -50%: beyond the band, good
            record("drift", 1200.0),     // +20%: inside the band
            record("regressed", 2000.0), // +100%: beyond the band, bad
            record("added", 42.0),
        ]);
        let diff = diff_reports(&baseline, &current, &gates);
        assert_eq!(status_of(&diff, "improved"), Status::Improved);
        assert_eq!(status_of(&diff, "drift"), Status::WithinNoise);
        assert_eq!(status_of(&diff, "regressed"), Status::Regressed);
        assert_eq!(status_of(&diff, "added"), Status::Added);
        assert_eq!(status_of(&diff, "removed"), Status::Removed);
        // Added/removed benches are reported, never failed on.
        assert_eq!(diff.verdict(), Verdict::Regression);
        let failures = diff.failures();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("`regressed`"), "{}", failures[0]);
        assert!(failures[0].contains("threshold 30%"), "{}", failures[0]);
    }

    #[test]
    fn higher_is_better_metrics_regress_downward() {
        let gates = GateConfig::default();
        let up = |v: f64| MetricRecord {
            lower_is_better: false,
            ..record("throughput", v)
        };
        let diff = diff_reports(&report(vec![up(100.0)]), &report(vec![up(50.0)]), &gates);
        assert_eq!(status_of(&diff, "throughput"), Status::Regressed);
        let diff = diff_reports(&report(vec![up(100.0)]), &report(vec![up(200.0)]), &gates);
        assert_eq!(status_of(&diff, "throughput"), Status::Improved);
    }

    #[test]
    fn zero_baseline_regresses_on_any_bad_move() {
        let gates = GateConfig::default();
        let diff = diff_reports(
            &report(vec![record("allocs", 0.0)]),
            &report(vec![record("allocs", 1.0)]),
            &gates,
        );
        assert_eq!(status_of(&diff, "allocs"), Status::Regressed);
        let diff = diff_reports(
            &report(vec![record("allocs", 0.0)]),
            &report(vec![record("allocs", 0.0)]),
            &gates,
        );
        assert_eq!(status_of(&diff, "allocs"), Status::WithinNoise);
    }

    #[test]
    fn floors_gate_higher_is_better_metrics() {
        let gates = GateConfig::from_toml("[min]\n\"churn.slots_per_sec\" = 25\n").unwrap();
        assert_eq!(gates.min_for("churn.slots_per_sec"), Some(25.0));
        let rate = |v: f64| MetricRecord {
            kind: crate::schema::MetricKind::Rate,
            lower_is_better: false,
            ..record("churn.slots_per_sec", v)
        };
        // Under the floor: hard failure, even as a freshly added metric.
        let diff = diff_reports(&report(vec![]), &report(vec![rate(10.0)]), &gates);
        assert_eq!(status_of(&diff, "churn.slots_per_sec"), Status::OverLimit);
        assert_eq!(diff.verdict(), Verdict::Regression);
        assert!(
            diff.failures()[0].contains("under its floor"),
            "{:?}",
            diff.failures()
        );
        // Above the floor: a new metric is just "added".
        let diff = diff_reports(&report(vec![]), &report(vec![rate(100.0)]), &gates);
        assert_eq!(status_of(&diff, "churn.slots_per_sec"), Status::Added);
        assert_eq!(diff.verdict(), Verdict::Clean);
        let err = GateConfig::from_toml("[min]\nbench = NaN\n").unwrap_err();
        assert!(err.contains("finite floor"), "{err}");
    }

    #[test]
    fn ceilings_dominate_and_survive_fingerprint_mismatch() {
        let gates = GateConfig::from_toml("[max]\nratio = 0.75\n").unwrap();
        let baseline_report = report(vec![record("ratio", 0.9)]);
        let mut current_report = report(vec![record("ratio", 0.9)]); // within noise, over ceiling
        current_report.fingerprint.cpu_model = "a different machine".into();
        let diff = diff_reports(&baseline_report, &current_report, &gates);
        assert!(!diff.fingerprint_match);
        assert_eq!(status_of(&diff, "ratio"), Status::OverLimit);
        assert_eq!(diff.verdict(), Verdict::Regression);
        assert!(
            diff.failures()[0].contains("ceiling"),
            "{:?}",
            diff.failures()
        );
    }

    #[test]
    fn relative_regressions_downgrade_on_fingerprint_mismatch() {
        let gates = GateConfig::default();
        let baseline_report = report(vec![record("bench", 1000.0)]);
        let mut current_report = report(vec![record("bench", 5000.0)]);
        current_report.fingerprint.cores += 1;
        let diff = diff_reports(&baseline_report, &current_report, &gates);
        assert_eq!(status_of(&diff, "bench"), Status::Regressed);
        assert_eq!(diff.verdict(), Verdict::FingerprintWarning);
        // Same numbers on the same fingerprint fail outright.
        let same = diff_reports(
            &baseline_report,
            &report(vec![record("bench", 5000.0)]),
            &gates,
        );
        assert_eq!(same.verdict(), Verdict::Regression);
    }

    #[test]
    fn build_profile_mismatch_breaks_the_fingerprint() {
        let gates = GateConfig::default();
        let baseline_report = report(vec![record("bench", 1000.0)]);
        let mut current_report = report(vec![record("bench", 1000.0)]);
        // Flip to the opposite profile, whatever this test was built as.
        current_report.build_profile = if baseline_report.build_profile == "debug" {
            "release".into()
        } else {
            "debug".into()
        };
        let diff = diff_reports(&baseline_report, &current_report, &gates);
        assert!(!diff.fingerprint_match);
    }
}
