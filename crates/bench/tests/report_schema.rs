//! Schema-stability contract for `BENCH_*.json` ledger entries:
//!
//! * serialization is deterministic — `to_json(from_json(x)) == x`
//!   byte-for-byte for anything `bench-report` wrote, including the
//!   committed repo-root ledger entries;
//! * the reader is forward compatible — a version-1 report with extra
//!   unknown fields (written by a future, additive schema revision)
//!   still deserializes;
//! * the repo-root `bench-gates.toml` declares every engine ceiling
//!   `bench-report --check` enforces.

use fading_bench::gates::GateConfig;
use fading_bench::schema::{
    latest_report_path, BenchReport, MachineFingerprint, MetricKind, MetricRecord,
    BENCH_SCHEMA_VERSION,
};
use std::path::Path;

fn sample_report() -> BenchReport {
    BenchReport::new(
        "2026-08-08".to_string(),
        vec![
            MetricRecord {
                id: "schedule/rle/1000".to_string(),
                kind: MetricKind::NsPerOp,
                // Awkward floats on purpose: `float_roundtrip` must
                // reproduce them exactly.
                value: 123_456.789_012_345,
                ci95: 0.1 + 0.2,
                samples: 21,
                lower_is_better: true,
            },
            MetricRecord {
                id: "engine.rle.warm_ratio".to_string(),
                kind: MetricKind::Ratio,
                value: 0.615,
                ci95: 0.0,
                samples: 0,
                lower_is_better: true,
            },
        ],
    )
    .unwrap()
}

#[test]
fn round_trip_is_byte_identical() {
    let report = sample_report();
    let json = report.to_json();
    let parsed = BenchReport::from_json(&json).unwrap();
    assert_eq!(parsed, report);
    assert_eq!(parsed.to_json(), json, "re-serialization must be stable");
}

/// The committed repo-root ledger entries must round-trip through the
/// current reader byte-for-byte — the golden-file form of the same
/// contract, over every real `BENCH_*.json` in the repo.
#[test]
fn committed_ledger_entries_round_trip() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let Some(newest) = latest_report_path(&root, None) else {
        // Seed commit not made yet; the synthetic round-trip above
        // still covers the contract.
        return;
    };
    let text = std::fs::read_to_string(&newest).unwrap();
    let parsed = BenchReport::load(&newest).unwrap();
    assert_eq!(parsed.schema_version, BENCH_SCHEMA_VERSION);
    assert!(!parsed.metrics.is_empty());
    assert_eq!(
        parsed.to_json(),
        text,
        "{} does not round-trip byte-identically",
        newest.display()
    );
}

/// A later schema revision that only *adds* fields must stay readable
/// by this version: unknown keys are ignored at every nesting level.
#[test]
fn unknown_fields_are_ignored_for_forward_compat() {
    let json = sample_report().to_json();
    // Inject unknown fields at the top level, inside the fingerprint,
    // and inside a metric record.
    let doctored = json
        .replacen(
            "\"schema_version\"",
            "\"future_top_level_field\": {\"nested\": [1, 2]},\n  \"schema_version\"",
            1,
        )
        .replacen(
            "\"cpu_model\"",
            "\"future_fingerprint_field\": true,\n    \"cpu_model\"",
            1,
        )
        .replacen(
            "\"ci95\"",
            "\"future_metric_field\": \"x\",\n      \"ci95\"",
            1,
        );
    assert_ne!(doctored, json, "the injections must have applied");
    let parsed = BenchReport::from_json(&doctored).unwrap();
    assert_eq!(parsed, sample_report());
}

/// A report missing a required field fails loudly, naming the problem.
#[test]
fn missing_required_fields_fail_loudly() {
    let json = sample_report().to_json();
    let broken = json.replacen("\"date\"", "\"dropped_date\"", 1);
    let err = BenchReport::from_json(&broken).unwrap_err();
    assert!(err.contains("invalid bench report"), "{err}");
}

#[test]
fn fingerprint_is_stable_within_a_process() {
    assert_eq!(MachineFingerprint::current(), MachineFingerprint::current());
    let desc = MachineFingerprint::current().describe();
    assert!(desc.contains("cores"), "{desc}");
}

/// The gate file must declare every engine ceiling `bench-report
/// --check` enforces on the `engine.*` probe rows — checked in debug
/// too, so a renamed or missing ceiling fails the test suite instead of
/// silently leaving the probe ungated.
#[test]
fn gate_config_declares_the_engine_ceilings() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench-gates.toml");
    let config = GateConfig::load(&path).expect("repo-root bench-gates.toml must parse");
    for algo in ["rle", "ldp"] {
        for probe in ["warm_ratio", "ctx_churn_frac"] {
            let id = format!("engine.{algo}.{probe}");
            let ceiling = config
                .max_for(&id)
                .unwrap_or_else(|| panic!("bench-gates.toml [max] is missing {id:?}"));
            assert!(
                ceiling > 0.0 && ceiling < 1.0,
                "{id}: ceiling {ceiling} out of (0, 1)"
            );
        }
    }
}
