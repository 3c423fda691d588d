//! Fuzz-style tests for the CLI: arbitrary token streams must never
//! crash the binary, and the documented grammar must roundtrip.

use proptest::prelude::*;

fn run_binary(args: &[&str]) -> std::process::Output {
    let exe = env!("CARGO_BIN_EXE_fading");
    std::process::Command::new(exe)
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn no_args_prints_usage_and_exits_2() {
    let out = run_binary(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn help_exits_zero() {
    for args in [&["help"][..], &["--help"], &["-h"], &["schedule", "--help"]] {
        let out = run_binary(args);
        assert_eq!(out.status.code(), Some(0), "fading {}", args.join(" "));
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("USAGE"),
            "fading {}",
            args.join(" ")
        );
    }
}

#[test]
fn unknown_command_exits_nonzero_with_usage() {
    let out = run_binary(&["explode"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));
}

#[test]
fn generate_roundtrip_through_the_binary() {
    let dir = std::env::temp_dir().join("fading_parser_fuzz");
    std::fs::create_dir_all(&dir).unwrap();
    let inst = dir.join("roundtrip.json");
    let out = run_binary(&["generate", "--n", "12", "--out", inst.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = run_binary(&["stats", "--instance", inst.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("12"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary argument soup: the binary must exit cleanly (status
    /// code 0, 1 or 2 — never a crash/abort) and never hang.
    #[test]
    fn arbitrary_args_never_crash(
        tokens in proptest::collection::vec("[a-z0-9=./-]{0,12}", 0..6)
    ) {
        let refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
        let out = run_binary(&refs);
        let code = out.status.code();
        prop_assert!(
            matches!(code, Some(0) | Some(1) | Some(2)),
            "unexpected exit {code:?} for {tokens:?}"
        );
    }
}

/// A tiny valid command line per subcommand, in a directory of inputs
/// the lines read. `bench-report` reads a prior report (`--from`), so
/// its suite never starts.
fn base_lines(dir: &std::path::Path) -> Vec<(String, Vec<String>)> {
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (inst, sched, trace, report) = (
        path("inst.json"),
        path("sched.json"),
        path("trace.jsonl"),
        path("report.json"),
    );
    for line in [
        format!("generate --n 6 --seed 2 --out {inst}"),
        format!("schedule --instance {inst} --algo rle --out {sched} --trace-out {trace}"),
    ] {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let out = run_binary(&tokens);
        assert!(
            out.status.success(),
            "{line}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    // Any committed ledger entry serves as the prior report.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ledger = std::fs::read_dir(&root)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| {
            let name = p.file_name().unwrap().to_string_lossy();
            name.starts_with("BENCH_") && name.ends_with(".json")
        })
        .expect("a committed BENCH_*.json");
    std::fs::copy(ledger, &report).unwrap();
    let problem = "--interference sparse";
    [
        ("generate", format!("--n 4 --out {}", path("gen.json"))),
        ("stats", format!("--instance {inst}")),
        (
            "schedule",
            format!("--instance {inst} --algo rle {problem}"),
        ),
        (
            "simulate",
            format!("--instance {inst} --schedule {sched} --trials 4 {problem}"),
        ),
        (
            "render",
            format!(
                "--instance {inst} --schedule {sched} --out {} --disks 2",
                path("r.svg")
            ),
        ),
        (
            "multislot",
            format!("--instance {inst} --algo greedy {problem}"),
        ),
        (
            "capacity",
            format!("--instance {inst} --schedule {sched} {problem}"),
        ),
        (
            "explain",
            format!("--trace {trace} --verify --instance {inst} --schedule {sched}"),
        ),
        ("churn", format!("--n 5 --slots 2 {problem}")),
        ("bench-report", format!("--from {report}")),
    ]
    .into_iter()
    .map(|(cmd, rest)| {
        (
            cmd.to_string(),
            rest.split_whitespace().map(String::from).collect(),
        )
    })
    .collect()
}

/// Every command's valued flags, read from its generated `--help`.
fn valued_flags(cmd: &str) -> Vec<String> {
    let help = String::from_utf8(run_binary(&[cmd, "--help"]).stdout).unwrap();
    help.lines()
        .filter_map(|l| l.strip_prefix("  --"))
        .filter_map(|l| l.split_once(" <").map(|(name, _)| name.to_string()))
        .collect()
}

/// Table-driven edge values: every valued flag of every command, fed
/// `0`, `-1`, `nan`, `inf` and `1e-300` on a tiny valid line, exits
/// 0, 1 or 2 and never panics.
#[test]
fn every_valued_flag_survives_edge_values() {
    let dir = std::env::temp_dir().join(format!("fading_flag_edges_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bases = base_lines(&dir);
    let usage = String::from_utf8(run_binary(&["help"]).stdout).unwrap();
    let listed: Vec<&str> = usage
        .lines()
        .filter_map(|l| l.strip_prefix("  fading "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let based: Vec<&str> = bases.iter().map(|(cmd, _)| cmd.as_str()).collect();
    assert_eq!(listed, based, "one base line per subcommand");
    let exe = env!("CARGO_BIN_EXE_fading");
    let mut runs = 0;
    for (cmd, base) in &bases {
        let flags = valued_flags(cmd);
        assert!(!flags.is_empty(), "{cmd}");
        for flag in flags {
            for value in ["0", "-1", "nan", "inf", "1e-300"] {
                // Path flags write their files into `dir`, not the
                // working tree.
                let out = std::process::Command::new(exe)
                    .current_dir(&dir)
                    .arg(cmd)
                    .args(base)
                    .args([format!("--{flag}"), value.to_string()])
                    .output()
                    .expect("binary runs");
                let stderr = String::from_utf8_lossy(&out.stderr);
                let line = format!("fading {cmd} {} --{flag} {value}", base.join(" "));
                assert!(
                    matches!(out.status.code(), Some(0..=2)),
                    "{line}: exit {:?}: {stderr}",
                    out.status.code()
                );
                assert!(!stderr.contains("panicked"), "{line}: {stderr}");
                runs += 1;
            }
        }
    }
    assert!(runs > 100, "{runs} runs");
    let _ = std::fs::remove_dir_all(&dir);
}
