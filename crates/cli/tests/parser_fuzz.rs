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
