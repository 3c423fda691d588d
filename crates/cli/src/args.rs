//! Minimal `--key value` argument parsing.
//!
//! Deliberately hand-rolled: the CLI needs exactly flag/value pairs and
//! positional subcommands, not a parser framework dependency.

use std::collections::BTreeMap;

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Args {
    /// The first positional argument.
    pub command: String,
    /// All `--key value` pairs (later occurrences win).
    pub options: BTreeMap<String, String>,
}

/// Flags that never take a value; their presence stores `"true"`.
pub const BOOLEAN_FLAGS: &[&str] = &[
    "progress",
    "quiet",
    "budgets",
    "verify",
    "check",
    "quick",
    "smoke",
    "watch",
    "series-timings",
];

/// Parses an argument vector (excluding the program name).
///
/// Grammar: `<command> (--key value | --boolean-flag)*`. A trailing
/// `--key` without a value, or a stray positional, is an error.
/// `--help` or `-h` anywhere asks for the `help` command.
pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, String> {
    let argv: Vec<String> = argv.into_iter().collect();
    if argv.iter().any(|t| t == "--help" || t == "-h") {
        return Ok(Args {
            command: "help".to_string(),
            options: BTreeMap::new(),
        });
    }
    let mut it = argv.into_iter();
    let command = it.next().ok_or("missing subcommand")?;
    if command.starts_with("--") {
        return Err(format!("expected a subcommand, got flag {command}"));
    }
    let mut options = BTreeMap::new();
    while let Some(tok) = it.next() {
        let key = tok
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {tok}"))?;
        if BOOLEAN_FLAGS.contains(&key) {
            options.insert(key.to_string(), "true".to_string());
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag --{key} is missing its value"))?;
        options.insert(key.to_string(), value);
    }
    Ok(Args { command, options })
}

impl Args {
    /// A required string option.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.options
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// An optional string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// An optional typed option with a default. The error names the
    /// flag, echoes the raw value, and keeps the parser's own message.
    pub fn get_or<T>(&self, key: &str, default: T) -> Result<T, String>
    where
        T: std::str::FromStr,
        T::Err: std::fmt::Display,
    {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|e| format!("option --{key}: cannot parse {v:?}: {e}")),
        }
    }

    /// Whether a boolean flag (see [`BOOLEAN_FLAGS`]) was given.
    pub fn flag(&self, key: &str) -> bool {
        self.options.get(key).is_some_and(|v| v != "false")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_command_and_flags() {
        let a = parse(argv("generate --n 100 --seed 7")).unwrap();
        assert_eq!(a.command, "generate");
        assert_eq!(a.require("n").unwrap(), "100");
        assert_eq!(a.get_or::<u64>("seed", 0).unwrap(), 7);
    }

    #[test]
    fn later_flags_override_earlier() {
        let a = parse(argv("x --k 1 --k 2")).unwrap();
        assert_eq!(a.get("k"), Some("2"));
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = parse(argv("x")).unwrap();
        assert_eq!(a.get_or::<f64>("alpha", 3.0).unwrap(), 3.0);
        assert!(a.get("missing").is_none());
    }

    #[test]
    fn missing_subcommand_is_an_error() {
        assert!(parse(Vec::<String>::new()).is_err());
        assert!(parse(argv("--n 5")).is_err());
    }

    #[test]
    fn help_flag_anywhere_is_the_help_command() {
        for line in [
            "--help",
            "-h",
            "schedule --help",
            "schedule --instance x -h",
        ] {
            let a = parse(argv(line)).unwrap();
            assert_eq!(a.command, "help", "{line}");
            assert!(a.options.is_empty(), "{line}");
        }
    }

    #[test]
    fn dangling_flag_is_an_error() {
        assert!(parse(argv("x --n")).is_err());
    }

    #[test]
    fn unparsable_value_is_an_error() {
        let a = parse(argv("x --n five")).unwrap();
        assert!(a.get_or::<usize>("n", 1).is_err());
    }

    #[test]
    fn parse_errors_name_flag_value_and_cause() {
        let a = parse(argv("x --n five")).unwrap();
        let err = a.get_or::<usize>("n", 1).unwrap_err();
        assert!(err.contains("--n"), "{err}");
        assert!(err.contains("\"five\""), "{err}");
        assert!(err.contains("invalid digit"), "kept cause: {err}");
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let a = parse(argv("simulate --progress --trials 50 --quiet")).unwrap();
        assert!(a.flag("progress"));
        assert!(a.flag("quiet"));
        assert!(!a.flag("metrics-out"));
        assert_eq!(a.get_or::<u64>("trials", 0).unwrap(), 50);
    }

    #[test]
    fn telemetry_booleans_do_not_swallow_values() {
        let a = parse(argv(
            "churn --watch --series-timings --series-out s.jsonl --slots 10",
        ))
        .unwrap();
        assert!(a.flag("watch"));
        assert!(a.flag("series-timings"));
        assert_eq!(a.get("series-out"), Some("s.jsonl"));
        assert_eq!(a.get_or::<u64>("slots", 0).unwrap(), 10);
    }

    #[test]
    fn bench_report_booleans_do_not_swallow_values() {
        // `--check`/`--quick` are presence flags: the token after them
        // must still parse as its own flag.
        let a = parse(argv("bench-report --check --quick --filter rle")).unwrap();
        assert!(a.flag("check"));
        assert!(a.flag("quick"));
        assert_eq!(a.get("filter"), Some("rle"));
    }

    #[test]
    fn require_reports_the_flag_name() {
        let a = parse(argv("x")).unwrap();
        let err = a.require("out").unwrap_err();
        assert!(err.contains("--out"), "{err}");
    }
}
