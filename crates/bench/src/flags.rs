//! One declarative flag table per command line: every front end (each
//! `fading` subcommand, the figure binaries, `run_all`) declares its
//! flags as rows, and parsing, defaults, range checks, the usage text
//! and the manifest's `config` derive from them. Shared groups are
//! declared once. A malformed command line exits 2; a value outside
//! its range, a missing required flag and runtime failures exit 1.

use fading_core::{AlgoId, BackendChoice};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Instant;
pub use Bound::{Closed, Open};
pub use Kind::{Defaulted, Optional, Required, Switch};
pub use Range::{Count, OneOf, Parsed, Real, Text};

/// What a flag takes: nothing (a switch), or a value (its placeholder)
/// that may be left out, must be given, or has a default.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Switch,
    Optional(&'static str),
    Required(&'static str),
    Defaulted(&'static str, &'static str),
}

/// One end of a [`Range::Real`] interval: excluded or included.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    Open(f64),
    Closed(f64),
}

/// The values a flag accepts: any text, one of some words, an unsigned
/// integer no smaller than a minimum, a real inside an interval (never
/// NaN), or whatever a parser accepts (its error is the message).
#[derive(Debug, Clone, Copy)]
pub enum Range {
    Text,
    OneOf(&'static [&'static str]),
    Count(u64),
    Real(Bound, Bound),
    Parsed(fn(&str) -> Result<(), String>),
}

impl Bound {
    /// The bracket that marks this end, and the end itself.
    fn parts(self, open: char, closed: char) -> (char, f64) {
        match self {
            Open(v) => (open, v),
            Closed(v) => (closed, v),
        }
    }
}

/// A finite real above zero.
pub const POSITIVE: Range = Real(Open(0.0), Open(f64::INFINITY));

/// One row of a flag table: the name (without `--`), what it takes,
/// what it accepts, and one help line.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    pub name: &'static str,
    pub kind: Kind,
    pub range: Range,
    pub help: &'static str,
}

/// A table row.
pub const fn flag(name: &'static str, kind: Kind, range: Range, help: &'static str) -> Flag {
    Flag {
        name,
        kind,
        range,
        help,
    }
}

impl Flag {
    fn placeholder(&self) -> Option<&'static str> {
        match self.kind {
            Switch => None,
            Optional(ph) | Required(ph) | Defaulted(ph, _) => Some(ph),
        }
    }

    /// Checks a value; the message names the flag and echoes the value.
    pub fn check(&self, raw: &str) -> Result<(), String> {
        let name = self.name;
        let ok = match self.range {
            Text => true,
            OneOf(words) => words.contains(&raw),
            Count(min) => raw.parse::<u64>().map_err(|e| cannot_parse(name, raw, e))? >= min,
            Real(lo, hi) => {
                let v = raw.parse::<f64>().map_err(|e| cannot_parse(name, raw, e))?;
                let above = matches!(lo, Open(lo) if v > lo) || matches!(lo, Closed(lo) if v >= lo);
                above && (matches!(hi, Open(hi) if v < hi) || matches!(hi, Closed(hi) if v <= hi))
            }
            Parsed(parse) => return parse(raw).map_err(|e| format!("--{name}: {e}")),
        };
        match ok {
            true => Ok(()),
            false => Err(format!("--{name} must be {}, got {raw}", self.range)),
        }
    }
}

fn cannot_parse(name: &str, raw: &str, e: impl fmt::Display) -> String {
    format!("option --{name}: cannot parse {raw:?}: {e}")
}

impl fmt::Display for Range {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Text | Parsed(_) => Ok(()),
            OneOf(words) => write!(f, "one of {}", words.join("|")),
            Count(min) => write!(f, "an integer >= {min}"),
            Real(lo, hi) => {
                let (open, lo) = lo.parts('(', '[');
                let (close, hi) = hi.parts(')', ']');
                write!(f, "in {open}{lo}, {hi}{close}")
            }
        }
    }
}

/// The observability flags every front end takes.
#[rustfmt::skip]
pub const OBSERVABILITY: &[Flag] = &[
    flag("metrics-out", Optional("path"), Text, "write a run manifest (config, metrics, spans, artifact hashes)"),
    flag("trace-out", Optional("path"), Text, "write the schedulers' decision trace as JSONL (read it with `fading explain`)"),
    flag("progress", Switch, Text, "throttled progress on stderr"),
    flag("quiet", Switch, Text, "suppress progress and chatter"),
];

/// The Prometheus snapshot (the CLI's only).
#[rustfmt::skip]
pub const PROM_OUT: Flag = flag("prom-out", Optional("path"), Text, "write the metrics snapshot in Prometheus text exposition format");

/// The interference backend of every `Problem` a command builds.
#[rustfmt::skip]
pub const INTERFERENCE: Flag = flag("interference", Defaulted("backend", "dense"), Parsed(|v| BackendChoice::parse(v).map(drop)),
    "dense (exact N×N), sparse (truncated store) or auto (sparse above 4096 links)");

/// `--quick`: the reduced grid.
pub const QUICK: Flag = flag("quick", Switch, Text, "reduced grid for a fast smoke run");

/// The figure, ablation and extension binaries' own flags.
#[rustfmt::skip]
pub const FIGURE: &[Flag] = &[
    QUICK,
    flag("csv", Switch, Text, "also write results/<name>.csv"),
    flag("json", Switch, Text, "also write results/<name>.json"),
    INTERFERENCE,
    flag("algos", Optional("id list"), Parsed(|v| parse_algos(v).map(drop)), "algorithms to sweep, comma-separated (default: the figure's panel)"),
];

/// Parses `--algos`: comma-separated [`AlgoId`] names.
pub(crate) fn parse_algos(list: &str) -> Result<Vec<AlgoId>, String> {
    list.split(',').map(|name| name.trim().parse()).collect()
}

/// A command line that did not parse, with its process exit code.
#[derive(Debug, Clone)]
pub struct ParseError {
    pub message: String,
    pub code: i32,
}

/// A parsed command line: the flags given, checked against the
/// command's table, which supplies the defaults. `help` is set by
/// `--help` or `-h`.
#[derive(Debug, Clone)]
pub struct Args {
    pub command: String,
    pub help: bool,
    flags: Vec<Flag>,
    given: BTreeMap<&'static str, String>,
}

/// Parses `(--flag value | --switch)*` against `command`'s groups;
/// `--help` or `-h` anywhere skips every check.
pub fn parse<I>(command: &str, groups: &[&[Flag]], argv: I) -> Result<Args, ParseError>
where
    I: IntoIterator<Item = String>,
{
    let usage = |message| ParseError { message, code: 2 };
    let argv: Vec<String> = argv.into_iter().collect();
    let mut args = Args {
        command: command.to_string(),
        help: argv.iter().any(|t| t == "--help" || t == "-h"),
        flags: groups.concat(),
        given: BTreeMap::new(),
    };
    if args.help {
        return Ok(args);
    }
    let mut it = argv.into_iter();
    while let Some(token) = it.next() {
        let name = token
            .strip_prefix("--")
            .ok_or_else(|| usage(format!("expected --flag, got {token}")))?;
        let flag = *args
            .find(name)
            .ok_or_else(|| usage(format!("unknown option --{name} for `{command}`")))?;
        let value = match flag.placeholder() {
            None => "true".to_string(),
            Some(ph) => it
                .next()
                .ok_or_else(|| usage(format!("--{name} is missing its {ph}")))?,
        };
        args.given.insert(flag.name, value);
    }
    for flag in &args.flags {
        let checked = match args.given.get(flag.name) {
            Some(raw) => flag.check(raw),
            None if matches!(flag.kind, Required(_)) => {
                Err(format!("missing required option --{}", flag.name))
            }
            None => Ok(()),
        };
        checked.map_err(|message| ParseError { message, code: 1 })?;
    }
    Ok(args)
}

/// Parses the process's arguments against `groups`; on `--help` prints
/// the usage and exits 0, on an error prints it and exits.
pub fn parse_env(groups: &[&[Flag]]) -> Args {
    let mut argv = std::env::args();
    let program = argv.next().unwrap_or_default();
    let program = Path::new(&program)
        .file_stem()
        .map_or(program.clone(), |s| s.to_string_lossy().into_owned());
    let usage = help_text(&program, "", &groups.concat());
    match parse(&program, groups, argv) {
        Ok(args) if args.help => {
            print!("{usage}");
            std::process::exit(0);
        }
        Ok(args) => args,
        Err(e) => {
            eprint!("error: {}\n{usage}", e.message);
            std::process::exit(e.code);
        }
    }
}

impl Args {
    fn find(&self, key: &str) -> Option<&Flag> {
        self.flags.iter().find(|f| f.name == key)
    }

    /// Whether the command's table declares `key`.
    pub fn declares(&self, key: &str) -> bool {
        self.find(key).is_some()
    }

    /// Whether `key` was typed on the command line (not defaulted).
    pub fn given(&self, key: &str) -> bool {
        self.get(key).and(self.given.get(key)).is_some()
    }

    /// The value of `key`: as given, else its default.
    pub fn get(&self, key: &str) -> Option<&str> {
        let flag = self.find(key);
        let command = &self.command;
        debug_assert!(
            flag.is_some(),
            "`{command}` reads --{key}, which its table lacks"
        );
        let default = match flag?.kind {
            Defaulted(_, default) => Some(default),
            _ => None,
        };
        self.given.get(key).map(String::as_str).or(default)
    }

    /// Whether the switch `key` was given.
    pub fn flag(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// The value of `key`, which must be present.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// The typed value of `key`, which must be present.
    pub fn value<T: std::str::FromStr>(&self, key: &str) -> Result<T, String>
    where
        T::Err: fmt::Display,
    {
        let raw = self.require(key)?;
        raw.parse().map_err(|e| cannot_parse(key, raw, e))
    }

    /// The typed value of `key`, if present.
    pub fn opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String>
    where
        T::Err: fmt::Display,
    {
        self.get(key).map(|_| self.value(key)).transpose()
    }

    /// Every flag's effective value in table order (switches `true` or
    /// `false`); optional flags left out are skipped.
    pub fn effective(&self) -> impl Iterator<Item = (&'static str, &str)> {
        self.flags.iter().filter_map(|f| match f.kind {
            Switch => Some((f.name, if self.flag(f.name) { "true" } else { "false" })),
            _ => self.get(f.name).map(|v| (f.name, v)),
        })
    }

    /// Writes a line of chatter to `out` unless `--quiet`.
    pub fn say(&self, out: &mut dyn std::io::Write, line: String) -> Result<(), String> {
        match self.flag("quiet") {
            true => Ok(()),
            false => writeln!(out, "{line}").map_err(|e| e.to_string()),
        }
    }

    /// Arms progress (unless `--quiet`) and `--trace-out` tracing.
    pub fn arm(&self) {
        fading_obs::set_progress(self.flag("progress") && !self.flag("quiet"));
        if self.get("trace-out").is_some() {
            fading_obs::set_tracing(true);
            let _ = fading_obs::take_trace(); // start from an empty ring
        }
    }

    /// Stops the tracing [`Args::arm`] started.
    pub fn disarm(&self) {
        if self.get("trace-out").is_some() {
            fading_obs::set_tracing(false);
        }
    }

    /// Writes a successful run's trace, Prometheus snapshot and
    /// manifest `name` (its `config` is every flag's effective value),
    /// announcing each on `out` unless `--quiet`.
    pub fn finish(
        &self,
        name: &str,
        started: Instant,
        seed: u64,
        artifacts: &[(String, PathBuf)],
        out: &mut dyn std::io::Write,
    ) -> Result<(), String> {
        self.disarm();
        let mut artifacts = artifacts.to_vec();
        if let Some(path) = self.get("trace-out") {
            let trace = fading_obs::take_trace();
            trace.write(Path::new(path))?;
            let events = trace.events.len();
            self.say(out, format!("wrote {events} trace events to {path}"))?;
            artifacts.insert(0, ("trace".into(), path.into()));
        }
        if let Some(path) = self.find("prom-out").and_then(|_| self.get("prom-out")) {
            let text = fading_obs::render_prometheus(&fading_obs::snapshot());
            std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
            artifacts.push(("prometheus".into(), path.into()));
            self.say(out, format!("wrote prometheus metrics to {path}"))?;
        }
        if let Some(path) = self.get("metrics-out") {
            let mut builder = fading_obs::ManifestBuilder::new(name)
                .started_at(started)
                .seed(seed);
            for (key, value) in self.effective() {
                builder = builder.config_kv(key, value);
            }
            for (kind, artifact) in &artifacts {
                builder = builder.artifact(kind, artifact);
            }
            builder.finish().write(Path::new(path))?;
            self.say(out, format!("wrote metrics manifest to {path}"))?;
        }
        Ok(())
    }
}

/// A command's help: its synopsis, its `about` prose and one line per
/// flag.
pub fn help_text(program: &str, about: &str, flags: &[Flag]) -> String {
    let about = match about {
        "" => String::new(),
        _ => format!(
            "  {}\n\n",
            wrap(about.split_whitespace().map(String::from), 2)
        ),
    };
    let (synopsis, flags) = (synopsis(program, flags), describe(flags));
    format!("USAGE:\n{synopsis}\n{about}FLAGS:\n{flags}")
}

/// `  <lead> <flag> …`, wrapped under the first flag; optional flags
/// in brackets, with the default in place of the placeholder.
pub fn synopsis(lead: &str, flags: &[Flag]) -> String {
    let items = flags.iter().map(|f| match f.kind {
        Switch => format!("[--{}]", f.name),
        Optional(ph) => format!("[--{} <{ph}>]", f.name),
        Required(ph) => format!("--{} <{ph}>", f.name),
        Defaulted(_, default) => format!("[--{} {default}]", f.name),
    });
    format!("  {lead} {}\n", wrap(items, 3 + lead.chars().count()))
}

/// One aligned line per flag: help, range, and default or `required`.
pub fn describe(flags: &[Flag]) -> String {
    let left = |f: &Flag| match f.placeholder() {
        Some(ph) => format!("--{} <{ph}>", f.name),
        None => format!("--{}", f.name),
    };
    let width = flags
        .iter()
        .map(|f| left(f).chars().count())
        .max()
        .unwrap_or(0);
    let mut text = String::new();
    for f in flags {
        // The range and the default each stay whole on one line.
        let mut units: Vec<String> = f.help.split_whitespace().map(String::from).collect();
        let tail = match f.kind {
            Required(_) => Some("required".to_string()),
            Defaulted(_, default) => Some(format!("default {default}")),
            _ => None,
        };
        let range = Some(f.range.to_string()).filter(|r| !r.is_empty());
        for unit in [range, tail].into_iter().flatten() {
            if let Some(last) = units.last_mut() {
                last.push(';');
            }
            units.push(unit);
        }
        text += &format!("  {:<width$}  {}\n", left(f), wrap(units, width + 4));
    }
    text
}

/// Joins `units` into lines of at most 78 columns that start at column
/// `indent` (the caller writes the first line's indent).
pub fn wrap(units: impl IntoIterator<Item = String>, indent: usize) -> String {
    let mut text = String::new();
    let mut col = indent;
    for unit in units {
        let len = unit.chars().count();
        if col > indent && col + 1 + len > 78 {
            text = text + "\n" + &" ".repeat(indent);
            col = indent;
        } else if col > indent {
            text.push(' ');
            col += 1;
        }
        text += &unit;
        col += len;
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[rustfmt::skip]
    const TABLE: &[Flag] = &[
        flag("n", Required("links"), Count(1), "link count"),
        flag("seed", Defaulted("u64", "0"), Count(0), "seed"),
        flag("alpha", Defaulted("exponent", "3"), Real(Open(2.0), Open(f64::INFINITY)), "exponent"),
        flag("out", Optional("file"), Text, "output"),
        flag("policy", Optional("name"), OneOf(&["maxweight", "plain"]), "policy"),
    ];

    fn parse_line(line: &str) -> Result<Args, ParseError> {
        parse("x", &[TABLE, OBSERVABILITY], argv(line))
    }

    #[test]
    fn parses_values_switches_and_defaults() {
        let a = parse_line("--n 100 --seed 7 --progress --quiet").unwrap();
        assert_eq!(a.require("n").unwrap(), "100");
        assert_eq!(a.value::<u64>("seed").unwrap(), 7);
        assert_eq!(a.value::<f64>("alpha").unwrap(), 3.0);
        assert!(a.flag("progress") && a.flag("quiet"));
        assert!(!a.flag("metrics-out"));
        assert!(a.get("out").is_none());
        assert_eq!(a.opt::<String>("out").unwrap(), None);
        assert!(a.given("seed") && !a.given("alpha"));
    }

    #[test]
    fn later_flags_override_earlier() {
        let a = parse_line("--n 1 --n 2").unwrap();
        assert_eq!(a.get("n"), Some("2"));
    }

    #[test]
    fn switches_do_not_swallow_values() {
        let a = parse_line("--progress --n 50 --quiet --out o.json").unwrap();
        assert!(a.flag("progress"));
        assert_eq!(a.value::<u64>("n").unwrap(), 50);
        assert_eq!(a.get("out"), Some("o.json"));
    }

    #[test]
    fn help_anywhere_skips_every_check() {
        for line in ["--help", "-h", "--bogus --help", "--n x -h"] {
            let a = parse_line(line).unwrap();
            assert!(a.help, "{line}");
        }
    }

    #[test]
    fn grammar_errors_are_usage_errors() {
        for (line, needle) in [
            ("--n", "--n is missing its links"),
            ("--n 5 --trails 5", "unknown option --trails for `x`"),
            ("--n 5 stray", "expected --flag, got stray"),
        ] {
            let err = parse_line(line).unwrap_err();
            assert_eq!(err.code, 2, "{line}");
            assert!(err.message.contains(needle), "{line}: {err:?}");
        }
    }

    #[test]
    fn value_errors_name_flag_and_value() {
        for (line, needle) in [
            ("", "missing required option --n"),
            ("--n 0", "--n must be an integer >= 1, got 0"),
            (
                "--n five",
                "option --n: cannot parse \"five\": invalid digit",
            ),
            ("--n 1 --alpha 2", "--alpha must be in (2, inf), got 2"),
            ("--n 1 --alpha nan", "--alpha must be in (2, inf), got nan"),
            ("--n 1 --alpha inf", "--alpha must be in (2, inf), got inf"),
            (
                "--n 1 --policy fair",
                "--policy must be one of maxweight|plain, got fair",
            ),
        ] {
            let err = parse_line(line).unwrap_err();
            assert_eq!(err.code, 1, "{line}");
            assert!(err.message.contains(needle), "{line}: {err:?}");
        }
    }

    #[test]
    fn effective_values_cover_defaults_and_switches() {
        let a = parse_line("--n 4 --progress").unwrap();
        let config: Vec<_> = a.effective().collect();
        assert_eq!(
            config,
            [
                ("n", "4"),
                ("seed", "0"),
                ("alpha", "3"),
                ("progress", "true"),
                ("quiet", "false")
            ]
        );
    }

    #[test]
    fn help_lists_every_flag_with_range_and_default() {
        let text = help_text("x", "", &[TABLE, OBSERVABILITY].concat());
        assert!(text.starts_with("USAGE:\n  x --n <links> [--seed 0] [--alpha 3]"));
        assert!(text.contains("--alpha <exponent>"), "{text}");
        assert!(text.contains("in (2, inf); default 3"), "{text}");
        assert!(
            text.contains("link count; an integer >= 1; required"),
            "{text}"
        );
        for line in text.lines() {
            assert!(line.chars().count() <= 78, "{line}");
        }
    }

    #[test]
    fn shared_defaults_satisfy_their_ranges() {
        for flag in OBSERVABILITY.iter().chain(FIGURE).chain([&PROM_OUT]) {
            if let Defaulted(_, default) = flag.kind {
                flag.check(default).unwrap();
            }
        }
    }
}
