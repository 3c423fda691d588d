//! The flag table of every `fading` subcommand.
//!
//! Each subcommand is one [`Command`] row whose flags are composed from
//! shared groups ([`PROBLEM`], [`GEOMETRY`], the global observability
//! flags) and its own. Parsing, defaults, range checks, `fading help`
//! and `fading <command> --help` all derive from these rows (see
//! `fading_bench::flags`).

use crate::bench_report::bench_report;
use crate::commands::*;
use crate::explain::explain;
use fading_bench::flags::parse as parse_flags;
use fading_bench::flags::*;
use fading_core::AlgoId;

/// A subcommand: its name, the prose its help prints under the
/// synopsis, its body, and its own flag groups.
pub struct Command {
    pub name: &'static str,
    pub about: &'static str,
    pub run: Run,
    pub flags: &'static [&'static [Flag]],
}

const INF: f64 = f64::INFINITY;
const ALGO_NAME: Range = Parsed(|v| v.parse::<AlgoId>().map(drop));

/// Flags every subcommand takes.
const GLOBAL: &[&[Flag]] = &[OBSERVABILITY, &[PROM_OUT]];

/// The channel and interference model of the problem a command builds.
#[rustfmt::skip]
pub const PROBLEM: &[Flag] = &[
    flag("alpha", Defaulted("exponent", "3"), Real(Open(2.0), Open(INF)), "path-loss exponent α"),
    flag("eps", Defaulted("prob", "0.01"), Real(Open(0.0), Open(1.0)), "per-link outage budget ε"),
    INTERFERENCE,
    flag("tail-rtol", Optional("frac"), Real(Open(0.0), Closed(1.0)),
        "with --interference sparse: omitted factors stay below tail-rtol × γ_ε (default 1e-3)"),
];

/// The uniform deployment `generate` and `churn` draw links from.
/// `--len-hi` admits `inf` so that the cross-flag check, which needs
/// `len-lo <= len-hi < inf`, names both lengths.
#[rustfmt::skip]
pub const GEOMETRY: &[Flag] = &[
    flag("side", Defaulted("units", "500"), POSITIVE, "side of the square deployment region"),
    flag("len-lo", Defaulted("units", "5"), POSITIVE, "shortest link length"),
    flag("len-hi", Defaulted("units", "20"), Real(Open(0.0), Closed(INF)), "longest link length, finite and >= len-lo"),
];

const SEED: Flag = flag("seed", Defaulted("u64", "0"), Count(0), "random seed");
const INSTANCE: Flag = flag("instance", Required("file"), Text, "instance JSON");
const SCHEDULE: Flag = flag("schedule", Required("file"), Text, "schedule JSON");
const ALGO: Flag = flag("algo", Required("name"), ALGO_NAME, "scheduling algorithm");

/// Every subcommand, in `fading help` order.
#[rustfmt::skip]
pub const COMMANDS: &[Command] = &[
    Command { name: "generate", run: generate, about: "", flags: &[&[
        flag("n", Required("links"), Count(1), "number of links"),
        flag("out", Required("file"), Text, "write the instance JSON here"),
    ], GEOMETRY, &[
        SEED,
        flag("rate", Defaulted("rate", "1.0"), POSITIVE, "data rate of every link"),
    ]] },
    Command { name: "stats", run: stats, about: "", flags: &[&[INSTANCE]] },
    Command { name: "schedule", run: schedule, about: "", flags: &[&[INSTANCE, ALGO], PROBLEM, &[
        flag("out", Optional("file"), Text, "write the schedule JSON here"),
    ]] },
    Command { name: "simulate", run: simulate, about: "", flags: &[&[INSTANCE, SCHEDULE], PROBLEM, &[
        flag("trials", Defaulted("count", "1000"), Count(1), "Rayleigh slots to draw"),
        SEED,
    ]] },
    Command { name: "render", run: render, about: "", flags: &[&[
        INSTANCE,
        flag("out", Required("file.svg"), Text, "write the SVG here"),
        flag("schedule", Optional("file"), Text, "highlight this schedule"),
        flag("width", Defaulted("px", "800"), POSITIVE, "canvas width"),
        flag("grid-cell", Optional("units"), POSITIVE, "overlay the grid partition with this cell side"),
        flag("disks", Optional("radius-factor"), POSITIVE, "draw each scheduled receiver's deletion disk"),
    ]] },
    Command { name: "multislot", run: multislot, about: "", flags: &[&[INSTANCE, ALGO], PROBLEM] },
    Command { name: "capacity", run: capacity, about: "", flags: &[&[INSTANCE, SCHEDULE], PROBLEM] },
    Command { name: "explain", run: explain, about: "", flags: &[&[
        flag("trace", Required("file.jsonl"), Text, "decision trace written with --trace-out"),
        flag("link", Optional("id"), Count(0), "why this link was picked or eliminated"),
        flag("budgets", Switch, Text, "per-receiver budget ledger of one elimination block"),
        flag("cascade", Optional("pick#"), Count(1), "the eliminations pick number <pick#> triggered"),
        flag("block", Defaulted("idx", "0"), Count(0), "the block --budgets and --cascade read"),
        flag("verify", Switch, Text, "replay the trace against --instance and certify it"),
        flag("instance", Optional("file"), Text, "with --verify: the instance the trace was recorded on"),
        flag("schedule", Optional("file"), Text, "with --verify: the schedule the replay must reproduce"),
    ], PROBLEM] },
    Command { name: "churn", run: churn, about: CHURN_ABOUT, flags: &[&[
        flag("n", Defaulted("links", "50"), Count(1), "seed population"),
        flag("slots", Defaulted("count", "200"), Count(1), "horizon in slots"),
        flag("algo", Defaulted("name", "greedy"), ALGO_NAME, "scheduling algorithm"),
        flag("policy", Defaulted("policy", "maxweight"), OneOf(&["maxweight", "plain"]), "service policy"),
        flag("link-rate", Defaulted("rate", "1.0"), Real(Closed(0.0), Open(INF)), "Poisson link arrivals per slot"),
        flag("lifetime", Defaulted("slots", "50"), Real(Closed(1.0), Open(INF)), "mean link lifetime (exponential)"),
        flag("packet-prob", Defaulted("prob", "0.2"), Real(Closed(0.0), Closed(1.0)), "packet arrival probability per link and slot"),
        flag("frontier", Optional("p1,p2,..."), Parsed(|v| parse_frontier(v).map(drop)), "sweep these packet probabilities"),
        SEED,
    ], PROBLEM, GEOMETRY, &[
        flag("out", Optional("file.json"), Text, "write the churn result (or frontier) JSON here"),
        flag("series-out", Optional("file.jsonl"), Text, "stream one JSON line per slot"),
        flag("series-timings", Switch, Text, "with --series-out: append the measured per-phase ns fields"),
        flag("series-cadence", Defaulted("slots", "1"), Count(1), "with --series-out: record every this many slots"),
        flag("flight-out", Optional("dir"), Text, "arm the flight recorder; dump post-mortem bundles here"),
        flag("flight-slots", Defaulted("slots", "64"), Count(1), "with --flight-out: slots the recorder keeps"),
        flag("watch", Switch, Text, "live slots/sec + phase-split + health progress line"),
    ]] },
    Command { name: "bench-report", run: bench_report, about: BENCH_REPORT_ABOUT, flags: &[&[
        flag("out", Optional("file"), Text, "ledger entry (default BENCH_<date>.json; target/BENCH_current.json with --check)"),
        flag("dir", Defaulted("repo-root", "."), Text, "where the committed BENCH_*.json live"),
        flag("check", Switch, Text, "diff against the newest committed entry under the gates"),
        flag("baseline", Optional("file"), Text, "diff against this entry instead"),
        flag("gates", Optional("file"), Text, "gate thresholds (default <dir>/bench-gates.toml)"),
        flag("quick", Switch, Text, "fewer samples per bench"),
        flag("smoke", Switch, Text, "run the release smoke workloads instead of the micro suite"),
        flag("filter", Optional("substr"), Text, "only the benches whose id contains this"),
        flag("from", Optional("file"), Text, "reuse this report instead of running the suite"),
        flag("diff-out", Optional("file"), Text, "also write the diff table here"),
    ]] },
];

const CHURN_ABOUT: &str = "streaming run: links arrive (Poisson, --link-rate per slot) and \
depart (exponential --lifetime) while the engine patches the live problem in place; \
--frontier sweeps packet load and prints the stability table. --series-out streams one \
JSON line per slot (deterministic per seed); --flight-out arms the flight recorder, which \
keeps the last --flight-slots slots + their decision traces and dumps a replayable \
post-mortem bundle into the directory when an anomaly fires (its capture is per-thread, \
so --trace-out still records every slot); --watch turns the progress line into a live \
slots/sec + phase-split + health view (see docs/telemetry.md)";

const BENCH_REPORT_ABOUT: &str = "runs the bench suite and writes a perf-trajectory ledger \
entry; --check diffs it against the newest committed BENCH_*.json and exits 0 (clean), 1 \
(regression), or 2 (fingerprint mismatch: would-be regressions downgraded to warnings); \
--smoke runs the release smoke workloads (smoke.* wall-clock rows gated by \
bench-gates.toml [max]) instead of the micro suite — including the 10^5- and 10^6-link \
sparse-substrate builds with RLE+LDP end-to-end";

/// Parses `--frontier`: comma-separated probabilities in `[0,1]`.
pub fn parse_frontier(list: &str) -> Result<Vec<f64>, String> {
    let probs: Vec<f64> = list
        .split(',')
        .map(|v| {
            v.trim()
                .parse()
                .map_err(|e| format!("cannot parse {v:?}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    if probs.iter().any(|p| !(0.0..=1.0).contains(p)) {
        return Err("needs comma-separated probabilities in [0,1]".into());
    }
    Ok(probs)
}

pub(crate) fn command(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}

/// Parses an argument vector (excluding the program name): a
/// subcommand, then its flags. `help`, `--help` or `-h` first is the
/// `help` command; an unknown subcommand exits 1 with the usage.
pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, ParseError> {
    let mut argv = argv.into_iter();
    let name = argv.next().unwrap_or_default();
    let (message, code) = match name.as_str() {
        "help" | "--help" | "-h" => return parse_flags("help", &[], std::iter::empty()),
        "" => ("missing subcommand".to_string(), 2),
        flag if flag.starts_with("--") => (format!("expected a subcommand, got flag {flag}"), 2),
        name => match command(name) {
            Some(cmd) => return parse_flags(cmd.name, &[cmd.flags, GLOBAL].concat(), argv),
            None => (format!("unknown subcommand {name}\n\n{}", usage()), 1),
        },
    };
    Err(ParseError { message, code })
}

/// The help for `name`: the full usage for `help`, else the command's.
pub fn help(name: &str) -> String {
    match command(name) {
        Some(cmd) => {
            let flags = [cmd.flags, GLOBAL].concat().concat();
            help_text(&format!("fading {name}"), cmd.about, &flags)
        }
        None => usage(),
    }
}

/// The usage text `fading help` prints.
pub fn usage() -> String {
    let mut text = String::from(
        "fading — fading-resistant link scheduling (ICPP 2017 reproduction)\n\nUSAGE:\n",
    );
    for cmd in COMMANDS {
        let lead = format!("fading {:<8}", cmd.name);
        text += &synopsis(&lead, &cmd.flags.concat());
        if !cmd.about.is_empty() {
            let about = wrap(
                cmd.about.split_whitespace().map(String::from),
                3 + lead.len(),
            );
            text += &format!("{}{about}\n", " ".repeat(3 + lead.len()));
        }
    }
    let algos = AlgoId::ALL.map(AlgoId::as_str).join(" | ");
    text + "\n  `fading <command> --help` describes each flag of one command.\n\nALGORITHMS:\n  "
        + &wrap(algos.split(' ').map(String::from), 2)
        + "\n\nGLOBAL FLAGS (every subcommand):\n"
        + &describe(&GLOBAL.concat())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_command_and_flags() {
        let a = parse(argv("generate --n 100 --seed 7 --out x.json")).unwrap();
        assert_eq!(a.command, "generate");
        assert_eq!(a.require("n").unwrap(), "100");
        assert_eq!(a.value::<u64>("seed").unwrap(), 7);
    }

    #[test]
    fn later_flags_override_earlier() {
        let a = parse(argv("stats --instance a --instance b")).unwrap();
        assert_eq!(a.get("instance"), Some("b"));
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = parse(argv("schedule --instance i --algo rle")).unwrap();
        assert_eq!(a.value::<f64>("alpha").unwrap(), 3.0);
        assert!(a.get("out").is_none());
    }

    #[test]
    fn missing_subcommand_is_an_error() {
        assert!(parse(Vec::<String>::new()).is_err());
        assert!(parse(argv("--n 5")).is_err());
    }

    #[test]
    fn help_flag_anywhere_is_the_help_command() {
        for line in ["--help", "-h", "help"] {
            let a = parse(argv(line)).unwrap();
            assert_eq!(a.command, "help", "{line}");
        }
        for line in ["schedule --help", "schedule --instance x -h"] {
            let a = parse(argv(line)).unwrap();
            assert_eq!(a.command, "schedule", "{line}");
            assert!(a.help, "{line}");
        }
    }

    #[test]
    fn dangling_flag_is_an_error() {
        let err = parse(argv("stats --instance")).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("missing its file"), "{err:?}");
    }

    #[test]
    fn unparsable_value_is_an_error() {
        assert!(parse(argv("generate --out o --n five")).is_err());
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let a = parse(argv(
            "simulate --progress --trials 50 --quiet --instance i --schedule s",
        ))
        .unwrap();
        assert!(a.flag("progress"));
        assert!(a.flag("quiet"));
        assert!(!a.flag("metrics-out"));
        assert_eq!(a.value::<u64>("trials").unwrap(), 50);
    }

    #[test]
    fn parse_errors_name_flag_value_and_cause() {
        let err = parse(argv("generate --out o --n five")).unwrap_err();
        assert!(err.message.contains("--n"), "{err:?}");
        assert!(err.message.contains("\"five\""), "{err:?}");
        assert!(err.message.contains("invalid digit"), "kept cause: {err:?}");
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
        assert_eq!(a.value::<u64>("slots").unwrap(), 10);
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
        let err = parse(argv("stats")).unwrap_err();
        assert!(err.message.contains("--instance"), "{err:?}");
    }

    #[test]
    fn every_table_is_well_formed() {
        for cmd in COMMANDS {
            let all = [cmd.flags, GLOBAL].concat().concat();
            for (i, flag) in all.iter().enumerate() {
                assert!(
                    all[..i].iter().all(|f| f.name != flag.name),
                    "{}: --{} declared twice",
                    cmd.name,
                    flag.name
                );
                if let Defaulted(_, default) = flag.kind {
                    flag.check(default).unwrap();
                }
            }
        }
    }

    #[test]
    fn help_lists_tail_rtol_for_every_command_that_takes_it() {
        let text = usage();
        for cmd in COMMANDS {
            let mut lines = text
                .lines()
                .skip_while(|l| !l.starts_with(&format!("  fading {} ", cmd.name)));
            let first = lines.next().unwrap_or_default();
            let block = lines
                .take_while(|l| l.starts_with("   "))
                .fold(first.to_string(), |block, l| block + l);
            let takes = cmd
                .flags
                .iter()
                .any(|g| g.iter().any(|f| f.name == "tail-rtol"));
            assert_eq!(block.contains("--tail-rtol"), takes, "{}", cmd.name);
            assert!(help(cmd.name).starts_with("USAGE:"), "{}", cmd.name);
        }
        for line in text.lines() {
            assert!(line.chars().count() <= 78, "{line}");
        }
    }
}
