//! Shared plumbing for the figure-regeneration binaries, which all take
//! the [`flags::FIGURE`] and [`flags::OBSERVABILITY`] flags (see
//! `fig5a --help`).

pub mod alloc;
pub mod flags;
pub mod gates;
pub mod report;
pub mod schema;

use fading_core::{AlgoId, BackendChoice, Scheduler};
use fading_sim::{ExperimentConfig, ResultTable};
use flags::{Args, FIGURE, OBSERVABILITY};
use std::path::PathBuf;
use std::time::Instant;

/// The typed view of a figure binary's command line.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Use the reduced grid for a fast smoke run.
    pub quick: bool,
    /// Also write `results/<name>.csv`.
    pub csv: bool,
    /// Also write `results/<name>.json`.
    pub json: bool,
    /// Show live progress on stderr.
    pub progress: bool,
    /// Suppress progress and non-essential chatter.
    pub quiet: bool,
    /// Write a run manifest (metrics + spans) to this path.
    pub metrics_out: Option<PathBuf>,
    /// Write the decision trace (JSONL) to this path.
    pub trace_out: Option<PathBuf>,
    /// Interference backend for every `Problem` the sweep builds.
    pub interference: BackendChoice,
    /// Algorithms to sweep (`--algos ldp,rle,…`); `None` keeps each
    /// figure's own default panel.
    pub algos: Option<Vec<AlgoId>>,
    /// The parsed command line behind the fields.
    args: Args,
    /// When the run started (for the manifest's wall time).
    started: Instant,
}

impl Default for Cli {
    fn default() -> Self {
        Self::parse_from(Vec::new()).expect("the empty command line is valid")
    }
}

impl Cli {
    /// Parses an argument list (excluding the program name). Unknown
    /// flags are an error, not a warning — a typo'd flag must not
    /// silently run the full paper grid.
    pub fn parse_from<I: IntoIterator<Item = String>>(argv: I) -> Result<Self, String> {
        let args = flags::parse("figure", &[FIGURE, OBSERVABILITY], argv).map_err(|e| e.message)?;
        Self::view(args)
    }

    fn view(args: Args) -> Result<Self, String> {
        Ok(Self {
            quick: args.flag("quick"),
            csv: args.flag("csv"),
            json: args.flag("json"),
            progress: args.flag("progress"),
            quiet: args.flag("quiet"),
            metrics_out: args.get("metrics-out").map(PathBuf::from),
            trace_out: args.get("trace-out").map(PathBuf::from),
            interference: BackendChoice::parse(args.require("interference")?)?,
            algos: args.get("algos").map(flags::parse_algos).transpose()?,
            args,
            started: Instant::now(),
        })
    }

    /// Parses `std::env::args`, exiting with the usage on `--help` or an
    /// error, and arms progress and tracing.
    pub fn parse() -> Self {
        let cli = Self::view(flags::parse_env(&[FIGURE, OBSERVABILITY])).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        });
        cli.args.arm();
        cli
    }

    /// The scheduler panel to sweep: `--algos` when given, otherwise
    /// the figure's `defaults`. Stochastic schedulers get seed 0, like
    /// the CLI's `--algo` path.
    pub fn schedulers(&self, defaults: &[AlgoId]) -> Vec<Box<dyn Scheduler>> {
        self.algos
            .as_deref()
            .unwrap_or(defaults)
            .iter()
            .map(|id| id.build(0))
            .collect()
    }

    /// The experiment configuration this invocation asked for.
    pub fn config(&self) -> ExperimentConfig {
        let mut config = if self.quick {
            ExperimentConfig::quick()
        } else {
            ExperimentConfig::paper()
        };
        config.interference = self.interference;
        config
    }

    /// Prints the table, writes the requested machine-readable copies
    /// under `results/`, and writes the run manifest if asked to.
    pub fn emit(&self, name: &str, title: &str, table: &ResultTable) {
        println!("# {title}");
        println!();
        print!("{}", table.render_text());
        let dir = PathBuf::from("results");
        let copies = [("csv", self.csv), ("json", self.json)];
        for (ext, _) in copies.into_iter().filter(|&(_, wanted)| wanted) {
            let path = dir.join(format!("{name}.{ext}"));
            let text = if ext == "csv" {
                table.render_csv()
            } else {
                table.to_json()
            };
            match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
                Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
                Ok(()) if !self.quiet => eprintln!("wrote {}", path.display()),
                Ok(()) => {}
            }
        }
        self.write_manifest(name);
    }

    /// Writes the `--trace-out` trace and the `--metrics-out` manifest
    /// (announced on stderr); exits 1 if either cannot be written.
    /// Binaries with custom output (the extension experiments) call
    /// this directly instead of [`emit`].
    ///
    /// [`emit`]: Cli::emit
    pub fn write_manifest(&self, name: &str) {
        let seed = self.config().seed;
        let finished = self
            .args
            .finish(name, self.started, seed, &[], &mut std::io::stderr());
        if let Err(e) = finished {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_flag_selects_quick_config() {
        let cli = Cli {
            quick: true,
            ..Cli::default()
        };
        assert_eq!(cli.config(), ExperimentConfig::quick());
        assert_eq!(Cli::default().config(), ExperimentConfig::paper());
    }

    #[test]
    fn parse_from_accepts_all_flags() {
        let cli = Cli::parse_from(
            [
                "--quick",
                "--csv",
                "--json",
                "--progress",
                "--quiet",
                "--metrics-out",
                "m.json",
            ]
            .map(String::from),
        )
        .unwrap();
        assert!(cli.quick && cli.csv && cli.json && cli.progress && cli.quiet);
        assert_eq!(
            cli.metrics_out.as_deref(),
            Some(std::path::Path::new("m.json"))
        );
    }

    #[test]
    fn trace_out_flag_parses() {
        let cli = Cli::parse_from(["--trace-out".to_string(), "t.jsonl".to_string()]).unwrap();
        assert_eq!(
            cli.trace_out.as_deref(),
            Some(std::path::Path::new("t.jsonl"))
        );
        let err = Cli::parse_from(["--trace-out".to_string()]).unwrap_err();
        assert!(err.contains("missing its path"), "{err}");
    }

    #[test]
    fn parse_from_rejects_unknown_flags() {
        let err = Cli::parse_from(["--quik".to_string()]).unwrap_err();
        assert!(err.contains("--quik"), "{err}");
        let err = Cli::parse_from(["--metrics-out".to_string()]).unwrap_err();
        assert!(err.contains("missing its path"), "{err}");
    }

    #[test]
    fn algos_flag_overrides_the_default_panel() {
        let cli = Cli::parse_from(["--algos".to_string(), "rle, greedy".to_string()]).unwrap();
        assert_eq!(cli.algos, Some(vec![AlgoId::Rle, AlgoId::Greedy]));
        let names: Vec<&str> = cli
            .schedulers(&[AlgoId::Ldp])
            .iter()
            .map(|s| s.name())
            .collect();
        assert_eq!(names, ["RLE", "GreedyRate"]);
        // Without the flag, the figure's defaults stand.
        let names: Vec<String> = Cli::default()
            .schedulers(&[AlgoId::Ldp, AlgoId::Dls])
            .iter()
            .map(|s| s.name().to_string())
            .collect();
        assert_eq!(names, ["LDP", "DLS"]);
    }

    #[test]
    fn algos_flag_rejects_unknown_and_empty_ids() {
        let err = Cli::parse_from(["--algos".to_string(), "rle,nope".to_string()]).unwrap_err();
        assert!(err.contains("unknown algorithm"), "{err}");
        assert!(err.contains("valid ids"), "{err}");
        let err = Cli::parse_from(["--algos".to_string()]).unwrap_err();
        assert!(err.contains("missing its id list"), "{err}");
    }

    #[test]
    fn interference_flag_threads_into_the_config() {
        let cli = Cli::parse_from(["--interference".to_string(), "auto".to_string()]).unwrap();
        assert_eq!(cli.interference, BackendChoice::Auto);
        assert_eq!(cli.config().interference, BackendChoice::Auto);
        let err = Cli::parse_from(["--interference".to_string(), "csr".to_string()]).unwrap_err();
        assert!(err.contains("unknown interference backend"), "{err}");
        let err = Cli::parse_from(["--interference".to_string()]).unwrap_err();
        assert!(err.contains("missing its backend"), "{err}");
    }
}
