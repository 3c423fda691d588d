//! Convenience driver: regenerates every figure, ablation, and
//! extension into `results/` in one command.
//!
//! `cargo run --release -p fading-bench --bin run_all [-- --quick]`

use std::process::Command;

const BINS: &[&str] = &[
    "fig5a",
    "fig5b",
    "fig6a",
    "fig6b",
    "ablation_classes",
    "ablation_c2",
    "ablation_ratio",
    "multislot_compare",
    "ext_nakagami",
    "ext_shadowing",
    "ext_mobility",
    "ext_noise",
    "ext_sinr_hist",
    "ext_capacity",
    "ext_dls_overhead",
    "ext_queueing",
    "ext_power",
    "ext_graph_model",
    "ext_bursts",
];

fn main() {
    let quick = fading_bench::flags::parse_env(&[&[fading_bench::flags::QUICK]]).flag("quick");
    let exe_dir = std::env::current_exe()
        .expect("own path")
        .parent()
        .expect("bin dir")
        .to_path_buf();
    std::fs::create_dir_all("results").expect("results dir");
    let mut failures = Vec::new();
    for bin in BINS {
        let path = exe_dir.join(bin);
        let mut cmd = Command::new(&path);
        if quick {
            cmd.arg("--quick");
        }
        // One manifest per figure: config, wall time, metric snapshot,
        // and span timings, next to the figure's text output.
        cmd.args(["--metrics-out", &format!("results/{bin}_manifest.json")]);
        eprintln!("running {bin}{}…", if quick { " --quick" } else { "" });
        match cmd.output() {
            Ok(out) if out.status.success() => {
                let dest = format!("results/{bin}.txt");
                std::fs::write(&dest, &out.stdout).expect("write result");
                eprintln!("  → {dest}");
            }
            Ok(out) => {
                eprintln!("  FAILED (exit {:?})", out.status.code());
                failures.push(*bin);
            }
            Err(e) => {
                eprintln!("  cannot launch {}: {e}", path.display());
                failures.push(*bin);
            }
        }
    }
    if failures.is_empty() {
        println!("all {} experiments regenerated into results/", BINS.len());
    } else {
        println!("failed: {failures:?}");
        std::process::exit(1);
    }
}
