//! `fading` — the command-line front end.
//!
//! See `fading help` (or [`args::usage`]) for the subcommands:
//! generate instances, inspect them, schedule with any algorithm in the
//! workspace, Monte-Carlo the result, and maintain the perf-trajectory
//! ledger (`bench-report`).

/// `writeln!` to a command's output, with the I/O error as a message.
macro_rules! outln {
    ($out:expr, $($arg:tt)*) => {
        writeln!($out, $($arg)*).map_err(|e| e.to_string())
    };
}

mod args;
mod bench_report;
mod commands;
mod explain;

/// Counting allocator so `bench-report` can measure steady-state
/// allocations per warm `schedule_in` call (the zero-alloc engine
/// contract) in-process; the cost everywhere else is one relaxed
/// atomic increment per allocation.
#[global_allocator]
static GLOBAL_ALLOC: fading_bench::alloc::CountingAlloc = fading_bench::alloc::CountingAlloc;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        print!("{}", args::usage());
        std::process::exit(2);
    }
    let parsed = match args::parse(argv) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {}", e.message);
            std::process::exit(e.code);
        }
    };
    let mut stdout = std::io::stdout();
    match commands::run(&parsed, &mut stdout) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
