//! The engine's performance contract, asserted as a release-mode gate
//! that times directly:
//!
//! * steady-state `schedule_in` with a warm [`SchedCtx`] beats fresh
//!   `schedule()` for RLE and LDP at n = 1000;
//! * the fresh-call path pays little for the workspace indirection —
//!   measured as ctx construction + drop overhead, the only cost the
//!   default method adds on top of the old monolithic `schedule()`.
//!
//! The actual limits live in the repo-root `bench-gates.toml` `[max]`
//! section (`engine.*.warm_ratio`, `engine.*.ctx_churn_frac`) — the
//! same ceilings `fading bench-report --check` enforces — so there is
//! exactly one place a perf threshold can be declared.
//!
//! Run under `--release --ignored` (debug timings are meaningless):
//!
//! ```text
//! cargo test --release -p fading-bench --test engine_gate -- --ignored
//! ```

use fading_bench::gates::GateConfig;
use fading_core::algo::{Ldp, Rle};
use fading_core::{Problem, SchedCtx, Scheduler};
use fading_net::{TopologyGenerator, UniformGenerator};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

const N: usize = 1000;

/// Engine ceilings loaded from the repo-root gate file. Missing rows
/// are an error: the gate must never silently pass because a rename in
/// `bench-gates.toml` orphaned its threshold.
struct EngineLimits {
    /// Warm must be at most this fraction of fresh.
    warm_ratio: f64,
    /// Ctx construction+drop may cost at most this fraction of a
    /// fresh call.
    ctx_churn_frac: f64,
}

fn engine_limits(config: &GateConfig, algo: &str) -> EngineLimits {
    let ceiling = |id: String| {
        config
            .max_for(&id)
            .unwrap_or_else(|| panic!("bench-gates.toml [max] is missing {id:?}"))
    };
    EngineLimits {
        warm_ratio: ceiling(format!("engine.{algo}.warm_ratio")),
        ctx_churn_frac: ceiling(format!("engine.{algo}.ctx_churn_frac")),
    }
}

fn load_gate_config() -> GateConfig {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench-gates.toml");
    GateConfig::load(&path).expect("repo-root bench-gates.toml must parse")
}

/// Median-of-repeats wall time of `f`, in seconds.
fn time_median<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_unstable_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn gate_scheduler(scheduler: &dyn Scheduler, problem: &Problem, limits: &EngineLimits) {
    const CALLS: usize = 20;
    let mut ctx = SchedCtx::with_capacity(N);
    // Warm both code paths and the ctx before timing.
    for _ in 0..3 {
        let s = scheduler.schedule_in(problem, &mut ctx);
        ctx.recycle(s);
        black_box(scheduler.schedule(problem));
    }

    let fresh = time_median(7, || {
        for _ in 0..CALLS {
            black_box(scheduler.schedule(problem));
        }
    });
    let warm = time_median(7, || {
        for _ in 0..CALLS {
            let s = black_box(scheduler.schedule_in(problem, &mut ctx));
            ctx.recycle(s);
        }
    });
    let ratio = warm / fresh;
    eprintln!(
        "{}: fresh {:.3} ms/call, warm {:.3} ms/call, ratio {:.2}",
        scheduler.name(),
        fresh * 1e3 / CALLS as f64,
        warm * 1e3 / CALLS as f64,
        ratio
    );
    assert!(
        ratio <= limits.warm_ratio,
        "{}: warm ctx is only {:.0}% faster than fresh (need ≥ {:.0}%)",
        scheduler.name(),
        (1.0 - ratio) * 100.0,
        (1.0 - limits.warm_ratio) * 100.0
    );

    // Fresh-path regression bound: `schedule()` is now "construct a
    // ctx, schedule through it, drop it", so its only new cost over
    // the old monolith is ctx construction + drop. Bound that against
    // the fresh call itself.
    let ctx_churn = time_median(7, || {
        for _ in 0..CALLS {
            black_box(SchedCtx::new());
        }
    });
    eprintln!(
        "{}: ctx construct+drop {:.1} ns/call ({:.2}% of a fresh call)",
        scheduler.name(),
        ctx_churn * 1e9 / CALLS as f64,
        ctx_churn / fresh * 100.0
    );
    assert!(
        ctx_churn <= limits.ctx_churn_frac * fresh,
        "{}: workspace churn is {:.1}% of a fresh call (limit {:.0}%)",
        scheduler.name(),
        ctx_churn / fresh * 100.0,
        limits.ctx_churn_frac * 100.0
    );
}

/// The gate file must declare every engine ceiling this gate asserts —
/// checked in debug too, so a bad edit to bench-gates.toml fails fast
/// instead of only under `--release --ignored`.
#[test]
fn gate_config_declares_the_engine_ceilings() {
    let config = load_gate_config();
    for algo in ["rle", "ldp"] {
        let limits = engine_limits(&config, algo);
        assert!(
            limits.warm_ratio > 0.0 && limits.warm_ratio < 1.0,
            "{algo}: warm_ratio ceiling {} out of (0, 1)",
            limits.warm_ratio
        );
        assert!(
            limits.ctx_churn_frac > 0.0 && limits.ctx_churn_frac < 1.0,
            "{algo}: ctx_churn_frac ceiling {} out of (0, 1)",
            limits.ctx_churn_frac
        );
    }
}

#[test]
#[ignore = "release-mode perf gate; run with --release --ignored (CI does)"]
fn warm_ctx_beats_fresh_by_a_quarter_at_n1000() {
    let config = load_gate_config();
    let problem = Problem::paper(UniformGenerator::paper(N).generate(42), 3.0);
    gate_scheduler(&Rle::new(), &problem, &engine_limits(&config, "rle"));
    gate_scheduler(&Ldp::new(), &problem, &engine_limits(&config, "ldp"));
}
