//! Reusable scheduling workspaces for batched sweep execution.
//!
//! A sweep point schedules hundreds of independent instances from
//! rayon workers; allocating a fresh [`SchedCtx`] per instance throws
//! away exactly the buffers the next instance is about to need. A
//! [`BatchRunner`] keeps a pool of warm workspaces: each call checks
//! one out (or creates the pool's first few while workers ramp up),
//! schedules through it, and returns it, so in steady state the pool
//! holds one warm ctx per concurrently-scheduling worker and the hot
//! path performs no heap allocation.
//!
//! The pool hands contexts to whichever worker asks next — safe
//! because a [`SchedCtx`] carries *capacity only*, never semantic
//! state (see `docs/engine.md` for the contract).

use fading_core::{Problem, SchedCtx, Schedule, Scheduler, Scope};
use std::sync::Mutex;

/// A shared pool of warm [`SchedCtx`] workspaces.
///
/// ```
/// use fading_core::algo::Rle;
/// use fading_core::{Problem, Scheduler};
/// use fading_net::{TopologyGenerator, UniformGenerator};
/// use fading_sim::BatchRunner;
///
/// let batch = BatchRunner::new();
/// let rle = Rle::new();
/// for seed in 0..4 {
///     let p = Problem::paper(UniformGenerator::paper(60).generate(seed), 3.0);
///     let s = batch.schedule(&rle, &p);
///     assert_eq!(s, rle.schedule(&p), "warm ctx must not change results");
/// }
/// assert_eq!(batch.pool_size(), 1, "sequential use needs one workspace");
/// ```
#[derive(Default)]
pub struct BatchRunner {
    pool: Mutex<Vec<SchedCtx>>,
}

impl BatchRunner {
    /// An empty pool; workspaces are created on demand.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks a workspace out of the pool (creating one when every
    /// warm ctx is in use by another worker).
    pub fn checkout(&self) -> SchedCtx {
        self.pool
            .lock()
            .expect("ctx pool poisoned")
            .pop()
            .unwrap_or_default()
    }

    /// Returns a workspace to the pool for the next checkout.
    pub fn checkin(&self, ctx: SchedCtx) {
        self.pool.lock().expect("ctx pool poisoned").push(ctx);
    }

    /// Schedules `problem` through a pooled workspace.
    ///
    /// Bit-identical to `scheduler.schedule(problem)` — the ctx
    /// contract guarantees reuse never changes decisions — but without
    /// the per-call arena construction once the pool is warm.
    pub fn schedule(&self, scheduler: &dyn Scheduler, problem: &Problem) -> Schedule {
        let mut ctx = self.checkout();
        let schedule = scheduler.schedule_in(problem, Scope::all(), &mut ctx);
        self.checkin(ctx);
        schedule
    }

    /// Number of workspaces currently resting in the pool (in-flight
    /// checkouts are not counted). Peaks at the number of workers that
    /// ever scheduled concurrently.
    pub fn pool_size(&self) -> usize {
        self.pool.lock().expect("ctx pool poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fading_core::algo::{GreedyRate, Ldp, Rle};
    use fading_net::{TopologyGenerator, UniformGenerator};
    use rayon::prelude::*;

    fn problem(n: usize, seed: u64) -> Problem {
        Problem::paper(UniformGenerator::paper(n).generate(seed), 3.0)
    }

    #[test]
    fn pooled_schedules_match_fresh_schedules() {
        let batch = BatchRunner::new();
        let schedulers: [&dyn Scheduler; 3] = [&Rle::new(), &Ldp::new(), &GreedyRate];
        // Interleave sizes and schedulers so contexts are reused dirty.
        for round in 0..3u64 {
            for (k, s) in schedulers.iter().enumerate() {
                let p = problem(40 + 30 * k, round);
                assert_eq!(batch.schedule(*s, &p), s.schedule(&p), "{}", s.name());
            }
        }
    }

    #[test]
    fn sequential_reuse_keeps_one_workspace() {
        let batch = BatchRunner::new();
        let rle = Rle::new();
        for seed in 0..5 {
            batch.schedule(&rle, &problem(50, seed));
        }
        assert_eq!(batch.pool_size(), 1);
    }

    #[test]
    fn parallel_use_is_deterministic_and_bounded() {
        let batch = BatchRunner::new();
        let rle = Rle::new();
        let expected: Vec<_> = (0..16).map(|s| rle.schedule(&problem(60, s))).collect();
        let got: Vec<_> = (0..16u64)
            .into_par_iter()
            .map(|s| batch.schedule(&rle, &problem(60, s)))
            .collect();
        assert_eq!(got, expected);
        let workers = std::thread::available_parallelism().map_or(1, |t| t.get());
        let pooled = batch.pool_size();
        assert!(
            (1..=workers.max(16)).contains(&pooled),
            "pool holds {pooled} workspaces for {workers} workers"
        );
    }
}
