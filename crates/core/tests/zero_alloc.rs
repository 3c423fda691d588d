//! The engine's headline guarantee, asserted literally: steady-state
//! `schedule_in` calls with a warm [`SchedCtx`] perform **zero heap
//! allocations** for RLE and LDP, over the whole problem and over
//! candidate scopes (weighted or not) alike.
//!
//! A counting `#[global_allocator]` wraps the system allocator; this
//! file is its own test binary with a single `#[test]` so no other
//! test's allocations pollute the counters.

use fading_core::algo::{Ldp, Rle};
use fading_core::{BackendChoice, Problem, SchedCtx, Scheduler, Scope, SparseConfig};
use fading_net::{LinkId, TopologyGenerator, UniformGenerator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc that moves (or grows in place) still touches the
        // heap; count it like an allocation.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn warm_schedule_in_is_allocation_free_for_rle_and_ldp() {
    let n = 256;
    // A few instances so reuse is exercised across *different*
    // problems, not just repeated calls on one — and on *both*
    // interference backends: the sparse CSR walk (including its
    // envelope state) must be as allocation-free as the dense rows.
    let mut problems: Vec<Problem> = (0..3)
        .map(|seed| Problem::paper(UniformGenerator::paper(n).generate(seed), 3.0))
        .collect();
    problems.extend((3..6).map(|seed| {
        Problem::builder(
            UniformGenerator::paper(n).generate(seed),
            fading_channel::ChannelParams::with_alpha(3.0),
        )
        .backend(BackendChoice::Sparse(SparseConfig::default()))
        .build()
    }));
    let schedulers: [&dyn Scheduler; 2] = [&Rle::new(), &Ldp::new()];
    // Two overlapping candidate scopes of every problem, and per-link
    // weights (a MaxWeight slot's queue lengths), so warm calls also
    // alternate scopes on one stamp.
    let evens: Vec<LinkId> = (0..n as u32).step_by(2).map(LinkId).collect();
    let thirds: Vec<LinkId> = (0..n as u32).step_by(3).map(LinkId).collect();
    let weights: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
    let scopes = [
        Scope::all(),
        Scope::candidates(&evens),
        Scope::candidates(&thirds).weighted(&weights),
    ];

    for scheduler in schedulers {
        let mut ctx = SchedCtx::new();
        // Warm-up pass: sizes every buffer and stabilizes the hash
        // tables' key sets for these instances.
        for p in &problems {
            for &scope in &scopes {
                let s = scheduler.schedule_in(p, scope, &mut ctx);
                ctx.recycle(s);
            }
        }

        let before = allocations();
        for _round in 0..5 {
            for p in &problems {
                for &scope in &scopes {
                    let s = scheduler.schedule_in(p, scope, &mut ctx);
                    ctx.recycle(s);
                }
            }
        }
        let during = allocations() - before;
        assert_eq!(
            during,
            0,
            "{}: {during} heap allocations in 90 warm schedule_in calls",
            scheduler.name()
        );
    }

    // Sanity: the counter itself works (cold scheduling allocates).
    let before = allocations();
    let _ = Rle::new().schedule(&problems[0]);
    assert!(allocations() > before, "counting allocator is wired up");
}
