//! Proof that steady-state telemetry ingest is allocation-free: once the
//! collector's table capacity is reserved and one step has sized the staging
//! buffer and the seal's scratch, a step's column appends — per-block and
//! per-rank Compute, BoundaryComm, Synchronization, the Redistribution row,
//! sparse FluxCorrection — and its seal into the table never touch the heap.
//!
//! This file must stay a single-test binary: the counting allocator is
//! process-global, so a concurrently running sibling test would pollute the
//! measurement.

use amr_telemetry::{Collector, Phase, NO_BLOCK};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter beside it touches no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

const RANKS: usize = 64;
const BLOCKS: usize = 150;
/// Per step: block rows, three rank-level phases, one Redistribution row,
/// flux on every other rank.
const ROWS_PER_STEP: usize = BLOCKS + 3 * RANKS + 1 + RANKS / 2;

/// One simulated step's ingest, in the simulator's emission order.
fn ingest_step(c: &mut Collector, step: u32, owner: &[u32], measured: &[f64]) {
    c.begin_step(step); // seals the previous step
    let blocks = owner.iter().zip(measured).enumerate();
    c.record_phase(
        Phase::Compute,
        blocks.map(|(b, (&rank, &t))| (rank, b as u32, t as u64)),
        0,
        0,
    );
    let ranks = |scale: u64| (0..RANKS as u32).map(move |r| (r, NO_BLOCK, scale * (r as u64 + 1)));
    c.record_phase(Phase::Compute, ranks(1000), 0, 0);
    c.record_phase(Phase::BoundaryComm, ranks(300), 26, 0);
    c.record_phase(Phase::Synchronization, ranks(70), 0, 0);
    c.record(0, NO_BLOCK, Phase::Redistribution, 5_000, 3, 4096);
    c.record_phase(
        Phase::FluxCorrection,
        ranks(9).filter(|r| r.0 % 2 == 0),
        0,
        0,
    );
}

#[test]
fn warm_step_appends_and_seal_are_allocation_free() {
    const WARM: u32 = 2;
    const ROUNDS: u32 = 5;
    const STEPS_PER_ROUND: u32 = 8;
    let owner: Vec<u32> = (0..BLOCKS).map(|b| ((b * 37) % RANKS) as u32).collect();
    let measured: Vec<f64> = (0..BLOCKS).map(|b| 1.0e6 + b as f64).collect();

    let mut c = Collector::new();
    c.track_step_compute(RANKS);
    let steps = WARM + ROUNDS * STEPS_PER_ROUND;
    c.reserve(steps as usize * ROWS_PER_STEP);
    // Warm-up: the first step sizes the staging buffer, the second's
    // `begin_step` sizes the seal's counting scratch.
    for step in 0..WARM {
        ingest_step(&mut c, step, &owner, &measured);
    }

    // Minimum delta over several rounds, so unrelated background allocation
    // (test-harness bookkeeping) cannot produce a false positive.
    let mut min_delta = u64::MAX;
    for round in 0..ROUNDS {
        let before = ALLOCS.load(Ordering::Relaxed);
        for i in 0..STEPS_PER_ROUND {
            ingest_step(
                &mut c,
                WARM + round * STEPS_PER_ROUND + i,
                &owner,
                &measured,
            );
        }
        min_delta = min_delta.min(ALLOCS.load(Ordering::Relaxed) - before);
    }
    assert_eq!(
        min_delta, 0,
        "a warm ingest step allocated {min_delta} times"
    );

    // Sanity: every row arrived and the series tracked the last step.
    assert_eq!(c.len(), steps as usize * ROWS_PER_STEP);
    assert!(c.step_compute()[RANKS - 1] >= 1000.0 * RANKS as f64);
    assert_eq!(c.finish().len(), steps as usize * ROWS_PER_STEP);
}
