//! Proof that the multi-core steady state is allocation-free *per worker*:
//! once a [`WorkerPool`]'s threads are up and every worker lane's ring
//! exists, repeated pool dispatches — slot-ownership float
//! accumulation, ZST `run` fan-outs, and per-worker host-span recording —
//! never touch the heap from any thread. This is the guarantee that lets
//! `SimConfig { threads: N }` keep the single-task schedule's zero-alloc
//! steady state (`crates/core/tests/zero_alloc.rs`) at N > 1.
//!
//! This file must stay a single-test binary: the counting allocator is
//! process-global, so a concurrently running sibling test would pollute the
//! measurement. (Worker threads share the global allocator, which is the
//! point — an allocation on *any* pool thread shows up in the count.)

use amr_mesh::pool::{task_range, Disjoint, WorkerPool};
use amr_telemetry::trace::{Counter, TraceHandle, TracePhase};
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

fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// One warm parallel "epoch": every task accumulates into its owned slice of
/// a shared buffer (the macrosim fill/compute pattern) and records one host
/// span into its own lane (the traced-dispatch pattern), while the owner
/// keeps recording through the handle whose worker lanes are checked out.
fn parallel_epoch(
    pool: &WorkerPool,
    trace: &TraceHandle,
    buf: &mut [f64],
    partials: &mut [u64],
    step: u32,
) {
    let t_n = pool.threads();
    let r = buf.len();
    let out = Disjoint::new(buf);
    trace.set_step(step);
    trace.with_lanes_mut(|lanes| {
        let lanes = Disjoint::new(lanes);
        let _owner = trace.span(TracePhase::Place);
        trace.incr(Counter::Steps, 1);
        pool.run_with(partials, |t, p| {
            // SAFETY: lanes are indexed by the task id, one task each.
            let lane = unsafe { &mut lanes.slice(t, t + 1)[0] };
            let start_ns = lane.now_ns();
            let own = task_range(t, t_n, r);
            // SAFETY: `task_range` tiles `0..r`, one range per task.
            let chunk = unsafe { out.slice(own.start, own.end) };
            for (i, v) in own.zip(chunk) {
                *v += i as f64 * 0.5 + step as f64;
                *p += 1;
            }
            lane.record_since(TracePhase::Exchange, step, start_ns);
        });
    });
}

#[test]
fn steady_state_parallel_dispatch_is_allocation_free() {
    let threads = 4;
    let pool = WorkerPool::new(threads);
    let trace = TraceHandle::new(64);
    trace.ensure_lanes(threads, 32);
    assert_eq!(trace.lane_count(), threads);

    let mut buf = vec![0.0f64; 257];
    let mut partials = vec![0u64; threads];

    // Warm-up: spin every worker through a few dispatches so thread-local
    // runtime state (unwind tables, TLS) settles, and wrap the lane rings so
    // the measured rounds include the overwrite path.
    for step in 0..64 {
        parallel_epoch(&pool, &trace, &mut buf, &mut partials, step);
    }

    // Measured steady state: minimum delta over several rounds so unrelated
    // background allocation cannot produce a false positive; the dispatch +
    // accumulate + lane-record path itself must hit zero on every thread.
    let mut min_delta = u64::MAX;
    for round in 0..5 {
        let before = alloc_count();
        for step in 0..8 {
            parallel_epoch(
                &pool,
                &trace,
                &mut buf,
                &mut partials,
                64 + round * 8 + step,
            );
        }
        let delta = alloc_count() - before;
        min_delta = min_delta.min(delta);
    }
    assert_eq!(
        min_delta, 0,
        "steady-state parallel dispatch allocated {min_delta} times"
    );

    // The ZST fan-out (`WorkerPool::run`) must also be free: the unit
    // slice is conjured from a dangling pointer, never from the heap.
    let hits: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
    pool.run(threads, |i| {
        hits[i].fetch_add(1, Ordering::Relaxed);
    });
    let mut min_delta = u64::MAX;
    for _ in 0..5 {
        let before = alloc_count();
        pool.run(threads, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        let delta = alloc_count() - before;
        min_delta = min_delta.min(delta);
    }
    assert_eq!(
        min_delta, 0,
        "warm ZST run dispatch allocated {min_delta} times"
    );
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 6));

    // Sanity: the work actually happened in parallel form — every slot got
    // every step's contribution, every task counted its owned slots, and the
    // per-worker lanes wrapped (recording really ran on the workers).
    let rounds = 64 + 5 * 8;
    for (i, v) in buf.iter().enumerate() {
        let per_step = i as f64 * 0.5;
        let steps_sum = (0..rounds).map(|s| s as f64).sum::<f64>();
        assert_eq!(*v, per_step * rounds as f64 + steps_sum, "slot {i}");
    }
    assert_eq!(partials.iter().sum::<u64>() as usize, buf.len() * rounds);
    trace.with_lanes_mut(|lanes| {
        for lane in lanes.iter() {
            assert!(lane.dropped() > 0, "lane {} never wrapped", lane.lane());
        }
    });
    assert_eq!(trace.metrics().counter(Counter::Steps), rounds as u64);
}
