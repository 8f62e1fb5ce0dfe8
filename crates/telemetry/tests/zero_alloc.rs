//! Proof that the span-tracing steady state is allocation-free: once a
//! `TraceHandle`'s lanes are constructed and its `Metrics` slots exist,
//! recording spans (host guards and virtual records), bumping counters,
//! setting gauges, and observing per-phase histograms never touch the heap —
//! with the worker lanes home or checked out for a parallel region — the
//! guarantee that makes the < 2% tracing-overhead budget (measured as the
//! repo benchmark's `bench.trace_overhead_pct`) credible.
//!
//! This file must stay a single-test binary: the counting allocator is
//! process-global, so a concurrently running sibling test would pollute the
//! measurement.

use amr_telemetry::trace::{Counter, Gauge, TraceHandle, TracePhase};
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

/// One simulated step's worth of trace traffic: a few host spans, a couple
/// of virtual spans, counters, gauges. Mirrors what macrosim + engine + mesh
/// publish per step when tracing is on.
fn trace_step(t: &TraceHandle, step: u32) {
    t.set_step(step);
    {
        let _place = t.span(TracePhase::Place);
        let _patch = t.span(TracePhase::GraphPatch);
    }
    {
        let _remesh = t.span(TracePhase::Remesh);
    }
    let base = step as u64 * 1_000_000;
    t.record_virtual(TracePhase::Exchange, base, 420_000);
    t.record_virtual(TracePhase::Collective, base + 420_000, 73_000);
    t.record_virtual(TracePhase::FaultResponse, base, 1_500 + step as u64);
    t.incr(Counter::Steps, 1);
    t.incr(Counter::Collectives, 1);
    t.incr(Counter::BlocksMoved, 17);
    t.set(Gauge::Imbalance, 1.0 + step as f64 * 1e-3);
    t.set(Gauge::SyncFraction, 0.42);
}

/// Two steps' traffic: one with the worker lanes home, one from inside a
/// parallel region (lanes checked out, a worker span recorded lock-free,
/// the owner side recording through a clone meanwhile).
fn trace_round(t: &TraceHandle, t2: &TraceHandle, step: u32) {
    trace_step(t, step);
    t.with_lanes_mut(|lanes| {
        lanes[1].record_host(TracePhase::Exchange, step, step as u64, 9);
        trace_step(t2, step);
    });
}

#[test]
fn steady_state_span_recording_is_allocation_free() {
    // Small ring so the measured rounds run well past capacity: steady state
    // includes the wrap-around/overwrite path, not just the fill path.
    let t = TraceHandle::new(64);
    t.ensure_lanes(2, 8);
    // Clones are the sharing mechanism (engine/mesh each hold one); prove
    // the cloned handle path too.
    let t2 = t.clone();

    // Warm-up: fill the ring past capacity and touch every metric slot.
    for step in 0..32 {
        trace_round(&t, &t2, step);
    }
    assert!(t.dropped() > 0, "warm-up must wrap the ring");

    // Measured steady state. Minimum delta over several rounds so unrelated
    // background allocation (test-harness bookkeeping) cannot produce a
    // false positive; the trace path itself must hit zero.
    let mut min_delta = u64::MAX;
    for round in 0..5 {
        let before = alloc_count();
        for step in 0..16 {
            trace_round(&t, &t2, 100 + round * 16 + step);
        }
        let delta = alloc_count() - before;
        min_delta = min_delta.min(delta);
    }
    assert_eq!(
        min_delta, 0,
        "steady-state span recording allocated {min_delta} times"
    );

    // Sanity: the metrics saw everything and the lanes came back (records
    // are dropped oldest-first, never silently skipped).
    let rounds = 32 + 5 * 16;
    let m = t.metrics();
    assert_eq!(m.counter(Counter::Steps), 2 * rounds);
    assert_eq!(m.phase(TracePhase::Exchange).count(), 2 * rounds);
    assert_eq!(t.lane_count(), 2);

    // Snapshot into a pre-sized buffer is also allocation-free (the export
    // *formatting* allocates, but draining the ring must not).
    let mut spans = Vec::new();
    t.snapshot_into(&mut spans); // size the buffer once
    let mut min_delta = u64::MAX;
    for _ in 0..5 {
        let before = alloc_count();
        t.snapshot_into(&mut spans);
        let delta = alloc_count() - before;
        min_delta = min_delta.min(delta);
    }
    assert_eq!(
        min_delta, 0,
        "warm snapshot_into allocated {min_delta} times"
    );
    // Both rings are full: the owner lane's 64 slots plus lane 2's 8.
    assert_eq!(spans.len(), 64 + 8);
}
