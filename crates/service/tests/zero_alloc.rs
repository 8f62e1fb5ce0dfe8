//! Proof of the warm-hit zero-allocation claim: serving a `Rebalance` on a
//! session whose engine came warm out of the fingerprint LRU performs **no
//! heap allocation** — submit, batch dispatch, warm placement, response and
//! latency logging all ride pre-sized buffers. The same reopen then
//! simulates, and the service's counters say it built no CSR: the topology
//! came back out of the LRU entry beside the engine.
//!
//! This file must stay a single-test binary: the counting allocator is
//! process-global, so a concurrently running sibling test would pollute the
//! measurement.

use amr_service::{Request, Response, Service, ServiceConfig, SessionSpec};
use amr_workloads::random_refined_mesh;
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

#[test]
fn warm_hit_rebalance_serve_is_allocation_free() {
    let mesh = random_refined_mesh(16, 6.0, 42);
    let mut svc = Service::new(ServiceConfig::default());

    // First tenancy: cold placement and a simulated epoch (which builds the
    // snapshot's CSR), then close to park the warm engine and that topology
    // in the LRU under the mesh's fingerprint.
    let id = svc.open_session(
        mesh.clone(),
        SessionSpec::tuned(16, Box::new(amr_core::Lpt)),
    );
    svc.submit(id, Request::Rebalance);
    svc.submit(id, Request::Simulate { steps: 2 });
    svc.drain();
    assert!(matches!(
        svc.responses(id)[0],
        Response::Rebalanced { warm: false, .. }
    ));
    let cold_run = svc.responses(id)[1].clone();
    assert!(matches!(cold_run, Response::Simulated { .. }));
    svc.close_session(id);
    assert_eq!(svc.cache_len(), 1);
    let stats = svc.stats();
    assert_eq!((stats.topology_hits, stats.topology_builds), (0, 1));

    // Returning tenant: the fingerprint hits the LRU and the engine comes
    // back primed.
    let id = svc.open_session(mesh, SessionSpec::tuned(16, Box::new(amr_core::Lpt)));
    assert_eq!(svc.stats().warm_hits, 1);

    // Warm-up rounds size the submit queue, response and latency logs.
    for _ in 0..3 {
        svc.submit(id, Request::Rebalance);
        svc.drain();
        assert!(matches!(
            svc.responses(id)[0],
            Response::Rebalanced { warm: true, .. }
        ));
        svc.clear_responses(id);
    }

    // Measured steady state: the whole warm serve cycle — submit, batch
    // drain, warm rebalance, response + latency logging — must hit zero.
    // Min-of-5 so unrelated harness bookkeeping can't fake a failure; the
    // service itself must have at least one allocation-free cycle.
    let mut min_delta = u64::MAX;
    for _ in 0..5 {
        let before = alloc_count();
        svc.submit(id, Request::Rebalance);
        let served = svc.drain();
        let delta = alloc_count() - before;
        min_delta = min_delta.min(delta);
        assert_eq!(served, 1);
        assert!(matches!(
            svc.responses(id)[0],
            Response::Rebalanced { warm: true, .. }
        ));
        svc.clear_responses(id);
    }
    assert_eq!(
        min_delta, 0,
        "warm-hit serve cycle allocated {min_delta} times"
    );

    // The reopened shape simulates on the parked topology: same answer as
    // the cold tenancy's run (a new session's simulator starts the same
    // jitter stream), one more hit, still the one build.
    svc.submit(id, Request::Simulate { steps: 2 });
    svc.drain();
    assert_eq!(svc.responses(id)[0], cold_run);
    let stats = svc.stats();
    assert_eq!(
        (stats.topology_hits, stats.topology_builds),
        (1, 1),
        "a warm reopen must build no CSR"
    );
}
