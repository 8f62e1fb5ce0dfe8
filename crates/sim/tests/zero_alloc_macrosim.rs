//! Proof that a warm `MacroSim` step allocates nothing: with telemetry off,
//! neither a plain step (compute scatter, ready/finish pass, collective,
//! accounting, trigger consultation) nor a placement-only rebalance with its
//! warm epoch refill touches the heap, at one thread and at two. Every
//! per-step buffer — the trigger's load vector and the finish pass's
//! per-rank send times included — is pooled in the run.
//!
//! The probe is the workload itself: `advance` is called once per step, so
//! the allocation count it snapshots brackets exactly one step's phases.
//!
//! This file must stay a single-test binary: the counting allocator is
//! process-global, so a concurrently running sibling test would pollute the
//! measurement.

use amr_core::policies::Cplx;
use amr_core::trigger::RebalanceTrigger;
use amr_mesh::{AmrMesh, Dim, MeshConfig, RefineTag};
use amr_sim::{MacroSim, SimConfig, Topology, Workload, WorkloadStep};
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

const STEPS: usize = 16;
/// The rebalance period: steps 0, 3, 6, ... re-place and refill the epoch.
const PERIOD: usize = 3;

/// Static refined mesh with skewed costs; `advance` records the process
/// allocation count (into pre-reserved storage) and changes nothing.
struct Probe {
    mesh: AmrMesh,
    costs: Vec<f64>,
    at_advance: Vec<u64>,
}

impl Workload for Probe {
    fn mesh(&self) -> &AmrMesh {
        &self.mesh
    }
    fn advance(&mut self, _step: u64) -> WorkloadStep {
        assert!(self.at_advance.len() < self.at_advance.capacity());
        self.at_advance.push(ALLOCS.load(Ordering::Relaxed));
        WorkloadStep::default()
    }
    fn block_compute_ns(&self) -> &[f64] {
        &self.costs
    }
    fn total_steps(&self) -> u64 {
        STEPS as u64
    }
}

#[test]
fn warm_steps_and_placement_only_refills_are_allocation_free() {
    for threads in [1, 2] {
        let mut mesh = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (64, 64, 64), 2));
        mesh.adapt(|b| match b.id.index() % 5 {
            0 => RefineTag::Refine,
            _ => RefineTag::Keep,
        });
        let costs = (0..mesh.num_blocks())
            .map(|i| 1.0e6 * (1.0 + 0.37 * (i % 13) as f64))
            .collect();
        let mut probe = Probe {
            mesh,
            costs,
            at_advance: Vec::with_capacity(STEPS),
        };
        let mut cfg = SimConfig::tuned(32);
        cfg.topology = Topology::new(32, 4);
        cfg.telemetry_sampling = u32::MAX; // rows at step 0 only
        cfg.threads = threads;
        let mut sim = MacroSim::new(cfg);
        // The mesh never changes, so every rebalance is placement-only.
        let report = sim.run(
            &mut probe,
            &Cplx::new(50),
            RebalanceTrigger::Periodic(PERIOD as u64),
        );
        assert_eq!(report.lb_invocations, STEPS.div_ceil(PERIOD) as u64);

        // Steps 0..6 warm the engine's double buffers, the epoch and the
        // feedback histograms; from step 6 on — three refills and six plain
        // steps — the count must not move between consecutive `advance`s.
        for (k, w) in probe.at_advance.windows(2).enumerate().skip(2 * PERIOD) {
            let kind = if k % PERIOD == 0 { "refill" } else { "plain" };
            assert_eq!(
                w[1] - w[0],
                0,
                "{kind} step {k} allocated at {threads} thread(s)"
            );
        }
    }
}
