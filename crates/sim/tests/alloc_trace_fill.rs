//! The heap allocations of the epoch fill, pinned by size and order: a cold
//! `MacroSim` run's set-up (which ends in the first fill) and the step that
//! remeshes and refills, on one fixed mesh and workload.
//!
//! Why sizes and order, not just a count: glibc's dynamic trim and mmap
//! thresholds are set by which allocations come and go, and where small ones
//! land. Two builds whose allocation traces match land in the same allocator
//! regime; a change that moves the trace can move minor faults and wall time
//! on workloads it never touches (ROADMAP's allocator item). A change that
//! means to move it re-pins this file, visibly, and measures faults per run.
//!
//! Only the calling thread's allocations are recorded: a pool worker's
//! first wake-up allocates on its own thread, outside the simulator's code.
//! This file must stay a single-test binary all the same, so no sibling test
//! shares the log.

use amr_core::policies::Cplx;
use amr_core::trigger::RebalanceTrigger;
use amr_mesh::{AmrMesh, Dim, MeshConfig, RefineTag};
use amr_sim::{MacroSim, SimConfig, Topology, Workload, WorkloadStep};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

struct RecordingAlloc;

const LOG_CAP: usize = 1 << 14;
thread_local! {
    /// Set on the thread whose allocations are being recorded.
    static RECORDING: AtomicBool = const { AtomicBool::new(false) };
}
static LOG_LEN: AtomicUsize = AtomicUsize::new(0);
/// `size << 1 | is_realloc` per recorded allocation.
static LOG: [AtomicUsize; LOG_CAP] = [const { AtomicUsize::new(0) }; LOG_CAP];

fn record(size: usize, realloc: bool) {
    // `try_with`: a thread being torn down still frees and allocates.
    if RECORDING
        .try_with(|on| on.load(Ordering::Relaxed))
        .unwrap_or(false)
    {
        let i = LOG_LEN.fetch_add(1, Ordering::Relaxed);
        if i < LOG_CAP {
            LOG[i].store(size << 1 | realloc as usize, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the log beside it is static and touches no
// allocation.
unsafe impl GlobalAlloc for RecordingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), false);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size, true);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: RecordingAlloc = RecordingAlloc;

const RANKS: usize = 32;
const STEPS: u64 = 3;
/// The step whose `advance` refines the mesh: it remeshes, re-places and
/// refills the epoch.
const REMESH_AT: u64 = 1;

/// A fixed refined mesh that refines its first block at `REMESH_AT`;
/// `advance` records the log position after its own adapt.
struct Probe {
    mesh: AmrMesh,
    costs: Vec<f64>,
    at_advance: Vec<usize>,
}

impl Workload for Probe {
    fn mesh(&self) -> &AmrMesh {
        &self.mesh
    }
    fn advance(&mut self, step: u64) -> WorkloadStep {
        let mesh_changed = step == REMESH_AT;
        if mesh_changed {
            self.mesh.adapt(|b| match b.id.index() {
                0 => RefineTag::Refine,
                _ => RefineTag::Keep,
            });
            self.costs.resize(self.mesh.num_blocks(), 1.0e6);
        }
        assert!(self.at_advance.len() < self.at_advance.capacity());
        self.at_advance.push(LOG_LEN.load(Ordering::Relaxed));
        WorkloadStep { mesh_changed }
    }
    fn block_compute_ns(&self) -> &[f64] {
        &self.costs
    }
    fn total_steps(&self) -> u64 {
        STEPS
    }
}

/// The recorded allocations in `range`, as `a<size>` for an allocation and
/// `r<new size>` for a reallocation, space-separated.
fn trace(range: std::ops::Range<usize>) -> String {
    assert!(range.end <= LOG_CAP, "allocation log overflowed");
    let entries: Vec<String> = LOG[range]
        .iter()
        .map(|e| {
            let e = e.load(Ordering::Relaxed);
            format!("{}{}", if e & 1 == 1 { 'r' } else { 'a' }, e >> 1)
        })
        .collect();
    entries.join(" ")
}

/// The set-up and remesh-step traces of one cold single-run simulator.
fn traces(threads: usize) -> (String, String) {
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
        at_advance: Vec::with_capacity(STEPS as usize),
    };
    let mut cfg = SimConfig::tuned(RANKS);
    cfg.topology = Topology::new(RANKS, 4);
    cfg.telemetry_sampling = u32::MAX; // rows at step 0 only
    cfg.threads = threads;
    let mut sim = MacroSim::new(cfg);
    LOG_LEN.store(0, Ordering::Relaxed);
    RECORDING.with(|on| on.store(true, Ordering::Relaxed));
    let report = sim.run(&mut probe, &Cplx::new(50), RebalanceTrigger::OnMeshChange);
    RECORDING.with(|on| on.store(false, Ordering::Relaxed));
    assert_eq!(report.lb_invocations, 1, "only the remesh step re-places");
    let at = &probe.at_advance;
    let remesh = REMESH_AT as usize;
    (trace(0..at[0]), trace(at[remesh]..at[remesh + 1]))
}

#[test]
fn cold_fill_and_remesh_refill_keep_their_allocation_trace() {
    for threads in [1, 2, 3] {
        let (setup, remesh) = traces(threads);
        let stamp = 8 * RANKS * threads;
        let want = format!("{SETUP_TO_STAMP} a{stamp} {SETUP_FROM_STAMP}");
        assert_eq!(setup, want, "set-up trace at {threads} thread(s)");
        assert_eq!(remesh, REMESH, "remesh-step trace at {threads} thread(s)");
    }
}

/// A cold run's set-up, 155 blocks on 32 ranks: the cost model (`a1240`),
/// the initial placement, the CSR build (its entries are `a32240`, the
/// shared CSR's header `a64` follows the row scratch `a448`), the
/// run's per-rank vectors, then the first fill — `CommEpoch::reset`'s seven
/// `f64` rows and `blocks_per_rank` (`a256` ×7 `a128`), the sender stamp
/// (one row of 32 `usize`s a fill task, spliced in by the test), `sender_off`
/// and `sender_len` (`a132 a128`), `node_of` (`a128`), the sender segments
/// (Σ deg = 2 218 `u32`s, `a8872`) and the per-task `EpochCounts` (`a224`) —
/// and last the telemetry collector's seven columns.
const SETUP_TO_STAMP: &str = "\
    a1240 a620 a1248 a224 a224 a112 a256 a256 a128 a32 r64 a32 a32 r64 r128 r256 r512 r1024 \
    a600 a256 a624 a32240 a448 a64 a6 a64 \
    a256 a256 a256 a256 a256 a256 a256 a256 \
    a256 a256 a256 a256 a256 a256 a256 a128";
const SETUP_FROM_STAMP: &str = "\
    a132 a128 a128 a8872 a224 \
    a516 a516 a516 a129 a1032 a516 a1032";

/// The step after the adapt that refines block 0 (155 → 162 blocks). The
/// probe's mesh kept no graph, so its adapt patched none and the run, whose
/// own graph is now stale, makes the mesh build and keep the new one: its
/// offsets (`a652`), entries at 26 a leaf (`a33696`), the row scratch
/// (`a448`) and the shared CSR's header (`a64`), the entries shrunk to the
/// 2 298 relations they hold (`r18384`). Then the cost model's remap, the
/// warm re-placement, the refill — whose one allocation is the sender
/// segments' regrowth (`r17744`) — and the compute phase's per-block record
/// (`r2480`).
const REMESH: &str = "\
    a652 a33696 a448 a64 r18384 \
    a1296 a648 r2496 r1200 a128 a128 r17744 r2480";
