//! Proof of the sharded steady states: after warm-up,
//!
//! 1. repeated `PlacementEngine::rebalance` calls with the two-stage
//!    [`Hierarchical`] policy at the same problem size perform no heap
//!    allocation — stage-1 shard aggregation/cuts and the per-node stage-2
//!    LPT heaps all live in policy-owned pools, and
//! 2. a warm `AmrMesh::patch_neighbor_graph`, and a `ShardedMesh::recount`
//!    of the patched graph after it, across an oscillating refine/coarsen
//!    cycle perform no heap allocation — CSR staging (inherited and probed
//!    rows alike — a warm probe of a created block's row allocates nothing),
//!    the shard windows, the halo counts and the stamp row are pooled and
//!    refilled in place, and
//! 3. a serial `AmrMesh::build_neighbor_graph` allocates its two output
//!    arrays, one row scratch and the shared CSR's header, nothing per row
//!    and no copy of the mesh's index — and `AmrMesh::neighbor_graph`,
//!    once the mesh keeps its graph, allocates nothing.
//!
//! This file must stay a single-test binary: the counting allocator is
//! process-global, so a concurrently running sibling test would pollute the
//! measurement. (All three therefore live in the one test fn.)

use amr_core::engine::PlacementEngine;
use amr_core::policies::Hierarchical;
use amr_mesh::{AmrMesh, Dim, MeshConfig, NeighborGraph, PatchScratch, RefineTag, ShardedMesh};
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
fn steady_state_sharded_rebalance_and_recount_are_allocation_free() {
    // ---- Hierarchical placement steady state ------------------------------
    // 8 shards of 20 blocks onto 16 nodes of 4 ranks; rotate costs each
    // round so shard costs (and hence stage-1 cuts) keep moving, exercising
    // the warm-order invalidation path as well as the happy path.
    let num_ranks = 64;
    let costs: Vec<f64> = (0..160).map(|i| 1.0 + (i % 13) as f64 * 0.37).collect();
    let mut shifted = costs.clone();
    let policy = Hierarchical::new(8, 4);
    let mut engine = PlacementEngine::new();
    for _ in 0..3 {
        shifted.rotate_right(1);
        engine
            .rebalance(&policy, &shifted, num_ranks)
            .unwrap_or_else(|e| panic!("warm-up failed: {e}"));
    }
    // Take the minimum delta over several rounds so unrelated background
    // allocation cannot produce a false positive; the engine must hit zero.
    let mut min_delta = u64::MAX;
    for _ in 0..5 {
        shifted.rotate_right(1);
        let before = alloc_count();
        let report = engine
            .rebalance(&policy, &shifted, num_ranks)
            .unwrap_or_else(|e| panic!("rebalance failed: {e}"));
        let delta = alloc_count() - before;
        min_delta = min_delta.min(delta);
        assert_eq!(report.num_blocks, shifted.len());
    }
    assert_eq!(
        min_delta, 0,
        "steady-state hierarchical rebalance allocated {min_delta} times"
    );

    // ---- Graph repair and shard recount steady state -----------------------
    // Oscillate the mesh between its 8-root shape and every other root
    // refined (4 survivors + 32 children): every cycle produces two real
    // deltas with inherited *and* probed rows, so every
    // `patch_neighbor_graph` runs the incremental path and every `recount`
    // moves the windows and re-stamps the halos, against buffers that have
    // already seen both shapes.
    let mut mesh = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (32, 32, 32), 2));
    let mut flat = (mesh.neighbor_graph(), PatchScratch::default());
    let mut sharded = ShardedMesh::new(&mesh, 4, &flat.0);
    let cycle = |mesh: &mut AmrMesh,
                 sharded: &mut ShardedMesh,
                 (graph, scratch): &mut (NeighborGraph, PatchScratch),
                 measure: bool|
     -> u64 {
        let mut spent = 0u64;
        mesh.adapt(|b| {
            if b.level() == 0 && b.id.index() % 2 == 0 {
                RefineTag::Refine
            } else {
                RefineTag::Keep
            }
        });
        let before = alloc_count();
        assert!(
            mesh.patch_neighbor_graph(graph, scratch),
            "refine delta must patch, not rebuild"
        );
        sharded.recount(mesh, graph);
        spent += alloc_count() - before;
        mesh.adapt(|b| {
            if b.level() > 0 {
                RefineTag::Coarsen
            } else {
                RefineTag::Keep
            }
        });
        let before = alloc_count();
        assert!(
            mesh.patch_neighbor_graph(graph, scratch),
            "coarsen delta must patch, not rebuild"
        );
        sharded.recount(mesh, graph);
        spent += alloc_count() - before;
        if measure {
            spent
        } else {
            0
        }
    };
    for _ in 0..2 {
        cycle(&mut mesh, &mut sharded, &mut flat, false); // warm both shapes
    }
    let blocks_at_rest = mesh.num_blocks();
    let mut min_delta = u64::MAX;
    for _ in 0..3 {
        min_delta = min_delta.min(cycle(&mut mesh, &mut sharded, &mut flat, true));
    }
    assert_eq!(
        min_delta, 0,
        "steady-state graph patch + shard recount allocated {min_delta} times"
    );
    assert_eq!(
        mesh.num_blocks(),
        blocks_at_rest,
        "cycle must be shape-stable"
    );
    assert_eq!(
        *sharded.shard_starts().last().unwrap() as usize,
        blocks_at_rest
    );
    assert!(sharded.total_halo_blocks() > 0);

    // ---- Serial full build --------------------------------------------------
    // 8 roots, all refined (64), then 22 of the children (+ 7 each): a
    // three-level 218-block mesh, far below the pool build's threshold.
    mesh.adapt(|_| RefineTag::Refine);
    mesh.adapt(|b| {
        if b.id.index() < 22 {
            RefineTag::Refine
        } else {
            RefineTag::Keep
        }
    });
    assert_eq!(mesh.num_blocks(), 218);
    let mut min_delta = u64::MAX;
    for _ in 0..3 {
        let before = alloc_count();
        let graph = mesh.build_neighbor_graph();
        min_delta = min_delta.min(alloc_count() - before);
        assert_eq!(graph.num_blocks(), 218);
    }
    assert!(
        min_delta <= 4,
        "a serial graph build allocated {min_delta} times \
         (offsets, entries, row scratch, shared header = 4)"
    );
    mesh.neighbor_graph();
    let before = alloc_count();
    let kept = mesh.neighbor_graph();
    assert_eq!(
        alloc_count() - before,
        0,
        "handing out the kept graph allocated"
    );
    assert_eq!(kept.num_blocks(), 218);
}
