//! Proof of the zero-allocation steady states: after warm-up,
//!
//! 1. repeated `PlacementEngine::rebalance` calls at the same problem size
//!    perform no heap allocation for any sequential policy,
//! 2. warm `MicroSim::run_round_into` rounds perform no heap allocation —
//!    dispatch times, by-source groups, arrival lists, the link matrix and
//!    the barrier waits are pooled in the simulator, the result's vectors
//!    are refilled in place — under every network mechanism, and
//! 3. a no-op `AmrMesh::adapt` pass (all blocks tagged `Keep`) performs no
//!    heap allocation — tag staging and coarsen grouping are pooled, and the
//!    identity fast path never touches the block index.
//!
//! This file must stay a single-test binary: the counting allocator is
//! process-global, so a concurrently running sibling test would pollute the
//! measurement. (Both steady states therefore live in the one test fn.)

use amr_core::engine::PlacementEngine;
use amr_core::policies::{Baseline, Cdp, ChunkedCdp, Cplx, Lpt, PlacementPolicy};
use amr_sim::{Message, MicroSim, NetworkConfig, RoundResult, RoundSpec, TaskOrder, Topology};
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
fn steady_state_rebalance_is_allocation_free() {
    // 160 blocks on 64 ranks: n % r = 32 > 0, so the restricted CDP runs its
    // real DP (no divisible-case short circuit). ChunkedCdp at 512
    // ranks/chunk is one chunk; `Cplx::with_chunking(50, 8)` is eight, each
    // solved on the same scratch.
    let num_ranks = 64;
    let costs: Vec<f64> = (0..160).map(|i| 1.0 + (i % 13) as f64 * 0.37).collect();
    let mut shifted = costs.clone();

    let policies: Vec<Box<dyn PlacementPolicy>> = vec![
        Box::new(Baseline),
        Box::new(Lpt),
        Box::new(Cdp),
        Box::new(ChunkedCdp::default()),
        Box::new(Cplx::new(50)),
        Box::new(Cplx::new(100)),
        Box::new(Cplx::with_chunking(50, 8)),
    ];

    for policy in &policies {
        let mut engine = PlacementEngine::new();
        // Warm-up: size every scratch buffer, both placement buffers, and
        // the migration-accounting flows (which need a prev placement).
        for round in 0..3 {
            shifted.rotate_right(1);
            engine
                .rebalance(policy.as_ref(), &shifted, num_ranks)
                .unwrap_or_else(|e| panic!("{}: warm-up failed: {e}", policy.name()));
            let _ = round;
        }

        // Measured steady state: rotate costs each round so placements keep
        // changing (exercising migration accounting), same sizes throughout.
        // Take the minimum delta over several rounds so unrelated background
        // allocation (test-harness bookkeeping) cannot produce a false
        // positive; the engine itself must hit zero.
        let mut min_delta = u64::MAX;
        for _ in 0..5 {
            shifted.rotate_right(1);
            let before = alloc_count();
            let report = engine
                .rebalance(policy.as_ref(), &shifted, num_ranks)
                .unwrap_or_else(|e| panic!("{}: rebalance failed: {e}", policy.name()));
            let delta = alloc_count() - before;
            min_delta = min_delta.min(delta);
            assert_eq!(report.num_blocks, shifted.len());
        }
        assert_eq!(
            min_delta,
            0,
            "{}: steady-state rebalance allocated {min_delta} times",
            policy.name()
        );
    }

    // ---- Warm multilevel repartition ----------------------------------------
    // The multilevel partitioner's warm path (same block and rank count as
    // the previous placement) refines in place against the engine's
    // `MlScratch` arena: no coarsening, no level rebuilds, zero heap traffic
    // once the buckets and level-0 buffers have grown to the working size.
    {
        use amr_core::policies::Multilevel;
        use amr_mesh::{AmrMesh, Dim, MeshConfig};
        let mesh = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (128, 128, 128), 1));
        let graph = mesh.neighbor_graph();
        let n = mesh.num_blocks();
        assert!(n > 128, "must exceed the greedy-delegation threshold");
        let num_ranks = 16;
        let policy = Multilevel::default();
        let mut shifted: Vec<f64> = (0..n).map(|i| 1.0 + (i % 13) as f64 * 0.37).collect();
        let mut engine = PlacementEngine::new();
        // Warm-up: cold pipeline once (sizes the level hierarchy), then warm
        // rounds to size every bucket and the migration flows.
        for _ in 0..3 {
            shifted.rotate_right(1);
            engine
                .rebalance_weighted(
                    &policy,
                    &shifted,
                    num_ranks,
                    Some(&mesh),
                    None,
                    Some(&graph),
                    None,
                )
                .expect("multilevel warm-up");
        }
        let mut min_delta = u64::MAX;
        for _ in 0..5 {
            shifted.rotate_right(1);
            let before = alloc_count();
            let report = engine
                .rebalance_weighted(
                    &policy,
                    &shifted,
                    num_ranks,
                    Some(&mesh),
                    None,
                    Some(&graph),
                    None,
                )
                .expect("warm multilevel repartition");
            let delta = alloc_count() - before;
            min_delta = min_delta.min(delta);
            assert_eq!(report.num_blocks, n);
        }
        assert_eq!(
            min_delta, 0,
            "warm multilevel repartition allocated {min_delta} times"
        );
    }

    // ---- Simulator steady state -------------------------------------------
    // Warm rounds of one simulator must not allocate, whichever mechanisms
    // the network model runs: the tuned stack, ACK-loss draws on a third of
    // the remote sends (stalls charged, no drain queue), and a credit window
    // every inter-node link overfills — each at both task orders. Every
    // round is counted, not the quietest: scratch that grew across rounds
    // would reallocate on some of them. 64 ranks, each sending to 4 peers
    // (one on its node, three off it) and to itself.
    let ranks = 64u32;
    let messages: Vec<Message> = (0..ranks)
        .flat_map(|i| {
            [0, 1, 16, 37, 50].map(|d| Message {
                src: i,
                dst: (i + d) % ranks,
                bytes: if d == 0 { 1_280 } else { 20_480 },
            })
        })
        .collect();
    let networks = [
        ("tuned", NetworkConfig::tuned()),
        (
            "untuned",
            NetworkConfig {
                ack_loss_prob: 0.3,
                ..NetworkConfig::untuned()
            },
        ),
        (
            "congested",
            NetworkConfig {
                fabric_credit_bytes: 64 << 10,
                ..NetworkConfig::congested()
            },
        ),
    ];
    for (name, net) in networks {
        for order in [TaskOrder::SendsFirst, TaskOrder::ComputeFirst] {
            let spec = RoundSpec {
                num_ranks: ranks as usize,
                compute_ns: (0..ranks as u64).map(|i| 250_000 + i * 11_000).collect(),
                messages: messages.clone(),
                order,
            };
            let mut sim = MicroSim::new(Topology::paper(ranks as usize), net, 7);
            let mut out = RoundResult::default();
            sim.run_round_into(&spec, &mut out);
            let mut stalls = 0;
            let before = alloc_count();
            for _ in 0..5 {
                sim.run_round_into(&spec, &mut out);
                stalls += out.ack_stalls;
            }
            let allocs = alloc_count() - before;
            assert_eq!(
                allocs, 0,
                "{name} {order:?}: five warm rounds allocated {allocs} times"
            );
            assert!(name != "untuned" || stalls > 0, "no ACK stall was drawn");
        }
    }

    // ---- Mesh no-op adapt steady state --------------------------------------
    // Tagging every block `Keep` must cost nothing on the heap: the per-block
    // tag staging and coarsen-candidate buffers are pooled in the mesh, and
    // the identity fast path skips the block-index splice entirely.
    use amr_mesh::{AmrMesh, Dim, MeshConfig, RefineTag};
    let mut mesh = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (64, 64, 64), 2));
    // Refine a sprinkle of blocks so the no-op pass walks a non-trivial,
    // multi-level mesh; then warm the pools with one no-op round.
    mesh.adapt(|b| {
        if b.id.index() % 9 == 0 {
            RefineTag::Refine
        } else {
            RefineTag::Keep
        }
    });
    mesh.adapt(|_| RefineTag::Keep);
    let blocks_before = mesh.num_blocks();
    let mut min_delta = u64::MAX;
    for _ in 0..5 {
        let before = alloc_count();
        let identity = mesh.adapt(|_| RefineTag::Keep).is_identity();
        let delta = alloc_count() - before;
        assert!(identity, "all-Keep adapt must report an identity delta");
        min_delta = min_delta.min(delta);
    }
    assert_eq!(
        min_delta, 0,
        "no-op adapt allocated {min_delta} times after warm-up"
    );
    assert_eq!(mesh.num_blocks(), blocks_before);
}
