//! Property-based tests for the multilevel k-way partitioner (amr-core).
//!
//! These pin the invariants the multilevel pipeline is built on:
//!
//! * **Validity** — every block is placed exactly once on a real rank, and
//!   the balance-slack cap (plus one-vertex granularity) holds at *every*
//!   coarsening level, not just the final placement.
//! * **Cut-invariant uncoarsening** — projecting a coarse assignment one
//!   level finer never changes the cut: a contracted pair shares a coarse
//!   vertex, so both members land on the same rank and intra-pair edges stay
//!   internal. Refinement then only ever decreases it.
//! * **Greedy equivalence below the threshold** — small graphs bypass the
//!   multilevel machinery entirely and must be *bitwise identical* to
//!   [`GreedyEdgeCut`] with the same slack/sweeps, so the two policy
//!   families genuinely share one small-graph code path.
//! * **Determinism under observed weights** — arbitrary per-relation byte
//!   weights produce identical partitions at any worker-thread count (the
//!   pooled HEM proposal sweep only writes task-owned slots).

use amr_tools::mesh::{AmrMesh, Dim, MeshConfig, RefineTag};
use amr_tools::placement::engine::PlacementCtx;
use amr_tools::placement::policies::multilevel::Multilevel;
use amr_tools::placement::policies::{weighted_edge_cut, CutWeights, GreedyEdgeCut};
use amr_tools::placement::Placement;
use proptest::prelude::*;

/// Deterministic splitmix64 (weights and refine patterns from one seed).
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A multi-level mesh with a seed-dependent refinement sprinkle — large
/// enough (512 base blocks) that the multilevel pipeline always engages.
fn big_mesh(seed: u64) -> AmrMesh {
    let mut mesh = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (128, 128, 128), 1));
    let salt = seed | 1;
    mesh.adapt(|b| {
        if (b.id.index() as u64).wrapping_mul(salt).is_multiple_of(7) {
            RefineTag::Refine
        } else {
            RefineTag::Keep
        }
    });
    mesh
}

/// Seed-dependent block costs in [1, 5.6).
fn costs_for(n: usize, seed: u64) -> Vec<f64> {
    let mut s = seed ^ 0xC057;
    (0..n)
        .map(|_| 1.0 + (mix(&mut s) % 1000) as f64 * 4.6e-3)
        .collect()
}

proptest! {
    /// Validity + per-level balance: every block placed once, and at every
    /// uncoarsening level the refined max rank load respects
    /// `cap + max_vertex_weight` (the cap alone is unreachable whenever a
    /// single coarse vertex outweighs the slack).
    #[test]
    fn partition_is_valid_and_balanced_at_every_level(
        seed in 0u64..500,
        ranks in 2usize..24,
    ) {
        let mesh = big_mesh(seed);
        let n = mesh.num_blocks();
        let graph = mesh.neighbor_graph();
        let costs = costs_for(n, seed);
        let ctx = PlacementCtx::new(&costs, ranks).with_mesh(&mesh).with_graph(&graph);
        let mut out = Placement::new(Vec::new(), 1);
        let (report, stats) = Multilevel::default()
            .place_with_stats(&ctx, &mut out)
            .expect("placement succeeds");
        prop_assert_eq!(report.num_blocks, n);
        prop_assert_eq!(out.num_blocks(), n);
        prop_assert!(out.as_slice().iter().all(|&r| (r as usize) < ranks));
        // Conservation: rank loads sum to the total cost.
        let total: f64 = costs.iter().sum();
        let loads = out.rank_loads(&costs);
        let load_sum: f64 = loads.iter().sum();
        prop_assert!((load_sum - total).abs() < 1e-6 * total);
        // Per-level cap (the multilevel pipeline engaged: >1 level).
        prop_assert!(!stats.delegated_greedy);
        prop_assert!(stats.levels.len() > 1, "coarsening must engage at {n} blocks");
        for (i, lvl) in stats.levels.iter().enumerate() {
            prop_assert!(
                lvl.max_load <= lvl.cap + lvl.max_vwgt + 1e-9,
                "level {}: load {} > cap {} + granularity {}",
                i, lvl.max_load, lvl.cap, lvl.max_vwgt
            );
        }
    }

    /// Uncoarsening preserves the assignment's cut exactly (projection is
    /// cut-invariant), and FM refinement is monotone: the cut arriving at a
    /// level equals the coarser level's refined cut, and never increases
    /// during the level's own passes.
    #[test]
    fn uncoarsening_preserves_cut_and_refinement_is_monotone(
        seed in 0u64..500,
        ranks in 2usize..24,
    ) {
        let mesh = big_mesh(seed);
        let graph = mesh.neighbor_graph();
        let costs = costs_for(mesh.num_blocks(), seed);
        let ctx = PlacementCtx::new(&costs, ranks).with_mesh(&mesh).with_graph(&graph);
        let mut out = Placement::new(Vec::new(), 1);
        let (_, stats) = Multilevel::default()
            .place_with_stats(&ctx, &mut out)
            .expect("placement succeeds");
        for (i, lvl) in stats.levels.iter().enumerate() {
            prop_assert!(
                lvl.cut_refined <= lvl.cut_arrived,
                "level {}: refinement raised the cut ({} -> {})",
                i, lvl.cut_arrived, lvl.cut_refined
            );
        }
        // levels[i] is finer than levels[i+1]; projection hands the coarser
        // refined cut down unchanged.
        for w in stats.levels.windows(2) {
            prop_assert_eq!(w[0].cut_arrived, w[1].cut_refined);
        }
    }

    /// Below the coarsening threshold the multilevel policy must delegate to
    /// the shared greedy and match `GreedyEdgeCut` bit for bit — same seed
    /// order, same gains, same refinement, one implementation.
    #[test]
    fn multilevel_equals_greedy_below_coarsening_threshold(
        seed in 0u64..500,
        ranks in 2usize..16,
        cells in 2usize..5,
    ) {
        // 8..64 base blocks — always at or below the 128 threshold.
        let c = cells as u32 * 16;
        let mesh = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (c, c, c), 1));
        let n = mesh.num_blocks();
        prop_assert!(n <= 128);
        let costs = costs_for(n, seed);
        let ml = Multilevel::default().place_on_mesh(&mesh, &costs, ranks);
        let greedy = GreedyEdgeCut::default().place_on_mesh(&mesh, &costs, ranks);
        prop_assert_eq!(ml, greedy);
    }

    /// Arbitrary observed weights: the partition stays valid, the observed
    /// cut never exceeds the topological partition's observed cut, and the
    /// result is identical at 1, 2 and 4 worker threads.
    #[test]
    fn observed_weights_are_deterministic_across_threads(
        seed in 0u64..500,
        ranks in 2usize..16,
    ) {
        let mesh = big_mesh(seed);
        let n = mesh.num_blocks();
        let graph = mesh.neighbor_graph();
        let costs = costs_for(n, seed);
        let mut s = seed ^ 0x0B5E;
        let weights: Vec<u64> = (0..graph.total_relations())
            .map(|_| mix(&mut s) % (1 << 30))
            .collect();
        let place = |threads: usize| {
            let policy = Multilevel::default().with_threads(threads);
            let ctx = PlacementCtx::new(&costs, ranks)
                .with_mesh(&mesh)
                .with_graph(&graph)
                .with_edge_weights(&weights);
            let mut out = Placement::new(Vec::new(), 1);
            policy.place_into(&ctx, &mut out).expect("placement succeeds");
            out
        };
        let serial = place(1);
        prop_assert!(serial.as_slice().iter().all(|&r| (r as usize) < ranks));
        for threads in [2usize, 3, 4] {
            prop_assert_eq!(&place(threads), &serial, "threads = {}", threads);
        }
        // The weighted objective itself is well-defined on the result (no
        // panic, entry space lines up) and bounded by the total weight.
        let w = CutWeights::Observed(&weights);
        let cut = weighted_edge_cut(&serial, &graph, &w);
        let total: u128 = weights.iter().map(|&x| x as u128).sum();
        prop_assert!(cut <= total);
    }
}

/// `place_into` needs `PlacementPolicy` in scope for the thread-variant
/// closure above.
use amr_tools::placement::policies::PlacementPolicy;
