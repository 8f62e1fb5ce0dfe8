//! Equivalence proofs for the flattened hot-path data structures.
//!
//! PR "flatten the hot paths" replaced two nested/hashed structures with
//! flat ones, keeping the old implementations around as oracles:
//!
//! 1. The CSR neighbor graph (`build_serial` / `build_parallel`, which
//!    classify probe octants by binary search over the Morton-sorted leaf
//!    array) must equal `build_legacy` (per-block `Vec<Vec<Neighbor>>` with
//!    `HashMap` dedup) on random 2:1-balanced 2D and 3D trees.
//! 2. The calendar-queue + event-arena MPI engine (`MpiWorld::run`) must
//!    replay random message traces to the exact same per-rank stats and
//!    makespan as `run_heap_reference` (the old `BinaryHeap` + `HashMap`
//!    scheduler).
//!
//! PR "O(changed blocks) remeshing" added incremental maintenance of both
//! derived structures, with the from-scratch builders kept as oracles:
//!
//! 3. `AmrMesh::patch_neighbor_graph` (CSR row repair driven by the
//!    `RefinementDelta`) must equal a fresh `AmrMesh::neighbor_graph` build
//!    after every adapt of a random 2D/3D refinement sequence.
//! 4. The incrementally spliced block index (sorted blocks + SFC keys) must
//!    equal a forced full DFS rebuild after every adapt.
//!
//! PR "shard the mesh" split the global CSR into per-shard graphs with halo
//! tables, refreshed per shard from the same delta:
//!
//! 5. A `ShardedMesh` maintained purely by `refresh` across a random adapt
//!    sequence must flatten to the from-scratch global graph after every
//!    step, for any shard count — and its halo tables must index exactly
//!    the out-of-shard neighbor ids.

use amr_tools::mesh::{
    AmrMesh, Dim, MeshConfig, NeighborGraph, PatchScratch, RefineTag, ShardedMesh, WorkerPool,
};
use amr_tools::sim::mpi::Op;
use amr_tools::sim::{MpiWorld, NetworkConfig, Topology};
use proptest::prelude::*;

/// Grow a mesh with hash-salted refine/coarsen rounds (same idiom as
/// `mesh_properties.rs`): deterministic in `(dim, steps, salt)` yet varied
/// enough to produce irregular level interfaces, the hard case for the
/// binary-search cover classification.
fn random_mesh(dim_3d: bool, steps: usize, salt: u64) -> AmrMesh {
    let dim = if dim_3d { Dim::D3 } else { Dim::D2 };
    let cells = if dim_3d { (32, 32, 32) } else { (64, 64, 64) };
    let mut mesh = AmrMesh::new(MeshConfig::from_cells(dim, cells, 2));
    for step in 0..steps {
        let key = salt.wrapping_add(step as u64);
        mesh.adapt(|b| {
            let h = (b.id.index() as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(key);
            match h % 5 {
                0 => RefineTag::Refine,
                1 => RefineTag::Coarsen,
                _ => RefineTag::Keep,
            }
        });
    }
    mesh
}

/// Splitmix-style step for deriving trace parameters from a proptest salt.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

proptest! {
    /// CSR builders (serial and every thread count, including counts that
    /// leave ragged final chunks) reproduce the legacy adjacency exactly.
    #[test]
    fn csr_builders_match_legacy_on_random_trees(
        dim_3d: bool,
        steps in 1usize..4,
        salt in 0u64..1000,
        threads in 1usize..6,
    ) {
        let mesh = random_mesh(dim_3d, steps, salt);
        let leaves = mesh.tree().leaves_sorted();
        let legacy = NeighborGraph::build_legacy(mesh.tree(), &leaves);
        let serial = NeighborGraph::build_serial(mesh.tree(), &leaves);
        prop_assert_eq!(&serial, &legacy);
        let parallel = NeighborGraph::build_parallel(mesh.tree(), &leaves, threads);
        prop_assert_eq!(&parallel, &serial);
        prop_assert!(serial.check_symmetry().is_ok());
    }

    /// The calendar-queue engine replays random deadlock-free traces —
    /// arbitrary point-to-point messages (duplicate tags allowed, so FIFO
    /// matching order matters), per-rank compute skew, and an optional
    /// closing barrier — to bit-identical results of the heap oracle.
    #[test]
    fn calendar_engine_matches_heap_reference_on_random_traces(
        nranks in 2usize..9,
        nmsgs in 0usize..48,
        salt: u64,
        barrier: bool,
    ) {
        let mut rng = salt;
        // Each message gets exactly one Isend and one matching Irecv, all
        // nonblocking and posted before the WaitAll, so no trace deadlocks.
        let mut msgs = Vec::new();
        for _ in 0..nmsgs {
            let src = (next(&mut rng) as usize) % nranks;
            let dst_raw = (next(&mut rng) as usize) % nranks;
            let dst = if dst_raw == src { (dst_raw + 1) % nranks } else { dst_raw };
            let tag = (next(&mut rng) % 4) as u32;
            let bytes = 1 + next(&mut rng) % 65_536;
            msgs.push((src as u32, dst as u32, tag, bytes));
        }
        let mut programs: Vec<Vec<Op>> = vec![Vec::new(); nranks];
        for &(src, dst, tag, _) in &msgs {
            programs[dst as usize].push(Op::Irecv { src, tag });
        }
        for prog in &mut programs {
            prog.push(Op::Compute(next(&mut rng) % 500_000));
        }
        for &(src, dst, tag, bytes) in &msgs {
            programs[src as usize].push(Op::Isend { dst, tag, bytes });
        }
        for prog in &mut programs {
            prog.push(Op::WaitAll);
            if barrier {
                prog.push(Op::Barrier);
            }
        }

        let mut world = MpiWorld::new(Topology::paper(nranks), NetworkConfig::tuned());
        let fast = world.run(programs.clone()).expect("calendar engine completes");
        let oracle = world
            .run_heap_reference(programs)
            .expect("heap oracle completes");
        prop_assert_eq!(fast.makespan_ns, oracle.makespan_ns);
        prop_assert_eq!(fast.ranks, oracle.ranks);
    }

    /// A neighbor graph maintained purely by CSR patching across a random
    /// adapt sequence equals a from-scratch build after every step — the
    /// patch repairs exactly the affected rows and nothing else drifts.
    #[test]
    fn patched_graph_matches_full_build_on_random_sequences(
        dim_3d: bool,
        steps in 1usize..5,
        salt in 0u64..1000,
    ) {
        let dim = if dim_3d { Dim::D3 } else { Dim::D2 };
        let cells = if dim_3d { (32, 32, 32) } else { (64, 64, 64) };
        let mut mesh = AmrMesh::new(MeshConfig::from_cells(dim, cells, 2));
        let mut graph = mesh.neighbor_graph();
        let mut scratch = PatchScratch::default();
        for step in 0..steps {
            let key = salt.wrapping_add(step as u64);
            mesh.adapt(|b| {
                let h = (b.id.index() as u64)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(key);
                match h % 5 {
                    0 => RefineTag::Refine,
                    1 => RefineTag::Coarsen,
                    _ => RefineTag::Keep,
                }
            });
            mesh.patch_neighbor_graph(&mut graph, &mut scratch);
            let full = mesh.neighbor_graph();
            prop_assert_eq!(&graph, &full);
            prop_assert!(graph.check_symmetry().is_ok());
        }
    }

    /// A sharded mesh maintained purely by per-shard splice+patch
    /// (`ShardedMesh::refresh`) across a random 2D/3D adapt sequence equals
    /// the from-scratch global build after every step: concatenating the
    /// shard-local CSR rows reproduces the global graph exactly, and every
    /// halo table holds precisely the sorted out-of-shard ids its shard's
    /// rows reference.
    #[test]
    fn sharded_refresh_matches_global_rebuild_on_random_sequences(
        dim_3d: bool,
        steps in 1usize..5,
        salt in 0u64..1000,
        num_shards in 1usize..7,
    ) {
        let dim = if dim_3d { Dim::D3 } else { Dim::D2 };
        let cells = if dim_3d { (32, 32, 32) } else { (64, 64, 64) };
        let mut mesh = AmrMesh::new(MeshConfig::from_cells(dim, cells, 2));
        let pool = WorkerPool::new(1);
        let mut sharded = ShardedMesh::new(&mesh, num_shards, &pool);
        let mut flat = NeighborGraph::default();
        for step in 0..steps {
            let key = salt.wrapping_add(step as u64);
            mesh.adapt(|b| {
                let h = (b.id.index() as u64)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(key);
                match h % 5 {
                    0 => RefineTag::Refine,
                    1 => RefineTag::Coarsen,
                    _ => RefineTag::Keep,
                }
            });
            sharded.refresh(&mesh, &pool);
            let oracle = mesh.neighbor_graph();
            sharded.flatten_into(&mut flat);
            prop_assert_eq!(&flat, &oracle);
            // Halo tables: sorted, deduplicated, and exactly the
            // out-of-window ids referenced by the shard's rows.
            for s in 0..sharded.num_shards() {
                let shard = sharded.shard(s);
                let range = shard.range();
                prop_assert!(shard.halo().windows(2).all(|w| w[0] < w[1]));
                let mut referenced: Vec<u32> = (0..shard.num_blocks())
                    .flat_map(|local| shard.neighbors_local(local))
                    .map(|n| n.block.index() as u32)
                    .filter(|&g| (g as usize) < range.start || (g as usize) >= range.end)
                    .collect();
                referenced.sort_unstable();
                referenced.dedup();
                prop_assert_eq!(shard.halo(), &referenced[..]);
            }
        }
    }

    /// The incrementally spliced block index (Morton-sorted blocks and their
    /// SFC keys) equals a forced full DFS rebuild after every adapt of a
    /// random refinement sequence: splicing never reorders, drops, or
    /// miscomputes a block.
    #[test]
    fn spliced_index_matches_full_rebuild_on_random_sequences(
        dim_3d: bool,
        steps in 1usize..5,
        salt in 0u64..1000,
    ) {
        let mut mesh = AmrMesh::new(MeshConfig::from_cells(
            if dim_3d { Dim::D3 } else { Dim::D2 },
            if dim_3d { (32, 32, 32) } else { (64, 64, 64) },
            2,
        ));
        for step in 0..steps {
            let key = salt.wrapping_add(step as u64);
            mesh.adapt(|b| {
                let h = (b.id.index() as u64)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(key);
                match h % 5 {
                    0 => RefineTag::Refine,
                    1 => RefineTag::Coarsen,
                    _ => RefineTag::Keep,
                }
            });
            let mut oracle = mesh.clone();
            oracle.force_full_rebuild();
            prop_assert_eq!(mesh.blocks(), oracle.blocks());
            prop_assert_eq!(mesh.sfc_keys(), oracle.sfc_keys());
        }
    }
}
