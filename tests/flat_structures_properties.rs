//! Equivalence proofs for the flattened hot-path data structures.
//!
//! PR "flatten the hot paths" replaced two nested/hashed structures with
//! flat ones, keeping the old implementations around as oracles:
//!
//! 1. The CSR neighbor graph (`NeighborGraph::build` over a leaf slice and
//!    `AmrMesh::neighbor_graph_on` over the mesh's own index, serial and on
//!    pools of several lane counts — one row loop behind both, which
//!    classifies probe keys by binary search over the Morton-sorted key
//!    array) must equal the original hash-based builder — `mod oracle`
//!    below, per-block `Vec<Vec<Neighbor>>` with `HashMap` dedup, moved out
//!    of the library — on random 2:1-balanced 2D and 3D trees.
//! 2. The calendar-queue + event-arena MPI engine (`MpiWorld::run`) must
//!    replay random message traces to the exact same per-rank stats and
//!    makespan as `run_heap_reference` (the old `BinaryHeap` + `HashMap`
//!    scheduler).
//!
//! PR "O(changed blocks) remeshing" added incremental maintenance of both
//! derived structures, with the from-scratch builders kept as oracles:
//!
//! 3. `AmrMesh::patch_neighbor_graph` (surviving rows inherited through the
//!    `RefinementDelta`'s fate table, created blocks probed) must equal a
//!    fresh `AmrMesh::neighbor_graph` build after every adapt of a random
//!    2D/3D refinement sequence — three levels deep, bounded and periodic,
//!    on root grids down to one root on an axis.
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
    Aabb, AmrMesh, BlockSpec, Dim, MeshConfig, Neighbor, NeighborGraph, Octant, PatchScratch,
    RefineTag, ShardedMesh, WorkerPool,
};
use amr_tools::sim::mpi::Op;
use amr_tools::sim::{MpiWorld, NetworkConfig, Topology};
use proptest::prelude::*;

/// The original neighbor-graph builder, kept as the oracle the CSR builders
/// are proved against: `HashMap<Octant, BlockId>` id lookup, per-leaf
/// `HashMap` dedup (first insertion wins; directions arrive faces-first),
/// `Octree::coverage` classification.
mod oracle {
    use amr_tools::mesh::tree::Coverage;
    use amr_tools::mesh::{BlockId, Direction, Neighbor, NeighborKind, Octant, Octree};
    use std::collections::HashMap;

    pub fn build(tree: &Octree, leaves: &[Octant]) -> Vec<Vec<Neighbor>> {
        let id_of: HashMap<Octant, BlockId> = leaves
            .iter()
            .enumerate()
            .map(|(i, o)| (*o, BlockId(i as u32)))
            .collect();
        let mut rows = Vec::with_capacity(leaves.len());
        for leaf in leaves {
            let mut seen: HashMap<BlockId, Neighbor> = HashMap::new();
            for dir in Direction::all(tree.dim()) {
                let Some(nb_cell) = tree.lattice_neighbor(leaf, *dir) else {
                    continue;
                };
                let kind = NeighborKind::from_codim(dir.codim());
                let touching = match tree.coverage(&nb_cell) {
                    Coverage::Leaf => vec![nb_cell],
                    Coverage::CoveredBy(coarse) => vec![coarse],
                    Coverage::Subdivided => touching_descendant_leaves(tree, &nb_cell, *dir),
                    Coverage::Outside => vec![],
                };
                for o in touching {
                    let id = id_of[&o];
                    seen.entry(id).or_insert(Neighbor {
                        block: id,
                        kind,
                        level_delta: o.level as i8 - leaf.level as i8,
                    });
                }
            }
            let mut row: Vec<Neighbor> = seen.into_values().collect();
            row.sort_by_key(|n| n.block);
            rows.push(row);
        }
        rows
    }

    /// Leaves that are descendants of `cell` and touch the boundary shared
    /// with the cell the direction came from (the near side w.r.t. `dir`).
    fn touching_descendant_leaves(tree: &Octree, cell: &Octant, dir: Direction) -> Vec<Octant> {
        fn collect(tree: &Octree, cell: &Octant, dir: Direction, out: &mut Vec<Octant>) {
            match tree.coverage(cell) {
                Coverage::Leaf => out.push(*cell),
                Coverage::Subdivided => {
                    for child in cell.children(tree.dim()) {
                        let near_x = dir.dx == 0 || (dir.dx > 0) == (child.x & 1 == 0);
                        let near_y = dir.dy == 0 || (dir.dy > 0) == (child.y & 1 == 0);
                        let near_z = dir.dz == 0 || (dir.dz > 0) == (child.z & 1 == 0);
                        if near_x && near_y && near_z {
                            collect(tree, &child, dir, out);
                        }
                    }
                }
                Coverage::CoveredBy(_) | Coverage::Outside => {}
            }
        }
        let mut out = Vec::new();
        collect(tree, cell, dir, &mut out);
        out
    }
}

/// Rows of a CSR graph in the oracle's shape.
fn rows_of(graph: &NeighborGraph) -> Vec<Vec<Neighbor>> {
    graph.iter().map(|(_, row)| row.to_vec()).collect()
}

/// One hash-salted refine/coarsen round, deterministic in `key`: a third of
/// the sibling families are tagged to merge (the draw is on the *parent*
/// octant, so all `2^d` siblings agree — a per-block draw never coarsens
/// anything), a fifth of the remaining blocks to refine. Varied enough to
/// produce irregular level interfaces, the hard case for cover
/// classification and row inheritance.
fn hash_adapt(mesh: &mut AmrMesh, key: u64) {
    let draw = |o: &Octant, salt: u64| {
        let bits =
            ((o.level as u64) << 60) ^ ((o.x as u64) << 40) ^ ((o.y as u64) << 20) ^ o.z as u64;
        next(&mut (bits ^ key.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ salt))
    };
    mesh.adapt(|b| {
        if b.octant.parent().is_some_and(|p| draw(&p, 1) % 3 == 0) {
            RefineTag::Coarsen
        } else if draw(&b.octant, 2) % 5 == 0 {
            RefineTag::Refine
        } else {
            RefineTag::Keep
        }
    });
}

/// The fixed 4x4 (2-D) / 2x2x2 (3-D) two-level mesh of the build and index
/// properties.
fn base_mesh(dim_3d: bool) -> AmrMesh {
    let dim = if dim_3d { Dim::D3 } else { Dim::D2 };
    let cells = if dim_3d { (32, 32, 32) } else { (64, 64, 64) };
    AmrMesh::new(MeshConfig::from_cells(dim, cells, 2))
}

/// A mesh for the graph-repair properties: any root grid of 1-3 roots an
/// axis (non-cubic, and degenerate under wrap-around below three), bounded
/// or periodic, three levels deep so balance ripples re-refine.
fn repair_mesh(dim_3d: bool, roots: (u32, u32, u32), periodic: bool) -> AmrMesh {
    AmrMesh::new(MeshConfig {
        dim: if dim_3d { Dim::D3 } else { Dim::D2 },
        roots: (roots.0, roots.1, if dim_3d { roots.2 } else { 1 }),
        domain: Aabb::unit(),
        spec: BlockSpec::default(),
        max_level: 3,
        periodic,
    })
}

/// Pools of 1 (the serial build), 2, 3 and 8 lanes, spawned once.
fn pools() -> &'static [WorkerPool] {
    static POOLS: std::sync::OnceLock<Vec<WorkerPool>> = std::sync::OnceLock::new();
    POOLS.get_or_init(|| [1, 2, 3, 8].map(WorkerPool::new).into())
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
    /// The CSR builders — the leaf-slice entry point and the mesh's own
    /// index, serial and on pools of 2, 3 and 8 lanes — reproduce the
    /// oracle's adjacency exactly, on bounded and periodic trees from a
    /// single block (fewer rows than lanes, empty spans) to several hundred
    /// (ragged spans).
    #[test]
    fn csr_builders_match_legacy_on_random_trees(
        dim_3d: bool,
        periodic: bool,
        roots in (1u32..5, 1u32..5, 1u32..5),
        steps in 0usize..4,
        salt in 0u64..1000,
    ) {
        let mut mesh = repair_mesh(dim_3d, roots, periodic);
        for step in 0..steps {
            hash_adapt(&mut mesh, salt.wrapping_add(step as u64));
        }
        let leaves = mesh.tree().leaves_sorted();
        let built = NeighborGraph::build(mesh.tree(), &leaves);
        prop_assert_eq!(rows_of(&built), oracle::build(mesh.tree(), &leaves));
        prop_assert!(built.check_symmetry().is_ok());
        for pool in pools() {
            prop_assert_eq!(&mesh.neighbor_graph_on(pool), &built, "lanes = {}", pool.threads());
        }
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
    /// adapt sequence equals a from-scratch build after every step — every
    /// inherited row is the row a probe would have built, on every tree.
    #[test]
    fn patched_graph_matches_full_build_on_random_sequences(
        dim_3d: bool,
        periodic: bool,
        roots in (1u32..4, 1u32..4, 1u32..4),
        steps in 1usize..9,
        salt in 0u64..1000,
    ) {
        let mut mesh = repair_mesh(dim_3d, roots, periodic);
        let mut graph = mesh.neighbor_graph();
        let mut scratch = PatchScratch::default();
        for step in 0..steps {
            hash_adapt(&mut mesh, salt.wrapping_add(step as u64));
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
        periodic: bool,
        roots in (1u32..4, 1u32..4, 1u32..4),
        steps in 1usize..9,
        salt in 0u64..1000,
        num_shards in 1usize..7,
    ) {
        let mut mesh = repair_mesh(dim_3d, roots, periodic);
        let pool = WorkerPool::new(1);
        let mut sharded = ShardedMesh::new(&mesh, num_shards, &pool);
        let mut flat = NeighborGraph::default();
        for step in 0..steps {
            hash_adapt(&mut mesh, salt.wrapping_add(step as u64));
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
        let mut mesh = base_mesh(dim_3d);
        for step in 0..steps {
            hash_adapt(&mut mesh, salt.wrapping_add(step as u64));
            let mut oracle = mesh.clone();
            oracle.force_full_rebuild();
            prop_assert_eq!(mesh.blocks(), oracle.blocks());
            prop_assert_eq!(mesh.sfc_keys(), oracle.sfc_keys());
        }
    }
}
