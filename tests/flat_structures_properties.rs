//! Equivalence proofs for the flattened hot-path data structures.
//!
//! PR "flatten the hot paths" replaced the hash-based neighbor graph with a
//! flat one, keeping the old builder around as the oracle:
//!
//! 1. The CSR neighbor graph (`NeighborGraph::build` over a leaf slice and
//!    `AmrMesh::neighbor_graph_on` over the mesh's own index, serial and on
//!    pools of several lane counts — one row loop behind both, which
//!    classifies probe keys by binary search over the Morton-sorted key
//!    array) must equal the original hash-based builder — `mod oracle`
//!    below, per-block `Vec<Vec<Neighbor>>` with `HashMap` dedup, moved out
//!    of the library — on random 2:1-balanced 2D and 3D trees.
//!
//! PR "O(changed blocks) remeshing" added incremental maintenance of both
//! derived structures, with the from-scratch builders kept as oracles:
//!
//! 2. `AmrMesh::patch_neighbor_graph` (surviving rows inherited through the
//!    `RefinementDelta`'s fate table, created blocks probed) must equal a
//!    fresh `AmrMesh::neighbor_graph_on` build after every adapt of a random
//!    2D/3D refinement sequence — three levels deep, bounded and periodic,
//!    on root grids down to one root on an axis.
//! 3. The incrementally spliced block index (sorted blocks + SFC keys) must
//!    equal the index a mesh restored from the same tree
//!    (`AmrMesh::from_parts`) builds from scratch, after every adapt.
//!
//! PR "shard the mesh" split the global CSR into per-shard graphs with halo
//! tables; a later change made a shard a row range of the one graph plus a
//! halo count:
//!
//! 4. A `ShardedMesh` plan recounted over the patched graph after every
//!    adapt of a random sequence must give each shard the window and the
//!    halo count of the per-shard rule it replaced — `mod halo_oracle`
//!    below: key bounds planned once, windows by binary search, the halo a
//!    sort + dedup of the out-of-window ids of a fresh serial build's rows —
//!    for 1-8 shards and for more shards than blocks.
//!
//! PR "the fate table is the only remap" deleted the per-new-block
//! `CostOrigin` vector every workload derived from each adapt:
//!
//! 5. The cost-model remap, the engine's warm LPT order and migration
//!    accounting, and the exchange-byte ledger's carry now each walk the
//!    delta's fate table in old-id order. After every adapt of a random
//!    2D/3D sequence, bounded and periodic, each must equal what it was
//!    when driven by origins — `mod origin_oracle` below, the deleted
//!    converter and consumers — bit for bit.
//!
//! PR "the mesh owns its neighbour graph" made `AmrMesh::neighbor_graph`
//! keep the graph of the current snapshot, shared copy-on-write:
//!
//! 6. After every adapt of a random sequence the kept graph equals a fresh
//!    serial build; a no-op adapt keeps it (no build is counted); adapting
//!    a clone gives the original's blocks, keys, delta and graph and never
//!    changes the original's kept graph; and patching a graph that shares a
//!    kept CSR leaves that CSR as it was.

use amr_tools::mesh::{
    Aabb, AmrMesh, BlockSpec, Dim, MeshConfig, Neighbor, NeighborGraph, Octant, PatchScratch,
    RefineTag, ShardedMesh, WorkerPool,
};
use amr_tools::placement::policies::{Baseline, Lpt};
use amr_tools::placement::{PlacementEngine, TelemetryCostModel};
use amr_tools::sim::ExchangeByteLedger;
use amr_tools::telemetry::trace::{Counter, TraceHandle};
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

/// The per-shard rule the shard plan replaced, kept as its oracle: the key
/// bounds planned once over the first snapshot, each window found by binary
/// search over the current keys, and each halo the sorted, deduplicated
/// out-of-window ids the window's rows reference.
mod halo_oracle {
    use amr_tools::mesh::{BlockId, NeighborGraph};

    /// Bound `s` is the key of the block at `s·n/S`; the ends are open.
    pub fn plan_bounds(keys: &[u64], num_shards: usize) -> Vec<u64> {
        let n = keys.len();
        let mut bounds = vec![0u64];
        for s in 1..num_shards {
            bounds.push(keys.get(s * n / num_shards).copied().unwrap_or(u64::MAX));
        }
        bounds.push(u64::MAX);
        bounds
    }

    /// Each bound's first block: shard `s` owns `starts[s]..starts[s + 1]`.
    pub fn windows(keys: &[u64], bounds: &[u64]) -> Vec<u32> {
        bounds
            .iter()
            .map(|&b| keys.partition_point(|&k| k < b) as u32)
            .collect()
    }

    /// The out-of-window ids the rows of `lo..hi` reference, sorted and
    /// deduplicated.
    pub fn rebuild_halo(graph: &NeighborGraph, lo: u32, hi: u32) -> Vec<u32> {
        let mut halo: Vec<u32> = (lo..hi)
            .flat_map(|b| graph.neighbors(BlockId(b)))
            .map(|n| n.block.0)
            .filter(|&g| g < lo || g >= hi)
            .collect();
        halo.sort_unstable();
        halo.dedup();
        halo
    }
}

/// The per-new-block ancestry workloads used to derive from every adapt,
/// and the four consumers that read it, moved out of the library: the
/// oracle the fate-table walks are proved against.
mod origin_oracle {
    use amr_tools::mesh::{BlockFate, BlockId, NeighborGraph, RefinementDelta};
    use amr_tools::placement::{MigrationStats, Placement};

    /// How a block of the new mesh relates to blocks of the old one.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum CostOrigin {
        /// Same block as old index `i`.
        Same(usize),
        /// Child produced by refining old block `i`.
        SplitFrom(usize),
        /// Parent produced by merging the given old blocks.
        MergedFrom(Vec<usize>),
        /// No ancestry.
        Fresh,
    }

    /// Each new block's origin, read off the fate table (identity for a
    /// no-op adapt).
    pub fn origins_from_delta(delta: &RefinementDelta) -> Vec<CostOrigin> {
        if delta.remap.is_empty() {
            return (0..delta.blocks_after).map(CostOrigin::Same).collect();
        }
        let mut out = vec![CostOrigin::Fresh; delta.blocks_after];
        for (old, fate) in delta.remap.iter().enumerate() {
            match *fate {
                BlockFate::Same(new) => out[new.index()] = CostOrigin::Same(old),
                BlockFate::Refined { first, count } => {
                    for slot in &mut out[first.index()..first.index() + count as usize] {
                        *slot = CostOrigin::SplitFrom(old);
                    }
                }
                BlockFate::Coarsened(new) => match &mut out[new.index()] {
                    CostOrigin::MergedFrom(parts) => parts.push(old),
                    slot => *slot = CostOrigin::MergedFrom(vec![old]),
                },
            }
        }
        out
    }

    /// The cost model's remap: children and survivors copy, merged parents
    /// average their parts, anything else takes the default.
    pub fn remap_costs(costs: &[f64], origins: &[CostOrigin], default_cost: f64) -> Vec<f64> {
        origins
            .iter()
            .map(|o| match o {
                CostOrigin::Same(i) | CostOrigin::SplitFrom(i) => costs[*i],
                CostOrigin::MergedFrom(parts) if !parts.is_empty() => {
                    parts.iter().map(|&i| costs[i]).sum::<f64>() / parts.len() as f64
                }
                _ => default_cost,
            })
            .collect()
    }

    /// The warm LPT order's counting sort: each new block is bucketed at
    /// its first old ancestor's position in the previous `order` (fresh
    /// blocks last), stable in new id.
    pub fn remap_order(order: &[usize], origins: &[CostOrigin]) -> Vec<usize> {
        let old_n = order.len();
        let mut pos = vec![0; old_n];
        for (p, &b) in order.iter().enumerate() {
            pos[b] = p;
        }
        let bucket = |o: &CostOrigin| match o {
            CostOrigin::Same(i) | CostOrigin::SplitFrom(i) => pos[*i],
            CostOrigin::MergedFrom(parts) => parts.first().map_or(old_n, |&i| pos[i]),
            CostOrigin::Fresh => old_n,
        };
        let mut starts = vec![0; old_n + 2];
        for o in origins {
            starts[bucket(o) + 1] += 1;
        }
        for i in 1..=old_n + 1 {
            starts[i] += starts[i - 1];
        }
        let mut out = vec![0; origins.len()];
        for (b, o) in origins.iter().enumerate() {
            let slot = &mut starts[bucket(o)];
            out[*slot] = b;
            *slot += 1;
        }
        out
    }

    /// Migration of `out` against `prev`: a diff by index at equal block
    /// counts, otherwise every contributing old block ships to its new
    /// block's rank (fresh blocks as pure inflow).
    pub fn migration(
        prev: &Placement,
        out: &Placement,
        origins: &[CostOrigin],
    ) -> Option<MigrationStats> {
        let nr = out.num_ranks().max(prev.num_ranks());
        let (mut flow_out, mut flow_in) = (vec![0usize; nr], vec![0usize; nr]);
        let mut moved = 0;
        let mut charge = |from: u32, to: u32| {
            if from != to {
                moved += 1;
                flow_out[from as usize] += 1;
                flow_in[to as usize] += 1;
            }
        };
        if prev.num_blocks() == out.num_blocks() {
            for b in 0..out.num_blocks() {
                charge(prev.rank_of(b), out.rank_of(b));
            }
        } else {
            if origins.len() != out.num_blocks() {
                return None;
            }
            for (b, origin) in origins.iter().enumerate() {
                let to = out.rank_of(b);
                match origin {
                    CostOrigin::Same(i) | CostOrigin::SplitFrom(i) => charge(prev.rank_of(*i), to),
                    CostOrigin::MergedFrom(parts) => {
                        for &i in parts {
                            charge(prev.rank_of(i), to);
                        }
                    }
                    CostOrigin::Fresh => unreachable!("a fate table names every new block"),
                }
            }
        }
        let max_rank_flow = (0..nr)
            .map(|r| flow_out[r].max(flow_in[r]))
            .max()
            .unwrap_or(0);
        Some(MigrationStats {
            moved,
            max_rank_flow,
        })
    }

    /// The ledger's carry: a relation of `new` keeps its bytes from `old`
    /// iff both endpoints are `Same` survivors and `old` had the relation.
    pub fn carry_bytes(
        old: &NeighborGraph,
        old_bytes: &[u64],
        new: &NeighborGraph,
        origins: &[CostOrigin],
    ) -> Vec<u64> {
        let mut bytes = Vec::with_capacity(new.total_relations());
        for (block, nbs) in new.iter() {
            for nb in nbs {
                let carried = match (&origins[block.index()], &origins[nb.block.index()]) {
                    (CostOrigin::Same(sa), CostOrigin::Same(sb)) => old
                        .neighbors(BlockId(*sa as u32))
                        .binary_search_by_key(sb, |n| n.block.index())
                        .map_or(0, |pos| old_bytes[old.row_start(*sa) + pos]),
                    _ => 0,
                };
                bytes.push(carried);
            }
        }
        bytes
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

/// The engine's warm LPT order. `Scratch` keeps its buffers crate-private;
/// its derived `Debug` is the one window onto them.
fn warm_order(engine: &PlacementEngine) -> Vec<usize> {
    let dump = format!("{:?}", engine.scratch());
    let tail = dump
        .split("lpt_full_order: RefCell { value: [")
        .nth(1)
        .expect("Scratch prints its warm order");
    let list = &tail[..tail.find(']').expect("the order list closes")];
    list.split(", ")
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().expect("an index"))
        .collect()
}

/// One step's measured per-block compute times: irregular enough that the
/// LPT order and the cost model move every step, and that a mean summed in
/// another order rounds differently.
fn measured(n: usize, key: u64) -> Vec<f64> {
    (0..n as u64)
        .map(|b| 1.0e6 + (next(&mut (key ^ b << 20)) % 1_000_000) as f64 * 0.37)
        .collect()
}

/// Pools of 1 (the serial build), 2, 3 and 8 lanes, spawned once.
fn pools() -> &'static [WorkerPool] {
    static POOLS: std::sync::OnceLock<Vec<WorkerPool>> = std::sync::OnceLock::new();
    POOLS.get_or_init(|| [1, 2, 3, 8].map(WorkerPool::new).into())
}

/// Splitmix-style step for deriving adapt tags and costs from a proptest salt.
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
            let full = mesh.neighbor_graph_on(&pools()[0]);
            prop_assert_eq!(&graph, &full);
            prop_assert!(graph.check_symmetry().is_ok());
        }
    }

    /// The graph a mesh keeps is always its current snapshot's: every adapt
    /// that changes the mesh patches it into a fresh serial build's equal
    /// without a full build, and nobody else's adapt or patch reaches it. A
    /// mesh that keeps no graph patches nothing.
    #[test]
    fn kept_graph_tracks_every_snapshot_on_random_sequences(
        dim_3d: bool,
        periodic: bool,
        roots in (1u32..4, 1u32..4, 1u32..4),
        steps in 1usize..9,
        salt in 0u64..1000,
    ) {
        let serial = &pools()[0];
        let handle = TraceHandle::new(64);
        let builds = || handle.metrics().counter(Counter::GraphFullBuilds);
        let mut mesh = repair_mesh(dim_3d, roots, periodic);
        let bare_handle = TraceHandle::new(64);
        let mut bare = mesh.clone();
        bare.set_trace(Some(bare_handle.clone()));
        mesh.set_trace(Some(handle.clone()));
        let mut graph = mesh.neighbor_graph();
        let mut scratch = PatchScratch::default();
        for step in 0..steps {
            let key = salt.wrapping_add(step as u64);
            // `before` keeps the pre-adapt graph that `graph` shares.
            let before = mesh.clone();
            let mut twin = mesh.clone();
            let built = builds();
            hash_adapt(&mut mesh, key);
            prop_assert_eq!(builds(), built, "an adapt built the graph");
            let patched = mesh.kept_neighbor_graph().expect("an adapt keeps the graph").clone();
            prop_assert_eq!(&patched, &mesh.neighbor_graph_on(serial));
            hash_adapt(&mut twin, key);
            prop_assert_eq!(twin.blocks(), mesh.blocks());
            prop_assert_eq!(twin.sfc_keys(), mesh.sfc_keys());
            prop_assert_eq!(twin.last_delta(), mesh.last_delta());
            hash_adapt(&mut bare, key);
            prop_assert_eq!(bare.sfc_keys(), mesh.sfc_keys());
            prop_assert!(bare.kept_neighbor_graph().is_none());
            mesh.patch_neighbor_graph(&mut graph, &mut scratch);
            let kept = before.kept_neighbor_graph().expect("a clone carries the kept graph");
            prop_assert_eq!(kept, &before.neighbor_graph_on(serial));

            let now = mesh.neighbor_graph();
            prop_assert_eq!(&now, &patched);
            prop_assert_eq!(&graph, &now);
            prop_assert_eq!(&twin.neighbor_graph(), &now);

            let built = builds();
            prop_assert!(mesh.adapt(|_| RefineTag::Keep).is_identity());
            prop_assert_eq!(mesh.kept_neighbor_graph(), Some(&now));
            mesh.neighbor_graph();
            prop_assert_eq!(builds(), built, "a no-op adapt dropped the kept graph");

            hash_adapt(&mut twin, !key);
            prop_assert_eq!(mesh.kept_neighbor_graph(), Some(&now));
            prop_assert_eq!(builds(), built);
            graph = now;
        }
        let bare_metrics = bare_handle.metrics();
        prop_assert_eq!(bare_metrics.counter(Counter::GraphPatches), 0);
        prop_assert_eq!(bare_metrics.counter(Counter::GraphFullBuilds), 0);
    }

    /// A shard plan recounted over the patched graph after every adapt of a
    /// random 2D/3D sequence gives every shard the window and halo count of
    /// `halo_oracle` over a fresh serial build, at 1-8 shards and at more
    /// shards than the first snapshot has blocks.
    #[test]
    fn shard_halos_match_rebuild_halo_oracle_on_random_sequences(
        dim_3d: bool,
        periodic: bool,
        roots in (1u32..4, 1u32..4, 1u32..4),
        steps in 1usize..9,
        salt in 0u64..1000,
    ) {
        let mut mesh = repair_mesh(dim_3d, roots, periodic);
        let mut graph = mesh.neighbor_graph();
        let mut scratch = PatchScratch::default();
        let counts = (1..=8).chain([2 * mesh.num_blocks() + 1]);
        let mut plans: Vec<(ShardedMesh, Vec<u64>)> = counts
            .map(|s| {
                let bounds = halo_oracle::plan_bounds(mesh.sfc_keys(), s);
                (ShardedMesh::new(&mesh, s, &graph), bounds)
            })
            .collect();
        let serial = WorkerPool::new(1);
        for step in 0..steps {
            hash_adapt(&mut mesh, salt.wrapping_add(step as u64));
            mesh.patch_neighbor_graph(&mut graph, &mut scratch);
            let fresh = mesh.neighbor_graph_on(&serial);
            for (plan, bounds) in &mut plans {
                plan.recount(&mesh, &graph);
                let starts = halo_oracle::windows(mesh.sfc_keys(), bounds);
                prop_assert_eq!(plan.shard_starts(), &starts[..]);
                prop_assert_eq!(plan.halos().len(), bounds.len() - 1);
                for (s, w) in starts.windows(2).enumerate() {
                    let halo = halo_oracle::rebuild_halo(&fresh, w[0], w[1]);
                    prop_assert_eq!(plan.halos()[s] as usize, halo.len(), "shard {}", s);
                }
                let total: usize = plan.halos().iter().map(|&h| h as usize).sum();
                prop_assert_eq!(plan.total_halo_blocks(), total);
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
            let oracle = AmrMesh::from_parts(mesh.config().clone(), mesh.tree().clone()).unwrap();
            prop_assert_eq!(mesh.blocks(), oracle.blocks());
            prop_assert_eq!(mesh.sfc_keys(), oracle.sfc_keys());
        }
    }

    /// Every consumer of an adapt's fate table — the cost model's remap,
    /// the engine's warm LPT order and migration accounting, the ledger's
    /// byte carry — equals the origin-driven oracle bit for bit after every
    /// adapt of a random refine-and-coarsen sequence (ripples included).
    #[test]
    fn fate_table_consumers_match_origin_oracle_on_random_sequences(
        dim_3d: bool,
        periodic: bool,
        roots in (1u32..4, 1u32..4, 1u32..4),
        steps in 1usize..9,
        salt in 0u64..1000,
        ranks in 1usize..9,
    ) {
        const DEFAULT_COST: f64 = 1.0e6;
        let mut mesh = repair_mesh(dim_3d, roots, periodic);
        let (spec, dim) = (mesh.config().spec, mesh.config().dim);
        let pool = WorkerPool::new(1);
        let mut graph = mesh.neighbor_graph();
        let mut patch = PatchScratch::default();
        let mut ledger = ExchangeByteLedger::default();
        ledger.begin_run(&graph);
        let mut model = TelemetryCostModel::new(mesh.num_blocks(), 0.5, DEFAULT_COST);
        let mut spare = Vec::new();
        let mut engine = PlacementEngine::new();
        model.observe_all(&measured(mesh.num_blocks(), salt));
        engine.rebalance(&Lpt, model.costs(), ranks).unwrap();
        for step in 0..steps {
            let key = salt.wrapping_add(step as u64);
            ledger.note_step(2);
            ledger.flush(&pool, spec, dim);
            let (old_graph, old_bytes) = (graph.clone(), ledger.bytes().to_vec());
            let old_costs = model.costs().to_vec();
            let old_order = warm_order(&engine);
            let prev = engine.placement().unwrap().clone();
            hash_adapt(&mut mesh, key);
            let delta = mesh.last_delta();
            if !delta.changed() {
                continue;
            }
            let origins = origin_oracle::origins_from_delta(delta);
            ledger.prepare_remesh(&pool, spec, dim);
            mesh.patch_neighbor_graph(&mut graph, &mut patch);

            model.remap_in_place(delta, &mut spare);
            let expect = origin_oracle::remap_costs(&old_costs, &origins, DEFAULT_COST);
            let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(model.costs()), bits(&expect), "step {}", step);

            ledger.apply_remesh(Some(delta), &graph);
            let carried = origin_oracle::carry_bytes(&old_graph, &old_bytes, &graph, &origins);
            prop_assert_eq!(ledger.bytes(), &carried[..], "step {}", step);

            // Baseline leaves the carried order as the engine wrote it.
            let report = engine
                .rebalance_with(&Baseline, model.costs(), ranks, None, Some(delta))
                .unwrap();
            let order = origin_oracle::remap_order(&old_order, &origins);
            prop_assert_eq!(warm_order(&engine), order, "step {}", step);
            let out = engine.placement().unwrap();
            let moved = origin_oracle::migration(&prev, out, &origins);
            prop_assert_eq!(report.migration, moved, "step {}", step);

            // Re-sort the order warm for the next adapt.
            model.observe_all(&measured(mesh.num_blocks(), key.rotate_left(7)));
            engine.rebalance(&Lpt, model.costs(), ranks).unwrap();
        }
    }
}
