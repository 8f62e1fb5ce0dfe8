//! Sharded mesh view: contiguous per-node SFC partitions with shard-local
//! CSR neighbor graphs and a halo (boundary-exchange) table.
//!
//! A single global [`NeighborGraph`] caps the simulator far below the
//! operating regime of extreme-scale BAMR frameworks, which never hold
//! global mesh state: each node owns a contiguous window of the
//! space-filling curve plus ghost metadata for the blocks its window talks
//! to. [`ShardedMesh`] reproduces that layout on top of [`AmrMesh`]:
//!
//! * The SFC **key space** is split into `S` contiguous ranges at
//!   construction (`bounds`). Keys are stable across adaptation (a surviving
//!   block keeps its key; children subdivide the parent's key range), so the
//!   partition never has to be renegotiated — only the block-index window of
//!   each shard (`starts`) moves.
//! * Each shard owns a **shard-local CSR** ([`ShardGraph`]): the rows of its
//!   blocks, with neighbor ids kept global (rows are bit-identical to the
//!   global graph's rows — the flat/sharded equivalence proof reduces to
//!   concatenation), plus a sorted **halo table** of the out-of-shard blocks
//!   its rows reference and a count of cross-shard relations.
//! * [`ShardedMesh::refresh`] repairs all shards from the
//!   [`RefinementDelta`](crate::RefinementDelta) of the latest adapt by the
//!   rule of [`AmrMesh::patch_neighbor_graph`]: a surviving block's row is
//!   its old row carried through the fate table, only blocks the adapt
//!   created are probed, and everything stages through pooled scratch so
//!   steady-state refreshes allocate nothing. [`AmrMesh::neighbor_graph`]
//!   stays the correctness oracle (see `flatten_into` and the property
//!   tests).
//!
//! ## Why shard boundaries never split a changed span
//!
//! Shard bounds are SFC keys of blocks that existed at planning time. Block
//! key ranges are disjoint, so a bound falls inside exactly one block's
//! range — at its start. A refined parent's children all lie inside the
//! parent's key range, hence in the parent's shard. A coarsened family's
//! parent takes the first sibling's key; if a bound pointed at a later
//! sibling, the merged parent simply lands in the preceding shard and the
//! window boundaries (`starts`) move — recomputed per refresh by binary
//! search, O(S log n).

use crate::block::BlockId;
use crate::mesh::{AmrMesh, BlockFate};
use crate::neighbors::{emit_rows, BlockIndex, Neighbor, NeighborGraph, PatchRows, PatchScratch};
use crate::pool::WorkerPool;
use crate::tree::Octree;

/// One shard's view of the neighbor topology: the CSR rows of the blocks in
/// `start..end` (global ids in the entries, rows sorted by id — identical to
/// the same rows of the global graph) plus the halo table.
#[derive(Debug, Clone, Default)]
pub struct ShardGraph {
    /// Global index of the first owned block.
    start: u32,
    /// One past the global index of the last owned block.
    end: u32,
    /// Local row boundaries; `offsets.len() == num_blocks() + 1`.
    offsets: Vec<u32>,
    /// Packed rows; neighbor ids are global [`BlockId`]s.
    entries: Vec<Neighbor>,
    /// Sorted, deduplicated global indices of out-of-shard blocks referenced
    /// by the rows — the ghost metadata this shard must import each exchange.
    halo: Vec<u32>,
    /// Directed relations whose target lies outside the shard.
    cross: u32,
}

impl ShardGraph {
    /// Number of blocks owned by the shard.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Global block-index window `start..end`.
    #[inline]
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start as usize..self.end as usize
    }

    /// Row of the block with local index `local` (global id `start + local`),
    /// sorted by global neighbor id.
    #[inline]
    pub fn neighbors_local(&self, local: usize) -> &[Neighbor] {
        &self.entries[self.offsets[local] as usize..self.offsets[local + 1] as usize]
    }

    /// The halo table: sorted global indices of ghost blocks.
    #[inline]
    pub fn halo(&self) -> &[u32] {
        &self.halo
    }

    /// Directed relations leaving the shard.
    #[inline]
    pub fn cross_relations(&self) -> usize {
        self.cross as usize
    }

    /// Total directed relations stored in the shard.
    #[inline]
    pub fn total_relations(&self) -> usize {
        self.entries.len()
    }

    /// Slot of a global block id in the halo table, if it is a ghost.
    #[inline]
    pub fn halo_slot(&self, global: u32) -> Option<usize> {
        self.halo.binary_search(&global).ok()
    }

    /// Recompute the halo table and cross-relation count from the rows.
    fn rebuild_halo(&mut self) {
        self.halo.clear();
        let (lo, hi) = (self.start, self.end);
        let mut cross = 0u32;
        for e in &self.entries {
            let g = e.block.0;
            if g < lo || g >= hi {
                cross += 1;
                self.halo.push(g);
            }
        }
        self.cross = cross;
        self.halo.sort_unstable();
        self.halo.dedup();
    }
}

/// Pooled scratch for [`ShardedMesh::refresh`]: the staging CSR arrays swap
/// with each shard's own, so steady-state refreshes run allocation-free.
#[derive(Debug, Clone, Default)]
struct ShardScratch {
    /// Shard windows of the pre-adapt index, saved before recomputation.
    old_starts: Vec<u32>,
    /// Staging arrays for the shard currently being emitted.
    stage: PatchScratch,
}

/// Per-node SFC partition of an [`AmrMesh`]: `S` contiguous key ranges, each
/// owning a [`ShardGraph`]. See the module docs for the layout and the
/// incremental-refresh contract.
#[derive(Debug, Clone)]
pub struct ShardedMesh {
    /// Key-space partition, `len == num_shards + 1`; shard `s` owns keys in
    /// `bounds[s]..bounds[s+1]`. Fixed at construction.
    bounds: Vec<u64>,
    /// Block-index windows for the current snapshot, `len == num_shards + 1`.
    starts: Vec<u32>,
    shards: Vec<ShardGraph>,
    scratch: ShardScratch,
}

/// Plan the key-space partition for `num_shards` shards over the current
/// snapshot of `mesh`, balanced by block count. Bound `s` is the SFC key of
/// the block at index `s·n/S`, so shard windows start equal-sized.
pub fn plan_shard_bounds(mesh: &AmrMesh, num_shards: usize) -> Vec<u64> {
    assert!(num_shards >= 1, "at least one shard");
    let keys = mesh.sfc_keys();
    let n = keys.len();
    let mut bounds = Vec::with_capacity(num_shards + 1);
    bounds.push(0u64);
    for s in 1..num_shards {
        let idx = s * n / num_shards;
        bounds.push(if idx < n { keys[idx] } else { u64::MAX });
    }
    bounds.push(u64::MAX);
    bounds
}

/// Build one shard's rows into caller-owned buffers: the streaming entry
/// point that lets a driver hold only one shard's CSR at a time (the
/// peak-memory story of the sharded trajectory benchmarks). `bounds` comes
/// from [`plan_shard_bounds`]; the buffers are cleared and refilled.
pub fn build_shard(mesh: &AmrMesh, bounds: &[u64], s: usize, g: &mut ShardGraph) {
    let keys = mesh.sfc_keys();
    let lo = keys.partition_point(|&k| k < bounds[s]);
    let hi = keys.partition_point(|&k| k < bounds[s + 1]);
    let mut row = Vec::with_capacity(32);
    build_shard_rows(mesh.tree(), &mesh.cover_index(), lo..hi, &mut row, g);
}

/// Shared row builder: fill `g` with the rows of blocks `span`. Takes the
/// mesh's plain-data parts because pool tasks call it: `AmrMesh` itself is
/// not `Sync` (it may hold a trace handle), but the tree/blocks/keys
/// snapshot the rows are a pure function of is.
fn build_shard_rows(
    tree: &Octree,
    index: &BlockIndex<'_>,
    span: std::ops::Range<usize>,
    row: &mut Vec<Neighbor>,
    g: &mut ShardGraph,
) {
    g.start = span.start as u32;
    g.end = span.end as u32;
    g.offsets.clear();
    g.offsets.push(0);
    g.entries.clear();
    emit_rows(tree, index, span, row, &mut g.offsets, &mut g.entries);
    g.rebuild_halo();
}

impl ShardedMesh {
    /// Partition `mesh` into `num_shards` contiguous SFC shards (balanced by
    /// block count at planning time) and build every shard graph on `pool`
    /// (see [`ShardedMesh::rebuild`]).
    pub fn new(mesh: &AmrMesh, num_shards: usize, pool: &WorkerPool) -> ShardedMesh {
        let bounds = plan_shard_bounds(mesh, num_shards);
        let mut sharded = ShardedMesh {
            bounds,
            starts: Vec::with_capacity(num_shards + 1),
            shards: vec![ShardGraph::default(); num_shards],
            scratch: ShardScratch::default(),
        };
        sharded.rebuild(mesh, pool);
        sharded
    }

    /// Number of shards.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard `s`'s graph.
    #[inline]
    pub fn shard(&self, s: usize) -> &ShardGraph {
        &self.shards[s]
    }

    /// Block-index window boundaries, `len == num_shards + 1`: shard `s`
    /// owns global blocks `starts[s]..starts[s+1]`.
    #[inline]
    pub fn shard_starts(&self) -> &[u32] {
        &self.starts
    }

    /// Total blocks across all shards (== the mesh's block count).
    #[inline]
    pub fn num_blocks(&self) -> usize {
        *self.starts.last().unwrap_or(&0) as usize
    }

    /// The shard owning global block index `g`.
    #[inline]
    pub fn shard_of(&self, g: u32) -> usize {
        debug_assert!((g as usize) < self.num_blocks());
        self.starts.partition_point(|&x| x <= g) - 1
    }

    /// The row of a global block, resolved through its owning shard —
    /// bit-identical to the same row of the global graph.
    #[inline]
    pub fn neighbors(&self, b: BlockId) -> &[Neighbor] {
        let sh = &self.shards[self.shard_of(b.0)];
        sh.neighbors_local((b.0 - sh.start) as usize)
    }

    /// Ghost blocks summed over all shards (a block neighboring `k` shards
    /// is counted `k` times — each imports its own copy).
    pub fn total_halo_blocks(&self) -> usize {
        self.shards.iter().map(|s| s.halo.len()).sum()
    }

    /// Directed cross-shard relations summed over all shards.
    pub fn total_cross_relations(&self) -> usize {
        self.shards.iter().map(|s| s.cross as usize).sum()
    }

    /// Directed relations summed over all shards (== the global graph's
    /// `total_relations`).
    pub fn total_relations(&self) -> usize {
        self.shards.iter().map(|s| s.entries.len()).sum()
    }

    /// Concatenate the shard rows into a global [`NeighborGraph`] — the
    /// bridge to the oracle: `flatten_into` of a fresh/refreshed
    /// `ShardedMesh` must equal [`AmrMesh::neighbor_graph`] exactly.
    pub fn flatten_into(&self, g: &mut NeighborGraph) {
        let g = g.csr_mut();
        g.offsets.clear();
        g.offsets.push(0);
        g.entries.clear();
        for sh in &self.shards {
            let base = g.entries.len() as u32;
            g.entries.extend_from_slice(&sh.entries);
            for &o in &sh.offsets[1..] {
                g.offsets.push(base + o);
            }
        }
    }

    /// Recompute every shard window and rebuild every shard graph from
    /// scratch — the fallback when the mesh's stored delta cannot vouch for
    /// the shards (and the initial build) — one task per shard on `pool`.
    /// Shard rows are pure functions of the mesh snapshot and every task
    /// writes only its own [`ShardGraph`], so the result is the same at any
    /// thread count (a one-thread pool runs the tasks inline, in order).
    /// Unlike the steady-state incremental path, each task allocates its own
    /// small row scratch — acceptable because rebuilds are the fallback, not
    /// the per-step path.
    pub fn rebuild(&mut self, mesh: &AmrMesh, pool: &WorkerPool) {
        self.recompute_starts(mesh);
        let ShardedMesh { starts, shards, .. } = self;
        let tree = mesh.tree();
        let index = mesh.cover_index();
        pool.run_with(shards, |s, g| {
            let mut row = Vec::with_capacity(32);
            let span = starts[s] as usize..starts[s + 1] as usize;
            build_shard_rows(tree, &index, span, &mut row, g);
        });
    }

    fn recompute_starts(&mut self, mesh: &AmrMesh) {
        let keys = mesh.sfc_keys();
        self.starts.clear();
        for &b in &self.bounds {
            self.starts.push(keys.partition_point(|&k| k < b) as u32);
        }
        debug_assert_eq!(*self.starts.last().unwrap() as usize, keys.len());
    }

    /// Bring every shard up to date with the mesh after the most recent
    /// [`AmrMesh::adapt`]: the per-shard analogue of
    /// [`AmrMesh::patch_neighbor_graph`]. A surviving block's row is its old
    /// row walked through the fate table, new children and merged parents
    /// are probed, and each shard's halo table is refreshed.
    /// All staging goes through pooled scratch (steady state allocates
    /// nothing); the splice itself is a single in-order pass over the fate
    /// table and stays on the calling thread.
    /// Falls back to [`ShardedMesh::rebuild`] on `pool` when the stored
    /// delta cannot vouch for the current shards. Returns `true` iff the
    /// incremental path ran.
    pub fn refresh(&mut self, mesh: &AmrMesh, pool: &WorkerPool) -> bool {
        if !mesh.last_delta().maps(self.num_blocks(), mesh.num_blocks()) {
            self.rebuild(mesh, pool);
            return false;
        }
        let rows = self.refresh_incremental(mesh);
        mesh.count_patch_rows(rows);
        true
    }

    fn refresh_incremental(&mut self, mesh: &AmrMesh) -> PatchRows {
        let d = mesh.last_delta();
        let num_shards = self.shards.len();

        // Save the pre-adapt windows, then move the windows to the new index.
        let mut old_starts = std::mem::take(&mut self.scratch.old_starts);
        old_starts.clear();
        old_starts.extend_from_slice(&self.starts);
        self.scratch.old_starts = old_starts;
        self.recompute_starts(mesh);
        let ShardedMesh {
            starts,
            shards,
            scratch: ShardScratch { old_starts, stage },
            ..
        } = self;

        // Walk old ids globally (new ids come out ascending) and emit each
        // shard's rows into the staging arrays; when a shard's window fills,
        // swap the staging in and refresh its halo.
        let index = mesh.cover_index();
        let tree = mesh.tree();
        let blocks = mesh.blocks();
        stage.begin();
        let mut rows = PatchRows::default();
        let mut s = 0usize;
        let finalize_full = |s: &mut usize,
                             rows: PatchRows,
                             shards: &mut Vec<ShardGraph>,
                             stage: &mut PatchScratch| {
            let emitted = rows.inherited + rows.probed;
            while *s < num_shards && emitted == starts[*s + 1] as usize {
                let g = &mut shards[*s];
                g.start = starts[*s];
                g.end = starts[*s + 1];
                std::mem::swap(&mut g.offsets, &mut stage.offsets);
                std::mem::swap(&mut g.entries, &mut stage.entries);
                g.rebuild_halo();
                stage.begin();
                *s += 1;
            }
        };
        finalize_full(&mut s, rows, shards, stage);
        let mut os = 0usize; // old-shard cursor (old ids ascend)
        for (old, fate) in d.remap.iter().enumerate() {
            while old >= old_starts[os + 1] as usize {
                os += 1;
            }
            let emitted = rows.inherited + rows.probed;
            match *fate {
                BlockFate::Same(new) => {
                    debug_assert_eq!(new.index(), emitted);
                    // A surviving block keeps its key, so its old row lives
                    // in the shard being emitted right now — not yet swapped.
                    debug_assert_eq!(os, s);
                    let sh = &shards[os];
                    let old_row = sh.neighbors_local(old - sh.start as usize);
                    let leaf = &blocks[new.index()].octant;
                    stage.inherit_row(tree, old_row, leaf, blocks, &d.remap);
                    rows.inherited += 1;
                }
                BlockFate::Refined { first, count } => {
                    debug_assert_eq!(first.index(), emitted);
                    let created = first.index()..first.index() + count as usize;
                    stage.probe_rows(tree, &index, created);
                    rows.probed += count as usize;
                }
                // Only the first sibling emits the parent's row.
                BlockFate::Coarsened(new) if new.index() == emitted => {
                    stage.probe_rows(tree, &index, emitted..emitted + 1);
                    rows.probed += 1;
                }
                BlockFate::Coarsened(_) => continue,
            }
            finalize_full(&mut s, rows, shards, stage);
        }
        debug_assert_eq!(rows.inherited + rows.probed, d.blocks_after);
        debug_assert_eq!(s, num_shards, "every shard finalized");
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Dim;
    use crate::mesh::{MeshConfig, RefineTag};

    fn random_mesh_steps(dim: Dim, steps: usize, salt: u64) -> (AmrMesh, Vec<u64>) {
        let cells = match dim {
            Dim::D2 => (64, 64, 64),
            Dim::D3 => (32, 32, 32),
        };
        let mesh = AmrMesh::new(MeshConfig::from_cells(dim, cells, 2));
        let keys: Vec<u64> = (0..steps as u64).map(|k| salt.wrapping_add(k)).collect();
        (mesh, keys)
    }

    /// A fifth of the blocks refine; a third of the sibling families merge
    /// (drawn on the parent's key so all `2^d` siblings agree — a per-block
    /// draw never coarsens anything).
    fn hash_adapt(mesh: &mut AmrMesh, key: u64) {
        let dim = mesh.config().dim;
        let draw = |o: &crate::Octant| {
            (crate::sfc_key(o, dim) ^ ((o.level as u64) << 56))
                .wrapping_add(key)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                >> 33
        };
        mesh.adapt(|b| {
            if b.octant.parent().is_some_and(|p| draw(&p) % 3 == 0) {
                RefineTag::Coarsen
            } else if draw(&b.octant) % 5 == 0 {
                RefineTag::Refine
            } else {
                RefineTag::Keep
            }
        });
    }

    fn assert_matches_oracle(sharded: &ShardedMesh, mesh: &AmrMesh) {
        let mut flat = NeighborGraph::default();
        sharded.flatten_into(&mut flat);
        let oracle = mesh.neighbor_graph();
        assert_eq!(flat, oracle);
        assert_eq!(sharded.num_blocks(), mesh.num_blocks());
        assert_eq!(sharded.total_relations(), oracle.total_relations());
        // Halo tables are consistent: sorted, deduped, strictly out-of-shard,
        // and exactly the ids referenced outside the window.
        for s in 0..sharded.num_shards() {
            let sh = sharded.shard(s);
            let r = sh.range();
            assert!(sh.halo().windows(2).all(|w| w[0] < w[1]));
            for &g in sh.halo() {
                assert!(!r.contains(&(g as usize)));
            }
            let mut cross = 0usize;
            for local in 0..sh.num_blocks() {
                for e in sh.neighbors_local(local) {
                    if !r.contains(&e.block.index()) {
                        cross += 1;
                        assert!(sh.halo_slot(e.block.0).is_some());
                    }
                }
            }
            assert_eq!(cross, sh.cross_relations());
        }
    }

    #[test]
    fn single_shard_equals_global_graph() {
        for dim in [Dim::D2, Dim::D3] {
            let (mut mesh, keys) = random_mesh_steps(dim, 3, 42);
            for k in keys {
                hash_adapt(&mut mesh, k);
            }
            let sharded = ShardedMesh::new(&mesh, 1, &WorkerPool::new(1));
            assert_matches_oracle(&sharded, &mesh);
            assert_eq!(sharded.shard(0).cross_relations(), 0);
            assert!(sharded.shard(0).halo().is_empty());
        }
    }

    #[test]
    fn multi_shard_build_matches_global_graph() {
        for shards in [2usize, 3, 8, 17] {
            let (mut mesh, keys) = random_mesh_steps(Dim::D3, 2, 7);
            for k in keys {
                hash_adapt(&mut mesh, k);
            }
            let sharded = ShardedMesh::new(&mesh, shards, &WorkerPool::new(1));
            assert_matches_oracle(&sharded, &mesh);
            assert!(sharded.total_cross_relations() > 0);
        }
    }

    #[test]
    fn refresh_tracks_adapt_sequence() {
        let mut merged = 0;
        for dim in [Dim::D2, Dim::D3] {
            let (mut mesh, keys) = random_mesh_steps(dim, 5, 3);
            let mut sharded = ShardedMesh::new(&mesh, 4, &WorkerPool::new(1));
            for k in keys {
                hash_adapt(&mut mesh, k);
                let incremental = sharded.refresh(&mesh, &WorkerPool::new(1));
                assert!(incremental || !mesh.last_delta().changed());
                assert_matches_oracle(&sharded, &mesh);
                merged += mesh.last_delta().coarsened;
            }
        }
        assert!(merged > 0, "the sequence never coarsened");
    }

    #[test]
    fn refresh_falls_back_on_stale_delta() {
        let (mut mesh, _) = random_mesh_steps(Dim::D3, 0, 0);
        hash_adapt(&mut mesh, 11);
        let mut sharded = ShardedMesh::new(&mesh, 4, &WorkerPool::new(1));
        // A restored mesh carries no delta: refresh cannot vouch for the
        // shards and must fall back (and still be correct).
        mesh = AmrMesh::from_parts(mesh.config().clone(), mesh.tree().clone()).unwrap();
        assert!(!sharded.refresh(&mesh, &WorkerPool::new(1)));
        assert_matches_oracle(&sharded, &mesh);
    }

    #[test]
    fn streaming_build_matches_resident_shards() {
        let (mut mesh, keys) = random_mesh_steps(Dim::D3, 2, 19);
        for k in keys {
            hash_adapt(&mut mesh, k);
        }
        let resident = ShardedMesh::new(&mesh, 8, &WorkerPool::new(1));
        let bounds = plan_shard_bounds(&mesh, 8);
        let mut g = ShardGraph::default();
        let mut largest = 0;
        for s in 0..8 {
            build_shard(&mesh, &bounds, s, &mut g);
            assert_eq!(g.range(), resident.shard(s).range());
            assert_eq!(g.entries, resident.shard(s).entries);
            assert_eq!(g.offsets, resident.shard(s).offsets);
            assert_eq!(g.halo, resident.shard(s).halo);
            largest = largest.max(g.num_blocks() + g.total_relations());
        }
        // The per-node memory story: rows + relations of the largest shard
        // bound the reused buffer's capacity, and at 8 shards that is under
        // half of what the resident global graph holds.
        let global = resident.num_blocks() + resident.total_relations();
        assert!(2 * largest < global, "largest shard {largest} vs {global}");
    }

    #[test]
    fn neighbors_resolve_through_owning_shard() {
        let (mut mesh, keys) = random_mesh_steps(Dim::D3, 2, 23);
        for k in keys {
            hash_adapt(&mut mesh, k);
        }
        let sharded = ShardedMesh::new(&mesh, 5, &WorkerPool::new(1));
        let oracle = mesh.neighbor_graph();
        for b in 0..mesh.num_blocks() {
            let id = BlockId(b as u32);
            assert_eq!(sharded.neighbors(id), oracle.neighbors(id));
        }
    }

    #[test]
    fn rebuild_is_bitwise_identical_at_any_thread_count() {
        let serial_pool = WorkerPool::new(1);
        for threads in [2usize, 3, 4] {
            let pool = WorkerPool::new(threads);
            let (mut mesh, keys) = random_mesh_steps(Dim::D3, 3, 29);
            let mut serial: Option<ShardedMesh> = None;
            let mut parallel: Option<ShardedMesh> = None;
            for (i, k) in keys.iter().enumerate() {
                hash_adapt(&mut mesh, *k);
                if i == 0 {
                    serial = Some(ShardedMesh::new(&mesh, 6, &serial_pool));
                    parallel = Some(ShardedMesh::new(&mesh, 6, &pool));
                } else {
                    let s = serial.as_mut().unwrap();
                    let p = parallel.as_mut().unwrap();
                    s.refresh(&mesh, &serial_pool);
                    p.refresh(&mesh, &pool);
                    if i == 2 {
                        // Force the full-rebuild fallback too.
                        mesh = AmrMesh::from_parts(mesh.config().clone(), mesh.tree().clone())
                            .unwrap();
                        assert!(!p.refresh(&mesh, &pool));
                        assert!(!s.refresh(&mesh, &serial_pool));
                    }
                }
                let (s, p) = (serial.as_ref().unwrap(), parallel.as_ref().unwrap());
                assert_eq!(s.shard_starts(), p.shard_starts());
                for sh in 0..s.num_shards() {
                    assert_eq!(s.shard(sh).entries, p.shard(sh).entries);
                    assert_eq!(s.shard(sh).offsets, p.shard(sh).offsets);
                    assert_eq!(s.shard(sh).halo, p.shard(sh).halo);
                    assert_eq!(s.shard(sh).cross, p.shard(sh).cross);
                }
                assert_matches_oracle(p, &mesh);
            }
        }
    }

    #[test]
    fn more_shards_than_blocks_degenerates_gracefully() {
        let mesh = AmrMesh::new(MeshConfig::from_cells(Dim::D2, (32, 32, 1), 1));
        let n = mesh.num_blocks();
        let mut sharded = ShardedMesh::new(&mesh, n * 2, &WorkerPool::new(1));
        assert_matches_oracle(&sharded, &mesh);
        let mut mesh = mesh;
        hash_adapt(&mut mesh, 5);
        sharded.refresh(&mesh, &WorkerPool::new(1));
        assert_matches_oracle(&sharded, &mesh);
    }
}
