//! Sharded mesh view: contiguous per-node SFC partitions of the mesh's one
//! neighbor graph, each with a halo (boundary-exchange) count.
//!
//! Extreme-scale BAMR frameworks never hold global mesh state: each node
//! owns a contiguous window of the space-filling curve plus ghost metadata
//! for the blocks its window talks to. [`ShardedMesh`] models that layout as
//! a plan over the run's flat [`NeighborGraph`], not as a second graph:
//!
//! * The SFC **key space** is split into `S` contiguous ranges at
//!   construction (`bounds`). Keys are stable across adaptation (a surviving
//!   block keeps its key; children subdivide the parent's key range), so the
//!   partition never has to be renegotiated — only the block-index window of
//!   each shard (`starts`) moves, found by binary search, O(S log n).
//! * A shard's rows are the flat graph's rows `starts[s]..starts[s+1]`. The
//!   graph keeps neighbor ids global, so a shard row *is* the flat row.
//! * A shard's **halo** is the number of distinct out-of-window blocks its
//!   rows reference: the ghost metadata the node imports each exchange.
//!   [`ShardedMesh::recount`] recomputes every window and halo from the
//!   current graph in one stamp pass over its entries, through a pooled
//!   stamp row, so a warm recount allocates nothing.

use crate::mesh::AmrMesh;
use crate::neighbors::NeighborGraph;

/// Per-node SFC partition of an [`AmrMesh`]: `S` contiguous key ranges, each
/// a row range of the mesh's [`NeighborGraph`] plus a halo count. See the
/// module docs.
#[derive(Debug, Clone)]
pub struct ShardedMesh {
    /// Key-space partition, `len == num_shards + 1`; shard `s` owns keys in
    /// `bounds[s]..bounds[s+1]`. Fixed at construction.
    bounds: Vec<u64>,
    /// Block-index windows for the current snapshot, `len == num_shards + 1`.
    starts: Vec<u32>,
    /// Distinct out-of-window blocks each shard's rows reference.
    halos: Vec<u32>,
    /// One slot per block: `s + 1` once shard `s`'s pass has counted the
    /// block. Zeroed per recount, so a tag never outlives its pass.
    stamp: Vec<u32>,
}

/// Plan the key-space partition for `num_shards` shards over the current
/// snapshot of `mesh`, balanced by block count. Bound `s` is the SFC key of
/// the block at index `s·n/S`, so shard windows start equal-sized.
fn plan_shard_bounds(mesh: &AmrMesh, num_shards: usize) -> Vec<u64> {
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

impl ShardedMesh {
    /// Partition `mesh` into `num_shards` contiguous SFC shards (balanced by
    /// block count at planning time) and count their halos in `graph`, the
    /// mesh's neighbor graph.
    pub fn new(mesh: &AmrMesh, num_shards: usize, graph: &NeighborGraph) -> ShardedMesh {
        let mut sharded = ShardedMesh {
            bounds: plan_shard_bounds(mesh, num_shards),
            starts: Vec::with_capacity(num_shards + 1),
            halos: Vec::with_capacity(num_shards),
            stamp: Vec::new(),
        };
        sharded.recount(mesh, graph);
        sharded
    }

    /// Block-index window boundaries, `len == num_shards + 1`: shard `s`
    /// owns global blocks `starts[s]..starts[s+1]`.
    #[inline]
    pub fn shard_starts(&self) -> &[u32] {
        &self.starts
    }

    /// Each shard's halo, one entry per shard: the distinct out-of-window
    /// blocks its rows reference.
    #[inline]
    pub fn halos(&self) -> &[u32] {
        &self.halos
    }

    /// Ghost blocks summed over all shards (a block neighboring `k` shards
    /// is counted `k` times — each imports its own copy).
    pub fn total_halo_blocks(&self) -> usize {
        self.halos.iter().map(|&h| h as usize).sum()
    }

    /// Move every shard window to the current snapshot of `mesh` and recount
    /// every halo in `graph`, the snapshot's neighbor graph: one pass over
    /// the graph's entries, shard by shard.
    pub fn recount(&mut self, mesh: &AmrMesh, graph: &NeighborGraph) {
        let keys = mesh.sfc_keys();
        debug_assert_eq!(graph.num_blocks(), keys.len());
        let ShardedMesh {
            bounds,
            starts,
            halos,
            stamp,
        } = self;
        starts.clear();
        starts.extend(
            bounds
                .iter()
                .map(|&b| keys.partition_point(|&k| k < b) as u32),
        );
        stamp.clear();
        stamp.resize(keys.len(), 0);
        halos.clear();
        for (s, w) in starts.windows(2).enumerate() {
            let (lo, hi, tag) = (w[0], w[1], s as u32 + 1);
            let mut halo = 0u32;
            for n in graph.rows(lo as usize..hi as usize) {
                let g = n.block.0;
                if g < lo || g >= hi {
                    let seen = &mut stamp[g as usize];
                    halo += u32::from(*seen != tag);
                    *seen = tag;
                }
            }
            halos.push(halo);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Dim;
    use crate::mesh::{MeshConfig, RefineTag};

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

    /// Windows tile the block index, and each halo is the sorted, deduped
    /// out-of-window ids of its window's rows.
    fn assert_plan_matches_rows(sharded: &ShardedMesh, mesh: &AmrMesh) {
        let graph = mesh.neighbor_graph();
        let starts = sharded.shard_starts();
        assert_eq!(starts.len(), sharded.halos().len() + 1);
        assert_eq!(*starts.last().unwrap() as usize, mesh.num_blocks());
        for (s, w) in starts.windows(2).enumerate() {
            let window = w[0] as usize..w[1] as usize;
            let mut ghosts: Vec<usize> = window
                .clone()
                .flat_map(|b| graph.neighbors(crate::BlockId(b as u32)))
                .map(|n| n.block.index())
                .filter(|g| !window.contains(g))
                .collect();
            ghosts.sort_unstable();
            ghosts.dedup();
            assert_eq!(sharded.halos()[s] as usize, ghosts.len(), "shard {s}");
        }
    }

    #[test]
    fn single_shard_has_no_halo() {
        for dim in [Dim::D2, Dim::D3] {
            let mut mesh = AmrMesh::new(MeshConfig::from_cells(dim, (32, 32, 32), 2));
            for k in 0..3 {
                hash_adapt(&mut mesh, 42 + k);
            }
            let sharded = ShardedMesh::new(&mesh, 1, &mesh.neighbor_graph());
            assert_plan_matches_rows(&sharded, &mesh);
            assert_eq!(sharded.total_halo_blocks(), 0);
        }
    }

    #[test]
    fn recount_tracks_adapt_sequence() {
        let mut merged = 0;
        for dim in [Dim::D2, Dim::D3] {
            let mut mesh = AmrMesh::new(MeshConfig::from_cells(dim, (32, 32, 32), 2));
            let mut sharded = ShardedMesh::new(&mesh, 4, &mesh.neighbor_graph());
            for k in 0..5 {
                hash_adapt(&mut mesh, 3 + k);
                sharded.recount(&mesh, &mesh.neighbor_graph());
                assert_plan_matches_rows(&sharded, &mesh);
                assert!(sharded.total_halo_blocks() > 0);
                merged += mesh.last_delta().coarsened;
            }
        }
        assert!(merged > 0, "the sequence never coarsened");
    }

    #[test]
    fn more_shards_than_blocks_degenerates_gracefully() {
        let mut mesh = AmrMesh::new(MeshConfig::from_cells(Dim::D2, (32, 32, 1), 1));
        let n = mesh.num_blocks();
        let mut sharded = ShardedMesh::new(&mesh, n * 2, &mesh.neighbor_graph());
        assert_plan_matches_rows(&sharded, &mesh);
        hash_adapt(&mut mesh, 5);
        sharded.recount(&mesh, &mesh.neighbor_graph());
        assert_plan_matches_rows(&sharded, &mesh);
    }
}
