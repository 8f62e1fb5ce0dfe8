//! Neighbor topology: which blocks exchange boundary data with which.
//!
//! Each block communicates with up to 26 neighbors in 3D — faces, edges and
//! vertices (§II-B). Under 2:1 balance a neighbor is at most one refinement
//! level away; a coarse block can face up to four fine blocks across one
//! face. The neighbor graph drives both boundary-exchange simulation and the
//! locality accounting of placement policies.
//!
//! ## Storage and construction
//!
//! The graph is stored in CSR (compressed sparse row) form: one packed
//! [`Neighbor`] array plus per-block offsets. This keeps every adjacency
//! query a slice borrow, every full-graph sweep a linear scan over one
//! contiguous allocation, and (because rows are sorted by block id) reverse
//! edges a binary search — the flat, pointer-free adjacency that lets
//! extreme-scale BAMR frameworks traverse neighborhoods at memory bandwidth.
//!
//! Construction does not hash: leaves arrive in SFC (ascending Morton key)
//! order, so coverage classification of a candidate cell is one binary
//! search over the keys of the cell's own level-0 root, never over the whole
//! leaf array. Large meshes build rows in parallel with scoped threads over
//! contiguous leaf chunks and merge the per-chunk rows into the CSR arrays
//! with a prefix sum.

use crate::block::{BlockId, MeshBlock};
use crate::geom::Dim;
use crate::mesh::{AmrMesh, BlockFate, RefinementDelta};
use crate::octant::{Direction, Octant};
use crate::sfc::sfc_key;
use crate::tree::{Octree, NORM_LEVEL};

/// Classification of a shared boundary surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NeighborKind {
    /// Codimension-1 contact (largest messages).
    Face,
    /// Codimension-2 contact.
    Edge,
    /// Codimension-3 contact (smallest messages).
    Vertex,
}

impl NeighborKind {
    /// Map a direction's codimension to a kind, given the mesh dimension.
    ///
    /// In 2D, codim-1 contact is an edge of the square but plays the "face"
    /// role (largest message), and codim-2 is the corner/vertex.
    #[inline]
    pub fn from_codim(codim: u8) -> NeighborKind {
        match codim {
            1 => NeighborKind::Face,
            2 => NeighborKind::Edge,
            3 => NeighborKind::Vertex,
            _ => unreachable!("codim must be 1..=3"),
        }
    }

    /// Codimension of the contact (1, 2 or 3).
    #[inline]
    pub fn codim(self) -> u8 {
        match self {
            NeighborKind::Face => 1,
            NeighborKind::Edge => 2,
            NeighborKind::Vertex => 3,
        }
    }
}

/// One directed neighbor relation: the owning block sends a ghost-zone
/// message to `block` across a `kind` surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Neighbor {
    /// The neighboring block.
    pub block: BlockId,
    /// Surface classification (sets the message size).
    pub kind: NeighborKind,
    /// `neighbor.level - self.level` ∈ {-1, 0, +1} under 2:1 balance.
    pub level_delta: i8,
}

/// Meshes at or above this leaf count build their rows on multiple threads.
const PARALLEL_BUILD_MIN_LEAVES: usize = 8192;

/// The full neighbor graph of a mesh snapshot in CSR form: the neighbors of
/// the block with `BlockId(i)` are `entries[offsets[i]..offsets[i+1]]`,
/// sorted by neighbor block id. Relations are symmetric as sets of block
/// pairs (kinds match; level deltas are negated).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NeighborGraph {
    /// Row boundaries; `offsets.len() == num_blocks + 1` (empty graph: `[0]`
    /// or empty).
    pub(crate) offsets: Vec<u32>,
    /// Packed neighbor entries, rows sorted by `block`.
    pub(crate) entries: Vec<Neighbor>,
}

/// Where a same-level candidate cell sits relative to the (SFC-sorted) leaf
/// array — the binary-search replacement for `Octree::coverage` plus the
/// `HashMap<Octant, BlockId>` id lookup.
#[derive(Debug, PartialEq)]
pub(crate) enum Cover {
    /// The cell is leaf number `i` (same level).
    Leaf(u32),
    /// The cell is interior to coarser leaf number `i`.
    CoveredBy(u32),
    /// The cell is subdivided into finer leaves.
    Subdivided,
}

/// Bits of an SFC key below the root octant: `key >> root_shift(dim)` is the
/// Morton code of the level-0 root containing the cell.
#[inline]
pub(crate) fn root_shift(dim: Dim) -> u32 {
    dim.rank() as u32 * NORM_LEVEL as u32
}

/// Fill `runs` with the per-root leaf runs of a strictly ascending key array:
/// the leaves under the root with Morton code `c` are
/// `keys[runs[c]..runs[c + 1]]` (leaves of one root are SFC-contiguous, and
/// roots appear in code order). Codes of a non-power-of-two root grid are
/// sparse; a code without a root gets an empty run. O(leaves + roots), with
/// at most 32³ roots.
pub(crate) fn fill_root_runs(keys: &[u64], dim: Dim, runs: &mut Vec<u32>) {
    let shift = root_shift(dim);
    runs.clear();
    for (i, &k) in keys.iter().enumerate() {
        let root = (k >> shift) as usize;
        if runs.len() <= root {
            runs.resize(root + 1, i as u32);
        }
    }
    runs.push(keys.len() as u32);
}

/// Binary-search cover classification over a strictly ascending SFC key
/// array — the shared core of the leaf-slice builder ([`LeafIndex`]) and the
/// block-array patcher ([`BlockIndex`]).
pub(crate) trait CoverIndex {
    fn keys(&self) -> &[u64];
    /// Per-root runs of `keys` (see [`fill_root_runs`]).
    fn root_runs(&self) -> &[u32];
    fn octant(&self, i: u32) -> Octant;
    fn dim(&self) -> Dim;

    /// Classify an in-lattice cell by searching only the leaves of its own
    /// root — a neighbor lookup never leaves the local forest root, so its
    /// cost tracks that root's refinement, not the mesh size. The root's
    /// first leaf shares the root's lower corner, hence its key, which is
    /// `<=` the key of every cell inside the root: the search cannot fall
    /// off the front of the run. Correctness of the `Err` arm: leaves
    /// tile the domain, so if `cell`'s key is absent the leaf with the
    /// greatest smaller key is the (unique) coarser leaf whose key range
    /// contains it; if the key is present at a coarser level, that leaf's
    /// lower corner coincides with `cell`'s, making it an ancestor.
    #[inline]
    fn classify(&self, cell: &Octant) -> Cover {
        let key = sfc_key(cell, self.dim());
        let root = (key >> root_shift(self.dim())) as usize;
        let runs = self.root_runs();
        let (lo, hi) = (runs[root] as usize, runs[root + 1] as usize);
        match self.keys()[lo..hi].binary_search(&key) {
            Ok(i) => {
                let i = (lo + i) as u32;
                let found = self.octant(i).level;
                if found == cell.level {
                    Cover::Leaf(i)
                } else if found < cell.level {
                    Cover::CoveredBy(i)
                } else {
                    Cover::Subdivided
                }
            }
            Err(pos) => {
                debug_assert!(pos > 0, "in-lattice cell below its root's first leaf");
                let i = (lo + pos - 1) as u32;
                debug_assert!(
                    cell.level > self.octant(i).level
                        && cell.ancestor_at(self.octant(i).level) == self.octant(i),
                    "Err(pos) must land inside a coarser covering leaf"
                );
                Cover::CoveredBy(i)
            }
        }
    }
}

/// Sorted Morton-key index over the leaf array (keys computed on build).
struct LeafIndex<'a> {
    leaves: &'a [Octant],
    keys: Vec<u64>,
    runs: Vec<u32>,
    dim: Dim,
}

impl<'a> LeafIndex<'a> {
    fn new(leaves: &'a [Octant], dim: Dim) -> LeafIndex<'a> {
        let keys: Vec<u64> = leaves.iter().map(|o| sfc_key(o, dim)).collect();
        debug_assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "leaves must arrive in strict SFC order"
        );
        let mut runs = Vec::new();
        fill_root_runs(&keys, dim, &mut runs);
        LeafIndex {
            leaves,
            keys,
            runs,
            dim,
        }
    }
}

impl CoverIndex for LeafIndex<'_> {
    #[inline]
    fn keys(&self) -> &[u64] {
        &self.keys
    }
    #[inline]
    fn root_runs(&self) -> &[u32] {
        &self.runs
    }
    #[inline]
    fn octant(&self, i: u32) -> Octant {
        self.leaves[i as usize]
    }
    #[inline]
    fn dim(&self) -> Dim {
        self.dim
    }
}

/// Cover index borrowing a mesh's maintained block, key and root-run arrays
/// (nothing computed per call) — the patch path's (and the sharded
/// builder's) view of the mesh, handed out by `AmrMesh::cover_index`.
pub(crate) struct BlockIndex<'a> {
    pub(crate) blocks: &'a [MeshBlock],
    pub(crate) keys: &'a [u64],
    pub(crate) runs: &'a [u32],
    pub(crate) dim: Dim,
}

impl CoverIndex for BlockIndex<'_> {
    #[inline]
    fn keys(&self) -> &[u64] {
        self.keys
    }
    #[inline]
    fn root_runs(&self) -> &[u32] {
        self.runs
    }
    #[inline]
    fn octant(&self, i: u32) -> Octant {
        self.blocks[i as usize].octant
    }
    #[inline]
    fn dim(&self) -> Dim {
        self.dim
    }
}

/// Pooled staging for a graph repair (`AmrMesh::patch_neighbor_graph`, and
/// per shard `ShardedMesh::refresh`): the new CSR arrays are emitted here and
/// swapped with the graph's own, so after the first call both sides run
/// allocation-free at steady state.
#[derive(Debug, Clone, Default)]
pub struct PatchScratch {
    pub(crate) offsets: Vec<u32>,
    pub(crate) entries: Vec<Neighbor>,
    row: Vec<Neighbor>,
}

/// Rows a repair emitted, by how each was produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PatchRows {
    /// Surviving blocks: old row walked through the fate table.
    pub(crate) inherited: usize,
    /// New children and merged parents: probed by `build_row`.
    pub(crate) probed: usize,
}

impl NeighborGraph {
    /// Build the neighbor graph for all leaves of `tree`, with `leaves`
    /// given in SFC order (defining the `BlockId` of each leaf). Dispatches
    /// to the parallel row builder for large meshes.
    pub fn build(tree: &Octree, leaves: &[Octant]) -> NeighborGraph {
        // Leaf count first: `available_parallelism` is a syscall plus cgroup
        // file reads, wasted on every mesh too small to use the answer.
        let threads = if leaves.len() >= PARALLEL_BUILD_MIN_LEAVES {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            1
        };
        if threads > 1 {
            NeighborGraph::build_parallel(tree, leaves, threads.min(8))
        } else {
            NeighborGraph::build_serial(tree, leaves)
        }
    }

    /// Single-threaded CSR build.
    pub fn build_serial(tree: &Octree, leaves: &[Octant]) -> NeighborGraph {
        let index = LeafIndex::new(leaves, tree.dim());
        let dirs = Direction::all(tree.dim());
        let mut offsets = Vec::with_capacity(leaves.len() + 1);
        offsets.push(0u32);
        let mut entries = Vec::with_capacity(leaves.len() * dirs.len());
        let mut row: Vec<Neighbor> = Vec::with_capacity(32);
        for leaf in leaves {
            build_row(tree, &index, dirs, leaf, &mut row);
            entries.extend_from_slice(&row);
            offsets.push(entries.len() as u32);
        }
        NeighborGraph { offsets, entries }
    }

    /// Parallel CSR build on the shared [`WorkerPool`](crate::pool::WorkerPool):
    /// each task builds the rows of one contiguous leaf chunk; chunks
    /// concatenate into the final CSR arrays (rows are pure functions of the
    /// tree, so the output is independent of chunking and thread count).
    ///
    /// Chunks are balanced by *estimated relation count*, not leaf count:
    /// a leaf adjacent to a refinement-level transition fans out to more
    /// neighbors (up to 4 fine blocks per face in 3D), so equal-leaf chunks
    /// skew badly on deeply refined meshes. A cheap O(n) pre-pass weights
    /// each leaf by its SFC-adjacent level deltas as a proxy for transitions.
    pub fn build_parallel(tree: &Octree, leaves: &[Octant], threads: usize) -> NeighborGraph {
        let n = leaves.len();
        let threads = threads.clamp(1, n.max(1));
        let index = LeafIndex::new(leaves, tree.dim());
        let dirs = Direction::all(tree.dim());

        // Base weight ~= face count; transition bonus ~= extra fine
        // neighbors per level jump seen along the curve.
        let (base_w, jump_w) = if tree.dim() == Dim::D3 {
            (8u64, 4u64)
        } else {
            (4u64, 2u64)
        };
        let weight = |i: usize| -> u64 {
            let l = leaves[i].level as i64;
            let before = if i > 0 {
                (leaves[i - 1].level as i64 - l).unsigned_abs()
            } else {
                0
            };
            let after = if i + 1 < n {
                (leaves[i + 1].level as i64 - l).unsigned_abs()
            } else {
                0
            };
            base_w + jump_w * (before + after)
        };
        let total_weight: u64 = (0..n).map(weight).sum();

        // More chunks than threads so the task-pulling pool can smooth any
        // residual imbalance the weight model misses.
        let chunks = (threads * 4).min(n.max(1));
        let per_chunk = total_weight.div_ceil(chunks as u64).max(1);
        let mut bounds = Vec::with_capacity(chunks + 1);
        bounds.push(0usize);
        let mut acc = 0u64;
        for i in 0..n {
            acc += weight(i);
            if acc >= per_chunk * bounds.len() as u64 && i + 1 < n {
                bounds.push(i + 1);
            }
        }
        bounds.push(n);

        let mut parts: Vec<(Vec<u32>, Vec<Neighbor>)> = bounds
            .windows(2)
            .map(|w| {
                (
                    Vec::with_capacity(w[1] - w[0]),
                    Vec::with_capacity((w[1] - w[0]) * dirs.len()),
                )
            })
            .collect();
        crate::pool::WorkerPool::global().run_with_capped(threads, &mut parts, |t, part| {
            let (counts, entries) = part;
            let mut row: Vec<Neighbor> = Vec::with_capacity(32);
            for leaf in &leaves[bounds[t]..bounds[t + 1]] {
                build_row(tree, &index, dirs, leaf, &mut row);
                entries.extend_from_slice(&row);
                counts.push(row.len() as u32);
            }
        });

        let total: usize = parts.iter().map(|(_, e)| e.len()).sum();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut entries = Vec::with_capacity(total);
        for (counts, part_entries) in parts {
            for c in counts {
                offsets.push(offsets.last().unwrap() + c);
            }
            entries.extend_from_slice(&part_entries);
        }
        NeighborGraph { offsets, entries }
    }

    /// Number of blocks in the graph.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Neighbors of a block, sorted by neighbor block id.
    #[inline]
    pub fn neighbors(&self, b: BlockId) -> &[Neighbor] {
        let i = b.index();
        &self.entries[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterate over `(block, neighbors)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, &[Neighbor])> {
        self.offsets.windows(2).enumerate().map(|(i, w)| {
            (
                BlockId(i as u32),
                &self.entries[w[0] as usize..w[1] as usize],
            )
        })
    }

    /// Total number of directed neighbor relations (messages per exchange
    /// round, before placement-dependent local/remote classification).
    #[inline]
    pub fn total_relations(&self) -> usize {
        self.entries.len()
    }

    /// Index into the flat relation space (`0..total_relations()`) where
    /// block `i`'s row begins. Rows are contiguous and sorted by block id,
    /// so `row_start(i)..row_start(i + 1)` addresses exactly the entries
    /// returned by [`neighbors`](NeighborGraph::neighbors) — this is how
    /// entry-parallel side tables (observed-traffic ledgers, partitioner
    /// edge weights) line up with the CSR without touching its internals.
    /// `i == num_blocks()` is allowed and returns `total_relations()`.
    #[inline]
    pub fn row_start(&self, i: usize) -> usize {
        self.offsets[i] as usize
    }

    /// Verify symmetry: if `a` lists `b`, then `b` lists `a` with the same
    /// kind and negated level delta. Returns a description of the first
    /// violation found. Rows are sorted by block id, so each back-edge
    /// lookup is a binary search — O(E log deg) overall, not O(E · deg).
    pub fn check_symmetry(&self) -> Result<(), String> {
        for (a, nbs) in self.iter() {
            for n in nbs {
                let row = self.neighbors(n.block);
                match row.binary_search_by_key(&a, |m| m.block) {
                    Err(_) => return Err(format!("{} lists {} but not vice versa", a, n.block)),
                    Ok(j) => {
                        let m = &row[j];
                        if m.kind != n.kind || m.level_delta != -n.level_delta {
                            return Err(format!(
                                "asymmetric relation {}<->{}: {:?} vs {:?}",
                                a, n.block, n, m
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Repair `self` — the graph of the *pre-adapt* mesh — into the graph of
    /// the post-adapt mesh described by (`tree`, `index`, `delta`), probing
    /// the mesh only for blocks that did not exist before.
    ///
    /// One walk over the fate table, which yields new ids in ascending
    /// order: a surviving block's row is its old row carried through the
    /// table ([`PatchScratch::inherit_row`] — a renumbering copy wherever no neighbor
    /// changed, which is most rows); a new child's or merged parent's row is
    /// probed by [`build_row`]. Cost: O(blocks + entries) copying plus
    /// O(created blocks) probes. The staging arrays in `scratch` swap with
    /// the graph's own, so steady-state patching allocates nothing.
    /// [`NeighborGraph::build`] is the oracle; callers unsure the graph
    /// matches `delta.blocks_before` should use
    /// `AmrMesh::patch_neighbor_graph`, which falls back to it.
    pub(crate) fn patch(
        &mut self,
        tree: &Octree,
        index: &BlockIndex<'_>,
        delta: &RefinementDelta,
        scratch: &mut PatchScratch,
    ) -> PatchRows {
        assert_eq!(
            self.num_blocks(),
            delta.blocks_before,
            "patch: graph does not match the pre-adapt mesh"
        );
        assert_eq!(delta.remap.len(), delta.blocks_before, "patch: stale delta");
        let blocks = index.blocks;
        assert_eq!(blocks.len(), delta.blocks_after, "patch: stale block array");

        scratch.begin();
        scratch.offsets.reserve(blocks.len());
        let mut rows = PatchRows::default();
        for (old, fate) in delta.remap.iter().enumerate() {
            let emitted = rows.inherited + rows.probed;
            match *fate {
                BlockFate::Same(new) => {
                    debug_assert_eq!(new.index(), emitted);
                    let old_row = self.neighbors(BlockId(old as u32));
                    let leaf = &blocks[new.index()].octant;
                    scratch.inherit_row(tree, old_row, leaf, blocks, &delta.remap);
                    rows.inherited += 1;
                }
                BlockFate::Refined { first, count } => {
                    debug_assert_eq!(first.index(), emitted);
                    for child in &blocks[first.index()..first.index() + count as usize] {
                        scratch.probe_row(tree, index, &child.octant);
                    }
                    rows.probed += count as usize;
                }
                // Only the first sibling emits the parent's row.
                BlockFate::Coarsened(new) if new.index() == emitted => {
                    scratch.probe_row(tree, index, &blocks[new.index()].octant);
                    rows.probed += 1;
                }
                BlockFate::Coarsened(_) => {}
            }
        }
        debug_assert_eq!(rows.inherited + rows.probed, blocks.len());

        // Swap the staging arrays in; the displaced arrays become the next
        // patch's staging storage.
        std::mem::swap(&mut self.offsets, &mut scratch.offsets);
        std::mem::swap(&mut self.entries, &mut scratch.entries);
        rows
    }
}

/// The neighbor graph of one mesh snapshot, kept by a caller that outlives
/// its consumers (a service session across `Simulate` requests, an LRU entry
/// across sessions) so the CSR is built once per snapshot, not once per
/// consumer — together with what identifies that snapshot *exactly*: the
/// dimensionality, root grid and boundary semantics of the mesh's tree plus a
/// copy of its SFC key array. Leaves tile the domain, so the ascending keys and
/// the root grid determine every leaf's level, hence the whole graph; a
/// 64-bit digest of the keys would not (it can collide, and it does not see
/// `periodic`).
///
/// The kept graph is exact-size: the serial builder reserves 26 entries per
/// leaf and a 3-D CSR fills about 60 % of that, which a long-lived value
/// must not pin.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshTopology {
    dim: Dim,
    roots: (u32, u32, u32),
    periodic: bool,
    keys: Vec<u64>,
    graph: NeighborGraph,
}

impl MeshTopology {
    /// Keep `graph` as the topology of `mesh`'s current snapshot. The caller
    /// vouches that it is (built by [`AmrMesh::neighbor_graph`] or patched
    /// up to this snapshot); [`MeshTopology::is_for`] vouches from then on.
    pub fn new(mesh: &AmrMesh, mut graph: NeighborGraph) -> MeshTopology {
        debug_assert_eq!(graph.num_blocks(), mesh.num_blocks());
        graph.offsets.shrink_to_fit();
        graph.entries.shrink_to_fit();
        let tree = mesh.tree();
        MeshTopology {
            dim: tree.dim(),
            roots: tree.roots(),
            periodic: tree.periodic(),
            keys: mesh.sfc_keys().to_vec(),
            graph,
        }
    }

    /// Is this the topology of `mesh` as it stands? One slice compare over
    /// the keys, O(blocks).
    pub fn is_for(&self, mesh: &AmrMesh) -> bool {
        let tree = mesh.tree();
        self.dim == tree.dim()
            && self.roots == tree.roots()
            && self.periodic == tree.periodic()
            && self.keys == mesh.sfc_keys()
    }

    /// The kept graph.
    #[inline]
    pub fn graph(&self) -> &NeighborGraph {
        &self.graph
    }

    /// Give the graph up (to a consumer that may patch it).
    #[inline]
    pub fn into_graph(self) -> NeighborGraph {
        self.graph
    }
}

/// Assemble one block's neighbor row into `row` (cleared first): probe all
/// directions, then sort by block id and keep the first entry per block —
/// directions are enumerated faces-first, so ties resolve to the lowest
/// codimension (largest message).
pub(crate) fn build_row<I: CoverIndex>(
    tree: &Octree,
    index: &I,
    dirs: &[Direction],
    leaf: &Octant,
    row: &mut Vec<Neighbor>,
) {
    row.clear();
    for dir in dirs {
        let Some(nb_cell) = tree.lattice_neighbor(leaf, *dir) else {
            continue;
        };
        let kind = NeighborKind::from_codim(dir.codim());
        match index.classify(&nb_cell) {
            Cover::Leaf(i) => row.push(Neighbor {
                block: BlockId(i),
                kind,
                level_delta: 0,
            }),
            Cover::CoveredBy(i) => row.push(Neighbor {
                block: BlockId(i),
                kind,
                level_delta: index.octant(i).level as i8 - leaf.level as i8,
            }),
            Cover::Subdivided => {
                collect_touching_fine(index, &nb_cell, *dir, kind, leaf.level, row)
            }
        }
    }
    row.sort_by_key(|n| n.block); // stable: keeps the lowest-codim duplicate first
    row.dedup_by_key(|n| n.block); // dedup_by_key keeps the first of each run
}

/// Push the fine leaves inside subdivided `cell` that touch the boundary
/// shared with the cell the direction came from (the near side w.r.t.
/// `dir`). Under corner-inclusive 2:1 balance these are direct children;
/// the recursion is defense in depth.
fn collect_touching_fine<I: CoverIndex>(
    index: &I,
    cell: &Octant,
    dir: Direction,
    kind: NeighborKind,
    base_level: u8,
    row: &mut Vec<Neighbor>,
) {
    let l = cell.level + 1;
    let (bx, by, bz) = (cell.x << 1, cell.y << 1, cell.z << 1);
    let zrange: u32 = match index.dim() {
        Dim::D2 => 1,
        Dim::D3 => 2,
    };
    for cz in 0..zrange {
        if dir.dz != 0 && (dir.dz > 0) != (cz == 0) {
            continue;
        }
        for cy in 0..2u32 {
            if dir.dy != 0 && (dir.dy > 0) != (cy == 0) {
                continue;
            }
            for cx in 0..2u32 {
                if dir.dx != 0 && (dir.dx > 0) != (cx == 0) {
                    continue;
                }
                let child = Octant::new(l, bx + cx, by + cy, bz + cz);
                match index.classify(&child) {
                    Cover::Leaf(i) => row.push(Neighbor {
                        block: BlockId(i),
                        kind,
                        level_delta: index.octant(i).level as i8 - base_level as i8,
                    }),
                    Cover::Subdivided => {
                        collect_touching_fine(index, &child, dir, kind, base_level, row)
                    }
                    Cover::CoveredBy(_) => {}
                }
            }
        }
    }
}

/// How two distinct leaves of one forest touch: the `(kind, level_delta)` of
/// the entry for `b` in `a`'s row, or `None` if `a`'s row has no such entry.
/// Pure geometry — no search of the mesh.
///
/// Both octants are scaled to the finer of the two levels. On each axis the
/// two intervals then *overlap* (the finer lies inside the coarser — dyadic
/// intervals never straddle), *touch* (one ends where the other begins, or,
/// on a periodic tree, one ends at the axis extent and the other begins at
/// 0), or lie *apart*. Any axis apart: no contact. Otherwise the contact's
/// codimension is the number of touching axes.
///
/// That is the entry [`build_row`] keeps. A direction `d` reaches `b` from
/// `a` only if `d` is nonzero on every axis whose intervals do not overlap:
/// with `d = 0` on an axis, the probed cell has `a`'s own interval there, and
/// whatever leaf the probe lands on or descends into intersects that
/// interval. Conversely the direction that is zero on the overlapping axes
/// and points at `b` (directly or around the wrap) on the touching ones does
/// reach it: if `b` is no finer than `a`, the probed cell is adjacent to `a`
/// on the touching axes and level-aligned inside `b`'s interval on every
/// axis, so it is `b` or covered by `b`; if `b` is finer, `b` lies inside the
/// probed cell against the side facing `a` on exactly the touching axes,
/// which is the set of descendants `collect_touching_fine` keeps. So the
/// lowest-codimension direction reaching `b` has one nonzero component per
/// touching axis, and directions are probed in ascending codimension with
/// the first entry per block winning. An axis with one or two roots changes
/// nothing: two intervals that touch both directly and around the wrap still
/// just touch, and overlap is tested first because it is what admits `d = 0`.
/// (A leaf spanning a whole periodic axis lists *itself*; `a == b` is not a
/// pair of distinct leaves and is `None` here — a surviving block's
/// self-entry is carried, never re-derived.)
pub(crate) fn contact(tree: &Octree, a: &Octant, b: &Octant) -> Option<(NeighborKind, i8)> {
    let level = a.level.max(b.level);
    let (sa, sb) = (level - a.level, level - b.level);
    let (rx, ry, rz) = tree.roots();
    let axes = [(a.x, b.x, rx), (a.y, b.y, ry), (a.z, b.z, rz)];
    let mut codim = 0u8;
    for &(ca, cb, roots) in &axes[..tree.dim().rank()] {
        let (a_lo, a_hi) = ((ca as u64) << sa, (ca as u64 + 1) << sa);
        let (b_lo, b_hi) = ((cb as u64) << sb, (cb as u64 + 1) << sb);
        if a_lo < b_hi && b_lo < a_hi {
            continue;
        }
        // Axis extent at `level`; 0 (which no interval ends at) when the
        // domain does not wrap.
        let extent = if tree.periodic() {
            (roots as u64) << level
        } else {
            0
        };
        let touch = a_hi == b_lo
            || b_hi == a_lo
            || (a_hi == extent && b_lo == 0)
            || (b_hi == extent && a_lo == 0);
        if !touch {
            return None;
        }
        codim += 1;
    }
    (codim > 0).then(|| {
        (
            NeighborKind::from_codim(codim),
            b.level as i8 - a.level as i8,
        )
    })
}

impl PatchScratch {
    /// Empty the staging arrays for the next graph (or shard).
    pub(crate) fn begin(&mut self) {
        self.offsets.clear();
        self.offsets.push(0);
        self.entries.clear();
    }

    /// Stage the row of a block that did not exist before the adapt.
    pub(crate) fn probe_row(&mut self, tree: &Octree, index: &BlockIndex<'_>, leaf: &Octant) {
        build_row(tree, index, Direction::all(index.dim), leaf, &mut self.row);
        self.entries.extend_from_slice(&self.row);
        self.offsets.push(self.entries.len() as u32);
    }

    /// Stage a surviving block's post-adapt row: its pre-adapt row walked
    /// once through the fate table — the one survivor routine of the flat
    /// patch and the per-shard refresh. `leaf` is the survivor's (unchanged)
    /// octant, `blocks` the post-adapt block array; `old_row` and the
    /// emitted entries hold global ids.
    ///
    /// * An entry whose target is `Same(nb)` is renumbered and kept verbatim
    ///   — neither octant changed, so neither did `kind` or `level_delta`.
    /// * An entry whose target was `Refined { first, count }` is replaced by
    ///   those of `blocks[first..first + count]` that touch the survivor.
    /// * A run of entries whose targets were `Coarsened(p)` — siblings are
    ///   consecutive old ids, so they are consecutive in the sorted row — is
    ///   replaced by `p`, once.
    ///
    /// Replacements are priced by [`contact`]. The walk is complete: a block
    /// touches a new child only if it touched the refined parent's region,
    /// and a merged parent occupies exactly its children's union, so every
    /// new neighbor descends from an entry of the old (symmetric) row. The
    /// fate table is monotone in old id and a refined span is contiguous, so
    /// the emitted row is already sorted by block id, without duplicates.
    pub(crate) fn inherit_row(
        &mut self,
        tree: &Octree,
        old_row: &[Neighbor],
        leaf: &Octant,
        blocks: &[MeshBlock],
        remap: &[BlockFate],
    ) {
        let out = &mut self.entries;
        let start = out.len();
        let touching = |b: &MeshBlock| {
            contact(tree, leaf, &b.octant).map(|(kind, level_delta)| Neighbor {
                block: b.id,
                kind,
                level_delta,
            })
        };
        for e in old_row {
            match remap[e.block.index()] {
                BlockFate::Same(nb) => out.push(Neighbor { block: nb, ..*e }),
                BlockFate::Refined { first, count } => {
                    let span = &blocks[first.index()..first.index() + count as usize];
                    out.extend(span.iter().filter_map(touching));
                }
                BlockFate::Coarsened(p) => {
                    if out[start..].last().map(|n| n.block) != Some(p) {
                        out.extend(touching(&blocks[p.index()]));
                    }
                }
            }
        }
        self.offsets.push(self.entries.len() as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Dim;
    use crate::tree::Octree;

    fn graph_of(tree: &Octree) -> NeighborGraph {
        let leaves = tree.leaves_sorted();
        NeighborGraph::build(tree, &leaves)
    }

    #[test]
    fn uniform_3d_interior_block_has_26_neighbors() {
        let tree = Octree::uniform_roots(Dim::D3, (4, 4, 4));
        let leaves = tree.leaves_sorted();
        let g = NeighborGraph::build(&tree, &leaves);
        g.check_symmetry().unwrap();
        // Find an interior leaf (coordinates 1..3 on each axis).
        let (idx, _) = leaves
            .iter()
            .enumerate()
            .find(|(_, o)| (1..3).contains(&o.x) && (1..3).contains(&o.y) && (1..3).contains(&o.z))
            .unwrap();
        assert_eq!(g.neighbors(BlockId(idx as u32)).len(), 26);
    }

    #[test]
    fn uniform_3d_corner_block_has_7_neighbors() {
        let tree = Octree::uniform_roots(Dim::D3, (4, 4, 4));
        let leaves = tree.leaves_sorted();
        let g = NeighborGraph::build(&tree, &leaves);
        let (idx, _) = leaves
            .iter()
            .enumerate()
            .find(|(_, o)| o.x == 0 && o.y == 0 && o.z == 0)
            .unwrap();
        assert_eq!(g.neighbors(BlockId(idx as u32)).len(), 7);
    }

    #[test]
    fn uniform_2d_interior_block_has_8_neighbors() {
        let tree = Octree::uniform_roots(Dim::D2, (4, 4, 1));
        let leaves = tree.leaves_sorted();
        let g = NeighborGraph::build(&tree, &leaves);
        let (idx, _) = leaves
            .iter()
            .enumerate()
            .find(|(_, o)| o.x == 1 && o.y == 1)
            .unwrap();
        assert_eq!(g.neighbors(BlockId(idx as u32)).len(), 8);
    }

    #[test]
    fn neighbor_kinds_counted_for_interior_block() {
        let tree = Octree::uniform_roots(Dim::D3, (3, 3, 3));
        let leaves = tree.leaves_sorted();
        let g = NeighborGraph::build(&tree, &leaves);
        let (idx, _) = leaves
            .iter()
            .enumerate()
            .find(|(_, o)| o.x == 1 && o.y == 1 && o.z == 1)
            .unwrap();
        let nbs = g.neighbors(BlockId(idx as u32));
        let faces = nbs.iter().filter(|n| n.kind == NeighborKind::Face).count();
        let edges = nbs.iter().filter(|n| n.kind == NeighborKind::Edge).count();
        let verts = nbs
            .iter()
            .filter(|n| n.kind == NeighborKind::Vertex)
            .count();
        assert_eq!((faces, edges, verts), (6, 12, 8));
    }

    #[test]
    fn refined_mesh_graph_is_symmetric_with_level_deltas() {
        let mut tree = Octree::uniform_roots(Dim::D3, (2, 2, 2));
        tree.refine(&Octant::new(0, 0, 0, 0));
        tree.check_invariants().unwrap();
        let leaves = tree.leaves_sorted();
        let g = NeighborGraph::build(&tree, &leaves);
        g.check_symmetry().unwrap();
        // Some fine leaf must list a coarse neighbor (delta = -1): the
        // refined root's children on the +x/+y/+z sides touch level-0 roots.
        let has_coarse = leaves
            .iter()
            .enumerate()
            .filter(|(_, o)| o.level == 1)
            .any(|(i, _)| {
                g.neighbors(BlockId(i as u32))
                    .iter()
                    .any(|n| n.level_delta == -1)
            });
        assert!(has_coarse);
    }

    #[test]
    fn coarse_block_sees_four_fine_face_neighbors() {
        // Refine root (0,0,0); root (1,0,0)'s -x face now touches 4 fine leaves.
        let mut tree = Octree::uniform_roots(Dim::D3, (2, 2, 2));
        tree.refine(&Octant::new(0, 0, 0, 0));
        let leaves = tree.leaves_sorted();
        let g = NeighborGraph::build(&tree, &leaves);
        let coarse_idx = leaves
            .iter()
            .position(|o| o.level == 0 && o.x == 1 && o.y == 0 && o.z == 0)
            .unwrap();
        let fine_face_nbs = g
            .neighbors(BlockId(coarse_idx as u32))
            .iter()
            .filter(|n| n.kind == NeighborKind::Face && n.level_delta == 1)
            .count();
        assert_eq!(fine_face_nbs, 4);
    }

    #[test]
    fn total_relations_even() {
        let mut tree = Octree::uniform_roots(Dim::D3, (2, 2, 2));
        tree.refine(&Octant::new(0, 1, 1, 0));
        let g = graph_of(&tree);
        // Directed relations pair up.
        assert_eq!(g.total_relations() % 2, 0);
    }

    #[test]
    fn parallel_build_matches_serial() {
        let mut tree = Octree::uniform_roots(Dim::D3, (4, 4, 4));
        tree.refine(&Octant::new(0, 1, 1, 1));
        tree.refine(&Octant::new(0, 2, 2, 2));
        let leaves = tree.leaves_sorted();
        let serial = NeighborGraph::build_serial(&tree, &leaves);
        for threads in [1, 2, 3, 7] {
            let par = NeighborGraph::build_parallel(&tree, &leaves, threads);
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    /// `contact` is the row entry, pair by pair: on random 2-D and 3-D
    /// meshes — bounded and periodic, root grids down to one root on an
    /// axis — it is `Some(kind, delta)` exactly for the pairs and values
    /// `NeighborGraph::build` emits and `None` for every other pair.
    #[test]
    fn contact_is_exactly_the_built_relation() {
        use crate::mesh::{MeshConfig, RefineTag};
        let grids = [
            (Dim::D2, (4, 4, 1)),
            (Dim::D2, (1, 3, 1)),
            (Dim::D2, (2, 1, 1)),
            (Dim::D3, (3, 3, 3)),
            (Dim::D3, (1, 2, 3)),
            (Dim::D3, (2, 2, 1)),
        ];
        let mut some = 0usize;
        for (dim, roots) in grids {
            for periodic in [false, true] {
                let mut mesh = AmrMesh::new(MeshConfig {
                    dim,
                    roots,
                    domain: crate::geom::Aabb::unit(),
                    spec: crate::block::BlockSpec::default(),
                    max_level: 3,
                    periodic,
                });
                for salt in 0..4u64 {
                    mesh.adapt(|b| {
                        let h = (b.id.index() as u64 + 1)
                            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                            .wrapping_add(salt.wrapping_mul(0xbf58_476d_1ce4_e5b9));
                        match (h >> 32) % 5 {
                            0 | 1 => RefineTag::Refine,
                            2 => RefineTag::Coarsen,
                            _ => RefineTag::Keep,
                        }
                    });
                    let graph = mesh.neighbor_graph();
                    for a in mesh.blocks() {
                        let row = graph.neighbors(a.id);
                        for b in mesh.blocks().iter().filter(|b| b.id != a.id) {
                            let built = row
                                .binary_search_by_key(&b.id, |n| n.block)
                                .ok()
                                .map(|i| (row[i].kind, row[i].level_delta));
                            let got = contact(mesh.tree(), &a.octant, &b.octant);
                            assert_eq!(
                                got, built,
                                "{dim:?} {roots:?} periodic={periodic}: {:?} vs {:?}",
                                a.octant, b.octant
                            );
                            some += got.is_some() as usize;
                        }
                    }
                }
            }
        }
        assert!(some > 10_000, "only {some} touching pairs exercised");
    }

    #[test]
    fn periodic_graph_is_symmetric_across_the_wrap() {
        let mut tree = Octree::uniform_roots_periodic(Dim::D3, (2, 2, 2));
        tree.refine(&Octant::new(0, 0, 0, 0));
        graph_of(&tree).check_symmetry().unwrap();
    }

    /// Per-root `classify` against the whole-array search it replaced, for
    /// every in-lattice cell of every level down to one below the deepest
    /// leaf (so all three outcomes and both match arms occur).
    fn assert_per_root_classify_matches_whole_array(tree: &Octree) {
        let leaves = tree.leaves_sorted();
        let index = LeafIndex::new(&leaves, tree.dim());
        let whole_array = |cell: &Octant| match index.keys.binary_search(&sfc_key(cell, index.dim))
        {
            Ok(i) if leaves[i].level == cell.level => Cover::Leaf(i as u32),
            Ok(i) if leaves[i].level > cell.level => Cover::Subdivided,
            Ok(i) => Cover::CoveredBy(i as u32),
            Err(pos) => Cover::CoveredBy(pos as u32 - 1),
        };
        let (rx, ry, rz) = tree.roots();
        let deepest = leaves.iter().map(|o| o.level).max().unwrap();
        let mut first_of_root_via_err = false;
        for level in 0..=deepest + 1 {
            let nz = match tree.dim() {
                Dim::D2 => 1,
                Dim::D3 => rz << level,
            };
            for z in 0..nz {
                for y in 0..ry << level {
                    for x in 0..rx << level {
                        let cell = Octant::new(level, x, y, z);
                        let got = index.classify(&cell);
                        assert_eq!(got, whole_array(&cell), "{cell:?}");
                        if let Cover::CoveredBy(i) = got {
                            first_of_root_via_err |= index.runs.contains(&i)
                                && index.keys[i as usize] != sfc_key(&cell, index.dim);
                        }
                    }
                }
            }
        }
        assert!(
            first_of_root_via_err,
            "Err arm never hit a root's first leaf"
        );
    }

    #[test]
    fn per_root_classify_matches_whole_array_search() {
        // Non-cubic, non-power-of-two root grid: Morton root codes are sparse.
        let mut tree = Octree::uniform_roots(Dim::D3, (3, 2, 5));
        tree.refine(&Octant::new(0, 2, 1, 4));
        tree.refine(&Octant::new(1, 5, 3, 9));
        tree.refine(&Octant::new(0, 0, 0, 0));
        assert_per_root_classify_matches_whole_array(&tree);
        let mut tree = Octree::uniform_roots(Dim::D2, (5, 3, 1));
        tree.refine(&Octant::new(0, 4, 2, 0));
        tree.refine(&Octant::new(1, 8, 4, 0));
        assert_per_root_classify_matches_whole_array(&tree);
        let mut tree = Octree::uniform_roots_periodic(Dim::D3, (2, 3, 2));
        tree.refine(&Octant::new(0, 0, 0, 0));
        tree.refine(&Octant::new(1, 0, 0, 0));
        assert_per_root_classify_matches_whole_array(&tree);
    }

    #[test]
    fn empty_and_single_leaf_graphs() {
        let g = NeighborGraph::default();
        assert_eq!(g.num_blocks(), 0);
        assert_eq!(g.total_relations(), 0);
        let tree = Octree::uniform_roots(Dim::D3, (1, 1, 1));
        let g = graph_of(&tree);
        assert_eq!(g.num_blocks(), 1);
        assert_eq!(g.neighbors(BlockId(0)), &[]);
    }
}
