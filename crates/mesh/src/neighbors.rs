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
//! leaf array. A row's candidate keys are ORs of per-axis key parts
//! (`axis_parts`: nine dilations a leaf, not three per probe), one loop
//! (`emit_rows`) probes a span of rows into CSR arrays for every builder and
//! repairer, and large meshes run that loop on the shared [`WorkerPool`]: one
//! contiguous span of rows per lane, lane 0's arrays becoming the graph's and
//! the other lanes' appended behind them.

use crate::block::{BlockId, MeshBlock};
use crate::geom::Dim;
use crate::mesh::{AmrMesh, BlockFate, RefinementDelta};
use crate::octant::{Direction, Octant};
use crate::pool::{task_range, WorkerPool};
use crate::sfc::{sfc_key, sfc_key_part};
use crate::tree::{Octree, NORM_LEVEL};
use std::ops::Range;
use std::sync::Arc;

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

/// Meshes at or above this leaf count build their rows on the global pool:
/// the smallest size at which the pool wins by more than the run-to-run
/// spread (EXPERIMENTS §graph_build_split: it loses at 0.5 k leaves, is
/// inside the spread at 1.1 k, wins from 1.9 k up). It was 8192 when a row
/// cost 2.4× as much and the pool build merged per-chunk parts.
const PARALLEL_BUILD_MIN_LEAVES: usize = 2048;

/// The full neighbor graph of a mesh snapshot in CSR form: the neighbors of
/// the block with `BlockId(i)` are `entries[offsets[i]..offsets[i+1]]`,
/// sorted by neighbor block id. Relations are symmetric as sets of block
/// pairs (kinds match; level deltas are negated).
///
/// The arrays are shared and copy-on-write: a clone is an `Arc` bump, so the
/// graph an [`AmrMesh`] keeps for its snapshot
/// ([`AmrMesh::neighbor_graph`]) is handed to every consumer without a copy.
/// A repair — the mesh's own on every adapt ([`AmrMesh::adapt`]), or a
/// caller's ([`AmrMesh::patch_neighbor_graph`]) — rewrites the arrays in
/// place when this value is their only holder and builds new ones
/// otherwise, so a patch never changes another holder's graph.
///
/// A graph a mesh built, patched or installed records the
/// [`AmrMesh::snapshot_id`] it describes ([`NeighborGraph::snapshot_id`]), so
/// a repair can refuse a graph of another snapshot. Equality compares only
/// the CSR arrays: a patched graph equals a fresh build of the same mesh.
#[derive(Debug, Clone, Default)]
pub struct NeighborGraph {
    csr: Arc<Csr>,
    /// The snapshot these arrays describe; 0 (never drawn) for a graph built
    /// from a leaf slice by [`NeighborGraph::build`].
    snapshot: u64,
}

impl PartialEq for NeighborGraph {
    fn eq(&self, other: &NeighborGraph) -> bool {
        self.csr == other.csr
    }
}

/// The CSR arrays one or more [`NeighborGraph`]s share.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Csr {
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
/// array: blocks (anything that is or holds an [`Octant`]), their keys, and
/// the keys' per-root runs (see [`fill_root_runs`]), all borrowed. The mesh
/// hands out its maintained arrays (`AmrMesh::cover_index`, a
/// [`BlockIndex`]: nothing computed per call); [`NeighborGraph::build`]
/// computes keys and runs for a caller's leaf slice.
pub(crate) struct CoverIndex<'a, B> {
    pub(crate) blocks: &'a [B],
    pub(crate) keys: &'a [u64],
    pub(crate) runs: &'a [u32],
    pub(crate) dim: Dim,
}

/// The mesh's own cover index — the view graph builds and repairs classify
/// against.
pub(crate) type BlockIndex<'a> = CoverIndex<'a, MeshBlock>;

impl AsRef<Octant> for Octant {
    #[inline]
    fn as_ref(&self) -> &Octant {
        self
    }
}

impl AsRef<Octant> for MeshBlock {
    #[inline]
    fn as_ref(&self) -> &Octant {
        &self.octant
    }
}

impl<B: AsRef<Octant>> CoverIndex<'_, B> {
    #[inline]
    fn octant(&self, i: u32) -> &Octant {
        self.blocks[i as usize].as_ref()
    }

    /// Classify the in-lattice level-`level` cell with SFC key `key` by
    /// searching only the leaves of its own root — a neighbor lookup never
    /// leaves the local forest root, so its cost tracks that root's
    /// refinement, not the mesh size. The root's first leaf shares the
    /// root's lower corner, hence its key, which is `<=` the key of every
    /// cell inside the root: the search cannot fall off the front of the
    /// run. Correctness of the `Err` arm: leaves tile the domain, so if the
    /// key is absent the leaf with the greatest smaller key is the (unique)
    /// coarser leaf whose key range contains it; if the key is present at a
    /// coarser level, that leaf's lower corner coincides with the cell's,
    /// making it an ancestor.
    #[inline]
    fn classify_key(&self, key: u64, level: u8) -> Cover {
        let root = (key >> root_shift(self.dim)) as usize;
        let (lo, hi) = (self.runs[root] as usize, self.runs[root + 1] as usize);
        match self.keys[lo..hi].binary_search(&key) {
            Ok(i) => {
                let i = (lo + i) as u32;
                match self.octant(i).level.cmp(&level) {
                    std::cmp::Ordering::Equal => Cover::Leaf(i),
                    std::cmp::Ordering::Less => Cover::CoveredBy(i),
                    std::cmp::Ordering::Greater => Cover::Subdivided,
                }
            }
            Err(pos) => {
                debug_assert!(pos > 0, "in-lattice cell below its root's first leaf");
                let i = (lo + pos - 1) as u32;
                debug_assert!(
                    {
                        // A leaf's key range is its key with the bits below
                        // its level free: equal above them means ancestor.
                        let found = self.octant(i).level;
                        let below = self.dim.rank() as u32 * (NORM_LEVEL - found) as u32;
                        level > found && key >> below == self.keys[i as usize] >> below
                    },
                    "Err(pos) must land inside a coarser covering leaf"
                );
                Cover::CoveredBy(i)
            }
        }
    }
}

/// Pooled staging for a graph repair (an adapt's, or
/// `AmrMesh::patch_neighbor_graph`'s): the new CSR arrays are emitted here
/// and swapped with the graph's own, so after the first call both sides run
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
    /// New children and merged parents: probed by `emit_rows`.
    pub(crate) probed: usize,
}

impl NeighborGraph {
    /// Build the neighbor graph for all leaves of `tree`, with `leaves`
    /// given in SFC order (defining the `BlockId` of each leaf). Large meshes
    /// build on the global pool (see [`AmrMesh::neighbor_graph`], which runs
    /// the same loop over the mesh's maintained index).
    ///
    /// # Panics
    /// If `leaves` are not in strict SFC order.
    pub fn build(tree: &Octree, leaves: &[Octant]) -> NeighborGraph {
        let dim = tree.dim();
        let keys: Vec<u64> = leaves.iter().map(|o| sfc_key(o, dim)).collect();
        // The slice comes from outside the crate: out of order or duplicated
        // it would classify garbage silently. (The mesh's own index is
        // sorted by construction and never passes through here.)
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "leaves must arrive in strict SFC order"
        );
        let mut runs = Vec::new();
        fill_root_runs(&keys, dim, &mut runs);
        let index = CoverIndex {
            blocks: leaves,
            keys: &keys,
            runs: &runs,
            dim,
        };
        NeighborGraph::build_indexed(tree, &index, None)
    }

    /// Build the graph of the blocks `index` describes: on `pool` if one is
    /// given, else on the global pool from [`PARALLEL_BUILD_MIN_LEAVES`]
    /// blocks up. A one-thread pool is the serial build: exactly the two
    /// output arrays and the row scratch are allocated.
    pub(crate) fn build_indexed<B: AsRef<Octant> + Sync>(
        tree: &Octree,
        index: &CoverIndex<'_, B>,
        pool: Option<&WorkerPool>,
    ) -> NeighborGraph {
        let n = index.keys.len();
        let pool = pool.or_else(|| (n >= PARALLEL_BUILD_MIN_LEAVES).then(WorkerPool::global));
        if let Some(pool) = pool.filter(|pool| pool.threads() > 1) {
            return build_spans(tree, index, pool);
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut entries = Vec::with_capacity(n * Direction::all(index.dim).len());
        let mut row = Vec::with_capacity(MAX_ROW);
        emit_rows(tree, index, 0..n, &mut row, &mut offsets, &mut entries);
        NeighborGraph::from_arrays(offsets, entries)
    }

    /// A graph that is the only holder of `offsets` and `entries`, of no
    /// snapshot yet.
    fn from_arrays(offsets: Vec<u32>, entries: Vec<Neighbor>) -> NeighborGraph {
        NeighborGraph {
            csr: Arc::new(Csr { offsets, entries }),
            snapshot: 0,
        }
    }

    /// The [`AmrMesh::snapshot_id`] of the mesh snapshot this graph
    /// describes: stamped by the mesh's build, re-stamped by every patch and
    /// by [`AmrMesh::install_topology`]. 0 for a graph built from a leaf
    /// slice ([`NeighborGraph::build`]), which names no snapshot.
    #[inline]
    pub fn snapshot_id(&self) -> u64 {
        self.snapshot
    }

    /// Record the snapshot this graph describes.
    #[inline]
    pub(crate) fn stamp(&mut self, snapshot: u64) {
        self.snapshot = snapshot;
    }

    /// The arrays, for writing: copied first if another graph shares them.
    pub(crate) fn csr_mut(&mut self) -> &mut Csr {
        Arc::make_mut(&mut self.csr)
    }

    /// Number of blocks in the graph.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.csr.offsets.len().saturating_sub(1)
    }

    /// Neighbors of a block, sorted by neighbor block id.
    #[inline]
    pub fn neighbors(&self, b: BlockId) -> &[Neighbor] {
        let i = b.index();
        let csr = &*self.csr;
        &csr.entries[csr.offsets[i] as usize..csr.offsets[i + 1] as usize]
    }

    /// Iterate over `(block, neighbors)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, &[Neighbor])> {
        let csr = &*self.csr;
        csr.offsets.windows(2).enumerate().map(|(i, w)| {
            (
                BlockId(i as u32),
                &csr.entries[w[0] as usize..w[1] as usize],
            )
        })
    }

    /// Total number of directed neighbor relations (messages per exchange
    /// round, before placement-dependent local/remote classification).
    #[inline]
    pub fn total_relations(&self) -> usize {
        self.csr.entries.len()
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
        self.csr.offsets[i] as usize
    }

    /// The packed entries of rows `span`: one contiguous piece of the flat
    /// relation space.
    #[inline]
    pub(crate) fn rows(&self, span: Range<usize>) -> &[Neighbor] {
        let csr = &*self.csr;
        &csr.entries[csr.offsets[span.start] as usize..csr.offsets[span.end] as usize]
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
    /// probed by [`emit_rows`]. Cost: O(blocks + entries) copying plus
    /// O(created blocks) probes. The staging arrays in `scratch` swap with
    /// the graph's own, so steady-state patching allocates nothing.
    /// [`NeighborGraph::build`] is the oracle. The caller stamps the result;
    /// `AmrMesh::patch_neighbor_graph` checks that the graph is of the
    /// delta's pre-adapt snapshot and falls back to a build when it is not.
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
                    let created = first.index()..first.index() + count as usize;
                    scratch.probe_rows(tree, index, created);
                    rows.probed += count as usize;
                }
                // Only the first sibling emits the parent's row.
                BlockFate::Coarsened(new) if new.index() == emitted => {
                    scratch.probe_rows(tree, index, emitted..emitted + 1);
                    rows.probed += 1;
                }
                BlockFate::Coarsened(_) => {}
            }
        }
        debug_assert_eq!(rows.inherited + rows.probed, blocks.len());

        // Sole holder: swap the staging arrays in, and the displaced arrays
        // become the next patch's staging storage. Shared (with the mesh's
        // kept graph, say): the staging arrays become a new CSR of this
        // graph's own and the other holders keep the old one.
        match Arc::get_mut(&mut self.csr) {
            Some(csr) => {
                std::mem::swap(&mut csr.offsets, &mut scratch.offsets);
                std::mem::swap(&mut csr.entries, &mut scratch.entries);
            }
            None => {
                let offsets = std::mem::take(&mut scratch.offsets);
                let entries = std::mem::take(&mut scratch.entries);
                self.csr = Arc::new(Csr { offsets, entries });
            }
        }
        rows
    }
}

/// The neighbor graph of one mesh snapshot, parked by a caller that outlives
/// the mesh (the service's LRU entry, across sessions) so the CSR is built
/// once per snapshot, not once per tenant — together with what identifies
/// that snapshot *exactly*: the dimensionality, root grid and boundary
/// semantics of the mesh's tree plus its SFC key array. Leaves tile the
/// domain, so the ascending keys and the root grid determine every leaf's
/// level, hence the whole graph; a 64-bit digest of the keys would not (it
/// can collide, and it does not see `periodic`).
///
/// Only a mesh makes one, from the graph it keeps
/// ([`AmrMesh::into_topology`]), and a mesh takes one back only if
/// [`MeshTopology::is_for`] says it is its own
/// ([`AmrMesh::install_topology`]): no other way into a mesh's kept graph
/// exists.
///
/// The parked graph is exact-size: a build reserves one entry per direction
/// per leaf (26 in 3-D) and a CSR fills 58 % of that on the service's
/// 16-rank shapes, 90 % on a 16384-rank mesh; a long-lived value must not pin
/// the rest.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshTopology {
    dim: Dim,
    roots: (u32, u32, u32),
    periodic: bool,
    keys: Vec<u64>,
    graph: NeighborGraph,
}

impl MeshTopology {
    /// Park `graph`, the graph of the snapshot `tree` and `keys` describe,
    /// shrunk to exact size.
    pub(crate) fn new(tree: &Octree, keys: Vec<u64>, mut graph: NeighborGraph) -> MeshTopology {
        debug_assert_eq!(graph.num_blocks(), keys.len());
        let csr = graph.csr_mut();
        csr.offsets.shrink_to_fit();
        csr.entries.shrink_to_fit();
        MeshTopology {
            dim: tree.dim(),
            roots: tree.roots(),
            periodic: tree.periodic(),
            keys,
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

    /// The parked graph.
    #[inline]
    pub fn graph(&self) -> &NeighborGraph {
        &self.graph
    }

    /// Give the graph up (to the mesh it [is for](MeshTopology::is_for)).
    #[inline]
    pub(crate) fn into_graph(self) -> NeighborGraph {
        self.graph
    }
}

/// Most entries a row can hold: under (corner-inclusive) 2:1 balance a 3-D
/// face is shared with at most 4 finer leaves, an edge with 2, a vertex with
/// 1, so a row — and the pushes that precede its dedup — is bounded by
/// 6·4 + 12·2 + 8 = 56 (2-D: 4·2 + 4 = 12), and by the 26 (8) directions for
/// a leaf of the finest level present, which nothing finer can touch. The
/// serial build reserves its row scratch at this, so no probe regrows it.
const MAX_ROW: usize = 56;

/// Key part of a candidate coordinate outside a bounded lattice. No key has
/// every bit set (a 3-D key is 63 bits), and OR-ing this into the other
/// axes' parts keeps it, so one compare rejects the direction.
const OUTSIDE: u64 = u64::MAX;

/// Per axis, the [`sfc_key_part`]s of `leaf`'s three candidate coordinates
/// `c − 1, c, c + 1` (indexed by `d + 1`): [`OUTSIDE`] beyond a bounded
/// lattice's faces, wrapped around a periodic one's. The same-level lattice
/// neighbor in direction `d` then has key `x[dx] | y[dy] | z[dz]`
/// ([`neighbor_key`]) — what `Octree::lattice_neighbor` plus `sfc_key` give,
/// for nine dilations a leaf instead of three a direction. A 2-D tree's
/// directions have `dz == 0`, whose part is the 0 a 2-D key holds for z.
#[inline]
pub(crate) fn axis_parts(tree: &Octree, leaf: &Octant) -> [[u64; 3]; 3] {
    let (dim, periodic) = (tree.dim(), tree.periodic());
    let (rx, ry, rz) = tree.roots();
    let axes = [(leaf.x, rx), (leaf.y, ry), (leaf.z, rz)];
    let mut parts = [[OUTSIDE, 0, OUTSIDE]; 3];
    for (axis, &(c, roots)) in axes[..dim.rank()].iter().enumerate() {
        let extent = roots << leaf.level;
        let part = |c: u32| sfc_key_part(c, leaf.level, axis, dim);
        let below = match c.checked_sub(1) {
            None if periodic => Some(extent - 1),
            below => below,
        };
        let above = match c + 1 {
            above if above < extent => Some(above),
            _ if periodic => Some(0),
            _ => None,
        };
        parts[axis] = [
            below.map_or(OUTSIDE, part),
            part(c),
            above.map_or(OUTSIDE, part),
        ];
    }
    parts
}

/// SFC key of the lattice neighbor in direction `dir` of the leaf `parts`
/// came from, `None` across a bounded domain face.
#[inline]
pub(crate) fn neighbor_key(parts: &[[u64; 3]; 3], dir: Direction) -> Option<u64> {
    let key = parts[0][(dir.dx + 1) as usize]
        | parts[1][(dir.dy + 1) as usize]
        | parts[2][(dir.dz + 1) as usize];
    (key != OUTSIDE).then_some(key)
}

/// Probe the rows of blocks `span` and append them to the CSR arrays
/// `offsets` / `entries` (each row's end offset is pushed, relative to the
/// start of `entries`; `row` is scratch). The one row loop: the serial and
/// pool builds and the repair of created blocks all emit through it. A row
/// probes all directions, then sorts by block id and keeps the first entry
/// per block — directions are enumerated faces-first, so ties resolve to the
/// lowest codimension (largest message).
pub(crate) fn emit_rows<B: AsRef<Octant>>(
    tree: &Octree,
    index: &CoverIndex<'_, B>,
    span: Range<usize>,
    row: &mut Vec<Neighbor>,
    offsets: &mut Vec<u32>,
    entries: &mut Vec<Neighbor>,
) {
    let dirs = Direction::all(index.dim);
    for leaf in index.blocks[span].iter().map(AsRef::as_ref) {
        row.clear();
        let parts = axis_parts(tree, leaf);
        for dir in dirs {
            let Some(key) = neighbor_key(&parts, *dir) else {
                continue;
            };
            let kind = NeighborKind::from_codim(dir.codim());
            // One push per arm: a single push behind a `(block, delta)`
            // match measured 60 % slower a row.
            match index.classify_key(key, leaf.level) {
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
                    collect_touching_fine(index, key, leaf.level, *dir, kind, leaf.level, row)
                }
            }
        }
        row.sort_by_key(|n| n.block); // stable: keeps the lowest-codim duplicate first
        row.dedup_by_key(|n| n.block); // dedup_by_key keeps the first of each run
        entries.extend_from_slice(row);
        offsets.push(entries.len() as u32);
    }
}

/// Push the fine leaves inside the subdivided level-`level` cell with key
/// `key` that touch the boundary shared with the cell the direction came
/// from (the near side w.r.t. `dir`). A child's key is the cell's with the
/// child's Morton digit OR-ed in at its level. Under corner-inclusive 2:1
/// balance the leaves are direct children; the recursion is defense in
/// depth.
fn collect_touching_fine<B: AsRef<Octant>>(
    index: &CoverIndex<'_, B>,
    key: u64,
    level: u8,
    dir: Direction,
    kind: NeighborKind,
    base_level: u8,
    row: &mut Vec<Neighbor>,
) {
    let l = level + 1;
    let rank = index.dim.rank() as u32;
    let digit_shift = rank * (NORM_LEVEL - l) as u32;
    let near = |d: i8, bit: u64| d == 0 || (d > 0) == (bit == 0);
    for child in 0..1u64 << rank {
        if !(near(dir.dx, child & 1) && near(dir.dy, child >> 1 & 1) && near(dir.dz, child >> 2)) {
            continue;
        }
        let child_key = key | child << digit_shift;
        match index.classify_key(child_key, l) {
            Cover::Leaf(i) => row.push(Neighbor {
                block: BlockId(i),
                kind,
                level_delta: l as i8 - base_level as i8,
            }),
            Cover::Subdivided => {
                collect_touching_fine(index, child_key, l, dir, kind, base_level, row)
            }
            Cover::CoveredBy(_) => {}
        }
    }
}

/// The pool build: one contiguous span of rows per lane
/// ([`task_range`]), each probed into the lane's own arrays; lane 0's arrays
/// — reserved for the whole graph — become the graph's, the other lanes'
/// are appended behind them (offsets rebased). Rows are pure functions of
/// the tree, so the graph does not depend on the lane count.
/// (A write-once variant — lanes handing a running entry offset from chunk
/// to chunk into one bound-sized array — measured no faster through the
/// repo benchmark, so the merge without `unsafe` ships: EXPERIMENTS
/// §graph_build_split.)
fn build_spans<B: AsRef<Octant> + Sync>(
    tree: &Octree,
    index: &CoverIndex<'_, B>,
    pool: &WorkerPool,
) -> NeighborGraph {
    let n = index.keys.len();
    let lanes = pool.tasks_for(n);
    let per_row = Direction::all(index.dim).len();
    // Where the arrays come from is worth a quarter of the build's wall
    // (EXPERIMENTS §graph_build_split). All are allocated here, by the
    // caller: a lane allocating for itself would use its worker's malloc
    // arena, which keeps the pages after the merge frees them. And in
    // descending lane order, so the short-lived ones lie below lane 0's,
    // which outlives the build: freed, they leave a hole the next build
    // reuses warm, not free top-of-heap that is trimmed and re-faulted.
    let mut parts: Vec<PatchScratch> = (0..lanes)
        .rev()
        .map(|t| {
            let rows = if t == 0 {
                n
            } else {
                task_range(t, lanes, n).len()
            };
            PatchScratch {
                offsets: Vec::with_capacity(rows + 1),
                entries: Vec::with_capacity(rows * per_row),
                row: Vec::with_capacity(MAX_ROW),
            }
        })
        .collect();
    parts.reverse();
    pool.run_with(&mut parts, |t, part| {
        part.begin();
        part.probe_rows(tree, index, task_range(t, lanes, n));
    });
    let mut parts = parts.into_iter();
    let first = parts.next().expect("at least one lane");
    let (mut offsets, mut entries) = (first.offsets, first.entries);
    for part in parts {
        let base = entries.len() as u32;
        entries.extend_from_slice(&part.entries);
        offsets.extend(part.offsets[1..].iter().map(|o| base + o));
    }
    NeighborGraph::from_arrays(offsets, entries)
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
/// That is the entry [`emit_rows`] keeps. A direction `d` reaches `b` from
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
    /// Empty the staging arrays for the next graph.
    pub(crate) fn begin(&mut self) {
        self.offsets.clear();
        self.offsets.push(0);
        self.entries.clear();
    }

    /// Stage the rows of blocks `span` by probing the mesh: blocks that did
    /// not exist before an adapt, or a chunk of a full build.
    pub(crate) fn probe_rows<B: AsRef<Octant>>(
        &mut self,
        tree: &Octree,
        index: &CoverIndex<'_, B>,
        span: Range<usize>,
    ) {
        let PatchScratch {
            offsets,
            entries,
            row,
        } = self;
        emit_rows(tree, index, span, row, offsets, entries);
    }

    /// Stage a surviving block's post-adapt row: its pre-adapt row walked
    /// once through the fate table — the patch's one survivor routine.
    /// `leaf` is the survivor's (unchanged) octant, `blocks` the post-adapt
    /// block array; `old_row` and the emitted entries hold global ids.
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

    /// Keys and root runs of a leaf slice, as `NeighborGraph::build` forms them.
    fn leaf_keys(leaves: &[Octant], dim: Dim) -> (Vec<u64>, Vec<u32>) {
        let keys: Vec<u64> = leaves.iter().map(|o| sfc_key(o, dim)).collect();
        let mut runs = Vec::new();
        fill_root_runs(&keys, dim, &mut runs);
        (keys, runs)
    }

    fn leaf_index<'a>(
        blocks: &'a [Octant],
        keys: &'a [u64],
        runs: &'a [u32],
        dim: Dim,
    ) -> CoverIndex<'a, Octant> {
        CoverIndex {
            blocks,
            keys,
            runs,
            dim,
        }
    }

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
    fn pool_build_matches_serial_at_any_lane_count() {
        let mut tree = Octree::uniform_roots(Dim::D3, (4, 4, 4));
        tree.refine(&Octant::new(0, 1, 1, 1));
        tree.refine(&Octant::new(0, 2, 2, 2));
        let leaves = tree.leaves_sorted();
        let (keys, runs) = leaf_keys(&leaves, tree.dim());
        let index = leaf_index(&leaves, &keys, &runs, tree.dim());
        let serial = NeighborGraph::build_indexed(&tree, &index, Some(&WorkerPool::new(1)));
        serial.check_symmetry().unwrap();
        for threads in [2, 3, 7] {
            let pool = WorkerPool::new(threads);
            let pooled = NeighborGraph::build_indexed(&tree, &index, Some(&pool));
            assert_eq!(pooled, serial, "threads = {threads}");
        }
        // More lanes than blocks: the surplus lanes get empty spans.
        let tree = Octree::uniform_roots(Dim::D2, (2, 1, 1));
        let leaves = tree.leaves_sorted();
        let (keys, runs) = leaf_keys(&leaves, tree.dim());
        let index = leaf_index(&leaves, &keys, &runs, tree.dim());
        let pooled = NeighborGraph::build_indexed(&tree, &index, Some(&WorkerPool::new(7)));
        assert_eq!(pooled, NeighborGraph::build(&tree, &leaves));
        assert_eq!(pooled.num_blocks(), 2);
    }

    #[test]
    #[should_panic(expected = "strict SFC order")]
    fn unsorted_leaves_are_rejected_in_release_too() {
        let tree = Octree::uniform_roots(Dim::D3, (2, 2, 2));
        let mut leaves = tree.leaves_sorted();
        leaves.swap(2, 5);
        NeighborGraph::build(&tree, &leaves);
    }

    /// One coarse block ringed by refined neighbors reaches the stated row
    /// maximum, and no row exceeds its leaf's bound: the maximum for a leaf
    /// with something finer around, the direction count at the finest level.
    #[test]
    fn row_bound_is_reached_by_the_ringed_block_and_never_exceeded() {
        for (dim, roots, coarse, fine) in [
            (Dim::D3, (3, 3, 3), MAX_ROW, 26),
            (Dim::D2, (3, 3, 1), 12, 8),
        ] {
            for periodic in [false, true] {
                let mut tree = Octree::uniform_roots(dim, roots);
                tree.set_periodic(periodic);
                let center = Octant::new(0, 1, 1, if dim == Dim::D3 { 1 } else { 0 });
                for leaf in tree.leaves_sorted() {
                    if leaf != center {
                        tree.refine(&leaf);
                    }
                }
                let leaves = tree.leaves_sorted();
                let graph = NeighborGraph::build(&tree, &leaves);
                let at = leaves.iter().position(|o| *o == center).unwrap();
                assert_eq!(graph.neighbors(BlockId(at as u32)).len(), coarse);
                let finest = leaves.iter().map(|o| o.level).max().unwrap();
                for (i, leaf) in leaves.iter().enumerate() {
                    let bound = if leaf.level == finest { fine } else { coarse };
                    assert!(graph.neighbors(BlockId(i as u32)).len() <= bound);
                }
            }
        }
    }

    proptest::proptest! {
        /// The per-axis parts give, for every direction, exactly the key of
        /// `Octree::lattice_neighbor`'s cell: at every level, with each
        /// coordinate on or next to a lattice face (0, 1, extent − 2,
        /// extent − 1) or anywhere between, 2-D and 3-D, root grids of 1–3
        /// and 32 roots an axis, bounded and periodic.
        #[test]
        fn axis_parts_give_the_lattice_neighbor_keys(
            dim_3d: bool,
            periodic: bool,
            small in (1u32..4, 1u32..4, 1u32..4),
            wide: bool,
            inner_x: u32,
            inner_y: u32,
            inner_z: u32,
        ) {
            let dim = if dim_3d { Dim::D3 } else { Dim::D2 };
            let roots = if wide { (32, small.1, 32) } else { small };
            let mut tree = Octree::uniform_roots(dim, roots);
            tree.set_periodic(periodic);
            let (rx, ry, rz) = tree.roots();
            for level in 0..=NORM_LEVEL {
                let coord = |roots: u32, mode: u32, inner: u32| {
                    let extent = roots << level;
                    match mode {
                        0 => 0,
                        1 => 1 % extent,
                        2 => extent.saturating_sub(2),
                        3 => extent - 1,
                        _ => inner % extent,
                    }
                };
                for modes in 0..125u32 {
                    let z = if dim_3d { coord(rz, modes / 25, inner_z) } else { 0 };
                    let (x, y) = (coord(rx, modes % 5, inner_x), coord(ry, modes / 5 % 5, inner_y));
                    let leaf = Octant::new(level, x, y, z);
                    let parts = axis_parts(&tree, &leaf);
                    for dir in Direction::all(dim) {
                        let cell = tree.lattice_neighbor(&leaf, *dir);
                        let expect = cell.map(|c| sfc_key(&c, dim));
                        proptest::prop_assert_eq!(neighbor_key(&parts, *dir), expect, "{:?} {:?}", leaf, dir);
                    }
                }
            }
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
        let (keys, runs) = leaf_keys(&leaves, tree.dim());
        let index = leaf_index(&leaves, &keys, &runs, tree.dim());
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
                        let got = index.classify_key(sfc_key(&cell, index.dim), level);
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
