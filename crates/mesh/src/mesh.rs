//! `AmrMesh`: the top-level mesh API tying together tree, blocks, SFC
//! ordering and neighbor topology.
//!
//! This is the interface the rest of the workspace consumes: workloads tag
//! blocks for (de)refinement, the mesh adapts while keeping 2:1 balance,
//! block IDs are re-assigned in SFC order (exactly the redistribution
//! pipeline of §V-A: *assign block IDs via Z-order SFC → compute placement →
//! migrate*), and placement policies read the SFC-ordered cost vector plus
//! the neighbor graph.
//!
//! ## Incremental remeshing
//!
//! A real AMR step changes only a few percent of blocks near the front, so
//! [`AmrMesh::adapt`] is O(changed blocks), not O(mesh): block IDs live in a
//! Morton-sorted array where every refine/coarsen edits a contiguous span
//! (children are consecutive on the curve), so the post-adapt index is a
//! single merge walk that copies surviving blocks and splices changed spans.
//! The walk also fills [`RefinementDelta::remap`] — the old→new [`BlockId`]
//! fate of every pre-adapt block — through which the adapt patches the
//! neighbor graph the mesh keeps, and downstream consumers remap placement
//! state instead of rebuilding from scratch.

use crate::block::{BlockId, BlockSpec, MeshBlock};
use crate::geom::{Aabb, Dim};
use crate::neighbors::{fill_root_runs, root_shift, BlockIndex, NeighborGraph, PatchScratch};
use crate::octant::Octant;
use crate::pool::WorkerPool;
use crate::sfc::sfc_key;
use crate::tree::{Coverage, Octree, NORM_LEVEL};
use crate::MeshTopology;
use amr_telemetry::trace::{Counter as TraceCounter, TraceHandle, TracePhase};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Static configuration of an AMR mesh.
#[derive(Debug, Clone)]
pub struct MeshConfig {
    pub dim: Dim,
    /// Root grid (initial blocks per axis). One initial block per root.
    pub roots: (u32, u32, u32),
    /// Physical domain covered by the root grid.
    pub domain: Aabb,
    /// Per-block cell counts / ghost width / variables.
    pub spec: BlockSpec,
    /// Maximum refinement level (relative to the roots).
    pub max_level: u8,
    /// Periodic domain boundaries (opposite faces are neighbors).
    pub periodic: bool,
}

impl MeshConfig {
    /// Config for the paper's Sedov setups: `mesh_cells` total cells per axis
    /// with `16³` blocks gives `mesh_cells/16` roots per axis (Table I).
    pub fn from_cells(dim: Dim, mesh_cells: (u32, u32, u32), max_level: u8) -> MeshConfig {
        let spec = BlockSpec::default();
        let b = spec.cells_per_axis;
        assert!(
            mesh_cells.0.is_multiple_of(b)
                && mesh_cells.1.is_multiple_of(b)
                && (dim == Dim::D2 || mesh_cells.2.is_multiple_of(b)),
            "mesh cells must be a multiple of the block size"
        );
        MeshConfig {
            dim,
            roots: (
                mesh_cells.0 / b,
                mesh_cells.1 / b,
                if dim == Dim::D2 { 1 } else { mesh_cells.2 / b },
            ),
            domain: Aabb::unit(),
            spec,
            max_level,
            periodic: false,
        }
    }

    /// Same configuration with periodic domain boundaries.
    pub fn with_periodic(mut self) -> MeshConfig {
        self.periodic = true;
        self
    }
}

/// Per-block adaptation decision produced by a workload's tagging criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefineTag {
    /// Split the block into `2^d` children.
    Refine,
    /// Merge with siblings into the parent (only applied if all siblings
    /// agree and 2:1 balance permits).
    Coarsen,
    /// Leave as is.
    Keep,
}

/// The fate of one pre-adapt block across an adaptation step, indexed by its
/// old [`BlockId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockFate {
    /// The octant survived; this is its post-adapt id.
    Same(BlockId),
    /// The octant was subdivided; its region is now covered by `count` new
    /// leaves at contiguous ids `first .. first + count` (children are
    /// consecutive on the SFC, so the span covers ripple re-refinement too).
    Refined { first: BlockId, count: u32 },
    /// The octant merged with its siblings; the parent leaf has this
    /// post-adapt id (all `2^d` siblings map to the same id).
    Coarsened(BlockId),
}

/// Changeset of one adaptation step: summary counters plus the full old→new
/// block remap that incremental consumers (graph patching, placement-state
/// remapping) key off.
///
/// The changeset is pooled inside the mesh — [`AmrMesh::adapt`] returns a
/// borrow and [`AmrMesh::last_delta`] re-exposes it — so a steady-state adapt
/// allocates nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefinementDelta {
    /// Leaves refined (including balance-induced ripples).
    pub refined: usize,
    /// Parents created by coarsening.
    pub coarsened: usize,
    /// Block count before adaptation.
    pub blocks_before: usize,
    /// Block count after adaptation.
    pub blocks_after: usize,
    /// [`AmrMesh::snapshot_id`] of the mesh this adapt started from: a
    /// consumer trusts the remap only if that is the snapshot it holds.
    pub from_snapshot: u64,
    /// Fate of every pre-adapt block, indexed by old [`BlockId`]. Empty when
    /// the adapt was a no-op (`!changed()`): the identity remap is implied
    /// and nothing is materialized.
    pub remap: Vec<BlockFate>,
}

impl RefinementDelta {
    /// Does this changeset relate a mesh of `before` blocks to one of
    /// `after` — a materialized fate for each of the `before` old blocks?
    /// Every consumer of [`remap`](RefinementDelta::remap) asks this before
    /// trusting it; a no-op or restored mesh's delta answers `false`. Counts
    /// cannot see a missed adapt: see [`RefinementDelta::from_snapshot`].
    pub fn maps(&self, before: usize, after: usize) -> bool {
        !self.remap.is_empty()
            && self.remap.len() == before
            && self.blocks_before == before
            && self.blocks_after == after
    }

    /// Did the mesh change (requiring redistribution)?
    pub fn changed(&self) -> bool {
        self.refined > 0 || self.coarsened > 0
    }

    /// True when the adapt took the no-op fast path: nothing changed and no
    /// remap was materialized (identity implied).
    pub fn is_identity(&self) -> bool {
        !self.changed() && self.remap.is_empty()
    }

    /// Number of pre-adapt blocks whose fate is not [`BlockFate::Same`].
    pub fn changed_old_blocks(&self) -> usize {
        self.remap
            .iter()
            .filter(|f| !matches!(f, BlockFate::Same(_)))
            .count()
    }

    /// Post-adapt ids of blocks created by refinement, ascending.
    pub fn new_child_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.remap.iter().flat_map(|f| {
            let span = match f {
                BlockFate::Refined { first, count } => {
                    first.index()..first.index() + *count as usize
                }
                _ => 0..0,
            };
            span.map(|i| BlockId(i as u32))
        })
    }
}

/// A block-structured AMR mesh: 2:1-balanced octree forest + SFC-ordered
/// block index.
///
/// ```
/// use amr_mesh::{AmrMesh, Dim, MeshConfig, Point, RefineTag};
/// // 64^3 cells, 16^3 blocks -> 4x4x4 roots.
/// let mut mesh = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (64, 64, 64), 2));
/// assert_eq!(mesh.num_blocks(), 64);
/// let hot = Point::new(0.25, 0.25, 0.25);
/// mesh.adapt(|b| if b.bounds.contains(&hot) { RefineTag::Refine } else { RefineTag::Keep });
/// assert_eq!(mesh.num_blocks(), 64 + 7); // one block split into 8
/// mesh.check_invariants().unwrap();
/// ```
///
/// The mesh keeps the neighbor graph of its current snapshot once one is
/// built ([`AmrMesh::neighbor_graph`]), and an adapt that changes the mesh
/// patches it in place; a clone carries the snapshot and that graph, never
/// the adapt's scratch.
#[derive(Debug)]
pub struct AmrMesh {
    config: MeshConfig,
    tree: Octree,
    blocks: Vec<MeshBlock>,
    /// SFC key of each block, parallel to `blocks` and strictly ascending;
    /// `id_of` is a binary search over this array (no per-leaf hash map).
    keys: Vec<u64>,
    /// Per-root runs of `keys` (`neighbors::fill_root_runs`), refreshed with
    /// the index: cover classification searches one root's run, not the
    /// whole array. Kept here, not rebuilt per graph repair.
    root_runs: Vec<u32>,
    /// Last adapt's changeset (pooled; see [`AmrMesh::last_delta`]).
    delta: RefinementDelta,
    /// This snapshot's process-unique id (see [`AmrMesh::snapshot_id`]).
    snapshot: u64,
    /// The neighbor graph of this snapshot, once built or installed: shared
    /// with every graph handed out, patched by an adapt that changes the
    /// mesh.
    graph: OnceLock<NeighborGraph>,
    scratch: AdaptScratch,
    /// Optional trace handle: when set, adapts record `remesh`/`splice_index`
    /// spans and graph repairs record `graph_patch` spans (plus counters).
    /// `None` — the default — leaves every path untouched.
    trace: Option<TraceHandle>,
}

impl AmrMesh {
    /// Build the initial mesh: one block per root-grid cell.
    pub fn new(config: MeshConfig) -> AmrMesh {
        assert!(config.max_level <= NORM_LEVEL);
        let mut tree = Octree::uniform_roots(config.dim, config.roots);
        tree.set_periodic(config.periodic);
        let mut mesh = AmrMesh::empty(config, tree);
        mesh.rebuild_index();
        mesh
    }

    /// Rebuild a mesh from a config and a validated tree (checkpoint
    /// restore). Fails if the tree's dimensionality or root grid disagrees
    /// with the config.
    pub fn from_parts(config: MeshConfig, tree: Octree) -> Result<AmrMesh, String> {
        if tree.dim() != config.dim {
            return Err("tree/config dimensionality mismatch".into());
        }
        let rz = match config.dim {
            Dim::D2 => 1,
            Dim::D3 => config.roots.2,
        };
        if tree.roots() != (config.roots.0, config.roots.1, rz) {
            return Err("tree/config root grid mismatch".into());
        }
        if config.max_level > NORM_LEVEL {
            return Err("max_level beyond supported depth".into());
        }
        let mut tree = tree;
        tree.set_periodic(config.periodic);
        // Re-validate: periodic domains impose extra 2:1 constraints across
        // the wrap that a non-periodic check would not see.
        if config.periodic {
            tree.check_invariants()?;
        }
        let mut mesh = AmrMesh::empty(config, tree);
        mesh.rebuild_index();
        Ok(mesh)
    }

    fn empty(config: MeshConfig, tree: Octree) -> AmrMesh {
        AmrMesh {
            config,
            tree,
            blocks: Vec::new(),
            keys: Vec::new(),
            root_runs: Vec::new(),
            delta: RefinementDelta::default(),
            snapshot: next_snapshot(),
            graph: OnceLock::new(),
            scratch: AdaptScratch::default(),
            trace: None,
        }
    }

    /// Attach (or detach, with `None`) a trace handle; see
    /// [`amr_telemetry::trace`]. Instrumentation only observes — traced and
    /// untraced adapts produce identical meshes and deltas.
    pub fn set_trace(&mut self, trace: Option<TraceHandle>) {
        self.trace = trace;
    }

    /// Mesh configuration.
    #[inline]
    pub fn config(&self) -> &MeshConfig {
        &self.config
    }

    /// Underlying tree (read-only).
    #[inline]
    pub fn tree(&self) -> &Octree {
        &self.tree
    }

    /// Number of blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Blocks in SFC order (index == `BlockId`).
    #[inline]
    pub fn blocks(&self) -> &[MeshBlock] {
        &self.blocks
    }

    /// SFC key of each block, parallel to [`AmrMesh::blocks`] and strictly
    /// ascending.
    #[inline]
    pub fn sfc_keys(&self) -> &[u64] {
        &self.keys
    }

    /// The maintained cover index (blocks, keys, per-root runs) that graph
    /// repairs classify candidate cells against.
    #[inline]
    pub(crate) fn cover_index(&self) -> BlockIndex<'_> {
        BlockIndex {
            blocks: &self.blocks,
            keys: &self.keys,
            runs: &self.root_runs,
            dim: self.config.dim,
        }
    }

    /// Look up a block by ID.
    #[inline]
    pub fn block(&self, id: BlockId) -> &MeshBlock {
        &self.blocks[id.index()]
    }

    /// The changeset of the most recent [`AmrMesh::adapt`] call. Default
    /// (identity) before any adapt or after a full index rebuild.
    #[inline]
    pub fn last_delta(&self) -> &RefinementDelta {
        &self.delta
    }

    /// Process-unique id of the current snapshot: drawn when the mesh is
    /// built or restored and on every adapt that changes it, shared by
    /// clones.
    #[inline]
    pub fn snapshot_id(&self) -> u64 {
        self.snapshot
    }

    /// The `BlockId` of a leaf octant, if it is a current leaf: a binary
    /// search over the sorted key array (an ancestor or descendant of a leaf
    /// can share the leaf's key, hence the octant equality check).
    pub fn id_of(&self, o: &Octant) -> Option<BlockId> {
        match self.keys.binary_search(&sfc_key(o, self.config.dim)) {
            Ok(i) if self.blocks[i].octant == *o => Some(BlockId(i as u32)),
            _ => None,
        }
    }

    /// Blocks whose bounds intersect `region` (positive-measure overlap):
    /// clears `out` and fills it with their ids in SFC (ascending) order.
    /// Per-step callers keep `out` pooled.
    pub fn blocks_in_region_into(&self, region: &Aabb, out: &mut Vec<BlockId>) {
        out.clear();
        out.extend(
            self.blocks
                .iter()
                .filter(|b| b.bounds.intersects(region))
                .map(|b| b.id),
        );
    }

    /// The neighbor graph of the current mesh snapshot. The first call
    /// builds it ([`AmrMesh::build_neighbor_graph`]) and the mesh keeps it,
    /// patching it on every adapt that changes the mesh; every later call,
    /// and every clone of the mesh, shares that one CSR — an `Arc` bump, no
    /// copy, no build. A build reserves one entry per direction per leaf and
    /// fills 58–90 % of it; the kept graph lives as long as the snapshot, so
    /// it gives the rest back.
    pub fn neighbor_graph(&self) -> NeighborGraph {
        let kept = self.graph.get_or_init(|| {
            let mut graph = self.build_graph(None);
            graph.csr_mut().entries.shrink_to_fit();
            graph
        });
        kept.clone()
    }

    /// The graph the mesh keeps for its current snapshot, if
    /// [`AmrMesh::neighbor_graph`] or [`AmrMesh::install_topology`] has put
    /// one there. Never builds.
    #[inline]
    pub fn kept_neighbor_graph(&self) -> Option<&NeighborGraph> {
        self.graph.get()
    }

    /// Build the neighbor graph afresh from the mesh's own maintained index
    /// (no octant copy, no key recomputed) — on the global pool once the
    /// mesh is large enough for that to pay — and do not keep it: for a
    /// consumer that must not extend the mesh's footprint.
    pub fn build_neighbor_graph(&self) -> NeighborGraph {
        self.build_graph(None)
    }

    /// [`AmrMesh::build_neighbor_graph`] on a pool of the caller's choosing,
    /// whatever the mesh's size; a one-thread pool is the serial build. The
    /// graph is the same bit for bit on any pool, and it is not kept.
    pub fn neighbor_graph_on(&self, pool: &WorkerPool) -> NeighborGraph {
        self.build_graph(Some(pool))
    }

    /// Keep a parked topology as this snapshot's graph — only if it
    /// [is this mesh's](MeshTopology::is_for). The one way a graph built
    /// elsewhere enters a mesh. Returns whether it was installed.
    pub fn install_topology(&mut self, topology: MeshTopology) -> bool {
        if !topology.is_for(self) {
            return false;
        }
        let mut graph = topology.into_graph();
        graph.stamp(self.snapshot);
        self.graph = OnceLock::from(graph);
        true
    }

    /// The kept graph parked with what identifies this snapshot, if the mesh
    /// keeps one (see [`MeshTopology`]).
    pub fn into_topology(mut self) -> Option<MeshTopology> {
        let graph = self.graph.take()?;
        Some(MeshTopology::new(&self.tree, self.keys, graph))
    }

    fn build_graph(&self, pool: Option<&WorkerPool>) -> NeighborGraph {
        let mut graph = NeighborGraph::build_indexed(&self.tree, &self.cover_index(), pool);
        graph.stamp(self.snapshot);
        if let Some(t) = &self.trace {
            t.incr(TraceCounter::GraphFullBuilds, 1);
            t.incr(TraceCounter::GraphRowsProbed, self.blocks.len() as u64);
        }
        graph
    }

    /// Bring `graph` up to date with the mesh after the most recent
    /// [`AmrMesh::adapt`] (which has patched the kept graph this way):
    /// surviving blocks inherit their rows through the delta's fate table,
    /// only blocks the adapt created are probed. The patch runs only on a
    /// graph of the snapshot that adapt started from
    /// ([`NeighborGraph::snapshot_id`] equal to the delta's
    /// [`from_snapshot`](RefinementDelta::from_snapshot)) whose block count
    /// the delta [maps](RefinementDelta::maps). Any other graph — of another
    /// snapshot, of none, or after a no-op adapt — becomes the kept graph, or
    /// a fresh build that is not kept. Returns `true` iff the incremental
    /// patch path ran.
    pub fn patch_neighbor_graph(
        &self,
        graph: &mut NeighborGraph,
        scratch: &mut PatchScratch,
    ) -> bool {
        let _span = self.trace.as_ref().map(|t| t.span(TracePhase::GraphPatch));
        let d = &self.delta;
        if graph.snapshot_id() == d.from_snapshot && d.maps(graph.num_blocks(), self.blocks.len()) {
            let rows = graph.patch(&self.tree, &self.cover_index(), d, scratch);
            graph.stamp(self.snapshot);
            // Row counts by origin, once per repair (not per row).
            if let Some(t) = &self.trace {
                t.incr(TraceCounter::GraphPatches, 1);
                t.incr(TraceCounter::GraphRowsInherited, rows.inherited as u64);
                t.incr(TraceCounter::GraphRowsProbed, rows.probed as u64);
            }
            true
        } else {
            *graph = match self.kept_neighbor_graph() {
                Some(kept) => kept.clone(),
                None => self.build_graph(None), // counts itself
            };
            if let Some(t) = &self.trace {
                // Distinct from GraphFullBuilds so callers can tell "the
                // patch entry point gave up" apart from intentional builds.
                t.incr(TraceCounter::GraphPatchFallbacks, 1);
            }
            false
        }
    }

    /// Apply one adaptation step driven by a per-block tagging criterion.
    ///
    /// Refinement is capped at `config.max_level` and triggers 2:1 ripple
    /// refinement; coarsening requires all `2^d` siblings tagged `Coarsen`
    /// and balance to permit the merge. Block IDs are re-assigned in SFC
    /// order by splicing the changed spans into the sorted block array —
    /// O(changed blocks), not O(mesh) — and the returned changeset records
    /// every pre-adapt block's fate. An adapt that changes the mesh draws a
    /// new [`snapshot_id`](AmrMesh::snapshot_id) and patches the kept
    /// neighbor graph, if the mesh keeps one, through that changeset; a no-op
    /// adapt (nothing refined or coarsened) leaves the index, the id and the
    /// kept graph untouched and allocates nothing.
    pub fn adapt<F>(&mut self, tag: F) -> &RefinementDelta
    where
        F: Fn(&MeshBlock) -> RefineTag,
    {
        // Cheap `Arc` bump (no allocation) so the span guard doesn't hold a
        // borrow of `self` across the mutations below.
        let trace = self.trace.clone();
        let _span = trace.as_ref().map(|t| t.span(TracePhase::Remesh));
        let blocks_before = self.blocks.len();
        let mut tags = std::mem::take(&mut self.scratch.tags);
        tags.clear();
        tags.extend(self.blocks.iter().map(|b| (*b, tag(b))));

        let mut refined = 0usize;
        for (b, t) in &tags {
            if *t == RefineTag::Refine && b.level() < self.config.max_level {
                refined += self.tree.refine(&b.octant);
            }
        }

        // Group coarsen tags by parent without hashing: blocks arrive in SFC
        // order, and a complete sibling family is always one contiguous run
        // of `2^d` Coarsen tags (siblings are consecutive on the curve; any
        // interloper between two siblings is a descendant of a refined
        // sibling, which already disqualifies the family). Count run lengths.
        let mut cands = std::mem::take(&mut self.scratch.coarsen);
        cands.clear();
        for (b, t) in &tags {
            if *t == RefineTag::Coarsen {
                if let Some(p) = b.octant.parent() {
                    match cands.last_mut() {
                        Some((q, c)) if *q == p => *c += 1,
                        _ => cands.push((p, 1)),
                    }
                }
            }
        }
        let family = self.config.dim.children_per_octant() as u32;
        let mut coarsened = 0usize;
        for (p, c) in &cands {
            // A sibling may have been refined by a balance ripple above; the
            // can_coarsen check inside coarsen() guards that.
            if *c == family && self.tree.coarsen(p) {
                coarsened += 1;
            }
        }
        cands.clear();
        self.scratch.coarsen = cands;
        tags.clear();
        self.scratch.tags = tags;

        self.delta.refined = refined;
        self.delta.coarsened = coarsened;
        self.delta.blocks_before = blocks_before;
        self.delta.from_snapshot = self.snapshot;
        if refined == 0 && coarsened == 0 {
            // No-op fast path: the index is already current; the empty remap
            // means identity.
            self.delta.remap.clear();
            self.delta.blocks_after = blocks_before;
        } else {
            let splice = trace.as_ref().map(|t| t.span(TracePhase::SpliceIndex));
            self.splice_index();
            drop(splice);
            self.snapshot = next_snapshot();
            self.delta.blocks_after = self.blocks.len();
            // Moved out so the repair can borrow the whole mesh.
            if let Some(mut graph) = self.graph.take() {
                let mut scratch = std::mem::take(&mut self.scratch.patch);
                self.patch_neighbor_graph(&mut graph, &mut scratch);
                self.scratch.patch = scratch;
                self.graph = OnceLock::from(graph);
            }
        }
        if let Some(t) = &trace {
            t.incr(TraceCounter::Adapts, 1);
            if refined == 0 && coarsened == 0 {
                t.incr(TraceCounter::NoopAdapts, 1);
            }
            t.incr(TraceCounter::BlocksRefined, refined as u64);
            t.incr(TraceCounter::BlocksCoarsened, coarsened as u64);
        }
        &self.delta
    }

    /// Incremental index update: one merge walk over the pre-adapt block
    /// array. Surviving leaves are copied (bounds reused); a subdivided
    /// block's slot expands into the leaves now within it (recursion covers
    /// ripples that re-refined same-pass children); a coarsened family's
    /// `2^d` contiguous slots collapse into one parent emitted at the first
    /// child. Children are consecutive on the SFC, so the output stays
    /// sorted without re-sorting, and the walk doubles as the fate recorder.
    fn splice_index(&mut self) {
        std::mem::swap(&mut self.blocks, &mut self.scratch.blocks);
        std::mem::swap(&mut self.keys, &mut self.scratch.keys);
        // The scratch arrays now hold the pre-adapt index; the new index
        // builds into the (cleared) pooled arrays.
        self.blocks.clear();
        self.keys.clear();
        self.delta.remap.clear();
        let domain = &self.config.domain;
        let roots = self.tree.roots();
        let dim = self.config.dim;
        let mut within = std::mem::take(&mut self.scratch.leaves);
        for (i, b) in self.scratch.blocks.iter().enumerate() {
            if self.tree.is_leaf(&b.octant) {
                let id = BlockId(self.blocks.len() as u32);
                self.delta.remap.push(BlockFate::Same(id));
                self.keys.push(self.scratch.keys[i]);
                self.blocks.push(MeshBlock {
                    id,
                    octant: b.octant,
                    bounds: b.bounds,
                });
                continue;
            }
            match self.tree.coverage(&b.octant) {
                Coverage::Subdivided => {
                    within.clear();
                    self.tree.collect_leaves_within(&b.octant, &mut within);
                    let first = BlockId(self.blocks.len() as u32);
                    self.delta.remap.push(BlockFate::Refined {
                        first,
                        count: within.len() as u32,
                    });
                    for o in &within {
                        let id = BlockId(self.blocks.len() as u32);
                        self.keys.push(sfc_key(o, dim));
                        self.blocks.push(MeshBlock {
                            id,
                            octant: *o,
                            bounds: o.bounds(domain, roots, dim),
                        });
                    }
                }
                Coverage::CoveredBy(p) => {
                    debug_assert_eq!(b.octant.parent(), Some(p), "multi-level collapse");
                    match self.blocks.last() {
                        Some(last) if last.octant == p => {
                            // Later sibling of an already-emitted parent.
                            self.delta.remap.push(BlockFate::Coarsened(last.id));
                        }
                        _ => {
                            let id = BlockId(self.blocks.len() as u32);
                            self.delta.remap.push(BlockFate::Coarsened(id));
                            self.keys.push(sfc_key(&p, dim));
                            self.blocks.push(MeshBlock {
                                id,
                                octant: p,
                                bounds: p.bounds(domain, roots, dim),
                            });
                        }
                    }
                }
                Coverage::Leaf | Coverage::Outside => {
                    unreachable!("pre-adapt block neither survived nor changed")
                }
            }
        }
        self.scratch.leaves = within;
        debug_assert_eq!(self.blocks.len(), self.tree.num_leaves());
        debug_assert!(self.keys.windows(2).all(|w| w[0] < w[1]));
        fill_root_runs(&self.keys, dim, &mut self.root_runs);
    }

    /// Recompute SFC-ordered block IDs and physical bounds from scratch
    /// (initial construction and checkpoint restore).
    fn rebuild_index(&mut self) {
        let leaves = self.tree.leaves_sorted();
        self.blocks.clear();
        self.keys.clear();
        self.blocks.reserve(leaves.len());
        self.keys.reserve(leaves.len());
        for (i, o) in leaves.iter().enumerate() {
            let id = BlockId(i as u32);
            self.blocks.push(MeshBlock {
                id,
                octant: *o,
                bounds: o.bounds(&self.config.domain, self.tree.roots(), self.config.dim),
            });
            self.keys.push(sfc_key(o, self.config.dim));
        }
        fill_root_runs(&self.keys, self.config.dim, &mut self.root_runs);
    }

    /// Validate structural invariants (tiling, balance, index coherence).
    pub fn check_invariants(&self) -> Result<(), String> {
        self.tree.check_invariants()?;
        if self.blocks.len() != self.tree.num_leaves() {
            return Err("block index out of sync with tree".into());
        }
        if self.keys.len() != self.blocks.len() {
            return Err("key array out of sync with blocks".into());
        }
        let runs = &self.root_runs;
        if runs.first() != Some(&0)
            || runs.last() != Some(&(self.keys.len() as u32))
            || runs.windows(2).any(|w| w[0] > w[1])
        {
            return Err("root runs do not tile the block index".into());
        }
        for (i, b) in self.blocks.iter().enumerate() {
            if b.id.index() != i {
                return Err(format!("block {i} has id {}", b.id));
            }
            let root = (self.keys[i] >> root_shift(self.config.dim)) as usize;
            if !runs
                .get(root..root + 2)
                .is_some_and(|w| (w[0] as usize..w[1] as usize).contains(&i))
            {
                return Err(format!("block {} lies outside its root's run", b.id));
            }
            if !self.tree.is_leaf(&b.octant) {
                return Err(format!("block {} is not a tree leaf", b.id));
            }
            if self.keys[i] != sfc_key(&b.octant, self.config.dim) {
                return Err(format!("stale SFC key for block {}", b.id));
            }
            if i > 0 && self.keys[i - 1] >= self.keys[i] {
                return Err(format!("keys not strictly ascending at block {i}"));
            }
        }
        Ok(())
    }
}

impl Clone for AmrMesh {
    /// The snapshot (tree, index, last delta), its kept graph (shared, not
    /// copied) and the trace handle — not the adapt's scratch, which after an
    /// adapt holds the whole pre-adapt index.
    fn clone(&self) -> AmrMesh {
        AmrMesh {
            config: self.config.clone(),
            tree: self.tree.clone(),
            blocks: self.blocks.clone(),
            keys: self.keys.clone(),
            root_runs: self.root_runs.clone(),
            delta: self.delta.clone(),
            snapshot: self.snapshot,
            graph: self.graph.clone(),
            scratch: AdaptScratch::default(),
            trace: self.trace.clone(),
        }
    }
}

/// Pooled scratch so steady-state adapts allocate nothing.
#[derive(Debug, Default)]
struct AdaptScratch {
    tags: Vec<(MeshBlock, RefineTag)>,
    coarsen: Vec<(Octant, u32)>,
    /// The pre-adapt index while an adapt splices the new one.
    blocks: Vec<MeshBlock>,
    keys: Vec<u64>,
    leaves: Vec<Octant>,
    patch: PatchScratch,
}

/// Source of [`AmrMesh::snapshot_id`]s: 0 is never drawn, so a default
/// delta's `from_snapshot` names no mesh. `Relaxed`: an id publishes no
/// other data, and `fetch_add` alone makes it unique.
static NEXT_SNAPSHOT: AtomicU64 = AtomicU64::new(1);

fn next_snapshot() -> u64 {
    NEXT_SNAPSHOT.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Point;

    fn cfg(roots: u32, max_level: u8) -> MeshConfig {
        MeshConfig {
            dim: Dim::D3,
            roots: (roots, roots, roots),
            domain: Aabb::unit(),
            spec: BlockSpec::default(),
            max_level,
            periodic: false,
        }
    }

    #[test]
    fn table1_configs_have_one_block_per_rank() {
        // Table I: 512 ranks <-> 128^3 cells, 16^3 blocks -> 512 roots.
        let m = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (128, 128, 128), 3));
        assert_eq!(m.num_blocks(), 512);
        let m = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (128, 128, 256), 3));
        assert_eq!(m.num_blocks(), 1024);
        let m = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (128, 256, 256), 3));
        assert_eq!(m.num_blocks(), 2048);
        let m = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (256, 256, 256), 3));
        assert_eq!(m.num_blocks(), 4096);
    }

    #[test]
    fn adapt_refines_tagged_blocks() {
        let mut m = AmrMesh::new(cfg(2, 3));
        let delta = m.adapt(|b| {
            if b.bounds.contains(&Point::new(0.1, 0.1, 0.1)) {
                RefineTag::Refine
            } else {
                RefineTag::Keep
            }
        });
        assert!(delta.changed());
        assert_eq!(delta.refined, 1);
        assert_eq!(delta.blocks_before, 8);
        assert_eq!(delta.blocks_after, 15);
        m.check_invariants().unwrap();
    }

    #[test]
    fn adapt_respects_max_level() {
        let mut m = AmrMesh::new(cfg(1, 1));
        let d1 = m.adapt(|_| RefineTag::Refine);
        assert_eq!(d1.blocks_after, 8);
        // All at max level now; further refinement is a no-op.
        let d2 = m.adapt(|_| RefineTag::Refine);
        assert!(!d2.changed());
        assert_eq!(d2.blocks_after, 8);
    }

    #[test]
    fn adapt_coarsens_complete_families_only() {
        let mut m = AmrMesh::new(cfg(2, 2));
        m.adapt(|b| {
            if b.octant == Octant::new(0, 0, 0, 0) {
                RefineTag::Refine
            } else {
                RefineTag::Keep
            }
        });
        assert_eq!(m.num_blocks(), 15);
        // Tag only some of the children: nothing merges.
        let d = m.adapt(|b| {
            if b.level() == 1 && b.octant.x == 0 && b.octant.y == 0 && b.octant.z == 0 {
                RefineTag::Coarsen
            } else {
                RefineTag::Keep
            }
        });
        assert_eq!(d.coarsened, 0);
        // Tag the whole family: merges back.
        let d = m.adapt(|b| {
            if b.level() == 1 {
                RefineTag::Coarsen
            } else {
                RefineTag::Keep
            }
        });
        assert_eq!(d.coarsened, 1);
        assert_eq!(m.num_blocks(), 8);
        m.check_invariants().unwrap();
    }

    #[test]
    fn block_ids_are_sfc_sequential_after_adapt() {
        let mut m = AmrMesh::new(cfg(2, 2));
        m.adapt(|b| {
            if b.octant.x == 0 {
                RefineTag::Refine
            } else {
                RefineTag::Keep
            }
        });
        m.check_invariants().unwrap();
        let keys: Vec<u64> = m
            .blocks()
            .iter()
            .map(|b| crate::sfc::sfc_key(&b.octant, Dim::D3))
            .collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(keys, m.sfc_keys());
    }

    #[test]
    fn incremental_index_matches_full_rebuild() {
        let mut m = AmrMesh::new(cfg(2, 2));
        // Refine, then coarsen part of it back, then refine elsewhere: every
        // splice case (copy, expand, collapse) in play.
        m.adapt(|b| {
            if b.octant.x == 0 {
                RefineTag::Refine
            } else {
                RefineTag::Keep
            }
        });
        m.adapt(|b| {
            if b.level() == 1 && b.octant.y < 2 {
                RefineTag::Coarsen
            } else if b.level() == 0 {
                RefineTag::Refine
            } else {
                RefineTag::Keep
            }
        });
        m.check_invariants().unwrap();
        let full = AmrMesh::from_parts(m.config().clone(), m.tree().clone()).unwrap();
        assert_eq!(m.blocks(), full.blocks());
        assert_eq!(m.sfc_keys(), full.sfc_keys());
    }

    /// A clone carries the snapshot (its id included) and the kept graph,
    /// not the adapt's scratch — which after an adapt holds the whole
    /// pre-adapt index — and adapts exactly as the original does, each
    /// patching the graph it keeps and drawing a snapshot id of its own.
    #[test]
    fn clone_carries_the_snapshot_not_the_scratch() {
        let refine_x0 = |b: &MeshBlock| {
            if b.octant.x == 0 {
                RefineTag::Refine
            } else {
                RefineTag::Keep
            }
        };
        let mut m = AmrMesh::new(cfg(2, 2));
        m.adapt(refine_x0);
        assert!(m.scratch.blocks.capacity() >= 8 && m.scratch.keys.capacity() >= 8);
        let kept = m.neighbor_graph();
        let mut c = m.clone();
        assert_eq!(c.scratch.blocks.capacity() + c.scratch.keys.capacity(), 0);
        assert_eq!(c.kept_neighbor_graph(), Some(&kept));
        assert_eq!(c.last_delta(), m.last_delta());
        assert_eq!(c.snapshot_id(), m.snapshot_id());
        let coarsen_half = |b: &MeshBlock| {
            if b.level() == 1 && b.octant.y < 2 {
                RefineTag::Coarsen
            } else if b.level() == 0 {
                RefineTag::Refine
            } else {
                RefineTag::Keep
            }
        };
        let before = m.snapshot_id();
        m.adapt(coarsen_half);
        c.adapt(coarsen_half);
        assert_eq!(c.blocks(), m.blocks());
        assert_eq!(c.sfc_keys(), m.sfc_keys());
        assert_eq!(c.last_delta(), m.last_delta());
        assert_eq!(m.last_delta().from_snapshot, before);
        assert!(m.snapshot_id() != before && c.snapshot_id() != before);
        assert_ne!(c.snapshot_id(), m.snapshot_id());
        let fresh = m.neighbor_graph_on(&WorkerPool::new(1));
        assert_eq!(m.kept_neighbor_graph(), Some(&fresh));
        assert_eq!(c.kept_neighbor_graph(), Some(&fresh));
        assert_eq!(
            kept.num_blocks(),
            m.last_delta().blocks_before,
            "a holder's graph moved"
        );
        // A no-op adapt keeps the id.
        let id = m.snapshot_id();
        assert!(m.adapt(|_| RefineTag::Keep).is_identity());
        assert_eq!((m.snapshot_id(), m.last_delta().from_snapshot), (id, id));
    }

    #[test]
    fn mesh_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<AmrMesh>();
    }

    #[test]
    fn patch_fallback_is_reported_via_trace_counter() {
        use amr_telemetry::trace::Counter as TC;
        let mut m = AmrMesh::new(cfg(2, 3));
        let handle = TraceHandle::new(64);
        m.set_trace(Some(handle.clone()));
        // A direct build counts itself: one full build, every row probed.
        let mut graph = m.neighbor_graph();
        assert_eq!(handle.metrics().counter(TC::GraphFullBuilds), 1);
        assert_eq!(handle.metrics().counter(TC::GraphRowsProbed), 8);
        let mut scratch = PatchScratch::default();
        // The adapt patches the kept graph, and a live delta patches the
        // caller's copy too: two repairs, no fallback recorded.
        m.adapt(|b| {
            if b.id.index() == 0 {
                RefineTag::Refine
            } else {
                RefineTag::Keep
            }
        });
        assert_eq!(handle.metrics().counter(TC::GraphPatches), 1);
        assert!(m.patch_neighbor_graph(&mut graph, &mut scratch));
        assert_eq!(handle.metrics().counter(TC::GraphPatches), 2);
        assert_eq!(handle.metrics().counter(TC::GraphPatchFallbacks), 0);
        assert_eq!(handle.metrics().counter(TC::GraphFullBuilds), 1);
        // Rows by origin, once per repair: the 8 children were probed, the
        // 7 surviving roots inherited.
        assert_eq!(handle.metrics().counter(TC::GraphRowsProbed), 8 + 2 * 8);
        assert_eq!(handle.metrics().counter(TC::GraphRowsInherited), 2 * 7);
        // A restored mesh has no delta: the entry point must degrade to a
        // full rebuild — and say so, distinctly from intentional builds.
        m = AmrMesh::from_parts(m.config().clone(), m.tree().clone()).unwrap();
        m.set_trace(Some(handle.clone()));
        assert!(!m.patch_neighbor_graph(&mut graph, &mut scratch));
        assert_eq!(handle.metrics().counter(TC::GraphPatchFallbacks), 1);
        assert_eq!(handle.metrics().counter(TC::GraphFullBuilds), 2);
        assert_eq!(
            handle.metrics().counter(TC::GraphRowsProbed),
            8 + 2 * 8 + 15
        );
        // The traced builds are the untraced mesh's, bit for bit.
        let mut plain = m.clone();
        plain.set_trace(None);
        assert_eq!(graph, plain.neighbor_graph());
        assert_eq!(handle.metrics().counter(TC::GraphFullBuilds), 2);
    }

    #[test]
    fn remap_tracks_every_old_block() {
        let mut m = AmrMesh::new(cfg(2, 2));
        m.adapt(|b| {
            if b.octant == Octant::new(0, 0, 0, 0) {
                RefineTag::Refine
            } else {
                RefineTag::Keep
            }
        });
        let old_blocks: Vec<MeshBlock> = m.blocks().to_vec();
        let delta = m
            .adapt(|b| {
                if b.level() == 1 && b.octant.x < 2 && b.octant.y < 2 && b.octant.z < 2 {
                    RefineTag::Coarsen
                } else if b.octant == Octant::new(0, 1, 1, 1) {
                    RefineTag::Refine
                } else {
                    RefineTag::Keep
                }
            })
            .clone();
        assert_eq!(delta.remap.len(), old_blocks.len());
        assert!(delta.refined >= 1 && delta.coarsened == 1);
        for (old, fate) in delta.remap.iter().enumerate() {
            let o = old_blocks[old].octant;
            match *fate {
                BlockFate::Same(new) => {
                    // Every surviving octant maps to its new id.
                    assert_eq!(m.block(new).octant, o);
                    assert_eq!(m.id_of(&o), Some(new));
                }
                BlockFate::Refined { first, count } => {
                    // The span covers exactly the leaves now within the old
                    // block, in SFC order.
                    let within = m.tree().leaves_within(&o);
                    assert_eq!(within.len(), count as usize);
                    for (k, w) in within.iter().enumerate() {
                        assert_eq!(m.block(BlockId((first.index() + k) as u32)).octant, *w);
                    }
                }
                BlockFate::Coarsened(new) => {
                    // Every coarsened child maps to its parent's new id.
                    assert_eq!(m.block(new).octant, o.parent().unwrap());
                }
            }
        }
        m.check_invariants().unwrap();
    }

    #[test]
    fn noop_adapt_is_identity_and_preserves_index() {
        let mut m = AmrMesh::new(cfg(2, 2));
        m.adapt(|b| {
            if b.octant.x == 0 {
                RefineTag::Refine
            } else {
                RefineTag::Keep
            }
        });
        let before: Vec<MeshBlock> = m.blocks().to_vec();
        let d = m.adapt(|_| RefineTag::Keep);
        assert!(d.is_identity());
        assert_eq!(d.blocks_before, d.blocks_after);
        assert_eq!(m.blocks(), &before[..]);
    }

    #[test]
    fn id_of_binary_search_matches_leaves() {
        let mut m = AmrMesh::new(cfg(2, 2));
        m.adapt(|b| {
            if b.octant.x == 0 && b.octant.y == 0 {
                RefineTag::Refine
            } else {
                RefineTag::Keep
            }
        });
        for b in m.blocks() {
            assert_eq!(m.id_of(&b.octant), Some(b.id));
        }
        // Non-leaves: refined parent (shares first child's key) and a
        // descendant of a leaf (shares the leaf's key) both miss.
        assert_eq!(m.id_of(&Octant::new(0, 0, 0, 0)), None);
        assert_eq!(m.id_of(&Octant::new(3, 15, 15, 15)), None);
    }

    #[test]
    fn neighbor_graph_matches_block_count() {
        let mut m = AmrMesh::new(cfg(2, 2));
        m.adapt(|b| {
            if b.octant.x == 0 && b.octant.y == 0 {
                RefineTag::Refine
            } else {
                RefineTag::Keep
            }
        });
        let g = m.neighbor_graph();
        assert_eq!(g.num_blocks(), m.num_blocks());
        g.check_symmetry().unwrap();
    }

    #[test]
    fn patch_neighbor_graph_matches_full_build() {
        let mut m = AmrMesh::new(cfg(2, 2));
        let mut g = m.neighbor_graph();
        let mut scratch = PatchScratch::default();
        // Refine -> mixed refine/coarsen -> no-op: patch must track each.
        type TagFn = Box<dyn Fn(&MeshBlock) -> RefineTag>;
        let tags: Vec<TagFn> = vec![
            Box::new(|b: &MeshBlock| {
                if b.octant.x == 0 {
                    RefineTag::Refine
                } else {
                    RefineTag::Keep
                }
            }),
            Box::new(|b: &MeshBlock| {
                if b.level() == 1 && b.octant.y < 2 {
                    RefineTag::Coarsen
                } else if b.level() == 0 && b.octant.x == 1 {
                    RefineTag::Refine
                } else {
                    RefineTag::Keep
                }
            }),
            Box::new(|_: &MeshBlock| RefineTag::Keep),
        ];
        for tag in &tags {
            m.adapt(|b| tag(b));
            m.patch_neighbor_graph(&mut g, &mut scratch);
            assert_eq!(g, m.neighbor_graph_on(&WorkerPool::new(1)));
            assert_eq!(m.kept_neighbor_graph(), Some(&g));
            g.check_symmetry().unwrap();
        }
    }

    /// A graph of another snapshot whose block count the delta maps is
    /// refused, not patched: 4×4 roots refined once (64 blocks), adapt A
    /// keeps 64 (one block refined, the last family coarsened), adapt B goes
    /// 64 → 67. The graph from before A becomes a fresh build.
    #[test]
    fn patch_refuses_a_graph_of_another_snapshot() {
        let mut m = AmrMesh::new(MeshConfig::from_cells(Dim::D2, (64, 64, 16), 2));
        m.adapt(|_| RefineTag::Refine);
        assert_eq!(m.num_blocks(), 64);
        let before_a = m.neighbor_graph_on(&WorkerPool::new(1));
        assert_eq!(before_a.snapshot_id(), m.snapshot_id());
        let last = m.num_blocks() - 4;
        m.adapt(|b| match b.id.index() {
            0 => RefineTag::Refine,
            i if i >= last => RefineTag::Coarsen,
            _ => RefineTag::Keep,
        });
        assert_eq!(m.num_blocks(), 64);
        m.adapt(|b| match b.id.index() {
            30 => RefineTag::Refine,
            _ => RefineTag::Keep,
        });
        assert_eq!(m.num_blocks(), 67);
        assert!(m.last_delta().maps(before_a.num_blocks(), 67));
        let mut g = before_a;
        assert!(!m.patch_neighbor_graph(&mut g, &mut PatchScratch::default()));
        assert_eq!(g, m.neighbor_graph_on(&WorkerPool::new(1)));
        assert_eq!(g.snapshot_id(), m.snapshot_id());
        g.check_symmetry().unwrap();
        // A graph built from a leaf slice names no snapshot, and is refused too.
        let mut unnamed = NeighborGraph::build(m.tree(), &m.tree().leaves_sorted());
        assert_eq!(unnamed.snapshot_id(), 0);
        assert!(!m.patch_neighbor_graph(&mut unnamed, &mut PatchScratch::default()));
    }

    /// The repo benchmark's probe: clone a mesh that keeps its graph, adapt
    /// the clone, then patch a clone of the pre-adapt graph. The graph is of
    /// the snapshot the adapt started from, so the patch runs, and it
    /// re-stamps the graph with the clone's new snapshot.
    #[test]
    fn patch_of_a_pre_adapt_graph_clone_runs() {
        let mut m = AmrMesh::new(cfg(2, 2));
        m.adapt(|b| {
            if b.octant.x == 0 {
                RefineTag::Refine
            } else {
                RefineTag::Keep
            }
        });
        let graph = m.neighbor_graph();
        let mut c = m.clone();
        let mut g = graph.clone();
        c.adapt(|b| {
            if b.level() < 2 && b.octant.y == 0 {
                RefineTag::Refine
            } else {
                RefineTag::Keep
            }
        });
        assert!(c.last_delta().changed());
        assert!(c.patch_neighbor_graph(&mut g, &mut PatchScratch::default()));
        assert_eq!(g, c.neighbor_graph_on(&WorkerPool::new(1)));
        assert_eq!(g.snapshot_id(), c.snapshot_id());
        assert_eq!(
            c.kept_neighbor_graph().map(|k| k.snapshot_id()),
            Some(c.snapshot_id())
        );
        assert_eq!(graph.snapshot_id(), m.snapshot_id());
    }

    /// A parked topology installed on another mesh of the same shape is
    /// stamped with that mesh's snapshot, so the mesh's next adapt patches
    /// it.
    #[test]
    fn install_topology_stamps_the_mesh_snapshot() {
        let m = AmrMesh::new(cfg(2, 2));
        m.neighbor_graph();
        let topology = m.clone().into_topology().expect("a kept graph parks");
        let mut fresh = AmrMesh::new(cfg(2, 2));
        assert_ne!(fresh.snapshot_id(), m.snapshot_id());
        assert!(fresh.install_topology(topology));
        let installed = fresh.kept_neighbor_graph().map(NeighborGraph::snapshot_id);
        assert_eq!(installed, Some(fresh.snapshot_id()));
        let handle = TraceHandle::new(64);
        fresh.set_trace(Some(handle.clone()));
        fresh.adapt(|b| {
            if b.octant.x == 0 {
                RefineTag::Refine
            } else {
                RefineTag::Keep
            }
        });
        assert_eq!(handle.metrics().counter(TraceCounter::GraphPatches), 1);
        assert_eq!(
            handle.metrics().counter(TraceCounter::GraphPatchFallbacks),
            0
        );
        assert_eq!(
            fresh.kept_neighbor_graph(),
            Some(&fresh.neighbor_graph_on(&WorkerPool::new(1)))
        );
    }

    #[test]
    fn periodic_mesh_has_full_neighborhoods() {
        // Every block of a uniform periodic 3D mesh has exactly 26 neighbors
        // (wrap-around removes the domain boundary).
        let m = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (64, 64, 64), 1).with_periodic());
        let g = m.neighbor_graph();
        g.check_symmetry().unwrap();
        for (_, nbs) in g.iter() {
            assert_eq!(nbs.len(), 26);
        }
    }

    #[test]
    fn periodic_refinement_ripples_across_the_wrap() {
        // Deep refinement at the domain corner must ripple to the opposite
        // corner blocks through the periodic boundary.
        let mut m = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (64, 64, 64), 2).with_periodic());
        m.adapt(|b| {
            if b.octant == Octant::new(0, 0, 0, 0) {
                RefineTag::Refine
            } else {
                RefineTag::Keep
            }
        });
        let d2 = m
            .adapt(|b| {
                if b.octant == Octant::new(1, 0, 0, 0) {
                    RefineTag::Refine
                } else {
                    RefineTag::Keep
                }
            })
            .clone();
        // The level-2 corner leaf touches the far corner root (3,3,3) across
        // the wrap; that root must have been ripple-refined.
        assert!(d2.refined > 1, "no periodic ripple: {d2:?}");
        assert!(!m.tree().is_leaf(&Octant::new(0, 3, 3, 3)));
        m.tree().check_invariants().unwrap();
        let g = m.neighbor_graph();
        g.check_symmetry().unwrap();
    }

    #[test]
    fn spatial_queries() {
        let m = AmrMesh::new(cfg(4, 1));
        let mut buf = Vec::new();
        // The whole domain returns every block.
        m.blocks_in_region_into(&Aabb::unit(), &mut buf);
        assert_eq!(buf.len(), 64);
        // A thin slab returns one layer of the 4x4x4 grid, in SFC order,
        // reusing the buffer.
        let slab = Aabb::new(Point::new(0.0, 0.0, 0.3), Point::new(1.0, 1.0, 0.4));
        let cap = buf.capacity();
        m.blocks_in_region_into(&slab, &mut buf);
        assert_eq!(buf.len(), 16);
        assert!(buf.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(buf.capacity(), cap);
    }

    #[test]
    fn bounds_cover_domain() {
        let m = AmrMesh::new(cfg(2, 1));
        let total_vol: f64 = m
            .blocks()
            .iter()
            .map(|b| {
                let e = b.bounds.extent();
                e.x * e.y * e.z
            })
            .sum();
        assert!((total_vol - 1.0).abs() < 1e-9);
    }
}
