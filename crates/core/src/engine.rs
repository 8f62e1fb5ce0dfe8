//! The placement engine: one context-threaded policy API with reusable
//! scratch and incremental rebalance.
//!
//! The paper's redistribution budget (< 50 ms per invocation, §VI-C) makes
//! placement *computation* a first-class cost. This module unifies every
//! policy behind a single entry point,
//! [`PlacementPolicy::place_into`],
//! fed by a [`PlacementCtx`] that carries everything a policy may consume:
//!
//! * per-block costs and the rank count (always),
//! * the mesh snapshot and its [`NeighborGraph`] (mesh-aware policies:
//!   RCB, greedy edge-cut),
//! * the *previous* placement plus the newest adapt's [`RefinementDelta`]
//!   — used to charge migration to redistribution, and
//! * a [`Scratch`] arena of reusable buffers.
//!
//! [`PlacementEngine`] owns the scratch plus two placement buffers and
//! flips between them on every [`PlacementEngine::rebalance`], so a
//! steady-state simulation loop (same mesh size, evolving costs) performs
//! **zero heap allocation** per rebalance: LPT's heap, CDP's DP tables, the
//! rank-load/selection buffers and the output assignment are all reused.

// The workspace's one `disallowed_types` waiver. `Scratch` keeps each buffer
// in its own `RefCell` so nested policies (CPLX → chunked CDP → CDP) can
// borrow disjoint buffers through the shared `&Scratch` that
// `PlacementPolicy::place_into(&self, &PlacementCtx, ..)` hands them.
// `RefCell<Vec<_>>` is `Send`, so `Scratch` and the engine are too (pinned
// by a test below); no `Rc` or `Cell` remains anywhere in the workspace.
#![allow(clippy::disallowed_types)]

use crate::placement::{Placement, RankId};
use crate::policies::{PlacementPolicy, Slot};
use amr_mesh::{AmrMesh, BlockFate, NeighborGraph, RefinementDelta};
use amr_telemetry::trace::{Counter as TraceCounter, Gauge as TraceGauge, TraceHandle, TracePhase};
use std::cell::RefCell;
use std::fmt;

/// Typed rejection of placement inputs (replaces the former `assert!`-based
/// validation). `Display` messages preserve the historical panic text so
/// `place()`'s panicking convenience path stays message-compatible.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementError {
    /// `num_ranks == 0`.
    NoRanks,
    /// A block cost is NaN, infinite, or negative.
    BadCost {
        /// Offending block index.
        block: usize,
        /// The rejected value.
        value: f64,
    },
    /// An assignment maps a block to a rank `>= num_ranks`.
    RankOutOfRange {
        /// Offending block index.
        block: usize,
        /// The out-of-range rank.
        rank: RankId,
        /// Number of ranks available.
        num_ranks: usize,
    },
    /// The context's mesh does not match the cost vector.
    BlockCountMismatch {
        /// Blocks described by the mesh.
        mesh_blocks: usize,
        /// Blocks described by the cost vector.
        cost_blocks: usize,
    },
    /// A mesh-aware policy was invoked without a mesh in the context.
    NeedsMesh {
        /// Name of the policy that required the mesh.
        policy: String,
    },
    /// A rank capacity is NaN, infinite, zero, or negative.
    BadCapacity {
        /// Offending rank.
        rank: usize,
        /// The rejected value.
        value: f64,
    },
    /// The capacity vector's length does not match the rank count.
    CapacityCountMismatch {
        /// Ranks being placed onto.
        num_ranks: usize,
        /// Capacities supplied.
        capacities: usize,
    },
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::NoRanks => write!(f, "need at least one rank"),
            PlacementError::BadCost { block, value } => write!(
                f,
                "block costs must be finite and non-negative (block {block} = {value})"
            ),
            PlacementError::RankOutOfRange {
                block,
                rank,
                num_ranks,
            } => write!(
                f,
                "rank out of range: block {block} maps to rank {rank} of {num_ranks}"
            ),
            PlacementError::BlockCountMismatch {
                mesh_blocks,
                cost_blocks,
            } => write!(
                f,
                "mesh has {mesh_blocks} blocks but {cost_blocks} costs were supplied"
            ),
            PlacementError::NeedsMesh { policy } => {
                write!(f, "policy {policy:?} needs a mesh in the PlacementCtx")
            }
            PlacementError::BadCapacity { rank, value } => write!(
                f,
                "rank capacities must be finite and positive (rank {rank} = {value})"
            ),
            PlacementError::CapacityCountMismatch {
                num_ranks,
                capacities,
            } => write!(
                f,
                "capacity vector covers {capacities} ranks but {num_ranks} are being placed"
            ),
        }
    }
}

impl std::error::Error for PlacementError {}

/// Validate raw policy inputs. Shared by [`PlacementCtx::validate`] and the
/// panicking convenience wrappers.
pub(crate) fn validate(costs: &[f64], num_ranks: usize) -> Result<(), PlacementError> {
    if num_ranks == 0 {
        return Err(PlacementError::NoRanks);
    }
    for (block, &value) in costs.iter().enumerate() {
        if !(value.is_finite() && value >= 0.0) {
            return Err(PlacementError::BadCost { block, value });
        }
    }
    Ok(())
}

/// Migration accounting of one rebalance relative to the previous placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MigrationStats {
    /// Blocks whose rank changed (block payloads that must move).
    pub moved: usize,
    /// `max_r max(outgoing(r), incoming(r))`: the per-rank transfer volume
    /// (in blocks) that bounds the all-to-all migration phase.
    pub max_rank_flow: usize,
}

/// What one `place_into` call produced, beyond the placement itself.
/// `Copy` on purpose: producing a report never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementReport {
    /// Blocks placed.
    pub num_blocks: usize,
    /// Ranks placed onto.
    pub num_ranks: usize,
    /// Maximum per-rank load under the context's costs.
    pub makespan: f64,
    /// Makespan over mean load (1.0 = perfect balance).
    pub imbalance: f64,
    /// Migration relative to [`PlacementCtx::prev`]; `None` when there is no
    /// previous placement or it is incomparable (block count changed and no
    /// [`RefinementDelta`] relates the two meshes).
    pub migration: Option<MigrationStats>,
}

/// Reusable buffers threaded through `place_into` via [`PlacementCtx`].
///
/// Interior mutability (`RefCell`) lets a shared `&Scratch` serve nested
/// policies (CPLX → chunked CDP → CDP) — each buffer is borrowed only while
/// the owning stage runs. Nothing here is shared between threads: chunked
/// CDP solves its chunks one after another on the `cdp_*` buffers, and
/// [`Zonal`](crate::policies::Zonal) hands each zone a bare context (the
/// warm LPT order describes the whole mesh, not a zone).
#[derive(Debug, Default)]
pub struct Scratch {
    /// CDP prefix sums (`W`).
    pub(crate) cdp_prefix: RefCell<Vec<f64>>,
    /// CDP rolling DP row.
    pub(crate) cdp_dp: RefCell<Vec<f64>>,
    /// CDP next DP row.
    pub(crate) cdp_next: RefCell<Vec<f64>>,
    /// CDP bit-packed parent choices.
    pub(crate) cdp_parent: RefCell<Vec<u64>>,
    /// CDP per-rank segment lengths.
    pub(crate) cdp_lengths: RefCell<Vec<usize>>,
    /// LPT descending-cost block order (subset callers; cleared per call).
    pub(crate) lpt_order: RefCell<Vec<usize>>,
    /// LPT block order for *full-mesh* placements. Invariant: always a
    /// permutation of `0..len`, so when the block count is unchanged the
    /// previous (sorted) order seeds the next sort — near-linear when
    /// steady-state costs drift slowly. This is the incremental-rebalance
    /// fast path; only [`crate::policies::Lpt`]'s full-set path touches it.
    pub(crate) lpt_full_order: RefCell<Vec<usize>>,
    /// LPT rank min-heap storage.
    pub(crate) lpt_slots: RefCell<Vec<Slot>>,
    /// Generic block-index list (full sets, CPLX selections).
    pub(crate) block_ids: RefCell<Vec<usize>>,
    /// Generic rank-id list (full rank sets).
    pub(crate) rank_ids: RefCell<Vec<RankId>>,
    /// Per-rank load accumulator.
    pub(crate) rank_loads: RefCell<Vec<f64>>,
    /// Load-sorted rank order (CPLX selection).
    pub(crate) rank_order: RefCell<Vec<RankId>>,
    /// Selected ranks (CPLX).
    pub(crate) selected: RefCell<Vec<RankId>>,
    /// Rank-selected mask (CPLX).
    pub(crate) selected_mask: RefCell<Vec<bool>>,
    /// Secondary assignment buffer (Blend's LPT solution).
    pub(crate) second_assignment: RefCell<Vec<RankId>>,
    /// Per-rank outgoing block counts (migration accounting).
    pub(crate) flow_out: RefCell<Vec<u32>>,
    /// Per-rank incoming block counts (migration accounting).
    pub(crate) flow_in: RefCell<Vec<u32>>,
    /// Staged remapped full order (swapped with `lpt_full_order`).
    pub(crate) order_stage: RefCell<Vec<usize>>,
    /// Multilevel partitioner arena (level graphs, gain buckets, matching
    /// state) — warm repartitions through [`crate::policies::Multilevel`]
    /// allocate nothing once these have grown to the working size.
    pub(crate) ml: RefCell<crate::policies::multilevel::MlScratch>,
}

impl Scratch {
    /// Fresh, empty scratch. Buffers grow on first use and are then reused.
    pub fn new() -> Scratch {
        Scratch::default()
    }

    /// Carry [`lpt_full_order`](Scratch::lpt_full_order) across the remesh
    /// `delta` describes, or clear it when `delta` is `None` (stale).
    ///
    /// One walk over the previous sorted order emits each old block's new
    /// ids where the old block sat: a survivor its id, a refined block its
    /// children in SFC order, a coarsened family its parent at the family's
    /// first member. The caller has checked that the fates tile the new ids
    /// ([`fates_tile`]), so the result is again a permutation; and since
    /// per-block cost estimates carry across refinement the same way
    /// (children inherit, merges average), the order stays nearly sorted
    /// and LPT's seeded sort stays near-linear through mesh changes instead
    /// of resetting to a cold identity order. Allocation-free once the
    /// staging buffer is warm. A stale order (another length) is cleared —
    /// LPT then performs one cold reset, which is always correct, just
    /// slower.
    pub(crate) fn carry_lpt_full_order(&self, delta: Option<&RefinementDelta>) {
        let mut order = self.lpt_full_order.borrow_mut();
        let Some(remap) = delta
            .map(|d| &d.remap[..])
            .filter(|r| r.len() == order.len())
        else {
            order.clear();
            return;
        };
        let mut stage = self.order_stage.borrow_mut();
        stage.clear();
        for &old in order.iter() {
            match remap[old] {
                BlockFate::Same(new) => stage.push(new.index()),
                BlockFate::Refined { first, count } => {
                    stage.extend(first.index()..first.index() + count as usize)
                }
                BlockFate::Coarsened(new) if old == 0 || remap[old - 1] != remap[old] => {
                    stage.push(new.index())
                }
                BlockFate::Coarsened(_) => {}
            }
        }
        std::mem::swap(&mut *order, &mut *stage);
    }
}

/// Do `delta`'s fates relate `before` old blocks to the new ids `0..after`,
/// in ascending order, each new id named once (a coarsened family's equal
/// fates count as one)? Only then can migration and the warm order walk it:
/// a delta a caller hands the engine is otherwise stale, and is ignored.
fn fates_tile(delta: &RefinementDelta, before: usize, after: usize) -> bool {
    if !delta.maps(before, after) {
        return false;
    }
    let mut next = 0; // the new id the next fate must start at
    for (old, &fate) in delta.remap.iter().enumerate() {
        let (first, count) = match fate {
            BlockFate::Same(new) => (new.index(), 1),
            BlockFate::Refined { first, count } => (first.index(), count as usize),
            // A later member of a coarsened family names its parent again.
            BlockFate::Coarsened(_) if old > 0 && delta.remap[old - 1] == fate => continue,
            BlockFate::Coarsened(new) => (new.index(), 1),
        };
        if first != next {
            return false;
        }
        next += count;
    }
    next == after
}

/// Everything a placement policy may consume, threaded by reference.
///
/// Construct with [`PlacementCtx::new`] and attach optional inputs with the
/// `with_*` builders:
///
/// ```
/// use amr_core::engine::PlacementCtx;
/// use amr_core::policies::{Lpt, PlacementPolicy};
/// use amr_core::Placement;
///
/// let costs = vec![3.0, 1.0, 2.0, 2.0];
/// let ctx = PlacementCtx::new(&costs, 2);
/// let mut out = Placement::new(Vec::new(), 1);
/// let report = Lpt.place_into(&ctx, &mut out).unwrap();
/// assert_eq!(report.num_blocks, 4);
/// assert_eq!(report.makespan, 4.0);
/// ```
#[derive(Clone, Copy)]
pub struct PlacementCtx<'a> {
    costs: &'a [f64],
    num_ranks: usize,
    mesh: Option<&'a AmrMesh>,
    graph: Option<&'a NeighborGraph>,
    prev: Option<&'a Placement>,
    delta: Option<&'a RefinementDelta>,
    scratch: Option<&'a Scratch>,
    capacities: Option<&'a [f64]>,
    edge_weights: Option<&'a [u64]>,
}

impl<'a> PlacementCtx<'a> {
    /// Minimal context: costs + rank count.
    pub fn new(costs: &'a [f64], num_ranks: usize) -> PlacementCtx<'a> {
        PlacementCtx {
            costs,
            num_ranks,
            mesh: None,
            graph: None,
            prev: None,
            delta: None,
            scratch: None,
            capacities: None,
            edge_weights: None,
        }
    }

    /// Attach the mesh snapshot (required by RCB and greedy edge-cut).
    pub fn with_mesh(mut self, mesh: &'a AmrMesh) -> Self {
        self.mesh = Some(mesh);
        self
    }

    /// Attach a prebuilt neighbor graph (avoids a rebuild inside graph-aware
    /// policies).
    pub fn with_graph(mut self, graph: &'a NeighborGraph) -> Self {
        self.graph = Some(graph);
        self
    }

    /// Attach the previous placement for migration accounting.
    pub fn with_prev(mut self, prev: &'a Placement) -> Self {
        self.prev = Some(prev);
        self
    }

    /// Attach reusable scratch buffers.
    pub fn with_scratch(mut self, scratch: &'a Scratch) -> Self {
        self.scratch = Some(scratch);
        self
    }

    /// Attach per-rank capacities: relative speeds (1.0 = nominal, 0.25 = a
    /// 4×-throttled rank). Capacity-aware policies (the LPT/CPLX family)
    /// weight per-rank load by capacity so a slow rank receives
    /// proportionally less work; [`finish`](PlacementCtx::finish) then
    /// reports makespan/imbalance in *time* units (`load / capacity`).
    /// Policies that ignore capacities still get honest reports.
    pub fn with_capacities(mut self, capacities: &'a [f64]) -> Self {
        self.capacities = Some(capacities);
        self
    }

    /// Attach observed per-relation exchange bytes, parallel to the attached
    /// graph's flat relation space (`NeighborGraph::row_start` indexing).
    /// Graph-aware policies (`GreedyEdgeCut`, the multilevel family) then
    /// optimize *measured* traffic instead of the topological message-size
    /// model — the feedback loop the simulator's `ExchangeByteLedger`
    /// closes. A slice whose length doesn't match the graph's relation
    /// count is ignored (policies fall back to topological weights), so a
    /// ledger that lags a remesh can never mis-weight edges.
    pub fn with_edge_weights(mut self, edge_weights: &'a [u64]) -> Self {
        self.edge_weights = Some(edge_weights);
        self
    }

    /// Per-block costs in SFC order.
    pub fn costs(&self) -> &'a [f64] {
        self.costs
    }

    /// Number of ranks to place onto.
    pub fn num_ranks(&self) -> usize {
        self.num_ranks
    }

    /// The mesh snapshot, if attached.
    pub fn mesh(&self) -> Option<&'a AmrMesh> {
        self.mesh
    }

    /// The neighbor graph, if attached.
    pub fn graph(&self) -> Option<&'a NeighborGraph> {
        self.graph
    }

    /// The previous placement, if attached.
    pub fn prev(&self) -> Option<&'a Placement> {
        self.prev
    }

    /// The newest adapt's changeset, attached by the engine's warm
    /// rebalance when its fates tile the previous and the current blocks.
    pub fn delta(&self) -> Option<&'a RefinementDelta> {
        self.delta
    }

    /// The scratch arena, if attached.
    pub fn scratch(&self) -> Option<&'a Scratch> {
        self.scratch
    }

    /// Per-rank capacities, if attached.
    pub fn capacities(&self) -> Option<&'a [f64]> {
        self.capacities
    }

    /// Observed per-relation exchange bytes, if attached.
    pub fn edge_weights(&self) -> Option<&'a [u64]> {
        self.edge_weights
    }

    /// Validate costs, rank count, and (when attached) capacities.
    pub fn validate(&self) -> Result<(), PlacementError> {
        validate(self.costs, self.num_ranks)?;
        if let Some(caps) = self.capacities {
            if caps.len() != self.num_ranks {
                return Err(PlacementError::CapacityCountMismatch {
                    num_ranks: self.num_ranks,
                    capacities: caps.len(),
                });
            }
            for (rank, &value) in caps.iter().enumerate() {
                if !(value.is_finite() && value > 0.0) {
                    return Err(PlacementError::BadCapacity { rank, value });
                }
            }
        }
        Ok(())
    }

    /// Build the report for a finished assignment: balance metrics plus
    /// migration accounting against `prev`. Allocation-free when scratch is
    /// attached (after warm-up). Policy implementations call this as the
    /// last step of `place_into`; it is public so policies defined outside
    /// this crate can do the same.
    pub fn finish(&self, out: &Placement) -> PlacementReport {
        debug_assert_eq!(out.num_blocks(), self.costs.len());
        debug_assert_eq!(out.num_ranks(), self.num_ranks);

        let mut local_loads = Vec::new();
        let mut borrowed;
        let loads: &mut Vec<f64> = match self.scratch {
            Some(s) => {
                borrowed = s.rank_loads.borrow_mut();
                &mut borrowed
            }
            None => &mut local_loads,
        };
        loads.clear();
        loads.resize(self.num_ranks, 0.0);
        for (b, &r) in out.as_slice().iter().enumerate() {
            loads[r as usize] += self.costs[b];
        }
        // With capacities, per-rank completion time is load/capacity and the
        // ideal makespan is total work over total speed; without, the two
        // formulations coincide (all capacities 1).
        let mut makespan = 0.0f64;
        let mut total = 0.0f64;
        match self.capacities {
            Some(caps) => {
                for (r, &l) in loads.iter().enumerate() {
                    makespan = makespan.max(l / caps[r]);
                    total += l;
                }
            }
            None => {
                for &l in loads.iter() {
                    makespan = makespan.max(l);
                    total += l;
                }
            }
        }
        let ideal = match self.capacities {
            Some(caps) => total / caps.iter().sum::<f64>(),
            None => total / self.num_ranks as f64,
        };
        let imbalance = if total == 0.0 { 1.0 } else { makespan / ideal };

        PlacementReport {
            num_blocks: out.num_blocks(),
            num_ranks: self.num_ranks,
            makespan,
            imbalance,
            migration: self.migration(out),
        }
    }

    /// Migration of `out` relative to `prev`, routed through the adapt's
    /// fate table when the block count changed.
    fn migration(&self, out: &Placement) -> Option<MigrationStats> {
        let prev = self.prev?;
        let nr = self.num_ranks.max(prev.num_ranks());
        let mut local_out = Vec::new();
        let mut local_in = Vec::new();
        let (mut bo, mut bi);
        let (flow_out, flow_in): (&mut Vec<u32>, &mut Vec<u32>) = match self.scratch {
            Some(s) => {
                bo = s.flow_out.borrow_mut();
                bi = s.flow_in.borrow_mut();
                (&mut bo, &mut bi)
            }
            None => (&mut local_out, &mut local_in),
        };
        flow_out.clear();
        flow_out.resize(nr, 0);
        flow_in.clear();
        flow_in.resize(nr, 0);

        let mut moved = 0usize;
        fn charge(
            moved: &mut usize,
            flow_out: &mut [u32],
            flow_in: &mut [u32],
            from: RankId,
            to: RankId,
        ) {
            if from != to {
                *moved += 1;
                flow_out[from as usize] += 1;
                flow_in[to as usize] += 1;
            }
        }

        if prev.num_blocks() == out.num_blocks() {
            for b in 0..out.num_blocks() {
                charge(
                    &mut moved,
                    flow_out,
                    flow_in,
                    prev.rank_of(b),
                    out.rank_of(b),
                );
            }
        } else {
            // Block count changed: only the fate table can relate new blocks
            // to old ranks. Each old block ships once to the rank of every
            // new block its fate names.
            let delta = self
                .delta
                .filter(|d| d.maps(prev.num_blocks(), out.num_blocks()))?;
            for (old, fate) in delta.remap.iter().enumerate() {
                let new = match *fate {
                    BlockFate::Same(n) | BlockFate::Coarsened(n) => n.index()..n.index() + 1,
                    BlockFate::Refined { first, count } => {
                        first.index()..first.index() + count as usize
                    }
                };
                for &to in out.as_slice().get(new)? {
                    charge(&mut moved, flow_out, flow_in, prev.rank_of(old), to);
                }
            }
        }

        let max_rank_flow = (0..nr)
            .map(|r| flow_out[r].max(flow_in[r]) as usize)
            .max()
            .unwrap_or(0);
        Some(MigrationStats {
            moved,
            max_rank_flow,
        })
    }
}

/// Identity of a placement problem: an FNV-1a hash of the mesh's SFC key
/// sequence mixed with the rank count. Two meshes exposing identical key
/// sequences at the same rank count pose the same placement problem, so a
/// warm engine keyed by its fingerprint can be handed across owners — the
/// `amr-service` warm-engine LRU is built on exactly this hand-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeshFingerprint(u64);

impl MeshFingerprint {
    /// Fingerprint of `mesh` placed onto `num_ranks` ranks.
    pub fn of_mesh(mesh: &AmrMesh, num_ranks: usize) -> MeshFingerprint {
        MeshFingerprint::of_keys(mesh.sfc_keys(), num_ranks)
    }

    /// Fingerprint from a raw SFC key sequence — sharded callers hash a
    /// shard's slice without materializing a mesh.
    pub fn of_keys(keys: &[u64], num_ranks: usize) -> MeshFingerprint {
        const OFFSET: u64 = 0xcbf29ce484222325;
        const PRIME: u64 = 0x100000001b3;
        let mut h = OFFSET;
        let mix = |h: u64, v: u64| -> u64 {
            let mut h = h;
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(PRIME);
            }
            h
        };
        // Length and rank count are mixed explicitly so `[a, b] @ 4` and
        // `[a] @ 4` with coincidentally-equal streams cannot collide by
        // construction shape.
        h = mix(h, keys.len() as u64);
        h = mix(h, num_ranks as u64);
        for &k in keys {
            h = mix(h, k);
        }
        MeshFingerprint(h)
    }

    /// The raw 64-bit hash (stable within a process run; used for display
    /// and test plumbing, not persistence).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Owns the scratch arena and a double-buffered placement pair; each
/// [`rebalance`](PlacementEngine::rebalance) places into the spare buffer
/// with the current placement as `prev`, then flips. Steady-state rebalances
/// are allocation-free.
#[derive(Debug, Default)]
pub struct PlacementEngine {
    scratch: Scratch,
    buffers: [Placement; 2],
    current: usize,
    primed: bool,
    /// Identity of the mesh the current placement was computed for, stamped
    /// by the owner via [`set_fingerprint`](PlacementEngine::set_fingerprint)
    /// (hashing is O(blocks), so the hot rebalance path never computes it
    /// implicitly). Any rebalance clears it — the placement may no longer
    /// match the stamped mesh.
    fingerprint: Option<MeshFingerprint>,
    /// Per-rank capacities applied to every rebalance until cleared; empty
    /// means the homogeneous (capacity-less) fast path.
    capacities: Vec<f64>,
    /// Optional trace handle: when set, each rebalance records a `place`
    /// span and publishes migration/imbalance metrics. `None` is the
    /// zero-overhead default.
    trace: Option<TraceHandle>,
}

impl PlacementEngine {
    /// Fresh engine with empty buffers.
    pub fn new() -> PlacementEngine {
        PlacementEngine::default()
    }

    /// The scratch arena (for building contexts outside the engine).
    pub fn scratch(&self) -> &Scratch {
        &self.scratch
    }

    /// The current placement, if any rebalance has run.
    pub fn placement(&self) -> Option<&Placement> {
        self.primed.then(|| &self.buffers[self.current])
    }

    /// Forget the current placement (e.g. when starting a new run); buffers
    /// and scratch keep their capacity. Capacities are cleared too — a new
    /// run starts from the homogeneous assumption.
    pub fn reset(&mut self) {
        self.primed = false;
        self.capacities.clear();
        self.fingerprint = None;
    }

    /// Identity of the mesh the current placement solves, if the owner
    /// stamped one (see [`MeshFingerprint`]). `None` after any rebalance or
    /// reset.
    pub fn fingerprint(&self) -> Option<MeshFingerprint> {
        self.fingerprint
    }

    /// Stamp (or clear) the placement's mesh identity. Owners parking a
    /// warm engine in a fingerprint-keyed cache stamp it at hand-off time;
    /// the next rebalance clears the stamp automatically.
    pub fn set_fingerprint(&mut self, fingerprint: Option<MeshFingerprint>) {
        self.fingerprint = fingerprint;
    }

    /// Apply per-rank capacities (relative speeds; see
    /// [`PlacementCtx::with_capacities`]) to every subsequent rebalance.
    /// The slice is copied into an engine-owned buffer so callers don't
    /// fight the borrow on `rebalance_with`. Reuses its allocation.
    pub fn set_capacities(&mut self, capacities: &[f64]) {
        self.capacities.clear();
        self.capacities.extend_from_slice(capacities);
    }

    /// Return to homogeneous (capacity-less) placement.
    pub fn clear_capacities(&mut self) {
        self.capacities.clear();
    }

    /// Capacities currently applied, if any.
    pub fn capacities(&self) -> Option<&[f64]> {
        (!self.capacities.is_empty()).then_some(&self.capacities[..])
    }

    /// Attach (or detach, with `None`) a trace handle; see
    /// [`amr_telemetry::trace`]. Mirrors the capacity API: the handle is
    /// engine-owned state applied to every subsequent rebalance.
    pub fn set_trace(&mut self, trace: Option<TraceHandle>) {
        self.trace = trace;
    }

    /// Rebalance with costs only.
    pub fn rebalance(
        &mut self,
        policy: &dyn PlacementPolicy,
        costs: &[f64],
        num_ranks: usize,
    ) -> Result<PlacementReport, PlacementError> {
        self.rebalance_with(policy, costs, num_ranks, None, None)
    }

    /// Rebalance with a mesh attached (mesh-aware policies).
    pub fn rebalance_on_mesh(
        &mut self,
        policy: &dyn PlacementPolicy,
        costs: &[f64],
        num_ranks: usize,
        mesh: &AmrMesh,
    ) -> Result<PlacementReport, PlacementError> {
        self.rebalance_with(policy, costs, num_ranks, Some(mesh), None)
    }

    /// Full-control rebalance: optional mesh and the changeset of the adapt
    /// since the previous rebalance. The previous placement (if primed) and
    /// the scratch arena are attached automatically. A delta whose fates do
    /// not carry the previous placement's blocks onto `0..costs.len()` in
    /// ascending order is stale: no migration accounting, and a cold LPT
    /// order. On error the current placement is left untouched.
    pub fn rebalance_with(
        &mut self,
        policy: &dyn PlacementPolicy,
        costs: &[f64],
        num_ranks: usize,
        mesh: Option<&AmrMesh>,
        delta: Option<&RefinementDelta>,
    ) -> Result<PlacementReport, PlacementError> {
        self.rebalance_weighted(policy, costs, num_ranks, mesh, delta, None, None)
    }

    /// [`rebalance_with`](PlacementEngine::rebalance_with) plus the
    /// graph-aware inputs: a prebuilt neighbor graph (so graph policies skip
    /// the rebuild) and observed per-relation exchange bytes parallel to it
    /// (see [`PlacementCtx::with_edge_weights`]). This is the simulator's
    /// feedback path — the `ExchangeByteLedger` lands here.
    #[allow(clippy::too_many_arguments)]
    pub fn rebalance_weighted(
        &mut self,
        policy: &dyn PlacementPolicy,
        costs: &[f64],
        num_ranks: usize,
        mesh: Option<&AmrMesh>,
        delta: Option<&RefinementDelta>,
        graph: Option<&NeighborGraph>,
        edge_weights: Option<&[u64]>,
    ) -> Result<PlacementReport, PlacementError> {
        // The guard borrows only the `trace` field; everything below touches
        // the other fields directly, so no clone of the handle is needed.
        let _span = self.trace.as_ref().map(|t| t.span(TracePhase::Place));
        let (head, tail) = self.buffers.split_at_mut(1);
        let (cur, next) = if self.current == 0 {
            (&head[0], &mut tail[0])
        } else {
            (&tail[0], &mut head[0])
        };
        let mut ctx = PlacementCtx::new(costs, num_ranks).with_scratch(&self.scratch);
        if !self.capacities.is_empty() {
            ctx = ctx.with_capacities(&self.capacities);
        }
        if let Some(m) = mesh {
            ctx = ctx.with_mesh(m);
        }
        if let Some(g) = graph {
            ctx = ctx.with_graph(g);
        }
        if let Some(w) = edge_weights {
            ctx = ctx.with_edge_weights(w);
        }
        if self.primed {
            ctx = ctx.with_prev(cur);
            // A remesh happened: carry LPT's warm sorted order into the new
            // index space so incremental rebalance survives the adapt (a
            // stale delta drops the order and accounts no migration).
            if let Some(d) = delta {
                ctx.delta = fates_tile(d, cur.num_blocks(), costs.len()).then_some(d);
                self.scratch.carry_lpt_full_order(ctx.delta);
            }
        }
        let report = policy.place_into(&ctx, next)?;
        self.current ^= 1;
        self.primed = true;
        // The new placement may solve a different mesh than the stamped one;
        // identity is the owner's to re-establish.
        self.fingerprint = None;
        if let Some(t) = &self.trace {
            t.incr(TraceCounter::Rebalances, 1);
            if let Some(m) = &report.migration {
                t.incr(TraceCounter::BlocksMoved, m.moved as u64);
            }
            t.set(TraceGauge::Imbalance, report.imbalance);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{Baseline, Cdp, ChunkedCdp, Cplx, Lpt};
    use amr_mesh::BlockId;

    #[test]
    fn engine_and_scratch_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<PlacementEngine>();
        assert_send::<Scratch>();
    }

    fn costs(n: usize) -> Vec<f64> {
        (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.5).collect()
    }

    #[test]
    fn engine_matches_cold_place() {
        let c = costs(103);
        let mut engine = PlacementEngine::new();
        for _ in 0..3 {
            for policy in [
                &Baseline as &dyn PlacementPolicy,
                &Lpt,
                &Cdp,
                &ChunkedCdp::new(8),
                &Cplx::new(50),
            ] {
                let report = engine.rebalance(policy, &c, 16).unwrap();
                let cold = policy.place(&c, 16);
                assert_eq!(engine.placement().unwrap(), &cold, "{}", policy.name());
                assert_eq!(report.makespan, cold.makespan(&c));
                assert_eq!(report.num_blocks, 103);
            }
        }
    }

    #[test]
    fn fingerprint_tracks_keys_ranks_and_rebalances() {
        // Sensitive to every input dimension…
        let base = MeshFingerprint::of_keys(&[1, 2, 3], 8);
        assert_eq!(MeshFingerprint::of_keys(&[1, 2, 3], 8), base);
        assert_ne!(MeshFingerprint::of_keys(&[1, 2, 4], 8), base);
        assert_ne!(MeshFingerprint::of_keys(&[1, 2], 8), base);
        assert_ne!(MeshFingerprint::of_keys(&[1, 2, 3], 9), base);
        assert_ne!(MeshFingerprint::of_keys(&[1, 2, 3, 0], 8), base);
        // …and the engine stamp survives exactly until the next rebalance
        // or reset invalidates the placement it described.
        let c = costs(32);
        let mut engine = PlacementEngine::new();
        assert_eq!(engine.fingerprint(), None);
        engine.rebalance(&Lpt, &c, 8).unwrap();
        engine.set_fingerprint(Some(base));
        assert_eq!(engine.fingerprint(), Some(base));
        engine.rebalance(&Lpt, &c, 8).unwrap();
        assert_eq!(engine.fingerprint(), None, "rebalance clears the stamp");
        engine.set_fingerprint(Some(base));
        engine.reset();
        assert_eq!(engine.fingerprint(), None, "reset clears the stamp");
    }

    #[test]
    fn repeat_rebalance_reports_zero_migration() {
        let c = costs(64);
        let mut engine = PlacementEngine::new();
        let first = engine.rebalance(&Lpt, &c, 8).unwrap();
        assert!(first.migration.is_none(), "no prev on the first rebalance");
        let second = engine.rebalance(&Lpt, &c, 8).unwrap();
        assert_eq!(
            second.migration,
            Some(MigrationStats {
                moved: 0,
                max_rank_flow: 0
            })
        );
    }

    #[test]
    fn migration_matches_placement_diff() {
        let c = costs(64);
        let mut engine = PlacementEngine::new();
        engine.rebalance(&Baseline, &c, 8).unwrap();
        let base = engine.placement().unwrap().clone();
        let report = engine.rebalance(&Lpt, &c, 8).unwrap();
        let lpt = engine.placement().unwrap();
        let m = report.migration.unwrap();
        assert_eq!(m.moved, lpt.migration_count(&base));
        assert!(m.max_rank_flow > 0 && m.max_rank_flow <= m.moved);
    }

    /// A delta over `remap`, with the block counts it implies.
    fn delta(remap: Vec<BlockFate>, blocks_after: usize) -> RefinementDelta {
        RefinementDelta {
            blocks_before: remap.len(),
            blocks_after,
            remap,
            ..RefinementDelta::default()
        }
    }

    fn same(n: u32) -> BlockFate {
        BlockFate::Same(BlockId(n))
    }

    fn refined(first: u32, count: u32) -> BlockFate {
        BlockFate::Refined {
            first: BlockId(first),
            count,
        }
    }

    fn coarsened(n: u32) -> BlockFate {
        BlockFate::Coarsened(BlockId(n))
    }

    #[test]
    fn migration_across_block_count_change_uses_the_delta() {
        // 4 blocks on 2 ranks -> block 1 splits into 4 children (7 blocks).
        let c4 = vec![1.0; 4];
        let mut engine = PlacementEngine::new();
        engine.rebalance(&Baseline, &c4, 2).unwrap();
        let c7 = vec![1.0; 7];
        let split = delta(vec![same(0), refined(1, 4), same(5), same(6)], 7);
        let report = engine
            .rebalance_with(&Baseline, &c7, 2, None, Some(&split))
            .unwrap();
        // Old ranks: [0,0,1,1]; new baseline over 7 blocks: [0,0,0,0,1,1,1].
        // Children of old block 1 (rank 0) land on ranks 0,0,0,1; old blocks
        // 2,3 (rank 1) stay on rank 1.
        let m = report.migration.expect("the delta enables accounting");
        assert_eq!(m.moved, 1);
        assert_eq!(m.max_rank_flow, 1);

        // Merging the children back charges each old block once: old 1..=4
        // (ranks 0,0,0,1) ship to the parent's rank 0, old 5,6 stay on 1.
        let merge = delta(
            vec![
                same(0),
                coarsened(1),
                coarsened(1),
                coarsened(1),
                coarsened(1),
                same(2),
                same(3),
            ],
            4,
        );
        let report = engine
            .rebalance_with(&Baseline, &c4, 2, None, Some(&merge))
            .unwrap();
        let m = report.migration.unwrap();
        assert_eq!((m.moved, m.max_rank_flow), (1, 1));

        // Without a delta the change is unaccountable.
        let c5 = vec![1.0; 5];
        let report = engine.rebalance(&Baseline, &c5, 2).unwrap();
        assert!(report.migration.is_none());
    }

    /// A delta whose ids do not tile the new blocks — out of range, named
    /// twice, or describing another mesh — is stale: no migration, a cold
    /// order, never a panic; the placement itself is unaffected.
    #[test]
    fn malformed_delta_clears_the_warm_order_and_migration() {
        let c4 = costs(4);
        let c5 = costs(5);
        let malformed = [
            delta(vec![same(0), refined(1, 2), same(9), same(3)], 5),
            delta(vec![same(0), same(0), refined(1, 2), same(4)], 5),
            delta(vec![same(0), refined(1, 2), coarsened(3), coarsened(3)], 5),
            delta(vec![coarsened(0), same(1), coarsened(0), refined(2, 3)], 5),
            delta(vec![same(0), refined(1, 2), same(3)], 5),
            delta(vec![same(0), refined(1, 3), same(4), same(5)], 6),
        ];
        for d in &malformed {
            let mut engine = PlacementEngine::new();
            engine.rebalance(&Lpt, &c4, 2).unwrap();
            let report = engine.rebalance_with(&Baseline, &c5, 2, None, Some(d));
            let report = report.unwrap();
            assert_eq!(report.migration, None, "{d:?}");
            assert!(engine.scratch().lpt_full_order.borrow().is_empty());
            assert_eq!(engine.placement().unwrap(), &Baseline.place(&c5, 2));
        }
    }

    #[test]
    fn typed_errors_surface() {
        let mut engine = PlacementEngine::new();
        assert_eq!(
            engine.rebalance(&Lpt, &[1.0], 0),
            Err(PlacementError::NoRanks)
        );
        let err = engine.rebalance(&Lpt, &[1.0, f64::NAN], 2).unwrap_err();
        assert!(matches!(err, PlacementError::BadCost { block: 1, .. }));
        // Failed rebalances leave the engine unprimed.
        assert!(engine.placement().is_none());
        // And a later valid one still works.
        engine.rebalance(&Lpt, &[1.0, 2.0], 2).unwrap();
        assert!(engine.placement().is_some());
    }

    #[test]
    fn error_display_matches_legacy_messages() {
        assert_eq!(
            PlacementError::NoRanks.to_string(),
            "need at least one rank"
        );
        assert!(PlacementError::BadCost {
            block: 0,
            value: -1.0
        }
        .to_string()
        .contains("block costs must be finite and non-negative"));
        assert!(PlacementError::RankOutOfRange {
            block: 1,
            rank: 3,
            num_ranks: 3
        }
        .to_string()
        .contains("rank out of range"));
    }

    #[test]
    fn reset_forgets_prev() {
        let c = costs(32);
        let mut engine = PlacementEngine::new();
        engine.rebalance(&Lpt, &c, 4).unwrap();
        engine.reset();
        assert!(engine.placement().is_none());
        let report = engine.rebalance(&Lpt, &c, 4).unwrap();
        assert!(report.migration.is_none());
    }

    #[test]
    fn report_imbalance_consistent_with_placement() {
        let c = costs(50);
        let mut engine = PlacementEngine::new();
        let report = engine.rebalance(&Cdp, &c, 7).unwrap();
        let p = engine.placement().unwrap();
        assert!((report.imbalance - p.imbalance(&c)).abs() < 1e-12);
        assert_eq!(report.makespan, p.makespan(&c));
    }

    #[test]
    fn carry_lpt_full_order_walks_the_previous_order() {
        let s = Scratch::new();
        // Previous sorted order visits old blocks 2, 0, 1. Old 0 splits into
        // new 0,1; old 1 -> new 2; old 2 -> new 3. New blocks take their old
        // block's place: old 2 first, old 0's children second, old 1 last.
        *s.lpt_full_order.borrow_mut() = vec![2, 0, 1];
        let split = delta(vec![refined(0, 2), same(2), same(3)], 4);
        s.carry_lpt_full_order(Some(&split));
        assert_eq!(&*s.lpt_full_order.borrow(), &[3, 0, 1, 2]);

        // A merged parent takes its family's first member's slot.
        *s.lpt_full_order.borrow_mut() = vec![4, 3, 1, 0, 2];
        let merge = delta(
            vec![coarsened(0); 4].into_iter().chain([same(1)]).collect(),
            2,
        );
        s.carry_lpt_full_order(Some(&merge));
        assert_eq!(&*s.lpt_full_order.borrow(), &[1, 0]);

        // A stale order (another length) is cleared, not misused…
        *s.lpt_full_order.borrow_mut() = vec![0, 1];
        s.carry_lpt_full_order(Some(&split));
        assert!(s.lpt_full_order.borrow().is_empty());
        // …and so is any order when the delta is stale.
        *s.lpt_full_order.borrow_mut() = vec![0, 1, 2];
        s.carry_lpt_full_order(None);
        assert!(s.lpt_full_order.borrow().is_empty());
    }

    #[test]
    fn warm_lpt_order_survives_block_count_change() {
        let c1 = costs(64);
        let mut engine = PlacementEngine::new();
        engine.rebalance(&Lpt, &c1, 4).unwrap();
        assert_eq!(engine.scratch().lpt_full_order.borrow().len(), 64);

        // "Refine" block 3 into 8 children; everything else carries over.
        let mut remap = Vec::new();
        let mut c2 = Vec::new();
        for (i, &c) in c1.iter().enumerate() {
            if i == 3 {
                remap.push(refined(c2.len() as u32, 8));
                c2.extend([c / 8.0; 8]);
            } else {
                remap.push(same(c2.len() as u32));
                c2.push(c);
            }
        }
        let d = delta(remap, c2.len());
        let warm = engine.rebalance_with(&Lpt, &c2, 4, None, Some(&d)).unwrap();
        // The carried order is a valid permutation of the new index space…
        let mut sorted = engine.scratch().lpt_full_order.borrow().clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..c2.len()).collect::<Vec<_>>());
        // …and the warm solve matches a cold LPT exactly.
        assert_eq!(warm.makespan, Lpt.place(&c2, 4).makespan(&c2));
    }
}
