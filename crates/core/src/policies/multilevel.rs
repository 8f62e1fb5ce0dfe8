//! Multilevel k-way graph partitioning — the real challenger to CPLX.
//!
//! [`GreedyEdgeCut`](super::GreedyEdgeCut) is the paper's §VIII strawman: a
//! one-shot greedy whose cut quality decays as the mesh grows. This module
//! is the production-shaped family (METIS/Scotch lineage) built from
//! scratch on the CSR [`NeighborGraph`]:
//!
//! 1. **Coarsening** — heavy-edge matching (HEM): each vertex proposes its
//!    heaviest-weight neighbor (a pure per-vertex function of the graph, so
//!    the proposal sweep fans out over the [`WorkerPool`] with contiguous
//!    vertex ranges and [`Disjoint`] slot writes), then a serial in-order
//!    resolution pass matches mutually-unmatched pairs. Matched pairs
//!    contract to one coarse vertex (weights summed, parallel edges merged)
//!    until the graph is small or matching stalls.
//! 2. **Initial partition** — the shared greedy cut seeding
//!    (`cut::greedy_cut_partition`'s semantics, stamp-sparse gains) on the
//!    coarsest graph, under the balance cap `mean · slack`.
//! 3. **Uncoarsening + FM refinement** — project the assignment one level
//!    finer (cut-invariant: intra-pair edges are internal by construction)
//!    and run boundary refinement with **per-move gain buckets**: boundary
//!    vertices are bucketed by the float exponent of their best positive
//!    move gain, popped highest-bucket-first with lazy re-validation, and
//!    each applied move re-buckets its neighbors — the Fiduccia–Mattheyses
//!    discipline, restricted to positive-gain moves so the cut decreases
//!    monotonically and termination is by construction.
//!
//! Edge weights are the shared [`CutWeights`]: topological message sizes,
//! or — the point of this family — *observed* per-relation exchange bytes
//! from the simulator's ledger ([`PlacementCtx::edge_weights`]), optimizing
//! measured traffic instead of the static model the paper shows correlates
//! poorly with runtime communication.
//!
//! Two fast paths keep the engine's steady state cheap: graphs at or below
//! [`Multilevel::greedy_threshold`] delegate to the shared greedy verbatim
//! (bitwise-equal to `GreedyEdgeCut`, pinned by proptest), and a **warm
//! start** refines the engine's previous placement in place when the block
//! count is unchanged — no coarsening, zero allocations against a warmed
//! [`MlScratch`] (proved in the zero-alloc suite).
//!
//! **Determinism:** every order is an index order, every tie-break total
//! (higher weight, then lower id); the pooled proposal sweep writes each
//! slot from exactly one task and reads only the immutable level graph, so
//! thread count never changes the result.

use super::cut::{greedy_cut_partition, CutWeights};
use super::PlacementPolicy;
use crate::engine::{PlacementCtx, PlacementError, PlacementReport};
use crate::placement::Placement;
use amr_mesh::pool::{task_range, Disjoint, WorkerPool};
use amr_mesh::{AmrMesh, NeighborGraph};

const UNSET: u32 = u32::MAX;
/// Gain buckets indexed by the biased exponent of the (positive, finite)
/// f64 move gain — 2048 slots cover the full exponent range, so bucket
/// order is exactly gain magnitude order without any float comparison.
const GAIN_BUCKETS: usize = 2048;
/// Pooled proposal sweeps only pay off past this vertex count.
const PARALLEL_MIN_VERTICES: usize = 4096;

/// Multilevel k-way partitioner with observed-weight support.
pub struct Multilevel {
    /// Per-rank load cap as a multiple of the mean load (1.05 = 5% slack).
    pub balance_slack: f64,
    /// FM refinement passes per uncoarsening level (and greedy refinement
    /// sweeps on the delegated small-graph path).
    pub refine_passes: usize,
    /// Graphs with at most this many vertices skip the multilevel pipeline
    /// and run the shared greedy directly (identical to `GreedyEdgeCut`).
    pub greedy_threshold: usize,
    /// Stop coarsening once the graph has at most
    /// `max(coarsest_per_rank · num_ranks, greedy_threshold)` vertices.
    pub coarsest_per_rank: usize,
    /// Worker pool the HEM proposal sweeps run on.
    exec: WorkerPool,
}

impl std::fmt::Debug for Multilevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Multilevel")
            .field("balance_slack", &self.balance_slack)
            .field("refine_passes", &self.refine_passes)
            .field("greedy_threshold", &self.greedy_threshold)
            .field("coarsest_per_rank", &self.coarsest_per_rank)
            .field("threads", &self.exec.threads())
            .finish()
    }
}

impl Default for Multilevel {
    fn default() -> Self {
        Multilevel {
            balance_slack: 1.05,
            refine_passes: 2,
            greedy_threshold: 128,
            coarsest_per_rank: 4,
            exec: WorkerPool::new(1),
        }
    }
}

impl Multilevel {
    pub fn new() -> Multilevel {
        Multilevel::default()
    }

    /// Run the HEM proposal sweeps on `threads` OS threads.
    /// Matching resolution, contraction, and refinement stay serial — they
    /// are the cheap, order-sensitive parts; the result is identical at any
    /// thread count.
    pub fn with_threads(mut self, threads: usize) -> Multilevel {
        self.exec = WorkerPool::new(threads);
        self
    }

    /// Convenience wrapper: build a mesh-attached context and place.
    /// Panics on invalid inputs; use
    /// [`place_into`](PlacementPolicy::place_into) for typed errors.
    pub fn place_on_mesh(&self, mesh: &AmrMesh, costs: &[f64], num_ranks: usize) -> Placement {
        let ctx = PlacementCtx::new(costs, num_ranks).with_mesh(mesh);
        let mut out = Placement::new(Vec::new(), 1);
        match self.place_into(&ctx, &mut out) {
            Ok(_) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// Like [`place_into`](PlacementPolicy::place_into), but records
    /// per-level pipeline statistics (vertex counts, caps, loads, cut before
    /// and after refinement) for tests and benches. Always runs the cold
    /// pipeline — stats describe coarsening, which the warm path skips.
    pub fn place_with_stats(
        &self,
        ctx: &PlacementCtx,
        out: &mut Placement,
    ) -> Result<(PlacementReport, MlStats), PlacementError> {
        let mut stats = MlStats::default();
        let report = self.place_inner(ctx, out, false, Some(&mut stats))?;
        Ok((report, stats))
    }
}

/// Per-level pipeline telemetry from [`Multilevel::place_with_stats`].
#[derive(Debug, Default, Clone)]
pub struct MlStats {
    /// Whether the warm refine-only path ran (no coarsening).
    pub warm: bool,
    /// Whether the small-graph greedy delegation ran.
    pub delegated_greedy: bool,
    /// Whether observed edge weights (vs topological) were used.
    pub used_observed: bool,
    /// One entry per level, finest (0) to coarsest.
    pub levels: Vec<MlLevelStat>,
    /// Weighted cut of the final level-0 assignment.
    pub final_cut: u128,
}

/// One coarsening level's record.
#[derive(Debug, Default, Clone, Copy)]
pub struct MlLevelStat {
    /// Vertices at this level.
    pub vertices: usize,
    /// Directed relations at this level.
    pub relations: usize,
    /// Balance cap applied at this level (`mean load · slack`).
    pub cap: f64,
    /// Heaviest single vertex at this level (granularity bound).
    pub max_vwgt: f64,
    /// Max per-rank load after this level's refinement.
    pub max_load: f64,
    /// Cut when the assignment arrived at this level: projected from the
    /// coarser level, or (coarsest level) straight from the initial greedy.
    pub cut_arrived: u128,
    /// Cut after this level's FM passes.
    pub cut_refined: u128,
}

/// Reusable multilevel arena: one per [`Scratch`](crate::engine::Scratch)
/// (the engine threads it through automatically), so warm repartitions
/// allocate nothing once every buffer has grown to its working size.
#[derive(Debug, Default)]
pub struct MlScratch {
    levels: Vec<MlLevel>,
    /// Per-rank loads for the level currently being partitioned/refined.
    loads: Vec<f64>,
    /// Stamp-sparse per-rank gain accumulator (`mark`/`acc`/`touched`).
    mark: Vec<u32>,
    acc: Vec<f64>,
    touched: Vec<u32>,
    stamp: u32,
    /// Double-buffered per-vertex assignments during uncoarsening.
    assign_a: Vec<u32>,
    assign_b: Vec<u32>,
    /// FM gain buckets (exponent-indexed) + membership flags.
    buckets: Vec<Vec<u32>>,
    in_queue: Vec<u8>,
    /// Coarse-construction scratch: first/second member per coarse vertex,
    /// last-seen stamp and edge slot per coarse neighbor.
    cfirst: Vec<u32>,
    csecond: Vec<u32>,
    cmark: Vec<u32>,
    cslot: Vec<u32>,
    cstamp: u32,
    /// Descending-weight vertex order for the coarsest-level seeding.
    order: Vec<u32>,
}

/// One level's working graph (CSR with u64 symmetrized edge weights) plus
/// the matching state used to build the next-coarser level.
#[derive(Debug, Default)]
struct MlLevel {
    n: usize,
    xadj: Vec<u32>,
    adjncy: Vec<u32>,
    adjwgt: Vec<u64>,
    vwgt: Vec<f64>,
    /// Fine vertex → coarse vertex of the *next* level.
    cmap: Vec<u32>,
    /// Matching partner (self for singletons).
    matched: Vec<u32>,
    /// Heaviest-neighbor proposal (pooled sweep output).
    proposal: Vec<u32>,
}

impl MlLevel {
    fn row(&self, v: usize) -> std::ops::Range<usize> {
        self.xadj[v] as usize..self.xadj[v + 1] as usize
    }
}

impl PlacementPolicy for Multilevel {
    fn name(&self) -> String {
        "ml-kway".into()
    }

    fn place_into(
        &self,
        ctx: &PlacementCtx,
        out: &mut Placement,
    ) -> Result<PlacementReport, PlacementError> {
        self.place_inner(ctx, out, true, None)
    }
}

impl Multilevel {
    fn place_inner(
        &self,
        ctx: &PlacementCtx,
        out: &mut Placement,
        allow_warm: bool,
        mut stats: Option<&mut MlStats>,
    ) -> Result<PlacementReport, PlacementError> {
        ctx.validate()?;
        let costs = ctx.costs();
        let k = ctx.num_ranks();
        let n = costs.len();

        // Resolve the graph: prefer the caller's (the engine's cached epoch
        // graph), else the mesh's own (built and kept on first use). A
        // policy without either input cannot see connectivity at all.
        let built;
        let graph = match (ctx.graph(), ctx.mesh()) {
            (Some(g), _) => g,
            (None, Some(m)) => {
                if m.num_blocks() != n {
                    return Err(PlacementError::BlockCountMismatch {
                        mesh_blocks: m.num_blocks(),
                        cost_blocks: n,
                    });
                }
                built = m.neighbor_graph();
                &built
            }
            (None, None) => {
                return Err(PlacementError::NeedsMesh {
                    policy: self.name(),
                })
            }
        };
        if graph.num_blocks() != n {
            return Err(PlacementError::BlockCountMismatch {
                mesh_blocks: graph.num_blocks(),
                cost_blocks: n,
            });
        }
        // Stale observations (relation count mismatch) degrade to the
        // topological model rather than mis-weighting edges; the no-mesh,
        // no-observation corner (graph-only context) weighs every relation
        // equally — a rare path, so its unit-weight slice may allocate.
        let observed = ctx
            .edge_weights()
            .filter(|w| w.len() == graph.total_relations());
        let unit_store;
        let weights = match (observed, ctx.mesh()) {
            (Some(w), _) => CutWeights::Observed(w),
            (None, Some(m)) => CutWeights::topological(m),
            (None, None) => {
                unit_store = vec![1u64; graph.total_relations()];
                CutWeights::Observed(&unit_store)
            }
        };
        if let Some(s) = stats.as_deref_mut() {
            s.used_observed = observed.is_some();
        }

        let assignment = out.reset(k);
        assignment.clear();
        if n == 0 {
            return Ok(ctx.finish(out));
        }

        // Scratch: the engine's arena when attached, else a local one.
        let mut local = None;
        let mut engine_ml;
        let ml: &mut MlScratch = match ctx.scratch() {
            Some(s) => {
                engine_ml = s.ml.borrow_mut();
                &mut engine_ml
            }
            None => local.insert(MlScratch::default()),
        };

        // Small graphs: the multilevel machinery cannot beat a direct
        // greedy, so delegate — bitwise-identical to `GreedyEdgeCut` with
        // the same slack and sweep count (pinned by proptest). Checked
        // before the warm path so small graphs stay on the greedy code
        // path on every call, warm or cold.
        if n <= self.greedy_threshold {
            if let Some(s) = stats.as_deref_mut() {
                s.delegated_greedy = true;
            }
            greedy_cut_partition(
                costs,
                graph,
                &weights,
                k,
                self.balance_slack,
                self.refine_passes,
                assignment,
                &mut ml.loads,
            );
            if let Some(s) = stats.as_deref_mut() {
                s.final_cut = level_free_cut(graph, &weights, assignment);
            }
            return Ok(ctx.finish(out));
        }

        // Warm start: same block and rank count as the previous placement —
        // seed from it and refine in place, skipping coarsening entirely.
        if allow_warm {
            if let Some(prev) = ctx.prev() {
                if prev.num_blocks() == n && prev.num_ranks() == k {
                    if let Some(s) = stats.as_deref_mut() {
                        s.warm = true;
                    }
                    self.warm_refine(graph, &weights, costs, k, prev, assignment, ml);
                    if let Some(s) = stats.as_deref_mut() {
                        s.final_cut = level_cut(&ml.levels[0], assignment);
                    }
                    return Ok(ctx.finish(out));
                }
            }
        }

        self.cold_pipeline(graph, &weights, costs, k, assignment, ml, stats);
        Ok(ctx.finish(out))
    }

    /// The full coarsen → seed → uncoarsen+refine pipeline.
    #[allow(clippy::too_many_arguments)]
    fn cold_pipeline(
        &self,
        graph: &NeighborGraph,
        weights: &CutWeights,
        costs: &[f64],
        k: usize,
        assignment: &mut Vec<u32>,
        ml: &mut MlScratch,
        mut stats: Option<&mut MlStats>,
    ) {
        let n = costs.len();
        build_level0(graph, weights, costs, ml);

        // --- Coarsening ------------------------------------------------
        let coarsest_target = (self.coarsest_per_rank * k).max(self.greedy_threshold);
        let mut levels_used = 1usize;
        loop {
            let cur_n = ml.levels[levels_used - 1].n;
            if cur_n <= coarsest_target || levels_used >= 48 {
                break;
            }
            let coarse_n = self.coarsen_once(ml, levels_used - 1);
            // Matching stalled (heavy self-similarity): stop rather than
            // spin on near-identical levels.
            if coarse_n * 20 > cur_n * 19 {
                break;
            }
            levels_used += 1;
        }

        // --- Initial partition on the coarsest level -------------------
        let total: f64 = costs.iter().sum();
        let cap = (total / k as f64) * self.balance_slack;
        let coarsest = levels_used - 1;
        initial_partition(ml, coarsest, k, cap);

        // --- Uncoarsening + FM refinement ------------------------------
        // `assign_a` holds the current level's assignment throughout.
        for lvl in (0..levels_used).rev() {
            if lvl < levels_used - 1 {
                project_assignment(ml, lvl);
            }
            let arrived = stats
                .as_deref_mut()
                .map(|_| level_cut(&ml.levels[lvl], &ml.assign_a));
            for _ in 0..self.refine_passes.max(1) {
                let moved = fm_refine_pass(ml, lvl, k, cap);
                if moved == 0 {
                    break;
                }
            }
            if let Some(s) = stats.as_deref_mut() {
                let level = &ml.levels[lvl];
                let max_load = ml.loads.iter().cloned().fold(0.0f64, f64::max);
                let max_vwgt = level.vwgt.iter().cloned().fold(0.0f64, f64::max);
                s.levels.push(MlLevelStat {
                    vertices: level.n,
                    relations: level.adjncy.len(),
                    cap,
                    max_vwgt,
                    max_load,
                    cut_arrived: arrived.unwrap_or(0),
                    cut_refined: level_cut(level, &ml.assign_a),
                });
            }
        }
        if let Some(s) = stats {
            // Stats were pushed coarsest-last while walking fine→...; the
            // loop above walks coarsest→finest, so reverse into finest-first.
            s.levels.reverse();
            s.final_cut = level_cut(&ml.levels[0], &ml.assign_a);
        }

        assignment.clear();
        assignment.extend_from_slice(&ml.assign_a[..n]);
    }

    /// Warm path: seed from the previous placement, repair any cap
    /// violations (cost drift), then run FM passes on the flat graph.
    /// Allocation-free against warmed scratch.
    #[allow(clippy::too_many_arguments)]
    fn warm_refine(
        &self,
        graph: &NeighborGraph,
        weights: &CutWeights,
        costs: &[f64],
        k: usize,
        prev: &Placement,
        assignment: &mut Vec<u32>,
        ml: &mut MlScratch,
    ) {
        let n = costs.len();
        // Rebuild the level-0 working graph only if the topology changed
        // shape since the last cold run; same-shape graphs refresh weights
        // in place (same relation count ⇒ same buffers).
        build_level0(graph, weights, costs, ml);

        assignment.clear();
        assignment.extend_from_slice(prev.as_slice());
        ml.assign_a.clear();
        ml.assign_a.extend_from_slice(prev.as_slice());

        let total: f64 = costs.iter().sum();
        let cap = (total / k as f64) * self.balance_slack;
        ml.loads.clear();
        ml.loads.resize(k, 0.0);
        // The previous placement may have come from a different policy, so
        // the connectivity-scan buffers can't be assumed sized from a prior
        // cold run here.
        ml.mark.clear();
        ml.mark.resize(k, 0);
        ml.acc.clear();
        ml.acc.resize(k, 0.0);
        for (v, &r) in ml.assign_a.iter().enumerate() {
            ml.loads[r as usize] += costs[v];
        }

        // Balance repair: shed vertices from over-cap ranks toward their
        // best-connected feasible rank (least-loaded fallback) until every
        // rank fits or the repair stops making progress.
        for _ in 0..8 {
            if !ml.loads.iter().any(|&l| l > cap) {
                break;
            }
            let mut repaired = false;
            for v in 0..n {
                let cur = ml.assign_a[v] as usize;
                if ml.loads[cur] <= cap {
                    continue;
                }
                let (target, _) = best_move_target(ml, 0, v, cur, k, cap, true);
                if let Some(t) = target {
                    ml.loads[cur] -= ml.levels[0].vwgt[v];
                    ml.loads[t] += ml.levels[0].vwgt[v];
                    ml.assign_a[v] = t as u32;
                    repaired = true;
                }
            }
            if !repaired {
                break;
            }
        }

        for _ in 0..self.refine_passes.max(1) {
            if fm_refine_pass(ml, 0, k, cap) == 0 {
                break;
            }
        }
        assignment.clear();
        assignment.extend_from_slice(&ml.assign_a[..n]);
    }

    /// One HEM coarsening step from level `lvl` to `lvl + 1`. Returns the
    /// coarse vertex count.
    fn coarsen_once(&self, ml: &mut MlScratch, lvl: usize) -> usize {
        let n = ml.levels[lvl].n;

        // Phase 1 — heaviest-neighbor proposals. A pure per-vertex function
        // of the immutable level graph: pooled with contiguous vertex
        // ranges, each slot written by exactly one task (determinism does
        // not depend on the thread count).
        {
            let level = &mut ml.levels[lvl];
            level.proposal.clear();
            level.proposal.resize(n, UNSET);
            let (xadj, adjncy, adjwgt, proposal) = (
                &level.xadj,
                &level.adjncy,
                &level.adjwgt,
                &mut level.proposal,
            );
            let propose = |v: usize| -> u32 {
                let row = xadj[v] as usize..xadj[v + 1] as usize;
                let mut best = UNSET;
                let mut best_w = 0u64;
                for e in row {
                    let u = adjncy[e];
                    let w = adjwgt[e];
                    if u as usize == v {
                        continue;
                    }
                    if best == UNSET || w > best_w || (w == best_w && u < best) {
                        best = u;
                        best_w = w;
                    }
                }
                best
            };
            // Below the threshold the sweep is one task (run inline).
            let t_n = if n >= PARALLEL_MIN_VERTICES {
                self.exec.tasks_for(n)
            } else {
                1
            };
            let out = Disjoint::new(proposal);
            self.exec.run(t_n, |t| {
                let own = task_range(t, t_n, n);
                // SAFETY: `task_range` tiles `0..n`, so tasks own
                // pairwise-disjoint vertex ranges.
                let out = unsafe { out.slice(own.start, own.end) };
                for (slot, v) in out.iter_mut().zip(own) {
                    *slot = propose(v);
                }
            });
        }

        // Phase 2 — serial in-order resolution: match v with its proposal
        // when both are free; otherwise fall back to v's heaviest still-free
        // neighbor. Identical regardless of how phase 1 was scheduled.
        let mut coarse_n = 0u32;
        {
            let level = &mut ml.levels[lvl];
            level.matched.clear();
            level.matched.resize(n, UNSET);
            level.cmap.clear();
            level.cmap.resize(n, UNSET);
            ml.cfirst.clear();
            ml.csecond.clear();
            for v in 0..n {
                if level.matched[v] != UNSET {
                    continue;
                }
                let mut partner = UNSET;
                let p = level.proposal[v];
                if p != UNSET && level.matched[p as usize] == UNSET {
                    partner = p;
                } else {
                    // Heaviest unmatched neighbor, ties to lower id.
                    let mut best_w = 0u64;
                    for e in level.row(v) {
                        let u = level.adjncy[e];
                        if u as usize == v || level.matched[u as usize] != UNSET {
                            continue;
                        }
                        let w = level.adjwgt[e];
                        if partner == UNSET || w > best_w || (w == best_w && u < partner) {
                            partner = u;
                            best_w = w;
                        }
                    }
                }
                let cv = coarse_n;
                coarse_n += 1;
                level.matched[v] = if partner == UNSET { v as u32 } else { partner };
                level.cmap[v] = cv;
                ml.cfirst.push(v as u32);
                if partner != UNSET {
                    level.matched[partner as usize] = v as u32;
                    level.cmap[partner as usize] = cv;
                    ml.csecond.push(partner);
                } else {
                    ml.csecond.push(UNSET);
                }
            }
        }
        let coarse_n = coarse_n as usize;

        // Phase 3 — contraction: coarse vertex weights sum their members',
        // parallel edges merge by summing weights (stamp-dedup per row).
        if ml.levels.len() <= lvl + 1 {
            ml.levels.push(MlLevel::default());
        }
        let (fine_slice, coarse_slice) = ml.levels.split_at_mut(lvl + 1);
        let fine = &fine_slice[lvl];
        let coarse = &mut coarse_slice[0];
        coarse.n = coarse_n;
        coarse.xadj.clear();
        coarse.adjncy.clear();
        coarse.adjwgt.clear();
        coarse.vwgt.clear();
        ml.cmark.clear();
        ml.cmark.resize(coarse_n, 0);
        ml.cslot.clear();
        ml.cslot.resize(coarse_n, 0);
        ml.cstamp = 0;
        coarse.xadj.push(0);
        for cv in 0..coarse_n {
            ml.cstamp += 1;
            let stamp = ml.cstamp;
            let first = ml.cfirst[cv] as usize;
            let second = ml.csecond[cv];
            let mut vw = fine.vwgt[first];
            if second != UNSET {
                vw += fine.vwgt[second as usize];
            }
            coarse.vwgt.push(vw);
            let mut members = [first as u32, second];
            if second == UNSET {
                members[1] = first as u32; // iterate once below
            }
            let unique = if second == UNSET { 1 } else { 2 };
            for &m in members.iter().take(unique) {
                for e in fine.row(m as usize) {
                    let cu = fine.cmap[fine.adjncy[e] as usize];
                    if cu as usize == cv {
                        continue; // contracted-away internal edge
                    }
                    let w = fine.adjwgt[e];
                    if ml.cmark[cu as usize] != stamp {
                        ml.cmark[cu as usize] = stamp;
                        ml.cslot[cu as usize] = coarse.adjncy.len() as u32;
                        coarse.adjncy.push(cu);
                        coarse.adjwgt.push(w);
                    } else {
                        let slot = ml.cslot[cu as usize] as usize;
                        coarse.adjwgt[slot] = coarse.adjwgt[slot].saturating_add(w);
                    }
                }
            }
            coarse.xadj.push(coarse.adjncy.len() as u32);
        }
        coarse_n
    }
}

/// Materialize level 0 from the CSR graph: identical structure, symmetrized
/// `u64` weights (`w(a→b) + w(b→a)`, found by binary search on the sorted
/// neighbor row) so refinement gains account for both directions of every
/// relation, and per-vertex weights = block costs. In-place against warm
/// buffers; no allocation once capacities match.
fn build_level0(graph: &NeighborGraph, weights: &CutWeights, costs: &[f64], ml: &mut MlScratch) {
    let n = graph.num_blocks();
    if ml.levels.is_empty() {
        ml.levels.push(MlLevel::default());
    }
    let level = &mut ml.levels[0];
    level.n = n;
    level.xadj.clear();
    level.adjncy.clear();
    level.adjwgt.clear();
    level.vwgt.clear();
    level.vwgt.extend_from_slice(costs);
    level.xadj.push(0);
    for (block, nbs) in graph.iter() {
        let row = graph.row_start(block.index());
        for (j, nb) in nbs.iter().enumerate() {
            let w = weights.weight(row + j, nb);
            // Reverse relation: the symmetric graph guarantees it exists;
            // rows are sorted by block id, so binary search finds it.
            let back_row = graph.neighbors(nb.block);
            let rev = match back_row.binary_search_by_key(&block, |m| m.block) {
                Ok(i) => weights.weight(graph.row_start(nb.block.index()) + i, &back_row[i]),
                Err(_) => 0, // asymmetry only from a corrupt graph; degrade
            };
            level.adjncy.push(nb.block.index() as u32);
            level.adjwgt.push(w.saturating_add(rev));
        }
        level.xadj.push(level.adjncy.len() as u32);
    }
}

/// Greedy k-way seeding on the coarsest level: vertices in descending
/// weight order go to their best-connected rank under the cap (stamp-sparse
/// gains — O(degree) per vertex, never O(k)), falling back to the
/// least-loaded rank. Same decision rule as the shared greedy.
fn initial_partition(ml: &mut MlScratch, lvl: usize, k: usize, cap: f64) {
    let n = ml.levels[lvl].n;
    ml.order.clear();
    ml.order.extend(0..n as u32);
    {
        let vwgt = &ml.levels[lvl].vwgt;
        ml.order.sort_by(|&a, &b| {
            vwgt[b as usize]
                .total_cmp(&vwgt[a as usize])
                .then(a.cmp(&b))
        });
    }
    ml.assign_a.clear();
    ml.assign_a.resize(n, UNSET);
    ml.loads.clear();
    ml.loads.resize(k, 0.0);
    ml.mark.clear();
    ml.mark.resize(k, 0);
    ml.acc.clear();
    ml.acc.resize(k, 0.0);
    ml.stamp = 0;

    for i in 0..n {
        let v = ml.order[i] as usize;
        let level = &ml.levels[lvl];
        let vw = level.vwgt[v];
        ml.stamp += 1;
        let stamp = ml.stamp;
        ml.touched.clear();
        for e in level.row(v) {
            let a = ml.assign_a[level.adjncy[e] as usize];
            if a == UNSET {
                continue;
            }
            let r = a as usize;
            if ml.mark[r] != stamp {
                ml.mark[r] = stamp;
                ml.acc[r] = 0.0;
                ml.touched.push(a);
            }
            ml.acc[r] += level.adjwgt[e] as f64;
        }
        // Best connected feasible rank.
        let mut best: Option<usize> = None;
        let mut best_gain = 0.0f64;
        ml.touched.sort_unstable();
        for &r in &ml.touched {
            let r = r as usize;
            if ml.loads[r] + vw > cap {
                continue;
            }
            let g = ml.acc[r];
            let better = match best {
                None => true,
                Some(cur) => g > best_gain || (g == best_gain && ml.loads[r] < ml.loads[cur]),
            };
            if better {
                best = Some(r);
                best_gain = g;
            }
        }
        // No connected feasible rank: least-loaded feasible, else
        // least-loaded overall (the greedy's fallback).
        let target = best.unwrap_or_else(|| {
            let mut feasible: Option<usize> = None;
            let mut any = 0usize;
            for r in 0..k {
                if ml.loads[r] < ml.loads[any] {
                    any = r;
                }
                if ml.loads[r] + vw <= cap && feasible.is_none_or(|f| ml.loads[r] < ml.loads[f]) {
                    feasible = Some(r);
                }
            }
            feasible.unwrap_or(any)
        });
        ml.assign_a[v] = target as u32;
        ml.loads[target] += vw;
    }
}

/// Project `assign_a` (assignment of level `lvl + 1`) down to level `lvl`.
/// Cut-invariant: a contracted pair shares a coarse vertex, so both members
/// land on the same rank and every intra-pair edge stays internal — pinned
/// by the `uncoarsening_preserves_cut` proptest. Loads are unchanged
/// (vertex weights were summed exactly).
fn project_assignment(ml: &mut MlScratch, lvl: usize) {
    let n = ml.levels[lvl].n;
    ml.assign_b.clear();
    ml.assign_b.resize(n, UNSET);
    {
        let level = &ml.levels[lvl];
        for v in 0..n {
            ml.assign_b[v] = ml.assign_a[level.cmap[v] as usize];
        }
    }
    std::mem::swap(&mut ml.assign_a, &mut ml.assign_b);
}

/// Best feasible move target for vertex `v` (stamp-sparse connectivity
/// scan). With `allow_zero_gain`, a target is acceptable even when it
/// doesn't reduce the cut (balance repair); otherwise only strictly
/// positive-gain moves qualify. Returns `(target, gain)`.
fn best_move_target(
    ml: &mut MlScratch,
    lvl: usize,
    v: usize,
    cur: usize,
    k: usize,
    cap: f64,
    allow_zero_gain: bool,
) -> (Option<usize>, f64) {
    let level = &ml.levels[lvl];
    let vw = level.vwgt[v];
    ml.stamp += 1;
    let stamp = ml.stamp;
    ml.touched.clear();
    for e in level.row(v) {
        let a = ml.assign_a[level.adjncy[e] as usize];
        debug_assert_ne!(a, UNSET);
        let r = a as usize;
        if ml.mark[r] != stamp {
            ml.mark[r] = stamp;
            ml.acc[r] = 0.0;
            ml.touched.push(a);
        }
        ml.acc[r] += level.adjwgt[e] as f64;
    }
    let internal = if ml.mark[cur] == stamp {
        ml.acc[cur]
    } else {
        0.0
    };
    let mut best: Option<usize> = None;
    let mut best_gain = f64::NEG_INFINITY;
    ml.touched.sort_unstable();
    for &r in &ml.touched {
        let r = r as usize;
        if r == cur || ml.loads[r] + vw > cap {
            continue;
        }
        let gain = ml.acc[r] - internal;
        let better = match best {
            None => true,
            Some(cur_best) => {
                gain > best_gain || (gain == best_gain && ml.loads[r] < ml.loads[cur_best])
            }
        };
        if better {
            best = Some(r);
            best_gain = gain;
        }
    }
    match best {
        Some(r) if best_gain > 0.0 || allow_zero_gain => (Some(r), best_gain),
        _ if allow_zero_gain => {
            // Repair fallback: least-loaded feasible rank even if
            // disconnected from v.
            let mut feasible: Option<usize> = None;
            for r in 0..k {
                if r != cur
                    && ml.loads[r] + vw <= cap
                    && feasible.is_none_or(|f| ml.loads[r] < ml.loads[f])
                {
                    feasible = Some(r);
                }
            }
            (feasible, f64::NEG_INFINITY)
        }
        _ => (None, 0.0),
    }
}

/// Gain bucket for a strictly positive, finite f64 gain: its biased
/// exponent. Monotone in the gain, so bucket order is magnitude order.
#[inline]
fn bucket_of(gain: f64) -> usize {
    ((gain.to_bits() >> 52) & 0x7ff) as usize
}

/// One FM boundary pass with per-move gain buckets over level `lvl`:
/// bucket every positive-gain feasible boundary move by gain exponent, pop
/// highest-bucket-first with lazy re-validation, apply, and re-bucket the
/// moved vertex's neighbors. Only strictly positive gains are applied, so
/// the (symmetrized-weight) cut decreases monotonically. Returns the number
/// of applied moves.
fn fm_refine_pass(ml: &mut MlScratch, lvl: usize, k: usize, cap: f64) -> usize {
    let n = ml.levels[lvl].n;
    if ml.buckets.len() < GAIN_BUCKETS {
        ml.buckets.resize_with(GAIN_BUCKETS, Vec::new);
    }
    for b in &mut ml.buckets {
        b.clear();
    }
    ml.in_queue.clear();
    ml.in_queue.resize(n, 0);
    ml.mark.clear();
    ml.mark.resize(k, 0);
    ml.acc.clear();
    ml.acc.resize(k, 0.0);
    // Note: `stamp` continues across calls; wrap is unreachable (u32 stamps,
    // fresh mark arrays per pass).

    let mut hi = 0usize;
    for v in 0..n {
        let cur = ml.assign_a[v] as usize;
        let (target, gain) = best_move_target(ml, lvl, v, cur, k, cap, false);
        if target.is_some() {
            let b = bucket_of(gain);
            ml.buckets[b].push(v as u32);
            ml.in_queue[v] = 1;
            hi = hi.max(b);
        }
    }

    let mut moves = 0usize;
    let mut pops = 0usize;
    let pop_budget = 8 * n + 64;
    loop {
        while hi > 0 && ml.buckets[hi].is_empty() {
            hi -= 1;
        }
        if ml.buckets[hi].is_empty() {
            break;
        }
        let v = ml.buckets[hi].pop().unwrap() as usize;
        ml.in_queue[v] = 0;
        pops += 1;
        if pops > pop_budget {
            break; // safety valve; unreachable in practice
        }
        let cur = ml.assign_a[v] as usize;
        let (target, gain) = best_move_target(ml, lvl, v, cur, k, cap, false);
        let Some(t) = target else { continue };
        let b = bucket_of(gain);
        if b != hi && !ml.buckets[b].is_empty() || b > hi {
            // Stale gain landed in the wrong bucket: requeue at the right
            // priority and keep draining in magnitude order.
            ml.buckets[b].push(v as u32);
            ml.in_queue[v] = 1;
            hi = hi.max(b);
            continue;
        }
        // Apply.
        let vw = ml.levels[lvl].vwgt[v];
        ml.loads[cur] -= vw;
        ml.loads[t] += vw;
        ml.assign_a[v] = t as u32;
        moves += 1;
        // Neighbors' best moves changed: re-bucket any not already queued.
        let row = ml.levels[lvl].row(v);
        for e in row {
            let u = ml.levels[lvl].adjncy[e] as usize;
            if ml.in_queue[u] != 0 {
                continue;
            }
            let ucur = ml.assign_a[u] as usize;
            let (ut, ug) = best_move_target(ml, lvl, u, ucur, k, cap, false);
            if ut.is_some() {
                let ub = bucket_of(ug);
                ml.buckets[ub].push(u as u32);
                ml.in_queue[u] = 1;
                hi = hi.max(ub);
            }
        }
    }
    moves
}

/// Weighted directed cut of a level assignment (symmetrized weights count
/// each undirected edge twice — consistent across levels, which is all the
/// pipeline compares).
fn level_cut(level: &MlLevel, assign: &[u32]) -> u128 {
    let mut cut = 0u128;
    for v in 0..level.n {
        let a = assign[v];
        for e in level.row(v) {
            if assign[level.adjncy[e] as usize] != a {
                cut += level.adjwgt[e] as u128;
            }
        }
    }
    // Symmetrized weights double-count each direction; halve back to the
    // directed-relation scale used by `weighted_edge_cut`.
    cut / 2
}

/// Directed cut straight off the CSR graph (used by the greedy-delegation
/// path where no level graph was materialized).
fn level_free_cut(graph: &NeighborGraph, weights: &CutWeights, assign: &[u32]) -> u128 {
    let mut cut = 0u128;
    let mut entry = 0usize;
    for (block, nbs) in graph.iter() {
        let src = assign[block.index()];
        for n in nbs {
            if assign[n.block.index()] != src {
                cut += weights.weight(entry, n) as u128;
            }
            entry += 1;
        }
    }
    cut
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{edge_cut_bytes, GreedyEdgeCut, Lpt};
    use amr_mesh::{Dim, MeshConfig};

    fn big_mesh() -> AmrMesh {
        // 512 base blocks — comfortably past the greedy threshold.
        AmrMesh::new(MeshConfig::from_cells(Dim::D3, (128, 128, 128), 1))
    }

    fn costs(n: usize) -> Vec<f64> {
        (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.35).collect()
    }

    #[test]
    fn places_every_block_once() {
        let m = big_mesh();
        let c = costs(m.num_blocks());
        let p = Multilevel::default().place_on_mesh(&m, &c, 16);
        assert_eq!(p.num_blocks(), m.num_blocks());
        assert!(p.as_slice().iter().all(|&r| r < 16));
    }

    #[test]
    fn beats_lpt_on_cut_and_stays_balanced() {
        let m = big_mesh();
        let c = costs(m.num_blocks());
        let g = m.neighbor_graph();
        let ml = Multilevel::default().place_on_mesh(&m, &c, 16);
        let lpt = Lpt.place(&c, 16);
        assert!(
            edge_cut_bytes(&ml, &g, &m) < edge_cut_bytes(&lpt, &g, &m),
            "multilevel must cut less than locality-blind LPT"
        );
        let cap_factor = 1.05;
        let total: f64 = c.iter().sum();
        let cap = total / 16.0 * cap_factor;
        let max_c = c.iter().cloned().fold(0.0f64, f64::max);
        for (r, &load) in ml.rank_loads(&c).iter().enumerate() {
            assert!(
                load <= cap + max_c + 1e-9,
                "rank {r} load {load} beyond cap {cap} + granularity {max_c}"
            );
        }
    }

    #[test]
    fn beats_or_matches_greedy_cut_on_large_graphs() {
        let m = big_mesh();
        let c = costs(m.num_blocks());
        let g = m.neighbor_graph();
        let ml = Multilevel::default().place_on_mesh(&m, &c, 16);
        let greedy = GreedyEdgeCut::default().place_on_mesh(&m, &c, 16);
        assert!(
            edge_cut_bytes(&ml, &g, &m) <= edge_cut_bytes(&greedy, &g, &m),
            "multilevel cut {} must not exceed greedy cut {}",
            edge_cut_bytes(&ml, &g, &m),
            edge_cut_bytes(&greedy, &g, &m)
        );
    }

    #[test]
    fn deterministic_and_thread_invariant() {
        let m = big_mesh();
        let c = costs(m.num_blocks());
        let serial = Multilevel::default().place_on_mesh(&m, &c, 8);
        let serial2 = Multilevel::default().place_on_mesh(&m, &c, 8);
        let pooled = Multilevel::default()
            .with_threads(4)
            .place_on_mesh(&m, &c, 8);
        assert_eq!(serial, serial2);
        assert_eq!(serial, pooled, "thread count must not change the result");
    }

    #[test]
    fn small_graph_delegates_to_greedy_exactly() {
        let m = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (64, 64, 64), 1));
        assert!(m.num_blocks() <= 128);
        let c = costs(m.num_blocks());
        let ml = Multilevel::default().place_on_mesh(&m, &c, 8);
        let greedy = GreedyEdgeCut::default().place_on_mesh(&m, &c, 8);
        assert_eq!(ml, greedy);
    }

    #[test]
    fn warm_start_refines_previous_placement() {
        let m = big_mesh();
        let c = costs(m.num_blocks());
        let g = m.neighbor_graph();
        let policy = Multilevel::default();
        let mut engine = crate::engine::PlacementEngine::new();
        engine
            .rebalance_weighted(&policy, &c, 16, Some(&m), None, Some(&g), None)
            .unwrap();
        let cold = engine.placement().unwrap().clone();
        engine
            .rebalance_weighted(&policy, &c, 16, Some(&m), None, Some(&g), None)
            .unwrap();
        let warm = engine.placement().unwrap();
        // Warm refinement never worsens the cut of the placement it seeds
        // from, and with unchanged costs it must not blow the cap.
        assert!(edge_cut_bytes(warm, &g, &m) <= edge_cut_bytes(&cold, &g, &m));
        let report = engine
            .rebalance_weighted(&policy, &c, 16, Some(&m), None, Some(&g), None)
            .unwrap();
        assert!(report.migration.is_some());
    }

    #[test]
    fn observed_weights_beat_topological_on_observed_cut() {
        // Skew traffic: relations of the first half of blocks carry 100x
        // bytes. The observed-weight partition must cut fewer observed
        // bytes than the topological partition does.
        let m = big_mesh();
        let n = m.num_blocks();
        let c = vec![1.0f64; n];
        let g = m.neighbor_graph();
        let mut w = vec![0u64; g.total_relations()];
        let mut entry = 0usize;
        for (block, nbs) in g.iter() {
            for nb in nbs {
                let hot = block.index() < n / 2 && nb.block.index() < n / 2;
                w[entry] = if hot { 100_000 } else { 1_000 };
                entry += 1;
            }
        }
        let policy = Multilevel::default();
        let observed = {
            let ctx = PlacementCtx::new(&c, 16)
                .with_mesh(&m)
                .with_graph(&g)
                .with_edge_weights(&w);
            let mut out = Placement::new(Vec::new(), 1);
            policy.place_into(&ctx, &mut out).unwrap();
            out
        };
        let topo = policy.place_on_mesh(&m, &c, 16);
        let cut_w =
            |p: &Placement| crate::policies::weighted_edge_cut(p, &g, &CutWeights::Observed(&w));
        assert!(
            cut_w(&observed) <= cut_w(&topo),
            "optimizing observed bytes must not cut more observed bytes \
             ({} vs {})",
            cut_w(&observed),
            cut_w(&topo)
        );
    }

    #[test]
    fn stats_expose_monotone_refinement_and_projection_invariance() {
        let m = big_mesh();
        let c = costs(m.num_blocks());
        let g = m.neighbor_graph();
        let ctx = PlacementCtx::new(&c, 16).with_mesh(&m).with_graph(&g);
        let mut out = Placement::new(Vec::new(), 1);
        let (_, stats) = Multilevel::default()
            .place_with_stats(&ctx, &mut out)
            .unwrap();
        assert!(!stats.delegated_greedy);
        assert!(stats.levels.len() > 1, "coarsening must engage");
        for (i, lvl) in stats.levels.iter().enumerate() {
            assert!(
                lvl.cut_refined <= lvl.cut_arrived,
                "level {i}: refinement increased the cut"
            );
            assert!(
                lvl.max_load <= lvl.cap + lvl.max_vwgt + 1e-9,
                "level {i}: load {} beyond cap {} + granularity {}",
                lvl.max_load,
                lvl.cap,
                lvl.max_vwgt
            );
        }
        // Projection is cut-invariant: arriving cut at level l equals the
        // refined cut of level l+1.
        for w in stats.levels.windows(2) {
            assert_eq!(w[0].cut_arrived, w[1].cut_refined);
        }
    }

    #[test]
    fn empty_and_tiny_edge_cases() {
        let m = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (16, 16, 16), 0));
        let c = vec![1.0; m.num_blocks()];
        let p = Multilevel::default().place_on_mesh(&m, &c, 2);
        assert_eq!(p.num_blocks(), 1);
    }
}
