//! Two-stage hierarchical placement: shards onto nodes, then blocks onto
//! each node's ranks.
//!
//! A flat LPT over every block and every rank is a single global sort plus a
//! single global heap — fine at thousands of ranks, hopeless at the million-
//! rank scale extreme-scale BAMR frameworks run at, and exactly the regime
//! the AMReX dynamic load-balancing study targets with two-level (inter-node
//! then intra-node) balancing. [`Hierarchical`] splits placement the same
//! way:
//!
//! * **Stage 1 — shards → nodes.** The SFC-ordered block range is divided
//!   into `num_shards` contiguous shards (balanced by count, mirroring the
//!   key-space partition of `amr_mesh::ShardedMesh`). Shard costs are
//!   aggregated and shards are assigned to nodes as *contiguous runs* by
//!   balanced prefix cost — contiguity keeps SFC locality, which is where
//!   almost all inter-shard edges live — followed by a boundary-refinement
//!   sweep that shifts each node boundary while it lowers the two adjacent
//!   node loads, breaking exact ties toward the cut with the smaller
//!   inter-shard edge weight (computed from [`PlacementCtx::graph`] when the
//!   caller attaches one; zero otherwise).
//! * **Stage 2 — blocks → ranks, per node.** Each node's contiguous block
//!   span is placed onto the node's rank window with the existing zero-alloc
//!   LPT heap ([`lpt_heap`]), using per-node warm order buffers: a span
//!   whose bounds are unchanged since the previous call re-sorts a
//!   nearly-sorted order vector instead of rebuilding it, the same
//!   warm-order trick the flat engine uses.
//!
//! With `num_shards <= 1` the policy delegates verbatim to [`Lpt`], so the
//! flat engine remains the bitwise oracle (pinned by the cross-validation
//! property tests). All scratch lives in policy-owned pools behind a
//! `Mutex`, so steady-state rebalances allocate nothing (proved in
//! `crates/core/tests/zero_alloc_sharded.rs`) and the policy is
//! `Send + Sync`.

use super::lpt::{lpt_heap, Lpt, Slot};
use super::PlacementPolicy;
use crate::engine::{PlacementCtx, PlacementError, PlacementReport};
use crate::placement::Placement;
use amr_mesh::pool::{Disjoint, WorkerPool};
use std::sync::{Mutex, PoisonError};

/// Per-node stage-2 scratch: warm block order + heap storage.
#[derive(Debug, Default)]
struct NodePool {
    /// Span start the order vector was built for (warm-reuse key).
    base: usize,
    /// Span-local block indices, kept nearly sorted between calls.
    order: Vec<usize>,
    slots: Vec<Slot>,
}

/// Pooled scratch for both stages.
#[derive(Debug, Default)]
struct Pools {
    /// Aggregated cost per shard.
    shard_cost: Vec<f64>,
    /// `w_prev[s]`: directed relations between shard `s-1` and shard `s`
    /// (the cut weight of a node boundary placed at `s`); zero without a
    /// graph.
    w_prev: Vec<f64>,
    /// Shard span starts, `num_shards + 1` entries.
    spans: Vec<u32>,
    /// Node boundaries in shard space, `nodes + 1` entries.
    cuts: Vec<u32>,
    /// Stage-1 load per node.
    node_loads: Vec<f64>,
    nodes: Vec<NodePool>,
}

/// Two-stage hierarchical placement policy; see the module docs.
///
/// `ranks_per_node` is carried by the policy ([`PlacementCtx`] has no
/// topology input); construct it with the simulated machine's value.
#[derive(Debug)]
pub struct Hierarchical {
    num_shards: usize,
    ranks_per_node: usize,
    pools: Mutex<Pools>,
    /// Worker pool stage 2 runs on, one task per node (a one-thread pool
    /// runs them inline, in node order).
    exec: WorkerPool,
}

impl Hierarchical {
    /// Policy with `num_shards` SFC shards on a machine with
    /// `ranks_per_node` ranks per node.
    pub fn new(num_shards: usize, ranks_per_node: usize) -> Hierarchical {
        assert!(num_shards >= 1, "at least one shard");
        assert!(ranks_per_node >= 1, "at least one rank per node");
        Hierarchical {
            num_shards,
            ranks_per_node,
            pools: Mutex::new(Pools::default()),
            exec: WorkerPool::new(1),
        }
    }

    /// Run stage 2 (per-node LPT) on `threads` threads. Each node's
    /// span/rank-window subproblem is independent and writes only its own
    /// span of the assignment, so placements are bitwise identical at any
    /// thread count (pinned by `stage2_matches_golden_placements`).
    pub fn with_threads(mut self, threads: usize) -> Hierarchical {
        assert!(threads >= 1, "at least one thread");
        self.exec = WorkerPool::new(threads);
        self
    }

    /// Number of shards stage 1 partitions the block range into.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Stage 1: fill `pools.cuts` with a contiguous cost-balanced partition
    /// of the shards into `nodes` runs, then refine each boundary.
    fn assign_shards(pools: &mut Pools, nodes: usize) {
        let num_shards = pools.shard_cost.len();
        let total: f64 = pools.shard_cost.iter().sum();
        // Initial cuts: each shard goes to the node whose ideal cost segment
        // contains the shard's prefix-cost midpoint. Unlike a first-past-
        // target greedy this never chains an overshoot into a doubled node.
        pools.cuts.clear();
        pools.cuts.resize(nodes + 1, 0);
        let mut acc = 0.0;
        let mut prev_node = 0usize;
        for (s, &c) in pools.shard_cost.iter().enumerate() {
            let mid = acc + c * 0.5;
            let node = if total > 0.0 {
                (((mid / total) * nodes as f64) as usize).min(nodes - 1)
            } else {
                0
            }
            .max(prev_node);
            for cut in &mut pools.cuts[prev_node + 1..=node] {
                *cut = s as u32;
            }
            prev_node = node;
            acc += c;
        }
        for cut in &mut pools.cuts[prev_node + 1..=nodes] {
            *cut = num_shards as u32;
        }
        pools.cuts[nodes] = num_shards as u32;
        debug_assert_eq!(pools.cuts.len(), nodes + 1);

        // Node loads under the initial cuts.
        pools.node_loads.clear();
        for w in pools.cuts.windows(2) {
            let load: f64 = pools.shard_cost[w[0] as usize..w[1] as usize].iter().sum();
            pools.node_loads.push(load);
        }

        // Boundary refinement: shift a cut by one shard while it strictly
        // lowers the max of the two adjacent node loads; on an exact tie,
        // prefer the cut with the smaller inter-shard edge weight. The
        // (max-load, cut-weight) pair strictly decreases lexicographically
        // per accepted move, so the sweep terminates.
        for i in 1..nodes {
            loop {
                let c = pools.cuts[i] as usize;
                let (lo, hi) = (pools.cuts[i - 1] as usize, pools.cuts[i + 1] as usize);
                let (ll, lr) = (pools.node_loads[i - 1], pools.node_loads[i]);
                let old_max = ll.max(lr);
                let old_w = pools.w_prev.get(c).copied().unwrap_or(0.0);
                let mut best: Option<(usize, f64, f64, f64, f64)> = None;
                if c > lo {
                    let m = pools.shard_cost[c - 1];
                    let (nl, nr) = (ll - m, lr + m);
                    let w = pools.w_prev.get(c - 1).copied().unwrap_or(0.0);
                    if nl.max(nr) < old_max || (nl.max(nr) == old_max && w < old_w) {
                        best = Some((c - 1, nl, nr, nl.max(nr), w));
                    }
                }
                if c < hi {
                    let m = pools.shard_cost[c];
                    let (nl, nr) = (ll + m, lr - m);
                    let w = pools.w_prev.get(c + 1).copied().unwrap_or(0.0);
                    let candidate_max = nl.max(nr);
                    let beats_current =
                        candidate_max < old_max || (candidate_max == old_max && w < old_w);
                    let beats_best = match best {
                        None => beats_current,
                        Some((_, _, _, bm, bw)) => {
                            candidate_max < bm || (candidate_max == bm && w < bw)
                        }
                    };
                    if beats_current && beats_best {
                        best = Some((c + 1, nl, nr, candidate_max, w));
                    }
                }
                match best {
                    Some((nc, nl, nr, _, _)) => {
                        pools.cuts[i] = nc as u32;
                        pools.node_loads[i - 1] = nl;
                        pools.node_loads[i] = nr;
                    }
                    None => break,
                }
            }
        }
    }
}

impl PlacementPolicy for Hierarchical {
    fn name(&self) -> String {
        format!("hier-{}x{}", self.num_shards, self.ranks_per_node)
    }

    fn place_into(
        &self,
        ctx: &PlacementCtx,
        out: &mut Placement,
    ) -> Result<PlacementReport, PlacementError> {
        // One shard: the hierarchy is degenerate and the flat engine is the
        // specification — delegate verbatim (bitwise-identical placements).
        if self.num_shards <= 1 {
            return Lpt.place_into(ctx, out);
        }
        ctx.validate()?;
        let costs = ctx.costs();
        let n = costs.len();
        let r = ctx.num_ranks();
        let assignment = out.reset(r);
        assignment.clear();
        assignment.resize(n, 0);
        if n == 0 {
            return Ok(ctx.finish(out));
        }

        let num_shards = self.num_shards;
        let nodes = r.div_ceil(self.ranks_per_node);
        // Poison-tolerant: every buffer is rebuilt per call except the warm
        // per-node orders, which an interrupted sort leaves a permutation.
        let mut pools = self.pools.lock().unwrap_or_else(PoisonError::into_inner);
        let pools = &mut *pools;

        // Shard spans: contiguous count-balanced SFC ranges, the placement
        // mirror of `plan_shard_bounds`.
        pools.spans.clear();
        for s in 0..=num_shards {
            pools.spans.push((s * n / num_shards) as u32);
        }

        // Aggregate shard costs.
        pools.shard_cost.clear();
        for w in pools.spans.windows(2) {
            let c: f64 = costs[w[0] as usize..w[1] as usize].iter().sum();
            pools.shard_cost.push(c);
        }

        // Inter-shard edge weights between SFC-adjacent shards, when the
        // caller attached a neighbor graph (cut weights for stage 1's
        // boundary refinement).
        pools.w_prev.clear();
        pools.w_prev.resize(num_shards + 1, 0.0);
        if let Some(graph) = ctx.graph() {
            if graph.num_blocks() == n {
                let mut s = 0usize;
                for (b, row) in graph.iter() {
                    while b.index() >= pools.spans[s + 1] as usize {
                        s += 1;
                    }
                    for e in row {
                        let t = e.block.index();
                        // Only adjacent-shard edges weight a cut; distant
                        // edges are unaffected by shifting one boundary.
                        if t < pools.spans[s] as usize && t >= pools.spans[s.max(1) - 1] as usize {
                            pools.w_prev[s] += 1.0;
                        } else if t >= pools.spans[s + 1] as usize
                            && s + 2 <= num_shards
                            && t < pools.spans[s + 2] as usize
                        {
                            pools.w_prev[s + 1] += 1.0;
                        }
                    }
                }
            }
        }

        Hierarchical::assign_shards(pools, nodes);

        // Stage 2: per node, LPT its contiguous block span onto its rank
        // window with warm per-node order reuse. Node spans are disjoint, so
        // each task gets its own span of `assignment` (via `Disjoint`) and a
        // span-local view of `costs`; `lpt_heap` breaks sort ties by block
        // index, which the common rebasing shift leaves invariant.
        if pools.nodes.len() != nodes {
            pools.nodes.resize_with(nodes, NodePool::default);
        }
        let Pools {
            spans,
            cuts,
            nodes: node_pools,
            ..
        } = pools;
        let (spans, cuts) = (&*spans, &*cuts);
        let rpn = self.ranks_per_node;
        let out_spans = Disjoint::new(assignment);
        self.exec.run_with(node_pools, |i, pool| {
            let blo = spans[cuts[i] as usize] as usize;
            let bhi = spans[cuts[i + 1] as usize] as usize;
            if blo == bhi {
                return;
            }
            let r0 = i * rpn;
            let r1 = ((i + 1) * rpn).min(r);
            // SAFETY: cuts/spans are non-decreasing, so node block spans
            // are pairwise disjoint.
            let node_out = unsafe { out_spans.slice(blo, bhi) };
            if pool.base != blo || pool.order.len() != bhi - blo {
                pool.order.clear();
                pool.order.extend(0..bhi - blo);
                pool.base = blo;
            }
            pool.slots.clear();
            pool.slots
                .extend((r0 as u32..r1 as u32).map(|rank| Slot { load: 0.0, rank }));
            lpt_heap(&costs[blo..bhi], node_out, &mut pool.order, &mut pool.slots);
        });
        Ok(ctx.finish(out))
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::random_costs;
    use super::*;

    #[test]
    fn hierarchical_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Hierarchical>();
    }

    #[test]
    fn single_shard_matches_lpt_bitwise() {
        for n in [1usize, 7, 64, 513] {
            let costs = random_costs(n, n as u64);
            let hier = Hierarchical::new(1, 16);
            let a = hier.place(&costs, 16);
            let b = Lpt.place(&costs, 16);
            assert_eq!(a.as_slice(), b.as_slice());
        }
    }

    #[test]
    fn multi_shard_covers_all_blocks_and_respects_node_windows() {
        let costs = random_costs(640, 9);
        let hier = Hierarchical::new(8, 4);
        let r = 32; // 8 nodes of 4 ranks
        let p = hier.place(&costs, r);
        assert_eq!(p.as_slice().len(), 640);
        // Every block's rank is inside some node window, and blocks are
        // assigned node-contiguously along the SFC: the node id of the
        // owning rank is non-decreasing over the block range.
        let mut prev_node = 0usize;
        for &rank in p.as_slice() {
            assert!((rank as usize) < r);
            let node = rank as usize / 4;
            assert!(node >= prev_node, "node ids must be SFC-monotone");
            prev_node = node;
        }
    }

    #[test]
    fn hierarchical_makespan_is_close_to_flat_lpt() {
        let costs = random_costs(2048, 3);
        let r = 64;
        let hier = Hierarchical::new(4, 16).place(&costs, r);
        let flat = Lpt.place(&costs, r);
        let m_hier = hier.makespan(&costs);
        let m_flat = flat.makespan(&costs);
        // Two-stage placement trades a little makespan for locality and
        // scalability; it must stay within a modest factor of flat LPT.
        assert!(m_hier <= m_flat * 1.25, "hier {m_hier} vs flat {m_flat}");
    }

    #[test]
    fn deterministic_across_repeated_calls() {
        let costs = random_costs(300, 17);
        let hier = Hierarchical::new(6, 8);
        let a = hier.place(&costs, 24);
        let b = hier.place(&costs, 24);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    /// Placements pinned on the commit that still kept a global-index serial
    /// stage 2 beside the span-local pooled one: the reference for every
    /// thread count now that one span-local body serves them all.
    #[test]
    fn stage2_matches_golden_placements() {
        for threads in [1usize, 2, 3, 4] {
            let hier = Hierarchical::new(6, 8).with_threads(threads);
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            // Cold, warm, moved cuts, changed block count.
            for (seed, n) in [(17u64, 300usize), (17, 300), (23, 300), (5, 257)] {
                for &rank in hier.place(&random_costs(n, seed), 24).as_slice() {
                    h = (h ^ rank as u64).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            assert_eq!(h, 0x8b5e_85b5_e334_6e7c, "threads={threads}: got {h:#018x}");
        }
    }

    #[test]
    fn uneven_rank_count_clamps_last_node_window() {
        // 3 nodes of 16 would need 48 ranks; give 40 so the last window is
        // 8 ranks wide.
        let costs = random_costs(200, 5);
        let hier = Hierarchical::new(3, 16);
        let p = hier.place(&costs, 40);
        assert!(p.as_slice().iter().all(|&rk| (rk as usize) < 40));
    }
}
