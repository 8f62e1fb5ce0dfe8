//! Greedy edge-cut partitioning — the graph-partitioner family (parMETIS,
//! Zoltan hypergraph) the paper compares against in §VIII.
//!
//! Graph partitioners model communication as the number (or weight) of
//! edges crossing partition boundaries. The paper's finding: edge cuts are
//! "poorly correlated with runtime communication overhead" — the
//! `ablation_edgecut` experiment measures exactly that using this policy.
//!
//! The algorithm itself (deterministic greedy seeding + majority-move
//! refinement) lives in the shared [`cut`](super::cut) module so this policy
//! and the multilevel family ([`super::Multilevel`]) partition and score
//! through one implementation. When the context carries observed exchange
//! bytes ([`PlacementCtx::edge_weights`]) the greedy optimizes measured
//! traffic; otherwise it falls back to the static topological model the
//! paper critiques.

use super::cut::{greedy_cut_partition, CutWeights};
use super::PlacementPolicy;
use crate::engine::{PlacementCtx, PlacementError, PlacementReport};
use crate::placement::Placement;
use amr_mesh::AmrMesh;

pub use super::cut::edge_cut_bytes;

/// Greedy weighted-edge-cut partitioner with load cap.
#[derive(Debug, Clone, Copy)]
pub struct GreedyEdgeCut {
    /// Per-rank load cap as a multiple of the mean load (1.05 = 5% slack).
    pub balance_slack: f64,
    /// Number of cut-reduction refinement sweeps.
    pub refine_sweeps: usize,
}

impl Default for GreedyEdgeCut {
    fn default() -> Self {
        GreedyEdgeCut {
            balance_slack: 1.05,
            refine_sweeps: 2,
        }
    }
}

impl GreedyEdgeCut {
    /// Convenience wrapper: build a mesh-attached context and place.
    ///
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
}

impl PlacementPolicy for GreedyEdgeCut {
    fn name(&self) -> String {
        "edge-cut".into()
    }

    fn place_into(
        &self,
        ctx: &PlacementCtx,
        out: &mut Placement,
    ) -> Result<PlacementReport, PlacementError> {
        ctx.validate()?;
        let mesh = ctx.mesh().ok_or_else(|| PlacementError::NeedsMesh {
            policy: self.name(),
        })?;
        let costs = ctx.costs();
        let num_ranks = ctx.num_ranks();
        let n = costs.len();
        if mesh.num_blocks() != n {
            return Err(PlacementError::BlockCountMismatch {
                mesh_blocks: mesh.num_blocks(),
                cost_blocks: n,
            });
        }
        let assignment = out.reset(num_ranks);
        assignment.clear();
        if n == 0 {
            return Ok(ctx.finish(out));
        }
        // Use a caller-provided graph when available, else the mesh's own
        // (built and kept on first use).
        // The greedy itself allocates (gain tables, seed order) — edge-cut is
        // a comparison policy, not on the steady-state rebalance path.
        let built;
        let graph = match ctx.graph() {
            Some(g) => g,
            None => {
                built = mesh.neighbor_graph();
                &built
            }
        };
        // Observed bytes only line up with the graph they were recorded
        // against; a stale slice (wrong relation count) degrades to the
        // topological model instead of mis-weighting edges.
        let weights = match ctx.edge_weights() {
            Some(w) if w.len() == graph.total_relations() => CutWeights::Observed(w),
            _ => CutWeights::topological(mesh),
        };

        let mut loads = Vec::new();
        greedy_cut_partition(
            costs,
            graph,
            &weights,
            num_ranks,
            self.balance_slack,
            self.refine_sweeps,
            assignment,
            &mut loads,
        );

        Ok(ctx.finish(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{Lpt, PlacementPolicy};
    use amr_mesh::{Dim, MeshConfig};

    fn mesh() -> AmrMesh {
        AmrMesh::new(MeshConfig::from_cells(Dim::D3, (64, 64, 64), 1))
    }

    #[test]
    fn assigns_all_blocks() {
        let m = mesh();
        let costs = vec![1.0; m.num_blocks()];
        let p = GreedyEdgeCut::default().place_on_mesh(&m, &costs, 8);
        assert_eq!(p.num_blocks(), 64);
        assert!(p.as_slice().iter().all(|&r| r < 8));
    }

    #[test]
    fn cuts_less_than_lpt() {
        // The whole point of a graph partitioner: smaller edge cut than a
        // locality-blind balancer.
        let m = mesh();
        let costs = vec![1.0; m.num_blocks()];
        let graph = m.neighbor_graph();
        let ec = GreedyEdgeCut::default().place_on_mesh(&m, &costs, 8);
        let lpt = Lpt.place(&costs, 8);
        let cut_ec = edge_cut_bytes(&ec, &graph, &m);
        let cut_lpt = edge_cut_bytes(&lpt, &graph, &m);
        assert!(
            cut_ec < cut_lpt,
            "edge-cut {cut_ec} should beat LPT {cut_lpt}"
        );
    }

    #[test]
    fn respects_load_cap_roughly() {
        let m = mesh();
        let mut costs = vec![1.0; m.num_blocks()];
        costs[0] = 4.0;
        let p = GreedyEdgeCut::default().place_on_mesh(&m, &costs, 8);
        // Imbalance bounded by slack plus one block granularity.
        assert!(
            p.imbalance(&costs) < 1.6,
            "imbalance {}",
            p.imbalance(&costs)
        );
    }

    #[test]
    fn deterministic() {
        let m = mesh();
        let costs: Vec<f64> = (0..m.num_blocks()).map(|i| 1.0 + (i % 5) as f64).collect();
        let a = GreedyEdgeCut::default().place_on_mesh(&m, &costs, 8);
        let b = GreedyEdgeCut::default().place_on_mesh(&m, &costs, 8);
        assert_eq!(a, b);
    }

    #[test]
    fn observed_weights_steer_the_partition() {
        // Zero out every relation except one block pair's, with uniform
        // costs: the greedy must co-locate that pair (its the only traffic).
        let m = mesh();
        let graph = m.neighbor_graph();
        let costs = vec![1.0; m.num_blocks()];
        let mut w = vec![0u64; graph.total_relations()];
        // Pick block 0 and its first neighbor; weight both directions.
        let nb = graph.neighbors(amr_mesh::BlockId(0))[0].block;
        w[graph.row_start(0)] = 1 << 40;
        let back = graph
            .neighbors(nb)
            .iter()
            .position(|n| n.block.index() == 0)
            .unwrap();
        w[graph.row_start(nb.index()) + back] = 1 << 40;
        let ctx = PlacementCtx::new(&costs, 8)
            .with_mesh(&m)
            .with_graph(&graph)
            .with_edge_weights(&w);
        let mut out = Placement::new(Vec::new(), 1);
        GreedyEdgeCut::default().place_into(&ctx, &mut out).unwrap();
        assert_eq!(
            out.rank_of(0),
            out.rank_of(nb.index()),
            "the only observed-traffic pair must be co-located"
        );
    }

    #[test]
    fn empty_mesh_edge_case() {
        let m = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (16, 16, 16), 0));
        let costs = vec![1.0; m.num_blocks()];
        let p = GreedyEdgeCut::default().place_on_mesh(&m, &costs, 2);
        assert_eq!(p.num_blocks(), 1);
    }
}
