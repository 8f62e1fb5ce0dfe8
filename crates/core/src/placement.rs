//! The placement type and its quality metrics.
//!
//! A placement maps every block (by SFC-ordered `BlockId`) to a rank. The
//! paper's infrastructure change §V-A3(2) — supporting *arbitrary*
//! (non-contiguous) block-to-rank mappings — is the representation here:
//! a plain `Vec<RankId>` indexed by block, with no contiguity assumption.
//!
//! Quality is judged along the two axes of §V:
//!
//! * **compute balance** — [`Placement::makespan`] / [`Placement::imbalance`]
//!   over measured block costs, and
//! * **communication locality** — [`Placement::locality_stats`] classifies
//!   every neighbor relation as intra-rank (`memcpy`, invisible to MPI),
//!   intra-node (shared memory) or remote (fabric), given the node topology.

use crate::engine::PlacementError;
use amr_mesh::{BlockSpec, Dim, NeighborGraph};

/// Rank identifier (dense, 0-based).
pub type RankId = u32;

/// A block→rank assignment for one mesh snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    ranks: Vec<RankId>,
    num_ranks: usize,
}

impl Default for Placement {
    /// An empty placement over a single rank.
    fn default() -> Placement {
        Placement {
            ranks: Vec::new(),
            num_ranks: 1,
        }
    }
}

impl Placement {
    /// Build from an explicit assignment vector.
    ///
    /// Panics if any rank is out of range; see [`Placement::try_new`] for the
    /// typed-error variant.
    pub fn new(ranks: Vec<RankId>, num_ranks: usize) -> Placement {
        Placement::try_new(ranks, num_ranks).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build from an explicit assignment vector, rejecting invalid inputs
    /// with a typed [`PlacementError`].
    pub fn try_new(ranks: Vec<RankId>, num_ranks: usize) -> Result<Placement, PlacementError> {
        if num_ranks == 0 {
            return Err(PlacementError::NoRanks);
        }
        if let Some((block, &rank)) = ranks
            .iter()
            .enumerate()
            .find(|(_, &r)| (r as usize) >= num_ranks)
        {
            return Err(PlacementError::RankOutOfRange {
                block,
                rank,
                num_ranks,
            });
        }
        Ok(Placement { ranks, num_ranks })
    }

    /// Repoint this placement at `num_ranks` ranks and hand out the raw
    /// assignment vector for in-place refill. The contents are *not*
    /// cleared — single-pass writers clear-and-extend, rewriters (Blend,
    /// CPLX) patch the existing assignment. Callers must leave every entry
    /// `< num_ranks`; policies guarantee this by construction.
    pub(crate) fn reset(&mut self, num_ranks: usize) -> &mut Vec<RankId> {
        debug_assert!(num_ranks > 0, "need at least one rank");
        self.num_ranks = num_ranks;
        &mut self.ranks
    }

    /// Number of blocks placed.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.ranks.len()
    }

    /// Number of ranks available.
    #[inline]
    pub fn num_ranks(&self) -> usize {
        self.num_ranks
    }

    /// Rank of block `i`.
    #[inline]
    pub fn rank_of(&self, block: usize) -> RankId {
        self.ranks[block]
    }

    /// The raw assignment slice (indexed by block).
    #[inline]
    pub fn as_slice(&self) -> &[RankId] {
        &self.ranks
    }

    /// Blocks assigned to each rank: `out[r]` lists block indices on rank `r`.
    pub fn blocks_per_rank(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.num_ranks];
        for (b, &r) in self.ranks.iter().enumerate() {
            out[r as usize].push(b);
        }
        out
    }

    /// Block count per rank.
    pub fn counts_per_rank(&self) -> Vec<usize> {
        let mut out = vec![0usize; self.num_ranks];
        for &r in &self.ranks {
            out[r as usize] += 1;
        }
        out
    }

    /// Total cost per rank under the given block costs.
    pub fn rank_loads(&self, costs: &[f64]) -> Vec<f64> {
        let mut loads = Vec::new();
        self.rank_loads_into(costs, &mut loads);
        loads
    }

    /// [`Placement::rank_loads`] into a reused buffer (cleared and refilled).
    fn rank_loads_into(&self, costs: &[f64], loads: &mut Vec<f64>) {
        assert_eq!(costs.len(), self.ranks.len());
        loads.clear();
        loads.resize(self.num_ranks, 0.0);
        for (b, &r) in self.ranks.iter().enumerate() {
            loads[r as usize] += costs[b];
        }
    }

    /// Makespan: the maximum per-rank load. The straggler's load, which
    /// lower-bounds the time to the next synchronization point.
    pub fn makespan(&self, costs: &[f64]) -> f64 {
        self.rank_loads(costs).into_iter().fold(0.0f64, f64::max)
    }

    /// Imbalance factor: makespan / mean load. 1.0 is perfect balance.
    pub fn imbalance(&self, costs: &[f64]) -> f64 {
        self.imbalance_with(costs, &mut Vec::new())
    }

    /// [`Placement::imbalance`] with the per-rank loads staged in a
    /// caller-pooled buffer (cleared and refilled), for per-step callers.
    pub fn imbalance_with(&self, costs: &[f64], loads: &mut Vec<f64>) -> f64 {
        self.rank_loads_into(costs, loads);
        let total: f64 = loads.iter().sum();
        if total == 0.0 {
            return 1.0;
        }
        let mean = total / self.num_ranks as f64;
        loads.iter().copied().fold(0.0f64, f64::max) / mean
    }

    /// Is the assignment contiguous in SFC order — does each rank own one
    /// contiguous block range, with ranges in ascending rank order? (Empty
    /// ranks are permitted.) True for the baseline and CDP; generally false
    /// for LPT and CPLX with X > 0.
    pub fn is_contiguous(&self) -> bool {
        self.ranks.windows(2).all(|w| w[1] >= w[0])
    }

    /// Number of blocks whose rank differs from `other`'s assignment — the
    /// migration volume a redistribution from `other` to `self` must move.
    pub fn migration_count(&self, other: &Placement) -> usize {
        assert_eq!(self.num_blocks(), other.num_blocks());
        self.ranks
            .iter()
            .zip(other.ranks.iter())
            .filter(|(a, b)| a != b)
            .count()
    }

    /// Classify all neighbor relations by placement locality.
    ///
    /// `ranks_per_node` defines the node topology (16 in the paper's
    /// cluster). Intra-rank relations become `memcpy` and do not appear as
    /// MPI messages at all — the effect behind the total-message-volume
    /// growth with `X` observed in Fig. 6c.
    pub fn locality_stats(
        &self,
        graph: &NeighborGraph,
        ranks_per_node: usize,
        spec: &BlockSpec,
        dim: Dim,
    ) -> LocalityStats {
        assert!(ranks_per_node > 0);
        assert_eq!(graph.num_blocks(), self.num_blocks());
        let mut s = LocalityStats::default();
        for (block, nbs) in graph.iter() {
            let src_rank = self.rank_of(block.index());
            let src_node = src_rank as usize / ranks_per_node;
            for n in nbs {
                let bytes = spec.message_bytes(dim, n.kind.codim());
                let dst_rank = self.rank_of(n.block.index());
                if dst_rank == src_rank {
                    s.intra_rank_msgs += 1;
                    s.intra_rank_bytes += bytes;
                } else if dst_rank as usize / ranks_per_node == src_node {
                    s.local_msgs += 1;
                    s.local_bytes += bytes;
                } else {
                    s.remote_msgs += 1;
                    s.remote_bytes += bytes;
                }
            }
        }
        s
    }
}

/// Message-locality classification of a placement over a neighbor graph.
///
/// Counts are directed relations (each block counts its sends).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocalityStats {
    /// Same-rank relations: `memcpy`, not MPI messages.
    pub intra_rank_msgs: u64,
    pub intra_rank_bytes: u64,
    /// Different rank, same node: shared-memory MPI path.
    pub local_msgs: u64,
    pub local_bytes: u64,
    /// Different node: fabric messages.
    pub remote_msgs: u64,
    pub remote_bytes: u64,
}

impl LocalityStats {
    /// MPI-visible messages (local + remote; intra-rank is memcpy).
    pub fn mpi_msgs(&self) -> u64 {
        self.local_msgs + self.remote_msgs
    }

    /// Total relations including intra-rank copies.
    pub fn total_relations(&self) -> u64 {
        self.intra_rank_msgs + self.mpi_msgs()
    }

    /// Fraction of MPI-visible messages that cross nodes (the paper reports
    /// 64% for baseline at 4096 ranks).
    pub fn remote_fraction(&self) -> f64 {
        let mpi = self.mpi_msgs();
        if mpi == 0 {
            0.0
        } else {
            self.remote_msgs as f64 / mpi as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amr_mesh::{Dim, Octree};

    #[test]
    fn loads_and_makespan() {
        let p = Placement::new(vec![0, 0, 1, 2], 3);
        let costs = [1.0, 2.0, 4.0, 1.0];
        assert_eq!(p.rank_loads(&costs), vec![3.0, 4.0, 1.0]);
        assert_eq!(p.makespan(&costs), 4.0);
        // mean = 8/3
        assert!((p.imbalance(&costs) - 4.0 / (8.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn counts_and_blocks_per_rank() {
        let p = Placement::new(vec![2, 0, 2, 1], 3);
        assert_eq!(p.counts_per_rank(), vec![1, 1, 2]);
        assert_eq!(p.blocks_per_rank()[2], vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "rank out of range")]
    fn rejects_out_of_range_rank() {
        Placement::new(vec![0, 3], 3);
    }

    #[test]
    fn try_new_reports_typed_errors() {
        assert_eq!(Placement::try_new(vec![0], 0), Err(PlacementError::NoRanks));
        assert_eq!(
            Placement::try_new(vec![0, 3], 3),
            Err(PlacementError::RankOutOfRange {
                block: 1,
                rank: 3,
                num_ranks: 3
            })
        );
        assert!(Placement::try_new(vec![0, 2], 3).is_ok());
    }

    #[test]
    fn contiguity_detection() {
        assert!(Placement::new(vec![0, 0, 1, 1, 2], 3).is_contiguous());
        assert!(!Placement::new(vec![0, 1, 0], 2).is_contiguous());
        assert!(!Placement::new(vec![1, 1, 0, 0], 2).is_contiguous());
        // Empty ranks do not break contiguity: each owned range is still
        // one contiguous run in ascending rank order.
        assert!(Placement::new(vec![0, 0, 2], 3).is_contiguous());
        assert!(Placement::new(vec![1], 2).is_contiguous());
        // Empty placements are trivially contiguous.
        assert!(Placement::new(vec![], 4).is_contiguous());
    }

    #[test]
    fn migration_count_diffs() {
        let a = Placement::new(vec![0, 0, 1, 1], 2);
        let b = Placement::new(vec![0, 1, 1, 0], 2);
        assert_eq!(a.migration_count(&b), 2);
        assert_eq!(a.migration_count(&a), 0);
    }

    #[test]
    fn locality_stats_classify_relations() {
        // 2x2x2 uniform mesh: every block touches every other (26-ish for
        // corners: each corner block has 7 neighbors).
        let tree = Octree::uniform_roots(Dim::D3, (2, 2, 2));
        let leaves = tree.leaves_sorted();
        let graph = NeighborGraph::build(&tree, &leaves);
        let spec = BlockSpec::default();

        // All blocks on one rank: everything is intra-rank memcpy.
        let p = Placement::new(vec![0; 8], 4);
        let s = p.locality_stats(&graph, 2, &spec, Dim::D3);
        assert_eq!(s.mpi_msgs(), 0);
        assert_eq!(s.intra_rank_msgs, 8 * 7);

        // One block per rank, 2 ranks/node: mix of local and remote.
        let p = Placement::new((0..8).collect(), 8);
        let s = p.locality_stats(&graph, 2, &spec, Dim::D3);
        assert_eq!(s.intra_rank_msgs, 0);
        assert_eq!(s.mpi_msgs(), 8 * 7);
        // Blocks 0,1 share node 0 etc: exactly one local partner each => 8
        // directed local relations.
        assert_eq!(s.local_msgs, 8);
        assert_eq!(s.remote_msgs, 8 * 7 - 8);
        assert!(s.remote_fraction() > 0.8);
    }

    #[test]
    fn locality_bytes_track_kinds() {
        let tree = Octree::uniform_roots(Dim::D3, (2, 2, 2));
        let leaves = tree.leaves_sorted();
        let graph = NeighborGraph::build(&tree, &leaves);
        let spec = BlockSpec::default();
        let p = Placement::new((0..8).collect(), 8);
        let s = p.locality_stats(&graph, 8, &spec, Dim::D3);
        // Everything on one node: no remote.
        assert_eq!(s.remote_msgs, 0);
        // 8 corners: each has 3 faces + 3 edges + 1 vertex.
        let expect_bytes: u64 = 8
            * (3 * spec.message_bytes(Dim::D3, 1)
                + 3 * spec.message_bytes(Dim::D3, 2)
                + spec.message_bytes(Dim::D3, 3));
        assert_eq!(s.local_bytes, expect_bytes);
    }
}
