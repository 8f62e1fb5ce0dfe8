//! Telemetry-driven per-block cost models (§V-A3).
//!
//! Parthenon-style frameworks expose per-block cost hooks that are "typically
//! initialized to 1 in practice — treating all blocks as computationally
//! equal". The paper's first infrastructure change populates those hooks
//! with *measured* compute costs. This module provides that feedback loop:
//! an EWMA estimator over observed per-block compute times, plus the
//! bookkeeping to carry estimates across mesh refinement (children inherit
//! the parent's cost; merged parents average their children — block cell
//! counts are level-invariant, so cost carries over directly).

use amr_mesh::{BlockFate, RefinementDelta};

/// A source of per-block costs in SFC order, consumed by placement policies.
pub trait CostModel {
    /// Current cost estimates, indexed by `BlockId`.
    fn costs(&self) -> &[f64];
}

/// The production-default cost model: every block costs 1.
#[derive(Debug, Clone)]
pub struct UniformCost {
    costs: Vec<f64>,
}

impl UniformCost {
    /// Uniform cost model over `num_blocks` blocks.
    pub fn new(num_blocks: usize) -> Self {
        UniformCost {
            costs: vec![1.0; num_blocks],
        }
    }
}

impl CostModel for UniformCost {
    fn costs(&self) -> &[f64] {
        &self.costs
    }
}

/// How a block of the *new* mesh relates to blocks of the *old* mesh after
/// an adaptation step. Drives cost-estimate inheritance across refinement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CostOrigin {
    /// Same block as old index `i` (possibly with a new `BlockId`).
    Same(usize),
    /// Child produced by refining old block `i`.
    SplitFrom(usize),
    /// Parent produced by merging the given old blocks.
    MergedFrom(Vec<usize>),
    /// No ancestry (initial mesh).
    Fresh,
}

/// Derive the per-new-block [`CostOrigin`] vector straight from an adapt
/// changeset ([`RefinementDelta::remap`]) — O(blocks) with no hashing,
/// replacing the per-adapt `HashMap<Octant, BlockId>` snapshot workloads
/// used to build. `out` is cleared and refilled (pool it per workload).
///
/// An identity delta (no-op adapt) yields all-`Same` origins. Unlike the
/// octant-matching oracle (`amr_workloads::exchange::cost_origins`), blocks
/// multiple levels below a refined leaf still resolve to `SplitFrom` of the
/// old ancestor rather than `Fresh`, because the fate table tracks regions,
/// not immediate parents — strictly more ancestry, never less.
pub fn origins_from_delta(delta: &RefinementDelta, out: &mut Vec<CostOrigin>) {
    out.clear();
    if delta.remap.is_empty() {
        // Identity: every block keeps its index.
        out.extend((0..delta.blocks_after).map(CostOrigin::Same));
        return;
    }
    debug_assert_eq!(delta.remap.len(), delta.blocks_before);
    out.resize(delta.blocks_after, CostOrigin::Fresh);
    for (old, fate) in delta.remap.iter().enumerate() {
        match *fate {
            BlockFate::Same(new) => out[new.index()] = CostOrigin::Same(old),
            BlockFate::Refined { first, count } => {
                for slot in &mut out[first.index()..first.index() + count as usize] {
                    *slot = CostOrigin::SplitFrom(old);
                }
            }
            BlockFate::Coarsened(new) => match &mut out[new.index()] {
                CostOrigin::MergedFrom(parts) => parts.push(old),
                slot => *slot = CostOrigin::MergedFrom(vec![old]),
            },
        }
    }
}

/// EWMA estimator of per-block compute cost from telemetry.
#[derive(Debug, Clone)]
pub struct TelemetryCostModel {
    costs: Vec<f64>,
    /// EWMA smoothing factor in (0, 1]: weight of the newest observation.
    alpha: f64,
    /// Value assigned to blocks with no history.
    default_cost: f64,
}

impl TelemetryCostModel {
    /// New model over `num_blocks` blocks; estimates start at `default_cost`.
    pub fn new(num_blocks: usize, alpha: f64, default_cost: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        assert!(default_cost >= 0.0);
        TelemetryCostModel {
            costs: vec![default_cost; num_blocks],
            alpha,
            default_cost,
        }
    }

    /// Fold one measured compute time for `block` into its estimate.
    pub fn observe(&mut self, block: usize, measured: f64) {
        debug_assert!(measured >= 0.0);
        let c = &mut self.costs[block];
        *c = self.alpha * measured + (1.0 - self.alpha) * *c;
    }

    /// Fold a full per-block measurement vector (one timestep's telemetry).
    pub fn observe_all(&mut self, measured: &[f64]) {
        assert_eq!(measured.len(), self.costs.len());
        for (b, &m) in measured.iter().enumerate() {
            self.observe(b, m);
        }
    }

    /// Fold one timestep's measurements with **capacity normalization**:
    /// each block's measured time is scaled by its hosting rank's relative
    /// speed (`capacities[assignment[b]]`), recovering the block's intrinsic
    /// cost on a nominal rank. Without this, a 4×-throttled node inflates
    /// its blocks' estimates 4×, and a capacity-aware policy then *also*
    /// discounts the rank — double-counting the fault and oscillating the
    /// placement. With all capacities at 1.0 this is bit-identical to
    /// [`observe_all`](TelemetryCostModel::observe_all) (`x * 1.0 == x`).
    pub fn observe_all_deflated(
        &mut self,
        measured: &[f64],
        assignment: &[u32],
        capacities: &[f64],
    ) {
        assert_eq!(measured.len(), self.costs.len());
        assert_eq!(assignment.len(), self.costs.len());
        for (b, &m) in measured.iter().enumerate() {
            self.observe(b, m * capacities[assignment[b] as usize]);
        }
    }

    /// Rebuild the model for a new mesh described by per-new-block origins.
    pub fn remap(&self, origins: &[CostOrigin]) -> TelemetryCostModel {
        let mut out = self.clone();
        out.remap_in_place(origins, &mut Vec::new());
        out
    }

    /// In-place [`remap`](TelemetryCostModel::remap): the new estimates are
    /// staged in `spare` (cleared first), then swapped in, leaving the old
    /// cost vector as the next call's stage. With a reused `spare`, a
    /// steady-state remap loop allocates only on mesh growth.
    pub fn remap_in_place(&mut self, origins: &[CostOrigin], spare: &mut Vec<f64>) {
        spare.clear();
        spare.reserve(origins.len());
        spare.extend(origins.iter().map(|o| match o {
            CostOrigin::Same(i) | CostOrigin::SplitFrom(i) => self.costs[*i],
            CostOrigin::MergedFrom(parts) => {
                if parts.is_empty() {
                    self.default_cost
                } else {
                    parts.iter().map(|&i| self.costs[i]).sum::<f64>() / parts.len() as f64
                }
            }
            CostOrigin::Fresh => self.default_cost,
        }));
        std::mem::swap(&mut self.costs, spare);
    }

    /// Number of blocks tracked.
    pub fn len(&self) -> usize {
        self.costs.len()
    }

    /// No blocks tracked?
    pub fn is_empty(&self) -> bool {
        self.costs.is_empty()
    }
}

impl CostModel for TelemetryCostModel {
    fn costs(&self) -> &[f64] {
        &self.costs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_all_ones() {
        let m = UniformCost::new(4);
        assert_eq!(m.costs(), &[1.0; 4]);
    }

    #[test]
    fn ewma_converges_to_stationary_signal() {
        let mut m = TelemetryCostModel::new(1, 0.3, 1.0);
        for _ in 0..100 {
            m.observe(0, 5.0);
        }
        assert!((m.costs()[0] - 5.0).abs() < 1e-6);
    }

    #[test]
    fn ewma_smooths_noise() {
        let mut m = TelemetryCostModel::new(1, 0.1, 4.0);
        // Alternating 3/5 observations around mean 4.
        for i in 0..200 {
            m.observe(0, if i % 2 == 0 { 3.0 } else { 5.0 });
        }
        assert!((m.costs()[0] - 4.0).abs() < 0.2);
    }

    #[test]
    fn alpha_one_tracks_latest() {
        let mut m = TelemetryCostModel::new(2, 1.0, 0.0);
        m.observe_all(&[7.0, 9.0]);
        assert_eq!(m.costs(), &[7.0, 9.0]);
    }

    #[test]
    fn remap_inherits_across_refinement() {
        let mut m = TelemetryCostModel::new(2, 1.0, 1.0);
        m.observe_all(&[8.0, 2.0]);
        // Block 0 splits into 4 children; block 1 carries over.
        let origins = vec![
            CostOrigin::SplitFrom(0),
            CostOrigin::SplitFrom(0),
            CostOrigin::SplitFrom(0),
            CostOrigin::SplitFrom(0),
            CostOrigin::Same(1),
        ];
        let m2 = m.remap(&origins);
        assert_eq!(m2.costs(), &[8.0, 8.0, 8.0, 8.0, 2.0]);
    }

    #[test]
    fn remap_merges_by_mean() {
        let mut m = TelemetryCostModel::new(4, 1.0, 1.0);
        m.observe_all(&[1.0, 2.0, 3.0, 6.0]);
        let m2 = m.remap(&[CostOrigin::MergedFrom(vec![0, 1, 2, 3])]);
        assert_eq!(m2.costs(), &[3.0]);
        let m3 = m.remap(&[CostOrigin::Fresh, CostOrigin::MergedFrom(vec![])]);
        assert_eq!(m3.costs(), &[1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn rejects_bad_alpha() {
        TelemetryCostModel::new(1, 0.0, 1.0);
    }

    #[test]
    fn deflated_observation_recovers_intrinsic_cost() {
        // Blocks 0,1 on rank 0 (healthy), block 2 on rank 1 (4x slow,
        // capacity 0.25). Measured times carry the fault inflation; the
        // deflated fold must converge to the intrinsic costs.
        let mut m = TelemetryCostModel::new(3, 0.5, 1.0);
        let assignment = [0u32, 0, 1];
        let caps = [1.0, 0.25];
        for _ in 0..40 {
            m.observe_all_deflated(&[2.0, 3.0, 20.0], &assignment, &caps);
        }
        assert!((m.costs()[0] - 2.0).abs() < 1e-9);
        assert!((m.costs()[1] - 3.0).abs() < 1e-9);
        assert!((m.costs()[2] - 5.0).abs() < 1e-9);

        // Unit capacities: bit-identical to the plain fold.
        let mut a = TelemetryCostModel::new(3, 0.3, 1.0);
        let mut b = a.clone();
        a.observe_all(&[1.7, 0.3, 9.1]);
        b.observe_all_deflated(&[1.7, 0.3, 9.1], &assignment, &[1.0, 1.0]);
        for (x, y) in a.costs().iter().zip(b.costs()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn origins_from_delta_covers_all_fates() {
        use amr_mesh::BlockId;
        // Old mesh: 6 blocks. Old 0 stays; old 1 refines into new 1..=4;
        // old 2..=5 coarsen into new 5.
        let delta = RefinementDelta {
            refined: 1,
            coarsened: 1,
            blocks_before: 6,
            blocks_after: 6,
            remap: vec![
                BlockFate::Same(BlockId(0)),
                BlockFate::Refined {
                    first: BlockId(1),
                    count: 4,
                },
                BlockFate::Coarsened(BlockId(5)),
                BlockFate::Coarsened(BlockId(5)),
                BlockFate::Coarsened(BlockId(5)),
                BlockFate::Coarsened(BlockId(5)),
            ],
            ..RefinementDelta::default()
        };
        let mut out = vec![CostOrigin::Fresh; 99]; // stale pooled buffer
        origins_from_delta(&delta, &mut out);
        assert_eq!(
            out,
            vec![
                CostOrigin::Same(0),
                CostOrigin::SplitFrom(1),
                CostOrigin::SplitFrom(1),
                CostOrigin::SplitFrom(1),
                CostOrigin::SplitFrom(1),
                CostOrigin::MergedFrom(vec![2, 3, 4, 5]),
            ]
        );

        // Identity delta (no-op adapt): every block keeps its index.
        let identity = RefinementDelta {
            blocks_before: 3,
            blocks_after: 3,
            ..RefinementDelta::default()
        };
        origins_from_delta(&identity, &mut out);
        assert_eq!(
            out,
            vec![
                CostOrigin::Same(0),
                CostOrigin::Same(1),
                CostOrigin::Same(2)
            ]
        );
    }

    #[test]
    fn remap_in_place_matches_remap() {
        let mut m = TelemetryCostModel::new(3, 1.0, 1.0);
        m.observe_all(&[2.0, 4.0, 6.0]);
        let origins = vec![
            CostOrigin::Same(2),
            CostOrigin::MergedFrom(vec![0, 1]),
            CostOrigin::Fresh,
        ];
        let by_clone = m.remap(&origins);
        let mut spare = Vec::new();
        let mut in_place = m.clone();
        in_place.remap_in_place(&origins, &mut spare);
        assert_eq!(in_place.costs(), by_clone.costs());
        assert_eq!(in_place.costs(), &[6.0, 3.0, 1.0]);
        // The spare now holds the retired vector, ready for reuse.
        assert_eq!(spare.len(), 3);
    }
}
