//! Telemetry-driven per-block cost model (§V-A3).
//!
//! Parthenon-style frameworks expose per-block cost hooks that are "typically
//! initialized to 1 in practice — treating all blocks as computationally
//! equal". The paper's first infrastructure change populates those hooks
//! with *measured* compute costs. This module provides that feedback loop:
//! an EWMA estimator over observed per-block compute times, carried across
//! mesh refinement by the adapt's fate table ([`RefinementDelta::remap`]):
//! children inherit the parent's cost and a merged parent averages its
//! children — block cell counts are level-invariant, so cost carries over
//! directly.

use amr_mesh::{BlockFate, RefinementDelta};

/// EWMA estimator of per-block compute cost from telemetry.
#[derive(Debug, Clone)]
pub struct TelemetryCostModel {
    costs: Vec<f64>,
    /// EWMA smoothing factor in (0, 1]: weight of the newest observation.
    alpha: f64,
}

impl TelemetryCostModel {
    /// New model over `num_blocks` blocks; estimates start at `default_cost`.
    pub fn new(num_blocks: usize, alpha: f64, default_cost: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        assert!(default_cost >= 0.0);
        TelemetryCostModel {
            costs: vec![default_cost; num_blocks],
            alpha,
        }
    }

    /// Current cost estimates, indexed by `BlockId`.
    pub fn costs(&self) -> &[f64] {
        &self.costs
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

    /// Carry the estimates onto the mesh after the adapt `delta` describes
    /// (its fate table covers this model's blocks; see
    /// [`RefinementDelta::maps`]). One walk in old-id order: a surviving or
    /// refined block's estimate is copied to its new id(s), a coarsened
    /// family's run is averaged into its parent. New ids come out ascending,
    /// staged in `spare` (cleared first) and swapped in, leaving the old
    /// vector as the next call's stage — with a reused `spare`, a
    /// steady-state remesh loop allocates only on mesh growth.
    pub fn remap_in_place(&mut self, delta: &RefinementDelta, spare: &mut Vec<f64>) {
        debug_assert_eq!(delta.remap.len(), self.costs.len());
        spare.clear();
        spare.reserve(delta.blocks_after);
        let mut old = 0;
        // Fates of one coarsened family are equal and adjacent; every other
        // fate names its own new ids.
        for run in delta.remap.chunk_by(|a, b| a == b) {
            let costs = &self.costs[old..old + run.len()];
            old += run.len();
            match run[0] {
                BlockFate::Same(_) => spare.push(costs[0]),
                BlockFate::Refined { count, .. } => {
                    spare.extend(std::iter::repeat_n(costs[0], count as usize))
                }
                BlockFate::Coarsened(_) => {
                    spare.push(costs.iter().sum::<f64>() / costs.len() as f64)
                }
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use amr_mesh::BlockId;

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

    /// A delta over `remap`, with the block counts it implies.
    fn delta(remap: Vec<BlockFate>, blocks_after: usize) -> RefinementDelta {
        RefinementDelta {
            blocks_before: remap.len(),
            blocks_after,
            remap,
            ..RefinementDelta::default()
        }
    }

    #[test]
    fn remap_inherits_across_refinement() {
        let mut m = TelemetryCostModel::new(2, 1.0, 1.0);
        m.observe_all(&[8.0, 2.0]);
        // Block 0 splits into 4 children; block 1 carries over.
        let d = delta(
            vec![
                BlockFate::Refined {
                    first: BlockId(0),
                    count: 4,
                },
                BlockFate::Same(BlockId(4)),
            ],
            5,
        );
        m.remap_in_place(&d, &mut Vec::new());
        assert_eq!(m.costs(), &[8.0, 8.0, 8.0, 8.0, 2.0]);
    }

    #[test]
    fn remap_merges_by_mean_and_reuses_the_spare() {
        let mut m = TelemetryCostModel::new(7, 1.0, 1.0);
        m.observe_all(&[5.0, 1.0, 2.0, 3.0, 6.0, 4.0, 4.0]);
        // Old 0 survives as new 0, old 1..=4 merge into new 1, and the
        // next family (old 5, 6) into new 2: adjacent runs stay apart.
        let d = delta(
            vec![
                BlockFate::Same(BlockId(0)),
                BlockFate::Coarsened(BlockId(1)),
                BlockFate::Coarsened(BlockId(1)),
                BlockFate::Coarsened(BlockId(1)),
                BlockFate::Coarsened(BlockId(1)),
                BlockFate::Coarsened(BlockId(2)),
                BlockFate::Coarsened(BlockId(2)),
            ],
            3,
        );
        let mut spare = Vec::new();
        m.remap_in_place(&d, &mut spare);
        assert_eq!(m.costs(), &[5.0, 3.0, 4.0]);
        // The spare now holds the retired vector, ready for reuse.
        assert_eq!(spare.len(), 7);
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
}
