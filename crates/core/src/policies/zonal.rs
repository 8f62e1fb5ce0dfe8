//! Zonal placement: the paper's mitigation for placement overhead at the
//! largest scales (§VI-C).
//!
//! "At the largest scales, zonal placement architectures can be adopted to
//! mitigate placement overhead — dividing ranks into k zones to compute
//! placement independently and in parallel" (after Zheng et al.'s periodic
//! hierarchical load balancing). [`Zonal`] wraps *any* inner policy: blocks
//! (in SFC order) and ranks are split into `zones` contiguous groups with
//! cost-proportional block shares (the same split [`super::ChunkedCdp`]
//! uses), and the inner policy runs on each zone in turn.
//!
//! Unlike [`super::ChunkedCdp`] — which chunks only the CDP stage — zonal
//! wrapping also confines LPT/CPLX rebalancing inside each zone, trading a
//! little global balance for bounded migration distance and a smaller
//! problem per solve. Zones are solved in sequence, so the wall-time win is
//! algorithmic (`zones` sorts/DPs of `1/zones` the size), not threads.

use super::chunked::cost_share_split;
use super::PlacementPolicy;
use crate::engine::{PlacementCtx, PlacementError, PlacementReport};
use crate::placement::Placement;

/// Run an inner policy independently per zone.
#[derive(Debug, Clone, Copy)]
pub struct Zonal<P> {
    /// Number of zones (each gets `num_ranks / zones` ranks, ±1).
    pub zones: usize,
    /// The policy executed inside each zone.
    pub inner: P,
}

impl<P> Zonal<P> {
    /// Wrap `inner`, splitting work into `zones` zones.
    pub fn new(zones: usize, inner: P) -> Zonal<P> {
        assert!(zones >= 1);
        Zonal { zones, inner }
    }
}

impl<P: PlacementPolicy> PlacementPolicy for Zonal<P> {
    fn name(&self) -> String {
        format!("zonal{}-{}", self.zones, self.inner.name())
    }

    fn place_into(
        &self,
        ctx: &PlacementCtx,
        out: &mut Placement,
    ) -> Result<PlacementReport, PlacementError> {
        ctx.validate()?;
        let costs = ctx.costs();
        let num_ranks = ctx.num_ranks();
        let zones = self.zones.min(num_ranks);
        if zones == 1 {
            // Identity wrapper: the inner policy sees the full context
            // (scratch, prev, mesh) and its report stands as ours.
            return self.inner.place_into(ctx, out);
        }
        // Each zone is a bare sub-problem (costs + ranks): the context's
        // mesh, prev and warm scratch describe the whole mesh, not a zone.
        let mut zone_out = Placement::default();
        let assignment = out.reset(num_ranks);
        assignment.clear();
        for (blocks, ranks) in cost_share_split(costs, num_ranks, zones) {
            let zone_ctx = PlacementCtx::new(&costs[blocks], ranks.len());
            self.inner.place_into(&zone_ctx, &mut zone_out)?;
            let local = zone_out.as_slice().iter();
            assignment.extend(local.map(|&r| ranks.start as u32 + r));
        }
        Ok(ctx.finish(out))
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::random_costs;
    use super::super::{Cplx, Lpt, Rcb};
    use super::*;

    #[test]
    fn one_zone_is_identity() {
        let costs = random_costs(64, 1);
        let z = Zonal::new(1, Lpt).place(&costs, 8);
        let plain = Lpt.place(&costs, 8);
        assert_eq!(z, plain);
    }

    #[test]
    fn zones_confine_ranks() {
        let costs = random_costs(128, 2);
        let z = Zonal::new(4, Lpt).place(&costs, 16);
        // Blocks in the first quarter of the curve (by cost share) must map
        // into the first 4 ranks, etc. Verify zone monotonicity: rank zone
        // index is non-decreasing along the curve.
        let zone_of = |r: u32| r / 4;
        let zones: Vec<u32> = z.as_slice().iter().map(|&r| zone_of(r)).collect();
        assert!(zones.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn quality_close_to_global() {
        let costs = random_costs(2048, 3);
        let global = Cplx::new(50).place(&costs, 256).makespan(&costs);
        let zonal = Zonal::new(8, Cplx::new(50))
            .place(&costs, 256)
            .makespan(&costs);
        assert!(
            zonal <= global * 1.5,
            "zonal {zonal} too far from global {global}"
        );
    }

    #[test]
    fn name_encodes_structure() {
        assert_eq!(Zonal::new(8, Lpt).name(), "zonal8-lpt");
    }

    #[test]
    fn more_zones_than_ranks_clamped() {
        let costs = random_costs(8, 4);
        let z = Zonal::new(64, Lpt).place(&costs, 4);
        assert_eq!(z.num_blocks(), 8);
        assert!(z.as_slice().iter().all(|&r| r < 4));
    }

    #[test]
    fn mesh_needing_inner_returns_typed_error() {
        // Zones are bare (costs, ranks) sub-problems, so a mesh-aware inner
        // policy must surface `NeedsMesh` — not panic inside `place()`.
        let costs = random_costs(32, 6);
        let ctx = PlacementCtx::new(&costs, 8);
        let mut out = Placement::default();
        let err = Zonal::new(2, Rcb).place_into(&ctx, &mut out).unwrap_err();
        assert!(matches!(err, PlacementError::NeedsMesh { .. }), "{err}");
    }
}
