//! Redistribution trigger policies.
//!
//! Placement is computed as part of *redistribution*, which the paper's
//! codes invoke when the mesh structure changes (§II-B); related work
//! (Meta-Balancer) studies smarter triggers. This module provides the
//! trigger predicates used by the simulator and experiments: the
//! production-faithful "on mesh change" default, plus periodic and
//! imbalance-threshold variants for ablations.

/// Inputs available when deciding whether to rebalance at a step boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TriggerContext {
    /// Current timestep.
    pub step: u64,
    /// Did the mesh refine/coarsen this step?
    pub mesh_changed: bool,
    /// Current imbalance factor (makespan / mean load) under the current
    /// placement and newest cost estimates.
    pub imbalance: f64,
    /// Live synchronization share of the previous step —
    /// `sync / (compute + comm + sync)` read back from the telemetry
    /// sync-fraction gauge (0.0 before the first step). Unlike `imbalance`,
    /// which is a scalar *estimate* from the cost model, this is the
    /// simulator's measured signal: it already folds in communication waits,
    /// fault multipliers, and congestion stalls.
    pub sync_fraction: f64,
}

/// When to invoke redistribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RebalanceTrigger {
    /// Whenever the mesh structure changes (the AMR default).
    OnMeshChange,
    /// Every `n` steps regardless of mesh activity.
    Periodic(u64),
    /// When the mesh changes *or* measured imbalance exceeds the factor.
    MeshChangeOrImbalance(f64),
    /// When the mesh changes *or* the previous step's measured sync share
    /// exceeds the threshold — the trace-driven trigger: it reacts to what
    /// the run actually lost to synchronization (including congestion and
    /// fault stalls the imbalance estimate can't see).
    SyncFractionAbove(f64),
    /// Never rebalance (static placement ablation).
    Never,
}

impl RebalanceTrigger {
    /// Does [`should_rebalance`](RebalanceTrigger::should_rebalance) read
    /// [`TriggerContext::imbalance`]? Callers skip pricing it (a pass over
    /// every block and rank) for a trigger that would discard it.
    pub fn reads_imbalance(&self) -> bool {
        matches!(self, RebalanceTrigger::MeshChangeOrImbalance(_))
    }

    /// Should redistribution run now?
    pub fn should_rebalance(&self, ctx: &TriggerContext) -> bool {
        match *self {
            RebalanceTrigger::OnMeshChange => ctx.mesh_changed,
            RebalanceTrigger::Periodic(n) => n > 0 && ctx.step.is_multiple_of(n),
            RebalanceTrigger::MeshChangeOrImbalance(threshold) => {
                ctx.mesh_changed || ctx.imbalance > threshold
            }
            RebalanceTrigger::SyncFractionAbove(threshold) => {
                ctx.mesh_changed || ctx.sync_fraction > threshold
            }
            RebalanceTrigger::Never => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(step: u64, mesh_changed: bool, imbalance: f64) -> TriggerContext {
        TriggerContext {
            step,
            mesh_changed,
            imbalance,
            sync_fraction: 0.0,
        }
    }

    #[test]
    fn on_mesh_change_tracks_mesh() {
        let t = RebalanceTrigger::OnMeshChange;
        assert!(t.should_rebalance(&ctx(5, true, 1.0)));
        assert!(!t.should_rebalance(&ctx(5, false, 9.0)));
    }

    #[test]
    fn periodic_fires_on_multiples() {
        let t = RebalanceTrigger::Periodic(10);
        assert!(t.should_rebalance(&ctx(0, false, 1.0)));
        assert!(t.should_rebalance(&ctx(20, false, 1.0)));
        assert!(!t.should_rebalance(&ctx(21, true, 9.0)));
        // Period 0 never fires (avoids div-by-zero semantics).
        assert!(!RebalanceTrigger::Periodic(0).should_rebalance(&ctx(0, true, 9.0)));
    }

    #[test]
    fn imbalance_threshold() {
        let t = RebalanceTrigger::MeshChangeOrImbalance(1.5);
        assert!(t.should_rebalance(&ctx(3, false, 1.6)));
        assert!(!t.should_rebalance(&ctx(3, false, 1.4)));
        assert!(t.should_rebalance(&ctx(3, true, 1.0)));
    }

    #[test]
    fn only_the_imbalance_trigger_reads_imbalance() {
        // A trigger that claims not to read the field must decide the same
        // whatever it holds.
        for t in [
            RebalanceTrigger::OnMeshChange,
            RebalanceTrigger::Periodic(3),
            RebalanceTrigger::MeshChangeOrImbalance(1.5),
            RebalanceTrigger::SyncFractionAbove(0.2),
            RebalanceTrigger::Never,
        ] {
            let moved = (0..8).any(|k| {
                let (step, changed) = (k / 2, k % 2 == 1);
                t.should_rebalance(&ctx(step, changed, 1.0))
                    != t.should_rebalance(&ctx(step, changed, f64::INFINITY))
            });
            assert_eq!(moved, t.reads_imbalance(), "{t:?}");
        }
    }

    #[test]
    fn never_is_never() {
        let t = RebalanceTrigger::Never;
        assert!(!t.should_rebalance(&ctx(0, true, 99.0)));
    }

    #[test]
    fn sync_fraction_threshold_reads_the_measured_signal() {
        let t = RebalanceTrigger::SyncFractionAbove(0.25);
        let hot = TriggerContext {
            sync_fraction: 0.4,
            ..ctx(3, false, 1.0)
        };
        let cool = TriggerContext {
            sync_fraction: 0.1,
            ..ctx(3, false, 9.0) // huge *estimated* imbalance is ignored
        };
        assert!(t.should_rebalance(&hot));
        assert!(!t.should_rebalance(&cool));
        // Mesh changes always fire, as for the other hybrid trigger.
        assert!(t.should_rebalance(&ctx(3, true, 1.0)));
        // Boundary is exclusive.
        let edge = TriggerContext {
            sync_fraction: 0.25,
            ..ctx(3, false, 1.0)
        };
        assert!(!t.should_rebalance(&edge));
    }
}
