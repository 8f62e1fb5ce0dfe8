//! The telemetry event schema.
//!
//! One record per `(timestep, rank, block, phase)` measurement. The schema is
//! fixed and typed on purpose: the paper found free-form trace formats
//! (OTF2, JSON) "poorly suited to multi-dimensional analysis across rank,
//! time, and task" (Lesson 4) and converged on telemetry *grouped by timestep
//! and sorted by rank* — exactly the layout [`crate::table::EventTable`]
//! maintains.

/// Sentinel for records not attributable to a single block (collectives,
/// redistribution, whole-rank phases).
pub const NO_BLOCK: u32 = u32::MAX;

/// Execution phases distinguished by the paper's runtime decomposition
/// (Fig. 6a) plus the finer-grained MPI states used in tuning (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Phase {
    /// Physics/mesh compute kernels on a block.
    Compute = 0,
    /// Boundary (ghost-zone) exchange: pack/send/recv time.
    BoundaryComm = 1,
    /// Time blocked in MPI_Wait on point-to-point requests.
    MpiWait = 2,
    /// Time blocked in collectives (barriers, allreduce) — the paper's
    /// "synchronization" phase.
    Synchronization = 3,
    /// Placement computation + block migration.
    Redistribution = 4,
    /// Flux-correction exchanges (small peer-to-peer messages).
    FluxCorrection = 5,
}

impl Phase {
    /// All phases, in canonical order.
    pub const ALL: [Phase; 6] = [
        Phase::Compute,
        Phase::BoundaryComm,
        Phase::MpiWait,
        Phase::Synchronization,
        Phase::Redistribution,
        Phase::FluxCorrection,
    ];

    /// Stable numeric code used in the columnar layout and binary codec.
    #[inline]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`Phase::code`].
    pub fn from_code(code: u8) -> Option<Phase> {
        Phase::ALL.get(code as usize).copied()
    }

    /// Short lowercase label for CSV export and report tables.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Compute => "compute",
            Phase::BoundaryComm => "comm",
            Phase::MpiWait => "wait",
            Phase::Synchronization => "sync",
            Phase::Redistribution => "redist",
            Phase::FluxCorrection => "flux",
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One telemetry measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// Simulation timestep the measurement belongs to.
    pub step: u32,
    /// MPI rank that recorded it.
    pub rank: u32,
    /// Block the work was attributed to, or [`NO_BLOCK`].
    pub block: u32,
    /// Phase classification.
    pub phase: Phase,
    /// Duration in nanoseconds (virtual time in simulation, wall time on a
    /// real system).
    pub duration_ns: u64,
    /// Number of messages involved (0 for pure compute).
    pub msg_count: u32,
    /// Total message payload in bytes.
    pub msg_bytes: u64,
}

impl EventRecord {
    /// Convenience constructor for compute records.
    pub fn compute(step: u32, rank: u32, block: u32, duration_ns: u64) -> Self {
        EventRecord {
            step,
            rank,
            block,
            phase: Phase::Compute,
            duration_ns,
            msg_count: 0,
            msg_bytes: 0,
        }
    }

    /// Convenience constructor for rank-level (blockless) records.
    pub fn rank_phase(step: u32, rank: u32, phase: Phase, duration_ns: u64) -> Self {
        EventRecord {
            step,
            rank,
            block: NO_BLOCK,
            phase,
            duration_ns,
            msg_count: 0,
            msg_bytes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_codes_roundtrip() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_code(p.code()), Some(p));
        }
        assert_eq!(Phase::from_code(200), None);
    }

    #[test]
    fn phase_labels_unique() {
        let labels: std::collections::HashSet<_> = Phase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), Phase::ALL.len());
    }

    #[test]
    fn constructors_fill_defaults() {
        let c = EventRecord::compute(3, 7, 11, 1000);
        assert_eq!(c.phase, Phase::Compute);
        assert_eq!(c.msg_count, 0);
        let r = EventRecord::rank_phase(3, 7, Phase::Synchronization, 500);
        assert_eq!(r.block, NO_BLOCK);
        assert_eq!(r.phase.to_string(), "sync");
    }
}
