//! The telemetry collection facade used by the simulator.
//!
//! Plays the role of the paper's custom MPI/Kokkos profiling-interface hooks
//! (§IV-C): simulation components report phase durations and message traffic
//! as they execute; the collector appends them to a columnar
//! [`EventTable`]. A `sampling` knob keeps high-frequency experiments from
//! drowning in rows (the paper similarly used programmable triggers to bound
//! telemetry volume).
//!
//! Ingest is a column append per (step, phase) into a pooled staging buffer
//! that holds one step. The step is *sealed* at the next `begin_step` (or at
//! `finish`): a stable counting scatter on its rank column moves it into
//! the table's columns rank-major. A producer that emits its phases in
//! ascending [`Phase`] order, block rows ahead of the rank's own row,
//! therefore seals every step in canonical `(step, rank, phase, block)`
//! order, and `finish()` finds nothing left to sort.

use crate::record::Phase;
use crate::table::{EventTable, StagedStep};

/// Accumulates telemetry events for one run.
#[derive(Debug)]
pub struct Collector {
    table: EventTable,
    /// The current step's rows in emission order, not yet sealed.
    staged: StagedStep,
    /// Seal scratch: per-rank offsets, each staged row's destination.
    offsets: Vec<u32>,
    dest: Vec<u32>,
    current_step: u32,
    /// Record only every `sampling`-th step's events (1 = record all).
    sampling: u32,
    enabled: bool,
    /// Per-rank compute accumulator for the *current* step, kept regardless
    /// of `sampling` — online anomaly detection needs every step's signal
    /// even when the event table keeps only every n-th. Empty when step
    /// tracking is off.
    step_compute: Vec<f64>,
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new()
    }
}

impl Collector {
    /// Collector recording every step.
    pub fn new() -> Self {
        Collector {
            table: EventTable::new(),
            staged: StagedStep::default(),
            offsets: Vec::new(),
            dest: Vec::new(),
            current_step: 0,
            sampling: 1,
            enabled: true,
            step_compute: Vec::new(),
        }
    }

    /// Collector recording every `sampling`-th step (panics on 0).
    pub fn with_sampling(sampling: u32) -> Self {
        assert!(sampling >= 1, "sampling period must be >= 1");
        Collector {
            sampling,
            ..Collector::new()
        }
    }

    /// Disabled collector: all records are dropped. Useful for pure
    /// performance runs where collection overhead should be zero.
    pub fn disabled() -> Self {
        Collector {
            enabled: false,
            ..Collector::new()
        }
    }

    /// Reserve table room for `rows` more rows, so ingest up to that many
    /// allocates nothing once the staging buffer is warm.
    pub fn reserve(&mut self, rows: usize) {
        self.table.reserve(rows);
    }

    /// Advance to a new timestep, sealing the previous one; subsequent
    /// records carry this step. Resets the per-step compute series.
    pub fn begin_step(&mut self, step: u32) {
        self.seal();
        self.current_step = step;
        self.step_compute.fill(0.0);
    }

    /// Enable per-step per-rank compute tracking for `num_ranks` ranks.
    /// Unlike the event table, the series is refreshed every step even when
    /// `sampling > 1` — it feeds online anomaly detection, which can't
    /// tolerate gaps.
    pub fn track_step_compute(&mut self, num_ranks: usize) {
        self.step_compute.clear();
        self.step_compute.resize(num_ranks, 0.0);
    }

    /// The per-rank compute durations (ns) accumulated since the last
    /// `begin_step`. Empty unless [`Collector::track_step_compute`] was
    /// called.
    pub fn step_compute(&self) -> &[f64] {
        &self.step_compute
    }

    /// The step currently being recorded.
    pub fn current_step(&self) -> u32 {
        self.current_step
    }

    /// Column append: one phase's measurements for the current step. `rows`
    /// yields `(rank, block, duration_ns)` ([`crate::NO_BLOCK`] for
    /// rank-level rows), all carrying the same `msg_count` and `msg_bytes`,
    /// and is walked once. `Compute` rows also feed the per-step compute
    /// series, in that order.
    pub fn record_phase(
        &mut self,
        phase: Phase,
        rows: impl Iterator<Item = (u32, u32, u64)>,
        msg_count: u32,
        msg_bytes: u64,
    ) {
        let tracked = phase == Phase::Compute && !self.step_compute.is_empty();
        let sampled = self.enabled && self.current_step.is_multiple_of(self.sampling);
        if !tracked && !sampled {
            return;
        }
        if sampled {
            self.staged.reserve(rows.size_hint().0);
        }
        for (rank, block, duration_ns) in rows {
            if tracked {
                if let Some(slot) = self.step_compute.get_mut(rank as usize) {
                    *slot += duration_ns as f64;
                }
            }
            if sampled {
                self.staged.push(rank, block, duration_ns);
            }
        }
        if sampled {
            self.staged.end_phase(phase, msg_count, msg_bytes);
        }
    }

    /// Record a single measurement: a one-row [`Collector::record_phase`].
    pub fn record(
        &mut self,
        rank: u32,
        block: u32,
        phase: Phase,
        duration_ns: u64,
        msg_count: u32,
        msg_bytes: u64,
    ) {
        let row = std::iter::once((rank, block, duration_ns));
        self.record_phase(phase, row, msg_count, msg_bytes);
    }

    /// Move the staged step into the table, rank-major and otherwise in
    /// emission order: a stable counting scatter on the rank column.
    fn seal(&mut self) {
        let ranks = &self.staged.rank;
        let Some(&max_rank) = ranks.iter().max() else {
            return self.staged.clear();
        };
        self.dest.clear();
        self.dest.extend(0..ranks.len() as u32);
        // Sparse ranks would size the counter array far beyond the step: it
        // then goes in as emitted and `finish()` runs the general sort.
        if max_rank as usize / 2 <= ranks.len() {
            self.offsets.clear();
            self.offsets.resize(max_rank as usize + 2, 0);
            for &r in ranks {
                self.offsets[r as usize + 1] += 1;
            }
            for r in 1..self.offsets.len() {
                self.offsets[r] += self.offsets[r - 1];
            }
            for (d, &r) in self.dest.iter_mut().zip(ranks) {
                *d = self.offsets[r as usize];
                self.offsets[r as usize] += 1;
            }
        }
        self.table
            .extend_scattered(self.current_step, &self.staged, &self.dest);
        self.staged.clear();
    }

    /// Rows collected so far.
    pub fn len(&self) -> usize {
        self.table.len() + self.staged.rank.len()
    }

    /// Nothing collected?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrow the table for querying mid-run: every step sealed so far (the
    /// current step's rows join it at the next `begin_step`).
    pub fn table(&self) -> &EventTable {
        &self.table
    }

    /// Finish collection, returning the table in canonical `(step, rank,
    /// phase, block)` order. Forward steps sealed from a phase-ascending
    /// producer already are, so the sort returns after its is-sorted pass;
    /// anything else (steps revisited, phases out of order) is sorted here.
    pub fn finish(mut self) -> EventTable {
        self.seal();
        self.table.sort_canonical();
        self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use crate::record::NO_BLOCK;

    /// A rank-level row with no traffic.
    fn rank_row(c: &mut Collector, rank: u32, phase: Phase, duration_ns: u64) {
        c.record(rank, NO_BLOCK, phase, duration_ns, 0, 0);
    }

    #[test]
    fn records_carry_current_step() {
        let mut c = Collector::new();
        c.begin_step(5);
        rank_row(&mut c, 2, Phase::Synchronization, 123);
        c.begin_step(6);
        c.record(2, 9, Phase::Compute, 456, 0, 0);
        let t = c.finish();
        assert_eq!(t.len(), 2);
        assert_eq!(t.row(0).step, 5);
        assert_eq!(t.row(1).step, 6);
        assert_eq!(t.row(1).block, 9);
    }

    #[test]
    fn sampling_drops_off_steps() {
        let mut c = Collector::with_sampling(10);
        for step in 0..25 {
            c.begin_step(step);
            rank_row(&mut c, 0, Phase::Compute, 1);
        }
        // Steps 0, 10, 20 recorded.
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn disabled_collector_records_nothing() {
        let mut c = Collector::disabled();
        rank_row(&mut c, 0, Phase::Compute, 1);
        c.record(0, 0, Phase::BoundaryComm, 1, 1, 1);
        c.record_phase(Phase::Compute, [(1, 2, 3)].into_iter(), 0, 0);
        assert!(c.is_empty());
        assert!(c.finish().is_empty());
    }

    #[test]
    fn comm_records_include_volume() {
        let mut c = Collector::new();
        c.record(3, NO_BLOCK, Phase::BoundaryComm, 100, 26, 4096);
        let t = c.finish();
        let g = Query::new(&t).phase(Phase::BoundaryComm).by_rank();
        assert_eq!(g[&3].total_msg_count, 26);
        assert_eq!(g[&3].total_msg_bytes, 4096);
    }

    #[test]
    fn step_tracking_survives_sampling_gaps() {
        let mut c = Collector::with_sampling(10);
        c.track_step_compute(2);
        c.begin_step(3); // not a sampled step
        rank_row(&mut c, 0, Phase::Compute, 100);
        c.record(1, 7, Phase::Compute, 250, 0, 0);
        rank_row(&mut c, 1, Phase::Synchronization, 999); // not compute
        assert_eq!(c.step_compute(), &[100.0, 250.0]);
        assert_eq!(c.len(), 0); // event table dropped the off-step rows
        c.begin_step(4);
        assert_eq!(c.step_compute(), &[0.0, 0.0]); // reset per step
    }

    #[test]
    fn step_tracking_off_by_default() {
        let mut c = Collector::new();
        rank_row(&mut c, 0, Phase::Compute, 5);
        assert!(c.step_compute().is_empty());
    }

    #[test]
    fn finish_sorts_canonically() {
        let mut c = Collector::new();
        c.begin_step(2);
        rank_row(&mut c, 1, Phase::Compute, 1);
        c.begin_step(1);
        rank_row(&mut c, 0, Phase::Compute, 1);
        let t = c.finish();
        assert!(t.row(0).step <= t.row(1).step);
    }

    /// Phase-ascending column appends, block rows ahead of the rank's own:
    /// the seal alone leaves the table canonical.
    #[test]
    fn phase_ascending_steps_seal_in_canonical_order() {
        let owner = [2u32, 0, 1, 0, 2]; // block -> rank
        let mut c = Collector::new();
        for step in 0..3 {
            c.begin_step(step);
            let blocks = owner
                .iter()
                .enumerate()
                .map(|(b, &r)| (r, b as u32, 10 * b as u64));
            c.record_phase(Phase::Compute, blocks, 0, 0);
            for phase in [Phase::Compute, Phase::BoundaryComm, Phase::Synchronization] {
                let ranks = (0..3u32).map(|r| (r, NO_BLOCK, 100 + r as u64));
                c.record_phase(phase, ranks, 7, 0);
            }
            c.record(0, NO_BLOCK, Phase::Redistribution, 5, 1, 64);
            c.record_phase(Phase::FluxCorrection, [(1, NO_BLOCK, 3)].into_iter(), 0, 0);
        }
        c.seal();
        let mut sorted = c.table.clone();
        sorted.sort_canonical();
        assert_eq!(c.table, sorted);
        assert_eq!(sorted.len(), 3 * (5 + 3 * 3 + 2));
        assert_eq!(sorted.row(0).block, 1); // rank 0's first block row
    }

    /// A rank far beyond the step's row count must not size the counter
    /// array: the step goes in as emitted and `finish()` sorts it.
    #[test]
    fn sparse_huge_ranks_seal_without_a_counter_array() {
        let mut c = Collector::new();
        rank_row(&mut c, u32::MAX - 1, Phase::Compute, 1);
        rank_row(&mut c, 3, Phase::Compute, 2);
        c.begin_step(1);
        assert!(c.offsets.capacity() < 16, "no counter array was sized");
        let t = c.finish();
        assert_eq!(t.ranks(), &[3, u32::MAX - 1]);
    }
}
