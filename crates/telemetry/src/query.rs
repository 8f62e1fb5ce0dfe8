//! Relational-style queries over [`EventTable`].
//!
//! A tiny, composable subset of what the paper ran as SQL on ClickHouse:
//! predicate filters over the typed columns, group-bys over arbitrary keys,
//! and per-group aggregates. Queries never copy event data — they refine a
//! row-index selection over a borrowed table (none at all until the first
//! filter), the built-in filters and group-bys read the typed columns, and
//! the final aggregation is a single pass.
//!
//! ```
//! use amr_telemetry::{EventRecord, EventTable, Phase, Query};
//! let table: EventTable = (0..4)
//!     .map(|r| EventRecord::rank_phase(0, r, Phase::MpiWait, 100 * (r as u64 + 1)))
//!     .collect();
//! let waits = Query::new(&table).phase(Phase::MpiWait).by_rank();
//! assert_eq!(waits[&3].total_duration_ns, 400);
//! ```

use crate::record::{EventRecord, Phase};
use crate::stats;
use crate::table::EventTable;
use std::collections::BTreeMap;

/// Per-group aggregate accumulator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroupAgg {
    /// Rows in the group.
    pub count: usize,
    /// Sum of durations (ns).
    pub total_duration_ns: u64,
    /// Max single duration (ns).
    pub max_duration_ns: u64,
    /// Sum of message counts.
    pub total_msg_count: u64,
    /// Sum of message bytes.
    pub total_msg_bytes: u64,
    /// Individual durations (ns, as f64) for distribution statistics.
    pub durations: Vec<f64>,
}

impl GroupAgg {
    fn add(&mut self, duration_ns: u64, msg_count: u32, msg_bytes: u64) {
        // Saturating: degenerate tables (near-`u64::MAX` durations from a
        // saturated network model) clamp the sums instead of wrapping.
        self.count += 1;
        self.total_duration_ns = self.total_duration_ns.saturating_add(duration_ns);
        self.max_duration_ns = self.max_duration_ns.max(duration_ns);
        self.total_msg_count = self.total_msg_count.saturating_add(msg_count as u64);
        self.total_msg_bytes = self.total_msg_bytes.saturating_add(msg_bytes);
        self.durations.push(duration_ns as f64);
    }

    /// Mean duration in ns.
    pub fn mean_duration_ns(&self) -> f64 {
        stats::mean(&self.durations)
    }

    /// Total duration in (virtual) seconds.
    pub fn total_secs(&self) -> f64 {
        self.total_duration_ns as f64 * 1e-9
    }
}

/// Flat, copyable aggregate of a query selection: counts and saturating
/// sums only, no per-row storage. This is the payload a telemetry-query
/// *service* response carries — cheap to compute (one pass), cheap to ship
/// (five words), allocation-free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuerySummary {
    /// Rows selected.
    pub count: usize,
    /// Sum of durations (ns), saturating.
    pub total_duration_ns: u64,
    /// Max single duration (ns).
    pub max_duration_ns: u64,
    /// Sum of message counts, saturating.
    pub total_msg_count: u64,
    /// Sum of message bytes, saturating.
    pub total_msg_bytes: u64,
}

/// A filtered view over an [`EventTable`].
#[derive(Debug, Clone)]
pub struct Query<'a> {
    table: &'a EventTable,
    /// Selected row indices, ascending; `None` selects every row.
    rows: Option<Vec<usize>>,
}

impl<'a> Query<'a> {
    /// Start a query selecting every row.
    pub fn new(table: &'a EventTable) -> Self {
        Query { table, rows: None }
    }

    /// The selected row indices, ascending: every row, or the listed ones.
    fn rows(&self) -> impl Iterator<Item = usize> + '_ {
        let (all, listed) = match &self.rows {
            None => (0..self.table.len(), &[][..]),
            Some(rows) => (0..0, &rows[..]),
        };
        all.chain(listed.iter().copied())
    }

    /// Keep the selected rows whose index passes `keep`.
    fn refine(mut self, keep: impl Fn(usize) -> bool) -> Self {
        self.rows = Some(match self.rows.take() {
            None => (0..self.table.len()).filter(|&i| keep(i)).collect(),
            Some(mut rows) => {
                rows.retain(|&i| keep(i));
                rows
            }
        });
        self
    }

    /// Keep rows with the given phase.
    pub fn phase(self, p: Phase) -> Self {
        let phases = self.table.phases();
        self.refine(|i| phases[i] == p.code())
    }

    /// Keep rows from the given rank.
    pub fn rank(self, rank: u32) -> Self {
        let ranks = self.table.ranks();
        self.refine(|i| ranks[i] == rank)
    }

    /// Keep rows whose step lies in `[lo, hi)`.
    pub fn step_range(self, lo: u32, hi: u32) -> Self {
        let steps = self.table.steps();
        self.refine(|i| steps[i] >= lo && steps[i] < hi)
    }

    /// Keep rows attributed to the given block.
    pub fn block(self, block: u32) -> Self {
        let blocks = self.table.blocks();
        self.refine(|i| blocks[i] == block)
    }

    /// Keep rows matching an arbitrary predicate.
    pub fn filter<F: Fn(&EventRecord) -> bool>(self, pred: F) -> Self {
        let table = self.table;
        self.refine(|i| pred(&table.row(i)))
    }

    /// Number of selected rows.
    pub fn count(&self) -> usize {
        self.rows.as_ref().map_or(self.table.len(), Vec::len)
    }

    /// Materialize selected rows.
    pub fn records(&self) -> Vec<EventRecord> {
        self.rows().map(|i| self.table.row(i)).collect()
    }

    /// Durations of selected rows in ns (as f64, ready for statistics).
    pub fn durations(&self) -> Vec<f64> {
        let d = self.table.durations();
        self.rows().map(|i| d[i] as f64).collect()
    }

    /// Sum of selected durations (ns), saturating at `u64::MAX`.
    pub fn total_duration_ns(&self) -> u64 {
        let d = self.table.durations();
        self.rows().fold(0u64, |acc, i| acc.saturating_add(d[i]))
    }

    /// Sum of selected message counts, saturating at `u64::MAX`.
    pub fn total_msg_count(&self) -> u64 {
        let c = self.table.msg_counts();
        self.rows()
            .fold(0u64, |acc, i| acc.saturating_add(c[i] as u64))
    }

    /// Single-pass flat aggregate of the selection — the wire-friendly
    /// subset of [`GroupAgg`] (no per-row duration vector, no extra
    /// allocation), which is what the `amr-service` query API returns.
    /// All sums saturate.
    pub fn summary(&self) -> QuerySummary {
        let d = self.table.durations();
        let mc = self.table.msg_counts();
        let mb = self.table.msg_bytes();
        let mut s = QuerySummary::default();
        for i in self.rows() {
            s.count += 1;
            s.total_duration_ns = s.total_duration_ns.saturating_add(d[i]);
            s.max_duration_ns = s.max_duration_ns.max(d[i]);
            s.total_msg_count = s.total_msg_count.saturating_add(mc[i] as u64);
            s.total_msg_bytes = s.total_msg_bytes.saturating_add(mb[i]);
        }
        s
    }

    /// Group selected rows by an arbitrary key.
    pub fn group_by<K: Ord, F: Fn(&EventRecord) -> K>(&self, key: F) -> BTreeMap<K, GroupAgg> {
        let mut out: BTreeMap<K, GroupAgg> = BTreeMap::new();
        for i in self.rows() {
            let r = self.table.row(i);
            out.entry(key(&r))
                .or_default()
                .add(r.duration_ns, r.msg_count, r.msg_bytes);
        }
        out
    }

    /// Group selected rows by a typed key column: one map lookup per run of
    /// equal keys (a canonical table's steps and ranks come in runs), the
    /// aggregates read straight from the value columns.
    fn group_by_column<K: Ord + Copy>(&self, keys: &[K]) -> BTreeMap<K, GroupAgg> {
        let d = self.table.durations();
        let mc = self.table.msg_counts();
        let mb = self.table.msg_bytes();
        let mut out: BTreeMap<K, GroupAgg> = BTreeMap::new();
        let mut rows = self.rows().peekable();
        while let Some(&first) = rows.peek() {
            let key = keys[first];
            let agg = out.entry(key).or_default();
            while let Some(i) = rows.next_if(|&i| keys[i] == key) {
                agg.add(d[i], mc[i], mb[i]);
            }
        }
        out
    }

    /// Group by rank.
    pub fn by_rank(&self) -> BTreeMap<u32, GroupAgg> {
        self.group_by_column(self.table.ranks())
    }

    /// Group by timestep.
    pub fn by_step(&self) -> BTreeMap<u32, GroupAgg> {
        self.group_by_column(self.table.steps())
    }

    /// Group by phase: six dense slots, no map on the row path.
    pub fn by_phase(&self) -> BTreeMap<Phase, GroupAgg> {
        let (p, d) = (self.table.phases(), self.table.durations());
        let (mc, mb) = (self.table.msg_counts(), self.table.msg_bytes());
        let mut slots: [GroupAgg; Phase::ALL.len()] = Default::default();
        for i in self.rows() {
            slots[p[i] as usize].add(d[i], mc[i], mb[i]);
        }
        let groups = Phase::ALL.into_iter().zip(slots);
        groups.filter(|(_, g)| g.count > 0).collect()
    }

    /// Group by block.
    pub fn by_block(&self) -> BTreeMap<u32, GroupAgg> {
        self.group_by_column(self.table.blocks())
    }

    /// Per-rank total durations as a dense vector of seconds (ranks without
    /// rows get 0.0). Convenient for rankwise plots like Fig. 3.
    pub fn per_rank_secs(&self, num_ranks: usize) -> Vec<f64> {
        let (ranks, d) = (self.table.ranks(), self.table.durations());
        let mut total_ns = vec![0u64; num_ranks];
        for i in self.rows() {
            if let Some(t) = total_ns.get_mut(ranks[i] as usize) {
                *t = t.saturating_add(d[i]);
            }
        }
        total_ns.into_iter().map(|t| t as f64 * 1e-9).collect()
    }

    /// Pearson correlation between two per-group aggregate projections.
    ///
    /// The Fig. 1a reliability check is
    /// `correlate_groups(|r| r.rank, msg_count, duration)`: does per-rank
    /// communication time track per-rank message volume?
    pub fn correlate_groups<K: Ord, F: Fn(&EventRecord) -> K>(
        &self,
        key: F,
        x: impl Fn(&GroupAgg) -> f64,
        y: impl Fn(&GroupAgg) -> f64,
    ) -> f64 {
        let groups = self.group_by(key);
        let xs: Vec<f64> = groups.values().map(&x).collect();
        let ys: Vec<f64> = groups.values().map(&y).collect();
        stats::pearson(&xs, &ys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> EventTable {
        let mut t = EventTable::new();
        for step in 0..3u32 {
            for rank in 0..4u32 {
                t.push(EventRecord::compute(
                    step,
                    rank,
                    rank,
                    100 * (rank as u64 + 1),
                ));
                t.push(EventRecord {
                    step,
                    rank,
                    block: rank,
                    phase: Phase::BoundaryComm,
                    duration_ns: 50 * (rank as u64 + 1),
                    msg_count: 26,
                    msg_bytes: 1000 * (rank as u64 + 1),
                });
            }
        }
        t
    }

    #[test]
    fn summary_matches_group_agg_in_one_pass() {
        let t = table();
        let q = Query::new(&t).phase(Phase::BoundaryComm);
        let s = q.summary();
        assert_eq!(s.count, q.count());
        assert_eq!(s.total_duration_ns, q.total_duration_ns());
        assert_eq!(s.total_msg_count, q.total_msg_count());
        assert_eq!(s.max_duration_ns, 200);
        assert_eq!(s.total_msg_bytes, 3 * (1000 + 2000 + 3000 + 4000));
        assert_eq!(Query::new(&t).rank(99).summary(), QuerySummary::default());
    }

    #[test]
    fn aggregates_saturate_on_degenerate_durations() {
        // Two near-MAX rows: unchecked sums would wrap in release builds
        // and panic in debug; every aggregate clamps instead.
        let mut t = EventTable::new();
        for step in 0..2u32 {
            t.push(EventRecord {
                step,
                rank: 0,
                block: 0,
                phase: Phase::MpiWait,
                duration_ns: u64::MAX - 1,
                msg_count: u32::MAX,
                msg_bytes: u64::MAX - 1,
            });
        }
        let q = Query::new(&t);
        assert_eq!(q.total_duration_ns(), u64::MAX);
        let s = q.summary();
        assert_eq!(s.total_duration_ns, u64::MAX);
        assert_eq!(s.total_msg_bytes, u64::MAX);
        assert_eq!(s.max_duration_ns, u64::MAX - 1);
        let g = q.by_rank();
        assert_eq!(g[&0].total_duration_ns, u64::MAX);
        assert_eq!(g[&0].total_msg_bytes, u64::MAX);
    }

    #[test]
    fn straggler_totals_saturate_on_degenerate_durations() {
        // One rank's two Compute rows in one step: its total clamps, as
        // `Query`'s do, instead of wrapping to `u64::MAX - 3`.
        let t: EventTable = (0..2)
            .map(|block| EventRecord::compute(0, 0, block, u64::MAX - 1))
            .collect();
        let s = crate::views::stragglers_by_step(&t);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].max_compute_ns, u64::MAX);
        assert_eq!(Query::new(&t).total_duration_ns(), u64::MAX);
    }

    #[test]
    fn filters_compose() {
        let t = table();
        let q = Query::new(&t)
            .phase(Phase::Compute)
            .rank(2)
            .step_range(1, 3);
        assert_eq!(q.count(), 2);
        assert_eq!(q.total_duration_ns(), 600);
    }

    #[test]
    fn group_by_rank_totals() {
        let t = table();
        let g = Query::new(&t).phase(Phase::Compute).by_rank();
        assert_eq!(g.len(), 4);
        assert_eq!(g[&0].total_duration_ns, 300);
        assert_eq!(g[&3].total_duration_ns, 1200);
        assert_eq!(g[&3].count, 3);
        assert!((g[&3].mean_duration_ns() - 400.0).abs() < 1e-9);
    }

    #[test]
    fn group_by_phase_partitions_everything() {
        let t = table();
        let g = Query::new(&t).by_phase();
        let total: usize = g.values().map(|a| a.count).sum();
        assert_eq!(total, t.len());
        assert_eq!(g[&Phase::Compute].count, 12);
        assert_eq!(g[&Phase::BoundaryComm].count, 12);
    }

    #[test]
    fn per_rank_secs_dense() {
        let t = table();
        let v = Query::new(&t).phase(Phase::BoundaryComm).per_rank_secs(6);
        assert_eq!(v.len(), 6);
        assert!(v[3] > v[0]);
        assert_eq!(v[5], 0.0);
    }

    #[test]
    fn correlation_of_comm_time_and_volume_is_high() {
        // Comm durations are proportional to msg_bytes by construction.
        let t = table();
        let r = Query::new(&t).phase(Phase::BoundaryComm).correlate_groups(
            |r| r.rank,
            |g| g.total_msg_bytes as f64,
            |g| g.total_duration_ns as f64,
        );
        assert!(r > 0.999, "r = {r}");
    }

    #[test]
    fn arbitrary_filter_and_block_grouping() {
        let t = table();
        let q = Query::new(&t).filter(|r| r.msg_count > 0);
        assert_eq!(q.count(), 12);
        let g = q.by_block();
        assert_eq!(g.len(), 4);
        assert_eq!(g[&1].total_msg_count, 3 * 26);
    }
}
