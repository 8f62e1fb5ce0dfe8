//! Embedded statistics (zone maps) over an event table, and predicate
//! pushdown.
//!
//! Lesson 4's concrete recommendation: "binary columnar formats like Arrow
//! and Parquet, when paired with in-situ collection, offer a promising
//! foundation for low-latency BSP telemetry by enabling low-overhead
//! parsing and **efficient querying via embedded statistics over
//! partitioned data**." This module is that idea at crate scale:
//!
//! * a table's rows are partitioned into fixed-size **chunks** (row
//!   groups) — row ranges of the table's own columns, which the store
//!   borrows and never copies;
//! * each chunk carries **min/max statistics** for the `step`, `rank` and
//!   `duration_ns` columns plus a phase bitmask (the zone map);
//! * range/phase queries consult the zone maps first and **skip whole
//!   chunks** that cannot match — the dominant access pattern of the
//!   paper's diagnosis loop is "this step range, that phase, slow events
//!   only", which prunes aggressively;
//! * zone maps are derived data: a stored table is [`crate::codec`]'s
//!   buffer, and its store is [`ChunkedStore::build`] on the decoded table.

use crate::record::{EventRecord, Phase};
use crate::table::EventTable;
use std::ops::Range;

/// Per-chunk statistics: the zone map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkStats {
    pub rows: u32,
    pub step_min: u32,
    pub step_max: u32,
    pub rank_min: u32,
    pub rank_max: u32,
    pub duration_min: u64,
    pub duration_max: u64,
    /// Bit `p` set ⇔ some row in the chunk has phase code `p`.
    pub phase_mask: u8,
}

/// `(min, max)` of a column; `(T::MAX, T::MIN)` for an empty one.
fn min_max<T: Copy + Ord>(col: &[T], empty: (T, T)) -> (T, T) {
    col.iter()
        .fold(empty, |(lo, hi), &v| (lo.min(v), hi.max(v)))
}

impl ChunkStats {
    /// The zone map of `table`'s `rows`, one column sub-slice at a time.
    fn of(table: &EventTable, rows: Range<usize>) -> ChunkStats {
        let (steps, ranks) = (&table.steps()[rows.clone()], &table.ranks()[rows.clone()]);
        let (durations, phases) = (&table.durations()[rows.clone()], &table.phases()[rows]);
        let (step_min, step_max) = min_max(steps, (u32::MAX, 0));
        let (rank_min, rank_max) = min_max(ranks, (u32::MAX, 0));
        let (duration_min, duration_max) = min_max(durations, (u64::MAX, 0));
        ChunkStats {
            rows: steps.len() as u32,
            step_min,
            step_max,
            rank_min,
            rank_max,
            duration_min,
            duration_max,
            phase_mask: phases.iter().fold(0, |mask, &p| mask | 1 << p),
        }
    }
}

/// A pushdown predicate over the indexed columns. All bounds are inclusive;
/// `None` means unconstrained.
#[derive(Debug, Clone, Copy, Default)]
pub struct Predicate {
    pub step: Option<(u32, u32)>,
    pub rank: Option<(u32, u32)>,
    /// Minimum duration — "slow events only", the spike-hunting filter.
    pub min_duration_ns: Option<u64>,
    pub phase: Option<Phase>,
}

impl Predicate {
    /// Could any row of a chunk with these statistics match?
    pub fn may_match(&self, s: &ChunkStats) -> bool {
        if let Some((lo, hi)) = self.step {
            if s.step_max < lo || s.step_min > hi {
                return false;
            }
        }
        if let Some((lo, hi)) = self.rank {
            if s.rank_max < lo || s.rank_min > hi {
                return false;
            }
        }
        if let Some(min) = self.min_duration_ns {
            if s.duration_max < min {
                return false;
            }
        }
        if let Some(p) = self.phase {
            if s.phase_mask & (1 << p.code()) == 0 {
                return false;
            }
        }
        true
    }

    /// Does a single row match?
    pub fn matches(&self, r: &EventRecord) -> bool {
        self.test(r.step, r.rank, r.duration_ns, r.phase.code())
    }

    /// The row test on the four indexed column values.
    fn test(&self, step: u32, rank: u32, duration_ns: u64, phase: u8) -> bool {
        self.step.is_none_or(|(lo, hi)| step >= lo && step <= hi)
            && self.rank.is_none_or(|(lo, hi)| rank >= lo && rank <= hi)
            && self.min_duration_ns.is_none_or(|m| duration_ns >= m)
            && self.phase.is_none_or(|p| phase == p.code())
    }
}

/// The zone maps of an event table it borrows, one per chunk of
/// `chunk_rows` rows.
#[derive(Debug, Clone)]
pub struct ChunkedStore<'a> {
    table: &'a EventTable,
    chunk_rows: usize,
    stats: Vec<ChunkStats>,
}

/// Result of a pushdown scan, with pruning accounting.
#[derive(Debug, Clone)]
pub struct ScanResult {
    /// Matching rows, in storage order.
    pub rows: Vec<EventRecord>,
    /// Chunks whose zone map allowed skipping without reading.
    pub chunks_pruned: usize,
    /// Chunks actually scanned.
    pub chunks_scanned: usize,
}

impl<'a> ChunkedStore<'a> {
    /// Partition `table` into chunks of `chunk_rows` rows (storage order is
    /// the table's current order; sort canonically first for best pruning)
    /// and fold each chunk's zone map.
    pub fn build(table: &'a EventTable, chunk_rows: usize) -> ChunkedStore<'a> {
        assert!(chunk_rows > 0);
        let mut store = ChunkedStore {
            table,
            chunk_rows,
            stats: Vec::new(),
        };
        store.stats = (0..table.len().div_ceil(chunk_rows))
            .map(|c| ChunkStats::of(table, store.rows(c)))
            .collect();
        store
    }

    /// The table rows of chunk `c`.
    fn rows(&self, c: usize) -> Range<usize> {
        let at = c * self.chunk_rows;
        at..self.table.len().min(at + self.chunk_rows)
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.stats.len()
    }

    /// Total rows.
    pub fn num_rows(&self) -> usize {
        self.table.len()
    }

    /// Zone maps (for inspection/tests).
    pub fn stats(&self) -> &[ChunkStats] {
        &self.stats
    }

    /// Scan with predicate pushdown: chunks whose zone map rules out the
    /// predicate are skipped entirely.
    pub fn scan(&self, pred: &Predicate) -> ScanResult {
        let t = self.table;
        let (steps, ranks, durations, phases) = (t.steps(), t.ranks(), t.durations(), t.phases());
        let mut rows = Vec::new();
        let mut pruned = 0;
        let mut scanned = 0;
        for (c, stats) in self.stats.iter().enumerate() {
            if !pred.may_match(stats) {
                pruned += 1;
                continue;
            }
            scanned += 1;
            // Test on the typed columns in place; only matches become records.
            rows.extend(
                self.rows(c)
                    .filter(|&i| pred.test(steps[i], ranks[i], durations[i], phases[i]))
                    .map(|i| t.row(i)),
            );
        }
        ScanResult {
            rows,
            chunks_pruned: pruned,
            chunks_scanned: scanned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rows: usize) -> EventTable {
        let mut t: EventTable = (0..rows as u32)
            .map(|i| EventRecord {
                step: i / 64,
                rank: i % 64,
                block: i,
                phase: Phase::ALL[(i % 6) as usize],
                duration_ns: 100 + (i as u64 % 97) * 10,
                msg_count: 0,
                msg_bytes: 0,
            })
            .collect();
        t.sort_canonical();
        t
    }

    #[test]
    fn chunking_partitions_all_rows() {
        let t = sample(1000);
        let s = ChunkedStore::build(&t, 128);
        assert_eq!(s.num_rows(), 1000);
        assert_eq!(s.num_chunks(), 8); // 7 full + 1 tail
        assert_eq!(s.stats()[0].rows, 128);
        assert_eq!(s.stats()[7].rows, 1000 - 7 * 128);
    }

    #[test]
    fn step_range_pushdown_prunes_chunks() {
        let t = sample(4096); // steps 0..64, sorted by step
        let s = ChunkedStore::build(&t, 256);
        let pred = Predicate {
            step: Some((10, 11)),
            ..Predicate::default()
        };
        let res = s.scan(&pred);
        // Correctness: identical to a full filter.
        let expect = t.iter().filter(|r| pred.matches(r)).count();
        assert_eq!(res.rows.len(), expect);
        assert!(expect > 0);
        // Pruning: the narrow step range must skip most chunks.
        assert!(
            res.chunks_pruned > res.chunks_scanned,
            "pruned {} vs scanned {}",
            res.chunks_pruned,
            res.chunks_scanned
        );
    }

    #[test]
    fn phase_mask_prunes_when_sorted_by_phase() {
        // Group rows by phase so chunks become phase-pure.
        let mut rows: Vec<EventRecord> = sample(1200).iter().collect();
        rows.sort_by_key(|r| r.phase.code());
        let t: EventTable = rows.into_iter().collect();
        let s = ChunkedStore::build(&t, 100);
        let pred = Predicate {
            phase: Some(Phase::Redistribution),
            ..Predicate::default()
        };
        let res = s.scan(&pred);
        assert!(res.chunks_pruned > 0);
        assert!(res.rows.iter().all(|r| r.phase == Phase::Redistribution));
        assert_eq!(
            res.rows.len(),
            t.iter()
                .filter(|r| r.phase == Phase::Redistribution)
                .count()
        );
    }

    #[test]
    fn duration_pushdown_finds_spikes_cheaply() {
        // One spike hidden in a sea of fast events.
        let mut t = sample(2000);
        t.push(EventRecord {
            step: 1000,
            rank: 0,
            block: 0,
            phase: Phase::MpiWait,
            duration_ns: 5_000_000,
            msg_count: 0,
            msg_bytes: 0,
        });
        let s = ChunkedStore::build(&t, 100);
        let pred = Predicate {
            min_duration_ns: Some(1_000_000),
            ..Predicate::default()
        };
        let res = s.scan(&pred);
        assert_eq!(res.rows.len(), 1);
        assert_eq!(res.rows[0].duration_ns, 5_000_000);
        // All but the spike's chunk pruned by the duration zone map.
        assert_eq!(res.chunks_scanned, 1);
    }

    #[test]
    fn empty_predicate_scans_everything() {
        let t = sample(500);
        let s = ChunkedStore::build(&t, 64);
        let res = s.scan(&Predicate::default());
        assert_eq!(res.rows.len(), 500);
        assert_eq!(res.chunks_pruned, 0);
    }
}
