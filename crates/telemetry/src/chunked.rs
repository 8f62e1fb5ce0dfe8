//! A chunked columnar store with embedded statistics (zone maps) and
//! predicate pushdown.
//!
//! Lesson 4's concrete recommendation: "binary columnar formats like Arrow
//! and Parquet, when paired with in-situ collection, offer a promising
//! foundation for low-latency BSP telemetry by enabling low-overhead
//! parsing and **efficient querying via embedded statistics over
//! partitioned data**." This module is that idea at crate scale:
//!
//! * events are partitioned into fixed-size **chunks** (row groups);
//! * each chunk carries **min/max statistics** for the `step`, `rank` and
//!   `duration_ns` columns plus a phase bitmask (the zone map);
//! * range/phase queries consult the zone maps first and **skip whole
//!   chunks** that cannot match — the dominant access pattern of the
//!   paper's diagnosis loop is "this step range, that phase, slow events
//!   only", which prunes aggressively;
//! * chunks serialize with the same columnar binary codec as
//!   [`crate::codec`], so a chunked file is just a sequence of framed
//!   chunks with a statistics footer.

use crate::codec;
use crate::record::{EventRecord, Phase};
use crate::table::EventTable;

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
    /// The zone map of `table`, one column at a time.
    fn of(table: &EventTable) -> ChunkStats {
        let (step_min, step_max) = min_max(table.steps(), (u32::MAX, 0));
        let (rank_min, rank_max) = min_max(table.ranks(), (u32::MAX, 0));
        let (duration_min, duration_max) = min_max(table.durations(), (u64::MAX, 0));
        ChunkStats {
            rows: table.len() as u32,
            step_min,
            step_max,
            rank_min,
            rank_max,
            duration_min,
            duration_max,
            phase_mask: table.phases().iter().fold(0, |mask, &p| mask | 1 << p),
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

/// An immutable chunked store built from an event table.
#[derive(Debug, Clone)]
pub struct ChunkedStore {
    chunks: Vec<EventTable>,
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

impl ChunkedStore {
    /// Partition `table` into chunks of `chunk_rows` rows (storage order is
    /// the table's current order; sort canonically first for best pruning).
    pub fn build(table: &EventTable, chunk_rows: usize) -> ChunkedStore {
        assert!(chunk_rows > 0);
        let chunks: Vec<EventTable> = (0..table.len())
            .step_by(chunk_rows)
            .map(|at| table.slice(at..table.len().min(at + chunk_rows)))
            .collect();
        ChunkedStore::from_chunks(chunks)
    }

    /// Derive the zone maps of `chunks`.
    fn from_chunks(chunks: Vec<EventTable>) -> ChunkedStore {
        let stats = chunks.iter().map(ChunkStats::of).collect();
        ChunkedStore { chunks, stats }
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Total rows.
    pub fn num_rows(&self) -> usize {
        self.stats.iter().map(|s| s.rows as usize).sum()
    }

    /// Zone maps (for inspection/tests).
    pub fn stats(&self) -> &[ChunkStats] {
        &self.stats
    }

    /// Scan with predicate pushdown: chunks whose zone map rules out the
    /// predicate are skipped entirely.
    pub fn scan(&self, pred: &Predicate) -> ScanResult {
        let mut rows = Vec::new();
        let mut pruned = 0;
        let mut scanned = 0;
        for (chunk, stats) in self.chunks.iter().zip(&self.stats) {
            if !pred.may_match(stats) {
                pruned += 1;
                continue;
            }
            scanned += 1;
            // Test on the typed columns; only matches become records.
            let (steps, ranks) = (chunk.steps(), chunk.ranks());
            let (durations, phases) = (chunk.durations(), chunk.phases());
            rows.extend(
                (0..chunk.len())
                    .filter(|&i| pred.test(steps[i], ranks[i], durations[i], phases[i]))
                    .map(|i| chunk.row(i)),
            );
        }
        ScanResult {
            rows,
            chunks_pruned: pruned,
            chunks_scanned: scanned,
        }
    }

    /// Serialize: framed chunks, each a [`crate::codec`] buffer.
    ///
    /// ```text
    /// magic "AMRC" | version u32 | chunk_count u32 |
    /// (chunk_len u32, chunk_bytes...) × chunk_count
    /// ```
    /// Zone maps are rebuilt on load (they are derived data).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"AMRC");
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&(self.chunks.len() as u32).to_le_bytes());
        for chunk in &self.chunks {
            let bytes = codec::encode(chunk);
            buf.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            buf.extend_from_slice(&bytes);
        }
        buf
    }

    /// Deserialize a chunked buffer.
    pub fn decode(mut buf: &[u8]) -> Result<ChunkedStore, codec::DecodeError> {
        let take_u32 = |buf: &mut &[u8]| codec::take(buf).map(u32::from_le_bytes);
        if buf.len() < 12 {
            return Err(codec::DecodeError::Truncated);
        }
        if &codec::take::<4>(&mut buf)? != b"AMRC" {
            return Err(codec::DecodeError::BadMagic);
        }
        let version = take_u32(&mut buf)?;
        if version != 1 {
            return Err(codec::DecodeError::BadVersion(version));
        }
        let count = take_u32(&mut buf)? as usize;
        // The count is unvalidated input: every chunk takes at least its
        // 4-byte length prefix, which bounds what the buffer can hold.
        let mut chunks = Vec::with_capacity(count.min(buf.len() / 4));
        for _ in 0..count {
            let len = take_u32(&mut buf)? as usize;
            if buf.len() < len {
                return Err(codec::DecodeError::Truncated);
            }
            let (chunk, rest) = buf.split_at(len);
            chunks.push(codec::decode(chunk)?);
            buf = rest;
        }
        Ok(ChunkedStore::from_chunks(chunks))
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

    #[test]
    fn encode_decode_roundtrip() {
        let t = sample(777);
        let s = ChunkedStore::build(&t, 100);
        let bytes = s.encode();
        let back = ChunkedStore::decode(&bytes).unwrap();
        assert_eq!(back.num_rows(), 777);
        assert_eq!(back.num_chunks(), s.num_chunks());
        assert_eq!(back.stats(), s.stats());
        // Scans agree.
        let pred = Predicate {
            rank: Some((3, 5)),
            ..Predicate::default()
        };
        assert_eq!(back.scan(&pred).rows.len(), s.scan(&pred).rows.len());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(ChunkedStore::decode(b"junk").is_err());
        let t = sample(100);
        let bytes = ChunkedStore::build(&t, 50).encode();
        assert!(ChunkedStore::decode(&bytes[..bytes.len() - 3]).is_err());
        let mut bad = bytes.to_vec();
        bad[0] = b'X';
        assert_eq!(
            ChunkedStore::decode(&bad).unwrap_err(),
            codec::DecodeError::BadMagic
        );
    }
}
