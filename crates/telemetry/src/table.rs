//! Columnar event storage (struct-of-arrays).
//!
//! ClickHouse-style layout at toy scale: one `Vec` per column, so scans for
//! a single dimension touch only that column's memory, and appends are
//! allocation-free after warm-up. Producers append a phase's rows as whole
//! columns (a `StagedStep`, scattered into the table a step at a time),
//! consumers read the typed column slices; rows can be materialized on
//! demand as [`EventRecord`]s.

use crate::record::{EventRecord, Phase};

/// Columnar table of telemetry events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventTable {
    // Crate-visible so `codec::decode` can name whole columns in a struct
    // literal; equal lengths and valid phase codes are the builder's duty.
    pub(crate) step: Vec<u32>,
    pub(crate) rank: Vec<u32>,
    pub(crate) block: Vec<u32>,
    pub(crate) phase: Vec<u8>,
    pub(crate) duration_ns: Vec<u64>,
    pub(crate) msg_count: Vec<u32>,
    pub(crate) msg_bytes: Vec<u64>,
}

/// One step's rows in emission order, not yet sealed into a table: the three
/// columns that vary row to row, and per append the values its rows share.
#[derive(Debug, Default)]
pub(crate) struct StagedStep {
    pub(crate) rank: Vec<u32>,
    block: Vec<u32>,
    duration_ns: Vec<u64>,
    /// `(end row, phase code, msg_count, msg_bytes)` of each append.
    appends: Vec<(usize, u8, u32, u64)>,
}

impl StagedStep {
    /// Room for an append of `rows` rows, sized once from its length.
    pub(crate) fn reserve(&mut self, rows: usize) {
        self.rank.reserve(rows);
        self.block.reserve(rows);
        self.duration_ns.reserve(rows);
    }

    /// One row of the append in progress.
    #[inline]
    pub(crate) fn push(&mut self, rank: u32, block: u32, duration_ns: u64) {
        self.rank.push(rank);
        self.block.push(block);
        self.duration_ns.push(duration_ns);
    }

    /// Close the append: the rows pushed since the last one share these.
    pub(crate) fn end_phase(&mut self, phase: Phase, msg_count: u32, msg_bytes: u64) {
        self.appends
            .push((self.rank.len(), phase.code(), msg_count, msg_bytes));
    }

    /// Drop every row, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.rank.clear();
        self.block.clear();
        self.duration_ns.clear();
        self.appends.clear();
    }
}

/// Append `src.len()` slots to `col` and write `src[i]` into slot `dest[i]`.
fn scatter<T: Copy + Default>(col: &mut Vec<T>, src: &[T], dest: &[u32]) {
    let base = col.len();
    col.resize(base + src.len(), T::default());
    let slots = &mut col[base..];
    for (&v, &d) in src.iter().zip(dest) {
        slots[d as usize] = v;
    }
}

/// Replace `col` with `col[idx[0]], col[idx[1]], …`.
fn gather<T: Copy>(col: &mut Vec<T>, idx: &[usize]) {
    *col = idx.iter().map(|&i| col[i]).collect();
}

impl EventTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty table with row capacity pre-reserved.
    pub fn with_capacity(rows: usize) -> Self {
        let mut table = EventTable::new();
        table.reserve(rows);
        table
    }

    /// Reserve room for `rows` more rows in every column.
    pub fn reserve(&mut self, rows: usize) {
        self.step.reserve(rows);
        self.rank.reserve(rows);
        self.block.reserve(rows);
        self.phase.reserve(rows);
        self.duration_ns.reserve(rows);
        self.msg_count.reserve(rows);
        self.msg_bytes.reserve(rows);
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.step.len()
    }

    /// Is the table empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.step.is_empty()
    }

    /// Append one record.
    pub fn push(&mut self, r: EventRecord) {
        self.step.push(r.step);
        self.rank.push(r.rank);
        self.block.push(r.block);
        self.phase.push(r.phase.code());
        self.duration_ns.push(r.duration_ns);
        self.msg_count.push(r.msg_count);
        self.msg_bytes.push(r.msg_bytes);
    }

    /// Append `staged` as the rows of `step`, its row `i` landing at offset
    /// `dest[i]` of the appended rows (`dest` a permutation of them).
    pub(crate) fn extend_scattered(&mut self, step: u32, staged: &StagedStep, dest: &[u32]) {
        let base = self.len();
        self.step.resize(base + dest.len(), step);
        scatter(&mut self.rank, &staged.rank, dest);
        scatter(&mut self.block, &staged.block, dest);
        scatter(&mut self.duration_ns, &staged.duration_ns, dest);
        self.phase.resize(base + dest.len(), 0);
        self.msg_count.resize(base + dest.len(), 0);
        self.msg_bytes.resize(base + dest.len(), 0);
        let (phases, counts) = (&mut self.phase[base..], &mut self.msg_count[base..]);
        let bytes = &mut self.msg_bytes[base..];
        let mut start = 0;
        for &(end, phase, msg_count, msg_bytes) in &staged.appends {
            for &d in &dest[start..end] {
                phases[d as usize] = phase;
                counts[d as usize] = msg_count;
                bytes[d as usize] = msg_bytes;
            }
            start = end;
        }
    }

    /// Materialize row `i` as a record.
    pub fn row(&self, i: usize) -> EventRecord {
        EventRecord {
            step: self.step[i],
            rank: self.rank[i],
            block: self.block[i],
            phase: Phase::from_code(self.phase[i]).expect("valid phase code"),
            duration_ns: self.duration_ns[i],
            msg_count: self.msg_count[i],
            msg_bytes: self.msg_bytes[i],
        }
    }

    /// Iterate over all rows as records.
    pub fn iter(&self) -> impl Iterator<Item = EventRecord> + '_ {
        (0..self.len()).map(move |i| self.row(i))
    }

    // Column accessors (the query layer, views, codec and chunked store all
    // scan these column-at-a-time).

    /// `step` column.
    #[inline]
    pub fn steps(&self) -> &[u32] {
        &self.step
    }
    /// `rank` column.
    #[inline]
    pub fn ranks(&self) -> &[u32] {
        &self.rank
    }
    /// `block` column.
    #[inline]
    pub fn blocks(&self) -> &[u32] {
        &self.block
    }
    /// `phase` column (raw codes).
    #[inline]
    pub fn phases(&self) -> &[u8] {
        &self.phase
    }
    /// `duration_ns` column.
    #[inline]
    pub fn durations(&self) -> &[u64] {
        &self.duration_ns
    }
    /// `msg_count` column.
    #[inline]
    pub fn msg_counts(&self) -> &[u32] {
        &self.msg_count
    }
    /// `msg_bytes` column.
    #[inline]
    pub fn msg_bytes(&self) -> &[u64] {
        &self.msg_bytes
    }

    /// Sort rows by `(step, rank, phase, block)` — the paper's canonical
    /// layout: "telemetry grouped by timestep and sorted by rank" (Lesson 4).
    /// Stable, and a table already in order (what a forward-stepping
    /// [`crate::Collector`] seals) returns after the first pass over the keys.
    pub fn sort_canonical(&mut self) {
        let keys = || {
            let hi = self.step.iter().zip(&self.rank);
            let lo = self.phase.iter().zip(&self.block);
            hi.zip(lo).map(|((&step, &rank), (&phase, &block))| {
                (step as u128) << 72 | (rank as u128) << 40 | (phase as u128) << 32 | block as u128
            })
        };
        if keys().is_sorted() {
            return;
        }
        // The row index breaks ties, so equal keys keep their order.
        let mut keyed: Vec<(u128, usize)> = keys().zip(0..).collect();
        keyed.sort_unstable();
        let idx: Vec<usize> = keyed.into_iter().map(|(_, i)| i).collect();
        gather(&mut self.step, &idx);
        gather(&mut self.rank, &idx);
        gather(&mut self.block, &idx);
        gather(&mut self.phase, &idx);
        gather(&mut self.duration_ns, &idx);
        gather(&mut self.msg_count, &idx);
        gather(&mut self.msg_bytes, &idx);
    }
}

impl FromIterator<EventRecord> for EventTable {
    fn from_iter<T: IntoIterator<Item = EventRecord>>(iter: T) -> Self {
        let mut t = EventTable::new();
        for r in iter {
            t.push(r);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::NO_BLOCK;

    fn sample() -> EventTable {
        vec![
            EventRecord::compute(1, 1, 0, 100),
            EventRecord::compute(0, 1, 0, 200),
            EventRecord::rank_phase(0, 0, Phase::Synchronization, 300),
            EventRecord::compute(0, 0, 1, 400),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn push_and_row_roundtrip() {
        let t = sample();
        assert_eq!(t.len(), 4);
        let r = t.row(2);
        assert_eq!(r.rank, 0);
        assert_eq!(r.phase, Phase::Synchronization);
        assert_eq!(r.block, NO_BLOCK);
    }

    #[test]
    fn sort_canonical_orders_by_step_then_rank() {
        let mut t = sample();
        t.sort_canonical();
        let steps: Vec<u32> = t.iter().map(|r| r.step).collect();
        assert_eq!(steps, vec![0, 0, 0, 1]);
        let ranks: Vec<u32> = t.iter().map(|r| r.rank).collect();
        assert_eq!(&ranks[..3], &[0, 0, 1]);
    }

    #[test]
    fn from_iterator_collects() {
        let t: EventTable = (0..10u32)
            .map(|i| EventRecord::compute(i, i % 3, i, i as u64 * 10))
            .collect();
        assert_eq!(t.len(), 10);
        assert_eq!(t.durations()[9], 90);
    }
}
