//! Property tests for the chunked columnar store: zone-map pushdown must be
//! an exact optimization — identical results to a full filter scan for any
//! predicate, any data, any chunk size — and the zone maps it folds over the
//! borrowed table must be those of a copy of each chunk.

use amr_tools::telemetry::chunked::{ChunkStats, ChunkedStore, Predicate};
use amr_tools::telemetry::{codec, EventRecord, EventTable, Phase};
use proptest::prelude::*;

/// The zone maps of `table` the way the store once folded them: every chunk
/// copied out into a table of its own, then folded column by column.
fn copied_chunk_stats(table: &EventTable, chunk_rows: usize) -> Vec<ChunkStats> {
    let rows: Vec<EventRecord> = table.iter().collect();
    rows.chunks(chunk_rows)
        .map(|chunk| {
            let copy: EventTable = chunk.iter().copied().collect();
            let (steps, ranks, durations) = (copy.steps(), copy.ranks(), copy.durations());
            // `chunks` yields no empty chunk: every `min` / `max` is `Some`.
            ChunkStats {
                rows: copy.len() as u32,
                step_min: *steps.iter().min().unwrap(),
                step_max: *steps.iter().max().unwrap(),
                rank_min: *ranks.iter().min().unwrap(),
                rank_max: *ranks.iter().max().unwrap(),
                duration_min: *durations.iter().min().unwrap(),
                duration_max: *durations.iter().max().unwrap(),
                phase_mask: copy.phases().iter().fold(0, |mask, &p| mask | 1 << p),
            }
        })
        .collect()
}

#[test]
fn empty_table_has_no_chunks() {
    let table = EventTable::new();
    for chunk_rows in 1..=2 {
        let store = ChunkedStore::build(&table, chunk_rows);
        assert_eq!(store.num_chunks(), 0);
        assert_eq!(store.num_rows(), 0);
        assert_eq!(store.stats(), copied_chunk_stats(&table, chunk_rows));
        let scan = store.scan(&Predicate::default());
        assert!(scan.rows.is_empty());
        assert_eq!(scan.chunks_pruned + scan.chunks_scanned, 0);
    }
}

fn record_strategy() -> impl Strategy<Value = EventRecord> {
    (
        0u32..64,
        0u32..32,
        0u32..100,
        0usize..Phase::ALL.len(),
        0u64..1_000_000,
    )
        .prop_map(|(step, rank, block, phase, duration_ns)| EventRecord {
            step,
            rank,
            block,
            phase: Phase::ALL[phase],
            duration_ns,
            msg_count: 0,
            msg_bytes: 0,
        })
}

fn predicate_strategy() -> impl Strategy<Value = Predicate> {
    (
        prop::option::of((0u32..64, 0u32..64)),
        prop::option::of((0u32..32, 0u32..32)),
        prop::option::of(0u64..1_000_000),
        prop::option::of(0usize..Phase::ALL.len()),
    )
        .prop_map(|(step, rank, min_dur, phase)| Predicate {
            step: step.map(|(a, b)| (a.min(b), a.max(b))),
            rank: rank.map(|(a, b)| (a.min(b), a.max(b))),
            min_duration_ns: min_dur,
            phase: phase.map(|p| Phase::ALL[p]),
        })
}

proptest! {
    #[test]
    fn pushdown_scan_equals_full_filter(
        records in prop::collection::vec(record_strategy(), 0..500),
        chunk_rows in 1usize..64,
        pred in predicate_strategy(),
        sort_first: bool,
    ) {
        let mut table: EventTable = records.iter().copied().collect();
        if sort_first {
            table.sort_canonical();
        }
        let store = ChunkedStore::build(&table, chunk_rows);
        prop_assert_eq!(store.num_rows(), table.len());

        let scan = store.scan(&pred);
        let expected: Vec<EventRecord> =
            table.iter().filter(|r| pred.matches(r)).collect();
        prop_assert_eq!(&scan.rows, &expected, "pushdown changed the result set");
        prop_assert_eq!(
            scan.chunks_pruned + scan.chunks_scanned,
            store.num_chunks()
        );
    }

    #[test]
    fn pruned_chunks_really_had_no_matches(
        records in prop::collection::vec(record_strategy(), 1..300),
        pred in predicate_strategy(),
    ) {
        // Zone maps must never prune a chunk containing a match: verified
        // indirectly by equality above, and directly here via counts.
        let mut table: EventTable = records.iter().copied().collect();
        table.sort_canonical();
        let store = ChunkedStore::build(&table, 32);
        let scan = store.scan(&pred);
        let expected = table.iter().filter(|r| pred.matches(r)).count();
        prop_assert_eq!(scan.rows.len(), expected);
    }

    #[test]
    fn zone_maps_equal_those_of_copied_chunks(
        records in prop::collection::vec(record_strategy(), 0..120),
        sort_first: bool,
    ) {
        let mut table: EventTable = records.iter().copied().collect();
        if sort_first {
            table.sort_canonical();
        }
        // Every chunk size from one row a chunk to one chunk with room over.
        for chunk_rows in 1..=table.len() + 2 {
            let store = ChunkedStore::build(&table, chunk_rows);
            prop_assert_eq!(store.num_chunks(), table.len().div_ceil(chunk_rows));
            prop_assert_eq!(store.stats(), copied_chunk_stats(&table, chunk_rows));
        }
    }

    #[test]
    fn encode_decode_preserves_scans(
        records in prop::collection::vec(record_strategy(), 0..200),
        chunk_rows in 1usize..64,
        pred in predicate_strategy(),
    ) {
        // A stored table is its codec buffer; its store is rebuilt on load.
        let table: EventTable = records.iter().copied().collect();
        let store = ChunkedStore::build(&table, chunk_rows);
        let decoded = codec::decode(&codec::encode(&table)).unwrap();
        let back = ChunkedStore::build(&decoded, chunk_rows);
        prop_assert_eq!(back.stats(), store.stats());
        prop_assert_eq!(back.scan(&pred).rows, store.scan(&pred).rows);
    }
}
