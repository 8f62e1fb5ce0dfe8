//! Property-based tests for the telemetry substrate (amr-telemetry).
//!
//! The column-at-a-time kernels (sealed-step ingest, one-pass views, typed
//! group-bys) are held to the row-at-a-time `BTreeMap` implementations they
//! replaced, which live on in [`oracle`].

use amr_tools::telemetry::codec::DecodeError;
use amr_tools::telemetry::query::GroupAgg;
use amr_tools::telemetry::views::{self, StragglerEntry};
use amr_tools::telemetry::{codec, Collector, EventRecord, EventTable, Phase, Query, NO_BLOCK};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn record_strategy() -> impl Strategy<Value = EventRecord> {
    (
        0u32..1000,
        0u32..4096,
        prop_oneof![Just(u32::MAX), 0u32..10_000],
        0usize..Phase::ALL.len(),
        0u64..10_000_000_000,
        0u32..100,
        0u64..(1 << 30),
    )
        .prop_map(
            |(step, rank, block, phase, duration_ns, msg_count, msg_bytes)| EventRecord {
                step,
                rank,
                block,
                phase: Phase::ALL[phase],
                duration_ns,
                msg_count,
                msg_bytes,
            },
        )
}

/// Records over a handful of steps, ranks and blocks, so `(step, rank)`
/// groups and duplicate keys occur; with `saturating`, durations near
/// `u64::MAX` as well, which clamp the group-bys' sums (the view oracles'
/// plain sums are not defined on them).
fn dense_record_strategy(saturating: bool) -> impl Strategy<Value = EventRecord> {
    let huge = if saturating { u64::MAX - 1 } else { 1 << 40 };
    (
        0u32..4,
        0u32..5,
        prop_oneof![Just(NO_BLOCK), 0u32..3],
        0usize..Phase::ALL.len(),
        prop_oneof![0u64..1000, Just(huge)],
        0u32..4,
        0u64..64,
    )
        .prop_map(
            |(step, rank, block, phase, duration_ns, msg_count, msg_bytes)| EventRecord {
                step,
                rank,
                block,
                phase: Phase::ALL[phase],
                duration_ns,
                msg_count,
                msg_bytes,
            },
        )
}

/// One `Collector::record_phase` call: `(step, reseal, phase, msg_count,
/// msg_bytes, rows)`. Steps repeat and go backwards, phases arrive in any
/// order, ranks are dense, sparse or huge, and keys collide.
type Append = (u32, bool, usize, u32, u64, Vec<(u32, u32, u64)>);

fn append_strategy() -> impl Strategy<Value = Append> {
    let rank = prop_oneof![
        0u32..6,
        0u32..4096,
        Just(u32::MAX - 1),
        (u32::MAX - 4)..=u32::MAX
    ];
    let block = prop_oneof![Just(NO_BLOCK), 0u32..4];
    (
        0u32..5,
        any::<bool>(),
        0usize..Phase::ALL.len(),
        0u32..3,
        0u64..3,
        prop::collection::vec((rank, block, 0u64..4), 0..8),
    )
}

/// The row-at-a-time implementations the column kernels replaced, verbatim
/// but for reading rows through `EventTable::iter`.
mod oracle {
    use super::*;

    pub fn group_by<K: Ord>(
        rows: impl Iterator<Item = EventRecord>,
        key: impl Fn(&EventRecord) -> K,
    ) -> BTreeMap<K, GroupAgg> {
        let mut out: BTreeMap<K, GroupAgg> = BTreeMap::new();
        for r in rows {
            let g = out.entry(key(&r)).or_default();
            g.count += 1;
            g.total_duration_ns = g.total_duration_ns.saturating_add(r.duration_ns);
            g.max_duration_ns = g.max_duration_ns.max(r.duration_ns);
            g.total_msg_count = g.total_msg_count.saturating_add(r.msg_count as u64);
            g.total_msg_bytes = g.total_msg_bytes.saturating_add(r.msg_bytes);
            g.durations.push(r.duration_ns as f64);
        }
        out
    }

    pub fn per_rank_secs(rows: impl Iterator<Item = EventRecord>, num_ranks: usize) -> Vec<f64> {
        let mut out = vec![0.0; num_ranks];
        for (rank, agg) in group_by(rows, |r| r.rank) {
            if (rank as usize) < num_ranks {
                out[rank as usize] = agg.total_secs();
            }
        }
        out
    }

    pub fn stragglers_by_step(table: &EventTable) -> Vec<StragglerEntry> {
        let mut per_step: BTreeMap<u32, BTreeMap<u32, u64>> = BTreeMap::new();
        for r in table.iter().filter(|r| r.phase == Phase::Compute) {
            *per_step
                .entry(r.step)
                .or_default()
                .entry(r.rank)
                .or_insert(0) += r.duration_ns;
        }
        per_step
            .into_iter()
            .map(|(step, ranks)| {
                let (&rank, &max) = ranks.iter().max_by_key(|(r, d)| (**d, **r)).unwrap();
                let mean = ranks.values().map(|&d| d as f64).sum::<f64>() / ranks.len() as f64;
                StragglerEntry {
                    step,
                    rank,
                    max_compute_ns: max,
                    mean_compute_ns: mean,
                    imbalance: if mean > 0.0 { max as f64 / mean } else { 1.0 },
                }
            })
            .collect()
    }

    pub fn phase_series(table: &EventTable) -> BTreeMap<u32, BTreeMap<Phase, u64>> {
        let mut out: BTreeMap<u32, BTreeMap<Phase, u64>> = BTreeMap::new();
        for r in table.iter() {
            *out.entry(r.step).or_default().entry(r.phase).or_insert(0) += r.duration_ns;
        }
        out
    }

    pub fn phase_fractions(table: &EventTable) -> BTreeMap<Phase, f64> {
        let by_phase = group_by(table.iter(), |r| r.phase);
        let total: u64 = by_phase.values().map(|g| g.total_duration_ns).sum();
        by_phase
            .into_iter()
            .map(|(p, g)| {
                let share = if total == 0 {
                    0.0
                } else {
                    g.total_duration_ns as f64 / total as f64
                };
                (p, share)
            })
            .collect()
    }
}

/// A valid codec header (magic, version) claiming `rows` rows.
fn codec_header(rows: u64) -> Vec<u8> {
    let mut buf = codec::MAGIC.to_vec();
    buf.extend_from_slice(&codec::VERSION.to_le_bytes());
    buf.extend_from_slice(&rows.to_le_bytes());
    buf
}

/// Floats by bits: the views must reproduce the oracle's rounding, not
/// approximate it.
fn straggler_bits(e: &StragglerEntry) -> (u32, u32, u64, u64, u64) {
    (
        e.step,
        e.rank,
        e.max_compute_ns,
        e.mean_compute_ns.to_bits(),
        e.imbalance.to_bits(),
    )
}

proptest! {
    #[test]
    fn collector_finish_equals_one_canonical_sort(
        appends in prop::collection::vec(append_strategy(), 0..40),
    ) {
        let mut collector = Collector::new();
        let mut pushed = EventTable::new();
        let mut current = 0;
        for (step, reseal, phase, msg_count, msg_bytes, rows) in &appends {
            if *step != current || *reseal {
                collector.begin_step(*step);
                current = *step;
            }
            let phase = Phase::ALL[*phase];
            collector.record_phase(phase, rows.iter().copied(), *msg_count, *msg_bytes);
            for &(rank, block, duration_ns) in rows {
                pushed.push(EventRecord {
                    step: *step,
                    rank,
                    block,
                    phase,
                    duration_ns,
                    msg_count: *msg_count,
                    msg_bytes: *msg_bytes,
                });
            }
        }
        prop_assert_eq!(collector.len(), pushed.len());
        pushed.sort_canonical();
        prop_assert_eq!(collector.finish(), pushed);
    }

    #[test]
    fn sort_canonical_keeps_equal_keys_in_insertion_order(
        records in prop::collection::vec(dense_record_strategy(true), 0..120),
    ) {
        let mut table: EventTable = records.iter().copied().collect();
        table.sort_canonical();
        let mut want = records.clone();
        want.sort_by_key(|r| (r.step, r.rank, r.phase.code(), r.block)); // stable
        prop_assert_eq!(table.iter().collect::<Vec<_>>(), want);
    }

    #[test]
    fn views_equal_their_btreemap_oracles(
        records in prop::collection::vec(
            prop_oneof![dense_record_strategy(false), record_strategy()],
            0..200,
        ),
        canonical: bool,
    ) {
        let mut table: EventTable = records.iter().copied().collect();
        if canonical {
            table.sort_canonical();
        }
        let got = views::stragglers_by_step(&table);
        let want = oracle::stragglers_by_step(&table);
        prop_assert_eq!(
            got.iter().map(straggler_bits).collect::<Vec<_>>(),
            want.iter().map(straggler_bits).collect::<Vec<_>>()
        );
        prop_assert_eq!(
            views::imbalance_series(&table)
                .iter()
                .map(|&(s, x)| (s, x.to_bits()))
                .collect::<Vec<_>>(),
            want.iter().map(|e| (e.step, e.imbalance.to_bits())).collect::<Vec<_>>()
        );
        prop_assert_eq!(views::phase_series(&table), oracle::phase_series(&table));
        let bits = |m: BTreeMap<Phase, f64>| -> Vec<(Phase, u64)> {
            m.into_iter().map(|(p, x)| (p, x.to_bits())).collect()
        };
        prop_assert_eq!(
            bits(views::phase_fractions(&table)),
            bits(oracle::phase_fractions(&table))
        );
    }

    #[test]
    fn typed_group_bys_equal_the_record_group_by(
        records in prop::collection::vec(dense_record_strategy(true), 0..200),
        canonical: bool,
        phase in prop::option::of(0usize..Phase::ALL.len()),
        lo in 0u32..4,
    ) {
        let mut table: EventTable = records.iter().copied().collect();
        if canonical {
            table.sort_canonical();
        }
        // The same selection both ways: typed filters vs a row filter.
        let phase = phase.map(|p| Phase::ALL[p]);
        let mut q = Query::new(&table).step_range(lo, lo + 2);
        if let Some(p) = phase {
            q = q.phase(p);
        }
        let selected = || {
            table
                .iter()
                .filter(|r| r.step >= lo && r.step < lo + 2 && phase.is_none_or(|p| r.phase == p))
        };
        prop_assert_eq!(q.count(), selected().count());
        prop_assert_eq!(q.records(), selected().collect::<Vec<_>>());
        prop_assert_eq!(q.by_rank(), oracle::group_by(selected(), |r| r.rank));
        prop_assert_eq!(q.by_step(), oracle::group_by(selected(), |r| r.step));
        prop_assert_eq!(q.by_phase(), oracle::group_by(selected(), |r| r.phase));
        prop_assert_eq!(q.by_block(), oracle::group_by(selected(), |r| r.block));
        prop_assert_eq!(q.group_by(|r| r.rank), q.by_rank());
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        prop_assert_eq!(bits(q.per_rank_secs(4)), bits(oracle::per_rank_secs(selected(), 4)));
        // Unfiltered: no index is ever built.
        let all = Query::new(&table);
        prop_assert_eq!(all.by_step(), oracle::group_by(table.iter(), |r| r.step));
        prop_assert_eq!(all.summary().count, table.len());
        prop_assert_eq!(
            all.summary().total_duration_ns,
            all.by_phase().values().fold(0u64, |a, g| a.saturating_add(g.total_duration_ns))
        );
    }

    #[test]
    fn decode_rejects_every_bad_phase_byte(
        records in prop::collection::vec(record_strategy(), 1..50),
        row in 0usize..50,
        bad in (Phase::ALL.len() as u8)..=u8::MAX,
    ) {
        let table: EventTable = records.iter().copied().collect();
        let mut buf = codec::encode(&table);
        let phase_column = 16 + 3 * 4 * table.len();
        buf[phase_column + row % table.len()] = bad;
        prop_assert_eq!(codec::decode(&buf).unwrap_err(), DecodeError::BadPhase(bad));
    }

    #[test]
    fn binary_codec_roundtrips(records in prop::collection::vec(record_strategy(), 0..200)) {
        let table: EventTable = records.iter().copied().collect();
        let decoded = codec::decode(&codec::encode(&table)).unwrap();
        prop_assert_eq!(decoded.len(), table.len());
        for i in 0..table.len() {
            prop_assert_eq!(decoded.row(i), table.row(i));
        }
    }

    #[test]
    fn csv_codec_roundtrips(records in prop::collection::vec(record_strategy(), 0..100)) {
        let table: EventTable = records.iter().copied().collect();
        let parsed = codec::from_csv(&codec::to_csv(&table)).unwrap();
        prop_assert_eq!(parsed.len(), table.len());
        for i in 0..table.len() {
            prop_assert_eq!(parsed.row(i), table.row(i));
        }
    }

    #[test]
    fn truncated_binary_never_panics(
        records in prop::collection::vec(record_strategy(), 0..50),
        cut in 0usize..200,
    ) {
        let table: EventTable = records.iter().copied().collect();
        let buf = codec::encode(&table);
        let cut = cut.min(buf.len());
        // Must return an error or a valid table, never panic.
        let _ = codec::decode(&buf[..cut]);
    }

    #[test]
    fn malformed_codec_header_never_overallocates(
        rows in prop_oneof![0u64..8, any::<u64>()],
        tail in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        // 16 bytes that promise 2⁶⁴ − 1 rows: an error, not seven columns
        // sized from the header.
        prop_assert_eq!(
            codec::decode(&codec_header(u64::MAX)).unwrap_err(),
            DecodeError::Truncated
        );
        let mut buf = codec_header(rows);
        buf.extend_from_slice(&tail);
        // Every row takes its 33 encoded bytes.
        if let Ok(table) = codec::decode(&buf) {
            prop_assert!(table.len() as u64 == rows && tail.len() >= 33 * table.len());
        }
    }

    #[test]
    fn codec_decode_never_panics_on_arbitrary_bytes(
        records in prop::collection::vec(record_strategy(), 0..8),
        keep: usize,
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        // Arbitrary bytes behind a prefix of a valid buffer, so they reach
        // every column's parser instead of stopping at `BadMagic`.
        let table: EventTable = records.iter().copied().collect();
        let valid = codec::encode(&table);
        let mut buf = valid[..keep % (valid.len() + 1)].to_vec();
        buf.extend_from_slice(&bytes);
        let _ = codec::decode(&buf);
    }

    #[test]
    fn codec_decode_never_panics_on_a_single_byte_overwrite(
        records in prop::collection::vec(record_strategy(), 0..40),
        // Half the overwrites land in the 16-byte header.
        at in prop_oneof![0usize..16, any::<usize>()],
        byte: u8,
    ) {
        let table: EventTable = records.iter().copied().collect();
        let mut buf = codec::encode(&table);
        let at = at % buf.len();
        buf[at] = byte;
        // Outside the row count (header bytes 8..16) a table that decodes
        // has the original's length.
        if let Ok(back) = codec::decode(&buf) {
            prop_assert!((8usize..16).contains(&at) || back.len() == table.len());
        }
    }

    #[test]
    fn group_bys_partition_the_table(records in prop::collection::vec(record_strategy(), 0..200)) {
        let table: EventTable = records.iter().copied().collect();
        let q = Query::new(&table);
        for groups in [
            q.by_rank().values().map(|g| g.count).sum::<usize>(),
            q.by_step().values().map(|g| g.count).sum::<usize>(),
            q.by_phase().values().map(|g| g.count).sum::<usize>(),
        ] {
            prop_assert_eq!(groups, table.len());
        }
        // Total duration is preserved by grouping.
        let direct: u64 = table.durations().iter().sum();
        let grouped: u64 = q.by_rank().values().map(|g| g.total_duration_ns).sum();
        prop_assert_eq!(direct, grouped);
    }

    #[test]
    fn filters_are_complementary(
        records in prop::collection::vec(record_strategy(), 0..200),
        pivot in 0u32..1000,
    ) {
        let table: EventTable = records.iter().copied().collect();
        let below = Query::new(&table).step_range(0, pivot).count();
        let above = Query::new(&table).step_range(pivot, u32::MAX).count();
        prop_assert_eq!(below + above, table.len());
    }

    #[test]
    fn sort_canonical_is_stable_permutation(
        records in prop::collection::vec(record_strategy(), 0..200),
    ) {
        let mut table: EventTable = records.iter().copied().collect();
        let total_before: u64 = table.durations().iter().sum();
        table.sort_canonical();
        prop_assert_eq!(table.len(), records.len());
        let total_after: u64 = table.durations().iter().sum();
        prop_assert_eq!(total_before, total_after);
        // Ordered by (step, rank, phase, block).
        for i in 1..table.len() {
            let a = table.row(i - 1);
            let b = table.row(i);
            let ka = (a.step, a.rank, a.phase.code(), a.block);
            let kb = (b.step, b.rank, b.phase.code(), b.block);
            prop_assert!(ka <= kb);
        }
    }
}
