//! Criterion benchmarks for the telemetry substrate: ingest throughput,
//! query latency and codec bandwidth — the "low-latency, queryable insight"
//! requirement of §IV-C.

use amr_telemetry::{
    codec, views, ChunkedStore, Collector, EventRecord, EventTable, Phase, Predicate, Query,
    NO_BLOCK,
};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn sample_table(rows: usize) -> EventTable {
    (0..rows as u32)
        .map(|i| EventRecord {
            step: i / 512,
            rank: i % 512,
            block: i % 1024,
            phase: Phase::ALL[(i % 6) as usize],
            duration_ns: 1000 + (i as u64 * 37) % 100_000,
            msg_count: i % 26,
            msg_bytes: (i as u64 * 409) % 20_480,
        })
        .collect()
}

/// The repo benchmark's `fault_diagnose` ingest shape, driven the way the
/// simulator drives it: per step one column append per phase (per-block and
/// per-rank Compute, BoundaryComm, Synchronization, sparse FluxCorrection),
/// sealed at the next `begin_step`.
fn collected_table() -> EventTable {
    const STEPS: u32 = 60;
    const BLOCKS: usize = 1695;
    const RANKS: usize = 1024;
    let owner: Vec<u32> = (0..BLOCKS).map(|b| ((b * 7919) % RANKS) as u32).collect();
    let measured: Vec<f64> = (0..BLOCKS)
        .map(|b| 1.0e6 * (1.0 + 0.37 * (b % 13) as f64))
        .collect();
    let ranks = |scale: u64| (0..RANKS as u32).map(move |r| (r, NO_BLOCK, scale * (r as u64 + 1)));
    let mut c = Collector::new();
    c.reserve(STEPS as usize * (BLOCKS + 4 * RANKS));
    for step in 0..STEPS {
        c.begin_step(step);
        let blocks = owner.iter().zip(&measured).enumerate();
        c.record_phase(
            Phase::Compute,
            blocks.map(|(b, (&rank, &t))| (rank, b as u32, t as u64)),
            0,
            0,
        );
        c.record_phase(Phase::Compute, ranks(2_000), 0, 0);
        c.record_phase(Phase::BoundaryComm, ranks(600), 26, 0);
        c.record_phase(Phase::Synchronization, ranks(150), 0, 0);
        c.record_phase(
            Phase::FluxCorrection,
            ranks(9).filter(|r| r.0 % 4 != 0),
            0,
            0,
        );
    }
    c.finish()
}

fn bench_ingest(c: &mut Criterion) {
    let rows = 100_000;
    let mut group = c.benchmark_group("telemetry_ingest");
    group.throughput(Throughput::Elements(rows as u64));
    group.bench_function("push_100k", |b| {
        b.iter(|| std::hint::black_box(sample_table(rows).len()))
    });
    group.throughput(Throughput::Elements(collected_table().len() as u64));
    group.bench_function("collector_60x1695x1024", |b| {
        b.iter(|| std::hint::black_box(collected_table().len()))
    });
    group.finish();
}

fn bench_views(c: &mut Criterion) {
    let table = collected_table();
    let mut group = c.benchmark_group("telemetry_views");
    group.throughput(Throughput::Elements(table.len() as u64));
    group.bench_function("stragglers_by_step", |b| {
        b.iter(|| std::hint::black_box(views::stragglers_by_step(&table).len()))
    });
    group.bench_function("imbalance_series", |b| {
        b.iter(|| std::hint::black_box(views::imbalance_series(&table).len()))
    });
    group.bench_function("phase_series", |b| {
        b.iter(|| std::hint::black_box(views::phase_series(&table).len()))
    });
    group.bench_function("phase_fractions", |b| {
        b.iter(|| std::hint::black_box(views::phase_fractions(&table).len()))
    });
    group.finish();
}

fn bench_queries(c: &mut Criterion) {
    let table = sample_table(100_000);
    let mut group = c.benchmark_group("telemetry_query");
    group.throughput(Throughput::Elements(table.len() as u64));
    group.bench_function("filter_phase", |b| {
        b.iter(|| Query::new(&table).phase(Phase::Compute).count())
    });
    group.bench_function("group_by_rank", |b| {
        b.iter(|| Query::new(&table).by_rank().len())
    });
    group.bench_function("correlate_volume_time", |b| {
        b.iter(|| {
            Query::new(&table)
                .phase(Phase::BoundaryComm)
                .correlate_groups(
                    |r| r.rank,
                    |g| g.total_msg_bytes as f64,
                    |g| g.total_duration_ns as f64,
                )
        })
    });
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let table = sample_table(100_000);
    let encoded = codec::encode(&table);
    let mut group = c.benchmark_group("telemetry_codec");
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("encode_binary", |b| {
        b.iter(|| std::hint::black_box(codec::encode(&table).len()))
    });
    group.bench_function("decode_binary", |b| {
        b.iter(|| std::hint::black_box(codec::decode(&encoded).unwrap().len()))
    });
    group.bench_function("encode_csv", |b| {
        b.iter(|| std::hint::black_box(codec::to_csv(&table).len()))
    });
    group.finish();
}

fn bench_pushdown(c: &mut Criterion) {
    // Lesson 4's zone-map pruning vs a full filter scan: a narrow step-range
    // query over canonically sorted telemetry.
    let mut table = sample_table(200_000);
    table.sort_canonical();
    let store = ChunkedStore::build(&table, 4096);
    let pred = Predicate {
        step: Some((100, 101)),
        phase: Some(Phase::MpiWait),
        ..Predicate::default()
    };
    let mut group = c.benchmark_group("telemetry_pushdown");
    group.throughput(Throughput::Elements(table.len() as u64));
    group.bench_function("zone_map_build", |b| {
        b.iter(|| std::hint::black_box(ChunkedStore::build(&table, 4096).num_chunks()))
    });
    group.bench_function("zone_map_scan", |b| {
        b.iter(|| std::hint::black_box(store.scan(&pred).rows.len()))
    });
    group.bench_function("full_filter_scan", |b| {
        b.iter(|| {
            std::hint::black_box(
                Query::new(&table)
                    .step_range(100, 102)
                    .phase(Phase::MpiWait)
                    .count(),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_ingest,
    bench_views,
    bench_queries,
    bench_codec,
    bench_pushdown
);
criterion_main!(benches);
