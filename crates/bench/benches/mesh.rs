//! Criterion benchmarks for the mesh substrate: SFC keys, refinement with
//! 2:1 balance, and neighbor-graph construction and repair — the operations
//! on the redistribution critical path (§V-A's three-step pipeline).

use amr_mesh::{
    sfc_key, AmrMesh, Dim, MeshConfig, Octant, PatchScratch, Point, RefineTag, WorkerPool,
};
use amr_sim::Workload;
use amr_workloads::meshgen::random_refined_mesh;
use amr_workloads::SedovScenario;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn refined_mesh(roots: u32) -> AmrMesh {
    let mut mesh = AmrMesh::new(MeshConfig::from_cells(
        Dim::D3,
        (roots * 16, roots * 16, roots * 16),
        2,
    ));
    let hot = Point::new(0.3, 0.4, 0.5);
    mesh.adapt(|b| {
        if b.bounds.distance_to_point(&hot) < 0.2 {
            RefineTag::Refine
        } else {
            RefineTag::Keep
        }
    });
    mesh
}

fn bench_sfc_keys(c: &mut Criterion) {
    let mut group = c.benchmark_group("sfc_key");
    let octants: Vec<Octant> = (0..4096u32)
        .map(|i| Octant::new(8, i % 256, (i / 16) % 256, (i / 256) % 256))
        .collect();
    group.throughput(Throughput::Elements(octants.len() as u64));
    group.bench_function("batch_4096", |b| {
        b.iter(|| {
            octants
                .iter()
                .map(|o| sfc_key(o, Dim::D3))
                .fold(0u64, |a, k| a ^ k)
        })
    });
    group.finish();
}

fn bench_refinement(c: &mut Criterion) {
    let mut group = c.benchmark_group("refine_ball");
    for roots in [4u32, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(roots), &roots, |b, &roots| {
            b.iter(|| std::hint::black_box(refined_mesh(roots).num_blocks()))
        });
    }
    group.finish();
}

/// A fresh serial build (`neighbor_graph()` would time the mesh handing
/// back the graph it keeps after the first iteration).
fn bench_neighbor_graph(c: &mut Criterion) {
    let mut group = c.benchmark_group("neighbor_graph");
    let serial = WorkerPool::new(1);
    for roots in [4u32, 8] {
        let mesh = refined_mesh(roots);
        group.throughput(Throughput::Elements(mesh.num_blocks() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(mesh.num_blocks()),
            &mesh,
            |b, mesh| {
                b.iter(|| std::hint::black_box(mesh.neighbor_graph_on(&serial).total_relations()))
            },
        );
    }
    group.finish();
}

/// One mid-run remesh of the Table-I 512-rank Sedov blast: repairing the
/// pre-adapt graph through the adapt's delta against building the post-adapt
/// graph from scratch, per row of the new graph. (Each patch starts from a
/// clone of the pre-adapt graph, which shares its arrays, so every patch
/// writes fresh output arrays instead of swapping with its scratch.)
fn bench_graph_patch(c: &mut Criterion) {
    let mut w = SedovScenario::for_ranks(512, 200).workload();
    let mut before = w.mesh().neighbor_graph();
    for step in 0.. {
        if w.advance(step).mesh_changed {
            if step >= w.total_steps() / 2 {
                break;
            }
            before = w.mesh().neighbor_graph();
        }
    }
    let mesh = w.mesh();
    let delta = mesh.last_delta();
    assert_eq!(before.num_blocks(), delta.blocks_before);
    let mut group = c.benchmark_group("graph_patch");
    group.throughput(Throughput::Elements(delta.blocks_after as u64));
    let mut scratch = PatchScratch::default();
    group.bench_function("patch", |b| {
        b.iter(|| {
            let mut graph = before.clone();
            assert!(mesh.patch_neighbor_graph(&mut graph, &mut scratch));
            std::hint::black_box(graph.total_relations())
        })
    });
    group.bench_function("build", |b| {
        b.iter(|| std::hint::black_box(mesh.build_neighbor_graph().total_relations()))
    });
    group.finish();
}

/// The full build per row, beside `graph_patch`'s per-row repair: the
/// repo benchmark's `static_scale` mesh (16384 ranks, 28 884 blocks) serial
/// and on the global pool, and one serial sweep over 96 service-sized shapes
/// (the cold-shape builds of `service_mix`, which never leave the serial
/// path).
fn bench_graph_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_build");
    let mesh = random_refined_mesh(16384, 1.6, 0x5EED);
    group.throughput(Throughput::Elements(mesh.num_blocks() as u64));
    let serial = WorkerPool::new(1);
    for (name, pool) in [("serial", &serial), ("pool", WorkerPool::global())] {
        group.bench_function(BenchmarkId::new(name, mesh.num_blocks()), |b| {
            b.iter(|| std::hint::black_box(mesh.neighbor_graph_on(pool).total_relations()))
        });
    }
    let shapes: Vec<AmrMesh> = (0..96)
        .map(|seed| random_refined_mesh(16, 6.0, seed))
        .collect();
    let rows: usize = shapes.iter().map(AmrMesh::num_blocks).sum();
    group.throughput(Throughput::Elements(rows as u64));
    group.bench_function("shapes_96", |b| {
        b.iter(|| {
            let relations = shapes
                .iter()
                .map(|m| m.neighbor_graph_on(&serial).total_relations());
            std::hint::black_box(relations.sum::<usize>())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sfc_keys,
    bench_refinement,
    bench_neighbor_graph,
    bench_graph_patch,
    bench_graph_build
);
criterion_main!(benches);
