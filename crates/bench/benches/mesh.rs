//! Criterion benchmarks for the mesh substrate: SFC keys and refinement
//! with 2:1 balance. The neighbor graph's build and patch are timed by the
//! repo benchmark (`mesh.graph_build_ms`, `mesh.graph_patch_ms`).

use amr_mesh::{sfc_key, AmrMesh, Dim, MeshConfig, Octant, Point, RefineTag};
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

criterion_group!(benches, bench_sfc_keys, bench_refinement);
criterion_main!(benches);
