//! Criterion benchmarks for the simulator: micro-round throughput and
//! macro-step cost — establishing that the simulation substrate itself is
//! cheap enough to sweep the paper's parameter space.

use amr_core::policies::Baseline;
use amr_core::policies::PlacementPolicy;
use amr_core::trigger::RebalanceTrigger;
use amr_mesh::{Dim, MeshConfig};
use amr_sim::{MacroSim, MicroSim, NetworkConfig, RoundSpec, SimConfig, TaskOrder, Topology};
use amr_workloads::cooling::CoolingConfig;
use amr_workloads::exchange::build_round_messages;
use amr_workloads::{random_refined_mesh, CoolingWorkload};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn bench_micro_round(c: &mut Criterion) {
    let ranks = 512;
    let mesh = random_refined_mesh(ranks, 1.6, 1);
    let placement = Baseline.place(&vec![1.0; mesh.num_blocks()], ranks);
    let spec = RoundSpec {
        num_ranks: ranks,
        compute_ns: vec![100_000; ranks],
        messages: build_round_messages(&mesh, &placement),
        order: TaskOrder::SendsFirst,
    };
    let mut group = c.benchmark_group("microsim");
    group.throughput(Throughput::Elements(spec.messages.len() as u64));
    group.bench_function("round_512_ranks", |b| {
        let mut sim = MicroSim::new(Topology::paper(ranks), NetworkConfig::tuned(), 3);
        b.iter(|| std::hint::black_box(sim.run_round(&spec).round_latency_ns))
    });
    group.finish();
}

fn bench_macro_steps(c: &mut Criterion) {
    let mut group = c.benchmark_group("macrosim");
    group.sample_size(10);
    group.bench_function("cooling_64_ranks_50_steps", |b| {
        b.iter(|| {
            let mesh = MeshConfig::from_cells(Dim::D3, (64, 64, 64), 1);
            let mut w = CoolingWorkload::new(CoolingConfig::new(mesh, 50));
            let mut cfg = SimConfig::tuned(64);
            cfg.telemetry_sampling = 1000; // effectively off
            let mut sim = MacroSim::new(cfg);
            std::hint::black_box(
                sim.run(&mut w, &Baseline, RebalanceTrigger::OnMeshChange)
                    .total_ns,
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_micro_round, bench_macro_steps);
criterion_main!(benches);
