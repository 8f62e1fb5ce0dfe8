//! The hierarchical trajectory at a rank count the flat data path has no
//! business at (default 2^20 ranks, ~1.7M blocks): mesh build → streamed
//! per-node CSR (one `ShardGraph` resident at a time, one shard per 16-rank
//! node) → two-stage `Hierarchical` placement, cold then warm → a short
//! macro-simulated trajectory on the sharded topology, at 1 thread and at
//! `--threads`, whose virtual time must agree bit for bit.
//!
//! `cargo run -p amr-bench --release --bin scale_hier -- [--ranks 1048576] [--steps 4] [--threads 4]`

use amr_bench::{fmt_s, render_table, Args};
use amr_core::engine::PlacementEngine;
use amr_core::policies::Hierarchical;
use amr_core::trigger::RebalanceTrigger;
use amr_mesh::{build_shard, plan_shard_bounds, AmrMesh, ShardGraph};
use amr_sim::{MacroSim, SimConfig, Workload, WorkloadStep};
use amr_workloads::{large_refined_mesh, random_refined_mesh};
use std::time::Instant;

/// Static mesh with fixed per-block costs.
struct StaticWorkload<'a> {
    mesh: &'a AmrMesh,
    costs: &'a [f64],
    steps: u64,
}

impl Workload for StaticWorkload<'_> {
    fn mesh(&self) -> &AmrMesh {
        self.mesh
    }
    fn advance(&mut self, _step: u64) -> WorkloadStep {
        WorkloadStep::default()
    }
    fn block_compute_ns(&self) -> &[f64] {
        self.costs
    }
    fn total_steps(&self) -> u64 {
        self.steps
    }
}

/// Run `f`, returning its result and wall nanoseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_nanos() as f64)
}

fn main() {
    let args = Args::from_env();
    let ranks = args.get_usize("ranks", 1 << 20);
    let steps = args.get_u64("steps", 4);
    let threads = args.get_usize("threads", 4);
    let ranks_per_node = 16; // Topology::paper's node width
    let nodes = (ranks / ranks_per_node).max(1);
    let mut rows = Vec::new();
    let mut row = |stage: &str, ns: f64, detail: String| {
        rows.push(vec![stage.to_string(), format!("{:.1}", ns / 1e6), detail]);
    };
    // Past 2^16 ranks the root grid hits the Morton budget, so block count
    // comes from refinement depth instead of root count.
    let (mesh, ns) = timed(|| match ranks {
        0..=65_536 => random_refined_mesh(ranks, 1.6, 1),
        _ => large_refined_mesh((ranks as f64 * 1.6) as usize, 1),
    });
    let blocks = mesh.num_blocks();
    row("mesh build", ns, format!("{blocks} blocks"));

    let ((relations, halo), ns) = timed(|| {
        let bounds = plan_shard_bounds(&mesh, nodes);
        let mut g = ShardGraph::default();
        (0..nodes).fold((0, 0), |(rel, halo), s| {
            build_shard(&mesh, &bounds, s, &mut g);
            (rel + g.total_relations(), halo + g.halo().len())
        })
    });
    let detail = format!("{nodes} shards, {relations} relations, {halo} halo blocks");
    row("streamed per-node CSR", ns, detail);

    // ~6 blocks per stage-1 unit: enough resolution for the cut refinement
    // to balance nodes without drowning stage 1 in degenerate shards.
    let policy = Hierarchical::new(nodes * 4, ranks_per_node);
    let cost = |i: usize| 1.0e6 * (1.0 + 0.37 * (i % 13) as f64); // mildly skewed
    let costs: Vec<f64> = (0..blocks).map(cost).collect();
    let mut engine = PlacementEngine::new();
    let mut place = || timed(|| engine.rebalance(&policy, &costs, ranks).expect("place")).1;
    row("hierarchical place, cold", place(), String::new());
    place();
    row("hierarchical place, warm", place(), String::new());

    // Resident shards coarser than per-node keep the epoch walk
    // cache-friendly without changing any virtual number.
    let trajectory = |threads: usize| {
        let mut cfg = SimConfig::tuned(ranks);
        cfg.telemetry_sampling = 1_000_000;
        cfg.num_shards = nodes.min(256);
        cfg.threads = threads;
        let (mesh, costs) = (&mesh, &costs[..]);
        let mut w = StaticWorkload { mesh, costs, steps };
        let mut sim = MacroSim::new(cfg);
        timed(|| sim.run(&mut w, &policy, RebalanceTrigger::OnMeshChange))
    };
    let (serial, ns) = trajectory(1);
    let virt = format!("virtual {} s", fmt_s(serial.total_ns));
    row(&format!("{steps} steps, 1 thread"), ns, virt);
    if threads > 1 {
        // The static trajectory never rebalances mid-run, so even total
        // virtual time is wall-clock-free and must match bit for bit.
        let (pooled, tns) = trajectory(threads);
        assert_eq!(
            pooled.total_ns.to_bits(),
            serial.total_ns.to_bits(),
            "trajectory at {threads} threads diverged from serial"
        );
        let detail = format!("{:.2}x, virtual time bit-identical", ns / tns);
        row(&format!("{steps} steps, {threads} threads"), tns, detail);
    }

    println!("== Hierarchical trajectory: {ranks} ranks, {nodes} nodes (host wall-clock) ==\n");
    print!("{}", render_table(&["stage", "wall ms", "detail"], &rows));
}
