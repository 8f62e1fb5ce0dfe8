//! The hierarchical trajectory at scale (default 2^20 ranks, ~1.7M blocks):
//! mesh build → the mesh's neighbor graph, kept → two-stage `Hierarchical`
//! placement, cold then warm → a short macro-simulated trajectory over that
//! kept graph, flat and sharded (one shard per 16-rank node, at most 256),
//! each at 1 thread and at `--threads`. The four legs' virtual phases and
//! message counts must agree bit for bit, and none may build the graph
//! again; the walls show what sharding costs. Every stage also prints the
//! minor page faults it took (`/proc/self/stat` field 10; `-` where that
//! file does not exist), which tell a cold first trajectory from a warm one.
//!
//! `cargo run -p amr-bench --release --bin scale_hier -- [--ranks 1048576] [--steps 4] [--threads 4]`

use amr_bench::{fmt_s, render_table, Args};
use amr_core::engine::PlacementEngine;
use amr_core::policies::Hierarchical;
use amr_core::trigger::RebalanceTrigger;
use amr_mesh::AmrMesh;
use amr_sim::{MacroSim, SimConfig, Workload, WorkloadStep};
use amr_telemetry::trace::{Counter, TraceHandle};
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

/// The process's minor page faults so far: field 10 of `/proc/self/stat`,
/// counted from the fields after the parenthesised command name (which may
/// hold spaces). `None` where the file does not exist or does not parse.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let after_comm = &stat[stat.rfind(')')? + 1..];
    after_comm.split_whitespace().nth(10 - 3)?.parse().ok()
}

/// What one stage cost: wall nanoseconds and minor faults.
struct Cost {
    ns: f64,
    faults: Option<u64>,
}

/// Run `f`, returning its result and its wall time and minor faults.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let faults = minor_faults();
    let t = Instant::now();
    let r = f();
    let ns = t.elapsed().as_nanos() as f64;
    let faults = minor_faults()
        .zip(faults)
        .map(|(after, before)| after - before);
    (r, Cost { ns, faults })
}

fn main() {
    let args = Args::from_env();
    let ranks = args.get_usize("ranks", 1 << 20);
    let steps = args.get_u64("steps", 4);
    let threads = args.get_usize("threads", 4);
    let ranks_per_node = 16; // Topology::paper's node width
    let nodes = (ranks / ranks_per_node).max(1);
    let mut rows = Vec::new();
    let mut row = |stage: &str, cost: Cost, detail: String| {
        let faults = cost.faults.map_or("-".to_string(), |f| f.to_string());
        let wall = format!("{:.1}", cost.ns / 1e6);
        rows.push(vec![stage.to_string(), wall, faults, detail]);
    };
    // Past 2^16 ranks the root grid hits the Morton budget, so block count
    // comes from refinement depth instead of root count.
    let (mut mesh, cost) = timed(|| match ranks {
        0..=65_536 => random_refined_mesh(ranks, 1.6, 1),
        _ => large_refined_mesh((ranks as f64 * 1.6) as usize, 1),
    });
    let blocks = mesh.num_blocks();
    row("mesh build", cost, format!("{blocks} blocks"));

    // Kept by the mesh: every trajectory leg below reads it, and the mesh's
    // trace counts the one build.
    let trace = TraceHandle::new(16);
    mesh.set_trace(Some(trace.clone()));
    let builds = || trace.metrics().counter(Counter::GraphFullBuilds);
    let (relations, cost) = timed(|| mesh.neighbor_graph().total_relations());
    row("neighbor graph", cost, format!("{relations} relations"));
    assert_eq!(builds(), 1);

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

    // One shard per node, at most 256; no virtual phase depends on the
    // count.
    let shards = nodes.min(256);
    let trajectory = |num_shards: usize, threads: usize| {
        let mut cfg = SimConfig::tuned(ranks);
        cfg.telemetry_sampling = 1_000_000;
        cfg.num_shards = num_shards;
        cfg.threads = threads;
        let (mesh, costs) = (&mesh, &costs[..]);
        let mut w = StaticWorkload { mesh, costs, steps };
        let mut sim = MacroSim::new(cfg);
        timed(|| sim.run(&mut w, &policy, RebalanceTrigger::OnMeshChange))
    };
    let mut thread_counts = vec![1];
    if threads > 1 {
        thread_counts.push(threads);
    }
    // The reference every leg must match, run first and compared with
    // none: the process's first trajectory pays its cold start, which would
    // land on one leg.
    let (base, cost) = trajectory(0, 1);
    row(
        &format!("{steps} steps, flat reference, 1 thread(s)"),
        cost,
        "first trajectory of the process".to_string(),
    );
    for t in thread_counts {
        let mut flat_ns = 0.0;
        for num_shards in [0, shards] {
            let leg = if num_shards == 0 { "flat" } else { "sharded" };
            let (rep, cost) = trajectory(num_shards, t);
            assert_eq!(builds(), 1, "the {leg} leg rebuilt the kept graph");
            // The static trajectory never rebalances mid-run, so even total
            // virtual time is wall-clock-free and must match bit for bit.
            let (p, q) = (&rep.phases, &base.phases);
            for (name, a, b) in [
                ("compute", p.compute_ns, q.compute_ns),
                ("comm", p.comm_ns, q.comm_ns),
                ("sync", p.sync_ns, q.sync_ns),
                ("total", rep.total_ns, base.total_ns),
            ] {
                let what = format!("{name} of the {leg} leg at {t} threads");
                assert_eq!(a.to_bits(), b.to_bits(), "{what} diverged from flat serial");
            }
            assert_eq!(rep.messages, base.messages, "{leg} leg at {t} threads");
            let detail = if num_shards == 0 {
                flat_ns = cost.ns;
                format!("virtual {} s, bit-identical", fmt_s(rep.total_ns))
            } else {
                let halo = rep.final_halo_blocks;
                format!(
                    "{num_shards} shards, {halo} halo blocks, {:.2}x flat",
                    cost.ns / flat_ns
                )
            };
            row(
                &format!("{steps} steps, {leg}, {t} thread(s)"),
                cost,
                detail,
            );
        }
    }

    println!("== Hierarchical trajectory: {ranks} ranks, {nodes} nodes (host wall-clock) ==\n");
    let headers = ["stage", "wall ms", "minor faults", "detail"];
    print!("{}", render_table(&headers, &rows));
}
