//! Perf-trajectory runner: measure the end-to-end macrosim pipeline (mesh
//! build → neighbor graph → rebalance → simulated steps) and the
//! evolving-mesh trajectory (incremental vs full-rebuild remeshing) at
//! several rank counts, and emit `BENCH_macrosim.json` — the committed
//! baseline future PRs regress against.
//!
//! ```text
//! cargo run --release -p amr-bench --bin perf_trajectory            # full
//! cargo run --release -p amr-bench --bin perf_trajectory -- --smoke # CI
//! ```
//!
//! Flags: `--smoke` (small scale, 1 rep, for CI), `--reps N` (default 3,
//! min-of-N per scale), `--steps N` (simulated steps, default 3),
//! `--evolve-steps N` (evolving-trajectory steps, default 40),
//! `--faults` (run the faulty trajectory even under `--smoke`; full runs
//! always include it), `--fault-steps N` (faulty-trajectory steps, default
//! 60), `--out PATH` (default `BENCH_macrosim.json`), `--trace` (run the
//! traced-vs-untraced overhead arm, assert < 2% overhead on simulated-loop
//! wall time, and emit `<trace-out>.trace.json` + `<trace-out>.folded`),
//! `--trace-steps N` (default 100), `--trace-reps N` (default 5),
//! `--trace-out PREFIX` (default `TRACE_macrosim`), `--sharded` (run the
//! flat-vs-sharded arm even under `--smoke`; full runs always include it),
//! `--shards N` (shard count of that arm, default 8), `--hier-ranks N`
//! (rank count of the solo hierarchical trajectory, default 2^20 in full
//! runs and 0 = skipped under `--smoke`), `--hier-steps N` (its simulated
//! steps, default 4), `--network` (run the credit/congestion fabric arm
//! even under `--smoke`; full runs always include it), `--network-steps N`
//! (its simulated steps, default 16), `--network-small-ranks N` /
//! `--network-large-ranks N` (the two fabric regimes, defaults 64 and
//! 1024), `--service` (run the placement-service load arm even under
//! `--smoke`; full runs always include it), `--service-shapes N` /
//! `--service-waves N` (concurrent sessions per wave and wave count,
//! defaults 16x4 under `--smoke` and 96x32 — ~3k sessions — in full
//! runs).
//!
//! The run also enforces the no-op-adapt guard: an all-`Keep` adapt must
//! take the identity fast path (identity delta, far cheaper than a full
//! index rebuild) or the process panics — CI fails on regression. The
//! faulty trajectory likewise guards the closed fault loop: detect-and-
//! reweight must beat fault-oblivious, detect-and-prune must beat both, and
//! at full scale reweighting must recover at least 40% of the fault-induced
//! slowdown. The sharded arm guards the sharded data path: virtual phases
//! must be bit-identical to the flat engine's at shard count 1 *and* at
//! `--shards`, and streaming one shard's CSR at a time must peak at less
//! than half the resident global graph's heap. The network arm guards the
//! Fig. 7a locality inversion both ways: strict locality must win the
//! virtual step total on the small deep-credit enclosure and must *lose* it
//! on the large credit-starved fabric, with the sync-fraction rebalance
//! trigger asserted active and the congested run asserted bit-identical
//! across worker threads. The service arm guards the placement-as-a-service
//! path: a service-routed placement must be bit-identical to the direct
//! engine call, a warm-LRU serve cycle must not grow the heap by a byte,
//! and the mixed-traffic load run must record a positive warm-hit rate and
//! p99 >= p50 > 0 before anything lands in the JSON.

use amr_bench::e2e::{
    assert_noop_adapt_fast, run_evolving, run_evolving_traced, run_faulty, run_pipeline,
    run_pipeline_traced, run_sharded, run_sharded_threaded, skewed_costs, E2eTimings,
    EvolvingTimings, FaultyArm, FaultyTimings, ShardedRun, StaticPipelineWorkload,
};
use amr_bench::service_load::{run_service_load, ServiceLoadResult};
use amr_bench::Args;
use amr_core::engine::{PlacementCtx, PlacementEngine, PlacementError, PlacementReport};
use amr_core::placement::Placement;
use amr_core::policies::{
    weighted_edge_cut, Cplx, CutWeights, GreedyEdgeCut, Hierarchical, Lpt, Multilevel,
    PlacementPolicy,
};
use amr_core::trigger::RebalanceTrigger;
use amr_mesh::{build_shard, plan_shard_bounds, AmrMesh, ShardGraph};
use amr_service::{session_costs, Request, Response, Service, ServiceConfig, SessionSpec};
use amr_sim::{CollectiveSelect, MacroSim, SimConfig, Topology, Workload, WorkloadStep};
use amr_telemetry::trace::{chrome_trace_json, collapsed_stacks};
use amr_telemetry::TraceHandle;
use amr_workloads::{large_refined_mesh, random_refined_mesh};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Byte-accurate live/peak heap meter. The sharded arm's claim is about
/// *peak resident bytes* (can a node hold its slice of the topology?), so
/// the bench binary swaps in an allocator that tracks the high-water mark;
/// [`measured`] resets it around each stage. Single atomic adds per
/// alloc/free — far below measurement noise for the timed stages.
struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                let grow = new_size - layout.size();
                let live = LIVE.fetch_add(grow, Ordering::Relaxed) + grow;
                PEAK.fetch_max(live, Ordering::Relaxed);
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static A: PeakAlloc = PeakAlloc;

/// Run `f`, returning its result plus wall nanoseconds and the peak heap
/// growth (bytes above the live heap at entry) it caused.
fn measured<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    let t = Instant::now();
    let r = f();
    let ns = t.elapsed().as_nanos() as u64;
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(live) as u64;
    (r, ns, peak)
}

fn main() {
    let args = Args::from_env();
    let smoke = args.flag("smoke");
    let reps = args.get_usize("reps", if smoke { 1 } else { 3 });
    let steps = args.get_u64("steps", 3);
    let evolve_steps = args.get_u64("evolve-steps", 40);
    let fault_steps = args.get_u64("fault-steps", 60);
    let fault_ranks = args.get_usize("fault-ranks", if smoke { 256 } else { 4096 });
    let with_faults = args.flag("faults") || !smoke;
    let with_sharded = args.flag("sharded") || !smoke;
    let with_partition = args.flag("partition") || !smoke;
    let partition_steps = args.get_u64("partition-steps", 24);
    let partition_ranks = args.get_usize("partition-ranks", if smoke { 256 } else { 4096 });
    let with_network = args.flag("network") || !smoke;
    let network_steps = args.get_u64("network-steps", 16);
    let network_small_ranks = args.get_usize("network-small-ranks", 64);
    let network_large_ranks = args.get_usize("network-large-ranks", 1024);
    let with_service = args.flag("service") || !smoke;
    let service_shapes = args.get_usize("service-shapes", if smoke { 16 } else { 96 });
    let service_waves = args.get_usize("service-waves", if smoke { 4 } else { 32 });
    let shard_count = args.get_usize("shards", 8);
    let sharded_ranks = if smoke { 256 } else { 16384 };
    let hier_ranks = args.get_usize("hier-ranks", if smoke { 0 } else { 1 << 20 });
    let hier_steps = args.get_u64("hier-steps", 4);
    // `--threads N`: the multi-core arm. 0 skips it; smoke runs skip by
    // default (CI passes `--threads 2` explicitly), full runs measure at 4.
    let threads = args.get_usize("threads", if smoke { 0 } else { 4 });
    let out_path = args.get("out", "BENCH_macrosim.json").to_string();
    let scales: Vec<usize> = if smoke {
        vec![256]
    } else {
        vec![1024, 4096, 16384]
    };

    // Fast-path guard first: cheap, and everything else is meaningless if
    // no-op adapts silently pay for full rebuilds.
    let (noop_ns, full_ns) = assert_noop_adapt_fast(if smoke { 256 } else { 4096 });
    eprintln!(
        "no-op adapt fast path: {:.3} ms vs full rebuild {:.3} ms",
        noop_ns as f64 / 1e6,
        full_ns as f64 / 1e6
    );

    let mut rows: Vec<E2eTimings> = Vec::new();
    for &ranks in &scales {
        // min-of-N: robust to scheduler noise, reproducible on a quiet box.
        let mut best: Option<E2eTimings> = None;
        for rep in 0..reps {
            let t = run_pipeline(ranks, steps, 1); // fixed seed: same mesh every rep
            eprintln!(
                "ranks {:>6} rep {}: blocks {:>6} e2e {:>10.3} ms (mesh {:.3} / graph {:.3} / place {:.3} / sim {:.3})",
                ranks,
                rep,
                t.blocks,
                t.e2e_ns as f64 / 1e6,
                t.mesh_build_ns as f64 / 1e6,
                t.graph_build_ns as f64 / 1e6,
                t.rebalance_ns as f64 / 1e6,
                t.sim_ns as f64 / 1e6,
            );
            best = Some(match best {
                Some(b) if b.e2e_ns <= t.e2e_ns => b,
                _ => t,
            });
        }
        rows.push(best.expect("at least one rep"));
    }

    let mut evolving: Vec<(EvolvingTimings, EvolvingTimings)> = Vec::new();
    for &ranks in &scales {
        let mut best: Option<(EvolvingTimings, EvolvingTimings)> = None;
        for rep in 0..reps {
            let inc = run_evolving(ranks, evolve_steps, false);
            let full = run_evolving(ranks, evolve_steps, true);
            assert_eq!(
                inc.blocks, full.blocks,
                "evolving arms diverged: identical tag sequences must yield identical meshes"
            );
            eprintln!(
                "evolve {:>6} rep {}: blocks {:>6} chg {:>5.1}%/step | inc remesh+graph {:>8.3} ms e2e {:>8.3} ms | full remesh+graph {:>8.3} ms e2e {:>8.3} ms",
                ranks,
                rep,
                inc.blocks,
                100.0 * inc.changed_blocks as f64
                    / (inc.changed_steps.max(1) * inc.blocks as u64) as f64,
                (inc.remesh_ns + inc.graph_ns) as f64 / 1e6,
                inc.e2e_ns as f64 / 1e6,
                (full.remesh_ns + full.graph_ns) as f64 / 1e6,
                full.e2e_ns as f64 / 1e6,
            );
            best = Some(match best {
                Some(b) if b.0.e2e_ns <= inc.e2e_ns => b,
                _ => (inc, full),
            });
        }
        evolving.push(best.expect("at least one rep"));
    }

    if args.flag("trace") {
        run_trace_arm(
            if smoke { 256 } else { 1024 },
            args.get_u64("trace-steps", 100),
            args.get_usize("trace-reps", 5),
            args.get("trace-out", "TRACE_macrosim"),
        );
    }

    let faulty = with_faults.then(|| {
        let ranks = fault_ranks;
        let f = run_faulty(ranks, fault_steps, 1);
        let rec_rew = f.recovery(&f.reweight);
        let rec_prune = f.recovery(&f.prune);
        eprintln!(
            "faulty {:>6}: oblivious {:>9.3} ms | reweight {:>9.3} ms (rec {:>5.1}%) | prune {:>9.3} ms (rec {:>5.1}%) | healthy {:>9.3} ms",
            ranks,
            f.oblivious.total_ns / 1e6,
            f.reweight.total_ns / 1e6,
            rec_rew * 100.0,
            f.prune.total_ns / 1e6,
            rec_prune * 100.0,
            f.healthy.total_ns / 1e6,
        );
        // The closed-loop guards (CI fails if the loop stops paying off).
        assert!(
            f.reweight.total_ns < f.oblivious.total_ns,
            "detect-and-reweight must beat fault-oblivious ({} !< {})",
            f.reweight.total_ns,
            f.oblivious.total_ns
        );
        assert!(
            f.prune.total_ns < f.reweight.total_ns,
            "detect-and-prune escapes the degraded NIC too and must beat \
             reweighting ({} !< {})",
            f.prune.total_ns,
            f.reweight.total_ns
        );
        assert_eq!(f.prune.nodes_pruned, 1, "prune arm never re-hosted");
        if !smoke {
            assert!(
                rec_rew >= 0.4,
                "reweight recovered only {:.1}% of the slowdown at full scale",
                rec_rew * 100.0
            );
        }
        f
    });

    let partition = with_partition.then(|| run_partition_arm(partition_ranks, partition_steps));
    let network = with_network
        .then(|| run_network_arm(network_small_ranks, network_large_ranks, network_steps));
    let sharded = with_sharded.then(|| run_sharded_arm(sharded_ranks, steps, shard_count));
    let parallel =
        (threads > 1).then(|| run_parallel_arm(sharded_ranks, steps, threads, reps, smoke));
    let hier = (hier_ranks > 0).then(|| run_hier_arm(hier_ranks, hier_steps, threads));
    let service =
        with_service.then(|| run_service_arm(service_shapes, service_waves, threads.max(1)));

    let json = render_json(&Report {
        rows: &rows,
        evolving: &evolving,
        faulty: faulty.as_ref(),
        partition: partition.as_ref(),
        network: network.as_ref(),
        sharded: sharded.as_ref(),
        parallel: parallel.as_ref(),
        hier: hier.as_ref(),
        service: service.as_ref(),
        steps,
        evolve_steps,
        reps,
        smoke,
    });
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("{json}");
    eprintln!("wrote {out_path}");
}

/// The `--trace` arm: bound the tracing overhead and emit the artifacts.
///
/// Interleaves `reps` untraced and traced passes of the identical static
/// pipeline (same mesh seed, same step count) and compares min-of-reps
/// simulated-loop wall time. Tracing is a handful of uncontended-lock records
/// (a few stores or a ring write each) per step, so it must stay under 2% — with a 250 µs absolute noise
/// floor, because the `--smoke` sim is only ~4 ms and scheduler jitter on a
/// single-core runner exceeds 2% of that — or the process panics. CI runs
/// this arm under `--smoke`, making the overhead bound a regression guard.
/// A traced evolving trajectory then fills the remesh-side phases
/// (`remesh`/`splice_index`/`graph_patch`) that a static mesh never enters,
/// and both artifacts are written: `<prefix>.trace.json` (Chrome trace-event
/// JSON, load in Perfetto) and `<prefix>.folded` (collapsed stacks, feed to
/// flamegraph.pl / inferno).
fn run_trace_arm(ranks: usize, steps: u64, reps: usize, out_prefix: &str) {
    let trace = TraceHandle::new(1 << 16);
    // Warm both arms (allocator, page cache, branch predictors) untimed.
    run_pipeline(ranks, steps, 1);
    run_pipeline_traced(ranks, steps, 1, &trace);

    let mut untraced = u64::MAX;
    let mut traced = u64::MAX;
    for _ in 0..reps.max(1) {
        // Interleave so slow drift (thermal, scheduler) hits both arms alike.
        untraced = untraced.min(run_pipeline(ranks, steps, 1).sim_ns);
        traced = traced.min(run_pipeline_traced(ranks, steps, 1, &trace).sim_ns);
    }
    let overhead = traced as f64 / untraced as f64 - 1.0;
    let abs_ns = traced.saturating_sub(untraced);
    eprintln!(
        "trace overhead: untraced sim {:.3} ms, traced sim {:.3} ms ({:+.2}%, {:+.1} us)",
        untraced as f64 / 1e6,
        traced as f64 / 1e6,
        overhead * 100.0,
        abs_ns as f64 / 1e3
    );
    // Per-step tracing cost is what we guard. 2% of the full-scale 25 ms sim
    // is ~500 us; the 250 us absolute floor is tighter per step than that and
    // only lifts the bound where the relative test drowns in timer jitter.
    assert!(
        overhead < 0.02 || abs_ns < 250_000,
        "tracing must cost < 2% of simulated-loop wall time or < 250 us absolute \
         (untraced {untraced} ns, traced {traced} ns, {:+.2}%)",
        overhead * 100.0
    );

    run_evolving_traced(ranks, 20, false, &trace);

    let spans = trace.snapshot();
    let json_path = format!("{out_prefix}.trace.json");
    let folded_path = format!("{out_prefix}.folded");
    std::fs::write(&json_path, chrome_trace_json(&spans))
        .unwrap_or_else(|e| panic!("write {json_path}: {e}"));
    std::fs::write(&folded_path, collapsed_stacks(&spans))
        .unwrap_or_else(|e| panic!("write {folded_path}: {e}"));
    eprintln!(
        "wrote {json_path} + {folded_path} ({} spans, {} overwritten in ring)",
        spans.len(),
        trace.dropped()
    );
    eprint!("{}", trace.metrics().render_summary());
}

/// Static workload over a prebuilt mesh with a caller-chosen cost vector,
/// so the partition arm can dial the compute/communication ratio.
struct PartitionWorkload {
    mesh: AmrMesh,
    costs: Vec<f64>,
    steps: u64,
}

impl Workload for PartitionWorkload {
    fn mesh(&self) -> &AmrMesh {
        &self.mesh
    }
    fn advance(&mut self, _step: u64) -> WorkloadStep {
        WorkloadStep::default()
    }
    fn block_compute_ns(&self) -> &[f64] {
        &self.costs
    }
    fn total_steps(&self) -> u64 {
        self.steps
    }
}

/// Deterministic virtual phases of one macro-simulated partition-arm pass
/// (mean-per-rank virtual nanoseconds; no host wall clock).
struct PolicyPhases {
    compute_ns: f64,
    comm_ns: f64,
    sync_ns: f64,
    remote_messages: u64,
    blocks_migrated: u64,
}

impl PolicyPhases {
    /// Communication-side total: where edge-cut quality lands.
    fn exchange_sync(&self) -> f64 {
        self.comm_ns + self.sync_ns
    }
    /// Wall-clock-free virtual step total (compute + comm + sync; the
    /// redistribution phase folds in *host* placement wall time, so it is
    /// excluded from cross-policy comparisons).
    fn virt(&self) -> f64 {
        self.compute_ns + self.comm_ns + self.sync_ns
    }
}

/// Results of the `--partition` arm.
struct PartitionArm {
    ranks: usize,
    blocks: usize,
    relations: usize,
    greedy_cut: u128,
    multilevel_cut: u128,
    place_cold_ns: u64,
    place_cold_peak_bytes: u64,
    place_warm_ns: u64,
    place_warm_peak_bytes: u64,
    comm_steps: u64,
    comm_cplx: PolicyPhases,
    comm_multilevel: PolicyPhases,
    compute_cplx: PolicyPhases,
    compute_multilevel: PolicyPhases,
    observed_bytes: u64,
}

/// The `--partition` arm: prove the multilevel partitioner on the three axes
/// the PR claims, against the repo's incumbent policies.
///
/// **Cut** — on the same refined mesh and skewed costs, the multilevel
/// placement's topological edge cut must not exceed `GreedyEdgeCut`'s (the
/// direct greedy it delegates to below the coarsening threshold), and its
/// load balance must respect the 1.05 slack (plus one-block granularity).
///
/// **Cost** — cold (full coarsen→seed→refine pipeline) and warm (refine-only
/// against the engine arena) repartition walls are recorded, and the warm
/// pass must not grow the heap by a single byte — the bench-binary allocator
/// double-checks what the zero-alloc test already pins.
///
/// **Payoff** — the same static mesh macro-simulated under CPLX-50 vs the
/// ledger-fed multilevel policy, in two regimes. Comm-bound (flat cheap
/// compute, many exchanges per step): multilevel must win the virtual
/// exchange+sync total — cut quality is the paper's lever there. Compute-bound
/// (skewed expensive compute, one exchange per step): CPLX must win the
/// virtual step total — makespan optimality beats locality when compute
/// dominates. Both directions asserted, so CI catches the day either side
/// of the trade-off collapses.
fn run_partition_arm(ranks: usize, steps: u64) -> PartitionArm {
    let mesh = random_refined_mesh(ranks, 1.6, 1);
    let blocks = mesh.num_blocks();
    let graph = mesh.neighbor_graph();
    let relations = graph.total_relations();
    let costs = skewed_costs(blocks);
    let topo = CutWeights::topological(&mesh);

    // Reference cut: the direct greedy on the identical inputs.
    let greedy = GreedyEdgeCut::default().place_on_mesh(&mesh, &costs, ranks);
    let greedy_cut = weighted_edge_cut(&greedy, &graph, &topo);

    // Cold multilevel through the engine (arena attached, like the sim).
    let policy = Multilevel::default();
    let mut engine = PlacementEngine::new();
    let (_, place_cold_ns, place_cold_peak) = measured(|| {
        engine
            .rebalance_weighted(
                &policy,
                &costs,
                ranks,
                Some(&mesh),
                None,
                Some(&graph),
                None,
            )
            .expect("cold multilevel rebalance failed")
    });
    let placed = engine.placement().expect("engine holds a placement");
    let multilevel_cut = weighted_edge_cut(placed, &graph, &topo);
    assert!(
        multilevel_cut <= greedy_cut,
        "multilevel cut must not exceed the direct greedy's \
         ({multilevel_cut} !<= {greedy_cut})"
    );
    let total: f64 = costs.iter().sum();
    let max_cost = costs.iter().cloned().fold(0.0, f64::max);
    let max_load = placed.rank_loads(&costs).into_iter().fold(0.0f64, f64::max);
    let cap = total / ranks as f64 * 1.05;
    assert!(
        max_load <= cap + max_cost + 1e-6,
        "multilevel balance blew the slack: max load {max_load} > cap {cap} \
         + granularity {max_cost}"
    );

    // Warm repartitions: rotated costs (placements keep changing), refine-only
    // path, and the heap high-water mark must not move at all.
    let mut shifted = costs.clone();
    for _ in 0..2 {
        shifted.rotate_right(1);
        engine
            .rebalance_weighted(
                &policy,
                &shifted,
                ranks,
                Some(&mesh),
                None,
                Some(&graph),
                None,
            )
            .expect("multilevel warm-up failed");
    }
    // Min-of-5 for both wall and peak (the zero-alloc suite's methodology):
    // a rotated cost vector can steer FM into a gain bucket never touched
    // before, growing one small pooled Vec once — the *steady state* is what
    // must be allocation-free, and min-of-N is exactly that state.
    let mut place_warm_ns = u64::MAX;
    let mut place_warm_peak = u64::MAX;
    for _ in 0..5 {
        shifted.rotate_right(1);
        let (_, ns, peak) = measured(|| {
            engine
                .rebalance_weighted(
                    &policy,
                    &shifted,
                    ranks,
                    Some(&mesh),
                    None,
                    Some(&graph),
                    None,
                )
                .expect("warm multilevel rebalance failed")
        });
        place_warm_ns = place_warm_ns.min(ns);
        place_warm_peak = place_warm_peak.min(peak);
    }
    assert_eq!(
        place_warm_peak, 0,
        "warm multilevel repartition grew the heap by {place_warm_peak} bytes \
         in every one of 5 steady-state rounds"
    );
    eprintln!(
        "partition {:>6}: cut multilevel {} vs greedy {} ({:.1}% lower), cold {:.3} ms, warm {:.3} ms / 0 B",
        ranks,
        multilevel_cut,
        greedy_cut,
        100.0 * (1.0 - multilevel_cut as f64 / greedy_cut.max(1) as f64),
        place_cold_ns as f64 / 1e6,
        place_warm_ns as f64 / 1e6,
    );

    // Macro-simulated A/B: identical mesh/costs/seed per regime, the policy
    // is the only difference. The ledger is armed only under multilevel —
    // it is the feedback path being measured (and it is proven invisible to
    // weight-blind policies by the sim proptests).
    let mut observed_bytes = 0u64;
    let mut sim_arm = |step_costs: &[f64], exchanges: u32, multilevel: bool| -> PolicyPhases {
        let mut cfg = SimConfig::tuned(ranks);
        cfg.telemetry_sampling = 1_000_000;
        cfg.exchanges_per_step = exchanges;
        cfg.observe_exchange_bytes = multilevel;
        let mut w = PartitionWorkload {
            mesh: mesh.clone(),
            costs: step_costs.to_vec(),
            steps,
        };
        let mut sim = MacroSim::new(cfg);
        let trigger = RebalanceTrigger::Periodic(4);
        let rep = if multilevel {
            let r = sim.run(&mut w, &Multilevel::default(), trigger);
            observed_bytes = observed_bytes.max(sim.exchange_ledger().observed_total());
            r
        } else {
            sim.run(&mut w, &Cplx::new(50), trigger)
        };
        PolicyPhases {
            compute_ns: rep.phases.compute_ns,
            comm_ns: rep.phases.comm_ns,
            sync_ns: rep.phases.sync_ns,
            remote_messages: rep.messages.remote,
            blocks_migrated: rep.blocks_migrated,
        }
    };

    // Comm-bound regime: flat cheap compute, heavy per-step exchange.
    let flat: Vec<f64> = vec![40_000.0; blocks];
    let comm_cplx = sim_arm(&flat, 12, false);
    let comm_multilevel = sim_arm(&flat, 12, true);
    eprintln!(
        "partition {:>6}: comm-bound exchange+sync cplx {:.3} ms vs multilevel {:.3} ms ({:.1}% lower), remote msgs {} vs {}",
        ranks,
        comm_cplx.exchange_sync() / 1e6,
        comm_multilevel.exchange_sync() / 1e6,
        100.0 * (1.0 - comm_multilevel.exchange_sync() / comm_cplx.exchange_sync()),
        comm_cplx.remote_messages,
        comm_multilevel.remote_messages,
    );
    assert!(
        comm_multilevel.exchange_sync() < comm_cplx.exchange_sync(),
        "on the comm-bound mesh the ledger-fed multilevel must beat CPLX on \
         virtual exchange+sync ({} !< {})",
        comm_multilevel.exchange_sync(),
        comm_cplx.exchange_sync()
    );

    // Compute-bound regime: skewed expensive compute, minimal exchange.
    let compute_cplx = sim_arm(&costs, 1, false);
    let compute_multilevel = sim_arm(&costs, 1, true);
    eprintln!(
        "partition {:>6}: compute-bound virtual step total cplx {:.3} ms vs multilevel {:.3} ms",
        ranks,
        compute_cplx.virt() / 1e6,
        compute_multilevel.virt() / 1e6,
    );
    assert!(
        compute_cplx.virt() <= compute_multilevel.virt(),
        "on the compute-bound mesh CPLX's makespan optimum must still win the \
         virtual step total ({} !<= {})",
        compute_cplx.virt(),
        compute_multilevel.virt()
    );

    PartitionArm {
        ranks,
        blocks,
        relations,
        greedy_cut,
        multilevel_cut,
        place_cold_ns,
        place_cold_peak_bytes: place_cold_peak,
        place_warm_ns,
        place_warm_peak_bytes: place_warm_peak,
        comm_steps: steps,
        comm_cplx,
        comm_multilevel,
        compute_cplx,
        compute_multilevel,
        observed_bytes,
    }
}

/// Deliberate anti-locality placement for the `--network` arm: blocks are
/// dealt to ranks round-robin in a deterministically shuffled order, so
/// SFC-neighbor blocks land on effectively random rank (and therefore
/// node) pairs. Nearly every boundary message rides the fabric — but the
/// bytes spread across ~nodes² directed links instead of concentrating on
/// the few SFC-adjacent node pairs a contiguous placement produces. That
/// is exactly the Fig. 7a trade: more remote bytes in total, far fewer
/// bytes per link.
struct Scatter;

impl PlacementPolicy for Scatter {
    fn name(&self) -> String {
        "scatter".into()
    }

    fn place_into(
        &self,
        ctx: &PlacementCtx,
        out: &mut Placement,
    ) -> Result<PlacementReport, PlacementError> {
        ctx.validate()?;
        let n = ctx.costs().len();
        let r = ctx.num_ranks();
        // Fixed-seed Fisher–Yates over an inline xorshift: the same blocks
        // always shuffle the same way, so the policy stays a pure function
        // of its context like every other placement.
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for k in (1..n).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            order.swap(k, (state % (k as u64 + 1)) as usize);
        }
        let mut ranks = vec![0u32; n];
        for (k, &b) in order.iter().enumerate() {
            ranks[b as usize] = (k % r) as u32;
        }
        // A fresh allocation per call (no access to the crate-private
        // storage-reuse path) — irrelevant for a bench-local policy.
        *out = Placement::new(ranks, r);
        Ok(ctx.finish(out))
    }
}

/// One fabric regime of the `--network` arm: the same mesh macro-simulated
/// under strict locality (CPL0) and under [`Scatter`], on one credit depth.
struct NetworkRegime {
    ranks: usize,
    blocks: usize,
    nodes: usize,
    credit_bytes: u64,
    local: PolicyPhases,
    spread: PolicyPhases,
    local_lb_invocations: u64,
    spread_lb_invocations: u64,
}

/// Results of the `--network` arm.
struct NetworkArm {
    steps: u64,
    congestion_backoff: f64,
    sync_trigger: f64,
    small: NetworkRegime,
    large: NetworkRegime,
    /// Worker threads of the bitwise re-run of the congested locality pass.
    bitwise_threads: usize,
}

/// The `--network` arm: reproduce the paper's Fig. 7a locality inversion on
/// the credit/congestion fabric model, both directions CI-asserted on
/// wall-free virtual phases.
///
/// Two regimes share one workload shape (static refined mesh, flat costs,
/// 12 exchanges/step) and one adaptive control plane (sync-fraction
/// rebalance trigger, adaptive collectives). The **small enclosure**
/// (default 64 ranks / 4 nodes) has deep per-port credits — the congestion
/// model is armed but never binds, so strict locality's shorter message
/// list must win the virtual step total. The **large fabric** (default 1024
/// ranks / 64 nodes) starves the per-link credit window: a contiguous
/// placement concentrates every node's boundary on a couple of SFC-adjacent
/// links whose outstanding bytes blow the window each round, while the
/// scattered placement's per-link bytes stay under it, so spread must win —
/// locality *loses* exactly where the paper's Fig. 7a says it does.
///
/// The congested locality pass must also drive the sync-fraction trigger
/// (congestion stalls hit boundary-heavy nodes asymmetrically, inflating
/// the measured sync share) — asserted via a second rebalance beyond the
/// step-0 bootstrap — and re-running it on 2 worker threads must reproduce
/// every virtual phase bit for bit.
fn run_network_arm(small_ranks: usize, large_ranks: usize, steps: u64) -> NetworkArm {
    const RANKS_PER_NODE: usize = 16; // Topology::paper's node width
    /// Deep credits: ~3x the whole mesh's per-round traffic, never binding.
    const SMALL_CREDIT: u64 = 64 << 20;
    /// Starved credits: between the scattered placement's worst per-link
    /// bytes and the contiguous placement's (tuned against the defaults of
    /// `random_refined_mesh(1024, 1.6)`; the asserts below re-verify the
    /// ordering on every run).
    const LARGE_CREDIT: u64 = 160 << 10;
    const BACKOFF: f64 = 2.0;
    const SYNC_TRIGGER: f64 = 0.05;

    let sim_pass = |mesh: &AmrMesh, ranks: usize, credit: u64, spread: bool, threads: usize| {
        let blocks = mesh.num_blocks();
        let mut cfg = SimConfig::tuned(ranks);
        cfg.topology = Topology::new(ranks, RANKS_PER_NODE);
        cfg.telemetry_sampling = 1_000_000;
        cfg.exchanges_per_step = 12;
        cfg.network.fabric_credit_bytes = credit;
        cfg.network.congestion_backoff = BACKOFF;
        cfg.collectives = CollectiveSelect::Adaptive;
        cfg.collective_payload_bytes = 1 << 18;
        cfg.threads = threads;
        let mut w = PartitionWorkload {
            mesh: mesh.clone(),
            costs: vec![40_000.0; blocks],
            steps,
        };
        let mut sim = MacroSim::new(cfg);
        let trigger = RebalanceTrigger::SyncFractionAbove(SYNC_TRIGGER);
        let rep = if spread {
            sim.run(&mut w, &Scatter, trigger)
        } else {
            sim.run(&mut w, &Cplx::new(0), trigger)
        };
        (
            PolicyPhases {
                compute_ns: rep.phases.compute_ns,
                comm_ns: rep.phases.comm_ns,
                sync_ns: rep.phases.sync_ns,
                remote_messages: rep.messages.remote,
                blocks_migrated: rep.blocks_migrated,
            },
            rep.lb_invocations,
        )
    };

    let run_regime = |ranks: usize, credit: u64| -> NetworkRegime {
        let mesh = random_refined_mesh(ranks, 1.6, 1);
        let blocks = mesh.num_blocks();
        let (local, local_lb) = sim_pass(&mesh, ranks, credit, false, 1);
        let (spread, spread_lb) = sim_pass(&mesh, ranks, credit, true, 1);
        eprintln!(
            "network {:>5} ({:>2} nodes, credits {:>6} KiB): local virt {:>9.3} ms (comm {:.3} / sync {:.3}) vs spread virt {:>9.3} ms (comm {:.3} / sync {:.3}), remote msgs {} vs {}",
            ranks,
            ranks.div_ceil(RANKS_PER_NODE),
            credit >> 10,
            local.virt() / 1e6,
            local.comm_ns / 1e6,
            local.sync_ns / 1e6,
            spread.virt() / 1e6,
            spread.comm_ns / 1e6,
            spread.sync_ns / 1e6,
            local.remote_messages,
            spread.remote_messages,
        );
        NetworkRegime {
            ranks,
            blocks,
            nodes: ranks.div_ceil(RANKS_PER_NODE),
            credit_bytes: credit,
            local,
            spread,
            local_lb_invocations: local_lb,
            spread_lb_invocations: spread_lb,
        }
    };

    let small = run_regime(small_ranks, SMALL_CREDIT);
    assert!(
        small.local.virt() < small.spread.virt(),
        "on the deep-credit enclosure strict locality must win the virtual \
         step total ({} !< {})",
        small.local.virt(),
        small.spread.virt()
    );

    let large = run_regime(large_ranks, LARGE_CREDIT);
    assert!(
        large.spread.virt() < large.local.virt(),
        "on the credit-starved fabric the scattered placement must win the \
         virtual step total — the Fig. 7a inversion ({} !< {})",
        large.spread.virt(),
        large.local.virt()
    );
    assert!(
        large.local_lb_invocations > 1,
        "congestion stalls must push the measured sync share over the \
         {SYNC_TRIGGER} trigger at least once beyond the step-0 bootstrap \
         (lb_invocations = {})",
        large.local_lb_invocations
    );

    // The congested locality pass again, on a 2-thread worker pool: the
    // credit stalls, the trigger decisions and the adaptive collective
    // choice are all pure functions of virtual time, so every phase must
    // reproduce bit for bit.
    let bitwise_threads = 2;
    let mesh = random_refined_mesh(large_ranks, 1.6, 1);
    let (serial, serial_lb) = sim_pass(&mesh, large_ranks, LARGE_CREDIT, false, 1);
    let (pooled, pooled_lb) = sim_pass(&mesh, large_ranks, LARGE_CREDIT, false, bitwise_threads);
    let bits = |p: &PolicyPhases| {
        (
            p.compute_ns.to_bits(),
            p.comm_ns.to_bits(),
            p.sync_ns.to_bits(),
            p.remote_messages,
        )
    };
    assert_eq!(
        bits(&serial),
        bits(&pooled),
        "congested virtual phases at {bitwise_threads} threads must be \
         bit-identical to serial"
    );
    assert_eq!(
        serial_lb, pooled_lb,
        "the sync-fraction trigger fired a different number of times across \
         thread counts"
    );
    eprintln!(
        "network {:>5}: inversion holds both ways, trigger fired (lb {}), \
         virtual phases bit-identical at {} threads",
        large_ranks, large.local_lb_invocations, bitwise_threads,
    );

    NetworkArm {
        steps,
        congestion_backoff: BACKOFF,
        sync_trigger: SYNC_TRIGGER,
        small,
        large,
        bitwise_threads,
    }
}

/// Results of the flat-vs-sharded arm.
struct ShardedArm {
    ranks: usize,
    blocks: usize,
    relations: usize,
    shards: usize,
    flat_graph_ns: u64,
    flat_graph_peak_bytes: u64,
    stream_graph_ns: u64,
    stream_graph_peak_bytes: u64,
    halo_blocks: usize,
    cross_relations: usize,
    flat: ShardedRun,
    sharded: ShardedRun,
}

/// The `--sharded` arm: prove the sharded data path on the two axes the
/// refactor claims.
///
/// **Memory** — build the resident global CSR (the flat engine's working
/// set), then stream the identical topology one shard at a time through
/// [`build_shard`] into a single reused [`ShardGraph`] (a node's view in a
/// distributed run). Peak heap growth of the streaming pass must be under
/// half the resident graph's, or the process panics.
///
/// **Determinism** — macro-simulate the same mesh flat, at 1 shard, and at
/// `shards` shards. Shard rows keep global neighbor ids in global SFC row
/// order, so the virtual compute/comm/sync totals must be *bit-identical*
/// across all three (asserted via `f64::to_bits`); at 1 shard the halo is
/// empty so even the redistribution charge is untouched.
fn run_sharded_arm(ranks: usize, steps: u64, shards: usize) -> ShardedArm {
    assert!(shards >= 2, "--shards must be at least 2");
    let mesh = random_refined_mesh(ranks, 1.6, 1);
    let blocks = mesh.num_blocks();

    let (relations, flat_graph_ns, flat_peak) =
        measured(|| mesh.neighbor_graph().total_relations());
    let ((stream_relations, halo_blocks, cross_relations), stream_graph_ns, stream_peak) =
        measured(|| {
            let bounds = plan_shard_bounds(&mesh, shards);
            let mut g = ShardGraph::default();
            let (mut rel, mut halo, mut cross) = (0usize, 0usize, 0usize);
            for s in 0..shards {
                build_shard(&mesh, &bounds, s, &mut g);
                rel += g.total_relations();
                halo += g.halo().len();
                cross += g.cross_relations();
            }
            (rel, halo, cross)
        });
    assert_eq!(
        stream_relations, relations,
        "streamed shard rows must cover exactly the global graph"
    );
    let ratio = flat_peak as f64 / stream_peak.max(1) as f64;
    eprintln!(
        "sharded {:>6}: flat graph {:.2} MiB peak / {:.3} ms, streamed x{} {:.2} MiB peak / {:.3} ms ({:.1}x less memory)",
        ranks,
        flat_peak as f64 / (1 << 20) as f64,
        flat_graph_ns as f64 / 1e6,
        shards,
        stream_peak as f64 / (1 << 20) as f64,
        stream_graph_ns as f64 / 1e6,
        ratio,
    );
    assert!(
        ratio >= 2.0,
        "streaming {shards} shards must peak at less than half the resident \
         graph ({flat_peak} vs {stream_peak} bytes, {ratio:.2}x)"
    );

    let flat = run_sharded(&mesh, ranks, steps, 1, 0);
    let s1 = run_sharded(&mesh, ranks, steps, 1, 1);
    let sn = run_sharded(&mesh, ranks, steps, 1, shards);
    let bits = |r: &ShardedRun| {
        (
            r.compute_ns.to_bits(),
            r.comm_ns.to_bits(),
            r.sync_ns.to_bits(),
        )
    };
    assert_eq!(
        bits(&flat),
        bits(&s1),
        "virtual phases at 1 shard must be bit-identical to the flat engine"
    );
    assert_eq!(
        bits(&flat),
        bits(&sn),
        "virtual phases at {shards} shards must be bit-identical to the flat engine"
    );
    assert_eq!(
        flat.mpi_messages, sn.mpi_messages,
        "message totals diverged"
    );
    assert_eq!(
        s1.halo_blocks, 0,
        "a single shard owns everything: no ghosts"
    );
    assert_eq!(
        s1.halo_exchange_ns.to_bits(),
        0.0f64.to_bits(),
        "no ghosts, no halo charge"
    );
    assert_eq!(
        sn.halo_blocks as usize, halo_blocks,
        "simulator and streaming pass disagree on the halo"
    );
    eprintln!(
        "sharded {:>6}: virtual phases bit-identical flat vs S=1 vs S={} ({} halo blocks, {} cross relations)",
        ranks, shards, halo_blocks, cross_relations,
    );

    ShardedArm {
        ranks,
        blocks,
        relations,
        shards,
        flat_graph_ns,
        flat_graph_peak_bytes: flat_peak,
        stream_graph_ns,
        stream_graph_peak_bytes: stream_peak,
        halo_blocks,
        cross_relations,
        flat,
        sharded: sn,
    }
}

/// Results of the multi-core (`--threads`) arm.
struct ParallelArm {
    ranks: usize,
    blocks: usize,
    threads: usize,
    /// Cores the host actually exposes — the honest context for `speedup`
    /// (a 1-core box timeshares the workers and can't speed anything up).
    host_cores: usize,
    serial_wall_ns: u64,
    parallel_wall_ns: u64,
    speedup: f64,
}

/// The `--threads` arm: the same 16384-rank (256 under `--smoke`) static
/// trajectory, serial vs `threads` worker threads, min-of-reps walls.
///
/// Bit-identity of every virtual number is asserted unconditionally — on
/// any host, at any thread count, that is the contract of the slot-ownership
/// kernels. The ≥ 2.5x speedup floor is only enforced when the host exposes
/// at least `threads` cores *and* the run is not a smoke run: on an
/// undersized box the workers timeshare one core and the measured "speedup"
/// reports the dispatch overhead instead (still recorded, honestly, in the
/// JSON).
fn run_parallel_arm(
    ranks: usize,
    steps: u64,
    threads: usize,
    reps: usize,
    smoke: bool,
) -> ParallelArm {
    let mesh = random_refined_mesh(ranks, 1.6, 1);
    let blocks = mesh.num_blocks();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut serial: Option<ShardedRun> = None;
    let mut parallel: Option<ShardedRun> = None;
    for _ in 0..reps.max(1) {
        let s = run_sharded_threaded(&mesh, ranks, steps, 1, 0, 1);
        let p = run_sharded_threaded(&mesh, ranks, steps, 1, 0, threads);
        let bits = |r: &ShardedRun| {
            (
                r.compute_ns.to_bits(),
                r.comm_ns.to_bits(),
                r.sync_ns.to_bits(),
                r.mpi_messages,
            )
        };
        assert_eq!(
            bits(&s),
            bits(&p),
            "virtual phases at {threads} threads must be bit-identical to serial"
        );
        let keep = |best: &mut Option<ShardedRun>, run: ShardedRun| match best {
            Some(b) if b.sim_wall_ns <= run.sim_wall_ns => {}
            _ => *best = Some(run),
        };
        keep(&mut serial, s);
        keep(&mut parallel, p);
    }
    let serial = serial.expect("at least one rep");
    let parallel = parallel.expect("at least one rep");
    let speedup = serial.sim_wall_ns as f64 / parallel.sim_wall_ns.max(1) as f64;
    eprintln!(
        "parallel {:>6}: serial {:.3} ms vs {} threads {:.3} ms = {:.2}x (host cores: {}), virtual phases bit-identical",
        ranks,
        serial.sim_wall_ns as f64 / 1e6,
        threads,
        parallel.sim_wall_ns as f64 / 1e6,
        speedup,
        host_cores,
    );
    if !smoke && host_cores >= threads && threads >= 4 {
        assert!(
            speedup >= 2.5,
            "{threads}-thread trajectory must be >= 2.5x over serial on a \
             {host_cores}-core host (got {speedup:.2}x)"
        );
    }
    ParallelArm {
        ranks,
        blocks,
        threads,
        host_cores,
        serial_wall_ns: serial.sim_wall_ns,
        parallel_wall_ns: parallel.sim_wall_ns,
        speedup,
    }
}

/// Results of the solo hierarchical trajectory.
struct HierArm {
    ranks: usize,
    blocks: usize,
    relations: usize,
    nodes: usize,
    ranks_per_node: usize,
    mesh_shards: usize,
    policy_shards: usize,
    mesh_build_ns: u64,
    stream_graph_ns: u64,
    stream_graph_peak_bytes: u64,
    halo_blocks: usize,
    cross_relations: usize,
    place_cold_ns: u64,
    place_cold_peak_bytes: u64,
    place_warm_ns: u64,
    place_warm_peak_bytes: u64,
    sim_steps: u64,
    sim_shards: usize,
    sim_wall_ns: u64,
    /// Worker threads of the threaded trajectory pass (0 = pass skipped).
    sim_threads: usize,
    /// Wall clock of the same trajectory on `sim_threads` workers
    /// (bit-identical virtual time, asserted).
    sim_wall_threaded_ns: u64,
    virtual_total_ns: f64,
}

/// The hierarchical-scale arm: the full sharded trajectory at a rank count
/// the flat data path has no business at (default 2^20 ranks, ~1.7M
/// blocks). Solo column — no flat comparison is run here; the flat-vs-
/// sharded ratios are measured at `--sharded`'s scale and only grow with
/// rank count (resident CSR bytes scale linearly, streamed per-node bytes
/// stay ~constant at fixed blocks/node).
///
/// Stages, each timed with peak heap growth: random refined mesh build →
/// streamed per-node CSR (one [`ShardGraph`] resident at a time, one shard
/// per 16-rank node) → two-stage hierarchical placement (cold, then warm to
/// show the steady state is allocation-free) → a short macro-simulated
/// trajectory on the sharded topology under the same policy.
fn run_hier_arm(ranks: usize, sim_steps: u64, threads: usize) -> HierArm {
    let ranks_per_node = 16; // Topology::paper's node width
    let nodes = (ranks / ranks_per_node).max(1);
    let mesh_shards = nodes;
    // ~6 blocks per stage-1 unit: enough resolution for the cut refinement
    // to balance nodes without drowning stage 1 in degenerate shards.
    let policy_shards = nodes * 4;

    // Past 2^16 ranks the root grid hits the Morton budget, so block count
    // comes from refinement depth instead of root count.
    let (mesh, mesh_build_ns, _) = measured(|| {
        if ranks > 65_536 {
            large_refined_mesh((ranks as f64 * 1.6) as usize, 1)
        } else {
            random_refined_mesh(ranks, 1.6, 1)
        }
    });
    let blocks = mesh.num_blocks();
    eprintln!(
        "hier {:>8}: mesh built, {} blocks in {:.3} s",
        ranks,
        blocks,
        mesh_build_ns as f64 / 1e9
    );

    let ((relations, halo_blocks, cross_relations), stream_graph_ns, stream_graph_peak_bytes) =
        measured(|| {
            let bounds = plan_shard_bounds(&mesh, mesh_shards);
            let mut g = ShardGraph::default();
            let (mut rel, mut halo, mut cross) = (0usize, 0usize, 0usize);
            for s in 0..mesh_shards {
                build_shard(&mesh, &bounds, s, &mut g);
                rel += g.total_relations();
                halo += g.halo().len();
                cross += g.cross_relations();
            }
            (rel, halo, cross)
        });
    eprintln!(
        "hier {:>8}: streamed {} per-node shards in {:.3} s, peak {:.2} MiB ({} relations, {} halo blocks)",
        ranks,
        mesh_shards,
        stream_graph_ns as f64 / 1e9,
        stream_graph_peak_bytes as f64 / (1 << 20) as f64,
        relations,
        halo_blocks,
    );

    let policy = Hierarchical::new(policy_shards, ranks_per_node);
    let costs = skewed_costs(blocks);
    let mut engine = PlacementEngine::new();
    let (_, place_cold_ns, place_cold_peak) = measured(|| {
        engine
            .rebalance(&policy, &costs, ranks)
            .expect("cold hierarchical rebalance failed")
    });
    engine
        .rebalance(&policy, &costs, ranks)
        .expect("hierarchical rebalance warm-up failed");
    let (_, place_warm_ns, place_warm_peak) = measured(|| {
        engine
            .rebalance(&policy, &costs, ranks)
            .expect("warm hierarchical rebalance failed")
    });
    eprintln!(
        "hier {:>8}: two-stage placement cold {:.3} ms / {:.2} MiB, warm {:.3} ms / {} B",
        ranks,
        place_cold_ns as f64 / 1e6,
        place_cold_peak as f64 / (1 << 20) as f64,
        place_warm_ns as f64 / 1e6,
        place_warm_peak,
    );

    // Short end-to-end trajectory on the sharded topology: a resident
    // per-shard granularity coarser than per-node keeps the epoch walk
    // cache-friendly without changing any virtual number (phase totals are
    // shard-count-invariant, proven by the --sharded arm and the proptests).
    let sim_shards = 256.min(mesh_shards);
    let run_traj = |threads: usize| {
        let mut cfg = SimConfig::tuned(ranks);
        cfg.telemetry_sampling = 1_000_000;
        cfg.num_shards = sim_shards;
        cfg.threads = threads.max(1);
        let mut w = StaticPipelineWorkload::new(mesh.clone(), sim_steps);
        let mut sim = MacroSim::new(cfg);
        let t = Instant::now();
        let rep = sim.run(&mut w, &policy, RebalanceTrigger::OnMeshChange);
        (rep, t.elapsed().as_nanos() as u64)
    };
    let (rep, sim_wall_ns) = run_traj(1);
    eprintln!(
        "hier {:>8}: {} macrosim steps in {:.3} s (virtual {:.3} ms)",
        ranks,
        sim_steps,
        sim_wall_ns as f64 / 1e9,
        rep.total_ns / 1e6,
    );
    // Same trajectory on the worker pool: the static pipeline never
    // rebalances mid-run, so even total virtual time is wall-clock-free and
    // must match the serial pass bit for bit.
    let (sim_threads, sim_wall_threaded_ns) = if threads > 1 {
        let (trep, tw) = run_traj(threads);
        assert_eq!(
            trep.total_ns.to_bits(),
            rep.total_ns.to_bits(),
            "hier trajectory at {threads} threads diverged from serial"
        );
        eprintln!(
            "hier {:>8}: {} threads {:.3} s ({:.2}x), virtual time bit-identical",
            ranks,
            threads,
            tw as f64 / 1e9,
            sim_wall_ns as f64 / tw.max(1) as f64,
        );
        (threads, tw)
    } else {
        (0, 0)
    };

    HierArm {
        ranks,
        blocks,
        relations,
        nodes,
        ranks_per_node,
        mesh_shards,
        policy_shards,
        mesh_build_ns,
        stream_graph_ns,
        stream_graph_peak_bytes,
        halo_blocks,
        cross_relations,
        place_cold_ns,
        place_cold_peak_bytes: place_cold_peak,
        place_warm_ns,
        place_warm_peak_bytes: place_warm_peak,
        sim_steps,
        sim_shards,
        sim_wall_ns,
        sim_threads,
        sim_wall_threaded_ns,
        virtual_total_ns: rep.total_ns,
    }
}

/// Results of the `--service` arm.
struct ServiceArm {
    load: ServiceLoadResult,
    /// Min-of-5 wall of one warm serve cycle (submit + batch drain).
    warm_serve_ns: u64,
    /// Min-of-5 peak heap growth of that cycle — asserted zero.
    warm_serve_peak_bytes: u64,
}

/// The `--service` arm: guard the placement-as-a-service path, then load it.
///
/// **Bitwise** — one session's `Rebalance` routed through the service must
/// produce a placement bit-identical to a direct `PlacementEngine` call on
/// the same mesh/costs/policy, or the process panics — the service is a
/// multiplexer, never a different solver.
///
/// **Zero-alloc warm hits** — close parks the engine in the fingerprint
/// LRU; reopening the same shape must check it out warm (asserted on the
/// stats), and a steady-state warm serve cycle — submit, batch drain, warm
/// placement, response + latency logging — must not grow the heap by one
/// byte, min-of-5 against the bench allocator's high-water mark (the
/// dedicated counting-allocator test pins the same claim per-allocation).
///
/// **Load** — `shapes` concurrent sessions per wave times `waves` waves of
/// mixed adapt/rebalance/simulate/query traffic through a `threads`-worker
/// batch dispatch. Warm-hit rate must come out positive and the recorded
/// latency percentiles ordered (p99 >= p50 > 0) before the JSON is written.
fn run_service_arm(shapes: usize, waves: usize, threads: usize) -> ServiceArm {
    // Bitwise spot check: service route vs direct engine call.
    let mesh = random_refined_mesh(16, 6.0, 7);
    let mut svc = Service::new(ServiceConfig::default());
    let id = svc.open_session(mesh.clone(), SessionSpec::tuned(16, Box::new(Lpt)));
    svc.submit(id, Request::Rebalance);
    svc.drain();
    let mut costs = Vec::new();
    session_costs(mesh.num_blocks(), &mut costs);
    let mut engine = PlacementEngine::new();
    engine
        .rebalance_with(&Lpt, &costs, 16, Some(&mesh), None)
        .expect("direct rebalance failed");
    assert_eq!(
        svc.session_placement(id)
            .expect("service session holds a placement")
            .as_slice(),
        engine
            .placement()
            .expect("direct engine holds a placement")
            .as_slice(),
        "service-path placement must be bitwise identical to the direct engine call"
    );
    svc.close_session(id);

    // Warm serve cycle: the reopen must hit the LRU, and the steady state
    // must be allocation-free.
    let id = svc.open_session(mesh, SessionSpec::tuned(16, Box::new(Lpt)));
    assert_eq!(
        svc.stats().warm_hits,
        1,
        "reopening a parked shape must hit the engine LRU"
    );
    for _ in 0..3 {
        svc.submit(id, Request::Rebalance);
        svc.drain();
        svc.clear_responses(id);
    }
    let (mut warm_serve_ns, mut warm_serve_peak) = (u64::MAX, u64::MAX);
    for _ in 0..5 {
        let ((), ns, peak) = measured(|| {
            svc.submit(id, Request::Rebalance);
            svc.drain();
        });
        assert!(
            matches!(
                svc.responses(id)[0],
                Response::Rebalanced { warm: true, .. }
            ),
            "steady-state serve must ride the warm engine"
        );
        svc.clear_responses(id);
        warm_serve_ns = warm_serve_ns.min(ns);
        warm_serve_peak = warm_serve_peak.min(peak);
    }
    assert_eq!(
        warm_serve_peak, 0,
        "warm-hit serve cycle grew the heap by {warm_serve_peak} bytes in \
         every one of 5 steady-state rounds"
    );

    let load = run_service_load(shapes, waves, threads);
    eprintln!(
        "service {:>4}x{:<3} ({} threads): {} sessions / {} requests in {:.3} s = {:.0} sess/s, {:.0} req/s | warm rate {:.1}% | p50 {:.1} us p99 {:.1} us max {:.1} us | warm serve {:.1} us / 0 B",
        shapes,
        waves,
        threads,
        load.sessions,
        load.requests,
        load.wall_ns as f64 / 1e9,
        load.sessions_per_sec,
        load.requests_per_sec,
        load.warm_hit_rate * 100.0,
        load.p50_ns as f64 / 1e3,
        load.p99_ns as f64 / 1e3,
        load.max_ns as f64 / 1e3,
        warm_serve_ns as f64 / 1e3,
    );
    assert!(
        load.warm_hit_rate > 0.0,
        "the load run must produce warm engine-cache hits (rate = {})",
        load.warm_hit_rate
    );
    assert!(
        load.p50_ns > 0 && load.p99_ns >= load.p50_ns,
        "latency percentiles must be recorded and ordered (p50 {} / p99 {})",
        load.p50_ns,
        load.p99_ns
    );
    ServiceArm {
        load,
        warm_serve_ns,
        warm_serve_peak_bytes: warm_serve_peak,
    }
}

/// Everything `render_json` serializes, bundled so the call site stays flat.
struct Report<'a> {
    rows: &'a [E2eTimings],
    evolving: &'a [(EvolvingTimings, EvolvingTimings)],
    faulty: Option<&'a FaultyTimings>,
    partition: Option<&'a PartitionArm>,
    network: Option<&'a NetworkArm>,
    sharded: Option<&'a ShardedArm>,
    parallel: Option<&'a ParallelArm>,
    hier: Option<&'a HierArm>,
    service: Option<&'a ServiceArm>,
    steps: u64,
    evolve_steps: u64,
    reps: usize,
    smoke: bool,
}

/// Hand-rolled JSON (the workspace has no serde_json; the schema is flat).
fn render_json(report: &Report<'_>) -> String {
    let &Report {
        rows,
        evolving,
        faulty,
        partition,
        network,
        sharded,
        parallel,
        hier,
        service,
        steps,
        evolve_steps,
        reps,
        smoke,
    } = report;
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"macrosim_e2e\",");
    let _ = writeln!(
        s,
        "  \"pipeline\": \"random_refined_mesh(1.6 blocks/rank) -> neighbor_graph -> cplx50 rebalance -> {steps} macrosim steps\","
    );
    let _ = writeln!(s, "  \"reps\": {reps},");
    let _ = writeln!(s, "  \"smoke\": {smoke},");
    s.push_str("  \"scales\": [\n");
    for (i, t) in rows.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"ranks\": {}, \"blocks\": {}, \"relations\": {}, \"mesh_build_ns\": {}, \"graph_build_ns\": {}, \"rebalance_ns\": {}, \"sim_ns\": {}, \"e2e_ns\": {}}}{}",
            t.ranks,
            t.blocks,
            t.relations,
            t.mesh_build_ns,
            t.graph_build_ns,
            t.rebalance_ns,
            t.sim_ns,
            t.e2e_ns,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    s.push_str("  ],\n");
    let _ = writeln!(
        s,
        "  \"evolving_pipeline\": \"tilted front sweep, {evolve_steps} steps, per changed step: adapt -> graph maintenance -> lpt rebalance; incremental (splice + CSR patch + delta origins) vs full (index rebuild + graph build + cold order)\","
    );
    s.push_str("  \"evolving\": [\n");
    for (i, (inc, full)) in evolving.iter().enumerate() {
        let arm = |t: &EvolvingTimings| {
            format!(
                "{{\"remesh_ns\": {}, \"graph_ns\": {}, \"place_ns\": {}, \"e2e_ns\": {}}}",
                t.remesh_ns, t.graph_ns, t.place_ns, t.e2e_ns
            )
        };
        let rg_speedup =
            (full.remesh_ns + full.graph_ns) as f64 / (inc.remesh_ns + inc.graph_ns).max(1) as f64;
        let e2e_speedup = full.e2e_ns as f64 / inc.e2e_ns.max(1) as f64;
        let _ = writeln!(
            s,
            "    {{\"ranks\": {}, \"blocks\": {}, \"steps\": {}, \"changed_steps\": {}, \"changed_blocks\": {}, \"incremental\": {}, \"full\": {}, \"remesh_graph_speedup\": {:.2}, \"e2e_speedup\": {:.2}}}{}",
            inc.ranks,
            inc.blocks,
            inc.steps,
            inc.changed_steps,
            inc.changed_blocks,
            arm(inc),
            arm(full),
            rg_speedup,
            e2e_speedup,
            if i + 1 == evolving.len() { "" } else { "," }
        );
    }
    s.push_str("  ]");
    if let Some(f) = faulty {
        s.push_str(",\n");
        let _ = writeln!(
            s,
            "  \"faulty_pipeline\": \"static mesh, lpt, {} steps; node 1 throttled 4x + NIC renegotiated to 1/10 rate on steps [{}, {}); arms share workload/seed and differ only in fault response\",",
            f.steps, f.onset_step, f.recovery_step
        );
        let arm = |a: &FaultyArm| {
            format!(
                "{{\"total_ns\": {:.0}, \"sync_ns\": {:.0}, \"lb_invocations\": {}, \"capacity_updates\": {}, \"nodes_pruned\": {}, \"blocks_migrated\": {}, \"wall_ns\": {}}}",
                a.total_ns,
                a.sync_ns,
                a.lb_invocations,
                a.capacity_updates,
                a.nodes_pruned,
                a.blocks_migrated,
                a.wall_ns
            )
        };
        s.push_str("  \"faulty\": {\n");
        let _ = writeln!(
            s,
            "    \"ranks\": {}, \"blocks\": {}, \"steps\": {},",
            f.ranks, f.blocks, f.steps
        );
        let _ = writeln!(s, "    \"healthy\": {},", arm(&f.healthy));
        let _ = writeln!(s, "    \"oblivious\": {},", arm(&f.oblivious));
        let _ = writeln!(s, "    \"reweight\": {},", arm(&f.reweight));
        let _ = writeln!(s, "    \"prune\": {},", arm(&f.prune));
        let _ = writeln!(
            s,
            "    \"reweight_recovery\": {:.3}, \"prune_recovery\": {:.3}",
            f.recovery(&f.reweight),
            f.recovery(&f.prune)
        );
        s.push_str("  }");
    }
    if let Some(p) = partition {
        s.push_str(",\n");
        let _ = writeln!(
            s,
            "  \"partition_pipeline\": \"static refined mesh; multilevel vs GreedyEdgeCut on topological cut, cold/warm repartition walls (warm asserted 0 heap growth); macrosim {} steps cplx50 vs ledger-fed multilevel, comm-bound (flat compute, 12 exchanges/step, multilevel must win exchange+sync) and compute-bound (skewed compute, 1 exchange/step, cplx must win the virtual step total)\",",
            p.comm_steps
        );
        let phases = |ph: &PolicyPhases| {
            format!(
                "{{\"compute_ns\": {:.0}, \"comm_ns\": {:.0}, \"sync_ns\": {:.0}, \"exchange_sync_ns\": {:.0}, \"remote_messages\": {}, \"blocks_migrated\": {}}}",
                ph.compute_ns,
                ph.comm_ns,
                ph.sync_ns,
                ph.exchange_sync(),
                ph.remote_messages,
                ph.blocks_migrated
            )
        };
        s.push_str("  \"partition\": {\n");
        let _ = writeln!(
            s,
            "    \"ranks\": {}, \"blocks\": {}, \"relations\": {},",
            p.ranks, p.blocks, p.relations
        );
        let _ = writeln!(
            s,
            "    \"greedy_cut\": {}, \"multilevel_cut\": {}, \"cut_ratio\": {:.4},",
            p.greedy_cut,
            p.multilevel_cut,
            p.multilevel_cut as f64 / p.greedy_cut.max(1) as f64
        );
        let _ = writeln!(
            s,
            "    \"place_cold_ns\": {}, \"place_cold_peak_bytes\": {}, \"place_warm_ns\": {}, \"place_warm_peak_bytes\": {},",
            p.place_cold_ns, p.place_cold_peak_bytes, p.place_warm_ns, p.place_warm_peak_bytes
        );
        let _ = writeln!(s, "    \"observed_bytes\": {},", p.observed_bytes);
        let _ = writeln!(
            s,
            "    \"comm_bound\": {{\"cplx\": {}, \"multilevel\": {}, \"exchange_sync_speedup\": {:.3}}},",
            phases(&p.comm_cplx),
            phases(&p.comm_multilevel),
            p.comm_cplx.exchange_sync() / p.comm_multilevel.exchange_sync().max(1.0)
        );
        let _ = writeln!(
            s,
            "    \"compute_bound\": {{\"cplx\": {}, \"multilevel\": {}, \"cplx_virt_advantage\": {:.3}}}",
            phases(&p.compute_cplx),
            phases(&p.compute_multilevel),
            p.compute_multilevel.virt() / p.compute_cplx.virt().max(1.0)
        );
        s.push_str("  }");
    }
    if let Some(n) = network {
        s.push_str(",\n");
        let _ = writeln!(
            s,
            "  \"network_pipeline\": \"static refined mesh, flat costs, {} steps x 12 exchanges; CPL0 (strict locality) vs shuffled round-robin scatter under the credit/congestion fabric, sync-fraction trigger ({}) + adaptive collectives; deep credits: locality must win the virtual step total, starved credits: scatter must win (Fig. 7a inversion), congested pass asserted bit-identical at {} threads\",",
            n.steps, n.sync_trigger, n.bitwise_threads
        );
        let phases = |ph: &PolicyPhases| {
            format!(
                "{{\"compute_ns\": {:.0}, \"comm_ns\": {:.0}, \"sync_ns\": {:.0}, \"virt_ns\": {:.0}, \"remote_messages\": {}, \"blocks_migrated\": {}}}",
                ph.compute_ns,
                ph.comm_ns,
                ph.sync_ns,
                ph.virt(),
                ph.remote_messages,
                ph.blocks_migrated
            )
        };
        let regime = |s: &mut String, key: &str, r: &NetworkRegime, trail: &str| {
            let _ = writeln!(
                s,
                "    \"{key}\": {{\"ranks\": {}, \"blocks\": {}, \"nodes\": {}, \"credit_bytes\": {},",
                r.ranks, r.blocks, r.nodes, r.credit_bytes
            );
            let _ = writeln!(s, "      \"local\": {},", phases(&r.local));
            let _ = writeln!(s, "      \"spread\": {},", phases(&r.spread));
            let _ = writeln!(
                s,
                "      \"local_lb_invocations\": {}, \"spread_lb_invocations\": {}, \"local_over_spread_virt\": {:.4}}}{trail}",
                r.local_lb_invocations,
                r.spread_lb_invocations,
                r.local.virt() / r.spread.virt().max(1.0)
            );
        };
        s.push_str("  \"network\": {\n");
        let _ = writeln!(
            s,
            "    \"steps\": {}, \"congestion_backoff\": {}, \"sync_trigger\": {}, \"virtual_phases_bitwise_threads\": {},",
            n.steps, n.congestion_backoff, n.sync_trigger, n.bitwise_threads
        );
        regime(&mut s, "small", &n.small, ",");
        regime(&mut s, "large", &n.large, "");
        s.push_str("  }");
    }
    if let Some(sh) = sharded {
        s.push_str(",\n");
        let _ = writeln!(
            s,
            "  \"sharded_pipeline\": \"static random mesh; resident global CSR vs one streamed per-shard CSR at a time ({} shards); macrosim virtual phases asserted bit-identical flat vs S=1 vs S={}\",",
            sh.shards, sh.shards
        );
        s.push_str("  \"sharded\": {\n");
        let _ = writeln!(
            s,
            "    \"ranks\": {}, \"blocks\": {}, \"relations\": {}, \"shards\": {},",
            sh.ranks, sh.blocks, sh.relations, sh.shards
        );
        let _ = writeln!(
            s,
            "    \"flat_graph_build_ns\": {}, \"flat_graph_peak_bytes\": {},",
            sh.flat_graph_ns, sh.flat_graph_peak_bytes
        );
        let _ = writeln!(
            s,
            "    \"stream_graph_build_ns\": {}, \"stream_graph_peak_bytes\": {}, \"graph_peak_ratio\": {:.2},",
            sh.stream_graph_ns,
            sh.stream_graph_peak_bytes,
            sh.flat_graph_peak_bytes as f64 / sh.stream_graph_peak_bytes.max(1) as f64
        );
        let _ = writeln!(
            s,
            "    \"halo_blocks\": {}, \"cross_relations\": {}, \"halo_exchange_ns\": {:.0},",
            sh.halo_blocks, sh.cross_relations, sh.sharded.halo_exchange_ns
        );
        let _ = writeln!(
            s,
            "    \"virtual_phases_bitwise_flat\": true, \"compute_ns\": {:.0}, \"comm_ns\": {:.0}, \"sync_ns\": {:.0}, \"mpi_messages\": {},",
            sh.flat.compute_ns, sh.flat.comm_ns, sh.flat.sync_ns, sh.flat.mpi_messages
        );
        let _ = writeln!(
            s,
            "    \"flat_sim_wall_ns\": {}, \"sharded_sim_wall_ns\": {}",
            sh.flat.sim_wall_ns, sh.sharded.sim_wall_ns
        );
        s.push_str("  }");
    }
    if let Some(p) = parallel {
        s.push_str(",\n");
        let _ = writeln!(
            s,
            "  \"parallel_pipeline\": \"same static trajectory serial vs {} worker threads (slot-ownership kernels); virtual phases asserted bit-identical before any wall is reported\",",
            p.threads
        );
        s.push_str("  \"parallel\": {\n");
        let _ = writeln!(
            s,
            "    \"ranks\": {}, \"blocks\": {}, \"threads\": {}, \"host_cores\": {},",
            p.ranks, p.blocks, p.threads, p.host_cores
        );
        let _ = writeln!(
            s,
            "    \"serial_wall_ns\": {}, \"parallel_wall_ns\": {}, \"speedup\": {:.2}, \"virtual_phases_bitwise_serial\": true",
            p.serial_wall_ns, p.parallel_wall_ns, p.speedup
        );
        s.push_str("  }");
    }
    if let Some(h) = hier {
        s.push_str(",\n");
        let _ = writeln!(
            s,
            "  \"hierarchical_pipeline\": \"solo sharded trajectory at {} ranks ({} nodes x {}): mesh -> streamed per-node CSR -> two-stage hier placement ({} stage-1 shards) -> {} macrosim steps on {} resident shards\",",
            h.ranks, h.nodes, h.ranks_per_node, h.policy_shards, h.sim_steps, h.sim_shards
        );
        s.push_str("  \"hierarchical\": {\n");
        let _ = writeln!(
            s,
            "    \"ranks\": {}, \"blocks\": {}, \"relations\": {}, \"nodes\": {}, \"ranks_per_node\": {}, \"mesh_shards\": {}, \"policy_shards\": {},",
            h.ranks, h.blocks, h.relations, h.nodes, h.ranks_per_node, h.mesh_shards, h.policy_shards
        );
        let _ = writeln!(s, "    \"mesh_build_ns\": {},", h.mesh_build_ns);
        let _ = writeln!(
            s,
            "    \"stream_graph_build_ns\": {}, \"stream_graph_peak_bytes\": {}, \"halo_blocks\": {}, \"cross_relations\": {},",
            h.stream_graph_ns, h.stream_graph_peak_bytes, h.halo_blocks, h.cross_relations
        );
        let _ = writeln!(
            s,
            "    \"place_cold_ns\": {}, \"place_cold_peak_bytes\": {}, \"place_warm_ns\": {}, \"place_warm_peak_bytes\": {},",
            h.place_cold_ns, h.place_cold_peak_bytes, h.place_warm_ns, h.place_warm_peak_bytes
        );
        let _ = writeln!(
            s,
            "    \"sim_steps\": {}, \"sim_shards\": {}, \"sim_wall_ns\": {}, \"sim_threads\": {}, \"sim_wall_threaded_ns\": {}, \"virtual_total_ns\": {:.0}",
            h.sim_steps, h.sim_shards, h.sim_wall_ns, h.sim_threads, h.sim_wall_threaded_ns, h.virtual_total_ns
        );
        s.push_str("  }");
    }
    if let Some(sv) = service {
        s.push_str(",\n");
        let _ = writeln!(
            s,
            "  \"service_pipeline\": \"{} concurrent sessions x {} waves of mixed adapt/rebalance/simulate/query traffic batched over {} worker threads; close parks warm engines in the fingerprint LRU, reopen checks them out; service placements asserted bit-identical to direct engine calls and a warm serve cycle asserted 0 heap growth\",",
            sv.load.shapes, sv.load.waves, sv.load.threads
        );
        s.push_str("  \"service\": {\n");
        let _ = writeln!(
            s,
            "    \"shapes\": {}, \"waves\": {}, \"threads\": {},",
            sv.load.shapes, sv.load.waves, sv.load.threads
        );
        let _ = writeln!(
            s,
            "    \"sessions\": {}, \"requests\": {}, \"wall_ns\": {},",
            sv.load.sessions, sv.load.requests, sv.load.wall_ns
        );
        let _ = writeln!(
            s,
            "    \"sessions_per_sec\": {:.1}, \"requests_per_sec\": {:.1},",
            sv.load.sessions_per_sec, sv.load.requests_per_sec
        );
        let _ = writeln!(
            s,
            "    \"warm_hits\": {}, \"cold_misses\": {}, \"warm_hit_rate\": {:.4},",
            sv.load.warm_hits, sv.load.cold_misses, sv.load.warm_hit_rate
        );
        let _ = writeln!(
            s,
            "    \"p50_ns\": {}, \"p99_ns\": {}, \"max_ns\": {},",
            sv.load.p50_ns, sv.load.p99_ns, sv.load.max_ns
        );
        let _ = writeln!(
            s,
            "    \"warm_serve_ns\": {}, \"warm_serve_peak_bytes\": {}, \"placements_bitwise_direct\": true",
            sv.warm_serve_ns, sv.warm_serve_peak_bytes
        );
        s.push_str("  }");
    }
    s.push_str("\n}\n");
    s
}
