//! The end-to-end pipeline shared by the `macrosim_e2e` Criterion bench and
//! the `perf_trajectory` runner: mesh build → neighbor graph → placement
//! rebalance → macro-simulated steps, at a given rank count.
//!
//! This is the paper's whole methodology in one pass — the loop that must be
//! cheap for placement sweeps to be affordable — so its wall time is the
//! number the perf trajectory (`BENCH_macrosim.json`) tracks across PRs.

use amr_core::cost::origins_from_delta;
use amr_core::engine::PlacementEngine;
use amr_core::policies::{Cplx, Lpt};
use amr_core::trigger::RebalanceTrigger;
use amr_mesh::{AmrMesh, BlockFate, Dim, MeshBlock, MeshConfig, PatchScratch, RefineTag};
use amr_sim::{
    FaultEpisode, FaultResponse, FaultTimeline, MacroSim, SimConfig, Workload, WorkloadStep,
};
use amr_telemetry::TraceHandle;
use amr_workloads::random_refined_mesh;
use std::time::Instant;

/// Static workload over a prebuilt mesh with deterministic skewed costs:
/// exercises the full macrosim step (compute, exchange, sync) without mesh
/// adaptation noise, so step cost is comparable across runs.
pub struct StaticPipelineWorkload {
    mesh: AmrMesh,
    costs: Vec<f64>,
    steps: u64,
}

impl StaticPipelineWorkload {
    /// Wrap `mesh` with `steps` timesteps of skewed per-block costs.
    pub fn new(mesh: AmrMesh, steps: u64) -> StaticPipelineWorkload {
        let costs = skewed_costs(mesh.num_blocks());
        StaticPipelineWorkload { mesh, costs, steps }
    }
}

impl Workload for StaticPipelineWorkload {
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

/// Deterministic mildly skewed per-block cost vector (same shape as the
/// zero-alloc test fixtures).
pub fn skewed_costs(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 1.0e6 * (1.0 + 0.37 * (i % 13) as f64))
        .collect()
}

/// Stage timings of one pipeline pass (all nanoseconds of host wall clock).
#[derive(Debug, Clone, Copy)]
pub struct E2eTimings {
    pub ranks: usize,
    pub blocks: usize,
    /// Directed neighbor relations in the built graph.
    pub relations: usize,
    pub mesh_build_ns: u64,
    pub graph_build_ns: u64,
    pub rebalance_ns: u64,
    /// Macro-simulated steps (includes the simulator's own epoch builds).
    pub sim_ns: u64,
    /// Whole pass, end to end.
    pub e2e_ns: u64,
}

/// Run one full pipeline pass at `ranks` ranks: build a random refined mesh
/// (~1.6 blocks/rank, the paper's commbench regime), build its neighbor
/// graph, compute a CPLX-50 placement, then macro-simulate `steps` steps.
pub fn run_pipeline(ranks: usize, steps: u64, seed: u64) -> E2eTimings {
    run_pipeline_with(ranks, steps, seed, None)
}

/// [`run_pipeline`] with span tracing and metrics attached to the mesh, the
/// standalone placement engine, and the simulator. Identical work — tracing
/// only observes — so the `--trace` arm of `perf_trajectory` can compare the
/// two `sim_ns` and bound the instrumentation overhead.
pub fn run_pipeline_traced(ranks: usize, steps: u64, seed: u64, trace: &TraceHandle) -> E2eTimings {
    run_pipeline_with(ranks, steps, seed, Some(trace))
}

fn run_pipeline_with(
    ranks: usize,
    steps: u64,
    seed: u64,
    trace: Option<&TraceHandle>,
) -> E2eTimings {
    let policy = Cplx::new(50);
    let t_total = Instant::now();

    let t = Instant::now();
    let mut mesh = random_refined_mesh(ranks, 1.6, seed);
    let mesh_build_ns = t.elapsed().as_nanos() as u64;
    let blocks = mesh.num_blocks();
    mesh.set_trace(trace.cloned());

    let t = Instant::now();
    let graph = mesh.neighbor_graph();
    let graph_build_ns = t.elapsed().as_nanos() as u64;
    let relations = graph.total_relations();
    drop(graph);

    let costs = skewed_costs(blocks);
    let mut engine = PlacementEngine::new();
    engine.set_trace(trace.cloned());
    let t = Instant::now();
    engine
        .rebalance_with(&policy, &costs, ranks, Some(&mesh), None)
        .expect("pipeline rebalance failed");
    let rebalance_ns = t.elapsed().as_nanos() as u64;

    let mut cfg = SimConfig::tuned(ranks);
    cfg.telemetry_sampling = 1_000_000; // telemetry off: measure the engine
    let mut sim = MacroSim::new(cfg);
    sim.set_trace(trace.cloned());
    let mut workload = StaticPipelineWorkload::new(mesh, steps);
    let t = Instant::now();
    let report = sim.run(&mut workload, &policy, RebalanceTrigger::OnMeshChange);
    let sim_ns = t.elapsed().as_nanos() as u64;
    assert_eq!(report.steps, steps);

    E2eTimings {
        ranks,
        blocks,
        relations,
        mesh_build_ns,
        graph_build_ns,
        rebalance_ns,
        sim_ns,
        e2e_ns: t_total.elapsed().as_nanos() as u64,
    }
}

/// One arm of the faulty trajectory (virtual nanoseconds from the report,
/// host wall clock for the pass).
#[derive(Debug, Clone, Copy)]
pub struct FaultyArm {
    /// Virtual end-to-end run time.
    pub total_ns: f64,
    /// Mean-per-rank synchronization total (where straggling lands).
    pub sync_ns: f64,
    pub lb_invocations: u64,
    pub capacity_updates: u64,
    pub nodes_pruned: u64,
    pub blocks_migrated: u64,
    /// Host wall clock of the whole simulated pass.
    pub wall_ns: u64,
}

/// Four-arm mid-run-fault comparison on identical workloads: healthy,
/// fault-oblivious, detect-and-reweight, detect-and-prune.
#[derive(Debug, Clone, Copy)]
pub struct FaultyTimings {
    pub ranks: usize,
    pub steps: u64,
    pub blocks: usize,
    /// Episode bounds (onset at `steps/3`, recovery at `2·steps/3`).
    pub onset_step: u64,
    pub recovery_step: u64,
    pub healthy: FaultyArm,
    pub oblivious: FaultyArm,
    pub reweight: FaultyArm,
    pub prune: FaultyArm,
}

impl FaultyTimings {
    /// Fraction of the fault-induced e2e slowdown (`oblivious − healthy`)
    /// recovered by `arm`. 1.0 = fully recovered, 0.0 = no better than
    /// ignoring the fault.
    pub fn recovery(&self, arm: &FaultyArm) -> f64 {
        let hurt = self.oblivious.total_ns - self.healthy.total_ns;
        if hurt <= 0.0 {
            return 1.0;
        }
        (self.oblivious.total_ns - arm.total_ns) / hurt
    }
}

/// Run the canned faulty trajectory at `ranks` ranks: a static random
/// refined mesh (~1.6 blocks/rank) simulated for `steps` steps under LPT,
/// with one node throttled 4× — and its NIC halved — from `steps/3` to
/// `2·steps/3` (the paper's §IV-A fail-slow signature, appearing and
/// recovering mid-run). All four arms see the identical workload, costs,
/// and jitter seed; they differ only in the fault response:
///
/// * **healthy** — no episode at all (the recovery ceiling);
/// * **oblivious** — episode injected, detector off: every step waits out
///   the straggler in synchronization;
/// * **reweight** — online detector + capacity-aware LPT: the slow node
///   keeps ~1/inflation of its fair share while the episode lasts;
/// * **prune** — online detector + blacklist-and-migrate onto one spare
///   machine: escapes both the compute throttle and the degraded NIC at
///   the price of a one-shot state migration.
pub fn run_faulty(ranks: usize, steps: u64, seed: u64) -> FaultyTimings {
    let policy = Lpt;
    let mesh = random_refined_mesh(ranks, 1.6, seed);
    let blocks = mesh.num_blocks();
    let onset = steps / 3;
    let recovery = 2 * steps / 3;
    // 4× compute throttle plus a link renegotiated down an order of
    // magnitude (the 100G→10G fallback failure mode): capacity reweighting
    // compensates the compute share, but the slow NIC still gates the
    // per-step collective for everyone — only pruning escapes both.
    let episode = FaultEpisode::throttle(onset, recovery, [1], 4.0).with_nic_degradation(0.1);

    let arm = |faulty: bool, response: FaultResponse, spares: usize| -> FaultyArm {
        let mut cfg = SimConfig::tuned(ranks);
        cfg.telemetry_sampling = 1_000_000; // telemetry off: measure the loop
        cfg.seed = seed ^ 0x5EED;
        if faulty {
            cfg.faults = FaultTimeline::with_episode(episode.clone());
        }
        cfg.fault_response = response;
        cfg.spare_nodes = spares;
        let mut w = StaticPipelineWorkload::new(mesh.clone(), steps);
        let mut sim = MacroSim::new(cfg);
        let t = Instant::now();
        let rep = sim.run(&mut w, &policy, RebalanceTrigger::OnMeshChange);
        FaultyArm {
            total_ns: rep.total_ns,
            sync_ns: rep.phases.sync_ns,
            lb_invocations: rep.lb_invocations,
            capacity_updates: rep.capacity_updates,
            nodes_pruned: rep.nodes_pruned,
            blocks_migrated: rep.blocks_migrated,
            wall_ns: t.elapsed().as_nanos() as u64,
        }
    };

    FaultyTimings {
        ranks,
        steps,
        blocks,
        onset_step: onset,
        recovery_step: recovery,
        healthy: arm(false, FaultResponse::Oblivious, 0),
        oblivious: arm(true, FaultResponse::Oblivious, 0),
        reweight: arm(true, FaultResponse::Reweight, 0),
        prune: arm(true, FaultResponse::PruneAndMigrate, 1),
    }
}

/// Virtual-time fingerprint of one macro-simulated pass over a prebuilt
/// static mesh, with the topology held flat (`num_shards == 0`) or sharded
/// `num_shards` ways. Phase totals are *virtual* nanoseconds — host wall
/// clock only enters through `sim_wall_ns`.
#[derive(Debug, Clone, Copy)]
pub struct ShardedRun {
    pub num_shards: usize,
    pub compute_ns: f64,
    pub comm_ns: f64,
    pub sync_ns: f64,
    /// MPI-visible (local + remote) messages over the run.
    pub mpi_messages: u64,
    /// Ghost blocks of the final epoch, summed over shards (0 when flat or
    /// at a single shard).
    pub halo_blocks: u64,
    /// Virtual time charged for inter-shard ghost-metadata exchange.
    pub halo_exchange_ns: f64,
    pub sim_wall_ns: u64,
}

/// Macro-simulate `steps` steps over `mesh` under LPT with the topology
/// partitioned into `num_shards` shards (0 = the resident flat graph).
/// Shard rows store global neighbor ids in global SFC row order, so the
/// virtual phase totals must be bit-identical to the flat run's at *every*
/// shard count — the `--sharded` bench arm asserts this with
/// `f64::to_bits`; only the redistribution phase may differ (the halo
/// ghost-metadata charge, zero at `num_shards <= 1`).
pub fn run_sharded(
    mesh: &AmrMesh,
    ranks: usize,
    steps: u64,
    seed: u64,
    num_shards: usize,
) -> ShardedRun {
    run_sharded_threaded(mesh, ranks, steps, seed, num_shards, 1)
}

/// [`run_sharded`] with the simulator's worker-pool knob dialed to
/// `threads` (1 = each kernel's single task, run inline). The rank-range
/// kernels follow the slot-ownership rule, so every virtual number in the
/// returned fingerprint must be bit-identical to the 1-thread run's — the
/// `--threads` bench arm asserts it before reporting any speedup.
pub fn run_sharded_threaded(
    mesh: &AmrMesh,
    ranks: usize,
    steps: u64,
    seed: u64,
    num_shards: usize,
    threads: usize,
) -> ShardedRun {
    let mut cfg = SimConfig::tuned(ranks);
    cfg.telemetry_sampling = 1_000_000; // telemetry off: measure the loop
    cfg.seed = seed ^ 0x5EED;
    cfg.num_shards = num_shards;
    cfg.threads = threads;
    let mut w = StaticPipelineWorkload::new(mesh.clone(), steps);
    let mut sim = MacroSim::new(cfg);
    let t = Instant::now();
    let rep = sim.run(&mut w, &Lpt, RebalanceTrigger::OnMeshChange);
    ShardedRun {
        num_shards,
        compute_ns: rep.phases.compute_ns,
        comm_ns: rep.phases.comm_ns,
        sync_ns: rep.phases.sync_ns,
        mpi_messages: rep.messages.mpi(),
        halo_blocks: rep.final_halo_blocks,
        halo_exchange_ns: rep.halo_exchange_ns,
        sim_wall_ns: t.elapsed().as_nanos() as u64,
    }
}

/// Stage totals of one evolving-mesh trajectory (nanoseconds of host wall
/// clock, summed over all steps).
#[derive(Debug, Clone, Copy)]
pub struct EvolvingTimings {
    pub ranks: usize,
    pub steps: u64,
    /// Block count after the trajectory's last step.
    pub blocks: usize,
    /// Steps on which the mesh actually changed.
    pub changed_steps: u64,
    /// Old blocks whose fate was not `Same`, summed over all adapts.
    pub changed_blocks: u64,
    /// adapt() (+ forced full index rebuild in the full-rebuild arm).
    pub remesh_ns: u64,
    /// Neighbor-graph maintenance: CSR patch vs full build.
    pub graph_ns: u64,
    /// Placement rebalance (delta origins let the warm LPT order survive).
    pub place_ns: u64,
    /// Whole trajectory, end to end.
    pub e2e_ns: u64,
}

/// Tag function of the front-sweep trajectory: a tilted planar front at
/// `x = s + slope·y` (extruded in z) refines every block it crosses (within
/// margin `w`) and coarsens everything it has left behind. The tilt spreads
/// root-boundary crossings across steps, so a small per-step advance of `s`
/// changes only a few percent of the blocks — the steady remeshing regime of
/// a propagating AMR feature (shock/ionization front).
fn front_tag(b: &MeshBlock, s: f64, slope: f64, w: f64, max_level: u8) -> RefineTag {
    let f_lo = s + slope * b.bounds.lo.y;
    let f_hi = s + slope * b.bounds.hi.y;
    let crosses = f_hi >= b.bounds.lo.x - w && f_lo <= b.bounds.hi.x + w;
    if crosses && b.level() < max_level {
        RefineTag::Refine
    } else if !crosses && b.level() > 0 {
        RefineTag::Coarsen
    } else {
        RefineTag::Keep
    }
}

/// Run one evolving-mesh trajectory at `ranks` ranks: a tilted front sweeps
/// across a root grid of ~1 block/rank for `steps` steps, refining ahead and
/// coarsening behind (~2–5 % of blocks change per step). Every changed step
/// does remesh → neighbor-graph maintenance → LPT rebalance.
///
/// The two arms share the identical tag sequence and differ only in how the
/// derived state is maintained:
/// * `full_rebuild = false` — incremental: the adapt splices the block index,
///   [`AmrMesh::patch_neighbor_graph`] repairs only affected CSR rows, and
///   delta-derived [`CostOrigin`](amr_core::cost::CostOrigin)s carry the
///   engine's warm LPT order across the remesh.
/// * `full_rebuild = true` — the legacy path: every change pays a full
///   index rebuild ([`AmrMesh::force_full_rebuild`]), a from-scratch
///   [`AmrMesh::neighbor_graph`] build, and an origin-less rebalance (cold
///   LPT order).
pub fn run_evolving(ranks: usize, steps: u64, full_rebuild: bool) -> EvolvingTimings {
    run_evolving_with(ranks, steps, full_rebuild, None)
}

/// [`run_evolving`] with span tracing attached to the mesh and the engine:
/// fills the `remesh`/`splice_index`/`graph_patch`/`place` phases of the
/// trace artifacts, which the static pipeline never exercises.
pub fn run_evolving_traced(
    ranks: usize,
    steps: u64,
    full_rebuild: bool,
    trace: &TraceHandle,
) -> EvolvingTimings {
    run_evolving_with(ranks, steps, full_rebuild, Some(trace))
}

fn run_evolving_with(
    ranks: usize,
    steps: u64,
    full_rebuild: bool,
    trace: Option<&TraceHandle>,
) -> EvolvingTimings {
    let policy = Lpt;
    let roots_axis = (ranks as f64).cbrt().round().max(2.0) as u32;
    let cells = roots_axis * 16;
    let mut mesh = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (cells, cells, cells), 1));
    mesh.set_trace(trace.cloned());
    let slope = 0.3;
    let w = 0.01;
    let s0 = 0.3;
    // One-sixteenth of a root width per step: the tilted front crosses a few
    // root boundaries each step instead of a whole column at once.
    let ds = 1.0 / (16.0 * roots_axis as f64);

    // Establish the initial band and warm every buffer outside the timed loop.
    mesh.adapt(|b| front_tag(b, s0, slope, w, 1));
    let mut graph = mesh.neighbor_graph();
    let mut patch_scratch = PatchScratch::default();
    let mut origins = Vec::new();
    let mut costs = skewed_costs(mesh.num_blocks());
    let mut engine = PlacementEngine::new();
    engine.set_trace(trace.cloned());
    engine
        .rebalance_with(&policy, &costs, ranks, None, None)
        .expect("initial evolving rebalance failed");

    let mut out = EvolvingTimings {
        ranks,
        steps,
        blocks: mesh.num_blocks(),
        changed_steps: 0,
        changed_blocks: 0,
        remesh_ns: 0,
        graph_ns: 0,
        place_ns: 0,
        e2e_ns: 0,
    };
    let t_total = Instant::now();
    for step in 0..steps {
        let s = s0 + ds * (step + 1) as f64;

        let t = Instant::now();
        let changed = mesh.adapt(|b| front_tag(b, s, slope, w, 1)).changed();
        if full_rebuild && changed {
            mesh.force_full_rebuild();
        }
        out.remesh_ns += t.elapsed().as_nanos() as u64;
        if !changed {
            continue;
        }
        out.changed_steps += 1;
        out.changed_blocks += mesh
            .last_delta()
            .remap
            .iter()
            .filter(|f| !matches!(f, BlockFate::Same(_)))
            .count() as u64;

        let t = Instant::now();
        if full_rebuild {
            graph = mesh.neighbor_graph();
        } else {
            mesh.patch_neighbor_graph(&mut graph, &mut patch_scratch);
        }
        out.graph_ns += t.elapsed().as_nanos() as u64;
        std::hint::black_box(graph.num_blocks());

        // Refresh costs for the new block count (identical in both arms,
        // deliberately outside the placement timer).
        let n = mesh.num_blocks();
        costs.clear();
        costs.extend((0..n).map(|i| 1.0e6 * (1.0 + 0.37 * (i % 13) as f64)));

        let t = Instant::now();
        if full_rebuild {
            engine
                .rebalance_with(&policy, &costs, ranks, None, None)
                .expect("full-arm rebalance failed");
        } else {
            origins_from_delta(mesh.last_delta(), &mut origins);
            engine
                .rebalance_with(&policy, &costs, ranks, None, Some(&origins))
                .expect("incremental-arm rebalance failed");
        }
        out.place_ns += t.elapsed().as_nanos() as u64;
    }
    out.e2e_ns = t_total.elapsed().as_nanos() as u64;
    out.blocks = mesh.num_blocks();
    out
}

/// CI guard for the no-op-adapt fast path: an all-`Keep` adapt must report
/// an identity delta and cost far less than a forced full index rebuild.
/// Returns `(noop_adapt_ns, full_rebuild_ns)` (min over a few reps); panics
/// if the fast path has regressed onto the full-rebuild path.
pub fn assert_noop_adapt_fast(ranks: usize) -> (u64, u64) {
    let mut mesh = random_refined_mesh(ranks, 1.6, 1);
    // Warm both paths (page faults, allocator) before timing.
    mesh.adapt(|_| RefineTag::Keep);
    mesh.force_full_rebuild();

    let mut noop = u64::MAX;
    for _ in 0..5 {
        let t = Instant::now();
        let d = mesh.adapt(|_| RefineTag::Keep);
        assert!(d.is_identity(), "no-op adapt must report an identity delta");
        noop = noop.min(t.elapsed().as_nanos() as u64);
    }
    let mut full = u64::MAX;
    for _ in 0..5 {
        let t = Instant::now();
        mesh.force_full_rebuild();
        full = full.min(t.elapsed().as_nanos() as u64);
    }
    assert!(
        noop * 2 < full,
        "no-op adapt ({noop} ns) must be far cheaper than a full index \
         rebuild ({full} ns): the identity fast path regressed"
    );
    (noop, full)
}
