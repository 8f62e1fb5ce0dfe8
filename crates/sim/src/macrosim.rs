//! Step-level simulation of a full AMR run.
//!
//! Message-level simulation of 30k–53k timesteps at 4096 ranks is neither
//! feasible nor necessary: the Fig. 6 findings are about per-step phase
//! times and their propagation through synchronization. `MacroSim` computes,
//! per timestep:
//!
//! 1. **Compute** — per-rank sums of per-block costs from the workload,
//!    scaled by node fault multipliers and OS jitter ([`crate::faults`]);
//! 2. **Boundary exchange** — per-rank dispatch + receive-service times from
//!    the placement-classified message aggregates (intra-rank relations are
//!    memcpys), plus the two-rank-critical-path wait: a rank blocks until its
//!    slowest sending neighbor has dispatched (§IV-D);
//! 3. **Synchronization** — a binomial-tree barrier over per-rank finish
//!    times ([`crate::collectives`]): stragglers charge everyone;
//! 4. **Redistribution** — when the trigger fires, the placement policy runs
//!    through a reused [`amr_core::engine::PlacementEngine`] (wall-clock
//!    measured against the paper's 50 ms budget, allocation-free in steady
//!    state) and the engine's migration accounting is charged at fabric
//!    bandwidth.
//!
//! Per-block compute telemetry feeds an EWMA cost model
//! ([`amr_core::cost::TelemetryCostModel`]) which in turn feeds the policy —
//! the full telemetry-driven placement loop of the paper.

// Keeps `try_run` a sequence of per-phase functions (ceiling in clippy.toml).
#![deny(clippy::too_many_lines)]

use crate::collectives::{self, CollectiveAlgo, CollectiveSelect};
use crate::faults::{FaultResponse, FaultTimeline};
use crate::health::blacklist_and_rehost;
use crate::network::NetworkConfig;
use crate::par;
use crate::report::{MessageTotals, PhaseBreakdown};
use crate::topology::{NodeMap, Topology};
use amr_core::cost::TelemetryCostModel;
use amr_core::engine::PlacementEngine;
use amr_core::policies::PlacementPolicy;
use amr_core::trigger::{RebalanceTrigger, TriggerContext};
use amr_mesh::pool::{WorkerPool, MAX_POOL_THREADS};
use amr_mesh::{AmrMesh, BlockSpec, Dim, NeighborGraph, RefinementDelta, ShardedMesh};
use amr_telemetry::anomaly::{OnlineDetectorConfig, OnlineThrottleDetector};
use amr_telemetry::trace::{
    Counter as TraceCounter, Gauge as TraceGauge, Metrics, TraceHandle, TracePhase,
};
use amr_telemetry::{Collector, EventTable, Phase, NO_BLOCK};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Bytes per ghost-block metadata record in the inter-shard halo exchange:
/// SFC key (8) + level/owner (8) + cost estimate (8) + bounds tag (8).
const GHOST_META_BYTES: f64 = 32.0;

/// Measured sync share above which [`CollectiveSelect::Adaptive`] abandons
/// the binomial-tree default and re-selects the cheapest algorithm for the
/// current scale and payload. Below it, synchronization isn't the problem
/// and switching would only churn the collective schedule.
const ADAPTIVE_SYNC_THRESHOLD: f64 = 0.15;

/// What a workload reports after advancing one step.
#[derive(Debug, Clone, Default)]
pub struct WorkloadStep {
    /// Did the mesh refine/coarsen (requiring redistribution)?
    pub mesh_changed: bool,
}

/// A simulation workload: evolving mesh + per-block compute costs.
///
/// Implementations live in `amr-workloads` (Sedov blast wave, galaxy-cooling
/// style, synthetic). The contract: after `advance(step)`, `mesh()` and
/// `block_compute_ns()` describe the state for step `step`, and if the mesh
/// changed, `mesh().last_delta()` describes this step's change — its fate
/// table carries cost estimates, the warm placement and observed exchange
/// bytes across the adapt. A delta that does not start from the snapshot
/// the run last saw ([`RefinementDelta::from_snapshot`]) or does not map its
/// blocks onto the current mesh ([`RefinementDelta::maps`]) is ignored: the
/// run continues without ancestry. The run never holds the graph the mesh
/// keeps across `advance`: the adapt patches it in place.
pub trait Workload {
    /// The current mesh snapshot.
    fn mesh(&self) -> &AmrMesh;
    /// Advance the physics to `step` (0-based), possibly adapting the mesh.
    fn advance(&mut self, step: u64) -> WorkloadStep;
    /// Ground-truth expected compute cost (ns) per block, SFC order, for the
    /// current step. The simulator adds fault/jitter multipliers on top.
    fn block_compute_ns(&self) -> &[f64];
    /// Number of steps this scenario runs.
    fn total_steps(&self) -> u64;
}

/// Macro-simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    pub topology: Topology,
    pub network: NetworkConfig,
    /// Dynamic fault schedule (a plain [`crate::faults::FaultConfig`]
    /// converts via `.into()` for whole-run static faults).
    pub faults: FaultTimeline,
    /// How the run reacts when the online detector flags a node: ignore it,
    /// reweight placement capacities, or blacklist-and-migrate to spares.
    pub fault_response: FaultResponse,
    /// Tuning for the online throttle detector (only consulted when
    /// `fault_response` is not [`FaultResponse::Oblivious`]).
    pub detector: OnlineDetectorConfig,
    /// Spare machines overprovisioned for [`FaultResponse::PruneAndMigrate`]
    /// (the paper's §IV-A launch workflow).
    pub spare_nodes: usize,
    /// RNG seed for jitter.
    pub seed: u64,
    /// Record telemetry every `n`-th step (1 = all).
    pub telemetry_sampling: u32,
    /// Record per-block compute events (heavier) in addition to rank-level.
    pub per_block_telemetry: bool,
    /// Feed measured (EWMA) costs to the policy instead of uniform 1.0 —
    /// the paper's §V-A3 change (1). With `false`, even cost-aware policies
    /// see the production default of "every block costs 1".
    pub use_measured_costs: bool,
    /// EWMA smoothing for the telemetry cost model.
    pub cost_alpha: f64,
    /// Coupling between a sender's compute time and its boundary-send
    /// dispatch time. 0.0 models the fully tuned sends-first schedule
    /// (§IV-B: sends dispatched before compute); 1.0 models the untuned
    /// compute-before-send order where receivers wait out their slowest
    /// neighbor's entire compute. The tuned default keeps a small residue:
    /// later blocks' sends still trail their own kernels.
    pub send_coupling: f64,
    /// Boundary exchanges per timestep. Multi-stage time integrators
    /// exchange ghost zones once per stage plus flux correction (Parthenon's
    /// drivers typically run 2–3 stages), so each step carries several
    /// rounds of the per-round message aggregates.
    pub exchanges_per_step: u32,
    /// Asynchronous-runtime masking efficiency (§IV-D "overlapping
    /// computation to hide wait stalls"): the fraction of point-to-point
    /// wait hidden by independent work from *other blocks on the same
    /// rank*. 0.0 models strict BSP execution; 1.0 a perfect task runtime.
    /// A rank holding only one block has nothing to overlap with, so the
    /// effective masking scales with `1 - 1/blocks_on_rank` — the
    /// counterintuitive locality tension the paper points out.
    pub overlap_efficiency: f64,
    /// Number of SFC shards the mesh topology is partitioned into
    /// (hierarchical-scale runs), at most `topology.num_ranks`. `0` (the
    /// default) keeps the flat path. Any value ≥ 1 lays a [`ShardedMesh`]
    /// over the run's one [`NeighborGraph`] — each shard a row range of it
    /// plus a halo count, recounted on mesh change — and charges a
    /// ghost-metadata exchange between shards on mesh-change steps. With
    /// `num_shards == 1` the halo is empty, the charge is exactly zero, and
    /// virtual time is bit-identical to the flat path (every run fills its
    /// epochs from the same graph, so every float accumulates in the same
    /// order).
    pub num_shards: usize,
    /// Accumulate per-relation observed exchange bytes in an
    /// [`ExchangeByteLedger`](crate::ledger::ExchangeByteLedger) and feed
    /// them to the placement policy as measured edge weights
    /// ([`PlacementCtx::edge_weights`](amr_core::engine::PlacementCtx)) —
    /// the closed observe→partition loop that lets the multilevel family
    /// optimize real traffic instead of the static model (§VIII). The ledger
    /// is entry-parallel to the run's one [`NeighborGraph`], which sharded
    /// runs hold too. Policies that ignore edge weights see bit-identical
    /// virtual time with this on or off.
    pub observe_exchange_bytes: bool,
    /// OS threads the in-process simulator may use, from `1` (the default)
    /// to [`MAX_POOL_THREADS`]. Every rank-range phase — epoch fill, compute
    /// scatter, the fused ready/finish pass and ledger flushes — is one
    /// kernel in `crate::par` run on a simulator-owned worker pool of
    /// exactly this many threads; at `1` the pool spawns nothing and runs
    /// each kernel's single task inline. The
    /// slot-ownership rule of `crate::par` keeps virtual time **bitwise
    /// identical** at any value. The pool is sized by this field, not the
    /// host's core count, so multi-task schedules are genuinely exercised
    /// (timesharing if need be) even on small machines.
    pub threads: usize,
    /// Which allreduce algorithm closes each step's synchronization: a fixed
    /// [`CollectiveAlgo`] (the default pins the legacy binomial tree,
    /// bit-identical to the pre-enum simulator) or
    /// [`CollectiveSelect::Adaptive`], which watches the run's own
    /// sync-fraction feedback gauge and switches to the cheapest algorithm
    /// for the current scale/payload once synchronization dominates.
    pub collectives: CollectiveSelect,
    /// Payload of the per-step timestep-control allreduce (dt plus CFL
    /// diagnostics), bytes. The historical hard-coded value was 64.
    pub collective_payload_bytes: u64,
}

impl SimConfig {
    /// Tuned, healthy defaults at the given scale.
    pub fn tuned(num_ranks: usize) -> SimConfig {
        SimConfig {
            topology: Topology::paper(num_ranks),
            network: NetworkConfig::tuned(),
            faults: FaultTimeline::healthy(),
            fault_response: FaultResponse::Oblivious,
            detector: OnlineDetectorConfig::default(),
            spare_nodes: 0,
            seed: 0xA17,
            telemetry_sampling: 1,
            per_block_telemetry: false,
            use_measured_costs: true,
            cost_alpha: 0.5,
            send_coupling: 0.05,
            exchanges_per_step: 3,
            overlap_efficiency: 0.0,
            observe_exchange_bytes: false,
            num_shards: 0,
            threads: 1,
            collectives: CollectiveSelect::default(),
            collective_payload_bytes: 64,
        }
    }

    /// Boundary validation run by [`MacroSim::new`]: reject degenerate
    /// bandwidths and fault multipliers before they can poison the cost
    /// model mid-run. A zero/non-finite `bytes_per_ns` — reachable through a
    /// struct-literal [`crate::faults::FaultEpisode`] with
    /// `nic_bandwidth_mult: 0.0` — would saturate every allreduce to
    /// `u64::MAX` and (pre-fix) overflow the completion sum in debug builds.
    pub fn validate(&self) -> Result<(), String> {
        self.network
            .validate()
            .map_err(|e| format!("network.{e}"))?;
        self.faults.validate().map_err(|e| format!("faults: {e}"))?;
        if !(1..=MAX_POOL_THREADS).contains(&self.threads) {
            return Err(format!(
                "threads must be in 1..={MAX_POOL_THREADS} (got {}; 1 runs every kernel inline)",
                self.threads
            ));
        }
        if self.num_shards > self.topology.num_ranks {
            return Err(format!(
                "num_shards must be at most topology.num_ranks = {} (got {}; 0 keeps the flat path)",
                self.topology.num_ranks, self.num_shards
            ));
        }
        if !(self.cost_alpha > 0.0 && self.cost_alpha <= 1.0) {
            return Err(format!(
                "cost_alpha must be in (0, 1] (got {})",
                self.cost_alpha
            ));
        }
        if self.telemetry_sampling == 0 {
            return Err("telemetry_sampling must be >= 1 (1 records every step)".to_string());
        }
        if self.collective_payload_bytes == 0 {
            return Err(
                "collective_payload_bytes must be >= 1 (the dt allreduce always carries data)"
                    .to_string(),
            );
        }
        Ok(())
    }
}

/// Outcome of a macro-simulated run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Policy name used.
    pub policy: String,
    /// Steps simulated.
    pub steps: u64,
    /// Phase totals, mean per rank (ns).
    pub phases: PhaseBreakdown,
    /// Virtual wall time of the whole run (sum of step completions), ns.
    pub total_ns: f64,
    /// Number of redistribution invocations.
    pub lb_invocations: u64,
    /// Steps on which the mesh changed.
    pub mesh_change_steps: u64,
    /// Message totals over the run.
    pub messages: MessageTotals,
    /// Blocks migrated across all redistributions.
    pub blocks_migrated: u64,
    /// Initial / final block counts (Table I's n_init / n_final).
    pub initial_blocks: usize,
    pub final_blocks: usize,
    /// Host wall-clock time spent computing placements (total and max per
    /// invocation) — checked against the paper's 50 ms budget.
    pub placement_wall_total_ns: u64,
    pub placement_wall_max_ns: u64,
    /// Nodes blacklisted and re-hosted onto spares by the online loop.
    pub nodes_pruned: u64,
    /// Times the detector's verdict changed the capacity vector handed to
    /// the placement engine (onsets and recoveries both count).
    pub capacity_updates: u64,
    /// Shards the run's mesh topology was partitioned into (0 = flat path).
    pub num_shards: usize,
    /// Total virtual time charged for inter-shard ghost-metadata exchange
    /// across all mesh-change steps (exactly 0.0 on the flat path and at
    /// `num_shards == 1`, where the halo is empty).
    pub halo_exchange_ns: f64,
    /// Halo (ghost) blocks of the final epoch, summed over shards.
    pub final_halo_blocks: u64,
    /// Collected telemetry, in canonical `(step, rank, phase, block)` order.
    /// A pure function of virtual time except for the `duration_ns` of its
    /// `Redistribution` rows: those carry the *host* wall clock the
    /// placement took (`redist.per_rank_ns += wall`), so two runs of one
    /// configuration differ there and nowhere else — compare or hash tables
    /// with those durations masked (`tests/golden_telemetry.rs`).
    pub telemetry: EventTable,
}

impl RunReport {
    /// Did every placement computation meet the budget?
    pub fn placement_within_budget(&self, budget_ns: u64) -> bool {
        self.placement_wall_max_ns <= budget_ns
    }
}

/// Per-rank communication aggregates for the current (mesh, placement)
/// epoch. Recomputed only when either changes.
#[derive(Debug, Clone, Default)]
pub(crate) struct CommEpoch {
    /// Dispatch time per rank (MPI sends only).
    pub(crate) dispatch_ns: Vec<f64>,
    /// Receive service time per rank (incl. shm contention).
    pub(crate) service_ns: Vec<f64>,
    /// Intra-rank memcpy time per rank.
    pub(crate) memcpy_ns: Vec<f64>,
    /// Ranks that send to each rank (for the arrival/wait model), as one
    /// flat array of per-rank segments: rank `d`'s segment is
    /// `senders[sender_off[d]..sender_off[d + 1]]`, of which the last
    /// `sender_len[d]` entries are live — distinct and in no particular
    /// order ([`CommEpoch::senders_of`]). `sender_off` has `r + 1` entries.
    pub(crate) senders: Vec<u32>,
    pub(crate) sender_off: Vec<u32>,
    pub(crate) sender_len: Vec<u32>,
    /// Fill scratch: the node hosting each rank.
    pub(crate) node_of: Vec<u32>,
    /// Flux-correction traffic (fine→coarse face pairs, §II-B): per-rank
    /// dispatch+service time per step.
    pub(crate) flux_ns: Vec<f64>,
    /// Representative per-message transfer latency into each rank (max over
    /// classes present), for the arrival model.
    pub(crate) transfer_tail_ns: Vec<f64>,
    /// Blocks hosted per rank (for overlap availability).
    pub(crate) blocks_per_rank: Vec<u32>,
    /// Message counts by class and per-link remote bytes.
    pub(crate) counts: par::EpochCounts,
    /// Fill scratch: one row of `r` per task, `stamp[s] == d` once the
    /// task has listed `s` among rank `d`'s senders; and the per-task
    /// integer counters merged into `counts`.
    pub(crate) stamp: Vec<usize>,
    pub(crate) partials: Vec<par::EpochCounts>,
    /// Per-rank worst-outgoing-link congestion stall (ns/round): the sender
    /// blocks for credit returns, so it lands in the rank's ready time.
    pub(crate) cong_send_ns: Vec<f64>,
    /// Per-rank worst-incoming-link congestion stall (ns/round): retransmits
    /// delay the receive service tail.
    pub(crate) cong_recv_ns: Vec<f64>,
}

impl CommEpoch {
    /// The distinct ranks that send to `rank`, unordered.
    #[inline]
    pub(crate) fn senders_of(&self, rank: usize) -> &[u32] {
        let end = self.sender_off[rank + 1] as usize;
        &self.senders[end - self.sender_len[rank] as usize..end]
    }

    /// Clear the per-rank aggregates and size them for `r` ranks filled by
    /// `tasks` tasks, keeping every buffer's capacity (epochs are refilled
    /// in place). The fill sizes `senders` and overwrites `node_of` and
    /// `counts`.
    pub(crate) fn reset(&mut self, r: usize, tasks: usize) {
        for v in [
            &mut self.dispatch_ns,
            &mut self.service_ns,
            &mut self.memcpy_ns,
            &mut self.flux_ns,
            &mut self.transfer_tail_ns,
            &mut self.cong_send_ns,
            &mut self.cong_recv_ns,
        ] {
            v.clear();
            v.resize(r, 0.0);
        }
        self.blocks_per_rank.clear();
        self.blocks_per_rank.resize(r, 0);
        self.stamp.clear();
        self.stamp.resize(r * tasks, usize::MAX);
        self.sender_off.clear();
        self.sender_off.resize(r + 1, 0);
        self.sender_len.clear();
        self.sender_len.resize(r, 0);
    }
}

/// Redistribution charged to the current step: placement wall + migration
/// and the inter-shard halo republish. Accounting resets it, so what the
/// fault response (which runs after) charges for pruning lands on the next
/// step — the one at whose top the migration takes effect.
#[derive(Debug, Clone, Copy, Default)]
struct Redist {
    per_rank_ns: f64,
    moved: u64,
    bytes: u64,
}

/// Everything one run carries from step to step: the report being
/// accumulated, the closed fault loop's state, the cost model, and every
/// scratch vector the phases of [`MacroSim::try_run`] reuse.
struct Run {
    report: RunReport,
    collector: Collector,
    /// The closed fault loop: the collector's per-step compute series feeds
    /// an online throttle detector; its verdicts feed back as placement
    /// capacities (Reweight) or node blacklisting (PruneAndMigrate).
    /// `None` on oblivious runs, which skip all of it.
    detector: Option<OnlineThrottleDetector>,
    node_map: NodeMap,
    /// Capacity vector currently applied to the engine (inactive ⇔ ignored).
    caps: Vec<f64>,
    caps_active: bool,
    det_signal: Vec<f64>,
    force_rebalance: bool,
    /// Per-rank NIC slowdowns; pinned at 1.0 on compute-only timelines
    /// (multiplying by 1.0 is bit-exact, so the healthy path's arithmetic is
    /// unchanged), resampled per step otherwise.
    nic_slow: Vec<f64>,
    cost_model: TelemetryCostModel,
    spec: BlockSpec,
    dim: Dim,
    /// Bytes of one block's state (migration payload).
    block_bytes: u64,
    /// [`AmrMesh::snapshot_id`] of the mesh the run's state describes: the
    /// only snapshot whose adapt's delta the run trusts.
    snapshot: u64,
    /// The graph the run built for a mesh that kept none, read until the
    /// first remesh; `None` once the run reads the mesh's ([`run_graph`]).
    own_graph: Option<NeighborGraph>,
    /// Sharded runs: the shard plan, recounted on mesh change.
    shards: Option<ShardedMesh>,
    epoch: CommEpoch,
    redist: Redist,
    // Scratch reused across steps and rebalances.
    uniform: Vec<f64>,
    cost_spare: Vec<f64>,
    compute: Vec<f64>,
    finish: Vec<f64>,
    /// Per-rank send-dispatch times of the current step ([`par::finish_times`]).
    send_at: Vec<f64>,
    /// Per-rank loads behind the trigger's imbalance factor.
    loads: Vec<f64>,
    rank_mult: Vec<f64>,
    measured: Vec<f64>,
    arrivals: Vec<u64>,
    coll_wait: Vec<u64>,
}

/// The step-level simulator.
pub struct MacroSim {
    config: SimConfig,
    rng: StdRng,
    /// Placement engine reused across rebalances (and runs): its scratch and
    /// double-buffered placements make the steady-state rebalance loop
    /// allocation-free for the sequential policies.
    engine: PlacementEngine,
    /// Optional trace handle shared with the engine (and, by callers, the
    /// mesh): per-step virtual spans plus pipeline counters/gauges.
    trace: Option<TraceHandle>,
    /// The pool every rank-range kernel runs on, sized `config.threads`; at
    /// one thread it spawns nothing and runs each kernel's single task
    /// inline. Owned by the simulator (not the process-global pool) so
    /// workers persist across steps and runs — steady-state dispatch
    /// allocates nothing.
    pool: WorkerPool,
    /// Observed exchange-byte accumulator (active only with
    /// `config.observe_exchange_bytes`); owned by the simulator so its
    /// buffers stay warm across runs.
    ledger: crate::ledger::ExchangeByteLedger,
    /// The always-on feedback plane: the same [`Metrics`] shape the trace
    /// pipeline uses, but owned by the simulator (plain data, no lock) and
    /// updated every step whether or not tracing is attached. The rebalance trigger reads
    /// its sync-fraction gauge, and [`CollectiveSelect::Adaptive`] reads the
    /// gauge plus the per-phase histograms — control decisions consume the
    /// run's *measured* signals, not the cost model's estimates.
    feedback: Metrics,
}

impl MacroSim {
    /// Create a simulator from a config.
    ///
    /// # Panics
    /// On an invalid config (see [`SimConfig::validate`]): degenerate
    /// network bandwidth or malformed fault timeline. Servers hosting many
    /// tenants use [`MacroSim::try_new`] instead — one bad request must not
    /// kill the process.
    pub fn new(config: SimConfig) -> MacroSim {
        MacroSim::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`MacroSim::new`]: an invalid config (see
    /// [`SimConfig::validate`]) comes back as `Err` instead of a panic.
    pub fn try_new(config: SimConfig) -> Result<MacroSim, String> {
        config
            .validate()
            .map_err(|e| format!("invalid SimConfig: {e}"))?;
        Ok(MacroSim {
            rng: StdRng::seed_from_u64(config.seed),
            engine: PlacementEngine::new(),
            trace: None,
            pool: WorkerPool::new(config.threads),
            ledger: crate::ledger::ExchangeByteLedger::default(),
            feedback: Metrics::default(),
            config,
        })
    }

    /// The live feedback metrics (sync-fraction gauge, per-phase
    /// histograms). Meaningful after (or during) a run; reset at run start.
    pub fn feedback(&self) -> &Metrics {
        &self.feedback
    }

    /// The observed exchange-byte ledger (meaningful after a run with
    /// `observe_exchange_bytes`; tests and benches inspect it).
    pub fn exchange_ledger(&self) -> &crate::ledger::ExchangeByteLedger {
        &self.ledger
    }

    /// Attach (or detach, with `None`) a trace handle; the placement engine
    /// shares it, so `place` spans and rebalance metrics ride along.
    /// Tracing observes simulated time and never perturbs it: traced and
    /// untraced runs are bit-identical in virtual time (pinned by a property
    /// test in `tests/sim_properties.rs`).
    pub fn set_trace(&mut self, trace: Option<TraceHandle>) {
        self.engine.set_trace(trace.clone());
        self.trace = trace;
    }

    /// Run `workload` under `policy`, rebalancing per `trigger`.
    ///
    /// # Panics
    /// If a placement fails (zero ranks, degenerate costs). Servers use
    /// [`MacroSim::try_run`], which surfaces the failure as `Err`.
    pub fn run(
        &mut self,
        workload: &mut dyn Workload,
        policy: &dyn PlacementPolicy,
        trigger: RebalanceTrigger,
    ) -> RunReport {
        self.try_run(workload, policy, trigger)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`MacroSim::run`]: initial and mid-run placement failures
    /// come back as `Err` with the offending step named, leaving the
    /// simulator reusable, instead of panicking.
    ///
    /// Each step is a fixed sequence of phases over one `Run` state; each
    /// phase owns its trace spans and metrics, all derived from values the
    /// untraced run computes anyway — tracing never perturbs virtual time.
    pub fn try_run(
        &mut self,
        workload: &mut dyn Workload,
        policy: &dyn PlacementPolicy,
        trigger: RebalanceTrigger,
    ) -> Result<RunReport, String> {
        let mut run = self.begin_run(workload.mesh(), policy, workload.total_steps())?;
        for step in 0..run.report.steps {
            run.collector.begin_step(step as u32);
            if let Some(t) = &self.trace {
                t.set_step(step as u32);
                t.incr(TraceCounter::Steps, 1);
            }
            let ws = workload.advance(step);
            let mesh = workload.mesh();
            // This step's adapt, if it started from the run's snapshot and
            // maps its blocks; one answer for every consumer below.
            let delta = Some(mesh.last_delta()).filter(|d| {
                ws.mesh_changed
                    && d.from_snapshot == run.snapshot
                    && d.maps(run.cost_model.len(), mesh.num_blocks())
            });
            if ws.mesh_changed {
                self.remesh(&mut run, mesh, delta);
            }
            self.rebalance(&mut run, mesh, policy, trigger, step, &ws, delta)?;
            self.compute(&mut run, workload.block_compute_ns(), step);
            self.exchange(&mut run);
            let completion_ns = self.collective(&mut run);
            self.account(&mut run, workload.mesh().num_blocks(), completion_ns);
            self.respond_to_faults(&mut run);
        }
        Ok(self.finish_run(run, workload.mesh()))
    }

    /// Start a run: clean feedback plane, fault loop armed per config,
    /// initial placement, the graph, armed ledger, first epoch.
    ///
    /// The run reads the graph its mesh keeps. For a mesh that keeps none it
    /// builds one of its own and leaves the mesh as it was; the first remesh
    /// drops it and makes the mesh build and keep the new snapshot's, which
    /// every later adapt patches. A sharded run lays its shard plan over the
    /// same graph.
    fn begin_run(
        &mut self,
        mesh: &AmrMesh,
        policy: &dyn PlacementPolicy,
        steps: u64,
    ) -> Result<Run, String> {
        let cfg = &self.config;
        let r = cfg.topology.num_ranks;
        let mut collector = Collector::with_sampling(cfg.telemetry_sampling);
        // The feedback metrics are owned by the simulator so their histogram
        // buffers stay warm across runs.
        self.feedback.reset();
        let detector = (cfg.fault_response != FaultResponse::Oblivious).then(|| {
            collector.track_step_compute(r);
            OnlineThrottleDetector::new(r, cfg.topology.ranks_per_node, cfg.detector)
        });
        let initial_blocks = mesh.num_blocks();
        let (spec, dim) = (mesh.config().spec, mesh.config().dim);
        let cost_model = TelemetryCostModel::new(initial_blocks, cfg.cost_alpha, 1.0e6);
        let mut uniform = Vec::new();
        self.engine.reset();
        let costs = placement_costs(cfg.use_measured_costs, &cost_model, &mut uniform);
        self.engine
            .rebalance_with(policy, costs, r, Some(mesh), None)
            .map_err(|e| format!("initial placement failed: {e}"))?;
        let own_graph = mesh
            .kept_neighbor_graph()
            .is_none()
            .then(|| mesh.build_neighbor_graph());
        let graph = run_graph(&own_graph, mesh);
        let shards = (cfg.num_shards > 0).then(|| ShardedMesh::new(mesh, cfg.num_shards, graph));
        if cfg.observe_exchange_bytes {
            self.ledger.begin_run(graph);
        }
        if let Some(t) = &self.trace {
            t.set(TraceGauge::Ranks, r as f64);
        }
        let mut run = Run {
            report: RunReport {
                policy: policy.name(),
                steps,
                initial_blocks,
                final_blocks: initial_blocks,
                num_shards: cfg.num_shards,
                ..RunReport::default()
            },
            collector,
            detector,
            node_map: NodeMap::with_spares(cfg.topology.num_nodes(), cfg.spare_nodes),
            caps: Vec::new(),
            caps_active: false,
            det_signal: vec![0.0; r],
            force_rebalance: false,
            nic_slow: vec![1.0; r],
            cost_model,
            spec,
            dim,
            block_bytes: spec.cells(dim) * spec.num_vars as u64 * spec.bytes_per_value as u64,
            snapshot: mesh.snapshot_id(),
            own_graph: None,
            shards,
            epoch: CommEpoch::default(),
            redist: Redist::default(),
            uniform,
            cost_spare: Vec::new(),
            compute: vec![0.0; r],
            finish: vec![0.0; r],
            send_at: vec![0.0; r],
            loads: Vec::new(),
            rank_mult: vec![0.0; r],
            measured: Vec::new(),
            arrivals: Vec::with_capacity(r),
            coll_wait: Vec::with_capacity(r),
        };
        self.fill_epoch(&mut run, graph);
        run.own_graph = own_graph;
        // Room for the sampled steps' rows, so ingest grows no column
        // mid-run on a static mesh. Reserved last: ahead of the topology
        // build it displaces that build's transient buffers and the peak
        // RSS of a large static run reads 0.7 MB higher.
        let block_rows = initial_blocks * cfg.per_block_telemetry as usize;
        let rows = reserved_rows(steps, cfg.telemetry_sampling, r, block_rows);
        run.collector.reserve(rows);
        Ok(run)
    }

    /// Remesh phase: move the run onto the adapted mesh's graph (carrying
    /// the ledger's observations across), charge the inter-shard halo
    /// republish, and remap the cost model through `delta` (without one,
    /// estimates restart).
    fn remesh(&mut self, run: &mut Run, mesh: &AmrMesh, delta: Option<&RefinementDelta>) {
        let cfg = &self.config;
        run.report.mesh_change_steps += 1;
        run.snapshot = mesh.snapshot_id();
        // The adapt patched the graph the mesh keeps; a mesh that keeps none
        // builds one here and keeps it, for its later adapts to patch.
        run.own_graph = None;
        let graph = kept_graph(mesh);
        // The remesh invalidates the ledger's relation space: flush pending
        // observations against its copy of the old layout, then carry bytes
        // for relations whose endpoints both survived (`BlockFate::Same`);
        // the rest start at zero.
        if cfg.observe_exchange_bytes {
            self.ledger.prepare_remesh(&self.pool, run.spec, run.dim);
            self.ledger.apply_remesh(delta, graph);
        }
        if let Some(shards) = &mut run.shards {
            shards.recount(mesh, graph);
            // Remeshing republishes ghost-block metadata across every shard
            // boundary before the next exchange epoch can run: each shard
            // ships (key, level, owner) records for its halo over the
            // fabric. The slowest shard gates the step (the republish
            // precedes redistribution). Exactly zero when the halo is empty
            // — i.e. always at one shard — so the flat path's arithmetic is
            // untouched.
            let fabric = &cfg.network.fabric;
            let worst_ns = shards
                .halos()
                .iter()
                .filter(|&&halo| halo > 0)
                .map(|&halo| {
                    fabric.latency_ns as f64 + halo as f64 * GHOST_META_BYTES / fabric.bytes_per_ns
                })
                .fold(0.0f64, f64::max);
            run.report.halo_exchange_ns += worst_ns;
            run.redist.per_rank_ns += worst_ns;
        }
        if let Some(delta) = delta {
            // Warm remap: children inherit the parent's estimate, merges
            // average — staged in the reused spare buffer.
            run.cost_model.remap_in_place(delta, &mut run.cost_spare);
        } else {
            run.cost_model = TelemetryCostModel::new(mesh.num_blocks(), cfg.cost_alpha, 1.0e6);
        }
    }

    /// Rebalance phase: consult the trigger and, when it fires, re-place
    /// (wall-clocked against the budget), charge the migration, and refill
    /// the epoch for the new placement.
    #[allow(clippy::too_many_arguments)]
    fn rebalance(
        &mut self,
        run: &mut Run,
        mesh: &AmrMesh,
        policy: &dyn PlacementPolicy,
        trigger: RebalanceTrigger,
        step: u64,
        ws: &WorkloadStep,
        delta: Option<&RefinementDelta>,
    ) -> Result<(), String> {
        let cfg = &self.config;
        let r = cfg.topology.num_ranks;
        let comparable = self
            .engine
            .placement()
            .filter(|p| p.num_blocks() == run.cost_model.len());
        // O(blocks + ranks) per step, so priced only for a trigger that
        // reads it; without a comparable placement the rebalance is forced
        // below whatever the trigger says.
        let imbalance = match comparable {
            Some(p) if trigger.reads_imbalance() => {
                p.imbalance_with(run.cost_model.costs(), &mut run.loads)
            }
            _ => f64::INFINITY,
        };
        let ctx = TriggerContext {
            step,
            mesh_changed: ws.mesh_changed,
            imbalance,
            // The previous step's measured sync share (0.0 at step 0): the
            // trace-driven trigger reacts to what the run actually lost,
            // congestion and fault stalls included.
            sync_fraction: self.feedback.gauge(TraceGauge::SyncFraction),
        };
        if !(trigger.should_rebalance(&ctx) || comparable.is_none() || run.force_rebalance) {
            return Ok(());
        }
        run.force_rebalance = false;
        run.report.lb_invocations += 1;
        let costs = placement_costs(cfg.use_measured_costs, &run.cost_model, &mut run.uniform);
        // Observed weights: materialize everything noted so far and hand the
        // per-relation bytes to the policy alongside the cached graph.
        // Weight-blind policies ignore both, so this leaves their virtual
        // time bit-identical (pinned by test).
        let own_graph = run.own_graph.take();
        let graph = run_graph(&own_graph, mesh);
        let edge_weights = if cfg.observe_exchange_bytes {
            self.ledger.flush(&self.pool, run.spec, run.dim);
            self.ledger.has_observations().then(|| self.ledger.bytes())
        } else {
            None
        };
        let t0 = Instant::now();
        let report = self
            .engine
            .rebalance_weighted(
                policy,
                costs,
                r,
                Some(mesh),
                delta,
                Some(graph),
                edge_weights,
            )
            .map_err(|e| format!("rebalance at step {step} failed: {e}"))?;
        let wall = t0.elapsed().as_nanos() as u64;
        run.report.placement_wall_total_ns += wall;
        run.report.placement_wall_max_ns = run.report.placement_wall_max_ns.max(wall);

        // Migration is an all-to-all of moved blocks: each rank's cost is
        // bounded by the larger of its outgoing and incoming volume over the
        // fabric, and the phase ends with the slowest rank (it precedes a
        // synchronization). The engine charges it — diffed against the
        // previous placement, or flowed through the adapt's fate table across
        // block-count changes.
        let block_ns = run.block_bytes as f64 / cfg.network.fabric.bytes_per_ns;
        let migration_ns = match report.migration {
            Some(m) => {
                run.redist.moved = m.moved as u64;
                m.max_rank_flow as f64 * block_ns
            }
            None => {
                // No comparable history (block count changed without a delta
                // relating the meshes): every payload is rebuilt and shipped once;
                // approximate by the mean per-rank volume.
                run.redist.moved = report.num_blocks as u64;
                run.redist.moved as f64 * block_ns / r as f64
            }
        };
        run.report.blocks_migrated += run.redist.moved;
        run.redist.bytes = run.redist.moved * run.block_bytes;
        run.redist.per_rank_ns += wall as f64 + migration_ns;
        self.fill_epoch(run, graph);
        run.own_graph = own_graph;
        Ok(())
    }

    /// Refill `run.epoch` for the engine's current placement over `graph`,
    /// the mesh's. A traced simulator hands each fill task a worker lane for
    /// its host-track span — at every thread count, one included.
    fn fill_epoch(&self, run: &mut Run, graph: &NeighborGraph) {
        let fill = par::EpochFill {
            pool: &self.pool,
            topology: &self.config.topology,
            network: &self.config.network,
            spec: run.spec,
            dim: run.dim,
            placement: self
                .engine
                .placement()
                .expect("a placement precedes every fill"),
            graph,
        };
        match &self.trace {
            Some(t) => {
                let tasks = self.pool.tasks_for(self.config.topology.num_ranks);
                t.ensure_lanes(tasks, par::LANE_SPAN_CAPACITY);
                let step = t.step();
                t.with_lanes_mut(|lanes| fill.run(&mut run.epoch, Some((lanes, step))));
            }
            None => fill.run(&mut run.epoch, None),
        }
    }

    /// Compute phase: sample this step's per-rank multipliers and NIC
    /// slowdowns, scatter block costs onto ranks, feed the cost model.
    fn compute(&mut self, run: &mut Run, block_ns: &[f64], step: u64) {
        let cfg = &self.config;
        let placement = self.engine.placement().expect("engine holds a placement");
        debug_assert_eq!(block_ns.len(), placement.num_blocks());
        run.compute.fill(0.0);
        run.measured.clear();
        run.measured.resize(block_ns.len(), 0.0);
        // Per-rank multiplier for this step (node fault + jitter), sampled
        // from the timeline at the node's *physical* machine — a pruned node
        // re-hosted on a spare escapes its episode.
        for (rank, m) in run.rank_mult.iter_mut().enumerate() {
            let phys = run.node_map.physical(cfg.topology.node_of(rank));
            *m = cfg.faults.compute_multiplier(step, phys, &mut self.rng);
        }
        if cfg.faults.any_nic_degradation() {
            for (rank, s) in run.nic_slow.iter_mut().enumerate() {
                let phys = run.node_map.physical(cfg.topology.node_of(rank));
                *s = cfg.faults.nic_slowdown(step, phys);
            }
        }
        par::compute_phase(
            &self.pool,
            block_ns,
            placement,
            &run.rank_mult,
            &mut run.compute,
            &mut run.measured,
        );
        if cfg.per_block_telemetry {
            // In block order, ahead of this step's rank-level rows: the
            // collector's per-rank compute series accumulates in that order.
            let owners = placement.as_slice().iter().zip(&run.measured);
            let rows = owners
                .enumerate()
                .map(|(b, (&rank, &t))| (rank, b as u32, t as u64));
            run.collector.record_phase(Phase::Compute, rows, 0, 0);
        }
        // With capacities applied, deflate observations back to intrinsic
        // block cost — otherwise the fault inflation would be counted twice
        // (once in the cost estimate, once in the capacity) and placement
        // would oscillate.
        if run.caps_active {
            run.cost_model
                .observe_all_deflated(&run.measured, placement.as_slice(), &run.caps);
        } else {
            run.cost_model.observe_all(&run.measured);
        }
    }

    /// Boundary-exchange phase: per-rank arrival-constrained finish times.
    fn exchange(&self, run: &mut Run) {
        par::finish_times(
            &self.pool,
            &self.config,
            &run.epoch,
            &run.compute,
            &run.nic_slow,
            &mut run.send_at,
            &mut run.finish,
        );
    }

    /// Synchronization phase: timestep control is a blocking allreduce over
    /// a small vector (dt and CFL diagnostics), not a bare barrier (§II-B).
    /// Fills `run.coll_wait` and returns the step's completion time.
    fn collective(&self, run: &mut Run) -> u64 {
        let cfg = &self.config;
        let fabric = &cfg.network.fabric;
        run.arrivals.clear();
        run.arrivals.extend(run.finish.iter().map(|&f| f as u64));
        // A degraded-NIC participant gates the whole collective: every tree
        // level waits on the slowest link, so the hop cost scales with the
        // worst per-rank NIC slowdown this step. Healthy timelines keep the
        // integer latency untouched.
        let nic_hop_mult = run.nic_slow.iter().fold(1.0f64, |m, &s| m.max(s));
        let hop_ns = if nic_hop_mult > 1.0 {
            (fabric.latency_ns as f64 * nic_hop_mult) as u64
        } else {
            fabric.latency_ns
        };
        // Algorithm selection. Fixed pins one variant for the whole run (the
        // binomial default reproduces the legacy simulator bit for bit).
        // Adaptive consults the feedback plane: once the measured sync share
        // crosses the threshold — and at least one collective has actually
        // been observed, so step 0 never switches on a zeroed gauge — it
        // picks the cheapest algorithm for this scale and payload. The
        // decision reads only virtual-time signals, so it is identical at
        // any thread count.
        let algo = match cfg.collectives {
            CollectiveSelect::Fixed(a) => a,
            CollectiveSelect::Adaptive
                if self.feedback.gauge(TraceGauge::SyncFraction) > ADAPTIVE_SYNC_THRESHOLD
                    && self.feedback.phase(TracePhase::Collective).count() > 0 =>
            {
                collectives::cheapest_algo(
                    cfg.topology.num_ranks,
                    hop_ns,
                    cfg.collective_payload_bytes,
                    fabric.bytes_per_ns,
                )
            }
            CollectiveSelect::Adaptive => CollectiveAlgo::BinomialTree,
        };
        let completion_ns = collectives::allreduce_into(
            algo,
            &run.arrivals,
            hop_ns,
            cfg.collective_payload_bytes,
            fabric.bytes_per_ns,
            &mut run.coll_wait,
        );
        if let Some(t) = &self.trace {
            // The collective's tree+payload term after the last arrival, on
            // the virtual track from this step's base time. Per-rank waits
            // land in the sync_fraction gauge instead of r separate spans.
            let last_arrival = run.arrivals.iter().copied().max().unwrap_or(0);
            t.record_virtual(
                TracePhase::Collective,
                (run.report.total_ns as u64).saturating_add(last_arrival),
                completion_ns.saturating_sub(last_arrival),
            );
            t.incr(TraceCounter::Collectives, 1);
        }
        completion_ns
    }

    /// Accounting and feedback: per-rank telemetry rows and phase totals,
    /// the always-on feedback plane, the step's virtual exchange span, and
    /// the run's virtual clock — advanced by the collective's
    /// `completion_ns` plus the step's redistribution charge.
    fn account(&mut self, run: &mut Run, mesh_blocks: usize, completion_ns: u64) {
        let cfg = &self.config;
        let r = cfg.topology.num_ranks;
        let counts = &run.epoch.counts;
        let msgs_per_rank = mean_msgs_per_rank(counts.local + counts.remote, r);
        let mut step_phases = PhaseBreakdown::default();
        for rank in 0..r {
            step_phases.compute_ns += run.compute[rank];
            step_phases.comm_ns += run.finish[rank] - run.compute[rank];
            step_phases.sync_ns += run.coll_wait[rank] as f64;
        }
        step_phases.redist_ns = run.redist.per_rank_ns * r as f64;
        // One column append per phase, in ascending `Phase` order behind the
        // per-block Compute rows: the collector then seals the step already
        // in canonical order.
        let (compute, finish, flux) = (&run.compute, &run.finish, &run.epoch.flux_ns);
        let (coll_wait, c) = (&run.coll_wait, &mut run.collector);
        c.record_phase(Phase::Compute, rank_rows(r, |k| compute[k] as u64), 0, 0);
        let comm = rank_rows(r, |k| (finish[k] - compute[k]) as u64);
        c.record_phase(Phase::BoundaryComm, comm, msgs_per_rank, 0);
        let sync = rank_rows(r, |k| coll_wait[k] as f64 as u64);
        c.record_phase(Phase::Synchronization, sync, 0, 0);
        if run.redist.per_rank_ns > 0.0 {
            // The placement report's migration accounting rides along:
            // moved blocks as the message count, shipped payload as bytes.
            c.record(
                0,
                NO_BLOCK,
                Phase::Redistribution,
                step_phases.redist_ns as u64,
                run.redist.moved.min(u32::MAX as u64) as u32,
                run.redist.bytes,
            );
        }
        let fluxing = rank_rows(r, |k| flux[k] as u64).filter(|&(k, ..)| flux[k as usize] > 0.0);
        c.record_phase(Phase::FluxCorrection, fluxing, 0, 0);
        let inv_r = 1.0 / r as f64;
        run.report.phases.accumulate(&step_phases.scaled(inv_r));

        // The feedback plane updates unconditionally — the trigger and the
        // adaptive collective selector read it whether or not a trace handle
        // is attached, so traced and untraced runs make identical control
        // decisions.
        let mean_comm = (step_phases.comm_ns * inv_r) as u64;
        let denom = step_phases.compute_ns + step_phases.comm_ns + step_phases.sync_ns;
        let sync_fraction = (denom > 0.0).then(|| step_phases.sync_ns / denom);
        if let Some(sf) = sync_fraction {
            self.feedback.set(TraceGauge::SyncFraction, sf);
        }
        self.feedback
            .observe_phase_ns(TracePhase::Exchange, mean_comm);
        self.feedback
            .observe_phase_ns(TracePhase::Collective, (step_phases.sync_ns * inv_r) as u64);
        if let Some(t) = &self.trace {
            // The virtual exchange span replays the step's mean-rank
            // timeline: from end-of-compute to end-of-comm.
            let mean_compute = (step_phases.compute_ns * inv_r) as u64;
            t.record_virtual(
                TracePhase::Exchange,
                (run.report.total_ns as u64).saturating_add(mean_compute),
                mean_comm,
            );
            if let Some(sf) = sync_fraction {
                t.set(TraceGauge::SyncFraction, sf);
            }
            t.set(TraceGauge::Blocks, mesh_blocks as f64);
        }
        run.report.total_ns += completion_ns as f64 + run.redist.per_rank_ns;
        run.redist = Redist::default();

        let xm = cfg.exchanges_per_step as u64;
        run.report.messages.intra += run.epoch.counts.intra * xm;
        run.report.messages.local += run.epoch.counts.local * xm;
        run.report.messages.remote += run.epoch.counts.remote * xm;
        if cfg.observe_exchange_bytes {
            // O(1): the per-relation charge materializes lazily at the next
            // flush point (rebalance or remesh).
            self.ledger.note_step(cfg.exchanges_per_step);
        }
    }

    /// Online fault response (detect → reweight / prune) on armed runs.
    fn respond_to_faults(&mut self, run: &mut Run) {
        let cfg = &self.config;
        let Some(det) = run.detector.as_mut() else {
            return;
        };
        let _span = self
            .trace
            .as_ref()
            .map(|t| t.span(TracePhase::FaultResponse));
        // Normalize the collector's compute series by the capacity already
        // applied to each rank: a derated rank legitimately holds less work,
        // so its *raw* time looks healthy — the normalized signal keeps
        // measuring the machine, not the placement, and the flag stays
        // stable after reweighting.
        let series = run.collector.step_compute();
        for (rank, signal) in run.det_signal.iter_mut().enumerate() {
            let applied = if run.caps_active { run.caps[rank] } else { 1.0 };
            *signal = series[rank] / applied;
        }
        if !det.observe(&run.det_signal) {
            return;
        }
        if cfg.fault_response == FaultResponse::PruneAndMigrate {
            let flagged = det.flagged_nodes();
            let moved = blacklist_and_rehost(&mut run.node_map, &flagged);
            for &(node, _spare) in &moved {
                // The flagged machine is gone; its window history and flag
                // describe dead hardware.
                det.clear_flag(node);
                // Every block on the node's ranks ships to the spare over
                // the fabric, charged next step.
                let node_blocks: u64 = cfg
                    .topology
                    .ranks_on_node(node)
                    .map(|rank| run.epoch.blocks_per_rank[rank] as u64)
                    .sum();
                run.redist.per_rank_ns +=
                    node_blocks as f64 * run.block_bytes as f64 / cfg.network.fabric.bytes_per_ns;
                run.report.blocks_migrated += node_blocks;
                run.report.nodes_pruned += 1;
            }
            if !moved.is_empty() {
                det.reset_window();
            }
        }
        // Reweight is the primary response, and the fallback for flagged
        // nodes the spare pool couldn't absorb.
        run.caps_active = det.capacities_into(&mut run.caps);
        if run.caps_active {
            self.engine.set_capacities(&run.caps);
        } else {
            self.engine.clear_capacities();
        }
        run.report.capacity_updates += 1;
        run.force_rebalance = true;
        if let Some(t) = &self.trace {
            t.incr(TraceCounter::CapacityUpdates, 1);
        }
    }

    /// Close a run: end-of-run trace counters, then the finished report.
    fn finish_run(&self, run: Run, mesh: &AmrMesh) -> RunReport {
        let mut report = run.report;
        if let Some(t) = &self.trace {
            t.incr(TraceCounter::NodesPruned, report.nodes_pruned);
            if self.config.observe_exchange_bytes {
                t.incr(TraceCounter::LedgerFlushes, self.ledger.flushes());
                t.incr(TraceCounter::LedgerRemaps, self.ledger.remaps());
                t.incr(
                    TraceCounter::LedgerObservedBytes,
                    self.ledger.observed_total(),
                );
            }
        }
        report.final_blocks = mesh.num_blocks();
        if let Some(shards) = &run.shards {
            report.final_halo_blocks = shards.total_halo_blocks() as u64;
        }
        report.telemetry = run.collector.finish();
        report
    }
}

/// Rank-level telemetry rows `(rank, NO_BLOCK, ns(rank))` for ranks `0..r`.
fn rank_rows(r: usize, ns: impl Fn(usize) -> u64) -> impl Iterator<Item = (u32, u32, u64)> {
    (0..r).map(move |rank| (rank as u32, NO_BLOCK, ns(rank)))
}

/// Telemetry rows to reserve ahead of a run: every sampled step's rows (at
/// most four per rank, the Redistribution row and the block rows), capped.
/// `steps` can be a service client's number, so the product saturates, and
/// past [`MAX_RESERVED_ROWS`] the table grows as the rows arrive.
fn reserved_rows(steps: u64, sampling: u32, ranks: usize, block_rows: usize) -> usize {
    let rows_per_step = (4 * ranks as u64 + 1).saturating_add(block_rows as u64);
    let rows = steps
        .div_ceil(sampling as u64)
        .saturating_mul(rows_per_step);
    rows.min(MAX_RESERVED_ROWS) as usize
}

/// Cap on [`reserved_rows`]: 2²⁰ rows at 33 bytes each.
const MAX_RESERVED_ROWS: u64 = 1 << 20;

/// Mean MPI messages per rank per round, for the telemetry rows. Divides in
/// `u64` and narrows after: a round at the 2²⁴-rank scale carries more than
/// 2³² messages, which truncating first would wrap.
fn mean_msgs_per_rank(msgs: u64, ranks: usize) -> u32 {
    u32::try_from(msgs / ranks as u64).unwrap_or(u32::MAX)
}

/// The neighbor graph `mesh` keeps, built and kept first if it keeps none.
/// A clone held across `advance` would make the adapt's patch copy it.
fn kept_graph(mesh: &AmrMesh) -> &NeighborGraph {
    mesh.neighbor_graph();
    let graph = mesh
        .kept_neighbor_graph()
        .expect("the mesh keeps its graph");
    debug_assert_eq!(graph.snapshot_id(), mesh.snapshot_id());
    graph
}

/// The graph a run reads: its own, while it holds one, else the mesh's. A
/// static run leaves a mesh that kept no graph without one: held to the end
/// of `fault_diagnose`'s rounds, two such graphs cost 25 % (DESIGN §17).
fn run_graph<'a>(own: &'a Option<NeighborGraph>, mesh: &'a AmrMesh) -> &'a NeighborGraph {
    let graph = own.as_ref().unwrap_or_else(|| kept_graph(mesh));
    debug_assert_eq!(graph.snapshot_id(), mesh.snapshot_id());
    graph
}

/// The cost vector handed to the policy: the model's measured (EWMA) costs,
/// or — the production default the paper's §V-A3 change (1) replaces — "every
/// block costs 1", staged in `uniform`.
fn placement_costs<'a>(
    measured: bool,
    model: &'a TelemetryCostModel,
    uniform: &'a mut Vec<f64>,
) -> &'a [f64] {
    if measured {
        return model.costs();
    }
    uniform.clear();
    uniform.resize(model.len(), 1.0);
    uniform
}

#[cfg(test)]
mod tests {
    use super::*;
    use amr_core::policies::{Baseline, Lpt};
    use amr_mesh::{Dim, MeshConfig, RefineTag};

    #[test]
    fn mean_msgs_per_rank_divides_before_narrowing() {
        assert_eq!(mean_msgs_per_rank(59_640, 512), 116);
        // Past 2^32 messages the old `as u32 / r as u32` wrapped to 1.
        assert_eq!(mean_msgs_per_rank((1 << 32) + (1 << 24), 1 << 24), 257);
        assert_eq!(mean_msgs_per_rank(u64::MAX, 1), u32::MAX);
    }

    #[test]
    fn reserved_rows_saturate_and_cap() {
        // fault_diagnose's shape: 60 steps of 1 695 block rows on 1 024 ranks.
        assert_eq!(reserved_rows(60, 1, 1024, 1695), 60 * (4 * 1024 + 1 + 1695));
        assert_eq!(reserved_rows(60, 16, 512, 0), 4 * (4 * 512 + 1));
        // A client-sized step count neither overflows nor reserves the earth.
        assert_eq!(reserved_rows(u64::MAX, 1, 1 << 24, usize::MAX), 1 << 20);
        assert_eq!(reserved_rows(u64::MAX, u32::MAX, 1, 0), 1 << 20);
        let w = StaticWorkload::new(2, u64::MAX, 0.0);
        let run = MacroSim::new(small_config(8)).begin_run(w.mesh(), &Baseline, u64::MAX);
        assert!(run.is_ok_and(|run| run.collector.is_empty()));
    }

    #[test]
    fn macrosim_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<MacroSim>();
    }

    /// Minimal synthetic workload: static mesh, fixed skewed costs.
    pub(super) struct StaticWorkload {
        mesh: AmrMesh,
        costs: Vec<f64>,
        steps: u64,
    }

    impl StaticWorkload {
        pub(super) fn new(roots: u32, steps: u64, skew: f64) -> StaticWorkload {
            let mesh = AmrMesh::new(MeshConfig::from_cells(
                Dim::D3,
                (roots * 16, roots * 16, roots * 16),
                2,
            ));
            let n = mesh.num_blocks();
            let costs = (0..n)
                .map(|i| 1.0e6 * (1.0 + skew * (i % 7) as f64))
                .collect();
            StaticWorkload { mesh, costs, steps }
        }
    }

    impl Workload for StaticWorkload {
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

    fn small_config(ranks: usize) -> SimConfig {
        let mut c = SimConfig::tuned(ranks);
        c.topology = Topology::new(ranks, 4);
        c
    }

    #[test]
    fn phases_sum_to_total() {
        let mut sim = MacroSim::new(small_config(16));
        let mut w = StaticWorkload::new(4, 10, 0.5); // 64 blocks, 16 ranks
        let rep = sim.run(&mut w, &Baseline, RebalanceTrigger::OnMeshChange);
        assert_eq!(rep.steps, 10);
        // Mean-per-rank phases ≈ total virtual time (within redist rounding
        // and tree overheads).
        let ratio = rep.phases.total_ns() / rep.total_ns;
        assert!((0.9..=1.1).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn lpt_reduces_sync_on_skewed_costs() {
        let mut w1 = StaticWorkload::new(4, 20, 2.0);
        let mut w2 = StaticWorkload::new(4, 20, 2.0);
        // Force one rebalance so LPT sees measured costs.
        let trig = RebalanceTrigger::MeshChangeOrImbalance(1.01);
        let mut sim1 = MacroSim::new(small_config(16));
        let base = sim1.run(&mut w1, &Baseline, trig);
        let mut sim2 = MacroSim::new(small_config(16));
        let lpt = sim2.run(&mut w2, &Lpt, trig);
        assert!(
            lpt.phases.sync_ns < base.phases.sync_ns,
            "LPT sync {} vs baseline {}",
            lpt.phases.sync_ns,
            base.phases.sync_ns
        );
        assert!(lpt.total_ns < base.total_ns);
    }

    #[test]
    fn compute_invariant_across_policies() {
        // Total compute work must not depend on placement (Fig. 6a's flat
        // compute row).
        let trig = RebalanceTrigger::OnMeshChange;
        let mut w1 = StaticWorkload::new(4, 10, 1.0);
        let mut w2 = StaticWorkload::new(4, 10, 1.0);
        let a = MacroSim::new(small_config(16)).run(&mut w1, &Baseline, trig);
        let b = MacroSim::new(small_config(16)).run(&mut w2, &Lpt, trig);
        let rel = (a.phases.compute_ns - b.phases.compute_ns).abs() / a.phases.compute_ns;
        assert!(rel < 0.05, "compute differs by {rel}");
    }

    #[test]
    fn telemetry_collected_per_phase() {
        let mut sim = MacroSim::new(small_config(8));
        let mut w = StaticWorkload::new(2, 5, 0.3); // 8 blocks
        let rep = sim.run(&mut w, &Baseline, RebalanceTrigger::OnMeshChange);
        use amr_telemetry::Query;
        let t = &rep.telemetry;
        assert!(Query::new(t).phase(Phase::Compute).count() >= 8 * 5);
        assert!(Query::new(t).phase(Phase::Synchronization).count() >= 8 * 5);
        assert!(Query::new(t).phase(Phase::BoundaryComm).count() >= 8 * 5);
    }

    #[test]
    fn throttled_node_inflates_sync() {
        let mut cfg = small_config(16); // 4 nodes x 4 ranks
        cfg.faults = crate::faults::FaultConfig::with_throttled_nodes([1]).into();
        let mut w1 = StaticWorkload::new(4, 10, 0.0);
        let rep_faulty = MacroSim::new(cfg).run(&mut w1, &Baseline, RebalanceTrigger::OnMeshChange);
        let mut w2 = StaticWorkload::new(4, 10, 0.0);
        let rep_ok =
            MacroSim::new(small_config(16)).run(&mut w2, &Baseline, RebalanceTrigger::OnMeshChange);
        assert!(rep_faulty.phases.sync_ns > 2.0 * rep_ok.phases.sync_ns);
        assert!(rep_faulty.total_ns > rep_ok.total_ns);
    }

    #[test]
    fn online_reweight_recovers_midrun_throttle() {
        use crate::faults::{FaultEpisode, FaultResponse, FaultTimeline};
        let steps = 60u64;
        let mk = |response| {
            let mut cfg = small_config(16); // 4 nodes x 4 ranks
            cfg.faults = FaultTimeline::with_episode(FaultEpisode::throttle(20, 40, [1], 4.0));
            cfg.fault_response = response;
            cfg
        };
        let trig = RebalanceTrigger::OnMeshChange;
        let mut w1 = StaticWorkload::new(4, steps, 0.5);
        let obliv = MacroSim::new(mk(FaultResponse::Oblivious)).run(&mut w1, &Lpt, trig);
        let mut w2 = StaticWorkload::new(4, steps, 0.5);
        let rew = MacroSim::new(mk(FaultResponse::Reweight)).run(&mut w2, &Lpt, trig);
        // The flag must rise after onset and clear after recovery.
        assert!(
            rew.capacity_updates >= 2,
            "capacity updates = {}",
            rew.capacity_updates
        );
        assert_eq!(rew.nodes_pruned, 0);
        assert!(rew.lb_invocations > obliv.lb_invocations);
        assert!(
            rew.total_ns < obliv.total_ns,
            "reweight {} !< oblivious {}",
            rew.total_ns,
            obliv.total_ns
        );
    }

    #[test]
    fn prune_migrates_to_spare_and_escapes_episode() {
        use crate::faults::{FaultEpisode, FaultResponse, FaultTimeline};
        let steps = 50u64;
        // Permanent episode with NIC degradation: reweighting can shed
        // compute but not escape the slow NIC; pruning escapes both.
        let mk = |response, spares| {
            let mut cfg = small_config(16);
            cfg.faults = FaultTimeline::with_episode(
                FaultEpisode::throttle(15, u64::MAX, [1], 4.0).with_nic_degradation(0.5),
            );
            cfg.fault_response = response;
            cfg.spare_nodes = spares;
            cfg
        };
        let trig = RebalanceTrigger::OnMeshChange;
        let mut w1 = StaticWorkload::new(4, steps, 0.5);
        let obliv = MacroSim::new(mk(FaultResponse::Oblivious, 0)).run(&mut w1, &Lpt, trig);
        let mut w2 = StaticWorkload::new(4, steps, 0.5);
        let prune = MacroSim::new(mk(FaultResponse::PruneAndMigrate, 1)).run(&mut w2, &Lpt, trig);
        assert_eq!(prune.nodes_pruned, 1);
        assert!(prune.blocks_migrated > 0);
        assert!(
            prune.total_ns < obliv.total_ns,
            "prune {} !< oblivious {}",
            prune.total_ns,
            obliv.total_ns
        );
        // With no spares the response degrades to reweighting, not a panic.
        let mut w3 = StaticWorkload::new(4, steps, 0.5);
        let starved = MacroSim::new(mk(FaultResponse::PruneAndMigrate, 0)).run(&mut w3, &Lpt, trig);
        assert_eq!(starved.nodes_pruned, 0);
        assert!(starved.capacity_updates >= 1);
        assert!(starved.total_ns < obliv.total_ns);
    }

    /// Workload that refines once at a given step.
    pub(super) struct RefiningWorkload {
        mesh: AmrMesh,
        costs: Vec<f64>,
        steps: u64,
        refine_at: u64,
    }

    impl RefiningWorkload {
        pub(super) fn new(steps: u64, refine_at: u64) -> Self {
            let mesh = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (32, 32, 32), 2));
            let n = mesh.num_blocks();
            RefiningWorkload {
                mesh,
                costs: vec![1.0e6; n],
                steps,
                refine_at,
            }
        }
    }

    impl Workload for RefiningWorkload {
        fn mesh(&self) -> &AmrMesh {
            &self.mesh
        }
        fn advance(&mut self, step: u64) -> WorkloadStep {
            if step == self.refine_at {
                let delta = self.mesh.adapt(|b| {
                    if b.id.index() == 0 {
                        RefineTag::Refine
                    } else {
                        RefineTag::Keep
                    }
                });
                assert!(delta.changed());
                self.costs = vec![1.0e6; self.mesh.num_blocks()];
                WorkloadStep { mesh_changed: true }
            } else {
                WorkloadStep::default()
            }
        }
        fn block_compute_ns(&self) -> &[f64] {
            &self.costs
        }
        fn total_steps(&self) -> u64 {
            self.steps
        }
    }

    /// A run reads the graph its mesh keeps, sharded or not; over a mesh
    /// that keeps none — a fresh one, or another shape or the non-periodic
    /// twin's periodic sibling (equal key arrays!), which refuse the kept
    /// one's topology — a static run builds its own once and leaves the mesh
    /// keeping none. Either way the report is the fresh run's bit for bit.
    #[test]
    fn kept_graph_is_taken_only_for_its_own_snapshot() {
        use amr_mesh::pool::WorkerPool;
        use amr_telemetry::trace::Counter as TC;
        let trig = RebalanceTrigger::OnMeshChange;
        let on = |mesh: &AmrMesh| {
            let costs = (0..mesh.num_blocks())
                .map(|i| 1.0e6 * (1.0 + 0.5 * (i % 7) as f64))
                .collect();
            StaticWorkload {
                mesh: mesh.clone(),
                costs,
                steps: 4,
            }
        };
        let same = |a: &RunReport, b: &RunReport| {
            assert_eq!(a.total_ns.to_bits(), b.total_ns.to_bits());
            assert_eq!(a.phases, b.phases);
            assert_eq!(a.messages, b.messages);
            assert_eq!(a.telemetry, b.telemetry);
        };
        let serial = WorkerPool::new(1);
        let config = MeshConfig::from_cells(Dim::D3, (64, 64, 64), 2);
        let plain = AmrMesh::new(config.clone());
        let periodic = AmrMesh::new(config.with_periodic());
        let other = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (32, 32, 32), 2));
        assert_eq!(plain.sfc_keys(), periodic.sfc_keys());
        let cfg = small_config(16);
        // A run over a traced clone of `mesh`: the report, the clone — to
        // show what the mesh keeps after the run — and the graphs it built.
        let run = |mesh: &AmrMesh, cfg: &SimConfig| {
            let mut w = on(mesh);
            let handle = TraceHandle::new(64);
            w.mesh.set_trace(Some(handle.clone()));
            let rep = MacroSim::new(cfg.clone()).try_run(&mut w, &Lpt, trig);
            let builds = handle.metrics().counter(TC::GraphFullBuilds);
            (rep.expect("run"), w.mesh, builds)
        };
        let built = plain.neighbor_graph_on(&serial);
        let (base, after, builds) = run(&plain, &cfg);
        assert_eq!(builds, 1);
        assert!(
            after.kept_neighbor_graph().is_none(),
            "a static run kept its build"
        );
        assert_ne!(
            base.messages,
            run(&periodic, &cfg).0.messages,
            "the wrap adds relations, or this test cannot bite"
        );

        // Kept: the same snapshot takes it, and it is the fresh build.
        assert_eq!(plain.neighbor_graph(), built);
        let (again, after, builds) = run(&plain, &cfg);
        assert_eq!(builds, 0, "the run rebuilt the graph its mesh keeps");
        same(&again, &base);
        assert_eq!(after.kept_neighbor_graph(), Some(&built));
        let kept = plain.clone().into_topology().expect("a kept graph parks");
        assert!(kept.is_for(&plain) && !kept.is_for(&periodic) && !kept.is_for(&other));
        assert_eq!(kept.graph(), &built);

        // Installed on a fresh mesh of the same snapshot: taken.
        let mut fresh = AmrMesh::new(plain.config().clone());
        assert!(fresh.install_topology(kept.clone()));
        let (rep, _, builds) = run(&fresh, &cfg);
        assert_eq!(builds, 0);
        same(&rep, &base);

        // Not this mesh's: refused, and the run builds the mesh's own.
        for original in [&periodic, &other] {
            let mut mesh = original.clone();
            assert!(!mesh.install_topology(kept.clone()));
            assert!(mesh.kept_neighbor_graph().is_none());
            let (rep, after, builds) = run(&mesh, &cfg);
            assert_eq!(builds, 1);
            same(&rep, &run(original, &cfg).0);
            assert!(after.kept_neighbor_graph().is_none());
        }

        // A sharded run reads the same graph: it takes the kept one, or
        // builds it, and is the flat run bit for bit.
        let mut sharded = cfg.clone();
        sharded.num_shards = 3;
        let (rep, after, builds) = run(&plain, &sharded);
        assert_eq!(builds, 0);
        assert_eq!(after.kept_neighbor_graph(), Some(&built));
        same(&rep, &base);
        let (rep, after, builds) = run(&AmrMesh::new(plain.config().clone()), &sharded);
        assert_eq!(builds, 1);
        assert!(after.kept_neighbor_graph().is_none());
        same(&rep, &base);

        // A run that remeshes reads the graph its mesh's adapt patched: no
        // second build, and the mesh keeps the new snapshot's graph, while a
        // clone still holding the old one sees it unchanged.
        let mut w = RefiningWorkload::new(6, 3);
        let handle = TraceHandle::new(64);
        w.mesh.set_trace(Some(handle.clone()));
        w.mesh.neighbor_graph();
        let start = w.mesh.clone();
        let rep = MacroSim::new(small_config(8))
            .try_run(&mut w, &Baseline, trig)
            .expect("refining run");
        assert_eq!(rep.mesh_change_steps, 1);
        assert_eq!(handle.metrics().counter(TC::GraphFullBuilds), 1);
        assert_eq!(handle.metrics().counter(TC::GraphPatches), 1);
        w.mesh.set_trace(None);
        let now = w.mesh().neighbor_graph_on(&serial);
        assert_eq!(w.mesh().kept_neighbor_graph(), Some(&now));
        assert_eq!(
            start.kept_neighbor_graph(),
            Some(&start.neighbor_graph_on(&serial))
        );

        // Over a mesh that keeps none, the first remesh makes the mesh build
        // and keep the new snapshot's graph; the run's own build goes.
        let mut w = RefiningWorkload::new(6, 3);
        let handle = TraceHandle::new(64);
        w.mesh.set_trace(Some(handle.clone()));
        let fresh = MacroSim::new(small_config(8))
            .try_run(&mut w, &Baseline, trig)
            .expect("refining run");
        assert_eq!(handle.metrics().counter(TC::GraphFullBuilds), 2);
        assert_eq!(handle.metrics().counter(TC::GraphPatches), 0);
        w.mesh.set_trace(None);
        assert_eq!(w.mesh().kept_neighbor_graph(), Some(&now));
        let virt = |r: &RunReport| [r.phases.compute_ns, r.phases.comm_ns, r.phases.sync_ns];
        assert_eq!(virt(&fresh).map(f64::to_bits), virt(&rep).map(f64::to_bits));
        assert_eq!(fresh.messages, rep.messages);
    }

    /// The set-up's build is the run's: on a mesh whose graph was already
    /// built, a traced run builds none; on a fresh mesh it builds once and
    /// the mesh keeps nothing. Virtual time, messages and telemetry cannot
    /// tell the two apart.
    #[test]
    fn run_reads_the_graph_its_mesh_already_built() {
        use amr_telemetry::trace::Counter as TC;
        let traced_run = |keep: bool, num_shards: usize| {
            let mut w = StaticWorkload::new(4, 5, 0.5);
            if keep {
                w.mesh.neighbor_graph();
            }
            let handle = TraceHandle::new(256);
            w.mesh.set_trace(Some(handle.clone()));
            let mut cfg = small_config(16);
            cfg.num_shards = num_shards;
            let mut sim = MacroSim::new(cfg);
            sim.set_trace(Some(handle.clone()));
            let rep = sim.run(&mut w, &Lpt, RebalanceTrigger::OnMeshChange);
            let builds = || handle.metrics().counter(TC::GraphFullBuilds);
            let in_run = builds();
            // Asking the mesh afterwards builds only if it keeps nothing.
            w.mesh.neighbor_graph();
            (rep, in_run, builds() == in_run)
        };
        // A sharded run shares the kept graph too: its shards are row
        // ranges of that one graph, never a second build.
        for num_shards in [0, 4] {
            let (kept, kept_builds, kept_after) = traced_run(true, num_shards);
            assert_eq!(kept_builds, 0, "the run rebuilt the graph its mesh keeps");
            assert!(kept_after);
            let (fresh, fresh_builds, fresh_after) = traced_run(false, num_shards);
            assert_eq!(fresh_builds, 1);
            assert!(!fresh_after, "a static run left its build in the mesh");
            assert_eq!(kept.total_ns.to_bits(), fresh.total_ns.to_bits());
            assert_eq!(kept.phases, fresh.phases);
            assert_eq!(kept.messages, fresh.messages);
            assert_eq!(kept.telemetry, fresh.telemetry);
        }
    }

    /// A 2-D mesh of 4×4 roots, all refined once (64 blocks), that adapts
    /// twice in one `advance`: A refines block 0 and coarsens the last
    /// family (64 → 64 blocks), then B refines one block (64 → 67). B's
    /// delta maps 64 blocks onto 67, but not the run's 64: it starts from
    /// A's snapshot. With `restore`, the mesh is then rebuilt from its tree
    /// ([`AmrMesh::from_parts`]), which keeps no delta and no graph.
    struct TwoAdapts {
        mesh: AmrMesh,
        costs: Vec<f64>,
        restore: bool,
    }

    impl TwoAdapts {
        const AT: u64 = 2;

        fn new(restore: bool) -> TwoAdapts {
            let mut mesh = AmrMesh::new(MeshConfig::from_cells(Dim::D2, (64, 64, 16), 2));
            mesh.adapt(|_| RefineTag::Refine);
            assert_eq!(mesh.num_blocks(), 64);
            let mut w = TwoAdapts {
                mesh,
                costs: Vec::new(),
                restore,
            };
            w.fill_costs();
            w
        }

        fn fill_costs(&mut self) {
            let n = self.mesh.num_blocks();
            self.costs = (0..n)
                .map(|i| 1.0e6 * (1.0 + 0.37 * (i % 13) as f64))
                .collect();
        }
    }

    impl Workload for TwoAdapts {
        fn mesh(&self) -> &AmrMesh {
            &self.mesh
        }
        fn advance(&mut self, step: u64) -> WorkloadStep {
            if step != Self::AT {
                return WorkloadStep::default();
            }
            let last = self.mesh.num_blocks() - 4;
            self.mesh.adapt(|b| match b.id.index() {
                0 => RefineTag::Refine,
                i if i >= last => RefineTag::Coarsen,
                _ => RefineTag::Keep,
            });
            assert_eq!(self.mesh.num_blocks(), 64);
            self.mesh.adapt(|b| match b.id.index() {
                30 => RefineTag::Refine,
                _ => RefineTag::Keep,
            });
            assert_eq!(self.mesh.num_blocks(), 67);
            assert!(self.mesh.last_delta().maps(64, 67));
            if self.restore {
                let (config, tree) = (self.mesh.config().clone(), self.mesh.tree().clone());
                self.mesh = AmrMesh::from_parts(config, tree).expect("restore");
            }
            self.fill_costs();
            WorkloadStep { mesh_changed: true }
        }
        fn block_compute_ns(&self) -> &[f64] {
            &self.costs
        }
        fn total_steps(&self) -> u64 {
            6
        }
    }

    /// A delta whose block counts match the run's but which starts from a
    /// snapshot the run never saw carries no ancestry: the run goes on as
    /// it does over a restored mesh — graph, cost model, placement and
    /// migration bit for bit.
    #[test]
    fn a_second_adapt_in_one_advance_is_not_trusted_on_counts() {
        let run = |restore: bool| {
            let mut w = TwoAdapts::new(restore);
            let mut cfg = small_config(8);
            cfg.observe_exchange_bytes = true;
            let rep = MacroSim::new(cfg).run(&mut w, &Lpt, RebalanceTrigger::OnMeshChange);
            assert_eq!(rep.final_blocks, 67);
            rep
        };
        let (twice, restored) = (run(false), run(true));
        let virt = |r: &RunReport| [r.phases.compute_ns, r.phases.comm_ns, r.phases.sync_ns];
        assert_eq!(
            virt(&twice).map(f64::to_bits),
            virt(&restored).map(f64::to_bits)
        );
        assert_eq!(twice.messages, restored.messages);
        assert_eq!(twice.blocks_migrated, restored.blocks_migrated);
    }

    #[test]
    fn flux_correction_recorded_on_refined_meshes() {
        // A refined mesh has fine-coarse face pairs; flux telemetry must
        // appear. A uniform mesh has none.
        let mut sim = MacroSim::new(small_config(8));
        let mut w = RefiningWorkload::new(6, 1);
        let rep = sim.run(&mut w, &Baseline, RebalanceTrigger::OnMeshChange);
        use amr_telemetry::Query;
        assert!(
            Query::new(&rep.telemetry)
                .phase(Phase::FluxCorrection)
                .count()
                > 0,
            "no flux records after refinement"
        );

        let mut sim2 = MacroSim::new(small_config(8));
        let mut w2 = StaticWorkload::new(2, 6, 0.0); // uniform mesh
        let rep2 = sim2.run(&mut w2, &Baseline, RebalanceTrigger::OnMeshChange);
        assert_eq!(
            Query::new(&rep2.telemetry)
                .phase(Phase::FluxCorrection)
                .count(),
            0
        );
    }

    #[test]
    fn mesh_change_triggers_redistribution() {
        let mut sim = MacroSim::new(small_config(8));
        let mut w = RefiningWorkload::new(6, 3);
        let rep = sim.run(&mut w, &Baseline, RebalanceTrigger::OnMeshChange);
        assert_eq!(rep.mesh_change_steps, 1);
        assert!(rep.lb_invocations >= 1);
        assert!(rep.final_blocks > rep.initial_blocks);
        assert!(rep.phases.redist_ns > 0.0);
        assert!(rep.blocks_migrated > 0);
    }

    #[test]
    fn placement_wall_time_tracked() {
        let mut sim = MacroSim::new(small_config(8));
        let mut w = StaticWorkload::new(2, 3, 0.1);
        let rep = sim.run(&mut w, &Baseline, RebalanceTrigger::OnMeshChange);
        // Initial placement happens outside run's wall tracking; with no mesh
        // change there may be no invocation — force one with Periodic.
        let mut sim2 = MacroSim::new(small_config(8));
        let mut w2 = StaticWorkload::new(2, 3, 0.1);
        let rep2 = sim2.run(&mut w2, &Baseline, RebalanceTrigger::Periodic(1));
        assert!(rep2.lb_invocations >= 3);
        assert!(rep2.placement_wall_max_ns > 0);
        assert!(rep.placement_within_budget(50_000_000));
    }
}

#[cfg(test)]
mod knob_tests {
    use super::tests::StaticWorkload;
    use super::*;
    use amr_core::policies::Baseline;

    fn cfg16() -> SimConfig {
        let mut c = SimConfig::tuned(16);
        c.topology = Topology::new(16, 4);
        c
    }

    #[test]
    fn more_exchanges_per_step_cost_more_comm() {
        let mut prev = 0.0;
        for xs in [1u32, 2, 4] {
            let mut cfg = cfg16();
            cfg.exchanges_per_step = xs;
            let mut w = StaticWorkload::new(4, 10, 0.5);
            let rep = MacroSim::new(cfg).run(&mut w, &Baseline, RebalanceTrigger::OnMeshChange);
            assert!(
                rep.phases.comm_ns > prev,
                "comm did not grow with exchanges: {} vs {}",
                rep.phases.comm_ns,
                prev
            );
            prev = rep.phases.comm_ns;
        }
    }

    #[test]
    fn higher_send_coupling_means_more_comm_wait() {
        let mut prev = -1.0;
        for coupling in [0.0f64, 0.5, 1.0] {
            let mut cfg = cfg16();
            cfg.send_coupling = coupling;
            let mut w = StaticWorkload::new(4, 10, 2.0);
            let rep = MacroSim::new(cfg).run(&mut w, &Baseline, RebalanceTrigger::OnMeshChange);
            assert!(
                rep.phases.comm_ns >= prev,
                "comm fell as coupling rose: {} < {}",
                rep.phases.comm_ns,
                prev
            );
            prev = rep.phases.comm_ns;
        }
    }

    #[test]
    fn overlap_masks_coupled_waits() {
        // With strong coupling, masking must reduce comm; totals must be
        // monotone non-increasing in overlap.
        let mut prev = f64::INFINITY;
        for overlap in [0.0f64, 0.5, 1.0] {
            let mut cfg = cfg16();
            cfg.send_coupling = 1.0;
            cfg.overlap_efficiency = overlap;
            let mut w = StaticWorkload::new(4, 10, 2.0);
            let rep = MacroSim::new(cfg).run(&mut w, &Baseline, RebalanceTrigger::OnMeshChange);
            assert!(
                rep.total_ns <= prev * 1.0001,
                "total rose with masking: {} vs {}",
                rep.total_ns,
                prev
            );
            prev = rep.total_ns;
        }
    }

    #[test]
    fn exchanges_scale_message_totals_linearly() {
        let count = |xs: u32| {
            let mut cfg = cfg16();
            cfg.exchanges_per_step = xs;
            let mut w = StaticWorkload::new(4, 10, 0.0);
            MacroSim::new(cfg)
                .run(&mut w, &Baseline, RebalanceTrigger::OnMeshChange)
                .messages
                .mpi()
        };
        assert_eq!(count(2), 2 * count(1));
    }

    /// Regression for the degenerate-bandwidth overflow: a struct-literal
    /// episode with `nic_bandwidth_mult: 0.0` (bypassing the constructor
    /// asserts) used to drive `bytes_per_ns` to 0 mid-run and overflow the
    /// allreduce completion in debug builds. The boundary check now rejects
    /// the config before the run starts.
    #[test]
    #[should_panic(expected = "nic_bandwidth_mult")]
    fn zero_nic_bandwidth_multiplier_is_rejected_at_construction() {
        let mut cfg = cfg16();
        cfg.faults.episodes.push(crate::faults::FaultEpisode {
            onset_step: 2,
            recovery_step: 8,
            nodes: [1].into_iter().collect(),
            throttle_factor: 1.0,
            nic_bandwidth_mult: 0.0,
        });
        let _ = MacroSim::new(cfg);
    }

    #[test]
    #[should_panic(expected = "bytes_per_ns")]
    fn zero_fabric_bandwidth_is_rejected_at_construction() {
        let mut cfg = cfg16();
        cfg.network.fabric.bytes_per_ns = 0.0;
        let _ = MacroSim::new(cfg);
    }

    /// The service-facing constructor returns the same rejection as `Err`
    /// instead of panicking — one bad request must not kill a process
    /// hosting many sessions — and a `try_new` simulator runs identically
    /// to a `new` one.
    #[test]
    fn try_new_rejects_without_panicking_and_runs_identically() {
        use amr_core::policies::Lpt;
        let mut bad = cfg16();
        bad.network.fabric.bytes_per_ns = 0.0;
        let Err(err) = MacroSim::try_new(bad) else {
            panic!("degenerate bandwidth accepted");
        };
        assert!(err.contains("invalid SimConfig"), "{err}");
        assert!(err.contains("bytes_per_ns"), "{err}");

        let trig = RebalanceTrigger::OnMeshChange;
        let mut w1 = StaticWorkload::new(4, 10, 1.0);
        let base = MacroSim::new(cfg16()).run(&mut w1, &Lpt, trig);
        let mut w2 = StaticWorkload::new(4, 10, 1.0);
        let fallible = MacroSim::try_new(cfg16())
            .unwrap()
            .try_run(&mut w2, &Lpt, trig)
            .unwrap();
        assert_eq!(fallible.total_ns.to_bits(), base.total_ns.to_bits());
        assert_eq!(fallible.messages, base.messages);
    }

    /// Tracing observes without perturbing, and the artifacts are populated:
    /// same virtual phases bit-for-bit, spans in the snapshot, counters and
    /// the sync-fraction gauge live in the metrics.
    #[test]
    fn traced_run_matches_untraced_and_fills_artifacts() {
        use amr_core::policies::Lpt;
        use amr_telemetry::trace::{chrome_trace_json, collapsed_stacks};
        let trig = RebalanceTrigger::OnMeshChange;
        let mut w1 = StaticWorkload::new(4, 10, 1.0);
        let base = MacroSim::new(cfg16()).run(&mut w1, &Lpt, trig);
        let mut w2 = StaticWorkload::new(4, 10, 1.0);
        let mut sim = MacroSim::new(cfg16());
        let handle = TraceHandle::new(1024);
        sim.set_trace(Some(handle.clone()));
        let traced = sim.run(&mut w2, &Lpt, trig);
        assert_eq!(
            traced.phases.sync_ns.to_bits(),
            base.phases.sync_ns.to_bits()
        );
        assert_eq!(
            traced.phases.comm_ns.to_bits(),
            base.phases.comm_ns.to_bits()
        );
        assert_eq!(traced.total_ns.to_bits(), base.total_ns.to_bits());
        let metrics = handle.metrics();
        assert_eq!(metrics.counter(TraceCounter::Steps), 10);
        assert_eq!(metrics.counter(TraceCounter::Collectives), 10);
        // Static mesh + OnMeshChange trigger: only the initial placement.
        assert_eq!(
            metrics.counter(TraceCounter::Rebalances),
            traced.lb_invocations + 1
        );
        let sf = metrics.gauge(TraceGauge::SyncFraction);
        assert!((0.0..1.0).contains(&sf), "sync fraction {sf}");
        let spans = handle.snapshot();
        assert!(spans.iter().any(|s| s.phase == TracePhase::Collective));
        assert!(spans.iter().any(|s| s.phase == TracePhase::Exchange));
        assert!(spans.iter().any(|s| s.phase == TracePhase::Place));
        let json = chrome_trace_json(&spans);
        assert!(json.contains("\"name\":\"collective\""));
        assert!(collapsed_stacks(&spans).contains("amr;virtual;exchange"));
    }

    #[test]
    fn zero_threads_config_is_rejected() {
        let mut cfg = cfg16();
        cfg.threads = 0;
        assert!(cfg.validate().unwrap_err().contains("threads"));
        // Regression: an unbounded count used to reach the pool and die in
        // thread spawning instead of coming back as `Err`.
        for threads in [MAX_POOL_THREADS + 1, usize::MAX] {
            cfg.threads = threads;
            let Err(err) = MacroSim::try_new(cfg.clone()) else {
                panic!("{threads} threads accepted");
            };
            assert!(err.contains("threads"), "{err}");
        }
        cfg.threads = MAX_POOL_THREADS;
        assert!(cfg.validate().is_ok());
    }

    /// The determinism proof at unit scale: every rank-range kernel — epoch
    /// fill, compute scatter, exchange finish times — follows the
    /// slot-ownership rule, so any multi-task schedule reproduces the inline
    /// single-task schedule's virtual time **bit for bit** (ragged 3-way
    /// splits and more threads than ranks included), through a mesh
    /// adaptation carried by its fate table, a throttle episode with NIC
    /// degradation, and flat and sharded runs alike. The
    /// single-task bits themselves are pinned by
    /// `tests/golden_virtual_time.rs`. Virtual phases and counters are
    /// compared; `total_ns`/`redist_ns` are excluded because redistribution
    /// charges real placement wall-clock.
    #[test]
    fn run_is_bitwise_identical_at_any_thread_count() {
        use super::tests::RefiningWorkload;
        use crate::faults::{FaultEpisode, FaultTimeline};
        use amr_core::policies::Lpt;
        let trig = RebalanceTrigger::OnMeshChange;
        let mk = |shards: usize, threads: usize| {
            let mut cfg = cfg16();
            cfg.num_shards = shards;
            cfg.threads = threads;
            cfg.faults = FaultTimeline::with_episode(
                FaultEpisode::throttle(3, 9, [1], 3.0).with_nic_degradation(0.6),
            );
            cfg
        };
        for shards in [0usize, 3] {
            let mut w = RefiningWorkload::new(12, 4);
            let base = MacroSim::new(mk(shards, 1)).run(&mut w, &Lpt, trig);
            for threads in [2usize, 3, 4, 21] {
                let mut w = RefiningWorkload::new(12, 4);
                let rep = MacroSim::new(mk(shards, threads)).run(&mut w, &Lpt, trig);
                assert_eq!(
                    rep.phases.compute_ns.to_bits(),
                    base.phases.compute_ns.to_bits(),
                    "compute diverged at {threads} threads, {shards} shards"
                );
                assert_eq!(
                    rep.phases.comm_ns.to_bits(),
                    base.phases.comm_ns.to_bits(),
                    "comm diverged at {threads} threads, {shards} shards"
                );
                assert_eq!(
                    rep.phases.sync_ns.to_bits(),
                    base.phases.sync_ns.to_bits(),
                    "sync diverged at {threads} threads, {shards} shards"
                );
                assert_eq!(
                    rep.halo_exchange_ns.to_bits(),
                    base.halo_exchange_ns.to_bits()
                );
                assert_eq!(&rep.messages, &base.messages);
                assert_eq!(rep.lb_invocations, base.lb_invocations);
                assert_eq!(rep.mesh_change_steps, base.mesh_change_steps);
                assert_eq!(rep.blocks_migrated, base.blocks_migrated);
                assert_eq!(rep.final_blocks, base.final_blocks);
                assert_eq!(rep.final_halo_blocks, base.final_halo_blocks);
            }
        }
    }

    /// Worker lanes observe epoch fills without perturbing them: a traced
    /// run matches the untraced one bit for bit, and the handle's snapshot
    /// carries one host-track `Exchange` span per fill task — one rule at
    /// every thread count, the single-task schedule included.
    #[test]
    fn traced_run_matches_and_records_one_lane_per_fill_task() {
        use amr_core::policies::Lpt;
        use amr_telemetry::trace::Track;
        let trig = RebalanceTrigger::OnMeshChange;
        for threads in [1usize, 4] {
            let mk = || {
                let mut cfg = cfg16();
                cfg.threads = threads;
                cfg
            };
            let mut w1 = StaticWorkload::new(4, 8, 1.0);
            let base = MacroSim::new(mk()).run(&mut w1, &Lpt, trig);
            let mut w2 = StaticWorkload::new(4, 8, 1.0);
            let mut sim = MacroSim::new(mk());
            let handle = TraceHandle::new(1024);
            sim.set_trace(Some(handle.clone()));
            let traced = sim.run(&mut w2, &Lpt, trig);
            assert_eq!(traced.total_ns.to_bits(), base.total_ns.to_bits());
            assert_eq!(
                traced.phases.comm_ns.to_bits(),
                base.phases.comm_ns.to_bits()
            );
            // One lane per fill task, each with one span per epoch fill (the
            // static run fills once, after the initial placement).
            assert_eq!(handle.lane_count(), threads);
            let fills = handle
                .snapshot()
                .iter()
                .filter(|s| {
                    s.lane >= 1 && s.track == Track::Host && s.phase == TracePhase::Exchange
                })
                .count();
            assert_eq!(fills, threads, "lane spans at {threads} threads");
        }
    }

    /// The new control-plane knobs go through the same boundary validation
    /// as the bandwidth regression above — rejected before a run can start.
    #[test]
    fn degenerate_control_plane_knobs_are_rejected() {
        let cases: Vec<(SimConfig, &str)> = vec![
            (
                {
                    let mut c = cfg16();
                    c.network.fabric_credit_bytes = 0;
                    c
                },
                "fabric_credit_bytes",
            ),
            (
                {
                    let mut c = cfg16();
                    c.network.congestion_backoff = -1.0;
                    c
                },
                "congestion_backoff",
            ),
            (
                {
                    let mut c = cfg16();
                    c.network.ack_loss_prob = 2.0;
                    c
                },
                "ack_loss_prob",
            ),
            (
                {
                    let mut c = cfg16();
                    c.network.shm_queue_size = 0;
                    c
                },
                "shm_queue_size",
            ),
            (
                {
                    let mut c = cfg16();
                    c.collective_payload_bytes = 0;
                    c
                },
                "collective_payload_bytes",
            ),
            (
                {
                    let mut c = cfg16();
                    c.cost_alpha = 0.0;
                    c
                },
                "cost_alpha",
            ),
            (
                {
                    let mut c = cfg16();
                    c.telemetry_sampling = 0;
                    c
                },
                "telemetry_sampling",
            ),
            (
                {
                    // Once overflowed `num_shards + 1` planning the shards.
                    let mut c = cfg16();
                    c.num_shards = usize::MAX;
                    c
                },
                "num_shards",
            ),
        ];
        for (cfg, needle) in cases {
            let err = cfg.validate().unwrap_err();
            assert!(err.contains(needle), "{err} does not mention {needle}");
        }
        let mut at_bound = cfg16();
        at_bound.num_shards = at_bound.topology.num_ranks;
        assert!(at_bound.validate().is_ok());
    }

    /// An *enabled but never exhausted* credit window adds exactly-0.0
    /// congestion terms everywhere, so its virtual time is bit-identical to
    /// the disabled default — the wiring itself costs nothing.
    #[test]
    fn idle_credit_window_is_bit_identical_to_disabled() {
        let trig = RebalanceTrigger::OnMeshChange;
        let mut w1 = StaticWorkload::new(4, 10, 1.0);
        let base = MacroSim::new(cfg16()).run(&mut w1, &Baseline, trig);
        let mut cfg = cfg16();
        cfg.network.fabric_credit_bytes = u64::MAX - 1; // enabled, unreachable
        cfg.network.congestion_backoff = 4.0;
        let mut w2 = StaticWorkload::new(4, 10, 1.0);
        let idle = MacroSim::new(cfg).run(&mut w2, &Baseline, trig);
        assert_eq!(idle.total_ns.to_bits(), base.total_ns.to_bits());
        assert_eq!(idle.phases.comm_ns.to_bits(), base.phases.comm_ns.to_bits());
        assert_eq!(idle.phases.sync_ns.to_bits(), base.phases.sync_ns.to_bits());
    }

    /// A window the epoch's hot links actually exceed charges the run:
    /// strictly more comm than the same run with credits disabled, and
    /// monotone — tightening the window never speeds anything up.
    #[test]
    fn exhausted_credit_window_charges_comm() {
        let trig = RebalanceTrigger::OnMeshChange;
        let run = |credit: u64| {
            let mut cfg = cfg16();
            if credit > 0 {
                cfg.network.fabric_credit_bytes = credit;
                cfg.network.congestion_backoff = 2.0;
            }
            let mut w = StaticWorkload::new(4, 10, 0.5);
            MacroSim::new(cfg).run(&mut w, &Baseline, trig)
        };
        let off = run(0);
        let loose = run(1 << 22);
        let tight = run(1 << 16);
        assert!(
            tight.phases.comm_ns > off.phases.comm_ns,
            "tight window {} !> uncongested {}",
            tight.phases.comm_ns,
            off.phases.comm_ns
        );
        assert!(tight.total_ns > off.total_ns);
        assert!(
            tight.total_ns >= loose.total_ns,
            "tightening the window sped the run up"
        );
    }

    /// Adaptive collective selection reads the feedback plane mid-run: under
    /// heavy sync pressure and a fat payload it abandons the binomial tree
    /// for a bandwidth-optimal algorithm and beats the fixed default, while
    /// the switching decision itself is thread-invariant (checked bitwise in
    /// `congested_adaptive_run_is_bitwise_identical_across_threads`).
    #[test]
    fn adaptive_collectives_switch_under_sync_pressure() {
        let trig = RebalanceTrigger::Never; // keep the imbalance (and sync) high
        let mk = |select: CollectiveSelect| {
            let mut cfg = cfg16();
            cfg.collectives = select;
            cfg.collective_payload_bytes = 1 << 20; // diagnostics-heavy dt vector
            cfg
        };
        let mut w1 = StaticWorkload::new(4, 20, 2.0);
        let mut fixed_sim = MacroSim::new(mk(CollectiveSelect::default()));
        let fixed = fixed_sim.run(&mut w1, &Baseline, trig);
        let mut w2 = StaticWorkload::new(4, 20, 2.0);
        let mut adaptive_sim = MacroSim::new(mk(CollectiveSelect::Adaptive));
        let adaptive = adaptive_sim.run(&mut w2, &Baseline, trig);
        // The skewed static mesh keeps measured sync share above threshold...
        let sf = adaptive_sim.feedback().gauge(TraceGauge::SyncFraction);
        assert!(sf > ADAPTIVE_SYNC_THRESHOLD, "sync fraction only {sf}");
        // ...and at 16 ranks with a 1 MiB payload the bandwidth-optimal
        // variants clearly beat the tree, so the switch must pay off.
        assert!(
            adaptive.total_ns < fixed.total_ns,
            "adaptive {} !< fixed binomial {}",
            adaptive.total_ns,
            fixed.total_ns
        );
        assert_ne!(
            collectives::cheapest_algo(16, 2_500, 1 << 20, 5.0),
            CollectiveAlgo::BinomialTree
        );
    }

    /// The full control plane at once — congested fabric, adaptive
    /// collectives, sync-fraction trigger — stays on the slot-ownership
    /// rails: virtual time is bitwise identical at any thread count.
    #[test]
    fn congested_adaptive_run_is_bitwise_identical_across_threads() {
        use super::tests::RefiningWorkload;
        use amr_core::policies::Lpt;
        let trig = RebalanceTrigger::SyncFractionAbove(0.1);
        let mk = |threads: usize| {
            let mut cfg = cfg16();
            cfg.threads = threads;
            cfg.network = NetworkConfig {
                fabric_credit_bytes: 1 << 16,
                congestion_backoff: 2.0,
                ..NetworkConfig::tuned()
            };
            cfg.collectives = CollectiveSelect::Adaptive;
            cfg.collective_payload_bytes = 1 << 18;
            cfg
        };
        let mut w = RefiningWorkload::new(12, 4);
        let base = MacroSim::new(mk(1)).run(&mut w, &Lpt, trig);
        for threads in [2usize, 3, 4] {
            let mut w = RefiningWorkload::new(12, 4);
            let rep = MacroSim::new(mk(threads)).run(&mut w, &Lpt, trig);
            assert_eq!(
                rep.phases.compute_ns.to_bits(),
                base.phases.compute_ns.to_bits(),
                "compute diverged at {threads} threads"
            );
            assert_eq!(
                rep.phases.comm_ns.to_bits(),
                base.phases.comm_ns.to_bits(),
                "comm diverged at {threads} threads"
            );
            assert_eq!(
                rep.phases.sync_ns.to_bits(),
                base.phases.sync_ns.to_bits(),
                "sync diverged at {threads} threads"
            );
            assert_eq!(rep.lb_invocations, base.lb_invocations);
            assert_eq!(&rep.messages, &base.messages);
        }
        // The measured-signal trigger actually fired beyond the initial
        // mesh-change placements (sync share over the refining run is high).
        assert!(
            base.lb_invocations > base.mesh_change_steps,
            "sync-fraction trigger never fired: {} invocations over {} mesh changes",
            base.lb_invocations,
            base.mesh_change_steps
        );
    }
}
