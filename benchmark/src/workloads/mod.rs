//! The four workloads and what they share.
//!
//! A workload is two functions the harness times — `setup` builds the inputs
//! from the seed, cold; `pass` executes them once — plus untimed ones that
//! describe what the pass produced. Every round of a run calls both with the
//! same seed, so every round does bit-identical work and an estimator over
//! rounds is well defined.

pub mod fault_diagnose;
pub mod sedov_sweep;
pub mod service_mix;
pub mod static_scale;

use crate::spans;
use crate::timed::PlaceSnapshot;
use amr_core::engine::PlacementEngine;
use amr_core::PlacementPolicy;
use amr_mesh::{AmrMesh, NeighborGraph, PatchScratch, RefineTag};
use amr_sim::{RunReport, Workload, WorkloadStep};

pub const NAMES: [&str; 4] = [
    "sedov_sweep",
    "static_scale",
    "fault_diagnose",
    "service_mix",
];

pub trait BenchWorkload {
    /// Everything `setup` builds and `pass` consumes; `pass` leaves its
    /// results here for `outcome` and `verify` to read outside the timers.
    type Inputs;

    /// Timed rounds per second of `--seconds`: a compile-time constant sized
    /// on the reference host (README) so a run lasts about `--seconds`. The
    /// round count is fixed by it, never by a deadline: a slow host runs
    /// longer, it does not run less.
    fn rounds_per_second(&self) -> f64;

    /// Build the inputs from the seed (one set-up sample).
    fn setup(&self, seed: u64) -> Self::Inputs;

    /// Execute the workload once (one pass sample).
    fn pass(&self, inputs: &mut Self::Inputs);

    /// What the pass produced (untimed; every round's must equal round 0's).
    fn outcome(&self, inputs: &Self::Inputs) -> Outcome;

    /// Structural checks on round 0 (untimed).
    fn verify(&self, inputs: &Self::Inputs, outcome: &Outcome) -> Result<(), String>;

    /// Traced run only: direct calls, on this workload's own data, into code
    /// the pass only reaches through the simulator or the service. Called
    /// once per probe round with recording on; spans it opens become
    /// per-layer metrics exactly like the pass's. Returns exact counts.
    fn probe(&self, seed: u64) -> Vec<(&'static str, f64)>;
}

/// What one pass produced. `exact` and `extra` together with the virtual
/// time and the placement hash are the round's fingerprint.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Virtual time of the workload's designated run(s): compute + comm +
    /// sync, never `RunReport::total_ns` (README, host-wall caveat).
    pub virt_ns: f64,
    pub place: PlaceSnapshot,
    /// The `*` per-layer metrics: counts and virtual quantities that must
    /// repeat bit for bit, by metric name.
    pub exact: Vec<(&'static str, f64)>,
    /// Fingerprint components that are not reported as metrics (hashes).
    pub extra: Vec<(&'static str, u64)>,
    /// `phases.redist_ns` of the designated run. Reported
    /// (`sim.virt_redist_ms`) but never compared: host wall leaks into it.
    pub virt_redist_ns: f64,
    /// Simulated rank-steps of the pass (for `sim.rank_steps_per_s`).
    pub rank_steps: f64,
    /// Telemetry rows the query battery read (for `telemetry.scan_rows_per_s`).
    pub rows_scanned: f64,
    /// Service sessions and requests of the pass, and how many failed.
    pub sessions: u64,
    pub requests: u64,
    pub failed_requests: u64,
    /// Program-reported per-request latencies (`Service::take_latencies`).
    pub latencies_ns: Vec<u64>,
}

impl Outcome {
    /// Everything that must equal round 0's, as comparable bits.
    pub fn fingerprint(&self) -> Vec<(&'static str, u64)> {
        let mut f = vec![
            ("virt_ns", self.virt_ns.to_bits()),
            ("place.calls", self.place.calls),
            ("place.hash", self.place.hash),
            ("requests", self.requests),
            ("failed_requests", self.failed_requests),
        ];
        f.extend(self.exact.iter().map(|&(n, v)| (n, v.to_bits())));
        f.extend(self.extra.iter().copied());
        f
    }
}

/// The `sim.*` exact metrics every workload reports from its designated run.
pub fn sim_exact(report: &RunReport, out: &mut Vec<(&'static str, f64)>) {
    let p = &report.phases;
    let three = p.compute_ns + p.comm_ns + p.sync_ns;
    out.extend([
        ("sim.virt_compute_ms", p.compute_ns / 1e6),
        ("sim.virt_comm_ms", p.comm_ns / 1e6),
        ("sim.virt_sync_ms", p.sync_ns / 1e6),
        ("sim.sync_share", crate::stats::ratio(p.sync_ns, three)),
        ("sim.msgs_local", report.messages.local as f64),
        ("sim.msgs_remote", report.messages.remote as f64),
        ("sim.lb_invocations", report.lb_invocations as f64),
        ("sim.blocks_migrated", report.blocks_migrated as f64),
        ("sim.mesh_change_steps", report.mesh_change_steps as f64),
        ("sim.final_blocks", report.final_blocks as f64),
        ("sim.capacity_updates", report.capacity_updates as f64),
    ]);
}

/// compute + comm + sync of a run, the repeatable part of its virtual time.
pub fn virt_ns(report: &RunReport) -> f64 {
    report.phases.compute_ns + report.phases.comm_ns + report.phases.sync_ns
}

/// Seed of every generated mesh. The meshes do not follow `--seed`: a run's
/// metrics are compared across seeds within a few percent, and block counts
/// of seed-drawn meshes spread pass time by 7–15 % and virtual time by up
/// to 19 % (README, noise study). `--seed` drives the simulated machine's
/// jitter stream instead, which changes every virtual time and placement
/// input downstream of measured costs but leaves the amount of work alone.
pub const MESH_SEED: u64 = 0x5EED;

/// SplitMix64: derives independent sub-seeds from `--seed`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic mildly skewed per-block costs (the shape `amr-service`
/// gives its sessions), so direct runs and service runs are comparable.
pub fn skewed_costs(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 1.0e6 * (1.0 + 0.37 * (i % 13) as f64))
        .collect()
}

/// A mesh that never adapts, simulated for `steps` steps.
pub struct StaticWorkload {
    pub mesh: AmrMesh,
    pub costs: Vec<f64>,
    pub steps: u64,
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

/// The mesh probes every workload runs on its own mesh: clone, one adapt
/// that refines the blocks around the domain centre (a small delta, the
/// steady regime of a propagating AMR feature), and the incremental CSR
/// patch that follows it. Returns the number of pre-adapt blocks changed.
pub fn probe_mesh_delta(mesh: &AmrMesh, graph: &NeighborGraph) -> f64 {
    let mut m = {
        let _s = spans::span("mesh.clone");
        mesh.clone()
    };
    let mut g = graph.clone();
    let max_level = m.config().max_level;
    let centre = m.config().domain.center();
    let changed = {
        let _s = spans::span("mesh.adapt");
        m.adapt(|b| {
            if b.level() < max_level && b.bounds.distance_to_point(&centre) <= 0.08 {
                RefineTag::Refine
            } else {
                RefineTag::Keep
            }
        })
        .changed_old_blocks()
    };
    let mut scratch = PatchScratch::default();
    {
        let _s = spans::span("mesh.graph_patch");
        m.patch_neighbor_graph(&mut g, &mut scratch);
    }
    changed as f64
}

/// Cold then warm `rebalance_with` on one engine: the direct form of what a
/// simulator or a session does on its first and on every later rebalance.
pub fn probe_engine(policy: &dyn PlacementPolicy, costs: &[f64], ranks: usize, mesh: &AmrMesh) {
    let mut engine = PlacementEngine::new();
    {
        let _s = spans::span("core.engine_cold");
        engine
            .rebalance_with(policy, costs, ranks, Some(mesh), None)
            .expect("probe placement");
    }
    let _s = spans::span("core.engine_warm");
    engine
        .rebalance_with(policy, costs, ranks, Some(mesh), None)
        .expect("probe placement");
}
