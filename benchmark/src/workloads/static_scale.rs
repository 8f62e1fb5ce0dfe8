//! `static_scale` — the large-working-set, cold-path workload: a 16384-rank
//! random refined mesh, its full CSR build, one cold CPLX-50 placement and a
//! few static simulated steps.
//!
//! Set-up is the problem-construction half of ROADMAP's ledger (mesh
//! generation + `neighbor_graph()`), claimable as `setup_s`. The pass builds
//! the CSR again inside the simulator's epoch build, solves placement cold
//! twice (directly, and as the simulator's initial placement) and runs the
//! epoch-fill / compute / collective kernels at scale. Nothing incremental,
//! nothing warm, no telemetry, no service: an optimisation of those must
//! leave this workload flat.

use super::{
    mix, probe_engine, probe_mesh_delta, sim_exact, skewed_costs, virt_ns, BenchWorkload, Outcome,
    StaticWorkload, MESH_SEED,
};
use crate::spans;
use crate::timed::{PlaceStats, TimedPolicy};
use amr_core::engine::{PlacementEngine, PlacementReport};
use amr_core::{Cplx, RebalanceTrigger};
use amr_mesh::NeighborGraph;
use amr_sim::{MacroSim, RunReport, SimConfig};
use amr_workloads::random_refined_mesh;
use std::sync::Arc;

const RANKS: usize = 16384;
const STEPS: u64 = 6;
/// Sampling interval beyond any step count: telemetry off.
const TELEMETRY_OFF: u32 = 1_000_000;

pub struct StaticScale;

pub struct Inputs {
    workload: StaticWorkload,
    graph: NeighborGraph,
    seed: u64,
    place: Arc<PlaceStats>,
    engine: PlacementEngine,
    placed: Option<PlacementReport>,
    report: Option<RunReport>,
}

impl BenchWorkload for StaticScale {
    type Inputs = Inputs;

    fn rounds_per_second(&self) -> f64 {
        7.5
    }

    fn setup(&self, seed: u64) -> Inputs {
        let mesh = {
            let _s = spans::span("workloads.meshgen");
            random_refined_mesh(RANKS, 1.6, MESH_SEED)
        };
        let graph = {
            let _s = spans::span("mesh.graph_build");
            mesh.neighbor_graph()
        };
        let costs = skewed_costs(mesh.num_blocks());
        Inputs {
            workload: StaticWorkload {
                mesh,
                costs,
                steps: STEPS,
            },
            graph,
            seed,
            place: Arc::new(PlaceStats::default()),
            engine: PlacementEngine::new(),
            placed: None,
            report: None,
        }
    }

    fn pass(&self, inputs: &mut Inputs) {
        let policy = TimedPolicy::new(Cplx::new(50), inputs.place.clone());
        let w = &mut inputs.workload;
        inputs.placed = Some({
            let _s = spans::span("core.engine_cold");
            inputs
                .engine
                .rebalance_with(&policy, &w.costs, RANKS, Some(&w.mesh), None)
                .expect("cold placement")
        });
        let mut sim = {
            let _s = spans::span("sim.new");
            let mut cfg = SimConfig::tuned(RANKS);
            cfg.seed = mix(inputs.seed, 3);
            cfg.telemetry_sampling = TELEMETRY_OFF;
            MacroSim::new(cfg)
        };
        let _s = spans::span("sim.run");
        inputs.report = Some(sim.run(w, &policy, RebalanceTrigger::OnMeshChange));
    }

    fn outcome(&self, inputs: &Inputs) -> Outcome {
        let report = inputs.report.as_ref().expect("pass ran");
        let placed = inputs.placed.as_ref().expect("pass ran");
        let mut out = Outcome {
            virt_ns: virt_ns(report),
            place: inputs.place.snapshot(),
            rank_steps: (RANKS as u64 * report.steps) as f64,
            ..Outcome::default()
        };
        sim_exact(report, &mut out.exact);
        out.exact.extend([
            ("mesh.blocks", inputs.workload.mesh.num_blocks() as f64),
            (
                "mesh.graph_relations",
                inputs.graph.total_relations() as f64,
            ),
            ("core.imbalance", placed.imbalance),
            (
                "core.blocks_moved",
                placed.migration.map_or(0, |m| m.moved) as f64,
            ),
            ("telemetry.rows", report.telemetry.len() as f64),
        ]);
        out.virt_redist_ns = report.phases.redist_ns;
        out
    }

    fn verify(&self, inputs: &Inputs, outcome: &Outcome) -> Result<(), String> {
        inputs.graph.check_symmetry()?;
        let report = inputs.report.as_ref().ok_or("pass did not run")?;
        let blocks = inputs.workload.mesh.num_blocks();
        if blocks < RANKS || report.final_blocks != blocks {
            return Err(format!(
                "{blocks} blocks for {RANKS} ranks, sim saw {}",
                report.final_blocks
            ));
        }
        // Sampling every millionth step still records step 0's rank rows.
        if report.steps != STEPS || report.lb_invocations != 0 || report.telemetry.len() > 8 * RANKS
        {
            return Err("static run rebalanced, recorded telemetry or stopped early".into());
        }
        if outcome.place.calls != 2 {
            return Err(format!(
                "{} place_into calls, expected 2",
                outcome.place.calls
            ));
        }
        let placement = inputs
            .engine
            .placement()
            .ok_or("engine holds no placement")?;
        if placement.num_blocks() != blocks || placement.num_ranks() != RANKS {
            return Err("placement does not cover the mesh".into());
        }
        Ok(())
    }

    fn probe(&self, seed: u64) -> Vec<(&'static str, f64)> {
        let inputs = self.setup(seed);
        let w = &inputs.workload;
        let changed = probe_mesh_delta(&w.mesh, &inputs.graph);
        probe_engine(&Cplx::new(50), &w.costs, RANKS, &w.mesh);
        vec![("mesh.changed_blocks", changed)]
    }
}
