//! `sedov_sweep` — the paper's Fig. 6 loop: the Table I 512-rank Sedov blast
//! under `Baseline`, then under `Cplx::new(50)`.
//!
//! The only workload where the delta pipeline (adapt → index splice → CSR
//! patch → warm re-placement) runs inside `MacroSim::run`. No full graph
//! build outside the simulator's own, almost no telemetry, no service.

use super::{mix, probe_engine, probe_mesh_delta, sim_exact, virt_ns, BenchWorkload, Outcome};
use crate::spans;
use crate::timed::{PlaceStats, TimedPolicy, TimedWorkload};
use amr_core::{Baseline, Cplx, RebalanceTrigger};
use amr_sim::{MacroSim, RunReport, SimConfig, Workload};
use amr_workloads::{SedovScenario, SedovWorkload};
use std::sync::Arc;

const RANKS: usize = 512;
const STEP_SCALE: u64 = 200;

pub struct SedovSweep;

pub struct Inputs {
    sims: [MacroSim; 2],
    workloads: [TimedWorkload<SedovWorkload>; 2],
    place: Arc<PlaceStats>,
    reports: Vec<RunReport>,
}

fn config(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::tuned(RANKS);
    cfg.seed = mix(seed, 1);
    cfg.telemetry_sampling = 16;
    cfg
}

impl BenchWorkload for SedovSweep {
    type Inputs = Inputs;

    fn rounds_per_second(&self) -> f64 {
        5.0
    }

    fn setup(&self, seed: u64) -> Inputs {
        let scenario = SedovScenario::for_ranks(RANKS, STEP_SCALE);
        let sims = {
            let _s = spans::span("sim.new");
            [MacroSim::new(config(seed)), MacroSim::new(config(seed))]
        };
        Inputs {
            sims,
            workloads: [
                TimedWorkload::new(scenario.workload()),
                TimedWorkload::new(scenario.workload()),
            ],
            place: Arc::new(PlaceStats::default()),
            reports: Vec::with_capacity(2),
        }
    }

    fn pass(&self, inputs: &mut Inputs) {
        let baseline = TimedPolicy::new(Baseline, inputs.place.clone());
        let cplx = TimedPolicy::new(Cplx::new(50), inputs.place.clone());
        let [sim_a, sim_b] = &mut inputs.sims;
        let [w_a, w_b] = &mut inputs.workloads;
        {
            let _s = spans::span("sim.run");
            inputs
                .reports
                .push(sim_a.run(w_a, &baseline, RebalanceTrigger::OnMeshChange));
        }
        {
            let _s = spans::span("sim.run");
            inputs
                .reports
                .push(sim_b.run(w_b, &cplx, RebalanceTrigger::OnMeshChange));
        }
    }

    fn outcome(&self, inputs: &Inputs) -> Outcome {
        let [base, cplx] = &inputs.reports[..] else {
            panic!("pass ran two simulations");
        };
        let mut out = Outcome {
            virt_ns: virt_ns(cplx),
            place: inputs.place.snapshot(),
            rank_steps: (RANKS as u64 * (base.steps + cplx.steps)) as f64,
            ..Outcome::default()
        };
        sim_exact(cplx, &mut out.exact);
        let advances: u64 = inputs.workloads.iter().map(|w| w.advance_calls).sum();
        out.exact.extend([
            ("workloads.advance_calls", advances as f64),
            ("mesh.blocks", cplx.final_blocks as f64),
            (
                "sim.cplx_gain_pct",
                100.0 * (1.0 - virt_ns(cplx) / virt_ns(base)),
            ),
            ("telemetry.rows", cplx.telemetry.len() as f64),
        ]);
        out.extra.extend([
            ("baseline.virt_ns", virt_ns(base).to_bits()),
            ("baseline.rows", base.telemetry.len() as u64),
        ]);
        out.virt_redist_ns = cplx.phases.redist_ns;
        out
    }

    fn verify(&self, inputs: &Inputs, outcome: &Outcome) -> Result<(), String> {
        let [base, cplx] = &inputs.reports[..] else {
            return Err("pass did not run two simulations".into());
        };
        for r in [base, cplx] {
            if r.steps != inputs.workloads[0].total_steps() {
                return Err(format!("{} ran {} steps", r.policy, r.steps));
            }
            if r.mesh_change_steps == 0 || r.lb_invocations == 0 {
                return Err(format!("{}: the mesh never changed", r.policy));
            }
        }
        if base.final_blocks != cplx.final_blocks {
            return Err("policies saw different workloads".into());
        }
        if virt_ns(cplx) >= virt_ns(base) {
            return Err("CPLX-50 did not beat Baseline".into());
        }
        if outcome.place.calls != base.lb_invocations + cplx.lb_invocations + 2 {
            return Err(format!(
                "{} place_into calls for {} + {} rebalances and 2 initial placements",
                outcome.place.calls, base.lb_invocations, cplx.lb_invocations
            ));
        }
        Ok(())
    }

    fn probe(&self, _seed: u64) -> Vec<(&'static str, f64)> {
        // The mid-run mesh: the blast advanced to half its steps.
        let scenario = SedovScenario::for_ranks(RANKS, STEP_SCALE);
        let mut w = scenario.workload();
        for step in 0..w.total_steps() / 2 {
            w.advance(step);
        }
        let mesh = w.mesh();
        let graph = {
            let _s = spans::span("mesh.graph_build");
            mesh.neighbor_graph()
        };
        let changed = probe_mesh_delta(mesh, &graph);
        probe_engine(&Cplx::new(50), w.block_compute_ns(), RANKS, mesh);
        vec![
            ("mesh.changed_blocks", changed),
            ("mesh.graph_relations", graph.total_relations() as f64),
        ]
    }
}
