//! Export one traced run as Chrome trace-event JSON (load in Perfetto) and
//! collapsed stacks (feed to flamegraph.pl / inferno). A tilted front sweeps a
//! 64-rank mesh so the remesh-side phases fire too; the mesh and the simulator
//! (and through it the placement engine) share one `TraceHandle`, whose
//! counters (graph rows inherited vs probed among them) are printed at the end.
//! `cargo run --release --example trace_export -- [prefix]` (default `target/trace_export`)

use amr_tools::mesh::{AmrMesh, Dim, MeshConfig};
use amr_tools::placement::policies::Cplx;
use amr_tools::placement::trigger::RebalanceTrigger;
use amr_tools::service::{front_tag, session_costs};
use amr_tools::sim::{MacroSim, SimConfig, Workload, WorkloadStep};
use amr_tools::telemetry::trace::{chrome_trace_json, collapsed_stacks, Counter};
use amr_tools::telemetry::TraceHandle;

struct FrontSweep {
    mesh: AmrMesh,
    costs: Vec<f64>,
}

impl Workload for FrontSweep {
    fn mesh(&self) -> &AmrMesh {
        &self.mesh
    }
    fn advance(&mut self, step: u64) -> WorkloadStep {
        let front = 0.3 + step as f64 / 64.0; // a sixteenth of a root width per step
        let mesh_changed = self.mesh.adapt(|b| front_tag(b, front, 1)).changed();
        session_costs(self.mesh.num_blocks(), &mut self.costs);
        WorkloadStep { mesh_changed }
    }
    fn block_compute_ns(&self) -> &[f64] {
        &self.costs
    }
    fn total_steps(&self) -> u64 {
        40
    }
}

fn main() {
    let prefix = std::env::args().nth(1);
    let prefix = prefix.as_deref().unwrap_or("target/trace_export");
    let trace = TraceHandle::new(1 << 16);
    let mut mesh = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (64, 64, 64), 1));
    mesh.set_trace(Some(trace.clone()));
    let costs = Vec::new(); // filled by the first `advance`
    let mut sweep = FrontSweep { mesh, costs };
    let mut sim = MacroSim::new(SimConfig::tuned(64));
    sim.set_trace(Some(trace.clone()));
    sim.run(&mut sweep, &Cplx::new(50), RebalanceTrigger::OnMeshChange);
    let spans = trace.snapshot();
    let json = (format!("{prefix}.trace.json"), chrome_trace_json(&spans));
    for (path, body) in [json, (format!("{prefix}.folded"), collapsed_stacks(&spans))] {
        std::fs::write(&path, body).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }
    let metrics = trace.metrics();
    for c in Counter::ALL {
        println!("{:>24} {}", c.name(), metrics.counter(c));
    }
}
