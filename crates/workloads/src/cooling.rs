//! A low-variability "galaxy cooling"-style workload.
//!
//! The paper also studied "a galaxy cooling setup in AthenaPK" and found
//! results "directionally similar: codes with high compute variability
//! benefit more from better placement, and vice-versa" (§VI). This workload
//! is the low-variability end of that spectrum: a static (or rarely
//! adapting) mesh whose per-block costs drift slowly around a uniform mean —
//! placement has little to gain here, which the ablation benches use as the
//! negative control.

use amr_mesh::{AmrMesh, MeshConfig};
use amr_sim::{Workload, WorkloadStep};

/// Configuration of the cooling workload.
#[derive(Debug, Clone)]
pub struct CoolingConfig {
    pub mesh: MeshConfig,
    pub total_steps: u64,
    /// Nominal per-block compute (ns).
    pub base_cost_ns: f64,
    /// Relative amplitude of the slow per-block cost modulation (small:
    /// this is the *low-variability* workload).
    pub amplitude: f64,
    /// Modulation period in steps.
    pub period: u64,
}

impl CoolingConfig {
    /// Defaults: 5% cost modulation over 200-step periods.
    pub fn new(mesh: MeshConfig, total_steps: u64) -> CoolingConfig {
        CoolingConfig {
            mesh,
            total_steps,
            base_cost_ns: 1.0e6,
            amplitude: 0.05,
            period: 200,
        }
    }
}

/// The cooling workload state.
pub struct CoolingWorkload {
    config: CoolingConfig,
    mesh: AmrMesh,
    costs: Vec<f64>,
}

impl CoolingWorkload {
    /// Initialize (static mesh at one block per root).
    pub fn new(config: CoolingConfig) -> CoolingWorkload {
        let mesh = AmrMesh::new(config.mesh.clone());
        let n = mesh.num_blocks();
        let mut w = CoolingWorkload {
            config,
            mesh,
            costs: vec![0.0; n],
        };
        w.update_costs(0);
        w
    }

    fn update_costs(&mut self, step: u64) {
        let cfg = &self.config;
        let phase = 2.0 * std::f64::consts::PI * step as f64 / cfg.period as f64;
        let n = self.costs.len() as f64;
        for (i, c) in self.costs.iter_mut().enumerate() {
            // Each block modulates with a position-dependent phase shift:
            // a slowly rotating cost pattern.
            let local = phase + 2.0 * std::f64::consts::PI * i as f64 / n;
            *c = cfg.base_cost_ns * (1.0 + cfg.amplitude * local.sin());
        }
    }
}

impl Workload for CoolingWorkload {
    fn mesh(&self) -> &AmrMesh {
        &self.mesh
    }

    fn advance(&mut self, step: u64) -> WorkloadStep {
        self.update_costs(step);
        WorkloadStep::default()
    }

    fn block_compute_ns(&self) -> &[f64] {
        &self.costs
    }

    fn total_steps(&self) -> u64 {
        self.config.total_steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amr_mesh::Dim;

    fn workload() -> CoolingWorkload {
        CoolingWorkload::new(CoolingConfig::new(
            MeshConfig::from_cells(Dim::D3, (64, 64, 64), 1),
            100,
        ))
    }

    #[test]
    fn mesh_is_static() {
        let mut w = workload();
        let n = w.mesh().num_blocks();
        for step in 0..50 {
            let ws = w.advance(step);
            assert!(!ws.mesh_changed);
        }
        assert_eq!(w.mesh().num_blocks(), n);
    }

    #[test]
    fn variability_is_low() {
        let mut w = workload();
        w.advance(10);
        let costs = w.block_compute_ns();
        let mean = costs.iter().sum::<f64>() / costs.len() as f64;
        let max = costs.iter().cloned().fold(0.0, f64::max);
        let min = costs.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((max - min) / mean < 0.15, "spread too large for cooling");
    }

    #[test]
    fn costs_drift_over_time() {
        let mut w = workload();
        w.advance(0);
        let early = w.block_compute_ns().to_vec();
        w.advance(50);
        let later = w.block_compute_ns().to_vec();
        assert_ne!(early, later);
    }
}
