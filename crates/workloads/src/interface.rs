//! A shear-interface (Kelvin–Helmholtz-style) workload.
//!
//! A third refinement topology alongside the spherical Sedov shell and the
//! static cooling box: a planar interface with a growing sinusoidal
//! perturbation. Instabilities of this kind refine a *sheet* that rolls up
//! over time — the refined region is 2D-extended rather than shell-shaped,
//! which stresses contiguous placements differently (an SFC cuts a sheet
//! into many short runs, whereas a shell tends to produce longer ones).
//!
//! The interface sits at `y = y0 + A(t)·sin(2πkx + ωt)` (extruded in z);
//! blocks crossed by it refine, blocks whose cells straddle the shear layer
//! cost more to integrate.

use amr_mesh::{Aabb, AmrMesh, BlockId, MeshConfig, Point, RefineTag};
use amr_sim::{Workload, WorkloadStep};

/// Configuration of the interface workload.
#[derive(Debug, Clone)]
pub struct InterfaceConfig {
    pub mesh: MeshConfig,
    pub total_steps: u64,
    /// Refinement-check cadence (steps).
    pub adapt_interval: u64,
    /// Interface rest position (fraction of domain height).
    pub y0: f64,
    /// Final perturbation amplitude (fraction of domain height); grows
    /// linearly with time (the instability's linear phase).
    pub final_amplitude: f64,
    /// Number of perturbation wavelengths across the domain.
    pub wavenumber: u32,
    /// Phase velocity in radians per step (the billow drift).
    pub omega: f64,
    /// Nominal per-block compute (ns).
    pub base_cost_ns: f64,
    /// Cost boost for blocks on the interface.
    pub interface_boost: f64,
    /// Half-thickness of the costly shear layer (physical units).
    pub layer_width: f64,
}

impl InterfaceConfig {
    /// Defaults tuned for 1–2 refinement levels and visible imbalance.
    pub fn new(mesh: MeshConfig, total_steps: u64) -> InterfaceConfig {
        InterfaceConfig {
            mesh,
            total_steps,
            adapt_interval: 5,
            y0: 0.5,
            final_amplitude: 0.25,
            wavenumber: 2,
            omega: 0.2,
            base_cost_ns: 1.0e6,
            interface_boost: 2.5,
            layer_width: 0.05,
        }
    }
}

/// The interface workload state.
pub struct InterfaceWorkload {
    config: InterfaceConfig,
    mesh: AmrMesh,
    costs: Vec<f64>,
    step: u64,
    /// Pooled id list of blocks intersecting the perturbation slab (spatial
    /// prefilter for tagging: blocks outside it cannot be crossed).
    slab_ids: Vec<BlockId>,
}

impl InterfaceWorkload {
    /// Initialize at one block per root.
    pub fn new(config: InterfaceConfig) -> InterfaceWorkload {
        let mesh = AmrMesh::new(config.mesh.clone());
        let mut w = InterfaceWorkload {
            config,
            mesh,
            costs: Vec::new(),
            step: 0,
            slab_ids: Vec::new(),
        };
        w.recompute_costs();
        w
    }

    /// Interface height at horizontal position `x` for the current step.
    pub fn interface_y(&self, x: f64, step: u64) -> f64 {
        let cfg = &self.config;
        let t = (step + 1) as f64 / cfg.total_steps as f64;
        let amp = cfg.final_amplitude * t;
        cfg.y0
            + amp
                * (2.0 * std::f64::consts::PI * cfg.wavenumber as f64 * x + cfg.omega * step as f64)
                    .sin()
    }

    /// Signed distance from a y-coordinate to the interface at `x`.
    fn dist_to_interface(&self, x: f64, y: f64, step: u64) -> f64 {
        (y - self.interface_y(x, step)).abs()
    }

    fn recompute_costs(&mut self) {
        let step = self.step;
        let cfg = &self.config;
        self.costs = self
            .mesh
            .blocks()
            .iter()
            .map(|b| {
                let c = b.bounds.center();
                let d = self.dist_to_interface(c.x, c.y, step);
                let boost = cfg.interface_boost * (-(d / cfg.layer_width).powi(2)).exp();
                cfg.base_cost_ns * (1.0 + boost)
            })
            .collect();
    }

    /// Adapt the mesh to the current interface. Returns whether the mesh
    /// changed.
    fn adapt_mesh(&mut self) -> bool {
        let step = self.step;
        let max_level = self.config.mesh.max_level;
        // Capture the interface function without borrowing `self`, so the
        // closure can coexist with the mutable mesh borrow below.
        let cfg = self.config.clone();
        let interface_y = move |x: f64| {
            let t = (step + 1) as f64 / cfg.total_steps as f64;
            let amp = cfg.final_amplitude * t;
            cfg.y0
                + amp
                    * (2.0 * std::f64::consts::PI * cfg.wavenumber as f64 * x
                        + cfg.omega * step as f64)
                        .sin()
        };
        // A block is crossed by the interface iff the interface height at
        // its x-range intersects its y-range; sample a few x positions.
        let crosses = move |b: &amr_mesh::MeshBlock| {
            let lo = b.bounds.lo;
            let hi = b.bounds.hi;
            let mut above = false;
            let mut below = false;
            for i in 0..=4 {
                let x = lo.x + (hi.x - lo.x) * i as f64 / 4.0;
                let iy = interface_y(x);
                if iy >= lo.y {
                    above = true;
                }
                if iy <= hi.y {
                    below = true;
                }
            }
            above && below
        };
        // Spatial prefilter: the interface height lives in the slab
        // y ∈ [y0 − A(t), y0 + A(t)] (extruded in x and z). A block disjoint
        // from the slab can never satisfy `crosses`, so it coarsens (or
        // keeps at level 0) without sampling the interface at all.
        let t = (step + 1) as f64 / cfg.total_steps as f64;
        let amp = cfg.final_amplitude * t;
        let domain = self.mesh.config().domain;
        let region = Aabb::new(
            Point::new(domain.lo.x, cfg.y0 - amp, domain.lo.z),
            Point::new(domain.hi.x, cfg.y0 + amp, domain.hi.z),
        );
        self.mesh.blocks_in_region_into(&region, &mut self.slab_ids);
        let slab = &self.slab_ids;
        self.mesh
            .adapt(|b| {
                if slab.binary_search(&b.id).is_err() {
                    return if b.level() > 0 {
                        RefineTag::Coarsen
                    } else {
                        RefineTag::Keep
                    };
                }
                if crosses(b) && b.level() < max_level {
                    RefineTag::Refine
                } else if !crosses(b) && b.level() > 0 {
                    RefineTag::Coarsen
                } else {
                    RefineTag::Keep
                }
            })
            .changed()
    }
}

impl Workload for InterfaceWorkload {
    fn mesh(&self) -> &AmrMesh {
        &self.mesh
    }

    fn advance(&mut self, step: u64) -> WorkloadStep {
        self.step = step;
        let mesh_changed = step.is_multiple_of(self.config.adapt_interval) && self.adapt_mesh();
        self.recompute_costs();
        WorkloadStep { mesh_changed }
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

    fn workload() -> InterfaceWorkload {
        InterfaceWorkload::new(InterfaceConfig::new(
            MeshConfig::from_cells(Dim::D3, (64, 64, 64), 1),
            200,
        ))
    }

    #[test]
    fn interface_stays_in_domain() {
        let w = workload();
        for step in [0u64, 50, 199] {
            for i in 0..=10 {
                let y = w.interface_y(i as f64 / 10.0, step);
                assert!((0.0..=1.0).contains(&y), "y = {y} at step {step}");
            }
        }
    }

    #[test]
    fn refines_a_sheet_not_a_shell() {
        let mut w = workload();
        let mut changed = 0;
        for step in 0..100 {
            if w.advance(step).mesh_changed {
                changed += 1;
                w.mesh().check_invariants().unwrap();
            }
        }
        assert!(changed > 0);
        assert!(w.mesh().num_blocks() > 64, "interface never refined");
        // Refined blocks concentrate around y0 within the max amplitude.
        for b in w.mesh().blocks().iter().filter(|b| b.level() > 0) {
            let y = b.bounds.center().y;
            assert!(
                (0.5 - 0.35..=0.5 + 0.35).contains(&y),
                "refined block far from interface: y = {y}"
            );
        }
    }

    #[test]
    fn costs_peak_on_the_interface() {
        let mut w = workload();
        for step in 0..60 {
            w.advance(step);
        }
        let (mut on, mut on_n, mut off, mut off_n) = (0.0, 0, 0.0, 0);
        for (b, &c) in w.mesh().blocks().iter().zip(w.block_compute_ns()) {
            let center = b.bounds.center();
            let d = (center.y - w.interface_y(center.x, 59)).abs();
            if d < 0.05 {
                on += c;
                on_n += 1;
            } else if d > 0.2 {
                off += c;
                off_n += 1;
            }
        }
        assert!(on_n > 0 && off_n > 0);
        assert!(on / on_n as f64 > 1.5 * off / off_n as f64);
    }

    #[test]
    fn deterministic() {
        let mut a = workload();
        let mut b = workload();
        for step in 0..40 {
            a.advance(step);
            b.advance(step);
        }
        assert_eq!(a.block_compute_ns(), b.block_compute_ns());
        assert_eq!(a.mesh().num_blocks(), b.mesh().num_blocks());
    }
}
