//! The Sedov–Taylor blast-wave workload (§VI, Table I).
//!
//! The paper evaluates placement on the Sedov Blast Wave 3D problem in
//! Phoebus: a point explosion drives a spherical shock outward; the mesh
//! refines along the shock front as it propagates, and compute cost peaks in
//! the steep-gradient shell (more solver iterations, §II-B).
//!
//! We reproduce that driver analytically. The Sedov–Taylor similarity
//! solution gives the shock radius `r(t) ∝ t^{2/5}`; blocks whose distance
//! range from the blast center intersects the shell `[r − w, r + w]` are
//! tagged for refinement, blocks left far behind or far ahead are coarsened.
//! Per-block compute cost is
//!
//! ```text
//! cost(b) = base · noise(b) · (1 + amp · exp(−(d(b)/w)²) + post · [inside])
//! ```
//!
//! where `noise(b)` is a *deterministic per-octant* lognormal factor (hashed
//! from the octant coordinates, so every policy sees the identical workload
//! — the paper's "compute time remains flat across all policies" invariant
//! holds by construction), `d(b)` is the block center's distance to the
//! shock surface, and `post` is a milder post-shock (interior) boost.

use amr_mesh::{Aabb, AmrMesh, BlockFate, BlockId, MeshBlock, MeshConfig, Point, RefineTag};
use amr_sim::{Workload, WorkloadStep};
use amr_telemetry::TraceHandle;
use std::sync::OnceLock;

/// The SplitMix64 finalizer: 64 well-mixed bits from a key.
fn splitmix(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// SplitMix64-based deterministic lognormal sample with σ = `sigma`.
fn lognormal_hash(key: u64, sigma: f64) -> f64 {
    let z = splitmix(key);
    let u1 = ((z >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
    let u2 = ((z.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
    // Box–Muller → standard normal → lognormal.
    let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (sigma * g).exp()
}

/// Top bits of a hash that pick a cell of the quantile table.
const CELL_BITS: u32 = 12;

/// Cells of the quantile table, which holds one more quantile than cells.
const QUANTILE_CELLS: usize = 1 << CELL_BITS;

/// Bits of a hash below the cell index that interpolate inside the cell.
const FRACTION_BITS: u32 = 41;

/// Standard-normal quantiles at `k / 4096` for `k = 1..4095`; the two ends,
/// whose quantiles are infinite, hold those at half a cell from 0 and 1
/// (±3.668). Built once per process by [`inverse_normal_cdf`]; no heap.
fn normal_quantiles() -> &'static [f64; QUANTILE_CELLS + 1] {
    static TABLE: OnceLock<[f64; QUANTILE_CELLS + 1]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let cells = QUANTILE_CELLS as f64;
        let mut table = [0.0; QUANTILE_CELLS + 1];
        for (k, q) in table.iter_mut().enumerate() {
            let p = (k as f64).clamp(0.5, cells - 0.5) / cells;
            *q = inverse_normal_cdf(p);
        }
        table
    })
}

/// Deterministic lognormal sample with σ = `sigma` from the quantile table:
/// the hash's top 12 bits pick a cell, the next 41 interpolate linearly
/// inside it, so the normal deviate has the table's piecewise-linear
/// distribution. One `exp`; no other libm call once the table is built.
fn lognormal_table(key: u64, sigma: f64) -> f64 {
    let z = splitmix(key);
    let table = normal_quantiles();
    let cell = (z >> (64 - CELL_BITS)) as usize;
    let below = z >> (64 - CELL_BITS - FRACTION_BITS);
    let fraction = (below & ((1 << FRACTION_BITS) - 1)) as f64 / (1u64 << FRACTION_BITS) as f64;
    let g = table[cell] + fraction * (table[cell + 1] - table[cell]);
    (sigma * g).exp()
}

/// The standard normal's quantile function Φ⁻¹(p) for `0 < p < 1`:
/// Wichura's AS241 (`PPND16`, Applied Statistics 37, 1988), relative error
/// about 1e-16. A rational function of `p − ½` in the centre, of
/// `√(−ln min(p, 1 − p))` in the tails.
fn inverse_normal_cdf(p: f64) -> f64 {
    /// `Σ c[i]·x^i`, highest degree last.
    fn poly(c: &[f64; 8], x: f64) -> f64 {
        c.iter().rev().fold(0.0, |acc, &ci| acc * x + ci)
    }
    const A: [f64; 8] = [
        3.387_132_872_796_366_6,
        1.331_416_678_917_843_8e2,
        1.971_590_950_306_551_3e3,
        1.373_169_376_550_946e4,
        4.592_195_393_154_987e4,
        6.726_577_092_700_87e4,
        3.343_057_558_358_813e4,
        2.509_080_928_730_122_7e3,
    ];
    const B: [f64; 8] = [
        1.0,
        4.231_333_070_160_091e1,
        6.871_870_074_920_579e2,
        5.394_196_021_424_751e3,
        2.121_379_430_158_659_7e4,
        3.930_789_580_009_271e4,
        2.872_908_573_572_194_3e4,
        5.226_495_278_852_854e3,
    ];
    const C: [f64; 8] = [
        1.423_437_110_749_683_5,
        4.630_337_846_156_545,
        5.769_497_221_460_691,
        3.647_848_324_763_204_5,
        1.270_458_252_452_368_4,
        2.417_807_251_774_506e-1,
        2.272_384_498_926_918_4e-2,
        7.745_450_142_783_414e-4,
    ];
    const D: [f64; 8] = [
        1.0,
        2.053_191_626_637_759,
        1.676_384_830_183_803_8,
        6.897_673_349_851e-1,
        1.481_039_764_274_800_8e-1,
        1.519_866_656_361_645_7e-2,
        5.475_938_084_995_345e-4,
        1.050_750_071_644_416_8e-9,
    ];
    const E: [f64; 8] = [
        6.657_904_643_501_104,
        5.463_784_911_164_114,
        1.784_826_539_917_291_3,
        2.965_605_718_285_048_7e-1,
        2.653_218_952_657_612_4e-2,
        1.242_660_947_388_078_4e-3,
        2.711_555_568_743_487_6e-5,
        2.010_334_399_292_288_1e-7,
    ];
    const F: [f64; 8] = [
        1.0,
        5.998_322_065_558_88e-1,
        1.369_298_809_227_358e-1,
        1.487_536_129_085_061_5e-2,
        7.868_691_311_456_133e-4,
        1.846_318_317_510_054_8e-5,
        1.421_511_758_316_446e-7,
        2.044_263_103_389_939_7e-15,
    ];
    debug_assert!(p > 0.0 && p < 1.0, "p = {p}");
    let q = p - 0.5;
    if q.abs() <= 0.425 {
        let r = 0.180_625 - q * q;
        return q * poly(&A, r) / poly(&B, r);
    }
    let r = (-(if q < 0.0 { p } else { 1.0 - p }).ln()).sqrt();
    let z = if r <= 5.0 {
        poly(&C, r - 1.6) / poly(&D, r - 1.6)
    } else {
        poly(&E, r - 5.0) / poly(&F, r - 5.0)
    };
    if q < 0.0 {
        -z
    } else {
        z
    }
}

/// Configuration of a Sedov run.
#[derive(Debug, Clone)]
pub struct SedovConfig {
    /// Mesh geometry (use [`MeshConfig::from_cells`] with Table I sizes).
    pub mesh: MeshConfig,
    /// Timesteps to simulate.
    pub total_steps: u64,
    /// Refinement-check cadence in steps (the paper's codes refine at most
    /// every 5 timesteps).
    pub adapt_interval: u64,
    /// Shock radius at the end of the run, in units of the domain's shortest
    /// half-extent (≤ ~1.7 keeps the shock inside a unit cube's corners).
    pub final_radius: f64,
    /// Gradient-cost shell half-width (physical units) — sets how far the
    /// compute-cost bump extends around the shock surface.
    pub shell_width: f64,
    /// Refinement margin (physical units): a block is tagged for refinement
    /// when the shock surface passes within this distance of it. Small
    /// margins keep the refined band one block-layer thick, matching
    /// Table I's final block counts.
    pub refine_margin: f64,
    /// Fraction of a block's radial extent that counts toward shell
    /// intersection. At `1.0` a block refines whenever the shock surface
    /// touches it anywhere (the corner-intersection test); smaller values
    /// require the surface to pass nearer the block's radial midpoint,
    /// thinning the refined band. Production AMR tags on gradient
    /// estimators whose support does not grow with block size, so
    /// configurations with smaller blocks (Table I's 2048/4096 rows) need
    /// a sub-unit fraction to match the paper's final block counts; see
    /// `SedovScenario::for_ranks`.
    pub band_fraction: f64,
    /// Nominal per-block compute time (ns). 250 ms timesteps across ~2
    /// blocks/rank put this at O(10⁸) ns in the paper; scale freely.
    pub base_cost_ns: f64,
    /// Peak cost amplification at the shock front.
    pub gradient_amp: f64,
    /// Post-shock (interior) cost boost.
    pub post_shock_boost: f64,
    /// Lognormal σ of the static per-block noise factor.
    pub noise_sigma: f64,
    /// Lognormal σ of the *per-step* kernel noise: solver-iteration
    /// variability the cost model cannot predict (§II-B). Deterministic in
    /// `(octant, step)` so every policy sees the identical workload; it sets
    /// the residual-imbalance floor that even perfect load balancing cannot
    /// remove.
    pub step_noise_sigma: f64,
}

impl SedovConfig {
    /// Reasonable defaults for a given Table I mesh.
    pub fn new(mesh: MeshConfig, total_steps: u64) -> SedovConfig {
        SedovConfig {
            mesh,
            total_steps,
            adapt_interval: 5,
            final_radius: 1.25,
            shell_width: 0.06,
            refine_margin: 0.005,
            band_fraction: 1.0,
            base_cost_ns: 1.0e6,
            gradient_amp: 2.2,
            post_shock_boost: 0.5,
            noise_sigma: 0.2,
            step_noise_sigma: 0.24,
        }
    }

    /// Reject values the cost and radius formulas cannot take: a zero
    /// `shell_width` makes a block centred on the shock cost `0/0 = NaN`
    /// (surfacing steps later as an `InvalidCost` placement error), zero
    /// `total_steps` divides the radius by zero, and a zero `adapt_interval`
    /// would adapt at step 0 only.
    pub fn validate(&self) -> Result<(), String> {
        let positive = [
            ("shell_width", self.shell_width),
            ("base_cost_ns", self.base_cost_ns),
            ("final_radius", self.final_radius),
        ];
        for (name, v) in positive {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("{name} must be finite and > 0 (got {v})"));
            }
        }
        let non_negative = [
            ("refine_margin", self.refine_margin),
            ("gradient_amp", self.gradient_amp),
            ("post_shock_boost", self.post_shock_boost),
            ("noise_sigma", self.noise_sigma),
            ("step_noise_sigma", self.step_noise_sigma),
        ];
        for (name, v) in non_negative {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("{name} must be finite and >= 0 (got {v})"));
            }
        }
        if !(self.band_fraction > 0.0 && self.band_fraction <= 1.0) {
            return Err(format!(
                "band_fraction must be in (0, 1] (got {})",
                self.band_fraction
            ));
        }
        if self.total_steps == 0 {
            return Err("total_steps must be >= 1".to_string());
        }
        if self.adapt_interval == 0 {
            return Err("adapt_interval must be >= 1 (1 checks every step)".to_string());
        }
        Ok(())
    }
}

/// The Sedov workload state.
pub struct SedovWorkload {
    config: SedovConfig,
    mesh: AmrMesh,
    costs: Vec<f64>,
    /// Per block, what a step cannot change: `base_cost_ns · octant_noise`
    /// and the block centre's distance to the blast centre — both pure
    /// functions of the octant, carried across adapts by the fate table.
    factors: Vec<(f64, f64)>,
    /// The retired `factors` buffer, refilled at the next mesh change.
    factors_spare: Vec<(f64, f64)>,
    center: Point,
    current_radius: f64,
    current_step: u64,
    /// Pooled id list of blocks near the shock (spatial prefilter for
    /// tagging: everything else coarsens without per-block distance work).
    active_ids: Vec<BlockId>,
}

impl SedovWorkload {
    /// Initialize the workload (mesh at one block per root, shock at 0).
    ///
    /// # Panics
    /// On a config [`SedovConfig::validate`] rejects; callers holding
    /// untrusted values use [`SedovWorkload::try_new`].
    pub fn new(config: SedovConfig) -> SedovWorkload {
        SedovWorkload::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`SedovWorkload::new`].
    pub fn try_new(config: SedovConfig) -> Result<SedovWorkload, String> {
        config
            .validate()
            .map_err(|e| format!("invalid SedovConfig: {e}"))?;
        let mesh = AmrMesh::new(config.mesh.clone());
        let center = mesh.config().domain.center();
        let mut w = SedovWorkload {
            config,
            mesh,
            costs: Vec::new(),
            factors: Vec::new(),
            factors_spare: Vec::new(),
            center,
            current_radius: 0.0,
            current_step: 0,
            active_ids: Vec::new(),
        };
        w.factors = w.mesh.blocks().iter().map(|b| w.block_factors(b)).collect();
        w.recompute_costs();
        Ok(w)
    }

    /// Shock radius at (0-based) step `s` out of `total_steps`:
    /// Sedov–Taylor `r ∝ t^{2/5}`.
    pub fn radius_at(&self, step: u64) -> f64 {
        let t = (step + 1) as f64 / self.config.total_steps as f64;
        let half_extent = {
            let e = self.mesh.config().domain.extent();
            0.5 * e.x.min(e.y).min(if e.z > 0.0 { e.z } else { e.x })
        };
        self.config.final_radius * half_extent * t.powf(0.4)
    }

    /// Deterministic lognormal noise for an octant: identical across
    /// policies, runs and refinement histories. It keeps the Box–Muller
    /// draw: it is drawn only for the blocks an adapt creates, and its
    /// realization fixes which blocks stay expensive for the whole run.
    fn octant_noise(&self, o: &amr_mesh::Octant) -> f64 {
        let key =
            ((o.level as u64) << 60) ^ ((o.x as u64) << 40) ^ ((o.y as u64) << 20) ^ (o.z as u64);
        lognormal_hash(key, self.config.noise_sigma)
    }

    /// Deterministic per-(octant, step) kernel noise: the unpredictable
    /// solver-iteration component, drawn for every block at every step, so
    /// from the quantile table rather than by Box–Muller.
    fn step_noise(&self, o: &amr_mesh::Octant, step: u64) -> f64 {
        let key = ((o.level as u64) << 58)
            ^ ((o.x as u64) << 39)
            ^ ((o.y as u64) << 20)
            ^ ((o.z as u64) << 1)
            ^ step.rotate_left(17);
        lognormal_table(key, self.config.step_noise_sigma)
    }

    /// The step-invariant pair kept in `factors` for one block.
    fn block_factors(&self, b: &MeshBlock) -> (f64, f64) {
        (
            self.config.base_cost_ns * self.octant_noise(&b.octant),
            b.bounds.center().distance(&self.center),
        )
    }

    /// Bring `factors` to the adapted mesh in one walk over the last
    /// adapt's fates (new ids come out ascending): a surviving block keeps
    /// its pair, a new child or merged parent gets its own computed (the
    /// pair is a function of the octant, not of ancestry). Staged in the
    /// spare buffer and swapped, like `TelemetryCostModel::remap_in_place`.
    fn carry_factors(&mut self) {
        let mut spare = std::mem::take(&mut self.factors_spare);
        spare.clear();
        let blocks = self.mesh.blocks();
        for (old, fate) in self.mesh.last_delta().remap.iter().enumerate() {
            match *fate {
                BlockFate::Same(_) => spare.push(self.factors[old]),
                BlockFate::Refined { first, count } => {
                    let children = &blocks[first.index()..first.index() + count as usize];
                    spare.extend(children.iter().map(|b| self.block_factors(b)));
                }
                // Only the family's first member emits the parent.
                BlockFate::Coarsened(new) if new.index() == spare.len() => {
                    spare.push(self.block_factors(&blocks[new.index()]))
                }
                BlockFate::Coarsened(_) => {}
            }
        }
        self.factors_spare = std::mem::replace(&mut self.factors, spare);
    }

    /// Per-step costs from the kept factors: `step_noise`, the shell `exp`
    /// and one subtraction per block. `(base · octant_noise) · step_noise ·
    /// (1 + shell + post)` associates as the from-scratch product does, so
    /// every cost is bit-identical to it.
    fn recompute_costs(&mut self) {
        let r = self.current_radius;
        let w = self.config.shell_width;
        let cfg = &self.config;
        let step = self.current_step;
        // An exact-size allocation per step on purpose: recycling the buffer
        // was measured and buys no time (EXPERIMENTS §sedov_split).
        self.costs = self
            .mesh
            .blocks()
            .iter()
            .zip(&self.factors)
            .map(|(b, &(scaled_base, d_center))| {
                let d_shell = (d_center - r).abs();
                let shell_term = cfg.gradient_amp * (-(d_shell / w) * (d_shell / w)).exp();
                let post_term = if d_center < r {
                    cfg.post_shock_boost
                } else {
                    0.0
                };
                scaled_base * self.step_noise(&b.octant, step) * (1.0 + shell_term + post_term)
            })
            .collect();
    }

    /// The from-scratch cost vector (nine libm calls and a `sqrt` per
    /// block): the oracle `recompute_costs` must match bit for bit.
    #[cfg(test)]
    fn costs_from_scratch(&self) -> Vec<f64> {
        let r = self.current_radius;
        let w = self.config.shell_width;
        let cfg = &self.config;
        let step = self.current_step;
        self.mesh
            .blocks()
            .iter()
            .map(|b| {
                let d_center = b.bounds.center().distance(&self.center);
                let d_shell = (d_center - r).abs();
                let shell_term = cfg.gradient_amp * (-(d_shell / w) * (d_shell / w)).exp();
                let post_term = if d_center < r {
                    cfg.post_shock_boost
                } else {
                    0.0
                };
                cfg.base_cost_ns
                    * self.octant_noise(&b.octant)
                    * self.step_noise(&b.octant, step)
                    * (1.0 + shell_term + post_term)
            })
            .collect()
    }

    /// Adapt the mesh to the current shock position. Returns whether the
    /// mesh changed.
    fn adapt_mesh(&mut self) -> bool {
        let r = self.current_radius;
        let w = self.config.refine_margin;
        let band = self.config.band_fraction;
        let center = self.center;
        let max_level = self.config.mesh.max_level;
        // Spatial prefilter: only blocks inside the cube circumscribing the
        // outer hysteresis shell (radius r + 2w) need distance tests. A block
        // disjoint from that cube is disjoint from the inscribed ball, so its
        // dmin exceeds r + 2w — not on the shell AND clearly ahead of it —
        // which tags Coarsen (or Keep at level 0) without any geometry.
        let reach = r + 2.0 * w;
        let region = Aabb::new(
            Point::new(center.x - reach, center.y - reach, center.z - reach),
            Point::new(center.x + reach, center.y + reach, center.z + reach),
        );
        self.mesh
            .blocks_in_region_into(&region, &mut self.active_ids);
        let active = &self.active_ids;
        self.mesh
            .adapt(|b| {
                if active.binary_search(&b.id).is_err() {
                    return if b.level() > 0 {
                        RefineTag::Coarsen
                    } else {
                        RefineTag::Keep
                    };
                }
                let dmin = b.bounds.distance_to_point(&center);
                let dmax = b.bounds.max_distance_to_point(&center);
                // `dmin <= r + w && dmax >= r - w` rewritten around the
                // block's radial midpoint, with the block-extent term scaled
                // by `band_fraction` (1.0 reproduces the corner test; less
                // demands the surface pass nearer the midpoint).
                let mid = 0.5 * (dmin + dmax);
                let half_band = 0.5 * band * (dmax - dmin);
                let intersects_shell = (mid - r).abs() <= half_band + w;
                if intersects_shell && b.level() < max_level {
                    RefineTag::Refine
                } else if !intersects_shell && b.level() > 0 {
                    // Hysteresis: only coarsen when clearly away from the
                    // shell — the same midpoint form at double margin (at
                    // `band_fraction` 1.0 this is exactly the legacy
                    // corner test `dmin > r + 2w || dmax < r - 2w`).
                    let clear = (mid - r).abs() > half_band + 2.0 * w;
                    if clear {
                        RefineTag::Coarsen
                    } else {
                        RefineTag::Keep
                    }
                } else {
                    RefineTag::Keep
                }
            })
            .changed()
    }

    /// Attach (or detach) a trace handle to the workload's mesh, so its
    /// adapts and the graph repairs driven off its deltas publish spans and
    /// counters; see [`AmrMesh::set_trace`]. Observes only.
    pub fn set_trace(&mut self, trace: Option<TraceHandle>) {
        self.mesh.set_trace(trace);
    }

    /// Current shock radius (after the last `advance`).
    pub fn current_radius(&self) -> f64 {
        self.current_radius
    }
}

impl Workload for SedovWorkload {
    fn mesh(&self) -> &AmrMesh {
        &self.mesh
    }

    fn advance(&mut self, step: u64) -> WorkloadStep {
        self.current_step = step;
        self.current_radius = self.radius_at(step);
        let mesh_changed = step.is_multiple_of(self.config.adapt_interval) && self.adapt_mesh();
        if mesh_changed {
            self.carry_factors();
        }
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

    fn small() -> SedovConfig {
        let mut c = SedovConfig::new(MeshConfig::from_cells(Dim::D3, (64, 64, 64), 1), 100);
        c.shell_width = 0.08;
        c
    }

    /// `small()` with the stochastic factors disabled, for geometry checks.
    fn small_noiseless() -> SedovConfig {
        let mut c = small();
        c.noise_sigma = 1e-9;
        c.step_noise_sigma = 1e-9;
        c
    }

    #[test]
    fn starts_with_one_block_per_root() {
        let w = SedovWorkload::new(small());
        assert_eq!(w.mesh().num_blocks(), 64);
        assert_eq!(w.block_compute_ns().len(), 64);
    }

    #[test]
    fn shock_radius_grows_as_t_to_two_fifths() {
        let w = SedovWorkload::new(small());
        let r10 = w.radius_at(9);
        let r99 = w.radius_at(99);
        assert!(r10 < r99);
        // r(t)/r(T) = (t/T)^0.4
        let expect = (10.0f64 / 100.0).powf(0.4);
        assert!((r10 / r99 - expect).abs() < 1e-9);
    }

    #[test]
    fn blocks_grow_and_shrink_as_shock_sweeps() {
        let mut w = SedovWorkload::new(small());
        let initial = w.mesh().num_blocks();
        let mut peak = initial;
        let mut changes = 0;
        for step in 0..100 {
            let before = w.mesh().num_blocks();
            let ws = w.advance(step);
            if ws.mesh_changed {
                changes += 1;
                assert!(w.mesh().last_delta().maps(before, w.mesh().num_blocks()));
                w.mesh().check_invariants().unwrap();
            }
            peak = peak.max(w.mesh().num_blocks());
        }
        assert!(changes > 2, "only {changes} mesh changes");
        assert!(peak > initial, "mesh never refined");
        // After the shock passes, trailing blocks coarsen: final < peak.
        assert!(w.mesh().num_blocks() <= peak);
    }

    #[test]
    fn costs_peak_at_shock_front() {
        let mut w = SedovWorkload::new(small_noiseless());
        // Advance mid-run so the shock is inside the domain.
        for step in 0..50 {
            w.advance(step);
        }
        let r = w.current_radius();
        assert!(r > 0.05 && r < 0.9);
        // Blocks near the shell should be the most expensive ones
        // (modulo the lognormal noise: compare averages).
        let center = w.mesh().config().domain.center();
        let (mut near_sum, mut near_n, mut far_sum, mut far_n) = (0.0, 0, 0.0, 0);
        for (b, &c) in w.mesh().blocks().iter().zip(w.block_compute_ns()) {
            let d = (b.bounds.center().distance(&center) - r).abs();
            if d < w.config.shell_width {
                near_sum += c;
                near_n += 1;
            } else if d > 2.0 * w.config.shell_width {
                far_sum += c;
                far_n += 1;
            }
        }
        assert!(near_n > 0 && far_n > 0);
        assert!(
            near_sum / near_n as f64 > 1.5 * far_sum / far_n as f64,
            "no cost peak at the shock"
        );
    }

    #[test]
    fn costs_identical_across_instances() {
        // The deterministic-noise invariant: two instances advanced the same
        // way have identical cost vectors (the Fig. 6a flat-compute check).
        let mut a = SedovWorkload::new(small());
        let mut b = SedovWorkload::new(small());
        for step in 0..30 {
            a.advance(step);
            b.advance(step);
        }
        assert_eq!(a.block_compute_ns(), b.block_compute_ns());
    }

    /// Advance `w` to the end; at every step the cost vector equals the
    /// from-scratch product bit for bit, and after every mesh change the kept
    /// table equals a freshly computed one (so a wrong carry cannot hide
    /// behind equal noise). Returns the number of mesh changes.
    fn assert_kept_factors_exact(mut w: SedovWorkload) -> usize {
        let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<u64>>();
        let mut changes = 0;
        for step in 0..w.total_steps() {
            let ws = w.advance(step);
            assert_eq!(
                bits(w.block_compute_ns()),
                bits(&w.costs_from_scratch()),
                "step {step}"
            );
            if ws.mesh_changed {
                changes += 1;
                let fresh: Vec<(f64, f64)> =
                    w.mesh.blocks().iter().map(|b| w.block_factors(b)).collect();
                assert_eq!(w.factors.len(), fresh.len(), "step {step}");
                for (kept, fresh) in w.factors.iter().zip(&fresh) {
                    assert_eq!(kept.0.to_bits(), fresh.0.to_bits(), "step {step}");
                    assert_eq!(kept.1.to_bits(), fresh.1.to_bits(), "step {step}");
                }
            }
        }
        changes
    }

    #[test]
    fn kept_factors_are_bit_identical_to_from_scratch_costs() {
        // The benchmark's run: Table I at 512 ranks, every step of it.
        let table1 = crate::scenarios::SedovScenario::for_ranks(512, 200).workload();
        assert_eq!(table1.total_steps(), 152);
        assert_eq!(assert_kept_factors_exact(table1), 23);
        assert!(assert_kept_factors_exact(SedovWorkload::new(small())) > 2);
    }

    /// Delegates to a Sedov workload, counting the blocks its adapts create.
    struct CountCreated {
        inner: SedovWorkload,
        created: u64,
        rows: u64,
    }

    impl Workload for CountCreated {
        fn mesh(&self) -> &AmrMesh {
            self.inner.mesh()
        }
        fn advance(&mut self, step: u64) -> WorkloadStep {
            let ws = self.inner.advance(step);
            if ws.mesh_changed {
                let d = self.inner.mesh().last_delta();
                let merged = d.remap.chunk_by(|a, b| a == b);
                let merged = merged.filter(|run| matches!(run[0], BlockFate::Coarsened(_)));
                self.created += (d.new_child_ids().count() + merged.count()) as u64;
                self.rows += d.blocks_after as u64;
            }
            ws
        }
        fn block_compute_ns(&self) -> &[f64] {
            self.inner.block_compute_ns()
        }
        fn total_steps(&self) -> u64 {
            self.inner.total_steps()
        }
    }

    /// Over a traced Table-I run whose mesh keeps its graph, the graph
    /// repairs probe exactly the blocks the adapts created — no surviving
    /// block is probed — and tracing the mesh and the simulator moves no bit
    /// of the result.
    #[test]
    fn traced_run_probes_only_created_blocks_and_matches_untraced() {
        use amr_core::policies::Cplx;
        use amr_core::trigger::RebalanceTrigger;
        use amr_sim::{MacroSim, SimConfig};
        use amr_telemetry::trace::Counter;
        let run = |trace: Option<TraceHandle>| {
            let mut inner = crate::scenarios::SedovScenario::for_ranks(512, 200).workload();
            inner.set_trace(trace.clone());
            inner.mesh().neighbor_graph();
            let mut w = CountCreated {
                inner,
                created: 0,
                rows: 0,
            };
            let mut sim = MacroSim::new(SimConfig::tuned(512));
            sim.set_trace(trace);
            let report = sim.run(&mut w, &Cplx::new(50), RebalanceTrigger::OnMeshChange);
            (report, w.created, w.rows)
        };
        let handle = TraceHandle::new(1 << 12);
        let (traced, created, rows) = run(Some(handle.clone()));
        let (plain, _, _) = run(None);
        // Redistribution charges placement wall-clock; everything else is
        // virtual and must not move.
        let virt = |r: &amr_sim::RunReport| {
            let p = &r.phases;
            [p.compute_ns, p.comm_ns, p.sync_ns].map(f64::to_bits)
        };
        assert_eq!(virt(&traced), virt(&plain));
        assert_eq!(traced.messages, plain.messages);
        assert_eq!(traced.final_blocks, plain.final_blocks);
        let m = handle.metrics();
        assert_eq!(m.counter(Counter::GraphPatches), traced.mesh_change_steps);
        assert_eq!(m.counter(Counter::GraphPatchFallbacks), 0);
        assert!(created > 0);
        // Probed: the rows of the one full build before the run, then only
        // the blocks each adapt created.
        assert_eq!(m.counter(Counter::GraphFullBuilds), 1);
        let initial = traced.initial_blocks as u64;
        assert_eq!(m.counter(Counter::GraphRowsProbed), initial + created);
        assert_eq!(m.counter(Counter::GraphRowsInherited), rows - created);
    }

    #[test]
    fn degenerate_configs_are_rejected_field_by_field() {
        type Edit = fn(&mut SedovConfig);
        let rejected: [(&str, Edit); 16] = [
            ("shell_width", |c| c.shell_width = 0.0),
            ("shell_width", |c| c.shell_width = f64::NAN),
            ("base_cost_ns", |c| c.base_cost_ns = -1.0),
            ("base_cost_ns", |c| c.base_cost_ns = f64::INFINITY),
            ("final_radius", |c| c.final_radius = 0.0),
            ("refine_margin", |c| c.refine_margin = -0.001),
            ("gradient_amp", |c| c.gradient_amp = f64::NAN),
            ("post_shock_boost", |c| c.post_shock_boost = -0.5),
            ("noise_sigma", |c| c.noise_sigma = -0.2),
            ("noise_sigma", |c| c.noise_sigma = f64::INFINITY),
            ("step_noise_sigma", |c| c.step_noise_sigma = f64::NAN),
            ("band_fraction", |c| c.band_fraction = 0.0),
            ("band_fraction", |c| c.band_fraction = 1.5),
            ("band_fraction", |c| c.band_fraction = f64::NAN),
            ("total_steps", |c| c.total_steps = 0),
            ("adapt_interval", |c| c.adapt_interval = 0),
        ];
        for (field, edit) in rejected {
            let mut c = small();
            edit(&mut c);
            let err = c.validate().expect_err(field);
            assert!(err.starts_with(field), "{field}: {err}");
            let err = SedovWorkload::try_new(c).err().expect(field);
            assert!(err.starts_with("invalid SedovConfig: "), "{err}");
        }
        // Boundary values that are fine: no noise, no bump, a full band.
        let mut c = small();
        (c.noise_sigma, c.step_noise_sigma, c.gradient_amp) = (0.0, 0.0, 0.0);
        (c.refine_margin, c.post_shock_boost, c.adapt_interval) = (0.0, 0.0, 1);
        c.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "invalid SedovConfig: shell_width must be finite and > 0")]
    fn new_panics_with_the_validation_message() {
        let mut c = small();
        c.shell_width = 0.0;
        SedovWorkload::new(c);
    }

    #[test]
    fn every_table1_scenario_validates() {
        for scale in [1, 50, 200, 100_000] {
            for s in crate::scenarios::SedovScenario::all(scale) {
                s.config.validate().unwrap();
            }
        }
    }

    /// AS241 against Φ(z) for z = 0, 1, 2, 3 (Φ to 16 digits), and the
    /// table's entries at those cells and at its symmetric ends.
    #[test]
    fn quantiles_match_known_normal_quantiles() {
        let phi = [
            (0.0, 0.5),
            (1.0, 0.841_344_746_068_542_9),
            (2.0, 0.977_249_868_051_820_8),
            (3.0, 0.998_650_101_968_369_9),
        ];
        for (z, p) in phi {
            assert!((inverse_normal_cdf(p) - z).abs() < 1e-9, "z = {z}");
            assert!((inverse_normal_cdf(1.0 - p) + z).abs() < 1e-9, "z = -{z}");
        }
        // Far tail (the E/F branch): Φ(−7) = 1.279812543885835e-12.
        assert!((inverse_normal_cdf(1.279_812_543_885_835e-12) + 7.0).abs() < 1e-9);
        let t = normal_quantiles();
        assert_eq!(t[QUANTILE_CELLS / 2], 0.0);
        for k in 1..QUANTILE_CELLS {
            assert!(t[k - 1] < t[k], "not ascending at {k}");
            assert_eq!(t[k], -t[QUANTILE_CELLS - k], "not symmetric at {k}");
        }
        assert_eq!(t[0], inverse_normal_cdf(0.5 / QUANTILE_CELLS as f64));
        assert!((t[0] + 3.668).abs() < 1e-3, "{}", t[0]);
    }

    /// Under the table's piecewise-linear distribution (each cell equally
    /// likely, the deviate uniform between its two quantiles), `exp(σz)` has
    /// the analytic lognormal's mean and variance within 1e-3 at σ = 0.24.
    #[test]
    fn table_lognormal_matches_analytic_moments() {
        let sigma: f64 = 0.24;
        let t = normal_quantiles();
        // E[exp(s·z)] over the table: each cell's exact mean of an
        // exponential of a linear function.
        let moment = |s: f64| {
            let sum: f64 = t
                .windows(2)
                .map(|w| ((s * w[1]).exp() - (s * w[0]).exp()) / (s * (w[1] - w[0])))
                .sum();
            sum / QUANTILE_CELLS as f64
        };
        let (mean, second) = (moment(sigma), moment(2.0 * sigma));
        let var = second - mean * mean;
        let s2 = sigma * sigma;
        let (exact_mean, exact_var) = ((s2 / 2.0).exp(), (s2.exp() - 1.0) * s2.exp());
        assert!((mean - exact_mean).abs() < 1e-3, "{mean} vs {exact_mean}");
        assert!((var - exact_var).abs() < 1e-3, "{var} vs {exact_var}");
    }

    #[test]
    fn step_noise_is_deterministic_per_octant_and_step() {
        let w = SedovWorkload::new(small());
        let o = amr_mesh::Octant::new(2, 1, 2, 3);
        assert_eq!(w.step_noise(&o, 7).to_bits(), w.step_noise(&o, 7).to_bits());
        let draws: Vec<f64> = (0..64).map(|s| w.step_noise(&o, s)).collect();
        for (s, d) in draws.iter().enumerate() {
            assert!(*d > 0.0 && d.is_finite(), "step {s}: {d}");
        }
        let mut distinct = draws.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), draws.len(), "two steps drew the same noise");
        let o2 = amr_mesh::Octant::new(2, 1, 2, 2);
        assert_ne!(w.step_noise(&o, 7), w.step_noise(&o2, 7));
    }

    #[test]
    fn noise_is_per_octant_deterministic() {
        let w = SedovWorkload::new(small());
        let o = amr_mesh::Octant::new(2, 1, 2, 3);
        assert_eq!(w.octant_noise(&o), w.octant_noise(&o));
        let o2 = amr_mesh::Octant::new(2, 1, 2, 2);
        assert_ne!(w.octant_noise(&o), w.octant_noise(&o2));
        // Lognormal: strictly positive.
        assert!(w.octant_noise(&o) > 0.0);
    }
}
