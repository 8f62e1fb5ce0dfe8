//! # amr-workloads — workload generators for AMR placement studies
//!
//! Everything the paper's evaluation runs on, rebuilt synthetically:
//!
//! * [`sedov`] — a Sedov–Taylor blast-wave driver: an analytic spherical
//!   shock front (`r(t) ∝ t^{2/5}`) sweeps the domain, tagging blocks near
//!   the front for refinement and inflating their compute costs (steep
//!   gradients ⇒ more solver iterations, §II-B). Reproduces the Table I
//!   block-growth dynamics and drives Fig. 6.
//! * [`cooling`] — a low-variability "galaxy cooling"-style workload: the
//!   paper notes such codes benefit less from placement (§VI).
//! * [`distributions`] — seeded samplers for the `scalebench` cost
//!   distributions (exponential, Gaussian, power-law; §VI-C), hand-rolled on
//!   `rand` to avoid an extra dependency.
//! * [`scenarios`] — the Table I problem configurations (512–4096 ranks)
//!   with scaled-down step counts for laptop-speed reproduction.
//! * [`exchange`] — helpers turning a mesh + placement into the explicit
//!   per-round message list `commbench` feeds the micro-simulator.

#![forbid(unsafe_code)]

pub mod cooling;
pub mod distributions;
pub mod exchange;
pub mod interface;
pub mod meshgen;
pub mod scenarios;
pub mod sedov;

pub use cooling::CoolingWorkload;
pub use distributions::CostDistribution;
pub use interface::{InterfaceConfig, InterfaceWorkload};
pub use meshgen::{large_refined_mesh, random_refined_mesh};
pub use scenarios::SedovScenario;
pub use sedov::{SedovConfig, SedovWorkload};
