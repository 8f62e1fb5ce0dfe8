//! # amr-core — telemetry-driven placement policies for block-structured AMR
//!
//! The primary contribution of *"Lessons from Profiling and Optimizing
//! Placement in AMR Codes"* (CLUSTER 2025): placement policies that map mesh
//! blocks to ranks balancing **compute load** against **communication
//! locality**, under a strict computation budget (< 50 ms per redistribution
//! in the paper's target codes).
//!
//! Policies (§V):
//!
//! * [`policies::Baseline`] — contiguous SFC ranges with balanced block
//!   *counts* (what production AMR codes ship today);
//! * [`policies::Lpt`] — Longest-Processing-Time-first greedy makespan
//!   minimization, ignoring locality (4/3-optimal, Graham 1969);
//! * [`policies::Cdp`] — Contiguous-DP: optimal makespan among contiguous
//!   (locality-preserving) partitions with chunk sizes ⌊n/r⌋/⌈n/r⌉;
//! * [`policies::ChunkedCdp`] — the paper's hierarchically chunked CDP for
//!   large rank counts (chunks solved in sequence here);
//! * [`policies::Cplx`] — the tunable hybrid: CDP placement, then LPT
//!   rebalancing of the `X%` most-over/under-loaded ranks. `X=0` ≡ CDP,
//!   `X=100` ≡ LPT.
//!
//! Supporting machinery:
//!
//! * [`placement`] — the placement type, validation, and quality metrics
//!   (makespan, imbalance, locality/migration accounting);
//! * [`cost`] — the telemetry-driven per-block cost model (§V-A3: "we populate
//!   the existing cost specification hooks with actual computation costs
//!   measured via telemetry");
//! * [`engine`] — the zero-allocation placement engine: the context-threaded
//!   [`policies::PlacementPolicy::place_into`] API, reusable
//!   [`engine::Scratch`] buffers, and incremental rebalance with migration
//!   accounting ([`engine::PlacementEngine`]);
//! * [`exact`] — a branch-and-bound exact makespan solver, standing in for
//!   the paper's commercial ILP reference (§V-B);
//! * [`critical_path`] — the §IV-D critical-path model of execution between
//!   synchronization points, including the two-rank theorem;
//! * [`trigger`] — redistribution trigger policies.

pub mod assess;
pub mod cost;
pub mod critical_path;
pub mod engine;
pub mod exact;
pub mod placement;
pub mod policies;
pub mod reorder;
pub mod traffic;
pub mod trigger;

pub use assess::{AssessmentInputs, PlacementAssessment};
pub use cost::TelemetryCostModel;
pub use engine::{
    MeshFingerprint, MigrationStats, PlacementCtx, PlacementEngine, PlacementError,
    PlacementReport, Scratch,
};
pub use placement::{LocalityStats, Placement, RankId};
pub use policies::{Baseline, Cdp, ChunkedCdp, Cplx, Lpt, Multilevel, PlacementPolicy};
pub use traffic::TrafficMatrix;
pub use trigger::RebalanceTrigger;
