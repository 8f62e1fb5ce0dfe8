//! # amr-tools
//!
//! Facade crate for the `amr-tools` workspace: a from-scratch Rust
//! reproduction of *"Lessons from Profiling and Optimizing Placement in AMR
//! Codes"* (CLUSTER 2025).
//!
//! The workspace provides:
//!
//! * [`mesh`] — octree-based block-structured AMR meshes with Z-order SFCs,
//!   2:1-balanced refinement and 26-neighbor topology.
//! * [`placement`] — the paper's contribution: the baseline SFC policy, LPT,
//!   CDP, chunked CDP and the tunable CPLX hybrid, plus cost models,
//!   critical-path analysis and an exact reference solver.
//! * [`sim`] — a cluster simulator, step-level for whole runs and
//!   message-level for single exchange rounds, with fault injection
//!   (thermal throttling, ACK-loss recovery stalls, shared-memory queue
//!   contention).
//! * [`service`] — placement-as-a-service: many concurrent placement
//!   sessions batched over the worker pool, with a warm-engine LRU keyed by
//!   mesh fingerprint and the telemetry query engine behind the same API.
//! * [`telemetry`] — structured, columnar, queryable performance telemetry.
//! * [`workloads`] — Sedov-blast-wave-style refinement drivers and synthetic
//!   cost distributions.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use amr_core as placement;
pub use amr_mesh as mesh;
pub use amr_service as service;
pub use amr_sim as sim;
pub use amr_telemetry as telemetry;
pub use amr_workloads as workloads;
