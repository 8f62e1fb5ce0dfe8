//! # amr-telemetry — structured, queryable performance telemetry
//!
//! The paper's Lesson 4: *diagnosis needs structured, queryable telemetry*.
//! Its authors evolved from TAU profiles → CSV + pandas → custom binary
//! formats → SQL over ClickHouse (§IV-C). This crate implements the endpoint
//! of that evolution, sized for a single-process simulator:
//!
//! * a fixed, typed event schema ([`record`]) keyed by
//!   `(timestep, rank, block, phase)` — the dimensions the paper's queries
//!   group by;
//! * an in-memory **columnar** store ([`table`]) — struct-of-arrays, cheap
//!   scans, no per-row allocation — that every layer moves a column at a
//!   time: the [`collector`] appends one column per (step, phase) and seals
//!   each step rank-major, and the codec, views and queries read the typed
//!   column slices;
//! * a whole-column binary codec plus CSV interop ([`codec`]) — mirroring
//!   the paper's move from plaintext to binary formats when parsing became
//!   the bottleneck — and the one wire format a table has;
//! * zone maps with predicate pushdown ([`chunked`]) — per-chunk min/max
//!   statistics folded over row ranges of a table the store borrows, so a
//!   scan skips whole chunks and copies nothing;
//! * a small relational-style query layer ([`query`]) with filters,
//!   group-bys and aggregates (sum/mean/max/percentiles);
//! * statistics ([`stats`]) including Pearson correlation — the paper's
//!   measure of telemetry reliability (Fig. 1a) — and
//! * anomaly detectors ([`anomaly`]) for the cross-stack failure modes of
//!   §IV: throttled node clusters, MPI_Wait spikes, variance regimes;
//! * a structured span-tracing and metrics layer ([`trace`]) — one `Send`
//!   recorder ([`TraceHandle`]) over pooled ring-buffer span lanes
//!   ([`lane`]) and a fixed phase taxonomy, with Chrome-trace and
//!   flamegraph exporters, so phase attribution is auditable rather than
//!   asserted.

#![forbid(unsafe_code)]

pub mod anomaly;
pub mod chunked;
pub mod codec;
pub mod collector;
pub mod histogram;
pub mod lane;
pub mod query;
pub mod record;
pub mod stats;
pub mod table;
pub mod trace;
pub mod views;

pub use anomaly::{ThrottleReport, WaitSpikeReport};
pub use chunked::{ChunkedStore, Predicate};
pub use collector::Collector;
pub use histogram::LogHistogram;
pub use lane::WorkerLane;
pub use query::{Query, QuerySummary};
pub use record::{EventRecord, Phase, NO_BLOCK};
pub use table::EventTable;
pub use trace::{Metrics, SpanRecord, TraceHandle, TracePhase};
