//! The repo benchmark's library half: the run protocol, the estimators, the
//! span recorder and the four workloads. `main.rs` is the command line over
//! it; `tests/` hold it to `BENCHMARK.json` and to the stable-API allow-list
//! (see `README.md`).

pub mod harness;
pub mod host;
pub mod metrics;
pub mod report;
pub mod spans;
pub mod stats;
pub mod timed;
pub mod workloads;
