//! Delegating wrappers around the two traits the simulator and the service
//! call back through. They are how the benchmark sees inside `MacroSim::run`
//! and `Service::drain` from outside: the library is handed a policy and a
//! workload that time themselves.

use crate::spans;
use amr_core::engine::{PlacementCtx, PlacementError, PlacementReport};
use amr_core::{Placement, PlacementPolicy};
use amr_mesh::AmrMesh;
use amr_sim::{Workload, WorkloadStep};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Time inside `PlacementPolicy::place_into`, accumulated by [`TimedPolicy`].
/// Always on — traced or not — because `place_ms` is an end-to-end metric.
/// Relaxed atomics (statistics that publish no other data) make the wrapper
/// `Send + Sync`, which `amr-service` requires of a session's policy.
#[derive(Debug, Default)]
pub struct PlaceStats {
    ns: AtomicU64,
    calls: AtomicU64,
    max_ns: AtomicU64,
    hash: AtomicU64,
    invalid: AtomicU64,
}

/// A copy of [`PlaceStats`] taken after a pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlaceSnapshot {
    pub ns: u64,
    pub calls: u64,
    pub max_ns: u64,
    /// Chained hash of every placement vector produced, in call order.
    pub hash: u64,
    /// Placements that failed, missed a block, or named a rank `>= ranks`.
    pub invalid: u64,
}

impl PlaceStats {
    pub fn snapshot(&self) -> PlaceSnapshot {
        PlaceSnapshot {
            ns: self.ns.load(Relaxed),
            calls: self.calls.load(Relaxed),
            max_ns: self.max_ns.load(Relaxed),
            hash: self.hash.load(Relaxed),
            invalid: self.invalid.load(Relaxed),
        }
    }
}

/// `inner`, with every `place_into` timed (two `Instant::now()`), counted,
/// spanned as `core.place_into`, and its output folded into a hash.
pub struct TimedPolicy<P> {
    inner: P,
    stats: Arc<PlaceStats>,
}

impl<P> TimedPolicy<P> {
    pub fn new(inner: P, stats: Arc<PlaceStats>) -> TimedPolicy<P> {
        TimedPolicy { inner, stats }
    }
}

impl<P: PlacementPolicy> PlacementPolicy for TimedPolicy<P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn place_into(
        &self,
        ctx: &PlacementCtx,
        out: &mut Placement,
    ) -> Result<PlacementReport, PlacementError> {
        let result = {
            let _span = spans::span("core.place_into");
            let t = Instant::now();
            let result = self.inner.place_into(ctx, out);
            let ns = t.elapsed().as_nanos() as u64;
            self.stats.ns.fetch_add(ns, Relaxed);
            self.stats.calls.fetch_add(1, Relaxed);
            self.stats.max_ns.fetch_max(ns, Relaxed);
            result
        };
        let ranks = ctx.num_ranks() as u32;
        let valid = result.is_ok()
            && out.num_blocks() == ctx.costs().len()
            && out.as_slice().iter().all(|&r| r < ranks);
        if valid {
            let h = hash_u32s(self.stats.hash.load(Relaxed), out.as_slice());
            self.stats.hash.store(h, Relaxed);
        } else {
            self.stats.invalid.fetch_add(1, Relaxed);
        }
        result
    }
}

/// `inner`, with `advance` spanned as `workloads.advance` and counted.
pub struct TimedWorkload<W> {
    inner: W,
    pub advance_calls: u64,
}

impl<W> TimedWorkload<W> {
    pub fn new(inner: W) -> TimedWorkload<W> {
        TimedWorkload {
            inner,
            advance_calls: 0,
        }
    }
}

impl<W: Workload> Workload for TimedWorkload<W> {
    fn mesh(&self) -> &AmrMesh {
        self.inner.mesh()
    }
    fn advance(&mut self, step: u64) -> WorkloadStep {
        let _span = spans::span("workloads.advance");
        self.advance_calls += 1;
        self.inner.advance(step)
    }
    fn block_compute_ns(&self) -> &[f64] {
        self.inner.block_compute_ns()
    }
    fn total_steps(&self) -> u64 {
        self.inner.total_steps()
    }
}

/// One step of the FNV-1a-style fold every fingerprint here is built from
/// (not collision-hardened: it only has to notice a changed output).
pub fn fold(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01B3)
}

/// Fold of `words` onto `seed` (chains one placement vector after another).
pub fn hash_u32s(seed: u64, words: &[u32]) -> u64 {
    words.iter().fold(seed, |h, &w| fold(h, w as u64))
}

/// The same fold over bytes, eight at a time (encoded telemetry is ~10 MB).
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    let mut h = bytes.len() as u64;
    for c in &mut chunks {
        h = fold(
            h,
            u64::from_le_bytes(c.try_into().expect("chunks_exact(8)")),
        );
    }
    chunks.remainder().iter().fold(h, |h, &b| fold(h, b as u64))
}
