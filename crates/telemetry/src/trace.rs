//! Structured span tracing and step metrics: the auditable phase attribution
//! the paper's placement lessons depend on.
//!
//! The 35–50% synchronization fraction of Fig. 6a is *the* signal placement
//! optimizes against; if wait time is mis-attributed, every policy comparison
//! silently inherits the error. Production AMR frameworks answer this with
//! built-in per-region timers (Parthenon's kernel regions are the closest
//! cousin); this module is the simulator-sized equivalent:
//!
//! * [`TraceHandle`] — the one recorder. A cloneable, `Send + Sync` handle
//!   over plain data behind one mutex: the owner's span lane (a
//!   [`WorkerLane`] with id 0), the worker lanes (ids `1..`), the step tag
//!   and a [`Metrics`] block. Macrosim, the placement engine and the mesh
//!   adapt path each hold a clone and publish into the same state.
//! * [`Metrics`] — fixed-slot counters and gauges plus a per-phase
//!   [`LogHistogram`]; plain data whose writers take `&mut self`. The
//!   handle owns one; the simulator's always-on feedback plane owns another
//!   with no lock at all.
//! * [`TracedSpan`] — the RAII guard over the fixed phase taxonomy
//!   ([`TracePhase`]): on drop it records the span and observes its
//!   duration into the phase histogram under one lock.
//! * Exporters to Chrome trace-event JSON ([`chrome_trace_json`], load in
//!   `chrome://tracing` / Perfetto) and collapsed-stack format
//!   ([`collapsed_stacks`], feed to `flamegraph.pl`).
//!
//! **Locking rule** (DESIGN.md §12). Every record takes the lock once, for a
//! few stores, and never while caller code runs: a parallel region checks
//! the worker lanes *out* of the state ([`TraceHandle::with_lanes_mut`]),
//! hands each task its own `&mut WorkerLane` — workers record lock-free, the
//! owner lane stays recordable meanwhile — and puts them back afterwards.
//! The lock is poison-tolerant, so a recorder that panicked never turns
//! later records into panics. Steady-state recording is allocation-free:
//! rings are sized once and old spans are overwritten, never reallocated
//! (proved in this crate's `zero_alloc` test).
//!
//! Spans carry a [`Track`]: `Host` spans are wall-clock measurements of the
//! simulator's own work (placement, graph patching, remeshing); `Virtual`
//! spans replay simulated time (exchanges, collectives). Tracing observes and
//! never perturbs — a traced run's virtual timeline is bit-identical to an
//! untraced one (pinned by a property test in `tests/sim_properties.rs`).

use crate::histogram::LogHistogram;
use crate::lane::WorkerLane;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Fixed phase taxonomy for spans and per-phase histograms. Fixed (rather
/// than string-keyed) so recording is a branch-free array index and the
/// steady-state path never hashes or allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum TracePhase {
    /// Mesh adaptation: tag, refine/coarsen, delta production.
    Remesh,
    /// Splicing the block index after an adapt (keys/blocks arrays).
    SpliceIndex,
    /// Incremental CSR neighbor-graph repair (or the full-build fallback).
    GraphPatch,
    /// Placement computation (policy run + migration diff) in the engine.
    Place,
    /// Boundary exchange (ghost zones + flux correction), virtual time.
    Exchange,
    /// The per-step blocking allreduce, virtual time.
    Collective,
    /// Online fault response: detector observe + reweight/prune actions.
    FaultResponse,
}

impl TracePhase {
    /// Number of phases (array sizes, iteration bounds).
    pub const COUNT: usize = 7;

    /// All phases, in declaration order.
    pub const ALL: [TracePhase; TracePhase::COUNT] = [
        TracePhase::Remesh,
        TracePhase::SpliceIndex,
        TracePhase::GraphPatch,
        TracePhase::Place,
        TracePhase::Exchange,
        TracePhase::Collective,
        TracePhase::FaultResponse,
    ];

    /// Stable snake_case name (used by both exporters).
    pub fn name(self) -> &'static str {
        match self {
            TracePhase::Remesh => "remesh",
            TracePhase::SpliceIndex => "splice_index",
            TracePhase::GraphPatch => "graph_patch",
            TracePhase::Place => "place",
            TracePhase::Exchange => "exchange",
            TracePhase::Collective => "collective",
            TracePhase::FaultResponse => "fault_response",
        }
    }

    /// Dense index for per-phase arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Which clock a span was measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Track {
    /// Host wall-clock: real time the simulator spent doing the work.
    Host,
    /// Simulated virtual time replayed from the cost model.
    Virtual,
}

impl Track {
    pub fn name(self) -> &'static str {
        match self {
            Track::Host => "host",
            Track::Virtual => "virtual",
        }
    }
}

/// One completed span. `Copy` so the ring buffer overwrites slots in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    pub phase: TracePhase,
    pub track: Track,
    /// Simulation step active when the span closed.
    pub step: u32,
    /// Recording lane: 0 for the sink's owning thread, `1..` for worker
    /// lanes (see [`crate::lane::WorkerLane`]).
    pub lane: u16,
    /// Start time in ns — host spans measure from the sink's epoch, virtual
    /// spans carry simulated-time offsets.
    pub start_ns: u64,
    pub dur_ns: u64,
}

impl Default for SpanRecord {
    fn default() -> SpanRecord {
        SpanRecord {
            phase: TracePhase::Remesh,
            track: Track::Host,
            step: 0,
            lane: 0,
            start_ns: 0,
            dur_ns: 0,
        }
    }
}

/// Fixed counter slots published by the instrumented pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Counter {
    /// Simulation steps executed.
    Steps,
    /// Mesh adapt calls (including no-ops).
    Adapts,
    /// Adapt calls whose changeset was the identity.
    NoopAdapts,
    /// Blocks created by refinement.
    BlocksRefined,
    /// Blocks removed by coarsening merges.
    BlocksCoarsened,
    /// Incremental CSR neighbor-graph repairs.
    GraphPatches,
    /// Full neighbor-graph rebuild fallbacks.
    GraphFullBuilds,
    /// Patch entry points that silently degraded to a full rebuild because
    /// the stored delta could not vouch for the caller's graph (identity,
    /// stale, or block-count mismatch). A nonzero value in a steady-state
    /// sharded/incremental run is a patching regression, not just slowness.
    GraphPatchFallbacks,
    /// CSR rows a graph repair carried over from a surviving block's old row
    /// (renumbered through the fate table, no mesh probe).
    GraphRowsInherited,
    /// CSR rows a graph repair probed the mesh for (new children, merged
    /// parents). More than the blocks the adapts created means surviving
    /// blocks are being re-probed.
    GraphRowsProbed,
    /// Placement engine rebalances.
    Rebalances,
    /// Blocks whose rank changed across all rebalances.
    BlocksMoved,
    /// Per-step blocking collectives executed.
    Collectives,
    /// Detector-driven capacity-vector changes.
    CapacityUpdates,
    /// Nodes blacklisted and re-hosted on spares.
    NodesPruned,
    /// Exchange-byte ledger materializations (pending rounds → per-relation
    /// bytes) ahead of a rebalance or remesh.
    LedgerFlushes,
    /// Ledger relation-space remaps that carried observations across a
    /// remesh (origin-tracked survivors only).
    LedgerRemaps,
    /// Observed exchange bytes currently represented in the ledger.
    LedgerObservedBytes,
}

impl Counter {
    pub const COUNT: usize = 18;

    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::Steps,
        Counter::Adapts,
        Counter::NoopAdapts,
        Counter::BlocksRefined,
        Counter::BlocksCoarsened,
        Counter::GraphPatches,
        Counter::GraphFullBuilds,
        Counter::GraphPatchFallbacks,
        Counter::GraphRowsInherited,
        Counter::GraphRowsProbed,
        Counter::Rebalances,
        Counter::BlocksMoved,
        Counter::Collectives,
        Counter::CapacityUpdates,
        Counter::NodesPruned,
        Counter::LedgerFlushes,
        Counter::LedgerRemaps,
        Counter::LedgerObservedBytes,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Counter::Steps => "steps",
            Counter::Adapts => "adapts",
            Counter::NoopAdapts => "noop_adapts",
            Counter::BlocksRefined => "blocks_refined",
            Counter::BlocksCoarsened => "blocks_coarsened",
            Counter::GraphPatches => "graph_patches",
            Counter::GraphFullBuilds => "graph_full_builds",
            Counter::GraphPatchFallbacks => "graph_patch_fallbacks",
            Counter::GraphRowsInherited => "graph_rows_inherited",
            Counter::GraphRowsProbed => "graph_rows_probed",
            Counter::Rebalances => "rebalances",
            Counter::BlocksMoved => "blocks_moved",
            Counter::Collectives => "collectives",
            Counter::CapacityUpdates => "capacity_updates",
            Counter::NodesPruned => "nodes_pruned",
            Counter::LedgerFlushes => "ledger_flushes",
            Counter::LedgerRemaps => "ledger_remaps",
            Counter::LedgerObservedBytes => "ledger_observed_bytes",
        }
    }
}

/// Fixed gauge slots (latest-value semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Gauge {
    /// Blocks in the mesh after the latest step.
    Blocks,
    /// Ranks being simulated.
    Ranks,
    /// Imbalance of the latest placement under current costs.
    Imbalance,
    /// Latest step's synchronization fraction: sync / (compute+comm+sync).
    /// This is the corrected-wait signal the collective bugfix changes.
    SyncFraction,
}

impl Gauge {
    pub const COUNT: usize = 4;

    pub const ALL: [Gauge; Gauge::COUNT] = [
        Gauge::Blocks,
        Gauge::Ranks,
        Gauge::Imbalance,
        Gauge::SyncFraction,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Gauge::Blocks => "blocks",
            Gauge::Ranks => "ranks",
            Gauge::Imbalance => "imbalance",
            Gauge::SyncFraction => "sync_fraction",
        }
    }
}

/// Fixed-slot metrics: counters, gauges, and a per-phase duration histogram.
/// Plain data — writers take `&mut self`, so an owner needs no interior
/// mutability (the simulator's feedback plane) and a shared one sits behind
/// the [`TraceHandle`] lock. Everything is pre-allocated at construction;
/// `incr`, `set` and `observe_phase_ns` are allocation-free (covered by the
/// zero-alloc test).
#[derive(Debug, Clone)]
pub struct Metrics {
    counters: [u64; Counter::COUNT],
    gauges: [f64; Gauge::COUNT],
    phase_ns: Vec<LogHistogram>,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics {
            counters: [0; Counter::COUNT],
            gauges: [0.0; Gauge::COUNT],
            phase_ns: vec![LogHistogram::new(8); TracePhase::COUNT],
        }
    }
}

impl Metrics {
    /// Add `by` to a counter (saturating).
    pub fn incr(&mut self, c: Counter, by: u64) {
        let slot = &mut self.counters[c as usize];
        *slot = slot.saturating_add(by);
    }

    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Set a gauge to its latest value.
    pub fn set(&mut self, g: Gauge, value: f64) {
        self.gauges[g as usize] = value;
    }

    pub fn gauge(&self, g: Gauge) -> f64 {
        self.gauges[g as usize]
    }

    /// Record one duration into a phase's histogram.
    pub fn observe_phase_ns(&mut self, phase: TracePhase, ns: u64) {
        self.phase_ns[phase.index()].record(ns);
    }

    /// A phase's duration histogram. The adaptive control plane gates on
    /// its `count()`: zero means no history to decide from.
    pub fn phase(&self, phase: TracePhase) -> &LogHistogram {
        &self.phase_ns[phase.index()]
    }

    /// Zero every counter, gauge, and phase histogram in place (capacity
    /// kept). The simulator's always-on feedback plane resets at the top of
    /// each run so one run's pressure history can't leak into the next.
    pub fn reset(&mut self) {
        self.counters = [0; Counter::COUNT];
        self.gauges = [0.0; Gauge::COUNT];
        for h in &mut self.phase_ns {
            h.reset();
        }
    }

    /// Human-readable dump: counters, gauges, then per-phase histogram
    /// summaries (count/min/p50/max ns). For logs and bench output.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        out.push_str("counters:\n");
        for c in Counter::ALL {
            let _ = writeln!(out, "  {:<18} {}", c.name(), self.counter(c));
        }
        out.push_str("gauges:\n");
        for g in Gauge::ALL {
            let _ = writeln!(out, "  {:<18} {:.4}", g.name(), self.gauge(g));
        }
        out.push_str("phase_ns (count min p50 max):\n");
        for p in TracePhase::ALL {
            let h = self.phase(p);
            let _ = writeln!(
                out,
                "  {:<18} {} {} {} {}",
                p.name(),
                h.count(),
                h.min(),
                h.quantile(0.5),
                h.max()
            );
        }
        out
    }
}

/// What the handle's lock guards: plain data only.
#[derive(Debug)]
struct State {
    /// Step tag applied to new owner-lane spans.
    step: u32,
    /// The owner's lane (id 0): host spans from [`TracedSpan`] guards plus
    /// the virtual-time spans.
    owner: WorkerLane,
    /// Worker lanes (ids `1..`), created on demand by `ensure_lanes`; empty
    /// while a parallel region has them checked out.
    lanes: Vec<WorkerLane>,
    metrics: Metrics,
}

/// The cloneable recorder instrumented components hold. Cloning is one `Arc`
/// bump — no allocation — so handing a copy to the engine, the mesh, the
/// simulator or another thread keeps them all publishing into the same
/// artifacts. See the module docs for the locking rule.
#[derive(Debug, Clone)]
pub struct TraceHandle {
    /// Clock origin of every host span, outside the lock so timestamps
    /// never contend.
    epoch: Instant,
    state: Arc<Mutex<State>>,
}

impl TraceHandle {
    /// Handle whose owner lane holds up to `span_capacity` spans; the oldest
    /// are overwritten once full ([`TraceHandle::dropped`] counts the
    /// overwrites — a silent-cap guard for exporters).
    pub fn new(span_capacity: usize) -> TraceHandle {
        let epoch = Instant::now();
        TraceHandle {
            epoch,
            state: Arc::new(Mutex::new(State {
                step: 0,
                owner: WorkerLane::with_capacity(0, epoch, span_capacity),
                lanes: Vec::new(),
                metrics: Metrics::default(),
            })),
        }
    }

    /// Poison-tolerant lock: every update leaves `State` valid at every
    /// step, so a panicked recorder must not turn later records into panics.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Make sure at least `workers` worker lanes exist, each with
    /// `capacity` pre-allocated slots (lane ids `1..=workers`). Existing
    /// lanes are kept as-is, so calling this every parallel region is free
    /// after the first call — the steady state allocates nothing.
    pub fn ensure_lanes(&self, workers: usize, capacity: usize) {
        let lanes = &mut self.state().lanes;
        while lanes.len() < workers {
            let id = (lanes.len() + 1) as u16;
            lanes.push(WorkerLane::with_capacity(id, self.epoch, capacity));
        }
    }

    /// Number of worker lanes created so far.
    pub fn lane_count(&self) -> usize {
        self.state().lanes.len()
    }

    /// Check all worker lanes out for the duration of a parallel region; the
    /// caller distributes one `&mut WorkerLane` to each task. No lock is
    /// held while `f` runs, so the owner lane and the metrics stay
    /// recordable from inside it; the worker lanes are invisible to
    /// snapshots until they are put back (a panic in `f` drops them, and
    /// the next `ensure_lanes` recreates them).
    pub fn with_lanes_mut<R>(&self, f: impl FnOnce(&mut [WorkerLane]) -> R) -> R {
        let mut lanes = std::mem::take(&mut self.state().lanes);
        let out = f(&mut lanes);
        self.state().lanes = lanes;
        out
    }

    /// Tag subsequent spans with `step` (called once per simulation step).
    pub fn set_step(&self, step: u32) {
        self.state().step = step;
    }

    /// Step tag currently applied to new spans.
    pub fn step(&self) -> u32 {
        self.state().step
    }

    /// Spans overwritten because a ring was full (owner lane + all worker
    /// lanes).
    pub fn dropped(&self) -> u64 {
        let st = self.state();
        st.owner.dropped() + st.lanes.iter().map(|l| l.dropped()).sum::<u64>()
    }

    /// Nanoseconds since the handle was created (host-span clock).
    #[inline]
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record one owner-lane span and observe it into the phase histogram.
    fn record(&self, phase: TracePhase, track: Track, start_ns: u64, dur_ns: u64) {
        let mut st = self.state();
        let step = st.step;
        st.owner.push(SpanRecord {
            phase,
            track,
            step,
            lane: 0,
            start_ns,
            dur_ns,
        });
        st.metrics.observe_phase_ns(phase, dur_ns);
    }

    /// Record a span in simulated virtual time.
    pub fn record_virtual(&self, phase: TracePhase, start_ns: u64, dur_ns: u64) {
        self.record(phase, Track::Virtual, start_ns, dur_ns);
    }

    /// Open a host wall-clock span; it records itself when dropped.
    pub fn span(&self, phase: TracePhase) -> TracedSpan<'_> {
        TracedSpan {
            handle: self,
            phase,
            start_ns: self.now_ns(),
        }
    }

    /// Add `by` to a counter.
    pub fn incr(&self, c: Counter, by: u64) {
        self.state().metrics.incr(c, by);
    }

    /// Set a gauge to its latest value.
    pub fn set(&self, g: Gauge, value: f64) {
        self.state().metrics.set(g, value);
    }

    /// A consistent copy of the metrics (allocates; for reports and tests).
    pub fn metrics(&self) -> Metrics {
        self.state().metrics.clone()
    }

    /// Copy live spans into `out` (cleared; capacity reused): the owner lane
    /// oldest-first, then each worker lane's spans oldest-first in lane
    /// order. The merge is a deterministic function of ring contents —
    /// records carry their lane id, so exporters can still split by worker.
    pub fn snapshot_into(&self, out: &mut Vec<SpanRecord>) {
        out.clear();
        let st = self.state();
        st.owner.snapshot_into(out);
        for lane in &st.lanes {
            lane.snapshot_into(out);
        }
    }

    /// Allocating convenience over [`TraceHandle::snapshot_into`].
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut out = Vec::new();
        self.snapshot_into(&mut out);
        out
    }

    /// Discard all spans, owner lane and worker lanes (capacity, epoch and
    /// metrics kept).
    pub fn clear(&self) {
        let mut st = self.state();
        st.owner.clear();
        st.lanes.iter_mut().for_each(WorkerLane::clear);
    }
}

/// RAII guard from [`TraceHandle::span`]: measures from creation to drop,
/// then feeds both the owner lane and the per-phase histogram.
#[must_use = "a span guard measures until dropped; binding it to `_` drops it immediately"]
#[derive(Debug)]
pub struct TracedSpan<'a> {
    handle: &'a TraceHandle,
    phase: TracePhase,
    start_ns: u64,
}

impl Drop for TracedSpan<'_> {
    fn drop(&mut self) {
        let dur_ns = self.handle.now_ns().saturating_sub(self.start_ns);
        self.handle
            .record(self.phase, Track::Host, self.start_ns, dur_ns);
    }
}

/// Serialize spans as Chrome trace-event JSON (the `chrome://tracing` /
/// Perfetto "JSON Array Format" with a `traceEvents` wrapper). Host spans go
/// on tid 1, virtual spans on tid 2, worker-lane spans on tid `16 + lane`
/// (named `worker-<lane>`); timestamps are microseconds as the format
/// requires.
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    let tid_of = |s: &SpanRecord| match (s.track, s.lane) {
        (Track::Host, 0) => 1,
        (Track::Virtual, _) => 2,
        (Track::Host, lane) => 16 + lane as u32,
    };
    let mut out = String::with_capacity(64 + spans.len() * 96);
    out.push_str("{\"traceEvents\":[");
    let mut tids: Vec<u32> = spans.iter().map(tid_of).chain([1, 2]).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        let name = match tid {
            1 => "host".to_string(),
            2 => "virtual".to_string(),
            t => format!("worker-{}", t - 16),
        };
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{name}\"}}}},"
        );
    }
    out.pop(); // the last metadata event's trailing comma
    for s in spans {
        let _ = write!(
            out,
            ",{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\
             \"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"step\":{}}}}}",
            s.phase.name(),
            s.track.name(),
            s.start_ns as f64 / 1_000.0,
            s.dur_ns as f64 / 1_000.0,
            tid_of(s),
            s.step
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Serialize spans in collapsed-stack (flamegraph) format: one line per
/// `amr;track;phase[;phase..]` stack with the summed *self* time in ns as
/// the sample weight. Feed straight to `flamegraph.pl` /
/// `inferno-flamegraph`.
///
/// Host spans come from RAII guards, so on one lane they nest like a call
/// stack: a span whose interval lies inside another's (`splice_index` inside
/// `remesh`) becomes its child frame and its time is taken out of the
/// parent's weight — the weights of a stack and its descendants sum to the
/// outer span. Virtual spans are replayed intervals with no call relation
/// and stay flat.
pub fn collapsed_stacks(spans: &[SpanRecord]) -> String {
    let end = |s: &SpanRecord| s.start_ns.saturating_add(s.dur_ns);
    let mut sorted: Vec<&SpanRecord> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.track == Track::Virtual, s.lane, s.start_ns, !s.dur_ns));
    // Stack path → summed self time; ordered by track, then phase path, so
    // children follow their parent.
    let mut weights: BTreeMap<(bool, Vec<TracePhase>), u64> = BTreeMap::new();
    // Open spans, outermost first, each with the time its children took.
    let mut open: Vec<(&SpanRecord, u64)> = Vec::new();
    let mut close = |open: &mut Vec<(&SpanRecord, u64)>| {
        let path = open.iter().map(|(s, _)| s.phase).collect();
        if let Some((s, children_ns)) = open.pop() {
            let w = weights
                .entry((s.track == Track::Virtual, path))
                .or_default();
            *w = w.saturating_add(s.dur_ns.saturating_sub(children_ns));
        }
    };
    for s in sorted {
        while let Some((top, _)) = open.last() {
            let nested = s.track == Track::Host
                && (top.track, top.lane) == (s.track, s.lane)
                && end(s) <= end(top);
            if nested {
                break;
            }
            close(&mut open);
        }
        if let Some((_, children_ns)) = open.last_mut() {
            *children_ns = children_ns.saturating_add(s.dur_ns);
        }
        open.push((s, 0));
    }
    while !open.is_empty() {
        close(&mut open);
    }
    let mut out = String::new();
    for ((is_virtual, path), total) in weights {
        if total > 0 {
            let track = if is_virtual {
                Track::Virtual
            } else {
                Track::Host
            };
            let _ = write!(out, "amr;{}", track.name());
            for p in path {
                let _ = write!(out, ";{}", p.name());
            }
            let _ = writeln!(out, " {total}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn starts(t: &TraceHandle) -> Vec<u64> {
        t.snapshot().iter().map(|s| s.start_ns).collect()
    }

    #[test]
    fn handle_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TraceHandle>();
        assert_send_sync::<Metrics>();
    }

    #[test]
    fn span_guard_records_on_drop() {
        let t = TraceHandle::new(8);
        t.set_step(3);
        {
            let _g = t.span(TracePhase::Place);
        }
        let spans = t.snapshot();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].phase, TracePhase::Place);
        assert_eq!(spans[0].track, Track::Host);
        assert_eq!(spans[0].step, 3);
        assert_eq!(spans[0].lane, 0);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let t = TraceHandle::new(4);
        for i in 0..10u64 {
            t.record_virtual(TracePhase::Collective, i, 1);
        }
        assert_eq!(t.dropped(), 6);
        assert_eq!(starts(&t), vec![6, 7, 8, 9]); // oldest first, newest kept
        t.clear();
        assert!(t.snapshot().is_empty());
        assert_eq!(t.dropped(), 0);
        // Clearing spans leaves the metrics alone.
        assert_eq!(t.metrics().phase(TracePhase::Collective).count(), 10);
    }

    #[test]
    fn zero_capacity_handle_drops_everything() {
        let t = TraceHandle::new(0);
        t.record_virtual(TracePhase::Exchange, 0, 5);
        {
            let _g = t.span(TracePhase::Place);
        }
        assert!(t.snapshot().is_empty());
        assert_eq!(t.dropped(), 2);
    }

    #[test]
    fn metrics_counters_gauges_histograms() {
        let mut m = Metrics::default();
        m.incr(Counter::Rebalances, 2);
        m.incr(Counter::Rebalances, 1);
        assert_eq!(m.counter(Counter::Rebalances), 3);
        assert_eq!(m.counter(Counter::Steps), 0);
        m.incr(Counter::BlocksMoved, u64::MAX);
        m.incr(Counter::BlocksMoved, 1); // saturates, never wraps
        assert_eq!(m.counter(Counter::BlocksMoved), u64::MAX);
        m.set(Gauge::Imbalance, 1.25);
        assert_eq!(m.gauge(Gauge::Imbalance), 1.25);
        m.observe_phase_ns(TracePhase::Place, 1_000);
        m.observe_phase_ns(TracePhase::Place, 3_000);
        assert_eq!(m.phase(TracePhase::Place).count(), 2);
        assert_eq!(m.phase(TracePhase::Place).max(), 3_000);
        let summary = m.render_summary();
        assert!(summary.contains("rebalances"));
        assert!(summary.contains("sync_fraction"));
        assert!(summary.contains("place"));
    }

    #[test]
    fn handle_span_feeds_lane_and_histogram() {
        let t = TraceHandle::new(16);
        {
            let _g = t.span(TracePhase::GraphPatch);
        }
        t.record_virtual(TracePhase::Collective, 100, 50);
        t.incr(Counter::Steps, 2);
        t.set(Gauge::Imbalance, 1.5);
        assert_eq!(t.snapshot().len(), 2);
        let m = t.metrics();
        assert_eq!(m.phase(TracePhase::GraphPatch).count(), 1);
        assert_eq!(m.phase(TracePhase::Collective).max(), 50);
        assert_eq!(m.counter(Counter::Steps), 2);
        assert_eq!(m.gauge(Gauge::Imbalance), 1.5);
        // Clones publish into the same state.
        let t2 = t.clone();
        t2.record_virtual(TracePhase::Exchange, 0, 1);
        assert_eq!(t.snapshot().len(), 3);
    }

    #[test]
    fn clone_moved_to_another_thread_records_into_the_same_state() {
        let t = TraceHandle::new(8);
        let worker = t.clone();
        std::thread::spawn(move || {
            let _g = worker.span(TracePhase::Place);
            worker.incr(Counter::Rebalances, 1);
        })
        .join()
        .expect("recording thread panicked");
        let spans = t.snapshot();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].phase, TracePhase::Place);
        let m = t.metrics();
        assert_eq!(m.counter(Counter::Rebalances), 1);
        assert_eq!(m.phase(TracePhase::Place).count(), 1);
    }

    #[test]
    fn owner_records_while_worker_lanes_are_checked_out() {
        let t = TraceHandle::new(8);
        t.ensure_lanes(2, 4);
        t.with_lanes_mut(|lanes| {
            assert_eq!(lanes.len(), 2);
            lanes[1].record_host(TracePhase::Exchange, 0, 7, 1);
            // No lock is held across the region: the owner side still
            // records, and sees no worker lanes until they come back.
            let _g = t.span(TracePhase::Place);
            t.incr(Counter::Steps, 1);
            assert_eq!(t.lane_count(), 0);
            lanes[0].record_host(TracePhase::Exchange, 0, 9, 1);
        });
        assert_eq!(t.lane_count(), 2);
        let lanes: Vec<u16> = t.snapshot().iter().map(|s| s.lane).collect();
        assert_eq!(lanes, vec![0, 1, 2]);
        assert_eq!(t.metrics().counter(Counter::Steps), 1);
    }

    #[test]
    fn poisoned_lock_does_not_poison_later_records() {
        let t = TraceHandle::new(8);
        let t2 = t.clone();
        let panicked = std::thread::spawn(move || {
            let _held = t2.state.lock().expect("first lock");
            panic!("recorder dies holding the lock");
        })
        .join();
        assert!(panicked.is_err());
        assert!(t.state.is_poisoned());
        t.record_virtual(TracePhase::Exchange, 0, 1);
        t.incr(Counter::Steps, 1);
        assert_eq!(t.snapshot().len(), 1);
        assert_eq!(t.metrics().counter(Counter::Steps), 1);
    }

    #[test]
    fn chrome_export_is_wellformed() {
        let t = TraceHandle::new(8);
        t.set_step(7);
        t.record_virtual(TracePhase::Collective, 2_000, 500);
        {
            let _g = t.span(TracePhase::Place);
        }
        t.ensure_lanes(3, 4);
        t.with_lanes_mut(|lanes| {
            lanes[0].record_host(TracePhase::Exchange, 7, 10, 3);
            lanes[2].record_host(TracePhase::Exchange, 7, 11, 2);
            lanes[2].record_host(TracePhase::Exchange, 7, 20, 2);
        });
        let json = chrome_trace_json(&t.snapshot());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("\"displayTimeUnit\":\"ms\"}"));
        assert!(json.contains("\"name\":\"collective\""));
        assert!(json.contains("\"cat\":\"virtual\""));
        assert!(json.contains("\"ts\":2.000"));
        assert!(json.contains("\"name\":\"place\""));
        assert!(json.contains("\"step\":7"));
        // One thread_name event per tid present: host, virtual, and each
        // worker lane that recorded (lane 2 stayed empty).
        assert_eq!(json.matches("\"thread_name\"").count(), 4);
        for (tid, name) in [
            (1, "host"),
            (2, "virtual"),
            (17, "worker-1"),
            (19, "worker-3"),
        ] {
            assert!(json.contains(&format!(
                "\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{name}\"}}"
            )));
        }
        assert!(!json.contains("worker-2"));
        assert!(!json.contains(",,") && !json.contains("[,") && !json.contains(",]"));
        // Balanced braces/brackets (cheap well-formedness check without a
        // JSON parser in the dependency-free build).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // No spans at all still names the two fixed tracks.
        let empty = chrome_trace_json(&[]);
        assert_eq!(empty.matches("\"thread_name\"").count(), 2);
        assert!(empty.contains("}}],\"displayTimeUnit\""));
    }

    #[test]
    fn collapsed_export_sums_per_stack() {
        let t = TraceHandle::new(8);
        t.record_virtual(TracePhase::Exchange, 0, 30);
        t.record_virtual(TracePhase::Exchange, 50, 12);
        // Virtual spans never nest, even when one interval contains another.
        t.record_virtual(TracePhase::Collective, 52, 5);
        let folded = collapsed_stacks(&t.snapshot());
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(
            lines,
            vec!["amr;virtual;exchange 42", "amr;virtual;collective 5"]
        );
        // Phases with no samples are omitted.
        assert!(!folded.contains("remesh"));
    }

    #[test]
    fn collapsed_export_nests_host_spans_and_sums_to_the_outer_span() {
        let host = |phase, lane, start_ns, dur_ns| SpanRecord {
            phase,
            track: Track::Host,
            step: 0,
            lane,
            start_ns,
            dur_ns,
        };
        // Guards close inner-first, so the ring holds children before
        // parents: remesh [100, 200) ⊃ splice_index [120, 160), twice; a
        // sibling place span; and a worker-lane span whose interval lies
        // inside remesh's but on another lane, so it is nobody's child.
        let spans = [
            host(TracePhase::SpliceIndex, 0, 120, 40),
            host(TracePhase::Remesh, 0, 100, 100),
            host(TracePhase::Place, 0, 200, 7),
            host(TracePhase::SpliceIndex, 0, 320, 10),
            host(TracePhase::Remesh, 0, 300, 50),
            host(TracePhase::Exchange, 1, 110, 20),
        ];
        let folded = collapsed_stacks(&spans);
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(
            lines,
            vec![
                "amr;host;remesh 100",
                "amr;host;remesh;splice_index 50",
                "amr;host;place 7",
                "amr;host;exchange 20",
            ]
        );
        // Self + descendants == the outer spans; the whole file == host time.
        let weight = |l: &str| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap();
        assert_eq!(weight(lines[0]) + weight(lines[1]), 100 + 50);
        // The live guard path produces the same shape.
        let t = TraceHandle::new(8);
        {
            let _outer = t.span(TracePhase::Remesh);
            let _inner = t.span(TracePhase::SpliceIndex);
        }
        let spans = t.snapshot();
        let outer = spans[1].dur_ns;
        let total: u64 = collapsed_stacks(&spans).lines().map(weight).sum();
        assert_eq!(total, outer);
    }

    #[test]
    fn snapshot_merges_worker_lanes_behind_the_same_api() {
        let t = TraceHandle::new(8);
        t.set_step(4);
        t.record_virtual(TracePhase::Collective, 100, 5);
        t.ensure_lanes(2, 4);
        assert_eq!(t.lane_count(), 2);
        t.with_lanes_mut(|lanes| {
            lanes[0].record_host(TracePhase::Exchange, 4, 10, 3);
            lanes[1].record_host(TracePhase::Exchange, 4, 11, 2);
            lanes[1].record_host(TracePhase::Exchange, 4, 20, 1);
        });
        // ensure_lanes never shrinks or replaces warm lanes.
        t.ensure_lanes(1, 4);
        assert_eq!(t.lane_count(), 2);
        let spans = t.snapshot();
        assert_eq!(spans.len(), 4);
        let lanes: Vec<u16> = spans.iter().map(|s| s.lane).collect();
        assert_eq!(lanes, vec![0, 1, 2, 2]);
        // Lane spans survive into the exporters with their own tids.
        let json = chrome_trace_json(&spans);
        assert!(json.contains("\"tid\":17"));
        assert!(json.contains("\"tid\":18"));
        t.clear();
        assert!(t.snapshot().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn lane_drops_count_toward_handle_dropped() {
        let t = TraceHandle::new(4);
        t.ensure_lanes(1, 2);
        t.with_lanes_mut(|lanes| {
            for i in 0..5 {
                lanes[0].record_host(TracePhase::Exchange, 0, i, 1);
            }
        });
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn metrics_query_surface_and_reset() {
        let mut m = Metrics::default();
        assert_eq!(m.phase(TracePhase::Collective).count(), 0);
        assert_eq!(m.phase(TracePhase::Collective).max(), 0);
        m.observe_phase_ns(TracePhase::Collective, 1_000);
        m.observe_phase_ns(TracePhase::Collective, 9_000);
        m.observe_phase_ns(TracePhase::Exchange, 500);
        m.set(Gauge::SyncFraction, 0.42);
        m.incr(Counter::Steps, 3);
        assert_eq!(m.phase(TracePhase::Collective).count(), 2);
        assert_eq!(m.phase(TracePhase::Exchange).count(), 1);
        assert_eq!(m.phase(TracePhase::Collective).max(), 9_000);
        let p50 = m.phase(TracePhase::Collective).quantile(0.5);
        assert!((1_000..9_000).contains(&p50), "p50 = {p50}");
        m.reset();
        assert_eq!(m.phase(TracePhase::Collective).count(), 0);
        assert_eq!(m.gauge(Gauge::SyncFraction), 0.0);
        assert_eq!(m.counter(Counter::Steps), 0);
        // Still records after the wipe.
        m.observe_phase_ns(TracePhase::Collective, 7);
        assert_eq!(m.phase(TracePhase::Collective).count(), 1);
    }

    #[test]
    fn phase_taxonomy_is_stable() {
        assert_eq!(TracePhase::ALL.len(), TracePhase::COUNT);
        let names: Vec<&str> = TracePhase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec![
                "remesh",
                "splice_index",
                "graph_patch",
                "place",
                "exchange",
                "collective",
                "fault_response"
            ]
        );
        for (i, p) in TracePhase::ALL.into_iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }
}
