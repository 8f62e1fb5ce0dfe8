//! Observed exchange-byte accounting: the feedback half of the
//! measured-weight placement loop.
//!
//! The paper's §VIII finding is that *static* edge cuts — weights derived
//! from message sizes the topology implies — correlate poorly with runtime
//! communication. The placement side of the fix is
//! [`CutWeights::Observed`](amr_core::policies::CutWeights): partition on
//! what was measured, not what was modeled. This module is the measuring
//! instrument: an [`ExchangeByteLedger`] keeps a copy of the run's
//! [`NeighborGraph`] layout and accumulates, per *directed relation*, the
//! bytes the simulated run actually pushed across it — ghost exchanges every
//! round, flux corrections once per step on fine→coarse faces.
//!
//! Design constraints, in order:
//!
//! - **O(1) on the step path.** Steps only bump pending round/step tallies
//!   ([`note_step`](ExchangeByteLedger::note_step)); the O(relations)
//!   materialization ([`flush`](ExchangeByteLedger::flush)) runs only when a
//!   consumer needs the numbers — before a rebalance or a remesh.
//! - **Self-contained.** The ledger keeps the layout of the graph it
//!   accounts for — row offsets and the relations themselves — copied at
//!   [`begin_run`](ExchangeByteLedger::begin_run) and at every
//!   [`apply_remesh`](ExchangeByteLedger::apply_remesh), so a flush reads
//!   no graph and the mesh is free to patch its own before the simulator
//!   sees the step.
//! - **Delta-aware across remeshes.** A remesh invalidates the relation
//!   space, but most relations survive (both endpoints
//!   [`BlockFate::Same`]). [`prepare_remesh`](ExchangeByteLedger::prepare_remesh)
//!   flushes against the dying layout and stages it;
//!   [`apply_remesh`](ExchangeByteLedger::apply_remesh) carries bytes onto
//!   the patched graph for surviving relations and zeros the rest, so
//!   observations persist through AMR instead of resetting every adapt.
//! - **Deterministic, and invisible to virtual time.** The ledger only
//!   *reads* simulation state — flushing on the simulator's pool uses the
//!   same contiguous-ownership rule as `crate::par` (each task owns a
//!   contiguous relation range), and the per-task byte totals are saturating
//!   `u64` sums of non-negative terms (grouping-independent), merged in task
//!   order. A run with the ledger on
//!   is bitwise identical in virtual time to the same run with it off until
//!   a policy actually consumes the weights (pinned by tests).

use amr_mesh::pool::{task_range, Disjoint, WorkerPool};
use amr_mesh::{BlockFate, BlockSpec, Dim, Neighbor, NeighborGraph, NeighborKind, RefinementDelta};

/// [`ExchangeByteLedger::apply_remesh`]'s mark for a block the remesh
/// created (no surviving old block).
const CREATED: u32 = u32::MAX;

/// Per-relation observed-byte accumulator for a flat [`NeighborGraph`].
#[derive(Debug, Default)]
pub struct ExchangeByteLedger {
    /// Observed bytes per directed relation, parallel to the graph's CSR
    /// entry space ([`NeighborGraph::row_start`] indexing).
    bytes: Vec<u64>,
    /// Ghost-exchange rounds noted since the last flush.
    pending_rounds: u64,
    /// Steps noted since the last flush (flux correction is once per step).
    pending_steps: u64,
    /// Layout of the graph `bytes` is parallel to: its CSR offsets and
    /// entries.
    offsets: Vec<u32>,
    entries: Vec<Neighbor>,
    /// Staged layout of the pre-remesh graph and its flushed bytes —
    /// consumed by [`apply_remesh`](Self::apply_remesh).
    old_offsets: Vec<u32>,
    old_entries: Vec<Neighbor>,
    old_bytes: Vec<u64>,
    staged: bool,
    /// New block → its old id if it survived the remesh, else [`CREATED`]
    /// (pooled scratch of [`apply_remesh`](Self::apply_remesh)).
    survivors: Vec<u32>,
    /// Per-task byte totals of a flush (pooled scratch).
    partials: Vec<u64>,
    /// Lifetime tallies (reported via trace counters).
    flushes: u64,
    remaps: u64,
    observed_total: u64,
}

impl ExchangeByteLedger {
    /// Re-arm the ledger for a run over `graph`: its layout copied, one
    /// zeroed slot per directed relation, pendings cleared. Buffer capacity
    /// survives across runs.
    pub fn begin_run(&mut self, graph: &NeighborGraph) {
        self.copy_layout(graph);
        self.bytes.clear();
        self.bytes.resize(graph.total_relations(), 0);
        self.pending_rounds = 0;
        self.pending_steps = 0;
        self.staged = false;
        self.flushes = 0;
        self.remaps = 0;
        self.observed_total = 0;
    }

    /// Replace the kept layout with `graph`'s.
    fn copy_layout(&mut self, graph: &NeighborGraph) {
        let rows = 0..=graph.num_blocks();
        self.offsets.clear();
        self.offsets.extend(rows.map(|i| graph.row_start(i) as u32));
        self.entries.clear();
        self.entries.extend(graph.iter().flat_map(|(_, nbs)| nbs));
    }

    /// Note one simulated step carrying `exchanges` ghost rounds. O(1).
    #[inline]
    pub fn note_step(&mut self, exchanges: u32) {
        self.pending_rounds += exchanges as u64;
        self.pending_steps += 1;
    }

    /// Materialize pending rounds/steps into per-relation bytes: every
    /// relation gains `rounds · message_bytes(codim)`, and fine→coarse Face
    /// relations additionally gain `steps · message_bytes(1)/4` of flux
    /// correction — exactly the per-relation charges the epoch fill models.
    ///
    /// Runs on `pool`: tasks own contiguous relation ranges, so each byte
    /// slot has exactly one writer; the per-task totals are saturating sums
    /// of non-negative terms, the same however the relations are grouped,
    /// and merge in task order. The same bytes at any thread count.
    pub fn flush(&mut self, pool: &WorkerPool, spec: BlockSpec, dim: Dim) {
        if self.pending_rounds == 0 && self.pending_steps == 0 {
            return;
        }
        debug_assert_eq!(self.bytes.len(), self.entries.len());
        let (rounds, steps) = (self.pending_rounds, self.pending_steps);
        let n = self.entries.len();
        let t_n = pool.tasks_for(n);
        self.partials.clear();
        self.partials.resize(t_n, 0);
        let out = Disjoint::new(&mut self.bytes);
        let entries = &self.entries;
        pool.run_with(&mut self.partials, |t, total| {
            let span = task_range(t, t_n, n);
            // SAFETY: `task_range` tiles `0..n`, so the tasks' relation
            // ranges are pairwise disjoint.
            let out = unsafe { out.slice(span.start, span.end) };
            for (slot, nb) in out.iter_mut().zip(&entries[span]) {
                let add = relation_bytes(spec, dim, nb.kind, nb.level_delta, rounds, steps);
                *slot = slot.saturating_add(add);
                *total = total.saturating_add(add);
            }
        });
        self.pending_rounds = 0;
        self.pending_steps = 0;
        self.flushes += 1;
        self.observed_total = self
            .partials
            .iter()
            .fold(self.observed_total, |a, &p| a.saturating_add(p));
    }

    /// Stage for a remesh: flush everything pending against the kept
    /// (pre-remesh) layout, then stage that layout and its bytes so
    /// [`apply_remesh`](Self::apply_remesh) can carry surviving relations'
    /// bytes across.
    pub fn prepare_remesh(&mut self, pool: &WorkerPool, spec: BlockSpec, dim: Dim) {
        self.flush(pool, spec, dim);
        std::mem::swap(&mut self.old_offsets, &mut self.offsets);
        std::mem::swap(&mut self.old_entries, &mut self.entries);
        std::mem::swap(&mut self.old_bytes, &mut self.bytes);
        self.staged = true;
    }

    /// Keep the patched graph's layout and rebuild the byte vector for it. A
    /// relation `a → b`
    /// keeps its observation iff both endpoints are [`BlockFate::Same`]
    /// survivors of `delta` and the old graph had the relation (binary
    /// search on the old sorted row); everything else — split children,
    /// merge parents, relations the remesh created — starts at zero. Without
    /// a delta relating the staged graph to `graph` there is no ancestry to
    /// follow: observations reset.
    pub fn apply_remesh(&mut self, delta: Option<&RefinementDelta>, graph: &NeighborGraph) {
        debug_assert!(self.staged, "prepare_remesh must precede apply_remesh");
        self.staged = false;
        self.copy_layout(graph);
        self.bytes.clear();
        self.bytes.resize(graph.total_relations(), 0);
        let old_blocks = self.old_offsets.len().saturating_sub(1);
        let Some(delta) = delta.filter(|d| d.maps(old_blocks, graph.num_blocks())) else {
            self.observed_total = 0;
            return;
        };
        self.remaps += 1;
        self.survivors.clear();
        self.survivors.resize(graph.num_blocks(), CREATED);
        for (old, fate) in delta.remap.iter().enumerate() {
            if let BlockFate::Same(new) = *fate {
                if let Some(slot) = self.survivors.get_mut(new.index()) {
                    *slot = old as u32;
                }
            }
        }
        let mut carried = 0u64;
        let mut entry = 0usize;
        for (block, nbs) in graph.iter() {
            let sa = self.survivors[block.index()];
            for nb in nbs {
                let sb = self.survivors[nb.block.index()];
                if sa != CREATED && sb != CREATED {
                    let sa = sa as usize;
                    let row = self.old_offsets[sa] as usize..self.old_offsets[sa + 1] as usize;
                    let old_row = &self.old_entries[row.clone()];
                    if let Ok(pos) = old_row.binary_search_by_key(&sb, |m| m.block.0) {
                        let b = self.old_bytes[row.start + pos];
                        self.bytes[entry] = b;
                        carried = carried.saturating_add(b);
                    }
                }
                entry += 1;
            }
        }
        // Lifetime total keeps only what survived (plus future flushes).
        self.observed_total = carried;
    }

    /// Per-relation observed bytes (valid after a flush; entry-parallel to
    /// the graph it was flushed against).
    pub fn bytes(&self) -> &[u64] {
        &self.bytes
    }

    /// True once at least one flush has landed nonzero observations —
    /// before that, the weights would be all zeros and the topological
    /// model is strictly more informative.
    pub fn has_observations(&self) -> bool {
        self.observed_total > 0
    }

    /// Lifetime flush count (trace counter feed).
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Lifetime successful remap count (trace counter feed).
    pub fn remaps(&self) -> u64 {
        self.remaps
    }

    /// Observed bytes currently represented in the ledger.
    pub fn observed_total(&self) -> u64 {
        self.observed_total
    }
}

/// Bytes one directed relation accumulates over `rounds` ghost rounds and
/// `steps` steps — mirrors the charges `fill_epoch` models: every relation
/// ships its codim message each round; fine→coarse faces add a quarter-face
/// flux correction once per step.
#[inline]
fn relation_bytes(
    spec: BlockSpec,
    dim: Dim,
    kind: NeighborKind,
    level_delta: i8,
    rounds: u64,
    steps: u64,
) -> u64 {
    let mut b = rounds.saturating_mul(spec.message_bytes(dim, kind.codim()));
    if level_delta == -1 && kind == NeighborKind::Face {
        b = b.saturating_add(steps.saturating_mul(spec.message_bytes(dim, 1) / 4));
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use amr_mesh::{AmrMesh, BlockId, MeshConfig};

    fn mesh() -> AmrMesh {
        AmrMesh::new(MeshConfig::from_cells(Dim::D3, (64, 64, 64), 1))
    }

    /// A block-count-preserving delta over `n` blocks: every block survives
    /// except `replaced`, whose fate is a one-child refinement.
    fn delta_replacing(n: usize, replaced: Option<usize>) -> RefinementDelta {
        let remap = (0..n)
            .map(|i| {
                let id = BlockId(i as u32);
                if Some(i) == replaced {
                    BlockFate::Refined {
                        first: id,
                        count: 1,
                    }
                } else {
                    BlockFate::Same(id)
                }
            })
            .collect();
        RefinementDelta {
            blocks_before: n,
            blocks_after: n,
            remap,
            ..RefinementDelta::default()
        }
    }

    #[test]
    fn flush_charges_every_relation_once_per_round() {
        let m = mesh();
        let g = m.neighbor_graph();
        let spec = m.config().spec;
        let dim = m.config().dim;
        let pool = WorkerPool::new(1);
        let mut led = ExchangeByteLedger::default();
        led.begin_run(&g);
        led.note_step(3);
        led.note_step(3);
        led.flush(&pool, spec, dim);
        assert!(led.has_observations());
        let mut entry = 0usize;
        for (_, nbs) in g.iter() {
            for n in nbs {
                let expect = relation_bytes(spec, dim, n.kind, n.level_delta, 6, 2);
                assert_eq!(led.bytes()[entry], expect);
                entry += 1;
            }
        }
    }

    #[test]
    fn flush_is_bitwise_identical_at_any_thread_count() {
        let m = mesh();
        let g = m.neighbor_graph();
        let spec = m.config().spec;
        let dim = m.config().dim;
        let mut serial = ExchangeByteLedger::default();
        serial.begin_run(&g);
        serial.note_step(3);
        serial.flush(&WorkerPool::new(1), spec, dim);
        for threads in [2usize, 3, 4] {
            let mut par = ExchangeByteLedger::default();
            par.begin_run(&g);
            par.note_step(3);
            par.flush(&WorkerPool::new(threads), spec, dim);
            assert_eq!(serial.bytes(), par.bytes(), "threads = {threads}");
            assert_eq!(serial.observed_total(), par.observed_total());
        }
    }

    #[test]
    fn flush_is_lazy_and_idempotent() {
        let m = mesh();
        let g = m.neighbor_graph();
        let (spec, dim) = (m.config().spec, m.config().dim);
        let pool = WorkerPool::new(1);
        let mut led = ExchangeByteLedger::default();
        led.begin_run(&g);
        led.flush(&pool, spec, dim); // nothing pending: no flush recorded
        assert_eq!(led.flushes(), 0);
        led.note_step(1);
        led.flush(&pool, spec, dim);
        let snapshot: Vec<u64> = led.bytes().to_vec();
        led.flush(&pool, spec, dim); // still nothing new pending
        assert_eq!(led.bytes(), &snapshot[..]);
        assert_eq!(led.flushes(), 1);
    }

    #[test]
    fn remesh_with_all_survivors_carries_all_bytes() {
        let m = mesh();
        let g = m.neighbor_graph();
        let (spec, dim) = (m.config().spec, m.config().dim);
        let pool = WorkerPool::new(1);
        let mut led = ExchangeByteLedger::default();
        led.begin_run(&g);
        led.note_step(3);
        led.prepare_remesh(&pool, spec, dim);
        let before: Vec<u64> = led.old_bytes.clone();
        led.apply_remesh(Some(&delta_replacing(g.num_blocks(), None)), &g);
        assert_eq!(led.bytes(), &before[..], "identity remap must be lossless");
        assert_eq!(led.remaps(), 1);
    }

    #[test]
    fn remesh_without_a_delta_resets() {
        let m = mesh();
        let g = m.neighbor_graph();
        let (spec, dim) = (m.config().spec, m.config().dim);
        let pool = WorkerPool::new(1);
        let mut led = ExchangeByteLedger::default();
        led.begin_run(&g);
        led.note_step(1);
        led.prepare_remesh(&pool, spec, dim);
        led.apply_remesh(None, &g);
        assert!(!led.has_observations());
        assert!(led.bytes().iter().all(|&b| b == 0));
        // A delta describing another mesh is no delta.
        led.note_step(1);
        led.prepare_remesh(&pool, spec, dim);
        led.apply_remesh(Some(&delta_replacing(g.num_blocks() - 1, None)), &g);
        assert!(!led.has_observations());
        assert_eq!(led.remaps(), 0);
    }

    #[test]
    fn remesh_zeroes_created_blocks_only() {
        let m = mesh();
        let g = m.neighbor_graph();
        let (spec, dim) = (m.config().spec, m.config().dim);
        let pool = WorkerPool::new(1);
        let mut led = ExchangeByteLedger::default();
        led.begin_run(&g);
        led.note_step(2);
        led.prepare_remesh(&pool, spec, dim);
        // Pretend block 0 was replaced: everything touching it resets.
        led.apply_remesh(Some(&delta_replacing(g.num_blocks(), Some(0))), &g);
        let mut entry = 0usize;
        for (block, nbs) in g.iter() {
            for n in nbs {
                let touches0 = block.index() == 0 || n.block.index() == 0;
                if touches0 {
                    assert_eq!(led.bytes()[entry], 0, "relations of a new block reset");
                } else {
                    assert!(led.bytes()[entry] > 0, "surviving relations carry");
                }
                entry += 1;
            }
        }
    }
}
