//! The macro-simulator's rank-range kernels: epoch fill, compute scatter and
//! the fused ready/finish pass — each written once and run on a
//! [`WorkerPool`] at whatever task count `SimConfig::threads` allows.
//!
//! Every kernel here follows one rule — **slot ownership**: the rank space
//! `0..r` is split into contiguous ranges ([`task_range`]), one per task,
//! and each task writes only the per-rank slots inside its own range. Where
//! the input is indexed by *block* (the epoch's graph rows, the compute
//! scatter), each task scans the whole input in row order and applies only
//! the updates whose target slot it owns. That costs a redundant read pass
//! per task, but it buys the property the simulator's contracts rest on:
//! every slot accumulates its floating-point contributions in global row
//! order whatever the task count, so virtual time is **bitwise identical**
//! at any thread count (f64 addition is not associative; merging per-chunk
//! partial sums would reorder it). Integer message counters are
//! associative, so those use per-task partials ([`EpochCounts`]) summed in
//! task order after the join.
//!
//! `threads == 1` is not a separate path: it is the single-task schedule of
//! the same kernels, run inline by a pool that spawned nothing. The one task
//! then owns every rank; the block-scanning kernels take that fact as a
//! const parameter (`SOLE`) so their ownership tests fold away instead of
//! being evaluated per neighbor.
//!
//! The kernels receive only plain-data views (`Topology`, `NetworkConfig`,
//! `Placement`, `GraphView`), never `&AmrMesh`. This module is policed by
//! the workspace `disallowed_types` clippy guard: no `Rc`, `RefCell`, or
//! `Cell`; shared mutable state crosses the dispatch boundary only through
//! [`Disjoint`](amr_mesh::pool::Disjoint) range ownership.

use crate::macrosim::{CommEpoch, ResidentGraph, SimConfig};
use crate::network::NetworkConfig;
use crate::topology::Topology;
use amr_core::Placement;
use amr_mesh::pool::{task_range, Disjoint, WorkerPool};
use amr_mesh::{BlockSpec, Dim, NeighborKind};
use amr_telemetry::{TracePhase, WorkerLane};
use std::ops::Range;

/// Span slots pre-allocated per worker lane the first time a traced
/// simulator fills an epoch (one host span per task per epoch fill, so this
/// covers hundreds of fills before the ring recycles).
pub(crate) const LANE_SPAN_CAPACITY: usize = 256;

/// Integer counters of one epoch: message counts by class and, under the
/// credit model, bytes per directed node link. Each task fills a private
/// one; they are merged in task order after the join. Only associative `u64`
/// sums live here — float accumulation stays in owned [`CommEpoch`] slots.
#[derive(Debug, Clone, Default)]
pub(crate) struct EpochCounts {
    /// Per-round message counts by class.
    pub intra: u64,
    pub local: u64,
    pub remote: u64,
    /// Flux-correction MPI messages per step.
    pub flux: u64,
    /// One round's remote boundary+flux bytes per directed node link, flat
    /// `src_node * num_nodes + dst_node` (src-owned messages only, so each
    /// message lands in exactly one task's counts). Sized `nodes²` only
    /// while the credit model is enabled
    /// ([`NetworkConfig::congestion_enabled`]); empty otherwise.
    pub link_bytes: Vec<u64>,
}

impl EpochCounts {
    fn reset(&mut self, links: usize) {
        (self.intra, self.local, self.remote, self.flux) = (0, 0, 0, 0);
        self.link_bytes.clear();
        self.link_bytes.resize(links, 0);
    }

    /// Count one MPI message of an owned sender, charging its `bytes` to
    /// directed node link `link()` while the credit model is live.
    #[inline]
    fn count_sent(&mut self, local: bool, link: impl FnOnce() -> usize, bytes: u64) {
        if local {
            self.local += 1;
        } else {
            self.remote += 1;
            if !self.link_bytes.is_empty() {
                self.link_bytes[link()] += bytes;
            }
        }
    }
}

/// What one message of a class costs under the network model: every term the
/// fill charges per relation, evaluated once per fill instead of once per
/// relation (the model functions divide and saturate). `service` and `tail`
/// are indexed by `same_node as usize`.
#[derive(Debug, Clone, Copy, Default)]
struct MsgCost {
    bytes: u64,
    /// Intra-rank copy: memcpy at memory bandwidth (use shm bandwidth).
    memcpy: f64,
    dispatch: f64,
    service: [f64; 2],
    tail: [f64; 2],
}

impl MsgCost {
    fn new(network: &NetworkConfig, bytes: u64) -> MsgCost {
        MsgCost {
            bytes,
            memcpy: bytes as f64 / network.shm.bytes_per_ns,
            dispatch: network.dispatch_ns(bytes) as f64,
            service: [false, true].map(|local| network.service_ns(bytes, local) as f64),
            tail: [false, true].map(|local| network.transfer_ns(bytes, local) as f64),
        }
    }
}

/// Append `src` to a rank's sender segment (`seg[..*len]` is live) unless it
/// repeats the last entry. A rank's blocks are SFC-contiguous, so one
/// sender's messages arrive in runs: skipping repeats keeps the live part
/// near its final size, and the sort + [`dedup_sorted`] pass resolves the
/// rest (no per-rank hash/tree set in the hot loop).
#[inline]
fn push_sender(seg: &mut [u32], len: &mut u32, src: u32) {
    let n = *len as usize;
    if n > 0 && seg[n - 1] == src {
        return;
    }
    assert!(
        n < seg.len(),
        "sender segment overflow: capacity {} assumes a symmetric neighbor graph",
        seg.len()
    );
    seg[n] = src;
    *len += 1;
}

/// Compact the distinct values of a sorted slice to its front; returns how
/// many there are.
fn dedup_sorted(v: &mut [u32]) -> usize {
    let mut kept = 0;
    for i in 0..v.len() {
        if kept == 0 || v[i] != v[kept - 1] {
            v[kept] = v[i];
            kept += 1;
        }
    }
    kept
}

/// Inputs of one epoch fill: the per-rank communication aggregates of a
/// (mesh, placement) pair under a topology and network model.
pub(crate) struct EpochFill<'a> {
    pub pool: &'a WorkerPool,
    pub topology: &'a Topology,
    pub network: &'a NetworkConfig,
    pub spec: BlockSpec,
    pub dim: Dim,
    pub placement: &'a Placement,
    /// Cached neighbor topology of the mesh.
    pub graph: &'a ResidentGraph,
}

impl EpochFill<'_> {
    /// Fill `e` in place (all buffers recycled). When the simulator is
    /// traced, `lanes` holds one [`WorkerLane`] per task and the current
    /// step: each task records one host-track [`TracePhase::Exchange`] span
    /// into its own lane — at every task count, one included. Lanes observe
    /// wall clock only and feed nothing back, so traced runs stay
    /// bit-identical to untraced ones.
    pub(crate) fn run(&self, e: &mut CommEpoch, lanes: Option<(&mut [WorkerLane], u32)>) {
        match self.pool.tasks_for(self.topology.num_ranks) {
            1 => self.run_tasks::<true>(1, e, lanes),
            t_n => self.run_tasks::<false>(t_n, e, lanes),
        }
    }

    /// One traversal of the graph — boundary exchange and flux correction
    /// per relation — then the per-destination contention/sort pass, as
    /// `t_n` tasks owning the rank ranges of [`task_range`] (`SOLE` ⇔
    /// `t_n == 1`).
    ///
    /// Each task scans every row and applies src-slot updates (dispatch,
    /// memcpy, flux-send, message-class counters) when it owns `src`,
    /// dst-slot updates (service, transfer tail, senders, shm fan-in, flux
    /// receive) when it owns `dst`. A slot's contributions therefore arrive
    /// from exactly one task, in global row order, src term before dst term
    /// — the order `flux_ns` mixes whole and fractional nanoseconds in, so a
    /// rank-major traversal would move virtual time. The final contention +
    /// sender sort/dedup pass touches only dst-owned slots, so no barrier is
    /// needed between passes: one dispatch runs both.
    ///
    /// What a relation costs comes from a table priced once per fill
    /// ([`MsgCost`] per neighbor kind, plus the flux payload) and a
    /// rank → node table, so the loop body is loads, adds and compares.
    fn run_tasks<const SOLE: bool>(
        &self,
        t_n: usize,
        e: &mut CommEpoch,
        lanes: Option<(&mut [WorkerLane], u32)>,
    ) {
        let EpochFill {
            topology,
            network,
            spec,
            dim,
            placement,
            graph,
            ..
        } = *self;
        let r = topology.num_ranks;
        let nodes = topology.num_nodes();
        let congestion = network.congestion_enabled();

        let mut by_kind = [MsgCost::default(); 3];
        for codim in 1..=dim.rank() as u8 {
            by_kind[NeighborKind::from_codim(codim) as usize] =
                MsgCost::new(network, spec.message_bytes(dim, codim));
        }
        // Flux correction: every fine block sends conserved-flux data for
        // each face shared with a coarser neighbor — small messages, one
        // round per step (§II-B). The payload is the fine face restricted
        // onto the coarse grid: a quarter of a face exchange.
        let flux_cost = MsgCost::new(network, spec.message_bytes(dim, 1) / 4);

        e.reset(r);
        e.node_of.clear();
        e.node_of
            .extend((0..r).map(|rank| topology.node_of(rank) as u32));
        // Sender segment capacities from row lengths alone. The graph is
        // symmetric, so the relations into a rank's blocks number exactly
        // the relations out of them: rank `d` receives at most Σ deg(b) over
        // its blocks pushes, and `sender_off[d]..sender_off[d + 1]` of the
        // flat array is room for all of them.
        graph.for_each_row(|block, nbs| {
            let rank = placement.rank_of(block.index()) as usize;
            e.blocks_per_rank[rank] += 1;
            e.sender_off[rank + 1] += nbs.len() as u32;
        });
        for rank in 0..r {
            e.sender_off[rank + 1] += e.sender_off[rank];
        }
        e.senders.resize(e.sender_off[r] as usize, 0);
        e.partials.resize_with(t_n, EpochCounts::default);
        for p in e.partials.iter_mut() {
            p.reset(if congestion { nodes * nodes } else { 0 });
        }

        let (node_of, off) = (&e.node_of[..], &e.sender_off[..]);
        let dispatch = Disjoint::new(&mut e.dispatch_ns);
        let service = Disjoint::new(&mut e.service_ns);
        let memcpy = Disjoint::new(&mut e.memcpy_ns);
        let flux = Disjoint::new(&mut e.flux_ns);
        let tail = Disjoint::new(&mut e.transfer_tail_ns);
        let senders = Disjoint::new(&mut e.senders);
        let sender_len = Disjoint::new(&mut e.sender_len);
        let shm = Disjoint::new(&mut e.shm_in);
        let lanes = lanes.map(|(l, step)| (Disjoint::new(l), step));

        self.pool.run_with(&mut e.partials, |t, p| {
            let Range { start, end: hi } = task_range(t, t_n, r);
            let lo = if SOLE { 0 } else { start };
            let owns = |rank: usize| SOLE || (rank >= lo && rank < hi);
            let lane = lanes.as_ref().map(|(l, step)| {
                // SAFETY: lanes are indexed by the task id, one task each.
                let lane = unsafe { &mut l.slice(t, t + 1)[0] };
                (lane.now_ns(), lane, *step)
            });
            // Owned ranks' segments are one contiguous piece of `senders`.
            let seg_lo = off[lo] as usize;
            // SAFETY: `task_range` tiles `0..r`, so the tasks' rank ranges
            // [lo, hi) are pairwise disjoint, and `off` ascends, so their
            // segment ranges [off[lo], off[hi]) are too; every slice below is
            // indexed only by owned ranks (rk - lo) or their segments.
            let (dispatch, service, memcpy, flux, tail, senders, sender_len, shm) = unsafe {
                (
                    dispatch.slice(lo, hi),
                    service.slice(lo, hi),
                    memcpy.slice(lo, hi),
                    flux.slice(lo, hi),
                    tail.slice(lo, hi),
                    senders.slice(seg_lo, off[hi] as usize),
                    sender_len.slice(lo, hi),
                    shm.slice(lo, hi),
                )
            };

            graph.for_each_row(|block, nbs| {
                let src = placement.rank_of(block.index()) as usize;
                let src_owned = owns(src);
                let src_node = node_of[src];
                for n in nbs {
                    let dst = placement.rank_of(n.block.index()) as usize;
                    let cost = &by_kind[n.kind as usize];
                    // Only fine→coarse faces carry flux fix-ups.
                    let fluxes = n.level_delta == -1 && n.kind == NeighborKind::Face;
                    if dst == src {
                        if src_owned {
                            p.intra += 1;
                            memcpy[src - lo] += cost.memcpy;
                            if fluxes {
                                flux[src - lo] += flux_cost.memcpy;
                            }
                        }
                        continue;
                    }
                    let dst_owned = owns(dst);
                    if !src_owned && !dst_owned {
                        continue;
                    }
                    let local = node_of[dst] == src_node;
                    if src_owned {
                        let link = || src_node as usize * nodes + node_of[dst] as usize;
                        p.count_sent(local, link, cost.bytes);
                        dispatch[src - lo] += cost.dispatch;
                        if fluxes {
                            p.flux += 1;
                            flux[src - lo] += flux_cost.dispatch;
                            p.count_sent(local, link, flux_cost.bytes);
                        }
                    }
                    if dst_owned {
                        let d = dst - lo;
                        if local {
                            shm[d] += 1;
                        }
                        service[d] += cost.service[local as usize];
                        if cost.tail[local as usize] > tail[d] {
                            tail[d] = cost.tail[local as usize];
                        }
                        let seg = off[dst] as usize - seg_lo..off[dst + 1] as usize - seg_lo;
                        push_sender(&mut senders[seg], &mut sender_len[d], src as u32);
                        if fluxes {
                            flux[d] += flux_cost.service[local as usize];
                        }
                    }
                }
            });
            for (k, (svc, len)) in service.iter_mut().zip(sender_len).enumerate() {
                *svc += network.shm_contention_ns(shm[k]) as f64;
                let seg = &mut senders[off[lo + k] as usize - seg_lo..][..*len as usize];
                seg.sort_unstable();
                *len = dedup_sorted(seg) as u32;
            }
            if let Some((start_ns, lane, step)) = lane {
                lane.record_since(TracePhase::Exchange, step, start_ns);
            }
        });

        // Fixed-order merge of the associative integer partials: task 0's
        // counts become the epoch's (a swap — at one task that is the whole
        // merge), later tasks' are added in task order. The link-byte
        // matrices are u64 sums too, so the merged matrix is the same
        // however rows were split across tasks.
        let (first, rest) = e.partials.split_first_mut().expect("at least one task");
        std::mem::swap(&mut e.counts, first);
        for p in rest {
            e.counts.intra += p.intra;
            e.counts.local += p.local;
            e.counts.remote += p.remote;
            e.counts.flux += p.flux;
            for (acc, &b) in e.counts.link_bytes.iter_mut().zip(&p.link_bytes) {
                *acc += b;
            }
        }
        if congestion {
            self.fill_congestion(e);
        }
    }

    /// Epilogue of the fill when the credit model is live: convert the
    /// merged per-link byte matrix into per-rank stalls. A rank's round is
    /// gated by its node's most congested outgoing link (the send side
    /// blocks for credit returns) and incoming link (retransmits delay the
    /// service tail) — a function of the node, so each node's row and column
    /// are scanned once and the stalls broadcast to its ranks.
    /// [`NetworkConfig::congestion_ns`] is monotone, so taking the byte max
    /// first equals maxing the stalls — and prices each worst link exactly
    /// once. Pure integer maxima over the merged matrix: identical at any
    /// thread count.
    fn fill_congestion(&self, e: &mut CommEpoch) {
        let nodes = self.topology.num_nodes();
        let link_bytes = &e.counts.link_bytes;
        for node in 0..nodes {
            let mut worst_out = 0u64;
            let mut worst_in = 0u64;
            for peer in 0..nodes {
                worst_out = worst_out.max(link_bytes[node * nodes + peer]);
                worst_in = worst_in.max(link_bytes[peer * nodes + node]);
            }
            let ranks = self.topology.ranks_on_node(node);
            e.cong_send_ns[ranks.clone()].fill(self.network.congestion_ns(worst_out) as f64);
            e.cong_recv_ns[ranks].fill(self.network.congestion_ns(worst_in) as f64);
        }
    }
}

/// Compute-phase scatter: `compute[rank] += block_ns[b] * rank_mult[rank]`
/// for every block, plus the per-block `measured` record. Each task scans
/// all blocks and accumulates only its owned ranks' `compute` slots (block
/// order per slot); `measured[b]` is written exactly once, by the owner of
/// block `b`'s rank. The caller zeroes both buffers.
pub(crate) fn compute_phase(
    pool: &WorkerPool,
    block_ns: &[f64],
    placement: &Placement,
    rank_mult: &[f64],
    compute: &mut [f64],
    measured: &mut [f64],
) {
    let r = compute.len();
    let t_n = pool.tasks_for(r);
    let (comp, meas) = (Disjoint::new(compute), Disjoint::new(measured));
    let scatter = if t_n == 1 {
        scatter_owned::<true>
    } else {
        scatter_owned::<false>
    };
    pool.run(t_n, |t| {
        let own = task_range(t, t_n, r);
        scatter(own, block_ns, placement, rank_mult, &comp, &meas)
    });
}

/// One task of [`compute_phase`], owning ranks `own` (`SOLE` ⇔ all of them).
fn scatter_owned<const SOLE: bool>(
    own: Range<usize>,
    block_ns: &[f64],
    placement: &Placement,
    rank_mult: &[f64],
    comp: &Disjoint<'_, f64>,
    meas: &Disjoint<'_, f64>,
) {
    let lo = if SOLE { 0 } else { own.start };
    // SAFETY: `task_range` tiles the rank space, so the tasks' rank ranges
    // are pairwise disjoint.
    let comp = unsafe { comp.slice(lo, own.end) };
    for (b, &base) in block_ns.iter().enumerate() {
        let rank = placement.rank_of(b) as usize;
        if !SOLE && !own.contains(&rank) {
            continue;
        }
        let v = base * rank_mult[rank];
        comp[rank - lo] += v;
        // SAFETY: `measured[b]` has exactly one writer, the owner of
        // `placement.rank_of(b)`.
        unsafe { meas.write(b, v) };
    }
}

/// Boundary-exchange finish times: each rank's ready time (compute +
/// dispatch + memcpy) followed by its arrival-constrained finish, fused per
/// owned rank — a rank's `finish` reads its own ready time plus *other*
/// ranks' send times (read-only shared). Per-rank NIC slowdowns (1.0 on
/// healthy timelines — multiplying by 1.0 is bit-exact) stretch the
/// fabric-facing terms: dispatch, service, flux, and the transfer tail.
/// Memcpys don't ride the NIC.
///
/// `send_at` is pooled scratch: when each rank's last boundary send is
/// dispatched this step. It depends on the sender alone, so it is priced
/// once per rank on the calling thread (O(ranks)) rather than once per
/// (receiver, sender) pair inside the tasks.
pub(crate) fn finish_times(
    pool: &WorkerPool,
    cfg: &SimConfig,
    e: &CommEpoch,
    compute: &[f64],
    nic_slow: &[f64],
    send_at: &mut [f64],
    finish: &mut [f64],
) {
    let xs = cfg.exchanges_per_step as f64;
    let r = compute.len();
    // With the tuned sends-first schedule, dispatch times are only weakly
    // coupled to the sender's compute (§IV-B/§IV-D).
    for (s, at) in send_at.iter_mut().enumerate() {
        *at = cfg.send_coupling * compute[s]
            + xs * e.dispatch_ns[s] * nic_slow[s]
            + xs * e.cong_send_ns[s] * nic_slow[s];
    }
    let send_at = &*send_at;
    let t_n = pool.tasks_for(r);
    let finish = Disjoint::new(finish);
    pool.run(t_n, |t| {
        let own = task_range(t, t_n, r);
        // SAFETY: `task_range` tiles `0..r`, so tasks own pairwise-disjoint
        // rank ranges.
        let finish = unsafe { finish.slice(own.start, own.end) };
        for (rank, finish) in own.zip(finish) {
            // Congestion terms are exactly 0.0 while the credit model is
            // disabled, so adding them is bit-exact for the default stacks.
            let ready = compute[rank]
                + xs * (e.dispatch_ns[rank] * nic_slow[rank] + e.memcpy_ns[rank])
                + e.flux_ns[rank] * nic_slow[rank]
                + xs * e.cong_send_ns[rank] * nic_slow[rank];
            // Last inbound message ~ slowest sender's dispatch + tail.
            let senders = e.senders_of(rank);
            let mut arrival = 0.0f64;
            for &s in senders {
                if send_at[s as usize] > arrival {
                    arrival = send_at[s as usize];
                }
            }
            if !senders.is_empty() {
                arrival += e.transfer_tail_ns[rank] * nic_slow[rank];
            }
            // Async masking: independent work from co-resident blocks hides
            // part of the arrival wait (§IV-D).
            let raw_wait = (arrival - ready).max(0.0);
            let nb = e.blocks_per_rank[rank].max(1) as f64;
            let masking = cfg.overlap_efficiency * (1.0 - 1.0 / nb);
            *finish = ready
                + raw_wait * (1.0 - masking)
                + xs * e.service_ns[rank] * nic_slow[rank]
                + xs * e.cong_recv_ns[rank] * nic_slow[rank];
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use amr_mesh::{AmrMesh, MeshConfig, RefineTag};
    use std::collections::BTreeSet;

    #[test]
    fn sender_segments_hold_each_ranks_sorted_distinct_senders() {
        let mut mesh = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (64, 64, 64), 2));
        mesh.adapt(|b| match b.id.index() % 5 {
            0 => RefineTag::Refine,
            _ => RefineTag::Keep,
        });
        let (n, r) = (mesh.num_blocks(), 24);
        // Scattered: SFC-adjacent blocks land on different ranks, so no
        // rank's blocks (or inbound sender runs) are contiguous.
        let placement = Placement::new((0..n).map(|b| (b * 7 % r) as u32).collect(), r);
        let graph = ResidentGraph::Flat(mesh.neighbor_graph());
        for threads in [1, 3] {
            let pool = WorkerPool::new(threads);
            let fill = EpochFill {
                pool: &pool,
                topology: &Topology::new(r, 4),
                network: &NetworkConfig::tuned(),
                spec: mesh.config().spec,
                dim: Dim::D3,
                placement: &placement,
                graph: &graph,
            };
            let mut e = CommEpoch::default();
            fill.run(&mut e, None);
            assert_eq!(e.partials.len(), threads);
            // Segments tile the flat array...
            assert_eq!((e.sender_off[0], e.sender_off.len()), (0, r + 1));
            assert_eq!(e.sender_off[r] as usize, e.senders.len());
            for rank in 0..r {
                let (mut want, mut degree) = (BTreeSet::new(), 0);
                graph.for_each_row(|block, nbs| {
                    if placement.rank_of(block.index()) as usize == rank {
                        degree += nbs.len() as u32;
                        want.extend(nbs.iter().map(|n| placement.rank_of(n.block.index())));
                    }
                });
                want.remove(&(rank as u32));
                // ...each as wide as the symmetric-degree bound, holding
                // exactly the rank's distinct senders in ascending order.
                assert_eq!(e.sender_off[rank + 1] - e.sender_off[rank], degree);
                assert!(e.sender_len[rank] <= degree);
                assert!(e.senders_of(rank).iter().copied().eq(want), "rank {rank}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "sender segment overflow")]
    fn sender_segment_overflow_is_a_hard_failure() {
        let (mut seg, mut len) = ([0u32; 2], 0);
        for src in [3, 3, 1, 2] {
            push_sender(&mut seg, &mut len, src);
        }
    }
}
