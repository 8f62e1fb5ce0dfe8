//! The macro-simulator's rank-range kernels: epoch fill, compute scatter and
//! the fused ready/finish pass — each written once and run on a
//! [`WorkerPool`] at whatever task count `SimConfig::threads` allows.
//!
//! Every kernel here follows one rule — **slot ownership**: the rank space
//! `0..r` is split into contiguous ranges ([`task_range`]), one per task,
//! and each task writes only the per-rank slots inside its own range.
//! Virtual time is **bitwise identical** at any thread count because every
//! slot's value is computed the same way whatever the split:
//!
//! * The epoch fill is *rank-major*: a task walks its own ranks' blocks and
//!   their neighbour rows, counts messages by class in integers and prices
//!   each rank once. Every per-message cost is a whole number of
//!   nanoseconds, so those sums are exact in `f64` and no order of them can
//!   move a bit. Its senders are distinct and unordered.
//! * The compute scatter adds fractional block costs, and f64 addition is
//!   not associative (merging per-chunk partial sums would reorder it), so
//!   each task scans every block in order and applies only the updates whose
//!   rank it owns: every slot accumulates in global block order.
//!
//! Integer message counters are associative, so those use per-task partials
//! ([`EpochCounts`]) summed in task order after the join.
//!
//! `threads == 1` is not a separate path: it is the single-task schedule of
//! the same kernels, run inline by a pool that spawned nothing. The one task
//! then owns every rank; the compute scatter takes that fact as a const
//! parameter (`SOLE`) so its ownership test folds away.
//!
//! The kernels receive only plain-data views (`Topology`, `NetworkConfig`,
//! `Placement`, `GraphView`), never `&AmrMesh`. This module is policed by
//! the workspace `disallowed_types` clippy guard: no `Rc`, `RefCell`, or
//! `Cell`; shared mutable state crosses the dispatch boundary only through
//! [`Disjoint`](amr_mesh::pool::Disjoint) range ownership.

use crate::macrosim::{CommEpoch, SimConfig};
use crate::network::NetworkConfig;
use crate::topology::Topology;
use amr_core::Placement;
use amr_mesh::pool::{task_range, Disjoint, WorkerPool};
use amr_mesh::{BlockId, BlockSpec, Dim, NeighborGraph, NeighborKind};
use amr_telemetry::{TracePhase, WorkerLane};
use std::ops::Range;

/// Span slots pre-allocated per worker lane the first time a traced
/// simulator fills an epoch (one host span per task per epoch fill, so this
/// covers hundreds of fills before the ring recycles).
pub(crate) const LANE_SPAN_CAPACITY: usize = 256;

/// Integer counters of one epoch: message counts by class and, under the
/// credit model, bytes per directed node link. Each task fills a private
/// one; they are merged in task order after the join.
#[derive(Debug, Clone, Default)]
pub(crate) struct EpochCounts {
    /// Per-round message counts by class.
    pub intra: u64,
    pub local: u64,
    pub remote: u64,
    /// Flux-correction MPI messages per step.
    pub flux: u64,
    /// One round's remote boundary+flux bytes per directed node link, flat
    /// `src_node * num_nodes + dst_node` (counted by the sender's task, so
    /// each message lands in exactly one task's counts). Sized `nodes²` only
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
}

/// What one message of a class costs under the network model: every term the
/// fill charges per relation, evaluated once per fill instead of once per
/// relation (the model functions divide and saturate). Each is a whole
/// number of nanoseconds. `service` and `tail` are indexed by
/// `same_node as usize`.
#[derive(Debug, Clone, Copy, Default)]
struct MsgCost {
    bytes: u64,
    /// Intra-rank copy ([`NetworkConfig::memcpy_ns`]).
    memcpy: f64,
    dispatch: f64,
    service: [f64; 2],
    tail: [f64; 2],
}

impl MsgCost {
    fn new(network: &NetworkConfig, bytes: u64) -> MsgCost {
        MsgCost {
            bytes,
            memcpy: network.memcpy_ns(bytes) as f64,
            dispatch: network.dispatch_ns(bytes) as f64,
            service: [false, true].map(|local| network.service_ns(bytes, local) as f64),
            tail: [false, true].map(|local| network.transfer_ns(bytes, local) as f64),
        }
    }
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
    pub graph: &'a NeighborGraph,
}

impl EpochFill<'_> {
    /// Fill `e` in place (all buffers recycled), rank-major, as `t_n` tasks
    /// owning the rank ranges of [`task_range`]. When the simulator is
    /// traced, `lanes` holds one [`WorkerLane`] per task and the current
    /// step: each task records one host-track [`TracePhase::Exchange`] span
    /// into its own lane — at every task count, one included. Lanes observe
    /// wall clock only and feed nothing back, so traced runs stay
    /// bit-identical to untraced ones.
    ///
    /// The graph is symmetric (a relation's mirror has the same kind and the
    /// negated level delta), so one walk over a rank's own rows sees both
    /// directions of every message it takes part in: a relation `b → n` is
    /// a message the rank sends, and its mirror one it receives, of the same
    /// kind and class. Each task counts its ranks' relations by kind, flux
    /// fix-up direction and class in integers and prices each rank once from
    /// a table built per fill ([`MsgCost`] per neighbor kind, plus the flux
    /// payload). Every price is whole nanoseconds, so each `f64` slot holds
    /// the exact sum of its messages' costs (below 2^53 ns), the value any
    /// order of adding them gives.
    pub(crate) fn run(&self, e: &mut CommEpoch, lanes: Option<(&mut [WorkerLane], u32)>) {
        let EpochFill {
            pool,
            topology,
            network,
            spec,
            dim,
            placement,
            graph,
        } = *self;
        let r = topology.num_ranks;
        let t_n = pool.tasks_for(r);
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
        // The same prices by counting key (see `msgs` below): a face to a
        // coarser or a finer block is a face message too.
        let by_key = [by_kind[0], by_kind[1], by_kind[2], by_kind[0], by_kind[0]];

        e.reset(r, t_n);
        e.node_of.clear();
        e.node_of
            .extend((0..r).map(|rank| topology.node_of(rank) as u32));
        // Sender segments: rank `d`'s is `sender_off[d]..sender_off[d + 1]`,
        // Σ deg(b) over its blocks wide — at least its relations to other
        // ranks, hence at least its distinct senders.
        for (block, nbs) in graph.iter() {
            let rank = placement.rank_of(block.index()) as usize;
            e.blocks_per_rank[rank] += 1;
            e.sender_off[rank + 1] += nbs.len() as u32;
        }
        for rank in 0..r {
            e.sender_off[rank + 1] += e.sender_off[rank];
        }
        e.senders.resize(e.sender_off[r] as usize, 0);
        // The head of each segment lists the rank's blocks that have a
        // neighbor, ascending; `sender_len` counts them until the walk
        // replaces it with the sender count.
        for (block, nbs) in graph.iter() {
            if !nbs.is_empty() {
                let rank = placement.rank_of(block.index()) as usize;
                e.senders[(e.sender_off[rank] + e.sender_len[rank]) as usize] = block.0;
                e.sender_len[rank] += 1;
            }
        }
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
        let stamp = Disjoint::new(&mut e.stamp);
        let lanes = lanes.map(|(l, step)| (Disjoint::new(l), step));

        pool.run_with(&mut e.partials, |t, p| {
            let Range { start: lo, end: hi } = task_range(t, t_n, r);
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
            // indexed only by owned ranks (d - lo) or their segments. Task
            // `t` alone owns stamp row `t`.
            let (dispatch, service, memcpy, flux, tail, senders, sender_len, stamp) = unsafe {
                (
                    dispatch.slice(lo, hi),
                    service.slice(lo, hi),
                    memcpy.slice(lo, hi),
                    flux.slice(lo, hi),
                    tail.slice(lo, hi),
                    senders.slice(seg_lo, off[hi] as usize),
                    sender_len.slice(lo, hi),
                    stamp.slice(t * r, (t + 1) * r),
                )
            };

            for (k, d) in (lo..hi).enumerate() {
                let seg = &mut senders[off[d] as usize - seg_lo..off[d + 1] as usize - seg_lo];
                let node = node_of[d];
                // Relations by [key][class]. The key is the neighbor kind,
                // or 3 / 4 for a face to a coarser / finer block: only
                // fine→coarse faces carry flux fix-ups, so this block sends
                // one across the first and receives one across the second.
                // Class 0 is intra-rank, 1 + local another rank on a remote /
                // the same node.
                let mut msgs = [[0u32; 3]; 5];
                // Listed blocks are walked last to first while senders fill
                // the segment from its end down, each written one slot below
                // the last and kept if new. Every listed block has a
                // neighbor, so the written slot is never an unread block.
                // `d` is stamped first: no rank is its own sender.
                let (mut listed, mut top) = (sender_len[k] as usize, seg.len());
                stamp[d] = d;
                while listed > 0 {
                    listed -= 1;
                    for n in graph.neighbors(BlockId(seg[listed])) {
                        let s = placement.rank_of(n.block.index()) as usize;
                        let local = node_of[s] == node;
                        let class = (s != d) as usize * (1 + local as usize);
                        let key = match (n.kind, n.level_delta) {
                            (NeighborKind::Face, -1) => 3,
                            (NeighborKind::Face, 1) => 4,
                            (kind, _) => kind as usize,
                        };
                        msgs[key][class] += 1;
                        if class == 1 && congestion {
                            let sends_fix = n.kind == NeighborKind::Face && n.level_delta == -1;
                            let fix_bytes = if sends_fix { flux_cost.bytes } else { 0 };
                            p.link_bytes[node as usize * nodes + node_of[s] as usize] +=
                                by_kind[n.kind as usize].bytes + fix_bytes;
                        }
                        let fresh = stamp[s] != d;
                        stamp[s] = d;
                        seg[top - 1] = s as u32;
                        top -= fresh as usize;
                    }
                }
                sender_len[k] = (seg.len() - top) as u32;

                // Each message to another rank is sent and, through its
                // mirror, received; intra-rank ones are one memcpy.
                let (mut copy, mut send, mut recv, mut slowest) = (0.0, 0.0, 0.0, 0.0f64);
                let mut sent = [0u32; 2];
                for (cost, m) in by_key.iter().zip(&msgs) {
                    copy += m[0] as f64 * cost.memcpy;
                    p.intra += m[0] as u64;
                    for local in 0..2 {
                        let c = m[1 + local];
                        send += c as f64 * cost.dispatch;
                        recv += c as f64 * cost.service[local];
                        if c > 0 && cost.tail[local] > slowest {
                            slowest = cost.tail[local];
                        }
                        sent[local] += c;
                    }
                }
                let [fix_sent, fix_recv] = [msgs[3], msgs[4]];
                memcpy[k] = copy;
                dispatch[k] = send;
                service[k] = recv + network.shm_contention_ns(sent[1] as usize) as f64;
                tail[k] = slowest;
                flux[k] = fix_sent[0] as f64 * flux_cost.memcpy
                    + (fix_sent[1] + fix_sent[2]) as f64 * flux_cost.dispatch
                    + fix_recv[1] as f64 * flux_cost.service[0]
                    + fix_recv[2] as f64 * flux_cost.service[1];
                p.local += (sent[1] + fix_sent[2]) as u64;
                p.remote += (sent[0] + fix_sent[1]) as u64;
                p.flux += (fix_sent[1] + fix_sent[2]) as u64;
            }
            if let Some((start_ns, lane, step)) = lane {
                lane.record_since(TracePhase::Exchange, step, start_ns);
            }
        });

        // Fixed-order merge of the associative integer partials: task 0's
        // counts become the epoch's (a swap — at one task that is the whole
        // merge), later tasks' are added in task order. The link-byte
        // matrices are u64 sums too, so the merged matrix is the same
        // however ranks were split across tasks.
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

/// The row-major fill the rank-major one replaced, kept as its oracle: one
/// traversal of every row per task, src-slot updates applied by the task
/// owning the sender and dst-slot updates by the task owning the receiver,
/// each slot's terms added in global row order; senders pushed into the
/// receiver's segment, then sorted and deduplicated. Its tasks run one after
/// another on the calling thread — each slot has one owner, so that changes
/// no value — and its segments keep their senders at the front, sorted
/// ([`senders_of`]).
#[cfg(test)]
mod row_major_oracle {
    use super::*;

    impl EpochCounts {
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

    /// Append `src` to a rank's sender segment (`seg[..*len]` is live) unless
    /// it repeats the last entry.
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

    /// The ranks that send to `rank` in an oracle-filled epoch, ascending.
    pub(super) fn senders_of(e: &CommEpoch, rank: usize) -> &[u32] {
        &e.senders[e.sender_off[rank] as usize..][..e.sender_len[rank] as usize]
    }

    /// Fill `e` row-major as `fill.pool`'s task count of tasks.
    pub(super) fn run(fill: &EpochFill<'_>, e: &mut CommEpoch) {
        match fill.pool.tasks_for(fill.topology.num_ranks) {
            1 => run_tasks::<true>(fill, 1, e),
            t_n => run_tasks::<false>(fill, t_n, e),
        }
    }

    fn run_tasks<const SOLE: bool>(fill: &EpochFill<'_>, t_n: usize, e: &mut CommEpoch) {
        let EpochFill {
            topology,
            network,
            spec,
            dim,
            placement,
            graph,
            ..
        } = *fill;
        let r = topology.num_ranks;
        let nodes = topology.num_nodes();
        let congestion = network.congestion_enabled();

        let mut by_kind = [MsgCost::default(); 3];
        for codim in 1..=dim.rank() as u8 {
            by_kind[NeighborKind::from_codim(codim) as usize] =
                MsgCost::new(network, spec.message_bytes(dim, codim));
        }
        let flux_cost = MsgCost::new(network, spec.message_bytes(dim, 1) / 4);

        e.reset(r, t_n);
        let mut shm_in = vec![0usize; r];
        e.node_of.clear();
        e.node_of
            .extend((0..r).map(|rank| topology.node_of(rank) as u32));
        for (block, nbs) in graph.iter() {
            let rank = placement.rank_of(block.index()) as usize;
            e.blocks_per_rank[rank] += 1;
            e.sender_off[rank + 1] += nbs.len() as u32;
        }
        for rank in 0..r {
            e.sender_off[rank + 1] += e.sender_off[rank];
        }
        e.senders.resize(e.sender_off[r] as usize, 0);
        e.partials.resize_with(t_n, EpochCounts::default);
        for p in e.partials.iter_mut() {
            p.reset(if congestion { nodes * nodes } else { 0 });
        }

        let (node_of, off) = (&e.node_of[..], &e.sender_off[..]);
        for (t, p) in e.partials.iter_mut().enumerate() {
            let Range { start, end: hi } = task_range(t, t_n, r);
            let lo = if SOLE { 0 } else { start };
            let owns = |rank: usize| SOLE || (rank >= lo && rank < hi);
            let seg_lo = off[lo] as usize;
            let (dispatch, service, memcpy, flux, tail, senders, sender_len, shm) = (
                &mut e.dispatch_ns[lo..hi],
                &mut e.service_ns[lo..hi],
                &mut e.memcpy_ns[lo..hi],
                &mut e.flux_ns[lo..hi],
                &mut e.transfer_tail_ns[lo..hi],
                &mut e.senders[seg_lo..off[hi] as usize],
                &mut e.sender_len[lo..hi],
                &mut shm_in[lo..hi],
            );

            for (block, nbs) in graph.iter() {
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
            }
            for (k, (svc, len)) in service.iter_mut().zip(sender_len).enumerate() {
                *svc += network.shm_contention_ns(shm[k]) as f64;
                let seg = &mut senders[off[lo + k] as usize - seg_lo..][..*len as usize];
                seg.sort_unstable();
                *len = dedup_sorted(seg) as u32;
            }
        }

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
            fill.fill_congestion(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amr_core::policies::{Baseline, Lpt, PlacementPolicy};
    use amr_mesh::{Aabb, AmrMesh, MeshConfig, RefineTag};
    use proptest::prelude::*;

    /// A 2-D or 3-D mesh of 1-4 roots an axis, bounded or periodic, refined
    /// at random (a fifth of the blocks a round, up to three levels).
    fn random_mesh(dim_3d: bool, roots: (u32, u32, u32), periodic: bool, seed: u64) -> AmrMesh {
        let mut mesh = AmrMesh::new(MeshConfig {
            dim: if dim_3d { Dim::D3 } else { Dim::D2 },
            roots: (roots.0, roots.1, if dim_3d { roots.2 } else { 1 }),
            domain: Aabb::unit(),
            spec: BlockSpec::default(),
            max_level: 3,
            periodic,
        });
        for round in 0..seed % 4 {
            mesh.adapt(|b| {
                // splitmix64 of (seed, round, block)
                let mut z = (seed << 20 ^ round << 16 ^ b.id.index() as u64)
                    .wrapping_add(0x9e37_79b9_7f4a_7c15);
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                match (z ^ (z >> 31)) % 5 {
                    0 => RefineTag::Refine,
                    _ => RefineTag::Keep,
                }
            });
        }
        mesh
    }

    /// Every field of a filled epoch, `f64`s as bits; each rank's senders
    /// sorted, not deduplicated — equal to the oracle's only if distinct.
    fn fields(e: &CommEpoch, senders: impl Fn(usize) -> Vec<u32>) -> Vec<Vec<u64>> {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let c = &e.counts;
        let mut out = vec![
            bits(&e.dispatch_ns),
            bits(&e.service_ns),
            bits(&e.memcpy_ns),
            bits(&e.flux_ns),
            bits(&e.transfer_tail_ns),
            bits(&e.cong_send_ns),
            bits(&e.cong_recv_ns),
            e.blocks_per_rank.iter().map(|&b| b as u64).collect(),
            vec![c.intra, c.local, c.remote, c.flux],
            c.link_bytes.clone(),
        ];
        for rank in 0..e.blocks_per_rank.len() {
            let mut s: Vec<u64> = senders(rank).into_iter().map(u64::from).collect();
            s.sort_unstable();
            out.push(s);
        }
        out
    }

    proptest! {
        /// The rank-major fill equals the row-major oracle bit for bit on
        /// every field, and on its senders as sets, over random refined
        /// meshes, three placements, three network stacks and 1-3 threads.
        #[test]
        fn rank_major_fill_matches_row_major_oracle(
            dim_3d: bool,
            periodic: bool,
            roots in (1u32..5, 1u32..5, 1u32..5),
            seed in 0u64..1_000_000,
            ranks in 1usize..40,
            per_node in 1usize..6,
        ) {
            let mesh = random_mesh(dim_3d, roots, periodic, seed);
            let n = mesh.num_blocks();
            let costs: Vec<f64> = (0..n).map(|b| 1.0 + ((b as u64 * seed) % 17) as f64).collect();
            let placements = [
                Baseline.place(&costs, ranks),
                Placement::new((0..n).map(|b| (b * 7 % ranks) as u32).collect(), ranks),
                Lpt.place(&costs, ranks),
            ];
            let graph = mesh.neighbor_graph();
            let topology = Topology::new(ranks, per_node);
            let networks = [
                NetworkConfig::tuned(),
                NetworkConfig::untuned(),
                NetworkConfig::congested(),
            ];
            for threads in 1..=3 {
                let pool = WorkerPool::new(threads);
                for (placement, network) in placements
                    .iter()
                    .flat_map(|p| networks.iter().map(move |w| (p, w)))
                {
                    let fill = EpochFill {
                        pool: &pool,
                        topology: &topology,
                        network,
                        spec: mesh.config().spec,
                        dim: mesh.config().dim,
                        placement,
                        graph: &graph,
                    };
                    let (mut got, mut want) = (CommEpoch::default(), CommEpoch::default());
                    fill.run(&mut got, None);
                    row_major_oracle::run(&fill, &mut want);
                    prop_assert_eq!(got.partials.len(), pool.tasks_for(ranks));
                    prop_assert_eq!(
                        fields(&got, |rank| got.senders_of(rank).to_vec()),
                        fields(&want, |rank| row_major_oracle::senders_of(&want, rank).to_vec())
                    );
                }
            }
        }
    }

    /// A payload shared memory does not divide: 1 001 B at 10 B/ns is a
    /// 100 ns copy (truncated like every per-message term), and the flux
    /// quarter, 250 B, a 25 ns one.
    #[test]
    fn non_divisible_intra_payload_is_priced_in_whole_nanoseconds() {
        let spec = BlockSpec {
            cells_per_axis: 1,
            ghost_width: 1,
            num_vars: 1,
            bytes_per_value: 1001,
        };
        let mut mesh = AmrMesh::new(MeshConfig {
            dim: Dim::D3,
            roots: (2, 2, 2),
            domain: Aabb::unit(),
            spec,
            max_level: 2,
            periodic: false,
        });
        mesh.adapt(|b| match b.id.index() {
            0 => RefineTag::Refine,
            _ => RefineTag::Keep,
        });
        let graph = mesh.neighbor_graph();
        let network = NetworkConfig::tuned();
        assert_eq!(network.memcpy_ns(1001), 100);
        let placement = Placement::new(vec![0; mesh.num_blocks()], 1);
        let fill = EpochFill {
            pool: &WorkerPool::new(1),
            topology: &Topology::new(1, 1),
            network: &network,
            spec,
            dim: Dim::D3,
            placement: &placement,
            graph: &graph,
        };
        let mut e = CommEpoch::default();
        fill.run(&mut e, None);
        let relations = graph.total_relations() as u64;
        let mut fine_to_coarse = 0u64;
        for (_, nbs) in graph.iter() {
            fine_to_coarse += nbs
                .iter()
                .filter(|n| n.kind == NeighborKind::Face && n.level_delta == -1)
                .count() as u64;
        }
        assert!(fine_to_coarse > 0);
        assert_eq!(e.counts.intra, relations);
        assert_eq!(e.memcpy_ns[0], 100.0 * relations as f64);
        assert_eq!(e.flux_ns[0], 25.0 * fine_to_coarse as f64);
        assert!(e.senders_of(0).is_empty());
    }
}
