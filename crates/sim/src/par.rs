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

    /// Boundary pass, flux pass, and the per-destination contention/sort
    /// pass, as `t_n` tasks owning the rank ranges of [`task_range`]
    /// (`SOLE` ⇔ `t_n == 1`).
    ///
    /// Each task scans both graph passes in full and applies src-slot
    /// updates (dispatch, memcpy, flux-send, message-class counters) when it
    /// owns `src`, dst-slot updates (service, transfer tail, senders, shm
    /// fan-in, flux receive) when it owns `dst`. A slot's contributions
    /// therefore arrive from exactly one task, in global row order. The
    /// final contention + `senders` sort/dedup pass touches only dst-owned
    /// slots, so no barrier is needed between passes: one dispatch runs all
    /// three.
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
        let link_of =
            |src: usize, dst: usize| topology.node_of(src) * nodes + topology.node_of(dst);

        e.reset(r);
        for b in 0..placement.num_blocks() {
            e.blocks_per_rank[placement.rank_of(b) as usize] += 1;
        }
        e.partials.resize_with(t_n, EpochCounts::default);
        for p in e.partials.iter_mut() {
            p.reset(if congestion { nodes * nodes } else { 0 });
        }

        let dispatch = Disjoint::new(&mut e.dispatch_ns);
        let service = Disjoint::new(&mut e.service_ns);
        let memcpy = Disjoint::new(&mut e.memcpy_ns);
        let flux = Disjoint::new(&mut e.flux_ns);
        let tail = Disjoint::new(&mut e.transfer_tail_ns);
        let senders = Disjoint::new(&mut e.senders);
        let shm = Disjoint::new(&mut e.shm_in);
        let lanes = lanes.map(|(l, step)| (Disjoint::new(l), step));

        self.pool.run_with(&mut e.partials, |t, p| {
            let Range { start, end: hi } = task_range(t, t_n, r);
            let lo = if SOLE { 0 } else { start };
            let owns = |rank: usize| SOLE || (rank >= lo && rank < hi);
            // SAFETY: lanes are indexed by the task id, one task each.
            let lane = lanes.as_ref().map(|(l, step)| {
                let lane = unsafe { &mut l.slice(t, t + 1)[0] };
                (lane.now_ns(), lane, *step)
            });
            // SAFETY: `task_range` tiles `0..r`, so the tasks' rank ranges
            // [lo, hi) are pairwise disjoint; every slice below is indexed
            // only by owned ranks (rk - lo).
            let (dispatch, service, memcpy, flux, tail, senders, shm) = unsafe {
                (
                    dispatch.slice(lo, hi),
                    service.slice(lo, hi),
                    memcpy.slice(lo, hi),
                    flux.slice(lo, hi),
                    tail.slice(lo, hi),
                    senders.slice(lo, hi),
                    shm.slice(lo, hi),
                )
            };

            graph.for_each_row(|block, nbs| {
                let src = placement.rank_of(block.index()) as usize;
                let src_owned = owns(src);
                for n in nbs {
                    let dst = placement.rank_of(n.block.index()) as usize;
                    if dst == src {
                        if src_owned {
                            p.intra += 1;
                            // memcpy at memory bandwidth (use shm bandwidth).
                            let bytes = spec.message_bytes(dim, n.kind.codim());
                            memcpy[src - lo] += bytes as f64 / network.shm.bytes_per_ns;
                        }
                        continue;
                    }
                    let dst_owned = owns(dst);
                    if !src_owned && !dst_owned {
                        continue;
                    }
                    let bytes = spec.message_bytes(dim, n.kind.codim());
                    let local = topology.same_node(src, dst);
                    if src_owned {
                        p.count_sent(local, || link_of(src, dst), bytes);
                        dispatch[src - lo] += network.dispatch_ns(bytes) as f64;
                    }
                    if dst_owned {
                        if local {
                            shm[dst - lo] += 1;
                        }
                        service[dst - lo] += network.service_ns(bytes, local) as f64;
                        let tl = network.transfer_ns(bytes, local) as f64;
                        if tl > tail[dst - lo] {
                            tail[dst - lo] = tl;
                        }
                        // A rank's blocks are SFC-contiguous, so one sender's
                        // messages arrive in runs: skipping repeats of the
                        // last sender keeps these rows near their final size.
                        // The sort+dedup pass below resolves the rest (no
                        // per-rank hash/tree set in the hot loop).
                        let from = &mut senders[dst - lo];
                        if from.last() != Some(&(src as u32)) {
                            from.push(src as u32);
                        }
                    }
                }
            });
            // Flux correction: every fine block sends conserved-flux data
            // for each face shared with a coarser neighbor — small messages,
            // one round per step (§II-B). The payload is the fine face
            // restricted onto the coarse grid: a quarter of a face exchange.
            graph.for_each_row(|block, nbs| {
                let src = placement.rank_of(block.index()) as usize;
                let src_owned = owns(src);
                for n in nbs {
                    if n.level_delta != -1 || n.kind != NeighborKind::Face {
                        continue; // only fine→coarse faces carry flux fix-ups
                    }
                    let bytes = spec.message_bytes(dim, 1) / 4;
                    let dst = placement.rank_of(n.block.index()) as usize;
                    if dst == src {
                        if src_owned {
                            flux[src - lo] += bytes as f64 / network.shm.bytes_per_ns;
                        }
                        continue;
                    }
                    let dst_owned = owns(dst);
                    if !src_owned && !dst_owned {
                        continue;
                    }
                    let local = topology.same_node(src, dst);
                    if src_owned {
                        p.flux += 1;
                        flux[src - lo] += network.dispatch_ns(bytes) as f64;
                        p.count_sent(local, || link_of(src, dst), bytes);
                    }
                    if dst_owned {
                        flux[dst - lo] += network.service_ns(bytes, local) as f64;
                    }
                }
            });
            for (svc, (&arrivals, from)) in service.iter_mut().zip(shm.iter().zip(senders)) {
                *svc += network.shm_contention_ns(arrivals) as f64;
                from.sort_unstable();
                from.dedup();
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
    /// service tail). [`NetworkConfig::congestion_ns`] is monotone, so
    /// taking the byte max first equals maxing the stalls — and prices each
    /// worst link exactly once. Pure integer maxima over the merged matrix:
    /// identical at any thread count.
    fn fill_congestion(&self, e: &mut CommEpoch) {
        let nodes = self.topology.num_nodes();
        let link_bytes = &e.counts.link_bytes;
        for rank in 0..self.topology.num_ranks {
            let sn = self.topology.node_of(rank);
            let mut worst_out = 0u64;
            let mut worst_in = 0u64;
            for peer in 0..nodes {
                worst_out = worst_out.max(link_bytes[sn * nodes + peer]);
                worst_in = worst_in.max(link_bytes[peer * nodes + sn]);
            }
            e.cong_send_ns[rank] = self.network.congestion_ns(worst_out) as f64;
            e.cong_recv_ns[rank] = self.network.congestion_ns(worst_in) as f64;
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
/// ranks' `compute` and epoch dispatch times (read-only shared). Per-rank
/// NIC slowdowns (1.0 on healthy timelines — multiplying by 1.0 is
/// bit-exact) stretch the fabric-facing terms: dispatch, service, flux, and
/// the transfer tail. Memcpys don't ride the NIC.
pub(crate) fn finish_times(
    pool: &WorkerPool,
    cfg: &SimConfig,
    e: &CommEpoch,
    compute: &[f64],
    nic_slow: &[f64],
    finish: &mut [f64],
) {
    let xs = cfg.exchanges_per_step as f64;
    let r = compute.len();
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
            // Last inbound message ~ slowest sender's dispatch + tail. With
            // the tuned sends-first schedule, dispatch times are only weakly
            // coupled to the sender's compute (§IV-B/§IV-D).
            let mut arrival = 0.0f64;
            for &s in &e.senders[rank] {
                let a = cfg.send_coupling * compute[s as usize]
                    + xs * e.dispatch_ns[s as usize] * nic_slow[s as usize]
                    + xs * e.cong_send_ns[s as usize] * nic_slow[s as usize];
                if a > arrival {
                    arrival = a;
                }
            }
            if !e.senders[rank].is_empty() {
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
