//! An event-driven, MPI-like nonblocking communication layer.
//!
//! [`crate::microsim`] prices one boundary round analytically; this module
//! is the ground-truth counterpart: a discrete-event engine in which every
//! rank executes a *program* of MPI-style operations — `Compute`, `Isend`,
//! `Irecv`, `WaitAll`, `Barrier` — with genuine nonblocking semantics:
//! sends post immediately, receives match messages by `(src, tag)` in FIFO
//! order (with an unexpected-message queue, as in real MPI), `WaitAll`
//! blocks until every posted receive has matched *and* arrived, and
//! barriers complete a binomial tree after the last arrival.
//!
//! Use it when per-message causality matters (critical-path studies,
//! validating the analytic models); use `microsim`/`macrosim` for sweeps.
//!
//! ## Engine internals
//!
//! One `BinaryHeap` schedules every message arrival, keyed `(time, seq)`:
//! `seq` numbers the run's sends in posting order, so equal-time arrivals
//! deliver in a fixed order, and indexes the append-only list holding each
//! arrival's payload. Unexpected messages live in a flat `Vec` indexed
//! `src * nranks + dst` (O(ranks²) cells, sized once at construction — this
//! engine runs at the hundreds-of-ranks microbenchmark scale, not the
//! macrosim scale). All per-run state — rank records, heap, payload list,
//! mailboxes — is pooled in [`MpiWorld`] and keeps its capacity, so a warm
//! [`MpiWorld::run_into`] allocates nothing. The test suite replays random
//! traces against an independent scheduler with hashed mailboxes
//! (`tests/flat_structures_properties.rs`).

use crate::collectives::tree_depth;
use crate::network::NetworkConfig;
use crate::topology::Topology;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Virtual time in nanoseconds.
pub type SimTime = u64;

/// One operation of a rank's program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Busy compute for the given duration.
    Compute(u64),
    /// Post a nonblocking send of `bytes` to `dst` with a matching `tag`.
    Isend { dst: u32, tag: u32, bytes: u64 },
    /// Post a nonblocking receive from `src` with `tag`.
    Irecv { src: u32, tag: u32 },
    /// Block until all outstanding receives posted so far have completed.
    WaitAll,
    /// Enter a global barrier.
    Barrier,
}

/// Per-rank outcome of a program run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankStats {
    /// Time the rank finished its program.
    pub finish_ns: SimTime,
    /// Total time blocked in `WaitAll`.
    pub wait_ns: u64,
    /// Total time blocked in barriers.
    pub barrier_ns: u64,
    /// Messages sent / received.
    pub sent: u32,
    pub received: u32,
}

/// Outcome of an [`MpiWorld::run`].
#[derive(Debug, Clone)]
pub struct WorldResult {
    pub ranks: Vec<RankStats>,
    /// Virtual time when every rank finished.
    pub makespan_ns: SimTime,
}

/// Errors detected by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpiError {
    /// All ranks blocked with no events pending: circular waits or missing
    /// sends/receives.
    Deadlock { stuck_ranks: Vec<u32> },
    /// A barrier was entered by some ranks while another finished its
    /// program without entering it.
    BarrierMismatch,
    /// Operation `op` of rank `rank`'s program names a peer (`Isend.dst` or
    /// `Irecv.src`) outside the world. Detected before the run starts.
    PeerOutOfRange { rank: u32, op: usize },
}

impl std::fmt::Display for MpiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpiError::Deadlock { stuck_ranks } => {
                write!(f, "deadlock: ranks {stuck_ranks:?} blocked forever")
            }
            MpiError::BarrierMismatch => write!(f, "barrier entered by a strict subset of ranks"),
            MpiError::PeerOutOfRange { rank, op } => {
                write!(f, "rank {rank} op {op}: peer rank out of range")
            }
        }
    }
}

impl std::error::Error for MpiError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Block {
    #[default]
    None,
    WaitAll,
    Barrier,
    Done,
}

/// Per-rank execution record. Pooled across runs; [`RankState::reset`]
/// clears logical state while `pending_recvs` keeps its capacity.
#[derive(Debug, Default)]
struct RankState {
    pc: usize,
    clock: SimTime,
    block: Block,
    /// Outstanding receive requests: (src, tag) not yet completed.
    /// Matched-but-not-yet-waited receives do not block; only pending ones.
    pending_recvs: Vec<(u32, u32)>,
    stats: RankStats,
    blocked_since: SimTime,
}

impl RankState {
    fn reset(&mut self) {
        self.pc = 0;
        self.clock = 0;
        self.block = Block::None;
        self.pending_recvs.clear();
        self.stats = RankStats::default();
        self.blocked_since = 0;
    }
}

/// Payload of a scheduled arrival: message from (src, tag) becomes visible
/// at `dst` at the heap entry's time.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    dst: u32,
    src: u32,
    tag: u32,
}

/// All pooled per-run state: recycled by [`MpiWorld::run_into`] so warm
/// runs allocate nothing.
#[derive(Debug, Default)]
struct WorldScratch {
    ranks: Vec<RankState>,
    /// Unexpected-message queues, flat-indexed `src * nranks + dst`; each
    /// entry is (tag, arrival time) in arrival order, so a scan for the
    /// first matching tag preserves per-(src, tag) FIFO.
    unexpected: Vec<VecDeque<(u32, SimTime)>>,
    /// Flat indices of `unexpected` cells touched this run (cheap targeted
    /// reset instead of an O(ranks²) sweep).
    dirty_cells: Vec<u32>,
    /// Pending arrivals, min-first by `(time, seq)`.
    queue: BinaryHeap<Reverse<(SimTime, u64)>>,
    /// Every send of the run in posting order: entry `seq` is the payload
    /// of the arrival keyed `(_, seq)`.
    sent: Vec<Arrival>,
    barrier_entered: Vec<Option<SimTime>>,
    barrier_count: usize,
    runnable: VecDeque<usize>,
}

/// The event-driven MPI world.
pub struct MpiWorld {
    topology: Topology,
    network: NetworkConfig,
    scratch: WorldScratch,
}

impl MpiWorld {
    /// Create a world over the given topology and network model.
    ///
    /// # Panics
    /// On a degenerate network model (see [`NetworkConfig::validate`]), as
    /// [`MicroSim::new`](crate::microsim::MicroSim::new) does: a zero
    /// bandwidth would otherwise saturate every send's dispatch cost and
    /// wrap the sender's clock.
    pub fn new(topology: Topology, network: NetworkConfig) -> MpiWorld {
        if let Err(e) = network.validate() {
            panic!("invalid NetworkConfig: {e}");
        }
        let r = topology.num_ranks;
        let mut scratch = WorldScratch::default();
        scratch.unexpected.resize_with(r * r, VecDeque::new);
        MpiWorld {
            topology,
            network,
            scratch,
        }
    }

    /// Execute one program per rank to completion.
    pub fn run(&mut self, programs: Vec<Vec<Op>>) -> Result<WorldResult, MpiError> {
        let mut stats = Vec::new();
        let makespan_ns = self.run_into(&programs, &mut stats)?;
        Ok(WorldResult {
            ranks: stats,
            makespan_ns,
        })
    }

    /// Execute one program per rank, writing per-rank stats into `out`
    /// (cleared first). Allocation-free once warm: all engine state is
    /// pooled in `self` and `out`'s capacity is reused.
    ///
    /// Every peer an `Isend` or `Irecv` names is checked before the run
    /// starts; a bad one returns [`MpiError::PeerOutOfRange`] and leaves the
    /// world reusable.
    pub fn run_into(
        &mut self,
        programs: &[Vec<Op>],
        out: &mut Vec<RankStats>,
    ) -> Result<SimTime, MpiError> {
        let r = programs.len();
        assert_eq!(r, self.topology.num_ranks, "one program per rank");
        let bad_peer = |op: &Op| match *op {
            Op::Isend { dst: p, .. } | Op::Irecv { src: p, .. } => p as usize >= r,
            _ => false,
        };
        for (rank, program) in programs.iter().enumerate() {
            if let Some(op) = program.iter().position(bad_peer) {
                return Err(MpiError::PeerOutOfRange {
                    rank: rank as u32,
                    op,
                });
            }
        }
        let MpiWorld {
            topology,
            network,
            scratch: s,
        } = self;

        // Recycle pooled state.
        s.ranks.resize_with(r, RankState::default);
        for rank in &mut s.ranks {
            rank.reset();
        }
        debug_assert_eq!(s.unexpected.len(), r * r);
        for &cell in &s.dirty_cells {
            s.unexpected[cell as usize].clear();
        }
        s.dirty_cells.clear();
        s.queue.clear();
        s.sent.clear();
        s.barrier_entered.clear();
        s.barrier_entered.resize(r, None);
        s.barrier_count = 0;
        s.runnable.clear();
        s.runnable.extend(0..r);

        // Run every rank as far as it can go; repeat on each event.
        loop {
            while let Some(ri) = s.runnable.pop_front() {
                advance(topology, network, ri, programs, s);
            }
            // Barrier release: everyone in?
            if s.barrier_count == r {
                let last = s.barrier_entered.iter().map(|t| t.unwrap()).max().unwrap();
                let release = last + tree_depth(r) as u64 * network.fabric.latency_ns;
                for (ri, rank) in s.ranks.iter_mut().enumerate() {
                    debug_assert_eq!(rank.block, Block::Barrier);
                    rank.stats.barrier_ns += release - s.barrier_entered[ri].unwrap();
                    rank.clock = release;
                    rank.block = Block::None;
                    s.runnable.push_back(ri);
                }
                s.barrier_entered.iter_mut().for_each(|t| *t = None);
                s.barrier_count = 0;
                continue;
            }
            // Deliver the next arrival, if any is left.
            let Some(Reverse((time, seq))) = s.queue.pop() else {
                break;
            };
            let Arrival { dst, src, tag } = s.sent[seq as usize];
            let rank = &mut s.ranks[dst as usize];
            // Match against a pending receive, else park as unexpected.
            if let Some(pos) = rank
                .pending_recvs
                .iter()
                .position(|&(sr, t)| sr == src && t == tag)
            {
                rank.pending_recvs.swap_remove(pos);
                rank.stats.received += 1;
                // Receive completion costs service time at the head.
                let done = time + network.recv_overhead_ns;
                rank.clock = rank.clock.max(done);
                if rank.block == Block::WaitAll && rank.pending_recvs.is_empty() {
                    rank.stats.wait_ns += rank.clock - rank.blocked_since;
                    rank.block = Block::None;
                    s.runnable.push_back(dst as usize);
                }
            } else {
                let cell = src as usize * r + dst as usize;
                if s.unexpected[cell].is_empty() {
                    s.dirty_cells.push(cell as u32);
                }
                s.unexpected[cell].push_back((tag, time));
            }
        }

        // Completion / error analysis. Deadlocked (WaitAll-stuck) ranks take
        // precedence: a rank parked at a barrier while others are deadlocked
        // is a symptom, not the cause.
        let mut stuck = Vec::new();
        let mut at_barrier = false;
        for (ri, rank) in s.ranks.iter().enumerate() {
            match rank.block {
                Block::Done => {}
                Block::Barrier => at_barrier = true,
                _ => stuck.push(ri as u32),
            }
        }
        if !stuck.is_empty() {
            return Err(MpiError::Deadlock { stuck_ranks: stuck });
        }
        if at_barrier {
            return Err(MpiError::BarrierMismatch);
        }

        out.clear();
        out.extend(s.ranks.iter().map(|r| r.stats));
        Ok(out.iter().map(|r| r.finish_ns).max().unwrap_or(0))
    }
}

/// Run rank `ri` until it blocks or finishes, scheduling arrivals for its
/// sends and completing receives already satisfied from the mailbox.
fn advance(
    topology: &Topology,
    network: &NetworkConfig,
    ri: usize,
    programs: &[Vec<Op>],
    s: &mut WorldScratch,
) {
    let r = programs.len();
    loop {
        let rank = &mut s.ranks[ri];
        if rank.block != Block::None {
            return;
        }
        if rank.pc >= programs[ri].len() {
            rank.block = Block::Done;
            rank.stats.finish_ns = rank.clock;
            return;
        }
        let op = programs[ri][rank.pc];
        rank.pc += 1;
        match op {
            Op::Compute(dur) => {
                rank.clock += dur;
            }
            Op::Isend { dst, tag, bytes } => {
                rank.clock += network.dispatch_ns(bytes);
                rank.stats.sent += 1;
                let local = topology.same_node(ri, dst as usize);
                let arrive = rank.clock + network.transfer_ns(bytes, local);
                s.queue.push(Reverse((arrive, s.sent.len() as u64)));
                s.sent.push(Arrival {
                    dst,
                    src: ri as u32,
                    tag,
                });
            }
            Op::Irecv { src, tag } => {
                // Unexpected message already here? Complete immediately
                // (first matching tag in the per-(src, dst) queue = FIFO
                // per (src, tag)).
                let cell = &mut s.unexpected[src as usize * r + ri];
                if let Some(pos) = cell.iter().position(|&(t, _)| t == tag) {
                    let (_, arrival) = cell.remove(pos).unwrap();
                    rank.stats.received += 1;
                    rank.clock = rank.clock.max(arrival + network.recv_overhead_ns);
                } else {
                    rank.pending_recvs.push((src, tag));
                }
            }
            Op::WaitAll => {
                if !rank.pending_recvs.is_empty() {
                    rank.block = Block::WaitAll;
                    rank.blocked_since = rank.clock;
                    return;
                }
            }
            Op::Barrier => {
                rank.block = Block::Barrier;
                s.barrier_entered[ri] = Some(rank.clock);
                s.barrier_count += 1;
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet() -> NetworkConfig {
        NetworkConfig {
            ack_loss_prob: 0.0,
            ..NetworkConfig::tuned()
        }
    }

    fn send(dst: u32, tag: u32, bytes: u64) -> Op {
        Op::Isend { dst, tag, bytes }
    }

    fn recv(src: u32, tag: u32) -> Op {
        Op::Irecv { src, tag }
    }

    fn ring_programs(r: usize, bytes: u64, compute: u64) -> Vec<Vec<Op>> {
        (0..r as u32)
            .map(|i| {
                vec![
                    recv((i + r as u32 - 1) % r as u32, 0),
                    send((i + 1) % r as u32, 0, bytes),
                    Op::Compute(compute),
                    Op::WaitAll,
                    Op::Barrier,
                ]
            })
            .collect()
    }

    #[test]
    fn ring_exchange_completes() {
        let mut world = MpiWorld::new(Topology::paper(8), quiet());
        let res = world.run(ring_programs(8, 4096, 100_000)).unwrap();
        assert_eq!(res.ranks.len(), 8);
        for s in &res.ranks {
            assert_eq!(s.sent, 1);
            assert_eq!(s.received, 1);
            assert!(s.finish_ns >= 100_000);
        }
        assert!(res.makespan_ns >= 100_000);
    }

    #[test]
    fn compute_only_program() {
        let mut world = MpiWorld::new(Topology::paper(4), quiet());
        let progs = (0..4).map(|i| vec![Op::Compute(100 * (i + 1))]).collect();
        let res = world.run(progs).unwrap();
        assert_eq!(res.makespan_ns, 400);
        assert_eq!(res.ranks[2].finish_ns, 300);
        assert!(res.ranks.iter().all(|s| s.wait_ns == 0));
    }

    #[test]
    fn late_send_charges_wait() {
        // Rank 0 computes long then sends; rank 1 waits.
        let mut world = MpiWorld::new(Topology::new(2, 1), quiet());
        let progs = vec![
            vec![Op::Compute(1_000_000), send(1, 7, 100)],
            vec![recv(0, 7), Op::WaitAll],
        ];
        let res = world.run(progs).unwrap();
        assert!(res.ranks[1].wait_ns >= 1_000_000);
        assert_eq!(res.ranks[1].received, 1);
    }

    #[test]
    fn unexpected_message_queue_matches_fifo() {
        // Two sends with the same (src, tag) arrive before the receives are
        // posted; both must match.
        let mut world = MpiWorld::new(Topology::new(2, 1), quiet());
        let progs = vec![
            vec![send(1, 3, 10), send(1, 3, 10)],
            vec![
                Op::Compute(10_000_000), // let the messages land first
                recv(0, 3),
                recv(0, 3),
                Op::WaitAll,
            ],
        ];
        let res = world.run(progs).unwrap();
        assert_eq!(res.ranks[1].received, 2);
        assert_eq!(res.ranks[1].wait_ns, 0, "messages were already there");
    }

    #[test]
    fn deadlock_detected() {
        // Both ranks wait for a message that is never sent.
        let mut world = MpiWorld::new(Topology::new(2, 1), quiet());
        let progs = vec![vec![recv(1, 0), Op::WaitAll], vec![recv(0, 0), Op::WaitAll]];
        match world.run(progs) {
            Err(MpiError::Deadlock { stuck_ranks }) => {
                assert_eq!(stuck_ranks, vec![0, 1]);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn barrier_mismatch_detected() {
        let mut world = MpiWorld::new(Topology::new(2, 1), quiet());
        let progs = vec![vec![Op::Barrier], vec![Op::Compute(5)]];
        assert_eq!(world.run(progs).unwrap_err(), MpiError::BarrierMismatch);
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let mut world = MpiWorld::new(Topology::paper(4), quiet());
        let progs = (0..4)
            .map(|i| {
                vec![
                    Op::Compute(100 * (i as u64 + 1)),
                    Op::Barrier,
                    Op::Compute(10),
                ]
            })
            .collect();
        let res = world.run(progs).unwrap();
        // All ranks leave the barrier together; finishes within tree slack.
        let finishes: Vec<u64> = res.ranks.iter().map(|s| s.finish_ns).collect();
        assert!(finishes.iter().all(|&f| f == finishes[0]));
        // The earliest arriver waited the longest.
        assert!(res.ranks[0].barrier_ns > res.ranks[3].barrier_ns);
    }

    #[test]
    fn tags_disambiguate_messages() {
        // Receiver posts tag 1 then tag 2; sender sends tag 2 then tag 1.
        let mut world = MpiWorld::new(Topology::new(2, 1), quiet());
        let progs = vec![
            vec![send(1, 2, 10), send(1, 1, 10)],
            vec![recv(0, 1), recv(0, 2), Op::WaitAll],
        ];
        let res = world.run(progs).unwrap();
        assert_eq!(res.ranks[1].received, 2);
    }

    #[test]
    fn receive_completes_only_on_its_own_tag() {
        // Rank 1 waits for tag 1, computes, then takes tag 2. Tag 2 lands
        // first; it must park, not complete the tag-1 receive, or rank 1
        // would start computing ~1 ms early.
        let mut world = MpiWorld::new(Topology::new(2, 1), quiet());
        let progs = vec![
            vec![send(1, 2, 10), Op::Compute(1_000_000), send(1, 1, 10)],
            vec![
                recv(0, 1),
                Op::WaitAll,
                Op::Compute(50_000),
                recv(0, 2),
                Op::WaitAll,
            ],
        ];
        let res = world.run(progs).unwrap();
        assert!(res.ranks[1].finish_ns >= 1_050_000);
        assert_eq!(res.ranks[1].received, 2);
    }

    #[test]
    fn agrees_with_microsim_on_ordering_effects() {
        // Qualitative cross-validation: a late send (compute-first) must
        // produce more wait than sends-first in both engines.
        let mut world = MpiWorld::new(Topology::paper(8), quiet());
        let ring = |sends_first: bool| -> Vec<Vec<Op>> {
            (0..8u32)
                .map(|i| {
                    let mut prog = vec![recv((i + 7) % 8, 0), Op::Compute(1_000_000)];
                    prog.insert(
                        if sends_first { 1 } else { 2 },
                        send((i + 1) % 8, 0, 20_480),
                    );
                    prog.push(Op::WaitAll);
                    prog
                })
                .collect()
        };
        let sf = world.run(ring(true)).unwrap();
        let cf = world.run(ring(false)).unwrap();
        let sf_wait: u64 = sf.ranks.iter().map(|s| s.wait_ns).sum();
        let cf_wait: u64 = cf.ranks.iter().map(|s| s.wait_ns).sum();
        assert!(sf_wait < cf_wait);
        assert!(sf.makespan_ns <= cf.makespan_ns);
    }

    #[test]
    fn warm_rerun_is_deterministic() {
        // Pooled scratch must not leak state between runs.
        let mut world = MpiWorld::new(Topology::paper(8), quiet());
        let progs = ring_programs(8, 4096, 50_000);
        let mut out1 = Vec::new();
        let mut out2 = Vec::new();
        let m1 = world.run_into(&progs, &mut out1).unwrap();
        let m2 = world.run_into(&progs, &mut out2).unwrap();
        assert_eq!(m1, m2);
        assert_eq!(out1, out2);
        // ...including after an erroring run.
        let bad = vec![vec![recv(1, 0), Op::WaitAll]; 2];
        let mut small = MpiWorld::new(Topology::new(2, 1), quiet());
        let mut o = Vec::new();
        assert!(small.run_into(&bad, &mut o).is_err());
        let good = vec![vec![Op::Compute(10)]; 2];
        assert_eq!(small.run_into(&good, &mut o).unwrap(), 10);
    }

    #[test]
    fn unmatched_sends_cleared_between_runs() {
        // A run leaving unexpected messages parked must not pollute the next.
        let mut world = MpiWorld::new(Topology::new(2, 1), quiet());
        let send_only = vec![vec![send(1, 9, 10)], vec![Op::Compute(1)]];
        world.run(send_only).unwrap();
        // Next run posts a receive for that (src, tag); it must NOT match a
        // stale message from the previous run.
        let recv_late = vec![vec![Op::Compute(1)], vec![recv(0, 9), Op::WaitAll]];
        match world.run(recv_late) {
            Err(MpiError::Deadlock { stuck_ranks }) => assert_eq!(stuck_ranks, vec![1]),
            other => panic!("stale mailbox leaked into new run: {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "invalid NetworkConfig: fabric.bytes_per_ns")]
    fn degenerate_network_rejected_at_construction() {
        // Zero bandwidth saturates every dispatch cost, which would wrap
        // the sender's clock in a release build.
        let mut net = quiet();
        net.fabric.bytes_per_ns = 0.0;
        let _ = MpiWorld::new(Topology::new(2, 1), net);
    }

    /// `bad` must be refused with `PeerOutOfRange { rank, op }` before the
    /// run starts, and the same world must then run a good trace exactly as
    /// a fresh one does.
    fn assert_peer_rejected(bad: Vec<Vec<Op>>, rank: u32, op: usize) {
        let mut world = MpiWorld::new(Topology::new(2, 1), quiet());
        assert_eq!(
            world.run(bad).unwrap_err(),
            MpiError::PeerOutOfRange { rank, op }
        );
        let good = ring_programs(2, 64, 10);
        let warm = world.run(good.clone()).unwrap();
        let fresh = MpiWorld::new(Topology::new(2, 1), quiet())
            .run(good)
            .unwrap();
        assert_eq!(warm.ranks, fresh.ranks);
        assert_eq!(warm.makespan_ns, fresh.makespan_ns);
    }

    #[test]
    fn isend_to_out_of_range_peer_is_an_error() {
        let progs = vec![vec![send(1, 0, 8)], vec![send(0, 0, 8), send(5, 0, 8)]];
        assert_peer_rejected(progs, 1, 1);
    }

    #[test]
    fn irecv_from_out_of_range_peer_is_an_error() {
        assert_peer_rejected(
            vec![
                vec![Op::Compute(10), recv(2, 0), Op::WaitAll],
                vec![Op::Compute(1)],
            ],
            0,
            1,
        );
    }
}
