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
//! The scheduler is a [`CalendarQueue`] over `(time, seq)` keys with event
//! payloads in an [`EventArena`] slab — O(1) expected push/pop and recycled
//! ids, replacing the original `BinaryHeap` + `HashMap<u32, Event>` pair
//! (kept as [`MpiWorld::run_heap_reference`], the property-test oracle).
//! Unexpected messages live in a flat `Vec` indexed `src * nranks + dst`
//! (O(ranks²) cells, sized once at construction — this engine runs at the
//! hundreds-of-ranks microbenchmark scale, not the macrosim scale), and all
//! per-run state — rank records, queue buckets, arena slots, mailboxes —
//! is pooled in [`MpiWorld`] and recycled, so a warm [`MpiWorld::run_into`]
//! allocates nothing in steady state.

use crate::collectives::tree_depth;
use crate::events::{CalendarQueue, EventArena, EventId};
use crate::network::NetworkConfig;
use crate::topology::Topology;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

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
}

impl std::fmt::Display for MpiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpiError::Deadlock { stuck_ranks } => {
                write!(f, "deadlock: ranks {stuck_ranks:?} blocked forever")
            }
            MpiError::BarrierMismatch => write!(f, "barrier entered by a strict subset of ranks"),
        }
    }
}

impl std::error::Error for MpiError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Block {
    None,
    WaitAll,
    Barrier,
    Done,
}

/// Per-rank execution record. Pooled across runs; [`RankState::reset`]
/// clears logical state while `pending_recvs` keeps its capacity.
#[derive(Debug)]
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

impl Default for RankState {
    fn default() -> RankState {
        RankState {
            pc: 0,
            clock: 0,
            block: Block::None,
            pending_recvs: Vec::new(),
            stats: RankStats::default(),
            blocked_since: 0,
        }
    }
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
/// at `dst` at the event's time.
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
    queue: CalendarQueue,
    arena: EventArena<Arrival>,
    seq: u64,
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
    pub fn new(topology: Topology, network: NetworkConfig) -> MpiWorld {
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
    pub fn run_into(
        &mut self,
        programs: &[Vec<Op>],
        out: &mut Vec<RankStats>,
    ) -> Result<SimTime, MpiError> {
        let r = programs.len();
        assert_eq!(r, self.topology.num_ranks, "one program per rank");
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
        s.arena.clear();
        s.seq = 0;
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
            // Deliver the next event.
            match s.queue.pop() {
                Some((time, _, eid)) => {
                    let Arrival { dst, src, tag } = s.arena.remove(eid);
                    let rank = &mut s.ranks[dst as usize];
                    // Match against a pending receive, else park as
                    // unexpected.
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
                None => break, // no events left
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
                let eid = s.arena.insert(Arrival {
                    dst,
                    src: ri as u32,
                    tag,
                });
                s.queue.push(arrive, s.seq, eid);
                s.seq += 1;
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

// ---------------------------------------------------------------------------
// Heap-based reference engine (the original implementation), retained as the
// oracle for the calendar-queue engine's equivalence property tests.
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct HeapRankState {
    program: Vec<Op>,
    pc: usize,
    clock: SimTime,
    block: Block,
    pending_recvs: Vec<(u32, u32)>,
    stats: RankStats,
    blocked_since: SimTime,
}

/// Pending arrivals at a receiver, keyed by (src, tag).
#[derive(Debug, Default)]
struct HeapMailbox {
    unexpected: HashMap<(u32, u32), VecDeque<SimTime>>,
}

#[derive(Debug, PartialEq, Eq)]
enum HeapEvent {
    Arrival { dst: u32, src: u32, tag: u32 },
}

impl MpiWorld {
    /// Reference scheduler: `BinaryHeap<Reverse<(time, seq, id)>>` +
    /// `HashMap` event store and hash-keyed unexpected queues. Semantically
    /// identical to [`MpiWorld::run_into`] (same `(time, seq)` delivery
    /// order); allocates freely. Kept for equivalence testing and
    /// before/after benchmarking only.
    pub fn run_heap_reference(&self, programs: Vec<Vec<Op>>) -> Result<WorldResult, MpiError> {
        let r = programs.len();
        assert_eq!(r, self.topology.num_ranks, "one program per rank");
        let mut ranks: Vec<HeapRankState> = programs
            .into_iter()
            .map(|program| HeapRankState {
                program,
                pc: 0,
                clock: 0,
                block: Block::None,
                pending_recvs: Vec::new(),
                stats: RankStats::default(),
                blocked_since: 0,
            })
            .collect();
        let mut mailboxes: Vec<HeapMailbox> = (0..r).map(|_| HeapMailbox::default()).collect();
        // Event queue ordered by (time, seq) for determinism.
        let mut queue: BinaryHeap<Reverse<(SimTime, u64, EventId)>> = BinaryHeap::new();
        let mut events: HashMap<EventId, HeapEvent> = HashMap::new();
        let mut seq = 0u64;

        let mut barrier_entered: Vec<Option<SimTime>> = vec![None; r];
        let mut barrier_count = 0usize;

        let mut runnable: VecDeque<usize> = (0..r).collect();
        loop {
            while let Some(ri) = runnable.pop_front() {
                self.advance_heap(
                    ri,
                    &mut ranks,
                    &mut mailboxes,
                    &mut queue,
                    &mut events,
                    &mut seq,
                    &mut barrier_entered,
                    &mut barrier_count,
                );
            }
            if barrier_count == r {
                let last = barrier_entered.iter().map(|t| t.unwrap()).max().unwrap();
                let release = last + tree_depth(r) as u64 * self.network.fabric.latency_ns;
                for (ri, rank) in ranks.iter_mut().enumerate() {
                    debug_assert_eq!(rank.block, Block::Barrier);
                    rank.stats.barrier_ns += release - barrier_entered[ri].unwrap();
                    rank.clock = release;
                    rank.block = Block::None;
                    runnable.push_back(ri);
                }
                barrier_entered.iter_mut().for_each(|t| *t = None);
                barrier_count = 0;
                continue;
            }
            match queue.pop() {
                Some(Reverse((time, _, eid))) => {
                    let HeapEvent::Arrival { dst, src, tag } = events.remove(&eid).expect("event");
                    let rank = &mut ranks[dst as usize];
                    if let Some(pos) = rank
                        .pending_recvs
                        .iter()
                        .position(|&(sr, t)| sr == src && t == tag)
                    {
                        rank.pending_recvs.swap_remove(pos);
                        rank.stats.received += 1;
                        let done = time + self.network.recv_overhead_ns;
                        rank.clock = rank.clock.max(done);
                        if rank.block == Block::WaitAll && rank.pending_recvs.is_empty() {
                            rank.stats.wait_ns += rank.clock - rank.blocked_since;
                            rank.block = Block::None;
                            runnable.push_back(dst as usize);
                        }
                    } else {
                        mailboxes[dst as usize]
                            .unexpected
                            .entry((src, tag))
                            .or_default()
                            .push_back(time);
                    }
                }
                None => break,
            }
        }

        let mut stuck = Vec::new();
        let mut at_barrier = false;
        for (ri, rank) in ranks.iter().enumerate() {
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

        let makespan = ranks.iter().map(|r| r.stats.finish_ns).max().unwrap_or(0);
        Ok(WorldResult {
            ranks: ranks.into_iter().map(|r| r.stats).collect(),
            makespan_ns: makespan,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn advance_heap(
        &self,
        ri: usize,
        ranks: &mut [HeapRankState],
        mailboxes: &mut [HeapMailbox],
        queue: &mut BinaryHeap<Reverse<(SimTime, u64, EventId)>>,
        events: &mut HashMap<EventId, HeapEvent>,
        seq: &mut u64,
        barrier_entered: &mut [Option<SimTime>],
        barrier_count: &mut usize,
    ) {
        loop {
            let rank = &mut ranks[ri];
            if rank.block != Block::None {
                return;
            }
            if rank.pc >= rank.program.len() {
                rank.block = Block::Done;
                rank.stats.finish_ns = rank.clock;
                return;
            }
            let op = rank.program[rank.pc];
            rank.pc += 1;
            match op {
                Op::Compute(dur) => {
                    rank.clock += dur;
                }
                Op::Isend { dst, tag, bytes } => {
                    rank.clock += self.network.dispatch_ns(bytes);
                    rank.stats.sent += 1;
                    let local = self.topology.same_node(ri, dst as usize);
                    let arrive = rank.clock + self.network.transfer_ns(bytes, local);
                    let eid = *seq as EventId;
                    events.insert(
                        eid,
                        HeapEvent::Arrival {
                            dst,
                            src: ri as u32,
                            tag,
                        },
                    );
                    queue.push(Reverse((arrive, *seq, eid)));
                    *seq += 1;
                }
                Op::Irecv { src, tag } => {
                    let mb = &mut mailboxes[ri];
                    let done = mb
                        .unexpected
                        .get_mut(&(src, tag))
                        .and_then(|q| q.pop_front());
                    if let Some(arrival) = done {
                        ranks[ri].stats.received += 1;
                        ranks[ri].clock =
                            ranks[ri].clock.max(arrival + self.network.recv_overhead_ns);
                    } else {
                        ranks[ri].pending_recvs.push((src, tag));
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
                    barrier_entered[ri] = Some(rank.clock);
                    *barrier_count += 1;
                    return;
                }
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

    fn ring_programs(r: usize, bytes: u64, compute: u64) -> Vec<Vec<Op>> {
        (0..r as u32)
            .map(|i| {
                vec![
                    Op::Irecv {
                        src: (i + r as u32 - 1) % r as u32,
                        tag: 0,
                    },
                    Op::Isend {
                        dst: (i + 1) % r as u32,
                        tag: 0,
                        bytes,
                    },
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
            vec![
                Op::Compute(1_000_000),
                Op::Isend {
                    dst: 1,
                    tag: 7,
                    bytes: 100,
                },
            ],
            vec![Op::Irecv { src: 0, tag: 7 }, Op::WaitAll],
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
            vec![
                Op::Isend {
                    dst: 1,
                    tag: 3,
                    bytes: 10,
                },
                Op::Isend {
                    dst: 1,
                    tag: 3,
                    bytes: 10,
                },
            ],
            vec![
                Op::Compute(10_000_000), // let the messages land first
                Op::Irecv { src: 0, tag: 3 },
                Op::Irecv { src: 0, tag: 3 },
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
        let progs = vec![
            vec![Op::Irecv { src: 1, tag: 0 }, Op::WaitAll],
            vec![Op::Irecv { src: 0, tag: 0 }, Op::WaitAll],
        ];
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
            vec![
                Op::Isend {
                    dst: 1,
                    tag: 2,
                    bytes: 10,
                },
                Op::Isend {
                    dst: 1,
                    tag: 1,
                    bytes: 10,
                },
            ],
            vec![
                Op::Irecv { src: 0, tag: 1 },
                Op::Irecv { src: 0, tag: 2 },
                Op::WaitAll,
            ],
        ];
        let res = world.run(progs).unwrap();
        assert_eq!(res.ranks[1].received, 2);
    }

    #[test]
    fn agrees_with_microsim_on_ordering_effects() {
        // Qualitative cross-validation: a late send (compute-first) must
        // produce more wait than sends-first in both engines.
        let mut world = MpiWorld::new(Topology::paper(8), quiet());
        let sends_first: Vec<Vec<Op>> = (0..8u32)
            .map(|i| {
                vec![
                    Op::Irecv {
                        src: (i + 7) % 8,
                        tag: 0,
                    },
                    Op::Isend {
                        dst: (i + 1) % 8,
                        tag: 0,
                        bytes: 20_480,
                    },
                    Op::Compute(1_000_000),
                    Op::WaitAll,
                ]
            })
            .collect();
        let compute_first: Vec<Vec<Op>> = (0..8u32)
            .map(|i| {
                vec![
                    Op::Irecv {
                        src: (i + 7) % 8,
                        tag: 0,
                    },
                    Op::Compute(1_000_000),
                    Op::Isend {
                        dst: (i + 1) % 8,
                        tag: 0,
                        bytes: 20_480,
                    },
                    Op::WaitAll,
                ]
            })
            .collect();
        let sf = world.run(sends_first).unwrap();
        let cf = world.run(compute_first).unwrap();
        let sf_wait: u64 = sf.ranks.iter().map(|s| s.wait_ns).sum();
        let cf_wait: u64 = cf.ranks.iter().map(|s| s.wait_ns).sum();
        assert!(sf_wait < cf_wait);
        assert!(sf.makespan_ns <= cf.makespan_ns);
    }

    #[test]
    fn calendar_engine_matches_heap_reference_on_ring() {
        let mut world = MpiWorld::new(Topology::paper(16), quiet());
        let progs = ring_programs(16, 20_480, 250_000);
        let new = world.run(progs.clone()).unwrap();
        let old = world.run_heap_reference(progs).unwrap();
        assert_eq!(new.makespan_ns, old.makespan_ns);
        assert_eq!(new.ranks, old.ranks);
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
        let bad = vec![vec![Op::Irecv { src: 1, tag: 0 }, Op::WaitAll]; 2];
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
        let send_only = vec![
            vec![Op::Isend {
                dst: 1,
                tag: 9,
                bytes: 10,
            }],
            vec![Op::Compute(1)],
        ];
        world.run(send_only).unwrap();
        // Next run posts a receive for that (src, tag); it must NOT match a
        // stale message from the previous run.
        let recv_late = vec![
            vec![Op::Compute(1)],
            vec![Op::Irecv { src: 0, tag: 9 }, Op::WaitAll],
        ];
        match world.run(recv_late) {
            Err(MpiError::Deadlock { stuck_ranks }) => assert_eq!(stuck_ranks, vec![1]),
            other => panic!("stale mailbox leaked into new run: {other:?}"),
        }
    }
}
