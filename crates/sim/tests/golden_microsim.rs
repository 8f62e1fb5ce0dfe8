//! Golden fixture for `MicroSim`, the message-level engine behind
//! `commbench` and Figs. 1, 3 and 7a.
//!
//! One splitmix-drawn round — 64 ranks, 16 a node; each rank sends 12
//! messages, about half to its own node and about 1 in 11 to itself, of
//! 20 480, 1 280 or 80 bytes, after 200–500 µs of compute — runs three times
//! on one simulator (seed 29), so the ACK-loss draw stream advances between
//! rounds. It is priced under the tuned stack, the untuned one with
//! `ack_loss_prob` 0.05, and the congested one with a 128 KiB credit window,
//! each at both task orders. Pinned per case: an FNV-1a digest of every
//! `RoundResult` field of all three rounds.
//!
//! The input is self-contained (no mesh, no placement policy), so only a
//! change to `MicroSim` or the network model can move these digests. If one
//! fails, the round's pricing moved; re-pin only when that is the point of
//! the change (the assert prints the new digest).

use amr_sim::{Message, MicroSim, NetworkConfig, RoundResult, RoundSpec, TaskOrder, Topology};

const RANKS: usize = 64;
const PER_NODE: usize = 16;
const SENDS: usize = 12;
const ROUNDS: usize = 3;
const SEED: u64 = 29;

/// splitmix64 step.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The round. Messages are listed send-slot-major (every rank's first
/// message, then every rank's second, ...), so the engine's grouping by
/// source has to restore each rank's own order.
fn spec(order: TaskOrder) -> RoundSpec {
    let mut rng = 0x2900_0000_0000_0029u64;
    let compute_ns = (0..RANKS)
        .map(|_| 200_000 + next(&mut rng) % 300_001)
        .collect();
    let mut messages = Vec::with_capacity(RANKS * SENDS);
    for _ in 0..SENDS {
        for src in 0..RANKS {
            let node = src / PER_NODE;
            let dst = if next(&mut rng).is_multiple_of(11) {
                src
            } else if next(&mut rng).is_multiple_of(2) {
                node * PER_NODE + (next(&mut rng) % PER_NODE as u64) as usize
            } else {
                let other = (node + 1 + (next(&mut rng) % 3) as usize) % (RANKS / PER_NODE);
                other * PER_NODE + (next(&mut rng) % PER_NODE as u64) as usize
            };
            let bytes = [20_480, 1_280, 80][(next(&mut rng) % 3) as usize];
            messages.push(Message {
                src: src as u32,
                dst: dst as u32,
                bytes,
            });
        }
    }
    RoundSpec {
        num_ranks: RANKS,
        compute_ns,
        messages,
        order,
    }
}

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn eat_all(&mut self, vs: &[u64]) {
        self.eat(vs.len() as u64);
        vs.iter().for_each(|&v| self.eat(v));
    }

    fn round(&mut self, res: &RoundResult) {
        self.eat_all(&res.local_finish_ns);
        self.eat_all(&res.finish_ns);
        self.eat_all(&res.wait_ns);
        self.eat_all(&res.comm_ns);
        self.eat(res.round_latency_ns);
        self.eat(res.intra_msgs);
        self.eat(res.local_msgs);
        self.eat(res.remote_msgs);
        self.eat(res.ack_stalls as u64);
    }
}

fn untuned() -> NetworkConfig {
    NetworkConfig {
        ack_loss_prob: 0.05,
        ..NetworkConfig::untuned()
    }
}

fn congested() -> NetworkConfig {
    NetworkConfig {
        fabric_credit_bytes: 128 << 10,
        ..NetworkConfig::congested()
    }
}

/// Three rounds of `spec(order)` on one simulator: the digest and each
/// round's result.
fn run(net: NetworkConfig, order: TaskOrder) -> (u64, Vec<RoundResult>) {
    let spec = spec(order);
    let mut sim = MicroSim::new(Topology::new(RANKS, PER_NODE), net, SEED);
    let mut h = Fnv::new();
    let rounds: Vec<RoundResult> = (0..ROUNDS).map(|_| sim.run_round(&spec)).collect();
    rounds.iter().for_each(|res| h.round(res));
    (h.0, rounds)
}

#[test]
fn rounds_match_golden_digests() {
    let cases: [(&str, NetworkConfig, TaskOrder, u64); 6] = [
        (
            "tuned/sends-first",
            NetworkConfig::tuned(),
            TaskOrder::SendsFirst,
            0x768a526ca3ec6075,
        ),
        (
            "tuned/compute-first",
            NetworkConfig::tuned(),
            TaskOrder::ComputeFirst,
            0x7720e76e35d2487a,
        ),
        (
            "untuned/sends-first",
            untuned(),
            TaskOrder::SendsFirst,
            0x804a41207f358d57,
        ),
        (
            "untuned/compute-first",
            untuned(),
            TaskOrder::ComputeFirst,
            0x3efd3c5c349de664,
        ),
        (
            "congested/sends-first",
            congested(),
            TaskOrder::SendsFirst,
            0x44d002231d1e3589,
        ),
        (
            "congested/compute-first",
            congested(),
            TaskOrder::ComputeFirst,
            0xbbf1a226d9eeda54,
        ),
    ];
    for (name, net, order, want) in cases {
        let (got, _) = run(net, order);
        assert_eq!(
            got, want,
            "{name} diverged from its golden digest: got {got:#018x}"
        );
    }
}

/// The input exercises every class and every mechanism the digests claim to
/// pin (guards against a fixture that silently stops covering one).
#[test]
fn every_mechanism_is_live() {
    let (_, tuned) = run(NetworkConfig::tuned(), TaskOrder::SendsFirst);
    let first = &tuned[0];
    assert_eq!(
        first.intra_msgs + first.local_msgs + first.remote_msgs,
        (RANKS * SENDS) as u64
    );
    assert!(first.intra_msgs > 0 && first.local_msgs > 0 && first.remote_msgs > 0);

    // ACK loss: stalls every round, and a different count as the draw stream
    // advances.
    let (_, lossy) = run(untuned(), TaskOrder::SendsFirst);
    let stalls: Vec<u32> = lossy.iter().map(|r| r.ack_stalls).collect();
    assert!(stalls.iter().all(|&s| s > 0), "stalls {stalls:?}");
    assert!(stalls.windows(2).any(|w| w[0] != w[1]), "stalls {stalls:?}");

    // Credit window: the same round with the window disabled is faster.
    let (_, jammed) = run(congested(), TaskOrder::SendsFirst);
    let free = NetworkConfig {
        fabric_credit_bytes: u64::MAX,
        ..congested()
    };
    let (_, open) = run(free, TaskOrder::SendsFirst);
    assert!(
        jammed[0].round_latency_ns > open[0].round_latency_ns,
        "window never filled: {} vs {}",
        jammed[0].round_latency_ns,
        open[0].round_latency_ns
    );

    // Shm queue: an 8-deep queue overflows where a 64-deep one does not. The
    // ACK stalls set the round latency here, so only the per-rank fields
    // (hence the digest) see the overflow.
    let deep = NetworkConfig {
        shm_queue_size: 64,
        ..untuned()
    };
    let (shallow_digest, shallow) = run(untuned(), TaskOrder::SendsFirst);
    let (deep_digest, deep) = run(deep, TaskOrder::SendsFirst);
    assert_ne!(shallow_digest, deep_digest);
    let comm = |r: &RoundResult| r.comm_ns.iter().sum::<u64>();
    assert!(comm(&shallow[0]) > comm(&deep[0]));

    // Task order: compute-first delays every dispatch.
    let (_, late) = run(NetworkConfig::tuned(), TaskOrder::ComputeFirst);
    assert!(late[0].round_latency_ns > first.round_latency_ns);
}
