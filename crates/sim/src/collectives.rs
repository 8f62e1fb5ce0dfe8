//! Collective (synchronization) cost model.
//!
//! Synchronization operations "inherently expose performance variability by
//! forcing all ranks to wait until the last rank reaches the synchronization
//! point" (§II-B). We model barriers/blocking-allreduce with a binomial
//! tree: once every rank has arrived, completion takes `⌈log₂ r⌉` fabric
//! hops. Each rank's *wait* is the idle gap between its own arrival and the
//! moment the last rank arrives — the tree hops after that point are work
//! every rank participates in, not waiting, so the last arriver waits ~0.
//! This is the mechanism that converts per-rank compute imbalance into the
//! 35–50%-of-runtime synchronization phase of Fig. 6a; mis-attributing the
//! tree term as wait would over-count sync by `r × depth × hop_ns` per
//! collective and skew every policy comparison built on it.
//!
//! Three allreduce algorithms share that straggler-only wait model and
//! differ only in the post-arrival term ([`CollectiveAlgo`]): the binomial
//! tree (latency-light, moves the full payload at every level), and the
//! bandwidth-optimal recursive-doubling and ring variants (Thakur/Gropp
//! costs: `2·(r−1)/r` of the payload total, more hops). Which one wins
//! depends on payload size, scale, and hop latency — the diversity the
//! adaptive control plane selects over.

/// Allreduce algorithm: how ranks combine and redistribute the reduction
/// payload once everyone has arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveAlgo {
    /// Reduce-and-broadcast over a binomial tree: `⌈log₂ r⌉` levels, each
    /// moving the full payload. Latency-optimal for small vectors — the
    /// production default for timestep control.
    BinomialTree,
    /// Recursive halving/doubling (reduce-scatter + allgather): `2·⌈log₂ r⌉`
    /// hops but only `2·(r−1)/r` of the payload crosses any rank's link.
    RecursiveDoubling,
    /// Ring allreduce: `2·(r−1)` hops with the same bandwidth-optimal
    /// payload volume — hop-latency-heavy at scale, best for huge payloads.
    Ring,
}

impl CollectiveAlgo {
    /// Every algorithm, for sweeps and the adaptive argmin.
    pub const ALL: [CollectiveAlgo; 3] = [
        CollectiveAlgo::BinomialTree,
        CollectiveAlgo::RecursiveDoubling,
        CollectiveAlgo::Ring,
    ];

    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            CollectiveAlgo::BinomialTree => "binomial_tree",
            CollectiveAlgo::RecursiveDoubling => "recursive_doubling",
            CollectiveAlgo::Ring => "ring",
        }
    }

    /// The post-arrival cost: virtual time from the last rank's arrival to
    /// completion. All arithmetic saturates (degenerate bandwidth pins the
    /// payload term at `u64::MAX`, see `payload_ns`). For
    /// [`CollectiveAlgo::BinomialTree`] this is exactly the pre-existing
    /// `depth × (hop + payload)` term, keeping every committed baseline
    /// bit-identical.
    pub fn post_arrival_ns(
        self,
        num_ranks: usize,
        hop_ns: u64,
        payload_bytes: u64,
        bytes_per_ns: f64,
    ) -> u64 {
        if num_ranks <= 1 {
            return 0;
        }
        let depth = tree_depth(num_ranks) as u64;
        let r = num_ranks as u64;
        // Bandwidth-optimal volume per rank: 2·bytes·(r−1)/r.
        let opt_bytes = (2u128 * payload_bytes as u128 * (r as u128 - 1) / r as u128)
            .min(u64::MAX as u128) as u64;
        match self {
            CollectiveAlgo::BinomialTree => {
                depth.saturating_mul(hop_ns.saturating_add(payload_ns(payload_bytes, bytes_per_ns)))
            }
            CollectiveAlgo::RecursiveDoubling => {
                // Non-power-of-two participant counts pay the standard
                // preparation exchange (fold the excess ranks into the
                // nearest power of two and unfold after): two extra hops and
                // one extra full-payload move — the opening ring allreduce
                // exploits at scale.
                let prep = if num_ranks.is_power_of_two() {
                    0
                } else {
                    hop_ns
                        .saturating_mul(2)
                        .saturating_add(payload_ns(payload_bytes, bytes_per_ns))
                };
                depth
                    .saturating_mul(2)
                    .saturating_mul(hop_ns)
                    .saturating_add(payload_ns(opt_bytes, bytes_per_ns))
                    .saturating_add(prep)
            }
            CollectiveAlgo::Ring => (r - 1)
                .saturating_mul(2)
                .saturating_mul(hop_ns)
                .saturating_add(payload_ns(opt_bytes, bytes_per_ns)),
        }
    }
}

/// Cheapest algorithm for the given shape: argmin of the post-arrival term,
/// ties broken in [`CollectiveAlgo::ALL`] order (the binomial production
/// default wins exact ties). Deterministic — a pure function of its inputs —
/// so the adaptive selector stays bitwise thread-invariant.
pub fn cheapest_algo(
    num_ranks: usize,
    hop_ns: u64,
    payload_bytes: u64,
    bytes_per_ns: f64,
) -> CollectiveAlgo {
    let mut best = CollectiveAlgo::BinomialTree;
    let mut best_ns = u64::MAX;
    for algo in CollectiveAlgo::ALL {
        let ns = algo.post_arrival_ns(num_ranks, hop_ns, payload_bytes, bytes_per_ns);
        if ns < best_ns {
            best = algo;
            best_ns = ns;
        }
    }
    best
}

/// How the per-step collective is chosen ([`crate::macrosim::SimConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveSelect {
    /// A fixed algorithm. `Fixed(BinomialTree)` (the default) is the
    /// pre-existing behavior, bit for bit.
    Fixed(CollectiveAlgo),
    /// Re-pick each step from live telemetry: stay on the binomial default
    /// until the sync-fraction gauge shows real pressure, then switch to the
    /// cheapest post-arrival term for the current shape (see
    /// `MacroSim::run`).
    Adaptive,
}

impl Default for CollectiveSelect {
    fn default() -> CollectiveSelect {
        CollectiveSelect::Fixed(CollectiveAlgo::BinomialTree)
    }
}

/// Tree depth for `num_ranks` participants.
#[inline]
pub fn tree_depth(num_ranks: usize) -> u32 {
    if num_ranks <= 1 {
        0
    } else {
        usize::BITS - (num_ranks - 1).leading_zeros()
    }
}

/// Barrier over each rank's arrival time at the sync point: writes per-rank
/// waits into `wait_out` (cleared first, capacity reused) and returns the
/// completion time. `hop_ns` is the per-tree-level message cost (fabric
/// latency for small control messages).
///
/// A single rank has tree depth 0 and waits 0. Arithmetic saturates so
/// degenerate `hop_ns` values (e.g. a payload cost computed from near-zero
/// bandwidth) cannot overflow in debug builds.
pub fn barrier_into(arrivals_ns: &[u64], hop_ns: u64, wait_out: &mut Vec<u64>) -> u64 {
    // A barrier is an allreduce with an empty payload (payload term 0).
    allreduce_into(
        CollectiveAlgo::BinomialTree,
        arrivals_ns,
        hop_ns,
        0,
        1.0,
        wait_out,
    )
}

/// Serialization time of a reduction payload, saturating on degenerate
/// bandwidth: a non-finite or non-positive `bytes_per_ns` (reachable when a
/// fail-slow NIC multiplier collapses to 0) means the payload never finishes,
/// so the cost pins at `u64::MAX` instead of overflowing through an
/// `f64 → u64` cast.
#[inline]
fn payload_ns(payload_bytes: u64, bytes_per_ns: f64) -> u64 {
    if !bytes_per_ns.is_finite() || bytes_per_ns <= 0.0 {
        return u64::MAX;
    }
    let ns = payload_bytes as f64 / bytes_per_ns;
    if ns >= u64::MAX as f64 {
        u64::MAX
    } else {
        ns as u64
    }
}

/// Blocking allreduce with the given algorithm: a barrier plus a reduction
/// payload (small vectors in AMR codes — timestep control values). The
/// per-step collective of [`crate::macrosim`] calls this with a pooled
/// `wait_out` (cleared first, capacity reused); the completion time is
/// returned.
///
/// Every algorithm shares one straggler-only wait model: a rank's wait is
/// the idle gap before the last rank arrives (`max(arrival) − own arrival`);
/// the post-arrival term ([`CollectiveAlgo::post_arrival_ns`]) is active
/// participation, charged to no one's wait. An empty participant set (a
/// fault response pruned every rank) completes at 0 with no waits.
pub fn allreduce_into(
    algo: CollectiveAlgo,
    arrivals_ns: &[u64],
    hop_ns: u64,
    payload_bytes: u64,
    bytes_per_ns: f64,
    wait_out: &mut Vec<u64>,
) -> u64 {
    wait_out.clear();
    let Some(&last) = arrivals_ns.iter().max() else {
        return 0;
    };
    wait_out.extend(arrivals_ns.iter().map(|&a| last - a));
    let post = algo.post_arrival_ns(arrivals_ns.len(), hop_ns, payload_bytes, bytes_per_ns);
    last.saturating_add(post)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_is_log2_ceiling() {
        assert_eq!(tree_depth(1), 0);
        assert_eq!(tree_depth(2), 1);
        assert_eq!(tree_depth(3), 2);
        assert_eq!(tree_depth(4), 2);
        assert_eq!(tree_depth(512), 9);
        assert_eq!(tree_depth(4096), 12);
        assert_eq!(tree_depth(4097), 13);
    }

    /// `(completion, per-rank waits)` of a barrier.
    fn barrier(arrivals: &[u64], hop: u64) -> (u64, Vec<u64>) {
        let mut wait = Vec::new();
        (barrier_into(arrivals, hop, &mut wait), wait)
    }

    /// `(completion, per-rank waits)` of an allreduce.
    fn allreduce(algo: CollectiveAlgo, arrivals: &[u64], bytes: u64, bw: f64) -> (u64, Vec<u64>) {
        let mut wait = Vec::new();
        (
            allreduce_into(algo, arrivals, 5, bytes, bw, &mut wait),
            wait,
        )
    }

    #[test]
    fn straggler_sets_completion() {
        let (c, wait) = barrier(&[10, 20, 1000, 30], 5);
        assert_eq!(c, 1000 + 2 * 5);
        // The straggler's tree hops are work, not wait: it waits zero.
        assert_eq!(wait[2], 0);
        // Early arrivers wait until the straggler shows up.
        assert_eq!(wait[0], 990);
        assert_eq!(wait.iter().max(), Some(&990));
    }

    #[test]
    fn last_arriver_waits_zero() {
        // The headline invariant: whoever arrives last never waits, no
        // matter the tree depth or hop cost.
        for arrivals in [
            vec![10u64, 20, 1000, 30],
            vec![7; 9],
            vec![0, u64::MAX / 2],
            (0..100).collect::<Vec<u64>>(),
        ] {
            let (_, wait) = barrier(&arrivals, 12_345);
            let last = *arrivals.iter().max().unwrap();
            let argmax = arrivals.iter().position(|&a| a == last).unwrap();
            assert_eq!(wait[argmax], 0);
            assert_eq!(
                wait.iter().sum::<u64>(),
                arrivals.iter().map(|&a| last - a).sum::<u64>()
            );
        }
    }

    #[test]
    fn uniform_arrivals_mean_zero_wait() {
        // Simultaneous arrivals: everyone does tree work, nobody waits.
        let (c, wait) = barrier(&[100; 64], 5);
        let depth = tree_depth(64) as u64;
        assert_eq!(c, 100 + depth * 5);
        assert!(wait.iter().all(|&w| w == 0));
    }

    #[test]
    fn empty_arrivals_complete_at_zero() {
        let mut wait = vec![7u64; 3];
        let c = barrier_into(&[], 5, &mut wait);
        assert_eq!(c, 0);
        assert!(wait.is_empty());
        for algo in CollectiveAlgo::ALL {
            assert_eq!(allreduce(algo, &[], 64, 2.0), (0, vec![]));
        }
    }

    #[test]
    fn single_rank_has_no_tree_and_no_wait() {
        let (c, wait) = barrier(&[42], 5_000);
        assert_eq!(c, 42); // depth 0: no hops
        assert_eq!(wait, vec![0]);
    }

    #[test]
    fn wait_grows_with_scale_for_same_imbalance() {
        // Same arrival spread, more ranks -> deeper tree, and with random
        // stragglers the expected max grows; here just check tree term.
        let (small, _) = barrier(&[0, 100], 10);
        let (large, _) = barrier(
            &vec![0; 1023].into_iter().chain([100]).collect::<Vec<_>>(),
            10,
        );
        assert!(large > small);
    }

    #[test]
    fn allreduce_adds_payload_cost() {
        let (b, _) = barrier(&[0, 0], 5);
        let (a, _) = allreduce(CollectiveAlgo::BinomialTree, &[0, 0], 1000, 1.0);
        assert!(a > b);
    }

    #[test]
    fn degenerate_bandwidth_saturates_instead_of_overflowing() {
        // bytes_per_ns == 0 previously cast `inf` to u64::MAX and then
        // overflowed in `last + depth * hop`. Now the whole chain saturates.
        for bw in [0.0, -1.0, f64::NAN, f64::INFINITY * 0.0] {
            let (c, wait) = allreduce(CollectiveAlgo::BinomialTree, &[10, 20], 64, bw);
            assert_eq!(c, u64::MAX);
            assert_eq!(wait, vec![10, 0]);
        }
        // Tiny-but-positive bandwidth also saturates rather than wrapping.
        let (c, _) = allreduce(CollectiveAlgo::BinomialTree, &[10, 20], u64::MAX, 1e-300);
        assert_eq!(c, u64::MAX);
        // So does a degenerate hop on a barrier.
        let (c, _) = barrier(&[u64::MAX, 1], u64::MAX);
        assert_eq!(c, u64::MAX);
    }

    #[test]
    fn total_wait_sums() {
        let (_, wait) = barrier(&[0, 50], 0);
        assert_eq!(wait.iter().sum::<u64>(), 50);
    }

    #[test]
    fn wait_buffer_is_cleared_before_reuse() {
        let arrivals = [10u64, 20, 1000, 30];
        let mut wait = vec![99; 1]; // stale content must be cleared
        assert_eq!(barrier_into(&arrivals, 5, &mut wait), 1010);
        assert_eq!(wait, vec![990, 980, 0, 970]);
        for algo in CollectiveAlgo::ALL {
            wait.push(99);
            let c = allreduce_into(algo, &arrivals, 5, 64, 2.0, &mut wait);
            assert_eq!((c, wait.clone()), allreduce(algo, &arrivals, 64, 2.0));
        }
    }

    /// All algorithms share the straggler-only wait model: identical waits,
    /// only the post-arrival completion term differs.
    #[test]
    fn algorithms_share_straggler_waits() {
        let arrivals = [10u64, 20, 1000, 30];
        let (_, reference) = barrier(&arrivals, 5);
        for algo in CollectiveAlgo::ALL {
            let (c, wait) = allreduce(algo, &arrivals, 1 << 20, 5.0);
            assert_eq!(wait, reference, "{} waits diverge", algo.name());
            assert!(c >= 1000);
        }
    }

    #[test]
    fn bandwidth_optimal_variants_win_big_payloads() {
        // 64 ranks (power of two), 8 MiB payload: recursive doubling moves
        // 2·(r−1)/r of the vector once instead of log r full copies.
        let (r, hop, bw) = (64usize, 2_500u64, 5.0);
        let big = 8u64 << 20;
        let bino = CollectiveAlgo::BinomialTree.post_arrival_ns(r, hop, big, bw);
        let rd = CollectiveAlgo::RecursiveDoubling.post_arrival_ns(r, hop, big, bw);
        assert!(rd < bino, "recursive doubling {rd} !< binomial {bino}");
        // Tiny control payloads: the latency-light tree stays cheapest.
        assert_eq!(cheapest_algo(r, hop, 64, bw), CollectiveAlgo::BinomialTree);
        assert_eq!(
            cheapest_algo(r, hop, big, bw),
            CollectiveAlgo::RecursiveDoubling
        );
    }

    #[test]
    fn ring_wins_non_power_of_two_with_huge_payload() {
        // 6 ranks: recursive doubling pays the fold/unfold preparation; the
        // ring's 2·(r−1) hops stay cheap at this scale.
        let (r, hop, bw) = (6usize, 2_500u64, 5.0);
        let big = 1u64 << 20;
        assert_eq!(cheapest_algo(r, hop, big, bw), CollectiveAlgo::Ring);
        // Power-of-two at the same scale: no prep penalty, doubling wins.
        assert_eq!(
            cheapest_algo(8, hop, big, bw),
            CollectiveAlgo::RecursiveDoubling
        );
    }

    #[test]
    fn cheapest_algo_is_argmin_and_tie_breaks_to_binomial() {
        for (r, hop, bytes, bw) in [
            (2usize, 1u64, 0u64, 1.0f64),
            (64, 2_500, 64, 5.0),
            (100, 2_500, 1 << 22, 5.0),
            (4096, 400, 1 << 16, 10.0),
        ] {
            let best = cheapest_algo(r, hop, bytes, bw);
            let best_ns = best.post_arrival_ns(r, hop, bytes, bw);
            for algo in CollectiveAlgo::ALL {
                assert!(best_ns <= algo.post_arrival_ns(r, hop, bytes, bw));
            }
        }
        // Single rank: every algorithm is free; the tie goes to the default.
        assert_eq!(cheapest_algo(1, 9, 9, 1.0), CollectiveAlgo::BinomialTree);
        assert_eq!(
            CollectiveSelect::default(),
            CollectiveSelect::Fixed(CollectiveAlgo::BinomialTree)
        );
    }

    #[test]
    fn post_arrival_saturates_for_all_algorithms() {
        for algo in CollectiveAlgo::ALL {
            assert_eq!(algo.post_arrival_ns(3, u64::MAX, u64::MAX, 0.0), u64::MAX);
            assert_eq!(algo.post_arrival_ns(1, u64::MAX, u64::MAX, 0.0), 0);
        }
    }
}
