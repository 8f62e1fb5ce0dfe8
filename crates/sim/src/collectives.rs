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

/// Result of a collective operation.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectiveResult {
    /// Virtual time when the collective completes (same for all ranks).
    pub completion_ns: u64,
    /// Per-rank wait time: completion − own arrival − own tree work, i.e.
    /// `max(arrival) − own arrival`. Zero for the last arriver.
    pub wait_ns: Vec<u64>,
}

impl CollectiveResult {
    /// Total wait summed over ranks.
    pub fn total_wait_ns(&self) -> u64 {
        self.wait_ns.iter().sum()
    }

    /// Maximum single-rank wait (the earliest arriver's penalty).
    pub fn max_wait_ns(&self) -> u64 {
        self.wait_ns.iter().copied().max().unwrap_or(0)
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

/// Execute a barrier given each rank's arrival time at the sync point.
///
/// `hop_ns` is the per-tree-level message cost (fabric latency for small
/// control messages).
pub fn barrier(arrivals_ns: &[u64], hop_ns: u64) -> CollectiveResult {
    let mut wait = Vec::new();
    let completion = barrier_into(arrivals_ns, hop_ns, &mut wait);
    CollectiveResult {
        completion_ns: completion,
        wait_ns: wait,
    }
}

/// Allocation-free barrier: writes per-rank waits into `wait_out` (cleared
/// first, capacity reused) and returns the completion time. The per-step
/// collective of [`crate::macrosim`] calls this with a pooled buffer.
///
/// An empty participant set (a fault response pruned every rank) is a no-op:
/// completion 0, no waits. A single rank has tree depth 0 and waits 0.
/// Arithmetic saturates so degenerate `hop_ns` values (e.g. a payload cost
/// computed from near-zero bandwidth) cannot overflow in debug builds.
pub fn barrier_into(arrivals_ns: &[u64], hop_ns: u64, wait_out: &mut Vec<u64>) -> u64 {
    // A barrier is an allreduce with an empty payload (payload term 0).
    allreduce_with_into(
        CollectiveAlgo::BinomialTree,
        arrivals_ns,
        hop_ns,
        0,
        1.0,
        wait_out,
    )
}

/// The single completion core every collective shares: per-rank wait is the
/// idle gap before the straggler arrives (`max(arrival) − own arrival`; the
/// post-arrival term is active participation, charged to no one's wait), and
/// completion is the straggler's arrival plus the algorithm's post term.
fn finish_into(arrivals_ns: &[u64], post_ns: u64, wait_out: &mut Vec<u64>) -> u64 {
    wait_out.clear();
    if arrivals_ns.is_empty() {
        return 0;
    }
    let last = arrivals_ns.iter().copied().max().unwrap();
    wait_out.extend(arrivals_ns.iter().map(|&a| last - a));
    last.saturating_add(post_ns)
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

/// Execute a blocking allreduce: a barrier plus a reduction payload moved at
/// every level (small vectors in AMR codes — timestep control values).
///
/// Thin shim over [`allreduce_into`] — the wait-accounting and `payload_ns`
/// saturation fixes live on the `_into` path only, and a regression test
/// pins the equality.
pub fn allreduce(
    arrivals_ns: &[u64],
    hop_ns: u64,
    payload_bytes: u64,
    bytes_per_ns: f64,
) -> CollectiveResult {
    let mut wait = Vec::new();
    let completion = allreduce_into(arrivals_ns, hop_ns, payload_bytes, bytes_per_ns, &mut wait);
    CollectiveResult {
        completion_ns: completion,
        wait_ns: wait,
    }
}

/// Allocation-free counterpart of [`allreduce`]; see [`barrier_into`].
pub fn allreduce_into(
    arrivals_ns: &[u64],
    hop_ns: u64,
    payload_bytes: u64,
    bytes_per_ns: f64,
    wait_out: &mut Vec<u64>,
) -> u64 {
    allreduce_with_into(
        CollectiveAlgo::BinomialTree,
        arrivals_ns,
        hop_ns,
        payload_bytes,
        bytes_per_ns,
        wait_out,
    )
}

/// Algorithm-selectable allreduce (see [`CollectiveAlgo`]); all variants use
/// the same straggler-only wait model and differ only in the post-arrival
/// term.
pub fn allreduce_with(
    algo: CollectiveAlgo,
    arrivals_ns: &[u64],
    hop_ns: u64,
    payload_bytes: u64,
    bytes_per_ns: f64,
) -> CollectiveResult {
    let mut wait = Vec::new();
    let completion = allreduce_with_into(
        algo,
        arrivals_ns,
        hop_ns,
        payload_bytes,
        bytes_per_ns,
        &mut wait,
    );
    CollectiveResult {
        completion_ns: completion,
        wait_ns: wait,
    }
}

/// Allocation-free counterpart of [`allreduce_with`]; see [`barrier_into`].
pub fn allreduce_with_into(
    algo: CollectiveAlgo,
    arrivals_ns: &[u64],
    hop_ns: u64,
    payload_bytes: u64,
    bytes_per_ns: f64,
    wait_out: &mut Vec<u64>,
) -> u64 {
    let post = algo.post_arrival_ns(arrivals_ns.len(), hop_ns, payload_bytes, bytes_per_ns);
    finish_into(arrivals_ns, post, wait_out)
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

    #[test]
    fn straggler_sets_completion() {
        let r = barrier(&[10, 20, 1000, 30], 5);
        assert_eq!(r.completion_ns, 1000 + 2 * 5);
        // The straggler's tree hops are work, not wait: it waits zero.
        assert_eq!(r.wait_ns[2], 0);
        // Early arrivers wait until the straggler shows up.
        assert_eq!(r.wait_ns[0], 990);
        assert_eq!(r.max_wait_ns(), 990);
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
            let res = barrier(&arrivals, 12_345);
            let last = *arrivals.iter().max().unwrap();
            let argmax = arrivals.iter().position(|&a| a == last).unwrap();
            assert_eq!(res.wait_ns[argmax], 0);
            assert_eq!(
                res.total_wait_ns(),
                arrivals.iter().map(|&a| last - a).sum::<u64>()
            );
        }
    }

    #[test]
    fn uniform_arrivals_mean_zero_wait() {
        // Simultaneous arrivals: everyone does tree work, nobody waits.
        let r = barrier(&[100; 64], 5);
        let depth = tree_depth(64) as u64;
        assert_eq!(r.completion_ns, 100 + depth * 5);
        assert!(r.wait_ns.iter().all(|&w| w == 0));
    }

    #[test]
    fn empty_arrivals_complete_at_zero() {
        let mut wait = vec![7u64; 3];
        let c = barrier_into(&[], 5, &mut wait);
        assert_eq!(c, 0);
        assert!(wait.is_empty());
        let r = barrier(&[], 5);
        assert_eq!(r.completion_ns, 0);
        assert!(r.wait_ns.is_empty());
        assert_eq!(r.total_wait_ns(), 0);
        assert_eq!(r.max_wait_ns(), 0);
    }

    #[test]
    fn single_rank_has_no_tree_and_no_wait() {
        let r = barrier(&[42], 5_000);
        assert_eq!(r.completion_ns, 42); // depth 0: no hops
        assert_eq!(r.wait_ns, vec![0]);
    }

    #[test]
    fn wait_grows_with_scale_for_same_imbalance() {
        // Same arrival spread, more ranks -> deeper tree, and with random
        // stragglers the expected max grows; here just check tree term.
        let small = barrier(&[0, 100], 10);
        let large = barrier(
            &vec![0; 1023].into_iter().chain([100]).collect::<Vec<_>>(),
            10,
        );
        assert!(large.completion_ns > small.completion_ns);
    }

    #[test]
    fn allreduce_adds_payload_cost() {
        let b = barrier(&[0, 0], 10);
        let a = allreduce(&[0, 0], 10, 1000, 1.0);
        assert!(a.completion_ns > b.completion_ns);
    }

    #[test]
    fn degenerate_bandwidth_saturates_instead_of_overflowing() {
        // bytes_per_ns == 0 previously cast `inf` to u64::MAX and then
        // overflowed in `last + depth * hop`. Now the whole chain saturates.
        let mut wait = Vec::new();
        for bw in [0.0, -1.0, f64::NAN, f64::INFINITY * 0.0] {
            let c = allreduce_into(&[10, 20], 5, 64, bw, &mut wait);
            assert_eq!(c, u64::MAX);
            assert_eq!(wait, vec![10, 0]);
        }
        // Tiny-but-positive bandwidth also saturates rather than wrapping.
        let c = allreduce_into(&[10, 20], 5, u64::MAX, 1e-300, &mut wait);
        assert_eq!(c, u64::MAX);
    }

    #[test]
    fn total_wait_sums() {
        let r = barrier(&[0, 50], 0);
        assert_eq!(r.total_wait_ns(), 50);
    }

    #[test]
    fn into_variants_match_allocating_ones() {
        let arrivals = [10u64, 20, 1000, 30];
        let mut wait = vec![99; 1]; // stale content must be cleared
        let c = barrier_into(&arrivals, 5, &mut wait);
        let reference = barrier(&arrivals, 5);
        assert_eq!(c, reference.completion_ns);
        assert_eq!(wait, reference.wait_ns);
        let c = allreduce_into(&arrivals, 5, 64, 2.0, &mut wait);
        let reference = allreduce(&arrivals, 5, 64, 2.0);
        assert_eq!(c, reference.completion_ns);
        assert_eq!(wait, reference.wait_ns);
        for algo in CollectiveAlgo::ALL {
            let c = allreduce_with_into(algo, &arrivals, 5, 64, 2.0, &mut wait);
            let reference = allreduce_with(algo, &arrivals, 5, 64, 2.0);
            assert_eq!(c, reference.completion_ns);
            assert_eq!(wait, reference.wait_ns);
        }
    }

    /// The legacy wrappers are shims over the `_into` path: identical on the
    /// saturation edge cases that used to live only on the `_into` side.
    #[test]
    fn legacy_wrappers_share_the_saturating_path() {
        let arrivals = [10u64, 20];
        for bw in [0.0, -1.0, f64::NAN, 1e-300] {
            let r = allreduce(&arrivals, 5, u64::MAX, bw);
            assert_eq!(r.completion_ns, u64::MAX);
            assert_eq!(r.wait_ns, vec![10, 0]);
        }
        // Degenerate hop on the barrier wrapper saturates too.
        let r = barrier(&[u64::MAX, 1], u64::MAX);
        assert_eq!(r.completion_ns, u64::MAX);
    }

    /// `Fixed(BinomialTree)` — the default — reproduces the legacy formula
    /// bit for bit; every committed baseline rests on this.
    #[test]
    fn binomial_variant_is_the_legacy_allreduce() {
        let cases: [(&[u64], u64, u64, f64); 3] = [
            (&[10, 20, 1000, 30], 2_500, 64, 5.0),
            (&[7; 9], 400, 1 << 20, 10.0),
            (&[0, u64::MAX / 2], 12_345, 0, 1.0),
        ];
        let mut wait_a = Vec::new();
        let mut wait_b = Vec::new();
        for (arrivals, hop, bytes, bw) in cases {
            let a = allreduce_into(arrivals, hop, bytes, bw, &mut wait_a);
            let b = allreduce_with_into(
                CollectiveAlgo::BinomialTree,
                arrivals,
                hop,
                bytes,
                bw,
                &mut wait_b,
            );
            assert_eq!(a, b);
            assert_eq!(wait_a, wait_b);
        }
        assert_eq!(
            CollectiveSelect::default(),
            CollectiveSelect::Fixed(CollectiveAlgo::BinomialTree)
        );
    }

    /// All algorithms share the straggler-only wait model: identical waits,
    /// only the post-arrival completion term differs.
    #[test]
    fn algorithms_share_straggler_waits() {
        let arrivals = [10u64, 20, 1000, 30];
        let reference = allreduce(&arrivals, 5, 1 << 20, 5.0);
        for algo in CollectiveAlgo::ALL {
            let r = allreduce_with(algo, &arrivals, 5, 1 << 20, 5.0);
            assert_eq!(
                r.wait_ns,
                reference.wait_ns,
                "{} waits diverge",
                algo.name()
            );
            assert!(r.completion_ns >= 1000);
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
    }

    #[test]
    fn post_arrival_saturates_for_all_algorithms() {
        for algo in CollectiveAlgo::ALL {
            assert_eq!(algo.post_arrival_ns(3, u64::MAX, u64::MAX, 0.0), u64::MAX);
            assert_eq!(algo.post_arrival_ns(1, u64::MAX, u64::MAX, 0.0), 0);
        }
    }
}
