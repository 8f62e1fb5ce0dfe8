//! Contiguous-DP (CDP) placement (§V-C).
//!
//! CDP keeps the baseline's contiguous SFC ranges — and therefore its exact
//! locality-preserving properties — but chooses the *boundaries* to minimize
//! makespan over measured costs, via dynamic programming.
//!
//! Two variants:
//!
//! * [`cdp_general`] — the full contiguous-partition DP,
//!   `DP[i][k] = min_j max(DP[j][k-1], W[i] - W[j])`, O(n²r). A reference
//!   implementation for tests and small instances.
//! * [`Cdp`] — the paper's O(nr) restriction to chunk sizes
//!   ⌊n/r⌋ and ⌈n/r⌉ only, "maintaining solution quality while making CDP
//!   practical for AMR timescales". With `L = ⌊n/r⌋` and `H` chunks of size
//!   `L+1` (where `H = n mod r`), the DP state collapses to
//!   `(ranks used, H-chunks used)` because the prefix length is then
//!   determined — this is what makes the restricted DP fast.

use super::chunked::{chunked_assign, ChunkedCdp};
use super::{validate_inputs, PlacementPolicy};
use crate::engine::{PlacementCtx, PlacementError, PlacementReport};
use crate::placement::Placement;

/// The paper's restricted contiguous DP: chunk sizes ⌊n/r⌋/⌈n/r⌉.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cdp;

/// Prefix sums of costs: `W[i] = sum(costs[..i])`, `W[0] = 0`.
fn prefix_sums(costs: &[f64]) -> Vec<f64> {
    let mut w = Vec::with_capacity(costs.len() + 1);
    let mut acc = 0.0;
    w.push(0.0);
    for &c in costs {
        acc += c;
        w.push(acc);
    }
    w
}

/// Expand per-rank segment lengths into a block→rank assignment.
fn lengths_to_placement(lengths: &[usize], num_ranks: usize) -> Placement {
    let ranks = lengths
        .iter()
        .enumerate()
        .flat_map(|(rank, &len)| std::iter::repeat_n(rank as u32, len))
        .collect();
    Placement::new(ranks, num_ranks)
}

impl Cdp {
    /// The restricted DP over chunk sizes `{L, L+1}` with caller-provided
    /// working memory: `w` holds prefix sums, `dp`/`next` the rolling DP
    /// rows, `parent` the bit-packed backtrack choices, and `lengths`
    /// receives the per-rank segment lengths. All buffers are cleared and
    /// refilled; repeated solves at steady-state sizes allocate nothing.
    pub(crate) fn solve_lengths_into(
        costs: &[f64],
        num_ranks: usize,
        w: &mut Vec<f64>,
        dp: &mut Vec<f64>,
        next: &mut Vec<f64>,
        parent: &mut Vec<u64>,
        lengths: &mut Vec<usize>,
    ) {
        let n = costs.len();
        let r = num_ranks;
        lengths.clear();
        if n == 0 {
            lengths.resize(r, 0);
            return;
        }
        let low = n / r;
        let high_total = n % r; // number of (L+1)-sized chunks
        if high_total == 0 {
            // All segments have identical length: nothing to optimize.
            lengths.resize(r, low);
            return;
        }
        w.clear();
        w.reserve(n + 1);
        w.push(0.0);
        let mut acc = 0.0;
        for &c in costs {
            acc += c;
            w.push(acc);
        }

        // DP over (k ranks used, h high-chunks used); prefix length is
        // k*low + h. Rolling 1-D array over h; parent bits for backtracking.
        let ht = high_total;
        let inf = f64::INFINITY;
        dp.clear();
        dp.resize(ht + 1, inf);
        next.clear();
        next.resize(ht + 1, inf);
        // Bit-packed parent choices: parent(k, h) == true => rank k-1 took a
        // high (L+1) chunk.
        let stride = ht + 1;
        parent.clear();
        parent.resize((r * stride).div_ceil(64), 0);
        let get_parent = |buf: &[u64], k: usize, h: usize| -> bool {
            let bit = (k - 1) * stride + h;
            buf[bit / 64] & (1 << (bit % 64)) != 0
        };

        dp[0] = 0.0; // zero ranks, zero chunks
        for k in 1..=r {
            // Feasible band of h for k ranks: can't exceed total H chunks or
            // k; must leave enough remaining ranks for remaining H chunks.
            // Every band cell is reachable (finite) and is written below, and
            // a row reads its predecessor only inside the predecessor's band
            // (the two edge cells, which have one option each, are peeled),
            // so the rolling rows need no reset: the band is at most
            // min(ht, r - ht) + 1 of a row's ht + 1 cells.
            let h_min = ht.saturating_sub(r - k);
            let h_max = ht.min(k);
            let base = k * low; // prefix length after k ranks is base + h
            let row = (k - 1) * stride;
            if h_min == 0 {
                // No high chunk yet: rank k-1 takes a low one.
                next[0] = dp[0].max(w[base] - w[base - low]);
            }
            if h_max == k {
                // All high so far: rank k-1 takes a high one.
                next[k] = dp[k - 1].max(w[base + k] - w[base + k - (low + 1)]);
                parent[(row + k) / 64] |= 1 << ((row + k) % 64);
            }
            // Interior cells choose between a low chunk (from `dp[h]`) and a
            // high one (from `dp[h - 1]`) over equal-length windows, with no
            // data-dependent branch: high wins only when strictly better, and
            // its parent bit is OR-ed either way, one register-held word of
            // the bit array at a time.
            let lo = h_min.max(1);
            let len = h_max.min(k - 1) + 1 - lo;
            let w_end = &w[base + lo..][..len];
            let w_low = &w[base + lo - low..][..len];
            let w_high = &w[base + lo - low - 1..][..len];
            let (dp_low, dp_high) = (&dp[lo..][..len], &dp[lo - 1..][..len]);
            let cells = &mut next[lo..][..len];
            let mut j = 0;
            while j < len {
                let bit = row + lo + j;
                let run = (64 - bit % 64).min(len - j);
                let mut word = 0u64;
                for i in j..j + run {
                    let a = dp_low[i].max(w_end[i] - w_low[i]);
                    let b = dp_high[i].max(w_end[i] - w_high[i]);
                    cells[i] = if b < a { b } else { a };
                    word |= ((b < a) as u64) << (i - j);
                }
                parent[bit / 64] |= word << (bit % 64);
                j += run;
            }
            std::mem::swap(dp, next);
        }
        debug_assert!(dp[ht] < inf, "restricted CDP found no feasible partition");

        // Backtrack.
        lengths.resize(r, 0);
        let mut h = ht;
        for k in (1..=r).rev() {
            if get_parent(parent, k, h) {
                lengths[k - 1] = low + 1;
                h -= 1;
            } else {
                lengths[k - 1] = low;
            }
        }
        debug_assert_eq!(lengths.iter().sum::<usize>(), n);
    }
}

impl PlacementPolicy for Cdp {
    fn name(&self) -> String {
        "cdp".into()
    }

    fn place_into(
        &self,
        ctx: &PlacementCtx,
        out: &mut Placement,
    ) -> Result<PlacementReport, PlacementError> {
        ctx.validate()?;
        // Plain CDP is the chunking whose one chunk holds every rank.
        chunked_assign(&ChunkedCdp::new(ctx.num_ranks()), ctx, out);
        Ok(ctx.finish(out))
    }
}

/// The unrestricted contiguous-partition DP (all segment lengths allowed),
/// O(n²r) time, O(nr) space. Optimal among *all* contiguous placements;
/// used as a test oracle for [`Cdp`] and in small-scale studies.
pub fn cdp_general(costs: &[f64], num_ranks: usize) -> Placement {
    validate_inputs(costs, num_ranks);
    let n = costs.len();
    let r = num_ranks;
    if n == 0 {
        return Placement::new(vec![], r);
    }
    let w = prefix_sums(costs);
    let inf = f64::INFINITY;
    // dp[k][i]: min makespan placing first i blocks on k ranks.
    let mut dp = vec![vec![inf; n + 1]; r + 1];
    let mut cut = vec![vec![0usize; n + 1]; r + 1];
    dp[0][0] = 0.0;
    for k in 1..=r {
        for i in 0..=n {
            // j = blocks on first k-1 ranks.
            for j in 0..=i {
                let prev = dp[k - 1][j];
                if prev == inf {
                    continue;
                }
                let val = prev.max(w[i] - w[j]);
                if val < dp[k][i] {
                    dp[k][i] = val;
                    cut[k][i] = j;
                }
            }
        }
    }
    // Backtrack segment boundaries.
    let mut lengths = vec![0usize; r];
    let mut i = n;
    for k in (1..=r).rev() {
        let j = cut[k][i];
        lengths[k - 1] = i - j;
        i = j;
    }
    lengths_to_placement(&lengths, num_ranks)
}

#[cfg(test)]
mod tests {
    use super::super::test_util::random_costs;
    use super::super::{Baseline, PlacementPolicy};
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn uniform_costs_match_baseline_counts() {
        let costs = vec![1.0; 10];
        let p = Cdp.place(&costs, 4);
        let mut counts = p.counts_per_rank();
        counts.sort();
        assert_eq!(counts, vec![2, 2, 3, 3]);
        assert!(p.is_contiguous());
    }

    #[test]
    fn divisible_case_short_circuits() {
        let costs = random_costs(16, 1);
        let p = Cdp.place(&costs, 4);
        assert_eq!(p.counts_per_rank(), vec![4, 4, 4, 4]);
        assert!(p.is_contiguous());
    }

    #[test]
    fn improves_on_baseline_with_skewed_costs() {
        // Paper example (§V-C): 10 blocks on 4 ranks, CDP explores [2,2,3,3]
        // orderings to dodge expensive blocks landing together.
        let costs = [9.0, 1.0, 1.0, 1.0, 9.0, 1.0, 1.0, 1.0, 9.0, 1.0];
        let cdp = Cdp.place(&costs, 4);
        let base = Baseline.place(&costs, 4);
        assert!(cdp.makespan(&costs) <= base.makespan(&costs));
        assert!(cdp.is_contiguous());
    }

    #[test]
    fn matches_general_dp_restricted_to_two_sizes() {
        // The restricted DP must be optimal *within its chunk-size space*:
        // verify against brute force over all {L, L+1} length vectors.
        fn brute(costs: &[f64], r: usize) -> f64 {
            let n = costs.len();
            let low = n / r;
            let ht = n % r;
            // Choose which ranks get the high chunk.
            fn rec(
                costs: &[f64],
                lengths: &mut Vec<usize>,
                k: usize,
                r: usize,
                low: usize,
                remaining_high: usize,
                best: &mut f64,
            ) {
                if k == r {
                    if remaining_high == 0 {
                        let mut i = 0;
                        let mut mk = 0.0f64;
                        for &len in lengths.iter() {
                            let seg: f64 = costs[i..i + len].iter().sum();
                            mk = mk.max(seg);
                            i += len;
                        }
                        *best = best.min(mk);
                    }
                    return;
                }
                if remaining_high > 0 {
                    lengths.push(low + 1);
                    rec(costs, lengths, k + 1, r, low, remaining_high - 1, best);
                    lengths.pop();
                }
                if r - k > remaining_high {
                    lengths.push(low);
                    rec(costs, lengths, k + 1, r, low, remaining_high, best);
                    lengths.pop();
                }
            }
            let mut best = f64::INFINITY;
            rec(costs, &mut Vec::new(), 0, r, low, ht, &mut best);
            best
        }
        for seed in 0..8 {
            let costs = random_costs(11, seed);
            let p = Cdp.place(&costs, 4);
            let opt = brute(&costs, 4);
            assert!(
                (p.makespan(&costs) - opt).abs() < 1e-9,
                "seed {seed}: got {}, brute {opt}",
                p.makespan(&costs)
            );
        }
    }

    #[test]
    fn general_dp_is_optimal_contiguous() {
        // Known instance: [4,1,1,4] on 2 ranks; optimal contiguous split is
        // [4,1|1,4] with makespan 5.
        let costs = [4.0, 1.0, 1.0, 4.0];
        let p = cdp_general(&costs, 2);
        assert_eq!(p.makespan(&costs), 5.0);
        assert!(p.is_contiguous());
    }

    #[test]
    fn general_dp_beats_or_ties_restricted() {
        for seed in 0..8 {
            let costs = random_costs(13, seed + 100);
            let gen = cdp_general(&costs, 5);
            let restricted = Cdp.place(&costs, 5);
            assert!(gen.makespan(&costs) <= restricted.makespan(&costs) + 1e-9);
        }
    }

    #[test]
    fn handles_fewer_blocks_than_ranks() {
        let costs = [3.0, 1.0];
        let p = Cdp.place(&costs, 4);
        assert_eq!(p.num_blocks(), 2);
        // Two ranks get one block each, two get none (L=0, H=2).
        let counts = p.counts_per_rank();
        assert_eq!(counts.iter().sum::<usize>(), 2);
        assert_eq!(counts.iter().filter(|&&c| c == 1).count(), 2);
        let g = cdp_general(&costs, 4);
        assert_eq!(g.makespan(&costs), 3.0);
    }

    #[test]
    fn empty_costs() {
        let p = Cdp.place(&[], 3);
        assert_eq!(p.num_blocks(), 0);
        let g = cdp_general(&[], 3);
        assert_eq!(g.num_blocks(), 0);
    }

    #[test]
    fn deterministic() {
        let costs = random_costs(100, 7);
        assert_eq!(Cdp.place(&costs, 13), Cdp.place(&costs, 13));
    }

    /// The scalar recurrence `solve_lengths_into` ran before its row went
    /// branch-free, kept as the oracle: whole-row resets, both options
    /// guarded per cell, the high chunk taken (and its parent bit set) only
    /// when strictly better.
    fn reference_lengths(costs: &[f64], r: usize) -> Vec<usize> {
        let (n, inf) = (costs.len(), f64::INFINITY);
        let (low, ht) = (n / r, n % r);
        if ht == 0 {
            return vec![low; r];
        }
        let w = prefix_sums(costs);
        let (mut dp, mut next) = (vec![inf; ht + 1], vec![inf; ht + 1]);
        let mut parent = vec![false; r * (ht + 1)];
        dp[0] = 0.0;
        for k in 1..=r {
            next.iter_mut().for_each(|v| *v = inf);
            for h in ht.saturating_sub(r - k)..=ht.min(k) {
                let i = k * low + h;
                if h < k && dp[h] < inf {
                    let val = dp[h].max(w[i] - w[i - low]);
                    if val < next[h] {
                        next[h] = val;
                    }
                }
                if h >= 1 && dp[h - 1] < inf {
                    let val = dp[h - 1].max(w[i] - w[i - (low + 1)]);
                    if val < next[h] {
                        next[h] = val;
                        parent[(k - 1) * (ht + 1) + h] = true;
                    }
                }
            }
            std::mem::swap(&mut dp, &mut next);
        }
        let mut lengths = vec![low; r];
        let mut h = ht;
        for k in (1..=r).rev() {
            if parent[(k - 1) * (ht + 1) + h] {
                lengths[k - 1] += 1;
                h -= 1;
            }
        }
        lengths
    }

    proptest! {
        /// Equal `lengths`, not just equal makespan, where the tie rule and
        /// the band edges bite — over one chunk and several solved back to
        /// back on one set of rolling rows, as `chunked_assign` drives them.
        #[test]
        fn branch_free_row_reproduces_the_scalar_recurrence(
            chunks in prop::collection::vec(
                (1usize..300, 0usize..4, 0usize..300, 0usize..4, 0usize..4, any::<u64>()),
                1..5,
            )
        ) {
            let (mut w, mut dp, mut next) = (Vec::new(), Vec::new(), Vec::new());
            let (mut parent, mut lengths) = (Vec::new(), Vec::new());
            for (r, q, rem, shape, kind, seed) in chunks {
                let n = match shape {
                    0 => rem % r,         // n < r: low == 0
                    1 => q * r + 1,       // one high chunk
                    2 => q * r + r - 1,   // one low chunk
                    _ => q * r + rem % r, // anything, divisible included
                };
                let costs: Vec<f64> = random_costs(n, seed)
                    .into_iter()
                    .map(|c| match kind {
                        0 => 1.0,              // all equal: every cell ties
                        1 => 0.0,              // all zero
                        2 => c.floor() % 3.0,  // few distinct values, zeros among them
                        _ => c,
                    })
                    .collect();
                Cdp::solve_lengths_into(
                    &costs, r, &mut w, &mut dp, &mut next, &mut parent, &mut lengths,
                );
                prop_assert_eq!(&lengths, &reference_lengths(&costs, r), "r {} costs {:?}", r, costs);
            }
        }
    }
}

/// Optimal contiguous partitioning by parametric search — the classic
/// O(n log(Σw/ε)) alternative to the DP.
///
/// Binary-searches the makespan and greedily checks feasibility ("can the
/// blocks be split into ≤ r contiguous segments each summing ≤ T?"). It
/// explores *all* segment lengths like [`cdp_general`] but runs in
/// near-linear time, so it stays practical far beyond where the O(n²r) DP
/// gives out — a useful upper-quality reference at fig7c scales. (The
/// paper's restricted [`Cdp`] remains the production choice: its {⌊n/r⌋,
/// ⌈n/r⌉} chunk sizes also bound per-rank *block counts*, which the
/// parametric search does not.)
pub fn cdp_parametric(costs: &[f64], num_ranks: usize) -> Placement {
    validate_inputs(costs, num_ranks);
    let n = costs.len();
    let r = num_ranks;
    if n == 0 {
        return Placement::new(vec![], r);
    }
    let total: f64 = costs.iter().sum();
    let max_block = costs.iter().cloned().fold(0.0, f64::max);

    // Feasibility: greedy first-fit of contiguous segments under cap T.
    let feasible = |t: f64| -> bool {
        let mut segments = 1usize;
        let mut acc = 0.0f64;
        for &c in costs {
            if c > t {
                return false;
            }
            if acc + c > t {
                segments += 1;
                acc = c;
                if segments > r {
                    return false;
                }
            } else {
                acc += c;
            }
        }
        true
    };

    let mut lo = (total / r as f64).max(max_block);
    let mut hi = total;
    // Relative-precision bisection; 60 iterations ≫ f64 precision.
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if feasible(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let t = hi;

    // Materialize the greedy partition at the found makespan.
    let mut lengths = Vec::with_capacity(r);
    let mut acc = 0.0f64;
    let mut len = 0usize;
    for &c in costs {
        if len > 0 && acc + c > t {
            lengths.push(len);
            acc = c;
            len = 1;
        } else {
            acc += c;
            len += 1;
        }
    }
    lengths.push(len);
    while lengths.len() < r {
        lengths.push(0);
    }
    lengths_to_placement(&lengths, r)
}

#[cfg(test)]
mod parametric_tests {
    use super::super::test_util::random_costs;
    use super::super::PlacementPolicy;
    use super::*;

    #[test]
    fn matches_general_dp_optimum() {
        for seed in 0..10 {
            let costs = random_costs(14, seed + 500);
            for r in [2usize, 3, 5] {
                let dp = cdp_general(&costs, r).makespan(&costs);
                let ps = cdp_parametric(&costs, r).makespan(&costs);
                assert!(
                    (ps - dp).abs() / dp < 1e-6,
                    "seed {seed} r {r}: parametric {ps} vs dp {dp}"
                );
            }
        }
    }

    #[test]
    fn never_worse_than_restricted_cdp() {
        for seed in 0..10 {
            let costs = random_costs(200, seed + 900);
            let restricted = Cdp.place(&costs, 31).makespan(&costs);
            let parametric = cdp_parametric(&costs, 31).makespan(&costs);
            assert!(parametric <= restricted + 1e-9);
        }
    }

    #[test]
    fn stays_contiguous_and_complete() {
        let costs = random_costs(500, 77);
        let p = cdp_parametric(&costs, 64);
        assert!(p.is_contiguous());
        assert_eq!(p.num_blocks(), 500);
    }

    #[test]
    fn fast_at_scale() {
        // 128K ranks, ~2 blocks/rank: must finish in well under the budget.
        let costs = random_costs(262_144, 3);
        let t0 = std::time::Instant::now();
        let p = cdp_parametric(&costs, 131_072);
        let ms = t0.elapsed().as_millis();
        assert!(p.is_contiguous());
        assert!(ms < 1_000, "parametric CDP took {ms} ms");
    }

    #[test]
    fn edge_cases() {
        assert_eq!(cdp_parametric(&[], 4).num_blocks(), 0);
        let p = cdp_parametric(&[5.0], 3);
        assert_eq!(p.makespan(&[5.0]), 5.0);
        let p = cdp_parametric(&[1.0, 1.0, 1.0, 1.0], 2);
        assert_eq!(p.makespan(&[1.0; 4]), 2.0);
    }
}
