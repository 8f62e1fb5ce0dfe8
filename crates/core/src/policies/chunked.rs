//! Hierarchically chunked CDP (§V-C, "Scaling CDP With Chunking").
//!
//! Plain CDP's placement overhead "became noticeable at 4096 ranks". The
//! paper's fix: divide blocks into `c` contiguous chunks of approximately
//! equal cost, then apply CDP *independently* to each chunk using a subset
//! of ranks — at 4096 ranks with chunk size 512 this creates 8 chunks.
//! Chunking may miss the globally optimal CDP solution, but the output only
//! seeds CPLX, so the approximation "has minimal impact".
//!
//! The paper solves its chunks in parallel; here they are solved one after
//! another on one set of scratch buffers. The wall-time win this repo
//! measures (`ablation_chunking`: 38.6 ms → 1–5 ms; `fig7c_overhead`) is
//! algorithmic — `c` DPs over `r/c` ranks each cost `1/c` of one DP over
//! `r` ranks — not threads.

use super::cdp::Cdp;
use super::PlacementPolicy;
use crate::engine::{PlacementCtx, PlacementError, PlacementReport, Scratch};
use crate::placement::Placement;
use std::ops::Range;

/// Chunked CDP.
#[derive(Debug, Clone, Copy)]
pub struct ChunkedCdp {
    /// Target number of ranks handled by one chunk (the paper used 512).
    pub ranks_per_chunk: usize,
}

impl Default for ChunkedCdp {
    fn default() -> Self {
        ChunkedCdp {
            ranks_per_chunk: 512,
        }
    }
}

impl ChunkedCdp {
    /// Chunked CDP with a custom chunk size.
    pub fn new(ranks_per_chunk: usize) -> Self {
        assert!(ranks_per_chunk >= 1);
        ChunkedCdp { ranks_per_chunk }
    }
}

/// Split `num_ranks` ranks into `groups` windows as even as possible, and
/// the blocks into contiguous runs whose cumulative cost share matches each
/// window's rank share (count-proportional on a zero-cost mesh). Yields
/// `(block_range, rank_range)` per group, in order, allocating nothing.
pub(crate) fn cost_share_split(
    costs: &[f64],
    num_ranks: usize,
    groups: usize,
) -> impl Iterator<Item = (Range<usize>, Range<usize>)> + '_ {
    let n = costs.len();
    let total: f64 = costs.iter().sum();
    let (base, extra) = (num_ranks / groups, num_ranks % groups);
    let (mut rank_start, mut block_start) = (0usize, 0usize);
    let (mut acc, mut target) = (0.0f64, 0.0f64);
    (0..groups).map(move |g| {
        let nranks = base + usize::from(g < extra);
        let ranks = rank_start..rank_start + nranks;
        rank_start = ranks.end;
        let block_end = if g == groups - 1 {
            n
        } else if total == 0.0 {
            n * ranks.end / num_ranks
        } else {
            target += total * nranks as f64 / num_ranks as f64;
            let mut end = block_start;
            while end < n && acc < target {
                acc += costs[end];
                end += 1;
            }
            end
        };
        let blocks = block_start..block_end;
        block_start = block_end;
        (blocks, ranks)
    })
}

/// The CDP assignment every member of the family seeds from ([`Cdp`] as
/// the one-chunk case, [`ChunkedCdp`], [`super::Cplx`], [`super::Blend`]):
/// solve each chunk in turn on the context's CDP scratch (a local one when
/// none is attached) and append its ranks to `out`, computing no report.
pub(crate) fn chunked_assign(cfg: &ChunkedCdp, ctx: &PlacementCtx, out: &mut Placement) {
    let costs = ctx.costs();
    let num_ranks = ctx.num_ranks();
    let local;
    let s = match ctx.scratch() {
        Some(s) => s,
        None => {
            local = Scratch::new();
            &local
        }
    };
    let mut w = s.cdp_prefix.borrow_mut();
    let mut dp = s.cdp_dp.borrow_mut();
    let mut next = s.cdp_next.borrow_mut();
    let mut parent = s.cdp_parent.borrow_mut();
    let mut lengths = s.cdp_lengths.borrow_mut();
    let assignment = out.reset(num_ranks);
    assignment.clear();
    assignment.reserve(costs.len());
    let chunks = num_ranks.div_ceil(cfg.ranks_per_chunk);
    for (blocks, ranks) in cost_share_split(costs, num_ranks, chunks) {
        Cdp::solve_lengths_into(
            &costs[blocks],
            ranks.len(),
            &mut w,
            &mut dp,
            &mut next,
            &mut parent,
            &mut lengths,
        );
        for (rank, &len) in ranks.zip(lengths.iter()) {
            assignment.extend(std::iter::repeat_n(rank as u32, len));
        }
    }
}

impl PlacementPolicy for ChunkedCdp {
    fn name(&self) -> String {
        format!("cdp-chunked{}", self.ranks_per_chunk)
    }

    fn place_into(
        &self,
        ctx: &PlacementCtx,
        out: &mut Placement,
    ) -> Result<PlacementReport, PlacementError> {
        ctx.validate()?;
        chunked_assign(self, ctx, out);
        Ok(ctx.finish(out))
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::random_costs;
    use super::*;

    #[test]
    fn small_case_delegates_to_plain_cdp() {
        let costs = random_costs(40, 3);
        let chunked = ChunkedCdp::new(64).place(&costs, 8);
        let plain = Cdp.place(&costs, 8);
        assert_eq!(chunked, plain);
    }

    #[test]
    fn preserves_contiguity() {
        let costs = random_costs(512, 5);
        let p = ChunkedCdp::new(32).place(&costs, 128);
        assert!(p.is_contiguous());
        assert_eq!(p.num_blocks(), 512);
    }

    #[test]
    fn near_plain_cdp_quality() {
        // Chunking is an approximation; allow modest slack.
        let costs = random_costs(1024, 11);
        let plain = Cdp.place(&costs, 256);
        let chunked = ChunkedCdp::new(64).place(&costs, 256);
        let ratio = chunked.makespan(&costs) / plain.makespan(&costs);
        assert!(ratio < 1.3, "chunked/plain = {ratio}");
    }

    #[test]
    fn every_rank_used_with_two_blocks_per_rank() {
        let costs = random_costs(512, 9);
        let p = ChunkedCdp::new(64).place(&costs, 256);
        let counts = p.counts_per_rank();
        assert_eq!(counts.iter().sum::<usize>(), 512);
        // With equal-cost-share chunking and 2 blocks/rank, no rank should
        // starve badly: all get between 0 and 4.
        assert!(counts.iter().all(|&c| c <= 5));
    }

    #[test]
    fn zero_cost_mesh_falls_back_to_counts() {
        let costs = vec![0.0; 128];
        let p = ChunkedCdp::new(16).place(&costs, 64);
        assert_eq!(p.counts_per_rank().iter().sum::<usize>(), 128);
        assert!(p.is_contiguous());
    }
}
