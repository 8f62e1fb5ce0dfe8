//! Fig. 7 (bottom) — placement computation overhead vs scale.
//!
//! Wall-clock time of each policy's `place()` call at 1–2 blocks per rank,
//! from 512 up to 128K ranks. The paper reports CPLX staying near ~10 ms up
//! to 16K ranks and ~100 ms at 128K, against its 50 ms redistribution
//! budget; zonal/chunked decomposition is the escape hatch at the largest
//! scales (already built into `ChunkedCdp`). Here chunks and zones are
//! solved in sequence: what the tables show is smaller DPs and sorts, not
//! threads.
//!
//! ```text
//! cargo run -p amr-bench --release --bin fig7c_overhead -- \
//!     [--ranks 512,2048,8192,16384,65536,131072] [--reps 5]
//! ```

use amr_bench::{render_table, Args};
use amr_core::engine::{PlacementCtx, PlacementEngine, PlacementError, PlacementReport};
use amr_core::policies::{cdp_parametric, Baseline, ChunkedCdp, Cplx, Lpt, PlacementPolicy, Zonal};
use amr_core::Placement;
use amr_workloads::CostDistribution;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Adapter: run the free-function parametric CDP through the policy trait.
struct ParametricCdp;
impl PlacementPolicy for ParametricCdp {
    fn name(&self) -> String {
        "cdp-param".into()
    }
    fn place_into(
        &self,
        ctx: &PlacementCtx,
        out: &mut Placement,
    ) -> Result<PlacementReport, PlacementError> {
        ctx.validate()?;
        *out = cdp_parametric(ctx.costs(), ctx.num_ranks());
        Ok(ctx.finish(out))
    }
}

fn main() {
    let args = Args::from_env();
    let scales = args.get_usize_list("ranks", &[512, 2048, 8192, 16384, 65536, 131072]);
    let reps = args.get_usize("reps", 5);
    let bpr = args.get_usize("blocks-per-rank", 2);

    println!("== Fig. 7c: placement computation time vs scale (host wall-clock, ms) ==");
    println!("   ({bpr} blocks/rank; mean over {reps} runs; budget = 50 ms)\n");

    let dist = CostDistribution::Exponential { mean: 1.0 };
    let mut cold_rows = Vec::new();
    let mut warm_rows = Vec::new();
    for &ranks in &scales {
        let n = ranks * bpr;
        let mut rng = StdRng::seed_from_u64(42 ^ ranks as u64);
        let costs = dist.sample_vec(n, &mut rng);

        let policies: Vec<Box<dyn PlacementPolicy>> = vec![
            Box::new(Baseline),
            Box::new(Lpt),
            Box::new(ChunkedCdp::default()),
            Box::new(ParametricCdp),
            Box::new(Cplx::new(25)),
            Box::new(Cplx::new(50)),
            Box::new(Cplx::new(100)),
            // The paper's zonal mitigation for the largest scales (§VI-C).
            Box::new(Zonal::new(ranks.div_ceil(8192).max(2), Cplx::new(50))),
        ];
        let mut cold_cells = vec![ranks.to_string()];
        let mut warm_cells = vec![ranks.to_string()];
        for policy in &policies {
            // Cold path: a fresh `place()` per rebalance (pre-engine world).
            let _ = policy.place(&costs, ranks);
            let t0 = Instant::now();
            for _ in 0..reps {
                std::hint::black_box(policy.place(&costs, ranks));
            }
            let cold_ms = t0.elapsed().as_secs_f64() * 1e3 / reps as f64;
            cold_cells.push(format!("{cold_ms:.2}"));

            // Warm path: the steady-state rebalance loop — one engine whose
            // scratch and placement buffers persist across invocations
            // (allocation-free for the sequential policies).
            let mut engine = PlacementEngine::new();
            for _ in 0..2 {
                engine
                    .rebalance(policy.as_ref(), &costs, ranks)
                    .expect("warm-up rebalance");
            }
            let t0 = Instant::now();
            for _ in 0..reps {
                std::hint::black_box(
                    engine
                        .rebalance(policy.as_ref(), &costs, ranks)
                        .expect("engine rebalance"),
                );
            }
            let warm_ms = t0.elapsed().as_secs_f64() * 1e3 / reps as f64;
            warm_cells.push(format!("{warm_ms:.2}"));
        }
        cold_rows.push(cold_cells);
        warm_rows.push(warm_cells);
    }
    let header = [
        "ranks",
        "baseline",
        "lpt",
        "cdp-chunked",
        "cdp-param",
        "cpl25",
        "cpl50",
        "cpl100",
        "zonal-cpl50",
    ];
    println!("-- cold: fresh place() per rebalance --");
    println!("{}", render_table(&header, &cold_rows));
    println!(
        "\n-- warm: reused PlacementEngine (steady-state rebalance, incl. migration accounting) --"
    );
    println!("{}", render_table(&header, &warm_rows));
    println!("Paper shape check: ~10 ms at 16K ranks, rising toward ~100 ms at 128K.");
}
