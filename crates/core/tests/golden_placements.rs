//! Golden placements of the chunked-CDP family and `Zonal` at multi-chunk
//! shapes, pinned on the commit that still split chunks and zones with two
//! hand-written loops and solved chunks through `Cdp::solve_lengths`: the
//! reference for the one shared split and the one scratch-backed CDP driver.

use amr_core::policies::{Blend, Cdp, ChunkedCdp, Cplx, Lpt, PlacementPolicy, Zonal};

/// Deterministic costs in `[0.1, 10)` (splitmix64; no dependency on the
/// workspace's `rand` stand-in, so the fixture cannot move with it).
fn costs(n: usize, seed: u64) -> Vec<f64> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            0.1 + 9.9 * (z >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect()
}

/// `(costs, num_ranks, ranks_per_chunk)`; `Zonal` gets `ceil(ranks / chunk)`
/// zones, or (the "overflow" row) 60 more zones than ranks.
fn shapes() -> Vec<(Vec<f64>, usize, usize)> {
    vec![
        (costs(300, 1), 70, 16),  // ranks not divisible by the chunk size
        (costs(211, 2), 37, 8),   // uneven rank windows (8,8,7,7,7)
        (costs(20, 3), 64, 8),    // fewer blocks than ranks in a chunk
        (vec![0.0; 128], 64, 16), // all-zero-cost mesh: count-proportional
        (costs(100, 4), 16, 16),  // one-chunk boundary: ranks == chunk size
        (costs(512, 5), 128, 32), // plain multi-chunk
        (Vec::new(), 24, 8),      // empty mesh
        (costs(8, 6), 4, 1),      // one rank per chunk
    ]
}

fn fnv(h: &mut u64, v: u64) {
    *h = (*h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
}

/// FNV-1a over every shape's assignment under `policy_for(ranks, chunk)`.
fn golden<P: PlacementPolicy>(policy_for: impl Fn(usize, usize) -> P) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (costs, ranks, chunk) in shapes() {
        let p = policy_for(ranks, chunk).place(&costs, ranks);
        assert_eq!(p.num_blocks(), costs.len());
        fnv(&mut h, costs.len() as u64);
        for &rank in p.as_slice() {
            fnv(&mut h, rank as u64);
        }
    }
    h
}

#[test]
fn chunked_family_and_zonal_match_golden_placements() {
    let got = [
        ("chunked", golden(|_, c| ChunkedCdp::new(c))),
        ("cplx", golden(|_, c| Cplx::with_chunking(50, c))),
        (
            "blend",
            golden(|_, c| Blend {
                heavy_fraction: 0.3,
                chunking: ChunkedCdp::new(c),
            }),
        ),
        ("zonal-lpt", golden(|r, c| Zonal::new(r.div_ceil(c), Lpt))),
        (
            "zonal-cplx",
            golden(|r, c| Zonal::new(r.div_ceil(c), Cplx::with_chunking(50, 4))),
        ),
        ("zonal-overflow", golden(|r, _| Zonal::new(r + 60, Lpt))),
    ];
    let want = [
        ("chunked", 0xe429_8e40_08b5_7c31u64),
        ("cplx", 0x4b45_62b6_a188_1b1c),
        ("blend", 0x81a9_b95a_66f4_9c77),
        ("zonal-lpt", 0xbc22_0a45_a135_f5d4),
        ("zonal-cplx", 0xf7ad_6b64_b99b_83fa),
        ("zonal-overflow", 0x2bd4_8740_0aa8_3a9e),
    ];
    assert_eq!(got, want, "got {got:#018x?}");
}

/// The claim that lets `ChunkedCdp` and `Zonal` share one split: chunking
/// CDP over `c` chunks is zonal CDP over `c` zones, bit for bit.
#[test]
fn chunked_multi_chunk_equals_zonal_cdp() {
    for (costs, ranks, chunk) in shapes() {
        let chunked = ChunkedCdp::new(chunk).place(&costs, ranks);
        let zonal = Zonal::new(ranks.div_ceil(chunk), Cdp).place(&costs, ranks);
        assert_eq!(chunked, zonal, "{} blocks, {ranks} ranks", costs.len());
    }
}
