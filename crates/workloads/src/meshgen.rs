//! Random realistic AMR meshes for `commbench` (§VI-C).
//!
//! `commbench` "constructs octree-based AMR meshes with realistic
//! refinement... meshes are refined to yield 1–2 blocks per rank". We build
//! a root grid of about half a block per rank, then refine the blocks
//! intersecting a few randomly placed spheres (hot regions) until the block
//! count reaches the target — producing the clustered fine-level
//! neighborhoods whose traffic structure drives the Fig. 7a locality
//! effects.

use amr_mesh::{AmrMesh, Dim, MeshConfig, Point, RefineTag};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Split `total = 2^k` into three axis factors as evenly as possible.
fn cube_factors(total: usize) -> (u32, u32, u32) {
    assert!(total.is_power_of_two(), "rank counts must be powers of two");
    let k = total.trailing_zeros();
    let a = k / 3;
    let b = (k - a) / 2;
    let c = k - a - b;
    (1 << c, 1 << b, 1 << a) // c >= b >= a keeps x the largest
}

/// Build a random 2:1-balanced mesh with roughly `target_blocks_per_rank`
/// blocks per rank (1.0–2.0 is the paper's commbench regime).
///
/// Deterministic in `seed`.
pub fn random_refined_mesh(ranks: usize, target_blocks_per_rank: f64, seed: u64) -> AmrMesh {
    assert!(ranks >= 8, "need at least 8 ranks");
    assert!(target_blocks_per_rank >= 0.5);
    // Roots ≈ ranks/2 so that refining ~10% of blocks reaches 1–2x ranks.
    let roots = cube_factors(ranks / 2);
    let mut config = MeshConfig::from_cells(Dim::D3, (roots.0 * 16, roots.1 * 16, roots.2 * 16), 2);
    config.max_level = 2;
    let mut mesh = AmrMesh::new(config);
    let target = (ranks as f64 * target_blocks_per_rank) as usize;

    let mut rng = StdRng::seed_from_u64(seed);
    let mut guard = 0;
    while mesh.num_blocks() < target && guard < 64 {
        guard += 1;
        // A random hot sphere; refine the blocks it intersects.
        let c = Point::new(rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>());
        let radius = rng.gen_range(0.05..0.20);
        let before = mesh.num_blocks();
        mesh.adapt(|b| {
            if b.bounds.distance_to_point(&c) <= radius
                && b.level() < 2
                && before + 7 * 8 < target + target / 4
            {
                RefineTag::Refine
            } else {
                RefineTag::Keep
            }
        });
        if mesh.num_blocks() >= target {
            break;
        }
    }
    mesh
}

/// Build a deterministic 2:1-balanced mesh of roughly `target_blocks`
/// blocks for scales beyond the root-grid budget.
///
/// [`random_refined_mesh`] sizes the *root grid* to the rank count, which
/// runs into the 32-roots-per-axis Morton budget at 2^16 ranks. Here the
/// root lattice is pinned to its 32³ maximum and block count is grown by
/// *depth* instead: one uniform pass to level 1 (262,144 blocks), then
/// randomly placed level-2 hot spheres until `target_blocks` is reached —
/// the same clustered fine-level structure, up to the ~2.1M-block ceiling
/// of a fully level-2 forest. Deterministic in `seed`.
pub fn large_refined_mesh(target_blocks: usize, seed: u64) -> AmrMesh {
    const ROOTS: usize = 32 * 32 * 32;
    assert!(
        target_blocks <= ROOTS * 55,
        "target {target_blocks} beyond the level-2 forest's reach"
    );
    let mut config = MeshConfig::from_cells(Dim::D3, (32 * 16, 32 * 16, 32 * 16), 2);
    config.max_level = 2;
    let mut mesh = AmrMesh::new(config);
    mesh.adapt(|b| {
        if b.level() == 0 {
            RefineTag::Refine
        } else {
            RefineTag::Keep
        }
    });

    let mut rng = StdRng::seed_from_u64(seed);
    let mut guard = 0;
    while mesh.num_blocks() < target_blocks && guard < 256 {
        guard += 1;
        let c = Point::new(rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>());
        let radius = rng.gen_range(0.10..0.30);
        mesh.adapt(|b| {
            if b.level() == 1 && b.bounds.distance_to_point(&c) <= radius {
                RefineTag::Refine
            } else {
                RefineTag::Keep
            }
        });
    }
    assert!(
        mesh.num_blocks() >= target_blocks,
        "hot spheres saturated at {} of {target_blocks} blocks",
        mesh.num_blocks()
    );
    mesh
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_multiply_back() {
        for total in [4usize, 8, 64, 256, 2048] {
            let (a, b, c) = cube_factors(total);
            assert_eq!((a * b * c) as usize, total);
            // Within a factor of 4 of each other (balanced split).
            let mx = a.max(b).max(c);
            let mn = a.min(b).min(c);
            assert!(mx / mn <= 4, "{total}: {a}x{b}x{c}");
        }
    }

    /// The octree's leaf set round-trips through its sorted leaves: rebuilt
    /// by `from_leaves` (which re-hashes every octant and re-validates tiling
    /// and balance), it holds the same leaves in the same SFC order.
    #[test]
    fn random_trees_round_trip_through_from_leaves() {
        use amr_mesh::Octree;
        for seed in 0..8 {
            let mesh = random_refined_mesh(16, 6.0, seed);
            let tree = mesh.tree();
            let leaves = tree.leaves_sorted();
            let rebuilt = Octree::from_leaves(tree.dim(), tree.roots(), leaves.clone()).unwrap();
            rebuilt.check_invariants().unwrap();
            assert_eq!(rebuilt.num_leaves(), tree.num_leaves());
            assert_eq!(rebuilt.leaves_sorted(), leaves);
            assert!(leaves.iter().all(|o| rebuilt.is_leaf(o)));
        }
    }

    #[test]
    fn mesh_hits_block_target_range() {
        for ranks in [64usize, 512] {
            let m = random_refined_mesh(ranks, 1.5, 3);
            let bpr = m.num_blocks() as f64 / ranks as f64;
            assert!(
                (0.5..=2.5).contains(&bpr),
                "{ranks} ranks -> {} blocks",
                m.num_blocks()
            );
            m.check_invariants().unwrap();
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = random_refined_mesh(64, 1.5, 9);
        let b = random_refined_mesh(64, 1.5, 9);
        assert_eq!(a.num_blocks(), b.num_blocks());
        let c = random_refined_mesh(64, 1.5, 10);
        // Different seeds give different meshes (refined counts differ with
        // high probability; tolerate rare collision by comparing leaves).
        let same = a
            .blocks()
            .iter()
            .zip(c.blocks())
            .all(|(x, y)| x.octant == y.octant)
            && a.num_blocks() == c.num_blocks();
        assert!(!same, "different seeds produced identical meshes");
    }

    #[test]
    fn refinement_present() {
        let m = random_refined_mesh(512, 1.8, 4);
        assert!(m.blocks().iter().any(|b| b.level() > 0));
    }

    #[test]
    fn large_mesh_reaches_target_beyond_root_budget() {
        // A target just past the uniform level-1 forest forces at least one
        // level-2 hot sphere; the full 2^20-rank scale is exercised by the
        // `scale_hier` bench binary, not in unit tests.
        let target = 300_000;
        let m = large_refined_mesh(target, 7);
        assert!(m.num_blocks() >= target);
        assert!(m.blocks().iter().any(|b| b.level() == 2));
        let n1 = large_refined_mesh(target, 7).num_blocks();
        assert_eq!(m.num_blocks(), n1, "must be deterministic in seed");
    }
}
