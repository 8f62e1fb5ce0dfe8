//! Property tests for the newer substrate features: Hilbert keys,
//! checkpointing, zonal placement and traffic matrices.

use amr_tools::mesh::{checkpoint, hilbert_index, AmrMesh, Dim, MeshConfig, RefineTag};
use amr_tools::placement::policies::{Cplx, Lpt, PlacementPolicy, Zonal};
use amr_tools::placement::TrafficMatrix;
use proptest::prelude::*;

/// A 2×2(×2)-root mesh with every third block refined once: a checkpoint
/// of a few hundred bytes with two leaf levels.
fn small_mesh(d3: bool, periodic: bool, salt: u64) -> AmrMesh {
    let dim = if d3 { Dim::D3 } else { Dim::D2 };
    let mut config = MeshConfig::from_cells(dim, (32, 32, 32), 3);
    config.periodic = periodic;
    let mut mesh = AmrMesh::new(config);
    mesh.adapt(|b| {
        if (b.id.index() as u64 + salt).is_multiple_of(3) {
            RefineTag::Refine
        } else {
            RefineTag::Keep
        }
    });
    mesh
}

proptest! {
    #[test]
    fn hilbert_indices_are_a_bijection_2d(bits in 1u32..6) {
        let side = 1u32 << bits;
        let mut seen = vec![false; (side * side) as usize];
        for y in 0..side {
            for x in 0..side {
                let h = hilbert_index(&[x, y], bits) as usize;
                prop_assert!(h < seen.len());
                prop_assert!(!seen[h], "collision at ({x},{y})");
                seen[h] = true;
            }
        }
    }

    #[test]
    fn hilbert_consecutive_cells_are_face_neighbors_3d(bits in 1u32..4) {
        let side = 1u32 << bits;
        let mut cells: Vec<(u64, (u32, u32, u32))> = Vec::new();
        for z in 0..side {
            for y in 0..side {
                for x in 0..side {
                    cells.push((hilbert_index(&[x, y, z], bits), (x, y, z)));
                }
            }
        }
        cells.sort();
        for w in cells.windows(2) {
            let (a, b) = (w[0].1, w[1].1);
            let d = a.0.abs_diff(b.0) + a.1.abs_diff(b.1) + a.2.abs_diff(b.2);
            prop_assert_eq!(d, 1);
        }
    }

    #[test]
    fn checkpoint_roundtrips_arbitrary_meshes(salt in 0u64..500, steps in 1usize..4) {
        let mut mesh = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (48, 48, 48), 2));
        for step in 0..steps {
            let key = salt.wrapping_add(step as u64);
            mesh.adapt(|b| {
                match (b.id.index() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(key) % 6 {
                    0 => RefineTag::Refine,
                    1 => RefineTag::Coarsen,
                    _ => RefineTag::Keep,
                }
            });
        }
        let restored = checkpoint::restore(&checkpoint::save(&mesh)).unwrap();
        prop_assert_eq!(restored.num_blocks(), mesh.num_blocks());
        for (a, b) in mesh.blocks().iter().zip(restored.blocks()) {
            prop_assert_eq!(a.octant, b.octant);
        }
    }

    #[test]
    fn checkpoint_restore_never_panics_on_arbitrary_bytes(
        keep: usize,
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        // Arbitrary bytes behind a prefix of a valid checkpoint, so they
        // reach every field's parser instead of stopping at `BadMagic`.
        let valid = checkpoint::save(&small_mesh(true, false, 0));
        let mut buf = valid[..keep % (valid.len() + 1)].to_vec();
        buf.extend_from_slice(&bytes);
        let _ = checkpoint::restore(&buf);
    }

    #[test]
    fn checkpoint_restore_never_panics_on_a_single_byte_overwrite(
        d3: bool,
        periodic: bool,
        salt in 0u64..6,
        // Any byte, a header byte, a leaf's level byte, or the sign and
        // exponent byte of a domain bound.
        at in prop_oneof![
            any::<usize>(),
            0usize..95,
            (0usize..64).prop_map(|leaf| 95 + 13 * leaf),
            (0usize..6).prop_map(|bound| 39 + 8 * bound + 7),
        ],
        byte: u8,
    ) {
        let mut buf = checkpoint::save(&small_mesh(d3, periodic, salt));
        let at = at % buf.len();
        buf[at] = byte;
        // An error, or a mesh whose invariants hold.
        if let Ok(back) = checkpoint::restore(&buf) {
            prop_assert!(back.check_invariants().is_ok());
        }
    }

    #[test]
    fn zonal_wrapping_preserves_validity(
        n_per_rank in 1usize..4,
        ranks_log2 in 3u32..8,
        zones in 1usize..9,
    ) {
        let ranks = 1usize << ranks_log2;
        let n = ranks * n_per_rank;
        let costs: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
        let p = Zonal::new(zones, Cplx::new(50)).place(&costs, ranks);
        prop_assert_eq!(p.num_blocks(), n);
        prop_assert!(p.as_slice().iter().all(|&r| (r as usize) < ranks));
        let total: f64 = p.rank_loads(&costs).iter().sum();
        prop_assert!((total - costs.iter().sum::<f64>()).abs() < 1e-6);
    }

    #[test]
    fn traffic_matrix_conserves_volume(ranks in 2usize..32, seed in 0u64..100) {
        let mut mesh = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (64, 64, 64), 1));
        mesh.adapt(|b| {
            if (b.id.index() as u64).wrapping_mul(seed + 3).is_multiple_of(11) {
                RefineTag::Refine
            } else {
                RefineTag::Keep
            }
        });
        let graph = mesh.neighbor_graph();
        let spec = mesh.config().spec;
        let costs = vec![1.0; mesh.num_blocks()];
        let total_all = {
            // Total relation volume is placement-invariant.
            let p = Lpt.place(&costs, ranks);
            let m = TrafficMatrix::build(&p, &graph, &spec, Dim::D3);
            m.total_bytes() + m.diagonal_bytes()
        };
        for policy_ranks in [1usize, ranks] {
            let p = Lpt.place(&costs, policy_ranks);
            let m = TrafficMatrix::build(&p, &graph, &spec, Dim::D3);
            prop_assert_eq!(m.total_bytes() + m.diagonal_bytes(), total_all);
        }
    }
}

#[test]
fn periodic_and_bounded_meshes_differ_only_at_the_boundary() {
    let bounded = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (64, 64, 64), 1));
    let periodic = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (64, 64, 64), 1).with_periodic());
    let gb = bounded.neighbor_graph();
    let gp = periodic.neighbor_graph();
    // Periodic adds exactly the wrap relations: every block reaches 26.
    assert!(gp.total_relations() > gb.total_relations());
    assert_eq!(gp.total_relations(), 64 * 26);
    gp.check_symmetry().unwrap();
}
