//! Glue between meshes, placements and the simulators: placement contexts
//! for mesh-backed problems, and the explicit per-round message lists
//! (boundary exchange, block migration) that `MicroSim` prices.

use amr_core::engine::{PlacementCtx, PlacementError, PlacementReport};
use amr_core::policies::PlacementPolicy;
use amr_core::Placement;
use amr_mesh::AmrMesh;
use amr_sim::Message;

/// Build a [`PlacementCtx`] for a mesh-backed placement problem: per-block
/// costs in SFC order plus the mesh snapshot, so locality-aware policies
/// (RCB, edge-cut) and cost-only policies run through one context. Chain
/// further `with_*` builders for a prebuilt neighbor graph, topology hints,
/// or a previous placement.
pub fn placement_ctx<'a>(
    mesh: &'a AmrMesh,
    costs: &'a [f64],
    num_ranks: usize,
) -> PlacementCtx<'a> {
    assert_eq!(
        mesh.num_blocks(),
        costs.len(),
        "cost vector must cover every mesh block"
    );
    PlacementCtx::new(costs, num_ranks).with_mesh(mesh)
}

/// Place the blocks of `mesh` with any unified policy, returning the
/// placement and its [`PlacementReport`] (makespan, imbalance, migration
/// accounting when the context carries a previous placement).
pub fn place_on_mesh(
    policy: &dyn PlacementPolicy,
    mesh: &AmrMesh,
    costs: &[f64],
    num_ranks: usize,
) -> Result<(Placement, PlacementReport), PlacementError> {
    let ctx = placement_ctx(mesh, costs, num_ranks);
    let mut out = Placement::default();
    let report = policy.place_into(&ctx, &mut out)?;
    Ok((out, report))
}

/// Build the boundary-exchange message list for one round: every directed
/// neighbor relation becomes a message sized by its surface class
/// (face > edge > vertex, §VI-C's `commbench` realism requirement).
/// Intra-rank relations are included with `src == dst` (the micro-simulator
/// treats them as memcpys).
pub fn build_round_messages(mesh: &AmrMesh, placement: &Placement) -> Vec<Message> {
    assert_eq!(mesh.num_blocks(), placement.num_blocks());
    let graph = mesh.neighbor_graph();
    let spec = mesh.config().spec;
    let dim = mesh.config().dim;
    let mut out = Vec::with_capacity(graph.total_relations());
    for (block, nbs) in graph.iter() {
        let src = placement.rank_of(block.index());
        for n in nbs {
            out.push(Message {
                src,
                dst: placement.rank_of(n.block.index()),
                bytes: spec.message_bytes(dim, n.kind.codim()),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use amr_core::policies::{Baseline, PlacementPolicy};
    use amr_mesh::{Dim, MeshConfig};

    fn mesh() -> AmrMesh {
        AmrMesh::new(MeshConfig::from_cells(Dim::D3, (64, 64, 64), 2))
    }

    #[test]
    fn message_list_matches_graph_relations() {
        let m = mesh();
        let p = Baseline.place(&vec![1.0; m.num_blocks()], 8);
        let msgs = build_round_messages(&m, &p);
        assert_eq!(msgs.len(), m.neighbor_graph().total_relations());
        // All ranks in range; message sizes are one of the three classes.
        let spec = m.config().spec;
        let classes = [
            spec.message_bytes(Dim::D3, 1),
            spec.message_bytes(Dim::D3, 2),
            spec.message_bytes(Dim::D3, 3),
        ];
        for msg in &msgs {
            assert!((msg.src as usize) < 8 && (msg.dst as usize) < 8);
            assert!(classes.contains(&msg.bytes));
        }
    }

    #[test]
    fn message_locality_depends_on_placement() {
        let m = mesh();
        let n = m.num_blocks();
        let all_one = Placement::new(vec![0; n], 8);
        let spread = Baseline.place(&vec![1.0; n], 8);
        let msgs_one = build_round_messages(&m, &all_one);
        let msgs_spread = build_round_messages(&m, &spread);
        let self_one = msgs_one.iter().filter(|m| m.src == m.dst).count();
        let self_spread = msgs_spread.iter().filter(|m| m.src == m.dst).count();
        assert_eq!(self_one, msgs_one.len());
        assert!(self_spread < msgs_spread.len());
    }

    #[test]
    fn place_on_mesh_unifies_cost_only_and_mesh_aware_policies() {
        use amr_core::engine::PlacementError;
        use amr_core::policies::{Lpt, Rcb};
        let m = mesh();
        let costs = vec![1.0; m.num_blocks()];

        // Cost-only and mesh-aware policies run through the same call.
        let (p_lpt, rep_lpt) = place_on_mesh(&Lpt, &m, &costs, 8).unwrap();
        let (p_rcb, rep_rcb) = place_on_mesh(&Rcb, &m, &costs, 8).unwrap();
        assert_eq!(p_lpt.num_blocks(), m.num_blocks());
        assert_eq!(p_rcb.num_blocks(), m.num_blocks());
        assert!(rep_lpt.makespan > 0.0);
        assert!(rep_rcb.imbalance >= 1.0);

        // Errors surface typed instead of panicking.
        let err = place_on_mesh(&Lpt, &m, &costs, 0).unwrap_err();
        assert!(matches!(err, PlacementError::NoRanks));
    }
}

/// Build the block-migration message list for a redistribution from `old`
/// to `new`: every moved block ships its full payload (all cells, all
/// variables) from its old rank to its new one. Feed to the
/// micro-simulator to price a migration at message granularity (the macro
/// simulator prices the same set analytically).
pub fn build_migration_messages(mesh: &AmrMesh, old: &Placement, new: &Placement) -> Vec<Message> {
    assert_eq!(old.num_blocks(), new.num_blocks());
    assert_eq!(mesh.num_blocks(), new.num_blocks());
    let spec = mesh.config().spec;
    let dim = mesh.config().dim;
    let block_bytes = spec.cells(dim) * spec.num_vars as u64 * spec.bytes_per_value as u64;
    (0..old.num_blocks())
        .filter(|&b| old.rank_of(b) != new.rank_of(b))
        .map(|b| Message {
            src: old.rank_of(b),
            dst: new.rank_of(b),
            bytes: block_bytes,
        })
        .collect()
}

#[cfg(test)]
mod migration_tests {
    use super::*;
    use amr_core::policies::{Baseline, Lpt, PlacementPolicy};
    use amr_mesh::{Dim, MeshConfig};

    #[test]
    fn migration_list_matches_diff() {
        let mesh = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (64, 64, 64), 1));
        let costs: Vec<f64> = (0..mesh.num_blocks())
            .map(|i| 1.0 + (i % 3) as f64)
            .collect();
        let old = Baseline.place(&costs, 8);
        let new = Lpt.place(&costs, 8);
        let msgs = build_migration_messages(&mesh, &old, &new);
        assert_eq!(msgs.len(), new.migration_count(&old));
        // All payloads are whole blocks.
        let expect = 16u64 * 16 * 16 * 5 * 8;
        assert!(msgs.iter().all(|m| m.bytes == expect && m.src != m.dst));
    }

    #[test]
    fn identity_migration_is_empty() {
        let mesh = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (32, 32, 32), 1));
        let p = Baseline.place(&vec![1.0; mesh.num_blocks()], 4);
        assert!(build_migration_messages(&mesh, &p, &p).is_empty());
    }
}
