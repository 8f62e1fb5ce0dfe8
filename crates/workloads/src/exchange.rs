//! Glue between meshes, placements and the simulators: explicit per-round
//! message lists for the analytic micro-simulator and per-rank MPI programs
//! for the event-driven engine.

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

/// Compile a boundary exchange into per-rank [`amr_sim::Op`] programs for
/// the event-driven MPI engine: each rank posts receives for every inbound
/// relation, dispatches its sends (optionally after `compute_ns` of work),
/// waits for completion, and enters a barrier.
///
/// Message tags encode the *sending block*, so fan-in from multiple blocks
/// on one source rank matches deterministically.
pub fn build_mpi_programs(
    mesh: &AmrMesh,
    placement: &Placement,
    compute_ns: &[u64],
    sends_first: bool,
) -> Vec<Vec<amr_sim::Op>> {
    use amr_sim::Op;
    let ranks = placement.num_ranks();
    assert_eq!(compute_ns.len(), ranks);
    let graph = mesh.neighbor_graph();
    let spec = mesh.config().spec;
    let dim = mesh.config().dim;

    let mut recvs: Vec<Vec<Op>> = vec![Vec::new(); ranks];
    let mut sends: Vec<Vec<Op>> = vec![Vec::new(); ranks];
    for (block, nbs) in graph.iter() {
        let src = placement.rank_of(block.index());
        for n in nbs {
            let dst = placement.rank_of(n.block.index());
            if dst == src {
                continue; // intra-rank memcpy: no MPI ops
            }
            let bytes = spec.message_bytes(dim, n.kind.codim());
            // Tag = sending block id; unique per (src block, direction set)
            // is not required — FIFO matching handles duplicates.
            sends[src as usize].push(Op::Isend {
                dst,
                tag: block.0,
                bytes,
            });
            recvs[dst as usize].push(Op::Irecv { src, tag: block.0 });
        }
    }

    (0..ranks)
        .map(|r| {
            let mut prog = Vec::with_capacity(recvs[r].len() + sends[r].len() + 3);
            prog.extend(recvs[r].iter().copied());
            if sends_first {
                prog.extend(sends[r].iter().copied());
                prog.push(amr_sim::Op::Compute(compute_ns[r]));
            } else {
                prog.push(amr_sim::Op::Compute(compute_ns[r]));
                prog.extend(sends[r].iter().copied());
            }
            prog.push(amr_sim::Op::WaitAll);
            prog.push(amr_sim::Op::Barrier);
            prog
        })
        .collect()
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

/// Compile a *per-block* task schedule into MPI programs: for every rank,
/// each of its blocks contributes `compute kernel → boundary sends`, then
/// the rank waits on all inbound boundary data, runs a flux-correction
/// round (fine→coarse face fix-ups), and enters the step barrier.
///
/// Unlike [`build_mpi_programs`] (rank-aggregated), this preserves the task
/// granularity of §II-B's DAG model: a block's sends cannot dispatch before
/// that block's kernel finishes, so compute imbalance *within* a rank delays
/// only the affected block's messages — the structure the §IV-B reordering
/// mitigation exploits.
pub fn build_block_programs(
    mesh: &AmrMesh,
    placement: &Placement,
    block_compute_ns: &[f64],
    sends_first: bool,
) -> Vec<Vec<amr_sim::Op>> {
    use amr_mesh::NeighborKind;
    use amr_sim::Op;
    let ranks = placement.num_ranks();
    assert_eq!(block_compute_ns.len(), mesh.num_blocks());
    let graph = mesh.neighbor_graph();
    let spec = mesh.config().spec;
    let dim = mesh.config().dim;

    // Per-rank: receives (boundary + flux), per-block send groups.
    let mut boundary_recvs: Vec<Vec<Op>> = vec![Vec::new(); ranks];
    let mut flux_recvs: Vec<Vec<Op>> = vec![Vec::new(); ranks];
    let mut flux_sends: Vec<Vec<Op>> = vec![Vec::new(); ranks];
    // (rank -> list of (block compute ns, its boundary sends))
    let mut block_work: Vec<Vec<(u64, Vec<Op>)>> = vec![Vec::new(); ranks];

    for (block, nbs) in graph.iter() {
        let src = placement.rank_of(block.index());
        let mut sends = Vec::new();
        for n in nbs {
            let dst = placement.rank_of(n.block.index());
            if dst != src {
                let bytes = spec.message_bytes(dim, n.kind.codim());
                sends.push(Op::Isend {
                    dst,
                    tag: block.0,
                    bytes,
                });
                boundary_recvs[dst as usize].push(Op::Irecv { src, tag: block.0 });
            }
            // Flux correction: fine -> coarse across faces only. Use a
            // disjoint tag space (high bit) so rounds cannot cross-match.
            if n.level_delta == -1 && n.kind == NeighborKind::Face && dst != src {
                let bytes = spec.message_bytes(dim, 1) / 4;
                let tag = block.0 | 0x8000_0000;
                flux_sends[src as usize].push(Op::Isend { dst, tag, bytes });
                flux_recvs[dst as usize].push(Op::Irecv { src, tag });
            }
        }
        block_work[src as usize].push((block_compute_ns[block.index()] as u64, sends));
    }

    (0..ranks)
        .map(|r| {
            let mut prog = Vec::new();
            prog.extend(boundary_recvs[r].iter().copied());
            for (compute, sends) in &block_work[r] {
                if sends_first {
                    // Sends of *previous* blocks already dispatched; this
                    // block's sends go out right after its kernel.
                    prog.extend(sends.iter().copied());
                    prog.push(amr_sim::Op::Compute(*compute));
                } else {
                    prog.push(amr_sim::Op::Compute(*compute));
                    prog.extend(sends.iter().copied());
                }
            }
            prog.push(amr_sim::Op::WaitAll);
            // Flux round: post its receives only now — posting them before
            // the boundary WaitAll would make ranks wait on messages that
            // can only be sent after that same WaitAll (mutual deadlock).
            prog.extend(flux_recvs[r].iter().copied());
            prog.extend(flux_sends[r].iter().copied());
            prog.push(amr_sim::Op::WaitAll);
            prog.push(amr_sim::Op::Barrier);
            prog
        })
        .collect()
}

#[cfg(test)]
mod block_program_tests {
    use super::*;
    use amr_core::policies::{Baseline, PlacementPolicy};
    use amr_mesh::{Dim, MeshConfig, RefineTag};
    use amr_sim::{MpiWorld, NetworkConfig, Topology};

    fn refined_mesh() -> AmrMesh {
        let mut m = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (64, 64, 64), 1));
        m.adapt(|b| {
            if b.id.index() % 7 == 0 {
                RefineTag::Refine
            } else {
                RefineTag::Keep
            }
        });
        m
    }

    fn quiet() -> NetworkConfig {
        NetworkConfig {
            ack_loss_prob: 0.0,
            ..NetworkConfig::tuned()
        }
    }

    #[test]
    fn block_programs_execute_and_balance_messages() {
        let mesh = refined_mesh();
        let ranks = 16;
        let costs = vec![50_000.0; mesh.num_blocks()];
        let placement = Baseline.place(&vec![1.0; mesh.num_blocks()], ranks);
        let programs = build_block_programs(&mesh, &placement, &costs, true);
        let mut world = MpiWorld::new(Topology::paper(ranks), quiet());
        let res = world.run(programs).expect("block-level exchange completes");
        let sent: u32 = res.ranks.iter().map(|s| s.sent).sum();
        let recv: u32 = res.ranks.iter().map(|s| s.received).sum();
        assert_eq!(sent, recv);
        assert!(sent > 0);
    }

    #[test]
    fn flux_round_adds_fine_coarse_messages_only() {
        let uniform = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (64, 64, 64), 1));
        let refined = refined_mesh();
        let ranks = 16;
        let count_ops = |mesh: &AmrMesh| {
            let n = mesh.num_blocks();
            let p = Baseline.place(&vec![1.0; n], ranks);
            let progs = build_block_programs(mesh, &p, &vec![1000.0; n], true);
            progs
                .iter()
                .flatten()
                .filter(|op| matches!(op, amr_sim::Op::Isend { tag, .. } if tag & 0x8000_0000 != 0))
                .count()
        };
        assert_eq!(count_ops(&uniform), 0, "uniform mesh has no flux fix-ups");
        assert!(count_ops(&refined) > 0, "refined mesh must flux-correct");
    }

    #[test]
    fn per_block_granularity_beats_rank_aggregated_on_wait() {
        // With one slow block per rank, block-granular sends-first lets the
        // fast blocks' messages out early; the rank-aggregated program with
        // compute-first holds everything behind the total compute.
        let mesh = refined_mesh();
        let ranks = 16;
        let n = mesh.num_blocks();
        let mut costs = vec![20_000.0; n];
        for c in costs.iter_mut().step_by(5) {
            *c = 2_000_000.0;
        }
        let placement = Baseline.place(&vec![1.0; n], ranks);
        let mut world = MpiWorld::new(Topology::paper(ranks), quiet());

        let block_level = world
            .run(build_block_programs(&mesh, &placement, &costs, true))
            .unwrap();
        // Rank-aggregated compute totals for the coarse builder.
        let mut rank_compute = vec![0u64; ranks];
        for (b, &c) in costs.iter().enumerate() {
            rank_compute[placement.rank_of(b) as usize] += c as u64;
        }
        let aggregated_cf = world
            .run(build_mpi_programs(&mesh, &placement, &rank_compute, false))
            .unwrap();
        let wait_block: u64 = block_level.ranks.iter().map(|s| s.wait_ns).sum();
        let wait_agg: u64 = aggregated_cf.ranks.iter().map(|s| s.wait_ns).sum();
        assert!(
            wait_block < wait_agg,
            "block-granular {wait_block} should beat aggregated compute-first {wait_agg}"
        );
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
