//! Cross-validation between the two simulation engines — the message-level
//! `MicroSim` and the step-level `MacroSim` — and between each engine and
//! what the neighbour graph alone implies. Their time models differ, so what
//! must agree is the *structure* of every result: message classes, ordering
//! effects, locality trends. The file also holds the flat-vs-hierarchical
//! placement equivalences that feed both.

use amr_tools::mesh::{AmrMesh, Dim, MeshConfig, NeighborKind};
use amr_tools::placement::engine::PlacementEngine;
use amr_tools::placement::policies::{Baseline, Cplx, Hierarchical, Lpt, PlacementPolicy};
use amr_tools::placement::trigger::RebalanceTrigger;
use amr_tools::placement::Placement;
use amr_tools::sim::{
    MacroSim, MicroSim, NetworkConfig, RoundResult, RoundSpec, SimConfig, TaskOrder, Topology,
    Workload, WorkloadStep,
};
use amr_tools::workloads::exchange::build_round_messages;
use amr_tools::workloads::random_refined_mesh;

/// `network` with ACK loss off, so a round's classes are all it draws.
fn quiet(network: NetworkConfig) -> NetworkConfig {
    NetworkConfig {
        ack_loss_prob: 0.0,
        ..network
    }
}

/// What one boundary exchange of `placement` must count, from the neighbour
/// graph and `Topology::same_node` alone: `[intra, local, remote]`
/// relations, and the `[local, remote]` cross-rank fine→coarse face
/// relations, which also carry a flux correction.
fn graph_classes(mesh: &AmrMesh, placement: &Placement, topo: &Topology) -> ([u64; 3], [u64; 2]) {
    let mut relations = [0u64; 3];
    let mut flux = [0u64; 2];
    for (block, nbs) in mesh.neighbor_graph().iter() {
        let src = placement.rank_of(block.index()) as usize;
        for n in nbs {
            let dst = placement.rank_of(n.block.index()) as usize;
            if dst == src {
                relations[0] += 1;
                continue;
            }
            let remote = !topo.same_node(src, dst) as usize;
            relations[1 + remote] += 1;
            if n.level_delta == -1 && n.kind == NeighborKind::Face {
                flux[remote] += 1;
            }
        }
    }
    (relations, flux)
}

/// One quiet `MicroSim` round of `placement`'s boundary exchange.
fn micro_round(
    network: NetworkConfig,
    mesh: &AmrMesh,
    placement: &Placement,
    compute_ns: Vec<u64>,
    order: TaskOrder,
) -> RoundResult {
    let ranks = placement.num_ranks();
    MicroSim::new(Topology::paper(ranks), quiet(network), 1).run_round(&RoundSpec {
        num_ranks: ranks,
        compute_ns,
        messages: build_round_messages(mesh, placement),
        order,
    })
}

fn micro_classes(res: &RoundResult) -> [u64; 3] {
    [res.intra_msgs, res.local_msgs, res.remote_msgs]
}

/// Static mesh with unit block costs.
struct Static<'a> {
    mesh: &'a AmrMesh,
    costs: Vec<f64>,
    steps: u64,
}

impl Workload for Static<'_> {
    fn mesh(&self) -> &AmrMesh {
        self.mesh
    }
    fn advance(&mut self, _step: u64) -> WorkloadStep {
        WorkloadStep::default()
    }
    fn block_compute_ns(&self) -> &[f64] {
        &self.costs
    }
    fn total_steps(&self) -> u64 {
        self.steps
    }
}

/// `MacroSim`'s message totals over a static `steps`-step run of `mesh`
/// under `policy` with `SimConfig::tuned` on `network`, telemetry off.
fn macro_classes(
    network: NetworkConfig,
    mesh: &AmrMesh,
    policy: &dyn PlacementPolicy,
    ranks: usize,
    steps: u64,
) -> [u64; 3] {
    let mut cfg = SimConfig::tuned(ranks);
    cfg.network = network;
    cfg.telemetry_sampling = 1_000_000;
    let mut workload = Static {
        mesh,
        costs: vec![1.0; mesh.num_blocks()],
        steps,
    };
    let rep = MacroSim::new(cfg).run(&mut workload, policy, RebalanceTrigger::OnMeshChange);
    [rep.messages.intra, rep.messages.local, rep.messages.remote]
}

#[test]
fn macrosim_and_microsim_agree_on_message_classes() {
    // Four static steps of three exchanges each: MacroSim's totals are 12 ×
    // one MicroSim round's classes, plus, on a refined mesh, the flux
    // corrections MacroSim sends beside the boundary messages. On the
    // credit fabric too, where both engines also count bytes per node link.
    let (steps, exchanges) = (4, 3);
    assert_eq!(SimConfig::tuned(1).exchanges_per_step, exchanges);
    let uniform = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (128, 128, 64), 1));
    for (mesh, ranks) in [(uniform, 48), (random_refined_mesh(64, 1.6, 3), 64)] {
        let placement = Baseline.place(&vec![1.0; mesh.num_blocks()], ranks);
        let (relations, flux) = graph_classes(&mesh, &placement, &Topology::paper(ranks));
        let scale = steps * exchanges as u64;
        let want = [
            scale * relations[0],
            scale * (relations[1] + flux[0]),
            scale * (relations[2] + flux[1]),
        ];
        for network in [NetworkConfig::tuned(), NetworkConfig::congested()] {
            let fabric = if network.congestion_enabled() {
                "credit"
            } else {
                "credit-free"
            };
            let micro = micro_round(
                network,
                &mesh,
                &placement,
                vec![0; ranks],
                TaskOrder::SendsFirst,
            );
            assert_eq!(micro_classes(&micro), relations, "{ranks} ranks, {fabric}");
            assert_eq!(
                macro_classes(network, &mesh, &Baseline, ranks, steps),
                want,
                "{ranks} ranks, {fabric}"
            );
        }
    }
}

#[test]
fn microsim_ranks_sends_first_ahead_of_compute_first_on_a_mesh_round() {
    let ranks = 32;
    let mesh = random_refined_mesh(ranks, 1.6, 7);
    let placement = Cplx::new(50).place(&vec![1.0; mesh.num_blocks()], ranks);
    let compute: Vec<u64> = (0..ranks as u64).map(|r| 200_000 + r * 31_000).collect();
    let tuned = NetworkConfig::tuned();
    let sf = micro_round(
        tuned,
        &mesh,
        &placement,
        compute.clone(),
        TaskOrder::SendsFirst,
    );
    let cf = micro_round(tuned, &mesh, &placement, compute, TaskOrder::ComputeFirst);
    assert!(sf.round_latency_ns <= cf.round_latency_ns);
    assert!(sf.wait_ns.iter().sum::<u64>() <= cf.wait_ns.iter().sum::<u64>());
}

#[test]
fn engines_agree_on_locality_monotonicity() {
    // Raising X never lowers MPI-visible traffic, in either engine, and
    // each engine counts exactly the classes the graph implies.
    let ranks = 32;
    let mesh = random_refined_mesh(ranks, 1.6, 11);
    let topo = Topology::paper(ranks);
    let mut prev = 0u64;
    for x in [0u32, 50, 100] {
        let policy = Cplx::new(x);
        let placement = policy.place(&vec![1.0; mesh.num_blocks()], ranks);
        let (relations, flux) = graph_classes(&mesh, &placement, &topo);
        let micro = micro_classes(&micro_round(
            NetworkConfig::tuned(),
            &mesh,
            &placement,
            vec![0; ranks],
            TaskOrder::SendsFirst,
        ));
        assert_eq!(micro, relations, "x={x}: MicroSim miscounts");
        let mpi = micro[1] + micro[2];
        assert!(mpi >= prev, "x={x}: MPI-visible messages fell");
        prev = mpi;

        let step = macro_classes(NetworkConfig::tuned(), &mesh, &policy, ranks, 1).map(|c| c / 3);
        assert_eq!(
            step,
            [relations[0], relations[1] + flux[0], relations[2] + flux[1]],
            "x={x}: MacroSim miscounts"
        );
    }
}

#[test]
fn hierarchical_at_one_shard_matches_flat_engine_bitwise() {
    // The two-stage hierarchical policy with a single shard is the flat LPT
    // engine: stage 1 degenerates to "everything on one shard" and the
    // policy delegates outright, so every assignment — run through the full
    // `PlacementEngine` with mesh attached, across repeated warm-scratch
    // rebalances — must be identical, not merely equivalent in makespan.
    for seed in [3u64, 7, 13] {
        let ranks = 64;
        let mesh = random_refined_mesh(ranks, 1.6, seed);
        let costs: Vec<f64> = (0..mesh.num_blocks())
            .map(|i| 1.0 + (i % 17) as f64 * 0.35 + (i % 5) as f64)
            .collect();
        let mut flat_engine = PlacementEngine::new();
        let mut hier_engine = PlacementEngine::new();
        for round in 0..3 {
            // Perturb costs across rounds to exercise warm-order reuse.
            let round_costs: Vec<f64> = costs
                .iter()
                .map(|c| c * (1.0 + round as f64 * 0.1))
                .collect();
            flat_engine
                .rebalance_with(&Lpt, &round_costs, ranks, Some(&mesh), None)
                .expect("flat placement");
            hier_engine
                .rebalance_with(
                    &Hierarchical::new(1, 16),
                    &round_costs,
                    ranks,
                    Some(&mesh),
                    None,
                )
                .expect("hierarchical placement");
            let flat = flat_engine.placement().unwrap();
            let hier = hier_engine.placement().unwrap();
            assert_eq!(
                flat.as_slice(),
                hier.as_slice(),
                "seed {seed} round {round}: single-shard hierarchical diverged from flat LPT"
            );
        }
    }
}

#[test]
fn hierarchical_multi_shard_stays_close_to_flat_makespan() {
    // With real shards the hierarchical policy trades a bounded amount of
    // balance for SFC-contiguous node windows; its makespan must stay within
    // a modest factor of the flat engine's on refined-mesh cost profiles.
    let ranks = 64;
    let mesh = random_refined_mesh(ranks, 1.6, 21);
    let costs: Vec<f64> = (0..mesh.num_blocks())
        .map(|i| 1.0 + (i % 13) as f64 * 0.7)
        .collect();
    let flat = Lpt.place(&costs, ranks);
    let hier = Hierarchical::new(8, 16).place(&costs, ranks);
    assert_eq!(hier.num_blocks(), costs.len());
    let makespan = |p: &Placement| -> f64 {
        let mut loads = vec![0.0f64; ranks];
        for (b, &c) in costs.iter().enumerate() {
            loads[p.rank_of(b) as usize] += c;
        }
        loads.iter().cloned().fold(0.0, f64::max)
    };
    let m_flat = makespan(&flat);
    let m_hier = makespan(&hier);
    assert!(
        m_hier <= m_flat * 1.5,
        "hierarchical makespan {m_hier} vs flat {m_flat}"
    );
}
