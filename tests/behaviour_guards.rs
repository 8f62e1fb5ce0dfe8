//! Behavioural guards on *virtual* step time: Fig. 6's headline, the Fig. 7a
//! locality inversion, the multilevel-vs-CPLX trade-off and the
//! fault-response ordering, each asserted in both directions. Every comparison is on `compute_ns + comm_ns +
//! sync_ns` ([`virt`]); `redist_ns` and `total_ns` fold in *host* placement
//! wall time, so they never appear in an inequality here.

use amr_tools::mesh::AmrMesh;
use amr_tools::placement::engine::{PlacementCtx, PlacementError, PlacementReport};
use amr_tools::placement::policies::{
    weighted_edge_cut, Baseline, Cplx, CutWeights, GreedyEdgeCut, Lpt, Multilevel, PlacementPolicy,
};
use amr_tools::placement::trigger::RebalanceTrigger;
use amr_tools::placement::Placement;
use amr_tools::service::session_costs;
use amr_tools::sim::{
    CollectiveSelect, FaultEpisode, FaultResponse, FaultTimeline, MacroSim, RunReport, SimConfig,
    Workload, WorkloadStep,
};
use amr_tools::workloads::{random_refined_mesh, SedovScenario};

/// Static mesh with a caller-chosen cost vector: each guard dials its own
/// compute/communication ratio.
struct StaticWorkload<'a> {
    mesh: &'a AmrMesh,
    costs: &'a [f64],
    steps: u64,
}

impl Workload for StaticWorkload<'_> {
    fn mesh(&self) -> &AmrMesh {
        self.mesh
    }
    fn advance(&mut self, _step: u64) -> WorkloadStep {
        WorkloadStep::default()
    }
    fn block_compute_ns(&self) -> &[f64] {
        self.costs
    }
    fn total_steps(&self) -> u64 {
        self.steps
    }
}

/// Skewed expensive compute (1.0–5.44 ms): the compute-bound regime. Flat
/// cheap compute (`vec![40_000.0; n]`) is the comm-bound one.
fn skewed_costs(blocks: usize) -> Vec<f64> {
    let mut costs = Vec::new();
    session_costs(blocks, &mut costs);
    costs
}

/// Wall-clock-free virtual step total of a run.
fn virt(rep: &RunReport) -> f64 {
    rep.phases.compute_ns + rep.phases.comm_ns + rep.phases.sync_ns
}

/// Macro-simulate `steps` static steps of `mesh` under `policy`, telemetry off.
fn simulate(
    mut cfg: SimConfig,
    mesh: &AmrMesh,
    costs: &[f64],
    steps: u64,
    policy: &dyn PlacementPolicy,
    trigger: RebalanceTrigger,
) -> RunReport {
    cfg.telemetry_sampling = 1_000_000;
    MacroSim::new(cfg).run(&mut StaticWorkload { mesh, costs, steps }, policy, trigger)
}

/// Fig. 6's headline on Table I's two smallest scales at step scale 200:
/// every CPLX with X ≥ 25 beats the baseline, the CPL50 gain and the
/// baseline's sync share both grow with scale, and the best X's gain sits in
/// a band around the paper's "15.3–21.6 % total-runtime reduction" (§VI-B).
/// Gains and shares are on `compute + comm + sync`; the paper's quote also
/// counts rebalancing, which here is host wall clock.
#[test]
fn fig6_cplx_beats_baseline_and_gains_grow_with_scale() {
    /// The best X's gain, in %, at each scale: the paper's 15.3–21.6 %
    /// widened by about 3.5 points each way for the reduced step counts.
    const BEST_GAIN_BAND: (f64, f64) = (12.0, 25.0);
    let headline = |ranks: usize| {
        let run = |policy: &dyn PlacementPolicy| {
            let mut cfg = SimConfig::tuned(ranks);
            cfg.seed = 1 ^ ranks as u64;
            cfg.telemetry_sampling = 1_000_000;
            let mut workload = SedovScenario::for_ranks(ranks, 200).workload();
            let rep = MacroSim::new(cfg).run(&mut workload, policy, RebalanceTrigger::OnMeshChange);
            (virt(&rep), rep.phases.sync_ns / virt(&rep))
        };
        let (base, sync_share) = run(&Baseline);
        let gains = [25, 50, 75, 100].map(|x| (x, 1.0 - run(&Cplx::new(x)).0 / base));
        for (x, gain) in gains {
            assert!(gain > 0.0, "{ranks} ranks: CPL{x} gain {gain} !> 0");
        }
        let best = gains.iter().map(|g| 100.0 * g.1).fold(f64::MIN, f64::max);
        let (lo, hi) = BEST_GAIN_BAND;
        assert!(
            (lo..=hi).contains(&best),
            "{ranks} ranks: best gain {best:.1} % outside {lo}–{hi} %"
        );
        (gains[1].1, sync_share)
    };
    let (cpl50_512, sync_512) = headline(512);
    let (cpl50_1024, sync_1024) = headline(1024);
    assert!(
        cpl50_512 < cpl50_1024,
        "CPL50 gain {cpl50_512} !< {cpl50_1024}"
    );
    assert!(
        sync_512 < sync_1024,
        "baseline sync share {sync_512} !< {sync_1024}"
    );
}

/// Deliberate anti-locality: blocks dealt round-robin in a fixed shuffled
/// order, so SFC neighbors land on effectively random node pairs. Nearly every
/// boundary message rides the fabric, but spread over ~nodes² directed links
/// instead of the few SFC-adjacent pairs a contiguous placement loads — the
/// Fig. 7a trade: more remote bytes in total, far fewer per link.
struct Scatter;

impl PlacementPolicy for Scatter {
    fn name(&self) -> String {
        "scatter".into()
    }

    fn place_into(
        &self,
        ctx: &PlacementCtx,
        out: &mut Placement,
    ) -> Result<PlacementReport, PlacementError> {
        ctx.validate()?;
        let (n, r) = (ctx.costs().len(), ctx.num_ranks());
        // Fixed-seed Fisher–Yates over an inline xorshift: a pure function of
        // the context, like every other placement.
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for k in (1..n).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            order.swap(k, (state % (k as u64 + 1)) as usize);
        }
        let mut ranks = vec![0u32; n];
        for (k, &b) in order.iter().enumerate() {
            ranks[b as usize] = (k % r) as u32;
        }
        *out = Placement::new(ranks, r);
        Ok(ctx.finish(out))
    }
}

/// Fig. 7a on the credit fabric: one comm-bound workload on two fabrics. Deep
/// per-port credits never bind, so strict locality's shorter message list
/// wins; a starved per-link window is blown every round by the few links a
/// contiguous placement funnels each node's boundary onto, while the
/// scattered placement stays under it.
#[test]
fn fig7a_locality_wins_on_deep_credits_and_loses_on_a_starved_fabric() {
    /// ~3x the whole mesh's per-round traffic: never binding.
    const DEEP_CREDIT: u64 = 64 << 20;
    /// Between the scattered placement's worst per-link bytes and the
    /// contiguous placement's on `random_refined_mesh(1024, 1.6)`.
    const STARVED_CREDIT: u64 = 160 << 10;
    let pass = |ranks: usize, credit: u64, policy: &dyn PlacementPolicy| {
        let mesh = random_refined_mesh(ranks, 1.6, 1);
        let mut cfg = SimConfig::tuned(ranks);
        cfg.exchanges_per_step = 12;
        cfg.network.fabric_credit_bytes = credit;
        cfg.network.congestion_backoff = 2.0;
        cfg.collectives = CollectiveSelect::Adaptive;
        cfg.collective_payload_bytes = 1 << 18;
        let costs = vec![40_000.0; mesh.num_blocks()];
        let trigger = RebalanceTrigger::SyncFractionAbove(0.05);
        simulate(cfg, &mesh, &costs, 16, policy, trigger)
    };

    let local = virt(&pass(64, DEEP_CREDIT, &Cplx::new(0)));
    let spread = virt(&pass(64, DEEP_CREDIT, &Scatter));
    assert!(local < spread, "deep credits: {local} !< {spread}");

    let congested = pass(1024, STARVED_CREDIT, &Cplx::new(0));
    let local = virt(&congested);
    let spread = virt(&pass(1024, STARVED_CREDIT, &Scatter));
    assert!(spread < local, "starved credits: {spread} !< {local}");
    // Congestion stalls trip the sync-share trigger beyond the step-0 bootstrap.
    assert!(congested.lb_invocations > 1, "{}", congested.lb_invocations);
}

/// Multilevel against the incumbents on one 256-rank mesh: cut no worse than
/// the direct `GreedyEdgeCut` it delegates to below the coarsening threshold,
/// within the 1.05 balance slack plus one block. Then the payoff both ways:
/// comm-bound, its cut quality beats CPLX-50 on virtual exchange+sync;
/// compute-bound, CPLX-50's makespan optimum wins the virtual step total.
#[test]
fn multilevel_wins_comm_bound_and_loses_compute_bound_against_cplx() {
    const RANKS: usize = 256;
    let mesh = random_refined_mesh(RANKS, 1.6, 1);
    let graph = mesh.neighbor_graph();
    let skewed = skewed_costs(mesh.num_blocks());
    let topo = CutWeights::topological(&mesh);

    let greedy = GreedyEdgeCut::default().place_on_mesh(&mesh, &skewed, RANKS);
    let placed = Multilevel::default().place_on_mesh(&mesh, &skewed, RANKS);
    let greedy_cut = weighted_edge_cut(&greedy, &graph, &topo);
    let cut = weighted_edge_cut(&placed, &graph, &topo);
    assert!(cut <= greedy_cut, "cut {cut} !<= greedy {greedy_cut}");
    let max_cost = skewed.iter().cloned().fold(0.0, f64::max);
    let max_load = placed.rank_loads(&skewed).into_iter().fold(0.0, f64::max);
    let cap = skewed.iter().sum::<f64>() / RANKS as f64 * 1.05;
    assert!(max_load <= cap + max_cost + 1e-6, "{max_load} > {cap}");

    // Only the policy differs per regime; the exchange ledger is armed only
    // for multilevel, the policy that reads it.
    let pass = |costs: &[f64], exchanges: u32, policy: &dyn PlacementPolicy, ledger: bool| {
        let mut cfg = SimConfig::tuned(RANKS);
        cfg.exchanges_per_step = exchanges;
        cfg.observe_exchange_bytes = ledger;
        let trigger = RebalanceTrigger::Periodic(4);
        simulate(cfg, &mesh, costs, 24, policy, trigger)
    };
    let (cplx50, multilevel) = (Cplx::new(50), Multilevel::default());

    let flat = vec![40_000.0; mesh.num_blocks()];
    let exchange_sync = |rep: RunReport| rep.phases.comm_ns + rep.phases.sync_ns;
    let cplx = exchange_sync(pass(&flat, 12, &cplx50, false));
    let ml = exchange_sync(pass(&flat, 12, &multilevel, true));
    assert!(ml < cplx, "comm-bound: multilevel {ml} !< {cplx}");

    let cplx = virt(&pass(&skewed, 1, &cplx50, false));
    let ml = virt(&pass(&skewed, 1, &multilevel, true));
    assert!(cplx <= ml, "compute-bound: cplx {cplx} !<= {ml}");
}

/// The closed fault loop: 256 ranks, 60 LPT steps, node 1 throttled 4× with
/// its NIC at a tenth (the 100G→10G fallback) over steps 20–40. Reweighting
/// compensates the compute share, but the slow NIC still gates every step's
/// collective; only pruning onto the spare escapes both.
#[test]
fn fault_response_orders_oblivious_over_reweight_over_prune() {
    const RANKS: usize = 256;
    const STEPS: u64 = 60;
    let mesh = random_refined_mesh(RANKS, 1.6, 1);
    let costs = skewed_costs(mesh.num_blocks());
    let episode =
        FaultEpisode::throttle(STEPS / 3, 2 * STEPS / 3, [1], 4.0).with_nic_degradation(0.1);

    let arm = |response: FaultResponse, spares: usize| {
        let mut cfg = SimConfig::tuned(RANKS);
        cfg.seed = 1 ^ 0x5EED;
        cfg.faults = FaultTimeline::with_episode(episode.clone());
        cfg.fault_response = response;
        cfg.spare_nodes = spares;
        let trigger = RebalanceTrigger::OnMeshChange;
        simulate(cfg, &mesh, &costs, STEPS, &Lpt, trigger)
    };
    let oblivious = virt(&arm(FaultResponse::Oblivious, 0));
    let reweight = virt(&arm(FaultResponse::Reweight, 0));
    let pruned = arm(FaultResponse::PruneAndMigrate, 1);
    let prune = virt(&pruned);
    assert!(reweight < oblivious, "{reweight} !< {oblivious}");
    assert!(prune < reweight, "{prune} !< {reweight}");
    assert_eq!(pruned.nodes_pruned, 1, "prune arm never re-hosted");
}
