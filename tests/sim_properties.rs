//! Property-based tests for the simulator (amr-sim): monotonicity and
//! conservation laws that must hold regardless of workload or placement.

use amr_tools::sim::collectives::{barrier_into, tree_depth};
use amr_tools::sim::{
    FaultConfig, FaultEpisode, FaultResponse, FaultTimeline, MacroSim, Message, MicroSim,
    NetworkConfig, RoundSpec, RunReport, SimConfig, TaskOrder, Topology,
};
use amr_tools::telemetry::anomaly::{OnlineDetectorConfig, OnlineThrottleDetector};
use proptest::prelude::*;

fn quiet_net() -> NetworkConfig {
    NetworkConfig {
        ack_loss_prob: 0.0,
        ..NetworkConfig::tuned()
    }
}

fn round_strategy(max_ranks: usize) -> impl Strategy<Value = RoundSpec> {
    (2usize..=max_ranks)
        .prop_flat_map(|ranks| {
            let msgs =
                prop::collection::vec((0..ranks as u32, 0..ranks as u32, 1u64..100_000), 0..64);
            let compute = prop::collection::vec(0u64..2_000_000, ranks..=ranks);
            (Just(ranks), compute, msgs)
        })
        .prop_map(|(ranks, compute_ns, raw)| RoundSpec {
            num_ranks: ranks,
            compute_ns,
            messages: raw
                .into_iter()
                .map(|(src, dst, bytes)| Message { src, dst, bytes })
                .collect(),
            order: TaskOrder::SendsFirst,
        })
}

proptest! {
    #[test]
    fn finish_is_wait_plus_local(spec in round_strategy(32)) {
        let mut sim = MicroSim::new(Topology::paper(spec.num_ranks), quiet_net(), 1);
        let res = sim.run_round(&spec);
        for r in 0..spec.num_ranks {
            prop_assert_eq!(res.finish_ns[r], res.local_finish_ns[r] + res.wait_ns[r]);
        }
    }

    #[test]
    fn round_latency_bounds(spec in round_strategy(32)) {
        let mut sim = MicroSim::new(Topology::paper(spec.num_ranks), quiet_net(), 2);
        let res = sim.run_round(&spec);
        let max_finish = *res.finish_ns.iter().max().unwrap();
        // Barrier completion is after the straggler, including tree hops.
        prop_assert!(res.round_latency_ns >= max_finish);
        let slack = tree_depth(spec.num_ranks) as u64 * 1_000_000;
        prop_assert!(res.round_latency_ns <= max_finish + slack);
        // And no earlier than the slowest compute.
        let max_compute = *spec.compute_ns.iter().max().unwrap();
        prop_assert!(res.round_latency_ns >= max_compute);
    }

    #[test]
    fn adding_a_message_never_speeds_up_the_round(
        spec in round_strategy(16),
        src in 0u32..16,
        dst in 0u32..16,
        bytes in 1u64..50_000,
    ) {
        let src = src % spec.num_ranks as u32;
        let dst = dst % spec.num_ranks as u32;
        let mut sim_a = MicroSim::new(Topology::paper(spec.num_ranks), quiet_net(), 3);
        let base = sim_a.run_round(&spec);
        let mut bigger = spec.clone();
        bigger.messages.push(Message { src, dst, bytes });
        let mut sim_b = MicroSim::new(Topology::paper(spec.num_ranks), quiet_net(), 3);
        let more = sim_b.run_round(&bigger);
        prop_assert!(more.round_latency_ns >= base.round_latency_ns);
    }

    #[test]
    fn sends_first_never_loses_to_compute_first(spec in round_strategy(24)) {
        let mut cf = spec.clone();
        cf.order = TaskOrder::ComputeFirst;
        let mut sim_a = MicroSim::new(Topology::paper(spec.num_ranks), quiet_net(), 4);
        let mut sim_b = MicroSim::new(Topology::paper(spec.num_ranks), quiet_net(), 4);
        let sf = sim_a.run_round(&spec);
        let cfr = sim_b.run_round(&cf);
        prop_assert!(sf.round_latency_ns <= cfr.round_latency_ns,
            "sends-first {} > compute-first {}", sf.round_latency_ns, cfr.round_latency_ns);
    }

    #[test]
    fn message_class_counts_partition(spec in round_strategy(32)) {
        let mut sim = MicroSim::new(Topology::new(spec.num_ranks, 4), quiet_net(), 5);
        let res = sim.run_round(&spec);
        prop_assert_eq!(
            res.intra_msgs + res.local_msgs + res.remote_msgs,
            spec.messages.len() as u64
        );
    }

    #[test]
    fn barrier_waits_are_consistent(arrivals in prop::collection::vec(0u64..1_000_000, 1..128),
                                    hop in 0u64..10_000) {
        let mut wait = Vec::new();
        let completion = barrier_into(&arrivals, hop, &mut wait);
        let last = *arrivals.iter().max().unwrap();
        // Completion still includes the tree term...
        prop_assert_eq!(completion, last + tree_depth(arrivals.len()) as u64 * hop);
        // ...but wait is idle time before the straggler arrives: the tree
        // hops are every rank's own work, charged to no one's wait.
        prop_assert_eq!(wait.len(), arrivals.len());
        for (a, w) in arrivals.iter().zip(&wait) {
            prop_assert_eq!(a + w, last);
        }
        // The straggler itself never waits.
        let argmax = arrivals.iter().position(|&a| a == last).unwrap();
        prop_assert_eq!(wait[argmax], 0);
        prop_assert_eq!(wait.iter().sum::<u64>(),
            arrivals.iter().map(|&a| last - a).sum::<u64>());
    }
}

// --- Credit/congestion fabric and ACK-loss determinism ----------------------

proptest! {
    /// The credit-window stall function is saturating and monotone: more
    /// outstanding bytes on a link never *reduces* the stall, and a wider
    /// window never *increases* it.
    #[test]
    fn congestion_stall_is_monotone(
        window in 1u64..(1 << 30),
        backoff in 0.0f64..8.0,
        a in 0u64..(1 << 40),
        b in 0u64..(1 << 40),
    ) {
        let net = NetworkConfig {
            fabric_credit_bytes: window,
            congestion_backoff: backoff,
            ..NetworkConfig::tuned()
        };
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(net.congestion_ns(lo) <= net.congestion_ns(hi));
        prop_assert_eq!(net.congestion_ns(window.min(lo)), 0);
        // Widening the window can only shed stalls.
        let wider = NetworkConfig {
            fabric_credit_bytes: window.saturating_mul(2),
            ..net
        };
        prop_assert!(wider.congestion_ns(hi) <= net.congestion_ns(hi));
    }

    /// Under a congested fabric, adding a message (more outstanding bytes on
    /// some link) never speeds the round up — the microsim analogue of the
    /// macro credit-window ordering.
    #[test]
    fn congested_round_never_speeds_up_with_more_traffic(
        spec in round_strategy(16),
        src in 0u32..16,
        dst in 0u32..16,
        bytes in 1u64..500_000,
    ) {
        let net = NetworkConfig {
            fabric_credit_bytes: 64 << 10,
            congestion_backoff: 2.0,
            ack_loss_prob: 0.0,
            ..NetworkConfig::tuned()
        };
        let src = src % spec.num_ranks as u32;
        let dst = dst % spec.num_ranks as u32;
        let base = MicroSim::new(Topology::paper(spec.num_ranks), net, 7).run_round(&spec);
        let mut bigger = spec.clone();
        bigger.messages.push(Message { src, dst, bytes });
        let more = MicroSim::new(Topology::paper(spec.num_ranks), net, 7).run_round(&bigger);
        prop_assert!(more.round_latency_ns >= base.round_latency_ns);
    }

    /// The tuned stack never loses to the untuned one on identical traffic
    /// and identical randomness: a bigger shm queue and the drain-queue
    /// mitigation can only remove penalties.
    #[test]
    fn tuned_network_never_loses_to_untuned(
        spec in round_strategy(24),
        seed in 0u64..1_000,
    ) {
        let topo = Topology::new(spec.num_ranks, 2);
        let tuned = MicroSim::new(topo, NetworkConfig::tuned(), seed).run_round(&spec);
        let untuned = MicroSim::new(topo, NetworkConfig::untuned(), seed).run_round(&spec);
        prop_assert!(
            tuned.round_latency_ns <= untuned.round_latency_ns,
            "tuned {} > untuned {}", tuned.round_latency_ns, untuned.round_latency_ns
        );
        // Same seed, same message stream: the recovery draw fires for the
        // same sends whether or not the mitigation hides them.
        prop_assert_eq!(tuned.ack_stalls, untuned.ack_stalls);
    }

    /// The ACK-loss recovery path consumes exactly one RNG draw per remote
    /// message, *before* the drain-queue branch: mitigated and unmitigated
    /// runs see identical fault streams for any traffic pattern, probability
    /// and seed. (The mitigation changes how much a stall hurts — never
    /// which sends stall.)
    #[test]
    fn ack_recovery_draws_are_drain_queue_invariant(
        spec in round_strategy(24),
        prob in 0.0f64..1.0,
        seed in 0u64..1_000,
    ) {
        let raw = NetworkConfig {
            ack_loss_prob: prob,
            drain_queue: false,
            ..NetworkConfig::tuned()
        };
        let mitigated = NetworkConfig { drain_queue: true, ..raw };
        let topo = Topology::new(spec.num_ranks, 2);
        let a = MicroSim::new(topo, raw, seed).run_round(&spec);
        let b = MicroSim::new(topo, mitigated, seed).run_round(&spec);
        prop_assert_eq!(a.ack_stalls, b.ack_stalls);
        prop_assert!(b.round_latency_ns <= a.round_latency_ns);
    }
}

// --- Closed fault loop -----------------------------------------------------

/// One short Sedov run with the given timeline and response. When `trace` is
/// supplied the simulator (and its placement engine) publish into it.
fn fault_run_traced(
    ranks: usize,
    steps: u64,
    seed: u64,
    faults: FaultTimeline,
    response: FaultResponse,
    trace: Option<amr_tools::telemetry::TraceHandle>,
) -> RunReport {
    use amr_tools::mesh::{Dim, MeshConfig};
    use amr_tools::placement::policies::Lpt;
    use amr_tools::placement::trigger::RebalanceTrigger;
    use amr_tools::workloads::{SedovConfig, SedovWorkload};
    let mesh = MeshConfig::from_cells(Dim::D3, (48, 48, 48), 1);
    let mut workload = SedovWorkload::new(SedovConfig::new(mesh, steps));
    let mut cfg = SimConfig::tuned(ranks);
    cfg.seed = seed;
    cfg.telemetry_sampling = 4;
    cfg.faults = faults;
    cfg.fault_response = response;
    let mut sim = MacroSim::new(cfg);
    sim.set_trace(trace);
    sim.run(&mut workload, &Lpt, RebalanceTrigger::OnMeshChange)
}

/// Healthy Sedov run with the mesh topology partitioned into `num_shards`
/// SFC shards (0 = the flat resident-graph path).
fn sharded_run(ranks: usize, steps: u64, seed: u64, num_shards: usize) -> RunReport {
    use amr_tools::mesh::{Dim, MeshConfig};
    use amr_tools::placement::policies::Lpt;
    use amr_tools::placement::trigger::RebalanceTrigger;
    use amr_tools::workloads::{SedovConfig, SedovWorkload};
    let mesh = MeshConfig::from_cells(Dim::D3, (48, 48, 48), 1);
    let mut workload = SedovWorkload::new(SedovConfig::new(mesh, steps));
    let mut cfg = SimConfig::tuned(ranks);
    cfg.seed = seed;
    cfg.telemetry_sampling = 4;
    cfg.num_shards = num_shards;
    let mut sim = MacroSim::new(cfg);
    sim.run(&mut workload, &Lpt, RebalanceTrigger::OnMeshChange)
}

/// Sedov run with the full multi-core surface dialed in: `threads` pool
/// threads (1 = every kernel's single task, run inline), `num_shards` SFC
/// shards, a random 2D/3D mesh, and a fault timeline. Everything the
/// rank-range kernels touch — epoch fill, compute scatter, exchange finish
/// times — and the shard recount are exercised in one run.
#[allow(clippy::too_many_arguments)]
fn parallel_run(
    ranks: usize,
    steps: u64,
    seed: u64,
    dim2: bool,
    num_shards: usize,
    threads: usize,
    faults: FaultTimeline,
    response: FaultResponse,
) -> RunReport {
    use amr_tools::mesh::{Dim, MeshConfig};
    use amr_tools::placement::policies::Lpt;
    use amr_tools::placement::trigger::RebalanceTrigger;
    use amr_tools::workloads::{SedovConfig, SedovWorkload};
    let mesh = if dim2 {
        MeshConfig::from_cells(Dim::D2, (128, 128, 1), 1)
    } else {
        MeshConfig::from_cells(Dim::D3, (48, 48, 48), 1)
    };
    let mut workload = SedovWorkload::new(SedovConfig::new(mesh, steps));
    let mut cfg = SimConfig::tuned(ranks);
    cfg.seed = seed;
    cfg.telemetry_sampling = 4;
    cfg.num_shards = num_shards;
    cfg.threads = threads;
    cfg.faults = faults;
    cfg.fault_response = response;
    let mut sim = MacroSim::new(cfg);
    sim.run(&mut workload, &Lpt, RebalanceTrigger::OnMeshChange)
}

/// Untraced convenience wrapper over [`fault_run_traced`].
fn fault_run(
    ranks: usize,
    steps: u64,
    seed: u64,
    faults: FaultTimeline,
    response: FaultResponse,
) -> RunReport {
    fault_run_traced(ranks, steps, seed, faults, response, None)
}

/// Deterministic splitmix64 step, for synthetic OS jitter.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-rank compute signal: ~1 ms with bounded jitter, times `factor` on the
/// throttled node's ranks when `throttled` is active.
fn synth_signal(
    out: &mut [f64],
    ranks_per_node: usize,
    throttled: Option<(usize, f64)>,
    jitter: f64,
    rng: &mut u64,
) {
    for (rank, slot) in out.iter_mut().enumerate() {
        let u = (mix(rng) >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        let mut v = 1.0e6 * (1.0 + jitter * (2.0 * u - 1.0));
        if let Some((node, factor)) = throttled {
            if rank / ranks_per_node == node {
                v *= factor;
            }
        }
        *slot = v;
    }
}

proptest! {
    /// The sharded data path is an exact re-expression of the flat one:
    /// shard-local CSR rows keep global block ids and tile the SFC index
    /// space contiguously, so every per-rank float accumulates in the same
    /// order and the virtual phase breakdown is bit-identical at ANY shard
    /// count — sharding only adds the halo-metadata charge to
    /// redistribution, and that charge is exactly zero at one shard.
    #[test]
    fn sharded_virtual_phases_are_bitwise_flat(
        seed in 0u64..200,
        steps in 8u64..14,
    ) {
        let ranks = 16usize;
        let flat = sharded_run(ranks, steps, seed, 0);
        for shards in [1usize, 8] {
            let rep = sharded_run(ranks, steps, seed, shards);
            prop_assert_eq!(rep.num_shards, shards);
            prop_assert_eq!(rep.phases.compute_ns.to_bits(), flat.phases.compute_ns.to_bits());
            prop_assert_eq!(rep.phases.comm_ns.to_bits(), flat.phases.comm_ns.to_bits());
            prop_assert_eq!(rep.phases.sync_ns.to_bits(), flat.phases.sync_ns.to_bits());
            prop_assert_eq!(&rep.messages, &flat.messages);
            prop_assert_eq!(rep.final_blocks, flat.final_blocks);
            prop_assert_eq!(rep.lb_invocations, flat.lb_invocations);
            prop_assert_eq!(rep.mesh_change_steps, flat.mesh_change_steps);
            if shards == 1 {
                // One shard has no boundaries: empty halo, zero charge.
                prop_assert_eq!(rep.final_halo_blocks, 0);
                prop_assert_eq!(rep.halo_exchange_ns.to_bits(), 0.0f64.to_bits());
            } else if rep.mesh_change_steps > 0 && rep.final_halo_blocks > 0 {
                // Real shard boundaries on an adapting mesh pay for their
                // ghost-metadata republication.
                prop_assert!(rep.halo_exchange_ns > 0.0);
            }
        }
    }

    /// The multi-core determinism proof: a run on real worker threads must
    /// reproduce the inline single-task schedule's virtual time **bit for
    /// bit** at any thread count (the single-task bits are themselves pinned
    /// by `crates/sim/tests/golden_virtual_time.rs`). Every kernel follows
    /// the slot-ownership rule (each per-rank slot has exactly one writing
    /// task, accumulating in global row order), so f64 non-associativity
    /// never gets a chance to bite — across random 2D/3D adapt sequences,
    /// random fault timelines (throttle + NIC degradation, reweight response
    /// armed), and both graph paths. Redistribution/total are excluded as
    /// everywhere else: they charge real placement wall-clock.
    #[test]
    fn runs_are_bitwise_identical_at_any_thread_count(
        seed in 0u64..500,
        steps in 8u64..14,
        dim2 in any::<bool>(),
        shards in prop_oneof![Just(0usize), 2usize..5],
        onset in 2u64..6,
        len in 2u64..8,
        factor in 2.0f64..5.0,
        nic in prop_oneof![Just(1.0f64), 0.4f64..0.9],
    ) {
        let ranks = 16usize;
        let mut episode = FaultEpisode::throttle(onset, onset + len, [1], factor);
        if nic < 1.0 {
            episode = episode.with_nic_degradation(nic);
        }
        let timeline = FaultTimeline::with_episode(episode);
        let base = parallel_run(
            ranks, steps, seed, dim2, shards, 1, timeline.clone(), FaultResponse::Reweight);
        for threads in [2usize, 3, 4] {
            let rep = parallel_run(
                ranks, steps, seed, dim2, shards, threads, timeline.clone(),
                FaultResponse::Reweight);
            prop_assert_eq!(rep.phases.compute_ns.to_bits(), base.phases.compute_ns.to_bits(),
                "compute diverged at {} threads", threads);
            prop_assert_eq!(rep.phases.comm_ns.to_bits(), base.phases.comm_ns.to_bits(),
                "comm diverged at {} threads", threads);
            prop_assert_eq!(rep.phases.sync_ns.to_bits(), base.phases.sync_ns.to_bits(),
                "sync diverged at {} threads", threads);
            prop_assert_eq!(rep.halo_exchange_ns.to_bits(), base.halo_exchange_ns.to_bits());
            prop_assert_eq!(&rep.messages, &base.messages);
            prop_assert_eq!(rep.lb_invocations, base.lb_invocations);
            prop_assert_eq!(rep.mesh_change_steps, base.mesh_change_steps);
            prop_assert_eq!(rep.blocks_migrated, base.blocks_migrated);
            prop_assert_eq!(rep.final_blocks, base.final_blocks);
            prop_assert_eq!(rep.final_halo_blocks, base.final_halo_blocks);
            prop_assert_eq!(rep.capacity_updates, base.capacity_updates);
        }
    }

    /// An empty `FaultTimeline` — and the detector armed over it — must
    /// reproduce the fault-oblivious run's virtual phases bit-for-bit.
    /// Redistribution is excluded: it charges real placement wall-clock
    /// (see `runs_are_reproducible_given_seed_modulo_wall_clock`).
    #[test]
    fn zero_fault_runs_are_bitwise_unchanged(
        seed in 0u64..1_000,
        steps in 12u64..24,
    ) {
        let ranks = if seed % 2 == 0 { 16usize } else { 32 };
        let base = fault_run(ranks, steps, seed, FaultTimeline::healthy(), FaultResponse::Oblivious);
        // Static-config conversion path: same healthy fault model.
        let via_config = fault_run(ranks, steps, seed, FaultConfig::default().into(), FaultResponse::Oblivious);
        // Detector armed, capacity reweighting enabled — nothing ever flags,
        // so the response machinery must be a perfect no-op.
        let armed = fault_run(ranks, steps, seed, FaultTimeline::healthy(), FaultResponse::Reweight);
        for rep in [&via_config, &armed] {
            prop_assert_eq!(rep.phases.compute_ns.to_bits(), base.phases.compute_ns.to_bits());
            prop_assert_eq!(rep.phases.comm_ns.to_bits(), base.phases.comm_ns.to_bits());
            prop_assert_eq!(rep.phases.sync_ns.to_bits(), base.phases.sync_ns.to_bits());
            prop_assert_eq!(&rep.messages, &base.messages);
            prop_assert_eq!(rep.final_blocks, base.final_blocks);
            prop_assert_eq!(rep.lb_invocations, base.lb_invocations);
        }
        prop_assert_eq!(armed.capacity_updates, 0);
        prop_assert_eq!(armed.nodes_pruned, 0);
    }

    /// Tracing must observe, never perturb: a traced run — spans, counters
    /// and gauges flowing into a live `TraceHandle`, through a mid-run fault
    /// episode with the reweight response active — reproduces the untraced
    /// run's simulated virtual time bit for bit. (Redistribution is excluded
    /// for the same reason as in `zero_fault_runs_are_bitwise_unchanged`:
    /// it charges real placement wall-clock.)
    #[test]
    fn traced_runs_are_bitwise_identical_in_virtual_time(
        seed in 0u64..1_000,
        steps in 12u64..24,
    ) {
        use amr_tools::telemetry::trace::Counter as TraceCounter;
        use amr_tools::telemetry::TraceHandle;
        let ranks = if seed % 2 == 0 { 16usize } else { 32 };
        let episode = FaultEpisode::throttle(4, 12, [1], 4.0);
        let timeline = FaultTimeline::with_episode(episode);
        let base = fault_run(ranks, steps, seed, timeline.clone(), FaultResponse::Reweight);
        let handle = TraceHandle::new(4096);
        let traced = fault_run_traced(
            ranks, steps, seed, timeline, FaultResponse::Reweight, Some(handle.clone()));
        prop_assert_eq!(traced.phases.compute_ns.to_bits(), base.phases.compute_ns.to_bits());
        prop_assert_eq!(traced.phases.comm_ns.to_bits(), base.phases.comm_ns.to_bits());
        prop_assert_eq!(traced.phases.sync_ns.to_bits(), base.phases.sync_ns.to_bits());
        prop_assert_eq!(&traced.messages, &base.messages);
        prop_assert_eq!(traced.final_blocks, base.final_blocks);
        prop_assert_eq!(traced.lb_invocations, base.lb_invocations);
        prop_assert_eq!(traced.capacity_updates, base.capacity_updates);
        // And the trace really observed the run: per-step spans landed and
        // the counters line up with the report.
        prop_assert!(!handle.snapshot().is_empty());
        let metrics = handle.metrics();
        prop_assert_eq!(metrics.counter(TraceCounter::Steps), steps);
        prop_assert_eq!(metrics.counter(TraceCounter::Collectives), steps);
        prop_assert_eq!(metrics.counter(TraceCounter::Rebalances), traced.lb_invocations + 1);
    }

    /// A single throttle episode is flagged — exactly the throttled node,
    /// within the detector's window + debounce — and jitter alone never
    /// trips the detector, no matter the seed.
    #[test]
    fn online_detector_flags_episode_nodes_and_ignores_jitter(
        seed in 0u64..1_000_000,
        num_nodes in 3usize..6,
        node in 0usize..6,
        factor in 3.0f64..6.0,
        jitter in 0.0f64..0.10,
        onset in 5usize..15,
    ) {
        let node = node % num_nodes;
        let ranks_per_node = 16;
        let r = num_nodes * ranks_per_node;
        let cfg = OnlineDetectorConfig::default();
        let episode = FaultEpisode::throttle(onset as u64, u64::MAX, [node], factor);
        let timeline = FaultTimeline::with_episode(episode);
        let budget = onset + cfg.window + cfg.debounce + 2; // must flag by here
        let mut det = OnlineThrottleDetector::new(r, ranks_per_node, cfg);
        let mut signal = vec![0.0f64; r];
        let mut active_nodes = Vec::new();
        let mut rng = seed ^ 0xA5A5_A5A5;
        for step in 0..budget {
            timeline.throttled_nodes_at(step as u64, &mut active_nodes);
            let active = active_nodes.first().map(|&n| (n, factor));
            prop_assert_eq!(active.is_some(), step >= onset);
            synth_signal(&mut signal, ranks_per_node, active, jitter, &mut rng);
            det.observe(&signal);
            if step < onset {
                prop_assert!(!det.any_flagged(), "flagged before the episode began");
            }
        }
        prop_assert_eq!(det.flagged_nodes(), vec![node]);

        // Jitter-only control: same seeds, no episode, no flags ever.
        let mut det = OnlineThrottleDetector::new(r, ranks_per_node, OnlineDetectorConfig::default());
        let mut rng = seed ^ 0xA5A5_A5A5;
        for _ in 0..4 * budget {
            synth_signal(&mut signal, ranks_per_node, None, jitter, &mut rng);
            det.observe(&signal);
            prop_assert!(!det.any_flagged(), "OS jitter alone tripped the detector");
        }
    }
}

// --- Observed exchange-byte ledger ------------------------------------------

/// Sedov run with the exchange-byte ledger dialed in: `observe` arms the
/// ledger, `policy_ml` picks the multilevel partitioner (which consumes the
/// observed weights) vs LPT (which ignores them), `threads` sizes the
/// simulator pool, `num_shards` lays a shard plan over the graph (0 = flat).
/// A periodic trigger guarantees repartitions that consume mid-run
/// observations even on steps where the mesh holds still.
#[allow(clippy::too_many_arguments)]
fn ledger_run(
    ranks: usize,
    steps: u64,
    seed: u64,
    threads: usize,
    observe: bool,
    policy_ml: bool,
    num_shards: usize,
) -> RunReport {
    use amr_tools::mesh::{Dim, MeshConfig};
    use amr_tools::placement::policies::{Lpt, Multilevel};
    use amr_tools::placement::trigger::RebalanceTrigger;
    use amr_tools::workloads::{SedovConfig, SedovWorkload};
    let mesh = MeshConfig::from_cells(Dim::D3, (48, 48, 48), 1);
    let mut workload = SedovWorkload::new(SedovConfig::new(mesh, steps));
    let mut cfg = SimConfig::tuned(ranks);
    cfg.seed = seed;
    cfg.telemetry_sampling = 4;
    cfg.observe_exchange_bytes = observe;
    cfg.threads = threads;
    cfg.num_shards = num_shards;
    let mut sim = MacroSim::new(cfg);
    if policy_ml {
        let ml = Multilevel::default();
        sim.run(&mut workload, &ml, RebalanceTrigger::Periodic(3))
    } else {
        sim.run(&mut workload, &Lpt, RebalanceTrigger::Periodic(3))
    }
}

proptest! {
    /// The ledger only *reads* simulation state: arming it under a policy
    /// that ignores edge weights leaves the entire virtual timeline — phase
    /// breakdown, total, message counts — bitwise identical.
    #[test]
    fn ledger_is_invisible_to_weight_blind_policies(
        seed in 0u64..300,
        steps in 8u64..14,
    ) {
        let off = ledger_run(16, steps, seed, 1, false, false, 0);
        let on = ledger_run(16, steps, seed, 1, true, false, 0);
        // Compare the deterministic virtual phases (total_ns folds in the
        // *host* wall-clock of placement computation, which no two runs
        // share — same exclusion as the sharded bit-identity test above).
        prop_assert_eq!(off.phases.compute_ns.to_bits(), on.phases.compute_ns.to_bits());
        prop_assert_eq!(off.phases.comm_ns.to_bits(), on.phases.comm_ns.to_bits());
        prop_assert_eq!(off.phases.sync_ns.to_bits(), on.phases.sync_ns.to_bits());
        prop_assert_eq!(&off.messages, &on.messages);
        prop_assert_eq!(off.blocks_migrated, on.blocks_migrated);
        prop_assert_eq!(off.lb_invocations, on.lb_invocations);
    }

    /// Ledger-fed runs are deterministic at any worker-thread count: the
    /// flush writes disjoint entry ranges and merges integer partials
    /// in task order, and the multilevel policy consuming the weights is
    /// itself thread-invariant — so the whole feedback loop is too.
    #[test]
    fn ledger_feedback_loop_is_thread_invariant(
        seed in 0u64..300,
        steps in 8u64..14,
    ) {
        let serial = ledger_run(16, steps, seed, 1, true, true, 0);
        for threads in [2usize, 3, 4] {
            let rep = ledger_run(16, steps, seed, threads, true, true, 0);
            prop_assert_eq!(serial.phases.compute_ns.to_bits(), rep.phases.compute_ns.to_bits(),
                "threads = {}", threads);
            prop_assert_eq!(serial.phases.comm_ns.to_bits(), rep.phases.comm_ns.to_bits());
            prop_assert_eq!(serial.phases.sync_ns.to_bits(), rep.phases.sync_ns.to_bits());
            prop_assert_eq!(&serial.messages, &rep.messages);
            prop_assert_eq!(serial.blocks_migrated, rep.blocks_migrated);
            prop_assert_eq!(serial.lb_invocations, rep.lb_invocations);
        }
    }

    /// A sharded run holds the one graph the ledger is entry-parallel to, so
    /// the ledger rides along: under LPT, arming it leaves phases, messages
    /// and the halo fields bit-identical; under the multilevel partitioner
    /// that reads its weights, the sharded run is the flat run bit for bit.
    #[test]
    fn ledger_on_sharded_runs_is_bitwise_flat(
        seed in 0u64..300,
        steps in 8u64..14,
        shards in 2usize..=8,
    ) {
        let off = ledger_run(16, steps, seed, 1, false, false, shards);
        let on = ledger_run(16, steps, seed, 1, true, false, shards);
        prop_assert_eq!(off.phases.compute_ns.to_bits(), on.phases.compute_ns.to_bits());
        prop_assert_eq!(off.phases.comm_ns.to_bits(), on.phases.comm_ns.to_bits());
        prop_assert_eq!(off.phases.sync_ns.to_bits(), on.phases.sync_ns.to_bits());
        prop_assert_eq!(&off.messages, &on.messages);
        prop_assert_eq!(off.halo_exchange_ns.to_bits(), on.halo_exchange_ns.to_bits());
        prop_assert_eq!(off.final_halo_blocks, on.final_halo_blocks);

        let flat = ledger_run(16, steps, seed, 1, true, true, 0);
        let sharded = ledger_run(16, steps, seed, 1, true, true, shards);
        prop_assert_eq!(flat.phases.compute_ns.to_bits(), sharded.phases.compute_ns.to_bits());
        prop_assert_eq!(flat.phases.comm_ns.to_bits(), sharded.phases.comm_ns.to_bits());
        prop_assert_eq!(flat.phases.sync_ns.to_bits(), sharded.phases.sync_ns.to_bits());
        prop_assert_eq!(&flat.messages, &sharded.messages);
        prop_assert_eq!(sharded.num_shards, shards);
    }
}
