//! Message-level simulation of a single boundary-exchange round.
//!
//! This is the engine behind `commbench` (Fig. 7a) and the tuning
//! experiments (Figs. 1 and 3): one synchronization window in which every
//! rank runs compute, dispatches its boundary messages, then blocks in
//! `MPI_Waitall` until all inbound messages are processed, followed by a
//! barrier.
//!
//! The model captures the §IV mechanisms:
//!
//! * **Task ordering** ([`TaskOrder`]): compute-before-sends (the GPU-tuned
//!   default that cascades delays on CPUs) vs sends-first (the paper's
//!   reordering mitigation).
//! * **Receiver-side serialization**: inbound messages are served one at a
//!   time — clustered high-traffic neighbors create incast hotspots, the
//!   effect behind the Fig. 7a U-shape.
//! * **Shared-memory queue contention**: more simultaneous local messages
//!   than the queue holds ⇒ per-excess penalties (untuned queue sizes).
//! * **ACK-loss recovery**: remote sends occasionally stall the *sender*
//!   unless the drain-queue mitigation is active.

use crate::collectives;
use crate::network::NetworkConfig;
use crate::topology::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Scheduling order of tasks within a rank's window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskOrder {
    /// Dispatch boundary sends before running compute — the §IV-B
    /// "prioritizing sends" mitigation.
    SendsFirst,
    /// Run compute first, sends after — the untuned default that was
    /// "masked on GPUs where developed".
    ComputeFirst,
}

/// One point-to-point message of a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    pub src: u32,
    pub dst: u32,
    pub bytes: u64,
}

/// Specification of one boundary-exchange round.
#[derive(Debug, Clone)]
pub struct RoundSpec {
    /// Rank count; must equal the simulator topology's.
    pub num_ranks: usize,
    /// Per-rank compute time in the window (ns).
    pub compute_ns: Vec<u64>,
    /// All messages of the round. `src == dst` entries are intra-rank
    /// memcpys: charged at memory bandwidth, with no MPI overheads.
    pub messages: Vec<Message>,
    pub order: TaskOrder,
}

/// Outcome of one simulated round.
#[derive(Debug, Clone, Default)]
pub struct RoundResult {
    /// When each rank finished its *own* tasks (compute + dispatches).
    pub local_finish_ns: Vec<u64>,
    /// When each rank finished the window (all inbound messages processed,
    /// ACK stalls paid).
    pub finish_ns: Vec<u64>,
    /// Time blocked in MPI_Waitall per rank.
    pub wait_ns: Vec<u64>,
    /// Active communication time per rank (dispatch + receive service +
    /// contention penalties).
    pub comm_ns: Vec<u64>,
    /// End-to-end round latency: barrier completion after the straggler.
    pub round_latency_ns: u64,
    /// Message counts by locality class.
    pub intra_msgs: u64,
    pub local_msgs: u64,
    pub remote_msgs: u64,
    /// Number of remote sends that hit the ACK recovery path.
    pub ack_stalls: u32,
}

/// The micro-simulator: topology + network model + seeded randomness.
///
/// ```
/// use amr_sim::{Message, MicroSim, NetworkConfig, RoundSpec, TaskOrder, Topology};
/// let mut sim = MicroSim::new(Topology::paper(2), NetworkConfig::tuned(), 42);
/// let spec = RoundSpec {
///     num_ranks: 2,
///     compute_ns: vec![1_000, 1_000],
///     messages: vec![Message { src: 0, dst: 1, bytes: 4096 }],
///     order: TaskOrder::SendsFirst,
/// };
/// let res = sim.run_round(&spec);
/// assert_eq!(res.local_msgs + res.remote_msgs, 1);
/// assert!(res.round_latency_ns > 1_000);
/// ```
#[derive(Debug, Clone)]
pub struct MicroSim {
    pub topology: Topology,
    pub network: NetworkConfig,
    rng: StdRng,
    scratch: RoundScratch,
}

/// Pooled per-round working memory, recycled by [`MicroSim::run_round_into`]
/// so warm rounds allocate nothing.
#[derive(Debug, Clone, Default)]
struct RoundScratch {
    dispatch_finish: Vec<u64>,
    /// Message indices grouped by source rank, preserving input order.
    by_src: Vec<Vec<usize>>,
    pending_stall: Vec<u64>,
    /// Remote bytes per directed node link, flat `src_node * nodes +
    /// dst_node` — sized only while the credit model is enabled.
    link_bytes: Vec<u64>,
    /// (arrival_time, service_time) per inbound message, per receiver.
    arrivals: Vec<Vec<(u64, u64)>>,
    shm_count: Vec<usize>,
    barrier_wait: Vec<u64>,
}

impl MicroSim {
    /// Create a simulator with the given seed.
    ///
    /// # Panics
    /// On a degenerate network model (see [`NetworkConfig::validate`]) —
    /// notably an out-of-range `ack_loss_prob`, which would otherwise panic
    /// inside the RNG mid-round with an unhelpful message.
    pub fn new(topology: Topology, network: NetworkConfig, seed: u64) -> MicroSim {
        if let Err(e) = network.validate() {
            panic!("invalid NetworkConfig: {e}");
        }
        MicroSim {
            topology,
            network,
            rng: StdRng::seed_from_u64(seed),
            scratch: RoundScratch::default(),
        }
    }

    /// Simulate one round.
    ///
    /// # Panics
    /// On a spec that does not fit the topology, as
    /// [`run_round_into`](Self::run_round_into) does.
    pub fn run_round(&mut self, spec: &RoundSpec) -> RoundResult {
        let mut out = RoundResult::default();
        self.run_round_into(spec, &mut out);
        out
    }

    /// Simulate one round into a reused result (its vectors are cleared and
    /// refilled). With a warm `self` and `out`, this allocates nothing.
    ///
    /// # Panics
    /// Before any state is touched, if `spec.num_ranks` differs from the
    /// topology's rank count, if `spec.compute_ns` does not hold one entry
    /// per rank, or if a message's `src` or `dst` is not below
    /// `spec.num_ranks` (the message index and the field are named).
    pub fn run_round_into(&mut self, spec: &RoundSpec, out: &mut RoundResult) {
        let r = spec.num_ranks;
        assert_eq!(
            r, self.topology.num_ranks,
            "RoundSpec::num_ranks must equal the topology's rank count"
        );
        assert_eq!(spec.compute_ns.len(), r, "one compute_ns entry per rank");
        for (i, m) in spec.messages.iter().enumerate() {
            assert!(
                (m.src as usize) < r,
                "message {i}: src {} >= {r} ranks",
                m.src
            );
            assert!(
                (m.dst as usize) < r,
                "message {i}: dst {} >= {r} ranks",
                m.dst
            );
        }
        let net = &self.network;
        let topo = &self.topology;
        let s = &mut self.scratch;

        // ---- Phase 0: per-link credit accounting --------------------------
        // The credit window is exhausted by a *link's* whole-round volume,
        // not by any single message, so the matrix is built up front. Empty
        // (and skipped below) while the model is disabled — the default.
        let congestion = net.congestion_enabled();
        let nodes = topo.num_nodes();
        s.link_bytes.clear();
        if congestion {
            s.link_bytes.resize(nodes * nodes, 0);
            for m in &spec.messages {
                if m.src == m.dst {
                    continue;
                }
                let (sn, dn) = (topo.node_of(m.src as usize), topo.node_of(m.dst as usize));
                if sn != dn {
                    s.link_bytes[sn * nodes + dn] += m.bytes;
                }
            }
        }

        // ---- Phase 1: sender-side dispatch ------------------------------
        // Per-rank ordered dispatch of messages; compute before or after.
        s.dispatch_finish.clear();
        s.dispatch_finish.resize(spec.messages.len(), 0);
        out.local_finish_ns.clear();
        out.local_finish_ns.resize(r, 0);
        out.comm_ns.clear();
        out.comm_ns.resize(r, 0);
        s.pending_stall.clear();
        s.pending_stall.resize(r, 0);
        out.intra_msgs = 0;
        out.local_msgs = 0;
        out.remote_msgs = 0;
        out.ack_stalls = 0;

        s.by_src.resize_with(r, Vec::new);
        for v in &mut s.by_src {
            v.clear();
        }
        for (i, m) in spec.messages.iter().enumerate() {
            s.by_src[m.src as usize].push(i);
        }

        for rank in 0..r {
            let mut t = 0u64;
            if spec.order == TaskOrder::ComputeFirst {
                t += spec.compute_ns[rank];
            }
            for &mi in &s.by_src[rank] {
                let m = &spec.messages[mi];
                if m.src == m.dst {
                    out.intra_msgs += 1;
                    // Intra-rank ghost exchange: a memcpy at shared-memory
                    // bandwidth, no MPI involvement.
                    let d = net.memcpy_ns(m.bytes);
                    t += d;
                    out.comm_ns[rank] += d;
                    continue;
                }
                let local = topo.same_node(m.src as usize, m.dst as usize);
                if local {
                    out.local_msgs += 1;
                } else {
                    out.remote_msgs += 1;
                }
                let d = net.dispatch_ns(m.bytes);
                t += d;
                out.comm_ns[rank] += d;
                s.dispatch_finish[mi] = t;
                // ACK-loss recovery: remote only; blocks the sender at its
                // MPI_Wait unless the drain queue absorbs it.
                // Exactly one draw per remote message, taken *before* the
                // drain-queue branch — mitigated and unmitigated runs
                // consume identical RNG streams (pinned by proptest).
                if !local && self.rng.gen_bool(net.ack_loss_prob) {
                    out.ack_stalls += 1;
                    if !net.drain_queue {
                        s.pending_stall[rank] =
                            s.pending_stall[rank].saturating_add(net.ack_recovery_ns);
                    }
                }
            }
            if spec.order == TaskOrder::SendsFirst {
                t += spec.compute_ns[rank];
            }
            out.local_finish_ns[rank] = t;
        }
        if congestion {
            // Credit starvation blocks the *sender* in MPI_Wait, like the
            // ACK recovery path: charge each rank its node's worst outgoing
            // link. congestion_ns is monotone, so maxing bytes first equals
            // maxing the stalls.
            for rank in 0..r {
                let sn = topo.node_of(rank);
                let mut worst_out = 0u64;
                for peer in 0..nodes {
                    worst_out = worst_out.max(s.link_bytes[sn * nodes + peer]);
                }
                s.pending_stall[rank] =
                    s.pending_stall[rank].saturating_add(net.congestion_ns(worst_out));
            }
        }

        // ---- Phase 2: receiver-side arrival + service --------------------
        // arrivals[dst] = (arrival_time, service_time) per inbound message.
        // (A per-node shared-NIC serialization stage was evaluated here and
        // rejected: it overweights total remote volume and pushes the
        // Fig. 7a sweep far outside the paper's ±0.5 ms band. The per-rank
        // busy-server below keeps the receiver-hotspot mechanism without
        // that distortion.)
        s.arrivals.resize_with(r, Vec::new);
        for v in &mut s.arrivals {
            v.clear();
        }
        s.shm_count.clear();
        s.shm_count.resize(r, 0);
        for (i, m) in spec.messages.iter().enumerate() {
            if m.src == m.dst {
                continue;
            }
            let local = topo.same_node(m.src as usize, m.dst as usize);
            if local {
                s.shm_count[m.dst as usize] += 1;
            }
            let arr = s.dispatch_finish[i] + net.transfer_ns(m.bytes, local);
            s.arrivals[m.dst as usize].push((arr, net.service_ns(m.bytes, local)));
        }

        out.finish_ns.clear();
        out.finish_ns.resize(r, 0);
        out.wait_ns.clear();
        out.wait_ns.resize(r, 0);
        for rank in 0..r {
            s.arrivals[rank].sort_unstable();
            // Busy-server model: MPI progress serves inbound messages in
            // arrival order.
            let mut server = 0u64;
            for &(arr, svc) in &s.arrivals[rank] {
                server = server.max(arr) + svc;
                out.comm_ns[rank] += svc;
            }
            // Shared-memory queue overflow penalties land on the receiver;
            // so do retransmits of the node's most congested incoming link.
            let mut contention = net.shm_contention_ns(s.shm_count[rank]);
            if congestion {
                let sn = topo.node_of(rank);
                let mut worst_in = 0u64;
                for peer in 0..nodes {
                    worst_in = worst_in.max(s.link_bytes[peer * nodes + sn]);
                }
                contention = contention.saturating_add(net.congestion_ns(worst_in));
            }
            out.comm_ns[rank] += contention;
            let done = out.local_finish_ns[rank]
                .max(server.saturating_add(contention))
                .max(out.local_finish_ns[rank].saturating_add(s.pending_stall[rank]));
            out.finish_ns[rank] = done;
            out.wait_ns[rank] = done - out.local_finish_ns[rank];
        }

        // ---- Phase 3: closing barrier ------------------------------------
        out.round_latency_ns =
            collectives::barrier_into(&out.finish_ns, net.fabric.latency_ns, &mut s.barrier_wait);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_net() -> NetworkConfig {
        NetworkConfig {
            ack_loss_prob: 0.0,
            ..NetworkConfig::tuned()
        }
    }

    fn ring_spec(r: usize, bytes: u64, order: TaskOrder, compute: u64) -> RoundSpec {
        RoundSpec {
            num_ranks: r,
            compute_ns: vec![compute; r],
            messages: (0..r as u32)
                .map(|i| Message {
                    src: i,
                    dst: (i + 1) % r as u32,
                    bytes,
                })
                .collect(),
            order: TaskOrder::SendsFirst,
        }
        .with_order(order)
    }

    impl RoundSpec {
        fn with_order(mut self, order: TaskOrder) -> Self {
            self.order = order;
            self
        }
    }

    #[test]
    fn empty_round_is_just_compute_plus_barrier() {
        let mut sim = MicroSim::new(Topology::paper(4), quiet_net(), 1);
        let spec = RoundSpec {
            num_ranks: 4,
            compute_ns: vec![100, 200, 300, 400],
            messages: vec![],
            order: TaskOrder::SendsFirst,
        };
        let res = sim.run_round(&spec);
        assert_eq!(res.finish_ns, vec![100, 200, 300, 400]);
        assert_eq!(res.wait_ns, vec![0; 4]);
        assert!(res.round_latency_ns >= 400);
    }

    #[test]
    fn sends_first_beats_compute_first_on_round_latency() {
        // Heavy compute + a dependency chain: sends-first releases messages
        // early, shrinking downstream waits.
        let mut sim = MicroSim::new(Topology::paper(8), quiet_net(), 2);
        let sf = sim.run_round(&ring_spec(8, 20_000, TaskOrder::SendsFirst, 1_000_000));
        let cf = sim.run_round(&ring_spec(8, 20_000, TaskOrder::ComputeFirst, 1_000_000));
        assert!(
            sf.round_latency_ns < cf.round_latency_ns,
            "sends-first {} >= compute-first {}",
            sf.round_latency_ns,
            cf.round_latency_ns
        );
        // Compute-first inflates MPI_Wait on receivers.
        let sf_wait: u64 = sf.wait_ns.iter().sum();
        let cf_wait: u64 = cf.wait_ns.iter().sum();
        assert!(sf_wait < cf_wait);
    }

    #[test]
    fn locality_classification_counts() {
        let topo = Topology::new(4, 2); // nodes {0,1}, {2,3}
        let mut sim = MicroSim::new(topo, quiet_net(), 3);
        let spec = RoundSpec {
            num_ranks: 4,
            compute_ns: vec![0; 4],
            messages: vec![
                Message {
                    src: 0,
                    dst: 0,
                    bytes: 10,
                }, // intra-rank
                Message {
                    src: 0,
                    dst: 1,
                    bytes: 10,
                }, // same node
                Message {
                    src: 0,
                    dst: 2,
                    bytes: 10,
                }, // remote
                Message {
                    src: 3,
                    dst: 2,
                    bytes: 10,
                }, // same node
            ],
            order: TaskOrder::SendsFirst,
        };
        let res = sim.run_round(&spec);
        assert_eq!(res.intra_msgs, 1);
        assert_eq!(res.local_msgs, 2);
        assert_eq!(res.remote_msgs, 1);
    }

    #[test]
    fn intra_rank_copy_is_priced_in_whole_nanoseconds() {
        // 1 001 B at the shm path's 10 B/ns: a 100 ns memcpy, the same
        // truncated price `MacroSim`'s epoch fill charges.
        let mut sim = MicroSim::new(Topology::paper(1), quiet_net(), 1);
        let res = sim.run_round(&RoundSpec {
            num_ranks: 1,
            compute_ns: vec![0],
            messages: vec![Message {
                src: 0,
                dst: 0,
                bytes: 1001,
            }],
            order: TaskOrder::SendsFirst,
        });
        assert_eq!(res.intra_msgs, 1);
        assert_eq!(res.comm_ns, vec![100]);
    }

    #[test]
    fn ack_faults_stall_sender_without_drain_queue() {
        let faulty = NetworkConfig {
            ack_loss_prob: 1.0, // every remote send stalls
            drain_queue: false,
            ..NetworkConfig::tuned()
        };
        let drained = NetworkConfig {
            drain_queue: true,
            ..faulty
        };
        let topo = Topology::new(2, 1); // both ranks on distinct nodes
        let spec = RoundSpec {
            num_ranks: 2,
            compute_ns: vec![0; 2],
            messages: vec![Message {
                src: 0,
                dst: 1,
                bytes: 100,
            }],
            order: TaskOrder::SendsFirst,
        };
        let mut sim_f = MicroSim::new(topo, faulty, 4);
        let res_f = sim_f.run_round(&spec);
        assert_eq!(res_f.ack_stalls, 1);
        assert!(res_f.wait_ns[0] >= faulty.ack_recovery_ns);

        let mut sim_d = MicroSim::new(topo, drained, 4);
        let res_d = sim_d.run_round(&spec);
        assert_eq!(res_d.ack_stalls, 1); // still happens...
        assert!(res_d.wait_ns[0] < faulty.ack_recovery_ns); // ...but hidden
    }

    #[test]
    fn queue_contention_penalizes_fan_in() {
        // 17 local senders into rank 0 with queue size 8 => 9 excess.
        let topo = Topology::new(18, 18);
        let net = NetworkConfig {
            ack_loss_prob: 0.0,
            ..NetworkConfig::untuned()
        };
        let spec = RoundSpec {
            num_ranks: 18,
            compute_ns: vec![0; 18],
            messages: (1..18u32)
                .map(|s| Message {
                    src: s,
                    dst: 0,
                    bytes: 100,
                })
                .collect(),
            order: TaskOrder::SendsFirst,
        };
        let mut sim = MicroSim::new(topo, net, 5);
        let res = sim.run_round(&spec);
        let expected_penalty = (17 - net.shm_queue_size) as u64 * net.queue_overflow_penalty_ns;
        assert!(res.comm_ns[0] >= expected_penalty);

        // With the tuned queue, no contention penalty.
        let mut sim_t = MicroSim::new(topo, quiet_net(), 5);
        let res_t = sim_t.run_round(&spec);
        assert!(res_t.comm_ns[0] < res.comm_ns[0]);
    }

    #[test]
    fn incast_hotspot_raises_round_latency() {
        // Everyone sends to rank 0 vs a balanced ring: hotspot loses.
        let topo = Topology::paper(32);
        let mut sim = MicroSim::new(topo, quiet_net(), 6);
        let hot = RoundSpec {
            num_ranks: 32,
            compute_ns: vec![0; 32],
            messages: (1..32u32)
                .map(|s| Message {
                    src: s,
                    dst: 0,
                    bytes: 20_480,
                })
                .collect(),
            order: TaskOrder::SendsFirst,
        };
        let ring = ring_spec(32, 20_480, TaskOrder::SendsFirst, 0);
        let hot_res = sim.run_round(&hot);
        let ring_res = sim.run_round(&ring);
        assert!(hot_res.round_latency_ns > ring_res.round_latency_ns);
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = ring_spec(16, 1000, TaskOrder::SendsFirst, 500);
        let a = MicroSim::new(Topology::paper(16), NetworkConfig::untuned(), 9).run_round(&spec);
        let b = MicroSim::new(Topology::paper(16), NetworkConfig::untuned(), 9).run_round(&spec);
        assert_eq!(a.finish_ns, b.finish_ns);
        assert_eq!(a.round_latency_ns, b.round_latency_ns);
    }

    #[test]
    fn run_round_into_reuses_result_correctly() {
        // A warm (sim, out) pair must produce the same numbers as a cold
        // run_round — including after a larger round shrank back down.
        let big = ring_spec(16, 1000, TaskOrder::SendsFirst, 500);
        let small = ring_spec(8, 2000, TaskOrder::ComputeFirst, 100);
        let mut warm = MicroSim::new(Topology::paper(16), quiet_net(), 9);
        let mut out = RoundResult::default();
        warm.run_round_into(&big, &mut out);
        let small16 = RoundSpec {
            num_ranks: 16,
            compute_ns: vec![100; 16],
            messages: small.messages.clone(),
            order: small.order,
        };
        warm.run_round_into(&small16, &mut out);
        let cold = MicroSim::new(Topology::paper(16), quiet_net(), 9).run_round(&small16);
        assert_eq!(out.finish_ns, cold.finish_ns);
        assert_eq!(out.wait_ns, cold.wait_ns);
        assert_eq!(out.comm_ns, cold.comm_ns);
        assert_eq!(out.round_latency_ns, cold.round_latency_ns);
    }

    #[test]
    #[should_panic(expected = "ack_loss_prob")]
    fn degenerate_network_rejected_at_construction() {
        // Out of range, it would otherwise panic deep inside the RNG on the
        // first remote message.
        let net = NetworkConfig {
            ack_loss_prob: 1.5,
            ..NetworkConfig::tuned()
        };
        let _ = MicroSim::new(Topology::paper(2), net, 1);
    }

    fn one_message(num_ranks: usize, src: u32, dst: u32) -> RoundSpec {
        RoundSpec {
            num_ranks,
            compute_ns: vec![0; num_ranks],
            messages: vec![
                Message {
                    src: 0,
                    dst: 1,
                    bytes: 64,
                },
                Message {
                    src,
                    dst,
                    bytes: 64,
                },
            ],
            order: TaskOrder::SendsFirst,
        }
    }

    #[test]
    #[should_panic(expected = "message 1: src 7 >= 4 ranks")]
    fn out_of_range_src_is_rejected() {
        let mut sim = MicroSim::new(Topology::paper(4), quiet_net(), 1);
        sim.run_round(&one_message(4, 7, 0));
    }

    #[test]
    #[should_panic(expected = "message 1: dst 9 >= 4 ranks")]
    fn out_of_range_dst_is_rejected() {
        let mut sim = MicroSim::new(Topology::paper(4), quiet_net(), 1);
        sim.run_round(&one_message(4, 2, 9));
    }

    #[test]
    #[should_panic(expected = "RoundSpec::num_ranks must equal the topology's rank count")]
    fn spec_wider_than_the_topology_is_rejected() {
        // Unchecked, it would index past the congestion pass's link matrix,
        // or (credit model off) price ranks 4-7 on nodes that do not exist.
        let mut sim = MicroSim::new(Topology::new(4, 2), NetworkConfig::congested(), 1);
        sim.run_round(&one_message(8, 6, 7));
    }

    #[test]
    fn drain_queue_does_not_shift_the_ack_draw_stream() {
        // The mitigation hides stalls; it must not change *which* sends hit
        // the recovery path. Same seed, fractional probability: identical
        // stall counts with the drain queue on or off.
        let spec = ring_spec(32, 4_096, TaskOrder::SendsFirst, 100);
        let base = NetworkConfig {
            ack_loss_prob: 0.5,
            drain_queue: false,
            ..NetworkConfig::tuned()
        };
        let drained = NetworkConfig {
            drain_queue: true,
            ..base
        };
        let topo = Topology::new(32, 1); // every message remote => 32 draws
        let raw = MicroSim::new(topo, base, 77).run_round(&spec);
        let mit = MicroSim::new(topo, drained, 77).run_round(&spec);
        assert_eq!(raw.ack_stalls, mit.ack_stalls);
        assert!(raw.ack_stalls > 0, "p=0.5 over 32 draws never firing");
        // And the mitigation only ever helps.
        assert!(mit.round_latency_ns <= raw.round_latency_ns);
    }

    #[test]
    fn credit_window_stalls_concentrated_traffic_only() {
        // Two nodes, all traffic on the single 0→1 link. Under the window:
        // identical to the disabled model. Over it: strictly slower.
        let topo = Topology::new(8, 4);
        let bytes = 1 << 20; // 4 MiB over the link per round
        let spec = RoundSpec {
            num_ranks: 8,
            compute_ns: vec![0; 8],
            messages: (0..4u32)
                .map(|i| Message {
                    src: i,
                    dst: i + 4,
                    bytes,
                })
                .collect(),
            order: TaskOrder::SendsFirst,
        };
        let generous = NetworkConfig {
            fabric_credit_bytes: 64 << 20,
            ack_loss_prob: 0.0,
            ..NetworkConfig::congested()
        };
        let starved = NetworkConfig {
            fabric_credit_bytes: 1 << 20,
            ..generous
        };
        let off = quiet_net();
        let res_off = MicroSim::new(topo, off, 11).run_round(&spec);
        let res_gen = MicroSim::new(topo, generous, 11).run_round(&spec);
        let res_starved = MicroSim::new(topo, starved, 11).run_round(&spec);
        assert_eq!(res_gen.round_latency_ns, res_off.round_latency_ns);
        assert!(
            res_starved.round_latency_ns > res_gen.round_latency_ns,
            "starved {} !> generous {}",
            res_starved.round_latency_ns,
            res_gen.round_latency_ns
        );
    }
}
