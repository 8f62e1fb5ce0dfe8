//! Communication cost model: shared-memory vs fabric paths, queue
//! contention, and the PSM ACK-recovery misbehavior.
//!
//! Parameters loosely calibrated to the paper's hardware — 40 Gbps QLogic
//! fabric (≈ 5 GB/s, microsecond-scale latency) and intra-node shared
//! memory — but what matters to the experiments is the *structure*:
//!
//! * local messages are cheaper than remote ones (locality matters);
//! * per-receiver shared-memory queues of finite depth cause nonlinear
//!   contention penalties when overflowed (the §IV-B "queue size tuning"
//!   example — an undersized preconfigured queue destroys the correlation
//!   between communication time and message volume, Fig. 1a);
//! * remote sends can, with small probability, hit a missing-ACK recovery
//!   path that blocks the *sender* in `MPI_Wait` for milliseconds (§IV-B
//!   "MPI_Wait spikes"); the paper's drain-queue mitigation makes the stall
//!   invisible to the sender.

/// Latency/bandwidth parameters for one communication path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathParams {
    /// One-way message latency (ns).
    pub latency_ns: u64,
    /// Sustained bandwidth in bytes per nanosecond (== GB/s).
    pub bytes_per_ns: f64,
}

impl PathParams {
    /// Pure transfer time of a payload on this path (latency + serialization).
    /// Saturating: a degenerate payload or bandwidth clamps to `u64::MAX`
    /// instead of overflowing past the `f64 -> u64` saturating cast.
    #[inline]
    pub fn transfer_ns(&self, bytes: u64) -> u64 {
        self.latency_ns
            .saturating_add((bytes as f64 / self.bytes_per_ns) as u64)
    }

    /// The same path with its bandwidth degraded to `bw_mult` of nominal
    /// (`0 < bw_mult <= 1`) — a fail-slow NIC negotiating a lower rate or
    /// burning cycles in firmware recovery, per the §IV-B pathologies.
    /// Latency is unchanged; only the serialization rate drops.
    #[must_use]
    pub fn degraded(&self, bw_mult: f64) -> PathParams {
        assert!(
            bw_mult > 0.0 && bw_mult <= 1.0,
            "bandwidth multiplier must be in (0, 1]"
        );
        PathParams {
            latency_ns: self.latency_ns,
            bytes_per_ns: self.bytes_per_ns * bw_mult,
        }
    }
}

/// Full network model configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    /// Intra-node shared-memory path.
    pub shm: PathParams,
    /// Inter-node fabric path.
    pub fabric: PathParams,
    /// Sender-side per-message dispatch overhead (posting the buffer), ns.
    pub send_overhead_ns: u64,
    /// Receiver-side per-message processing overhead, ns.
    pub recv_overhead_ns: u64,
    /// Depth of the per-receiver shared-memory queue. Messages beyond this
    /// many simultaneous shm arrivals pay `queue_overflow_penalty_ns` each.
    pub shm_queue_size: usize,
    /// Contention penalty per excess shm message (ns).
    pub queue_overflow_penalty_ns: u64,
    /// Probability that a remote send triggers the missing-ACK recovery path.
    pub ack_loss_prob: f64,
    /// Sender-side stall when recovery triggers (ns). The paper saw
    /// multi-millisecond stalls.
    pub ack_recovery_ns: u64,
    /// The paper's mitigation: a drain queue that transparently re-allocates
    /// the blocked request so the sender never stalls.
    pub drain_queue: bool,
    /// Outstanding-byte credit window per inter-node fabric link (directed
    /// node pair). A round's remote traffic on one link beyond this many
    /// in-flight bytes stalls for credit returns and pays the backed-off
    /// retransmit path — the finite-capacity mechanism behind the Fig. 7a
    /// large-scale inversion. `u64::MAX` disables the model entirely (the
    /// tuned/untuned defaults: the small-cluster fabrics of §IV never
    /// saturated).
    pub fabric_credit_bytes: u64,
    /// Congestion-window backoff factor: each byte past the credit window is
    /// re-serialized at `congestion_backoff ×` its nominal fabric cost
    /// (retransmit after the recovery handshake, layered on the same
    /// credit-starved path as the ACK-loss machinery). `0.0` keeps only the
    /// credit-return round-trip stalls.
    pub congestion_backoff: f64,
}

impl NetworkConfig {
    /// The *tuned* stack of §IV-B: generous shm queue, drain-queue
    /// mitigation enabled. With this configuration, communication time
    /// correlates cleanly with message volume.
    pub fn tuned() -> NetworkConfig {
        NetworkConfig {
            shm: PathParams {
                latency_ns: 400,
                bytes_per_ns: 10.0,
            },
            fabric: PathParams {
                latency_ns: 2_500,
                bytes_per_ns: 5.0,
            },
            send_overhead_ns: 1_500,
            recv_overhead_ns: 1_500,
            shm_queue_size: 64,
            queue_overflow_penalty_ns: 20_000,
            ack_loss_prob: 0.002,
            ack_recovery_ns: 5_000_000,
            drain_queue: true,
            fabric_credit_bytes: u64::MAX,
            congestion_backoff: 0.0,
        }
    }

    /// The *untuned* stack the paper started from: small preconfigured shm
    /// queue, no drain queue — both §IV-B pathologies active.
    pub fn untuned() -> NetworkConfig {
        NetworkConfig {
            shm_queue_size: 8,
            drain_queue: false,
            ..NetworkConfig::tuned()
        }
    }

    /// A saturated large-scale fabric: the tuned stack with finite per-link
    /// credits and retransmit backoff enabled. Dense traffic concentrated on
    /// few links (strict-locality placements funnel chunk-boundary exchange
    /// onto SFC-adjacent node pairs) exhausts the window and stalls; the
    /// same volume spread across many links stays under it. The window is
    /// sized against the per-link volumes of the Fig. 7a guard in
    /// `tests/behaviour_guards.rs` (see DESIGN.md §16).
    pub fn congested() -> NetworkConfig {
        NetworkConfig {
            fabric_credit_bytes: 2 << 20,
            congestion_backoff: 2.0,
            ..NetworkConfig::tuned()
        }
    }

    /// Boundary validation of every knob that can silently poison a run:
    /// degenerate bandwidths saturate collectives to `u64::MAX`, an
    /// out-of-range `ack_loss_prob` panics inside the RNG mid-round, a zero
    /// shm queue penalizes every local message, a zero credit window marks
    /// every remote byte congested, and an extreme `ack_recovery_ns` can
    /// overflow the per-rank stall accumulator. Called by
    /// [`SimConfig::validate`](crate::macrosim::SimConfig) (which prefixes
    /// `network.`) and [`MicroSim::new`](crate::microsim::MicroSim::new).
    pub fn validate(&self) -> Result<(), String> {
        for (name, path) in [("fabric", &self.fabric), ("shm", &self.shm)] {
            if !path.bytes_per_ns.is_finite() || path.bytes_per_ns <= 0.0 {
                return Err(format!(
                    "{name}.bytes_per_ns must be finite and > 0 (got {})",
                    path.bytes_per_ns
                ));
            }
        }
        if !self.ack_loss_prob.is_finite() || !(0.0..=1.0).contains(&self.ack_loss_prob) {
            return Err(format!(
                "ack_loss_prob must be a probability in [0, 1] (got {})",
                self.ack_loss_prob
            ));
        }
        // Headroom so thousands of per-round stalls can accumulate in a u64
        // without wrapping (the draw path adds, it doesn't saturate).
        if self.ack_recovery_ns > u64::MAX / 4096 {
            return Err(format!(
                "ack_recovery_ns is degenerate (got {}; max {})",
                self.ack_recovery_ns,
                u64::MAX / 4096
            ));
        }
        if self.shm_queue_size == 0 {
            return Err(
                "shm_queue_size must be >= 1 (a zero-depth queue penalizes every local message)"
                    .to_string(),
            );
        }
        if self.fabric_credit_bytes == 0 {
            return Err(
                "fabric_credit_bytes must be >= 1 (use u64::MAX to disable the credit model)"
                    .to_string(),
            );
        }
        if !self.congestion_backoff.is_finite() || self.congestion_backoff < 0.0 {
            return Err(format!(
                "congestion_backoff must be finite and >= 0 (got {})",
                self.congestion_backoff
            ));
        }
        Ok(())
    }

    /// Is the finite-credit congestion model active? The `u64::MAX` default
    /// window can never be exceeded, so the simulators skip the per-link
    /// bookkeeping entirely (and stay bit-identical to the pre-credit model).
    #[inline]
    pub fn congestion_enabled(&self) -> bool {
        self.fabric_credit_bytes != u64::MAX
    }

    /// Stall (ns) from pushing `outstanding_bytes` of one round's remote
    /// traffic through one fabric link under the credit window. Zero while
    /// the window holds. Past it, every exhausted window waits out a
    /// credit-return round trip (2 × fabric latency), and the excess bytes
    /// are retransmitted at `congestion_backoff ×` their nominal
    /// serialization cost. Saturating and strictly monotone (non-decreasing)
    /// in `outstanding_bytes` — pinned by a proptest.
    #[inline]
    pub fn congestion_ns(&self, outstanding_bytes: u64) -> u64 {
        let window = self.fabric_credit_bytes.max(1);
        let excess = outstanding_bytes.saturating_sub(window);
        if excess == 0 {
            return 0;
        }
        let credit_rtts = excess.div_ceil(window);
        let stall = credit_rtts.saturating_mul(self.fabric.latency_ns.saturating_mul(2));
        let retransmit = if self.congestion_backoff > 0.0 && self.fabric.bytes_per_ns > 0.0 {
            let ns = excess as f64 * self.congestion_backoff / self.fabric.bytes_per_ns;
            if ns >= u64::MAX as f64 {
                u64::MAX
            } else {
                ns as u64
            }
        } else {
            0
        };
        stall.saturating_add(retransmit)
    }

    /// Transfer time for a message between `src` and `dst` given locality.
    #[inline]
    pub fn transfer_ns(&self, bytes: u64, local: bool) -> u64 {
        if local {
            self.shm.transfer_ns(bytes)
        } else {
            self.fabric.transfer_ns(bytes)
        }
    }

    /// Sender dispatch cost for one message (independent of path; posting a
    /// nonblocking send is cheap either way, §II-B).
    #[inline]
    pub fn dispatch_ns(&self, bytes: u64) -> u64 {
        // Injection serializes at fabric bandwidth (worst case of the two).
        // Saturating: the cast clamps to u64::MAX on degenerate payloads and
        // the add must not wrap past it.
        self.send_overhead_ns
            .saturating_add((bytes as f64 / self.fabric.bytes_per_ns) as u64)
    }

    /// Intra-rank copy of one message: a memcpy at shared-memory bandwidth,
    /// no MPI involvement. Whole nanoseconds like every per-message term;
    /// the `f64 -> u64` cast saturates on degenerate payloads.
    #[inline]
    pub fn memcpy_ns(&self, bytes: u64) -> u64 {
        (bytes as f64 / self.shm.bytes_per_ns) as u64
    }

    /// Receiver-side service time for one message.
    #[inline]
    pub fn service_ns(&self, bytes: u64, local: bool) -> u64 {
        let bw = if local {
            self.shm.bytes_per_ns
        } else {
            self.fabric.bytes_per_ns
        };
        self.recv_overhead_ns
            .saturating_add((bytes as f64 / bw) as u64)
    }

    /// Total contention penalty for `shm_arrivals` simultaneous shm messages
    /// at one receiver.
    #[inline]
    pub fn shm_contention_ns(&self, shm_arrivals: usize) -> u64 {
        let excess = shm_arrivals.saturating_sub(self.shm_queue_size);
        (excess as u64).saturating_mul(self.queue_overflow_penalty_ns)
    }

    /// This configuration with the *fabric* path degraded to `bw_mult` of
    /// nominal bandwidth (see [`PathParams::degraded`]); the shm path is
    /// untouched — intra-node copies don't ride the NIC. Used for static
    /// whole-run NIC degradation studies; per-node mid-run degradation is
    /// applied by the simulator from the fault timeline's episode
    /// multipliers.
    #[must_use]
    pub fn with_degraded_fabric(&self, bw_mult: f64) -> NetworkConfig {
        NetworkConfig {
            fabric: self.fabric.degraded(bw_mult),
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_cheaper_than_remote() {
        let n = NetworkConfig::tuned();
        let bytes = 20_480; // one face message
        assert!(n.transfer_ns(bytes, true) < n.transfer_ns(bytes, false));
    }

    #[test]
    fn transfer_scales_with_bytes() {
        let n = NetworkConfig::tuned();
        assert!(n.transfer_ns(1 << 20, false) > n.transfer_ns(1 << 10, false));
        // Latency floor for tiny messages.
        assert!(n.transfer_ns(1, false) >= n.fabric.latency_ns);
    }

    #[test]
    fn untuned_has_small_queue_and_no_drain() {
        let u = NetworkConfig::untuned();
        let t = NetworkConfig::tuned();
        assert!(u.shm_queue_size < t.shm_queue_size);
        assert!(!u.drain_queue && t.drain_queue);
    }

    #[test]
    fn contention_kicks_in_past_queue_size() {
        let n = NetworkConfig::untuned();
        assert_eq!(n.shm_contention_ns(n.shm_queue_size), 0);
        assert_eq!(
            n.shm_contention_ns(n.shm_queue_size + 3),
            3 * n.queue_overflow_penalty_ns
        );
    }

    #[test]
    fn memcpy_truncates_to_whole_nanoseconds_and_saturates() {
        let n = NetworkConfig::tuned();
        assert_eq!(n.memcpy_ns(1001), 100);
        assert_eq!(n.memcpy_ns(20_480), 2_048);
        let crawl = NetworkConfig {
            shm: PathParams {
                latency_ns: 400,
                bytes_per_ns: 1.0e-6,
            },
            ..n
        };
        assert_eq!(crawl.memcpy_ns(u64::MAX), u64::MAX);
    }

    #[test]
    fn service_time_positive() {
        let n = NetworkConfig::tuned();
        assert!(n.service_ns(0, true) >= n.recv_overhead_ns);
        assert!(n.dispatch_ns(0) >= n.send_overhead_ns);
    }

    #[test]
    fn degraded_fabric_slows_remote_only() {
        let n = NetworkConfig::tuned();
        let d = n.with_degraded_fabric(0.5);
        assert_eq!(d.fabric.bytes_per_ns, n.fabric.bytes_per_ns * 0.5);
        assert_eq!(d.fabric.latency_ns, n.fabric.latency_ns);
        assert_eq!(d.shm, n.shm);
        let bytes = 1 << 20;
        assert!(d.transfer_ns(bytes, false) > n.transfer_ns(bytes, false));
        assert_eq!(d.transfer_ns(bytes, true), n.transfer_ns(bytes, true));
        // Full multiplier is the identity.
        assert_eq!(n.with_degraded_fabric(1.0), n);
    }

    #[test]
    #[should_panic(expected = "bandwidth multiplier must be in")]
    fn rejects_zero_bandwidth_multiplier() {
        let _ = NetworkConfig::tuned().with_degraded_fabric(0.0);
    }

    #[test]
    fn default_stacks_have_congestion_disabled() {
        // The committed baselines rest on this: tuned/untuned price remote
        // traffic with the flat model, so every pre-existing virtual time is
        // bit-identical with the credit machinery merged.
        for n in [NetworkConfig::tuned(), NetworkConfig::untuned()] {
            assert_eq!(n.fabric_credit_bytes, u64::MAX);
            assert_eq!(n.congestion_ns(0), 0);
            assert_eq!(n.congestion_ns(u64::MAX), 0);
        }
        assert!(NetworkConfig::congested().fabric_credit_bytes < u64::MAX);
    }

    #[test]
    fn congestion_zero_within_window_then_grows() {
        let n = NetworkConfig::congested();
        let w = n.fabric_credit_bytes;
        assert_eq!(n.congestion_ns(0), 0);
        assert_eq!(n.congestion_ns(w), 0);
        let one_over = n.congestion_ns(w + 1);
        assert!(one_over >= 2 * n.fabric.latency_ns, "missing credit RTT");
        let two_windows = n.congestion_ns(3 * w);
        assert!(two_windows > one_over);
        // Backoff contributes: doubling it raises the stall for the same
        // excess.
        let harsher = NetworkConfig {
            congestion_backoff: 2.0 * n.congestion_backoff,
            ..n
        };
        assert!(harsher.congestion_ns(3 * w) > two_windows);
    }

    #[test]
    fn congestion_saturates_on_degenerate_extremes() {
        let n = NetworkConfig {
            fabric_credit_bytes: 1,
            congestion_backoff: f64::MAX,
            ..NetworkConfig::tuned()
        };
        assert_eq!(n.congestion_ns(u64::MAX), u64::MAX);
    }

    #[test]
    fn transfer_dispatch_service_saturate_at_max_payload() {
        // A crawling path makes u64::MAX bytes serialize past u64::MAX ns:
        // the f64 -> u64 cast saturates and the overhead add must not wrap
        // (debug panic / release wraparound before the fix).
        let crawl = PathParams {
            latency_ns: 2_500,
            bytes_per_ns: 1.0e-6,
        };
        assert_eq!(crawl.transfer_ns(u64::MAX), u64::MAX);
        let n = NetworkConfig {
            fabric: crawl,
            shm: PathParams {
                latency_ns: 400,
                bytes_per_ns: 1.0e-6,
            },
            ..NetworkConfig::tuned()
        };
        assert_eq!(n.transfer_ns(u64::MAX, true), u64::MAX);
        assert_eq!(n.transfer_ns(u64::MAX, false), u64::MAX);
        assert_eq!(n.dispatch_ns(u64::MAX), u64::MAX);
        assert_eq!(n.service_ns(u64::MAX, true), u64::MAX);
        assert_eq!(n.service_ns(u64::MAX, false), u64::MAX);
        // Sane payloads on the tuned stack are unaffected by the clamps.
        let t = NetworkConfig::tuned();
        assert_eq!(
            t.dispatch_ns(1 << 20),
            t.send_overhead_ns + ((1u64 << 20) as f64 / t.fabric.bytes_per_ns) as u64
        );
    }

    #[test]
    fn shm_contention_saturates_at_max_arrivals() {
        // usize::MAX arrivals overflow the excess * penalty multiply unless
        // it saturates.
        let n = NetworkConfig::tuned();
        assert!(n.queue_overflow_penalty_ns > 1);
        assert_eq!(n.shm_contention_ns(usize::MAX), u64::MAX);
        // Still exact in the sane regime.
        assert_eq!(
            n.shm_contention_ns(n.shm_queue_size + 2),
            2 * n.queue_overflow_penalty_ns
        );
    }

    #[test]
    fn validate_accepts_all_presets() {
        for n in [
            NetworkConfig::tuned(),
            NetworkConfig::untuned(),
            NetworkConfig::congested(),
        ] {
            n.validate().unwrap();
        }
    }

    #[test]
    fn validate_rejects_degenerate_knobs() {
        let t = NetworkConfig::tuned();
        let cases: Vec<(NetworkConfig, &str)> = vec![
            (
                NetworkConfig {
                    ack_loss_prob: 1.5,
                    ..t
                },
                "ack_loss_prob",
            ),
            (
                NetworkConfig {
                    ack_loss_prob: f64::NAN,
                    ..t
                },
                "ack_loss_prob",
            ),
            (
                NetworkConfig {
                    ack_recovery_ns: u64::MAX,
                    ..t
                },
                "ack_recovery_ns",
            ),
            (
                NetworkConfig {
                    shm_queue_size: 0,
                    ..t
                },
                "shm_queue_size",
            ),
            (
                NetworkConfig {
                    fabric_credit_bytes: 0,
                    ..t
                },
                "fabric_credit_bytes",
            ),
            (
                NetworkConfig {
                    congestion_backoff: -1.0,
                    ..t
                },
                "congestion_backoff",
            ),
            (
                NetworkConfig {
                    congestion_backoff: f64::INFINITY,
                    ..t
                },
                "congestion_backoff",
            ),
        ];
        for (cfg, needle) in cases {
            let err = cfg.validate().unwrap_err();
            assert!(err.contains(needle), "{err} does not mention {needle}");
        }
    }
}
