//! Fault injection: the fail-slow hardware and OS-noise behaviors the paper
//! had to diagnose before placement work could start (§IV-A).
//!
//! * **Thermal throttling** — whole nodes compute slower by a factor
//!   (the paper measured ≈4×), affecting all 16 ranks of the node at once.
//!   This cluster signature is what [`crate::health`] and
//!   `amr_telemetry::anomaly::detect_throttling` look for.
//! * **OS jitter** — small multiplicative noise on every compute kernel,
//!   always present even on healthy nodes (Petrini et al.'s classic
//!   "missing supercomputer performance").
//!
//! Faults are *dynamic*: the paper's fail-slow nodes appeared mid-campaign,
//! not at job launch. A [`FaultTimeline`] layers step-bounded
//! [`FaultEpisode`]s (onset/recovery, throttle factor, optional degraded-NIC
//! bandwidth) on top of a static base [`FaultConfig`]; the simulator samples
//! the active multiplier per step, so a run can start healthy, degrade at
//! one-third, and recover at two-thirds — the scenario the online detection
//! loop ([`crate::health`], `amr_telemetry::anomaly`) has to catch.

use rand::Rng;
use std::collections::BTreeSet;

/// Static fault-injection configuration: node throttling that holds for the
/// whole run, plus ever-present OS jitter. For mid-run onset/recovery wrap
/// it in a [`FaultTimeline`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Nodes whose ranks compute `throttle_factor`× slower.
    pub throttled_nodes: BTreeSet<usize>,
    /// Compute-time inflation on throttled nodes (the paper observed ~4×).
    pub throttle_factor: f64,
    /// Uniform multiplicative compute jitter half-width: each kernel's time
    /// is scaled by `1 + U(-jitter, +jitter)`.
    pub compute_jitter: f64,
}

/// A derived `Default` would zero `throttle_factor`, making any node listed
/// in `throttled_nodes` compute in *zero* time — the opposite of a fault.
/// The default is the healthy configuration instead.
impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig::healthy()
    }
}

impl FaultConfig {
    /// No faults, light OS jitter — the post-§IV "tuned and healthy" state.
    pub fn healthy() -> FaultConfig {
        FaultConfig {
            throttled_nodes: BTreeSet::new(),
            throttle_factor: 1.0,
            compute_jitter: 0.02,
        }
    }

    /// Throttle the given nodes at the paper's observed 4× inflation.
    pub fn with_throttled_nodes(nodes: impl IntoIterator<Item = usize>) -> FaultConfig {
        FaultConfig {
            throttled_nodes: nodes.into_iter().collect(),
            throttle_factor: 4.0,
            ..FaultConfig::healthy()
        }
    }

    /// Compute-time multiplier for a rank on `node`, sampling jitter from
    /// `rng`.
    pub fn compute_multiplier<R: Rng>(&self, node: usize, rng: &mut R) -> f64 {
        let base = if self.throttled_nodes.contains(&node) {
            self.throttle_factor
        } else {
            1.0
        };
        apply_jitter(base, self.compute_jitter, rng)
    }

    /// Any node-level faults configured?
    pub fn any_throttled(&self) -> bool {
        !self.throttled_nodes.is_empty() && self.throttle_factor > 1.0
    }

    /// Reject configurations that would deflate compute time or poison the
    /// cost model with non-finite multipliers. Struct-literal construction
    /// bypasses the constructor asserts; this is the boundary check the
    /// simulator applies before a run starts.
    pub fn validate(&self) -> Result<(), String> {
        if !self.throttle_factor.is_finite() || self.throttle_factor < 1.0 {
            return Err(format!(
                "throttle_factor must be finite and >= 1 (got {})",
                self.throttle_factor
            ));
        }
        if !self.compute_jitter.is_finite() || !(0.0..1.0).contains(&self.compute_jitter) {
            return Err(format!(
                "compute_jitter must be finite and in [0, 1) (got {})",
                self.compute_jitter
            ));
        }
        Ok(())
    }
}

/// Scale `base` by one jitter draw (shared by the static and timeline paths
/// so both consume the RNG identically).
#[inline]
fn apply_jitter<R: Rng>(base: f64, jitter: f64, rng: &mut R) -> f64 {
    if jitter > 0.0 {
        base * (1.0 + rng.gen_range(-jitter..jitter))
    } else {
        base
    }
}

/// How the simulated run reacts when the online detector flags a node
/// (§IV-A's operational spectrum, from ignoring the fault to blacklisting
/// the machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultResponse {
    /// Ignore detector verdicts; placement stays fault-oblivious.
    #[default]
    Oblivious,
    /// Feed measured per-rank speeds into the placement engine as
    /// capacities, so slow nodes receive proportionally less work.
    Reweight,
    /// Blacklist flagged nodes and re-host their ranks on spare machines
    /// (charging the state migration as fabric traffic); falls back to
    /// [`FaultResponse::Reweight`] when the spare pool is exhausted.
    PruneAndMigrate,
}

/// One step-bounded fault episode: the named nodes degrade at `onset_step`
/// and recover at `recovery_step` (exclusive; `u64::MAX` = never).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEpisode {
    /// First step (inclusive) on which the episode is active.
    pub onset_step: u64,
    /// First step on which the nodes are healthy again (exclusive bound).
    pub recovery_step: u64,
    /// Nodes affected while the episode is active.
    pub nodes: BTreeSet<usize>,
    /// Compute-time inflation on the affected nodes (≥ 1; the paper's
    /// thermal throttling was ≈4×).
    pub throttle_factor: f64,
    /// Multiplier on the affected nodes' fabric bandwidth (≤ 1.0; 1.0 means
    /// the NIC is unaffected). Applied in the `NetworkConfig` dispatch /
    /// service path for messages touching these nodes.
    pub nic_bandwidth_mult: f64,
}

impl FaultEpisode {
    /// A pure compute-throttle episode (NIC unaffected).
    pub fn throttle(
        onset_step: u64,
        recovery_step: u64,
        nodes: impl IntoIterator<Item = usize>,
        throttle_factor: f64,
    ) -> FaultEpisode {
        assert!(
            onset_step < recovery_step,
            "episode must have positive span"
        );
        assert!(throttle_factor >= 1.0, "throttle factor must be >= 1");
        FaultEpisode {
            onset_step,
            recovery_step,
            nodes: nodes.into_iter().collect(),
            throttle_factor,
            nic_bandwidth_mult: 1.0,
        }
    }

    /// Add NIC degradation to the episode (`mult` in (0, 1]).
    pub fn with_nic_degradation(mut self, mult: f64) -> FaultEpisode {
        assert!(
            mult > 0.0 && mult <= 1.0,
            "NIC multiplier must be in (0, 1]"
        );
        self.nic_bandwidth_mult = mult;
        self
    }

    /// Boundary check for episodes built via struct literals (which skip the
    /// constructor asserts): spans must be positive, throttle factors finite
    /// and >= 1, and the NIC multiplier finite in (0, 1]. A multiplier of 0
    /// would drive fabric bandwidth to zero and saturate every allreduce.
    pub fn validate(&self) -> Result<(), String> {
        if self.onset_step >= self.recovery_step {
            return Err(format!(
                "episode span [{}, {}) is empty",
                self.onset_step, self.recovery_step
            ));
        }
        if !self.throttle_factor.is_finite() || self.throttle_factor < 1.0 {
            return Err(format!(
                "episode throttle_factor must be finite and >= 1 (got {})",
                self.throttle_factor
            ));
        }
        if !self.nic_bandwidth_mult.is_finite()
            || self.nic_bandwidth_mult <= 0.0
            || self.nic_bandwidth_mult > 1.0
        {
            return Err(format!(
                "episode nic_bandwidth_mult must be finite and in (0, 1] (got {})",
                self.nic_bandwidth_mult
            ));
        }
        Ok(())
    }

    /// Is the episode active at `step`?
    #[inline]
    pub fn active_at(&self, step: u64) -> bool {
        step >= self.onset_step && step < self.recovery_step
    }

    /// Does the episode degrade the named node at `step`?
    #[inline]
    pub fn affects(&self, step: u64, node: usize) -> bool {
        self.active_at(step) && self.nodes.contains(&node)
    }
}

/// Dynamic fault schedule for a simulated run: a static base config plus
/// step-bounded episodes. With no episodes this is exactly the base config
/// (same multipliers, same RNG consumption), so zero-fault runs reproduce
/// the static-fault behavior bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultTimeline {
    /// Faults present for the entire run (plus the jitter model).
    pub base: FaultConfig,
    /// Step-bounded degradation episodes layered on top.
    pub episodes: Vec<FaultEpisode>,
}

impl Default for FaultTimeline {
    fn default() -> FaultTimeline {
        FaultTimeline::healthy()
    }
}

impl From<FaultConfig> for FaultTimeline {
    fn from(base: FaultConfig) -> FaultTimeline {
        FaultTimeline {
            base,
            episodes: Vec::new(),
        }
    }
}

impl FaultTimeline {
    /// Healthy base, no episodes.
    pub fn healthy() -> FaultTimeline {
        FaultConfig::healthy().into()
    }

    /// Healthy base plus one episode.
    pub fn with_episode(episode: FaultEpisode) -> FaultTimeline {
        FaultTimeline {
            base: FaultConfig::healthy(),
            episodes: vec![episode],
        }
    }

    /// Append an episode.
    pub fn push_episode(&mut self, episode: FaultEpisode) -> &mut Self {
        self.episodes.push(episode);
        self
    }

    /// Validate the base config and every episode; see
    /// [`FaultEpisode::validate`]. Called by `SimConfig::validate` before a
    /// simulated run so degenerate multipliers are rejected up front rather
    /// than saturating the collective model mid-run.
    pub fn validate(&self) -> Result<(), String> {
        self.base.validate().map_err(|e| format!("base: {e}"))?;
        for (i, e) in self.episodes.iter().enumerate() {
            e.validate().map_err(|msg| format!("episode {i}: {msg}"))?;
        }
        Ok(())
    }

    /// No episodes scheduled: fault state is constant over the run.
    #[inline]
    pub fn is_static(&self) -> bool {
        self.episodes.is_empty()
    }

    /// Any fault at all (base or episodic)?
    pub fn any_faults(&self) -> bool {
        self.base.any_throttled()
            || self
                .episodes
                .iter()
                .any(|e| e.throttle_factor > 1.0 || e.nic_bandwidth_mult < 1.0)
    }

    /// Does any episode degrade NIC bandwidth? (Lets the simulator skip the
    /// per-rank bandwidth pass entirely on compute-only timelines.)
    pub fn any_nic_degradation(&self) -> bool {
        self.episodes.iter().any(|e| e.nic_bandwidth_mult < 1.0)
    }

    /// Compute-time multiplier for a rank on `node` at `step`, sampling
    /// jitter from `rng`. Consumes exactly one jitter draw — the same as the
    /// static [`FaultConfig::compute_multiplier`] — regardless of how many
    /// episodes are active.
    pub fn compute_multiplier<R: Rng>(&self, step: u64, node: usize, rng: &mut R) -> f64 {
        let mut base = if self.base.throttled_nodes.contains(&node) {
            self.base.throttle_factor
        } else {
            1.0
        };
        for e in &self.episodes {
            if e.affects(step, node) {
                base *= e.throttle_factor;
            }
        }
        apply_jitter(base, self.base.compute_jitter, rng)
    }

    /// NIC *slowdown* (≥ 1.0) for `node` at `step`: the reciprocal of the
    /// composed bandwidth multipliers of all active episodes naming the
    /// node. 1.0 when the NIC is healthy.
    pub fn nic_slowdown(&self, step: u64, node: usize) -> f64 {
        let mut bw = 1.0f64;
        for e in &self.episodes {
            if e.nic_bandwidth_mult < 1.0 && e.affects(step, node) {
                bw *= e.nic_bandwidth_mult;
            }
        }
        1.0 / bw
    }

    /// Nodes with an active compute throttle at `step` (base + episodes),
    /// collected into `out` (cleared, sorted, deduplicated).
    pub fn throttled_nodes_at(&self, step: u64, out: &mut Vec<usize>) {
        out.clear();
        if self.base.any_throttled() {
            out.extend(self.base.throttled_nodes.iter().copied());
        }
        for e in &self.episodes {
            if e.active_at(step) && e.throttle_factor > 1.0 {
                out.extend(e.nodes.iter().copied());
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Snapshot of the fault state at `step` as a static [`FaultConfig`]
    /// (compute throttling only; used by step-scoped health probes). The
    /// throttle factor is the maximum active factor — a probe cares about
    /// the worst case.
    pub fn config_at(&self, step: u64) -> FaultConfig {
        let mut cfg = self.base.clone();
        for e in &self.episodes {
            if e.active_at(step) && e.throttle_factor > 1.0 {
                cfg.throttled_nodes.extend(e.nodes.iter().copied());
                cfg.throttle_factor = cfg.throttle_factor.max(e.throttle_factor);
            }
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn healthy_multiplier_near_one() {
        let f = FaultConfig::healthy();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let m = f.compute_multiplier(3, &mut rng);
            assert!((0.9..1.1).contains(&m));
        }
        assert!(!f.any_throttled());
    }

    #[test]
    fn throttled_node_inflates() {
        let f = FaultConfig::with_throttled_nodes([2]);
        let mut rng = StdRng::seed_from_u64(2);
        let healthy = f.compute_multiplier(0, &mut rng);
        let slow = f.compute_multiplier(2, &mut rng);
        assert!(slow > 3.5 && slow < 4.5);
        assert!(healthy < 1.1);
        assert!(f.any_throttled());
    }

    #[test]
    fn zero_jitter_is_deterministic() {
        let f = FaultConfig {
            compute_jitter: 0.0,
            ..FaultConfig::with_throttled_nodes([1])
        };
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(f.compute_multiplier(1, &mut rng), 4.0);
        assert_eq!(f.compute_multiplier(0, &mut rng), 1.0);
    }

    /// Regression: the old derived `Default` yielded `throttle_factor: 0.0`,
    /// so a default config with `throttled_nodes` set made those nodes
    /// compute in zero time.
    #[test]
    fn default_is_healthy_not_zero_throttle() {
        let d = FaultConfig::default();
        assert_eq!(d, FaultConfig::healthy());
        assert_eq!(d.throttle_factor, 1.0);
        // Even if someone adds nodes to a default config, the multiplier
        // must never deflate compute time.
        let cfg = FaultConfig {
            throttled_nodes: [1].into_iter().collect(),
            compute_jitter: 0.0,
            ..FaultConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(cfg.compute_multiplier(1, &mut rng), 1.0);
        assert_eq!(FaultTimeline::default(), FaultTimeline::healthy());
    }

    #[test]
    fn empty_timeline_matches_static_config_bitwise() {
        let cfg = FaultConfig::with_throttled_nodes([1, 3]);
        let tl: FaultTimeline = cfg.clone().into();
        assert!(tl.is_static());
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for step in 0..20u64 {
            for node in 0..5 {
                let x = cfg.compute_multiplier(node, &mut a);
                let y = tl.compute_multiplier(step, node, &mut b);
                assert_eq!(x.to_bits(), y.to_bits(), "step {step} node {node}");
            }
        }
    }

    #[test]
    fn episode_bounds_are_half_open() {
        let tl = FaultTimeline::with_episode(FaultEpisode::throttle(10, 20, [2], 4.0));
        let mut rng = StdRng::seed_from_u64(5);
        // Kill jitter for exact checks.
        let mut tl = tl;
        tl.base.compute_jitter = 0.0;
        assert_eq!(tl.compute_multiplier(9, 2, &mut rng), 1.0);
        assert_eq!(tl.compute_multiplier(10, 2, &mut rng), 4.0);
        assert_eq!(tl.compute_multiplier(19, 2, &mut rng), 4.0);
        assert_eq!(tl.compute_multiplier(20, 2, &mut rng), 1.0);
        // Unaffected node stays healthy mid-episode.
        assert_eq!(tl.compute_multiplier(15, 0, &mut rng), 1.0);
        assert!(tl.any_faults());
        assert!(!tl.any_nic_degradation());
    }

    #[test]
    fn nic_degradation_composes_and_reports() {
        let mut tl = FaultTimeline::healthy();
        tl.push_episode(FaultEpisode::throttle(5, 15, [1], 4.0).with_nic_degradation(0.5));
        tl.push_episode(FaultEpisode::throttle(10, 20, [1], 1.0).with_nic_degradation(0.5));
        assert!(tl.any_nic_degradation());
        assert_eq!(tl.nic_slowdown(0, 1), 1.0);
        assert_eq!(tl.nic_slowdown(7, 1), 2.0);
        assert_eq!(tl.nic_slowdown(12, 1), 4.0); // both episodes active
        assert_eq!(tl.nic_slowdown(17, 1), 2.0);
        assert_eq!(tl.nic_slowdown(12, 0), 1.0); // other nodes unaffected
    }

    #[test]
    fn validate_rejects_degenerate_multipliers() {
        assert!(FaultTimeline::healthy().validate().is_ok());
        let mut tl = FaultTimeline::healthy();
        tl.push_episode(FaultEpisode::throttle(5, 15, [1], 4.0).with_nic_degradation(0.1));
        assert!(tl.validate().is_ok());

        // Struct-literal episode with a zeroed NIC multiplier: the PR-4
        // regression path that drove fabric bandwidth to 0 mid-run.
        let bad = FaultEpisode {
            onset_step: 0,
            recovery_step: 10,
            nodes: [1].into_iter().collect(),
            throttle_factor: 1.0,
            nic_bandwidth_mult: 0.0,
        };
        assert!(bad.validate().is_err());
        let mut tl = FaultTimeline::healthy();
        tl.push_episode(bad);
        assert!(tl.validate().unwrap_err().contains("nic_bandwidth_mult"));

        for factor in [0.5, 0.0, f64::NAN, f64::INFINITY] {
            let cfg = FaultConfig {
                throttle_factor: factor,
                ..FaultConfig::healthy()
            };
            assert!(cfg.validate().is_err(), "factor {factor} passed");
        }
        let cfg = FaultConfig {
            compute_jitter: 1.5,
            ..FaultConfig::healthy()
        };
        assert!(cfg.validate().is_err());
        let empty_span = FaultEpisode {
            recovery_step: 5,
            ..FaultEpisode::throttle(5, 6, [0], 2.0)
        };
        assert!(empty_span.validate().is_err());
    }

    #[test]
    fn throttled_nodes_at_merges_base_and_episodes() {
        let mut tl: FaultTimeline = FaultConfig::with_throttled_nodes([7]).into();
        tl.push_episode(FaultEpisode::throttle(3, 6, [2, 4], 4.0));
        let mut out = vec![99; 4]; // stale pooled buffer
        tl.throttled_nodes_at(0, &mut out);
        assert_eq!(out, vec![7]);
        tl.throttled_nodes_at(4, &mut out);
        assert_eq!(out, vec![2, 4, 7]);
        let snap = tl.config_at(4);
        assert_eq!(
            snap.throttled_nodes.iter().copied().collect::<Vec<_>>(),
            vec![2, 4, 7]
        );
        assert_eq!(snap.throttle_factor, 4.0);
    }
}
