//! Golden telemetry fixture: the event table a run hands back, and what the
//! read side makes of it, pinned bit for bit.
//!
//! The constants were captured on the last commit whose `Collector` pushed a
//! row per measurement and sorted the whole table in `finish()`, and whose
//! views and group-bys walked `BTreeMap`s a row at a time. They pin what
//! that pipeline produced so the column-at-a-time rewrite (sealed steps, a
//! packed-key `sort_canonical`, whole-column codec, one-pass views) is
//! checked against numbers rather than against a second copy of the code.
//!
//! Pinned per run: the row count and FNV-1a hashes of `codec::encode` of the
//! table, of `views::stragglers_by_step`, `views::phase_fractions`,
//! `Query::by_step` and `Query::per_rank_secs` (floats by `to_bits`).
//!
//! Two runs, one per ingest shape:
//!
//! * `throttled_static` — 1024 ranks, a throttled node, per-block rows on
//!   every step, fault-oblivious, so it never rebalances mid-run and its
//!   table is a pure function of virtual time: hashed as is.
//! * `sedov_sampled` — the Table I 512-rank Sedov blast at sampling 16. Its
//!   `Redistribution` rows carry the *host* wall clock of the rebalance
//!   (`redist_per_rank += wall`), so their durations differ run to run on
//!   any commit; they are zeroed before hashing. The row itself (step, rank,
//!   moved blocks, shipped bytes) is virtual and stays in.

use amr_core::policies::{Cplx, Lpt, PlacementPolicy};
use amr_core::RebalanceTrigger;
use amr_mesh::AmrMesh;
use amr_sim::{
    FaultEpisode, FaultResponse, FaultTimeline, MacroSim, SimConfig, Workload, WorkloadStep,
};
use amr_telemetry::{codec, views, EventTable, Phase, Query};
use amr_workloads::{random_refined_mesh, SedovScenario};

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn eat(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Everything a run pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Bits {
    rows: usize,
    encoded: u64,
    stragglers: u64,
    fractions: u64,
    by_step: u64,
    per_rank_secs: u64,
}

impl Bits {
    fn of(table: &EventTable, ranks: usize) -> Bits {
        let mut encoded = Fnv::new();
        encoded.bytes(codec::encode(table).as_ref());

        let mut stragglers = Fnv::new();
        for e in views::stragglers_by_step(table) {
            stragglers.eat(e.step as u64);
            stragglers.eat(e.rank as u64);
            stragglers.eat(e.max_compute_ns);
            stragglers.eat(e.mean_compute_ns.to_bits());
            stragglers.eat(e.imbalance.to_bits());
        }

        let mut fractions = Fnv::new();
        for (phase, share) in views::phase_fractions(table) {
            fractions.eat(phase.code() as u64);
            fractions.eat(share.to_bits());
        }

        let mut by_step = Fnv::new();
        for (step, g) in Query::new(table).by_step() {
            by_step.eat(step as u64);
            by_step.eat(g.count as u64);
            by_step.eat(g.total_duration_ns);
            by_step.eat(g.max_duration_ns);
            by_step.eat(g.total_msg_count);
            by_step.eat(g.total_msg_bytes);
            for d in &g.durations {
                by_step.eat(d.to_bits());
            }
        }

        let mut per_rank_secs = Fnv::new();
        for secs in Query::new(table).phase(Phase::Compute).per_rank_secs(ranks) {
            per_rank_secs.eat(secs.to_bits());
        }

        Bits {
            rows: table.len(),
            encoded: encoded.0,
            stragglers: stragglers.0,
            fractions: fractions.0,
            by_step: by_step.0,
            per_rank_secs: per_rank_secs.0,
        }
    }
}

/// A mesh that never adapts, with mildly skewed per-block costs.
struct Static {
    mesh: AmrMesh,
    costs: Vec<f64>,
    steps: u64,
}

impl Workload for Static {
    fn mesh(&self) -> &AmrMesh {
        &self.mesh
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

fn run(cfg: SimConfig, workload: &mut dyn Workload, policy: &dyn PlacementPolicy) -> EventTable {
    MacroSim::new(cfg)
        .run(workload, policy, RebalanceTrigger::OnMeshChange)
        .telemetry
}

/// 1024 ranks, node 1 throttled 4× (NIC at 0.1) on steps [8, 16) of 24,
/// per-block telemetry on every step, no fault response.
fn throttled_static() -> Bits {
    const RANKS: usize = 1024;
    let mut cfg = SimConfig::tuned(RANKS);
    cfg.seed = 0x7E1E;
    cfg.telemetry_sampling = 1;
    cfg.per_block_telemetry = true;
    cfg.faults = FaultTimeline::with_episode(
        FaultEpisode::throttle(8, 16, [1], 4.0).with_nic_degradation(0.1),
    );
    cfg.fault_response = FaultResponse::Oblivious;
    let mesh = random_refined_mesh(RANKS, 1.6, 0x5EED);
    let costs = (0..mesh.num_blocks())
        .map(|i| 1.0e6 * (1.0 + 0.37 * (i % 13) as f64))
        .collect();
    let mut workload = Static {
        mesh,
        costs,
        steps: 24,
    };
    let table = run(cfg, &mut workload, &Lpt);
    assert!(
        !table.phases().contains(&Phase::Redistribution.code()),
        "an oblivious static run never rebalances mid-run"
    );
    Bits::of(&table, RANKS)
}

/// The Table I 512-rank Sedov blast under CPLX-50 at sampling 16, with the
/// host-wall `Redistribution` durations zeroed.
fn sedov_sampled() -> Bits {
    const RANKS: usize = 512;
    let mut cfg = SimConfig::tuned(RANKS);
    cfg.seed = 0x5ED0;
    cfg.telemetry_sampling = 16;
    let mut workload = SedovScenario::for_ranks(RANKS, 200).workload();
    let table = run(cfg, &mut workload, &Cplx::new(50));
    let mut redist_rows = 0;
    let masked: EventTable = table
        .iter()
        .map(|mut row| {
            if row.phase == Phase::Redistribution {
                row.duration_ns = 0;
                redist_rows += 1;
            }
            row
        })
        .collect();
    assert!(redist_rows > 0, "the blast rebalances on sampled steps");
    Bits::of(&masked, RANKS)
}

#[test]
fn throttled_static_run_matches_golden_bits() {
    let want = Bits {
        rows: 132_216,
        encoded: 0x348a59ddfa59d678,
        stragglers: 0x62ab523fb2592e58,
        fractions: 0x097bdb403a7b132f,
        by_step: 0xe8b814e3717ac8f8,
        per_rank_secs: 0x9f8a590fd4c847fa,
    };
    let got = throttled_static();
    assert_eq!(got, want, "throttled_static diverged: got {got:#x?}");
}

#[test]
fn sedov_sampled_run_matches_golden_bits() {
    let want = Bits {
        rows: 19_476,
        encoded: 0x9d820e85cecd3734,
        stragglers: 0x9e515e8661774012,
        fractions: 0x858e14bb540538bf,
        by_step: 0xb261c50ee5036a19,
        per_rank_secs: 0x60049029ce23a44b,
    };
    let got = sedov_sampled();
    assert_eq!(got, want, "sedov_sampled diverged: got {got:#x?}");
}
