//! `fault_diagnose` — the telemetry workload, write beside read: a 1024-rank
//! static mesh with node 1 throttled 4× (NIC at 0.1) on steps [20, 40), run
//! fault-oblivious with per-block telemetry on every step, diagnosed from the
//! recorded table, then re-run with `FaultResponse::Reweight`.
//!
//! Ingest happens inside the two simulator runs; scans, views, detectors,
//! the chunked store and the codec run outside them, on the table the first
//! run produced. A query speed-up bought with ingest-time indexing shows up
//! here as a slower `sim.run`.

use super::{
    mix, probe_engine, probe_mesh_delta, sim_exact, skewed_costs, virt_ns, BenchWorkload, Outcome,
    StaticWorkload, MESH_SEED,
};
use crate::spans;
use crate::timed::{hash_bytes, PlaceStats, TimedPolicy};
use amr_core::{Lpt, RebalanceTrigger};
use amr_sim::{FaultEpisode, FaultResponse, FaultTimeline, MacroSim, RunReport, SimConfig};
use amr_telemetry::anomaly::{detect_throttling, detect_wait_spikes};
use amr_telemetry::{codec, views, ChunkedStore, EventTable, Phase, Predicate, Query};
use amr_workloads::random_refined_mesh;
use std::sync::Arc;

const RANKS: usize = 1024;
const RANKS_PER_NODE: usize = 16;
const STEPS: u64 = 60;
const ONSET: u64 = 20;
const RECOVERY: u64 = 40;
const FAULTY_NODE: usize = 1;
const CHUNK_ROWS: usize = 4096;
/// Full passes over the table inside the `telemetry.query` span.
const QUERY_SCANS: usize = 5;

pub struct FaultDiagnose;

/// What the diagnosis battery found, kept for `outcome` and `verify`.
#[derive(Default)]
struct Diagnosis {
    throttled_nodes: Vec<usize>,
    slow_ranks: usize,
    steps_seen: usize,
    phases_seen: usize,
    summary_rows: usize,
    summary_ns: u64,
    stragglers: usize,
    imbalance_points: usize,
    fraction_sum: f64,
    wait_spikes: usize,
    chunks: usize,
    chunks_pruned: usize,
    scan_rows: usize,
    /// The codec's own buffer, held without copying or naming its type.
    encoded: Option<Box<dyn AsRef<[u8]>>>,
    decoded: Option<EventTable>,
}

impl Diagnosis {
    fn encoded(&self) -> &[u8] {
        self.encoded.as_deref().map_or(&[], AsRef::as_ref)
    }
}

pub struct Inputs {
    sims: [MacroSim; 2],
    workloads: [StaticWorkload; 2],
    place: Arc<PlaceStats>,
    oblivious: Option<RunReport>,
    mitigated: Option<RunReport>,
    diagnosis: Diagnosis,
}

fn config(seed: u64, response: FaultResponse) -> SimConfig {
    let mut cfg = SimConfig::tuned(RANKS);
    cfg.seed = mix(seed, 5);
    cfg.telemetry_sampling = 1;
    cfg.per_block_telemetry = true;
    cfg.faults = FaultTimeline::with_episode(
        FaultEpisode::throttle(ONSET, RECOVERY, [FAULTY_NODE], 4.0).with_nic_degradation(0.1),
    );
    cfg.fault_response = response;
    cfg
}

fn diagnose(table: &EventTable) -> Diagnosis {
    let mut d = Diagnosis::default();
    let (per_rank, sync_waits) = {
        let _s = spans::span("telemetry.query");
        let per_rank = Query::new(table)
            .phase(Phase::Compute)
            .step_range(ONSET as u32, RECOVERY as u32)
            .per_rank_secs(RANKS);
        d.steps_seen = Query::new(table).by_step().len();
        d.phases_seen = Query::new(table).by_phase().len();
        let summary = Query::new(table).summary();
        d.summary_rows = summary.count;
        d.summary_ns = summary.total_duration_ns;
        let sync_waits = Query::new(table).phase(Phase::Synchronization).durations();
        (per_rank, sync_waits)
    };
    {
        let _s = spans::span("telemetry.detect");
        let report = detect_throttling(&per_rank, RANKS_PER_NODE, 2.0, 0.75);
        d.throttled_nodes = report.throttled_nodes;
        d.slow_ranks = report.slow_ranks.len();
        d.wait_spikes = detect_wait_spikes(&sync_waits, 3.0).spikes.len();
    }
    {
        let _s = spans::span("telemetry.views");
        d.stragglers = views::stragglers_by_step(table).len();
        d.imbalance_points = views::imbalance_series(table).len();
        d.fraction_sum = views::phase_fractions(table).values().sum();
    }
    let store = {
        let _s = spans::span("telemetry.chunk_build");
        ChunkedStore::build(table, CHUNK_ROWS)
    };
    {
        let _s = spans::span("telemetry.chunk_scan");
        let scan = store.scan(&Predicate {
            step: Some((ONSET as u32, RECOVERY as u32 - 1)),
            rank: Some((
                (FAULTY_NODE * RANKS_PER_NODE) as u32,
                ((FAULTY_NODE + 1) * RANKS_PER_NODE - 1) as u32,
            )),
            phase: Some(Phase::Compute),
            ..Predicate::default()
        });
        d.chunks = store.num_chunks();
        d.chunks_pruned = scan.chunks_pruned;
        d.scan_rows = scan.rows.len();
    }
    let encoded = {
        let _s = spans::span("telemetry.encode");
        codec::encode(table)
    };
    d.decoded = Some({
        let _s = spans::span("telemetry.decode");
        codec::decode(&encoded).expect("decode of a fresh encode")
    });
    d.encoded = Some(Box::new(encoded));
    d
}

fn tables_equal(a: &EventTable, b: &EventTable) -> bool {
    a.steps() == b.steps()
        && a.ranks() == b.ranks()
        && a.blocks() == b.blocks()
        && a.phases() == b.phases()
        && a.durations() == b.durations()
        && a.msg_counts() == b.msg_counts()
        && a.msg_bytes() == b.msg_bytes()
}

impl BenchWorkload for FaultDiagnose {
    type Inputs = Inputs;

    fn rounds_per_second(&self) -> f64 {
        6.7
    }

    fn setup(&self, seed: u64) -> Inputs {
        let mesh = {
            let _s = spans::span("workloads.meshgen");
            random_refined_mesh(RANKS, 1.6, MESH_SEED)
        };
        let twin = {
            let _s = spans::span("mesh.clone");
            mesh.clone()
        };
        let workload = |mesh: amr_mesh::AmrMesh| StaticWorkload {
            costs: skewed_costs(mesh.num_blocks()),
            mesh,
            steps: STEPS,
        };
        let sims = {
            let _s = spans::span("sim.new");
            [
                MacroSim::new(config(seed, FaultResponse::Oblivious)),
                MacroSim::new(config(seed, FaultResponse::Reweight)),
            ]
        };
        Inputs {
            sims,
            workloads: [workload(mesh), workload(twin)],
            place: Arc::new(PlaceStats::default()),
            oblivious: None,
            mitigated: None,
            diagnosis: Diagnosis::default(),
        }
    }

    fn pass(&self, inputs: &mut Inputs) {
        let policy = TimedPolicy::new(Lpt, inputs.place.clone());
        let [sim_a, sim_b] = &mut inputs.sims;
        let [w_a, w_b] = &mut inputs.workloads;
        let oblivious = {
            let _s = spans::span("sim.run");
            sim_a.run(w_a, &policy, RebalanceTrigger::OnMeshChange)
        };
        inputs.diagnosis = diagnose(&oblivious.telemetry);
        inputs.oblivious = Some(oblivious);
        let _s = spans::span("sim.run");
        inputs.mitigated = Some(sim_b.run(w_b, &policy, RebalanceTrigger::OnMeshChange));
    }

    fn outcome(&self, inputs: &Inputs) -> Outcome {
        let oblivious = inputs.oblivious.as_ref().expect("pass ran");
        let mitigated = inputs.mitigated.as_ref().expect("pass ran");
        let d = &inputs.diagnosis;
        let rows = oblivious.telemetry.len();
        let mut out = Outcome {
            // Both runs: the spread of the mitigated run alone across jitter
            // seeds (±3 %: the online detector's onset step moves) would set
            // the bound of `virt_ms` for every workload.
            virt_ns: virt_ns(oblivious) + virt_ns(mitigated),
            place: inputs.place.snapshot(),
            rank_steps: (RANKS as u64 * (oblivious.steps + mitigated.steps)) as f64,
            rows_scanned: (rows * QUERY_SCANS) as f64,
            ..Outcome::default()
        };
        sim_exact(mitigated, &mut out.exact);
        out.exact.extend([
            ("mesh.blocks", inputs.workloads[0].mesh.num_blocks() as f64),
            (
                "sim.mitigation_gain_pct",
                100.0 * (1.0 - virt_ns(mitigated) / virt_ns(oblivious)),
            ),
            ("telemetry.rows", rows as f64),
            (
                "telemetry.chunks_pruned_share",
                crate::stats::ratio(d.chunks_pruned as f64, d.chunks as f64),
            ),
            ("telemetry.encoded_bytes", d.encoded().len() as f64),
        ]);
        out.extra.extend([
            ("oblivious.virt_ns", virt_ns(oblivious).to_bits()),
            ("mitigated.rows", mitigated.telemetry.len() as u64),
            ("encoded.hash", hash_bytes(d.encoded())),
            (
                "decoded.rows",
                d.decoded.as_ref().map_or(0, EventTable::len) as u64,
            ),
            ("diag.nodes", d.throttled_nodes.len() as u64),
            ("diag.slow_ranks", d.slow_ranks as u64),
            ("diag.wait_spikes", d.wait_spikes as u64),
            ("diag.stragglers", d.stragglers as u64),
            ("diag.summary_ns", d.summary_ns),
            ("diag.fraction_sum", d.fraction_sum.to_bits()),
            ("diag.scan_rows", d.scan_rows as u64),
        ]);
        out.virt_redist_ns = mitigated.phases.redist_ns;
        out
    }

    fn verify(&self, inputs: &Inputs, _outcome: &Outcome) -> Result<(), String> {
        let oblivious = inputs.oblivious.as_ref().ok_or("pass did not run")?;
        let mitigated = inputs.mitigated.as_ref().ok_or("pass did not run")?;
        let d = &inputs.diagnosis;
        if d.throttled_nodes != [FAULTY_NODE] {
            return Err(format!(
                "detector named nodes {:?}, the fault is on node {FAULTY_NODE}",
                d.throttled_nodes
            ));
        }
        if d.slow_ranks != RANKS_PER_NODE {
            return Err(format!("{} slow ranks on a 16-rank node", d.slow_ranks));
        }
        if virt_ns(mitigated) >= virt_ns(oblivious) {
            return Err("Reweight did not beat the oblivious run".into());
        }
        if mitigated.capacity_updates == 0 {
            return Err("the online detector never changed capacities".into());
        }
        let table = &oblivious.telemetry;
        let decoded = d.decoded.as_ref().ok_or("battery did not decode")?;
        if !tables_equal(table, decoded) {
            return Err("decode(encode(table)) differs from table".into());
        }
        if d.summary_rows != table.len()
            || d.steps_seen != STEPS as usize
            || d.imbalance_points != STEPS as usize
            || d.stragglers != STEPS as usize
            || d.phases_seen < 3
        {
            return Err("queries and views disagree with the table's shape".into());
        }
        if (d.fraction_sum - 1.0).abs() > 1e-9 {
            return Err(format!("phase fractions sum to {}", d.fraction_sum));
        }
        if d.chunks_pruned == 0 || d.scan_rows == 0 {
            return Err("the pruned scan pruned nothing or found nothing".into());
        }
        // Per-block compute rows of the faulty node's ranks in the window.
        let direct = Query::new(table)
            .phase(Phase::Compute)
            .step_range(ONSET as u32, RECOVERY as u32)
            .filter(|r| r.rank as usize / RANKS_PER_NODE == FAULTY_NODE)
            .count();
        if direct != d.scan_rows {
            return Err(format!(
                "pruned scan found {} rows, a full query {direct}",
                d.scan_rows
            ));
        }
        Ok(())
    }

    fn probe(&self, seed: u64) -> Vec<(&'static str, f64)> {
        let mut inputs = self.setup(seed);
        let w = &inputs.workloads[0];
        let graph = {
            let _s = spans::span("mesh.graph_build");
            w.mesh.neighbor_graph()
        };
        let changed = probe_mesh_delta(&w.mesh, &graph);
        probe_engine(&Lpt, &w.costs, RANKS, &w.mesh);
        // Ingest cost: the oblivious run with telemetry on, minus the same
        // run with telemetry off.
        let mut quiet_cfg = config(seed, FaultResponse::Oblivious);
        quiet_cfg.telemetry_sampling = 1_000_000;
        quiet_cfg.per_block_telemetry = false;
        let mut quiet = MacroSim::new(quiet_cfg);
        let [loud, _] = &mut inputs.sims;
        let [w_a, w_b] = &mut inputs.workloads;
        {
            let _s = spans::span("probe.sim_telemetry_on");
            loud.run(w_a, &Lpt, RebalanceTrigger::OnMeshChange);
        }
        {
            let _s = spans::span("probe.sim_telemetry_off");
            quiet.run(w_b, &Lpt, RebalanceTrigger::OnMeshChange);
        }
        vec![
            ("mesh.changed_blocks", changed),
            ("mesh.graph_relations", graph.total_relations() as f64),
        ]
    }
}
