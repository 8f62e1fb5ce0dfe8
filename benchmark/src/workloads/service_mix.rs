//! `service_mix` — the same mesh/core/sim/telemetry layers used the opposite
//! way: 96 tiny (~100-block, cache-resident) shapes served through
//! `amr-service` in waves of open → submit → drain → close.
//!
//! Warm-engine LRU hits instead of cold solves, per-call overheads instead
//! of kernels: a gain on `static_scale` that adds per-call set-up cost loses
//! here. Set-up builds the shapes and fills the engine cache with one
//! all-cold wave; the pass is 16 warm waves.

use super::{
    mix, probe_engine, probe_mesh_delta, skewed_costs, BenchWorkload, Outcome, StaticWorkload,
    MESH_SEED,
};
use crate::spans;
use crate::timed::{fold, PlaceStats, TimedPolicy};
use amr_core::engine::PlacementEngine;
use amr_core::{Lpt, RebalanceTrigger};
use amr_mesh::AmrMesh;
use amr_service::{
    front_tag, QuerySpec, Request, Response, Service, ServiceConfig, ServiceStats, SessionId,
    SessionSpec,
};
use amr_sim::{MacroSim, SimConfig};
use amr_telemetry::{Phase, Query};
use amr_workloads::random_refined_mesh;
use std::sync::Arc;

const SHAPES: usize = 96;
const RANKS: usize = 16;
const WAVES: u64 = 16;
const SIM_STEPS: u64 = 2;
/// A shape that gets every request kind (`i % 3 == 0` and `i % 5 == 0`).
const FULL_MIX_SHAPE: usize = 0;
/// A shape that only rebalances, so it reopens warm from wave 2 on.
const WARM_SHAPE: usize = 1;

pub struct ServiceMix;

pub struct Inputs {
    shapes: Vec<AmrMesh>,
    service: Service,
    ids: Vec<SessionId>,
    place: Arc<PlaceStats>,
    /// Jitter seed of every session's simulator: what `--seed` drives here.
    sim_seed: u64,
    after_setup: ServiceStats,
    tally: Tally,
    /// The last wave's responses of the two shapes `verify` replays directly.
    full_mix: Vec<Response>,
    warm: Vec<Response>,
}

/// What the responses of a pass add up to.
#[derive(Default)]
struct Tally {
    hash: u64,
    requests: u64,
    failed: u64,
    simulated_ns: f64,
    latencies_ns: Vec<u64>,
}

impl Tally {
    fn fold(&mut self, words: [u64; 4]) {
        self.hash = words.into_iter().fold(self.hash, fold);
    }

    fn add(&mut self, response: &Response) {
        self.requests += 1;
        match *response {
            Response::Adapted { blocks, changed } => {
                self.fold([1, blocks as u64, changed as u64, 0])
            }
            Response::Rebalanced {
                makespan,
                imbalance,
                moved,
                warm,
            } => self.fold([
                2 + warm as u64 * 16,
                makespan.to_bits(),
                imbalance.to_bits(),
                moved,
            ]),
            Response::Simulated {
                total_ns,
                steps,
                lb_invocations,
            } => {
                self.simulated_ns += total_ns;
                self.fold([3, total_ns.to_bits(), steps, lb_invocations]);
            }
            Response::Queried {
                count,
                total_duration_ns,
                max_duration_ns,
            } => self.fold([4, count as u64, total_duration_ns, max_duration_ns]),
            Response::Failed { .. } => self.failed += 1,
        }
    }
}

fn front_of(wave: u64) -> f64 {
    0.35 + 0.04 * (wave % 8) as f64
}

const COMPUTE_QUERY: QuerySpec = QuerySpec {
    phase: Some(Phase::Compute),
    rank: None,
    step_range: None,
};

/// One wave: every shape opens a session, queues its traffic mix, the batch
/// drains in one dispatch, responses are tallied, every session closes
/// (parking its engine in the fingerprint LRU).
fn wave(inputs: &mut Inputs, wave: u64) {
    let Inputs {
        shapes,
        service,
        ids,
        place,
        sim_seed,
        tally,
        full_mix,
        warm,
        ..
    } = inputs;
    ids.clear();
    for (i, shape) in shapes.iter().enumerate() {
        let id = {
            let _s = spans::span("service.open");
            let mesh = {
                let _s = spans::span("mesh.clone");
                shape.clone()
            };
            let policy = Box::new(TimedPolicy::new(Lpt, place.clone()));
            let mut spec = SessionSpec::tuned(RANKS, policy);
            spec.sim.seed = *sim_seed;
            service.open_session(mesh, spec)
        };
        let _s = spans::span("service.submit");
        service.submit(id, Request::Rebalance);
        if i % 3 == 0 {
            service.submit(
                id,
                Request::Adapt {
                    front: front_of(wave),
                },
            );
            service.submit(id, Request::Rebalance);
        }
        if i % 5 == 0 {
            service.submit(id, Request::Simulate { steps: SIM_STEPS });
            service.submit(id, Request::Query(COMPUTE_QUERY));
        }
        ids.push(id);
    }
    {
        let _s = spans::span("service.drain");
        service.drain();
        service.take_latencies(&mut tally.latencies_ns);
    }
    {
        let _s = spans::span("bench.tally");
        for (i, &id) in ids.iter().enumerate() {
            let responses = service.responses(id);
            responses.iter().for_each(|r| tally.add(r));
            if wave == WAVES && i == FULL_MIX_SHAPE {
                *full_mix = responses.to_vec();
            }
            if wave == WAVES && i == WARM_SHAPE {
                *warm = responses.to_vec();
            }
        }
    }
    let _s = spans::span("service.close");
    for &id in ids.iter() {
        service.close_session(id);
    }
}

impl BenchWorkload for ServiceMix {
    type Inputs = Inputs;

    fn rounds_per_second(&self) -> f64 {
        7.2
    }

    fn setup(&self, seed: u64) -> Inputs {
        let shapes = {
            let _s = spans::span("workloads.meshgen");
            (0..SHAPES as u64)
                .map(|i| random_refined_mesh(RANKS, 6.0, MESH_SEED + i))
                .collect()
        };
        let mut inputs = Inputs {
            shapes,
            service: Service::new(ServiceConfig {
                threads: 1,
                engine_cache_capacity: SHAPES,
                session_queue_capacity: 8,
            }),
            ids: Vec::with_capacity(SHAPES),
            place: Arc::new(PlaceStats::default()),
            sim_seed: mix(seed, 6),
            after_setup: ServiceStats::default(),
            tally: Tally::default(),
            full_mix: Vec::new(),
            warm: Vec::new(),
        };
        {
            let _s = spans::span("service.cold_wave");
            wave(&mut inputs, 0);
        }
        // The pass starts from clean counters: the cold wave is set-up.
        inputs.after_setup = inputs.service.stats();
        inputs.place = Arc::new(PlaceStats::default());
        inputs.tally = Tally {
            latencies_ns: Vec::with_capacity(4096),
            ..Tally::default()
        };
        inputs
    }

    fn pass(&self, inputs: &mut Inputs) {
        for w in 1..=WAVES {
            wave(inputs, w);
        }
    }

    fn outcome(&self, inputs: &Inputs) -> Outcome {
        let now = inputs.service.stats();
        let then = inputs.after_setup;
        let opens = (now.warm_hits + now.cold_misses) - (then.warm_hits + then.cold_misses);
        let t = &inputs.tally;
        Outcome {
            virt_ns: t.simulated_ns,
            place: inputs.place.snapshot(),
            rank_steps: (RANKS as u64 * SIM_STEPS * WAVES * SHAPES.div_ceil(5) as u64) as f64,
            sessions: now.sessions_closed - then.sessions_closed,
            requests: t.requests,
            failed_requests: t.failed,
            latencies_ns: t.latencies_ns.clone(),
            exact: vec![
                (
                    "mesh.blocks",
                    inputs.shapes.iter().map(AmrMesh::num_blocks).sum::<usize>() as f64,
                ),
                (
                    "service.warm_hit_share",
                    crate::stats::ratio((now.warm_hits - then.warm_hits) as f64, opens as f64),
                ),
                ("service.failed_requests", t.failed as f64),
            ],
            extra: vec![
                ("responses.hash", t.hash),
                ("served", now.requests_served - then.requests_served),
                ("cache", inputs.service.cache_len() as u64),
            ],
            ..Outcome::default()
        }
    }

    fn verify(&self, inputs: &Inputs, outcome: &Outcome) -> Result<(), String> {
        if outcome.failed_requests != 0 {
            return Err(format!("{} requests failed", outcome.failed_requests));
        }
        if outcome.sessions != WAVES * SHAPES as u64
            || outcome.requests
                != inputs.service.stats().requests_served - inputs.after_setup.requests_served
            || outcome.latencies_ns.len() as u64 != outcome.requests
        {
            return Err("sessions, requests and latencies do not add up".into());
        }

        // Replay the last wave of the full-mix shape with direct calls.
        let mut mesh = inputs.shapes[FULL_MIX_SHAPE].clone();
        let mut costs = skewed_costs(mesh.num_blocks());
        let mut engine = PlacementEngine::new();
        let rebalanced = |engine: &mut PlacementEngine, mesh: &AmrMesh, costs: &[f64], warm| {
            let r = engine
                .rebalance_with(&Lpt, costs, RANKS, Some(mesh), None)
                .expect("direct placement");
            Response::Rebalanced {
                makespan: r.makespan,
                imbalance: r.imbalance,
                moved: r.migration.map_or(0, |m| m.moved as u64),
                warm,
            }
        };
        let first = rebalanced(&mut engine, &mesh, &costs, false);
        let max_level = mesh.config().max_level;
        let changed = mesh
            .adapt(|b| front_tag(b, front_of(WAVES), max_level))
            .changed();
        if changed {
            costs = skewed_costs(mesh.num_blocks());
        }
        let adapted = Response::Adapted {
            blocks: mesh.num_blocks(),
            changed,
        };
        let second = rebalanced(&mut engine, &mesh, &costs, true);
        let mut workload = StaticWorkload {
            mesh,
            costs,
            steps: SIM_STEPS,
        };
        let mut cfg = SimConfig::tuned(RANKS);
        cfg.seed = inputs.sim_seed;
        let report = MacroSim::new(cfg).run(&mut workload, &Lpt, RebalanceTrigger::OnMeshChange);
        let simulated = Response::Simulated {
            total_ns: report.total_ns,
            steps: SIM_STEPS,
            lb_invocations: report.lb_invocations,
        };
        let s = Query::new(&report.telemetry)
            .phase(Phase::Compute)
            .summary();
        let queried = Response::Queried {
            count: s.count,
            total_duration_ns: s.total_duration_ns,
            max_duration_ns: s.max_duration_ns,
        };
        let direct = [first, adapted, second, simulated, queried];
        if inputs.full_mix != direct {
            return Err(format!(
                "service responses {:?} differ from direct calls {direct:?}",
                inputs.full_mix
            ));
        }

        // A warm reopen must serve the placement a cold engine computes.
        let mesh = &inputs.shapes[WARM_SHAPE];
        let costs = skewed_costs(mesh.num_blocks());
        let mut engine = PlacementEngine::new();
        rebalanced(&mut engine, mesh, &costs, false);
        let again = rebalanced(&mut engine, mesh, &costs, true);
        if inputs.warm != [again.clone()] {
            return Err(format!(
                "warm session answered {:?}, a direct warm engine {again:?}",
                inputs.warm
            ));
        }
        Ok(())
    }

    fn probe(&self, _seed: u64) -> Vec<(&'static str, f64)> {
        let mesh = random_refined_mesh(RANKS, 6.0, MESH_SEED + FULL_MIX_SHAPE as u64);
        let graph = {
            let _s = spans::span("mesh.graph_build");
            mesh.neighbor_graph()
        };
        let changed = probe_mesh_delta(&mesh, &graph);
        probe_engine(&Lpt, &skewed_costs(mesh.num_blocks()), RANKS, &mesh);
        vec![
            ("mesh.changed_blocks", changed),
            ("mesh.graph_relations", graph.total_relations() as f64),
        ]
    }
}
