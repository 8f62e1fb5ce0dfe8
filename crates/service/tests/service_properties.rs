//! Property: a session served through `amr-service` is **bitwise
//! identical** to driving the engine and `MacroSim` directly — placements
//! (rank assignments and makespan bits) and virtual times (`total_ns`
//! bits) — for arbitrary mixed request scripts, and batch service does not
//! depend on the worker count. Every script is split across a close and a
//! reopen of the same shape on one service, so the LRU entry (warm engine and
//! kept topology) is in play; the direct arm starts a fresh simulator there
//! and models which `Simulate` requests may take a kept CSR.

use amr_core::engine::MeshFingerprint;
use amr_core::trigger::RebalanceTrigger;
use amr_core::{Lpt, PlacementEngine};
use amr_mesh::AmrMesh;
use amr_service::{
    front_tag, session_costs, QuerySpec, Request, Response, Service, ServiceConfig, SessionSpec,
};
use amr_sim::{MacroSim, SimConfig, Workload, WorkloadStep};
use amr_telemetry::{EventTable, Phase, Query};
use amr_workloads::random_refined_mesh;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Rebalance,
    Adapt(f64),
    Simulate(u64),
    Query(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Rebalance),
        (0.35f64..0.65).prop_map(Op::Adapt),
        (1u64..=3).prop_map(Op::Simulate),
        (0u8..3).prop_map(Op::Query),
    ]
}

fn query_spec(k: u8) -> QuerySpec {
    match k {
        0 => QuerySpec::default(),
        1 => QuerySpec {
            phase: Some(Phase::Compute),
            ..QuerySpec::default()
        },
        _ => QuerySpec {
            step_range: Some((0, 2)),
            ..QuerySpec::default()
        },
    }
}

/// The direct (service-free) arm's workload: same shape as the service's
/// internal epoch workload.
struct DirectEpoch<'a> {
    mesh: &'a amr_mesh::AmrMesh,
    costs: &'a [f64],
    steps: u64,
}

impl Workload for DirectEpoch<'_> {
    fn mesh(&self) -> &amr_mesh::AmrMesh {
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

/// Serve `script[..split]` in one session over `first`, close it, reopen
/// over `reopened` (the same shape, as the first part's `Adapt`s left it)
/// and serve the rest. Returns every response in script order and the id of
/// the second session. `before_drain` runs once, ahead of the first drain.
fn serve_split(
    svc: &mut Service,
    (first, reopened): (&AmrMesh, &AmrMesh),
    ranks: usize,
    (script, split): (&[Op], usize),
    before_drain: impl FnOnce(&mut Service),
) -> (Vec<Response>, amr_service::SessionId) {
    let submit_all = |svc: &mut Service, id, ops: &[Op]| {
        for op in ops {
            let req = match op {
                Op::Rebalance => Request::Rebalance,
                Op::Adapt(front) => Request::Adapt { front: *front },
                Op::Simulate(steps) => Request::Simulate { steps: *steps },
                Op::Query(k) => Request::Query(query_spec(*k)),
            };
            assert!(svc.submit(id, req));
        }
    };
    let id = svc.open_session(first.clone(), SessionSpec::tuned(ranks, Box::new(Lpt)));
    submit_all(svc, id, &script[..split]);
    before_drain(svc);
    svc.drain();
    let mut responses = svc.responses(id).to_vec();
    assert!(svc.close_session(id));
    let id = svc.open_session(reopened.clone(), SessionSpec::tuned(ranks, Box::new(Lpt)));
    submit_all(svc, id, &script[split..]);
    svc.drain();
    responses.extend_from_slice(svc.responses(id));
    (responses, id)
}

proptest! {
    #[test]
    fn service_is_bitwise_identical_to_direct_calls(
        seed in 0u64..4,
        ranks_pick in 0usize..3,
        script in prop::collection::vec(op_strategy(), 1..7),
        split in 0usize..7,
    ) {
        let ranks = [8, 12, 16][ranks_pick];
        let split = split.min(script.len());
        let base_mesh = random_refined_mesh(16, 6.0, 100 + seed);
        let max_level = base_mesh.config().max_level;
        // The shape the first session holds when it closes.
        let mut reopened = base_mesh.clone();
        for op in &script[..split] {
            if let Op::Adapt(front) = op {
                reopened.adapt(|b| front_tag(b, *front, max_level));
            }
        }

        // ---- service arm -------------------------------------------------
        let mut svc = Service::new(ServiceConfig::default());
        let (responses, id) =
            serve_split(&mut svc, (&base_mesh, &reopened), ranks, (&script, split), |_| {});
        prop_assert_eq!(responses.len(), script.len());

        // ---- direct arm: raw engine / MacroSim / Query calls -------------
        let mut mesh = base_mesh.clone();
        let mut costs = Vec::new();
        session_costs(mesh.num_blocks(), &mut costs);
        let mut engine = PlacementEngine::new();
        let mut sim: Option<MacroSim> = None;
        let mut telemetry: Option<EventTable> = None;
        // What the service may keep: the fingerprint the engine last placed
        // (its LRU key) and whether a topology of the current mesh is held.
        let mut placed_fp: Option<MeshFingerprint> = None;
        let mut topology_held = false;
        let (mut hits, mut builds) = (0u64, 0u64);

        // `session_placement` reads post-drain state, so the slice compare
        // is only valid at the second session's *final* Rebalance.
        let last_rebalance = script
            .iter()
            .rposition(|op| matches!(op, Op::Rebalance))
            .filter(|&i| i >= split);
        for (i, (op, resp)) in script.iter().zip(&responses).enumerate() {
            if i == split {
                // Close and reopen: a new session has a new simulator and no
                // telemetry; it gets the engine back iff the LRU entry is
                // keyed by this very shape, and the topology with it iff it
                // was that shape's.
                sim = None;
                telemetry = None;
                if placed_fp != Some(MeshFingerprint::of_mesh(&mesh, ranks)) {
                    engine = PlacementEngine::new();
                    placed_fp = None;
                    topology_held = false;
                }
            }
            match op {
                Op::Rebalance => {
                    let report = engine
                        .rebalance_with(&Lpt, &costs, ranks, Some(&mesh), None)
                        .expect("direct rebalance");
                    let Response::Rebalanced { makespan, imbalance, moved, .. } = resp else {
                        panic!("expected Rebalanced, got {resp:?}");
                    };
                    prop_assert_eq!(makespan.to_bits(), report.makespan.to_bits());
                    prop_assert_eq!(imbalance.to_bits(), report.imbalance.to_bits());
                    prop_assert_eq!(
                        *moved,
                        report.migration.map_or(0, |m| m.moved as u64)
                    );
                    placed_fp = Some(MeshFingerprint::of_mesh(&mesh, ranks));
                    if Some(i) == last_rebalance {
                        let placement = svc.session_placement(id).expect("service placement");
                        prop_assert_eq!(
                            placement.as_slice(),
                            engine.placement().unwrap().as_slice(),
                            "service placement must be bitwise identical to the direct engine's"
                        );
                    }
                }
                Op::Adapt(front) => {
                    // A kept topology survives: the adapt patches it.
                    let changed = mesh.adapt(|b| front_tag(b, *front, max_level)).changed();
                    if changed {
                        session_costs(mesh.num_blocks(), &mut costs);
                    }
                    prop_assert_eq!(
                        resp,
                        &Response::Adapted { blocks: mesh.num_blocks(), changed }
                    );
                }
                Op::Simulate(steps) => {
                    let sim = sim.get_or_insert_with(|| {
                        MacroSim::try_new(SimConfig::tuned(ranks)).expect("tuned config valid")
                    });
                    let mut w = DirectEpoch { mesh: &mesh, costs: &costs, steps: *steps };
                    let report = sim
                        .try_run(&mut w, &Lpt, RebalanceTrigger::OnMeshChange)
                        .expect("direct run");
                    let Response::Simulated { total_ns, steps: s, lb_invocations } = resp else {
                        panic!("expected Simulated, got {resp:?}");
                    };
                    prop_assert_eq!(
                        total_ns.to_bits(),
                        report.total_ns.to_bits(),
                        "virtual time must be bitwise identical to the direct MacroSim run"
                    );
                    prop_assert_eq!(*s, *steps);
                    prop_assert_eq!(*lb_invocations, report.lb_invocations);
                    telemetry = Some(report.telemetry);
                    if topology_held {
                        hits += 1;
                    } else {
                        builds += 1;
                    }
                    topology_held = true;
                }
                Op::Query(k) => match &telemetry {
                    None => prop_assert!(
                        matches!(resp, Response::Failed { .. }),
                        "query before any simulate must fail: {:?}", resp
                    ),
                    Some(table) => {
                        let spec = query_spec(*k);
                        let mut q = Query::new(table);
                        if let Some(p) = spec.phase {
                            q = q.phase(p);
                        }
                        if let Some((lo, hi)) = spec.step_range {
                            q = q.step_range(lo, hi);
                        }
                        let s = q.summary();
                        prop_assert_eq!(
                            resp,
                            &Response::Queried {
                                count: s.count,
                                total_duration_ns: s.total_duration_ns,
                                max_duration_ns: s.max_duration_ns,
                            }
                        );
                    }
                },
            }
        }

        prop_assert_eq!(svc.session_blocks(id), mesh.num_blocks());
        // The kept topology was taken exactly where the model says a CSR of
        // the current snapshot was at hand, and built everywhere else.
        let stats = svc.stats();
        prop_assert_eq!((stats.topology_hits, stats.topology_builds), (hits, builds));

        // ---- thread-count independence -----------------------------------
        // The same script over a 4-thread service (alongside decoy sessions
        // so the batch actually parallelizes) yields identical responses.
        let mut svc4 = Service::new(ServiceConfig { threads: 4, ..ServiceConfig::default() });
        let (responses4, _) =
            serve_split(&mut svc4, (&base_mesh, &reopened), ranks, (&script, split), |svc4| {
                for i in 0..3 {
                    let decoy = svc4.open_session(
                        random_refined_mesh(16, 6.0, 200 + i),
                        SessionSpec::tuned(8, Box::new(Lpt)),
                    );
                    svc4.submit(decoy, Request::Rebalance);
                }
            });
        prop_assert_eq!(responses4, responses);
    }
}
