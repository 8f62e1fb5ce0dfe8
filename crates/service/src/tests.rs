use super::*;
use amr_core::policies::{Cplx, Hierarchical, Lpt};
use amr_workloads::random_refined_mesh;

fn mesh(seed: u64) -> AmrMesh {
    // Large enough that the generator's overshoot guard lets spheres
    // refine: below ~70 target blocks every seed yields the bare root grid
    // (and thus one shared fingerprint).
    random_refined_mesh(16, 6.0, seed)
}

fn spec(num_ranks: usize) -> SessionSpec {
    SessionSpec::tuned(num_ranks, Box::new(Lpt))
}

/// Sessions cross to pool workers because every field is `Send` by
/// construction — no wrapper, no `unsafe impl` — and the pooled
/// `Hierarchical` policy qualifies as a session policy.
#[test]
fn service_is_send_and_hierarchical_is_a_session_policy() {
    fn assert_send<T: Send>() {}
    assert_send::<Service>();
    assert_send::<Session>();
    let mut svc = Service::new(ServiceConfig::default());
    let policy: BoxedPolicy = Box::new(Hierarchical::new(2, 4));
    let id = svc.open_session(mesh(3), SessionSpec::tuned(8, policy));
    svc.submit(id, Request::Rebalance);
    assert_eq!(svc.drain(), 1);
    assert!(matches!(svc.responses(id)[0], Response::Rebalanced { .. }));
}

/// An id minted by another service (or any id past the slot table) reads
/// exactly like a closed session instead of indexing out of bounds.
#[test]
fn foreign_session_ids_read_as_closed() {
    let mut minting = Service::new(ServiceConfig::default());
    let ids: Vec<SessionId> = (0..3)
        .map(|s| minting.open_session(mesh(s), spec(8)))
        .collect();
    assert!(minting.submit(ids[0], Request::Rebalance));
    minting.drain();
    assert!(minting.close_session(ids[0]));
    assert_eq!(minting.cache_len(), 1);
    let mut empty = Service::new(ServiceConfig::default());
    for (svc, id) in [(&mut minting, ids[0]), (&mut empty, ids[2])] {
        assert!(svc.responses(id).is_empty());
        svc.clear_responses(id);
        assert!(svc.session_placement(id).is_none());
        assert_eq!(svc.session_blocks(id), 0);
        assert_eq!(svc.session_fingerprint(id), None);
        // Nothing queued, nothing parked, no counter moved — and a second
        // close of the same id is as inert as the first foreign one.
        let (stats, cached) = (svc.stats(), svc.cache_len());
        assert!(!svc.submit(id, Request::Rebalance));
        assert_eq!(svc.drain(), 0);
        assert!(!svc.close_session(id));
        assert!(!svc.close_session(id));
        assert_eq!((svc.stats(), svc.cache_len()), (stats, cached));
    }
    // The live sessions never noticed.
    assert!(minting.submit(ids[1], Request::Rebalance));
    assert_eq!(minting.drain(), 1);
}

/// `Simulate` resolves its graph from the session's kept topology: built
/// on first sight of a snapshot, patched by an `Adapt` that changed it,
/// taken otherwise — within a session and, through the LRU entry the engine
/// parks in, across a close and a reopen of the same shape.
#[test]
fn simulate_builds_a_snapshots_topology_once() {
    let mut svc = Service::new(ServiceConfig::default());
    let m = mesh(29);
    let simulate = Request::Simulate { steps: 2 };
    let counts = |svc: &Service| (svc.stats().topology_hits, svc.stats().topology_builds);

    let id = svc.open_session(m.clone(), spec(8));
    for req in [
        Request::Rebalance,
        simulate.clone(),
        simulate.clone(),
        Request::Adapt { front: 0.5 },
        simulate.clone(),
        simulate.clone(),
    ] {
        svc.submit(id, req);
    }
    svc.drain();
    assert!(matches!(
        svc.responses(id)[3],
        Response::Adapted { changed: true, .. }
    ));
    assert_eq!(counts(&svc), (3, 1), "build, hit, adapt patches, hit, hit");
    // The engine placed the pre-adapt epoch, the topology describes the
    // adapted one: the entry parks without it.
    svc.close_session(id);

    let id = svc.open_session(m.clone(), spec(8));
    assert_eq!(svc.stats().warm_hits, 1);
    svc.submit(id, simulate.clone());
    svc.submit(id, Request::Rebalance);
    svc.drain();
    assert_eq!(counts(&svc), (3, 2), "warm engine, no topology beside it");
    // Placed and simulated the same snapshot: both park in one entry.
    svc.close_session(id);
    assert_eq!(svc.cache_len(), 1);

    let id = svc.open_session(m, spec(8));
    svc.submit(id, simulate.clone());
    svc.drain();
    assert_eq!(counts(&svc), (4, 2), "reopened shape builds no CSR");
    let s = svc.stats();
    println!(
        "topology: {} hits / {} builds over {} Simulate requests",
        s.topology_hits,
        s.topology_builds,
        s.topology_hits + s.topology_builds
    );
}

/// `MeshFingerprint` hashes keys and rank count only, so a uniform mesh and
/// its periodic twin share an LRU entry. The parked topology must not be
/// taken for the twin: its identity is exact, the wrap changes the graph.
#[test]
fn periodic_twin_shares_the_engine_entry_but_not_the_topology() {
    use amr_mesh::{Dim, MeshConfig};
    let config = MeshConfig::from_cells(Dim::D3, (64, 64, 64), 2);
    let plain = AmrMesh::new(config.clone());
    let twin = AmrMesh::new(config.with_periodic());
    let mut svc = Service::new(ServiceConfig::default());

    let id = svc.open_session(plain, spec(8));
    svc.submit(id, Request::Rebalance);
    svc.submit(id, Request::Simulate { steps: 3 });
    svc.drain();
    svc.close_session(id);
    assert_eq!(
        (svc.stats().topology_hits, svc.stats().topology_builds),
        (0, 1)
    );

    let id = svc.open_session(twin.clone(), spec(8));
    assert_eq!(svc.stats().warm_hits, 1, "one fingerprint, one entry");
    svc.submit(id, Request::Simulate { steps: 3 });
    svc.drain();
    assert_eq!(
        (svc.stats().topology_hits, svc.stats().topology_builds),
        (0, 2),
        "the non-periodic CSR is not the twin's"
    );

    let mut costs = Vec::new();
    session_costs(twin.num_blocks(), &mut costs);
    let mut workload = EpochWorkload {
        mesh: &twin,
        costs: &costs,
        steps: 3,
    };
    let direct =
        MacroSim::new(SimConfig::tuned(8)).run(&mut workload, &Lpt, RebalanceTrigger::OnMeshChange);
    assert_eq!(
        svc.responses(id)[0],
        Response::Simulated {
            total_ns: direct.total_ns,
            steps: 3,
            lb_invocations: direct.lb_invocations,
        }
    );
}

#[test]
fn fifo_order_and_mixed_traffic_in_one_batch() {
    let mut svc = Service::new(ServiceConfig::default());
    let id = svc.open_session(mesh(7), spec(8));
    svc.submit(id, Request::Rebalance);
    svc.submit(id, Request::Adapt { front: 0.45 });
    svc.submit(id, Request::Rebalance);
    svc.submit(id, Request::Simulate { steps: 4 });
    svc.submit(
        id,
        Request::Query(QuerySpec {
            phase: Some(Phase::Compute),
            ..QuerySpec::default()
        }),
    );
    assert_eq!(svc.drain(), 5);
    let r = svc.responses(id);
    assert_eq!(r.len(), 5, "one response per request, in order");
    assert!(
        matches!(r[0], Response::Rebalanced { warm: false, .. }),
        "first placement is cold: {:?}",
        r[0]
    );
    assert!(matches!(r[1], Response::Adapted { .. }));
    assert!(
        matches!(r[2], Response::Rebalanced { warm: true, .. }),
        "second placement rides the primed engine: {:?}",
        r[2]
    );
    assert!(matches!(r[3], Response::Simulated { steps: 4, .. }));
    assert!(
        matches!(r[4], Response::Queried { count, .. } if count > 0),
        "tuned sim records compute telemetry: {:?}",
        r[4]
    );
    // Drained queue: nothing left to serve.
    assert_eq!(svc.drain(), 0);
}

#[test]
fn query_before_simulate_fails_without_killing_the_session() {
    let mut svc = Service::new(ServiceConfig::default());
    let id = svc.open_session(mesh(11), spec(8));
    svc.submit(id, Request::Query(QuerySpec::default()));
    svc.submit(id, Request::Rebalance);
    svc.drain();
    let r = svc.responses(id);
    assert!(matches!(&r[0], Response::Failed { error } if error.contains("Simulate")));
    assert!(matches!(r[1], Response::Rebalanced { .. }));
}

#[test]
fn invalid_sim_config_fails_the_request_not_the_process() {
    type Edit = fn(&mut SimConfig);
    let cases: [(&str, Edit); 4] = [
        ("bytes_per_ns", |c| c.network.fabric.bytes_per_ns = 0.0),
        // All three once passed validation and then panicked the whole
        // drain inside the run's constructors.
        ("cost_alpha", |c| c.cost_alpha = 0.0),
        ("telemetry_sampling", |c| c.telemetry_sampling = 0),
        ("num_shards", |c| c.num_shards = usize::MAX),
    ];
    for (field, edit) in cases {
        let mut svc = Service::new(ServiceConfig::default());
        let mut bad = spec(8);
        edit(&mut bad.sim);
        let id = svc.open_session(mesh(3), bad);
        svc.submit(id, Request::Simulate { steps: 2 });
        svc.submit(id, Request::Rebalance);
        svc.drain();
        let r = svc.responses(id);
        assert!(
            matches!(&r[0], Response::Failed { error } if error.contains(field)),
            "hardened constructor surfaces the rejection: {:?}",
            r[0]
        );
        assert!(
            matches!(r[1], Response::Rebalanced { .. }),
            "session lives on"
        );
        svc.submit(id, Request::Rebalance);
        svc.drain();
        assert!(
            matches!(svc.responses(id)[2], Response::Rebalanced { .. }),
            "{field}: the session is served at the next drain"
        );
    }
}

#[test]
fn zero_rank_session_fails_rebalance_gracefully() {
    let mut svc = Service::new(ServiceConfig::default());
    let id = svc.open_session(
        mesh(5),
        SessionSpec {
            num_ranks: 0,
            policy: Box::new(Lpt),
            sim: SimConfig::tuned(8),
        },
    );
    svc.submit(id, Request::Rebalance);
    svc.drain();
    assert!(matches!(svc.responses(id)[0], Response::Failed { .. }));
}

#[test]
fn lru_evicts_oldest_and_refills_warm() {
    let mut svc = Service::new(ServiceConfig {
        engine_cache_capacity: 2,
        ..ServiceConfig::default()
    });
    let meshes = [mesh(101), mesh(202), mesh(303)];
    let mut fps = [0u64; 3];
    // Open → rebalance → close each shape once: cache fills to [0, 1],
    // then shape 2 evicts shape 0.
    for (i, m) in meshes.iter().enumerate() {
        let id = svc.open_session(m.clone(), spec(8));
        fps[i] = svc.session_fingerprint(id).unwrap();
        svc.submit(id, Request::Rebalance);
        svc.drain();
        svc.close_session(id);
    }
    assert_ne!(fps[0], fps[1]);
    assert_ne!(fps[1], fps[2]);
    assert_eq!(svc.cache_len(), 2);
    assert!(!svc.cache_contains(fps[0]), "oldest fingerprint evicted");
    assert!(svc.cache_contains(fps[1]) && svc.cache_contains(fps[2]));
    assert_eq!(svc.stats().warm_hits, 0);
    assert_eq!(svc.stats().cold_misses, 3);

    // Evicted fingerprint → cold path again.
    let id = svc.open_session(meshes[0].clone(), spec(8));
    assert_eq!(svc.stats().cold_misses, 4);
    svc.submit(id, Request::Rebalance);
    svc.drain();
    assert!(
        matches!(
            svc.responses(id)[0],
            Response::Rebalanced { warm: false, .. }
        ),
        "evicted shape pays the cold path"
    );
    svc.close_session(id); // re-parks shape 0, evicting shape 1

    // Re-inserted fingerprint → warm path, and the warm placement is
    // bitwise identical to the cold one it replaced.
    let id = svc.open_session(meshes[0].clone(), spec(8));
    assert_eq!(svc.stats().warm_hits, 1);
    svc.submit(id, Request::Rebalance);
    svc.drain();
    let warm_resp = svc.responses(id)[0].clone();
    assert!(
        matches!(warm_resp, Response::Rebalanced { warm: true, .. }),
        "refilled shape rides the warm engine: {warm_resp:?}"
    );
    let warm_placement = svc.session_placement(id).unwrap().clone();

    // Direct cold reference for the same epoch.
    let mut costs = Vec::new();
    session_costs(meshes[0].num_blocks(), &mut costs);
    let mut engine = PlacementEngine::new();
    engine
        .rebalance_with(&Lpt, &costs, 8, Some(&meshes[0]), None)
        .unwrap();
    assert_eq!(
        warm_placement.as_slice(),
        engine.placement().unwrap().as_slice(),
        "warm-cache placement is bitwise identical to a cold engine's"
    );
}

#[test]
fn unplaced_sessions_do_not_pollute_the_cache() {
    let mut svc = Service::new(ServiceConfig::default());
    let id = svc.open_session(mesh(17), spec(8));
    svc.close_session(id);
    assert_eq!(svc.cache_len(), 0, "no primed placement, nothing to park");
}

#[test]
fn adapt_after_rebalance_parks_under_the_placed_fingerprint() {
    let mut svc = Service::new(ServiceConfig::default());
    let m = mesh(23);
    let id = svc.open_session(m.clone(), spec(8));
    let placed_fp = svc.session_fingerprint(id).unwrap();
    svc.submit(id, Request::Rebalance);
    svc.submit(id, Request::Adapt { front: 0.5 });
    svc.drain();
    let adapted_fp = svc.session_fingerprint(id).unwrap();
    assert!(
        matches!(
            svc.responses(id)[1],
            Response::Adapted { changed: true, .. }
        ),
        "front sweep must change the mesh for this test to bite"
    );
    assert_ne!(placed_fp, adapted_fp);
    svc.close_session(id);
    // The engine's placement solves the *pre-adapt* epoch; it parks under
    // that fingerprint, not the adapted one.
    assert!(svc.cache_contains(placed_fp));
    assert!(!svc.cache_contains(adapted_fp));
    // And the original shape checks it back out warm.
    svc.open_session(m, spec(8));
    assert_eq!(svc.stats().warm_hits, 1);
}

#[test]
fn batched_drain_is_bitwise_identical_to_serial_at_any_thread_count() {
    // Six sessions with distinct shapes, policies and traffic mixes; the
    // whole batch drains in one dispatch. Responses must not depend on the
    // worker count.
    fn run(threads: usize) -> Vec<Vec<Response>> {
        let mut svc = Service::new(ServiceConfig {
            threads,
            ..ServiceConfig::default()
        });
        let ids: Vec<SessionId> = (0..6)
            .map(|i| {
                let policy: BoxedPolicy = if i % 2 == 0 {
                    Box::new(Lpt)
                } else {
                    Box::new(Cplx::new(50))
                };
                svc.open_session(
                    mesh(1000 + i as u64),
                    SessionSpec {
                        num_ranks: 8 + 4 * (i % 3),
                        policy,
                        sim: SimConfig::tuned(8 + 4 * (i % 3)),
                    },
                )
            })
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            svc.submit(id, Request::Rebalance);
            if i % 2 == 0 {
                svc.submit(
                    id,
                    Request::Adapt {
                        front: 0.4 + 0.05 * i as f64,
                    },
                );
                svc.submit(id, Request::Rebalance);
            }
            svc.submit(
                id,
                Request::Simulate {
                    steps: 2 + (i as u64 % 3),
                },
            );
            svc.submit(id, Request::Query(QuerySpec::default()));
        }
        svc.drain();
        ids.iter().map(|&id| svc.responses(id).to_vec()).collect()
    }
    let serial = run(1);
    for threads in [2, 4] {
        assert_eq!(run(threads), serial, "threads={threads}");
    }
}
