//! Golden virtual-time fixture: the reference for the simulator's rank-range
//! kernels at every thread count.
//!
//! The constants below were captured on the last commit that still carried a
//! separately maintained serial loop beside each pooled kernel (`threads ==
//! 1` ran the serial loops, `threads > 1` the `par.rs` mirrors); they pin
//! what that pair of implementations agreed on, bit for bit, so the collapse
//! to one kernel per phase is checked against numbers rather than against a
//! second copy of the code. Since the collapse, the inline single-task
//! schedule (`threads == 1`) is the reference for `threads > 1`, and this
//! file holds both to the same bits.
//!
//! Pinned per canned run: `f64::to_bits` of the virtual compute / comm /
//! sync phase totals, the message totals, `lb_invocations`,
//! `blocks_migrated`, and an FNV-1a hash of every telemetry row that is a
//! pure function of virtual time. `total_ns` / `redist_ns` (and the
//! `Redistribution` telemetry rows) are excluded: they charge the host wall
//! clock of placement computation, which no two runs share.
//!
//! The workload is self-contained (no `amr-workloads` dependency) so that
//! only a change to the simulator, the mesh or a placement policy can move
//! these numbers.

use amr_core::policies::{Lpt, Multilevel, PlacementPolicy};
use amr_core::RebalanceTrigger;
use amr_mesh::{AmrMesh, Dim, MeshBlock, MeshConfig, Octant, RefineTag};
use amr_sim::{
    CollectiveSelect, FaultConfig, FaultEpisode, FaultResponse, FaultTimeline, MacroSim,
    NetworkConfig, RunReport, SimConfig, Topology, Workload, WorkloadStep,
};
use amr_telemetry::Phase;

const RANKS: usize = 16;
const STEPS: u64 = 20;

/// splitmix64 finalizer: a fixed, seedless hash for tags and costs.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn octant_hash(o: &Octant, salt: u64) -> u64 {
    mix(mix(mix(mix(o.x as u64) ^ o.y as u64) ^ o.z as u64) ^ ((o.level as u64) << 32 | salt))
}

fn block_cost(b: &MeshBlock) -> f64 {
    1.0e6 * (1.0 + 0.5 * b.level() as f64 + 0.125 * (octant_hash(&b.octant, 0) % 8) as f64)
}

/// Canned workload: a 3D mesh with octant-hashed block costs that, every
/// `adapt_every` steps (0 = static), refines a hashed tenth of its blocks
/// and coarsens hashed sibling families — so refined meshes carry
/// fine→coarse faces (flux traffic) and every remesh carries its fate table.
struct Canned {
    mesh: AmrMesh,
    costs: Vec<f64>,
    adapt_every: u64,
}

impl Canned {
    fn new(cells: u32, adapt_every: u64) -> Canned {
        let mesh = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (cells, cells, cells), 2));
        let costs = mesh.blocks().iter().map(block_cost).collect();
        Canned {
            mesh,
            costs,
            adapt_every,
        }
    }
}

impl Workload for Canned {
    fn mesh(&self) -> &AmrMesh {
        &self.mesh
    }

    fn advance(&mut self, step: u64) -> WorkloadStep {
        if self.adapt_every == 0 || step == 0 || !step.is_multiple_of(self.adapt_every) {
            return WorkloadStep::default();
        }
        let changed = self
            .mesh
            .adapt(|b| {
                if octant_hash(&b.octant, step).is_multiple_of(10) {
                    return RefineTag::Refine;
                }
                // Siblings share a parent, hence a verdict: the family merges.
                let o = &b.octant;
                let parent = Octant {
                    level: o.level.saturating_sub(1),
                    x: o.x >> 1,
                    y: o.y >> 1,
                    z: o.z >> 1,
                };
                if o.level > 0 && octant_hash(&parent, step).is_multiple_of(3) {
                    RefineTag::Coarsen
                } else {
                    RefineTag::Keep
                }
            })
            .changed();
        if !changed {
            return WorkloadStep::default();
        }
        self.costs.clear();
        self.costs.extend(self.mesh.blocks().iter().map(block_cost));
        WorkloadStep { mesh_changed: true }
    }

    fn block_compute_ns(&self) -> &[f64] {
        &self.costs
    }

    fn total_steps(&self) -> u64 {
        STEPS
    }
}

/// Everything a canned run pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Bits {
    compute: u64,
    comm: u64,
    sync: u64,
    intra: u64,
    local: u64,
    remote: u64,
    lb_invocations: u64,
    blocks_migrated: u64,
    halo: u64,
    telemetry: u64,
}

/// `[compute, comm, sync]` phase bits, `[intra, local, remote]` messages,
/// then `lb_invocations`, `blocks_migrated`, `halo_exchange_ns` bits and the
/// telemetry hash.
const fn bits(
    phases: [u64; 3],
    msgs: [u64; 3],
    lb: u64,
    migrated: u64,
    halo: u64,
    telemetry: u64,
) -> Bits {
    Bits {
        compute: phases[0],
        comm: phases[1],
        sync: phases[2],
        intra: msgs[0],
        local: msgs[1],
        remote: msgs[2],
        lb_invocations: lb,
        blocks_migrated: migrated,
        halo,
        telemetry,
    }
}

impl Bits {
    fn of(rep: &RunReport) -> Bits {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            for byte in v.to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for row in rep.telemetry.iter() {
            if row.phase == Phase::Redistribution {
                continue; // carries placement host wall clock
            }
            eat(row.step as u64);
            eat(row.rank as u64);
            eat(row.block as u64);
            eat(row.phase as u64);
            eat(row.duration_ns);
            eat(row.msg_count as u64);
            eat(row.msg_bytes);
        }
        Bits {
            compute: rep.phases.compute_ns.to_bits(),
            comm: rep.phases.comm_ns.to_bits(),
            sync: rep.phases.sync_ns.to_bits(),
            intra: rep.messages.intra,
            local: rep.messages.local,
            remote: rep.messages.remote,
            lb_invocations: rep.lb_invocations,
            blocks_migrated: rep.blocks_migrated,
            halo: rep.halo_exchange_ns.to_bits(),
            telemetry: h,
        }
    }
}

/// One canned run: config tweak, workload shape, policy, trigger, and the
/// pinned bits.
struct Case {
    name: &'static str,
    cells: u32,
    adapt_every: u64,
    tweak: fn(&mut SimConfig),
    policy: fn() -> Box<dyn PlacementPolicy>,
    trigger: RebalanceTrigger,
    want: Bits,
}

fn lpt() -> Box<dyn PlacementPolicy> {
    Box::new(Lpt)
}

fn multilevel() -> Box<dyn PlacementPolicy> {
    Box::new(Multilevel::default())
}

fn midrun_fault(cfg: &mut SimConfig) {
    cfg.faults = FaultTimeline::with_episode(
        FaultEpisode::throttle(3, 10, [1], 3.0).with_nic_degradation(0.6),
    );
    cfg.fault_response = FaultResponse::Reweight;
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "static_flat",
            cells: 96,
            adapt_every: 0,
            tweak: |_| {},
            policy: lpt,
            trigger: RebalanceTrigger::MeshChangeOrImbalance(1.05),
            want: bits(
                [0x41b76fb29097b8d1, 0x4192943d04000000, 0x417cbfbee3000000],
                [13338, 45480, 173982],
                1,
                198,
                0x0000000000000000,
                0x0184dc75aca96fc9,
            ),
        },
        Case {
            name: "refining_flux",
            cells: 96,
            adapt_every: 3,
            tweak: |_| {},
            policy: lpt,
            trigger: RebalanceTrigger::OnMeshChange,
            want: bits(
                [0x41f5845418ec612f, 0x41d4ff645f600000, 0x41a473df80400000],
                [133110, 492759, 1974348],
                6,
                15004,
                0x0000000000000000,
                0xaa03891c35ac6ef1,
            ),
        },
        Case {
            name: "sharded_4",
            cells: 96,
            adapt_every: 3,
            tweak: |cfg| cfg.num_shards = 4,
            policy: lpt,
            trigger: RebalanceTrigger::OnMeshChange,
            want: bits(
                [0x41f5845418ec612f, 0x41d4ff645f600000, 0x41a473df80400000],
                [133110, 492759, 1974348],
                6,
                15004,
                0x40dc32cccccccccd,
                0xaa03891c35ac6ef1,
            ),
        },
        Case {
            name: "congested_adaptive",
            cells: 128,
            adapt_every: 4,
            tweak: |cfg| {
                cfg.network = NetworkConfig::congested();
                // A throttled node keeps the measured sync share high enough
                // for the selector and the sync-fraction trigger to act.
                cfg.faults = FaultConfig::with_throttled_nodes([1]).into();
                cfg.collectives = CollectiveSelect::Adaptive;
                cfg.collective_payload_bytes = 1 << 20;
            },
            policy: lpt,
            trigger: RebalanceTrigger::SyncFractionAbove(0.1),
            want: bits(
                [0x420ba7809e6345c6, 0x41ec83d2b3000000, 0x42125d21747f0000],
                [233658, 786174, 3136326],
                19,
                61086,
                0x0000000000000000,
                0xea81501549ffcfa6,
            ),
        },
        Case {
            name: "throttle_nic_reweight",
            cells: 96,
            adapt_every: 5,
            tweak: midrun_fault,
            policy: lpt,
            trigger: RebalanceTrigger::OnMeshChange,
            want: bits(
                [0x41e28db010fcc454, 0x41c2113db7800000, 0x41baf7ebc7300000],
                [55194, 229518, 870201],
                5,
                4747,
                0x0000000000000000,
                0xbc8e65033a10928c,
            ),
        },
        Case {
            name: "observed_multilevel",
            cells: 96,
            adapt_every: 4,
            tweak: |cfg| cfg.observe_exchange_bytes = true,
            policy: multilevel,
            trigger: RebalanceTrigger::Periodic(3),
            want: bits(
                [0x41ed028add8ee1ba, 0x41b659b7bd800000, 0x41bfbd082ba00000],
                [1063740, 120774, 587853],
                10,
                7733,
                0x0000000000000000,
                0x0322621a12fe9fff,
            ),
        },
        // Per-block telemetry feeds the detector's compute series as well as
        // the event table, so its record order is part of virtual time.
        Case {
            name: "per_block_telemetry_reweight",
            cells: 64,
            adapt_every: 5,
            tweak: |cfg| {
                midrun_fault(cfg);
                cfg.per_block_telemetry = true;
            },
            policy: lpt,
            trigger: RebalanceTrigger::OnMeshChange,
            want: bits(
                [0x41c75853a130af5c, 0x41a26ae0c5555556, 0x41a38b6b4e000000],
                [15570, 69546, 250725],
                5,
                1516,
                0x0000000000000000,
                0x2c3c1530430c5b8d,
            ),
        },
    ]
}

fn case(name: &str) -> Case {
    cases()
        .into_iter()
        .find(|c| c.name == name)
        .expect("case exists")
}

/// Run a case at `threads`, optionally re-tweaked; returns the report and
/// the ledger's observed byte total.
fn report(case: &Case, threads: usize, retweak: fn(&mut SimConfig)) -> (RunReport, u64) {
    let mut cfg = SimConfig::tuned(RANKS);
    cfg.topology = Topology::new(RANKS, 4);
    cfg.threads = threads;
    (case.tweak)(&mut cfg);
    retweak(&mut cfg);
    let mut workload = Canned::new(case.cells, case.adapt_every);
    let policy = (case.policy)();
    let mut sim = MacroSim::new(cfg);
    let rep = sim.run(&mut workload, policy.as_ref(), case.trigger);
    (rep, sim.exchange_ledger().observed_total())
}

fn run(case: &Case, threads: usize) -> Bits {
    Bits::of(&report(case, threads, |_| {}).0)
}

/// Every canned run reproduces its pinned bits at 1, 2, 3 and 4 threads
/// (3 does not divide the 16 ranks evenly, so ownership ranges are ragged).
#[test]
fn canned_runs_match_golden_bits_at_every_thread_count() {
    for case in cases() {
        for threads in [1usize, 2, 3, 4] {
            let got = run(&case, threads);
            assert_eq!(
                got, case.want,
                "{} diverged from its golden bits at {threads} threads: got {got:#x?}",
                case.name
            );
        }
    }
}

/// More threads than ranks: the task count clamps to the rank count and the
/// surplus workers idle, without moving a bit.
#[test]
fn more_threads_than_ranks_match_golden_bits() {
    let case = case("throttle_nic_reweight");
    let got = run(&case, RANKS + 5);
    assert_eq!(got, case.want, "got {got:#x?}");
}

/// The canned runs exercise what their names claim (guards against a fixture
/// that silently stops covering a path).
#[test]
fn canned_runs_cover_their_paths() {
    let (flux, _) = report(&case("refining_flux"), 1, |_| {});
    assert!(flux.mesh_change_steps >= 2 && flux.final_blocks != flux.initial_blocks);
    assert!(
        flux.telemetry
            .iter()
            .any(|r| r.phase == Phase::FluxCorrection),
        "refined mesh carries no flux traffic"
    );

    let (sharded, _) = report(&case("sharded_4"), 1, |_| {});
    assert!(sharded.halo_exchange_ns > 0.0 && sharded.final_halo_blocks > 0);

    let congested = case("congested_adaptive");
    let (jammed, _) = report(&congested, 1, |_| {});
    let (free, _) = report(&congested, 1, |cfg| cfg.network = NetworkConfig::tuned());
    assert!(
        jammed.phases.comm_ns > free.phases.comm_ns,
        "the credit window never filled"
    );
    assert!(
        jammed.lb_invocations > jammed.mesh_change_steps,
        "the sync-fraction trigger never fired"
    );
    let (fixed, _) = report(&congested, 1, |cfg| {
        cfg.collectives = CollectiveSelect::default()
    });
    // The selector moves only the post-arrival term of each collective, which
    // lands in `total_ns` (unpinned: it also carries placement wall clock).
    // Subtracting the redistribution share leaves the summed completions.
    let completions = |rep: &RunReport| rep.total_ns - rep.phases.redist_ns;
    assert!(
        completions(&jammed) < completions(&fixed),
        "the adaptive selector never left the binomial tree"
    );

    let (fault, _) = report(&case("throttle_nic_reweight"), 1, |_| {});
    assert!(fault.capacity_updates >= 2, "flag must rise and clear");

    let (_, observed) = report(&case("observed_multilevel"), 1, |_| {});
    assert!(observed > 0, "ledger never observed a byte");
}
