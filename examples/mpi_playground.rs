//! The event-driven MPI engine, hands on.
//!
//! ```text
//! cargo run --release --example mpi_playground
//! ```
//!
//! Builds explicit per-rank programs for the nonblocking engine
//! (`Isend`/`Irecv`/`WaitAll`/`Barrier`), demonstrating: a boundary-exchange
//! compiled from a real mesh + placement, the cost of the untuned task
//! order, and the engine's error detection: deadlock, barrier mismatch, and
//! a peer rank outside the world.

use amr_tools::placement::policies::{Baseline, PlacementPolicy};
use amr_tools::sim::mpi::{MpiError, MpiWorld, Op};
use amr_tools::sim::{NetworkConfig, Topology};
use amr_tools::workloads::exchange::build_mpi_programs;
use amr_tools::workloads::random_refined_mesh;

fn main() {
    let ranks = 64;
    let net = NetworkConfig {
        ack_loss_prob: 0.0,
        ..NetworkConfig::tuned()
    };
    let mut world = MpiWorld::new(Topology::paper(ranks), net);

    // 1. A real boundary exchange: mesh -> placement -> per-rank programs.
    let mesh = random_refined_mesh(ranks, 1.6, 21);
    let placement = Baseline.place(&vec![1.0; mesh.num_blocks()], ranks);
    let compute: Vec<u64> = (0..ranks as u64).map(|r| 300_000 + r * 17_000).collect();

    let sends_first = build_mpi_programs(&mesh, &placement, &compute, true);
    let ops: usize = sends_first.iter().map(|p| p.len()).sum();
    println!(
        "boundary exchange: {} blocks -> {} MPI ops across {ranks} ranks",
        mesh.num_blocks(),
        ops
    );
    let sf = world.run(sends_first).expect("exchange completes");
    let cf = world
        .run(build_mpi_programs(&mesh, &placement, &compute, false))
        .expect("exchange completes");
    println!(
        "sends-first : makespan {:.2} ms, total wait {:.2} ms",
        sf.makespan_ns as f64 / 1e6,
        sf.ranks.iter().map(|s| s.wait_ns).sum::<u64>() as f64 / 1e6
    );
    println!(
        "compute-first: makespan {:.2} ms, total wait {:.2} ms  <- the §IV-B bug",
        cf.makespan_ns as f64 / 1e6,
        cf.ranks.iter().map(|s| s.wait_ns).sum::<u64>() as f64 / 1e6
    );

    // 2. Deadlock detection: a circular wait with no sends in flight.
    let deadlock = vec![
        vec![
            Op::Irecv { src: 1, tag: 0 },
            Op::WaitAll,
            Op::Isend {
                dst: 1,
                tag: 0,
                bytes: 8,
            },
        ],
        vec![
            Op::Irecv { src: 0, tag: 0 },
            Op::WaitAll,
            Op::Isend {
                dst: 0,
                tag: 0,
                bytes: 8,
            },
        ],
    ];
    let mut small = MpiWorld::new(
        Topology::new(2, 1),
        NetworkConfig {
            ack_loss_prob: 0.0,
            ..NetworkConfig::tuned()
        },
    );
    match small.run(deadlock) {
        Err(MpiError::Deadlock { stuck_ranks }) => {
            println!(
                "\ncircular wait detected: ranks {stuck_ranks:?} blocked forever (as expected)"
            )
        }
        other => unreachable!("expected deadlock, got {other:?}"),
    }

    // 3. Barrier mismatch detection.
    let mismatch = vec![vec![Op::Barrier], vec![Op::Compute(10)]];
    match small.run(mismatch) {
        Err(MpiError::BarrierMismatch) => {
            println!("barrier entered by a strict subset of ranks: flagged (as expected)")
        }
        other => unreachable!("expected mismatch, got {other:?}"),
    }

    // 4. A peer outside the world is refused before the run starts, and the
    //    world stays usable.
    let stray = vec![vec![Op::Compute(10)], vec![Op::Irecv { src: 5, tag: 0 }]];
    match small.run(stray) {
        Err(e @ MpiError::PeerOutOfRange { rank: 1, op: 0 }) => {
            println!("receive from rank 5 of 2: {e} (as expected)")
        }
        other => unreachable!("expected an out-of-range peer, got {other:?}"),
    }
    let ok = small.run(vec![vec![Op::Compute(10)]; 2]);
    assert_eq!(ok.map(|r| r.makespan_ns), Ok(10), "world reusable");
}
