//! The run protocol: a fixed number of rounds, each one set-up sample, one
//! health-probe sample and one pass sample of bit-identical work. Estimators
//! over the samples are in `report`.
//!
//! One process, main thread only, closed loop: the next call starts after
//! the previous returns. The only other thread is the one
//! `AmrMesh::neighbor_graph()` takes from `WorkerPool::global()`.

use crate::host::{HealthProbe, PROBE_REFERENCE_NS};
use crate::spans::{self, RoundTotals};
use crate::workloads::{BenchWorkload, Outcome};
use std::time::Instant;

/// Rounds run and discarded before the timed ones (caches, allocator, page
/// faults, lazy statics). Round 0 also carries the structural checks.
pub const WARMUP_ROUNDS: u32 = 2;
/// Timed rounds of a `--smoke` run, which checks plumbing, not speed.
pub const SMOKE_ROUNDS: u32 = 4;
/// Probe rounds after a traced run's main rounds.
const PROBE_ROUNDS: u32 = 12;
const SMOKE_PROBE_ROUNDS: u32 = 2;

pub struct Plan {
    pub seed: u64,
    pub seconds: u32,
    pub trace: bool,
    pub smoke: bool,
}

impl Plan {
    /// Timed rounds: the workload's fixed rate × `--seconds`. A traced run
    /// keeps the same count and records spans on every other round, so it
    /// also measures its own overhead against interleaved untraced rounds.
    pub fn rounds(&self, rounds_per_second: f64) -> u32 {
        if self.smoke {
            SMOKE_ROUNDS
        } else {
            ((rounds_per_second * self.seconds as f64).round() as u32).max(SMOKE_ROUNDS)
        }
    }
}

/// Samples of one timed round.
pub struct Round {
    pub setup_ns: u64,
    pub calib_ns: u64,
    pub pass_ns: u64,
    /// `PROBE_REFERENCE_NS / calib_ns`: what this round's times are
    /// multiplied by before the median over rounds is taken.
    pub scale: f64,
    /// Time inside `place_into` during the pass ÷ calls.
    pub place_ns_per_call: f64,
    pub place_max_ns: u64,
    /// Per-name span totals when the round was traced.
    pub totals: Option<RoundTotals>,
}

pub struct RunData {
    pub rounds: Vec<Round>,
    /// Scale and span totals of each probe round.
    pub probe_rounds: Vec<(f64, RoundTotals)>,
    /// Round 0's outcome: the reference every later round must equal.
    pub reference: Outcome,
    pub probe_exact: Vec<(&'static str, f64)>,
    /// Per-round `Outcome::virt_redist_ns` (reported, never compared).
    pub virt_redist_ns: Vec<f64>,
    pub latencies_ns: Vec<u64>,
    /// Rounds + service requests, and how many of them failed a check.
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub errors: Vec<String>,
    pub wall_s: f64,
}

pub fn run<W: BenchWorkload>(w: &W, plan: &Plan) -> RunData {
    let started = Instant::now();
    let timed = plan.rounds(w.rounds_per_second());
    let mut health = HealthProbe::default();
    let mut data = RunData {
        rounds: Vec::with_capacity(timed as usize),
        probe_rounds: Vec::new(),
        reference: Outcome::default(),
        probe_exact: Vec::new(),
        virt_redist_ns: Vec::with_capacity(timed as usize),
        latencies_ns: Vec::new(),
        ops_attempted: 0,
        ops_failed: 0,
        errors: Vec::new(),
        wall_s: 0.0,
    };
    let mut reference_print = Vec::new();

    for r in 0..WARMUP_ROUNDS + timed {
        let traced = plan.trace && r >= WARMUP_ROUNDS && (r - WARMUP_ROUNDS).is_multiple_of(2);
        if traced {
            spans::begin_round(r);
        }
        let round_span = spans::span("round");

        let t = Instant::now();
        let mut inputs = {
            let _s = spans::span("setup");
            w.setup(plan.seed)
        };
        let setup_ns = t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        {
            let _s = spans::span("bench.calib");
            health.run();
        }
        let calib_ns = t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        {
            let _s = spans::span("pass");
            w.pass(&mut inputs);
        }
        let pass_ns = t.elapsed().as_nanos() as u64;

        let outcome = {
            let _s = spans::span("bench.check");
            let outcome = w.outcome(&inputs);
            let print = outcome.fingerprint();
            data.ops_attempted += 1 + outcome.requests;
            data.ops_failed += outcome.failed_requests;
            if outcome.place.invalid > 0 {
                data.ops_failed += 1;
                data.errors.push(format!(
                    "round {r}: {} placements failed, missed a block or named a rank >= ranks",
                    outcome.place.invalid
                ));
            }
            if r == 0 {
                if let Err(e) = w.verify(&inputs, &outcome) {
                    data.ops_failed += 1;
                    data.errors.push(format!("round 0 check: {e}"));
                }
                reference_print = print;
            } else if print != reference_print {
                data.ops_failed += 1;
                if data.errors.len() < 8 {
                    let what: Vec<&str> = print
                        .iter()
                        .zip(&reference_print)
                        .filter(|(a, b)| a != b)
                        .map(|(a, _)| a.0)
                        .collect();
                    data.errors
                        .push(format!("round {r} differs from round 0 in {what:?}"));
                }
            }
            outcome
        };
        {
            let _s = spans::span("bench.teardown");
            drop(inputs);
        }
        drop(round_span);
        let totals = traced.then(spans::end_round);

        if r >= WARMUP_ROUNDS {
            data.rounds.push(Round {
                setup_ns,
                calib_ns,
                pass_ns,
                scale: PROBE_REFERENCE_NS / calib_ns as f64,
                place_ns_per_call: crate::stats::ratio(
                    outcome.place.ns as f64,
                    outcome.place.calls as f64,
                ),
                place_max_ns: outcome.place.max_ns,
                totals,
            });
            data.virt_redist_ns.push(outcome.virt_redist_ns);
            data.latencies_ns.extend_from_slice(&outcome.latencies_ns);
        }
        if r == 0 {
            data.reference = outcome;
        }
    }

    if plan.trace {
        let probes = if plan.smoke {
            SMOKE_PROBE_ROUNDS
        } else {
            PROBE_ROUNDS
        };
        for p in 0..probes {
            let t = Instant::now();
            health.run();
            let scale = PROBE_REFERENCE_NS / t.elapsed().as_nanos() as f64;
            spans::begin_round(WARMUP_ROUNDS + timed + p);
            let exact = {
                let _s = spans::span("probe");
                w.probe(plan.seed)
            };
            data.probe_rounds.push((scale, spans::end_round()));
            data.ops_attempted += 1;
            if p == 0 {
                data.probe_exact = exact;
            } else if exact != data.probe_exact {
                data.ops_failed += 1;
                data.errors
                    .push(format!("probe round {p} differs from probe round 0"));
            }
        }
    }
    data.wall_s = started.elapsed().as_secs_f64();
    data
}
