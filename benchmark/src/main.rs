//! The repo benchmark. One command per workload prints every metric by name
//! and unit, takes `--seed`, and checks its own outputs:
//!
//! ```text
//! amr-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               [--smoke] [--trace-out <file>]
//! amr-benchmark --exact-names
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
//! (see `README.md` for their definitions and `BENCHMARK.json` for the
//! declared set). The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; the exit code is non-zero
//! when any output check failed.

use amr_benchmark::harness::{self, Plan, RunData};
use amr_benchmark::workloads;
use amr_benchmark::{host, metrics, report, spans};
use std::process::ExitCode;

struct Args {
    workload: String,
    plan: Plan,
    trace_out: Option<std::path::PathBuf>,
}

const USAGE: &str =
    "usage: amr-benchmark --workload <sedov_sweep|static_scale|fault_diagnose|service_mix> \
--seed <n> --seconds <1..60> --trace <0|1> [--smoke] [--trace-out <file>]";

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut trace_out = None;
    let mut argv = argv.skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                let s = value()?
                    .parse::<u32>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=60"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                });
            }
            "--smoke" => smoke = true,
            "--trace-out" => trace_out = Some(value()?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        plan: Plan {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            smoke,
        },
        trace_out,
    })
}

fn run_workload(name: &str, plan: &Plan) -> RunData {
    match name {
        "sedov_sweep" => harness::run(&workloads::sedov_sweep::SedovSweep, plan),
        "static_scale" => harness::run(&workloads::static_scale::StaticScale, plan),
        "fault_diagnose" => harness::run(&workloads::fault_diagnose::FaultDiagnose, plan),
        "service_mix" => harness::run(&workloads::service_mix::ServiceMix, plan),
        other => unreachable!("parse_args admitted workload {other}"),
    }
}

fn main() -> ExitCode {
    // For `aa.sh`: the per-layer metrics that must repeat bit for bit.
    if std::env::args().nth(1).as_deref() == Some("--exact-names") {
        for p in metrics::PER_LAYER
            .iter()
            .filter(|p| p.source == metrics::Source::Exact)
        {
            println!("{}", p.name);
        }
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(std::env::args()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let plan = &args.plan;
    println!(
        "workload {} seed {} seconds {} trace {}{} | host: {} cores, {}",
        args.workload,
        plan.seed,
        plan.seconds,
        plan.trace as u8,
        if plan.smoke {
            " | SMOKE RUN: numbers are not comparable"
        } else {
            ""
        },
        host::cores(),
        host::cpu_model(),
    );

    let data = run_workload(&args.workload, plan);

    let metrics = if plan.trace {
        report::print_span_table(&data);
        report::per_layer(&data)
    } else {
        report::end_to_end(&data)
    };
    report::print_metrics(
        if plan.trace {
            "per-layer metrics (probe-normalised medians over traced rounds; exact counts from round 0):"
        } else {
            "end-to-end metrics (probe-normalised medians over rounds; tracing off):"
        },
        &metrics,
    );
    let mut errors = data.errors.clone();
    if let Some(path) = args.trace_out.as_ref().filter(|_| plan.trace) {
        match spans::write_chrome_trace(path) {
            Ok(()) => println!(
                "trace: first {} traced rounds -> {}",
                spans::KEPT_ROUNDS,
                path.display()
            ),
            Err(e) => errors.push(format!("writing {}: {e}", path.display())),
        }
    }
    for e in &errors {
        println!("CHECK FAILED: {e}");
    }
    let correct = errors.is_empty() && data.ops_failed == 0;
    println!(
        "rounds {} (+{} warm-up) | ops_attempted {} ops_failed {} | run wall {:.2} s",
        data.rounds.len(),
        harness::WARMUP_ROUNDS,
        data.ops_attempted,
        data.ops_failed,
        data.wall_s,
    );
    println!(
        "{}",
        metrics::result_line(correct, data.ops_attempted, data.ops_failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
