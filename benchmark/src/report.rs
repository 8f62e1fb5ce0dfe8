//! From a run's samples to the named metrics, and their printed form.
//!
//! Every timed metric is the median over rounds of the round's sample
//! scaled by the round's probe factor (`Round::scale`): "milliseconds at the
//! reference host's speed". The `bench.*` metrics report the raw times.

use crate::harness::{Round, RunData};
use crate::metrics::{Source, END_TO_END, PER_LAYER};
use crate::spans::{NameTotals, RoundTotals};
use crate::stats::{floor3, median, percentile, ratio, share_above};

const MS: f64 = 1e6;

/// Median over `rounds` of `f(round) × round.scale`.
fn normalised(rounds: &[&Round], f: impl Fn(&Round) -> f64) -> f64 {
    let scaled: Vec<f64> = rounds.iter().map(|r| f(r) * r.scale).collect();
    median(&scaled)
}

fn raw(rounds: &[&Round], f: impl Fn(&Round) -> f64) -> Vec<f64> {
    rounds.iter().map(|r| f(r)).collect()
}

/// The five end-to-end metrics, in `END_TO_END` order.
pub fn end_to_end(data: &RunData) -> Vec<(&'static str, f64, &'static str)> {
    let all: Vec<&Round> = data.rounds.iter().collect();
    let values = [
        normalised(&all, |r| r.setup_ns as f64) / 1e9,
        normalised(&all, |r| r.pass_ns as f64) / MS,
        normalised(&all, |r| r.place_ns_per_call) / MS,
        crate::host::peak_rss_mb().unwrap_or(0.0),
        data.reference.virt_ns / MS,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect()
}

/// A round's scale with its span totals.
type Scaled<'a> = (f64, &'a RoundTotals);

/// Every span-totals map of the run: the traced main rounds, and the probe
/// rounds.
fn totals_of(data: &RunData) -> (Vec<Scaled<'_>>, Vec<Scaled<'_>>) {
    let main = data
        .rounds
        .iter()
        .filter_map(|r| r.totals.as_ref().map(|t| (r.scale, t)))
        .collect();
    let probes = data.probe_rounds.iter().map(|(s, t)| (*s, t)).collect();
    (main, probes)
}

/// Normalised median over rounds of one span name's per-round value: over
/// the traced main rounds when any of them recorded the name, over the probe
/// rounds otherwise; 0.0 when no round did (the workload bypasses the layer).
fn span_ns(data: &RunData, name: &str, pick: fn(&NameTotals) -> u64) -> f64 {
    let over = |rounds: &[Scaled]| -> Vec<f64> {
        rounds
            .iter()
            .filter_map(|(scale, t)| t.get(name).map(|n| pick(n) as f64 * scale))
            .collect()
    };
    let (main, probes) = totals_of(data);
    let mut samples = over(&main);
    if samples.is_empty() {
        samples = over(&probes);
    }
    median(&samples)
}

fn exact(data: &RunData, name: &str) -> f64 {
    if name == "core.place_calls" {
        return data.reference.place.calls as f64;
    }
    data.reference
        .exact
        .iter()
        .chain(&data.probe_exact)
        .find(|(n, _)| *n == name)
        .map_or(0.0, |&(_, v)| v)
}

/// Every per-layer metric, in `PER_LAYER` order. Timed ones come from the
/// traced rounds; `bench.pass_*` and the tracing overhead from the untraced
/// rounds interleaved with them.
pub fn per_layer(data: &RunData) -> Vec<(&'static str, f64, &'static str)> {
    let all: Vec<&Round> = data.rounds.iter().collect();
    let traced: Vec<&Round> = data.rounds.iter().filter(|r| r.totals.is_some()).collect();
    let untraced: Vec<&Round> = data.rounds.iter().filter(|r| r.totals.is_none()).collect();
    let pass_ns = normalised(&untraced, |r| r.pass_ns as f64);
    let pass_raw = raw(&untraced, |r| r.pass_ns as f64);
    let calib = raw(&all, |r| r.calib_ns as f64);
    let total = |name: &str| span_ns(data, name, |n| n.total_ns);
    let reference = &data.reference;

    let derived = |name: &str| -> f64 {
        match name {
            "core.place_max_ms" => {
                all.iter().map(|r| r.place_max_ns).max().unwrap_or(0) as f64 / MS
            }
            "sim.rank_steps_per_s" => ratio(reference.rank_steps, total("sim.run") / 1e9),
            "sim.virt_redist_ms" => median(&data.virt_redist_ns) / MS,
            "telemetry.ingest_ms" => {
                (total("probe.sim_telemetry_on") - total("probe.sim_telemetry_off")) / MS
            }
            "telemetry.scan_rows_per_s" => {
                ratio(reference.rows_scanned, total("telemetry.query") / 1e9)
            }
            "service.req_p50_us" | "service.req_p99_us" => {
                let lat: Vec<f64> = data.latencies_ns.iter().map(|&n| n as f64).collect();
                let q = if name.ends_with("p50_us") { 50 } else { 99 };
                percentile(&lat, q) / 1e3
            }
            "service.sessions_per_s" => ratio(reference.sessions as f64, pass_ns / 1e9),
            "service.requests_per_s" => ratio(reference.requests as f64, pass_ns / 1e9),
            "bench.rounds" => data.rounds.len() as f64,
            "bench.pass_floor_ms" => floor3(&pass_raw) / MS,
            "bench.pass_p50_ms" => percentile(&pass_raw, 50) / MS,
            "bench.pass_p90_ms" => percentile(&pass_raw, 90) / MS,
            "bench.slow_share" => share_above(&pass_raw, floor3(&pass_raw), 1.15),
            "bench.calib_floor_ms" => floor3(&calib) / MS,
            "bench.calib_p50_ms" => percentile(&calib, 50) / MS,
            "bench.unattributed_pct" => {
                // Round wall that no span below `round`/`setup`/`pass` covers.
                let shares: Vec<f64> = traced
                    .iter()
                    .filter_map(|r| r.totals.as_ref())
                    .map(|t| {
                        let own = |n: &str| t.get(n).map_or(0, |x| x.self_ns) as f64;
                        let round = t.get("round").map_or(0, |x| x.total_ns) as f64;
                        100.0 * ratio(own("round") + own("setup") + own("pass"), round)
                    })
                    .collect();
                median(&shares)
            }
            "bench.trace_overhead_pct" => {
                let with = normalised(&traced, |r| r.pass_ns as f64);
                100.0 * ratio(with - pass_ns, pass_ns)
            }
            "bench.run_wall_s" => data.wall_s,
            other => unreachable!("derived metric {other} has no rule"),
        }
    };

    PER_LAYER
        .iter()
        .map(|p| {
            let v = match p.source {
                Source::Span(span) => total(span) / MS,
                Source::SpanSelf(span) => span_ns(data, span, |n| n.self_ns) / MS,
                Source::Exact => exact(data, p.name),
                Source::Derived => derived(p.name),
            };
            (p.name, v, p.unit)
        })
        .collect()
}

/// Traced-run layer shares: every span name's per-round total and self time
/// (normalised medians), and the share of the set-up and of the pass
/// recorded under it.
pub fn print_span_table(data: &RunData) {
    let (main, probes) = totals_of(data);
    let every = || main.iter().chain(&probes).map(|(_, t)| *t);
    let mut names: Vec<&'static str> = every().flat_map(|t| t.keys().copied()).collect();
    names.sort_unstable();
    names.dedup();
    let total = |name: &str| span_ns(data, name, |n| n.total_ns);
    let (round, setup, pass) = (total("round"), total("setup"), total("pass"));
    println!(
        "{:<26} {:>7} {:>11} {:>11} {:>8} {:>8}",
        "span (median per round)", "calls", "total_ms", "self_ms", "% setup", "% pass"
    );
    for name in names {
        // A count is not a time: unscaled, from the first round that has it.
        let calls = every().find_map(|t| t.get(name)).map_or(0, |n| n.count);
        println!(
            "{:<26} {:>7} {:>11.4} {:>11.4} {:>8.2} {:>8.2}",
            name,
            calls,
            total(name) / MS,
            span_ns(data, name, |n| n.self_ns) / MS,
            100.0 * ratio(span_ns(data, name, |n| n.in_setup_ns), setup),
            100.0 * ratio(span_ns(data, name, |n| n.in_pass_ns), pass),
        );
    }
    println!(
        "round {:.3} ms = setup {:.3} ms ({:.1} %) + pass {:.3} ms ({:.1} %) + harness",
        round / MS,
        setup / MS,
        100.0 * ratio(setup, round),
        pass / MS,
        100.0 * ratio(pass, round),
    );
}

pub fn print_metrics(title: &str, metrics: &[(&'static str, f64, &'static str)]) {
    println!("{title}");
    for (name, value, unit) in metrics {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
}
