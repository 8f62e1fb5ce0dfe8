//! The names and units the benchmark reports. `BENCHMARK.json` declares the
//! same set; `tests/contract.rs` holds the two together.

/// Where a per-layer metric's value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Probe-normalised median over traced rounds of the per-round sum of
    /// the spans with this name, in ms. Taken from the main rounds when the
    /// pass or the set-up opens such a span, from the probe rounds otherwise.
    Span(&'static str),
    /// The same over the spans' self time (duration minus child spans).
    SpanSelf(&'static str),
    /// An exact count or virtual quantity from the round's outcome (the `*`
    /// metrics): must repeat bit for bit from round to round and run to run.
    /// 0 on a workload that bypasses the layer.
    Exact,
    /// Computed by the harness from the above (see `report::per_layer`).
    Derived,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub source: Source,
}

const fn m(name: &'static str, unit: &'static str, source: Source) -> PerLayer {
    PerLayer { name, unit, source }
}

use Source::{Derived, Exact, Span, SpanSelf};

/// End-to-end metrics, printed by `--trace 0`. Lower is better for all.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("pass_ms", "ms"),
    ("place_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("virt_ms", "ms"),
];

/// Per-layer metrics, printed by `--trace 1`. Layers are crates.
pub const PER_LAYER: [PerLayer; 68] = [
    // amr-workloads
    m("workloads.advance_ms", "ms", Span("workloads.advance")),
    m("workloads.advance_calls", "count", Exact),
    m("workloads.meshgen_ms", "ms", Span("workloads.meshgen")),
    // amr-mesh
    m("mesh.graph_build_ms", "ms", Span("mesh.graph_build")),
    m("mesh.graph_relations", "count", Exact),
    m("mesh.blocks", "count", Exact),
    m("mesh.adapt_ms", "ms", Span("mesh.adapt")),
    m("mesh.graph_patch_ms", "ms", Span("mesh.graph_patch")),
    m("mesh.changed_blocks", "count", Exact),
    m("mesh.clone_ms", "ms", Span("mesh.clone")),
    // amr-core
    m("core.place_ms", "ms", Span("core.place_into")),
    m("core.place_calls", "count", Exact),
    m("core.place_max_ms", "ms", Derived),
    m("core.engine_cold_ms", "ms", Span("core.engine_cold")),
    m("core.engine_warm_ms", "ms", Span("core.engine_warm")),
    m("core.imbalance", "ratio", Exact),
    m("core.blocks_moved", "count", Exact),
    // amr-sim
    m("sim.new_ms", "ms", Span("sim.new")),
    m("sim.run_ms", "ms", Span("sim.run")),
    m("sim.self_ms", "ms", SpanSelf("sim.run")),
    m("sim.rank_steps_per_s", "1/s", Derived),
    m("sim.virt_compute_ms", "ms", Exact),
    m("sim.virt_comm_ms", "ms", Exact),
    m("sim.virt_sync_ms", "ms", Exact),
    m("sim.sync_share", "ratio", Exact),
    m("sim.msgs_local", "count", Exact),
    m("sim.msgs_remote", "count", Exact),
    m("sim.lb_invocations", "count", Exact),
    m("sim.blocks_migrated", "count", Exact),
    m("sim.mesh_change_steps", "count", Exact),
    m("sim.final_blocks", "count", Exact),
    m("sim.capacity_updates", "count", Exact),
    m("sim.virt_redist_ms", "ms", Derived),
    m("sim.cplx_gain_pct", "%", Exact),
    m("sim.mitigation_gain_pct", "%", Exact),
    // amr-telemetry
    m("telemetry.rows", "count", Exact),
    m("telemetry.ingest_ms", "ms", Derived),
    m("telemetry.query_ms", "ms", Span("telemetry.query")),
    m("telemetry.views_ms", "ms", Span("telemetry.views")),
    m("telemetry.detect_ms", "ms", Span("telemetry.detect")),
    m(
        "telemetry.chunk_build_ms",
        "ms",
        Span("telemetry.chunk_build"),
    ),
    m(
        "telemetry.chunk_scan_ms",
        "ms",
        Span("telemetry.chunk_scan"),
    ),
    m("telemetry.chunks_pruned_share", "ratio", Exact),
    m("telemetry.encode_ms", "ms", Span("telemetry.encode")),
    m("telemetry.decode_ms", "ms", Span("telemetry.decode")),
    m("telemetry.encoded_bytes", "bytes", Exact),
    m("telemetry.scan_rows_per_s", "1/s", Derived),
    // amr-service
    m("service.open_ms", "ms", Span("service.open")),
    m("service.submit_ms", "ms", Span("service.submit")),
    m("service.drain_ms", "ms", Span("service.drain")),
    m("service.close_ms", "ms", Span("service.close")),
    m("service.cold_wave_ms", "ms", Span("service.cold_wave")),
    m("service.req_p50_us", "us", Derived),
    m("service.req_p99_us", "us", Derived),
    m("service.sessions_per_s", "1/s", Derived),
    m("service.requests_per_s", "1/s", Derived),
    m("service.warm_hit_share", "ratio", Exact),
    m("service.failed_requests", "count", Exact),
    // the harness itself
    m("bench.rounds", "count", Derived),
    m("bench.pass_floor_ms", "ms", Derived),
    m("bench.pass_p50_ms", "ms", Derived),
    m("bench.pass_p90_ms", "ms", Derived),
    m("bench.slow_share", "ratio", Derived),
    m("bench.calib_floor_ms", "ms", Derived),
    m("bench.calib_p50_ms", "ms", Derived),
    m("bench.unattributed_pct", "%", Derived),
    m("bench.trace_overhead_pct", "%", Derived),
    m("bench.run_wall_s", "s", Derived),
];

/// A finite JSON number with all its digits (Rust's shortest round-trip
/// form); non-finite values, which no metric should produce, become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|p| p.name).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| *n));
        let ok = |s: &str, extra: &str| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for n in &names {
            assert!(ok(n, "_.-") && n.len() <= 64, "bad name {n}");
        }
        for p in &PER_LAYER {
            assert!(
                ok(p.unit, "_/%.-") && p.unit.len() <= 16,
                "bad unit {}",
                p.unit
            );
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric name");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            12,
            0,
            &[("a_ms", 1.5, "ms"), ("b", f64::NAN, "count")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
    }
}
