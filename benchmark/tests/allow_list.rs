//! The benchmark may call only the library items listed in `README.md`
//! ("Stable-API allow-list"): it must not freeze what ROADMAP schedules for
//! removal or rewrite. This test reads the benchmark's own sources.

use std::path::Path;

/// Every item the sources may name after an `amr_<crate>::` path, by crate.
/// Module names on the way to an item (`engine`, `anomaly`) count as items.
const ALLOWED: [(&str, &[&str]); 6] = [
    (
        "amr_mesh",
        &["AmrMesh", "NeighborGraph", "PatchScratch", "RefineTag"],
    ),
    (
        "amr_core",
        &[
            "engine",
            "PlacementEngine",
            "PlacementCtx",
            "PlacementError",
            "PlacementReport",
            "Placement",
            "PlacementPolicy",
            "Baseline",
            "Cplx",
            "Lpt",
            "RebalanceTrigger",
        ],
    ),
    (
        "amr_sim",
        &[
            "MacroSim",
            "SimConfig",
            "RunReport",
            "Workload",
            "WorkloadStep",
            "FaultEpisode",
            "FaultResponse",
            "FaultTimeline",
        ],
    ),
    (
        "amr_telemetry",
        &[
            "anomaly",
            "detect_throttling",
            "detect_wait_spikes",
            "codec",
            "views",
            "ChunkedStore",
            "Predicate",
            "EventTable",
            "Phase",
            "Query",
        ],
    ),
    (
        "amr_workloads",
        &["random_refined_mesh", "SedovScenario", "SedovWorkload"],
    ),
    (
        "amr_service",
        &[
            "front_tag",
            "QuerySpec",
            "Request",
            "Response",
            "Service",
            "ServiceConfig",
            "ServiceStats",
            "SessionId",
            "SessionSpec",
        ],
    ),
];

/// Items on ROADMAP's removal or rewrite list, and the bench crate.
const FORBIDDEN: [&str; 11] = [
    "TraceHandle",
    "set_trace",
    "force_full_rebuild",
    "build_legacy",
    "run_heap_reference",
    "build_global",
    "rayon",
    "serde",
    "amr_bench::",
    "cfg.threads",
    ".threads =",
];

fn sources() -> Vec<(String, String)> {
    fn walk(dir: &Path, out: &mut Vec<(String, String)>) {
        for entry in std::fs::read_dir(dir).expect("readable source directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).expect("readable source file");
                out.push((path.display().to_string(), text));
            }
        }
    }
    let mut out = Vec::new();
    walk(&Path::new(env!("CARGO_MANIFEST_DIR")).join("src"), &mut out);
    assert!(out.len() >= 10, "found only {} source files", out.len());
    out
}

/// The identifiers of one path expression starting right after
/// `amr_<crate>::` — through nested `{…}` groups, up to the first character
/// that cannot continue a `use` tree or an inline path.
fn path_items(rest: &str) -> Vec<&str> {
    let mut depth = 0usize;
    let mut end = rest.len();
    for (i, c) in rest.char_indices() {
        match c {
            '{' => depth += 1,
            '}' if depth > 0 => depth -= 1,
            ',' | ' ' | '\n' if depth > 0 => {}
            c if c.is_ascii_alphanumeric() || c == '_' || c == ':' => {}
            _ => {
                end = i;
                break;
            }
        }
    }
    rest[..end]
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|s| !s.is_empty() && *s != "self")
        .collect()
}

#[test]
fn sources_name_only_allow_listed_library_items() {
    let mut seen = 0;
    for (file, text) in sources() {
        for (krate, allowed) in ALLOWED {
            let needle = format!("{krate}::");
            for (at, _) in text.match_indices(&needle) {
                for item in path_items(&text[at + needle.len()..]) {
                    seen += 1;
                    assert!(
                        allowed.contains(&item),
                        "{file}: `{krate}::…{item}` is not on the stable-API allow-list"
                    );
                }
            }
        }
    }
    assert!(
        seen > 40,
        "the scan matched only {seen} items: is it still looking?"
    );
}

#[test]
fn sources_use_nothing_scheduled_for_removal() {
    for (file, text) in sources() {
        for word in FORBIDDEN {
            assert!(!text.contains(word), "{file} mentions `{word}`");
        }
    }
}

#[test]
fn manifest_depends_on_the_six_library_crates_only() {
    let manifest = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"))
        .expect("readable manifest");
    let paths: Vec<&str> = manifest
        .lines()
        .filter_map(|l| l.split("path = \"").nth(1))
        .filter_map(|rest| rest.split('"').next())
        .collect();
    assert_eq!(
        paths,
        [
            "../crates/mesh",
            "../crates/core",
            "../crates/sim",
            "../crates/telemetry",
            "../crates/workloads",
            "../crates/service"
        ]
    );
}

#[test]
fn path_items_reads_use_trees_and_inline_paths() {
    assert_eq!(
        path_items("engine::{PlacementCtx, PlacementError};\nuse x"),
        ["engine", "PlacementCtx", "PlacementError"]
    );
    assert_eq!(
        path_items("{Lpt, RebalanceTrigger};"),
        ["Lpt", "RebalanceTrigger"]
    );
    assert_eq!(path_items("AmrMesh| StaticWorkload {"), ["AmrMesh"]);
    assert_eq!(
        path_items("anomaly::{detect_throttling,\n    detect_wait_spikes};"),
        ["anomaly", "detect_throttling", "detect_wait_spikes"]
    );
}
