//! # amr-bench — experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md §3 for the full
//! index):
//!
//! | binary              | reproduces            |
//! |---------------------|-----------------------|
//! | `table1`            | Table I               |
//! | `fig1_correlation`  | Fig. 1 (top + bottom) |
//! | `fig2_throttling`   | Fig. 2                |
//! | `fig3_tuning`       | Fig. 3                |
//! | `fig4_critical_path`| Fig. 4                |
//! | `fig5_meshviz`      | Fig. 5 (terminal render) |
//! | `fig6_sedov`        | Fig. 6a/6b/6c (`--csv` exports plot data) |
//! | `fig7a_commbench`   | Fig. 7 top            |
//! | `fig7b_scalebench`  | Fig. 7 middle         |
//! | `fig7c_overhead`    | Fig. 7 bottom         |
//!
//! Ablations beyond the paper's figures:
//!
//! | binary                 | question                                     |
//! |------------------------|----------------------------------------------|
//! | `ablation_costs`       | telemetry-measured vs "cost = 1" hooks       |
//! | `ablation_trigger`     | when to rebalance                            |
//! | `ablation_chunking`    | CDP chunk size: quality vs wall time         |
//! | `ablation_sfc`         | Z-order vs Hilbert ordering                  |
//! | `ablation_edgecut`     | does the edge cut predict measured latency?  |
//! | `ablation_overlap`     | async masking vs placement                   |
//! | `ablation_variability` | compute variability vs placement benefit     |
//! | `ablation_blend`       | the naive CDP/LPT blend dead end (§V-D)      |
//!
//! One scale experiment nothing else covers: `scale_hier`, the 2^20-rank
//! hierarchical trajectory (the mesh's kept graph, two-stage placement, flat
//! and sharded macrosim at 1 and N threads).
//!
//! Criterion benches (`benches/`) cover placement-policy throughput, mesh
//! operations, telemetry ingest/query/codec/pushdown and simulator rounds.
//! Every binary here prints a table and none is a gate: end-to-end wall-clock
//! timing lives in the repo benchmark (`benchmark/`, `BENCHMARK.json`), and
//! behavioural guards live in `cargo test` (`tests/behaviour_guards.rs`).
//!
//! This library hosts the shared plumbing: a tiny `--key value` argument
//! parser (no CLI dependency), the CPLX policy roster, and fixed-width
//! table rendering for terminal reports.

use amr_core::policies::{Baseline, Cplx, PlacementPolicy};
use std::collections::HashMap;

/// Parse `--key value` (and bare `--flag`) command-line arguments.
///
/// ```
/// let args = amr_bench::Args::from_iter(["--ranks", "512", "--fast"].iter().map(|s| s.to_string()));
/// assert_eq!(args.get_usize("ranks", 64), 512);
/// assert!(args.flag("fast"));
/// assert_eq!(args.get_u64("steps", 100), 100);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parse from `std::env::args()` (skipping the binary name).
    pub fn from_env() -> Args {
        Args::from_iter(std::env::args().skip(1))
    }

    /// Parse from an explicit iterator (for tests).
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = String>>(iter: I) -> Args {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut iter = iter.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                match iter.peek() {
                    Some(next) if !next.starts_with("--") => {
                        values.insert(key.to_string(), iter.next().unwrap());
                    }
                    _ => flags.push(key.to_string()),
                }
            }
        }
        Args { values, flags }
    }

    /// String value or default.
    pub fn get<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.values.get(key).map(String::as_str).unwrap_or(default)
    }

    /// `usize` value or default.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.values
            .get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} expects an integer"))
            })
            .unwrap_or(default)
    }

    /// `u64` value or default.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.values
            .get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} expects an integer"))
            })
            .unwrap_or(default)
    }

    /// `f64` value or default.
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.values
            .get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} expects a number"))
            })
            .unwrap_or(default)
    }

    /// Comma-separated list of `usize`s or default.
    pub fn get_usize_list(&self, key: &str, default: &[usize]) -> Vec<usize> {
        match self.values.get(key) {
            None => default.to_vec(),
            Some(v) => v
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .unwrap_or_else(|_| panic!("--{key}: bad list"))
                })
                .collect(),
        }
    }

    /// Was a bare `--flag` present?
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

/// The policy roster of the paper's evaluation: the production baseline plus
/// CPLX at X ∈ {0, 25, 50, 75, 100} (§VI-A).
pub fn policy_roster() -> Vec<Box<dyn PlacementPolicy + Send + Sync>> {
    let mut v: Vec<Box<dyn PlacementPolicy + Send + Sync>> = vec![Box::new(Baseline)];
    for x in [0u32, 25, 50, 75, 100] {
        v.push(Box::new(Cplx::new(x)));
    }
    v
}

/// CPLX-only roster (Fig. 7 sweeps X without the baseline).
pub fn cplx_roster() -> Vec<Cplx> {
    [0u32, 25, 50, 75, 100].map(Cplx::new).to_vec()
}

/// Render an aligned fixed-width table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row arity mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&head, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Format nanoseconds as seconds.
pub fn fmt_s(ns: f64) -> String {
    format!("{:.3}", ns / 1e9)
}

/// Format a ratio as a signed percentage ("-21.6%").
pub fn fmt_pct_delta(new: f64, baseline: f64) -> String {
    if baseline == 0.0 {
        return "n/a".into();
    }
    format!("{:+.1}%", (new - baseline) / baseline * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_values_and_flags() {
        let a = Args::from_iter(
            [
                "--ranks", "512", "--quick", "--scale", "2.5", "--list", "1,2,3",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        assert_eq!(a.get_usize("ranks", 0), 512);
        assert!(a.flag("quick"));
        assert!(!a.flag("slow"));
        assert!((a.get_f64("scale", 0.0) - 2.5).abs() < 1e-12);
        assert_eq!(a.get_usize_list("list", &[]), vec![1, 2, 3]);
        assert_eq!(a.get("missing", "d"), "d");
        assert_eq!(a.get_u64("ranks", 0), 512);
    }

    #[test]
    fn roster_names() {
        let names: Vec<String> = policy_roster().iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec!["baseline", "cpl0", "cpl25", "cpl50", "cpl75", "cpl100"]
        );
        assert_eq!(cplx_roster().len(), 5);
    }

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["a", "long"],
            &[vec!["1".into(), "2".into()], vec!["100".into(), "x".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("a") && lines[0].contains("long"));
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_s(1_500_000_000.0), "1.500");
        assert_eq!(fmt_pct_delta(78.4, 100.0), "-21.6%");
        assert_eq!(fmt_pct_delta(1.0, 0.0), "n/a");
    }
}
