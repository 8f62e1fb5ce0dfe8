//! Prebuilt analytical views over telemetry tables.
//!
//! §IV-C: the paper's queries "naturally mapped to SQL over data ingested
//! into ClickHouse", with views "aligned with synchronization intervals" —
//! telemetry grouped by timestep, sorted by rank. These are those recurring
//! queries as functions: per-step straggler attribution, phase-fraction
//! series, and imbalance evolution. They power the experiment binaries and
//! double as executable documentation of how the diagnosis in §IV worked.

use crate::record::Phase;
use crate::stats;
use crate::table::EventTable;
use std::collections::BTreeMap;

/// Per-step straggler attribution: which rank's compute gated the step.
#[derive(Debug, Clone, PartialEq)]
pub struct StragglerEntry {
    pub step: u32,
    /// Rank with the maximum compute time this step.
    pub rank: u32,
    /// Its compute time (ns).
    pub max_compute_ns: u64,
    /// Mean compute across ranks this step (ns).
    pub mean_compute_ns: f64,
    /// max / mean — the step's imbalance factor.
    pub imbalance: f64,
}

/// Identify the compute straggler of every (sampled) step.
///
/// One pass over the `(step, rank, duration)` projection of the compute
/// rows, which a canonical table already holds in order.
pub fn stragglers_by_step(table: &EventTable) -> Vec<StragglerEntry> {
    let compute = Phase::Compute.code();
    let (steps, ranks, durations) = (table.steps(), table.ranks(), table.durations());
    let mut rows: Vec<(u32, u32, u64)> = (0..table.len())
        .filter(|&i| table.phases()[i] == compute)
        .map(|i| (steps[i], ranks[i], durations[i]))
        .collect();
    // One scan on a canonical table: the sort returns on sorted input.
    rows.sort_unstable_by_key(|&(step, rank, _)| (step, rank));
    rows.chunk_by(|a, b| a.0 == b.0)
        .map(|step_rows| {
            // Per-rank totals (saturating) in ascending rank order; ties go
            // to the higher rank.
            let (mut max, mut sum, mut n) = ((0u64, 0u32), 0.0f64, 0usize);
            for rank_rows in step_rows.chunk_by(|a, b| a.1 == b.1) {
                let total = rank_rows.iter().fold(0u64, |t, r| t.saturating_add(r.2));
                max = max.max((total, rank_rows[0].1));
                sum += total as f64;
                n += 1;
            }
            let mean = sum / n as f64;
            StragglerEntry {
                step: step_rows[0].0,
                rank: max.1,
                max_compute_ns: max.0,
                mean_compute_ns: mean,
                imbalance: if mean > 0.0 { max.0 as f64 / mean } else { 1.0 },
            }
        })
        .collect()
}

/// How often each rank is the straggler — persistent stragglers point at
/// hardware (Fig. 2); rotating ones at workload imbalance.
pub fn straggler_histogram(table: &EventTable, num_ranks: usize) -> Vec<usize> {
    let mut hist = vec![0usize; num_ranks];
    for e in stragglers_by_step(table) {
        if (e.rank as usize) < num_ranks {
            hist[e.rank as usize] += 1;
        }
    }
    hist
}

/// Aggregate a per-rank series into per-node sums — the paper's "clusters
/// of 16" lens (§IV-A): hardware faults group by node, workload stragglers
/// do not.
pub fn by_node(per_rank: &[f64], ranks_per_node: usize) -> Vec<f64> {
    assert!(ranks_per_node > 0);
    let nodes = per_rank.len().div_ceil(ranks_per_node);
    let mut out = vec![0.0; nodes];
    for (r, &v) in per_rank.iter().enumerate() {
        out[r / ranks_per_node] += v;
    }
    out
}

/// Straggler gating counts aggregated per node. A node gating far more than
/// `steps / num_nodes` steps is hardware-suspect.
pub fn straggler_histogram_by_node(
    table: &EventTable,
    num_ranks: usize,
    ranks_per_node: usize,
) -> Vec<usize> {
    let per_rank = straggler_histogram(table, num_ranks);
    let nodes = num_ranks.div_ceil(ranks_per_node);
    let mut out = vec![0usize; nodes];
    for (r, &c) in per_rank.iter().enumerate() {
        out[r / ranks_per_node] += c;
    }
    out
}

/// Per-phase `(rows, total duration)` of a run of rows, indexed by phase
/// code. Totals saturate.
fn phase_totals(phases: &[u8], durations: &[u64]) -> [(usize, u64); Phase::ALL.len()] {
    let mut slots = [(0usize, 0u64); Phase::ALL.len()];
    for (&p, &d) in phases.iter().zip(durations) {
        let slot = &mut slots[p as usize];
        *slot = (slot.0 + 1, slot.1.saturating_add(d));
    }
    slots
}

/// The phases of `slots` that have rows, with their totals.
fn present(slots: [(usize, u64); Phase::ALL.len()]) -> impl Iterator<Item = (Phase, u64)> {
    Phase::ALL
        .into_iter()
        .zip(slots)
        .filter_map(|(p, (rows, total))| (rows > 0).then_some((p, total)))
}

/// Phase totals (ns) per step, for stacked time-series plots.
pub fn phase_series(table: &EventTable) -> BTreeMap<u32, BTreeMap<Phase, u64>> {
    let mut out: BTreeMap<u32, BTreeMap<Phase, u64>> = BTreeMap::new();
    // One dense accumulation per run of equal steps (one run per step on a
    // canonical table), merged into the step's entry.
    let mut at = 0;
    for run in table.steps().chunk_by(|a, b| a == b) {
        let rows = at..at + run.len();
        at = rows.end;
        let slots = phase_totals(&table.phases()[rows.clone()], &table.durations()[rows]);
        let step = out.entry(run[0]).or_default();
        for (phase, total) in present(slots) {
            let sum: &mut u64 = step.entry(phase).or_insert(0);
            *sum = sum.saturating_add(total);
        }
    }
    out
}

/// Imbalance factor (max/mean per-rank compute) per step — the series whose
/// reduction is CPLX's whole job.
pub fn imbalance_series(table: &EventTable) -> Vec<(u32, f64)> {
    stragglers_by_step(table)
        .into_iter()
        .map(|e| (e.step, e.imbalance))
        .collect()
}

/// Summary of the imbalance series: mean and p95 imbalance across steps.
pub fn imbalance_summary(table: &EventTable) -> (f64, f64) {
    let series: Vec<f64> = imbalance_series(table)
        .into_iter()
        .map(|(_, x)| x)
        .collect();
    (stats::mean(&series), stats::percentile(&series, 0.95))
}

/// Fraction of total recorded time per phase — Fig. 6a's stacked bars, from
/// raw telemetry rather than simulator accounting (a cross-check used in
/// integration tests).
pub fn phase_fractions(table: &EventTable) -> BTreeMap<Phase, f64> {
    let slots = phase_totals(table.phases(), table.durations());
    // An all-zero table divides by 1: every fraction 0.0.
    let total = slots.iter().map(|s| s.1).sum::<u64>().max(1) as f64;
    present(slots)
        .map(|(p, ns)| (p, ns as f64 / total))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::EventRecord;

    fn table() -> EventTable {
        let mut t = EventTable::new();
        for step in 0..4u32 {
            for rank in 0..3u32 {
                // Rank 2 is always the straggler; imbalance 2.0 vs mean.
                let dur = if rank == 2 { 400 } else { 100 };
                t.push(EventRecord::compute(step, rank, rank, dur));
                t.push(EventRecord::rank_phase(
                    step,
                    rank,
                    Phase::Synchronization,
                    50,
                ));
            }
        }
        t
    }

    #[test]
    fn straggler_attribution() {
        let t = table();
        let s = stragglers_by_step(&t);
        assert_eq!(s.len(), 4);
        assert!(s.iter().all(|e| e.rank == 2));
        assert!(s.iter().all(|e| e.max_compute_ns == 400));
        let expect_imb = 400.0 / 200.0;
        assert!(s.iter().all(|e| (e.imbalance - expect_imb).abs() < 1e-12));
    }

    #[test]
    fn histogram_counts_persistent_straggler() {
        let t = table();
        assert_eq!(straggler_histogram(&t, 3), vec![0, 0, 4]);
        // Out-of-range num_ranks is safe.
        assert_eq!(straggler_histogram(&t, 2), vec![0, 0]);
    }

    #[test]
    fn node_aggregation() {
        let per_rank = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(by_node(&per_rank, 2), vec![3.0, 7.0, 5.0]);
        let t = table();
        // 3 ranks, 2 per node: rank 2 (the straggler) is alone on node 1.
        assert_eq!(straggler_histogram_by_node(&t, 3, 2), vec![0, 4]);
    }

    #[test]
    fn phase_series_sums_per_step() {
        let t = table();
        let series = phase_series(&t);
        assert_eq!(series.len(), 4);
        assert_eq!(series[&0][&Phase::Compute], 600);
        assert_eq!(series[&0][&Phase::Synchronization], 150);
    }

    #[test]
    fn imbalance_views_consistent() {
        let t = table();
        let (mean, p95) = imbalance_summary(&t);
        assert!((mean - 2.0).abs() < 1e-12);
        assert!((p95 - 2.0).abs() < 1e-12);
        assert_eq!(imbalance_series(&t).len(), 4);
    }

    #[test]
    fn phase_fractions_sum_to_one() {
        let t = table();
        let f = phase_fractions(&t);
        let total: f64 = f.values().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(f[&Phase::Compute] > f[&Phase::Synchronization]);
    }

    #[test]
    fn empty_table_views() {
        let t = EventTable::new();
        assert!(stragglers_by_step(&t).is_empty());
        assert!(phase_fractions(&t).is_empty());
        let (m, p) = imbalance_summary(&t);
        assert_eq!((m, p), (0.0, 0.0));
    }
}
