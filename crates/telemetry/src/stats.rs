//! Descriptive statistics used throughout the telemetry pipeline.
//!
//! Small, allocation-conscious helpers: the analytics loop of §IV repeatedly
//! computes means, variances, percentiles and correlations over per-rank and
//! per-step slices, so these operate on plain `&[f64]` without copying when
//! possible (a percentile selects in one copy of its input).

/// Arithmetic mean; 0.0 for empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance; 0.0 for inputs with < 2 elements.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn stddev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Coefficient of variation (stddev / mean); 0.0 when the mean is 0.
///
/// The paper uses relative variance of rankwise communication times as the
/// "telemetry structure" signal that tuning progressively clarifies (Fig. 3).
pub fn coeff_of_variation(xs: &[f64]) -> f64 {
    let m = mean(xs);
    if m == 0.0 {
        0.0
    } else {
        stddev(xs) / m
    }
}

/// Maximum value; 0.0 for empty input.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max)
        .max(0.0)
}

/// Minimum value; 0.0 for empty input.
pub fn min(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// `q`-quantile (0 ≤ q ≤ 1) with linear interpolation, selecting in a copy:
/// the two order statistics [`percentile_sorted`] would read are found in
/// O(n) — the lower one by selection, the next as the least element of the
/// partition above it — instead of sorting the whole copy.
///
/// # Panics
/// If `xs` holds a NaN and more than one element.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let cmp = |a: &f64, b: &f64| a.partial_cmp(b).expect("no NaNs in telemetry");
    let mut v = xs.to_vec();
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let (_, &mut at_lo, above) = v.select_nth_unstable_by(lo, cmp);
    if lo == hi {
        return at_lo;
    }
    let at_hi = above.iter().copied().min_by(cmp).expect("hi is in bounds");
    let frac = pos - lo as f64;
    at_lo * (1.0 - frac) + at_hi * frac
}

/// `q`-quantile of an already-sorted slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median (50th percentile).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Pearson correlation coefficient of two equal-length series.
///
/// Returns 0.0 when either series is constant or lengths differ/empty —
/// callers treat "no correlation measurable" the same as "none".
///
/// This is the paper's Fig. 1a metric: correlation between communication
/// time and message volume is the litmus test of telemetry reliability.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    if xs.len() != ys.len() || xs.len() < 2 {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        cov += dx * dy;
        vx += dx * dx;
        vy += dy * dy;
    }
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

/// Simple equal-width histogram over `[lo, hi)` with `bins` buckets.
/// Out-of-range values are clamped into the edge buckets.
pub fn histogram(xs: &[f64], lo: f64, hi: f64, bins: usize) -> Vec<usize> {
    assert!(bins > 0 && hi > lo);
    let mut counts = vec![0usize; bins];
    let width = (hi - lo) / bins as f64;
    for &x in xs {
        let mut b = ((x - lo) / width).floor() as isize;
        b = b.clamp(0, bins as isize - 1);
        counts[b as usize] += 1;
    }
    counts
}

/// Summary statistics bundle, convenient for report rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub mean: f64,
    pub stddev: f64,
    pub min: f64,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    pub max: f64,
}

impl Summary {
    /// Compute all summary statistics in one pass + one sort.
    pub fn of(xs: &[f64]) -> Summary {
        if xs.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                stddev: 0.0,
                min: 0.0,
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
                max: 0.0,
            };
        }
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in telemetry"));
        Summary {
            count: xs.len(),
            mean: mean(xs),
            stddev: stddev(xs),
            min: sorted[0],
            p50: percentile_sorted(&sorted, 0.50),
            p95: percentile_sorted(&sorted, 0.95),
            p99: percentile_sorted(&sorted, 0.99),
            max: sorted[sorted.len() - 1],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_basics() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 4.0).abs() < 1e-12);
        assert!((stddev(&xs) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton_are_safe() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[3.0]), 0.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(pearson(&[], &[]), 0.0);
        assert_eq!(max(&[]), 0.0);
        assert_eq!(min(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((percentile(&xs, 0.0) - 1.0).abs() < 1e-12);
        assert!((percentile(&xs, 1.0) - 4.0).abs() < 1e-12);
        assert!((percentile(&xs, 0.5) - 2.5).abs() < 1e-12);
        assert!((median(&[5.0, 1.0, 3.0]) - 3.0).abs() < 1e-12);
    }

    /// Selection reads the order statistics a sort would: bit for bit, on
    /// random inputs of odd and even length with and without duplicates.
    #[test]
    fn percentile_selects_what_a_sort_reads() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for n in 1..=64usize {
            for dups in [false, true] {
                let xs: Vec<f64> = (0..n)
                    .map(|_| match dups {
                        true => (next() % 5) as f64,
                        false => (next() >> 11) as f64 / (1u64 << 53) as f64 * 1.0e6,
                    })
                    .collect();
                let mut sorted = xs.clone();
                sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
                for q in [0.0, 0.25, 0.5, 0.95, 1.0] {
                    assert_eq!(
                        percentile(&xs, q).to_bits(),
                        percentile_sorted(&sorted, q).to_bits(),
                        "n = {n}, duplicates = {dups}, q = {q}"
                    );
                }
                assert_eq!(
                    median(&xs).to_bits(),
                    percentile_sorted(&sorted, 0.5).to_bits()
                );
            }
        }
    }

    /// As the sort did: a NaN first, middle or last among two or more
    /// values panics, by name, at the ends and the median.
    #[test]
    fn percentile_rejects_nan_wherever_it_sits() {
        for n in [2usize, 5, 12] {
            for at in [0, n / 2, n - 1] {
                let mut xs: Vec<f64> = (0..n).map(|i| ((i * 7) % n) as f64).collect();
                xs[at] = f64::NAN;
                for q in [0.0, 0.5, 1.0] {
                    let err = std::panic::catch_unwind(|| percentile(&xs, q))
                        .expect_err("a NaN must not be ranked");
                    let msg = err.downcast_ref::<String>().map(String::as_str);
                    assert!(
                        msg.is_some_and(|m| m.contains("no NaNs in telemetry")),
                        "n = {n}, NaN at {at}, q = {q}: {msg:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn pearson_perfect_and_anti() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&xs, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_series_is_zero() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn histogram_counts_and_clamps() {
        let xs = [0.1, 0.1, 0.5, 0.9, -5.0, 99.0];
        let h = histogram(&xs, 0.0, 1.0, 2);
        assert_eq!(h, vec![3, 3]);
    }

    #[test]
    fn coeff_of_variation_scales() {
        let tight = [10.0, 10.1, 9.9];
        let loose = [10.0, 20.0, 0.1];
        assert!(coeff_of_variation(&tight) < coeff_of_variation(&loose));
    }

    #[test]
    fn summary_fields_consistent() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.count, 100);
        assert!((s.mean - 50.5).abs() < 1e-12);
        assert!((s.p50 - 50.5).abs() < 1e-9);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!(s.p95 > s.p50 && s.p99 > s.p95);
    }
}
