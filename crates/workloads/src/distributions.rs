//! Synthetic block-cost distributions for `scalebench` (§VI-C).
//!
//! The paper draws block costs "from three representative distributions —
//! exponential, Gaussian, and power-law — with variability bounds chosen to
//! create meaningful balancing opportunities while remaining within
//! realistic AMR ranges". Samplers are hand-rolled on `rand` (inverse-CDF
//! for exponential/Pareto, Box–Muller for the Gaussian) to keep the
//! dependency set minimal; all outputs are clamped to a positive range so
//! costs stay physical.

use rand::Rng;

/// A block-cost distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CostDistribution {
    /// Exponential with the given mean.
    Exponential { mean: f64 },
    /// Gaussian truncated at `min` (re-clamped, not re-sampled).
    Gaussian { mean: f64, stddev: f64, min: f64 },
    /// Pareto (power-law) with scale `xmin` and shape `alpha` (> 1 for a
    /// finite mean). Heavy tail: a few very expensive blocks.
    PowerLaw { xmin: f64, alpha: f64 },
}

impl CostDistribution {
    /// The paper's three `scalebench` distributions, normalized to a unit
    /// mean so makespans are comparable across them.
    pub fn scalebench_suite() -> [CostDistribution; 3] {
        [
            CostDistribution::Exponential { mean: 1.0 },
            CostDistribution::Gaussian {
                mean: 1.0,
                stddev: 0.3,
                min: 0.05,
            },
            // alpha = 2.5, xmin chosen so the mean alpha*xmin/(alpha-1) = 1.
            CostDistribution::PowerLaw {
                xmin: 0.6,
                alpha: 2.5,
            },
        ]
    }

    /// Short label for report tables.
    pub fn label(&self) -> &'static str {
        match self {
            CostDistribution::Exponential { .. } => "exponential",
            CostDistribution::Gaussian { .. } => "gaussian",
            CostDistribution::PowerLaw { .. } => "power-law",
        }
    }

    /// Draw one sample.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        match *self {
            CostDistribution::Exponential { mean } => {
                // Inverse CDF: -mean * ln(1 - u), u in [0, 1).
                let u: f64 = rng.gen();
                -mean * (1.0 - u).ln()
            }
            CostDistribution::Gaussian { mean, stddev, min } => {
                // Box–Muller transform.
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen();
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                (mean + stddev * z).max(min)
            }
            CostDistribution::PowerLaw { xmin, alpha } => {
                // Inverse CDF of Pareto: xmin * (1 - u)^(-1/alpha).
                let u: f64 = rng.gen();
                xmin * (1.0 - u).powf(-1.0 / alpha)
            }
        }
    }

    /// Draw `n` samples.
    pub fn sample_vec<R: Rng>(&self, n: usize, rng: &mut R) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Theoretical mean (for sanity checks).
    pub fn mean(&self) -> f64 {
        match *self {
            CostDistribution::Exponential { mean } => mean,
            // Truncation bias ignored: min is far in the tail for our params.
            CostDistribution::Gaussian { mean, .. } => mean,
            CostDistribution::PowerLaw { xmin, alpha } => {
                assert!(alpha > 1.0);
                alpha * xmin / (alpha - 1.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn empirical_mean(d: CostDistribution, n: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        d.sample_vec(n, &mut rng).iter().sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean_matches() {
        let d = CostDistribution::Exponential { mean: 2.0 };
        let m = empirical_mean(d, 100_000, 1);
        assert!((m - 2.0).abs() < 0.05, "mean = {m}");
    }

    #[test]
    fn gaussian_mean_and_spread() {
        let d = CostDistribution::Gaussian {
            mean: 5.0,
            stddev: 1.0,
            min: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(2);
        let xs = d.sample_vec(100_000, &mut rng);
        let m = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((m - 5.0).abs() < 0.05, "mean = {m}");
        let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
        assert!((var.sqrt() - 1.0).abs() < 0.05);
    }

    #[test]
    fn gaussian_respects_floor() {
        let d = CostDistribution::Gaussian {
            mean: 0.1,
            stddev: 2.0,
            min: 0.05,
        };
        let mut rng = StdRng::seed_from_u64(3);
        assert!(d.sample_vec(10_000, &mut rng).iter().all(|&x| x >= 0.05));
    }

    #[test]
    fn powerlaw_mean_and_tail() {
        let d = CostDistribution::PowerLaw {
            xmin: 0.6,
            alpha: 2.5,
        };
        let m = empirical_mean(d, 200_000, 4);
        assert!((m - d.mean()).abs() < 0.05, "mean = {m} vs {}", d.mean());
        // Heavy tail: max sample far above the mean.
        let mut rng = StdRng::seed_from_u64(5);
        let xs = d.sample_vec(100_000, &mut rng);
        let max = xs.iter().cloned().fold(0.0, f64::max);
        assert!(max > 5.0 * d.mean());
        assert!(xs.iter().all(|&x| x >= 0.6));
    }

    #[test]
    fn suite_is_unit_mean() {
        for d in CostDistribution::scalebench_suite() {
            assert!((d.mean() - 1.0).abs() < 1e-9, "{}", d.label());
            let m = empirical_mean(d, 100_000, 6);
            assert!((m - 1.0).abs() < 0.1, "{}: {m}", d.label());
        }
    }

    #[test]
    fn all_samples_positive() {
        let mut rng = StdRng::seed_from_u64(7);
        for d in CostDistribution::scalebench_suite() {
            assert!(d.sample_vec(10_000, &mut rng).iter().all(|&x| x > 0.0));
        }
    }

    #[test]
    fn labels_distinct() {
        let labels: std::collections::HashSet<_> = CostDistribution::scalebench_suite()
            .iter()
            .map(|d| d.label())
            .collect();
        assert_eq!(labels.len(), 3);
    }

    #[test]
    fn deterministic_given_seed() {
        let d = CostDistribution::Exponential { mean: 1.0 };
        let mut a = StdRng::seed_from_u64(8);
        let mut b = StdRng::seed_from_u64(8);
        assert_eq!(d.sample_vec(100, &mut a), d.sample_vec(100, &mut b));
    }
}
