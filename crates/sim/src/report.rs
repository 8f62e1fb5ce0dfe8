//! Run reports: the phase decomposition the paper's Fig. 6a plots.

/// Per-run phase totals, expressed as *mean time per rank* in nanoseconds so
/// that the components sum to (approximately) the run's wall time:
/// `compute + comm + sync + redist ≈ total`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Physics/mesh kernels.
    pub compute_ns: f64,
    /// Boundary communication: send dispatch, receive service, queue
    /// contention, and point-to-point wait.
    pub comm_ns: f64,
    /// Blocking-collective wait (the paper's "synchronization").
    pub sync_ns: f64,
    /// Redistribution: placement computation + block migration.
    pub redist_ns: f64,
}

impl PhaseBreakdown {
    /// Sum of all phases.
    pub fn total_ns(&self) -> f64 {
        self.compute_ns + self.comm_ns + self.sync_ns + self.redist_ns
    }

    /// Fraction of total spent in a synchronization.
    pub fn sync_fraction(&self) -> f64 {
        let t = self.total_ns();
        if t == 0.0 {
            0.0
        } else {
            self.sync_ns / t
        }
    }

    /// Non-compute time (the paper reports CPLX's reduction of this too).
    pub fn non_compute_ns(&self) -> f64 {
        self.comm_ns + self.sync_ns + self.redist_ns
    }

    /// Add another breakdown (accumulation across steps).
    pub fn accumulate(&mut self, other: &PhaseBreakdown) {
        self.compute_ns += other.compute_ns;
        self.comm_ns += other.comm_ns;
        self.sync_ns += other.sync_ns;
        self.redist_ns += other.redist_ns;
    }

    /// Scale all phases (e.g. ns → seconds or per-rank normalization).
    pub fn scaled(&self, f: f64) -> PhaseBreakdown {
        PhaseBreakdown {
            compute_ns: self.compute_ns * f,
            comm_ns: self.comm_ns * f,
            sync_ns: self.sync_ns * f,
            redist_ns: self.redist_ns * f,
        }
    }
}

/// Message-volume totals by locality class, accumulated over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MessageTotals {
    /// Same-rank memcpys (not MPI-visible).
    pub intra: u64,
    /// Same-node MPI messages (shared memory).
    pub local: u64,
    /// Cross-node MPI messages (fabric).
    pub remote: u64,
}

impl MessageTotals {
    /// MPI-visible messages.
    pub fn mpi(&self) -> u64 {
        self.local + self.remote
    }

    /// Remote share of MPI-visible messages.
    pub fn remote_fraction(&self) -> f64 {
        if self.mpi() == 0 {
            0.0
        } else {
            self.remote as f64 / self.mpi() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_fractions() {
        let p = PhaseBreakdown {
            compute_ns: 50.0,
            comm_ns: 10.0,
            sync_ns: 35.0,
            redist_ns: 5.0,
        };
        assert_eq!(p.total_ns(), 100.0);
        assert!((p.sync_fraction() - 0.35).abs() < 1e-12);
        assert_eq!(p.non_compute_ns(), 50.0);
    }

    #[test]
    fn accumulate_and_scale() {
        let mut a = PhaseBreakdown::default();
        let b = PhaseBreakdown {
            compute_ns: 1.0,
            comm_ns: 2.0,
            sync_ns: 3.0,
            redist_ns: 4.0,
        };
        a.accumulate(&b);
        a.accumulate(&b);
        assert_eq!(a.total_ns(), 20.0);
        let half = a.scaled(0.5);
        assert_eq!(half.total_ns(), 10.0);
    }

    #[test]
    fn message_totals() {
        let m = MessageTotals {
            intra: 10,
            local: 30,
            remote: 70,
        };
        assert_eq!(m.mpi(), 100);
        assert!((m.remote_fraction() - 0.7).abs() < 1e-12);
        assert_eq!(MessageTotals::default().remote_fraction(), 0.0);
    }
}

impl PhaseBreakdown {
    /// Render as a proportional ASCII bar (`#` compute, `~` comm, `=` sync,
    /// `%` redist), the terminal cousin of Fig. 6a's stacked bars.
    pub fn render_bar(&self, width: usize) -> String {
        let total = self.total_ns();
        if total <= 0.0 || width == 0 {
            return String::new();
        }
        let mut bar = String::with_capacity(width);
        let segments = [
            (self.compute_ns, '#'),
            (self.comm_ns, '~'),
            (self.sync_ns, '='),
            (self.redist_ns, '%'),
        ];
        let mut emitted = 0usize;
        for (i, (value, ch)) in segments.iter().enumerate() {
            let cells = if i == segments.len() - 1 {
                width - emitted // last segment absorbs rounding
            } else {
                (value / total * width as f64).round() as usize
            };
            let cells = cells.min(width - emitted);
            bar.extend(std::iter::repeat_n(*ch, cells));
            emitted += cells;
        }
        bar
    }
}

#[cfg(test)]
mod bar_tests {
    use super::*;

    #[test]
    fn bar_is_exactly_width_and_proportional() {
        let p = PhaseBreakdown {
            compute_ns: 50.0,
            comm_ns: 10.0,
            sync_ns: 35.0,
            redist_ns: 5.0,
        };
        let bar = p.render_bar(40);
        assert_eq!(bar.len(), 40);
        assert_eq!(bar.matches('#').count(), 20);
        assert_eq!(bar.matches('~').count(), 4);
        assert_eq!(bar.matches('=').count(), 14);
        assert_eq!(bar.matches('%').count(), 2);
    }

    #[test]
    fn degenerate_bars() {
        assert_eq!(PhaseBreakdown::default().render_bar(10), "");
        let p = PhaseBreakdown {
            compute_ns: 1.0,
            ..PhaseBreakdown::default()
        };
        assert_eq!(p.render_bar(0), "");
        let bar = p.render_bar(8);
        assert_eq!(bar, "########");
    }
}
