//! What the benchmark reads from the host it runs on: a fixed health-probe
//! kernel, the peak resident set, and a description line for the report.

use std::hint::black_box;

const WORDS: usize = 1 << 18; // 2 MiB: larger than L2, strided so it misses it
const STRIDE: usize = 4099; // odd, so the walk visits every word once
const MIX_ITERS: u32 = 1_400_000;

/// What the probe takes on the reference host in its fast regime. Only a
/// scale factor: it puts probe-normalised times back into milliseconds.
pub const PROBE_REFERENCE_NS: f64 = 3.3e6;

/// Fixed integer + strided-memory kernel (~3 ms), in the spirit of the
/// simulator's `run_health_check`: a known amount of work, run once per
/// round between set-up and pass, whose duration says how fast the host was
/// when the round ran. Every timed sample of the round is scaled by
/// `PROBE_REFERENCE_NS / probe time` before the median over rounds is taken
/// (README, noise study); the raw times are reported beside it
/// (`bench.calib_*`, `bench.pass_floor_ms`, `bench.slow_share`). It never
/// filters, retries or waits.
pub struct HealthProbe {
    buf: Vec<u64>,
}

impl Default for HealthProbe {
    fn default() -> HealthProbe {
        HealthProbe {
            buf: (0..WORDS as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
        }
    }
}

impl HealthProbe {
    /// Run the kernel once; the checksum only keeps the work alive.
    pub fn run(&mut self) -> u64 {
        let mut x = black_box(0x243F_6A88_85A3_08D3u64);
        for _ in 0..MIX_ITERS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x ^= x >> 29;
        }
        let mut acc = x;
        let mut i = 0usize;
        for _ in 0..WORDS {
            i = (i + STRIDE) & (WORDS - 1);
            acc = acc.rotate_left(7) ^ self.buf[i];
            self.buf[i] = acc;
        }
        black_box(acc)
    }
}

/// Peak resident set (`VmHWM`) of this process in MB; `None` where
/// `/proc/self/status` is not readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `nproc` as the standard library sees it (reported with every result: the
/// neighbor-graph build takes its second thread from it).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// First `model name` of `/proc/cpuinfo`, or "unknown".
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}
