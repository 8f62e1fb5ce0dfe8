//! Bench-side span recording: every span is opened here, around a call into
//! one of the library crates' public functions, never inside them (in-program
//! spans are a later issue).
//!
//! A span is name, start, end, parent and round id. The benchmark is one
//! closed loop on the main thread, so the recorder is one process-wide
//! open-span stack behind an (uncontended) mutex; the wrappers the simulator
//! and the service call back into ([`crate::timed`]) reach it without holding
//! a reference, and stay `Send + Sync`. While recording is off — every
//! untraced round — opening a span is one relaxed atomic load. Spans of the
//! round in flight sit in a buffer allocated once; at the end of each round
//! they are folded into per-name totals and the buffer is reused, so a traced
//! run's memory does not grow with its length. The first [`KEPT_ROUNDS`]
//! traced rounds are also kept verbatim for the Chrome trace-event file.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Traced rounds kept span-by-span for the trace file.
pub const KEPT_ROUNDS: u32 = 4;
/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;
/// Most spans one round records (`service_mix`: ~11 k); allocated once.
const ROUND_CAPACITY: usize = 1 << 15;

/// One recorded interval, nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (within the same round) of the span that was open when this one
    /// began, or [`NO_PARENT`].
    pub parent: u32,
    pub round: u32,
}

/// Per-name totals of one round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Sum of the spans' durations.
    pub total_ns: u64,
    /// Sum of the spans' durations minus what their child spans cover.
    pub self_ns: u64,
    pub count: u64,
    /// The part of `total_ns` recorded below the round's `setup` span and
    /// below its `pass` span (layer shares of the two timed intervals).
    pub in_setup_ns: u64,
    pub in_pass_ns: u64,
}

pub type RoundTotals = BTreeMap<&'static str, NameTotals>;

struct Recorder {
    /// Set by the first `begin_round`; span times count from it.
    epoch: Option<Instant>,
    round: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
    kept: Vec<Span>,
    kept_rounds: u32,
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.map_or(0, |e| e.elapsed().as_nanos() as u64)
    }
}

/// Is a round being recorded? Relaxed: it publishes nothing — the recorder's
/// data is only ever reached through the mutex.
static ENABLED: AtomicBool = AtomicBool::new(false);

static REC: Mutex<Recorder> = Mutex::new(Recorder {
    epoch: None,
    round: 0,
    spans: Vec::new(),
    open: Vec::new(),
    kept: Vec::new(),
    kept_rounds: 0,
});

fn recorder() -> MutexGuard<'static, Recorder> {
    REC.lock()
        .expect("span recorder lock: a thread panicked while recording")
}

/// Closes its span when dropped.
#[must_use = "a span ends when its guard is dropped"]
pub struct Guard {
    active: bool,
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let mut r = recorder();
        let now = r.now_ns();
        if let Some(i) = r.open.pop() {
            r.spans[i as usize].end_ns = now;
        }
    }
}

/// Open a span under the innermost open one. A no-op while recording is off,
/// which is the state of every untraced round.
pub fn span(name: &'static str) -> Guard {
    if !ENABLED.load(Relaxed) {
        return Guard { active: false };
    }
    let mut r = recorder();
    let parent = r.open.last().copied().unwrap_or(NO_PARENT);
    let round = r.round;
    let start_ns = r.now_ns();
    let index = r.spans.len() as u32;
    r.spans.push(Span {
        name,
        start_ns,
        end_ns: start_ns,
        parent,
        round,
    });
    r.open.push(index);
    Guard { active: true }
}

/// Start recording round `round` (allocates the round buffer on first use).
pub fn begin_round(round: u32) {
    let mut r = recorder();
    if r.epoch.is_none() {
        r.epoch = Some(Instant::now());
        r.spans.reserve_exact(ROUND_CAPACITY);
        r.open.reserve_exact(64);
    }
    r.round = round;
    ENABLED.store(true, Relaxed);
}

/// Stop recording and fold the finished round into per-name totals.
pub fn end_round() -> RoundTotals {
    ENABLED.store(false, Relaxed);
    let mut r = recorder();
    debug_assert!(r.open.is_empty(), "span left open across a round");
    let totals = aggregate(&r.spans);
    if r.kept_rounds < KEPT_ROUNDS {
        r.kept_rounds += 1;
        let base = r.kept.len() as u32;
        let Recorder { spans, kept, .. } = &mut *r;
        kept.extend(spans.iter().map(|s| Span {
            parent: if s.parent == NO_PARENT {
                NO_PARENT
            } else {
                s.parent + base
            },
            ..*s
        }));
    }
    r.spans.clear();
    totals
}

/// Per-name totals of a set of spans whose `parent` fields index into the
/// same slice. Self time = duration − the sum of the direct children's
/// durations (children of one parent never overlap: one thread, one stack).
pub fn aggregate(spans: &[Span]) -> RoundTotals {
    #[derive(Clone, Copy, PartialEq)]
    enum Under {
        Neither,
        Setup,
        Pass,
    }
    let mut children_ns = vec![0u64; spans.len()];
    // A parent is recorded before its children, so one forward pass settles
    // which timed interval each span lies under.
    let mut under = vec![Under::Neither; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.parent != NO_PARENT {
            children_ns[s.parent as usize] += s.end_ns - s.start_ns;
            under[i] = match spans[s.parent as usize].name {
                "setup" => Under::Setup,
                "pass" => Under::Pass,
                _ => under[s.parent as usize],
            };
        }
    }
    let mut totals = RoundTotals::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns - s.start_ns;
        let t = totals.entry(s.name).or_default();
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(children_ns[i]);
        t.count += 1;
        match under[i] {
            Under::Setup => t.in_setup_ns += dur,
            Under::Pass => t.in_pass_ns += dur,
            Under::Neither => {}
        }
    }
    totals
}

/// Write the kept rounds as Chrome trace-event JSON (`chrome://tracing`,
/// Perfetto): complete events, microseconds, one process, one thread.
pub fn write_chrome_trace(path: &std::path::Path) -> std::io::Result<()> {
    let r = recorder();
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")?;
    for (i, s) in r.kept.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"round\":{}}}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i,
                parent,
                s.round,
            )?;
    }
    out.write_all(b"]}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            round: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        // round[0,100] ▸ pass[10,90] ▸ {sim.run[10,60] ▸ advance[20,30], advance[40,45]; query[60,80]}
        let spans = [
            s("round", 0, 100, NO_PARENT),
            s("pass", 10, 90, 0),
            s("sim.run", 10, 60, 1),
            s("workloads.advance", 20, 30, 2),
            s("workloads.advance", 40, 45, 2),
            s("telemetry.query", 60, 80, 1),
        ];
        let t = aggregate(&spans);
        assert_eq!(t["round"].self_ns, 20);
        assert_eq!(t["pass"].total_ns, 80);
        assert_eq!(t["pass"].self_ns, 10);
        assert_eq!(t["sim.run"].self_ns, 35);
        assert_eq!(
            t["workloads.advance"],
            NameTotals {
                total_ns: 15,
                self_ns: 15,
                count: 2,
                in_setup_ns: 0,
                in_pass_ns: 15,
            }
        );
        assert_eq!(t["sim.run"].in_pass_ns, 50);
        assert_eq!(t["pass"].in_pass_ns, 0);
        // Self times partition the root: nothing is counted twice or lost.
        let sum: u64 = t.values().map(|n| n.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn recorder_nests_and_resets_between_rounds() {
        begin_round(7);
        {
            let _round = span("round");
            {
                let _a = span("a");
                let _b = span("b");
            }
            let _c = span("a");
        }
        let t = end_round();
        assert_eq!(t["round"].count, 1);
        assert_eq!(t["a"].count, 2);
        assert_eq!(t["b"].count, 1);
        assert!(t["round"].total_ns >= t["a"].total_ns);
        // Recording is off between rounds: nothing is captured.
        drop(span("ignored"));
        begin_round(8);
        drop(span("only"));
        let t = end_round();
        assert_eq!(t.len(), 1);
        assert_eq!(t["only"].count, 1);
    }
}
