//! Span lanes: the one ring buffer behind [`TraceHandle`](crate::trace::TraceHandle).
//!
//! A [`WorkerLane`] is a plain-`&mut` ring of [`SpanRecord`]s with no
//! interior mutability at all, so it is `Send`, its ring is pre-allocated
//! once, and recording into a warm lane allocates nothing. The handle keeps
//! lane 0 (the owner's) behind its lock and records into it one span at a
//! time; lanes `1..` are checked out of the handle for the duration of a
//! parallel region, handed to the tasks one each — workers record lock-free
//! — and merged back into every snapshot/export afterwards.
//!
//! Worker lanes only ever hold **host-track** spans (wall-clock observations
//! of worker activity). Virtual time and metric counters stay with the
//! owner, which is what keeps traced parallel runs bit-identical to serial
//! ones: lanes observe, they never feed anything back into the simulation.

use crate::trace::{SpanRecord, TracePhase, Track};
use std::time::Instant;

/// One lane's span ring. Created and merged by
/// [`TraceHandle::ensure_lanes`](crate::trace::TraceHandle::ensure_lanes) /
/// [`snapshot_into`](crate::trace::TraceHandle::snapshot_into); handed to a
/// worker task as `&mut WorkerLane` while a parallel region runs.
#[derive(Debug)]
pub struct WorkerLane {
    /// Lane id stamped on records; the handle's owner lane is 0, worker
    /// lanes start at 1.
    lane: u16,
    /// Copy of the handle's epoch so host timestamps from every lane share
    /// one clock origin.
    epoch: Instant,
    buf: Vec<SpanRecord>,
    head: usize,
    len: usize,
    dropped: u64,
}

impl WorkerLane {
    /// Lane with `capacity` pre-allocated span slots; the oldest spans are
    /// overwritten (and counted in [`dropped`](Self::dropped)) once full.
    pub fn with_capacity(lane: u16, epoch: Instant, capacity: usize) -> WorkerLane {
        WorkerLane {
            lane,
            epoch,
            buf: vec![SpanRecord::default(); capacity],
            head: 0,
            len: 0,
            dropped: 0,
        }
    }

    /// Lane id stamped on this lane's records.
    #[inline]
    pub fn lane(&self) -> u16 {
        self.lane
    }

    /// Live span count.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Spans overwritten because the ring was full.
    #[inline]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Nanoseconds since the handle's epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a completed span. Never allocates.
    pub(crate) fn push(&mut self, rec: SpanRecord) {
        let cap = self.buf.len();
        if cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.len < cap {
            let at = (self.head + self.len) % cap;
            self.buf[at] = rec;
            self.len += 1;
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % cap;
            self.dropped += 1;
        }
    }

    /// Record a completed host-track span with explicit bounds.
    pub fn record_host(&mut self, phase: TracePhase, step: u32, start_ns: u64, dur_ns: u64) {
        self.push(SpanRecord {
            phase,
            track: Track::Host,
            step,
            lane: self.lane,
            start_ns,
            dur_ns,
        });
    }

    /// Record the host-track span that began at `start_ns` (a
    /// [`now_ns`](Self::now_ns) reading) and ends now.
    pub fn record_since(&mut self, phase: TracePhase, step: u32, start_ns: u64) {
        let dur_ns = self.now_ns().saturating_sub(start_ns);
        self.record_host(phase, step, start_ns, dur_ns);
    }

    /// Discard all spans (capacity kept).
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
        self.dropped = 0;
    }

    /// Append live spans, oldest first, onto `out` (not cleared).
    pub fn snapshot_into(&self, out: &mut Vec<SpanRecord>) {
        let cap = self.buf.len();
        for i in 0..self.len {
            out.push(self.buf[(self.head + i) % cap]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_ring_overwrites_oldest_and_counts_drops() {
        let mut lane = WorkerLane::with_capacity(3, Instant::now(), 4);
        for i in 0..10u64 {
            lane.record_host(TracePhase::Exchange, 0, i, 1);
        }
        assert_eq!(lane.len(), 4);
        assert_eq!(lane.dropped(), 6);
        let mut out = Vec::new();
        lane.snapshot_into(&mut out);
        let starts: Vec<u64> = out.iter().map(|s| s.start_ns).collect();
        assert_eq!(starts, vec![6, 7, 8, 9]);
        assert!(out.iter().all(|s| s.lane == 3 && s.track == Track::Host));
        lane.clear();
        assert!(lane.is_empty());
        assert_eq!(lane.dropped(), 0);
    }

    #[test]
    fn record_since_closes_a_span_at_now() {
        let mut lane = WorkerLane::with_capacity(1, Instant::now(), 8);
        let start_ns = lane.now_ns();
        lane.record_since(TracePhase::Exchange, 9, start_ns);
        let mut out = Vec::new();
        lane.snapshot_into(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].phase, TracePhase::Exchange);
        assert_eq!(out[0].step, 9);
        assert_eq!(out[0].lane, 1);
        assert_eq!(out[0].start_ns, start_ns);
        assert!(start_ns + out[0].dur_ns <= lane.now_ns());
    }

    #[test]
    fn zero_capacity_lane_drops_everything() {
        let mut lane = WorkerLane::with_capacity(2, Instant::now(), 0);
        lane.record_host(TracePhase::Place, 0, 0, 1);
        assert_eq!(lane.len(), 0);
        assert_eq!(lane.dropped(), 1);
    }

    #[test]
    fn lanes_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<WorkerLane>();
    }
}
