//! The Djit⁺-style vector-clock happens-before detector.

use rapid_trace::{
    Event, EventId, EventKind, LastAccesses, Race, RaceKind, RaceReport, RaceSink, Trace,
};
use rapid_vc::{ThreadId, VectorClock};

use crate::sync::{dense_slot, SyncClocks};

/// The vector-clock happens-before race detector (Djit⁺ style).
///
/// The detector performs a single forward pass over the trace, maintaining a
/// vector clock `C_t` per thread and `L_l` per lock.  An access is in race
/// with an earlier conflicting access `a` (by thread `u`) iff the local time
/// of `a` exceeds `C_t(u)` at the time of the access — i.e. the two are
/// unordered by HB.
#[derive(Debug, Default, Clone)]
pub struct HbDetector {
    _private: (),
}

/// The HB timestamps (`C_e` for every event `e`) of a trace, mainly used by
/// tests and the reference closure comparison.
#[derive(Debug, Clone)]
pub struct HbTimestamps {
    clocks: Vec<VectorClock>,
}

impl HbTimestamps {
    /// The HB time of event `e`.
    pub fn clock(&self, event: EventId) -> &VectorClock {
        &self.clocks[event.index()]
    }

    /// Returns true when `a` happens before (or equals) `b` according to the
    /// computed timestamps, for `a` earlier than `b` in trace order.
    pub fn ordered(&self, a: EventId, b: EventId) -> bool {
        self.clock(a).le(self.clock(b))
    }

    /// Number of events timestamped.
    pub fn len(&self) -> usize {
        self.clocks.len()
    }

    /// Returns true when no event was timestamped.
    pub fn is_empty(&self) -> bool {
        self.clocks.is_empty()
    }
}

/// The last read and last write of each thread to one variable.
#[derive(Debug, Default)]
struct VarHistory {
    reads: LastAccesses,
    writes: LastAccesses,
    /// The first thread to access the variable.
    first: Option<ThreadId>,
    /// A second thread has accessed the variable.  Until then every stored
    /// access is the accessing thread's own and no scan can find a race.
    shared: bool,
}

/// The push-based streaming core of the Djit⁺ HB detector.
///
/// Feed events in trace order with [`HbStream::on_event`]; each call returns
/// the races detected *at* that event, and [`HbStream::sink`] holds the
/// per-pair race stats of the whole stream.  State is
/// `O(threads · (threads + variables + locks))` plus one entry per distinct
/// race pair — independent of trace length — and threads are discovered as
/// their events arrive, so the stream can run over a trace file without
/// ever materializing a [`Trace`].  [`HbDetector::detect`] is a thin wrapper
/// that streams a materialized trace through this core (batch = stream +
/// collect).
#[derive(Debug)]
pub struct HbStream {
    sync: SyncClocks,
    /// Access history, dense by variable index.
    vars: Vec<VarHistory>,
    sink: RaceSink,
    events: usize,
}

impl Default for HbStream {
    fn default() -> Self {
        HbStream::new()
    }
}

impl HbStream {
    /// Creates a stream that discovers threads on the fly.
    pub fn new() -> Self {
        HbStream::with_threads(0)
    }

    /// Creates a stream pre-sized for `threads` threads (identical results;
    /// avoids re-allocation when the count is known up front).
    pub fn with_threads(threads: usize) -> Self {
        HbStream {
            sync: SyncClocks::with_threads(threads),
            vars: Vec::new(),
            sink: RaceSink::new(),
            events: 0,
        }
    }

    /// Processes one event, returning the races detected at it.
    pub fn on_event(&mut self, event: &Event) -> &[Race] {
        self.sink.begin_event();
        self.events += 1;
        let thread = event.thread();
        let (var, write) = match event.kind() {
            EventKind::Read(var) => (var, false),
            EventKind::Write(var) => (var, true),
            kind => {
                self.sync.synchronize(thread, kind);
                return self.sink.fresh();
            }
        };
        let HbStream { sync, vars, sink, .. } = self;
        let clock = sync.clock(thread);
        let history = dense_slot(vars, var.index());
        match history.first {
            None => history.first = Some(thread),
            Some(first) => history.shared |= first != thread,
        }
        // A write conflicts with earlier reads and writes; a read only with
        // earlier writes.
        if history.shared {
            history.writes.record_races(clock, event, var, RaceKind::Hb, sink);
            if write {
                history.reads.record_races(clock, event, var, RaceKind::Hb, sink);
            }
        }
        let own = if write { &mut history.writes } else { &mut history.reads };
        own.store(thread.index(), clock.get(thread), event);
        sink.fresh()
    }

    /// The HB timestamp `C_e` of the event just processed — the thread's
    /// clock after the event, with the post-event increment of releases and
    /// forks undone (those events belong to the old local time).
    pub fn timestamp_of_last(&mut self, event: &Event) -> VectorClock {
        let thread = event.thread();
        let mut clock = self.sync.clock(thread).clone();
        if matches!(event.kind(), EventKind::Release(_) | EventKind::Fork(_)) {
            let current = clock.get(thread);
            clock.set(thread, current - 1);
        }
        clock
    }

    /// Number of events processed so far.
    pub fn events_seen(&self) -> usize {
        self.events
    }

    /// The stream's race accounting: per-pair stats and the races of the
    /// last event.
    pub fn sink(&self) -> &RaceSink {
        &self.sink
    }

    /// The run's typed counters so far.
    pub fn stats(&self) -> HbStats {
        HbStats { events: self.events, race_events: self.sink.race_events() }
    }
}

/// Typed, mergeable counters describing one HB-family streaming run
/// ([`HbStream`] or [`FastTrackStream`](crate::FastTrackStream)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HbStats {
    /// Number of events processed.
    pub events: usize,
    /// Number of race events reported (not deduplicated by location pair).
    pub race_events: usize,
}

impl HbStats {
    /// Folds another run's counters into this one (both fields sum).
    pub fn merge(&mut self, other: &HbStats) {
        self.events += other.events;
        self.race_events += other.race_events;
    }
}

#[cfg(test)]
mod stats_tests {
    use super::HbStats;

    #[test]
    fn merge_sums_both_fields() {
        let mut left = HbStats { events: 10, race_events: 2 };
        left.merge(&HbStats { events: 5, race_events: 1 });
        assert_eq!(left, HbStats { events: 15, race_events: 3 });
    }
}

impl HbDetector {
    /// Creates a detector.
    pub fn new() -> Self {
        HbDetector::default()
    }

    /// Runs the analysis over `trace` and reports all HB races.
    pub fn detect(&self, trace: &Trace) -> RaceReport {
        self.run(trace, false).0
    }

    /// Runs the analysis and additionally returns the HB timestamp of every
    /// event (linear memory; intended for tests and cross-checks).
    pub fn detect_with_timestamps(&self, trace: &Trace) -> (RaceReport, HbTimestamps) {
        let (report, clocks) = self.run(trace, true);
        (report, HbTimestamps { clocks: clocks.expect("timestamps requested") })
    }

    fn run(&self, trace: &Trace, keep_timestamps: bool) -> (RaceReport, Option<Vec<VectorClock>>) {
        let mut stream = HbStream::with_threads(trace.num_threads());
        let mut report = RaceReport::new();
        let mut timestamps = keep_timestamps.then(|| Vec::with_capacity(trace.len()));

        for event in trace.events() {
            report.extend(stream.on_event(event));
            if let Some(timestamps) = timestamps.as_mut() {
                timestamps.push(stream.timestamp_of_last(event));
            }
        }
        (report, timestamps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_gen::figures;
    use rapid_trace::TraceBuilder;

    #[test]
    fn detects_textbook_unprotected_race() {
        let mut b = TraceBuilder::new();
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        let x = b.variable("x");
        b.write(t1, x);
        b.write(t2, x);
        let report = HbDetector::new().detect(&b.finish());
        assert_eq!(report.len(), 1);
        assert_eq!(report.distinct_pairs(), 1);
    }

    #[test]
    fn lock_protected_accesses_do_not_race() {
        let mut b = TraceBuilder::new();
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        let l = b.lock("l");
        let x = b.variable("x");
        b.critical_section(t1, l, |b| {
            b.write(t1, x);
        });
        b.critical_section(t2, l, |b| {
            b.write(t2, x);
        });
        let report = HbDetector::new().detect(&b.finish());
        assert!(report.is_empty());
    }

    #[test]
    fn same_thread_accesses_never_race() {
        let mut b = TraceBuilder::new();
        let t = b.thread("t");
        let x = b.variable("x");
        b.write(t, x);
        b.read(t, x);
        b.write(t, x);
        assert!(HbDetector::new().detect(&b.finish()).is_empty());
    }

    #[test]
    fn read_read_sharing_is_not_a_race() {
        let mut b = TraceBuilder::new();
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        let x = b.variable("x");
        b.read(t1, x);
        b.read(t2, x);
        assert!(HbDetector::new().detect(&b.finish()).is_empty());
    }

    #[test]
    fn fork_join_create_order() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main");
        let worker = b.thread("worker");
        let x = b.variable("x");
        b.write(main, x);
        b.fork(main, worker);
        b.write(worker, x);
        b.join(main, worker);
        b.write(main, x);
        assert!(HbDetector::new().detect(&b.finish()).is_empty());
    }

    #[test]
    fn missing_fork_edge_races() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main");
        let worker = b.thread("worker");
        let x = b.variable("x");
        b.write(main, x);
        b.write(worker, x);
        b.join(main, worker);
        b.write(main, x);
        let report = HbDetector::new().detect(&b.finish());
        // Only the first pair is unordered; after join the main write is
        // ordered after the worker write.
        assert_eq!(report.distinct_pairs(), 1);
    }

    #[test]
    fn matches_paper_expectations_on_all_figures() {
        for figure in figures::paper_figures() {
            let report = HbDetector::new().detect(&figure.trace);
            let racy = report.races().iter().any(|race| {
                (race.first == figure.first && race.second == figure.second)
                    || (race.first == figure.second && race.second == figure.first)
            });
            assert_eq!(
                racy, figure.hb_race,
                "{}: HB verdict on the focal pair should be {}",
                figure.name, figure.hb_race
            );
        }
    }

    #[test]
    fn timestamps_reflect_hb_ordering() {
        let figure = figures::figure_1b();
        let (_, timestamps) = HbDetector::new().detect_with_timestamps(&figure.trace);
        assert_eq!(timestamps.len(), figure.trace.len());
        assert!(!timestamps.is_empty());
        // Thread order is always preserved.
        assert!(timestamps.ordered(rapid_trace::EventId::new(0), rapid_trace::EventId::new(1)));
        // rel(l) by t1 (event 3) happens before acq(l) by t2 (event 4).
        assert!(timestamps.ordered(rapid_trace::EventId::new(3), rapid_trace::EventId::new(4)));
        // w(y) and r(y) are HB ordered in Figure 1b (that is why HB misses it).
        assert!(timestamps.ordered(figure.first, figure.second));
    }

    #[test]
    fn race_distance_is_reported() {
        let mut b = TraceBuilder::new();
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        let x = b.variable("x");
        let local = b.variable("local");
        b.write(t1, x);
        for _ in 0..100 {
            b.read(t1, local);
        }
        b.write(t2, x);
        let report = HbDetector::new().detect(&b.finish());
        assert_eq!(report.len(), 1);
        assert_eq!(report.max_distance(), 101);
    }
}
