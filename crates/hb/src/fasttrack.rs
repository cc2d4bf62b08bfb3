//! FastTrack-style epoch-optimized happens-before detection.
//!
//! The paper lists "epoch based optimizations for improving memory
//! requirements" as future work (§6).  This module implements the classic
//! FastTrack optimization for the HB baseline: a variable's last write is
//! represented by a single epoch `c@t`, and its reads stay an epoch as long
//! as they are totally ordered, expanding to one last read per thread (a
//! vector clock of read times) only when reads become concurrent
//! ("read-shared").

use rapid_trace::{
    Event, EventKind, LastAccess, LastAccesses, Race, RaceKind, RaceReport, RaceSink, Trace, VarId,
};
use rapid_vc::Epoch;

use crate::sync::{dense_slot, SyncClocks};

/// Per-variable state: the last write as an epoch, and the reads — one
/// epoch while they are totally ordered, one per thread once concurrent
/// reads made them *shared*.  `reads` holds the last read of each thread in
/// the read state (only the epoch's thread while not shared), with its
/// event for race-pair reporting.
#[derive(Debug, Clone, Default)]
struct VarState {
    write: Epoch,
    write_access: Option<LastAccess>,
    read: Epoch,
    shared: bool,
    reads: LastAccesses,
}

/// The FastTrack-style epoch-optimized HB detector.
///
/// Reports the same HB races as [`crate::HbDetector`] (the epoch
/// representation is an optimization, not an approximation), while storing
/// `O(1)` state per variable in the common case.
#[derive(Debug, Default, Clone)]
pub struct FastTrackDetector {
    _private: (),
}

/// The push-based streaming core of the FastTrack detector.
///
/// Feed events in trace order with [`FastTrackStream::on_event`]; each call
/// returns the races detected at that event.  Per-variable state is a
/// single epoch in the common case, so the live footprint is
/// `O(threads + variables + locks)` plus one entry per distinct race pair —
/// independent of trace length.  [`FastTrackDetector::detect`] is a thin
/// wrapper that streams a materialized trace through this core.
#[derive(Debug)]
pub struct FastTrackStream {
    sync: SyncClocks,
    /// Per-variable state, dense by variable index.
    vars: Vec<VarState>,
    sink: RaceSink,
    events: usize,
}

impl Default for FastTrackStream {
    fn default() -> Self {
        FastTrackStream::new()
    }
}

impl FastTrackStream {
    /// Creates a stream that discovers threads on the fly.
    pub fn new() -> Self {
        FastTrackStream::with_threads(0)
    }

    /// Creates a stream pre-sized for `threads` threads.
    pub fn with_threads(threads: usize) -> Self {
        FastTrackStream {
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
        match event.kind() {
            EventKind::Read(var) => self.read(event, var),
            EventKind::Write(var) => self.write(event, var),
            kind => self.sync.synchronize(event.thread(), kind),
        }
        self.sink.fresh()
    }

    fn read(&mut self, event: &Event, var: VarId) {
        let thread = event.thread();
        let FastTrackStream { sync, vars, sink, .. } = self;
        let clock = sync.clock(thread);
        let epoch = Epoch::of_thread(clock, thread);
        let state = dense_slot(vars, var.index());

        // Same-epoch fast path.
        if !state.shared && state.read == epoch {
            return;
        }
        // Write-read race check.
        if !state.write.happens_before(clock) {
            if let Some(write) = &state.write_access {
                sink.record(write.race_with(event, var, RaceKind::Hb));
            }
        }
        if !state.shared {
            if state.read.happens_before(clock) {
                state.read = epoch;
                state.reads.clear();
            } else {
                // Concurrent reads: keep every thread's last read.
                state.shared = true;
            }
        }
        state.reads.store(thread.index(), epoch.clock(), event);
    }

    fn write(&mut self, event: &Event, var: VarId) {
        let thread = event.thread();
        let FastTrackStream { sync, vars, sink, .. } = self;
        let clock = sync.clock(thread);
        let epoch = Epoch::of_thread(clock, thread);
        let state = dense_slot(vars, var.index());

        // Same-epoch fast path.
        if state.write == epoch {
            return;
        }
        // Write-write race check.
        if !state.write.happens_before(clock) {
            if let Some(write) = &state.write_access {
                sink.record(write.race_with(event, var, RaceKind::Hb));
            }
        }
        // Read-write race check: against the read epoch, or every thread's
        // last read once shared.
        state.reads.record_races(clock, event, var, RaceKind::Hb, sink);
        state.write = epoch;
        state.write_access = Some(LastAccess::new(epoch.clock(), event.id(), event.location()));
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
    pub fn stats(&self) -> crate::HbStats {
        crate::HbStats { events: self.events, race_events: self.sink.race_events() }
    }
}

impl FastTrackDetector {
    /// Creates a detector.
    pub fn new() -> Self {
        FastTrackDetector::default()
    }

    /// Runs the epoch-optimized HB analysis over `trace`.
    pub fn detect(&self, trace: &Trace) -> RaceReport {
        let mut stream = FastTrackStream::with_threads(trace.num_threads());
        trace.events().iter().flat_map(|event| stream.on_event(event).to_vec()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HbDetector;
    use rapid_gen::figures;
    use rapid_gen::random::RandomTraceConfig;
    use rapid_trace::TraceBuilder;
    use std::collections::BTreeSet;

    fn racy_variables(report: &RaceReport) -> BTreeSet<VarId> {
        report.races().iter().map(|race| race.variable).collect()
    }

    #[test]
    fn detects_simple_write_write_race() {
        let mut b = TraceBuilder::new();
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        let x = b.variable("x");
        b.write(t1, x);
        b.write(t2, x);
        let report = FastTrackDetector::new().detect(&b.finish());
        assert_eq!(report.distinct_pairs(), 1);
    }

    #[test]
    fn detects_read_write_race_after_shared_reads() {
        let mut b = TraceBuilder::new();
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        let t3 = b.thread("t3");
        let x = b.variable("x");
        b.read(t1, x);
        b.read(t2, x);
        b.write(t3, x);
        let report = FastTrackDetector::new().detect(&b.finish());
        // The write races with both concurrent reads.
        assert_eq!(report.len(), 2);
    }

    #[test]
    fn protected_accesses_do_not_race() {
        let mut b = TraceBuilder::new();
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        let l = b.lock("l");
        let x = b.variable("x");
        b.critical_section(t1, l, |b| {
            b.read(t1, x);
            b.write(t1, x);
        });
        b.critical_section(t2, l, |b| {
            b.read(t2, x);
            b.write(t2, x);
        });
        assert!(FastTrackDetector::new().detect(&b.finish()).is_empty());
    }

    #[test]
    fn same_epoch_accesses_are_cheap_and_silent() {
        let mut b = TraceBuilder::new();
        let t = b.thread("t");
        let x = b.variable("x");
        for _ in 0..10 {
            b.write(t, x);
            b.read(t, x);
        }
        assert!(FastTrackDetector::new().detect(&b.finish()).is_empty());
    }

    #[test]
    fn agrees_with_vector_clock_detector_on_figures() {
        for figure in figures::paper_figures() {
            let vc = HbDetector::new().detect(&figure.trace);
            let ft = FastTrackDetector::new().detect(&figure.trace);
            assert_eq!(
                racy_variables(&vc),
                racy_variables(&ft),
                "{}: FastTrack and Djit+ disagree on racy variables",
                figure.name
            );
        }
    }

    #[test]
    fn agrees_with_vector_clock_detector_on_random_traces() {
        for seed in 0..10 {
            let config = RandomTraceConfig {
                seed,
                events: 400,
                threads: 4,
                locks: 2,
                variables: 6,
                disciplined_probability: 0.5,
                ..RandomTraceConfig::default()
            };
            let trace = config.generate();
            let vc = HbDetector::new().detect(&trace);
            let ft = FastTrackDetector::new().detect(&trace);
            assert_eq!(
                racy_variables(&vc),
                racy_variables(&ft),
                "seed {seed}: FastTrack and Djit+ disagree on racy variables"
            );
        }
    }
}
