//! The windowed MCM race detector.

use std::collections::BTreeSet;
use std::fmt;

use rapid_trace::analysis::TraceIndex;
use rapid_trace::lockctx::LockContext;
use rapid_trace::reorder::find_race_witness;
use rapid_trace::{Event, EventId, Location, LockId, Race, RaceKind, RaceReport, RaceSink, Trace};
use rapid_vc::ThreadId;
use rapid_wcp::WcpStream;

use crate::config::McmConfig;

/// Telemetry about one windowed MCM run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct McmStats {
    /// Number of windows analyzed.
    pub windows: usize,
    /// Candidate conflicting pairs considered across all windows.
    pub candidate_pairs: usize,
    /// Candidate pairs for which a reordering witness was found.
    pub witnessed_pairs: usize,
    /// Candidate pairs abandoned because the window's budget ran out.
    pub budget_exhausted_pairs: usize,
}

impl McmStats {
    /// Folds another run's counters into this one (every field is a total,
    /// so all four sum).
    pub fn merge(&mut self, other: &McmStats) {
        self.windows += other.windows;
        self.candidate_pairs += other.candidate_pairs;
        self.witnessed_pairs += other.witnessed_pairs;
        self.budget_exhausted_pairs += other.budget_exhausted_pairs;
    }
}

impl fmt::Display for McmStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} windows, {} candidates, {} witnessed, {} hit the budget",
            self.windows, self.candidate_pairs, self.witnessed_pairs, self.budget_exhausted_pairs
        )
    }
}

/// RVPredict-style windowed predictive race detection.
///
/// See the crate documentation for how this substitutes for the SMT-based
/// original.  The detector is *precise*: every reported race is backed by an
/// explicit correct reordering of its window that schedules the two accesses
/// next to each other.  [`McmDetector::detect`] is a thin wrapper that feeds
/// the trace through [`McmStream`], the push-based streaming core (batch =
/// stream + collect).
#[derive(Debug, Clone, Default)]
pub struct McmDetector {
    config: McmConfig,
}

/// The push-based streaming core of the windowed MCM search.
///
/// Events are buffered until a window fills ([`McmConfig::window_size`]
/// events), then the window is analyzed in isolation — exactly like the
/// batch detector cuts a materialized trace — and the buffer is recycled.
/// Live memory is `O(window_size)`, independent of the stream length.  The
/// lock context is carried across window boundaries so that
/// mid-critical-section cuts do not make protected accesses look
/// unprotected.
pub struct McmStream {
    config: McmConfig,
    buffer: Vec<Event>,
    /// Lock context of everything *before* the buffered window.
    lockctx: LockContext,
    /// Threads that performed at least one event before the buffered window.
    threads_seen: BTreeSet<ThreadId>,
    seen_location_pairs: BTreeSet<(Location, Location)>,
    stats: McmStats,
    sink: RaceSink,
    events: usize,
}

impl McmStream {
    /// Creates a stream with the given window/budget configuration.
    pub fn new(config: McmConfig) -> Self {
        McmStream {
            config,
            buffer: Vec::new(),
            lockctx: LockContext::new(0),
            threads_seen: BTreeSet::new(),
            seen_location_pairs: BTreeSet::new(),
            stats: McmStats::default(),
            sink: RaceSink::new(),
            events: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &McmConfig {
        &self.config
    }

    /// Processes one event.  Races are reported in batches: the returned
    /// slice is non-empty only on the event that completes a window.
    pub fn on_event(&mut self, event: &Event) -> &[Race] {
        self.sink.begin_event();
        self.events += 1;
        self.buffer.push(*event);
        if self.buffer.len() >= self.config.window_size.max(1) {
            self.flush_window();
        }
        self.sink.fresh()
    }

    /// The stream's race accounting: per-pair stats and the races of the
    /// last event (or of the final window, after [`McmStream::finish`]).
    pub fn sink(&self) -> &RaceSink {
        &self.sink
    }

    /// The run's telemetry so far.
    pub fn stats(&self) -> &McmStats {
        &self.stats
    }

    /// Number of events currently buffered (at most the window size).
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Number of events processed so far.
    pub fn events_seen(&self) -> usize {
        self.events
    }

    /// Ends the stream: analyzes the final partial window and returns the
    /// races it witnessed.
    pub fn finish(&mut self) -> &[Race] {
        self.sink.begin_event();
        if !self.buffer.is_empty() {
            self.flush_window();
        }
        self.sink.fresh()
    }

    fn flush_window(&mut self) {
        self.stats.windows += 1;
        let held_at_start: Vec<(ThreadId, Vec<LockId>)> = self
            .threads_seen
            .iter()
            .map(|&thread| (thread, self.lockctx.held(thread)))
            .filter(|(_, held)| !held.is_empty())
            .collect();
        analyze_window(
            &self.config,
            &self.buffer,
            &held_at_start,
            &mut self.sink,
            &mut self.stats,
            &mut self.seen_location_pairs,
        );
        for event in &self.buffer {
            self.threads_seen.insert(event.thread());
            self.lockctx.on_event(event);
        }
        self.buffer.clear();
    }
}

/// Analyzes one window of events in isolation: seeds candidate pairs from an
/// in-window WCP pass, verifies each with the bounded reordering search, and
/// maps witnessed pairs back to their original event ids.
fn analyze_window(
    config: &McmConfig,
    window: &[Event],
    held_at_start: &[(ThreadId, Vec<LockId>)],
    sink: &mut RaceSink,
    stats: &mut McmStats,
    seen_location_pairs: &mut BTreeSet<(Location, Location)>,
) {
    let (sub, mapping) = Trace::assemble_window(window, held_at_start);
    if sub.is_empty() {
        return;
    }
    let index = TraceIndex::build(&sub);

    // Candidate generation: conflicting pairs that an in-window WCP pass
    // leaves unordered.  (RVPredict's candidate set is likewise every
    // potential race of the window; seeding from WCP keeps the candidate
    // list small while covering everything the evaluation's workloads
    // contain.)  The window trace carries no name tables, so the pass
    // pre-registers every thread id appearing in the window explicitly —
    // running it in discovery mode would weaken Rule (b) for threads whose
    // first window event comes late.
    let window_threads = sub
        .events()
        .iter()
        .map(|event| {
            let mut max = event.thread().index();
            if let Some(target) = event.kind().target_thread() {
                max = max.max(target.index());
            }
            max + 1
        })
        .max()
        .unwrap_or(0);
    let mut wcp_pass = WcpStream::with_threads(window_threads);
    let mut candidates: Vec<(EventId, EventId)> = Vec::new();
    let mut candidate_locations = BTreeSet::new();
    for event in sub.events() {
        for race in wcp_pass.on_event(event) {
            let location_pair = race.location_pair();
            if !seen_location_pairs.contains(&location_pair)
                && candidate_locations.insert(location_pair)
            {
                candidates.push((race.first, race.second));
            }
        }
    }

    if candidates.is_empty() {
        return;
    }
    stats.candidate_pairs += candidates.len();

    // The window's solver budget is split across its candidate pairs,
    // mirroring how a fixed SMT timeout is shared by a window's queries.
    let per_pair_budget = (config.window_budget() / candidates.len()).max(1);

    for (first, second) in candidates {
        let witness = find_race_witness(&sub, &index, first, second, per_pair_budget);
        match witness {
            Some(_) => {
                stats.witnessed_pairs += 1;
                let (Some(original_first), Some(original_second)) =
                    (mapping[first.index()], mapping[second.index()])
                else {
                    // Synthetic boundary acquires never conflict, so a
                    // witnessed pair always maps back to real events.
                    continue;
                };
                let race = Race {
                    first: original_first,
                    second: original_second,
                    variable: sub[first].kind().variable().expect("access event"),
                    first_location: sub[first].location(),
                    second_location: sub[second].location(),
                    kind: RaceKind::Mcm,
                };
                seen_location_pairs.insert(race.location_pair());
                sink.record(race);
            }
            None => {
                stats.budget_exhausted_pairs += 1;
            }
        }
    }
}

impl McmDetector {
    /// Creates a detector with the given window/budget configuration.
    pub fn new(config: McmConfig) -> Self {
        McmDetector { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &McmConfig {
        &self.config
    }

    /// Runs the windowed analysis and reports witnessed races.
    pub fn detect(&self, trace: &Trace) -> RaceReport {
        self.detect_with_stats(trace).0
    }

    /// Runs the windowed analysis, also returning telemetry.
    pub fn detect_with_stats(&self, trace: &Trace) -> (RaceReport, McmStats) {
        let mut stream = McmStream::new(self.config.clone());
        let mut report = RaceReport::new();
        for event in trace.events() {
            report.extend(stream.on_event(event));
        }
        report.extend(stream.finish());
        (report, std::mem::take(&mut stream.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_gen::benchmarks;
    use rapid_gen::figures;
    use rapid_trace::TraceBuilder;

    #[test]
    fn stats_merge_sums_every_field() {
        let mut left = McmStats {
            windows: 1,
            candidate_pairs: 4,
            witnessed_pairs: 2,
            budget_exhausted_pairs: 1,
        };
        left.merge(&McmStats {
            windows: 2,
            candidate_pairs: 3,
            witnessed_pairs: 1,
            budget_exhausted_pairs: 0,
        });
        assert_eq!(
            left,
            McmStats {
                windows: 3,
                candidate_pairs: 7,
                witnessed_pairs: 3,
                budget_exhausted_pairs: 1
            }
        );
    }

    #[test]
    fn finds_near_races_inside_a_window() {
        let mut b = TraceBuilder::new();
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        let x = b.variable("x");
        b.write(t1, x);
        b.write(t2, x);
        let report = McmDetector::new(McmConfig::default()).detect(&b.finish());
        assert_eq!(report.distinct_pairs(), 1);
        assert_eq!(report.races()[0].kind, RaceKind::Mcm);
    }

    #[test]
    fn verifies_predictable_races_on_the_figures() {
        // The MCM search reports exactly the figures whose focal pair is a
        // *predictable race* (it never reports the Figure 5 deadlock-only
        // pair, unlike plain WCP).
        for figure in figures::paper_figures() {
            let report = McmDetector::new(McmConfig::default()).detect(&figure.trace);
            let focal_found = report.races().iter().any(|race| {
                (race.first == figure.first && race.second == figure.second)
                    || (race.first == figure.second && race.second == figure.first)
            });
            assert_eq!(
                focal_found, figure.predictable_race,
                "{}: MCM verdict should match predictability of the focal pair",
                figure.name
            );
        }
    }

    #[test]
    fn misses_races_that_cross_window_boundaries() {
        let mut b = TraceBuilder::new();
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        let t3 = b.thread("t3");
        let x = b.variable("x");
        let filler = b.variable("filler");
        b.write(t1, x);
        for _ in 0..200 {
            b.read(t3, filler);
        }
        b.write(t2, x);
        let trace = b.finish();

        let small_window = McmDetector::new(McmConfig::new(50, 60));
        assert_eq!(small_window.detect(&trace).distinct_pairs(), 0);

        let big_window = McmDetector::new(McmConfig::new(10_000, 60));
        assert_eq!(big_window.detect(&trace).distinct_pairs(), 1);
    }

    #[test]
    fn tight_budgets_lose_races() {
        // With a ludicrously small budget the witness search cannot finish.
        let figure = figures::figure_4();
        let mut config = McmConfig::new(1_000, 1);
        config.nodes_per_second = 1;
        let report = McmDetector::new(config).detect(&figure.trace);
        assert_eq!(report.distinct_pairs(), 0);
        // A realistic budget finds the race.
        let report = McmDetector::new(McmConfig::default()).detect(&figure.trace);
        assert_eq!(report.distinct_pairs(), 1);
    }

    #[test]
    fn stats_count_windows_and_candidates() {
        let figure = figures::figure_2b();
        let (report, stats) =
            McmDetector::new(McmConfig::new(4, 60)).detect_with_stats(&figure.trace);
        assert_eq!(stats.windows, 2);
        assert!(stats.candidate_pairs <= 2);
        assert_eq!(stats.witnessed_pairs, report.len());
        assert!(stats.to_string().contains("windows"));
    }

    #[test]
    fn duplicate_location_pairs_are_reported_once() {
        let mut b = TraceBuilder::new();
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        let x = b.variable("x");
        for _ in 0..3 {
            b.at("A.java:1");
            b.write(t1, x);
            b.at("B.java:2");
            b.write(t2, x);
        }
        let report = McmDetector::new(McmConfig::default()).detect(&b.finish());
        assert_eq!(report.distinct_pairs(), 1);
        assert_eq!(report.len(), 1, "the same location pair is only witnessed once");
    }

    #[test]
    fn windowed_run_on_a_benchmark_model_misses_far_races() {
        let model = benchmarks::benchmark_scaled("moldyn", 6_000).expect("moldyn exists");
        let wcp_races = rapid_wcp::WcpDetector::new().detect(&model.trace).distinct_pairs();
        let mcm_races =
            McmDetector::new(McmConfig::new(1_000, 60)).detect(&model.trace).distinct_pairs();
        assert!(
            mcm_races < wcp_races,
            "windowing must lose the far-apart races ({mcm_races} vs {wcp_races})"
        );
    }

    #[test]
    fn stream_reports_races_at_window_boundaries() {
        // Two adjacent conflicting writes inside the first window: the race
        // surfaces on the event that completes the window, not before.
        let mut b = TraceBuilder::new();
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        let x = b.variable("x");
        let filler = b.variable("filler");
        b.write(t1, x);
        b.write(t2, x);
        for _ in 0..6 {
            b.read(t1, filler);
        }
        let trace = b.finish();

        let mut stream = McmStream::new(McmConfig::new(4, 60));
        let mut per_event: Vec<usize> = Vec::new();
        for event in trace.events() {
            per_event.push(stream.on_event(event).len());
        }
        assert!(stream.finish().is_empty(), "the final window holds no race");
        assert_eq!(stream.sink().len(), 1);
        assert_eq!(stream.stats().windows, 2);
        assert_eq!(per_event[3], 1, "the race surfaces when the first window closes");
        assert_eq!(per_event.iter().sum::<usize>(), 1);
        assert_eq!(stream.buffered(), 0);
    }
}
