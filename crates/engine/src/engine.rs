//! The [`Engine`]: one event stream, fanned out to N registered detectors.

use std::time::{Duration, Instant};

use rapid_trace::{Event, NameResolver, Race, Trace};

use crate::detector::Detector;
use crate::outcome::Outcome;

/// Per-detector results of one engine run: the detector's own outcome plus
/// the driver's accounting.
#[derive(Debug, Clone)]
pub struct DetectorRun {
    /// What the detector reported at the end of the stream.
    pub outcome: Outcome,
    /// Cumulative wall-clock time spent inside this detector (its
    /// `on_event` and `finish` calls only — parsing and the other detectors
    /// are excluded).  Accounting costs one monotonic clock read per
    /// detector per block of up to 4096 events on [`Engine::run`],
    /// [`Engine::run_trace`] and [`Engine::on_event`] (a block of one), and
    /// one per detector per event on [`Engine::on_event_with`]; boundaries
    /// are shared between adjacent detectors.  On the per-event paths a
    /// detector running at tens of nanoseconds per event carries a
    /// measurable floor from the timer itself.
    ///
    /// Under [`DetectorRun::merge`] times **sum**: for runs folded from
    /// parallel shards this is the total detector-CPU time across workers,
    /// which can exceed the aggregate wall-clock.
    pub time: Duration,
}

impl DetectorRun {
    /// Events per second through this detector, derived from
    /// [`Outcome::events`] and the per-detector time.  A zero-duration run
    /// (possible on tiny traces, where the accumulated slices round to
    /// zero) yields a non-finite value — `inf` with events, `NaN` without;
    /// [`Engine::render`] clamps both to a `—` cell rather than printing
    /// them.
    pub fn events_per_second(&self) -> f64 {
        self.outcome.events as f64 / self.time.as_secs_f64()
    }

    /// Folds another run of the *same detector configuration* into this one:
    /// outcomes merge per the [`Outcome`] algebra, times sum.
    pub fn merge(&mut self, other: DetectorRun) {
        self.time += other.time;
        self.outcome.merge(other.outcome);
    }
}

/// Events per fan-out block in [`Engine::run`] and [`Engine::run_trace`]:
/// the `.rwf` v2 EVENTS block size, 80 KiB of buffered events.
const BLOCK: usize = 4096;

struct Registered {
    detector: Box<dyn Detector>,
    /// Cached display name, so per-event sinks don't re-allocate it.
    name: String,
    spent: Duration,
}

/// A single-pass, push-based analysis driver.
///
/// Register any number of [`Detector`]s, then drive a whole source with
/// [`Engine::run`] / [`Engine::run_trace`] (or feed each event of the stream
/// exactly once with [`Engine::on_event`]); every registered detector sees
/// every event, and per-detector wall-clock time is accounted separately.
/// Because detectors are streaming cores, total live memory is the sum of
/// the detectors' states — the trace itself is never materialized on this
/// path, so a multi-gigabyte trace file can be analyzed in
/// `O(threads · variables + distinct race pairs + window)` memory.
///
/// `run`, `run_trace` and `on_event` fan events out in blocks — up to 4096
/// events (the `.rwf` v2 EVENTS block) on `run` and `run_trace`, one on
/// `on_event`.  Each detector takes the whole block before the next one
/// starts, and the clock is read once per detector boundary per block
/// rather than per event.  Detectors are independent, so the outcomes equal
/// a per-event feed.  [`Engine::on_event_with`], the hook behind online race
/// printing, reads the clock per detector per event.
///
/// For analyzing *many* trace files at once, see
/// [`driver::run_shards`](crate::driver::run_shards), which runs one engine
/// per shard on a worker pool and merges the outcomes.
///
/// # Examples
///
/// ```
/// use rapid_engine::Engine;
/// use rapid_trace::format::StreamReader;
///
/// let input = "t1|w(x)|A.java:1\nt2|r(x)|B.java:2\n";
/// let mut engine = Engine::new();
/// engine.register(Box::new(rapid_wcp::WcpStream::new()));
/// engine.register(Box::new(rapid_hb::HbStream::new()));
///
/// let mut reader = StreamReader::std(input.as_bytes());
/// engine.run(&mut reader).expect("parses");
/// let runs = engine.finish(reader.names());
/// assert_eq!(runs.len(), 2);
/// assert!(runs.iter().all(|run| run.outcome.distinct_pairs() == 1));
/// ```
#[derive(Default)]
pub struct Engine {
    detectors: Vec<Registered>,
    events: usize,
}

impl Engine {
    /// Creates an engine with no detectors registered.
    pub fn new() -> Self {
        Engine::default()
    }

    /// Registers a detector; it will see every subsequent event.
    pub fn register(&mut self, detector: Box<dyn Detector>) -> &mut Self {
        let name = detector.name();
        self.detectors.push(Registered { detector, name, spent: Duration::ZERO });
        self
    }

    /// Number of registered detectors.
    pub fn detector_count(&self) -> usize {
        self.detectors.len()
    }

    /// Number of events fed so far.
    pub fn events_seen(&self) -> usize {
        self.events
    }

    /// Fans one event out to every registered detector, returning how many
    /// races were flagged at this event across all of them.
    pub fn on_event(&mut self, event: &Event) -> usize {
        self.fan_out(std::slice::from_ref(event))
    }

    /// Feeds `block` through every registered detector in turn, returning
    /// how many races were flagged across all of them.  The clock is read
    /// once per detector boundary (each timestamp ends one detector's slice
    /// and starts the next), so a block costs `detectors + 1` reads however
    /// long it is.
    fn fan_out(&mut self, block: &[Event]) -> usize {
        self.events += block.len();
        let mut flagged = 0;
        let mut last = Instant::now();
        for registered in &mut self.detectors {
            for event in block {
                flagged += registered.detector.on_event(event).len();
            }
            let now = Instant::now();
            registered.spent += now.duration_since(last);
            last = now;
        }
        flagged
    }

    /// Like [`Engine::on_event`], but hands every race flagged at this event
    /// to `sink` together with the reporting detector's name — the hook
    /// behind the CLI's online `--races` reporting.  The sink runs outside
    /// the per-detector timing slices, so reporting cost is not billed to
    /// the detectors.
    pub fn on_event_with(&mut self, event: &Event, mut sink: impl FnMut(&str, &Race)) -> usize {
        self.events += 1;
        let mut flagged = 0;
        // One clock read per detector boundary (each timestamp ends one
        // detector's slice and starts the next), so fast detectors are not
        // dominated by timer overhead.
        let mut last = Instant::now();
        for registered in &mut self.detectors {
            let races = registered.detector.on_event(event);
            let now = Instant::now();
            registered.spent += now.duration_since(last);
            last = now;
            if !races.is_empty() {
                flagged += races.len();
                for race in races {
                    sink(&registered.name, race);
                }
                // Exclude the sink's own cost from the next detector's slice.
                last = Instant::now();
            }
        }
        flagged
    }

    /// Drains an event source (e.g. a
    /// [`StreamReader`](rapid_trace::format::StreamReader)) through the
    /// engine in blocks of up to 4096 events, stopping at the first source
    /// error.  Returns the number of events fed.
    ///
    /// # Errors
    ///
    /// Returns the source's error unchanged, after feeding the events read
    /// before it; events already fed remain accounted, so a caller may
    /// still [`Engine::finish`] for partial results.
    pub fn run<E>(
        &mut self,
        events: impl IntoIterator<Item = Result<Event, E>>,
    ) -> Result<usize, E> {
        let fed_before = self.events;
        let mut block = Vec::with_capacity(BLOCK);
        let mut status = Ok(());
        for next in events {
            match next {
                Ok(event) => block.push(event),
                Err(error) => {
                    status = Err(error);
                    break;
                }
            }
            if block.len() == BLOCK {
                self.fan_out(&block);
                block.clear();
            }
        }
        // The last, partial block: the source's tail, or the events read
        // before its error.
        self.fan_out(&block);
        status.map(|()| self.events - fed_before)
    }

    /// Feeds a fully materialized trace (the batch path) through the engine
    /// in blocks of up to 4096 events.
    pub fn run_trace(&mut self, trace: &Trace) -> usize {
        for block in trace.events().chunks(BLOCK) {
            self.fan_out(block);
        }
        trace.len()
    }

    /// Finishes every detector, returning their outcomes in registration
    /// order together with per-detector timing.  Race pairs are resolved to
    /// names through `names` — pass the [`Trace`] on the batch path or the
    /// reader's [`StreamNames`](rapid_trace::format::StreamNames) on the
    /// stream path — so the returned outcomes are mergeable across runs.
    pub fn finish(&mut self, names: &dyn NameResolver) -> Vec<DetectorRun> {
        self.detectors
            .drain(..)
            .map(|mut registered| {
                let start = Instant::now();
                let outcome = registered.detector.finish(names);
                let time = registered.spent + start.elapsed();
                DetectorRun { outcome, time }
            })
            .collect()
    }

    /// Renders a per-detector result table for `runs` (as returned by
    /// [`Engine::finish`] or merged by [`DetectorRun::merge`]).  The
    /// events/s column is derived from each detector's own time slice, and
    /// the separator is sized to the header row.
    pub fn render(runs: &[DetectorRun]) -> String {
        let header = format!(
            "{:<18} {:>8} {:>12} {:>10} {:>10}  {}",
            "detector", "#races", "race events", "events/s", "time", "telemetry"
        );
        let mut out = String::new();
        out.push_str(&header);
        out.push('\n');
        out.push_str(&"-".repeat(header.len()));
        out.push('\n');
        for run in runs {
            out.push_str(&format!(
                "{:<18} {:>8} {:>12} {:>10} {:>10.2?}  {}\n",
                run.outcome.detector,
                run.outcome.distinct_pairs(),
                run.outcome.race_events(),
                format_events_per_second(run.events_per_second()),
                run.time,
                run.outcome.telemetry(),
            ));
        }
        out
    }

    /// Renders each detector's merged race pairs, one block per detector
    /// with at least one pair — name-keyed, so the output is deterministic
    /// and byte-identical across job counts, ingestion paths, and the
    /// local/distributed divide (CI diffs `engine multi` against `engine
    /// submit` output with this very rendering).
    pub fn render_race_pairs(runs: &[DetectorRun]) -> String {
        let mut out = String::new();
        for run in runs {
            if run.outcome.races.is_empty() {
                continue;
            }
            out.push_str(&format!("{} race pairs:\n", run.outcome.detector));
            for (pair, stats) in &run.outcome.races {
                out.push_str(&format!(
                    "  {pair} ({} event(s), min distance {})\n",
                    stats.race_events, stats.min_distance
                ));
            }
        }
        out
    }
}

/// Human-scaled events/s: `17.8M`, `55.1K`, `912` — or `—` when the rate
/// is not finite (a zero-duration detector run divides by ~0).
fn format_events_per_second(eps: f64) -> String {
    if !eps.is_finite() {
        "—".to_owned()
    } else if eps >= 1e6 {
        format!("{:.1}M", eps / 1e6)
    } else if eps >= 1e3 {
        format!("{:.1}K", eps / 1e3)
    } else {
        format!("{eps:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_trace::format::{ParseError, StreamReader};
    use rapid_trace::TraceBuilder;

    fn racy_trace() -> Trace {
        let mut b = TraceBuilder::new();
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        let x = b.variable("x");
        b.write(t1, x);
        b.write(t2, x);
        b.finish()
    }

    #[test]
    fn fans_events_to_all_detectors() {
        let trace = racy_trace();
        let mut engine = Engine::new();
        engine.register(Box::new(rapid_hb::HbStream::new()));
        engine.register(Box::new(rapid_wcp::WcpStream::new()));
        assert_eq!(engine.detector_count(), 2);
        let flagged = trace.events().iter().map(|e| engine.on_event(e)).sum::<usize>();
        assert_eq!(flagged, 2, "each detector flags the write-write race once");
        let runs = engine.finish(&trace);
        assert_eq!(runs.len(), 2);
        for run in &runs {
            assert_eq!(run.outcome.events, 2);
            assert_eq!(run.outcome.distinct_pairs(), 1);
        }
        let rendered = Engine::render(&runs);
        assert!(rendered.contains("wcp"));
        assert!(rendered.contains("hb"));
        assert!(rendered.contains("events/s"));
    }

    #[test]
    fn zero_duration_runs_render_a_dash_not_inf() {
        // The raw rate is honest (inf with events, NaN without)…
        assert_eq!(format_events_per_second(f64::INFINITY), "—");
        assert_eq!(format_events_per_second(f64::NAN), "—");
        assert_eq!(format_events_per_second(912.0), "912");
        assert_eq!(format_events_per_second(55_100.0), "55.1K");
        assert_eq!(format_events_per_second(17_800_000.0), "17.8M");

        // …and a zero-duration DetectorRun renders a `—` cell end to end.
        let trace = racy_trace();
        let mut engine = Engine::new();
        engine.register(Box::new(rapid_wcp::WcpStream::new()));
        engine.run_trace(&trace);
        let mut runs = engine.finish(&trace);
        runs[0].time = Duration::ZERO;
        assert!(runs[0].events_per_second().is_infinite());
        let rendered = Engine::render(&runs);
        assert!(rendered.contains("—"), "zero-duration rate must render as a dash:\n{rendered}");
        assert!(!rendered.contains("inf"), "inf must never reach the table:\n{rendered}");
    }

    #[test]
    fn race_pairs_render_deterministically() {
        let trace = racy_trace();
        let mut engine = Engine::new();
        engine.register(Box::new(rapid_wcp::WcpStream::new()));
        engine.register(Box::new(rapid_hb::HbStream::new()));
        engine.run_trace(&trace);
        let runs = engine.finish(&trace);
        let rendered = Engine::render_race_pairs(&runs);
        assert!(rendered.starts_with("wcp race pairs:\n"));
        assert!(rendered.contains("hb race pairs:\n"));
        assert!(rendered.contains("min distance"));
        // No races ⇒ no block at all.
        assert_eq!(Engine::render_race_pairs(&[]), "");
    }

    #[test]
    fn render_separator_matches_header_width() {
        let rendered = Engine::render(&[]);
        let mut lines = rendered.lines();
        let header = lines.next().expect("header row");
        let separator = lines.next().expect("separator row");
        assert_eq!(separator.len(), header.len(), "separator is computed from the header");
        assert!(separator.chars().all(|c| c == '-'));
    }

    #[test]
    fn run_propagates_stream_errors() {
        let input = "t1|w(x)|A:1\nt1|oops|A:2\n";
        let mut engine = Engine::new();
        engine.register(Box::new(rapid_wcp::WcpStream::new()));
        let mut reader = StreamReader::std(input.as_bytes());
        let error: ParseError = engine.run(&mut reader).unwrap_err();
        assert_eq!(error.line, 2);
        assert_eq!(engine.events_seen(), 1, "events before the error were fed");

        // An error past the first full block: the full block and the
        // partial one before the error are both fed.
        let mut input = "t1|w(x)|A:1\nt2|r(y)|B:2\n".repeat(2_500);
        input.push_str("t1|oops|A:3\n");
        let mut engine = Engine::new();
        engine.register(Box::new(rapid_wcp::WcpStream::new()));
        engine.register(Box::new(rapid_hb::HbStream::new()));
        let mut reader = StreamReader::std(input.as_bytes());
        let error: ParseError = engine.run(&mut reader).unwrap_err();
        assert_eq!(error.line, 5_001);
        assert_eq!(engine.events_seen(), 5_000, "events before the error were fed");
        let runs = engine.finish(reader.names());
        assert_eq!(runs.len(), 2);
        for run in &runs {
            assert_eq!(
                run.outcome.events, 5_000,
                "{} finishes over the fed events",
                run.outcome.detector
            );
        }
    }

    #[test]
    fn run_trace_matches_streamed_text() {
        let trace = racy_trace();
        let text = rapid_trace::format::write_std(&trace);

        let mut batch = Engine::new();
        batch.register(Box::new(rapid_wcp::WcpStream::new()));
        batch.run_trace(&trace);
        let batch_runs = batch.finish(&trace);

        let mut streamed = Engine::new();
        streamed.register(Box::new(rapid_wcp::WcpStream::new()));
        let mut reader = StreamReader::std(text.as_bytes());
        streamed.run(&mut reader).expect("round-trips");
        let stream_runs = streamed.finish(reader.names());

        // With name-keyed outcomes the two sides are directly comparable —
        // not just in cardinality but as values.
        assert_eq!(batch_runs[0].outcome.races, stream_runs[0].outcome.races);
    }

    #[test]
    fn merged_runs_sum_times_and_union_races() {
        let trace = racy_trace();
        let run = |trace: &Trace| {
            let mut engine = Engine::new();
            engine.register(Box::new(rapid_wcp::WcpStream::new()));
            engine.run_trace(trace);
            engine.finish(trace).remove(0)
        };
        let mut merged = run(&trace);
        merged.merge(run(&trace));
        assert_eq!(merged.outcome.shards, 2);
        assert_eq!(merged.outcome.events, 2 * trace.len());
        assert_eq!(merged.outcome.distinct_pairs(), 1, "same named pair unions to one");
        assert_eq!(merged.outcome.race_events(), 2);
    }
}
