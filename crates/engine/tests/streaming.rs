//! End-to-end streaming tests: trace file → [`StreamReader`] → [`Engine`].
//!
//! These lock the streaming path against the batch baselines recorded in
//! PR 1 (CHANGES.md): Figure 2b (WCP 1 race / HB 0) and a Table 1 benchmark
//! model reproduce their race counts through the file-streaming pipeline,
//! four Table 1 models keep their exact WCP counters at 200K events, and
//! streaming WCP state stays bounded on a 625K-event one-lock stream and on
//! a 64-lock, 6-thread rotation.

use std::fs::File;
use std::io::{BufReader, Write as _};

use rapid_engine::{DetectorRun, DetectorSpec, Engine, Outcome};
use rapid_gen::{benchmarks, figures};
use std::collections::BTreeSet;

use rapid_hb::{FastTrackStream, HbStream};
use rapid_mcm::{McmConfig, McmDetector, McmStream};
use rapid_trace::format::{self, StreamReader};
use rapid_trace::{Location, PairKey, Race, RaceSink, Trace};
use rapid_vc::ThreadId;
use rapid_wcp::{WcpStats, WcpStream};

/// Writes `trace` to a temp file in std format and returns its path.
fn write_temp_trace(name: &str, trace: &Trace) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("rapid-engine-{name}-{}.std", std::process::id()));
    let mut file = File::create(&path).expect("temp file creates");
    file.write_all(format::write_std(trace).as_bytes()).expect("temp file writes");
    path
}

#[test]
fn figure_2b_streams_from_a_file_with_the_baseline_counts() {
    let figure = figures::figure_2b();
    let path = write_temp_trace("figure2b", &figure.trace);

    let mut engine = Engine::new();
    engine.register(Box::new(WcpStream::new()));
    engine.register(Box::new(HbStream::new()));

    let mut reader = StreamReader::std(BufReader::new(File::open(&path).expect("reopens")));
    engine.run(&mut reader).expect("figure trace parses");
    let runs = engine.finish(reader.names());
    std::fs::remove_file(&path).ok();

    assert_eq!(engine.events_seen(), figure.trace.len());
    let wcp = runs.iter().find(|run| run.outcome.detector == "wcp").expect("wcp ran");
    let hb = runs.iter().find(|run| run.outcome.detector == "hb").expect("hb ran");
    // The PR 1 baseline: Figure 2b has exactly one WCP race (on y) that HB
    // misses entirely.
    assert_eq!(wcp.outcome.distinct_pairs(), 1);
    assert_eq!(hb.outcome.distinct_pairs(), 0);
}

#[test]
fn table1_benchmark_streams_with_the_baseline_counts() {
    // account is a full Table 1 row at its default scale; the PR 1 baseline
    // reproduces the paper's race counts for it (spec.wcp_races /
    // spec.hb_races), which the streaming path must preserve end-to-end.
    let spec = benchmarks::spec("account").expect("account exists");
    let model = benchmarks::benchmark("account").expect("account generates");
    let path = write_temp_trace("account", &model.trace);

    let mut engine = Engine::new();
    engine.register(Box::new(WcpStream::new()));
    engine.register(Box::new(HbStream::new()));
    let (mcm_config, _) = McmConfig::table1_pair();
    engine.register(Box::new(McmStream::new(mcm_config.clone())));

    let mut reader = StreamReader::std(BufReader::new(File::open(&path).expect("reopens")));
    engine.run(&mut reader).expect("benchmark trace parses");
    let runs = engine.finish(reader.names());
    std::fs::remove_file(&path).ok();

    let find = |name: &str| -> &DetectorRun {
        runs.iter().find(|run| run.outcome.detector.starts_with(name)).expect("detector ran")
    };
    assert_eq!(find("wcp").outcome.distinct_pairs(), spec.wcp_races, "WCP baseline");
    assert_eq!(find("hb").outcome.distinct_pairs(), spec.hb_races, "HB baseline");

    // The windowed MCM stream agrees with its batch wrapper on the same
    // trace.  Outcomes are keyed by location *names*, so the streamed side
    // (ids interned in first-occurrence order) and the batch side (builder
    // interning) compare directly.
    let mut batch_mcm = RaceSink::new();
    for race in McmDetector::new(mcm_config).detect(&model.trace).races() {
        batch_mcm.record(*race);
    }
    let batch_outcome = rapid_engine::Outcome::from_sink(
        "mcm",
        model.trace.len(),
        &batch_mcm,
        rapid_engine::Metrics::new(),
        &model.trace,
    );
    assert_eq!(
        find("mcm").outcome.races,
        batch_outcome.races,
        "MCM stream/batch divergence (race pairs, events or distances)"
    );
}

#[test]
fn table1_models_pin_the_wcp_counters_at_200k_events() {
    // Every `WcpStats` field except the two pool counters, and HB's race
    // events, on four Table 1 models at 200K events in discovery mode (the
    // mode `run_shards` uses).  The Rule (b) walk and the Rule (a) summaries
    // are exact, so none of these figures may move; eclipse's deep queues
    // (17,106 entries at peak) exercise the walk the most.
    let pinned = [
        // model, (events, threads, locks, race events, enqueues, max queue,
        // joins, fast reads, fast writes), HB race events
        ("moldyn", (199_996, 3, 2, 44, 24_232, 8, 296_912, 77_236, 37_860), 44),
        ("eclipse", (200_004, 14, 95, 66, 290_808, 17_106, 422_321, 77_218, 37_852), 64),
        ("xalan", (199_999, 6, 222, 18, 96_992, 6_222, 330_002, 77_253, 37_868), 15),
        ("lusearch", (200_001, 7, 118, 160, 121_020, 4_720, 342_865, 79_167, 39_834), 160),
    ];
    for (name, counters, hb) in pinned {
        let (events, threads, locks, race_events, enqueues, max_queue, joins, reads, writes) =
            counters;
        let model = benchmarks::benchmark_scaled(name, 200_000).expect("model exists");
        let mut wcp = WcpStream::new();
        let mut hb_stream = HbStream::new();
        let mut hb_race_events = 0;
        for event in model.trace.events() {
            wcp.on_event(event);
            hb_race_events += hb_stream.on_event(event).len();
        }
        let stats = wcp.finish();
        let expected = WcpStats {
            events,
            threads,
            locks,
            race_events,
            queue_enqueues: enqueues,
            max_queue_entries: max_queue,
            clock_joins: joins,
            epoch_fast_reads: reads,
            epoch_fast_writes: writes,
            pool_taken: stats.pool_taken,
            pool_recycled: stats.pool_recycled,
        };
        assert_eq!(stats, expected, "{name}: WCP counters");
        assert_eq!(hb_race_events, hb, "{name}: HB race events");
    }
}

#[test]
fn any_reader_auto_detects_binary_regardless_of_extension() {
    // A binary .rwf written under a misleading `.std` extension must still
    // be routed to the binary reader (magic sniffing beats the extension)
    // and produce the same engine outcome as the text original.
    let figure = figures::figure_2b();
    let text_path = write_temp_trace("anyreader-text", &figure.trace);
    let lying_path =
        std::env::temp_dir().join(format!("rapid-engine-anyreader-{}.std", std::process::id()));
    std::fs::write(&lying_path, format::to_rwf_bytes(&figure.trace)).expect("rwf writes");

    let mut outcomes = Vec::new();
    for (path, expected_source) in [(&text_path, "text"), (&lying_path, "binary")] {
        let mut reader = format::AnyReader::open(path, format::TextFormat::Std, true)
            .expect("auto-detection opens both encodings");
        assert_eq!(reader.source(), expected_source);
        let mut engine = Engine::new();
        engine.register(Box::new(WcpStream::new()));
        engine.register(Box::new(HbStream::new()));
        engine.run(&mut reader).expect("both encodings parse");
        let events = engine.events_seen();
        let runs = engine.finish(reader.names());
        outcomes.push((runs[0].outcome.clone(), runs[1].outcome.clone(), events));
    }
    std::fs::remove_file(&text_path).ok();
    std::fs::remove_file(&lying_path).ok();

    assert_eq!(outcomes[0].0.distinct_pairs(), 1, "Figure 2b baseline: WCP 1");
    assert_eq!(outcomes[0].1.distinct_pairs(), 0, "Figure 2b baseline: HB 0");
    assert_eq!(outcomes[0].2, figure.trace.len());
    // Name-keyed outcomes compare as whole values across ingestion paths.
    assert_eq!(outcomes[0], outcomes[1], "binary and text ingestion agree");
}

#[test]
fn block_fan_out_matches_per_event_fan_out_across_block_boundaries() {
    // Two full 4096-event blocks plus a partial one, through all four
    // detectors; the MCM window (1000) does not divide the block size, so
    // windows straddle block boundaries.  moldyn repeats its access sites,
    // which keeps MCM's candidate set, and so the test, small.
    let trace = benchmarks::benchmark_scaled("moldyn", 2 * 4096 + 123).expect("moldyn").trace;
    assert!(trace.len() > 2 * 4096 && !trace.len().is_multiple_of(4096), "{} events", trace.len());
    let spec = DetectorSpec {
        detectors: ["wcp", "hb", "fasttrack", "mcm"].map(str::to_owned).to_vec(),
        window: 1_000,
        timeout_secs: 1,
    };
    let engine = || {
        let mut engine = Engine::new();
        for detector in spec.build().expect("known detectors") {
            engine.register(detector);
        }
        engine
    };
    let outcomes = |runs: Vec<DetectorRun>| -> Vec<Outcome> {
        runs.into_iter().map(|run| run.outcome).collect()
    };

    let mut per_event = engine();
    for event in trace.events() {
        per_event.on_event(event);
    }
    let per_event_outcomes = outcomes(per_event.finish(&trace));

    let mut batch = engine();
    assert_eq!(batch.run_trace(&trace), trace.len());
    let batch_outcomes = outcomes(batch.finish(&trace));

    let text = format::write_std(&trace);
    let mut streamed = engine();
    let mut reader = StreamReader::std(text.as_bytes());
    assert_eq!(streamed.run(&mut reader).expect("round-trips"), trace.len());
    let streamed_outcomes = outcomes(streamed.finish(reader.names()));

    assert_eq!(per_event.events_seen(), trace.len());
    assert_eq!(batch.events_seen(), trace.len());
    assert_eq!(streamed.events_seen(), trace.len());
    assert_eq!(per_event_outcomes.len(), 4);
    assert!(
        per_event_outcomes.iter().all(|outcome| outcome.distinct_pairs() > 0),
        "every detector reports races on moldyn"
    );
    assert_eq!(batch_outcomes, per_event_outcomes, "run_trace ≡ per-event on_event");
    assert_eq!(streamed_outcomes, per_event_outcomes, "run ≡ per-event on_event");
}

#[test]
fn online_race_sink_fires_at_the_flagging_event() {
    // The engine's per-event sink (behind `engine stream --races`) must
    // report each race exactly once, at the event that flags it, with the
    // detector attributed.
    let mut builder = rapid_trace::TraceBuilder::new();
    let t1 = builder.thread("t1");
    let t2 = builder.thread("t2");
    let x = builder.variable("x");
    builder.write(t1, x);
    builder.write(t2, x);
    let trace = builder.finish();

    let mut engine = Engine::new();
    engine.register(Box::new(WcpStream::new()));
    engine.register(Box::new(HbStream::new()));
    let mut sunk: Vec<(String, u32, usize)> = Vec::new();
    for (index, event) in trace.events().iter().enumerate() {
        engine.on_event_with(event, |detector, race| {
            sunk.push((detector.to_owned(), race.second.raw(), index));
        });
    }
    let runs = engine.finish(&trace);
    assert_eq!(sunk.len(), 2, "each detector flags the race once");
    for (detector, second, at_index) in &sunk {
        assert_eq!(*second as usize, *at_index, "{detector} reported at the flagging event");
    }
    assert!(sunk.iter().any(|(detector, ..)| detector == "wcp"));
    assert!(sunk.iter().any(|(detector, ..)| detector == "hb"));
    assert_eq!(runs.iter().map(|run| run.outcome.race_events()).sum::<usize>(), 2);
}

/// What one synthetic stream left in one detector's race sink.
#[derive(Debug, PartialEq, Eq)]
struct SinkState {
    /// Entries the sink retains.
    retained: usize,
    /// Distinct `(variable, location pair)` keys among the races `on_event`
    /// returned.
    distinct_keys: usize,
    /// Race events recorded.
    race_events: usize,
}

/// The peaks and sinks of one synthetic stream.
struct SyntheticRun {
    peak_queue: usize,
    peak_sections: usize,
    far_race_found: bool,
    /// WCP, HB and FastTrack, in that order.
    sinks: Vec<SinkState>,
}

/// Drives `sections` critical sections (plus one far race) through WCP, HB
/// and FastTrack streams, synthesizing each [`Event`] on the fly — no trace,
/// builder or buffer ever holds the stream.  Section `i` runs on thread
/// `threads[i % threads.len()]`; each lock serves one round of all
/// `threads` before the next of `locks` locks takes over, so every thread
/// uses every lock, and a section reads and writes its lock's own counter.
/// Every section is preceded by an unsynchronized write to a shared
/// variable, so race events grow with the stream while the racing location
/// pairs stay a fixed set.
fn run_synthetic_stream(sections: usize, threads: &[u32], locks: u32) -> SyntheticRun {
    use rapid_trace::{Event, EventId, EventKind, LockId, VarId};

    struct Probe {
        wcp: WcpStream,
        hb: HbStream,
        fasttrack: FastTrackStream,
        next: u32,
        races: [usize; 3],
        keys: [BTreeSet<PairKey>; 3],
        peak_queue: usize,
        peak_sections: usize,
    }

    impl Probe {
        fn feed(&mut self, thread: u32, kind: EventKind) -> bool {
            // Locations cycle over a fixed small set so race pairs stay
            // meaningful without unbounded interning.
            let location = Location::new(self.next % 64);
            let event = Event::new(EventId::new(self.next), ThreadId::new(thread), kind, location);
            self.next += 1;
            let flagged: [&[Race]; 3] = [
                self.wcp.on_event(&event),
                self.hb.on_event(&event),
                self.fasttrack.on_event(&event),
            ];
            let wcp_flagged = !flagged[0].is_empty();
            for (index, races) in flagged.iter().enumerate() {
                self.races[index] += races.len();
                for race in *races {
                    let (first, second) = race.location_pair();
                    self.keys[index].insert((race.variable, first, second));
                }
            }
            self.peak_queue = self.peak_queue.max(self.wcp.live_queue_entries());
            self.peak_sections = self.peak_sections.max(self.wcp.retained_sections());
            wcp_flagged
        }
    }

    let racy = VarId::new(0);
    let shared = VarId::new(1);
    let mut probe = Probe {
        wcp: WcpStream::new(),
        hb: HbStream::new(),
        fasttrack: FastTrackStream::new(),
        next: 0,
        races: [0; 3],
        keys: Default::default(),
        peak_queue: 0,
        peak_sections: 0,
    };

    // An unprotected write whose racing read arrives only after the filler.
    // The reader (thread 1) stays out of the lock rotation — joining it
    // would WCP-order the pair through Rule (b) — so it is also *discovered*
    // only at the very end of the stream.
    assert!(!threads.contains(&1), "thread 1 is the far reader");
    probe.feed(0, EventKind::Write(racy));
    for index in 0..sections {
        let thread = threads[index % threads.len()];
        let lock = (index / threads.len()) as u32 % locks;
        let (lock, counter) = (LockId::new(lock), VarId::new(2 + lock));
        // Unordered with the other rotating threads' last writes: a thread
        // acquires only after this write, so nothing orders it.
        probe.feed(thread, EventKind::Write(shared));
        probe.feed(thread, EventKind::Acquire(lock));
        probe.feed(thread, EventKind::Read(counter));
        probe.feed(thread, EventKind::Write(counter));
        probe.feed(thread, EventKind::Release(lock));
    }
    let far_race_found = probe.feed(1, EventKind::Read(racy));

    let sinks = [probe.wcp.sink(), probe.hb.sink(), probe.fasttrack.sink()];
    let sinks = sinks
        .iter()
        .zip(probe.races.iter().zip(&probe.keys))
        .map(|(sink, (&races, keys))| {
            assert_eq!(sink.race_events(), races, "per-event race deltas add up to the sink");
            SinkState { retained: sink.len(), distinct_keys: keys.len(), race_events: races }
        })
        .collect();
    SyntheticRun {
        peak_queue: probe.peak_queue,
        peak_sections: probe.peak_sections,
        far_race_found,
        sinks,
    }
}

#[test]
fn streaming_wcp_state_is_independent_of_trace_length() {
    // ~625K events (125K critical sections × 5 events) vs a 50× shorter
    // stream: the peak live Rule (b) state and every detector's retained
    // race state must not grow with the stream, while race events do.
    let short = run_synthetic_stream(2_500, &[0, 2, 3], 1);
    let long = run_synthetic_stream(125_000, &[0, 2, 3], 1);

    assert!(long.far_race_found, "the far race is found across 625K events");
    assert!(
        long.peak_sections <= short.peak_sections.max(8),
        "retained sections grew with the stream: {} vs {}",
        long.peak_sections,
        short.peak_sections
    );
    assert!(
        long.peak_queue <= short.peak_queue.max(32),
        "queue occupancy grew with the stream: {} vs {}",
        long.peak_queue,
        short.peak_queue
    );
    for (detector, (short, long)) in
        ["wcp", "hb", "fasttrack"].iter().zip(short.sinks.iter().zip(&long.sinks))
    {
        assert_eq!(short.retained, short.distinct_keys, "{detector}: one entry per distinct pair");
        assert_eq!(long.retained, long.distinct_keys, "{detector}: one entry per distinct pair");
        assert_eq!(long.retained, short.retained, "{detector}: retained race state grew");
        assert!(
            long.race_events > 40 * short.race_events,
            "{detector}: race events should grow with the stream ({} vs {})",
            long.race_events,
            short.race_events
        );
    }
}

#[test]
fn streaming_wcp_queues_stay_bounded_over_many_locks_and_threads() {
    // 64 locks rotating over 6 threads, every thread using every lock: a
    // thread passes a lock's queue entries only when it next releases that
    // lock, 64 rounds later, so every lock retains sections at once.  The
    // peak live Rule (b) state must still not grow between a stream of two
    // full rotations and one 50× longer (~192K events).
    let threads = [0, 2, 3, 4, 5, 6];
    let rotation = 64 * threads.len();
    let short = run_synthetic_stream(2 * rotation, &threads, 64);
    let long = run_synthetic_stream(100 * rotation, &threads, 64);

    assert!(long.far_race_found, "the far race is found across the long stream");
    assert!(short.peak_sections >= 64, "every lock retains sections: {}", short.peak_sections);
    assert!(
        long.peak_sections <= short.peak_sections,
        "retained sections grew with the stream: {} vs {}",
        long.peak_sections,
        short.peak_sections
    );
    assert!(
        long.peak_queue <= short.peak_queue,
        "queue occupancy grew with the stream: {} vs {}",
        long.peak_queue,
        short.peak_queue
    );
}
