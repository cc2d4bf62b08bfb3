//! The traced run: spans around the phase-level calls into each layer,
//! and the per-layer metrics computed from them.
//!
//! Spans are recorded by this file, around calls into the public API of
//! `rapid_trace::format`, `rapid_wcp`, `rapid_hb` and
//! `rapid_engine::{engine, driver, outcome}`.  No span ever wraps a single
//! event: one clock read costs about as much as a detector's whole
//! per-event work.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rapid_engine::driver::{fold_runs, run_shards, DriverConfig, ShardRun};
use rapid_engine::outcome::wire;
use rapid_engine::{Detector, DetectorRun, Engine, Outcome};
use rapid_trace::format::{AnyReader, TextFormat};
use rapid_trace::Event;

use crate::report::{metric, Metric};
use crate::stats::{median, Tally};

/// How far the traced phases may fall short of (or exceed) the untraced
/// wall before the run notes it: decoding into memory first and then
/// detecting is not the same memory traffic as the interleaved stream.
pub const RECONCILE_TOLERANCE: f64 = 0.25;

/// One closed span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

/// Spans kept in memory for the whole run and written out at exit.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    workload: String,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(workload: &str) -> Tracer {
        Tracer { origin: Instant::now(), workload: workload.to_owned(), spans: Vec::new() }
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span { name, start: now, end: now, parent });
        self.spans.len() - 1
    }

    /// Closes a span and returns its duration.
    pub fn close(&mut self, id: usize) -> Duration {
        let span = &mut self.spans[id];
        span.end = self.origin.elapsed();
        span.end - span.start
    }

    /// Total self time per span name: each span's duration minus the part
    /// its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let mut children = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent] += span.end - span.start;
            }
        }
        let mut out: BTreeMap<&'static str, Duration> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(children) {
            *out.entry(span.name).or_default() += (span.end - span.start).saturating_sub(covered);
        }
        out
    }

    /// Writes every span as one tab-separated line: id, name, start ns,
    /// end ns, parent id (or -1), workload.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = String::from("id\tname\tstart_ns\tend_ns\tparent\tworkload\n");
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}\t{}",
                span.name,
                span.start.as_nanos(),
                span.end.as_nanos(),
                self.workload
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// A shard to analyze and the race-pair counts it must yield.
#[derive(Debug, Clone)]
pub struct Expected {
    pub path: PathBuf,
    pub wcp_pairs: usize,
    pub hb_pairs: usize,
}

/// The default detector set of `engine` and the driver: WCP then HB.
pub fn detectors() -> Vec<Box<dyn Detector>> {
    vec![Box::new(rapid_wcp::WcpStream::new()), Box::new(rapid_hb::HbStream::new())]
}

/// Whether a detector run set (WCP then HB) matches the known answer.
pub fn verdict_ok(runs: &[DetectorRun], expected: &Expected) -> bool {
    runs.len() == 2
        && runs[0].outcome.distinct_pairs() == expected.wcp_pairs
        && runs[1].outcome.distinct_pairs() == expected.hb_pairs
}

/// One pass of the driver exactly as users run it: `run_shards` with one
/// worker and the default detectors.
pub fn driver_pass(shards: &[Expected], tally: &mut Tally) -> Result<(Duration, usize), String> {
    let paths: Vec<PathBuf> = shards.iter().map(|shard| shard.path.clone()).collect();
    let start = Instant::now();
    let report =
        run_shards(&paths, detectors, &DriverConfig { jobs: 1, ..DriverConfig::default() })
            .map_err(|error| error.to_string())?;
    let wall = start.elapsed();
    for (run, expected) in report.shards.iter().zip(shards) {
        tally.record(verdict_ok(&run.runs, expected));
    }
    Ok((wall, report.total_events()))
}

/// One traced iteration's measurements (times summed over shards).
#[derive(Debug, Default, Clone)]
struct Sample {
    events: usize,
    accesses: usize,
    text: bool,
    decode: Duration,
    /// Per-shard pipeline spans: the phases below plus the glue between
    /// them and the spans' own cost.
    pipeline: Duration,
    engine_loop: Duration,
    engine_finish: Duration,
    wcp_loop: Duration,
    wcp_finish: Duration,
    hb_loop: Duration,
    hb_finish: Duration,
    wcp_reported: Duration,
    hb_reported: Duration,
    wire: Duration,
    wire_bytes: usize,
    fold: Duration,
    untraced: Duration,
    wcp_max_queue: f64,
    wcp_epoch_hits: f64,
    race_events: usize,
    race_pairs: usize,
}

fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

fn ns_per(duration: Duration, events: usize) -> f64 {
    duration.as_nanos() as f64 / events.max(1) as f64
}

/// Feeds `events` to one detector directly (no engine, no dyn call) and
/// finishes it, timing both phases under their own spans.
fn direct<D: Detector>(
    tracer: &mut Tracer,
    parent: usize,
    names: (&'static str, &'static str),
    mut detector: D,
    step: impl Fn(&mut D, &Event) -> usize,
    events: &[Event],
    resolver: &dyn rapid_trace::NameResolver,
) -> (Duration, Duration, Outcome) {
    let span = tracer.open(names.0, Some(parent));
    let mut flagged = 0;
    for event in events {
        flagged += step(&mut detector, event);
    }
    black_box(flagged);
    let looped = tracer.close(span);
    let span = tracer.open(names.1, Some(parent));
    let outcome = detector.finish(resolver);
    (looped, tracer.close(span), outcome)
}

/// One traced iteration over `shards`.
fn iterate(
    tracer: &mut Tracer,
    shards: &[Expected],
    tally: &mut Tally,
    wrong: &mut Vec<String>,
) -> Result<Sample, String> {
    let mut sample = Sample::default();
    let iteration = tracer.open("iteration", None);
    let mut shard_runs = Vec::with_capacity(shards.len());
    for expected in shards {
        let path = &expected.path;
        let shard = tracer.open("shard", Some(iteration));

        // The traced counterpart of what `run_shards` does for one shard.
        let pipeline = tracer.open("pipeline", Some(shard));
        let span = tracer.open("format.decode", Some(pipeline));
        let mut reader = AnyReader::open(path, TextFormat::from_path(path), true)
            .map_err(|error| format!("{}: {error}", path.display()))?;
        let events: Vec<Event> = (&mut reader)
            .collect::<Result<_, _>>()
            .map_err(|error| format!("{}: {error}", path.display()))?;
        sample.decode += tracer.close(span);
        let span = tracer.open("engine.on_event", Some(pipeline));
        let mut engine = Engine::new();
        for detector in detectors() {
            engine.register(detector);
        }
        for event in &events {
            engine.on_event(event);
        }
        sample.engine_loop += tracer.close(span);
        let span = tracer.open("engine.finish", Some(pipeline));
        let runs = engine.finish(reader.names());
        sample.engine_finish += tracer.close(span);
        sample.pipeline += tracer.close(pipeline);

        sample.text |= !reader.source().starts_with("binary");
        sample.events += events.len();
        sample.accesses += events.iter().filter(|event| event.kind().is_access()).count();
        sample.wcp_reported += runs[0].time;
        sample.hb_reported += runs[1].time;

        let direct_span = tracer.open("direct", Some(shard));
        let (looped, finished, wcp) = direct(
            tracer,
            direct_span,
            ("wcp.on_event", "wcp.finish"),
            rapid_wcp::WcpStream::new(),
            |detector, event| rapid_wcp::WcpStream::on_event(detector, event).len(),
            &events,
            reader.names(),
        );
        sample.wcp_loop += looped;
        sample.wcp_finish += finished;
        let (looped, finished, hb) = direct(
            tracer,
            direct_span,
            ("hb.on_event", "hb.finish"),
            rapid_hb::HbStream::new(),
            |detector, event| rapid_hb::HbStream::on_event(detector, event).len(),
            &events,
            reader.names(),
        );
        sample.hb_loop += looped;
        sample.hb_finish += finished;

        let span = tracer.open("outcome.wire", Some(direct_span));
        let mut roundtrip_ok = true;
        for run in &runs {
            let bytes = wire::to_bytes(&run.outcome);
            sample.wire_bytes += bytes.len();
            roundtrip_ok &=
                matches!(wire::from_bytes(&bytes), Ok(decoded) if decoded == run.outcome);
        }
        sample.wire += tracer.close(span);
        tracer.close(direct_span);

        sample.wcp_max_queue =
            sample.wcp_max_queue.max(wcp.metric("max_queue_entries").unwrap_or(0.0));
        sample.wcp_epoch_hits += wcp.metric("epoch_fast_reads").unwrap_or(0.0)
            + wcp.metric("epoch_fast_writes").unwrap_or(0.0);
        let direct_ok =
            wcp.distinct_pairs() == expected.wcp_pairs && hb.distinct_pairs() == expected.hb_pairs;
        let ok = direct_ok && roundtrip_ok && verdict_ok(&runs, expected);
        if !ok {
            wrong.push(format!(
                "{}: wcp {} / hb {} pairs (direct {} / {}), expected {} / {}, wire round trip {}",
                path.display(),
                runs[0].outcome.distinct_pairs(),
                runs[1].outcome.distinct_pairs(),
                wcp.distinct_pairs(),
                hb.distinct_pairs(),
                expected.wcp_pairs,
                expected.hb_pairs,
                if roundtrip_ok { "ok" } else { "FAILED" }
            ));
        }
        tally.record(ok);
        shard_runs.push(ShardRun {
            path: path.clone(),
            source: reader.source(),
            events: events.len(),
            wall: Duration::ZERO,
            runs,
        });
        tracer.close(shard);
    }

    let span = tracer.open("outcome.fold", Some(iteration));
    let merged = fold_runs(&shard_runs);
    sample.fold = tracer.close(span);
    for run in &merged {
        sample.race_events += run.outcome.race_events();
        sample.race_pairs += run.outcome.distinct_pairs();
    }
    drop(shard_runs);

    let span = tracer.open("driver.run_shards", Some(iteration));
    let passed = driver_pass(shards, tally);
    sample.untraced = tracer.close(span);
    passed?;
    tracer.close(iteration);
    Ok(sample)
}

/// What the traced iterations measured, as per-layer metrics (medians over
/// iterations for times; counts repeat exactly).
pub struct LayerReport {
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
    /// Shards whose verdicts missed their known answers.
    pub wrong: Vec<String>,
}

/// Runs traced iterations over `shards` until `deadline` (at least one).
pub fn measure(
    tracer: &mut Tracer,
    shards: &[Expected],
    deadline: Instant,
    tally: &mut Tally,
) -> Result<LayerReport, String> {
    let mut samples = Vec::new();
    let mut wrong = Vec::new();
    loop {
        samples.push(iterate(tracer, shards, tally, &mut wrong)?);
        if Instant::now() >= deadline {
            break;
        }
    }
    let of = |f: &dyn Fn(&Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let last = samples.last().expect("at least one iteration").clone();
    let shard_count = shards.len().max(1) as f64;
    let phases = |s: &Sample| s.decode + s.engine_loop + s.engine_finish + s.fold;
    let decode = of(&|s| ns_per(s.decode, s.events));
    let (rwf_decode, text_decode) = if last.text { (0.0, decode) } else { (decode, 0.0) };

    let metrics = vec![
        metric("format.rwf.decode_ns_per_event", rwf_decode, "ns/event"),
        metric("format.text.decode_ns_per_event", text_decode, "ns/event"),
        metric("wcp.on_event_ns_per_event", of(&|s| ns_per(s.wcp_loop, s.events)), "ns/event"),
        metric("wcp.finish_ms", of(&|s| ms(s.wcp_finish)), "ms"),
        metric("wcp.max_queue_entries", last.wcp_max_queue, "count"),
        metric("wcp.epoch_hit_rate", last.wcp_epoch_hits / last.accesses.max(1) as f64, "ratio"),
        metric("hb.on_event_ns_per_event", of(&|s| ns_per(s.hb_loop, s.events)), "ns/event"),
        metric("hb.finish_ms", of(&|s| ms(s.hb_finish)), "ms"),
        metric("race.events", last.race_events as f64, "count"),
        metric(
            "race.events_per_pair",
            last.race_events as f64 / last.race_pairs.max(1) as f64,
            "ratio",
        ),
        metric(
            "engine.fanout_ns_per_event",
            of(&|s| {
                (s.engine_loop.as_nanos() as f64
                    - s.wcp_loop.as_nanos() as f64
                    - s.hb_loop.as_nanos() as f64)
                    / s.events.max(1) as f64
            }),
            "ns/event",
        ),
        metric(
            "engine.wcp_reported_over_direct",
            of(&|s| s.wcp_reported.as_secs_f64() / (s.wcp_loop + s.wcp_finish).as_secs_f64()),
            "ratio",
        ),
        metric(
            "engine.hb_reported_over_direct",
            of(&|s| s.hb_reported.as_secs_f64() / (s.hb_loop + s.hb_finish).as_secs_f64()),
            "ratio",
        ),
        metric("driver.residual_ms", of(&|s| ms(s.untraced) - ms(phases(s))), "ms"),
        metric("outcome.fold_us", of(&|s| s.fold.as_secs_f64() * 1e6), "us"),
        metric("outcome.wire_bytes_per_shard", last.wire_bytes as f64 / shard_count, "bytes"),
        metric(
            "outcome.wire_roundtrip_us",
            of(&|s| s.wire.as_secs_f64() * 1e6 / shard_count),
            "us",
        ),
        metric("trace.overhead_ms", of(&|s| ms(s.pipeline + s.fold) - ms(s.untraced)), "ms"),
        metric(
            "trace.unaccounted_share",
            of(&|s| 1.0 - phases(s).as_secs_f64() / s.untraced.as_secs_f64()),
            "ratio",
        ),
    ];
    let mut notes = vec![format!(
        "traced iterations: {} over {} shard(s), {} events each",
        samples.len(),
        shards.len(),
        last.events
    )];
    let unaccounted = metrics.iter().find(|m| m.name == "trace.unaccounted_share").map(|m| m.value);
    if let Some(share) = unaccounted.filter(|share| share.abs() > RECONCILE_TOLERANCE) {
        notes.push(format!(
            "reconciliation: traced phases miss {:.1}% of the untraced wall (tolerance {:.0}%)",
            share * 100.0,
            RECONCILE_TOLERANCE * 100.0
        ));
    }
    Ok(LayerReport { metrics, notes, wrong })
}

/// Self time per layer, as printable lines.
pub fn self_time_notes(tracer: &Tracer) -> Vec<String> {
    tracer
        .self_times()
        .into_iter()
        .map(|(name, time)| format!("self time {name:<22} {:>12.3} ms", ms(time)))
        .collect()
}
