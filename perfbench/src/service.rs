//! The `service` workload: a resident `engine serve` and one supervised
//! `engine work --jobs 1` (CLI defaults except prefetch, see [`PREFETCH`]),
//! driven by one closed-loop submit client.
//!
//! Every cycle submits one fresh job (16 shards whose bytes the worker has
//! never seen, so every grant is a `PULL`) and then the same bytes again
//! under a new name (every grant a `HAVE`).  Each report is compared with a
//! local `run_shards` of the same job made at set-up, after that local run
//! matched the Table 1 specs shard by shard.
//!
//! A worker that exits is restarted and counted; a job without a report
//! within [`JOB_TIMEOUT`] counts as failed.  See `perfbench/README.md` for
//! the prefetch defect this guards against.

use std::fs::File;
use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rapid_engine::dist::{self, proto, ContentId, SubmitConfig};
use rapid_engine::driver::{run_shards, DriverConfig};
use rapid_engine::{DetectorRun, Outcome};

use crate::host;
use crate::inputs::{self, BaseJob, Sizes, BASE_JOBS, JOB_SHARDS};
use crate::layers::{self, Expected, Tracer};
use crate::report::{metric, Metric, RunResult};
use crate::stats::{median, percentile, tail_percentile};
use crate::SETUP_REPEATS;

/// How long one job may take before it counts as failed (jobs take tens of
/// milliseconds when the service is healthy).
pub const JOB_TIMEOUT: Duration = Duration::from_secs(2);

/// How often the supervisor checks that the worker is alive.
const SUPERVISE_EVERY: Duration = Duration::from_millis(5);

/// Supervisor ticks between peak-memory samples (every 50 ms).
const RSS_EVERY_TICKS: u64 = 10;

/// How long a graceful stop may take before processes are killed.
const STOP_GRACE: Duration = Duration::from_secs(5);

/// Time the traced run spends on the local layers of the job shards.
const LAYER_SECONDS: f64 = 1.0;

/// The dist-layer metrics, which only this workload exercises; the local
/// workloads report them as 0 ("not exercised").
const DIST_METRICS: [(&str, &str); 7] = [
    ("dist.detect_ms_per_job", "ms"),
    ("dist.overhead_ms_per_job", "ms"),
    ("dist.bytes_per_job", "bytes"),
    ("dist.cache_hit_ratio", "ratio"),
    ("dist.frame_ns_per_kib", "ns/KiB"),
    ("dist.content_id_ns_per_kib", "ns/KiB"),
    ("dist.worker_restarts", "count"),
];

/// The dist-layer metrics of a workload that does not use the service.
pub fn dist_metrics_absent() -> Vec<Metric> {
    DIST_METRICS.iter().map(|(name, unit)| metric(name, 0.0, unit)).collect()
}

/// A running coordinator and its supervised worker.
struct Service {
    addr: String,
    serve: Child,
    worker: Arc<Mutex<Child>>,
    restarts: Arc<AtomicUsize>,
    /// Peak RSS in KiB sampled by the supervisor: worker, coordinator.
    peaks: Arc<[AtomicU64; 2]>,
    stop: Arc<AtomicBool>,
    supervisor: Option<JoinHandle<()>>,
    serve_log: Option<JoinHandle<()>>,
}

/// Whether the worker prefetches (the CLI default).  Off: with prefetch on,
/// the defect described in `perfbench/README.md` resets the worker's
/// connection in about half of all 10-second runs, and each reset costs a
/// worker restart, its cache and up to two seconds of stall.  That splits
/// every latency and memory figure into two modes, too far apart for any
/// regression bound.
const PREFETCH: bool = false;

fn spawn_worker(engine: &Path, addr: &str, log: &Path) -> std::io::Result<Child> {
    let mut args = vec!["work", addr, "--jobs", "1"];
    if !PREFETCH {
        args.push("--no-prefetch");
    }
    Command::new(engine)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(File::create(log)?)
        .spawn()
}

impl Service {
    /// Starts `engine serve` on a free local port and one worker.
    fn start(engine: &Path, logs: &Path) -> Result<Service, String> {
        std::fs::create_dir_all(logs).map_err(|error| error.to_string())?;
        let mut serve = Command::new(engine)
            .args(["serve", "--bind", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|error| format!("cannot start engine serve: {error}"))?;
        let stderr = serve.stderr.take().expect("stderr is piped");
        let (found, address) = mpsc::channel();
        let mut log = File::create(logs.join("serve.log")).map_err(|error| error.to_string())?;
        let serve_log = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(rest) = line.strip_prefix("serving on ") {
                    let addr = rest.split_whitespace().next().unwrap_or_default().to_owned();
                    found.send(addr).ok();
                }
                writeln!(log, "{line}").ok();
            }
        });
        let addr = match address.recv_timeout(Duration::from_secs(30)) {
            Ok(addr) => addr,
            Err(_) => {
                serve.kill().ok();
                serve.wait().ok();
                serve_log.join().ok();
                return Err("engine serve never reported its address".to_owned());
            }
        };

        let spawn = {
            let (engine, addr, logs) = (engine.to_path_buf(), addr.clone(), logs.to_path_buf());
            move |generation: usize| {
                spawn_worker(&engine, &addr, &logs.join(format!("worker{generation}.log")))
            }
        };
        let worker = match spawn(0) {
            Ok(worker) => Arc::new(Mutex::new(worker)),
            Err(error) => {
                serve.kill().ok();
                serve.wait().ok();
                serve_log.join().ok();
                return Err(format!("cannot start engine work: {error}"));
            }
        };
        let restarts = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let peaks = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        let supervisor = {
            let (worker, restarts, stop, peaks) =
                (Arc::clone(&worker), Arc::clone(&restarts), Arc::clone(&stop), Arc::clone(&peaks));
            let serve_pid = serve.id();
            std::thread::spawn(move || {
                let mut tick = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(SUPERVISE_EVERY);
                    let mut child = worker.lock().expect("supervisor lock is never poisoned");
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    tick += 1;
                    if tick.is_multiple_of(RSS_EVERY_TICKS) {
                        for (peak, pid) in peaks.iter().zip([child.id(), serve_pid]) {
                            let kib = (host::peak_rss_mb(Some(pid)).unwrap_or(0.0) * 1024.0) as u64;
                            peak.fetch_max(kib, Ordering::Relaxed);
                        }
                    }
                    if let Ok(Some(_)) = child.try_wait() {
                        let generation = restarts.fetch_add(1, Ordering::SeqCst) + 1;
                        match spawn(generation) {
                            Ok(fresh) => *child = fresh,
                            Err(_) => break,
                        }
                    }
                }
            })
        };
        Ok(Service {
            addr,
            serve,
            worker,
            restarts,
            stop,
            peaks,
            supervisor: Some(supervisor),
            serve_log: Some(serve_log),
        })
    }

    /// The highest peak RSS sampled so far, in MB: of any worker
    /// generation and of the coordinator.
    fn peak_rss_mb(&self) -> (f64, f64) {
        let mb = |peak: &AtomicU64| peak.load(Ordering::Relaxed) as f64 / 1024.0;
        (mb(&self.peaks[0]), mb(&self.peaks[1]))
    }

    /// CPU seconds of this process, its reaped children, and the live
    /// coordinator and worker.
    fn cpu_seconds(&self) -> f64 {
        let worker = self.worker.lock().expect("supervisor lock is never poisoned").id();
        host::cpu_seconds(None, true).unwrap_or(0.0)
            + host::cpu_seconds(Some(self.serve.id()), false).unwrap_or(0.0)
            + host::cpu_seconds(Some(worker), false).unwrap_or(0.0)
    }

    /// Drains the coordinator and waits for both processes; kills what
    /// does not exit in time.
    fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(supervisor) = self.supervisor.take() {
            supervisor.join().ok();
        }
        dist::shutdown(&self.addr).ok();
        let deadline = Instant::now() + STOP_GRACE;
        let mut worker = self.worker.lock().expect("supervisor lock is never poisoned");
        for child in [&mut self.serve, &mut *worker] {
            while Instant::now() < deadline && matches!(child.try_wait(), Ok(None)) {
                std::thread::sleep(Duration::from_millis(10));
            }
            if matches!(child.try_wait(), Ok(None)) {
                child.kill().ok();
            }
            child.wait().ok();
        }
        drop(worker);
        if let Some(log) = self.serve_log.take() {
            log.join().ok();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if self.supervisor.is_some() || self.serve_log.is_some() {
            self.stop();
        }
    }
}

/// A job shape with its reference verdict.
struct Reference {
    job: BaseJob,
    merged: Vec<Outcome>,
    events: usize,
}

fn outcomes(runs: &[DetectorRun]) -> Vec<Outcome> {
    runs.iter().map(|run| run.outcome.clone()).collect()
}

/// Builds the job shapes, analyzes each locally and checks it against the
/// Table 1 specs, and checks that retagging leaves the verdict unchanged.
fn references(dir: &Path, seed: u64, result: &mut RunResult) -> Result<Vec<Reference>, String> {
    let jobs = inputs::service_jobs(seed, Sizes::FULL).map_err(|error| error.to_string())?;
    let mut out = Vec::new();
    for (index, job) in jobs.into_iter().enumerate() {
        let mut merged = Vec::new();
        let mut events = 0;
        for tag in [0, 1] {
            let paths = job
                .write_variant(&dir.join(format!("ref{index}-{tag}")), tag)
                .map_err(|error| error.to_string())?;
            let report = run_shards(
                &paths,
                layers::detectors,
                &DriverConfig { jobs: 1, ..DriverConfig::default() },
            )
            .map_err(|error| error.to_string())?;
            for (run, shard) in report.shards.iter().zip(&job.shards) {
                let expected = Expected {
                    path: run.path.clone(),
                    wcp_pairs: shard.wcp_pairs,
                    hb_pairs: shard.hb_pairs,
                };
                if !layers::verdict_ok(&run.runs, &expected) {
                    result.wrong(format!(
                        "service job {index} shard {} ({}): wcp {} / hb {} pairs, spec {} / {}",
                        run.path.display(),
                        shard.model,
                        run.runs[0].outcome.distinct_pairs(),
                        run.runs[1].outcome.distinct_pairs(),
                        shard.wcp_pairs,
                        shard.hb_pairs
                    ));
                }
            }
            if tag == 0 {
                merged = outcomes(&report.merged);
                events = report.total_events();
            } else if outcomes(&report.merged) != merged {
                result.wrong(format!(
                    "service job {index}: retagged thread names changed the verdict"
                ));
            }
        }
        out.push(Reference { job, merged, events });
    }
    Ok(out)
}

/// What one submitted job returned.
struct JobResult {
    latency: Duration,
    outcome: Result<dist::SubmitReport, String>,
}

fn submit(addr: &str, name: String, paths: &[PathBuf]) -> JobResult {
    let config = SubmitConfig {
        job: Some(name),
        paths: paths.to_vec(),
        timeout: Some(JOB_TIMEOUT),
        ..SubmitConfig::default()
    };
    let start = Instant::now();
    let outcome = dist::submit(addr, &config);
    JobResult { latency: start.elapsed(), outcome }
}

fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// Runs the service workload and fills `result`.
pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    work: &Path,
    result: &mut RunResult,
) -> Result<(), String> {
    let engine =
        std::env::current_exe().map_err(|error| error.to_string())?.with_file_name("engine");
    if !engine.exists() {
        return Err(format!("{} is missing; build the benchmark package first", engine.display()));
    }
    let dir = work.join("service");
    let logs = work.join("results").join(format!("logs-service-seed{seed}"));
    let repeats = if traced { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::new();
    let mut refs = Vec::new();
    let mut running: Option<Service> = None;
    for repeat in 0..repeats {
        if let Some(mut service) = running.take() {
            service.stop();
        }
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|error| error.to_string())?;
        }
        let start = Instant::now();
        refs = references(&dir, seed, result)?;
        let service = Service::start(&engine, &logs)?;
        // One warm-up job: connections are made and the worker is known
        // to be leasing before anything is timed.
        let warm = submit(
            &service.addr,
            "warmup".to_owned(),
            &refs[0].job.write_variant(&dir.join("warm"), 1).map_err(|error| error.to_string())?,
        );
        setups.push(start.elapsed().as_secs_f64());
        match warm.outcome {
            Ok(report) if outcomes(&report.merged) == refs[0].merged => {}
            Ok(_) => result.wrong("the warm-up job's report differs from its local run".to_owned()),
            Err(error) => {
                return Err(format!("the service did not answer its warm-up job: {error}"))
            }
        }
        let identities: Vec<(String, ContentId)> = refs
            .iter()
            .enumerate()
            .map(|(index, r)| (format!("job{index}"), r.job.content()))
            .collect();
        if repeat == 0 {
            result.inputs = identities;
        } else if result.inputs != identities {
            result.wrong(format!("set-up {repeat} made other job bytes than set-up 0"));
        }
        running = Some(service);
    }
    let mut service = running.expect("at least one set-up");

    let mut tracer = Tracer::new("service");
    let mut latencies = Vec::new();
    let mut cycle_rates = Vec::new();
    let mut detect = Vec::new();
    let mut overhead = Vec::new();
    let mut bytes = Vec::new();
    let (mut hits, mut granted, mut folded) = (0.0, 0.0, 0usize);
    let mut errors: Vec<String> = Vec::new();
    let cpu_start = service.cpu_seconds();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut tag = 2u32;
    while Instant::now() < deadline {
        let reference = &refs[tag as usize % BASE_JOBS];
        let cycle = tracer.open("service.cycle", None);
        let cycle_start = Instant::now();
        let span = tracer.open("service.prepare", Some(cycle));
        let paths = reference
            .job
            .write_variant(&dir.join("job"), tag)
            .map_err(|error| error.to_string())?;
        tracer.close(span);
        let mut cycle_events = 0;
        for round in ["fresh", "again"] {
            let span = tracer.open("dist.submit", Some(cycle));
            let job = submit(&service.addr, format!("{round}-{tag}"), &paths);
            tracer.close(span);
            match job.outcome {
                Ok(report) => {
                    let ok =
                        report.shards == JOB_SHARDS && outcomes(&report.merged) == reference.merged;
                    result.tally.record(ok);
                    if !ok {
                        result.wrong(format!(
                            "job {round}-{tag}: the report differs from its local run"
                        ));
                    }
                    let detected: Duration = report.merged.iter().map(|run| run.time).sum();
                    latencies.push(ms(job.latency));
                    detect.push(ms(detected));
                    overhead.push(ms(job.latency.saturating_sub(detected)));
                    bytes.push(report.scheduling.get("bytes_transferred").unwrap_or(0.0));
                    hits += report.scheduling.get("cache_hits").unwrap_or(0.0);
                    granted += report.shards as f64;
                    cycle_events += report.events;
                    folded += report.events;
                }
                Err(error) => {
                    result.tally.record(false);
                    // A failed job misses any latency limit.
                    latencies.push(ms(job.latency.max(JOB_TIMEOUT)));
                    errors.push(format!("job {round}-{tag}: {error}"));
                }
            }
        }
        cycle_rates.push(cycle_events as f64 / cycle_start.elapsed().as_secs_f64());
        tracer.close(cycle);
        tag += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    let cpu = service.cpu_seconds() - cpu_start;
    let (rss, serve_rss) = service.peak_rss_mb();
    let restarts = service.restarts.load(Ordering::SeqCst);
    service.stop();
    result.notes.push(format!("peak RSS: worker {rss:.1} MB, coordinator {serve_rss:.1} MB"));

    let jobs = latencies.len();
    result.notes.push(format!(
        "{jobs} jobs in {} closed-loop cycles over {wall:.2} s ({} events folded); {} failed; {restarts} worker restart(s); job latency p90 from {jobs} samples{}",
        cycle_rates.len(),
        folded,
        errors.len(),
        match tail_percentile(jobs) {
            Some(p) => format!(" (highest percentile with 10 samples beyond it: p{p} = {:.3} ms)", percentile(&latencies, p)),
            None => " (too few for 10 samples beyond p90: indicative only)".to_owned(),
        }
    ));
    result.notes.extend(errors.iter().take(5).cloned());
    for generation in 0..restarts {
        let log = std::fs::read_to_string(logs.join(format!("worker{generation}.log")))
            .unwrap_or_default();
        let last = log.lines().rev().find(|line| !line.trim().is_empty()).unwrap_or("(no output)");
        result.notes.push(format!("worker {generation} exited: {last}"));
    }
    if latencies.is_empty() {
        return Err("no job completed a cycle".to_owned());
    }
    if traced {
        result.per_layer.extend(dist_layers(
            &refs,
            &detect,
            &overhead,
            &bytes,
            hits / granted.max(1.0),
            restarts,
        ));
        let shards: Vec<Expected> = refs
            .iter()
            .enumerate()
            .flat_map(|(index, r)| {
                let dir = dir.join(format!("ref{index}-0"));
                r.job.shards.iter().enumerate().map(move |(shard, s)| Expected {
                    path: dir.join(format!("shard{shard:02}.rwf")),
                    wcp_pairs: s.wcp_pairs,
                    hb_pairs: s.hb_pairs,
                })
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs_f64(LAYER_SECONDS);
        let report = layers::measure(&mut tracer, &shards, deadline, &mut result.tally)?;
        for message in report.wrong {
            result.wrong(message);
        }
        result.notes.extend(report.notes);
        result.notes.extend(layers::self_time_notes(&tracer));
        let mut metrics = report.metrics;
        metrics.append(&mut result.per_layer);
        result.per_layer = metrics;
        tracer
            .write(&work.join("results").join(format!("spans-service-seed{seed}.tsv")))
            .map_err(|error| format!("cannot write spans: {error}"))?;
    } else {
        let events: usize = refs.iter().map(|r| r.events).sum();
        result.notes.push(format!(
            "job shapes: {} events over {} jobs of {JOB_SHARDS} shards",
            events,
            refs.len()
        ));
        result.end_to_end = vec![
            metric("events_per_s", median(&cycle_rates), "events/s"),
            metric("events_per_cpu_s", folded as f64 / cpu.max(1e-3), "events/CPU-s"),
            metric("peak_rss_mb", rss, "MB"),
            metric("setup_s", median(&setups), "s"),
        ];
        result.unbounded = vec![
            metric("job_p50_ms", median(&latencies), "ms"),
            metric("job_p90_ms", percentile(&latencies, 90.0), "ms"),
        ];
    }
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

/// The dist-layer metrics: per-job medians from the loop plus in-memory
/// framing and content-identity costs over the job shapes' bytes.
fn dist_layers(
    refs: &[Reference],
    detect: &[f64],
    overhead: &[f64],
    bytes: &[f64],
    hit_ratio: f64,
    restarts: usize,
) -> Vec<Metric> {
    let payload: Vec<&[u8]> =
        refs.iter().flat_map(|r| r.job.shards.iter().map(|s| s.bytes.as_slice())).collect();
    let kib = payload.iter().map(|b| b.len()).sum::<usize>() as f64 / 1024.0;
    let per_kib = |f: &dyn Fn(&[u8])| {
        let samples: Vec<f64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                for shard in &payload {
                    f(shard);
                }
                start.elapsed().as_nanos() as f64 / kib
            })
            .collect();
        median(&samples)
    };
    let frame = per_kib(&|shard| {
        let mut sink = Vec::with_capacity(shard.len() + 64);
        proto::write_chunks(&mut sink, 0, 0, shard, proto::CHUNK_LEN)
            .expect("memory sinks do not fail");
        std::hint::black_box(sink);
    });
    let content = per_kib(&|shard| {
        std::hint::black_box(ContentId::of(shard));
    });
    let mean = |values: &[f64]| values.iter().sum::<f64>() / values.len().max(1) as f64;
    let or_zero = |values: &[f64]| if values.is_empty() { 0.0 } else { median(values) };
    vec![
        metric("dist.detect_ms_per_job", or_zero(detect), "ms"),
        metric("dist.overhead_ms_per_job", or_zero(overhead), "ms"),
        metric("dist.bytes_per_job", mean(bytes), "bytes"),
        metric("dist.cache_hit_ratio", hit_ratio, "ratio"),
        metric("dist.frame_ns_per_kib", frame, "ns/KiB"),
        metric("dist.content_id_ns_per_kib", content, "ns/KiB"),
        metric("dist.worker_restarts", restarts as f64, "count"),
    ]
}
