//! Streaming analysis CLI: run any combination of detectors over one trace
//! file in a single pass, fan a *set* of shard files onto a worker pool —
//! in-process or across machines — or convert between the trace encodings.
//!
//! ```text
//! engine stream  <file> [--format std|csv] [--detectors wcp,hb,fasttrack,mcm]
//!                       [--window N] [--timeout SECS] [--races] [--quiet]
//!                       [--fail-on-race]
//! engine batch   <file> [same flags]      # parse fully, then analyze (for comparison)
//! engine multi   <files-or-dirs...> [--jobs N] [--per-shard] [same flags]
//!                                         # one engine per shard on a worker pool,
//!                                         # outcomes merged by location/variable names
//! engine serve   [files-or-dirs...] --bind <addr> [--once] [--jobs-hint N]
//!                                   [--lease-timeout SECS] [--speculate-after SECS]
//!                                   [same flags]
//!                                         # resident coordinator: a job registry served
//!                                         # by one worker fleet; files, read once, are
//!                                         # the closed "default" job; with speculation,
//!                                         # straggling leases are re-granted to idle
//!                                         # workers (first result wins)
//! engine work    <addr> [--jobs N] [--retries N] [--retry-max-wait SECS]
//!                       [--cache-bytes N] [--no-prefetch]
//!                                         # worker: lease, analyze, return outcomes;
//!                                         # reconnects with capped exponential backoff;
//!                                         # caches shard bytes by content id (HAVE skips
//!                                         # re-transfers) and prefetches lease N+1 while
//!                                         # lease N analyzes unless --no-prefetch
//! engine submit  <addr> [--job NAME [files-or-dirs...]] [--timeout SECS]
//!                       [--races] [--fail-on-race]
//!                                         # open a named job / fetch its merged report
//! engine shutdown <addr>                  # ask a resident coordinator to drain and exit
//! engine convert <in> <out>               # re-encode: .rwf out = binary, .csv out = CSV,
//!                                         # anything else = std text
//! ```
//!
//! Binary (`.rwf`) inputs are auto-detected by their magic bytes in every
//! mode, so `multi` and `serve` mix text and binary shards freely; for text
//! the format defaults to `csv` for `.csv` files and `std` otherwise.
//! `multi`, `serve` and `submit` also accept shard *directories*, expanded
//! to the `.rwf`/`.csv`/`.std` files they contain in sorted name order (and
//! erroring on a directory with no trace files — no silent empty runs).
//! Every file streams through one small buffer, so a trace of any size
//! needs no more memory than the detectors' state and the name tables.
//! Pipes work too (`cat t.rwf | engine stream /dev/stdin`); text streams
//! from them, a `.rwf` is read whole first.  With `--races`, `stream`
//! prints each race the moment a detector flags it, and every analyzing
//! mode prints the final merged race pairs; `--quiet` suppresses the online
//! lines.  With `--fail-on-race` the process exits with code **2** when any
//! detector reports a race (exit 1 stays reserved for errors), so CI
//! pipelines can gate on detection results — `serve` and `submit` apply it
//! to the *merged* reports, so a race on any shard of any job trips it.
//!
//! `serve` runs as a resident service: it answers any number of named jobs
//! (each `engine submit --job NAME files…` opens one with its own detector
//! spec) over one worker fleet, without restarting between jobs.  `--once`
//! restores the v1 semantics — drain and exit after the first answered
//! report.  SIGINT (Ctrl-C) begins the same graceful drain: open jobs are
//! aborted, closed jobs run to completion, then the service exits.  In
//! `submit` mode `--timeout` bounds the wait for the report (exit 1 when it
//! expires); in every other mode it is the MCM solver timeout.
//!
//! The trace encodings are specified in `docs/FORMAT.md`; the
//! coordinator/worker protocol and the outcome wire codec in
//! `docs/PROTOCOL.md`.

// The one `unsafe` block registers the SIGINT hook in `drain_on_sigint`:
// std has no safe signal API.
#![deny(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use rapid_engine::dist::{self, ServeConfig};
use rapid_engine::driver::{self, DriverConfig};
use rapid_engine::{Detector, DetectorRun, DetectorSpec, Engine};
use rapid_mcm::McmConfig;
use rapid_trace::format::{self, AnyReader, StreamNames, TextFormat};
use rapid_trace::{NameResolver, Race};

struct Options {
    mode: String,
    /// Positional arguments: one file for stream/batch, input+output for
    /// convert, one or more shard files or directories for multi, zero or
    /// more for serve, a coordinator address for work/submit/shutdown
    /// (submit takes shard files after the address).
    paths: Vec<String>,
    format: Option<String>,
    detectors: Vec<String>,
    window: usize,
    timeout: u64,
    jobs: Option<usize>,
    per_shard: bool,
    print_races: bool,
    quiet: bool,
    fail_on_race: bool,
    bind: Option<String>,
    jobs_hint: u32,
    lease_timeout: u64,
    once: bool,
    job: Option<String>,
    submit_timeout: Option<u64>,
    retries: u32,
    retry_max_wait: u64,
    cache_bytes: usize,
    no_prefetch: bool,
    speculate_after: Option<f64>,
    chaos_seed: Option<u64>,
}

const USAGE: &str = "usage: engine <stream|batch> <file> [--format std|csv] \
[--detectors wcp,hb,fasttrack,mcm] [--window N] [--timeout SECS] \
[--races] [--quiet] [--fail-on-race]\n       engine multi <files-or-dirs...> [--jobs N] \
[--per-shard] [same flags]\n       engine serve [files-or-dirs...] --bind ADDR [--once] \
[--jobs-hint N] [--lease-timeout SECS] [--speculate-after SECS] [same flags]\n       \
engine work <addr> [--jobs N] [--retries N] [--retry-max-wait SECS] [--cache-bytes N] \
[--no-prefetch]\n       engine submit <addr> [--job NAME \
[files-or-dirs...]] [--timeout SECS] [--races] [--fail-on-race]\n       \
engine shutdown <addr>\n       engine convert <in> <out> [--format std|csv]\n\
work|submit also take --chaos-seed N (test/bench only: deterministic fault \
injection into the transport, replayable from the seed)";

/// Exit code when `--fail-on-race` is set and a race was detected.
const RACE_EXIT_CODE: u8 = 2;

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mode = args.next().ok_or(USAGE)?;
    if mode == "--help" || mode == "-h" {
        return Err(USAGE.to_owned());
    }
    if !matches!(
        mode.as_str(),
        "stream" | "batch" | "multi" | "convert" | "serve" | "work" | "submit" | "shutdown"
    ) {
        return Err(format!("unknown mode `{mode}`\n{USAGE}"));
    }
    let mut options = Options {
        mode,
        paths: Vec::new(),
        format: None,
        detectors: vec!["wcp".to_owned(), "hb".to_owned()],
        window: McmConfig::default().window_size,
        timeout: McmConfig::default().solver_timeout_secs,
        jobs: None,
        per_shard: false,
        print_races: false,
        quiet: false,
        fail_on_race: false,
        bind: None,
        jobs_hint: 0,
        lease_timeout: 60,
        once: false,
        job: None,
        submit_timeout: None,
        retries: 3,
        retry_max_wait: 30,
        cache_bytes: 64 << 20,
        no_prefetch: false,
        speculate_after: None,
        chaos_seed: None,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => {
                let value = args.next().ok_or("--format requires std or csv")?;
                if value != "std" && value != "csv" {
                    return Err(format!("unknown format `{value}`"));
                }
                options.format = Some(value);
            }
            "--detectors" => {
                let value = args.next().ok_or("--detectors requires a comma-separated list")?;
                options.detectors = value.split(',').map(str::to_owned).collect();
            }
            "--window" => {
                let value = args.next().ok_or("--window requires a value")?;
                options.window =
                    value.parse().map_err(|_| format!("invalid window size {value}"))?;
            }
            "--timeout" => {
                let value = args.next().ok_or("--timeout requires a value")?;
                let secs = value.parse().map_err(|_| format!("invalid timeout {value}"))?;
                // In submit mode the flag bounds the report wait; elsewhere
                // it is the MCM solver timeout.
                if options.mode == "submit" {
                    options.submit_timeout = Some(secs);
                } else {
                    options.timeout = secs;
                }
            }
            "--jobs" => {
                let value = args.next().ok_or("--jobs requires a value")?;
                let jobs: usize =
                    value.parse().map_err(|_| format!("invalid job count {value}"))?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".to_owned());
                }
                options.jobs = Some(jobs);
            }
            "--bind" => {
                options.bind = Some(args.next().ok_or("--bind requires an address")?);
            }
            "--jobs-hint" => {
                let value = args.next().ok_or("--jobs-hint requires a value")?;
                options.jobs_hint =
                    value.parse().map_err(|_| format!("invalid jobs hint {value}"))?;
            }
            "--lease-timeout" => {
                let value = args.next().ok_or("--lease-timeout requires seconds")?;
                options.lease_timeout =
                    value.parse().map_err(|_| format!("invalid lease timeout {value}"))?;
                if options.lease_timeout == 0 {
                    return Err("--lease-timeout must be at least 1 second".to_owned());
                }
            }
            "--once" => options.once = true,
            "--job" => {
                options.job = Some(args.next().ok_or("--job requires a name")?);
            }
            "--retries" => {
                let value = args.next().ok_or("--retries requires a value")?;
                options.retries =
                    value.parse().map_err(|_| format!("invalid retry count {value}"))?;
            }
            "--retry-max-wait" => {
                let value = args.next().ok_or("--retry-max-wait requires seconds")?;
                options.retry_max_wait =
                    value.parse().map_err(|_| format!("invalid retry wait {value}"))?;
                if options.retry_max_wait == 0 {
                    return Err("--retry-max-wait must be at least 1 second".to_owned());
                }
            }
            "--cache-bytes" => {
                let value =
                    args.next().ok_or("--cache-bytes requires a byte count (0 disables)")?;
                options.cache_bytes =
                    value.parse().map_err(|_| format!("invalid cache size {value}"))?;
            }
            "--no-prefetch" => options.no_prefetch = true,
            "--speculate-after" => {
                let value = args.next().ok_or("--speculate-after requires seconds")?;
                let secs: f64 =
                    value.parse().map_err(|_| format!("invalid speculation delay {value}"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("--speculate-after must be a positive number of seconds".to_owned());
                }
                options.speculate_after = Some(secs);
            }
            "--chaos-seed" => {
                let value = args.next().ok_or("--chaos-seed requires a value")?;
                options.chaos_seed =
                    Some(value.parse().map_err(|_| format!("invalid chaos seed {value}"))?);
            }
            "--per-shard" => options.per_shard = true,
            "--races" => options.print_races = true,
            "--quiet" => options.quiet = true,
            "--fail-on-race" => options.fail_on_race = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown argument {other}\n{USAGE}"))
            }
            path => options.paths.push(path.to_owned()),
        }
    }
    let expected = match options.mode.as_str() {
        "convert" => "an input and an output path",
        "multi" => "at least one trace file or directory",
        "work" | "shutdown" => "a coordinator address",
        "submit" => "a coordinator address (then optional shard files)",
        _ => "a trace file",
    };
    let arity_ok = match options.mode.as_str() {
        "convert" => options.paths.len() == 2,
        "multi" => !options.paths.is_empty(),
        "serve" => true, // zero files = a pure resident service
        "work" | "shutdown" => options.paths.len() == 1,
        "submit" => !options.paths.is_empty(),
        _ => options.paths.len() == 1,
    };
    if !arity_ok {
        return Err(format!("{} requires {expected}\n{USAGE}", options.mode));
    }
    if options.mode == "serve" && options.bind.is_none() {
        return Err(format!("serve requires --bind ADDR\n{USAGE}"));
    }
    if options.mode == "submit" && options.paths.len() > 1 && options.job.is_none() {
        return Err(format!("submitting shard files requires --job NAME\n{USAGE}"));
    }
    Ok(options)
}

/// The detector configuration named by the CLI flags.
fn spec(options: &Options) -> DetectorSpec {
    DetectorSpec {
        detectors: options.detectors.clone(),
        window: options.window,
        timeout_secs: options.timeout,
    }
}

/// Validates the detector list once up front (so worker factories can't
/// fail) and builds one fresh detector set.  `threads` pre-registers a known
/// thread count (batch mode) so the streaming cores reproduce the library
/// batch entry points exactly; stream/multi pass 0 and discover threads from
/// the file.
fn build_detectors(options: &Options, threads: usize) -> Result<Vec<Box<dyn Detector>>, String> {
    spec(options).build_with_threads(threads)
}

fn build_engine(options: &Options, threads: usize) -> Result<Engine, String> {
    let mut engine = Engine::new();
    for detector in build_detectors(options, threads)? {
        engine.register(detector);
    }
    Ok(engine)
}

fn text_format(options: &Options, path: &str) -> TextFormat {
    match options.format.as_deref() {
        Some("csv") => TextFormat::Csv,
        Some(_) => TextFormat::Std,
        None => TextFormat::from_path(path),
    }
}

/// The `--format` override as the driver/coordinator expect it.
fn text_override(options: &Options) -> Option<TextFormat> {
    options.format.as_deref().map(|name| match name {
        "csv" => TextFormat::Csv,
        _ => TextFormat::Std,
    })
}

fn open_reader(options: &Options, path: &str) -> Result<AnyReader, String> {
    AnyReader::open(path, text_format(options, path), true)
        .map_err(|error| format!("cannot read {path}: {error}"))
}

/// Expands shard directories into the trace files they contain (sorted),
/// erroring on a directory without any.
fn shard_paths(options: &Options) -> Result<Vec<PathBuf>, String> {
    let inputs: Vec<PathBuf> = options.paths.iter().map(PathBuf::from).collect();
    driver::expand_shard_paths(&inputs).map_err(|error| format!("cannot expand {error}"))
}

/// One line per race, printed the moment a detector flags it.
fn online_race_line(names: &StreamNames, detector: &str, race: &Race) -> String {
    format!(
        "race [{detector}] on {}: {} <-> {} ({} .. {})",
        names.variable_label(race.variable),
        names.location_label(race.first_location),
        names.location_label(race.second_location),
        race.first,
        race.second,
    )
}

/// Prints each detector's merged race pairs — name-keyed, so the output is
/// deterministic and identical across job counts, ingestion paths, and the
/// local/distributed divide.
fn print_race_pairs(runs: &[DetectorRun]) {
    print!("{}", Engine::render_race_pairs(runs));
}

fn any_races(runs: &[DetectorRun]) -> bool {
    runs.iter().any(|run| !run.outcome.races.is_empty())
}

fn convert(options: &Options) -> Result<bool, String> {
    let [input, output] = options.paths.as_slice() else {
        unreachable!("convert arity checked at parse time");
    };
    let reader = open_reader(options, input)?;
    let source = reader.source();
    let trace =
        format::collect_any(reader).map_err(|error| format!("cannot parse {input}: {error}"))?;
    format::write_trace_file(&trace, output)
        .map_err(|error| format!("cannot write {output}: {error}"))?;
    println!("converted {input} ({} events, {source}) -> {output}", trace.len());
    Ok(false)
}

/// Renders the merged half of a multi/serve/submit report: headline, table,
/// optional race pairs.
fn print_merged(options: &Options, headline: String, merged: &[DetectorRun]) {
    println!("{headline}");
    println!();
    print!("{}", Engine::render(merged));
    if options.print_races {
        println!();
        print_race_pairs(merged);
    }
}

/// The `multi` mode: shard files onto the worker-pool driver, then render
/// the merged report (and optionally the per-shard breakdown).
fn run_multi(options: &Options) -> Result<bool, String> {
    // Validate the detector list before spawning anything.
    build_detectors(options, 0)?;
    let paths = shard_paths(options)?;
    let config = DriverConfig {
        jobs: options.jobs.unwrap_or_else(driver::available_jobs),
        text: text_override(options),
    };
    let factory = || build_detectors(options, 0).expect("detector list validated above");
    let report = driver::run_shards(&paths, factory, &config)
        .map_err(|error| format!("cannot analyze {error}"))?;

    if options.per_shard {
        for shard in &report.shards {
            let races: Vec<String> = shard
                .runs
                .iter()
                .map(|run| format!("{} {}", run.outcome.detector, run.outcome.distinct_pairs()))
                .collect();
            println!(
                "shard {} ({} events via {}) in {:.2?}  [{}]",
                shard.path.display(),
                shard.events,
                shard.source,
                shard.wall,
                races.join(", "),
            );
        }
        println!();
    }
    print_merged(
        options,
        format!(
            "merged {} shard(s), {} events, jobs={} in {:.2?}",
            report.shards.len(),
            report.total_events(),
            report.jobs,
            report.wall,
        ),
        &report.merged,
    );
    Ok(report.has_races())
}

/// Installs a SIGINT handler that begins a graceful coordinator drain: a
/// signal-safe flag flip, observed by a watcher thread that calls into the
/// registry (which a signal handler itself must never do).
#[cfg(unix)]
#[allow(unsafe_code)]
fn drain_on_sigint(control: dist::ServeControl) {
    use std::sync::atomic::{AtomicBool, Ordering};
    static INTERRUPTED: AtomicBool = AtomicBool::new(false);
    extern "C" fn on_sigint(_signum: i32) {
        INTERRUPTED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    // SAFETY: `signal` is the C library's, declared with its C signature,
    // and the handler it installs only stores to an atomic, which is
    // async-signal-safe.
    unsafe {
        signal(SIGINT, on_sigint);
    }
    std::thread::spawn(move || loop {
        if INTERRUPTED.load(Ordering::SeqCst) {
            eprintln!("interrupted; draining (closed jobs finish, open jobs abort)…");
            control.drain();
            return;
        }
        std::thread::sleep(Duration::from_millis(200));
    });
}

#[cfg(not(unix))]
fn drain_on_sigint(_control: dist::ServeControl) {}

/// The `serve` mode: a resident coordinator multiplexing named jobs over
/// one worker fleet.  Shard files (if any) are read once, at startup, into
/// the closed `default` job; `--once` drains after the first answered
/// report; SIGINT drains gracefully.  Prints each job's merged report as
/// `multi` would.
fn run_serve(options: &Options) -> Result<bool, String> {
    let paths = shard_paths(options)?;
    let config = ServeConfig {
        bind: options.bind.clone().expect("checked at parse time"),
        spec: spec(options),
        text: text_override(options),
        jobs_hint: options.jobs_hint,
        lease_timeout: Duration::from_secs(options.lease_timeout),
        once: options.once,
        speculate_after: options.speculate_after.map(Duration::from_secs_f64),
        ..ServeConfig::default()
    };
    let coordinator = dist::Coordinator::bind(&paths, &config)?;
    drain_on_sigint(coordinator.control());
    eprintln!(
        "serving on {} ({} file shard(s) as job `{}`, lease timeout {}s, {}); \
waiting for workers and jobs…",
        coordinator.local_addr(),
        paths.len(),
        dist::DEFAULT_JOB,
        options.lease_timeout,
        if options.once { "one-shot" } else { "resident" },
    );
    let summary = coordinator.run()?;

    if summary.jobs.is_empty() {
        println!("served no jobs");
        return Ok(false);
    }
    let mut races = false;
    let mut failures = Vec::new();
    for job in &summary.jobs {
        match &job.result {
            Ok(report) => {
                if options.per_shard {
                    for shard in &report.shards {
                        println!(
                            "shard {} ({} events via {}) in {:.2?}",
                            shard.path.display(),
                            shard.events,
                            shard.source,
                            shard.wall,
                        );
                    }
                    println!();
                }
                print_merged(
                    options,
                    format!(
                        "job `{}`: served {} shard(s), {} events to {} worker(s) in {:.2?}",
                        job.name,
                        report.shards.len(),
                        report.total_events(),
                        report.jobs,
                        report.wall,
                    ),
                    &report.merged,
                );
                if !report.scheduling.is_empty() {
                    println!("scheduling: {}", report.scheduling);
                }
                println!();
                races = races || report.has_races();
            }
            Err(message) => {
                println!("job `{}` failed: {message}", job.name);
                println!();
                failures.push(job.name.clone());
            }
        }
    }
    if !failures.is_empty() {
        return Err(format!("{} job(s) failed: {}", failures.len(), failures.join(", ")));
    }
    Ok(races)
}

/// The test/bench-only chaos hook: `--chaos-seed N` turns on deterministic
/// fault injection, replayable from the seed; without it the transport
/// stays plain.
fn chaos(options: &Options) -> dist::ChaosConfig {
    match options.chaos_seed {
        Some(seed) => dist::ChaosConfig::seeded(seed),
        None => dist::ChaosConfig::default(),
    }
}

/// The `work` mode: pump the coordinator's registry until it drains,
/// reconnecting through the retry budget when the coordinator drops.
fn run_work(options: &Options) -> Result<bool, String> {
    let addr = options.paths[0].as_str();
    let config = dist::WorkConfig {
        jobs: options.jobs,
        retries: options.retries,
        retry_max_wait: Duration::from_secs(options.retry_max_wait),
        cache_bytes: options.cache_bytes,
        prefetch: !options.no_prefetch,
        chaos: chaos(options),
        ..dist::WorkConfig::default()
    };
    let summary = dist::work(addr, &config)?;
    println!(
        "worker done: {} shard(s), {} events via {addr} (jobs={})",
        summary.stats.shards, summary.stats.events, summary.jobs,
    );
    Ok(false)
}

/// The `submit` mode: with shard files, open the named job, stream every
/// shard to the coordinator, and wait for its merged report; without,
/// fetch the named (or default) job's report.
fn run_submit(options: &Options) -> Result<bool, String> {
    let addr = options.paths[0].as_str();
    let files: Vec<PathBuf> = options.paths[1..].iter().map(PathBuf::from).collect();
    let paths =
        driver::expand_shard_paths(&files).map_err(|error| format!("cannot expand {error}"))?;
    let config = dist::SubmitConfig {
        job: options.job.clone(),
        paths,
        spec: spec(options),
        text: text_override(options),
        timeout: options.submit_timeout.map(Duration::from_secs),
        chaos: chaos(options),
        ..dist::SubmitConfig::default()
    };
    let report = dist::submit(addr, &config)?;
    // The scheduling line goes above the merged report: everything from
    // `race pairs:` down must stay byte-comparable with `engine multi`
    // output (the CI diffs depend on it), and a warm cache must not
    // perturb that tail.
    if !report.scheduling.is_empty() {
        println!("scheduling: {}", report.scheduling);
    }
    print_merged(
        options,
        format!(
            "job `{}`: merged {} shard(s), {} events from {} worker(s) in {:.2?}",
            options.job.as_deref().unwrap_or(dist::DEFAULT_JOB),
            report.shards,
            report.events,
            report.workers,
            report.wall,
        ),
        &report.merged,
    );
    Ok(any_races(&report.merged))
}

/// The `shutdown` mode: ask a resident coordinator to drain and exit.
fn run_shutdown(options: &Options) -> Result<bool, String> {
    let addr = options.paths[0].as_str();
    dist::shutdown(addr)?;
    println!("coordinator at {addr} is draining");
    Ok(false)
}

fn run(options: &Options) -> Result<bool, String> {
    let start = std::time::Instant::now();
    let path = options.paths[0].as_str();
    let runs;
    if options.mode == "stream" {
        // Single pass: file -> reader -> engine; the trace is never
        // materialized, so memory stays bounded by detector state.
        let mut engine = build_engine(options, 0)?;
        let mut reader = open_reader(options, path)?;
        let source = reader.source();
        if options.print_races && !options.quiet {
            // Online reporting needs each event's races as they are flagged,
            // so this path fans out one event at a time.
            while let Some(next) = reader.next() {
                let event = next.map_err(|error| format!("cannot parse {path}: {error}"))?;
                engine.on_event_with(&event, |detector, race| {
                    println!("{}", online_race_line(reader.names(), detector, race));
                });
            }
        } else {
            engine.run(&mut reader).map_err(|error| format!("cannot parse {path}: {error}"))?;
        }
        runs = engine.finish(reader.names());
        println!(
            "streamed {} events via {source} ({} distinct threads, {} variables) in {:.2?}",
            engine.events_seen(),
            reader.names().num_threads(),
            reader.names().num_variables(),
            start.elapsed()
        );
    } else {
        // Batch comparison path: materialize the trace, then drive the same
        // engine over it.
        let reader = open_reader(options, path)?;
        let source = reader.source();
        let trace =
            format::collect_any(reader).map_err(|error| format!("cannot parse {path}: {error}"))?;
        let mut engine = build_engine(options, trace.num_threads())?;
        engine.run_trace(&trace);
        runs = engine.finish(&trace);
        println!(
            "analyzed {} events (batch via {source}; {} threads, {} variables) in {:.2?}",
            trace.len(),
            trace.num_threads(),
            trace.num_variables(),
            start.elapsed()
        );
    }
    println!();
    print!("{}", Engine::render(&runs));
    if options.print_races {
        println!();
        print_race_pairs(&runs);
    }
    Ok(any_races(&runs))
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let result = match options.mode.as_str() {
        "convert" => convert(&options),
        "multi" => run_multi(&options),
        "serve" => run_serve(&options),
        "work" => run_work(&options),
        "submit" => run_submit(&options),
        "shutdown" => run_shutdown(&options),
        _ => run(&options),
    };
    match result {
        Ok(races) if races && options.fail_on_race => ExitCode::from(RACE_EXIT_CODE),
        Ok(_) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
