//! Regenerates Table 1 of the paper on the modelled benchmark workloads.
//!
//! ```text
//! cargo run --release -p rapid-bench --bin table1 [-- --max-events N] [--benchmark NAME] [--jobs N]
//! cargo run --release -p rapid-bench --bin table1 -- --bench-smoke BENCH.json [--max-events N]
//! cargo run --release -p rapid-bench --bin table1 -- --bench-smoke-dist BENCH.json [--max-events N]
//! ```
//!
//! `--jobs N` analyzes table rows concurrently on the engine's worker pool
//! (row order and race counts are unaffected; per-row timing columns share
//! the machine, so compare timings at the default `--jobs 1`).
//!
//! The table run exits with status 1 unless every row matches the paper's
//! qualitative shape, so a CI smoke run gates the reproduction.
//!
//! `--bench-smoke` exercises the PR 4 parallel shard driver: it generates a
//! four-shard moldyn-derived workload (`gen::emit` to binary `.rwf`), runs
//! the merge-layer driver at `jobs = 1` and `jobs = 4`, cross-checks the
//! merged race-pair sets against per-file sequential analysis, and writes a
//! machine-readable JSON point (per-jobs wall-clock, scaling, merged race
//! counts, cross-check verdicts, host parallelism) so the perf trajectory
//! accumulates across PRs.
//!
//! `--bench-smoke-dist` exercises the PR 5 *distributed* front-end over the
//! same four-shard workload: a coordinator on an ephemeral localhost port,
//! two TCP worker loops, and a submit client, timed against local
//! `jobs = 1` and `jobs = 2` runs — cross-checking that all three merged
//! outcomes are equal as whole values (`PartialEq`, metrics included), the
//! distributed ≡ local guarantee.
//!
//! `--bench-smoke-service` exercises the PR 6 *resident* service over the
//! same workload: one coordinator + one two-worker fleet answering two
//! named jobs submitted sequentially (shards streamed over the wire as
//! chunks) without restarting, timing resident submit latency against the
//! one-shot `serve` baseline and a chunked (64 KiB) against a single-frame
//! transfer — each job's merged outcome cross-checked against local
//! `jobs = 2` as whole `Outcome` values.
//!
//! `--bench-smoke-chaos` exercises the PR 8 chaos-hardened transport: the
//! resident chunked-64 KiB submit with the chaos hook compiled in but
//! *off* (the zero-overhead claim, comparable to the PR 6 point), and the
//! same job under a deterministic one-drop schedule — the worker's first
//! leasing connection is cut 1500 bytes into its read direction, mid
//! chunk-stream — timing the recovery (requeue + clean reconnect) and
//! cross-checking both merged outcomes against local `jobs = 2` as whole
//! `Outcome` values.
//!
//! `--bench-smoke-placement` exercises the PR 9 scheduling layer: a cold
//! then warm submit of the same job name against one cache-enabled
//! prefetching fleet (the warm pass must move zero shard bytes — every
//! grant answered `HAVE`), prefetch-on vs prefetch-off resident cycles
//! over a modelled slow link (a 2 ms chaos `Delay` every 64 KiB of the
//! worker's read direction, best of 3), and a speculative straggler
//! recovery — one worker Stalls
//! mid chunk-stream and `speculate-after` re-leases its shard to the
//! clean worker in ~50 ms instead of waiting out the 5 s lease timeout
//! (the PR 8 recovery path) — every point cross-checked against local
//! `jobs = 2` as whole `Outcome` values.

use std::env;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use rapid_bench::table1::{table1_jobs, table1_row, Table1Report};
use rapid_engine::dist::{self, ServeConfig};
use rapid_engine::driver::{self, DriverConfig, MultiReport};
use rapid_engine::{Detector, DetectorSpec};
use rapid_gen::{benchmarks, emit};

struct Args {
    max_events: usize,
    benchmark: Option<String>,
    bench_smoke: Option<String>,
    bench_smoke_dist: Option<String>,
    bench_smoke_service: Option<String>,
    bench_smoke_chaos: Option<String>,
    bench_smoke_placement: Option<String>,
    jobs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        max_events: 50_000,
        benchmark: None,
        bench_smoke: None,
        bench_smoke_dist: None,
        bench_smoke_service: None,
        bench_smoke_chaos: None,
        bench_smoke_placement: None,
        jobs: 1,
    };
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--max-events" => {
                let value = args.next().ok_or("--max-events requires a value")?;
                parsed.max_events =
                    value.parse().map_err(|_| format!("invalid event count {value}"))?;
            }
            "--benchmark" => {
                parsed.benchmark = Some(args.next().ok_or("--benchmark requires a value")?);
            }
            "--bench-smoke" => {
                parsed.bench_smoke =
                    Some(args.next().ok_or("--bench-smoke requires an output path")?);
            }
            "--bench-smoke-dist" => {
                parsed.bench_smoke_dist =
                    Some(args.next().ok_or("--bench-smoke-dist requires an output path")?);
            }
            "--bench-smoke-service" => {
                parsed.bench_smoke_service =
                    Some(args.next().ok_or("--bench-smoke-service requires an output path")?);
            }
            "--bench-smoke-chaos" => {
                parsed.bench_smoke_chaos =
                    Some(args.next().ok_or("--bench-smoke-chaos requires an output path")?);
            }
            "--bench-smoke-placement" => {
                parsed.bench_smoke_placement =
                    Some(args.next().ok_or("--bench-smoke-placement requires an output path")?);
            }
            "--jobs" => {
                let value = args.next().ok_or("--jobs requires a value")?;
                parsed.jobs = value.parse().map_err(|_| format!("invalid job count {value}"))?;
                if parsed.jobs == 0 {
                    return Err("--jobs must be at least 1".to_owned());
                }
            }
            "--help" | "-h" => {
                return Err("usage: table1 [--max-events N] [--benchmark NAME] [--jobs N] \
[--bench-smoke OUT.json] [--bench-smoke-dist OUT.json] [--bench-smoke-service OUT.json] \
[--bench-smoke-chaos OUT.json] [--bench-smoke-placement OUT.json]"
                    .to_owned())
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// The WCP + HB detector set every shard of the smoke workload runs.
fn smoke_detectors() -> Vec<Box<dyn Detector>> {
    vec![Box::new(rapid_wcp::WcpStream::new()), Box::new(rapid_hb::HbStream::new())]
}

/// Generates the four-shard moldyn-derived workload as binary `.rwf` files,
/// returning the shard paths and their event counts.
fn emit_smoke_shards(max_events: usize) -> Result<(Vec<PathBuf>, Vec<usize>), String> {
    // Four different scales of the same benchmark model: realistic "many
    // logs of one program" sharding, with shard-local interning exercised
    // by each file having its own string tables.
    let scales = [1.0f64, 0.7, 0.5, 0.3];
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let mut paths = Vec::new();
    let mut events = Vec::new();
    for (index, scale) in scales.iter().enumerate() {
        let cap = ((max_events as f64 * scale) as usize).max(1_000);
        let spec = benchmarks::spec("moldyn").ok_or("moldyn spec missing")?;
        let target = spec.default_scaled_events().min(cap);
        let model =
            benchmarks::benchmark_scaled("moldyn", target).ok_or("cannot generate moldyn model")?;
        let path = dir.join(format!("rapid-bench-pr4-moldyn-{index}-{pid}.rwf"));
        emit::write_trace_file(&model.trace, &path)
            .map_err(|error| format!("cannot write {}: {error}", path.display()))?;
        events.push(model.trace.len());
        paths.push(path);
    }
    Ok((paths, events))
}

/// Runs the driver over the shard set at the given job count.
fn drive(paths: &[PathBuf], jobs: usize) -> Result<MultiReport, String> {
    driver::run_shards(paths, smoke_detectors, &DriverConfig { jobs, ..DriverConfig::default() })
        .map_err(|error| format!("driver failed on {error}"))
}

/// Runs the PR 4 bench-smoke: 4-shard workload, jobs=1 vs jobs=4, sequential
/// per-file cross-check, JSON point.
fn run_bench_smoke(out: &str, max_events: usize) -> Result<(), String> {
    let (paths, shard_events) = emit_smoke_shards(max_events)?;
    let cleanup = || {
        for path in &paths {
            std::fs::remove_file(path).ok();
        }
    };
    let result = bench_smoke_inner(out, &paths, &shard_events);
    cleanup();
    result
}

fn bench_smoke_inner(out: &str, paths: &[PathBuf], shard_events: &[usize]) -> Result<(), String> {
    // Untimed warmup (page cache, allocator): one full pass.
    drive(paths, 1)?;

    let jobs1 = drive(paths, 1)?;
    let jobs4 = drive(paths, 4)?;

    // Cross-check 1: jobs=1 and jobs=4 merged outcomes are identical as
    // whole values — race-pair sets, per-pair stats, event totals and every
    // aggregated metric (Outcome implements PartialEq).
    for (left, right) in jobs1.merged.iter().zip(&jobs4.merged) {
        if left.outcome != right.outcome {
            return Err(format!(
                "jobs=1 and jobs=4 merged outcomes diverged for {}",
                left.outcome.detector
            ));
        }
    }
    // Cross-check 2: the merged outcome equals folding sequential per-file
    // runs (the driver with one job *is* the sequential per-file analysis,
    // but assert the outcome algebra end to end: same pairs, summed events).
    if jobs1.total_events() != shard_events.iter().sum::<usize>() {
        return Err("merged event count diverged from the shard sum".to_owned());
    }
    for run in &jobs1.merged {
        if run.outcome.shards != paths.len() {
            return Err(format!(
                "{} merged {} shard(s), expected {}",
                run.outcome.detector,
                run.outcome.shards,
                paths.len()
            ));
        }
    }

    let wall1_ms = jobs1.wall.as_secs_f64() * 1e3;
    let wall4_ms = jobs4.wall.as_secs_f64() * 1e3;
    let speedup = if wall4_ms > 0.0 { wall1_ms / wall4_ms } else { 0.0 };
    let wcp = &jobs1.merged[0].outcome;
    let hb = &jobs1.merged[1].outcome;

    let per_shard: Vec<String> = jobs1
        .shards
        .iter()
        .map(|shard| {
            format!(
                "    {{\"file\": \"{}\", \"events\": {}, \"source\": \"{}\", \
\"wall_ms\": {:.3}}}",
                shard.path.file_name().and_then(|name| name.to_str()).unwrap_or("?"),
                shard.events,
                shard.source,
                shard.wall.as_secs_f64() * 1e3,
            )
        })
        .collect();

    let json = format!(
        "{{\n  \"pr\": 4,\n  \"kind\": \"bench-smoke\",\n  \
\"workload\": \"moldyn x4 shards (.rwf, scales 1.0/0.7/0.5/0.3)\",\n  \
\"detectors\": [\"wcp\", \"hb\"],\n  \
\"host_parallelism\": {host},\n  \
\"shards\": {shards},\n  \"total_events\": {total_events},\n  \
\"jobs1_wall_ms\": {wall1_ms:.3},\n  \"jobs4_wall_ms\": {wall4_ms:.3},\n  \
\"jobs1_to_4_speedup\": {speedup:.3},\n  \
\"merged_wcp_races\": {wcp_races},\n  \"merged_hb_races\": {hb_races},\n  \
\"merged_wcp_race_events\": {wcp_events},\n  \
\"crosscheck_jobs_equal\": true,\n  \"crosscheck_shard_sum\": true,\n  \
\"per_shard\": [\n{per_shard}\n  ]\n}}\n",
        host = driver::available_jobs(),
        shards = paths.len(),
        total_events = jobs1.total_events(),
        wcp_races = wcp.distinct_pairs(),
        hb_races = hb.distinct_pairs(),
        wcp_events = wcp.race_events(),
        per_shard = per_shard.join(",\n"),
    );
    let mut file =
        std::fs::File::create(out).map_err(|error| format!("cannot create {out}: {error}"))?;
    file.write_all(json.as_bytes()).map_err(|error| format!("cannot write {out}: {error}"))?;
    println!("wrote {out}");
    print!("{json}");
    Ok(())
}

/// Runs the PR 5 distributed bench-smoke: the same 4-shard workload, local
/// jobs=1 and jobs=2 vs a coordinator + 2 localhost TCP workers, with the
/// distributed ≡ local equality asserted on whole `Outcome` values.
fn run_bench_smoke_dist(out: &str, max_events: usize) -> Result<(), String> {
    let (paths, shard_events) = emit_smoke_shards(max_events)?;
    let cleanup = || {
        for path in &paths {
            std::fs::remove_file(path).ok();
        }
    };
    let result = bench_smoke_dist_inner(out, &paths, &shard_events);
    cleanup();
    result
}

/// Spawns a fleet of single-threaded worker loops against `addr`.
fn spawn_fleet(
    addr: &str,
    workers: usize,
) -> Vec<std::thread::JoinHandle<Result<dist::WorkSummary, String>>> {
    (0..workers)
        .map(|_| {
            let addr = addr.to_owned();
            let config = dist::WorkConfig { jobs: Some(1), ..dist::WorkConfig::default() };
            std::thread::spawn(move || dist::work(&addr, &config))
        })
        .collect()
}

/// One full distributed pass over `paths`: a one-shot coordinator +
/// `workers` worker loops + a submit that fetches the default job,
/// returning the serve-side report.
fn drive_distributed(paths: &[PathBuf], workers: usize) -> Result<MultiReport, String> {
    let spec = DetectorSpec::default(); // wcp + hb, same as smoke_detectors()
    let config = ServeConfig { spec, once: true, ..ServeConfig::default() };
    let coordinator = dist::Coordinator::bind(paths, &config)?;
    let addr = coordinator.local_addr().to_string();
    let serving = std::thread::spawn(move || coordinator.run());
    let fleet = spawn_fleet(&addr, workers);
    dist::submit(&addr, &dist::SubmitConfig::default())?;
    for worker in fleet {
        worker.join().map_err(|_| "worker thread panicked".to_owned())??;
    }
    let summary = serving.join().map_err(|_| "serve thread panicked".to_owned())??;
    let job = summary.jobs.into_iter().next().ok_or("serve answered no jobs")?;
    job.result
}

fn bench_smoke_dist_inner(
    out: &str,
    paths: &[PathBuf],
    shard_events: &[usize],
) -> Result<(), String> {
    // Untimed warmup (page cache, allocator): one full local pass.
    drive(paths, 1)?;

    let jobs1 = drive(paths, 1)?;
    let jobs2 = drive(paths, 2)?;
    let distributed = drive_distributed(paths, 2)?;

    // The acceptance cross-check: local jobs=1 ≡ local jobs=2 ≡
    // coordinator + 2 TCP workers, as whole Outcome values (PartialEq,
    // metrics included).
    for (index, baseline) in jobs1.merged.iter().enumerate() {
        for (view, name) in
            [(&jobs2.merged[index], "local jobs=2"), (&distributed.merged[index], "distributed")]
        {
            if baseline.outcome != view.outcome {
                return Err(format!(
                    "{name} merged outcome diverged from local jobs=1 for {}",
                    baseline.outcome.detector
                ));
            }
        }
    }
    if distributed.total_events() != shard_events.iter().sum::<usize>() {
        return Err("distributed event count diverged from the shard sum".to_owned());
    }
    for run in &distributed.merged {
        if run.outcome.shards != paths.len() {
            return Err(format!(
                "{} folded {} shard(s), expected {} (shards-sum invariant)",
                run.outcome.detector,
                run.outcome.shards,
                paths.len()
            ));
        }
    }

    let wall1_ms = jobs1.wall.as_secs_f64() * 1e3;
    let wall2_ms = jobs2.wall.as_secs_f64() * 1e3;
    let dist_ms = distributed.wall.as_secs_f64() * 1e3;
    let wcp = &jobs1.merged[0].outcome;
    let hb = &jobs1.merged[1].outcome;
    let json = format!(
        "{{\n  \"pr\": 5,\n  \"kind\": \"bench-smoke-dist\",\n  \
\"workload\": \"moldyn x4 shards (.rwf, scales 1.0/0.7/0.5/0.3)\",\n  \
\"detectors\": [\"wcp\", \"hb\"],\n  \
\"host_parallelism\": {host},\n  \
\"shards\": {shards},\n  \"total_events\": {total_events},\n  \
\"local_jobs1_wall_ms\": {wall1_ms:.3},\n  \"local_jobs2_wall_ms\": {wall2_ms:.3},\n  \
\"distributed_2worker_wall_ms\": {dist_ms:.3},\n  \
\"distributed_workers\": {workers},\n  \
\"distributed_over_local_jobs2\": {ratio:.3},\n  \
\"merged_wcp_races\": {wcp_races},\n  \"merged_hb_races\": {hb_races},\n  \
\"crosscheck_distributed_equals_local\": true,\n  \
\"crosscheck_shard_sum\": true\n}}\n",
        host = driver::available_jobs(),
        shards = paths.len(),
        total_events = distributed.total_events(),
        workers = distributed.jobs,
        ratio = if wall2_ms > 0.0 { dist_ms / wall2_ms } else { 0.0 },
        wcp_races = wcp.distinct_pairs(),
        hb_races = hb.distinct_pairs(),
    );
    let mut file =
        std::fs::File::create(out).map_err(|error| format!("cannot create {out}: {error}"))?;
    file.write_all(json.as_bytes()).map_err(|error| format!("cannot write {out}: {error}"))?;
    println!("wrote {out}");
    print!("{json}");
    Ok(())
}

/// Runs the PR 6 resident-service bench-smoke: one long-running coordinator
/// and 2 resident TCP workers answering two named jobs over the same shard
/// set (single-frame vs 64 KiB chunked transfer), timed against a one-shot
/// serve cycle and cross-checked against local jobs=2.
fn run_bench_smoke_service(out: &str, max_events: usize) -> Result<(), String> {
    let (paths, shard_events) = emit_smoke_shards(max_events)?;
    let cleanup = || {
        for path in &paths {
            std::fs::remove_file(path).ok();
        }
    };
    let result = bench_smoke_service_inner(out, &paths, &shard_events);
    cleanup();
    result
}

/// Opens a named job over `paths` on the resident coordinator at `addr`,
/// streams the shards at `chunk_len`, and returns the merged report plus
/// the submit-side wall clock (open → streamed → folded report).
fn submit_job(
    addr: &str,
    job: &str,
    paths: &[PathBuf],
    chunk_len: usize,
) -> Result<(dist::SubmitReport, f64), String> {
    let config = dist::SubmitConfig {
        job: Some(job.to_owned()),
        paths: paths.to_vec(),
        chunk_len,
        ..dist::SubmitConfig::default()
    };
    let started = std::time::Instant::now();
    let report = dist::submit(addr, &config)?;
    Ok((report, started.elapsed().as_secs_f64() * 1e3))
}

fn bench_smoke_service_inner(
    out: &str,
    paths: &[PathBuf],
    shard_events: &[usize],
) -> Result<(), String> {
    // Untimed warmup (page cache, allocator): one full local pass.
    drive(paths, 1)?;
    let local = drive(paths, 2)?;

    // Baseline: a full one-shot cycle (bind + fleet spin-up + default-job
    // fetch + drain), the PR 5 deployment model.
    let oneshot_started = std::time::Instant::now();
    let oneshot = drive_distributed(paths, 2)?;
    let oneshot_ms = oneshot_started.elapsed().as_secs_f64() * 1e3;

    // Resident service: bind with no pre-registered shards, keep one fleet
    // of 2 workers alive, and answer two named jobs over the same shard
    // set — "bulk" ships each shard as a single chunk, "chunked" streams
    // 64 KiB chunks (multi-chunk on every shard of this workload).
    let config = ServeConfig { spec: DetectorSpec::default(), ..ServeConfig::default() };
    let coordinator = dist::Coordinator::bind(&[], &config)?;
    let addr = coordinator.local_addr().to_string();
    let serving = std::thread::spawn(move || coordinator.run());
    let fleet: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || dist::work(&addr, &dist::WorkConfig::default()))
        })
        .collect();

    let run = || -> Result<_, String> {
        let (bulk, bulk_ms) = submit_job(&addr, "bulk", paths, 1 << 30)?;
        let (chunked, chunked_ms) = submit_job(&addr, "chunked", paths, 64 << 10)?;
        Ok((bulk, bulk_ms, chunked, chunked_ms))
    };
    let submitted = run();
    // Drain the fleet whether the jobs succeeded or not, then surface the
    // first failure.
    let shutdown = dist::shutdown(&addr);
    for worker in fleet {
        worker.join().map_err(|_| "worker thread panicked".to_owned())??;
    }
    let summary = serving.join().map_err(|_| "serve thread panicked".to_owned())??;
    let (bulk, bulk_ms, chunked, chunked_ms) = submitted?;
    shutdown?;

    // The acceptance cross-check: every view of the workload — local
    // jobs=2, the one-shot cycle, and both resident jobs — folds to the
    // same merged Outcome values (PartialEq, metrics included).
    for (index, baseline) in local.merged.iter().enumerate() {
        for (view, name) in [
            (&oneshot.merged[index], "one-shot"),
            (&bulk.merged[index], "resident job bulk"),
            (&chunked.merged[index], "resident job chunked"),
        ] {
            if baseline.outcome != view.outcome {
                return Err(format!(
                    "{name} merged outcome diverged from local jobs=2 for {}",
                    baseline.outcome.detector
                ));
            }
        }
    }
    if bulk.events != shard_events.iter().sum::<usize>() {
        return Err("resident job event count diverged from the shard sum".to_owned());
    }
    if summary.jobs.len() != 2 {
        return Err(format!("serve summary has {} job(s), expected 2", summary.jobs.len()));
    }
    for job in &summary.jobs {
        job.result.as_ref().map_err(|error| format!("job {} failed: {error}", job.name))?;
    }

    let wcp = &local.merged[0].outcome;
    let hb = &local.merged[1].outcome;
    let json = format!(
        "{{\n  \"pr\": 6,\n  \"kind\": \"bench-smoke-service\",\n  \
\"workload\": \"moldyn x4 shards (.rwf, scales 1.0/0.7/0.5/0.3)\",\n  \
\"detectors\": [\"wcp\", \"hb\"],\n  \
\"host_parallelism\": {host},\n  \
\"shards\": {shards},\n  \"total_events\": {total_events},\n  \
\"local_jobs2_wall_ms\": {local_ms:.3},\n  \
\"oneshot_cycle_wall_ms\": {oneshot_ms:.3},\n  \
\"resident_submit_singleframe_wall_ms\": {bulk_ms:.3},\n  \
\"resident_submit_chunked64k_wall_ms\": {chunked_ms:.3},\n  \
\"resident_over_oneshot\": {ratio:.3},\n  \
\"chunked_over_singleframe\": {chunk_ratio:.3},\n  \
\"merged_wcp_races\": {wcp_races},\n  \"merged_hb_races\": {hb_races},\n  \
\"crosscheck_service_equals_local\": true,\n  \
\"crosscheck_shard_sum\": true\n}}\n",
        host = driver::available_jobs(),
        shards = paths.len(),
        total_events = bulk.events,
        local_ms = local.wall.as_secs_f64() * 1e3,
        ratio = if oneshot_ms > 0.0 { bulk_ms / oneshot_ms } else { 0.0 },
        chunk_ratio = if bulk_ms > 0.0 { chunked_ms / bulk_ms } else { 0.0 },
        wcp_races = wcp.distinct_pairs(),
        hb_races = hb.distinct_pairs(),
    );
    let mut file =
        std::fs::File::create(out).map_err(|error| format!("cannot create {out}: {error}"))?;
    file.write_all(json.as_bytes()).map_err(|error| format!("cannot write {out}: {error}"))?;
    println!("wrote {out}");
    print!("{json}");
    Ok(())
}

/// Runs the PR 8 chaos bench-smoke: the resident chunked submit with the
/// chaos hook off (overhead claim) vs the same job under a deterministic
/// one-drop schedule (recovery claim), both cross-checked against local
/// `jobs = 2`.
fn run_bench_smoke_chaos(out: &str, max_events: usize) -> Result<(), String> {
    let (paths, shard_events) = emit_smoke_shards(max_events)?;
    let cleanup = || {
        for path in &paths {
            std::fs::remove_file(path).ok();
        }
    };
    let result = bench_smoke_chaos_inner(out, &paths, &shard_events);
    cleanup();
    result
}

/// One resident service cycle: bind, run one worker fleet (each worker
/// under `worker_config`), submit one chunked-64 KiB job, drain.  Returns
/// the job's report and the submit-side wall clock.
fn resident_cycle(
    paths: &[PathBuf],
    workers: usize,
    worker_config: &dist::WorkConfig,
    lease_timeout: std::time::Duration,
) -> Result<(dist::SubmitReport, f64), String> {
    let config =
        ServeConfig { spec: DetectorSpec::default(), lease_timeout, ..ServeConfig::default() };
    let coordinator = dist::Coordinator::bind(&[], &config)?;
    let addr = coordinator.local_addr().to_string();
    let serving = std::thread::spawn(move || coordinator.run());
    let fleet: Vec<_> = (0..workers)
        .map(|_| {
            let addr = addr.clone();
            let config = worker_config.clone();
            std::thread::spawn(move || dist::work(&addr, &config))
        })
        .collect();
    let submitted = submit_job(&addr, "chaos-point", paths, 64 << 10);
    let shutdown = dist::shutdown(&addr);
    for worker in fleet {
        worker.join().map_err(|_| "worker thread panicked".to_owned())??;
    }
    serving.join().map_err(|_| "serve thread panicked".to_owned())??;
    shutdown?;
    submitted
}

fn bench_smoke_chaos_inner(
    out: &str,
    paths: &[PathBuf],
    shard_events: &[usize],
) -> Result<(), String> {
    // Untimed warmup (page cache, allocator): one full local pass.
    drive(paths, 1)?;
    let local = drive(paths, 2)?;

    // Point 1 — chaos off: the resident chunked-64 KiB submit over the v3
    // checksummed transport with the (compiled-in, default-off) chaos hook.
    // Comparable to the PR 6 resident chunked point: the hook must cost
    // nothing when off.
    let clean_config = dist::WorkConfig { jobs: Some(1), ..dist::WorkConfig::default() };
    let (clean, clean_ms) =
        resident_cycle(paths, 2, &clean_config, std::time::Duration::from_secs(60))?;

    // Point 2 — recovery under a deterministic one-drop schedule: the
    // single worker's first leasing connection is cut 1500 bytes into its
    // read direction (mid chunk-stream of the first granted shard); the
    // coordinator requeues on the disconnect and the retry budget brings a
    // clean connection back.
    let one_drop = dist::FaultPlan::clean().with_read(1500, dist::FaultAction::Cut);
    let chaotic_config = dist::WorkConfig {
        jobs: Some(1),
        retries: 3,
        retry_max_wait: std::time::Duration::from_millis(250),
        chaos: dist::ChaosConfig::scripted(vec![one_drop]),
        ..dist::WorkConfig::default()
    };
    let (recovered, recovery_ms) =
        resident_cycle(paths, 1, &chaotic_config, std::time::Duration::from_secs(5))?;

    // The acceptance cross-check: both the chaos-off and the recovered
    // runs fold to the local jobs=2 outcome exactly.
    for (index, baseline) in local.merged.iter().enumerate() {
        for (view, name) in
            [(&clean.merged[index], "chaos-off"), (&recovered.merged[index], "one-drop recovery")]
        {
            if baseline.outcome != view.outcome {
                return Err(format!(
                    "{name} merged outcome diverged from local jobs=2 for {}",
                    baseline.outcome.detector
                ));
            }
        }
    }
    if clean.events != shard_events.iter().sum::<usize>()
        || recovered.events != shard_events.iter().sum::<usize>()
    {
        return Err("chaos bench event count diverged from the shard sum".to_owned());
    }

    let wcp = &local.merged[0].outcome;
    let hb = &local.merged[1].outcome;
    let json = format!(
        "{{\n  \"pr\": 8,\n  \"kind\": \"bench-smoke-chaos\",\n  \
\"workload\": \"moldyn x4 shards (.rwf, scales 1.0/0.7/0.5/0.3)\",\n  \
\"detectors\": [\"wcp\", \"hb\"],\n  \
\"host_parallelism\": {host},\n  \
\"shards\": {shards},\n  \"total_events\": {total_events},\n  \
\"local_jobs2_wall_ms\": {local_ms:.3},\n  \
\"chaos_off_chunked64k_wall_ms\": {clean_ms:.3},\n  \
\"recovery_1drop_chunked64k_wall_ms\": {recovery_ms:.3},\n  \
\"recovery_over_chaos_off\": {ratio:.3},\n  \
\"fault_schedule\": \"worker connection 0: read Cut at byte 1500\",\n  \
\"merged_wcp_races\": {wcp_races},\n  \"merged_hb_races\": {hb_races},\n  \
\"crosscheck_chaos_off_equals_local\": true,\n  \
\"crosscheck_recovery_equals_local\": true,\n  \
\"crosscheck_shard_sum\": true\n}}\n",
        host = driver::available_jobs(),
        shards = paths.len(),
        total_events = clean.events,
        local_ms = local.wall.as_secs_f64() * 1e3,
        ratio = if clean_ms > 0.0 { recovery_ms / clean_ms } else { 0.0 },
        wcp_races = wcp.distinct_pairs(),
        hb_races = hb.distinct_pairs(),
    );
    let mut file =
        std::fs::File::create(out).map_err(|error| format!("cannot create {out}: {error}"))?;
    file.write_all(json.as_bytes()).map_err(|error| format!("cannot write {out}: {error}"))?;
    println!("wrote {out}");
    print!("{json}");
    Ok(())
}

/// Runs the PR 9 placement bench-smoke: cold vs warm submit against one
/// cache-enabled prefetching fleet, prefetch on vs off, and a speculative
/// straggler recovery, all cross-checked against local `jobs = 2`.
fn run_bench_smoke_placement(out: &str, max_events: usize) -> Result<(), String> {
    let (paths, shard_events) = emit_smoke_shards(max_events)?;
    let cleanup = || {
        for path in &paths {
            std::fs::remove_file(path).ok();
        }
    };
    let result = bench_smoke_placement_inner(out, &paths, &shard_events);
    cleanup();
    result
}

/// One resident cycle with speculation armed and one scripted straggler:
/// worker 0's first leasing connection Stalls 1500 bytes into its read
/// direction (mid chunk-stream of its first granted shard) while worker 1
/// stays clean, so the coordinator re-leases the stalled shard to the
/// clean worker once it has been in flight 50 ms — instead of waiting out
/// the 5 s lease timeout, the PR 8 recovery path.  Returns the job's
/// report and the submit-side wall clock.
fn speculative_cycle(paths: &[PathBuf]) -> Result<(dist::SubmitReport, f64), String> {
    let config = ServeConfig {
        spec: DetectorSpec::default(),
        lease_timeout: std::time::Duration::from_secs(5),
        speculate_after: Some(std::time::Duration::from_millis(50)),
        ..ServeConfig::default()
    };
    let coordinator = dist::Coordinator::bind(&[], &config)?;
    let addr = coordinator.local_addr().to_string();
    let serving = std::thread::spawn(move || coordinator.run());
    let stall = dist::FaultPlan::clean().with_read(1500, dist::FaultAction::Stall);
    let straggler_config = dist::WorkConfig {
        jobs: Some(1),
        retries: 1,
        patience: Some(std::time::Duration::from_secs(2)),
        chaos: dist::ChaosConfig::scripted(vec![stall]),
        ..dist::WorkConfig::default()
    };
    let straggler = {
        let addr = addr.clone();
        std::thread::spawn(move || dist::work(&addr, &straggler_config))
    };
    // Let the straggler park its LEASE first so it deterministically holds
    // a shard when the clean worker drains the rest of the queue.
    std::thread::sleep(std::time::Duration::from_millis(100));
    let clean_config = dist::WorkConfig { jobs: Some(1), ..dist::WorkConfig::default() };
    let clean = {
        let addr = addr.clone();
        std::thread::spawn(move || dist::work(&addr, &clean_config))
    };
    let submitted = submit_job(&addr, "speculate", paths, 64 << 10);
    let shutdown = dist::shutdown(&addr);
    // The straggler is sacrificial: it wakes from the stall after its 2 s
    // patience, and by then the service is draining — its own summary may
    // be an error, which is fine as long as the job itself folded.
    let _ = straggler.join().map_err(|_| "straggler thread panicked".to_owned())?;
    clean.join().map_err(|_| "clean worker thread panicked".to_owned())??;
    serving.join().map_err(|_| "serve thread panicked".to_owned())??;
    shutdown?;
    submitted
}

fn bench_smoke_placement_inner(
    out: &str,
    paths: &[PathBuf],
    shard_events: &[usize],
) -> Result<(), String> {
    // Untimed warmup (page cache, allocator): one full local pass.
    drive(paths, 1)?;
    let local = drive(paths, 2)?;
    let total_bytes: u64 = paths
        .iter()
        .map(|path| {
            std::fs::metadata(path)
                .map(|meta| meta.len())
                .map_err(|error| format!("cannot stat {}: {error}", path.display()))
        })
        .sum::<Result<u64, String>>()?;

    // Points 1 + 2 — cold vs warm against one resident fleet: a single
    // worker process with two connections sharing one 64 MiB cache,
    // prefetch on.  The warm pass re-opens the same job name over the
    // same bytes, so every grant must come back `HAVE` and zero shard
    // bytes may cross the wire.
    let config = ServeConfig { spec: DetectorSpec::default(), ..ServeConfig::default() };
    let coordinator = dist::Coordinator::bind(&[], &config)?;
    let addr = coordinator.local_addr().to_string();
    let serving = std::thread::spawn(move || coordinator.run());
    let worker = {
        let addr = addr.clone();
        let config = dist::WorkConfig {
            jobs: Some(2),
            cache_bytes: 64 << 20,
            prefetch: true,
            ..dist::WorkConfig::default()
        };
        std::thread::spawn(move || dist::work(&addr, &config))
    };
    let run = || -> Result<_, String> {
        let (cold, cold_ms) = submit_job(&addr, "placement", paths, 64 << 10)?;
        let (warm, warm_ms) = submit_job(&addr, "placement", paths, 64 << 10)?;
        Ok((cold, cold_ms, warm, warm_ms))
    };
    let submitted = run();
    let shutdown = dist::shutdown(&addr);
    worker.join().map_err(|_| "worker thread panicked".to_owned())??;
    serving.join().map_err(|_| "serve thread panicked".to_owned())??;
    let (cold, cold_ms, warm, warm_ms) = submitted?;
    shutdown?;

    let metric = |report: &dist::SubmitReport, name: &str| -> Result<f64, String> {
        report.scheduling.get(name).ok_or_else(|| format!("scheduling metric {name} missing"))
    };
    let cold_bytes = metric(&cold, "bytes_transferred")?;
    let warm_bytes = metric(&warm, "bytes_transferred")?;
    let warm_hits = metric(&warm, "cache_hits")?;
    if cold_bytes != total_bytes as f64 {
        return Err(format!(
            "cold submit transferred {cold_bytes} shard byte(s), expected {total_bytes}"
        ));
    }
    if warm_bytes != 0.0 || warm_hits != paths.len() as f64 {
        return Err(format!(
            "warm submit transferred {warm_bytes} byte(s) with {warm_hits} cache hit(s), \
expected 0 bytes and {} hits",
            paths.len()
        ));
    }

    // Point 3 — prefetch on vs off over a modelled slow link, best of 3
    // cold resident cycles each (no cache, one single-connection worker).
    // On loopback the transfer is pure CPU, so on a single core there is
    // no latency for the pipeline to hide; a scripted 2 ms chaos Delay
    // every 64 KiB of the worker's read direction models the link latency
    // prefetch exists for — identical schedule in both modes, and with it
    // the chunk stream of lease N+1 sleeps while lease N analyzes.
    let mut slow_link = dist::FaultPlan::clean();
    let mut anchor = 64u64 << 10;
    while anchor < total_bytes {
        slow_link = slow_link.with_read(anchor, dist::FaultAction::Delay { millis: 2 });
        anchor += 64 << 10;
    }
    let prefetch_on = dist::WorkConfig {
        jobs: Some(1),
        prefetch: true,
        chaos: dist::ChaosConfig::scripted(vec![slow_link.clone()]),
        ..Default::default()
    };
    let prefetch_off = dist::WorkConfig {
        jobs: Some(1),
        chaos: dist::ChaosConfig::scripted(vec![slow_link]),
        ..Default::default()
    };
    let mut on_ms = f64::INFINITY;
    let mut off_ms = f64::INFINITY;
    let mut pipelined = Vec::new();
    let mut blocking = Vec::new();
    for _ in 0..3 {
        let (report, ms) =
            resident_cycle(paths, 1, &prefetch_on, std::time::Duration::from_secs(60))?;
        on_ms = on_ms.min(ms);
        pipelined.push(report);
        let (report, ms) =
            resident_cycle(paths, 1, &prefetch_off, std::time::Duration::from_secs(60))?;
        off_ms = off_ms.min(ms);
        blocking.push(report);
    }

    // Point 4 — speculative straggler recovery, against PR 8's measured
    // lease-expiry recovery (BENCH_pr8.json, same container: ~262 ms).
    let (stolen_report, recovery_ms) = speculative_cycle(paths)?;
    let stolen = metric(&stolen_report, "leases_stolen")?;
    if stolen < 1.0 {
        return Err("the speculative cycle never re-leased the stalled shard".to_owned());
    }

    // The acceptance cross-check: every distributed view folds to the
    // local jobs=2 outcome exactly.
    let mut views: Vec<(&dist::SubmitReport, String)> = vec![
        (&cold, "cold submit".to_owned()),
        (&warm, "warm submit".to_owned()),
        (&stolen_report, "speculative recovery".to_owned()),
    ];
    for (round, report) in pipelined.iter().enumerate() {
        views.push((report, format!("prefetch-on round {round}")));
    }
    for (round, report) in blocking.iter().enumerate() {
        views.push((report, format!("prefetch-off round {round}")));
    }
    for (index, baseline) in local.merged.iter().enumerate() {
        for (view, name) in &views {
            if baseline.outcome != view.merged[index].outcome {
                return Err(format!(
                    "{name} merged outcome diverged from local jobs=2 for {}",
                    baseline.outcome.detector
                ));
            }
        }
    }
    for (view, name) in &views {
        if view.events != shard_events.iter().sum::<usize>() {
            return Err(format!("{name} event count diverged from the shard sum"));
        }
    }

    let wcp = &local.merged[0].outcome;
    let hb = &local.merged[1].outcome;
    let json = format!(
        "{{\n  \"pr\": 9,\n  \"kind\": \"bench-smoke-placement\",\n  \
\"workload\": \"moldyn x4 shards (.rwf, scales 1.0/0.7/0.5/0.3)\",\n  \
\"detectors\": [\"wcp\", \"hb\"],\n  \
\"host_parallelism\": {host},\n  \
\"shards\": {shards},\n  \"total_events\": {total_events},\n  \
\"total_shard_bytes\": {total_bytes},\n  \
\"local_jobs2_wall_ms\": {local_ms:.3},\n  \
\"cold_submit_wall_ms\": {cold_ms:.3},\n  \
\"warm_submit_wall_ms\": {warm_ms:.3},\n  \
\"warm_over_cold\": {warm_ratio:.3},\n  \
\"cold_bytes_transferred\": {cold_bytes},\n  \
\"warm_bytes_transferred\": {warm_bytes},\n  \
\"warm_cache_hits\": {warm_hits},\n  \
\"prefetch_on_wall_ms\": {on_ms:.3},\n  \
\"prefetch_off_wall_ms\": {off_ms:.3},\n  \
\"prefetch_over_off\": {prefetch_ratio:.3},\n  \
\"prefetch_link_model\": \"read Delay 2 ms per 64 KiB, one worker, best of 3\",\n  \
\"speculative_recovery_wall_ms\": {recovery_ms:.3},\n  \
\"leases_stolen\": {stolen},\n  \
\"fault_schedule\": \"straggler connection 0: read Stall at byte 1500; speculate-after 50 ms, \
lease-timeout 5 s\",\n  \
\"pr8_lease_expiry_recovery_wall_ms\": 262.0,\n  \
\"merged_wcp_races\": {wcp_races},\n  \"merged_hb_races\": {hb_races},\n  \
\"crosscheck_placement_equals_local\": true,\n  \
\"crosscheck_warm_zero_bytes\": true,\n  \
\"crosscheck_shard_sum\": true\n}}\n",
        host = driver::available_jobs(),
        shards = paths.len(),
        total_events = cold.events,
        local_ms = local.wall.as_secs_f64() * 1e3,
        warm_ratio = if cold_ms > 0.0 { warm_ms / cold_ms } else { 0.0 },
        prefetch_ratio = if off_ms > 0.0 { on_ms / off_ms } else { 0.0 },
        wcp_races = wcp.distinct_pairs(),
        hb_races = hb.distinct_pairs(),
    );
    let mut file =
        std::fs::File::create(out).map_err(|error| format!("cannot create {out}: {error}"))?;
    file.write_all(json.as_bytes()).map_err(|error| format!("cannot write {out}: {error}"))?;
    println!("wrote {out}");
    print!("{json}");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(out) = args.bench_smoke {
        return match run_bench_smoke(&out, args.max_events) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("{message}");
                ExitCode::FAILURE
            }
        };
    }
    if let Some(out) = args.bench_smoke_dist {
        return match run_bench_smoke_dist(&out, args.max_events) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("{message}");
                ExitCode::FAILURE
            }
        };
    }
    if let Some(out) = args.bench_smoke_service {
        return match run_bench_smoke_service(&out, args.max_events) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("{message}");
                ExitCode::FAILURE
            }
        };
    }
    if let Some(out) = args.bench_smoke_chaos {
        return match run_bench_smoke_chaos(&out, args.max_events) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("{message}");
                ExitCode::FAILURE
            }
        };
    }
    if let Some(out) = args.bench_smoke_placement {
        return match run_bench_smoke_placement(&out, args.max_events) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("{message}");
                ExitCode::FAILURE
            }
        };
    }

    let report = match args.benchmark {
        Some(name) => match table1_row(&name, args.max_events) {
            Some(row) => Table1Report { rows: vec![row] },
            None => {
                eprintln!("unknown benchmark `{name}`");
                return ExitCode::FAILURE;
            }
        },
        None => table1_jobs(args.max_events, args.jobs),
    };

    println!(
        "Table 1 reproduction (benchmark models scaled to <= {} events, jobs={})",
        args.max_events, args.jobs
    );
    println!("{}", report.render());
    println!(
        "{}/{} rows match the paper's qualitative shape (WCP >= HB, windowed MCM <= WCP, bold rows reproduced)",
        report.rows_matching_paper(),
        report.rows.len()
    );
    for row in &report.rows {
        println!(
            "  {:<14} paper: WCP {:>3} HB {:>3} RVmax {:>3}   measured: WCP {:>3} HB {:>3} RV {:>3}/{:>3}",
            row.spec.name,
            row.spec.wcp_races,
            row.spec.hb_races,
            row.spec.rv_max_races,
            row.wcp_races,
            row.hb_races,
            row.mcm_small_races,
            row.mcm_large_races,
        );
    }
    if report.rows_matching_paper() == report.rows.len() {
        ExitCode::SUCCESS
    } else {
        eprintln!("Table 1 shape regressed: not every row matches the paper");
        ExitCode::FAILURE
    }
}
