//! The local workloads (`table1-rwf`, `table1-text`, `racy-stream`): set
//! up the inputs in this process, then analyze them in a child process so
//! its peak memory excludes the generator's.
//!
//! Locally, an operation is one shard (it passes or fails its verdict
//! check) and a job is one `run_shards` call over the workload's shards.
//!
//! The child speaks a line protocol on stdout: `op <ok>` per shard
//! analyzed, `pass <wall_s> <cpu_s> <events> <peak_rss_mb>` per driver
//! pass, `layer <name> <value> <unit>`, `tally <attempted> <failed>`,
//! `note <text>` and `wrong <text>`.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use rapid_engine::driver::{run_shards, DriverConfig};

use crate::host;
use crate::inputs::{self, Shard, Sizes};
use crate::layers::{self, Expected, Tracer};
use crate::report::{metric, RunResult};
use crate::stats::{median, percentile, tail_percentile, Tally};
use crate::{Workload, SETUP_REPEATS};

/// Builds the workload's inputs into `dir` (replacing what was there).
fn set_up(workload: Workload, dir: &Path, seed: u64) -> std::io::Result<Vec<Shard>> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    match workload {
        Workload::Table1Rwf => inputs::table1(dir, seed, "rwf", Sizes::FULL),
        Workload::Table1Text => inputs::table1(dir, seed, "std", Sizes::FULL),
        Workload::RacyStream => Ok(vec![inputs::racy_stream(dir, seed, Sizes::FULL)?]),
        Workload::Service => unreachable!("the service workload is not local"),
    }
}

/// Runs one local workload and fills `result`.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    work: &Path,
    result: &mut RunResult,
) -> Result<(), String> {
    let dir = work.join(workload.name());
    let repeats = if traced { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::new();
    let mut shards = Vec::new();
    for repeat in 0..repeats {
        let start = Instant::now();
        shards = set_up(workload, &dir, seed).map_err(|error| format!("set-up: {error}"))?;
        setups.push(start.elapsed().as_secs_f64());
        let identities = inputs::identities(&shards).map_err(|error| error.to_string())?;
        if repeat == 0 {
            result.inputs = identities;
        } else if result.inputs != identities {
            result.wrong(format!("set-up {repeat} wrote other bytes than set-up 0"));
        }
    }

    let exe = std::env::current_exe().map_err(|error| error.to_string())?;
    let mut command = Command::new(exe);
    command
        .arg("analyze")
        .arg("--workload")
        .arg(workload.name())
        .arg("--seconds")
        .arg(seconds.to_string())
        .arg("--trace")
        .arg(if traced { "1" } else { "0" })
        .arg("--spans")
        .arg(work.join("results").join(format!("spans-{}-seed{seed}.tsv", workload.name())));
    for shard in &shards {
        command.arg("--shard").arg(format!(
            "{}:{}:{}",
            shard.wcp_pairs,
            shard.hb_pairs,
            shard.path.display()
        ));
    }
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|error| format!("cannot start the analysis process: {error}"))?;
    if !output.status.success() {
        return Err(format!("analysis process failed: {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);

    let mut passes = Vec::new();
    for line in stdout.lines() {
        let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let number =
            |index: usize| -> f64 { fields.get(index).and_then(|f| f.parse().ok()).unwrap_or(0.0) };
        match kind {
            "op" => result.tally.record(fields.first() == Some(&"1")),
            "pass" => passes.push((number(0), number(1), number(2), number(3))),
            "layer" => {
                result.per_layer.push(metric(fields[0], number(1), fields.get(2).unwrap_or(&"")))
            }
            "tally" => {
                result.tally.absorb(Tally { attempted: number(0) as u64, failed: number(1) as u64 })
            }
            "note" => result.notes.push(rest.to_owned()),
            "wrong" => result.wrong(rest.to_owned()),
            _ => {}
        }
    }
    // The inputs are large (~150 MB of text) and no longer needed.
    std::fs::remove_dir_all(&dir).ok();

    if traced {
        result.per_layer.extend(crate::service::dist_metrics_absent());
        return Ok(());
    }
    let Some(&(_, _, _, first_rss)) = passes.first() else {
        return Err("the analysis process reported no passes".to_owned());
    };
    let jobs: Vec<f64> = passes.iter().map(|(wall, ..)| wall * 1e3).collect();
    let rates: Vec<f64> = passes.iter().map(|(wall, _, events, _)| events / wall).collect();
    let cpu_rates: Vec<f64> =
        passes.iter().map(|(wall, cpu, events, _)| events / cpu.max(wall * 1e-3)).collect();
    let last_rss = passes.last().map_or(first_rss, |pass| pass.3);
    let rendered: Vec<String> = rates.iter().map(|rate| format!("{:.3}", rate / 1e6)).collect();
    result.notes.push(format!("pass rates (M events/s): {}", rendered.join(" ")));
    result.notes.push(format!(
        "{} job(s) (driver passes) over {} shard operations; peak RSS {first_rss:.1} MB after the \
first pass, {last_rss:.1} MB after the last; job latency p90 from {} samples{}",
        passes.len(),
        result.tally.attempted,
        jobs.len(),
        match tail_percentile(jobs.len()) {
            Some(p) => format!(" (p{p} is the highest percentile with 10 samples beyond it)"),
            None => " (too few for 10 samples beyond p90: indicative only)".to_owned(),
        }
    ));
    // Interference from other tenants only ever slows a pass, and it comes
    // in phases that outlast a run, so the fastest pass is the steadiest
    // estimate of the code's own speed; the median is printed beside it.
    let best = |values: &[f64]| values.iter().copied().fold(0.0, f64::max);
    result.end_to_end = vec![
        metric("events_per_s", best(&rates), "events/s"),
        metric("events_per_cpu_s", best(&cpu_rates), "events/CPU-s"),
        metric("peak_rss_mb", first_rss, "MB"),
        metric("setup_s", median(&setups), "s"),
    ];
    result.unbounded = vec![
        metric("events_per_s.median_pass", median(&rates), "events/s"),
        metric("job_p50_ms", median(&jobs), "ms"),
        metric("job_p90_ms", percentile(&jobs, 90.0), "ms"),
    ];
    Ok(())
}

/// The child process: analyze the given shards for `--seconds` and report
/// over the line protocol.
pub fn child(args: &[String]) -> Result<(), String> {
    let mut seconds = 10.0;
    let mut traced = false;
    let mut workload = String::new();
    let mut spans = PathBuf::new();
    let mut shards = Vec::new();
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--seconds" => seconds = value.parse().map_err(|_| "bad --seconds")?,
            "--trace" => traced = value == "1",
            "--workload" => workload = value.clone(),
            "--spans" => spans = PathBuf::from(value),
            "--shard" => {
                let mut parts = value.splitn(3, ':');
                let mut count = || -> Result<usize, String> {
                    parts
                        .next()
                        .and_then(|p| p.parse().ok())
                        .ok_or_else(|| format!("bad --shard {value}"))
                };
                let (wcp_pairs, hb_pairs) = (count()?, count()?);
                let path = parts.next().ok_or_else(|| format!("bad --shard {value}"))?;
                shards.push(Expected { path: PathBuf::from(path), wcp_pairs, hb_pairs });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);

    if traced {
        let mut tracer = Tracer::new(&workload);
        let mut tally = Tally::default();
        let report = layers::measure(&mut tracer, &shards, deadline, &mut tally)?;
        for m in &report.metrics {
            println!("layer {} {} {}", m.name, m.value, m.unit);
        }
        println!("tally {} {}", tally.attempted, tally.failed);
        for note in report.notes.iter().chain(&layers::self_time_notes(&tracer)) {
            println!("note {note}");
        }
        for message in &report.wrong {
            println!("wrong {message}");
        }
        tracer.write(&spans).map_err(|error| format!("cannot write spans: {error}"))?;
        return Ok(());
    }

    let paths: Vec<PathBuf> = shards.iter().map(|shard| shard.path.clone()).collect();
    loop {
        let cpu = host::cpu_seconds(None, false).unwrap_or(0.0);
        let start = Instant::now();
        let report = run_shards(
            &paths,
            layers::detectors,
            &DriverConfig { jobs: 1, ..DriverConfig::default() },
        )
        .map_err(|error| error.to_string())?;
        let wall = start.elapsed().as_secs_f64();
        let cpu = host::cpu_seconds(None, false).unwrap_or(0.0) - cpu;
        for (run, expected) in report.shards.iter().zip(&shards) {
            let ok = layers::verdict_ok(&run.runs, expected);
            println!("op {}", u8::from(ok));
            if !ok {
                println!(
                    "wrong {}: wcp {} / hb {} pairs, expected {} / {}",
                    run.path.display(),
                    run.runs[0].outcome.distinct_pairs(),
                    run.runs[1].outcome.distinct_pairs(),
                    expected.wcp_pairs,
                    expected.hb_pairs
                );
            }
        }
        let rss = host::peak_rss_mb(None).unwrap_or(0.0);
        println!("pass {wall} {cpu} {} {rss}", report.total_events());
        if Instant::now() >= deadline {
            break;
        }
    }
    Ok(())
}
