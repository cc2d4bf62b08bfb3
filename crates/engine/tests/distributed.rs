//! Integration tests for the resident detection service: a real
//! coordinator on a localhost ephemeral port, real TCP workers, and the
//! pinned acceptance properties.
//!
//! * **Distributed ≡ local:** coordinator + N workers over a
//!   mixed-encoding shard set produce a merged `Outcome` equal
//!   (`PartialEq`, metrics included) to `run_shards` at `jobs = 1` and
//!   `jobs = N`, and byte-identical rendered race-pair output.
//! * **Multi-tenancy:** two concurrently submitted named jobs with
//!   *different* detector specs over *different* shard sets, answered by
//!   one worker fleet, each fold to exactly their local `jobs = 1` run —
//!   no cross-job contamination.
//! * **Fault tolerance:** a worker that leases a shard and disconnects
//!   (or stalls past its lease) has its shard requeued — with byte-for-byte
//!   identical shard bytes on the re-lease — and the final merged outcome
//!   still equals the local run with no shard counted twice.

mod common;

use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use rapid_engine::dist::{
    self, proto, Coordinator, ServeConfig, ServeSummary, SubmitConfig, WorkConfig, DEFAULT_JOB,
};
use rapid_engine::driver::{run_shards, DriverConfig, MultiReport};
use rapid_engine::{DetectorSpec, Engine};
use rapid_trace::format::{self, TextFormat};
use rapid_trace::{Trace, TraceBuilder};

use common::with_deadline;

fn racy_trace(variable: &str, location_a: &str, location_b: &str) -> Trace {
    let mut builder = TraceBuilder::new();
    let t1 = builder.thread("t1");
    let t2 = builder.thread("t2");
    let var = builder.variable(variable);
    builder.at(location_a);
    builder.write(t1, var);
    builder.at(location_b);
    builder.write(t2, var);
    builder.finish()
}

/// Writes a mixed-encoding shard set (std text and binary `.rwf`
/// alternating) under unique temp names.
fn write_shards(tag: &str, traces: &[Trace]) -> Vec<PathBuf> {
    traces
        .iter()
        .enumerate()
        .map(|(index, trace)| {
            let extension = if index % 2 == 0 { "std" } else { "rwf" };
            let path = std::env::temp_dir()
                .join(format!("rapid-dist-{tag}-{}-{index}.{extension}", std::process::id()));
            format::write_trace_file(trace, &path).expect("shard writes");
            path
        })
        .collect()
}

fn cleanup(paths: &[PathBuf]) {
    for path in paths {
        std::fs::remove_file(path).ok();
    }
}

fn spec() -> DetectorSpec {
    DetectorSpec::default() // wcp + hb
}

/// Runs the shard set locally with the given spec — the ground truth every
/// distributed view is compared against.
fn local_run(paths: &[PathBuf], spec: &DetectorSpec, jobs: usize) -> MultiReport {
    let spec = spec.clone();
    run_shards(
        paths,
        move || spec.build().expect("spec builds"),
        &DriverConfig { jobs, ..DriverConfig::default() },
    )
    .expect("local run completes")
}

fn spawn_workers(addr: &str, workers: usize) -> Vec<std::thread::JoinHandle<dist::WorkSummary>> {
    (0..workers)
        .map(|_| {
            let addr = addr.to_owned();
            let config = WorkConfig { jobs: Some(1), ..WorkConfig::default() };
            std::thread::spawn(move || dist::work(&addr, &config).expect("worker completes"))
        })
        .collect()
}

/// Unwraps the one answered job from a one-shot serve summary.
fn only_job(summary: ServeSummary) -> Result<MultiReport, String> {
    assert_eq!(summary.jobs.len(), 1, "one-shot serve answers exactly one job");
    let job = summary.jobs.into_iter().next().expect("one job");
    assert_eq!(job.name, DEFAULT_JOB);
    job.result
}

/// Starts a one-shot coordinator over the pre-registered default job, runs
/// `workers` real worker loops against it plus `faults` (a hook that may
/// talk to the coordinator first), fetches the submit report, and returns
/// (serve-side fold, submit-side report).
///
/// The one-shot coordinator drains as soon as it has answered the report.
/// A worker that connects only after one of its peers finished every shard
/// and the report went out finds the service gone ("connection refused" or
/// "reset by peer").  Such a worker processed no shard (`dist::work` fails
/// only then) and is accepted, as long as its error came after the report
/// reached `submit` and at least one worker finished cleanly.
fn drive_cluster(
    paths: &[PathBuf],
    workers: usize,
    lease_timeout: Duration,
    faults: impl FnOnce(std::net::SocketAddr),
) -> (MultiReport, dist::SubmitReport) {
    let config = ServeConfig { spec: spec(), lease_timeout, once: true, ..ServeConfig::default() };
    let coordinator = Coordinator::bind(paths, &config).expect("coordinator binds");
    let addr = coordinator.local_addr();
    let serve = std::thread::spawn(move || coordinator.run().expect("serve completes"));

    faults(addr);

    let worker_handles: Vec<_> = (0..workers)
        .map(|_| {
            let addr = addr.to_string();
            let config = WorkConfig { jobs: Some(1), ..WorkConfig::default() };
            std::thread::spawn(move || (dist::work(&addr, &config), Instant::now()))
        })
        .collect();
    let submit = dist::submit(&addr.to_string(), &SubmitConfig::default())
        .expect("submit returns the merged report");
    let reported_at = Instant::now();
    let mut finished = 0;
    for handle in worker_handles {
        match handle.join().expect("worker thread") {
            (Ok(_), _) => finished += 1,
            (Err(error), failed_at) => assert!(
                failed_at >= reported_at,
                "a worker failed before the report was answered: {error}"
            ),
        }
    }
    assert!(finished >= 1, "no worker finished cleanly");
    let summary = serve.join().expect("serve thread");
    let report = only_job(summary).expect("default job folds");
    (report, submit)
}

#[test]
fn distributed_equals_local_on_mixed_encodings() {
    let traces = [
        racy_trace("x", "A:1", "A:2"),
        racy_trace("y", "B:1", "B:2"),
        racy_trace("x", "A:1", "A:2"), // same pair as shard 0: exercises stat merging
        racy_trace("z", "C:1", "C:9"),
    ];
    let paths = write_shards("equal", &traces);

    let jobs1 = local_run(&paths, &spec(), 1);
    let jobs2 = local_run(&paths, &spec(), 2);
    let (serve, submit) = drive_cluster(&paths, 2, Duration::from_secs(60), |_| {});
    cleanup(&paths);

    // jobs=1 ≡ jobs=N ≡ distributed, as whole Outcome values.
    assert_eq!(serve.merged.len(), jobs1.merged.len());
    for (index, baseline) in jobs1.merged.iter().enumerate() {
        assert_eq!(
            baseline.outcome, jobs2.merged[index].outcome,
            "local jobs=2 diverged for {}",
            baseline.outcome.detector
        );
        assert_eq!(
            baseline.outcome, serve.merged[index].outcome,
            "coordinator fold diverged for {}",
            baseline.outcome.detector
        );
        assert_eq!(
            baseline.outcome, submit.merged[index].outcome,
            "submit report diverged for {}",
            baseline.outcome.detector
        );
    }

    // Byte-identical rendered race pairs across all four views.
    let rendered = Engine::render_race_pairs(&jobs1.merged);
    assert!(!rendered.is_empty());
    assert_eq!(rendered, Engine::render_race_pairs(&jobs2.merged));
    assert_eq!(rendered, Engine::render_race_pairs(&serve.merged));
    assert_eq!(rendered, Engine::render_race_pairs(&submit.merged));

    // Shape: per-shard rows stay in input order; accounting matches.
    assert_eq!(serve.shards.len(), paths.len());
    for (shard, path) in serve.shards.iter().zip(&paths) {
        assert_eq!(shard.path, *path);
        assert_eq!(shard.source, "remote");
    }
    let total: usize = traces.iter().map(Trace::len).sum();
    assert_eq!(serve.total_events(), total);
    assert_eq!(submit.events, total);
    assert_eq!(submit.shards, paths.len());
    assert!(submit.workers >= 1 && submit.workers <= 2);
}

#[test]
fn concurrent_jobs_with_different_specs_stay_isolated() {
    // Two named jobs with different detector sets over different shard
    // sets, submitted concurrently to ONE resident fleet: each job's
    // merged outcome must equal its own local jobs=1 run exactly.
    let wide_traces = [
        racy_trace("x", "A:1", "A:2"),
        racy_trace("y", "B:1", "B:2"),
        racy_trace("x", "A:1", "A:3"),
    ];
    let narrow_traces = [racy_trace("p", "P:1", "P:2"), racy_trace("q", "Q:1", "Q:2")];
    let wide_paths = write_shards("job-wide", &wide_traces);
    let narrow_paths = write_shards("job-narrow", &narrow_traces);
    let wide_spec = spec(); // wcp + hb
    let narrow_spec = DetectorSpec { detectors: vec!["hb".to_owned()], ..DetectorSpec::default() };

    let coordinator =
        Coordinator::bind(&[], &ServeConfig::default()).expect("resident coordinator binds");
    let addr = coordinator.local_addr().to_string();
    let serve = std::thread::spawn(move || coordinator.run().expect("serve completes"));
    let workers = spawn_workers(&addr, 2);

    let submit_job = |name: &str, paths: &[PathBuf], spec: &DetectorSpec| {
        let addr = addr.clone();
        let config = SubmitConfig {
            job: Some(name.to_owned()),
            paths: paths.to_vec(),
            spec: spec.clone(),
            ..SubmitConfig::default()
        };
        std::thread::spawn(move || dist::submit(&addr, &config).expect("job submits"))
    };
    let wide_handle = submit_job("wide", &wide_paths, &wide_spec);
    let narrow_handle = submit_job("narrow", &narrow_paths, &narrow_spec);
    let wide = wide_handle.join().expect("wide submit thread");
    let narrow = narrow_handle.join().expect("narrow submit thread");

    dist::shutdown(&addr).expect("coordinator drains");
    for worker in workers {
        worker.join().expect("worker thread");
    }
    let summary = serve.join().expect("serve thread");

    let wide_local = local_run(&wide_paths, &wide_spec, 1);
    let narrow_local = local_run(&narrow_paths, &narrow_spec, 1);
    cleanup(&wide_paths);
    cleanup(&narrow_paths);

    // Per-job isolation: detector sets did not leak between jobs…
    assert_eq!(wide.merged.len(), 2, "wide job ran wcp + hb");
    assert_eq!(narrow.merged.len(), 1, "narrow job ran hb only");
    assert_eq!(narrow.merged[0].outcome.detector, "hb");
    // …and every merged value equals that job's own local run.
    for (baseline, remote) in wide_local.merged.iter().zip(&wide.merged) {
        assert_eq!(baseline.outcome, remote.outcome, "wide job diverged from its local run");
    }
    for (baseline, remote) in narrow_local.merged.iter().zip(&narrow.merged) {
        assert_eq!(baseline.outcome, remote.outcome, "narrow job diverged from its local run");
    }
    assert_eq!(wide.events, wide_traces.iter().map(Trace::len).sum::<usize>());
    assert_eq!(narrow.events, narrow_traces.iter().map(Trace::len).sum::<usize>());

    // The serve summary lists both jobs, each folded successfully.
    let mut names: Vec<&str> = summary.jobs.iter().map(|job| job.name.as_str()).collect();
    names.sort_unstable();
    assert_eq!(names, ["narrow", "wide"]);
    for job in &summary.jobs {
        assert!(job.result.is_ok(), "job {} failed: {:?}", job.name, job.result);
    }
}

#[test]
fn multi_chunk_shards_stream_end_to_end() {
    // Tiny chunk budgets on both sides force every shard through
    // multi-chunk reassembly: submit → coordinator at 43 bytes per chunk,
    // coordinator → worker at 57.  The outcome must not notice.
    let busy_trace = |variable: &str, prefix: &str| {
        let mut builder = TraceBuilder::new();
        let t1 = builder.thread("t1");
        let t2 = builder.thread("t2");
        let var = builder.variable(variable);
        for round in 0..40 {
            builder.at(&format!("{prefix}:{round}"));
            builder.write(if round % 2 == 0 { t1 } else { t2 }, var);
        }
        builder.finish()
    };
    let traces = [busy_trace("x", "A"), busy_trace("y", "B")];
    let paths = write_shards("chunky", &traces);
    for path in &paths {
        let len = std::fs::metadata(path).expect("shard stats").len();
        assert!(len > 57, "shard {} too small ({len} bytes) to exercise chunking", path.display());
    }

    let config = ServeConfig { chunk_len: 57, ..ServeConfig::default() };
    let coordinator = Coordinator::bind(&[], &config).expect("resident coordinator binds");
    let addr = coordinator.local_addr().to_string();
    let serve = std::thread::spawn(move || coordinator.run().expect("serve completes"));
    let workers = spawn_workers(&addr, 1);

    let submit = SubmitConfig {
        job: Some("chunky".to_owned()),
        paths: paths.clone(),
        spec: spec(),
        chunk_len: 43,
        ..SubmitConfig::default()
    };
    let report = dist::submit(&addr, &submit).expect("chunked job submits");
    dist::shutdown(&addr).expect("coordinator drains");
    for worker in workers {
        worker.join().expect("worker thread");
    }
    serve.join().expect("serve thread");

    let local = local_run(&paths, &spec(), 1);
    cleanup(&paths);
    for (baseline, remote) in local.merged.iter().zip(&report.merged) {
        assert_eq!(baseline.outcome, remote.outcome, "chunked transfer corrupted the analysis");
    }
    assert_eq!(report.events, traces.iter().map(Trace::len).sum::<usize>());
}

#[test]
fn submit_timeout_errors_instead_of_blocking() {
    let traces = [racy_trace("x", "A:1", "A:2")];
    let paths = write_shards("timeout", &traces);

    // No workers attached: the default job cannot complete, so a bounded
    // fetch must give up with an error instead of blocking forever.
    let coordinator =
        Coordinator::bind(&paths, &ServeConfig::default()).expect("coordinator binds");
    let addr = coordinator.local_addr().to_string();
    let serve = std::thread::spawn(move || coordinator.run().expect("serve completes"));

    let bounded =
        SubmitConfig { timeout: Some(Duration::from_millis(400)), ..SubmitConfig::default() };
    let error = dist::submit(&addr, &bounded).expect_err("bounded fetch times out");
    assert!(error.contains("no reply from peer"), "{error}");

    // The service survived the timed-out client: attach a worker, fetch
    // again unbounded, and the job completes normally.
    let workers = spawn_workers(&addr, 1);
    let report = dist::submit(&addr, &SubmitConfig::default()).expect("second fetch succeeds");
    dist::shutdown(&addr).expect("coordinator drains");
    for worker in workers {
        worker.join().expect("worker thread");
    }
    serve.join().expect("serve thread");

    let local = local_run(&paths, &spec(), 1);
    cleanup(&paths);
    for (baseline, remote) in local.merged.iter().zip(&report.merged) {
        assert_eq!(baseline.outcome, remote.outcome);
    }
}

/// Handshakes as a worker and leases one shard, returning the grant's
/// addressing and the reassembled shard bytes (pulled cache-less, the way
/// a cold worker would).
fn lease_one(stream: &mut TcpStream) -> (u32, u32, Vec<u8>) {
    proto::write_message(stream, &proto::Message::Hello { role: proto::Role::Worker })
        .expect("hello");
    match proto::expect_message(stream, Duration::from_secs(10)).expect("welcome") {
        proto::Message::Welcome { .. } => {}
        other => panic!("expected WELCOME, got {other:?}"),
    }
    proto::write_message(stream, &proto::Message::Lease).expect("lease");
    match proto::expect_message(stream, Duration::from_secs(10)).expect("grant") {
        proto::Message::Grant { job, shard, chunks, content, .. } => {
            proto::write_message(stream, &proto::Message::Pull { job, shard }).expect("pull");
            let bytes = proto::read_chunks(stream, job, shard, chunks, Duration::from_secs(10))
                .expect("shard chunks");
            assert_eq!(
                proto::ContentId::of(&bytes),
                content,
                "the grant's content id does not match the shipped bytes"
            );
            (job, shard, bytes)
        }
        other => panic!("expected GRANT, got {other:?}"),
    }
}

/// The evil client of the fault-tolerance acceptance criterion: handshake,
/// lease a shard, read it… and vanish without returning an outcome.
fn lease_and_vanish(addr: std::net::SocketAddr) {
    let mut stream = TcpStream::connect(addr).expect("evil client connects");
    let _ = lease_one(&mut stream);
    // Mid-analysis disconnect: drop the socket with the lease outstanding.
    drop(stream);
}

#[test]
fn dead_worker_shard_is_requeued_and_not_double_counted() {
    let traces = [
        racy_trace("x", "A:1", "A:2"),
        racy_trace("y", "B:1", "B:2"),
        racy_trace("z", "C:1", "C:2"),
    ];
    let paths = write_shards("fault", &traces);

    let jobs1 = local_run(&paths, &spec(), 1);

    // Lease timeout far above test runtime: only the *disconnect* path can
    // requeue the evil worker's shard.
    let (serve, submit) = drive_cluster(&paths, 1, Duration::from_secs(600), lease_and_vanish);
    cleanup(&paths);

    for (baseline, (served, submitted)) in
        jobs1.merged.iter().zip(serve.merged.iter().zip(&submit.merged))
    {
        assert_eq!(
            baseline.outcome, served.outcome,
            "requeued shard lost or double-counted for {}",
            baseline.outcome.detector
        );
        assert_eq!(baseline.outcome, submitted.outcome);
        // The shards-sum invariant, explicitly: every shard folded exactly
        // once despite the dead worker.
        assert_eq!(served.outcome.shards, paths.len());
        assert_eq!(served.outcome.events, jobs1.total_events());
    }
    assert_eq!(serve.shards.len(), paths.len());
}

#[test]
fn expired_lease_requeues_to_a_live_worker() {
    // Same dead-worker scenario, but the disconnect is replaced by a
    // *stall*: the evil client keeps its connection open and never
    // answers.  Only the lease timeout can reclaim the shard.
    let traces = [racy_trace("x", "A:1", "A:2"), racy_trace("y", "B:1", "B:2")];
    let paths = write_shards("stall", &traces);

    let jobs1 = local_run(&paths, &spec(), 1);

    let mut stalled: Option<TcpStream> = None;
    let (serve, _submit) = drive_cluster(&paths, 1, Duration::from_secs(1), |addr| {
        let mut stream = TcpStream::connect(addr).expect("stalling client connects");
        let _ = lease_one(&mut stream);
        stalled = Some(stream); // keep the connection open, never reply
    });
    cleanup(&paths);
    drop(stalled); // the connection stayed open for the whole run

    for (baseline, served) in jobs1.merged.iter().zip(&serve.merged) {
        assert_eq!(
            baseline.outcome, served.outcome,
            "expired lease lost or duplicated work for {}",
            baseline.outcome.detector
        );
        assert_eq!(served.outcome.shards, paths.len());
    }
}

#[test]
fn requeued_shard_is_leased_with_identical_bytes() {
    // The regression pinned here: a shard whose lease expired must be
    // re-granted with byte-for-byte the same content the first worker saw
    // — the bytes read at bind, even after the file is rewritten.
    let traces = [racy_trace("x", "A:1", "A:2")];
    let paths = write_shards("rebytes", &traces);
    let on_disk = std::fs::read(&paths[0]).expect("shard reads");

    let config = ServeConfig {
        spec: spec(),
        lease_timeout: Duration::from_millis(400),
        once: true,
        ..ServeConfig::default()
    };
    let coordinator = Coordinator::bind(&paths, &config).expect("coordinator binds");
    let addr = coordinator.local_addr();
    let serve = std::thread::spawn(move || coordinator.run().expect("serve completes"));

    // First lease: stall past the timeout without answering.
    let mut first = TcpStream::connect(addr).expect("first client connects");
    let (job_a, shard_a, bytes_a) = lease_one(&mut first);
    // Rewrite the shard file while its lease is out: the coordinator must
    // not pick up the new content.
    format::write_trace_file(&racy_trace("q", "Z:1", "Z:2"), &paths[0]).expect("shard rewrites");
    assert_ne!(std::fs::read(&paths[0]).expect("shard reads"), on_disk);
    std::thread::sleep(Duration::from_millis(700));

    // Second lease after expiry: same shard, identical bytes.
    let mut second = TcpStream::connect(addr).expect("second client connects");
    let (job_b, shard_b, bytes_b) = lease_one(&mut second);
    assert_eq!((job_a, shard_a), (job_b, shard_b), "the requeued shard is re-leased");
    assert_eq!(bytes_a, bytes_b, "re-lease shipped different bytes");
    assert_eq!(bytes_b, on_disk, "leased bytes diverged from the bytes read at bind");
    drop(first);

    // Fail the shard so the one-shot service can answer and drain.
    proto::write_message(
        &mut second,
        &proto::Message::Failed {
            job: job_b,
            shard: shard_b,
            message: "synthetic failure".to_owned(),
        },
    )
    .expect("failed reply");
    let error = dist::submit(&addr.to_string(), &SubmitConfig::default()).expect_err("job failed");
    assert!(error.contains("synthetic failure"), "{error}");
    drop(second);

    let summary = serve.join().expect("serve thread");
    cleanup(&paths);
    let folded = only_job(summary).expect_err("serve-side fold carries the failure");
    assert!(folded.contains("synthetic failure"), "{folded}");
}

#[test]
fn failed_shards_surface_the_earliest_error_like_the_local_driver() {
    let good = racy_trace("x", "A:1", "A:2");
    let paths = write_shards("fail", std::slice::from_ref(&good));
    let bad = std::env::temp_dir().join(format!("rapid-dist-fail-bad-{}.std", std::process::id()));
    std::fs::write(&bad, "t1|nonsense|A:1\n").expect("bad shard writes");
    let all = vec![bad.clone(), paths[0].clone()];

    let config = ServeConfig { spec: spec(), once: true, ..ServeConfig::default() };
    let coordinator = Coordinator::bind(&all, &config).expect("binds");
    let addr = coordinator.local_addr().to_string();
    let serve = std::thread::spawn(move || coordinator.run());

    let workers = spawn_workers(&addr, 1);
    let submit_error =
        dist::submit(&addr, &SubmitConfig::default()).expect_err("submit surfaces the shard error");
    assert!(
        submit_error.contains("nonsense")
            || submit_error.contains(bad.display().to_string().as_str()),
        "error should name the failing shard: {submit_error}"
    );
    for worker in workers {
        worker.join().expect("worker thread");
    }
    // The *serve* side still exits cleanly — the job's failure is a value
    // in its summary, not a service crash.
    let summary = serve.join().expect("serve thread").expect("serve completes");
    let folded = only_job(summary).expect_err("default job failed");
    assert!(folded.contains("cannot analyze"), "{folded}");

    cleanup(&all);
}

#[test]
fn speculative_re_lease_folds_once_and_acks_the_loser_stale() {
    // The duplicate-OUTCOME bugfix pinned end-to-end: a straggler holds a
    // lease hostage, speculation re-leases its shard to an idle worker, the
    // thief's result folds — and when the straggler finally reports in, it
    // must get a non-fatal STALE ack (not an ERROR), and its stale FAILED
    // must not abort the already-completed job.
    let traces = [racy_trace("x", "A:1", "A:2"), racy_trace("y", "B:1", "B:2")];
    let paths = write_shards("steal", &traces);
    let jobs1 = local_run(&paths, &spec(), 1);

    let config = ServeConfig {
        // Leases effectively never expire: only speculation can reclaim.
        lease_timeout: Duration::from_secs(600),
        speculate_after: Some(Duration::from_millis(200)),
        ..ServeConfig::default()
    };
    let coordinator = Coordinator::bind(&[], &config).expect("coordinator binds");
    let addr = coordinator.local_addr();
    let addr_string = addr.to_string();
    let serve = std::thread::spawn(move || coordinator.run().expect("serve completes"));

    let submit_addr = addr_string.clone();
    let submit_paths = paths.clone();
    let submit = std::thread::spawn(move || {
        let config = SubmitConfig {
            job: Some("steal".to_owned()),
            paths: submit_paths,
            spec: spec(),
            ..SubmitConfig::default()
        };
        dist::submit(&submit_addr, &config).expect("job submits")
    });

    // The straggler leases a shard (before any honest worker exists, so the
    // claim is deterministic), pulls its bytes, and goes quiet.
    let mut straggler = TcpStream::connect(addr).expect("straggler connects");
    let (job, shard, _bytes) = lease_one(&mut straggler);

    // One honest worker: drains the other shard, idles, then steals the
    // straggler's shard once its lease is speculation-ripe.
    let workers = spawn_workers(&addr_string, 1);
    let report = submit.join().expect("submit thread");

    // The job completed without the straggler, folding every shard exactly
    // once, and the steal is visible in the scheduling stats.
    for (baseline, remote) in jobs1.merged.iter().zip(&report.merged) {
        assert_eq!(baseline.outcome, remote.outcome, "speculation corrupted the fold");
        assert_eq!(remote.outcome.shards, paths.len(), "a shard folded twice");
    }
    let stolen = report.scheduling.get("leases_stolen").unwrap_or(0.0);
    assert!(stolen >= 1.0, "the steal never happened (leases_stolen = {stolen})");

    // The loser reports in late — with a FAILED, the nastier case: a fatal
    // ack (or worse, aborting the job) would turn a finished job into a
    // failure.  The coordinator must answer STALE and move on.
    proto::write_message(
        &mut straggler,
        &proto::Message::Failed { job, shard, message: "late straggler".to_owned() },
    )
    .expect("the straggler's connection survived the steal");
    match proto::expect_message(&mut straggler, Duration::from_secs(10)).expect("stale ack") {
        proto::Message::Stale { job: acked_job, shard: acked_shard } => {
            assert_eq!((acked_job, acked_shard), (job, shard));
        }
        other => panic!("expected STALE, got {other:?}"),
    }
    drop(straggler);

    // The completed job is still intact: re-fetching its report succeeds
    // and the fold is unchanged.
    let refetch_config = SubmitConfig { job: Some("steal".to_owned()), ..SubmitConfig::default() };
    let refetch = dist::submit(&addr_string, &refetch_config)
        .expect("a stale FAILED must not abort a completed job");
    for (baseline, remote) in jobs1.merged.iter().zip(&refetch.merged) {
        assert_eq!(baseline.outcome, remote.outcome);
    }

    dist::shutdown(&addr_string).expect("coordinator drains");
    for worker in workers {
        worker.join().expect("worker thread");
    }
    serve.join().expect("serve thread");
    cleanup(&paths);
}

/// The `OUTCOME` a worker would send for `shard`, built from the local
/// run's result for the same shard.
fn outcome_message(local: &MultiReport, job: u32, shard: u32) -> proto::Message {
    let run = &local.shards[shard as usize];
    proto::Message::Outcome {
        job,
        shard,
        events: run.events as u64,
        wall_nanos: run.wall.as_nanos() as u64,
        runs: run
            .runs
            .iter()
            .map(|run| proto::WireRun {
                time_nanos: run.time.as_nanos() as u64,
                outcome: run.outcome.clone(),
            })
            .collect(),
    }
}

#[test]
fn outcome_sent_between_grant_and_pull_folds_and_keeps_the_connection() {
    // PROTOCOL.md §2.1 on raw RWP: a worker must answer each GRANT before
    // its next LEASE, but a coordinator folds a result that arrives late —
    // here lease N's OUTCOME after GRANT N+1 and before its PULL.  The
    // coordinator must fold it and keep serving the grant, not drop the
    // connection.
    let traces = [racy_trace("x", "A:1", "A:2"), racy_trace("y", "B:1", "B:2")];
    let paths = write_shards("early-outcome", &traces);
    let jobs1 = local_run(&paths, &spec(), 1);

    let coordinator =
        Coordinator::bind(&[], &ServeConfig::default()).expect("resident coordinator binds");
    let addr = coordinator.local_addr();
    let addr_string = addr.to_string();
    let serve = std::thread::spawn(move || coordinator.run().expect("serve completes"));
    let submit_addr = addr_string.clone();
    let submit_paths = paths.clone();
    let submit = std::thread::spawn(move || {
        let config = SubmitConfig {
            job: Some("early-outcome".to_owned()),
            paths: submit_paths,
            spec: spec(),
            ..SubmitConfig::default()
        };
        dist::submit(&submit_addr, &config).expect("job submits")
    });

    let mut worker = TcpStream::connect(addr).expect("worker connects");
    let (job, first, _) = lease_one(&mut worker);
    proto::write_message(&mut worker, &proto::Message::Lease).expect("second lease");
    let (second, chunks, content) =
        match proto::expect_message(&mut worker, Duration::from_secs(10)).expect("grant") {
            proto::Message::Grant { job: granted, shard, chunks, content, .. } => {
                assert_eq!(granted, job);
                (shard, chunks, content)
            }
            other => panic!("expected GRANT, got {other:?}"),
        };
    // The first lease's result, ahead of the second grant's answer.
    proto::write_message(&mut worker, &outcome_message(&jobs1, job, first))
        .expect("outcome writes");
    proto::write_message(&mut worker, &proto::Message::Pull { job, shard: second })
        .expect("pull writes");
    let bytes = proto::read_chunks(&mut worker, job, second, chunks, Duration::from_secs(10))
        .expect("the connection survived the early OUTCOME");
    assert_eq!(proto::ContentId::of(&bytes), content);
    proto::write_message(&mut worker, &outcome_message(&jobs1, job, second))
        .expect("outcome writes");

    let report = submit.join().expect("submit thread");
    for (baseline, remote) in jobs1.merged.iter().zip(&report.merged) {
        assert_eq!(baseline.outcome, remote.outcome, "the early-outcome fold diverged");
        assert_eq!(remote.outcome.shards, paths.len());
    }
    drop(worker);
    dist::shutdown(&addr_string).expect("coordinator drains");
    serve.join().expect("serve thread");
    cleanup(&paths);
}

#[test]
fn outcome_sent_while_a_lease_waits_folds_and_keeps_the_connection() {
    // PROTOCOL.md §2.1 on raw RWP: while a LEASE waits on an empty queue
    // the coordinator keeps reading the connection, so a result sent after
    // it still folds — here the only shard's OUTCOME, which the job itself
    // is waiting on.  The byte stream orders the LEASE before the OUTCOME,
    // and the queue is empty when the LEASE is read.
    let traces = [racy_trace("x", "A:1", "A:2")];
    let paths = write_shards("waiting-lease", &traces);
    let jobs1 = local_run(&paths, &spec(), 1);

    let coordinator =
        Coordinator::bind(&[], &ServeConfig::default()).expect("resident coordinator binds");
    let addr = coordinator.local_addr();
    let addr_string = addr.to_string();
    let serve = std::thread::spawn(move || coordinator.run().expect("serve completes"));
    let submit_addr = addr_string.clone();
    let submit_paths = paths.clone();
    let submit = std::thread::spawn(move || {
        let config = SubmitConfig {
            job: Some("waiting-lease".to_owned()),
            paths: submit_paths,
            spec: spec(),
            ..SubmitConfig::default()
        };
        dist::submit(&submit_addr, &config).expect("job submits")
    });

    let mut worker = TcpStream::connect(addr).expect("worker connects");
    worker.set_read_timeout(Some(Duration::from_millis(100))).expect("read timeout");
    let (job, shard, _) = lease_one(&mut worker);
    proto::write_message(&mut worker, &proto::Message::Lease).expect("waiting lease writes");
    proto::write_message(&mut worker, &outcome_message(&jobs1, job, shard))
        .expect("outcome writes");

    let report = submit.join().expect("submit thread");
    for (baseline, remote) in jobs1.merged.iter().zip(&report.merged) {
        assert_eq!(baseline.outcome, remote.outcome, "the waiting-lease fold diverged");
        assert_eq!(remote.outcome.shards, paths.len());
    }
    // The waiting LEASE is still this connection's, and the drain answers
    // it.
    dist::shutdown(&addr_string).expect("coordinator drains");
    match proto::expect_message(&mut worker, Duration::from_secs(10)) {
        Ok(proto::Message::Done) => {}
        other => panic!("expected DONE on the waiting connection, got {other:?}"),
    }
    serve.join().expect("serve thread");
    cleanup(&paths);
}

#[test]
fn worker_answers_each_grant_before_its_next_lease() {
    // PROTOCOL.md §2.1 on the worker side: a worker answers each GRANT
    // with one HAVE or PULL and then one OUTCOME, all before its next
    // LEASE.  A fake coordinator speaking raw RWP grants one shard twice
    // under one content id (the second grant is a cache hit), then says
    // DONE, and records every frame the worker sends.
    with_deadline("grant ordering", Duration::from_secs(60), || {
        let paths = write_shards("grant-order", &[racy_trace("x", "A:1", "A:2")]);
        let local = local_run(&paths, &spec(), 1);
        let bytes = std::fs::read(&paths[0]).expect("shard reads");
        let content = proto::ContentId::of(&bytes);
        let listener = TcpListener::bind("127.0.0.1:0").expect("fake coordinator binds");
        let addr = listener.local_addr().expect("bound address").to_string();
        let worker = std::thread::spawn(move || {
            let config =
                WorkConfig { jobs: Some(1), cache_bytes: 1 << 20, ..WorkConfig::default() };
            dist::work(&addr, &config)
        });

        let patience = Duration::from_secs(10);
        let accept = || {
            let (mut stream, _) = listener.accept().expect("worker connects");
            stream.set_read_timeout(Some(Duration::from_millis(100))).expect("read timeout");
            match proto::expect_message(&mut stream, patience).expect("hello") {
                proto::Message::Hello { role: proto::Role::Worker } => {}
                other => panic!("expected HELLO(worker), got {other:?}"),
            }
            proto::write_message(&mut stream, &proto::Message::Welcome { jobs_hint: 0 })
                .expect("welcome");
            stream
        };
        // `work` learns the parallelism hint on a probe connection of its
        // own, then leases on a second one.
        drop(accept());
        let mut stream = accept();

        let mut grants = (0..2).map(|shard| proto::Message::Grant {
            job: 0,
            shard,
            name: paths[0].display().to_string(),
            text: TextFormat::from_path(&paths[0]),
            spec: spec(),
            chunks: proto::chunk_count(bytes.len() as u64, proto::CHUNK_LEN),
            content,
        });
        let mut frames = Vec::new();
        let mut outcomes = Vec::new();
        loop {
            match proto::expect_message(&mut stream, patience).expect("the worker's next frame") {
                proto::Message::Lease => {
                    frames.push("LEASE");
                    let Some(grant) = grants.next() else {
                        proto::write_message(&mut stream, &proto::Message::Done).expect("done");
                        break;
                    };
                    proto::write_message(&mut stream, &grant).expect("grant writes");
                }
                proto::Message::Pull { job, shard } => {
                    frames.push("PULL");
                    proto::write_chunks(&mut stream, job, shard, &bytes, proto::CHUNK_LEN)
                        .expect("chunks write");
                }
                proto::Message::Have { .. } => frames.push("HAVE"),
                proto::Message::Outcome { shard, events, runs, .. } => {
                    frames.push("OUTCOME");
                    outcomes.push((shard, events, runs));
                }
                other => panic!("unexpected frame from the worker: {other:?}"),
            }
        }
        let summary = worker.join().expect("worker thread").expect("worker completes");
        drop(stream);
        cleanup(&paths);

        assert_eq!(frames, ["LEASE", "PULL", "OUTCOME", "LEASE", "HAVE", "OUTCOME", "LEASE"]);
        assert_eq!(summary.stats.shards, 2);
        let expected = &local.shards[0];
        for (index, (shard, events, runs)) in outcomes.into_iter().enumerate() {
            assert_eq!(shard, index as u32);
            assert_eq!(events, expected.events as u64);
            let outcomes: Vec<_> = runs.into_iter().map(|run| run.outcome).collect();
            let baseline: Vec<_> = expected.runs.iter().map(|run| run.outcome.clone()).collect();
            assert_eq!(outcomes, baseline, "grant {index}'s OUTCOME differs from run_shards");
        }
    });
}

#[test]
fn outcome_listing_other_detectors_fails_its_shard_not_the_coordinator() {
    // A worker's OUTCOME must list the job's detectors in the job's order:
    // the fold merges runs by position, so a swapped list would merge one
    // detector's outcome into another's.  The coordinator must fail that
    // shard, name the detectors it expected, and keep serving.
    let traces = [racy_trace("x", "A:1", "A:2"), racy_trace("y", "B:1", "B:2")];
    let paths = write_shards("swapped", &traces);
    let jobs1 = local_run(&paths, &spec(), 1);

    let coordinator =
        Coordinator::bind(&[], &ServeConfig::default()).expect("resident coordinator binds");
    let addr = coordinator.local_addr();
    let addr_string = addr.to_string();
    let serve = std::thread::spawn(move || coordinator.run().expect("serve completes"));
    let submit_addr = addr_string.clone();
    let submit_paths = paths.clone();
    let submit = std::thread::spawn(move || {
        let config = SubmitConfig {
            job: Some("swapped".to_owned()),
            paths: submit_paths,
            spec: spec(),
            ..SubmitConfig::default()
        };
        dist::submit(&submit_addr, &config)
    });

    // One raw worker connection per shard: shard 0 comes back with its
    // two runs swapped, shard 1 as the local run has it.
    let workers: Vec<TcpStream> = (0..paths.len())
        .map(|_| {
            let mut worker = TcpStream::connect(addr).expect("worker connects");
            let (job, shard, _) = lease_one(&mut worker);
            let mut message = outcome_message(&jobs1, job, shard);
            if let (0, proto::Message::Outcome { runs, .. }) = (shard, &mut message) {
                runs.swap(0, 1);
            }
            proto::write_message(&mut worker, &message).expect("outcome writes");
            worker
        })
        .collect();

    let error = submit.join().expect("submit thread").expect_err("the swapped shard fails");
    assert!(error.contains(r#"expected ["wcp", "hb"]"#), "{error}");
    drop(workers);
    dist::shutdown(&addr_string).expect("the coordinator still answers");
    let summary = serve.join().expect("serve thread");
    let job = summary.jobs.iter().find(|job| job.name == "swapped").expect("the job is summarized");
    assert!(job.result.is_err(), "the failed job must not fold");
    cleanup(&paths);
}

/// Connects and handshakes in `role`.  The read timeout turns a reply
/// that never comes into an `expect_message` error instead of a hang.
fn raw_session(addr: std::net::SocketAddr, role: proto::Role) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("client connects");
    stream.set_read_timeout(Some(Duration::from_millis(100))).expect("read timeout");
    proto::write_message(&mut stream, &proto::Message::Hello { role }).expect("hello");
    match proto::expect_message(&mut stream, Duration::from_secs(10)).expect("welcome") {
        proto::Message::Welcome { .. } => stream,
        other => panic!("expected WELCOME, got {other:?}"),
    }
}

/// Streams `bytes` as shard `shard` of `job`, named `late-<shard>`, in one
/// chunk.
fn stream_shard(stream: &mut TcpStream, job: u32, shard: u32, bytes: &[u8]) {
    let open = proto::Message::ShardOpen {
        job,
        shard,
        name: format!("late-{shard}"),
        text: TextFormat::Std,
        chunks: 1,
    };
    proto::write_message(stream, &open).expect("shard header writes");
    proto::write_chunks(stream, job, shard, bytes, bytes.len()).expect("shard chunk writes");
}

#[test]
fn a_drained_job_accepts_no_more_shards() {
    // A drain aborts every open job.  A shard streamed into one afterwards
    // must be refused with the abort and never queued, or the drain would
    // lease work of a job it has already failed.
    let traces = [racy_trace("x", "A:1", "A:2")];
    let paths = write_shards("drained", &traces);
    let jobs1 = local_run(&paths, &spec(), 1);
    let bytes = std::fs::read(&paths[0]).expect("shard reads");

    // Job `held` is the default job, closed at bind; its one shard is
    // leased to a worker that keeps it, and its report is asked for now.
    let config = ServeConfig { spec: spec(), ..ServeConfig::default() };
    let coordinator = Coordinator::bind(&paths, &config).expect("coordinator binds");
    let addr = coordinator.local_addr();
    let serve = std::thread::spawn(move || coordinator.run().expect("serve completes"));
    let mut holder = TcpStream::connect(addr).expect("holder connects");
    holder.set_read_timeout(Some(Duration::from_millis(100))).expect("read timeout");
    let (held, held_shard, _) = lease_one(&mut holder);
    let mut fetch = raw_session(addr, proto::Role::Submit);
    let name = DEFAULT_JOB.to_owned();
    proto::write_message(&mut fetch, &proto::Message::Fetch { name }).expect("fetch writes");

    // Job `late` is open, with one of its two shards streamed.
    let mut late = raw_session(addr, proto::Role::Submit);
    let open = proto::Message::JobOpen { name: "late".to_owned(), spec: spec(), shards: 2 };
    proto::write_message(&mut late, &open).expect("job open writes");
    let job = match proto::expect_message(&mut late, Duration::from_secs(10)).expect("accept") {
        proto::Message::JobAccept { job } => job,
        other => panic!("expected JOB_ACCEPT, got {other:?}"),
    };
    stream_shard(&mut late, job, 0, &bytes);

    // SHUTDOWN on `late`'s own connection: the coordinator serves one
    // connection's messages in order, so the drain has run before it
    // reads the second shard.
    proto::write_message(&mut late, &proto::Message::Shutdown).expect("shutdown writes");
    match proto::expect_message(&mut late, Duration::from_secs(10)).expect("shutdown ack") {
        proto::Message::Done => {}
        other => panic!("expected DONE, got {other:?}"),
    }
    stream_shard(&mut late, job, 1, &bytes);
    match proto::expect_message(&mut late, Duration::from_secs(5)).expect("the shard is refused") {
        proto::Message::Error { message } => assert!(message.contains("aborted"), "{message}"),
        other => panic!("expected ERROR, got {other:?}"),
    }

    // Nothing of `late` was queued: a fresh worker's lease waits for `held`
    // to fold and ends in DONE, not a GRANT.
    let mut fresh = raw_session(addr, proto::Role::Worker);
    proto::write_message(&mut fresh, &proto::Message::Lease).expect("lease writes");
    proto::write_message(&mut holder, &outcome_message(&jobs1, held, held_shard))
        .expect("outcome writes");
    match proto::expect_message(&mut fresh, Duration::from_secs(10)).expect("a reply") {
        proto::Message::Done => {}
        other => panic!("expected DONE, got {other:?}"),
    }
    match proto::expect_message(&mut fetch, Duration::from_secs(10)).expect("held's report") {
        proto::Message::Report { runs, .. } => {
            let outcomes: Vec<_> = runs.into_iter().map(|run| run.outcome).collect();
            let local: Vec<_> = jobs1.merged.into_iter().map(|run| run.outcome).collect();
            assert_eq!(outcomes, local, "held's report diverged from the local run");
        }
        other => panic!("expected REPORT, got {other:?}"),
    }

    drop((holder, fetch, late, fresh));
    let summary = serve.join().expect("serve thread");
    let late = summary.jobs.iter().find(|job| job.name == "late").expect("late is summarized");
    assert!(late.result.as_ref().is_err_and(|error| error.contains("aborted")));
    cleanup(&paths);
}

#[test]
fn worker_cache_is_keyed_by_content_not_job_identity() {
    // The cache-keying bugfix pinned end-to-end: a job name is reused for
    // *different* bytes, and the worker's cache must miss (a
    // (job, shard)-keyed cache would happily serve the stale bytes).  Then
    // the name is reused a third time with the *original* bytes: everything
    // hits and nothing re-crosses the wire.
    let first = [racy_trace("x", "A:1", "A:2"), racy_trace("y", "B:1", "B:2")];
    let second = [racy_trace("p", "P:1", "P:2"), racy_trace("q", "Q:1", "Q:2")];
    let first_paths = write_shards("reuse-a", &first);
    let second_paths = write_shards("reuse-b", &second);

    let coordinator =
        Coordinator::bind(&[], &ServeConfig::default()).expect("resident coordinator binds");
    let addr = coordinator.local_addr().to_string();
    let serve = std::thread::spawn(move || coordinator.run().expect("serve completes"));
    let worker_addr = addr.clone();
    let worker = std::thread::spawn(move || {
        let config = WorkConfig { jobs: Some(1), cache_bytes: 1 << 20, ..WorkConfig::default() };
        dist::work(&worker_addr, &config).expect("worker completes")
    });

    let submit = |paths: &[PathBuf]| {
        let config = SubmitConfig {
            job: Some("reuse".to_owned()),
            paths: paths.to_vec(),
            spec: spec(),
            ..SubmitConfig::default()
        };
        dist::submit(&addr, &config).expect("job submits")
    };
    let metric =
        |report: &dist::SubmitReport, name: &str| report.scheduling.get(name).unwrap_or(0.0) as u64;

    // Cold: every shard byte crosses the wire, nothing hits.
    let cold = submit(&first_paths);
    let first_bytes: u64 =
        first_paths.iter().map(|path| std::fs::metadata(path).expect("shard stats").len()).sum();
    assert_eq!(metric(&cold, "bytes_transferred"), first_bytes);
    assert_eq!(metric(&cold, "cache_hits"), 0);
    assert_eq!(metric(&cold, "leases_stolen"), 0, "no speculation configured");

    // Reused name, changed bytes: the cache must miss on every shard.
    let changed = submit(&second_paths);
    assert_eq!(
        metric(&changed, "cache_hits"),
        0,
        "content changed under a reused job name but the worker cache hit"
    );
    assert!(metric(&changed, "bytes_transferred") > 0);
    let second_local = local_run(&second_paths, &spec(), 1);
    for (baseline, remote) in second_local.merged.iter().zip(&changed.merged) {
        assert_eq!(baseline.outcome, remote.outcome, "a stale cached shard was analyzed");
    }

    // Reused name, original bytes: warm — all HAVE, zero transfer.
    let warm = submit(&first_paths);
    assert_eq!(metric(&warm, "bytes_transferred"), 0, "warm submit re-transferred cached shards");
    assert_eq!(metric(&warm, "cache_hits"), first_paths.len() as u64);
    let first_local = local_run(&first_paths, &spec(), 1);
    for (baseline, remote) in first_local.merged.iter().zip(&warm.merged) {
        assert_eq!(baseline.outcome, remote.outcome, "a cache-served shard diverged");
    }

    dist::shutdown(&addr).expect("coordinator drains");
    worker.join().expect("worker thread");
    serve.join().expect("serve thread");
    cleanup(&first_paths);
    cleanup(&second_paths);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    // The lease-bookkeeping invariant under randomized evil-client
    // schedules (a chaos-harness satellite): whatever mix of
    // lease-and-vanish and lease-and-squat clients hits the coordinator,
    // every shard folds exactly once — the merged outcome equals the local
    // run, the shards-sum holds, and no shard is double-counted.
    #[test]
    fn lease_bookkeeping_survives_random_evil_schedules(
        evils in prop::collection::vec(0u8..2, 1..4),
    ) {
        let traces = [
            racy_trace("x", "A:1", "A:2"),
            racy_trace("y", "B:1", "B:2"),
            racy_trace("z", "C:1", "C:2"),
        ];
        let paths = write_shards("evil", &traces);
        let jobs1 = local_run(&paths, &spec(), 1);

        let cluster_paths = paths.clone();
        let (serve, submit) =
            with_deadline("evil-client schedule", Duration::from_secs(120), move || {
                // Squatters keep their connections open (and their leases
                // hostage) for the whole run; only the 700ms lease timeout
                // can reclaim their shards.  Vanishers requeue through the
                // disconnect path instead.
                let mut squatters: Vec<TcpStream> = Vec::new();
                let result =
                    drive_cluster(&cluster_paths, 1, Duration::from_millis(700), |addr| {
                        for &evil in &evils {
                            if evil == 0 {
                                lease_and_vanish(addr);
                            } else {
                                let mut stream =
                                    TcpStream::connect(addr).expect("squatter connects");
                                let _ = lease_one(&mut stream);
                                squatters.push(stream);
                            }
                        }
                    });
                drop(squatters);
                result
            });
        cleanup(&paths);

        for (baseline, (served, submitted)) in
            jobs1.merged.iter().zip(serve.merged.iter().zip(&submit.merged))
        {
            assert_eq!(
                baseline.outcome, served.outcome,
                "an evil schedule lost or double-counted a shard for {}",
                baseline.outcome.detector
            );
            assert_eq!(baseline.outcome, submitted.outcome);
            assert_eq!(served.outcome.shards, paths.len());
            assert_eq!(served.outcome.events, jobs1.total_events());
        }
    }
}

#[test]
fn submit_timeout_bounds_the_job_open_handshake() {
    let traces = [racy_trace("x", "A:1", "A:2")];
    let paths = write_shards("handshake-timeout", &traces);
    let bounded = SubmitConfig {
        job: Some("stuck".to_owned()),
        paths: paths.clone(),
        spec: spec(),
        timeout: Some(Duration::from_millis(400)),
        ..SubmitConfig::default()
    };

    // A coordinator stand-in that accepts TCP but never answers the HELLO:
    // the WELCOME wait must respect --timeout, not the 30-second default.
    let mute = std::net::TcpListener::bind("127.0.0.1:0").expect("mute listener binds");
    let mute_addr = mute.local_addr().expect("mute addr").to_string();
    let started = std::time::Instant::now();
    let error = dist::submit(&mute_addr, &bounded).expect_err("the WELCOME wait is bounded");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the handshake wait ignored --timeout ({:?})",
        started.elapsed()
    );
    assert!(error.contains("no reply from peer"), "{error}");
    drop(mute);

    // A stand-in that answers the handshake, then goes silent: the
    // JOB_ACCEPT wait must be bounded by --timeout too.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("listener binds");
    let addr = listener.local_addr().expect("addr").to_string();
    let hold = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accepts the submit client");
        match proto::read_message(&mut stream) {
            Ok(proto::Incoming::Message(proto::Message::Hello { .. })) => {}
            other => panic!("expected HELLO, got {other:?}"),
        }
        proto::write_message(&mut stream, &proto::Message::Welcome { jobs_hint: 0 })
            .expect("welcome");
        stream // hold the connection open; never answer the JOB_OPEN
    });
    let started = std::time::Instant::now();
    let error = dist::submit(&addr, &bounded).expect_err("the JOB_ACCEPT wait is bounded");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the JOB_ACCEPT wait ignored --timeout ({:?})",
        started.elapsed()
    );
    assert!(error.contains("no reply from peer"), "{error}");
    drop(hold.join().expect("holder thread"));
    cleanup(&paths);
}

#[test]
fn submit_timeout_bounds_a_stalled_upload() {
    // A coordinator stand-in that answers WELCOME and JOB_ACCEPT and then
    // never reads: a 32 MiB shard overfills the socket buffers, so the
    // upload blocks.  With a timeout the submit must fail soon after it,
    // not hang; the channel's own timeout turns a hang into a failure.
    let path =
        std::env::temp_dir().join(format!("rapid-dist-stalled-upload-{}.std", std::process::id()));
    std::fs::write(&path, vec![b'#'; 32 << 20]).expect("shard writes");
    let listener = TcpListener::bind("127.0.0.1:0").expect("listener binds");
    let addr = listener.local_addr().expect("addr").to_string();
    let (release, released) = mpsc::channel::<()>();
    let hold = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accepts the submit client");
        match proto::read_message(&mut stream) {
            Ok(proto::Incoming::Message(proto::Message::Hello { .. })) => {}
            other => panic!("expected HELLO, got {other:?}"),
        }
        proto::write_message(&mut stream, &proto::Message::Welcome { jobs_hint: 0 })
            .expect("welcome");
        match proto::read_message(&mut stream) {
            Ok(proto::Incoming::Message(proto::Message::JobOpen { .. })) => {}
            other => panic!("expected JOB_OPEN, got {other:?}"),
        }
        proto::write_message(&mut stream, &proto::Message::JobAccept { job: 0 })
            .expect("job accept");
        // Hold the connection open, unread, until the test is done.
        released.recv().ok();
        stream
    });

    let bounded = SubmitConfig {
        job: Some("stalled".to_owned()),
        paths: vec![path.clone()],
        spec: spec(),
        timeout: Some(Duration::from_secs(2)),
        ..SubmitConfig::default()
    };
    let (done, finished) = mpsc::channel();
    let started = Instant::now();
    let client = std::thread::spawn(move || done.send(dist::submit(&addr, &bounded)).ok());
    let result = finished
        .recv_timeout(Duration::from_secs(20))
        .expect("the stalled upload outlasted its timeout by 18 s");
    let error = result.expect_err("a stalled upload is an error");
    assert!(error.contains("did not finish within the timeout"), "{error}");
    assert!(started.elapsed() >= Duration::from_secs(2), "{:?}", started.elapsed());
    release.send(()).ok();
    drop(hold.join().expect("holder thread"));
    client.join().expect("client thread");
    std::fs::remove_file(&path).ok();
}

#[test]
fn worker_against_a_dead_address_errors_cleanly() {
    // Nothing listens here; the worker's connect retry gives up with a
    // rendered error instead of hanging or panicking.
    let error = dist::work("127.0.0.1:1", &WorkConfig::default()).expect_err("no coordinator");
    assert!(error.contains("cannot connect"), "{error}");
}

#[test]
fn worker_retries_through_a_late_coordinator() {
    // Reserve an address, start with nothing listening, and bring the
    // coordinator up only after the worker's first attempts failed: the
    // retry budget must carry the worker through to a clean completion.
    let traces = [racy_trace("x", "A:1", "A:2")];
    let paths = write_shards("retry", &traces);

    let placeholder = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve a port");
    let addr = placeholder.local_addr().expect("reserved addr").to_string();
    drop(placeholder);

    let worker_addr = addr.clone();
    let worker = std::thread::spawn(move || {
        let config = WorkConfig {
            jobs: Some(1),
            retries: 10,
            retry_max_wait: Duration::from_millis(250),
            ..WorkConfig::default()
        };
        dist::work(&worker_addr, &config)
    });

    // Let the worker burn at least one failed connect before binding.
    std::thread::sleep(Duration::from_millis(300));
    let config =
        ServeConfig { spec: spec(), bind: addr.clone(), once: true, ..ServeConfig::default() };
    let coordinator = Coordinator::bind(&paths, &config).expect("late coordinator binds");
    let serve = std::thread::spawn(move || coordinator.run().expect("serve completes"));

    let report = dist::submit(&addr, &SubmitConfig::default()).expect("submit succeeds");
    let summary = worker.join().expect("worker thread").expect("worker retried to completion");
    assert_eq!(summary.stats.shards, 1);
    serve.join().expect("serve thread");

    let local = local_run(&paths, &spec(), 1);
    cleanup(&paths);
    for (baseline, remote) in local.merged.iter().zip(&report.merged) {
        assert_eq!(baseline.outcome, remote.outcome);
    }
}
