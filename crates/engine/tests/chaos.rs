//! The chaos harness for the distributed layer: deterministic fault
//! injection into the RWP transport, driven by replayable seeds, with the
//! verdict-preservation property pinned end to end.
//!
//! The headline property: for a random (workload × fault schedule) pair,
//! a cluster whose transport suffers delays, bit flips, cut connections
//! and stalls either produces a merged `Outcome` **equal** (`PartialEq`,
//! metrics included) to the local `jobs = 1` run of the same shards, or a
//! clean typed error — it never hangs and never reports a silently wrong
//! verdict.  Every failing schedule reproduces exactly from the seed the
//! proptest failure prints.
//!
//! Fault semantics are documented in `docs/CHAOS.md`; the wire-level
//! guarantees (CRC-32 framing, bounded stalls, lease requeue) in
//! `docs/PROTOCOL.md`.

mod common;

use std::path::PathBuf;
use std::time::Duration;

use proptest::prelude::*;
use rapid_engine::dist::{
    self, ChaosConfig, Coordinator, FaultAction, FaultPlan, RemoteQueue, ServeConfig, SubmitConfig,
    WorkConfig,
};
use rapid_engine::driver::{run_shards, DriverConfig, MultiReport, ShardInput};
use rapid_engine::{DetectorSpec, Engine};
use rapid_trace::format;
use rapid_trace::{Trace, TraceBuilder};

use common::{interpret, with_deadline};

/// A deterministic two-thread workload big enough (hundreds of events,
/// per-shard string tables) that its `.rwf` encoding spans well past any
/// handshake bytes — chaos anchors up to ~1800 land inside its chunk
/// streams.
fn busy_trace(variable: &str, prefix: &str, rounds: usize) -> Trace {
    let mut builder = TraceBuilder::new();
    let t1 = builder.thread("t1");
    let t2 = builder.thread("t2");
    let var = builder.variable(variable);
    for round in 0..rounds {
        builder.at(&format!("{prefix}:{round}"));
        builder.write(if round % 2 == 0 { t1 } else { t2 }, var);
    }
    builder.finish()
}

fn write_shards(tag: &str, traces: &[Trace]) -> Vec<PathBuf> {
    traces
        .iter()
        .enumerate()
        .map(|(index, trace)| {
            let extension = if index % 2 == 0 { "std" } else { "rwf" };
            let path = std::env::temp_dir()
                .join(format!("rapid-chaos-{tag}-{}-{index}.{extension}", std::process::id()));
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

fn local_run(paths: &[PathBuf], jobs: usize) -> MultiReport {
    let spec = spec();
    run_shards(
        paths,
        move || spec.build().expect("spec builds"),
        &DriverConfig { jobs, ..DriverConfig::default() },
    )
    .expect("local run completes")
}

/// The chaos differential scenario: a one-shot coordinator with a short
/// lease timeout and speculation armed, one clean worker (guaranteed
/// progress), one chaotic worker whose every leasing connection runs
/// under `chaos`, and a clean bounded submit.  Both workers cache shards
/// and the coordinator arms speculation, so the whole scheduling surface
/// is exercised under faults at once.
/// Asserts the full verdict-preservation contract against the local
/// `jobs = 1` ground truth, plus the scheduling-metrics invariants.
fn assert_chaotic_worker_preserves_verdict(tag: &str, traces: &[Trace], chaos: ChaosConfig) {
    let paths = write_shards(tag, traces);
    let local = local_run(&paths, 1);
    let total_events: usize = traces.iter().map(Trace::len).sum();

    let config = ServeConfig {
        spec: spec(),
        lease_timeout: Duration::from_millis(700),
        // Tiny chunks so shard transfers span many frames and byte-level
        // faults land mid-chunk-stream, not just in handshakes.
        chunk_len: 64,
        once: true,
        // Speculation ripens only when chaos actually stalls a lease for
        // whole seconds — clean schedules steal nothing, sabotaged ones
        // may, and the verdict must not notice either way.
        speculate_after: Some(Duration::from_secs(2)),
        ..ServeConfig::default()
    };
    let coordinator = Coordinator::bind(&paths, &config).expect("coordinator binds");
    let addr = coordinator.local_addr().to_string();
    let serve = std::thread::spawn(move || coordinator.run().expect("serve completes"));

    let clean_addr = addr.clone();
    let clean = std::thread::spawn(move || {
        let config = WorkConfig {
            jobs: Some(1),
            retries: 5,
            retry_max_wait: Duration::from_millis(250),
            cache_bytes: 8 << 20,
            ..WorkConfig::default()
        };
        dist::work(&clean_addr, &config).expect("the clean worker completes")
    });
    let chaotic_addr = addr.clone();
    let chaotic = std::thread::spawn(move || {
        let config = WorkConfig {
            jobs: Some(1),
            retries: 2,
            retry_max_wait: Duration::from_millis(100),
            // Bound the lease/chunk waits so injected stalls surface as
            // typed errors in seconds, not the production hour.
            patience: Some(Duration::from_secs(1)),
            cache_bytes: 8 << 20,
            chaos,
        };
        dist::work(&chaotic_addr, &config)
    });

    let submit_config =
        SubmitConfig { timeout: Some(Duration::from_secs(60)), ..SubmitConfig::default() };
    let submit = dist::submit(&addr, &submit_config)
        .expect("a clean submit completes despite the chaotic worker");
    // The chaotic worker may end in a typed error (its connections were
    // sabotaged) or cleanly — both are in-contract; a hang is not, and the
    // caller's deadline catches that.
    let _ = chaotic.join().expect("chaotic worker thread");
    clean.join().expect("clean worker thread");
    let summary = serve.join().expect("serve thread");
    cleanup(&paths);

    // Verdict preservation: the merged report equals local jobs=1 as whole
    // Outcome values, and the rendered race pairs are byte-identical.
    assert_eq!(submit.merged.len(), local.merged.len());
    for (baseline, remote) in local.merged.iter().zip(&submit.merged) {
        assert_eq!(
            baseline.outcome, remote.outcome,
            "chaos changed the {} verdict",
            baseline.outcome.detector
        );
        // The shards-sum invariant: every shard folded exactly once even
        // when leases were forfeited and requeued along the way.
        assert_eq!(remote.outcome.shards, paths.len());
        assert_eq!(remote.outcome.events, total_events);
    }
    assert_eq!(Engine::render_race_pairs(&local.merged), Engine::render_race_pairs(&submit.merged));
    assert_eq!(submit.events, total_events);
    assert_eq!(submit.shards, paths.len());

    // The scheduling stats are job-level metadata, present and consistent
    // whatever the fault schedule did: every counter is recorded, shard
    // bytes reached the workers one way or the other (wire transfers, or
    // cache hits on a retried connection), and a steal only ever happens
    // through the speculation path.
    let sched =
        |name: &str| submit.scheduling.get(name).unwrap_or_else(|| panic!("metric {name} missing"));
    let transferred = sched("bytes_transferred");
    let hits = sched("cache_hits");
    let stolen = sched("leases_stolen");
    assert!(transferred > 0.0, "no shard bytes ever crossed the wire");
    assert!(hits >= 0.0 && stolen >= 0.0);

    // The serve-side fold agrees too.
    assert_eq!(summary.jobs.len(), 1);
    let served = summary.jobs.into_iter().next().expect("one job").result.expect("job folds");
    for (baseline, remote) in local.merged.iter().zip(&served.merged) {
        assert_eq!(baseline.outcome, remote.outcome);
    }
}

/// The fixed workload of the pinned-seed smokes: two mixed-encoding shards
/// with multi-chunk bodies plus one trivial shard.
fn pinned_workload() -> Vec<Trace> {
    vec![busy_trace("x", "A", 120), busy_trace("y", "B", 90), busy_trace("x", "A", 7)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // The headline chaos differential: random workload × random seeded
    // fault schedule.  Each case is a real cluster on localhost; the
    // deadline converts any hang into a failure that prints the seed.
    #[test]
    fn chaotic_transport_never_changes_the_verdict(
        seed in 0u64..u64::MAX,
        threads in 2usize..4,
        script in prop::collection::vec((0u8..4, common::action()), 1..60),
    ) {
        let traces = vec![interpret(&script, threads), busy_trace("q", "Q", 80)];
        with_deadline("chaos differential", Duration::from_secs(120), move || {
            assert_chaotic_worker_preserves_verdict(
                &format!("diff-{seed:x}"),
                &traces,
                ChaosConfig::seeded(seed),
            );
        });
    }
}

// The pinned chaos seeds: three fixed schedules re-run on every build (the
// CI chaos smoke), so a hardening regression reproduces from a constant.
#[test]
fn pinned_chaos_seed_0x11() {
    with_deadline("pinned seed 0x11", Duration::from_secs(120), || {
        assert_chaotic_worker_preserves_verdict(
            "pin11",
            &pinned_workload(),
            ChaosConfig::seeded(0x11),
        );
    });
}

#[test]
fn pinned_chaos_seed_0xc0ffee() {
    with_deadline("pinned seed 0xC0FFEE", Duration::from_secs(120), || {
        assert_chaotic_worker_preserves_verdict(
            "pincoffee",
            &pinned_workload(),
            ChaosConfig::seeded(0xC0_FFEE),
        );
    });
}

#[test]
fn pinned_chaos_seed_0xdead_beef() {
    with_deadline("pinned seed 0xDEAD_BEEF", Duration::from_secs(120), || {
        assert_chaotic_worker_preserves_verdict(
            "pinbeef",
            &pinned_workload(),
            ChaosConfig::seeded(0xDEAD_BEEF),
        );
    });
}

// The known-nasty hand-written schedule: the chaotic worker is the ONLY
// worker, and its first three leasing connections are each sabotaged a
// different way — a cut mid-chunk-stream, a stall mid-grant, and a write
// flip that corrupts a frame the coordinator reads.  The retry budget must
// carry it through to a clean, equal completion.
#[test]
fn known_nasty_schedule_recovers_through_retries() {
    with_deadline("known-nasty schedule", Duration::from_secs(120), || {
        let traces = pinned_workload();
        let paths = write_shards("nasty", &traces);
        let local = local_run(&paths, 1);

        let config = ServeConfig {
            spec: spec(),
            lease_timeout: Duration::from_millis(700),
            chunk_len: 64,
            once: true,
            ..ServeConfig::default()
        };
        let coordinator = Coordinator::bind(&paths, &config).expect("coordinator binds");
        let addr = coordinator.local_addr().to_string();
        let serve = std::thread::spawn(move || coordinator.run().expect("serve completes"));

        let plans = vec![
            // Connection 0: cut 300 bytes into the read direction — inside
            // the first shard's chunk stream (64-byte chunks), a frame
            // truncated mid-body.
            FaultPlan::clean().with_read(300, FaultAction::Cut),
            // Connection 1: stall 40 bytes in — mid-GRANT; the bounded
            // mid-frame stall budget must surface a typed timeout.
            FaultPlan::clean().with_read(40, FaultAction::Stall),
            // Connection 2: flip a bit in the 30th written byte — corrupts
            // a LEASE/OUTCOME frame on the coordinator's side of the CRC.
            FaultPlan::clean().with_write(29, FaultAction::Flip { bit: 5 }),
            // Connections 3+: clean — the recovery path.
        ];
        let worker_addr = addr.clone();
        let worker = std::thread::spawn(move || {
            let config = WorkConfig {
                jobs: Some(1),
                retries: 6,
                retry_max_wait: Duration::from_millis(100),
                patience: Some(Duration::from_secs(1)),
                chaos: ChaosConfig::scripted(plans),
                ..WorkConfig::default()
            };
            dist::work(&worker_addr, &config).expect("the worker retries through the schedule")
        });

        let submit_config =
            SubmitConfig { timeout: Some(Duration::from_secs(60)), ..SubmitConfig::default() };
        let submit = dist::submit(&addr, &submit_config).expect("submit completes");
        let summary = worker.join().expect("worker thread");
        serve.join().expect("serve thread");
        cleanup(&paths);

        assert!(summary.stats.shards >= traces.len(), "the recovered worker did all the work");
        for (baseline, remote) in local.merged.iter().zip(&submit.merged) {
            assert_eq!(baseline.outcome, remote.outcome);
            assert_eq!(remote.outcome.shards, paths.len());
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // Chaos on the *submit* connection: the report either arrives equal to
    // the local run, or submit fails with a clean typed error — and either
    // way the service is not poisoned: a follow-up clean submit of the
    // same shards completes and matches the local run.
    #[test]
    fn chaotic_submit_reports_equal_or_errors_cleanly(seed in 0u64..u64::MAX) {
        with_deadline("chaotic submit", Duration::from_secs(120), move || {
            let traces = vec![busy_trace("x", "A", 60), busy_trace("y", "B", 45)];
            let paths = write_shards(&format!("submit-{seed:x}"), &traces);
            let local = local_run(&paths, 1);

            let coordinator = Coordinator::bind(&[], &ServeConfig::default())
                .expect("resident coordinator binds");
            let addr = coordinator.local_addr().to_string();
            let serve = std::thread::spawn(move || coordinator.run().expect("serve completes"));
            let worker_addr = addr.clone();
            let worker = std::thread::spawn(move || {
                let config = WorkConfig { jobs: Some(1), ..WorkConfig::default() };
                dist::work(&worker_addr, &config).expect("the clean worker completes")
            });

            let chaotic = SubmitConfig {
                job: Some("under-test".to_owned()),
                paths: paths.clone(),
                spec: spec(),
                timeout: Some(Duration::from_secs(10)),
                chunk_len: 64,
                chaos: ChaosConfig::seeded(seed),
                ..SubmitConfig::default()
            };
            match dist::submit(&addr, &chaotic) {
                Ok(report) => {
                    // The report survived the chaos: it must be the truth.
                    for (baseline, remote) in local.merged.iter().zip(&report.merged) {
                        assert_eq!(
                            baseline.outcome, remote.outcome,
                            "a chaotic submit returned a wrong verdict"
                        );
                    }
                }
                Err(error) => {
                    assert!(!error.is_empty(), "submit failures carry a rendered error");
                }
            }

            // No poisoning: the service still answers a clean job in full.
            let follow_up = SubmitConfig {
                job: Some("after-chaos".to_owned()),
                paths: paths.clone(),
                spec: spec(),
                timeout: Some(Duration::from_secs(60)),
                ..SubmitConfig::default()
            };
            let report = dist::submit(&addr, &follow_up)
                .expect("the service survives a sabotaged client");
            for (baseline, remote) in local.merged.iter().zip(&report.merged) {
                assert_eq!(baseline.outcome, remote.outcome);
            }

            dist::shutdown(&addr).expect("coordinator drains");
            worker.join().expect("worker thread");
            serve.join().expect("serve thread");
            cleanup(&paths);
        });
    }
}

// The speculation pin, scripted: a worker whose first connection stalls
// mid-chunk-stream (a straggler by fault injection, not by sleep) holds
// its lease hostage far under the lease timeout; the coordinator must
// speculatively re-lease the shard to the idle clean worker, fold the
// thief's result exactly once, and finish the job to the local verdict.
#[test]
fn stalled_straggler_is_speculatively_re_leased() {
    with_deadline("scripted-stall speculation", Duration::from_secs(60), || {
        let traces = pinned_workload();
        let paths = write_shards("specstall", &traces);
        let local = local_run(&paths, 1);
        let total_events: usize = traces.iter().map(Trace::len).sum();

        let config = ServeConfig {
            spec: spec(),
            // Leases effectively never expire and tiny chunks put byte 300
            // of the read direction inside the first chunk stream: the
            // stall lands mid-transfer, after the GRANT was accepted.
            lease_timeout: Duration::from_secs(600),
            chunk_len: 64,
            once: true,
            speculate_after: Some(Duration::from_millis(300)),
            ..ServeConfig::default()
        };
        let coordinator = Coordinator::bind(&paths, &config).expect("coordinator binds");
        let addr = coordinator.local_addr().to_string();
        let serve = std::thread::spawn(move || coordinator.run().expect("serve completes"));

        // The straggler leases first; its stalled read keeps the lease
        // hostage until its 2s patience gives up — well past the 300ms
        // speculation ripeness.
        let straggler_addr = addr.clone();
        let straggler = std::thread::spawn(move || {
            let config = WorkConfig {
                jobs: Some(1),
                retries: 1,
                retry_max_wait: Duration::from_millis(100),
                patience: Some(Duration::from_secs(2)),
                chaos: ChaosConfig::scripted(vec![
                    FaultPlan::clean().with_read(300, FaultAction::Stall)
                ]),
                ..WorkConfig::default()
            };
            dist::work(&straggler_addr, &config)
        });
        std::thread::sleep(Duration::from_millis(200)); // let the straggler lease first

        let clean_addr = addr.clone();
        let clean = std::thread::spawn(move || {
            let config = WorkConfig { jobs: Some(1), ..WorkConfig::default() };
            dist::work(&clean_addr, &config).expect("the clean worker completes")
        });

        let submit_config =
            SubmitConfig { timeout: Some(Duration::from_secs(60)), ..SubmitConfig::default() };
        let submit = dist::submit(&addr, &submit_config).expect("submit completes");
        let _ = straggler.join().expect("straggler thread"); // typed error or clean exit
        clean.join().expect("clean worker thread");
        serve.join().expect("serve thread");
        cleanup(&paths);

        for (baseline, remote) in local.merged.iter().zip(&submit.merged) {
            assert_eq!(baseline.outcome, remote.outcome, "speculation changed the verdict");
            assert_eq!(remote.outcome.shards, paths.len(), "a stolen shard folded twice");
            assert_eq!(remote.outcome.events, total_events);
        }
        let stolen = submit.scheduling.get("leases_stolen").unwrap_or(0.0);
        assert!(stolen >= 1.0, "the stalled lease was never stolen (leases_stolen = {stolen})");
    });
}

// The satellite regression pin: one flipped bit inside a leased shard's
// chunk stream must surface to the worker as a typed *corrupt frame*
// error — never a decode of wrong bytes — the lease must requeue, and a
// clean re-lease must ship byte-identical content so the job still folds
// to the local verdict.
#[test]
fn bit_flipped_chunk_is_a_typed_error_and_the_lease_requeues() {
    with_deadline("bit-flipped chunk regression", Duration::from_secs(60), || {
        let traces = [busy_trace("x", "FlipTarget", 300)];
        let paths = write_shards("bitflip", &traces);
        let on_disk = std::fs::read(&paths[0]).expect("shard reads");
        assert!(
            on_disk.len() > 1200,
            "shard too small ({} bytes) for the anchored flip to land in its chunk stream",
            on_disk.len()
        );
        let local = local_run(&paths, 1);

        let config = ServeConfig { spec: spec(), ..ServeConfig::default() };
        let coordinator = Coordinator::bind(&paths, &config).expect("coordinator binds");
        let addr = coordinator.local_addr().to_string();
        let serve = std::thread::spawn(move || coordinator.run().expect("serve completes"));

        // Byte 600 of the read direction is well past WELCOME + GRANT and
        // inside the single chunk frame's payload.
        let plan = FaultPlan::clean().with_read(600, FaultAction::Flip { bit: 2 });
        let (mut sabotaged, _) =
            RemoteQueue::connect_with(&addr, Some(Duration::from_secs(10)), Some(plan))
                .expect("sabotaged worker handshakes (the flip is past the handshake)");
        let error = sabotaged.claim().expect_err("a flipped chunk must not decode");
        assert!(
            error.message.contains("corrupt frame"),
            "expected a typed corruption error, got: {}",
            error.message
        );
        // Dropping the queue closes the connection; the coordinator
        // requeues the forfeited lease.
        drop(sabotaged);

        // A clean re-lease ships byte-identical content.
        let (mut clean, _) = RemoteQueue::connect(&addr).expect("clean worker handshakes");
        let item = clean
            .claim()
            .expect("the requeued shard re-leases")
            .expect("the shard is pending again");
        match item.input {
            ShardInput::Bytes { bytes, .. } => {
                assert_eq!(*bytes, on_disk, "the re-lease shipped different bytes");
            }
            other => panic!("expected leased bytes, got {other:?}"),
        }
        drop(clean); // forfeit again — the real fleet below finishes the job

        let worker_addr = addr.clone();
        let worker = std::thread::spawn(move || {
            let config = WorkConfig { jobs: Some(1), ..WorkConfig::default() };
            dist::work(&worker_addr, &config).expect("worker completes")
        });
        let report = dist::submit(&addr, &SubmitConfig::default()).expect("job completes");
        dist::shutdown(&addr).expect("coordinator drains");
        worker.join().expect("worker thread");
        serve.join().expect("serve thread");
        cleanup(&paths);

        for (baseline, remote) in local.merged.iter().zip(&report.merged) {
            assert_eq!(baseline.outcome, remote.outcome, "corruption leaked into the verdict");
        }
    });
}
