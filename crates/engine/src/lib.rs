//! Streaming detection engine for `rapid-rs`.
//!
//! The paper's headline claim is that WCP admits a *single-pass, linear-time*
//! analysis.  This crate makes that operational — and scales it across
//! traces:
//!
//! * a unified [`Detector`] trait (`on_event` / `finish`) implemented by
//!   every detector's streaming core;
//! * an [`Engine`] driver that fans one event stream out to any number of
//!   registered detectors in a single pass with per-detector accounting;
//! * a mergeable [`Outcome`] algebra ([`outcome`]): race pairs keyed by
//!   interned *names* (not per-trace ids) and typed, aggregatable
//!   [`Metrics`], so results from different traces fold together losslessly;
//! * a parallel multi-trace [`driver`]: a `std::thread` worker pool that
//!   analyzes N shard files concurrently (one fresh engine per shard, any
//!   mix of encodings) and merges the per-shard outcomes into one report;
//! * a wire codec for outcomes ([`outcome::wire`], magic `RWO`) and a
//!   distributed front-end ([`dist`]): a TCP coordinator/worker protocol
//!   (`engine serve|work|submit`) that leases shards to remote workers,
//!   survives worker death by requeueing, and folds returned outcomes
//!   through the exact same merge path as a local `jobs = N` run — see
//!   `docs/PROTOCOL.md`.
//!
//! Combined with [`rapid_trace::format::StreamReader`] (an iterator of
//! events over any `BufRead`), a trace file of arbitrary length is analyzed
//! in bounded memory: nothing on the stream path ever materializes a
//! [`Trace`](rapid_trace::Trace).  The batch entry points of the detector
//! crates (`WcpDetector::analyze`, `HbDetector::detect`, …) are thin
//! wrappers over the same streaming cores, so batch and stream results
//! cannot drift apart — a property locked in by this crate's differential
//! test suite, which since PR 4 also covers `jobs = 1` vs `jobs = N`
//! parallel shard runs.
//!
//! # Example: stream a trace file through three detectors
//!
//! ```
//! use rapid_engine::Engine;
//! use rapid_trace::format::StreamReader;
//!
//! let file = "\
//! main|fork(worker)|Main.java:10
//! main|w(flag)|Main.java:20
//! worker|r(flag)|Worker.java:33
//! main|join(worker)|Main.java:30
//! ";
//!
//! let mut engine = Engine::new();
//! engine.register(Box::new(rapid_wcp::WcpStream::new()));
//! engine.register(Box::new(rapid_hb::FastTrackStream::new()));
//! engine.register(Box::new(rapid_mcm::McmStream::new(rapid_mcm::McmConfig::default())));
//!
//! let mut reader = StreamReader::std(file.as_bytes());
//! engine.run(&mut reader).expect("well-formed trace");
//! let runs = engine.finish(reader.names());
//! assert!(runs.iter().all(|run| run.outcome.distinct_pairs() == 1));
//! // Race pairs are keyed by names, so they are directly comparable (and
//! // mergeable) across traces:
//! let pair = runs[0].outcome.races.keys().next().expect("one pair");
//! assert_eq!(pair.variable, "flag");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod detector;
pub mod dist;
pub mod driver;
pub mod engine;
pub mod outcome;

pub use detector::{Detector, DetectorSpec};
pub use driver::{
    expand_shard_paths, fold_runs, run_shards, DriverConfig, DriverError, MultiReport, ShardInput,
    ShardRun,
};
pub use engine::{DetectorRun, Engine};
pub use outcome::{Aggregation, Metric, Metrics, Outcome, PairStats, RacePair};
