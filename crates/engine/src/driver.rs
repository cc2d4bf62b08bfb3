//! The parallel multi-trace driver: a worker pool over trace shards.
//!
//! The paper's detectors are linear-time per trace, and since the binary
//! ingestion layer the cost model is detector-bound — so the remaining
//! scaling axis is *across* traces.  This module makes "a directory of
//! shards" the unit of work: [`run_shards`] pops shard files off a shared
//! work queue onto `std::thread` workers, runs one fresh [`Engine`] (with a
//! fresh detector set) per shard via
//! [`AnyReader::open`](rapid_trace::format::AnyReader::open) — so text and
//! binary `.rwf` shards mix freely in one invocation — and folds
//! the per-shard [`DetectorRun`]s into one merged report with per-shard and
//! aggregate wall-clock.
//!
//! # One worker pool
//!
//! [`run_shards`] is [`parallel_map`] over [`analyze_shard`]: workers claim
//! shard paths off one atomic cursor and slot each result by input index.
//! [`analyze_shard`] reads a [`ShardInput`], which is either a path
//! ([`ShardInput::Path`], the local case) or raw bytes shipped from
//! elsewhere ([`ShardInput::Bytes`], the remote case).  The TCP worker in
//! [`dist`](crate::dist) calls it on every shard a coordinator leases it,
//! and the coordinator folds the returned outcomes through [`fold_runs`] —
//! the *same* merge path as `jobs = N`, which is what makes distributed and
//! local runs bit-identical.
//!
//! # Determinism
//!
//! Worker interleaving never leaks into results: per-shard results are
//! slotted by input index and merged *after* all workers join, in input
//! order, so `jobs = 1` and `jobs = N` produce identical merged outcomes
//! (bit-identical race-pair sets and metrics; only the wall-clock numbers
//! vary).  Errors are deterministic too — the earliest failing shard by
//! input order wins, regardless of which worker hit an error first.
//!
//! Outcomes merge by interned **names**; shards logged without real source
//! locations fall back to positional `line<N>` labels that coincide across
//! shards — see the [`outcome`](crate::outcome) module docs for when that
//! deduplication is (and is not) what you want.
//!
//! # Example
//!
//! ```no_run
//! use rapid_engine::driver::{run_shards, DriverConfig};
//! use rapid_engine::Detector;
//!
//! let shards = ["a.std".into(), "b.rwf".into(), "c.std".into()];
//! let report = run_shards(
//!     &shards,
//!     || -> Vec<Box<dyn Detector>> {
//!         vec![Box::new(rapid_wcp::WcpStream::new()), Box::new(rapid_hb::HbStream::new())]
//!     },
//!     &DriverConfig { jobs: 4, ..DriverConfig::default() },
//! )?;
//! println!("{} shards, {} events", report.shards.len(), report.total_events());
//! for run in &report.merged {
//!     println!("{}: {} race pair(s)", run.outcome.detector, run.outcome.distinct_pairs());
//! }
//! # Ok::<(), rapid_engine::driver::DriverError>(())
//! ```

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rapid_trace::format::{AnyReader, TextFormat};

use crate::detector::Detector;
use crate::engine::{DetectorRun, Engine};
use crate::outcome::Metrics;

/// Configuration of one [`run_shards`] invocation.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Number of worker threads (clamped to at least 1 and at most the
    /// number of shards).
    pub jobs: usize,
    /// Text flavour override; `None` decides per shard by file extension
    /// (binary `.rwf` shards are always auto-detected by magic bytes,
    /// regardless of this setting).
    pub text: Option<TextFormat>,
}

impl Default for DriverConfig {
    /// One worker per available hardware thread, per-extension text
    /// detection.
    fn default() -> Self {
        DriverConfig { jobs: available_jobs(), text: None }
    }
}

/// The default worker count: the machine's available parallelism.
pub fn available_jobs() -> usize {
    std::thread::available_parallelism().map(|jobs| jobs.get()).unwrap_or(1)
}

/// One shard's results: the driver's accounting plus the per-detector runs.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// The shard file analyzed.
    pub path: PathBuf,
    /// Which encoding it was read as (`text` or `binary`).
    pub source: &'static str,
    /// Events in the shard.
    pub events: usize,
    /// Wall-clock for this shard end to end (open + parse + detect + finish).
    pub wall: Duration,
    /// Per-detector outcome and timing, in registration order.
    pub runs: Vec<DetectorRun>,
}

/// Everything [`run_shards`] produces: per-shard results in input order and
/// the merged aggregate.
#[derive(Debug, Clone)]
pub struct MultiReport {
    /// Worker count actually used.
    pub jobs: usize,
    /// Per-shard results, in *input* order regardless of completion order.
    pub shards: Vec<ShardRun>,
    /// Per-detector aggregates, folded over all shards in input order.
    /// `DetectorRun::time` is summed detector time across workers (it can
    /// exceed [`MultiReport::wall`] when `jobs > 1` — that is the point).
    pub merged: Vec<DetectorRun>,
    /// Aggregate wall-clock of the whole invocation.
    pub wall: Duration,
    /// Job-level scheduling telemetry (`bytes_transferred`, `cache_hits`,
    /// `leases_stolen`) — populated by the distributed coordinator, empty
    /// for local runs.  Kept *outside* the per-detector merged outcomes so
    /// distributed and local `merged` stay `PartialEq`-identical.
    pub scheduling: Metrics,
}

impl MultiReport {
    /// Total events across all shards.
    pub fn total_events(&self) -> usize {
        self.shards.iter().map(|shard| shard.events).sum()
    }

    /// True when any merged detector outcome contains at least one race
    /// pair (the `--fail-on-race` predicate).
    pub fn has_races(&self) -> bool {
        self.merged.iter().any(|run| !run.outcome.races.is_empty())
    }
}

/// A shard that could not be opened or parsed.
#[derive(Debug)]
pub struct DriverError {
    /// The failing shard.
    pub path: PathBuf,
    /// What went wrong (open or parse error, rendered).
    pub message: String,
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.message)
    }
}

impl std::error::Error for DriverError {}

/// Runs `work` over every item of `items` on a pool of `jobs` worker
/// threads, returning results in input order.
///
/// This is the driver's one worker pool: [`run_shards`] maps
/// [`analyze_shard`] over its shard paths with it, and other harnesses (the
/// Table 1 reproduction) fan their own units of work through it.  Items are
/// claimed atomically off a shared cursor, so an expensive item never
/// blocks the queue behind it, and results are slotted by index — worker
/// interleaving cannot reorder them.
pub fn parallel_map<T, R, F>(items: &[T], jobs: usize, work: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.clamp(1, items.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(index) else { break };
                let result = work(item);
                *slots[index].lock().expect("worker poisoned a result slot") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("worker poisoned a result slot")
                .expect("every slot is filled once all workers join")
        })
        .collect()
}

/// One shard's input: a local file, or raw bytes shipped from elsewhere
/// (the distributed coordinator sends shard contents over the wire, so
/// workers never need a shared filesystem).
#[derive(Debug)]
pub enum ShardInput {
    /// A trace file on the local filesystem, opened via
    /// [`AnyReader::open`] (binary `.rwf` is auto-detected by magic bytes,
    /// anything else parses as text in the given flavour).
    Path {
        /// Text flavour to assume for non-binary content.
        text: TextFormat,
        /// The trace file.
        path: PathBuf,
    },
    /// In-memory trace bytes; binary `.rwf` content is auto-detected by
    /// magic, anything else parses as text in the given flavour.  The
    /// bytes are shared (`Arc`) so the distributed worker's content-
    /// addressed shard cache can hand the same buffer to analysis without
    /// copying or losing its cached entry.
    Bytes {
        /// Text flavour to assume for non-binary content.
        text: TextFormat,
        /// The raw trace bytes.
        bytes: Arc<Vec<u8>>,
    },
}

/// Analyzes one shard with a fresh engine over `detectors`: open (any
/// encoding), stream, finish against the reader's own name tables.
///
/// # Errors
///
/// The shard cannot be opened or parsed; the error carries `label`.
pub fn analyze_shard(
    input: ShardInput,
    label: &str,
    detectors: Vec<Box<dyn Detector>>,
) -> Result<ShardRun, DriverError> {
    let start = Instant::now();
    let fail = |message: String| DriverError { path: PathBuf::from(label), message };
    let mut reader = match input {
        ShardInput::Path { text, path } => AnyReader::open(&path, text, true),
        ShardInput::Bytes { text, bytes } => {
            // A cache-shared buffer is cloned out of its `Arc` only when
            // another holder remains (the cached entry keeps its copy);
            // a uniquely-held buffer moves in without copying.
            let bytes = Arc::try_unwrap(bytes).unwrap_or_else(|shared| (*shared).clone());
            AnyReader::from_bytes(bytes, text)
        }
    }
    .map_err(|error| fail(error.to_string()))?;
    let source = reader.source();
    let mut engine = Engine::new();
    for detector in detectors {
        engine.register(detector);
    }
    engine.run(&mut reader).map_err(|error| fail(error.to_string()))?;
    let runs = engine.finish(reader.names());
    Ok(ShardRun {
        path: PathBuf::from(label),
        source,
        events: engine.events_seen(),
        wall: start.elapsed(),
        runs,
    })
}

/// Folds per-shard runs into per-detector aggregates, in the order given —
/// the one merge path shared by the in-process pool and the distributed
/// coordinator, so `jobs = N` and remote workers produce identical merges.
pub fn fold_runs(shards: &[ShardRun]) -> Vec<DetectorRun> {
    let mut merged: Vec<DetectorRun> = Vec::new();
    for shard in shards {
        if merged.is_empty() {
            merged = shard.runs.clone();
        } else {
            for (aggregate, run) in merged.iter_mut().zip(&shard.runs) {
                aggregate.merge(run.clone());
            }
        }
    }
    merged
}

/// Expands any directory among `inputs` into the trace files it contains —
/// `.rwf`, `.csv` and `.std`, ASCII case-insensitive, non-recursive, in
/// sorted (byte-lexicographic) name order so shard order is deterministic
/// regardless of filesystem enumeration.  Plain file paths pass through
/// unchanged, in place.  Used by `engine multi` and `engine serve`, which
/// accept shard *directories* (no more shell-glob argv limits on large
/// shard dirs).
///
/// # Errors
///
/// A directory that cannot be read, or one containing **no** matching
/// trace files (an empty expansion is almost always a typo'd path, not an
/// empty workload).
pub fn expand_shard_paths(inputs: &[PathBuf]) -> Result<Vec<PathBuf>, DriverError> {
    let matches = |path: &Path| {
        path.extension().and_then(|extension| extension.to_str()).is_some_and(|extension| {
            ["rwf", "csv", "std"].iter().any(|known| extension.eq_ignore_ascii_case(known))
        })
    };
    let mut out = Vec::new();
    for input in inputs {
        if !input.is_dir() {
            out.push(input.clone());
            continue;
        }
        let entries = std::fs::read_dir(input)
            .map_err(|error| DriverError { path: input.clone(), message: error.to_string() })?;
        let mut found: Vec<PathBuf> = entries
            .filter_map(|entry| entry.ok().map(|entry| entry.path()))
            .filter(|path| path.is_file() && matches(path))
            .collect();
        if found.is_empty() {
            return Err(DriverError {
                path: input.clone(),
                message: "directory contains no .rwf/.csv/.std trace files".to_owned(),
            });
        }
        found.sort();
        out.extend(found);
    }
    Ok(out)
}

/// Analyzes every shard in `paths` on a [`parallel_map`] pool and merges
/// the results.
///
/// `detectors` is called once per shard, on the claiming worker's thread, to
/// build that shard's fresh detector set — detector state is never shared
/// between shards, which is what makes the per-shard analyses independent
/// and the fold exact.  All shards must register the same detector
/// configuration (same factory ⇒ holds by construction).
///
/// See the [module docs](self) for the determinism guarantees.
///
/// # Errors
///
/// Returns the error of the earliest failing shard in input order; shards
/// already analyzed are discarded.
pub fn run_shards<F>(
    paths: &[PathBuf],
    detectors: F,
    config: &DriverConfig,
) -> Result<MultiReport, DriverError>
where
    F: Fn() -> Vec<Box<dyn Detector>> + Sync,
{
    let start = Instant::now();
    let jobs = config.jobs.clamp(1, paths.len().max(1));
    let results = parallel_map(paths, jobs, |path| {
        let text = config.text.unwrap_or_else(|| TextFormat::from_path(path));
        let input = ShardInput::Path { text, path: path.clone() };
        analyze_shard(input, &path.display().to_string(), detectors())
    });
    // `collect` stops at the first `Err` in input order: the earliest
    // failing shard wins, whichever worker failed first.
    let shards = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    let merged = fold_runs(&shards);
    Ok(MultiReport { jobs, shards, merged, wall: start.elapsed(), scheduling: Metrics::new() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_trace::format;
    use rapid_trace::TraceBuilder;

    fn racy_trace(variable: &str, location_a: &str, location_b: &str) -> rapid_trace::Trace {
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

    fn detectors() -> Vec<Box<dyn Detector>> {
        vec![Box::new(rapid_wcp::WcpStream::new()), Box::new(rapid_hb::HbStream::new())]
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("rapid-driver-{}-{name}", std::process::id()))
    }

    #[test]
    fn mixed_encodings_merge_identically_across_job_counts() {
        // Two distinct racy shards, one as std text and one as binary .rwf:
        // the merged outcome is the union of both shards' race pairs, and is
        // identical for every worker count.
        let first = racy_trace("x", "A:1", "A:2");
        let second = racy_trace("y", "B:1", "B:2");
        let std_path = temp_path("mixed.std");
        let rwf_path = temp_path("mixed.rwf");
        std::fs::write(&std_path, format::write_std(&first)).expect("std shard writes");
        std::fs::write(&rwf_path, format::to_rwf_bytes(&second)).expect("rwf shard writes");
        let paths = vec![std_path.clone(), rwf_path.clone()];

        let reports: Vec<MultiReport> = [1usize, 2, 4]
            .iter()
            .map(|&jobs| {
                run_shards(&paths, detectors, &DriverConfig { jobs, ..DriverConfig::default() })
                    .expect("both shards parse")
            })
            .collect();
        std::fs::remove_file(&std_path).ok();
        std::fs::remove_file(&rwf_path).ok();

        for report in &reports {
            assert_eq!(report.shards.len(), 2);
            assert_eq!(report.shards[0].path, paths[0], "shards stay in input order");
            assert_eq!(report.shards[0].source, "text");
            assert_eq!(report.shards[1].source, "binary");
            assert_eq!(report.total_events(), first.len() + second.len());
            assert!(report.has_races());
            for run in &report.merged {
                assert_eq!(run.outcome.shards, 2);
                assert_eq!(run.outcome.distinct_pairs(), 2, "{}", run.outcome.detector);
            }
        }
        for report in &reports[1..] {
            for (left, right) in reports[0].merged.iter().zip(&report.merged) {
                assert_eq!(left.outcome, right.outcome, "jobs=N changed the merged outcome");
            }
        }
    }

    #[test]
    fn unlocated_shards_merge_positionally() {
        // Pins the documented caveat of name-keyed merging: shards logged
        // *without* locations get per-shard positional `line<N>` labels, so
        // two unrelated location-less shards with races at the same event
        // indices merge into ONE pair (race events summed).  Shards with
        // real locations keep their pairs separate (the mixed-encodings
        // test above).  If this assertion starts failing because synthetic
        // labels became shard-qualified, update the outcome module docs.
        let shard = temp_path("unlocated-a.std");
        let other = temp_path("unlocated-b.std");
        std::fs::write(&shard, "t1|w(x)\nt2|w(x)\n").unwrap();
        std::fs::write(&other, "t1|w(x)\nt2|w(x)\n").unwrap();
        let report = run_shards(
            &[shard.clone(), other.clone()],
            detectors,
            &DriverConfig { jobs: 2, ..DriverConfig::default() },
        )
        .expect("both shards parse");
        std::fs::remove_file(&shard).ok();
        std::fs::remove_file(&other).ok();
        for run in &report.merged {
            assert_eq!(run.outcome.distinct_pairs(), 1, "{}", run.outcome.detector);
            assert_eq!(run.outcome.race_events(), 2, "{}", run.outcome.detector);
            let pair = run.outcome.races.keys().next().expect("one pair");
            assert_eq!(
                (pair.first_location.as_str(), pair.second_location.as_str()),
                ("line1", "line2")
            );
        }
    }

    #[test]
    fn earliest_failing_shard_wins_deterministically() {
        let good = temp_path("good.std");
        let bad = temp_path("bad.std");
        std::fs::write(&good, format::write_std(&racy_trace("x", "A:1", "A:2"))).unwrap();
        std::fs::write(&bad, "t1|nonsense|A:1\n").unwrap();

        // The bad shard sits first: every job count reports it.
        let paths = vec![bad.clone(), good.clone()];
        for jobs in [1, 3] {
            let error =
                run_shards(&paths, detectors, &DriverConfig { jobs, ..DriverConfig::default() })
                    .expect_err("malformed shard fails the run");
            assert_eq!(error.path, bad);
        }
        // A missing shard also surfaces as a driver error, not a panic.
        let missing = temp_path("missing.std");
        let error = run_shards(
            std::slice::from_ref(&missing),
            detectors,
            &DriverConfig { jobs: 2, ..DriverConfig::default() },
        )
        .expect_err("missing shard fails the run");
        assert_eq!(error.path, missing);
        assert!(!error.to_string().is_empty());

        // Two failing shards: a slow one that fails only at its last line,
        // then a missing file that fails at once.  The earlier one in input
        // order wins, even when another worker hits its error first.
        let slow = temp_path("slow-bad.std");
        let mut slow_text = "t1|w(x)|A:1\n".repeat(40_000);
        slow_text.push_str("t1|nonsense|A:1\n");
        std::fs::write(&slow, slow_text).unwrap();
        let paths = vec![good.clone(), slow.clone(), missing];
        for jobs in [1, 3] {
            let error =
                run_shards(&paths, detectors, &DriverConfig { jobs, ..DriverConfig::default() })
                    .expect_err("failing shards fail the run");
            assert_eq!(error.path, slow, "jobs={jobs}");
        }
        std::fs::remove_file(&good).ok();
        std::fs::remove_file(&bad).ok();
        std::fs::remove_file(&slow).ok();
    }

    #[test]
    fn expand_shard_paths_walks_directories_sorted() {
        let dir = std::env::temp_dir().join(format!("rapid-expand-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Unsorted creation order, mixed case, one non-trace file, one
        // nested directory (not recursed into).
        for name in ["b.std", "a.RWF", "c.csv", "notes.txt"] {
            std::fs::write(dir.join(name), "").unwrap();
        }
        std::fs::create_dir_all(dir.join("nested")).unwrap();
        std::fs::write(dir.join("nested").join("d.std"), "").unwrap();

        let direct = PathBuf::from("direct.std");
        let expanded = expand_shard_paths(&[direct.clone(), dir.clone()]).unwrap();
        assert_eq!(
            expanded,
            vec![direct, dir.join("a.RWF"), dir.join("b.std"), dir.join("c.csv")],
            "files pass through, directories expand sorted, non-trace files are skipped"
        );

        // A directory with no trace files is an error, not an empty set.
        let empty = dir.join("nested2");
        std::fs::create_dir_all(&empty).unwrap();
        let error = expand_shard_paths(std::slice::from_ref(&empty)).unwrap_err();
        assert_eq!(error.path, empty);
        assert!(error.message.contains("no .rwf/.csv/.std"), "{}", error.message);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analyze_shard_reads_bytes_in_both_encodings() {
        // The remote path: shard bytes arrive over the wire, never touching
        // the filesystem.  Binary is detected by magic, text by flavour.
        let trace = racy_trace("x", "A:1", "A:2");
        let cases: [(Vec<u8>, &str); 2] = [
            (format::write_std(&trace).into_bytes(), "text"),
            (format::to_rwf_bytes(&trace), "binary"),
        ];
        for (bytes, expected_source) in cases {
            let run = analyze_shard(
                ShardInput::Bytes {
                    text: rapid_trace::format::TextFormat::Std,
                    bytes: Arc::new(bytes),
                },
                "remote-shard",
                detectors(),
            )
            .expect("bytes analyze");
            assert_eq!(run.source, expected_source);
            assert_eq!(run.events, trace.len());
            assert_eq!(run.path, PathBuf::from("remote-shard"));
            for detector_run in &run.runs {
                assert_eq!(detector_run.outcome.distinct_pairs(), 1);
            }
        }
        // Malformed bytes surface as a shard error carrying the label.
        let error = analyze_shard(
            ShardInput::Bytes {
                text: rapid_trace::format::TextFormat::Std,
                bytes: Arc::new(b"t1|nonsense|A:1\n".to_vec()),
            },
            "bad-shard",
            detectors(),
        )
        .unwrap_err();
        assert_eq!(error.path, PathBuf::from("bad-shard"));
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<usize> = (0..32).collect();
        let doubled = parallel_map(&items, 4, |&n| n * 2);
        assert_eq!(doubled, (0..32).map(|n| n * 2).collect::<Vec<_>>());
        // Degenerate cases: zero items, more jobs than items.
        assert!(parallel_map(&[] as &[usize], 4, |&n| n).is_empty());
        assert_eq!(parallel_map(&[7usize], 16, |&n| n + 1), vec![8]);
    }
}
