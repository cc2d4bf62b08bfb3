//! The worker side of the distributed driver: a TCP [`RemoteQueue`] that
//! claims leased shards and submits their results, with a bounded
//! content-addressed shard cache (grants whose bytes are resident answer
//! `HAVE` and skip the pull); the `engine work` loop, one claim →
//! [`analyze_shard`] → submit cycle per connection, so each grant is
//! answered before the next `LEASE`, with capped-exponential reconnect
//! backoff; and the `engine submit` client that opens named jobs, streams
//! shards as chunks, and fetches per-job reports.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rapid_trace::format::TextFormat;

use crate::detector::DetectorSpec;
use crate::driver::{analyze_shard, DriverError, ShardInput, ShardRun};
use crate::engine::DetectorRun;
use crate::outcome::Metrics;

use super::chaos::{ChaosConfig, ChaosStream, FaultPlan, RwpStream};
use super::coordinator::DEFAULT_JOB;
use super::proto::{self, ContentId, Incoming, Message, Role, WireRun};

/// How long a client keeps retrying the initial TCP connect — covers the
/// "worker started before the coordinator" race in scripts and CI.
const CONNECT_PATIENCE: Duration = Duration::from_secs(10);

/// How long a worker waits for the coordinator to answer a `LEASE` — a
/// resident coordinator legitimately holds the lease open while its
/// registry is idle, so this is generous; a worker whose wait expires
/// reconnects through its retry budget.
const LEASE_PATIENCE: Duration = Duration::from_secs(3600);

/// Handshake replies, by contrast, should be immediate.
const HANDSHAKE_PATIENCE: Duration = Duration::from_secs(30);

/// How long a receiver waits between chunks of a shard already being
/// streamed to it.
const CHUNK_PATIENCE: Duration = Duration::from_secs(60);

/// First step of the reconnect backoff ladder (doubles per consecutive
/// failure, capped by [`WorkConfig::retry_max_wait`]).
const BACKOFF_BASE: Duration = Duration::from_millis(250);

/// Effectively unbounded: the default wait for a report that arrives only
/// when the last shard completes.
const REPORT_PATIENCE: Duration = Duration::from_secs(7 * 24 * 3600);

fn connect_retry(addr: &str, patience: Duration) -> Result<TcpStream, String> {
    let deadline = Instant::now() + patience;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                // A short read timeout makes `expect_message` observe
                // `Idle` ticks between frames, so the patience deadlines
                // below can actually fire — a blocking read would wait on
                // a silently-dead coordinator forever.
                let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
                return Ok(stream);
            }
            Err(error) => {
                if Instant::now() >= deadline {
                    return Err(format!("cannot connect to {addr}: {error}"));
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

/// Connects and handshakes, returning the stream and the coordinator's
/// `WELCOME` parallelism hint.  Detector configuration is per job in v2 —
/// it arrives with each `GRANT`, not at the handshake.  `patience` bounds
/// both the connect retry window and the `WELCOME` wait; `write_timeout`
/// is the socket's (`None` blocks); `plan` wraps the connection in chaos
/// (tests/benches only, `None` in production).
fn handshake(
    addr: &str,
    role: Role,
    patience: Duration,
    write_timeout: Option<Duration>,
    plan: Option<FaultPlan>,
) -> Result<(RwpStream, u32), String> {
    let stream = connect_retry(addr, patience.min(CONNECT_PATIENCE))?;
    let _ = stream.set_write_timeout(write_timeout);
    let mut stream = match plan {
        Some(plan) => RwpStream::Chaos(ChaosStream::new(stream, plan)),
        None => RwpStream::Plain(stream),
    };
    proto::write_message(&mut stream, &Message::Hello { role })
        .map_err(|error| format!("{addr}: {error}"))?;
    match proto::expect_message(&mut stream, patience) {
        Ok(Message::Welcome { jobs_hint }) => Ok((stream, jobs_hint)),
        Ok(other) => Err(format!("{addr}: expected WELCOME, got {other:?}")),
        Err(error) => Err(format!("{addr}: {error}")),
    }
}

/// One leased shard: its `(job, shard)` address, its name, its bytes, and
/// the detector set its job runs.
#[derive(Debug)]
pub struct WorkItem {
    /// The job the shard belongs to.
    pub job: u32,
    /// The shard's index within its job — shard ids are only unique
    /// *within* a job.
    pub shard: u32,
    /// Display label: the coordinator's shard name.
    pub label: String,
    /// The shard's bytes.
    pub input: ShardInput,
    /// The job's detector set: every `GRANT` carries it, because different
    /// jobs run different detector sets over one worker fleet.
    pub spec: DetectorSpec,
}

/// What one worker connection processed, for summaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Shards successfully analyzed.
    pub shards: usize,
    /// Events across those shards.
    pub events: usize,
}

impl QueueStats {
    /// Accumulates another connection's stats.
    pub fn absorb(&mut self, other: QueueStats) {
        self.shards += other.shards;
        self.events += other.events;
    }
}

/// Analyzes one leased shard with a fresh detector set built from its
/// job's spec, counting it into `stats` when it succeeds.
fn analyze(item: WorkItem, stats: &mut QueueStats) -> Result<ShardRun, DriverError> {
    let result = item
        .spec
        .build()
        .map_err(|message| DriverError { path: PathBuf::from(&item.label), message })
        .and_then(|detectors| analyze_shard(item.input, &item.label, detectors));
    if let Ok(run) = &result {
        stats.shards += 1;
        stats.events += run.events;
    }
    result
}

/// A bounded worker-side byte cache keyed by shard *content identity* —
/// never by `(job, shard)` position, so a re-opened job whose bytes
/// changed misses while requeues and repeat submissions of unchanged
/// shards hit.  A grant whose content is resident answers `HAVE` instead
/// of pulling the chunk stream, so nothing re-crosses the wire.
/// Eviction is LRU by bytes; a budget of `0` disables the cache.
pub struct ShardCache {
    budget: usize,
    state: Mutex<CacheState>,
}

#[derive(Default)]
struct CacheState {
    entries: HashMap<ContentId, Arc<Vec<u8>>>,
    /// LRU order: front = coldest, back = most recently touched.
    order: VecDeque<ContentId>,
    bytes: usize,
}

impl ShardCache {
    /// An empty cache with `budget` bytes of capacity (0 disables it).
    pub fn new(budget: usize) -> Self {
        ShardCache { budget, state: Mutex::new(CacheState::default()) }
    }

    /// Looks a shard up by content id, marking it most-recently-used.
    pub fn get(&self, content: ContentId) -> Option<Arc<Vec<u8>>> {
        if self.budget == 0 {
            return None;
        }
        let mut state = self.state.lock().expect("shard cache poisoned");
        let bytes = state.entries.get(&content).cloned()?;
        if let Some(position) = state.order.iter().position(|&key| key == content) {
            state.order.remove(position);
            state.order.push_back(content);
        }
        Some(bytes)
    }

    /// Stores a shard's bytes under their content id, evicting coldest
    /// entries until the budget holds.  Oversized shards pass through
    /// uncached rather than wiping the whole cache for one tenant.
    pub fn put(&self, content: ContentId, bytes: Arc<Vec<u8>>) {
        if self.budget == 0 || bytes.len() > self.budget {
            return;
        }
        let mut state = self.state.lock().expect("shard cache poisoned");
        if state.entries.contains_key(&content) {
            return;
        }
        state.bytes += bytes.len();
        state.entries.insert(content, bytes);
        state.order.push_back(content);
        while state.bytes > self.budget {
            let Some(coldest) = state.order.pop_front() else { break };
            if let Some(evicted) = state.entries.remove(&coldest) {
                state.bytes -= evicted.len();
            }
        }
    }
}

/// A worker's connection to the coordinator: [`claim`](Self::claim) is a
/// `LEASE` round-trip (a `GRANT`, then `HAVE`/`PULL` decides whether chunks
/// stream), [`submit`](Self::submit) an `OUTCOME`/`FAILED` message.  One
/// connection per queue; a multi-threaded worker opens one queue per
/// thread so lease bookkeeping stays per-connection.
pub struct RemoteQueue {
    addr: String,
    stream: RwpStream,
    /// Override for both the lease wait and the chunk wait — chaos tests
    /// bound stall scenarios with it; `None` keeps the production
    /// [`LEASE_PATIENCE`]/[`CHUNK_PATIENCE`].
    patience: Option<Duration>,
    /// Shared shard cache (across connections and reconnect attempts);
    /// `None` pulls every grant.
    cache: Option<Arc<ShardCache>>,
}

impl RemoteQueue {
    /// Connects to a coordinator and handshakes as a worker.
    ///
    /// # Errors
    ///
    /// Connection or handshake failures, rendered.
    pub fn connect(addr: &str) -> Result<(Self, u32), String> {
        RemoteQueue::connect_with(addr, None, None)
    }

    /// [`connect`](Self::connect) with a patience override and an optional
    /// chaos plan on the connection (tests/benches only).
    ///
    /// # Errors
    ///
    /// Connection or handshake failures, rendered.
    pub fn connect_with(
        addr: &str,
        patience: Option<Duration>,
        plan: Option<FaultPlan>,
    ) -> Result<(Self, u32), String> {
        let handshake_patience = patience.map_or(HANDSHAKE_PATIENCE, |p| p.min(HANDSHAKE_PATIENCE));
        let (stream, jobs_hint) = handshake(addr, Role::Worker, handshake_patience, None, plan)?;
        let queue = RemoteQueue { addr: addr.to_owned(), stream, patience, cache: None };
        Ok((queue, jobs_hint))
    }

    /// Attaches a shard cache (shared across a worker's connections and
    /// reconnect attempts): grants whose content is resident answer
    /// `HAVE` and skip the chunk stream.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<ShardCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    fn transport_error(&self, message: String) -> DriverError {
        DriverError { path: PathBuf::from(&self.addr), message }
    }

    /// Claims the next shard; `Ok(None)` means the coordinator said `DONE`
    /// and the worker should stop.  `STALE` acks (the non-fatal answer to
    /// a result whose shard already folded elsewhere) are dropped while the
    /// grant is awaited.
    ///
    /// # Errors
    ///
    /// Transport failures, rendered against the coordinator's address.
    pub fn claim(&mut self) -> Result<Option<WorkItem>, DriverError> {
        proto::write_message(&mut self.stream, &Message::Lease)
            .map_err(|error| self.transport_error(error.to_string()))?;
        let lease_patience = self.patience.unwrap_or(LEASE_PATIENCE);
        let chunk_patience = self.patience.unwrap_or(CHUNK_PATIENCE);
        let deadline = Instant::now() + lease_patience;
        loop {
            match proto::read_message(&mut self.stream) {
                Ok(Incoming::Message(Message::Grant {
                    job,
                    shard,
                    name,
                    text,
                    spec,
                    chunks,
                    content,
                })) => {
                    if let Some(cached) = self.cache.as_ref().and_then(|cache| cache.get(content)) {
                        proto::write_message(&mut self.stream, &Message::Have { job, shard })
                            .map_err(|error| self.transport_error(error.to_string()))?;
                        return Ok(Some(WorkItem {
                            job,
                            shard,
                            label: name,
                            input: ShardInput::Bytes { text, bytes: cached },
                            spec,
                        }));
                    }
                    proto::write_message(&mut self.stream, &Message::Pull { job, shard })
                        .map_err(|error| self.transport_error(error.to_string()))?;
                    let bytes =
                        proto::read_chunks(&mut self.stream, job, shard, chunks, chunk_patience)
                            .map_err(|error| self.transport_error(error.to_string()))?;
                    // The grant's content id gates the cache: bytes that
                    // do not match it must never enter under that key —
                    // and a coordinator shipping different bytes than it
                    // granted is a transport fault regardless.
                    let received = ContentId::of(&bytes);
                    if received != content {
                        return Err(self.transport_error(format!(
                            "granted shard {content} but received {received}"
                        )));
                    }
                    let bytes = Arc::new(bytes);
                    if let Some(cache) = &self.cache {
                        cache.put(content, Arc::clone(&bytes));
                    }
                    return Ok(Some(WorkItem {
                        job,
                        shard,
                        label: name,
                        input: ShardInput::Bytes { text, bytes },
                        spec,
                    }));
                }
                Ok(Incoming::Message(Message::Done)) => return Ok(None),
                Ok(Incoming::Message(Message::Stale { .. })) => {}
                Ok(Incoming::Message(other)) => {
                    return Err(
                        self.transport_error(format!("expected GRANT or DONE, got {other:?}"))
                    );
                }
                Ok(Incoming::Idle) => {
                    if Instant::now() >= deadline {
                        return Err(self.transport_error(format!(
                            "timed out after {lease_patience:?} waiting for GRANT"
                        )));
                    }
                }
                Ok(Incoming::Eof) => {
                    return Err(self
                        .transport_error("connection closed while waiting for GRANT".to_owned()));
                }
                Err(error) => return Err(self.transport_error(error.to_string())),
            }
        }
    }

    /// Returns one claimed shard's result (or its analysis error) to the
    /// coordinator.
    ///
    /// # Errors
    ///
    /// Transport failures, rendered against the coordinator's address.
    pub fn submit(
        &mut self,
        job: u32,
        shard: u32,
        result: Result<ShardRun, DriverError>,
    ) -> Result<(), DriverError> {
        let message = match result {
            Ok(run) => Message::Outcome {
                job,
                shard,
                events: run.events as u64,
                wall_nanos: run.wall.as_nanos() as u64,
                runs: run
                    .runs
                    .into_iter()
                    .map(|run| WireRun {
                        time_nanos: run.time.as_nanos() as u64,
                        outcome: run.outcome,
                    })
                    .collect(),
            },
            Err(error) => Message::Failed { job, shard, message: error.message },
        };
        proto::write_message(&mut self.stream, &message)
            .map_err(|error| self.transport_error(error.to_string()))
    }
}

/// The worker loop: claim a shard, analyze it, submit the result, until
/// the coordinator says `DONE`.  Each grant is answered before the next
/// `LEASE` goes out (PROTOCOL.md §2.1).
fn drive(queue: &mut RemoteQueue) -> Result<QueueStats, DriverError> {
    let mut stats = QueueStats::default();
    while let Some(item) = queue.claim()? {
        let (job, shard) = (item.job, item.shard);
        queue.submit(job, shard, analyze(item, &mut stats))?;
    }
    Ok(stats)
}

/// Configuration of one `engine work` invocation.
#[derive(Debug, Clone)]
pub struct WorkConfig {
    /// Worker threads (= connections); `None` falls back to the
    /// coordinator's hint, then this machine's parallelism.
    pub jobs: Option<usize>,
    /// How many times to reconnect after the coordinator refuses a
    /// connection or drops one mid-lease, with capped exponential backoff
    /// between attempts.  The counter resets whenever an attempt makes
    /// progress (processes at least one shard).
    pub retries: u32,
    /// Upper bound on one backoff sleep.
    pub retry_max_wait: Duration,
    /// Override for the lease/chunk waits — chaos tests bound stall
    /// scenarios with it; `None` keeps the production patience.
    pub patience: Option<Duration>,
    /// Shard cache budget in bytes, shared across this invocation's
    /// connections *and* reconnect attempts (LRU by content id); 0
    /// disables caching and every grant pulls its chunks.
    pub cache_bytes: usize,
    /// Test/bench-only fault injection on this worker's connections
    /// (default off).  Connections are numbered 0, 1, … across reconnect
    /// attempts, so a schedule can hit the first connection and spare the
    /// retry.
    pub chaos: ChaosConfig,
}

impl Default for WorkConfig {
    /// No reconnects (fail fast — the library default; the CLI layers its
    /// own default of 3 retries on top), 30-second backoff cap, no cache
    /// (the CLI defaults to 64 MiB).
    fn default() -> Self {
        WorkConfig {
            jobs: None,
            retries: 0,
            retry_max_wait: Duration::from_secs(30),
            patience: None,
            cache_bytes: 0,
            chaos: ChaosConfig::default(),
        }
    }
}

/// The capped exponential ladder: 250ms, 500ms, 1s, … up to `max`.
fn backoff_wait(failures: u32, max: Duration) -> Duration {
    BACKOFF_BASE.saturating_mul(1u32 << failures.saturating_sub(1).min(16)).min(max)
}

/// What one `engine work` invocation processed.
#[derive(Debug, Clone)]
pub struct WorkSummary {
    /// Worker threads (= connections) used.
    pub jobs: usize,
    /// Shards and events across all threads and reconnect attempts.
    pub stats: QueueStats,
}

/// One connection-fleet attempt: `jobs` threads, each with its own
/// connection, running the worker loop until `DONE` or a transport
/// failure.  Returns the thread count used, the stats accumulated, and
/// whether every thread ended cleanly (coordinator said `DONE`).
fn work_attempt(
    addr: &str,
    config: &WorkConfig,
    conn_seq: &AtomicU64,
    cache: Option<&Arc<ShardCache>>,
) -> Result<(usize, QueueStats, bool), String> {
    // Probe handshake: learn the coordinator's parallelism hint before
    // deciding the thread count (and fail fast if it is unreachable).  The
    // probe stays clean — chaos plans are spent on the connections that
    // actually lease, keeping seeded schedules deterministic — but honours
    // the patience override so bounded-patience runs also bound their
    // connect window.
    let (probe, jobs_hint) = RemoteQueue::connect_with(addr, config.patience, None)?;
    drop(probe);
    let jobs = config
        .jobs
        .or(if jobs_hint > 0 { Some(jobs_hint as usize) } else { None })
        .unwrap_or_else(crate::driver::available_jobs)
        .max(1);

    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let total: Mutex<QueueStats> = Mutex::new(QueueStats::default());
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| {
                let run = || -> Result<QueueStats, String> {
                    let plan = config.chaos.plan_for(conn_seq.fetch_add(1, Ordering::Relaxed));
                    let (queue, _) = RemoteQueue::connect_with(addr, config.patience, plan)?;
                    let mut queue = match cache {
                        Some(cache) => queue.with_cache(Arc::clone(cache)),
                        None => queue,
                    };
                    drive(&mut queue).map_err(|error| error.to_string())
                };
                match run() {
                    Ok(stats) => total.lock().expect("stats poisoned").absorb(stats),
                    Err(error) => errors.lock().expect("errors poisoned").push(error),
                }
            });
        }
    });

    let errors = errors.into_inner().expect("errors poisoned");
    let stats = total.into_inner().expect("stats poisoned");
    if !errors.is_empty() && stats.shards == 0 && errors.len() == jobs {
        // Every thread failed without processing anything — surface it as
        // an attempt failure so the retry ladder can reconnect.
        return Err(errors.join("; "));
    }
    Ok((jobs, stats, errors.is_empty()))
}

/// Runs a worker against the coordinator at `addr` until the service
/// drains (`DONE`), reconnecting through `config.retries` attempts with
/// capped exponential backoff when the coordinator refuses a connection or
/// drops one mid-lease.  Stats accumulate across attempts.
///
/// # Errors
///
/// Connection, handshake, or transport failures once the retry budget is
/// spent — and only if *nothing* was accomplished; a worker that processed
/// shards before losing its coordinator reports success (the coordinator
/// has already requeued whatever it still owed).
pub fn work(addr: &str, config: &WorkConfig) -> Result<WorkSummary, String> {
    let mut summary = WorkSummary { jobs: 0, stats: QueueStats::default() };
    let mut failures = 0u32;
    // Numbers this invocation's leasing connections 0, 1, … across all
    // attempts, so a chaos schedule addresses them deterministically.
    let conn_seq = AtomicU64::new(0);
    // One cache for the whole invocation: connections share it, and a
    // reconnect attempt re-HAVEs what the dropped connection pulled.
    let cache = (config.cache_bytes > 0).then(|| Arc::new(ShardCache::new(config.cache_bytes)));
    loop {
        let error = match work_attempt(addr, config, &conn_seq, cache.as_ref()) {
            Ok((jobs, stats, clean)) => {
                summary.jobs = summary.jobs.max(jobs);
                let progressed = stats.shards > 0;
                summary.stats.absorb(stats);
                if clean {
                    return Ok(summary);
                }
                if progressed {
                    failures = 0;
                }
                format!("{addr}: connection dropped mid-lease")
            }
            Err(error) => error,
        };
        failures += 1;
        if failures > config.retries {
            if summary.stats.shards == 0 {
                return Err(error);
            }
            summary.jobs = summary.jobs.max(1);
            return Ok(summary);
        }
        std::thread::sleep(backoff_wait(failures, config.retry_max_wait));
    }
}

/// The write timeout of a submit connection with a
/// [`SubmitConfig::timeout`]: a write the coordinator does not drain
/// returns this often, so the upload's deadline is checked.
const UPLOAD_POLL: Duration = Duration::from_millis(500);

/// The upload side of a submit: with a deadline, every write fails once
/// it has passed.  `proto`'s writes retry a timed-out write up to 240
/// times, so a coordinator that stops reading would otherwise hold the
/// upload for minutes, or forever on a socket without a write timeout.
struct Deadlined<'a> {
    stream: &'a mut RwpStream,
    deadline: Option<Instant>,
}

impl io::Write for Deadlined<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.deadline.is_some_and(|deadline| Instant::now() >= deadline) {
            return Err(io::Error::other("the shard upload did not finish within the timeout"));
        }
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

/// Configuration of one `engine submit` invocation.
#[derive(Debug, Clone)]
pub struct SubmitConfig {
    /// The job to open (with `paths`) or fetch (without); `None` fetches
    /// the coordinator's [`DEFAULT_JOB`] (the files `engine serve` was
    /// given).
    pub job: Option<String>,
    /// Shard files to stream into a newly-opened job.  Empty means
    /// "report-only": fetch the named job's report.
    pub paths: Vec<PathBuf>,
    /// The detector set the opened job runs.
    pub spec: DetectorSpec,
    /// Text flavour override; `None` decides per shard by file extension.
    pub text: Option<TextFormat>,
    /// Give up (exit with an error) if the handshake, the shard upload or
    /// the report each takes longer than this; `None` waits effectively
    /// forever.
    pub timeout: Option<Duration>,
    /// Payload size of the `SHARD_CHUNK` frames streamed to the
    /// coordinator.
    pub chunk_len: usize,
    /// Test/bench-only fault injection on the submit connection (default
    /// off).
    pub chaos: ChaosConfig,
}

impl Default for SubmitConfig {
    /// Report-only fetch of the default job, default detectors, no
    /// timeout.
    fn default() -> Self {
        SubmitConfig {
            job: None,
            paths: Vec::new(),
            spec: DetectorSpec::default(),
            text: None,
            timeout: None,
            chunk_len: proto::CHUNK_LEN,
            chaos: ChaosConfig::default(),
        }
    }
}

/// The merged report of one job as fetched by `engine submit`.
#[derive(Debug, Clone)]
pub struct SubmitReport {
    /// Distinct workers that contributed results.
    pub workers: usize,
    /// Shards folded into the report.
    pub shards: usize,
    /// Total events across all shards.
    pub events: usize,
    /// Job wall-clock from open to completion.
    pub wall: Duration,
    /// Merged per-detector results, in registration order — the same values
    /// a local `run_shards` over the same shards produces.
    pub merged: Vec<DetectorRun>,
    /// Job-level scheduling telemetry from the coordinator
    /// (`bytes_transferred`, `cache_hits`, `leases_stolen`) — kept beside
    /// the merged outcomes, never inside them, so they stay comparable to
    /// a local run's.
    pub scheduling: Metrics,
}

fn report_from_reply(
    addr: &str,
    reply: Result<Message, proto::ProtoError>,
) -> Result<SubmitReport, String> {
    match reply {
        Ok(Message::Report { workers, shards, events, wall_nanos, runs, scheduling }) => {
            Ok(SubmitReport {
                workers: workers as usize,
                shards: shards as usize,
                events: events as usize,
                wall: Duration::from_nanos(wall_nanos),
                merged: runs
                    .into_iter()
                    .map(|run| DetectorRun {
                        outcome: run.outcome,
                        time: Duration::from_nanos(run.time_nanos),
                    })
                    .collect(),
                scheduling,
            })
        }
        Ok(Message::Error { message }) => Err(message),
        Ok(other) => Err(format!("{addr}: expected REPORT, got {other:?}")),
        Err(error) => Err(format!("{addr}: {error}")),
    }
}

/// Submits work to the resident coordinator at `addr` and waits for the
/// job's merged report.  With `paths`, a new job named `config.job` is
/// opened, every shard file is streamed as chunks, and the job is closed;
/// without, the named (or default) job's report is fetched.  Either way
/// the coordinator keeps serving afterwards — shutting it down is
/// [`shutdown`]'s business.
///
/// # Errors
///
/// Connection failures, a timeout ([`SubmitConfig::timeout`]), the
/// coordinator's rejection (duplicate job name, draining service), or the
/// job's own failure (earliest failing shard, like the local driver).
pub fn submit(addr: &str, config: &SubmitConfig) -> Result<SubmitReport, String> {
    // `--timeout` bounds every wait of the submit conversation, not just
    // the report: the connect window, the WELCOME wait and the JOB_ACCEPT
    // wait all take the tighter of the handshake default and the caller's
    // timeout, so a coordinator that accepts TCP but never answers fails
    // within the budget instead of hanging on the 30-second default.  The
    // upload gets the timeout too (see `Deadlined`).
    let handshake_patience =
        config.timeout.map_or(HANDSHAKE_PATIENCE, |t| t.min(HANDSHAKE_PATIENCE));
    let write_timeout = config.timeout.map(|_| UPLOAD_POLL);
    let (mut stream, _) =
        handshake(addr, Role::Submit, handshake_patience, write_timeout, config.chaos.plan_for(0))?;
    let patience = config.timeout.unwrap_or(REPORT_PATIENCE);
    if config.paths.is_empty() {
        let name = config.job.clone().unwrap_or_else(|| DEFAULT_JOB.to_owned());
        proto::write_message(&mut stream, &Message::Fetch { name })
            .map_err(|error| format!("{addr}: {error}"))?;
        return report_from_reply(addr, proto::expect_message(&mut stream, patience));
    }

    let name = config
        .job
        .clone()
        .ok_or_else(|| "submitting shard files requires a job name".to_owned())?;
    let open =
        Message::JobOpen { name, spec: config.spec.clone(), shards: config.paths.len() as u32 };
    proto::write_message(&mut stream, &open).map_err(|error| format!("{addr}: {error}"))?;
    let job = match proto::expect_message(&mut stream, handshake_patience) {
        Ok(Message::JobAccept { job }) => job,
        Ok(Message::Error { message }) => return Err(message),
        Ok(other) => return Err(format!("{addr}: expected JOB_ACCEPT, got {other:?}")),
        Err(error) => return Err(format!("{addr}: {error}")),
    };

    let chunk_len = config.chunk_len.max(1);
    let mut upload =
        Deadlined { stream: &mut stream, deadline: config.timeout.map(|t| Instant::now() + t) };
    for (index, path) in config.paths.iter().enumerate() {
        let bytes = std::fs::read(path)
            .map_err(|error| format!("cannot read {}: {error}", path.display()))?;
        let header = Message::ShardOpen {
            job,
            shard: index as u32,
            name: path.display().to_string(),
            text: config.text.unwrap_or_else(|| TextFormat::from_path(path)),
            chunks: proto::chunk_count(bytes.len() as u64, chunk_len),
        };
        proto::write_message(&mut upload, &header).map_err(|error| format!("{addr}: {error}"))?;
        proto::write_chunks(&mut upload, job, index as u32, &bytes, chunk_len)
            .map_err(|error| format!("{addr}: {error}"))?;
    }
    proto::write_message(&mut upload, &Message::JobClose { job })
        .map_err(|error| format!("{addr}: {error}"))?;
    // The report arrives when the job's last shard completes —
    // indefinitely far in the future for a big workload, so the wait is
    // effectively unbounded unless the caller set a timeout.
    report_from_reply(addr, proto::expect_message(&mut stream, patience))
}

/// Asks the coordinator at `addr` to drain gracefully: finish closed jobs,
/// reject new ones, then exit.  Returns once the coordinator acknowledges
/// (it may keep running until in-flight jobs complete).
///
/// # Errors
///
/// Connection or handshake failures, or a reply other than `DONE`.
pub fn shutdown(addr: &str) -> Result<(), String> {
    let (mut stream, _) = handshake(addr, Role::Submit, HANDSHAKE_PATIENCE, None, None)?;
    proto::write_message(&mut stream, &Message::Shutdown)
        .map_err(|error| format!("{addr}: {error}"))?;
    match proto::expect_message(&mut stream, HANDSHAKE_PATIENCE) {
        Ok(Message::Done) => Ok(()),
        Ok(other) => Err(format!("{addr}: expected DONE, got {other:?}")),
        Err(error) => Err(format!("{addr}: {error}")),
    }
}
