//! The coordinator: a resident, multi-tenant detection service.  It owns a
//! registry of named jobs, leases their shards to TCP workers, requeues
//! work from dead workers, and folds each job's incoming outcomes through
//! the same merge path as a local `jobs = N` run — answering `REPORT` per
//! job without shutting the service down.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use rapid_trace::format::TextFormat;

use crate::detector::DetectorSpec;
use crate::driver::{fold_runs, DriverError, MultiReport, ShardRun};
use crate::engine::DetectorRun;

use super::proto::{self, ContentId, Incoming, Message, Role, WireRun};

use crate::outcome::Metrics;

/// The name under which `engine serve FILES…` registers its shard files
/// (read once, at bind), and the job a bare `engine submit` (no `--job`)
/// fetches.
pub const DEFAULT_JOB: &str = "default";

/// Upper bound on one job's declared shard count (guards a hostile
/// `JOB_OPEN` against pre-allocating unbounded slot vectors).
pub const MAX_JOB_SHARDS: u32 = 1 << 20;

/// How long the coordinator waits between chunks of a shard a client is
/// actively streaming before declaring the connection dead.
const STREAM_PATIENCE: Duration = Duration::from_secs(60);

/// Configuration of one [`Coordinator`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to listen on (e.g. `127.0.0.1:7471`; port 0 picks a free
    /// port, exposed via [`Coordinator::local_addr`]).
    pub bind: String,
    /// The detector set of the pre-registered [`DEFAULT_JOB`] (the shard
    /// files passed to [`Coordinator::bind`]).  Jobs opened over the wire
    /// carry their own spec.
    pub spec: DetectorSpec,
    /// Text flavour override for the default job's shards; `None` decides
    /// per shard by file extension.
    pub text: Option<TextFormat>,
    /// Parallelism hint advertised to workers (0 = let workers decide).
    pub jobs_hint: u32,
    /// How long a leased shard may stay unacknowledged before it is
    /// requeued for another worker.
    pub lease_timeout: Duration,
    /// Payload size of the `SHARD_CHUNK` frames the coordinator sends to
    /// workers (tests use tiny values to force multi-chunk transfers).
    pub chunk_len: usize,
    /// One-shot mode: begin a graceful drain after the first report is
    /// answered — the v1 `serve` semantics.
    pub once: bool,
    /// Straggler re-leasing: when the queue is dry and a worker goes idle,
    /// an in-flight lease older than this is speculatively re-granted to
    /// the idle worker (MapReduce-style backup task) — first result wins,
    /// the loser gets a non-fatal `STALE` ack, and the stolen shard is
    /// excluded from bouncing back to its straggler.  `None` (the
    /// default) disables speculation.
    pub speculate_after: Option<Duration>,
}

impl Default for ServeConfig {
    /// Bind an ephemeral localhost port, WCP + HB, 60-second leases,
    /// resident (not one-shot).
    fn default() -> Self {
        ServeConfig {
            bind: "127.0.0.1:0".to_owned(),
            spec: DetectorSpec::default(),
            text: None,
            jobs_hint: 0,
            lease_timeout: Duration::from_secs(60),
            chunk_len: proto::CHUNK_LEN,
            once: false,
            speculate_after: None,
        }
    }
}

/// What one completed (or aborted) job produced.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job's name.
    pub name: String,
    /// The merged report, shaped exactly like a local [`run_shards`]
    /// result (`jobs` carries the number of distinct workers that
    /// contributed), or the job's failure: the earliest failing shard in
    /// input order, or an abort message if the service drained before the
    /// job was closed.
    ///
    /// [`run_shards`]: crate::driver::run_shards
    pub result: Result<MultiReport, String>,
}

/// What a full serve run produced: every job the service answered, in the
/// order they were opened.
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Per-job outcomes, in job-open order.
    pub jobs: Vec<JobOutcome>,
}

/// One shard as the coordinator stores it: the bytes registered for it —
/// read at bind for the default job, streamed by `SHARD_OPEN` otherwise —
/// which every lease ships unchanged.
struct ShardMeta {
    name: String,
    text: TextFormat,
    /// `None` once the job completed: a complete job is never granted
    /// again, so its bytes are dropped.
    bytes: Option<Arc<Vec<u8>>>,
    /// Content identity (length + CRC-32), computed once, when the shard
    /// is registered.  Drives rendezvous placement, LPT ordering and the
    /// worker-side cache key.
    content: ContentId,
}

impl ShardMeta {
    fn new(name: String, text: TextFormat, bytes: Vec<u8>) -> Self {
        let content = ContentId::of(&bytes);
        ShardMeta { name, text, bytes: Some(Arc::new(bytes)), content }
    }
}

/// An outstanding lease.
struct Lease {
    worker: u64,
    deadline: Instant,
    /// When the lease was granted — the straggler clock speculation reads.
    granted: Instant,
}

/// Per-job scheduling telemetry, folded into the job's report.
#[derive(Debug, Clone, Copy, Default)]
struct SchedStats {
    /// Shard bytes actually shipped to workers (`PULL`ed chunk streams;
    /// `HAVE` answers move nothing and count as cache hits instead).
    bytes_transferred: u64,
    /// Grants answered with `HAVE` — transfers the worker cache saved.
    cache_hits: u64,
    /// Speculative re-leases of in-flight shards to idle workers.
    leases_stolen: u64,
}

impl SchedStats {
    fn to_metrics(self) -> Metrics {
        let mut metrics = Metrics::new();
        metrics.record_sum("bytes_transferred", self.bytes_transferred as f64);
        metrics.record_sum("cache_hits", self.cache_hits as f64);
        metrics.record_sum("leases_stolen", self.leases_stolen as f64);
        metrics
    }
}

/// One named job: its spec, its shard slots, and its queue bookkeeping.
struct Job {
    name: String,
    spec: DetectorSpec,
    /// How many shards the job declared at open; shard ids are `0..declared`.
    declared: u32,
    /// Shard slots, filled as shards are registered.
    shards: Vec<Option<ShardMeta>>,
    /// Filled shard slots (`== declared` before the job may close).
    streamed: u32,
    /// Still accepting `SHARD_OPEN`s; a job folds only once closed.
    open: bool,
    /// Set when a drain kills the job before its client closed it.
    aborted: Option<String>,
    /// Shard indices awaiting a lease.
    pending: VecDeque<usize>,
    /// Outstanding leases by shard index.
    leases: HashMap<usize, Lease>,
    /// Workers that already failed (or timed out on) a shard — keeps a
    /// shard from bouncing straight back to the worker it was reclaimed
    /// from.
    excluded: HashMap<usize, HashSet<u64>>,
    /// Completed results, slotted by shard index.
    results: Vec<Option<Result<ShardRun, DriverError>>>,
    completed: u32,
    /// Workers that contributed at least one accepted result.
    contributors: HashSet<u64>,
    /// Scheduling telemetry, reported with the job's fold.
    stats: SchedStats,
    started: Instant,
    finished: Option<Instant>,
}

impl Job {
    fn new(name: String, spec: DetectorSpec, declared: u32) -> Self {
        Job {
            name,
            spec,
            declared,
            shards: (0..declared).map(|_| None).collect(),
            streamed: 0,
            open: true,
            aborted: None,
            pending: VecDeque::new(),
            leases: HashMap::new(),
            excluded: HashMap::new(),
            results: (0..declared).map(|_| None).collect(),
            completed: 0,
            contributors: HashSet::new(),
            stats: SchedStats::default(),
            started: Instant::now(),
            finished: None,
        }
    }

    /// A job is complete once it can never produce more results: aborted,
    /// or closed with every shard accounted for.
    fn is_complete(&self) -> bool {
        self.aborted.is_some() || (!self.open && self.completed == self.declared)
    }

    /// Stamps the job's end and drops its shard bytes.  Names, content
    /// ids and results stay: reports, `STALE` acks and the fold need
    /// nothing else, so a resident coordinator holds no bytes for
    /// finished jobs.
    fn finish(&mut self) {
        self.finished = Some(Instant::now());
        for meta in self.shards.iter_mut().flatten() {
            meta.bytes = None;
        }
    }

    /// The display name of a shard, for error paths (falls back to the
    /// index if the slot was never streamed — which a granted lease rules
    /// out).
    fn shard_name(&self, shard: usize) -> String {
        match self.shards.get(shard).and_then(Option::as_ref) {
            Some(meta) => meta.name.clone(),
            None => format!("shard {shard}"),
        }
    }

    /// Folds the job's results exactly like the local driver: earliest
    /// failing shard in input order wins; otherwise [`fold_runs`] merges
    /// in input order.
    fn fold(&self) -> Result<MultiReport, String> {
        if let Some(message) = &self.aborted {
            return Err(message.clone());
        }
        if !self.is_complete() {
            return Err(format!("job {} did not complete", self.name));
        }
        let mut shards = Vec::with_capacity(self.declared as usize);
        for slot in &self.results {
            match slot.as_ref().expect("fold runs only after completion") {
                Ok(run) => shards.push(run.clone()),
                Err(error) => return Err(format!("cannot analyze {error}")),
            }
        }
        let merged = fold_runs(&shards);
        let wall = match self.finished {
            Some(finished) => finished.duration_since(self.started),
            None => self.started.elapsed(),
        };
        Ok(MultiReport {
            jobs: self.contributors.len(),
            shards,
            merged,
            wall,
            scheduling: self.stats.to_metrics(),
        })
    }
}

/// The job registry plus the service-level lifecycle flags.
#[derive(Default)]
struct Registry {
    /// Jobs by id.  A `BTreeMap` so worker claims scan jobs in open order —
    /// deterministic, and earlier jobs drain first under contention.
    jobs: BTreeMap<u32, Job>,
    by_name: HashMap<String, u32>,
    next_id: u32,
    /// No new jobs; finish closed ones, abort open ones, then exit.
    draining: bool,
    /// The accept loop should stop.
    shutdown: bool,
    /// Workers whose lease expired while their connection stayed silent —
    /// the half-open suspects.  A connection in this set that is *still*
    /// silent at its next idle poll is closed; any message from it clears
    /// the suspicion (it was merely slow, not half-open).
    stale_workers: HashSet<u64>,
    /// Connected worker connections — the rendezvous-hash ring placement
    /// scores shards against.
    workers: HashSet<u64>,
}

impl Registry {
    fn all_complete(&self) -> bool {
        self.jobs.values().all(Job::is_complete)
    }
}

/// Splitmix64's finalizer: the mixer behind the rendezvous scores.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The highest-random-weight score of `(shard content, worker)` — each
/// worker independently hashes every shard, and a shard "belongs" to the
/// worker scoring highest.  Adding or removing one worker reassigns only
/// the shards that hashed to it (the rendezvous property), so a fleet
/// change never invalidates every worker's cache at once.
fn hrw_score(content: ContentId, worker: u64) -> u64 {
    mix64(content.mix_key() ^ worker.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The worker the ring places `content` on, if any are connected (ties
/// break toward the lower connection id, so the choice is deterministic).
fn hrw_owner(content: ContentId, workers: &HashSet<u64>) -> Option<u64> {
    workers
        .iter()
        .copied()
        .max_by_key(|&worker| (hrw_score(content, worker), std::cmp::Reverse(worker)))
}

/// Pass 1 of shard selection: the first job (in open order) with pending
/// work `worker` has not already failed; rendezvous-placed shards first,
/// then the largest remaining content (LPT), ties toward the smallest
/// shard index.
fn pick_pending(reg: &Registry, worker: u64) -> Option<(u32, usize)> {
    for (&job_id, job) in &reg.jobs {
        let candidates: Vec<(usize, ContentId)> = job
            .pending
            .iter()
            .filter(|shard| !job.excluded.get(shard).is_some_and(|set| set.contains(&worker)))
            .filter_map(|&shard| {
                job.shards.get(shard).and_then(Option::as_ref).map(|meta| (shard, meta.content))
            })
            .collect();
        if candidates.is_empty() {
            continue;
        }
        let placed: Vec<(usize, ContentId)> = candidates
            .iter()
            .copied()
            .filter(|&(_, content)| hrw_owner(content, &reg.workers) == Some(worker))
            .collect();
        let pool = if placed.is_empty() { &candidates } else { &placed };
        let best = pool
            .iter()
            .max_by_key(|&&(shard, content)| (content.len, std::cmp::Reverse(shard)))
            .map(|&(shard, _)| shard);
        if let Some(shard) = best {
            return Some((job_id, shard));
        }
    }
    None
}

/// Pass 2 of shard selection: progress beats placement — any pending
/// shard at all, rather than deadlocking when only "excluded" work
/// remains.
fn pick_any_pending(reg: &Registry) -> Option<(u32, usize)> {
    reg.jobs.iter().find_map(|(&id, job)| job.pending.front().map(|&shard| (id, shard)))
}

/// What one claim poll produced.
enum ClaimWait {
    /// A shard was leased to the claiming worker.
    Granted {
        /// The granting job.
        job: u32,
        /// The leased shard's index.
        shard: usize,
    },
    /// The service is drained (or shutting down): answer `DONE`.
    Drained,
    /// Nothing to lease right now; poll the socket and try again.
    Empty,
}

struct Shared {
    jobs_hint: u32,
    lease_timeout: Duration,
    chunk_len: usize,
    once: bool,
    speculate_after: Option<Duration>,
    local_addr: SocketAddr,
    state: Mutex<Registry>,
    cond: Condvar,
}

impl Shared {
    /// Requeues every lease whose deadline has passed, across all jobs,
    /// and marks each forfeiting worker as a half-open suspect: its
    /// connection may be dead without a FIN ever arriving, so its idle
    /// poll closes it unless a message clears the suspicion first.
    /// Called with the state lock held.
    fn reclaim_expired(&self, reg: &mut Registry, now: Instant) {
        let mut forfeited = Vec::new();
        for job in reg.jobs.values_mut() {
            let expired: Vec<usize> = job
                .leases
                .iter()
                .filter(|(_, lease)| lease.deadline <= now)
                .map(|(&shard, _)| shard)
                .collect();
            for shard in expired {
                let lease = job.leases.remove(&shard).expect("collected above");
                job.excluded.entry(shard).or_default().insert(lease.worker);
                job.pending.push_front(shard);
                forfeited.push(lease.worker);
            }
        }
        reg.stale_workers.extend(forfeited);
    }

    /// True when `worker`'s lease expired and nothing has been heard from
    /// it since — the half-open-connection verdict its idle poll acts on.
    fn is_stale(&self, worker: u64) -> bool {
        self.state.lock().expect("coordinator state poisoned").stale_workers.contains(&worker)
    }

    /// Adds a worker connection to the rendezvous ring.
    fn register_worker(&self, worker: u64) {
        self.state.lock().expect("coordinator state poisoned").workers.insert(worker);
    }

    /// Drops a worker connection from the rendezvous ring.
    fn unregister_worker(&self, worker: u64) {
        self.state.lock().expect("coordinator state poisoned").workers.remove(&worker);
    }

    /// Records shard bytes actually streamed to a worker for `job_id`.
    fn note_transfer(&self, job_id: u32, bytes: u64) {
        let mut reg = self.state.lock().expect("coordinator state poisoned");
        if let Some(job) = reg.jobs.get_mut(&job_id) {
            job.stats.bytes_transferred += bytes;
        }
    }

    /// Records one `HAVE` answer — a transfer the worker cache saved.
    fn note_cache_hit(&self, job_id: u32) {
        let mut reg = self.state.lock().expect("coordinator state poisoned");
        if let Some(job) = reg.jobs.get_mut(&job_id) {
            job.stats.cache_hits += 1;
        }
    }

    /// Clears a worker's half-open suspicion: it sent a message, so the
    /// connection is alive (it was slow, not dead).
    fn mark_active(&self, worker: u64) {
        self.state.lock().expect("coordinator state poisoned").stale_workers.remove(&worker);
    }

    /// Requeues any shard leased to `worker` — the dead-worker path, taken
    /// the moment a worker connection drops with a lease outstanding.
    fn requeue_worker(&self, worker: u64) {
        let mut reg = self.state.lock().expect("coordinator state poisoned");
        reg.stale_workers.remove(&worker);
        let mut requeued = false;
        for job in reg.jobs.values_mut() {
            let held: Vec<usize> = job
                .leases
                .iter()
                .filter(|(_, lease)| lease.worker == worker)
                .map(|(&shard, _)| shard)
                .collect();
            for shard in held {
                job.leases.remove(&shard);
                job.excluded.entry(shard).or_default().insert(worker);
                job.pending.push_front(shard);
                requeued = true;
            }
        }
        if requeued {
            self.cond.notify_all();
        }
    }

    /// One non-blocking claim attempt for `worker`: reclaims expired
    /// leases, then picks a shard — rendezvous-preferred, LPT-ordered —
    /// or, when the queue is dry and speculation is enabled, steals the
    /// oldest in-flight lease as a backup task.  Never blocks: `Empty`
    /// tells the caller to poll its own socket and retry, which is what
    /// keeps a pipelined worker's queued `OUTCOME` frames draining while
    /// its next `LEASE` waits for work.
    fn try_claim(&self, worker: u64) -> ClaimWait {
        let mut reg = self.state.lock().expect("coordinator state poisoned");
        let now = Instant::now();
        self.reclaim_expired(&mut reg, now);
        if reg.shutdown || (reg.draining && reg.all_complete()) {
            return ClaimWait::Drained;
        }
        match self.select_shard(&mut reg, worker, now) {
            Some((job, shard)) => ClaimWait::Granted { job, shard },
            None => ClaimWait::Empty,
        }
    }

    /// Picks the shard to lease to `worker`, with the state lock held.
    ///
    /// Pass 1 — placement: the first job (in open order) with pending
    /// work this worker has not already failed; within it, shards the
    /// rendezvous ring places *on this worker* are preferred, and the
    /// pool resolves to its largest remaining shard (LPT) so the makespan
    /// never tail-stalls on a big shard served last.  Pass 2 — progress
    /// beats placement: any pending shard at all, even an "excluded" one,
    /// rather than deadlocking when only failed-here work remains.
    /// Pass 3 — speculation: the queue is dry and this worker is idle, so
    /// the oldest in-flight lease past `speculate_after` is re-granted
    /// here as a backup task.
    fn select_shard(&self, reg: &mut Registry, worker: u64, now: Instant) -> Option<(u32, usize)> {
        let choice = pick_pending(reg, worker).or_else(|| pick_any_pending(reg));
        if let Some((job_id, shard)) = choice {
            let job = reg.jobs.get_mut(&job_id).expect("picked from the registry above");
            job.pending.retain(|&queued| queued != shard);
            job.leases
                .insert(shard, Lease { worker, deadline: now + self.lease_timeout, granted: now });
            return Some((job_id, shard));
        }
        self.pick_speculative(reg, worker, now)
    }

    /// Pass 3: steals the oldest in-flight lease past the speculation age
    /// and grants its shard to the idle `worker` (first result wins; the
    /// straggler keeps running but is excluded from re-claiming the
    /// shard, so a stolen shard never bounces back to it).
    fn pick_speculative(
        &self,
        reg: &mut Registry,
        worker: u64,
        now: Instant,
    ) -> Option<(u32, usize)> {
        let after = self.speculate_after?;
        let mut oldest: Option<(u32, usize, Instant)> = None;
        for (&job_id, job) in &reg.jobs {
            for (&shard, lease) in &job.leases {
                if lease.worker == worker
                    || now.duration_since(lease.granted) < after
                    || job.excluded.get(&shard).is_some_and(|set| set.contains(&worker))
                {
                    continue;
                }
                let older = match oldest {
                    Some((_, _, granted)) => lease.granted < granted,
                    None => true,
                };
                if older {
                    oldest = Some((job_id, shard, lease.granted));
                }
            }
        }
        let (job_id, shard, _) = oldest?;
        let job = reg.jobs.get_mut(&job_id).expect("lease found above");
        // The fresh `granted` stamp keeps the stolen lease from being
        // immediately re-stolen by the next idle worker.
        let straggler = job
            .leases
            .insert(shard, Lease { worker, deadline: now + self.lease_timeout, granted: now })
            .expect("lease found above")
            .worker;
        job.excluded.entry(shard).or_default().insert(straggler);
        job.stats.leases_stolen += 1;
        Some((job_id, shard))
    }

    /// Records one shard result.  Returns whether it was folded: late
    /// duplicates (a slow worker whose lease expired, or the losing side
    /// of a speculation race) are rejected so no shard is ever counted
    /// twice — the caller answers a rejected sender with a non-fatal
    /// `STALE` ack.  In particular a stale `FAILED` cannot abort a job
    /// whose winner already completed the shard: the filled slot wins.
    fn complete(
        &self,
        worker: u64,
        job_id: u32,
        shard: usize,
        result: Result<ShardRun, DriverError>,
    ) -> bool {
        let mut reg = self.state.lock().expect("coordinator state poisoned");
        let Some(job) = reg.jobs.get_mut(&job_id) else { return false };
        if shard >= job.results.len() || job.results[shard].is_some() {
            return false;
        }
        job.results[shard] = Some(result);
        job.completed += 1;
        job.contributors.insert(worker);
        job.leases.remove(&shard);
        // The shard may sit requeued in `pending` (expired lease) while the
        // original worker's late result arrives — drop the duplicate work.
        job.pending.retain(|&queued| queued != shard);
        if job.is_complete() {
            job.finish();
        }
        self.finish_or_notify(reg);
        true
    }

    /// Notifies waiters and, when a drain has run dry, flips to shutdown.
    /// Consumes the guard so the listener poke happens outside the lock.
    fn finish_or_notify(&self, mut reg: std::sync::MutexGuard<'_, Registry>) {
        let finished = reg.draining && !reg.shutdown && reg.all_complete();
        if finished {
            reg.shutdown = true;
        }
        self.cond.notify_all();
        drop(reg);
        if finished {
            // Wake the accept loop.
            let _ = TcpStream::connect(self.local_addr);
        }
    }

    /// Blocks until `job_id` is complete (or the service shuts down).
    fn wait_job(&self, job_id: u32) {
        let mut reg = self.state.lock().expect("coordinator state poisoned");
        while !reg.shutdown && reg.jobs.get(&job_id).is_some_and(|job| !job.is_complete()) {
            let (next, _) = self
                .cond
                .wait_timeout(reg, Duration::from_millis(250))
                .expect("coordinator state poisoned");
            reg = next;
        }
    }

    /// Begins a graceful drain: no new jobs, open jobs are aborted (their
    /// clients get `ERROR` on close), closed jobs run to completion, and
    /// the service exits once the registry runs dry.
    fn drain(&self) {
        let mut reg = self.state.lock().expect("coordinator state poisoned");
        reg.draining = true;
        for job in reg.jobs.values_mut() {
            if job.open && job.aborted.is_none() {
                job.aborted =
                    Some(format!("job {} aborted: the coordinator is draining", job.name));
                job.pending.clear();
                job.leases.clear();
                job.finish();
            }
        }
        self.finish_or_notify(reg);
    }

    /// Called after a `REPORT`/`ERROR` answer; in `--once` mode the first
    /// answered report begins the drain.
    fn report_answered(&self) {
        if self.once {
            self.drain();
        }
    }

    fn is_shutdown(&self) -> bool {
        self.state.lock().expect("coordinator state poisoned").shutdown
    }
}

/// A handle that can ask a running [`Coordinator`] to drain gracefully —
/// the hook `engine serve` wires to SIGINT.
#[derive(Clone)]
pub struct ServeControl {
    shared: Arc<Shared>,
}

impl ServeControl {
    /// Begins a graceful drain: finish closed jobs, abort open ones,
    /// reject new ones, then exit the accept loop.
    pub fn drain(&self) {
        self.shared.drain();
    }
}

/// A bound coordinator, ready to [`run`](Coordinator::run).
///
/// Binding is split from running so callers (tests, the bench harness) can
/// bind port 0, learn the chosen address, and hand it to workers before
/// entering the accept loop.
pub struct Coordinator {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Coordinator {
    /// Binds the listen socket and, if `paths` is non-empty, registers
    /// them as the closed [`DEFAULT_JOB`] under `config.spec` — a bare
    /// `engine submit` fetches its report.  With no paths the service
    /// starts empty and lives entirely off wire-opened jobs.
    ///
    /// Each file is read once, here, and registered through the same
    /// open/accept/close path a client's `JOB_OPEN`/`SHARD_OPEN`/`JOB_CLOSE`
    /// takes, so a missing shard fails before any worker connects and
    /// every lease ships the bytes read at bind — a file rewritten or
    /// deleted mid-run changes nothing.  The bytes are held until the job
    /// completes; there is no size cap — shards of any length stream to
    /// workers as `SHARD_CHUNK` frames.
    ///
    /// # Errors
    ///
    /// An unreadable shard file, an invalid detector spec, more shard
    /// files than one job may declare, or a bind failure.
    pub fn bind(paths: &[PathBuf], config: &ServeConfig) -> Result<Self, String> {
        config.spec.validate()?;
        let listener = TcpListener::bind(&config.bind)
            .map_err(|error| format!("cannot bind {}: {error}", config.bind))?;
        let local_addr =
            listener.local_addr().map_err(|error| format!("cannot resolve bind: {error}"))?;
        let shared = Arc::new(Shared {
            jobs_hint: config.jobs_hint,
            lease_timeout: config.lease_timeout,
            chunk_len: config.chunk_len.max(1),
            once: config.once,
            speculate_after: config.speculate_after,
            local_addr,
            state: Mutex::new(Registry::default()),
            cond: Condvar::new(),
        });
        if !paths.is_empty() {
            let shards = u32::try_from(paths.len()).unwrap_or(u32::MAX);
            let job = open_job(&shared, DEFAULT_JOB.to_owned(), config.spec.clone(), shards)?;
            for (shard, path) in paths.iter().enumerate() {
                let bytes = std::fs::read(path)
                    .map_err(|error| format!("cannot read {}: {error}", path.display()))?;
                let text = config.text.unwrap_or_else(|| TextFormat::from_path(path));
                let meta = ShardMeta::new(path.display().to_string(), text, bytes);
                accept_shard(&shared, job, shard, meta)?;
            }
            close_job(&shared, job)?;
        }
        Ok(Coordinator { listener, shared })
    }

    /// The address the coordinator listens on.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// A drain handle, safe to trigger from a signal-watcher thread.
    pub fn control(&self) -> ServeControl {
        ServeControl { shared: Arc::clone(&self.shared) }
    }

    /// Accepts connections until the service drains (a `SHUTDOWN` message,
    /// a [`ServeControl::drain`], or — in `--once` mode — the first
    /// answered report), then returns every job's outcome.  Worker and
    /// client connections are each served on their own thread; a worker
    /// that disconnects with a lease outstanding has its shard requeued
    /// for the next `LEASE`.
    ///
    /// # Errors
    ///
    /// A listener failure.  Per-job failures (the earliest failing shard,
    /// exactly like the local driver) are values in the summary, not
    /// errors of the run.
    pub fn run(self) -> Result<ServeSummary, String> {
        let conn_ids = AtomicU64::new(1);
        let mut handles = Vec::new();
        for stream in self.listener.incoming() {
            if self.shared.is_shutdown() {
                break;
            }
            let stream = match stream {
                Ok(stream) => stream,
                Err(_) => continue,
            };
            let shared = Arc::clone(&self.shared);
            let conn = conn_ids.fetch_add(1, Ordering::Relaxed);
            handles.push(std::thread::spawn(move || handle_connection(&shared, stream, conn)));
            // A returned thread keeps its stack mapped until its handle is
            // joined or dropped; dropping finished handles here keeps a
            // resident service's threads and mappings proportional to its
            // live connections, not to every connection it ever accepted.
            handles.retain(|handle| !handle.is_finished());
        }
        for handle in handles {
            let _ = handle.join();
        }
        let reg = self.shared.state.lock().expect("coordinator state poisoned");
        let jobs = reg
            .jobs
            .values()
            .map(|job| JobOutcome { name: job.name.clone(), result: job.fold() })
            .collect();
        Ok(ServeSummary { jobs })
    }
}

/// Turns a worker's `OUTCOME` message into the coordinator-side
/// [`ShardRun`], validating the run count against the job's spec.
fn shard_run_from_wire(
    job: &Job,
    shard: usize,
    events: u64,
    wall_nanos: u64,
    runs: Vec<WireRun>,
) -> Result<ShardRun, DriverError> {
    let name = job.shard_name(shard);
    if runs.len() != job.spec.detectors.len() {
        return Err(DriverError {
            path: PathBuf::from(&name),
            message: format!(
                "worker returned {} detector run(s), expected {}",
                runs.len(),
                job.spec.detectors.len()
            ),
        });
    }
    Ok(ShardRun {
        path: PathBuf::from(name),
        source: "remote",
        events: events as usize,
        wall: Duration::from_nanos(wall_nanos),
        runs: runs
            .into_iter()
            .map(|run| DetectorRun {
                outcome: run.outcome,
                time: Duration::from_nanos(run.time_nanos),
            })
            .collect(),
    })
}

fn handle_connection(shared: &Shared, mut stream: TcpStream, conn: u64) {
    // Short read timeouts let the handler poll the shutdown flag between
    // messages without ever splitting a frame.  The write timeout is the
    // SHARD_CHUNK backpressure clock: a receiver that stops draining turns
    // each blocked write into a bounded stall, and the proto layer's stall
    // budget kills the connection instead of pinning this thread (and the
    // shard bytes it holds) forever.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_nodelay(true);

    // Handshake: HELLO in, WELCOME out.
    let role = loop {
        match proto::read_message(&mut stream) {
            Ok(Incoming::Message(Message::Hello { role })) => break role,
            Ok(Incoming::Idle) => {
                if shared.is_shutdown() {
                    return;
                }
            }
            _ => return, // EOF (e.g. the shutdown self-poke), garbage, or I/O error
        }
    };
    let welcome = Message::Welcome { jobs_hint: shared.jobs_hint };
    if proto::write_message(&mut stream, &welcome).is_err() {
        return;
    }

    match role {
        Role::Worker => serve_worker(shared, stream, conn),
        Role::Submit => serve_client(shared, stream, conn),
    }
}

/// Builds a granted shard's `GRANT` around the bytes registered for it.
/// `None` tells the caller to claim again: the shard's job completed
/// between the claim and the load (a speculative grant the original
/// holder won), so its bytes are gone.
fn load_shard(shared: &Shared, job_id: u32, shard: usize) -> Option<(Message, Arc<Vec<u8>>)> {
    let reg = shared.state.lock().expect("coordinator state poisoned");
    let job = reg.jobs.get(&job_id)?;
    let meta = job.shards.get(shard).and_then(Option::as_ref)?;
    let bytes = Arc::clone(meta.bytes.as_ref()?);
    let grant = Message::Grant {
        job: job_id,
        shard: shard as u32,
        name: meta.name.clone(),
        text: meta.text,
        spec: job.spec.clone(),
        chunks: proto::chunk_count(bytes.len() as u64, shared.chunk_len),
        content: meta.content,
    };
    Some((grant, bytes))
}

/// Ships one granted shard: `GRANT` out, then the worker's `HAVE` (cache
/// hit — nothing moves) or `PULL` (stream the chunk train) decides
/// whether bytes cross the wire.  A prefetching worker flushes finished
/// results before it answers, so `OUTCOME`/`FAILED` frames may arrive
/// first; they fold as they would outside a grant.  Returns `false` when
/// the connection broke (the caller's post-loop requeue covers the lease).
fn send_grant(
    shared: &Shared,
    stream: &mut TcpStream,
    conn: u64,
    job: u32,
    shard: u32,
    grant: &Message,
    bytes: &Arc<Vec<u8>>,
) -> bool {
    if proto::write_message(stream, grant).is_err() {
        return false;
    }
    // Cap the wait for the transfer decision at the lease clock: a worker
    // that never answers its own grant forfeits the lease anyway.
    let deadline = Instant::now() + shared.lease_timeout.max(Duration::from_secs(5));
    loop {
        match proto::read_message(stream) {
            Ok(Incoming::Message(Message::Pull { job: got_job, shard: got_shard }))
                if got_job == job && got_shard == shard =>
            {
                if proto::write_chunks(stream, job, shard, bytes, shared.chunk_len).is_err() {
                    return false;
                }
                shared.note_transfer(job, bytes.len() as u64);
                return true;
            }
            Ok(Incoming::Message(Message::Have { job: got_job, shard: got_shard }))
                if got_job == job && got_shard == shard =>
            {
                shared.note_cache_hit(job);
                return true;
            }
            Ok(Incoming::Message(result @ (Message::Outcome { .. } | Message::Failed { .. }))) => {
                if !fold_result(shared, stream, conn, result) {
                    return false;
                }
            }
            Ok(Incoming::Idle) => {
                if shared.is_shutdown() || Instant::now() >= deadline {
                    return false;
                }
            }
            _ => return false,
        }
    }
}

/// Folds a worker's `OUTCOME` or `FAILED` into its job.  A result the job
/// rejects (a late duplicate: expired lease, slow worker, or the losing
/// side of a speculative re-lease) gets a non-fatal `STALE` ack.  Returns
/// `false` when that ack could not be written.
fn fold_result(shared: &Shared, stream: &mut TcpStream, conn: u64, result: Message) -> bool {
    shared.mark_active(conn);
    let (job, shard, folded) = {
        let reg = shared.state.lock().expect("coordinator state poisoned");
        match result {
            Message::Outcome { job, shard, events, wall_nanos, runs } => {
                let run = reg.jobs.get(&job).map(|meta| {
                    shard_run_from_wire(meta, shard as usize, events, wall_nanos, runs)
                });
                (job, shard, run)
            }
            Message::Failed { job, shard, message } => {
                let path = reg.jobs.get(&job).map(|meta| meta.shard_name(shard as usize));
                (job, shard, path.map(|path| Err(DriverError { path: path.into(), message })))
            }
            _ => unreachable!("only OUTCOME and FAILED carry results"),
        }
    };
    let accepted = folded.is_some_and(|run| shared.complete(conn, job, shard as usize, run));
    accepted || proto::write_message(stream, &Message::Stale { job, shard }).is_ok()
}

/// The poll cadence of a `LEASE` waiting on an empty queue: short enough
/// that a freshly-opened job, a requeued shard, or a ripening speculation
/// target reaches the idle worker within ~5ms, and doubling as the pacing
/// sleep between claim attempts (each poll drains any `OUTCOME` the
/// pipelined worker queued meanwhile).
const CLAIM_POLL: Duration = Duration::from_millis(5);

/// The read timeout of a worker connection with no claim outstanding —
/// the idle heartbeat the shutdown and half-open checks ride on.
const WORKER_IDLE_POLL: Duration = Duration::from_millis(500);

fn serve_worker(shared: &Shared, mut stream: TcpStream, conn: u64) {
    shared.register_worker(conn);
    // One claim may be outstanding at a time (the worker's transfer
    // thread pipelines lease N+1 while lease N analyzes).  While it
    // waits, the socket is polled on a short timeout so queued
    // OUTCOME/FAILED frames keep folding — the old blocking claim would
    // deadlock here: the coordinator waiting for the queue, the queue
    // waiting for the outcome sitting unread in this very socket.
    let mut pending_lease = false;
    let mut fast_poll = false;
    'conn: loop {
        if pending_lease {
            match shared.try_claim(conn) {
                ClaimWait::Granted { job, shard } => match load_shard(shared, job, shard) {
                    Some((grant, bytes)) => {
                        pending_lease = false;
                        if fast_poll {
                            fast_poll = false;
                            let _ = stream.set_read_timeout(Some(WORKER_IDLE_POLL));
                        }
                        if !send_grant(shared, &mut stream, conn, job, shard as u32, &grant, &bytes)
                        {
                            break 'conn;
                        }
                        continue 'conn;
                    }
                    // Its job completed meanwhile; claim again for this
                    // LEASE.
                    None => continue 'conn,
                },
                ClaimWait::Drained => {
                    let _ = proto::write_message(&mut stream, &Message::Done);
                    break 'conn;
                }
                ClaimWait::Empty => {
                    if !fast_poll {
                        fast_poll = true;
                        let _ = stream.set_read_timeout(Some(CLAIM_POLL));
                    }
                }
            }
        }
        match proto::read_message(&mut stream) {
            Ok(Incoming::Message(Message::Lease)) => {
                shared.mark_active(conn);
                pending_lease = true;
            }
            Ok(Incoming::Message(result @ (Message::Outcome { .. } | Message::Failed { .. }))) => {
                if !fold_result(shared, &mut stream, conn, result) {
                    break 'conn;
                }
            }
            Ok(Incoming::Idle) => {
                if shared.is_shutdown() && !pending_lease {
                    // With a claim outstanding the break is deferred to the
                    // next try_claim, which answers `Drained` — the worker
                    // gets a clean DONE instead of a torn connection.
                    break 'conn;
                }
                // Half-open detection: this worker's lease expired and it
                // has stayed silent since — a connection whose peer died
                // without a FIN never produces EOF, so the idle poll is
                // where it gets closed (the lease itself was already
                // requeued by the expiry).  A pending LEASE vouches for
                // the connection instead: the worker proved itself alive
                // by claiming, and a dead one fails at the GRANT write.
                if !pending_lease && shared.is_stale(conn) {
                    break 'conn;
                }
            }
            Ok(Incoming::Message(_)) | Ok(Incoming::Eof) | Err(_) => break 'conn,
        }
    }
    // Whatever ended this connection — disconnect, protocol error, or
    // shutdown — it leaves the ring, and any outstanding lease goes back
    // to the queue.
    shared.unregister_worker(conn);
    shared.requeue_worker(conn);
}

/// Opens a job in the registry; the `Err` carries the `ERROR` reply text.
fn open_job(shared: &Shared, name: String, spec: DetectorSpec, shards: u32) -> Result<u32, String> {
    if shards == 0 {
        return Err(format!("job {name} declares no shards"));
    }
    if shards > MAX_JOB_SHARDS {
        return Err(format!("job {name} declares {shards} shards (limit {MAX_JOB_SHARDS})"));
    }
    if spec.detectors.is_empty() {
        return Err(format!("job {name} lists no detectors"));
    }
    spec.validate().map_err(|error| format!("job {name}: {error}"))?;
    let mut reg = shared.state.lock().expect("coordinator state poisoned");
    if reg.draining {
        return Err("the coordinator is draining and accepts no new jobs".to_owned());
    }
    if let Some(&existing) = reg.by_name.get(&name) {
        // A *live* job's name is taken; a completed job's name may be
        // reused (repeat submissions of the same workload are the
        // warm-cache path).  The old job keeps its id and its outcome in
        // the serve summary — the name just remaps to the newest run.
        if !reg.jobs.get(&existing).is_some_and(Job::is_complete) {
            return Err(format!("a job named {name} already exists"));
        }
    }
    let id = reg.next_id;
    reg.next_id += 1;
    reg.by_name.insert(name.clone(), id);
    reg.jobs.insert(id, Job::new(name, spec, shards));
    Ok(id)
}

/// Stores one fully-streamed shard into its job slot and queues it for
/// lease; the `Err` carries the `ERROR` reply text.
fn accept_shard(shared: &Shared, job_id: u32, shard: usize, meta: ShardMeta) -> Result<(), String> {
    let mut reg = shared.state.lock().expect("coordinator state poisoned");
    let Some(job) = reg.jobs.get_mut(&job_id) else {
        return Err(format!("no job with id {job_id}"));
    };
    if !job.open {
        return Err(format!("job {} is closed", job.name));
    }
    if shard >= job.declared as usize {
        return Err(format!(
            "shard {shard} is out of range for job {} ({} shards declared)",
            job.name, job.declared
        ));
    }
    if job.shards[shard].is_some() {
        return Err(format!("shard {shard} of job {} was already streamed", job.name));
    }
    job.shards[shard] = Some(meta);
    job.streamed += 1;
    job.pending.push_back(shard);
    drop(reg);
    shared.cond.notify_all();
    Ok(())
}

/// Marks a job closed so it can fold; the `Err` carries the `ERROR` reply
/// text and leaves the job open.
fn close_job(shared: &Shared, job_id: u32) -> Result<(), String> {
    let mut reg = shared.state.lock().expect("coordinator state poisoned");
    let Some(job) = reg.jobs.get_mut(&job_id) else {
        return Err(format!("no job with id {job_id}"));
    };
    if let Some(message) = &job.aborted {
        return Err(message.clone());
    }
    if !job.open {
        return Err(format!("job {} is already closed", job.name));
    }
    if job.streamed < job.declared {
        return Err(format!(
            "job {} declared {} shards but streamed only {}",
            job.name, job.declared, job.streamed
        ));
    }
    job.open = false;
    if job.is_complete() {
        job.finish();
    }
    drop(reg);
    shared.cond.notify_all();
    Ok(())
}

/// Renders a completed job's fold as its wire reply.
fn report_reply(shared: &Shared, job_id: u32) -> Message {
    let reg = shared.state.lock().expect("coordinator state poisoned");
    let Some(job) = reg.jobs.get(&job_id) else {
        return Message::Error { message: format!("no job with id {job_id}") };
    };
    match job.fold() {
        Ok(report) => Message::Report {
            workers: report.jobs as u32,
            shards: report.shards.len() as u64,
            events: report.shards.iter().map(|shard| shard.events as u64).sum(),
            wall_nanos: report.wall.as_nanos() as u64,
            runs: report
                .merged
                .into_iter()
                .map(|run| WireRun { time_nanos: run.time.as_nanos() as u64, outcome: run.outcome })
                .collect(),
            scheduling: report.scheduling,
        },
        Err(message) => Message::Error { message },
    }
}

fn serve_client(shared: &Shared, mut stream: TcpStream, _conn: u64) {
    // Jobs this connection opened — only their opener may stream shards
    // into them or close them.
    let mut opened: HashSet<u32> = HashSet::new();
    loop {
        match proto::read_message(&mut stream) {
            Ok(Incoming::Message(Message::JobOpen { name, spec, shards })) => {
                let reply = match open_job(shared, name, spec, shards) {
                    Ok(job) => {
                        opened.insert(job);
                        Message::JobAccept { job }
                    }
                    Err(message) => Message::Error { message },
                };
                if proto::write_message(&mut stream, &reply).is_err() {
                    break;
                }
            }
            Ok(Incoming::Message(Message::ShardOpen { job, shard, name, text, chunks })) => {
                if !opened.contains(&job) {
                    let message = format!("this connection did not open job id {job}");
                    let _ = proto::write_message(&mut stream, &Message::Error { message });
                    break; // the chunk stream behind the header is undrained
                }
                // The chunk stream rides directly behind the header;
                // reassemble it before touching the registry so a slow
                // client never holds the lock.
                let bytes =
                    match proto::read_chunks(&mut stream, job, shard, chunks, STREAM_PATIENCE) {
                        Ok(bytes) => bytes,
                        Err(_) => break,
                    };
                let meta = ShardMeta::new(name, text, bytes);
                if let Err(message) = accept_shard(shared, job, shard as usize, meta) {
                    let _ = proto::write_message(&mut stream, &Message::Error { message });
                    break;
                }
            }
            Ok(Incoming::Message(Message::JobClose { job })) => {
                if !opened.contains(&job) {
                    let message = format!("this connection did not open job id {job}");
                    if proto::write_message(&mut stream, &Message::Error { message }).is_err() {
                        break;
                    }
                    continue;
                }
                let reply = match close_job(shared, job) {
                    Ok(()) => {
                        shared.wait_job(job);
                        report_reply(shared, job)
                    }
                    Err(message) => Message::Error { message },
                };
                let sent = proto::write_message(&mut stream, &reply).is_ok();
                shared.report_answered();
                if !sent {
                    break;
                }
            }
            Ok(Incoming::Message(Message::Fetch { name })) => {
                let job = {
                    let reg = shared.state.lock().expect("coordinator state poisoned");
                    reg.by_name.get(&name).copied()
                };
                let reply = match job {
                    Some(job) => {
                        shared.wait_job(job);
                        report_reply(shared, job)
                    }
                    None => Message::Error { message: format!("no job named {name}") },
                };
                let sent = proto::write_message(&mut stream, &reply).is_ok();
                shared.report_answered();
                if !sent {
                    break;
                }
            }
            Ok(Incoming::Message(Message::Shutdown)) => {
                let _ = proto::write_message(&mut stream, &Message::Done);
                shared.drain();
            }
            Ok(Incoming::Idle) => {
                if shared.is_shutdown() {
                    break;
                }
            }
            Ok(Incoming::Message(_)) | Ok(Incoming::Eof) | Err(_) => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{shutdown, submit, work, SubmitConfig, WorkConfig};

    #[test]
    fn completed_job_releases_its_shard_bytes() {
        let path = std::env::temp_dir()
            .join(format!("rapid-coordinator-release-{}.std", std::process::id()));
        std::fs::write(&path, "t1|w(x)|A:1\nt2|w(x)|B:2\n").expect("shard writes");

        let coordinator =
            Coordinator::bind(&[], &ServeConfig::default()).expect("resident coordinator binds");
        let addr = coordinator.local_addr().to_string();
        let shared = Arc::clone(&coordinator.shared);
        let serve = std::thread::spawn(move || coordinator.run().expect("serve completes"));
        let worker_addr = addr.clone();
        let worker = std::thread::spawn(move || {
            let config = WorkConfig { jobs: Some(1), ..WorkConfig::default() };
            work(&worker_addr, &config).expect("worker completes")
        });

        let config = SubmitConfig {
            job: Some("release".to_owned()),
            paths: vec![path.clone()],
            ..SubmitConfig::default()
        };
        let report = submit(&addr, &config).expect("job submits");
        assert_eq!(report.merged[0].outcome.distinct_pairs(), 1);
        {
            let reg = shared.state.lock().expect("coordinator state poisoned");
            let job = reg.jobs.values().find(|job| job.name == "release").expect("job kept");
            assert!(job.is_complete());
            for meta in &job.shards {
                let meta = meta.as_ref().expect("the shard's name and content id stay");
                assert!(
                    meta.bytes.is_none(),
                    "a completed job still holds the bytes of {}",
                    meta.name
                );
            }
        }
        // The report survives the release: a re-fetch folds the kept results.
        let refetch = SubmitConfig { job: Some("release".to_owned()), ..SubmitConfig::default() };
        let again = submit(&addr, &refetch).expect("completed job re-fetches");
        assert_eq!(again.merged[0].outcome, report.merged[0].outcome);

        shutdown(&addr).expect("coordinator drains");
        worker.join().expect("worker thread");
        serve.join().expect("serve thread");
        std::fs::remove_file(&path).ok();
    }
}
