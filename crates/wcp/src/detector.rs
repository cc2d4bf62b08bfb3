//! The streaming WCP vector-clock detector (Algorithm 1 of the paper).
//!
//! # Hot-path layout
//!
//! The detector keeps *flat, dense* state: thread, lock and variable ids are
//! first-appearance integers, so every clock table is a `Vec` indexed by
//! `id.index()` — no hashing on the per-event path.  The release-time clocks
//! `H_rel` queued for Rule (b) are recycled through a [`ClockPool`], and an
//! open acquire is queued as one scalar, so steady-state analysis performs
//! no allocations.
//!
//! # Rule (b) at O(1) per queued section
//!
//! The paper's release walks a lock's queue with a full comparison
//! `C_acq ⊑ C_t` and one join per consumed section.  On traces that pass
//! [`Trace::validate`] two facts make both O(1) per section:
//!
//! * for events of different threads, `C_a ⊑ C_b` is decided by the
//!   component of `a`'s thread alone, because WCP is closed under left
//!   composition with HB (the private `SectionEntry` docs give the
//!   argument), so an open acquire is queued as its owner's local time;
//! * one lock's releases form an HB chain, so the release time of the last
//!   section a walk consumes dominates every earlier one and is joined
//!   once, when the walk stops; it never decides a later entry's test,
//!   because it knows no event of that entry's owner at or after the
//!   entry's acquire (the private `LockHistory` docs).
//!
//! Verdicts, timestamps and counters equal the paper's on such traces; on
//! traces that fail `validate` they may differ.
//!
//! # Epoch fast paths
//!
//! In the spirit of FastTrack (see [`rapid_vc::Epoch`]), repeated reads and
//! writes take an O(1) fast path instead of re-running the full
//! join-and-compare pipeline.  A variable caches, per access kind, the
//! *epoch* `version@thread` of the last race-free slow-path access, where
//! `version` is a per-thread counter bumped whenever the thread's WCP time
//! `C_t = P_t[t := N_t]` may have changed (acquire, release, fork, join,
//! local-clock ticks, and Rule (a)/(b) joins).  A new access takes the fast
//! path when **all** of the following hold, which together prove the event
//! is observationally identical to its cached predecessor:
//!
//! * same thread and same `version` — `C_t` is unchanged, so the race
//!   check (`W_x ⊑ C_t`, and `R_x ⊑ C_t` for writes) and the `R_x`/`W_x`
//!   update joins would produce exactly the cached outcome;
//! * the variable's `write_gen` (and `read_gen` for writes) is unchanged —
//!   no other access grew `W_x`/`R_x` since, so the race verdict still
//!   holds.  One exact exception: growth attributable to this thread's own
//!   race-free access *of the other kind at the same version* is harmless —
//!   that access passed `W_x ⊑ C_t` (resp. `R_x ⊑ C_t`) and then joined the
//!   same `C_t`, so the summary clock is still `⊑ C_t`.  This keeps the
//!   ubiquitous read-modify-write pattern (`r(x); w(x)` in a loop) on the
//!   fast path;
//! * the thread holds no locks, **or** the variable's `rel_gen` is
//!   unchanged — the Rule (a) release tables consulted by the slow path are
//!   untouched, so re-joining them is a no-op (same `version` implies the
//!   same held-lock set: versions bump on every acquire/release).
//!
//! A fast-path hit still refreshes the per-thread last-access metadata (so
//! later race *pairs* report the same event ids as the reference) and bumps
//! `clock_joins` by the amount the full pipeline would have counted, keeping
//! [`WcpStats`] bit-identical between the fast and full-clock modes.  It
//! skips the [`LockContext`] update: the same thread and `version` mean the
//! same open critical sections, and the cached access already added the
//! variable to their access sets.  Racy
//! accesses never populate the cache: the reference re-reports a race on
//! every unordered repeat, so repeats must take the slow path.  Everything
//! else — acquire/release, Rule (b) queue consumption, fork/join — always
//! runs the full vector-clock logic.  [`WcpConfig::epoch_fast_paths`] turns
//! the fast paths off, which is the reference mode the differential suite
//! compares against.

use std::collections::VecDeque;

use rapid_trace::lockctx::LockContext;
use rapid_trace::{
    Event, EventKind, LastAccesses, LockId, Race, RaceKind, RaceReport, RaceSink, Trace, VarId,
};
use rapid_vc::{join_at, ClockPool, Epoch, ThreadId, VectorClock};

use crate::stats::WcpStats;
use crate::timestamps::WcpTimestamps;

/// Everything one run of the detector produces: races, telemetry and
/// (optionally) the per-event timestamps.
#[derive(Debug, Clone)]
pub struct WcpOutcome {
    /// The WCP races found, in detection order.
    pub report: RaceReport,
    /// Telemetry about the run (queue occupancy, join counts, …).
    pub stats: WcpStats,
    /// Per-event WCP timestamps, if requested via
    /// [`WcpDetector::analyze_with_timestamps`].
    pub timestamps: Option<WcpTimestamps>,
}

/// Performance/semantics knobs for [`WcpStream`].
///
/// The defaults are what production runs want; the `false` settings exist
/// for the differential test suite, which proves that neither optimization
/// changes a single verdict, timestamp or counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WcpConfig {
    /// Take the FastTrack-style O(1) fast paths for repeated, already
    /// ordered same-thread reads/writes (see the module docs for the exact
    /// conditions).  `false` forces every access through the full
    /// vector-clock pipeline — the *reference mode* used by differential
    /// tests.
    pub epoch_fast_paths: bool,
    /// Recycle the release-time clocks `H_rel` that Rule (b) queues, one per
    /// closed critical section, through a [`ClockPool`] instead of
    /// allocating fresh clocks (an open acquire is queued as a scalar and
    /// needs none).  `false` allocates and drops every clock, which the
    /// pool-identity proptest compares against.
    pub pool_clocks: bool,
}

impl Default for WcpConfig {
    fn default() -> Self {
        WcpConfig { epoch_fast_paths: true, pool_clocks: true }
    }
}

impl WcpConfig {
    /// The full-vector-clock reference configuration: no epoch fast paths,
    /// no clock pooling.  Differential tests run this against the default
    /// configuration and demand identical outcomes.
    pub fn reference() -> Self {
        WcpConfig { epoch_fast_paths: false, pool_clocks: false }
    }
}

/// The linear-time WCP race detector (batch entry points).
///
/// [`WcpDetector::analyze`] is a thin wrapper over [`WcpStream`], the
/// push-based single-pass core: it pre-registers the trace's threads, feeds
/// every event through [`WcpStream::on_event`] and collects the outcome
/// (batch = stream + collect).
#[derive(Debug, Default, Clone)]
pub struct WcpDetector {
    _private: (),
}

/// The cached witness of the last race-free slow-path access of one kind
/// (read or write) to a variable; see the module docs for the exact validity
/// conditions.  `epoch` is `version@thread` — [`Epoch::zero`] means "no
/// witness" (thread versions start at 1, so the zero epoch never validates).
#[derive(Debug, Clone, Copy, Default)]
struct AccessCache {
    epoch: Epoch,
    /// `VarState::read_gen` at caching time (only checked for writes).
    read_gen: u64,
    /// `VarState::write_gen` at caching time.
    write_gen: u64,
    /// `VarState::rel_gen` at caching time (only checked under held locks).
    rel_gen: u64,
    /// How many Rule (a) joins the slow path performed (and counted); a
    /// fast-path hit re-counts them so `clock_joins` stays mode-independent.
    rule_a_joins: u32,
}

/// Per-variable state: the `R_x`/`W_x` summary clocks, last-access metadata
/// for race-pair reporting, the Rule (a) release tables, and the epoch
/// fast-path caches with their invalidation generations.
#[derive(Debug, Default)]
struct VarState {
    /// `R_x`: join of the WCP times of all reads of `x` so far.
    read_clock: VectorClock,
    /// `W_x`: join of the WCP times of all writes of `x` so far.
    write_clock: VectorClock,
    /// Last read per thread, at local time `N_e`.
    reads: LastAccesses,
    /// Last write per thread, at local time `N_e`.
    writes: LastAccesses,
    /// The locks whose critical sections accessed `x`, sorted; `rel[i]`
    /// holds the release summaries of `rel_locks[i]`.  Most variables are
    /// guarded by a few locks, but the count is not bounded: on the xalan
    /// model one thread-local variable is accessed under all 1,111 locks, so
    /// an access binary-searches this compact index, not the summaries.
    rel_locks: Vec<LockId>,
    /// Rule (a) release summaries, parallel to `rel_locks`.
    rel: Vec<RelEntry>,
    /// The thread of every release recorded in `rel` while they share one,
    /// `None` otherwise.  That thread's accesses receive no Rule (a) join.
    rel_owner: Option<ThreadId>,
    /// Bumped whenever `read_clock` may have grown.
    read_gen: u64,
    /// Bumped whenever `write_clock` may have grown.
    write_gen: u64,
    /// Bumped whenever any `rel` entry for this variable may have grown.
    rel_gen: u64,
    read_cache: AccessCache,
    write_cache: AccessCache,
}

impl VarState {
    /// The Rule (a) entry of `lock`, if a release of it recorded one.
    fn rel_entry(&self, lock: LockId) -> Option<&RelEntry> {
        let found = self.rel_locks.binary_search(&lock).ok()?;
        Some(&self.rel[found])
    }

    /// The Rule (a) entry of `lock` for a release by `thread`, inserted in
    /// lock order if missing.
    fn rel_entry_mut(&mut self, lock: LockId, thread: ThreadId) -> &mut RelEntry {
        self.rel_owner = (!self.rel_from_others(thread)).then_some(thread);
        let found = match self.rel_locks.binary_search(&lock) {
            Ok(found) => found,
            Err(at) => {
                self.rel_locks.insert(at, lock);
                self.rel.insert(at, RelEntry::default());
                at
            }
        };
        &mut self.rel[found]
    }

    /// Whether an access by `thread` can receive a Rule (a) join: some
    /// recorded release was by another thread.  Otherwise every summary's
    /// [`Releases::for_access`] is empty and the held-lock loop is skipped.
    fn rel_from_others(&self, thread: ThreadId) -> bool {
        !self.rel_locks.is_empty() && self.rel_owner != Some(thread)
    }
}

/// `L^r_{l,x}` / `L^w_{l,x}` for one `(lock, x)` pair: the HB times of the
/// releases of `l` whose critical sections read (resp. wrote) `x`.
///
/// Rule (a) only orders a release before a later access by a *different*
/// thread (conflicting events are by different threads), so an access by
/// `t` must receive the join of these release times over the releases by
/// threads other than `t`.  Two clocks per side suffice on traces that pass
/// [`Trace::validate`]: every acquire of `l` joins `H_l`, the HB time of
/// `l`'s previous release, so the release times of one lock form an HB
/// chain, and the latest release by a thread other than `t` dominates every
/// earlier release by any thread other than `t`.  [`Releases`] therefore
/// keeps only the latest release with its thread and the latest release by
/// any other thread; whichever of the two is not `t`'s own is the join.
#[derive(Debug, Default)]
struct RelEntry {
    read: Releases,
    write: Releases,
}

/// One side of a [`RelEntry`]: the latest release's HB time with its
/// thread, and the latest release time by any other thread.  An empty clock
/// means "no such release" (a release-time `H_t` is never bottom).
#[derive(Debug, Default)]
struct Releases {
    /// The thread of the latest release, `None` before the first.
    last_thread: Option<ThreadId>,
    /// The HB time of the latest release (of `last_thread`'s latest run of
    /// consecutive releases).
    last: VectorClock,
    /// The HB time of the latest release by a thread other than
    /// `last_thread`.
    other: VectorClock,
}

impl Releases {
    /// Records a release by `thread` at HB time `hb`.
    fn record(&mut self, thread: ThreadId, hb: &VectorClock) {
        if self.last_thread == Some(thread) {
            self.last.join(hb);
        } else {
            std::mem::swap(&mut self.last, &mut self.other);
            self.last.copy_from(hb);
            self.last_thread = Some(thread);
        }
    }

    /// The clock Rule (a) joins into an access by `thread`: the latest
    /// release by another thread (empty if there is none).
    fn for_access(&self, thread: ThreadId) -> &VectorClock {
        if self.last_thread == Some(thread) {
            &self.other
        } else {
            &self.last
        }
    }
}

/// One closed critical section over a lock, published for Rule (b): the
/// thread `u` that ran the section, the local time `N_u` of its acquire, and
/// the release's HB time `H_rel`.
///
/// The paper queues the acquire's whole WCP time `C_acq = P_u[u := N_u]`
/// and tests `C_acq ⊑ C_t`.  One component decides that test on traces
/// that pass [`Trace::validate`]: for events `a` of `u` and `b` of another
/// thread, `C_a ⊑ C_b ⟺ C_a[u] ≤ C_b[u]`, because WCP is closed under left
/// composition with HB (the paper's rule (c)).  `C_b[u] ≥ N_a` means `b`
/// knows an event `e` of `u` with `C_e ⊑ C_b` that ends the run of local
/// time `N_a` or comes later (a release, a fork, or `u`'s last event before
/// a join), so `a ≤HB e` and then `a ≤WCP b`.  The acquire is therefore
/// stored as the scalar `N_u`, and a release of `t` tests it against
/// `P_t[u]` alone: the release times of the sections the same walk
/// consumed before it never decide (see [`LockHistory`]).
#[derive(Debug, Clone)]
struct SectionEntry {
    thread: ThreadId,
    acq: u64,
    rel_hb: VectorClock,
}

/// The per-lock Rule (b) state: a single shared FIFO of closed critical
/// sections plus one consumption cursor per thread.
///
/// The paper's Algorithm 1 keeps two FIFO queues `Acq_l(t)` / `Rel_l(t)` per
/// (lock, thread) pair, which stores every closed section `T − 1` times.
/// Storing each section once with per-thread cursors is observably
/// equivalent (each thread still sees the others' sections in order and
/// blocks on the first non-dominated acquire time) while using a factor `T`
/// less memory, and it lets threads be *discovered mid-stream*: a thread
/// first seen now simply starts its cursor at the oldest retained entry.
/// Entries are garbage-collected once every known thread has consumed them
/// **and** at least one thread other than the section's owner did so — the
/// consumer's release published a lock clock `P_l ⊒ H_rel ⊒ C_acq`, which
/// makes any later thread's consumption of the entry a provable no-op (see
/// [`WcpStream`] for why this yields batch ≡ stream on well-formed traces).
///
/// A release walks its thread's cursor forward with one scalar test per
/// entry (see [`SectionEntry`]) and one join per walk.  The sections one
/// walk consumes all end in releases of this lock, and on traces that pass
/// [`Trace::validate`] those releases form an HB chain (each acquire joins
/// the previous release's `H_l`), so the `H_rel` of the last consumed
/// section dominates every earlier one: `P_t ⊔ H_last` is the clock the
/// paper's per-entry joins build, and `H_last` is joined into `P_t` once
/// when the walk stops.  The next entry, of owner `u` with acquire time
/// `N_acq`, is tested against `P_t[u]` alone, because `H_last[u] < N_acq`:
/// the entry's acquire of the lock comes after every release of it the
/// walk consumed, and an HB path out of `u` into such a release starts at
/// a release or fork by `u`, which ticks `N_u` before `u`'s next event
/// (a path through a join would end `u`, which then acquires nothing).
/// So `(P_t ⊔ H_last)[u] ≥ N_acq` exactly when `P_t[u] ≥ N_acq`.
#[derive(Debug, Default)]
struct LockHistory {
    /// Absolute index of `entries.front()`.
    base: usize,
    entries: VecDeque<SectionEntry>,
    /// Absolute per-thread cursors (dense by thread index); a missing or
    /// stale entry clamps to `base` (nothing retained has been consumed).
    cursors: Vec<usize>,
}

impl LockHistory {
    fn cursor(&self, thread: usize) -> usize {
        self.cursors.get(thread).copied().unwrap_or(0).max(self.base)
    }

    fn set_cursor(&mut self, thread: usize, cursor: usize) {
        if self.cursors.len() <= thread {
            self.cursors.resize(thread + 1, 0);
        }
        self.cursors[thread] = cursor;
    }

    /// Entries not yet consumed by `thread` and not owned by it.
    fn pending_for(&self, thread: ThreadId) -> usize {
        let cursor = self.cursor(thread.index());
        self.entries.iter().skip(cursor - self.base).filter(|entry| entry.thread != thread).count()
    }
}

/// Per-lock state: the `H_l`/`P_l` clocks, the Rule (b) section FIFO, and
/// the per-thread stacks of open acquires' local times.
#[derive(Debug, Default)]
struct LockState {
    /// The lock appeared in at least one acquire/release.
    seen: bool,
    /// The lock was released at least once (so `hb`/`wcp` below are live;
    /// this mirrors "key present" of a map-based `H_l`/`P_l`).
    released: bool,
    /// `H_l`.
    hb: VectorClock,
    /// `P_l`.
    wcp: VectorClock,
    history: LockHistory,
    /// The local time `N_t` of each open acquire (dense by thread index,
    /// innermost last), consumed when the matching release publishes the
    /// section.
    open: Vec<Vec<u64>>,
}

impl LockState {
    fn open_stack(&mut self, thread: usize) -> &mut Vec<u64> {
        if self.open.len() <= thread {
            self.open.resize_with(thread + 1, Vec::new);
        }
        &mut self.open[thread]
    }
}

struct WcpState {
    config: WcpConfig,
    /// `N_t`.
    local: Vec<u64>,
    /// Which thread ids are *known* (have performed an event, were named by
    /// a fork/join, or were pre-registered by the batch wrapper).  Vectors
    /// below grow densely, but only known threads take part in Rule (b)
    /// fan-out accounting and pin garbage collection.
    active: Vec<bool>,
    /// Number of `true` entries in `active`.
    active_count: usize,
    /// `P_t`.
    wcp: Vec<VectorClock>,
    /// `H_t`.
    hb: Vec<VectorClock>,
    /// Whether the previous event of the thread was a release (the local
    /// clock is incremented just before the thread's next event).
    pending_increment: Vec<bool>,
    /// Epoch fast-path versions: bumped whenever `C_t` may have changed.
    version: Vec<u64>,
    /// Per-lock state, dense by lock index.
    locks: Vec<LockState>,
    /// Number of locks with `seen == true`.
    locks_seen: usize,
    /// Per-variable state, dense by variable index.
    vars: Vec<VarState>,
    /// Online tracking of held locks and per-critical-section access sets.
    lockctx: LockContext,
    /// Recycles the `H_rel` clocks queued for Rule (b).
    pool: ClockPool,
    /// Staging buffer for the current access's `C_t` (never escapes an
    /// event).
    scratch: VectorClock,
    /// Live logical queue occupancy — see [`WcpStats::max_queue_entries`]
    /// for the normative definition.
    queue_entries: usize,
    stats: WcpStats,
    sink: RaceSink,
}

impl WcpState {
    fn new(threads: usize, config: WcpConfig) -> Self {
        let mut state = WcpState {
            config,
            local: Vec::new(),
            active: Vec::new(),
            active_count: 0,
            wcp: Vec::new(),
            hb: Vec::new(),
            pending_increment: Vec::new(),
            version: Vec::new(),
            locks: Vec::new(),
            locks_seen: 0,
            vars: Vec::new(),
            lockctx: LockContext::new(threads),
            pool: ClockPool::new(),
            scratch: VectorClock::bottom(),
            queue_entries: 0,
            stats: WcpStats::default(),
            sink: RaceSink::new(),
        };
        for t in 0..threads {
            state.ensure_thread(ThreadId::new(t as u32));
        }
        state
    }

    /// Registers `thread` if not yet known: allocates its clocks (growing
    /// the dense vectors through its id) and points its Rule (b) cursors at
    /// the oldest retained entry of every lock history.  Ids below `thread`
    /// that have not been seen stay *inactive* — they neither receive
    /// Rule (b) fan-out nor pin garbage collection until they appear.
    fn ensure_thread(&mut self, thread: ThreadId) {
        let index = thread.index();
        for t in self.local.len()..=index {
            let t = ThreadId::new(t as u32);
            self.local.push(1);
            self.wcp.push(VectorClock::bottom());
            self.hb.push(VectorClock::singleton(t, 1));
            self.pending_increment.push(false);
            self.version.push(1);
            self.active.push(false);
        }
        if !self.active[index] {
            self.active[index] = true;
            self.active_count += 1;
            // The newly known thread still has to consume every retained
            // section.
            for lock in &self.locks {
                if !lock.seen {
                    continue;
                }
                let pending = lock.history.pending_for(thread);
                self.queue_entries += 2 * pending;
            }
            if self.queue_entries > self.stats.max_queue_entries {
                self.stats.max_queue_entries = self.queue_entries;
            }
        }
    }

    fn ensure_lock(&mut self, lock: LockId) {
        let index = lock.index();
        if self.locks.len() <= index {
            self.locks.resize_with(index + 1, LockState::default);
        }
        if !self.locks[index].seen {
            self.locks[index].seen = true;
            self.locks_seen += 1;
        }
    }

    fn ensure_var(&mut self, var: VarId) {
        let index = var.index();
        if self.vars.len() <= index {
            self.vars.resize_with(index + 1, VarState::default);
        }
    }

    /// `C_t = P_t[t := N_t]` as a fresh clock (cold paths and the public
    /// timestamp API; hot paths stage `C_t` in `self.scratch` instead).
    fn current_time(&self, thread: ThreadId) -> VectorClock {
        let mut clock = self.wcp[thread.index()].clone();
        clock.set(thread, self.local[thread.index()]);
        clock
    }

    /// Takes a clock for a queued `H_rel` (pooled unless disabled by
    /// config).
    fn alloc_clock(&mut self) -> VectorClock {
        if self.config.pool_clocks {
            self.pool.take()
        } else {
            VectorClock::bottom()
        }
    }

    fn apply_pending_increment(&mut self, thread: ThreadId) {
        let index = thread.index();
        if self.pending_increment[index] {
            self.pending_increment[index] = false;
            self.local[index] += 1;
            let local = self.local[index];
            self.hb[index].set(thread, local);
            self.version[index] += 1;
        }
    }

    fn note_queue_sizes(&mut self) {
        if self.queue_entries > self.stats.max_queue_entries {
            self.stats.max_queue_entries = self.queue_entries;
        }
    }

    fn acquire(&mut self, thread: ThreadId, lock: LockId) {
        self.ensure_lock(lock);
        let index = thread.index();
        let lock_index = lock.index();
        {
            let state = &self.locks[lock_index];
            if state.released {
                // `H_t ⊔= H_l ; P_t ⊔= P_l`.
                self.stats.clock_joins += 2;
                self.hb[index].join(&state.hb);
                self.wcp[index].join(&state.wcp);
            }
        }
        self.version[index] += 1;
        // Record `C_t[t] = N_t` for Rule (b) (see `SectionEntry`); it is
        // published to the other threads when the matching release closes
        // the critical section (no other thread can release `lock` while
        // this section is open, so the deferred publication is
        // unobservable).
        let local = self.local[index];
        self.locks[lock_index].open_stack(index).push(local);
    }

    fn release(&mut self, thread: ThreadId, lock: LockId, reads: &[VarId], writes: &[VarId]) {
        self.ensure_lock(lock);
        let index = thread.index();
        // Rule (b): consume critical sections (of other threads) whose
        // acquire is already WCP-before this release.  `last` is the release
        // time of the last section consumed so far, which dominates every
        // earlier one and is joined into `P_t` once, after the walk.  An
        // entry of owner `u` is consumed when `N_acq ≤ P_t[u]`: `last[u]`
        // is always below a later entry's `N_acq` (see `LockHistory`), so
        // it never decides the test.  `clock_joins` still counts one join
        // per consumed section, as the paper's algorithm performs.
        {
            let WcpState { locks, wcp, stats, queue_entries, .. } = self;
            let history = &mut locks[lock.index()].history;
            let mut cursor = history.cursor(index);
            let mut last: Option<&VectorClock> = None;
            for entry in history.entries.iter().skip(cursor - history.base) {
                if entry.thread != thread {
                    if entry.acq > wcp[index].get(entry.thread) {
                        break;
                    }
                    stats.clock_joins += 1;
                    *queue_entries -= 2;
                    last = Some(&entry.rel_hb);
                }
                cursor += 1;
            }
            if let Some(hb) = last {
                wcp[index].join(hb);
            }
            history.set_cursor(index, cursor);
        }
        // Garbage-collect entries every known thread has passed, requiring
        // at least one consumer other than the owner: that consumer's
        // release published `P_l ⊒ H_rel ⊒ C_acq`, so a thread discovered
        // later (which joins `P_l` before it can reach this queue) would
        // consume the entry as a no-op — dropping it cannot change any
        // verdict on well-formed traces.
        {
            let WcpState { locks, active, pool, config, .. } = self;
            let history = &mut locks[lock.index()].history;
            while let Some(front) = history.entries.front() {
                let position = history.base;
                let mut all_consumed = true;
                let mut nonowner_consumed = false;
                for (t, &is_active) in active.iter().enumerate() {
                    if !is_active || t == front.thread.index() {
                        continue;
                    }
                    if history.cursor(t) > position {
                        nonowner_consumed = true;
                    } else {
                        all_consumed = false;
                        break;
                    }
                }
                if !(all_consumed && nonowner_consumed) {
                    break;
                }
                let entry = history.entries.pop_front().expect("checked front");
                history.base += 1;
                if config.pool_clocks {
                    pool.put(entry.rel_hb);
                }
            }
        }

        // Record the HB time of this release against every variable its
        // critical section accessed (feeding Rule (a) for later accesses).
        {
            let WcpState { vars, hb, stats, .. } = self;
            let hb_time = &hb[index];
            for (set, write_side) in [(reads, false), (writes, true)] {
                for &var in set {
                    stats.clock_joins += 1;
                    if vars.len() <= var.index() {
                        vars.resize_with(var.index() + 1, VarState::default);
                    }
                    let state = &mut vars[var.index()];
                    state.rel_gen += 1;
                    let entry = state.rel_entry_mut(lock, thread);
                    let side = if write_side { &mut entry.write } else { &mut entry.read };
                    side.record(thread, hb_time);
                }
            }
        }

        // `H_l := H_t ; P_l := P_t`.
        {
            let WcpState { locks, hb, wcp, .. } = self;
            let state = &mut locks[lock.index()];
            state.hb.copy_from(&hb[index]);
            state.wcp.copy_from(&wcp[index]);
            state.released = true;
        }

        // Publish this closed critical section to the other threads.
        let acq = self.locks[lock.index()].open_stack(index).pop();
        if let Some(acq) = acq {
            let mut rel_hb = self.alloc_clock();
            rel_hb.copy_from(&self.hb[index]);
            self.locks[lock.index()].history.entries.push_back(SectionEntry {
                thread,
                acq,
                rel_hb,
            });
            let others = self.active_count.saturating_sub(1);
            self.queue_entries += 2 * others;
            self.stats.queue_enqueues += 2 * others as u64;
        }
        self.note_queue_sizes();

        // The local clock ticks just before the thread's next event.
        self.pending_increment[index] = true;
        self.version[index] += 1;
    }

    fn read(&mut self, event: &Event, var: VarId) {
        let thread = event.thread();
        let index = thread.index();
        self.ensure_var(var);
        let depth = self.lockctx.depth(thread);
        let WcpState { config, local, wcp, vars, lockctx, scratch, stats, sink, version, .. } =
            self;
        let state = &mut vars[var.index()];
        let local = local[index];

        // Epoch fast path (see the module docs for why this is exact).
        if config.epoch_fast_paths {
            let now = Epoch::new(thread, version[index]);
            let cache = state.read_cache;
            // `W_x` unchanged, or grown only by this thread's race-free
            // write at the same version (then `W_x ⊑ C_t` still holds).
            let writes_clean = cache.write_gen == state.write_gen
                || (state.write_cache.epoch == now
                    && state.write_cache.write_gen == state.write_gen);
            if cache.epoch == now && writes_clean && (depth == 0 || cache.rel_gen == state.rel_gen)
            {
                stats.clock_joins += 1 + u64::from(cache.rule_a_joins);
                stats.epoch_fast_reads += 1;
                state.reads.store(index, local, event);
                return;
            }
        }

        // Rule (a): receive the HB times of earlier releases, *by other
        // threads*, whose critical sections wrote `var`, for every lock
        // currently held (a same-thread critical section cannot contain an
        // event conflicting with this read).
        let mut rule_a_joins = 0u32;
        if depth > 0 && state.rel_from_others(thread) {
            for lock in lockctx.held_iter(thread) {
                let Some(entry) = state.rel_entry(lock) else {
                    continue;
                };
                let clock = entry.write.for_access(thread);
                if !clock.is_empty() {
                    stats.clock_joins += 1;
                    rule_a_joins += 1;
                    wcp[index].join(clock);
                }
            }
            if rule_a_joins > 0 {
                version[index] += 1;
            }
        }
        // `C_t`, staged without allocating.
        scratch.copy_from(&wcp[index]);
        scratch.set(thread, local);

        // Race check: all earlier writes must be WCP-ordered before us.
        let raced = !state.write_clock.le(scratch);
        if raced {
            state.writes.record_races(scratch, event, var, RaceKind::Wcp, sink);
        }

        // Update `R_x` and the access history.
        stats.clock_joins += 1;
        state.read_clock.join(scratch);
        state.read_gen += 1;
        state.reads.store(index, local, event);
        state.read_cache = if raced {
            AccessCache::default()
        } else {
            AccessCache {
                epoch: Epoch::new(thread, version[index]),
                read_gen: state.read_gen,
                write_gen: state.write_gen,
                rel_gen: state.rel_gen,
                rule_a_joins,
            }
        };
        // Add `var` to the open sections' access sets (a fast-path hit's
        // cached access already did).
        lockctx.on_event(event);
    }

    fn write(&mut self, event: &Event, var: VarId) {
        let thread = event.thread();
        let index = thread.index();
        self.ensure_var(var);
        let depth = self.lockctx.depth(thread);
        let WcpState { config, local, wcp, vars, lockctx, scratch, stats, sink, version, .. } =
            self;
        let state = &mut vars[var.index()];
        let local = local[index];

        // Epoch fast path (see the module docs for why this is exact).
        if config.epoch_fast_paths {
            let now = Epoch::new(thread, version[index]);
            let cache = state.write_cache;
            // `R_x` unchanged, or grown *exactly once*, by this thread's
            // race-free read at the same version: the cached write verified
            // `R_x ⊑ C_t` and the own read then joined the same `C_t`, so
            // the bound still holds.  (Unlike the read-side fallback, the
            // own read proves nothing by itself — reads do not check `R_x` —
            // so every other growth in between must be ruled out.)
            let reads_clean = cache.read_gen == state.read_gen
                || (state.read_cache.epoch == now
                    && state.read_cache.read_gen == state.read_gen
                    && state.read_gen == cache.read_gen + 1);
            if cache.epoch == now
                && reads_clean
                && cache.write_gen == state.write_gen
                && (depth == 0 || cache.rel_gen == state.rel_gen)
            {
                stats.clock_joins += 1 + u64::from(cache.rule_a_joins);
                stats.epoch_fast_writes += 1;
                state.writes.store(index, local, event);
                return;
            }
        }

        // Rule (a): receive the HB times of earlier releases, *by other
        // threads*, whose critical sections read or wrote `var`, for every
        // lock currently held.
        let mut rule_a_joins = 0u32;
        if depth > 0 && state.rel_from_others(thread) {
            for lock in lockctx.held_iter(thread) {
                let Some(entry) = state.rel_entry(lock) else {
                    continue;
                };
                for side in [&entry.read, &entry.write] {
                    let clock = side.for_access(thread);
                    if !clock.is_empty() {
                        stats.clock_joins += 1;
                        rule_a_joins += 1;
                        wcp[index].join(clock);
                    }
                }
            }
            if rule_a_joins > 0 {
                version[index] += 1;
            }
        }
        // `C_t`, staged without allocating.
        scratch.copy_from(&wcp[index]);
        scratch.set(thread, local);

        // Race check: all earlier reads and writes must be ordered before us.
        let writes_unordered = !state.write_clock.le(scratch);
        let reads_unordered = !state.read_clock.le(scratch);
        let raced = writes_unordered || reads_unordered;
        if writes_unordered {
            state.writes.record_races(scratch, event, var, RaceKind::Wcp, sink);
        }
        if reads_unordered {
            state.reads.record_races(scratch, event, var, RaceKind::Wcp, sink);
        }

        // Update `W_x` and the access history.
        stats.clock_joins += 1;
        state.write_clock.join(scratch);
        state.write_gen += 1;
        state.writes.store(index, local, event);
        state.write_cache = if raced {
            AccessCache::default()
        } else {
            AccessCache {
                epoch: Epoch::new(thread, version[index]),
                read_gen: state.read_gen,
                write_gen: state.write_gen,
                rel_gen: state.rel_gen,
                rule_a_joins,
            }
        };
        // Add `var` to the open sections' access sets (a fast-path hit's
        // cached access already did).
        lockctx.on_event(event);
    }

    /// Fork/join events are not part of the paper's trace alphabet (§2.1) but
    /// are present in RVPredict-logged traces (§4).  Following the authors'
    /// RAPID tool, fork/join edges are treated as *hard* orderings included
    /// in WCP itself (a parent's pre-fork accesses can never race with the
    /// child), so the child receives the parent's full `C_t`, not just `P_t`.
    fn fork(&mut self, parent: ThreadId, child: ThreadId) {
        let p = parent.index();
        let c = child.index();
        // `H_p[p] == N_p` by construction, so `H_p` *is* the parent's HB
        // event time — join it directly, no clone.
        self.stats.clock_joins += 1;
        join_at(&mut self.hb, c, p);
        // The child's WCP clock receives `C_p = P_p[p := N_p]`.
        self.stats.clock_joins += 1;
        let pinned = self.wcp[c].get(parent).max(self.local[p]);
        join_at(&mut self.wcp, c, p);
        self.wcp[c].set(parent, pinned);
        // The parent's next event starts a new "epoch" so that the child's
        // knowledge of the parent stays strictly before it.
        self.local[p] += 1;
        let local = self.local[p];
        self.hb[p].set(parent, local);
        self.version[p] += 1;
        self.version[c] += 1;
    }

    /// See [`WcpState::fork`]: join edges are likewise hard orderings.
    fn join(&mut self, parent: ThreadId, child: ThreadId) {
        let p = parent.index();
        let c = child.index();
        self.stats.clock_joins += 1;
        join_at(&mut self.hb, p, c);
        self.stats.clock_joins += 1;
        let pinned = self.wcp[p].get(child).max(self.local[c]);
        join_at(&mut self.wcp, p, c);
        self.wcp[p].set(child, pinned);
        self.version[p] += 1;
    }
}

/// The push-based streaming core of Algorithm 1.
///
/// Feed events in trace order with [`WcpStream::on_event`]; each call
/// returns the races flagged at that event, [`WcpStream::sink`] holds the
/// per-pair race stats, and [`WcpStream::finish`] yields the run's
/// [`WcpStats`].  The stream never holds the trace: its live state is the
/// per-thread/per-lock clocks, the per-variable summary clocks, one race
/// entry per distinct pair, and the Rule (b) section FIFOs, whose occupancy
/// is reported in [`WcpStats`] (worst-case linear per Theorem 4, tiny in
/// practice — Table 1 column 11).
///
/// Threads may be *discovered mid-stream* (their first event, or a `fork`
/// targeting them, registers them), and on well-formed traces discovery
/// changes nothing: a Rule (b) entry is only garbage-collected after a
/// thread other than its owner consumed it, and that consumer's release
/// published `P_l ⊒ H_rel ⊒ C_acq` — so a later-discovered thread, which
/// joins `P_l` at its first acquire of the lock before it can ever walk the
/// lock's queue, would have consumed every dropped entry as a no-op (never
/// blocking on it, since `C_acq ⊑ P_l ⊑ C_t`).  Batch and discovery-mode
/// streams therefore report identical races, orderings and timestamps on
/// well-formed traces, fork-announced or not; only queue *telemetry* can
/// differ (fan-out is counted against the threads known at the time).
/// Malformed traces (a release without a matching acquire breaks mutual
/// exclusion, and with it the `P_l` monotonicity the argument rests on) keep
/// the pre-registered guarantee only.  [`WcpDetector`] pre-registers the
/// full thread set, making batch runs report the same races, orderings and
/// timestamps as the original whole-trace algorithm on traces that pass
/// [`Trace::validate`].
///
/// On traces that fail `validate`, verdicts may differ from the paper's
/// algorithm; the stream still takes every event without panicking.  Three
/// shortcuts rest on well-formedness: each Rule (a) (lock, variable) pair
/// keeps two release times per access kind, and the Rule (b) walk joins only
/// the last consumed section's release time, both of which stand for all
/// earlier releases only while one lock's releases form an HB chain; and
/// Rule (b) tests a queued acquire by its owner's component alone, which
/// decides the full comparison only when WCP is closed under left
/// composition with HB (the module docs summarize both arguments).
pub struct WcpStream {
    state: WcpState,
}

impl Default for WcpStream {
    fn default() -> Self {
        WcpStream::new()
    }
}

impl WcpStream {
    /// Creates a stream that discovers threads on the fly.
    pub fn new() -> Self {
        WcpStream::with_threads(0)
    }

    /// Creates a stream with `threads` threads pre-registered (ids
    /// `0..threads`); used by the batch wrapper so that Rule (b) fan-out
    /// telemetry matches the whole-trace algorithm exactly.
    pub fn with_threads(threads: usize) -> Self {
        WcpStream::with_config(threads, WcpConfig::default())
    }

    /// Creates a stream with an explicit [`WcpConfig`] (the differential
    /// suite uses [`WcpConfig::reference`] here).
    pub fn with_config(threads: usize, config: WcpConfig) -> Self {
        WcpStream { state: WcpState::new(threads, config) }
    }

    /// Processes one event, returning the races flagged at it.
    pub fn on_event(&mut self, event: &Event) -> &[Race] {
        let state = &mut self.state;
        state.sink.begin_event();
        let thread = event.thread();
        state.ensure_thread(thread);
        if let Some(target) = event.kind().target_thread() {
            state.ensure_thread(target);
        }
        state.apply_pending_increment(thread);
        state.stats.events += 1;

        match event.kind() {
            EventKind::Acquire(lock) => {
                state.acquire(thread, lock);
                state.lockctx.on_event(event);
            }
            EventKind::Release(lock) => match state.lockctx.on_event(event) {
                Some(section) => {
                    state.release(thread, lock, &section.reads, &section.writes);
                    state.lockctx.recycle(section);
                }
                None => state.release(thread, lock, &[], &[]),
            },
            EventKind::Read(var) => state.read(event, var),
            EventKind::Write(var) => state.write(event, var),
            EventKind::Fork(child) => state.fork(thread, child),
            EventKind::Join(child) => state.join(thread, child),
        }

        self.state.sink.fresh()
    }

    /// The WCP time `C_t` of `thread` after the last processed event
    /// (`thread` must have been seen).  Used to collect per-event timestamps.
    pub fn current_time(&self, thread: ThreadId) -> VectorClock {
        self.state.current_time(thread)
    }

    /// Number of events processed so far.
    pub fn events_seen(&self) -> usize {
        self.state.stats.events
    }

    /// The stream's race accounting: per-pair stats and the races of the
    /// last event.
    pub fn sink(&self) -> &RaceSink {
        &self.state.sink
    }

    /// Live logical occupancy of the Rule (b) queues — the quantity whose
    /// maximum Table 1 column 11 reports.  Bounded-memory tests watch this.
    pub fn live_queue_entries(&self) -> usize {
        self.state.queue_entries
    }

    /// Number of Rule (b) section entries currently retained across all
    /// locks (each entry is stored once, independent of the thread count).
    pub fn retained_sections(&self) -> usize {
        self.state.locks.iter().map(|lock| lock.history.entries.len()).sum()
    }

    /// Ends the stream, returning its telemetry.  Thread and lock counts
    /// reflect what the stream has seen.
    pub fn finish(&mut self) -> WcpStats {
        let state = &mut self.state;
        state.stats.threads = state.active_count;
        state.stats.locks = state.locks_seen;
        state.stats.race_events = state.sink.race_events();
        state.stats.pool_taken = state.pool.taken();
        state.stats.pool_recycled = state.pool.recycled();
        std::mem::take(&mut state.stats)
    }
}

impl WcpDetector {
    /// Creates a detector.
    pub fn new() -> Self {
        WcpDetector::default()
    }

    /// Runs Algorithm 1 over `trace`, returning races and telemetry.
    pub fn analyze(&self, trace: &Trace) -> WcpOutcome {
        self.run(trace, false)
    }

    /// Like [`WcpDetector::analyze`] but also collects the WCP timestamp of
    /// every event (linear extra memory; used by tests, the reference-closure
    /// cross-check and the offline race-pair pass).
    pub fn analyze_with_timestamps(&self, trace: &Trace) -> WcpOutcome {
        self.run(trace, true)
    }

    /// Convenience wrapper returning only the race report.
    pub fn detect(&self, trace: &Trace) -> RaceReport {
        self.analyze(trace).report
    }

    fn run(&self, trace: &Trace, keep_timestamps: bool) -> WcpOutcome {
        let mut stream = WcpStream::with_threads(trace.num_threads());
        let mut report = RaceReport::new();
        let mut timestamps = keep_timestamps.then(|| Vec::with_capacity(trace.len()));

        for event in trace.events() {
            report.extend(stream.on_event(event));
            if let Some(timestamps) = timestamps.as_mut() {
                timestamps.push(stream.current_time(event.thread()));
            }
        }

        let mut stats = stream.finish();
        // The batch run knows the trace's full alphabet; report it even for
        // threads/locks that are interned but never perform an event.
        stats.threads = trace.num_threads();
        stats.locks = trace.num_locks();
        WcpOutcome { report, stats, timestamps: timestamps.map(WcpTimestamps::new) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_gen::figures;
    use rapid_gen::lower_bound::{bits_of, lower_bound_trace};
    use rapid_gen::random::RandomTraceConfig;
    use rapid_hb::HbDetector;
    use rapid_trace::{EventId, TraceBuilder};
    use std::collections::BTreeSet;

    fn racy_variables(report: &RaceReport) -> BTreeSet<VarId> {
        report.races().iter().map(|race| race.variable).collect()
    }

    fn race_key(race: &Race) -> (EventId, EventId, VarId) {
        (race.first, race.second, race.variable)
    }

    fn key(report: &RaceReport) -> BTreeSet<(EventId, EventId, VarId)> {
        report.races().iter().map(race_key).collect()
    }

    /// The race events of a discovery-mode stream (no threads registered).
    fn discovery_run(trace: &Trace) -> BTreeSet<(EventId, EventId, VarId)> {
        let mut stream = WcpStream::new();
        trace
            .events()
            .iter()
            .flat_map(|event| stream.on_event(event).to_vec())
            .map(|race| race_key(&race))
            .collect()
    }

    #[test]
    fn detects_unprotected_race() {
        let mut b = TraceBuilder::new();
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        let x = b.variable("x");
        b.write(t1, x);
        b.write(t2, x);
        let outcome = WcpDetector::new().analyze(&b.finish());
        assert_eq!(outcome.report.distinct_pairs(), 1);
        assert_eq!(outcome.stats.race_events, 1);
    }

    #[test]
    fn lock_protected_conflicting_accesses_do_not_race() {
        // Figure 1a's pattern: conflicting accesses inside critical sections
        // over the same lock are WCP ordered by Rule (a).
        let figure = figures::figure_1a();
        let outcome = WcpDetector::new().analyze(&figure.trace);
        assert!(outcome.report.is_empty());
    }

    #[test]
    fn focal_pair_verdicts_match_the_paper_on_all_figures() {
        for figure in figures::paper_figures() {
            let outcome = WcpDetector::new().analyze_with_timestamps(&figure.trace);
            let timestamps = outcome.timestamps.expect("timestamps requested");
            assert_eq!(
                timestamps.unordered(figure.first, figure.second),
                figure.wcp_race,
                "{}: WCP verdict on the focal pair should be {}",
                figure.name,
                figure.wcp_race
            );
        }
    }

    #[test]
    fn figure_2b_race_is_reported_with_the_right_locations() {
        let figure = figures::figure_2b();
        let report = WcpDetector::new().detect(&figure.trace);
        assert_eq!(report.distinct_pairs(), 1);
        let race = report.races()[0];
        assert_eq!(race.first, figure.first);
        assert_eq!(race.second, figure.second);
        assert_eq!(race.kind, RaceKind::Wcp);
    }

    #[test]
    fn every_hb_race_is_a_wcp_race_on_random_traces() {
        for seed in 0..10 {
            let config = RandomTraceConfig {
                seed,
                events: 400,
                threads: 4,
                locks: 3,
                variables: 6,
                disciplined_probability: 0.5,
                ..RandomTraceConfig::default()
            };
            let trace = config.generate();
            let hb = HbDetector::new().detect(&trace);
            let wcp = WcpDetector::new().detect(&trace);
            let hb_vars = racy_variables(&hb);
            let wcp_vars = racy_variables(&wcp);
            assert!(
                hb_vars.is_subset(&wcp_vars),
                "seed {seed}: HB races {hb_vars:?} must be a subset of WCP races {wcp_vars:?}"
            );
        }
    }

    #[test]
    fn wcp_timestamps_refine_hb_timestamps() {
        // ≤WCP ⊆ ≤HB: whenever WCP orders a pair, HB orders it too.
        for seed in 0..5 {
            let config = RandomTraceConfig { seed, events: 200, ..RandomTraceConfig::default() };
            let trace = config.generate();
            let wcp = WcpDetector::new().analyze_with_timestamps(&trace);
            let wcp_times = wcp.timestamps.unwrap();
            let (_, hb_times) = HbDetector::new().detect_with_timestamps(&trace);
            for (i, a) in trace.events().iter().enumerate() {
                for b in trace.events().iter().skip(i + 1) {
                    if a.thread() == b.thread() {
                        continue;
                    }
                    if wcp_times.ordered(a.id(), b.id()) {
                        assert!(
                            hb_times.ordered(a.id(), b.id()),
                            "seed {seed}: {} ≤WCP {} but not ≤HB",
                            a.id(),
                            b.id()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lower_bound_family_races_iff_strings_differ() {
        for bits in 1..=3 {
            for u in 0..(1u64 << bits) {
                for v in 0..(1u64 << bits) {
                    let instance = lower_bound_trace(&bits_of(u, bits), &bits_of(v, bits));
                    let outcome = WcpDetector::new().analyze_with_timestamps(&instance.trace);
                    let timestamps = outcome.timestamps.unwrap();
                    let ordered =
                        timestamps.ordered(instance.first_write_z, instance.second_write_z);
                    assert_eq!(
                        ordered,
                        instance.expect_ordered(),
                        "u={u:0width$b} v={v:0width$b}: the w(z) events should be {} (Theorem 4 reduction)",
                        if instance.expect_ordered() { "ordered" } else { "unordered" },
                        width = bits
                    );
                }
            }
        }
    }

    #[test]
    fn queue_telemetry_is_collected() {
        let figure = figures::figure_6();
        let outcome = WcpDetector::new().analyze(&figure.trace);
        assert!(outcome.stats.queue_enqueues > 0);
        assert!(outcome.stats.max_queue_entries > 0);
        assert!(outcome.stats.max_queue_fraction() > 0.0);
        assert_eq!(outcome.stats.events, figure.trace.len());
    }

    #[test]
    fn queue_entries_are_published_at_release() {
        // The normative `max_queue_entries` definition (see `WcpStats`): a
        // critical section contributes nothing while open and 2 entries per
        // other known thread once its release closes it.
        let mut b = TraceBuilder::new();
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        let l = b.lock("l");
        let x = b.variable("x");
        b.write(t2, x); // make t2 known before the section opens
        b.acquire(t1, l);
        b.write(t1, x);
        b.release(t1, l);
        let trace = b.finish();

        let mut stream = WcpStream::with_threads(trace.num_threads());
        stream.on_event(&trace[0]);
        stream.on_event(&trace[1]);
        stream.on_event(&trace[2]);
        assert_eq!(stream.live_queue_entries(), 0, "open sections contribute no queue entries");
        stream.on_event(&trace[3]);
        assert_eq!(
            stream.live_queue_entries(),
            2,
            "a closed section costs 2 entries per other known thread"
        );
        let stats = stream.finish();
        assert_eq!(stats.max_queue_entries, 2);
        assert_eq!(stats.queue_enqueues, 2);
    }

    #[test]
    fn fork_join_edges_are_respected() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main");
        let worker = b.thread("worker");
        let x = b.variable("x");
        b.write(main, x);
        b.fork(main, worker);
        b.write(worker, x);
        b.join(main, worker);
        b.write(main, x);
        let report = WcpDetector::new().detect(&b.finish());
        assert!(report.is_empty(), "fork/join order all accesses");
    }

    #[test]
    fn far_apart_races_are_found_without_windowing() {
        let mut b = TraceBuilder::new();
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        let t3 = b.thread("t3");
        let l = b.lock("l");
        let x = b.variable("x");
        let counter = b.variable("counter");
        b.write(t1, x);
        for i in 0..5_000 {
            let thread = if i % 2 == 0 { t1 } else { t3 };
            b.critical_section(thread, l, |b| {
                b.read(thread, counter);
                b.write(thread, counter);
            });
        }
        b.read(t2, x);
        let report = WcpDetector::new().detect(&b.finish());
        assert_eq!(report.distinct_pairs(), 1);
        assert!(report.max_distance() > 10_000);
    }

    #[test]
    fn streaming_rule_b_queues_stay_bounded_when_sections_drain() {
        // Two threads alternating over one lock: every section is consumed
        // by the other thread's next release, so the retained history stays
        // O(1) no matter how long the stream runs.
        let mut b = TraceBuilder::new();
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        let l = b.lock("l");
        let x = b.variable("x");
        for _ in 0..2_000 {
            b.critical_section(t1, l, |b| {
                b.write(t1, x);
            });
            b.critical_section(t2, l, |b| {
                b.write(t2, x);
            });
        }
        let trace = b.finish();
        let mut stream = WcpStream::with_threads(trace.num_threads());
        let mut max_retained = 0;
        for event in trace.events() {
            stream.on_event(event);
            max_retained = max_retained.max(stream.retained_sections());
        }
        assert!(
            max_retained <= 4,
            "retained Rule (b) sections must not scale with the trace: {max_retained}"
        );
    }

    #[test]
    fn steady_state_reuses_pooled_clocks() {
        // Once the alternating pattern warms up, every Rule (b) snapshot
        // comes out of the pool — the recycle rate approaches 100%.
        let mut b = TraceBuilder::new();
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        let l = b.lock("l");
        let x = b.variable("x");
        for _ in 0..1_000 {
            b.critical_section(t1, l, |b| {
                b.write(t1, x);
            });
            b.critical_section(t2, l, |b| {
                b.write(t2, x);
            });
        }
        let stats = WcpDetector::new().analyze(&b.finish()).stats;
        assert!(stats.pool_taken > 1_000);
        assert!(
            stats.pool_hit_rate() > 0.99,
            "steady-state snapshots must recycle: hit rate {:.4} ({} / {})",
            stats.pool_hit_rate(),
            stats.pool_recycled,
            stats.pool_taken
        );
    }

    #[test]
    fn epoch_fast_paths_fire_on_repeated_accesses() {
        let mut b = TraceBuilder::new();
        let t1 = b.thread("t1");
        let x = b.variable("x");
        for _ in 0..100 {
            b.read(t1, x);
            b.write(t1, x);
        }
        let stats = WcpDetector::new().analyze(&b.finish()).stats;
        // First read and first write are slow (cache cold); every repeat in
        // the unchanged-epoch run hits.
        assert_eq!(stats.epoch_fast_reads, 99);
        assert_eq!(stats.epoch_fast_writes, 99);
    }

    #[test]
    fn thread_discovery_matches_preregistration_on_announced_traces() {
        // A stream that learns threads from the events agrees exactly with
        // the pre-registered batch wrapper when threads are *announced*
        // before any lock activity (the fork-before-use pattern of real
        // traces): every Rule (b) cursor then starts at entry zero on both
        // sides.
        for seed in 0..10 {
            let config = RandomTraceConfig {
                seed,
                events: 300,
                threads: 4,
                locks: 2,
                variables: 5,
                disciplined_probability: 0.4,
                ..RandomTraceConfig::default()
            };
            let body = config.generate();
            let mut announced = String::new();
            for t in 1..body.num_threads() {
                announced.push_str(&format!("t0|fork(t{t})\n"));
            }
            announced.push_str(&rapid_trace::format::write_std(&body));
            let trace = rapid_trace::format::parse_std(&announced).expect("valid trace text");

            let batch = WcpDetector::new().detect(&trace);
            let streamed = discovery_run(&trace);
            assert_eq!(
                key(&batch),
                streamed,
                "seed {seed}: discovery-mode stream diverged from batch"
            );
        }
    }

    #[test]
    fn thread_discovery_matches_preregistration_on_unannounced_traces() {
        // The stronger guarantee: even *without* a fork prologue — threads
        // pop into existence mid-stream, after lock sections were already
        // published, consumed and possibly garbage-collected — the
        // discovery-mode stream must report exactly the batch races.  The
        // Rule (b) GC policy (retain a section until a non-owner consumed
        // it) is what makes this exact; see the `WcpStream` docs.
        for seed in 0..25 {
            let config = RandomTraceConfig {
                seed,
                events: 400,
                threads: 4,
                locks: 3,
                variables: 5,
                disciplined_probability: 0.5,
                ..RandomTraceConfig::default()
            };
            let trace = config.generate();

            let batch = WcpDetector::new().detect(&trace);
            let streamed = discovery_run(&trace);
            assert_eq!(
                key(&batch),
                streamed,
                "seed {seed}: unannounced-thread stream diverged from batch"
            );
        }
    }

    #[test]
    fn unannounced_thread_after_drained_sections_sees_batch_verdicts() {
        // The regression shape for mid-stream discovery: t1/t2 churn through
        // a lock long enough for every section to be consumed and collected,
        // then t3 appears out of nowhere and immediately uses the lock.  In
        // batch mode t3's cursor pins the whole history; in discovery mode
        // the history is long gone — the verdicts must match anyway.
        let mut b = TraceBuilder::new();
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        let t3 = b.thread("t3");
        let l = b.lock("l");
        let x = b.variable("x");
        let y = b.variable("y");
        for _ in 0..50 {
            b.critical_section(t1, l, |b| {
                b.write(t1, x);
            });
            b.critical_section(t2, l, |b| {
                b.write(t2, x);
            });
        }
        // t3's first events ever: a racy unprotected access plus a guarded
        // one that Rule (a)/(b) must order exactly as batch does.
        b.write(t3, y);
        b.critical_section(t3, l, |b| {
            b.write(t3, x);
        });
        b.read(t1, y);
        let trace = b.finish();

        let batch = WcpDetector::new().detect(&trace);
        let mut stream = WcpStream::new();
        let mut max_retained = 0;
        let mut streamed = BTreeSet::new();
        for event in trace.events() {
            streamed.extend(stream.on_event(event).iter().map(race_key));
            max_retained = max_retained.max(stream.retained_sections());
        }
        assert!(max_retained <= 4, "sections must still drain: {max_retained}");
        assert_eq!(key(&batch), streamed);
    }
}
