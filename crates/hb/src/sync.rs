//! The thread and lock clocks both HB detectors synchronize through.

use rapid_trace::EventKind;
use rapid_vc::{join_at, ThreadId, VectorClock};

/// `C_t` per thread and `L_l` (the clock of the last release) per lock,
/// dense by id.  [`HbStream`](crate::HbStream) and
/// [`FastTrackStream`](crate::FastTrackStream) apply acquire, release, fork
/// and join through it and differ only in how they track accesses.
///
/// Threads are registered on first sight at local time 1, so "never
/// communicated" components (0) compare strictly below every real access.
/// A lock that was never released keeps a bottom clock, which an acquire
/// joins as a no-op.
#[derive(Debug, Default)]
pub(crate) struct SyncClocks {
    threads: Vec<VectorClock>,
    locks: Vec<VectorClock>,
}

impl SyncClocks {
    /// Clocks with threads `0..threads` registered up front.
    pub(crate) fn with_threads(threads: usize) -> Self {
        let mut clocks = SyncClocks::default();
        clocks.ensure(threads.max(1) - 1);
        clocks
    }

    fn ensure(&mut self, thread: usize) {
        for t in self.threads.len()..=thread {
            self.threads.push(VectorClock::singleton(ThreadId::new(t as u32), 1));
        }
    }

    /// `C_t`, registering `thread` if it is new.
    pub(crate) fn clock(&mut self, thread: ThreadId) -> &VectorClock {
        self.ensure(thread.index());
        &self.threads[thread.index()]
    }

    /// Applies a synchronization event of `thread`; accesses are ignored.
    pub(crate) fn synchronize(&mut self, thread: ThreadId, kind: EventKind) {
        let t = thread.index();
        self.ensure(t.max(kind.target_thread().map_or(0, ThreadId::index)));
        let SyncClocks { threads, locks } = self;
        match kind {
            EventKind::Acquire(lock) => {
                if let Some(released) = locks.get(lock.index()) {
                    threads[t].join(released);
                }
            }
            EventKind::Release(lock) => {
                dense_slot(locks, lock.index()).copy_from(&threads[t]);
                threads[t].tick(thread);
            }
            EventKind::Fork(child) => {
                join_at(threads, child.index(), t);
                threads[t].tick(thread);
            }
            EventKind::Join(child) => join_at(threads, t, child.index()),
            EventKind::Read(_) | EventKind::Write(_) => {}
        }
    }
}

/// `table[index]`, growing the table with defaults through `index`.
pub(crate) fn dense_slot<T: Default>(table: &mut Vec<T>, index: usize) -> &mut T {
    if table.len() <= index {
        table.resize_with(index + 1, T::default);
    }
    &mut table[index]
}
