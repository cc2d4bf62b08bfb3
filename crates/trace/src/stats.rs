//! Summary statistics of a trace (Table 1, columns 3–5).

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::event::EventKind;
use crate::trace::Trace;

/// Counts of events, threads, locks and variables in a trace.
///
/// These are the per-benchmark characteristics reported in columns 3–5 of
/// the paper's Table 1 (#events, #threads, #locks), plus a few extra counts
/// that are useful when sizing generated workloads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total number of events.
    pub events: usize,
    /// Number of threads that perform at least one event.
    pub threads: usize,
    /// Number of distinct locks acquired or released.
    pub locks: usize,
    /// Number of distinct variables read or written.
    pub variables: usize,
    /// Number of read events.
    pub reads: usize,
    /// Number of write events.
    pub writes: usize,
    /// Number of acquire events.
    pub acquires: usize,
    /// Number of release events.
    pub releases: usize,
    /// Number of fork events.
    pub forks: usize,
    /// Number of join events.
    pub joins: usize,
    /// Variables accessed by more than one thread with at least one write.
    pub shared_variables: usize,
    /// Number of critical sections (matched acquire/release pairs plus
    /// unmatched trailing acquires).
    pub critical_sections: usize,
}

impl TraceStats {
    /// Computes the statistics of `trace`.
    pub fn of(trace: &Trace) -> Self {
        let mut stats = TraceStats { events: trace.len(), ..TraceStats::default() };
        let mut threads = HashSet::new();
        let mut locks = HashSet::new();
        let mut variables = HashSet::new();
        let mut accessors: HashMap<_, HashSet<_>> = HashMap::new();
        let mut written: HashSet<_> = HashSet::new();

        for event in trace.events() {
            threads.insert(event.thread());
            match event.kind() {
                EventKind::Acquire(lock) => {
                    stats.acquires += 1;
                    stats.critical_sections += 1;
                    locks.insert(lock);
                }
                EventKind::Release(lock) => {
                    stats.releases += 1;
                    locks.insert(lock);
                }
                EventKind::Read(var) => {
                    stats.reads += 1;
                    variables.insert(var);
                    accessors.entry(var).or_default().insert(event.thread());
                }
                EventKind::Write(var) => {
                    stats.writes += 1;
                    variables.insert(var);
                    accessors.entry(var).or_default().insert(event.thread());
                    written.insert(var);
                }
                EventKind::Fork(_) => stats.forks += 1,
                EventKind::Join(_) => stats.joins += 1,
            }
        }

        stats.threads = threads.len();
        stats.locks = locks.len();
        stats.variables = variables.len();
        stats.shared_variables = accessors
            .iter()
            .filter(|(var, threads)| threads.len() > 1 && written.contains(*var))
            .count();
        stats
    }

    /// Number of access (read/write) events.
    pub fn accesses(&self) -> usize {
        self.reads + self.writes
    }

    /// Number of synchronization (acquire/release/fork/join) events.
    pub fn sync_events(&self) -> usize {
        self.acquires + self.releases + self.forks + self.joins
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} events, {} threads, {} locks, {} variables ({} shared), {} reads, {} writes, {} critical sections",
            self.events,
            self.threads,
            self.locks,
            self.variables,
            self.shared_variables,
            self.reads,
            self.writes,
            self.critical_sections
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceBuilder;

    #[test]
    fn counts_all_event_kinds() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main");
        let worker = b.thread("worker");
        let l = b.lock("l");
        let x = b.variable("x");
        let y = b.variable("y");
        b.fork(main, worker);
        b.acquire(main, l);
        b.write(main, x);
        b.release(main, l);
        b.acquire(worker, l);
        b.read(worker, x);
        b.release(worker, l);
        b.write(worker, y);
        b.join(main, worker);
        let stats = b.finish().stats();

        assert_eq!(stats.events, 9);
        assert_eq!(stats.threads, 2);
        assert_eq!(stats.locks, 1);
        assert_eq!(stats.variables, 2);
        assert_eq!(stats.reads, 1);
        assert_eq!(stats.writes, 2);
        assert_eq!(stats.acquires, 2);
        assert_eq!(stats.releases, 2);
        assert_eq!(stats.forks, 1);
        assert_eq!(stats.joins, 1);
        assert_eq!(stats.critical_sections, 2);
        assert_eq!(stats.accesses(), 3);
        assert_eq!(stats.sync_events(), 6);
    }

    #[test]
    fn shared_variables_require_write_and_two_threads() {
        let mut b = TraceBuilder::new();
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        let shared = b.variable("shared");
        let read_only = b.variable("read_only");
        let local = b.variable("local");
        b.write(t1, shared);
        b.read(t2, shared);
        b.read(t1, read_only);
        b.read(t2, read_only);
        b.write(t1, local);
        b.read(t1, local);
        let stats = b.finish().stats();
        assert_eq!(stats.variables, 3);
        assert_eq!(stats.shared_variables, 1);
    }

    #[test]
    fn empty_trace_stats() {
        let stats = Trace::new().stats();
        assert_eq!(stats, TraceStats::default());
        assert!(stats.to_string().contains("0 events"));
    }
}
