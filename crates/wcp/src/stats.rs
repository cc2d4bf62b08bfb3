//! Telemetry collected while running the WCP vector-clock algorithm.

use std::fmt;

/// Counters describing one run of [`WcpDetector`](crate::WcpDetector).
///
/// The paper reports the maximum total length of the `Acq`/`Rel` FIFO queues
/// as a fraction of the number of events (Table 1, column 11) to show that
/// the worst-case linear space bound (Theorem 4) is not reached in practice;
/// [`WcpStats::max_queue_fraction`] reproduces that number.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WcpStats {
    /// Number of events processed.
    pub events: usize,
    /// Number of threads seen.
    pub threads: usize,
    /// Number of locks seen.
    pub locks: usize,
    /// Number of race events reported (not deduplicated by location pair).
    pub race_events: usize,
    /// Total number of entries ever enqueued into the acquire/release queues.
    pub queue_enqueues: u64,
    /// Maximum number of entries simultaneously resident across all
    /// `Acq_l(t)` and `Rel_l(t)` queues (Column 11's numerator).
    ///
    /// **Normative definition** (publish-at-release semantics, fixed since
    /// PR 7 so the stat stops drifting across refactors): an open critical
    /// section contributes *nothing*; when a release closes a section over
    /// lock `l`, the section's `(C_acq, H_rel)` pair becomes pending for
    /// every *other* thread known at that moment — `2 × (T_known − 1)`
    /// logical entries, matching the paper's one `Acq_l(t)` plus one
    /// `Rel_l(t)` entry per consumer.  A thread discovered later adds 2
    /// entries per retained section it has yet to consume, at discovery
    /// time.  Entries leave the count when their consumer's Rule (b) cursor
    /// passes them (the paper's dequeue).  PR 1 counted an open acquire's
    /// snapshot as resident before the release; that phantom entry was never
    /// consumable by anyone and is *not* counted.
    pub max_queue_entries: usize,
    /// Number of vector-clock join operations performed (a proxy for the
    /// `O(N·(T² + L))` bound of Theorem 3).  Mode-independent: an epoch
    /// fast-path hit counts the joins the full pipeline would have done.
    ///
    /// A Rule (a) join is one non-empty release summary joined into an
    /// access: per held lock, the writes' summary for a read and the reads'
    /// and writes' summaries for a write, whatever the number of threads
    /// that released the lock.  A release counts one join per variable its
    /// critical section read and one per variable it wrote.
    pub clock_joins: u64,
    /// Read events answered by the O(1) epoch fast path (no clock work).
    pub epoch_fast_reads: u64,
    /// Write events answered by the O(1) epoch fast path (no clock work).
    pub epoch_fast_writes: u64,
    /// Rule (b) snapshot clocks requested from the [`rapid_vc::ClockPool`].
    pub pool_taken: u64,
    /// Requests served by recycling instead of allocating.
    pub pool_recycled: u64,
}

impl WcpStats {
    /// Column 11 of Table 1: the maximum queue occupancy as a fraction of the
    /// number of events.
    pub fn max_queue_fraction(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.max_queue_entries as f64 / self.events as f64
        }
    }

    /// Column 11 as a percentage (the paper prints percentages).
    pub fn max_queue_percentage(&self) -> f64 {
        self.max_queue_fraction() * 100.0
    }

    /// Fraction of accesses answered by the epoch fast paths.
    pub fn epoch_hit_rate(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            (self.epoch_fast_reads + self.epoch_fast_writes) as f64 / self.events as f64
        }
    }

    /// Fraction of pool takes served from recycled clocks (1.0 = the steady
    /// state allocates nothing).
    pub fn pool_hit_rate(&self) -> f64 {
        if self.pool_taken == 0 {
            0.0
        } else {
            self.pool_recycled as f64 / self.pool_taken as f64
        }
    }

    /// Folds another run's counters into this one: totals (`events`,
    /// `race_events`, `queue_enqueues`, `clock_joins`, the epoch fast-path
    /// and pool counters) sum; cardinalities and peaks (`threads`, `locks`,
    /// `max_queue_entries`) keep the maximum, so the merged
    /// `threads`/`locks` are a *lower bound* when runs cover disjoint
    /// shards.  Note the derived ratio
    /// [`max_queue_percentage`](WcpStats::max_queue_percentage) of a merged
    /// struct is `max(entries) / summed(events)` — a whole-workload
    /// occupancy — whereas the engine's metric layer merges the ratio as
    /// worst-shard `Max`; both semantics are deliberate and test-pinned in
    /// `rapid-engine`.
    pub fn merge(&mut self, other: &WcpStats) {
        self.events += other.events;
        self.threads = self.threads.max(other.threads);
        self.locks = self.locks.max(other.locks);
        self.race_events += other.race_events;
        self.queue_enqueues += other.queue_enqueues;
        self.max_queue_entries = self.max_queue_entries.max(other.max_queue_entries);
        self.clock_joins += other.clock_joins;
        self.epoch_fast_reads += other.epoch_fast_reads;
        self.epoch_fast_writes += other.epoch_fast_writes;
        self.pool_taken += other.pool_taken;
        self.pool_recycled += other.pool_recycled;
    }
}

impl fmt::Display for WcpStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} events, {} threads, {} locks, {} race events, max queue {:.2}% of events, {} joins, {:.1}% epoch hits, {:.1}% pool hits",
            self.events,
            self.threads,
            self.locks,
            self.race_events,
            self.max_queue_percentage(),
            self.clock_joins,
            self.epoch_hit_rate() * 100.0,
            self.pool_hit_rate() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_fraction_handles_empty_run() {
        let stats = WcpStats::default();
        assert_eq!(stats.max_queue_fraction(), 0.0);
        assert_eq!(stats.max_queue_percentage(), 0.0);
        assert_eq!(stats.epoch_hit_rate(), 0.0);
        assert_eq!(stats.pool_hit_rate(), 0.0);
    }

    #[test]
    fn queue_fraction_is_ratio_of_events() {
        let stats = WcpStats { events: 200, max_queue_entries: 10, ..WcpStats::default() };
        assert!((stats.max_queue_fraction() - 0.05).abs() < 1e-9);
        assert!((stats.max_queue_percentage() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn merge_sums_totals_and_keeps_peaks() {
        let mut left = WcpStats {
            events: 100,
            threads: 2,
            locks: 3,
            race_events: 1,
            queue_enqueues: 10,
            max_queue_entries: 4,
            clock_joins: 20,
            epoch_fast_reads: 8,
            epoch_fast_writes: 2,
            pool_taken: 6,
            pool_recycled: 5,
        };
        let right = WcpStats {
            events: 50,
            threads: 5,
            locks: 1,
            race_events: 2,
            queue_enqueues: 5,
            max_queue_entries: 9,
            clock_joins: 7,
            epoch_fast_reads: 1,
            epoch_fast_writes: 3,
            pool_taken: 4,
            pool_recycled: 4,
        };
        left.merge(&right);
        assert_eq!(left.events, 150);
        assert_eq!(left.threads, 5);
        assert_eq!(left.locks, 3);
        assert_eq!(left.race_events, 3);
        assert_eq!(left.queue_enqueues, 15);
        assert_eq!(left.max_queue_entries, 9);
        assert_eq!(left.clock_joins, 27);
        assert_eq!(left.epoch_fast_reads, 9);
        assert_eq!(left.epoch_fast_writes, 5);
        assert_eq!(left.pool_taken, 10);
        assert_eq!(left.pool_recycled, 9);
    }

    #[test]
    fn display_mentions_queue_percentage() {
        let stats = WcpStats { events: 100, max_queue_entries: 3, ..WcpStats::default() };
        assert!(stats.to_string().contains("3.00%"));
    }

    #[test]
    fn hit_rates_are_fractions_of_their_bases() {
        let stats = WcpStats {
            events: 100,
            epoch_fast_reads: 30,
            epoch_fast_writes: 20,
            pool_taken: 10,
            pool_recycled: 9,
            ..WcpStats::default()
        };
        assert!((stats.epoch_hit_rate() - 0.5).abs() < 1e-9);
        assert!((stats.pool_hit_rate() - 0.9).abs() < 1e-9);
    }
}
