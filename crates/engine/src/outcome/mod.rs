//! The mergeable [`Outcome`] algebra: name-keyed race pairs plus typed,
//! aggregatable metrics.
//!
//! # Merge semantics
//!
//! An [`Outcome`] is the unit of result reporting for one detector over one
//! trace *or* over any number of merged traces — the driver in
//! [`crate::driver`] folds per-shard outcomes into one aggregate with
//! [`Outcome::merge`].  For that fold to be meaningful across traces, nothing
//! in an outcome may reference per-trace ids (which are dense and
//! trace-local): race pairs are keyed by **interned names** — the variable
//! and the two program locations, resolved through a
//! [`NameResolver`] when the detector finishes —
//! and every metric carries its own aggregation rule.  Field by field:
//!
//! | field | merge rule |
//! |------------------------|-----------------------------------------------|
//! | `events`, `shards` | sum |
//! | `races` (pair → stats) | set union; colliding pairs merge their stats (race events sum, min distance min) |
//! | `metrics` | per-metric: [`Aggregation::Sum`] adds, [`Aggregation::Max`] takes the maximum |
//!
//! The fold is commutative up to floating-point rounding in `Sum` metrics;
//! the driver merges in deterministic (input) order so repeated runs are
//! bit-identical regardless of worker interleaving.
//!
//! # Name-keyed merging requires meaningful names
//!
//! Keying by names makes outcomes comparable across traces *exactly to the
//! extent the names identify program locations*.  Two label families are
//! only positional: events logged **without** a location get a synthetic
//! per-trace `line<N>` label (1-based event index; see `docs/FORMAT.md`
//! and [`TraceBuilder`](rapid_trace::TraceBuilder)), and ids missing from
//! the resolver fall back to their per-trace display form.  Such labels
//! coincide *positionally* across shards: merging shards of the **same
//! program** then deduplicates as intended, but shards of unrelated,
//! unlabeled programs will conflate races that happen to share an event
//! index (e.g. both keying as `x: line1 <-> line2`).  Log real source
//! locations — or distinct location names per shard — when merged counts
//! across heterogeneous programs must stay separate.  This semantics is
//! pinned by `driver::tests::unlocated_shards_merge_positionally`.

use std::collections::{btree_map, BTreeMap, BTreeSet};
use std::fmt;

use rapid_trace::{NameResolver, RaceSink};

/// Per-pair aggregates carried through merges — the same type the
/// detectors' [`RaceSink`]s keep per `(variable, location pair)`.
pub use rapid_trace::PairStats;

pub mod wire;

/// A race pair keyed by interned names, comparable across traces and shards.
///
/// The location pair is normalized so `first_location <= second_location`
/// **lexicographically by name** (not by per-trace id), making the key —
/// and any `BTreeMap` ordered by it — independent of interning order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RacePair {
    /// Name of the variable both accesses touch.
    pub variable: String,
    /// The lexicographically smaller program-location name.
    pub first_location: String,
    /// The lexicographically larger program-location name.
    pub second_location: String,
}

impl RacePair {
    /// Builds a pair from unordered location names, normalizing the order.
    pub fn new(
        variable: impl Into<String>,
        location_a: impl Into<String>,
        location_b: impl Into<String>,
    ) -> Self {
        let (a, b) = (location_a.into(), location_b.into());
        let (first_location, second_location) = if a <= b { (a, b) } else { (b, a) };
        RacePair { variable: variable.into(), first_location, second_location }
    }
}

impl fmt::Display for RacePair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} <-> {}", self.variable, self.first_location, self.second_location)
    }
}

/// How a metric combines across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregation {
    /// Values add up (counters: race events, clock joins, windows, …).
    Sum,
    /// The largest value wins (peaks: queue occupancy, thread count, …).
    Max,
}

/// One typed telemetry value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The merge rule for this metric.
    pub aggregation: Aggregation,
    /// The current value.
    pub value: f64,
}

/// Typed, aggregatable telemetry counters, keyed by metric name.
///
/// Replaces the former `Vec<(&str, f64)>`: every entry now knows how it
/// merges ([`Aggregation::Sum`] or [`Aggregation::Max`]), so whole-suite
/// aggregates keep their meaning — peaks stay peaks, counters stay counters.
/// Ratios (e.g. WCP's `max_queue_percentage`) are recorded as `Max`: the
/// merged value reports the *worst shard*, not a meaningless averaged ratio.
///
/// Names are owned `String`s (not `&'static str`): metrics cross process
/// boundaries through the [`wire`] codec, and a decoded outcome must carry
/// whatever names the *sending* build recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    entries: BTreeMap<String, Metric>,
}

impl Metrics {
    /// Creates an empty metric set.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records a summing counter (overwrites any previous entry).
    pub fn record_sum(&mut self, name: impl Into<String>, value: f64) {
        self.record(name, Metric { aggregation: Aggregation::Sum, value });
    }

    /// Records a peak value (overwrites any previous entry).
    pub fn record_max(&mut self, name: impl Into<String>, value: f64) {
        self.record(name, Metric { aggregation: Aggregation::Max, value });
    }

    /// Records a metric with an explicit aggregation rule (overwrites any
    /// previous entry) — the entry point the wire decoder uses.
    pub fn record(&mut self, name: impl Into<String>, metric: Metric) {
        self.entries.insert(name.into(), metric);
    }

    /// Looks up a metric's value by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.get(name).map(|metric| metric.value)
    }

    /// Number of recorded metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true when no metric is recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.entries.iter().map(|(name, metric)| (name.as_str(), metric))
    }

    /// Folds `other` into `self`, field by field: `Sum` entries add, `Max`
    /// entries keep the maximum, entries absent on one side carry over.
    /// A metric must be recorded with the same aggregation on both sides
    /// (debug-asserted; release builds keep `self`'s rule).
    pub fn merge(&mut self, other: &Metrics) {
        for (name, metric) in &other.entries {
            match self.entries.entry(name.clone()) {
                btree_map::Entry::Vacant(slot) => {
                    slot.insert(*metric);
                }
                btree_map::Entry::Occupied(mut slot) => {
                    let entry = slot.get_mut();
                    debug_assert_eq!(
                        entry.aggregation, metric.aggregation,
                        "metric {name} merged with conflicting aggregations"
                    );
                    entry.value = match entry.aggregation {
                        Aggregation::Sum => entry.value + metric.value,
                        Aggregation::Max => entry.value.max(metric.value),
                    };
                }
            }
        }
    }
}

impl fmt::Display for Metrics {
    /// Renders `name=value` pairs in name order; integral values print
    /// without a fractional part.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (index, (name, metric)) in self.entries.iter().enumerate() {
            if index > 0 {
                f.write_str(", ")?;
            }
            if metric.value.fract() == 0.0 && metric.value.abs() < 1e15 {
                write!(f, "{name}={}", metric.value as i64)?;
            } else {
                write!(f, "{name}={:.2}", metric.value)?;
            }
        }
        Ok(())
    }
}

/// What a detector reports: a mergeable summary of one or more runs.
///
/// See the [module docs](self) for the merge semantics.  Everything here is
/// keyed by interned names, not trace-local ids, so outcomes from different
/// traces, readers and worker threads fold together losslessly.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The detector's display name (e.g. `wcp`, `mcm(w=1K,t=60s)`).
    pub detector: String,
    /// Number of per-trace runs folded into this outcome (1 for a single
    /// run; sums under merge).
    pub shards: usize,
    /// Number of events the detector processed (sums under merge).
    pub events: usize,
    /// Every distinct race pair, keyed by interned names, with per-pair
    /// aggregates (unions under merge).  `BTreeMap` keeps iteration — and
    /// therefore every rendering — deterministic.
    pub races: BTreeMap<RacePair, PairStats>,
    /// Typed telemetry counters (per-field sum/max under merge).
    pub metrics: Metrics,
}

impl Outcome {
    /// Builds a single-run outcome from a detector's id-keyed per-pair
    /// stats, resolving each pair's ids through `names` once — the boundary
    /// where per-trace ids leave the system.  Pairs whose names coincide
    /// merge their stats.
    pub fn from_sink(
        detector: impl Into<String>,
        events: usize,
        sink: &RaceSink,
        metrics: Metrics,
        names: &dyn NameResolver,
    ) -> Self {
        let mut races: BTreeMap<RacePair, PairStats> = BTreeMap::new();
        for ((variable, first, second), stats) in sink.pairs() {
            let pair = RacePair::new(
                names.variable_label(variable),
                names.location_label(first),
                names.location_label(second),
            );
            races.entry(pair).and_modify(|known| known.merge(&stats)).or_insert(stats);
        }
        Outcome { detector: detector.into(), shards: 1, events, races, metrics }
    }

    /// The distinct racy *location pairs* — the paper's "#Races" (variables
    /// are part of the race key but not of this count, matching Table 1).
    pub fn distinct_pairs(&self) -> usize {
        self.location_pairs().len()
    }

    /// The distinct location-name pairs in race, in lexicographic order.
    pub fn location_pairs(&self) -> BTreeSet<(&str, &str)> {
        self.races
            .keys()
            .map(|pair| (pair.first_location.as_str(), pair.second_location.as_str()))
            .collect()
    }

    /// Total race events across all pairs (sums under merge).
    pub fn race_events(&self) -> usize {
        self.races.values().map(|stats| stats.race_events).sum()
    }

    /// Looks up a telemetry value by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.get(name)
    }

    /// One-line telemetry rendering (the report table's last column).
    pub fn telemetry(&self) -> String {
        self.metrics.to_string()
    }

    /// Folds `other` into `self` per the merge table in the [module
    /// docs](self).  Both sides must come from the same detector
    /// configuration (debug-asserted by display name).
    pub fn merge(&mut self, other: Outcome) {
        debug_assert_eq!(self.detector, other.detector, "merging outcomes of different detectors");
        self.shards += other.shards;
        self.events += other.events;
        for (pair, stats) in other.races {
            match self.races.entry(pair) {
                btree_map::Entry::Vacant(slot) => {
                    slot.insert(stats);
                }
                btree_map::Entry::Occupied(mut slot) => slot.get_mut().merge(&stats),
            }
        }
        self.metrics.merge(&other.metrics);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_trace::TraceBuilder;

    fn outcome(pairs: &[(&str, &str, &str, usize, usize)], events: usize) -> Outcome {
        let races = pairs
            .iter()
            .map(|(variable, a, b, race_events, min_distance)| {
                (
                    RacePair::new(*variable, *a, *b),
                    PairStats { race_events: *race_events, min_distance: *min_distance },
                )
            })
            .collect();
        Outcome { detector: "test".to_owned(), shards: 1, events, races, metrics: Metrics::new() }
    }

    #[test]
    fn race_pair_normalizes_by_name() {
        assert_eq!(RacePair::new("x", "B:2", "A:1"), RacePair::new("x", "A:1", "B:2"));
        assert_eq!(RacePair::new("x", "A:1", "B:2").to_string(), "x: A:1 <-> B:2");
    }

    #[test]
    fn merge_unions_pairs_and_sums_events() {
        let mut left = outcome(&[("x", "A", "B", 2, 10), ("y", "A", "C", 1, 3)], 100);
        let right = outcome(&[("x", "A", "B", 1, 4), ("z", "D", "E", 1, 7)], 50);
        left.merge(right);
        assert_eq!(left.shards, 2);
        assert_eq!(left.events, 150);
        assert_eq!(left.races.len(), 3);
        assert_eq!(left.race_events(), 5);
        let shared = &left.races[&RacePair::new("x", "A", "B")];
        assert_eq!(shared.race_events, 3, "colliding pairs sum race events");
        assert_eq!(shared.min_distance, 4, "colliding pairs keep the minimum distance");
    }

    #[test]
    fn distinct_pairs_counts_locations_not_variables() {
        // Two variables racing on the same location pair count once, as in
        // Table 1 (which counts distinct *location* pairs).
        let one = outcome(&[("x", "A", "B", 1, 1), ("y", "A", "B", 1, 1)], 10);
        assert_eq!(one.races.len(), 2);
        assert_eq!(one.distinct_pairs(), 1);
    }

    #[test]
    fn metrics_merge_by_aggregation() {
        let mut left = Metrics::new();
        left.record_sum("clock_joins", 10.0);
        left.record_max("max_queue_entries", 5.0);
        left.record_sum("only_left", 1.0);
        let mut right = Metrics::new();
        right.record_sum("clock_joins", 7.0);
        right.record_max("max_queue_entries", 3.0);
        right.record_max("only_right", 9.0);
        left.merge(&right);
        assert_eq!(left.get("clock_joins"), Some(17.0));
        assert_eq!(left.get("max_queue_entries"), Some(5.0));
        assert_eq!(left.get("only_left"), Some(1.0));
        assert_eq!(left.get("only_right"), Some(9.0));
        assert_eq!(
            left.to_string(),
            "clock_joins=17, max_queue_entries=5, only_left=1, only_right=9"
        );
    }

    #[test]
    fn merge_is_commutative_on_integral_metrics() {
        let make = |a: f64, b: f64| {
            let mut m = Metrics::new();
            m.record_sum("sum", a);
            m.record_max("max", b);
            m
        };
        let mut ab = make(1.0, 2.0);
        ab.merge(&make(3.0, 1.0));
        let mut ba = make(3.0, 1.0);
        ba.merge(&make(1.0, 2.0));
        assert_eq!(ab, ba);
    }

    #[test]
    fn from_sink_resolves_names_and_dedupes() {
        let mut builder = TraceBuilder::new();
        let t1 = builder.thread("t1");
        let t2 = builder.thread("t2");
        let x = builder.variable("x");
        builder.at("A.java:1");
        builder.write(t1, x);
        builder.at("B.java:2");
        builder.write(t2, x);
        let trace = builder.finish();

        let mut sink = RaceSink::new();
        sink.record(rapid_trace::Race {
            first: trace[0].id(),
            second: trace[1].id(),
            variable: x,
            first_location: trace[1].location(),
            second_location: trace[0].location(),
            kind: rapid_trace::RaceKind::Wcp,
        });

        let outcome = Outcome::from_sink("wcp", trace.len(), &sink, Metrics::new(), &trace);
        assert_eq!(outcome.shards, 1);
        assert_eq!(outcome.events, 2);
        assert_eq!(outcome.distinct_pairs(), 1);
        let (pair, stats) = outcome.races.iter().next().unwrap();
        // Normalized by *name*, even though the ids arrived swapped.
        assert_eq!(pair, &RacePair::new("x", "A.java:1", "B.java:2"));
        assert_eq!(stats.race_events, 1);
        assert_eq!(stats.min_distance, 1);
    }
}
