//! Races — pairs of conflicting events unordered by a partial order — and
//! the race accounting shared by the streaming detectors: the bounded
//! [`RaceSink`] they record into and the per-variable [`LastAccesses`]
//! tables HB and WCP check new accesses against.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use rapid_vc::{ThreadId, VectorClock};

use crate::event::{Event, EventId};
use crate::ids::{Location, VarId};
use crate::trace::Trace;

/// Which analysis flagged a race.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RaceKind {
    /// Unordered by happens-before.
    Hb,
    /// Unordered by weak-causally-precedes (the paper's contribution).
    Wcp,
    /// Unordered by causally-precedes.
    Cp,
    /// Witnessed by the windowed maximal-causal-model search.
    Mcm,
}

impl fmt::Display for RaceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            RaceKind::Hb => "HB",
            RaceKind::Wcp => "WCP",
            RaceKind::Cp => "CP",
            RaceKind::Mcm => "MCM",
        };
        f.write_str(name)
    }
}

/// A single race: two conflicting events unordered by the analysis relation.
///
/// `first` is the earlier event in trace order, `second` the later one (the
/// event at which the streaming detectors raise the warning, §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Race {
    /// The earlier conflicting event.
    pub first: EventId,
    /// The later conflicting event (where the detector flagged the race).
    pub second: EventId,
    /// The variable both events access.
    pub variable: VarId,
    /// Program location of the earlier event.
    pub first_location: Location,
    /// Program location of the later event.
    pub second_location: Location,
    /// Which analysis reported the race.
    pub kind: RaceKind,
}

impl Race {
    /// The unordered pair of program locations, normalized so that the
    /// smaller location comes first.  The paper counts *distinct race pairs*
    /// as distinct values of this pair (§4).
    pub fn location_pair(&self) -> (Location, Location) {
        if self.first_location <= self.second_location {
            (self.first_location, self.second_location)
        } else {
            (self.second_location, self.first_location)
        }
    }

    /// The race *distance*: the number of events separating the two accesses
    /// in the original trace (§4.3).
    pub fn distance(&self) -> usize {
        self.second.index().saturating_sub(self.first.index())
    }
}

impl fmt::Display for Race {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} race on {} between {} and {}",
            self.kind, self.variable, self.first, self.second
        )
    }
}

/// The collection of races reported by one analysis run over one trace.
#[derive(Debug, Clone, Default)]
pub struct RaceReport {
    races: Vec<Race>,
}

impl RaceReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        RaceReport::default()
    }

    /// Records a race.
    pub fn push(&mut self, race: Race) {
        self.races.push(race);
    }

    /// All recorded races, in detection order.
    pub fn races(&self) -> &[Race] {
        &self.races
    }

    /// Total number of recorded race events (not deduplicated).
    pub fn len(&self) -> usize {
        self.races.len()
    }

    /// Returns true when no race was recorded.
    pub fn is_empty(&self) -> bool {
        self.races.is_empty()
    }

    /// The distinct unordered pairs of program locations in race — the
    /// number the paper's Table 1 reports per benchmark (columns 6–10).
    pub fn distinct_location_pairs(&self) -> BTreeSet<(Location, Location)> {
        self.races.iter().map(Race::location_pair).collect()
    }

    /// Number of distinct location pairs (the paper's "#Races").
    pub fn distinct_pairs(&self) -> usize {
        self.distinct_location_pairs().len()
    }

    /// Maximum race distance over all recorded races (§4.3 reports races
    /// millions of events apart).
    pub fn max_distance(&self) -> usize {
        self.races.iter().map(Race::distance).max().unwrap_or(0)
    }

    /// Minimum distance per distinct location pair: the paper defines the
    /// distance of a race between program locations as the *minimum*
    /// separation among event pairs exhibiting it.
    pub fn pair_distances(&self) -> Vec<((Location, Location), usize)> {
        let mut distances: Vec<((Location, Location), usize)> = Vec::new();
        for pair in self.distinct_location_pairs() {
            let distance = self
                .races
                .iter()
                .filter(|race| race.location_pair() == pair)
                .map(Race::distance)
                .min()
                .unwrap_or(0);
            distances.push((pair, distance));
        }
        distances
    }

    /// Merges another report into this one.
    pub fn merge(&mut self, other: RaceReport) {
        self.races.extend(other.races);
    }

    /// Renders a human-readable summary using the trace's interned names.
    pub fn summary(&self, trace: &Trace) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{} race event(s), {} distinct location pair(s)\n",
            self.len(),
            self.distinct_pairs()
        ));
        for race in &self.races {
            let variable = trace
                .variable_name(race.variable)
                .map(str::to_owned)
                .unwrap_or_else(|| race.variable.to_string());
            let loc1 = trace
                .location_name(race.first_location)
                .map(str::to_owned)
                .unwrap_or_else(|| race.first_location.to_string());
            let loc2 = trace
                .location_name(race.second_location)
                .map(str::to_owned)
                .unwrap_or_else(|| race.second_location.to_string());
            out.push_str(&format!(
                "  [{}] {} vs {} on {} ({} .. {}, distance {})\n",
                race.kind,
                loc1,
                loc2,
                variable,
                race.first,
                race.second,
                race.distance()
            ));
        }
        out
    }
}

/// Per-pair aggregates of race events: how many were reported and the
/// smallest separation among them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairStats {
    /// Number of race events reported for this pair (sums under merge,
    /// saturating at `usize::MAX`).
    pub race_events: usize,
    /// Minimum event separation among the pair's races.  Distances are
    /// trace-local, so merging keeps the minimum.
    pub min_distance: usize,
}

impl PairStats {
    /// Folds another pair's stats into this one.  `race_events` saturates
    /// instead of overflowing: decoded outcomes come from other processes,
    /// so a hostile or corrupt count must not panic the fold.
    pub fn merge(&mut self, other: &PairStats) {
        self.race_events = self.race_events.saturating_add(other.race_events);
        self.min_distance = self.min_distance.min(other.min_distance);
    }
}

/// The key a [`RaceSink`] aggregates under: the variable and the normalized
/// location pair ([`Race::location_pair`]).
pub type PairKey = (VarId, Location, Location);

/// A multiply-rotate hasher for [`PairKey`]s.  The keys are small dense
/// integers, so std's DoS-resistant default would cost several times more
/// per race event for nothing.
#[derive(Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u32(u32::from(byte));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(word)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Where a streaming detector records its races.
///
/// It keeps two things.  The races flagged at the current event are what
/// the detector's `on_event` returns; [`RaceSink::begin_event`] forgets them
/// when the next event starts.  Every race is also folded into one
/// [`PairStats`] per `(variable, location pair)`, so the sink's size is
/// bounded by the number of distinct pairs, however many race events a
/// stream produces.
///
/// # Examples
///
/// ```
/// use rapid_trace::{EventId, Location, Race, RaceKind, RaceSink, VarId};
///
/// let race = |first: u32, second: u32| Race {
///     first: EventId::new(first),
///     second: EventId::new(second),
///     variable: VarId::new(0),
///     first_location: Location::new(1),
///     second_location: Location::new(2),
///     kind: RaceKind::Hb,
/// };
/// let mut sink = RaceSink::new();
/// for second in 1..=1_000 {
///     sink.begin_event();
///     sink.record(race(second - 1, second));
///     assert_eq!(sink.fresh().len(), 1);
/// }
/// assert_eq!(sink.race_events(), 1_000);
/// assert_eq!(sink.len(), 1, "one entry per distinct pair");
/// ```
#[derive(Debug, Default)]
pub struct RaceSink {
    fresh: Vec<Race>,
    pairs: HashMap<PairKey, PairStats, BuildHasherDefault<PairHasher>>,
    race_events: usize,
}

impl RaceSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        RaceSink::default()
    }

    /// Starts the next event: the races of the previous one are forgotten
    /// (their pair stats stay).
    #[inline]
    pub fn begin_event(&mut self) {
        self.fresh.clear();
    }

    /// Records one race flagged at the current event.
    pub fn record(&mut self, race: Race) {
        let (first, second) = race.location_pair();
        let distance = race.distance();
        self.pairs
            .entry((race.variable, first, second))
            .and_modify(|stats| stats.min_distance = stats.min_distance.min(distance))
            .or_insert(PairStats { race_events: 0, min_distance: distance })
            .race_events += 1;
        self.race_events += 1;
        self.fresh.push(race);
    }

    /// The races recorded since the last [`RaceSink::begin_event`].
    #[inline]
    pub fn fresh(&self) -> &[Race] {
        &self.fresh
    }

    /// Total race events recorded (not deduplicated).
    #[inline]
    pub fn race_events(&self) -> usize {
        self.race_events
    }

    /// Number of retained `(variable, location pair)` entries.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Returns true when no race was recorded.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Every distinct `(variable, location pair)` with its stats, in no
    /// particular order.
    pub fn pairs(&self) -> impl Iterator<Item = (PairKey, PairStats)> + '_ {
        self.pairs.iter().map(|(&key, &stats)| (key, stats))
    }
}

/// One thread's last access of one kind to a variable: the thread's local
/// time at the access, the event and its location.  Local time 0 marks an
/// empty slot — every clock-based detector starts local time at 1.
#[derive(Debug, Clone, Copy)]
pub struct LastAccess {
    epoch: u64,
    event: EventId,
    location: Location,
}

impl LastAccess {
    const EMPTY: LastAccess = LastAccess::new(0, EventId::new(0), Location::new(0));

    /// The access `event` at local time `epoch`.
    pub const fn new(epoch: u64, event: EventId, location: Location) -> Self {
        LastAccess { epoch, event, location }
    }

    /// The race between this earlier access and the later `event` on `var`.
    #[inline]
    pub fn race_with(&self, event: &Event, var: VarId, kind: RaceKind) -> Race {
        Race {
            first: self.event,
            second: event.id(),
            variable: var,
            first_location: self.location,
            second_location: event.location(),
            kind,
        }
    }
}

/// The last access of one kind (reads, or writes) to one variable by each
/// thread, dense by thread index and grown only to the highest thread that
/// made one.  HB and WCP keep one table per variable and kind and report a
/// race against every slot the accessing thread's clock does not cover.
#[derive(Debug, Clone, Default)]
pub struct LastAccesses {
    slots: Vec<LastAccess>,
}

impl LastAccesses {
    /// Makes `event` the last access of `thread` (index) at local time
    /// `epoch`, which must be positive.
    #[inline]
    pub fn store(&mut self, thread: usize, epoch: u64, event: &Event) {
        if self.slots.len() <= thread {
            self.slots.resize(thread + 1, LastAccess::EMPTY);
        }
        self.slots[thread] = LastAccess::new(epoch, event.id(), event.location());
    }

    /// Empties every slot.
    pub fn clear(&mut self) {
        self.slots.clear();
    }

    /// Records in `sink` a race between `event` and each stored access by
    /// another thread whose local time `time` does not cover.
    #[inline]
    pub fn record_races(
        &self,
        time: &VectorClock,
        event: &Event,
        var: VarId,
        kind: RaceKind,
        sink: &mut RaceSink,
    ) {
        let own = event.thread().index();
        for (other, access) in self.slots.iter().enumerate() {
            if other != own && access.epoch > time.get(ThreadId::new(other as u32)) {
                sink.record(access.race_with(event, var, kind));
            }
        }
    }
}

impl FromIterator<Race> for RaceReport {
    fn from_iter<I: IntoIterator<Item = Race>>(iter: I) -> Self {
        RaceReport { races: iter.into_iter().collect() }
    }
}

impl Extend<Race> for RaceReport {
    fn extend<I: IntoIterator<Item = Race>>(&mut self, iter: I) {
        self.races.extend(iter);
    }
}

impl<'a> Extend<&'a Race> for RaceReport {
    fn extend<I: IntoIterator<Item = &'a Race>>(&mut self, iter: I) {
        self.races.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn race(first: u32, second: u32, loc1: u32, loc2: u32) -> Race {
        Race {
            first: EventId::new(first),
            second: EventId::new(second),
            variable: VarId::new(0),
            first_location: Location::new(loc1),
            second_location: Location::new(loc2),
            kind: RaceKind::Wcp,
        }
    }

    #[test]
    fn location_pair_is_normalized() {
        let a = race(0, 5, 9, 2);
        let b = race(1, 6, 2, 9);
        assert_eq!(a.location_pair(), b.location_pair());
    }

    #[test]
    fn distance_counts_event_separation() {
        assert_eq!(race(3, 10, 0, 1).distance(), 7);
        assert_eq!(race(3, 3, 0, 1).distance(), 0);
    }

    #[test]
    fn distinct_pairs_deduplicates() {
        let mut report = RaceReport::new();
        report.push(race(0, 5, 1, 2));
        report.push(race(7, 9, 2, 1)); // same pair, swapped
        report.push(race(3, 4, 1, 3));
        assert_eq!(report.len(), 3);
        assert_eq!(report.distinct_pairs(), 2);
        assert!(!report.is_empty());
    }

    #[test]
    fn max_distance_and_pair_distances() {
        let mut report = RaceReport::new();
        report.push(race(0, 100, 1, 2));
        report.push(race(50, 55, 1, 2));
        report.push(race(10, 20, 3, 4));
        assert_eq!(report.max_distance(), 100);
        let distances = report.pair_distances();
        assert_eq!(distances.len(), 2);
        let short = distances
            .iter()
            .find(|(pair, _)| *pair == (Location::new(1), Location::new(2)))
            .unwrap();
        assert_eq!(short.1, 5, "minimum distance per pair");
    }

    #[test]
    fn merge_and_collect() {
        let mut a: RaceReport = vec![race(0, 1, 0, 1)].into_iter().collect();
        let b: RaceReport = vec![race(2, 3, 2, 3)].into_iter().collect();
        a.merge(b);
        assert_eq!(a.len(), 2);
        let mut c = RaceReport::new();
        c.extend(vec![race(4, 5, 4, 5)]);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn empty_report() {
        let report = RaceReport::new();
        assert!(report.is_empty());
        assert_eq!(report.max_distance(), 0);
        assert_eq!(report.distinct_pairs(), 0);
    }

    #[test]
    fn kind_display() {
        assert_eq!(RaceKind::Hb.to_string(), "HB");
        assert_eq!(RaceKind::Wcp.to_string(), "WCP");
        assert_eq!(RaceKind::Cp.to_string(), "CP");
        assert_eq!(RaceKind::Mcm.to_string(), "MCM");
    }
}
