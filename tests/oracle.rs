//! Ground truth: the detectors' verdicts checked against the definition of
//! a predictable race, via the exact correct-reordering search
//! (`rapid::trace::reorder`) on small random traces.
//!
//! Only what the theory promises is checked.  HB is sound for its *first*
//! race only: a later HB race may depend on an earlier one having happened
//! (the first test pins such a trace).  WCP is weakly sound (Theorem 1):
//! its first race is a predictable race or a predictable deadlock.

use rapid::prelude::*;
use rapid::trace::analysis::TraceIndex;
use rapid::trace::reorder::{check_race_witness, find_deadlock_witness, find_race_witness};

/// Node expansions the witness searches may spend per query.
const BUDGET: usize = 2_000_000;

/// The races of `races` whose second event is the earliest second event.
fn first_races(races: &[Race]) -> Vec<Race> {
    let Some(earliest) = races.iter().map(|race| race.second).min() else {
        return Vec::new();
    };
    races.iter().copied().filter(|race| race.second == earliest).collect()
}

/// `t2: w(x) w(y)`, then `t1: r(y) w(x)`.  HB reports two races, but only
/// the first is predictable: `r(y)` must still read from `w(y)`, so no
/// correct reordering puts the two writes of `x` next to each other.
#[test]
fn a_later_hb_race_can_lack_a_witness() {
    let mut b = TraceBuilder::new();
    let t1 = b.thread("t1");
    let t2 = b.thread("t2");
    let x = b.variable("x");
    let y = b.variable("y");
    let write_x = b.write(t2, x);
    let write_y = b.write(t2, y);
    let read_y = b.read(t1, y);
    let rewrite_x = b.write(t1, x);
    let trace = b.finish();

    let report = HbDetector::new().detect(&trace);
    let mut pairs: Vec<(EventId, EventId)> =
        report.races().iter().map(|race| (race.first, race.second)).collect();
    pairs.sort();
    assert_eq!(pairs, vec![(write_x, rewrite_x), (write_y, read_y)]);

    let index = TraceIndex::build(&trace);
    let witness = find_race_witness(&trace, &index, write_y, read_y, BUDGET)
        .expect("the first HB race is predictable");
    assert!(check_race_witness(&trace, &index, &witness, write_y, read_y));
    assert_eq!(find_race_witness(&trace, &index, write_x, rewrite_x, BUDGET), None);
}

/// On seeded random traces (2–3 threads, 1–2 locks, 2 variables, 12–24
/// events): every HB race at the earliest HB second event has a checked
/// witness, and some WCP race at the earliest WCP second event has a
/// witness unless the trace has a predictable deadlock.
#[test]
fn first_races_of_hb_and_wcp_are_backed_by_witnesses() {
    let mut racy = 0;
    for seed in 0..600u64 {
        let threads = 2 + (seed % 2) as usize;
        let locks = 1 + (seed / 2 % 2) as usize;
        let events = 12 + (seed % 13) as usize;
        let trace = RandomTraceConfig::sized(threads, locks, 2, events, seed).generate();
        let index = TraceIndex::build(&trace);

        let hb = first_races(HbDetector::new().detect(&trace).races());
        for race in &hb {
            let witness = find_race_witness(&trace, &index, race.first, race.second, BUDGET)
                .unwrap_or_else(|| panic!("seed {seed}: first HB race {race} has no witness"));
            assert!(
                check_race_witness(&trace, &index, &witness, race.first, race.second),
                "seed {seed}: witness for {race} does not check"
            );
        }

        let wcp = first_races(WcpDetector::new().analyze(&trace).report.races());
        if !wcp.is_empty() {
            let raced = wcp.iter().any(|race| {
                find_race_witness(&trace, &index, race.first, race.second, BUDGET).is_some_and(
                    |witness| check_race_witness(&trace, &index, &witness, race.first, race.second),
                )
            });
            assert!(
                raced || find_deadlock_witness(&trace, &index, BUDGET).is_some(),
                "seed {seed}: no first WCP race is backed by a race or deadlock witness"
            );
        }
        if !hb.is_empty() || !wcp.is_empty() {
            racy += 1;
        }
    }
    // The generator's mix makes most of these traces racy.
    assert!(racy >= 500, "only {racy} of 600 traces are racy");
}
