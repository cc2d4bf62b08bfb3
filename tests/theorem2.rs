//! Theorem 2: the vector-clock algorithm implements WCP exactly.
//!
//! For every pair of events `a <tr b` of a trace, `C_a ⊑ C_b ⟺ a ≤WCP b`.
//! The left side is computed by the linear-time detector (`rapid-wcp`), the
//! right side by the independent closure engine (`rapid-cp`).  The property
//! is checked on the paper's figures, on the lower-bound family, and on
//! proptest-generated random workloads.  The streaming WCP and HB cores'
//! exact race events are checked against the closure as well, and so is the
//! fact the detector's Rule (b) test rests on: across threads, one clock
//! component decides the order.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use rapid::cp::closure::{ClosureEngine, OrderKind};
use rapid::gen::figures;
use rapid::gen::lower_bound::{bits_of, lower_bound_trace};
use rapid::gen::random::RandomTraceConfig;
use rapid::prelude::*;

/// A race event: the earlier access, the later one, and their variable.
type RaceEvent = (EventId, EventId, VarId);

/// The race events a streaming core reports: for each access, every other
/// thread's last conflicting access that the order does not put before it —
/// computed here from the closure instead of from clocks.  Conflicting means
/// the other thread's last write, plus its last read when the access is a
/// write.
fn closure_race_events(
    trace: &Trace,
    engine: &ClosureEngine,
    kind: OrderKind,
) -> BTreeSet<RaceEvent> {
    let mut last_reads: BTreeMap<(VarId, ThreadId), EventId> = BTreeMap::new();
    let mut last_writes: BTreeMap<(VarId, ThreadId), EventId> = BTreeMap::new();
    let mut expected = BTreeSet::new();
    for event in trace.events() {
        let (var, write) = match event.kind() {
            EventKind::Read(var) => (var, false),
            EventKind::Write(var) => (var, true),
            _ => continue,
        };
        let conflicting = if write { vec![&last_writes, &last_reads] } else { vec![&last_writes] };
        for table in conflicting {
            for (&(_, thread), &prior) in
                table.range((var, ThreadId::new(0))..=(var, ThreadId::new(u32::MAX)))
            {
                if thread != event.thread() && !engine.ordered(kind, prior, event.id()) {
                    expected.insert((prior, event.id(), var));
                }
            }
        }
        let own = if write { &mut last_writes } else { &mut last_reads };
        own.insert((var, event.thread()), event.id());
    }
    expected
}

/// The race events `on_event` returns over the whole trace.
fn streamed_race_events(
    trace: &Trace,
    on_event: impl FnMut(&Event) -> Vec<Race>,
) -> BTreeSet<RaceEvent> {
    trace
        .events()
        .iter()
        .flat_map(on_event)
        .map(|race| (race.first, race.second, race.variable))
        .collect()
}

/// The exact race events of the WCP and HB streams equal the closure's.
fn assert_race_events_match_closure(trace: &Trace, context: &str) {
    let engine = ClosureEngine::new(trace);
    let mut wcp = WcpStream::with_threads(trace.num_threads());
    let mut hb = HbStream::with_threads(trace.num_threads());
    assert_eq!(
        streamed_race_events(trace, |event| wcp.on_event(event).to_vec()),
        closure_race_events(trace, &engine, OrderKind::Wcp),
        "{context}: WCP race events differ from the closure's"
    );
    assert_eq!(
        streamed_race_events(trace, |event| hb.on_event(event).to_vec()),
        closure_race_events(trace, &engine, OrderKind::Hb),
        "{context}: HB race events differ from the closure's"
    );
}

fn assert_theorem2(trace: &Trace, context: &str) {
    let outcome = WcpDetector::new().analyze_with_timestamps(trace);
    let timestamps = outcome.timestamps.expect("timestamps requested");
    let engine = ClosureEngine::new(trace);
    for (i, a) in trace.events().iter().enumerate() {
        for b in trace.events().iter().skip(i + 1) {
            let closure = engine.ordered(OrderKind::Wcp, a.id(), b.id());
            let clocks = timestamps.ordered(a.id(), b.id());
            assert_eq!(
                clocks,
                closure,
                "{context}: Theorem 2 violated for {} and {} (clock says {clocks}, closure says {closure})",
                a.id(),
                b.id()
            );
        }
    }
}

/// For every pair `a <tr b` of different threads,
/// `C_a ⊑ C_b ⟺ C_a[thread(a)] ≤ C_b[thread(a)]`: WCP is closed under left
/// composition with HB, so `b` knowing `a`'s thread up to `a`'s local time
/// orders `a` before `b`.  The detector's Rule (b) tests a queued acquire
/// by this one component.  Returns the number of pairs checked.
fn assert_one_component_decides(trace: &Trace, context: &str) -> usize {
    let outcome = WcpDetector::new().analyze_with_timestamps(trace);
    let timestamps = outcome.timestamps.expect("timestamps requested");
    let mut pairs = 0;
    for (i, a) in trace.events().iter().enumerate() {
        let (owner, early) = (a.thread(), timestamps.clock(a.id()));
        for b in trace.events().iter().skip(i + 1).filter(|b| b.thread() != owner) {
            let late = timestamps.clock(b.id());
            assert_eq!(
                early.le(late),
                early.get(owner) <= late.get(owner),
                "{context}: C_{} = {early} and C_{} = {late} disagree with their {owner} component",
                a.id(),
                b.id()
            );
            pairs += 1;
        }
    }
    pairs
}

#[test]
fn one_component_decides_cross_thread_order() {
    let mut pairs = 0;
    for figure in figures::paper_figures() {
        pairs += assert_one_component_decides(&figure.trace, figure.name);
    }
    for bits in 1..=3 {
        for u in 0..(1u64 << bits) {
            for v in 0..(1u64 << bits) {
                let instance = lower_bound_trace(&bits_of(u, bits), &bits_of(v, bits));
                let context = format!("figure-8 u={u:0bits$b} v={v:0bits$b}");
                pairs += assert_one_component_decides(&instance.trace, &context);
            }
        }
    }
    assert!(pairs > 50_000, "too few cross-thread pairs checked: {pairs}");
}

#[test]
fn theorem2_holds_on_all_figures() {
    for figure in figures::paper_figures() {
        assert_theorem2(&figure.trace, figure.name);
    }
}

#[test]
fn race_events_match_closure_on_all_figures() {
    for figure in figures::paper_figures() {
        assert_race_events_match_closure(&figure.trace, figure.name);
    }
}

#[test]
fn rule_a_joins_the_latest_release_by_another_thread() {
    // t2 last released `l` after reading `x`, so its w(x) must still receive
    // t1's earlier release: that section read `x` too, and t1's w(z) rides
    // along to order t2's r(z).  A Rule (a) summary that kept only the
    // latest release would skip it as t2's own and report two races.
    let mut b = TraceBuilder::new();
    let t1 = b.thread("t1");
    let t2 = b.thread("t2");
    let l = b.lock("l");
    let x = b.variable("x");
    let z = b.variable("z");
    b.write(t1, z);
    b.critical_section(t1, l, |b| {
        b.read(t1, x);
    });
    b.critical_section(t2, l, |b| {
        b.read(t2, x);
    });
    b.critical_section(t2, l, |b| {
        b.write(t2, x);
    });
    b.read(t2, z);
    let trace = b.finish();

    let mut stream = WcpStream::with_threads(trace.num_threads());
    let races: Vec<Race> =
        trace.events().iter().flat_map(|event| stream.on_event(event).to_vec()).collect();
    assert!(races.is_empty(), "WCP orders every conflicting pair here: {races:?}");
    assert_theorem2(&trace, "latest release by another thread");
    assert_race_events_match_closure(&trace, "latest release by another thread");
}

#[test]
fn theorem2_holds_on_the_lower_bound_family() {
    for (u, v) in [(0b10u64, 0b10u64), (0b10, 0b01), (0b111, 0b110)] {
        let bits = 3;
        let instance = lower_bound_trace(&bits_of(u, bits), &bits_of(v, bits));
        assert_theorem2(&instance.trace, &format!("figure-8 u={u:b} v={v:b}"));
    }
}

#[test]
fn theorem2_holds_on_fixed_random_workloads() {
    for seed in 0..8 {
        let config = RandomTraceConfig {
            seed,
            events: 120,
            threads: 3,
            locks: 2,
            variables: 4,
            disciplined_probability: 0.6,
            ..RandomTraceConfig::default()
        };
        let trace = config.generate();
        assert_theorem2(&trace, &format!("seed {seed}"));
        assert_one_component_decides(&trace, &format!("seed {seed}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Property-based Theorem 2: arbitrary well-formed workloads, arbitrary
    /// sizes within a budget that keeps the cubic closure affordable.
    #[test]
    fn theorem2_holds_on_random_workloads(
        seed in 0u64..10_000,
        threads in 2usize..5,
        locks in 0usize..4,
        variables in 1usize..6,
        events in 20usize..150,
        disciplined in 0.0f64..1.0,
        write_probability in 0.1f64..0.9,
    ) {
        let config = RandomTraceConfig {
            seed,
            threads,
            locks,
            variables,
            events,
            disciplined_probability: disciplined,
            write_probability,
            ..RandomTraceConfig::default()
        };
        let trace = config.generate();
        prop_assert!(trace.validate().is_ok());
        assert_theorem2(&trace, &format!("proptest seed {seed}"));
        assert_one_component_decides(&trace, &format!("proptest seed {seed}"));
    }

    /// The race *reports* agree as well: the exact race events of the WCP
    /// and HB streams equal the ones the closure engine implies.
    #[test]
    fn race_reports_agree_with_closure(
        seed in 0u64..10_000,
        events in 20usize..150,
        locks in 0usize..3,
    ) {
        let config = RandomTraceConfig {
            seed,
            events,
            locks,
            threads: 3,
            variables: 4,
            disciplined_probability: 0.5,
            ..RandomTraceConfig::default()
        };
        let trace = config.generate();
        assert_race_events_match_closure(&trace, &format!("proptest seed {seed}"));
        assert_one_component_decides(&trace, &format!("proptest seed {seed}"));
    }
}
