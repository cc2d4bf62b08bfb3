//! The streaming cores are total on malformed traces.
//!
//! A seeded generator emits event soup that [`Trace::validate`] would
//! reject: releases without acquires, re-acquires of held locks, fork and
//! join of the thread itself, of threads that never ran and of running
//! threads, and events after a thread was joined.  Every detector must take
//! such a trace without panicking.  Its verdicts are not checked: on traces
//! that fail `validate`, WCP's Rule (a) summaries and Rule (b) test may
//! differ from the paper's algorithm (see [`WcpStream`]).

use rapid::prelude::*;
use rapid::wcp::WcpConfig;

/// splitmix64: a seeded generator small enough to write inline, so every
/// failing trace reproduces from its seed.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// Up to `max_events` events over 1–6 threads, 1–3 locks and 1–3
/// variables, each kind equally likely and every operand drawn at random,
/// so lock semantics and fork/join sanity hold only by chance.
fn event_soup(seed: u64, max_events: usize) -> Trace {
    let mut rng = SplitMix(seed);
    let mut b = TraceBuilder::new();
    let threads = b.threads(1 + rng.below(6));
    let locks = b.locks(1 + rng.below(3));
    let variables = b.variables(1 + rng.below(3));
    for _ in 0..1 + rng.below(max_events) {
        let thread = threads[rng.below(threads.len())];
        let other = threads[rng.below(threads.len())];
        let lock = locks[rng.below(locks.len())];
        let var = variables[rng.below(variables.len())];
        match rng.below(6) {
            0 => b.acquire(thread, lock),
            1 => b.release(thread, lock),
            2 => b.read(thread, var),
            3 => b.write(thread, var),
            4 => b.fork(thread, other),
            _ => b.join(thread, other),
        };
    }
    b.finish()
}

/// Feeds `trace` to WCP (default and reference configurations), HB and
/// FastTrack, pre-registering `known` threads (0 = discovery mode), and
/// reads every per-event timestamp the streams expose.
fn stream_through_clock_cores(trace: &Trace, known: usize) {
    let mut wcp = WcpStream::with_threads(known);
    let mut reference = WcpStream::with_config(known, WcpConfig::reference());
    let mut hb = HbStream::with_threads(known);
    let mut fasttrack = FastTrackStream::with_threads(known);
    for event in trace.events() {
        wcp.on_event(event);
        wcp.current_time(event.thread());
        reference.on_event(event);
        hb.on_event(event);
        hb.timestamp_of_last(event);
        fasttrack.on_event(event);
    }
    wcp.finish();
    reference.finish();
}

#[test]
fn clock_cores_never_panic_on_event_soup() {
    let mut invalid = 0;
    for seed in 0..3_000 {
        let trace = event_soup(seed, 40);
        invalid += usize::from(trace.validate().is_err());
        let known = SplitMix(!seed).below(trace.num_threads() + 1);
        stream_through_clock_cores(&trace, 0);
        stream_through_clock_cores(&trace, known);
        WcpDetector::new().analyze_with_timestamps(&trace);
        HbDetector::new().detect_with_timestamps(&trace);
    }
    assert!(invalid > 2_500, "the soup must be mostly malformed: {invalid} of 3,000");
}

#[test]
fn mcm_stream_never_panics_on_event_soup() {
    for seed in 0..300 {
        let trace = event_soup(seed, 24);
        let mut mcm = McmStream::new(McmConfig::new(16, 1));
        for event in trace.events() {
            mcm.on_event(event);
        }
        mcm.finish();
    }
}
