//! Differential tests locking in batch/stream equivalence.
//!
//! Random well-formed traces are generated with a *fork prologue* (thread 0
//! announces every other thread before any lock activity — the pattern of
//! real logged traces), serialized to the std text format, and re-ingested
//! through [`StreamReader`] into the detectors' streaming cores in
//! *discovery* mode.  The properties:
//!
//! (a) streaming and batch WCP/HB report identical race sets **and**
//!     identical per-event timestamps;
//! (b) every HB race is a WCP race (the Theorem 1 soundness ordering).
//!
//! On failure, the offending trace is printed in std format so it can be
//! replayed directly with `engine stream <file>`.

mod common;

use std::collections::BTreeSet;

use common::generated_trace;
use proptest::prelude::*;
use rapid_hb::{FastTrackStream, HbDetector, HbStream};
use rapid_trace::format::{self, BinReader, StreamReader};
use rapid_trace::{Event, Race, RaceReport, Trace};
use rapid_vc::VectorClock;
use rapid_wcp::{WcpConfig, WcpDetector, WcpStream};

/// A name-based, order-insensitive key for one race, resolved against the
/// trace that reported it (stream and batch intern ids independently, so
/// raw `VarId`s are not comparable across the two sides; event ids are —
/// both sides assign them positionally).
fn race_key(race: &Race, trace: &Trace) -> (u32, u32, String, String, String) {
    (
        race.first.raw(),
        race.second.raw(),
        trace.variable_name(race.variable).unwrap_or_default().to_owned(),
        trace.location_name(race.first_location).unwrap_or_default().to_owned(),
        trace.location_name(race.second_location).unwrap_or_default().to_owned(),
    )
}

fn race_set(report: &RaceReport, trace: &Trace) -> BTreeSet<(u32, u32, String, String, String)> {
    report.races().iter().map(|race| race_key(race, trace)).collect()
}

fn clocks_equal(a: &VectorClock, b: &VectorClock) -> bool {
    // Structural equality is too strict (trailing-zero components); compare
    // as partial-order elements.
    a.le(b) && b.le(a)
}

/// Drives WCP and HB streaming cores off any event source, collecting race
/// reports and per-event timestamps.
fn run_cores(
    events: impl Iterator<Item = Result<Event, format::ParseError>>,
) -> (RaceReport, Vec<VectorClock>, RaceReport, Vec<VectorClock>) {
    let mut wcp = WcpStream::new();
    let mut hb = HbStream::new();
    let mut wcp_report = RaceReport::new();
    let mut hb_report = RaceReport::new();
    let mut wcp_times = Vec::new();
    let mut hb_times = Vec::new();
    for event in events {
        let event = event.expect("source yields well-formed events");
        wcp_report.extend(wcp.on_event(&event));
        wcp_times.push(wcp.current_time(event.thread()));
        hb_report.extend(hb.on_event(&event));
        hb_times.push(hb.timestamp_of_last(&event));
    }
    (wcp_report, wcp_times, hb_report, hb_times)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// (a) for WCP: race sets and per-event timestamps agree between the
    /// batch wrapper and a discovery-mode stream fed from serialized text.
    #[test]
    fn wcp_stream_matches_batch(trace in generated_trace()) {
        let text = format::write_std(&trace);

        let batch = WcpDetector::new().analyze_with_timestamps(&trace);
        let batch_times = batch.timestamps.expect("requested");

        let mut stream = WcpStream::new();
        let mut stream_report = RaceReport::new();
        let mut stream_times = Vec::new();
        let mut reader = StreamReader::std(text.as_bytes());
        let mut events = Vec::new();
        for event in reader.by_ref() {
            let event = event.expect("serialized trace reparses");
            stream_report.extend(stream.on_event(&event));
            stream_times.push(stream.current_time(event.thread()));
            events.push(event);
        }

        prop_assert_eq!(events.len(), trace.len());
        // The streamed trace has its own name tables; resolve through them.
        let streamed_trace = format::parse_std(&text).expect("reparses");
        prop_assert_eq!(
            race_set(&batch.report, &trace),
            race_set(&stream_report, &streamed_trace),
            "stream/batch WCP race sets diverged on:\n{}", text
        );
        for (index, stream_clock) in stream_times.iter().enumerate() {
            let event = rapid_trace::EventId::new(index as u32);
            prop_assert!(
                clocks_equal(batch_times.clock(event), stream_clock),
                "WCP timestamp of event {} diverged on:\n{}", index, text
            );
        }
    }

    /// (a) for HB: race sets and per-event timestamps agree between the
    /// batch wrapper and a discovery-mode stream fed from serialized text.
    #[test]
    fn hb_stream_matches_batch(trace in generated_trace()) {
        let text = format::write_std(&trace);

        let (batch_report, batch_times) = HbDetector::new().detect_with_timestamps(&trace);

        let mut stream = HbStream::new();
        let mut stream_report = RaceReport::new();
        let mut stream_times = Vec::new();
        for event in StreamReader::std(text.as_bytes()) {
            let event = event.expect("serialized trace reparses");
            stream_report.extend(stream.on_event(&event));
            stream_times.push(stream.timestamp_of_last(&event));
        }

        let streamed_trace = format::parse_std(&text).expect("reparses");
        prop_assert_eq!(
            race_set(&batch_report, &trace),
            race_set(&stream_report, &streamed_trace),
            "stream/batch HB race sets diverged on:\n{}", text
        );
        for (index, stream_clock) in stream_times.iter().enumerate() {
            let event = rapid_trace::EventId::new(index as u32);
            prop_assert!(
                clocks_equal(batch_times.clock(event), stream_clock),
                "HB timestamp of event {} diverged on:\n{}", index, text
            );
        }
    }

    /// FastTrack's epoch representation is an optimization, not an
    /// approximation of the race *verdict*: its stream agrees with the
    /// Djit+ stream on which variables race.  (Pair-level reports can
    /// differ by design — FastTrack only keeps the last write epoch, so it
    /// reports at least one pair per racy variable rather than all pairs.)
    #[test]
    fn fasttrack_stream_matches_djit_racy_variables(trace in generated_trace()) {
        let mut djit = HbStream::new();
        let mut fasttrack = FastTrackStream::new();
        let mut djit_report = RaceReport::new();
        let mut fasttrack_report = RaceReport::new();
        for event in trace.events() {
            djit_report.extend(djit.on_event(event));
            fasttrack_report.extend(fasttrack.on_event(event));
        }
        let vars = |report: &RaceReport| -> BTreeSet<_> {
            report.races().iter().map(|race| race.variable).collect()
        };
        prop_assert_eq!(
            vars(&djit_report),
            vars(&fasttrack_report),
            "FastTrack diverged from Djit+ on:\n{}", format::write_std(&trace)
        );
    }

    /// The binary ingestion path is detector-equivalent to
    /// [`StreamReader`]: a binary `.rwf` reader produces identical WCP/HB
    /// race sets *and* per-event timestamps on random fork-announced traces.
    #[test]
    fn zero_copy_readers_match_stream_reader(trace in generated_trace()) {
        let text = format::write_std(&trace);

        let baseline = run_cores(StreamReader::std(text.as_bytes()));
        let rwf = format::to_rwf_bytes(&format::parse_std(&text).expect("reparses"));
        let binary = run_cores(BinReader::from_bytes(rwf).expect("fresh rwf header is sound"));

        let streamed_trace = format::parse_std(&text).expect("reparses");
        let (wcp_report, wcp_times, hb_report, hb_times) = &binary;
        prop_assert_eq!(
            race_set(&baseline.0, &streamed_trace),
            race_set(wcp_report, &streamed_trace),
            "binary WCP race set diverged on:\n{}", text
        );
        prop_assert_eq!(
            race_set(&baseline.2, &streamed_trace),
            race_set(hb_report, &streamed_trace),
            "binary HB race set diverged on:\n{}", text
        );
        prop_assert_eq!(wcp_times.len(), baseline.1.len());
        for (index, clock) in wcp_times.iter().enumerate() {
            prop_assert!(
                clocks_equal(&baseline.1[index], clock),
                "binary WCP timestamp of event {} diverged on:\n{}", index, text
            );
        }
        for (index, clock) in hb_times.iter().enumerate() {
            prop_assert!(
                clocks_equal(&baseline.3[index], clock),
                "binary HB timestamp of event {} diverged on:\n{}", index, text
            );
        }
    }

    /// The epoch fast paths are an optimization, not an approximation: a
    /// full-clock reference run ([`WcpConfig::reference`] — no fast paths,
    /// no pooling) and the default epoch-fast core agree on the race
    /// *vector* (same races, same event indices, same order), every
    /// per-event timestamp, and every [`rapid_wcp::WcpStats`] counter
    /// except the fast-path/pool hit counters themselves.
    #[test]
    fn epoch_fast_wcp_matches_full_clock_reference(trace in generated_trace()) {
        let mut fast = WcpStream::with_config(0, WcpConfig::default());
        let mut reference = WcpStream::with_config(0, WcpConfig::reference());
        let mut fast_report = RaceReport::new();
        let mut reference_report = RaceReport::new();
        let mut fast_times = Vec::new();
        let mut reference_times = Vec::new();
        for event in trace.events() {
            fast_report.extend(fast.on_event(event));
            reference_report.extend(reference.on_event(event));
            fast_times.push(fast.current_time(event.thread()));
            reference_times.push(reference.current_time(event.thread()));
        }
        let fast_stats = fast.finish();
        let reference_stats = reference.finish();

        let key = |report: &RaceReport| -> Vec<_> {
            report
                .races()
                .iter()
                .map(|race| (race.first, race.second, race.variable, race.first_location))
                .collect()
        };
        prop_assert_eq!(
            key(&fast_report),
            key(&reference_report),
            "epoch-fast race vector diverged from full-clock reference on:\n{}",
            format::write_std(&trace)
        );
        for (index, (fast_clock, reference_clock)) in
            fast_times.iter().zip(&reference_times).enumerate()
        {
            prop_assert!(
                clocks_equal(fast_clock, reference_clock),
                "epoch-fast timestamp of event {} diverged on:\n{}",
                index, format::write_std(&trace)
            );
        }
        // Stats must match counter for counter once the mode-specific hit
        // counters are masked out (the reference never takes a fast path or
        // a pooled clock by construction).
        let mask = |stats: &rapid_wcp::WcpStats| rapid_wcp::WcpStats {
            epoch_fast_reads: 0,
            epoch_fast_writes: 0,
            pool_taken: 0,
            pool_recycled: 0,
            ..stats.clone()
        };
        prop_assert_eq!(
            mask(&fast_stats),
            mask(&reference_stats),
            "epoch-fast stats diverged on:\n{}", format::write_std(&trace)
        );
        prop_assert_eq!(reference_stats.epoch_fast_reads, 0);
        prop_assert_eq!(reference_stats.pool_taken, 0);
    }

    /// Pooled clock recycling is invisible: a pooled run and a
    /// fresh-allocation run produce identical per-event timestamps (and
    /// race vectors).  This is the guard for `ClockPool::put` clearing on
    /// every return path — one leaked stale component would surface here as
    /// a timestamp diff.
    #[test]
    fn pooled_and_fresh_allocation_runs_agree(trace in generated_trace()) {
        let pooled_config = WcpConfig { pool_clocks: true, ..WcpConfig::default() };
        let fresh_config = WcpConfig { pool_clocks: false, ..WcpConfig::default() };
        let mut pooled = WcpStream::with_config(0, pooled_config);
        let mut fresh = WcpStream::with_config(0, fresh_config);
        let mut pooled_report = RaceReport::new();
        let mut fresh_report = RaceReport::new();
        for (index, event) in trace.events().iter().enumerate() {
            pooled_report.extend(pooled.on_event(event));
            fresh_report.extend(fresh.on_event(event));
            prop_assert!(
                clocks_equal(
                    &pooled.current_time(event.thread()),
                    &fresh.current_time(event.thread())
                ),
                "pooled/fresh timestamp of event {} diverged on:\n{}",
                index, format::write_std(&trace)
            );
        }
        let key = |report: &RaceReport| -> Vec<_> {
            report.races().iter().map(|race| (race.first, race.second, race.variable)).collect()
        };
        prop_assert_eq!(key(&pooled_report), key(&fresh_report));
    }

    /// (b) Theorem 1 soundness ordering: every HB race is a WCP race, at
    /// both the event-pair and the location-pair level.
    #[test]
    fn hb_races_are_a_subset_of_wcp_races(trace in generated_trace()) {
        let hb = HbDetector::new().detect(&trace);
        let wcp = WcpDetector::new().detect(&trace);

        let hb_pairs: BTreeSet<_> =
            hb.races().iter().map(|race| (race.first, race.second, race.variable)).collect();
        let wcp_pairs: BTreeSet<_> =
            wcp.races().iter().map(|race| (race.first, race.second, race.variable)).collect();
        prop_assert!(
            hb_pairs.is_subset(&wcp_pairs),
            "HB-only event pairs {:?} on:\n{}",
            hb_pairs.difference(&wcp_pairs).collect::<Vec<_>>(),
            format::write_std(&trace)
        );
        prop_assert!(
            hb.distinct_location_pairs().is_subset(&wcp.distinct_location_pairs()),
            "HB-only location pairs on:\n{}", format::write_std(&trace)
        );
    }
}
