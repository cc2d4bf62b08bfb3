//! Round-trip and error-path coverage for the `Outcome` wire codec,
//! mirroring `crates/trace/tests/binary_roundtrip.rs` for the `.rwf` codec.
//!
//! The property that matters for the distributed driver: *whatever* outcome
//! a worker produces — any pair set, any metric mix, any name weirdness —
//! decoding its encoding yields an equal value (`PartialEq`, metrics
//! included), so shipping results over the wire is lossless and the
//! coordinator's fold sees exactly what a local fold would.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use rapid_engine::outcome::{wire, Aggregation, Metric, Metrics, Outcome, PairStats, RacePair};
use rapid_engine::Engine;
use rapid_trace::format::wire::{put_str, put_u16, put_u32, put_u64, Cursor};

/// A name drawn from a small pool plus an adversarial tail: empty-ish,
/// unicode, separator-laden names all must survive the codec.
fn name() -> impl Strategy<Value = String> {
    prop_oneof![
        (0u8..26).prop_map(|n| format!("var{n}")),
        (0u8..10).prop_map(|n| format!("File.java:{n}")),
        Just("x|y,z".to_owned()),
        Just("λ→race".to_owned()),
        Just("#not a comment".to_owned()),
    ]
}

fn pair_stats() -> impl Strategy<Value = PairStats> {
    (1usize..1000, 1usize..100_000)
        .prop_map(|(race_events, min_distance)| PairStats { race_events, min_distance })
}

fn race_map() -> impl Strategy<Value = BTreeMap<RacePair, PairStats>> {
    prop::collection::vec(((name(), name(), name()), pair_stats()), 0..12).prop_map(|pairs| {
        let mut races = BTreeMap::new();
        for ((variable, a, b), stats) in pairs {
            // Colliding keys keep the first stats — any consistent map is a
            // valid outcome.
            races.entry(RacePair::new(variable, a, b)).or_insert(stats);
        }
        races
    })
}

fn metrics() -> impl Strategy<Value = Metrics> {
    prop::collection::vec(((0u8..12), (0u32..1_000_000), (0u8..2)), 0..8).prop_map(|entries| {
        let mut metrics = Metrics::new();
        for (name, value, is_max) in entries {
            // Values built from integers and quarters: exactly
            // representable, so PartialEq round-trips are exact (the
            // codec itself ships raw IEEE-754 bits either way).
            let value = value as f64 / 4.0;
            let aggregation = if is_max == 1 { Aggregation::Max } else { Aggregation::Sum };
            metrics.record(format!("metric_{name}"), Metric { aggregation, value });
        }
        metrics
    })
}

fn outcome() -> impl Strategy<Value = Outcome> {
    ((0u8..4), (0usize..5), (0usize..1_000_000), race_map(), metrics()).prop_map(
        |(detector, shards, events, races, metrics)| Outcome {
            detector: ["wcp", "hb", "hb-fasttrack", "mcm(w=1K,t=60s)"][detector as usize]
                .to_owned(),
            shards,
            events,
            races,
            metrics,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// encode → decode is the identity on whole `Outcome` values —
    /// `PartialEq` over detector, shards, events, every race pair's stats,
    /// and every metric (value *and* aggregation rule).
    #[test]
    fn outcome_round_trips_through_the_wire(outcome in outcome()) {
        let bytes = wire::to_bytes(&outcome);
        prop_assert!(wire::looks_like_outcome(&bytes));
        let decoded = wire::from_bytes(&bytes).expect("well-formed encoding decodes");
        prop_assert_eq!(&decoded, &outcome);
        // And the encoding is a fixpoint: re-encoding the decoded value is
        // byte-identical (deterministic name-table order).
        prop_assert_eq!(wire::to_bytes(&decoded), bytes);
    }

    /// Every strict prefix of a valid encoding fails *typed* — Truncated
    /// (or BadMagic inside the first four bytes), never a panic, never a
    /// bogus success.
    #[test]
    fn truncated_encodings_fail_typed(outcome in outcome()) {
        let bytes = wire::to_bytes(&outcome);
        for len in 0..bytes.len() {
            match wire::from_bytes(&bytes[..len]) {
                Err(wire::WireError::Truncated) | Err(wire::WireError::BadMagic) => {}
                other => prop_assert!(false, "prefix of {} bytes: {:?}", len, other),
            }
        }
    }
}

#[test]
fn real_detector_outcomes_round_trip() {
    // Not just synthetic values: run the actual detectors over a racy
    // trace and ship their outcomes through the codec.
    let input = "t1|w(x)|A.java:1\nt2|r(x)|B.java:2\nt2|w(x)\n";
    let mut engine = Engine::new();
    engine.register(Box::new(rapid_wcp::WcpStream::new()));
    engine.register(Box::new(rapid_hb::HbStream::new()));
    engine.register(Box::new(rapid_hb::FastTrackStream::new()));
    engine.register(Box::new(rapid_mcm::McmStream::new(rapid_mcm::McmConfig::default())));
    let mut reader = rapid_trace::format::StreamReader::std(input.as_bytes());
    engine.run(&mut reader).expect("trace parses");
    for run in engine.finish(reader.names()) {
        let bytes = wire::to_bytes(&run.outcome);
        assert_eq!(
            wire::from_bytes(&bytes).expect("decodes"),
            run.outcome,
            "{} outcome did not survive the wire",
            run.outcome.detector
        );
    }
}

#[test]
fn typed_errors_for_bad_magic_and_unknown_version() {
    let mut races = BTreeMap::new();
    races.insert(RacePair::new("x", "A", "B"), PairStats { race_events: 1, min_distance: 1 });
    let outcome = Outcome {
        detector: "wcp".to_owned(),
        shards: 1,
        events: 2,
        races,
        metrics: Metrics::new(),
    };
    let good = wire::to_bytes(&outcome);

    let mut bad_magic = good.clone();
    bad_magic[..4].copy_from_slice(b"RWF\0"); // the *trace* magic is not an outcome
    assert_eq!(wire::from_bytes(&bad_magic).unwrap_err(), wire::WireError::BadMagic);

    let mut future = good.clone();
    future[4..6].copy_from_slice(&99u16.to_le_bytes());
    assert_eq!(wire::from_bytes(&future).unwrap_err(), wire::WireError::BadVersion(99));

    let mut trailing = good.clone();
    trailing.extend_from_slice(b"junk");
    assert_eq!(wire::from_bytes(&trailing).unwrap_err(), wire::WireError::TrailingBytes);

    // Embedded decodes tolerate (and position past) exactly one outcome.
    let mut two = good.clone();
    two.extend_from_slice(&good);
    let mut cursor = Cursor::new(&two);
    assert_eq!(wire::decode(&mut cursor).unwrap(), outcome);
    assert_eq!(wire::decode(&mut cursor).unwrap(), outcome);
    assert!(cursor.at_end());
}

/// Hand-encodes an outcome whose race frames are given as raw name ids,
/// bypassing `RacePair`'s normalization the way a hostile peer could.
fn raw_outcome(names: &[&str], frames: &[(u32, u32, u32, u64)]) -> Vec<u8> {
    let mut bytes = wire::MAGIC.to_vec();
    put_u16(&mut bytes, wire::VERSION);
    put_u16(&mut bytes, 0); // reserved
    put_str(&mut bytes, "wcp");
    put_u64(&mut bytes, 1); // shards
    put_u64(&mut bytes, 2); // events
    put_u32(&mut bytes, names.len() as u32);
    for name in names {
        put_str(&mut bytes, name);
    }
    put_u32(&mut bytes, frames.len() as u32);
    for &(variable, first, second, race_events) in frames {
        for id in [variable, first, second] {
            put_u32(&mut bytes, id);
        }
        put_u64(&mut bytes, race_events);
        put_u64(&mut bytes, 1); // min_distance
    }
    put_u32(&mut bytes, 0); // no metrics
    bytes
}

#[test]
fn colliding_frames_saturate_their_race_event_sum() {
    // `(x, A, B)` and `(x, B, A)` normalize to one pair, so the decoder
    // merges them; the sum must saturate instead of overflowing.
    let bytes = raw_outcome(&["x", "A", "B"], &[(0, 1, 2, u64::MAX), (0, 2, 1, 1)]);
    let outcome = catch_unwind(|| wire::from_bytes(&bytes))
        .expect("decoding a hostile outcome must not panic")
        .expect("decodes");
    let stats = outcome.races[&RacePair::new("x", "A", "B")];
    assert_eq!(outcome.races.len(), 1);
    assert_eq!(stats.race_events, usize::MAX);
}

/// splitmix64: a seeded generator small enough to write inline, so every
/// mutant replays from its seed.
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

/// One to four random edits: flip a bit, cut the tail, insert a byte or
/// delete one.
fn mutate(input: &[u8], rng: &mut SplitMix) -> Vec<u8> {
    let mut bytes = input.to_vec();
    for _ in 0..1 + rng.below(4) {
        let at = rng.below(bytes.len() + 1);
        match rng.below(4) {
            0 if at < bytes.len() => bytes[at] ^= 1 << rng.below(8),
            1 => bytes.truncate(at),
            2 => bytes.insert(at, rng.next() as u8),
            3 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => {}
        }
    }
    bytes
}

/// The RWO decoder never panics: every mutant of the real detectors'
/// outcomes on a racy trace ends in an outcome or a typed error.
#[test]
fn decoder_never_panics_on_mutated_outcomes() {
    const MUTANTS: usize = 2000;
    let input = "t1|w(x)|A.java:1\nt2|r(x)|B.java:2\nt2|w(x)\nt1|acq(l)\nt1|w(y)\nt1|rel(l)\n";
    let mut engine = Engine::new();
    engine.register(Box::new(rapid_wcp::WcpStream::new()));
    engine.register(Box::new(rapid_hb::HbStream::new()));
    engine.register(Box::new(rapid_hb::FastTrackStream::new()));
    engine.register(Box::new(rapid_mcm::McmStream::new(rapid_mcm::McmConfig::default())));
    let mut reader = rapid_trace::format::StreamReader::std(input.as_bytes());
    engine.run(&mut reader).expect("trace parses");
    let encodings: Vec<Vec<u8>> =
        engine.finish(reader.names()).iter().map(|run| wire::to_bytes(&run.outcome)).collect();
    let mut rng = SplitMix(0x5EED);
    let (mut decoded, mut rejected) = (0, 0);
    for index in 0..MUTANTS {
        let original = &encodings[index % encodings.len()];
        let mutant = mutate(original, &mut rng);
        match catch_unwind(AssertUnwindSafe(|| wire::from_bytes(&mutant))) {
            Ok(Ok(_)) => decoded += 1,
            Ok(Err(_)) => rejected += 1,
            Err(_) => panic!("mutant {index} panicked the decoder: {mutant:?}"),
        }
    }
    // Both outcomes occur: the edits reach past the header into the frames.
    assert!(decoded > 0 && rejected > 0, "{decoded} decoded, {rejected} rejected");
}
