//! Property tests of the binary wire format (`.rwf`) against the text
//! formats: `std text → .rwf → std text` is byte-exact (modulo comments and
//! blank lines, which the text parser discards before conversion), and the
//! binary reader agrees with [`StreamReader`] event for event.  A `.rwf`
//! file read from disk decodes exactly as its bytes do in memory, no
//! mutation of any encoding makes a decoder panic, and a mutated input of
//! either encoding reads the same through a source of 5-byte reads as in
//! memory.
//!
//! Together with the golden fixtures `tests/fixtures/figure2b.v2.rwf` and
//! `figure2b.rwf` (version 1, read but no longer written), these back the
//! encoding claims of `docs/FORMAT.md` §3.

use std::fs::OpenOptions;
use std::io::{self, BufReader, Read};
use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use rapid_gen::random::RandomTraceConfig;
use rapid_gen::{benchmarks, figures};
use rapid_trace::format::{
    self, AnyReader, BinReader, ParseError, ParseErrorKind, RwfStreamWriter, StreamReader,
    TextFormat,
};
use rapid_trace::{Event, Trace};

/// Figure 2b in version 1, which nothing writes any more: v1 reads are
/// tested on this committed file.
const FIGURE2B_V1: &[u8] = include_bytes!("fixtures/figure2b.rwf");

/// `trace` as a v2 container of `block_events`-event blocks.
fn in_blocks(trace: &Trace, block_events: usize) -> Vec<u8> {
    let mut writer = RwfStreamWriter::with_block_events(Vec::new(), block_events).unwrap();
    for event in trace.events() {
        writer.append(event, trace).unwrap();
    }
    writer.finish().unwrap()
}

/// Random valid traces of varying shape (threads × locks × variables ×
/// length), deterministic per seed.
fn generated_trace() -> impl Strategy<Value = rapid_trace::Trace> {
    (2usize..6, 1usize..4, 1usize..10, 0usize..300, 0u64..1_000).prop_map(
        |(threads, locks, variables, events, seed)| {
            RandomTraceConfig::sized(threads, locks, variables, events, seed).generate()
        },
    )
}

/// Sprinkles comments and blank lines between the content lines.
fn decorate_with_comments(text: &str) -> String {
    let mut decorated = String::from("# header comment\n\n");
    for (index, line) in text.lines().enumerate() {
        decorated.push_str(line);
        decorated.push('\n');
        if index % 3 == 0 {
            decorated.push_str("# interleaved comment\n");
        }
        if index % 5 == 0 {
            decorated.push('\n');
        }
    }
    decorated
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// std text → `.rwf` → std text reproduces the canonical serialization
    /// byte for byte.
    #[test]
    fn std_text_roundtrips_through_rwf(trace in generated_trace()) {
        let text = format::write_std(&trace);
        let parsed = format::parse_std(&text).expect("canonical text parses");
        let rwf = format::to_rwf_bytes(&parsed);
        let reader = BinReader::from_bytes(rwf).expect("fresh rwf has a sound header");
        let back = format::collect_any(reader.into()).expect("fresh rwf decodes");
        prop_assert_eq!(format::write_std(&back), text);
    }

    /// Comments and blank lines are the only permitted loss: decorated text
    /// converts to the same `.rwf` bytes as the undecorated text.
    #[test]
    fn comments_are_the_only_loss(trace in generated_trace()) {
        let text = format::write_std(&trace);
        let plain = format::to_rwf_bytes(&format::parse_std(&text).expect("parses"));
        let decorated =
            format::to_rwf_bytes(&format::parse_std(&decorate_with_comments(&text)).expect("parses"));
        prop_assert_eq!(plain, decorated);
    }

    /// A fresh conversion is a fixpoint: `.rwf` → std → `.rwf` is identity
    /// (ids are already canonical first-appearance order on both sides).
    #[test]
    fn rwf_is_a_conversion_fixpoint(trace in generated_trace()) {
        let rwf = format::to_rwf_bytes(&trace);
        let back = format::collect_any(
            BinReader::from_bytes(rwf.clone()).expect("sound header").into(),
        )
        .expect("decodes");
        prop_assert_eq!(format::to_rwf_bytes(&back), rwf);
    }

    /// The text and binary readers yield identical event sequences — same
    /// kinds, same interned ids, same locations — over equivalent inputs.
    #[test]
    fn all_readers_agree_on_events_and_names(trace in generated_trace()) {
        let text = format::write_std(&trace);

        let mut stream = StreamReader::std(text.as_bytes());
        let stream_events: Vec<Event> =
            stream.by_ref().collect::<Result<_, _>>().expect("parses");

        let rwf = format::to_rwf_bytes(&format::parse_std(&text).expect("parses"));
        let mut binary = BinReader::from_bytes(rwf).expect("sound header");
        let binary_events: Vec<Event> =
            binary.by_ref().collect::<Result<_, _>>().expect("decodes");

        prop_assert_eq!(&stream_events, &binary_events);

        // Name tables agree id-for-id across both.
        let stream_names = stream.into_names();
        let binary_names = binary.into_names();
        prop_assert_eq!(stream_names.num_threads(), binary_names.num_threads());
        prop_assert_eq!(stream_names.num_variables(), binary_names.num_variables());
        prop_assert_eq!(stream_names.num_locks(), binary_names.num_locks());
        prop_assert_eq!(stream_names.num_locations(), binary_names.num_locations());
        for event in &stream_events {
            prop_assert_eq!(
                stream_names.thread_name(event.thread()),
                binary_names.thread_name(event.thread())
            );
            prop_assert_eq!(
                stream_names.location_name(event.location()),
                binary_names.location_name(event.location())
            );
        }
    }
}

/// A `.rwf` file on disk decodes exactly as its bytes do in memory — across
/// the reader's 4096-frame refills and on damaged files — and a file cut
/// while it is being read ends in a typed error, not a panic.
#[test]
fn rwf_files_decode_like_their_bytes_across_chunk_boundaries() {
    // The size of the engine's block fan-out test: two full 4096-frame runs
    // plus a partial one.
    let trace = benchmarks::benchmark_scaled("moldyn", 2 * 4096 + 123).expect("moldyn").trace;
    assert_eq!(trace.len(), 2 * 4096 + 122);
    // Each block size with the first frame that must be read from disk
    // after 5,000 frames: runs never cross a block, so 1000-frame blocks
    // refill at frame 5,001 and the others at 8,193.  One 10,000-event
    // block holds the whole trace, so a run ends inside it.
    let encodings = [
        ("v2-10000", in_blocks(&trace, 10_000), 8193),
        ("v2-4096", in_blocks(&trace, 4096), 8193),
        ("v2-1000", in_blocks(&trace, 1000), 5001),
    ];
    for (name, bytes, next_refill) in encodings {
        let path =
            std::env::temp_dir().join(format!("rapid-rwf-file-{}-{name}.rwf", std::process::id()));
        std::fs::write(&path, &bytes).expect("writes");
        // The text form checks every event and name against the model;
        // `Trace` equality checks the ids as well.
        let from_file = format::collect_any(BinReader::open(&path).expect("opens").into());
        let from_bytes = format::collect_any(BinReader::from_bytes(bytes.clone()).unwrap().into());
        let from_file = from_file.expect("decodes");
        assert_eq!(format::write_std(&from_file), format::write_std(&trace), "{name}");
        assert_eq!(Ok(from_file), from_bytes, "{name}");

        // Damaged containers fail after their last frame, exactly as the
        // bytes do.
        let damaged = [
            (bytes[..bytes.len() - 1].to_vec(), ParseErrorKind::Truncated),
            ([&bytes[..], &[0]].concat(), ParseErrorKind::TrailingBytes),
        ];
        for (damaged, kind) in damaged {
            std::fs::write(&path, &damaged).expect("writes");
            let from_file: Vec<_> = BinReader::open(&path).expect("opens").collect();
            let from_bytes: Vec<_> = BinReader::from_bytes(damaged).expect(name).collect();
            assert_eq!(from_file, from_bytes, "{name}");
            let (last, events) = from_file.split_last().expect("items");
            assert_eq!(events.len(), trace.len(), "{name}");
            let error = last.clone().expect_err(name);
            assert_eq!((error.line, error.kind), (trace.len() + 1, kind), "{name}");
        }

        // Cut the file after 5,000 frames have been read: frames already
        // buffered still decode, and the next read from disk fails as
        // `Truncated`.
        std::fs::write(&path, &bytes).expect("writes");
        let mut reader = BinReader::open(&path).expect("opens");
        for _ in 0..5000 {
            reader.next().expect("a frame").expect("decodes");
        }
        let file = OpenOptions::new().write(true).open(&path).expect("reopens");
        file.set_len(bytes.len() as u64 / 2).expect("cuts");
        let rest: Vec<Result<Event, ParseError>> = reader.by_ref().collect();
        std::fs::remove_file(&path).ok();
        let (last, buffered) = rest.split_last().expect("a typed error");
        assert_eq!(buffered.len(), next_refill - 5001, "{name}");
        assert!(buffered.iter().all(Result::is_ok), "{name}");
        let error = last.clone().expect_err(name);
        assert_eq!((error.line, error.kind), (next_refill, ParseErrorKind::Truncated), "{name}");
    }
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

/// Drains `bytes` through the sniffing reader: the events, or the first
/// error.
fn decode(bytes: Vec<u8>, text: TextFormat) -> Result<Vec<Event>, ParseError> {
    AnyReader::from_bytes(bytes, text)?.collect()
}

/// A source that returns at most 5 bytes per `read` and cannot seek, as a
/// pipe may.
struct Trickle(io::Cursor<Vec<u8>>);

impl Read for Trickle {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let len = buf.len().min(5);
        self.0.read(&mut buf[..len])
    }
}

/// Drains `bytes` through 5-byte reads, sniffed as [`AnyReader`] does:
/// `.rwf` through a [`BinReader`] over a [`Trickle`], and text through a
/// [`StreamReader`] over a 5-byte buffer, so that most lines straddle a
/// refill.
fn decode_in_refills(bytes: &[u8], text: TextFormat) -> Result<Vec<Event>, ParseError> {
    if format::looks_binary(bytes) {
        let source = BufReader::with_capacity(5, Trickle(io::Cursor::new(bytes.to_vec())));
        return BinReader::new(source)?.collect();
    }
    let source = BufReader::with_capacity(5, bytes);
    match text {
        TextFormat::Std => StreamReader::std(source).collect(),
        TextFormat::Csv => StreamReader::csv(source).collect(),
    }
}

/// The decoders never panic: every mutant of every encoding of Figure 2b
/// ends in events or a [`ParseError`].  Every mutant reads the same through
/// 5-byte reads as in memory: the same events, or the same first error.
#[test]
fn decoders_never_panic_on_mutated_input() {
    const MUTANTS: usize = 2000;
    let trace = figures::figure_2b().trace;
    let encodings = [
        ("std", TextFormat::Std, format::write_std(&trace).into_bytes()),
        ("csv", TextFormat::Csv, format::write_csv(&trace).into_bytes()),
        ("rwf-v1", TextFormat::Std, FIGURE2B_V1.to_vec()),
        ("rwf-v2", TextFormat::Std, in_blocks(&trace, 2)),
    ];
    let mut rng = SplitMix(0x5EED);
    for (name, text, original) in encodings {
        let (mut decoded, mut rejected) = (0, 0);
        for index in 0..MUTANTS {
            let mutant = mutate(&original, &mut rng);
            let Ok(outcome) = catch_unwind(AssertUnwindSafe(|| decode(mutant.clone(), text)))
            else {
                panic!("{name} mutant {index} panicked the decoder: {mutant:?}");
            };
            let Ok(refilled) = catch_unwind(|| decode_in_refills(&mutant, text)) else {
                panic!("{name} mutant {index} panicked the 5-byte reader: {mutant:?}");
            };
            assert_eq!(refilled, outcome, "{name} mutant {index}: {mutant:?}");
            match outcome {
                Ok(_) => decoded += 1,
                Err(_) => rejected += 1,
            }
        }
        // Both outcomes occur: the edits reach past the sniff and the header.
        assert!(decoded > 0 && rejected > 0, "{name}: {decoded} decoded, {rejected} rejected");
    }
}
