//! Golden-file tests of the std and CSV trace formats.
//!
//! The fixtures under `tests/fixtures/` pin down the on-disk formats:
//! `figure2b.{std,csv,v2.rwf}` are the canonical serializations of the
//! paper's Figure 2b trace (round-trip: format → parse → format must
//! reproduce them byte-for-byte, including the binary wire format of
//! `docs/FORMAT.md` §3), `figure2b.rwf` is the same trace in the version-1
//! wire format, which is still read but no longer written,
//! `optional_location.std` exercises the documented optional-location form
//! in every shape, and the `bad_*` fixtures assert that [`ParseError`]
//! reports the right kind *and line number*.

use rapid_trace::format::{self, BinReader, ParseErrorKind, StreamReader};
use rapid_trace::EventKind;

const FIGURE2B_STD: &str = include_str!("fixtures/figure2b.std");
const FIGURE2B_CSV: &str = include_str!("fixtures/figure2b.csv");
const FIGURE2B_RWF: &[u8] = include_bytes!("fixtures/figure2b.rwf");
const FIGURE2B_V2_RWF: &[u8] = include_bytes!("fixtures/figure2b.v2.rwf");
const OPTIONAL_LOCATION: &str = include_str!("fixtures/optional_location.std");
const BAD_MISSING_FIELD: &str = include_str!("fixtures/bad_missing_field.std");
const BAD_UNKNOWN_OP: &str = include_str!("fixtures/bad_unknown_op.std");
const BAD_MALFORMED_OP: &str = include_str!("fixtures/bad_malformed_op.csv");

#[test]
fn figure2b_std_round_trips_byte_for_byte() {
    let trace = format::parse_std(FIGURE2B_STD).expect("golden fixture parses");
    assert_eq!(trace.len(), 8);
    assert_eq!(trace.num_threads(), 2);
    assert_eq!(format::write_std(&trace), FIGURE2B_STD);
}

#[test]
fn figure2b_csv_round_trips_byte_for_byte() {
    let trace = format::parse_csv(FIGURE2B_CSV).expect("golden fixture parses");
    assert_eq!(trace.len(), 8);
    assert_eq!(format::write_csv(&trace), FIGURE2B_CSV);
}

#[test]
fn figure2b_rwf_round_trips_byte_for_byte() {
    // std text -> .rwf reproduces the golden v2 fixture exactly...
    let trace = format::parse_std(FIGURE2B_STD).expect("golden fixture parses");
    assert_eq!(format::to_rwf_bytes(&trace), FIGURE2B_V2_RWF);

    // ...and .rwf -> std text reproduces the golden text exactly, from the
    // v2 fixture and from the v1 one, which readers must still accept.
    for rwf in [FIGURE2B_V2_RWF, FIGURE2B_RWF] {
        let reader = BinReader::from_bytes(rwf.to_vec()).expect("golden header is sound");
        let decoded = format::collect_any(reader.into()).expect("golden fixture decodes");
        assert_eq!(decoded.len(), 8);
        assert_eq!(format::write_std(&decoded), FIGURE2B_STD);
        assert_eq!(decoded.events(), trace.events(), "ids are canonical on both sides");
    }
}

#[test]
fn figure2b_rwf_header_fields_match_the_spec() {
    // The first 12 bytes are fixed by docs/FORMAT.md §3.1: magic "RWF\0",
    // version 1 LE, reserved 0, event count LE.
    assert!(format::looks_binary(FIGURE2B_RWF));
    assert_eq!(&FIGURE2B_RWF[0..4], b"RWF\0");
    assert_eq!(u16::from_le_bytes(FIGURE2B_RWF[4..6].try_into().unwrap()), format::VERSION);
    assert_eq!(u16::from_le_bytes(FIGURE2B_RWF[6..8].try_into().unwrap()), 0);
    assert_eq!(u32::from_le_bytes(FIGURE2B_RWF[8..12].try_into().unwrap()), 8);
    // 8 frames of 13 bytes close the 127-byte header (no trailing bytes).
    assert_eq!(FIGURE2B_RWF.len(), 127 + 8 * format::FRAME_LEN);

    // §3.5: what encoders write is version 2, with header count 0; the
    // closing END block is tag 2 with the u64 event total.
    let v2 = FIGURE2B_V2_RWF;
    assert_eq!(&v2[0..4], b"RWF\0");
    assert_eq!(u16::from_le_bytes(v2[4..6].try_into().unwrap()), format::VERSION_STREAM);
    assert_eq!(u16::from_le_bytes(v2[6..8].try_into().unwrap()), 0);
    assert_eq!(u32::from_le_bytes(v2[8..12].try_into().unwrap()), 0);
    let end = &v2[v2.len() - 9..];
    assert_eq!(end[0], 2, "END block tag");
    assert_eq!(u64::from_le_bytes(end[1..].try_into().unwrap()), 8);
}

#[test]
fn the_three_flavours_describe_the_same_trace() {
    let from_std = format::parse_std(FIGURE2B_STD).unwrap();
    let from_csv = format::parse_csv(FIGURE2B_CSV).unwrap();
    let from_rwf = format::collect_any(
        BinReader::from_bytes(FIGURE2B_RWF.to_vec()).expect("golden header is sound").into(),
    )
    .unwrap();
    assert_eq!(from_std.events(), from_csv.events());
    assert_eq!(from_std.events(), from_rwf.events());
    assert_eq!(from_std, from_csv);
}

#[test]
fn golden_fixture_matches_the_generated_figure() {
    // The fixture is the canonical serialization of the generator's Figure
    // 2b — if either drifts, this catches it.
    let generated = rapid_gen::figures::figure_2b().trace;
    assert_eq!(format::write_std(&generated), FIGURE2B_STD);
}

#[test]
fn optional_location_fixture_parses_in_every_shape() {
    let trace = format::parse_std(OPTIONAL_LOCATION).expect("optional-location forms parse");
    assert_eq!(trace.len(), 8);
    // Lines without a location get a synthetic, distinct one.
    assert!(matches!(trace[1].kind(), EventKind::Acquire(_)));
    assert_eq!(trace.location_name(trace[1].location()), Some("line2"));
    // Explicit locations survive.
    assert_eq!(trace.location_name(trace[2].location()), Some("Counter.java:7"));
    // An empty trailing field behaves like an absent one.
    assert_eq!(trace.location_name(trace[3].location()), Some("line4"));
    assert!(trace.validate().is_ok());

    // Reserialization is a fixpoint: once locations are synthesized, the
    // trace round-trips exactly.
    let canonical = format::write_std(&trace);
    let reparsed = format::parse_std(&canonical).unwrap();
    assert_eq!(format::write_std(&reparsed), canonical);
}

#[test]
fn missing_field_reports_its_line_number() {
    let error = format::parse_std(BAD_MISSING_FIELD).unwrap_err();
    assert_eq!(error.kind, ParseErrorKind::MissingField);
    assert_eq!(error.line, 4, "{error}");
}

#[test]
fn unknown_op_reports_its_line_number() {
    let error = format::parse_std(BAD_UNKNOWN_OP).unwrap_err();
    assert!(matches!(&error.kind, ParseErrorKind::UnknownOp(op) if op == "lock"));
    assert_eq!(error.line, 3, "{error}");
}

#[test]
fn malformed_op_reports_its_line_number() {
    let error = format::parse_csv(BAD_MALFORMED_OP).unwrap_err();
    assert!(matches!(&error.kind, ParseErrorKind::MalformedOp(op) if op == "rel l"));
    assert_eq!(error.line, 5, "{error}");
}

#[test]
fn streaming_reader_reports_the_same_errors() {
    // The batch entry points are stream + collect; the raw reader must
    // surface identical errors at identical lines.
    let mut reader = StreamReader::std(BAD_UNKNOWN_OP.as_bytes());
    assert!(reader.next().unwrap().is_ok());
    assert!(reader.next().unwrap().is_ok());
    let error = reader.next().unwrap().unwrap_err();
    assert_eq!(error.line, 3);
    assert!(matches!(error.kind, ParseErrorKind::UnknownOp(_)));
    assert!(reader.next().is_none());
}
