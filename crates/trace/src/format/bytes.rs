//! The byte-level parsing core of the text formats.
//!
//! [`parse_std_bytes`] parses a single line directly from `&[u8]`: no
//! per-line `String` and no UTF-8 validation of the whole line.  The line
//! is trimmed once, its separators are found eight bytes at a time, and
//! only the three *name* fields are ever inspected as text: a name is
//! UTF-8-checked when first seen, and after that costs a check of the
//! interner's recent-name memo, or one hash lookup.
//! [`StreamReader`](super::StreamReader) hands the same core each line
//! where it lies in its `BufRead`'s buffer, copying only a line that
//! straddles a refill, and the string entry points
//! ([`parse_std`](super::parse_std), [`parse_csv`](super::parse_csv)) go
//! through that reader, so the grammar of `docs/FORMAT.md` (at the
//! repository root) has exactly one implementation.

use rapid_vc::ThreadId;

use crate::event::{Event, EventId, EventKind};
use crate::ids::{Location, LockId, VarId};

use super::{ParseError, ParseErrorKind, StreamNames};

/// Splits `op` as `mnemonic(target)`, both non-empty.
fn split_op_bytes(op: &[u8]) -> Option<(&[u8], &[u8])> {
    let open = op.iter().position(|&byte| byte == b'(')?;
    if op.last() != Some(&b')') {
        return None;
    }
    let mnemonic = &op[..open];
    let target = &op[open + 1..op.len() - 1];
    if mnemonic.is_empty() || target.is_empty() {
        return None;
    }
    Some((mnemonic, target))
}

/// Renders a raw field for an error payload (lossy only for invalid UTF-8).
fn lossy(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// The index of the first `needle` in `haystack`, testing eight bytes per
/// step: a byte of `word ^ pattern` is zero exactly where `needle` is, and
/// the lowest byte the zero-byte test flags is always a true zero.
pub(super) fn find_byte(haystack: &[u8], needle: u8) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let pattern = ONES * u64::from(needle);
    let mut words = haystack.chunks_exact(8);
    for (index, word) in (&mut words).enumerate() {
        let word =
            u64::from_le_bytes(word.try_into().expect("chunks_exact yields 8 bytes")) ^ pattern;
        let zeros = word.wrapping_sub(ONES) & !word & HIGHS;
        if zeros != 0 {
            return Some(index * 8 + zeros.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let at = tail.iter().position(|&byte| byte == needle)?;
    Some(haystack.len() - tail.len() + at)
}

/// Splits `line` at its first `separator`: the field before it, and the
/// rest after it if there is one.
fn split_field(line: &[u8], separator: u8) -> (&[u8], Option<&[u8]>) {
    match find_byte(line, separator) {
        Some(at) => (&line[..at], Some(&line[at + 1..])),
        None => (line, None),
    }
}

/// Parses one line of a text-format trace from raw bytes, interning names
/// through `names` — the shared core of every text reader in this module
/// tree.
///
/// Comment (`#`) and blank lines yield `Ok(None)` (FORMAT.md §1.1), as
/// does a CSV header that is the first content line; `seen_content`
/// records whether a content line has gone by.  The line is trimmed once
/// and its separators are found in one scan.  No UTF-8 validation is
/// performed on the line as a whole; a name is checked when first
/// interned (invalid UTF-8 in a *name* is replaced, not rejected — see
/// `docs/FORMAT.md` §1.4).
pub(super) fn parse_content_line_bytes(
    line: &[u8],
    line_number: usize,
    separator: u8,
    seen_content: &mut bool,
    names: &mut StreamNames,
    next_event: &mut u32,
) -> Result<Option<Event>, ParseError> {
    let line = line.trim_ascii();
    if line.first().is_none_or(|&byte| byte == b'#') {
        return Ok(None);
    }
    let is_first_content = !std::mem::replace(seen_content, true);
    // Skip a CSV header if it is the first content line of the input.
    if separator == b','
        && is_first_content
        && line.len() >= 7
        && line[..7].eq_ignore_ascii_case(b"thread,")
    {
        return Ok(None);
    }
    let error = |kind| ParseError { line: line_number, kind };
    // Event ids are 32-bit: ids 0..=u32::MAX - 1 are the most there are.
    if *next_event == u32::MAX {
        return Err(error(ParseErrorKind::TooManyEvents));
    }
    let (thread, rest) = split_field(line, separator);
    let (op, rest) = rest.map_or((&[][..], None), |rest| split_field(rest, separator));
    let (thread, op) = (thread.trim_ascii_end(), op.trim_ascii());
    if thread.is_empty() || op.is_empty() {
        return Err(error(ParseErrorKind::MissingField));
    }
    // A fourth field and beyond are ignored.
    let location = rest
        .map(|rest| split_field(rest, separator).0.trim_ascii())
        .filter(|field| !field.is_empty());

    let (mnemonic, target) =
        split_op_bytes(op).ok_or_else(|| error(ParseErrorKind::MalformedOp(lossy(op))))?;

    let thread_id = ThreadId::new(names.threads.intern_bytes(thread));
    let kind = match mnemonic {
        b"acq" | b"acquire" => EventKind::Acquire(LockId::new(names.locks.intern_bytes(target))),
        b"rel" | b"release" => EventKind::Release(LockId::new(names.locks.intern_bytes(target))),
        b"r" | b"read" => EventKind::Read(VarId::new(names.variables.intern_bytes(target))),
        b"w" | b"write" => EventKind::Write(VarId::new(names.variables.intern_bytes(target))),
        b"fork" => EventKind::Fork(ThreadId::new(names.threads.intern_bytes(target))),
        b"join" => EventKind::Join(ThreadId::new(names.threads.intern_bytes(target))),
        other => return Err(error(ParseErrorKind::UnknownOp(lossy(other)))),
    };

    let id = EventId::new(*next_event);
    *next_event += 1;
    // Like `TraceBuilder`, events without an explicit location get a
    // synthetic `line<N>` one (N = 1-based event index), so that race
    // *location pairs* stay meaningful.
    let location_id = match location {
        Some(name) => Location::new(names.locations.intern_bytes(name)),
        None => {
            let synthetic = format!("line{}", *next_event);
            Location::new(names.locations.intern(&synthetic))
        }
    };
    Ok(Some(Event::new(id, thread_id, kind, location_id)))
}

/// Parses one std-format (pipe-separated) line from raw bytes without UTF-8
/// validation or per-line allocation, interning names through `names`.
///
/// Returns `Ok(None)` for comment and blank lines.  `line_number` (1-based)
/// is carried into any [`ParseError`]; `next_event` numbers the produced
/// events densely, exactly like [`StreamReader`](super::StreamReader).
///
/// # Errors
///
/// The same error cases as the string parser, at the same lines — the two
/// share one implementation.
///
/// # Examples
///
/// ```
/// use rapid_trace::format::{parse_std_bytes, StreamNames};
///
/// let mut names = StreamNames::default();
/// let mut next_event = 0;
/// let event = parse_std_bytes(b"t1|w(x)|A.java:1", 1, &mut names, &mut next_event)
///     .unwrap()
///     .expect("a content line");
/// assert!(event.kind().is_write());
/// assert_eq!(names.num_threads(), 1);
/// assert!(parse_std_bytes(b"# comment", 2, &mut names, &mut next_event).unwrap().is_none());
/// ```
pub fn parse_std_bytes(
    line: &[u8],
    line_number: usize,
    names: &mut StreamNames,
    next_event: &mut u32,
) -> Result<Option<Event>, ParseError> {
    // The CSV header rule does not apply to std, so `seen_content` is moot.
    parse_content_line_bytes(line, line_number, b'|', &mut true, names, next_event)
}

#[cfg(test)]
mod tests {
    use super::super::{AnyReader, StreamReader, TextFormat};
    use super::*;

    const SAMPLE: &str = "\
# a small trace
t1|acq(l)|A.java:1
t1|w(x)|A.java:2
t1|rel(l)|A.java:3

t2|acq(l)|B.java:7
t2|r(x)|B.java:8
t2|rel(l)|B.java:9
main|fork(t1)|Main.java:1";

    /// Drives [`parse_std_bytes`] over `input` line by line, as a reader does.
    fn parse_lines(input: &str) -> (Result<Vec<Event>, ParseError>, StreamNames) {
        let mut names = StreamNames::default();
        let mut next_event = 0;
        let events = input
            .lines()
            .enumerate()
            .filter_map(|(index, line)| {
                parse_std_bytes(line.as_bytes(), index + 1, &mut names, &mut next_event).transpose()
            })
            .collect();
        (events, names)
    }

    #[test]
    fn byte_parser_matches_stream_reader_exactly() {
        let streamed: Vec<Event> =
            StreamReader::std(SAMPLE.as_bytes()).collect::<Result<_, _>>().unwrap();
        let (parsed, names) = parse_lines(SAMPLE);
        assert_eq!(streamed, parsed.unwrap());
        assert_eq!(streamed.len(), 7);
        assert_eq!(names.num_threads(), 3);
        assert_eq!(names.thread_name(ThreadId::new(0)), Some("t1"));
    }

    #[test]
    fn final_line_without_newline_parses() {
        let mut reader = StreamReader::std(&b"t1|w(x)|A:1\nt2|r(x)|B:2"[..]);
        assert_eq!(reader.by_ref().count(), 2);
        assert_eq!(reader.events_read(), 2);
    }

    #[test]
    fn csv_header_skipped_after_comments() {
        let csv = b"# logged\n\nthread,op,location\nt1,acq(l),A:1\nt1,rel(l),A:2\n";
        let events: Vec<Event> =
            StreamReader::csv(&csv[..]).collect::<Result<_, _>>().expect("parses");
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn errors_carry_the_same_line_numbers_as_stream_reader() {
        let input = "t1|w(x)|A:1\n\n# pad\nt1|nope(x)|A:2\n";
        let mut reader = StreamReader::std(input.as_bytes());
        let stream_err = reader.by_ref().collect::<Result<Vec<_>, _>>().expect_err("unknown op");
        let byte_err = parse_lines(input).0.expect_err("unknown op");
        assert_eq!(stream_err, byte_err);
        assert_eq!(byte_err.line, 4);
        assert!(reader.next().is_none(), "the reader fuses after an error");
    }

    #[test]
    fn invalid_utf8_in_names_is_replaced_not_rejected() {
        // A non-UTF-8 byte in a name field: the line still parses; the
        // interned name carries the replacement character.
        let mut input = b"t1|w(x".to_vec();
        input.push(0xFF);
        input.extend_from_slice(b")|A:1\n");
        let mut names = StreamNames::default();
        let mut next_event = 0;
        let event = parse_std_bytes(&input, 1, &mut names, &mut next_event)
            .expect("parses")
            .expect("a content line");
        assert!(event.kind().is_write());
        let name = names.variable_name(VarId::new(0)).unwrap().to_owned();
        assert!(name.starts_with('x') && name.contains('\u{FFFD}'));
    }

    #[test]
    fn the_event_counter_stops_at_u32_max_instead_of_wrapping() {
        let mut names = StreamNames::default();
        let mut next_event = u32::MAX - 1;
        let event = parse_std_bytes(b"t1|w(x)|A:1", 7, &mut names, &mut next_event)
            .expect("the last event id is free")
            .expect("a content line");
        assert_eq!(event.id(), EventId::new(u32::MAX - 1));
        assert_eq!(next_event, u32::MAX);
        // Ignored lines still pass; the next content line is refused.
        assert_eq!(parse_std_bytes(b"# more", 8, &mut names, &mut next_event), Ok(None));
        let error = parse_std_bytes(b"t1|r(x)|A:2", 9, &mut names, &mut next_event)
            .expect_err("no event id is left");
        assert_eq!(error, ParseError { line: 9, kind: ParseErrorKind::TooManyEvents });
        assert_eq!(next_event, u32::MAX);
        assert_eq!(error.to_string(), "line 9: more than 4294967295 events (event ids are 32-bit)");
    }

    #[test]
    fn find_byte_finds_the_first_match_at_every_offset() {
        // Every length across two 8-byte words, with the needle at every
        // position, behind an earlier copy of itself, and absent.
        for len in 0..20 {
            let haystack = vec![b'a'; len];
            assert_eq!(find_byte(&haystack, b'|'), None);
            for at in 0..len {
                let mut haystack = haystack.clone();
                haystack[at] = b'|';
                assert_eq!(find_byte(&haystack, b'|'), Some(at), "{len} {at}");
                haystack[len - 1] = b'|';
                assert_eq!(find_byte(&haystack, b'|'), Some(at), "{len} {at}");
            }
        }
        // Bytes one above and below the needle, and high bytes, are not it.
        assert_eq!(find_byte(b"+-\xac\x00\xff+-\xac,|", b','), Some(8));
        assert_eq!(find_byte(b"\x01\x01\x01\x01\x01\x01\x01\x01\x00", b'\0'), Some(8));
    }

    #[test]
    fn streams_a_real_file() {
        let path =
            std::env::temp_dir().join(format!("rapid-text-reader-{}.std", std::process::id()));
        std::fs::write(&path, SAMPLE).unwrap();
        let mut reader = AnyReader::open(&path, TextFormat::Std, true).unwrap();
        assert_eq!(reader.source(), "text");
        assert_eq!(reader.by_ref().count(), 7);
        std::fs::remove_file(&path).ok();
    }
}
