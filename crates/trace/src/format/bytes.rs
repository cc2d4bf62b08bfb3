//! The byte-level parsing core of the text formats.
//!
//! [`parse_std_bytes`] parses a single line directly from `&[u8]`: no
//! per-line `String` and no UTF-8 validation of the whole line — only the
//! three *name* fields are ever inspected as text (and interned, so after
//! first sight a name costs one hash lookup).
//! [`StreamReader`](super::StreamReader) reads each line into one reused
//! byte buffer and hands it to the same core, as do the string entry points
//! ([`parse_std`](super::parse_std), [`parse_csv`](super::parse_csv)), so
//! the grammar of `docs/FORMAT.md` (at the repository root) has exactly one
//! implementation.

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

/// The one definition of the lines every text reader ignores: blank and
/// `#`-comment (FORMAT.md §1.1).  Shared by [`StreamReader`] and the
/// parsing core so the rule cannot drift.
///
/// [`StreamReader`]: super::StreamReader
pub(super) fn is_ignored_line(line: &[u8]) -> bool {
    let trimmed = line.trim_ascii();
    trimmed.is_empty() || trimmed.first() == Some(&b'#')
}

/// Parses one line of a text-format trace from raw bytes, interning names
/// through `names` — the shared core of every text reader in this module
/// tree.
///
/// Comment (`#`) and blank lines yield `Ok(None)`, as does the CSV header
/// when `is_first_content` is set.  No UTF-8 validation is performed on the
/// line as a whole; only the individual name fields are checked when first
/// interned (invalid UTF-8 in a *name* is replaced, not rejected — see
/// `docs/FORMAT.md` §1.4).
pub(super) fn parse_content_line_bytes(
    line: &[u8],
    line_number: usize,
    separator: u8,
    is_first_content: bool,
    names: &mut StreamNames,
    next_event: &mut u32,
) -> Result<Option<Event>, ParseError> {
    if is_ignored_line(line) {
        return Ok(None);
    }
    let line = line.trim_ascii();
    // Skip a CSV header if it is the first content line of the input.
    if separator == b','
        && is_first_content
        && line.len() >= 7
        && line[..7].eq_ignore_ascii_case(b"thread,")
    {
        return Ok(None);
    }
    let mut fields = line.split(|&byte| byte == separator).map(<[u8]>::trim_ascii);
    let thread = fields
        .next()
        .filter(|field| !field.is_empty())
        .ok_or(ParseError { line: line_number, kind: ParseErrorKind::MissingField })?;
    let op = fields
        .next()
        .filter(|field| !field.is_empty())
        .ok_or(ParseError { line: line_number, kind: ParseErrorKind::MissingField })?;
    let location = fields.next().filter(|field| !field.is_empty());

    let (mnemonic, target) = split_op_bytes(op).ok_or_else(|| ParseError {
        line: line_number,
        kind: ParseErrorKind::MalformedOp(lossy(op)),
    })?;

    let thread_id = ThreadId::new(names.threads.intern_bytes(thread));
    let kind = match mnemonic {
        b"acq" | b"acquire" => EventKind::Acquire(LockId::new(names.locks.intern_bytes(target))),
        b"rel" | b"release" => EventKind::Release(LockId::new(names.locks.intern_bytes(target))),
        b"r" | b"read" => EventKind::Read(VarId::new(names.variables.intern_bytes(target))),
        b"w" | b"write" => EventKind::Write(VarId::new(names.variables.intern_bytes(target))),
        b"fork" => EventKind::Fork(ThreadId::new(names.threads.intern_bytes(target))),
        b"join" => EventKind::Join(ThreadId::new(names.threads.intern_bytes(target))),
        other => {
            return Err(ParseError {
                line: line_number,
                kind: ParseErrorKind::UnknownOp(lossy(other)),
            })
        }
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
    parse_content_line_bytes(line, line_number, b'|', false, names, next_event)
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
