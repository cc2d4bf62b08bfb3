//! Textual trace formats: the pipe-separated "std" format and CSV.
//!
//! The authors' RAPID tool consumes traces produced by RVPredict's logger in
//! a simple line-oriented format; we model that with the *std* format:
//!
//! ```text
//! # comments and blank lines are ignored
//! t1|acq(l)|Account.java:41
//! t1|r(balance)|Account.java:42
//! t1|w(balance)|Account.java:42
//! t1|rel(l)|Account.java:43
//! main|fork(t1)|Main.java:10
//! t1|acq(l)
//! ```
//!
//! Every line is `<thread>|<op>(<target>)|<location>`; `<op>` is one of
//! `acq`, `rel`, `r`, `w`, `fork`, `join`; the location field is optional
//! (`t1|acq(l)` and `t1|acq(l)|` are both accepted, and the event gets a
//! synthetic `line<N>` location).  The CSV flavour uses commas instead of
//! pipes (`thread,op(target),location`) and may start with a
//! `thread,op,location` header line, which is skipped wherever it appears
//! as the first content line (comments and blank lines are ignored before
//! it, like everywhere else).
//!
//! # Streaming: one reader per encoding
//!
//! Each encoding has exactly one reader, and each reads a file through one
//! small reused buffer, so memory grows with the name tables, never with
//! the file:
//!
//! * **Text** — [`StreamReader`], an iterator of
//!   [`Result<Event, ParseError>`] over any [`BufRead`] that interns names
//!   on the fly and never materializes a [`Trace`].  Each line is parsed
//!   where it lies in the `BufRead`'s buffer (64 KiB for files and pipes,
//!   see [`TextReader`]); only a line that straddles a refill is copied
//!   out first.  It goes through the byte-level core in [`bytes`]
//!   ([`parse_std_bytes`]: no per-line `String`, no whole-line UTF-8
//!   validation).  The batch entry points ([`parse_std`], [`parse_csv`])
//!   drain a reader and collect the events into a [`Trace`], so the two
//!   paths cannot diverge.
//! * **Binary** — [`BinReader`] over the fixed-width *rapid wire format*
//!   (`.rwf`, see [`binary`]), which removes string handling from the hot
//!   path entirely: names live once in the string tables, and each event
//!   is a 13-byte frame, read in runs of at most 4096 into one reused
//!   buffer.
//!
//! Both read their input once, front to back, over any [`BufRead`], so a
//! pipe or a live producer streams like a file.  [`AnyReader`] puts the two
//! behind one iterator and auto-detects binary inputs by their magic bytes
//! ([`looks_binary`]) — for files ([`AnyReader::open`]) and for bytes in
//! memory ([`AnyReader::from_bytes`]) alike.  The `engine` CLI and the
//! shard driver read every input through it.
//!
//! The normative specification of all three encodings — grammar,
//! optional-location forms, header and string-table layout, endianness and
//! error semantics — is `docs/FORMAT.md` at the repository root; every claim
//! there is pinned by a golden-fixture or round-trip test.

use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Read};
use std::path::Path;

use rapid_vc::ThreadId;

use crate::builder::Interner;
use crate::event::{Event, EventKind};
use crate::ids::{Location, LockId, VarId};
use crate::trace::Trace;

pub mod binary;
pub mod bytes;
pub mod wire;

pub use binary::{
    looks_binary, to_rwf_bytes, write_rwf_file, BinReader, RwfStreamWriter, FRAME_LEN, MAGIC,
    NO_LOCATION, VERSION, VERSION_STREAM,
};
pub use bytes::parse_std_bytes;

/// Why a trace file could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// The line does not have the required number of fields.
    MissingField,
    /// The operation mnemonic is not one of `acq`, `rel`, `r`, `w`, `fork`, `join`.
    UnknownOp(String),
    /// The operation field is not of the form `op(target)`.
    MalformedOp(String),
    /// The underlying reader failed (streaming only).
    Io(String),
    /// The input has an event after the first `u32::MAX`, the most that
    /// 32-bit event ids can number: a text content line or a `.rwf` frame.
    TooManyEvents,
    /// Binary input does not start with the `.rwf` magic bytes.
    BadMagic,
    /// Binary input declares a wire-format version this build cannot read.
    BadVersion(u16),
    /// Binary input ends before the structure its header declares.
    Truncated,
    /// Binary input continues past the last declared frame.
    TrailingBytes,
    /// A binary frame carries an operation code outside `0..=5`.
    BadOpCode(u8),
    /// A v2 (streamed) container carries an unknown block or table tag.
    BadBlockTag(u8),
    /// A binary frame references a string-table entry that does not exist.
    BadNameId {
        /// Which table (`threads`, `locks`, `variables`, `locations`).
        table: &'static str,
        /// The out-of-range id.
        id: u32,
        /// The table's actual length.
        len: u32,
    },
}

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.  For binary input the
    /// field carries the 1-based *frame* number instead (0 for header
    /// errors).
    pub line: usize,
    /// What went wrong.
    pub kind: ParseErrorKind,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ParseErrorKind::MissingField => {
                write!(f, "line {}: expected `thread|op(target)|location`", self.line)
            }
            ParseErrorKind::UnknownOp(op) => {
                write!(f, "line {}: unknown operation `{op}`", self.line)
            }
            ParseErrorKind::MalformedOp(op) => {
                write!(f, "line {}: malformed operation `{op}`, expected `op(target)`", self.line)
            }
            ParseErrorKind::Io(error) => {
                write!(f, "line {}: read error: {error}", self.line)
            }
            ParseErrorKind::TooManyEvents => {
                write!(
                    f,
                    "line {}: more than {} events (event ids are 32-bit)",
                    self.line,
                    u32::MAX
                )
            }
            ParseErrorKind::BadMagic => {
                write!(f, "not a rapid wire format file (bad magic bytes)")
            }
            ParseErrorKind::BadVersion(version) => {
                write!(
                    f,
                    "unsupported wire format version {version} \
(this build reads {VERSION} and {VERSION_STREAM})"
                )
            }
            ParseErrorKind::Truncated => {
                write!(f, "truncated wire format input (frame {})", self.line)
            }
            ParseErrorKind::TrailingBytes => {
                write!(f, "trailing bytes after the last declared frame")
            }
            ParseErrorKind::BadOpCode(op) => {
                write!(f, "frame {}: unknown operation code {op}", self.line)
            }
            ParseErrorKind::BadBlockTag(tag) => {
                write!(f, "unknown v2 container block or table tag {tag}")
            }
            ParseErrorKind::BadNameId { table, id, len } => {
                write!(f, "frame {}: {table} id {id} out of range (table has {len})", self.line)
            }
        }
    }
}

impl Error for ParseError {}

/// Interned name tables built up while streaming a trace, and a factory for
/// the next [`Event`].
///
/// Names are assigned dense ids in order of first appearance in the event
/// stream (note this can differ from the id assignment of the
/// [`TraceBuilder`](crate::TraceBuilder) that produced a file, which interns
/// names at declaration time — compare streamed and batch results by *name*,
/// not by raw id, unless both sides came from the same reader).
#[derive(Debug, Default, Clone)]
pub struct StreamNames {
    threads: Interner,
    locks: Interner,
    variables: Interner,
    locations: Interner,
}

impl StreamNames {
    /// Looks up a thread's name.
    pub fn thread_name(&self, thread: ThreadId) -> Option<&str> {
        self.threads.name(thread.raw())
    }

    /// Looks up a lock's name.
    pub fn lock_name(&self, lock: LockId) -> Option<&str> {
        self.locks.name(lock.raw())
    }

    /// Looks up a variable's name.
    pub fn variable_name(&self, var: VarId) -> Option<&str> {
        self.variables.name(var.raw())
    }

    /// Looks up a location's name.
    pub fn location_name(&self, location: Location) -> Option<&str> {
        if location.is_unknown() {
            return None;
        }
        self.locations.name(location.raw())
    }

    /// Number of distinct threads seen so far.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// Number of distinct locks seen so far.
    pub fn num_locks(&self) -> usize {
        self.locks.len()
    }

    /// Number of distinct variables seen so far.
    pub fn num_variables(&self) -> usize {
        self.variables.len()
    }

    /// Number of distinct locations seen so far.
    pub fn num_locations(&self) -> usize {
        self.locations.len()
    }

    /// The four tables in the `.rwf` table order (`docs/FORMAT.md` §3.2).
    fn tables_mut(&mut self) -> [&mut Interner; 4] {
        [&mut self.threads, &mut self.locks, &mut self.variables, &mut self.locations]
    }

    /// Decomposes into `(threads, locks, variables, locations)` name lists.
    pub(crate) fn into_tables(self) -> (Vec<String>, Vec<String>, Vec<String>, Vec<String>) {
        (
            self.threads.into_names(),
            self.locks.into_names(),
            self.variables.into_names(),
            self.locations.into_names(),
        )
    }
}

/// A push-free streaming parser: an iterator of [`Event`]s over any
/// [`BufRead`], in `O(names)` memory — the trace itself is never stored.
///
/// # Examples
///
/// ```
/// use rapid_trace::format::StreamReader;
///
/// let input = "t1|w(x)|A.java:1\nt2|r(x)|B.java:2\n";
/// let mut reader = StreamReader::std(input.as_bytes());
/// let events: Vec<_> = reader.by_ref().collect::<Result<_, _>>().unwrap();
/// assert_eq!(events.len(), 2);
/// assert_ne!(events[0].thread(), events[1].thread());
/// assert_eq!(reader.names().num_variables(), 1);
/// ```
#[derive(Debug)]
pub struct StreamReader<R> {
    reader: R,
    separator: u8,
    /// 1-based number of the line most recently read.
    line: usize,
    /// Whether a content (non-blank, non-comment) line has been consumed
    /// already — the CSV header is only recognized as the first one.
    seen_content: bool,
    /// The start of a line that straddles a refill of `reader`'s buffer;
    /// every other line is parsed where it lies.  Raw bytes: this reader
    /// never UTF-8-validates whole lines (FORMAT.md §1.4 requires invalid
    /// bytes in names to be replaced, not rejected).
    carry: Vec<u8>,
    names: StreamNames,
    next_event: u32,
    failed: bool,
}

impl<R: BufRead> StreamReader<R> {
    /// Creates a reader for the std (pipe-separated) format.
    pub fn std(reader: R) -> Self {
        StreamReader::with_separator(reader, b'|')
    }

    /// Creates a reader for the CSV format.
    pub fn csv(reader: R) -> Self {
        StreamReader::with_separator(reader, b',')
    }

    fn with_separator(reader: R, separator: u8) -> Self {
        StreamReader {
            reader,
            separator,
            line: 0,
            seen_content: false,
            carry: Vec::new(),
            names: StreamNames::default(),
            next_event: 0,
            failed: false,
        }
    }

    /// The name tables interned so far (grow as events are read).
    pub fn names(&self) -> &StreamNames {
        &self.names
    }

    /// Consumes the reader, returning the final name tables.
    pub fn into_names(self) -> StreamNames {
        self.names
    }

    /// Number of events produced so far.
    pub fn events_read(&self) -> usize {
        self.next_event as usize
    }

    /// 1-based number of the last line read (0 before the first line).
    pub fn line(&self) -> usize {
        self.line
    }
}

impl<R: BufRead> Iterator for StreamReader<R> {
    type Item = Result<Event, ParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        loop {
            let available = match self.reader.fill_buf() {
                Ok(available) => available,
                Err(error) if error.kind() == io::ErrorKind::Interrupted => continue,
                Err(error) => {
                    self.failed = true;
                    return Some(Err(ParseError {
                        line: self.line + 1,
                        kind: ParseErrorKind::Io(error.to_string()),
                    }));
                }
            };
            // The line and how much of `available` it takes.
            let (line, used) = match bytes::find_byte(available, b'\n') {
                Some(end) if self.carry.is_empty() => (&available[..end], end + 1),
                Some(end) => {
                    self.carry.extend_from_slice(&available[..end]);
                    (&self.carry[..], end + 1)
                }
                None if available.is_empty() && self.carry.is_empty() => return None,
                // The input ends without a final newline.
                None if available.is_empty() => (&self.carry[..], 0),
                None => {
                    let used = available.len();
                    self.carry.extend_from_slice(available);
                    self.reader.consume(used);
                    continue;
                }
            };
            self.line += 1;
            // The byte-level core is the single parsing implementation;
            // this reader only adds the `BufRead` line loop on top.
            let parsed = bytes::parse_content_line_bytes(
                line,
                self.line,
                self.separator,
                &mut self.seen_content,
                &mut self.names,
                &mut self.next_event,
            );
            self.reader.consume(used);
            self.carry.clear();
            match parsed {
                Ok(Some(event)) => return Some(Ok(event)),
                Ok(None) => continue, // blank, comment or CSV header
                Err(error) => {
                    self.failed = true;
                    return Some(Err(error));
                }
            }
        }
    }
}

/// Drains a [`StreamReader`] into a fully materialized [`Trace`]
/// (batch = stream + collect).
///
/// # Errors
///
/// Returns the first [`ParseError`] encountered.
pub fn collect_trace<R: BufRead>(mut reader: StreamReader<R>) -> Result<Trace, ParseError> {
    let mut events = Vec::new();
    for event in reader.by_ref() {
        events.push(event?);
    }
    let names = reader.into_names();
    let (threads, locks, variables, locations) = names.into_tables();
    Ok(Trace::from_parts(events, threads, locks, variables, locations))
}

/// Which *text* flavour to assume for non-binary input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TextFormat {
    /// Pipe-separated std format.
    Std,
    /// Comma-separated CSV (optional header line).
    Csv,
}

impl TextFormat {
    /// Guesses the flavour from a path's extension (`.csv` → CSV, anything
    /// else → std).
    pub fn from_path(path: impl AsRef<Path>) -> TextFormat {
        match path.as_ref().extension().and_then(|extension| extension.to_str()) {
            Some(extension) if extension.eq_ignore_ascii_case("csv") => TextFormat::Csv,
            _ => TextFormat::Std,
        }
    }
}

/// The text reader behind [`AnyReader::Text`].  The byte source — a file, a
/// pipe or bytes in memory — is boxed *under* the `BufReader`, so dynamic
/// dispatch happens once per buffer refill, not once per line.  The buffer
/// holds 64 KiB.
pub type TextReader = StreamReader<BufReader<Box<dyn Read + Send>>>;

/// The size of a [`TextReader`]'s buffer: a refill reads thousands of
/// lines, and few lines straddle one.
const TEXT_BUFFER_BYTES: usize = 64 * 1024;

/// One reader over either trace encoding — the event source behind the
/// `engine` CLI and the shard driver.
///
/// [`AnyReader::open`] and [`AnyReader::from_bytes`] sniff the input's
/// first bytes and route `.rwf` input to [`BinReader`] regardless of the
/// requested text flavour, so callers never need to know what an input
/// contains.
pub enum AnyReader {
    /// Text (std or CSV) through a [`TextReader`].
    Text(TextReader),
    /// The binary wire format.
    Binary(BinReader),
}

impl fmt::Debug for AnyReader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnyReader::Text(reader) => f
                .debug_struct("TextReader")
                .field("line", &reader.line())
                .field("events_read", &reader.events_read())
                .finish_non_exhaustive(),
            AnyReader::Binary(reader) => reader.fmt(f),
        }
    }
}

impl AnyReader {
    /// Opens `path`, auto-detecting the binary format by magic bytes.
    ///
    /// Either way the input streams front to back through a `BufReader`
    /// (text through a [`TextReader`]), with the sniffed bytes chained back
    /// in front of the rest, so pipes and fifos read like regular files.
    ///
    /// The third argument is ignored.  It used to choose between a
    /// memory-mapped and a buffered text reader, and remains only so that
    /// existing callers keep compiling.
    ///
    /// # Errors
    ///
    /// I/O failures surface as [`ParseErrorKind::Io`]; a detected binary
    /// file with an unsound header fails as in [`BinReader::new`].  Other
    /// errors surface while iterating.
    pub fn open(
        path: impl AsRef<Path>,
        text: TextFormat,
        _ignored: bool,
    ) -> Result<AnyReader, ParseError> {
        let io_error =
            |error: io::Error| ParseError { line: 0, kind: ParseErrorKind::Io(error.to_string()) };
        let mut file = File::open(&path).map_err(io_error)?;
        let mut magic = Vec::with_capacity(MAGIC.len());
        (&mut file).take(MAGIC.len() as u64).read_to_end(&mut magic).map_err(io_error)?;
        let binary = looks_binary(&magic);
        let input = io::Cursor::new(magic).chain(file);
        if binary {
            return Ok(AnyReader::Binary(BinReader::new(BufReader::new(input))?));
        }
        Ok(AnyReader::text(text, Box::new(input)))
    }

    /// Reads trace bytes already in memory (a shard shipped over the wire,
    /// a test input), with the same sniff and the same two readers as
    /// [`AnyReader::open`].  `.rwf` bytes are read through an `io::Cursor`,
    /// with no `BufReader` copy in between.
    ///
    /// # Errors
    ///
    /// Binary input with an unsound header fails as in [`BinReader::new`];
    /// other errors surface while iterating.
    pub fn from_bytes(bytes: Vec<u8>, text: TextFormat) -> Result<AnyReader, ParseError> {
        if looks_binary(&bytes) {
            return Ok(AnyReader::Binary(BinReader::from_bytes(bytes)?));
        }
        Ok(AnyReader::text(text, Box::new(io::Cursor::new(bytes))))
    }

    fn text(text: TextFormat, input: Box<dyn Read + Send>) -> AnyReader {
        let buffered = BufReader::with_capacity(TEXT_BUFFER_BYTES, input);
        AnyReader::Text(match text {
            TextFormat::Std => StreamReader::std(buffered),
            TextFormat::Csv => StreamReader::csv(buffered),
        })
    }

    /// The name tables read so far.  They grow as events are read, for
    /// either encoding; a version-1 `.rwf` holds them complete from the
    /// start.
    pub fn names(&self) -> &StreamNames {
        match self {
            AnyReader::Text(reader) => reader.names(),
            AnyReader::Binary(reader) => reader.names(),
        }
    }

    /// Consumes the reader, returning the name tables.
    pub fn into_names(self) -> StreamNames {
        match self {
            AnyReader::Text(reader) => reader.into_names(),
            AnyReader::Binary(reader) => reader.into_names(),
        }
    }

    /// Number of events produced so far.
    pub fn events_read(&self) -> usize {
        match self {
            AnyReader::Text(reader) => reader.events_read(),
            AnyReader::Binary(reader) => reader.events_read(),
        }
    }

    /// Which encoding is being read: `"text"` or `"binary"`.
    pub fn source(&self) -> &'static str {
        match self {
            AnyReader::Text(_) => "text",
            AnyReader::Binary(_) => "binary",
        }
    }
}

impl From<BinReader> for AnyReader {
    fn from(reader: BinReader) -> Self {
        AnyReader::Binary(reader)
    }
}

impl Iterator for AnyReader {
    type Item = Result<Event, ParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            AnyReader::Text(reader) => reader.next(),
            AnyReader::Binary(reader) => reader.next(),
        }
    }
}

/// Drains any reader into a fully materialized [`Trace`] (the batch path of
/// the `engine` CLI, format-agnostic).
///
/// # Errors
///
/// Returns the first [`ParseError`] encountered.
pub fn collect_any(mut reader: AnyReader) -> Result<Trace, ParseError> {
    let mut events = Vec::new();
    for event in reader.by_ref() {
        events.push(event?);
    }
    let (threads, locks, variables, locations) = reader.into_names().into_tables();
    Ok(Trace::from_parts(events, threads, locks, variables, locations))
}

/// Parses a trace in the std (pipe-separated) format.
///
/// # Errors
///
/// Returns a [`ParseError`] with the offending line number.
pub fn parse_std(input: &str) -> Result<Trace, ParseError> {
    collect_trace(StreamReader::std(input.as_bytes()))
}

/// Parses a trace in CSV format (`thread,op(target),location`, optionally
/// preceded by a `thread,op,location` header).
///
/// # Errors
///
/// Returns a [`ParseError`] with the offending line number.
pub fn parse_csv(input: &str) -> Result<Trace, ParseError> {
    collect_trace(StreamReader::csv(input.as_bytes()))
}

fn event_line(trace: &Trace, event_index: usize, separator: char) -> String {
    let event = &trace.events()[event_index];
    let thread = trace
        .thread_name(event.thread())
        .map(str::to_owned)
        .unwrap_or_else(|| event.thread().to_string());
    let target = match event.kind() {
        EventKind::Acquire(lock) | EventKind::Release(lock) => {
            trace.lock_name(lock).map(str::to_owned).unwrap_or_else(|| lock.to_string())
        }
        EventKind::Read(var) | EventKind::Write(var) => {
            trace.variable_name(var).map(str::to_owned).unwrap_or_else(|| var.to_string())
        }
        EventKind::Fork(thread) | EventKind::Join(thread) => {
            trace.thread_name(thread).map(str::to_owned).unwrap_or_else(|| thread.to_string())
        }
    };
    // An unknown location serializes as the documented absent-location form
    // (two fields), which re-parses into per-event synthetic `line<N>`
    // locations — not as a bogus shared literal.
    match trace.location_name(event.location()) {
        Some(location) => format!(
            "{thread}{separator}{op}({target}){separator}{location}",
            op = event.kind().mnemonic()
        ),
        None => format!("{thread}{separator}{op}({target})", op = event.kind().mnemonic()),
    }
}

/// Serializes a trace to the std (pipe-separated) format.
///
/// The writers do not escape: a name containing the separator, a newline,
/// surrounding whitespace, or (for thread names) a leading `#` cannot be
/// represented in a text flavour and would re-parse as something else.
/// [`write_trace_file`] (used by `engine convert`) rejects such traces;
/// this in-memory serializer leaves the check to the caller.
pub fn write_std(trace: &Trace) -> String {
    let mut out = String::new();
    for index in 0..trace.len() {
        out.push_str(&event_line(trace, index, '|'));
        out.push('\n');
    }
    out
}

/// Returns the first interned name that cannot be represented in a text
/// flavour with `separator` (see [`write_std`]), or `None` when the whole
/// trace serializes faithfully.
fn unwritable_name(trace: &Trace, separator: char) -> Option<String> {
    let broken = |name: &str| {
        name.is_empty()
            || name.contains(separator)
            || name.contains('\n')
            || name.trim_ascii() != name
    };
    let tables = [
        (0..trace.num_threads()).map(|id| trace.thread_name(ThreadId::new(id as u32))).collect(),
        (0..trace.num_locks()).map(|id| trace.lock_name(LockId::new(id as u32))).collect(),
        (0..trace.num_variables()).map(|id| trace.variable_name(VarId::new(id as u32))).collect(),
        (0..trace.num_locations())
            .map(|id| trace.location_name(Location::new(id as u32)))
            .collect(),
    ];
    let [threads, locks, variables, locations]: [Vec<Option<&str>>; 4] = tables;
    for name in threads.iter().flatten() {
        // Thread names open the line, where `#` means comment.
        if broken(name) || name.starts_with('#') {
            return Some((*name).to_owned());
        }
    }
    for name in locks.iter().chain(&variables).chain(&locations).flatten() {
        if broken(name) {
            return Some((*name).to_owned());
        }
    }
    None
}

/// Writes `trace` to `path`, choosing the encoding by extension
/// (ASCII case-insensitive): `.rwf` is the binary wire format, `.csv` is
/// CSV, anything else is std text.  The single extension→encoding rule
/// shared by `engine convert` and `rapid_gen::emit`.
///
/// # Errors
///
/// Propagates file-creation and write errors.  For the text flavours,
/// fails with [`io::ErrorKind::InvalidData`] if the trace interns a name
/// the flavour cannot represent (contains the separator or a newline,
/// surrounded by whitespace, empty, or a `#`-leading thread name) — the
/// binary format has no such restriction, so `.rwf` output always works.
pub fn write_trace_file(trace: &Trace, path: impl AsRef<Path>) -> io::Result<()> {
    let path = path.as_ref();
    let reject = |separator: char| match unwritable_name(trace, separator) {
        Some(name) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "name {name:?} cannot be represented in the `{separator}`-separated text \
format (convert to .rwf instead)"
            ),
        )),
        None => Ok(()),
    };
    match path.extension().and_then(|extension| extension.to_str()) {
        Some(extension) if extension.eq_ignore_ascii_case("rwf") => write_rwf_file(trace, path),
        Some(extension) if extension.eq_ignore_ascii_case("csv") => {
            reject(',')?;
            std::fs::write(path, write_csv(trace))
        }
        _ => {
            reject('|')?;
            std::fs::write(path, write_std(trace))
        }
    }
}

/// Serializes a trace to CSV (with a header line).  The caveat of
/// [`write_std`] applies, with `,` as the separator.
pub fn write_csv(trace: &Trace) -> String {
    let mut out = String::from("thread,op,location\n");
    for index in 0..trace.len() {
        out.push_str(&event_line(trace, index, ','));
        out.push('\n');
    }
    out
}

/// Convenience: returns the thread that performs the `index`-th event of a
/// parsed trace (used by round-trip tests).
pub fn thread_of(trace: &Trace, index: usize) -> ThreadId {
    trace.events()[index].thread()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{LockId, VarId};
    use crate::TraceBuilder;

    const SAMPLE: &str = "\
# a small trace
t1|acq(l)|A.java:1
t1|w(x)|A.java:2
t1|rel(l)|A.java:3

t2|acq(l)|B.java:7
t2|r(x)|B.java:8
t2|rel(l)|B.java:9
main|fork(t1)|Main.java:1
";

    #[test]
    fn parses_std_format() {
        let trace = parse_std(SAMPLE).unwrap();
        assert_eq!(trace.len(), 7);
        assert_eq!(trace.num_threads(), 3);
        assert_eq!(trace.num_locks(), 1);
        assert_eq!(trace.num_variables(), 1);
        assert_eq!(trace[0].kind(), EventKind::Acquire(LockId::new(0)));
        assert_eq!(trace[4].kind(), EventKind::Read(VarId::new(0)));
        assert!(trace[6].kind().is_thread_op());
        assert_eq!(trace.location_name(trace[1].location()), Some("A.java:2"));
    }

    #[test]
    fn parses_csv_with_header() {
        let csv = "thread,op,location\nt1,acq(l),A:1\nt1,w(x),A:2\nt1,rel(l),A:3\n";
        let trace = parse_csv(csv).unwrap();
        assert_eq!(trace.len(), 3);
        assert!(trace.validate().is_ok());
    }

    #[test]
    fn csv_header_is_skipped_after_comments_and_blank_lines() {
        // Regression: the header used to be recognized only as the physical
        // first line, so a leading comment made parsing fail even though
        // comments are documented as ignored everywhere.
        let csv = "# logged by rapid\n\nthread,op,location\nt1,acq(l),A:1\nt1,rel(l),A:2\n";
        let trace = parse_csv(csv).unwrap();
        assert_eq!(trace.len(), 2);
    }

    #[test]
    fn location_is_optional() {
        let trace = parse_std("t1|w(x)\nt1|r(x)").unwrap();
        assert_eq!(trace.len(), 2);
        // Default locations are still distinct.
        assert_ne!(trace[0].location(), trace[1].location());
    }

    #[test]
    fn location_is_optional_in_both_flavours() {
        // `t1|acq(l)` with no third field, with a trailing separator, and the
        // CSV equivalents must all parse (the documented optional-location
        // form).
        for input in ["t1|acq(l)\nt1|rel(l)", "t1|acq(l)|\nt1|rel(l)|"] {
            let trace = parse_std(input).unwrap_or_else(|e| panic!("{input:?}: {e}"));
            assert_eq!(trace.len(), 2);
            assert_eq!(trace.location_name(trace[0].location()), Some("line1"));
        }
        for input in ["t1,acq(l)\nt1,rel(l)", "t1,acq(l),\nt1,rel(l),"] {
            let trace = parse_csv(input).unwrap_or_else(|e| panic!("{input:?}: {e}"));
            assert_eq!(trace.len(), 2);
        }
    }

    #[test]
    fn unknown_op_is_an_error() {
        let err = parse_std("t1|lock(l)|A:1").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(matches!(err.kind, ParseErrorKind::UnknownOp(_)));
        assert!(err.to_string().contains("unknown operation"));
    }

    #[test]
    fn malformed_op_is_an_error() {
        let err = parse_std("t1|acq l|A:1").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::MalformedOp(_)));
        let err = parse_std("t1|acq()|A:1").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::MalformedOp(_)));
    }

    #[test]
    fn missing_field_is_an_error() {
        let err = parse_std("t1").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::MissingField);
        let err = parse_std("\n\nt1|").unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn stream_reader_yields_events_without_a_trace() {
        let mut reader = StreamReader::std(SAMPLE.as_bytes());
        let mut count = 0;
        for event in reader.by_ref() {
            let event = event.expect("sample parses");
            assert_eq!(event.id().index(), count);
            count += 1;
        }
        assert_eq!(count, 7);
        assert_eq!(reader.events_read(), 7);
        let names = reader.names();
        assert_eq!(names.num_threads(), 3);
        assert_eq!(names.num_locks(), 1);
        assert_eq!(names.thread_name(ThreadId::new(0)), Some("t1"));
        assert_eq!(names.lock_name(LockId::new(0)), Some("l"));
        assert_eq!(names.variable_name(VarId::new(0)), Some("x"));
    }

    #[test]
    fn bufread_path_replaces_invalid_utf8_in_names() {
        // FORMAT.md §1.4: invalid UTF-8 inside a *name* must not abort
        // ingestion on any path.  Regression: `read_line` used to validate
        // whole lines, so the BufRead path rejected what the zero-copy
        // paths accepted.
        let mut input = b"t1|w(x".to_vec();
        input.push(0xFF);
        input.extend_from_slice(b")|A:1\n");
        let mut reader = StreamReader::std(&input[..]);
        let event = reader.next().unwrap().expect("invalid UTF-8 in a name is not fatal");
        assert!(event.kind().is_write());
        let name = reader.names().variable_name(VarId::new(0)).unwrap();
        assert!(name.contains('\u{FFFD}'));
    }

    /// A text trace in the flavour of `separator` with the line shapes a
    /// refill can split: `\r\n` endings, blank and `#` lines, a CSV header
    /// after a comment, a line longer than the smallest buffers, invalid
    /// UTF-8 in a name and a location-less line.
    fn awkward_lines(separator: char) -> Vec<u8> {
        let s = separator;
        let mut input = b"# logged\r\n\r\n".to_vec();
        if s == ',' {
            input.extend_from_slice(b"thread,op,location\r\n");
        }
        input.extend_from_slice(format!("t1{s}acq(l){s}A.java:1\r\n").as_bytes());
        input.extend_from_slice(
            format!(
                "  a-thread-name-longer-than-a-refill {s} w(shared.counter) {s} Main.java:1234\n"
            )
            .as_bytes(),
        );
        input.extend_from_slice(format!("t2{s}r(x").as_bytes());
        input.push(0xFF);
        input.extend_from_slice(format!("){s}B.java:2\r\n   \n#{s}\nt1{s}rel(l)\n").as_bytes());
        input
    }

    fn flavour<R: BufRead>(source: R, separator: char) -> StreamReader<R> {
        match separator {
            '|' => StreamReader::std(source),
            _ => StreamReader::csv(source),
        }
    }

    /// Everything a reader reports: its items, its last line number and
    /// its name tables.
    type Drained = (
        Vec<Result<Event, ParseError>>,
        usize,
        (Vec<String>, Vec<String>, Vec<String>, Vec<String>),
    );

    fn drain<R: BufRead>(mut reader: StreamReader<R>) -> Drained {
        let items = reader.by_ref().collect();
        (items, reader.line(), reader.into_names().into_tables())
    }

    #[test]
    fn lines_that_straddle_a_refill_parse_as_in_memory() {
        for separator in ['|', ','] {
            let lines = awkward_lines(separator);
            // A malformed last line, and the valid lines alone: neither
            // ends in a newline.
            let malformed = [&lines[..], format!("t3{separator}w x").as_bytes()].concat();
            let valid = &lines[..lines.len() - 1];
            for input in [&malformed[..], valid] {
                let expected = drain(flavour(input, separator));
                let (items, line, (threads, _, variables, _)) = &expected;
                let last_line = input.split(|&byte| byte == b'\n').count();
                assert_eq!(*line, last_line);
                assert_eq!(items.iter().filter(|item| item.is_ok()).count(), 4);
                if input == valid {
                    assert!(items.iter().all(Result::is_ok));
                } else {
                    let error = items.last().expect("an item").clone().expect_err("malformed");
                    assert_eq!(error.line, last_line);
                    assert!(matches!(error.kind, ParseErrorKind::MalformedOp(_)));
                }
                assert_eq!(threads[1], "a-thread-name-longer-than-a-refill");
                assert_eq!(variables, &["shared.counter", "x\u{FFFD}"]);
                for capacity in [1, 2, 3, 7, 64] {
                    let refilled =
                        drain(flavour(BufReader::with_capacity(capacity, input), separator));
                    assert_eq!(refilled, expected, "{separator:?} with a {capacity}-byte buffer");
                }
            }
        }
    }

    /// A fresh fifo in the temp directory, named for `name` and this process.
    #[cfg(unix)]
    fn fifo(name: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("rapid-{name}-{}", std::process::id()));
        std::fs::remove_file(&path).ok();
        let status = std::process::Command::new("mkfifo").arg(&path).status().expect("mkfifo runs");
        assert!(status.success(), "mkfifo failed");
        path
    }

    #[test]
    fn any_reader_does_not_lose_sniffed_bytes_on_fallback_inputs() {
        // Regression: `AnyReader::open` used to consume 4 magic-sniff bytes
        // before handing the file to the readers, corrupting any input that
        // cannot seek back (pipes, fifos).  On unix, exercise a real fifo
        // with text and with a `.rwf` v2 container.
        #[cfg(unix)]
        {
            let text = "t1|w(x)|A:1\nt2|r(x)|B:2\n";
            let rwf = to_rwf_bytes(&parse_std(text).unwrap());
            let expected: Vec<Event> =
                BinReader::from_bytes(rwf.clone()).unwrap().collect::<Result<_, _>>().unwrap();
            for (mode, contents) in [("text", text.as_bytes().to_vec()), ("binary", rwf)] {
                let path = fifo(&format!("anyreader-fifo-{mode}"));
                let writer_path = path.clone();
                let writer = std::thread::spawn(move || {
                    std::fs::write(&writer_path, contents).expect("fifo write");
                });
                let reader = AnyReader::open(&path, TextFormat::Std, true).expect("fifo opens");
                assert_eq!(reader.source(), mode);
                let events: Vec<Event> =
                    reader.collect::<Result<_, _>>().expect("all bytes arrive, none lost");
                writer.join().expect("writer thread");
                std::fs::remove_file(&path).ok();
                assert_eq!(events.len(), 2, "{mode}: first line must not be corrupted");
                assert!(events[0].kind().is_write(), "{mode}");
                assert_eq!(events, expected, "{mode}");
            }
        }
    }

    #[test]
    fn a_live_producers_rwf_is_analyzed_as_it_arrives() {
        // The producer writes its first block of two events, then waits for
        // the reader to decode event 0 before it writes the rest and END.
        // A reader that wanted the whole input before its first event would
        // keep it waiting until the timeout.
        #[cfg(unix)]
        {
            use std::sync::mpsc;
            use std::time::Duration;
            let path = fifo("live-producer");
            let (decoded_first, first_seen) = mpsc::channel();
            let writer_path = path.clone();
            let producer = std::thread::spawn(move || {
                let file = std::fs::OpenOptions::new().write(true).open(writer_path).unwrap();
                let mut writer = RwfStreamWriter::with_block_events(file, 2).unwrap();
                writer.write("t1", "x", Some("A:1")).unwrap();
                writer.read("t2", "x", Some("B:1")).unwrap();
                let signalled = first_seen.recv_timeout(Duration::from_secs(5)).is_ok();
                writer.acquire("t1", "l", Some("A:2")).unwrap();
                writer.release("t1", "l", Some("A:3")).unwrap();
                writer.write("t2", "y", None).unwrap();
                writer.finish().unwrap();
                signalled
            });
            let mut reader = AnyReader::open(&path, TextFormat::Std, true).expect("fifo opens");
            let first = reader.next().expect("an event").expect("decodes");
            decoded_first.send(()).ok();
            let rest: Vec<Event> = reader.collect::<Result<_, _>>().expect("all events arrive");
            let signalled = producer.join().expect("producer thread");
            std::fs::remove_file(&path).ok();
            assert!(first.kind().is_write());
            assert_eq!(rest.len(), 4);
            assert!(signalled, "event 0 was decoded before the producer finished");
        }
    }

    #[test]
    fn unknown_locations_serialize_as_the_absent_location_form() {
        use crate::event::EventId;
        let events = vec![
            Event::new(
                EventId::new(0),
                ThreadId::new(0),
                EventKind::Write(VarId::new(0)),
                Location::UNKNOWN,
            ),
            Event::new(
                EventId::new(1),
                ThreadId::new(0),
                EventKind::Read(VarId::new(0)),
                Location::UNKNOWN,
            ),
        ];
        let trace = Trace::from_parts(
            events,
            vec!["t".to_owned()],
            Vec::new(),
            vec!["x".to_owned()],
            Vec::new(),
        );
        assert_eq!(write_std(&trace), "t|w(x)\nt|r(x)\n");
        // Re-parsing synthesizes distinct locations, not one shared literal.
        let reparsed = parse_std(&write_std(&trace)).unwrap();
        assert_ne!(reparsed[0].location(), reparsed[1].location());
        assert_eq!(reparsed.location_name(reparsed[0].location()), Some("line1"));
    }

    #[test]
    fn write_trace_file_rejects_unrepresentable_names() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();

        // A comma inside a name is legal std but unrepresentable in CSV.
        let trace = parse_std("t1|w(a,b)|A:1\n").unwrap();
        let csv_path = dir.join(format!("rapid-reject-{pid}.csv"));
        let error = write_trace_file(&trace, &csv_path).unwrap_err();
        assert_eq!(error.kind(), std::io::ErrorKind::InvalidData);
        let std_path = dir.join(format!("rapid-reject-{pid}.std"));
        write_trace_file(&trace, &std_path).expect("std can represent a comma");
        assert_eq!(parse_std(&std::fs::read_to_string(&std_path).unwrap()).unwrap().len(), 1);
        std::fs::remove_file(&std_path).ok();

        // A `#`-leading thread name (only constructible outside the text
        // parsers — builder or .rwf) would re-parse as a comment; binary
        // output has no restriction.
        let mut builder = crate::TraceBuilder::new();
        let thread = builder.thread("#t");
        let var = builder.variable("x");
        builder.write(thread, var);
        let trace = builder.finish();
        assert!(write_trace_file(&trace, &std_path).is_err());
        let rwf_path = dir.join(format!("rapid-reject-{pid}.rwf"));
        write_trace_file(&trace, &rwf_path).expect("the wire format represents any name");
        let decoded = collect_any(BinReader::open(&rwf_path).unwrap().into()).unwrap();
        std::fs::remove_file(&rwf_path).ok();
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded.thread_name(ThreadId::new(0)), Some("#t"));
    }

    #[test]
    fn write_trace_file_dispatches_extensions_case_insensitively() {
        let trace = parse_std("t1|w(x)|A:1\nt2|r(x)|B:2\n").unwrap();
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let upper = dir.join(format!("rapid-dispatch-{pid}.RWF"));
        write_trace_file(&trace, &upper).unwrap();
        let bytes = std::fs::read(&upper).unwrap();
        std::fs::remove_file(&upper).ok();
        assert!(looks_binary(&bytes), ".RWF must dispatch to the binary writer");
    }

    #[test]
    fn stream_reader_stops_at_the_first_error() {
        let input = "t1|w(x)|A:1\nt1|nope(x)|A:2\nt1|r(x)|A:3\n";
        let mut reader = StreamReader::std(input.as_bytes());
        assert!(reader.next().unwrap().is_ok());
        let err = reader.next().unwrap().unwrap_err();
        assert_eq!(err.line, 2);
        assert!(matches!(err.kind, ParseErrorKind::UnknownOp(_)));
        assert!(reader.next().is_none(), "the reader fuses after an error");
    }

    #[test]
    fn stream_and_batch_agree_on_the_sample() {
        let trace = parse_std(SAMPLE).unwrap();
        let streamed: Vec<Event> =
            StreamReader::std(SAMPLE.as_bytes()).collect::<Result<_, _>>().unwrap();
        assert_eq!(trace.events(), streamed.as_slice());
    }

    #[test]
    fn roundtrip_std() {
        let mut b = TraceBuilder::new();
        let t1 = b.thread("worker-1");
        let t2 = b.thread("worker-2");
        let l = b.lock("mutex");
        let x = b.variable("counter");
        b.at("W.java:5");
        b.acquire(t1, l);
        b.at("W.java:6");
        b.write(t1, x);
        b.at("W.java:7");
        b.release(t1, l);
        b.at("W.java:5");
        b.acquire(t2, l);
        b.at("W.java:6");
        b.write(t2, x);
        b.at("W.java:7");
        b.release(t2, l);
        let original = b.finish();

        let text = write_std(&original);
        let reparsed = parse_std(&text).unwrap();
        assert_eq!(reparsed.len(), original.len());
        for (a, b) in original.events().iter().zip(reparsed.events()) {
            assert_eq!(a.kind(), b.kind());
            assert_eq!(a.thread(), b.thread());
        }
        assert_eq!(thread_of(&reparsed, 3), ThreadId::new(1));
    }

    #[test]
    fn roundtrip_csv() {
        let trace = parse_std(SAMPLE).unwrap();
        let csv = write_csv(&trace);
        assert!(csv.starts_with("thread,op,location\n"));
        let reparsed = parse_csv(&csv).unwrap();
        assert_eq!(reparsed.len(), trace.len());
    }
}
