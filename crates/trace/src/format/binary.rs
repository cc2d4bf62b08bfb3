//! The rapid wire format (`.rwf`): a fixed-width binary event encoding.
//!
//! The text formats pay a per-line parse and up to three interner lookups
//! per event; the wire format removes string handling from the hot path
//! entirely.  Every event is one fixed-width 13-byte *frame*:
//!
//! ```text
//! frame := thread u32 LE | op u8 | target u32 LE | loc u32 LE
//! ```
//!
//! so decoding an event is four loads and a bounds check.  All ids are
//! indices into four string tables (threads, locks, variables, locations),
//! assigned in order of *first appearance in the event stream* — the same
//! order the text readers intern in — so a `.rwf` converted from text
//! yields bit-identical ids (and therefore identical detector timestamps)
//! to streaming the original text.
//!
//! There is one encoder, [`RwfStreamWriter`], and it writes version 2, the
//! *streamed* container: a 12-byte header, then blocks of frames
//! interleaved with string-table *deltas*, closed by an END block carrying
//! the event count — so a producer can append events as they happen
//! without materializing the trace (or even knowing the final name tables)
//! first.  [`to_rwf_bytes`] and [`write_rwf_file`] run it over a [`Trace`].
//! Version 1, whose header carries the complete tables before one frame
//! section, is read but no longer written; [`BinReader`] accepts both and
//! yields identical events for equivalent content.  The full normative
//! layout, including endianness and error semantics, is `docs/FORMAT.md`
//! §3; the golden fixtures `crates/trace/tests/fixtures/figure2b.v2.rwf`
//! and `figure2b.rwf` (v1) pin both versions byte for byte.
//!
//! # Examples
//!
//! Convert a textual trace to the wire format and stream it back (what
//! `engine convert` does):
//!
//! ```
//! use rapid_trace::format::{self, BinReader};
//!
//! let text = "t1|w(x)|A.java:1\nt2|r(x)|B.java:2\n";
//! let trace = format::parse_std(text).unwrap();
//! let rwf = format::to_rwf_bytes(&trace);
//! assert!(format::looks_binary(&rwf));
//!
//! let reader = BinReader::from_bytes(rwf).unwrap();
//! let roundtrip = format::collect_any(reader.into()).unwrap();
//! assert_eq!(format::write_std(&roundtrip), text);
//! ```

use std::borrow::Cow;
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use rapid_vc::ThreadId;

use crate::builder::Interner;
use crate::event::{Event, EventId, EventKind};
use crate::ids::{Location, LockId, VarId};
use crate::names::NameResolver;
use crate::trace::Trace;

use super::wire;
use super::{ParseError, ParseErrorKind, StreamNames};

/// The four magic bytes opening every `.rwf` file: `"RWF"` plus a NUL, which
/// cannot occur at the start of either text format.
pub const MAGIC: [u8; 4] = *b"RWF\0";

/// The batch wire-format version: complete string tables in the header,
/// then one frame section.  [`BinReader`] reads it; nothing writes it.
pub const VERSION: u16 = 1;

/// The streamed wire-format version, the one [`RwfStreamWriter`] writes:
/// frames arrive in blocks interleaved with string-table deltas,
/// terminated by an END block carrying the authoritative event count.
pub const VERSION_STREAM: u16 = 2;

/// The `loc` field value encoding "no location recorded"
/// ([`Location::UNKNOWN`]).
pub const NO_LOCATION: u32 = u32::MAX;

/// Size in bytes of one event frame.
pub const FRAME_LEN: usize = 13;

const OP_ACQUIRE: u8 = 0;
const OP_RELEASE: u8 = 1;
const OP_READ: u8 = 2;
const OP_WRITE: u8 = 3;
const OP_FORK: u8 = 4;
const OP_JOIN: u8 = 5;

/// Block tags of the streamed (version-2) container body.
const BLOCK_NAMES: u8 = 0;
const BLOCK_EVENTS: u8 = 1;
const BLOCK_END: u8 = 2;

/// Table indices used by NAMES deltas, in the §3.2 table order.
const TABLE_THREADS: usize = 0;
const TABLE_LOCKS: usize = 1;
const TABLE_VARIABLES: usize = 2;
const TABLE_LOCATIONS: usize = 3;

/// Events buffered before [`RwfStreamWriter`] flushes a block (about 53 KiB
/// of frames — small enough to bound producer memory, large enough that the
/// per-block tag overhead vanishes).  [`BinReader`] reads frames in runs of
/// the same size, which bounds the reader's memory the same way.
const DEFAULT_BLOCK_EVENTS: usize = 4096;

/// Returns true when `bytes` starts with the `.rwf` magic — the sniff the
/// `engine` CLI uses to auto-detect binary inputs.
pub fn looks_binary(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == MAGIC
}

/// Serializes `trace` into wire-format bytes: a [`RwfStreamWriter`] over a
/// `Vec`, one [`append`](RwfStreamWriter::append) per event.
///
/// Ids come out in first-appearance order (threads, locks, variables and
/// locations alike), matching the interning order of the text readers;
/// names never reached by an event are dropped.  Converting a parsed text
/// trace and re-reading it therefore reproduces the text reader's ids,
/// names and events exactly.
pub fn to_rwf_bytes(trace: &Trace) -> Vec<u8> {
    encode(trace, Vec::new()).expect("writing to a Vec cannot fail")
}

/// Writes `trace` to `path` in the wire format, one block at a time.
///
/// # Errors
///
/// Propagates file-creation and write errors.
pub fn write_rwf_file(trace: &Trace, path: impl AsRef<Path>) -> io::Result<()> {
    encode(trace, BufWriter::new(File::create(path)?)).map(drop)
}

/// Streams every event of `trace` through one [`RwfStreamWriter`] on `sink`.
fn encode<W: Write>(trace: &Trace, sink: W) -> io::Result<W> {
    let mut writer = RwfStreamWriter::new(sink)?;
    for event in trace.events() {
        writer.append(event, trace)?;
    }
    writer.finish()
}

/// The one `.rwf` encoder: it writes the version-2 container.
///
/// The writer appends events as they happen, without the whole trace or
/// its name tables up front: frames are buffered into fixed-size blocks,
/// and each block is preceded by NAMES *deltas* carrying only the names
/// first seen since the previous flush.  Ids are assigned in first-
/// appearance order — the normative §1.4 order — so an encoding of a
/// parsed text trace decodes to exactly the events, ids and names the text
/// reader assigns, and therefore identical detector timestamps.
///
/// Two entry points:
///
/// * the **producer API** ([`acquire`](Self::acquire),
///   [`release`](Self::release), [`read`](Self::read),
///   [`write`](Self::write), [`fork`](Self::fork), [`join`](Self::join))
///   takes names directly — what a tracer emitting events live uses;
/// * the **transcode API** ([`append`](Self::append)) re-encodes existing
///   [`Event`]s, resolving ids through any [`NameResolver`].
///
/// [`finish`](Self::finish) must be called to emit the END block; a
/// container without one is `Truncated` by construction.
///
/// # Examples
///
/// ```
/// use rapid_trace::format::{self, BinReader, RwfStreamWriter};
///
/// let mut writer = RwfStreamWriter::new(Vec::new()).unwrap();
/// writer.write("t1", "x", Some("A.java:1")).unwrap();
/// writer.read("t2", "x", Some("B.java:2")).unwrap();
/// let bytes = writer.finish().unwrap();
///
/// let reader = BinReader::from_bytes(bytes).unwrap();
/// let trace = format::collect_any(reader.into()).unwrap();
/// assert_eq!(format::write_std(&trace), "t1|w(x)|A.java:1\nt2|r(x)|B.java:2\n");
/// ```
#[derive(Debug)]
pub struct RwfStreamWriter<W: Write> {
    sink: W,
    tables: [Interner; 4],
    /// Per-table memo of [`append`](Self::append): source id → output id,
    /// [`UNASSIGNED`] until the id is first seen.
    memo: [Vec<u32>; 4],
    /// Per-table count of names already emitted in a NAMES delta.
    flushed: [usize; 4],
    /// Encoded frames of the block under construction.
    frames: Vec<u8>,
    pending: u32,
    total: u64,
    block_events: usize,
}

impl<W: Write> RwfStreamWriter<W> {
    /// Starts a streamed container on `sink`, writing the v2 header.
    ///
    /// # Errors
    ///
    /// Propagates the sink's I/O error.
    pub fn new(sink: W) -> io::Result<Self> {
        RwfStreamWriter::with_block_events(sink, DEFAULT_BLOCK_EVENTS)
    }

    /// Like [`RwfStreamWriter::new`] with an explicit events-per-block
    /// budget (clamped to ≥ 1) — tests use tiny blocks to exercise the
    /// multi-block paths.
    ///
    /// # Errors
    ///
    /// Propagates the sink's I/O error.
    pub fn with_block_events(mut sink: W, block_events: usize) -> io::Result<Self> {
        let mut header = Vec::with_capacity(12);
        header.extend_from_slice(&MAGIC);
        wire::put_u16(&mut header, VERSION_STREAM);
        wire::put_u16(&mut header, 0); // reserved
        wire::put_u32(&mut header, 0); // count lives in the END block
        sink.write_all(&header)?;
        Ok(RwfStreamWriter {
            sink,
            tables: Default::default(),
            memo: Default::default(),
            flushed: [0; 4],
            frames: Vec::new(),
            pending: 0,
            total: 0,
            block_events: block_events.max(1),
        })
    }

    /// Appends a lock-acquire event.
    ///
    /// # Errors
    ///
    /// Propagates the sink's I/O error.
    pub fn acquire(&mut self, thread: &str, lock: &str, location: Option<&str>) -> io::Result<()> {
        self.push(thread, OP_ACQUIRE, TABLE_LOCKS, lock, location)
    }

    /// Appends a lock-release event.
    ///
    /// # Errors
    ///
    /// Propagates the sink's I/O error.
    pub fn release(&mut self, thread: &str, lock: &str, location: Option<&str>) -> io::Result<()> {
        self.push(thread, OP_RELEASE, TABLE_LOCKS, lock, location)
    }

    /// Appends a variable read.
    ///
    /// # Errors
    ///
    /// Propagates the sink's I/O error.
    pub fn read(&mut self, thread: &str, variable: &str, location: Option<&str>) -> io::Result<()> {
        self.push(thread, OP_READ, TABLE_VARIABLES, variable, location)
    }

    /// Appends a variable write.
    ///
    /// # Errors
    ///
    /// Propagates the sink's I/O error.
    pub fn write(
        &mut self,
        thread: &str,
        variable: &str,
        location: Option<&str>,
    ) -> io::Result<()> {
        self.push(thread, OP_WRITE, TABLE_VARIABLES, variable, location)
    }

    /// Appends a thread fork.
    ///
    /// # Errors
    ///
    /// Propagates the sink's I/O error.
    pub fn fork(&mut self, thread: &str, child: &str, location: Option<&str>) -> io::Result<()> {
        self.push(thread, OP_FORK, TABLE_THREADS, child, location)
    }

    /// Appends a thread join.
    ///
    /// # Errors
    ///
    /// Propagates the sink's I/O error.
    pub fn join(&mut self, thread: &str, child: &str, location: Option<&str>) -> io::Result<()> {
        self.push(thread, OP_JOIN, TABLE_THREADS, child, location)
    }

    /// Re-encodes an existing event, resolving its ids through `names` — the
    /// transcode path (`Trace` → v2, or any reader's names).  Unknown
    /// locations stay unknown; ids without a recorded name fall back to
    /// their display form.
    ///
    /// Each source id is resolved and interned only the first time it
    /// appears; later events reuse the memoized output id.  So every
    /// `append` on one writer must pass the same resolver (debug builds
    /// check that a memoized id still resolves to the same name).
    ///
    /// # Errors
    ///
    /// Propagates the sink's I/O error.
    pub fn append(&mut self, event: &Event, names: &dyn NameResolver) -> io::Result<()> {
        let (op, table, target) = match event.kind() {
            EventKind::Acquire(lock) => (OP_ACQUIRE, TABLE_LOCKS, lock.raw()),
            EventKind::Release(lock) => (OP_RELEASE, TABLE_LOCKS, lock.raw()),
            EventKind::Read(var) => (OP_READ, TABLE_VARIABLES, var.raw()),
            EventKind::Write(var) => (OP_WRITE, TABLE_VARIABLES, var.raw()),
            EventKind::Fork(child) => (OP_FORK, TABLE_THREADS, child.raw()),
            EventKind::Join(child) => (OP_JOIN, TABLE_THREADS, child.raw()),
        };
        let thread = self.output_id(TABLE_THREADS, event.thread().raw(), names);
        let target = self.output_id(table, target, names);
        let loc = if event.location().is_unknown() {
            NO_LOCATION
        } else {
            self.output_id(TABLE_LOCATIONS, event.location().raw(), names)
        };
        self.push_frame(thread, op, target, loc)
    }

    /// Number of events appended so far.
    pub fn events_written(&self) -> u64 {
        self.total
    }

    /// Flushes any buffered frames and writes the END block, returning the
    /// sink.  Dropping the writer without calling this leaves a container
    /// that decodes as `Truncated` — deliberately: a crashed producer must
    /// not pass for a complete trace.
    ///
    /// # Errors
    ///
    /// Propagates the sink's I/O error.
    pub fn finish(mut self) -> io::Result<W> {
        if self.pending > 0 {
            self.flush_block()?;
        }
        let mut end = Vec::with_capacity(9);
        wire::put_u8(&mut end, BLOCK_END);
        wire::put_u64(&mut end, self.total);
        self.sink.write_all(&end)?;
        self.sink.flush()?;
        Ok(self.sink)
    }

    /// Encodes one frame, interning in the normative per-event order
    /// (thread, target, location) so ids match the text readers'.
    fn push(
        &mut self,
        thread: &str,
        op: u8,
        table: usize,
        target: &str,
        location: Option<&str>,
    ) -> io::Result<()> {
        let thread = self.tables[TABLE_THREADS].intern(thread);
        let target = self.tables[table].intern(target);
        let loc = location.map_or(NO_LOCATION, |name| self.tables[TABLE_LOCATIONS].intern(name));
        self.push_frame(thread, op, target, loc)
    }

    /// The output id of source id `raw` in `table`: memoized, or interned
    /// under the name `names` gives it on first sight.
    fn output_id(&mut self, table: usize, raw: u32, names: &dyn NameResolver) -> u32 {
        let memo = &mut self.memo[table];
        if memo.len() <= raw as usize {
            memo.resize(raw as usize + 1, UNASSIGNED);
        }
        let slot = &mut memo[raw as usize];
        if *slot == UNASSIGNED {
            *slot = self.tables[table].intern(&source_name(names, table, raw));
        }
        debug_assert_eq!(
            self.tables[table].name(*slot),
            Some(&*source_name(names, table, raw)),
            "one RwfStreamWriter appended events of two resolvers"
        );
        *slot
    }

    /// Buffers one frame of output ids, flushing a full block.
    fn push_frame(&mut self, thread: u32, op: u8, target: u32, loc: u32) -> io::Result<()> {
        wire::put_u32(&mut self.frames, thread);
        wire::put_u8(&mut self.frames, op);
        wire::put_u32(&mut self.frames, target);
        wire::put_u32(&mut self.frames, loc);
        self.pending += 1;
        self.total += 1;
        if self.pending as usize >= self.block_events {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Emits the NAMES deltas for names first interned since the last flush,
    /// then one EVENTS block with the buffered frames.
    fn flush_block(&mut self) -> io::Result<()> {
        let mut block = Vec::with_capacity(self.frames.len() + 64);
        for (table, interner) in self.tables.iter().enumerate() {
            let (start, end) = (self.flushed[table], interner.len());
            if start == end {
                continue;
            }
            wire::put_u8(&mut block, BLOCK_NAMES);
            wire::put_u8(&mut block, table as u8);
            wire::put_u32(&mut block, (end - start) as u32);
            for id in start..end {
                wire::put_str(&mut block, interner.name(id as u32).expect("interned name"));
            }
            self.flushed[table] = end;
        }
        wire::put_u8(&mut block, BLOCK_EVENTS);
        wire::put_u32(&mut block, self.pending);
        block.extend_from_slice(&self.frames);
        self.sink.write_all(&block)?;
        self.frames.clear();
        self.pending = 0;
        Ok(())
    }
}

/// Marks a source id [`RwfStreamWriter::append`] has not seen yet.
const UNASSIGNED: u32 = u32::MAX;

/// The name `names` gives source id `raw` of `table`, or the id's display
/// form when it has none.
fn source_name(names: &dyn NameResolver, table: usize, raw: u32) -> Cow<'_, str> {
    fn label(name: Option<&str>, id: impl fmt::Display) -> Cow<'_, str> {
        name.map_or_else(|| Cow::Owned(id.to_string()), Cow::Borrowed)
    }
    match table {
        TABLE_THREADS => label(names.thread_name(ThreadId::new(raw)), ThreadId::new(raw)),
        TABLE_LOCKS => label(names.lock_name(LockId::new(raw)), LockId::new(raw)),
        TABLE_VARIABLES => label(names.variable_name(VarId::new(raw)), VarId::new(raw)),
        _ => label(names.location_name(Location::new(raw)), Location::new(raw)),
    }
}

/// Maps a failed read to its typed error at frame `line`: running out of
/// input is [`ParseErrorKind::Truncated`], anything else
/// [`ParseErrorKind::Io`].
fn read_error(error: io::Error, line: usize) -> ParseError {
    let kind = match error.kind() {
        io::ErrorKind::UnexpectedEof => ParseErrorKind::Truncated,
        _ => ParseErrorKind::Io(error.to_string()),
    };
    ParseError { line, kind }
}

/// Reads the next `N` bytes of `input`; an error is numbered `line`.
fn take<const N: usize>(input: &mut dyn BufRead, line: usize) -> Result<[u8; N], ParseError> {
    let mut bytes = [0; N];
    input.read_exact(&mut bytes).map_err(|error| read_error(error, line))?;
    Ok(bytes)
}

/// Reads a `u32` count, then that many `u32`-length-prefixed names
/// (invalid UTF-8 replaced, §1.4), appended to `table` in id order.
/// Nothing is reserved for a declared count or length: buffers grow only
/// as bytes arrive, so a hostile header fails as `Truncated` at the end of
/// the input, having allocated no more than the input held.
fn read_names(
    input: &mut dyn BufRead,
    table: &mut Interner,
    line: usize,
) -> Result<(), ParseError> {
    let count = u32::from_le_bytes(take(input, line)?);
    let mut name = Vec::new();
    for _ in 0..count {
        let len = u32::from_le_bytes(take(input, line)?);
        name.clear();
        (&mut *input)
            .take(u64::from(len))
            .read_to_end(&mut name)
            .map_err(|error| read_error(error, line))?;
        if name.len() != len as usize {
            return Err(ParseError { line, kind: ParseErrorKind::Truncated });
        }
        table.insert(&String::from_utf8_lossy(&name));
    }
    Ok(())
}

/// Checks that `input` ends here: one more byte is `TrailingBytes`.
fn expect_end(input: &mut dyn BufRead, line: usize) -> Result<(), ParseError> {
    match input.read_exact(&mut [0]) {
        Ok(()) => Err(ParseError { line, kind: ParseErrorKind::TrailingBytes }),
        Err(error) if error.kind() == io::ErrorKind::UnexpectedEof => Ok(()),
        Err(error) => Err(read_error(error, line)),
    }
}

/// A streaming reader of wire-format traces, of either container version.
///
/// It reads its input once, front to back, as the text reader does: the
/// constructor reads the header (and a v1 body's name tables), and
/// iteration reads the rest in order — v2 NAMES deltas as they arrive,
/// frames in runs of at most 4096 into one reused buffer, and the v2 END
/// block, whose total must equal the frames read and after which the input
/// must end.  Memory holds the name tables and one run, never the input,
/// and a `.rwf` written by a live producer decodes as it arrives.
///
/// Every error surfaces where its bytes are read.  Its `line` field
/// carries the 1-based number of the frame the reader was working toward:
/// 0 for the header, and one more than the frames read after it.
pub struct BinReader {
    input: Box<dyn BufRead + Send>,
    /// A v2 body is a block sequence; a v1 body is one frame section.
    streamed: bool,
    names: StreamNames,
    /// Frames of the current section (a v2 EVENTS block, or the v1 body)
    /// not yet read into `chunk`.
    section_left: u32,
    read: u32,
    /// Set at the end of the input or after an error: the iterator is fused.
    done: bool,
    /// The current run of frames; one buffer, reused by every refill.
    chunk: Vec<u8>,
    /// Byte offset of the next frame in `chunk`.
    at: usize,
}

impl fmt::Debug for BinReader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BinReader")
            .field("read", &self.read)
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

impl BinReader {
    /// Reads the header of a container of either version from `input`,
    /// and a v1 body's four name tables; the rest is read while iterating.
    ///
    /// # Errors
    ///
    /// [`ParseErrorKind::BadMagic`], [`ParseErrorKind::BadVersion`] or
    /// [`ParseErrorKind::Truncated`] when the header is unsound;
    /// [`ParseErrorKind::Io`] when reading fails.
    pub fn new(input: impl BufRead + Send + 'static) -> Result<Self, ParseError> {
        let mut input: Box<dyn BufRead + Send> = Box::new(input);
        if take::<4>(&mut *input, 0)? != MAGIC {
            return Err(ParseError { line: 0, kind: ParseErrorKind::BadMagic });
        }
        let version = u16::from_le_bytes(take(&mut *input, 0)?);
        take::<2>(&mut *input, 0)?; // reserved
        let declared = u32::from_le_bytes(take(&mut *input, 0)?);
        let mut names = StreamNames::default();
        let section_left = match version {
            VERSION => {
                for table in names.tables_mut() {
                    read_names(&mut *input, table, 0)?;
                }
                declared
            }
            VERSION_STREAM => 0,
            other => return Err(ParseError { line: 0, kind: ParseErrorKind::BadVersion(other) }),
        };
        Ok(BinReader {
            input,
            streamed: version == VERSION_STREAM,
            names,
            section_left,
            read: 0,
            done: false,
            chunk: Vec::new(),
            at: 0,
        })
    }

    /// Reads wire-format bytes in memory.
    ///
    /// # Errors
    ///
    /// As [`BinReader::new`].
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, ParseError> {
        BinReader::new(io::Cursor::new(bytes))
    }

    /// Opens a `.rwf` file by path and reads its header.
    ///
    /// # Errors
    ///
    /// I/O failures surface as [`ParseErrorKind::Io`]; header failures
    /// as in [`BinReader::new`].
    pub fn open(path: impl AsRef<Path>) -> Result<Self, ParseError> {
        let file = File::open(path)
            .map_err(|error| ParseError { line: 0, kind: ParseErrorKind::Io(error.to_string()) })?;
        BinReader::new(BufReader::new(file))
    }

    /// The name tables read so far: complete from the start in a v1 file,
    /// grown by each NAMES delta in a v2 one, as the text readers' tables
    /// grow with the events.
    pub fn names(&self) -> &StreamNames {
        &self.names
    }

    /// Consumes the reader, returning the name tables.
    pub fn into_names(self) -> StreamNames {
        self.names
    }

    /// Number of events produced so far.
    pub fn events_read(&self) -> usize {
        self.read as usize
    }

    /// Reads on to the next run of frames, through the NAMES deltas and
    /// EVENTS header before it, and reads the run (at most
    /// [`DEFAULT_BLOCK_EVENTS`] frames, never past its section) into the
    /// reused chunk buffer.  Returns false at the sound end of the input.
    fn refill(&mut self) -> Result<bool, ParseError> {
        let line = self.read as usize + 1;
        let input = &mut *self.input;
        while self.section_left == 0 {
            if !self.streamed {
                return expect_end(input, line).map(|()| false);
            }
            match take::<1>(input, line)?[0] {
                BLOCK_NAMES => {
                    let index = take::<1>(input, line)?[0];
                    let Some(table) = self.names.tables_mut().into_iter().nth(index.into()) else {
                        return Err(ParseError { line, kind: ParseErrorKind::BadBlockTag(index) });
                    };
                    read_names(input, table, line)?;
                }
                BLOCK_EVENTS => self.section_left = u32::from_le_bytes(take(input, line)?),
                BLOCK_END => {
                    if u64::from_le_bytes(take(input, line)?) != u64::from(self.read) {
                        return Err(ParseError { line, kind: ParseErrorKind::Truncated });
                    }
                    return expect_end(input, line).map(|()| false);
                }
                other => return Err(ParseError { line, kind: ParseErrorKind::BadBlockTag(other) }),
            }
        }
        // Event ids are 32-bit: a frame after the first `u32::MAX` has none.
        let room = u32::MAX - self.read;
        if room == 0 {
            return Err(ParseError { line, kind: ParseErrorKind::TooManyEvents });
        }
        let frames = self.section_left.min(DEFAULT_BLOCK_EVENTS as u32).min(room);
        self.chunk.resize(frames as usize * FRAME_LEN, 0);
        input.read_exact(&mut self.chunk).map_err(|error| read_error(error, line))?;
        self.section_left -= frames;
        self.at = 0;
        Ok(true)
    }

    fn decode_frame(&mut self) -> Result<Event, ParseError> {
        let line = self.read as usize + 1;
        let frame = &self.chunk[self.at..self.at + FRAME_LEN];
        let thread = u32::from_le_bytes(frame[0..4].try_into().expect("13-byte frame"));
        let op = frame[4];
        let target = u32::from_le_bytes(frame[5..9].try_into().expect("13-byte frame"));
        let loc = u32::from_le_bytes(frame[9..13].try_into().expect("13-byte frame"));

        // Ids are checked against the names read so far: a NAMES delta after
        // this frame's block has not been read yet, so a streamed frame
        // cannot reference it.
        let check = |table: &'static str, id: u32, names: &Interner| {
            let len = names.len() as u32;
            if id < len {
                Ok(id)
            } else {
                Err(ParseError { line, kind: ParseErrorKind::BadNameId { table, id, len } })
            }
        };
        let names = &self.names;
        let thread = ThreadId::new(check("threads", thread, &names.threads)?);
        let kind = match op {
            OP_ACQUIRE | OP_RELEASE => {
                let lock = LockId::new(check("locks", target, &names.locks)?);
                if op == OP_ACQUIRE {
                    EventKind::Acquire(lock)
                } else {
                    EventKind::Release(lock)
                }
            }
            OP_READ | OP_WRITE => {
                let var = VarId::new(check("variables", target, &names.variables)?);
                if op == OP_READ {
                    EventKind::Read(var)
                } else {
                    EventKind::Write(var)
                }
            }
            OP_FORK | OP_JOIN => {
                let child = ThreadId::new(check("threads", target, &names.threads)?);
                if op == OP_FORK {
                    EventKind::Fork(child)
                } else {
                    EventKind::Join(child)
                }
            }
            other => return Err(ParseError { line, kind: ParseErrorKind::BadOpCode(other) }),
        };
        let location = if loc == NO_LOCATION {
            Location::UNKNOWN
        } else {
            Location::new(check("locations", loc, &names.locations)?)
        };
        let event = Event::new(EventId::new(self.read), thread, kind, location);
        self.at += FRAME_LEN;
        self.read += 1;
        Ok(event)
    }
}

impl Iterator for BinReader {
    type Item = Result<Event, ParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let item = if self.at < self.chunk.len() {
            self.decode_frame()
        } else {
            match self.refill() {
                Ok(true) => self.decode_frame(),
                Ok(false) => {
                    self.done = true;
                    return None;
                }
                Err(error) => Err(error),
            }
        };
        self.done = item.is_err();
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use super::super::{collect_any, parse_std, write_std};
    use super::*;

    const SAMPLE: &str = "\
t1|w(y)|A.java:1
t1|acq(l)|A.java:2
t1|fork(t2)|A.java:3
t2|r(y)|B.java:1
t1|rel(l)|A.java:4
";

    /// Figure 2b in version 1, which nothing writes any more: v1 reads are
    /// tested on this committed file.
    const FIGURE2B_V1: &[u8] = include_bytes!("../../tests/fixtures/figure2b.rwf");

    /// `trace` as a v2 container of `block_events`-event blocks.
    fn in_blocks(trace: &Trace, block_events: usize) -> Vec<u8> {
        let mut writer = RwfStreamWriter::with_block_events(Vec::new(), block_events).unwrap();
        for event in trace.events() {
            writer.append(event, trace).unwrap();
        }
        writer.finish().unwrap()
    }

    fn version(bytes: &[u8]) -> u16 {
        u16::from_le_bytes([bytes[4], bytes[5]])
    }

    /// The first error decoding `bytes` meets, in the header or later.
    fn first_error(bytes: Vec<u8>) -> ParseError {
        match BinReader::from_bytes(bytes) {
            Ok(reader) => reader.filter_map(Result::err).next().expect("an error"),
            Err(error) => error,
        }
    }

    /// A v2 header, for containers built by hand.
    fn v2_header() -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        wire::put_u16(&mut bytes, VERSION_STREAM);
        wire::put_u16(&mut bytes, 0);
        wire::put_u32(&mut bytes, 0);
        bytes
    }

    #[test]
    fn round_trips_text_exactly() {
        let trace = parse_std(SAMPLE).unwrap();
        let bytes = to_rwf_bytes(&trace);
        assert!(looks_binary(&bytes));
        assert_eq!(version(&bytes), VERSION_STREAM);
        let reader = BinReader::from_bytes(bytes).unwrap();
        let roundtrip = collect_any(reader.into()).unwrap();
        assert_eq!(roundtrip.events(), trace.events(), "ids are canonical on both sides");
        assert_eq!(write_std(&roundtrip), SAMPLE);
    }

    #[test]
    fn header_rejects_bad_magic_version_truncation_and_trailing_bytes() {
        let trace = parse_std(SAMPLE).unwrap();
        let good = to_rwf_bytes(&trace);

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert_eq!(BinReader::from_bytes(bad_magic).unwrap_err().kind, ParseErrorKind::BadMagic);

        let mut bad_version = good.clone();
        bad_version[4] = 0xEE;
        assert!(matches!(
            BinReader::from_bytes(bad_version).unwrap_err().kind,
            ParseErrorKind::BadVersion(0xEE)
        ));

        // Damage after the header surfaces where it is read.
        for good in [good, FIGURE2B_V1.to_vec()] {
            let truncated = good[..good.len() - 1].to_vec();
            assert_eq!(first_error(truncated).kind, ParseErrorKind::Truncated);

            let mut trailing = good.clone();
            trailing.push(0);
            assert_eq!(first_error(trailing).kind, ParseErrorKind::TrailingBytes);
        }

        assert_eq!(
            BinReader::from_bytes(b"RW".to_vec()).unwrap_err().kind,
            ParseErrorKind::Truncated
        );
    }

    #[test]
    fn frames_reject_bad_op_codes_and_out_of_range_ids() {
        // A v1 file holds its 8 frames in one section after the 127-byte
        // header.
        let good = FIGURE2B_V1.to_vec();
        assert_eq!(version(&good), VERSION);
        let first_frame = 127;

        let mut bad_op = good.clone();
        bad_op[first_frame + FRAME_LEN + 4] = 9; // second frame's op byte
        let mut reader = BinReader::from_bytes(bad_op).unwrap();
        assert!(reader.next().unwrap().is_ok());
        let error = reader.next().unwrap().unwrap_err();
        assert_eq!(error.line, 2, "frame number, 1-based");
        assert!(matches!(error.kind, ParseErrorKind::BadOpCode(9)));
        assert!(reader.next().is_none(), "the reader fuses after an error");

        let mut bad_id = good.clone();
        bad_id[first_frame] = 0xFE; // first frame's thread id
        let mut reader = BinReader::from_bytes(bad_id).unwrap();
        let error = reader.next().unwrap().unwrap_err();
        assert_eq!(error.line, 1);
        assert!(matches!(
            error.kind,
            ParseErrorKind::BadNameId { table: "threads", id: 0xFE, len: 2 }
        ));
    }

    #[test]
    fn builder_traces_are_canonicalized_to_first_appearance_order() {
        use crate::TraceBuilder;
        // Declare names in an order that differs from use order.
        let mut b = TraceBuilder::new();
        let t_unused = b.thread("never-used");
        let t2 = b.thread("t2");
        let t1 = b.thread("t1");
        let x = b.variable("x");
        b.write(t1, x);
        b.read(t2, x);
        let _ = t_unused;
        let trace = b.finish();

        let mut reader = BinReader::from_bytes(to_rwf_bytes(&trace)).unwrap();
        assert!(reader.by_ref().all(|event| event.is_ok()));
        // First-appearance order: t1 first, unused name dropped.
        assert_eq!(reader.names().num_threads(), 2);
        assert_eq!(reader.names().thread_name(ThreadId::new(0)), Some("t1"));
        assert_eq!(reader.names().thread_name(ThreadId::new(1)), Some("t2"));
    }

    #[test]
    fn unknown_location_round_trips() {
        let event = Event::new(
            EventId::new(0),
            ThreadId::new(0),
            EventKind::Write(VarId::new(0)),
            Location::UNKNOWN,
        );
        let trace = Trace::from_parts(
            vec![event],
            vec!["t".to_owned()],
            Vec::new(),
            vec!["x".to_owned()],
            Vec::new(),
        );
        let mut reader = BinReader::from_bytes(to_rwf_bytes(&trace)).unwrap();
        let decoded = reader.next().unwrap().unwrap();
        assert!(decoded.location().is_unknown());
    }

    #[test]
    fn writer_writes_files() {
        let trace = parse_std(SAMPLE).unwrap();
        let path = std::env::temp_dir().join(format!("rapid-rwf-{}.rwf", std::process::id()));
        write_rwf_file(&trace, &path).unwrap();
        assert_eq!(version(&std::fs::read(&path).unwrap()), VERSION_STREAM);
        let events: Result<Vec<Event>, _> = BinReader::open(&path).unwrap().collect();
        std::fs::remove_file(&path).ok();
        assert_eq!(events.unwrap(), trace.events());
    }

    #[test]
    fn streamed_v2_decodes_to_the_batch_v1_trace() {
        let trace = parse_std(SAMPLE).unwrap();
        // Block size 2 forces multiple EVENTS blocks and NAMES deltas.
        let bytes = in_blocks(&trace, 2);
        assert!(looks_binary(&bytes));
        assert_eq!(version(&bytes), VERSION_STREAM);
        let reader = BinReader::from_bytes(bytes).unwrap();
        let roundtrip = collect_any(reader.into()).unwrap();
        assert_eq!(roundtrip.events(), trace.events(), "ids are canonical on both sides");
        assert_eq!(write_std(&roundtrip), SAMPLE);
    }

    #[test]
    fn stream_writer_producer_api_matches_the_transcode_path() {
        let mut writer = RwfStreamWriter::with_block_events(Vec::new(), 3).unwrap();
        writer.write("t1", "y", Some("A.java:1")).unwrap();
        writer.acquire("t1", "l", Some("A.java:2")).unwrap();
        writer.fork("t1", "t2", Some("A.java:3")).unwrap();
        writer.read("t2", "y", Some("B.java:1")).unwrap();
        writer.release("t1", "l", Some("A.java:4")).unwrap();
        assert_eq!(writer.events_written(), 5);
        let bytes = writer.finish().unwrap();
        let roundtrip = collect_any(BinReader::from_bytes(bytes).unwrap().into()).unwrap();
        assert_eq!(write_std(&roundtrip), SAMPLE);
    }

    #[test]
    fn stream_writer_handles_empty_traces_and_unknown_locations() {
        let empty = RwfStreamWriter::new(Vec::new()).unwrap().finish().unwrap();
        let reader = BinReader::from_bytes(empty).unwrap();
        assert!(collect_any(reader.into()).unwrap().is_empty());

        let mut writer = RwfStreamWriter::new(Vec::new()).unwrap();
        writer.write("t", "x", None).unwrap();
        let bytes = writer.finish().unwrap();
        let mut reader = BinReader::from_bytes(bytes).unwrap();
        assert!(reader.next().unwrap().unwrap().location().is_unknown());
    }

    #[test]
    fn v2_containers_reject_structural_damage_with_typed_errors() {
        let trace = parse_std(SAMPLE).unwrap();
        let good = in_blocks(&trace, 2);

        // A writer that died before `finish` left no END block: every event
        // of its complete blocks decodes, then the missing END is Truncated,
        // numbered by the frame the reader was working toward.
        let unfinished = good[..good.len() - 9].to_vec();
        let mut items: Vec<_> = BinReader::from_bytes(unfinished).unwrap().collect();
        let last = items.pop().expect("an item").expect_err("no END block");
        assert_eq!(last, ParseError { line: 6, kind: ParseErrorKind::Truncated });
        let events: Vec<Event> = items.into_iter().collect::<Result<_, _>>().unwrap();
        assert_eq!(events, trace.events());

        let truncated_bytes = good[..good.len() - 1].to_vec();
        assert_eq!(first_error(truncated_bytes).kind, ParseErrorKind::Truncated);

        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(
            first_error(trailing),
            ParseError { line: 6, kind: ParseErrorKind::TrailingBytes }
        );

        // First body byte is a block tag; 9 is not a known block.  The
        // header is sound, so the error surfaces on the way to frame 1.
        let mut bad_tag = good.clone();
        bad_tag[12] = 9;
        assert_eq!(
            first_error(bad_tag),
            ParseError { line: 1, kind: ParseErrorKind::BadBlockTag(9) }
        );

        // An END total disagreeing with the frames actually present.
        let mut mismatch = v2_header();
        wire::put_u8(&mut mismatch, BLOCK_END);
        wire::put_u64(&mut mismatch, 1);
        assert_eq!(first_error(mismatch).kind, ParseErrorKind::Truncated);
    }

    #[test]
    fn frames_after_the_first_u32_max_are_too_many_events() {
        // Like the text reader (FORMAT.md §1.5): a frame after the first
        // `u32::MAX` has no event id, and is refused at its frame number.
        let bytes = to_rwf_bytes(&parse_std(SAMPLE).unwrap());
        let mut reader = BinReader::from_bytes(bytes).unwrap();
        reader.read = u32::MAX - 1;
        let event = reader.next().unwrap().expect("the last event id is free");
        assert_eq!(event.id(), EventId::new(u32::MAX - 1));
        let error = reader.next().unwrap().expect_err("no event id is left");
        assert_eq!(
            error,
            ParseError { line: u32::MAX as usize + 1, kind: ParseErrorKind::TooManyEvents }
        );
        assert!(reader.next().is_none(), "the reader fuses after an error");
    }

    /// A source that records the largest buffer a read offers it.
    struct Recording {
        bytes: io::Cursor<Vec<u8>>,
        largest: Arc<AtomicUsize>,
    }

    impl Read for Recording {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest.fetch_max(buf.len(), Ordering::Relaxed);
            self.bytes.read(buf)
        }
    }

    impl BufRead for Recording {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            self.bytes.fill_buf()
        }

        fn consume(&mut self, amount: usize) {
            self.bytes.consume(amount);
        }
    }

    /// Decodes `bytes` through a [`Recording`]: the items, and the largest
    /// buffer the source was offered.
    fn recorded(bytes: Vec<u8>) -> (Vec<Result<Event, ParseError>>, usize) {
        let largest = Arc::<AtomicUsize>::default();
        let source = Recording { bytes: io::Cursor::new(bytes), largest: Arc::clone(&largest) };
        let items = match BinReader::new(source) {
            Ok(reader) => reader.collect(),
            Err(error) => vec![Err(error)],
        };
        (items, largest.load(Ordering::Relaxed))
    }

    #[test]
    fn hostile_name_lengths_and_counts_allocate_only_as_bytes_arrive() {
        // A NAMES delta declaring one name of `u32::MAX` bytes, and one
        // declaring `u32::MAX` names, each followed by EOF: both fail typed,
        // and no read is offered a buffer sized by the declaration.
        let run_bytes = DEFAULT_BLOCK_EVENTS * FRAME_LEN;
        for (count, len) in [(1, Some(u32::MAX)), (u32::MAX, None)] {
            let mut bytes = v2_header();
            wire::put_u8(&mut bytes, BLOCK_NAMES);
            wire::put_u8(&mut bytes, TABLE_VARIABLES as u8);
            wire::put_u32(&mut bytes, count);
            if let Some(len) = len {
                wire::put_u32(&mut bytes, len);
            }
            let (items, largest) = recorded(bytes);
            assert_eq!(items, [Err(ParseError { line: 1, kind: ParseErrorKind::Truncated })]);
            assert!(largest <= run_bytes, "offered a {largest}-byte buffer");
        }

        // A real trace of several runs still arrives whole, read at most one
        // run at a time.
        let mut writer = RwfStreamWriter::new(Vec::new()).unwrap();
        for i in 0..2 * DEFAULT_BLOCK_EVENTS + 7 {
            writer.write(&format!("t{}", i % 3), "x", Some("A.java:1")).unwrap();
        }
        let (items, largest) = recorded(writer.finish().unwrap());
        assert_eq!(items.len(), 2 * DEFAULT_BLOCK_EVENTS + 7);
        assert!(items.iter().all(Result::is_ok));
        assert_eq!(largest, run_bytes, "full runs are read whole");
    }

    #[test]
    fn v2_frames_cannot_reference_later_name_deltas() {
        // Hand-build: one thread + one variable, then a frame referencing
        // variable 1 *before* the delta that defines it.  That delta has not
        // been read when the frame is decoded, so the frame is rejected.
        let mut bytes = v2_header();
        wire::put_u8(&mut bytes, BLOCK_NAMES);
        wire::put_u8(&mut bytes, TABLE_THREADS as u8);
        wire::put_u32(&mut bytes, 1);
        wire::put_str(&mut bytes, "t");
        wire::put_u8(&mut bytes, BLOCK_NAMES);
        wire::put_u8(&mut bytes, TABLE_VARIABLES as u8);
        wire::put_u32(&mut bytes, 1);
        wire::put_str(&mut bytes, "x");
        wire::put_u8(&mut bytes, BLOCK_EVENTS);
        wire::put_u32(&mut bytes, 1);
        wire::put_u32(&mut bytes, 0);
        wire::put_u8(&mut bytes, OP_WRITE);
        wire::put_u32(&mut bytes, 1); // defined only by the *next* delta
        wire::put_u32(&mut bytes, NO_LOCATION);
        wire::put_u8(&mut bytes, BLOCK_NAMES);
        wire::put_u8(&mut bytes, TABLE_VARIABLES as u8);
        wire::put_u32(&mut bytes, 1);
        wire::put_str(&mut bytes, "late");
        wire::put_u8(&mut bytes, BLOCK_EVENTS);
        wire::put_u32(&mut bytes, 1);
        wire::put_u32(&mut bytes, 0);
        wire::put_u8(&mut bytes, OP_READ);
        wire::put_u32(&mut bytes, 1); // legal here: the delta has landed
        wire::put_u32(&mut bytes, NO_LOCATION);
        wire::put_u8(&mut bytes, BLOCK_END);
        wire::put_u64(&mut bytes, 2);

        let mut reader = BinReader::from_bytes(bytes).unwrap();
        let error = reader.next().unwrap().unwrap_err();
        assert_eq!(error.line, 1);
        assert!(matches!(
            error.kind,
            ParseErrorKind::BadNameId { table: "variables", id: 1, len: 1 }
        ));
        assert!(reader.next().is_none(), "the reader fuses after an error");
        assert_eq!(reader.names().num_variables(), 1, "the later delta is never read");

        // An out-of-range table index in a NAMES delta is a typed error too.
        let mut bad_table = v2_header();
        wire::put_u8(&mut bad_table, BLOCK_NAMES);
        wire::put_u8(&mut bad_table, 4);
        assert_eq!(first_error(bad_table).kind, ParseErrorKind::BadBlockTag(4));
    }
}
