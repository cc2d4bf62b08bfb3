//! The coordinator/worker message protocol (`RWP` v4): length-prefixed,
//! checksummed frames over a byte stream.
//!
//! Every message is one frame — `tag u8 | length u32 LE | crc u32 LE |
//! payload` — whose payload is encoded with the same shared primitives as
//! the `.rwf` and `RWO` codecs ([`rapid_trace::format::wire`]).  The CRC-32
//! covers the tag, the length and the payload, so a frame corrupted in
//! transit (a flipped bit anywhere, including inside a numeric field that
//! would otherwise still decode) is a typed [`ProtoError::Corrupt`] — never
//! a silently wrong verdict.  Version 2 made the coordinator a resident,
//! multi-tenant service: work is grouped into *named jobs* (each carrying
//! its own [`DetectorSpec`]), shard bytes move as `SHARD_CHUNK` streams in
//! both directions (lifting v1's one-frame shard cap), and reports are
//! answered per job without shutting the service down.  Version 3 is v2
//! plus the per-frame checksum.  Version 4 makes shard transfer
//! content-addressed: every `GRANT` carries the shard's [`ContentId`]
//! (length + CRC-32 over the bytes), the worker answers `HAVE` (the bytes
//! are already in its cache — skip the chunk stream) or `PULL` (stream
//! them), and `STALE` is the coordinator's non-fatal ack for a result that
//! arrived after its shard had already folded (a lost speculation race or
//! an expired lease).  The flow:
//!
//! ```text
//! worker  → HELLO(worker)          coordinator → WELCOME(jobs hint)
//! worker  → LEASE                  coordinator → GRANT(job, shard, spec, content) | DONE
//! worker  → HAVE | PULL            coordinator → chunks (after PULL only)
//! worker  → OUTCOME(job, shard, runs) | FAILED(job, shard, message)   (repeat LEASE…)
//!                                  coordinator → STALE(job, shard) if the shard already folded
//!
//! client  → HELLO(client)          coordinator → WELCOME(jobs hint)
//! client  → JOB_OPEN(name, spec)   coordinator → JOB_ACCEPT(job) | ERROR
//! client  → SHARD_OPEN(job, shard) + chunks                    (per shard)
//! client  → JOB_CLOSE(job)         coordinator → (blocks) REPORT | ERROR
//! client  → FETCH(name)            coordinator → (blocks) REPORT | ERROR
//! client  → SHUTDOWN               coordinator → DONE (graceful drain begins)
//! ```
//!
//! `OUTCOME` and `REPORT` embed [`Outcome`] blobs in the `RWO` codec
//! ([`crate::outcome::wire`]); everything else is scalars and strings.  The
//! normative layout, the job lifecycle and the lease/requeue semantics live
//! in `docs/PROTOCOL.md`; the scheduling model the v4 additions serve is
//! described in `docs/PLACEMENT.md`.

use std::io::{self, Read, Write};
use std::time::Duration;

use rapid_trace::format::{wire, TextFormat};

use crate::detector::DetectorSpec;
use crate::outcome::wire as outcome_wire;
use crate::outcome::{Aggregation, Metric, Metrics, Outcome};

/// The four magic bytes opening every `HELLO` payload: `"RWP"` plus a NUL.
pub const MAGIC: [u8; 4] = *b"RWP\0";

/// The protocol version this build speaks.
pub const VERSION: u16 = 4;

/// Upper bound on one frame's payload (guards hostile length prefixes; a
/// shard bigger than this is split into `SHARD_CHUNK` frames, never shipped
/// as one message).
pub const MAX_FRAME_LEN: u32 = 1 << 30;

/// Default payload size of one `SHARD_CHUNK` frame.  Shards of any size
/// stream through chunks — there is no per-shard cap in v2, only the
/// per-frame [`MAX_FRAME_LEN`] bound every chunk trivially satisfies.
pub const CHUNK_LEN: usize = 4 << 20;

/// Consecutive mid-frame read or write timeouts tolerated before the peer
/// counts as dead.  A peer may legitimately trickle a large chunk stream,
/// but a receiver that stops draining forever must not pin a connection
/// thread (and the shard bytes it holds) indefinitely — this bound is what
/// turns a stalled peer into a typed error on both directions.
const MAX_STALLS: u32 = 240;

/// Payload bytes [`read_message`] reads per step.  The buffer grows only as
/// a frame's bytes arrive, so a 9-byte header declaring [`MAX_FRAME_LEN`]
/// costs one step's allocation, not a gigabyte.
const READ_STEP: usize = 64 << 10;

const TAG_HELLO: u8 = 0;
const TAG_WELCOME: u8 = 1;
const TAG_LEASE: u8 = 2;
const TAG_GRANT: u8 = 3;
const TAG_SHARD_OPEN: u8 = 4;
const TAG_SHARD_CHUNK: u8 = 5;
const TAG_OUTCOME: u8 = 6;
const TAG_FAILED: u8 = 7;
const TAG_DONE: u8 = 8;
const TAG_JOB_OPEN: u8 = 9;
const TAG_JOB_ACCEPT: u8 = 10;
const TAG_JOB_CLOSE: u8 = 11;
const TAG_REPORT: u8 = 12;
const TAG_ERROR: u8 = 13;
const TAG_FETCH: u8 = 14;
const TAG_SHUTDOWN: u8 = 15;
const TAG_HAVE: u8 = 16;
const TAG_PULL: u8 = 17;
const TAG_STALE: u8 = 18;

/// A shard's stable content identity: its byte length plus the CRC-32
/// (IEEE) of its bytes — the key the v4 scheduling layer addresses shard
/// *contents* by, independent of job names and shard indices.
///
/// The coordinator computes it once per shard, when the shard is
/// registered, and ships it with every `GRANT`; the worker keys its byte
/// cache by it (so a re-opened job whose bytes changed can never hit a
/// stale entry) and the coordinator's rendezvous-hash placement scores it
/// against connected workers.  Not a cryptographic identity — it guards
/// against confusion and transport damage, not adversaries, exactly like
/// the per-frame CRC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentId {
    /// The shard's byte length.
    pub len: u64,
    /// CRC-32 (IEEE) over the shard's bytes.
    pub crc: u32,
}

impl ContentId {
    /// The identity of an in-memory byte slice.
    pub fn of(bytes: &[u8]) -> Self {
        let mut crc = Crc32::new();
        crc.update(bytes);
        ContentId { len: bytes.len() as u64, crc: crc.finish() }
    }

    /// The identity of a file's contents, via a streaming read (64 KiB
    /// buffer) — the whole file is never resident.
    ///
    /// # Errors
    ///
    /// The underlying I/O error.
    pub fn of_file(path: &std::path::Path) -> io::Result<Self> {
        let mut file = std::fs::File::open(path)?;
        let mut crc = Crc32::new();
        let mut len = 0u64;
        let mut buf = [0u8; 64 << 10];
        loop {
            match file.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    crc.update(&buf[..n]);
                    len += n as u64;
                }
                Err(error) if error.kind() == io::ErrorKind::Interrupted => {}
                Err(error) => return Err(error),
            }
        }
        Ok(ContentId { len, crc: crc.finish() })
    }

    /// A 64-bit mixing key for hash-based placement (rendezvous scoring).
    pub fn mix_key(&self) -> u64 {
        self.len.rotate_left(32) ^ self.crc as u64
    }
}

impl std::fmt::Display for ContentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}b/{:08x}", self.len, self.crc)
    }
}

/// What a connecting client wants from the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Lease shards, return outcomes.
    Worker,
    /// Open jobs, stream shards, fetch reports.
    Submit,
}

/// One detector's result as shipped over the wire: its outcome plus the
/// wall-clock its detector slice consumed, in nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRun {
    /// Detector time in nanoseconds ([`DetectorRun::time`](crate::DetectorRun)).
    pub time_nanos: u64,
    /// The detector's mergeable outcome.
    pub outcome: Outcome,
}

/// A protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → coordinator: open a session.
    Hello {
        /// What the client wants.
        role: Role,
    },
    /// Coordinator → client: session accepted; here is a parallelism hint
    /// (0 = none) a worker may use when `--jobs` was not given.  Detector
    /// configuration is per job (`GRANT` carries it), not per session.
    Welcome {
        /// Suggested worker thread count; 0 means "decide yourself".
        jobs_hint: u32,
    },
    /// Worker → coordinator: give me a shard from any open job.
    Lease,
    /// Coordinator → worker: one shard to analyze, from the named job.
    /// The worker answers `HAVE` (its content-addressed cache already
    /// holds the bytes) or `PULL`; only after `PULL` do the `chunks`
    /// `SHARD_CHUNK` frames stream.
    Grant {
        /// The granting job's id (scopes `shard`).
        job: u32,
        /// The shard's index in the job's input order.
        shard: u32,
        /// Display name (the submitting side's path).
        name: String,
        /// Text flavour for non-binary content (binary is sniffed by magic).
        text: TextFormat,
        /// The detector set to build for this shard (the job's spec).
        spec: DetectorSpec,
        /// How many `SHARD_CHUNK` frames a `PULL` streams (≥ 1; an empty
        /// shard is one empty last chunk).
        chunks: u32,
        /// The shard's content identity — the worker's cache key and the
        /// integrity check over the reassembled chunk stream.
        content: ContentId,
    },
    /// Worker → coordinator: the granted shard's bytes are already in this
    /// worker's cache (matched by [`ContentId`]) — skip the chunk stream.
    Have {
        /// The job id from the `GRANT` message.
        job: u32,
        /// The shard id from the `GRANT` message.
        shard: u32,
    },
    /// Worker → coordinator: stream the granted shard's chunks.
    Pull {
        /// The job id from the `GRANT` message.
        job: u32,
        /// The shard id from the `GRANT` message.
        shard: u32,
    },
    /// Coordinator → worker: non-fatal ack for an `OUTCOME`/`FAILED` whose
    /// shard had already folded (the other side of a speculation race, or
    /// a lease that expired and was re-run elsewhere).  The worker drops
    /// the loss and keeps leasing; nothing about the job changed.
    Stale {
        /// The job the late result addressed.
        job: u32,
        /// The shard the late result addressed.
        shard: u32,
    },
    /// Client → coordinator: a shard's bytes follow as `chunks` chunk
    /// frames.  Only the connection that opened `job` may stream into it.
    ShardOpen {
        /// The target job's id (from `JOB_ACCEPT`).
        job: u32,
        /// The shard's index in the job's input order.
        shard: u32,
        /// Display name carried through to reports and errors.
        name: String,
        /// Text flavour for non-binary content.
        text: TextFormat,
        /// How many `SHARD_CHUNK` frames follow (≥ 1).
        chunks: u32,
    },
    /// One slice of a shard's bytes; flows coordinator → worker after
    /// `GRANT` and client → coordinator after `SHARD_OPEN`.  Sequence
    /// numbers start at 0 and the receiver reassembles with
    /// [`ChunkAssembler`] — out-of-order or duplicated chunks are typed
    /// errors, and `last` marks the final chunk.
    ShardChunk {
        /// The job the shard belongs to.
        job: u32,
        /// The shard the chunk belongs to.
        shard: u32,
        /// 0-based position of this chunk in the shard's byte stream.
        seq: u32,
        /// True on the shard's final chunk.
        last: bool,
        /// The chunk's bytes (empty only for an empty shard's single chunk).
        bytes: Vec<u8>,
    },
    /// Worker → coordinator: a shard's finished analysis.
    Outcome {
        /// The job id from the `GRANT` message.
        job: u32,
        /// The shard id from the `GRANT` message.
        shard: u32,
        /// Events the engine processed.
        events: u64,
        /// End-to-end shard wall-clock in nanoseconds.
        wall_nanos: u64,
        /// Per-detector results, in registration order.
        runs: Vec<WireRun>,
    },
    /// Worker → coordinator: a shard could not be analyzed (parse error).
    Failed {
        /// The job id from the `GRANT` message.
        job: u32,
        /// The shard id from the `GRANT` message.
        shard: u32,
        /// The rendered error.
        message: String,
    },
    /// Coordinator → worker: the service is draining and all work is done;
    /// disconnect.  Also the coordinator's ack to `SHUTDOWN`.
    Done,
    /// Client → coordinator: open a named job with its own detector spec.
    JobOpen {
        /// The job's unique name.
        name: String,
        /// The detector set every shard of this job runs.
        spec: DetectorSpec,
        /// How many shards the client will stream (`SHARD_OPEN`s expected).
        shards: u32,
    },
    /// Coordinator → client: the job is open; stream shards under this id.
    JobAccept {
        /// The id assigned to the job just opened.
        job: u32,
    },
    /// Client → coordinator: all shards are streamed; block until the job
    /// completes and answer `REPORT` or `ERROR`.
    JobClose {
        /// The job to close (must be this connection's).
        job: u32,
    },
    /// Coordinator → client: a job's merged report.
    Report {
        /// Distinct workers that contributed at least one shard result.
        workers: u32,
        /// Shards folded into the report.
        shards: u64,
        /// Total events across all shards.
        events: u64,
        /// Job wall-clock from open to completion, in nanoseconds.
        wall_nanos: u64,
        /// Merged per-detector results, in registration order.
        runs: Vec<WireRun>,
        /// Job-level scheduling telemetry (`bytes_transferred`,
        /// `cache_hits`, `leases_stolen`) — kept *outside* the per-detector
        /// outcomes so distributed and local merged outcomes stay
        /// `PartialEq`-identical.
        scheduling: Metrics,
    },
    /// Coordinator → client: the request failed (for a closed job: the
    /// earliest failing shard in input order, exactly like the local
    /// driver).
    Error {
        /// The rendered error.
        message: String,
    },
    /// Client → coordinator: block until the named job completes, then
    /// answer its `REPORT` or `ERROR` (report-only submit; `engine serve`
    /// registers its shard files as job `"default"`).
    Fetch {
        /// The job name to report on.
        name: String,
    },
    /// Client → coordinator: begin a graceful drain — finish closed jobs,
    /// reject new ones, then exit.  Acked with `DONE`.
    Shutdown,
}

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying stream failed.
    Io(io::Error),
    /// The peer's `HELLO` does not open with the protocol magic.
    BadMagic,
    /// The peer speaks a protocol version this build cannot.
    BadVersion(u16),
    /// A frame carries an unknown message tag.
    BadTag(u8),
    /// A frame's declared length exceeds [`MAX_FRAME_LEN`].
    Oversized(u32),
    /// A frame's CRC-32 does not match its bytes: corruption in transit.
    Corrupt {
        /// The checksum the frame header declared.
        declared: u32,
        /// The checksum of the bytes that actually arrived.
        actual: u32,
    },
    /// A payload ended before the structure its tag requires.
    Truncated,
    /// A payload field carries an invalid value.
    Malformed(&'static str),
    /// An embedded outcome blob failed to decode.
    Outcome(outcome_wire::WireError),
    /// A chunk stream arrived out of order or duplicated.
    Chunk(ChunkError),
}

/// Why a `SHARD_CHUNK` could not be appended to its shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkError {
    /// The chunk's sequence number was already consumed.
    Duplicate {
        /// The repeated sequence number.
        seq: u32,
    },
    /// The chunk skipped ahead of the next expected sequence number.
    Gap {
        /// The sequence number the assembler expected.
        expected: u32,
        /// The sequence number that arrived.
        got: u32,
    },
    /// A chunk arrived after the shard's `last` chunk completed it.
    AfterLast {
        /// The sequence number that arrived late.
        seq: u32,
    },
}

impl std::fmt::Display for ChunkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChunkError::Duplicate { seq } => write!(f, "duplicate chunk {seq}"),
            ChunkError::Gap { expected, got } => {
                write!(f, "chunk {got} arrived out of order (expected {expected})")
            }
            ChunkError::AfterLast { seq } => {
                write!(f, "chunk {seq} arrived after the shard's last chunk")
            }
        }
    }
}

impl std::error::Error for ChunkError {}

/// Reassembles one shard's byte stream from its `SHARD_CHUNK` frames.
///
/// Chunks must arrive in sequence (0, 1, 2, …); anything else is a typed
/// [`ChunkError`].  [`push`](Self::push) returns the complete bytes once
/// the `last` chunk lands.
#[derive(Debug, Default)]
pub struct ChunkAssembler {
    bytes: Vec<u8>,
    next_seq: u32,
    done: bool,
}

impl ChunkAssembler {
    /// Starts an empty assembly.
    pub fn new() -> Self {
        ChunkAssembler::default()
    }

    /// Appends one chunk; returns the shard's complete bytes when `last`.
    ///
    /// # Errors
    ///
    /// [`ChunkError::Duplicate`] for an already-consumed sequence number,
    /// [`ChunkError::Gap`] for a skipped one, [`ChunkError::AfterLast`] for
    /// any chunk after completion.
    pub fn push(
        &mut self,
        seq: u32,
        last: bool,
        chunk: &[u8],
    ) -> Result<Option<Vec<u8>>, ChunkError> {
        if self.done {
            return Err(ChunkError::AfterLast { seq });
        }
        match seq.cmp(&self.next_seq) {
            std::cmp::Ordering::Less => Err(ChunkError::Duplicate { seq }),
            std::cmp::Ordering::Greater => {
                Err(ChunkError::Gap { expected: self.next_seq, got: seq })
            }
            std::cmp::Ordering::Equal => {
                self.bytes.extend_from_slice(chunk);
                self.next_seq += 1;
                if last {
                    self.done = true;
                    Ok(Some(std::mem::take(&mut self.bytes)))
                } else {
                    Ok(None)
                }
            }
        }
    }
}

/// Number of `SHARD_CHUNK` frames a shard of `len` bytes occupies at the
/// given chunk payload size — at least 1 (an empty shard is one empty last
/// chunk).
pub fn chunk_count(len: u64, chunk_len: usize) -> u32 {
    let per = chunk_len.max(1) as u64;
    len.div_ceil(per).max(1) as u32
}

/// Streams `bytes` as the (job, shard) chunk sequence — exactly
/// [`chunk_count`]`(bytes.len(), chunk_len)` frames, the count the preceding
/// `GRANT`/`SHARD_OPEN` must declare.
///
/// # Errors
///
/// The stream's I/O error.
pub fn write_chunks(
    stream: &mut impl Write,
    job: u32,
    shard: u32,
    bytes: &[u8],
    chunk_len: usize,
) -> Result<(), ProtoError> {
    let chunk_len = chunk_len.max(1);
    let mut seq = 0u32;
    let mut offset = 0usize;
    loop {
        let end = (offset + chunk_len).min(bytes.len());
        let last = end == bytes.len();
        let chunk =
            Message::ShardChunk { job, shard, seq, last, bytes: bytes[offset..end].to_vec() };
        write_message(stream, &chunk)?;
        if last {
            return Ok(());
        }
        seq += 1;
        offset = end;
    }
}

/// Reads exactly `chunks` chunk frames for (job, shard) and reassembles the
/// shard's bytes.
///
/// # Errors
///
/// As [`expect_message`], plus [`ProtoError::Chunk`] for a broken sequence
/// and [`ProtoError::Malformed`] for a chunk addressed to a different
/// shard, a non-chunk message, or a count/`last` disagreement.
pub fn read_chunks(
    stream: &mut impl Read,
    job: u32,
    shard: u32,
    chunks: u32,
    patience: Duration,
) -> Result<Vec<u8>, ProtoError> {
    let mut assembler = ChunkAssembler::new();
    for index in 0..chunks {
        match expect_message(stream, patience)? {
            Message::ShardChunk { job: chunk_job, shard: chunk_shard, seq, last, bytes } => {
                if chunk_job != job || chunk_shard != shard {
                    return Err(ProtoError::Malformed("chunk addressed to a different shard"));
                }
                if last != (index + 1 == chunks) {
                    return Err(ProtoError::Malformed("chunk count disagrees with last flag"));
                }
                if let Some(complete) =
                    assembler.push(seq, last, &bytes).map_err(ProtoError::Chunk)?
                {
                    return Ok(complete);
                }
            }
            _ => return Err(ProtoError::Malformed("expected a shard chunk")),
        }
    }
    Err(ProtoError::Malformed("chunk stream ended without a last chunk"))
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(error) => write!(f, "connection error: {error}"),
            ProtoError::BadMagic => write!(f, "peer did not speak the RWP protocol (bad magic)"),
            ProtoError::BadVersion(version) => {
                write!(f, "unsupported protocol version {version} (this build speaks {VERSION})")
            }
            ProtoError::BadTag(tag) => write!(f, "unknown message tag {tag}"),
            ProtoError::Oversized(len) => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte limit")
            }
            ProtoError::Corrupt { declared, actual } => {
                write!(
                    f,
                    "corrupt frame: declared checksum {declared:#010x}, bytes hash to {actual:#010x}"
                )
            }
            ProtoError::Truncated => write!(f, "truncated message payload"),
            ProtoError::Malformed(what) => write!(f, "malformed message: {what}"),
            ProtoError::Outcome(error) => write!(f, "embedded outcome: {error}"),
            ProtoError::Chunk(error) => write!(f, "shard chunk stream: {error}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(error: io::Error) -> Self {
        ProtoError::Io(error)
    }
}

impl From<wire::Truncated> for ProtoError {
    fn from(_: wire::Truncated) -> Self {
        ProtoError::Truncated
    }
}

impl From<outcome_wire::WireError> for ProtoError {
    fn from(error: outcome_wire::WireError) -> Self {
        ProtoError::Outcome(error)
    }
}

fn put_runs(out: &mut Vec<u8>, runs: &[WireRun]) {
    wire::put_u32(out, runs.len() as u32);
    for run in runs {
        wire::put_u64(out, run.time_nanos);
        let blob = outcome_wire::to_bytes(&run.outcome);
        wire::put_u32(out, blob.len() as u32);
        out.extend_from_slice(&blob);
    }
}

fn get_runs(cursor: &mut wire::Cursor<'_>) -> Result<Vec<WireRun>, ProtoError> {
    let count = cursor.u32()?;
    // Each run needs at least its time and blob-length prefix.
    cursor.check_count(count, 12)?;
    let mut runs = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let time_nanos = cursor.u64()?;
        let len = cursor.u32()? as usize;
        let blob = cursor.take(len)?;
        runs.push(WireRun { time_nanos, outcome: outcome_wire::from_bytes(blob)? });
    }
    Ok(runs)
}

fn put_metrics(out: &mut Vec<u8>, metrics: &Metrics) {
    wire::put_u32(out, metrics.len() as u32);
    for (name, metric) in metrics.iter() {
        wire::put_str(out, name);
        wire::put_u8(
            out,
            match metric.aggregation {
                Aggregation::Sum => 0,
                Aggregation::Max => 1,
            },
        );
        wire::put_u64(out, metric.value.to_bits());
    }
}

fn get_metrics(cursor: &mut wire::Cursor<'_>) -> Result<Metrics, ProtoError> {
    let count = cursor.u32()?;
    // Each entry needs at least its name-length prefix, rule and value.
    cursor.check_count(count, 11)?;
    let mut metrics = Metrics::new();
    for _ in 0..count {
        let name = cursor.str()?;
        let aggregation = match cursor.u8()? {
            0 => Aggregation::Sum,
            1 => Aggregation::Max,
            _ => return Err(ProtoError::Malformed("unknown metric aggregation")),
        };
        let value = f64::from_bits(cursor.u64()?);
        metrics.record(name, Metric { aggregation, value });
    }
    Ok(metrics)
}

fn put_content(out: &mut Vec<u8>, content: ContentId) {
    wire::put_u64(out, content.len);
    wire::put_u32(out, content.crc);
}

fn get_content(cursor: &mut wire::Cursor<'_>) -> Result<ContentId, ProtoError> {
    let len = cursor.u64()?;
    let crc = cursor.u32()?;
    Ok(ContentId { len, crc })
}

fn put_spec(out: &mut Vec<u8>, spec: &DetectorSpec) {
    wire::put_str(out, &spec.detectors.join(","));
    wire::put_u64(out, spec.window as u64);
    wire::put_u64(out, spec.timeout_secs);
}

fn get_spec(cursor: &mut wire::Cursor<'_>) -> Result<DetectorSpec, ProtoError> {
    let list = cursor.str()?;
    let detectors =
        if list.is_empty() { Vec::new() } else { list.split(',').map(str::to_owned).collect() };
    let window = cursor.u64()? as usize;
    let timeout_secs = cursor.u64()?;
    Ok(DetectorSpec { detectors, window, timeout_secs })
}

fn text_tag(text: TextFormat) -> u8 {
    match text {
        TextFormat::Std => 0,
        TextFormat::Csv => 1,
    }
}

fn text_from_tag(tag: u8) -> Result<TextFormat, ProtoError> {
    match tag {
        0 => Ok(TextFormat::Std),
        1 => Ok(TextFormat::Csv),
        _ => Err(ProtoError::Malformed("unknown text-format tag")),
    }
}

fn encode(message: &Message) -> (u8, Vec<u8>) {
    let mut payload = Vec::new();
    let tag = match message {
        Message::Hello { role } => {
            payload.extend_from_slice(&MAGIC);
            wire::put_u16(&mut payload, VERSION);
            wire::put_u8(
                &mut payload,
                match role {
                    Role::Worker => 0,
                    Role::Submit => 1,
                },
            );
            TAG_HELLO
        }
        Message::Welcome { jobs_hint } => {
            wire::put_u16(&mut payload, VERSION);
            wire::put_u32(&mut payload, *jobs_hint);
            TAG_WELCOME
        }
        Message::Lease => TAG_LEASE,
        Message::Grant { job, shard, name, text, spec, chunks, content } => {
            wire::put_u32(&mut payload, *job);
            wire::put_u32(&mut payload, *shard);
            wire::put_str(&mut payload, name);
            wire::put_u8(&mut payload, text_tag(*text));
            put_spec(&mut payload, spec);
            wire::put_u32(&mut payload, *chunks);
            put_content(&mut payload, *content);
            TAG_GRANT
        }
        Message::Have { job, shard } => {
            wire::put_u32(&mut payload, *job);
            wire::put_u32(&mut payload, *shard);
            TAG_HAVE
        }
        Message::Pull { job, shard } => {
            wire::put_u32(&mut payload, *job);
            wire::put_u32(&mut payload, *shard);
            TAG_PULL
        }
        Message::Stale { job, shard } => {
            wire::put_u32(&mut payload, *job);
            wire::put_u32(&mut payload, *shard);
            TAG_STALE
        }
        Message::ShardOpen { job, shard, name, text, chunks } => {
            wire::put_u32(&mut payload, *job);
            wire::put_u32(&mut payload, *shard);
            wire::put_str(&mut payload, name);
            wire::put_u8(&mut payload, text_tag(*text));
            wire::put_u32(&mut payload, *chunks);
            TAG_SHARD_OPEN
        }
        Message::ShardChunk { job, shard, seq, last, bytes } => {
            wire::put_u32(&mut payload, *job);
            wire::put_u32(&mut payload, *shard);
            wire::put_u32(&mut payload, *seq);
            wire::put_u8(&mut payload, u8::from(*last));
            wire::put_u32(&mut payload, bytes.len() as u32);
            payload.extend_from_slice(bytes);
            TAG_SHARD_CHUNK
        }
        Message::Outcome { job, shard, events, wall_nanos, runs } => {
            wire::put_u32(&mut payload, *job);
            wire::put_u32(&mut payload, *shard);
            wire::put_u64(&mut payload, *events);
            wire::put_u64(&mut payload, *wall_nanos);
            put_runs(&mut payload, runs);
            TAG_OUTCOME
        }
        Message::Failed { job, shard, message } => {
            wire::put_u32(&mut payload, *job);
            wire::put_u32(&mut payload, *shard);
            wire::put_str(&mut payload, message);
            TAG_FAILED
        }
        Message::Done => TAG_DONE,
        Message::JobOpen { name, spec, shards } => {
            wire::put_str(&mut payload, name);
            put_spec(&mut payload, spec);
            wire::put_u32(&mut payload, *shards);
            TAG_JOB_OPEN
        }
        Message::JobAccept { job } => {
            wire::put_u32(&mut payload, *job);
            TAG_JOB_ACCEPT
        }
        Message::JobClose { job } => {
            wire::put_u32(&mut payload, *job);
            TAG_JOB_CLOSE
        }
        Message::Fetch { name } => {
            wire::put_str(&mut payload, name);
            TAG_FETCH
        }
        Message::Shutdown => TAG_SHUTDOWN,
        Message::Report { workers, shards, events, wall_nanos, runs, scheduling } => {
            wire::put_u32(&mut payload, *workers);
            wire::put_u64(&mut payload, *shards);
            wire::put_u64(&mut payload, *events);
            wire::put_u64(&mut payload, *wall_nanos);
            put_runs(&mut payload, runs);
            put_metrics(&mut payload, scheduling);
            TAG_REPORT
        }
        Message::Error { message } => {
            wire::put_str(&mut payload, message);
            TAG_ERROR
        }
    };
    (tag, payload)
}

fn decode(tag: u8, payload: &[u8]) -> Result<Message, ProtoError> {
    let mut cursor = wire::Cursor::new(payload);
    let message = match tag {
        TAG_HELLO => {
            if cursor.take(MAGIC.len())? != MAGIC {
                return Err(ProtoError::BadMagic);
            }
            let version = cursor.u16()?;
            if version != VERSION {
                return Err(ProtoError::BadVersion(version));
            }
            let role = match cursor.u8()? {
                0 => Role::Worker,
                1 => Role::Submit,
                _ => return Err(ProtoError::Malformed("unknown role")),
            };
            Message::Hello { role }
        }
        TAG_WELCOME => {
            let version = cursor.u16()?;
            if version != VERSION {
                return Err(ProtoError::BadVersion(version));
            }
            let jobs_hint = cursor.u32()?;
            Message::Welcome { jobs_hint }
        }
        TAG_LEASE => Message::Lease,
        TAG_GRANT => {
            let job = cursor.u32()?;
            let shard = cursor.u32()?;
            let name = cursor.str()?;
            let text = text_from_tag(cursor.u8()?)?;
            let spec = get_spec(&mut cursor)?;
            let chunks = cursor.u32()?;
            let content = get_content(&mut cursor)?;
            Message::Grant { job, shard, name, text, spec, chunks, content }
        }
        TAG_HAVE => {
            let job = cursor.u32()?;
            let shard = cursor.u32()?;
            Message::Have { job, shard }
        }
        TAG_PULL => {
            let job = cursor.u32()?;
            let shard = cursor.u32()?;
            Message::Pull { job, shard }
        }
        TAG_STALE => {
            let job = cursor.u32()?;
            let shard = cursor.u32()?;
            Message::Stale { job, shard }
        }
        TAG_SHARD_OPEN => {
            let job = cursor.u32()?;
            let shard = cursor.u32()?;
            let name = cursor.str()?;
            let text = text_from_tag(cursor.u8()?)?;
            let chunks = cursor.u32()?;
            Message::ShardOpen { job, shard, name, text, chunks }
        }
        TAG_SHARD_CHUNK => {
            let job = cursor.u32()?;
            let shard = cursor.u32()?;
            let seq = cursor.u32()?;
            let last = match cursor.u8()? {
                0 => false,
                1 => true,
                _ => return Err(ProtoError::Malformed("unknown last-chunk flag")),
            };
            let len = cursor.u32()? as usize;
            let bytes = cursor.take(len)?.to_vec();
            Message::ShardChunk { job, shard, seq, last, bytes }
        }
        TAG_OUTCOME => {
            let job = cursor.u32()?;
            let shard = cursor.u32()?;
            let events = cursor.u64()?;
            let wall_nanos = cursor.u64()?;
            let runs = get_runs(&mut cursor)?;
            Message::Outcome { job, shard, events, wall_nanos, runs }
        }
        TAG_FAILED => {
            let job = cursor.u32()?;
            let shard = cursor.u32()?;
            let message = cursor.str()?;
            Message::Failed { job, shard, message }
        }
        TAG_DONE => Message::Done,
        TAG_JOB_OPEN => {
            let name = cursor.str()?;
            let spec = get_spec(&mut cursor)?;
            let shards = cursor.u32()?;
            Message::JobOpen { name, spec, shards }
        }
        TAG_JOB_ACCEPT => Message::JobAccept { job: cursor.u32()? },
        TAG_JOB_CLOSE => Message::JobClose { job: cursor.u32()? },
        TAG_FETCH => Message::Fetch { name: cursor.str()? },
        TAG_SHUTDOWN => Message::Shutdown,
        TAG_REPORT => {
            let workers = cursor.u32()?;
            let shards = cursor.u64()?;
            let events = cursor.u64()?;
            let wall_nanos = cursor.u64()?;
            let runs = get_runs(&mut cursor)?;
            let scheduling = get_metrics(&mut cursor)?;
            Message::Report { workers, shards, events, wall_nanos, runs, scheduling }
        }
        TAG_ERROR => Message::Error { message: cursor.str()? },
        other => return Err(ProtoError::BadTag(other)),
    };
    if !cursor.at_end() {
        return Err(ProtoError::Malformed("trailing bytes in payload"));
    }
    Ok(message)
}

const CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut index = 0;
    while index < 256 {
        let mut crc = index as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { 0xEDB8_8320 ^ (crc >> 1) } else { crc >> 1 };
            bit += 1;
        }
        table[index] = crc;
        index += 1;
    }
    table
}

struct Crc32(u32);

impl Crc32 {
    fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = CRC_TABLE[((self.0 ^ byte as u32) & 0xFF) as usize] ^ (self.0 >> 8);
        }
    }

    fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

/// The CRC-32 (IEEE) a frame's header must declare: over the tag byte, the
/// little-endian length and the payload bytes.
fn frame_crc(tag: u8, len: u32, payload: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(&[tag]);
    crc.update(&len.to_le_bytes());
    crc.update(payload);
    crc.finish()
}

/// Retries a write across `WouldBlock`/`TimedOut`/`Interrupted`, with the
/// same bounded-stall policy as [`read_full`].  `std`'s `write_all` errors
/// out on the *first* timeout, so a connection with a write timeout
/// configured needs this loop — and the [`MAX_STALLS`] bound is the
/// `SHARD_CHUNK` backpressure valve: a receiver that stops draining kills
/// the connection with a typed timeout instead of pinning the sender (and
/// the shard bytes it holds) forever.
fn write_full(stream: &mut impl Write, buf: &[u8]) -> io::Result<()> {
    let mut written = 0;
    let mut stalls = 0u32;
    while written < buf.len() {
        match stream.write(&buf[written..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "peer stopped accepting bytes mid-message",
                ))
            }
            Ok(n) => {
                written += n;
                stalls = 0;
            }
            Err(error) if error.kind() == io::ErrorKind::Interrupted => {}
            Err(error)
                if matches!(error.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
            {
                stalls += 1;
                if stalls >= MAX_STALLS {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "peer stalled mid-message (stopped draining)",
                    ));
                }
            }
            Err(error) => return Err(error),
        }
    }
    Ok(())
}

/// Writes one message as a single checksummed frame.
///
/// # Errors
///
/// The stream's I/O error, including a typed timeout when the peer stops
/// draining for `MAX_STALLS` consecutive write timeouts (backpressure).
pub fn write_message(stream: &mut impl Write, message: &Message) -> Result<(), ProtoError> {
    let (tag, payload) = encode(message);
    let mut frame = Vec::with_capacity(9 + payload.len());
    wire::put_u8(&mut frame, tag);
    wire::put_u32(&mut frame, payload.len() as u32);
    wire::put_u32(&mut frame, frame_crc(tag, payload.len() as u32, &payload));
    frame.extend_from_slice(&payload);
    write_full(stream, &frame)?;
    stream.flush()?;
    Ok(())
}

/// Outcome of one read attempt.
#[derive(Debug)]
pub enum Incoming {
    /// A complete message arrived.
    Message(Message),
    /// The peer closed the connection cleanly (EOF before a tag byte).
    Eof,
    /// The socket's read timeout expired while *waiting* for the next tag
    /// byte — no message is in flight; the caller may check its shutdown
    /// flag and try again.
    Idle,
}

/// Retries a full-buffer read across `WouldBlock`/`TimedOut`/`Interrupted`.
/// A bounded number of consecutive timeouts is tolerated (a peer may
/// legitimately trickle a large `SHARD` frame), after which the connection
/// counts as dead.
fn read_full(stream: &mut impl Read, buf: &mut [u8]) -> io::Result<()> {
    let mut filled = 0;
    let mut stalls = 0u32;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed the connection mid-message",
                ))
            }
            Ok(n) => {
                filled += n;
                stalls = 0;
            }
            Err(error) if error.kind() == io::ErrorKind::Interrupted => {}
            Err(error)
                if matches!(error.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
            {
                stalls += 1;
                if stalls >= MAX_STALLS {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "peer stalled mid-message",
                    ));
                }
            }
            Err(error) => return Err(error),
        }
    }
    Ok(())
}

/// Reads one message frame.
///
/// With a read timeout configured on `stream`, a timeout while waiting for
/// the *first* byte of a frame returns [`Incoming::Idle`] (nothing was
/// consumed) — the coordinator uses this to poll its shutdown flag without
/// risking a desynchronized stream.  Timeouts *inside* a frame are retried
/// (bounded), since the rest of the frame is already in flight.
///
/// # Errors
///
/// I/O failures, oversized frames, corrupt checksums, and payload decode
/// errors.
pub fn read_message(stream: &mut impl Read) -> Result<Incoming, ProtoError> {
    let mut tag = [0u8; 1];
    loop {
        match stream.read(&mut tag) {
            Ok(0) => return Ok(Incoming::Eof),
            Ok(_) => break,
            Err(error) if error.kind() == io::ErrorKind::Interrupted => {}
            Err(error)
                if matches!(error.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
            {
                return Ok(Incoming::Idle)
            }
            Err(error) => return Err(error.into()),
        }
    }
    let mut header = [0u8; 8];
    read_full(stream, &mut header)?;
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4-byte slice"));
    let declared = u32::from_le_bytes(header[4..8].try_into().expect("4-byte slice"));
    if len > MAX_FRAME_LEN {
        return Err(ProtoError::Oversized(len));
    }
    let size = len as usize;
    let mut payload = Vec::new();
    while payload.len() < size {
        let filled = payload.len();
        let step = (size - filled).min(READ_STEP);
        if payload.capacity() < filled + step {
            // Double what has arrived, never past the declared length:
            // `resize`'s own growth would round a frame just over one step
            // up to twice its size.
            payload.reserve_exact(filled.max(step).min(size - filled));
        }
        payload.resize(filled + step, 0);
        read_full(stream, &mut payload[filled..])?;
    }
    let actual = frame_crc(tag[0], len, &payload);
    if actual != declared {
        return Err(ProtoError::Corrupt { declared, actual });
    }
    Ok(Incoming::Message(decode(tag[0], &payload)?))
}

/// Blocks until a full message arrives, treating idle timeouts as a dead
/// peer after `patience` — the client-side read, where every wait has a
/// definite expected reply.
///
/// # Errors
///
/// As [`read_message`], plus an `Io` timeout after `patience` of silence
/// and an `UnexpectedEof` if the peer closes instead of replying.
pub fn expect_message(stream: &mut impl Read, patience: Duration) -> Result<Message, ProtoError> {
    let deadline = std::time::Instant::now() + patience;
    loop {
        match read_message(stream)? {
            Incoming::Message(message) => return Ok(message),
            Incoming::Eof => {
                return Err(ProtoError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed the connection instead of replying",
                )))
            }
            Incoming::Idle => {
                if std::time::Instant::now() >= deadline {
                    return Err(ProtoError::Io(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "no reply from peer",
                    )));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::{Metrics, PairStats, RacePair};
    use std::collections::BTreeMap;
    use std::net::{TcpListener, TcpStream};

    fn sample_outcome() -> Outcome {
        let mut races = BTreeMap::new();
        races.insert(
            RacePair::new("x", "A:1", "B:2"),
            PairStats { race_events: 2, min_distance: 5 },
        );
        let mut metrics = Metrics::new();
        metrics.record_sum("race_events", 2.0);
        Outcome { detector: "wcp".to_owned(), shards: 1, events: 10, races, metrics }
    }

    fn round_trip(message: Message) {
        // Over a real socket pair, so framing and stream behavior are the
        // ones production uses.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        write_message(&mut client, &message).unwrap();
        match read_message(&mut server).unwrap() {
            Incoming::Message(received) => assert_eq!(received, message),
            other => panic!("expected a message, got {other:?}"),
        }
    }

    /// One or more instances of every message kind.
    fn sample_messages() -> Vec<Message> {
        let mut scheduling = Metrics::new();
        scheduling.record_sum("bytes_transferred", 8192.0);
        scheduling.record_sum("cache_hits", 3.0);
        scheduling.record_sum("leases_stolen", 1.0);
        vec![
            Message::Hello { role: Role::Worker },
            Message::Hello { role: Role::Submit },
            Message::Welcome { jobs_hint: 4 },
            Message::Lease,
            Message::Grant {
                job: 7,
                shard: 3,
                name: "shards/a.rwf".to_owned(),
                text: TextFormat::Csv,
                spec: DetectorSpec::default(),
                chunks: 2,
                content: ContentId { len: 4096, crc: 0xDEAD_BEEF },
            },
            Message::Have { job: 7, shard: 3 },
            Message::Pull { job: 7, shard: 3 },
            Message::Stale { job: 7, shard: 3 },
            Message::ShardOpen {
                job: 7,
                shard: 3,
                name: "shards/a.rwf".to_owned(),
                text: TextFormat::Std,
                chunks: 1,
            },
            Message::ShardChunk {
                job: 7,
                shard: 3,
                seq: 0,
                last: false,
                bytes: vec![1, 2, 3, 255],
            },
            Message::ShardChunk { job: 7, shard: 3, seq: 1, last: true, bytes: Vec::new() },
            Message::Outcome {
                job: 7,
                shard: 3,
                events: 10,
                wall_nanos: 123_456,
                runs: vec![WireRun { time_nanos: 99, outcome: sample_outcome() }],
            },
            Message::Failed { job: 7, shard: 1, message: "line 2: bad".to_owned() },
            Message::Done,
            Message::JobOpen {
                name: "nightly".to_owned(),
                spec: DetectorSpec::default(),
                shards: 4,
            },
            Message::JobAccept { job: 7 },
            Message::JobClose { job: 7 },
            Message::Fetch { name: "default".to_owned() },
            Message::Shutdown,
            Message::Report {
                workers: 2,
                shards: 4,
                events: 40,
                wall_nanos: 7,
                runs: vec![WireRun { time_nanos: 5, outcome: sample_outcome() }],
                scheduling,
            },
            Message::Report {
                workers: 1,
                shards: 1,
                events: 2,
                wall_nanos: 9,
                runs: Vec::new(),
                scheduling: Metrics::new(),
            },
            Message::Error { message: "shard x: truncated".to_owned() },
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for message in sample_messages() {
            round_trip(message);
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

    /// The payload decoder never panics: every mutant of every message's
    /// payload, now and then under a random tag, ends in a message or a
    /// typed error.  Payloads are mutated directly because a mutated whole
    /// frame fails its checksum before `decode` sees it.
    #[test]
    fn decoder_never_panics_on_mutated_payloads() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        const MUTANTS: usize = 4000;
        let encodings: Vec<(u8, Vec<u8>)> = sample_messages().iter().map(encode).collect();
        let mut rng = SplitMix(0x5EED);
        let (mut decoded, mut rejected) = (0, 0);
        for index in 0..MUTANTS {
            let (tag, original) = &encodings[index % encodings.len()];
            let tag = if rng.below(16) == 0 { rng.next() as u8 } else { *tag };
            let mutant = mutate(original, &mut rng);
            match catch_unwind(AssertUnwindSafe(|| decode(tag, &mutant))) {
                Ok(Ok(_)) => decoded += 1,
                Ok(Err(_)) => rejected += 1,
                Err(_) => panic!("mutant {index} (tag {tag}) panicked the decoder: {mutant:?}"),
            }
        }
        // Both outcomes occur: the edits reach past the fixed fields.
        assert!(decoded > 0 && rejected > 0, "{decoded} decoded, {rejected} rejected");
    }

    #[test]
    fn content_ids_are_stable_and_collision_averse() {
        // The identity is a pure function of the bytes…
        let bytes = b"t1|w(x)\nt2|w(x)\n".to_vec();
        let id = ContentId::of(&bytes);
        assert_eq!(id, ContentId::of(&bytes));
        assert_eq!(id.len, bytes.len() as u64);
        // …and any change to them (content or length) changes it.
        let mut flipped = bytes.clone();
        flipped[3] ^= 1;
        assert_ne!(id, ContentId::of(&flipped));
        assert_ne!(id, ContentId::of(&bytes[..bytes.len() - 1]));
        // The file path agrees byte for byte with the in-memory path.
        let path =
            std::env::temp_dir().join(format!("rapid-content-id-{}.std", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(ContentId::of_file(&path).unwrap(), id);
        std::fs::remove_file(&path).ok();
        // Display is compact (it lands in log lines and error messages).
        assert_eq!(format!("{}", ContentId { len: 10, crc: 0xAB }), "10b/000000ab");
    }

    #[test]
    fn chunk_assembler_rejects_broken_sequences_with_typed_errors() {
        let mut assembler = ChunkAssembler::new();
        assert_eq!(assembler.push(0, false, b"ab").unwrap(), None);

        // Duplicate of a consumed chunk.
        assert_eq!(assembler.push(0, false, b"ab").unwrap_err(), ChunkError::Duplicate { seq: 0 });

        // A skipped sequence number.
        assert_eq!(
            assembler.push(2, false, b"zz").unwrap_err(),
            ChunkError::Gap { expected: 1, got: 2 }
        );

        // Errors do not corrupt the assembly: the right chunk still lands.
        assert_eq!(assembler.push(1, true, b"c").unwrap(), Some(b"abc".to_vec()));

        // Anything after `last` is typed, too.
        assert_eq!(assembler.push(2, true, b"d").unwrap_err(), ChunkError::AfterLast { seq: 2 });
    }

    #[test]
    fn chunked_shards_stream_over_sockets_byte_exact() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        server.set_read_timeout(Some(Duration::from_millis(100))).unwrap();

        // 10 bytes in 3-byte chunks: 4 frames, the last a 1-byte tail.
        let bytes: Vec<u8> = (0u8..10).collect();
        assert_eq!(chunk_count(bytes.len() as u64, 3), 4);
        write_chunks(&mut client, 1, 2, &bytes, 3).unwrap();
        let rebuilt = read_chunks(&mut server, 1, 2, 4, Duration::from_secs(5)).unwrap();
        assert_eq!(rebuilt, bytes);

        // An empty shard is exactly one empty last chunk.
        assert_eq!(chunk_count(0, 3), 1);
        write_chunks(&mut client, 1, 3, &[], 3).unwrap();
        let rebuilt = read_chunks(&mut server, 1, 3, 1, Duration::from_secs(5)).unwrap();
        assert_eq!(rebuilt, Vec::<u8>::new());

        // A chunk for the wrong shard is Malformed, not silently merged.
        write_chunks(&mut client, 1, 9, b"xy", 3).unwrap();
        assert!(matches!(
            read_chunks(&mut server, 1, 4, 1, Duration::from_secs(5)),
            Err(ProtoError::Malformed(_))
        ));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 64, ..proptest::prelude::ProptestConfig::default()
        })]

        /// Every split of a shard's bytes reassembles byte-exact.
        #[test]
        fn every_chunk_split_reassembles_byte_exact(
            bytes in proptest::collection::vec(
                proptest::strategy::Strategy::prop_map(0u16..256, |byte| byte as u8),
                0..256,
            ),
            chunk_len in 1usize..64,
        ) {
            let total = chunk_count(bytes.len() as u64, chunk_len);
            let mut assembler = ChunkAssembler::new();
            let mut rebuilt = None;
            for seq in 0..total {
                let start = seq as usize * chunk_len;
                let end = (start + chunk_len).min(bytes.len());
                let last = seq + 1 == total;
                let pushed = assembler.push(seq, last, &bytes[start..end]).unwrap();
                proptest::prop_assert_eq!(pushed.is_some(), last);
                if last {
                    rebuilt = pushed;
                }
            }
            proptest::prop_assert_eq!(rebuilt.as_deref(), Some(bytes.as_slice()));
        }

        /// Adversarial chunk streams: any truncation, duplication, reorder
        /// or bit-flip of a framed `SHARD_CHUNK` stream yields a typed
        /// error or the byte-exact shard — never a panic, never wrong
        /// bytes.
        #[test]
        fn mutated_chunk_streams_are_typed_errors_or_byte_exact(
            bytes in proptest::collection::vec(
                proptest::strategy::Strategy::prop_map(0u16..256, |byte| byte as u8),
                0..160,
            ),
            chunk_len in 1usize..48,
            mutation in 0usize..4,
            position in 0usize..4096,
            bit in 0u32..8,
        ) {
            // Encode the stream frame by frame so mutations can address
            // whole frames (duplicate/reorder) as well as raw bytes.
            let chunks = chunk_count(bytes.len() as u64, chunk_len);
            let mut frames = Vec::new();
            for seq in 0..chunks {
                let start = seq as usize * chunk_len;
                let end = (start + chunk_len).min(bytes.len());
                let last = seq + 1 == chunks;
                frames.push(frame_bytes(&Message::ShardChunk {
                    job: 1,
                    shard: 2,
                    seq,
                    last,
                    bytes: bytes[start..end].to_vec(),
                }));
            }

            let mut flipped = false;
            match mutation {
                // Truncate the raw byte stream.
                0 => {
                    let total: usize = frames.iter().map(Vec::len).sum();
                    let cut = position % (total + 1);
                    let mut flat: Vec<u8> = frames.concat();
                    flat.truncate(cut);
                    frames = vec![flat];
                }
                // Duplicate one frame in place.
                1 => {
                    let index = position % frames.len();
                    let copy = frames[index].clone();
                    frames.insert(index, copy);
                }
                // Swap two adjacent frames (no-op on 1-frame streams).
                2 => {
                    if frames.len() >= 2 {
                        let index = position % (frames.len() - 1);
                        frames.swap(index, index + 1);
                    }
                }
                // Flip one bit somewhere in the stream.
                _ => {
                    let mut flat: Vec<u8> = frames.concat();
                    let index = position % flat.len().max(1);
                    if !flat.is_empty() {
                        flat[index] ^= 1 << bit;
                        flipped = true;
                    }
                    frames = vec![flat];
                }
            }

            let stream: Vec<u8> = frames.concat();
            let result =
                read_chunks(&mut stream.as_slice(), 1, 2, chunks, Duration::from_secs(5));
            match result {
                // Only harmless mutations may succeed — and then the shard
                // must be byte-exact.
                Ok(rebuilt) => {
                    proptest::prop_assert!(!flipped, "a flipped stream must not reassemble");
                    proptest::prop_assert_eq!(rebuilt, bytes);
                }
                // Everything else must be one of the typed proto errors.
                Err(error) => {
                    proptest::prop_assert!(matches!(
                        error,
                        ProtoError::Io(_)
                            | ProtoError::Corrupt { .. }
                            | ProtoError::Chunk(_)
                            | ProtoError::Malformed(_)
                            | ProtoError::Oversized(_)
                            | ProtoError::BadTag(_)
                    ));
                }
            }
        }
    }

    #[test]
    fn eof_and_bad_frames_are_typed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        // Clean EOF before any frame.
        let client = TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        drop(client);
        assert!(matches!(read_message(&mut server).unwrap(), Incoming::Eof));

        // Unknown tag (with a valid checksum, so the tag check is what fires).
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        use std::io::Write as _;
        let mut frame = vec![42u8, 0, 0, 0, 0];
        frame.extend_from_slice(&frame_crc(42, 0, &[]).to_le_bytes());
        client.write_all(&frame).unwrap();
        assert!(matches!(read_message(&mut server), Err(ProtoError::BadTag(42))));

        // Oversized frame declaration fails before any allocation.
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        let mut frame = vec![TAG_LEASE];
        frame.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        frame.extend_from_slice(&[0, 0, 0, 0]);
        client.write_all(&frame).unwrap();
        assert!(matches!(read_message(&mut server), Err(ProtoError::Oversized(_))));

        // EOF mid-frame is an error, not a clean close.
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        client.write_all(&[TAG_SHARD_CHUNK, 200, 0, 0, 0, 1, 2]).unwrap();
        drop(client);
        assert!(matches!(read_message(&mut server), Err(ProtoError::Io(_))));
    }

    /// Serves fixed bytes, then EOF, recording the largest buffer a reader
    /// offers it.
    struct RecordingPeer<'a> {
        bytes: &'a [u8],
        largest: usize,
    }

    impl Read for RecordingPeer<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            self.bytes.read(buf)
        }
    }

    #[test]
    fn hostile_length_header_allocates_only_as_bytes_arrive() {
        // A 9-byte header declaring the largest legal frame, then EOF: the
        // reader must fail typed after reserving one read step, not the
        // declared gigabyte.
        let mut frame = vec![TAG_HELLO];
        frame.extend_from_slice(&MAX_FRAME_LEN.to_le_bytes());
        frame.extend_from_slice(&[0, 0, 0, 0]);
        let mut peer = RecordingPeer { bytes: &frame, largest: 0 };
        match read_message(&mut peer) {
            Err(ProtoError::Io(error)) => assert_eq!(error.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected a typed EOF error, got {other:?}"),
        }
        assert!(peer.largest <= READ_STEP, "offered a {}-byte buffer", peer.largest);

        // A real frame of several steps still arrives byte-exact.
        let bytes: Vec<u8> = (0..3 * READ_STEP + 5).map(|i| i as u8).collect();
        let chunk = Message::ShardChunk { job: 1, shard: 2, seq: 0, last: true, bytes };
        let frame = frame_bytes(&chunk);
        let mut peer = RecordingPeer { bytes: &frame, largest: 0 };
        match read_message(&mut peer) {
            Ok(Incoming::Message(received)) => assert_eq!(received, chunk),
            other => panic!("expected the chunk back, got {other:?}"),
        }
        assert!(peer.largest <= READ_STEP, "offered a {}-byte buffer", peer.largest);
    }

    /// Encodes one message to its raw frame bytes (what a socket would see).
    fn frame_bytes(message: &Message) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_message(&mut bytes, message).unwrap();
        bytes
    }

    #[test]
    fn bit_flipped_frames_are_typed_corrupt_errors() {
        // Satellite regression: a SHARD_CHUNK whose body was flipped in
        // transit must surface as the typed `Corrupt` error, never as
        // silently wrong shard bytes (the chunk would otherwise decode —
        // the length prefix and flags still parse).
        let chunk =
            Message::ShardChunk { job: 1, shard: 2, seq: 0, last: true, bytes: vec![7; 64] };
        let clean = frame_bytes(&chunk);
        for position in [9, 20, clean.len() - 1] {
            for bit in [0, 3, 7] {
                let mut corrupted = clean.clone();
                corrupted[position] ^= 1 << bit;
                let result = read_message(&mut corrupted.as_slice());
                assert!(
                    matches!(result, Err(ProtoError::Corrupt { .. })),
                    "flip at byte {position} bit {bit}: {result:?}"
                );
            }
        }

        // Flips in the header (tag or length) are typed too — Corrupt or,
        // for a length flipped far upward, a bounded I/O error; never Ok.
        for position in 0..9 {
            let mut corrupted = clean.clone();
            corrupted[position] ^= 1;
            assert!(
                read_message(&mut corrupted.as_slice()).is_err(),
                "header flip at byte {position} must not decode"
            );
        }
    }

    /// A sink that never accepts a byte, as a stalled receiver looks to a
    /// sender with a write timeout configured.
    struct StalledSink;

    impl Write for StalledSink {
        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            Err(io::Error::new(io::ErrorKind::WouldBlock, "full"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn writes_to_a_stalled_receiver_fail_bounded_not_forever() {
        // Backpressure: a receiver that stops draining kills the write with
        // a typed timeout after MAX_STALLS attempts instead of pinning the
        // sender (and the shard bytes it holds) forever.
        let error = write_message(&mut StalledSink, &Message::Lease).unwrap_err();
        match error {
            ProtoError::Io(io) => assert_eq!(io.kind(), io::ErrorKind::TimedOut),
            other => panic!("expected a typed I/O timeout, got {other:?}"),
        }
    }

    #[test]
    fn hello_rejects_foreign_magic_and_future_versions() {
        let (tag, mut payload) = encode(&Message::Hello { role: Role::Worker });
        payload[0] = b'X';
        assert!(matches!(decode(tag, &payload), Err(ProtoError::BadMagic)));

        let (tag, mut payload) = encode(&Message::Hello { role: Role::Worker });
        payload[4] = 0xEE;
        assert!(matches!(decode(tag, &payload), Err(ProtoError::BadVersion(0xEE))));

        let (tag, payload) = encode(&Message::Lease);
        assert!(matches!(decode(tag, &[payload, vec![0]].concat()), Err(ProtoError::Malformed(_))));
    }
}
