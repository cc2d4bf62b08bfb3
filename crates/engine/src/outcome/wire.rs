//! The `Outcome` wire codec (`RWO`): a hand-rolled binary encoding of the
//! mergeable result algebra, in the `.rwf` house style.
//!
//! The [`Outcome`] algebra merges results by interned *names*, which makes
//! outcomes from different processes foldable; this codec is how they
//! *arrive* from another process (the workspace has no serialization
//! framework, so the encoding is written by hand).  The coordinator/worker
//! protocol of [`dist`](crate::dist) embeds these blobs in its `OUTCOME`
//! and `REPORT` messages, and the coordinator folds decoded outcomes
//! through the exact same merge path as a local `jobs = N` run.
//!
//! # Layout
//!
//! All integers are little-endian fixed-width; strings are
//! `u32`-length-prefixed bytes — the same primitives as the `.rwf` trace
//! format, shared via [`rapid_trace::format::wire`] so the two codecs
//! cannot drift.  One encoded outcome is:
//!
//! ```text
//! header  := magic "RWO\0" | version u16 | reserved u16
//! body    := detector str | shards u64 | events u64
//!          | names: u32 count, count × str        (interned name table)
//!          | races: u32 count, count × race-frame
//!          | metrics: u32 count, count × metric-frame
//! race-frame   := variable u32 | first u32 | second u32        (name ids)
//!               | race_events u64 | min_distance u64           (28 bytes)
//! metric-frame := name u32 | aggregation u8 | value f64-bits   (13 bytes)
//! ```
//!
//! The name table interns every string a frame references (variables,
//! locations, metric names) in order of first use, walking races in map
//! order then metrics in map order — so encoding is deterministic and
//! `encode(decode(bytes)) == bytes` for well-formed input.  `aggregation`
//! is 0 for [`Aggregation::Sum`], 1 for [`Aggregation::Max`].
//!
//! The normative specification, including the message flow that carries
//! these blobs, lives in `docs/PROTOCOL.md`.
//!
//! # Examples
//!
//! ```
//! use rapid_engine::outcome::{wire, Metrics, Outcome, PairStats, RacePair};
//! use std::collections::BTreeMap;
//!
//! let mut races = BTreeMap::new();
//! races.insert(RacePair::new("x", "A.java:1", "B.java:2"), PairStats {
//!     race_events: 3,
//!     min_distance: 17,
//! });
//! let mut metrics = Metrics::new();
//! metrics.record_sum("clock_joins", 41.0);
//! let outcome =
//!     Outcome { detector: "wcp".into(), shards: 1, events: 100, races, metrics };
//!
//! let bytes = wire::to_bytes(&outcome);
//! assert!(wire::looks_like_outcome(&bytes));
//! assert_eq!(wire::from_bytes(&bytes).unwrap(), outcome);
//! ```

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use rapid_trace::format::wire;

use super::{Aggregation, Metric, Metrics, Outcome, PairStats, RacePair};

/// The four magic bytes opening every encoded outcome: `"RWO"` plus a NUL.
pub const MAGIC: [u8; 4] = *b"RWO\0";

/// The outcome-codec version this build reads and writes.
pub const VERSION: u16 = 1;

/// Size in bytes of one race-pair frame.
pub const RACE_FRAME_LEN: usize = 28;

/// Size in bytes of one metric frame.
pub const METRIC_FRAME_LEN: usize = 13;

const AGG_SUM: u8 = 0;
const AGG_MAX: u8 = 1;

/// Why a byte sequence could not be decoded as an [`Outcome`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input does not start with the `RWO\0` magic bytes.
    BadMagic,
    /// The input declares a codec version this build cannot read.
    BadVersion(u16),
    /// The input ends before the structure its header declares.
    Truncated,
    /// The input continues past the last declared frame
    /// ([`from_bytes`] only; embedded decodes are length-delimited upstream).
    TrailingBytes,
    /// A frame references a name-table entry that does not exist.
    BadNameId {
        /// The out-of-range id.
        id: u32,
        /// The table's actual length.
        len: u32,
    },
    /// A metric frame carries an aggregation tag outside `0..=1`.
    BadAggregation(u8),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "not an encoded outcome (bad magic bytes)"),
            WireError::BadVersion(version) => {
                write!(
                    f,
                    "unsupported outcome codec version {version} (this build reads {VERSION})"
                )
            }
            WireError::Truncated => write!(f, "truncated outcome"),
            WireError::TrailingBytes => write!(f, "trailing bytes after the encoded outcome"),
            WireError::BadNameId { id, len } => {
                write!(f, "name id {id} out of range (table has {len})")
            }
            WireError::BadAggregation(tag) => write!(f, "unknown aggregation tag {tag}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<wire::Truncated> for WireError {
    fn from(_: wire::Truncated) -> Self {
        WireError::Truncated
    }
}

/// Returns true when `bytes` starts with the outcome magic.
pub fn looks_like_outcome(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == MAGIC
}

/// Interns strings in first-use order, building the encoder's name table.
#[derive(Default)]
struct NameTable<'a> {
    names: Vec<&'a str>,
    index: HashMap<&'a str, u32>,
}

impl<'a> NameTable<'a> {
    fn intern(&mut self, name: &'a str) -> u32 {
        *self.index.entry(name).or_insert_with(|| {
            self.names.push(name);
            (self.names.len() - 1) as u32
        })
    }
}

/// Appends `outcome` to `out` in the wire layout (see the [module
/// docs](self)).  Multiple outcomes concatenate cleanly: each blob is
/// self-delimiting, so [`decode`] can read them back in sequence.
pub fn encode(outcome: &Outcome, out: &mut Vec<u8>) {
    // First pass: intern every referenced name and collect the frames.
    let mut table = NameTable::default();
    let mut race_frames: Vec<(u32, u32, u32, &PairStats)> = Vec::with_capacity(outcome.races.len());
    for (pair, stats) in &outcome.races {
        let variable = table.intern(&pair.variable);
        let first = table.intern(&pair.first_location);
        let second = table.intern(&pair.second_location);
        race_frames.push((variable, first, second, stats));
    }
    let mut metric_frames: Vec<(u32, &Metric)> = Vec::new();
    for (name, metric) in outcome.metrics.iter() {
        metric_frames.push((table.intern(name), metric));
    }

    // Second pass: header, scalars, table, frames.
    out.extend_from_slice(&MAGIC);
    wire::put_u16(out, VERSION);
    wire::put_u16(out, 0); // reserved
    wire::put_str(out, &outcome.detector);
    wire::put_u64(out, outcome.shards as u64);
    wire::put_u64(out, outcome.events as u64);
    wire::put_u32(out, table.names.len() as u32);
    for name in &table.names {
        wire::put_str(out, name);
    }
    wire::put_u32(out, race_frames.len() as u32);
    for (variable, first, second, stats) in race_frames {
        wire::put_u32(out, variable);
        wire::put_u32(out, first);
        wire::put_u32(out, second);
        wire::put_u64(out, stats.race_events as u64);
        wire::put_u64(out, stats.min_distance as u64);
    }
    wire::put_u32(out, metric_frames.len() as u32);
    for (name, metric) in metric_frames {
        wire::put_u32(out, name);
        let tag = match metric.aggregation {
            Aggregation::Sum => AGG_SUM,
            Aggregation::Max => AGG_MAX,
        };
        wire::put_u8(out, tag);
        wire::put_f64(out, metric.value);
    }
}

/// Encodes `outcome` into a fresh byte vector.
pub fn to_bytes(outcome: &Outcome) -> Vec<u8> {
    let mut out = Vec::new();
    encode(outcome, &mut out);
    out
}

/// Decodes one outcome from `cursor`, leaving the cursor positioned after
/// it (so callers can decode a sequence of concatenated blobs, as the
/// protocol's `OUTCOME`/`REPORT` messages do).
///
/// # Errors
///
/// A typed [`WireError`]; [`WireError::TrailingBytes`] is never produced
/// here — use [`from_bytes`] when the input must contain exactly one
/// outcome.
pub fn decode(cursor: &mut wire::Cursor<'_>) -> Result<Outcome, WireError> {
    if cursor.take(MAGIC.len())? != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = cursor.u16()?;
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    cursor.u16()?; // reserved
    let detector = cursor.str()?;
    let shards = cursor.u64()? as usize;
    let events = cursor.u64()? as usize;

    let name_count = cursor.u32()?;
    // Each name needs at least its 4-byte length prefix (hostile guard).
    cursor.check_count(name_count, 4)?;
    let mut names: Vec<String> = Vec::with_capacity(name_count as usize);
    for _ in 0..name_count {
        names.push(cursor.str()?);
    }
    let resolve = |id: u32| -> Result<&str, WireError> {
        names
            .get(id as usize)
            .map(String::as_str)
            .ok_or(WireError::BadNameId { id, len: names.len() as u32 })
    };

    let race_count = cursor.u32()?;
    cursor.check_count(race_count, RACE_FRAME_LEN)?;
    let mut races: BTreeMap<RacePair, PairStats> = BTreeMap::new();
    for _ in 0..race_count {
        let variable = cursor.u32()?;
        let first = cursor.u32()?;
        let second = cursor.u32()?;
        let stats =
            PairStats { race_events: cursor.u64()? as usize, min_distance: cursor.u64()? as usize };
        // `RacePair::new` re-normalizes the location order, so a hostile
        // frame with swapped locations cannot plant an unordered key; if
        // normalization makes two frames collide, their stats merge exactly
        // as [`Outcome::merge`] would merge them.
        let pair = RacePair::new(resolve(variable)?, resolve(first)?, resolve(second)?);
        races.entry(pair).and_modify(|existing| existing.merge(&stats)).or_insert(stats);
    }

    let metric_count = cursor.u32()?;
    cursor.check_count(metric_count, METRIC_FRAME_LEN)?;
    let mut metrics = Metrics::new();
    for _ in 0..metric_count {
        let name = resolve(cursor.u32()?)?.to_owned();
        let aggregation = match cursor.u8()? {
            AGG_SUM => Aggregation::Sum,
            AGG_MAX => Aggregation::Max,
            other => return Err(WireError::BadAggregation(other)),
        };
        metrics.record(name, Metric { aggregation, value: cursor.f64()? });
    }

    Ok(Outcome { detector, shards, events, races, metrics })
}

/// Decodes exactly one outcome from `bytes`.
///
/// # Errors
///
/// As [`decode`], plus [`WireError::TrailingBytes`] when input remains
/// after the outcome.
pub fn from_bytes(bytes: &[u8]) -> Result<Outcome, WireError> {
    let mut cursor = wire::Cursor::new(bytes);
    let outcome = decode(&mut cursor)?;
    if !cursor.at_end() {
        return Err(WireError::TrailingBytes);
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Outcome {
        let mut races = BTreeMap::new();
        races.insert(
            RacePair::new("x", "A.java:1", "B.java:2"),
            PairStats { race_events: 3, min_distance: 17 },
        );
        races.insert(
            RacePair::new("y", "A.java:1", "C.java:9"),
            PairStats { race_events: 1, min_distance: 2 },
        );
        let mut metrics = Metrics::new();
        metrics.record_sum("clock_joins", 41.0);
        metrics.record_max("max_queue_percentage", 19.25);
        Outcome { detector: "wcp".to_owned(), shards: 2, events: 1234, races, metrics }
    }

    #[test]
    fn round_trips_by_value() {
        let outcome = sample();
        let bytes = to_bytes(&outcome);
        assert!(looks_like_outcome(&bytes));
        assert_eq!(from_bytes(&bytes).unwrap(), outcome);
    }

    #[test]
    fn encoding_is_deterministic_and_a_fixpoint() {
        let outcome = sample();
        let bytes = to_bytes(&outcome);
        assert_eq!(bytes, to_bytes(&from_bytes(&bytes).unwrap()));
    }

    #[test]
    fn concatenated_outcomes_decode_in_sequence() {
        let first = sample();
        let second = Outcome {
            detector: "hb".to_owned(),
            shards: 1,
            events: 7,
            races: BTreeMap::new(),
            metrics: Metrics::new(),
        };
        let mut bytes = Vec::new();
        encode(&first, &mut bytes);
        encode(&second, &mut bytes);
        let mut cursor = rapid_trace::format::wire::Cursor::new(&bytes);
        assert_eq!(decode(&mut cursor).unwrap(), first);
        assert_eq!(decode(&mut cursor).unwrap(), second);
        assert!(cursor.at_end());
    }

    #[test]
    fn rejects_bad_magic_version_truncation_and_trailing_bytes() {
        let good = to_bytes(&sample());

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert_eq!(from_bytes(&bad_magic).unwrap_err(), WireError::BadMagic);

        let mut bad_version = good.clone();
        bad_version[4] = 0xEE;
        assert_eq!(from_bytes(&bad_version).unwrap_err(), WireError::BadVersion(0xEE));

        for len in 0..good.len() {
            let error = from_bytes(&good[..len]).unwrap_err();
            assert!(
                matches!(error, WireError::Truncated | WireError::BadMagic),
                "prefix of {len} bytes decoded to {error:?}"
            );
        }

        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(from_bytes(&trailing).unwrap_err(), WireError::TrailingBytes);
    }

    #[test]
    fn rejects_out_of_range_name_ids_and_bad_aggregation_tags() {
        // Hand-build a minimal blob with one metric frame.
        let mut outcome = Outcome {
            detector: "t".to_owned(),
            shards: 1,
            events: 0,
            races: BTreeMap::new(),
            metrics: Metrics::new(),
        };
        outcome.metrics.record_sum("m", 1.0);
        let good = to_bytes(&outcome);

        // The metric frame sits at the end: name u32 | tag u8 | value f64.
        let frame = good.len() - METRIC_FRAME_LEN;
        let mut bad_id = good.clone();
        bad_id[frame] = 9;
        assert_eq!(from_bytes(&bad_id).unwrap_err(), WireError::BadNameId { id: 9, len: 1 });

        let mut bad_tag = good.clone();
        bad_tag[frame + 4] = 7;
        assert_eq!(from_bytes(&bad_tag).unwrap_err(), WireError::BadAggregation(7));
    }

    #[test]
    fn hostile_counts_are_truncation_not_allocation() {
        // A blob declaring u32::MAX races must fail fast on the count
        // bound, not attempt a 100-GiB reserve.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        rapid_trace::format::wire::put_u16(&mut bytes, VERSION);
        rapid_trace::format::wire::put_u16(&mut bytes, 0);
        rapid_trace::format::wire::put_str(&mut bytes, "d");
        rapid_trace::format::wire::put_u64(&mut bytes, 1);
        rapid_trace::format::wire::put_u64(&mut bytes, 0);
        rapid_trace::format::wire::put_u32(&mut bytes, 0); // empty name table
        rapid_trace::format::wire::put_u32(&mut bytes, u32::MAX); // hostile race count
        assert_eq!(from_bytes(&bytes).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn swapped_locations_normalize_on_decode() {
        // Craft a frame whose locations arrive in the wrong order; the
        // decoder must yield the same normalized pair the encoder writes.
        let outcome = sample();
        let bytes = to_bytes(&outcome);
        // Find the first race frame: it follows the name table.  Rather
        // than byte-surgery, assert the invariant on the decoded value.
        let decoded = from_bytes(&bytes).unwrap();
        for pair in decoded.races.keys() {
            assert!(pair.first_location <= pair.second_location);
        }
    }
}
