//! Trace model, parsing, validation and reordering checks for `rapid-rs`.
//!
//! This crate is the substrate every detector in the workspace builds on.  It
//! reproduces the execution-trace model of "Dynamic Race Prediction in Linear
//! Time" (PLDI 2017, §2.1):
//!
//! * **Events** ([`Event`], [`EventKind`]): lock acquire/release, variable
//!   read/write, and thread fork/join, each tagged with the performing thread
//!   and a program location (the paper reports *race pairs* as pairs of
//!   program locations).
//! * **Traces** ([`Trace`], [`TraceBuilder`]): a sequence of events subject to
//!   *lock semantics* and *well-nestedness*; [`validate`](Trace::validate)
//!   checks both.
//! * **Lock structure** ([`lockctx::LockContext`], [`analysis::TraceIndex`]):
//!   critical sections, `match(a)`, held-lock sets and per-critical-section
//!   read/write sets — the `L`, `R`, `W` parameters of Algorithm 1.
//! * **Correct reorderings** ([`reorder`]): the paper's definition of a
//!   correct reordering, a checker for it, and a bounded search for reordering
//!   witnesses of predictable races/deadlocks (used to certify detector
//!   output in tests).
//! * **Formats** ([`mod@format`]): a line-oriented "std" text format (modelled on
//!   the RAPID/RVPredict logging format) plus CSV, with both parser and
//!   writer, and the fixed-width binary wire format `.rwf`.  One streaming
//!   reader per encoding ([`format::StreamReader`], [`format::BinReader`])
//!   reads through one small reused buffer.  All three encodings are
//!   specified normatively in `docs/FORMAT.md` at the repository root.
//!
//! # Examples
//!
//! Build the trace of Figure 1b of the paper and inspect it:
//!
//! ```
//! use rapid_trace::{EventKind, TraceBuilder};
//!
//! let mut b = TraceBuilder::new();
//! let (t1, t2) = (b.thread("t1"), b.thread("t2"));
//! let l = b.lock("l");
//! let (x, y) = (b.variable("x"), b.variable("y"));
//! b.write(t1, y);
//! b.acquire(t1, l);
//! b.read(t1, x);
//! b.release(t1, l);
//! b.acquire(t2, l);
//! b.read(t2, x);
//! b.release(t2, l);
//! b.read(t2, y);
//! let trace = b.finish();
//!
//! assert_eq!(trace.len(), 8);
//! assert!(trace.validate().is_ok());
//! assert!(matches!(trace[0].kind(), EventKind::Write(v) if v == y));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod builder;
pub mod event;
pub mod format;
pub mod ids;
pub mod lockctx;
pub mod names;
pub mod race;
pub mod reorder;
pub mod stats;
pub mod trace;
pub mod validate;

pub use builder::TraceBuilder;
pub use event::{Event, EventId, EventKind};
pub use ids::{Location, LockId, VarId};
pub use names::NameResolver;
pub use race::{
    LastAccess, LastAccesses, PairKey, PairStats, Race, RaceKind, RaceReport, RaceSink,
};
pub use rapid_vc::ThreadId;
pub use stats::TraceStats;
pub use trace::Trace;
pub use validate::{TraceError, ValidationErrorKind};
