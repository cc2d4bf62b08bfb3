//! Happens-before (HB) race detection for `rapid-rs`.
//!
//! HB ([Lamport 1978]) is the classical partial order used for sound dynamic
//! race detection and the baseline the paper compares WCP against: it orders
//! (i) events of the same thread by program order and (ii) a `rel(l)` before
//! every later `acq(l)` of the same lock (plus fork/join edges).  Conflicting
//! events unordered by HB are reported as races.
//!
//! Two detectors are provided:
//!
//! * [`HbDetector`] — the textbook Djit⁺-style vector-clock algorithm, the
//!   same algorithm the authors' RAPID tool implements for its HB baseline
//!   (unwindowed, linear time).
//! * [`FastTrackDetector`] — the FastTrack epoch optimization (the "epoch
//!   based optimizations" listed as future work in §6 of the paper): most
//!   reads/writes are tracked by a single `(thread, clock)` epoch instead of
//!   a full vector clock.
//!
//! Both synchronize through one set of thread and lock clocks and record
//! races through a [`rapid_trace::RaceSink`]; their batch wrappers collect
//! [`rapid_trace::RaceReport`]s whose distinct location pairs are what
//! Table 1 column 7 counts.
//!
//! # Examples
//!
//! ```
//! use rapid_gen::figures;
//! use rapid_hb::HbDetector;
//!
//! // Figure 1b: HB misses the predictable race on y (the rel/acq pair on l
//! // orders the two critical sections).
//! let figure = figures::figure_1b();
//! let report = HbDetector::new().detect(&figure.trace);
//! assert_eq!(report.distinct_pairs(), 0);
//! ```
//!
//! [Lamport 1978]: https://doi.org/10.1145/359545.359563

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod detector;
pub mod fasttrack;
mod sync;

pub use detector::{HbDetector, HbStats, HbStream, HbTimestamps};
pub use fasttrack::{FastTrackDetector, FastTrackStream};
