//! Vector clocks and epochs for the `rapid-rs` race detectors.
//!
//! The paper ("Dynamic Race Prediction in Linear Time", PLDI 2017, §3.1)
//! distinguishes *clocks* (mutable state cells) from *times* (the immutable
//! values clocks take).  In Rust both are represented by [`VectorClock`]; the
//! detectors keep mutable `VectorClock`s in their state and copy them out when
//! a snapshot ("time") of an event must be remembered.
//!
//! A vector time is a function `Tid -> Nat`.  The paper's operations are:
//!
//! * `V1 ⊑ V2` — pointwise comparison, [`VectorClock::le`];
//! * `V1 ⊔ V2` — pointwise maximum, [`VectorClock::join`];
//! * `V[t := n]` — component assignment, [`VectorClock::set`];
//! * `⊥` — the all-zero time, [`VectorClock::bottom`].
//!
//! The crate also provides [`Epoch`]s (a `(thread, clock)` pair, written
//! `c@t` in the FastTrack literature), used by the epoch-optimized HB
//! detector, and a small arena type [`ClockPool`] used by detectors that
//! allocate many short-lived clocks.
//!
//! # Examples
//!
//! ```
//! use rapid_vc::{ThreadId, VectorClock};
//!
//! let t0 = ThreadId::new(0);
//! let t1 = ThreadId::new(1);
//! let mut a = VectorClock::bottom();
//! a.set(t0, 3);
//! let mut b = VectorClock::bottom();
//! b.set(t1, 5);
//!
//! let joined = a.joined(&b);
//! assert_eq!(joined.get(t0), 3);
//! assert_eq!(joined.get(t1), 5);
//! assert!(a.le(&joined) && b.le(&joined));
//! assert!(!a.le(&b) && !b.le(&a)); // concurrent
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod epoch;
mod pool;
mod thread_id;

pub use clock::{join_at, ClockOrdering, VectorClock};
pub use epoch::Epoch;
pub use pool::ClockPool;
pub use thread_id::ThreadId;
