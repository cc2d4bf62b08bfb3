//! FastTrack-style epochs: a single `(clock, thread)` pair.

use std::fmt;

use crate::{ThreadId, VectorClock};

/// An *epoch* `c@t`: the scalar clock `c` of a single thread `t`.
///
/// The paper lists "epoch based optimizations" as future work (§6); the HB
/// detector in `rapid-hb` offers an epoch-optimized mode in the spirit of
/// FastTrack, where a variable's last write (and often its last read) is
/// represented by one epoch instead of a full vector clock.
///
/// # Examples
///
/// ```
/// use rapid_vc::{Epoch, ThreadId, VectorClock};
///
/// let t1 = ThreadId::new(1);
/// let epoch = Epoch::new(t1, 4);
/// let mut now = VectorClock::bottom();
/// now.set(t1, 5);
/// assert!(epoch.happens_before(&now));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Epoch {
    thread: ThreadId,
    clock: u64,
}

impl Epoch {
    /// Creates the epoch `clock@thread`.
    pub const fn new(thread: ThreadId, clock: u64) -> Self {
        Epoch { thread, clock }
    }

    /// The "never happened" epoch `0@T0`, ⊑ every vector time.
    pub const fn zero() -> Self {
        Epoch { thread: ThreadId::new(0), clock: 0 }
    }

    /// The thread component of the epoch.
    pub const fn thread(self) -> ThreadId {
        self.thread
    }

    /// The scalar clock component of the epoch.
    pub const fn clock(self) -> u64 {
        self.clock
    }

    /// Returns true for the zero epoch.
    pub const fn is_zero(self) -> bool {
        self.clock == 0
    }

    /// Epoch-vs-vector-time comparison: `c@t ⊑ V` iff `c <= V(t)`.
    pub fn happens_before(self, clock: &VectorClock) -> bool {
        self.clock <= clock.get(self.thread)
    }

    /// Reads the epoch of `thread` out of a full vector time.
    pub fn of_thread(clock: &VectorClock, thread: ThreadId) -> Self {
        Epoch { thread, clock: clock.get(thread) }
    }

    /// Expands the epoch into a full vector time with a single component.
    pub fn to_vector(self) -> VectorClock {
        VectorClock::singleton(self.thread, self.clock)
    }
}

impl Default for Epoch {
    fn default() -> Self {
        Epoch::zero()
    }
}

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.clock, self.thread)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_epoch_precedes_everything() {
        let zero = Epoch::zero();
        assert!(zero.is_zero());
        assert!(zero.happens_before(&VectorClock::bottom()));
        assert!(zero.happens_before(&VectorClock::from_components([5, 5])));
    }

    #[test]
    fn happens_before_checks_single_component() {
        let epoch = Epoch::new(ThreadId::new(1), 3);
        assert!(!epoch.happens_before(&VectorClock::from_components([9, 2])));
        assert!(epoch.happens_before(&VectorClock::from_components([0, 3])));
        assert!(epoch.happens_before(&VectorClock::from_components([0, 4])));
    }

    #[test]
    fn of_thread_and_to_vector_roundtrip() {
        let clock = VectorClock::from_components([1, 7, 3]);
        let epoch = Epoch::of_thread(&clock, ThreadId::new(1));
        assert_eq!(epoch.clock(), 7);
        assert_eq!(epoch.to_vector().get(ThreadId::new(1)), 7);
        assert_eq!(epoch.to_vector().get(ThreadId::new(0)), 0);
    }

    #[test]
    fn display_uses_at_notation() {
        assert_eq!(Epoch::new(ThreadId::new(2), 9).to_string(), "9@T2");
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(Epoch::default(), Epoch::zero());
    }
}
