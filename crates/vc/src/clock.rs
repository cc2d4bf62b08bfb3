//! The [`VectorClock`] type and its pointwise operations.

use std::cmp::Ordering;
use std::fmt;

use crate::ThreadId;

/// Result of comparing two vector clocks under the pointwise partial order.
///
/// Unlike [`std::cmp::Ordering`], vector times can also be *incomparable*
/// (concurrent), which is exactly the situation race detectors look for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClockOrdering {
    /// Both clocks hold identical times.
    Equal,
    /// The left clock is pointwise ≤ the right one (and not equal).
    Less,
    /// The right clock is pointwise ≤ the left one (and not equal).
    Greater,
    /// Neither clock is pointwise ≤ the other: the times are concurrent.
    Concurrent,
}

/// A vector time / vector clock: a map from [`ThreadId`] to a logical clock.
///
/// The representation is a dense `Vec<u64>` indexed by thread id; components
/// beyond the stored length are implicitly `0`, so clocks over different
/// numbers of threads compare and join correctly.
///
/// # Examples
///
/// ```
/// use rapid_vc::{ThreadId, VectorClock};
///
/// let mut c = VectorClock::bottom();
/// c.set(ThreadId::new(2), 9);
/// assert_eq!(c.get(ThreadId::new(2)), 9);
/// assert_eq!(c.get(ThreadId::new(5)), 0); // implicit zero
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct VectorClock {
    components: Vec<u64>,
}

impl VectorClock {
    /// Returns the bottom time `⊥` mapping every thread to `0`.
    pub fn bottom() -> Self {
        VectorClock { components: Vec::new() }
    }

    /// Creates an all-zero clock with space reserved for `threads` components.
    pub fn with_threads(threads: usize) -> Self {
        VectorClock { components: vec![0; threads] }
    }

    /// Creates a clock from an explicit component vector.
    ///
    /// Component `i` is the time of thread `i`.
    pub fn from_components<I>(components: I) -> Self
    where
        I: IntoIterator<Item = u64>,
    {
        VectorClock { components: components.into_iter().collect() }
    }

    /// Returns `⊥[t := n]`: the bottom clock with a single component set.
    pub fn singleton(thread: ThreadId, value: u64) -> Self {
        let mut clock = VectorClock::bottom();
        clock.set(thread, value);
        clock
    }

    /// Returns the component for `thread` (implicitly `0` when absent).
    pub fn get(&self, thread: ThreadId) -> u64 {
        self.components.get(thread.index()).copied().unwrap_or(0)
    }

    /// Sets the component for `thread` to `value` (the paper's `V[t := n]`).
    pub fn set(&mut self, thread: ThreadId, value: u64) {
        let index = thread.index();
        if index >= self.components.len() {
            if value == 0 {
                return;
            }
            self.components.resize(index + 1, 0);
        }
        self.components[index] = value;
    }

    /// Increments the component for `thread` by one and returns the new value.
    pub fn tick(&mut self, thread: ThreadId) -> u64 {
        let next = self.get(thread) + 1;
        self.set(thread, next);
        next
    }

    /// Returns true when every component is zero.
    pub fn is_bottom(&self) -> bool {
        self.components.iter().all(|&component| component == 0)
    }

    /// Number of explicitly stored components (trailing zeros may be stored).
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Returns true when no component is explicitly stored.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Pointwise maximum (`⊔`) with `other`, updating `self` in place.
    pub fn join(&mut self, other: &VectorClock) {
        if other.components.len() > self.components.len() {
            self.components.resize(other.components.len(), 0);
        }
        for (mine, theirs) in self.components.iter_mut().zip(other.components.iter()) {
            if *theirs > *mine {
                *mine = *theirs;
            }
        }
    }

    /// Returns the pointwise maximum of `self` and `other` as a new clock.
    pub fn joined(&self, other: &VectorClock) -> VectorClock {
        let mut result = self.clone();
        result.join(other);
        result
    }

    /// Pointwise comparison `self ⊑ other`.
    pub fn le(&self, other: &VectorClock) -> bool {
        self.components.iter().enumerate().all(|(index, &component)| {
            component <= other.components.get(index).copied().unwrap_or(0)
        })
    }

    /// Full comparison under the pointwise partial order.
    pub fn compare(&self, other: &VectorClock) -> ClockOrdering {
        let le = self.le(other);
        let ge = other.le(self);
        match (le, ge) {
            (true, true) => ClockOrdering::Equal,
            (true, false) => ClockOrdering::Less,
            (false, true) => ClockOrdering::Greater,
            (false, false) => ClockOrdering::Concurrent,
        }
    }

    /// Returns true when the two times are incomparable (concurrent).
    pub fn concurrent_with(&self, other: &VectorClock) -> bool {
        self.compare(other) == ClockOrdering::Concurrent
    }

    /// Resets every component to zero, keeping the allocation.
    pub fn clear(&mut self) {
        for component in &mut self.components {
            *component = 0;
        }
    }

    /// Copies the contents of `other` into `self`, reusing the allocation.
    pub fn copy_from(&mut self, other: &VectorClock) {
        self.components.clear();
        self.components.extend_from_slice(&other.components);
    }

    /// Iterates over `(thread, component)` pairs with non-zero components.
    pub fn iter(&self) -> impl Iterator<Item = (ThreadId, u64)> + '_ {
        self.components
            .iter()
            .enumerate()
            .filter(|(_, &component)| component != 0)
            .map(|(index, &component)| (ThreadId::new(index as u32), component))
    }

    /// Returns the dense component slice (index `i` is thread `i`).
    pub fn as_slice(&self) -> &[u64] {
        &self.components
    }
}

/// Joins `clocks[src]` into `clocks[dst]` without cloning — how a per-thread
/// clock table applies a fork or join edge.  A no-op when the indices
/// coincide, which only malformed self-fork/join traces produce.
pub fn join_at(clocks: &mut [VectorClock], dst: usize, src: usize) {
    if dst == src {
        return;
    }
    let (low, high) = clocks.split_at_mut(dst.max(src));
    if dst < src {
        low[dst].join(&high[0]);
    } else {
        high[0].join(&low[src]);
    }
}

impl PartialOrd for VectorClock {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        match self.compare(other) {
            ClockOrdering::Equal => Some(Ordering::Equal),
            ClockOrdering::Less => Some(Ordering::Less),
            ClockOrdering::Greater => Some(Ordering::Greater),
            ClockOrdering::Concurrent => None,
        }
    }
}

impl FromIterator<u64> for VectorClock {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        VectorClock::from_components(iter)
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (index, component) in self.components.iter().enumerate() {
            if index > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{component}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(index: u32) -> ThreadId {
        ThreadId::new(index)
    }

    #[test]
    fn bottom_is_all_zero() {
        let clock = VectorClock::bottom();
        assert!(clock.is_bottom());
        assert_eq!(clock.get(t(0)), 0);
        assert_eq!(clock.get(t(99)), 0);
    }

    #[test]
    fn set_and_get_roundtrip() {
        let mut clock = VectorClock::bottom();
        clock.set(t(4), 17);
        assert_eq!(clock.get(t(4)), 17);
        assert_eq!(clock.get(t(3)), 0);
        assert!(!clock.is_bottom());
    }

    #[test]
    fn set_zero_on_missing_component_is_noop() {
        let mut clock = VectorClock::bottom();
        clock.set(t(5), 0);
        assert!(clock.is_empty());
    }

    #[test]
    fn tick_increments() {
        let mut clock = VectorClock::bottom();
        assert_eq!(clock.tick(t(1)), 1);
        assert_eq!(clock.tick(t(1)), 2);
        assert_eq!(clock.get(t(1)), 2);
    }

    #[test]
    fn join_takes_pointwise_max() {
        let a = VectorClock::from_components([3, 0, 5]);
        let b = VectorClock::from_components([1, 7]);
        let joined = a.joined(&b);
        assert_eq!(joined.as_slice(), &[3, 7, 5]);
    }

    #[test]
    fn join_extends_shorter_clock() {
        let mut a = VectorClock::from_components([1]);
        let b = VectorClock::from_components([0, 0, 9]);
        a.join(&b);
        assert_eq!(a.get(t(2)), 9);
        assert_eq!(a.get(t(0)), 1);
    }

    #[test]
    fn le_handles_different_lengths() {
        let short = VectorClock::from_components([1, 2]);
        let long = VectorClock::from_components([1, 2, 0, 0]);
        assert!(short.le(&long));
        assert!(long.le(&short));
        assert_eq!(short.compare(&long), ClockOrdering::Equal);
    }

    #[test]
    fn compare_detects_concurrency() {
        let a = VectorClock::from_components([2, 0]);
        let b = VectorClock::from_components([0, 2]);
        assert_eq!(a.compare(&b), ClockOrdering::Concurrent);
        assert!(a.concurrent_with(&b));
        assert!(a.partial_cmp(&b).is_none());
    }

    #[test]
    fn compare_detects_strict_order() {
        let a = VectorClock::from_components([1, 1]);
        let b = VectorClock::from_components([2, 1]);
        assert_eq!(a.compare(&b), ClockOrdering::Less);
        assert_eq!(b.compare(&a), ClockOrdering::Greater);
        assert_eq!(a.partial_cmp(&b), Some(Ordering::Less));
    }

    #[test]
    fn singleton_sets_one_component() {
        let clock = VectorClock::singleton(t(3), 11);
        assert_eq!(clock.get(t(3)), 11);
        assert_eq!(clock.iter().count(), 1);
    }

    #[test]
    fn clear_and_copy_from_reuse_allocation() {
        let mut clock = VectorClock::from_components([4, 5, 6]);
        clock.clear();
        assert!(clock.is_bottom());
        let other = VectorClock::from_components([7, 8]);
        clock.copy_from(&other);
        assert_eq!(clock.get(t(0)), 7);
        assert_eq!(clock.get(t(1)), 8);
        assert_eq!(clock.get(t(2)), 0);
    }

    #[test]
    fn display_formats_components() {
        let clock = VectorClock::from_components([1, 0, 3]);
        assert_eq!(clock.to_string(), "[1, 0, 3]");
        assert_eq!(VectorClock::bottom().to_string(), "[]");
    }

    #[test]
    fn join_is_idempotent_commutative_associative() {
        let a = VectorClock::from_components([1, 4, 0, 2]);
        let b = VectorClock::from_components([3, 1]);
        let c = VectorClock::from_components([0, 0, 7]);
        assert_eq!(a.joined(&a), a);
        assert_eq!(a.joined(&b), b.joined(&a));
        assert_eq!(a.joined(&b).joined(&c), a.joined(&b.joined(&c)));
    }

    #[test]
    fn join_is_least_upper_bound() {
        let a = VectorClock::from_components([1, 4]);
        let b = VectorClock::from_components([3, 1]);
        let joined = a.joined(&b);
        assert!(a.le(&joined));
        assert!(b.le(&joined));
        // Any other upper bound dominates the join.
        let upper = VectorClock::from_components([5, 5]);
        assert!(joined.le(&upper));
    }
}
