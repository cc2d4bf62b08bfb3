//! Compact thread identifiers.

use std::fmt;

/// A dense, zero-based thread identifier.
///
/// Vector clocks are indexed by `ThreadId`, so identifiers are expected to be
/// small consecutive integers (the trace layer is responsible for interning
/// arbitrary thread names into dense ids).
///
/// # Examples
///
/// ```
/// use rapid_vc::ThreadId;
///
/// let t = ThreadId::new(3);
/// assert_eq!(t.index(), 3);
/// assert_eq!(t.to_string(), "T3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(u32);

impl ThreadId {
    /// Creates a thread id from a dense index.
    pub const fn new(index: u32) -> Self {
        ThreadId(index)
    }

    /// Returns the dense index backing this id.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl From<u32> for ThreadId {
    fn from(value: u32) -> Self {
        ThreadId(value)
    }
}

impl From<ThreadId> for u32 {
    fn from(value: ThreadId) -> Self {
        value.0
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = ThreadId::new(7);
        assert_eq!(t.index(), 7);
        assert_eq!(t.raw(), 7);
        assert_eq!(u32::from(t), 7);
        assert_eq!(ThreadId::from(7u32), t);
    }

    #[test]
    fn ordering_follows_index() {
        assert!(ThreadId::new(1) < ThreadId::new(2));
        assert_eq!(ThreadId::new(4), ThreadId::new(4));
    }

    #[test]
    fn display_is_prefixed() {
        assert_eq!(ThreadId::new(0).to_string(), "T0");
        assert_eq!(format!("{}", ThreadId::new(12)), "T12");
    }
}
