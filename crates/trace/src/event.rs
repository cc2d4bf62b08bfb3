//! Events: the atoms of a trace.

use std::fmt;

use rapid_vc::ThreadId;

use crate::ids::{Location, LockId, VarId};

/// The position of an event within its trace (0-based, in trace order `<tr`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u32);

impl EventId {
    /// Creates an event id from a 0-based trace index.
    pub const fn new(index: u32) -> Self {
        EventId(index)
    }

    /// Returns the 0-based trace index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` index.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl From<u32> for EventId {
    fn from(value: u32) -> Self {
        EventId(value)
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// The operation an event performs.
///
/// The paper's trace alphabet (§2.1) consists of lock acquires/releases and
/// variable reads/writes; fork/join events are additionally recorded by the
/// RVPredict logger RAPID consumes (§4) and are modelled here as well.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// `acq(l)`: the thread acquires lock `l`.
    Acquire(LockId),
    /// `rel(l)`: the thread releases lock `l`.
    Release(LockId),
    /// `r(x)`: the thread reads variable `x`.
    Read(VarId),
    /// `w(x)`: the thread writes variable `x`.
    Write(VarId),
    /// `fork(u)`: the thread spawns thread `u`.
    Fork(ThreadId),
    /// `join(u)`: the thread joins on thread `u`.
    Join(ThreadId),
}

impl EventKind {
    /// Returns the lock operated on, if this is an acquire or release.
    pub fn lock(self) -> Option<LockId> {
        match self {
            EventKind::Acquire(lock) | EventKind::Release(lock) => Some(lock),
            _ => None,
        }
    }

    /// Returns the variable accessed, if this is a read or write.
    pub fn variable(self) -> Option<VarId> {
        match self {
            EventKind::Read(var) | EventKind::Write(var) => Some(var),
            _ => None,
        }
    }

    /// Returns the target thread, if this is a fork or join.
    pub fn target_thread(self) -> Option<ThreadId> {
        match self {
            EventKind::Fork(thread) | EventKind::Join(thread) => Some(thread),
            _ => None,
        }
    }

    /// Returns true for `acq(l)` events.
    pub fn is_acquire(self) -> bool {
        matches!(self, EventKind::Acquire(_))
    }

    /// Returns true for `rel(l)` events.
    pub fn is_release(self) -> bool {
        matches!(self, EventKind::Release(_))
    }

    /// Returns true for `r(x)` events.
    pub fn is_read(self) -> bool {
        matches!(self, EventKind::Read(_))
    }

    /// Returns true for `w(x)` events.
    pub fn is_write(self) -> bool {
        matches!(self, EventKind::Write(_))
    }

    /// Returns true for read or write events.
    pub fn is_access(self) -> bool {
        self.is_read() || self.is_write()
    }

    /// Returns true for fork or join events.
    pub fn is_thread_op(self) -> bool {
        matches!(self, EventKind::Fork(_) | EventKind::Join(_))
    }

    /// Returns a short mnemonic (`acq`, `rel`, `r`, `w`, `fork`, `join`).
    pub fn mnemonic(self) -> &'static str {
        match self {
            EventKind::Acquire(_) => "acq",
            EventKind::Release(_) => "rel",
            EventKind::Read(_) => "r",
            EventKind::Write(_) => "w",
            EventKind::Fork(_) => "fork",
            EventKind::Join(_) => "join",
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventKind::Acquire(lock) => write!(f, "acq({lock})"),
            EventKind::Release(lock) => write!(f, "rel({lock})"),
            EventKind::Read(var) => write!(f, "r({var})"),
            EventKind::Write(var) => write!(f, "w({var})"),
            EventKind::Fork(thread) => write!(f, "fork({thread})"),
            EventKind::Join(thread) => write!(f, "join({thread})"),
        }
    }
}

/// One event of a trace: an operation performed by a thread at a location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Event {
    id: EventId,
    thread: ThreadId,
    kind: EventKind,
    location: Location,
}

impl Event {
    /// Creates an event.  Normally events are created through
    /// [`TraceBuilder`](crate::TraceBuilder) which assigns ids densely.
    pub fn new(id: EventId, thread: ThreadId, kind: EventKind, location: Location) -> Self {
        Event { id, thread, kind, location }
    }

    /// The event's position in trace order.
    pub fn id(&self) -> EventId {
        self.id
    }

    /// The thread `t(e)` performing the event.
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// The operation performed.
    pub fn kind(&self) -> EventKind {
        self.kind
    }

    /// The program location the event was emitted from.
    pub fn location(&self) -> Location {
        self.location
    }

    /// Returns true when `self` and `other` are *conflicting*: they access
    /// the same variable, at least one is a write, and the threads differ
    /// (the paper's `e1 ≍ e2`).
    pub fn conflicts_with(&self, other: &Event) -> bool {
        if self.thread == other.thread {
            return false;
        }
        match (self.kind.variable(), other.kind.variable()) {
            (Some(a), Some(b)) if a == b => self.kind.is_write() || other.kind.is_write(),
            _ => false,
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{} {}", self.id, self.thread, self.kind)?;
        if !self.location.is_unknown() {
            write!(f, " @{}", self.location)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(id: u32, thread: u32, kind: EventKind) -> Event {
        Event::new(EventId::new(id), ThreadId::new(thread), kind, Location::new(id))
    }

    #[test]
    fn kind_accessors() {
        let acq = EventKind::Acquire(LockId::new(1));
        assert!(acq.is_acquire() && !acq.is_release());
        assert_eq!(acq.lock(), Some(LockId::new(1)));
        assert_eq!(acq.variable(), None);

        let read = EventKind::Read(VarId::new(2));
        assert!(read.is_read() && read.is_access() && !read.is_write());
        assert_eq!(read.variable(), Some(VarId::new(2)));

        let fork = EventKind::Fork(ThreadId::new(3));
        assert!(fork.is_thread_op());
        assert_eq!(fork.target_thread(), Some(ThreadId::new(3)));
    }

    #[test]
    fn kind_display() {
        assert_eq!(EventKind::Acquire(LockId::new(0)).to_string(), "acq(L0)");
        assert_eq!(EventKind::Write(VarId::new(7)).to_string(), "w(x7)");
        assert_eq!(EventKind::Join(ThreadId::new(2)).to_string(), "join(T2)");
    }

    #[test]
    fn conflict_requires_same_variable_different_threads_one_write() {
        let w1 = event(0, 0, EventKind::Write(VarId::new(0)));
        let r2 = event(1, 1, EventKind::Read(VarId::new(0)));
        let r3 = event(2, 2, EventKind::Read(VarId::new(0)));
        let w_same_thread = event(3, 0, EventKind::Write(VarId::new(0)));
        let w_other_var = event(4, 1, EventKind::Write(VarId::new(9)));
        let acq = event(5, 1, EventKind::Acquire(LockId::new(0)));

        assert!(w1.conflicts_with(&r2));
        assert!(r2.conflicts_with(&w1));
        assert!(!r2.conflicts_with(&r3), "two reads never conflict");
        assert!(!w1.conflicts_with(&w_same_thread), "same thread never conflicts");
        assert!(!w1.conflicts_with(&w_other_var), "different variables never conflict");
        assert!(!w1.conflicts_with(&acq), "lock events never conflict");
    }

    #[test]
    fn event_display_includes_location() {
        let e = event(3, 1, EventKind::Read(VarId::new(0)));
        assert_eq!(e.to_string(), "e3:T1 r(x0) @pc3");
        let unknown = Event::new(
            EventId::new(0),
            ThreadId::new(0),
            EventKind::Write(VarId::new(1)),
            Location::UNKNOWN,
        );
        assert_eq!(unknown.to_string(), "e0:T0 w(x1)");
    }

    #[test]
    fn mnemonics() {
        assert_eq!(EventKind::Acquire(LockId::new(0)).mnemonic(), "acq");
        assert_eq!(EventKind::Release(LockId::new(0)).mnemonic(), "rel");
        assert_eq!(EventKind::Read(VarId::new(0)).mnemonic(), "r");
        assert_eq!(EventKind::Write(VarId::new(0)).mnemonic(), "w");
        assert_eq!(EventKind::Fork(ThreadId::new(0)).mnemonic(), "fork");
        assert_eq!(EventKind::Join(ThreadId::new(0)).mnemonic(), "join");
    }
}
