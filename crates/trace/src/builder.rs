//! Incremental construction of traces with name interning.

use std::collections::HashMap;

use rapid_vc::ThreadId;

use crate::event::{Event, EventId, EventKind};
use crate::ids::{Location, LockId, VarId};
use crate::trace::Trace;

/// Builds a [`Trace`] event by event, interning thread/lock/variable names.
///
/// The builder is non-consuming: every appender returns the [`EventId`] of
/// the event just added so call sites (tests, generators) can refer back to
/// specific events.
///
/// # Examples
///
/// ```
/// use rapid_trace::TraceBuilder;
///
/// let mut b = TraceBuilder::new();
/// let t1 = b.thread("t1");
/// let l = b.lock("l");
/// let x = b.variable("x");
/// let acq = b.acquire(t1, l);
/// let write = b.write(t1, x);
/// b.release(t1, l);
/// let trace = b.finish();
/// assert_eq!(acq.index(), 0);
/// assert_eq!(trace.event(write).kind().variable(), Some(x));
/// ```
#[derive(Debug, Default, Clone)]
pub struct TraceBuilder {
    events: Vec<Event>,
    threads: Interner,
    locks: Interner,
    variables: Interner,
    locations: Interner,
    next_location: Option<Location>,
}

/// String-to-dense-id interner shared by [`TraceBuilder`] and the streaming
/// trace readers in [`format`](crate::format).
///
/// Ids are dense and assigned in order of first appearance.  The map is
/// keyed by the name's bytes and keeps std's SipHash `RandomState`, because
/// names come from outside the program and must not be able to force
/// collisions.  [`intern_bytes`](Interner::intern_bytes), the text readers'
/// entry point, first checks a small direct-mapped memo of recently seen
/// ids; a trace names few threads, locks and locations, so most lookups end
/// there.  A memo slot is only a guess: it counts after its name compares
/// equal byte for byte, so colliding names fall through to the map and never
/// share an id.
#[derive(Debug, Default, Clone)]
pub(crate) struct Interner {
    names: Vec<String>,
    by_name: HashMap<Box<[u8]>, u32>,
    /// `MEMO_SLOTS` recent ids indexed by [`memo_slot`]; empty until the
    /// first `intern_bytes`, so the `.rwf` reader's tables never carry it.
    recent: Vec<u32>,
}

/// Slots of [`Interner`]'s recent-id memo: a power of two.
const MEMO_SLOTS: usize = 1024;

/// The memo slot of `name`: a multiply-rotate hash over its 8-byte words.
/// Names come from outside the program, so this is no defence against
/// crafted collisions; it need not be one, since a slot is only a guess
/// that [`Interner::intern_bytes`] verifies.
fn memo_slot(name: &[u8]) -> usize {
    const MULTIPLIER: u64 = 0x517c_c1b7_2722_0a95;
    let mix = |hash: u64, word: u64| (hash.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    let mut words = name.chunks_exact(8);
    let mut hash = name.len() as u64;
    for word in &mut words {
        hash = mix(hash, u64::from_le_bytes(word.try_into().expect("chunks_exact yields 8 bytes")));
    }
    let mut tail = [0; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    hash = mix(hash, u64::from_le_bytes(tail));
    (hash >> (64 - MEMO_SLOTS.trailing_zeros())) as usize
}

impl Interner {
    pub(crate) fn intern(&mut self, name: &str) -> u32 {
        match self.by_name.get(name.as_bytes()) {
            Some(&id) => id,
            None => self.insert(name),
        }
    }

    /// Interns a name given as raw bytes (the byte-level text parser's entry
    /// point).  UTF-8 is checked only when a name is first seen.  Invalid
    /// bytes are replaced (U+FFFD) rather than rejected, so a stray byte in
    /// one name cannot abort ingestion of a multi-gigabyte trace; the id is
    /// that of the replaced form, shared with every name that replaces to it.
    pub(crate) fn intern_bytes(&mut self, name: &[u8]) -> u32 {
        if self.recent.is_empty() {
            self.recent = vec![0; MEMO_SLOTS];
        }
        let slot = memo_slot(name);
        let guess = self.recent[slot];
        if self.names.get(guess as usize).is_some_and(|known| known.as_bytes() == name) {
            return guess;
        }
        let id = match self.by_name.get(name) {
            Some(&id) => id,
            None => match std::str::from_utf8(name) {
                Ok(name) => self.insert(name),
                // Never memoized: the stored name is not these bytes.
                Err(_) => return self.intern(&String::from_utf8_lossy(name)),
            },
        };
        self.recent[slot] = id;
        id
    }

    /// Appends `name` under the next id, even when it is interned already:
    /// the `.rwf` reader's tables are positional.
    pub(crate) fn insert(&mut self, name: &str) -> u32 {
        let id = self.names.len() as u32;
        self.names.push(name.to_owned());
        self.by_name.insert(name.as_bytes().into(), id);
        id
    }

    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }

    pub(crate) fn name(&self, id: u32) -> Option<&str> {
        self.names.get(id as usize).map(String::as_str)
    }

    pub(crate) fn into_names(self) -> Vec<String> {
        self.names
    }
}

impl TraceBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        TraceBuilder::default()
    }

    /// Interns a thread name, returning its dense id.
    pub fn thread(&mut self, name: &str) -> ThreadId {
        ThreadId::new(self.threads.intern(name))
    }

    /// Interns a lock name, returning its dense id.
    pub fn lock(&mut self, name: &str) -> LockId {
        LockId::new(self.locks.intern(name))
    }

    /// Interns a variable name, returning its dense id.
    pub fn variable(&mut self, name: &str) -> VarId {
        VarId::new(self.variables.intern(name))
    }

    /// Interns a program-location name, returning its dense id.
    pub fn location(&mut self, name: &str) -> Location {
        Location::new(self.locations.intern(name))
    }

    /// Interns `count` threads named `t0..t{count-1}` and returns their ids.
    pub fn threads(&mut self, count: usize) -> Vec<ThreadId> {
        (0..count).map(|i| self.thread(&format!("t{i}"))).collect()
    }

    /// Interns `count` locks named `l0..l{count-1}` and returns their ids.
    pub fn locks(&mut self, count: usize) -> Vec<LockId> {
        (0..count).map(|i| self.lock(&format!("l{i}"))).collect()
    }

    /// Interns `count` variables named `x0..x{count-1}` and returns their ids.
    pub fn variables(&mut self, count: usize) -> Vec<VarId> {
        (0..count).map(|i| self.variable(&format!("x{i}"))).collect()
    }

    /// Sets the program location attached to the *next* appended event.
    ///
    /// If never called, events default to a location derived from their
    /// trace index (`line{N}`), so that every event has a distinct location
    /// and race *pairs of locations* are meaningful even for generated
    /// traces.
    pub fn at(&mut self, location: &str) -> &mut Self {
        let loc = self.location(location);
        self.next_location = Some(loc);
        self
    }

    /// Number of events appended so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns true when no event has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    fn push(&mut self, thread: ThreadId, kind: EventKind) -> EventId {
        let id = EventId::new(self.events.len() as u32);
        let location = match self.next_location.take() {
            Some(location) => location,
            None => {
                let name = format!("line{}", self.events.len() + 1);
                self.location(&name)
            }
        };
        self.events.push(Event::new(id, thread, kind, location));
        id
    }

    /// Appends `acq(lock)` by `thread`.
    pub fn acquire(&mut self, thread: ThreadId, lock: LockId) -> EventId {
        self.push(thread, EventKind::Acquire(lock))
    }

    /// Appends `rel(lock)` by `thread`.
    pub fn release(&mut self, thread: ThreadId, lock: LockId) -> EventId {
        self.push(thread, EventKind::Release(lock))
    }

    /// Appends `r(var)` by `thread`.
    pub fn read(&mut self, thread: ThreadId, var: VarId) -> EventId {
        self.push(thread, EventKind::Read(var))
    }

    /// Appends `w(var)` by `thread`.
    pub fn write(&mut self, thread: ThreadId, var: VarId) -> EventId {
        self.push(thread, EventKind::Write(var))
    }

    /// Appends `fork(child)` by `parent`.
    pub fn fork(&mut self, parent: ThreadId, child: ThreadId) -> EventId {
        self.push(parent, EventKind::Fork(child))
    }

    /// Appends `join(child)` by `parent`.
    pub fn join(&mut self, parent: ThreadId, child: ThreadId) -> EventId {
        self.push(parent, EventKind::Join(child))
    }

    /// Appends a whole critical section `acq(lock) … rel(lock)` around the
    /// events produced by `body`, returning the ids of the acquire and
    /// release events.
    pub fn critical_section<F>(
        &mut self,
        thread: ThreadId,
        lock: LockId,
        body: F,
    ) -> (EventId, EventId)
    where
        F: FnOnce(&mut Self),
    {
        let acquire = self.acquire(thread, lock);
        body(self);
        let release = self.release(thread, lock);
        (acquire, release)
    }

    /// Appends the paper's `acrl(lock)` shorthand: `acq(lock) rel(lock)`.
    pub fn acrl(&mut self, thread: ThreadId, lock: LockId) -> (EventId, EventId) {
        let acquire = self.acquire(thread, lock);
        let release = self.release(thread, lock);
        (acquire, release)
    }

    /// Appends the paper's `sync(lock)` shorthand used in Figures 3–5:
    /// `acq(lock) r(lockVar) w(lockVar) rel(lock)` where `lockVar` is the
    /// variable uniquely associated with the lock.
    pub fn sync(&mut self, thread: ThreadId, lock: LockId) -> (EventId, EventId) {
        let var_name = format!("__syncvar_{}", lock.raw());
        let var = self.variable(&var_name);
        let acquire = self.acquire(thread, lock);
        self.read(thread, var);
        self.write(thread, var);
        let release = self.release(thread, lock);
        (acquire, release)
    }

    /// Finalizes the builder into an immutable [`Trace`].
    pub fn finish(self) -> Trace {
        Trace::from_parts(
            self.events,
            self.threads.names,
            self.locks.names,
            self.variables.names,
            self.locations.names,
        )
    }

    /// Number of interned threads so far.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// Number of interned locks so far.
    pub fn num_locks(&self) -> usize {
        self.locks.len()
    }

    /// Number of interned variables so far.
    pub fn num_variables(&self) -> usize {
        self.variables.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut b = TraceBuilder::new();
        let t1 = b.thread("t1");
        let again = b.thread("t1");
        let t2 = b.thread("t2");
        assert_eq!(t1, again);
        assert_ne!(t1, t2);
        assert_eq!(b.num_threads(), 2);
    }

    #[test]
    fn memo_collisions_never_alias_two_names() {
        // 5,000 names over 1,024 memo slots: most slots hold several, and a
        // slot's guess must never hand one name another's id.
        let names: Vec<String> = (0..5000).map(|i| format!("Name{i}.java:{}", i * 31)).collect();
        let mut interner = Interner::default();
        for (id, name) in names.iter().enumerate() {
            assert_eq!(interner.intern_bytes(name.as_bytes()), id as u32);
        }
        // Revisit them shuffled (7,919 is prime, so this stride visits every
        // index once), through both entry points.
        for step in 0..names.len() {
            let id = step * 7919 % names.len();
            assert_eq!(interner.intern_bytes(names[id].as_bytes()), id as u32, "{}", names[id]);
            assert_eq!(interner.intern(&names[id]), id as u32, "{}", names[id]);
        }
        assert_eq!(interner.len(), names.len());
    }

    #[test]
    fn invalid_utf8_names_share_the_id_of_their_replaced_form() {
        let mut interner = Interner::default();
        let replaced = interner.intern_bytes(b"x\xFF");
        assert_eq!(interner.name(replaced), Some("x\u{FFFD}"));
        assert_eq!(interner.intern_bytes(b"x\xFE"), replaced);
        assert_eq!(interner.intern_bytes(b"x\xFF"), replaced);
        assert_eq!(interner.intern_bytes("x\u{FFFD}".as_bytes()), replaced);
        assert_eq!(interner.intern("x\u{FFFD}"), replaced);
        assert_eq!(interner.intern_bytes(b"x"), replaced + 1);
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn bulk_interning_helpers() {
        let mut b = TraceBuilder::new();
        let threads = b.threads(3);
        let locks = b.locks(2);
        let vars = b.variables(4);
        assert_eq!(threads.len(), 3);
        assert_eq!(locks.len(), 2);
        assert_eq!(vars.len(), 4);
        assert_eq!(b.num_threads(), 3);
        assert_eq!(b.num_locks(), 2);
        assert_eq!(b.num_variables(), 4);
        // Re-interning by the generated names returns the same ids.
        assert_eq!(b.thread("t1"), threads[1]);
    }

    #[test]
    fn event_ids_are_dense_and_ordered() {
        let mut b = TraceBuilder::new();
        let t = b.thread("t");
        let x = b.variable("x");
        let first = b.read(t, x);
        let second = b.write(t, x);
        assert_eq!(first.index(), 0);
        assert_eq!(second.index(), 1);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn default_locations_are_distinct() {
        let mut b = TraceBuilder::new();
        let t = b.thread("t");
        let x = b.variable("x");
        b.read(t, x);
        b.write(t, x);
        let trace = b.finish();
        assert_ne!(trace[0].location(), trace[1].location());
        assert_eq!(trace.location_name(trace[0].location()), Some("line1"));
    }

    #[test]
    fn explicit_location_applies_to_next_event_only() {
        let mut b = TraceBuilder::new();
        let t = b.thread("t");
        let x = b.variable("x");
        b.at("Foo.java:10");
        b.read(t, x);
        b.write(t, x);
        let trace = b.finish();
        assert_eq!(trace.location_name(trace[0].location()), Some("Foo.java:10"));
        assert_eq!(trace.location_name(trace[1].location()), Some("line2"));
    }

    #[test]
    fn critical_section_wraps_body() {
        let mut b = TraceBuilder::new();
        let t = b.thread("t");
        let l = b.lock("l");
        let x = b.variable("x");
        let (acq, rel) = b.critical_section(t, l, |b| {
            b.write(t, x);
        });
        let trace = b.finish();
        assert_eq!(trace.event(acq).kind(), EventKind::Acquire(l));
        assert_eq!(trace.event(rel).kind(), EventKind::Release(l));
        assert_eq!(trace.len(), 3);
        assert!(trace[1].kind().is_write());
    }

    #[test]
    fn sync_emits_four_events_on_dedicated_variable() {
        let mut b = TraceBuilder::new();
        let t = b.thread("t");
        let sync_lock = b.lock("x_sync");
        b.sync(t, sync_lock);
        let trace = b.finish();
        assert_eq!(trace.len(), 4);
        assert!(trace[0].kind().is_acquire());
        assert!(trace[1].kind().is_read());
        assert!(trace[2].kind().is_write());
        assert!(trace[3].kind().is_release());
        assert_eq!(trace[1].kind().variable(), trace[2].kind().variable());
    }

    #[test]
    fn acrl_emits_acquire_release_pair() {
        let mut b = TraceBuilder::new();
        let t = b.thread("t");
        let l = b.lock("y");
        let (acq, rel) = b.acrl(t, l);
        assert_eq!(acq.index() + 1, rel.index());
        let trace = b.finish();
        assert!(trace.validate().is_ok());
    }

    #[test]
    fn fork_join_events() {
        let mut b = TraceBuilder::new();
        let parent = b.thread("main");
        let child = b.thread("worker");
        let x = b.variable("x");
        b.fork(parent, child);
        b.write(child, x);
        b.join(parent, child);
        let trace = b.finish();
        assert_eq!(trace[0].kind(), EventKind::Fork(child));
        assert_eq!(trace[2].kind(), EventKind::Join(child));
        assert!(trace.validate().is_ok());
    }
}
