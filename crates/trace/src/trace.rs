//! The [`Trace`] container.

use std::fmt;
use std::ops::Index;

use rapid_vc::ThreadId;

use crate::event::{Event, EventId};
use crate::ids::{Location, LockId, VarId};
use crate::stats::TraceStats;
use crate::validate::{self, TraceError};

/// A sequence of events together with the names interned while building it.
///
/// A `Trace` is ordered by the paper's `<tr` (trace order): event `i` was
/// performed before event `j` iff `i < j`.  Use [`TraceBuilder`](crate::TraceBuilder)
/// to construct traces and [`Trace::validate`] to check lock semantics and
/// well-nestedness.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    pub(crate) events: Vec<Event>,
    pub(crate) thread_names: Vec<String>,
    pub(crate) lock_names: Vec<String>,
    pub(crate) var_names: Vec<String>,
    pub(crate) location_names: Vec<String>,
}

impl Trace {
    /// Creates an empty trace with no interned names.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Number of events in the trace.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns true when the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events in trace order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Iterates over the events in trace order.
    pub fn iter(&self) -> std::slice::Iter<'_, Event> {
        self.events.iter()
    }

    /// Returns the event with the given id, if it exists.
    pub fn get(&self, id: EventId) -> Option<&Event> {
        self.events.get(id.index())
    }

    /// Returns the event with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn event(&self, id: EventId) -> &Event {
        &self.events[id.index()]
    }

    /// Number of distinct threads appearing in the trace.
    pub fn num_threads(&self) -> usize {
        self.thread_names.len()
    }

    /// Number of distinct locks appearing in the trace.
    pub fn num_locks(&self) -> usize {
        self.lock_names.len()
    }

    /// Number of distinct variables appearing in the trace.
    pub fn num_variables(&self) -> usize {
        self.var_names.len()
    }

    /// Number of distinct program locations appearing in the trace.
    pub fn num_locations(&self) -> usize {
        self.location_names.len()
    }

    /// Looks up a thread's name, if it was given one.
    pub fn thread_name(&self, thread: ThreadId) -> Option<&str> {
        self.thread_names.get(thread.index()).map(String::as_str)
    }

    /// Looks up a lock's name, if it was given one.
    pub fn lock_name(&self, lock: LockId) -> Option<&str> {
        self.lock_names.get(lock.index()).map(String::as_str)
    }

    /// Looks up a variable's name, if it was given one.
    pub fn variable_name(&self, var: VarId) -> Option<&str> {
        self.var_names.get(var.index()).map(String::as_str)
    }

    /// Looks up a location's name, if it was given one.
    pub fn location_name(&self, location: Location) -> Option<&str> {
        if location.is_unknown() {
            return None;
        }
        self.location_names.get(location.index()).map(String::as_str)
    }

    /// The projection `σ|t`: ids of the events performed by `thread`, in
    /// trace order.
    pub fn projection(&self, thread: ThreadId) -> Vec<EventId> {
        self.events.iter().filter(|event| event.thread() == thread).map(Event::id).collect()
    }

    /// All thread ids that perform at least one event, in id order.
    pub fn active_threads(&self) -> Vec<ThreadId> {
        let mut seen = vec![false; self.num_threads().max(1)];
        for event in &self.events {
            let index = event.thread().index();
            if index >= seen.len() {
                seen.resize(index + 1, false);
            }
            seen[index] = true;
        }
        seen.iter()
            .enumerate()
            .filter(|(_, &active)| active)
            .map(|(index, _)| ThreadId::new(index as u32))
            .collect()
    }

    /// Checks lock semantics, well-nestedness and fork/join sanity.
    ///
    /// # Errors
    ///
    /// Returns the first [`TraceError`] encountered in trace order.
    pub fn validate(&self) -> Result<(), TraceError> {
        validate::validate(self)
    }

    /// Computes summary statistics about the trace.
    pub fn stats(&self) -> TraceStats {
        TraceStats::of(self)
    }

    /// Returns the sub-trace consisting of events `[start, end)`, reusing the
    /// interned names.  Event ids are preserved (they keep referring to
    /// positions in the *original* trace); used by windowed detectors.
    pub fn window(&self, start: usize, end: usize) -> Vec<Event> {
        let end = end.min(self.events.len());
        let start = start.min(end);
        self.events[start..end].to_vec()
    }

    /// Extracts the events `[start, end)` into a standalone [`Trace`] with
    /// fresh, dense event ids, returning it together with the mapping from
    /// new event ids back to the original ones.
    ///
    /// Windowed analyses (the CP baseline and the RVPredict-style MCM
    /// search) analyze such sub-traces independently.  Release events whose
    /// matching acquire lies before the window are dropped so that the
    /// sub-trace satisfies lock semantics on its own (acquires without a
    /// matching release are legal and kept).
    pub fn subtrace(&self, start: usize, end: usize) -> (Trace, Vec<EventId>) {
        let end = end.min(self.events.len());
        let start = start.min(end);
        let mut events = Vec::new();
        let mut mapping = Vec::new();
        // Locks acquired inside the window, per thread, to identify releases
        // whose acquire lies before the window.
        let mut acquired: std::collections::HashMap<(ThreadId, LockId), usize> =
            std::collections::HashMap::new();
        for original in &self.events[start..end] {
            match original.kind() {
                crate::event::EventKind::Acquire(lock) => {
                    *acquired.entry((original.thread(), lock)).or_insert(0) += 1;
                }
                crate::event::EventKind::Release(lock) => {
                    let counter = acquired.entry((original.thread(), lock)).or_insert(0);
                    if *counter == 0 {
                        continue; // matching acquire is outside the window
                    }
                    *counter -= 1;
                }
                _ => {}
            }
            let new_id = EventId::new(events.len() as u32);
            events.push(Event::new(
                new_id,
                original.thread(),
                original.kind(),
                original.location(),
            ));
            mapping.push(original.id());
        }
        let trace = Trace::from_parts(
            events,
            self.thread_names.clone(),
            self.lock_names.clone(),
            self.var_names.clone(),
            self.location_names.clone(),
        );
        (trace, mapping)
    }

    /// Like [`Trace::subtrace`], but re-establishes the lock context at the
    /// window boundary: for every thread, the locks it already holds at
    /// `start` (as computed by the caller, e.g. with
    /// [`lockctx::LockContext`](crate::lockctx::LockContext)) are re-acquired
    /// by synthetic events at the beginning of the window, outermost first.
    /// Releases inside the window then match those synthetic acquires, so no
    /// event of the window has to be dropped and accesses that are protected
    /// in the full trace remain protected in the window view.
    ///
    /// The returned mapping has `None` for the synthetic acquire events and
    /// `Some(original_id)` for real window events.
    pub fn windowed_subtrace(
        &self,
        start: usize,
        end: usize,
        held_at_start: &[(ThreadId, Vec<LockId>)],
    ) -> (Trace, Vec<Option<EventId>>) {
        let end = end.min(self.events.len());
        let start = start.min(end);
        let (mut trace, mapping) = Trace::assemble_window(&self.events[start..end], held_at_start);
        trace.thread_names = self.thread_names.clone();
        trace.lock_names = self.lock_names.clone();
        trace.var_names = self.var_names.clone();
        trace.location_names = self.location_names.clone();
        (trace, mapping)
    }

    /// Assembles a standalone window [`Trace`] (fresh dense event ids, no
    /// interned names) from a slice of buffered events, re-establishing the
    /// lock context at the window boundary exactly like
    /// [`Trace::windowed_subtrace`].  This is the streaming counterpart used
    /// by windowed detectors that buffer events instead of holding a full
    /// trace; the returned mapping has `None` for the synthetic boundary
    /// acquires and `Some(original_id)` for real window events.
    pub fn assemble_window(
        window: &[Event],
        held_at_start: &[(ThreadId, Vec<LockId>)],
    ) -> (Trace, Vec<Option<EventId>>) {
        let mut events = Vec::with_capacity(window.len());
        let mut mapping = Vec::with_capacity(window.len());
        for &(thread, ref locks) in held_at_start {
            for &lock in locks {
                let new_id = EventId::new(events.len() as u32);
                events.push(Event::new(
                    new_id,
                    thread,
                    crate::event::EventKind::Acquire(lock),
                    Location::UNKNOWN,
                ));
                mapping.push(None);
            }
        }
        for original in window {
            let new_id = EventId::new(events.len() as u32);
            events.push(Event::new(
                new_id,
                original.thread(),
                original.kind(),
                original.location(),
            ));
            mapping.push(Some(original.id()));
        }
        let trace = Trace::from_parts(events, Vec::new(), Vec::new(), Vec::new(), Vec::new());
        (trace, mapping)
    }

    /// Returns the pairs `(i, j)` with `i < j` of conflicting access events.
    ///
    /// This is quadratic and intended for tests and small reference
    /// computations (the CP closure, reordering witnesses), not for the
    /// streaming detectors.
    pub fn conflicting_pairs(&self) -> Vec<(EventId, EventId)> {
        let mut pairs = Vec::new();
        for (i, first) in self.events.iter().enumerate() {
            if !first.kind().is_access() {
                continue;
            }
            for second in &self.events[i + 1..] {
                if first.conflicts_with(second) {
                    pairs.push((first.id(), second.id()));
                }
            }
        }
        pairs
    }

    /// Internal constructor used by the builder and parsers.
    pub(crate) fn from_parts(
        events: Vec<Event>,
        thread_names: Vec<String>,
        lock_names: Vec<String>,
        var_names: Vec<String>,
        location_names: Vec<String>,
    ) -> Self {
        Trace { events, thread_names, lock_names, var_names, location_names }
    }

    /// Renders a human-readable table of the trace, one column per thread,
    /// mirroring the figures in the paper.
    pub fn to_table(&self) -> String {
        let threads = self.num_threads();
        let width = 12;
        let mut out = String::new();
        out.push_str("     ");
        for t in 0..threads {
            let name = self
                .thread_name(ThreadId::new(t as u32))
                .map(str::to_owned)
                .unwrap_or_else(|| format!("T{t}"));
            out.push_str(&format!("{name:width$}"));
        }
        out.push('\n');
        for (i, event) in self.events.iter().enumerate() {
            out.push_str(&format!("{:>4} ", i + 1));
            for t in 0..threads {
                if event.thread().index() == t {
                    out.push_str(&format!("{:width$}", event.kind().to_string()));
                } else {
                    out.push_str(&" ".repeat(width));
                }
            }
            out.push('\n');
        }
        out
    }
}

impl Index<EventId> for Trace {
    type Output = Event;

    fn index(&self, id: EventId) -> &Event {
        &self.events[id.index()]
    }
}

impl Index<usize> for Trace {
    type Output = Event;

    fn index(&self, index: usize) -> &Event {
        &self.events[index]
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for event in &self.events {
            writeln!(f, "{event}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::TraceBuilder;

    fn small_trace() -> Trace {
        let mut b = TraceBuilder::new();
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        let l = b.lock("l");
        let x = b.variable("x");
        b.acquire(t1, l);
        b.write(t1, x);
        b.release(t1, l);
        b.acquire(t2, l);
        b.read(t2, x);
        b.release(t2, l);
        b.finish()
    }

    #[test]
    fn len_and_indexing() {
        let trace = small_trace();
        assert_eq!(trace.len(), 6);
        assert!(!trace.is_empty());
        assert_eq!(trace[0].kind(), EventKind::Acquire(LockId::new(0)));
        assert_eq!(trace[EventId::new(4)].kind(), EventKind::Read(VarId::new(0)));
        assert_eq!(trace.get(EventId::new(99)), None);
    }

    #[test]
    fn names_are_interned() {
        let trace = small_trace();
        assert_eq!(trace.num_threads(), 2);
        assert_eq!(trace.num_locks(), 1);
        assert_eq!(trace.num_variables(), 1);
        assert_eq!(trace.thread_name(ThreadId::new(0)), Some("t1"));
        assert_eq!(trace.lock_name(LockId::new(0)), Some("l"));
        assert_eq!(trace.variable_name(VarId::new(0)), Some("x"));
        assert_eq!(trace.thread_name(ThreadId::new(9)), None);
    }

    #[test]
    fn projection_filters_by_thread() {
        let trace = small_trace();
        let p1 = trace.projection(ThreadId::new(0));
        let p2 = trace.projection(ThreadId::new(1));
        assert_eq!(p1, vec![EventId::new(0), EventId::new(1), EventId::new(2)]);
        assert_eq!(p2, vec![EventId::new(3), EventId::new(4), EventId::new(5)]);
    }

    #[test]
    fn active_threads_lists_threads_with_events() {
        let trace = small_trace();
        assert_eq!(trace.active_threads(), vec![ThreadId::new(0), ThreadId::new(1)]);
    }

    #[test]
    fn conflicting_pairs_finds_cross_thread_write_read() {
        let trace = small_trace();
        let pairs = trace.conflicting_pairs();
        assert_eq!(pairs, vec![(EventId::new(1), EventId::new(4))]);
    }

    #[test]
    fn subtrace_remaps_ids_and_drops_unmatched_releases() {
        let trace = small_trace();
        // Window [2, 6): starts with t1's rel(l) whose acquire is outside.
        let (sub, mapping) = trace.subtrace(2, 6);
        assert!(sub.validate().is_ok());
        // The unmatched release is dropped; the remaining 3 events are kept.
        assert_eq!(sub.len(), 3);
        assert_eq!(mapping.len(), 3);
        assert_eq!(mapping[0], EventId::new(3));
        assert_eq!(sub[0].id(), EventId::new(0));
        assert_eq!(sub[0].kind(), trace[3].kind());
        // Names are carried over.
        assert_eq!(sub.thread_name(ThreadId::new(1)), Some("t2"));
        // Full-range subtrace is the identity (no unmatched releases).
        let (full, full_map) = trace.subtrace(0, trace.len());
        assert_eq!(full.len(), trace.len());
        assert_eq!(full_map.len(), trace.len());
    }

    #[test]
    fn windowed_subtrace_reestablishes_lock_context() {
        let trace = small_trace();
        // Window [1, 3): t1's w(x) and rel(l); t1 holds l at the boundary.
        let held = vec![(ThreadId::new(0), vec![LockId::new(0)])];
        let (sub, mapping) = trace.windowed_subtrace(1, 3, &held);
        assert!(sub.validate().is_ok());
        assert_eq!(sub.len(), 3, "synthetic acquire + two real events");
        assert!(sub[0].kind().is_acquire());
        assert_eq!(mapping[0], None);
        assert_eq!(mapping[1], Some(EventId::new(1)));
        assert_eq!(sub[2].kind(), trace[2].kind());
        // Without held locks the window would have had to drop the release.
        let (plain, _) = trace.subtrace(1, 3);
        assert_eq!(plain.len(), 1);
    }

    #[test]
    fn window_slices_events() {
        let trace = small_trace();
        let window = trace.window(2, 4);
        assert_eq!(window.len(), 2);
        assert_eq!(window[0].id(), EventId::new(2));
        assert!(trace.window(5, 100).len() == 1);
        assert!(trace.window(10, 2).is_empty());
    }

    #[test]
    fn display_and_table_render() {
        let trace = small_trace();
        let text = trace.to_string();
        assert!(text.contains("acq(L0)"));
        let table = trace.to_table();
        assert!(table.contains("t1"));
        assert!(table.contains("w(x0)"));
    }

    #[test]
    fn iteration_visits_all_events() {
        let trace = small_trace();
        assert_eq!(trace.iter().count(), 6);
        assert_eq!((&trace).into_iter().count(), 6);
    }
}
