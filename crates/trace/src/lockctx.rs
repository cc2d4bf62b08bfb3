//! Online tracking of held locks and per-critical-section access sets.
//!
//! Algorithm 1 parameterizes its `read`/`write` procedures by the set `L` of
//! locks whose critical sections enclose the access, and its `release`
//! procedure by the sets `R`/`W` of variables read/written inside the
//! critical section being closed.  [`LockContext`] derives those parameters
//! online while a detector streams over the trace, so traces do not need to
//! carry them explicitly.

use rapid_vc::ThreadId;

use crate::event::{Event, EventKind};
use crate::ids::{LockId, VarId};

/// Per-thread stack frame: one open critical section.  The access sets are
/// kept as *sorted* vectors — sections touch few distinct variables, so a
/// binary search beats hashing on the per-access hot path and the sets come
/// out already sorted when the section closes.
#[derive(Debug, Clone)]
struct Frame {
    lock: LockId,
    reads: Vec<VarId>,
    writes: Vec<VarId>,
}

/// Inserts `var` into a sorted set-vector if absent.
fn insert_sorted(set: &mut Vec<VarId>, var: VarId) {
    if let Err(position) = set.binary_search(&var) {
        set.insert(position, var);
    }
}

/// The access sets of a just-closed critical section, handed to the caller by
/// [`LockContext::on_event`] when it processes a release.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosedSection {
    /// The lock whose critical section closed.
    pub lock: LockId,
    /// Variables read inside the critical section (the paper's `R`).
    pub reads: Vec<VarId>,
    /// Variables written inside the critical section (the paper's `W`).
    pub writes: Vec<VarId>,
}

/// Streaming tracker of lock nesting per thread.
///
/// Feed every event of the trace, in order, to [`LockContext::on_event`];
/// between calls, [`LockContext::held`] answers which locks a thread holds
/// (innermost last), which is the `L` parameter for read/write events.
///
/// # Examples
///
/// ```
/// use rapid_trace::lockctx::LockContext;
/// use rapid_trace::TraceBuilder;
///
/// let mut b = TraceBuilder::new();
/// let t = b.thread("t");
/// let l = b.lock("l");
/// let x = b.variable("x");
/// b.acquire(t, l);
/// b.write(t, x);
/// b.release(t, l);
/// let trace = b.finish();
///
/// let mut ctx = LockContext::new(trace.num_threads());
/// ctx.on_event(&trace[0]);
/// assert_eq!(ctx.held(t), vec![l]);
/// ctx.on_event(&trace[1]);
/// let closed = ctx.on_event(&trace[2]).expect("release closes a section");
/// assert_eq!(closed.writes, vec![x]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LockContext {
    stacks: Vec<Vec<Frame>>,
    /// Cleared access-set buffers of recycled sections, reused by the next
    /// acquires.
    spare: Vec<(Vec<VarId>, Vec<VarId>)>,
}

impl LockContext {
    /// Creates a context able to track `threads` threads (it grows on demand).
    pub fn new(threads: usize) -> Self {
        LockContext { stacks: vec![Vec::new(); threads], spare: Vec::new() }
    }

    /// Hands a closed section's buffers back, so a later acquire reuses
    /// them instead of allocating.
    pub fn recycle(&mut self, section: ClosedSection) {
        let ClosedSection { mut reads, mut writes, .. } = section;
        reads.clear();
        writes.clear();
        self.spare.push((reads, writes));
    }

    fn stack_mut(&mut self, thread: ThreadId) -> &mut Vec<Frame> {
        let index = thread.index();
        if index >= self.stacks.len() {
            self.stacks.resize_with(index + 1, Vec::new);
        }
        &mut self.stacks[index]
    }

    /// Locks currently held by `thread`, outermost first.
    pub fn held(&self, thread: ThreadId) -> Vec<LockId> {
        self.held_iter(thread).collect()
    }

    /// Iterates the locks currently held by `thread`, outermost first,
    /// without allocating (the hot-path form of [`LockContext::held`]).
    pub fn held_iter(&self, thread: ThreadId) -> impl Iterator<Item = LockId> + '_ {
        self.stacks
            .get(thread.index())
            .map(|stack| stack.as_slice())
            .unwrap_or(&[])
            .iter()
            .map(|frame| frame.lock)
    }

    /// Returns true when `thread` holds `lock`.
    pub fn holds(&self, thread: ThreadId, lock: LockId) -> bool {
        self.stacks
            .get(thread.index())
            .map(|stack| stack.iter().any(|frame| frame.lock == lock))
            .unwrap_or(false)
    }

    /// Current lock-nesting depth of `thread`.
    pub fn depth(&self, thread: ThreadId) -> usize {
        self.stacks.get(thread.index()).map(Vec::len).unwrap_or(0)
    }

    /// Processes one event.  For a release event, returns the closed critical
    /// section's access sets; for all other events returns `None`.
    ///
    /// The trace is assumed to be well formed (see
    /// [`Trace::validate`](crate::Trace::validate)); on malformed traces the
    /// context degrades gracefully (releases without acquires are ignored).
    pub fn on_event(&mut self, event: &Event) -> Option<ClosedSection> {
        let thread = event.thread();
        match event.kind() {
            EventKind::Acquire(lock) => {
                let (reads, writes) = self.spare.pop().unwrap_or_default();
                self.stack_mut(thread).push(Frame { lock, reads, writes });
                None
            }
            EventKind::Release(lock) => {
                let stack = self.stack_mut(thread);
                match stack.last() {
                    Some(frame) if frame.lock == lock => {
                        let frame = stack.pop().expect("non-empty stack");
                        // Accesses inside an inner critical section are also
                        // inside the enclosing ones; propagate them outward.
                        if let Some(outer) = stack.last_mut() {
                            for &var in &frame.reads {
                                insert_sorted(&mut outer.reads, var);
                            }
                            for &var in &frame.writes {
                                insert_sorted(&mut outer.writes, var);
                            }
                        }
                        // The frame's sorted buffers move straight into the
                        // closed section — no copy, no re-sort.
                        Some(ClosedSection { lock, reads: frame.reads, writes: frame.writes })
                    }
                    _ => None,
                }
            }
            EventKind::Read(var) => {
                for frame in self.stack_mut(thread).iter_mut() {
                    insert_sorted(&mut frame.reads, var);
                }
                None
            }
            EventKind::Write(var) => {
                for frame in self.stack_mut(thread).iter_mut() {
                    insert_sorted(&mut frame.writes, var);
                }
                None
            }
            EventKind::Fork(_) | EventKind::Join(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceBuilder;

    #[test]
    fn tracks_nesting_depth_and_held_locks() {
        let mut b = TraceBuilder::new();
        let t = b.thread("t");
        let l = b.lock("l");
        let m = b.lock("m");
        let x = b.variable("x");
        b.acquire(t, l);
        b.acquire(t, m);
        b.read(t, x);
        b.release(t, m);
        b.release(t, l);
        let trace = b.finish();

        let mut ctx = LockContext::new(1);
        ctx.on_event(&trace[0]);
        ctx.on_event(&trace[1]);
        assert_eq!(ctx.held(t), vec![l, m]);
        assert_eq!(ctx.held_iter(t).collect::<Vec<_>>(), vec![l, m]);
        assert_eq!(ctx.depth(t), 2);
        assert!(ctx.holds(t, l) && ctx.holds(t, m));
        ctx.on_event(&trace[2]);
        ctx.on_event(&trace[3]);
        assert_eq!(ctx.held(t), vec![l]);
        ctx.on_event(&trace[4]);
        assert_eq!(ctx.depth(t), 0);
    }

    #[test]
    fn release_reports_access_sets() {
        let mut b = TraceBuilder::new();
        let t = b.thread("t");
        let l = b.lock("l");
        let x = b.variable("x");
        let y = b.variable("y");
        b.acquire(t, l);
        b.read(t, x);
        b.write(t, y);
        b.write(t, y);
        b.release(t, l);
        let trace = b.finish();

        let mut ctx = LockContext::new(1);
        let mut closed = None;
        for event in trace.events() {
            if let Some(section) = ctx.on_event(event) {
                closed = Some(section);
            }
        }
        let closed = closed.expect("release seen");
        assert_eq!(closed.lock, l);
        assert_eq!(closed.reads, vec![x]);
        assert_eq!(closed.writes, vec![y]);
    }

    #[test]
    fn inner_accesses_propagate_to_outer_sections() {
        let mut b = TraceBuilder::new();
        let t = b.thread("t");
        let l = b.lock("outer");
        let m = b.lock("inner");
        let x = b.variable("x");
        b.acquire(t, l);
        b.acquire(t, m);
        b.write(t, x);
        b.release(t, m);
        b.release(t, l);
        let trace = b.finish();

        let mut ctx = LockContext::new(1);
        let mut sections = Vec::new();
        for event in trace.events() {
            if let Some(section) = ctx.on_event(event) {
                sections.push(section);
            }
        }
        assert_eq!(sections.len(), 2);
        assert_eq!(sections[0].lock, m);
        assert_eq!(sections[0].writes, vec![x]);
        assert_eq!(sections[1].lock, l);
        assert_eq!(sections[1].writes, vec![x], "inner write visible in outer section");
    }

    #[test]
    fn accesses_outside_critical_sections_are_not_recorded() {
        let mut b = TraceBuilder::new();
        let t = b.thread("t");
        let l = b.lock("l");
        let x = b.variable("x");
        b.write(t, x);
        b.acquire(t, l);
        b.release(t, l);
        let trace = b.finish();

        let mut ctx = LockContext::new(1);
        let mut closed = None;
        for event in trace.events() {
            if let Some(section) = ctx.on_event(event) {
                closed = Some(section);
            }
        }
        let closed = closed.unwrap();
        assert!(closed.reads.is_empty());
        assert!(closed.writes.is_empty());
    }

    #[test]
    fn recycled_buffers_start_empty() {
        let mut b = TraceBuilder::new();
        let t = b.thread("t");
        let l = b.lock("l");
        let x = b.variable("x");
        let y = b.variable("y");
        b.critical_section(t, l, |b| {
            b.write(t, x);
        });
        b.critical_section(t, l, |b| {
            b.read(t, y);
        });
        let trace = b.finish();

        let mut ctx = LockContext::new(1);
        let mut sections = Vec::new();
        for event in trace.events() {
            if let Some(section) = ctx.on_event(event) {
                sections.push((section.reads.clone(), section.writes.clone()));
                ctx.recycle(section);
            }
        }
        assert_eq!(sections, vec![(vec![], vec![x]), (vec![y], vec![])]);
    }

    #[test]
    fn mismatched_release_is_ignored() {
        let mut b = TraceBuilder::new();
        let t = b.thread("t");
        let l = b.lock("l");
        b.release(t, l);
        let trace = b.finish();
        let mut ctx = LockContext::new(1);
        assert_eq!(ctx.on_event(&trace[0]), None);
    }

    #[test]
    fn separate_threads_have_separate_stacks() {
        let mut b = TraceBuilder::new();
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        let l = b.lock("l");
        let m = b.lock("m");
        b.acquire(t1, l);
        b.acquire(t2, m);
        let trace = b.finish();
        let mut ctx = LockContext::new(2);
        ctx.on_event(&trace[0]);
        ctx.on_event(&trace[1]);
        assert_eq!(ctx.held(t1), vec![l]);
        assert_eq!(ctx.held(t2), vec![m]);
        assert!(!ctx.holds(t1, m));
    }
}
