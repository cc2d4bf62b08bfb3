//! Property-based tests of the trace substrate.
//!
//! A custom proptest strategy generates *well-formed* traces directly (events
//! are interpreted against per-thread lock stacks, so lock semantics and
//! well-nestedness hold by construction), and the structural invariants of
//! the trace layer are checked against them: validation, statistics, the
//! critical-section index, the online lock context and the text formats.

use proptest::prelude::*;
use rapid_trace::analysis::TraceIndex;
use rapid_trace::lockctx::LockContext;
use rapid_trace::{format, EventKind, Trace, TraceBuilder};

/// Abstract actions from which valid traces are interpreted.
#[derive(Debug, Clone, Copy)]
enum Action {
    Read(u8),
    Write(u8),
    Acquire(u8),
    Release,
    Fork,
    Join,
}

fn action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (0u8..6).prop_map(Action::Read),
        (0u8..6).prop_map(Action::Write),
        (0u8..4).prop_map(Action::Acquire),
        Just(Action::Release),
        Just(Action::Fork),
        Just(Action::Join),
    ]
}

/// Interprets a script of `(thread, action)` pairs into a well-formed trace.
fn interpret(script: &[(u8, Action)], threads: usize) -> Trace {
    let threads = threads.max(1);
    let mut builder = TraceBuilder::new();
    let thread_ids = builder.threads(threads);
    let lock_ids = builder.locks(4);
    let var_ids = builder.variables(6);

    // Per-thread stack of held locks, global holder map, fork/join state.
    let mut held: Vec<Vec<usize>> = vec![Vec::new(); threads];
    let mut holder: Vec<Option<usize>> = vec![None; lock_ids.len()];
    let mut started: Vec<bool> = vec![false; threads];
    let mut forked: Vec<bool> = vec![false; threads];
    let mut joined: Vec<bool> = vec![false; threads];

    for &(raw_thread, action) in script {
        let t = (raw_thread as usize) % threads;
        if joined[t] {
            continue; // a joined thread stays silent
        }
        let thread = thread_ids[t];
        started[t] = true;
        match action {
            Action::Read(var) => {
                builder.read(thread, var_ids[var as usize % var_ids.len()]);
            }
            Action::Write(var) => {
                builder.write(thread, var_ids[var as usize % var_ids.len()]);
            }
            Action::Acquire(lock) => {
                let lock = lock as usize % lock_ids.len();
                if holder[lock].is_none() && held[t].len() < 3 {
                    holder[lock] = Some(t);
                    held[t].push(lock);
                    builder.acquire(thread, lock_ids[lock]);
                }
            }
            Action::Release => {
                if let Some(lock) = held[t].pop() {
                    holder[lock] = None;
                    builder.release(thread, lock_ids[lock]);
                }
            }
            Action::Fork => {
                // Fork the next not-yet-started, not-yet-forked thread.
                if let Some(child) = (0..threads).find(|&u| u != t && !started[u] && !forked[u]) {
                    forked[child] = true;
                    builder.fork(thread, thread_ids[child]);
                }
            }
            Action::Join => {
                // Join a thread that has started, holds no locks and is not
                // yet joined.
                if let Some(child) =
                    (0..threads).find(|&u| u != t && started[u] && held[u].is_empty() && !joined[u])
                {
                    joined[child] = true;
                    builder.join(thread, thread_ids[child]);
                }
            }
        }
    }
    // Close open critical sections.
    for t in 0..threads {
        if joined[t] {
            continue;
        }
        while let Some(lock) = held[t].pop() {
            holder[lock] = None;
            builder.release(thread_ids[t], lock_ids[lock]);
        }
    }
    builder.finish()
}

fn generated_trace() -> impl Strategy<Value = Trace> {
    (2usize..5, prop::collection::vec((0u8..5, action()), 0..200))
        .prop_map(|(threads, script)| interpret(&script, threads))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn interpreted_traces_are_well_formed(trace in generated_trace()) {
        prop_assert!(trace.validate().is_ok(), "{:?}", trace.validate());
    }

    #[test]
    fn stats_add_up(trace in generated_trace()) {
        let stats = trace.stats();
        prop_assert_eq!(stats.events, trace.len());
        prop_assert_eq!(
            stats.reads + stats.writes + stats.acquires + stats.releases + stats.forks
                + stats.joins,
            trace.len()
        );
        prop_assert_eq!(stats.acquires, stats.critical_sections);
        prop_assert!(stats.releases <= stats.acquires);
        prop_assert!(stats.shared_variables <= stats.variables);
    }

    #[test]
    fn index_matches_are_mutually_inverse(trace in generated_trace()) {
        let index = TraceIndex::build(&trace);
        for event in trace.events() {
            match event.kind() {
                EventKind::Acquire(_) => {
                    if let Some(release) = index.matching_release(event.id()) {
                        prop_assert_eq!(index.matching_acquire(release), Some(event.id()));
                        prop_assert!(release > event.id());
                        prop_assert_eq!(trace[release].thread(), event.thread());
                    }
                }
                EventKind::Release(_) => {
                    let acquire = index.matching_acquire(event.id());
                    prop_assert!(acquire.is_some(), "every release has a matching acquire");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn enclosing_sections_agree_with_online_lock_context(trace in generated_trace()) {
        let index = TraceIndex::build(&trace);
        let mut ctx = LockContext::new(trace.num_threads());
        for event in trace.events() {
            if event.kind().is_access() {
                let from_index = index.held_locks(&trace, event.id());
                let from_ctx = ctx.held(event.thread());
                prop_assert_eq!(from_index, from_ctx);
            }
            ctx.on_event(event);
        }
    }

    #[test]
    fn read_from_is_an_earlier_write_of_the_same_variable(trace in generated_trace()) {
        let index = TraceIndex::build(&trace);
        for event in trace.events() {
            if let EventKind::Read(var) = event.kind() {
                if let Some(write) = index.read_from(event.id()) {
                    prop_assert!(write < event.id());
                    prop_assert_eq!(trace[write].kind(), EventKind::Write(var));
                }
            }
        }
    }

    #[test]
    fn subtrace_windows_are_always_valid(trace in generated_trace(), start in 0usize..220, len in 0usize..220) {
        let end = (start + len).min(trace.len());
        let start = start.min(end);
        let (sub, mapping) = trace.subtrace(start, end);
        prop_assert!(sub.validate().is_ok());
        prop_assert!(sub.len() <= end - start);
        prop_assert_eq!(sub.len(), mapping.len());
    }

    #[test]
    fn std_and_csv_formats_parse_back(trace in generated_trace()) {
        let std_text = format::write_std(&trace);
        let csv_text = format::write_csv(&trace);
        let from_std = format::parse_std(&std_text).expect("std parses");
        let from_csv = format::parse_csv(&csv_text).expect("csv parses");
        prop_assert_eq!(from_std.len(), trace.len());
        prop_assert_eq!(from_csv.len(), trace.len());
        prop_assert!(from_std.validate().is_ok());
        // Event mnemonics survive both round trips.
        for ((original, a), b) in trace.events().iter().zip(from_std.events()).zip(from_csv.events()) {
            prop_assert_eq!(original.kind().mnemonic(), a.kind().mnemonic());
            prop_assert_eq!(original.kind().mnemonic(), b.kind().mnemonic());
        }
    }

    #[test]
    fn streamed_v2_equals_batch_v1_event_for_event(trace in generated_trace(), block in 1usize..48) {
        // docs/FORMAT.md §3.5: a v2 encoding at any block size decodes to the
        // events, ids and names the text reader assigns.
        let mut writer = format::RwfStreamWriter::with_block_events(Vec::new(), block)
            .expect("writing to a Vec cannot fail");
        for event in trace.events() {
            writer.append(event, &trace).expect("writing to a Vec cannot fail");
        }
        let streamed = format::BinReader::from_bytes(writer.finish().expect("finishes"))
            .expect("streamed v2 container is sound");
        let from_streamed = format::collect_any(streamed.into()).expect("streamed decodes");
        let from_text = format::parse_std(&format::write_std(&trace)).expect("text parses");
        // `Trace` equality covers the events with their ids and all four
        // name tables, so detector timestamps agree too.
        prop_assert_eq!(from_streamed, from_text);
    }

    #[test]
    fn conflicting_pairs_are_symmetric_and_cross_thread(trace in generated_trace()) {
        for (first, second) in trace.conflicting_pairs() {
            prop_assert!(first < second);
            let a = trace[first];
            let b = trace[second];
            prop_assert!(a.conflicts_with(&b));
            prop_assert!(b.conflicts_with(&a));
            prop_assert_ne!(a.thread(), b.thread());
            prop_assert!(a.kind().is_write() || b.kind().is_write());
        }
    }
}
