//! A resident coordinator frees each finished connection's thread, so its
//! memory tracks its live connections, not every connection it ever
//! accepted.  Linux-only: it counts the lines of `/proc/self/maps`, where a
//! returned thread that was neither joined nor detached keeps its stack.
//! A test binary of its own, so no test running in parallel moves the
//! count.

#![cfg(target_os = "linux")]

use std::net::TcpStream;
use std::time::{Duration, Instant};

use rapid_engine::dist::{self, Coordinator, ServeConfig};

/// Connections opened and closed against the coordinator.
const CONNECTIONS: usize = 400;

/// Allowed growth of the mapping count.  Each unreleased thread stack
/// costs two lines (stack and guard page), so keeping all handles would
/// add ~800; what stays is the allocator's per-thread arenas and its
/// cache of freed stacks.
const MAX_GROWTH: usize = 200;

fn mapped_regions() -> usize {
    std::fs::read_to_string("/proc/self/maps").expect("/proc/self/maps reads").lines().count()
}

#[test]
fn finished_connection_threads_are_released() {
    let coordinator =
        Coordinator::bind(&[], &ServeConfig::default()).expect("resident coordinator binds");
    let addr = coordinator.local_addr();
    let serve = std::thread::spawn(move || coordinator.run().expect("serve completes"));
    let before = mapped_regions();

    // Each client closes before its HELLO, so its handler thread returns
    // at once.
    for _ in 0..CONNECTIONS {
        drop(TcpStream::connect(addr).expect("client connects"));
    }

    // Every accept reaps the handlers that have returned by then: keep
    // making the coordinator accept once more until the count settles.
    let deadline = Instant::now() + Duration::from_secs(10);
    let growth = loop {
        drop(TcpStream::connect(addr).expect("client connects"));
        let growth = mapped_regions().saturating_sub(before);
        if growth < MAX_GROWTH || Instant::now() >= deadline {
            break growth;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(
        growth < MAX_GROWTH,
        "{CONNECTIONS} closed connections left {growth} more mappings (limit {MAX_GROWTH})"
    );

    dist::shutdown(&addr.to_string()).expect("coordinator drains");
    let summary = serve.join().expect("serve thread");
    assert!(summary.jobs.is_empty(), "no job was opened");
}
