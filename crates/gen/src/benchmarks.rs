//! Deterministic models of the paper's 18 evaluation benchmarks (Table 1).
//!
//! The paper's workloads are execution traces of Java programs (IBM Contest,
//! Java Grande, DaCapo, Derby, FTPServer, Jigsaw, Eclipse) logged with
//! RVPredict.  This reproduction has no JVM, so each benchmark is modelled by
//! a deterministic generator that matches the benchmark's *profile* from
//! Table 1 — thread count, lock count, event volume (scaled down by a
//! documented factor for the largest traces) — and embeds the same number of
//! racy program-location pairs:
//!
//! * `hb_races` pairs detectable by HB (and therefore also WCP),
//!   split into *near* pairs (adjacent accesses — visible inside any analysis
//!   window) and *far* pairs (accesses separated by a large fraction of the
//!   trace — invisible to windowed analyses, the effect §4.3 highlights);
//! * `wcp_races − hb_races` pairs following the Figure 2b pattern, detectable
//!   by WCP but not by HB (the boldfaced rows of Table 1);
//! * race-free filler: lock-protected shared counters and thread-local work.
//!
//! The generated trace for benchmark *B* is a function of *B*'s spec only, so
//! repeated runs (and the bench harness) see identical traces.

use rapid_trace::{LockId, Trace, TraceBuilder, VarId};
use rapid_vc::ThreadId;

/// Static description of one benchmark row of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchmarkSpec {
    /// Benchmark name (column 1).
    pub name: &'static str,
    /// Lines of source code in the original program (column 2).
    pub loc: usize,
    /// Number of events in the paper's logged trace (column 3).
    pub paper_events: usize,
    /// Number of threads (column 4).
    pub threads: usize,
    /// Number of locks (column 5).
    pub locks: usize,
    /// Distinct WCP race pairs reported in the paper (column 6).
    pub wcp_races: usize,
    /// Distinct HB race pairs reported in the paper (column 7).
    pub hb_races: usize,
    /// Best race count across RVPredict configurations (column 10).
    pub rv_max_races: usize,
}

impl BenchmarkSpec {
    /// Number of race pairs detectable by WCP but not HB.
    pub fn wcp_only_races(&self) -> usize {
        self.wcp_races.saturating_sub(self.hb_races)
    }

    /// Number of HB race pairs placed "far apart" in the generated trace
    /// (≳ 60 % of the trace apart), so that windowed analyses miss them.
    /// Mirrors §4.3: on the large benchmarks most races cross any window.
    pub fn far_races(&self) -> usize {
        if self.paper_events >= 100_000 {
            self.hb_races.saturating_sub(self.rv_max_races)
        } else {
            0
        }
    }

    /// Number of HB race pairs placed as adjacent accesses.
    pub fn near_races(&self) -> usize {
        self.hb_races - self.far_races()
    }

    /// Default number of events generated for this benchmark: the paper's
    /// trace length, capped at 50 000 events (the cap keeps the full Table 1
    /// harness runnable on a laptop; the scaling benches sweep larger sizes).
    pub fn default_scaled_events(&self) -> usize {
        self.paper_events.min(50_000)
    }
}

/// A generated benchmark workload: the spec plus the synthetic trace.
#[derive(Debug, Clone)]
pub struct BenchmarkModel {
    /// The Table 1 row this models.
    pub spec: BenchmarkSpec,
    /// The generated trace.
    pub trace: Trace,
}

/// The 18 rows of Table 1.
pub const SPECS: [BenchmarkSpec; 18] = [
    BenchmarkSpec {
        name: "account",
        loc: 87,
        paper_events: 130,
        threads: 4,
        locks: 3,
        wcp_races: 4,
        hb_races: 4,
        rv_max_races: 4,
    },
    BenchmarkSpec {
        name: "airline",
        loc: 83,
        paper_events: 128,
        threads: 2,
        locks: 0,
        wcp_races: 4,
        hb_races: 4,
        rv_max_races: 4,
    },
    BenchmarkSpec {
        name: "array",
        loc: 36,
        paper_events: 47,
        threads: 3,
        locks: 2,
        wcp_races: 0,
        hb_races: 0,
        rv_max_races: 0,
    },
    BenchmarkSpec {
        name: "boundedbuffer",
        loc: 334,
        paper_events: 333,
        threads: 2,
        locks: 2,
        wcp_races: 2,
        hb_races: 2,
        rv_max_races: 2,
    },
    BenchmarkSpec {
        name: "bubblesort",
        loc: 274,
        paper_events: 4_000,
        threads: 10,
        locks: 2,
        wcp_races: 6,
        hb_races: 6,
        rv_max_races: 6,
    },
    BenchmarkSpec {
        name: "bufwriter",
        loc: 199,
        paper_events: 11_700_000,
        threads: 6,
        locks: 1,
        wcp_races: 2,
        hb_races: 2,
        rv_max_races: 2,
    },
    BenchmarkSpec {
        name: "critical",
        loc: 63,
        paper_events: 55,
        threads: 4,
        locks: 0,
        wcp_races: 8,
        hb_races: 8,
        rv_max_races: 8,
    },
    BenchmarkSpec {
        name: "mergesort",
        loc: 298,
        paper_events: 3_000,
        threads: 5,
        locks: 3,
        wcp_races: 3,
        hb_races: 3,
        rv_max_races: 2,
    },
    BenchmarkSpec {
        name: "pingpong",
        loc: 124,
        paper_events: 146,
        threads: 4,
        locks: 0,
        wcp_races: 7,
        hb_races: 7,
        rv_max_races: 7,
    },
    BenchmarkSpec {
        name: "moldyn",
        loc: 2_900,
        paper_events: 164_000,
        threads: 3,
        locks: 2,
        wcp_races: 44,
        hb_races: 44,
        rv_max_races: 2,
    },
    BenchmarkSpec {
        name: "montecarlo",
        loc: 2_900,
        paper_events: 7_200_000,
        threads: 3,
        locks: 3,
        wcp_races: 5,
        hb_races: 5,
        rv_max_races: 1,
    },
    BenchmarkSpec {
        name: "raytracer",
        loc: 2_900,
        paper_events: 16_000,
        threads: 3,
        locks: 8,
        wcp_races: 3,
        hb_races: 3,
        rv_max_races: 3,
    },
    BenchmarkSpec {
        name: "derby",
        loc: 302_000,
        paper_events: 1_300_000,
        threads: 4,
        locks: 1_112,
        wcp_races: 23,
        hb_races: 23,
        rv_max_races: 14,
    },
    BenchmarkSpec {
        name: "eclipse",
        loc: 560_000,
        paper_events: 87_000_000,
        threads: 14,
        locks: 8_263,
        wcp_races: 66,
        hb_races: 64,
        rv_max_races: 8,
    },
    BenchmarkSpec {
        name: "ftpserver",
        loc: 32_000,
        paper_events: 49_000,
        threads: 11,
        locks: 304,
        wcp_races: 36,
        hb_races: 36,
        rv_max_races: 12,
    },
    BenchmarkSpec {
        name: "jigsaw",
        loc: 101_000,
        paper_events: 3_000_000,
        threads: 13,
        locks: 280,
        wcp_races: 14,
        hb_races: 11,
        rv_max_races: 6,
    },
    BenchmarkSpec {
        name: "lusearch",
        loc: 410_000,
        paper_events: 216_000_000,
        threads: 7,
        locks: 118,
        wcp_races: 160,
        hb_races: 160,
        rv_max_races: 0,
    },
    BenchmarkSpec {
        name: "xalan",
        loc: 180_000,
        paper_events: 122_000_000,
        threads: 6,
        locks: 2_494,
        wcp_races: 18,
        hb_races: 15,
        rv_max_races: 8,
    },
];

/// Names of all modelled benchmarks, in Table 1 order.
pub fn benchmark_names() -> Vec<&'static str> {
    SPECS.iter().map(|spec| spec.name).collect()
}

/// Looks up a benchmark spec by name.
pub fn spec(name: &str) -> Option<BenchmarkSpec> {
    SPECS.iter().copied().find(|spec| spec.name == name)
}

/// Generates the named benchmark at its default scale.
pub fn benchmark(name: &str) -> Option<BenchmarkModel> {
    spec(name).map(|spec| generate(spec, spec.default_scaled_events()))
}

/// Generates the named benchmark with an explicit event budget.
pub fn benchmark_scaled(name: &str, events: usize) -> Option<BenchmarkModel> {
    spec(name).map(|spec| generate(spec, events))
}

struct ModelBuilder {
    builder: TraceBuilder,
    threads: Vec<ThreadId>,
    locks: Vec<LockId>,
    counters: Vec<VarId>,
    locals: Vec<VarId>,
    spec: BenchmarkSpec,
    /// Number of protected-counter episodes emitted so far.  Thread and lock
    /// rotation is driven by this counter (not by the caller's step counter)
    /// so that every filler thread takes part in every lock's locality block,
    /// which keeps Algorithm 1's queues draining.
    counter_episodes: usize,
}

impl ModelBuilder {
    fn new(spec: BenchmarkSpec, events: usize) -> Self {
        let mut builder = TraceBuilder::new();
        let threads = builder.threads(spec.threads.max(2));
        // The paper's lock counts (column 5) come from traces of up to 216 M
        // events; a scaled-down trace naturally touches proportionally fewer
        // locks.  Scaling the lock count with the event budget keeps the
        // filler realistic (locks are revisited throughout the run, so
        // Algorithm 1's queues keep draining as they do on the real traces).
        let scaled_locks = spec
            .locks
            .min((events / (spec.threads.max(2) * 150)).max(2))
            .max(usize::from(spec.locks > 0));
        let locks = builder.locks(if spec.locks == 0 { 0 } else { scaled_locks });
        // One shared counter per lock (so that every counter access is
        // consistently protected by exactly one lock), plus one thread-local
        // variable per thread.
        let counters =
            (0..spec.locks.max(1)).map(|i| builder.variable(&format!("counter{i}"))).collect();
        let locals =
            (0..spec.threads.max(2)).map(|i| builder.variable(&format!("local_t{i}"))).collect();
        ModelBuilder { builder, threads, locks, counters, locals, spec, counter_episodes: 0 }
    }

    /// The thread reserved for the late half of far races (it is kept out of
    /// the middle filler so no happens-before path can reach its late reads).
    fn late_thread(&self) -> ThreadId {
        self.threads[self.threads.len() - 1]
    }

    /// Threads participating in the middle filler.
    fn filler_threads(&self) -> &[ThreadId] {
        if self.spec.far_races() > 0 && self.threads.len() > 1 {
            &self.threads[..self.threads.len() - 1]
        } else {
            &self.threads
        }
    }

    /// A race-free, lock-protected read-modify-write of the counter
    /// associated with lock `index` (4 events).
    fn protected_counter(&mut self, step: usize) {
        if self.locks.is_empty() {
            // Lock-free benchmark: thread-local work instead.
            self.local_work(step);
            return;
        }
        let episode = self.counter_episodes;
        self.counter_episodes += 1;
        let (thread, thread_count) = {
            let threads = self.filler_threads();
            (threads[episode % threads.len()], threads.len())
        };
        // Consecutive episodes keep using the same lock across all filler
        // threads (a "locality block") before moving on to the next lock.
        // This mirrors how real workloads reuse the same monitors in bursts
        // and is what keeps Algorithm 1's acquire/release queues drained.
        let lock = self.locks[(episode / thread_count.max(1)) % self.locks.len()];
        let counter = self.counters[lock.index() % self.counters.len()];
        let local = self.locals[thread.index() % self.locals.len()];
        let site = step % 17;
        self.builder.at(&format!("{}/Counter.java:{}", self.spec.name, 10 + site));
        self.builder.acquire(thread, lock);
        self.builder.at(&format!("{}/Counter.java:{}", self.spec.name, 11 + site));
        self.builder.read(thread, counter);
        self.builder.at(&format!("{}/Counter.java:{}", self.spec.name, 12 + site));
        self.builder.write(thread, counter);
        // Real critical sections are dominated by ordinary (non-racy) memory
        // accesses; keep the synchronization fraction of the trace realistic.
        let body = 8 + step % 8;
        for offset in 0..body {
            self.builder.at(&format!(
                "{}/Counter.java:{}",
                self.spec.name,
                20 + (site + offset) % 31
            ));
            if offset % 3 == 0 {
                self.builder.write(thread, local);
            } else {
                self.builder.read(thread, local);
            }
        }
        self.builder.at(&format!("{}/Counter.java:{}", self.spec.name, 13 + site));
        self.builder.release(thread, lock);
    }

    /// Thread-local work (2 events): never conflicts.
    fn local_work(&mut self, step: usize) {
        let thread = {
            let threads = self.filler_threads();
            threads[step % threads.len()]
        };
        let local = self.locals[thread.index() % self.locals.len()];
        let site = step % 23;
        self.builder.at(&format!("{}/Local.java:{}", self.spec.name, 40 + site));
        self.builder.read(thread, local);
        self.builder.at(&format!("{}/Local.java:{}", self.spec.name, 41 + site));
        self.builder.write(thread, local);
    }

    /// A near race (2 events): an unprotected write immediately followed by a
    /// conflicting unprotected read from another thread.  Detected by HB,
    /// WCP and any windowed analysis.
    fn near_race(&mut self, index: usize) {
        let (writer, reader) = {
            let threads = self.filler_threads();
            (threads[index % threads.len()], threads[(index + 1) % threads.len()])
        };
        let variable = self.builder.variable(&format!("near_racy{index}"));
        self.builder.at(&format!("{}/Near.java:{}", self.spec.name, 100 + 2 * index));
        self.builder.write(writer, variable);
        self.builder.at(&format!("{}/Near.java:{}", self.spec.name, 101 + 2 * index));
        self.builder.read(reader, variable);
    }

    /// A WCP-only race (8 events): the Figure 2b pattern — HB orders the pair
    /// through the lock hand-off, WCP does not.
    fn wcp_only_race(&mut self, index: usize) {
        let (t1, t2) = {
            let threads = self.filler_threads();
            (threads[index % threads.len()], threads[(index + 1) % threads.len()])
        };
        let lock = if self.locks.is_empty() {
            self.builder.lock("wcp_only_lock")
        } else {
            self.locks[index % self.locks.len()]
        };
        let x = self.builder.variable(&format!("wcp_guarded{index}"));
        let y = self.builder.variable(&format!("wcp_racy{index}"));
        let base = 200 + 8 * index;
        self.builder.at(&format!("{}/Wcp.java:{}", self.spec.name, base));
        self.builder.write(t1, y);
        self.builder.at(&format!("{}/Wcp.java:{}", self.spec.name, base + 1));
        self.builder.acquire(t1, lock);
        self.builder.at(&format!("{}/Wcp.java:{}", self.spec.name, base + 2));
        self.builder.write(t1, x);
        self.builder.at(&format!("{}/Wcp.java:{}", self.spec.name, base + 3));
        self.builder.release(t1, lock);
        self.builder.at(&format!("{}/Wcp.java:{}", self.spec.name, base + 4));
        self.builder.acquire(t2, lock);
        self.builder.at(&format!("{}/Wcp.java:{}", self.spec.name, base + 5));
        self.builder.read(t2, y);
        self.builder.at(&format!("{}/Wcp.java:{}", self.spec.name, base + 6));
        self.builder.read(t2, x);
        self.builder.at(&format!("{}/Wcp.java:{}", self.spec.name, base + 7));
        self.builder.release(t2, lock);
    }

    /// The early half of far race `index` (1 event): an unprotected write by
    /// a filler thread.
    fn far_race_write(&mut self, index: usize) {
        let writer = {
            let threads = self.filler_threads();
            threads[index % threads.len()]
        };
        let variable = self.builder.variable(&format!("far_racy{index}"));
        self.builder.at(&format!("{}/Far.java:{}", self.spec.name, 300 + 2 * index));
        self.builder.write(writer, variable);
    }

    /// The late half of far race `index` (1 event): a read by the reserved
    /// late thread, emitted after the whole middle filler.
    fn far_race_read(&mut self, index: usize) {
        let reader = self.late_thread();
        let variable = self.builder.variable(&format!("far_racy{index}"));
        self.builder.at(&format!("{}/Far.java:{}", self.spec.name, 301 + 2 * index));
        self.builder.read(reader, variable);
    }
}

/// Generates the trace for `spec` with roughly `events` events.
pub fn generate(spec: BenchmarkSpec, events: usize) -> BenchmarkModel {
    let mut model = ModelBuilder::new(spec, events);

    let far = spec.far_races();
    let near = spec.near_races();
    let wcp_only = spec.wcp_only_races();

    // 1. Early section: the writes of all far races.
    for index in 0..far {
        model.far_race_write(index);
    }

    // 2. Middle filler with the near and WCP-only races spread evenly.
    let reserved_tail = far + 4;
    let budget = events.saturating_sub(model.builder.len() + reserved_tail);
    let mut emitted_near = 0usize;
    let mut emitted_wcp_only = 0usize;
    let special_total = near + wcp_only;
    let mut step = 0usize;
    while model.builder.len() < budget.max(special_total * 10 + 8) + far {
        // Interleave: every few filler episodes, emit the next special episode
        // at an evenly spaced position.
        let fraction = (model.builder.len() as f64 / (budget.max(1) as f64)).clamp(0.0, 1.0);
        let specials_due = ((fraction * special_total as f64).ceil() as usize).min(special_total);
        if emitted_near + emitted_wcp_only < specials_due {
            if emitted_near < near {
                model.near_race(emitted_near);
                emitted_near += 1;
            } else if emitted_wcp_only < wcp_only {
                model.wcp_only_race(emitted_wcp_only);
                emitted_wcp_only += 1;
            }
        }
        // Regular filler: alternate protected counters and local work.
        if step % 3 == 2 {
            model.local_work(step);
        } else {
            model.protected_counter(step);
        }
        step += 1;
        if step > events * 4 {
            break; // safety net; never hit in practice
        }
    }
    // Flush any specials not yet emitted (tiny benchmarks).
    while emitted_near < near {
        model.near_race(emitted_near);
        emitted_near += 1;
    }
    while emitted_wcp_only < wcp_only {
        model.wcp_only_race(emitted_wcp_only);
        emitted_wcp_only += 1;
    }

    // 3. Late section: the reads of all far races.
    for index in 0..far {
        model.far_race_read(index);
    }

    BenchmarkModel { spec, trace: model.builder.finish() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_specs_have_distinct_names() {
        let names = benchmark_names();
        let mut deduped = names.clone();
        deduped.sort();
        deduped.dedup();
        assert_eq!(names.len(), 18);
        assert_eq!(deduped.len(), 18);
    }

    #[test]
    fn lookup_by_name() {
        assert!(spec("eclipse").is_some());
        assert!(spec("does-not-exist").is_none());
        assert_eq!(spec("eclipse").unwrap().threads, 14);
        assert!(benchmark("account").is_some());
        assert!(benchmark("nope").is_none());
    }

    #[test]
    fn generated_traces_are_valid_and_sized() {
        for spec in SPECS {
            let model = generate(spec, spec.default_scaled_events().min(5_000));
            assert!(model.trace.validate().is_ok(), "{} generated an invalid trace", spec.name);
            let stats = model.trace.stats();
            assert!(stats.threads <= spec.threads.max(2), "{}", spec.name);
            assert!(stats.events > 0, "{}", spec.name);
        }
    }

    #[test]
    fn small_benchmarks_match_paper_scale_exactly() {
        let account = benchmark("account").unwrap();
        assert!(account.trace.len() >= 100 && account.trace.len() <= 200);
        let array = benchmark("array").unwrap();
        assert!(array.trace.len() <= 80);
    }

    #[test]
    fn thread_and_lock_profiles_follow_the_spec() {
        let ftp = benchmark_scaled("ftpserver", 8_000).unwrap();
        let stats = ftp.trace.stats();
        assert_eq!(stats.threads, 11);
        assert!(stats.locks <= 304);
        let airline = benchmark("airline").unwrap();
        assert_eq!(airline.trace.stats().locks, 0);
    }

    #[test]
    fn race_budget_helpers_are_consistent() {
        for spec in SPECS {
            assert_eq!(spec.near_races() + spec.far_races(), spec.hb_races, "{}", spec.name);
            assert_eq!(
                spec.wcp_only_races() + spec.hb_races,
                spec.wcp_races.max(spec.hb_races),
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn far_races_span_a_large_fraction_of_the_trace() {
        let model = benchmark_scaled("moldyn", 10_000).unwrap();
        assert!(model.spec.far_races() > 0);
        let trace = &model.trace;
        // The far-race variables are written in the first few events and read
        // in the last few.
        let far_reads = trace
            .events()
            .iter()
            .rev()
            .take(model.spec.far_races())
            .filter(|event| event.kind().is_read())
            .count();
        assert_eq!(far_reads, model.spec.far_races());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = benchmark_scaled("derby", 3_000).unwrap();
        let b = benchmark_scaled("derby", 3_000).unwrap();
        assert_eq!(a.trace, b.trace);
    }
}
