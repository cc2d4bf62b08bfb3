//! Reproduction of Table 1: race counts, times and queue occupancy.
//!
//! Since PR 2 the whole row is produced by **one pass** of the streaming
//! [`Engine`]: WCP, HB and both windowed-MCM configurations are registered
//! as [`Detector`](rapid_engine::Detector)s and every event of the
//! benchmark model is fanned out once, with per-detector wall-clock time
//! accounted by the engine (previously each detector re-walked the trace).
//! Since PR 4 the *rows* themselves ride the engine's parallel work queue
//! ([`rapid_engine::driver::parallel_map`]): [`table1_jobs`] analyzes
//! several benchmarks concurrently, with row order — and race counts —
//! independent of the worker count.  Per-row timing columns measure the
//! same work either way, but under `jobs > 1` they share the machine, so
//! compare timing columns at `jobs = 1`.

use std::fmt;
use std::time::Duration;

use rapid_engine::driver::parallel_map;
use rapid_engine::Engine;
use rapid_gen::benchmarks::{self, BenchmarkSpec};
use rapid_hb::HbStream;
use rapid_mcm::{McmConfig, McmStream};
use rapid_wcp::WcpStream;

/// One reproduced row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// The benchmark spec (paper's columns 1–5 plus its reported results).
    pub spec: BenchmarkSpec,
    /// Number of events in the generated (scaled) trace — column 3.
    pub events: usize,
    /// Threads in the generated trace — column 4.
    pub threads: usize,
    /// Locks in the generated trace — column 5.
    pub locks: usize,
    /// Distinct WCP race pairs measured — column 6.
    pub wcp_races: usize,
    /// Distinct HB race pairs measured — column 7.
    pub hb_races: usize,
    /// Distinct races from the MCM baseline at (w = 1K, 60 s) — column 8.
    pub mcm_small_races: usize,
    /// Distinct races from the MCM baseline at (w = 10K, 240 s) — column 9.
    pub mcm_large_races: usize,
    /// Maximum WCP queue occupancy as a percentage of events — column 11.
    pub queue_percentage: f64,
    /// WCP analysis time — column 12.
    pub wcp_time: Duration,
    /// HB analysis time — column 13.
    pub hb_time: Duration,
    /// MCM (w = 1K, 60 s) analysis time — column 14.
    pub mcm_small_time: Duration,
    /// MCM (w = 10K, 240 s) analysis time — column 15.
    pub mcm_large_time: Duration,
}

impl Table1Row {
    /// Returns true when the measured race counts have the shape the paper
    /// reports: WCP ⊇ HB ⊇ nothing, WCP ≥ windowed MCM, and WCP > HB exactly
    /// for the benchmarks whose Table 1 row is boldfaced.
    pub fn shape_matches_paper(&self) -> bool {
        let wcp_at_least_hb = self.wcp_races >= self.hb_races;
        let windowed_not_better =
            self.mcm_small_races <= self.wcp_races && self.mcm_large_races <= self.wcp_races;
        let bold = self.spec.wcp_races > self.spec.hb_races;
        let bold_reproduced = if bold { self.wcp_races > self.hb_races } else { true };
        wcp_at_least_hb && windowed_not_better && bold_reproduced
    }
}

impl fmt::Display for Table1Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<14} {:>9} {:>4} {:>6} | {:>4} {:>4} {:>8} {:>9} | {:>6.1}% | {:>9.2?} {:>9.2?} {:>9.2?} {:>9.2?}",
            self.spec.name,
            self.events,
            self.threads,
            self.locks,
            self.wcp_races,
            self.hb_races,
            self.mcm_small_races,
            self.mcm_large_races,
            self.queue_percentage,
            self.wcp_time,
            self.hb_time,
            self.mcm_small_time,
            self.mcm_large_time,
        )
    }
}

/// The full reproduced table.
#[derive(Debug, Clone, Default)]
pub struct Table1Report {
    /// One row per benchmark, in Table 1 order.
    pub rows: Vec<Table1Row>,
}

impl Table1Report {
    /// Number of rows whose qualitative shape matches the paper.
    pub fn rows_matching_paper(&self) -> usize {
        self.rows.iter().filter(|row| row.shape_matches_paper()).count()
    }

    /// Renders the table with a header, mirroring the paper's layout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<14} {:>9} {:>4} {:>6} | {:>4} {:>4} {:>8} {:>9} | {:>7} | {:>9} {:>9} {:>9} {:>9}\n",
            "program",
            "#events",
            "#thr",
            "#locks",
            "WCP",
            "HB",
            "RV(1K)",
            "RV(10K)",
            "queue%",
            "WCP t",
            "HB t",
            "RV1K t",
            "RV10K t"
        ));
        out.push_str(&"-".repeat(120));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.to_string());
            out.push('\n');
        }
        out
    }
}

/// Runs all detectors on one benchmark model and fills in its row.
///
/// `max_events` caps the generated trace size (the paper's traces go up to
/// 216 M events; the default harness scales each benchmark down to at most
/// 50 K events, [`BenchmarkSpec::default_scaled_events`]).
pub fn table1_row(name: &str, max_events: usize) -> Option<Table1Row> {
    let spec = benchmarks::spec(name)?;
    let events = spec.default_scaled_events().min(max_events);
    let model = benchmarks::benchmark_scaled(name, events)?;
    let trace = &model.trace;
    let stats = trace.stats();

    // One engine pass drives all four analyses; threads are pre-registered
    // so the streaming cores behave exactly like the whole-trace algorithm.
    let (small_config, large_config) = McmConfig::table1_pair();
    let mut engine = Engine::new();
    engine.register(Box::new(WcpStream::with_threads(trace.num_threads())));
    engine.register(Box::new(HbStream::with_threads(trace.num_threads())));
    engine.register(Box::new(McmStream::new(small_config)));
    engine.register(Box::new(McmStream::new(large_config)));
    engine.run_trace(trace);
    let runs = engine.finish(trace);
    let [wcp, hb, mcm_small, mcm_large] = runs.as_slice() else {
        unreachable!("four detectors registered");
    };

    Some(Table1Row {
        spec,
        events: stats.events,
        threads: stats.threads,
        locks: stats.locks,
        wcp_races: wcp.outcome.distinct_pairs(),
        hb_races: hb.outcome.distinct_pairs(),
        mcm_small_races: mcm_small.outcome.distinct_pairs(),
        mcm_large_races: mcm_large.outcome.distinct_pairs(),
        queue_percentage: wcp.outcome.metric("max_queue_percentage").unwrap_or(0.0),
        wcp_time: wcp.time,
        hb_time: hb.time,
        mcm_small_time: mcm_small.time,
        mcm_large_time: mcm_large.time,
    })
}

/// Reproduces the whole table (all 18 benchmarks) with the given event cap,
/// sequentially (`jobs = 1`).
pub fn table1(max_events: usize) -> Table1Report {
    table1_jobs(max_events, 1)
}

/// Reproduces the whole table with `jobs` rows analyzed concurrently on the
/// engine's worker-pool work queue.  Row order and race counts are
/// independent of the worker count; only wall-clock columns vary.
pub fn table1_jobs(max_events: usize, jobs: usize) -> Table1Report {
    let names = benchmarks::benchmark_names();
    let rows = parallel_map(&names, jobs, |name| table1_row(name, max_events))
        .into_iter()
        .flatten()
        .collect();
    Table1Report { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_row_has_paper_shape() {
        let row = table1_row("account", 5_000).expect("account exists");
        assert_eq!(row.spec.name, "account");
        assert_eq!(row.wcp_races, row.spec.wcp_races);
        assert_eq!(row.hb_races, row.spec.hb_races);
        assert!(row.shape_matches_paper());
        assert!(row.queue_percentage >= 0.0);
    }

    #[test]
    fn wcp_only_benchmark_reproduces_the_bold_entry() {
        // jigsaw is one of the boldfaced rows: WCP > HB.
        let row = table1_row("jigsaw", 4_000).expect("jigsaw exists");
        assert!(row.wcp_races > row.hb_races, "{row}");
        assert!(row.shape_matches_paper());
    }

    #[test]
    fn unknown_benchmark_returns_none() {
        assert!(table1_row("not-a-benchmark", 1_000).is_none());
    }

    #[test]
    fn concurrent_rows_match_sequential_rows() {
        let sequential = table1_jobs(1_000, 1);
        let concurrent = table1_jobs(1_000, 4);
        assert_eq!(sequential.rows.len(), concurrent.rows.len());
        for (left, right) in sequential.rows.iter().zip(&concurrent.rows) {
            assert_eq!(left.spec.name, right.spec.name, "row order is the input order");
            assert_eq!(left.wcp_races, right.wcp_races, "{}", left.spec.name);
            assert_eq!(left.hb_races, right.hb_races, "{}", left.spec.name);
            assert_eq!(left.mcm_small_races, right.mcm_small_races, "{}", left.spec.name);
            assert_eq!(left.mcm_large_races, right.mcm_large_races, "{}", left.spec.name);
        }
    }

    #[test]
    fn small_subset_renders_and_matches() {
        let report = Table1Report {
            rows: ["array", "account", "critical"]
                .iter()
                .filter_map(|name| table1_row(name, 2_000))
                .collect(),
        };
        assert_eq!(report.rows.len(), 3);
        assert_eq!(report.rows_matching_paper(), 3);
        let rendered = report.render();
        assert!(rendered.contains("program"));
        assert!(rendered.contains("account"));
    }
}
