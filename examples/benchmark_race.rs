//! Run the detectors on one of the modelled Table 1 benchmarks and compare
//! whole-trace analyses against the windowed baseline.
//!
//! ```text
//! cargo run --release --example benchmark_race -- [benchmark] [max_events]
//! ```
//!
//! Defaults to `ftpserver` scaled to 20 000 events.  Use
//! `cargo run --example benchmark_race -- list` to see the benchmark names.
//! Exits 1 unless the whole-trace WCP and HB race pair counts equal the
//! model's Table 1 columns.

use std::env;
use std::process::ExitCode;
use std::time::Instant;

use rapid::gen::benchmarks;
use rapid::mcm::{McmConfig, McmDetector};
use rapid::prelude::*;

fn main() -> ExitCode {
    let mut args = env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "ftpserver".to_owned());
    if name == "list" {
        for benchmark in benchmarks::benchmark_names() {
            println!("{benchmark}");
        }
        return ExitCode::SUCCESS;
    }
    let max_events: usize = args.next().and_then(|value| value.parse().ok()).unwrap_or(20_000);

    let Some(model) = benchmarks::benchmark_scaled(&name, max_events) else {
        eprintln!("unknown benchmark `{name}` (try `-- list`)");
        return ExitCode::FAILURE;
    };
    let spec = model.spec;
    let trace = &model.trace;
    println!(
        "benchmark {name}: {} (paper trace: {} events, {} threads, {} locks)",
        trace.stats(),
        spec.paper_events,
        spec.threads,
        spec.locks
    );
    println!();

    let started = Instant::now();
    let wcp = WcpDetector::new().analyze(trace);
    let wcp_time = started.elapsed();

    let started = Instant::now();
    let hb = HbDetector::new().detect(trace);
    let hb_time = started.elapsed();

    let started = Instant::now();
    let mcm = McmDetector::new(McmConfig::new(1_000, 60)).detect(trace);
    let mcm_time = started.elapsed();

    println!("                     races   time        paper races");
    println!(
        "WCP (whole trace)  : {:>5}   {:>9.2?}   {}",
        wcp.report.distinct_pairs(),
        wcp_time,
        spec.wcp_races
    );
    println!(
        "HB  (whole trace)  : {:>5}   {:>9.2?}   {}",
        hb.distinct_pairs(),
        hb_time,
        spec.hb_races
    );
    println!(
        "MCM (w=1K, 60s)    : {:>5}   {:>9.2?}   {} (best RVPredict config)",
        mcm.distinct_pairs(),
        mcm_time,
        spec.rv_max_races
    );
    println!();
    println!(
        "WCP queue occupancy peaked at {:.2}% of events (paper reports <= 10% on all rows)",
        wcp.stats.max_queue_percentage()
    );
    println!(
        "largest race distance found: {} events ({}% of the trace)",
        wcp.report.max_distance(),
        100 * wcp.report.max_distance() / trace.len().max(1)
    );
    if wcp.report.distinct_pairs() != spec.wcp_races || hb.distinct_pairs() != spec.hb_races {
        eprintln!(
            "{name}: WCP/HB found {}/{} race pairs, Table 1 has {}/{}",
            wcp.report.distinct_pairs(),
            hb.distinct_pairs(),
            spec.wcp_races,
            spec.hb_races
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
