//! Regenerates Table 1 of the paper on the modelled benchmark workloads.
//!
//! ```text
//! cargo run --release -p rapid-bench --bin table1 [-- --max-events N] [--benchmark NAME] [--jobs N]
//! ```
//!
//! `--jobs N` analyzes table rows concurrently on the engine's worker pool
//! (row order and race counts are unaffected; per-row timing columns share
//! the machine, so compare timings at the default `--jobs 1`).
//!
//! The table run exits with status 1 unless every row matches the paper's
//! qualitative shape, so a CI smoke run gates the reproduction.
//!
//! Throughput and per-layer cost are measured by `perfbench/`, which repeats
//! every workload and reports the spread.

use std::env;
use std::process::ExitCode;

use rapid_bench::table1::{table1_jobs, table1_row, Table1Report};

struct Args {
    max_events: usize,
    benchmark: Option<String>,
    jobs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args { max_events: 50_000, benchmark: None, jobs: 1 };
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--max-events" => {
                let value = args.next().ok_or("--max-events requires a value")?;
                parsed.max_events =
                    value.parse().map_err(|_| format!("invalid event count {value}"))?;
            }
            "--benchmark" => {
                parsed.benchmark = Some(args.next().ok_or("--benchmark requires a value")?);
            }
            "--jobs" => {
                let value = args.next().ok_or("--jobs requires a value")?;
                parsed.jobs = value.parse().map_err(|_| format!("invalid job count {value}"))?;
                if parsed.jobs == 0 {
                    return Err("--jobs must be at least 1".to_owned());
                }
            }
            "--help" | "-h" => {
                return Err(
                    "usage: table1 [--max-events N] [--benchmark NAME] [--jobs N]".to_owned()
                )
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    let report = match args.benchmark {
        Some(name) => match table1_row(&name, args.max_events) {
            Some(row) => Table1Report { rows: vec![row] },
            None => {
                eprintln!("unknown benchmark `{name}`");
                return ExitCode::FAILURE;
            }
        },
        None => table1_jobs(args.max_events, args.jobs),
    };

    println!(
        "Table 1 reproduction (benchmark models scaled to <= {} events, jobs={})",
        args.max_events, args.jobs
    );
    println!("{}", report.render());
    println!(
        "{}/{} rows match the paper's qualitative shape (WCP >= HB, windowed MCM <= WCP, bold rows reproduced)",
        report.rows_matching_paper(),
        report.rows.len()
    );
    for row in &report.rows {
        println!(
            "  {:<14} paper: WCP {:>3} HB {:>3} RVmax {:>3}   measured: WCP {:>3} HB {:>3} RV {:>3}/{:>3}",
            row.spec.name,
            row.spec.wcp_races,
            row.spec.hb_races,
            row.spec.rv_max_races,
            row.wcp_races,
            row.hb_races,
            row.mcm_small_races,
            row.mcm_large_races,
        );
    }
    if report.rows_matching_paper() == report.rows.len() {
        ExitCode::SUCCESS
    } else {
        eprintln!("Table 1 shape regressed: not every row matches the paper");
        ExitCode::FAILURE
    }
}
