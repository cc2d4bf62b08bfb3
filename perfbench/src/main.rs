//! The repository's benchmark.  One run measures one workload:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--work-dir DIR]
//! ```
//!
//! With `--trace 0` it reports the end-to-end metrics, with `--trace 1` the
//! per-layer metrics of a traced run.  Either way the last line of stdout
//! is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Workloads, metrics and their rationale are described in
//! `perfbench/README.md`.

mod host;
mod inputs;
mod layers;
mod local;
mod report;
mod service;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use crate::report::RunResult;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Table1Rwf,
    Table1Text,
    RacyStream,
    Service,
}

impl Workload {
    const ALL: [Workload; 4] =
        [Workload::Table1Rwf, Workload::Table1Text, Workload::RacyStream, Workload::Service];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Rwf => "table1-rwf",
            Workload::Table1Text => "table1-text",
            Workload::RacyStream => "racy-stream",
            Workload::Service => "service",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|workload| workload.name() == name)
    }
}

struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    work: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload table1-rwf|table1-text|racy-stream|service \
--seed N --seconds S --trace 0|1 [--work-dir DIR]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds: f64 = 10.0;
    let mut traced = false;
    let mut work = PathBuf::from(".bench_work");
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload {value}\n{USAGE}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--work-dir" => work = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
        seed: seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?,
        seconds,
        traced,
        work,
    })
}

fn run(options: &Options) -> Result<(), String> {
    let host = host::Fingerprint::probe();
    let mut result = RunResult { correct: true, ..RunResult::default() };
    match options.workload {
        Workload::Service => {
            service::run(options.seed, options.seconds, options.traced, &options.work, &mut result)?
        }
        local => local::run(
            local,
            options.seed,
            options.seconds,
            options.traced,
            &options.work,
            &mut result,
        )?,
    }
    if result.tally.attempted == 0 || result.tally.failed == result.tally.attempted {
        result.wrong("no operation produced a checked verdict".to_owned());
    }
    let metrics = result.end_to_end.iter_mut().chain(&mut result.unbounded);
    for m in metrics.chain(result.per_layer.iter_mut()) {
        if !m.value.is_finite() {
            result.notes.push(format!("{} was not finite; reported as 0", m.name));
            m.value = 0.0;
        }
    }
    let name = options.workload.name();
    report::print_human(name, options.seed, &host, &result);
    let saved = options.work.join("results").join(format!(
        "{name}-seed{}-trace{}.json",
        options.seed,
        u8::from(options.traced)
    ));
    report::save(&saved, name, options.seed, options.traced, &host, &result)
        .map_err(|error| format!("cannot save {}: {error}", saved.display()))?;
    println!("{}", report::result_line(&result, options.traced));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("analyze") {
        local::child(&args[1..])
    } else {
        parse(&args).and_then(|options| run(&options))
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
