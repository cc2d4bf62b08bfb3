//! One run's result: the metrics, the verdict tally, the input identities,
//! and how they are printed and saved.

use std::fmt::Write as _;
use std::path::Path;

use rapid_engine::dist::ContentId;

use crate::host::Fingerprint;
use crate::stats::Tally;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// Builds a metric list without repeating the struct name.
pub fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric { name: name.to_owned(), value, unit: unit.to_owned() }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted and failed (shards locally, jobs on the
    /// service).
    pub tally: Tally,
    /// Every verdict matched its known answer and every input was
    /// reproduced byte for byte by each set-up.
    pub correct: bool,
    /// The bounded end-to-end metrics: the result line of an untraced run.
    pub end_to_end: Vec<Metric>,
    /// End-to-end figures too unsteady on a shared host to hold a bound
    /// (job latencies): printed and saved, not in the result line.
    pub unbounded: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// The identity of every input file, so two runs can show they read
    /// identical bytes.
    pub inputs: Vec<(String, ContentId)>,
    /// Human-readable lines: sample counts, self times, failures.
    pub notes: Vec<String>,
}

impl RunResult {
    /// Records a failed check; the run is then reported as incorrect.
    pub fn wrong(&mut self, message: String) {
        self.correct = false;
        self.notes.push(format!("WRONG: {message}"));
    }
}

/// A JSON string literal.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit the value has (`null` is never needed:
/// metrics are checked finite where they are made).
pub fn json_number(value: f64) -> String {
    assert!(value.is_finite(), "metric values are finite");
    format!("{value}")
}

fn metrics_object(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(&m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The one-line result the benchmark prints last.
pub fn result_line(result: &RunResult, traced: bool) -> String {
    let metrics = if traced { &result.per_layer } else { &result.end_to_end };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        result.correct,
        result.tally.attempted,
        result.tally.failed,
        metrics_object(metrics)
    )
}

/// Prints the human-readable part of a result.
pub fn print_human(workload: &str, seed: u64, host: &Fingerprint, result: &RunResult) {
    println!("workload {workload}, seed {seed}");
    println!(
        "host: nproc {}, {}, {:.2} cores measured, clock read {:.1} ns, {}, {} build",
        host.nproc, host.cpu_model, host.parallel_cores, host.clock_ns, host.rustc, host.profile
    );
    for (name, content) in &result.inputs {
        println!("input {name}: {content}");
    }
    for note in &result.notes {
        println!("{note}");
    }
    for m in result.end_to_end.iter().chain(&result.unbounded).chain(&result.per_layer) {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<36} {:>16.6} ratio ({} of {} operations failed)",
        "failed_share",
        result.tally.failed_share(),
        result.tally.failed,
        result.tally.attempted
    );
}

/// Saves the full result (both metric sets, inputs, host, notes) as JSON.
pub fn save(
    path: &Path,
    workload: &str,
    seed: u64,
    traced: bool,
    host: &Fingerprint,
    result: &RunResult,
) -> std::io::Result<()> {
    let host_fields: Vec<String> = host
        .json_fields()
        .into_iter()
        .map(|(key, value)| format!("{}: {value}", json_string(key)))
        .collect();
    let inputs: Vec<String> = result
        .inputs
        .iter()
        .map(|(name, content)| {
            format!("{}: {}", json_string(name), json_string(&content.to_string()))
        })
        .collect();
    let notes: Vec<String> = result.notes.iter().map(|note| json_string(note)).collect();
    let body = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \
\"failed\": {}, \"failed_share\": {}, \"host\": {{{}}}, \"inputs\": {{{}}}, \"end_to_end\": {}, \
\"unbounded\": {}, \"per_layer\": {}, \"notes\": [{}]}}\n",
        json_string(workload),
        u8::from(traced),
        result.correct,
        result.tally.attempted,
        result.tally.failed,
        json_number(result.tally.failed_share()),
        host_fields.join(", "),
        inputs.join(", "),
        metrics_object(&result.end_to_end),
        metrics_object(&result.unbounded),
        metrics_object(&result.per_layer),
        notes.join(", "),
    );
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let result = RunResult {
            tally: Tally { attempted: 3, failed: 1 },
            correct: true,
            end_to_end: vec![metric("setup_s", 0.5, "s")],
            per_layer: vec![metric("wcp.finish_ms", 2.0, "ms")],
            ..RunResult::default()
        };
        assert_eq!(
            result_line(&result, false),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \
\"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(result_line(&result, true).contains("\"wcp.finish_ms\": {\"value\": 2, "));
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
