//! What the host is and what it costs to measure on it: the fingerprint
//! every result carries, plus the `/proc` readers for CPU time and peak
//! memory.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Linux reports process CPU time in clock ticks of `USER_HZ`, which is 100
/// on every mainstream kernel configuration.
const TICKS_PER_SECOND: f64 = 100.0;

/// The host description recorded with every result.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    /// How many cores two spinning threads actually get: 2.0 on a host
    /// with two free cores, about 1.0 when the host delivers one.
    pub parallel_cores: f64,
    /// The cost of one `Instant::now()` plus `elapsed()`.
    pub clock_ns: f64,
    pub rustc: String,
    pub profile: &'static str,
}

impl Fingerprint {
    /// Probes the host (about 0.2 s).
    pub fn probe() -> Fingerprint {
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model(),
            parallel_cores: parallel_cores(),
            clock_ns: clock_cost_ns(),
            rustc: rustc_version(),
            profile: if cfg!(debug_assertions) { "debug" } else { "release" },
        }
    }

    /// `(key, value)` pairs, values already rendered as JSON.
    pub fn json_fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("nproc", self.nproc.to_string()),
            ("cpu_model", crate::report::json_string(&self.cpu_model)),
            ("parallel_cores", crate::report::json_number(self.parallel_cores)),
            ("clock_ns", crate::report::json_number(self.clock_ns)),
            ("rustc", crate::report::json_string(&self.rustc)),
            ("profile", crate::report::json_string(self.profile)),
        ]
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|output| output.status.success())
        .map(|output| String::from_utf8_lossy(&output.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// A fixed amount of integer work, opaque to the optimizer.
fn spin(rounds: u64) -> u64 {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for round in 0..rounds {
        state = black_box(state.rotate_left(7) ^ round).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    state
}

/// One spinning thread against two: `2 × t1 / t2` cores.
fn parallel_cores() -> f64 {
    const ROUNDS: u64 = 20_000_000;
    black_box(spin(ROUNDS / 10));
    let start = Instant::now();
    black_box(spin(ROUNDS));
    let one = start.elapsed();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let other = scope.spawn(|| black_box(spin(ROUNDS)));
        black_box(spin(ROUNDS));
        other.join().expect("spin thread does not panic");
    });
    let two = start.elapsed();
    2.0 * one.as_secs_f64() / two.as_secs_f64()
}

fn clock_cost_ns() -> f64 {
    const READS: u32 = 1_000_000;
    let start = Instant::now();
    let mut total = Duration::ZERO;
    for _ in 0..READS {
        let now = Instant::now();
        total += black_box(now.elapsed());
    }
    black_box(total);
    start.elapsed().as_nanos() as f64 / f64::from(READS)
}

/// `/proc/<pid>` of a child process, or `/proc/self`.
fn proc_dir(pid: Option<u32>) -> String {
    pid.map_or_else(|| "/proc/self".to_owned(), |pid| format!("/proc/{pid}"))
}

/// The numeric fields of `/proc/<pid>/stat` after the command name, which
/// may itself contain spaces and parentheses.
fn stat_fields(pid: Option<u32>) -> Option<Vec<u64>> {
    let stat = std::fs::read_to_string(format!("{}/stat", proc_dir(pid))).ok()?;
    let (_, rest) = stat.rsplit_once(')')?;
    // rest[0] is the state letter; numbers follow.
    Some(rest.split_whitespace().skip(1).map(|field| field.parse().unwrap_or(0)).collect())
}

/// User + system CPU seconds of a process so far; with `reaped`, also of
/// its children that have exited and been waited for.  `None` once the
/// process is gone.
pub fn cpu_seconds(pid: Option<u32>, reaped: bool) -> Option<f64> {
    let fields = stat_fields(pid)?;
    // Fields 14–17 of proc_pid_stat(5) (utime, stime, cutime, cstime)
    // sit at offsets 10–13 once the pid, name and state are skipped.
    let own = fields.get(10)? + fields.get(11)?;
    let children = if reaped { fields.get(12)? + fields.get(13)? } else { 0 };
    Some((own + children) as f64 / TICKS_PER_SECOND)
}

/// Peak resident memory (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let status = std::fs::read_to_string(format!("{}/status", proc_dir(pid))).ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        let before = cpu_seconds(None, true).expect("own stat is readable");
        black_box(spin(50_000_000));
        let after = cpu_seconds(None, true).expect("own stat is readable");
        assert!(after > before, "spinning costs CPU time");
        assert!(peak_rss_mb(None).expect("own status is readable") > 0.0);
    }
}
