//! Materializing generated traces as files, in any of the trace encodings.
//!
//! The generators in this crate produce in-memory [`Trace`]s; benchmarks and
//! fixtures need them on disk — std text for human-auditable cases, the
//! binary wire format (`.rwf` version 2, see `docs/FORMAT.md`) for the
//! string-free ingestion path.  [`write_trace_file`] is the one place that
//! decision is made, so harnesses (perfbench's inputs, the engine's shard
//! tests, the examples) emit every encoding the same way.

use std::io;
use std::path::Path;

use rapid_trace::format;
use rapid_trace::Trace;

/// Writes `trace` to `path`, choosing the encoding by extension: `.rwf` is
/// the binary wire format (streamed through one
/// [`RwfStreamWriter`](format::RwfStreamWriter)), `.csv` is CSV, anything
/// else is std text.
///
/// # Errors
///
/// Propagates file-creation and write errors.
///
/// # Examples
///
/// ```no_run
/// use rapid_gen::{benchmarks, emit};
///
/// let model = benchmarks::benchmark("account").unwrap();
/// emit::write_trace_file(&model.trace, "account.rwf").unwrap();
/// emit::write_trace_file(&model.trace, "account.std").unwrap();
/// ```
pub fn write_trace_file(trace: &Trace, path: impl AsRef<Path>) -> io::Result<()> {
    // The extension→encoding rule lives in `rapid_trace::format` (shared
    // with `engine convert`); this is the generator-facing name for it.
    format::write_trace_file(trace, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;

    #[test]
    fn every_extension_round_trips_the_account_model() {
        let model = benchmarks::benchmark("account").expect("known benchmark");
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        for name in [format!("gen-emit-{pid}.std"), format!("gen-emit-{pid}.rwf")] {
            let path = dir.join(&name);
            write_trace_file(&model.trace, &path).unwrap();
            let reader = format::AnyReader::open(&path, format::TextFormat::Std, true)
                .expect("emitted file opens");
            let roundtrip = format::collect_any(reader).expect("emitted file parses");
            assert_eq!(roundtrip.len(), model.trace.len(), "{name}");
            assert_eq!(
                format::write_std(&roundtrip),
                format::write_std(&model.trace),
                "{name} drifts from the model"
            );
            std::fs::remove_file(&path).ok();
        }
    }
}
