//! Order statistics and failure accounting shared by every workload.

/// The percentiles a tail may be reported at, highest first.
const TAIL_CANDIDATES: [f64; 4] = [99.0, 95.0, 90.0, 75.0];

/// Samples a percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (0–100) of `values`, interpolated linearly between
/// closest ranks (the rule of numpy's default and of Python's
/// `statistics.quantiles(method="inclusive")`).
///
/// # Panics
///
/// On an empty slice or a NaN sample: both are harness bugs.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// How many of `n` samples lie strictly beyond the `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    (n as f64 * (100.0 - p) / 100.0 + 1e-9).floor() as usize
}

/// Whether `n` samples support reporting the `p`-th percentile: at least
/// [`MIN_BEYOND`] of them must lie beyond it.
pub fn supports(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_BEYOND
}

/// The highest tail percentile `n` samples support, if any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES.into_iter().find(|&p| supports(n, p))
}

/// Operations attempted and failed in one run.  An operation fails when it
/// errors, times out, or returns a verdict that differs from the known
/// answer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds another tally's operations.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed operations as a share of those attempted (0 when nothing
    /// was attempted).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&values), 2.5);
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&values, 100.0), 4.0);
        assert!((percentile(&values, 90.0) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p90 needs 100 samples, p99 needs 1000, p50 needs 20.
        assert!(!supports(99, 90.0));
        assert!(supports(100, 90.0));
        assert!(!supports(999, 99.0));
        assert!(supports(1000, 99.0));
        assert!(!supports(19, 50.0));
        assert!(supports(20, 50.0));
        assert_eq!(samples_beyond(180, 95.0), 9);
        assert_eq!(samples_beyond(200, 95.0), 10);
    }

    #[test]
    fn the_reported_tail_is_the_highest_supported_percentile() {
        assert_eq!(tail_percentile(30), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(150), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(5000), Some(99.0));
        for n in [20, 40, 100, 150, 200, 1000, 4321] {
            if let Some(p) = tail_percentile(n) {
                assert!(samples_beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn failed_share_counts_every_kind_of_failure_against_attempts() {
        let mut tally = Tally::default();
        assert_eq!(tally.failed_share(), 0.0, "nothing attempted is not a failure");
        for ok in [true, true, false, true] {
            tally.record(ok);
        }
        assert_eq!(tally, Tally { attempted: 4, failed: 1 });
        assert_eq!(tally.failed_share(), 0.25);
        tally.absorb(Tally { attempted: 6, failed: 4 });
        assert_eq!(tally.failed_share(), 0.5);
    }
}
