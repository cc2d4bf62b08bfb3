//! Tuning knobs of the windowed MCM search.

/// Configuration of the RVPredict-style windowed analysis.
///
/// The two primary knobs mirror RVPredict's command line: the window size
/// (events per window) and the per-window solver timeout in seconds.  The
/// timeout is mapped to a deterministic search-node quota via
/// [`McmConfig::nodes_per_second`] so that results are reproducible across
/// machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McmConfig {
    /// Number of events per analysis window (RVPredict sweeps 1K–10K).
    pub window_size: usize,
    /// Per-window solver budget in "seconds" (RVPredict sweeps 60–240 s).
    pub solver_timeout_secs: u64,
    /// How many search-node expansions one "second" of solver budget buys.
    pub nodes_per_second: u64,
}

impl Default for McmConfig {
    fn default() -> Self {
        McmConfig { window_size: 1_000, solver_timeout_secs: 60, nodes_per_second: 5_000 }
    }
}

impl McmConfig {
    /// Creates a config with the given window size and solver timeout,
    /// keeping the default node/second mapping.
    pub fn new(window_size: usize, solver_timeout_secs: u64) -> Self {
        McmConfig { window_size, solver_timeout_secs, ..McmConfig::default() }
    }

    /// The per-window node budget implied by the timeout.
    pub fn window_budget(&self) -> usize {
        (self.solver_timeout_secs.saturating_mul(self.nodes_per_second)) as usize
    }

    /// The parameter grid of the paper's Figure 7 (window sizes 1K, 2K, 5K,
    /// 10K crossed with timeouts 60 s, 120 s, 240 s).
    pub fn figure7_grid() -> Vec<McmConfig> {
        let mut grid = Vec::new();
        for &window_size in &[1_000usize, 2_000, 5_000, 10_000] {
            for &timeout in &[60u64, 120, 240] {
                grid.push(McmConfig::new(window_size, timeout));
            }
        }
        grid
    }

    /// The two configurations reported in Table 1 columns 8–9:
    /// `(w = 1K, 60 s)` and `(w = 10K, 240 s)`.
    pub fn table1_pair() -> (McmConfig, McmConfig) {
        (McmConfig::new(1_000, 60), McmConfig::new(10_000, 240))
    }

    /// A short human-readable label such as `"w=1K,t=60s"`.
    pub fn label(&self) -> String {
        let window = if self.window_size.is_multiple_of(1_000) {
            format!("{}K", self.window_size / 1_000)
        } else {
            self.window_size.to_string()
        };
        format!("w={window},t={}s", self.solver_timeout_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_rvpredict_smallest_setting() {
        let config = McmConfig::default();
        assert_eq!(config.window_size, 1_000);
        assert_eq!(config.solver_timeout_secs, 60);
        assert!(config.window_budget() > 0);
    }

    #[test]
    fn budget_scales_with_timeout() {
        let short = McmConfig::new(1_000, 60);
        let long = McmConfig::new(1_000, 240);
        assert_eq!(long.window_budget(), 4 * short.window_budget());
    }

    #[test]
    fn figure7_grid_has_twelve_points() {
        let grid = McmConfig::figure7_grid();
        assert_eq!(grid.len(), 12);
        assert_eq!(grid[0].label(), "w=1K,t=60s");
        assert_eq!(grid[11].label(), "w=10K,t=240s");
    }

    #[test]
    fn table1_pair_matches_columns_8_and_9() {
        let (small, large) = McmConfig::table1_pair();
        assert_eq!((small.window_size, small.solver_timeout_secs), (1_000, 60));
        assert_eq!((large.window_size, large.solver_timeout_secs), (10_000, 240));
    }

    #[test]
    fn label_formats_non_round_windows() {
        assert_eq!(McmConfig::new(1_500, 10).label(), "w=1500,t=10s");
    }
}
