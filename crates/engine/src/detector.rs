//! The unified [`Detector`] trait, its implementations, and the
//! [`DetectorSpec`] configuration that names a detector set.

use rapid_trace::{Event, NameResolver, Race};

use crate::outcome::{Metrics, Outcome};

/// A push-based race detector: one event in, zero or more races out.
///
/// All detectors in the workspace implement this trait through their
/// streaming cores ([`HbStream`](rapid_hb::HbStream),
/// [`FastTrackStream`](rapid_hb::FastTrackStream),
/// [`WcpStream`](rapid_wcp::WcpStream), [`McmStream`](rapid_mcm::McmStream)),
/// so one pass over an event stream can drive any combination of analyses —
/// that is what [`Engine`](crate::Engine) does.
///
/// Contract: events are fed in trace order; [`Detector::finish`] is called
/// exactly once, after the last event, with a
/// [`NameResolver`] for the ids the events used —
/// the detector resolves its per-pair race stats (its
/// [`RaceSink`](rapid_trace::RaceSink)) into the name-keyed, mergeable
/// [`Outcome`] at that boundary.  Windowed detectors may buffer and report
/// races late (at window boundaries or at `finish`), so per-event return
/// values are a *progress* signal, not a completeness guarantee — the final
/// [`Outcome::races`] is.
pub trait Detector {
    /// The detector's display name.
    fn name(&self) -> String;

    /// Processes the next event of the stream, returning the races flagged
    /// at (or unlocked by) it.  The slice is valid until the next call.
    fn on_event(&mut self, event: &Event) -> &[Race];

    /// Ends the stream and returns the accumulated outcome, with race pairs
    /// resolved to names through `names`.
    fn finish(&mut self, names: &dyn NameResolver) -> Outcome;
}

/// A named detector configuration: which detectors to build, plus the MCM
/// window parameters.  This is the unit the `engine` CLI parses from
/// `--detectors`/`--window`/`--timeout` — and the unit the distributed
/// coordinator ships to workers in its `WELCOME` message, so every worker
/// in a fleet builds byte-identical detector sets without being configured
/// by hand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectorSpec {
    /// Detector names, in registration order (`wcp`, `hb`, `fasttrack`/`ft`,
    /// `mcm`).
    pub detectors: Vec<String>,
    /// MCM window size (ignored unless `mcm` is listed).
    pub window: usize,
    /// MCM solver timeout in seconds (ignored unless `mcm` is listed).
    pub timeout_secs: u64,
}

impl Default for DetectorSpec {
    /// The CLI default: WCP + HB, MCM parameters at their defaults.
    fn default() -> Self {
        let mcm = rapid_mcm::McmConfig::default();
        DetectorSpec {
            detectors: vec!["wcp".to_owned(), "hb".to_owned()],
            window: mcm.window_size,
            timeout_secs: mcm.solver_timeout_secs,
        }
    }
}

impl DetectorSpec {
    /// Builds one fresh detector set (threads are discovered from the event
    /// stream).
    ///
    /// # Errors
    ///
    /// An unknown detector name.
    pub fn build(&self) -> Result<Vec<Box<dyn Detector>>, String> {
        self.detectors
            .iter()
            .map(|name| -> Result<Box<dyn Detector>, String> {
                Ok(match name.as_str() {
                    "wcp" => Box::new(rapid_wcp::WcpStream::new()),
                    "hb" => Box::new(rapid_hb::HbStream::new()),
                    "fasttrack" | "ft" => Box::new(rapid_hb::FastTrackStream::new()),
                    "mcm" => Box::new(rapid_mcm::McmStream::new(rapid_mcm::McmConfig::new(
                        self.window,
                        self.timeout_secs,
                    ))),
                    other => {
                        return Err(format!(
                            "unknown detector `{other}` (expected wcp, hb, fasttrack or mcm)"
                        ))
                    }
                })
            })
            .collect()
    }

    /// Checks the spec without keeping the built detectors — call once up
    /// front so worker factories cannot fail mid-run.
    ///
    /// # Errors
    ///
    /// An unknown detector name.
    pub fn validate(&self) -> Result<(), String> {
        self.build().map(drop)
    }
}

impl Detector for rapid_hb::HbStream {
    fn name(&self) -> String {
        "hb".to_owned()
    }

    fn on_event(&mut self, event: &Event) -> &[Race] {
        rapid_hb::HbStream::on_event(self, event)
    }

    fn finish(&mut self, names: &dyn NameResolver) -> Outcome {
        let stats = self.stats();
        let mut metrics = Metrics::new();
        metrics.record_sum("race_events", stats.race_events as f64);
        Outcome::from_sink(Detector::name(self), stats.events, self.sink(), metrics, names)
    }
}

impl Detector for rapid_hb::FastTrackStream {
    fn name(&self) -> String {
        "hb-fasttrack".to_owned()
    }

    fn on_event(&mut self, event: &Event) -> &[Race] {
        rapid_hb::FastTrackStream::on_event(self, event)
    }

    fn finish(&mut self, names: &dyn NameResolver) -> Outcome {
        let stats = self.stats();
        let mut metrics = Metrics::new();
        metrics.record_sum("race_events", stats.race_events as f64);
        Outcome::from_sink(Detector::name(self), stats.events, self.sink(), metrics, names)
    }
}

impl Detector for rapid_wcp::WcpStream {
    fn name(&self) -> String {
        "wcp".to_owned()
    }

    fn on_event(&mut self, event: &Event) -> &[Race] {
        rapid_wcp::WcpStream::on_event(self, event)
    }

    fn finish(&mut self, names: &dyn NameResolver) -> Outcome {
        let stats = rapid_wcp::WcpStream::finish(self);
        let mut metrics = Metrics::new();
        metrics.record_max("max_queue_percentage", stats.max_queue_percentage());
        metrics.record_max("max_queue_entries", stats.max_queue_entries as f64);
        metrics.record_max("threads", stats.threads as f64);
        metrics.record_max("locks", stats.locks as f64);
        metrics.record_sum("queue_enqueues", stats.queue_enqueues as f64);
        metrics.record_sum("clock_joins", stats.clock_joins as f64);
        metrics.record_sum("race_events", stats.race_events as f64);
        metrics.record_sum("epoch_fast_reads", stats.epoch_fast_reads as f64);
        metrics.record_sum("epoch_fast_writes", stats.epoch_fast_writes as f64);
        metrics.record_sum("pool_taken", stats.pool_taken as f64);
        metrics.record_sum("pool_recycled", stats.pool_recycled as f64);
        Outcome::from_sink(Detector::name(self), stats.events, self.sink(), metrics, names)
    }
}

impl Detector for rapid_mcm::McmStream {
    fn name(&self) -> String {
        format!("mcm({})", self.config().label())
    }

    fn on_event(&mut self, event: &Event) -> &[Race] {
        rapid_mcm::McmStream::on_event(self, event)
    }

    fn finish(&mut self, names: &dyn NameResolver) -> Outcome {
        rapid_mcm::McmStream::finish(self);
        let stats = self.stats();
        let mut metrics = Metrics::new();
        metrics.record_sum("windows", stats.windows as f64);
        metrics.record_sum("candidate_pairs", stats.candidate_pairs as f64);
        metrics.record_sum("witnessed_pairs", stats.witnessed_pairs as f64);
        metrics.record_sum("budget_exhausted_pairs", stats.budget_exhausted_pairs as f64);
        metrics.record_sum("race_events", self.sink().race_events() as f64);
        Outcome::from_sink(Detector::name(self), self.events_seen(), self.sink(), metrics, names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_trace::TraceBuilder;

    /// The per-crate typed counters (`WcpStats::merge`, `HbStats::merge`,
    /// `McmStats::merge`) must stay in lockstep with the engine's
    /// [`Metrics`] aggregation rules, since both describe the same fields.
    /// This test locks the correspondence for every shared field: merging
    /// two runs' stats in the detector crate and re-deriving metrics equals
    /// merging the two runs' [`Metrics`] directly.  (The one intentional
    /// exception is WCP's *derived ratio* `max_queue_percentage`: `Metrics`
    /// merges it as worst-shard Max, while a merged `WcpStats` would
    /// recompute `max_entries / summed_events` — so it is excluded here and
    /// documented on both sides.)
    #[test]
    fn typed_stats_merges_agree_with_metric_aggregation() {
        let trace_of = |scripts: &[(&str, &str)]| {
            let mut b = TraceBuilder::new();
            let t1 = b.thread("t1");
            let t2 = b.thread("t2");
            let l = b.lock("l");
            for &(thread, var) in scripts {
                let thread = if thread == "t1" { t1 } else { t2 };
                let var = b.variable(var);
                b.acquire(thread, l);
                b.write(thread, var);
                b.release(thread, l);
                b.write(thread, var);
            }
            b.finish()
        };
        let first = trace_of(&[("t1", "x"), ("t2", "x"), ("t1", "y")]);
        let second = trace_of(&[("t2", "z"), ("t1", "z")]);

        // WCP: raw counters align field by field.
        let wcp_stats = |trace: &rapid_trace::Trace| {
            let mut stream = rapid_wcp::WcpStream::new();
            for event in trace.events() {
                stream.on_event(event);
            }
            stream.finish()
        };
        let wcp_metrics = |trace: &rapid_trace::Trace| {
            let mut stream = rapid_wcp::WcpStream::new();
            for event in trace.events() {
                Detector::on_event(&mut stream, event);
            }
            Detector::finish(&mut stream, trace).metrics
        };
        let mut merged_stats = wcp_stats(&first);
        merged_stats.merge(&wcp_stats(&second));
        let mut merged_metrics = wcp_metrics(&first);
        merged_metrics.merge(&wcp_metrics(&second));
        for (name, value) in [
            ("max_queue_entries", merged_stats.max_queue_entries as f64),
            ("threads", merged_stats.threads as f64),
            ("locks", merged_stats.locks as f64),
            ("queue_enqueues", merged_stats.queue_enqueues as f64),
            ("clock_joins", merged_stats.clock_joins as f64),
            ("race_events", merged_stats.race_events as f64),
            ("epoch_fast_reads", merged_stats.epoch_fast_reads as f64),
            ("epoch_fast_writes", merged_stats.epoch_fast_writes as f64),
            ("pool_taken", merged_stats.pool_taken as f64),
            ("pool_recycled", merged_stats.pool_recycled as f64),
        ] {
            assert_eq!(merged_metrics.get(name), Some(value), "wcp {name} drifted");
        }

        // HB: both fields align.
        let hb_run = |trace: &rapid_trace::Trace| {
            let mut stream = rapid_hb::HbStream::new();
            for event in trace.events() {
                stream.on_event(event);
            }
            stream.stats()
        };
        let mut hb_merged = hb_run(&first);
        hb_merged.merge(&hb_run(&second));
        assert_eq!(hb_merged.events, first.len() + second.len());
        let mut hb_metrics = {
            let mut stream = rapid_hb::HbStream::new();
            for event in first.events() {
                Detector::on_event(&mut stream, event);
            }
            Detector::finish(&mut stream, &first).metrics
        };
        hb_metrics.merge(&{
            let mut stream = rapid_hb::HbStream::new();
            for event in second.events() {
                Detector::on_event(&mut stream, event);
            }
            Detector::finish(&mut stream, &second).metrics
        });
        assert_eq!(hb_metrics.get("race_events"), Some(hb_merged.race_events as f64));

        // MCM: every field sums on both sides.
        let mcm_run = |trace: &rapid_trace::Trace| {
            let mut stream = rapid_mcm::McmStream::new(rapid_mcm::McmConfig::default());
            for event in trace.events() {
                stream.on_event(event);
            }
            stream.finish();
            stream.stats().clone()
        };
        let mut mcm_merged = mcm_run(&first);
        mcm_merged.merge(&mcm_run(&second));
        let mut mcm_metrics = {
            let mut stream = rapid_mcm::McmStream::new(rapid_mcm::McmConfig::default());
            for event in first.events() {
                Detector::on_event(&mut stream, event);
            }
            Detector::finish(&mut stream, &first).metrics
        };
        mcm_metrics.merge(&{
            let mut stream = rapid_mcm::McmStream::new(rapid_mcm::McmConfig::default());
            for event in second.events() {
                Detector::on_event(&mut stream, event);
            }
            Detector::finish(&mut stream, &second).metrics
        });
        for (name, value) in [
            ("windows", mcm_merged.windows as f64),
            ("candidate_pairs", mcm_merged.candidate_pairs as f64),
            ("witnessed_pairs", mcm_merged.witnessed_pairs as f64),
            ("budget_exhausted_pairs", mcm_merged.budget_exhausted_pairs as f64),
        ] {
            assert_eq!(mcm_metrics.get(name), Some(value), "mcm {name} drifted");
        }
    }

    #[test]
    fn trait_objects_cover_all_detectors() {
        let mut b = TraceBuilder::new();
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        let x = b.variable("x");
        b.write(t1, x);
        b.write(t2, x);
        let trace = b.finish();

        let mut detectors: Vec<Box<dyn Detector>> = vec![
            Box::new(rapid_hb::HbStream::new()),
            Box::new(rapid_hb::FastTrackStream::new()),
            Box::new(rapid_wcp::WcpStream::new()),
            Box::new(rapid_mcm::McmStream::new(rapid_mcm::McmConfig::default())),
        ];
        for detector in &mut detectors {
            for event in trace.events() {
                detector.on_event(event);
            }
            let outcome = detector.finish(&trace);
            assert_eq!(outcome.distinct_pairs(), 1, "{}", outcome.detector);
            assert_eq!(outcome.shards, 1);
            assert_eq!(outcome.metric("race_events"), Some(1.0), "{}", outcome.detector);
            assert!(!outcome.telemetry().is_empty());
            let pair = outcome.races.keys().next().expect("one race pair");
            assert_eq!(pair.variable, "x", "{}", outcome.detector);
        }
    }
}
