//! Response-time recording and per-phase summarisation.
//!
//! The JMeter load generator of the paper records the end-to-end response
//! time of every request; the evaluation then reports a 3-second moving
//! average over the experiment timeline (Figure 6) and per-phase summary
//! statistics (Table 1). The [`ResponseRecorder`] reproduces both.

use crate::requests::RequestKind;
use bifrost_metrics::{moving_average, SummaryStats};
use bifrost_simnet::SimTime;
use std::time::Duration;

/// One recorded request/response pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponseRecord {
    /// When the request entered the system.
    pub at: SimTime,
    /// The request kind.
    pub kind: RequestKind,
    /// End-to-end response time.
    pub response_time: Duration,
    /// Whether the request completed successfully (HTTP 2xx).
    pub success: bool,
}

/// A named time window of the experiment (one release phase).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseWindow {
    /// The phase name (e.g. `"Canary"`).
    pub name: String,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub to: SimTime,
}

impl PhaseWindow {
    /// Creates a window.
    pub fn new(name: impl Into<String>, from: SimTime, to: SimTime) -> Self {
        Self {
            name: name.into(),
            from,
            to,
        }
    }

    /// Whether a timestamp falls inside the window.
    pub fn contains(&self, at: SimTime) -> bool {
        at >= self.from && at < self.to
    }
}

/// Records response times and produces the evaluation's aggregates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResponseRecorder {
    records: Vec<ResponseRecord>,
}

impl ResponseRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed request.
    pub fn record(&mut self, record: ResponseRecord) {
        self.records.push(record);
    }

    /// Convenience: records a successful request.
    pub fn record_success(&mut self, at: SimTime, kind: RequestKind, response_time: Duration) {
        self.record(ResponseRecord {
            at,
            kind,
            response_time,
            success: true,
        });
    }

    /// All records in insertion order.
    pub fn records(&self) -> &[ResponseRecord] {
        &self.records
    }

    /// Number of recorded requests.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The fraction of failed requests.
    pub fn error_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().filter(|r| !r.success).count() as f64 / self.records.len() as f64
    }

    /// Response times (in milliseconds) of successful requests within a
    /// window; `None` selects the whole run.
    pub fn response_times_ms(&self, window: Option<&PhaseWindow>) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.success)
            .filter(|r| window.map(|w| w.contains(r.at)).unwrap_or(true))
            .map(|r| r.response_time.as_secs_f64() * 1_000.0)
            .collect()
    }

    /// Summary statistics of a window (Table 1 row).
    pub fn summary(&self, window: Option<&PhaseWindow>) -> Option<SummaryStats> {
        SummaryStats::compute(&self.response_times_ms(window))
    }

    /// Per-request-kind summaries over the whole run.
    pub fn summary_by_kind(&self) -> Vec<(RequestKind, SummaryStats)> {
        RequestKind::ALL
            .iter()
            .filter_map(|kind| {
                let times: Vec<f64> = self
                    .records
                    .iter()
                    .filter(|r| r.success && r.kind == *kind)
                    .map(|r| r.response_time.as_secs_f64() * 1_000.0)
                    .collect();
                SummaryStats::compute(&times).map(|s| (*kind, s))
            })
            .collect()
    }

    /// The moving-average response-time series `(elapsed seconds, ms)` with
    /// the given window (Figure 6 uses 3 seconds).
    pub fn moving_average_series(&self, window: Duration) -> Vec<(f64, f64)> {
        let mut points: Vec<(f64, f64)> = self
            .records
            .iter()
            .filter(|r| r.success)
            .map(|r| (r.at.as_secs_f64(), r.response_time.as_secs_f64() * 1_000.0))
            .collect();
        points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
        moving_average(&points, window.as_secs_f64())
    }

    /// Mean response time (ms) in a window, if any request completed there.
    pub fn mean_ms(&self, window: Option<&PhaseWindow>) -> Option<f64> {
        self.summary(window).map(|s| s.mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(at_secs: f64, ms: f64, success: bool) -> ResponseRecord {
        ResponseRecord {
            at: SimTime::from_secs_f64(at_secs),
            kind: RequestKind::Details,
            response_time: Duration::from_secs_f64(ms / 1_000.0),
            success,
        }
    }

    #[test]
    fn summary_over_whole_run_and_windows() {
        let mut recorder = ResponseRecorder::new();
        for i in 0..100 {
            let ms = if i < 50 { 20.0 } else { 30.0 };
            recorder.record(record(i as f64, ms, true));
        }
        assert_eq!(recorder.len(), 100);
        assert!(!recorder.is_empty());
        let all = recorder.summary(None).unwrap();
        assert!((all.mean - 25.0).abs() < 1e-9);

        let first_half = PhaseWindow::new("first", SimTime::ZERO, SimTime::from_secs(50));
        let second_half =
            PhaseWindow::new("second", SimTime::from_secs(50), SimTime::from_secs(100));
        assert!((recorder.summary(Some(&first_half)).unwrap().mean - 20.0).abs() < 1e-9);
        assert!((recorder.mean_ms(Some(&second_half)).unwrap() - 30.0).abs() < 1e-9);
        assert!(first_half.contains(SimTime::from_secs(10)));
        assert!(!first_half.contains(SimTime::from_secs(50)));
    }

    #[test]
    fn failures_are_excluded_from_latency_but_counted_in_error_rate() {
        let mut recorder = ResponseRecorder::new();
        recorder.record(record(1.0, 20.0, true));
        recorder.record(record(2.0, 500.0, false));
        recorder.record_success(
            SimTime::from_secs(3),
            RequestKind::Buy,
            Duration::from_millis(30),
        );
        assert_eq!(recorder.response_times_ms(None).len(), 2);
        assert!((recorder.error_rate() - 1.0 / 3.0).abs() < 1e-12);
        let summary = recorder.summary(None).unwrap();
        assert!((summary.mean - 25.0).abs() < 1e-9);
    }

    #[test]
    fn empty_recorder_has_no_summary() {
        let recorder = ResponseRecorder::new();
        assert!(recorder.summary(None).is_none());
        assert_eq!(recorder.error_rate(), 0.0);
        assert!(recorder
            .moving_average_series(Duration::from_secs(3))
            .is_empty());
        assert!(recorder.summary_by_kind().is_empty());
    }

    #[test]
    fn moving_average_smooths_spikes() {
        let mut recorder = ResponseRecorder::new();
        for i in 0..60 {
            let ms = if i == 30 { 200.0 } else { 20.0 };
            recorder.record(record(i as f64 * 0.5, ms, true));
        }
        let series = recorder.moving_average_series(Duration::from_secs(3));
        assert_eq!(series.len(), 60);
        let peak = series.iter().map(|(_, v)| *v).fold(0.0f64, f64::max);
        // The 200 ms spike is averaged over a 3 s window (7 samples).
        assert!(peak < 60.0, "peak {peak}");
        assert!(peak > 20.0);
    }

    #[test]
    fn per_kind_summaries() {
        let mut recorder = ResponseRecorder::new();
        recorder.record_success(
            SimTime::from_secs(1),
            RequestKind::Buy,
            Duration::from_millis(10),
        );
        recorder.record_success(
            SimTime::from_secs(2),
            RequestKind::Products,
            Duration::from_millis(50),
        );
        recorder.record_success(
            SimTime::from_secs(3),
            RequestKind::Products,
            Duration::from_millis(70),
        );
        let by_kind = recorder.summary_by_kind();
        assert_eq!(by_kind.len(), 2);
        let products = by_kind
            .iter()
            .find(|(k, _)| *k == RequestKind::Products)
            .map(|(_, s)| s)
            .unwrap();
        assert!((products.mean - 60.0).abs() < 1e-9);
    }
}
