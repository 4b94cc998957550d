//! A single time series: an append-mostly, time-ordered list of samples.

use crate::sample::{Sample, TimestampMs};
use std::time::Duration;

/// One time series `mᵢ = (t₀, …, tₙ)` of the monitoring data `Ω`.
///
/// Samples are kept sorted by timestamp. Appends at or after the current end
/// are O(1); out-of-order inserts (rare — e.g. backfilled data) fall back to
/// a binary-search insert.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    samples: Vec<Sample>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample, keeping the series sorted by timestamp.
    pub fn push(&mut self, sample: Sample) {
        match self.samples.last() {
            Some(last) if last.timestamp > sample.timestamp => {
                let idx = self
                    .samples
                    .partition_point(|s| s.timestamp <= sample.timestamp);
                self.samples.insert(idx, sample);
            }
            _ => self.samples.push(sample),
        }
    }

    /// All samples in time order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The latest sample at or before `at`.
    pub fn latest_at(&self, at: TimestampMs) -> Option<&Sample> {
        let idx = self.samples.partition_point(|s| s.timestamp <= at);
        idx.checked_sub(1).map(|i| &self.samples[i])
    }

    /// The samples within the window `(at - window, at]`. A zero window
    /// yields at most the latest sample at or before `at`.
    pub fn window(&self, at: TimestampMs, window: Duration) -> &[Sample] {
        let end = self.samples.partition_point(|s| s.timestamp <= at);
        if window.is_zero() {
            return match end.checked_sub(1) {
                Some(i) => &self.samples[i..end],
                None => &[],
            };
        }
        let start_ts = at.saturating_sub(window);
        let start = self.samples.partition_point(|s| s.timestamp <= start_ts);
        // When the window start falls before the first sample the
        // partition_point is 0 and we include everything up to `end`.
        &self.samples[start.min(end)..end]
    }

    /// Drops samples older than `at - retention`, returning how many were
    /// removed. Keeps memory bounded for long experiments.
    pub fn prune(&mut self, at: TimestampMs, retention: Duration) -> usize {
        let cutoff = at.saturating_sub(retention);
        let keep_from = self.samples.partition_point(|s| s.timestamp < cutoff);
        self.samples.drain(..keep_from).count()
    }

    /// The last sample of the series, if any.
    pub fn last(&self) -> Option<&Sample> {
        self.samples.last()
    }
}

impl FromIterator<Sample> for TimeSeries {
    fn from_iter<T: IntoIterator<Item = Sample>>(iter: T) -> Self {
        let mut series = TimeSeries::new();
        for sample in iter {
            series.push(sample);
        }
        series
    }
}

impl Extend<Sample> for TimeSeries {
    fn extend<T: IntoIterator<Item = Sample>>(&mut self, iter: T) {
        for sample in iter {
            self.push(sample);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(points: &[(u64, f64)]) -> TimeSeries {
        points
            .iter()
            .map(|(t, v)| Sample::new(TimestampMs::from_secs(*t), *v))
            .collect()
    }

    #[test]
    fn push_keeps_order_even_out_of_order() {
        let mut s = TimeSeries::new();
        s.push(Sample::new(TimestampMs::from_secs(10), 1.0));
        s.push(Sample::new(TimestampMs::from_secs(5), 2.0));
        s.push(Sample::new(TimestampMs::from_secs(20), 3.0));
        let times: Vec<u64> = s
            .samples()
            .iter()
            .map(|s| s.timestamp.as_millis())
            .collect();
        assert_eq!(times, vec![5_000, 10_000, 20_000]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.last().unwrap().value, 3.0);
    }

    #[test]
    fn latest_at_finds_preceding_sample() {
        let s = series(&[(10, 1.0), (20, 2.0), (30, 3.0)]);
        assert!(s.latest_at(TimestampMs::from_secs(5)).is_none());
        assert_eq!(s.latest_at(TimestampMs::from_secs(10)).unwrap().value, 1.0);
        assert_eq!(s.latest_at(TimestampMs::from_secs(25)).unwrap().value, 2.0);
        assert_eq!(s.latest_at(TimestampMs::from_secs(99)).unwrap().value, 3.0);
    }

    #[test]
    fn window_selects_half_open_interval() {
        let s = series(&[(10, 1.0), (20, 2.0), (30, 3.0), (40, 4.0)]);
        // (10, 30] → samples at 20 and 30
        let w = s.window(TimestampMs::from_secs(30), Duration::from_secs(20));
        let values: Vec<f64> = w.iter().map(|s| s.value).collect();
        assert_eq!(values, vec![2.0, 3.0]);
        // Zero window → just the latest at or before.
        let w = s.window(TimestampMs::from_secs(35), Duration::ZERO);
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].value, 3.0);
        // Window before any data → empty.
        assert!(s
            .window(TimestampMs::from_secs(5), Duration::from_secs(2))
            .is_empty());
        // Window larger than the whole series → everything up to `at`.
        assert_eq!(
            s.window(TimestampMs::from_secs(100), Duration::from_secs(1_000))
                .len(),
            4
        );
    }

    #[test]
    fn prune_drops_old_samples() {
        let mut s = series(&[(10, 1.0), (20, 2.0), (30, 3.0), (40, 4.0)]);
        let removed = s.prune(TimestampMs::from_secs(40), Duration::from_secs(15));
        assert_eq!(removed, 2);
        assert_eq!(s.len(), 2);
        assert_eq!(s.samples()[0].value, 3.0);
    }

    #[test]
    fn extend_and_collect() {
        let mut s = series(&[(10, 1.0)]);
        s.extend(vec![Sample::new(TimestampMs::from_secs(5), 0.5)]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.samples()[0].value, 0.5);
    }
}
