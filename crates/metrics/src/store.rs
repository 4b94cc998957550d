//! The metric store: a map of series keys to time series with query
//! evaluation, plus a cheap shared handle for concurrent producers.

use crate::query::RangeQuery;
use crate::sample::{Sample, SeriesKey, TimestampMs};
use crate::series::TimeSeries;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// An in-memory, label-indexed collection of time series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricStore {
    series: BTreeMap<SeriesKey, TimeSeries>,
}

impl MetricStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a sample for the given series (creating the series on first
    /// use).
    pub fn record(&mut self, key: SeriesKey, sample: Sample) {
        self.series.entry(key).or_default().push(sample);
    }

    /// Convenience: records `value` for `key` at time `at`.
    pub fn record_value(&mut self, key: SeriesKey, at: TimestampMs, value: f64) {
        self.record(key, Sample::new(at, value));
    }

    /// Increments a counter series by `delta` at time `at` (the new sample
    /// holds the running total).
    pub fn increment(&mut self, key: SeriesKey, at: TimestampMs, delta: f64) {
        let series = self.series.entry(key).or_default();
        let current = series.last().map(|s| s.value).unwrap_or(0.0);
        series.push(Sample::new(at, current + delta));
    }

    /// Returns the series stored under `key`, if any.
    pub fn series(&self, key: &SeriesKey) -> Option<&TimeSeries> {
        self.series.get(key)
    }

    /// All series keys currently known.
    pub fn keys(&self) -> impl Iterator<Item = &SeriesKey> {
        self.series.keys()
    }

    /// Number of series.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// Total number of samples across all series.
    pub fn sample_count(&self) -> usize {
        self.series.values().map(TimeSeries::len).sum()
    }

    /// Evaluates a query at time `now`: all selected series are windowed,
    /// their windows concatenated in key order, and the aggregation applied
    /// to the union.
    pub fn evaluate(&self, query: &RangeQuery, now: TimestampMs) -> Option<f64> {
        let mut window: Vec<Sample> = Vec::new();
        for (key, series) in &self.series {
            if query.selects(key) {
                window.extend_from_slice(series.window(now, query.window()));
            }
        }
        window.sort_by_key(|s| s.timestamp);
        query.aggregation().apply(&window, query.window())
    }

    /// Prunes samples older than `retention` from every series.
    pub fn prune(&mut self, now: TimestampMs, retention: Duration) -> usize {
        self.series
            .values_mut()
            .map(|s| s.prune(now, retention))
            .sum()
    }
}

/// A cheaply clonable, thread-safe handle to a [`MetricStore`].
///
/// The simulator, the case-study services, and the engine all hold clones of
/// the same handle; writers take the lock briefly per sample.
#[derive(Debug, Clone, Default)]
pub struct SharedMetricStore {
    inner: Arc<RwLock<MetricStore>>,
}

impl SharedMetricStore {
    /// Creates an empty shared store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a sample.
    pub fn record(&self, key: SeriesKey, sample: Sample) {
        self.inner.write().record(key, sample);
    }

    /// Records `value` at `at`.
    pub fn record_value(&self, key: SeriesKey, at: TimestampMs, value: f64) {
        self.inner.write().record_value(key, at, value);
    }

    /// Increments a counter series.
    pub fn increment(&self, key: SeriesKey, at: TimestampMs, delta: f64) {
        self.inner.write().increment(key, at, delta);
    }

    /// Records a batch of samples under a single write lock — the bulk path
    /// used by per-tick traffic recording, where taking the lock per sample
    /// would dominate. A key is cloned only when its series is new.
    pub fn record_many<'a>(&self, samples: impl IntoIterator<Item = (&'a SeriesKey, Sample)>) {
        let mut store = self.inner.write();
        for (key, sample) in samples {
            match store.series.get_mut(key) {
                Some(series) => series.push(sample),
                None => store.record(key.clone(), sample),
            }
        }
    }

    /// Evaluates a query at `now`.
    pub fn evaluate(&self, query: &RangeQuery, now: TimestampMs) -> Option<f64> {
        self.inner.read().evaluate(query, now)
    }

    /// Number of series.
    pub fn series_count(&self) -> usize {
        self.inner.read().series_count()
    }

    /// Total number of samples.
    pub fn sample_count(&self) -> usize {
        self.inner.read().sample_count()
    }

    /// Prunes samples older than `retention`.
    pub fn prune(&self, now: TimestampMs, retention: Duration) -> usize {
        self.inner.write().prune(now, retention)
    }

    /// Runs a closure with read access to the underlying store.
    pub fn with_store<R>(&self, f: impl FnOnce(&MetricStore) -> R) -> R {
        f(&self.inner.read())
    }

    /// Produces an owned snapshot of the store (for reports and debugging).
    pub fn snapshot(&self) -> MetricStore {
        self.inner.read().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Aggregation;

    fn key(instance: &str) -> SeriesKey {
        SeriesKey::new("request_errors").with_label("instance", instance)
    }

    #[test]
    fn record_and_query_single_series() {
        let mut store = MetricStore::new();
        store.record_value(key("search:80"), TimestampMs::from_secs(10), 2.0);
        store.record_value(key("search:80"), TimestampMs::from_secs(20), 3.0);
        store.record_value(key("product:80"), TimestampMs::from_secs(20), 50.0);

        let q = RangeQuery::new("request_errors")
            .with_label("instance", "search:80")
            .over_window_secs(60)
            .aggregate(Aggregation::Sum);
        assert_eq!(store.evaluate(&q, TimestampMs::from_secs(30)), Some(5.0));
        assert_eq!(store.series_count(), 2);
        assert_eq!(store.sample_count(), 3);
        assert!(store.series(&key("search:80")).is_some());
        assert_eq!(store.keys().count(), 2);
    }

    #[test]
    fn evaluate_unions_matching_series() {
        let mut store = MetricStore::new();
        store.record_value(key("search:80"), TimestampMs::from_secs(10), 2.0);
        store.record_value(key("product:80"), TimestampMs::from_secs(12), 4.0);
        // No matcher → both series contribute.
        let q = RangeQuery::new("request_errors")
            .over_window_secs(60)
            .aggregate(Aggregation::Sum);
        assert_eq!(store.evaluate(&q, TimestampMs::from_secs(30)), Some(6.0));
        // Unknown metric → None.
        let q = RangeQuery::new("nope").over_window_secs(60);
        assert_eq!(store.evaluate(&q, TimestampMs::from_secs(30)), None);
    }

    #[test]
    fn increment_accumulates_counter() {
        let mut store = MetricStore::new();
        store.increment(key("search:80"), TimestampMs::from_secs(1), 1.0);
        store.increment(key("search:80"), TimestampMs::from_secs(2), 1.0);
        store.increment(key("search:80"), TimestampMs::from_secs(3), 2.0);
        let q = RangeQuery::new("request_errors")
            .with_label("instance", "search:80")
            .aggregate(Aggregation::Last);
        assert_eq!(store.evaluate(&q, TimestampMs::from_secs(5)), Some(4.0));
        // Increase over the window (1,3] — the sample at t=1 is excluded, so
        // the counter grows from 2 (t=2) to 4 (t=3).
        let q = q.over_window_secs(2).aggregate(Aggregation::Increase);
        assert_eq!(store.evaluate(&q, TimestampMs::from_secs(3)), Some(2.0));
    }

    #[test]
    fn evaluation_is_time_scoped() {
        let mut store = MetricStore::new();
        store.record_value(key("search:80"), TimestampMs::from_secs(100), 7.0);
        let q = RangeQuery::new("request_errors").with_label("instance", "search:80");
        // Querying before the sample exists sees nothing.
        assert_eq!(store.evaluate(&q, TimestampMs::from_secs(50)), None);
        assert_eq!(store.evaluate(&q, TimestampMs::from_secs(100)), Some(7.0));
    }

    #[test]
    fn prune_removes_old_samples_across_series() {
        let mut store = MetricStore::new();
        for t in 0..10 {
            store.record_value(key("search:80"), TimestampMs::from_secs(t), t as f64);
            store.record_value(key("product:80"), TimestampMs::from_secs(t), t as f64);
        }
        let removed = store.prune(TimestampMs::from_secs(10), Duration::from_secs(3));
        assert_eq!(removed, 14);
        assert_eq!(store.sample_count(), 6);
    }

    #[test]
    fn record_many_matches_individual_records() {
        let bulk = SharedMetricStore::new();
        let single = SharedMetricStore::new();
        let samples: Vec<(SeriesKey, Sample)> = (0..10)
            .map(|t| {
                (
                    key(if t % 2 == 0 {
                        "search:80"
                    } else {
                        "product:80"
                    }),
                    Sample::new(TimestampMs::from_secs(t), t as f64),
                )
            })
            .collect();
        for (k, s) in &samples {
            single.record(k.clone(), *s);
        }
        bulk.record_many(samples.iter().map(|(k, s)| (k, *s)));
        assert_eq!(bulk.snapshot(), single.snapshot());
    }

    #[test]
    fn shared_store_roundtrip() {
        let store = SharedMetricStore::new();
        let writer = store.clone();
        writer.record_value(key("search:80"), TimestampMs::from_secs(1), 1.0);
        writer.increment(key("search:80"), TimestampMs::from_secs(2), 2.0);
        assert_eq!(store.series_count(), 1);
        assert_eq!(store.sample_count(), 2);
        let q = RangeQuery::new("request_errors")
            .with_label("instance", "search:80")
            .aggregate(Aggregation::Last);
        assert_eq!(store.evaluate(&q, TimestampMs::from_secs(3)), Some(3.0));
        assert_eq!(store.snapshot().sample_count(), 2);
        assert_eq!(store.with_store(|s| s.series_count()), 1);
        assert_eq!(
            store.prune(TimestampMs::from_secs(10), Duration::from_secs(1)),
            2
        );
    }
}
