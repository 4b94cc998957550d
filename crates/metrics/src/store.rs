//! The metric store: a map of series keys to time series with query
//! evaluation, plus a cheap shared handle for concurrent producers.

use crate::query::RangeQuery;
use crate::sample::{Sample, SeriesKey, TimestampMs};
use crate::series::TimeSeries;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// A handle to one series of one [`MetricStore`], returned by
/// [`MetricStore::resolve`]: writers that publish to the same series over
/// and over resolve its key once and then [`MetricStore::push`] by handle.
/// A handle is only meaningful for the store that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeriesId(usize);

/// An in-memory, label-indexed collection of time series.
///
/// Series live in a vector in creation order and are found through a
/// key-ordered index, so every read (queries, key listings, equality)
/// walks the series in key order whatever order they were created in.
#[derive(Debug, Clone, Default)]
pub struct MetricStore {
    index: BTreeMap<SeriesKey, SeriesId>,
    series: Vec<TimeSeries>,
}

impl PartialEq for MetricStore {
    /// Two stores are equal when they hold the same series under the same
    /// keys, regardless of the order the series were created in.
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl MetricStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The handle of the series stored under `key`, creating the series
    /// empty on first use (the key is cloned only then).
    pub fn resolve(&mut self, key: &SeriesKey) -> SeriesId {
        if let Some(&id) = self.index.get(key) {
            return id;
        }
        let id = SeriesId(self.series.len());
        self.series.push(TimeSeries::new());
        self.index.insert(key.clone(), id);
        id
    }

    /// Appends a sample to the series behind `id`.
    ///
    /// # Panics
    ///
    /// If `id` was not issued by this store.
    pub fn push(&mut self, id: SeriesId, sample: Sample) {
        self.series[id.0].push(sample);
    }

    /// Records a sample for the given series (creating the series on first
    /// use).
    pub fn record(&mut self, key: SeriesKey, sample: Sample) {
        let id = self.resolve(&key);
        self.push(id, sample);
    }

    /// Convenience: records `value` for `key` at time `at`.
    pub fn record_value(&mut self, key: SeriesKey, at: TimestampMs, value: f64) {
        self.record(key, Sample::new(at, value));
    }

    /// Increments a counter series by `delta` at time `at` (the new sample
    /// holds the running total).
    pub fn increment(&mut self, key: SeriesKey, at: TimestampMs, delta: f64) {
        let id = self.resolve(&key);
        let current = self.series[id.0].last().map(|s| s.value).unwrap_or(0.0);
        self.push(id, Sample::new(at, current + delta));
    }

    /// Returns the series stored under `key`, if any.
    pub fn series(&self, key: &SeriesKey) -> Option<&TimeSeries> {
        self.index.get(key).map(|id| &self.series[id.0])
    }

    /// All series keys currently known, in key order.
    pub fn keys(&self) -> impl Iterator<Item = &SeriesKey> {
        self.index.keys()
    }

    /// Every series with its key, in key order.
    fn iter(&self) -> impl Iterator<Item = (&SeriesKey, &TimeSeries)> {
        self.index.iter().map(|(key, id)| (key, &self.series[id.0]))
    }

    /// Number of series.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// Total number of samples across all series.
    pub fn sample_count(&self) -> usize {
        self.series.iter().map(TimeSeries::len).sum()
    }

    /// Evaluates a query at time `now`: all selected series are windowed,
    /// their windows concatenated in key order, and the aggregation applied
    /// to the union.
    pub fn evaluate(&self, query: &RangeQuery, now: TimestampMs) -> Option<f64> {
        let mut window: Vec<Sample> = Vec::new();
        for (key, series) in self.iter() {
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
            .iter_mut()
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

    /// Records a batch of samples under a single write lock. A key is
    /// cloned only when its series is new.
    pub fn record_many<'a>(&self, samples: impl IntoIterator<Item = (&'a SeriesKey, Sample)>) {
        let mut store = self.inner.write();
        for (key, sample) in samples {
            let id = store.resolve(key);
            store.push(id, sample);
        }
    }

    /// Runs a closure with write access to the underlying store, under one
    /// lock — the bulk path of per-tick traffic recording, which publishes
    /// through [`SeriesId`] handles it resolved once.
    pub fn with_store_mut<R>(&self, f: impl FnOnce(&mut MetricStore) -> R) -> R {
        f(&mut self.inner.write())
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
    fn creation_order_does_not_change_equality_or_queries() {
        let keys = [key("search:80"), key("product:80"), key("auth:80")];
        let mut forward = MetricStore::new();
        let mut backward = MetricStore::new();
        // One timestamp for all: `Last` then picks the series that comes
        // last in the order the store walks them.
        let at = TimestampMs::from_secs(1);
        for (i, k) in keys.iter().enumerate() {
            forward.record_value(k.clone(), at, i as f64);
        }
        for (i, k) in keys.iter().enumerate().rev() {
            backward.record_value(k.clone(), at, i as f64);
        }
        assert_eq!(forward, backward);
        assert!(forward.keys().eq(backward.keys()));
        for aggregation in [Aggregation::Sum, Aggregation::Last, Aggregation::Mean] {
            let q = RangeQuery::new("request_errors")
                .over_window_secs(60)
                .aggregate(aggregation);
            let at = TimestampMs::from_secs(30);
            assert_eq!(forward.evaluate(&q, at), backward.evaluate(&q, at));
        }
        backward.record_value(key("auth:80"), TimestampMs::from_secs(9), 9.0);
        assert_ne!(forward, backward);
    }

    #[test]
    fn pushing_by_handle_matches_recording_by_key() {
        let mut by_key = MetricStore::new();
        let mut by_handle = MetricStore::new();
        let search = by_handle.resolve(&key("search:80"));
        let product = by_handle.resolve(&key("product:80"));
        assert_eq!(by_handle.resolve(&key("search:80")), search);
        for t in 0..6 {
            let (k, id) = if t % 2 == 0 {
                (key("search:80"), search)
            } else {
                (key("product:80"), product)
            };
            let sample = Sample::new(TimestampMs::from_secs(t), t as f64);
            by_key.record(k, sample);
            by_handle.push(id, sample);
        }
        assert_eq!(by_key, by_handle);
        assert_eq!(by_handle.series_count(), 2);
        assert_eq!(by_handle.sample_count(), 6);
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
