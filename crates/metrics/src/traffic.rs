//! Recording per-request routing outcomes as metric series.
//!
//! The engine's traffic simulation routes batches of requests through the
//! proxy fleet and needs the outcomes to land in the same
//! [`SharedMetricStore`] that strategy checks query — that is what closes
//! the paper's loop of "proxies split live traffic, checks watch the
//! observed metrics". [`TrafficSeriesRecorder`] buffers one tick's worth of
//! outcomes and flushes them as Prometheus-shaped series under a single
//! store lock:
//!
//! * `requests_total{service, version}` — cumulative request counter,
//! * `request_errors{service, version}` — cumulative error counter,
//! * `shadow_requests_total{service, version}` — cumulative dark-launch
//!   duplicate counter,
//! * `requests_shed_total{service, version}` — cumulative counter of
//!   requests (primary or shadow) dropped by a saturated backend queue or
//!   timed out past the backend deadline,
//! * `request_latency_ms{service, version}` — per-tick mean latency gauge,
//! * `request_latency_p50_ms` / `request_latency_p95_ms` — per-tick
//!   latency-quantile gauges, and
//! * `backend_utilization{service, version}` — per-tick gauge of the
//!   version's replica utilisation in percent.
//!
//! The series names and the `version` label match what the case-study
//! application publishes, so the same check specifications work against
//! simulated application traffic and engine-driven request-level traffic.

use crate::sample::{Sample, SeriesKey, TimestampMs};
use crate::stats::{nearest_rank, total_order_key};
use crate::store::{SeriesId, SharedMetricStore};
use std::collections::BTreeMap;

/// Cumulative counter for requests routed to one version.
pub const REQUESTS_TOTAL: &str = "requests_total";
/// Cumulative counter for failed requests per version.
pub const REQUEST_ERRORS: &str = "request_errors";
/// Cumulative counter for dark-launch shadow copies per target version.
pub const SHADOW_REQUESTS_TOTAL: &str = "shadow_requests_total";
/// Per-tick mean end-to-end latency gauge per version (milliseconds).
pub const REQUEST_LATENCY_MS: &str = "request_latency_ms";
/// Per-tick median end-to-end latency gauge per version (milliseconds).
pub const REQUEST_LATENCY_P50_MS: &str = "request_latency_p50_ms";
/// Per-tick 95th-percentile end-to-end latency gauge per version
/// (milliseconds).
pub const REQUEST_LATENCY_P95_MS: &str = "request_latency_p95_ms";
/// Cumulative counter of requests shed or timed out by a version's backend.
pub const REQUESTS_SHED_TOTAL: &str = "requests_shed_total";
/// Per-tick backend replica utilisation gauge per version (percent).
pub const BACKEND_UTILIZATION: &str = "backend_utilization";

/// One published series of a version: its key, built once, its store
/// handle, resolved on its first publish, and the value the next flush
/// publishes (`None` publishes nothing).
///
/// A counter's value is its running total: `None` until the version first
/// counts (or is registered), then re-published on every flush — Prometheus
/// counters are cumulative, windowed `Increase` queries recover per-window
/// rates, and a quiet version still yields a sample per scrape. A gauge's
/// value is this flush's reading, `None` when the window had none.
#[derive(Debug)]
struct Series {
    key: SeriesKey,
    /// Resolved on the first publish, not at creation: resolving creates
    /// the series in the store, and a version that never publishes a
    /// gauge must not own an empty series.
    id: Option<SeriesId>,
    value: Option<f64>,
}

impl Series {
    fn new(metric: &str, service: &str, version: &str) -> Self {
        Self {
            key: SeriesKey::new(metric)
                .with_label("service", service)
                .with_label("version", version),
            id: None,
            value: None,
        }
    }

    /// Adds `count` to a counter, creating it at zero first.
    fn count(&mut self, count: u64) {
        self.value = Some(self.value.unwrap_or(0.0) + count as f64);
    }
}

/// What one version buffered since the last flush.
#[derive(Debug, Default)]
struct Window {
    requests: u64,
    errors: u64,
    latency_ms_sum: f64,
    /// Every latency of the window, for the per-tick quantile gauges; the
    /// buffer is reused across windows.
    latencies_ms: Vec<f64>,
    shadows: u64,
    shed: u64,
    /// Latest backend utilisation (percent) of the window.
    utilization: Option<f64>,
}

/// Every series of one version plus its current window.
#[derive(Debug)]
struct VersionSeries {
    requests: Series,
    errors: Series,
    shadows: Series,
    shed: Series,
    latency_mean: Series,
    latency_p50: Series,
    latency_p95: Series,
    utilization: Series,
    window: Window,
}

impl VersionSeries {
    fn new(service: &str, version: &str) -> Self {
        Self {
            requests: Series::new(REQUESTS_TOTAL, service, version),
            errors: Series::new(REQUEST_ERRORS, service, version),
            shadows: Series::new(SHADOW_REQUESTS_TOTAL, service, version),
            shed: Series::new(REQUESTS_SHED_TOTAL, service, version),
            latency_mean: Series::new(REQUEST_LATENCY_MS, service, version),
            latency_p50: Series::new(REQUEST_LATENCY_P50_MS, service, version),
            latency_p95: Series::new(REQUEST_LATENCY_P95_MS, service, version),
            utilization: Series::new(BACKEND_UTILIZATION, service, version),
            window: Window::default(),
        }
    }

    /// Folds the window into the series' values and starts a new one,
    /// keeping the latency buffer.
    fn close_window(&mut self) {
        let Window {
            requests,
            errors,
            latency_ms_sum,
            mut latencies_ms,
            shadows,
            shed,
            utilization,
        } = std::mem::take(&mut self.window);
        let (mean, p50, p95) = if requests > 0 {
            self.requests.count(requests);
            self.errors.count(errors);
            let (p50, p95) = window_quantiles(&mut latencies_ms);
            (Some(latency_ms_sum / requests as f64), Some(p50), Some(p95))
        } else {
            (None, None, None)
        };
        self.latency_mean.value = mean;
        self.latency_p50.value = p50;
        self.latency_p95.value = p95;
        if shed > 0 {
            self.shed.count(shed);
        }
        if shadows > 0 {
            self.shadows.count(shadows);
        }
        self.utilization.value = utilization;
        latencies_ms.clear();
        self.window.latencies_ms = latencies_ms;
    }

    fn series_mut(&mut self) -> [&mut Series; 8] {
        [
            &mut self.requests,
            &mut self.errors,
            &mut self.latency_mean,
            &mut self.latency_p50,
            &mut self.latency_p95,
            &mut self.shed,
            &mut self.utilization,
            &mut self.shadows,
        ]
    }
}

/// The nearest-rank p50 and p95 (the ranks of
/// [`crate::SummaryStats::percentile`]) of a non-empty window, selected in
/// place in [`f64::total_cmp`] order (so a NaN latency sorts last instead
/// of panicking): the p95 selection partitions everything at or below p95
/// in front of it, where the p50 is then selected.
fn window_quantiles(latencies: &mut [f64]) -> (f64, f64) {
    let key = |v: &f64| total_order_key(*v);
    let p95_rank = nearest_rank(latencies.len(), 95.0);
    let p50_rank = nearest_rank(latencies.len(), 50.0);
    let (below, p95, _) = latencies.select_nth_unstable_by_key(p95_rank, key);
    let p95 = *p95;
    let p50 = if p50_rank == p95_rank {
        p95
    } else {
        *below.select_nth_unstable_by_key(p50_rank, key).1
    };
    (p50, p95)
}

/// A version's place in one [`TrafficSeriesRecorder`], from
/// [`TrafficSeriesRecorder::slot`]: callers that observe the same version
/// over and over resolve its label once and then observe by slot. A slot
/// is only meaningful for the recorder that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VersionSlot(usize);

/// Buffers routing outcomes per version and publishes them as metric
/// series, one store lock per flush instead of per request. Each version's
/// series keys are built once, on its first appearance, and each series is
/// looked up in the store once, on its first publish; after that,
/// buffering and flushing allocate nothing and compare no keys.
///
/// Every `observe_*` method taking a label resolves the label's
/// [`VersionSlot`] and calls its `observe_*_at` twin, which does the work.
#[derive(Debug)]
pub struct TrafficSeriesRecorder {
    store: SharedMetricStore,
    service_label: String,
    /// Version label → index into `versions`.
    slots: BTreeMap<String, VersionSlot>,
    versions: Vec<VersionSeries>,
}

impl TrafficSeriesRecorder {
    /// Creates a recorder publishing into `store` with the given `service`
    /// label value.
    pub fn new(store: SharedMetricStore, service_label: impl Into<String>) -> Self {
        Self {
            store,
            service_label: service_label.into(),
            slots: BTreeMap::new(),
            versions: Vec::new(),
        }
    }

    /// Pre-registers versions' counter series at zero (the behaviour of a
    /// Prometheus client library on service start-up), so checks see `0`
    /// rather than "no data" before the first request arrives. All labels
    /// are registered in one pass and published with a single flush.
    pub fn register_versions<'a>(
        &mut self,
        version_labels: impl IntoIterator<Item = &'a str>,
        at: TimestampMs,
    ) {
        for label in version_labels {
            let slot = self.slot(label);
            let version = &mut self.versions[slot.0];
            for counter in [
                &mut version.requests,
                &mut version.errors,
                &mut version.shadows,
                &mut version.shed,
            ] {
                counter.count(0);
            }
        }
        self.flush(at);
    }

    /// The slot of `version_label`, creating the version's series keys on
    /// first sight. Creating a slot publishes nothing.
    pub fn slot(&mut self, version_label: &str) -> VersionSlot {
        if let Some(&slot) = self.slots.get(version_label) {
            return slot;
        }
        let slot = VersionSlot(self.versions.len());
        self.versions
            .push(VersionSeries::new(&self.service_label, version_label));
        self.slots.insert(version_label.to_string(), slot);
        slot
    }

    /// Buffers the outcome of one routed request. Allocation-free except
    /// for a version's first appearance and window growth.
    pub fn observe_request(&mut self, version_label: &str, latency_ms: f64, success: bool) {
        let slot = self.slot(version_label);
        self.observe_request_at(slot, latency_ms, success);
    }

    /// [`Self::observe_request`] for a resolved slot.
    pub fn observe_request_at(&mut self, slot: VersionSlot, latency_ms: f64, success: bool) {
        let window = &mut self.versions[slot.0].window;
        window.requests += 1;
        window.latency_ms_sum += latency_ms;
        window.latencies_ms.push(latency_ms);
        if !success {
            window.errors += 1;
        }
    }

    /// Buffers one request (primary or shadow) the version's backend shed
    /// from a full queue or timed out past its deadline.
    pub fn observe_shed(&mut self, version_label: &str) {
        let slot = self.slot(version_label);
        self.observe_shed_at(slot);
    }

    /// [`Self::observe_shed`] for a resolved slot.
    pub fn observe_shed_at(&mut self, slot: VersionSlot) {
        self.versions[slot.0].window.shed += 1;
    }

    /// Buffers the version's backend replica utilisation (percent) sampled
    /// over the current tick; the latest value per version wins.
    pub fn observe_utilization(&mut self, version_label: &str, percent: f64) {
        let slot = self.slot(version_label);
        self.observe_utilization_at(slot, percent);
    }

    /// [`Self::observe_utilization`] for a resolved slot.
    pub fn observe_utilization_at(&mut self, slot: VersionSlot, percent: f64) {
        self.versions[slot.0].window.utilization = Some(percent);
    }

    /// Buffers one dark-launch shadow copy sent to `version_label`.
    pub fn observe_shadow(&mut self, version_label: &str) {
        let slot = self.slot(version_label);
        self.observe_shadow_at(slot);
    }

    /// [`Self::observe_shadow`] for a resolved slot.
    pub fn observe_shadow_at(&mut self, slot: VersionSlot) {
        self.versions[slot.0].window.shadows += 1;
    }

    /// Publishes the buffered window (and the running counter totals) at
    /// virtual time `at`, then clears the window.
    pub fn flush(&mut self, at: TimestampMs) {
        for version in &mut self.versions {
            version.close_window();
        }
        let versions = &mut self.versions;
        self.store.with_store_mut(|store| {
            for series in versions.iter_mut().flat_map(VersionSeries::series_mut) {
                if let Some(value) = series.value {
                    let id = *series.id.get_or_insert_with(|| store.resolve(&series.key));
                    store.push(id, Sample::new(at, value));
                }
            }
        });
    }

    /// The underlying store handle.
    pub fn store(&self) -> &SharedMetricStore {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Aggregation, RangeQuery};

    fn last(store: &SharedMetricStore, metric: &str, version: &str, at_secs: u64) -> Option<f64> {
        store.evaluate(
            &RangeQuery::new(metric)
                .with_label("version", version)
                .aggregate(Aggregation::Last),
            TimestampMs::from_secs(at_secs),
        )
    }

    #[test]
    fn counters_accumulate_across_flushes() {
        let store = SharedMetricStore::new();
        let mut recorder = TrafficSeriesRecorder::new(store.clone(), "search");
        recorder.observe_request("v1", 10.0, true);
        recorder.observe_request("v1", 20.0, false);
        recorder.observe_request("v2", 30.0, true);
        recorder.observe_shadow("v2");
        recorder.flush(TimestampMs::from_secs(1));
        recorder.observe_request("v1", 40.0, true);
        recorder.flush(TimestampMs::from_secs(2));

        assert_eq!(last(&store, REQUESTS_TOTAL, "v1", 5), Some(3.0));
        assert_eq!(last(&store, REQUEST_ERRORS, "v1", 5), Some(1.0));
        assert_eq!(last(&store, REQUESTS_TOTAL, "v2", 5), Some(1.0));
        assert_eq!(last(&store, SHADOW_REQUESTS_TOTAL, "v2", 5), Some(1.0));
        // Mean latency per flush window: (10+20)/2 then 40.
        assert_eq!(last(&store, REQUEST_LATENCY_MS, "v1", 1), Some(15.0));
        assert_eq!(last(&store, REQUEST_LATENCY_MS, "v1", 5), Some(40.0));
    }

    #[test]
    fn shed_utilization_and_quantile_series_are_published() {
        let store = SharedMetricStore::new();
        let mut recorder = TrafficSeriesRecorder::new(store.clone(), "search");
        recorder.register_versions(["v1"], TimestampMs::from_secs(0));
        assert_eq!(last(&store, REQUESTS_SHED_TOTAL, "v1", 0), Some(0.0));
        for latency in [10.0, 20.0, 30.0, 40.0, 100.0] {
            recorder.observe_request("v1", latency, true);
        }
        recorder.observe_shed("v1");
        recorder.observe_shed("v1");
        recorder.observe_utilization("v1", 35.0);
        recorder.observe_utilization("v1", 80.0);
        recorder.flush(TimestampMs::from_secs(1));

        assert_eq!(last(&store, REQUESTS_SHED_TOTAL, "v1", 5), Some(2.0));
        assert_eq!(last(&store, REQUEST_LATENCY_P50_MS, "v1", 5), Some(30.0));
        assert_eq!(last(&store, REQUEST_LATENCY_P95_MS, "v1", 5), Some(100.0));
        // Latest utilisation of the tick wins.
        assert_eq!(last(&store, BACKEND_UTILIZATION, "v1", 5), Some(80.0));

        // The shed counter accumulates and is republished when quiet.
        recorder.observe_shed("v1");
        recorder.flush(TimestampMs::from_secs(2));
        recorder.flush(TimestampMs::from_secs(3));
        assert_eq!(last(&store, REQUESTS_SHED_TOTAL, "v1", 5), Some(3.0));
    }

    #[test]
    fn a_nan_latency_sorts_last_instead_of_panicking() {
        let store = SharedMetricStore::new();
        let mut recorder = TrafficSeriesRecorder::new(store.clone(), "search");
        for latency in [1.0, f64::NAN, 2.0] {
            recorder.observe_request("v1", latency, true);
        }
        recorder.flush(TimestampMs::from_secs(1));
        // In total order 1.0 < 2.0 < NaN: p50 is rank 1, p95 rank 2.
        let gauge = |metric: &str| {
            let key = SeriesKey::new(metric)
                .with_label("service", "search")
                .with_label("version", "v1");
            store.with_store(|s| s.series(&key).and_then(|s| s.last()).map(|s| s.value))
        };
        assert_eq!(gauge(REQUEST_LATENCY_P50_MS), Some(2.0));
        assert!(gauge(REQUEST_LATENCY_P95_MS).is_some_and(f64::is_nan));
    }

    #[test]
    fn versions_publish_no_series_before_they_have_a_value() {
        let store = SharedMetricStore::new();
        let mut recorder = TrafficSeriesRecorder::new(store.clone(), "search");
        recorder.register_versions(["v1"], TimestampMs::ZERO);
        // The four counters, no latency or utilisation gauge.
        assert_eq!(store.series_count(), 4);
        let v2 = recorder.slot("v2");
        recorder.flush(TimestampMs::from_secs(1));
        assert_eq!(store.series_count(), 4);
        recorder.observe_utilization_at(v2, 50.0);
        recorder.flush(TimestampMs::from_secs(2));
        assert_eq!(store.series_count(), 5);
        recorder.observe_request("v1", 5.0, true);
        recorder.flush(TimestampMs::from_secs(3));
        // Mean, p50 and p95 of v1.
        assert_eq!(store.series_count(), 8);
        assert_eq!(recorder.slot("v2"), v2);
    }

    #[test]
    fn quiet_versions_republish_their_totals() {
        let store = SharedMetricStore::new();
        let mut recorder = TrafficSeriesRecorder::new(store.clone(), "search");
        recorder.register_versions(["v1"], TimestampMs::from_secs(0));
        assert_eq!(last(&store, REQUESTS_TOTAL, "v1", 0), Some(0.0));
        assert_eq!(last(&store, REQUEST_ERRORS, "v1", 0), Some(0.0));
        recorder.observe_request("v1", 5.0, true);
        recorder.flush(TimestampMs::from_secs(1));
        // A flush with no v1 activity still re-publishes the totals.
        recorder.flush(TimestampMs::from_secs(9));
        let increase = store.evaluate(
            &RangeQuery::new(REQUESTS_TOTAL)
                .with_label("version", "v1")
                .over_window_secs(5)
                .aggregate(Aggregation::Increase),
            TimestampMs::from_secs(9),
        );
        assert_eq!(increase, Some(0.0));
    }
}
