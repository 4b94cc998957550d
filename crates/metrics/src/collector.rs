//! cAdvisor-like resource collector.
//!
//! In the paper, cAdvisor scrapes per-container CPU and memory utilisation
//! and pushes it to Prometheus. The simulated deployments do the same
//! through this collector: the simulator reports per-container resource
//! usage at a fixed scrape interval, the collector writes the standard
//! series (`container_cpu_utilization`, `container_memory_bytes`) into the
//! shared store, and checks/ experiment harnesses query them back out.

use crate::sample::{SeriesKey, TimestampMs};
use crate::store::SharedMetricStore;

/// Metric name used for CPU utilisation samples (0–100, percent of one core).
pub const CPU_UTILIZATION_METRIC: &str = "container_cpu_utilization";
/// Metric name used for memory usage samples (bytes).
pub const MEMORY_BYTES_METRIC: &str = "container_memory_bytes";

/// One scrape of a container's resource usage.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceSample {
    /// The container (or service instance) name, e.g. `"bifrost-engine"`.
    pub container: String,
    /// CPU utilisation in percent of a single core (may exceed 100 on
    /// multi-core containers).
    pub cpu_percent: f64,
    /// Resident memory in bytes.
    pub memory_bytes: f64,
}

impl ResourceSample {
    /// Creates a resource sample.
    pub fn new(container: impl Into<String>, cpu_percent: f64, memory_bytes: f64) -> Self {
        Self {
            container: container.into(),
            cpu_percent,
            memory_bytes,
        }
    }
}

/// Writes resource samples into a shared metric store under the standard
/// cAdvisor-style series.
#[derive(Debug, Clone)]
pub struct ResourceCollector {
    store: SharedMetricStore,
    scrapes: u64,
}

impl ResourceCollector {
    /// Creates a collector writing into `store`.
    pub fn new(store: SharedMetricStore) -> Self {
        Self { store, scrapes: 0 }
    }

    /// Records one scrape of one container at virtual time `now`.
    pub fn scrape(&mut self, now: TimestampMs, sample: &ResourceSample) {
        self.store.record_value(
            SeriesKey::new(CPU_UTILIZATION_METRIC).with_label("container", &sample.container),
            now,
            sample.cpu_percent,
        );
        self.store.record_value(
            SeriesKey::new(MEMORY_BYTES_METRIC).with_label("container", &sample.container),
            now,
            sample.memory_bytes,
        );
        self.scrapes += 1;
    }

    /// Records a batch of scrapes at the same timestamp.
    pub fn scrape_all<'a>(
        &mut self,
        now: TimestampMs,
        samples: impl IntoIterator<Item = &'a ResourceSample>,
    ) {
        for sample in samples {
            self.scrape(now, sample);
        }
    }

    /// Total number of scrapes performed.
    pub fn scrape_count(&self) -> u64 {
        self.scrapes
    }

    /// The backing store handle.
    pub fn store(&self) -> &SharedMetricStore {
        &self.store
    }

    /// Helper: the series key of a container's CPU utilisation series.
    pub fn cpu_key(container: &str) -> SeriesKey {
        SeriesKey::new(CPU_UTILIZATION_METRIC).with_label("container", container)
    }

    /// Helper: the series key of a container's memory series.
    pub fn memory_key(container: &str) -> SeriesKey {
        SeriesKey::new(MEMORY_BYTES_METRIC).with_label("container", container)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Aggregation, RangeQuery};

    #[test]
    fn scrape_writes_cpu_and_memory_series() {
        let store = SharedMetricStore::new();
        let mut collector = ResourceCollector::new(store.clone());
        collector.scrape(
            TimestampMs::from_secs(10),
            &ResourceSample::new("bifrost-engine", 42.0, 128.0 * 1024.0 * 1024.0),
        );
        collector.scrape(
            TimestampMs::from_secs(20),
            &ResourceSample::new("bifrost-engine", 58.0, 130.0 * 1024.0 * 1024.0),
        );
        assert_eq!(collector.scrape_count(), 2);
        assert_eq!(store.series_count(), 2);

        let cpu = RangeQuery::new(CPU_UTILIZATION_METRIC)
            .with_label("container", "bifrost-engine")
            .over_window_secs(60)
            .aggregate(Aggregation::Mean);
        assert_eq!(store.evaluate(&cpu, TimestampMs::from_secs(30)), Some(50.0));
        assert_eq!(collector.store().series_count(), 2);
    }

    #[test]
    fn scrape_all_records_every_container() {
        let store = SharedMetricStore::new();
        let mut collector = ResourceCollector::new(store.clone());
        let samples = vec![
            ResourceSample::new("engine", 10.0, 1.0),
            ResourceSample::new("proxy", 20.0, 2.0),
            ResourceSample::new("product", 30.0, 3.0),
        ];
        collector.scrape_all(TimestampMs::from_secs(5), &samples);
        assert_eq!(collector.scrape_count(), 3);
        assert_eq!(store.series_count(), 6);
        let q = RangeQuery::new(CPU_UTILIZATION_METRIC)
            .with_label("container", "proxy")
            .aggregate(Aggregation::Last);
        assert_eq!(store.evaluate(&q, TimestampMs::from_secs(10)), Some(20.0));
    }

    #[test]
    fn key_helpers_match_written_series() {
        let store = SharedMetricStore::new();
        let mut collector = ResourceCollector::new(store.clone());
        collector.scrape(
            TimestampMs::from_secs(1),
            &ResourceSample::new("c1", 1.0, 2.0),
        );
        store.with_store(|s| {
            assert!(s.series(&ResourceCollector::cpu_key("c1")).is_some());
            assert!(s.series(&ResourceCollector::memory_key("c1")).is_some());
            assert!(s.series(&ResourceCollector::cpu_key("nope")).is_none());
        });
    }
}
