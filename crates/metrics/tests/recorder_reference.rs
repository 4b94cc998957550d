//! Property test of [`TrafficSeriesRecorder`] against a reference flush:
//! the reference keeps per-metric running totals and windows in maps,
//! builds every [`SeriesKey`] afresh, reads the per-tick quantiles with
//! [`SummaryStats::percentile`] (which sorts a copy) and records sample by
//! sample. Over random observe/flush sequences both leave the same store.

use bifrost_metrics::traffic::{
    BACKEND_UTILIZATION, REQUESTS_SHED_TOTAL, REQUESTS_TOTAL, REQUEST_ERRORS, REQUEST_LATENCY_MS,
    REQUEST_LATENCY_P50_MS, REQUEST_LATENCY_P95_MS, SHADOW_REQUESTS_TOTAL,
};
use bifrost_metrics::{
    Sample, SeriesKey, SharedMetricStore, SummaryStats, TimestampMs, TrafficSeriesRecorder,
};
use proptest::collection::vec as any_vec;
use proptest::prelude::*;
use std::collections::BTreeMap;

const SERVICE: &str = "search";
/// `v0` and `v1` are registered; `v2` and `v3` appear only when observed.
const VERSIONS: [&str; 4] = ["v0", "v1", "v2", "v3"];

/// The recorder's contract, written the plain way.
#[derive(Default)]
struct ReferenceRecorder {
    request_totals: BTreeMap<String, f64>,
    error_totals: BTreeMap<String, f64>,
    shadow_totals: BTreeMap<String, f64>,
    shed_totals: BTreeMap<String, f64>,
    /// Per version: requests, errors, latencies.
    window: BTreeMap<String, (u64, u64, Vec<f64>)>,
    shadow_window: BTreeMap<String, u64>,
    shed_window: BTreeMap<String, u64>,
    utilization_window: BTreeMap<String, f64>,
}

fn key(metric: &str, version: &str) -> SeriesKey {
    SeriesKey::new(metric)
        .with_label("service", SERVICE)
        .with_label("version", version)
}

fn bump(totals: &mut BTreeMap<String, f64>, version: &str, count: u64) -> f64 {
    let total = totals.entry(version.to_string()).or_insert(0.0);
    *total += count as f64;
    *total
}

impl ReferenceRecorder {
    fn register(&mut self, store: &SharedMetricStore, at: TimestampMs) {
        for version in &VERSIONS[..2] {
            for totals in [
                &mut self.request_totals,
                &mut self.error_totals,
                &mut self.shadow_totals,
                &mut self.shed_totals,
            ] {
                totals.entry(version.to_string()).or_insert(0.0);
            }
        }
        self.flush(store, at);
    }

    fn observe_request(&mut self, version: &str, latency_ms: f64, success: bool) {
        let acc = self.window.entry(version.to_string()).or_default();
        acc.0 += 1;
        acc.1 += u64::from(!success);
        acc.2.push(latency_ms);
    }

    fn flush(&mut self, store: &SharedMetricStore, at: TimestampMs) {
        let mut samples: Vec<(SeriesKey, f64)> = Vec::new();
        for (version, (requests, errors, latencies)) in std::mem::take(&mut self.window) {
            let total = bump(&mut self.request_totals, &version, requests);
            samples.push((key(REQUESTS_TOTAL, &version), total));
            let total = bump(&mut self.error_totals, &version, errors);
            samples.push((key(REQUEST_ERRORS, &version), total));
            let mean = latencies.iter().sum::<f64>() / requests as f64;
            samples.push((key(REQUEST_LATENCY_MS, &version), mean));
            let p50 = SummaryStats::percentile(&latencies, 50.0).expect("non-empty");
            samples.push((key(REQUEST_LATENCY_P50_MS, &version), p50));
            let p95 = SummaryStats::percentile(&latencies, 95.0).expect("non-empty");
            samples.push((key(REQUEST_LATENCY_P95_MS, &version), p95));
        }
        for (version, count) in std::mem::take(&mut self.shed_window) {
            let total = bump(&mut self.shed_totals, &version, count);
            samples.push((key(REQUESTS_SHED_TOTAL, &version), total));
        }
        for (version, percent) in std::mem::take(&mut self.utilization_window) {
            samples.push((key(BACKEND_UTILIZATION, &version), percent));
        }
        for (version, count) in std::mem::take(&mut self.shadow_window) {
            let total = bump(&mut self.shadow_totals, &version, count);
            samples.push((key(SHADOW_REQUESTS_TOTAL, &version), total));
        }
        // Counters not published above re-publish their running total.
        for (metric, totals) in [
            (REQUESTS_TOTAL, &self.request_totals),
            (REQUEST_ERRORS, &self.error_totals),
            (SHADOW_REQUESTS_TOTAL, &self.shadow_totals),
            (REQUESTS_SHED_TOTAL, &self.shed_totals),
        ] {
            for (version, total) in totals {
                let key = key(metric, version);
                if !samples.iter().any(|(k, _)| *k == key) {
                    samples.push((key, *total));
                }
            }
        }
        for (key, value) in samples {
            store.record(key, Sample::new(at, value));
        }
    }
}

/// One step of a random sequence, applied to both recorders.
#[derive(Debug, Clone, Copy)]
enum Op {
    Request {
        version: usize,
        latency_ms: f64,
        success: bool,
    },
    Shadow(usize),
    Shed(usize),
    Utilization(usize, f64),
    Flush,
}

/// Decodes a raw draw. Latencies come from eight values, so windows hold
/// duplicates; `v3` never receives primary requests, so it is seen only
/// through shadow copies, shed requests and utilisation samples.
fn decode(raw: u64) -> Op {
    let version = ((raw / 10) % 4) as usize;
    let latency_ms = ((raw / 40) % 8) as f64 * 2.5;
    match raw % 10 {
        0..=4 if version < 3 => Op::Request {
            version,
            latency_ms,
            success: !(raw / 320).is_multiple_of(3),
        },
        0 | 1 | 5 => Op::Shadow(version),
        2 | 3 | 6 => Op::Shed(version),
        4 | 7 => Op::Utilization(version, latency_ms * 4.0),
        _ => Op::Flush,
    }
}

/// Runs `ops` through the recorder and the reference (with a final flush)
/// and asserts both stores end up identical.
fn assert_same_store(ops: &[Op]) -> Result<(), TestCaseError> {
    let (store, reference_store) = (SharedMetricStore::new(), SharedMetricStore::new());
    let mut recorder = TrafficSeriesRecorder::new(store.clone(), SERVICE);
    let mut reference = ReferenceRecorder::default();
    recorder.register_versions(VERSIONS[..2].iter().copied(), TimestampMs::ZERO);
    reference.register(&reference_store, TimestampMs::ZERO);
    let mut at = TimestampMs::ZERO;
    for op in ops.iter().copied().chain([Op::Flush]) {
        match op {
            Op::Request {
                version,
                latency_ms,
                success,
            } => {
                recorder.observe_request(VERSIONS[version], latency_ms, success);
                reference.observe_request(VERSIONS[version], latency_ms, success);
            }
            Op::Shadow(version) => {
                recorder.observe_shadow(VERSIONS[version]);
                *reference
                    .shadow_window
                    .entry(VERSIONS[version].to_string())
                    .or_default() += 1;
            }
            Op::Shed(version) => {
                recorder.observe_shed(VERSIONS[version]);
                *reference
                    .shed_window
                    .entry(VERSIONS[version].to_string())
                    .or_default() += 1;
            }
            Op::Utilization(version, percent) => {
                recorder.observe_utilization(VERSIONS[version], percent);
                reference
                    .utilization_window
                    .insert(VERSIONS[version].to_string(), percent);
            }
            Op::Flush => {
                at = TimestampMs::from_millis(at.as_millis() + 100);
                recorder.flush(at);
                reference.flush(&reference_store, at);
            }
        }
    }
    let (got, want) = (store.snapshot(), reference_store.snapshot());
    prop_assert!(got == want, "recorder {:?}\nreference {:?}", got, want);
    Ok(())
}

fn request(version: usize, latency_ms: f64) -> Op {
    Op::Request {
        version,
        latency_ms,
        success: true,
    }
}

proptest! {
    #[test]
    fn recorder_matches_reference_flush(raw in any_vec(0u64..1_000_000, 1..400)) {
        let ops: Vec<Op> = raw.into_iter().map(decode).collect();
        assert_same_store(&ops)?;
    }
}

#[test]
fn windows_of_one_two_and_even_lengths_with_duplicates() {
    let mut ops = Vec::new();
    // A window of one, of two distinct values, of two duplicates, and of
    // four and six values with duplicates; `v1` stays quiet throughout.
    for window in [
        &[7.5][..],
        &[10.0, 2.5],
        &[5.0, 5.0],
        &[2.5, 17.5, 2.5, 12.5],
        &[0.0, 15.0, 15.0, 7.5, 15.0, 2.5],
    ] {
        ops.extend(window.iter().map(|&latency| request(0, latency)));
        ops.push(Op::Flush);
    }
    // Versions seen only through shadow copies, sheds or utilisation.
    ops.extend([
        Op::Shadow(2),
        Op::Flush,
        Op::Shed(3),
        Op::Utilization(2, 40.0),
    ]);
    assert_same_store(&ops).unwrap();
}
