//! Golden pin for the Figure 6 path: the compressed overhead experiment is
//! deterministic per seed, so every variant's request count, success count
//! and summed response time are fixed to the nanosecond. Any change to the
//! case-study app's CPU, network or routing model shows up here exactly,
//! where the fig6 bench gate only catches a 20% shift.

use bifrost_casestudy::{OverheadExperiment, Variant};
use std::time::Duration;

#[test]
fn compressed_overhead_experiment_is_pinned_per_variant() {
    let experiment = OverheadExperiment::compressed();
    for (variant, requests, ok, response_ns) in [
        (Variant::Baseline, 3373, 3371, 76_200_747_000u128),
        (Variant::Inactive, 3373, 3371, 101_764_104_000),
        (Variant::Active, 3373, 3371, 110_180_892_000),
    ] {
        let run = experiment.run_variant(variant);
        let records = run.recorder.records();
        let label = variant.label();
        assert_eq!(records.len(), requests, "{label}: requests");
        assert_eq!(
            records.iter().filter(|r| r.success).count(),
            ok,
            "{label}: successes"
        );
        let total: Duration = records.iter().map(|r| r.response_time).sum();
        assert_eq!(
            total.as_nanos(),
            response_ns,
            "{label}: summed response time"
        );
        if variant == Variant::Active {
            assert_eq!(run.strategy_succeeded, Some(true));
        }
    }
}
