//! [`DistributionSummary::compute`] reads its median-rank p50 and its p95
//! from one sorted copy; the values must equal the composition it
//! replaced — [`SummaryStats::compute`] plus one
//! [`SummaryStats::percentile`] call per quantile — bit for bit.

use bifrost_metrics::{DistributionSummary, SummaryStats};
use proptest::collection::vec as any_vec;
use proptest::prelude::*;

proptest! {
    #[test]
    fn one_sort_matches_sort_per_statistic(
        // Small integer draws scaled to quarters: many duplicates, and
        // lengths from 1 through odd and even sizes.
        raw in any_vec(0u64..40, 1..120),
        offset in -50.0f64..50.0,
    ) {
        let values: Vec<f64> = raw.iter().map(|&v| v as f64 * 0.25 + offset).collect();
        let got = DistributionSummary::compute(&values).expect("non-empty");
        let base = SummaryStats::compute(&values).expect("non-empty");
        let want = DistributionSummary {
            count: base.count,
            mean: base.mean,
            sd: base.sd,
            min: base.min,
            max: base.max,
            p50: SummaryStats::percentile(&values, 50.0).expect("non-empty"),
            p95: SummaryStats::percentile(&values, 95.0).expect("non-empty"),
        };
        let bits = |d: &DistributionSummary| {
            [d.mean, d.sd, d.min, d.max, d.p50, d.p95].map(f64::to_bits)
        };
        prop_assert_eq!(got.count, want.count);
        prop_assert!(bits(&got) == bits(&want), "{:?} vs {:?}", got, want);
    }
}
