//! Summary statistics and moving averages used by the evaluation harness.
//!
//! Table 1 of the paper reports mean, min, max, standard deviation, and
//! median of response times per release phase; Figure 6 plots a 3-second
//! moving average. Both computations live here so the workload generator,
//! benches, and experiment binaries share one implementation.

/// Basic summary statistics of a sample of `f64` values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SummaryStats {
    /// Number of values.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Sample standard deviation (n − 1 denominator; 0 for a single value).
    pub sd: f64,
    /// Median (mean of the two central values for even counts).
    pub median: f64,
}

impl SummaryStats {
    /// Computes summary statistics. Returns `None` for an empty slice.
    pub fn compute(values: &[f64]) -> Option<Self> {
        let sorted = sorted_copy(values)?;
        Some(Self::with_sorted(values, &sorted))
    }

    /// The statistics of `values`, given the same values in ascending
    /// order (for the median).
    fn with_sorted(values: &[f64], sorted: &[f64]) -> Self {
        let count = values.len();
        let mean = values.iter().sum::<f64>() / count as f64;
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let sd = if count > 1 {
            let variance =
                values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (count - 1) as f64;
            variance.sqrt()
        } else {
            0.0
        };
        let median = if count % 2 == 1 {
            sorted[count / 2]
        } else {
            (sorted[count / 2 - 1] + sorted[count / 2]) / 2.0
        };
        Self {
            count,
            mean,
            min,
            max,
            sd,
            median,
        }
    }

    /// Computes the given percentile (0–100) of a sample using
    /// nearest-rank interpolation. Returns `None` for an empty slice.
    pub fn percentile(values: &[f64], percentile: f64) -> Option<f64> {
        let sorted = sorted_copy(values)?;
        Some(sorted[nearest_rank(sorted.len(), percentile)])
    }
}

/// The index of the `percentile` (0–100) in `len > 0` ascending values:
/// `round(percentile / 100 · (len − 1))`, clamped to the last index.
pub(crate) fn nearest_rank(len: usize, percentile: f64) -> usize {
    let rank = (percentile / 100.0 * (len - 1) as f64).round() as usize;
    rank.min(len - 1)
}

/// An ascending copy of `values`, or `None` when there are none.
fn sorted_copy(values: &[f64]) -> Option<Vec<f64>> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    Some(sorted)
}

/// The unsigned key whose integer order is [`f64::total_cmp`]'s order:
/// −NaN < −∞ < … < −0.0 < +0.0 < … < +∞ < +NaN. Equal keys are equal
/// bits.
pub fn total_order_key(value: f64) -> u64 {
    let bits = value.to_bits();
    // Negative values have every bit flipped, positive ones only the sign.
    bits ^ (((bits as i64 >> 63) as u64) | SIGN_BIT)
}

/// The value whose [`total_order_key`] is `key`.
fn from_total_order_key(key: u64) -> f64 {
    f64::from_bits(if key & SIGN_BIT == 0 {
        !key
    } else {
        key & !SIGN_BIT
    })
}

const SIGN_BIT: u64 = 1 << 63;
/// Bits per radix digit of [`select_nth_total_order`]: at most 2¹⁶
/// counters per histogram, at most four histogram passes.
const DIGIT_BITS: u32 = 16;
/// Once at most this many values are left in the running, they are copied
/// out and selected directly instead of histogrammed further.
const CANDIDATE_LIMIT: usize = 1 << 10;

/// The value at index `rank` of `values` in [`f64::total_cmp`] order — bit
/// for bit what `select_nth_unstable_by(rank, f64::total_cmp)` leaves at
/// `rank` in a copy — without copying `values`.
///
/// A radix select over [`total_order_key`], on the key range the values
/// actually span, so clustered latencies spread over many buckets: a first
/// pass finds the smallest and largest key; each further pass splits the
/// range still in the running into at most 2¹⁶ equal buckets, counts the
/// keys in each and keeps the bucket holding `rank`. Once at most 1,024
/// values are left (usually after one histogram), they are copied out and
/// selected directly. Scratch memory is one histogram of 2¹⁶ counters
/// (512 KiB) plus at most 1,024 keys, whatever the length of `values`.
///
/// # Panics
///
/// If `rank >= values.len()`.
pub fn select_nth_total_order(values: &[f64], rank: usize) -> f64 {
    assert!(
        rank < values.len(),
        "rank {rank} out of range for {} values",
        values.len()
    );
    let keys = || values.iter().map(|&v| total_order_key(v));
    let (min, max) = keys().fold((u64::MAX, 0), |(min, max), key| {
        (min.min(key), max.max(key))
    });
    // The values still in the running are those with a key in
    // `low..=low + width`; `rank` counts from `low`.
    let (mut low, mut width) = (min, max - min);
    let mut rank = rank;
    let mut remaining = values.len();
    let mut counts: Vec<usize> = Vec::new();
    while width > 0 {
        if remaining <= CANDIDATE_LIMIT {
            let mut candidates: Vec<u64> = Vec::with_capacity(remaining);
            candidates.extend(keys().filter(|key| key.wrapping_sub(low) <= width));
            return from_total_order_key(*candidates.select_nth_unstable(rank).1);
        }
        // Bucket `offset >> shift` of at most 2¹⁶.
        let shift = (u64::BITS - width.leading_zeros()).saturating_sub(DIGIT_BITS);
        counts.clear();
        counts.resize((width >> shift) as usize + 1, 0);
        for key in keys() {
            let offset = key.wrapping_sub(low);
            if offset <= width {
                counts[(offset >> shift) as usize] += 1;
            }
        }
        for (bucket, &count) in counts.iter().enumerate() {
            if rank < count {
                let start = (bucket as u64) << shift;
                low += start;
                width = (width - start).min((1 << shift) - 1);
                remaining = count;
                break;
            }
            rank -= count;
        }
    }
    // A single key is left: every value in the running has these bits.
    from_total_order_key(low)
}

/// Summary of a sample distribution including tail percentiles — the
/// aggregation the multi-trial benchmark runner reports per experiment
/// point (mean / p50 / p95 / standard deviation across trials).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistributionSummary {
    /// Number of values.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n − 1 denominator; 0 for a single value).
    pub sd: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (50th percentile, nearest-rank).
    pub p50: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
}

impl DistributionSummary {
    /// Computes the summary from one sorted copy of the values. Returns
    /// `None` for an empty slice.
    pub fn compute(values: &[f64]) -> Option<Self> {
        let sorted = sorted_copy(values)?;
        let base = SummaryStats::with_sorted(values, &sorted);
        Some(Self {
            count: base.count,
            mean: base.mean,
            sd: base.sd,
            min: base.min,
            max: base.max,
            p50: sorted[nearest_rank(sorted.len(), 50.0)],
            p95: sorted[nearest_rank(sorted.len(), 95.0)],
        })
    }
}

/// Computes a centred-at-the-end moving average over `(time, value)` pairs:
/// for every input point, the output value is the mean of all values whose
/// time lies within `window` *before* (and including) that point. This is the
/// aggregation used to produce Figure 6 ("moving average with a window size
/// of 3 seconds").
pub fn moving_average(points: &[(f64, f64)], window: f64) -> Vec<(f64, f64)> {
    let mut result = Vec::with_capacity(points.len());
    let mut start = 0usize;
    let mut sum = 0.0;
    for (i, &(t, v)) in points.iter().enumerate() {
        sum += v;
        while points[start].0 < t - window {
            sum -= points[start].1;
            start += 1;
        }
        let count = i - start + 1;
        result.push((t, sum / count as f64));
    }
    result
}

/// Buckets `(time, value)` pairs into fixed-width time bins and averages the
/// values per bin, producing a compact series for plotting (used by the
/// experiment report printers).
pub fn bin_average(points: &[(f64, f64)], bin_width: f64) -> Vec<(f64, f64)> {
    if points.is_empty() || bin_width <= 0.0 {
        return Vec::new();
    }
    let mut bins: std::collections::BTreeMap<i64, (f64, usize)> = std::collections::BTreeMap::new();
    for &(t, v) in points {
        let bin = (t / bin_width).floor() as i64;
        let entry = bins.entry(bin).or_insert((0.0, 0));
        entry.0 += v;
        entry.1 += 1;
    }
    bins.into_iter()
        .map(|(bin, (sum, count))| (bin as f64 * bin_width, sum / count as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_empty_slice_is_none() {
        assert!(SummaryStats::compute(&[]).is_none());
        assert!(SummaryStats::percentile(&[], 50.0).is_none());
    }

    #[test]
    fn summary_of_single_value() {
        let s = SummaryStats::compute(&[5.0]).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.min, 5.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.sd, 0.0);
        assert_eq!(s.median, 5.0);
    }

    #[test]
    fn summary_matches_hand_computation() {
        let values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = SummaryStats::compute(&values).unwrap();
        assert_eq!(s.count, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        // Sample sd of this classic example is sqrt(32/7).
        assert!((s.sd - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.median, 4.5);
    }

    #[test]
    fn median_of_odd_count() {
        let s = SummaryStats::compute(&[9.0, 1.0, 5.0]).unwrap();
        assert_eq!(s.median, 5.0);
    }

    #[test]
    fn percentiles() {
        let values: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        assert_eq!(SummaryStats::percentile(&values, 0.0), Some(1.0));
        assert_eq!(SummaryStats::percentile(&values, 100.0), Some(100.0));
        let p50 = SummaryStats::percentile(&values, 50.0).unwrap();
        assert!((p50 - 50.0).abs() <= 1.0);
        let p95 = SummaryStats::percentile(&values, 95.0).unwrap();
        assert!((p95 - 95.0).abs() <= 1.0);
    }

    /// Values at the edges of the `total_cmp` order.
    const EDGES: [f64; 12] = [
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        5e-324,
        -5e-324,
    ];

    #[test]
    fn total_order_key_orders_like_total_cmp_and_round_trips() {
        let payload_nan = f64::from_bits(0x7ff0_0000_0000_0001);
        let values: Vec<f64> = EDGES
            .iter()
            .copied()
            .chain([1.5, -2.5, payload_nan])
            .collect();
        for &a in &values {
            assert_eq!(
                from_total_order_key(total_order_key(a)).to_bits(),
                a.to_bits()
            );
            for &b in &values {
                assert_eq!(
                    total_order_key(a).cmp(&total_order_key(b)),
                    a.total_cmp(&b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn radix_select_matches_select_on_a_copy_through_every_pass() {
        // Far more than CANDIDATE_LIMIT copies of one value and of its
        // neighbour one ulp up (distinguished only by the last digit), a
        // spread of latencies, and every edge value.
        let near = f64::from_bits(2.5f64.to_bits() + 1);
        let mut values: Vec<f64> = Vec::new();
        for i in 0..60_000u64 {
            values.push(match i % 6 {
                0 | 1 => 2.5,
                2 => near,
                3 => EDGES[(i / 6 % 12) as usize],
                _ => (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as f64 / 1e3,
            });
        }
        let len = values.len();
        for rank in [
            0,
            1,
            2,
            len / 6,
            len / 3,
            len / 2,
            len * 2 / 3,
            len - 2,
            len - 1,
        ] {
            let mut copy = values.clone();
            let want = *copy.select_nth_unstable_by(rank, f64::total_cmp).1;
            let got = select_nth_total_order(&values, rank);
            assert_eq!(got.to_bits(), want.to_bits(), "rank {rank}");
        }
        // A single repeated value needs no histogram at all.
        let same = vec![-0.0; 3 * CANDIDATE_LIMIT];
        assert_eq!(
            select_nth_total_order(&same, 7).to_bits(),
            (-0.0f64).to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn radix_select_rejects_a_rank_past_the_end() {
        select_nth_total_order(&[1.0], 1);
    }

    #[test]
    fn distribution_summary_reports_tail_percentiles() {
        let values: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        let d = DistributionSummary::compute(&values).unwrap();
        assert_eq!(d.count, 100);
        assert!((d.mean - 50.5).abs() < 1e-12);
        assert_eq!(d.min, 1.0);
        assert_eq!(d.max, 100.0);
        assert!((d.p50 - 50.0).abs() <= 1.0);
        assert!((d.p95 - 95.0).abs() <= 1.0);
        assert!(d.sd > 28.0 && d.sd < 30.0);
        assert!(DistributionSummary::compute(&[]).is_none());
        let single = DistributionSummary::compute(&[3.0]).unwrap();
        assert_eq!(single.p50, 3.0);
        assert_eq!(single.p95, 3.0);
        assert_eq!(single.sd, 0.0);
    }

    #[test]
    fn moving_average_smooths_series() {
        let points: Vec<(f64, f64)> = vec![(0.0, 10.0), (1.0, 20.0), (2.0, 30.0), (5.0, 40.0)];
        let avg = moving_average(&points, 3.0);
        assert_eq!(avg.len(), 4);
        assert_eq!(avg[0].1, 10.0);
        assert_eq!(avg[1].1, 15.0);
        assert_eq!(avg[2].1, 20.0);
        // At t=5 with window 3, only points at t >= 2 are included.
        assert_eq!(avg[3].1, 35.0);
    }

    #[test]
    fn moving_average_of_constant_series_is_constant() {
        let points: Vec<(f64, f64)> = (0..100).map(|i| (i as f64 * 0.1, 22.5)).collect();
        for (_, v) in moving_average(&points, 3.0) {
            assert!((v - 22.5).abs() < 1e-12);
        }
    }

    #[test]
    fn bin_average_groups_points() {
        let points = vec![(0.1, 10.0), (0.4, 20.0), (1.2, 30.0), (2.9, 50.0)];
        let bins = bin_average(&points, 1.0);
        assert_eq!(bins.len(), 3);
        assert_eq!(bins[0], (0.0, 15.0));
        assert_eq!(bins[1], (1.0, 30.0));
        assert_eq!(bins[2], (2.0, 50.0));
        assert!(bin_average(&[], 1.0).is_empty());
        assert!(bin_average(&points, 0.0).is_empty());
    }
}
