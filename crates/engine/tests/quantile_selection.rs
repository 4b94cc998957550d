//! Property test of [`TrafficStats::latency_quantile_ms`]'s clone-free
//! radix selection against the selection it replaces: a copy of the
//! latencies, `select_nth_unstable_by(rank, f64::total_cmp)`, compared bit
//! for bit. Inputs mix heavy duplicates, neighbours one ulp apart, ±0.0,
//! ±∞, NaNs with and without payloads, subnormals and arbitrary bit
//! patterns, and `q` reaches outside `[0, 1]`.

use bifrost_engine::TrafficStats;
use proptest::collection::vec as any_vec;
use proptest::prelude::*;

/// Values that recur: each is an eighth of a typical vector, and the first
/// two differ only in their last bit, so once a vector has a few thousand
/// values their runs outgrow the selection's candidate limit and force it
/// through every radix pass.
const PALETTE: [f64; 3] = [2.5, 2.500_000_000_000_000_4, 10.0];

/// Decodes one raw draw into a latency.
fn value(raw: u64) -> f64 {
    let high = raw >> 8;
    let sign = (raw & 0x80) << 56;
    match raw % 16 {
        0 => 0.0,
        1 => -0.0,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => f64::NAN,
        5 => -f64::NAN,
        // A quiet NaN with a payload, of either sign.
        6 => f64::from_bits(0x7ff8_0000_0000_0000 | (high & 0xffff) | sign),
        // A subnormal, of either sign.
        7 => f64::from_bits((high & 0x000f_ffff_ffff_ffff) | sign),
        8..=13 => PALETTE[(high % PALETTE.len() as u64) as usize],
        14 => (high % 100_000) as f64 / 100.0,
        _ => f64::from_bits(raw.rotate_left(17) ^ high),
    }
}

/// The quantile the way it used to be computed: select on a copy.
fn reference(latencies: &[f64], q: f64) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    let mut copy = latencies.to_vec();
    let rank = (q.clamp(0.0, 1.0) * (copy.len() - 1) as f64).round() as usize;
    *copy.select_nth_unstable_by(rank, f64::total_cmp).1
}

proptest! {
    #[test]
    fn quantile_equals_select_on_a_copy(
        raw in any_vec(0u64..u64::MAX, 0..5_001),
        qs in any_vec(-0.5f64..1.5, 1..4),
    ) {
        let stats = TrafficStats {
            latencies_ms: raw.into_iter().map(value).collect(),
            ..TrafficStats::default()
        };
        for q in qs.into_iter().chain([0.0, 0.5, 0.95, 1.0]) {
            let got = stats.latency_quantile_ms(q);
            let want = reference(&stats.latencies_ms, q);
            prop_assert_eq!(got.to_bits(), want.to_bits());
        }
    }
}
