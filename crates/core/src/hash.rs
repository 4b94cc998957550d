//! Shared deterministic 64-bit mixing primitives.
//!
//! Several components hash identities into uniform draws or bucket indices:
//! the proxy buckets session tokens into traffic splits, salts dark-launch
//! cohort draws, and assigns tokens to session-store shards; user selection
//! buckets user ids; the simulator's generator expands its seed. They all
//! build on the same splitmix64 finalizer so the statistical properties
//! (full avalanche, uniform low bits) are shared and tested in one place —
//! and so two draws over the same identity can be decorrelated by salting
//! instead of by inventing new mixers. Names (seed-stream labels, proxy
//! names) are hashed with [`fnv1a`].

/// The splitmix64 increment ("golden gamma"), also used as the additive
/// pre-whitening step when finalizing raw identity bits.
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 finalizer: a bijective avalanche mix of all 64 bits.
///
/// Every output bit depends on every input bit, so both the high bits
/// (bucket indices via modulo) and the low 53 bits (uniform doubles) of the
/// result are usable independently.
#[inline]
#[must_use]
pub const fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One step of the splitmix64 sequence: advances `state` by
/// [`GOLDEN_GAMMA`] and finalizes it with [`mix64`].
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    mix64(*state)
}

/// Maps 64 identity bits to a uniform draw in `[0, 1)` (splitmix64-style:
/// pre-whiten with [`GOLDEN_GAMMA`], finalize, take the high 53 bits).
#[inline]
#[must_use]
pub fn mix_unit(bits: u64) -> f64 {
    (mix64(bits.wrapping_add(GOLDEN_GAMMA)) >> 11) as f64 / (1u64 << 53) as f64
}

/// Folds a 128-bit identity (e.g. a session token) into 64 mixed bits.
#[inline]
#[must_use]
pub const fn fold128(raw: u128) -> u64 {
    mix64((raw as u64) ^ ((raw >> 64) as u64))
}

/// The 64-bit FNV-1a hash of `bytes`: a short, stable digest for turning
/// names into seeds.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_sequence_matches_reference_vectors() {
        // Reference values of splitmix64 seeded with 0 (Vigna's sequence).
        let mut state = 0u64;
        assert_eq!(splitmix64(&mut state), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut state), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(&mut state), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn mix_unit_is_uniform_and_in_range() {
        let n = 10_000u64;
        let draws: Vec<f64> = (0..n).map(mix_unit).collect();
        assert!(draws.iter().all(|d| (0.0..1.0).contains(d)));
        let mean = draws.iter().sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn fold128_depends_on_both_halves() {
        let base = 0x0123_4567_89ab_cdef_0123_4567_89ab_cdefu128;
        assert_ne!(fold128(base), fold128(base ^ 1));
        assert_ne!(fold128(base), fold128(base ^ (1u128 << 100)));
        assert_eq!(fold128(base), fold128(base));
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Reference values of 64-bit FNV-1a (Fowler, Noll, Vo).
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
