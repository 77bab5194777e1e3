//! Property suite for `DelayStats::percentile` against a sorted-vector
//! oracle.
//!
//! The oracle keeps every recorded delay in a sorted `Vec` and computes the
//! rank by exhaustive search over the *exact* rational value of the `f64`
//! percentile (an inequality on integers, no floating-point products), so
//! it is immune to the float-rounding bug the histogram implementation
//! fixed: `(p * count as f64).ceil()` rounds the product to nearest and can
//! land one rank low at integer boundaries (e.g. `0.1 × 10` → exactly
//! `1.0`, though `10 · 0.1f64 > 1`).

use proptest::prelude::*;
use sprinklers_sim::metrics::DelayStats;

/// Exact test of `r ≥ count · p` where `p` is the rational value its f64
/// encoding denotes (`mant · 2^exp`), phrased as `r · 2^-exp ≥ count · mant`
/// on integers.
fn rank_reaches(r: u64, count: u64, p: f64) -> bool {
    let bits = p.to_bits();
    let exp_field = (bits >> 52) & 0x7ff;
    let frac = bits & ((1u64 << 52) - 1);
    let (mant, exp) = if exp_field == 0 {
        (frac, -1074i64)
    } else {
        (frac | (1 << 52), exp_field as i64 - 1075)
    };
    let prod = u128::from(count) * u128::from(mant);
    match u128::from(r).checked_shl((-exp) as u32) {
        Some(scaled) => scaled >= prod,
        None => true, // r · 2^shift overflows u128, so it certainly exceeds prod
    }
}

/// The oracle: rank = smallest `r ∈ [1, count]` with `r ≥ count · p`
/// (clamped like the implementation), answer = the rank-th smallest delay.
fn oracle(sorted: &[u64], p: f64) -> u64 {
    let count = sorted.len() as u64;
    let rank = (1..=count)
        .find(|&r| rank_reaches(r, count, p))
        .unwrap_or(count);
    sorted[(rank - 1) as usize]
}

/// Percentiles where rounding bugs hide: exact dyadics, near-boundary
/// decimals, and the CSV's published columns.
const EDGE_PS: [f64; 9] = [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99];

proptest! {
    #[test]
    fn percentile_matches_the_sorted_oracle(
        delays in collection::vec(0u64..240, 1..220),
        cap in 1usize..260,
        p in 0.0f64..1.0,
    ) {
        let mut stats = DelayStats::new(cap);
        for &d in &delays {
            stats.record(d);
        }
        let mut sorted = delays.clone();
        sorted.sort_unstable();
        for q in EDGE_PS.into_iter().chain([p, 1.0]) {
            prop_assert_eq!(
                stats.percentile(q),
                oracle(&sorted, q),
                "count={} cap={} p={}",
                sorted.len(),
                cap,
                q
            );
        }
    }

}
