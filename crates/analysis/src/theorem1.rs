//! Theorem 1: the zero-overload load threshold.
//!
//! Theorem 1 of the paper states that the queue of packets at an input port
//! destined to a particular intermediate port can never be overloaded —
//! `X(r) < 1/N` with probability 1 — as long as the total load on the input
//! port satisfies `|r| < 2/3 + 1/(3N²)`, *regardless* of how that load is
//! split across the N VOQs and of which permutation places their stripe
//! intervals.  The proof constructs the cheapest rate vector that can overload
//! the queue; this module reproduces both the threshold and that worst-case
//! construction, which the tests then verify numerically.

/// The threshold of Theorem 1: `2/3 + 1/(3N²)`.
pub fn zero_overload_threshold(n: usize) -> f64 {
    let n = n as f64;
    2.0 / 3.0 + 1.0 / (3.0 * n * n)
}

/// The stripe size rule `F(r)` (duplicated here so the analysis crate stays
/// independent of the switch implementation; the two are cross-checked in the
/// integration tests).
pub fn stripe_size(rate: f64, n: usize) -> usize {
    if rate <= 0.0 {
        return 1;
    }
    let scaled = rate * (n as f64) * (n as f64);
    if scaled <= 1.0 {
        return 1;
    }
    let mut size = 1usize;
    while (size as f64) < scaled && size < n {
        size *= 2;
    }
    size.min(n)
}

/// Arrival rate contributed to the tagged queue (input port → intermediate
/// port 1, in the paper's 1-indexed notation) by a rate assignment.
///
/// `rates_by_position[k]` is the rate of the VOQ whose primary intermediate
/// port is at distance `k` from the tagged intermediate port, for
/// `k = 0, …, N−1` (the paper's `ℓ = k + 1`).  That VOQ contributes its
/// load-per-share `r/F(r)` to the tagged queue iff its stripe interval covers
/// the tagged port, i.e. iff `F(r) ≥ ℓ = k + 1`.
pub fn queue_arrival_rate(rates_by_position: &[f64], n: usize) -> f64 {
    assert_eq!(rates_by_position.len(), n);
    rates_by_position
        .iter()
        .enumerate()
        .map(|(k, &r)| {
            let f = stripe_size(r, n);
            if f > k {
                r / f as f64
            } else {
                0.0
            }
        })
        .sum()
}

/// The worst-case rate vector constructed in the proof of Theorem 1: the
/// cheapest (minimum total load) split of traffic that drives the tagged
/// queue's arrival rate up to exactly `1/N`.
///
/// Position `k` (0-indexed; the paper's `ℓ = k+1`) gets rate
/// `2^⌈log₂(k+1)⌉ / N²` for `ℓ ≤ N/2`, position `N/2` gets rate `1/2`, and the
/// rest get 0.  Its total load is exactly the Theorem 1 threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct WorstCaseRates {
    /// Rates indexed by distance from the tagged intermediate port.
    pub rates: Vec<f64>,
}

impl WorstCaseRates {
    /// Total offered load `|r|`.
    pub fn total_load(&self) -> f64 {
        self.rates.iter().sum()
    }

    /// The arrival rate the tagged queue sees under this assignment.
    pub fn queue_rate(&self) -> f64 {
        queue_arrival_rate(&self.rates, self.rates.len())
    }
}

/// Build the worst-case rate vector for an `n`-port switch.
pub fn worst_case_rate_vector(n: usize) -> WorstCaseRates {
    assert!(n.is_power_of_two() && n >= 4);
    let n2 = (n * n) as f64;
    let mut rates = vec![0.0; n];
    for (k, rate) in rates.iter_mut().enumerate().take(n / 2) {
        let size = (k + 1).next_power_of_two();
        *rate = size as f64 / n2;
    }
    rates[n / 2] = 0.5;
    WorstCaseRates { rates }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn threshold_matches_formula() {
        assert!((zero_overload_threshold(8) - (2.0 / 3.0 + 1.0 / 192.0)).abs() < 1e-15);
        assert!((zero_overload_threshold(1024) - 2.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn worst_case_total_load_equals_threshold() {
        for n in [4usize, 8, 16, 64, 256, 1024] {
            let wc = worst_case_rate_vector(n);
            let expected = zero_overload_threshold(n);
            assert!(
                (wc.total_load() - expected).abs() < 1e-12,
                "n = {n}: {} vs {expected}",
                wc.total_load()
            );
        }
    }

    #[test]
    fn worst_case_queue_rate_is_exactly_one_over_n() {
        for n in [4usize, 8, 16, 64, 256] {
            let wc = worst_case_rate_vector(n);
            assert!(
                (wc.queue_rate() - 1.0 / n as f64).abs() < 1e-12,
                "n = {n}: queue rate {}",
                wc.queue_rate()
            );
        }
    }

    #[test]
    fn reducing_any_rate_drops_below_the_service_rate() {
        // The worst case is tight: shaving a little off any contributing VOQ
        // pushes the queue's arrival rate strictly below 1/N.
        let n = 16;
        let wc = worst_case_rate_vector(n);
        for k in 0..n {
            if wc.rates[k] == 0.0 {
                continue;
            }
            let mut rates = wc.rates.clone();
            rates[k] *= 0.9;
            assert!(queue_arrival_rate(&rates, n) < 1.0 / n as f64);
        }
    }

    #[test]
    fn uniform_load_never_overloads_the_queue() {
        // Uniform traffic at full load: every VOQ rate 1/N, stripe size N,
        // load-per-share 1/N².  The tagged queue receives exactly 1/N... from
        // all N VOQs?  No: only the VOQs whose interval covers the tagged
        // port, which with stripe size N is all of them → N · 1/N² = 1/N, not
        // *less* than 1/N, but not more either.  At 99% load it is strictly
        // below.
        let n = 64;
        let rates = vec![0.99 / n as f64; n];
        assert!(queue_arrival_rate(&rates, n) < 1.0 / n as f64);
    }

    proptest! {
        /// Theorem 1 verified numerically: any admissible split with total
        /// load below the threshold keeps the queue's arrival rate below 1/N,
        /// for every placement (the placement is captured by how the rates are
        /// ordered by distance, so shuffling the vector covers placements).
        #[test]
        fn below_threshold_never_overloads(
            raw in proptest::collection::vec(0.0f64..1.0, 16),
            seed in 0u64..1000,
        ) {
            let n = 16usize;
            let threshold = zero_overload_threshold(n);
            let sum: f64 = raw.iter().sum();
            prop_assume!(sum > 0.0);
            // Scale to a total load just below the threshold.
            let scale = (threshold * 0.999) / sum;
            let mut rates: Vec<f64> = raw.iter().map(|r| r * scale).collect();
            // Apply a pseudo-random rotation/shuffle to model the permutation.
            let rot = (seed as usize) % n;
            rates.rotate_left(rot);
            let x = queue_arrival_rate(&rates, n);
            prop_assert!(x < 1.0 / n as f64 + 1e-12,
                "queue rate {x} exceeds 1/N under total load {}", threshold * 0.999);
        }

        /// The tagged queue's arrival rate never exceeds the total load
        /// divided by ... in fact never exceeds the total load, and is always
        /// nonnegative.
        #[test]
        fn queue_rate_is_sane(raw in proptest::collection::vec(0.0f64..0.1, 16)) {
            let n = 16usize;
            let x = queue_arrival_rate(&raw, n);
            let total: f64 = raw.iter().sum();
            prop_assert!(x >= 0.0);
            prop_assert!(x <= total + 1e-12);
        }
    }
}
