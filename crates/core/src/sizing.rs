//! Stripe size determination (§3.3.2, Eq. (1)).
//!
//! For a VOQ with arrival rate `r` (normalized so the input line rate is 1),
//! the stripe size is
//!
//! ```text
//! F(r) = min(N, 2^⌈log₂(r·N²)⌉)
//! ```
//!
//! clamped below at 1.  The rule aims to bring the *load-per-share*
//! `s = r / F(r)` — the amount of traffic the VOQ imposes on each intermediate
//! port of its stripe interval — below `1/N²`, while keeping the size a power
//! of two so the stripe interval can be dyadic.  Because of the rounding, the
//! load-per-share of a VOQ with stripe size `2 ≤ F(r) ≤ N/2` lies in
//! `(1/(2N²), 1/N²]`, and for very hot VOQs (`r > 1/(2N)`) the stripe simply
//! spans all N intermediate ports.

/// The load-per-share threshold `α = 1/N²` the sizing rule targets.
pub fn alpha(n: usize) -> f64 {
    1.0 / (n as f64 * n as f64)
}

/// Stripe size `F(r)` for a VOQ of rate `r` in an `n`-port switch.
///
/// `r` is the normalized arrival rate of the VOQ (packets per slot, so
/// `0 ≤ r ≤ 1`).  The result is always a power of two in `1..=n`.
///
/// # Panics
///
/// Panics if `n` is not a power of two or `r` is negative/NaN.
pub fn stripe_size(rate: f64, n: usize) -> usize {
    assert!(
        n.is_power_of_two(),
        "switch size {n} must be a power of two"
    );
    assert!(
        rate.is_finite() && rate >= 0.0,
        "rate {rate} must be finite and non-negative"
    );
    if rate == 0.0 {
        return 1;
    }
    let scaled = rate * (n as f64) * (n as f64);
    if scaled <= 1.0 {
        return 1;
    }
    // 2^⌈log₂(scaled)⌉ computed carefully: find the smallest power of two ≥ scaled.
    let mut size = 1usize;
    while (size as f64) < scaled && size < n {
        size *= 2;
    }
    size.min(n)
}

/// Load-per-share `s = r / F(r)` of a VOQ of rate `r`.
pub fn load_per_share(rate: f64, n: usize) -> f64 {
    rate / stripe_size(rate, n) as f64
}

/// A stripe-size decision with hysteresis, used by the adaptive sizing mode.
///
/// §3.3.2 notes that to prevent a stripe size from thrashing between `2^k` and
/// `2^{k+1}` when the measured rate hovers near a boundary, halving/doubling
/// should be delayed.  `SizeDecider` requires the target size suggested by the
/// measured rate to differ from the current size for `patience` consecutive
/// updates before committing to a change.
///
/// This is one VOQ's state, eight bytes: the port count and the patience are
/// the switch's, and every [`observe`](Self::observe) takes them.
#[derive(Debug, Clone, Copy)]
pub struct SizeDecider {
    /// `log₂` of the committed stripe size.
    level: u8,
    /// `log₂` of the size the latest measurements disagreed toward.
    pending: Option<u8>,
    /// Consecutive measurements that agreed with `pending`.
    pending_count: u32,
}

/// `log₂` of a power-of-two stripe size, as a decider stores it (at most
/// 63, so the cast is exact).
fn level_of(size: usize) -> u8 {
    debug_assert!(size.is_power_of_two());
    size.trailing_zeros() as u8
}

impl SizeDecider {
    /// Create a decider for an `n`-port switch starting at `initial`
    /// (clamped to a power of two in `1..=n`).
    pub fn new(n: usize, initial: usize) -> Self {
        let initial = initial.clamp(1, n).next_power_of_two().min(n);
        SizeDecider {
            level: level_of(initial),
            pending: None,
            pending_count: 0,
        }
    }

    /// The currently committed stripe size.
    pub fn current(&self) -> usize {
        1 << self.level
    }

    /// Feed a new rate measurement for a VOQ of an `n`-port switch that
    /// changes size after `patience` consecutive disagreeing measurements.
    /// Returns `Some(new_size)` if the decider commits to a different stripe
    /// size, `None` otherwise.
    pub fn observe(&mut self, measured_rate: f64, n: usize, patience: u32) -> Option<usize> {
        let target = stripe_size(measured_rate, n);
        let level = level_of(target);
        if level == self.level {
            self.pending = None;
            self.pending_count = 0;
            return None;
        }
        match self.pending {
            Some(p) if p == level => {
                self.pending_count += 1;
            }
            _ => {
                self.pending = Some(level);
                self.pending_count = 1;
            }
        }
        if self.pending_count > patience {
            self.level = level;
            self.pending = None;
            self.pending_count = 0;
            Some(target)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_rate_gets_unit_stripe() {
        assert_eq!(stripe_size(0.0, 64), 1);
    }

    #[test]
    fn tiny_rate_gets_unit_stripe() {
        let n = 64;
        // r N² ≤ 1  →  size 1
        assert_eq!(stripe_size(1.0 / (n * n) as f64, n), 1);
        assert_eq!(stripe_size(0.5 / (n * n) as f64, n), 1);
    }

    #[test]
    fn boundary_rates_map_to_exact_powers() {
        let n = 64usize;
        let n2 = (n * n) as f64;
        // r N² = 2 → size 2;  r N² = 2 + ε → size 4.
        assert_eq!(stripe_size(2.0 / n2, n), 2);
        assert_eq!(stripe_size(2.0001 / n2, n), 4);
        assert_eq!(stripe_size(4.0 / n2, n), 4);
        assert_eq!(stripe_size(5.0 / n2, n), 8);
    }

    #[test]
    fn hot_voq_spans_all_ports() {
        let n = 32;
        assert_eq!(stripe_size(1.0, n), n);
        assert_eq!(stripe_size(0.9, n), n);
        // r > 1/N ⇒ F(r) = N (paper §3.3.2).
        assert_eq!(stripe_size(1.1 / n as f64, n), n);
    }

    #[test]
    fn uniform_traffic_at_full_load_gets_unit_stripes() {
        // Under uniform traffic each VOQ has rate ρ/N ≤ 1/N, so r·N² ≤ N and
        // stripes never need to exceed N... but for ρ/N the size is the power
        // of two ≥ ρN.  At ρ = 1, that's exactly N... check smaller loads.
        let n = 32;
        assert_eq!(stripe_size(0.5 / n as f64, n), 16);
        assert_eq!(stripe_size(1.0 / (n as f64 * n as f64), n), 1);
    }

    #[test]
    fn alpha_is_one_over_n_squared() {
        assert!((alpha(64) - 1.0 / 4096.0).abs() < 1e-15);
    }

    #[test]
    fn decider_requires_patience_before_changing() {
        let n = 64;
        let mut d = SizeDecider::new(n, 4);
        assert_eq!(d.current(), 4);
        let hot = 100.0 / (n * n) as f64; // target size 128 → clamped ... n=64 → min(64,128)=64
        assert_eq!(d.observe(hot, n, 2), None);
        assert_eq!(d.observe(hot, n, 2), None);
        assert_eq!(d.observe(hot, n, 2), Some(64));
        assert_eq!(d.current(), 64);
        // A single dissenting measurement resets the pending counter.
        let cold = 0.5 / (n * n) as f64;
        assert_eq!(d.observe(cold, n, 2), None);
        assert_eq!(d.observe(hot, n, 2), None); // agrees with current → resets
        assert_eq!(d.observe(cold, n, 2), None);
        assert_eq!(d.observe(cold, n, 2), None);
        assert_eq!(d.observe(cold, n, 2), Some(1));
    }

    #[test]
    fn decider_clamps_initial_size() {
        let d = SizeDecider::new(16, 100);
        assert_eq!(d.current(), 16);
        let d = SizeDecider::new(16, 0);
        assert_eq!(d.current(), 1);
        let d = SizeDecider::new(16, 3);
        assert_eq!(d.current(), 4);
    }

    proptest! {
        /// F(r) is always a power of two within [1, N].
        #[test]
        fn stripe_size_is_power_of_two_in_range(rate in 0.0f64..1.0, n_exp in 1usize..10) {
            let n = 1usize << n_exp;
            let s = stripe_size(rate, n);
            prop_assert!(s.is_power_of_two());
            prop_assert!(s >= 1 && s <= n);
        }

        /// F is nondecreasing in r.
        #[test]
        fn stripe_size_is_monotone(a in 0.0f64..1.0, b in 0.0f64..1.0, n_exp in 1usize..10) {
            let n = 1usize << n_exp;
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(stripe_size(lo, n) <= stripe_size(hi, n));
        }

        /// The load-per-share never exceeds α except for full-span stripes,
        /// and never drops below α/2 except for unit stripes.
        #[test]
        fn load_per_share_bounds(rate in 0.0f64..1.0, n_exp in 2usize..10) {
            let n = 1usize << n_exp;
            let f = stripe_size(rate, n);
            let s = load_per_share(rate, n);
            let a = alpha(n);
            if f < n {
                prop_assert!(s <= a * (1.0 + 1e-12), "s = {s}, α = {a}, f = {f}");
            }
            if f > 1 && f < n {
                prop_assert!(s > a / 2.0 * (1.0 - 1e-12), "s = {s}, α/2 = {}, f = {f}", a / 2.0);
            }
        }
    }
}
