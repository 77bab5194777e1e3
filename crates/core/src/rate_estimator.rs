//! Online VOQ rate measurement for adaptive stripe sizing.
//!
//! The paper (§3.3.2) sets the initial stripe sizes from historical traffic
//! information or defaults, then adjusts them "based on the measured rate of
//! the corresponding VOQ".  This module provides the measurement: a windowed
//! estimator that counts arrivals over fixed windows of `window` slots and
//! smooths the per-window rate with an exponentially weighted moving average.

/// Windowed EWMA arrival-rate estimator.
#[derive(Debug, Clone)]
pub struct RateEstimator {
    /// Window length in slots.
    window: u64,
    /// EWMA smoothing factor in `(0, 1]`; 1.0 means "use the last window only".
    gamma: f64,
    /// Arrivals counted in the current window.
    count: u64,
    /// Slot at which the current window started.
    window_start: u64,
    /// Current smoothed rate estimate (packets per slot).
    estimate: f64,
    /// Number of complete windows observed so far.
    windows_seen: u64,
}

impl RateEstimator {
    /// Create an estimator with the given window length (slots) and EWMA
    /// factor `gamma` (weight of the newest window).
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` or `gamma` is outside `(0, 1]`.
    pub fn new(window: u64, gamma: f64) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(gamma > 0.0 && gamma <= 1.0, "gamma must be in (0, 1]");
        RateEstimator {
            window,
            gamma,
            count: 0,
            window_start: 0,
            estimate: 0.0,
            windows_seen: 0,
        }
    }

    /// Record a packet arrival at `slot`.
    pub fn record_arrival(&mut self, slot: u64) {
        self.roll_to(slot);
        self.count += 1;
    }

    /// Advance time to `slot` (closing any windows that have elapsed) and
    /// return the current rate estimate in packets per slot.
    pub fn rate_at(&mut self, slot: u64) -> f64 {
        self.roll_to(slot);
        self.estimate
    }

    fn roll_to(&mut self, slot: u64) {
        // Compare `slot - window_start >= window` instead of
        // `slot >= window_start + window`: the sum overflows u64 once
        // `window_start` gets within one window of u64::MAX (huge windows
        // reach that after a single roll).  The saturating advance below is
        // safe for the same reason it terminates: once `window_start` stops
        // moving, `slot - window_start` can no longer reach `window`.
        while slot
            .checked_sub(self.window_start)
            .is_some_and(|elapsed| elapsed >= self.window)
        {
            let window_rate = self.count as f64 / self.window as f64;
            self.estimate = if self.windows_seen == 0 {
                window_rate
            } else {
                self.gamma * window_rate + (1.0 - self.gamma) * self.estimate
            };
            self.windows_seen += 1;
            self.count = 0;
            self.window_start = self.window_start.saturating_add(self.window);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_rate_converges_to_true_rate() {
        let mut est = RateEstimator::new(100, 0.3);
        // One arrival every 4 slots → rate 0.25.
        for slot in (0..10_000).step_by(4) {
            est.record_arrival(slot);
        }
        let r = est.rate_at(10_000);
        assert!(
            (r - 0.25).abs() < 0.02,
            "estimate {r} should be close to 0.25"
        );
    }

    #[test]
    fn estimate_is_zero_before_first_window_completes() {
        let mut est = RateEstimator::new(1000, 0.5);
        est.record_arrival(10);
        est.record_arrival(20);
        assert_eq!(est.rate_at(500), 0.0);
        assert!(est.rate_at(1000) > 0.0);
        assert_eq!(est.windows_seen, 1);
    }

    #[test]
    fn rate_tracks_a_change_in_load() {
        let mut est = RateEstimator::new(100, 0.5);
        // Heavy phase: one arrival per slot.
        for slot in 0..1000 {
            est.record_arrival(slot);
        }
        let heavy = est.rate_at(1000);
        assert!(heavy > 0.9);
        // Idle phase: no arrivals for many windows.
        let idle = est.rate_at(3000);
        assert!(idle < heavy / 4.0, "estimate should decay after load drops");
    }

    #[test]
    fn gamma_one_uses_only_last_window() {
        let mut est = RateEstimator::new(10, 1.0);
        for slot in 0..10 {
            est.record_arrival(slot);
        }
        assert_eq!(est.rate_at(10), 1.0);
        // Next window has no arrivals; with gamma = 1 the estimate drops to 0.
        assert_eq!(est.rate_at(20), 0.0);
    }

    #[test]
    fn empty_windows_are_counted() {
        let mut est = RateEstimator::new(10, 0.5);
        assert_eq!(est.rate_at(100), 0.0);
        assert_eq!(est.windows_seen, 10);
    }

    #[test]
    fn first_partial_window_reports_zero_then_the_exact_window_rate() {
        // Exact pinned values: before the first window completes the
        // estimate is exactly 0.0 (no division by the elapsed partial
        // span), and the first complete window reports count/window with no
        // startup bias.
        let mut est = RateEstimator::new(8, 0.5);
        for slot in 0..6 {
            est.record_arrival(slot);
        }
        assert_eq!(est.rate_at(5), 0.0);
        assert_eq!(est.rate_at(7), 0.0, "slot 7 is still inside window 0");
        assert_eq!(est.windows_seen, 0);
        assert_eq!(est.rate_at(8), 0.75, "6 arrivals / 8 slots, exactly");
        assert_eq!(est.windows_seen, 1);
    }

    #[test]
    fn second_window_is_an_exact_ewma_blend() {
        // gamma = 0.25 and window rates 1.0 then 0.5 are all exactly
        // representable, so the blend 0.25·0.5 + 0.75·1.0 = 0.875 is exact.
        let mut est = RateEstimator::new(10, 0.25);
        for slot in 0..10 {
            est.record_arrival(slot);
        }
        for slot in (10..20).step_by(2) {
            est.record_arrival(slot);
        }
        assert_eq!(est.rate_at(10), 1.0);
        assert_eq!(est.rate_at(20), 0.875);
        assert_eq!(est.windows_seen, 2);
    }

    #[test]
    fn huge_windows_do_not_overflow_the_roll() {
        // Regression: rolling used to compute `window_start + window`, which
        // overflows u64 (a debug-build panic) as soon as one window of
        // length ≥ 2^63 has elapsed and a later slot is queried.
        let mut est = RateEstimator::new(1 << 63, 1.0);
        est.record_arrival(0);
        let expected = 1.0 / (1u64 << 63) as f64;
        assert_eq!(est.rate_at(u64::MAX), expected);
        assert_eq!(est.windows_seen, 1);
        // Querying again (and further ahead) stays stable and panic-free.
        assert_eq!(est.rate_at(u64::MAX), expected);
    }

    #[test]
    #[should_panic]
    fn zero_window_is_rejected() {
        // `window = 0` is a construction error by contract: there is no
        // meaningful rate over an empty window, so the constructor asserts
        // (in every build profile) instead of letting rate_at divide by 0.
        let _ = RateEstimator::new(0, 0.5);
    }

    #[test]
    #[should_panic]
    fn gamma_out_of_range_is_rejected() {
        let _ = RateEstimator::new(10, 1.5);
    }
}
