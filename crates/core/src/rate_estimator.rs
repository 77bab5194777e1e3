//! Online VOQ rate measurement for adaptive stripe sizing.
//!
//! The paper (§3.3.2) sets the initial stripe sizes from historical traffic
//! information or defaults, then adjusts them "based on the measured rate of
//! the corresponding VOQ".  This module provides the measurement: a windowed
//! estimator that counts arrivals over fixed windows of `window` slots and
//! smooths the per-window rate with an exponentially weighted moving average.

/// The estimator's constants: the window length and the EWMA weight.  A
/// switch keeps one for all of its VOQs.
#[derive(Debug, Clone, Copy)]
pub struct RateWindow {
    /// Window length in slots.
    window: u64,
    /// EWMA smoothing factor in `(0, 1]`; 1.0 means "use the last window only".
    gamma: f64,
}

impl RateWindow {
    /// Windows of `window` slots, the newest weighted `gamma`.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` or `gamma` is outside `(0, 1]`.
    pub fn new(window: u64, gamma: f64) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(gamma > 0.0 && gamma <= 1.0, "gamma must be in (0, 1]");
        RateWindow { window, gamma }
    }

    /// The window length in slots.
    pub fn window(&self) -> u64 {
        self.window
    }
}

/// Windowed EWMA arrival-rate estimator: the state of one measurement, whose
/// constants every call takes as a [`RateWindow`].  The default is an
/// estimator that has seen nothing, with its first window starting at slot 0.
#[derive(Debug, Clone, Default)]
pub struct RateEstimator {
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
    /// Record a packet arrival at `slot`.
    pub fn record_arrival(&mut self, slot: u64, rule: &RateWindow) {
        self.roll_to(slot, rule);
        self.count += 1;
    }

    /// Advance time to `slot` (closing any windows that have elapsed) and
    /// return the current rate estimate in packets per slot.
    pub fn rate_at(&mut self, slot: u64, rule: &RateWindow) -> f64 {
        self.roll_to(slot, rule);
        self.estimate
    }

    fn roll_to(&mut self, slot: u64, rule: &RateWindow) {
        let RateWindow { window, gamma } = *rule;
        // Compare `slot - window_start >= window` instead of
        // `slot >= window_start + window`: the sum overflows u64 once
        // `window_start` gets within one window of u64::MAX (huge windows
        // reach that after a single roll).  While the comparison holds,
        // `window_start + window <= slot`, so no advance below overflows.
        while let Some(elapsed) = slot
            .checked_sub(self.window_start)
            .filter(|&elapsed| elapsed >= window)
        {
            let window_rate = self.count as f64 / window as f64;
            let before = self.estimate.to_bits();
            let blended = self.windows_seen > 0;
            self.estimate = if blended {
                gamma * window_rate + (1.0 - gamma) * self.estimate
            } else {
                window_rate
            };
            let empty = self.count == 0;
            self.windows_seen += 1;
            self.count = 0;
            self.window_start += window;
            if empty && blended && self.estimate.to_bits() == before {
                // A fixed point: every further window is empty and blends
                // the same estimate into the same bits (0, or a subnormal
                // that `(1 - gamma) * x` rounds back to), so close the rest
                // of them at once.  A far first arrival lands here after at
                // most two windows instead of looping once per window.
                let rest = (elapsed - window) / window;
                self.windows_seen += rest;
                self.window_start += rest * window;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;

    #[test]
    fn constant_rate_converges_to_true_rate() {
        let w = RateWindow::new(100, 0.3);
        let mut est = RateEstimator::default();
        // One arrival every 4 slots → rate 0.25.
        for slot in (0..10_000).step_by(4) {
            est.record_arrival(slot, &w);
        }
        let r = est.rate_at(10_000, &w);
        assert!(
            (r - 0.25).abs() < 0.02,
            "estimate {r} should be close to 0.25"
        );
    }

    #[test]
    fn estimate_is_zero_before_first_window_completes() {
        let w = RateWindow::new(1000, 0.5);
        let mut est = RateEstimator::default();
        est.record_arrival(10, &w);
        est.record_arrival(20, &w);
        assert_eq!(est.rate_at(500, &w), 0.0);
        assert!(est.rate_at(1000, &w) > 0.0);
        assert_eq!(est.windows_seen, 1);
    }

    #[test]
    fn rate_tracks_a_change_in_load() {
        let w = RateWindow::new(100, 0.5);
        let mut est = RateEstimator::default();
        // Heavy phase: one arrival per slot.
        for slot in 0..1000 {
            est.record_arrival(slot, &w);
        }
        let heavy = est.rate_at(1000, &w);
        assert!(heavy > 0.9);
        // Idle phase: no arrivals for many windows.
        let idle = est.rate_at(3000, &w);
        assert!(idle < heavy / 4.0, "estimate should decay after load drops");
    }

    #[test]
    fn gamma_one_uses_only_last_window() {
        let w = RateWindow::new(10, 1.0);
        let mut est = RateEstimator::default();
        for slot in 0..10 {
            est.record_arrival(slot, &w);
        }
        assert_eq!(est.rate_at(10, &w), 1.0);
        // Next window has no arrivals; with gamma = 1 the estimate drops to 0.
        assert_eq!(est.rate_at(20, &w), 0.0);
    }

    #[test]
    fn empty_windows_are_counted() {
        let w = RateWindow::new(10, 0.5);
        let mut est = RateEstimator::default();
        assert_eq!(est.rate_at(100, &w), 0.0);
        assert_eq!(est.windows_seen, 10);
    }

    #[test]
    fn first_partial_window_reports_zero_then_the_exact_window_rate() {
        // Exact pinned values: before the first window completes the
        // estimate is exactly 0.0 (no division by the elapsed partial
        // span), and the first complete window reports count/window with no
        // startup bias.
        let w = RateWindow::new(8, 0.5);
        let mut est = RateEstimator::default();
        for slot in 0..6 {
            est.record_arrival(slot, &w);
        }
        assert_eq!(est.rate_at(5, &w), 0.0);
        assert_eq!(est.rate_at(7, &w), 0.0, "slot 7 is still inside window 0");
        assert_eq!(est.windows_seen, 0);
        assert_eq!(est.rate_at(8, &w), 0.75, "6 arrivals / 8 slots, exactly");
        assert_eq!(est.windows_seen, 1);
    }

    #[test]
    fn second_window_is_an_exact_ewma_blend() {
        // gamma = 0.25 and window rates 1.0 then 0.5 are all exactly
        // representable, so the blend 0.25·0.5 + 0.75·1.0 = 0.875 is exact.
        let w = RateWindow::new(10, 0.25);
        let mut est = RateEstimator::default();
        for slot in 0..10 {
            est.record_arrival(slot, &w);
        }
        for slot in (10..20).step_by(2) {
            est.record_arrival(slot, &w);
        }
        assert_eq!(est.rate_at(10, &w), 1.0);
        assert_eq!(est.rate_at(20, &w), 0.875);
        assert_eq!(est.windows_seen, 2);
    }

    #[test]
    fn huge_windows_do_not_overflow_the_roll() {
        // Regression: rolling used to compute `window_start + window`, which
        // overflows u64 (a debug-build panic) as soon as one window of
        // length ≥ 2^63 has elapsed and a later slot is queried.
        let w = RateWindow::new(1 << 63, 1.0);
        let mut est = RateEstimator::default();
        est.record_arrival(0, &w);
        let expected = 1.0 / (1u64 << 63) as f64;
        assert_eq!(est.rate_at(u64::MAX, &w), expected);
        assert_eq!(est.windows_seen, 1);
        // Querying again (and further ahead) stays stable and panic-free.
        assert_eq!(est.rate_at(u64::MAX, &w), expected);
    }

    /// The estimator as it was before fixed points were skipped: one loop
    /// pass per elapsed window.
    fn roll_window_by_window(est: &mut RateEstimator, slot: u64, rule: &RateWindow) {
        while slot
            .checked_sub(est.window_start)
            .is_some_and(|elapsed| elapsed >= rule.window)
        {
            let window_rate = est.count as f64 / rule.window as f64;
            est.estimate = if est.windows_seen == 0 {
                window_rate
            } else {
                rule.gamma * window_rate + (1.0 - rule.gamma) * est.estimate
            };
            est.windows_seen += 1;
            est.count = 0;
            est.window_start = est.window_start.saturating_add(rule.window);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Skipping at a fixed point changes no bit: arrivals in bursts,
        /// queries, and gaps of up to 10⁵ windows (long enough for a small
        /// rate to decay to the smallest subnormal or to 0) leave the
        /// estimate and the window count where the window-by-window loop
        /// leaves them.
        #[test]
        fn skipping_agrees_with_the_window_by_window_loop(
            g in 0usize..4,
            window in 1u64..65,
            events in collection::vec((0u32..4, 0u64..100_001, 0u64..8), 1..48),
        ) {
            let rule = RateWindow::new(window, [0.01, 0.25, 0.5, 1.0][g]);
            let (mut fast, mut slow) = (RateEstimator::default(), RateEstimator::default());
            let mut slot = 0u64;
            for (kind, amount, burst) in events {
                slot += match kind {
                    0 => amount * window + amount % window,
                    _ => amount % (3 * window),
                };
                if kind == 3 {
                    fast.rate_at(slot, &rule);
                    roll_window_by_window(&mut slow, slot, &rule);
                } else {
                    for _ in 0..=burst {
                        fast.record_arrival(slot, &rule);
                        roll_window_by_window(&mut slow, slot, &rule);
                        slow.count += 1;
                    }
                }
                prop_assert_eq!(fast.estimate.to_bits(), slow.estimate.to_bits());
                prop_assert_eq!(fast.windows_seen, slow.windows_seen);
                prop_assert_eq!(fast.window_start, slow.window_start);
                prop_assert_eq!(fast.count, slow.count);
            }
        }
    }

    #[test]
    fn a_far_first_arrival_closes_its_empty_windows_at_once() {
        // Window by window, this is 2⁵⁸ loop passes; a decaying estimate
        // reaches its fixed point within 10⁵.
        let w = RateWindow::new(32, 0.01);
        let mut est = RateEstimator::default();
        est.record_arrival(1 << 63, &w);
        assert_eq!(est.windows_seen, 1 << 58);
        assert_eq!(est.rate_at((1 << 63) + 32, &w), 1.0 / 32.0 * 0.01);
        assert!(
            est.rate_at(u64::MAX, &w) > 0.0,
            "the smallest subnormal sticks"
        );
        assert_eq!(est.windows_seen, u64::MAX / 32);
        assert_eq!(est.window_start, u64::MAX / 32 * 32);
    }

    #[test]
    #[should_panic]
    fn zero_window_is_rejected() {
        // `window = 0` is a construction error by contract: there is no
        // meaningful rate over an empty window, so the constructor asserts
        // (in every build profile) instead of letting rate_at divide by 0.
        let _ = RateWindow::new(0, 0.5);
    }

    #[test]
    #[should_panic]
    fn gamma_out_of_range_is_rejected() {
        let _ = RateWindow::new(10, 1.5);
    }
}
