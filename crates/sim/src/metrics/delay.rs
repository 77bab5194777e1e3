//! Packet delay statistics.
//!
//! Delays are accumulated in an exact histogram (one bucket per slot of delay
//! up to a configurable cap, plus an overflow bucket tracked by exact values),
//! so means are exact and percentiles are exact up to the cap.
//!
//! The histogram is allocated at its cap, so recording never allocates.
//! Once recording is done, [`DelayStats::shrink_to_fit`] cuts it to the
//! delays seen: a report keeps its run's histogram and a sweep keeps every
//! report, so a cap-sized table (512 KiB at the default cap) per report
//! would be most of a sweep's memory.  A cut histogram grows back, doubling
//! up to the cap, if a record lands past its end.

/// Histogram-based delay statistics.
#[derive(Debug, Clone)]
pub struct DelayStats {
    /// `histogram[d]` counts packets with delay exactly `d` slots.  `cap`
    /// buckets long until [`Self::shrink_to_fit`]; a bucket past its end is
    /// an empty one.
    histogram: Vec<u64>,
    /// Delays below `cap` are counted in `histogram`, the others in
    /// `overflow`.
    cap: usize,
    /// Delays `≥ cap`, as sorted `(delay, count)` pairs.  Exact like the
    /// histogram, but sized by *distinct* overflow values, so recording a
    /// million copies of one pathological delay costs one entry — not a
    /// million — and percentile walks need no sort.
    overflow: Vec<(u64, u64)>,
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for DelayStats {
    fn default() -> Self {
        Self::new(1 << 16)
    }
}

impl DelayStats {
    /// Create delay statistics with the given histogram cap (delays above the
    /// cap are still counted exactly, just stored individually).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        DelayStats {
            histogram: vec![0; cap],
            cap,
            overflow: Vec::new(),
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one packet delay (in slots).
    // lint: hot-path
    pub fn record(&mut self, delay: u64) {
        self.count += 1;
        self.sum += u128::from(delay);
        self.max = self.max.max(delay);
        if (delay as usize) < self.histogram.len() {
            self.histogram[delay as usize] += 1;
        } else {
            self.add_past_end(delay);
        }
    }

    /// Cut the histogram to its last non-empty bucket and give the rest of
    /// the table back, for statistics that are kept once recording is done.
    /// Changes no result.
    pub(crate) fn shrink_to_fit(&mut self) {
        let used = self
            .histogram
            .iter()
            .rposition(|&c| c != 0)
            .map_or(0, |d| d + 1);
        self.histogram.truncate(used);
        self.histogram.shrink_to_fit();
    }

    /// Count one packet of a `delay` past the histogram's end: in a
    /// histogram grown to cover it when it is below the cap, in `overflow`
    /// (kept sorted and deduplicated) otherwise.
    #[cold]
    fn add_past_end(&mut self, delay: u64) {
        if delay < self.cap as u64 {
            let len = (delay as usize + 1).next_power_of_two().min(self.cap);
            self.histogram.resize(len, 0);
            self.histogram[delay as usize] += 1;
        } else {
            match self.overflow.binary_search_by_key(&delay, |&(d, _)| d) {
                Ok(i) => self.overflow[i].1 += 1,
                Err(i) => self.overflow.insert(i, (delay, 1)),
            }
        }
    }

    /// Number of recorded packets.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean delay in slots (0 if nothing was recorded).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Maximum recorded delay.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact delay percentile (e.g. `0.5` for the median, `0.99` for p99).
    ///
    /// The rank is `ceil(count · p)` computed in integer arithmetic against
    /// the exact rational value the `f64` encodes.  The obvious
    /// `(p * count as f64).ceil()` is wrong near integer boundaries: the f64
    /// product rounds to nearest, so e.g. `0.1 × 10` rounds *down* to exactly
    /// `1.0` even though the rational product `10 · 0.1f64` is strictly above
    /// 1, silently shifting the reported rank by one.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=1.0).contains(&p));
        if self.count == 0 {
            return 0;
        }
        let target = ceil_rank(self.count, p).clamp(1, self.count);
        let mut acc = 0u64;
        for (d, &c) in self.histogram.iter().enumerate() {
            acc += c;
            if acc >= target {
                return d as u64;
            }
        }
        // `overflow` is already sorted, so the cumulative walk simply
        // continues past the histogram — no clone, no sort.
        for &(d, c) in &self.overflow {
            acc += c;
            if acc >= target {
                return d;
            }
        }
        self.max
    }

    /// Iterate over the non-empty histogram buckets as `(delay, count)`
    /// pairs in ascending delay order, histogram and overflow alike — the
    /// full exact distribution, for sidecar export.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.histogram
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(d, &c)| (d as u64, c))
            .chain(self.overflow.iter().copied())
    }
}

/// Exact `ceil(count · p)` where `p` is the rational value its `f64`
/// encoding denotes: `mant · 2^exp` with `mant < 2^53`.  `count · mant`
/// fits u128 (`< 2^64 · 2^53 = 2^117`), and for `p ≤ 1` the exponent is
/// always negative (at most `-52`, reached by `p = 1.0`), so the product
/// only ever shifts right.
fn ceil_rank(count: u64, p: f64) -> u64 {
    let bits = p.to_bits();
    let exp_field = (bits >> 52) & 0x7ff;
    let frac = bits & ((1u64 << 52) - 1);
    // Subnormals (exp_field == 0) have no implicit leading bit and a fixed
    // exponent of -1074; normals get the implicit bit and a biased exponent.
    let (mant, exp) = if exp_field == 0 {
        (frac, -1074i64)
    } else {
        (frac | (1 << 52), exp_field as i64 - 1075)
    };
    if mant == 0 {
        return 0; // p == +0.0
    }
    debug_assert!(exp < 0, "p in [0, 1] always has a negative exponent");
    let prod = u128::from(count) * u128::from(mant);
    let shift = -exp as u32;
    if shift >= 128 {
        // prod < 2^117 and the scale is ≤ 2^-128: the value is a positive
        // number below 1, whose ceiling is 1.
        return 1;
    }
    let floor = (prod >> shift) as u64; // ≤ count because p ≤ 1
    let rounds_up = prod & ((1u128 << shift) - 1) != 0;
    floor + u64::from(rounds_up)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_stats_are_zero() {
        let s = DelayStats::default();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.percentile(0.99), 0);
    }

    #[test]
    fn mean_and_max_are_exact() {
        let mut s = DelayStats::new(100);
        for d in [1u64, 2, 3, 4, 10] {
            s.record(d);
        }
        assert_eq!(s.count(), 5);
        assert!((s.mean() - 4.0).abs() < 1e-12);
        assert_eq!(s.max(), 10);
    }

    #[test]
    fn percentiles_are_exact_within_the_cap() {
        let mut s = DelayStats::new(1000);
        for d in 1..=100u64 {
            s.record(d);
        }
        assert_eq!(s.percentile(0.5), 50);
        assert_eq!(s.percentile(0.99), 99);
        assert_eq!(s.percentile(1.0), 100);
        // 0.01f64 is strictly above 1/100, so the exact rank of p1 over 100
        // records is ceil(100 · 0.0100000000000000002…) = 2.
        assert_eq!(s.percentile(0.01), 2);
    }

    #[test]
    fn percentile_rank_is_exact_at_integer_boundaries() {
        // Regression: the rank used to be (p * count as f64).ceil().  For
        // p = 0.1 and count = 10 the f64 product rounds down to exactly 1.0
        // (rank 1), but 10 · 0.1f64 = 1.0000000000000000555… whose true
        // ceiling is 2 — the old code reported the wrong bucket.
        let mut s = DelayStats::new(100);
        for d in 1..=10u64 {
            s.record(d);
        }
        assert_eq!(s.percentile(0.1), 2);
        // Exact dyadic p values sit exactly on boundaries and must not move.
        assert_eq!(s.percentile(0.5), 5);
        assert_eq!(s.percentile(0.25), 3);
        assert_eq!(s.percentile(1.0), 10);
        assert_eq!(s.percentile(0.0), 1);
    }

    #[test]
    fn ceil_rank_matches_a_brute_force_search() {
        // Independent model: the smallest r ≥ 1 with r · 2^shift ≥ count · mant,
        // phrased as an inequality instead of a shift-and-round division.
        fn model(count: u64, p: f64) -> u64 {
            if p == 0.0 {
                return 0;
            }
            (1..=count)
                .find(|&r| exact_ge(r, count, p))
                .unwrap_or(count)
        }
        fn exact_ge(r: u64, count: u64, p: f64) -> bool {
            // r ≥ count · mant · 2^exp  ⇔  r · 2^-exp ≥ count · mant
            let bits = p.to_bits();
            let exp_field = (bits >> 52) & 0x7ff;
            let frac = bits & ((1u64 << 52) - 1);
            let (mant, exp) = if exp_field == 0 {
                (frac, -1074i64)
            } else {
                (frac | (1 << 52), exp_field as i64 - 1075)
            };
            let shift = (-exp) as u32;
            let prod = u128::from(count) * u128::from(mant);
            match u128::from(r).checked_shl(shift) {
                Some(scaled) => scaled >= prod,
                None => true, // r · 2^shift ≥ 2^128 > prod
            }
        }
        for count in [1u64, 2, 3, 7, 10, 100, 999, 12345] {
            for p in [0.0, 0.01, 0.1, 0.25, 1.0 / 3.0, 0.5, 0.9, 0.95, 0.99, 1.0] {
                assert_eq!(ceil_rank(count, p), model(count, p), "count={count} p={p}");
            }
        }
    }

    #[test]
    fn nonzero_buckets_walk_histogram_then_overflow_in_order() {
        let mut s = DelayStats::new(4);
        s.record(1);
        s.record(1);
        s.record(3);
        s.record(100);
        s.record(7);
        let buckets: Vec<(u64, u64)> = s.nonzero_buckets().collect();
        assert_eq!(buckets, vec![(1, 2), (3, 1), (7, 1), (100, 1)]);
        assert_eq!(buckets.iter().map(|&(_, c)| c).sum::<u64>(), s.count());
    }

    #[test]
    fn a_cut_histogram_keeps_every_result_and_grows_back() {
        let mut s = DelayStats::default();
        for d in [3, 1500, 3, 70_000] {
            s.record(d);
        }
        let whole = s.clone();
        s.shrink_to_fit();
        assert_eq!(s.histogram.len(), 1501);
        let buckets: Vec<(u64, u64)> = s.nonzero_buckets().collect();
        assert_eq!(buckets, whole.nonzero_buckets().collect::<Vec<_>>());
        assert_eq!(buckets, [(3, 2), (1500, 1), (70_000, 1)]);
        for p in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert_eq!(s.percentile(p), whole.percentile(p), "p={p}");
        }

        // Below the cap a later delay goes back into the histogram, which
        // doubles to cover it; past the cap it still overflows.
        s.record(2000);
        s.record(65_535);
        assert_eq!(s.histogram.len(), 1 << 16);
        assert_eq!(s.overflow, [(70_000, 1)]);
        let mut cut = DelayStats::new(4);
        cut.shrink_to_fit();
        assert!(cut.histogram.is_empty());
        for d in [3, 1500, 3, 70_000] {
            cut.record(d);
        }
        assert_eq!(cut.histogram.len(), 4);
        assert_eq!(cut.overflow, [(1500, 1), (70_000, 1)]);
        assert_eq!(cut.percentile(0.5), 3);
    }

    #[test]
    fn overflow_delays_are_still_exact() {
        let mut s = DelayStats::new(10);
        s.record(5);
        s.record(500);
        s.record(1000);
        assert_eq!(s.count(), 3);
        assert!((s.mean() - (5.0 + 500.0 + 1000.0) / 3.0).abs() < 1e-9);
        assert_eq!(s.max(), 1000);
        assert_eq!(s.percentile(1.0), 1000);
    }

    #[test]
    fn repeated_overflow_values_collapse_to_one_pair() {
        let mut s = DelayStats::new(2);
        for _ in 0..1000 {
            s.record(7);
        }
        for _ in 0..10 {
            s.record(5);
        }
        assert_eq!(s.overflow.len(), 2, "one pair per distinct delay");
        assert_eq!(s.percentile(0.001), 5);
        assert_eq!(s.percentile(0.5), 7);
        assert_eq!(s.percentile(1.0), 7);
        assert_eq!(s.max(), 7);
    }

    proptest! {
        /// Statistics cut to the delays seen (as a finished report keeps
        /// them) and then recorded into again: a delay past the cut end
        /// grows the histogram back below the cap and overflows at or above
        /// it, and every percentile still equals the sorted delays' entry at
        /// the exact rank.
        #[test]
        fn cut_histograms_that_grow_back_match_the_sorted_delays(
            a in collection::vec(0u64..240, 1..120),
            b in collection::vec(0u64..240, 1..120),
            cap in 1usize..300,
            p in 0.0f64..1.0,
        ) {
            let mut stats = DelayStats::new(cap);
            for &d in &a {
                stats.record(d);
            }
            stats.shrink_to_fit();
            for &d in &b {
                stats.record(d);
            }
            let mut sorted: Vec<u64> = a.iter().chain(&b).copied().collect();
            sorted.sort_unstable();
            let count = sorted.len() as u64;
            prop_assert_eq!(stats.count(), count);
            for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.9, 0.99, p, 1.0] {
                let rank = ceil_rank(count, q).clamp(1, count);
                prop_assert_eq!(stats.percentile(q), sorted[rank as usize - 1], "cap={} p={}", cap, q);
            }
        }
    }
}
