//! Dyadic intervals of intermediate ports.
//!
//! A *dyadic interval* is obtained by splitting the whole port range `[0, N)`
//! into `2^k` equal parts: it has a power-of-two size and its start is a
//! multiple of its size.  The paper writes them 1-indexed as `(2^k·m, 2^k·(m+1)]`;
//! this crate uses the equivalent 0-indexed half-open form `[2^k·m, 2^k·(m+1))`.
//!
//! The crucial structural property (§3.1) is that two dyadic intervals either
//! *nest* (one contains the other — "bear hug") or are *disjoint*.  This is what
//! allows the Largest-Stripe-First scheduler to serve every stripe in one
//! contiguous burst without ever wasting service slots on partial overlaps.

/// A dyadic interval `[start, start + size)` of intermediate-port indices.
///
/// Invariants (enforced by the constructors):
/// * `size` is a power of two and at least 1,
/// * `start` is a multiple of `size`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DyadicInterval {
    start: usize,
    size: usize,
}

impl DyadicInterval {
    /// Construct a dyadic interval from its start and size.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a power of two or `start` is not aligned to
    /// `size`.  Use [`DyadicInterval::try_new`] for a fallible version.
    pub fn new(start: usize, size: usize) -> Self {
        Self::try_new(start, size).expect("invalid dyadic interval")
    }

    /// Construct a dyadic interval, returning `None` if the arguments do not
    /// describe a valid dyadic interval.
    pub fn try_new(start: usize, size: usize) -> Option<Self> {
        if size == 0 || !size.is_power_of_two() {
            return None;
        }
        if !start.is_multiple_of(size) {
            return None;
        }
        Some(DyadicInterval { start, size })
    }

    /// The unique dyadic interval of size `size` containing `port`.
    ///
    /// This is how a VOQ's stripe interval is derived from its primary
    /// intermediate port (§3.3.1): the VOQ with primary port `σ(i)` and stripe
    /// size `n` is assigned the unique size-`n` dyadic interval containing
    /// `σ(i)`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a power of two.
    pub fn containing(port: usize, size: usize) -> Self {
        assert!(size.is_power_of_two(), "size {size} must be a power of two");
        DyadicInterval {
            start: (port / size) * size,
            size,
        }
    }

    /// First port of the interval (inclusive).
    pub fn start(&self) -> usize {
        self.start
    }

    /// Number of ports in the interval.
    pub fn size(&self) -> usize {
        self.size
    }

    /// One past the last port of the interval.
    pub fn end(&self) -> usize {
        self.start + self.size
    }

    /// The level of the interval: `log₂(size)`.
    pub fn level(&self) -> usize {
        self.size.trailing_zeros() as usize
    }

    /// Does the interval contain the given port?
    pub fn contains(&self, port: usize) -> bool {
        port >= self.start && port < self.end()
    }

    /// Iterate over the ports in the interval.
    pub fn ports(&self) -> impl Iterator<Item = usize> + '_ {
        self.start..self.end()
    }
}

impl std::fmt::Display for DyadicInterval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {})", self.start, self.end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn try_new_rejects_bad_arguments() {
        assert!(DyadicInterval::try_new(0, 0).is_none());
        assert!(DyadicInterval::try_new(0, 3).is_none());
        assert!(DyadicInterval::try_new(2, 4).is_none());
        assert!(DyadicInterval::try_new(4, 4).is_some());
        assert!(DyadicInterval::try_new(0, 1).is_some());
    }

    #[test]
    #[should_panic]
    fn new_panics_on_misaligned_start() {
        let _ = DyadicInterval::new(3, 2);
    }

    #[test]
    fn containing_matches_paper_example() {
        // Paper, Fig. 2: VOQ 7 has primary intermediate port 1 (1-indexed) and
        // stripe size 4, so its interval is (0, 4].  0-indexed: port 0, size 4
        // → [0, 4).
        let iv = DyadicInterval::containing(0, 4);
        assert_eq!(iv.start(), 0);
        assert_eq!(iv.end(), 4);

        // The size-4 interval containing port 9 (0-indexed) is [8, 12).
        let iv = DyadicInterval::containing(9, 4);
        assert_eq!(iv.start(), 8);
        assert_eq!(iv.size(), 4);
        assert!(iv.contains(9));
        assert!(!iv.contains(12));
    }

    #[test]
    fn level_and_index_are_consistent() {
        let iv = DyadicInterval::new(12, 4);
        assert_eq!(iv.level(), 2);
        assert_eq!(iv.size(), 1 << iv.level());
        let iv = DyadicInterval::new(0, 1);
        assert_eq!(iv.level(), 0);
        assert_eq!(DyadicInterval::new(0, 1024).level(), 10);
    }

    #[test]
    fn display_is_half_open() {
        assert_eq!(DyadicInterval::new(8, 4).to_string(), "[8, 12)");
    }

    #[test]
    fn ports_iterates_the_whole_interval() {
        let iv = DyadicInterval::new(4, 4);
        let ports: Vec<usize> = iv.ports().collect();
        assert_eq!(ports, vec![4, 5, 6, 7]);
    }

    proptest! {
        /// Two dyadic intervals either nest or are disjoint ("bear hug or
        /// don't touch", §3.1).
        #[test]
        fn dyadic_intervals_nest_or_are_disjoint(
            a_port in 0usize..1024,
            a_level in 0usize..10,
            b_port in 0usize..1024,
            b_level in 0usize..10,
        ) {
            let a = DyadicInterval::containing(a_port, 1 << a_level);
            let b = DyadicInterval::containing(b_port, 1 << b_level);
            let shared = a.ports().filter(|&p| b.contains(p)).count();
            // Nested: every port of the smaller one is shared; disjoint: none.
            prop_assert!(shared == 0 || shared == a.size().min(b.size()));
        }

        /// `containing` always produces an interval that contains the port and
        /// has exactly the requested size.
        #[test]
        fn containing_contains_the_port(port in 0usize..4096, level in 0usize..12) {
            let size = 1usize << level;
            let iv = DyadicInterval::containing(port, size);
            prop_assert!(iv.contains(port));
            prop_assert_eq!(iv.size(), size);
            prop_assert_eq!(iv.start() % size, 0);
        }

        /// Every port of an n-port switch appears in exactly log2(n)+1 of the
        /// 2n-1 dyadic intervals (one per level).
        #[test]
        fn each_port_is_in_one_interval_per_level(n_exp in 1usize..7, port_seed in 0usize..10_000) {
            let n = 1usize << n_exp;
            let port = port_seed % n;
            for level in 0..=n_exp {
                let size = 1usize << level;
                let holding = (0..n)
                    .step_by(size)
                    .filter(|&start| DyadicInterval::new(start, size).contains(port))
                    .count();
                prop_assert_eq!(holding, 1, "level {}", level);
            }
        }
    }
}
