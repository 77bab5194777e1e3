//! Traffic (rate) matrices.
//!
//! An `N×N` matrix of normalized arrival rates: entry `(i, j)` is the rate of
//! the VOQ at input `i` destined to output `j`, in packets per time slot.  A
//! matrix is *admissible* when no row sum (input load) and no column sum
//! (output load) exceeds 1.
//!
//! Traffic matrices serve two purposes: traffic generators expose the matrix
//! they draw from, and the Sprinklers switch can derive its stripe sizes
//! directly from a known matrix (the assumption made by the paper's analysis).
//!
//! # Storage
//!
//! The three synthetic patterns — [`TrafficMatrix::uniform`],
//! [`TrafficMatrix::diagonal`] and [`TrafficMatrix::hotspot`] — hold one
//! distinguished entry per row and one value everywhere else, so they are
//! stored as those two values, not as a table: at n = 1 024 a table is 8 MiB
//! that every generator would keep for the whole run.  The two values are the
//! exact `f64`s the dense construction loops computed (`rho / n` for uniform;
//! `rho * 0.5` and `rho * (0.5 / (n − 1))` for diagonal; `base + rho * hot`
//! and `base + 0.0` for hot-spot), so every [`TrafficMatrix::rate`] — and with
//! it every load sum, sampler CDF and stripe size — is bit-identical to the
//! table's.  [`TrafficMatrix::one_entry_per_row`] exposes the two values, so
//! the traffic generators can sample a synthetic matrix's rows in closed
//! form and keep no n² table of their own either.
//! [`TrafficMatrix::zero`], [`TrafficMatrix::from_rates`] and trace
//! matrices are dense; [`TrafficMatrix::set`] and [`TrafficMatrix::scaled`]
//! turn a synthetic matrix into a dense one.  Equality compares entries, not
//! storage.

use crate::error::SwitchError;

/// An `N×N` matrix of normalized VOQ arrival rates.
#[derive(Debug, Clone)]
pub struct TrafficMatrix {
    n: usize,
    entries: Entries,
}

/// How a [`TrafficMatrix`] holds its `n²` entries.
#[derive(Debug, Clone)]
enum Entries {
    /// Row-major rates: `rates[i * n + j]` is the rate from input `i` to
    /// output `j`.
    Dense(Vec<f64>),
    /// Entry `(i, (i + shift) mod n)` is `hot`, every other entry is `rest`.
    /// `shift ≤ n`.
    OnePerRow { shift: usize, hot: f64, rest: f64 },
}

impl TrafficMatrix {
    /// An all-zero matrix for an `n`-port switch.
    pub fn zero(n: usize) -> Self {
        TrafficMatrix {
            n,
            entries: Entries::Dense(vec![0.0; n * n]),
        }
    }

    /// `hot` at `(i, (i + shift) mod n)` for every row `i`, `rest` elsewhere.
    fn one_per_row(n: usize, shift: usize, hot: f64, rest: f64) -> Self {
        TrafficMatrix {
            n,
            entries: Entries::OnePerRow { shift, hot, rest },
        }
    }

    /// Uniform traffic at total input load `rho`: every VOQ has rate `rho / N`.
    ///
    /// This is the paper's first simulation scenario (§6).
    pub fn uniform(n: usize, rho: f64) -> Self {
        let r = rho / n as f64;
        Self::one_per_row(n, 0, r, r)
    }

    /// Quasi-diagonal traffic at total input load `rho`: a packet arriving at
    /// input `i` goes to output `i` with probability 1/2 and to every other
    /// output with probability `1/(2(N−1))` (§6, second scenario).
    pub fn diagonal(n: usize, rho: f64) -> Self {
        Self::one_per_row(n, 0, rho * 0.5, rho * (0.5 / (n as f64 - 1.0)))
    }

    /// Hot-spot traffic: a fraction `hot_fraction` of each input's load goes to
    /// a single "hot" output (`(i + 1) mod N` to keep the matrix admissible),
    /// the rest is spread uniformly.
    pub fn hotspot(n: usize, rho: f64, hot_fraction: f64) -> Self {
        let base = rho * (1.0 - hot_fraction) / n as f64;
        Self::one_per_row(n, 1, base + rho * hot_fraction, base + 0.0)
    }

    /// Build a matrix from explicit row-major rates.
    pub fn from_rates(n: usize, rates: Vec<f64>) -> Result<Self, SwitchError> {
        if rates.len() != n * n {
            return Err(SwitchError::MatrixDimensionMismatch {
                got: (rates.len() as f64).sqrt() as usize,
                expected: n,
            });
        }
        for &r in &rates {
            if !r.is_finite() || r < 0.0 {
                return Err(SwitchError::InvalidRate { rate: r });
            }
        }
        Ok(TrafficMatrix {
            n,
            entries: Entries::Dense(rates),
        })
    }

    /// `(shift, hot, rest)` of a matrix stored as one distinguished entry
    /// per row: entry `(i, (i + shift) mod n)` is `hot`, every other entry
    /// is `rest`, `shift ≤ n`.  `None` for a dense matrix, even one whose
    /// entries happen to have that shape.
    pub fn one_entry_per_row(&self) -> Option<(usize, f64, f64)> {
        match self.entries {
            Entries::Dense(_) => None,
            Entries::OnePerRow { shift, hot, rest } => Some((shift, hot, rest)),
        }
    }

    /// The first stored rate that is negative, NaN or infinite, if any: of
    /// every entry of a dense matrix, of the two values of a synthetic one
    /// (O(1)).
    pub fn invalid_rate(&self) -> Option<f64> {
        let invalid = |r: &f64| !r.is_finite() || *r < 0.0;
        match &self.entries {
            Entries::Dense(rates) => rates.iter().copied().find(|r| invalid(r)),
            Entries::OnePerRow { hot, rest, .. } => [*hot, *rest].into_iter().find(|r| invalid(r)),
        }
    }

    /// Switch size N.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Rate of the VOQ from input `i` to output `j`.
    #[inline]
    pub fn rate(&self, input: usize, output: usize) -> f64 {
        debug_assert!(input < self.n && output < self.n);
        match &self.entries {
            Entries::Dense(rates) => rates[input * self.n + output],
            Entries::OnePerRow { shift, hot, rest } => {
                // The hot column is `input + shift`, less n when that wraps.
                let hot_column = input + shift;
                if output == hot_column || output + self.n == hot_column {
                    *hot
                } else {
                    *rest
                }
            }
        }
    }

    /// Set the rate of the VOQ from input `i` to output `j`.  A synthetic
    /// matrix becomes dense first.
    pub fn set(&mut self, input: usize, output: usize, rate: f64) {
        let n = self.n;
        match &mut self.entries {
            Entries::Dense(rates) => rates[input * n + output] = rate,
            Entries::OnePerRow { .. } => {
                let mut rates = self.row_major();
                rates[input * n + output] = rate;
                self.entries = Entries::Dense(rates);
            }
        }
    }

    /// Every entry, row-major.
    fn row_major(&self) -> Vec<f64> {
        (0..self.n)
            .flat_map(|i| (0..self.n).map(move |j| self.rate(i, j)))
            .collect()
    }

    /// Total load offered to input `i` (row sum).
    pub fn input_load(&self, input: usize) -> f64 {
        (0..self.n).map(|j| self.rate(input, j)).sum()
    }

    /// Total load destined to output `j` (column sum).
    pub fn output_load(&self, output: usize) -> f64 {
        (0..self.n).map(|i| self.rate(i, output)).sum()
    }

    /// Largest row or column sum.
    pub fn max_load(&self) -> f64 {
        let row = (0..self.n)
            .map(|i| self.input_load(i))
            .fold(0.0f64, f64::max);
        let col = (0..self.n)
            .map(|j| self.output_load(j))
            .fold(0.0f64, f64::max);
        row.max(col)
    }

    /// Is the matrix admissible (no input or output oversubscribed)?
    ///
    /// A small tolerance absorbs floating-point accumulation error.
    pub fn is_admissible(&self) -> bool {
        self.max_load() <= 1.0 + 1e-9
    }

    /// Scale every rate by `factor`.  The result is dense.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        TrafficMatrix {
            n: self.n,
            entries: Entries::Dense(self.row_major().into_iter().map(|r| r * factor).collect()),
        }
    }

    /// Iterate over `(input, output, rate)` triples with nonzero rate.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.n).flat_map(move |i| {
            (0..self.n).filter_map(move |j| {
                let r = self.rate(i, j);
                if r > 0.0 {
                    Some((i, j, r))
                } else {
                    None
                }
            })
        })
    }
}

impl PartialEq for TrafficMatrix {
    /// Same size and the same entry everywhere, however each side stores them.
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && (0..self.n).all(|i| (0..self.n).all(|j| self.rate(i, j) == other.rate(i, j)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn uniform_matrix_loads() {
        let m = TrafficMatrix::uniform(16, 0.8);
        for i in 0..16 {
            assert!((m.input_load(i) - 0.8).abs() < 1e-12);
            assert!((m.output_load(i) - 0.8).abs() < 1e-12);
        }
        assert!(m.is_admissible());
    }

    #[test]
    fn diagonal_matrix_matches_paper_definition() {
        let n = 32;
        let rho = 0.9;
        let m = TrafficMatrix::diagonal(n, rho);
        assert!((m.rate(3, 3) - rho * 0.5).abs() < 1e-12);
        assert!((m.rate(3, 4) - rho * 0.5 / 31.0).abs() < 1e-12);
        for i in 0..n {
            assert!((m.input_load(i) - rho).abs() < 1e-9);
        }
        // Quasi-diagonal traffic is admissible: every output load also equals rho.
        for j in 0..n {
            assert!((m.output_load(j) - rho).abs() < 1e-9);
        }
        assert!(m.is_admissible());
    }

    #[test]
    fn hotspot_matrix_is_admissible_and_concentrated() {
        let n = 16;
        let m = TrafficMatrix::hotspot(n, 0.9, 0.5);
        assert!(m.is_admissible());
        for i in 0..n {
            assert!((m.input_load(i) - 0.9).abs() < 1e-9);
            let hot = (i + 1) % n;
            assert!(m.rate(i, hot) > m.rate(i, (i + 2) % n));
        }
    }

    #[test]
    fn from_rates_validates() {
        assert!(TrafficMatrix::from_rates(2, vec![0.1; 4]).is_ok());
        assert!(matches!(
            TrafficMatrix::from_rates(2, vec![0.1; 3]),
            Err(SwitchError::MatrixDimensionMismatch { .. })
        ));
        assert!(matches!(
            TrafficMatrix::from_rates(2, vec![0.1, -0.5, 0.0, 0.0]),
            Err(SwitchError::InvalidRate { .. })
        ));
    }

    #[test]
    fn overloaded_matrix_is_not_admissible() {
        let mut m = TrafficMatrix::uniform(4, 0.9);
        m.set(0, 0, 0.9);
        assert!(!m.is_admissible());
    }

    #[test]
    fn scaled_multiplies_every_rate() {
        let m = TrafficMatrix::uniform(4, 0.8).scaled(0.5);
        for i in 0..4 {
            assert!((m.input_load(i) - 0.4).abs() < 1e-12);
        }
    }

    /// The dense construction loops the synthetic matrices used to run, kept
    /// as the oracle for their compact form.
    fn dense_uniform(n: usize, rho: f64) -> TrafficMatrix {
        let mut m = TrafficMatrix::zero(n);
        let r = rho / n as f64;
        for i in 0..n {
            for j in 0..n {
                m.set(i, j, r);
            }
        }
        m
    }

    fn dense_diagonal(n: usize, rho: f64) -> TrafficMatrix {
        let mut m = TrafficMatrix::zero(n);
        for i in 0..n {
            for j in 0..n {
                let p = if i == j { 0.5 } else { 0.5 / (n as f64 - 1.0) };
                m.set(i, j, rho * p);
            }
        }
        m
    }

    fn dense_hotspot(n: usize, rho: f64, hot_fraction: f64) -> TrafficMatrix {
        let mut m = TrafficMatrix::zero(n);
        for i in 0..n {
            let hot = (i + 1) % n;
            for j in 0..n {
                let base = rho * (1.0 - hot_fraction) / n as f64;
                let extra = if j == hot { rho * hot_fraction } else { 0.0 };
                m.set(i, j, base + extra);
            }
        }
        m
    }

    /// Call `check` with every synthetic matrix of ports ≤ `max_n` the pins
    /// cover, beside its dense oracle (one pair at a time: at n = 1 024 a
    /// dense matrix is 8 MiB).
    fn for_each_synthetic(max_n: usize, mut check: impl FnMut(&str, TrafficMatrix, TrafficMatrix)) {
        for n in [2, 3, 32, 1024].into_iter().filter(|&n| n <= max_n) {
            for rho in [0.0, 0.01, 0.9, 1.0] {
                check(
                    &format!("uniform n={n} rho={rho}"),
                    TrafficMatrix::uniform(n, rho),
                    dense_uniform(n, rho),
                );
                check(
                    &format!("diagonal n={n} rho={rho}"),
                    TrafficMatrix::diagonal(n, rho),
                    dense_diagonal(n, rho),
                );
                for hot in [0.0, 0.3, 1.0] {
                    check(
                        &format!("hotspot n={n} rho={rho} hot={hot}"),
                        TrafficMatrix::hotspot(n, rho, hot),
                        dense_hotspot(n, rho, hot),
                    );
                }
            }
        }
    }

    #[test]
    fn synthetic_matrices_are_bit_identical_to_the_dense_loops() {
        for_each_synthetic(1024, |name, compact, dense| {
            assert!(
                matches!(compact.entries, Entries::OnePerRow { .. }),
                "{name}"
            );
            let n = dense.n();
            assert_eq!(compact.n(), n, "{name}");
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(
                        compact.rate(i, j).to_bits(),
                        dense.rate(i, j).to_bits(),
                        "{name}: rate({i}, {j})"
                    );
                }
                assert_eq!(
                    compact.input_load(i).to_bits(),
                    dense.input_load(i).to_bits(),
                    "{name}: input_load({i})"
                );
                assert_eq!(
                    compact.output_load(i).to_bits(),
                    dense.output_load(i).to_bits(),
                    "{name}: output_load({i})"
                );
            }
            assert_eq!(
                compact.max_load().to_bits(),
                dense.max_load().to_bits(),
                "{name}: max_load"
            );
        });
    }

    #[test]
    fn one_entry_per_row_describes_every_entry_of_a_synthetic_matrix() {
        for_each_synthetic(32, |name, compact, dense| {
            assert_eq!(dense.one_entry_per_row(), None, "{name}");
            let (shift, hot, rest) = compact.one_entry_per_row().unwrap();
            let n = compact.n();
            for i in 0..n {
                for j in 0..n {
                    let want = if j == (i + shift) % n { hot } else { rest };
                    assert_eq!(compact.rate(i, j).to_bits(), want.to_bits(), "{name}");
                }
            }
        });
    }

    #[test]
    fn set_on_a_synthetic_matrix_changes_only_that_entry() {
        let n = 5;
        let before = TrafficMatrix::hotspot(n, 0.9, 0.3);
        let mut after = before.clone();
        after.set(2, 4, 0.125);
        assert!(matches!(after.entries, Entries::Dense(_)));
        for i in 0..n {
            for j in 0..n {
                let want = if (i, j) == (2, 4) {
                    0.125
                } else {
                    before.rate(i, j)
                };
                assert_eq!(after.rate(i, j).to_bits(), want.to_bits(), "({i}, {j})");
            }
        }
    }

    #[test]
    fn scaled_synthetic_matrices_match_the_dense_result() {
        let bits =
            |m: TrafficMatrix| -> Vec<u64> { m.row_major().iter().map(|r| r.to_bits()).collect() };
        for_each_synthetic(32, |name, compact, dense| {
            for factor in [0.0, 0.5, 3.0] {
                assert_eq!(
                    bits(compact.scaled(factor)),
                    bits(dense.scaled(factor)),
                    "{name} ×{factor}"
                );
            }
        });
    }

    #[test]
    fn a_synthetic_matrix_equals_its_entries_as_a_dense_matrix() {
        for_each_synthetic(32, |name, compact, dense| {
            let rebuilt = TrafficMatrix::from_rates(compact.n(), compact.row_major()).unwrap();
            assert_eq!(compact, rebuilt, "{name}");
            assert_eq!(rebuilt, compact, "{name}");
            assert_eq!(compact, dense, "{name}");
        });
        // One differing entry makes them unequal.
        let uniform = TrafficMatrix::uniform(4, 0.8);
        let mut dense = TrafficMatrix::from_rates(4, uniform.row_major()).unwrap();
        dense.set(3, 1, 0.0);
        assert_ne!(dense, uniform);
        assert_ne!(uniform, dense);
        assert_ne!(uniform, TrafficMatrix::uniform(8, 0.8));
    }

    #[test]
    fn iter_nonzero_skips_zero_entries() {
        let mut m = TrafficMatrix::zero(4);
        m.set(1, 2, 0.3);
        m.set(3, 0, 0.1);
        let entries: Vec<_> = m.iter_nonzero().collect();
        assert_eq!(entries.len(), 2);
        assert!(entries.contains(&(1, 2, 0.3)));
        assert!(entries.contains(&(3, 0, 0.1)));
    }

    proptest! {
        /// Uniform and diagonal matrices are admissible for any load in [0, 1].
        #[test]
        fn canonical_matrices_are_admissible(rho in 0.0f64..1.0, n_exp in 1usize..7) {
            let n = 1usize << n_exp;
            prop_assert!(TrafficMatrix::uniform(n, rho).is_admissible());
            if n > 1 {
                prop_assert!(TrafficMatrix::diagonal(n, rho).is_admissible());
            }
            prop_assert!(TrafficMatrix::hotspot(n, rho, 0.3).is_admissible());
        }

        /// Sum of all entries equals the sum of input loads and the sum of
        /// output loads.
        #[test]
        fn load_accounting_is_consistent(rho in 0.0f64..1.0, n_exp in 1usize..6) {
            let n = 1usize << n_exp;
            let m = TrafficMatrix::diagonal(n.max(2), rho);
            let n = m.n();
            let total: f64 = (0..n).map(|i| m.input_load(i)).sum();
            let total_out: f64 = (0..n).map(|j| m.output_load(j)).sum();
            prop_assert!((total - total_out).abs() < 1e-9);
        }
    }
}
