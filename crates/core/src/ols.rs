//! Weakly uniform random Orthogonal Latin Squares (§3.3.3).
//!
//! A Sprinklers switch must pick, for every one of the `N²` VOQs, a *primary
//! intermediate port* such that
//!
//! * the N VOQs originating at any single input port map to N **distinct**
//!   intermediate ports (each row of the assignment matrix is a permutation), and
//! * the N VOQs destined to any single output port also map to N **distinct**
//!   intermediate ports (each column is a permutation).
//!
//! A matrix with both properties is an Orthogonal Latin Square (OLS).  The
//! paper's stability analysis only requires the *marginal* distribution of
//! every row and every column to be a uniform random permutation — a *weakly
//! uniform random* OLS — which can be generated in `O(N log N)` time from two
//! independent uniform random permutations `σ_R` and `σ_C`:
//!
//! ```text
//! a(i, j) = (σ_R(i) + σ_C(j)) mod N
//! ```
//!
//! (The paper adds 1 because it is 1-indexed; this crate is 0-indexed.)

use crate::perm::Permutation;
use crate::rng::SimRng;

/// A weakly uniform random Orthogonal Latin Square over `{0, …, N−1}`.
///
/// Entry `(i, j)` is the primary intermediate port of the VOQ at input `i`
/// destined to output `j`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeaklyUniformOls {
    n: usize,
    row_perm: Permutation,
    col_perm: Permutation,
}

impl WeaklyUniformOls {
    /// Generate a weakly uniform random OLS of order `n`.
    pub fn random(n: usize, rng: &mut SimRng) -> Self {
        WeaklyUniformOls {
            n,
            row_perm: Permutation::random(n, rng),
            col_perm: Permutation::random(n, rng),
        }
    }

    /// The identity-based OLS `a(i, j) = (i + j) mod N` (deterministic; used
    /// by tests and as a degenerate configuration).
    pub fn cyclic(n: usize) -> Self {
        WeaklyUniformOls {
            n,
            row_perm: Permutation::identity(n),
            col_perm: Permutation::identity(n),
        }
    }

    /// Primary intermediate port of the VOQ at input `i` destined to output
    /// `j`: both terms are below `N`, so one conditional subtract does the
    /// `mod N`.
    #[inline]
    pub fn primary_port(&self, input: usize, output: usize) -> usize {
        let port = self.row_perm.apply(input) + self.col_perm.apply(output);
        if port >= self.n {
            port - self.n
        } else {
            port
        }
    }

    /// The full row for input `i`: `row(i)[j]` is the primary port of VOQ `(i, j)`.
    pub fn row(&self, input: usize) -> Vec<usize> {
        (0..self.n).map(|j| self.primary_port(input, j)).collect()
    }

    /// The full column for output `j`: `column(j)[i]` is the primary port of VOQ `(i, j)`.
    pub fn column(&self, output: usize) -> Vec<usize> {
        (0..self.n).map(|i| self.primary_port(i, output)).collect()
    }

    /// Check the defining OLS property: every row and every column is a
    /// permutation of `{0, …, N−1}`.  O(N²); intended for tests and debugging.
    pub fn is_valid(&self) -> bool {
        for i in 0..self.n {
            if Permutation::from_mapping(self.row(i)).is_none() {
                return false;
            }
        }
        for j in 0..self.n {
            if Permutation::from_mapping(self.column(j)).is_none() {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cyclic_square_is_valid() {
        for n in [1usize, 2, 4, 8, 32] {
            assert!(WeaklyUniformOls::cyclic(n).is_valid(), "n = {n}");
        }
    }

    #[test]
    fn random_square_is_valid() {
        let mut rng = SimRng::seed_from_u64(5);
        for n in [2usize, 4, 8, 16, 64] {
            let ols = WeaklyUniformOls::random(n, &mut rng);
            assert!(ols.is_valid(), "n = {n}");
        }
    }

    #[test]
    fn rows_and_columns_are_permutations() {
        let mut rng = SimRng::seed_from_u64(17);
        let n = 16;
        let ols = WeaklyUniformOls::random(n, &mut rng);
        for i in 0..n {
            assert!(Permutation::from_mapping(ols.row(i)).is_some());
            assert!(Permutation::from_mapping(ols.column(i)).is_some());
        }
    }

    #[test]
    fn rows_are_marginally_uniform() {
        // Weak uniformity: over many random OLSes, the primary port of a fixed
        // VOQ (0, 0) should be uniform over 0..n.  Chi-square style sanity
        // check with loose bounds.
        let n = 8;
        let samples = 8000;
        let mut counts = vec![0usize; n];
        let mut rng = SimRng::seed_from_u64(2024);
        for _ in 0..samples {
            let ols = WeaklyUniformOls::random(n, &mut rng);
            counts[ols.primary_port(0, 0)] += 1;
        }
        let expected = samples / n;
        for (port, c) in counts.iter().enumerate() {
            assert!(
                (*c as i64 - expected as i64).unsigned_abs() < (expected as u64) / 3,
                "port {port} appeared {c} times, expected ≈{expected}"
            );
        }
    }

    #[test]
    fn primary_port_is_the_sum_of_the_permutations_mod_n() {
        let mut rng = SimRng::seed_from_u64(9);
        for n in [2usize, 8, 64] {
            let ols = WeaklyUniformOls::random(n, &mut rng);
            for i in 0..n {
                for j in 0..n {
                    let sum = ols.row_perm.apply(i) + ols.col_perm.apply(j);
                    assert_eq!(ols.primary_port(i, j), sum % n, "n = {n}, ({i}, {j})");
                }
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = WeaklyUniformOls::random(16, &mut SimRng::seed_from_u64(3));
        let b = WeaklyUniformOls::random(16, &mut SimRng::seed_from_u64(3));
        assert_eq!(a, b);
    }
}
