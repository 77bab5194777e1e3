//! Uniform random permutations (Fisher–Yates / Durstenfeld).
//!
//! The paper's stripe-interval generation requires sampling permutations of
//! `{0, …, N−1}` uniformly at random (reference \[7\] of the paper, Durstenfeld's
//! Algorithm 235).  This module provides that plus a small `Permutation`
//! wrapper, which the Orthogonal Latin Square and the Sprinklers switch both
//! use.

use crate::rng::SimRng;

/// A permutation of `{0, 1, …, n−1}` with O(1) lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    forward: Vec<usize>,
}

impl Permutation {
    /// The identity permutation on `n` elements.
    pub fn identity(n: usize) -> Self {
        Permutation {
            forward: (0..n).collect(),
        }
    }

    /// Sample a permutation of `n` elements uniformly at random using the
    /// Fisher–Yates shuffle.
    pub fn random(n: usize, rng: &mut SimRng) -> Self {
        let mut forward: Vec<usize> = (0..n).collect();
        // Durstenfeld's in-place variant: O(n) time, n-1 random draws.
        for i in (1..n).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            forward.swap(i, j);
        }
        Self::from_mapping(forward).expect("shuffle of 0..n is a permutation")
    }

    /// Build a permutation from an explicit mapping `i → mapping[i]`.
    ///
    /// Returns `None` if `mapping` is not a permutation of `0..mapping.len()`.
    pub fn from_mapping(mapping: Vec<usize>) -> Option<Self> {
        let n = mapping.len();
        let mut seen = vec![false; n];
        for &v in &mapping {
            if v >= n || seen[v] {
                return None;
            }
            seen[v] = true;
        }
        Some(Permutation { forward: mapping })
    }

    /// Number of elements the permutation acts on.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// True if the permutation acts on zero elements.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// Apply the permutation: `σ(i)`.
    #[inline]
    pub fn apply(&self, i: usize) -> usize {
        self.forward[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn identity_maps_every_element_to_itself() {
        let p = Permutation::identity(8);
        for i in 0..8 {
            assert_eq!(p.apply(i), i);
        }
    }

    #[test]
    fn from_mapping_rejects_non_permutations() {
        assert!(Permutation::from_mapping(vec![0, 0, 1]).is_none());
        assert!(Permutation::from_mapping(vec![0, 3]).is_none());
        assert!(Permutation::from_mapping(vec![2, 0, 1]).is_some());
        assert!(Permutation::from_mapping(vec![]).is_some());
    }

    #[test]
    fn random_is_a_permutation_and_inverse_is_consistent() {
        let mut rng = SimRng::seed_from_u64(7);
        for n in [1usize, 2, 5, 16, 257] {
            let p = Permutation::random(n, &mut rng);
            // A bijection on 0..n: n distinct images, all in range.
            let values: HashSet<usize> = (0..n).map(|i| p.apply(i)).collect();
            assert_eq!(values.len(), n);
            assert!(values.iter().all(|&v| v < n));
        }
    }

    #[test]
    fn random_permutations_are_roughly_uniform() {
        // For n = 3 there are 6 permutations; with 6000 samples each should
        // appear ~1000 times.  A very loose tolerance keeps the test robust.
        let mut rng = SimRng::seed_from_u64(1234);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..6000 {
            let p = Permutation::random(3, &mut rng);
            let mapping: Vec<usize> = (0..3).map(|i| p.apply(i)).collect();
            *counts.entry(mapping).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 6);
        for (_, c) in counts {
            assert!(
                c > 800 && c < 1200,
                "count {c} is implausible for a uniform sampler"
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Permutation::random(64, &mut SimRng::seed_from_u64(99));
        let b = Permutation::random(64, &mut SimRng::seed_from_u64(99));
        assert_eq!(a, b);
    }
}
