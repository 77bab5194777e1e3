//! Bernoulli i.i.d. arrivals — the traffic model of the paper's evaluation.
//!
//! In each time slot, input `i` receives a packet with probability equal to
//! its offered load; the destination is drawn from the input's destination
//! distribution.  The two destination distributions used in §6 are *uniform*
//! (every output equally likely) and *quasi-diagonal* (output `i` with
//! probability 1/2, every other output with probability `1/(2(N−1))`).
//! Arbitrary admissible rate matrices are also supported.

use super::{draw53, threshold, RowSampler, TrafficGenerator};
use sprinklers_core::matrix::TrafficMatrix;
use sprinklers_core::packet::Packet;
use sprinklers_core::rng::SimRng;

/// Bernoulli i.i.d. traffic drawn from an arbitrary admissible rate matrix.
pub struct BernoulliTraffic {
    n: usize,
    matrix: TrafficMatrix,
    rows: RowSampler,
    /// Per input: `threshold(load)`; 0 marks an idle input, which draws
    /// nothing.
    arrive: Vec<u64>,
    /// The destination draws of the slot being generated, in arrival order
    /// (see [`RowSampler::resolve`]).  Reserved to `n` up front: a slot has
    /// at most one arrival per input.
    draws: Vec<u64>,
    rng: SimRng,
    label: String,
}

impl BernoulliTraffic {
    /// Bernoulli arrivals drawn from an explicit rate matrix.
    pub fn from_matrix(matrix: TrafficMatrix, seed: u64, label: impl Into<String>) -> Self {
        let n = matrix.n();
        let rows = RowSampler::new(&matrix);
        let arrive = (0..n).map(|i| threshold(rows.load(i))).collect();
        BernoulliTraffic {
            n,
            matrix,
            rows,
            arrive,
            draws: Vec::with_capacity(n),
            rng: SimRng::seed_from_u64(seed),
            label: label.into(),
        }
    }

    /// The paper's uniform scenario: load `rho`, destinations uniform.
    pub fn uniform(n: usize, rho: f64, seed: u64) -> Self {
        Self::from_matrix(
            TrafficMatrix::uniform(n, rho),
            seed,
            format!("bernoulli-uniform(rho={rho})"),
        )
    }

    /// The paper's quasi-diagonal scenario: load `rho`, destination `i` with
    /// probability 1/2 from input `i`, all others with probability
    /// `1/(2(N−1))`.
    pub fn diagonal(n: usize, rho: f64, seed: u64) -> Self {
        Self::from_matrix(
            TrafficMatrix::diagonal(n, rho),
            seed,
            format!("bernoulli-diagonal(rho={rho})"),
        )
    }

    /// Hot-spot traffic (an extension scenario): a fraction of each input's
    /// load targets one output.
    pub fn hotspot(n: usize, rho: f64, hot_fraction: f64, seed: u64) -> Self {
        Self::from_matrix(
            TrafficMatrix::hotspot(n, rho, hot_fraction),
            seed,
            format!("bernoulli-hotspot(rho={rho},hot={hot_fraction})"),
        )
    }
}

impl TrafficGenerator for BernoulliTraffic {
    fn n(&self) -> usize {
        self.n
    }

    // lint: hot-path
    fn arrivals_into(&mut self, slot: u64, out: &mut Vec<Packet>) {
        // Draw from a local copy: `out.push` may reallocate, so with the
        // state behind `self` every draw would reload and store its four
        // words around the call instead of keeping them in registers.
        // lint: allow(hot-path) — SimRng is four u64 words: the clone is a copy, not a heap allocation
        let mut rng = self.rng.clone();
        let first = out.len();
        self.draws.clear();
        for (input, &arrive) in self.arrive.iter().enumerate() {
            if arrive != 0 && draw53(&mut rng) < arrive {
                self.draws.push(draw53(&mut rng));
                out.push(Packet::new(input, 0, 0, slot));
            }
        }
        self.rng = rng;
        self.rows
            .resolve(&self.matrix, &mut out[first..], &self.draws);
    }

    fn rate_matrix(&self) -> TrafficMatrix {
        self.matrix.clone()
    }

    fn label(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{assert_same_stream, dense_copy};
    use super::*;

    fn empirical_matrix(gen: &mut BernoulliTraffic, slots: u64) -> TrafficMatrix {
        let n = gen.n();
        let mut counts = vec![0u64; n * n];
        for slot in 0..slots {
            for p in gen.arrivals(slot) {
                counts[p.input() * n + p.output()] += 1;
            }
        }
        let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / slots as f64).collect();
        TrafficMatrix::from_rates(n, rates).unwrap()
    }

    #[test]
    fn at_most_one_packet_per_input_per_slot() {
        let mut gen = BernoulliTraffic::uniform(8, 1.0, 3);
        for slot in 0..100 {
            let arrivals = gen.arrivals(slot);
            let mut seen = [false; 8];
            for p in &arrivals {
                assert!(
                    !seen[p.input()],
                    "two packets at input {} in one slot",
                    p.input()
                );
                seen[p.input()] = true;
                assert_eq!(p.arrival_slot, slot);
            }
        }
    }

    #[test]
    fn uniform_empirical_rates_match_the_matrix() {
        let n = 8;
        let rho = 0.72;
        let mut gen = BernoulliTraffic::uniform(n, rho, 11);
        let emp = empirical_matrix(&mut gen, 40_000);
        for i in 0..n {
            assert!(
                (emp.input_load(i) - rho).abs() < 0.03,
                "input {i} load {} should be ≈ {rho}",
                emp.input_load(i)
            );
            for j in 0..n {
                assert!((emp.rate(i, j) - rho / n as f64).abs() < 0.02);
            }
        }
    }

    #[test]
    fn diagonal_empirical_rates_are_concentrated_on_the_diagonal() {
        let n = 16;
        let rho = 0.8;
        let mut gen = BernoulliTraffic::diagonal(n, rho, 5);
        let emp = empirical_matrix(&mut gen, 40_000);
        for i in 0..n {
            assert!(
                (emp.rate(i, i) - rho * 0.5).abs() < 0.03,
                "diagonal rate {} should be ≈ {}",
                emp.rate(i, i),
                rho * 0.5
            );
        }
    }

    #[test]
    fn zero_load_generates_nothing() {
        let mut gen = BernoulliTraffic::uniform(4, 0.0, 1);
        for slot in 0..1000 {
            assert!(gen.arrivals(slot).is_empty());
        }
    }

    #[test]
    fn idle_inputs_consume_no_draws() {
        // Nothing offered: the generator's RNG is still at its seed state.
        let mut idle = BernoulliTraffic::uniform(4, 0.0, 9);
        for slot in 0..100 {
            assert!(idle.arrivals(slot).is_empty());
        }
        assert_eq!(idle.rng, SimRng::seed_from_u64(9));

        // One saturated input between two idle ones: exactly two draws per
        // slot (arrival, destination), none for the idle inputs.
        let mut matrix = TrafficMatrix::zero(3);
        matrix.set(1, 0, 0.5);
        matrix.set(1, 2, 0.5);
        let mut gen = BernoulliTraffic::from_matrix(matrix, 9, "one-busy-input");
        let slots = 100;
        for slot in 0..slots {
            assert_eq!(gen.arrivals(slot).len(), 1);
        }
        let mut reference = SimRng::seed_from_u64(9);
        for _ in 0..2 * slots {
            reference.next_u64();
        }
        assert_eq!(gen.rng, reference);
    }

    #[test]
    fn dense_storage_draws_the_same_stream() {
        // The closed form against the exact path on every draw; a hot-spot
        // with hot fraction 1 has zero-rate runs on both sides of its hot
        // column.
        for matrix in [
            TrafficMatrix::diagonal(64, 0.9),
            TrafficMatrix::hotspot(16, 0.7, 1.0),
        ] {
            let dense = dense_copy(&matrix);
            let mut a = BernoulliTraffic::from_matrix(matrix, 3, "closed");
            let mut b = BernoulliTraffic::from_matrix(dense, 3, "dense");
            assert_same_stream(&mut a, &mut b, 2_000);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = BernoulliTraffic::diagonal(8, 0.5, 42);
        let mut b = BernoulliTraffic::diagonal(8, 0.5, 42);
        for slot in 0..200 {
            let pa: Vec<(usize, usize)> = a
                .arrivals(slot)
                .iter()
                .map(|p| (p.input(), p.output()))
                .collect();
            let pb: Vec<(usize, usize)> = b
                .arrivals(slot)
                .iter()
                .map(|p| (p.input(), p.output()))
                .collect();
            assert_eq!(pa, pb);
        }
    }

    #[test]
    fn label_mentions_the_pattern() {
        assert!(BernoulliTraffic::uniform(8, 0.5, 0)
            .label()
            .contains("uniform"));
        assert!(BernoulliTraffic::diagonal(8, 0.5, 0)
            .label()
            .contains("diagonal"));
        assert!(BernoulliTraffic::hotspot(8, 0.5, 0.3, 0)
            .label()
            .contains("hotspot"));
    }
}
