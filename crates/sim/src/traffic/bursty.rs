//! Bursty on/off traffic sources.
//!
//! Each input alternates between an ON state (a packet arrives every slot
//! with probability `peak`) and an OFF state (no arrivals), with geometric
//! sojourn times.  This models the burstiness the paper's intermediate-stage
//! delay analysis (§5) worries about and is used by the extended evaluation
//! to check that the delay of the ordered schemes stays bounded under bursts.

use super::{draw53, threshold, RowSampler, TrafficGenerator};
use sprinklers_core::matrix::TrafficMatrix;
use sprinklers_core::packet::Packet;
use sprinklers_core::rng::SimRng;

/// Markov-modulated on/off traffic.
pub struct BurstyTraffic {
    n: usize,
    matrix: TrafficMatrix,
    rows: RowSampler,
    /// Per input: `threshold` of the in-burst arrival probability.
    arrive_in_burst: Vec<u64>,
    /// Probability of leaving the current state (ON or OFF) each slot: the
    /// chain is symmetric, so its duty cycle is 1/2.
    p_flip: f64,
    /// Arrival probability while ON.
    peak: f64,
    state_on: Vec<bool>,
    /// The destination draws of the slot being generated (see
    /// `BernoulliTraffic::draws`).
    draws: Vec<u64>,
    rng: SimRng,
}

impl BurstyTraffic {
    /// Create bursty traffic with the given long-run destination matrix and
    /// mean burst length (slots).  The long-run load of input `i` equals the
    /// matrix's row sum; the peak (in-burst) arrival probability is `peak`.
    ///
    /// # Panics
    ///
    /// Panics if any input load exceeds `peak`, which would make the long-run
    /// rate unattainable, or if parameters are out of range.
    pub fn new(matrix: TrafficMatrix, peak: f64, mean_burst: f64, seed: u64) -> Self {
        assert!(peak > 0.0 && peak <= 1.0);
        assert!(mean_burst >= 1.0);
        let n = matrix.n();
        let rows = RowSampler::new(&matrix);
        // Duty cycle needed at each input: load / peak.  Use the largest so a
        // single on/off chain serves every input (keeps the model simple);
        // inputs with lower load thin their in-burst arrivals accordingly.
        for load in (0..n).map(|i| rows.load(i)) {
            assert!(
                load <= peak + 1e-9,
                "input load {load} exceeds the peak rate {peak}"
            );
        }
        // With a symmetric chain the duty cycle is 1/2, so thin in-burst
        // arrivals to 2·load (capped at the peak) to hit the long-run load.
        let arrive_in_burst = (0..n)
            .map(|i| threshold((2.0 * rows.load(i)).min(peak)))
            .collect();
        BurstyTraffic {
            n,
            matrix,
            rows,
            arrive_in_burst,
            p_flip: 1.0 / mean_burst,
            peak,
            state_on: vec![false; n],
            draws: Vec::with_capacity(n),
            rng: SimRng::seed_from_u64(seed),
        }
    }

    /// Uniform-destination bursty traffic at long-run load `rho`.
    pub fn uniform(n: usize, rho: f64, peak: f64, mean_burst: f64, seed: u64) -> Self {
        Self::new(TrafficMatrix::uniform(n, rho), peak, mean_burst, seed)
    }
}

impl TrafficGenerator for BurstyTraffic {
    fn n(&self) -> usize {
        self.n
    }

    // lint: hot-path
    fn arrivals_into(&mut self, slot: u64, out: &mut Vec<Packet>) {
        let flip = threshold(self.p_flip);
        // A local copy keeps the generator state in registers across
        // `out.push` (see `BernoulliTraffic::arrivals_into`).
        // lint: allow(hot-path) — SimRng is four u64 words: the clone is a copy, not a heap allocation
        let mut rng = self.rng.clone();
        let first = out.len();
        self.draws.clear();
        for input in 0..self.n {
            // Evolve the on/off chain.
            if draw53(&mut rng) < flip {
                self.state_on[input] = !self.state_on[input];
            }
            if !self.state_on[input] {
                continue;
            }
            if draw53(&mut rng) < self.arrive_in_burst[input] {
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
        format!("bursty(peak={},burst≈{:.0})", self.peak, 1.0 / self.p_flip)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{assert_same_stream, dense_copy};
    use super::*;

    #[test]
    fn dense_storage_draws_the_same_stream() {
        let matrix = TrafficMatrix::diagonal(32, 0.4);
        let dense = dense_copy(&matrix);
        let mut a = BurstyTraffic::new(matrix, 0.9, 20.0, 6);
        let mut b = BurstyTraffic::new(dense, 0.9, 20.0, 6);
        assert_same_stream(&mut a, &mut b, 2_000);
    }

    #[test]
    fn long_run_rate_is_close_to_the_matrix_load() {
        let n = 8;
        let rho = 0.4;
        let mut gen = BurstyTraffic::uniform(n, rho, 1.0, 50.0, 7);
        let slots = 200_000u64;
        let mut count = 0u64;
        for slot in 0..slots {
            count += gen.arrivals(slot).len() as u64;
        }
        let measured = count as f64 / (slots as f64 * n as f64);
        assert!(
            (measured - rho).abs() < 0.05,
            "long-run rate {measured} should be ≈ {rho}"
        );
    }

    #[test]
    fn arrivals_are_bursty() {
        // Count slot-level arrival autocorrelation: in bursty traffic an
        // arrival is much more likely right after another arrival at the same
        // input than the unconditional rate.
        let mut gen = BurstyTraffic::uniform(4, 0.3, 1.0, 100.0, 3);
        let slots = 100_000u64;
        let mut prev = false;
        let mut after_arrival = 0u64;
        let mut after_arrival_hits = 0u64;
        let mut total = 0u64;
        let mut hits = 0u64;
        for slot in 0..slots {
            let has = gen.arrivals(slot).iter().any(|p| p.input() == 0);
            total += 1;
            if has {
                hits += 1;
            }
            if prev {
                after_arrival += 1;
                if has {
                    after_arrival_hits += 1;
                }
            }
            prev = has;
        }
        let base_rate = hits as f64 / total as f64;
        let cond_rate = after_arrival_hits as f64 / after_arrival.max(1) as f64;
        assert!(
            cond_rate > base_rate * 1.5,
            "conditional rate {cond_rate} should exceed base rate {base_rate} for bursty traffic"
        );
    }

    #[test]
    fn at_most_one_packet_per_input_per_slot() {
        let mut gen = BurstyTraffic::uniform(8, 0.5, 1.0, 20.0, 1);
        for slot in 0..1000 {
            let arrivals = gen.arrivals(slot);
            let mut seen = [false; 8];
            for p in arrivals {
                assert!(!seen[p.input()]);
                seen[p.input()] = true;
            }
        }
    }

    #[test]
    #[should_panic]
    fn rejects_load_above_peak() {
        let _ = BurstyTraffic::uniform(4, 0.9, 0.5, 10.0, 0);
    }
}
