//! Expected delay at the intermediate stage (§5, Figure 5).
//!
//! The paper models the queue at an intermediate port, under worst-case
//! burstiness, as a discrete-time Markov chain observed once per cycle
//! (N slots): in each cycle the queue receives a batch of N packets with
//! probability `ρ/N` (and nothing otherwise) and serves exactly one packet.
//! The expected stationary queue length — which is also the expected duration
//! of the clearance phase used when stripe sizes are re-designed — is what
//! Figure 5 plots against the switch size N at ρ = 0.9.
//!
//! Two solvers are provided:
//!
//! * [`expected_queue_length`] — the closed form
//!   `E[Q] = ρ(N−1) / (2(1−ρ))`, obtained from the stationary first and
//!   second moments of the reflected random walk.
//! * [`IntermediateDelayModel`] — a numerical stationary-distribution solver
//!   for the same chain (used to validate the closed form and to expose the
//!   full distribution, e.g. for tail percentiles).

/// Closed-form expected stationary queue length (in packets, equivalently in
/// service periods since the service rate is one packet per period):
/// `E[Q] = ρ(N−1) / (2(1−ρ))`.
pub fn expected_queue_length(n: usize, rho: f64) -> f64 {
    assert!(n >= 1);
    assert!(
        (0.0..1.0).contains(&rho),
        "load must be in [0, 1), got {rho}"
    );
    rho * (n as f64 - 1.0) / (2.0 * (1.0 - rho))
}

/// Probability that the queue is empty at a cycle boundary:
/// `P(Q = 0) = (1 − ρ) / (1 − ρ/N)`.
pub fn empty_probability(n: usize, rho: f64) -> f64 {
    (1.0 - rho) / (1.0 - rho / n as f64)
}

/// The series plotted in Figure 5: expected delay (in periods) versus switch
/// size, at fixed load.
pub fn figure5_series(rho: f64, sizes: &[usize]) -> Vec<(usize, f64)> {
    sizes
        .iter()
        .map(|&n| (n, expected_queue_length(n, rho)))
        .collect()
}

/// Numerical model of the intermediate-stage queue-length Markov chain.
#[derive(Debug, Clone)]
pub struct IntermediateDelayModel {
    n: usize,
    rho: f64,
    /// Stationary distribution over queue lengths `0..pi.len()` (truncated).
    pi: Vec<f64>,
    /// Probability mass lost to truncation (diagnostic; should be tiny).
    truncated_mass: f64,
}

impl IntermediateDelayModel {
    /// Solve the stationary distribution of the chain for an `n`-port switch
    /// at load `rho`, truncating the state space once the remaining tail mass
    /// is negligible.
    ///
    /// The chain moves down by exactly one per cycle (skip-free to the left),
    /// so the stationary distribution satisfies the forward recursion
    /// `π_{j+1} = (π_j − p·π_{j−N+1}·[j ≥ N−1]) / (1 − p)` for `j ≥ 1` and
    /// `π_1 = π_0 · p / (1 − p)`, which we run from an unnormalized `π_0 = 1`
    /// and then normalize.
    pub fn solve(n: usize, rho: f64) -> Self {
        assert!(n >= 2);
        assert!((0.0..1.0).contains(&rho));
        let p = rho / n as f64;
        let q = 1.0 - p;
        // Generous truncation: the mean is ~ρ(N−1)/(2(1−ρ)); keep many
        // multiples of it plus a floor for tiny means.
        let mean = expected_queue_length(n, rho);
        let cap = ((mean * 40.0) as usize).max(50 * n) + 2 * n;
        let mut pi = vec![0.0f64; cap];
        pi[0] = 1.0;
        if cap > 1 {
            pi[1] = pi[0] * p / q;
        }
        for j in 1..cap - 1 {
            let feed = if j >= n - 1 { p * pi[j - (n - 1)] } else { 0.0 };
            let next = (pi[j] - feed) / q;
            pi[j + 1] = next.max(0.0);
        }
        let sum: f64 = pi.iter().sum();
        for v in &mut pi {
            *v /= sum;
        }
        // Estimate the truncated mass from the size of the last entries.
        let tail: f64 = pi[cap.saturating_sub(n)..].iter().sum();
        IntermediateDelayModel {
            n,
            rho,
            pi,
            truncated_mass: tail,
        }
    }

    /// Switch size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Offered load.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Stationary probability of queue length `q` (0 beyond the truncation).
    pub fn prob(&self, q: usize) -> f64 {
        self.pi.get(q).copied().unwrap_or(0.0)
    }

    /// Expected stationary queue length.
    pub fn mean_queue_length(&self) -> f64 {
        self.pi.iter().enumerate().map(|(q, &p)| q as f64 * p).sum()
    }

    /// Smallest queue length `q` such that `P(Q ≤ q) ≥ percentile`.
    pub fn percentile(&self, percentile: f64) -> usize {
        assert!((0.0..=1.0).contains(&percentile));
        let mut acc = 0.0;
        for (q, &p) in self.pi.iter().enumerate() {
            acc += p;
            if acc >= percentile {
                return q;
            }
        }
        self.pi.len()
    }

    /// Probability mass beyond the truncation point (diagnostic).
    pub fn truncated_mass(&self) -> f64 {
        self.truncated_mass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_matches_figure5_magnitude() {
        // Figure 5: at ρ = 0.9 the delay grows linearly in N, reaching roughly
        // 4000–4500 periods at N = 1000.
        let d = expected_queue_length(1000, 0.9);
        assert!(
            d > 3500.0 && d < 5000.0,
            "delay {d} out of Figure 5's range"
        );
        // Linearity in N: E[Q] ∝ (N − 1).
        let d2 = expected_queue_length(500, 0.9);
        assert!((d / d2 - 999.0 / 499.0).abs() < 1e-9);
    }

    #[test]
    fn closed_form_is_linear_in_n() {
        let s = figure5_series(0.9, &[8, 16, 32, 64, 128, 256, 512, 1024]);
        for w in s.windows(2) {
            let (n1, d1) = w[0];
            let (n2, d2) = w[1];
            let slope1 = d1 / (n1 as f64 - 1.0);
            let slope2 = d2 / (n2 as f64 - 1.0);
            assert!(
                (slope1 - slope2).abs() < 1e-9,
                "the delay/(N−1) ratio must be constant"
            );
        }
    }

    #[test]
    fn empty_probability_is_a_probability() {
        for n in [2usize, 32, 1024] {
            for rho in [0.1, 0.5, 0.9, 0.99] {
                let p0 = empty_probability(n, rho);
                assert!(p0 > 0.0 && p0 <= 1.0);
            }
        }
    }

    #[test]
    fn numerical_solver_matches_closed_form_small_n() {
        for (n, rho) in [(4usize, 0.5f64), (8, 0.7), (16, 0.8), (32, 0.9), (64, 0.6)] {
            let model = IntermediateDelayModel::solve(n, rho);
            assert!(model.truncated_mass() < 1e-6, "truncation too aggressive");
            let numeric = model.mean_queue_length();
            let closed = expected_queue_length(n, rho);
            let rel = (numeric - closed).abs() / closed.max(1.0);
            assert!(
                rel < 0.01,
                "n = {n}, rho = {rho}: numeric {numeric} vs closed form {closed}"
            );
        }
    }

    #[test]
    fn numerical_empty_probability_matches_closed_form() {
        let model = IntermediateDelayModel::solve(16, 0.8);
        assert!((model.prob(0) - empty_probability(16, 0.8)).abs() < 1e-3);
    }

    #[test]
    fn stationary_distribution_sums_to_one() {
        let model = IntermediateDelayModel::solve(32, 0.85);
        let total: f64 = (0..model.pi.len()).map(|q| model.prob(q)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn percentiles_are_monotone() {
        let model = IntermediateDelayModel::solve(16, 0.9);
        let p50 = model.percentile(0.5);
        let p90 = model.percentile(0.9);
        let p99 = model.percentile(0.99);
        assert!(p50 <= p90 && p90 <= p99);
        assert!(p99 > 0);
    }

    #[test]
    fn zero_load_has_empty_queue() {
        assert_eq!(expected_queue_length(64, 0.0), 0.0);
        let model = IntermediateDelayModel::solve(8, 0.0);
        assert!((model.prob(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn higher_load_means_longer_queue() {
        let lo = expected_queue_length(64, 0.5);
        let hi = expected_queue_length(64, 0.95);
        assert!(hi > lo * 5.0);
    }

    #[test]
    #[should_panic]
    fn rejects_load_of_one() {
        let _ = expected_queue_length(64, 1.0);
    }
}
