//! Traffic generators.
//!
//! A traffic generator produces at most one packet per input port per time
//! slot (the standard admissibility constraint for an input line of rate 1)
//! and exposes the long-run rate matrix it draws from, which the Sprinklers
//! switch can use for matrix-driven stripe sizing and which the analysis
//! modules use to check admissibility.
//!
//! The two generators used by the paper's evaluation (§6) are Bernoulli
//! arrivals with uniform destinations and with quasi-diagonal destinations;
//! both are provided by [`bernoulli::BernoulliTraffic`].  The other generators
//! extend the evaluation: bursty on/off sources, application-flow-structured
//! traffic (needed by the TCP-hashing baseline), deterministic in-memory
//! trace replay for tests ([`trace::TraceTraffic`]), and streaming replay of
//! recorded trace files ([`trace_stream::TraceStream`], with the on-disk
//! formats in [`trace_io`]).

pub mod bernoulli;
pub mod bursty;
pub mod flows;
pub mod trace;
pub mod trace_io;
pub mod trace_stream;

use sprinklers_core::matrix::TrafficMatrix;
use sprinklers_core::packet::{assert_ports_fit, Packet};
use sprinklers_core::rng::SimRng;
use std::cmp::Ordering;

/// A source of packet arrivals for an N-port switch.
pub trait TrafficGenerator {
    /// Number of switch ports.
    fn n(&self) -> usize;

    /// Generate the arrivals of one time slot by pushing them into `out`
    /// (which the caller has cleared): at most one packet per input port.
    /// Identity fields other than `input`, `output`, `flow` and
    /// `arrival_slot` may be left at their defaults; the simulation engine
    /// assigns globally unique ids and per-VOQ sequence numbers.
    ///
    /// This is the required method so that the engine's steady-state loop can
    /// reuse one buffer across slots and stay allocation-free, matching the
    /// contract of [`sprinklers_core::switch::Switch::step`].
    fn arrivals_into(&mut self, slot: u64, out: &mut Vec<Packet>);

    /// Convenience wrapper returning the slot's arrivals in a fresh `Vec`
    /// (tests and examples; the engine uses [`Self::arrivals_into`]).
    fn arrivals(&mut self, slot: u64) -> Vec<Packet> {
        let mut out = Vec::new();
        self.arrivals_into(slot, &mut out);
        out
    }

    /// The long-run average rate matrix this generator draws from.
    fn rate_matrix(&self) -> TrafficMatrix;

    /// Short human-readable description (used in reports).
    fn label(&self) -> String;
}

impl<T: TrafficGenerator + ?Sized> TrafficGenerator for Box<T> {
    fn n(&self) -> usize {
        (**self).n()
    }
    fn arrivals_into(&mut self, slot: u64, out: &mut Vec<Packet>) {
        (**self).arrivals_into(slot, out)
    }
    fn rate_matrix(&self) -> TrafficMatrix {
        (**self).rate_matrix()
    }
    fn label(&self) -> String {
        (**self).label()
    }
}

/// `2^-53`: [`SimRng::unit_f64`] is `x · 2^-53` for one 53-bit draw `x`.
const DRAW_SCALE: f64 = 1.0 / (1u64 << 53) as f64;

/// The 53-bit integer behind one [`SimRng::unit_f64`]: the same single
/// `next_u64` call, minus the conversion to `f64`.  Every probability test
/// and every destination in the seeded generators reads its randomness
/// through this, so the draw sequence is the float form's, call for call.
#[inline]
pub(crate) fn draw53(rng: &mut SimRng) -> u64 {
    rng.next_u64() >> 11
}

/// The exact integer form of a probability test: for every `p`,
/// `draw53(rng) < threshold(p)` is `rng.unit_f64() < p`.
///
/// `x · 2^-53 < p` ⇔ `x < p · 2^53` ⇔ `x < ⌈p · 2^53⌉` for an integer `x`,
/// and scaling by a power of two is exact.  `p ≤ 0` and NaN give 0 (never),
/// `p ≥ 1` gives at least `2^53` (always).
pub(crate) fn threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// Sample a destination from a cumulative distribution over outputs by
/// binary search.  The generators' original sampler; at run time it now
/// serves only draws that land exactly on a CDF value (see
/// [`RowSampler::sample`]), and the tests keep it as the oracle.
pub(crate) fn sample_from_cdf(cdf: &[f64], u: f64) -> usize {
    let located = cdf.binary_search_by(|probe| {
        if *probe < u {
            Ordering::Less
        } else if *probe > u {
            Ordering::Greater
        } else {
            Ordering::Equal
        }
    });
    match located {
        Ok(idx) => idx,
        Err(idx) => idx.min(cdf.len() - 1),
    }
}

/// Per-input loads and destination distributions of a rate matrix, laid out
/// for sampling: every row's CDF in one flat table, plus a guide table that
/// turns the top bits of a draw into a starting index a step or two short of
/// the answer.
///
/// Row `i`'s CDF is conditioned on an arrival at input `i`
/// (`cdf[j] = Σ_{k≤j} rate(i, k) / load(i)`, last entry forced to 1).  The
/// unit interval is cut into `buckets` equal parts, a power of two near
/// `n / 4`; `guide[b]` is the first index whose CDF value reaches the
/// bucket's lower edge `b / buckets`.  A draw's bucket is its top
/// `log2(buckets)` bits, the destination is at or after `guide[bucket]`, and
/// since buckets are equiprobable and a row has four entries per bucket, the
/// forward scan is about two steps on average whatever the distribution.
pub(crate) struct RowSampler {
    n: usize,
    buckets: usize,
    /// `draw >> bucket_shift` is the draw's bucket.
    bucket_shift: u32,
    loads: Vec<f64>,
    /// Row-major `n × n`.
    cdf: Vec<f64>,
    /// Row-major `n × buckets`.
    guide: Vec<u16>,
}

impl RowSampler {
    /// Build the tables in one pass over the matrix: each CDF value is
    /// pushed once, and the guide is filled by merging the ascending bucket
    /// edges into the ascending CDF as it is produced.
    pub(crate) fn new(matrix: &TrafficMatrix) -> Self {
        let n = matrix.n();
        // Also what lets a guide entry be a `u16`.
        assert_ports_fit(n);
        let buckets = (n / 4).max(1).next_power_of_two();
        let bucket_width = 1.0 / buckets as f64;
        let mut loads = Vec::with_capacity(n);
        let mut cdf = Vec::with_capacity(n * n);
        let mut guide = Vec::with_capacity(n * buckets);
        for input in 0..n {
            let load = matrix.input_load(input);
            loads.push(load);
            let mut acc = 0.0;
            let mut bucket = 0;
            for j in 0..n - 1 {
                if load > 0.0 {
                    acc += matrix.rate(input, j) / load;
                }
                cdf.push(acc);
                while bucket < buckets && bucket as f64 * bucket_width <= acc {
                    guide.push(j as u16);
                    bucket += 1;
                }
            }
            cdf.push(1.0);
            guide.resize((input + 1) * buckets, (n - 1) as u16);
        }
        RowSampler {
            n,
            buckets,
            bucket_shift: 53 - buckets.trailing_zeros(),
            loads,
            cdf,
            guide,
        }
    }

    /// Offered load of `input` (its row sum).
    pub(crate) fn load(&self, input: usize) -> f64 {
        self.loads[input]
    }

    /// The destination CDF of `input`.
    fn row(&self, input: usize) -> &[f64] {
        &self.cdf[input * self.n..(input + 1) * self.n]
    }

    /// The destination the binary search picks for `u = draw · 2^-53`, for
    /// every 53-bit `draw`.
    ///
    /// The scan stops at the first CDF value `≥ u`, which is the binary
    /// search's answer when it is `> u`.  When it equals `u` — and only a
    /// CDF with duplicate values (zero-rate outputs) makes that ambiguous —
    /// the binary search itself decides, so the two agree on ties as well.
    #[inline]
    pub(crate) fn sample(&self, input: usize, draw: u64) -> usize {
        let row = self.row(input);
        let u = draw as f64 * DRAW_SCALE;
        let bucket = (draw >> self.bucket_shift) as usize;
        let mut k = usize::from(self.guide[input * self.buckets + bucket]);
        // Ends at `n - 1` at the latest: the last CDF value is 1 and `u < 1`.
        while row[k] < u {
            k += 1;
        }
        if row[k] == u {
            return sample_from_cdf(row, u);
        }
        k
    }

    /// Address a slot's new arrivals: packet `k` goes where
    /// [`Self::sample`] sends `draws[k]` from its input.
    ///
    /// The seeded generators draw a slot first, pushing each arrival with a
    /// placeholder output and keeping its destination draw, and call this
    /// once after their draw loop.  Sampling inside that loop would put two
    /// dependent loads into the n²-sized guide and CDF tables on the RNG's
    /// dependency chain, one likely cache miss after another; here every
    /// packet's lookups are independent of the others', so the misses
    /// overlap.  Which draws are made, and in which order, is unaffected.
    // lint: hot-path
    pub(crate) fn resolve(&self, packets: &mut [Packet], draws: &[u64]) {
        debug_assert_eq!(packets.len(), draws.len());
        for (packet, &draw) in packets.iter_mut().zip(draws) {
            let input = packet.input();
            packet.set_ports(input, self.sample(input, draw));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const DRAW_MAX: u64 = (1 << 53) - 1;

    /// A sampler whose row 0 has the given relative weights (the other rows
    /// are idle), at a load that makes `rate / load` inexact.
    fn sampler_for(weights: &[u32]) -> RowSampler {
        let n = weights.len();
        let total: u32 = weights.iter().sum();
        let mut matrix = TrafficMatrix::zero(n);
        for (j, &w) in weights.iter().enumerate() {
            matrix.set(0, j, 0.7 * f64::from(w) / f64::from(total));
        }
        RowSampler::new(&matrix)
    }

    #[test]
    fn sample_from_cdf_picks_correct_bucket() {
        let cdf = vec![0.25, 0.5, 0.75, 1.0];
        assert_eq!(sample_from_cdf(&cdf, 0.0), 0);
        assert_eq!(sample_from_cdf(&cdf, 0.3), 1);
        assert_eq!(sample_from_cdf(&cdf, 0.74), 2);
        assert_eq!(sample_from_cdf(&cdf, 0.99), 3);
    }

    #[test]
    fn row_cdf_normalizes_the_row() {
        let rows = RowSampler::new(&TrafficMatrix::diagonal(8, 0.8));
        let (load, cdf) = (rows.load(3), rows.row(3));
        assert!((load - 0.8).abs() < 1e-12);
        assert_eq!(cdf.len(), 8);
        assert!((cdf[7] - 1.0).abs() < 1e-12);
        // The diagonal entry owns half the probability mass.
        assert!((cdf[3] - cdf[2] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn row_cdf_of_idle_input_is_all_zero_probability() {
        let rows = RowSampler::new(&TrafficMatrix::zero(4));
        assert_eq!(rows.load(0), 0.0);
        assert_eq!(rows.row(0), [0.0, 0.0, 0.0, 1.0]);
        assert_eq!(threshold(rows.load(0)), 0);
    }

    #[test]
    fn guide_points_at_the_first_value_reaching_each_bucket_edge() {
        let rows = RowSampler::new(&TrafficMatrix::hotspot(64, 0.9, 0.6));
        assert_eq!(rows.buckets, 16);
        for input in 0..64 {
            let cdf = rows.row(input);
            for b in 0..rows.buckets {
                let edge = b as f64 / rows.buckets as f64;
                let first = cdf.partition_point(|&c| c < edge);
                assert_eq!(usize::from(rows.guide[input * rows.buckets + b]), first);
            }
        }
    }

    #[test]
    fn exact_ties_defer_to_the_binary_search() {
        // Row 0 sums to exactly 1, so its CDF is the dyadic
        // [0.25, 0.25, 0.25, 0.5, 1] and draws can land on it exactly.
        let mut matrix = TrafficMatrix::zero(5);
        for (j, rate) in [0.25, 0.0, 0.0, 0.25, 0.5].into_iter().enumerate() {
            matrix.set(0, j, rate);
        }
        let rows = RowSampler::new(&matrix);
        assert_eq!(rows.row(0), [0.25, 0.25, 0.25, 0.5, 1.0]);
        let (quarter, half) = (1u64 << 51, 1u64 << 52);
        for tie in [quarter, half] {
            let u = tie as f64 * DRAW_SCALE;
            assert!(rows.row(0).contains(&u));
            assert_eq!(rows.sample(0, tie), sample_from_cdf(rows.row(0), u));
        }
        // Off a tie the zero-probability outputs 1 and 2 are never picked.
        assert_eq!(rows.sample(0, 0), 0);
        assert_eq!(rows.sample(0, quarter - 1), 0);
        assert_eq!(rows.sample(0, quarter + 1), 3);
        assert_eq!(rows.sample(0, half + 1), 4);
        assert_eq!(rows.sample(0, DRAW_MAX), 4);
    }

    #[test]
    fn threshold_handles_the_edges_of_the_probability_range() {
        let subnormal = f64::MIN_POSITIVE / 4.0;
        for p in [
            0.0,
            DRAW_SCALE,
            subnormal,
            5e-324,
            0.01,
            0.9,
            1.0 - DRAW_SCALE,
            1.0,
            -0.25,
            1.5,
            f64::NAN,
        ] {
            let t = threshold(p);
            let boundary = [t.saturating_sub(1), t, t + 1];
            for x in [0, 1, DRAW_MAX - 1, DRAW_MAX].into_iter().chain(boundary) {
                let x = x.min(DRAW_MAX);
                assert_eq!(x < t, (x as f64 * DRAW_SCALE) < p, "p={p} x={x}");
            }
        }
        assert_eq!(threshold(0.0), 0);
        assert_eq!(threshold(5e-324), 1);
        assert_eq!(threshold(1.0), 1 << 53);
    }

    proptest! {
        #[test]
        fn threshold_is_the_float_comparison(p in 0.0f64..1.0, x in 0u64..=DRAW_MAX) {
            let t = threshold(p);
            for x in [x, t.saturating_sub(1), t.min(DRAW_MAX)] {
                prop_assert_eq!(x < t, (x as f64 * DRAW_SCALE) < p);
            }
        }

        #[test]
        fn sampler_matches_the_binary_search_oracle(
            size in 0usize..4,
            raw in collection::vec(0u32..8, 1000),
            draws in collection::vec(0u64..=DRAW_MAX, 64),
        ) {
            // Half the outputs get weight 0, so the CDF has runs of
            // duplicate values.
            let n = [2, 3, 64, 1000][size];
            let mut weights: Vec<u32> = raw[..n].iter().map(|w| w.saturating_sub(3)).collect();
            if weights.iter().all(|&w| w == 0) {
                weights[n / 2] = 1;
            }
            let rows = sampler_for(&weights);
            let cdf = rows.row(0);

            // Random draws, both ends of the range, and the draws on and
            // beside every CDF value (at and above 1/2 a CDF value times
            // 2^53 is an integer, so those draws hit it exactly).
            let mut probes = draws;
            probes.extend([0, DRAW_MAX]);
            for &c in cdf {
                let at = (c / DRAW_SCALE) as u64;
                probes.extend([at.saturating_sub(1), at, at + 1].map(|x| x.min(DRAW_MAX)));
            }
            for &x in &probes {
                let u = x as f64 * DRAW_SCALE;
                prop_assert_eq!(rows.sample(0, x), sample_from_cdf(cdf, u), "n={} x={}", n, x);
            }

            // The per-slot pass addresses each packet as the per-draw
            // sampler would, ties and zero-rate outputs included, and leaves
            // the input alone.
            let mut packets = vec![Packet::new(0, 0, 0, 0); probes.len()];
            rows.resolve(&mut packets, &probes);
            for (packet, &x) in packets.iter().zip(&probes) {
                let u = x as f64 * DRAW_SCALE;
                prop_assert_eq!(packet.input(), 0);
                prop_assert_eq!(packet.output(), sample_from_cdf(cdf, u), "n={} x={}", n, x);
            }
        }
    }
}
