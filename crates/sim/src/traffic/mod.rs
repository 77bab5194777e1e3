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
use sprinklers_core::packet::Packet;
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
/// binary search: the sampler's exact path and the tests' oracle.  On a
/// draw equal to a run of duplicate values (zero-rate outputs) the search
/// itself decides, so it is also the tie-breaker every pick must match.
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

/// Row `input`'s destination CDF, conditioned on an arrival there, into
/// `cdf`: `cdf[j] = Σ_{k≤j} rate(k) / load` for `j < n − 1`, where `load` is
/// the row's [`TrafficMatrix::input_load`], and the last value forced to 1.
/// An idle row (load 0) is all zeros up to that 1.
fn fill_row_cdf(matrix: &TrafficMatrix, input: usize, load: f64, cdf: &mut Vec<f64>) {
    let n = matrix.n();
    cdf.clear();
    let mut acc = 0.0;
    for j in 0..n - 1 {
        if load > 0.0 {
            acc += matrix.rate(input, j) / load;
        }
        cdf.push(acc);
    }
    cdf.push(1.0);
}

/// Picks each arrival's destination from its input's row of a rate matrix:
/// for every 53-bit draw, the output the binary search over the row's CDF
/// ([`sample_from_cdf`] after [`fill_row_cdf`]) picks.
///
/// A matrix stored as one distinguished entry per row
/// ([`TrafficMatrix::one_entry_per_row`]: uniform, diagonal, hot-spot, and
/// with them every spec-built Bernoulli, bursty and flows generator) is
/// sampled in closed form at two floats per row.  Row `i`'s hot column is
/// `h = (i + shift) mod n`; its CDF terms are `A = hot / load` at `h` and
/// `B = rest / load` everywhere else — the very quotients [`fill_row_cdf`]
/// adds — so in exact arithmetic its CDF is `(j + 1)·B` for `j < h` and
/// `j·B + A` for `h ≤ j < n − 1`, and the destination is found with a
/// division instead of a search.
///
/// The row's real values are those sums rounded once per addition, at most
/// `n − 1` roundings of a value below 2, so each lies within `n · 2⁻⁵³` of
/// its exact value; evaluating the closed form rounds at most twice more.  A
/// pick is therefore taken only when `u` lies farther than
/// `(n + 4) · 2⁻⁵²` — more than twice that — from both neighbouring
/// closed-form values: then the real value below it is `< u` and the one at
/// it is `> u`, which is exactly when the binary search picks it too.
///
/// Every other draw takes the exact path, which rebuilds the row from the
/// matrix into `scratch` and runs the binary search: a draw on or within a
/// few ulps of a CDF value (about one in 2³¹ at n = 1 024), every tie of a
/// zero-rate run, and every draw from any other (dense) matrix.
pub(crate) struct RowSampler {
    n: usize,
    shift: usize,
    /// Per input: its offered load (row sum).
    loads: Vec<f64>,
    /// Per input: `[A, B]` of a matrix stored one entry per row; empty for
    /// any other matrix.
    rows: Vec<[f64; 2]>,
    /// `(n + 4) · 2⁻⁵²`.
    margin: f64,
    /// One row's CDF, rebuilt for each draw the closed form cannot call.
    scratch: Vec<f64>,
}

impl RowSampler {
    /// The sampler for `matrix`, which every later [`Self::resolve`] call
    /// must pass back.  (The closed form's error bound needs non-negative
    /// rates, which every admissible matrix has.)
    pub(crate) fn new(matrix: &TrafficMatrix) -> Self {
        let n = matrix.n();
        let loads: Vec<f64> = (0..n).map(|input| matrix.input_load(input)).collect();
        let (shift, rows) = match matrix.one_entry_per_row() {
            Some((shift, hot, rest)) if hot >= 0.0 && rest >= 0.0 => {
                // `fill_row_cdf` adds nothing to an idle row.
                let row = |&load: &f64| {
                    if load > 0.0 {
                        [hot / load, rest / load]
                    } else {
                        [0.0, 0.0]
                    }
                };
                (shift, loads.iter().map(row).collect())
            }
            _ => (0, Vec::new()),
        };
        RowSampler {
            n,
            shift,
            loads,
            rows,
            margin: (n + 4) as f64 * f64::EPSILON,
            scratch: Vec::with_capacity(n),
        }
    }

    /// Offered load of `input` (its row sum).
    pub(crate) fn load(&self, input: usize) -> f64 {
        self.loads[input]
    }

    /// Address a slot's new arrivals: packet `k` goes where the binary
    /// search over its input's row of `matrix` sends `draws[k]`.
    ///
    /// The seeded generators draw a slot first, pushing each arrival with a
    /// placeholder output and keeping its destination draw, and call this
    /// once after their draw loop.  Sampling inside that loop would put the
    /// sampler's loads on the RNG's dependency chain; here every packet's
    /// lookups are independent of the others', so they overlap.  Which
    /// draws are made, and in which order, is unaffected.
    // lint: hot-path
    pub(crate) fn resolve(
        &mut self,
        matrix: &TrafficMatrix,
        packets: &mut [Packet],
        draws: &[u64],
    ) {
        debug_assert_eq!(packets.len(), draws.len());
        for (packet, &draw) in packets.iter_mut().zip(draws) {
            let input = packet.input();
            packet.set_ports(input, self.sample(matrix, input, draw));
        }
    }

    /// The destination the binary search picks for `u = draw · 2^-53`, for
    /// every 53-bit `draw`.
    #[inline]
    fn sample(&mut self, matrix: &TrafficMatrix, input: usize, draw: u64) -> usize {
        let u = draw as f64 * DRAW_SCALE;
        match self.pick(input, u) {
            Some(k) => k,
            None => self.exact(matrix, input, u),
        }
    }

    /// The destination for `u` read off the closed-form CDF, or `None` when
    /// the matrix has no closed form or `u` lies within the error margin of
    /// a neighbouring CDF value.
    #[inline]
    fn pick(&self, input: usize, u: f64) -> Option<usize> {
        let n = self.n;
        let &[a, b] = self.rows.get(input)?;
        let h = input + self.shift;
        let h = if h >= n { h - n } else { h };
        let cdf = |j: usize| {
            if j < h {
                (j + 1) as f64 * b
            } else if j < n - 1 {
                j as f64 * b + a
            } else {
                1.0
            }
        };
        // A candidate only: the checks below decide.  `as` saturates, and
        // maps the NaN of an idle row's `0 / 0` to 0.
        let k = if u < h as f64 * b + a {
            ((u / b) as usize).min(h)
        } else {
            (((u - a) / b + 1.0) as usize).min(n - 1)
        };
        let clear_below = k == 0 || cdf(k - 1) + self.margin < u;
        let clear_above = k == n - 1 || u < cdf(k) - self.margin;
        (clear_below && clear_above).then_some(k)
    }

    /// The binary search's pick for `u` over row `input`, rebuilt from
    /// `matrix`.
    #[cold]
    fn exact(&mut self, matrix: &TrafficMatrix, input: usize, u: f64) -> usize {
        fill_row_cdf(matrix, input, self.loads[input], &mut self.scratch);
        sample_from_cdf(&self.scratch, u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const DRAW_MAX: u64 = (1 << 53) - 1;

    /// Row `input`'s CDF as the exact path builds it.
    fn row_cdf(matrix: &TrafficMatrix, input: usize) -> Vec<f64> {
        let mut cdf = Vec::new();
        fill_row_cdf(matrix, input, matrix.input_load(input), &mut cdf);
        cdf
    }

    /// The draws at and one either side of every value of `cdf` (at and
    /// above 1/2 a CDF value times 2^53 is an integer, so those draws hit it
    /// exactly).
    fn around_each_value(cdf: &[f64]) -> impl Iterator<Item = u64> + '_ {
        cdf.iter().flat_map(|&c| {
            let at = (c / DRAW_SCALE) as u64;
            [at.saturating_sub(1), at, at + 1].map(|x| x.min(DRAW_MAX))
        })
    }

    /// Assert that two generators emit the same `(slot, input, output,
    /// flow)` tuples over their first `slots` slots.
    pub(crate) fn assert_same_stream(
        a: &mut dyn TrafficGenerator,
        b: &mut dyn TrafficGenerator,
        slots: u64,
    ) {
        let tuple = |p: &Packet| (p.arrival_slot, p.input(), p.output(), p.flow);
        for slot in 0..slots {
            let (pa, pb) = (a.arrivals(slot), b.arrivals(slot));
            assert!(pa.iter().map(tuple).eq(pb.iter().map(tuple)), "slot {slot}");
        }
    }

    /// A dense copy of a matrix stored one entry per row: every entry the
    /// same `f64`, but no closed form.
    pub(crate) fn dense_copy(matrix: &TrafficMatrix) -> TrafficMatrix {
        let dense = matrix.scaled(1.0);
        assert!(dense.one_entry_per_row().is_none());
        assert_eq!(&dense, matrix);
        dense
    }

    /// Random draws, both ends of the range, and the draws on and beside
    /// every value of `cdf`, each once.
    fn probes(draws: &[u64], cdf: &[f64]) -> Vec<u64> {
        let mut probes = draws.to_vec();
        probes.extend([0, DRAW_MAX]);
        probes.extend(around_each_value(cdf));
        probes.sort_unstable();
        probes.dedup();
        probes
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
        let matrix = TrafficMatrix::diagonal(8, 0.8);
        let cdf = row_cdf(&matrix, 3);
        assert!((matrix.input_load(3) - 0.8).abs() < 1e-12);
        assert_eq!(cdf.len(), 8);
        assert!((cdf[7] - 1.0).abs() < 1e-12);
        // The diagonal entry owns half the probability mass.
        assert!((cdf[3] - cdf[2] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn row_cdf_of_idle_input_is_all_zero_probability() {
        let matrix = TrafficMatrix::zero(4);
        let rows = RowSampler::new(&matrix);
        assert_eq!(rows.load(0), 0.0);
        assert_eq!(threshold(rows.load(0)), 0);
        assert_eq!(row_cdf(&matrix, 0), [0.0, 0.0, 0.0, 1.0]);
        // A dense matrix has no closed form: every draw is exact.
        assert!(rows.rows.is_empty());
    }

    #[test]
    fn only_non_negative_one_entry_per_row_matrices_get_the_closed_form() {
        for matrix in [
            TrafficMatrix::uniform(8, 0.5),
            TrafficMatrix::diagonal(8, 0.0),
            TrafficMatrix::hotspot(8, 0.9, 1.0),
        ] {
            assert_eq!(RowSampler::new(&matrix).rows.len(), 8);
            assert!(RowSampler::new(&dense_copy(&matrix)).rows.is_empty());
        }
        // A negative rate voids the closed form's error bound.
        let negative = TrafficMatrix::uniform(8, -0.5);
        assert!(negative.one_entry_per_row().is_some());
        assert!(RowSampler::new(&negative).rows.is_empty());
    }

    #[test]
    fn exact_ties_defer_to_the_binary_search() {
        // Row 0 sums to exactly 1, so its CDF is the dyadic
        // [0.25, 0.25, 0.25, 0.5, 1] and draws can land on it exactly.
        let mut matrix = TrafficMatrix::zero(5);
        for (j, rate) in [0.25, 0.0, 0.0, 0.25, 0.5].into_iter().enumerate() {
            matrix.set(0, j, rate);
        }
        let cdf = row_cdf(&matrix, 0);
        assert_eq!(cdf, [0.25, 0.25, 0.25, 0.5, 1.0]);
        let mut rows = RowSampler::new(&matrix);
        let (quarter, half) = (1u64 << 51, 1u64 << 52);
        for tie in [quarter, half] {
            let u = tie as f64 * DRAW_SCALE;
            assert!(cdf.contains(&u));
            assert_eq!(rows.sample(&matrix, 0, tie), sample_from_cdf(&cdf, u));
        }
        // Off a tie the zero-probability outputs 1 and 2 are never picked.
        assert_eq!(rows.sample(&matrix, 0, 0), 0);
        assert_eq!(rows.sample(&matrix, 0, quarter - 1), 0);
        assert_eq!(rows.sample(&matrix, 0, quarter + 1), 3);
        assert_eq!(rows.sample(&matrix, 0, half + 1), 4);
        assert_eq!(rows.sample(&matrix, 0, DRAW_MAX), 4);
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

        /// Both ways a row is sampled, through the per-slot pass: a dense
        /// matrix whose first row has runs of zero-rate outputs and whose
        /// last row is all zeros (every draw exact), and the one-entry-per-row
        /// matrices (closed form, exact on near-ties).
        #[test]
        fn sampler_matches_the_binary_search_oracle(
            size in 0usize..4,
            shape in 0usize..4,
            raw in collection::vec(0u32..8, 1000),
            rho in 0.0f64..1.0,
            draws in collection::vec(0u64..=DRAW_MAX, 64),
        ) {
            let n = [2, 3, 64, 1000][size];
            let matrix = match shape {
                0 => {
                    // Half the weights are 0, so the CDF has runs of
                    // duplicate values.
                    let mut weights: Vec<u32> =
                        raw[..n].iter().map(|w| w.saturating_sub(3)).collect();
                    if weights.iter().all(|&w| w == 0) {
                        weights[n / 2] = 1;
                    }
                    // A load that makes `rate / load` inexact.
                    let total: u32 = weights.iter().sum();
                    let mut matrix = TrafficMatrix::zero(n);
                    for (j, &w) in weights.iter().enumerate() {
                        matrix.set(0, j, 0.7 * f64::from(w) / f64::from(total));
                    }
                    matrix
                }
                1 => TrafficMatrix::uniform(n, rho),
                2 => TrafficMatrix::diagonal(n, rho),
                _ => TrafficMatrix::hotspot(n, rho, 1.0),
            };
            let mut rows = RowSampler::new(&matrix);
            prop_assert_eq!(rows.rows.is_empty(), shape == 0);
            for input in [0, n - 1] {
                let cdf = row_cdf(&matrix, input);
                let probes = probes(&draws, &cdf);
                let mut packets = vec![Packet::new(input, 0, 0, 0); probes.len()];
                rows.resolve(&matrix, &mut packets, &probes);
                for (packet, &x) in packets.iter().zip(&probes) {
                    let u = x as f64 * DRAW_SCALE;
                    prop_assert_eq!(packet.input(), input);
                    prop_assert_eq!(
                        packet.output(),
                        sample_from_cdf(&cdf, u),
                        "n={} shape={} input={} x={}",
                        n, shape, input, x
                    );
                }
            }
        }
    }

    proptest! {
        // At n = 1 000 a case probes 9 000 draws on three rows, most of them
        // on the exact path.
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The closed form against the binary search over the row the exact
        /// path builds, on the first and last rows (the hot column of a
        /// hot-spot wraps at the last) and a random one.
        #[test]
        fn closed_form_matches_the_table(
            size in 0usize..6,
            pattern in 0usize..3,
            load_pick in 0usize..4,
            rho in 0.0f64..1.0,
            hot_pick in 0usize..3,
            hot in 0.0f64..1.0,
            random_row in 0usize..1000,
            draws in collection::vec(0u64..=DRAW_MAX, 64),
        ) {
            let n = [2, 3, 63, 64, 65, 1000][size];
            // 1.0 gives dyadic rows at a power-of-two n; the others make
            // `rate / load` inexact.
            let load = [1.0, 0.7, 0.01, rho][load_pick];
            let hot_fraction = [hot, 1.0, 0.0][hot_pick];
            let matrix = match pattern {
                0 => TrafficMatrix::uniform(n, load),
                1 => TrafficMatrix::diagonal(n, load),
                _ => TrafficMatrix::hotspot(n, load, hot_fraction),
            };
            let mut rows = RowSampler::new(&matrix);
            prop_assert_eq!(rows.rows.len(), n, "a synthetic matrix gets the closed form");
            let mut fallbacks = 0;
            for input in [0, n - 1, random_row % n] {
                prop_assert_eq!(rows.load(input).to_bits(), matrix.input_load(input).to_bits());
                let cdf = row_cdf(&matrix, input);
                for x in probes(&draws, &cdf) {
                    let u = x as f64 * DRAW_SCALE;
                    fallbacks += usize::from(rows.pick(input, u).is_none());
                    prop_assert_eq!(
                        rows.sample(&matrix, input, x),
                        sample_from_cdf(&cdf, u),
                        "n={} pattern={} load={} hot={} input={} x={}",
                        n, pattern, load, hot_fraction, input, x
                    );
                }
            }
            // Draws on a CDF value always miss the margin, so the exact
            // path has run.
            prop_assert!(fallbacks > 0);
        }
    }
}
