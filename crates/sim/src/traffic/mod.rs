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
/// [`first_at_least`]), and the tests keep it as the oracle.
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

/// The destination the table sampler picks for `u` from a row's CDF values:
/// the first value `≥ u`, scanning from `from` (which must not be past it).
/// That is the binary search's answer when the value is `> u`; when it
/// equals `u` — and only duplicate values (zero-rate outputs) make that
/// ambiguous — the binary search itself decides, so the two agree on ties as
/// well.
#[inline]
fn first_at_least(row: &[f64], from: usize, u: f64) -> usize {
    let mut k = from;
    // Ends at `n - 1` at the latest: the last CDF value is 1 and `u < 1`.
    while row[k] < u {
        k += 1;
    }
    if row[k] == u {
        return sample_from_cdf(row, u);
    }
    k
}

/// Row `input`'s destination CDF, conditioned on an arrival there:
/// `visit(j, cdf[j])` for every output `j` in order, where
/// `cdf[j] = Σ_{k≤j} rate(k) / load` for `j < n − 1` and the last value is
/// forced to 1.  Both sampler forms build rows with this one loop, so their
/// values cannot drift apart.
fn for_each_cdf_value(
    n: usize,
    load: f64,
    rate: impl Fn(usize) -> f64,
    mut visit: impl FnMut(usize, f64),
) {
    let mut acc = 0.0;
    for j in 0..n - 1 {
        if load > 0.0 {
            acc += rate(j) / load;
        }
        visit(j, acc);
    }
    visit(n - 1, 1.0);
}

/// Per-input loads and destination distributions of a rate matrix, laid out
/// for sampling.
///
/// A matrix stored as one distinguished entry per row
/// ([`TrafficMatrix::one_entry_per_row`]: uniform, diagonal, hot-spot, and
/// with them every spec-built Bernoulli, bursty and flows generator) is
/// sampled in closed form and costs three floats per row; any other matrix
/// gets a flat n² CDF table.  Both forms pick, for every 53-bit draw, the
/// destination the binary search over the row's CDF ([`sample_from_cdf`])
/// picks, so which form a matrix gets never changes a stream.
pub(crate) enum RowSampler {
    Table(CdfTable),
    OnePerRow(ClosedForm),
}

impl RowSampler {
    /// The closed form for a matrix stored as one entry per row, the table
    /// otherwise.  (The closed form's error bound needs non-negative rates,
    /// which every admissible matrix has.)
    pub(crate) fn new(matrix: &TrafficMatrix) -> Self {
        match matrix.one_entry_per_row() {
            Some((shift, hot, rest)) if hot >= 0.0 && rest >= 0.0 => {
                RowSampler::OnePerRow(ClosedForm::new(matrix, shift, hot, rest))
            }
            _ => RowSampler::Table(CdfTable::new(matrix)),
        }
    }

    /// Offered load of `input` (its row sum).
    pub(crate) fn load(&self, input: usize) -> f64 {
        match self {
            RowSampler::Table(table) => table.loads[input],
            RowSampler::OnePerRow(closed) => closed.rows[input][0],
        }
    }

    /// Address a slot's new arrivals: packet `k` goes where the binary
    /// search over its input's CDF sends `draws[k]`.
    ///
    /// The seeded generators draw a slot first, pushing each arrival with a
    /// placeholder output and keeping its destination draw, and call this
    /// once after their draw loop.  Sampling inside that loop would put the
    /// sampler's loads on the RNG's dependency chain — with the table, two
    /// dependent loads into n²-sized arrays, one likely cache miss after
    /// another; here every packet's lookups are independent of the others',
    /// so they overlap.  Which draws are made, and in which order, is
    /// unaffected.
    // lint: hot-path
    pub(crate) fn resolve(&mut self, packets: &mut [Packet], draws: &[u64]) {
        debug_assert_eq!(packets.len(), draws.len());
        let pairs = packets.iter_mut().zip(draws);
        // The form is matched once per slot, not once per packet.
        match self {
            RowSampler::Table(table) => {
                for (packet, &draw) in pairs {
                    let input = packet.input();
                    packet.set_ports(input, table.sample(input, draw));
                }
            }
            RowSampler::OnePerRow(closed) => {
                for (packet, &draw) in pairs {
                    let input = packet.input();
                    packet.set_ports(input, closed.sample(input, draw));
                }
            }
        }
    }
}

/// Every row's CDF in one flat table, plus a guide table that turns the top
/// bits of a draw into a starting index a step or two short of the answer.
///
/// The unit interval is cut into `buckets` equal parts, a power of two near
/// `n / 4`; `guide[b]` is the first index whose CDF value reaches the
/// bucket's lower edge `b / buckets`.  A draw's bucket is its top
/// `log2(buckets)` bits, the destination is at or after `guide[bucket]`, and
/// since buckets are equiprobable and a row has four entries per bucket, the
/// forward scan is about two steps on average whatever the distribution.
pub(crate) struct CdfTable {
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

impl CdfTable {
    /// Build the tables in one pass over the matrix: each CDF value is
    /// pushed once, and the guide is filled by merging the ascending bucket
    /// edges into the ascending CDF as it is produced.
    fn new(matrix: &TrafficMatrix) -> Self {
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
            let mut bucket = 0;
            let rate = |j| matrix.rate(input, j);
            for_each_cdf_value(n, load, rate, |j, value| {
                cdf.push(value);
                while bucket < buckets && bucket as f64 * bucket_width <= value {
                    guide.push(j as u16);
                    bucket += 1;
                }
            });
        }
        CdfTable {
            n,
            buckets,
            bucket_shift: 53 - buckets.trailing_zeros(),
            loads,
            cdf,
            guide,
        }
    }

    /// The destination CDF of `input`.
    fn row(&self, input: usize) -> &[f64] {
        &self.cdf[input * self.n..(input + 1) * self.n]
    }

    /// The destination the binary search picks for `u = draw · 2^-53`, for
    /// every 53-bit `draw`.
    #[inline]
    fn sample(&self, input: usize, draw: u64) -> usize {
        let bucket = (draw >> self.bucket_shift) as usize;
        let from = usize::from(self.guide[input * self.buckets + bucket]);
        first_at_least(self.row(input), from, draw as f64 * DRAW_SCALE)
    }
}

/// The rows of a matrix stored as one entry per row, sampled without a
/// table.
///
/// Row `i`'s hot column is `h = (i + shift) mod n`.  Its CDF terms are
/// `A = hot / load` at `h` and `B = rest / load` everywhere else — the very
/// quotients the table's loop adds — so in exact arithmetic its CDF is
/// `(j + 1)·B` for `j < h` and `j·B + A` for `h ≤ j < n − 1`, and the
/// destination is found with a division instead of a scan.
///
/// The table's values are those sums rounded once per addition, at most
/// `n − 1` roundings of a value below 2, so each lies within `n · 2⁻⁵³` of
/// its exact value; evaluating the closed form rounds at most twice more.  A
/// pick is therefore taken only when `u` lies farther than
/// `(n + 4) · 2⁻⁵²` — more than twice that — from both neighbouring closed-form
/// values: then the table's value below it is `< u` and the one at it is
/// `> u`, which is exactly when the table sampler picks it too.  Otherwise
/// (a draw on or within a few ulps of a CDF value, about one in 2³¹ at
/// n = 1 024, or every tie of a zero-rate run) the row is rebuilt into
/// `scratch` by the table's own loop and the table's rule applied to it.
pub(crate) struct ClosedForm {
    n: usize,
    shift: usize,
    hot: f64,
    rest: f64,
    /// Per input: `[load, A, B]`.
    rows: Vec<[f64; 3]>,
    /// `(n + 4) · 2⁻⁵²`.
    margin: f64,
    /// One row's CDF, rebuilt when a pick is too close to call.
    scratch: Vec<f64>,
}

impl ClosedForm {
    /// The rows of `matrix`, whose entries are `hot` at `(i, (i + shift) mod
    /// n)` and `rest` elsewhere.
    fn new(matrix: &TrafficMatrix, shift: usize, hot: f64, rest: f64) -> Self {
        let n = matrix.n();
        let rows = (0..n)
            .map(|input| {
                let load = matrix.input_load(input);
                // The table's loop adds nothing to an idle row.
                if load > 0.0 {
                    [load, hot / load, rest / load]
                } else {
                    [load, 0.0, 0.0]
                }
            })
            .collect();
        ClosedForm {
            n,
            shift,
            hot,
            rest,
            rows,
            margin: (n + 4) as f64 * f64::EPSILON,
            scratch: Vec::with_capacity(n),
        }
    }

    /// Row `input`'s hot column.
    #[inline]
    fn hot_column(&self, input: usize) -> usize {
        let h = input + self.shift;
        if h >= self.n {
            h - self.n
        } else {
            h
        }
    }

    /// The destination the binary search picks for `u = draw · 2^-53`, for
    /// every 53-bit `draw`.
    #[inline]
    fn sample(&mut self, input: usize, draw: u64) -> usize {
        let u = draw as f64 * DRAW_SCALE;
        match self.pick(input, u) {
            Some(k) => k,
            None => self.exact(input, u),
        }
    }

    /// The destination for `u` read off the closed-form CDF, or `None` when
    /// `u` lies within the error margin of a neighbouring CDF value.
    #[inline]
    fn pick(&self, input: usize, u: f64) -> Option<usize> {
        let n = self.n;
        let [_, a, b] = self.rows[input];
        let h = self.hot_column(input);
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

    /// The table sampler's pick for `u`, from row `input` rebuilt by the
    /// table's loop.
    #[cold]
    fn exact(&mut self, input: usize, u: f64) -> usize {
        let (h, hot, rest) = (self.hot_column(input), self.hot, self.rest);
        let rate = |j| if j == h { hot } else { rest };
        self.scratch.clear();
        for_each_cdf_value(self.n, self.rows[input][0], rate, |_, value| {
            self.scratch.push(value);
        });
        first_at_least(&self.scratch, 0, u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const DRAW_MAX: u64 = (1 << 53) - 1;

    /// A table whose row 0 has the given relative weights (the other rows
    /// are idle), at a load that makes `rate / load` inexact.
    fn sampler_for(weights: &[u32]) -> CdfTable {
        let n = weights.len();
        let total: u32 = weights.iter().sum();
        let mut matrix = TrafficMatrix::zero(n);
        for (j, &w) in weights.iter().enumerate() {
            matrix.set(0, j, 0.7 * f64::from(w) / f64::from(total));
        }
        CdfTable::new(&matrix)
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
        let rows = CdfTable::new(&TrafficMatrix::diagonal(8, 0.8));
        let (load, cdf) = (rows.loads[3], rows.row(3));
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
        assert_eq!(threshold(rows.load(0)), 0);
        let RowSampler::Table(table) = rows else {
            panic!("a zero matrix is dense");
        };
        assert_eq!(table.row(0), [0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn guide_points_at_the_first_value_reaching_each_bucket_edge() {
        let rows = CdfTable::new(&TrafficMatrix::hotspot(64, 0.9, 0.6));
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
        let rows = CdfTable::new(&matrix);
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
            let table = sampler_for(&weights);
            let cdf = table.row(0).to_vec();

            // Random draws, both ends of the range, and the draws on and
            // beside every CDF value.
            let mut probes = draws;
            probes.extend([0, DRAW_MAX]);
            probes.extend(around_each_value(&cdf));
            for &x in &probes {
                let u = x as f64 * DRAW_SCALE;
                prop_assert_eq!(table.sample(0, x), sample_from_cdf(&cdf, u), "n={} x={}", n, x);
            }

            // The per-slot pass addresses each packet as the per-draw
            // sampler would, ties and zero-rate outputs included, and leaves
            // the input alone.
            let mut packets = vec![Packet::new(0, 0, 0, 0); probes.len()];
            RowSampler::Table(table).resolve(&mut packets, &probes);
            for (packet, &x) in packets.iter().zip(&probes) {
                let u = x as f64 * DRAW_SCALE;
                prop_assert_eq!(packet.input(), 0);
                prop_assert_eq!(packet.output(), sample_from_cdf(&cdf, u), "n={} x={}", n, x);
            }
        }
    }

    proptest! {
        // At n = 1 000 a case probes 9 000 draws on three rows, most of them
        // on the exact path.
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The closed form against the table, both built from the same
        /// synthetic matrix, on its first and last rows (the hot column of
        /// a hot-spot wraps at the last) and a random one.
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
            let table = CdfTable::new(&matrix);
            let mut sampler = RowSampler::new(&matrix);
            let RowSampler::OnePerRow(mut closed) = RowSampler::new(&matrix) else {
                panic!("a synthetic matrix gets the closed form");
            };
            let mut fallbacks = 0;
            for input in [0, n - 1, random_row % n] {
                prop_assert_eq!(closed.rows[input][0].to_bits(), table.loads[input].to_bits());
                let cdf = table.row(input);
                let mut probes = draws.clone();
                probes.extend([0, DRAW_MAX]);
                probes.extend(around_each_value(cdf));
                for &x in &probes {
                    let u = x as f64 * DRAW_SCALE;
                    fallbacks += usize::from(closed.pick(input, u).is_none());
                    let want = table.sample(input, x);
                    prop_assert_eq!(want, sample_from_cdf(cdf, u), "n={} x={}", n, x);
                    prop_assert_eq!(
                        closed.sample(input, x),
                        want,
                        "n={} pattern={} load={} hot={} input={} x={}",
                        n, pattern, load, hot_fraction, input, x
                    );
                }
                let mut packets = vec![Packet::new(input, 0, 0, 0); probes.len()];
                sampler.resolve(&mut packets, &probes);
                for (packet, &x) in packets.iter().zip(&probes) {
                    prop_assert_eq!(packet.output(), table.sample(input, x));
                }
            }
            // Draws on a CDF value always miss the margin, so the exact
            // path has run.
            prop_assert!(fallbacks > 0);
        }
    }
}
