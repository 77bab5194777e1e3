//! Order statistics over a workload's reps.
//!
//! Every timing is reported as its median with min, quartiles, max and the
//! rep count.  At the rep counts a run affords (5 to a few dozen) no
//! percentile above the median has ten samples beyond it, so none is
//! printed.

/// Median of `values` (mean of the two middle values for an even count;
/// NaN for an empty slice).
pub(crate) fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so
/// the spreads printed here are the ones the acceptance rule is stated in.
/// A single value is its own quartiles.
pub(crate) fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The five-number summary of one metric's reps, plus the reps themselves
/// (the `compare` rule "every B rep beats every A rep" needs them).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Summary {
    pub(crate) min: f64,
    pub(crate) q1: f64,
    pub(crate) median: f64,
    pub(crate) q3: f64,
    pub(crate) max: f64,
    pub(crate) samples: Vec<f64>,
}

impl Summary {
    pub(crate) fn of(samples: Vec<f64>) -> Self {
        let (q1, q3) = quartiles(&samples);
        Summary {
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            q1,
            median: median(&samples),
            q3,
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            samples,
        }
    }

    /// A metric that is one exact value, not a sample of reps.
    pub(crate) fn exact(value: f64) -> Self {
        Summary::of(vec![value])
    }

    /// Distance between the quartiles as a share of the median.
    pub(crate) fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7], n=4) == [2.0, 4.0, 6.0]
        assert_eq!(quartiles(&[7.0, 1.0, 4.0, 2.0, 6.0, 3.0, 5.0]), (2.0, 6.0));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[10.0, 20.0, 40.0]), (10.0, 40.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn summary_orders_its_five_numbers() {
        let s = Summary::of(vec![2.0, 9.0, 4.0, 6.0, 5.0]);
        assert_eq!((s.min, s.median, s.max), (2.0, 5.0, 9.0));
        assert!(s.min <= s.q1 && s.q1 <= s.median && s.median <= s.q3 && s.q3 <= s.max);
        assert_eq!(s.samples.len(), 5);
        assert!((s.spread() - (s.q3 - s.q1) / 5.0).abs() < 1e-12);
        assert_eq!(Summary::exact(3.5).spread(), 0.0);
    }
}
