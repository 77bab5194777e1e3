//! Offline shim for the subset of the `proptest` 1.x API used by this
//! workspace.
//!
//! A real property test: each `proptest!` test body runs for a fixed number
//! of cases (64 by default, override with the `PROPTEST_CASES` environment
//! variable) with inputs drawn from the declared strategies.  The RNG seed is
//! derived from the test's name, so runs are deterministic and failures
//! reproduce; on failure the offending case index is part of the panic
//! message.
//!
//! Supported strategy surface: integer and float ranges, tuples of
//! strategies, and [`collection::vec`] with a fixed or ranged length — the
//! subset the workspace's tests use.  `prop_assert!`, `prop_assert_eq!` and
//! `prop_assume!` behave like the real macros (assumption failures skip the
//! case rather than failing the test).

#![forbid(unsafe_code)]

/// The case generator: xoshiro256++ seeded through SplitMix64 — a private
/// copy of the simulator's `sprinklers_core::rng::SimRng`, which this crate
/// cannot depend on (the simulator's crates dev-depend on this one).  Same
/// stream, so every property test keeps drawing the cases it always drew.
#[derive(Debug, Clone)]
pub struct CaseRng {
    s: [u64; 4],
}

impl CaseRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut state = seed;
        CaseRng {
            s: [(); 4].map(|()| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            }),
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform integer in `0..bound` (Lemire's method with rejection).
    fn below(&mut self, bound: u64) -> u64 {
        let zone = bound.wrapping_neg() % bound;
        loop {
            let m = u128::from(self.next_u64()) * u128::from(bound);
            if m as u64 >= zone {
                return (m >> 64) as u64;
            }
        }
    }
}

/// Error type carried by `prop_assert!`-style macros.
#[derive(Debug, Clone)]
pub struct TestCaseError {
    /// Human-readable failure (or rejection) message.
    pub message: String,
    /// True when the case was *rejected* (via `prop_assume!`), not failed.
    pub rejected: bool,
}

impl TestCaseError {
    /// A failed assertion.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError {
            message: message.into(),
            rejected: false,
        }
    }

    /// A rejected case (unsatisfied assumption).
    pub fn reject(message: impl Into<String>) -> Self {
        TestCaseError {
            message: message.into(),
            rejected: true,
        }
    }
}

/// Something that can generate values for a property test.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut CaseRng) -> Self::Value;
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut CaseRng) -> $t {
                assert!(self.start < self.end, "cannot sample from an empty range");
                self.start + rng.below((self.end - self.start) as u64) as $t
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut CaseRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample from an empty range");
                match ((hi - lo) as u64).checked_add(1) {
                    Some(span) => lo + rng.below(span) as $t,
                    None => lo + rng.next_u64() as $t,
                }
            }
        }
    )*};
}

int_range_strategy!(usize, u64, u32, i64, i32);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut CaseRng) -> f64 {
        assert!(self.start < self.end, "cannot sample from an empty range");
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + unit * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut CaseRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{CaseRng, Strategy};

    /// Length specification for [`vec`]: a fixed `usize` or a `Range<usize>`.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_exclusive: n + 1,
            }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_exclusive: r.end,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi_exclusive: *r.end() + 1,
            }
        }
    }

    /// Strategy producing `Vec`s of values from an element strategy.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut CaseRng) -> Self::Value {
            let len = if self.size.lo + 1 == self.size.hi_exclusive {
                self.size.lo
            } else {
                (self.size.lo..self.size.hi_exclusive).generate(rng)
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `proptest::collection::vec(element, size)`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Per-block configuration, like `proptest::test_runner::Config`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases to run per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// Configuration running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Drives the cases of one property test.
pub struct TestRunner {
    rng: CaseRng,
    cases: u32,
    name: &'static str,
}

impl TestRunner {
    /// Create a runner seeded from the test name (deterministic).
    pub fn new(name: &'static str) -> Self {
        Self::with_config(name, None)
    }

    /// Create a runner with an explicit configuration (the `PROPTEST_CASES`
    /// environment variable still takes precedence, as in real proptest).
    pub fn with_config(name: &'static str, config: Option<ProptestConfig>) -> Self {
        let mut seed = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
        for b in name.bytes() {
            seed ^= u64::from(b);
            seed = seed.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| config.unwrap_or_default().cases);
        TestRunner {
            rng: CaseRng::seed_from_u64(seed),
            cases,
            name,
        }
    }

    /// Number of cases to run.
    pub fn cases(&self) -> u32 {
        self.cases
    }

    /// The RNG for drawing the next case's inputs.
    pub fn rng(&mut self) -> &mut CaseRng {
        &mut self.rng
    }

    /// React to one case's outcome: panic on failure, ignore rejections.
    pub fn handle(&self, case: u32, result: Result<(), TestCaseError>) {
        if let Err(e) = result {
            if !e.rejected {
                panic!(
                    "proptest case {case} of '{}' failed: {}",
                    self.name, e.message
                );
            }
        }
    }
}

/// Common imports, like `proptest::prelude::*`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, ProptestConfig,
        Strategy, TestCaseError, TestRunner,
    };
}

/// Declare property tests, like `proptest::proptest!`.
#[macro_export]
macro_rules! proptest {
    (@config ($config:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let mut runner =
                $crate::TestRunner::with_config(stringify!($name), Some($config));
            for case in 0..runner.cases() {
                $(let $arg = $crate::Strategy::generate(&($strategy), runner.rng());)+
                let outcome: ::core::result::Result<(), $crate::TestCaseError> =
                    (|| { $body Ok(()) })();
                runner.handle(case, outcome);
            }
        }
    )*};
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest! { @config ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::proptest! { @config ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Like `assert!`, but returns a [`TestCaseError`] so the runner can report
/// the failing case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(concat!(
                "assertion failed: ",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Like `assert_eq!` for property tests.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {:?} == {:?}",
                l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {:?} == {:?}: {}",
                l,
                r,
                format!($($fmt)*)
            )));
        }
    }};
}

/// Like `assert_ne!` for property tests.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {:?} != {:?}",
                l, r
            )));
        }
    }};
}

/// Skip cases whose inputs do not satisfy an assumption.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::reject(concat!(
                "assumption failed: ",
                stringify!($cond)
            )));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_respect_bounds(x in 0usize..10, y in 0.0f64..1.0) {
            prop_assert!(x < 10);
            prop_assert!((0.0..1.0).contains(&y));
        }

        #[test]
        fn tuples_and_vecs_compose(v in collection::vec((0usize..8, 0usize..4), 1..20)) {
            prop_assert!(!v.is_empty() && v.len() < 20);
            for (a, b) in v {
                prop_assert!(a < 8 && b < 4);
            }
        }

        #[test]
        fn fixed_size_vec_is_exact(v in collection::vec(0.01f64..1.0, 32)) {
            prop_assert_eq!(v.len(), 32);
        }

        #[test]
        fn assume_skips_cases(x in 0usize..4) {
            prop_assume!(x != 1);
            prop_assert_ne!(x, 1);
        }
    }

    /// The copy has not drifted from `SimRng`: seed 2014 starts with the
    /// words that `sprinklers_core::rng`'s stream pin freezes.
    #[test]
    fn same_seed_same_stream() {
        let mut rng = crate::CaseRng::seed_from_u64(2014);
        let words = [0xc804_6072_714b_0034, 0x1b57_3798_43e4_b788];
        assert_eq!(words.map(|_| rng.next_u64()), words);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = crate::CaseRng::seed_from_u64(1);
        let mut b = crate::CaseRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn f64_is_in_unit_interval_and_roughly_uniform() {
        let mut rng = crate::CaseRng::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = (0.0f64..1.0).generate(&mut rng);
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn gen_range_covers_inclusive_bounds() {
        let mut rng = crate::CaseRng::seed_from_u64(3);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[(0usize..=4).generate(&mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values of 0..=4 should occur");
    }

    #[test]
    fn gen_range_exclusive_never_hits_end() {
        let mut rng = crate::CaseRng::seed_from_u64(9);
        for _ in 0..1000 {
            assert!((0usize..3).generate(&mut rng) < 3);
        }
    }

    #[test]
    fn runner_is_deterministic_per_name() {
        let mut a = TestRunner::new("some_test");
        let mut b = TestRunner::new("some_test");
        assert_eq!(a.rng().next_u64(), b.rng().next_u64());
    }

    #[test]
    #[should_panic(expected = "proptest case")]
    fn failures_panic_with_case_number() {
        proptest! {
            #[allow(unused)]
            fn always_fails(x in 0usize..2) {
                prop_assert!(x > 100, "x was {x}");
            }
        }
        always_fails();
    }
}
