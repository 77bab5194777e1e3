//! Offline shim for the subset of the `rand` 0.8 API used by this workspace.
//!
//! Provides [`RngCore`], [`Rng`], [`SeedableRng`] and [`rngs::StdRng`].  The
//! generator is xoshiro256++ seeded through SplitMix64, which is the standard
//! seeding recipe and gives high-quality 64-bit output — more than enough for
//! simulation workloads.  The stream differs from the real `StdRng` (ChaCha12),
//! so seeds are reproducible *within* this shim but not across it and the real
//! crate; none of the workspace's tests depend on the exact stream.

#![forbid(unsafe_code)]

/// The core of a random number generator: a source of 64-bit words.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Types that can be sampled uniformly from an `RngCore` (the shim's
/// equivalent of `rand::distributions::Standard` sampling).
pub trait Sample: Sized {
    /// Draw one uniformly distributed value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Sample for f64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Sample for f32 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Sample for u64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Sample for u32 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Sample for usize {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Sample for bool {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges that can be sampled uniformly (the shim's `SampleRange`).
pub trait SampleRange<T> {
    /// Draw one value uniformly from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from an empty range");
                let span = (self.end - self.start) as u64;
                self.start + (uniform_u64(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample from an empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return lo + (rng.next_u64() as $t);
                }
                lo + (uniform_u64(rng, span + 1) as $t)
            }
        }
    )*};
}

int_sample_range!(usize, u64, u32, i64, i32);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample from an empty range");
        self.start + f64::sample(rng) * (self.end - self.start)
    }
}

/// Uniform draw from `[0, span)` without modulo bias (Lemire's method with a
/// rejection step).
fn uniform_u64<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    loop {
        let x = rng.next_u64();
        let m = (x as u128) * (span as u128);
        let lo = m as u64;
        if lo >= span.wrapping_neg() % span {
            return (m >> 64) as u64;
        }
        // Rejected draw in the biased zone; resample (rare for small spans).
    }
}

/// High-level convenience methods, blanket-implemented for every `RngCore`.
pub trait Rng: RngCore {
    /// Sample a value of type `T` uniformly (e.g. `rng.gen::<f64>()`).
    fn gen<T: Sample>(&mut self) -> T {
        T::sample(self)
    }

    /// Sample uniformly from a range (e.g. `rng.gen_range(0..=i)`).
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// Bernoulli draw with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Seedable generators.
pub trait SeedableRng: Sized {
    /// Construct the generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard RNG: xoshiro256++ seeded through SplitMix64.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
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
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert!(same < 4);
    }

    #[test]
    fn f64_is_in_unit_interval_and_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = rng.gen::<f64>();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn gen_range_covers_inclusive_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            let v = rng.gen_range(0usize..=4);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values of 0..=4 should occur");
    }

    #[test]
    fn gen_range_exclusive_never_hits_end() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            assert!(rng.gen_range(0usize..3) < 3);
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!(
            (2_700..3_300).contains(&hits),
            "got {hits} of 10000 at p=0.3"
        );
    }
}
