//! Offline shim for the subset of the `rand` 0.8 API used by this workspace.
//!
//! The build container has no network access to crates.io, so the workspace
//! vendors a minimal, API-compatible stand-in instead of the real crate.  Only
//! the surface actually consumed by the workspace is provided:
//!
//! * [`RngCore`] / [`Rng`] with `gen::<f64>()`, `gen::<bool>()` and
//!   `gen_range` over integer and float ranges (half-open and inclusive);
//! * [`SeedableRng::seed_from_u64`];
//! * [`seq::SliceRandom::choose`].
//!
//! The statistical requirements of the workspace are modest (synthetic dataset
//! generation, k-means++ seeding, noise injection); determinism for a fixed
//! seed is the property the tests rely on, and every generator here is fully
//! deterministic.

/// Low-level source of random 64-bit words.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Values that can be sampled uniformly from an [`RngCore`] ("Standard"
/// distribution in real `rand` terms).
pub trait Standard: Sized {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges a value can be drawn uniformly from (`gen_range` argument).
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let offset = (rng.next_u64() as u128) % span;
                (self.start as i128 + offset as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = self.into_inner();
                assert!(start <= end, "empty range in gen_range");
                let span = (end as i128 - start as i128) as u128 + 1;
                let offset = (rng.next_u64() as u128) % span;
                (start as i128 + offset as i128) as $t
            }
        }
    )*};
}
impl_sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range in gen_range");
        let unit = f64::sample(rng);
        self.start + unit * (self.end - self.start)
    }
}

impl SampleRange<f64> for core::ops::RangeInclusive<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (start, end) = self.into_inner();
        assert!(start <= end, "empty range in gen_range");
        let unit = f64::sample(rng);
        start + unit * (end - start)
    }
}

/// The user-facing random number generator interface.
pub trait Rng: RngCore {
    /// Draws a value of type `T` from its standard distribution.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Draws a value uniformly from `range`.
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64::sample(self) < p
    }
}

impl<R: RngCore> Rng for R {}

/// Generators that can be constructed from a seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a deterministic function of `state`.
    fn seed_from_u64(state: u64) -> Self;
}

pub mod seq {
    //! Sequence-related helpers (`SliceRandom`).

    use super::RngCore;

    /// Extension trait for random operations on slices.
    pub trait SliceRandom {
        /// The element type.
        type Item;

        /// Returns a uniformly chosen element, or `None` if the slice is
        /// empty.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                let idx = (rng.next_u64() % self.len() as u64) as usize;
                Some(&self[idx])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::seq::SliceRandom;
    use super::{Rng, RngCore, SeedableRng};

    /// A small, fast, deterministic generator (SplitMix64).
    struct SmallRng {
        state: u64,
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(state: u64) -> Self {
            Self { state }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            // SplitMix64 (Steele, Lea, Flood 2014) — full 2^64 period.
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn unit_floats_are_in_range() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v: f64 = rng.gen();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let v = rng.gen_range(5usize..17);
            assert!((5..17).contains(&v));
            let w = rng.gen_range(-25i32..=35);
            assert!((-25..=35).contains(&w));
            let f = rng.gen_range(-2.0f64..3.0);
            assert!((-2.0..3.0).contains(&f));
        }
    }

    #[test]
    fn bools_hit_both_values() {
        let mut rng = SmallRng::seed_from_u64(3);
        let trues = (0..1000).filter(|_| rng.gen::<bool>()).count();
        assert!((300..700).contains(&trues), "trues = {trues}");
    }

    #[test]
    fn choose_covers_the_slice() {
        let mut rng = SmallRng::seed_from_u64(4);
        let items = [1, 2, 3, 4];
        let mut seen = [false; 4];
        for _ in 0..200 {
            let &v = items.choose(&mut rng).unwrap();
            seen[v - 1] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }
}
