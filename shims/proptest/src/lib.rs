//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this implements
//! the subset of the proptest API this workspace's property tests use:
//! the [`Strategy`](strategy::Strategy) trait with
//! `prop_map`/`prop_flat_map`, range and tuple strategies,
//! [`collection::vec`], [`arbitrary::any`], `Just`,
//! the `proptest!` test macro, `prop_assert!`/`prop_assert_eq!` and
//! [`test_runner::ProptestConfig`]. Cases are generated from a
//! deterministic per-test PRNG; there is **no shrinking** — a failure
//! reports the seed index, from which `TestRng::for_case` regenerates
//! the failing inputs exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod test_runner {
    //! Test configuration, errors and the deterministic generator.

    /// How many cases each `proptest!` test runs.
    #[derive(Clone, Copy, Debug)]
    pub struct ProptestConfig {
        /// Number of generated cases per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases per test.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// A failed (or rejected) test case.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        /// An assertion failed with this message.
        Fail(String),
        /// The case was rejected by a precondition.
        Reject(String),
    }

    impl TestCaseError {
        /// Builds a failure carrying `reason`.
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError::Fail(reason.into())
        }

        /// Builds a rejection carrying `reason`.
        pub fn reject(reason: impl Into<String>) -> Self {
            TestCaseError::Reject(reason.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TestCaseError::Fail(r) => write!(f, "{r}"),
                TestCaseError::Reject(r) => write!(f, "rejected: {r}"),
            }
        }
    }

    /// Deterministic splitmix64-based generator, seeded per test + case.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the generator for one `(test name, case index)` pair.
        pub fn for_case(test_name: &str, case: u32) -> Self {
            // FNV-1a over the fully qualified test name, mixed with case.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            TestRng {
                state: h ^ (u64::from(case).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            }
        }

        /// Next 64 uniformly random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            self.next_u64() % bound
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of type [`Strategy::Value`].
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transforms generated values with `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { base: self, f }
        }

        /// Feeds generated values into `f` to pick a dependent strategy.
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { base: self, f }
        }
    }

    /// Always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        base: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.base.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        base: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.base.generate(rng)).generate(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + rng.below(span) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo) as u64;
                    if span == u64::MAX {
                        return lo + rng.next_u64() as $t;
                    }
                    lo + rng.below(span + 1) as $t
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);
}

pub mod arbitrary {
    //! `any::<T>()` — full-domain strategies per type.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws one unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// Strategy returned by [`any`].
    pub struct AnyStrategy<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The full-domain strategy for `T`.
    pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
        AnyStrategy(PhantomData)
    }
}

pub mod collection {
    //! Collection strategies (`vec`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Inclusive bounds on a generated collection's length.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo
                + if span == 0 {
                    0
                } else {
                    rng.below(span + 1) as usize
                };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A strategy for `Vec`s whose elements come from `element` and whose
    /// length lies in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod prelude {
    //! The glob-import surface: traits, types and macros.

    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Asserts `cond`, returning `TestCaseError::Fail` instead of panicking.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Asserts `left == right`, returning `TestCaseError::Fail` on mismatch.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{:?}` == `{:?}`",
            left,
            right
        );
    }};
}

/// Asserts `left != right`, returning `TestCaseError::Fail` on equality.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `{:?}` != `{:?}`",
            left,
            right
        );
    }};
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that runs the body over generated cases.
#[macro_export]
macro_rules! proptest {
    ( #![proptest_config($config:expr)] $($rest:tt)* ) => {
        $crate::__proptest_items!(($config) $($rest)*);
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_items!(
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        );
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($config:expr) ) => {};
    ( ($config:expr)
      $(#[$meta:meta])*
      fn $name:ident ( $($arg:ident in $strategy:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $config;
            // Rejected cases are retried with fresh inputs (distinct seed
            // per attempt), so preconditions cannot hollow out coverage;
            // too many rejections is itself a failure, as in real proptest.
            let max_attempts = config.cases.saturating_mul(16).max(16);
            let mut passed: u32 = 0;
            let mut attempt: u32 = 0;
            while passed < config.cases {
                if attempt >= max_attempts {
                    panic!(
                        "property `{}` rejected too many inputs: {} of {} attempts \
                         passed before the {}-attempt cap",
                        stringify!($name),
                        passed,
                        attempt,
                        max_attempts,
                    );
                }
                let seed_index = attempt;
                let mut rng = $crate::test_runner::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    seed_index,
                );
                attempt += 1;
                $(
                    let $arg = $crate::strategy::Strategy::generate(&($strategy), &mut rng);
                )+
                let outcome = (move || -> ::std::result::Result<
                    (),
                    $crate::test_runner::TestCaseError,
                > {
                    $body
                    ::std::result::Result::Ok(())
                })();
                match outcome {
                    ::std::result::Result::Ok(()) => passed += 1,
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                    // The seed index (not the pass count) is what
                    // TestRng::for_case needs to regenerate the inputs.
                    ::std::result::Result::Err(err) => panic!(
                        "property `{}` failed at seed index {} (case {}/{}): {}",
                        stringify!($name),
                        seed_index,
                        passed,
                        config.cases,
                        err,
                    ),
                }
            }
        }
        $crate::__proptest_items!(($config) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::for_case("ranges", 0);
        for _ in 0..500 {
            let x = (3u64..9).generate(&mut rng);
            assert!((3..9).contains(&x));
            let y = (5usize..=5).generate(&mut rng);
            assert_eq!(y, 5);
        }
    }

    #[test]
    fn vec_lengths_respect_size_range() {
        let mut rng = TestRng::for_case("vecs", 1);
        for _ in 0..200 {
            let v = crate::collection::vec(0u8..4, 2..6).generate(&mut rng);
            assert!((2..=5).contains(&v.len()));
            assert!(v.iter().all(|&b| b < 4));
        }
    }

    #[test]
    fn flat_map_dependent_generation() {
        let mut rng = TestRng::for_case("flat", 2);
        let strat =
            (1usize..4).prop_flat_map(|n| (Just(n), crate::collection::vec(0u64..10, n..=n)));
        for _ in 0..100 {
            let (n, v) = strat.generate(&mut rng);
            assert_eq!(v.len(), n);
        }
    }

    #[test]
    fn deterministic_per_test_and_case() {
        let a: u64 = any::<u64>().generate(&mut TestRng::for_case("t", 3));
        let b: u64 = any::<u64>().generate(&mut TestRng::for_case("t", 3));
        let c: u64 = any::<u64>().generate(&mut TestRng::for_case("t", 4));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro itself: args bind, `?` works, prop_assert returns Err.
        #[test]
        fn macro_smoke(x in 0u64..100, v in crate::collection::vec(0u8..3, 0..5)) {
            prop_assert!(x < 100);
            prop_assert_eq!(v.len(), v.len());
            helper(x)?;
        }
    }

    fn helper(x: u64) -> Result<(), TestCaseError> {
        prop_assert!(x != u64::MAX);
        Ok(())
    }
}
