//! Offline stand-in for the `proptest` crate.
//!
//! Implements the slice of proptest this workspace's property suites
//! use: the [`proptest!`]/[`prop_compose!`]/[`prop_oneof!`] macros, the
//! [`strategy::Strategy`] trait, `any::<T>()`, range strategies,
//! tuples, and the `collection`/`sample`/`array` strategy factories.
//!
//! Differences from real proptest, chosen deliberately for an offline,
//! reproducible test environment:
//!
//! - **No shrinking.** A failing case reports the generated inputs
//!   (which is what shrinking exists to make readable) and re-raises the
//!   panic; inputs are printed verbatim instead of minimized.
//! - **Deterministic seeding.** Each test's RNG is seeded from the
//!   test's module path and name, so failures reproduce across runs and
//!   machines with no persistence files.
//! - **Panic-based assertions.** `prop_assert!` is `assert!`; rejection
//!   via `prop_assume!` skips the case rather than resampling it.

#![forbid(unsafe_code)]

/// Test-case RNG and run configuration.
pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Configuration accepted by `#![proptest_config(..)]`.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to run per property.
        pub cases: u32,
        /// Accepted for source compatibility; shrinking is not
        /// implemented, so the value is ignored.
        pub max_shrink_iters: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig {
                cases: 256,
                max_shrink_iters: 0,
            }
        }
    }

    /// Why a test case did not pass: a genuine failure, or a rejection
    /// by `prop_assume!` (the case simply doesn't apply).
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// The property was violated.
        Fail(String),
        /// The case's inputs failed a `prop_assume!` precondition.
        Reject(String),
    }

    impl TestCaseError {
        /// Builds a failure.
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError::Fail(reason.into())
        }

        /// Builds a rejection.
        pub fn reject(reason: impl Into<String>) -> Self {
            TestCaseError::Reject(reason.into())
        }
    }

    /// The generator handed to strategies.
    #[derive(Debug, Clone)]
    pub struct TestRng(StdRng);

    impl TestRng {
        /// RNG seeded as a pure function of `name` (FNV-1a), so a given
        /// property always sees the same case sequence.
        pub fn deterministic(name: &str) -> Self {
            let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                hash ^= b as u64;
                hash = hash.wrapping_mul(0x100_0000_01b3);
            }
            TestRng(StdRng::seed_from_u64(hash))
        }

        /// Uniform 64 bits.
        pub fn next_u64(&mut self) -> u64 {
            self.0.random::<u64>()
        }

        /// Uniform in `[0, bound)`.
        ///
        /// # Panics
        ///
        /// Panics when `bound == 0`.
        pub fn below(&mut self, bound: usize) -> usize {
            self.0.random_range(0..bound)
        }

        /// Uniform in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            self.0.random::<f64>()
        }
    }
}

/// The [`Strategy`](strategy::Strategy) trait and basic combinators.
pub mod strategy {
    use crate::test_runner::TestRng;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    impl<T> Strategy for Box<dyn Strategy<Value = T>> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            (**self).generate(rng)
        }
    }

    /// Boxes a strategy (used by `prop_oneof!` to unify arm types).
    pub fn boxed<S: Strategy + 'static>(s: S) -> Box<dyn Strategy<Value = S::Value>> {
        Box::new(s)
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Output of [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Strategy backed by a plain generation function (used by
    /// `prop_compose!`).
    #[derive(Clone)]
    pub struct FnStrategy<F>(pub F);

    impl<T, F: Fn(&mut TestRng) -> T> Strategy for FnStrategy<F> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// Uniform choice between boxed alternative strategies (the
    /// `prop_oneof!` backend).
    pub struct OneOf<T> {
        arms: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T> OneOf<T> {
        /// Builds the union; `arms` must be non-empty.
        ///
        /// # Panics
        ///
        /// Panics when `arms` is empty.
        pub fn new(arms: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            OneOf { arms }
        }
    }

    impl<T> Strategy for OneOf<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            let pick = rng.below(self.arms.len());
            self.arms[pick].generate(rng)
        }
    }

    macro_rules! int_range_strategies {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "strategy range is empty");
                    let span = (self.end as u128) - (self.start as u128);
                    let draw = ((rng.next_u64() as u128) << 64 | rng.next_u64() as u128) % span;
                    self.start + draw as $t
                }
            }

            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "strategy range is empty");
                    let span = (end as u128) - (start as u128) + 1;
                    let draw = ((rng.next_u64() as u128) << 64 | rng.next_u64() as u128) % span;
                    start + draw as $t
                }
            }

            impl Strategy for core::ops::RangeFrom<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    (self.start..=<$t>::MAX).generate(rng)
                }
            }
        )*};
    }

    int_range_strategies!(u8, u16, u32, u64, usize);

    impl Strategy for core::ops::Range<f64> {
        type Value = f64;

        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "strategy range is empty");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategies {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategies! {
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
    }
}

/// `any::<T>()` and the [`Arbitrary`](crate::arbitrary::Arbitrary) trait
/// backing it.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws one value uniformly from the type's domain.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    /// The strategy returned by [`any`].
    #[derive(Debug)]
    pub struct Any<T>(PhantomData<T>);

    impl<T> Clone for Any<T> {
        fn clone(&self) -> Self {
            Any(PhantomData)
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// Full-domain strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

/// Size specifications accepted by the collection strategies.
pub mod size {
    use crate::test_runner::TestRng;

    /// Fixed sizes (`usize`) or sampled ranges of sizes.
    pub trait IntoSizeRange {
        /// Draws a target size.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoSizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoSizeRange for core::ops::Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "size range is empty");
            self.start + rng.below(self.end - self.start)
        }
    }

    impl IntoSizeRange for core::ops::RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            let (start, end) = (*self.start(), *self.end());
            assert!(start <= end, "size range is empty");
            start + rng.below(end - start + 1)
        }
    }
}

/// Collection strategies (`vec`, `btree_set`, `btree_map`).
pub mod collection {
    use crate::size::IntoSizeRange;
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::collections::{BTreeMap, BTreeSet};

    /// How many draws a set/map strategy attempts before giving up on
    /// reaching its target size (duplicate keys shrink collections).
    const MAX_COLLECTION_ATTEMPTS: usize = 10_000;

    /// Strategy for `Vec<S::Value>` with sizes drawn from `size`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S, Sz> {
        element: S,
        size: Sz,
    }

    impl<S: Strategy, Sz: IntoSizeRange> Strategy for VecStrategy<S, Sz> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let target = self.size.pick(rng);
            (0..target).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `Vec` strategy: `size` may be a `usize` or a (inclusive or
    /// exclusive) range of sizes.
    pub fn vec<S: Strategy, Sz: IntoSizeRange>(element: S, size: Sz) -> VecStrategy<S, Sz> {
        VecStrategy { element, size }
    }

    /// Strategy for `BTreeSet<S::Value>`.
    #[derive(Debug, Clone)]
    pub struct BTreeSetStrategy<S, Sz> {
        element: S,
        size: Sz,
    }

    impl<S: Strategy, Sz: IntoSizeRange> Strategy for BTreeSetStrategy<S, Sz>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let target = self.size.pick(rng);
            let mut set = BTreeSet::new();
            let mut attempts = 0;
            while set.len() < target {
                set.insert(self.element.generate(rng));
                attempts += 1;
                assert!(
                    attempts < MAX_COLLECTION_ATTEMPTS,
                    "btree_set: element domain too small for requested size {target}"
                );
            }
            set
        }
    }

    /// `BTreeSet` strategy; duplicates are redrawn until the target size
    /// is reached.
    pub fn btree_set<S, Sz>(element: S, size: Sz) -> BTreeSetStrategy<S, Sz>
    where
        S: Strategy,
        S::Value: Ord,
        Sz: IntoSizeRange,
    {
        BTreeSetStrategy { element, size }
    }

    /// Strategy for `BTreeMap<K::Value, V::Value>`.
    #[derive(Debug, Clone)]
    pub struct BTreeMapStrategy<K, V, Sz> {
        key: K,
        value: V,
        size: Sz,
    }

    impl<K: Strategy, V: Strategy, Sz: IntoSizeRange> Strategy for BTreeMapStrategy<K, V, Sz>
    where
        K::Value: Ord,
    {
        type Value = BTreeMap<K::Value, V::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let target = self.size.pick(rng);
            let mut map = BTreeMap::new();
            let mut attempts = 0;
            while map.len() < target {
                map.insert(self.key.generate(rng), self.value.generate(rng));
                attempts += 1;
                assert!(
                    attempts < MAX_COLLECTION_ATTEMPTS,
                    "btree_map: key domain too small for requested size {target}"
                );
            }
            map
        }
    }

    /// `BTreeMap` strategy; duplicate keys are redrawn until the target
    /// size is reached.
    pub fn btree_map<K, V, Sz>(key: K, value: V, size: Sz) -> BTreeMapStrategy<K, V, Sz>
    where
        K: Strategy,
        K::Value: Ord,
        V: Strategy,
        Sz: IntoSizeRange,
    {
        BTreeMapStrategy { key, value, size }
    }
}

/// Sampling strategies over explicit value lists.
pub mod sample {
    use crate::size::IntoSizeRange;
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy picking one element of a list.
    #[derive(Debug, Clone)]
    pub struct Select<T: Clone>(Vec<T>);

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            self.0[rng.below(self.0.len())].clone()
        }
    }

    /// Uniform choice of one element from `options`.
    ///
    /// # Panics
    ///
    /// Panics when `options` is empty.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select: empty option list");
        Select(options)
    }

    /// Strategy picking an order-preserving subsequence.
    #[derive(Debug, Clone)]
    pub struct Subsequence<T: Clone, Sz> {
        values: Vec<T>,
        size: Sz,
    }

    impl<T: Clone, Sz: IntoSizeRange> Strategy for Subsequence<T, Sz> {
        type Value = Vec<T>;

        fn generate(&self, rng: &mut TestRng) -> Vec<T> {
            let count = self.size.pick(rng);
            assert!(
                count <= self.values.len(),
                "subsequence: requested {count} of {} values",
                self.values.len()
            );
            // Partial Fisher-Yates over the index space, then restore
            // source order so the result is a true subsequence.
            let mut indices: Vec<usize> = (0..self.values.len()).collect();
            for i in 0..count {
                let j = i + rng.below(indices.len() - i);
                indices.swap(i, j);
            }
            let mut chosen = indices[..count].to_vec();
            chosen.sort_unstable();
            chosen.into_iter().map(|i| self.values[i].clone()).collect()
        }
    }

    /// Order-preserving random subsequence of `values`; `size` may be a
    /// fixed count or a range of counts.
    pub fn subsequence<T: Clone, Sz: IntoSizeRange>(values: Vec<T>, size: Sz) -> Subsequence<T, Sz> {
        Subsequence { values, size }
    }
}

/// Fixed-size array strategies.
pub mod array {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    macro_rules! uniform_arrays {
        ($($name:ident => $n:literal / $uname:ident),*) => {$(
            /// Strategy for an array of independently-drawn elements.
            #[derive(Debug, Clone)]
            pub struct $uname<S>(S);

            impl<S: Strategy> Strategy for $uname<S> {
                type Value = [S::Value; $n];

                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    std::array::from_fn(|_| self.0.generate(rng))
                }
            }

            /// Array of independently-drawn elements of `element`.
            pub fn $name<S: Strategy>(element: S) -> $uname<S> {
                $uname(element)
            }
        )*};
    }

    uniform_arrays! {
        uniform2 => 2 / Uniform2,
        uniform3 => 3 / Uniform3,
        uniform4 => 4 / Uniform4,
        uniform8 => 8 / Uniform8
    }
}

/// The customary glob import, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_compose, prop_oneof,
        proptest,
    };
}

/// Defines property tests: each `fn` runs `config.cases` times against
/// freshly generated inputs; a failure reports the inputs and re-raises.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_impl! { config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (
        config = ($cfg:expr);
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut rng = $crate::test_runner::TestRng::deterministic(
                    concat!(module_path!(), "::", stringify!($name)),
                );
                for case in 0..config.cases {
                    $(
                        let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);
                    )+
                    let described = format!(
                        concat!($(stringify!($arg), " = {:?}; "),+),
                        $(&$arg),+
                    );
                    let outcome = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(
                            || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                                $body
                                ::std::result::Result::Ok(())
                            },
                        ),
                    );
                    match outcome {
                        Ok(Ok(())) => {}
                        Ok(Err($crate::test_runner::TestCaseError::Reject(_))) => {
                            // Precondition unmet; the case is skipped.
                        }
                        Ok(Err($crate::test_runner::TestCaseError::Fail(reason))) => {
                            panic!(
                                "proptest {}: case {}/{} failed ({}) with inputs: {}",
                                stringify!($name),
                                case + 1,
                                config.cases,
                                reason,
                                described,
                            );
                        }
                        Err(payload) => {
                            eprintln!(
                                "proptest {}: case {}/{} failed with inputs: {}",
                                stringify!($name),
                                case + 1,
                                config.cases,
                                described,
                            );
                            ::std::panic::resume_unwind(payload);
                        }
                    }
                }
            }
        )*
    };
}

/// Defines a named strategy function from component strategies.
#[macro_export]
macro_rules! prop_compose {
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident($($param:ident: $pty:ty),* $(,)?)
            ($($arg:ident in $strat:expr),+ $(,)?)
            -> $out:ty $body:block
    ) => {
        $(#[$meta])*
        $vis fn $name($($param: $pty),*) -> impl $crate::strategy::Strategy<Value = $out> {
            $crate::strategy::FnStrategy(move |rng: &mut $crate::test_runner::TestRng| {
                $(
                    let $arg = $crate::strategy::Strategy::generate(&($strat), rng);
                )+
                $body
            })
        }
    };
}

/// Uniform choice among alternative strategies of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $($crate::strategy::boxed($strat)),+
        ])
    };
}

/// Property-context assertion (panics; no shrinking to re-run).
#[macro_export]
macro_rules! prop_assert {
    ($($tokens:tt)*) => { assert!($($tokens)*) };
}

/// Property-context equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tokens:tt)*) => { assert_eq!($($tokens)*) };
}

/// Property-context inequality assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tokens:tt)*) => { assert_ne!($($tokens)*) };
}

/// Skips the current case when its inputs don't satisfy a precondition.
///
/// Usable anywhere the enclosing function returns
/// `Result<_, TestCaseError>` — which includes `proptest!` bodies.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($fmt:tt)*)?) => {
        if !($cond) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::reject(stringify!($cond)),
            );
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn ranges_stay_in_bounds(a in 3usize..10, b in 1u8.., c in 0.25f64..0.75) {
            prop_assert!((3..10).contains(&a));
            prop_assert!(b >= 1);
            prop_assert!((0.25..0.75).contains(&c));
        }

        #[test]
        fn collections_respect_sizes(
            v in prop::collection::vec(any::<u8>(), 2..5),
            s in prop::collection::btree_set(0usize..6, 0..=6),
            m in prop::collection::btree_map(0usize..9, 1u8.., 0..=3),
            pair in prop::sample::subsequence((0..7usize).collect::<Vec<_>>(), 2),
            quad in prop::array::uniform4(any::<u8>()),
            tup in (any::<bool>(), 0usize..4),
        ) {
            prop_assert!((2..5).contains(&v.len()));
            prop_assert!(s.len() <= 6);
            prop_assert!(m.len() <= 3);
            prop_assert_eq!(pair.len(), 2);
            prop_assert!(pair[0] < pair[1], "subsequence must preserve order");
            prop_assert_eq!(quad.len(), 4);
            prop_assert!(tup.1 < 4);
        }

        #[test]
        fn assume_skips_cases(n in 0usize..10) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }

    prop_compose! {
        fn point(scale: usize)(x in 0usize..10, y in 0usize..10) -> (usize, usize) {
            (x * scale, y * scale)
        }
    }

    proptest! {
        #[test]
        fn composed_strategy_applies_scale(p in point(3)) {
            prop_assert_eq!(p.0 % 3, 0);
            prop_assert_eq!(p.1 % 3, 0);
        }

        #[test]
        fn oneof_covers_all_arms(v in prop::collection::vec(prop_oneof![Just(1u8), Just(2), Just(3)], 64)) {
            prop_assert!(v.iter().all(|&x| (1..=3).contains(&x)));
            prop_assert!((1..=3).all(|x| v.contains(&x)), "64 draws should hit every arm");
        }
    }

    #[test]
    fn deterministic_rng_is_stable_per_name() {
        use crate::test_runner::TestRng;
        let mut a = TestRng::deterministic("x");
        let mut b = TestRng::deterministic("x");
        let mut c = TestRng::deterministic("y");
        let (da, db, dc) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(da, db);
        assert_ne!(da, dc);
    }
}
