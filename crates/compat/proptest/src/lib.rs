//! Offline stand-in for the `proptest` crate.
//!
//! The build environment cannot reach crates.io, so this crate implements the
//! slice of proptest's API the workspace's property suites use:
//!
//! * the [`Strategy`](strategy::Strategy) trait with `prop_map`,
//!   `prop_filter` and `prop_flat_map`, implemented for integer/float ranges,
//!   tuples and [`Just`](strategy::Just);
//! * [`collection::vec`] and [`strategy::Union`] (behind [`prop_oneof!`]);
//! * the [`proptest!`] macro with optional `#![proptest_config(..)]` header,
//!   plus [`prop_assert!`], [`prop_assert_eq!`] and [`prop_assert_ne!`];
//! * [`test_runner::ProptestConfig`] (only `cases` is honoured).
//!
//! Semantics differ from real proptest in two deliberate ways: generation is
//! purely random (no shrinking — a failing case reports its sampled inputs
//! but is not minimized) and the RNG is seeded deterministically from the
//! test name, so every run explores the same cases.  Both keep the suites
//! reproducible, which is the property the workspace's tests rely on.

#![forbid(unsafe_code)]

/// Test-case configuration and failure plumbing.
pub mod test_runner {
    /// Stand-in for `proptest::test_runner::Config` (a.k.a. `ProptestConfig`).
    ///
    /// Only `cases` is honoured; the other fields exist so that struct-update
    /// syntax against `ProptestConfig::default()` compiles unchanged.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to run per property.
        pub cases: u32,
        /// Accepted for compatibility; shrinking is not implemented.
        pub max_shrink_iters: u32,
        /// Accepted for compatibility; local-rejection limits are not
        /// enforced (filters retry up to a fixed internal bound).
        pub max_local_rejects: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256, max_shrink_iters: 0, max_local_rejects: 65_536 }
        }
    }

    impl ProptestConfig {
        /// Config with the given number of cases and defaults elsewhere.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases, ..ProptestConfig::default() }
        }
    }

    /// Failure raised by `prop_assert!` and friends inside a property body.
    #[derive(Debug, Clone)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        /// Creates a failure carrying `message`.
        pub fn fail(message: impl Into<String>) -> Self {
            TestCaseError { message: message.into() }
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.message)
        }
    }

    /// Deterministic RNG driving case generation.
    ///
    /// Like real proptest, generation is delegated to the `rand` crate (here
    /// the workspace's offline stand-in) rather than re-implementing a
    /// generator locally.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        inner: rand::rngs::StdRng,
    }

    impl TestRng {
        /// Creates an RNG from an explicit seed.
        pub fn deterministic(seed: u64) -> Self {
            use rand::SeedableRng;
            TestRng { inner: rand::rngs::StdRng::seed_from_u64(seed ^ 0x5DEE_CE66_D1CE_F00D) }
        }

        /// Creates an RNG whose seed is derived from a test name, so each
        /// property explores its own (stable) sequence of cases.
        pub fn for_test_name(name: &str) -> Self {
            let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
            for byte in name.bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x1000_0000_01b3);
            }
            TestRng::deterministic(hash)
        }

        /// Returns the next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            use rand::RngCore;
            self.inner.next_u64()
        }

        /// Returns a uniform `f64` in `[0, 1)`.
        pub fn next_f64(&mut self) -> f64 {
            use rand::Rng;
            self.inner.gen::<f64>()
        }

        /// Returns a uniform `u64` in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            use rand::Rng;
            self.inner.gen_range(0..bound)
        }
    }
}

/// Value-generation strategies.
pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// A recipe for generating values of one type (stand-in for
    /// `proptest::strategy::Strategy`; sampling replaces value trees, and
    /// there is no shrinking).
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value from `rng`.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `map`.
        fn prop_map<O, F>(self, map: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, map }
        }

        /// Discards generated values failing `filter` (retries up to an
        /// internal bound, then panics — mirroring proptest giving up on a
        /// too-strict filter).
        fn prop_filter<F>(self, whence: &'static str, filter: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter { inner: self, whence, filter }
        }

        /// Chains a dependent strategy derived from each generated value.
        fn prop_flat_map<O, F>(self, map: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            O: Strategy,
            F: Fn(Self::Value) -> O,
        {
            FlatMap { inner: self, map }
        }

        /// Erases the concrete strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A heap-allocated, type-erased strategy.
    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            (**self).sample(rng)
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Output of [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        map: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn sample(&self, rng: &mut TestRng) -> O {
            (self.map)(self.inner.sample(rng))
        }
    }

    /// Output of [`Strategy::prop_filter`].
    #[derive(Debug, Clone)]
    pub struct Filter<S, F> {
        inner: S,
        whence: &'static str,
        filter: F,
    }

    impl<S, F> Strategy for Filter<S, F>
    where
        S: Strategy,
        F: Fn(&S::Value) -> bool,
    {
        type Value = S::Value;
        fn sample(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..10_000 {
                let value = self.inner.sample(rng);
                if (self.filter)(&value) {
                    return value;
                }
            }
            panic!("prop_filter rejected 10000 consecutive values: {}", self.whence);
        }
    }

    /// Output of [`Strategy::prop_flat_map`].
    #[derive(Debug, Clone)]
    pub struct FlatMap<S, F> {
        inner: S,
        map: F,
    }

    impl<S, O, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        O: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O::Value;
        fn sample(&self, rng: &mut TestRng) -> O::Value {
            (self.map)(self.inner.sample(rng)).sample(rng)
        }
    }

    /// Uniform choice between same-typed strategies (behind [`prop_oneof!`](crate::prop_oneof)).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Creates a union over `options`; must be non-empty.
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! requires at least one option");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let index = rng.below(self.options.len() as u64) as usize;
            self.options[index].sample(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),+) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "cannot sample empty range");
                    let span = (self.end - self.start) as u64;
                    self.start + rng.below(span) as $t
                }
            }
        )+};
    }

    int_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! signed_range_strategy {
        ($($t:ty as $wide:ty),+) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "cannot sample empty range");
                    let span = (self.end as $wide - self.start as $wide) as u64;
                    (self.start as $wide + rng.below(span) as $wide) as $t
                }
            }
        )+};
    }

    signed_range_strategy!(i8 as i64, i16 as i64, i32 as i64, i64 as i128, isize as i128);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "cannot sample empty range");
            self.start + rng.next_f64() * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategy {
        ($(($($S:ident . $idx:tt),+))+) => {$(
            impl<$($S: Strategy),+> Strategy for ($($S,)+) {
                type Value = ($($S::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )+};
    }

    tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9)
    }
}

/// Strategies for collections.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy for `Vec`s with element strategy `S` and a length range.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Generates `Vec`s whose length is drawn from `size` and whose elements
    /// are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "cannot sample empty length range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Everything a property-test module normally imports.
pub mod prelude {
    pub use crate as prop;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Fails the current property case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        // The stringified condition goes through a `{}` placeholder, never
        // straight into a format string: source text containing braces
        // (closures, blocks) must not be parsed as format captures.
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current property case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(*left == *right, $($fmt)+);
    }};
}

/// Fails the current property case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            left
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(*left != *right, $($fmt)+);
    }};
}

/// Uniform choice between strategies yielding the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {{
        let options: ::std::vec::Vec<$crate::strategy::BoxedStrategy<_>> =
            vec![$(::std::boxed::Box::new($strategy)),+];
        $crate::strategy::Union::new(options)
    }};
}

/// Declares property tests (stand-in for `proptest::proptest!`).
///
/// Supports the subset of the real macro's grammar the workspace uses: an
/// optional `#![proptest_config(expr)]` header followed by `#[test]`
/// functions whose arguments are `pattern in strategy` bindings.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    (($config:expr) $($(#[$meta:meta])* fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block)*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $config;
            let mut rng = $crate::test_runner::TestRng::for_test_name(concat!(
                module_path!(),
                "::",
                stringify!($name)
            ));
            for case in 0..config.cases {
                // Record the sampled inputs before handing them to the body,
                // so failures (and panics) can report which case broke.
                let mut inputs = ::std::string::String::new();
                $(
                    let sampled = $crate::strategy::Strategy::sample(&($strategy), &mut rng);
                    inputs.push_str(&format!("{} = {:?}; ", stringify!($arg), &sampled));
                    let $arg = sampled;
                )+
                let outcome = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(
                    || -> ::core::result::Result<(), $crate::test_runner::TestCaseError> {
                        $body
                        ::core::result::Result::Ok(())
                    },
                ));
                match outcome {
                    ::core::result::Result::Ok(::core::result::Result::Ok(())) => {}
                    ::core::result::Result::Ok(::core::result::Result::Err(error)) => {
                        panic!(
                            "proptest property {} failed at case {}/{} with inputs [{}]: {}",
                            stringify!($name),
                            case + 1,
                            config.cases,
                            inputs.trim_end_matches("; "),
                            error
                        );
                    }
                    ::core::result::Result::Err(payload) => {
                        eprintln!(
                            "proptest property {} panicked at case {}/{} with inputs [{}]",
                            stringify!($name),
                            case + 1,
                            config.cases,
                            inputs.trim_end_matches("; ")
                        );
                        ::std::panic::resume_unwind(payload);
                    }
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_sample_in_bounds() {
        let mut rng = crate::test_runner::TestRng::deterministic(1);
        for _ in 0..1_000 {
            let v = (5u64..9).sample(&mut rng);
            assert!((5..9).contains(&v));
            let f = (0.25f64..0.75).sample(&mut rng);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn vec_strategy_respects_length_range() {
        let mut rng = crate::test_runner::TestRng::deterministic(2);
        let strategy = prop::collection::vec(0u8..10, 3..7);
        for _ in 0..200 {
            let v = strategy.sample(&mut rng);
            assert!((3..7).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    #[test]
    fn union_draws_from_every_arm() {
        let mut rng = crate::test_runner::TestRng::deterministic(3);
        let strategy = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[strategy.sample(&mut rng) as usize] = true;
        }
        assert_eq!(seen, [false, true, true, true]);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn macro_binds_multiple_strategies(a in 0u32..10, b in 10u32..20) {
            prop_assert!(a < 10);
            prop_assert!((10..20).contains(&b));
            prop_assert_ne!(a, b);
        }

        #[test]
        fn map_and_filter_compose(v in (0u64..100).prop_map(|x| x * 2) ) {
            prop_assert_eq!(v % 2, 0);
            prop_assert!(v < 200);
        }
    }

    proptest! {
        #[test]
        fn default_config_form_works(x in 0u8..5) {
            prop_assert!(x < 5);
        }
    }
}
