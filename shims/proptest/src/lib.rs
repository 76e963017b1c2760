//! Minimal offline stand-in for the `proptest` crate.
//!
//! Implements exactly the surface this workspace uses: composable
//! generation strategies and the `proptest!` test-loop macro. Cases are
//! generated from a fixed seed (deterministic across runs); failing inputs
//! are not shrunk — assertions panic with the generated values instead.

// Strategy combinators hold closures and `Rc<dyn Strategy>`, which cannot
// derive `Debug`; the real crate doesn't expose `Debug` on them either.
#![allow(missing_debug_implementations)]

pub mod test_runner {
    /// Per-test configuration; only `cases` is interpreted.
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Number of random cases to run.
        pub cases: u32,
        /// Accepted for upstream compatibility; this shim never shrinks.
        pub max_shrink_iters: u32,
    }

    impl Default for Config {
        fn default() -> Config {
            Config {
                cases: 256,
                max_shrink_iters: 0,
            }
        }
    }

    /// SplitMix64: tiny, fast, and good enough for test-case generation.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn from_seed(seed: u64) -> TestRng {
            TestRng { state: seed }
        }

        /// Deterministic default seed so test runs are reproducible.
        pub fn deterministic() -> TestRng {
            TestRng::from_seed(0x5EED_CAFE_F00D_D00D)
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, bound)`; `bound` must be non-zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};
    use std::rc::Rc;

    /// A composable generator of values of type `Self::Value`.
    ///
    /// Unlike upstream proptest there is no value tree or shrinking: a
    /// strategy is just a samplable distribution.
    pub trait Strategy {
        type Value;

        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Builds a recursive strategy: `self` is the leaf case and `f`
        /// wraps a strategy for depth `d` into one for depth `d + 1`.
        /// Sampling picks a depth in `0..=depth` uniformly, so both bare
        /// leaves and full-depth values occur. `max_size` and
        /// `items_per_collection` are accepted for API compatibility but
        /// ignored (sizes are bounded by `depth` alone).
        fn prop_recursive<F, S>(
            self,
            depth: u32,
            _max_size: u32,
            _items_per_collection: u32,
            f: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> S,
            S: Strategy<Value = Self::Value> + 'static,
        {
            let mut levels: Vec<BoxedStrategy<Self::Value>> = vec![self.boxed()];
            for _ in 0..depth {
                let prev = levels.last().expect("at least the leaf level").clone();
                levels.push(f(prev).boxed());
            }
            Union::new(levels).boxed()
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(self))
        }
    }

    /// A cheaply clonable, type-erased strategy.
    pub struct BoxedStrategy<T>(Rc<dyn Strategy<Value = T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> BoxedStrategy<T> {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            self.0.sample(rng)
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Clone, Debug)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// `Strategy::prop_map` adapter.
    #[derive(Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// Uniform choice between alternative strategies (`prop_oneof!`).
    pub struct Union<T>(Vec<BoxedStrategy<T>>);

    impl<T> Union<T> {
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Union<T> {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union(options)
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.0.len() as u64) as usize;
            self.0[i].sample(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),+) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    // Widen to i128 so spans that overflow the narrow type
                    // (e.g. -100i8..100) are still computed correctly.
                    let span = (self.end as i128 - self.start as i128) as u64;
                    self.start.wrapping_add(rng.below(span) as $t)
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128 + 1) as u64;
                    if span == 0 {
                        // Full-width range (e.g. 0..=u64::MAX): the span
                        // wraps to zero; every raw value is in range.
                        return lo.wrapping_add(rng.next_u64() as $t);
                    }
                    lo.wrapping_add(rng.below(span) as $t)
                }
            }
        )+};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! tuple_strategy {
        ($(($($s:ident $idx:tt),+);)+) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )+};
    }

    tuple_strategy! {
        (A 0);
        (A 0, B 1);
        (A 0, B 1, C 2);
        (A 0, B 1, C 2, D 3);
        (A 0, B 1, C 2, D 3, E 4);
        (A 0, B 1, C 2, D 3, E 4, F 5);
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Length specification for [`vec()`]: an exact size or a range.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // inclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> SizeRange {
            assert!(r.start() <= r.end(), "empty vec size range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64 + 1;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// Generates vectors whose elements come from `element` and whose
    /// length lies in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    pub struct OptionStrategy<S>(S);

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Option<S::Value> {
            // Match upstream's default: `Some` three times out of four.
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.0.sample(rng))
            }
        }
    }

    /// Generates `None` or `Some` of the inner strategy's values.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }
}

pub mod prelude {
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Runs the body for `config.cases` deterministic pseudo-random cases.
///
/// Only the `proptest!(config, |(var in strategy, ...)| { body })` form is
/// supported — the form every call site in this workspace uses. Each
/// strategy expression is evaluated once, bound to the case variable's
/// name, then shadowed by a freshly sampled value on every iteration.
#[macro_export]
macro_rules! proptest {
    ($config:expr, |($($var:ident in $strat:expr),+ $(,)?)| $body:block) => {{
        let config: $crate::test_runner::Config = $config;
        let mut rng = $crate::test_runner::TestRng::deterministic();
        $(let $var = $strat;)+
        for _case in 0..config.cases {
            $(let $var = $crate::strategy::Strategy::sample(&$var, &mut rng);)+
            $body
        }
    }};
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

/// Skips the current case when the assumption does not hold.
///
/// Expands to `continue`, so it must appear directly inside the
/// `proptest!` body (not in a nested loop) — true of every use here.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            continue;
        }
    };
}

/// Uniform choice among the given strategies (all must share a value type).
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}
