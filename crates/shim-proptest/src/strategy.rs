//! Value-generation strategies: the combinator surface of proptest that the
//! workspace's tests rely on, without shrinking.

use crate::test_runner::TestRng;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

/// A generator of values of type `Self::Value`.
pub trait Strategy {
    type Value;

    fn gen_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Recursive structures: `recurse` receives a strategy for the previous
    /// depth level and builds the next one. `desired_size` and
    /// `expected_branch_size` are accepted for signature compatibility; the
    /// tree depth alone bounds generation here.
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        let mut level = self.boxed();
        for _ in 0..depth {
            // Each level chooses between stopping (previous level) and
            // recursing one deeper, so expected size stays bounded.
            level = Union::new(vec![level.clone(), recurse(level).boxed()]).boxed();
        }
        level
    }

    /// Type-erase (the stand-in for proptest's `BoxedStrategy`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            inner: Rc::new(self),
        }
    }
}

trait DynStrategy<V> {
    fn gen_dyn(&self, rng: &mut TestRng) -> V;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn gen_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.gen_value(rng)
    }
}

/// A reference-counted, type-erased strategy.
pub struct BoxedStrategy<V> {
    inner: Rc<dyn DynStrategy<V>>,
}

impl<V> Clone for BoxedStrategy<V> {
    fn clone(&self) -> Self {
        BoxedStrategy {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn gen_value(&self, rng: &mut TestRng) -> V {
        self.inner.gen_dyn(rng)
    }
}

/// `.prop_map` combinator.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn gen_value(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.gen_value(rng))
    }
}

/// Uniform choice among same-typed strategies (`prop_oneof!`).
pub struct Union<V> {
    options: Vec<BoxedStrategy<V>>,
}

impl<V> Union<V> {
    pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Union { options }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn gen_value(&self, rng: &mut TestRng) -> V {
        let pick = rng.below(self.options.len() as u64) as usize;
        self.options[pick].gen_value(rng)
    }
}

// ---------------------------------------------------------------------------
// Integer ranges.

/// Integers representable by the range strategies below.
pub trait RangedInt: Copy {
    fn sample_range(low: Self, high_exclusive: Self, rng: &mut TestRng) -> Self;
    fn successor(self) -> Self;
}

macro_rules! impl_ranged_int {
    ($($t:ty),*) => {$(
        impl RangedInt for $t {
            fn sample_range(low: Self, high_exclusive: Self, rng: &mut TestRng) -> Self {
                assert!(low < high_exclusive, "empty range strategy");
                let span = (high_exclusive as i128 - low as i128) as u128;
                let offset = (rng.next_u64() as u128) % span;
                (low as i128 + offset as i128) as $t
            }
            fn successor(self) -> Self {
                self.checked_add(1).expect("inclusive range ends at type maximum")
            }
        }
    )*};
}
impl_ranged_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: RangedInt> Strategy for Range<T> {
    type Value = T;
    fn gen_value(&self, rng: &mut TestRng) -> T {
        T::sample_range(self.start, self.end, rng)
    }
}

impl<T: RangedInt> Strategy for RangeInclusive<T> {
    type Value = T;
    fn gen_value(&self, rng: &mut TestRng) -> T {
        T::sample_range(*self.start(), self.end().successor(), rng)
    }
}

// ---------------------------------------------------------------------------
// `any::<T>()`.

/// Types with a canonical whole-domain strategy.
pub trait Arbitrary: Sized {
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

/// Strategy returned by [`any`].
pub struct Any<A> {
    _marker: PhantomData<A>,
}

impl<A: Arbitrary> Strategy for Any<A> {
    type Value = A;
    fn gen_value(&self, rng: &mut TestRng) -> A {
        A::arbitrary(rng)
    }
}

pub fn any<A: Arbitrary>() -> Any<A> {
    Any {
        _marker: PhantomData,
    }
}

// ---------------------------------------------------------------------------
// Collections.

/// Length specifications accepted by [`vec()`]: an exact `usize` or a
/// half-open `Range<usize>`.
pub struct SizeRange {
    low: usize,
    high_exclusive: usize,
}

impl From<usize> for SizeRange {
    fn from(exact: usize) -> Self {
        SizeRange {
            low: exact,
            high_exclusive: exact + 1,
        }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty vec size range");
        SizeRange {
            low: r.start,
            high_exclusive: r.end,
        }
    }
}

pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn gen_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.high_exclusive - self.size.low) as u64;
        let len = self.size.low + rng.below(span.max(1)) as usize;
        (0..len).map(|_| self.element.gen_value(rng)).collect()
    }
}

/// `proptest::collection::vec`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

// ---------------------------------------------------------------------------
// Pattern (mini-regex) string strategies.

/// `&str` strategies interpret the string as a small regex subset: literal
/// characters, character classes `[a-zA-Z_-]`, the class `\PC` (any
/// printable, non-control character), and `{m,n}` / `{m}` repetition
/// suffixes. This covers every pattern the workspace's tests use.
impl Strategy for &str {
    type Value = String;
    fn gen_value(&self, rng: &mut TestRng) -> String {
        let atoms = parse_pattern(self);
        let mut out = String::new();
        for atom in &atoms {
            let n = atom.min_reps + rng.below((atom.max_reps - atom.min_reps + 1) as u64) as usize;
            for _ in 0..n {
                out.push(atom.class.sample(rng));
            }
        }
        out
    }
}

struct PatternAtom {
    class: CharClass,
    min_reps: usize,
    max_reps: usize,
}

enum CharClass {
    /// Explicit choices (from a `[...]` class or a literal character).
    Choices(Vec<char>),
    /// `\PC`: printable non-control characters.
    Printable,
}

impl CharClass {
    fn sample(&self, rng: &mut TestRng) -> char {
        match self {
            CharClass::Choices(choices) => choices[rng.below(choices.len() as u64) as usize],
            CharClass::Printable => {
                // Mostly printable ASCII, with some multibyte characters so
                // parsers meet non-ASCII input too.
                const EXOTIC: &[char] = &['é', 'λ', 'Ω', '→', '本', '…', '½'];
                if rng.below(8) == 0 {
                    EXOTIC[rng.below(EXOTIC.len() as u64) as usize]
                } else {
                    char::from_u32(0x20 + rng.below(0x5F) as u32).unwrap()
                }
            }
        }
    }
}

fn parse_pattern(pattern: &str) -> Vec<PatternAtom> {
    let chars: Vec<char> = pattern.chars().collect();
    let mut atoms = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let class = match chars[i] {
            '[' => {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == ']')
                    .map(|p| i + p)
                    .unwrap_or_else(|| panic!("unclosed `[` in pattern `{pattern}`"));
                let class = parse_class(&chars[i + 1..close]);
                i = close + 1;
                class
            }
            '\\' => {
                if chars.get(i + 1) == Some(&'P') && chars.get(i + 2) == Some(&'C') {
                    i += 3;
                    CharClass::Printable
                } else {
                    // Escaped literal (e.g. `\.`).
                    let lit = *chars
                        .get(i + 1)
                        .unwrap_or_else(|| panic!("dangling `\\` in pattern `{pattern}`"));
                    i += 2;
                    CharClass::Choices(vec![lit])
                }
            }
            c => {
                i += 1;
                CharClass::Choices(vec![c])
            }
        };
        // Optional {m} / {m,n} repetition.
        let (min_reps, max_reps) = if chars.get(i) == Some(&'{') {
            let close = chars[i..]
                .iter()
                .position(|&c| c == '}')
                .map(|p| i + p)
                .unwrap_or_else(|| panic!("unclosed `{{` in pattern `{pattern}`"));
            let body: String = chars[i + 1..close].iter().collect();
            i = close + 1;
            match body.split_once(',') {
                Some((lo, hi)) => (
                    lo.trim().parse().expect("bad repetition lower bound"),
                    hi.trim().parse().expect("bad repetition upper bound"),
                ),
                None => {
                    let n = body.trim().parse().expect("bad repetition count");
                    (n, n)
                }
            }
        } else {
            (1, 1)
        };
        assert!(
            min_reps <= max_reps,
            "bad repetition in pattern `{pattern}`"
        );
        atoms.push(PatternAtom {
            class,
            min_reps,
            max_reps,
        });
    }
    atoms
}

fn parse_class(body: &[char]) -> CharClass {
    let mut choices = Vec::new();
    let mut i = 0;
    while i < body.len() {
        if i + 2 < body.len() && body[i + 1] == '-' {
            let (lo, hi) = (body[i] as u32, body[i + 2] as u32);
            assert!(lo <= hi, "inverted range in character class");
            for c in lo..=hi {
                choices.push(char::from_u32(c).expect("bad character range"));
            }
            i += 3;
        } else {
            choices.push(body[i]);
            i += 1;
        }
    }
    assert!(!choices.is_empty(), "empty character class");
    CharClass::Choices(choices)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> TestRng {
        TestRng::from_seed(0xFACADE)
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = rng();
        for _ in 0..200 {
            let v = (3usize..10).gen_value(&mut rng);
            assert!((3..10).contains(&v));
            let w = (0u64..=5).gen_value(&mut rng);
            assert!(w <= 5);
            let s = (-10isize..10).gen_value(&mut rng);
            assert!((-10..10).contains(&s));
        }
    }

    #[test]
    fn vec_lengths_respect_spec() {
        let mut rng = rng();
        for _ in 0..100 {
            assert_eq!(vec(0u8..10, 7).gen_value(&mut rng).len(), 7);
            let v = vec(0u8..10, 2..5).gen_value(&mut rng);
            assert!((2..5).contains(&v.len()));
        }
    }

    #[test]
    fn pattern_strategies_match_their_own_shape() {
        let mut rng = rng();
        for _ in 0..100 {
            let s = "[01]{1,8}".gen_value(&mut rng);
            assert!((1..=8).contains(&s.len()));
            assert!(s.chars().all(|c| c == '0' || c == '1'), "{s}");

            let ident = "[A-Za-z][A-Za-z0-9_-]{0,8}".gen_value(&mut rng);
            assert!(ident.chars().next().unwrap().is_ascii_alphabetic());
            assert!(ident.chars().count() <= 9);

            let free = "\\PC{0,64}".gen_value(&mut rng);
            assert!(free.chars().count() <= 64);
            assert!(free.chars().all(|c| !c.is_control()), "{free:?}");
        }
    }

    #[test]
    fn oneof_and_map_and_recursive_compose() {
        #[derive(Debug, Clone, PartialEq)]
        enum Tree {
            Leaf(u64),
            Node(Vec<Tree>),
        }
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf(_) => 1,
                Tree::Node(kids) => 1 + kids.iter().map(depth).max().unwrap_or(0),
            }
        }
        let strat = (0u64..10)
            .prop_map(Tree::Leaf)
            .prop_recursive(4, 32, 4, |inner| vec(inner, 0..4).prop_map(Tree::Node));
        let mut rng = rng();
        let mut seen_node = false;
        for _ in 0..200 {
            let t = strat.gen_value(&mut rng);
            assert!(depth(&t) <= 5);
            seen_node |= matches!(t, Tree::Node(_));
        }
        assert!(seen_node, "recursion never recursed");

        let u = crate::prop_oneof![0u32..1, 10u32..11];
        let mut lows = 0;
        for _ in 0..100 {
            match u.gen_value(&mut rng) {
                0 => lows += 1,
                10 => {}
                other => panic!("impossible value {other}"),
            }
        }
        assert!((20..80).contains(&lows), "lopsided union: {lows}");
    }
}
