//! Offline stand-in for the `proptest` crate.
//!
//! Implements the strategy combinators and the `proptest!` macro surface
//! this workspace uses: range and `any::<T>()` strategies, tuples,
//! `collection::vec`, `array::uniform4`, `prop_assert!`/`prop_assert_eq!`,
//! and `ProptestConfig::with_cases`. Cases are generated from a
//! deterministic per-test seed; there is no shrinking — a failing case
//! reports its case number and the formatted assertion instead.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Test-case RNG handed to strategies.
pub struct TestRng(StdRng);

impl TestRng {
    /// Deterministic per-test generator (FNV-1a of the test name).
    pub fn deterministic(name: &str) -> TestRng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_0000_01b3);
        }
        TestRng(StdRng::seed_from_u64(h))
    }
}

/// Error type returned by `prop_assert!` family macros. A "reject"
/// (from `prop_assume!`) skips the case instead of failing the test.
#[derive(Debug)]
pub struct TestCaseError {
    msg: String,
    reject: bool,
}

impl TestCaseError {
    /// A failed-assertion error.
    pub fn fail(msg: String) -> TestCaseError {
        TestCaseError { msg, reject: false }
    }

    /// An unmet-precondition rejection (`prop_assume!`).
    pub fn reject(msg: String) -> TestCaseError {
        TestCaseError { msg, reject: true }
    }

    /// Whether this case should be skipped rather than reported.
    pub fn is_reject(&self) -> bool {
        self.reject
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

/// Configuration block accepted by `#![proptest_config(..)]`.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 256 }
    }
}

/// A value generator.
pub trait Strategy {
    /// The generated type.
    type Value;
    /// Draws one value.
    fn new_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f` (the usual `prop_map` adaptor).
    fn prop_map<T, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> T,
    {
        Map { source: self, map: f }
    }
}

/// Strategy adaptor produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    source: S,
    map: F,
}

impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        (self.map)(self.source.new_value(rng))
    }
}

/// Uniform choice among boxed strategies of one value type — the
/// backing type of [`prop_oneof!`].
pub struct Union<T>(pub Vec<Box<dyn Strategy<Value = T>>>);

impl<T> Strategy for Union<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        let pick = rng.0.gen_range(0..self.0.len());
        self.0[pick].new_value(rng)
    }
}

/// Type-erases a strategy for [`Union`] membership.
pub fn boxed<S: Strategy + 'static>(s: S) -> Box<dyn Strategy<Value = S::Value>> {
    Box::new(s)
}

/// Uniform choice among strategies producing the same value type.
/// (Real proptest's per-arm weights are not supported.)
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union(vec![$($crate::boxed($strategy)),+])
    };
}

macro_rules! range_strategy {
    ($($ty:ty),*) => {$(
        impl Strategy for core::ops::Range<$ty> {
            type Value = $ty;
            fn new_value(&self, rng: &mut TestRng) -> $ty {
                rng.0.gen_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$ty> {
            type Value = $ty;
            fn new_value(&self, rng: &mut TestRng) -> $ty {
                rng.0.gen_range(self.clone())
            }
        }
    )*}
}
range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, f64, f32);

/// Marker strategy produced by [`any`].
pub struct Any<T>(core::marker::PhantomData<T>);

/// Strategy for an arbitrary value of `T`.
pub fn any<T>() -> Any<T> {
    Any(core::marker::PhantomData)
}

macro_rules! any_strategy {
    ($($ty:ty),*) => {$(
        impl Strategy for Any<$ty> {
            type Value = $ty;
            fn new_value(&self, rng: &mut TestRng) -> $ty {
                rng.0.gen()
            }
        }
    )*}
}
any_strategy!(bool, u8, u16, u32, u64, usize, i8, i16, i32, i64, f64, f32);

/// String literals act as regex-shaped generators (as in real proptest):
/// the strategy draws strings matching the pattern. Supported syntax:
/// literals, `\`-escapes, `\PC` (any printable char), `[a-z.]` classes
/// with ranges, `(..|..)` groups, and `{m,n}` / `?` / `*` / `+`
/// quantifiers (`*`/`+` are capped at 8 repetitions).
impl Strategy for &str {
    type Value = String;
    fn new_value(&self, rng: &mut TestRng) -> String {
        let ast = regex_gen::parse(self);
        let mut out = String::new();
        regex_gen::generate(&ast, rng, &mut out);
        out
    }
}

mod regex_gen {
    use super::TestRng;
    use rand::Rng;

    pub enum Node {
        Lit(char),
        /// Inclusive char ranges; a single char is `(c, c)`.
        Class(Vec<(char, char)>),
        /// `\PC`: any printable (non-control) character.
        AnyPrintable,
        /// Alternatives, each a concatenation.
        Group(Vec<Vec<Node>>),
        Rep(Box<Node>, u32, u32),
    }

    pub fn parse(pattern: &str) -> Vec<Node> {
        let chars: Vec<char> = pattern.chars().collect();
        let mut pos = 0;
        let alts = parse_alt(&chars, &mut pos);
        assert!(pos == chars.len(), "unsupported regex pattern: {pattern}");
        if alts.len() == 1 {
            alts.into_iter().next().unwrap()
        } else {
            vec![Node::Group(alts)]
        }
    }

    fn parse_alt(chars: &[char], pos: &mut usize) -> Vec<Vec<Node>> {
        let mut alts = vec![parse_concat(chars, pos)];
        while *pos < chars.len() && chars[*pos] == '|' {
            *pos += 1;
            alts.push(parse_concat(chars, pos));
        }
        alts
    }

    fn parse_concat(chars: &[char], pos: &mut usize) -> Vec<Node> {
        let mut seq = Vec::new();
        while *pos < chars.len() && chars[*pos] != '|' && chars[*pos] != ')' {
            let atom = parse_atom(chars, pos);
            seq.push(parse_quant(chars, pos, atom));
        }
        seq
    }

    fn parse_atom(chars: &[char], pos: &mut usize) -> Node {
        match chars[*pos] {
            '(' => {
                *pos += 1;
                let alts = parse_alt(chars, pos);
                assert!(chars.get(*pos) == Some(&')'), "unclosed group");
                *pos += 1;
                Node::Group(alts)
            }
            '[' => {
                *pos += 1;
                let mut ranges = Vec::new();
                while chars[*pos] != ']' {
                    let lo = if chars[*pos] == '\\' {
                        *pos += 1;
                        escape_literal(chars[*pos])
                    } else {
                        chars[*pos]
                    };
                    *pos += 1;
                    if chars[*pos] == '-' && chars[*pos + 1] != ']' {
                        *pos += 1;
                        let hi = chars[*pos];
                        *pos += 1;
                        ranges.push((lo, hi));
                    } else {
                        ranges.push((lo, lo));
                    }
                }
                *pos += 1;
                Node::Class(ranges)
            }
            '.' => {
                *pos += 1;
                Node::AnyPrintable
            }
            '\\' => {
                *pos += 1;
                let c = chars[*pos];
                *pos += 1;
                match c {
                    // `\PC` / `\pC`: Unicode category escape; the only one
                    // this workspace uses is "not control" ≈ printable.
                    'P' | 'p' => {
                        *pos += 1; // category letter
                        Node::AnyPrintable
                    }
                    'd' => Node::Class(vec![('0', '9')]),
                    'w' => Node::Class(vec![('a', 'z'), ('A', 'Z'), ('0', '9'), ('_', '_')]),
                    's' => Node::Class(vec![(' ', ' '), ('\t', '\t')]),
                    other => Node::Lit(escape_literal(other)),
                }
            }
            c => {
                *pos += 1;
                Node::Lit(c)
            }
        }
    }

    fn escape_literal(c: char) -> char {
        match c {
            'n' => '\n',
            't' => '\t',
            'r' => '\r',
            other => other,
        }
    }

    fn parse_quant(chars: &[char], pos: &mut usize, atom: Node) -> Node {
        let (min, max) = match chars.get(*pos) {
            Some('?') => (0, 1),
            Some('*') => (0, 8),
            Some('+') => (1, 9),
            Some('{') => {
                *pos += 1;
                let mut min = 0u32;
                while chars[*pos].is_ascii_digit() {
                    min = min * 10 + chars[*pos].to_digit(10).unwrap();
                    *pos += 1;
                }
                let max = if chars[*pos] == ',' {
                    *pos += 1;
                    let mut max = 0u32;
                    while chars[*pos].is_ascii_digit() {
                        max = max * 10 + chars[*pos].to_digit(10).unwrap();
                        *pos += 1;
                    }
                    max
                } else {
                    min
                };
                assert!(chars[*pos] == '}', "unclosed quantifier");
                return {
                    *pos += 1;
                    Node::Rep(Box::new(atom), min, max)
                };
            }
            _ => return atom,
        };
        *pos += 1;
        Node::Rep(Box::new(atom), min, max)
    }

    pub fn generate(seq: &[Node], rng: &mut TestRng, out: &mut String) {
        for node in seq {
            generate_node(node, rng, out);
        }
    }

    fn generate_node(node: &Node, rng: &mut TestRng, out: &mut String) {
        match node {
            Node::Lit(c) => out.push(*c),
            Node::Class(ranges) => {
                let total: u32 = ranges.iter().map(|&(lo, hi)| hi as u32 - lo as u32 + 1).sum();
                let mut k = rng.0.gen_range(0..total);
                for &(lo, hi) in ranges {
                    let span = hi as u32 - lo as u32 + 1;
                    if k < span {
                        out.push(char::from_u32(lo as u32 + k).unwrap_or(lo));
                        return;
                    }
                    k -= span;
                }
            }
            Node::AnyPrintable => {
                // Mostly printable ASCII, with occasional non-ASCII
                // codepoints to stress byte-level assumptions.
                if rng.0.gen_bool(0.9) {
                    out.push(char::from_u32(rng.0.gen_range(0x20u32..0x7f)).unwrap());
                } else {
                    const EXOTIC: &[char] = &['é', 'ß', '→', '∞', '字', '🔥', '\u{a0}', 'Ω'];
                    out.push(EXOTIC[rng.0.gen_range(0..EXOTIC.len())]);
                }
            }
            Node::Group(alts) => {
                let pick = rng.0.gen_range(0..alts.len());
                generate(&alts[pick], rng, out);
            }
            Node::Rep(inner, min, max) => {
                let n = rng.0.gen_range(*min..=*max);
                for _ in 0..n {
                    generate_node(inner, rng, out);
                }
            }
        }
    }
}

/// A fixed-value strategy.
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn new_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.new_value(rng),)+)
            }
        }
    };
}
tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// A length range for [`vec()`].
    pub struct SizeRange(core::ops::Range<usize>);

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> SizeRange {
            SizeRange(r)
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> SizeRange {
            SizeRange(*r.start()..r.end() + 1)
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange(n..n + 1)
        }
    }

    /// Strategy producing a `Vec` whose length is drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A vector of values drawn from `element`, length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.0.gen_range(self.size.0.clone());
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// Fixed-size array strategies.
pub mod array {
    use super::{Strategy, TestRng};

    /// Strategy producing `[S::Value; 4]`.
    pub struct Uniform4<S>(S);

    /// Four values drawn from the same strategy.
    pub fn uniform4<S: Strategy>(s: S) -> Uniform4<S> {
        Uniform4(s)
    }

    impl<S: Strategy> Strategy for Uniform4<S> {
        type Value = [S::Value; 4];
        fn new_value(&self, rng: &mut TestRng) -> [S::Value; 4] {
            [
                self.0.new_value(rng),
                self.0.new_value(rng),
                self.0.new_value(rng),
                self.0.new_value(rng),
            ]
        }
    }
}

/// The usual glob-import surface.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Just, ProptestConfig, Strategy, TestCaseError, Union,
    };
}

/// Case precondition: an unmet assumption skips the case (it is not a
/// failure).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::reject(format!(
                "assumption failed: {}",
                stringify!($cond)
            )));
        }
    };
}

/// Property-failure assertion; returns an error (rather than panicking)
/// so the harness can attach the case number.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Equality assertion counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "assertion failed: {:?} != {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, $($fmt)*);
    }};
}

/// Inequality assertion counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "assertion failed: {:?} == {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, $($fmt)*);
    }};
}

/// Defines property tests: each `fn name(arg in strategy, ..) { body }`
/// becomes a `#[test]` running `config.cases` random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $cfg:expr;) => {};
    (config = $cfg:expr;
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::deterministic(stringify!($name));
            for case in 0..config.cases {
                // `let` destructuring (rather than a closure parameter) so the
                // binding takes the strategy's concrete Value type and the body
                // can freely borrow it as a slice without confusing inference.
                let ($($arg,)+) = ($($crate::Strategy::new_value(&($strat), &mut rng),)+);
                let run = move || -> Result<(), $crate::TestCaseError> {
                    $body
                    Ok(())
                };
                if let Err(e) = run() {
                    if e.is_reject() {
                        continue; // prop_assume! rejection: skip the case
                    }
                    panic!("proptest case {case}/{} failed: {e}", config.cases);
                }
            }
        }
        $crate::__proptest_impl!{ config = $cfg; $($rest)* }
    };
}
