//! Saturating counters.

/// An `n`-bit saturating up/down counter (the workhorse of both the width
/// predictor and the branch direction predictor).
///
/// The counter saturates at `0` and `2^bits - 1`; values in the upper half
/// are "taken"/"full-width" depending on the consumer.
///
/// ```
/// use th_width::SatCounter;
/// let mut c = SatCounter::new(2, 1); // 2-bit, weakly-not-taken
/// assert!(!c.is_set());
/// c.inc();
/// assert!(c.is_set());
/// c.dec(); c.dec(); c.dec();
/// assert_eq!(c.value(), 0); // saturated at zero
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SatCounter {
    value: u8,
    max: u8,
}

impl SatCounter {
    /// Creates an `bits`-bit counter with the given initial value
    /// (clamped to range).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 7.
    pub fn new(bits: u8, initial: u8) -> SatCounter {
        assert!((1..=7).contains(&bits), "counter width {bits} unsupported");
        let max = (1u8 << bits) - 1;
        SatCounter { value: initial.min(max), max }
    }

    /// A 2-bit counter initialised to "weakly set" (value 2).
    pub fn weakly_set() -> SatCounter {
        SatCounter::new(2, 2)
    }

    /// A 2-bit counter initialised to "weakly clear" (value 1).
    pub fn weakly_clear() -> SatCounter {
        SatCounter::new(2, 1)
    }

    /// Current counter value.
    pub fn value(self) -> u8 {
        self.value
    }

    /// Maximum (saturation) value.
    pub fn max(self) -> u8 {
        self.max
    }

    /// Whether the counter is in its upper half (the "predict set" region).
    #[inline]
    pub fn is_set(self) -> bool {
        self.value > self.max / 2
    }

    /// Increments with saturation.
    #[inline]
    pub fn inc(&mut self) {
        if self.value < self.max {
            self.value += 1;
        }
    }

    /// Decrements with saturation.
    #[inline]
    pub fn dec(&mut self) {
        if self.value > 0 {
            self.value -= 1;
        }
    }

    /// Trains toward `set` (increment when true, decrement when false).
    #[inline]
    pub fn train(&mut self, set: bool) {
        if set {
            self.inc();
        } else {
            self.dec();
        }
    }

    /// The most-significant ("direction") bit, as split out by the paper's
    /// partitioned branch-predictor arrays (§3.7).
    pub fn direction_bit(self) -> bool {
        self.is_set()
    }

    /// The least-significant ("hysteresis") bit of a 2-bit counter.
    pub fn hysteresis_bit(self) -> bool {
        self.value & 1 != 0
    }
}

impl Default for SatCounter {
    fn default() -> SatCounter {
        SatCounter::weakly_clear()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn two_bit_state_machine() {
        let mut c = SatCounter::new(2, 0);
        assert!(!c.is_set());
        c.inc(); // 1
        assert!(!c.is_set());
        c.inc(); // 2
        assert!(c.is_set());
        c.inc(); // 3
        c.inc(); // saturates at 3
        assert_eq!(c.value(), 3);
        c.dec(); // 2
        assert!(c.is_set());
        c.dec(); // 1
        assert!(!c.is_set());
    }

    #[test]
    fn initial_clamped() {
        let c = SatCounter::new(2, 9);
        assert_eq!(c.value(), 3);
    }

    #[test]
    #[should_panic(expected = "unsupported")]
    fn zero_bits_rejected() {
        let _ = SatCounter::new(0, 0);
    }

    #[test]
    fn direction_and_hysteresis_bits() {
        for v in 0..4u8 {
            let c = SatCounter::new(2, v);
            assert_eq!(c.direction_bit(), v >= 2);
            assert_eq!(c.hysteresis_bit(), v & 1 == 1);
        }
    }

    #[test]
    fn hysteresis_needs_two_flips() {
        // From strongly-set, one contrary outcome must not flip the
        // prediction; two must.
        let mut c = SatCounter::new(2, 3);
        c.train(false);
        assert!(c.is_set());
        c.train(false);
        assert!(!c.is_set());
    }

    proptest! {
        #[test]
        fn never_leaves_range(bits in 1u8..=7, ops in proptest::collection::vec(any::<bool>(), 0..200)) {
            let mut c = SatCounter::new(bits, 0);
            for op in ops {
                c.train(op);
                prop_assert!(c.value() <= c.max());
            }
        }

        #[test]
        fn saturation_is_stable(bits in 1u8..=7) {
            let mut c = SatCounter::new(bits, 0);
            for _ in 0..300 { c.inc(); }
            prop_assert_eq!(c.value(), c.max());
            for _ in 0..300 { c.dec(); }
            prop_assert_eq!(c.value(), 0);
        }
    }
}
