//! The register-file width memoization bits (§3.1).
//!
//! "The top die (LSB's) contains a width memoization bit for each entry
//! that indicates whether the remaining three die contain non-zero
//! values. On reading the width memoization bit, the processor compares
//! it to the predicted width" — detecting unsafe mispredictions in one
//! top-die read instead of waiting for the full 64-bit value.

use crate::class::{Width, WidthPolicy};

/// Outcome of checking a register read against its memoization bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemoCheck {
    /// Prediction and memoized width agree: proceed as planned.
    Match,
    /// Predicted low, memoized full: *unsafe* — the upper dies must be
    /// enabled and the pipeline stalls (§3.1).
    Unsafe,
    /// Predicted full, memoized low: safe over-provisioning; a missed
    /// gating opportunity only.
    Conservative,
}

/// One width-memoization bit per register-file entry.
///
/// ```
/// use th_width::{MemoCheck, Width, WidthMemoFile};
/// let mut memo = WidthMemoFile::new(64, Default::default());
/// memo.record_write(5, 42);                       // low-width value
/// assert_eq!(memo.check(5, Width::Low), MemoCheck::Match);
/// memo.record_write(5, 1 << 40);                  // full-width value
/// assert_eq!(memo.check(5, Width::Low), MemoCheck::Unsafe);
/// assert_eq!(memo.check(5, Width::Full), MemoCheck::Match);
/// ```
#[derive(Clone, Debug)]
pub struct WidthMemoFile {
    bits: Vec<Width>,
    policy: WidthPolicy,
}

impl WidthMemoFile {
    /// Creates a memo file for `entries` registers, all initially
    /// low-width (registers reset to zero).
    pub fn new(entries: usize, policy: WidthPolicy) -> WidthMemoFile {
        WidthMemoFile { bits: vec![Width::Low; entries], policy }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the file has no entries.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Updates the memoization bit when `value` is written to `entry`.
    ///
    /// # Panics
    ///
    /// Panics if `entry` is out of range.
    #[inline]
    pub fn record_write(&mut self, entry: usize, value: u64) {
        self.bits[entry] = self.policy.classify(value);
    }

    /// Forces an entry's width (e.g. for FP registers, always full).
    #[inline]
    pub fn set(&mut self, entry: usize, width: Width) {
        self.bits[entry] = width;
    }

    /// The memoized width of `entry`.
    #[inline]
    pub fn width(&self, entry: usize) -> Width {
        self.bits[entry]
    }

    /// Compares a read's predicted width against the memoization bit.
    pub fn check(&self, entry: usize, predicted: Width) -> MemoCheck {
        match (predicted, self.bits[entry]) {
            (Width::Low, Width::Full) => MemoCheck::Unsafe,
            (Width::Full, Width::Low) => MemoCheck::Conservative,
            _ => MemoCheck::Match,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fresh_file_is_all_low() {
        let memo = WidthMemoFile::new(8, WidthPolicy::SignExtended);
        for i in 0..8 {
            assert_eq!(memo.width(i), Width::Low);
            assert_eq!(memo.check(i, Width::Low), MemoCheck::Match);
            assert_eq!(memo.check(i, Width::Full), MemoCheck::Conservative);
        }
    }

    #[test]
    fn write_updates_bit() {
        let mut memo = WidthMemoFile::new(4, WidthPolicy::SignExtended);
        memo.record_write(2, u64::MAX << 20);
        assert_eq!(memo.width(2), Width::Full);
        assert_eq!(memo.width(1), Width::Low, "other entries untouched");
        memo.record_write(2, 3);
        assert_eq!(memo.width(2), Width::Low);
    }

    #[test]
    fn policy_controls_classification() {
        let mut zero_only = WidthMemoFile::new(1, WidthPolicy::ZeroUpper);
        let mut sign_ext = WidthMemoFile::new(1, WidthPolicy::SignExtended);
        let minus_one = (-1i64) as u64;
        zero_only.record_write(0, minus_one);
        sign_ext.record_write(0, minus_one);
        assert_eq!(zero_only.width(0), Width::Full);
        assert_eq!(sign_ext.width(0), Width::Low);
    }

    #[test]
    #[should_panic]
    fn out_of_range_panics() {
        let mut memo = WidthMemoFile::new(2, WidthPolicy::SignExtended);
        memo.record_write(2, 0);
    }

    proptest! {
        #[test]
        fn check_is_consistent_with_classify(value in any::<u64>(), predicted_full in any::<bool>()) {
            let policy = WidthPolicy::SignExtended;
            let mut memo = WidthMemoFile::new(1, policy);
            memo.record_write(0, value);
            let predicted = if predicted_full { Width::Full } else { Width::Low };
            let expected = match (predicted, policy.classify(value)) {
                (Width::Low, Width::Full) => MemoCheck::Unsafe,
                (Width::Full, Width::Low) => MemoCheck::Conservative,
                _ => MemoCheck::Match,
            };
            prop_assert_eq!(memo.check(0, predicted), expected);
        }

        #[test]
        fn unsafe_iff_under_prediction(value in any::<u64>()) {
            let mut memo = WidthMemoFile::new(1, WidthPolicy::SignExtended);
            memo.record_write(0, value);
            // Full prediction is never unsafe.
            prop_assert_ne!(memo.check(0, Width::Full), MemoCheck::Unsafe);
        }
    }
}
