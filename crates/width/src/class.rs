//! Low/full width classification of 64-bit values.

use std::fmt;

/// The two value widths the Thermal Herding datapath distinguishes.
///
/// A *low-width* value needs only the 16 bits stored on the top die; a
/// *full-width* value has significant state on the lower three dies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Width {
    /// Representable in 16 bits (top die only).
    #[default]
    Low,
    /// Needs more than 16 bits (activity on all four dies).
    Full,
}

impl Width {
    /// Number of dies that switch when a value of this width traverses the
    /// significance-partitioned datapath.
    pub fn active_dies(self) -> usize {
        match self {
            Width::Low => 1,
            Width::Full => crate::DIES,
        }
    }
}

impl fmt::Display for Width {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Width::Low => f.write_str("low"),
            Width::Full => f.write_str("full"),
        }
    }
}

/// How "representable in 16 bits" is defined.
///
/// The paper describes the register-file memoization bit as marking whether
/// "the remaining three die contain non-zero values" (zero upper bits), but
/// its motivating citation counts values representable in ≤16 bits, which
/// for two's-complement integers includes small negatives (upper bits all
/// ones). Both definitions are implemented; [`WidthPolicy::SignExtended`]
/// is the default used by the simulator because the datapath can
/// regenerate a sign-extension as easily as zeros.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum WidthPolicy {
    /// Low iff bits 63..16 are all zero.
    ZeroUpper,
    /// Low iff bits 63..16 are all zero or all one (value fits in `i16`
    /// when interpreted signed, or in `u16` unsigned).
    #[default]
    SignExtended,
}

impl WidthPolicy {
    /// Classifies a 64-bit value.
    ///
    /// ```
    /// use th_width::{Width, WidthPolicy};
    /// assert_eq!(WidthPolicy::SignExtended.classify(42), Width::Low);
    /// assert_eq!(WidthPolicy::SignExtended.classify((-5i64) as u64), Width::Low);
    /// assert_eq!(WidthPolicy::ZeroUpper.classify((-5i64) as u64), Width::Full);
    /// assert_eq!(WidthPolicy::SignExtended.classify(1 << 20), Width::Full);
    /// ```
    #[inline]
    pub fn classify(self, value: u64) -> Width {
        let upper = value >> crate::BITS_PER_DIE;
        let low = match self {
            WidthPolicy::ZeroUpper => upper == 0,
            WidthPolicy::SignExtended => {
                upper == 0 || (upper == (u64::MAX >> crate::BITS_PER_DIE) && value >> 15 & 1 == 1)
            }
        };
        if low {
            Width::Low
        } else {
            Width::Full
        }
    }

    /// Combined width of an instruction's operand set: full if *any*
    /// operand is full (the whole group must enable the lower dies).
    pub fn classify_all<I: IntoIterator<Item = u64>>(self, values: I) -> Width {
        if values.into_iter().any(|v| self.classify(v) == Width::Full) {
            Width::Full
        } else {
            Width::Low
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_upper_policy() {
        let p = WidthPolicy::ZeroUpper;
        assert_eq!(p.classify(0), Width::Low);
        assert_eq!(p.classify(0xffff), Width::Low);
        assert_eq!(p.classify(0x10000), Width::Full);
        assert_eq!(p.classify(u64::MAX), Width::Full);
    }

    #[test]
    fn sign_extended_policy() {
        let p = WidthPolicy::SignExtended;
        assert_eq!(p.classify(0), Width::Low);
        assert_eq!(p.classify(0x7fff), Width::Low);
        assert_eq!(p.classify((-1i64) as u64), Width::Low);
        assert_eq!(p.classify((-32768i64) as u64), Width::Low);
        // 0x8000 zero-extended is low under ZeroUpper but its upper bits are
        // zero while bit 15 is set — still "fits in u16", so Low.
        assert_eq!(p.classify(0x8000), Width::Low);
        assert_eq!(p.classify((-32769i64) as u64), Width::Full);
        assert_eq!(p.classify(0x10000), Width::Full);
    }

    #[test]
    fn active_dies() {
        assert_eq!(Width::Low.active_dies(), 1);
        assert_eq!(Width::Full.active_dies(), 4);
    }

    #[test]
    fn classify_all_is_any_full() {
        let p = WidthPolicy::SignExtended;
        assert_eq!(p.classify_all([1, 2, 3]), Width::Low);
        assert_eq!(p.classify_all([1, 1 << 40]), Width::Full);
        assert_eq!(p.classify_all(std::iter::empty()), Width::Low);
    }

    proptest! {
        #[test]
        fn sign_extended_matches_i16_range(v in any::<i64>()) {
            let w = WidthPolicy::SignExtended.classify(v as u64);
            let fits = i16::try_from(v).is_ok() || u16::try_from(v).is_ok();
            prop_assert_eq!(w == Width::Low, fits);
        }

        #[test]
        fn zero_upper_matches_u16_range(v in any::<u64>()) {
            let w = WidthPolicy::ZeroUpper.classify(v);
            prop_assert_eq!(w == Width::Low, v <= u16::MAX as u64);
        }

        #[test]
        fn low_under_zero_upper_implies_low_under_sign_extended(v in any::<u64>()) {
            if WidthPolicy::ZeroUpper.classify(v) == Width::Low {
                prop_assert_eq!(WidthPolicy::SignExtended.classify(v), Width::Low);
            }
        }
    }
}
