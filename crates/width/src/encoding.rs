//! The L1 data cache's two-bit partial value encoding (§3.6).

use std::fmt;

/// How the upper 48 bits of a cached 64-bit word are represented on the
/// top die.
///
/// "Instead of storing a single width memoization bit, we store two bits
/// that encode the upper 48 bits" (§3.6). Three of the four encodings let a
/// load complete without touching the lower three dies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UpperEncoding {
    /// `00` — upper 48 bits are all zeros.
    Zeros,
    /// `01` — upper 48 bits are all ones (small negative numbers).
    Ones,
    /// `10` — upper 48 bits equal the upper 48 bits of the referencing
    /// address (heap pointers to nearby objects).
    AddrUpper,
    /// `11` — not trivially encodable; must be read from the lower dies.
    Explicit,
}

impl UpperEncoding {
    /// Bit mask of the upper 48 bits.
    const UPPER: u64 = !0xffffu64;

    /// Chooses the densest encoding for `value` when accessed at address
    /// `addr`.
    ///
    /// ```
    /// use th_width::UpperEncoding;
    /// assert_eq!(UpperEncoding::classify(42, 0x1000), UpperEncoding::Zeros);
    /// assert_eq!(UpperEncoding::classify((-7i64) as u64, 0x1000), UpperEncoding::Ones);
    /// // A pointer into the same region as the referencing address:
    /// assert_eq!(UpperEncoding::classify(0x7fff_0000_1234, 0x7fff_0000_5678),
    ///            UpperEncoding::AddrUpper);
    /// assert_eq!(UpperEncoding::classify(0x0123_4567_89ab_cdef, 0x1000),
    ///            UpperEncoding::Explicit);
    /// ```
    #[inline]
    pub fn classify(value: u64, addr: u64) -> UpperEncoding {
        let upper = value & Self::UPPER;
        if upper == 0 {
            UpperEncoding::Zeros
        } else if upper == Self::UPPER {
            UpperEncoding::Ones
        } else if upper == addr & Self::UPPER {
            UpperEncoding::AddrUpper
        } else {
            UpperEncoding::Explicit
        }
    }

    /// Reconstructs the full 64-bit value from the low 16 bits, this
    /// encoding, and the referencing address. Returns `None` for
    /// [`UpperEncoding::Explicit`] (the lower dies must be read).
    pub fn reconstruct(self, low16: u16, addr: u64) -> Option<u64> {
        let low = low16 as u64;
        match self {
            UpperEncoding::Zeros => Some(low),
            UpperEncoding::Ones => Some(Self::UPPER | low),
            UpperEncoding::AddrUpper => Some((addr & Self::UPPER) | low),
            UpperEncoding::Explicit => None,
        }
    }

    /// Whether a load with this encoding completes from the top die alone.
    #[inline]
    pub fn top_die_only(self) -> bool {
        self != UpperEncoding::Explicit
    }

    /// The two-bit code stored in the array.
    pub fn code(self) -> u8 {
        match self {
            UpperEncoding::Zeros => 0b00,
            UpperEncoding::Ones => 0b01,
            UpperEncoding::AddrUpper => 0b10,
            UpperEncoding::Explicit => 0b11,
        }
    }

    /// Decodes a two-bit code.
    ///
    /// # Panics
    ///
    /// Panics if `code > 3`.
    pub fn from_code(code: u8) -> UpperEncoding {
        match code {
            0b00 => UpperEncoding::Zeros,
            0b01 => UpperEncoding::Ones,
            0b10 => UpperEncoding::AddrUpper,
            0b11 => UpperEncoding::Explicit,
            _ => panic!("invalid partial-value code {code}"),
        }
    }
}

impl fmt::Display for UpperEncoding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UpperEncoding::Zeros => "zeros",
            UpperEncoding::Ones => "ones",
            UpperEncoding::AddrUpper => "addr-upper",
            UpperEncoding::Explicit => "explicit",
        };
        f.write_str(s)
    }
}

/// Distribution of partial-value encodings observed by the data cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EncodingStats {
    /// Count per encoding, indexed by [`UpperEncoding::code`].
    pub counts: [u64; 4],
}

impl EncodingStats {
    /// Records one observation.
    #[inline]
    pub fn record(&mut self, enc: UpperEncoding) {
        self.counts[enc.code() as usize] += 1;
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of accesses servable from the top die alone.
    pub fn top_die_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        (total - self.counts[UpperEncoding::Explicit.code() as usize]) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn classify_priorities() {
        // Zero value at an address whose upper bits are zero: Zeros wins
        // (it's checked first and is the cheapest to reconstruct).
        assert_eq!(UpperEncoding::classify(0x12, 0x34), UpperEncoding::Zeros);
        assert_eq!(UpperEncoding::classify(u64::MAX, 0x34), UpperEncoding::Ones);
    }

    #[test]
    fn code_roundtrip() {
        for code in 0..4u8 {
            assert_eq!(UpperEncoding::from_code(code).code(), code);
        }
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn bad_code_panics() {
        let _ = UpperEncoding::from_code(4);
    }

    #[test]
    fn stats_accumulate() {
        let mut s = EncodingStats::default();
        s.record(UpperEncoding::Zeros);
        s.record(UpperEncoding::Zeros);
        s.record(UpperEncoding::Explicit);
        assert_eq!(s.total(), 3);
        assert!((s.top_die_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn reconstruct_inverts_classify(value in any::<u64>(), addr in any::<u64>()) {
            let enc = UpperEncoding::classify(value, addr);
            match enc.reconstruct(value as u16, addr) {
                Some(v) => prop_assert_eq!(v, value),
                None => prop_assert_eq!(enc, UpperEncoding::Explicit),
            }
        }

        #[test]
        fn explicit_only_when_necessary(value in any::<u64>(), addr in any::<u64>()) {
            // If any non-explicit encoding could reconstruct the value,
            // classify must not pick Explicit.
            let enc = UpperEncoding::classify(value, addr);
            if enc == UpperEncoding::Explicit {
                for cand in [UpperEncoding::Zeros, UpperEncoding::Ones, UpperEncoding::AddrUpper] {
                    prop_assert_ne!(cand.reconstruct(value as u16, addr), Some(value));
                }
            }
        }
    }
}
