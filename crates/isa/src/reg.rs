//! Architectural register names.
//!
//! TH64 has 32 integer registers (`x0..x31`, with `x0` hardwired to zero)
//! and 32 floating-point registers (`f0..f31`). Both families live in one
//! flat 64-entry namespace so the rename stage of the timing model can treat
//! every architectural register uniformly.

use std::fmt;

/// An architectural register.
///
/// Integer registers occupy indices `0..=31`, floating-point registers
/// `32..=63`. [`Reg::X0`] always reads as zero and writes to it are ignored.
///
/// ```
/// use th_isa::Reg;
/// assert_eq!(Reg::X5.index(), 5);
/// assert_eq!(Reg::F0.index(), 32);
/// assert!(Reg::F3.is_fp());
/// assert_eq!(Reg::from_index(33), Some(Reg::F1));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(u8);

#[allow(missing_docs)]
impl Reg {
    pub const X0: Reg = Reg(0);
    pub const X1: Reg = Reg(1);
    pub const X2: Reg = Reg(2);
    pub const X3: Reg = Reg(3);
    pub const X4: Reg = Reg(4);
    pub const X5: Reg = Reg(5);
    pub const X6: Reg = Reg(6);
    pub const X7: Reg = Reg(7);
    pub const X8: Reg = Reg(8);
    pub const X9: Reg = Reg(9);
    pub const X10: Reg = Reg(10);
    pub const X11: Reg = Reg(11);
    pub const X12: Reg = Reg(12);
    pub const X13: Reg = Reg(13);
    pub const X14: Reg = Reg(14);
    pub const X15: Reg = Reg(15);
    pub const X16: Reg = Reg(16);
    pub const X17: Reg = Reg(17);
    pub const X18: Reg = Reg(18);
    pub const X19: Reg = Reg(19);
    pub const X20: Reg = Reg(20);
    pub const X21: Reg = Reg(21);
    pub const X22: Reg = Reg(22);
    pub const X23: Reg = Reg(23);
    pub const X24: Reg = Reg(24);
    pub const X25: Reg = Reg(25);
    pub const X26: Reg = Reg(26);
    pub const X27: Reg = Reg(27);
    pub const X28: Reg = Reg(28);
    pub const X29: Reg = Reg(29);
    pub const X30: Reg = Reg(30);
    pub const X31: Reg = Reg(31);
    pub const F0: Reg = Reg(32);
    pub const F1: Reg = Reg(33);
    pub const F2: Reg = Reg(34);
    pub const F3: Reg = Reg(35);
    pub const F4: Reg = Reg(36);
    pub const F5: Reg = Reg(37);
    pub const F6: Reg = Reg(38);
    pub const F7: Reg = Reg(39);
    pub const F8: Reg = Reg(40);
    pub const F9: Reg = Reg(41);
    pub const F10: Reg = Reg(42);
    pub const F11: Reg = Reg(43);
    pub const F12: Reg = Reg(44);
    pub const F13: Reg = Reg(45);
    pub const F14: Reg = Reg(46);
    pub const F15: Reg = Reg(47);
    pub const F16: Reg = Reg(48);
    pub const F17: Reg = Reg(49);
    pub const F18: Reg = Reg(50);
    pub const F19: Reg = Reg(51);
    pub const F20: Reg = Reg(52);
    pub const F21: Reg = Reg(53);
    pub const F22: Reg = Reg(54);
    pub const F23: Reg = Reg(55);
    pub const F24: Reg = Reg(56);
    pub const F25: Reg = Reg(57);
    pub const F26: Reg = Reg(58);
    pub const F27: Reg = Reg(59);
    pub const F28: Reg = Reg(60);
    pub const F29: Reg = Reg(61);
    pub const F30: Reg = Reg(62);
    pub const F31: Reg = Reg(63);
}

impl Reg {
    /// Total number of architectural registers (integer + floating point).
    pub const COUNT: usize = 64;

    /// The `n`-th integer register.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    pub fn x(n: u8) -> Reg {
        assert!(n < 32, "integer register index {n} out of range");
        Reg(n)
    }

    /// The `n`-th floating-point register.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    pub fn f(n: u8) -> Reg {
        assert!(n < 32, "fp register index {n} out of range");
        Reg(32 + n)
    }

    /// Flat index into the 64-entry architectural register file.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a register from its flat index, or `None` if out of range.
    pub fn from_index(index: usize) -> Option<Reg> {
        if index < Self::COUNT {
            Some(Reg(index as u8))
        } else {
            None
        }
    }

    /// Whether this is a floating-point register.
    #[inline]
    pub fn is_fp(self) -> bool {
        self.0 >= 32
    }

    /// Whether this is the hardwired zero register `x0`.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_fp() {
            write!(f, "f{}", self.0 - 32)
        } else {
            write!(f, "x{}", self.0)
        }
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Parses a register name (`x0..x31`, `f0..f31`).
pub(crate) fn parse_reg(s: &str) -> Option<Reg> {
    let (family, num) = s.split_at(1.min(s.len()));
    let n: u8 = num.parse().ok()?;
    if n >= 32 {
        return None;
    }
    match family {
        "x" | "X" => Some(Reg::x(n)),
        "f" | "F" => Some(Reg::f(n)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        for i in 0..Reg::COUNT {
            let r = Reg::from_index(i).unwrap();
            assert_eq!(r.index(), i);
        }
        assert_eq!(Reg::from_index(64), None);
    }

    #[test]
    fn families() {
        assert!(!Reg::X31.is_fp());
        assert!(Reg::F0.is_fp());
        assert!(Reg::X0.is_zero());
        assert!(!Reg::F0.is_zero());
        assert_eq!(Reg::x(7), Reg::X7);
        assert_eq!(Reg::f(7), Reg::F7);
    }

    #[test]
    fn display_names() {
        assert_eq!(Reg::X0.to_string(), "x0");
        assert_eq!(Reg::X31.to_string(), "x31");
        assert_eq!(Reg::F0.to_string(), "f0");
        assert_eq!(Reg::F31.to_string(), "f31");
    }

    #[test]
    fn parse_names() {
        assert_eq!(parse_reg("x0"), Some(Reg::X0));
        assert_eq!(parse_reg("f15"), Some(Reg::F15));
        assert_eq!(parse_reg("X2"), Some(Reg::X2));
        assert_eq!(parse_reg("x32"), None);
        assert_eq!(parse_reg("y1"), None);
        assert_eq!(parse_reg(""), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn x_out_of_range_panics() {
        let _ = Reg::x(32);
    }
}
