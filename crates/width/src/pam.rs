//! Partial address memoization for the load/store queues (§3.5).

/// Outcome of one LSQ address broadcast under partial address memoization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PamOutcome {
    /// The low 16 address bits that are always broadcast on the top die.
    pub low16: u16,
    /// Whether the upper 48 bits matched the most recent store address
    /// ("we broadcast an extra bit that indicates whether the remaining 48
    /// bits are identical to those of the most recent store address").
    pub upper_match: bool,
}

/// Tracks the most recent store address and classifies each broadcast.
///
/// When `upper_match` is true, the comparison activity stays on the top
/// die; otherwise the lower three dies must participate.
///
/// ```
/// use th_width::PartialAddressMemoizer;
/// let mut pam = PartialAddressMemoizer::new();
/// pam.record_store(0x7fff_0000_1000);
/// // A stack-like load near the last store: upper bits match.
/// assert!(pam.broadcast_load(0x7fff_0000_1040).upper_match);
/// // A heap access far away: full broadcast.
/// assert!(!pam.broadcast_load(0x1234_5678_9000).upper_match);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct PartialAddressMemoizer {
    last_store_upper: Option<u64>,
    stats: PamStats,
}

/// Accumulated PAM statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PamStats {
    /// Broadcasts whose upper 48 bits matched the memoized store address.
    pub matches: u64,
    /// Broadcasts requiring all four dies.
    pub misses: u64,
}

impl PamStats {
    /// Total broadcasts observed.
    pub fn total(&self) -> u64 {
        self.matches + self.misses
    }

    /// Fraction of broadcasts herded to the top die.
    pub fn match_rate(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.matches as f64 / t as f64
        }
    }
}

impl PartialAddressMemoizer {
    const UPPER: u64 = !0xffffu64;

    /// Creates an empty memoizer (no store seen yet: everything misses).
    pub fn new() -> PartialAddressMemoizer {
        PartialAddressMemoizer::default()
    }

    #[inline]
    fn classify(&mut self, addr: u64) -> PamOutcome {
        let upper_match = self.last_store_upper == Some(addr & Self::UPPER);
        if upper_match {
            self.stats.matches += 1;
        } else {
            self.stats.misses += 1;
        }
        PamOutcome { low16: addr as u16, upper_match }
    }

    /// Classifies a load-address broadcast against the memoized store
    /// address.
    #[inline]
    pub fn broadcast_load(&mut self, addr: u64) -> PamOutcome {
        self.classify(addr)
    }

    /// Classifies a store-address broadcast, then memoizes this store as
    /// the new reference.
    #[inline]
    pub fn broadcast_store(&mut self, addr: u64) -> PamOutcome {
        let out = self.classify(addr);
        self.record_store(addr);
        out
    }

    /// Updates the memoized "most recent store address" without counting a
    /// broadcast.
    #[inline]
    pub fn record_store(&mut self, addr: u64) {
        self.last_store_upper = Some(addr & Self::UPPER);
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &PamStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cold_memoizer_misses() {
        let mut pam = PartialAddressMemoizer::new();
        assert!(!pam.broadcast_load(0x1000).upper_match);
    }

    #[test]
    fn stack_locality_herds_broadcasts() {
        let mut pam = PartialAddressMemoizer::new();
        let stack = 0x7fff_ffff_0000u64;
        pam.record_store(stack);
        // 64 KiB window shares the upper 48 bits.
        for off in (0..0x10000u64).step_by(8) {
            assert!(pam.broadcast_load(stack & !0xffff | off).upper_match);
        }
        assert_eq!(pam.stats().misses, 0);
    }

    #[test]
    fn store_updates_reference() {
        let mut pam = PartialAddressMemoizer::new();
        pam.record_store(0x1_0000);
        assert!(!pam.broadcast_store(0xaaaa_0000_0000).upper_match); // miss, then memoized
        assert!(pam.broadcast_load(0xaaaa_0000_1234).upper_match);
    }

    #[test]
    fn low16_is_always_broadcast() {
        let mut pam = PartialAddressMemoizer::new();
        assert_eq!(pam.broadcast_load(0xdead_beef_cafe).low16, 0xcafe);
    }

    #[test]
    fn match_rate() {
        let mut pam = PartialAddressMemoizer::new();
        pam.record_store(0);
        pam.broadcast_load(8); // match
        pam.broadcast_load(1 << 20); // miss
        assert!((pam.stats().match_rate() - 0.5).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn match_iff_upper_bits_equal(store in any::<u64>(), load in any::<u64>()) {
            let mut pam = PartialAddressMemoizer::new();
            pam.record_store(store);
            let out = pam.broadcast_load(load);
            prop_assert_eq!(out.upper_match, store >> 16 == load >> 16);
            prop_assert_eq!(out.low16, load as u16);
        }

        #[test]
        fn stats_total_counts_broadcasts(addrs in proptest::collection::vec(any::<u64>(), 0..100)) {
            let mut pam = PartialAddressMemoizer::new();
            for (i, a) in addrs.iter().enumerate() {
                if i % 2 == 0 { pam.broadcast_load(*a); } else { pam.broadcast_store(*a); }
            }
            prop_assert_eq!(pam.stats().total(), addrs.len() as u64);
        }
    }
}
