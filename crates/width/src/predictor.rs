//! The PC-indexed width predictor (§3).

use crate::class::Width;
use crate::counter::SatCounter;

/// Statistics kept by the width predictor.
///
/// The paper distinguishes *unsafe* mispredictions (predicted low, actually
/// full — these stall the pipeline) from *safe* (conservative)
/// mispredictions (predicted full, actually low — no stall, just a missed
/// gating opportunity).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WidthPredictStats {
    /// Total predictions made.
    pub predictions: u64,
    /// Predicted low, actually low.
    pub correct_low: u64,
    /// Predicted full, actually full.
    pub correct_full: u64,
    /// Predicted low, actually full — pipeline stall.
    pub unsafe_mispredictions: u64,
    /// Predicted full, actually low — missed power-gating opportunity.
    pub safe_mispredictions: u64,
}

impl WidthPredictStats {
    /// Fraction of predictions that were correct (§3.8 reports ≈0.97).
    pub fn accuracy(&self) -> f64 {
        if self.predictions == 0 {
            return 1.0;
        }
        (self.correct_low + self.correct_full) as f64 / self.predictions as f64
    }

    /// Fraction of predictions that were unsafe mispredictions.
    pub fn unsafe_rate(&self) -> f64 {
        if self.predictions == 0 {
            return 0.0;
        }
        self.unsafe_mispredictions as f64 / self.predictions as f64
    }

    /// Fraction of predictions that were "low" and correct — the herding
    /// opportunity actually captured.
    pub fn low_hit_rate(&self) -> f64 {
        if self.predictions == 0 {
            return 0.0;
        }
        self.correct_low as f64 / self.predictions as f64
    }

    /// Merges another stats block into this one.
    pub fn merge(&mut self, other: &WidthPredictStats) {
        self.predictions += other.predictions;
        self.correct_low += other.correct_low;
        self.correct_full += other.correct_full;
        self.unsafe_mispredictions += other.unsafe_mispredictions;
        self.safe_mispredictions += other.safe_mispredictions;
    }
}

/// PC-indexed two-bit saturating-counter width predictor.
///
/// "We use a simple program counter (PC)-indexed two-bit saturating counter
/// predictor" (§3, citing Loh's width prediction work). A set counter
/// predicts *full* width; training moves the counter toward the observed
/// width. Counters start weakly-full so cold instructions are predicted
/// conservatively (no unsafe stalls on first encounter).
///
/// ```
/// use th_width::{Width, WidthPredictor};
/// let mut p = WidthPredictor::new(1024);
/// // Cold: conservative full-width prediction.
/// assert_eq!(p.predict(0x4000), Width::Full);
/// p.update(0x4000, Width::Low);
/// p.update(0x4000, Width::Low);
/// assert_eq!(p.predict(0x4000), Width::Low);
/// ```
#[derive(Clone, Debug)]
pub struct WidthPredictor {
    table: Vec<SatCounter>,
    stats: WidthPredictStats,
}

impl WidthPredictor {
    /// Creates a predictor with `entries` counters.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two (the index is a PC mask).
    pub fn new(entries: usize) -> WidthPredictor {
        assert!(entries.is_power_of_two(), "predictor size must be a power of two");
        WidthPredictor { table: vec![SatCounter::weakly_set(); entries], stats: WidthPredictStats::default() }
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        // Instructions are 8 bytes apart; drop the offset bits.
        ((pc >> 3) as usize) & (self.table.len() - 1)
    }

    /// Number of counters.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table is empty (never true for a constructed predictor).
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Predicts the width of the instruction at `pc` without recording
    /// statistics (useful for probing).
    #[inline]
    pub fn peek(&self, pc: u64) -> Width {
        if self.table[self.index(pc)].is_set() {
            Width::Full
        } else {
            Width::Low
        }
    }

    /// Predicts the width of the instruction at `pc`.
    #[inline]
    pub fn predict(&mut self, pc: u64) -> Width {
        self.stats.predictions += 1;
        self.peek(pc)
    }

    /// Trains the predictor with the architecturally observed width and
    /// classifies the last prediction for statistics.
    ///
    /// Returns `true` if the (implied) prediction was an *unsafe*
    /// misprediction — the caller charges the pipeline stall.
    #[inline]
    pub fn update(&mut self, pc: u64, actual: Width) -> bool {
        let idx = self.index(pc);
        let predicted = if self.table[idx].is_set() { Width::Full } else { Width::Low };
        self.table[idx].train(actual == Width::Full);
        match (predicted, actual) {
            (Width::Low, Width::Low) => {
                self.stats.correct_low += 1;
                false
            }
            (Width::Full, Width::Full) => {
                self.stats.correct_full += 1;
                false
            }
            (Width::Low, Width::Full) => {
                self.stats.unsafe_mispredictions += 1;
                true
            }
            (Width::Full, Width::Low) => {
                self.stats.safe_mispredictions += 1;
                false
            }
        }
    }

    /// Forces the entry for `pc` to predict full width — the in-pipeline
    /// correction the paper applies after detecting an unsafe
    /// misprediction ("it corrects the instruction's width prediction to
    /// prevent any further stalls", §3.1).
    #[inline]
    pub fn force_full(&mut self, pc: u64) {
        let idx = self.index(pc);
        while !self.table[idx].is_set() {
            self.table[idx].inc();
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &WidthPredictStats {
        &self.stats
    }

    /// Resets statistics (not the learned counters).
    pub fn reset_stats(&mut self) {
        self.stats = WidthPredictStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cold_predictions_are_conservative() {
        let mut p = WidthPredictor::new(64);
        for pc in (0..64u64).map(|i| i * 8) {
            assert_eq!(p.predict(pc), Width::Full, "cold entry must predict full");
        }
        assert_eq!(p.stats().predictions, 64);
        assert_eq!(p.stats().unsafe_mispredictions, 0);
    }

    #[test]
    fn learns_stable_low_width() {
        let mut p = WidthPredictor::new(64);
        for _ in 0..4 {
            p.predict(0x100);
            p.update(0x100, Width::Low);
        }
        assert_eq!(p.peek(0x100), Width::Low);
        // One full-width excursion is an unsafe mispredict, then hysteresis
        // keeps the prediction low.
        p.predict(0x100);
        assert!(p.update(0x100, Width::Full));
        assert_eq!(p.peek(0x100), Width::Low);
        assert_eq!(p.stats().unsafe_mispredictions, 1);
    }

    #[test]
    fn force_full_prevents_repeat_stalls() {
        let mut p = WidthPredictor::new(64);
        for _ in 0..4 {
            p.update(0x200, Width::Low);
        }
        assert_eq!(p.peek(0x200), Width::Low);
        p.force_full(0x200);
        assert_eq!(p.peek(0x200), Width::Full);
    }

    #[test]
    fn accuracy_on_biased_stream() {
        // 95% low-width instructions at one PC: accuracy should approach 1.
        let mut p = WidthPredictor::new(64);
        let mut correct = 0;
        for i in 0..1000 {
            let actual = if i % 20 == 19 { Width::Full } else { Width::Low };
            let predicted = p.predict(0x300);
            if predicted == actual {
                correct += 1;
            }
            p.update(0x300, actual);
        }
        assert!(correct >= 900, "correct = {correct}");
        assert!(p.stats().accuracy() > 0.9);
    }

    #[test]
    fn distinct_pcs_do_not_alias_within_capacity() {
        let mut p = WidthPredictor::new(16);
        // PCs 8 apart map to consecutive entries.
        p.update(0x0, Width::Low);
        p.update(0x0, Width::Low);
        p.update(0x8, Width::Full);
        assert_eq!(p.peek(0x0), Width::Low);
        assert_eq!(p.peek(0x8), Width::Full);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = WidthPredictor::new(100);
    }

    #[test]
    fn stats_merge() {
        let mut a = WidthPredictStats { predictions: 10, correct_low: 5, correct_full: 3, unsafe_mispredictions: 1, safe_mispredictions: 1 };
        let b = WidthPredictStats { predictions: 2, correct_low: 2, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.predictions, 12);
        assert_eq!(a.correct_low, 7);
        assert!((a.accuracy() - 10.0 / 12.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn stats_partition_predictions(pcs in proptest::collection::vec((0u64..512, any::<bool>()), 0..500)) {
            let mut p = WidthPredictor::new(32);
            for (pc, full) in pcs {
                p.predict(pc * 8);
                p.update(pc * 8, if full { Width::Full } else { Width::Low });
            }
            let s = p.stats();
            prop_assert_eq!(
                s.predictions,
                s.correct_low + s.correct_full + s.unsafe_mispredictions + s.safe_mispredictions
            );
        }

        #[test]
        fn steady_stream_converges(full in any::<bool>()) {
            let mut p = WidthPredictor::new(8);
            let w = if full { Width::Full } else { Width::Low };
            for _ in 0..4 { p.update(0x40, w); }
            prop_assert_eq!(p.peek(0x40), w);
        }
    }
}
