//! Event-sourced per-(unit, die) activity ledger.
//!
//! The pipeline records, at the moment each access executes, exactly
//! which dies of which unit it drove. The power model prices watts, and
//! the per-die power split the thermal model consumes, straight from
//! these measured counters — they are its only activity source.
//!
//! # Die-touch semantics
//!
//! Each cell of the matrix holds two counters:
//!
//! * **`low`** — width-gated accesses: the access touched *only* this
//!   die (in the significance-partitioned datapath, always die 0, the
//!   one adjacent to the heat sink). Each gated access adds 1 to the
//!   die it landed on and is priced at the unit's low-access energy.
//! * **`full`** — die-touches of full-width accesses: a full access
//!   drives all four dies of the folded stack and adds 1 to *every*
//!   die it drives. Pricing divides the row sum by [`DIES`] to recover
//!   full-access equivalents, so the geometry (how many dies a full
//!   access spans) stays the ledger's concern and the per-access energy
//!   stays the price list's.
//!
//! Planar and non-herded 3D runs record everything as full die-touches;
//! whether gating *happens* in the machine is decided where the access
//! executes, so the ledger is a faithful trace, not a model.

use crate::blocks::Unit;
use crate::DIES;

/// Activity of one `(unit, die)` cell: gated (low) accesses that landed
/// on this die, and die-touches of full-width accesses that drove it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ActivityCell {
    /// Width-gated accesses that touched only this die.
    pub low: u64,
    /// Die-touches by full-width accesses (one per die driven).
    pub full: u64,
}

/// Counters keyed by `(Unit, die)`, recorded at every pipeline access
/// site and carried in the simulator's statistics block with
/// snapshot/delta/merge semantics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ActivityMatrix {
    cells: [[ActivityCell; DIES]; Unit::COUNT],
}

impl ActivityMatrix {
    /// A zeroed ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one gated access to `unit` landing on `die` alone.
    #[inline]
    pub fn record_low(&mut self, unit: Unit, die: usize) {
        self.cells[unit.index()][die].low += 1;
    }

    /// Records `n` gated accesses to `unit` on `die`.
    #[inline]
    pub fn add_low(&mut self, unit: Unit, die: usize, n: u64) {
        self.cells[unit.index()][die].low += n;
    }

    /// Records one full-width access to `unit` driving every die.
    #[inline]
    pub fn record_full(&mut self, unit: Unit) {
        for d in 0..DIES {
            self.cells[unit.index()][d].full += 1;
        }
    }

    /// Records `n` full-width accesses to `unit`, each driving every die.
    #[inline]
    pub fn add_full(&mut self, unit: Unit, n: u64) {
        for d in 0..DIES {
            self.cells[unit.index()][d].full += n;
        }
    }

    /// Records `n` die-touches of full-width class on one specific die —
    /// for units whose full accesses do *not* span the stack uniformly
    /// (e.g. scheduler entries resident on their allocation die).
    #[inline]
    pub fn add_full_on(&mut self, unit: Unit, die: usize, n: u64) {
        self.cells[unit.index()][die].full += n;
    }

    /// The per-die cells of one unit.
    #[inline]
    pub fn row(&self, unit: Unit) -> &[ActivityCell; DIES] {
        &self.cells[unit.index()]
    }

    /// Total gated accesses recorded for `unit` (sum over dies).
    pub fn low_total(&self, unit: Unit) -> u64 {
        self.row(unit).iter().map(|c| c.low).sum()
    }

    /// Total full-width die-touches recorded for `unit` (sum over dies).
    /// Divide by [`DIES`] for full-access equivalents when every full
    /// access spans the whole stack.
    pub fn full_touches(&self, unit: Unit) -> u64 {
        self.row(unit).iter().map(|c| c.full).sum()
    }

    /// True if no activity has been recorded anywhere.
    pub fn is_empty(&self) -> bool {
        self.cells.iter().flatten().all(|c| c.low == 0 && c.full == 0)
    }

    /// Adds another ledger's counters into this one. Associative and
    /// commutative, so parallel fan-out/reduce order never matters.
    pub fn merge(&mut self, other: &ActivityMatrix) {
        for (row, orow) in self.cells.iter_mut().zip(other.cells.iter()) {
            for (c, oc) in row.iter_mut().zip(orow.iter()) {
                c.low += oc.low;
                c.full += oc.full;
            }
        }
    }

    /// Subtracts an earlier snapshot of the same run, leaving the
    /// activity accumulated since it was taken.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `prefix` is componentwise ≤ `self`.
    pub fn subtract_prefix(&mut self, prefix: &ActivityMatrix) {
        for (row, prow) in self.cells.iter_mut().zip(prefix.cells.iter()) {
            for (c, pc) in row.iter_mut().zip(prow.iter()) {
                debug_assert!(c.low >= pc.low && c.full >= pc.full, "activity underflow");
                c.low -= pc.low;
                c.full -= pc.full;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_low_lands_on_one_die() {
        let mut m = ActivityMatrix::new();
        m.record_low(Unit::RegFile, 0);
        m.record_low(Unit::RegFile, 0);
        assert_eq!(m.row(Unit::RegFile)[0], ActivityCell { low: 2, full: 0 });
        assert_eq!(m.low_total(Unit::RegFile), 2);
        assert_eq!(m.full_touches(Unit::RegFile), 0);
    }

    #[test]
    fn record_full_touches_every_die() {
        let mut m = ActivityMatrix::new();
        m.record_full(Unit::DCache);
        m.add_full(Unit::DCache, 2);
        for d in 0..DIES {
            assert_eq!(m.row(Unit::DCache)[d].full, 3, "die {d}");
        }
        assert_eq!(m.full_touches(Unit::DCache), 12);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mut a = ActivityMatrix::new();
        a.record_low(Unit::Lsq, 0);
        a.record_full(Unit::ICache);
        let mut b = ActivityMatrix::new();
        b.add_full_on(Unit::Scheduler, 2, 5);
        let mut c = ActivityMatrix::new();
        c.add_low(Unit::IntExec, 0, 7);

        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut a_bc = b.clone();
        a_bc.merge(&c);
        a_bc.merge(&a);
        assert_eq!(ab_c, a_bc);
    }

    #[test]
    fn subtract_prefix_inverts_merge() {
        let mut a = ActivityMatrix::new();
        a.record_low(Unit::Rob, 0);
        a.add_full(Unit::Bypass, 4);
        let snap = a.clone();
        a.record_full(Unit::Bypass);
        a.record_low(Unit::Rob, 0);
        let mut delta = a.clone();
        delta.subtract_prefix(&snap);
        assert_eq!(delta.low_total(Unit::Rob), 1);
        assert_eq!(delta.full_touches(Unit::Bypass), DIES as u64);
        let mut rebuilt = snap;
        rebuilt.merge(&delta);
        assert_eq!(rebuilt, a);
    }

    #[test]
    fn empty_detection() {
        let mut m = ActivityMatrix::new();
        assert!(m.is_empty());
        m.record_low(Unit::Btb, 0);
        assert!(!m.is_empty());
    }
}
