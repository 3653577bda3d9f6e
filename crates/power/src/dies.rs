//! Vertical (per-die) power distribution — the herding payoff the
//! thermal model consumes.

use crate::energy::EnergyTable;
use crate::model::PowerConfig;
use th_sim::SimStats;
use th_stack3d::{Unit, DIES};

/// Per-unit die fractions for one run, computed once and read many times.
///
/// Building the table resolves every unit's vertical power split in a
/// single pass (one ledger-row read per unit); consumers that paint many
/// placements or price every interval query rows for free instead of
/// re-deriving the split per unit.
#[derive(Clone, Debug)]
pub struct DieFractionTable {
    rows: [[f64; DIES]; Unit::COUNT],
}

impl DieFractionTable {
    /// Resolves the per-die split of every unit for `stats` under `cfg`.
    ///
    /// * Planar designs put everything on the single die.
    /// * A 3D design without herding splits every block evenly.
    /// * With herding, measured ledger rows decide the split for every
    ///   width-partitioned unit (and the BTB); the scheduler follows its
    ///   per-die entry residency. Hardcoded splits survive only for the
    ///   two units whose internal placement the simulator genuinely does
    ///   not resolve: the branch predictor's direction array sits on the
    ///   top two dies and the rename dependency-check chain is biased
    ///   upward (§3.7).
    pub fn new(stats: &SimStats, energies: &EnergyTable, cfg: &PowerConfig) -> DieFractionTable {
        let row = if !cfg.three_d {
            Some([1.0, 0.0, 0.0, 0.0])
        } else if !cfg.herding {
            Some([0.25; DIES])
        } else {
            None
        };
        if let Some(row) = row {
            let table = DieFractionTable { rows: [row; Unit::COUNT] };
            table.validate();
            return table;
        }

        let even = [0.25; DIES];
        let mut rows = [even; Unit::COUNT];
        for &unit in Unit::all() {
            rows[unit.index()] = match unit {
                Unit::Scheduler => scheduler_fractions(stats),
                Unit::Bpred => [0.35, 0.35, 0.15, 0.15],
                Unit::Rename => [0.40, 0.20, 0.20, 0.20],
                _ if unit.is_width_partitioned() || unit == Unit::Btb => {
                    ledger_fractions(unit, stats, energies)
                }
                _ => even,
            };
        }
        let table = DieFractionTable { rows };
        table.validate();
        table
    }

    /// How `unit`'s power distributes over the four dies (die 0 =
    /// adjacent to the heat sink). Fractions sum to 1.
    pub fn fractions(&self, unit: Unit) -> [f64; DIES] {
        self.rows[unit.index()]
    }

    /// Debug-time invariant: every row — including the hardcoded
    /// Bpred/Rename splits — is a distribution (non-negative, sums to 1
    /// within 1e-9).
    fn validate(&self) {
        if cfg!(debug_assertions) {
            for &unit in Unit::all() {
                let row = self.rows[unit.index()];
                let sum: f64 = row.iter().sum();
                debug_assert!(
                    (sum - 1.0).abs() < 1e-9,
                    "{unit} die fractions sum to {sum}, not 1: {row:?}"
                );
                debug_assert!(
                    row.iter().all(|f| *f >= 0.0),
                    "{unit} has a negative die fraction: {row:?}"
                );
            }
        }
    }
}

/// Entry-*residency* per die, not allocation counts: a waiting entry
/// keeps its comparators matching every broadcast cycle, so power follows
/// occupancy time.
fn scheduler_fractions(stats: &SimStats) -> [f64; DIES] {
    let residency = stats.rs_occupancy_cycles_per_die;
    let total: u64 = residency.iter().sum();
    if total == 0 {
        return [0.25; DIES];
    }
    let mut f = [0.0; DIES];
    for (fr, n) in f.iter_mut().zip(residency) {
        *fr = n as f64 / total as f64;
    }
    f
}

/// Energy-weighted split straight from the measured ledger row: each
/// die's share is the energy its recorded touches dissipated (gated
/// accesses at the low-access energy on the die they landed on, each
/// full-access die-touch at a quarter of the full-access energy).
fn ledger_fractions(unit: Unit, stats: &SimStats, energies: &EnergyTable) -> [f64; DIES] {
    let e_full_touch = energies.e3d_pj(unit) / DIES as f64;
    let e_low = energies.e3d_low_pj(unit);
    let row = stats.activity.row(unit);
    let mut energy = [0.0; DIES];
    for (e, cell) in energy.iter_mut().zip(row.iter()) {
        *e = cell.low as f64 * e_low + cell.full as f64 * e_full_touch;
    }
    let total: f64 = energy.iter().sum();
    if total <= 0.0 {
        return [0.25; DIES];
    }
    let mut f = [0.0; DIES];
    for (fr, e) in f.iter_mut().zip(energy) {
        *fr = e / total;
    }
    f
}

/// Sanity helper: the top-die share of total dynamic power, given a full
/// per-unit power breakdown.
pub fn top_die_share(
    breakdown: &crate::model::PowerBreakdown,
    stats: &SimStats,
    energies: &EnergyTable,
    cfg: &PowerConfig,
) -> f64 {
    let table = DieFractionTable::new(stats, energies, cfg);
    let mut top = 0.0;
    let mut total = 0.0;
    for (unit, w) in &breakdown.per_unit {
        top += table.fractions(*unit)[0] * w;
        total += w;
    }
    if total == 0.0 {
        0.0
    } else {
        top / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PowerModel;
    use th_stack3d::ActivityMatrix;

    /// A herded run's measured ledger (mostly gated accesses on the top
    /// die) plus scheduler entry residency concentrated on die 0.
    fn herded_stats() -> SimStats {
        let mut activity = ActivityMatrix::new();
        for (unit, low, full) in [
            (Unit::RegFile, 2400, 300),
            (Unit::IntExec, 1500, 200),
            (Unit::Bypass, 1500, 200),
        ] {
            activity.add_low(unit, 0, low);
            activity.add_full(unit, full);
        }
        SimStats {
            cycles: 1000,
            rs_occupancy_cycles_per_die: [1800, 150, 40, 10],
            activity,
            ..Default::default()
        }
    }

    fn table(stats: &SimStats, cfg: &PowerConfig) -> DieFractionTable {
        DieFractionTable::new(stats, &EnergyTable::new(), cfg)
    }

    #[test]
    fn planar_is_single_die() {
        let t = table(&herded_stats(), &PowerConfig::planar(2.66));
        assert_eq!(t.fractions(Unit::RegFile), [1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn plain_3d_is_uniform() {
        let t = table(&herded_stats(), &PowerConfig::three_d(3.93, false));
        assert_eq!(t.fractions(Unit::RegFile), [0.25; 4]);
    }

    #[test]
    fn herding_biases_partitioned_units_to_the_top() {
        let t = table(&herded_stats(), &PowerConfig::three_d(3.93, true));
        for unit in [Unit::RegFile, Unit::IntExec, Unit::Bypass] {
            let f = t.fractions(unit);
            assert!(f[0] > 0.5, "{unit} top-die share {:.2}", f[0]);
            let sum: f64 = f.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn ledger_rows_drive_measured_fractions() {
        let cfg = PowerConfig::three_d(3.93, true);
        let mut stats = SimStats::default();
        let mut ledger = ActivityMatrix::new();
        // 300 gated reads on the top die, 100 full accesses.
        ledger.add_low(Unit::RegFile, 0, 300);
        ledger.add_full(Unit::RegFile, 100);
        stats.activity = ledger;
        let f = table(&stats, &cfg).fractions(Unit::RegFile);
        assert!(f[0] > 0.5, "measured top-die share {:.3}", f[0]);
        // The lower three dies carry identical full-access energy.
        assert!((f[1] - f[2]).abs() < 1e-12 && (f[2] - f[3]).abs() < 1e-12);
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn scheduler_follows_allocation() {
        // Entries stay resident on the die they were allocated to; power
        // follows that residency.
        let t = table(&herded_stats(), &PowerConfig::three_d(3.93, true));
        let f = t.fractions(Unit::Scheduler);
        assert!(f[0] > 0.85, "scheduler top-die {:.2}", f[0]);
        assert!(f[3] < 0.02);
    }

    #[test]
    fn front_end_arrays_stay_uniform_except_bpred() {
        let t = table(&herded_stats(), &PowerConfig::three_d(3.93, true));
        assert_eq!(t.fractions(Unit::ICache), [0.25; 4]);
        let bpred = t.fractions(Unit::Bpred);
        assert!(bpred[0] + bpred[1] > 0.6);
    }

    #[test]
    fn top_die_share_reflects_herding() {
        let stats = herded_stats();
        let model = PowerModel::new();
        let cfg_h = PowerConfig::three_d(3.93, true);
        let cfg_p = PowerConfig::three_d(3.93, false);
        let b_h = model.compute(&stats, 1000, &cfg_h);
        let b_p = model.compute(&stats, 1000, &cfg_p);
        let herded = top_die_share(&b_h, &stats, model.energies(), &cfg_h);
        let plain = top_die_share(&b_p, &stats, model.energies(), &cfg_p);
        assert!(herded > 0.5, "herded top-die share {herded:.2}");
        assert!((plain - 0.25).abs() < 1e-9);
    }
}
