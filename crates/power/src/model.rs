//! The power computation: activity × energy × frequency.

use crate::energy::EnergyTable;
use th_sim::SimStats;
use th_stack3d::{ActivityMatrix, Unit, DIES};

/// Which physical design the activity is priced against.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerConfig {
    /// 4-die 3D implementation (wire-reduced energies) vs planar.
    pub three_d: bool,
    /// Thermal Herding gating active (only meaningful with `three_d`).
    pub herding: bool,
    /// Clock frequency, GHz.
    pub clock_ghz: f64,
    /// Chip-level (dual-core) clock-network power of the planar design at
    /// the baseline frequency, watts. §4: 35 % of the 90 W baseline.
    pub chip_clock_power_2d_w: f64,
    /// Chip-level leakage power, watts — §4: 20 % of the 90 W baseline,
    /// "3D organization and Thermal Herding do not reduce the leakage".
    pub chip_leakage_w: f64,
    /// Clock-power factor of the 3D implementation (§4: footprint shrinks
    /// 4×, power "conservatively" halved).
    pub clock_3d_factor: f64,
}

impl PowerConfig {
    /// Baseline planar configuration at 2.66 GHz.
    pub fn planar(clock_ghz: f64) -> PowerConfig {
        PowerConfig {
            three_d: false,
            herding: false,
            clock_ghz,
            chip_clock_power_2d_w: 0.35 * 90.0,
            chip_leakage_w: 0.20 * 90.0,
            clock_3d_factor: 0.5,
        }
    }

    /// 3D configuration (with or without herding).
    pub fn three_d(clock_ghz: f64, herding: bool) -> PowerConfig {
        PowerConfig { three_d: true, herding, ..PowerConfig::planar(clock_ghz) }
    }
}

/// Computed power, chip level.
#[derive(Clone, Debug)]
pub struct PowerBreakdown {
    /// Dynamic power per unit, watts. Core-private units appear once with
    /// both cores' activity merged. [`Unit::Clock`] has no row — the
    /// clock network is priced separately as [`PowerBreakdown::clock_w`].
    pub per_unit: Vec<(Unit, f64)>,
    /// Clock network power, watts.
    pub clock_w: f64,
    /// Leakage power, watts.
    pub leakage_w: f64,
}

impl PowerBreakdown {
    /// Dynamic (non-clock) power.
    pub fn dynamic_w(&self) -> f64 {
        self.per_unit.iter().map(|(_, w)| w).sum()
    }

    /// Total chip power.
    pub fn total_w(&self) -> f64 {
        self.dynamic_w() + self.clock_w + self.leakage_w
    }

    /// Power of one unit.
    pub fn unit_w(&self, unit: Unit) -> f64 {
        self.per_unit.iter().find(|(u, _)| *u == unit).map_or(0.0, |(_, w)| *w)
    }
}

/// Equivalent access counts for one unit: `full` accesses touch the whole
/// structure; `low` accesses are gated to the top die.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct UnitActivity {
    /// Full-width-equivalent accesses.
    pub full: f64,
    /// Gated low-width accesses.
    pub low: f64,
}

/// Derives per-unit activity from the measured [`ActivityMatrix`] the
/// pipeline recorded at each access site — the only activity source
/// pricing uses.
///
/// The ledger records *die-touches* for full accesses (one per die
/// driven), so full-access equivalents are the row sum divided by the
/// die count. With `herding` false the design cannot gate, so accesses
/// the machine recorded as gated are priced full-width.
pub fn unit_activity_ledger(ledger: &ActivityMatrix, herding: bool) -> Vec<(Unit, UnitActivity)> {
    Unit::all()
        .iter()
        .filter(|&&u| u != Unit::Clock)
        .map(|&unit| {
            let full = ledger.full_touches(unit) as f64 / DIES as f64;
            let low = ledger.low_total(unit) as f64;
            let act = if herding {
                UnitActivity { full, low }
            } else {
                UnitActivity { full: full + low, low: 0.0 }
            };
            (unit, act)
        })
        .collect()
}

/// The power model.
#[derive(Clone, Debug, Default)]
pub struct PowerModel {
    energies: EnergyTable,
}

impl PowerModel {
    /// Creates the model with the default energy table.
    pub fn new() -> PowerModel {
        PowerModel { energies: EnergyTable::new() }
    }

    /// The energy table in use.
    pub fn energies(&self) -> &EnergyTable {
        &self.energies
    }

    /// Computes chip power from (chip-aggregated) statistics.
    ///
    /// `cycles` is the time basis of the run — the cycle count of one
    /// core, not the sum over cores (both cores of the dual-core
    /// experiments run concurrently).
    ///
    /// The low/full activity split comes from the measured per-(unit,
    /// die) ledger in `stats.activity` ([`unit_activity_ledger`]).
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero.
    pub fn compute(&self, stats: &SimStats, cycles: u64, cfg: &PowerConfig) -> PowerBreakdown {
        assert!(cycles > 0, "power needs a time basis");
        let herding = cfg.three_d && cfg.herding;
        let f_hz = cfg.clock_ghz * 1e9;
        let per_second = f_hz / cycles as f64;
        let per_unit = unit_activity_ledger(&stats.activity, herding)
            .into_iter()
            .map(|(unit, act)| {
                let (e_full, e_low) = if cfg.three_d {
                    (self.energies.e3d_pj(unit), self.energies.e3d_low_pj(unit))
                } else {
                    (self.energies.e2d_pj(unit), self.energies.e2d_pj(unit))
                };
                let watts = (act.full * e_full + act.low * e_low) * 1e-12 * per_second;
                (unit, watts)
            })
            .collect();
        let clock_w = cfg.chip_clock_power_2d_w * (cfg.clock_ghz / 2.66)
            * if cfg.three_d { cfg.clock_3d_factor } else { 1.0 };
        PowerBreakdown { per_unit, clock_w, leakage_w: cfg.chip_leakage_w }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A busy run's measured ledger: `(unit, gated low accesses on the
    /// top die, full accesses spanning the stack)`.
    fn busy_stats() -> SimStats {
        let mut activity = ActivityMatrix::new();
        for (unit, low, full) in [
            (Unit::ICache, 0, 500),
            (Unit::Decode, 0, 1600),
            (Unit::Rename, 0, 1500),
            (Unit::Rob, 1800, 1200),
            (Unit::RegFile, 1900, 700),
            (Unit::IntExec, 900, 300),
            (Unit::Bypass, 900, 300),
            (Unit::Lsq, 200, 250),
            (Unit::DCache, 100, 350),
        ] {
            activity.add_low(unit, 0, low);
            activity.add_full(unit, full);
        }
        for (die, n) in [1000, 600, 200, 200].into_iter().enumerate() {
            activity.add_full_on(Unit::Scheduler, die, n);
        }
        SimStats { cycles: 1000, committed: 1500, activity, ..Default::default() }
    }

    #[test]
    fn three_d_reduces_dynamic_power_at_same_frequency() {
        let m = PowerModel::new();
        let s = busy_stats();
        let planar = m.compute(&s, 1000, &PowerConfig::planar(2.66));
        let three_d = m.compute(&s, 1000, &PowerConfig::three_d(2.66, false));
        assert!(three_d.dynamic_w() < planar.dynamic_w());
        assert!(three_d.clock_w < planar.clock_w);
        assert_eq!(three_d.leakage_w, planar.leakage_w);
    }

    #[test]
    fn herding_reduces_power_further() {
        let m = PowerModel::new();
        let s = busy_stats();
        let plain = m.compute(&s, 1000, &PowerConfig::three_d(2.66, false));
        let herded = m.compute(&s, 1000, &PowerConfig::three_d(2.66, true));
        assert!(herded.dynamic_w() < plain.dynamic_w());
        // Clock and leakage are unaffected by herding.
        assert_eq!(herded.clock_w, plain.clock_w);
        assert_eq!(herded.leakage_w, plain.leakage_w);
    }

    #[test]
    fn power_scales_with_frequency() {
        let m = PowerModel::new();
        let s = busy_stats();
        let slow = m.compute(&s, 1000, &PowerConfig::planar(2.66));
        let fast = m.compute(&s, 1000, &PowerConfig::planar(3.93));
        let ratio = fast.dynamic_w() / slow.dynamic_w();
        assert!((ratio - 3.93 / 2.66).abs() < 1e-9);
    }

    #[test]
    fn activity_conserves_accesses() {
        let s = busy_stats();
        let with = unit_activity_ledger(&s.activity, true);
        let without = unit_activity_ledger(&s.activity, false);
        for ((u1, a), (u2, b)) in with.iter().zip(&without) {
            assert_eq!(u1, u2);
            // Gating moves accesses from full to low but never loses any.
            assert!(
                ((a.full + a.low) - (b.full + b.low)).abs() < 1e-9,
                "{u1}: herded {} vs plain {}",
                a.full + a.low,
                b.full + b.low
            );
            assert_eq!(b.low, 0.0, "{u1}: a design without herding cannot gate");
        }
        let rf = with.iter().find(|(u, _)| *u == Unit::RegFile).unwrap().1;
        assert_eq!(rf, UnitActivity { full: 700.0, low: 1900.0 });
    }

    #[test]
    fn power_gated_interval_prices_zero_dynamic_watts() {
        // A cosim interval with the core power-gated records nothing.
        let stats = SimStats { cycles: 1000, ..Default::default() };
        let cfg = PowerConfig::three_d(3.93, true);
        let b = PowerModel::new().compute(&stats, 1000, &cfg);
        assert_eq!(b.dynamic_w(), 0.0);
        assert!(b.clock_w > 0.0 && b.leakage_w > 0.0);
        let table = crate::DieFractionTable::new(&stats, &EnergyTable::new(), &cfg);
        for &unit in Unit::all().iter().filter(|u| u.is_width_partitioned()) {
            assert_eq!(table.fractions(unit), [0.25; DIES], "{unit}");
        }
    }

    #[test]
    #[should_panic(expected = "time basis")]
    fn zero_cycles_rejected() {
        let m = PowerModel::new();
        let s = busy_stats();
        m.compute(&s, 0, &PowerConfig::planar(2.66));
    }
}
