//! Figure 9: chip power distribution for the planar baseline, the 3D
//! implementation without Thermal Herding, and the full 3D Thermal
//! Herding design — plus the per-application total-power savings range
//! (§5.2: 15 % for `yacr2` to 30 % for `susan`).

use super::run_grid;
use crate::config::Variant;
use crate::run::ChipResult;
use std::fmt;
use th_stack3d::Unit;
use th_workloads::workload_names;

/// One bar of Figure 9: the per-unit power distribution of one design.
#[derive(Clone, Debug)]
pub struct Fig9Bar {
    /// Design point.
    pub variant: Variant,
    /// The underlying run.
    pub result: ChipResult,
}

impl Fig9Bar {
    /// Total chip power.
    pub fn total_w(&self) -> f64 {
        self.result.power.total_w()
    }
}

/// Per-application power saving of the full 3D design over the baseline.
#[derive(Clone, Debug)]
pub struct PowerSaving {
    /// Workload name.
    pub workload: &'static str,
    /// Baseline chip power, watts.
    pub base_w: f64,
    /// 3D Thermal Herding chip power, watts.
    pub three_d_w: f64,
}

impl PowerSaving {
    /// Fractional saving (paper range: 0.15–0.30).
    pub fn saving(&self) -> f64 {
        1.0 - self.three_d_w / self.base_w
    }
}

/// The full Figure 9 result.
#[derive(Clone, Debug)]
pub struct Fig9 {
    /// The three bars, running the peak-power workload (`mpeg2`-like on
    /// both cores): Base ≈ 90 W, 3D ≈ 72.7 W, 3D+TH ≈ 64.3 W.
    pub bars: Vec<Fig9Bar>,
    /// Savings for every workload (paper: 15 %–30 %).
    pub savings: Vec<PowerSaving>,
}

impl Fig9 {
    /// The bar for one design point.
    pub fn bar(&self, variant: Variant) -> &Fig9Bar {
        self.bars.iter().find(|b| b.variant == variant).expect("bar exists")
    }

    /// Measured per-unit top-die power fractions of the full 3D design's
    /// peak-power run — the herding payoff read straight from the
    /// activity ledger (width-partitioned units plus the scheduler).
    pub fn measured_top_die(&self) -> Vec<(Unit, f64)> {
        let table = self.bar(Variant::ThreeD).result.die_table();
        Unit::all()
            .iter()
            .filter(|u| u.is_width_partitioned() || **u == Unit::Scheduler)
            .map(|&u| (u, table.fractions(u)[0]))
            .collect()
    }

    /// Minimum and maximum fractional savings across workloads.
    pub fn savings_range(&self) -> (f64, f64) {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for s in &self.savings {
            min = min.min(s.saving());
            max = max.max(s.saving());
        }
        (min, max)
    }
}

/// The workload of Figure 9's three bars (the peak-power application).
pub const BAR_WORKLOAD: &str = "mpeg2-like";

/// The Figure 9 grid: every workload × {planar, 3D with herding} for
/// the savings, workload-major, then [`BAR_WORKLOAD`] × 3D without
/// herding for the middle bar. The outer bars reuse the savings runs.
pub fn grid() -> impl Iterator<Item = (&'static str, Variant)> {
    workload_names()
        .flat_map(|name| [(name, Variant::Base), (name, Variant::ThreeD)])
        .chain(std::iter::once((BAR_WORKLOAD, Variant::ThreeDNoTh)))
}

/// Runs the Figure 9 experiment over [`grid`], fanned out over the
/// global [`th_exec::pool`].
pub fn run(max_insts: u64) -> Fig9 {
    run_with_pool(max_insts, th_exec::pool())
}

/// [`run`] on an explicit pool. Results are reduced in grid order, so
/// the output is identical for any thread count.
pub fn run_with_pool(max_insts: u64, pool: &th_exec::Pool) -> Fig9 {
    let results = run_grid(grid(), max_insts, pool);
    let (no_th, pairs) = results.split_last().expect("middle bar run");
    let savings = pairs
        .chunks(2)
        .map(|pair| PowerSaving {
            workload: pair[0].workload,
            base_w: pair[0].power.total_w(),
            three_d_w: pair[1].power.total_w(),
        })
        .collect();
    let bar = |variant: Variant| {
        pairs.iter().find(|r| r.variant == variant && r.workload == BAR_WORKLOAD).expect("bar run")
    };
    let bars = [bar(Variant::Base), no_th, bar(Variant::ThreeD)]
        .into_iter()
        .map(|result| Fig9Bar { variant: result.variant, result: result.clone() })
        .collect();

    Fig9 { bars, savings }
}

impl fmt::Display for Fig9 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 9: chip power running {BAR_WORKLOAD} on both cores")?;
        writeln!(
            f,
            "{:<12} {:>10} {:>10} {:>10} {:>10}",
            "Unit",
            self.bars[0].variant.label(),
            self.bars[1].variant.label(),
            self.bars[2].variant.label(),
            "paper"
        )?;
        for &unit in Unit::all() {
            if unit == Unit::Clock {
                continue; // reported via the dedicated clock-network row
            }
            write!(f, "{:<12}", unit.label())?;
            for bar in &self.bars {
                write!(f, "{:>10.2}", bar.result.power.unit_w(unit))?;
            }
            writeln!(f)?;
        }
        for (label, get) in [
            ("Clock", (|b: &Fig9Bar| b.result.power.clock_w) as fn(&Fig9Bar) -> f64),
            ("Leakage", |b| b.result.power.leakage_w),
            ("TOTAL", |b| b.total_w()),
        ] {
            write!(f, "{label:<12}")?;
            for bar in &self.bars {
                write!(f, "{:>10.2}", get(bar))?;
            }
            writeln!(f)?;
        }
        let paper = [90.0, 72.7, 64.3];
        write!(f, "{:<12}", "paper total")?;
        for p in paper {
            write!(f, "{p:>10.1}")?;
        }
        writeln!(f)?;
        writeln!(f)?;
        let (min, max) = self.savings_range();
        writeln!(
            f,
            "Per-application 3D+TH savings: {:.1}%..{:.1}% (paper: 15%..30%)",
            100.0 * min,
            100.0 * max
        )?;
        for s in &self.savings {
            writeln!(
                f,
                "  {:<16} {:>6.1} W -> {:>6.1} W  ({:>4.1}%)",
                s.workload,
                s.base_w,
                s.three_d_w,
                100.0 * s.saving()
            )?;
        }
        writeln!(f)?;
        writeln!(f, "Measured top-die power fraction (3D+TH, activity ledger):")?;
        for (unit, frac) in self.measured_top_die() {
            writeln!(f, "  {:<12} {:>5.1}%", unit.label(), 100.0 * frac)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bars_and_savings_are_structurally_sound() {
        let fig9 = run(15_000);
        assert_eq!(fig9.bars.len(), 3);
        // Ordering of the three bars must hold even at tiny budgets.
        let base = fig9.bar(Variant::Base).total_w();
        let noth = fig9.bar(Variant::ThreeDNoTh).total_w();
        let th = fig9.bar(Variant::ThreeD).total_w();
        assert!(base > noth, "planar {base:.1} !> 3D {noth:.1}");
        assert!(noth >= th, "3D {noth:.1} !>= TH {th:.1}");
        assert_eq!(fig9.savings.len(), th_workloads::all_workloads().len());
        let (min, max) = fig9.savings_range();
        assert!(min > 0.0, "some workload lost power savings: {min:.3}");
        assert!(max < 0.5, "implausible saving {max:.3}");
        let text = fig9.to_string();
        assert!(text.contains("TOTAL"));
        assert!(text.contains("Per-application"));
        assert!(text.contains("Measured top-die"));
        // The herded design must measurably concentrate the register
        // file's power on the top die (well above the even 25% split).
        let rf = fig9
            .measured_top_die()
            .into_iter()
            .find(|(u, _)| *u == Unit::RegFile)
            .map(|(_, f)| f)
            .unwrap();
        assert!(rf > 0.4, "measured RF top-die fraction {rf:.3}");
    }
}
