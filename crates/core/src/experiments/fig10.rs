//! Figure 10: thermal maps and hotspots.
//!
//! * (a–c) worst-case temperatures over the workload set for the planar
//!   baseline (paper: 360 K, scheduler), 3D without herding (377 K,
//!   +17 K), and 3D with herding (372 K, +12 K — a 29 % reduction in the
//!   3D temperature increase, with the hotspot moving to the data cache
//!   under `yacr2`);
//! * (d–f) the three designs running one common application;
//! * the §5.3 iso-power study: the 3D stack forced to the planar
//!   design's 90 W at 2.66 GHz (4× power density) reached 418 K;
//! * the §5.3 ROB statistic: ≈5× more low-width reads and ≈2× more
//!   low-width writes than full-width.

use super::run_grid;
use crate::config::Variant;
use crate::thermal::{thermal_analysis, ThermalAnalysis};
use std::fmt;
use th_stack3d::Unit;
use th_workloads::workload_names;

/// Worst-case thermal outcome for one design point.
#[derive(Clone, Debug)]
pub struct WorstCase {
    /// Design point.
    pub variant: Variant,
    /// The workload that produced the worst hotspot.
    pub workload: &'static str,
    /// The analysis.
    pub analysis: ThermalAnalysis,
}

impl WorstCase {
    /// Peak temperature, kelvin.
    pub fn peak_k(&self) -> f64 {
        self.analysis.peak_k()
    }

    /// The hottest block.
    pub fn hottest_unit(&self) -> Unit {
        self.analysis.hottest_unit().0
    }
}

/// The full Figure 10 result.
#[derive(Clone, Debug)]
pub struct Fig10 {
    /// Worst case per design point (Figure 10a-c).
    pub worst: Vec<WorstCase>,
    /// The three designs running the same application (Figure 10d-f).
    pub same_app: Vec<ThermalAnalysis>,
    /// Name of the common application used for (d-f).
    pub same_app_workload: &'static str,
    /// §5.3 iso-power peak: 3D stack at the planar 90 W / 2.66 GHz point.
    pub iso_power_peak_k: f64,
    /// §5.3 ROB width statistics under the 3D design: (low-width reads /
    /// full-width reads, low-width writes / full-width writes).
    pub rob_ratios: (f64, f64),
    /// Measured top-die power fraction per width-partitioned unit under
    /// the 3D design, from the activity ledger aggregated over every
    /// workload — the vertical concentration the thermal maps react to.
    pub measured_top_die: Vec<(Unit, f64)>,
}

impl Fig10 {
    /// Worst case of one design point.
    pub fn worst_of(&self, variant: Variant) -> &WorstCase {
        self.worst.iter().find(|w| w.variant == variant).expect("variant present")
    }

    /// The 3D temperature increases over the planar baseline, kelvin:
    /// `(without herding, with herding)` — paper: (+17, +12).
    pub fn increases(&self) -> (f64, f64) {
        let base = self.worst_of(Variant::Base).peak_k();
        (
            self.worst_of(Variant::ThreeDNoTh).peak_k() - base,
            self.worst_of(Variant::ThreeD).peak_k() - base,
        )
    }

    /// Fractional reduction of the 3D temperature increase due to
    /// herding — paper: ≈0.29.
    pub fn increase_reduction(&self) -> f64 {
        let (no_th, th) = self.increases();
        1.0 - th / no_th
    }
}

/// Names of the workloads searched for the worst case, in search order.
/// The full 106-trace sweep is summarised by its extremes in the paper;
/// we search the hottest candidates of each behavioural class
/// (peak-power media, mixed-width memory-bound pointer, compute-bound
/// integer).
pub const WORST_CASE_CANDIDATES: [&str; 5] =
    ["mpeg2-like", "susan-like", "yacr2-like", "crafty-like", "gzip-like"];

/// Figure 10's design points, in presentation order.
pub const VARIANTS: [Variant; 3] = [Variant::Base, Variant::ThreeDNoTh, Variant::ThreeD];

/// The Figure 10 worst-case search grid: [`VARIANTS`] ×
/// [`WORST_CASE_CANDIDATES`], variant-major. Each point is a chip run
/// plus a steady-state thermal solve.
pub fn grid() -> impl Iterator<Item = (&'static str, Variant)> {
    VARIANTS
        .into_iter()
        .flat_map(|v| WORST_CASE_CANDIDATES.into_iter().map(move |name| (name, v)))
}

/// The worst-case reduction over solved `(variant, candidate, peak_k)`
/// points: for each of [`VARIANTS`] with any point, the candidate with
/// the highest peak — the first strict maximum in
/// [`WORST_CASE_CANDIDATES`] order, whatever order the points come in.
/// Points outside the [`grid`] are ignored. Returns
/// `(variant, workload, peak kelvin)` rows in [`VARIANTS`] order.
pub fn worst_case_rows<'a>(
    points: impl IntoIterator<Item = (Variant, &'a str, f64)>,
) -> Vec<(Variant, &'static str, f64)> {
    let points: Vec<_> = points.into_iter().collect();
    VARIANTS
        .into_iter()
        .filter_map(|variant| {
            WORST_CASE_CANDIDATES
                .into_iter()
                .filter_map(|name| {
                    let &(_, _, peak_k) =
                        points.iter().find(|&&(v, w, _)| v == variant && w == name)?;
                    Some((name, peak_k))
                })
                .reduce(|best, next| if next.1 > best.1 { next } else { best })
                .map(|(name, peak_k)| (variant, name, peak_k))
        })
        .collect()
}

/// Runs the Figure 10 experiment at `rows × rows` grid resolution,
/// fanned out over the global [`th_exec::pool`].
pub fn run(max_insts: u64, rows: usize) -> Fig10 {
    run_with_pool(max_insts, rows, th_exec::pool())
}

/// [`run`] on an explicit pool. Every distinct chip run happens once:
/// the [`grid`] runs and their solves feed the worst-case search, the
/// same-application comparison and the iso-power study, and the ROB
/// statistic adds only the 3D runs of the non-candidate workloads.
/// Everything reduces in a fixed order, so the output is identical for
/// any thread count.
pub fn run_with_pool(max_insts: u64, rows: usize, pool: &th_exec::Pool) -> Fig10 {
    let rob_only = workload_names().filter(|n| !WORST_CASE_CANDIDATES.contains(n));
    let runs = run_grid(grid().chain(rob_only.map(|n| (n, Variant::ThreeD))), max_insts, pool);
    let grid_runs = &runs[..VARIANTS.len() * WORST_CASE_CANDIDATES.len()];
    let analyses = pool.map(grid_runs, |r| thermal_analysis(r, rows).expect("thermal solves"));
    let at = |variant: Variant, workload: &str| {
        runs.iter()
            .position(|r| r.variant == variant && r.workload == workload)
            .expect("grid point")
    };

    // (a-c): the worst case per design point.
    let points = grid_runs.iter().zip(&analyses).map(|(r, a)| (r.variant, r.workload, a.peak_k()));
    let worst: Vec<WorstCase> = worst_case_rows(points)
        .into_iter()
        .map(|(variant, workload, _)| WorstCase {
            variant,
            workload,
            analysis: analyses[at(variant, workload)].clone(),
        })
        .collect();

    // (d-f): all three designs running the same application — use the
    // baseline's worst-case app, as the paper does.
    let common = worst[0].workload;
    let same_app = VARIANTS.iter().map(|&v| analyses[at(v, common)].clone()).collect();

    // §5.3 iso-power: "the 3D processor at the same total power (90 W)
    // and same frequency (2.66 GHz) as the planar processor ... mimics a
    // quadrupling of the power density while ignoring the latency and
    // power benefits of a 3D organization" — the planar power map,
    // planar pricing and all, compressed into the 4-die stack.
    let iso = {
        let base = &runs[at(Variant::Base, common)];
        let mut r = runs[at(Variant::ThreeDNoTh, common)].clone();
        r.power = base.power.clone();
        r.chip_stats = base.chip_stats.clone();
        thermal_analysis(&r, rows).expect("iso-power solves")
    };

    // §5.3 ROB width ratios under the full 3D design, aggregated over
    // every workload in registry order.
    let mut reads = (0u64, 0u64);
    let mut writes = (0u64, 0u64);
    let mut agg = th_sim::SimStats::default();
    for name in workload_names() {
        let r = &runs[at(Variant::ThreeD, name)];
        reads.0 += r.core_stats.rob_reads_low;
        reads.1 += r.core_stats.rob_reads_full;
        writes.0 += r.core_stats.rob_writes_low;
        writes.1 += r.core_stats.rob_writes_full;
        agg.merge(&r.core_stats);
    }
    let rob_ratios =
        (reads.0 as f64 / reads.1.max(1) as f64, writes.0 as f64 / writes.1.max(1) as f64);

    // Measured vertical power concentration from the aggregated ledger.
    let model = th_power::PowerModel::new();
    let table = th_power::DieFractionTable::new(
        &agg,
        model.energies(),
        &Variant::ThreeD.power_config(),
    );
    let measured_top_die = Unit::all()
        .iter()
        .filter(|u| u.is_width_partitioned())
        .map(|&u| (u, table.fractions(u)[0]))
        .collect();

    Fig10 {
        worst,
        same_app,
        same_app_workload: common,
        iso_power_peak_k: iso.peak_k(),
        rob_ratios,
        measured_top_die,
    }
}

impl fmt::Display for Fig10 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 10(a-c): worst-case hotspots")?;
        let paper = [(360.0, "Scheduler"), (377.0, "Scheduler"), (372.0, "D-cache")];
        for (w, (pk, pu)) in self.worst.iter().zip(paper) {
            writeln!(
                f,
                "  {:<8} worst app {:<14} peak {:>6.1} K at {:<10} (paper: {:.0} K at {})",
                w.variant.label(),
                w.workload,
                w.peak_k(),
                w.hottest_unit().label(),
                pk,
                pu
            )?;
        }
        let (no_th, th) = self.increases();
        writeln!(
            f,
            "  3D increase over planar: +{no_th:.1} K without herding, +{th:.1} K with \
             (paper: +17 K / +12 K; reduction {:.0}%, paper 29%)",
            100.0 * self.increase_reduction()
        )?;
        writeln!(f)?;
        writeln!(f, "Figure 10(d-f): all designs running {}", self.same_app_workload)?;
        for a in &self.same_app {
            writeln!(
                f,
                "  {:<8} peak {:>6.1} K, hottest {:<10} ROB {:>6.1} K, D-cache {:>6.1} K",
                a.variant.label(),
                a.peak_k(),
                a.hottest_unit().0.label(),
                a.unit_peak(Unit::Rob),
                a.unit_peak(Unit::DCache)
            )?;
        }
        writeln!(f)?;
        writeln!(
            f,
            "Iso-power 3D stack (90 W @ 2.66 GHz, 4x density): peak {:.1} K (paper: 418 K)",
            self.iso_power_peak_k
        )?;
        writeln!(
            f,
            "ROB low/full ratios: reads {:.1}x, writes {:.1}x (paper: ~5x reads, ~2x writes)",
            self.rob_ratios.0, self.rob_ratios.1
        )?;
        write!(f, "Measured top-die power fraction (3D, ledger):")?;
        for (unit, frac) in &self.measured_top_die {
            write!(f, " {} {:.0}%", unit.label(), 100.0 * frac)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_chip;
    use th_workloads::workload_by_name;

    #[test]
    fn experiment_structure_is_sound() {
        // Tiny budget + coarse grid: a smoke test of the full pipeline;
        // the calibrated numbers are pinned by tests/paper_results.rs.
        let fig10 = run(15_000, 10);
        assert_eq!(fig10.worst.len(), 3);
        assert_eq!(fig10.same_app.len(), 3);
        let (no_th, th) = fig10.increases();
        assert!(no_th > 0.0, "stacking must heat the chip");
        assert!(th < no_th, "herding must reduce the increase");
        assert!(fig10.iso_power_peak_k > fig10.worst_of(Variant::Base).peak_k());
        assert!(fig10.rob_ratios.0 > 0.0 && fig10.rob_ratios.1 > 0.0);
        // The ledger must measure a real top-die bias for the register
        // file under the herded design.
        let rf = fig10
            .measured_top_die
            .iter()
            .find(|(u, _)| *u == Unit::RegFile)
            .map(|&(_, f)| f)
            .unwrap();
        assert!(rf > 0.4, "measured RF top-die fraction {rf:.3}");
        let text = fig10.to_string();
        for needle in
            ["Figure 10(a-c)", "Figure 10(d-f)", "Iso-power", "ROB", "Measured top-die"]
        {
            assert!(text.contains(needle), "missing {needle}");
        }

        // The reused grid runs equal fresh ones: the baseline's same-app
        // analysis and the iso-power peak, re-derived from scratch.
        let common = workload_by_name(fig10.same_app_workload).unwrap();
        let base = run_chip(Variant::Base, &common, 15_000).unwrap();
        let fresh = thermal_analysis(&base, 10).unwrap();
        let reused = &fig10.same_app[0];
        assert_eq!(reused.variant, Variant::Base);
        assert_eq!(fresh.peak_k().to_bits(), reused.peak_k().to_bits());
        let fresh_bits: Vec<u64> = fresh.map.temps().iter().map(|t| t.to_bits()).collect();
        let reused_bits: Vec<u64> = reused.map.temps().iter().map(|t| t.to_bits()).collect();
        assert_eq!(fresh_bits, reused_bits, "same-app map differs from a fresh run");
        let mut iso = run_chip(Variant::ThreeDNoTh, &common, 15_000).unwrap();
        iso.power = base.power;
        iso.chip_stats = base.chip_stats;
        let iso_peak = thermal_analysis(&iso, 10).unwrap().peak_k();
        assert_eq!(iso_peak.to_bits(), fig10.iso_power_peak_k.to_bits());
    }
}
