//! Thermal assembly: floorplan + per-die power maps + stack → solved map.

use crate::config::Variant;
use crate::run::ChipResult;
use th_power::{DieFractionTable, PowerModel};
use th_stack3d::{DieStack, Floorplan, Unit};
use th_thermal::{HeatSink, PowerGrid, SteadySolver, ThermalMap};

/// Default lateral grid resolution for the experiments (rows).
pub const GRID_ROWS: usize = 40;
/// Default lateral grid resolution (columns).
pub const GRID_COLS: usize = 40;

/// Heat-sink-to-ambient resistance used for every configuration, K/W.
///
/// Calibrated once so the planar baseline running the peak-power workload
/// (≈90 W) peaks near the paper's 360 K (Figure 10a); the same cooling
/// solution is then applied to the 3D stacks, as the paper does.
pub const SINK_RESISTANCE_K_PER_W: f64 = 0.23;

/// A solved thermal analysis of one chip run.
#[derive(Clone, Debug)]
pub struct ThermalAnalysis {
    /// The design point analysed.
    pub variant: Variant,
    /// The solved temperature field.
    pub map: ThermalMap,
    /// The floorplan used (planar or stacked).
    pub floorplan: Floorplan,
    /// Per-unit peak temperature, kelvin (max over cores and dies).
    pub unit_peaks: Vec<(Unit, f64)>,
}

impl ThermalAnalysis {
    /// Hottest temperature anywhere in the stack.
    pub fn peak_k(&self) -> f64 {
        self.map.max_temp()
    }

    /// The hottest unit and its temperature.
    pub fn hottest_unit(&self) -> (Unit, f64) {
        self.unit_peaks
            .iter()
            .copied()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("unit peaks non-empty")
    }

    /// Peak temperature of one unit.
    pub fn unit_peak(&self, unit: Unit) -> f64 {
        self.unit_peaks.iter().find(|(u, _)| *u == unit).map_or(f64::NAN, |(_, t)| *t)
    }
}

/// The thermal geometry of a design point: its floorplan and the steady
/// solver for its die stack under the experiments' standard heat sink,
/// at `rows × rows` cells. The planar die has twice the linear extent of
/// the folded one, so it gets twice the cells and both are solved at the
/// same physical resolution.
pub(crate) fn thermal_geometry(variant: Variant, rows: usize) -> (Floorplan, SteadySolver) {
    let (floorplan, stack, rows) = if variant.is_three_d() {
        (Floorplan::stacked_dual_core(), DieStack::four_die(), rows)
    } else {
        (Floorplan::planar_dual_core(), DieStack::planar(), rows * 2)
    };
    let model = th_cosim::stack_thermal_model(
        &stack,
        &floorplan,
        HeatSink { resistance_k_per_w: SINK_RESISTANCE_K_PER_W, ambient_k: th_thermal::AMBIENT_K },
    );
    let solver = SteadySolver::new(model, rows, rows);
    (floorplan, solver)
}

/// Rasterises the chip power onto per-die power grids.
///
/// Core-private units carry half the chip-level unit power per core; the
/// shared L2 and the distributed clock carry their full power; vertical
/// distribution follows one [`DieFractionTable`] built for the run.
fn power_grids(result: &ChipResult, floorplan: &Floorplan, rows: usize, cols: usize) -> Vec<PowerGrid> {
    let dies = floorplan.dies();
    let (w_m, h_m) = (floorplan.width_mm() * 1e-3, floorplan.height_mm() * 1e-3);
    let mut grids: Vec<PowerGrid> = (0..dies).map(|_| PowerGrid::new(rows, cols, w_m, h_m)).collect();
    let model = PowerModel::new();
    let pcfg = result.variant.power_config();
    let table = DieFractionTable::new(&result.chip_stats, model.energies(), &pcfg);
    for placement in floorplan.placements() {
        let unit_w = match placement.unit {
            Unit::Clock => result.power.clock_w,
            u => result.power.unit_w(u),
        };
        // Leakage: distribute over the whole die area like the clock.
        let share = if placement.core.is_some() { 0.5 } else { 1.0 };
        let fractions = table.fractions(placement.unit);
        let watts = unit_w * share * fractions[placement.die];
        let leak = if placement.unit == Unit::Clock {
            // Clock rect covers the die: piggy-back the per-die leakage.
            result.power.leakage_w / dies as f64
        } else {
            0.0
        };
        let r = placement.rect;
        grids[placement.die].paint_rect(
            r.x * 1e-3,
            r.y * 1e-3,
            (r.x + r.w) * 1e-3,
            (r.y + r.h) * 1e-3,
            watts + leak,
        );
    }
    grids
}

/// Builds and solves the thermal model for a chip run.
///
/// `rows` controls lateral resolution (`rows × rows` grid cells).
///
/// # Errors
///
/// Returns the solver error message if the relaxation fails to converge.
pub fn thermal_analysis(result: &ChipResult, rows: usize) -> Result<ThermalAnalysis, String> {
    thermal_analysis_scaled(result, rows, 1.0)
}

/// [`thermal_analysis`] with all power multiplied by `power_scale` —
/// used by the §5.3 iso-power experiment (3D stack forced to the planar
/// design's 90 W at 2.66 GHz).
pub fn thermal_analysis_scaled(
    result: &ChipResult,
    rows: usize,
    power_scale: f64,
) -> Result<ThermalAnalysis, String> {
    let (floorplan, solver) = thermal_geometry(result.variant, rows);
    let (rows, cols) = solver.resolution();
    let mut grids = power_grids(result, &floorplan, rows, cols);
    for g in &mut grids {
        g.scale(power_scale);
    }
    let map = solver.solve_steady(&grids).map_err(|e| e.to_string())?;

    let unit_peaks = th_cosim::unit_peaks(map.view(), &floorplan);
    Ok(ThermalAnalysis { variant: result.variant, map, floorplan, unit_peaks })
}

/// Transient heat-up: starting from a uniform ambient-temperature stack,
/// applies the chip's power and integrates with implicit-Euler steps of
/// `dt_s` seconds, returning the `(time, peak temperature)` trace.
///
/// This models the onset of a hot program phase — the scenario dynamic
/// thermal management must react to. The package's thermal time
/// constants are hundreds of milliseconds, so traces of a few seconds
/// approach the steady-state solution.
///
/// # Errors
///
/// Returns the solver error message if an integration step fails to
/// converge.
pub fn transient_heatup(
    result: &ChipResult,
    rows: usize,
    dt_s: f64,
    steps: usize,
) -> Result<Vec<(f64, f64)>, String> {
    let (floorplan, solver) = thermal_geometry(result.variant, rows);
    let (rows, cols) = solver.resolution();
    let grids = power_grids(result, &floorplan, rows, cols);
    let mut transient = th_thermal::TransientSolver::from_ambient(solver);
    let mut trace = Vec::with_capacity(steps + 1);
    trace.push((0.0, transient.current_map().max_temp()));
    for _ in 0..steps {
        transient.step(&grids, dt_s).map_err(|e| e.to_string())?;
        trace.push((transient.elapsed_s(), transient.current_map().max_temp()));
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_chip;
    use th_workloads::workload_by_name;

    #[test]
    fn transient_heats_monotonically_toward_steady_state() {
        let w = workload_by_name("gzip-like").unwrap();
        let r = run_chip(Variant::ThreeD, &w, 30_000).unwrap();
        let trace = transient_heatup(&r, 12, 0.05, 60).unwrap();
        for pair in trace.windows(2) {
            assert!(pair[1].1 >= pair[0].1 - 1e-9, "peak dropped: {pair:?}");
        }
        let steady = thermal_analysis(&r, 12).unwrap().peak_k();
        let final_peak = trace.last().unwrap().1;
        assert!(
            (final_peak - steady).abs() < 1.0,
            "transient end {final_peak:.2} vs steady {steady:.2}"
        );
        // The trace must actually show a transient (start near ambient).
        assert!(trace[0].1 < steady - 2.0);
    }

    #[test]
    fn planar_analysis_solves_and_heats_up() {
        let w = workload_by_name("mpeg2-like").unwrap();
        let r = run_chip(Variant::Base, &w, 40_000).unwrap();
        let t = thermal_analysis(&r, 24).unwrap();
        assert!(t.peak_k() > th_thermal::AMBIENT_K + 2.0, "peak {:.1}", t.peak_k());
        assert!(t.peak_k() < 500.0);
        assert!(!t.unit_peaks.is_empty());
    }

    #[test]
    fn stacked_analysis_has_four_power_layers() {
        let w = workload_by_name("gzip-like").unwrap();
        let r = run_chip(Variant::ThreeD, &w, 40_000).unwrap();
        let t = thermal_analysis(&r, 24).unwrap();
        for die in 0..4 {
            assert!(t.map.layer_of_power_index(die).is_some(), "die {die} missing");
        }
    }

    #[test]
    fn power_grids_conserve_chip_power() {
        let w = workload_by_name("gzip-like").unwrap();
        let r = run_chip(Variant::ThreeD, &w, 40_000).unwrap();
        let fp = Floorplan::stacked_dual_core();
        let grids = power_grids(&r, &fp, 24, 24);
        let painted: f64 = grids.iter().map(|g| g.total_watts()).sum();
        assert!(
            (painted - r.power.total_w()).abs() < 0.02 * r.power.total_w(),
            "painted {painted:.2} vs chip {:.2}",
            r.power.total_w()
        );
    }

    #[test]
    fn iso_power_scaling_scales_heat() {
        let w = workload_by_name("gzip-like").unwrap();
        let r = run_chip(Variant::ThreeDNoTh, &w, 30_000).unwrap();
        let base = thermal_analysis_scaled(&r, 20, 1.0).unwrap();
        let hot = thermal_analysis_scaled(&r, 20, 1.5).unwrap();
        let ambient = th_thermal::AMBIENT_K;
        let rise_ratio = (hot.peak_k() - ambient) / (base.peak_k() - ambient);
        assert!((rise_ratio - 1.5).abs() < 0.01, "linear scaling violated: {rise_ratio:.3}");
    }
}
