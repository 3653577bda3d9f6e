//! # Interval-coupled performance/power/thermal co-simulation.
//!
//! The one-shot pipeline (run the cycle simulator to completion, price
//! one average power number, solve one steady-state map) never lets the
//! simulator *see* a temperature: power does not react to program phases
//! and DTM throttles against a constant. This crate closes the loop the
//! way interval-coupled simulators like CoMeT do, advancing the whole
//! stack in lockstep intervals:
//!
//! 1. **Perform** — run the `th-sim` pipeline ([`th_sim::SimSession`])
//!    for the interval's cycle budget and take the [`th_sim::SimStats`]
//!    activity *delta* for just that interval.
//! 2. **Price** — convert the delta to per-unit dynamic power
//!    (`th-power`), add the temperature-dependent leakage
//!    ([`th_power::LeakageModel`]) evaluated at each block's temperature
//!    from the *previous* interval, and rasterise everything onto
//!    per-die [`th_thermal::PowerGrid`]s.
//! 3. **Heat** — advance `th-thermal`'s implicit-Euler
//!    [`th_thermal::TransientSolver`] by the interval's wall-clock time.
//! 4. **React** — feed the solved per-die / per-block temperatures to a
//!    pluggable [`DtmPolicy`], whose decision (clock, fetch width)
//!    applies to the *next* interval.
//!
//! The sampled-execution contract: each interval simulates
//! `slice_cycles` pipeline cycles and holds the resulting power for
//! `interval_s` seconds of thermal time. With `slice_cycles` equal to
//! `interval_s × f` the two clocks agree exactly; smaller slices sample
//! the program (SimPoint-style) so a multi-millisecond thermal window
//! stays affordable. Either way power follows the program's *phases*,
//! because every interval is priced from its own activity delta.
//!
//! Everything is deterministic: the trace depends only on the
//! configuration and program, never on wall-clock time or thread count.

#![deny(missing_docs)]

mod policy;
mod report;

pub use policy::{
    DtmAction, DtmPolicy, DvfsLadder, FetchThrottle, HerdingAware, IntervalObs, NoDtm,
    PolicyKind,
};
pub use report::{CoSimReport, IntervalDecision, IntervalSample};

use std::time::Instant;
use th_isa::Program;
use th_power::{DieFractionTable, LeakageModel, PowerConfig, PowerModel};
use th_sim::{SimConfig, SimSession};
use th_stack3d::{DieStack, Floorplan, LayerKind, Unit};
use th_thermal::{
    HeatSink, MapView, Material, ModelLayer, PowerGrid, StackModel, SteadySolver,
    TransientSolver,
};

/// Maps a die-stack layer to its thermal material.
fn material_of(kind: LayerKind) -> Material {
    match kind {
        LayerKind::Silicon | LayerKind::Active(_) => Material::SILICON,
        LayerKind::BondInterface => Material::BOND_INTERFACE,
        LayerKind::Tim => Material::TIM_ALLOY,
        LayerKind::Spreader => Material::COPPER,
    }
}

/// Converts a `th-stack3d` die stack plus floorplan footprint into a
/// thermal [`StackModel`] under the given heat sink.
pub fn stack_thermal_model(
    stack: &DieStack,
    floorplan: &Floorplan,
    sink: HeatSink,
) -> StackModel {
    let layers = stack
        .layers()
        .iter()
        .map(|l| {
            let material = material_of(l.kind);
            match l.kind {
                LayerKind::Active(die) => {
                    ModelLayer::active(l.thickness_um * 1e-6, material, die)
                }
                _ => ModelLayer::passive(l.thickness_um * 1e-6, material),
            }
        })
        .collect();
    StackModel::new(floorplan.width_mm() * 1e-3, floorplan.height_mm() * 1e-3, layers, sink)
}

/// Peak temperature inside each unit's footprint (max over cores and
/// dies) in a field solved on the [`stack_thermal_model`] of
/// `floorplan`. The clock network covers whole dies and owns no
/// hotspot, so it is excluded.
pub fn unit_peaks(view: MapView<'_>, floorplan: &Floorplan) -> Vec<(Unit, f64)> {
    let mut peaks = Vec::new();
    for &unit in Unit::all() {
        if unit == Unit::Clock {
            continue;
        }
        let mut peak = f64::NEG_INFINITY;
        for p in floorplan.placements().iter().filter(|p| p.unit == unit) {
            if let Some(layer) = view.layer_of_power_index(p.die) {
                let r = p.rect;
                peak = peak.max(view.max_in_rect(
                    layer,
                    r.x * 1e-3,
                    r.y * 1e-3,
                    (r.x + r.w) * 1e-3,
                    (r.y + r.h) * 1e-3,
                ));
            }
        }
        if peak.is_finite() {
            peaks.push((unit, peak));
        }
    }
    peaks
}

/// Interval structure of a co-simulation run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CoSimConfig {
    /// Thermal time advanced per interval, seconds.
    pub interval_s: f64,
    /// Pipeline cycles simulated per interval (the sampled-execution
    /// budget; see the crate docs for the contract).
    pub slice_cycles: u64,
    /// Number of intervals to run.
    pub steps: usize,
    /// Loop the workload (warm restart) whenever it halts, so activity
    /// covers the whole thermal window.
    pub restart: bool,
    /// When the workload has halted and `restart` is off, paint zero
    /// power (clock and leakage included) for intervals with no activity
    /// — models power-gating the finished chip, and gives cool-down
    /// traces a true zero-power tail. The interval the workload halts in
    /// still prices its partial activity.
    pub power_gate_when_done: bool,
    /// Cores on the chip; the single simulated core's activity is
    /// replicated this many times (the dual-core methodology of §4).
    pub chip_cores: usize,
}

impl CoSimConfig {
    /// Sampled-execution intervals: each interval runs `slice_cycles` of
    /// pipeline time and advances the thermal solver `interval_s`
    /// seconds. The workload loops and a finished chip is power-gated.
    pub fn sampled(interval_s: f64, slice_cycles: u64, steps: usize) -> CoSimConfig {
        CoSimConfig {
            interval_s,
            slice_cycles,
            steps,
            restart: true,
            power_gate_when_done: true,
            chip_cores: 2,
        }
    }

    /// Cycle-exact intervals at `clock_ghz`: the slice covers the full
    /// interval (`interval_s × f` cycles), so simulated and thermal time
    /// advance together.
    pub fn full_speed(interval_s: f64, clock_ghz: f64, steps: usize) -> CoSimConfig {
        let slice = (interval_s * clock_ghz * 1e9).round().max(1.0) as u64;
        CoSimConfig::sampled(interval_s, slice, steps)
    }
}

/// Per-placement painting geometry, precomputed once.
struct PaintSlot {
    unit: Unit,
    die: usize,
    /// Rect in metres: (x0, y0, x1, y1).
    rect_m: (f64, f64, f64, f64),
    /// Whether the placement is core-private (carries half the chip-level
    /// unit power).
    core_private: bool,
    /// This placement's share of the unit type's total floorplan area —
    /// the leakage distribution weight.
    area_share: f64,
}

/// The coupled simulator: one pipeline, one power model, one thermal
/// solver, one DTM policy, advanced in lockstep intervals.
pub struct CoSimulator<'a> {
    session: SimSession,
    program: &'a Program,
    model: PowerModel,
    pcfg: PowerConfig,
    leakage: LeakageModel,
    transient: TransientSolver,
    policy: Box<dyn DtmPolicy>,
    cfg: CoSimConfig,
    slots: Vec<PaintSlot>,
    /// The painted floorplan, for the per-unit peak reads.
    floorplan: Floorplan,
    dies: usize,
    grid: (usize, usize, f64, f64),
    nominal_ghz: f64,
    nominal_fetch_width: usize,
    /// Per-unit peak temperatures after the last interval (drives the
    /// next interval's leakage). Starts at ambient.
    unit_peaks_k: Vec<(Unit, f64)>,
    decisions: Vec<IntervalDecision>,
    sim_wall_s: f64,
    solver_wall_s: f64,
    solver_sweeps: usize,
}

impl<'a> CoSimulator<'a> {
    /// Assembles the loop. `solver` must carry one active layer per
    /// floorplan die (see [`stack_thermal_model`]); `rows`/`cols` of the
    /// power grids are taken from it.
    // One argument per coupled model: the constructor IS the wiring
    // diagram, and a config struct would obscure it.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        sim_cfg: SimConfig,
        power_cfg: PowerConfig,
        leakage: LeakageModel,
        floorplan: &Floorplan,
        solver: SteadySolver,
        policy: Box<dyn DtmPolicy>,
        cfg: CoSimConfig,
        program: &'a Program,
    ) -> CoSimulator<'a> {
        assert!(cfg.interval_s > 0.0, "interval must be positive");
        assert!(cfg.chip_cores >= 1, "at least one core");
        let dies = floorplan.dies();
        let (w_m, h_m) = (floorplan.width_mm() * 1e-3, floorplan.height_mm() * 1e-3);
        let (rows, cols) = solver.resolution();

        // Per-unit total areas for the leakage distribution weights.
        let mut unit_area: Vec<(Unit, f64)> =
            Unit::all().iter().map(|u| (*u, 0.0)).collect();
        for p in floorplan.placements() {
            if let Some(slot) = unit_area.iter_mut().find(|(u, _)| *u == p.unit) {
                slot.1 += p.rect.area();
            }
        }
        let slots = floorplan
            .placements()
            .iter()
            .map(|p| {
                let total = unit_area
                    .iter()
                    .find(|(u, _)| *u == p.unit)
                    .map_or(0.0, |(_, a)| *a);
                let r = p.rect;
                PaintSlot {
                    unit: p.unit,
                    die: p.die,
                    rect_m: (
                        r.x * 1e-3,
                        r.y * 1e-3,
                        (r.x + r.w) * 1e-3,
                        (r.y + r.h) * 1e-3,
                    ),
                    core_private: p.core.is_some(),
                    area_share: if total > 0.0 { r.area() / total } else { 0.0 },
                }
            })
            .collect();

        let transient = TransientSolver::from_ambient(solver);
        let nominal_ghz = sim_cfg.clock_ghz;
        let nominal_fetch_width = sim_cfg.core.fetch_width;
        let mut cosim = CoSimulator {
            session: SimSession::new(sim_cfg, program),
            program,
            model: PowerModel::new(),
            pcfg: power_cfg,
            leakage,
            transient,
            policy,
            cfg,
            slots,
            floorplan: floorplan.clone(),
            dies,
            grid: (rows, cols, w_m, h_m),
            nominal_ghz,
            nominal_fetch_width,
            unit_peaks_k: Vec::new(),
            decisions: Vec::with_capacity(cfg.steps),
            sim_wall_s: 0.0,
            solver_wall_s: 0.0,
            solver_sweeps: 0,
        };
        cosim.unit_peaks_k = unit_peaks(cosim.transient.view(), &cosim.floorplan);
        cosim
    }

    /// The chip-level clock-network power at the current clock, watts.
    fn clock_network_w(&self) -> f64 {
        self.pcfg.chip_clock_power_2d_w * (self.pcfg.clock_ghz / 2.66)
            * if self.pcfg.three_d { self.pcfg.clock_3d_factor } else { 1.0 }
    }

    fn unit_temp(&self, unit: Unit) -> f64 {
        self.unit_peaks_k
            .iter()
            .find(|(u, _)| *u == unit)
            .map_or(th_thermal::AMBIENT_K, |(_, t)| *t)
    }

    /// Advances one interval and returns its sample.
    ///
    /// # Errors
    ///
    /// A trap from the pipeline or a thermal-solver convergence failure,
    /// as a message.
    pub fn step(&mut self) -> Result<IntervalSample, String> {
        // 1. Perform: run the pipeline for the slice budget, looping the
        // workload across halts if configured.
        let snapshot = self.session.stats().snapshot();
        let sim_t0 = Instant::now();
        let target = self.session.cycle().saturating_add(self.cfg.slice_cycles.max(1));
        while self.session.cycle() < target {
            let before = self.session.cycle();
            let finished = self
                .session
                .run_interval(target - before)
                .map_err(|t| format!("pipeline trap: {t:?}"))?;
            if !finished {
                break; // budget exhausted
            }
            if !self.cfg.restart {
                break;
            }
            if self.session.cycle() == before {
                return Err("workload halts without consuming cycles; cannot loop".into());
            }
            self.session.restart(self.program);
        }
        self.sim_wall_s += sim_t0.elapsed().as_secs_f64();
        let delta = self.session.stats().delta(&snapshot);

        // 2. Price: dynamic power from this interval's activity delta
        // (replicated per core), leakage from the previous interval's
        // block temperatures.
        let mut chip = delta.clone();
        for _ in 1..self.cfg.chip_cores {
            chip.merge(&delta);
        }
        self.pcfg.clock_ghz = self.session.config().clock_ghz;
        let gated = delta.cycles == 0
            && self.session.finished()
            && !self.cfg.restart
            && self.cfg.power_gate_when_done;
        let breakdown = if delta.cycles > 0 && !gated {
            Some(self.model.compute(&chip, delta.cycles, &self.pcfg))
        } else {
            None
        };
        let clock_w = if gated { 0.0 } else { self.clock_network_w() };
        let dynamic_w = breakdown.as_ref().map_or(0.0, |b| b.dynamic_w());
        let mut leakage_w = 0.0;

        let (rows, cols, w_m, h_m) = self.grid;
        let mut grids: Vec<PowerGrid> =
            (0..self.dies).map(|_| PowerGrid::new(rows, cols, w_m, h_m)).collect();
        // One fraction table per interval: measured ledger rows are
        // resolved once, not per paint slot.
        let table = DieFractionTable::new(&chip, self.model.energies(), &self.pcfg);
        for s in &self.slots {
            let fractions = table.fractions(s.unit);
            let unit_w = match (&breakdown, s.unit) {
                (Some(b), Unit::Clock) => b.clock_w,
                (Some(b), u) => b.unit_w(u),
                (None, Unit::Clock) => clock_w,
                (None, _) => 0.0,
            };
            let share = if s.core_private { 0.5 } else { 1.0 };
            let mut watts = unit_w * share * fractions[s.die];
            if !gated && s.unit != Unit::Clock {
                // Leakage burns where the block sits, scaled by how hot
                // the block ran last interval.
                let block_leak =
                    self.leakage.leakage_w(s.unit, self.unit_temp(s.unit)) * s.area_share;
                leakage_w += block_leak;
                watts += block_leak;
            }
            let (x0, y0, x1, y1) = s.rect_m;
            grids[s.die].paint_rect(x0, y0, x1, y1, watts);
        }

        // 3. Heat: one implicit-Euler step of the interval's length.
        let solve_t0 = Instant::now();
        let stats = self
            .transient
            .step(&grids, self.cfg.interval_s)
            .map_err(|e| e.to_string())?;
        self.solver_wall_s += solve_t0.elapsed().as_secs_f64();
        self.solver_sweeps += stats.sweeps;

        let view = self.transient.view();
        let peak_k = self.transient.peak_k();
        let die_peak_k: Vec<f64> = (0..self.dies)
            .map(|d| {
                view.layer_of_power_index(d)
                    .map_or(f64::NEG_INFINITY, |layer| view.layer_max(layer))
            })
            .collect();
        self.unit_peaks_k = unit_peaks(view, &self.floorplan);

        let sample = IntervalSample {
            t_s: self.transient.elapsed_s(),
            peak_k,
            die_peak_k,
            clock_ghz: self.pcfg.clock_ghz,
            fetch_width: self.session.config().core.fetch_width,
            committed: delta.committed,
            cycles: delta.cycles,
            dynamic_w,
            clock_w,
            leakage_w,
        };

        // 4. React: the policy's decision applies to the next interval.
        // The report records it with the one observation input the
        // sample lacks, so a sibling policy can be replayed against it.
        let obs =
            sample.observation(&self.unit_peaks_k, self.nominal_ghz, self.nominal_fetch_width);
        let action = self.policy.decide(&obs);
        if let Some(ghz) = action.clock_ghz {
            self.session.set_clock_ghz(ghz.max(0.1));
        }
        if let Some(w) = action.fetch_width {
            self.session.set_fetch_width(w);
        }
        self.decisions.push(IntervalDecision { unit_peaks_k: self.unit_peaks_k.clone(), action });

        Ok(sample)
    }

    /// Runs all configured intervals and packages the report.
    ///
    /// # Errors
    ///
    /// Propagates the first failing interval's message.
    pub fn run(mut self) -> Result<CoSimReport, String> {
        let mut intervals = Vec::with_capacity(self.cfg.steps);
        for _ in 0..self.cfg.steps {
            intervals.push(self.step()?);
        }
        let unit_leakage_w = self
            .unit_peaks_k
            .iter()
            .map(|(u, t)| (*u, self.leakage.leakage_w(*u, *t)))
            .collect();
        // Measured vertical split over the whole run's cumulative ledger
        // (fractions are scale-invariant, so one core's ledger stands in
        // for the chip's).
        let table =
            DieFractionTable::new(self.session.stats(), self.model.energies(), &self.pcfg);
        let unit_top_die = Unit::all()
            .iter()
            .filter(|&&u| u != Unit::Clock)
            .map(|&u| (u, table.fractions(u)[0]))
            .collect();
        Ok(CoSimReport {
            policy: self.policy.name().to_string(),
            nominal_ghz: self.nominal_ghz,
            nominal_fetch_width: self.nominal_fetch_width,
            intervals,
            decisions: self.decisions,
            unit_peaks_k: self.unit_peaks_k,
            unit_leakage_w,
            unit_top_die,
            sim_wall_s: self.sim_wall_s,
            sim_work: self.session.work(),
            solver_wall_s: self.solver_wall_s,
            solver_sweeps: self.solver_sweeps,
        })
    }
}
