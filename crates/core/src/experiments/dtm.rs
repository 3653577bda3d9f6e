//! Dynamic thermal management under a temperature cap — an extension of
//! the paper's §5.3 observation (citing Black et al.) that performance
//! headroom can be traded for temperature.
//!
//! The study runs on the [`th_cosim`] closed loop: every control
//! interval re-simulates the pipeline, re-prices power from that
//! interval's real activity (plus temperature-dependent leakage), steps
//! the transient solver, and lets a [`DtmPolicy`] react. Because Thermal
//! Herding lowers the stack's steady-state ceiling, the herded design
//! sustains its full clock under caps that force the unherded 3D design
//! to throttle — the herding win expressed as *delivered throughput*
//! instead of kelvin.
//!
//! The pre-cosim controller (constant average power repriced at each
//! clock, constant 18 W leakage) survives as the test-only oracle: the
//! closed loop must never exceed the open loop's steady-state ceiling.

use crate::config::Variant;
use crate::thermal::thermal_geometry;
use std::fmt;
use th_cosim::{CoSimConfig, CoSimReport, CoSimulator, DtmPolicy, PolicyKind};
use th_power::LeakageModel;
use th_workloads::Workload;

/// Control interval of the DTM loop, seconds of simulated time.
pub const DTM_INTERVAL_S: f64 = 0.05;
/// Pipeline cycles re-simulated per control interval (the sampled-
/// execution budget; see [`th_cosim`]). Sized so an 80-interval trace
/// crosses real program phases even on DRAM-bound kernels whose cold
/// pass alone spans millions of cycles.
pub const DTM_SLICE_CYCLES: u64 = 100_000;
/// Control intervals per trace (4 s of simulated time).
pub const DTM_STEPS: usize = 80;

/// Outcome of a closed-loop DTM run for one design point.
#[derive(Clone, Debug)]
pub struct DtmTrace {
    /// Design point.
    pub variant: Variant,
    /// Thermal cap enforced, kelvin.
    pub cap_k: f64,
    /// The co-simulation trace (per-interval temperature, clock, fetch
    /// width, IPC, power split).
    pub report: CoSimReport,
}

impl DtmTrace {
    /// Nominal (unthrottled) clock, GHz.
    pub fn nominal_ghz(&self) -> f64 {
        self.report.nominal_ghz
    }

    /// Per-core IPC over the whole trace.
    pub fn ipc(&self) -> f64 {
        self.report.ipc()
    }

    /// Fraction of control intervals spent below the nominal operating
    /// point (clock or fetch width).
    pub fn throttled_fraction(&self) -> f64 {
        self.report.throttled_fraction()
    }

    /// Instructions delivered per core over the trace, in billions:
    /// `Σ IPC × f × dt` with each interval's own IPC and clock. The
    /// interval length comes from the trace itself.
    pub fn delivered_ginst(&self) -> f64 {
        let dt = self.report.intervals.first().map_or(0.0, |s| s.t_s);
        self.report.intervals.iter().map(|s| s.ipc() * s.clock_ghz * dt).sum()
    }

    /// Mean clock over the trace, GHz.
    pub fn mean_clock_ghz(&self) -> f64 {
        self.report.mean_clock_ghz()
    }

    /// Highest temperature ever observed (the cap may be overshot by at
    /// most one control interval's rise).
    pub fn max_peak_k(&self) -> f64 {
        self.report.max_peak_k()
    }

    /// Measured register-file top-die power fraction over the trace, from
    /// the co-simulation's cumulative activity ledger.
    pub fn rf_top_die(&self) -> f64 {
        self.report.top_die_fraction(th_stack3d::Unit::RegFile).unwrap_or(f64::NAN)
    }
}

/// Runs the closed DTM loop for one design point under `policy`, with an
/// explicit interval structure (smoke tests and determinism checks use a
/// scaled-down one).
pub fn run_variant_scaled(
    variant: Variant,
    workload: &Workload,
    cap_k: f64,
    rows: usize,
    policy: Box<dyn DtmPolicy>,
    cfg: CoSimConfig,
) -> DtmTrace {
    let (floorplan, solver) = thermal_geometry(variant, rows);
    let leakage = LeakageModel::new(variant.power_config().chip_leakage_w, &floorplan);
    let cosim = CoSimulator::new(
        variant.sim_config(),
        variant.power_config(),
        leakage,
        &floorplan,
        solver,
        policy,
        cfg,
        &workload.program,
    );
    let report = cosim.run().expect("co-simulation runs");
    DtmTrace { variant, cap_k, report }
}

/// [`run_variant_scaled`] with the standard interval structure
/// ([`DTM_INTERVAL_S`] × [`DTM_STEPS`], [`DTM_SLICE_CYCLES`] per
/// interval).
pub fn run_variant_with_policy(
    variant: Variant,
    workload: &Workload,
    cap_k: f64,
    rows: usize,
    policy: Box<dyn DtmPolicy>,
) -> DtmTrace {
    let cfg = CoSimConfig::sampled(DTM_INTERVAL_S, DTM_SLICE_CYCLES, DTM_STEPS);
    run_variant_scaled(variant, workload, cap_k, rows, policy, cfg)
}

/// [`run_variant_with_policy`] with the default DVFS ladder (step down
/// 0.2 GHz above the cap, floor 2.0 GHz, step back up with headroom).
pub fn run_variant(variant: Variant, workload: &Workload, cap_k: f64, rows: usize) -> DtmTrace {
    run_variant_with_policy(variant, workload, cap_k, rows, PolicyKind::Dvfs.build(cap_k))
}

/// The DTM comparison: the unherded and herded 3D designs under the same
/// cap.
#[derive(Clone, Debug)]
pub struct Dtm {
    /// Traces, `[3D-noTH, 3D]`.
    pub traces: Vec<DtmTrace>,
}

/// Runs the comparison on `workload` with cap `cap_k`, the two design
/// points in parallel on the global [`th_exec::pool`].
pub fn run(workload: &Workload, cap_k: f64, rows: usize) -> Dtm {
    run_with_pool(workload, cap_k, rows, th_exec::pool())
}

/// [`run`] on an explicit pool. The traces come back in `[3D-noTH, 3D]`
/// order regardless of thread count.
pub fn run_with_pool(workload: &Workload, cap_k: f64, rows: usize, pool: &th_exec::Pool) -> Dtm {
    let traces = pool.map(&[Variant::ThreeDNoTh, Variant::ThreeD], |&v| {
        run_variant(v, workload, cap_k, rows)
    });
    Dtm { traces }
}

impl fmt::Display for Dtm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "DTM study: {:.0} K cap, {:.0} s of execution, {:.0} ms control interval",
            self.traces[0].cap_k,
            DTM_INTERVAL_S * DTM_STEPS as f64,
            DTM_INTERVAL_S * 1e3,
        )?;
        for t in &self.traces {
            writeln!(
                f,
                "  {:<8} mean clock {:>5.2} GHz (nominal {:.2}), throttled {:>5.1}% of the time, \
                 max peak {:>6.1} K, delivered {:>6.2} Ginst/core, power swing {:.2}x, \
                 RF top-die {:>4.1}% (measured)",
                t.variant.label(),
                t.mean_clock_ghz(),
                t.nominal_ghz(),
                100.0 * t.throttled_fraction(),
                t.max_peak_k(),
                t.delivered_ginst(),
                t.report.dynamic_power_swing(),
                100.0 * t.rf_top_die(),
            )?;
        }
        let (noth, th) = (&self.traces[0], &self.traces[1]);
        write!(
            f,
            "  herding delivers {:+.1}% throughput under this cap",
            100.0 * (th.delivered_ginst() / noth.delivered_ginst() - 1.0)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_chip;
    use crate::thermal::thermal_analysis;
    use th_workloads::workload_by_name;

    /// The pre-cosim open-loop path: full run, average power, one steady
    /// solve. Its peak is the ceiling the closed loop must respect.
    fn open_loop_ceiling_k(variant: Variant, workload: &Workload, rows: usize) -> f64 {
        let result = run_chip(variant, workload, u64::MAX).expect("workload runs");
        thermal_analysis(&result, rows).expect("steady solve converges").peak_k()
    }

    /// A trace at the scaled test budget: the same 50 ms intervals, but
    /// smaller cycle slices and fewer steps so the suite stays fast in
    /// debug builds. Steady-state thermal behaviour is slice-independent
    /// for phase-uniform kernels.
    fn test_trace(variant: Variant, w: &Workload, cap_k: f64, steps: usize) -> DtmTrace {
        let cfg = CoSimConfig::sampled(DTM_INTERVAL_S, 15_000, steps);
        run_variant_scaled(variant, w, cap_k, 16, PolicyKind::Dvfs.build(cap_k), cfg)
    }

    #[test]
    fn herding_avoids_throttling_under_a_tight_cap() {
        let w = workload_by_name("mpeg2-like").unwrap();
        // Cap between the herded ceiling and the unherded one: only the
        // unherded design must throttle.
        let noth = test_trace(Variant::ThreeDNoTh, &w, 376.0, 40);
        let th = test_trace(Variant::ThreeD, &w, 376.0, 40);
        assert!(noth.throttled_fraction() > 0.3, "noTH never throttled");
        assert!(th.throttled_fraction() < 0.05, "TH throttled {:.2}", th.throttled_fraction());
        assert!(th.delivered_ginst() > noth.delivered_ginst());
        // The controller must actually hold the cap (one interval of
        // overshoot allowed).
        assert!(noth.max_peak_k() < 376.0 + 3.0, "cap violated: {:.1}", noth.max_peak_k());
    }

    #[test]
    fn loose_cap_throttles_nobody() {
        let w = workload_by_name("gzip-like").unwrap();
        for variant in [Variant::ThreeDNoTh, Variant::ThreeD] {
            let t = test_trace(variant, &w, 420.0, 25);
            assert_eq!(t.throttled_fraction(), 0.0, "{} throttled", t.variant);
            assert!((t.mean_clock_ghz() - t.nominal_ghz()).abs() < 1e-9);
        }
    }

    #[test]
    fn closed_loop_peak_never_exceeds_open_loop_ceiling() {
        // The open-loop steady solve prices leakage at its constant 18 W
        // reference; the closed loop prices it at the (cooler) actual
        // temperatures and throttles on top. The closed loop must
        // therefore never end up hotter than the open-loop ceiling.
        let w = workload_by_name("mpeg2-like").unwrap();
        for variant in [Variant::ThreeDNoTh, Variant::ThreeD] {
            let ceiling = open_loop_ceiling_k(variant, &w, 16);
            let trace = test_trace(variant, &w, 376.0, 40);
            assert!(
                trace.max_peak_k() <= ceiling + 1.0,
                "{}: closed loop {:.1} K above open-loop ceiling {:.1} K",
                variant,
                trace.max_peak_k(),
                ceiling
            );
        }
    }

    #[test]
    fn mcf_like_holds_the_cap_with_phase_coupled_power() {
        // The acceptance scenario: a memory-bound workload whose phases
        // (cold-cache DRAM storms vs warmed-up locality) must show up in
        // the per-interval power trace while the ladder holds the cap.
        // This one keeps the full 100k-cycle slices: the cold pointer-
        // chase pass alone spans ~3M cycles and the trace must cross into
        // the warm phase (cheap to simulate — the event engine skips the
        // DRAM-stall idle cycles).
        let w = workload_by_name("mcf-like").unwrap();
        let trace = run_variant(Variant::ThreeDNoTh, &w, 376.0, 16);
        assert!(
            trace.max_peak_k() < 376.0 + 3.0,
            "cap violated: {:.1} K",
            trace.max_peak_k()
        );
        let swing = trace.report.dynamic_power_swing();
        assert!(
            swing >= 2.0,
            "per-interval dynamic power varies only {swing:.2}x — phases not coupled"
        );
    }
}
