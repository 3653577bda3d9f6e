//! Integration tests for the coupled loop: phase-following power,
//! temperature-following leakage, interval-chopping invisibility, the
//! zero-power cool-down property, and exact replay of a recorded run
//! under another policy.

use proptest::prelude::*;
use th_cosim::{
    stack_thermal_model, CoSimConfig, CoSimReport, CoSimulator, DtmAction, DtmPolicy,
    DvfsLadder, IntervalObs, NoDtm, PolicyKind,
};
use th_sim::CoreWork;
use th_isa::parse_asm;
use th_power::{LeakageModel, PowerConfig};
use th_sim::{SimConfig, SimSession};
use th_stack3d::{DieStack, Floorplan};
use th_thermal::{HeatSink, SteadySolver, AMBIENT_K};

const SINK_RESISTANCE_K_PER_W: f64 = 0.23;

/// A compute-dense kernel that halts after `iters` loop trips.
fn busy_kernel(iters: u64) -> String {
    format!(
        "
    li   x10, 0
    li   x11, {iters}
loop:
    add  x1, x1, x10
    mul  x2, x1, x10
    add  x3, x3, x2
    addi x10, x10, 1
    bne  x10, x11, loop
    halt
"
    )
}

fn three_d_setup(rows: usize) -> (SimConfig, PowerConfig, LeakageModel, Floorplan, SteadySolver) {
    let floorplan = Floorplan::stacked_dual_core();
    let stack = DieStack::four_die();
    let pcfg = PowerConfig::three_d(3.93, true);
    let leakage = LeakageModel::new(pcfg.chip_leakage_w, &floorplan);
    let model = stack_thermal_model(
        &stack,
        &floorplan,
        HeatSink { resistance_k_per_w: SINK_RESISTANCE_K_PER_W, ambient_k: AMBIENT_K },
    );
    let solver = SteadySolver::new(model, rows, rows);
    (SimConfig::three_d(3.93), pcfg, leakage, floorplan, solver)
}

#[test]
fn heatup_trace_is_coherent_and_leakage_tracks_temperature() {
    let program = parse_asm(&busy_kernel(100_000)).unwrap();
    let (scfg, pcfg, leakage, floorplan, solver) = three_d_setup(12);
    let cfg = CoSimConfig::sampled(0.005, 20_000, 24);
    let cosim = CoSimulator::new(
        scfg,
        pcfg,
        leakage,
        &floorplan,
        solver,
        Box::new(NoDtm),
        cfg,
        &program,
    );
    let report = cosim.run().unwrap();

    assert_eq!(report.intervals.len(), 24);
    let mut prev_t = 0.0;
    for s in &report.intervals {
        assert!(s.t_s > prev_t, "time must advance");
        prev_t = s.t_s;
        assert!(s.cycles > 0, "restart keeps the pipeline busy");
        assert!(s.dynamic_w > 0.0, "active interval must burn dynamic power");
        assert!(s.clock_w > 0.0);
        assert!(s.leakage_w > 0.0);
        assert!(s.peak_k.is_finite() && s.peak_k > AMBIENT_K);
        assert_eq!(s.die_peak_k.len(), 4);
        assert!((s.clock_ghz - 3.93).abs() < 1e-12, "NoDtm never touches the clock");
    }
    // Heating from ambient: temperature rises across the trace, and the
    // temperature-dependent leakage rises with it.
    let first = &report.intervals[0];
    let last = report.intervals.last().unwrap();
    assert!(last.peak_k > first.peak_k + 1.0, "stack must heat up");
    assert!(
        last.leakage_w > first.leakage_w,
        "leakage must track temperature: first {:.2} W, last {:.2} W",
        first.leakage_w,
        last.leakage_w
    );
    // Final per-unit leakage entries are positive and hotter units leak
    // more than they would at ambient.
    assert!(!report.unit_leakage_w.is_empty());
    for &(unit, w) in &report.unit_leakage_w {
        assert!(w > 0.0, "{unit:?} leaks nothing");
    }
}

#[test]
fn dvfs_ladder_throttles_under_a_tight_cap() {
    let program = parse_asm(&busy_kernel(100_000)).unwrap();
    let (scfg, pcfg, leakage, floorplan, solver) = three_d_setup(12);
    // Cap well below this design's steady-state ceiling: the ladder must
    // step the clock down and the trace must settle at or below the cap
    // (one interval of overshoot allowed while the ladder reacts).
    let cap_k = 350.0;
    let cfg = CoSimConfig::sampled(0.01, 20_000, 50);
    let cosim = CoSimulator::new(
        scfg,
        pcfg,
        leakage,
        &floorplan,
        solver,
        Box::new(DvfsLadder::new(cap_k)),
        cfg,
        &program,
    );
    let report = cosim.run().unwrap();
    assert!(
        report.throttled_fraction() > 0.2,
        "ladder never throttled: {:.2}",
        report.throttled_fraction()
    );
    assert!(report.mean_clock_ghz() < 3.93 - 1e-9);
    let tail_peak =
        report.intervals.iter().rev().take(5).map(|s| s.peak_k).fold(f64::NEG_INFINITY, f64::max);
    assert!(tail_peak < cap_k + 3.0, "cap not held: tail peak {tail_peak:.1} K");
}

/// One closed-loop trace under a registry policy, built inside a
/// one-item `map` on `pool`. The solver never fans out and a one-item
/// map runs inline at any lane count, so the trace cannot depend on the
/// pool; comparing a 1-lane and a 4-lane pool holds it to that.
fn trace_with_pool(kind: PolicyKind, cap_k: f64, steps: usize, pool: &th_exec::Pool) -> CoSimReport {
    pool.map(&[0], |_| {
        let program = parse_asm(&busy_kernel(100_000)).unwrap();
        let (scfg, pcfg, leakage, floorplan, solver) = three_d_setup(10);
        let cfg = CoSimConfig::sampled(0.01, 20_000, steps);
        CoSimulator::new(
            scfg,
            pcfg,
            leakage,
            &floorplan,
            solver,
            kind.build(cap_k),
            cfg,
            &program,
        )
        .run()
        .unwrap()
    })
    .pop()
    .unwrap()
}

/// `replayed` equals `computed` bit for bit: every sample, the final
/// per-unit peaks, leakage and top-die fractions, and the recorded
/// decisions. Its policy label is `computed`'s, and it claims no
/// simulation work.
fn assert_replay_is_bit_identical(replayed: &CoSimReport, computed: &CoSimReport) {
    let what = &computed.policy;
    assert_eq!(replayed.policy, computed.policy);
    assert_eq!(replayed.nominal_ghz.to_bits(), computed.nominal_ghz.to_bits());
    assert_eq!(replayed.nominal_fetch_width, computed.nominal_fetch_width);
    assert_eq!(replayed.intervals.len(), computed.intervals.len(), "{what}: interval counts");
    for (i, (a, b)) in replayed.intervals.iter().zip(&computed.intervals).enumerate() {
        assert_eq!((a.committed, a.cycles), (b.committed, b.cycles), "{what} interval {i}");
        assert_eq!(a.fetch_width, b.fetch_width, "{what} interval {i}: fetch");
        let bits = |s: &th_cosim::IntervalSample| -> Vec<u64> {
            [s.t_s, s.peak_k, s.clock_ghz, s.dynamic_w, s.clock_w, s.leakage_w]
                .iter()
                .chain(&s.die_peak_k)
                .map(|x| x.to_bits())
                .collect()
        };
        assert_eq!(bits(a), bits(b), "{what} interval {i}");
    }
    let unit_bits = |list: &[(th_stack3d::Unit, f64)]| -> Vec<(th_stack3d::Unit, u64)> {
        list.iter().map(|&(u, x)| (u, x.to_bits())).collect()
    };
    assert_eq!(unit_bits(&replayed.unit_peaks_k), unit_bits(&computed.unit_peaks_k), "{what}");
    assert_eq!(unit_bits(&replayed.unit_leakage_w), unit_bits(&computed.unit_leakage_w), "{what}");
    assert_eq!(unit_bits(&replayed.unit_top_die), unit_bits(&computed.unit_top_die), "{what}");
    assert_eq!(replayed.decisions.len(), computed.decisions.len(), "{what}: decision counts");
    for (i, (a, b)) in replayed.decisions.iter().zip(&computed.decisions).enumerate() {
        assert_eq!(a.action, b.action, "{what} interval {i}: action");
        assert_eq!(unit_bits(&a.unit_peaks_k), unit_bits(&b.unit_peaks_k), "{what} interval {i}");
    }
    assert_eq!(replayed.sim_work, CoreWork::default(), "{what}: a replay simulates nothing");
    assert_eq!((replayed.sim_wall_s, replayed.solver_wall_s), (0.0, 0.0), "{what}");
    assert_eq!(replayed.solver_sweeps, 0, "{what}");
}

#[test]
fn every_policys_recorded_run_replays_to_itself_bit_for_bit() {
    let cap_k = 350.0;
    let reports: Vec<CoSimReport> = PolicyKind::all()
        .iter()
        .map(|&kind| trace_with_pool(kind, cap_k, 20, th_exec::pool()))
        .collect();
    for (kind, report) in PolicyKind::all().iter().zip(&reports) {
        assert_eq!(report.decisions.len(), report.intervals.len(), "one decision per interval");
        let replayed = report
            .replay(kind.build(cap_k).as_mut())
            .unwrap_or_else(|| panic!("{}: its own run does not replay", kind.name()));
        assert_replay_is_bit_identical(&replayed, report);
    }
    // Across policies a replay is either refused or exact. Under this
    // cap the clock ladder and the fetch throttle act differently, so
    // at least one pair must be refused.
    let mut refused = 0;
    for (kind, own) in PolicyKind::all().iter().zip(&reports) {
        for other in &reports {
            match other.replay(kind.build(cap_k).as_mut()) {
                Some(replayed) => assert_replay_is_bit_identical(&replayed, own),
                None => refused += 1,
            }
        }
    }
    assert!(refused > 0, "no policy pair diverged under a {cap_k} K cap");
}

#[test]
fn a_sibling_policy_with_the_same_decisions_replays_exactly() {
    // Under a cap the stack never nears, the DVFS ladder never moves the
    // clock: it decides exactly as NoDtm does, so NoDtm's run replayed
    // under it equals its own simulated run.
    let cap_k = 1000.0;
    let none = trace_with_pool(PolicyKind::None, cap_k, 12, th_exec::pool());
    let dvfs = trace_with_pool(PolicyKind::Dvfs, cap_k, 12, th_exec::pool());
    let replayed = none.replay(PolicyKind::Dvfs.build(cap_k).as_mut()).expect("same decisions");
    assert_replay_is_bit_identical(&replayed, &dvfs);
}

/// Decides as `inner` does, except at interval `k`, where it returns a
/// different action.
struct DivergeAt {
    inner: Box<dyn DtmPolicy>,
    k: usize,
    seen: usize,
}

impl DtmPolicy for DivergeAt {
    fn name(&self) -> &'static str {
        "diverge"
    }

    fn decide(&mut self, obs: &IntervalObs<'_>) -> DtmAction {
        let action = self.inner.decide(obs);
        self.seen += 1;
        if self.seen - 1 != self.k {
            return action;
        }
        let other = DtmAction { fetch_width: Some(1), ..DtmAction::none() };
        if action == other {
            DtmAction::none()
        } else {
            other
        }
    }
}

#[test]
fn a_policy_that_changes_one_decision_does_not_replay() {
    let cap_k = 350.0;
    let steps = 12;
    for kind in [PolicyKind::None, PolicyKind::Dvfs] {
        let report = trace_with_pool(kind, cap_k, steps, th_exec::pool());
        let diverge_at = |k| DivergeAt { inner: kind.build(cap_k), k, seen: 0 };
        for k in [0, steps / 2, steps - 1] {
            assert!(
                report.replay(&mut diverge_at(k)).is_none(),
                "{}: a changed decision at interval {k} replayed",
                kind.name()
            );
        }
        // The same wrapper that never diverges replays, relabelled.
        let replayed = report.replay(&mut diverge_at(steps)).expect("no decision changed");
        assert_eq!(replayed.policy, "diverge");
    }
}

#[test]
fn fetch_throttle_holds_the_cap_without_touching_the_clock() {
    let cap_k = 350.0;
    let report = trace_with_pool(PolicyKind::Fetch, cap_k, 50, th_exec::pool());
    // The throttle must engage: a meaningful fraction of intervals run
    // below the nominal fetch width...
    assert!(
        report.throttled_fraction() > 0.2,
        "fetch throttle never engaged: {:.2}",
        report.throttled_fraction()
    );
    assert!(report.intervals.iter().any(|s| s.fetch_width < 4), "width never reduced");
    // ...while the clock domain stays untouched (that is DVFS's knob).
    for s in &report.intervals {
        assert!((s.clock_ghz - 3.93).abs() < 1e-12, "fetch throttle moved the clock");
    }
    // And the trace must settle at or below the cap once the controller
    // has reacted (one interval of overshoot allowed, as for DVFS).
    let tail_peak =
        report.intervals.iter().rev().take(5).map(|s| s.peak_k).fold(f64::NEG_INFINITY, f64::max);
    assert!(tail_peak < cap_k + 3.0, "cap not held: tail peak {tail_peak:.1} K");
}

#[test]
fn herding_aware_holds_the_cap_with_both_actuators_available() {
    let cap_k = 350.0;
    let report = trace_with_pool(PolicyKind::Herding, cap_k, 50, th_exec::pool());
    assert!(
        report.throttled_fraction() > 0.2,
        "hybrid never throttled: {:.2}",
        report.throttled_fraction()
    );
    let tail_peak =
        report.intervals.iter().rev().take(5).map(|s| s.peak_k).fold(f64::NEG_INFINITY, f64::max);
    assert!(tail_peak < cap_k + 3.0, "cap not held: tail peak {tail_peak:.1} K");
    // The hybrid picks its actuator by hotspot die, so at least one of
    // the two knobs must have moved off nominal.
    let moved_clock = report.intervals.iter().any(|s| s.clock_ghz < 3.93 - 1e-9);
    let moved_fetch = report.intervals.iter().any(|s| s.fetch_width < 4);
    assert!(moved_clock || moved_fetch, "neither actuator engaged");
}

#[test]
fn fetch_and_herding_traces_are_bit_identical_across_thread_counts() {
    for kind in [PolicyKind::Fetch, PolicyKind::Herding] {
        let seq = trace_with_pool(kind, 350.0, 20, &th_exec::Pool::new(1));
        let par = trace_with_pool(kind, 350.0, 20, &th_exec::Pool::new(4));
        assert_eq!(seq.intervals.len(), par.intervals.len(), "{}: interval counts", kind.name());
        for (i, (a, b)) in seq.intervals.iter().zip(&par.intervals).enumerate() {
            assert_eq!(a.committed, b.committed, "{} interval {i}: committed", kind.name());
            assert_eq!(a.cycles, b.cycles, "{} interval {i}: cycles", kind.name());
            assert_eq!(a.fetch_width, b.fetch_width, "{} interval {i}: fetch", kind.name());
            for (field, x, y) in [
                ("t_s", a.t_s, b.t_s),
                ("peak_k", a.peak_k, b.peak_k),
                ("clock_ghz", a.clock_ghz, b.clock_ghz),
                ("dynamic_w", a.dynamic_w, b.dynamic_w),
                ("clock_w", a.clock_w, b.clock_w),
                ("leakage_w", a.leakage_w, b.leakage_w),
            ] {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{} interval {i}: {field} differs: {x} vs {y}",
                    kind.name()
                );
            }
            for (d, (x, y)) in a.die_peak_k.iter().zip(&b.die_peak_k).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{} interval {i}: die {d}", kind.name());
            }
        }
    }
}

#[test]
fn interval_chopping_is_statistically_invisible() {
    let program = parse_asm(&busy_kernel(4_000)).unwrap();
    let cfg = SimConfig::three_d(3.93);

    let mut oneshot = SimSession::new(cfg, &program);
    oneshot.run_interval(u64::MAX / 2).unwrap();
    assert!(oneshot.finished());

    let mut chopped = SimSession::new(cfg, &program);
    while !chopped.run_interval(1_000).unwrap() {}

    assert_eq!(oneshot.cycle(), chopped.cycle());
    assert_eq!(oneshot.stats(), chopped.stats(), "chopping changed the statistics");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// After the workload halts (no restart, power gated), every
    /// subsequent interval is strictly cooler and the stack relaxes
    /// toward ambient.
    #[test]
    fn zero_activity_intervals_cool_monotonically_toward_ambient(
        iters in 200u64..2_000,
        interval_ms in 5.0f64..20.0,
    ) {
        let program = parse_asm(&busy_kernel(iters)).unwrap();
        let (scfg, pcfg, leakage, floorplan, solver) = three_d_setup(8);
        let mut cfg = CoSimConfig::sampled(interval_ms * 1e-3, 400_000, 40);
        cfg.restart = false; // run to halt, then cool
        let cosim = CoSimulator::new(
            scfg, pcfg, leakage, &floorplan, solver, Box::new(NoDtm), cfg, &program,
        );
        let report = cosim.run().unwrap();

        // Find the gated tail: intervals with zero activity and zero power.
        let idle_from = report
            .intervals
            .iter()
            .position(|s| s.cycles == 0)
            .expect("workload must halt within the trace");
        prop_assert!(idle_from >= 1, "first interval must execute something");
        let tail = &report.intervals[idle_from..];
        prop_assert!(tail.len() >= 10, "need a cool-down tail to observe");
        let mut prev = report.intervals[idle_from - 1].peak_k;
        for s in tail {
            prop_assert!(s.dynamic_w == 0.0 && s.clock_w == 0.0 && s.leakage_w == 0.0,
                "gated interval still burns power");
            prop_assert!(s.peak_k <= prev + 1e-9,
                "cool-down not monotone: {} after {}", s.peak_k, prev);
            prop_assert!(s.peak_k >= AMBIENT_K - 1e-6, "cooled below ambient");
            prev = s.peak_k;
        }
        // The tail spans >= 10 intervals of >= 5 ms against a package time
        // constant of tens of ms: the stack must have shed most of its
        // excess heat.
        let first_excess = (report.intervals[idle_from - 1].peak_k - AMBIENT_K).max(1e-12);
        let last_excess = tail.last().unwrap().peak_k - AMBIENT_K;
        prop_assert!(
            last_excess < 0.5 * first_excess,
            "stack barely cooled: {last_excess:.3} K excess of {first_excess:.3} K"
        );
    }
}
