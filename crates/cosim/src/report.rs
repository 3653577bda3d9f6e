//! Co-simulation output: the per-interval time series and summaries.

use crate::policy::{DtmAction, DtmPolicy, IntervalObs};
use std::fmt;
use th_sim::CoreWork;
use th_stack3d::Unit;

/// One interval of the co-simulation trace.
#[derive(Clone, Debug, PartialEq)]
pub struct IntervalSample {
    /// Simulated time at the end of the interval, seconds.
    pub t_s: f64,
    /// Hottest temperature anywhere in the stack, kelvin.
    pub peak_k: f64,
    /// Peak temperature per die (index 0 = adjacent to the heat sink).
    pub die_peak_k: Vec<f64>,
    /// Clock the interval ran at, GHz.
    pub clock_ghz: f64,
    /// Fetch width the interval ran at.
    pub fetch_width: usize,
    /// Instructions committed this interval (per core).
    pub committed: u64,
    /// Cycles simulated this interval (per core).
    pub cycles: u64,
    /// Chip dynamic power over the interval, watts.
    pub dynamic_w: f64,
    /// Clock-network power, watts.
    pub clock_w: f64,
    /// Chip leakage power (temperature-dependent), watts.
    pub leakage_w: f64,
}

impl IntervalSample {
    /// Per-core IPC over the interval.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Total chip power over the interval, watts.
    pub fn total_w(&self) -> f64 {
        self.dynamic_w + self.clock_w + self.leakage_w
    }

    /// What a policy observes after this interval: the one constructor
    /// of [`IntervalObs`] for the live loop and for
    /// [`CoSimReport::replay`], so a replay feeds exactly what the run fed.
    pub(crate) fn observation<'a>(
        &'a self,
        unit_peaks_k: &'a [(Unit, f64)],
        nominal_ghz: f64,
        nominal_fetch_width: usize,
    ) -> IntervalObs<'a> {
        IntervalObs {
            t_s: self.t_s,
            peak_k: self.peak_k,
            die_peak_k: &self.die_peak_k,
            unit_peaks_k,
            clock_ghz: self.clock_ghz,
            fetch_width: self.fetch_width,
            nominal_ghz,
            nominal_fetch_width,
            ipc: self.ipc(),
        }
    }
}

/// The policy's side of one interval: the observation it got beyond the
/// interval's [`IntervalSample`], and the action it returned.
#[derive(Clone, Debug, PartialEq)]
pub struct IntervalDecision {
    /// Per-unit peak temperature after the interval, kelvin.
    pub unit_peaks_k: Vec<(Unit, f64)>,
    /// The decision, applied to the next interval.
    pub action: DtmAction,
}

/// The full co-simulation result: the interval time series plus the final
/// thermal/leakage state.
#[derive(Clone, Debug)]
pub struct CoSimReport {
    /// The DTM policy that ran ("none", "dvfs", ...).
    pub policy: String,
    /// The design's nominal clock, GHz.
    pub nominal_ghz: f64,
    /// The design's nominal fetch width.
    pub nominal_fetch_width: usize,
    /// One sample per interval, in time order.
    pub intervals: Vec<IntervalSample>,
    /// One policy decision per interval, aligned with `intervals`.
    pub decisions: Vec<IntervalDecision>,
    /// Per-unit peak temperature at the end of the run, kelvin.
    pub unit_peaks_k: Vec<(Unit, f64)>,
    /// Per-unit leakage at the final temperatures, watts (chip total per
    /// unit; the clock network carries none).
    pub unit_leakage_w: Vec<(Unit, f64)>,
    /// Per-unit top-die power fraction over the whole run, measured from
    /// the cumulative activity ledger.
    pub unit_top_die: Vec<(Unit, f64)>,
    /// Wall-clock seconds spent inside the cycle simulator.
    pub sim_wall_s: f64,
    /// The cycle simulator's work over the run (telemetry, like the
    /// wall-clock fields).
    pub sim_work: CoreWork,
    /// Wall-clock seconds spent inside the thermal solver.
    pub solver_wall_s: f64,
    /// Relaxation sweeps over all transient steps.
    pub solver_sweeps: usize,
}

impl CoSimReport {
    /// This run as `policy` would have produced it, if `policy` makes
    /// exactly the recorded decisions. Each interval's observation is
    /// rebuilt from the record and fed to `policy`, which must be fresh.
    /// The first decision that differs from the recorded [`DtmAction`]
    /// returns `None`.
    ///
    /// The trajectory is a deterministic function of the run's inputs and
    /// its action sequence (the [`DtmPolicy`] contract), so the returned
    /// report is bit-identical to simulating under `policy`. It is
    /// relabelled for `policy`, and its wall times, work counters and
    /// solver sweeps are zero: nothing was simulated.
    pub fn replay(&self, policy: &mut dyn DtmPolicy) -> Option<CoSimReport> {
        if self.decisions.len() != self.intervals.len() {
            return None;
        }
        for (sample, decision) in self.intervals.iter().zip(&self.decisions) {
            let obs = sample.observation(
                &decision.unit_peaks_k,
                self.nominal_ghz,
                self.nominal_fetch_width,
            );
            if policy.decide(&obs) != decision.action {
                return None;
            }
        }
        Some(CoSimReport {
            policy: policy.name().to_string(),
            sim_wall_s: 0.0,
            sim_work: CoreWork::default(),
            solver_wall_s: 0.0,
            solver_sweeps: 0,
            ..self.clone()
        })
    }

    /// Hottest temperature over the whole run.
    pub fn max_peak_k(&self) -> f64 {
        self.intervals.iter().map(|s| s.peak_k).fold(f64::NEG_INFINITY, f64::max)
    }

    /// Simulated seconds covered.
    pub fn duration_s(&self) -> f64 {
        self.intervals.last().map_or(0.0, |s| s.t_s)
    }

    /// Time-weighted mean clock, GHz (intervals are equal-length, so this
    /// is the plain mean).
    pub fn mean_clock_ghz(&self) -> f64 {
        if self.intervals.is_empty() {
            return 0.0;
        }
        self.intervals.iter().map(|s| s.clock_ghz).sum::<f64>() / self.intervals.len() as f64
    }

    /// Fraction of intervals that ran below the nominal operating point
    /// (clock or fetch width throttled).
    pub fn throttled_fraction(&self) -> f64 {
        if self.intervals.is_empty() {
            return 0.0;
        }
        let throttled = self
            .intervals
            .iter()
            .filter(|s| {
                s.clock_ghz < self.nominal_ghz - 1e-9 || s.fetch_width < self.nominal_fetch_width
            })
            .count();
        throttled as f64 / self.intervals.len() as f64
    }

    /// Giga-instructions committed per core over the run.
    pub fn delivered_ginst(&self) -> f64 {
        self.intervals.iter().map(|s| s.committed).sum::<u64>() as f64 / 1e9
    }

    /// Per-core IPC over the whole run.
    pub fn ipc(&self) -> f64 {
        let cycles: u64 = self.intervals.iter().map(|s| s.cycles).sum();
        if cycles == 0 {
            0.0
        } else {
            self.intervals.iter().map(|s| s.committed).sum::<u64>() as f64 / cycles as f64
        }
    }

    /// Max/min ratio of per-interval *dynamic* power over intervals that
    /// executed work — the phase-coupling signal (a scaled-constant power
    /// trace has ratio 1).
    pub fn dynamic_power_swing(&self) -> f64 {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for s in self.intervals.iter().filter(|s| s.cycles > 0) {
            lo = lo.min(s.dynamic_w);
            hi = hi.max(s.dynamic_w);
        }
        if !lo.is_finite() || !hi.is_finite() || lo <= 0.0 {
            1.0
        } else {
            hi / lo
        }
    }

    /// Measured top-die power fraction of one unit over the whole run.
    pub fn top_die_fraction(&self, unit: Unit) -> Option<f64> {
        self.unit_top_die.iter().find(|(u, _)| *u == unit).map(|&(_, f)| f)
    }

    /// Mean chip leakage power across intervals, watts.
    pub fn mean_leakage_w(&self) -> f64 {
        if self.intervals.is_empty() {
            return 0.0;
        }
        self.intervals.iter().map(|s| s.leakage_w).sum::<f64>() / self.intervals.len() as f64
    }
}

impl fmt::Display for CoSimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "co-sim [{}]: {:.1} ms in {} intervals, peak {:.1} K, mean clock {:.2} GHz, IPC {:.3}",
            self.policy,
            self.duration_s() * 1e3,
            self.intervals.len(),
            self.max_peak_k(),
            self.mean_clock_ghz(),
            self.ipc(),
        )?;
        writeln!(
            f,
            "  dynamic power swing {:.2}x, mean leakage {:.1} W",
            self.dynamic_power_swing(),
            self.mean_leakage_w(),
        )?;
        for s in &self.intervals {
            writeln!(
                f,
                "  t={:7.2}ms peak={:6.1}K clk={:4.2}GHz fw={} ipc={:5.3} dyn={:6.2}W clkW={:5.2} leak={:5.2}W",
                s.t_s * 1e3,
                s.peak_k,
                s.clock_ghz,
                s.fetch_width,
                s.ipc(),
                s.dynamic_w,
                s.clock_w,
                s.leakage_w,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(clock: f64, fetch: usize, dyn_w: f64) -> IntervalSample {
        IntervalSample {
            t_s: 0.001,
            peak_k: 350.0,
            die_peak_k: vec![350.0; 4],
            clock_ghz: clock,
            fetch_width: fetch,
            committed: 1000,
            cycles: 2000,
            dynamic_w: dyn_w,
            clock_w: 10.0,
            leakage_w: 5.0,
        }
    }

    fn report(samples: Vec<IntervalSample>) -> CoSimReport {
        CoSimReport {
            policy: "none".into(),
            nominal_ghz: 3.93,
            nominal_fetch_width: 4,
            intervals: samples,
            decisions: vec![],
            unit_peaks_k: vec![],
            unit_leakage_w: vec![],
            unit_top_die: vec![],
            sim_wall_s: 0.0,
            sim_work: CoreWork::default(),
            solver_wall_s: 0.0,
            solver_sweeps: 0,
        }
    }

    #[test]
    fn summaries() {
        let r = report(vec![sample(3.93, 4, 10.0), sample(3.73, 4, 25.0), sample(3.93, 2, 20.0)]);
        assert!((r.ipc() - 0.5).abs() < 1e-12);
        assert!((r.throttled_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert!((r.dynamic_power_swing() - 2.5).abs() < 1e-12);
        assert!((r.delivered_ginst() - 3e-6).abs() < 1e-18);
    }

    #[test]
    fn empty_report_is_sane() {
        let r = report(vec![]);
        assert_eq!(r.ipc(), 0.0);
        assert_eq!(r.throttled_fraction(), 0.0);
        assert_eq!(r.dynamic_power_swing(), 1.0);
        assert_eq!(r.duration_s(), 0.0);
    }

    #[test]
    fn idle_intervals_do_not_count_toward_swing() {
        let mut idle = sample(3.93, 4, 0.0);
        idle.cycles = 0;
        let r = report(vec![sample(3.93, 4, 10.0), idle, sample(3.93, 4, 20.0)]);
        assert!((r.dynamic_power_swing() - 2.0).abs() < 1e-12);
    }
}
