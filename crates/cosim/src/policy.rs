//! Pluggable dynamic thermal management (DTM) policies.
//!
//! A policy sees one [`IntervalObs`] per co-simulation interval — the
//! solved temperatures and the operating point that produced them — and
//! returns a [`DtmAction`] that takes effect at the *next* interval. This
//! one-interval actuation lag is deliberate: real DTM controllers read
//! thermal sensors and reprogram clock dividers with exactly this kind of
//! delay, and it keeps every interval's simulation independent of its own
//! thermal outcome.

use th_stack3d::Unit;

/// What a policy observes after an interval's thermal solve.
#[derive(Clone, Copy, Debug)]
pub struct IntervalObs<'a> {
    /// Simulated time at the end of the interval, seconds.
    pub t_s: f64,
    /// Hottest temperature anywhere in the stack, kelvin.
    pub peak_k: f64,
    /// Peak temperature per die (index 0 = adjacent to the heat sink).
    pub die_peak_k: &'a [f64],
    /// Peak temperature per floorplan unit (clock network excluded).
    pub unit_peaks_k: &'a [(Unit, f64)],
    /// Clock the interval ran at, GHz.
    pub clock_ghz: f64,
    /// Fetch width the interval ran at.
    pub fetch_width: usize,
    /// The design's nominal clock, GHz.
    pub nominal_ghz: f64,
    /// The design's nominal fetch width.
    pub nominal_fetch_width: usize,
    /// Per-core IPC over the interval.
    pub ipc: f64,
}

/// Knob changes for the next interval. `None` leaves a knob untouched.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DtmAction {
    /// New core clock, GHz.
    pub clock_ghz: Option<f64>,
    /// New fetch width.
    pub fetch_width: Option<usize>,
}

impl DtmAction {
    /// The no-op action.
    pub fn none() -> DtmAction {
        DtmAction::default()
    }
}

/// A closed-loop thermal controller.
///
/// **Contract:** [`decide`](DtmPolicy::decide) may depend only on the
/// observations fed to this policy, in the order they were fed: no
/// clock, no randomness, no state shared with anything else. A
/// co-simulation's trajectory is then a pure function of its inputs and
/// its action sequence, which is what lets
/// [`CoSimReport::replay`](crate::CoSimReport::replay) reuse one run for
/// every policy that makes the same decisions.
pub trait DtmPolicy {
    /// Short name for reports ("none", "dvfs", ...).
    fn name(&self) -> &'static str;
    /// Observes one interval, decides the next interval's knobs.
    fn decide(&mut self, obs: &IntervalObs<'_>) -> DtmAction;
}

/// No thermal management: the chip always runs at nominal.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoDtm;

impl DtmPolicy for NoDtm {
    fn name(&self) -> &'static str {
        "none"
    }

    fn decide(&mut self, _obs: &IntervalObs<'_>) -> DtmAction {
        DtmAction::none()
    }
}

/// The classic DVFS ladder: step the clock down while the peak exceeds
/// the cap, step it back up toward nominal once there is headroom.
#[derive(Clone, Copy, Debug)]
pub struct DvfsLadder {
    /// Temperature cap, kelvin.
    pub cap_k: f64,
    /// Clock step per interval, GHz.
    pub step_ghz: f64,
    /// Lowest clock the ladder will reach, GHz.
    pub floor_ghz: f64,
    /// Recovery headroom below the cap before stepping back up, kelvin.
    pub headroom_k: f64,
}

impl DvfsLadder {
    /// The default ladder for a given cap: 0.2 GHz steps, 2.0 GHz floor,
    /// 1.5 K recovery headroom.
    pub fn new(cap_k: f64) -> DvfsLadder {
        DvfsLadder { cap_k, step_ghz: 0.2, floor_ghz: 2.0, headroom_k: 1.5 }
    }

    fn step_down(&self, obs: &IntervalObs<'_>) -> Option<f64> {
        let next = (obs.clock_ghz - self.step_ghz).max(self.floor_ghz);
        (next < obs.clock_ghz).then_some(next)
    }

    fn step_up(&self, obs: &IntervalObs<'_>) -> Option<f64> {
        let next = (obs.clock_ghz + self.step_ghz).min(obs.nominal_ghz);
        (next > obs.clock_ghz).then_some(next)
    }
}

impl DtmPolicy for DvfsLadder {
    fn name(&self) -> &'static str {
        "dvfs"
    }

    fn decide(&mut self, obs: &IntervalObs<'_>) -> DtmAction {
        if obs.peak_k > self.cap_k {
            DtmAction { clock_ghz: self.step_down(obs), ..DtmAction::none() }
        } else if obs.peak_k < self.cap_k - self.headroom_k {
            DtmAction { clock_ghz: self.step_up(obs), ..DtmAction::none() }
        } else {
            DtmAction::none()
        }
    }
}

/// Fetch throttling: halve the fetch width while over the cap, double it
/// back toward nominal with headroom. Cuts activity (and therefore
/// dynamic power) without touching the clock domain.
#[derive(Clone, Copy, Debug)]
pub struct FetchThrottle {
    /// Temperature cap, kelvin.
    pub cap_k: f64,
    /// Recovery headroom below the cap, kelvin.
    pub headroom_k: f64,
}

impl FetchThrottle {
    /// Throttle against `cap_k` with the default 1.5 K headroom.
    pub fn new(cap_k: f64) -> FetchThrottle {
        FetchThrottle { cap_k, headroom_k: 1.5 }
    }
}

impl DtmPolicy for FetchThrottle {
    fn name(&self) -> &'static str {
        "fetch"
    }

    fn decide(&mut self, obs: &IntervalObs<'_>) -> DtmAction {
        if obs.peak_k > self.cap_k {
            let next = (obs.fetch_width / 2).max(1);
            DtmAction {
                fetch_width: (next < obs.fetch_width).then_some(next),
                ..DtmAction::none()
            }
        } else if obs.peak_k < self.cap_k - self.headroom_k {
            let next = (obs.fetch_width * 2).min(obs.nominal_fetch_width);
            DtmAction {
                fetch_width: (next > obs.fetch_width).then_some(next),
                ..DtmAction::none()
            }
        } else {
            DtmAction::none()
        }
    }
}

/// Herding-aware hybrid: picks the actuator by *where* the hotspot sits
/// in the stack. Die 0 is bonded to the heat sink; Thermal Herding
/// deliberately steers switching there because its heat has the shortest
/// path out (§2). A violation on die 0 is therefore a transient activity
/// burst that mild fetch throttling absorbs, while a violation on a
/// buried die (1–3) means heat is trapped under the stack and only a
/// frequency/voltage cut moves enough power to help.
#[derive(Clone, Copy, Debug)]
pub struct HerdingAware {
    /// The DVFS ladder used for buried-die violations (and its cap).
    pub dvfs: DvfsLadder,
    /// The fetch throttle used for sink-adjacent violations.
    pub fetch: FetchThrottle,
}

impl HerdingAware {
    /// Hybrid policy against one cap.
    pub fn new(cap_k: f64) -> HerdingAware {
        HerdingAware { dvfs: DvfsLadder::new(cap_k), fetch: FetchThrottle::new(cap_k) }
    }
}

impl DtmPolicy for HerdingAware {
    fn name(&self) -> &'static str {
        "herding"
    }

    fn decide(&mut self, obs: &IntervalObs<'_>) -> DtmAction {
        let cap = self.dvfs.cap_k;
        if obs.peak_k > cap {
            let hottest_die = obs
                .die_peak_k
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map_or(0, |(i, _)| i);
            if hottest_die == 0 && obs.fetch_width > 1 {
                self.fetch.decide(obs)
            } else {
                self.dvfs.decide(obs)
            }
        } else if obs.peak_k < cap - self.dvfs.headroom_k {
            // Recover throughput cheapest-first: fetch width, then clock.
            if obs.fetch_width < obs.nominal_fetch_width {
                self.fetch.decide(obs)
            } else {
                self.dvfs.decide(obs)
            }
        } else {
            DtmAction::none()
        }
    }
}

/// Policy selection by name, for CLI/env plumbing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// [`NoDtm`].
    None,
    /// [`DvfsLadder`].
    Dvfs,
    /// [`FetchThrottle`].
    Fetch,
    /// [`HerdingAware`].
    Herding,
}

impl PolicyKind {
    /// Parses "none" / "dvfs" / "fetch" / "herding".
    pub fn by_name(name: &str) -> Option<PolicyKind> {
        match name {
            "none" => Some(PolicyKind::None),
            "dvfs" => Some(PolicyKind::Dvfs),
            "fetch" => Some(PolicyKind::Fetch),
            "herding" => Some(PolicyKind::Herding),
            _ => None,
        }
    }

    /// All selectable kinds, for help text.
    pub fn all() -> &'static [PolicyKind] {
        &[PolicyKind::None, PolicyKind::Dvfs, PolicyKind::Fetch, PolicyKind::Herding]
    }

    /// The policy's CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::None => "none",
            PolicyKind::Dvfs => "dvfs",
            PolicyKind::Fetch => "fetch",
            PolicyKind::Herding => "herding",
        }
    }

    /// Instantiates the policy against a temperature cap.
    pub fn build(&self, cap_k: f64) -> Box<dyn DtmPolicy> {
        match self {
            PolicyKind::None => Box::new(NoDtm),
            PolicyKind::Dvfs => Box::new(DvfsLadder::new(cap_k)),
            PolicyKind::Fetch => Box::new(FetchThrottle::new(cap_k)),
            PolicyKind::Herding => Box::new(HerdingAware::new(cap_k)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(peak: f64, die_peaks: &[f64; 4], clock: f64, fetch: usize) -> IntervalObs<'_> {
        IntervalObs {
            t_s: 0.0,
            peak_k: peak,
            die_peak_k: die_peaks,
            unit_peaks_k: &[],
            clock_ghz: clock,
            fetch_width: fetch,
            nominal_ghz: 3.93,
            nominal_fetch_width: 4,
            ipc: 1.0,
        }
    }

    #[test]
    fn dvfs_ladder_steps_down_and_recovers() {
        let mut p = DvfsLadder::new(376.0);
        let hot = [380.0; 4];
        let a = p.decide(&obs(380.0, &hot, 3.93, 4));
        assert_eq!(a.clock_ghz, Some(3.73));
        // At the floor, no further cut.
        let a = p.decide(&obs(380.0, &hot, 2.0, 4));
        assert_eq!(a.clock_ghz, None);
        // Cool with headroom: step up, capped at nominal.
        let cool = [360.0; 4];
        let a = p.decide(&obs(360.0, &cool, 3.8, 4));
        assert_eq!(a.clock_ghz, Some(3.93));
        // In the hysteresis band: hold.
        let a = p.decide(&obs(375.5, &[375.5; 4], 3.0, 4));
        assert_eq!(a, DtmAction::none());
    }

    #[test]
    fn fetch_throttle_halves_and_doubles() {
        let mut p = FetchThrottle::new(376.0);
        let a = p.decide(&obs(380.0, &[380.0; 4], 3.93, 4));
        assert_eq!(a.fetch_width, Some(2));
        let a = p.decide(&obs(380.0, &[380.0; 4], 3.93, 1));
        assert_eq!(a.fetch_width, None);
        let a = p.decide(&obs(360.0, &[360.0; 4], 3.93, 2));
        assert_eq!(a.fetch_width, Some(4));
    }

    #[test]
    fn herding_aware_picks_actuator_by_die() {
        let mut p = HerdingAware::new(376.0);
        // Hotspot on the sink-adjacent die: throttle fetch, keep clock.
        let a = p.decide(&obs(380.0, &[380.0, 370.0, 369.0, 368.0], 3.93, 4));
        assert_eq!(a.fetch_width, Some(2));
        assert_eq!(a.clock_ghz, None);
        // Hotspot buried in the stack: cut the clock.
        let a = p.decide(&obs(380.0, &[370.0, 375.0, 378.0, 380.0], 3.93, 4));
        assert_eq!(a.clock_ghz, Some(3.73));
        assert_eq!(a.fetch_width, None);
        // Recovery restores fetch width before clock.
        let a = p.decide(&obs(360.0, &[360.0; 4], 3.73, 2));
        assert_eq!(a.fetch_width, Some(4));
        assert_eq!(a.clock_ghz, None);
    }

    #[test]
    fn policy_kinds_round_trip() {
        for k in PolicyKind::all() {
            assert_eq!(PolicyKind::by_name(k.name()), Some(*k));
            assert_eq!(k.build(376.0).name(), k.name());
        }
        assert_eq!(PolicyKind::by_name("bogus"), None);
    }
}
