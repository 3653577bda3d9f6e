//! Chip-level runs: simulate one core, price the dual-core chip.

use crate::config::Variant;
use th_power::{DieFractionTable, PowerBreakdown, PowerModel};
use th_sim::{SimStats, Simulator};
use th_workloads::Workload;

/// Result of running a workload on the dual-core chip of §4.
///
/// Both cores run an identical instance of the workload (as in Figure 9's
/// "two identical instances of the Mpeg2 encoder"), so one core is
/// simulated and the chip statistics double it. Shared-L2 interference
/// between the cores is not modelled — a second-order effect the paper's
/// per-core activity methodology also ignores.
#[derive(Clone, Debug)]
pub struct ChipResult {
    /// The design point.
    pub variant: Variant,
    /// Workload name.
    pub workload: &'static str,
    /// Clock frequency, GHz.
    pub clock_ghz: f64,
    /// Single-core timing statistics.
    pub core_stats: SimStats,
    /// Chip-aggregated statistics (both cores).
    pub chip_stats: SimStats,
    /// Chip power.
    pub power: PowerBreakdown,
}

impl ChipResult {
    /// Per-core IPC.
    pub fn ipc(&self) -> f64 {
        self.core_stats.ipc()
    }

    /// Per-core instructions per nanosecond (Figure 8b's metric).
    pub fn ipns(&self) -> f64 {
        self.ipc() * self.clock_ghz
    }

    /// Cycles of the (representative) core — the chip's time basis.
    pub fn cycles(&self) -> u64 {
        self.core_stats.cycles
    }

    /// The run's per-unit die-fraction table, from its measured
    /// activity-ledger rows.
    pub fn die_table(&self) -> DieFractionTable {
        let model = PowerModel::new();
        DieFractionTable::new(&self.chip_stats, model.energies(), &self.variant.power_config())
    }

    /// Top-die share of the run's dynamic power.
    pub fn top_die_share(&self) -> f64 {
        let model = PowerModel::new();
        th_power::top_die_share(
            &self.power,
            &self.chip_stats,
            model.energies(),
            &self.variant.power_config(),
        )
    }
}

/// Simulates `workload` at `variant` (capped at `max_insts` per core) and
/// prices the chip.
///
/// The first fifth of the instruction window is treated as warmup and
/// excluded from the reported statistics (caches and predictors stay
/// warm), mirroring SimPoint-style measurement (§4).
///
/// # Errors
///
/// Propagates [`th_isa::Trap`] from the simulator (a workload bug).
pub fn run_chip(
    variant: Variant,
    workload: &Workload,
    max_insts: u64,
) -> Result<ChipResult, th_isa::Trap> {
    let cfg = variant.sim_config();
    let budget = max_insts.min(workload.inst_budget);
    let result =
        Simulator::new(cfg).run_with_warmup(&workload.program, budget / 5, budget)?;
    let core_stats = result.stats;
    let mut chip_stats = core_stats.clone();
    chip_stats.merge(&core_stats);
    let power = PowerModel::new().compute(&chip_stats, core_stats.cycles, &variant.power_config());
    Ok(ChipResult {
        variant,
        workload: workload.name,
        clock_ghz: cfg.clock_ghz,
        core_stats,
        chip_stats,
        power,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use th_workloads::workload_by_name;

    #[test]
    fn chip_doubles_core_activity() {
        let w = workload_by_name("gzip-like").unwrap();
        let r = run_chip(Variant::Base, &w, 30_000).unwrap();
        assert_eq!(r.chip_stats.committed, 2 * r.core_stats.committed);
        assert_eq!(r.cycles(), r.core_stats.cycles);
        assert!(r.power.total_w() > 0.0);
    }

    #[test]
    fn three_d_is_faster_and_cooler_on_compute_code() {
        let w = workload_by_name("mpeg2-like").unwrap();
        let base = run_chip(Variant::Base, &w, 60_000).unwrap();
        let three_d = run_chip(Variant::ThreeD, &w, 60_000).unwrap();
        assert!(three_d.ipns() > base.ipns() * 1.2, "speedup {:.2}", three_d.ipns() / base.ipns());
        assert!(three_d.power.total_w() < base.power.total_w());
    }
}
