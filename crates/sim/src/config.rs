//! Simulator configuration (Table 1 plus the paper's design points).

use th_width::WidthPolicy;

/// Which core-loop implementation executes the pipeline.
///
/// Both engines model the identical machine and must produce bit-identical
/// [`crate::SimStats`]; `Scan` is the original per-cycle linear-scan loop,
/// kept as the reference oracle for the event-driven rewrite.
/// [`SimConfig::engine`] is the only selector; every [`SimConfig`]
/// constructor starts with `Event`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoreEngine {
    /// Walk the full ROB/IFQ every cycle (the seed implementation).
    Scan,
    /// Completion-event heap, dependency wakeup lists, an explicit ready
    /// queue, and idle-cycle skipping.
    Event,
}

/// Structural core parameters (Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreParams {
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Instructions decoded/dispatched per cycle.
    pub decode_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Maximum instructions issued to execution per cycle.
    pub issue_width: usize,
    /// Reorder buffer entries.
    pub rob_size: usize,
    /// Reservation station entries.
    pub rs_size: usize,
    /// Load queue entries.
    pub lq_size: usize,
    /// Store queue entries.
    pub sq_size: usize,
    /// Instruction fetch queue entries.
    pub ifq_size: usize,
    /// Simple integer ALUs.
    pub int_alu: usize,
    /// Shifter units.
    pub int_shift: usize,
    /// Integer multiply/complex units.
    pub int_mul: usize,
    /// FP adders.
    pub fp_add: usize,
    /// FP multipliers.
    pub fp_mul: usize,
    /// FP divide/sqrt units.
    pub fp_div: usize,
    /// Load/store-capable memory ports.
    pub mem_ports: usize,
    /// Additional load-only ports.
    pub load_only_ports: usize,
}

impl Default for CoreParams {
    fn default() -> CoreParams {
        CoreParams {
            fetch_width: 4,
            decode_width: 4,
            commit_width: 4,
            issue_width: 6,
            rob_size: 96,
            rs_size: 32,
            lq_size: 32,
            sq_size: 20,
            ifq_size: 16,
            int_alu: 3,
            int_shift: 2,
            int_mul: 1,
            fp_add: 1,
            fp_mul: 1,
            fp_div: 1,
            mem_ports: 1,
            load_only_ports: 1,
        }
    }
}

/// Execution latencies per functional-unit class, in cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FuLatencies {
    /// Simple ALU / branch resolution.
    pub int_alu: u64,
    /// Shift.
    pub int_shift: u64,
    /// Integer multiply.
    pub int_mul: u64,
    /// Integer divide.
    pub int_div: u64,
    /// FP add/sub/convert/compare.
    pub fp_add: u64,
    /// FP multiply.
    pub fp_mul: u64,
    /// FP divide.
    pub fp_div: u64,
    /// FP square root.
    pub fp_sqrt: u64,
    /// Address generation for loads/stores.
    pub agu: u64,
}

impl Default for FuLatencies {
    fn default() -> FuLatencies {
        FuLatencies {
            int_alu: 1,
            int_shift: 1,
            int_mul: 3,
            int_div: 20,
            fp_add: 3,
            fp_mul: 5,
            fp_div: 20,
            fp_sqrt: 30,
            agu: 1,
        }
    }
}

/// Pipeline-organisation parameters that the 3D design improves (§3.8):
/// a shorter branch-redirect path and a faster L2 (in cycles), and removal
/// of the extra FP-load routing cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Front-end depth: cycles from fetch to dispatch-ready.
    pub frontend_depth: u64,
    /// Extra cycles for the execute→fetch misprediction redirect.
    pub redirect_extra: u64,
    /// Extra cycle to route loaded values to the FP registers (§3.8:
    /// removed by the compacted 3D bypass network).
    pub fp_load_extra_cycle: bool,
    /// L2 hit latency in cycles.
    pub l2_latency: u64,
}

impl PipelineConfig {
    /// The planar baseline: min-14-cycle branch misprediction (Table 1),
    /// 12-cycle L2, extra FP-load cycle present.
    pub fn baseline() -> PipelineConfig {
        // Mispredict penalty ≈ redirect_extra + frontend_depth + dispatch
        // + issue ≈ 2 + 10 + 2 = 14 cycles minimum.
        PipelineConfig {
            frontend_depth: 10,
            redirect_extra: 2,
            fp_load_extra_cycle: true,
            l2_latency: 12,
        }
    }

    /// The 3D pipeline optimisations of §3.8: two stages shed on the
    /// redirect path, a faster L2, and no FP-load routing cycle.
    pub fn three_d() -> PipelineConfig {
        PipelineConfig {
            frontend_depth: 9,
            redirect_extra: 1,
            fp_load_extra_cycle: false,
            l2_latency: 8,
        }
    }
}

/// Memory-hierarchy parameters (Table 1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemConfig {
    /// L1 line size, bytes.
    pub line_bytes: u64,
    /// L1 instruction cache: (sets, ways). 32 KB 8-way with 64 B lines.
    pub l1i: (usize, usize),
    /// L1 data cache: (sets, ways).
    pub l1d: (usize, usize),
    /// L1 hit latency, cycles.
    pub l1_latency: u64,
    /// Unified L2: (sets, ways). 4 MB 16-way.
    pub l2: (usize, usize),
    /// Main-memory latency in **nanoseconds** — fixed in wall-clock time
    /// so faster clocks see proportionally more cycles per miss (§5.1.2).
    pub dram_ns: f64,
    /// ITLB entries / ways.
    pub itlb: (usize, usize),
    /// DTLB entries / ways.
    pub dtlb: (usize, usize),
    /// Page size, bytes.
    pub page_bytes: u64,
    /// TLB miss (page-walk) penalty, cycles.
    pub tlb_miss_penalty: u64,
}

impl Default for MemConfig {
    fn default() -> MemConfig {
        MemConfig {
            line_bytes: 64,
            l1i: (64, 8),
            l1d: (64, 8),
            l1_latency: 3,
            l2: (4096, 16),
            dram_ns: 75.0,
            itlb: (32, 4),
            dtlb: (64, 4),
            page_bytes: 4096,
            tlb_miss_penalty: 30,
        }
    }
}

/// The Thermal Herding mechanisms and their penalty model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HerdingConfig {
    /// Master switch: width prediction plus all §3 mechanisms.
    pub enabled: bool,
    /// Width predictor table entries (power of two).
    pub predictor_entries: usize,
    /// How "low width" is defined.
    pub policy: WidthPolicy,
    /// Herd RS allocation toward the top die (§3.4). When disabled the
    /// allocator scatters entries round-robin as a planar design would.
    pub rs_herding: bool,
    /// Partial address memoization in the LSQ (§3.5).
    pub pam: bool,
    /// Two-bit partial value encoding in the L1-D (§3.6); when disabled a
    /// plain width-memoization bit is modelled instead (zeros-only).
    pub partial_value_encoding: bool,
}

impl HerdingConfig {
    /// Herding disabled (planar baseline and the `Fast`/`Pipe` points).
    pub fn off() -> HerdingConfig {
        HerdingConfig {
            enabled: false,
            predictor_entries: 4096,
            policy: WidthPolicy::SignExtended,
            rs_herding: false,
            pam: false,
            partial_value_encoding: false,
        }
    }

    /// All mechanisms on (the `TH` and `3D` points).
    pub fn on() -> HerdingConfig {
        HerdingConfig {
            enabled: true,
            rs_herding: true,
            pam: true,
            partial_value_encoding: true,
            ..HerdingConfig::off()
        }
    }
}

/// Complete simulator configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimConfig {
    /// Clock frequency, GHz (affects DRAM latency in cycles).
    pub clock_ghz: f64,
    /// Structural parameters.
    pub core: CoreParams,
    /// Execution latencies.
    pub lat: FuLatencies,
    /// Pipeline organisation.
    pub pipeline: PipelineConfig,
    /// Memory hierarchy.
    pub mem: MemConfig,
    /// Thermal Herding mechanisms.
    pub herding: HerdingConfig,
    /// Core-loop implementation (statistically invisible; see
    /// [`CoreEngine`]).
    pub engine: CoreEngine,
}

impl SimConfig {
    /// The planar 2.66 GHz baseline (`Base` in Figure 8).
    pub fn baseline() -> SimConfig {
        SimConfig {
            clock_ghz: 2.66,
            core: CoreParams::default(),
            lat: FuLatencies::default(),
            pipeline: PipelineConfig::baseline(),
            mem: MemConfig::default(),
            herding: HerdingConfig::off(),
            engine: CoreEngine::Event,
        }
    }

    /// Baseline plus Thermal Herding at the baseline clock (`TH`).
    pub fn thermal_herding() -> SimConfig {
        SimConfig { herding: HerdingConfig::on(), ..SimConfig::baseline() }
    }

    /// Baseline plus the 3D pipeline optimisations at the baseline clock
    /// (`Pipe`).
    pub fn pipe() -> SimConfig {
        SimConfig { pipeline: PipelineConfig::three_d(), ..SimConfig::baseline() }
    }

    /// Baseline microarchitecture at the 3D clock (`Fast`).
    pub fn fast(clock_ghz: f64) -> SimConfig {
        SimConfig { clock_ghz, ..SimConfig::baseline() }
    }

    /// The full 3D processor: herding + pipeline optimisations + 3D clock
    /// (`3D`).
    pub fn three_d(clock_ghz: f64) -> SimConfig {
        SimConfig {
            clock_ghz,
            herding: HerdingConfig::on(),
            pipeline: PipelineConfig::three_d(),
            ..SimConfig::baseline()
        }
    }

    /// DRAM latency in cycles at this configuration's clock.
    pub fn dram_cycles(&self) -> u64 {
        (self.mem.dram_ns * self.clock_ghz).round() as u64
    }

    /// Minimum branch misprediction penalty in cycles (fetch redirect +
    /// front end + dispatch/issue).
    pub fn mispredict_penalty(&self) -> u64 {
        self.pipeline.redirect_extra + self.pipeline.frontend_depth + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table1() {
        let c = SimConfig::baseline();
        assert_eq!(c.core.fetch_width, 4);
        assert_eq!(c.core.issue_width, 6);
        assert_eq!(c.core.rob_size, 96);
        assert_eq!(c.core.rs_size, 32);
        assert_eq!(c.core.lq_size, 32);
        assert_eq!(c.core.sq_size, 20);
        assert_eq!(c.core.ifq_size, 16);
        assert_eq!(c.core.int_alu, 3);
        assert_eq!(c.core.int_shift, 2);
        assert_eq!(c.core.int_mul, 1);
        assert_eq!(c.mem.l1d.0 * c.mem.l1d.1 * 64, 32 * 1024); // 32 KB
        assert_eq!(c.mem.l2.0 * c.mem.l2.1 * 64, 4 * 1024 * 1024); // 4 MB
        assert_eq!(c.pipeline.l2_latency, 12);
        assert_eq!(c.mem.l1_latency, 3);
        assert_eq!(c.mispredict_penalty(), 14); // "Min. 14 cycles"
        assert!(!c.herding.enabled);
    }

    #[test]
    fn dram_cycles_scale_with_clock() {
        let base = SimConfig::baseline();
        let fast = SimConfig::fast(3.93);
        assert_eq!(base.dram_cycles(), 200); // 75 ns × 2.66 GHz
        assert_eq!(fast.dram_cycles(), 295); // 75 ns × 3.93 GHz
        assert!(fast.dram_cycles() > base.dram_cycles());
    }

    #[test]
    fn design_points_differ_only_where_expected() {
        let base = SimConfig::baseline();
        let th = SimConfig::thermal_herding();
        assert_eq!(th.pipeline, base.pipeline);
        assert_eq!(th.clock_ghz, base.clock_ghz);
        assert!(th.herding.enabled);

        let pipe = SimConfig::pipe();
        assert!(!pipe.herding.enabled);
        assert!(pipe.mispredict_penalty() < base.mispredict_penalty());
        assert!(pipe.pipeline.l2_latency < base.pipeline.l2_latency);

        let three_d = SimConfig::three_d(3.93);
        assert!(three_d.herding.enabled);
        assert_eq!(three_d.pipeline, pipe.pipeline);
        assert!(three_d.clock_ghz > base.clock_ghz);
    }

    #[test]
    fn herding_presets() {
        assert!(HerdingConfig::on().pam);
        assert!(HerdingConfig::on().rs_herding);
        assert!(!HerdingConfig::off().enabled);
        assert!(HerdingConfig::on().predictor_entries.is_power_of_two());
    }
}
