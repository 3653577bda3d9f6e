//! Simulation statistics: everything the power, thermal, and reporting
//! layers need, as raw counters.

use th_stack3d::ActivityMatrix;
use th_width::{EncodingStats, PamStats, WidthPredictStats};

/// Counters accumulated over one simulation run.
///
/// Power is priced from one source only: the [`activity`](Self::activity)
/// ledger, which records where each access landed in the stack.
///
/// Width-split counters (`*_low` / `*_full`) record the *architectural*
/// width of the value handled, regardless of whether herding is enabled.
/// `ledger_consistency` pins them against the ledger's row sums, yet they
/// stay as counters because they hold what the ledger cannot give back:
///
/// * with herding off, the ledger books low-width accesses as full;
/// * the `RegFile` and `Rob` ledger rows merge reads and writes;
/// * reports read the architectural split itself (Figure 10's §5.3 ROB
///   read/write ratios, the width characterization).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct SimStats {
    // ---- global ----
    pub cycles: u64,
    pub committed: u64,
    pub fetched: u64,

    // ---- front end ----
    pub icache_accesses: u64,
    pub icache_misses: u64,
    pub itlb_accesses: u64,
    pub itlb_misses: u64,
    pub fetch_stall_cycles: u64,
    pub ifq_full_stalls: u64,

    // ---- branches ----
    pub cond_branches: u64,
    pub cond_mispredicts: u64,
    pub jumps: u64,
    pub indirect_jumps: u64,
    pub indirect_mispredicts: u64,
    pub btb_lookups: u64,
    pub btb_hits: u64,
    pub btb_updates: u64,
    /// Predicted-taken fetches whose BTB target needed the upper 48 bits
    /// from the lower dies (target memoization miss, §3.7): one-cycle
    /// front-end stall each.
    pub btb_full_target_stalls: u64,
    /// BTB targets serviced from the top die (upper bits reused from the
    /// branch PC).
    pub btb_partial_target_hits: u64,
    pub ras_pushes: u64,
    pub ras_pops: u64,
    pub bpred_lookups: u64,
    pub bpred_updates: u64,

    // ---- dispatch / rename / rob ----
    pub dispatched: u64,
    pub rename_ops: u64,
    pub rob_writes_low: u64,
    pub rob_writes_full: u64,
    pub rob_reads_low: u64,
    pub rob_reads_full: u64,
    pub rob_full_stalls: u64,
    pub rs_full_stalls: u64,
    pub lsq_full_stalls: u64,
    /// Dispatch groups stalled one cycle by an unsafe operand-width
    /// misprediction at register read (§3.1: at most one per group).
    pub rf_unsafe_group_stalls: u64,

    // ---- register file ----
    pub rf_reads_low: u64,
    pub rf_reads_full: u64,
    pub rf_writes_low: u64,
    pub rf_writes_full: u64,

    // ---- scheduler ----
    pub rs_allocs_per_die: [u64; 4],
    /// Entry-cycles of residency per die: each cycle, every occupied RS
    /// entry adds one to its die. This — not the allocation count — is
    /// what determines where scheduler power burns, since an entry keeps
    /// its CAM comparators matching for as long as it waits.
    pub rs_occupancy_cycles_per_die: [u64; 4],
    /// Tag broadcasts issued (each wakeup event counts once).
    pub tag_broadcasts: u64,
    /// Per-die broadcasts actually driven (unoccupied dies are gated,
    /// §3.4).
    pub tag_broadcast_die_driven: [u64; 4],
    pub issued: u64,

    // ---- execution ----
    pub int_ops_low: u64,
    pub int_ops_full: u64,
    pub fp_ops: u64,
    pub bypass_low: u64,
    pub bypass_full: u64,
    /// One-cycle stalls to re-enable the upper 48 bits of an arithmetic
    /// unit after an unsafe input-width misprediction (§3.2).
    pub exec_reenable_stalls: u64,
    /// Re-executions forced by output-width mispredictions (§3.2).
    pub output_width_replays: u64,

    // ---- memory ----
    pub loads: u64,
    pub stores: u64,
    pub store_forwards: u64,
    pub dcache_accesses: u64,
    pub dcache_misses: u64,
    pub dcache_writes_low: u64,
    pub dcache_writes_full: u64,
    /// One-cycle cache-pipeline stalls on unsafe load-width
    /// mispredictions (§3.6).
    pub dcache_width_stalls: u64,
    pub dtlb_accesses: u64,
    pub dtlb_misses: u64,
    pub l2_accesses: u64,
    pub l2_misses: u64,
    pub dram_accesses: u64,
    /// L1⇄L2 spill/fill transfers — always full-width on all dies (§3.6).
    pub spill_fill_transfers: u64,

    // ---- width machinery ----
    pub width_pred: WidthPredictStats,
    pub pam: PamStats,
    pub dcache_encodings: EncodingStats,

    /// Event-sourced per-(unit, die) access ledger, recorded at every
    /// pipeline access site (see `th_stack3d::ActivityMatrix` for the
    /// die-touch semantics). The power model prices watts and the
    /// per-die power split from it alone.
    pub activity: ActivityMatrix,
}

impl SimStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Conditional branch direction-prediction accuracy.
    pub fn branch_accuracy(&self) -> f64 {
        if self.cond_branches == 0 {
            1.0
        } else {
            1.0 - self.cond_mispredicts as f64 / self.cond_branches as f64
        }
    }

    /// L1-D miss rate per access.
    pub fn dcache_miss_rate(&self) -> f64 {
        if self.dcache_accesses == 0 {
            0.0
        } else {
            self.dcache_misses as f64 / self.dcache_accesses as f64
        }
    }

    /// L2 miss rate per access.
    pub fn l2_miss_rate(&self) -> f64 {
        if self.l2_accesses == 0 {
            0.0
        } else {
            self.l2_misses as f64 / self.l2_accesses as f64
        }
    }

    /// DRAM accesses per thousand committed instructions — the
    /// memory-boundedness metric that separates `mcf`-like from
    /// compute-bound workloads.
    pub fn dram_per_kilo_inst(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            1000.0 * self.dram_accesses as f64 / self.committed as f64
        }
    }

    /// Fraction of integer operations whose values were low-width.
    pub fn low_width_fraction(&self) -> f64 {
        let total = self.int_ops_low + self.int_ops_full;
        if total == 0 {
            0.0
        } else {
            self.int_ops_low as f64 / total as f64
        }
    }

    /// Fraction of RS allocations that landed on the top die.
    pub fn rs_top_die_fraction(&self) -> f64 {
        let total: u64 = self.rs_allocs_per_die.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.rs_allocs_per_die[0] as f64 / total as f64
        }
    }

    /// Fraction of RS entry-residency (entry-cycles) spent on the top die
    /// — the herding metric that actually drives scheduler power.
    pub fn rs_top_die_residency(&self) -> f64 {
        let total: u64 = self.rs_occupancy_cycles_per_die.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.rs_occupancy_cycles_per_die[0] as f64 / total as f64
        }
    }

    /// Fraction of per-die tag broadcasts that were gated off.
    pub fn broadcast_gating_fraction(&self) -> f64 {
        let possible = self.tag_broadcasts * 4;
        if possible == 0 {
            return 0.0;
        }
        let driven: u64 = self.tag_broadcast_die_driven.iter().sum();
        1.0 - driven as f64 / possible as f64
    }

    /// A point-in-time copy of the counters, for later use with
    /// [`SimStats::delta`]. (An explicit name for `clone()` at interval
    /// boundaries — co-simulation snapshots the counters every interval
    /// and prices only the work done since the previous snapshot.)
    pub fn snapshot(&self) -> SimStats {
        self.clone()
    }

    /// The counters accumulated since `prev` was snapshotted: the
    /// per-interval activity delta that drives phase-coupled power.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `prev` is componentwise ≤ `self` (i.e. it really
    /// is an earlier snapshot of the same run).
    pub fn delta(&self, prev: &SimStats) -> SimStats {
        let mut d = self.clone();
        d.subtract_prefix(prev);
        d
    }

    /// Subtracts a prefix snapshot from this stats block — used to discard
    /// a warmup period (caches and predictors stay warm; only the
    /// measurement window is reported).
    ///
    /// # Panics
    ///
    /// Debug-asserts that `prefix` is componentwise ≤ `self`.
    pub fn subtract_prefix(&mut self, prefix: &SimStats) {
        macro_rules! sub {
            ($($f:ident),* $(,)?) => { $(
                debug_assert!(self.$f >= prefix.$f, concat!(stringify!($f), " underflow"));
                self.$f -= prefix.$f;
            )* };
        }
        sub!(
            cycles, committed, fetched, icache_accesses, icache_misses, itlb_accesses,
            itlb_misses, fetch_stall_cycles, ifq_full_stalls, cond_branches, cond_mispredicts,
            jumps, indirect_jumps, indirect_mispredicts, btb_lookups, btb_hits, btb_updates,
            btb_full_target_stalls, btb_partial_target_hits, ras_pushes, ras_pops,
            bpred_lookups, bpred_updates, dispatched, rename_ops, rob_writes_low,
            rob_writes_full, rob_reads_low, rob_reads_full, rob_full_stalls, rs_full_stalls,
            lsq_full_stalls, rf_unsafe_group_stalls, rf_reads_low, rf_reads_full,
            rf_writes_low, rf_writes_full, tag_broadcasts, issued, int_ops_low, int_ops_full,
            fp_ops, bypass_low, bypass_full, exec_reenable_stalls, output_width_replays,
            loads, stores, store_forwards, dcache_accesses, dcache_misses, dcache_writes_low,
            dcache_writes_full, dcache_width_stalls, dtlb_accesses, dtlb_misses, l2_accesses,
            l2_misses, dram_accesses, spill_fill_transfers,
        );
        for i in 0..4 {
            self.rs_allocs_per_die[i] -= prefix.rs_allocs_per_die[i];
            self.rs_occupancy_cycles_per_die[i] -= prefix.rs_occupancy_cycles_per_die[i];
            self.tag_broadcast_die_driven[i] -= prefix.tag_broadcast_die_driven[i];
        }
        self.width_pred.predictions -= prefix.width_pred.predictions;
        self.width_pred.correct_low -= prefix.width_pred.correct_low;
        self.width_pred.correct_full -= prefix.width_pred.correct_full;
        self.width_pred.unsafe_mispredictions -= prefix.width_pred.unsafe_mispredictions;
        self.width_pred.safe_mispredictions -= prefix.width_pred.safe_mispredictions;
        self.pam.matches -= prefix.pam.matches;
        self.pam.misses -= prefix.pam.misses;
        for i in 0..4 {
            self.dcache_encodings.counts[i] -= prefix.dcache_encodings.counts[i];
        }
        self.activity.subtract_prefix(&prefix.activity);
    }

    /// Merges another run's counters into this one (used to aggregate the
    /// two cores of the dual-core experiments).
    pub fn merge(&mut self, other: &SimStats) {
        macro_rules! acc {
            ($($f:ident),* $(,)?) => { $( self.$f += other.$f; )* };
        }
        acc!(
            cycles, committed, fetched, icache_accesses, icache_misses, itlb_accesses,
            itlb_misses, fetch_stall_cycles, ifq_full_stalls, cond_branches, cond_mispredicts,
            jumps, indirect_jumps, indirect_mispredicts, btb_lookups, btb_hits, btb_updates,
            btb_full_target_stalls, btb_partial_target_hits, ras_pushes, ras_pops,
            bpred_lookups, bpred_updates, dispatched, rename_ops, rob_writes_low,
            rob_writes_full, rob_reads_low, rob_reads_full, rob_full_stalls, rs_full_stalls,
            lsq_full_stalls, rf_unsafe_group_stalls, rf_reads_low, rf_reads_full,
            rf_writes_low, rf_writes_full, tag_broadcasts, issued, int_ops_low, int_ops_full,
            fp_ops, bypass_low, bypass_full, exec_reenable_stalls, output_width_replays,
            loads, stores, store_forwards, dcache_accesses, dcache_misses, dcache_writes_low,
            dcache_writes_full, dcache_width_stalls, dtlb_accesses, dtlb_misses, l2_accesses,
            l2_misses, dram_accesses, spill_fill_transfers,
        );
        for i in 0..4 {
            self.rs_allocs_per_die[i] += other.rs_allocs_per_die[i];
            self.rs_occupancy_cycles_per_die[i] += other.rs_occupancy_cycles_per_die[i];
            self.tag_broadcast_die_driven[i] += other.tag_broadcast_die_driven[i];
        }
        self.width_pred.merge(&other.width_pred);
        self.pam.matches += other.pam.matches;
        self.pam.misses += other.pam.misses;
        for i in 0..4 {
            self.dcache_encodings.counts[i] += other.dcache_encodings.counts[i];
        }
        self.activity.merge(&other.activity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics_handle_zero() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.branch_accuracy(), 1.0);
        assert_eq!(s.dcache_miss_rate(), 0.0);
        assert_eq!(s.dram_per_kilo_inst(), 0.0);
        assert_eq!(s.rs_top_die_fraction(), 0.0);
        assert_eq!(s.broadcast_gating_fraction(), 0.0);
    }

    #[test]
    fn ipc_and_rates() {
        let s = SimStats {
            cycles: 100,
            committed: 150,
            cond_branches: 10,
            cond_mispredicts: 1,
            dcache_accesses: 50,
            dcache_misses: 5,
            dram_accesses: 3,
            ..Default::default()
        };
        assert!((s.ipc() - 1.5).abs() < 1e-12);
        assert!((s.branch_accuracy() - 0.9).abs() < 1e-12);
        assert!((s.dcache_miss_rate() - 0.1).abs() < 1e-12);
        assert!((s.dram_per_kilo_inst() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn gating_fraction() {
        let s = SimStats {
            tag_broadcasts: 10,
            tag_broadcast_die_driven: [10, 5, 3, 2],
            ..Default::default()
        };
        assert!((s.broadcast_gating_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = SimStats { cycles: 10, committed: 20, ..Default::default() };
        a.rs_allocs_per_die = [4, 3, 2, 1];
        let mut b = SimStats { cycles: 5, committed: 10, ..Default::default() };
        b.rs_allocs_per_die = [1, 1, 1, 1];
        b.dcache_encodings.counts = [1, 2, 3, 4];
        a.merge(&b);
        assert_eq!(a.cycles, 15);
        assert_eq!(a.committed, 30);
        assert_eq!(a.rs_allocs_per_die, [5, 4, 3, 2]);
        assert_eq!(a.dcache_encodings.counts, [1, 2, 3, 4]);
    }
}
