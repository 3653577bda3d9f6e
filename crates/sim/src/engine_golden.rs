//! Workload-level engine equivalence plus a golden-stats fixture.
//!
//! The `engine_equivalence` module covers synthetic kernels and random
//! programs; this one drives the *real* experiment workloads through
//! both engines on the paper's two headline configurations, and pins one
//! fig8 workload's counters to hard-coded values so an accidental
//! behavior change in **either** engine (not just a divergence between
//! them) fails loudly.

use crate::core::CoreEngine;
use crate::{SimConfig, SimStats, Simulator};
use th_workloads::{all_workloads, workload_by_name};

fn run(cfg: SimConfig, engine: CoreEngine, w: &th_workloads::Workload, budget: u64) -> SimStats {
    Simulator::new(cfg)
        .with_engine(engine)
        .run_with_warmup(&w.program, budget / 5, budget)
        .expect("runs")
        .stats
}

#[test]
fn engines_agree_on_every_experiment_workload() {
    let budget = 3_000;
    for w in all_workloads() {
        for cfg in [SimConfig::baseline(), SimConfig::three_d(3.93)] {
            let scan = run(cfg, CoreEngine::Scan, &w, budget);
            let event = run(cfg, CoreEngine::Event, &w, budget);
            assert_eq!(scan, event, "engines diverged on {}", w.name);
        }
    }
}

/// gzip-like on the 3D thermal-herding configuration at the fig8 budget.
/// Regenerate by running this test and copying the printed `got` array —
/// but only after deliberately changing pipeline behavior; both engines
/// must always match this fixture bit for bit.
#[test]
fn golden_stats_gzip_like_three_d() {
    const GOLDEN: [u64; 16] =
        [1989, 3200, 3200, 3179, 3176, 266, 0, 534, 266, 14, 4, 0, 1188, 1134, 69, 53206];
    let w = workload_by_name("gzip-like").expect("workload");
    for engine in [CoreEngine::Scan, CoreEngine::Event] {
        let s = run(SimConfig::three_d(3.93), engine, &w, 4_000);
        let got = [
            s.cycles,
            s.committed,
            s.fetched,
            s.dispatched,
            s.issued,
            s.cond_branches,
            s.cond_mispredicts,
            s.loads,
            s.stores,
            s.store_forwards,
            s.dcache_misses,
            s.fetch_stall_cycles,
            s.ifq_full_stalls,
            s.rob_full_stalls,
            s.rs_full_stalls,
            s.rs_occupancy_cycles_per_die.iter().sum::<u64>(),
        ];
        assert_eq!(got, GOLDEN, "golden stats drifted under {engine:?}");
    }
}
