//! One module per reproduced paper artefact.
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`table2`] | Table 2: 2D vs 3D block latencies and the 47.9 % clock gain |
//! | [`fig8`] | Figure 8: IPC, instructions/ns, and speedup per suite |
//! | [`fig9`] | Figure 9: power distribution of Base / 3D / 3D+TH |
//! | [`fig10`] | Figure 10: thermal maps, worst-case hotspots, iso-power study |
//! | [`dtm`] | extension: DTM throttling study under a thermal cap |
//!
//! Each figure defines its `(workload, design point)` grid once, as
//! `grid()` next to the figure; the figure's driver and the matching
//! `th-sweep` preset both expand it.

use crate::config::Variant;
use crate::run::{run_chip, ChipResult};
use th_workloads::workload_by_name;

pub mod dtm;
pub mod fig10;
pub mod fig8;
pub mod fig9;
pub mod table2;

/// Runs every `(workload, variant)` chip run of `grid` at `max_insts`
/// on `pool`, building each distinct workload once. Results come back
/// in grid order whatever the thread count.
pub(crate) fn run_grid(
    grid: impl Iterator<Item = (&'static str, Variant)>,
    max_insts: u64,
    pool: &th_exec::Pool,
) -> Vec<ChipResult> {
    let jobs: Vec<(&'static str, Variant)> = grid.collect();
    let mut names: Vec<&'static str> = jobs.iter().map(|&(name, _)| name).collect();
    names.sort_unstable();
    names.dedup();
    let workloads =
        pool.map(&names, |name| workload_by_name(name).expect("grid workload exists"));
    pool.map(&jobs, |&(name, variant)| {
        let w = &workloads[names.binary_search(&name).expect("built above")];
        run_chip(variant, w, max_insts).expect("workload runs")
    })
}
