//! # TH64 benchmark kernels.
//!
//! The paper evaluated 106 application traces from SPECint2000, SPECfp2000,
//! MediaBench, MiBench, the Wisconsin pointer-intensive suite, and the
//! BioBench/BioPerf bioinformatics suites (§4). The binaries and their
//! SimPoints are not available, so this crate provides hand-written TH64
//! kernels grouped into the same six [`Suite`]s. Each kernel is written to
//! land at its suite's point in the behavioural space that drives the
//! paper's results:
//!
//! * **memory intensity** (DRAM accesses per kilo-instruction) — separates
//!   `mcf`-like (min speedup, 7 %) from `crafty`/`patricia`-like (max
//!   speedup, 65–77 %), and SPECfp's mid-pack 29.5 %;
//! * **operand width distribution** — media/embedded kernels process 8/16
//!   bit data (max power savings, 30 %); chess bitboards and FP are
//!   full-width; `yacr2`-like mixes widths (min savings, 15 %);
//! * **branch behaviour** — predictable loop nests vs data-dependent
//!   branches.
//!
//! Every kernel is a complete program that runs to `halt` and
//! self-validates (tests check final register checksums against the
//! functional interpreter).
//!
//! ```
//! use th_workloads::{all_workloads, Suite};
//! let suite: Vec<_> = all_workloads();
//! assert!(suite.len() >= 18);
//! assert!(suite.iter().any(|w| w.suite == Suite::SpecInt));
//! ```

#![deny(missing_docs)]

mod bio;
mod embedded;
mod media;
mod pointer;
mod specfp;
mod specint;

use std::fmt;
use th_isa::Program;

/// The benchmark suite a workload belongs to (the grouping of Figure 8).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Suite {
    /// SPECint2000-class integer applications.
    SpecInt,
    /// SPECfp2000-class floating-point applications.
    SpecFp,
    /// MediaBench-class media kernels.
    Media,
    /// MiBench-class embedded kernels.
    Embedded,
    /// Wisconsin pointer-intensive-class applications.
    Pointer,
    /// BioBench/BioPerf-class bioinformatics kernels.
    Bio,
}

impl Suite {
    /// All suites in Figure 8's presentation order.
    pub fn all() -> &'static [Suite] {
        &[Suite::SpecInt, Suite::SpecFp, Suite::Media, Suite::Embedded, Suite::Pointer, Suite::Bio]
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Suite::SpecInt => "SPECint",
            Suite::SpecFp => "SPECfp",
            Suite::Media => "MediaBench",
            Suite::Embedded => "MiBench",
            Suite::Pointer => "Pointer",
            Suite::Bio => "Bio",
        }
    }
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A runnable benchmark kernel.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Kernel name (e.g. `"mcf-like"`).
    pub name: &'static str,
    /// Which suite it represents.
    pub suite: Suite,
    /// The assembled program.
    pub program: Program,
    /// Instruction budget for timing simulation (the kernel halts within
    /// this budget; the budget mirrors SimPoint-style fixed-length
    /// simulation windows).
    pub inst_budget: u64,
}

/// Builds one kernel.
type Constructor = fn() -> Workload;

/// The registry: every kernel's name, suite and constructor, in Figure 8's
/// suite order. Lookups call only the matching constructor, so asking
/// for one kernel never builds the others (`mcf-like`'s 16 MB image
/// dominates a full build).
const REGISTRY: [(&str, Suite, Constructor); 22] = [
    ("gzip-like", Suite::SpecInt, specint::gzip_like),
    ("gcc-like", Suite::SpecInt, specint::gcc_like),
    ("mcf-like", Suite::SpecInt, specint::mcf_like),
    ("crafty-like", Suite::SpecInt, specint::crafty_like),
    ("parser-like", Suite::SpecInt, specint::parser_like),
    ("swim-like", Suite::SpecFp, specfp::swim_like),
    ("art-like", Suite::SpecFp, specfp::art_like),
    ("equake-like", Suite::SpecFp, specfp::equake_like),
    ("mpeg2-like", Suite::Media, media::mpeg2_like),
    ("adpcm-like", Suite::Media, media::adpcm_like),
    ("jpeg-like", Suite::Media, media::jpeg_like),
    ("gsm-like", Suite::Media, media::gsm_like),
    ("susan-like", Suite::Embedded, embedded::susan_like),
    ("patricia-like", Suite::Embedded, embedded::patricia_like),
    ("dijkstra-like", Suite::Embedded, embedded::dijkstra_like),
    ("yacr2-like", Suite::Pointer, pointer::yacr2_like),
    ("treeadd-like", Suite::Pointer, pointer::treeadd_like),
    ("bisort-like", Suite::Pointer, pointer::bisort_like),
    ("perimeter-like", Suite::Pointer, pointer::perimeter_like),
    ("blast-like", Suite::Bio, bio::blast_like),
    ("swalign-like", Suite::Bio, bio::swalign_like),
    ("hmmer-like", Suite::Bio, bio::hmmer_like),
];

/// Every workload name in registry order, without building anything.
pub fn workload_names() -> impl ExactSizeIterator<Item = &'static str> {
    REGISTRY.iter().map(|&(name, _, _)| name)
}

/// The suite of a registry workload, without building it.
pub fn workload_suite(name: &str) -> Option<Suite> {
    REGISTRY.iter().find(|&&(n, _, _)| n == name).map(|&(_, suite, _)| suite)
}

/// Builds every workload in the registry.
pub fn all_workloads() -> Vec<Workload> {
    REGISTRY.iter().map(|&(_, _, build)| build()).collect()
}

/// Builds the workloads of one suite.
pub fn suite_workloads(suite: Suite) -> Vec<Workload> {
    REGISTRY.iter().filter(|&&(_, s, _)| s == suite).map(|&(_, _, build)| build()).collect()
}

/// Builds a single workload by name.
pub fn workload_by_name(name: &str) -> Option<Workload> {
    REGISTRY.iter().find(|&&(n, _, _)| n == name).map(|&(_, _, build)| build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use th_isa::Machine;

    #[test]
    fn registry_covers_all_suites() {
        let all = all_workloads();
        for &suite in Suite::all() {
            let n = all.iter().filter(|w| w.suite == suite).count();
            assert!(n >= 2, "suite {suite} has only {n} workloads");
        }
        for w in &all {
            assert_eq!(workload_suite(w.name), Some(w.suite), "{}: registry suite", w.name);
        }
        assert!(all.len() >= 18, "only {} workloads", all.len());
    }

    #[test]
    fn names_are_unique() {
        let all = all_workloads();
        let mut names: Vec<_> = all.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn every_workload_halts_within_budget() {
        for w in all_workloads() {
            let mut m = Machine::new(&w.program);
            let summary = m
                .run(w.inst_budget)
                .unwrap_or_else(|e| panic!("{} trapped: {e}", w.name));
            assert!(
                summary.halted,
                "{} did not halt within {} instructions ({} executed)",
                w.name, w.inst_budget, summary.instructions
            );
            assert!(
                summary.instructions > w.inst_budget / 20,
                "{} is trivially short: {} instructions",
                w.name,
                summary.instructions
            );
        }
    }

    #[test]
    fn registry_order_is_pinned() {
        // Figure 8 rows and preset shard ids follow this order.
        let names: Vec<_> = all_workloads().iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            [
                "gzip-like",
                "gcc-like",
                "mcf-like",
                "crafty-like",
                "parser-like",
                "swim-like",
                "art-like",
                "equake-like",
                "mpeg2-like",
                "adpcm-like",
                "jpeg-like",
                "gsm-like",
                "susan-like",
                "patricia-like",
                "dijkstra-like",
                "yacr2-like",
                "treeadd-like",
                "bisort-like",
                "perimeter-like",
                "blast-like",
                "swalign-like",
                "hmmer-like",
            ]
        );
        assert!(workload_names().eq(names));
    }

    #[test]
    fn lookup_by_name() {
        for name in workload_names() {
            assert_eq!(workload_by_name(name).unwrap().name, name);
        }
        assert!(workload_by_name("nonexistent").is_none());
        assert!(workload_by_name("").is_none());
        assert!(workload_by_name("mcf").is_none());
    }

    #[test]
    fn suite_filter() {
        for w in suite_workloads(Suite::Media) {
            assert_eq!(w.suite, Suite::Media);
        }
    }
}
