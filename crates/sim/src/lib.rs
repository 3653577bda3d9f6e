//! # Cycle-level out-of-order superscalar simulator.
//!
//! This crate plays the role SimpleScalar/MASE played in the paper (§4):
//! an execution-driven timing model of a Core 2-class processor (Table 1)
//! with every Thermal Herding mechanism wired into the pipeline:
//!
//! * width prediction at dispatch, with the paper's penalty model —
//!   one stall per register-read group on an unsafe operand
//!   misprediction (§3.1), a one-cycle re-enable at execute (§3.2),
//!   re-execution on an output-width misprediction (§3.2), a one-cycle
//!   data-cache pipeline stall (§3.6), and a one-cycle front-end stall
//!   when a BTB target needs its upper bits (§3.7);
//! * a 3D-aware reservation-station allocator that herds instructions
//!   toward the top die and gates per-die tag broadcasts (§3.4);
//! * partial address memoization in the load/store queues (§3.5);
//! * the two-bit partial value encoding in the L1 data cache (§3.6).
//!
//! The timing model is *oracle driven*: `th_isa::Machine` executes the
//! program architecturally and the pipeline charges cycles against the
//! resulting [`th_isa::DynInst`] stream. Wrong-path instructions are not
//! fetched (their I-cache pollution is second-order); mispredicted
//! branches instead stall fetch until the branch resolves plus the
//! redirect penalty, reproducing the paper's "min 14 cycles" (Table 1).
//!
//! ## Example
//!
//! ```
//! use th_isa::parse_asm;
//! use th_sim::{SimConfig, Simulator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = parse_asm("
//!     li   x1, 0
//!     li   x2, 1000
//! loop:
//!     addi x1, x1, 1
//!     bne  x1, x2, loop
//!     halt
//! ")?;
//! let result = Simulator::new(SimConfig::baseline()).run(&program, 10_000)?;
//! assert!(result.ipc() > 0.5);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod branch;
mod cache;
mod config;
mod core;
mod event;
mod lsq;
mod scheduler;
mod stats;

#[cfg(test)]
mod engine_equivalence;
#[cfg(test)]
mod engine_golden;
#[cfg(test)]
mod ledger_consistency;

pub use crate::core::{CoreWork, SimResult, SimSession, Simulator};
pub use branch::{BranchPredictor, BranchUpdate, Btb, BtbOutcome, ReturnStack};
pub use cache::{Cache, CacheConfig, CacheKind, MemoryHierarchy, Tlb};
pub use config::{CoreParams, FuLatencies, HerdingConfig, MemConfig, PipelineConfig, SimConfig};
pub use scheduler::{AllocPolicy, Scheduler};
pub use stats::SimStats;
