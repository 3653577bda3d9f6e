//! # TH64: the instruction set for the Thermal Herding reproduction.
//!
//! The original paper evaluated its 3D microarchitecture with
//! SimpleScalar/MASE running Alpha binaries. Neither the toolchain nor the
//! SPEC binaries are available here, so this crate defines **TH64**, a small
//! 64-bit load/store RISC architecture that plays the same role: it gives the
//! cycle-level simulator in `th-sim` a real dynamic instruction stream with
//! real 64-bit values, so operand-width distributions, partial-address
//! locality, and branch behaviour are *measured* rather than assumed.
//!
//! The crate provides:
//!
//! * [`Reg`] — a unified 64-entry register namespace (`x0..x31` integer,
//!   `f0..f31` floating point), with `x0` hardwired to zero.
//! * [`Inst`]/[`Op`] — the instruction representation and opcode set.
//! * [`encode`]/[`decode`] — a fixed 64-bit binary encoding with a lossless
//!   round trip (property tested).
//! * [`Assembler`] — a programmatic builder with labels and fixups, plus a
//!   text assembler ([`parse_asm`]).
//! * [`Memory`] — a sparse, paged, little-endian memory image. Its 4 KiB
//!   pages are shared copy-on-write: a [`Program`] holds one image, built
//!   by the [`Assembler`], and every [`Machine`] started from it shares
//!   the pages until it writes one.
//! * [`Machine`] — the functional interpreter ("golden model"). The
//!   out-of-order timing model consumes the [`DynInst`] records it produces.
//!
//! ## Quick example
//!
//! ```
//! use th_isa::{Assembler, Machine, Program, Reg};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut a = Assembler::new(0x1000);
//! a.li(Reg::X1, 0);
//! a.li(Reg::X2, 10);
//! a.label("loop");
//! a.addi(Reg::X1, Reg::X1, 1);
//! a.bne(Reg::X1, Reg::X2, "loop");
//! a.halt();
//! let program: Program = a.assemble()?;
//!
//! let mut m = Machine::new(&program);
//! let summary = m.run(1_000)?;
//! assert_eq!(m.reg(Reg::X1), 10);
//! assert!(summary.halted);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod asm;
mod encode;
mod inst;
mod interp;
mod mem;
mod parse;
mod program;
mod reg;

pub use asm::{AsmError, Assembler};
pub use encode::{decode, encode, DecodeError};
pub use inst::{FuClass, Inst, Op, OpClass};
pub use interp::{DynInst, Machine, RunSummary, Trap};
pub use mem::Memory;
pub use parse::{parse_asm, ParseError};
pub use program::Program;
pub use reg::Reg;
