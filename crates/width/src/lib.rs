//! # Width prediction and partial-value machinery for Thermal Herding.
//!
//! The paper's central observation (§3) is that most 64-bit integer values
//! need only their least-significant 16 bits, and that an instruction's
//! "width" is highly predictable from its PC. This crate implements every
//! width-related mechanism the paper describes, independent of the timing
//! model so each can be unit- and property-tested in isolation:
//!
//! * [`Width`]/[`WidthPolicy`] — the low/full classification of a 64-bit
//!   value (§3: "low-width (≤16-bit) or full-width (>16-bits)").
//! * [`SatCounter`] — saturating counters (shared with the branch
//!   direction predictor in `th-sim`).
//! * [`WidthPredictor`] — the PC-indexed two-bit saturating-counter width
//!   predictor of §3, with unsafe/safe misprediction accounting.
//! * [`WidthMemoFile`] — the per-register width memoization bits on the
//!   top die (§3.1) that detect unsafe mispredictions at read time.
//! * [`UpperEncoding`] — the L1 data cache's two-bit partial value encoding
//!   (§3.6: `00` zeros / `01` ones / `10` address-upper / `11` explicit).
//! * [`PartialAddressMemoizer`] — the load/store queue's partial address
//!   memoization (§3.5): broadcast 16 low bits plus one "upper 48 bits
//!   match the most recent store" bit.
//!
//! Where the resulting accesses land in the 3D stack is not this crate's
//! concern: the pipeline records that per access in `th-stack3d`'s
//! activity ledger, the one activity source the power model prices.

#![deny(missing_docs)]

mod class;
mod counter;
mod encoding;
mod memo;
mod pam;
mod predictor;

pub use class::{Width, WidthPolicy};
pub use counter::SatCounter;
pub use encoding::{EncodingStats, UpperEncoding};
pub use memo::{MemoCheck, WidthMemoFile};
pub use pam::{PamOutcome, PamStats, PartialAddressMemoizer};
pub use predictor::{WidthPredictStats, WidthPredictor};

/// Number of dies in the paper's 3D stack; each die holds one 16-bit word
/// of the significance-partitioned 64-bit datapath.
pub const DIES: usize = 4;

/// Bits of the datapath resident on each die.
pub const BITS_PER_DIE: u32 = 16;
