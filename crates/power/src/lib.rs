//! # Activity-based power model.
//!
//! The paper computed power by combining HSpice-derived per-access
//! energies with MASE-reported activity factors and the clock frequency
//! (§4): `P = Σ_blocks (accesses × E_access) / t + P_clock + P_leak`.
//! This crate implements the identical methodology against the activity
//! ledger of `th-sim` — the per-(unit, die) [`th_stack3d::ActivityMatrix`]
//! the pipeline records at every access site, the only activity source:
//!
//! * [`EnergyTable`] — per-access energies for every [`th_stack3d::Unit`] in the 2D
//!   implementation, with per-unit wire fractions; the 3D energy is
//!   derived by shrinking the wire component with the same per-block wire
//!   scale factors the delay model uses.
//! * Thermal Herding gating: a correctly-predicted low-width access
//!   activates one die of four ("gate approximately 75 % of a block's
//!   switching activity", §5.2), modelled as a configurable
//!   [`EnergyTable::low_width_factor`].
//! * Clock network: 35 % of baseline power, scaling with frequency, and
//!   halved in 3D (§4). Leakage: 20 % of baseline power, unchanged by 3D
//!   or herding (§4).
//! * [`unit_activity_ledger`] — per-unit full/gated access equivalents
//!   read straight from the ledger rows.
//! * [`DieFractionTable`] — how each block's power distributes over the
//!   four dies, from measured ledger rows and scheduler residency; this
//!   feeds the thermal model.
//!
//! The single global calibration anchor is [`EnergyTable::CALIBRATION`],
//! chosen so the dual-core `mpeg2`-like baseline dissipates ≈90 W as in
//! Figure 9(a). Everything else — the 3D reduction, the herding
//! reduction, the per-benchmark 15–30 % range — *emerges* from activity.

#![deny(missing_docs)]

mod dies;
mod energy;
mod leakage;
mod model;

pub use dies::{top_die_share, DieFractionTable};
pub use leakage::{LeakageModel, DEFAULT_DOUBLING_K, DEFAULT_T_REF_K};
pub use energy::EnergyTable;
pub use model::{unit_activity_ledger, PowerBreakdown, PowerConfig, PowerModel, UnitActivity};
