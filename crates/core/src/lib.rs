//! # Thermal Herding: the paper's evaluation, end to end.
//!
//! This crate ties the substrates together into the experiments of
//! Puttaswamy & Loh, *"Thermal Herding: Microarchitecture Techniques for
//! Controlling Hotspots in High-Performance 3D-Integrated Processors"*
//! (HPCA 2007):
//!
//! * [`Variant`] — the five design points of Figure 8 (`Base`, `TH`,
//!   `Pipe`, `Fast`, `3D`) plus the herding-less 3D point of Figures 9–10.
//! * [`run_chip`] — simulate a workload on the dual-core chip of §4 and
//!   price its power.
//! * [`thermal_analysis`] — build the planar or 4-die stack, rasterise
//!   the per-die power maps, and solve for temperatures.
//! * [`experiments`] — one module per paper artefact: [`experiments::table2`],
//!   [`experiments::fig8`], [`experiments::fig9`], [`experiments::fig10`].
//!
//! ## Quickstart
//!
//! ```no_run
//! use thermal_herding::{run_chip, thermal_analysis, Variant};
//! use th_workloads::workload_by_name;
//!
//! let w = workload_by_name("mpeg2-like").unwrap();
//! let base = run_chip(Variant::Base, &w, 100_000).unwrap();
//! let three_d = run_chip(Variant::ThreeD, &w, 100_000).unwrap();
//! println!("speedup: {:.2}x", three_d.ipns() / base.ipns());
//! println!("power:   {:.1} W -> {:.1} W",
//!          base.power.total_w(), three_d.power.total_w());
//! let thermals = thermal_analysis(&three_d, 32).unwrap();
//! println!("peak:    {:.1} K", thermals.peak_k());
//! ```

#![deny(missing_docs)]

mod config;
pub mod experiments;
mod run;
mod thermal;

pub use config::{three_d_clock_ghz, Variant};
pub use run::{run_chip, run_chip_with_work, ChipResult};
pub use th_sim::CoreWork;
pub use thermal::{
    thermal_analysis, thermal_analysis_scaled, transient_heatup, ThermalAnalysis, GRID_COLS,
    GRID_ROWS, SINK_RESISTANCE_K_PER_W,
};
