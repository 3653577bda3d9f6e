//! # A HotSpot-class compact thermal model for 3D die stacks.
//!
//! The paper used HotSpot 3.0.2 (University of Virginia) for its thermal
//! analysis (§4). HotSpot is a compact RC-network model: the chip is
//! discretised into a grid of cells per layer; each cell exchanges heat
//! with its lateral neighbours, the cells above/below, and (through the
//! heat sink) the ambient. This crate implements the same physics from
//! scratch:
//!
//! * [`Material`] — thermal conductivity (anisotropic: d2d bond layers
//!   conduct well vertically through copper vias but poorly laterally) and
//!   volumetric heat capacity.
//! * [`StackModel`] — the vertical layer stack plus heat-sink boundary.
//! * [`PowerGrid`] — a rasterised power map; floorplan rectangles are
//!   painted onto it with [`PowerGrid::paint_rect`].
//! * [`SteadySolver`] — steady-state solution via red-black SOR.
//! * [`TransientSolver`] — implicit-Euler transient stepping on the same
//!   network.
//! * [`ThermalMap`] — the solved temperature field with per-block queries
//!   and an ASCII heat-map renderer.
//!
//! ## Validation
//!
//! The solver is validated against analytic solutions (1-D slab
//! conduction, superposition, grid-refinement convergence) in the test
//! suite; see `tests/` in this crate.

#![deny(missing_docs)]

mod map;
mod materials;
mod model;
mod power;
mod solve;

pub use map::{MapView, ThermalMap};
pub use materials::Material;
pub use model::{HeatSink, ModelLayer, StackModel};
pub use power::PowerGrid;
pub use solve::{SolveError, SolveOptions, SolveStats, SteadySolver, TransientSolver};

/// Ambient temperature HotSpot uses by default, kelvin (45 °C).
pub const AMBIENT_K: f64 = 318.15;
