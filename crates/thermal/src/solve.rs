//! Steady-state and transient solvers for the RC network.
//!
//! The governing equation per cell is Kirchhoff's current law for heat:
//!
//! ```text
//! Σ_n G_n (T_n - T) + G_amb (T_amb - T) + P = C dT/dt
//! ```
//!
//! Steady state (`dT/dt = 0`) is solved with red-black successive
//! over-relaxation: cells are colored by the parity of
//! `layer + row + col`, so each cell's six stencil neighbours all carry
//! the opposite color. A sweep relaxes all red cells, then all black
//! cells; within one color pass every update reads only frozen
//! opposite-color values, so the order cells are relaxed in within a
//! pass cannot change the result. A pass runs inline on the calling
//! thread: on grids this small, fanning a pass out over a thread pool
//! costs more than the pass (a fig10-sized solve ran 3–4× slower at two
//! lanes). Convergence is measured every [`SolveOptions::check_every`]
//! sweeps rather than every sweep.
//! The transient uses implicit (backward) Euler, which is
//! unconditionally stable even with the µm-thin d2d layers' tiny time
//! constants, re-using the same relaxation kernel per step with a `C/dt`
//! self-term.
//!
//! ## Color-split layout
//!
//! A solve (or transient step) converts the field once into two arrays,
//! one per color, and converts it back at the end. Cell
//! `(layer, row, col)` gets the padded index
//! `layer·layer_stride + row·row_stride + col` with both strides odd, so
//! the parity of that index is the cell's color, and a color's array
//! holds index `g` at slot `g / 2`. Every `(layer, row)` line is
//! therefore contiguous in its color's array, and every neighbour sits
//! at the same slot offset for all cells of a color: W and E at
//! `⌊(c ± 1) / 2⌋`, N and S at `⌊(c ± row_stride) / 2⌋`, D and U at
//! `⌊(c ± layer_stride) / 2⌋`, for color `c`. Uniform offsets let a
//! color pass relax whole bands of lines as single unit-stride runs
//! (per layer: row 0, the rows between, and the last row), which
//! vectorise; runs the length of one 16-column line cost about twice as
//! much per cell. Each row ends in at least one zero pad, and zero
//! margins surround the field; pads sit inside runs but have a zero
//! reciprocal diagonal, so they stay zero.
//!
//! The layout moves cells, not arithmetic. Each pass reads one color's
//! current values and writes its next values into a second buffer, and
//! every cell gets exactly the expression the natural-layout kernel gave
//! it:
//!
//! - A cell with all six faces takes
//!   `b + gx(W+E) + gy(N+S) + gzm·D + gzp·U`, then
//!   `old + ω(num·inv − old)`.
//! - A cell on a face of the grid adds its face terms one at a time in
//!   W, E, N, S, D, U order. An absent face contributes `+ 0·T` for a
//!   finite `T` (a zero conductance, or a zero pad read across the row
//!   end), and adding `+0.0` leaves every non-zero sum's bits alone. So
//!   boundary rows and layers relax as plain runs with no per-face
//!   branches.
//! - The only cells whose run has the wrong stencil are columns 0 and
//!   `cols − 1` of the grouped runs; each pass relaxes them again, on
//!   their own, after the runs.
//!
//! Solves are therefore bit-identical, temperatures and sweep counts,
//! to relaxing the natural layout in place; `tests/kernel_equivalence.rs`
//! keeps that kernel as a test-only reference, next to the original
//! sequential lexicographic sweep, the convergence oracle. On x86-64 the
//! runs are also compiled for AVX2 and picked at run time: the wider
//! vectors do the same IEEE operations in the same order (nothing is
//! fused), so the bits do not depend on the CPU.

use crate::map::{MapView, ThermalMap};
use crate::model::StackModel;
use crate::power::PowerGrid;
use std::fmt;

/// Solver configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SolveOptions {
    /// Maximum relaxation sweeps.
    pub max_iters: usize,
    /// Convergence threshold: maximum per-cell temperature change per
    /// sweep, kelvin.
    pub tolerance_k: f64,
    /// SOR over-relaxation factor (1.0 = Gauss-Seidel).
    pub omega: f64,
    /// Convergence is checked every `check_every` sweeps (clamped to at
    /// least 1): the intermediate sweeps skip per-cell delta tracking.
    pub check_every: usize,
}

impl Default for SolveOptions {
    fn default() -> SolveOptions {
        SolveOptions { max_iters: 20_000, tolerance_k: 1e-6, omega: 1.85, check_every: 8 }
    }
}

/// The work one steady solve or transient step did.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SolveStats {
    /// Relaxation sweeps run.
    pub sweeps: usize,
    /// Maximum per-cell change of the last checked sweep, kelvin: below
    /// [`SolveOptions::tolerance_k`] for a converged solve.
    pub residual_k: f64,
}

/// Error returned when a solve fails.
#[derive(Clone, Debug, PartialEq)]
pub enum SolveError {
    /// The relaxation did not reach tolerance within `max_iters` sweeps;
    /// the payload is the final residual (kelvin).
    NotConverged(f64),
    /// A power grid's shape does not match the solver grid.
    PowerGridMismatch {
        /// Expected (rows, cols).
        expected: (usize, usize),
        /// Provided (rows, cols).
        got: (usize, usize),
    },
    /// The number of power grids does not match the model's active layers.
    PowerLayerCount {
        /// Active layers in the model.
        expected: usize,
        /// Grids provided.
        got: usize,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::NotConverged(r) => write!(f, "solver did not converge (residual {r:.2e} K)"),
            SolveError::PowerGridMismatch { expected, got } => {
                write!(f, "power grid is {got:?}, solver grid is {expected:?}")
            }
            SolveError::PowerLayerCount { expected, got } => {
                write!(f, "model has {expected} active layers but {got} power grids were given")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// The stencil a run of cells shares.
#[derive(Clone, Copy, Debug)]
enum Stencil {
    /// All six faces present: `b + gx(W+E) + gy(N+S) + gzm·D + gzp·U`,
    /// as `[gx, gy, gzm, gzp]`.
    Grouped([f64; 4]),
    /// The face terms one at a time, as `[W, E, N, S, D, U]`
    /// conductances. An absent N, S, D or U face has zero conductance;
    /// an absent W or E face reads the zero pad past the row's end.
    Sequential([f64; 6]),
}

/// Slots `slots.0..slots.1` of one color's array: whole lines of one
/// layer, pads included, relaxed as one unit-stride run with one
/// stencil.
#[derive(Clone, Copy, Debug)]
struct Run {
    slots: (usize, usize),
    stencil: Stencil,
}

/// A cell in column 0 or `cols − 1` of a grouped run: its W or E face
/// is absent, so the run computes it with the wrong stencil and it is
/// relaxed again on its own.
#[derive(Clone, Copy, Debug)]
struct Edge {
    slot: usize,
    /// `[W, E, N, S, D, U]` conductances, zero for an absent face.
    g: [f64; 6],
}

/// Where one color's cells sit in the color-split layout and how they
/// are relaxed.
#[derive(Clone, Debug)]
struct ColorPlan {
    /// Slot offsets of the W, E, N, S, D and U neighbours in the other
    /// color's array.
    nbr: [isize; 6],
    /// Runs in line order; together they cover every line.
    runs: Vec<Run>,
    /// Edge cells of the grouped runs, in line order.
    edges: Vec<Edge>,
}

/// Geometry of the color-split layout.
///
/// Cell `(layer, row, col)` has the padded index
/// `layer·layer_stride + row·row_stride + col`. Both strides are odd, so
/// the index's parity is the cell's color and every neighbour offset is
/// the same for all cells of a color. A color's array holds padded index
/// `g` at slot `margin + g / 2`. Every row ends in at least one pad (a
/// layer may end in one more), and a margin of over half a layer stride
/// precedes and follows the cells. Pads and margins stay zero; they are
/// what a cell reads across an absent face.
#[derive(Clone, Copy, Debug)]
struct Layout {
    layers: usize,
    rows: usize,
    cols: usize,
    row_stride: usize,
    layer_stride: usize,
    margin: usize,
}

impl Layout {
    fn new(layers: usize, rows: usize, cols: usize) -> Layout {
        let row_stride = (cols + 1) | 1;
        let layer_stride = (rows * row_stride) | 1;
        Layout { layers, rows, cols, row_stride, layer_stride, margin: layer_stride / 2 + 1 }
    }

    fn padded(&self, layer: usize, row: usize, col: usize) -> usize {
        layer * self.layer_stride + row * self.row_stride + col
    }

    fn slot(&self, padded: usize) -> usize {
        self.margin + padded / 2
    }

    /// Length of each color array.
    fn len(&self) -> usize {
        2 * self.margin + (self.layers * self.layer_stride).div_ceil(2)
    }
}

impl ColorPlan {
    /// Plans `color`'s cells. Per layer, rows 0 and `rows − 1` each form
    /// a run (they lack the N or S face) and the rows between form one;
    /// that middle run is grouped in every layer but the first and last.
    fn new(layout: Layout, color: usize, gx: &[f64], gy: &[f64], gz: &[f64]) -> ColorPlan {
        let Layout { layers, rows, cols, .. } = layout;
        // The first slot of `color` on line `row` of `layer`.
        let line_slot = |layer: usize, row: usize| {
            layout.margin + (layout.padded(layer, row, 0) + 1 - color) / 2
        };
        let mut bands = vec![(0, 1)];
        if rows > 2 {
            bands.push((1, rows - 1));
        }
        if rows > 1 {
            bands.push((rows - 1, rows));
        }
        let edge_cols: &[usize] = if cols > 1 { &[0, cols - 1] } else { &[0] };
        let mut runs = Vec::new();
        let mut edges = Vec::new();
        for layer in 0..layers {
            let (gx, gy) = (gx[layer], gy[layer]);
            let gzm = if layer > 0 { gz[layer - 1] } else { 0.0 };
            let gzp = gz.get(layer).copied().unwrap_or(0.0);
            for &(r0, r1) in &bands {
                let gn = if r0 > 0 { gy } else { 0.0 };
                let gs = if r1 < rows { gy } else { 0.0 };
                let grouped = layer > 0 && layer + 1 < layers && r0 > 0 && r1 < rows;
                let stencil = if grouped {
                    Stencil::Grouped([gx, gy, gzm, gzp])
                } else {
                    Stencil::Sequential([gx, gx, gn, gs, gzm, gzp])
                };
                let end = if r1 < rows { line_slot(layer, r1) } else { line_slot(layer + 1, 0) };
                runs.push(Run { slots: (line_slot(layer, r0), end), stencil });
                if !grouped {
                    // W and E read the zero pads that bracket each row,
                    // so the sequential run is right at the ends.
                    continue;
                }
                for row in r0..r1 {
                    for &col in edge_cols {
                        let g = layout.padded(layer, row, col);
                        if g & 1 == color {
                            let gw = if col > 0 { gx } else { 0.0 };
                            let ge = if col + 1 < cols { gx } else { 0.0 };
                            let slot = layout.slot(g);
                            edges.push(Edge { slot, g: [gw, ge, gy, gy, gzm, gzp] });
                        }
                    }
                }
            }
        }
        // Padded index `g + delta` sits at slot offset
        // `⌊(g + delta) / 2⌋ − g / 2`, the same for every `g` of `color`.
        let offset = |delta: isize| (color as isize + delta).div_euclid(2);
        let (sr, sl) = (layout.row_stride as isize, layout.layer_stride as isize);
        let nbr = [offset(-1), offset(1), offset(-sr), offset(sr), offset(-sl), offset(sl)];
        ColorPlan { nbr, runs, edges }
    }
}

/// A field in color-split layout, one array per color.
type Split = [Vec<f64>; 2];

/// The assembled conductance network for a [`StackModel`] at a fixed
/// grid resolution.
///
/// Assembly precomputes, per cell, the stencil diagonal (the sum of all
/// incident conductances, including the ambient link on the sink-side
/// layer), so relaxation sweeps multiply by a cached reciprocal instead
/// of re-deriving boundary terms cell by cell, and per color the runs,
/// edge cells and neighbour offsets of the color-split layout (see the
/// module docs).
///
/// Solves relax with red-black SOR, and convergence is checked every
/// [`SolveOptions::check_every`] sweeps (intermediate sweeps skip
/// residual tracking).
#[derive(Clone, Debug)]
pub struct SteadySolver {
    model: StackModel,
    rows: usize,
    cols: usize,
    /// Conductance from each top-layer cell to ambient.
    g_amb: f64,
    /// Heat capacity per cell, per layer (J/K).
    cap: Vec<f64>,
    /// Per-cell steady-state stencil diagonal: the sum of all incident
    /// conductances (transient solves add `C/dt` on top).
    diag0: Vec<f64>,
    /// Geometry of the color-split field.
    layout: Layout,
    /// Runs and edge cells of each color.
    plans: [ColorPlan; 2],
}

impl SteadySolver {
    /// Assembles the network at `rows × cols` lateral resolution.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn new(model: StackModel, rows: usize, cols: usize) -> SteadySolver {
        assert!(rows > 0 && cols > 0, "grid must have cells");
        let dx = model.width_m() / cols as f64;
        let dy = model.height_m() / rows as f64;
        let area = dx * dy;
        let layers = model.layers();
        let gx: Vec<f64> =
            layers.iter().map(|l| l.material.k_lateral * l.thickness_m * dy / dx).collect();
        let gy: Vec<f64> =
            layers.iter().map(|l| l.material.k_lateral * l.thickness_m * dx / dy).collect();
        let gz: Vec<f64> = layers
            .windows(2)
            .map(|w| {
                let r = w[0].thickness_m / (2.0 * w[0].material.k_vertical)
                    + w[1].thickness_m / (2.0 * w[1].material.k_vertical);
                area / r
            })
            .collect();
        let cap: Vec<f64> =
            layers.iter().map(|l| l.material.heat_capacity * l.thickness_m * area).collect();
        let g_amb = 1.0 / (model.sink().resistance_k_per_w * (rows * cols) as f64);

        let n_layers = layers.len();
        let mut diag0 = vec![0.0; n_layers * rows * cols];
        for layer in 0..n_layers {
            for row in 0..rows {
                for col in 0..cols {
                    let mut d = 0.0;
                    if col > 0 {
                        d += gx[layer];
                    }
                    if col + 1 < cols {
                        d += gx[layer];
                    }
                    if row > 0 {
                        d += gy[layer];
                    }
                    if row + 1 < rows {
                        d += gy[layer];
                    }
                    if layer > 0 {
                        d += gz[layer - 1];
                    }
                    if layer + 1 < n_layers {
                        d += gz[layer];
                    }
                    if layer == 0 {
                        d += g_amb;
                    }
                    diag0[(layer * rows + row) * cols + col] = d;
                }
            }
        }

        let layout = Layout::new(n_layers, rows, cols);
        let plans = [0, 1].map(|color| ColorPlan::new(layout, color, &gx, &gy, &gz));
        SteadySolver { model, rows, cols, g_amb, cap, diag0, layout, plans }
    }

    /// The underlying model.
    pub fn model(&self) -> &StackModel {
        &self.model
    }

    /// Grid resolution `(rows, cols)`.
    pub fn resolution(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    fn idx(&self, layer: usize, row: usize, col: usize) -> usize {
        (layer * self.rows + row) * self.cols + col
    }

    /// Builds the per-cell power vector from the per-die power grids.
    fn assemble_power(&self, power: &[PowerGrid]) -> Result<Vec<f64>, SolveError> {
        if power.len() != self.model.power_layer_count() {
            return Err(SolveError::PowerLayerCount {
                expected: self.model.power_layer_count(),
                got: power.len(),
            });
        }
        let n_layers = self.model.layers().len();
        let mut p = vec![0.0; n_layers * self.rows * self.cols];
        for (power_index, grid) in power.iter().enumerate() {
            if grid.rows() != self.rows || grid.cols() != self.cols {
                return Err(SolveError::PowerGridMismatch {
                    expected: (self.rows, self.cols),
                    got: (grid.rows(), grid.cols()),
                });
            }
            let layer = self
                .model
                .layer_of_power_index(power_index)
                .expect("power index validated by StackModel");
            for r in 0..self.rows {
                for c in 0..self.cols {
                    p[self.idx(layer, r, c)] = grid.cell(r, c);
                }
            }
        }
        Ok(p)
    }

    /// Calls `f(i, color, slot)` for every cell: `i` is its natural
    /// (layer-, then row-major) index and `slot` its index in `color`'s
    /// array of the color-split layout.
    fn for_each_cell(&self, mut f: impl FnMut(usize, usize, usize)) {
        let mut i = 0;
        for layer in 0..self.model.layers().len() {
            for row in 0..self.rows {
                for col in 0..self.cols {
                    let g = self.layout.padded(layer, row, col);
                    f(i, g & 1, self.layout.slot(g));
                    i += 1;
                }
            }
        }
    }

    /// A zeroed color-split field: pads and margins stay zero.
    fn split_zeros(&self) -> Split {
        [vec![0.0; self.layout.len()], vec![0.0; self.layout.len()]]
    }

    /// Folds the ambient link and (for transient steps) the implicit
    /// `C/dt` self-term into a right-hand side `b` and the per-cell
    /// reciprocal diagonal, both color-split, so each red-black cell
    /// update is `T ← T + ω (b + Σ G·T_nbr) / diag − ω T`.
    fn assemble_system(&self, p: &[f64], transient: Option<(f64, &[f64])>) -> (Split, Split) {
        let ambient = self.model.sink().ambient_k;
        let cells = self.rows * self.cols;
        let mut b = self.split_zeros();
        let mut inv_diag = self.split_zeros();
        self.for_each_cell(|i, color, slot| {
            let layer = i / cells;
            let dtc = transient.map_or(0.0, |(dt_s, _)| self.cap[layer] / dt_s);
            let mut bi = p[i];
            let mut d = self.diag0[i] + dtc;
            if let Some((_, t_old)) = transient {
                bi += dtc * t_old[i];
            }
            if layer == 0 {
                bi += self.g_amb * ambient;
            }
            debug_assert!(d > 0.0);
            if d <= 0.0 {
                d = 1.0;
            }
            b[color][slot] = bi;
            inv_diag[color][slot] = 1.0 / d;
        });
        (b, inv_diag)
    }

    /// One red-black SOR sweep (both colors) over a color-split field:
    /// each color pass writes its color's next values into `spare`,
    /// then swaps it in. Returns the maximum per-cell change if `track`,
    /// else 0.
    fn sweep_red_black(
        &self,
        t: &mut Split,
        spare: &mut Split,
        (b, inv_diag): (&Split, &Split),
        omega: f64,
        track: bool,
    ) -> f64 {
        let mut max_delta = 0.0f64;
        for color in 0..2usize {
            ColorPass {
                plan: &self.plans[color],
                next: &mut spare[color],
                old: &t[color],
                other: &t[1 - color],
                b: &b[color],
                inv_diag: &inv_diag[color],
                omega,
            }
            .relax();
            std::mem::swap(&mut t[color], &mut spare[color]);
            if track {
                max_delta = max_delta.max(max_change(&t[color], &spare[color]));
            }
        }
        max_delta
    }

    /// Relaxes `t` in place until the per-sweep residual drops below
    /// tolerance, checking every `options.check_every` sweeps. With
    /// `dt_s`, solves one implicit-Euler step from the field `t` holds on
    /// entry.
    fn relax_to_convergence(
        &self,
        t: &mut [f64],
        p: &[f64],
        dt_s: Option<f64>,
        options: &SolveOptions,
    ) -> Result<SolveStats, SolveError> {
        let check_every = options.check_every.max(1);
        let (b, inv_diag) = self.assemble_system(p, dt_s.map(|dt| (dt, &*t)));
        let mut field = self.split_zeros();
        self.for_each_cell(|i, color, slot| field[color][slot] = t[i]);
        // Pads and margins are zero in both buffers; every pass rewrites
        // its pads to zero.
        let mut spare = self.split_zeros();
        let system = (&b, &inv_diag);
        let mut residual = f64::INFINITY;
        let mut done = 0;
        while done < options.max_iters {
            let block = check_every.min(options.max_iters - done);
            for _ in 0..block - 1 {
                self.sweep_red_black(&mut field, &mut spare, system, options.omega, false);
            }
            residual = self.sweep_red_black(&mut field, &mut spare, system, options.omega, true);
            done += block;
            if residual < options.tolerance_k {
                break;
            }
        }
        self.for_each_cell(|i, color, slot| t[i] = field[color][slot]);
        if residual < options.tolerance_k {
            Ok(SolveStats { sweeps: done, residual_k: residual })
        } else {
            Err(SolveError::NotConverged(residual))
        }
    }

    /// Solves for the steady-state temperature field. The map's
    /// [`ThermalMap::solve_stats`] records the sweeps the solve took.
    ///
    /// # Errors
    ///
    /// [`SolveError`] on power-grid shape mismatch or non-convergence.
    pub fn solve_steady(
        &self,
        power: &[PowerGrid],
        options: &SolveOptions,
    ) -> Result<ThermalMap, SolveError> {
        let p = self.assemble_power(power)?;
        let ambient = self.model.sink().ambient_k;
        let total_power: f64 = p.iter().sum();
        // Warm start at the bulk estimate: ambient plus sink rise.
        let start = ambient + total_power * self.model.sink().resistance_k_per_w;
        let mut t = vec![start; p.len()];
        let stats = self.relax_to_convergence(&mut t, &p, None, options)?;
        Ok(self.wrap(t).with_solve_stats(stats))
    }

    fn wrap(&self, temps: Vec<f64>) -> ThermalMap {
        ThermalMap::new(
            self.rows,
            self.cols,
            self.model.layers().len(),
            self.model.width_m(),
            self.model.height_m(),
            self.model.layers().iter().map(|l| l.power_index).collect(),
            temps,
        )
    }
}

/// The largest `|now − was|`. Four lanes of maxima keep the
/// comparisons independent; the maximum of a set does not depend on the
/// order it is taken in.
fn max_change(now: &[f64], was: &[f64]) -> f64 {
    let mut lanes = [0.0f64; 4];
    let (now4, was4) = (now.chunks_exact(4), was.chunks_exact(4));
    let tail = now4.remainder().iter().zip(was4.remainder());
    for (n, w) in now4.zip(was4) {
        for k in 0..4 {
            lanes[k] = lanes[k].max((n[k] - w[k]).abs());
        }
    }
    tail.fold(lanes.into_iter().fold(0.0, f64::max), |m, (n, w)| m.max((n - w).abs()))
}

/// One color pass of a red-black sweep.
struct ColorPass<'a> {
    plan: &'a ColorPlan,
    /// The pass color's next values: an array as long as `old`.
    next: &'a mut [f64],
    /// The pass color's current values.
    old: &'a [f64],
    /// The other color's values.
    other: &'a [f64],
    b: &'a [f64],
    inv_diag: &'a [f64],
    omega: f64,
}

impl ColorPass<'_> {
    /// Relaxes every cell of the pass color into its next array.
    fn relax(&mut self) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU has AVX2.
            return unsafe { self.relax_avx2() };
        }
        self.relax_body()
    }

    /// [`ColorPass::relax_body`] compiled for AVX2. The wider vectors
    /// perform the same IEEE operations in the same order (nothing is
    /// fused), so the bits match the baseline build's.
    ///
    /// # Safety
    ///
    /// The CPU must have AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn relax_avx2(&mut self) {
        self.relax_body()
    }

    /// Runs update every slot of their lines, pads included; a pad has
    /// a zero reciprocal diagonal, so it stays zero. Edge cells of
    /// grouped runs are then overwritten with their own update.
    #[inline(always)]
    fn relax_body(&mut self) {
        let ColorPass { plan, ref mut next, old, other, b, inv_diag, omega } = *self;
        let nbr = |slot: usize, j: usize| slot.wrapping_add_signed(plan.nbr[j]);
        for run in &plan.runs {
            let (s0, s1) = run.slots;
            let own = [&old[s0..s1], &b[s0..s1], &inv_diag[s0..s1]];
            let nbrs = std::array::from_fn(|j| &other[nbr(s0, j)..nbr(s1, j)]);
            relax_run(&mut next[s0..s1], own, nbrs, run.stencil, omega);
        }
        for e in &plan.edges {
            let i = e.slot;
            let [gw, ge, gn, gs, gd, gu] = e.g;
            let mut num = b[i];
            num += gw * other[nbr(i, 0)];
            num += ge * other[nbr(i, 1)];
            num += gn * other[nbr(i, 2)];
            num += gs * other[nbr(i, 3)];
            num += gd * other[nbr(i, 4)];
            num += gu * other[nbr(i, 5)];
            next[i] = old[i] + omega * (num * inv_diag[i] - old[i]);
        }
    }
}

/// Relaxes a unit-stride run of cells with one stencil into `next`,
/// from the cells' current values, right-hand sides and reciprocal
/// diagonals and from their W, E, N, S, D and U neighbours.
#[inline(always)]
fn relax_run(
    next: &mut [f64],
    [old, b, inv_diag]: [&[f64]; 3],
    [w, e, n, s, d, u]: [&[f64]; 6],
    stencil: Stencil,
    omega: f64,
) {
    let m = next.len();
    let (old, b, inv_diag) = (&old[..m], &b[..m], &inv_diag[..m]);
    let (w, e, n, s, d, u) = (&w[..m], &e[..m], &n[..m], &s[..m], &d[..m], &u[..m]);
    match stencil {
        Stencil::Grouped([gx, gy, gzm, gzp]) => {
            for k in 0..m {
                let num = b[k] + gx * (w[k] + e[k]) + gy * (n[k] + s[k]) + gzm * d[k] + gzp * u[k];
                next[k] = old[k] + omega * (num * inv_diag[k] - old[k]);
            }
        }
        Stencil::Sequential([gw, ge, gn, gs, gd, gu]) => {
            for k in 0..m {
                let mut num = b[k];
                num += gw * w[k];
                num += ge * e[k];
                num += gn * n[k];
                num += gs * s[k];
                num += gd * d[k];
                num += gu * u[k];
                next[k] = old[k] + omega * (num * inv_diag[k] - old[k]);
            }
        }
    }
}

/// Implicit-Euler transient integrator over the same network.
///
/// ```no_run
/// use th_thermal::{Material, ModelLayer, PowerGrid, SolveOptions, StackModel,
///                  SteadySolver, TransientSolver};
/// # let model = StackModel::new(0.01, 0.01,
/// #     vec![ModelLayer::active(2e-6, Material::SILICON, 0)], Default::default());
/// let solver = SteadySolver::new(model, 16, 16);
/// let mut transient = TransientSolver::from_ambient(solver);
/// let mut power = vec![PowerGrid::new(16, 16, 0.01, 0.01)];
/// power[0].paint_rect(0.0, 0.0, 0.01, 0.01, 30.0);
/// for _ in 0..100 {
///     transient.step(&power, 1e-3, &SolveOptions::default()).unwrap();
/// }
/// let map = transient.current_map();
/// ```
#[derive(Clone, Debug)]
pub struct TransientSolver {
    solver: SteadySolver,
    t: Vec<f64>,
    /// Per-layer power index, cached so borrowing views needs no rebuild.
    power_index: Vec<Option<usize>>,
    elapsed_s: f64,
}

impl TransientSolver {
    /// Starts from a uniform ambient-temperature field.
    pub fn from_ambient(solver: SteadySolver) -> TransientSolver {
        let t0 = solver.model.sink().ambient_k;
        let n = solver.model.layers().len() * solver.rows * solver.cols;
        TransientSolver::with_field(solver, vec![t0; n])
    }

    /// Starts from a previously solved field.
    ///
    /// # Panics
    ///
    /// Panics if the map's shape does not match the solver.
    pub fn from_map(solver: SteadySolver, map: &ThermalMap) -> TransientSolver {
        assert_eq!(
            (map.rows(), map.cols(), map.layer_count()),
            (solver.rows, solver.cols, solver.model.layers().len()),
            "map shape mismatch"
        );
        TransientSolver::with_field(solver, map.temps().to_vec())
    }

    fn with_field(solver: SteadySolver, t: Vec<f64>) -> TransientSolver {
        let power_index = solver.model.layers().iter().map(|l| l.power_index).collect();
        TransientSolver { t, power_index, solver, elapsed_s: 0.0 }
    }

    /// Simulated time elapsed so far, seconds.
    pub fn elapsed_s(&self) -> f64 {
        self.elapsed_s
    }

    /// Advances one implicit-Euler step of `dt_s` seconds under the given
    /// power maps, returning the sweeps the step took.
    ///
    /// # Errors
    ///
    /// [`SolveError`] on shape mismatch or if the inner relaxation fails
    /// to converge.
    pub fn step(
        &mut self,
        power: &[PowerGrid],
        dt_s: f64,
        options: &SolveOptions,
    ) -> Result<SolveStats, SolveError> {
        let p = self.solver.assemble_power(power)?;
        let stats = self.solver.relax_to_convergence(&mut self.t, &p, Some(dt_s), options)?;
        self.elapsed_s += dt_s;
        Ok(stats)
    }

    /// Raw temperatures, layer-major then row-major.
    pub fn temps(&self) -> &[f64] {
        &self.t
    }

    /// Hottest temperature anywhere in the stack, kelvin.
    pub fn peak_k(&self) -> f64 {
        self.t.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// A borrowed view over the current field — the zero-copy way to
    /// query temperatures between steps.
    pub fn view(&self) -> MapView<'_> {
        MapView::new(
            self.solver.rows,
            self.solver.cols,
            self.solver.model.layers().len(),
            self.solver.model.width_m(),
            self.solver.model.height_m(),
            &self.power_index,
            &self.t,
        )
    }

    /// The current temperature field as an owning map (copies the field;
    /// prefer [`TransientSolver::view`] in hot loops).
    pub fn current_map(&self) -> ThermalMap {
        self.solver.wrap(self.t.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::materials::Material;
    use crate::model::{HeatSink, ModelLayer};

    fn slab_model(r_sink: f64) -> StackModel {
        StackModel::new(
            0.01,
            0.01,
            vec![
                ModelLayer::passive(500e-6, Material::SILICON),
                ModelLayer::active(2e-6, Material::SILICON, 0),
            ],
            HeatSink { resistance_k_per_w: r_sink, ambient_k: 300.0 },
        )
    }

    fn uniform_power(rows: usize, cols: usize, watts: f64) -> Vec<PowerGrid> {
        let mut g = PowerGrid::new(rows, cols, 0.01, 0.01);
        g.paint_rect(0.0, 0.0, 0.01, 0.01, watts);
        vec![g]
    }

    #[test]
    fn uniform_slab_matches_analytic_solution() {
        // With uniform power P and no lateral gradients, the top-layer
        // temperature is ambient + P·R_sink, and the active layer adds the
        // slab's vertical resistance t/(k·A).
        let rows = 8;
        let cols = 8;
        let watts = 50.0;
        let r_sink = 0.3;
        let solver = SteadySolver::new(slab_model(r_sink), rows, cols);
        let map = solver
            .solve_steady(&uniform_power(rows, cols, watts), &SolveOptions::default())
            .unwrap();
        let top = map.layer_mean(0);
        let active = map.layer_mean(1);
        let expected_top = 300.0 + watts * r_sink;
        assert!((top - expected_top).abs() < 0.05, "top {top} vs {expected_top}");
        // Vertical drop across half of layer0 + half of layer1 (cell centres).
        let area = 0.01 * 0.01;
        let r_slab = (500e-6 / 2.0 + 2e-6 / 2.0) / (120.0 * area);
        let expected_active = expected_top + watts * r_slab;
        assert!(
            (active - expected_active).abs() < 0.05,
            "active {active} vs {expected_active}"
        );
    }

    #[test]
    fn superposition_holds() {
        // The network is linear: temperatures for P1+P2 equal the sum of
        // the rises of P1 and P2 alone.
        let rows = 6;
        let cols = 6;
        let solver = SteadySolver::new(slab_model(0.25), rows, cols);
        let opts = SolveOptions::default();

        let mut p1 = PowerGrid::new(rows, cols, 0.01, 0.01);
        p1.paint_rect(0.0, 0.0, 0.004, 0.004, 10.0);
        let mut p2 = PowerGrid::new(rows, cols, 0.01, 0.01);
        p2.paint_rect(0.006, 0.006, 0.01, 0.01, 20.0);
        let mut p12 = p1.clone();
        p12.add(&p2);

        let m1 = solver.solve_steady(&[p1], &opts).unwrap();
        let m2 = solver.solve_steady(&[p2], &opts).unwrap();
        let m12 = solver.solve_steady(&[p12], &opts).unwrap();

        for i in 0..m12.temps().len() {
            let sum = m1.temps()[i] + m2.temps()[i] - 300.0; // one ambient offset
            assert!(
                (m12.temps()[i] - sum).abs() < 1e-3,
                "superposition violated at cell {i}: {} vs {}",
                m12.temps()[i],
                sum
            );
        }
    }

    #[test]
    fn hotspot_is_under_the_heater() {
        let rows = 9;
        let cols = 9;
        let solver = SteadySolver::new(slab_model(0.25), rows, cols);
        let mut p = PowerGrid::new(rows, cols, 0.01, 0.01);
        // Heat only the centre ninth.
        p.paint_rect(0.0033, 0.0033, 0.0066, 0.0066, 30.0);
        let map = solver.solve_steady(&[p], &SolveOptions::default()).unwrap();
        let (l, r, c) = map.argmax();
        assert_eq!(l, 1, "hotspot should be in the active layer");
        assert!((3..6).contains(&r) && (3..6).contains(&c), "hotspot at ({r},{c})");
    }

    #[test]
    fn grid_refinement_converges() {
        // Peak temperature should change little between 16x16 and 24x24.
        let watts = 40.0;
        let opts = SolveOptions::default();
        let peak = |n: usize| {
            let solver = SteadySolver::new(slab_model(0.25), n, n);
            let mut p = PowerGrid::new(n, n, 0.01, 0.01);
            p.paint_rect(0.002, 0.002, 0.008, 0.008, watts);
            solver.solve_steady(&[p], &opts).unwrap().max_temp()
        };
        let t16 = peak(16);
        let t24 = peak(24);
        assert!((t16 - t24).abs() < 0.5, "refinement gap {} K", (t16 - t24).abs());
    }

    #[test]
    fn transient_approaches_steady_state() {
        let rows = 6;
        let cols = 6;
        let solver = SteadySolver::new(slab_model(0.25), rows, cols);
        let opts = SolveOptions::default();
        let power = uniform_power(rows, cols, 30.0);
        let steady = solver.solve_steady(&power, &opts).unwrap();

        let mut tr = TransientSolver::from_ambient(solver);
        // Thermal RC of the package is ~ms–s; integrate 5 s.
        for _ in 0..500 {
            tr.step(&power, 0.01, &opts).unwrap();
        }
        let now = tr.current_map();
        assert!(
            (now.max_temp() - steady.max_temp()).abs() < 0.2,
            "transient {} vs steady {}",
            now.max_temp(),
            steady.max_temp()
        );
        assert!((tr.elapsed_s() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn transient_heats_monotonically_under_constant_power() {
        let rows = 4;
        let cols = 4;
        let solver = SteadySolver::new(slab_model(0.25), rows, cols);
        let opts = SolveOptions::default();
        let power = uniform_power(rows, cols, 30.0);
        let mut tr = TransientSolver::from_ambient(solver);
        let mut last = tr.current_map().max_temp();
        for _ in 0..20 {
            tr.step(&power, 0.005, &opts).unwrap();
            let now = tr.current_map().max_temp();
            assert!(now >= last - 1e-9, "temperature dropped: {now} < {last}");
            last = now;
        }
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let solver = SteadySolver::new(slab_model(0.25), 6, 6);
        let bad = vec![PowerGrid::new(4, 4, 0.01, 0.01)];
        match solver.solve_steady(&bad, &SolveOptions::default()) {
            Err(SolveError::PowerGridMismatch { .. }) => {}
            other => panic!("expected shape error, got {other:?}"),
        }
        match solver.solve_steady(&[], &SolveOptions::default()) {
            Err(SolveError::PowerLayerCount { expected: 1, got: 0 }) => {}
            other => panic!("expected count error, got {other:?}"),
        }
    }

    #[test]
    fn zero_power_stays_at_ambient() {
        let solver = SteadySolver::new(slab_model(0.25), 4, 4);
        let p = vec![PowerGrid::new(4, 4, 0.01, 0.01)];
        let map = solver.solve_steady(&p, &SolveOptions::default()).unwrap();
        for &t in map.temps() {
            assert!((t - 300.0).abs() < 1e-6);
        }
    }
}
