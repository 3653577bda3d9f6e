//! Property test: the red-black SOR kernel and the lexicographic
//! reference kernel solve the same linear system, so on random slab
//! models and random power maps they must converge to the same
//! steady-state field (both stop at a 1e-6 K per-sweep residual; the
//! fixed point is unique because the system is strictly diagonally
//! dominant).
//!
//! The color-split red-black kernel must also reproduce the
//! natural-layout red-black solver it replaced exactly: every
//! temperature's bits and every solve's sweep count, steady and
//! transient, on random shapes (including one row, one or two columns,
//! odd widths and single-layer stacks). That solver and the
//! lexicographic sweep live on below as test-only references.

use proptest::prelude::*;
use th_thermal::{
    HeatSink, Material, ModelLayer, PowerGrid, StackModel, SteadySolver, TransientSolver,
};

fn random_model(passive_layers: usize, r_sink: f64) -> StackModel {
    let mut layers = Vec::new();
    for _ in 0..passive_layers {
        layers.push(ModelLayer::passive(300e-6, Material::SILICON));
    }
    layers.push(ModelLayer::active(2e-6, Material::SILICON, 0));
    StackModel::new(
        0.01,
        0.01,
        layers,
        HeatSink { resistance_k_per_w: r_sink, ambient_k: 300.0 },
    )
}

/// Solves `power` on `model` with the production red-black kernel and
/// the lexicographic reference and requires the two fields to agree.
fn assert_kernels_agree(
    model: StackModel,
    rows: usize,
    cols: usize,
    p: PowerGrid,
) -> Result<(), TestCaseError> {
    let layers = model.layers().len();
    let map_rb =
        SteadySolver::new(model.clone(), rows, cols).solve_steady(std::slice::from_ref(&p));
    let reference = reference::Reference::new(model, rows, cols).lexicographic();
    let (lex, _) = reference.solve_steady(&[p]);
    for (i, (a, b)) in map_rb.unwrap().temps().iter().zip(&lex).enumerate() {
        prop_assert!(
            (a - b).abs() < 1e-3,
            "kernels disagree at cell {i}: red-black {a} vs lexicographic {b} \
             ({rows}x{cols}, {layers} layers)"
        );
    }
    Ok(())
}

/// The proptest below on one fixed input: a thicker slab than
/// `random_model`'s, heated off-centre.
#[test]
fn red_black_matches_lexicographic_reference() {
    let (rows, cols) = (12, 10);
    let model = StackModel::new(
        0.01,
        0.01,
        vec![
            ModelLayer::passive(500e-6, Material::SILICON),
            ModelLayer::active(2e-6, Material::SILICON, 0),
        ],
        HeatSink { resistance_k_per_w: 0.25, ambient_k: 300.0 },
    );
    let mut p = PowerGrid::new(rows, cols, 0.01, 0.01);
    p.paint_rect(0.001, 0.002, 0.007, 0.009, 42.0);
    assert_kernels_agree(model, rows, cols, p).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn red_black_and_lexicographic_agree(
        rows in 3usize..12,
        cols in 3usize..12,
        passive_layers in 1usize..4,
        r_sink in 0.1f64..0.5,
        rects in proptest::collection::vec(
            (0.0f64..0.8, 0.0f64..0.8, 0.1f64..1.0, 0.1f64..1.0, 1.0f64..40.0),
            1..4
        )
    ) {
        let mut p = PowerGrid::new(rows, cols, 0.01, 0.01);
        for &(x0, y0, wx, wy, watts) in &rects {
            let x1 = (x0 + wx).min(1.0);
            let y1 = (y0 + wy).min(1.0);
            p.paint_rect(x0 * 0.01, y0 * 0.01, x1 * 0.01, y1 * 0.01, watts);
        }
        assert_kernels_agree(random_model(passive_layers, r_sink), rows, cols, p)?;
    }
}

/// The natural-layout red-black SOR solver the color-split kernel
/// replaced, kept verbatim as a test-only reference: the field is one
/// layer-major, row-major array and each color pass walks every
/// `(layer, row)` line at stride 2. Cells with all six faces take the
/// grouped stencil `b + gx(W+E) + gy(N+S) + gzm·D + gzp·U`; the others
/// sum their present faces one at a time. The production kernel must
/// match it bit for bit, sweep for sweep.
///
/// [`reference::Reference::lexicographic`] turns it into the original
/// sequential Gauss-Seidel/SOR sweep (layer-major, then row, then
/// column), the convergence oracle: a different sweep order, so a
/// different path to the same fixed point.
mod reference {
    use th_thermal::{PowerGrid, StackModel};

    /// The production solver's settings, copied so the reference does
    /// not read them from the code it checks.
    const MAX_ITERS: usize = 20_000;
    const TOLERANCE_K: f64 = 1e-6;
    const OMEGA: f64 = 1.85;
    const CHECK_EVERY: usize = 8;

    pub struct Reference {
        model: StackModel,
        rows: usize,
        cols: usize,
        gx: Vec<f64>,
        gy: Vec<f64>,
        gz: Vec<f64>,
        g_amb: f64,
        cap: Vec<f64>,
        diag0: Vec<f64>,
        /// Sweep cell by cell in natural order instead of by color.
        lexicographic: bool,
    }

    impl Reference {
        pub fn new(model: StackModel, rows: usize, cols: usize) -> Reference {
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
            Reference { model, rows, cols, gx, gy, gz, g_amb, cap, diag0, lexicographic: false }
        }

        /// The same solver with the lexicographic sweep order.
        pub fn lexicographic(self) -> Reference {
            Reference { lexicographic: true, ..self }
        }

        pub fn power(&self, power: &[PowerGrid]) -> Vec<f64> {
            let mut p = vec![0.0; self.model.layers().len() * self.rows * self.cols];
            for (power_index, grid) in power.iter().enumerate() {
                let layer = self.model.layer_of_power_index(power_index).unwrap();
                for r in 0..self.rows {
                    for c in 0..self.cols {
                        p[(layer * self.rows + r) * self.cols + c] = grid.cell(r, c);
                    }
                }
            }
            p
        }

        /// The steady field and the sweeps it took.
        pub fn solve_steady(&self, power: &[PowerGrid]) -> (Vec<f64>, usize) {
            let p = self.power(power);
            let ambient = self.model.sink().ambient_k;
            let total_power: f64 = p.iter().sum();
            let start = ambient + total_power * self.model.sink().resistance_k_per_w;
            let mut t = vec![start; p.len()];
            let sweeps = self.relax_to_convergence(&mut t, &p, None);
            (t, sweeps)
        }

        /// One implicit-Euler step of `t` in place; returns the sweeps.
        pub fn step(&self, t: &mut [f64], power: &[PowerGrid], dt_s: f64) -> usize {
            let p = self.power(power);
            let t_old = t.to_vec();
            self.relax_to_convergence(t, &p, Some((dt_s, &t_old)))
        }

        fn relax_to_convergence(
            &self,
            t: &mut [f64],
            p: &[f64],
            transient: Option<(f64, &[f64])>,
        ) -> usize {
            let (b, inv_diag) = self.assemble_system(p, transient);
            let mut done = 0;
            while done < MAX_ITERS {
                let block = CHECK_EVERY.min(MAX_ITERS - done);
                for _ in 0..block - 1 {
                    self.sweep(t, &b, &inv_diag, OMEGA, false);
                }
                let residual = self.sweep(t, &b, &inv_diag, OMEGA, true);
                done += block;
                if residual < TOLERANCE_K {
                    return done;
                }
            }
            panic!("reference did not converge");
        }

        fn assemble_system(
            &self,
            p: &[f64],
            transient: Option<(f64, &[f64])>,
        ) -> (Vec<f64>, Vec<f64>) {
            let ambient = self.model.sink().ambient_k;
            let cells = self.rows * self.cols;
            let mut b = p.to_vec();
            let mut inv_diag = Vec::with_capacity(b.len());
            for layer in 0..self.model.layers().len() {
                let dtc = transient.map_or(0.0, |(dt_s, _)| self.cap[layer] / dt_s);
                for cell in 0..cells {
                    let i = layer * cells + cell;
                    let d = self.diag0[i] + dtc;
                    if let Some((_, t_old)) = transient {
                        b[i] += dtc * t_old[i];
                    }
                    if layer == 0 {
                        b[i] += self.g_amb * ambient;
                    }
                    inv_diag.push(1.0 / d);
                }
            }
            (b, inv_diag)
        }

        fn sweep(
            &self,
            t: &mut [f64],
            b: &[f64],
            inv_diag: &[f64],
            omega: f64,
            track: bool,
        ) -> f64 {
            let mut max_delta = 0.0f64;
            if self.lexicographic {
                for i in 0..t.len() {
                    let (lr, col) = (i / self.cols, i % self.cols);
                    let (layer, row) = (lr / self.rows, lr % self.rows);
                    let delta = self.relax_cell(t, b, inv_diag, omega, layer, row, col, track);
                    max_delta = max_delta.max(delta);
                }
                return max_delta;
            }
            for color in 0..2 {
                for lr in 0..self.model.layers().len() * self.rows {
                    max_delta =
                        max_delta.max(self.relax_line(t, b, inv_diag, omega, lr, color, track));
                }
            }
            max_delta
        }

        #[allow(clippy::too_many_arguments)]
        fn relax_line(
            &self,
            t: &mut [f64],
            b: &[f64],
            inv_diag: &[f64],
            omega: f64,
            lr: usize,
            color: usize,
            track: bool,
        ) -> f64 {
            let (rows, cols) = (self.rows, self.cols);
            let cells = rows * cols;
            let n_layers = self.model.layers().len();
            let (layer, row) = (lr / rows, lr % rows);
            let base = lr * cols;
            let parity = (color ^ (layer + row)) & 1;
            let mut maxd = 0.0f64;
            let interior = layer > 0 && layer + 1 < n_layers && row > 0 && row + 1 < rows;
            if interior && cols >= 3 {
                let (gx, gy) = (self.gx[layer], self.gy[layer]);
                let (gzm, gzp) = (self.gz[layer - 1], self.gz[layer]);
                if parity == 0 {
                    maxd = maxd.max(self.relax_cell(t, b, inv_diag, omega, layer, row, 0, track));
                }
                let mut col = if parity == 1 { 1 } else { 2 };
                while col + 1 < cols {
                    let i = base + col;
                    let num = b[i]
                        + gx * (t[i - 1] + t[i + 1])
                        + gy * (t[i - cols] + t[i + cols])
                        + gzm * t[i - cells]
                        + gzp * t[i + cells];
                    let old = t[i];
                    let updated = old + omega * (num * inv_diag[i] - old);
                    if track {
                        maxd = maxd.max((updated - old).abs());
                    }
                    t[i] = updated;
                    col += 2;
                }
                if (cols - 1) & 1 == parity && cols > 1 {
                    maxd = maxd.max(self.relax_cell(
                        t,
                        b,
                        inv_diag,
                        omega,
                        layer,
                        row,
                        cols - 1,
                        track,
                    ));
                }
            } else {
                let mut col = parity;
                while col < cols {
                    maxd = maxd.max(self.relax_cell(t, b, inv_diag, omega, layer, row, col, track));
                    col += 2;
                }
            }
            maxd
        }

        #[allow(clippy::too_many_arguments)]
        fn relax_cell(
            &self,
            t: &mut [f64],
            b: &[f64],
            inv_diag: &[f64],
            omega: f64,
            layer: usize,
            row: usize,
            col: usize,
            track: bool,
        ) -> f64 {
            let cells = self.rows * self.cols;
            let n_layers = self.model.layers().len();
            let i = (layer * self.rows + row) * self.cols + col;
            let mut num = b[i];
            if col > 0 {
                num += self.gx[layer] * t[i - 1];
            }
            if col + 1 < self.cols {
                num += self.gx[layer] * t[i + 1];
            }
            if row > 0 {
                num += self.gy[layer] * t[i - self.cols];
            }
            if row + 1 < self.rows {
                num += self.gy[layer] * t[i + self.cols];
            }
            if layer > 0 {
                num += self.gz[layer - 1] * t[i - cells];
            }
            if layer + 1 < n_layers {
                num += self.gz[layer] * t[i + cells];
            }
            let old = t[i];
            let updated = old + omega * (num * inv_diag[i] - old);
            t[i] = updated;
            if track {
                (updated - old).abs()
            } else {
                0.0
            }
        }
    }
}

/// A stack of `kinds` from the sink down: 0 passive silicon, 1 a d2d
/// bond interface, 2 an active silicon die (fed by the next power grid).
fn mixed_model(kinds: &[u8], r_sink: f64) -> StackModel {
    let mut next_grid = 0;
    let layers = kinds
        .iter()
        .map(|kind| match kind {
            0 => ModelLayer::passive(300e-6, Material::SILICON),
            1 => ModelLayer::passive(10e-6, Material::BOND_INTERFACE),
            _ => {
                next_grid += 1;
                ModelLayer::active(20e-6, Material::SILICON, next_grid - 1)
            }
        })
        .collect();
    StackModel::new(0.01, 0.01, layers, HeatSink { resistance_k_per_w: r_sink, ambient_k: 300.0 })
}

/// One power grid per active layer, each with a uniform floor and a
/// hotspot.
fn mixed_power(
    model: &StackModel,
    rows: usize,
    cols: usize,
    watts: &[(f64, f64)],
) -> Vec<PowerGrid> {
    (0..model.power_layer_count())
        .map(|die| {
            let (floor, hot) = watts[die % watts.len()];
            let mut g = PowerGrid::new(rows, cols, 0.01, 0.01);
            g.paint_rect(0.0, 0.0, 0.01, 0.01, floor);
            g.paint_rect(0.002, 0.003, 0.006, 0.007, hot);
            g
        })
        .collect()
}

fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len());
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        prop_assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{}: cell {} is {} vs reference {}",
            what,
            i,
            a,
            b
        );
    }
    Ok(())
}

fn layer_kinds() -> impl Strategy<Value = Vec<u8>> {
    // At least one active die; single-layer stacks included.
    (proptest::collection::vec(0u8..3, 0..6), 0usize..6).prop_map(|(mut kinds, at)| {
        kinds.insert(at.min(kinds.len()), 2);
        kinds
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn color_split_steady_solve_is_bit_identical_to_natural_layout(
        rows in prop_oneof![Just(1usize), Just(2), 1usize..9],
        cols in prop_oneof![Just(1usize), Just(2), 1usize..9],
        kinds in layer_kinds(),
        r_sink in 0.1f64..0.5,
        watts in proptest::collection::vec((0.0f64..20.0, 0.0f64..30.0), 1..4),
    ) {
        let model = mixed_model(&kinds, r_sink);
        let power = mixed_power(&model, rows, cols, &watts);
        let (want, want_sweeps) =
            reference::Reference::new(model.clone(), rows, cols).solve_steady(&power);
        let map = SteadySolver::new(model, rows, cols).solve_steady(&power).unwrap();
        assert_bits_eq(map.temps(), &want, &format!("{rows}x{cols} {kinds:?}"))?;
        prop_assert_eq!(map.solve_stats().sweeps, want_sweeps);
    }

    #[test]
    fn color_split_transient_steps_are_bit_identical_to_natural_layout(
        rows in prop_oneof![Just(1usize), Just(2), 1usize..9],
        cols in prop_oneof![Just(1usize), Just(2), 1usize..9],
        kinds in layer_kinds(),
        dts in proptest::collection::vec(1e-4f64..2e-2, 2..5),
        watts in proptest::collection::vec((0.0f64..20.0, 0.0f64..30.0), 1..4),
    ) {
        let model = mixed_model(&kinds, 0.25);
        let power = mixed_power(&model, rows, cols, &watts);
        let reference = reference::Reference::new(model.clone(), rows, cols);
        let mut want = vec![300.0; kinds.len() * rows * cols];
        let mut transient = TransientSolver::from_ambient(SteadySolver::new(model, rows, cols));
        for (step, &dt) in dts.iter().enumerate() {
            let want_sweeps = reference.step(&mut want, &power, dt);
            let stats = transient.step(&power, dt).unwrap();
            assert_bits_eq(transient.temps(), &want, &format!("{rows}x{cols} {kinds:?} step {step}"))?;
            prop_assert_eq!(stats.sweeps, want_sweeps);
        }
    }
}

/// A realistic-size stack next to the small random ones: odd-width
/// rows and three dies between bond layers.
#[test]
fn color_split_matches_natural_layout_on_a_wide_stack() {
    let (rows, cols) = (40, 37);
    let model = mixed_model(&[0, 2, 1, 2, 1, 2], 0.2);
    let power = mixed_power(&model, rows, cols, &[(15.0, 25.0), (10.0, 5.0)]);
    let (want, want_sweeps) =
        reference::Reference::new(model.clone(), rows, cols).solve_steady(&power);
    let map = SteadySolver::new(model, rows, cols).solve_steady(&power).unwrap();
    assert_bits_eq(map.temps(), &want, "wide stack").unwrap();
    assert_eq!(map.solve_stats().sweeps, want_sweeps);
}
