//! Solved temperature fields and queries over them.

use crate::solve::SolveStats;
use std::fmt;

/// A solved temperature field: `layers × rows × cols` kelvin values.
#[derive(Clone, Debug, PartialEq)]
pub struct ThermalMap {
    rows: usize,
    cols: usize,
    layers: usize,
    width_m: f64,
    height_m: f64,
    /// Power-grid index of each layer (None = passive).
    power_index: Vec<Option<usize>>,
    temps: Vec<f64>,
    /// The work of the steady solve that produced the field.
    solve_stats: SolveStats,
}

/// A borrowed temperature field: the same queries as [`ThermalMap`]
/// without owning (or copying) the underlying kelvin values. Obtained
/// from [`ThermalMap::view`] or
/// [`crate::TransientSolver::view`] — the latter lets a control loop
/// inspect the live field every step without cloning it.
#[derive(Clone, Copy, Debug)]
pub struct MapView<'a> {
    rows: usize,
    cols: usize,
    layers: usize,
    width_m: f64,
    height_m: f64,
    power_index: &'a [Option<usize>],
    temps: &'a [f64],
}

impl<'a> MapView<'a> {
    pub(crate) fn new(
        rows: usize,
        cols: usize,
        layers: usize,
        width_m: f64,
        height_m: f64,
        power_index: &'a [Option<usize>],
        temps: &'a [f64],
    ) -> MapView<'a> {
        assert_eq!(temps.len(), rows * cols * layers, "temperature field shape");
        assert_eq!(power_index.len(), layers);
        MapView { rows, cols, layers, width_m, height_m, power_index, temps }
    }

    /// Grid rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stack layers.
    pub fn layer_count(&self) -> usize {
        self.layers
    }

    /// Raw temperatures, layer-major then row-major.
    pub fn temps(&self) -> &'a [f64] {
        self.temps
    }

    /// Temperature of cell `(layer, row, col)`, kelvin.
    pub fn temp_at(&self, layer: usize, row: usize, col: usize) -> f64 {
        self.temps[(layer * self.rows + row) * self.cols + col]
    }

    /// Hottest temperature anywhere in the stack.
    pub fn max_temp(&self) -> f64 {
        self.temps.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Index `(layer, row, col)` of the hottest cell.
    pub fn argmax(&self) -> (usize, usize, usize) {
        let (mut best, mut at) = (f64::NEG_INFINITY, 0);
        for (i, &t) in self.temps.iter().enumerate() {
            if t > best {
                best = t;
                at = i;
            }
        }
        let layer = at / (self.rows * self.cols);
        let rem = at % (self.rows * self.cols);
        (layer, rem / self.cols, rem % self.cols)
    }

    /// The stack layer carrying power grid `power_index` (die index).
    pub fn layer_of_power_index(&self, power_index: usize) -> Option<usize> {
        self.power_index.iter().position(|p| *p == Some(power_index))
    }

    /// Mean temperature of one layer.
    pub fn layer_mean(&self, layer: usize) -> f64 {
        let cells = self.rows * self.cols;
        let start = layer * cells;
        self.temps[start..start + cells].iter().sum::<f64>() / cells as f64
    }

    /// Hottest temperature in one layer.
    pub fn layer_max(&self, layer: usize) -> f64 {
        let cells = self.rows * self.cols;
        let start = layer * cells;
        self.temps[start..start + cells].iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Coolest temperature in one layer.
    pub fn layer_min(&self, layer: usize) -> f64 {
        let cells = self.rows * self.cols;
        let start = layer * cells;
        self.temps[start..start + cells].iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Hottest temperature within the rectangle `[x0,x1) × [y0,y1)`
    /// (metres) of one layer — used for per-block hotspot queries.
    /// Cells are selected by centre point; rectangles smaller than a cell
    /// still claim the cell containing them.
    pub fn max_in_rect(&self, layer: usize, x0: f64, y0: f64, x1: f64, y1: f64) -> f64 {
        let dx = self.width_m / self.cols as f64;
        let dy = self.height_m / self.rows as f64;
        let mut best = f64::NEG_INFINITY;
        for r in 0..self.rows {
            let cy = (r as f64 + 0.5) * dy;
            for c in 0..self.cols {
                let cx = (c as f64 + 0.5) * dx;
                let inside = cx >= x0 && cx < x1 && cy >= y0 && cy < y1;
                let claims = x0 >= c as f64 * dx
                    && x1 <= (c + 1) as f64 * dx
                    && y0 >= r as f64 * dy
                    && y1 <= (r + 1) as f64 * dy;
                if inside || claims {
                    best = best.max(self.temp_at(layer, r, c));
                }
            }
        }
        best
    }

    /// Renders one layer as an ASCII heat map with the given temperature
    /// range (kelvin). Characters run cold→hot through ` .:-=+*#%@`.
    pub fn render_layer(&self, layer: usize, t_min: f64, t_max: f64) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let span = (t_max - t_min).max(1e-9);
        let mut out = String::with_capacity((self.cols + 1) * self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                let t = self.temp_at(layer, r, c);
                let frac = ((t - t_min) / span).clamp(0.0, 1.0);
                let idx = (frac * (RAMP.len() - 1) as f64).round() as usize;
                out.push(RAMP[idx] as char);
            }
            out.push('\n');
        }
        out
    }

    /// An owning copy of the viewed field.
    pub fn to_map(&self) -> ThermalMap {
        ThermalMap::new(
            self.rows,
            self.cols,
            self.layers,
            self.width_m,
            self.height_m,
            self.power_index.to_vec(),
            self.temps.to_vec(),
        )
    }
}

impl ThermalMap {
    pub(crate) fn new(
        rows: usize,
        cols: usize,
        layers: usize,
        width_m: f64,
        height_m: f64,
        power_index: Vec<Option<usize>>,
        temps: Vec<f64>,
    ) -> ThermalMap {
        assert_eq!(temps.len(), rows * cols * layers, "temperature field shape");
        assert_eq!(power_index.len(), layers);
        let solve_stats = SolveStats::default();
        ThermalMap { rows, cols, layers, width_m, height_m, power_index, temps, solve_stats }
    }

    pub(crate) fn with_solve_stats(self, solve_stats: SolveStats) -> ThermalMap {
        ThermalMap { solve_stats, ..self }
    }

    /// The sweeps and final residual of the steady solve that produced
    /// this map (zero for maps copied from a view or a transient field).
    pub fn solve_stats(&self) -> SolveStats {
        self.solve_stats
    }

    /// A borrowed view with the same queries.
    pub fn view(&self) -> MapView<'_> {
        MapView {
            rows: self.rows,
            cols: self.cols,
            layers: self.layers,
            width_m: self.width_m,
            height_m: self.height_m,
            power_index: &self.power_index,
            temps: &self.temps,
        }
    }

    /// Grid rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stack layers.
    pub fn layer_count(&self) -> usize {
        self.layers
    }

    /// Raw temperatures, layer-major then row-major.
    pub fn temps(&self) -> &[f64] {
        &self.temps
    }

    /// Temperature of cell `(layer, row, col)`, kelvin.
    pub fn temp_at(&self, layer: usize, row: usize, col: usize) -> f64 {
        self.view().temp_at(layer, row, col)
    }

    /// Hottest temperature anywhere in the stack.
    pub fn max_temp(&self) -> f64 {
        self.view().max_temp()
    }

    /// Index `(layer, row, col)` of the hottest cell.
    pub fn argmax(&self) -> (usize, usize, usize) {
        self.view().argmax()
    }

    /// The stack layer carrying power grid `power_index` (die index).
    pub fn layer_of_power_index(&self, power_index: usize) -> Option<usize> {
        self.view().layer_of_power_index(power_index)
    }

    /// Mean temperature of one layer.
    pub fn layer_mean(&self, layer: usize) -> f64 {
        self.view().layer_mean(layer)
    }

    /// Hottest temperature in one layer.
    pub fn layer_max(&self, layer: usize) -> f64 {
        self.view().layer_max(layer)
    }

    /// Coolest temperature in one layer.
    pub fn layer_min(&self, layer: usize) -> f64 {
        self.view().layer_min(layer)
    }

    /// Hottest temperature within the rectangle `[x0,x1) × [y0,y1)`
    /// (metres) of one layer — used for per-block hotspot queries.
    /// Cells are selected by centre point; rectangles smaller than a cell
    /// still claim the cell containing them.
    pub fn max_in_rect(&self, layer: usize, x0: f64, y0: f64, x1: f64, y1: f64) -> f64 {
        self.view().max_in_rect(layer, x0, y0, x1, y1)
    }

    /// Renders one layer as an ASCII heat map with the given temperature
    /// range (kelvin). Characters run cold→hot through ` .:-=+*#%@`.
    pub fn render_layer(&self, layer: usize, t_min: f64, t_max: f64) -> String {
        self.view().render_layer(layer, t_min, t_max)
    }
}

impl fmt::Display for ThermalMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ThermalMap {}x{}x{}: max {:.1} K (layer {})",
            self.layers,
            self.rows,
            self.cols,
            self.max_temp(),
            self.argmax().0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ThermalMap {
        // 2 layers, 2x3 grid; layer 1 is the active one.
        let temps = vec![
            300.0, 301.0, 302.0, //
            303.0, 304.0, 305.0, //
            310.0, 311.0, 312.0, //
            313.0, 314.0, 320.0,
        ];
        ThermalMap::new(2, 3, 2, 0.003, 0.002, vec![None, Some(0)], temps)
    }

    #[test]
    fn indexing() {
        let m = sample();
        assert_eq!(m.temp_at(0, 0, 0), 300.0);
        assert_eq!(m.temp_at(1, 1, 2), 320.0);
        assert_eq!(m.max_temp(), 320.0);
        assert_eq!(m.argmax(), (1, 1, 2));
    }

    #[test]
    fn layer_stats() {
        let m = sample();
        assert!((m.layer_mean(0) - 302.5).abs() < 1e-12);
        assert_eq!(m.layer_max(1), 320.0);
        assert_eq!(m.layer_of_power_index(0), Some(1));
        assert_eq!(m.layer_of_power_index(1), None);
    }

    #[test]
    fn rect_query_picks_hot_corner() {
        let m = sample();
        // Bottom-right cell of layer 1: x in [0.002,0.003), y in [0.001,0.002).
        let t = m.max_in_rect(1, 0.002, 0.001, 0.003, 0.002);
        assert_eq!(t, 320.0);
        // Left column only.
        let t = m.max_in_rect(1, 0.0, 0.0, 0.001, 0.002);
        assert_eq!(t, 313.0);
    }

    #[test]
    fn tiny_rect_claims_containing_cell() {
        let m = sample();
        let t = m.max_in_rect(1, 0.00205, 0.00105, 0.0021, 0.0011);
        assert_eq!(t, 320.0);
    }

    #[test]
    fn render_shape_and_extremes() {
        let m = sample();
        let art = m.render_layer(1, 310.0, 320.0);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].len(), 3);
        assert!(art.contains('@'), "hottest cell should render as @");
        assert!(art.starts_with(' '), "coldest cell should render as space");
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn wrong_shape_rejected() {
        let _ = ThermalMap::new(2, 2, 2, 1.0, 1.0, vec![None, None], vec![0.0; 7]);
    }
}
