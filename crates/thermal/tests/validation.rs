//! Physics validation of the thermal solver against closed-form
//! solutions and qualitative laws.

use th_thermal::{
    Material, ModelLayer, PowerGrid, StackModel, SteadySolver, TransientSolver,
};

const W: f64 = 0.008;
const H: f64 = 0.008;

fn uniform_power(rows: usize, watts: f64) -> Vec<PowerGrid> {
    let mut g = PowerGrid::new(rows, rows, W, H);
    g.paint_rect(0.0, 0.0, W, H, watts);
    vec![g]
}

/// A two-material composite slab under uniform power matches the series
/// thermal-resistance formula.
#[test]
fn composite_slab_series_resistance() {
    let rows = 6;
    let watts = 20.0;
    let r_sink = 0.4;
    let model = StackModel::new(
        W,
        H,
        vec![
            ModelLayer::passive(400e-6, Material::COPPER),
            ModelLayer::passive(100e-6, Material::TIM_ALLOY),
            ModelLayer::active(2e-6, Material::SILICON, 0),
        ],
        th_thermal::HeatSink { resistance_k_per_w: r_sink, ambient_k: 300.0 },
    );
    let solver = SteadySolver::new(model, rows, rows);
    let map = solver.solve_steady(&uniform_power(rows, watts)).unwrap();

    let area = W * H;
    // Series path between cell centres: ½ copper + full TIM + ½ active
    // (the sink boundary attaches at the copper layer's centre).
    let r_series = (400e-6 / 2.0) / (Material::COPPER.k_vertical * area)
        + 100e-6 / (Material::TIM_ALLOY.k_vertical * area)
        + (2e-6 / 2.0) / (Material::SILICON.k_vertical * area);
    let expected_top = 300.0 + watts * r_sink;
    let expected_active = expected_top + watts * r_series;
    assert!((map.layer_mean(0) - expected_top).abs() < 0.05);
    assert!(
        (map.layer_mean(2) - expected_active).abs() < 0.1,
        "active {:.3} vs analytic {expected_active:.3}",
        map.layer_mean(2)
    );
}

/// Doubling the sink resistance doubles the uniform-power rise.
#[test]
fn sink_resistance_scaling() {
    let rows = 5;
    let peak_at = |r_sink: f64| {
        let model = StackModel::new(
            W,
            H,
            vec![ModelLayer::active(2e-6, Material::SILICON, 0)],
            th_thermal::HeatSink { resistance_k_per_w: r_sink, ambient_k: 300.0 },
        );
        SteadySolver::new(model, rows, rows)
            .solve_steady(&uniform_power(rows, 10.0))
            .unwrap()
            .max_temp()
    };
    let rise1 = peak_at(0.2) - 300.0;
    let rise2 = peak_at(0.4) - 300.0;
    assert!((rise2 / rise1 - 2.0).abs() < 1e-6, "ratio {}", rise2 / rise1);
}

/// An anisotropic interface (conducts vertically, insulates laterally)
/// must produce a sharper hotspot than an isotropic one of the same
/// vertical conductivity.
#[test]
fn lateral_insulation_sharpens_hotspots() {
    let rows = 11;
    let peak_with = |material: Material| {
        let model = StackModel::new(
            W,
            H,
            vec![
                ModelLayer::passive(300e-6, Material::SILICON),
                ModelLayer::passive(20e-6, material),
                ModelLayer::active(2e-6, Material::SILICON, 0),
            ],
            Default::default(),
        );
        let mut g = PowerGrid::new(rows, rows, W, H);
        g.paint_rect(W * 0.4, H * 0.4, W * 0.6, H * 0.6, 15.0); // centre hotspot
        SteadySolver::new(model, rows, rows)
            .solve_steady(&[g])
            .unwrap()
            .max_temp()
    };
    let aniso = Material {
        name: "aniso",
        k_vertical: 25.0,
        k_lateral: 0.5,
        heat_capacity: 1e6,
    };
    let iso = Material::isotropic("iso", 25.0, 1e6);
    assert!(
        peak_with(aniso) > peak_with(iso) + 0.01,
        "lateral insulation must trap the hotspot"
    );
}

/// The transient time constant has the right magnitude: a package-scale
/// RC of `C_total × R_sink` (hundreds of ms for silicon + spreader).
#[test]
fn transient_time_constant_magnitude() {
    let rows = 5;
    let thickness = 500e-6;
    let r_sink = 0.3;
    let model = StackModel::new(
        W,
        H,
        vec![ModelLayer::active(thickness, Material::SILICON, 0)],
        th_thermal::HeatSink { resistance_k_per_w: r_sink, ambient_k: 300.0 },
    );
    let solver = SteadySolver::new(model, rows, rows);
    let power = uniform_power(rows, 10.0);
    let steady =
        solver.solve_steady(&power).unwrap().max_temp() - 300.0;

    // Analytic single-RC time constant.
    let c_total = Material::SILICON.heat_capacity * thickness * W * H;
    let tau = c_total * r_sink;

    // Integrate to exactly one time constant; expect ≈63% of the rise.
    let mut tr = TransientSolver::from_ambient(solver);
    let steps = 50;
    for _ in 0..steps {
        tr.step(&power, tau / steps as f64).unwrap();
    }
    let frac = (tr.current_map().max_temp() - 300.0) / steady;
    assert!(
        (frac - 0.63).abs() < 0.06,
        "after one tau the rise should be ~63%, got {frac:.3}"
    );
}

/// Solves are deterministic: identical inputs give bit-identical fields.
#[test]
fn solver_determinism() {
    let rows = 9;
    let model = StackModel::new(
        W,
        H,
        vec![
            ModelLayer::passive(300e-6, Material::SILICON),
            ModelLayer::active(2e-6, Material::SILICON, 0),
        ],
        Default::default(),
    );
    let mut g = PowerGrid::new(rows, rows, W, H);
    g.paint_rect(0.001, 0.002, 0.005, 0.007, 17.5);
    let a = SteadySolver::new(model.clone(), rows, rows)
        .solve_steady(&[g.clone()])
        .unwrap();
    let b = SteadySolver::new(model, rows, rows)
        .solve_steady(&[g])
        .unwrap();
    assert_eq!(a.temps(), b.temps());
}

/// Energy balance: in steady state, the heat leaving through the sink
/// equals the power injected (computed from the sink-boundary cells).
#[test]
fn steady_state_energy_balance() {
    let rows = 8;
    let watts = 42.0;
    let r_sink = 0.25;
    let ambient = 305.0;
    let model = StackModel::new(
        W,
        H,
        vec![
            ModelLayer::passive(500e-6, Material::SILICON),
            ModelLayer::active(2e-6, Material::SILICON, 0),
        ],
        th_thermal::HeatSink { resistance_k_per_w: r_sink, ambient_k: ambient },
    );
    let solver = SteadySolver::new(model, rows, rows);
    let mut g = PowerGrid::new(rows, rows, W, H);
    g.paint_rect(0.0, 0.0, W / 2.0, H, watts); // asymmetric injection
    let map = solver.solve_steady(&[g]).unwrap();

    // Each top-layer cell drains (T - ambient) / (R_sink × N) watts.
    let n = (rows * rows) as f64;
    let mut outflow = 0.0;
    for r in 0..rows {
        for c in 0..rows {
            outflow += (map.temp_at(0, r, c) - ambient) / (r_sink * n);
        }
    }
    assert!(
        (outflow - watts).abs() < 0.01 * watts,
        "outflow {outflow:.3} W vs injected {watts} W"
    );
}
