//! Sensitivity analysis (the paper's Section 7.3 methodology applied to
//! our model constants): how much do the Figure 9 crossover boundaries
//! move when the estimator's calibration knobs are perturbed?
//!
//! Knobs swept: the pipelining-exposure coefficient
//! `EstimateConfig::exposure_omega`, the ancilla-factory footprint ratio
//! (`EstimateConfig::factory`), and each profile's fabric-measured
//! teleport-congestion multiplier (`AppProfile::teleport_congestion`,
//! the residual JIT latency). A robust qualitative conclusion (parallel
//! apps cross later; boundaries slope down with error rate) should
//! survive factor-of-two perturbations in all of them.
//!
//! A fourth sweep leaves the estimator and runs the *schedulers* on
//! non-ideal hardware: a (defect-rate x app) grid on both backends,
//! reporting the makespan multiplier over the clean schedule (or a
//! structured `unroutable` when the sampled defects cut the machine
//! apart). This is the paper's comparison asked on degraded fabric.

use scq_apps::Benchmark;
use scq_bench::{run_planar_on_defects, run_policy_on_defects};
use scq_braid::Policy;
use scq_estimate::{AppProfile, EstimateConfig};
use scq_explore::crossover_size;
use scq_serve::parallel_map;
use scq_surface::FactoryConfig;

/// Defect rates for the scheduler-level degradation sweep.
const DEFECT_RATES: [f64; 4] = [0.0, 0.005, 0.02, 0.05];
/// Seed for defect sampling and transient faults (reproducible grid).
const DEFECT_SEED: u64 = 7301;
const CODE_DISTANCE: u32 = 5;

fn crossover(profile: &AppProfile, config: &EstimateConfig) -> String {
    match crossover_size(profile, config, (1.0, 1e24)) {
        Some(kq) => format!("{kq:>9.1e}"),
        None => format!("{:>9}", ">1e24"),
    }
}

fn main() {
    let apps = [Benchmark::Gse, Benchmark::Sha1, Benchmark::IsingFull];
    let profiles: Vec<AppProfile> = apps.iter().map(|&b| AppProfile::calibrate(b)).collect();
    let base = EstimateConfig::default();

    println!("Sensitivity of crossover boundaries (pP = 1e-8)\n");

    println!(
        "[omega] exposure coefficient (default {})",
        base.exposure_omega
    );
    println!("{:<20} {:>10} {:>10} {:>10}", "app", "x0.5", "x1", "x2");
    let rows = parallel_map(&profiles, |p| {
        let lo = EstimateConfig {
            exposure_omega: base.exposure_omega * 0.5,
            ..base
        };
        let hi = EstimateConfig {
            exposure_omega: base.exposure_omega * 2.0,
            ..base
        };
        (crossover(p, &lo), crossover(p, &base), crossover(p, &hi))
    });
    for (p, (lo, mid, hi)) in profiles.iter().zip(&rows) {
        println!("{:<20} {lo} {mid} {hi}", p.name);
    }

    println!("\n[factories] ancilla:data footprint (default 1:4)");
    println!("{:<20} {:>10} {:>10} {:>10}", "app", "1:8", "1:4", "1:2");
    let rows = parallel_map(&profiles, |p| {
        let mk = |ratio: f64| EstimateConfig {
            factory: FactoryConfig {
                ancilla_data_ratio: ratio,
                ..FactoryConfig::default()
            },
            ..base
        };
        (
            crossover(p, &mk(0.125)),
            crossover(p, &mk(0.25)),
            crossover(p, &mk(0.5)),
        )
    });
    for (p, (lo, mid, hi)) in profiles.iter().zip(&rows) {
        println!("{:<20} {lo} {mid} {hi}", p.name);
    }

    println!("\n[jit latency] measured teleport-congestion multiplier (fabric-calibrated)");
    println!(
        "{:<20} {:>10} {:>10} {:>10}",
        "app", "none", "measured", "x2 excess"
    );
    let rows = parallel_map(&profiles, |p| {
        let mk = |congestion: f64| {
            let mut perturbed = p.clone();
            perturbed.teleport_congestion = congestion;
            perturbed
        };
        // Perturb the measured multiplier: drop it to 1 (no residual
        // latency) and double its excess over 1.
        let excess = p.teleport_congestion - 1.0;
        (
            crossover(&mk(1.0), &base),
            crossover(p, &base),
            crossover(&mk(1.0 + 2.0 * excess), &base),
        )
    });
    for (p, (lo, mid, hi)) in profiles.iter().zip(&rows) {
        println!("{:<20} {lo} {mid} {hi}", p.name);
    }

    println!("\n[defects] scheduler makespan multiplier vs clean (seed {DEFECT_SEED})");
    println!(
        "{:<20} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "app / backend", "0%", "0.5%", "2%", "5%", ""
    );
    let grid: Vec<(Benchmark, &'static str)> = apps
        .iter()
        .flat_map(|&a| ["braid", "teleport"].into_iter().map(move |b| (a, b)))
        .collect();
    let rows = parallel_map(&grid, |&(app, backend)| {
        let circuit = app.default_circuit();
        let cells: Vec<String> = DEFECT_RATES
            .iter()
            .map(|&rate| {
                let makespan = match backend {
                    "braid" => run_policy_on_defects(
                        &circuit,
                        Policy::P6,
                        CODE_DISTANCE,
                        rate,
                        DEFECT_SEED,
                    )
                    .map(|s| s.cycles)
                    .map_err(|e| e.to_string()),
                    _ => run_planar_on_defects(&circuit, CODE_DISTANCE, rate, DEFECT_SEED)
                        .map(|s| s.cycles)
                        .map_err(|e| e.to_string()),
                };
                makespan
                    .map(|m| m.to_string())
                    .unwrap_or_else(|_| "unroutable".into())
            })
            .collect();
        cells
    });
    for ((app, backend), cells) in grid.iter().zip(&rows) {
        let clean: Option<f64> = cells[0].parse().ok();
        let rendered: Vec<String> = cells
            .iter()
            .map(|c| match (c.parse::<f64>().ok(), clean) {
                (Some(m), Some(base)) if base > 0.0 => format!("{:.2}x", m / base),
                _ => c.clone(),
            })
            .collect();
        println!(
            "{:<20} {:>9} {:>9} {:>9} {:>9}",
            format!("{} / {}", app.name(), backend),
            rendered[0],
            rendered[1],
            rendered[2],
            rendered[3],
        );
    }
    println!("\nA degraded fabric stretches schedules smoothly until the defect rate");
    println!("cuts the machine apart, at which point rows turn `unroutable` — a");
    println!("structured verdict, not a panic.");

    println!("\nThe qualitative ordering (serial << parallel) should hold in every");
    println!("column; boundary positions shifting by under ~2 decades per 2x knob");
    println!("change indicates the Figure 9 conclusions are calibration-robust.");
}
