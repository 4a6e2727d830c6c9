//! Just-in-time EPR distribution (paper Section 8.1).
//!
//! Extracts the teleport demand trace of a SHA-1 instance from the
//! Multi-SIMD scheduler, then sweeps lookahead window sizes against the
//! eager-prefetch baseline: small windows starve teleports, large
//! windows flood the machine with live EPR pairs.
//!
//! Run with: `cargo run --release --example epr_pipelining`

use scq::apps::{sha1, Sha1Params};
use scq::ir::DependencyDag;
use scq::teleport::{
    schedule_simd, simulate_epr_distribution, DistributionPolicy, EprConfig, EprDemand,
};

fn main() {
    let circuit = sha1(&Sha1Params {
        word_bits: 16,
        rounds: 8,
    });
    let dag = DependencyDag::from_circuit(&circuit);
    let simd = schedule_simd(&circuit, &dag);
    let demands: Vec<EprDemand> = simd
        .teleport_times
        .iter()
        .map(|&t| EprDemand {
            time: t,
            distance: 8,
        })
        .collect();
    let config = EprConfig::default();

    println!(
        "workload: {} — {} teleports over {} timesteps",
        circuit.name(),
        demands.len(),
        simd.timesteps
    );

    let eager = simulate_epr_distribution(&demands, DistributionPolicy::EagerPrefetch, &config);
    println!(
        "\neager prefetch baseline: peak {} live EPR pairs, {:.1}% latency overhead",
        eager.peak_live_eprs,
        eager.latency_overhead() * 100.0
    );

    println!("\nwindow    peak live EPRs    qubit savings    latency overhead");
    for window in [1usize, 4, 16, 64, 128, 256, 512, 1024] {
        let jit =
            simulate_epr_distribution(&demands, DistributionPolicy::JustInTime { window }, &config);
        println!(
            "{window:>6}    {:>14}    {:>12.1}x    {:>15.2}%",
            jit.peak_live_eprs,
            eager.peak_live_eprs as f64 / jit.peak_live_eprs.max(1) as f64,
            jit.latency_overhead() * 100.0
        );
    }
    println!("\nThe paper reports up to ~24x qubit savings at <= ~4% added latency");
    println!("for well-chosen windows.");
}
