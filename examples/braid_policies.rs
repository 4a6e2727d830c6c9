//! Braid priority policies on a congested workload (paper Section 6.3).
//!
//! Schedules a parallel Ising-model instance under all seven policies
//! and prints the schedule-length-to-critical-path ratio and mesh
//! utilization — a single-application slice of Figure 6.
//!
//! Run with: `cargo run --release --example braid_policies`

use scq::apps::{ising, IsingParams};
use scq::braid::{schedule, BraidConfig, Policy};
use scq::ir::{DependencyDag, InteractionGraph};
use scq::layout::place;

fn main() {
    let circuit = ising(&IsingParams {
        spins: 64,
        trotter_steps: 4,
        ..Default::default()
    });
    let dag = DependencyDag::from_circuit(&circuit);
    let graph = InteractionGraph::from_circuit(&circuit);
    println!(
        "workload: {} ({} ops, {} qubits)",
        circuit.name(),
        circuit.len(),
        circuit.num_qubits()
    );
    println!();
    println!("policy    schedule/CP    mesh utilization    braids    adaptive    drops");
    for policy in Policy::ALL {
        let layout = place(&graph, policy.layout_strategy());
        let config = BraidConfig {
            policy,
            code_distance: 5,
            ..Default::default()
        };
        match schedule(&circuit, &dag, &layout, &config) {
            Ok(s) => println!(
                "{policy}      {:>8.2}      {:>12.1}%    {:>6}    {:>8}    {:>5}",
                s.schedule_to_cp_ratio(),
                s.mesh_utilization * 100.0,
                s.braids_placed,
                s.adaptive_routes,
                s.drops
            ),
            Err(e) => println!("{policy}      failed: {e}"),
        }
    }
    println!();
    println!("Policy 6 combines interleaving, optimized layout, and all priority");
    println!("metrics; the paper reports up to ~7x schedule-length reduction.");
}
