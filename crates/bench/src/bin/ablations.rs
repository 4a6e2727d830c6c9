//! Ablation studies for the major design choices:
//!
//! 1. **Layout**: interaction-aware placement vs naive/random, measured
//!    by braid schedule length and average braid length (Section 6.2).
//! 2. **Magic-state supply**: factory-braided vs locally-buffered T
//!    gates — how much of the braid traffic is ancilla delivery.
//! 3. **Adaptive routing**: the escalation ladder (XY -> YX -> adaptive
//!    search) vs dimension-ordered-only routing under congestion.
//! 4. **Lattice surgery**: why the third communication method was set
//!    aside (Section 8.2 unit costs).

#![warn(clippy::disallowed_methods)]

use scq_apps::{ising, IsingParams};
use scq_bench::or_die;
use scq_braid::{schedule, BraidConfig, Policy, TGateModel};
use scq_ir::{Circuit, DependencyDag, InteractionGraph};
use scq_layout::{place, LayoutStrategy};
use scq_mesh::FabricConfig;
use scq_serve::parallel_map;
use scq_surface::surgery::SurgeryCost;
use scq_teleport::{
    schedule_planar, schedule_planar_with, BaselinePlacement, CongestionAwarePlacement, FabricRun,
    PlacementStrategy, PlanarConfig,
};

fn workload() -> Circuit {
    ising(&IsingParams {
        spins: 48,
        trotter_steps: 3,
        ..Default::default()
    })
}

fn main() {
    let circuit = workload();
    let dag = DependencyDag::from_circuit(&circuit);
    let graph = InteractionGraph::from_circuit(&circuit);
    println!(
        "workload: {} ({} ops, {} qubits)\n",
        circuit.name(),
        circuit.len(),
        circuit.num_qubits()
    );

    // 1. Layout ablation (variants fan out in parallel).
    println!("[1] layout ablation (Policy 6, d = 5)");
    println!(
        "{:<22} {:>10} {:>12} {:>14}",
        "strategy", "cycles", "sched/CP", "avg braid hops"
    );
    let variants = [
        ("interaction-aware", LayoutStrategy::InteractionAware),
        ("linear (naive)", LayoutStrategy::Linear),
        ("random", LayoutStrategy::Random(7)),
    ];
    let results = parallel_map(&variants, |&(_, strategy)| {
        let layout = place(&graph, strategy);
        let config = BraidConfig {
            policy: Policy::P6,
            code_distance: 5,
            ..Default::default()
        };
        or_die(
            schedule(&circuit, &dag, &layout, &config),
            "braid scheduling",
        )
    });
    for ((name, _), s) in variants.iter().zip(&results) {
        println!(
            "{name:<22} {:>10} {:>12.2} {:>14.2}",
            s.cycles,
            s.schedule_to_cp_ratio(),
            s.avg_braid_hops()
        );
    }

    // 2. Magic-state supply ablation.
    println!("\n[2] T-gate supply ablation (Policy 6, d = 5)");
    println!(
        "{:<22} {:>10} {:>12} {:>10}",
        "model", "cycles", "braids", "sched/CP"
    );
    let variants = [
        ("factory braids", TGateModel::FactoryBraids),
        ("locally buffered", TGateModel::LocalBuffered),
    ];
    let results = parallel_map(&variants, |&(_, model)| {
        let layout = place(&graph, LayoutStrategy::InteractionAware);
        let config = BraidConfig {
            policy: Policy::P6,
            code_distance: 5,
            t_gate_model: model,
            ..Default::default()
        };
        or_die(
            schedule(&circuit, &dag, &layout, &config),
            "braid scheduling",
        )
    });
    for ((name, _), s) in variants.iter().zip(&results) {
        println!(
            "{name:<22} {:>10} {:>12} {:>10.2}",
            s.cycles,
            s.braids_placed,
            s.schedule_to_cp_ratio()
        );
    }

    // 3. Routing-escalation ablation: disable adaptivity by making the
    // timeouts unreachable.
    println!("\n[3] routing ablation (Policy 6, d = 5)");
    println!(
        "{:<22} {:>10} {:>12} {:>10}",
        "routing", "cycles", "adaptive", "drops"
    );
    let variants = [
        ("escalating (default)", 4u32, 16u32),
        ("dimension-order only", u32::MAX, u32::MAX),
    ];
    let results = parallel_map(&variants, |&(_, route_timeout, drop_timeout)| {
        let layout = place(&graph, LayoutStrategy::InteractionAware);
        let config = BraidConfig {
            policy: Policy::P6,
            code_distance: 5,
            route_timeout,
            drop_timeout,
            ..Default::default()
        };
        or_die(
            schedule(&circuit, &dag, &layout, &config),
            "braid scheduling",
        )
    });
    for ((name, _, _), s) in variants.iter().zip(&results) {
        println!(
            "{name:<22} {:>10} {:>12} {:>10}",
            s.cycles, s.adaptive_routes, s.drops
        );
    }

    // 4. Lattice surgery unit costs.
    println!("\n[4] lattice surgery vs alternatives (d = 5)");
    println!(
        "{:<12} {:>16} {:>12} {:>12}",
        "distance", "surgery cycles", "braid", "teleport"
    );
    for dist in [1u32, 2, 4, 8, 16] {
        let s = SurgeryCost::between(5, dist);
        println!("{dist:<12} {:>16} {:>12} {:>12}", s.cycles, 2 * (5 + 1), 3);
    }
    println!("\nSurgery cost grows with distance (no braid speed) and is paid at");
    println!("the point of use (no teleport prefetchability) — Section 8.2.");

    // 5. EPR fabric bandwidth ablation: the same workload scheduled on
    // the planar backend with progressively fewer swap lanes per link.
    // Unlimited capacity reproduces the flow-level model; constrained
    // lanes surface the contention it cannot express.
    println!("\n[5] EPR fabric bandwidth ablation (planar backend, d = 5)");
    println!(
        "{:<22} {:>10} {:>14} {:>14} {:>10}",
        "swap lanes/link", "cycles", "lane stalls", "hottest link", "sched/TS"
    );
    let variants = [
        ("unlimited (flow)", FabricConfig::UNLIMITED),
        ("8", 8u32),
        ("4 (default)", 4),
        ("2", 2),
        ("1", 1),
    ];
    let results = parallel_map(&variants, |&(_, link_capacity)| {
        let config = PlanarConfig {
            code_distance: 5,
            link_capacity,
            ..Default::default()
        };
        schedule_planar(&circuit, &dag, &config)
    });
    for ((name, _), planar) in variants.iter().zip(&results) {
        println!(
            "{name:<22} {:>10} {:>14} {:>14} {:>10.2}",
            planar.cycles,
            planar.link_stall_cycles,
            planar.hottest_link_busy_cycles,
            planar.cycles as f64 / planar.timesteps.max(1) as f64
        );
    }
    println!("\nFewer lanes -> more queued EPR halves -> measured added latency;");
    println!("the flow-level row is the legacy model's blind spot.");

    // 6. Placement ablation: the same workload under tight swap lanes,
    // scheduled with the baseline row-major floorplan versus the
    // congestion-aware profile-then-place loop (fabric heatmap feeding
    // back into data-tile positions). Only strictly improving moves are
    // accepted, so the optimized row can never be worse.
    println!("\n[6] placement ablation (planar backend, d = 5, 2 swap lanes/link)");
    println!(
        "{:<22} {:>10} {:>14} {:>14}",
        "placement", "cycles", "lane stalls", "hottest link"
    );
    let planar_config = PlanarConfig {
        code_distance: 5,
        link_capacity: 2,
        ..Default::default()
    };
    let strategies: [(&str, &dyn PlacementStrategy); 2] = [
        ("baseline (row-major)", &BaselinePlacement),
        ("congestion-aware", &CongestionAwarePlacement),
    ];
    let mut rows = Vec::new();
    for (name, strategy) in strategies {
        let (s, _) = or_die(
            schedule_planar_with(
                &circuit,
                &dag,
                &planar_config,
                strategy,
                &FabricRun::default(),
            ),
            name,
        );
        println!(
            "{name:<22} {:>10} {:>14} {:>14}",
            s.cycles, s.link_stall_cycles, s.hottest_link_busy_cycles
        );
        rows.push(s);
    }
    assert!(
        rows[1].cycles <= rows[0].cycles && rows[1].link_stall_cycles <= rows[0].link_stall_cycles,
        "congestion-aware placement regressed the baseline"
    );
    println!("\nThe optimizer re-profiles the fabric after every accepted move and");
    println!("only keeps moves that improve (makespan, lane stalls) — closing the");
    println!("heatmap -> placement feedback loop.");
}
