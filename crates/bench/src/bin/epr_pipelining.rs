//! Regenerates the Section 8.1 study: just-in-time EPR distribution
//! window sizes vs peak live EPR pairs and added latency ("up to ~24X
//! savings in qubit cost and only a maximum of ~4% extra latency") —
//! now route-aware. Every demand is a located EPR half routed from its
//! factory tile over the shared fabric, so alongside the flow-level
//! window tradeoff the table reports the contention the flow model
//! cannot see: link-stall cycles and the latency added when swap lanes
//! saturate.
//!
//! The full (application x window) sweep grid fans out across OS
//! threads via `parallel_map`.

use scq_apps::Benchmark;
use scq_ir::DependencyDag;
use scq_mesh::FabricConfig;
use scq_serve::parallel_map;
use scq_teleport::{
    schedule_simd, simulate_epr_on_fabric, DistributionPolicy, EprConfig, EprRequest,
    FabricEprConfig, FabricEprResult, PlanarMachine, SimdConfig,
};

/// Swap lanes per tile boundary for the constrained (contended) runs.
const CONSTRAINED_LANES: u32 = 2;

struct Workload {
    bench: Benchmark,
    requests: Vec<EprRequest>,
    machine: PlanarMachine,
}

fn prepare(bench: Benchmark) -> Workload {
    let circuit = bench.small_circuit();
    let dag = DependencyDag::from_circuit(&circuit);
    let simd = schedule_simd(&circuit, &dag, &SimdConfig::default());
    let machine = PlanarMachine::new(circuit.num_qubits(), None);
    let requests = machine.requests_for(&simd);
    Workload {
        bench,
        requests,
        machine,
    }
}

fn main() {
    println!("Section 8.1: pipelined EPR distribution (route-aware fabric)");
    let epr = EprConfig::default();
    let windows = [1usize, 4, 16, 64, 256, 512, 1024, 2048];

    // Per-application preparation is serial (it is cheap relative to
    // the sweep); the (application x window x contention) grid fans out.
    let workloads: Vec<Workload> = Benchmark::TABLE2.iter().map(|&b| prepare(b)).collect();
    let grid: Vec<(usize, usize)> = (0..workloads.len())
        .flat_map(|w| (0..windows.len()).map(move |i| (w, i)))
        .collect();
    let results: Vec<(FabricEprResult, FabricEprResult)> = parallel_map(&grid, |&(w, i)| {
        let wl = &workloads[w];
        let policy = DistributionPolicy::JustInTime { window: windows[i] };
        let free = simulate_epr_on_fabric(
            &wl.requests,
            policy,
            &FabricEprConfig::unlimited(epr),
            wl.machine.topology,
        );
        let tight = simulate_epr_on_fabric(
            &wl.requests,
            policy,
            &FabricEprConfig {
                epr,
                link_capacity: CONSTRAINED_LANES,
            },
            wl.machine.topology,
        );
        (free, tight)
    });

    for (w, wl) in workloads.iter().enumerate() {
        let eager = simulate_epr_on_fabric(
            &wl.requests,
            DistributionPolicy::EagerPrefetch,
            &FabricEprConfig::unlimited(epr),
            wl.machine.topology,
        );
        println!(
            "\n== {} ({} teleports, eager-prefetch peak {} live pairs) ==",
            wl.bench.name(),
            wl.requests.len(),
            eager.pipeline.peak_live_eprs
        );
        println!(
            "{:>8} {:>12} {:>9} {:>10} | {:>14} {:>12}",
            "window", "peak live", "savings", "latency+", "lane stalls", "contention+"
        );
        let mut best: Option<(usize, f64)> = None;
        for (i, &window) in windows.iter().enumerate() {
            // Grid rows were generated workload-major, window-minor.
            let (free, tight) = &results[w * windows.len() + i];
            let savings =
                eager.pipeline.peak_live_eprs as f64 / free.pipeline.peak_live_eprs.max(1) as f64;
            // Latency the flow model would predict, and the extra the
            // constrained fabric measures on top of it.
            let contention_added =
                tight.pipeline.makespan as f64 / free.pipeline.makespan.max(1) as f64 - 1.0;
            println!(
                "{window:>8} {:>12} {savings:>8.1}x {:>9.2}% | {:>14} {:>11.2}%",
                free.pipeline.peak_live_eprs,
                free.latency_overhead() * 100.0,
                tight.link_stall_cycles,
                contention_added * 100.0
            );
            if free.latency_overhead() <= 0.05 && best.map(|(_, s)| savings > s).unwrap_or(true) {
                best = Some((window, savings));
            }
        }
        match best {
            Some((w, s)) => println!("best window <= 5% latency: {w} ({s:.1}x qubit savings)"),
            None => println!("no window met the 5% latency budget"),
        }
    }
    println!(
        "\n(lane stalls / contention+ columns: {CONSTRAINED_LANES} swap lanes per link vs \
         unlimited; capacity {} = flow model)",
        FabricConfig::UNLIMITED
    );
}
