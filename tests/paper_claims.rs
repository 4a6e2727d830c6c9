//! Integration tests pinning the paper's headline claims, table by
//! table and figure by figure (qualitative shape, not absolute values).

use scq::apps::{ising, Benchmark, IsingParams};
use scq::braid::{schedule, BraidConfig, Policy, TGateModel};
use scq::estimate::{AppProfile, EstimateConfig};
use scq::explore::crossover_size;
use scq::ir::{analysis, DependencyDag, InteractionGraph};
use scq::layout::place;
use scq::surface::{CommMethod, CostLevel, Encoding};
use scq::teleport::{
    schedule_simd, simulate_epr_distribution, DistributionPolicy, EprConfig, EprDemand, SimdConfig,
};

/// Table 1: the communication tradeoff matrix, verbatim.
#[test]
fn table1_tradeoffs() {
    let tele = CommMethod::for_encoding(Encoding::Planar);
    assert_eq!(tele, CommMethod::Teleportation);
    assert_eq!(tele.space_cost(), CostLevel::Low);
    assert_eq!(tele.time_cost(), CostLevel::High);
    assert!(tele.is_prefetchable());

    let braid = CommMethod::for_encoding(Encoding::DoubleDefect);
    assert_eq!(braid, CommMethod::Braiding);
    assert_eq!(braid.space_cost(), CostLevel::High);
    assert_eq!(braid.time_cost(), CostLevel::Low);
    assert!(!braid.is_prefetchable());
}

/// Table 2: measured parallelism factors sit near the paper's values
/// (GSE 1.2, SQ 1.5, SHA-1 29, IM 66).
#[test]
fn table2_parallelism_factors() {
    let bands = [
        (Benchmark::Gse, 1.0, 1.5),
        (Benchmark::SquareRoot, 1.2, 2.0),
        (Benchmark::Sha1, 18.0, 45.0),
        (Benchmark::IsingFull, 50.0, 80.0),
    ];
    for (bench, lo, hi) in bands {
        let pf = analysis::analyze(&bench.default_circuit()).parallelism_factor;
        assert!(
            pf > lo && pf < hi,
            "{bench}: parallelism {pf:.1} outside [{lo}, {hi}]"
        );
    }
}

fn braid_ratio(circuit: &scq::ir::Circuit, policy: Policy) -> f64 {
    let dag = DependencyDag::from_circuit(circuit);
    let graph = InteractionGraph::from_circuit(circuit);
    let layout = place(&graph, policy.layout_strategy());
    let config = BraidConfig {
        policy,
        code_distance: 3,
        t_gate_model: TGateModel::FactoryBraids,
        ..Default::default()
    };
    schedule(circuit, &dag, &layout, &config)
        .expect("schedule succeeds")
        .schedule_to_cp_ratio()
}

/// Figure 6, parallel applications: prioritization policies close most
/// of the gap between Policy 0 and the critical path.
#[test]
fn fig6_policies_fix_parallel_apps() {
    let circuit = ising(&IsingParams {
        spins: 32,
        trotter_steps: 2,
        ..Default::default()
    });
    let p0 = braid_ratio(&circuit, Policy::P0);
    let p6 = braid_ratio(&circuit, Policy::P6);
    assert!(p0 > 4.0, "policy 0 not congested enough: {p0:.2}");
    assert!(
        p6 < p0 / 2.0,
        "policy 6 ({p6:.2}) should at least halve policy 0 ({p0:.2})"
    );
    assert!(
        p6 < 4.0,
        "policy 6 should approach the critical path: {p6:.2}"
    );
}

/// Figure 6, serial applications: already near the critical path under
/// every policy ("low parallelism reduces the need for interference
/// optimization from the start").
#[test]
fn fig6_serial_apps_near_critical_path() {
    let circuit = Benchmark::Gse.small_circuit();
    for policy in Policy::ALL {
        let r = braid_ratio(&circuit, policy);
        assert!(r < 1.6, "{policy}: GSE ratio {r:.2} not near CP");
    }
}

/// Figure 6, red curve: better policies raise mesh utilization severalfold.
#[test]
fn fig6_utilization_rises_with_policy() {
    let circuit = ising(&IsingParams {
        spins: 32,
        trotter_steps: 2,
        ..Default::default()
    });
    let util = |policy: Policy| {
        let dag = DependencyDag::from_circuit(&circuit);
        let graph = InteractionGraph::from_circuit(&circuit);
        let layout = place(&graph, policy.layout_strategy());
        let config = BraidConfig {
            policy,
            code_distance: 3,
            ..Default::default()
        };
        schedule(&circuit, &dag, &layout, &config)
            .unwrap()
            .mesh_utilization
    };
    let u0 = util(Policy::P0);
    let u6 = util(Policy::P6);
    assert!(
        u6 > 3.0 * u0,
        "utilization should rise severalfold: {u0:.3} -> {u6:.3}"
    );
}

/// Figures 8/9: the serial application's crossover comes at a smaller
/// computation size than the parallel application's.
#[test]
fn fig8_crossover_ordering() {
    let cfg = EstimateConfig::default();
    let gse = crossover_size(&AppProfile::calibrate(Benchmark::Gse), &cfg, (1.0, 1e24))
        .expect("GSE crosses");
    let im = crossover_size(
        &AppProfile::calibrate(Benchmark::IsingFull),
        &cfg,
        (1.0, 1e24),
    );
    // IM never crossing at all would be an even stronger statement.
    if let Some(im) = im {
        assert!(
            gse * 100.0 < im,
            "IM crossover ({im:.1e}) should be orders of magnitude past GSE ({gse:.1e})"
        );
    }
}

/// Figure 9: the semi-inlined Ising variant sits below the fully
/// inlined one (more inlining -> more parallelism -> higher boundary).
#[test]
fn fig9_inlining_raises_boundary() {
    let cfg = EstimateConfig::default();
    let semi = crossover_size(
        &AppProfile::calibrate(Benchmark::IsingSemi),
        &cfg,
        (1.0, 1e24),
    );
    let full = crossover_size(
        &AppProfile::calibrate(Benchmark::IsingFull),
        &cfg,
        (1.0, 1e24),
    );
    match (semi, full) {
        (Some(s), Some(f)) => assert!(s < f, "semi {s:.1e} !< full {f:.1e}"),
        (Some(_), None) => {}
        other => panic!("unexpected: {other:?}"),
    }
}

/// Section 8.1: just-in-time EPR distribution saves an order of
/// magnitude of live EPR qubits at only a few percent added latency.
#[test]
fn epr_pipelining_tradeoff() {
    let circuit = Benchmark::Sha1.small_circuit();
    let dag = DependencyDag::from_circuit(&circuit);
    let simd = schedule_simd(&circuit, &dag, &SimdConfig::default());
    let demands: Vec<EprDemand> = simd
        .teleport_times
        .iter()
        .map(|&t| EprDemand {
            time: t,
            distance: 6,
        })
        .collect();
    assert!(demands.len() > 500, "need a real demand trace");
    let config = EprConfig::default();
    let eager = simulate_epr_distribution(&demands, DistributionPolicy::EagerPrefetch, &config);
    let jit = simulate_epr_distribution(
        &demands,
        DistributionPolicy::JustInTime { window: 512 },
        &config,
    );
    let savings = eager.peak_live_eprs as f64 / jit.peak_live_eprs.max(1) as f64;
    assert!(savings > 5.0, "EPR savings only {savings:.1}x");
    assert!(
        jit.latency_overhead() < 0.05,
        "latency overhead {:.1}% exceeds the paper's ~4%",
        jit.latency_overhead() * 100.0
    );
}

/// Section 3: communication-aware scheduling saves multiples of total
/// execution time on congested workloads.
#[test]
fn scheduling_saves_execution_time() {
    let circuit = ising(&IsingParams {
        spins: 32,
        trotter_steps: 2,
        ..Default::default()
    });
    let p0 = braid_ratio(&circuit, Policy::P0);
    let p6 = braid_ratio(&circuit, Policy::P6);
    let saving = p0 / p6;
    assert!(saving > 2.0, "only {saving:.1}x saving from scheduling");
}
