//! Differential oracle: the route-aware EPR fabric with unlimited link
//! capacity and uniform hop latency must reproduce the legacy
//! flow-level `simulate_epr_distribution` *exactly* — same peak live
//! pairs, same added latency, same stalls, same makespan — on
//! arbitrary demand traces and across the full window-size grid. This
//! mirrors the `schedule_reference` pattern the braid engine uses: the
//! old model is kept alive precisely so the new one can be proven
//! against it.

use proptest::prelude::*;
use scq_ir::{Circuit, DependencyDag, Gate};
use scq_mesh::{Coord, Topology};
use scq_teleport::{
    schedule_simd, simulate_epr_distribution, simulate_epr_on_fabric, window_sweep,
    DistributionPolicy, EprConfig, EprDemand, EprRequest, FabricEprConfig, PlanarMachine,
    SimdConfig,
};

const GRID_HEIGHT: u32 = 16;
const MAX_DISTANCE: u32 = 14;

/// Places a `(time, distance)` trace on a wide topology: demand `i`
/// runs along row `i % height`, so its route has exactly `distance`
/// hops.
fn requests_on_rows(trace: &[(u64, u32)]) -> (Vec<EprRequest>, Topology) {
    let topo = Topology::new(MAX_DISTANCE + 1, GRID_HEIGHT);
    let requests = trace
        .iter()
        .enumerate()
        .map(|(i, &(time, distance))| EprRequest {
            time,
            src: Coord::new(0, i as u32 % GRID_HEIGHT),
            dst: Coord::new(distance, i as u32 % GRID_HEIGHT),
        })
        .collect();
    (requests, topo)
}

fn arb_trace() -> impl Strategy<Value = Vec<(u64, u32)>> {
    proptest::collection::vec((0u64..400, 0u32..=MAX_DISTANCE), 1..150).prop_map(|mut raw| {
        raw.sort_by_key(|&(t, _)| t);
        raw
    })
}

fn arb_config() -> impl Strategy<Value = EprConfig> {
    (1u64..5, 1usize..40, 0u64..20).prop_map(|(hop_cycles, bandwidth, lead_slack_cycles)| {
        EprConfig {
            hop_cycles,
            bandwidth,
            lead_slack_cycles,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The headline oracle property: unlimited-capacity fabric ==
    /// legacy flow model, field for field, under every policy.
    #[test]
    fn fabric_matches_flow_model_exactly(trace in arb_trace(), config in arb_config(), window in 1usize..80) {
        let (requests, topo) = requests_on_rows(&trace);
        let demands: Vec<EprDemand> = trace
            .iter()
            .map(|&(time, distance)| EprDemand { time, distance })
            .collect();
        for policy in [
            DistributionPolicy::EagerPrefetch,
            DistributionPolicy::JustInTime { window },
        ] {
            let flow = simulate_epr_distribution(&demands, policy, &config);
            let fabric = simulate_epr_on_fabric(
                &requests,
                policy,
                &FabricEprConfig::unlimited(config),
                topo,
            );
            prop_assert_eq!(&fabric.pipeline, &flow, "policy {:?}", policy);
            prop_assert_eq!(fabric.link_stall_cycles, 0);
            prop_assert!(
                (fabric.latency_overhead() - flow.latency_overhead()).abs() < 1e-12
            );
        }
    }

    /// Constrained lanes can only delay: every flow-comparable metric
    /// is no better than the oracle's, and any makespan gap is
    /// explained by measured link stalls.
    #[test]
    fn contention_only_adds_latency(trace in arb_trace(), capacity in 1u32..4) {
        let (requests, topo) = requests_on_rows(&trace);
        let config = EprConfig::default();
        let policy = DistributionPolicy::JustInTime { window: 16 };
        let free = simulate_epr_on_fabric(
            &requests,
            policy,
            &FabricEprConfig::unlimited(config),
            topo,
        );
        let tight = simulate_epr_on_fabric(
            &requests,
            policy,
            &FabricEprConfig { epr: config, link_capacity: capacity },
            topo,
        );
        prop_assert!(tight.pipeline.makespan >= free.pipeline.makespan);
        prop_assert!(tight.pipeline.total_stall_cycles >= free.pipeline.total_stall_cycles);
        prop_assert!(tight.pipeline.peak_live_eprs >= free.pipeline.peak_live_eprs);
        if tight.pipeline.makespan > free.pipeline.makespan {
            prop_assert!(tight.link_stall_cycles > 0, "slower with no measured stalls");
        }
    }
}

/// Fig-style grid: a realistic Multi-SIMD demand trace swept over the
/// §8.1 window sizes must agree with the legacy `window_sweep` at every
/// grid point.
#[test]
fn window_grid_matches_flow_model_on_simd_trace() {
    let mut b = Circuit::builder("grid", 36);
    for layer in 0..12u32 {
        for q in 0..36 {
            b.h(q);
        }
        for q in 0..18 {
            b.try_push(Gate::Cnot, &[q, (q + 18 + layer) % 36]).unwrap();
        }
        for q in 0..36 {
            b.t(q);
        }
    }
    let circuit = b.finish();
    let dag = DependencyDag::from_circuit(&circuit);
    let simd = schedule_simd(&circuit, &dag, &SimdConfig::default());
    let machine = PlanarMachine::new(circuit.num_qubits(), None);
    let requests = machine.requests_for(&simd);
    assert!(requests.len() > 500, "need a real demand trace");

    // The legacy model sees the same trace as scalar distances (a
    // dimension-ordered route's hop count is the manhattan distance).
    let demands: Vec<EprDemand> = requests
        .iter()
        .map(|r| EprDemand {
            time: r.time,
            distance: r.src.manhattan(r.dst),
        })
        .collect();

    let config = EprConfig::default();
    let windows = [1usize, 4, 16, 64, 256, 1024];
    let flow_sweep = window_sweep(&demands, &windows, &config);
    for (&window, (w, flow)) in windows.iter().zip(flow_sweep) {
        assert_eq!(window, w);
        let fabric = simulate_epr_on_fabric(
            &requests,
            DistributionPolicy::JustInTime { window },
            &FabricEprConfig::unlimited(config),
            machine.topology,
        );
        assert_eq!(fabric.pipeline, flow, "window {window}");
    }
}
