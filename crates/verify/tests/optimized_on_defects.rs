//! Congestion-aware placement on a defected planar machine: the
//! combination `schedule_planar_with` makes reachable. Over the fig6
//! apps at 2% sampled defects, every run must either fail with a
//! structured `CommError` or emit a schedule that certifies clean and
//! is never longer than the baseline floorplan's on the same map.

use scq_apps::{ising, sha1, square_root, Benchmark, IsingParams, Sha1Params, SqParams};
use scq_ir::{Circuit, DependencyDag};
use scq_mesh::{DefectMap, Topology};
use scq_teleport::{
    schedule_planar_with, BaselinePlacement, CongestionAwarePlacement, FabricRun, PlanarConfig,
    PlanarMachine,
};
use scq_verify::{certify_planar_schedule, Severity};

const DEFECT_RATE: f64 = 0.02;
const SEEDS: [u64; 3] = [20702, 7, 1234];

/// The fig6 application instances.
fn fig6_circuits() -> Vec<Circuit> {
    vec![
        Benchmark::Gse.default_circuit(),
        square_root(&SqParams {
            bits: 5,
            iterations: Some(3),
            target: 9,
        }),
        sha1(&Sha1Params {
            word_bits: 16,
            rounds: 8,
        }),
        ising(&IsingParams {
            spins: 64,
            trotter_steps: 4,
            ..Default::default()
        }),
    ]
}

#[test]
fn congestion_aware_placement_on_defects_certifies_and_never_loses_to_baseline() {
    let config = PlanarConfig {
        code_distance: 5,
        ..Default::default()
    };
    let mut certified = 0usize;
    for circuit in fig6_circuits() {
        let dag = DependencyDag::from_circuit(&circuit);
        let (gw, gh) = PlanarMachine::grid_dims(circuit.num_qubits());
        for seed in SEEDS {
            let label = format!("{} seed {seed}", circuit.name());
            let map = DefectMap::sample(Topology::new(gw, gh), DEFECT_RATE, seed);
            let run = FabricRun {
                defects: Some(&map),
                fault_seed: seed,
                transcript: true,
            };
            let optimized =
                schedule_planar_with(&circuit, &dag, &config, &CongestionAwarePlacement, &run);
            let baseline = schedule_planar_with(&circuit, &dag, &config, &BaselinePlacement, &run);
            let (schedule, transcript) = match optimized {
                Ok(out) => out,
                Err(e) => {
                    // A structured error, and the baseline floorplan the
                    // optimizer starts from fails the same way.
                    assert_eq!(baseline.err(), Some(e), "{label}");
                    continue;
                }
            };
            let transcript = transcript.expect("a transcript was requested");
            let findings =
                certify_planar_schedule(&schedule, &transcript, &circuit, &dag, Some(&map));
            assert!(
                findings.iter().all(|f| f.severity != Severity::Error),
                "{label}: {findings:?}"
            );
            let (base, _) = baseline.expect("the optimized floorplan's baseline schedules");
            assert!(
                schedule.epr.makespan <= base.epr.makespan,
                "{label}: optimized makespan {} exceeds baseline {}",
                schedule.epr.makespan,
                base.epr.makespan
            );
            assert!(schedule.cycles <= base.cycles, "{label}");
            certified += 1;
        }
    }
    assert!(certified > 0, "every point came back unroutable");
}
