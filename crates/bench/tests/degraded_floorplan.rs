//! Why SHA-1 runs faster on the planar backend at 2% defects than on
//! clean hardware (`BENCH_epr.json`'s degradation multiplier below 1):
//! the dead tiles move data tiles off the row-major floorplan, and that
//! moved floorplan, scheduled on a clean fabric, is exactly as fast. The
//! defects themselves never help.
//!
//! Each fig6 app is scheduled three times at `perf_report`'s degradation
//! point (d = 5, rate 0.02, seed 20702): clean, degraded, and the
//! replay — the degraded run's `PlanarMachine` on a clean `FabricRun`.

use scq_apps::Benchmark;
use scq_bench::{fig6_workloads, run_planar_on_defects, FixedFloorplan};
use scq_ir::DependencyDag;
use scq_teleport::{schedule_planar, schedule_planar_with, FabricRun, PlanarConfig};

const CODE_DISTANCE: u32 = 5;
const DEFECT_RATE: f64 = 0.02;
const DEFECT_SEED: u64 = 20702;

#[test]
fn the_degraded_floorplan_alone_explains_the_faster_row() {
    let config = PlanarConfig {
        code_distance: CODE_DISTANCE,
        ..Default::default()
    };
    for (bench, circuit) in fig6_workloads() {
        let dag = DependencyDag::from_circuit(&circuit);
        let clean = schedule_planar(&circuit, &dag, &config);
        let degraded = run_planar_on_defects(&circuit, CODE_DISTANCE, DEFECT_RATE, DEFECT_SEED)
            .unwrap_or_else(|e| panic!("{bench}: {e}"));
        let floorplan = FixedFloorplan(degraded.machine.clone());
        let (replay, _) =
            schedule_planar_with(&circuit, &dag, &config, &floorplan, &FabricRun::default())
                .unwrap_or_else(|e| panic!("{bench}: the replay schedules clean: {e}"));
        let row = format!(
            "{bench}: clean {}, degraded {}, replay {}",
            clean.cycles, degraded.cycles, replay.cycles
        );
        // The defect-only multiplier, degraded over replay, is >= 1.
        assert!(degraded.cycles >= replay.cycles, "{row}");
        if bench == Benchmark::Sha1 {
            let tiles = clean.machine.tiles.iter().zip(&degraded.machine.tiles);
            assert!(tiles.filter(|(a, b)| a != b).count() > 0, "{row}");
            assert_eq!(replay.cycles, degraded.cycles, "{row}");
            assert!(degraded.cycles < clean.cycles, "{row}");
        }
    }
}
