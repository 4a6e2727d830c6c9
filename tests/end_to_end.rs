//! End-to-end integration tests: the full toolflow across all
//! benchmarks, exercising every crate in one pipeline.

use scq::apps::Benchmark;
use scq::core::{run_toolflow, ArtifactContext, PipelineRunner, ToolflowConfig, ToolflowError};
use scq::ir::Circuit;
use scq::surface::{Encoding, Technology};

#[test]
fn toolflow_runs_every_benchmark() {
    let config = ToolflowConfig::default();
    for bench in Benchmark::ALL {
        let report = run_toolflow(bench, &config).unwrap_or_else(|e| panic!("{bench} failed: {e}"));
        // Schedules are bounded below by their dependency structure.
        assert!(
            report.braid.cycles >= report.braid.critical_path_cycles,
            "{bench}: braid schedule beats critical path"
        );
        assert!(
            report.planar.cycles >= report.planar.timesteps,
            "{bench}: planar schedule beats SIMD timesteps"
        );
        // Code distance fits the computation size on optimistic tech.
        assert!(
            (3..=15).contains(&report.code_distance),
            "{bench}: implausible d = {}",
            report.code_distance
        );
        // Estimates exist and are positive.
        assert!(report.estimates.0.physical_qubits > 0.0);
        assert!(report.estimates.1.physical_qubits > 0.0);
        // Layout covers the circuit.
        assert!(report.layout.num_qubits() >= report.stats.num_qubits as usize);
    }
}

#[test]
fn toolflow_is_deterministic() {
    let config = ToolflowConfig::default();
    let a = run_toolflow(Benchmark::Gse, &config).unwrap();
    let b = run_toolflow(Benchmark::Gse, &config).unwrap();
    assert_eq!(a.braid.cycles, b.braid.cycles);
    assert_eq!(a.planar.cycles, b.planar.cycles);
    assert_eq!(a.code_distance, b.code_distance);
    assert_eq!(a.layout.tiles(), b.layout.tiles());
}

#[test]
fn small_instances_prefer_planar() {
    // Paper Section 7.2: at small computation sizes planar always wins.
    let config = ToolflowConfig::default();
    for bench in Benchmark::ALL {
        let report = run_toolflow(bench, &config).unwrap();
        assert_eq!(
            report.recommended_encoding(),
            Encoding::Planar,
            "{bench}: small instance should favor planar"
        );
    }
}

#[test]
fn faultier_technology_needs_larger_distance() {
    let optimistic = ToolflowConfig::default();
    let current = ToolflowConfig {
        technology: Technology::superconducting_current(),
        ..Default::default()
    };
    // SQ's small instance has enough ops (~5k) that the logical error
    // target separates the two technologies.
    let d_opt = run_toolflow(Benchmark::SquareRoot, &optimistic)
        .unwrap()
        .code_distance;
    let d_cur = run_toolflow(Benchmark::SquareRoot, &current)
        .unwrap()
        .code_distance;
    assert!(d_cur > d_opt, "d {d_cur} !> {d_opt}");
}

#[test]
fn above_threshold_reports_threshold_error() {
    let config = ToolflowConfig {
        technology: Technology::default().with_error_rate(0.03),
        ..Default::default()
    };
    match run_toolflow(Benchmark::Gse, &config) {
        Err(ToolflowError::Threshold(e)) => {
            assert!(e.p_physical > e.p_threshold || e.p_physical >= 0.01)
        }
        other => panic!("expected threshold error, got {other:?}"),
    }
}

#[test]
fn custom_circuits_flow_through() {
    // A GHZ ladder defined by hand, not by the benchmark suite.
    let mut b = Circuit::builder("ghz-ladder", 10);
    b.h(0);
    for i in 0..9 {
        b.cnot(i, i + 1);
    }
    for i in 0..10 {
        b.meas_z(i);
    }
    let c = b.finish();
    let mut cx = ArtifactContext::for_circuit(&c, ToolflowConfig::default());
    PipelineRunner::schedules().run(&mut cx).unwrap();
    let stats = cx.stats().unwrap();
    assert_eq!(stats.total_ops, 20);
    assert_eq!(stats.num_qubits, 10);
    assert!(cx.braid().unwrap().braids_placed >= 18); // 9 cnots x 2 legs
}

#[test]
fn scaled_instances_grow_costs() {
    let small = ToolflowConfig {
        scale: Some(0),
        ..Default::default()
    };
    let large = ToolflowConfig {
        scale: Some(1),
        ..Default::default()
    };
    let a = run_toolflow(Benchmark::Gse, &small).unwrap();
    let b = run_toolflow(Benchmark::Gse, &large).unwrap();
    assert!(b.stats.total_ops > a.stats.total_ops);
    assert!(b.braid.cycles > a.braid.cycles);
}
