//! Determinism suite for the event-driven braid scheduler: on every
//! Figure 6 workload under every policy, the fast path must produce a
//! `BraidSchedule` bit-identical to the retained naive-stepping
//! reference — same cycles, braids_placed, adaptive_routes, drops,
//! total_braid_hops, and mesh utilization.
//!
//! (Trace-level equivalence on randomized circuits is covered by
//! `scq-braid`'s differential tests; this suite pins the paper-scale
//! workloads.)

use scq_bench::{
    fig6_workloads, run_planar_on_defects, run_policy, run_policy_on_defects, run_policy_reference,
};
use scq_braid::Policy;
use scq_core::{ArtifactContext, PipelineRunner, ToolflowConfig};
use scq_ir::{Circuit, DependencyDag};
use scq_serve::parallel_map;
use scq_teleport::{schedule_planar, PlanarConfig};

const CODE_DISTANCE: u32 = 5;

/// The findings of a certified run of `runner` on `circuit` under
/// `policy`, each prefixed with `what`.
fn certified(circuit: &Circuit, policy: Policy, runner: PipelineRunner, what: &str) -> Vec<String> {
    let config = ToolflowConfig::pinned(policy, CODE_DISTANCE);
    let mut cx = ArtifactContext::for_circuit(circuit, config);
    runner
        .certified()
        .run(&mut cx)
        .expect("figure 6 workloads schedule cleanly");
    cx.findings()
        .iter()
        .map(|(_, f)| format!("{what}: {f}"))
        .collect()
}

#[test]
fn fast_path_matches_reference_on_fig6_grid() {
    let workloads = fig6_workloads();
    let points: Vec<(usize, Policy)> = (0..workloads.len())
        .flat_map(|w| Policy::ALL.iter().map(move |&p| (w, p)))
        .collect();
    // Fan the grid out; each point runs both engines and compares.
    let mismatches: Vec<String> = parallel_map(&points, |&(w, policy)| {
        let (bench, circuit) = &workloads[w];
        let fast = run_policy(circuit, policy, CODE_DISTANCE);
        let naive = run_policy_reference(circuit, policy, CODE_DISTANCE);
        if fast == naive {
            None
        } else {
            Some(format!(
                "{} under {policy}: fast {fast:?} != reference {naive:?}",
                bench.name()
            ))
        }
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// The fault layer's empty-map contract on the braid backend: a rate-0
/// sampled `DefectMap` must leave every fig6 schedule bit-identical to
/// the clean path under every policy.
#[test]
fn empty_defect_map_braid_schedules_match_clean_on_fig6_grid() {
    let workloads = fig6_workloads();
    let points: Vec<(usize, Policy)> = (0..workloads.len())
        .flat_map(|w| Policy::ALL.iter().map(move |&p| (w, p)))
        .collect();
    let mismatches: Vec<String> = parallel_map(&points, |&(w, policy)| {
        let (bench, circuit) = &workloads[w];
        let clean = run_policy(circuit, policy, CODE_DISTANCE);
        let defected = run_policy_on_defects(circuit, policy, CODE_DISTANCE, 0.0, 424242)
            .expect("rate-0 runs schedule cleanly");
        if clean == defected {
            None
        } else {
            Some(format!(
                "{} under {policy}: empty defect map perturbed the schedule",
                bench.name()
            ))
        }
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// Bit-identical is necessary but not sufficient — both engines could
/// share a wrong exclusivity rule. The independent certifier closes
/// that gap: every fig6 braid trace must replay without a single
/// finding from the interval race detector.
#[test]
fn braid_traces_certify_clean_on_fig6_grid() {
    let workloads = fig6_workloads();
    let points: Vec<(usize, Policy)> = (0..workloads.len())
        .flat_map(|w| Policy::ALL.iter().map(move |&p| (w, p)))
        .collect();
    let violations: Vec<String> = parallel_map(&points, |&(w, policy)| {
        let (bench, circuit) = &workloads[w];
        let what = format!("{} under {policy}", bench.name());
        certified(circuit, policy, PipelineRunner::braid(), &what)
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(violations.is_empty(), "{}", violations.join("\n"));
}

/// The planar counterpart: every fig6 schedule's EPR transcript must
/// replay clean through the independent hop/lane/dependency certifier.
#[test]
fn planar_schedules_certify_clean_on_fig6_workloads() {
    let workloads = fig6_workloads();
    let violations: Vec<String> = parallel_map(&workloads, |(bench, circuit)| {
        certified(circuit, Policy::P6, PipelineRunner::planar(), bench.name())
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(violations.is_empty(), "{}", violations.join("\n"));
}

/// The same contract on the planar backend: a rate-0 map must be
/// bit-identical to `schedule_planar` on every fig6 workload.
#[test]
fn empty_defect_map_planar_schedules_match_clean_on_fig6_workloads() {
    let workloads = fig6_workloads();
    let mismatches: Vec<String> = parallel_map(&workloads, |(bench, circuit)| {
        let dag = DependencyDag::from_circuit(circuit);
        let clean = schedule_planar(
            circuit,
            &dag,
            &PlanarConfig {
                code_distance: CODE_DISTANCE,
                ..Default::default()
            },
        );
        let defected = run_planar_on_defects(circuit, CODE_DISTANCE, 0.0, 424242)
            .expect("rate-0 runs schedule cleanly");
        if clean == defected {
            None
        } else {
            Some(format!(
                "{}: empty defect map perturbed the planar schedule",
                bench.name()
            ))
        }
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
