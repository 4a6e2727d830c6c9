//! The paper's soundness property (Section 6.1): the braid schedule the
//! dynamic simulation finds is *static* — it replays verbatim, without
//! conflicts, deadlock, or livelock, on the machine. These tests run
//! every benchmark through a certified braid pipeline, whose certifier
//! re-derives exclusivity from the trace's raw coordinates, and require
//! a clean certificate.

use scq::apps::Benchmark;
use scq::braid::{BraidSchedule, BraidTrace, Policy};
use scq::core::{ArtifactContext, PipelineRunner, ToolflowConfig};

/// One certified braid run of `bench`'s small instance under `policy`
/// at code distance `d`: the schedule and its trace, once the
/// certifier found nothing.
fn certified(bench: Benchmark, policy: Policy, d: u32) -> (BraidSchedule, BraidTrace) {
    let circuit = bench.small_circuit();
    let mut cx = ArtifactContext::new(bench, &circuit, ToolflowConfig::pinned(policy, d));
    let run = PipelineRunner::braid().certified().run(&mut cx);
    let findings = cx.findings();
    assert!(
        run.is_ok() && findings.is_empty(),
        "{bench} {policy}: {run:?} {findings:?}"
    );
    (
        cx.braid().cloned().unwrap(),
        cx.braid_trace().cloned().unwrap(),
    )
}

#[test]
fn every_benchmark_schedule_replays_conflict_free() {
    for bench in Benchmark::ALL {
        let (_, trace) = certified(bench, Policy::P6, 3);
        assert!(!trace.events.is_empty(), "{bench}: no braids traced");
    }
}

#[test]
fn replay_holds_under_every_policy() {
    for policy in Policy::ALL {
        certified(Benchmark::IsingSemi, policy, 3);
    }
}

#[test]
fn trace_is_consistent_with_schedule_stats() {
    let (stats, trace) = certified(Benchmark::Gse, Policy::P6, 5);
    assert_eq!(trace.events.len() as u64, stats.braids_placed);
    assert_eq!(trace.cycles, stats.cycles);
    let hops: u64 = trace.events.iter().map(|e| e.path.len_hops() as u64).sum();
    assert_eq!(hops, stats.total_braid_hops);
    // Every braid leg holds its route for exactly d + 1 cycles.
    assert!(trace.events.iter().all(|e| e.duration() == 6));
}

#[test]
fn congestion_heatmap_renders_for_real_workloads() {
    let (_, trace) = certified(Benchmark::IsingFull, Policy::P6, 3);
    let art = trace.render_heatmap();
    assert_eq!(
        art.lines().count() as u32,
        2 * trace.mesh_height - 1,
        "router rows + link rows"
    );
    assert!(
        trace.peak_concurrent_braids() > 1,
        "IM should braid in parallel"
    );
}
