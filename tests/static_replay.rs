//! The paper's soundness property (Section 6.1): the braid schedule the
//! dynamic simulation finds is *static* — it replays verbatim, without
//! conflicts, deadlock, or livelock, on the machine. These tests replay
//! the traced schedule of every benchmark and prove it conflict-free.

use scq::apps::Benchmark;
use scq::braid::{schedule_with, BraidConfig, BraidSchedule, BraidTrace, EventCollector, Policy};
use scq::ir::{Circuit, DependencyDag, InteractionGraph};
use scq::layout::place;

/// Schedules `circuit` with a recording sink and returns the schedule
/// with its replayable trace.
fn traced(circuit: &Circuit, config: &BraidConfig) -> (BraidSchedule, BraidTrace) {
    let dag = DependencyDag::from_circuit(circuit);
    let graph = InteractionGraph::from_circuit(circuit);
    let layout = place(&graph, config.policy.layout_strategy(), None);
    let mut sink = EventCollector::default();
    let stats = schedule_with(circuit, &dag, &layout, config, None, &mut sink).unwrap();
    let trace = sink.into_trace(&layout, circuit, &stats);
    (stats, trace)
}

fn trace_for(bench: Benchmark, policy: Policy) -> BraidTrace {
    let config = BraidConfig {
        policy,
        code_distance: 3,
        ..Default::default()
    };
    traced(&bench.small_circuit(), &config).1
}

#[test]
fn every_benchmark_schedule_replays_conflict_free() {
    for bench in Benchmark::ALL {
        let trace = trace_for(bench, Policy::P6);
        assert!(!trace.events.is_empty(), "{bench}: no braids traced");
        trace
            .validate()
            .unwrap_or_else(|e| panic!("{bench}: replay conflict: {e}"));
    }
}

#[test]
fn replay_holds_under_every_policy() {
    for policy in Policy::ALL {
        let trace = trace_for(Benchmark::IsingSemi, policy);
        trace
            .validate()
            .unwrap_or_else(|e| panic!("{policy}: replay conflict: {e}"));
    }
}

#[test]
fn trace_is_consistent_with_schedule_stats() {
    let config = BraidConfig {
        policy: Policy::P6,
        code_distance: 5,
        ..Default::default()
    };
    let (stats, trace) = traced(&Benchmark::Gse.small_circuit(), &config);
    assert_eq!(trace.events.len() as u64, stats.braids_placed);
    assert_eq!(trace.cycles, stats.cycles);
    let hops: u64 = trace.events.iter().map(|e| e.path.len_hops() as u64).sum();
    assert_eq!(hops, stats.total_braid_hops);
    // Every braid leg holds its route for exactly d + 1 cycles.
    assert!(trace.events.iter().all(|e| e.duration() == 6));
}

#[test]
fn congestion_heatmap_renders_for_real_workloads() {
    let trace = trace_for(Benchmark::IsingFull, Policy::P6);
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
