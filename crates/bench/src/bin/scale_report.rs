//! Scale-tier proof of the shared event core: races the calendar-queue
//! fabric against its `BinaryHeap`-backed twin on demand traces 10–100x
//! the fig6 grid (multi-block SHA-1, wider Ising, SQ chains, code
//! distances up to 21) and writes `BENCH_scale.json`.
//!
//! Every point asserts the two event cores produce a **bit-identical**
//! [`scq_teleport::FabricEprResult`] before timing counts — events
//! processed, peak queue depth, makespan, heatmap, everything — so the
//! A/B ratio compares *the same answer*. Timings are the median of
//! three runs per side (`runs_per_point`).
//!
//! `--reduced` shrinks the replication factors for CI while keeping
//! every point at >= 10x fig6 scale; `bench_guard` then enforces the
//! events/sec floor and the calendar-never-slower ratio ceiling on the
//! regenerated report.

#![warn(clippy::disallowed_methods)]

use std::fmt::Write as _;

use scq_bench::{scale_workloads, timed_median3, write_report, ScaleWorkload};
use scq_teleport::{
    simulate_epr_on_fabric, simulate_epr_on_heap_fabric, DistributionPolicy, FabricEprResult,
};

/// Timed runs per side of every A/B point (the median is reported).
const RUNS_PER_POINT: usize = 3;

/// One measured A/B point of the scale tier.
struct ScalePoint {
    name: String,
    requests: usize,
    scale_vs_fig6: f64,
    events: u64,
    peak_event_queue: usize,
    makespan: u64,
    calendar_secs: f64,
    heap_secs: f64,
}

impl ScalePoint {
    /// Calendar wall-clock over heap wall-clock: <= 1.0 means the
    /// calendar queue is no slower on this point.
    fn ab_ratio(&self) -> f64 {
        self.calendar_secs / self.heap_secs.max(1e-12)
    }

    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.calendar_secs.max(1e-12)
    }
}

fn measure(w: &ScaleWorkload, policy: DistributionPolicy) -> ScalePoint {
    let (cal, calendar_secs): (FabricEprResult, f64) =
        timed_median3(|| simulate_epr_on_fabric(&w.requests, policy, &w.config, w.topology));
    let (heap, heap_secs) =
        timed_median3(|| simulate_epr_on_heap_fabric(&w.requests, policy, &w.config, w.topology));
    assert_eq!(
        cal, heap,
        "{}: calendar and heap event cores diverged — the ordering contract is broken",
        w.name
    );
    ScalePoint {
        name: w.name.clone(),
        requests: w.requests.len(),
        scale_vs_fig6: w.scale_vs_fig6,
        events: cal.events_processed,
        peak_event_queue: cal.peak_event_queue,
        makespan: cal.pipeline.makespan,
        calendar_secs,
        heap_secs,
    }
}

fn main() {
    let reduced = std::env::args().any(|a| a == "--reduced");
    let policy = DistributionPolicy::JustInTime { window: 64 };
    let workloads = scale_workloads(reduced);
    let points: Vec<ScalePoint> = workloads.iter().map(|w| measure(w, policy)).collect();

    println!(
        "Event-core scale report ({} grid, JIT window 64, median of {RUNS_PER_POINT} runs)",
        if reduced { "reduced" } else { "full" }
    );
    println!();
    println!(
        "{:<16} {:>9} {:>7} {:>10} {:>10} {:>10} {:>10} {:>7} {:>12}",
        "point", "requests", "scale", "events", "peak q", "calendar", "heap", "ratio", "events/s"
    );
    for p in &points {
        println!(
            "{:<16} {:>9} {:>6.1}x {:>10} {:>10} {:>9.1}ms {:>9.1}ms {:>7.3} {:>12.2e}",
            p.name,
            p.requests,
            p.scale_vs_fig6,
            p.events,
            p.peak_event_queue,
            p.calendar_secs * 1e3,
            p.heap_secs * 1e3,
            p.ab_ratio(),
            p.events_per_sec(),
        );
    }
    let million: Vec<&ScalePoint> = points.iter().filter(|p| p.events >= 1_000_000).collect();
    println!(
        "\n{} points, {} at >= 1M events (bit-identical results on every point)",
        points.len(),
        million.len()
    );
    assert!(
        !million.is_empty(),
        "no point reached a million events — the tier is not at scale"
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"policy\": \"jit_window_64\",");
    let _ = writeln!(json, "  \"reduced\": {reduced},");
    let _ = writeln!(json, "  \"runs_per_point\": {RUNS_PER_POINT},");
    let _ = writeln!(json, "  \"points\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"requests\": {}, \"scale_vs_fig6\": {:.2}, \"events\": {}, \"peak_event_queue\": {}, \"makespan\": {}, \"calendar_secs\": {:.6}, \"heap_secs\": {:.6}, \"ab_ratio\": {:.4}, \"events_per_sec\": {:.3e}}}{comma}",
            p.name,
            p.requests,
            p.scale_vs_fig6,
            p.events,
            p.peak_event_queue,
            p.makespan,
            p.calendar_secs,
            p.heap_secs,
            p.ab_ratio(),
            p.events_per_sec(),
        );
    }
    let _ = writeln!(json, "  ]");
    json.push('}');
    json.push('\n');
    write_report("BENCH_scale.json", &json);
}
