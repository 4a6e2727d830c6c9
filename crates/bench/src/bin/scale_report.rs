//! Scale-tier report of the route-aware EPR fabric: runs
//! `simulate_epr_on_fabric` on demand traces 10–100x the fig6 grid
//! (multi-block SHA-1, wider Ising, SQ chains, code distances up to 21)
//! and writes `BENCH_scale.json`. Each point's `fabric_secs` is the
//! median of three runs (`runs_per_point`).
//!
//! Once the report is written, the tier is checked, and the binary
//! exits nonzero on a failure: at least four points at >= 10x fig6
//! scale, every point at >= 50k events/sec, and at least one
//! million-event point.
//!
//! `--reduced` shrinks the replication factors for CI while keeping
//! every point at >= 10x fig6 scale, so every check still binds.

#![warn(clippy::disallowed_methods)]

use std::fmt::Write as _;

use scq_bench::{or_die, scale_workloads, timed_median3, write_report, ScaleWorkload};
use scq_teleport::{simulate_epr_on_fabric, DistributionPolicy};

/// Timed runs of every point (the median is reported).
const RUNS_PER_POINT: usize = 3;
/// The tier keeps at least this many points at [`LARGE_POINT_SCALE`].
const MIN_LARGE_POINTS: usize = 4;
/// Demand size over the fig6 instance that makes a point large.
const LARGE_POINT_SCALE: f64 = 10.0;
/// Floor on every point's fabric throughput, far below the measured
/// millions so only a real regression trips it.
const EVENTS_PER_SEC_FLOOR: f64 = 50_000.0;
/// Fabric events of the largest point the tier must reach.
const MILLION_EVENTS: u64 = 1_000_000;

/// One measured point of the scale tier.
struct ScalePoint {
    name: String,
    requests: usize,
    scale_vs_fig6: f64,
    events: u64,
    peak_event_queue: usize,
    makespan: u64,
    fabric_secs: f64,
}

impl ScalePoint {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.fabric_secs.max(1e-12)
    }
}

/// Checks the tier: [`MIN_LARGE_POINTS`] at [`LARGE_POINT_SCALE`],
/// [`EVENTS_PER_SEC_FLOOR`] on every point, and at least one point of
/// [`MILLION_EVENTS`].
fn check_scale(points: &[ScalePoint]) -> Result<String, String> {
    let large = points
        .iter()
        .filter(|p| p.scale_vs_fig6 >= LARGE_POINT_SCALE)
        .count();
    if large < MIN_LARGE_POINTS {
        return Err(format!(
            "only {large} points at >= {LARGE_POINT_SCALE:.0}x fig6 scale (need \
             {MIN_LARGE_POINTS})"
        ));
    }
    for p in points {
        if p.events_per_sec() < EVENTS_PER_SEC_FLOOR {
            return Err(format!(
                "{}: {:.0} events/sec fell below the floor {EVENTS_PER_SEC_FLOOR:.0}",
                p.name,
                p.events_per_sec()
            ));
        }
    }
    let million = points.iter().filter(|p| p.events >= MILLION_EVENTS).count();
    if million == 0 {
        return Err("no point reached a million events — the tier is not at scale".into());
    }
    Ok(format!(
        "{} points ({large} at >= {LARGE_POINT_SCALE:.0}x, {million} at >= 1M events), \
         events/sec >= {EVENTS_PER_SEC_FLOOR:.0}",
        points.len()
    ))
}

fn measure(w: &ScaleWorkload, policy: DistributionPolicy) -> ScalePoint {
    let (result, fabric_secs) =
        timed_median3(|| simulate_epr_on_fabric(&w.requests, policy, &w.config, w.topology));
    ScalePoint {
        name: w.name.clone(),
        requests: w.requests.len(),
        scale_vs_fig6: w.scale_vs_fig6,
        events: result.events_processed,
        peak_event_queue: result.peak_event_queue,
        makespan: result.pipeline.makespan,
        fabric_secs,
    }
}

fn main() {
    let reduced = std::env::args().any(|a| a == "--reduced");
    let policy = DistributionPolicy::JustInTime { window: 64 };
    let workloads = scale_workloads(reduced);
    let points: Vec<ScalePoint> = workloads.iter().map(|w| measure(w, policy)).collect();

    println!(
        "Fabric scale report ({} grid, JIT window 64, median of {RUNS_PER_POINT} runs)",
        if reduced { "reduced" } else { "full" }
    );
    println!();
    println!(
        "{:<16} {:>9} {:>7} {:>10} {:>10} {:>10} {:>12}",
        "point", "requests", "scale", "events", "peak q", "fabric", "events/s"
    );
    for p in &points {
        println!(
            "{:<16} {:>9} {:>6.1}x {:>10} {:>10} {:>9.1}ms {:>12.2e}",
            p.name,
            p.requests,
            p.scale_vs_fig6,
            p.events,
            p.peak_event_queue,
            p.fabric_secs * 1e3,
            p.events_per_sec(),
        );
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"policy\": \"jit_window_64\",");
    let _ = writeln!(json, "  \"reduced\": {reduced},");
    let _ = writeln!(json, "  \"runs_per_point\": {RUNS_PER_POINT},");
    let _ = writeln!(json, "  \"points\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"requests\": {}, \"scale_vs_fig6\": {:.2}, \"events\": {}, \"peak_event_queue\": {}, \"makespan\": {}, \"fabric_secs\": {:.6}, \"events_per_sec\": {:.3e}}}{comma}",
            p.name,
            p.requests,
            p.scale_vs_fig6,
            p.events,
            p.peak_event_queue,
            p.makespan,
            p.fabric_secs,
            p.events_per_sec(),
        );
    }
    let _ = writeln!(json, "  ]");
    json.push('}');
    json.push('\n');
    write_report("BENCH_scale.json", &json);
    println!(
        "ok: scale tier: {}",
        or_die(check_scale(&points), "scale tier")
    );
}

#[cfg(test)]
mod tests {
    use super::{check_scale, ScalePoint};

    /// Points from `(scale_vs_fig6, events, events/sec)`.
    fn points(rows: &[(f64, u64, f64)]) -> Vec<ScalePoint> {
        rows.iter()
            .map(|&(scale_vs_fig6, events, eps)| ScalePoint {
                name: "x".into(),
                requests: 10,
                scale_vs_fig6,
                events,
                peak_event_queue: 5,
                makespan: 100,
                fabric_secs: events as f64 / eps,
            })
            .collect()
    }

    #[test]
    fn scale_check_accepts_a_healthy_tier() {
        let tier = points(&[
            (16.0, 2_100_000, 9.0e6),
            (16.0, 2_100_000, 8.0e6),
            (12.5, 1_400_000, 7.0e6),
            (12.5, 500_000, 50_000.0), // exactly on the throughput floor
            (32.0, 1_800_000, 9.5e6),
        ]);
        assert!(check_scale(&tier).is_ok());
    }

    #[test]
    fn scale_check_rejects_too_few_large_points() {
        let tier = points(&[
            (16.0, 2_100_000, 9.0e6),
            (16.0, 2_100_000, 8.0e6),
            (9.9, 1_400_000, 7.0e6),
            (8.0, 1_800_000, 9.5e6),
        ]);
        assert!(check_scale(&tier).unwrap_err().contains(">= 10x"));
    }

    #[test]
    fn scale_check_rejects_a_throughput_collapse() {
        let tier = points(&[
            (16.0, 2_100_000, 9.0e6),
            (16.0, 2_100_000, 30_000.0),
            (12.5, 1_400_000, 7.0e6),
            (32.0, 1_800_000, 9.5e6),
        ]);
        assert!(check_scale(&tier).unwrap_err().contains("events/sec"));
    }

    #[test]
    fn scale_check_rejects_a_tier_with_no_million_event_point() {
        let tier = points(&[
            (16.0, 900_000, 9.0e6),
            (16.0, 900_000, 8.0e6),
            (12.5, 900_000, 7.0e6),
            (32.0, 900_000, 9.5e6),
        ]);
        assert!(check_scale(&tier).unwrap_err().contains("million"));
    }

    #[test]
    fn scale_check_rejects_empty_points() {
        assert!(check_scale(&[]).is_err());
    }
}
