//! Serving-layer throughput report: drives a duplicate-laden mixed
//! request stream (fig6 grid x both backends, every request submitted
//! three times) through a [`BatchRunner`] and writes `BENCH_serve.json`
//! — sustained schedules/sec, cache hit rate, warm/cold latency per
//! app, and work-stealing pool counters.
//!
//! Once the report is written, two floors are checked, and the binary
//! exits nonzero when either fails:
//!
//! 1. **Hit rate** on the duplicate stream >= 0.5 (each unique request
//!    appears three times, so the cache should serve two of three).
//! 2. **Warm/cold ratio** >= 10x for at least one app: a cache hit
//!    must be at least an order of magnitude cheaper than the schedule
//!    it memoizes, or the cache isn't earning its keep.
//!
//! Cache hits are also asserted *byte-identical* to an independent cold
//! run of the same request — the differential-correctness contract.

#![warn(clippy::disallowed_methods)]

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use scq_bench::{fig6_workloads, or_die, run_policy, write_report};
use scq_braid::Policy;
use scq_serve::{
    steal_map_stats, BackendKind, BatchRunner, RequestSource, ScheduleRequest, ScheduleResponse,
};

const CODE_DISTANCE: u32 = 5;
/// Times every unique request appears in the duplicate-laden stream.
const REPEATS: usize = 3;
/// Floor on the duplicate stream's cache hit rate.
const HIT_RATE_FLOOR: f64 = 0.5;
/// Floor on the best warm/cold latency ratio over the apps.
const WARM_SPEEDUP_FLOOR: f64 = 10.0;

struct WarmCold {
    app: &'static str,
    backend: BackendKind,
    cold_secs: f64,
    warm_secs: f64,
}

impl WarmCold {
    fn speedup(&self) -> f64 {
        self.cold_secs / self.warm_secs.max(1e-9)
    }
}

/// Checks the serve floors: the stream's hit rate against
/// [`HIT_RATE_FLOOR`] and the best warm/cold ratio against
/// [`WARM_SPEEDUP_FLOOR`].
fn check_serve(hit_rate: f64, max_warm_speedup: f64) -> Result<String, String> {
    if hit_rate < HIT_RATE_FLOOR {
        return Err(format!(
            "cache hit rate {hit_rate:.3} fell below the floor {HIT_RATE_FLOOR} on the \
             duplicate-laden stream"
        ));
    }
    if max_warm_speedup < WARM_SPEEDUP_FLOOR {
        return Err(format!(
            "best warm/cold ratio {max_warm_speedup:.1}x fell below the floor \
             {WARM_SPEEDUP_FLOOR}x"
        ));
    }
    Ok(format!(
        "hit rate {hit_rate:.2} >= {HIT_RATE_FLOOR}, warm/cold {max_warm_speedup:.0}x >= \
         {WARM_SPEEDUP_FLOOR:.0}x"
    ))
}

fn response_summary(resp: &ScheduleResponse) -> String {
    or_die(resp.outcome.as_ref(), &resp.label).summary.clone()
}

fn main() {
    let workloads = fig6_workloads();

    // The unique request set: every fig6 app on both backends.
    let unique: Vec<(&'static str, BackendKind, ScheduleRequest)> = workloads
        .iter()
        .flat_map(|(bench, circuit)| {
            let circuit = Arc::new(circuit.clone());
            [BackendKind::Braid, BackendKind::Planar]
                .into_iter()
                .map(move |backend| {
                    let req = ScheduleRequest {
                        source: RequestSource::Circuit(Arc::clone(&circuit)),
                        backend,
                        policy: Policy::P6,
                        code_distance: CODE_DISTANCE,
                        ..ScheduleRequest::for_circuit(Arc::clone(&circuit))
                    };
                    (bench.name(), backend, req)
                })
        })
        .collect();

    // Independent cold runs: the byte-identity ground truth.
    let cold_runner = BatchRunner::new(64);
    let cold_truth: Vec<String> = unique
        .iter()
        .map(|(_, _, req)| response_summary(&cold_runner.run_one(req)))
        .collect();

    // The duplicate-laden stream: each unique request REPEATS times,
    // interleaved so duplicates never run back-to-back.
    let owned_stream: Vec<ScheduleRequest> = (0..REPEATS)
        .flat_map(|_| unique.iter().map(|(_, _, req)| req.clone()))
        .collect();
    let runner = BatchRunner::new(64);
    let t0 = Instant::now();
    let responses = runner.run(&owned_stream);
    let batch_secs = t0.elapsed().as_secs_f64();
    let schedules_per_sec = responses.len() as f64 / batch_secs.max(1e-9);

    let stats = runner.cache_stats();
    let hit_rate = stats.hit_rate();

    // Every response must match the cold truth byte for byte.
    for (i, resp) in responses.iter().enumerate() {
        let summary = response_summary(resp);
        let truth = &cold_truth[i % unique.len()];
        assert_eq!(
            summary.as_bytes(),
            truth.as_bytes(),
            "{}: served schedule diverged from an independent cold run",
            resp.label
        );
    }
    assert_eq!(
        stats.computes as usize,
        unique.len(),
        "each unique request must compute exactly once"
    );

    // Warm/cold latency: cold cost is memoized with each outcome;
    // warm cost is the best of three repeat requests against the
    // already-populated runner.
    let warm_cold: Vec<WarmCold> = unique
        .iter()
        .enumerate()
        .map(|(i, (app, backend, req))| {
            let cold_secs =
                or_die(responses[i].outcome.as_ref(), &format!("{app}/{backend}")).compute_secs;
            let warm_secs = (0..3)
                .map(|_| {
                    let resp = runner.run_one(req);
                    assert!(resp.outcome.is_ok());
                    resp.total_secs
                })
                .fold(f64::INFINITY, f64::min);
            WarmCold {
                app,
                backend: *backend,
                cold_secs,
                warm_secs,
            }
        })
        .collect();
    let max_warm_speedup = warm_cold
        .iter()
        .map(WarmCold::speedup)
        .fold(0.0f64, f64::max);

    // Pool counters on a heterogeneous grid (explicitly multi-worker so
    // the steal machinery is exercised even on single-core CI boxes).
    let grid: Vec<(usize, Policy)> = (0..workloads.len())
        .flat_map(|w| Policy::ALL.iter().map(move |&p| (w, p)))
        .collect();
    let (_, steal_stats) = steal_map_stats(&grid, |&(w, policy)| {
        run_policy(&workloads[w].1, policy, CODE_DISTANCE)
    });

    println!(
        "Serve throughput report ({} requests, {} unique, d = {CODE_DISTANCE})",
        responses.len(),
        unique.len()
    );
    println!();
    println!(
        "stream: {:.1} schedules/sec over {:.3}s (hits {}, misses {}, dedups {}, hit rate {:.1}%)",
        schedules_per_sec,
        batch_secs,
        stats.hits,
        stats.misses,
        stats.inflight_dedups,
        hit_rate * 100.0
    );
    println!();
    println!(
        "{:<10} {:>8} {:>12} {:>12} {:>10}",
        "app", "backend", "cold", "warm", "speedup"
    );
    for wc in &warm_cold {
        println!(
            "{:<10} {:>8} {:>11.3}ms {:>11.3}ms {:>9.0}x",
            wc.app,
            wc.backend.to_string(),
            wc.cold_secs * 1e3,
            wc.warm_secs * 1e3,
            wc.speedup()
        );
    }
    println!();
    println!(
        "pool: {} workers, {} steal ops, {} items migrated ({:.1}% of grid)",
        steal_stats.workers,
        steal_stats.steal_ops,
        steal_stats.executed_stolen,
        steal_stats.steal_fraction() * 100.0
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"code_distance\": {CODE_DISTANCE},");
    let _ = writeln!(json, "  \"requests\": {},", responses.len());
    let _ = writeln!(json, "  \"unique_requests\": {},", unique.len());
    let _ = writeln!(json, "  \"batch_secs\": {batch_secs:.6},");
    let _ = writeln!(json, "  \"schedules_per_sec\": {schedules_per_sec:.2},");
    let _ = writeln!(json, "  \"hits\": {},", stats.hits);
    let _ = writeln!(json, "  \"misses\": {},", stats.misses);
    let _ = writeln!(json, "  \"inflight_dedups\": {},", stats.inflight_dedups);
    let _ = writeln!(json, "  \"computes\": {},", stats.computes);
    let _ = writeln!(json, "  \"hit_rate\": {hit_rate:.4},");
    let _ = writeln!(json, "  \"warm_cold\": [");
    for (i, wc) in warm_cold.iter().enumerate() {
        let comma = if i + 1 < warm_cold.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"app\": \"{}\", \"backend\": \"{}\", \"cold_secs\": {:.6}, \"warm_secs\": {:.9}, \"warm_speedup\": {:.1}}}{comma}",
            wc.app,
            wc.backend,
            wc.cold_secs,
            wc.warm_secs,
            wc.speedup()
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"max_warm_speedup\": {max_warm_speedup:.1},");
    let _ = writeln!(json, "  \"steal_workers\": {},", steal_stats.workers);
    let _ = writeln!(json, "  \"steal_ops\": {},", steal_stats.steal_ops);
    let _ = writeln!(
        json,
        "  \"executed_stolen\": {},",
        steal_stats.executed_stolen
    );
    let _ = writeln!(
        json,
        "  \"steal_fraction\": {:.4}",
        steal_stats.steal_fraction()
    );
    json.push('}');
    json.push('\n');
    write_report("BENCH_serve.json", &json);
    let verdict = check_serve(hit_rate, max_warm_speedup);
    println!("ok: serving layer: {}", or_die(verdict, "serving layer"));
}

#[cfg(test)]
mod tests {
    use super::check_serve;

    #[test]
    fn serve_check_accepts_a_healthy_report() {
        assert!(check_serve(0.667, 120.0).is_ok());
        // Exactly on the committed bounds is still healthy.
        assert!(check_serve(0.5, 10.0).is_ok());
    }

    #[test]
    fn serve_check_rejects_a_low_hit_rate() {
        assert!(check_serve(0.3, 120.0).unwrap_err().contains("hit rate"));
    }

    #[test]
    fn serve_check_rejects_a_weak_warm_speedup() {
        assert!(check_serve(0.667, 4.0).unwrap_err().contains("warm/cold"));
    }
}
