//! Bench-regression guard: reads the regenerated bench reports and
//! fails (non-zero exit) on committed-floor violations.
//!
//! ```text
//! bench_guard [BENCH_sched.json] [floor] [BENCH_epr.json] [BENCH_serve.json] [BENCH_scale.json]
//! ```
//!
//! Seven checks:
//!
//! 1. **Scheduler speedup floor** (`BENCH_sched.json`): the
//!    event-driven braid engine's geomean speedup over the naive
//!    reference must stay above the floor. The floor is deliberately
//!    far below the measured trajectory (geomean ~8x on a quiet
//!    machine) so only a real regression — not CI timing noise — trips
//!    it.
//! 2. **Pipeline pass breakdown** (`BENCH_sched.json`): the `pass_secs`
//!    section must parse with every stage of the artifact pipeline
//!    present and non-negative — a renamed, dropped, or reordered pass
//!    silently breaks the per-pass trajectory, so its absence fails the
//!    guard rather than going unnoticed. Skipped with a note when the
//!    file predates the section.
//! 3. **Placement ablation** (`BENCH_epr.json`): for every row of the
//!    `placement` section, the congestion-aware floorplan's makespan
//!    and lane stalls must not exceed the baseline's. This is an
//!    algorithmic invariant (only strictly improving moves are
//!    accepted), so any violation is a real bug, never timing noise.
//!    The check is skipped with a note when the file is absent.
//! 4. **Degradation envelope** (`BENCH_epr.json`): every completed row
//!    of the `degradation` section (fig6 apps at the committed defect
//!    rate) must keep its makespan inflation within the recorded
//!    `degradation_envelope`, and at least one row must have completed
//!    at all. Schedules are cycle-deterministic, so a violation is a
//!    routing/scheduling regression, never timing noise. Skipped with a
//!    note when the file predates the section.
//! 5. **Serving layer** (`BENCH_serve.json`): the duplicate-laden
//!    stream's cache hit rate must stay >= 0.5, and at least one app
//!    must show a warm/cold latency ratio >= 10x. Skipped with a note
//!    when the file is absent.
//! 6. **Scale tier** (`BENCH_scale.json`): at least four points must
//!    sit at >= 10x fig6 scale, every point must sustain the committed
//!    events/sec floor on the calendar-queue event core, and on every
//!    million-event point the calendar/heap A/B ratio must stay
//!    <= 1.0 — the calendar queue is never allowed to be slower than
//!    the `BinaryHeap` twin exactly where it exists to win. Skipped
//!    with a note when the file is absent.
//! 7. **End-to-end toolflow** (`BENCH_sched.json`): the `e2e` section
//!    must carry every fig6 app; the summed warm toolflow time must
//!    stay within a quarter of the summed first-call time, and the warm
//!    `estimate` pass within 1% of the warm toolflow. Both bounds are
//!    ratios of times taken in one process, so a uniformly slower
//!    machine does not trip them; losing the calibration memo does.
//!    Skipped with a note when the file predates the section.
//!
//! CI runs this right after `perf_report`, `serve_throughput`, and
//! `scale_report` regenerate the files.

#![warn(clippy::disallowed_methods)]

use std::process::ExitCode;

use scq_apps::Benchmark;
use scq_bench::PIPELINE_STAGES;

/// Default floor on the geomean speedup (measured ~8x; a drop to 3x
/// means the event-driven engine lost most of its edge).
const DEFAULT_FLOOR: f64 = 3.0;

/// Extracts a top-level numeric field from a flat JSON report without
/// a JSON parser (the report format is ours and stable).
fn parse_field(json: &str, key: &str) -> Option<f64> {
    parse_fields(json, key).into_iter().next()
}

/// Every occurrence of `"key": <number>` in document order.
fn parse_fields(json: &str, key: &str) -> Vec<f64> {
    let needle = format!("\"{key}\"");
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(idx) = rest.find(&needle) {
        rest = &rest[idx + needle.len()..];
        let Some(colon) = rest.find(':') else { break };
        let tail = rest[colon + 1..].trim_start();
        let end = tail
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
            .unwrap_or(tail.len());
        if let Ok(v) = tail[..end].parse() {
            out.push(v);
        }
    }
    out
}

/// Checks the `pass_secs` section of a scheduler report: every
/// [`PIPELINE_STAGES`] entry must be present with a non-negative wall
/// clock. Returns
/// `Ok(None)` when the file has no `pass_secs` section (reports from
/// before the pass pipeline).
fn check_pass_secs(json: &str) -> Result<Option<usize>, String> {
    let Some(section) = json.find("\"pass_secs\"").map(|i| &json[i..]) else {
        return Ok(None);
    };
    // Confine the scan to the section itself so a same-named field
    // later in the document can never stand in for a missing stage.
    let end = section.find('}').unwrap_or(section.len());
    let section = &section[..end];
    for stage in PIPELINE_STAGES {
        let Some(secs) = parse_field(section, stage) else {
            return Err(format!("pass_secs is missing stage `{stage}`"));
        };
        if secs < 0.0 {
            return Err(format!("stage `{stage}` has negative wall clock {secs}"));
        }
    }
    Ok(Some(PIPELINE_STAGES.len()))
}

/// Ceiling on the summed warm toolflow time over the summed first-call
/// time (measured ~0.07: the first call pays each app's calibration).
const E2E_WARM_OVER_FIRST: f64 = 0.25;
/// Ceiling on the warm `estimate` pass's share of the warm toolflow
/// (measured well under 0.1%: a memo hit plus the closed-form model).
const E2E_ESTIMATE_SHARE: f64 = 0.01;

/// Checks the `e2e` section of a scheduler report: a row for every
/// fig6 app (the Table 2 benchmarks), warm toolflow time within
/// [`E2E_WARM_OVER_FIRST`] of the first call's, and the warm estimate
/// within [`E2E_ESTIMATE_SHARE`] of the warm toolflow. Returns
/// `Ok(None)` when the file has no `e2e` section.
fn check_e2e(json: &str) -> Result<Option<String>, String> {
    let Some(section) = json.find("\"e2e\"").map(|i| &json[i..]) else {
        return Ok(None);
    };
    let section = &section[..section.find(']').unwrap_or(section.len())];
    let (mut first, mut warm, mut estimate) = (0.0, 0.0, 0.0);
    for bench in Benchmark::TABLE2 {
        let app = bench.name();
        let Some(row) = section.find(&format!("\"app\": \"{app}\"")) else {
            return Err(format!("no row for {app}"));
        };
        let row = &section[row..];
        let row = &row[..row.find('}').unwrap_or(row.len())];
        let field = |key| parse_field(row, key).ok_or_else(|| format!("{app}: no {key}"));
        first += field("first_secs")?;
        warm += field("warm_secs")?;
        estimate += field("warm_estimate_secs")?;
    }
    if warm > E2E_WARM_OVER_FIRST * first {
        return Err(format!(
            "warm toolflow {:.1}ms exceeds {E2E_WARM_OVER_FIRST} x the first calls' {:.1}ms \
             (is calibration still memoized?)",
            warm * 1e3,
            first * 1e3
        ));
    }
    if estimate > E2E_ESTIMATE_SHARE * warm {
        return Err(format!(
            "warm estimate {:.3}ms exceeds {E2E_ESTIMATE_SHARE} x the warm toolflow's {:.1}ms",
            estimate * 1e3,
            warm * 1e3
        ));
    }
    Ok(Some(format!(
        "{} apps, warm/first {:.3} <= {E2E_WARM_OVER_FIRST}, warm estimate share {:.5} <= \
         {E2E_ESTIMATE_SHARE}",
        Benchmark::TABLE2.len(),
        warm / first,
        estimate / warm
    )))
}

/// Checks the placement section of an EPR report: every optimized
/// makespan/stall count must be no worse than its baseline. Returns an
/// error string on violation or malformed input.
fn check_placement(json: &str) -> Result<usize, String> {
    let Some(section) = json.find("\"placement\"").map(|i| &json[i..]) else {
        return Err("no placement section".into());
    };
    let base_span = parse_fields(section, "baseline_makespan");
    let opt_span = parse_fields(section, "optimized_makespan");
    let base_stalls = parse_fields(section, "baseline_lane_stalls");
    let opt_stalls = parse_fields(section, "optimized_lane_stalls");
    if base_span.is_empty()
        || base_span.len() != opt_span.len()
        || base_span.len() != base_stalls.len()
        || base_span.len() != opt_stalls.len()
    {
        return Err("malformed placement rows".into());
    }
    for i in 0..base_span.len() {
        if opt_span[i] > base_span[i] {
            return Err(format!(
                "row {i}: optimized makespan {} exceeds baseline {}",
                opt_span[i], base_span[i]
            ));
        }
        if opt_stalls[i] > base_stalls[i] {
            return Err(format!(
                "row {i}: optimized lane stalls {} exceed baseline {}",
                opt_stalls[i], base_stalls[i]
            ));
        }
    }
    Ok(base_span.len())
}

/// Checks the degradation section of an EPR report: every completed
/// row's multiplier must stay within the recorded envelope, and at
/// least one row must have completed. Returns `Ok(None)` when the file
/// has no degradation section (reports from before the fault layer).
fn check_degradation(json: &str) -> Result<Option<usize>, String> {
    let Some(section) = json.find("\"degradation\"").map(|i| &json[i..]) else {
        return Ok(None);
    };
    let Some(envelope) = parse_field(json, "degradation_envelope") else {
        return Err("degradation rows without a degradation_envelope".into());
    };
    let multipliers = parse_fields(section, "degradation_multiplier");
    if multipliers.is_empty() {
        return Err("no degradation row completed (all unroutable?)".into());
    }
    for (i, &m) in multipliers.iter().enumerate() {
        if m > envelope {
            return Err(format!(
                "row {i}: degradation multiplier {m:.2}x exceeds the committed envelope \
                 {envelope:.2}x"
            ));
        }
    }
    Ok(Some(multipliers.len()))
}

/// Serving-layer floors, mirrored from `serve_throughput`'s own
/// in-binary asserts so a stale or hand-edited report cannot sneak a
/// regression past CI.
const SERVE_HIT_RATE_FLOOR: f64 = 0.5;
const SERVE_WARM_SPEEDUP_FLOOR: f64 = 10.0;

/// Checks a serve report: cache hit rate and warm/cold ratio. Returns a
/// human-readable ok-summary, or an error string on violation or
/// malformed input.
fn check_serve(json: &str) -> Result<String, String> {
    let Some(hit_rate) = parse_field(json, "hit_rate") else {
        return Err("no hit_rate field".into());
    };
    if hit_rate < SERVE_HIT_RATE_FLOOR {
        return Err(format!(
            "cache hit rate {hit_rate:.3} fell below the floor {SERVE_HIT_RATE_FLOOR} \
             on the duplicate-laden stream"
        ));
    }
    let Some(warm) = parse_field(json, "max_warm_speedup") else {
        return Err("no max_warm_speedup field".into());
    };
    if warm < SERVE_WARM_SPEEDUP_FLOOR {
        return Err(format!(
            "best warm/cold ratio {warm:.1}x fell below the floor {SERVE_WARM_SPEEDUP_FLOOR}x"
        ));
    }
    Ok(format!(
        "hit rate {hit_rate:.2} >= {SERVE_HIT_RATE_FLOOR}, warm/cold {warm:.0}x >= \
         {SERVE_WARM_SPEEDUP_FLOOR:.0}x"
    ))
}

/// Scale-tier floors, mirrored from the ISSUE's acceptance bar: the
/// committed grid keeps >= 4 points at >= 10x fig6 scale, the calendar
/// core must sustain the events/sec floor everywhere (set far below
/// measured throughput so only a real regression trips it), and on
/// million-event points the calendar must never lose the A/B race.
const SCALE_MIN_LARGE_POINTS: usize = 4;
const SCALE_LARGE_POINT_FLOOR: f64 = 10.0;
const SCALE_EVENTS_PER_SEC_FLOOR: f64 = 50_000.0;
const SCALE_MILLION_EVENTS: f64 = 1_000_000.0;
const SCALE_RATIO_CEILING: f64 = 1.0;

/// Checks a scale report: point count at tier scale, the events/sec
/// floor, and the calendar-vs-heap ratio ceiling on million-event
/// points. Returns a human-readable ok-summary, or an error string on
/// violation or malformed input.
fn check_scale(json: &str) -> Result<String, String> {
    let events = parse_fields(json, "events");
    let rates = parse_fields(json, "events_per_sec");
    let ratios = parse_fields(json, "ab_ratio");
    let scales = parse_fields(json, "scale_vs_fig6");
    if events.is_empty()
        || events.len() != rates.len()
        || events.len() != ratios.len()
        || events.len() != scales.len()
    {
        return Err("malformed scale points".into());
    }
    let large = scales
        .iter()
        .filter(|&&s| s >= SCALE_LARGE_POINT_FLOOR)
        .count();
    if large < SCALE_MIN_LARGE_POINTS {
        return Err(format!(
            "only {large} points at >= {SCALE_LARGE_POINT_FLOOR:.0}x fig6 scale \
             (need {SCALE_MIN_LARGE_POINTS})"
        ));
    }
    let mut million = 0usize;
    for i in 0..events.len() {
        if rates[i] < SCALE_EVENTS_PER_SEC_FLOOR {
            return Err(format!(
                "point {i}: {:.0} events/sec fell below the floor {SCALE_EVENTS_PER_SEC_FLOOR:.0}",
                rates[i]
            ));
        }
        if events[i] >= SCALE_MILLION_EVENTS {
            million += 1;
            if ratios[i] > SCALE_RATIO_CEILING {
                return Err(format!(
                    "point {i}: calendar/heap ratio {:.3} exceeds {SCALE_RATIO_CEILING} on a \
                     million-event point ({:.2}M events) — the calendar queue lost its race",
                    ratios[i],
                    events[i] / 1e6
                ));
            }
        }
    }
    if million == 0 {
        return Err("no point reached a million events".into());
    }
    Ok(format!(
        "{} points ({large} at >= {SCALE_LARGE_POINT_FLOOR:.0}x, {million} at >= 1M events), \
         events/sec >= {SCALE_EVENTS_PER_SEC_FLOOR:.0}, calendar never slower at scale",
        events.len()
    ))
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let path = args.next().unwrap_or_else(|| "BENCH_sched.json".into());
    let floor: f64 = match args.next() {
        Some(s) => match s.parse() {
            Ok(f) => f,
            Err(_) => {
                eprintln!("bench_guard: floor `{s}` is not a number");
                return ExitCode::from(2);
            }
        },
        None => DEFAULT_FLOOR,
    };
    let epr_path = args.next().unwrap_or_else(|| "BENCH_epr.json".into());
    let serve_path = args.next().unwrap_or_else(|| "BENCH_serve.json".into());
    let scale_path = args.next().unwrap_or_else(|| "BENCH_scale.json".into());
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_guard: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(geomean) = parse_field(&text, "geomean_speedup") else {
        eprintln!("bench_guard: no geomean_speedup field in {path}");
        return ExitCode::from(2);
    };
    if geomean < floor {
        eprintln!(
            "bench_guard: FAIL — geomean scheduler speedup {geomean:.2}x fell below the \
             committed floor {floor:.2}x (see {path})"
        );
        return ExitCode::FAILURE;
    }
    println!("bench_guard: ok — geomean scheduler speedup {geomean:.2}x >= floor {floor:.2}x");

    match check_pass_secs(&text) {
        Ok(Some(stages)) => {
            println!("bench_guard: ok — pipeline pass breakdown present, all {stages} stages >= 0");
        }
        Ok(None) => {
            println!("bench_guard: note — {path} has no pass_secs section, skipping");
        }
        Err(e) => {
            eprintln!("bench_guard: FAIL — pipeline pass breakdown in {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    match check_e2e(&text) {
        Ok(Some(summary)) => println!("bench_guard: ok — end-to-end toolflow: {summary}"),
        Ok(None) => println!("bench_guard: note — {path} has no e2e section, skipping"),
        Err(e) => {
            eprintln!("bench_guard: FAIL — end-to-end toolflow in {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    match std::fs::read_to_string(&epr_path) {
        Ok(epr_text) => {
            match check_placement(&epr_text) {
                Ok(rows) => {
                    println!(
                        "bench_guard: ok — placement ablation optimized <= baseline on all {rows} rows"
                    );
                }
                Err(e) => {
                    eprintln!("bench_guard: FAIL — placement ablation in {epr_path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            match check_degradation(&epr_text) {
                Ok(Some(rows)) => {
                    println!(
                        "bench_guard: ok — degradation within the committed envelope on all \
                         {rows} completed rows"
                    );
                }
                Ok(None) => {
                    println!("bench_guard: note — {epr_path} has no degradation section, skipping");
                }
                Err(e) => {
                    eprintln!("bench_guard: FAIL — degradation study in {epr_path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        Err(e) => {
            println!("bench_guard: note — skipping placement check ({epr_path}: {e})");
        }
    }

    match std::fs::read_to_string(&serve_path) {
        Ok(serve_text) => match check_serve(&serve_text) {
            Ok(summary) => println!("bench_guard: ok — serving layer: {summary}"),
            Err(e) => {
                eprintln!("bench_guard: FAIL — serving layer in {serve_path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        Err(e) => {
            println!("bench_guard: note — skipping serving-layer check ({serve_path}: {e})");
        }
    }

    match std::fs::read_to_string(&scale_path) {
        Ok(scale_text) => match check_scale(&scale_text) {
            Ok(summary) => println!("bench_guard: ok — scale tier: {summary}"),
            Err(e) => {
                eprintln!("bench_guard: FAIL — scale tier in {scale_path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        Err(e) => {
            println!("bench_guard: note — skipping scale-tier check ({scale_path}: {e})");
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::{
        check_degradation, check_e2e, check_pass_secs, check_placement, check_scale, check_serve,
        parse_field, parse_fields, Benchmark, PIPELINE_STAGES,
    };

    #[test]
    fn parses_floats_ints_and_scientific() {
        let json = "{\n  \"geomean_speedup\": 8.05,\n  \"n\": 28,\n  \"sci\": 1.2e-3\n}";
        assert_eq!(parse_field(json, "geomean_speedup"), Some(8.05));
        assert_eq!(parse_field(json, "n"), Some(28.0));
        assert_eq!(parse_field(json, "sci"), Some(1.2e-3));
        assert_eq!(parse_field(json, "missing"), None);
    }

    #[test]
    fn parses_field_followed_by_comma_or_brace() {
        assert_eq!(parse_field("{\"x\": 4.5,", "x"), Some(4.5));
        assert_eq!(parse_field("{\"x\": 4.5}", "x"), Some(4.5));
        assert_eq!(parse_field("{\"x\": 4.5\n}", "x"), Some(4.5));
    }

    #[test]
    fn parses_repeated_fields_in_order() {
        let json = "[{\"v\": 1}, {\"v\": 2.5}, {\"v\": 3}]";
        assert_eq!(parse_fields(json, "v"), vec![1.0, 2.5, 3.0]);
    }

    fn pass_secs_json(stages: &[(&str, f64)]) -> String {
        let body: Vec<String> = stages
            .iter()
            .map(|(name, secs)| format!("    \"{name}\": {secs:.6}"))
            .collect();
        format!(
            "{{\n  \"geomean_speedup\": 8.0,\n  \"pass_secs\": {{\n{}\n  }},\n  \
             \"certify_secs\": 0.001\n}}",
            body.join(",\n")
        )
    }

    #[test]
    fn pass_secs_check_accepts_a_full_breakdown() {
        let stages: Vec<(&str, f64)> = PIPELINE_STAGES.iter().map(|&s| (s, 0.001)).collect();
        assert_eq!(check_pass_secs(&pass_secs_json(&stages)), Ok(Some(7)));
        // A zero-cost stage is still a valid measurement.
        let zeroed: Vec<(&str, f64)> = PIPELINE_STAGES.iter().map(|&s| (s, 0.0)).collect();
        assert_eq!(check_pass_secs(&pass_secs_json(&zeroed)), Ok(Some(7)));
    }

    #[test]
    fn pass_secs_check_rejects_a_missing_stage() {
        let stages: Vec<(&str, f64)> = PIPELINE_STAGES
            .iter()
            .filter(|&&s| s != "layout")
            .map(|&s| (s, 0.001))
            .collect();
        assert!(check_pass_secs(&pass_secs_json(&stages))
            .unwrap_err()
            .contains("layout"));
    }

    #[test]
    fn pass_secs_check_rejects_a_negative_wall_clock() {
        let stages: Vec<(&str, f64)> = PIPELINE_STAGES
            .iter()
            .map(|&s| (s, if s == "estimate" { -0.001 } else { 0.001 }))
            .collect();
        assert!(check_pass_secs(&pass_secs_json(&stages))
            .unwrap_err()
            .contains("negative"));
    }

    #[test]
    fn pass_secs_check_skips_reports_without_the_section() {
        assert_eq!(check_pass_secs("{\"geomean_speedup\": 8.0}"), Ok(None));
    }

    #[test]
    fn pass_secs_check_does_not_read_stages_outside_the_section() {
        // `certify_secs` follows the section; a stage name leaked there
        // must not satisfy the presence check.
        let json = "{\"pass_secs\": {\"normalize-ir\": 0.001}, \"code-distance\": 0.002}";
        assert!(check_pass_secs(json).unwrap_err().contains("missing"));
    }

    /// A scheduler report whose `e2e` section has one
    /// `(first, warm, warm estimate)` row per fig6 app, in order,
    /// between `pass_secs` and `certify_secs` as `perf_report` writes
    /// it.
    fn e2e_json(rows: &[(f64, f64, f64)]) -> String {
        let body: Vec<String> = Benchmark::TABLE2
            .iter()
            .zip(rows)
            .map(|(b, (first, warm, est))| {
                format!(
                    "    {{\"app\": \"{}\", \"first_secs\": {first:.3e}, \"warm_secs\": \
                     {warm:.3e}, \"warm_estimate_secs\": {est:.3e}}}",
                    b.name()
                )
            })
            .collect();
        format!(
            "{{\n  \"pass_secs\": {{\n    \"estimate\": 0.3\n  }},\n  \"e2e\": [\n{}\n  ],\n  \
             \"certify_secs\": 0.3\n}}",
            body.join(",\n")
        )
    }

    #[test]
    fn e2e_check_accepts_a_memoized_toolflow() {
        // Rows shaped like a measured run: SHA-1 pays ~0.3 s once.
        let json = e2e_json(&[
            (2.4e-3, 9.0e-4, 1.1e-6),
            (7.5e-2, 8.1e-3, 1.3e-6),
            (3.4e-1, 2.1e-2, 1.2e-6),
            (2.9e-2, 4.0e-3, 1.0e-6),
        ]);
        let verdict = check_e2e(&json);
        assert!(
            matches!(&verdict, Ok(Some(s)) if s.starts_with("4 apps")),
            "{verdict:?}"
        );
    }

    #[test]
    fn e2e_check_rejects_a_missing_app() {
        let json = e2e_json(&[(0.1, 0.01, 1e-6), (0.1, 0.01, 1e-6), (0.1, 0.01, 1e-6)]);
        let err = check_e2e(&json).unwrap_err();
        assert!(err.contains(Benchmark::TABLE2[3].name()), "{err}");
    }

    #[test]
    fn e2e_check_rejects_an_estimate_dominated_warm_toolflow() {
        // Calibration reruns on every call: warm costs what first did.
        let json = e2e_json(&[(0.3, 0.29, 0.27); 4]);
        assert!(check_e2e(&json).unwrap_err().contains("warm toolflow"));
        // Warm is cheap overall, yet estimate is a tenth of it.
        let json = e2e_json(&[(0.3, 0.01, 1e-3); 4]);
        assert!(check_e2e(&json).unwrap_err().contains("warm estimate"));
    }

    #[test]
    fn e2e_check_skips_reports_without_the_section() {
        let stages: Vec<(&str, f64)> = PIPELINE_STAGES.iter().map(|&s| (s, 0.001)).collect();
        assert_eq!(check_e2e(&pass_secs_json(&stages)), Ok(None));
    }

    fn placement_json(rows: &[(u64, u64, u64, u64)]) -> String {
        let body: Vec<String> = rows
            .iter()
            .map(|(bm, om, bs, os)| {
                format!(
                    "{{\"app\": \"x\", \"baseline_makespan\": {bm}, \"optimized_makespan\": {om}, \
                     \"baseline_lane_stalls\": {bs}, \"optimized_lane_stalls\": {os}}}"
                )
            })
            .collect();
        format!("{{\"placement\": [{}]}}", body.join(", "))
    }

    #[test]
    fn placement_check_accepts_non_regressions() {
        let json = placement_json(&[(900, 900, 14, 14), (148, 141, 4709, 3200)]);
        assert_eq!(check_placement(&json), Ok(2));
    }

    #[test]
    fn placement_check_rejects_makespan_regression() {
        let json = placement_json(&[(900, 901, 14, 14)]);
        assert!(check_placement(&json).unwrap_err().contains("makespan"));
    }

    #[test]
    fn placement_check_rejects_stall_regression() {
        let json = placement_json(&[(900, 900, 14, 15)]);
        assert!(check_placement(&json).unwrap_err().contains("stalls"));
    }

    #[test]
    fn placement_check_rejects_missing_section() {
        assert!(check_placement("{\"points\": []}").is_err());
    }

    fn degradation_json(envelope: f64, multipliers: &[f64], unroutable: usize) -> String {
        let mut rows: Vec<String> = multipliers
            .iter()
            .map(|m| {
                format!(
                    "{{\"app\": \"x\", \"backend\": \"braid\", \"clean_makespan\": 100, \
                     \"degraded_makespan\": 120, \"degradation_multiplier\": {m}, \
                     \"status\": \"ok\"}}"
                )
            })
            .collect();
        for _ in 0..unroutable {
            rows.push(
                "{\"app\": \"x\", \"backend\": \"teleport\", \"clean_makespan\": 100, \
                 \"status\": \"unroutable\", \"error\": \"no defect-free route\"}"
                    .into(),
            );
        }
        format!(
            "{{\"degradation_envelope\": {envelope}, \"degradation\": [{}]}}",
            rows.join(", ")
        )
    }

    #[test]
    fn degradation_check_accepts_rows_within_the_envelope() {
        let json = degradation_json(8.0, &[1.0, 2.5, 7.99], 1);
        assert_eq!(check_degradation(&json), Ok(Some(3)));
    }

    #[test]
    fn degradation_check_rejects_an_envelope_breach() {
        let json = degradation_json(8.0, &[1.0, 8.01], 0);
        assert!(check_degradation(&json).unwrap_err().contains("envelope"));
    }

    #[test]
    fn degradation_check_rejects_all_rows_unroutable() {
        let json = degradation_json(8.0, &[], 4);
        assert!(check_degradation(&json)
            .unwrap_err()
            .contains("no degradation row completed"));
    }

    #[test]
    fn degradation_check_skips_reports_without_the_section() {
        assert_eq!(check_degradation("{\"placement\": []}"), Ok(None));
    }

    fn serve_json(hit_rate: f64, warm: f64) -> String {
        format!(
            "{{\"requests\": 24, \"hit_rate\": {hit_rate}, \"warm_cold\": \
             [{{\"app\": \"GSE\", \"warm_speedup\": 3.0}}], \
             \"max_warm_speedup\": {warm}}}"
        )
    }

    #[test]
    fn serve_check_accepts_a_healthy_report() {
        assert!(check_serve(&serve_json(0.667, 120.0)).is_ok());
        // Exactly on the committed bounds is still healthy.
        assert!(check_serve(&serve_json(0.5, 10.0)).is_ok());
    }

    #[test]
    fn serve_check_rejects_a_low_hit_rate() {
        assert!(check_serve(&serve_json(0.3, 120.0))
            .unwrap_err()
            .contains("hit rate"));
    }

    #[test]
    fn serve_check_rejects_a_weak_warm_speedup() {
        assert!(check_serve(&serve_json(0.667, 4.0))
            .unwrap_err()
            .contains("warm/cold"));
    }

    #[test]
    fn serve_check_ignores_per_row_warm_speedups() {
        // The per-app rows carry a "warm_speedup" field; only the
        // "max_warm_speedup" aggregate may satisfy the floor.
        let json = "{\"hit_rate\": 0.6, \"warm_cold\": [{\"warm_speedup\": 500.0}], \
                    \"max_warm_speedup\": 2.0}";
        assert!(check_serve(json).unwrap_err().contains("warm/cold"));
    }

    #[test]
    fn serve_check_rejects_malformed_reports() {
        assert!(check_serve("{}").unwrap_err().contains("hit_rate"));
        assert!(check_serve("{\"hit_rate\": 0.6}")
            .unwrap_err()
            .contains("max_warm_speedup"));
    }

    fn scale_json(points: &[(f64, f64, f64, f64)]) -> String {
        // (scale_vs_fig6, events, ab_ratio, events_per_sec) per point.
        let body: Vec<String> = points
            .iter()
            .map(|(s, ev, r, eps)| {
                format!(
                    "{{\"name\": \"x\", \"requests\": 10, \"scale_vs_fig6\": {s}, \
                     \"events\": {ev}, \"peak_event_queue\": 5, \"makespan\": 100, \
                     \"calendar_secs\": 0.1, \"heap_secs\": 0.1, \"ab_ratio\": {r}, \
                     \"events_per_sec\": {eps}}}"
                )
            })
            .collect();
        format!(
            "{{\"runs_per_point\": 3, \"points\": [{}]}}",
            body.join(", ")
        )
    }

    #[test]
    fn scale_check_accepts_a_healthy_tier() {
        let json = scale_json(&[
            (16.0, 2.1e6, 0.85, 9.0e6),
            (16.0, 2.1e6, 0.9, 8.0e6),
            (12.5, 1.4e6, 1.0, 7.0e6), // exactly on the ratio ceiling
            (12.5, 5.0e5, 1.3, 6.0e6), // sub-million point may lose the race
            (32.0, 1.8e6, 0.7, 9.5e6),
        ]);
        assert!(check_scale(&json).is_ok());
    }

    #[test]
    fn scale_check_rejects_a_slow_calendar_at_scale() {
        let json = scale_json(&[
            (16.0, 2.1e6, 1.02, 9.0e6),
            (16.0, 2.1e6, 0.9, 8.0e6),
            (12.5, 1.4e6, 1.0, 7.0e6),
            (32.0, 1.8e6, 0.7, 9.5e6),
        ]);
        assert!(check_scale(&json).unwrap_err().contains("lost its race"));
    }

    #[test]
    fn scale_check_rejects_too_few_large_points() {
        let json = scale_json(&[
            (16.0, 2.1e6, 0.9, 9.0e6),
            (16.0, 2.1e6, 0.9, 8.0e6),
            (9.9, 1.4e6, 0.9, 7.0e6),
            (8.0, 1.8e6, 0.7, 9.5e6),
        ]);
        assert!(check_scale(&json).unwrap_err().contains(">= 10x"));
    }

    #[test]
    fn scale_check_rejects_a_throughput_collapse() {
        let json = scale_json(&[
            (16.0, 2.1e6, 0.9, 9.0e6),
            (16.0, 2.1e6, 0.9, 30_000.0),
            (12.5, 1.4e6, 0.9, 7.0e6),
            (32.0, 1.8e6, 0.7, 9.5e6),
        ]);
        assert!(check_scale(&json).unwrap_err().contains("events/sec"));
    }

    #[test]
    fn scale_check_rejects_a_tier_with_no_million_event_point() {
        let json = scale_json(&[
            (16.0, 9.0e5, 0.9, 9.0e6),
            (16.0, 9.0e5, 0.9, 8.0e6),
            (12.5, 9.0e5, 0.9, 7.0e6),
            (32.0, 9.0e5, 0.7, 9.5e6),
        ]);
        assert!(check_scale(&json).unwrap_err().contains("million"));
    }

    #[test]
    fn scale_check_rejects_malformed_reports() {
        assert!(check_scale("{\"points\": []}")
            .unwrap_err()
            .contains("malformed"));
        // Mismatched field counts (a point missing its ratio).
        let json = "{\"points\": [{\"scale_vs_fig6\": 16.0, \"events\": 2000000, \
                    \"events_per_sec\": 9.0e6}]}";
        assert!(check_scale(json).unwrap_err().contains("malformed"));
    }

    #[test]
    fn degradation_rows_do_not_confuse_the_placement_check() {
        // The placement parser scans from its section to the end of the
        // document; the degradation field names must not collide.
        let placement = "{\"placement\": [{\"app\": \"x\", \"baseline_makespan\": 10, \
                         \"optimized_makespan\": 9, \"baseline_lane_stalls\": 5, \
                         \"optimized_lane_stalls\": 4}], ";
        let degradation = degradation_json(8.0, &[1.5], 1);
        let combined = format!("{placement}{}", &degradation[1..]);
        assert_eq!(check_placement(&combined), Ok(1));
        assert_eq!(check_degradation(&combined), Ok(Some(1)));
    }
}
