//! Scheduler performance trajectory: times the event-driven engine
//! against the retained naive-stepping reference on the full Figure 6
//! (workload × policy) grid and writes `BENCH_sched.json`, then does
//! the same for the EPR side — route-aware fabric vs legacy flow model
//! — and writes `BENCH_epr.json`.
//!
//! Every braid point asserts bit-identical schedules before timing
//! counts, and every EPR point asserts the unlimited-capacity fabric
//! matches the flow oracle exactly, so the reported numbers are for
//! *the same answer*. Each braid point runs once more through a
//! counting sink, untimed, that records the adaptive searches it ran
//! and the bitboard row words they touched (`adaptive_searches`,
//! `search_words`): the work behind the contended points' times, with
//! no bound. Each braid engine time, each point's certify
//! pass and each warm `e2e` time is the median of three runs
//! (`runs_per_point` in the JSON) so a one-off scheduler hiccup cannot
//! masquerade as a regression; the EPR `flow_secs`, `fabric_secs` and
//! `place_secs` are single runs.
//! Fast-engine points are measured sequentially (stable wall-clocks),
//! then re-run in parallel once to report the fan-out wall-clock of the
//! whole grid.
//!
//! Once both reports are written, six checks read the rows behind
//! them, and the first that fails exits nonzero: the geomean speedup
//! floor, the pipeline's pass order, the `e2e` estimate shares, the
//! braid certifier's share of the fast grid, the placement ablation's
//! non-regression, and the degradation study (rate 0 equals clean, the
//! envelope, a defect-only multiplier of at least 1 on every completed
//! teleport row, at least one completed row).

#![warn(clippy::disallowed_methods)]

use std::fmt::Write as _;
use std::time::Instant;

use scq_apps::Benchmark;
use scq_bench::{
    fig6_workloads, or_die, run_planar_on_defects, run_policy, run_policy_on_defects,
    run_policy_reference, timed_median3, write_report, FixedFloorplan, PIPELINE_STAGES,
};
use scq_braid::{schedule_with, BraidConfig, BraidSchedule, BraidTrace, Policy, TraceSink};
use scq_core::{run_toolflow_timed, ArtifactContext, PipelineRunner, ToolflowConfig};
use scq_ir::{Circuit, DependencyDag, InteractionGraph};
use scq_layout::place;
use scq_mesh::Path;
use scq_serve::parallel_map;
use scq_teleport::{
    schedule_planar, schedule_planar_with, schedule_simd, simulate_epr_distribution,
    simulate_epr_on_fabric, CongestionAwarePlacement, DistributionPolicy, EprConfig, EprDemand,
    FabricEprConfig, FabricRun, PlanarConfig, PlanarMachine, SimdConfig,
};

const CODE_DISTANCE: u32 = 5;
/// Timed runs per engine point; the median is reported.
const RUNS_PER_POINT: usize = 3;
/// Swap lanes per link for the constrained-fabric EPR points.
const EPR_LANES: u32 = 2;
/// Dead-resource rate for the degradation study (paper comparison on
/// non-ideal hardware).
const DEFECT_RATE: f64 = 0.02;
/// Seed for defect sampling and transient-fault draws — fixed so
/// `BENCH_epr.json` is machine-independent.
const DEFECT_SEED: u64 = 20702;
/// Committed ceiling on the makespan inflation any degradation row may
/// show at [`DEFECT_RATE`].
const DEGRADATION_ENVELOPE: f64 = 8.0;
/// Floor on the geomean speedup over the reference engine (measured
/// ~8x; a drop to 3x means the event-driven engine lost most of its
/// edge, far beyond timing noise).
const GEOMEAN_FLOOR: f64 = 3.0;
/// Ceiling on the `estimate` pass's share of the toolflow, on the first
/// calls and on the warm calls alike (measured well under 0.1%: a
/// calibration-table row plus the closed-form model).
const E2E_ESTIMATE_SHARE: f64 = 0.01;
/// Ceiling on the grid's summed braid certify passes over its summed
/// fast-engine schedules: certifying a schedule may cost at most half
/// of computing it.
const CERTIFY_OVER_FAST: f64 = 0.5;

struct Point {
    app: &'static str,
    policy: usize,
    cycles: u64,
    /// Adaptive routing attempts, the count that explains the
    /// contended points' times.
    adaptive_routes: u64,
    /// The attempts that ran the adaptive search (the exact flood
    /// prunes the rest), and the row words those searches touched.
    adaptive_searches: u64,
    search_words: u64,
    fast_secs: f64,
    ref_secs: f64,
}

/// One app's full toolflow wall clock, estimate included.
struct E2ePoint {
    app: &'static str,
    /// The app's first call in the process.
    first_secs: f64,
    /// The `estimate` pass of the first call.
    first_estimate_secs: f64,
    /// Median of three later calls.
    warm_secs: f64,
    /// The `estimate` pass of one warm call.
    warm_estimate_secs: f64,
    /// The first call's passes, in the order they ran.
    passes: Vec<&'static str>,
}

impl Point {
    fn speedup(&self) -> f64 {
        self.ref_secs / self.fast_secs.max(1e-12)
    }

    fn cycles_per_sec_fast(&self) -> f64 {
        self.cycles as f64 / self.fast_secs.max(1e-12)
    }
}

/// Counts a braid run's adaptive searches and the row words their
/// sweeps touched.
#[derive(Default)]
struct SearchCount {
    searches: u64,
    words: u64,
}

impl TraceSink for SearchCount {
    fn record(&mut self, _op: u32, _leg: u8, _open: u64, _close: u64, path: Path) -> Option<Path> {
        Some(path)
    }

    fn searched(&mut self, _route: &Path, words: u32) {
        self.searches += 1;
        self.words += u64::from(words);
    }
}

/// One fig6 point scheduled once more through a [`SearchCount`], on the
/// policy's paired layout as `run_policy` schedules it.
fn count_searches(circuit: &Circuit, policy: Policy) -> (BraidSchedule, SearchCount) {
    let dag = DependencyDag::from_circuit(circuit);
    let layout = place(
        &InteractionGraph::from_circuit(circuit),
        policy.layout_strategy(),
    );
    let config = BraidConfig {
        policy,
        code_distance: CODE_DISTANCE,
        ..Default::default()
    };
    let mut count = SearchCount::default();
    let braid = schedule_with(circuit, &dag, &layout, &config, None, &mut count);
    (or_die(braid, "fig6 workload failed to schedule"), count)
}

/// Checks the geomean speedup over the reference against
/// [`GEOMEAN_FLOOR`].
fn check_geomean(geomean: f64) -> Result<String, String> {
    if geomean < GEOMEAN_FLOOR {
        return Err(format!(
            "{geomean:.2}x over the reference engine fell below the floor {GEOMEAN_FLOOR:.1}x"
        ));
    }
    Ok(format!(
        "{geomean:.2}x >= {GEOMEAN_FLOOR:.1}x over the reference engine"
    ))
}

/// Checks that every app's first toolflow call ran exactly
/// [`PIPELINE_STAGES`], in order: a renamed, dropped or reordered pass
/// would silently shift the `pass_secs` trajectory.
fn check_pass_order(rows: &[E2ePoint]) -> Result<String, String> {
    for p in rows {
        if p.passes != PIPELINE_STAGES {
            return Err(format!(
                "{}: the pipeline ran {:?}, not {PIPELINE_STAGES:?}",
                p.app, p.passes
            ));
        }
    }
    Ok(format!(
        "{} apps ran the {} stages in order",
        rows.len(),
        PIPELINE_STAGES.len()
    ))
}

/// Checks the `e2e` rows: one for every fig6 app (the Table 2
/// benchmarks), and the summed `estimate` passes within
/// [`E2E_ESTIMATE_SHARE`] of the summed toolflow, first calls and warm
/// calls each. Both bounds are ratios of times taken in one process, so
/// a uniformly slower machine does not trip them; an `estimate` that
/// measures its profile instead of reading the calibration table does,
/// on the first calls.
fn check_e2e(rows: &[E2ePoint]) -> Result<String, String> {
    if let Some(bench) = Benchmark::TABLE2
        .iter()
        .find(|b| !rows.iter().any(|p| p.app == b.name()))
    {
        return Err(format!("no row for {}", bench.name()));
    }
    let sum = |secs: fn(&E2ePoint) -> f64| rows.iter().map(secs).sum::<f64>();
    let first = sum(|p| p.first_secs);
    let first_estimate = sum(|p| p.first_estimate_secs);
    let warm = sum(|p| p.warm_secs);
    let warm_estimate = sum(|p| p.warm_estimate_secs);
    for (calls, estimate, toolflow) in [
        ("first", first_estimate, first),
        ("warm", warm_estimate, warm),
    ] {
        if estimate > E2E_ESTIMATE_SHARE * toolflow {
            return Err(format!(
                "{calls}-call estimate passes {:.3}ms exceed {E2E_ESTIMATE_SHARE} x the {calls} \
                 calls' {:.1}ms (is calibration read from its table?)",
                estimate * 1e3,
                toolflow * 1e3
            ));
        }
    }
    Ok(format!(
        "{} apps, estimate share {:.5} of the first calls and {:.5} of the warm calls <= \
         {E2E_ESTIMATE_SHARE}",
        rows.len(),
        first_estimate / first,
        warm_estimate / warm
    ))
}

/// Checks the braid certifier against [`CERTIFY_OVER_FAST`]: its
/// summed certify passes over the fast engine's summed schedules of the
/// same grid, both medians of [`RUNS_PER_POINT`] runs per point taken
/// in one process, so a uniformly slower machine does not trip it. A
/// run that certified no interval fails rather than passing vacuously.
fn check_certify(certify_secs: f64, total_fast: f64, intervals: u64) -> Result<String, String> {
    if intervals == 0 {
        return Err("the certify passes checked no interval".into());
    }
    let ratio = certify_secs / total_fast.max(1e-12);
    let per_interval = format!(
        "{:.1} ns per interval over {intervals}",
        certify_secs * 1e9 / intervals as f64
    );
    if ratio > CERTIFY_OVER_FAST {
        return Err(format!(
            "certify passes {:.1}ms exceed {CERTIFY_OVER_FAST} x the fast grid's {:.1}ms \
             ({per_interval})",
            certify_secs * 1e3,
            total_fast * 1e3
        ));
    }
    Ok(format!(
        "certify/fast {ratio:.3} <= {CERTIFY_OVER_FAST}, {per_interval}"
    ))
}

/// The router and link intervals the braid certifier checks in
/// `trace`: every event holds each router and each link of its path.
fn intervals(trace: &BraidTrace) -> u64 {
    let holds = |n: usize| (2 * n).saturating_sub(1) as u64;
    trace
        .events
        .iter()
        .map(|ev| holds(ev.path.nodes().len()))
        .sum()
}

/// [`RUNS_PER_POINT`] certified runs of `runner` on a fig6 workload at
/// the report's distance: the median seconds their certify pass took,
/// and the intervals of the braid trace it certified (0 without one).
/// Any finding fails the report.
fn certified(
    (bench, circuit): &(Benchmark, Circuit),
    policy: Policy,
    runner: PipelineRunner,
) -> (f64, u64) {
    let config = ToolflowConfig::pinned(policy, CODE_DISTANCE);
    let runner = runner.certified();
    let mut secs = [0.0; RUNS_PER_POINT];
    let mut checked = 0;
    for s in &mut secs {
        let mut cx = ArtifactContext::for_circuit(circuit, config);
        let trace = or_die(runner.run(&mut cx), "fig6 workload failed to schedule");
        let findings = cx.findings();
        assert!(findings.is_empty(), "{}: {findings:?}", bench.name());
        *s = trace.pass_secs("certify-");
        checked = cx.braid_trace().map_or(0, intervals);
    }
    secs.sort_by(f64::total_cmp);
    (secs[RUNS_PER_POINT / 2], checked)
}

fn main() {
    let workloads = fig6_workloads();
    let mut points = Vec::new();
    for (bench, circuit) in &workloads {
        for &policy in &Policy::ALL {
            let (fast, fast_secs) = timed_median3(|| run_policy(circuit, policy, CODE_DISTANCE));
            let (naive, ref_secs) =
                timed_median3(|| run_policy_reference(circuit, policy, CODE_DISTANCE));
            assert_eq!(fast, naive, "{} {policy}: engines diverged", bench.name());
            let (counted, searches) = count_searches(circuit, policy);
            assert_eq!(
                fast,
                counted,
                "{} {policy}: counting moved the schedule",
                bench.name()
            );
            points.push(Point {
                app: bench.name(),
                policy: policy.index(),
                cycles: fast.cycles,
                adaptive_routes: fast.adaptive_routes,
                adaptive_searches: searches.searches,
                search_words: searches.words,
                fast_secs,
                ref_secs,
            });
        }
    }

    // Grid wall-clock with the parallel driver (fast engine only).
    let grid: Vec<(usize, Policy)> = (0..workloads.len())
        .flat_map(|w| Policy::ALL.iter().map(move |&p| (w, p)))
        .collect();
    let t0 = Instant::now();
    let _ = parallel_map(&grid, |&(w, policy)| {
        run_policy(&workloads[w].1, policy, CODE_DISTANCE)
    });
    let parallel_grid_secs = t0.elapsed().as_secs_f64();

    // Certifier time over the same grid: each certified run times its
    // certify-braid pass apart from the scheduling before it, so the
    // figure is the cost of *verification* alone. The guarded fast/ref
    // timings above run lists that never certify.
    let (certify_secs, certify_intervals) = grid
        .iter()
        .map(|&(w, policy)| certified(&workloads[w], policy, PipelineRunner::braid()))
        .fold((0.0, 0), |(secs, n), (s, i)| (secs + s, n + i));

    // Per-pass wall clock of the artifact pipeline: one timed toolflow
    // run per fig6 app at the report's pinned distance, durations
    // summed per stage under its `PIPELINE_STAGES` key (a pass outside
    // that list fails `check_pass_order` once the reports are written).
    // That run is the app's first toolflow call in this process, so
    // `pass_secs` is the cold breakdown; three more runs give the warm
    // end-to-end time the `e2e` section records beside it.
    let mut pass_secs = vec![0.0f64; PIPELINE_STAGES.len()];
    let mut e2e = Vec::new();
    for (bench, _) in &workloads {
        let config = ToolflowConfig {
            code_distance: Some(CODE_DISTANCE),
            ..Default::default()
        };
        let timed = || {
            or_die(
                run_toolflow_timed(*bench, &config),
                &format!("{}: timed toolflow failed", bench.name()),
            )
            .1
        };
        let t0 = Instant::now();
        let trace = timed();
        let first_secs = t0.elapsed().as_secs_f64();
        for t in &trace.timings {
            if let Some(slot) = PIPELINE_STAGES.iter().position(|n| *n == t.pass) {
                pass_secs[slot] += t.duration.as_secs_f64();
            }
        }
        let (warm_trace, warm_secs) = timed_median3(timed);
        let warm_estimate_secs = warm_trace.pass_secs("estimate");
        e2e.push(E2ePoint {
            app: bench.name(),
            first_secs,
            first_estimate_secs: trace.pass_secs("estimate"),
            warm_secs,
            warm_estimate_secs,
            passes: trace.timings.iter().map(|t| t.pass).collect(),
        });
    }

    let total_fast: f64 = points.iter().map(|p| p.fast_secs).sum();
    let total_ref: f64 = points.iter().map(|p| p.ref_secs).sum();
    let geomean_speedup =
        (points.iter().map(|p| p.speedup().ln()).sum::<f64>() / points.len() as f64).exp();

    println!(
        "Scheduler perf report (d = {CODE_DISTANCE}, fig6 grid, {} points, median of \
         {RUNS_PER_POINT} runs)",
        points.len()
    );
    println!();
    println!(
        "{:<10} {:>6} {:>10} {:>9} {:>9} {:>9} {:>12} {:>12} {:>9} {:>14}",
        "app",
        "policy",
        "cycles",
        "adaptive",
        "searches",
        "words",
        "fast",
        "reference",
        "speedup",
        "cycles/s fast"
    );
    for p in &points {
        println!(
            "{:<10} {:>6} {:>10} {:>9} {:>9} {:>9} {:>11.3}ms {:>11.3}ms {:>8.1}x {:>14.2e}",
            p.app,
            format!("P{}", p.policy),
            p.cycles,
            p.adaptive_routes,
            p.adaptive_searches,
            p.search_words,
            p.fast_secs * 1e3,
            p.ref_secs * 1e3,
            p.speedup(),
            p.cycles_per_sec_fast(),
        );
    }
    println!();
    println!(
        "grid totals: fast {:.1}ms, reference {:.1}ms, aggregate speedup {:.1}x, geomean {:.1}x",
        total_fast * 1e3,
        total_ref * 1e3,
        total_ref / total_fast.max(1e-12),
        geomean_speedup
    );
    println!(
        "parallel grid wall-clock (fast engine): {:.1}ms",
        parallel_grid_secs * 1e3
    );
    println!(
        "grid certification (certify-braid passes, summed): {:.1}ms over {certify_intervals} \
         intervals, {:.1} ns per interval",
        certify_secs * 1e3,
        certify_secs * 1e9 / certify_intervals.max(1) as f64
    );
    println!("\npipeline pass breakdown (summed over the fig6 apps):");
    for (name, s) in PIPELINE_STAGES.iter().zip(&pass_secs) {
        println!("  {name:<20} {:>9.3}ms", s * 1e3);
    }
    println!("\nend-to-end toolflow (first call, then the median of {RUNS_PER_POINT} warm calls):");
    for p in &e2e {
        println!(
            "  {:<20} first {:>9.3}ms  warm {:>9.3}ms  warm estimate {:>9.4}ms",
            p.app,
            p.first_secs * 1e3,
            p.warm_secs * 1e3,
            p.warm_estimate_secs * 1e3
        );
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"code_distance\": {CODE_DISTANCE},");
    let _ = writeln!(json, "  \"runs_per_point\": {RUNS_PER_POINT},");
    let _ = writeln!(json, "  \"points\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"app\": \"{}\", \"policy\": {}, \"cycles\": {}, \"adaptive_routes\": {}, \"adaptive_searches\": {}, \"search_words\": {}, \"fast_secs\": {:.6}, \"ref_secs\": {:.6}, \"speedup\": {:.2}, \"cycles_per_sec_fast\": {:.3e}}}{comma}",
            p.app, p.policy, p.cycles, p.adaptive_routes, p.adaptive_searches, p.search_words, p.fast_secs, p.ref_secs, p.speedup(), p.cycles_per_sec_fast()
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"total_fast_secs\": {total_fast:.6},");
    let _ = writeln!(json, "  \"total_ref_secs\": {total_ref:.6},");
    let _ = writeln!(
        json,
        "  \"aggregate_speedup\": {:.2},",
        total_ref / total_fast.max(1e-12)
    );
    let _ = writeln!(json, "  \"geomean_speedup\": {geomean_speedup:.2},");
    let _ = writeln!(json, "  \"parallel_grid_secs\": {parallel_grid_secs:.6},");
    let _ = writeln!(json, "  \"pass_secs\": {{");
    for (i, (name, s)) in PIPELINE_STAGES.iter().zip(&pass_secs).enumerate() {
        let comma = if i + 1 < PIPELINE_STAGES.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(json, "    \"{name}\": {s:.6}{comma}");
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"e2e\": [");
    for (i, p) in e2e.iter().enumerate() {
        let comma = if i + 1 < e2e.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"app\": \"{}\", \"first_secs\": {:.3e}, \"warm_secs\": {:.3e}, \"warm_estimate_secs\": {:.3e}}}{comma}",
            p.app, p.first_secs, p.warm_secs, p.warm_estimate_secs
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"certify_secs\": {certify_secs:.6},");
    let _ = writeln!(json, "  \"certify_intervals\": {certify_intervals}");
    json.push('}');
    json.push('\n');
    write_report("BENCH_sched.json", &json);

    let (placement, degradation) = epr_report(&workloads);
    println!();
    for (what, verdict) in [
        ("geomean scheduler speedup", check_geomean(geomean_speedup)),
        ("pipeline pass order", check_pass_order(&e2e)),
        ("end-to-end toolflow", check_e2e(&e2e)),
        (
            "braid certification",
            check_certify(certify_secs, total_fast, certify_intervals),
        ),
        ("placement ablation", check_placement(&placement)),
        ("degradation study", check_degradation(&degradation)),
    ] {
        println!("ok: {what}: {}", or_die(verdict, what));
    }
}

/// One EPR point: an application's Multi-SIMD demand trace run through
/// the legacy flow model, the unlimited-capacity fabric (asserted equal
/// — the differential oracle), and the constrained fabric (the
/// contention the flow model cannot see).
struct EprPoint {
    app: &'static str,
    teleports: usize,
    flow_secs: f64,
    fabric_secs: f64,
    makespan_free: u64,
    makespan_constrained: u64,
    link_stall_cycles: u64,
    peak_in_flight: usize,
}

/// One placement-ablation point: the constrained fabric scheduled on
/// the baseline row-major floorplan versus the congestion-aware
/// profile-then-place floorplan (same demand trace, same lanes).
struct PlacementPoint {
    app: &'static str,
    baseline_makespan: u64,
    optimized_makespan: u64,
    baseline_lane_stalls: u64,
    optimized_lane_stalls: u64,
    moves_accepted: usize,
    evaluations: usize,
    place_secs: f64,
}

impl EprPoint {
    /// Fractional latency added purely by link contention.
    fn contention_added(&self) -> f64 {
        self.makespan_constrained as f64 / self.makespan_free.max(1) as f64 - 1.0
    }
}

/// Checks that the congestion-aware floorplan never regresses the
/// baseline's makespan or lane stalls. The optimizer only accepts
/// strictly improving moves, so this is an invariant of the algorithm,
/// not of this machine's timing.
fn check_placement(rows: &[PlacementPoint]) -> Result<String, String> {
    if rows.is_empty() {
        return Err("no placement rows".into());
    }
    for p in rows {
        if p.optimized_makespan > p.baseline_makespan {
            return Err(format!(
                "{}: optimized makespan {} exceeds baseline {}",
                p.app, p.optimized_makespan, p.baseline_makespan
            ));
        }
        if p.optimized_lane_stalls > p.baseline_lane_stalls {
            return Err(format!(
                "{}: optimized lane stalls {} exceed baseline {}",
                p.app, p.optimized_lane_stalls, p.baseline_lane_stalls
            ));
        }
    }
    Ok(format!("optimized <= baseline on all {} rows", rows.len()))
}

/// One degradation row: a fig6 application on one backend, clean versus
/// 2%-defective hardware (same seed for sampling and transient faults).
struct DegradationPoint {
    app: &'static str,
    backend: &'static str,
    clean_makespan: u64,
    /// Whether the run on a rate-0 defect map reproduced the clean
    /// schedule exactly: an empty map must be no map at all.
    rate0_is_clean: bool,
    /// Degraded makespan, or the structured diagnostic when the
    /// defects cut the machine apart.
    outcome: Result<u64, String>,
    /// On a completed teleport row, the makespan of the degraded run's
    /// floorplan replayed on a clean fabric: what the moved floorplan
    /// costs without the defects.
    replay_makespan: Option<u64>,
}

impl DegradationPoint {
    fn multiplier(&self) -> Option<f64> {
        self.outcome
            .as_ref()
            .ok()
            .map(|&m| m as f64 / self.clean_makespan.max(1) as f64)
    }

    /// Degraded over replay makespan: the slowdown the defects cause on
    /// the floorplan they forced, apart from the floorplan's own.
    fn defect_only_multiplier(&self) -> Option<f64> {
        let degraded = *self.outcome.as_ref().ok()?;
        let replay = self.replay_makespan?;
        Some(degraded as f64 / replay.max(1) as f64)
    }
}

/// Checks the degradation study: every row's rate-0 run equals its
/// clean schedule, every completed row stays within
/// [`DEGRADATION_ENVELOPE`], every completed teleport row's defects
/// cost at least nothing on their own floorplan (defect-only
/// multiplier >= 1), and at least one row completed. Schedules are
/// cycle-deterministic, so a failure is a routing or scheduling
/// regression, never timing noise.
fn check_degradation(rows: &[DegradationPoint]) -> Result<String, String> {
    for p in rows {
        if !p.rate0_is_clean {
            return Err(format!(
                "{} ({}): the rate-0 schedule differs from the clean one",
                p.app, p.backend
            ));
        }
        if let Some(m) = p.multiplier().filter(|&m| m > DEGRADATION_ENVELOPE) {
            return Err(format!(
                "{} ({}): degradation multiplier {m:.2}x exceeds the envelope \
                 {DEGRADATION_ENVELOPE}x",
                p.app, p.backend
            ));
        }
        if let (Ok(&degraded), "teleport") = (p.outcome.as_ref(), p.backend) {
            let Some(replay) = p.replay_makespan else {
                return Err(format!(
                    "{} ({}): the degraded floorplan has no clean replay",
                    p.app, p.backend
                ));
            };
            if degraded < replay {
                return Err(format!(
                    "{} ({}): defect-only multiplier {:.3}x ({degraded} / {replay}) is below \
                     1: the defects sped up their own floorplan",
                    p.app,
                    p.backend,
                    p.defect_only_multiplier().unwrap_or(0.0)
                ));
            }
        }
    }
    let completed = rows.iter().filter(|p| p.outcome.is_ok()).count();
    if completed == 0 {
        return Err(format!(
            "no degradation row completed at rate {DEFECT_RATE} (all unroutable?)"
        ));
    }
    Ok(format!(
        "{} rows equal their clean schedules at rate 0, {completed} completed within \
         {DEGRADATION_ENVELOPE}x at rate {DEFECT_RATE}, defect-only multipliers >= 1",
        rows.len()
    ))
}

/// Runs the (defect-rate x app) degradation study on both backends,
/// each row also on a rate-0 map. Every row either completes with a
/// multiplier or reports a structured unroutable diagnostic — a panic
/// or hang here is a bug.
fn degradation_report(
    workloads: &[(scq_apps::Benchmark, scq_ir::Circuit)],
) -> Vec<DegradationPoint> {
    let grid: Vec<(usize, &'static str)> = (0..workloads.len())
        .flat_map(|w| ["braid", "teleport"].into_iter().map(move |b| (w, b)))
        .collect();
    parallel_map(&grid, |&(w, backend)| {
        let (bench, circuit) = &workloads[w];
        let (clean_makespan, rate0_is_clean, outcome, replay_makespan) = match backend {
            "braid" => {
                let clean = run_policy(circuit, Policy::P6, CODE_DISTANCE);
                let on = |rate| {
                    run_policy_on_defects(circuit, Policy::P6, CODE_DISTANCE, rate, DEFECT_SEED)
                };
                let degraded = on(DEFECT_RATE).map(|s| s.cycles);
                (
                    clean.cycles,
                    on(0.0).is_ok_and(|s| s == clean),
                    degraded,
                    None,
                )
            }
            _ => {
                let dag = DependencyDag::from_circuit(circuit);
                let config = PlanarConfig {
                    code_distance: CODE_DISTANCE,
                    ..Default::default()
                };
                let clean = schedule_planar(circuit, &dag, &config);
                let on = |rate| run_planar_on_defects(circuit, CODE_DISTANCE, rate, DEFECT_SEED);
                let degraded = on(DEFECT_RATE);
                // The degraded run's floorplan on a clean fabric.
                let replay = degraded.as_ref().ok().and_then(|s| {
                    let floorplan = FixedFloorplan(s.machine.clone());
                    let run = FabricRun::default();
                    schedule_planar_with(circuit, &dag, &config, &floorplan, &run).ok()
                });
                (
                    clean.cycles,
                    on(0.0).is_ok_and(|s| s == clean),
                    degraded.map(|s| s.cycles),
                    replay.map(|(s, _)| s.cycles),
                )
            }
        };
        DegradationPoint {
            app: bench.name(),
            backend,
            clean_makespan,
            rate0_is_clean,
            outcome: outcome.map_err(|e| e.to_string()),
            replay_makespan,
        }
    })
}

/// Measures and writes `BENCH_epr.json`, returning the placement and
/// degradation rows for the checks.
fn epr_report(
    workloads: &[(scq_apps::Benchmark, scq_ir::Circuit)],
) -> (Vec<PlacementPoint>, Vec<DegradationPoint>) {
    let epr = EprConfig::default();
    let policy = DistributionPolicy::JustInTime { window: 64 };
    let mut points = Vec::new();
    let mut placement_points = Vec::new();
    for (bench, circuit) in workloads {
        let dag = DependencyDag::from_circuit(circuit);
        let simd = schedule_simd(circuit, &dag, &SimdConfig::default());
        let machine = PlanarMachine::new(circuit.num_qubits(), None);
        let requests = machine.requests_for(&simd);
        let demands: Vec<EprDemand> = requests
            .iter()
            .map(|r| EprDemand {
                time: r.time,
                distance: r.src.manhattan(r.dst),
            })
            .collect();

        let t0 = Instant::now();
        let flow = simulate_epr_distribution(&demands, policy, &epr);
        let flow_secs = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let free = simulate_epr_on_fabric(
            &requests,
            policy,
            &FabricEprConfig::unlimited(epr),
            machine.topology,
        );
        let fabric_secs = t0.elapsed().as_secs_f64();
        assert_eq!(
            free.pipeline,
            flow,
            "{}: fabric diverged from the flow oracle",
            bench.name()
        );

        let tight = simulate_epr_on_fabric(
            &requests,
            policy,
            &FabricEprConfig {
                epr,
                link_capacity: EPR_LANES,
            },
            machine.topology,
        );
        points.push(EprPoint {
            app: bench.name(),
            teleports: requests.len(),
            flow_secs,
            fabric_secs,
            makespan_free: free.pipeline.makespan,
            makespan_constrained: tight.pipeline.makespan,
            link_stall_cycles: tight.link_stall_cycles,
            peak_in_flight: tight.peak_in_flight,
        });

        // Placement ablation on the same constrained point: feed the
        // fabric heatmap back into data-tile positions and re-measure.
        // code_distance 1 keeps fabric_config() at the same raw
        // hop_cycles the rows above were measured with.
        let planar = PlanarConfig {
            epr,
            policy,
            code_distance: 1,
            link_capacity: EPR_LANES,
            epr_factories: None,
            ..Default::default()
        };
        let t0 = Instant::now();
        let placed = CongestionAwarePlacement.place_traced(
            circuit.num_qubits(),
            &planar,
            &simd,
            &FabricRun::default(),
        );
        let place_secs = t0.elapsed().as_secs_f64();
        let (_, outcome) = or_die(placed, &format!("{}: placement failed", bench.name()));
        assert_eq!(
            outcome.baseline.makespan,
            tight.pipeline.makespan,
            "{}: placement baseline diverged from the constrained fabric row",
            bench.name()
        );
        placement_points.push(PlacementPoint {
            app: bench.name(),
            baseline_makespan: outcome.baseline.makespan,
            optimized_makespan: outcome.optimized.makespan,
            baseline_lane_stalls: outcome.baseline.lane_stalls,
            optimized_lane_stalls: outcome.optimized.lane_stalls,
            moves_accepted: outcome.moves_accepted,
            evaluations: outcome.evaluations,
            place_secs,
        });
    }

    println!("\nEPR fabric report (JIT window 64, {EPR_LANES} lanes/link vs unlimited)");
    println!();
    println!(
        "{:<10} {:>9} {:>10} {:>10} {:>11} {:>11} {:>12} {:>12}",
        "app",
        "teleports",
        "flow",
        "fabric",
        "free span",
        "tight span",
        "contention+",
        "lane stalls"
    );
    for p in &points {
        println!(
            "{:<10} {:>9} {:>9.3}ms {:>9.3}ms {:>11} {:>11} {:>11.2}% {:>12}",
            p.app,
            p.teleports,
            p.flow_secs * 1e3,
            p.fabric_secs * 1e3,
            p.makespan_free,
            p.makespan_constrained,
            p.contention_added() * 100.0,
            p.link_stall_cycles,
        );
    }
    assert!(
        points.iter().any(|p| p.contention_added() > 0.0),
        "constrained fabric showed no contention anywhere"
    );

    println!("\nPlacement ablation (congestion-aware vs baseline, {EPR_LANES} lanes/link)");
    println!();
    println!(
        "{:<10} {:>10} {:>10} {:>12} {:>12} {:>6} {:>6} {:>9}",
        "app", "base span", "opt span", "base stalls", "opt stalls", "moves", "evals", "place"
    );
    for p in &placement_points {
        println!(
            "{:<10} {:>10} {:>10} {:>12} {:>12} {:>6} {:>6} {:>8.1}ms",
            p.app,
            p.baseline_makespan,
            p.optimized_makespan,
            p.baseline_lane_stalls,
            p.optimized_lane_stalls,
            p.moves_accepted,
            p.evaluations,
            p.place_secs * 1e3,
        );
    }
    assert!(
        placement_points
            .iter()
            .any(|p| p.optimized_makespan <= p.baseline_makespan
                && p.optimized_lane_stalls < p.baseline_lane_stalls),
        "congestion-aware placement improved no contended point"
    );

    // Planar certifier time: the certify-planar pass of each
    // workload's certified run, apart from its scheduling.
    let certify_secs: f64 = workloads
        .iter()
        .map(|workload| certified(workload, Policy::P6, PipelineRunner::planar()).0)
        .sum();
    println!(
        "\nplanar certification (certify-planar passes, summed): {:.1}ms",
        certify_secs * 1e3
    );

    let degradation = degradation_report(workloads);
    println!(
        "\nDegradation study ({:.0}% sampled defects, seed {DEFECT_SEED}, envelope {DEGRADATION_ENVELOPE}x)",
        DEFECT_RATE * 100.0
    );
    println!();
    println!(
        "{:<10} {:>9} {:>12} {:>12} {:>11} {:>12}",
        "app", "backend", "clean span", "degraded", "multiplier", "defect-only"
    );
    for p in &degradation {
        match &p.outcome {
            Ok(m) => println!(
                "{:<10} {:>9} {:>12} {:>12} {:>10.2}x {:>12}",
                p.app,
                p.backend,
                p.clean_makespan,
                m,
                p.multiplier().unwrap_or(0.0),
                p.defect_only_multiplier()
                    .map_or_else(|| "-".to_string(), |d| format!("{d:.3}x")),
            ),
            Err(e) => println!(
                "{:<10} {:>9} {:>12} {:>12}  unroutable: {e}",
                p.app, p.backend, p.clean_makespan, "-",
            ),
        }
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"policy\": \"jit_window_64\",");
    let _ = writeln!(json, "  \"constrained_link_capacity\": {EPR_LANES},");
    let _ = writeln!(json, "  \"points\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"app\": \"{}\", \"teleports\": {}, \"flow_secs\": {:.6}, \"fabric_secs\": {:.6}, \"makespan_free\": {}, \"makespan_constrained\": {}, \"contention_added_latency\": {:.4}, \"link_stall_cycles\": {}, \"peak_in_flight\": {}}}{comma}",
            p.app,
            p.teleports,
            p.flow_secs,
            p.fabric_secs,
            p.makespan_free,
            p.makespan_constrained,
            p.contention_added(),
            p.link_stall_cycles,
            p.peak_in_flight,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"placement\": [");
    for (i, p) in placement_points.iter().enumerate() {
        let comma = if i + 1 < placement_points.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            json,
            "    {{\"app\": \"{}\", \"baseline_makespan\": {}, \"optimized_makespan\": {}, \"baseline_lane_stalls\": {}, \"optimized_lane_stalls\": {}, \"moves_accepted\": {}, \"evaluations\": {}, \"place_secs\": {:.6}}}{comma}",
            p.app,
            p.baseline_makespan,
            p.optimized_makespan,
            p.baseline_lane_stalls,
            p.optimized_lane_stalls,
            p.moves_accepted,
            p.evaluations,
            p.place_secs,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"certify_secs\": {certify_secs:.6},");
    let _ = writeln!(json, "  \"defect_rate\": {DEFECT_RATE},");
    let _ = writeln!(json, "  \"defect_seed\": {DEFECT_SEED},");
    let _ = writeln!(json, "  \"degradation_envelope\": {DEGRADATION_ENVELOPE},");
    let _ = writeln!(json, "  \"degradation\": [");
    for (i, p) in degradation.iter().enumerate() {
        let comma = if i + 1 < degradation.len() { "," } else { "" };
        match &p.outcome {
            Ok(m) => {
                let defect_only = p.defect_only_multiplier().map_or_else(String::new, |d| {
                    format!(", \"defect_only_multiplier\": {d:.4}")
                });
                let _ = writeln!(
                    json,
                    "    {{\"app\": \"{}\", \"backend\": \"{}\", \"clean_makespan\": {}, \"degraded_makespan\": {}, \"degradation_multiplier\": {:.4}{defect_only}, \"status\": \"ok\"}}{comma}",
                    p.app,
                    p.backend,
                    p.clean_makespan,
                    m,
                    p.multiplier().unwrap_or(0.0),
                );
            }
            Err(e) => {
                let _ = writeln!(
                    json,
                    "    {{\"app\": \"{}\", \"backend\": \"{}\", \"clean_makespan\": {}, \"status\": \"unroutable\", \"error\": \"{}\"}}{comma}",
                    p.app,
                    p.backend,
                    p.clean_makespan,
                    e.replace('"', "'"),
                );
            }
        }
    }
    let _ = writeln!(json, "  ]");
    json.push('}');
    json.push('\n');
    write_report("BENCH_epr.json", &json);
    (placement_points, degradation)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_check_holds_the_floor() {
        assert!(check_geomean(3.0).is_ok());
        assert!(check_geomean(2.99).unwrap_err().contains("floor"));
    }

    #[test]
    fn certify_check_holds_half_the_fast_grid() {
        // The shape of a measured run: 0.20 s of certify passes over
        // 3.7M intervals against 0.45 s of fast schedules.
        let verdict = check_certify(0.20, 0.45, 3_700_000);
        assert!(
            verdict
                .as_ref()
                .is_ok_and(|s| s.contains("54.1 ns per interval")),
            "{verdict:?}"
        );
        assert!(check_certify(0.225, 0.45, 3_700_000).is_ok());
        // The HashMap certifier this check was written against: 0.549 s
        // of certify passes against 0.492 s of fast schedules.
        let err = check_certify(0.549, 0.492, 3_700_000).unwrap_err();
        assert!(err.contains("exceed 0.5 x"), "{err}");
        assert!(check_certify(0.0, 0.45, 0)
            .unwrap_err()
            .contains("no interval"));
    }

    /// One `e2e` row per fig6 app, in order, from `(first, first
    /// estimate, warm, warm estimate)` seconds; every first call ran the
    /// standard pipeline.
    fn e2e_rows(rows: &[(f64, f64, f64, f64)]) -> Vec<E2ePoint> {
        Benchmark::TABLE2
            .iter()
            .zip(rows)
            .map(
                |(b, &(first, first_estimate, warm, warm_estimate))| E2ePoint {
                    app: b.name(),
                    first_secs: first,
                    first_estimate_secs: first_estimate,
                    warm_secs: warm,
                    warm_estimate_secs: warm_estimate,
                    passes: PIPELINE_STAGES.to_vec(),
                },
            )
            .collect()
    }

    /// The rows of a measured run with SHA-1's first call's passes
    /// replaced by `passes`.
    fn sha1_ran(passes: Vec<&'static str>) -> Vec<E2ePoint> {
        let mut rows = e2e_rows(&[(0.01, 1e-6, 0.01, 1e-6); 4]);
        rows[2].passes = passes;
        rows
    }

    #[test]
    fn pass_order_check_accepts_the_standard_pipeline() {
        let verdict = check_pass_order(&sha1_ran(PIPELINE_STAGES.to_vec()));
        assert_eq!(verdict, Ok("4 apps ran the 7 stages in order".to_string()));
    }

    #[test]
    fn pass_order_check_rejects_a_missing_stage() {
        let mut passes = PIPELINE_STAGES.to_vec();
        passes.retain(|&s| s != "layout");
        assert!(check_pass_order(&sha1_ran(passes))
            .unwrap_err()
            .starts_with("SHA-1:"));
    }

    #[test]
    fn pass_order_check_rejects_a_swapped_pair() {
        // `estimate` moved ahead of `planar-schedule`: every stage is
        // present, so only the order can catch it.
        let mut passes = PIPELINE_STAGES.to_vec();
        passes.swap(5, 6);
        assert_eq!(passes[5], "estimate");
        assert!(check_pass_order(&sha1_ran(passes)).is_err());
    }

    #[test]
    fn pass_order_check_rejects_an_unknown_pass() {
        let mut passes = PIPELINE_STAGES.to_vec();
        passes.push("route-epr");
        assert!(check_pass_order(&sha1_ran(passes))
            .unwrap_err()
            .contains("route-epr"));
    }

    #[test]
    fn e2e_check_accepts_table_calibrated_rows() {
        // Rows shaped like a measured run: every call reads the
        // calibration table, so first calls cost what warm ones do.
        let rows = e2e_rows(&[
            (1.3e-4, 2.1e-6, 1.1e-4, 9.2e-7),
            (4.2e-3, 9.0e-6, 3.9e-3, 7.6e-6),
            (9.1e-3, 6.3e-6, 8.5e-3, 4.2e-6),
            (1.0e-3, 2.4e-6, 8.8e-4, 1.3e-6),
        ]);
        let verdict = check_e2e(&rows);
        assert!(
            verdict.as_ref().is_ok_and(|s| s.starts_with("4 apps")),
            "{verdict:?}"
        );
    }

    #[test]
    fn e2e_check_rejects_a_missing_app() {
        let rows = e2e_rows(&[(0.01, 1e-6, 0.01, 1e-6); 3]);
        let err = check_e2e(&rows).unwrap_err();
        assert!(err.contains(Benchmark::TABLE2[3].name()), "{err}");
    }

    #[test]
    fn e2e_check_rejects_a_calibrating_first_call() {
        // The memoized toolflow this check replaced: each first call
        // measured its profile, 0.18 s of 0.20 s in all, while the warm
        // calls read the memo.
        let rows = e2e_rows(&[
            (6.6e-4, 5.4e-4, 1.1e-4, 9.2e-7),
            (2.4e-2, 2.0e-2, 3.9e-3, 7.6e-6),
            (1.6e-1, 1.5e-1, 8.5e-3, 4.2e-6),
            (9.3e-3, 8.3e-3, 8.8e-4, 1.3e-6),
        ]);
        let err = check_e2e(&rows).unwrap_err();
        assert!(err.starts_with("first-call estimate"), "{err}");
    }

    #[test]
    fn e2e_check_rejects_an_estimate_dominated_warm_toolflow() {
        // First calls are clean, yet the warm estimate is a tenth of
        // the warm toolflow.
        let rows = e2e_rows(&[(0.01, 1e-6, 0.01, 1e-3); 4]);
        let err = check_e2e(&rows).unwrap_err();
        assert!(err.starts_with("warm-call estimate"), "{err}");
    }

    /// Placement rows from `(baseline makespan, optimized makespan,
    /// baseline stalls, optimized stalls)`.
    fn placement_rows(rows: &[(u64, u64, u64, u64)]) -> Vec<PlacementPoint> {
        rows.iter()
            .map(|&(bm, om, bs, os)| PlacementPoint {
                app: "x",
                baseline_makespan: bm,
                optimized_makespan: om,
                baseline_lane_stalls: bs,
                optimized_lane_stalls: os,
                moves_accepted: 0,
                evaluations: 0,
                place_secs: 0.0,
            })
            .collect()
    }

    #[test]
    fn placement_check_accepts_non_regressions() {
        let rows = placement_rows(&[(900, 900, 14, 14), (148, 141, 4709, 3200)]);
        assert!(check_placement(&rows).is_ok());
    }

    #[test]
    fn placement_check_rejects_regressions_and_empty_rows() {
        let makespan = placement_rows(&[(900, 901, 14, 14)]);
        assert!(check_placement(&makespan).unwrap_err().contains("makespan"));
        let stalls = placement_rows(&[(900, 900, 14, 15)]);
        assert!(check_placement(&stalls).unwrap_err().contains("stalls"));
        assert!(check_placement(&[]).is_err());
    }

    /// Degradation rows on a clean makespan of 100: one completed row
    /// per multiplier, then `unroutable` rows.
    fn degradation_rows(multipliers: &[f64], unroutable: usize) -> Vec<DegradationPoint> {
        let completed = multipliers.iter().map(|m| Ok((m * 100.0).round() as u64));
        let failed = (0..unroutable).map(|_| Err("no defect-free route".to_string()));
        completed
            .chain(failed)
            .map(|outcome| DegradationPoint {
                app: "x",
                backend: "braid",
                clean_makespan: 100,
                rate0_is_clean: true,
                outcome,
                replay_makespan: None,
            })
            .collect()
    }

    /// A completed teleport row degraded to 100 cycles, its floorplan
    /// replayed clean in `replay` cycles.
    fn teleport_row(replay: Option<u64>) -> DegradationPoint {
        DegradationPoint {
            app: "x",
            backend: "teleport",
            clean_makespan: 100,
            rate0_is_clean: true,
            outcome: Ok(100),
            replay_makespan: replay,
        }
    }

    #[test]
    fn degradation_check_accepts_defects_that_cost_nothing() {
        let rows = [teleport_row(Some(100)), teleport_row(Some(98))];
        assert!(check_degradation(&rows).is_ok());
    }

    #[test]
    fn degradation_check_rejects_defects_that_beat_their_floorplan() {
        let err = check_degradation(&[teleport_row(Some(101))]).unwrap_err();
        assert!(err.contains("defect-only multiplier 0.990x"), "{err}");
        let err = check_degradation(&[teleport_row(None)]).unwrap_err();
        assert!(err.contains("no clean replay"), "{err}");
    }

    #[test]
    fn degradation_check_accepts_rows_within_the_envelope() {
        let rows = degradation_rows(&[1.0, 2.5, 7.99], 1);
        assert!(check_degradation(&rows).is_ok());
    }

    #[test]
    fn degradation_check_rejects_an_envelope_breach() {
        let rows = degradation_rows(&[1.0, 8.01], 0);
        assert!(check_degradation(&rows).unwrap_err().contains("envelope"));
    }

    #[test]
    fn degradation_check_rejects_all_rows_unroutable() {
        let rows = degradation_rows(&[], 4);
        assert!(check_degradation(&rows)
            .unwrap_err()
            .contains("no degradation row completed"));
    }

    #[test]
    fn degradation_check_rejects_a_rate0_schedule_that_moved() {
        let mut rows = degradation_rows(&[1.0, 1.5], 0);
        rows[1].rate0_is_clean = false;
        assert!(check_degradation(&rows).unwrap_err().contains("rate-0"));
    }
}
