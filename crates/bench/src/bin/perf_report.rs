//! Scheduler performance trajectory: times the event-driven engine
//! against the retained naive-stepping reference on the full Figure 6
//! (workload × policy) grid and writes `BENCH_sched.json`, then does
//! the same for the EPR side — route-aware fabric vs legacy flow model
//! — and writes `BENCH_epr.json`.
//!
//! Every braid point asserts bit-identical schedules before timing
//! counts, and every EPR point asserts the unlimited-capacity fabric
//! matches the flow oracle exactly, so the reported numbers are for
//! *the same answer*. Every timed engine point is the median of three
//! runs (`runs_per_point` in the JSON) so a one-off scheduler hiccup
//! cannot masquerade as a regression. Fast-engine points are measured
//! sequentially (stable wall-clocks), then re-run in parallel once to
//! report the fan-out wall-clock of the whole grid.

#![warn(clippy::disallowed_methods)]

use std::fmt::Write as _;
use std::time::Instant;

use scq_bench::{
    fig6_workloads, or_die, parallel_map, run_planar_on_defects, run_policy, run_policy_on_defects,
    run_policy_reference, timed_median3, write_report, PIPELINE_STAGES,
};
use scq_braid::{schedule_with, BraidConfig, EventCollector, Policy};
use scq_core::{run_toolflow_timed, ToolflowConfig};
use scq_ir::{DependencyDag, InteractionGraph};
use scq_layout::place;
use scq_teleport::{
    schedule_planar, schedule_planar_with, schedule_simd, simulate_epr_distribution,
    simulate_epr_on_fabric, BaselinePlacement, CongestionAwarePlacement, DistributionPolicy,
    EprConfig, EprDemand, FabricEprConfig, FabricRun, PlanarConfig, PlanarMachine, SimdConfig,
};
use scq_verify::{certify_braid_trace, certify_planar_schedule};

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
/// show at [`DEFECT_RATE`]; `bench_guard` fails when a regenerated row
/// exceeds it.
const DEGRADATION_ENVELOPE: f64 = 8.0;

struct Point {
    app: &'static str,
    policy: usize,
    cycles: u64,
    /// Adaptive routing attempts, the count that explains the
    /// contended points' times.
    adaptive_routes: u64,
    fast_secs: f64,
    ref_secs: f64,
}

/// One app's full toolflow wall clock, estimate included.
struct E2ePoint {
    app: &'static str,
    /// The first call: the app's cold calibration.
    first_secs: f64,
    /// Median of three later calls.
    warm_secs: f64,
    /// The `estimate` pass of one warm call.
    warm_estimate_secs: f64,
}

impl Point {
    fn speedup(&self) -> f64 {
        self.ref_secs / self.fast_secs.max(1e-12)
    }

    fn cycles_per_sec_fast(&self) -> f64 {
        self.cycles as f64 / self.fast_secs.max(1e-12)
    }
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
            points.push(Point {
                app: bench.name(),
                policy: policy.index(),
                cycles: fast.cycles,
                adaptive_routes: fast.adaptive_routes,
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

    // Certifier wall-time over the same grid: emit every traced braid
    // schedule first (untimed), then time only the independent replay,
    // so the figure is the cost of *verification*, not of scheduling
    // twice. Certification stays off the hot path — the guarded
    // fast/ref timings above never run it.
    let traced: Vec<_> = grid
        .iter()
        .map(|&(w, policy)| {
            let circuit = &workloads[w].1;
            let dag = DependencyDag::from_circuit(circuit);
            let graph = InteractionGraph::from_circuit(circuit);
            let layout = place(&graph, policy.layout_strategy(), None);
            let config = BraidConfig {
                policy,
                code_distance: CODE_DISTANCE,
                ..Default::default()
            };
            let mut sink = EventCollector::default();
            let schedule = or_die(
                schedule_with(circuit, &dag, &layout, &config, None, &mut sink),
                "fig6 workload failed to schedule",
            );
            (w, dag, sink.into_trace(&layout, circuit, &schedule))
        })
        .collect();
    let t0 = Instant::now();
    for (w, dag, trace) in &traced {
        let findings = certify_braid_trace(trace, &workloads[*w].1, dag, None);
        assert!(
            findings.is_empty(),
            "{}: braid trace failed certification: {findings:?}",
            workloads[*w].0.name()
        );
    }
    let certify_secs = t0.elapsed().as_secs_f64();

    // Per-pass wall clock of the artifact pipeline: one timed toolflow
    // run per fig6 app at the report's pinned distance, durations
    // summed per stage. `bench_guard` asserts every stage below is
    // present and non-negative in the emitted `pass_secs` section.
    // That run is the app's first calibration in this process, so
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
            let slot = PIPELINE_STAGES.iter().position(|n| *n == t.pass);
            let slot = or_die(slot.ok_or(t.pass), "pipeline emitted unknown pass");
            pass_secs[slot] += t.duration.as_secs_f64();
        }
        let (warm_trace, warm_secs) = timed_median3(timed);
        let warm_estimate_secs = warm_trace
            .timings
            .iter()
            .filter(|t| t.pass == "estimate")
            .map(|t| t.duration.as_secs_f64())
            .sum::<f64>();
        e2e.push(E2ePoint {
            app: bench.name(),
            first_secs,
            warm_secs,
            warm_estimate_secs,
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
        "{:<10} {:>6} {:>10} {:>9} {:>12} {:>12} {:>9} {:>14}",
        "app", "policy", "cycles", "adaptive", "fast", "reference", "speedup", "cycles/s fast"
    );
    for p in &points {
        println!(
            "{:<10} {:>6} {:>10} {:>9} {:>11.3}ms {:>11.3}ms {:>8.1}x {:>14.2e}",
            p.app,
            format!("P{}", p.policy),
            p.cycles,
            p.adaptive_routes,
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
        "grid certification wall-clock (scq-verify replay): {:.1}ms",
        certify_secs * 1e3
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
            "    {{\"app\": \"{}\", \"policy\": {}, \"cycles\": {}, \"adaptive_routes\": {}, \"fast_secs\": {:.6}, \"ref_secs\": {:.6}, \"speedup\": {:.2}, \"cycles_per_sec_fast\": {:.3e}}}{comma}",
            p.app, p.policy, p.cycles, p.adaptive_routes, p.fast_secs, p.ref_secs, p.speedup(), p.cycles_per_sec_fast()
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
    let _ = writeln!(json, "  \"certify_secs\": {certify_secs:.6}");
    json.push('}');
    json.push('\n');
    write_report("BENCH_sched.json", &json);

    epr_report(&workloads);
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

/// One degradation row: a fig6 application on one backend, clean versus
/// 2%-defective hardware (same seed for sampling and transient faults).
struct DegradationPoint {
    app: &'static str,
    backend: &'static str,
    clean_makespan: u64,
    /// Degraded makespan, or the structured diagnostic when the
    /// defects cut the machine apart.
    outcome: Result<u64, String>,
}

impl DegradationPoint {
    fn multiplier(&self) -> Option<f64> {
        self.outcome
            .as_ref()
            .ok()
            .map(|&m| m as f64 / self.clean_makespan.max(1) as f64)
    }
}

/// Runs the (defect-rate x app) degradation study on both backends.
/// Every row either completes with a bounded multiplier or reports a
/// structured unroutable diagnostic — a panic or hang here is a bug.
fn degradation_report(
    workloads: &[(scq_apps::Benchmark, scq_ir::Circuit)],
) -> Vec<DegradationPoint> {
    let grid: Vec<(usize, &'static str)> = (0..workloads.len())
        .flat_map(|w| ["braid", "teleport"].into_iter().map(move |b| (w, b)))
        .collect();
    parallel_map(&grid, |&(w, backend)| {
        let (bench, circuit) = &workloads[w];
        let (clean_makespan, outcome) = match backend {
            "braid" => (
                run_policy(circuit, Policy::P6, CODE_DISTANCE).cycles,
                run_policy_on_defects(circuit, Policy::P6, CODE_DISTANCE, DEFECT_RATE, DEFECT_SEED)
                    .map(|s| s.cycles)
                    .map_err(|e| e.to_string()),
            ),
            _ => {
                let dag = DependencyDag::from_circuit(circuit);
                let config = PlanarConfig {
                    code_distance: CODE_DISTANCE,
                    ..Default::default()
                };
                (
                    schedule_planar(circuit, &dag, &config).cycles,
                    run_planar_on_defects(circuit, CODE_DISTANCE, DEFECT_RATE, DEFECT_SEED)
                        .map(|s| s.cycles)
                        .map_err(|e| e.to_string()),
                )
            }
        };
        DegradationPoint {
            app: bench.name(),
            backend,
            clean_makespan,
            outcome,
        }
    })
}

fn epr_report(workloads: &[(scq_apps::Benchmark, scq_ir::Circuit)]) {
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
        let placed = CongestionAwarePlacement::default().place_traced(
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
    // The optimizer only accepts strictly improving moves, so these are
    // invariants of the algorithm, not of this machine's timing.
    for p in &placement_points {
        assert!(
            p.optimized_makespan <= p.baseline_makespan
                && p.optimized_lane_stalls <= p.baseline_lane_stalls,
            "{}: congestion-aware placement regressed the baseline",
            p.app
        );
    }
    assert!(
        placement_points
            .iter()
            .any(|p| p.optimized_makespan <= p.baseline_makespan
                && p.optimized_lane_stalls < p.baseline_lane_stalls),
        "congestion-aware placement improved no contended point"
    );

    // Planar certifier wall-time: schedule every workload traced
    // (untimed), then time only the independent transcript replay.
    let traced: Vec<_> = workloads
        .iter()
        .map(|(_, circuit)| {
            let dag = DependencyDag::from_circuit(circuit);
            let config = PlanarConfig {
                code_distance: CODE_DISTANCE,
                ..Default::default()
            };
            let run = FabricRun {
                transcript: true,
                ..Default::default()
            };
            let scheduled = schedule_planar_with(circuit, &dag, &config, &BaselinePlacement, &run);
            match or_die(scheduled, "fig6 workload failed to schedule") {
                (schedule, Some(transcript)) => (dag, schedule, transcript),
                (_, None) => or_die(Err("no transcript recorded"), "fig6 planar run"),
            }
        })
        .collect();
    let t0 = Instant::now();
    for ((bench, circuit), (dag, schedule, transcript)) in workloads.iter().zip(&traced) {
        let findings = certify_planar_schedule(schedule, transcript, circuit, dag, None);
        assert!(
            findings.is_empty(),
            "{}: planar schedule failed certification: {findings:?}",
            bench.name()
        );
    }
    let certify_secs = t0.elapsed().as_secs_f64();
    println!(
        "\nplanar certification wall-clock (scq-verify replay): {:.1}ms",
        certify_secs * 1e3
    );

    let degradation = degradation_report(workloads);
    println!(
        "\nDegradation study ({:.0}% sampled defects, seed {DEFECT_SEED}, envelope {DEGRADATION_ENVELOPE}x)",
        DEFECT_RATE * 100.0
    );
    println!();
    println!(
        "{:<10} {:>9} {:>12} {:>12} {:>11}",
        "app", "backend", "clean span", "degraded", "multiplier"
    );
    for p in &degradation {
        match &p.outcome {
            Ok(m) => println!(
                "{:<10} {:>9} {:>12} {:>12} {:>10.2}x",
                p.app,
                p.backend,
                p.clean_makespan,
                m,
                p.multiplier().unwrap_or(0.0),
            ),
            Err(e) => println!(
                "{:<10} {:>9} {:>12} {:>12}  unroutable: {e}",
                p.app, p.backend, p.clean_makespan, "-",
            ),
        }
    }
    for p in &degradation {
        if let Some(m) = p.multiplier() {
            assert!(
                m <= DEGRADATION_ENVELOPE,
                "{} ({}): degradation multiplier {m:.2}x exceeds the committed envelope \
                 {DEGRADATION_ENVELOPE}x",
                p.app,
                p.backend
            );
        }
    }
    assert!(
        degradation.iter().any(|p| p.outcome.is_ok()),
        "every degradation row came back unroutable at {DEFECT_RATE}"
    );

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
                let _ = writeln!(
                    json,
                    "    {{\"app\": \"{}\", \"backend\": \"{}\", \"clean_makespan\": {}, \"degraded_makespan\": {}, \"degradation_multiplier\": {:.4}, \"status\": \"ok\"}}{comma}",
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
}
