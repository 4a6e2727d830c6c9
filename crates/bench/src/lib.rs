//! Shared harness code for the table/figure regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one table, figure, study
//! or bench report (see ARCHITECTURE.md for where each artifact comes
//! from). The report binaries check their own numbers after writing
//! them and exit nonzero when a committed bound fails:
//!
//! | Binary | Regenerates |
//! |--------|-------------|
//! | `table1` | Table 1 — communication tradeoffs |
//! | `table2` | Table 2 — application parallelism factors |
//! | `fig6` | Figure 6 — braid policies: schedule/CP and utilization |
//! | `fig7` | Figure 7 — absolute time and qubits vs computation size |
//! | `fig8` | Figure 8 — normalized ratios and cross-over points |
//! | `fig9` | Figure 9 — favorability boundaries over error rates |
//! | `epr_pipelining` | Section 8.1 — JIT EPR window study (route-aware) |
//! | `ablations` | Layout, magic-state, routing and lattice-surgery ablations |
//! | `sensitivity` | Figure 9 boundaries under perturbed constants; defect sweep |
//! | `perf_report` | `BENCH_sched.json` + `BENCH_epr.json` — perf trajectories |
//! | `serve_throughput` | `BENCH_serve.json` — schedule cache and batch throughput |
//! | `scale_report` | `BENCH_scale.json` — the EPR fabric at 10–100x scale |
//! | `certify_grid` | The fig6 grid through the `scq-verify` certifier |
//!
//! Run them individually via
//! `cargo run --release -p scq-bench --bin <name>`.
//!
//! Binaries that sweep a (workload × policy) grid fan the points out
//! with [`scq_serve::parallel_map`], the same fan-out that serves
//! batches; every point is an independent scheduling run, so the
//! sweeps scale to the machine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use scq_apps::{ising, sha1, square_root, Benchmark, IsingParams, Sha1Params, SqParams};
use scq_braid::{schedule_circuit, schedule_reference, BraidConfig, BraidSchedule, Policy};
use scq_core::{ArtifactContext, DefectSpec, PipelineRunner, ToolflowConfig, ToolflowError};
use scq_ir::{Circuit, DependencyDag, InteractionGraph};
use scq_layout::place;
use scq_mesh::{CommError, Topology};
use scq_teleport::{
    schedule_simd, EprRequest, FabricEprConfig, FabricRun, PlacementStrategy, PlanarConfig,
    PlanarMachine, PlanarSchedule, SimdConfig, SimdSchedule,
};

/// The standard toolflow pipeline's stages, in execution order — the
/// keys of `BENCH_sched.json`'s `pass_secs` section, and the pass order
/// `perf_report` checks each fig6 app's toolflow against.
pub const PIPELINE_STAGES: [&str; 7] = [
    "normalize-ir",
    "code-distance",
    "interaction-analysis",
    "layout",
    "braid-schedule",
    "planar-schedule",
    "estimate",
];

/// Unwraps a result or exits nonzero with `error: {what}: {e}` — the
/// bench binaries report structured failures instead of panicking.
pub fn or_die<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("error: {what}: {e}");
        std::process::exit(1)
    })
}

/// Writes a regenerated report, or exits nonzero with a diagnostic —
/// an unwritable working directory must not panic the toolflow.
pub fn write_report(path: &str, json: &str) {
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("error: {}", scq_ir::CliError::io(path, &e));
        std::process::exit(1);
    }
    println!("\nwrote {path}");
}

/// Formats a row of fixed-width cells.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// The benchmark instances used for Figure 6: large enough to exhibit
/// congestion, small enough to schedule under all seven policies in
/// seconds.
pub fn fig6_workloads() -> Vec<(Benchmark, Circuit)> {
    vec![
        (Benchmark::Gse, Benchmark::Gse.default_circuit()),
        (
            Benchmark::SquareRoot,
            square_root(&SqParams {
                bits: 5,
                iterations: Some(3),
                target: 9,
            }),
        ),
        (
            Benchmark::Sha1,
            sha1(&Sha1Params {
                word_bits: 16,
                rounds: 8,
            }),
        ),
        (
            Benchmark::IsingFull,
            ising(&IsingParams {
                spins: 64,
                trotter_steps: 4,
                ..Default::default()
            }),
        ),
    ]
}

/// The braid configuration of one Figure 6 point.
fn braid_config(policy: Policy, code_distance: u32) -> BraidConfig {
    BraidConfig {
        policy,
        code_distance,
        ..Default::default()
    }
}

/// Runs one circuit under one policy with the policy's paired layout —
/// one bar of Figure 6.
pub fn run_policy(circuit: &Circuit, policy: Policy, code_distance: u32) -> BraidSchedule {
    schedule_circuit(circuit, &braid_config(policy, code_distance))
        .expect("figure 6 workloads schedule cleanly")
}

/// A pipeline context for `circuit` under `policy` at a pinned code
/// distance, on defects sampled at `rate` from `seed`.
fn on_defects(
    circuit: &Circuit,
    policy: Policy,
    d: u32,
    rate: f64,
    seed: u64,
) -> ArtifactContext<'_> {
    let defects = DefectSpec::Sampled { rate, seed };
    ArtifactContext::for_circuit(circuit, ToolflowConfig::pinned(policy, d)).with_defects(defects)
}

/// [`run_policy`] on a braid mesh with fabrication defects sampled at
/// `rate` from `seed` (at the mesh dimensions this circuit's layout
/// implies) — one [`PipelineRunner::braid`] run. Rate 0 is
/// bit-identical to [`run_policy`].
///
/// # Errors
///
/// Forwards the scheduler's error; circuits the defects cut off report
/// an unroutable diagnostic rather than panicking.
pub fn run_policy_on_defects(
    circuit: &Circuit,
    policy: Policy,
    code_distance: u32,
    rate: f64,
    seed: u64,
) -> Result<BraidSchedule, ToolflowError> {
    let mut cx = on_defects(circuit, policy, code_distance, rate, seed);
    PipelineRunner::braid().run(&mut cx)?;
    let braid = cx.braid().cloned();
    Ok(braid.expect("a braid run deposits a schedule"))
}

/// The planar counterpart of [`run_policy_on_defects`]: one
/// [`PipelineRunner::planar`] run of the Multi-SIMD + EPR pipeline on a
/// machine with defects sampled at `rate` from `seed` (at this
/// circuit's own grid dimensions; `seed` also keys the transient-fault
/// draws on flaky links). Rate 0 is bit-identical to the clean planar
/// schedule.
///
/// # Errors
///
/// A structured communication error when the defects make the machine
/// unbuildable or the demand unroutable.
pub fn run_planar_on_defects(
    circuit: &Circuit,
    code_distance: u32,
    rate: f64,
    seed: u64,
) -> Result<PlanarSchedule, ToolflowError> {
    let mut cx = on_defects(circuit, Policy::P6, code_distance, rate, seed);
    PipelineRunner::planar().run(&mut cx)?;
    let planar = cx.planar().cloned();
    Ok(planar.expect("a planar run deposits a schedule"))
}

/// A [`PlacementStrategy`] that lays every circuit out on one given
/// floorplan. Scheduling a degraded run's [`PlanarMachine`] through it
/// on a clean [`FabricRun`] separates what the defects cost from what
/// the floorplan they forced costs: `perf_report`'s defect-only
/// multiplier is the degraded makespan over that replay's.
pub struct FixedFloorplan(pub PlanarMachine);

impl PlacementStrategy for FixedFloorplan {
    fn name(&self) -> &'static str {
        "fixed"
    }

    fn place(
        &self,
        _num_qubits: u32,
        _config: &PlanarConfig,
        _simd: &SimdSchedule,
        _run: &FabricRun,
    ) -> Result<PlanarMachine, CommError> {
        Ok(self.0.clone())
    }
}

/// [`run_policy`] driven by the retained naive-stepping engine — the
/// before side of the scheduler perf trajectory and the oracle of the
/// equivalence suite.
pub fn run_policy_reference(
    circuit: &Circuit,
    policy: Policy,
    code_distance: u32,
) -> BraidSchedule {
    let dag = DependencyDag::from_circuit(circuit);
    let graph = InteractionGraph::from_circuit(circuit);
    let layout = place(&graph, policy.layout_strategy());
    schedule_reference(circuit, &dag, &layout, &braid_config(policy, code_distance))
        .expect("figure 6 workloads schedule cleanly")
}

/// One point of the 10–100x scale tier (`scale_report` /
/// `BENCH_scale.json`): a located EPR demand trace large enough to
/// stress the fabric's event loop with millions of events, plus
/// the fabric parameters it runs under.
pub struct ScaleWorkload {
    /// Point label, e.g. `SHA-1 x16 d=5`.
    pub name: String,
    /// The machine grid the requests are located on.
    pub topology: Topology,
    /// The located demand trace, sorted by ideal use time.
    pub requests: Vec<EprRequest>,
    /// Fabric parameters: [`PlanarConfig::fabric_config`] at the
    /// point's code distance.
    pub config: FabricEprConfig,
    /// Demand size relative to this application's fig6-grid instance —
    /// the committed tier keeps at least four points at >= 10x.
    pub scale_vs_fig6: f64,
}

/// Schedules a circuit on the Multi-SIMD planar machine and returns its
/// located EPR demand trace — one "block" of a scale workload.
fn located_requests(circuit: &Circuit) -> (Topology, Vec<EprRequest>) {
    let dag = DependencyDag::from_circuit(circuit);
    let simd = schedule_simd(circuit, &dag, &SimdConfig::default());
    let machine = PlanarMachine::new(circuit.num_qubits(), None);
    let requests = machine.requests_for(&simd);
    (machine.topology, requests)
}

/// Replays a block demand trace `blocks` times back to back, each copy
/// time-shifted past the previous block's span — how the scale tier
/// builds a multi-block SHA-1 from the fig6-sized single block. The
/// result stays sorted by time, as the fabric entry points require.
pub fn replicate_blocks(block: &[EprRequest], blocks: u32) -> Vec<EprRequest> {
    let span = block.last().map_or(1, |r| r.time + 1);
    let mut out = Vec::with_capacity(block.len() * blocks as usize);
    for b in 0..u64::from(blocks) {
        let shift = b * span;
        out.extend(block.iter().map(|r| EprRequest {
            time: r.time + shift,
            ..*r
        }));
    }
    out
}

/// The scale-tier workload grid: demand traces 10–100x the fig6
/// instances, covering deep uniform queues (multi-block SHA-1), bursty
/// wide-parallel demand (wider Ising), long serial chains (SQ), and
/// code distances up to 21 (wide timestamp ranges). `reduced` shrinks
/// the replication factors for CI while keeping every point at >= 10x
/// fig6 scale, so `scale_report`'s checks still bind.
pub fn scale_workloads(reduced: bool) -> Vec<ScaleWorkload> {
    let mut points = Vec::new();
    let config = |code_distance| {
        PlanarConfig {
            code_distance,
            ..Default::default()
        }
        .fabric_config()
    };

    // Multi-block SHA-1: the fig6 SHA-1 instance (the most contended
    // fig6 app) replayed back to back. Every block injects ~15k halves,
    // all pending before the run starts, so this is the deep-queue
    // stress.
    let sha1_block = located_requests(&sha1(&Sha1Params {
        word_bits: 16,
        rounds: 8,
    }));
    // 12 reduced blocks keep the point above a million fabric events,
    // so CI still exercises `scale_report`'s million-event check.
    let sha_blocks = if reduced { 12 } else { 16 };
    let sha_requests = replicate_blocks(&sha1_block.1, sha_blocks);
    for d in [5u32, 15] {
        points.push(ScaleWorkload {
            name: format!("SHA-1 x{sha_blocks} d={d}"),
            topology: sha1_block.0,
            requests: sha_requests.clone(),
            config: config(d),
            scale_vs_fig6: f64::from(sha_blocks),
        });
    }

    // Wider Ising: double the spins and trotter depth of the fig6
    // instance (a genuinely bigger machine, not just a longer trace),
    // then replicate the remaining factor.
    let fig6_ising_len = located_requests(&ising(&IsingParams {
        spins: 64,
        trotter_steps: 4,
        ..Default::default()
    }))
    .1
    .len();
    let wide_block = located_requests(&ising(&IsingParams {
        spins: 128,
        trotter_steps: 8,
        ..Default::default()
    }));
    let ising_blocks = if reduced { 4 } else { 8 };
    let ising_requests = replicate_blocks(&wide_block.1, ising_blocks);
    let ising_scale = ising_requests.len() as f64 / fig6_ising_len.max(1) as f64;
    for d in [5u32, 21] {
        points.push(ScaleWorkload {
            name: format!("IM-wide x{ising_blocks} d={d}"),
            topology: wide_block.0,
            requests: ising_requests.clone(),
            config: config(d),
            scale_vs_fig6: ising_scale,
        });
    }

    // Long serial chain (full tier only): the fig6 SQ instance,
    // replayed many times. Near-serial demand keeps few halves in
    // flight at once, so the run is a long walk through the launch
    // list rather than a contended one.
    if !reduced {
        let sq_block = located_requests(&square_root(&SqParams {
            bits: 5,
            iterations: Some(3),
            target: 9,
        }));
        let sq_requests = replicate_blocks(&sq_block.1, 32);
        points.push(ScaleWorkload {
            name: "SQ x32 d=15".into(),
            topology: sq_block.0,
            requests: sq_requests,
            config: config(15),
            scale_vs_fig6: 32.0,
        });
    }
    points
}

/// Runs `f` three times, returning the first result and the median of
/// the three wall-clock timings — the timing discipline shared by
/// `perf_report` and `scale_report` (the `runs_per_point` field of the
/// JSON reports). The median absorbs one-off scheduler hiccups that a
/// single run would report as a regression.
pub fn timed_median3<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let t0 = std::time::Instant::now();
    let result = f();
    let mut secs = [t0.elapsed().as_secs_f64(), 0.0, 0.0];
    for s in secs.iter_mut().skip(1) {
        let t0 = std::time::Instant::now();
        let _ = f();
        *s = t0.elapsed().as_secs_f64();
    }
    secs.sort_by(f64::total_cmp);
    (result, secs[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_formats_fixed_width() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }

    #[test]
    fn fig6_workloads_cover_the_parallelism_spectrum() {
        let w = fig6_workloads();
        assert_eq!(w.len(), 4);
        assert!(w.iter().all(|(_, c)| !c.is_empty()));
    }

    #[test]
    fn run_policy_smoke() {
        let mut b = Circuit::builder("smoke", 4);
        b.cnot(0, 1).cnot(2, 3).cnot(1, 2);
        let c = b.finish();
        let s = run_policy(&c, Policy::P6, 3);
        assert!(s.cycles >= s.critical_path_cycles);
    }

    #[test]
    fn reference_runner_matches_fast_runner() {
        let mut b = Circuit::builder("smoke", 4);
        b.cnot(0, 1).cnot(2, 3).cnot(1, 2).t(0);
        let c = b.finish();
        assert_eq!(
            run_policy(&c, Policy::P3, 3),
            run_policy_reference(&c, Policy::P3, 3)
        );
    }

    #[test]
    fn zero_rate_defect_runners_are_bit_identical_to_the_clean_ones() {
        let mut b = Circuit::builder("smoke", 6);
        b.cnot(0, 1).cnot(2, 3).t(4).cnot(1, 2).cnot(4, 5);
        let c = b.finish();
        let clean = run_policy(&c, Policy::P6, 3);
        let defected = run_policy_on_defects(&c, Policy::P6, 3, 0.0, 99).unwrap();
        assert_eq!(clean, defected);
        let planar = run_planar_on_defects(&c, 3, 0.0, 99).unwrap();
        assert_eq!(planar.transient_faults, 0);
    }

    #[test]
    fn defect_runners_return_errors_instead_of_panicking() {
        let mut b = Circuit::builder("doomed", 4);
        b.cnot(0, 1).cnot(2, 3).cnot(1, 2);
        let c = b.finish();
        // At an extreme rate nearly everything is dead: both runners
        // must come back with structured errors or stretched-but-valid
        // schedules — never a panic.
        let _ = run_policy_on_defects(&c, Policy::P6, 3, 0.9, 5);
        let _ = run_planar_on_defects(&c, 3, 0.9, 5);
    }

    #[test]
    fn replicated_blocks_stay_sorted_and_grow_linearly() {
        let block = vec![
            EprRequest {
                time: 3,
                src: scq_mesh::Coord::new(0, 0),
                dst: scq_mesh::Coord::new(2, 0),
            },
            EprRequest {
                time: 9,
                src: scq_mesh::Coord::new(1, 1),
                dst: scq_mesh::Coord::new(1, 3),
            },
        ];
        let out = replicate_blocks(&block, 5);
        assert_eq!(out.len(), 10);
        assert!(out.windows(2).all(|w| w[0].time <= w[1].time));
        // Each copy preserves endpoints and intra-block spacing: the
        // span is last.time + 1 = 10, so copy b starts at 3 + 10b.
        assert_eq!(out[2].time, 13);
        assert_eq!(out[9].time, 9 + 4 * 10);
        assert_eq!(out[9].src, block[1].src);
        assert!(replicate_blocks(&[], 4).is_empty());
    }

    #[test]
    fn scale_workloads_reduced_grid_is_guard_worthy() {
        // The CI (reduced) grid must still satisfy the point-count
        // and scale bounds `scale_report` checks: at least four points,
        // all at >= 10x fig6 scale, each sorted as the fabric entry
        // points require.
        let points = scale_workloads(true);
        assert!(points.len() >= 4, "only {} scale points", points.len());
        for p in &points {
            assert!(
                p.scale_vs_fig6 >= 10.0,
                "{}: scale {}x below the 10x tier floor",
                p.name,
                p.scale_vs_fig6
            );
            assert!(!p.requests.is_empty(), "{}: empty demand trace", p.name);
            assert!(
                p.requests.windows(2).all(|w| w[0].time <= w[1].time),
                "{}: requests not sorted by time",
                p.name
            );
            assert!(p.config.epr.hop_cycles >= 1);
        }
        // The distance sweep must actually change the hop latency.
        let hops: std::collections::BTreeSet<u64> =
            points.iter().map(|p| p.config.epr.hop_cycles).collect();
        assert!(hops.len() >= 2, "no distance variation across the grid");
    }

    #[test]
    fn timed_median3_returns_the_first_result() {
        let mut calls = 0u32;
        let (result, secs) = timed_median3(|| {
            calls += 1;
            calls
        });
        assert_eq!(result, 1);
        assert_eq!(calls, 3);
        assert!(secs >= 0.0);
    }

    #[test]
    fn serve_cache_keys_are_distinct_over_the_fig6_grid() {
        // Collision sanity for the content-addressed schedule cache:
        // every (workload x policy x defect-spec) point of the fig6
        // grid must key differently, and keys must be stable across
        // independent normalizations.
        use scq_serve::{DefectSpec, RequestSource, ScheduleRequest};
        use std::collections::HashMap;
        use std::sync::Arc;

        let workloads = fig6_workloads();
        let mut seen: HashMap<u64, String> = HashMap::new();
        for (bench, circuit) in &workloads {
            let circuit = Arc::new(circuit.clone());
            for &policy in &Policy::ALL {
                for defects in [
                    DefectSpec::Clean,
                    DefectSpec::Sampled {
                        rate: 0.02,
                        seed: 20702,
                    },
                ] {
                    let req = ScheduleRequest {
                        source: RequestSource::Circuit(Arc::clone(&circuit)),
                        policy,
                        defects,
                        ..ScheduleRequest::for_circuit(Arc::clone(&circuit))
                    };
                    let point = format!("{} {policy:?} {:?}", bench.name(), req.defects);
                    let key = req.normalize().expect("fig6 requests normalize").key;
                    assert_eq!(
                        req.normalize().expect("fig6 requests normalize").key,
                        key,
                        "unstable key for {point}"
                    );
                    if let Some(other) = seen.insert(key, point.clone()) {
                        panic!("key collision between `{other}` and `{point}`");
                    }
                }
            }
        }
        assert_eq!(seen.len(), workloads.len() * Policy::ALL.len() * 2);
    }
}
