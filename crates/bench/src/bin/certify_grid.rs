//! CI certification sweep: replays the full fig6 (workload × policy)
//! grid through the independent `scq-verify` certifier, both backends,
//! on clean *and* 2%-defective fabrics.
//!
//! Every braid trace is audited by the interval race detector and every
//! planar schedule by the hop-transcript replay — none of which share
//! routing or claiming code with the engines that produced the
//! schedules. Points the defects make unroutable are tolerated (the
//! schedulers' degrade-gracefully contract already covers them, and
//! there is no schedule to certify); any *finding* on a schedule that
//! was emitted fails the run with exit 1.
//!
//! Prints the certifier's wall-clock so `perf_report`'s timings can be
//! read against the cost of verification.

#![warn(clippy::disallowed_methods)]

use std::process::ExitCode;
use std::time::Instant;

use scq_bench::{fig6_workloads, parallel_map};
use scq_braid::{braid_mesh_dims, schedule_with, BraidConfig, EventCollector, Policy};
use scq_ir::{DependencyDag, InteractionGraph};
use scq_layout::place;
use scq_mesh::{DefectMap, Topology};
use scq_teleport::{
    schedule_planar_with, BaselinePlacement, FabricRun, PlanarConfig, PlanarMachine,
};
use scq_verify::{certify_braid_trace, certify_planar_schedule, Finding, Severity};

const CODE_DISTANCE: u32 = 5;
const DEFECT_RATE: f64 = 0.02;
const DEFECT_SEED: u64 = 20702;

/// One certified (or tolerated-unroutable) grid point.
struct PointReport {
    label: String,
    /// `Ok(findings)` when a schedule was emitted and certified,
    /// `Err(diagnostic)` when the defects made the point unroutable.
    outcome: Result<Vec<Finding>, String>,
}

impl PointReport {
    fn errors(&self) -> usize {
        self.outcome
            .as_ref()
            .map(|fs| fs.iter().filter(|f| f.severity == Severity::Error).count())
            .unwrap_or(0)
    }
}

fn braid_point(
    circuit: &scq_ir::Circuit,
    app: &str,
    policy: Policy,
    defective: bool,
) -> PointReport {
    let fabric = if defective { "2% defects" } else { "clean" };
    let label = format!("braid/{app}/P{}/{fabric}", policy.index());
    let dag = DependencyDag::from_circuit(circuit);
    let graph = InteractionGraph::from_circuit(circuit);
    let layout = place(&graph, policy.layout_strategy(), None);
    let config = BraidConfig {
        policy,
        code_distance: CODE_DISTANCE,
        ..Default::default()
    };
    let map = defective.then(|| {
        let (mw, mh) = braid_mesh_dims(&layout, circuit);
        DefectMap::sample(Topology::new(mw, mh), DEFECT_RATE, DEFECT_SEED)
    });
    let mut sink = EventCollector::default();
    let outcome = match schedule_with(circuit, &dag, &layout, &config, map.as_ref(), &mut sink) {
        Ok(schedule) => {
            let trace = sink.into_trace(&layout, circuit, &schedule);
            Ok(certify_braid_trace(&trace, circuit, &dag, map.as_ref()))
        }
        Err(e) => Err(e.to_string()),
    };
    PointReport { label, outcome }
}

fn planar_point(circuit: &scq_ir::Circuit, app: &str, defective: bool) -> PointReport {
    let fabric = if defective { "2% defects" } else { "clean" };
    let label = format!("planar/{app}/{fabric}");
    let dag = DependencyDag::from_circuit(circuit);
    let config = PlanarConfig {
        code_distance: CODE_DISTANCE,
        ..Default::default()
    };
    let map = defective.then(|| {
        let (gw, gh) = PlanarMachine::grid_dims(circuit.num_qubits());
        DefectMap::sample(Topology::new(gw, gh), DEFECT_RATE, DEFECT_SEED)
    });
    let run = FabricRun {
        defects: map.as_ref(),
        fault_seed: DEFECT_SEED,
        transcript: true,
    };
    let outcome = match schedule_planar_with(circuit, &dag, &config, &BaselinePlacement, &run) {
        Ok((schedule, Some(transcript))) => Ok(certify_planar_schedule(
            &schedule,
            &transcript,
            circuit,
            &dag,
            map.as_ref(),
        )),
        Ok((_, None)) => Err("the engine returned no transcript".into()),
        Err(e) => Err(e.to_string()),
    };
    PointReport { label, outcome }
}

fn main() -> ExitCode {
    let workloads = fig6_workloads();
    // Grid: every (app, policy, fabric) braid point plus every
    // (app, fabric) planar point — the policy axis only exists on the
    // braid backend.
    let mut grid: Vec<(usize, Option<Policy>, bool)> = Vec::new();
    for w in 0..workloads.len() {
        for defective in [false, true] {
            for &p in &Policy::ALL {
                grid.push((w, Some(p), defective));
            }
            grid.push((w, None, defective));
        }
    }

    let t0 = Instant::now();
    let reports = parallel_map(&grid, |&(w, policy, defective)| {
        let (bench, circuit) = &workloads[w];
        match policy {
            Some(p) => braid_point(circuit, bench.name(), p, defective),
            None => planar_point(circuit, bench.name(), defective),
        }
    });
    let certify_secs = t0.elapsed().as_secs_f64();

    let mut certified = 0usize;
    let mut unroutable = 0usize;
    let mut failed = 0usize;
    for r in &reports {
        match &r.outcome {
            Ok(findings) if r.errors() == 0 => {
                certified += 1;
                for f in findings {
                    println!("{}: {f}", r.label);
                }
            }
            Ok(findings) => {
                failed += 1;
                for f in findings {
                    println!("{}: {f}", r.label);
                }
            }
            Err(e) => {
                unroutable += 1;
                println!("{}: skipped (unroutable: {e})", r.label);
            }
        }
    }
    println!(
        "certify_grid: {certified} points certified clean, {unroutable} unroutable \
         (tolerated), {failed} FAILED in {:.1}ms",
        certify_secs * 1e3
    );
    if failed > 0 {
        return ExitCode::FAILURE;
    }
    if certified == 0 {
        eprintln!("error: no point produced a certifiable schedule");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
