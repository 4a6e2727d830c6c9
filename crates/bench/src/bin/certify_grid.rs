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
use scq_braid::Policy;
use scq_core::{ArtifactContext, BackendKind, DefectSpec, PipelineRunner, ToolflowConfig};
use scq_ir::Circuit;
use scq_verify::{Finding, Severity};

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

/// One traced pipeline run of a grid point — the braid backend under
/// `policy`, or the planar backend when there is none — certified on
/// the map it ran on.
fn point(circuit: &Circuit, app: &str, policy: Option<Policy>, defective: bool) -> PointReport {
    let fabric = if defective { "2% defects" } else { "clean" };
    let (label, runner, backend) = match policy {
        Some(p) => (
            format!("braid/{app}/P{}/{fabric}", p.index()),
            PipelineRunner::braid(),
            BackendKind::Braid,
        ),
        None => (
            format!("planar/{app}/{fabric}"),
            PipelineRunner::planar(),
            BackendKind::Planar,
        ),
    };
    let rate = if defective { DEFECT_RATE } else { 0.0 }; // a zero rate is clean
    let defects = DefectSpec::Sampled {
        rate,
        seed: DEFECT_SEED,
    };
    let config = ToolflowConfig::pinned(policy.unwrap_or(Policy::P6), CODE_DISTANCE);
    let mut cx = ArtifactContext::for_circuit(circuit, config)
        .with_defects(defects)
        .with_trace(true);
    let outcome = match runner.run(&mut cx) {
        Ok(_) => cx.certify(backend).ok_or_else(|| "no trace".to_string()),
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
        point(circuit, bench.name(), policy, defective)
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
