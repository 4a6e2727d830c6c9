//! End-to-end toolflow for the surface-code communication study.
//!
//! This crate wires the full pipeline of the paper's Figure 4: frontend
//! compilation (benchmark generation + logical analysis), code-distance
//! selection, mapping-level optimization (interaction-aware layout),
//! network-level optimization and simulation (braid scheduling for
//! double-defect codes, SIMD + EPR pipelining for planar codes), and the
//! final space-time comparison that recommends an encoding.
//!
//! # Examples
//!
//! ```
//! use scq_core::{run_toolflow, ToolflowConfig};
//! use scq_apps::Benchmark;
//!
//! let config = ToolflowConfig::default();
//! let report = run_toolflow(Benchmark::Gse, &config).unwrap();
//! assert!(report.braid.cycles >= report.braid.critical_path_cycles);
//! println!("{report}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cachekey;
mod defects;
pub mod pipeline;

pub use cachekey::{CacheKeyed, KeyHasher};
pub use defects::{DefectError, DefectSpec};
pub use pipeline::{
    ArtifactContext, ArtifactHash, PassTiming, PipelineRunner, PipelineTrace, ToolflowPass,
};
pub use scq_surface::MAX_DISTANCE;

use std::error::Error;
use std::fmt;

use scq_apps::Benchmark;
use scq_braid::{BraidSchedule, Policy, ScheduleError};
use scq_estimate::{AppProfile, ResourceEstimate};
use scq_ir::analysis::CircuitStats;
use scq_layout::Layout;
use scq_mesh::CommError;
use scq_surface::{Encoding, Technology, ThresholdExceeded};
use scq_teleport::PlanarSchedule;

/// Configuration of one end-to-end toolflow run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ToolflowConfig {
    /// Physical technology (error rate, gate timings); the estimate
    /// prices both encodings on it.
    pub technology: Technology,
    /// Braid prioritization policy for the double-defect backend.
    pub policy: Policy,
    /// Benchmark problem-size step (see
    /// [`Benchmark::scaled_circuit`]); `None` runs the smallest
    /// instance, which every machine can schedule in seconds.
    pub scale: Option<u32>,
    /// Pins the code distance instead of deriving it from the
    /// computation size and technology — for callers (like the `scq`
    /// CLI) that take the distance as an explicit input. `None` (the
    /// default) derives it by the Fowler law
    /// ([`scq_surface::required_distance_for_ops`]).
    pub code_distance: Option<u32>,
}

impl ToolflowConfig {
    /// The default configuration under `policy` with the code distance
    /// pinned, as the CLI, the batch service and the bench drivers run.
    pub fn pinned(policy: Policy, code_distance: u32) -> Self {
        ToolflowConfig {
            policy,
            code_distance: Some(code_distance),
            ..Default::default()
        }
    }
}

impl Default for ToolflowConfig {
    fn default() -> Self {
        ToolflowConfig {
            technology: Technology::superconducting_optimistic(),
            policy: Policy::P6,
            scale: None,
            code_distance: None,
        }
    }
}

/// The communication backend a schedule runs on — the paper's two
/// surface-code encodings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// Double-defect braid scheduling on the tiled mesh.
    Braid,
    /// Planar Multi-SIMD + route-aware EPR teleportation.
    Planar,
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BackendKind::Braid => "braid",
            BackendKind::Planar => "planar",
        })
    }
}

/// Everything the toolflow produces for one application.
#[derive(Clone, Debug)]
pub struct ToolflowReport {
    /// The benchmark that was run.
    pub benchmark: Benchmark,
    /// Frontend logical analysis (Table 2 data).
    pub stats: CircuitStats,
    /// Code distance chosen for this instance on this technology.
    pub code_distance: u32,
    /// The optimized qubit layout used by the braid backend.
    pub layout: Layout,
    /// Double-defect backend: braid scheduling result.
    pub braid: BraidSchedule,
    /// Planar backend: Multi-SIMD + EPR pipeline result.
    pub planar: PlanarSchedule,
    /// Calibrated scale-free profile of the application.
    pub profile: AppProfile,
    /// Space-time estimates at this instance's computation size:
    /// `(planar, double_defect)`.
    pub estimates: (ResourceEstimate, ResourceEstimate),
}

impl ToolflowReport {
    /// The encoding with the smaller space-time product for this
    /// instance — the paper's favorability verdict.
    pub fn recommended_encoding(&self) -> Encoding {
        if self.estimates.0.space_time() <= self.estimates.1.space_time() {
            Encoding::Planar
        } else {
            Encoding::DoubleDefect
        }
    }

    /// Double-defect over planar space-time ratio (>1 favors planar).
    pub fn space_time_ratio(&self) -> f64 {
        self.estimates.1.space_time() / self.estimates.0.space_time()
    }
}

impl fmt::Display for ToolflowReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ==", self.benchmark)?;
        writeln!(f, "  {}", self.stats)?;
        writeln!(f, "  code distance: d = {}", self.code_distance)?;
        writeln!(
            f,
            "  braid backend:  {} cycles ({}x critical path, {:.1}% mesh utilization)",
            self.braid.cycles,
            format_ratio(self.braid.schedule_to_cp_ratio()),
            self.braid.mesh_utilization * 100.0
        )?;
        writeln!(
            f,
            "  planar backend: {} cycles ({} teleports, peak {} live EPRs)",
            self.planar.cycles,
            self.planar.simd.total_teleports(),
            self.planar.epr.peak_live_eprs
        )?;
        writeln!(
            f,
            "  estimates: planar {:.3e} qubit-seconds, double-defect {:.3e} qubit-seconds",
            self.estimates.0.space_time(),
            self.estimates.1.space_time()
        )?;
        write!(f, "  recommended encoding: {}", self.recommended_encoding())
    }
}

fn format_ratio(r: f64) -> String {
    format!("{r:.2}")
}

/// A toolflow failure.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ToolflowError {
    /// The technology cannot reach the required logical error rate.
    Threshold(ThresholdExceeded),
    /// The braid scheduler failed.
    Braid(ScheduleError),
    /// Communication is structurally impossible on the (defective)
    /// fabric: no defect-free route, or nothing left to place on.
    Comm(CommError),
    /// The run's defect spec cannot be materialized: a malformed map
    /// file, or one that fits no mesh of the run.
    Defects(DefectError),
}

impl fmt::Display for ToolflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ToolflowError::Threshold(e) => write!(f, "{e}"),
            ToolflowError::Braid(e) => write!(f, "{e}"),
            ToolflowError::Comm(e) => write!(f, "{e}"),
            ToolflowError::Defects(e) => write!(f, "{e}"),
        }
    }
}

impl Error for ToolflowError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ToolflowError::Threshold(e) => Some(e),
            ToolflowError::Braid(e) => Some(e),
            ToolflowError::Comm(e) => Some(e),
            ToolflowError::Defects(e) => Some(e),
        }
    }
}

impl From<ThresholdExceeded> for ToolflowError {
    fn from(e: ThresholdExceeded) -> Self {
        ToolflowError::Threshold(e)
    }
}

impl From<ScheduleError> for ToolflowError {
    fn from(e: ScheduleError) -> Self {
        ToolflowError::Braid(e)
    }
}

impl From<CommError> for ToolflowError {
    fn from(e: CommError) -> Self {
        ToolflowError::Comm(e)
    }
}

impl From<DefectError> for ToolflowError {
    fn from(e: DefectError) -> Self {
        ToolflowError::Defects(e)
    }
}

/// Runs the complete toolflow on one benchmark.
///
/// Pipeline stages (paper Figure 4): generate the application, analyze
/// it at the logical level, pick the code distance from the computation
/// size and technology, place qubits, schedule braids on the tiled
/// double-defect machine, schedule SIMD + EPR pipelining on the planar
/// machine, and compare space-time estimates.
///
/// # Errors
///
/// Returns [`ToolflowError::Threshold`] when the technology cannot
/// support the application's logical error target, and
/// [`ToolflowError::Braid`] if braid scheduling exceeds its cycle
/// budget.
pub fn run_toolflow(
    benchmark: Benchmark,
    config: &ToolflowConfig,
) -> Result<ToolflowReport, ToolflowError> {
    run_toolflow_timed(benchmark, config).map(|(report, _)| report)
}

/// Like [`run_toolflow`] but also returning the pipeline's per-pass
/// wall-clock timings and artifact hashes (the `scq schedule --timings`
/// and `pass_secs` bench data).
///
/// # Errors
///
/// As [`run_toolflow`].
pub fn run_toolflow_timed(
    benchmark: Benchmark,
    config: &ToolflowConfig,
) -> Result<(ToolflowReport, PipelineTrace), ToolflowError> {
    let circuit = match config.scale {
        Some(s) => benchmark.scaled_circuit(s),
        None => benchmark.small_circuit(),
    };
    let mut cx = ArtifactContext::new(benchmark, &circuit, *config);
    let trace = PipelineRunner::standard().run(&mut cx)?;
    Ok((cx.into_report(), trace))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gse_end_to_end() {
        let report = run_toolflow(Benchmark::Gse, &ToolflowConfig::default()).unwrap();
        assert_eq!(report.benchmark, Benchmark::Gse);
        assert!(report.code_distance >= 3);
        assert!(report.braid.cycles >= report.braid.critical_path_cycles);
        assert!(report.planar.cycles >= report.planar.timesteps);
        assert!(report.stats.total_ops > 0);
    }

    #[test]
    fn small_instances_recommend_planar() {
        // The paper: "when the computation size is small, planar codes
        // fare better."
        let report = run_toolflow(Benchmark::Gse, &ToolflowConfig::default()).unwrap();
        assert_eq!(report.recommended_encoding(), Encoding::Planar);
        assert!(report.space_time_ratio() > 1.0);
    }

    #[test]
    fn report_displays_key_lines() {
        let report = run_toolflow(Benchmark::Gse, &ToolflowConfig::default()).unwrap();
        let text = report.to_string();
        assert!(text.contains("GSE"));
        assert!(text.contains("code distance"));
        assert!(text.contains("recommended encoding"));
    }

    #[test]
    fn faulty_technology_errors_cleanly() {
        let config = ToolflowConfig {
            technology: Technology::default().with_error_rate(0.02),
            ..Default::default()
        };
        let err = run_toolflow(Benchmark::Gse, &config).unwrap_err();
        assert!(matches!(err, ToolflowError::Threshold(_)));
        assert!(err.to_string().contains("threshold"));
    }

    #[test]
    fn custom_circuit_path() {
        let mut b = scq_ir::Circuit::builder("custom", 4);
        b.h(0).cnot(0, 1).cnot(1, 2).t(3).cnot(2, 3);
        let c = b.finish();
        let mut cx = ArtifactContext::for_circuit(&c, ToolflowConfig::default());
        PipelineRunner::schedules().run(&mut cx).unwrap();
        assert_eq!(cx.stats().unwrap().total_ops, 5);
        assert!(cx.braid().unwrap().braids_placed > 0);
    }

    #[test]
    fn comm_errors_lift_into_the_toolflow_error() {
        let e = CommError::Unroutable {
            src: scq_mesh::Coord::new(1, 1),
            dst: scq_mesh::Coord::new(3, 3),
        };
        let lifted: ToolflowError = e.into();
        assert!(matches!(lifted, ToolflowError::Comm(_)));
        assert!(lifted.to_string().contains("no defect-free route"));
        assert!(lifted.source().is_some());
        let unplaceable = CommError::Unplaceable {
            needed: 4,
            available: 0,
        };
        assert!(matches!(unplaceable.into(), ToolflowError::Comm(_)));
    }

    #[test]
    fn policy_respected() {
        let config = ToolflowConfig {
            policy: Policy::P0,
            ..Default::default()
        };
        let p0 = run_toolflow(Benchmark::IsingFull, &config).unwrap();
        let p6 = run_toolflow(Benchmark::IsingFull, &ToolflowConfig::default()).unwrap();
        assert!(p6.braid.cycles <= p0.braid.cycles);
    }
}
