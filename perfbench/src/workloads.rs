//! The three workloads and how one op of each runs and is checked.
//!
//! Every op calls the program only through public entry points. With
//! the tracer enabled, the toolflow op runs the standard passes one at
//! a time through `ToolflowPass::run`, and the batch and fabric ops add
//! the normalize and routing calls they would otherwise leave inside
//! `BatchRunner::run` and `simulate_epr_on_fabric`, each in its own span.

use std::hint::black_box;

use scq_bench::{scale_workloads, ScaleWorkload};
use scq_core::pipeline::{
    BraidSchedulePass, CodeDistancePass, EstimatePass, InteractionAnalysisPass, LayoutPass,
    NormalizeIrPass, PlanarSchedulePass,
};
use scq_core::{
    run_toolflow, ArtifactContext, ToolflowConfig, ToolflowError, ToolflowPass, ToolflowReport,
};
use scq_serve::{parse_request_text, BackendKind, BatchRunner, Provenance, ScheduleResponse};
use scq_teleport::{simulate_epr_on_fabric, DistributionPolicy, FabricEprResult};

use crate::golden::digest;
use crate::inputs::{
    batch_pass, batch_universe, pass_order, toolflow_points, RequestFile, RequestSpec,
    ToolflowPoint,
};
use crate::trace::Tracer;

/// One checked output of an op: `(kind, key, result)` as in the golden
/// file.
pub type Checked = (&'static str, String, String);

/// A workload: a fixed set of distinct ops, visited in seeded passes.
pub trait Workload {
    /// What one op returns.
    type Output;

    /// Op ids of pass `pass`. Pass 0 is the warm-up; every pass visits
    /// every distinct op the workload has.
    fn pass(&self, pass: usize) -> Vec<usize>;

    /// Runs op `op`, recording spans and counters on `tracer`.
    fn run(&self, op: usize, tracer: &mut Tracer) -> Self::Output;

    /// The op's checked outputs.
    ///
    /// # Errors
    ///
    /// A message when the op failed.
    fn results(&self, op: usize, out: &Self::Output) -> Result<Vec<Checked>, String>;
}

/// `toolflow`: one `run_toolflow` call per op over the 15 points.
pub struct Toolflow {
    seed: u64,
    points: Vec<ToolflowPoint>,
}

impl Toolflow {
    /// The workload for `seed` (which only orders the points).
    pub fn new(seed: u64) -> Self {
        Toolflow {
            seed,
            points: toolflow_points(),
        }
    }

    /// The point op `op` runs.
    pub fn point(&self, op: usize) -> ToolflowPoint {
        self.points[op]
    }
}

/// The standard passes in pipeline order, with the span each runs in.
fn standard_passes() -> [(&'static str, &'static dyn ToolflowPass); 7] {
    [
        ("ir.normalize", &NormalizeIrPass),
        ("surface.distance", &CodeDistancePass),
        ("ir.interaction", &InteractionAnalysisPass),
        ("layout.place", &LayoutPass),
        ("braid.schedule", &BraidSchedulePass),
        ("teleport.planar", &PlanarSchedulePass),
        ("estimate.calibrate", &EstimatePass),
    ]
}

impl Workload for Toolflow {
    type Output = Result<ToolflowReport, ToolflowError>;

    fn pass(&self, pass: usize) -> Vec<usize> {
        pass_order(self.seed, pass, self.points.len())
    }

    fn run(&self, op: usize, t: &mut Tracer) -> Self::Output {
        let point = self.points[op];
        let config = ToolflowConfig {
            scale: Some(point.scale),
            ..Default::default()
        };
        if !t.is_enabled() {
            return run_toolflow(point.bench, &config);
        }
        let circuit = t.span("apps.generate", |_| point.bench.scaled_circuit(point.scale));
        let mut cx = ArtifactContext::new(point.bench, &circuit, config);
        for (span, pass) in standard_passes() {
            t.span(span, |_| pass.run(&mut cx))?;
        }
        let report = cx.into_report();
        t.count("ir.ops", report.stats.total_ops as f64);
        t.count("braid.sim_cycles", report.braid.cycles as f64);
        t.count("braid.braids_placed", report.braid.braids_placed as f64);
        t.count("braid.adaptive_routes", report.braid.adaptive_routes as f64);
        t.count("braid.drops", report.braid.drops as f64);
        t.count(
            "teleport.teleports",
            report.planar.simd.total_teleports() as f64,
        );
        t.count(
            "teleport.link_stall_cycles",
            report.planar.link_stall_cycles as f64,
        );
        Ok(report)
    }

    fn results(&self, op: usize, out: &Self::Output) -> Result<Vec<Checked>, String> {
        let key = self.points[op].key();
        let report = out.as_ref().map_err(|e| format!("toolflow {key}: {e}"))?;
        let result = format!(
            "d={} braid={} planar={} encoding={}",
            report.code_distance,
            report.braid.cycles,
            report.planar.cycles,
            report.recommended_encoding().name().replace(' ', "-"),
        );
        Ok(vec![("toolflow", key, result)])
    }
}

/// Passes of request files generated at set-up; later passes reuse them
/// in a fresh order.
const BATCH_PASSES: usize = 32;

/// `batch`: one request file per op, served as `scq batch` serves it.
pub struct Batch {
    seed: u64,
    universe: Vec<RequestSpec>,
    files: Vec<RequestFile>,
    per_pass: usize,
}

impl Batch {
    /// The workload for `seed`: [`BATCH_PASSES`] passes of request files.
    pub fn new(seed: u64) -> Self {
        let universe = batch_universe();
        let files: Vec<RequestFile> = (0..BATCH_PASSES)
            .flat_map(|p| batch_pass(&universe, seed, p))
            .collect();
        let per_pass = files.len() / BATCH_PASSES;
        Batch {
            seed,
            universe,
            files,
            per_pass,
        }
    }

    /// The request file op `op` serves.
    pub fn file(&self, op: usize) -> &RequestFile {
        &self.files[op]
    }
}

impl Workload for Batch {
    type Output = Result<Vec<ScheduleResponse>, String>;

    fn pass(&self, pass: usize) -> Vec<usize> {
        let base = (pass % BATCH_PASSES) * self.per_pass;
        pass_order(self.seed, pass, self.per_pass)
            .into_iter()
            .map(|i| base + i)
            .collect()
    }

    fn run(&self, op: usize, t: &mut Tracer) -> Self::Output {
        let file = &self.files[op];
        let requests = t
            .span("serve.parse", |_| parse_request_text(&file.text))
            .map_err(|(line, e)| format!("request line {line}: {e}"))?;
        if t.is_enabled() {
            t.span("serve.normalize", |_| {
                for r in &requests {
                    let _ = black_box(r.normalize());
                }
            });
        }
        let (responses, cache, placements) = t.span("serve.run", |_| {
            let runner = BatchRunner::new(256);
            let responses = runner.run(&requests);
            (responses, runner.cache_stats(), runner.placement_stats())
        });
        if t.is_enabled() {
            t.count("serve.hits", cache.hits as f64);
            t.count("serve.misses", cache.misses as f64);
            t.count("serve.dedups", cache.inflight_dedups as f64);
            t.count("serve.evictions", cache.evictions as f64);
            t.count("serve.computes", cache.computes as f64);
            t.count("serve.placement_hits", placements.hits as f64);
            for (r, &spec) in responses.iter().zip(&file.specs) {
                let Ok(outcome) = &r.outcome else {
                    t.count("serve.errors", 1.0);
                    continue;
                };
                match r.provenance {
                    Provenance::Hit => t.count("serve.hit_s", r.total_secs),
                    Provenance::Miss => {
                        let secs = outcome.compute_secs;
                        match outcome.backend {
                            BackendKind::Braid => t.count("serve.compute_braid_s", secs),
                            BackendKind::Planar => t.count("serve.compute_planar_s", secs),
                        }
                        if outcome.verified {
                            t.count("serve.compute_verified_s", secs);
                        }
                        if self.universe[spec].defect_seed.is_some() {
                            t.count("serve.compute_defected_s", secs);
                        }
                    }
                    Provenance::Deduped => {}
                }
            }
        }
        Ok(responses)
    }

    fn results(&self, op: usize, out: &Self::Output) -> Result<Vec<Checked>, String> {
        let file = &self.files[op];
        let responses = out.as_ref().map_err(Clone::clone)?;
        if responses.len() != file.specs.len() {
            return Err(format!(
                "{} responses for {} requests",
                responses.len(),
                file.specs.len()
            ));
        }
        responses
            .iter()
            .zip(&file.specs)
            .map(|(r, &s)| {
                let spec = &self.universe[s];
                let outcome = r
                    .outcome
                    .as_ref()
                    .map_err(|e| format!("batch {}: {e}", spec.line()))?;
                if spec.verify && !outcome.verified {
                    return Err(format!("batch {}: not certified", spec.line()));
                }
                let result = format!(
                    "cycles={} verified={} summary={}",
                    outcome.cycles,
                    outcome.verified,
                    digest(&outcome.summary)
                );
                Ok(("batch", spec.key(), result))
            })
            .collect()
    }
}

/// JIT window of every fabric op, as in the scale tier.
const FABRIC_WINDOW: usize = 64;

/// `fabric_scale`: one `simulate_epr_on_fabric` call per op over the
/// five scale-tier traces.
pub struct FabricScale {
    seed: u64,
    traces: Vec<ScaleWorkload>,
}

impl FabricScale {
    /// The workload for `seed` (which only orders the traces); builds
    /// the traces.
    pub fn new(seed: u64) -> Self {
        FabricScale {
            seed,
            traces: scale_workloads(false),
        }
    }

    /// The trace op `op` simulates.
    pub fn trace(&self, op: usize) -> &ScaleWorkload {
        &self.traces[op]
    }
}

impl Workload for FabricScale {
    type Output = FabricEprResult;

    fn pass(&self, pass: usize) -> Vec<usize> {
        pass_order(self.seed, pass, self.traces.len())
    }

    fn run(&self, op: usize, t: &mut Tracer) -> Self::Output {
        let w = &self.traces[op];
        if t.is_enabled() {
            t.span("mesh.route", |_| {
                for r in &w.requests {
                    black_box(w.topology.route_xy(r.src, r.dst));
                }
            });
        }
        let policy = DistributionPolicy::JustInTime {
            window: FABRIC_WINDOW,
        };
        let result = t.span("teleport.fabric", |_| {
            simulate_epr_on_fabric(&w.requests, policy, &w.config, w.topology)
        });
        t.count("mesh.events", result.events_processed as f64);
        t.max("mesh.peak_event_queue", result.peak_event_queue as f64);
        t.count("teleport.route_hops", result.total_route_hops as f64);
        result
    }

    fn results(&self, op: usize, out: &Self::Output) -> Result<Vec<Checked>, String> {
        let key = self.traces[op].name.replace(' ', "_");
        let result = format!(
            "makespan={} events={}",
            out.pipeline.makespan, out.events_processed
        );
        Ok(vec![("fabric", key, result)])
    }
}
