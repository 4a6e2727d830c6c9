//! The explicit pass pipeline behind the toolflow.
//!
//! Historically `run_toolflow` was a hard-wired call chain; this module
//! restructures it into named, individually timeable passes over a
//! shared [`ArtifactContext`] (modeled on `scq-verify`'s `PassRunner`):
//!
//! ```text
//! normalize-ir ──► code-distance ──► interaction-analysis ──► layout
//!      │                                                        │
//!      ▼                                                        ▼
//!  dag + stats                                          braid-schedule
//!                                                               │
//!                                                               ▼
//!                                                      planar-schedule
//!                                                               │
//!                                                               ▼
//!                                                           estimate
//! ```
//!
//! Each pass deposits its artifact in the context together with a
//! stable 64-bit content hash (via [`KeyHasher`]), so downstream layers
//! — most importantly the `scq-serve` cache — can memoize individual
//! artifacts (e.g. a placement) separately from whole schedules. The
//! [`PipelineRunner`] times every pass.
//!
//! Every caller that schedules is a run: `run_toolflow` of
//! [`PipelineRunner::standard`], the CLI, the batch service and the
//! bench drivers of shorter lists. The context also carries the run's
//! [`DefectSpec`] and a trace request, under which the scheduling
//! passes deposit what [`ArtifactContext::certify`] audits.
//!
//! `tests/differential_pipeline.rs` pins `run_toolflow`'s reports to
//! committed golden digests.

use std::time::Instant;

use scq_apps::Benchmark;
use scq_braid::{
    braid_mesh_dims, schedule_with, BraidConfig, BraidSchedule, BraidTrace, EventCollector, NoTrace,
};
use scq_estimate::{estimate_both, AppProfile, EstimateConfig, ResourceEstimate};
use scq_ir::{analysis::CircuitStats, Circuit, DependencyDag, InteractionGraph};
use scq_layout::{place, Layout};
use scq_mesh::DefectMap;
use scq_teleport::{
    schedule_planar_with, BaselinePlacement, EprTranscript, FabricRun, PlanarConfig, PlanarMachine,
    PlanarSchedule,
};
use scq_verify::{certify_braid_trace, certify_planar_schedule, Finding, PassTiming};

use crate::cachekey::{CacheKeyed, KeyHasher};
use crate::{BackendKind, DefectSpec, ToolflowConfig, ToolflowError, ToolflowReport};

/// The provenance record of one artifact: which pass produced it and
/// the stable content hash it carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArtifactHash {
    /// The artifact's stable name (e.g. `layout`).
    pub artifact: &'static str,
    /// The pass that deposited it.
    pub pass: &'static str,
    /// FNV-1a fingerprint of the artifact's schedule-relevant content.
    pub hash: u64,
}

/// The shared context a pipeline run accumulates artifacts into.
///
/// Inputs (benchmark, circuit, config, defect spec, trace request) are
/// fixed at construction; each pass reads the artifacts of its
/// predecessors and deposits its own, together with an
/// [`ArtifactHash`] provenance record.
#[derive(Clone, Debug)]
pub struct ArtifactContext<'a> {
    benchmark: Benchmark,
    circuit: &'a Circuit,
    config: ToolflowConfig,
    defects: DefectSpec,
    trace: bool,
    dag: Option<DependencyDag>,
    stats: Option<CircuitStats>,
    code_distance: Option<u32>,
    graph: Option<InteractionGraph>,
    layout: Option<Layout>,
    /// The spec materialized per backend, once a scheduling pass (or
    /// [`ArtifactContext::materialize_defects`]) ran.
    defect_maps: Option<Vec<(BackendKind, Option<DefectMap>)>>,
    notes: Vec<String>,
    braid: Option<BraidSchedule>,
    braid_trace: Option<BraidTrace>,
    planar: Option<PlanarSchedule>,
    transcript: Option<EprTranscript>,
    profile: Option<AppProfile>,
    estimates: Option<(ResourceEstimate, ResourceEstimate)>,
    hashes: Vec<ArtifactHash>,
}

impl<'a> ArtifactContext<'a> {
    /// A context for a standalone circuit with no benchmark identity —
    /// QASM input to the `scq` CLI, for example.
    ///
    /// Only the `estimate` pass reads the benchmark (it calibrates the
    /// scale-free [`AppProfile`] from it), so this constructor is meant
    /// for runners that stop before it, like
    /// [`PipelineRunner::schedules`]; a full standard run would
    /// attribute the circuit to the default GSE profile.
    pub fn for_circuit(circuit: &'a Circuit, config: ToolflowConfig) -> Self {
        Self::new(Benchmark::Gse, circuit, config)
    }

    /// A fresh context over one circuit with no artifacts yet, on clean
    /// hardware and untraced.
    pub fn new(benchmark: Benchmark, circuit: &'a Circuit, config: ToolflowConfig) -> Self {
        ArtifactContext {
            benchmark,
            circuit,
            config,
            defects: DefectSpec::Clean,
            trace: false,
            dag: None,
            stats: None,
            code_distance: None,
            graph: None,
            layout: None,
            defect_maps: None,
            notes: Vec::new(),
            braid: None,
            braid_trace: None,
            planar: None,
            transcript: None,
            profile: None,
            estimates: None,
            hashes: Vec::new(),
        }
    }

    /// The same context on the hardware `defects` names.
    #[must_use]
    pub fn with_defects(mut self, defects: DefectSpec) -> Self {
        self.defects = defects;
        self
    }

    /// The same context with the trace request set: the scheduling
    /// passes then deposit the braid trace and the EPR transcript (the
    /// schedules are bit-identical either way).
    #[must_use]
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// The same context with its layout artifact seeded — a memoized
    /// placement, say — so `interaction-analysis` and `layout` skip.
    #[must_use]
    pub fn with_layout(mut self, layout: Layout) -> Self {
        self.layout = Some(layout);
        self
    }

    /// The input circuit.
    pub fn circuit(&self) -> &Circuit {
        self.circuit
    }

    /// The run configuration.
    pub fn config(&self) -> &ToolflowConfig {
        &self.config
    }

    /// The dependency DAG, once `normalize-ir` has run.
    pub fn dag(&self) -> Option<&DependencyDag> {
        self.dag.as_ref()
    }

    /// The logical circuit statistics, once `normalize-ir` has run.
    pub fn stats(&self) -> Option<&CircuitStats> {
        self.stats.as_ref()
    }

    /// The chosen code distance, once `code-distance` has run.
    pub fn code_distance(&self) -> Option<u32> {
        self.code_distance
    }

    /// The interaction graph, once `interaction-analysis` has run.
    pub fn graph(&self) -> Option<&InteractionGraph> {
        self.graph.as_ref()
    }

    /// The qubit layout, once `layout` has run (or was seeded).
    pub fn layout(&self) -> Option<&Layout> {
        self.layout.as_ref()
    }

    /// The braid schedule, once `braid-schedule` has run.
    pub fn braid(&self) -> Option<&BraidSchedule> {
        self.braid.as_ref()
    }

    /// The braid schedule's replayable trace, once a traced
    /// `braid-schedule` has run.
    pub fn braid_trace(&self) -> Option<&BraidTrace> {
        self.braid_trace.as_ref()
    }

    /// The planar schedule, once `planar-schedule` has run.
    pub fn planar(&self) -> Option<&PlanarSchedule> {
        self.planar.as_ref()
    }

    /// The defect map `backend` runs on, once the spec is materialized
    /// (`None` is clean hardware).
    pub fn defect_map(&self, backend: BackendKind) -> Option<&DefectMap> {
        self.defect_maps
            .as_ref()?
            .iter()
            .find(|(b, _)| *b == backend)?
            .1
            .as_ref()
    }

    /// Diagnostics the run recorded for its caller: one per backend a
    /// defect-map file did not fit, which therefore ran clean.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// Artifact provenance records, in deposit order.
    pub fn hashes(&self) -> &[ArtifactHash] {
        &self.hashes
    }

    /// Materializes the defect spec on the meshes of `backends`, every
    /// backend of one run, once per context (later calls keep the first
    /// result). The runner calls it before its first scheduling pass; a
    /// pass run on its own covers just its backend.
    ///
    /// # Errors
    ///
    /// [`ToolflowError::Defects`] for a malformed map file or one that
    /// fits none of `backends`' meshes.
    ///
    /// # Panics
    ///
    /// Panics on the braid backend before a layout exists.
    pub fn materialize_defects(&mut self, backends: &[BackendKind]) -> Result<(), ToolflowError> {
        if self.defect_maps.is_some() {
            return Ok(());
        }
        let meshes: Vec<(BackendKind, (u32, u32))> = backends
            .iter()
            .map(|&backend| match backend {
                BackendKind::Braid => {
                    let layout = self.layout.as_ref().expect("layout runs first");
                    (backend, braid_mesh_dims(layout, self.circuit))
                }
                BackendKind::Planar => {
                    (backend, PlanarMachine::grid_dims(self.circuit.num_qubits()))
                }
            })
            .collect();
        let (maps, notes) = self.defects.materialize(&meshes)?;
        self.defect_maps = Some(backends.iter().copied().zip(maps).collect());
        self.notes = notes;
        Ok(())
    }

    /// Certifies the schedule a traced run deposited for `backend` with
    /// the independent `scq-verify` certifier, on the defect map it ran
    /// on. `None` when the run was untraced or did not schedule
    /// `backend`.
    pub fn certify(&self, backend: BackendKind) -> Option<Vec<Finding>> {
        let dag = self.dag.as_ref()?;
        let defects = self.defect_map(backend);
        Some(match backend {
            BackendKind::Braid => {
                certify_braid_trace(self.braid_trace.as_ref()?, self.circuit, dag, defects)
            }
            BackendKind::Planar => certify_planar_schedule(
                self.planar.as_ref()?,
                self.transcript.as_ref()?,
                self.circuit,
                dag,
                defects,
            ),
        })
    }

    fn record(&mut self, artifact: &'static str, pass: &'static str, hash: u64) {
        self.hashes.push(ArtifactHash {
            artifact,
            pass,
            hash,
        });
    }

    /// Assembles the final [`ToolflowReport`] from a completed run.
    ///
    /// # Panics
    ///
    /// Panics if a standard pipeline did not run to completion (a
    /// missing artifact is a pipeline-ordering bug, not a user error).
    pub fn into_report(self) -> ToolflowReport {
        ToolflowReport {
            benchmark: self.benchmark,
            stats: self.stats.expect("normalize-ir pass ran"),
            code_distance: self.code_distance.expect("code-distance pass ran"),
            layout: self.layout.expect("layout pass ran"),
            braid: self.braid.expect("braid-schedule pass ran"),
            planar: self.planar.expect("planar-schedule pass ran"),
            profile: self.profile.expect("estimate pass ran"),
            estimates: self.estimates.expect("estimate pass ran"),
        }
    }
}

/// One stage of the toolflow pipeline.
pub trait ToolflowPass {
    /// Stable display name of the pass (also used in `pass_secs`
    /// bench breakdowns and `scq schedule --timings` output).
    fn name(&self) -> &'static str;
    /// The backend whose mesh the pass schedules on, if it is a
    /// scheduling pass: the runner materializes the defect spec on all
    /// of its passes' meshes at once.
    fn backend(&self) -> Option<BackendKind> {
        None
    }
    /// Runs the stage, reading predecessor artifacts from `cx` and
    /// depositing its own.
    ///
    /// # Errors
    ///
    /// Stage-specific [`ToolflowError`]s.
    fn run(&self, cx: &mut ArtifactContext<'_>) -> Result<(), ToolflowError>;
}

/// Frontend: dependency DAG + logical analysis.
pub struct NormalizeIrPass;

impl ToolflowPass for NormalizeIrPass {
    fn name(&self) -> &'static str {
        "normalize-ir"
    }

    fn run(&self, cx: &mut ArtifactContext<'_>) -> Result<(), ToolflowError> {
        let dag = DependencyDag::from_circuit(cx.circuit);
        let stats = scq_ir::analysis::analyze_with_dag(cx.circuit, &dag);
        cx.record("normalized-ir", self.name(), cx.circuit.cache_key());
        cx.record("circuit-stats", self.name(), stats_key(&stats));
        cx.dag = Some(dag);
        cx.stats = Some(stats);
        Ok(())
    }
}

/// Code distance from computation size and technology.
pub struct CodeDistancePass;

impl ToolflowPass for CodeDistancePass {
    fn name(&self) -> &'static str {
        "code-distance"
    }

    fn run(&self, cx: &mut ArtifactContext<'_>) -> Result<(), ToolflowError> {
        let total_ops = cx.stats.as_ref().map_or(1, |s| s.total_ops.max(1));
        let d = match cx.config.code_distance {
            Some(d) => d,
            None => cx
                .config
                .distance_model
                .required_distance_for_ops(cx.config.technology.p_physical, total_ops as f64)?,
        };
        let mut h = KeyHasher::new();
        h.write_str("code-distance/v1");
        h.write_u32(d);
        cx.record("code-distance", self.name(), h.finish());
        cx.code_distance = Some(d);
        Ok(())
    }
}

/// Mapping-level analysis: the weighted interaction graph.
pub struct InteractionAnalysisPass;

impl ToolflowPass for InteractionAnalysisPass {
    fn name(&self) -> &'static str {
        "interaction-analysis"
    }

    fn run(&self, cx: &mut ArtifactContext<'_>) -> Result<(), ToolflowError> {
        if cx.layout.is_some() {
            return Ok(()); // a seeded layout needs no graph
        }
        let graph = InteractionGraph::from_circuit(cx.circuit);
        let mut h = KeyHasher::new();
        h.write_str("interaction-graph/v1");
        h.write_u32(graph.num_qubits());
        for (a, b, w) in graph.iter() {
            h.write_u32(a);
            h.write_u32(b);
            h.write_u64(w);
        }
        cx.record("interaction-graph", self.name(), h.finish());
        cx.graph = Some(graph);
        Ok(())
    }
}

/// Mapping-level optimization: qubit placement for the policy's
/// strategy. This is the artifact `scq-serve` memoizes separately from
/// schedules — its hash moves with the circuit and strategy but *not*
/// with the policy index or code distance. A seeded layout
/// ([`ArtifactContext::with_layout`]) skips the pass.
pub struct LayoutPass;

impl ToolflowPass for LayoutPass {
    fn name(&self) -> &'static str {
        "layout"
    }

    fn run(&self, cx: &mut ArtifactContext<'_>) -> Result<(), ToolflowError> {
        if cx.layout.is_some() {
            return Ok(());
        }
        let graph = cx
            .graph
            .as_ref()
            .expect("interaction-analysis runs before layout");
        let layout = place(graph, cx.config.policy.layout_strategy(), None);
        cx.record("layout", self.name(), layout.cache_key());
        cx.layout = Some(layout);
        Ok(())
    }
}

/// Network-level: the double-defect braid schedule, on the braid mesh's
/// materialized defect map; traced runs deposit its [`BraidTrace`].
pub struct BraidSchedulePass;

impl ToolflowPass for BraidSchedulePass {
    fn name(&self) -> &'static str {
        "braid-schedule"
    }

    fn backend(&self) -> Option<BackendKind> {
        Some(BackendKind::Braid)
    }

    fn run(&self, cx: &mut ArtifactContext<'_>) -> Result<(), ToolflowError> {
        cx.materialize_defects(&[BackendKind::Braid])?;
        let dag = cx.dag.as_ref().expect("normalize-ir runs first");
        let layout = cx.layout.as_ref().expect("layout runs first");
        let config = BraidConfig {
            policy: cx.config.policy,
            code_distance: cx.code_distance.expect("code-distance runs first"),
            ..Default::default()
        };
        let defects = cx.defect_map(BackendKind::Braid);
        let braid = if cx.trace {
            let mut sink = EventCollector::default();
            let braid = schedule_with(cx.circuit, dag, layout, &config, defects, &mut sink)?;
            cx.braid_trace = Some(sink.into_trace(layout, cx.circuit, &braid));
            braid
        } else {
            schedule_with(cx.circuit, dag, layout, &config, defects, &mut NoTrace)?
        };
        cx.record("braid-schedule", self.name(), braid_key(&braid));
        cx.braid = Some(braid);
        Ok(())
    }
}

/// Network-level: the planar Multi-SIMD + EPR-pipeline schedule, on the
/// planar mesh's materialized defect map; traced runs deposit its
/// [`EprTranscript`].
pub struct PlanarSchedulePass;

impl ToolflowPass for PlanarSchedulePass {
    fn name(&self) -> &'static str {
        "planar-schedule"
    }

    fn backend(&self) -> Option<BackendKind> {
        Some(BackendKind::Planar)
    }

    fn run(&self, cx: &mut ArtifactContext<'_>) -> Result<(), ToolflowError> {
        cx.materialize_defects(&[BackendKind::Planar])?;
        let dag = cx.dag.as_ref().expect("normalize-ir runs first");
        let config = PlanarConfig {
            code_distance: cx.code_distance.expect("code-distance runs first"),
            ..Default::default()
        };
        let run = FabricRun {
            defects: cx.defect_map(BackendKind::Planar),
            fault_seed: cx.defects.fault_seed(),
            transcript: cx.trace,
        };
        let (planar, transcript) =
            schedule_planar_with(cx.circuit, dag, &config, &BaselinePlacement, &run)?;
        cx.record("planar-schedule", self.name(), planar_key(&planar));
        cx.planar = Some(planar);
        cx.transcript = transcript;
        Ok(())
    }
}

/// Design-space verdict: calibrated profile + space-time estimates.
pub struct EstimatePass;

impl ToolflowPass for EstimatePass {
    fn name(&self) -> &'static str {
        "estimate"
    }

    fn run(&self, cx: &mut ArtifactContext<'_>) -> Result<(), ToolflowError> {
        let total_ops = cx.stats.as_ref().map_or(1, |s| s.total_ops.max(1));
        let profile = AppProfile::calibrate(cx.benchmark);
        let est_config = EstimateConfig {
            technology: cx.config.technology,
            distance_model: cx.config.distance_model,
            ..cx.config.estimate
        };
        let estimates = estimate_both(&profile, total_ops as f64, &est_config)?;
        let mut h = KeyHasher::new();
        h.write_str("estimates/v1");
        h.write_f64(estimates.0.space_time());
        h.write_f64(estimates.1.space_time());
        cx.record("estimates", self.name(), h.finish());
        cx.profile = Some(profile);
        cx.estimates = Some(estimates);
        Ok(())
    }
}

/// The wall-clock and provenance record of one pipeline run.
#[derive(Clone, Debug, Default)]
pub struct PipelineTrace {
    /// Per-pass wall time, in execution order (shares `scq-verify`'s
    /// [`PassTiming`] shape).
    pub timings: Vec<PassTiming>,
    /// Artifact provenance records, in deposit order.
    pub hashes: Vec<ArtifactHash>,
}

/// Runs a sequence of [`ToolflowPass`]es over one [`ArtifactContext`],
/// timing each pass and recording artifact hashes.
pub struct PipelineRunner {
    passes: Vec<Box<dyn ToolflowPass>>,
}

impl Default for PipelineRunner {
    fn default() -> Self {
        PipelineRunner::standard()
    }
}

impl PipelineRunner {
    /// The standard toolflow pipeline, in dependency order.
    pub fn standard() -> Self {
        Self::schedules().then(EstimatePass)
    }

    /// The frontend-and-mapping half of the standard pipeline —
    /// `normalize-ir` through `layout` — for callers that need the
    /// analysis artifacts but no schedule, like `scq check`.
    pub fn analysis() -> Self {
        Self::frontend()
            .then(InteractionAnalysisPass)
            .then(LayoutPass)
    }

    /// [`PipelineRunner::analysis`] then `braid-schedule`: the braid
    /// backend alone.
    pub fn braid() -> Self {
        Self::analysis().then(BraidSchedulePass)
    }

    /// `normalize-ir`, `code-distance`, then `planar-schedule`: the
    /// planar backend alone, which needs no layout.
    pub fn planar() -> Self {
        Self::frontend().then(PlanarSchedulePass)
    }

    /// Both schedules without `estimate`: the standard pipeline for a
    /// circuit with no benchmark to calibrate against.
    pub fn schedules() -> Self {
        Self::braid().then(PlanarSchedulePass)
    }

    fn frontend() -> Self {
        PipelineRunner { passes: Vec::new() }
            .then(NormalizeIrPass)
            .then(CodeDistancePass)
    }

    fn then(mut self, pass: impl ToolflowPass + 'static) -> Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Runs every pass in order over `cx`, stopping at the first error.
    /// The defect spec is materialized on every scheduling pass's mesh
    /// before the first of them runs (see
    /// [`ArtifactContext::materialize_defects`]).
    ///
    /// # Errors
    ///
    /// Whatever the failing pass returns.
    pub fn run(&self, cx: &mut ArtifactContext<'_>) -> Result<PipelineTrace, ToolflowError> {
        let backends: Vec<BackendKind> = self.passes.iter().filter_map(|p| p.backend()).collect();
        let mut trace = PipelineTrace::default();
        for pass in &self.passes {
            let t0 = Instant::now();
            if pass.backend().is_some() {
                cx.materialize_defects(&backends)?;
            }
            pass.run(cx)?;
            trace.timings.push(PassTiming {
                pass: pass.name(),
                duration: t0.elapsed(),
            });
        }
        trace.hashes = cx.hashes.clone();
        Ok(trace)
    }
}

/// Content hash of the logical analysis (name excluded, like the
/// circuit key: it never influences scheduling).
fn stats_key(stats: &CircuitStats) -> u64 {
    let mut h = KeyHasher::new();
    h.write_str("circuit-stats/v1");
    h.write_u32(stats.num_qubits);
    h.write_usize(stats.total_ops);
    h.write_usize(stats.t_count);
    h.write_usize(stats.two_qubit_ops);
    h.write_usize(stats.depth);
    h.write_f64(stats.parallelism_factor);
    h.write_usize(stats.max_width);
    h.write_usize(stats.gate_histogram.len());
    for (gate, count) in &stats.gate_histogram {
        h.write_str(gate.mnemonic());
        h.write_usize(*count);
    }
    h.finish()
}

/// Content hash of a braid schedule's headline metrics.
fn braid_key(s: &BraidSchedule) -> u64 {
    let mut h = KeyHasher::new();
    h.write_str("braid-schedule/v1");
    h.write_u64(s.cycles);
    h.write_u64(s.critical_path_cycles);
    h.write_u64(s.braids_placed);
    h.write_u64(s.total_braid_hops);
    h.write_u64(s.adaptive_routes);
    h.write_u64(s.drops);
    h.write_f64(s.mesh_utilization);
    h.finish()
}

/// Content hash of a planar schedule's headline metrics.
fn planar_key(s: &PlanarSchedule) -> u64 {
    let mut h = KeyHasher::new();
    h.write_str("planar-schedule/v1");
    h.write_u64(s.cycles);
    h.write_u64(s.timesteps);
    h.write_u64(s.link_stall_cycles);
    h.write_u64(s.peak_in_flight_eprs as u64);
    h.write_u64(s.hottest_link_busy_cycles);
    h.write_u64(s.simd.total_teleports());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Circuit {
        let mut b = Circuit::builder("pipeline-test", 6);
        for i in 0..5u32 {
            b.h(i).cnot(i, i + 1).t(i + 1);
        }
        b.finish()
    }

    #[test]
    fn standard_pipeline_deposits_every_artifact_with_a_hash() {
        let c = small();
        let mut cx = ArtifactContext::new(Benchmark::Gse, &c, ToolflowConfig::default());
        let trace = PipelineRunner::standard().run(&mut cx).unwrap();
        assert_eq!(trace.timings.len(), 7);
        let artifacts: Vec<&str> = trace.hashes.iter().map(|h| h.artifact).collect();
        assert_eq!(
            artifacts,
            vec![
                "normalized-ir",
                "circuit-stats",
                "code-distance",
                "interaction-graph",
                "layout",
                "braid-schedule",
                "planar-schedule",
                "estimates",
            ]
        );
        assert!(cx.layout().is_some());
        let report = cx.into_report();
        assert!(report.braid.cycles >= report.braid.critical_path_cycles);
    }

    #[test]
    fn artifact_hashes_are_deterministic_across_runs() {
        let c = small();
        let run = || {
            let mut cx = ArtifactContext::new(Benchmark::Gse, &c, ToolflowConfig::default());
            PipelineRunner::standard().run(&mut cx).unwrap().hashes
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn layout_hash_moves_with_strategy_but_not_policy_within_it() {
        use scq_braid::Policy;
        let c = small();
        let layout_hash = |policy| {
            let config = ToolflowConfig {
                policy,
                ..Default::default()
            };
            let mut cx = ArtifactContext::new(Benchmark::Gse, &c, config);
            let trace = PipelineRunner::standard().run(&mut cx).unwrap();
            trace
                .hashes
                .iter()
                .find(|h| h.artifact == "layout")
                .unwrap()
                .hash
        };
        // P2..P6 share the interaction-aware strategy: same placement.
        assert_eq!(layout_hash(Policy::P3), layout_hash(Policy::P6));
        // P0 uses the linear strategy: different placement artifact.
        assert_ne!(layout_hash(Policy::P0), layout_hash(Policy::P6));
    }

    #[test]
    fn a_planar_sized_map_applies_there_and_fits_no_braid_only_run() {
        let c = small();
        let (w, h) = PlanarMachine::grid_dims(c.num_qubits());
        let spec = DefectSpec::Map {
            label: "p.map".to_string(),
            text: format!("dims {w} {h}\nnode 0 0\n"),
            seed: 0,
        };
        let config = ToolflowConfig::default();
        let mut both = ArtifactContext::for_circuit(&c, config).with_defects(spec.clone());
        PipelineRunner::schedules().run(&mut both).unwrap();
        let planar_map = both.defect_map(BackendKind::Planar);
        assert_eq!(planar_map.map(DefectMap::dead_node_count), Some(1));
        assert!(both.defect_map(BackendKind::Braid).is_none());
        assert_eq!(both.notes().len(), 1, "{:?}", both.notes());
        let mut clean = ArtifactContext::for_circuit(&c, config);
        PipelineRunner::braid().run(&mut clean).unwrap();
        assert_eq!(both.braid(), clean.braid(), "braid ran clean");

        let mut braid_only = ArtifactContext::for_circuit(&c, config).with_defects(spec);
        let err = PipelineRunner::braid().run(&mut braid_only).unwrap_err();
        let (bw, bh) = braid_mesh_dims(clean.layout().unwrap(), &c);
        let expected = format!("defect map p.map is {w}x{h} but the braid mesh is {bw}x{bh}");
        assert!(matches!(err, ToolflowError::Defects(_)), "{err}");
        assert_eq!(err.to_string(), expected);
        assert!(braid_only.braid().is_none(), "nothing scheduled");
    }

    #[test]
    fn traced_runs_deposit_certifiable_artifacts_and_schedule_identically() {
        let c = small();
        let spec = DefectSpec::Sampled {
            rate: 0.02,
            seed: 7,
        };
        let mut untraced =
            ArtifactContext::for_circuit(&c, ToolflowConfig::default()).with_defects(spec);
        let mut traced = untraced.clone().with_trace(true);
        PipelineRunner::schedules().run(&mut traced).unwrap();
        PipelineRunner::schedules().run(&mut untraced).unwrap();
        for backend in [BackendKind::Braid, BackendKind::Planar] {
            assert_eq!(traced.certify(backend), Some(Vec::new()), "{backend}");
            assert_eq!(untraced.certify(backend), None, "{backend}");
        }
        assert_eq!(traced.braid(), untraced.braid());
        assert_eq!(traced.planar(), untraced.planar());
    }

    #[test]
    fn threshold_error_stops_the_pipeline_at_code_distance() {
        use scq_surface::Technology;
        let c = small();
        let config = ToolflowConfig {
            technology: Technology::default().with_error_rate(0.02),
            ..Default::default()
        };
        let mut cx = ArtifactContext::new(Benchmark::Gse, &c, config);
        let err = PipelineRunner::standard().run(&mut cx).unwrap_err();
        assert!(matches!(err, ToolflowError::Threshold(_)));
        assert!(cx.layout().is_none(), "no pass after the failure ran");
    }
}
