//! The `scq` command-line tool: analyze, optimize, schedule, and compare
//! encodings for circuits in the QASM text format.
//!
//! ```text
//! scq analyze  <file.qasm>                     logical stats + optimization report
//! scq check    <file.qasm> [policy] [distance] static IR + admission check passes
//! scq schedule <file.qasm> [policy] [distance] braid + planar schedules
//! scq compare  <file.qasm> [p_physical]        encoding recommendation
//! scq heatmap  <file.qasm> [distance]          braid congestion heatmap
//! scq batch    <requests.txt>                  cached batch scheduling service
//! ```
//!
//! `batch` drives the `scq-serve` layer: one request per line, served
//! through the content-addressed schedule cache on the work-stealing
//! pool, with per-request cache provenance (hit / miss / dedup) in the
//! output. Request lines are whitespace-separated `key=value` tokens —
//! `app=<gse|sq|sha1|im|im-semi>` or `qasm=<file>`, plus optional
//! `scale=`, `backend=<braid|planar>`, `policy=`, `distance=`,
//! `defect-rate=`/`defect-seed=` or `defect-map=`, and the bare
//! `verify` flag. Blank lines and `#` comments are skipped.
//!
//! `check`, `schedule`, and `heatmap` additionally accept the defect
//! flags `--defect-rate R`, `--defect-seed S`, and `--defect-map FILE`
//! (rate and map are mutually exclusive) to run the same circuit on
//! non-ideal hardware. Sampled maps are drawn per backend at that
//! backend's own mesh dimensions from the shared seed; a map file
//! applies to each backend whose mesh matches its declared dimensions
//! (another backend of the run runs clean, with a note), and is an
//! error when it matches none. The seed also drives the transient
//! faults of flaky links, sampled or from a file. Circuits that the
//! defects make unroutable exit nonzero with a structured diagnostic —
//! never a panic or a hang.
//!
//! `schedule --verify` additionally replays every emitted schedule
//! through the independent `scq-verify` certifier and fails (nonzero
//! exit) on any invariant violation.
//!
//! `schedule`, `check` and `heatmap` are runs of the `scq-core` pass
//! pipeline — the same passes `run_toolflow` executes — so
//! `schedule --timings` prints the run's own per-pass wall-clock
//! breakdown together with each artifact's content hash.
//!
//! Output goes through one locked stdout writer; a reader that closes
//! the pipe early (`scq heatmap ... | head`) ends the command quietly,
//! with exit 0.

#![warn(clippy::disallowed_methods)]

use std::error::Error;
use std::io::{self, Write};
use std::process::ExitCode;

use scq::braid::Policy;
use scq::core::{
    ArtifactContext, BackendKind, DefectSpec, PipelineRunner, PipelineTrace, ToolflowConfig,
    ToolflowError,
};
use scq::estimate::{estimate_both, AppProfile, EstimateConfig};
use scq::ir::{analysis, circuit_from_qasm, optimize, Circuit, CliError, DependencyDag};
use scq::serve::{load_request_file, BatchRunner};
use scq::surface::Technology;
use scq::teleport::PlanarMachine;
use scq::verify::{CheckContext, FabricView, Finding, PassRunner, Severity};

/// Standard output, locked once for the whole command.
type Out = io::StdoutLock<'static>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = io::stdout().lock();
    let result = match args.first().map(String::as_str) {
        Some("analyze") => with_circuit(&args, &mut out, cmd_analyze),
        Some("check") => with_circuit(&args, &mut out, cmd_check),
        Some("schedule") => with_circuit(&args, &mut out, cmd_schedule),
        Some("compare") => with_circuit(&args, &mut out, cmd_compare),
        Some("heatmap") => with_circuit(&args, &mut out, cmd_heatmap),
        Some("batch") => cmd_batch(&args[1..], &mut out),
        _ => {
            eprintln!(
                "usage: scq <analyze|check|schedule|compare|heatmap|batch> <input> [options]"
            );
            eprintln!("  analyze  <file.qasm>                  logical stats + optimizer report");
            eprintln!("  check    <file.qasm> [policy] [dist]  static IR + admission checks");
            eprintln!("  schedule <file.qasm> [policy] [dist]  braid + planar schedules");
            eprintln!("  compare  <file.qasm> [p_physical]     encoding recommendation");
            eprintln!("  heatmap  <file.qasm> [dist]           braid congestion heatmap");
            eprintln!("  batch    <requests.txt>               cached batch scheduling service");
            eprintln!("request-file lines (batch): key=value tokens, one request per line");
            eprintln!("  app=<gse|sq|sha1|im|im-semi> | qasm=<file>   circuit source (required)");
            eprintln!("  scale=<0..4> backend=<braid|planar> policy=<0..6> distance=<odd >= 3>");
            eprintln!("  defect-rate=R defect-seed=S | defect-map=FILE, bare `verify` to certify");
            eprintln!("  blank lines and # comments are skipped");
            eprintln!("defect flags (check, schedule, heatmap):");
            eprintln!("  --defect-rate R    sample dead tiles/links at rate R in [0, 1)");
            eprintln!("  --defect-seed S    PRNG seed for sampling and transient faults");
            eprintln!("  --defect-map FILE  explicit defect map (dims must match a backend)");
            eprintln!("verification:");
            eprintln!("  schedule --verify  certify emitted schedules with scq-verify");
            eprintln!("timing:");
            eprintln!("  schedule --timings per-pass wall clock + artifact content hashes");
            return ExitCode::from(2);
        }
    };
    match result.and_then(|()| Ok(out.flush()?)) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader closed stdout early (`| head`): it wanted no more.
        Err(e)
            if e.downcast_ref::<io::Error>()
                .is_some_and(|e| e.kind() == io::ErrorKind::BrokenPipe) =>
        {
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn Error>>;

fn with_circuit(
    args: &[String],
    out: &mut Out,
    run: fn(&Circuit, &[String], &mut Out) -> CliResult,
) -> CliResult {
    let path = args
        .get(1)
        .ok_or_else(|| CliError::usage("missing <file.qasm> argument"))?;
    let text = std::fs::read_to_string(path).map_err(|e| CliError::io(path, &e))?;
    let circuit = circuit_from_qasm(&text)?;
    run(&circuit, &args[2..], out)
}

/// Parses one argument, or a usage error naming it.
fn parse_arg<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, CliError> {
    s.parse()
        .map_err(|_| CliError::usage(format!("bad {what} `{s}`")))
}

/// Splits the `--defect-*` flags out of `rest` into the run's defect
/// spec, leaving the positionals.
fn parse_defect_opts(rest: &[String]) -> Result<(Vec<String>, DefectSpec), CliError> {
    let mut positionals = Vec::new();
    let (mut rate, mut seed, mut map) = (None, 0, None);
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| CliError::usage(format!("{arg} needs {what}")))
        };
        match arg.as_str() {
            "--defect-rate" => rate = Some(parse_arg(value("a value")?, "defect rate")?),
            "--defect-seed" => seed = parse_arg(value("a value")?, "defect seed")?,
            "--defect-map" => {
                let path = value("a path")?;
                let text = std::fs::read_to_string(path).map_err(|e| CliError::io(path, &e))?;
                map = Some((path.clone(), text));
            }
            s if s.starts_with("--") => {
                return Err(CliError::usage(format!("unknown flag `{s}`")));
            }
            _ => positionals.push(arg.clone()),
        }
    }
    Ok((positionals, DefectSpec::from_options(rate, seed, map)?))
}

fn cmd_analyze(circuit: &Circuit, _rest: &[String], out: &mut Out) -> CliResult {
    let stats = analysis::analyze(circuit);
    writeln!(out, "{stats}")?;
    let (optimized, ostats) = optimize::peephole(circuit);
    if ostats.removed() > 0 {
        let after = analysis::analyze(&optimized);
        writeln!(
            out,
            "peephole: {} cancelled, {} fused over {} pass(es) -> {} ops (depth {})",
            ostats.cancelled, ostats.fused, ostats.passes, after.total_ops, after.depth
        )?;
    } else {
        writeln!(out, "peephole: no redundancies found")?;
    }
    let dag = DependencyDag::from_circuit(circuit);
    let widths = dag.level_widths();
    writeln!(
        out,
        "width profile: peak {} parallel ops, {} levels",
        widths.iter().max().copied().unwrap_or(0),
        widths.len()
    )?;
    Ok(())
}

fn parse_policy(rest: &[String]) -> Result<Policy, CliError> {
    match rest.first() {
        None => Ok(Policy::P6),
        Some(s) => {
            let idx: usize = parse_arg(s, "policy")?;
            Policy::from_index(idx)
                .ok_or_else(|| CliError::invalid(format!("policy {idx} out of range")))
        }
    }
}

fn parse_distance(rest: &[String], pos: usize) -> Result<u32, CliError> {
    match rest.get(pos) {
        None => Ok(5),
        Some(s) => {
            let d: u32 = parse_arg(s, "distance")?;
            if d.is_multiple_of(2) || d < 3 {
                return Err(CliError::invalid(format!(
                    "distance must be odd and >= 3, got {d}"
                )));
            }
            Ok(d)
        }
    }
}

/// A pipeline context for `circuit` under `policy` at a pinned code
/// distance, on the hardware `defects` names.
fn context(circuit: &Circuit, policy: Policy, d: u32, defects: DefectSpec) -> ArtifactContext<'_> {
    ArtifactContext::for_circuit(circuit, ToolflowConfig::pinned(policy, d)).with_defects(defects)
}

/// Prints the run's notes (defect-map files a backend ran clean of).
fn print_notes(cx: &ArtifactContext) {
    for note in cx.notes() {
        eprintln!("note: {note}");
    }
}

fn describe_defects(out: &mut Out, cx: &ArtifactContext, backend: BackendKind) -> io::Result<()> {
    let Some(map) = cx.defect_map(backend) else {
        return Ok(());
    };
    let topo = map.topology();
    writeln!(
        out,
        "defects ({backend} mesh {}x{}): {} dead tiles, {} dead links, {} flaky links",
        topo.width(),
        topo.height(),
        map.dead_node_count(),
        map.dead_link_count(),
        map.flaky_link_count()
    )
}

/// The error that stopped `run` before it deposited what the report
/// needs next.
fn stopped(run: Result<PipelineTrace, ToolflowError>) -> Box<dyn Error> {
    match run {
        Err(e) => e.into(),
        Ok(_) => "the pipeline deposited no schedule".into(),
    }
}

/// Prints findings and converts any error-severity one into a CLI
/// failure naming the violated invariant.
fn report_findings(out: &mut Out, findings: &[Finding], what: &str) -> CliResult {
    for f in findings {
        writeln!(out, "  {f}")?;
    }
    let errors = findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .count();
    if errors > 0 {
        return Err(CliError::invalid(format!(
            "{what} failed certification with {errors} finding(s)"
        ))
        .into());
    }
    Ok(())
}

fn cmd_check(circuit: &Circuit, rest: &[String], out: &mut Out) -> CliResult {
    let (pos, defects) = parse_defect_opts(rest)?;
    let (policy, code_distance) = (parse_policy(&pos)?, parse_distance(&pos, 1)?);
    let mut cx = context(circuit, policy, code_distance, defects);
    // Frontend + mapping through the shared toolflow pass pipeline —
    // the same stages `run_toolflow` runs — and the defect spec on both
    // backends' meshes, then the independent scq-verify check passes
    // over the resulting artifacts.
    let pipeline = PipelineRunner::analysis().run(&mut cx)?;
    cx.materialize_defects(&[BackendKind::Braid, BackendKind::Planar])?;
    print_notes(&cx);
    describe_defects(out, &cx, BackendKind::Braid)?;
    describe_defects(out, &cx, BackendKind::Planar)?;
    let (Some(dag), Some(layout)) = (cx.dag(), cx.layout()) else {
        return Err(CliError::invalid("analysis pipeline deposited no DAG/layout").into());
    };
    let machine = PlanarMachine::new(circuit.num_qubits(), None);
    let check = CheckContext {
        circuit,
        dag,
        fabrics: vec![
            FabricView::braid(layout, circuit, None, cx.defect_map(BackendKind::Braid)),
            FabricView::planar(&machine, circuit, cx.defect_map(BackendKind::Planar)),
        ],
    };
    let report = PassRunner::standard().run(&check);
    for t in pipeline.timings.iter().chain(&report.timings) {
        writeln!(out, "pass {:<20} {:>9.1?}", t.pass, t.duration)?;
    }
    report_findings(out, &report.findings, circuit.name())?;
    writeln!(
        out,
        "check: {} passed ({} warning(s))",
        circuit.name(),
        report.warning_count()
    )?;
    Ok(())
}

fn cmd_schedule(circuit: &Circuit, rest: &[String], out: &mut Out) -> CliResult {
    let verify = rest.iter().any(|a| a == "--verify");
    let timings = rest.iter().any(|a| a == "--timings");
    let rest: Vec<String> = rest
        .iter()
        .filter(|a| *a != "--verify" && *a != "--timings")
        .cloned()
        .collect();
    let (pos, defects) = parse_defect_opts(&rest)?;
    let policy = parse_policy(&pos)?;
    let code_distance = parse_distance(&pos, 1)?;
    // Both backends in one traced run of the pass pipeline. The report
    // follows the run as far as it got, so a failure still prints what
    // preceded it.
    let mut cx = context(circuit, policy, code_distance, defects).with_trace(true);
    let run = PipelineRunner::schedules().run(&mut cx);
    print_notes(&cx);
    describe_defects(out, &cx, BackendKind::Braid)?;
    let (Some(braid), Some(trace)) = (cx.braid(), cx.braid_trace()) else {
        return Err(stopped(run));
    };
    trace.validate()?;
    let legs = trace.events.len();
    writeln!(out, "double-defect ({policy}, d={code_distance}): {braid}")?;
    writeln!(out, "  static replay: conflict-free ({legs} braid legs)")?;
    if verify {
        let findings = cx.certify(BackendKind::Braid).ok_or("no braid trace")?;
        report_findings(out, &findings, "braid schedule")?;
        writeln!(out, "  certified: {legs} braid invariants hold")?;
    }
    describe_defects(out, &cx, BackendKind::Planar)?;
    let Some(planar) = cx.planar() else {
        return Err(stopped(run));
    };
    if verify {
        let findings = cx.certify(BackendKind::Planar).ok_or("no EPR transcript")?;
        report_findings(out, &findings, "planar schedule")?;
    }
    writeln!(
        out,
        "planar (Multi-SIMD): {} cycles, {} teleports, peak {} live EPR pairs",
        planar.cycles,
        planar.simd.total_teleports(),
        planar.epr.peak_live_eprs
    )?;
    if verify {
        let flights = planar.epr.teleports;
        writeln!(out, "  certified: {flights} EPR flights replayed clean")?;
    }
    if planar.transient_faults > 0 {
        writeln!(
            out,
            "  transient faults: {} hop retries absorbed by the EPR pipeline",
            planar.transient_faults
        )?;
    }
    if timings {
        let pipeline = run?;
        writeln!(out, "per-pass timings:")?;
        for t in &pipeline.timings {
            writeln!(out, "  pass {:<20} {:>9.1?}", t.pass, t.duration)?;
        }
        writeln!(out, "artifact hashes:")?;
        for h in &pipeline.hashes {
            writeln!(out, "  {:<20} {:016x}  [{}]", h.artifact, h.hash, h.pass)?;
        }
    }
    Ok(())
}

/// `scq batch <requests.txt>`: serve every request in the file through
/// the content-addressed schedule cache, printing one line per request
/// with its cache provenance, then the cache totals.
///
/// Any malformed line aborts before scheduling starts (the loader
/// reports `path:lineno: ...`); any request that fails to schedule is
/// reported in place and turns the whole batch into a nonzero exit.
fn cmd_batch(args: &[String], out: &mut Out) -> CliResult {
    let path = args
        .first()
        .ok_or_else(|| CliError::usage("missing <requests.txt> argument"))?;
    let requests = load_request_file(path)?;
    if requests.is_empty() {
        return Err(CliError::invalid(format!(
            "{path}: no requests (only blank lines and comments)"
        ))
        .into());
    }
    let runner = BatchRunner::new(256);
    let responses = runner.run(&requests);
    let mut failed = 0usize;
    for r in &responses {
        match &r.outcome {
            Ok(outcome) => writeln!(
                out,
                "#{:<3} {:<24} [{}] {}",
                r.index, r.label, r.provenance, outcome.summary
            )?,
            Err(e) => {
                failed += 1;
                writeln!(
                    out,
                    "#{:<3} {:<24} [{}] failed: {e}",
                    r.index, r.label, r.provenance
                )?;
            }
        }
    }
    let stats = runner.cache_stats();
    writeln!(
        out,
        "served {} request(s): {} hits, {} misses, {} dedups, {} computes, hit rate {:.1}%",
        responses.len(),
        stats.hits,
        stats.misses,
        stats.inflight_dedups,
        stats.computes,
        stats.hit_rate() * 100.0
    )?;
    if failed > 0 {
        return Err(CliError::invalid(format!("{failed} request(s) failed to schedule")).into());
    }
    Ok(())
}

fn cmd_compare(circuit: &Circuit, rest: &[String], out: &mut Out) -> CliResult {
    let p_physical: f64 = match rest.first() {
        None => 1e-5,
        Some(s) => parse_arg(s, "error rate")?,
    };
    let profile = AppProfile::from_circuit(circuit, circuit.name());
    let config = EstimateConfig {
        technology: Technology::default().with_error_rate(p_physical),
        ..Default::default()
    };
    let kq = circuit.len().max(1) as f64;
    let (planar, dd) = estimate_both(&profile, kq, &config)?;
    writeln!(
        out,
        "at p_physical = {p_physical:.1e}, {kq:.0} logical ops:"
    )?;
    writeln!(out, "  {planar}")?;
    writeln!(out, "  {dd}")?;
    let ratio = dd.space_time() / planar.space_time();
    let verdict = if ratio > 1.0 {
        "planar"
    } else {
        "double-defect"
    };
    writeln!(
        out,
        "  space-time ratio (dd/planar): {ratio:.2} -> use {verdict} encoding"
    )?;
    Ok(())
}

fn cmd_heatmap(circuit: &Circuit, rest: &[String], out: &mut Out) -> CliResult {
    let (pos, defects) = parse_defect_opts(rest)?;
    let code_distance = parse_distance(&pos, 0)?;
    let mut cx = context(circuit, Policy::P6, code_distance, defects).with_trace(true);
    let run = PipelineRunner::braid().run(&mut cx);
    describe_defects(out, &cx, BackendKind::Braid)?;
    let (Some(braid), Some(trace)) = (cx.braid(), cx.braid_trace()) else {
        return Err(stopped(run));
    };
    writeln!(
        out,
        "{} braid legs over {} cycles, peak {} concurrent braids",
        trace.events.len(),
        braid.cycles,
        trace.peak_concurrent_braids()
    )?;
    writeln!(
        out,
        "link congestion (0-9 = busy-cycles relative to hottest link):"
    )?;
    write!(out, "{}", trace.render_heatmap())?;
    Ok(())
}
