//! `perfbench`: runs one workload and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <toolflow|batch|fabric_scale> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones, measured untraced; with `--trace 1` they are
//! the per-layer ones from a traced run, and the spans are written to
//! `perfbench/out/`. `--write-golden` regenerates `golden.txt` from the
//! program's current outputs. The exit code is nonzero when any op
//! fails or disagrees with the golden file.

use std::process::{Command, ExitCode};
use std::time::Instant;

use scq_perfbench::golden::Golden;
use scq_perfbench::stats::{median, peak_rss_mb, quantile};
use scq_perfbench::trace::Tracer;
use scq_perfbench::workloads::{Batch, Checked, FabricScale, Toolflow, Workload};

const USAGE: &str = "usage: perfbench --workload <toolflow|batch|fabric_scale> --seed <n> \
                     --seconds <s> --trace <0|1> [--setup-only] | --write-golden";

/// A timed phase needs this many ops, so that ten samples lie beyond
/// its 90th percentile.
const MIN_OPS: usize = 100;

/// Cold set-ups per end-to-end run: this process plus fresh children.
/// `setup_s` and `peak_rss_mb` (the peak at the end of set-up, which
/// has made one pass over every distinct op) are medians over these.
const SETUPS: usize = 3;

/// The seed the golden file is generated from (any seed gives the same
/// distinct ops; this one is also the documented default).
const GOLDEN_SEED: u64 = 1;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
    write_golden: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: GOLDEN_SEED,
            seconds: 10.0,
            trace: false,
            setup_only: false,
            write_golden: false,
        };
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?,
                "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                    if !args.seconds.is_finite() || args.seconds <= 0.0 {
                        return Err("--seconds must be positive".into());
                    }
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                "--setup-only" => args.setup_only = true,
                "--write-golden" => args.write_golden = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(args)
    }
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.write_golden {
        return write_golden();
    }
    match args.workload.as_str() {
        "toolflow" => drive(start, &args, Toolflow::new),
        "batch" => drive(start, &args, Batch::new),
        "fabric_scale" => drive(start, &args, FabricScale::new),
        other => {
            eprintln!("perfbench: unknown workload `{other}`\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Ops attempted and failed; the first few failures are printed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, golden: &Golden, results: Result<Vec<Checked>, String>) {
        self.attempted += 1;
        let verdict = results.and_then(|rs| {
            rs.iter()
                .try_for_each(|(kind, key, result)| golden.check(kind, key, result))
        });
        if let Err(e) = verdict {
            if self.failed < 5 {
                eprintln!("perfbench: op failed: {e}");
            }
            self.failed += 1;
        }
    }
}

/// One timed phase: per-op latencies over whole passes.
struct Phase {
    latencies: Vec<f64>,
    passes: usize,
    wall: f64,
}

impl Phase {
    /// Ops per second over the whole phase. A shared VM's speed
    /// shifts in regimes of ten seconds or more; averaging over them
    /// spreads less from run to run than a median pass would, as the
    /// median jumps from one regime to the other.
    fn ops_per_s(&self) -> f64 {
        self.latencies.len() as f64 / self.wall
    }

    /// The `q`-quantile op latency in milliseconds, over every op.
    fn latency_ms(&self, q: f64) -> f64 {
        quantile(&self.latencies, q) * 1e3
    }
}

/// Runs whole passes from `first_pass` on until `seconds` have passed
/// and at least `min_ops` ops ran, checking each op after its timer
/// stops.
fn measure<W: Workload>(
    w: &W,
    first_pass: usize,
    seconds: f64,
    min_ops: usize,
    tracer: &mut Tracer,
    golden: &Golden,
    tally: &mut Tally,
) -> Phase {
    let start = Instant::now();
    let mut latencies = Vec::new();
    let mut pass = first_pass;
    loop {
        for op in w.pass(pass) {
            tracer.set_op(tally.attempted);
            let t0 = Instant::now();
            let out = tracer.span("bench.op", |t| w.run(op, t));
            latencies.push(t0.elapsed().as_secs_f64());
            tally.record(golden, w.results(op, &out));
        }
        pass += 1;
        let wall = start.elapsed().as_secs_f64();
        if wall >= seconds && latencies.len() >= min_ops {
            return Phase {
                latencies,
                passes: pass - first_pass,
                wall,
            };
        }
    }
}

fn drive<W: Workload>(start: Instant, args: &Args, setup: fn(u64) -> W) -> ExitCode {
    let golden = Golden::committed();
    let mut tally = Tally::default();
    let w = setup(args.seed);
    for op in w.pass(0) {
        let out = w.run(op, &mut Tracer::disabled());
        tally.record(&golden, w.results(op, &out));
    }
    let own_setup = start.elapsed().as_secs_f64();
    let own_peak = peak_rss_mb().unwrap_or(0.0);
    if args.setup_only {
        println!("setup_s {own_setup}");
        println!("peak_rss_mb {own_peak}");
        return exit_code(&tally);
    }

    println!(
        "perfbench workload={} seed={} seconds={} trace={} workers={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let metrics = if args.trace {
        traced_metrics(&w, args, &golden, &mut tally)
    } else {
        let phase = measure(
            &w,
            1,
            args.seconds,
            MIN_OPS,
            &mut Tracer::disabled(),
            &golden,
            &mut tally,
        );
        let mut setups = vec![own_setup];
        let mut peaks = vec![own_peak];
        for _ in 1..SETUPS {
            match child_setup(args) {
                Ok((secs, peak)) => {
                    setups.push(secs);
                    peaks.push(peak);
                }
                Err(e) => {
                    eprintln!("perfbench: set-up child failed: {e}");
                    tally.attempted += 1;
                    tally.failed += 1;
                }
            }
        }
        end_to_end_metrics(&phase, &setups, &peaks)
    };
    println!("attempted {} failed {}", tally.attempted, tally.failed);
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    exit_code(&tally)
}

fn exit_code(tally: &Tally) -> ExitCode {
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn end_to_end_metrics(phase: &Phase, setups: &[f64], peaks: &[f64]) -> Vec<Metric> {
    let n = phase.latencies.len();
    let metrics = vec![
        Metric {
            name: "ops_per_s",
            value: phase.ops_per_s(),
            unit: "1/s",
        },
        Metric {
            name: "op_p50_ms",
            value: phase.latency_ms(0.5),
            unit: "ms",
        },
        Metric {
            name: "op_p90_ms",
            value: phase.latency_ms(0.9),
            unit: "ms",
        },
        Metric {
            name: "setup_s",
            value: median(setups),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: median(peaks),
            unit: "MB",
        },
    ];
    println!(
        "ops: {n} over {:.3} s in {} passes; p50 and p90 from {n} samples, {} beyond p90",
        phase.wall,
        phase.passes,
        n - (0.9 * n as f64).ceil() as usize
    );
    println!("set-ups (s): {setups:?}; peak RSS after set-up (MiB): {peaks:?}");
    for m in &metrics {
        println!("{:<12} {:>14.6} {}", m.name, m.value, m.unit);
    }
    metrics
}

/// Where a per-layer metric comes from.
enum Source {
    /// Self time of every span with this name, per pass.
    Time(&'static str),
    /// A summed counter of seconds, per pass.
    Secs(&'static str),
    /// A summed counter, per pass.
    Count(&'static str),
    /// The largest value recorded.
    Max(&'static str),
    /// A counter over the self time of a span.
    Rate(&'static str, &'static str),
    /// Served without a compute over all requests served.
    HitRate,
    /// Traced over untraced ops per second.
    Overhead,
}

impl Source {
    fn unit(&self) -> &'static str {
        match self {
            Time(_) | Secs(_) => "s/pass",
            Count(_) => "count/pass",
            Max(_) => "count",
            Rate(..) => "1/s",
            HitRate | Overhead => "ratio",
        }
    }
}

use Source::{Count, HitRate, Max, Overhead, Rate, Secs, Time};

/// Every per-layer metric, in `BENCHMARK.json` order.
const LAYER_METRICS: [(&str, Source); 40] = [
    ("estimate.calibrate_s", Time("estimate.calibrate")),
    ("braid.schedule_s", Time("braid.schedule")),
    ("braid.sim_cycles", Count("braid.sim_cycles")),
    (
        "braid.sim_cycles_per_s",
        Rate("braid.sim_cycles", "braid.schedule"),
    ),
    ("braid.braids_placed", Count("braid.braids_placed")),
    ("braid.adaptive_routes", Count("braid.adaptive_routes")),
    ("braid.drops", Count("braid.drops")),
    ("teleport.planar_s", Time("teleport.planar")),
    ("teleport.teleports", Count("teleport.teleports")),
    (
        "teleport.link_stall_cycles",
        Count("teleport.link_stall_cycles"),
    ),
    ("teleport.fabric_s", Time("teleport.fabric")),
    ("mesh.route_s", Time("mesh.route")),
    ("mesh.events", Count("mesh.events")),
    ("mesh.events_per_s", Rate("mesh.events", "teleport.fabric")),
    ("mesh.peak_event_queue", Max("mesh.peak_event_queue")),
    ("teleport.route_hops", Count("teleport.route_hops")),
    ("serve.parse_s", Time("serve.parse")),
    ("serve.normalize_s", Time("serve.normalize")),
    ("serve.run_s", Time("serve.run")),
    ("serve.hit_s", Secs("serve.hit_s")),
    ("serve.hits", Count("serve.hits")),
    ("serve.misses", Count("serve.misses")),
    ("serve.dedups", Count("serve.dedups")),
    ("serve.evictions", Count("serve.evictions")),
    ("serve.computes", Count("serve.computes")),
    ("serve.hit_rate", HitRate),
    ("serve.placement_hits", Count("serve.placement_hits")),
    ("serve.errors", Count("serve.errors")),
    ("serve.compute_braid_s", Secs("serve.compute_braid_s")),
    ("serve.compute_planar_s", Secs("serve.compute_planar_s")),
    ("serve.compute_verified_s", Secs("serve.compute_verified_s")),
    ("serve.compute_defected_s", Secs("serve.compute_defected_s")),
    ("ir.normalize_s", Time("ir.normalize")),
    ("ir.interaction_s", Time("ir.interaction")),
    ("layout.place_s", Time("layout.place")),
    ("ir.ops", Count("ir.ops")),
    ("surface.distance_s", Time("surface.distance")),
    ("apps.generate_s", Time("apps.generate")),
    ("bench.self_s", Time("bench.op")),
    ("bench.tracing_overhead", Overhead),
];

/// The `--trace 1` run: an untraced phase for the baseline rate, then a
/// traced phase whose spans and counters give the per-layer metrics.
fn traced_metrics<W: Workload>(
    w: &W,
    args: &Args,
    golden: &Golden,
    tally: &mut Tally,
) -> Vec<Metric> {
    let half = args.seconds / 2.0;
    let untraced = measure(w, 1, half, 1, &mut Tracer::disabled(), golden, tally);
    let mut tracer = Tracer::enabled();
    let traced = measure(w, 1 + untraced.passes, half, 1, &mut tracer, golden, tally);
    let passes = traced.passes as f64;
    let self_times = tracer.self_times();
    let self_time = |span: &str| self_times.get(span).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let metrics: Vec<Metric> = LAYER_METRICS
        .iter()
        .map(|(name, source)| {
            let value = match source {
                Time(span) => self_time(span) / passes,
                Secs(c) | Count(c) => tracer.counter(c) / passes,
                Max(m) => tracer.maximum(m),
                Rate(c, span) => ratio(tracer.counter(c), self_time(span)),
                HitRate => {
                    let served = tracer.counter("serve.hits") + tracer.counter("serve.dedups");
                    ratio(served, served + tracer.counter("serve.misses"))
                }
                Overhead => ratio(traced.ops_per_s(), untraced.ops_per_s()),
            };
            Metric {
                name,
                value,
                unit: source.unit(),
            }
        })
        .collect();
    println!(
        "traced: {} ops in {} passes; untraced: {} ops in {} passes",
        traced.latencies.len(),
        traced.passes,
        untraced.latencies.len(),
        untraced.passes
    );
    for m in &metrics {
        println!("{:<28} {:>18.6} {}", m.name, m.value, m.unit);
    }
    match write_spans(&tracer, args) {
        Ok(path) => println!("spans: {path}"),
        Err(e) => eprintln!("perfbench: could not write spans: {e}"),
    }
    metrics
}

fn write_spans(tracer: &Tracer, args: &Args) -> std::io::Result<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/spans-{}-seed{}.tsv", args.workload, args.seed);
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    tracer.write_tsv(&mut out)?;
    std::io::Write::flush(&mut out)?;
    Ok(path)
}

/// Runs one cold set-up in a fresh copy of this binary and returns the
/// seconds it took and the copy's peak resident memory in MiB.
fn child_setup(args: &Args) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0", "--setup-only"])
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("exit {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let field = |name: &str| {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
            .ok_or_else(|| format!("no `{name}` line"))
    };
    Ok((field("setup_s ")?, field("peak_rss_mb ")?))
}

/// Regenerates `golden.txt` from one warm-up pass of each workload.
fn write_golden() -> ExitCode {
    let mut lines = Vec::new();
    let mut failed = false;
    let mut collect = |kind: &str, results: Vec<(usize, Result<Vec<Checked>, String>, f64)>| {
        for (op, r, secs) in results {
            match r {
                Ok(rs) => {
                    for (k, key, result) in rs {
                        eprintln!("{kind} op {op}: {secs:.4} s {key}");
                        lines.push(format!("{k} {key} {result}"));
                    }
                }
                Err(e) => {
                    eprintln!("{kind} op {op}: FAILED {e}");
                    failed = true;
                }
            }
        }
    };
    collect("toolflow", golden_pass(&Toolflow::new(GOLDEN_SEED)));
    collect("batch", golden_pass(&Batch::new(GOLDEN_SEED)));
    collect("fabric", golden_pass(&FabricScale::new(GOLDEN_SEED)));
    if failed {
        return ExitCode::FAILURE;
    }
    lines.sort();
    lines.dedup();
    let text = format!(
        "# Golden results of every distinct perfbench op (regenerate with --write-golden).\n{}\n",
        lines.join("\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden.txt");
    match std::fs::write(path, text) {
        Ok(()) => {
            println!("wrote {} entries to {path}", lines.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn golden_pass<W: Workload>(w: &W) -> Vec<(usize, Result<Vec<Checked>, String>, f64)> {
    w.pass(0)
        .into_iter()
        .map(|op| {
            let t0 = Instant::now();
            let out = w.run(op, &mut Tracer::disabled());
            let secs = t0.elapsed().as_secs_f64();
            (op, w.results(op, &out), secs)
        })
        .collect()
}
