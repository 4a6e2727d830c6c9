//! Calibrated application profiles for design-space extrapolation.
//!
//! The paper sweeps computation sizes up to 10^24 logical operations
//! (Figures 7-9) — far beyond what any simulator executes directly. Like
//! the paper's toolflow, we *calibrate* the scale-free characteristics of
//! each application (parallelism, operation mix, braid congestion,
//! layout distance coefficient) by simulating feasible instances, and
//! combine them with each application's analytic problem-size scaling to
//! evaluate arbitrary computation sizes.

use std::sync::OnceLock;

use scq_apps::Benchmark;
use scq_braid::{schedule_circuit, BraidConfig, Policy};
use scq_ir::{analysis, Circuit, DependencyDag, InteractionGraph};
use scq_layout::{place, LayoutStrategy, PlacementOutcome};
use scq_teleport::{
    hop_cycles_for_distance, schedule_simd, simulate_epr_on_fabric, CongestionAwarePlacement,
    DistributionPolicy, EprConfig, FabricEprConfig, FabricRun, PlanarConfig, PlanarMachine,
    SimdConfig, SimdSchedule,
};

/// How an application's logical qubit count scales with its logical
/// operation count (`KQ`, the paper's "size of computation").
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LogicalScaling {
    /// `qubits = a * KQ^b + c` — polynomial workloads (GSE: QPE rounds x
    /// Hamiltonian terms; IM: Trotter steps x chain length; SHA-1 with
    /// `b = 0`: fixed word machinery, op count scales with rounds).
    Power {
        /// Coefficient `a`.
        a: f64,
        /// Exponent `b`.
        b: f64,
        /// Offset `c`.
        c: f64,
    },
    /// Grover search: `KQ ≈ coeff * 2^(n/2) * n^2` over an `n`-bit
    /// register with `5n + 1` qubits — qubits are logarithmic in `KQ`.
    Grover {
        /// Calibrated op-count coefficient.
        coeff: f64,
    },
}

impl LogicalScaling {
    /// Logical data qubits needed for a computation of `kq` logical ops.
    pub fn qubits_for_ops(&self, kq: f64) -> f64 {
        match *self {
            LogicalScaling::Power { a, b, c } => a * kq.powf(b) + c,
            LogicalScaling::Grover { coeff } => {
                // Invert kq = coeff * 2^(n/2) * n^2 by bisection.
                let f = |n: f64| coeff * (n / 2.0).exp2() * n * n;
                let mut lo = 2.0f64;
                let mut hi = 2.0f64;
                while f(hi) < kq && hi < 4096.0 {
                    hi *= 2.0;
                }
                for _ in 0..64 {
                    let mid = 0.5 * (lo + hi);
                    if f(mid) < kq {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                let n = 0.5 * (lo + hi);
                5.0 * n + 1.0
            }
        }
    }
}

/// Scale-free characteristics of one application, calibrated from
/// simulated instances.
#[derive(Clone, Debug, PartialEq)]
pub struct AppProfile {
    /// Application name (paper abbreviation).
    pub name: String,
    /// Ideal parallelism factor (Table 2).
    pub parallelism: f64,
    /// Fraction of ops that are two-qubit (communication-inducing).
    pub frac_two_qubit: f64,
    /// Fraction of ops that consume a magic state.
    pub frac_t: f64,
    /// Braid schedule-to-critical-path ratio under Policy 6 — the
    /// congestion multiplier double-defect machines pay.
    pub braid_congestion: f64,
    /// Planar makespan-to-ideal ratio (>= 1) measured on the
    /// route-aware EPR fabric under constrained swap lanes — the
    /// residual latency multiplier just-in-time distribution pays,
    /// replacing the former closed-form ~4% constant with per-app
    /// measured fabric stalls.
    pub teleport_congestion: f64,
    /// Mean interaction distance divided by sqrt(logical qubits) under
    /// the optimized layout — converts machine size to tile distance.
    pub layout_kappa: f64,
    /// Qubit-count scaling law.
    pub scaling: LogicalScaling,
}

impl AppProfile {
    /// Calibrates the profile of `bench` by analyzing and scheduling a
    /// small instance.
    ///
    /// Computed once per process per [`Benchmark`]: the profile is a
    /// pure function of the enum (generators, layout, and the braid
    /// scheduler are all seeded), so the first call fills a process-wide
    /// slot and every call returns an owned clone of it. Callers may
    /// perturb their copy freely; the memo never sees it.
    pub fn calibrate(bench: Benchmark) -> AppProfile {
        static MEMO: [OnceLock<AppProfile>; Benchmark::ALL.len()] =
            [const { OnceLock::new() }; Benchmark::ALL.len()];
        let slot = Benchmark::ALL
            .iter()
            .position(|&b| b == bench)
            .expect("Benchmark::ALL lists every benchmark");
        MEMO[slot].get_or_init(|| calibrate_uncached(bench)).clone()
    }

    /// Calibrates a profile from a single user-provided circuit.
    ///
    /// Unlike [`AppProfile::calibrate`], no cross-size scaling law can be
    /// fit from one instance, so the qubit count is held constant: the
    /// profile is accurate *at this circuit's own computation size* and
    /// should not be extrapolated across sizes. Not memoized: the input
    /// is a circuit, not a key.
    pub fn from_circuit(circuit: &Circuit, name: impl Into<String>) -> AppProfile {
        let scaling = LogicalScaling::Power {
            a: 0.0,
            b: 0.0,
            c: f64::from(circuit.num_qubits()),
        };
        measure(circuit, circuit, name.into(), scaling)
    }

    /// Logical data qubits at computation size `kq`.
    pub fn logical_qubits(&self, kq: f64) -> f64 {
        self.scaling.qubits_for_ops(kq).max(2.0)
    }

    /// Fraction of ops that are local Cliffords.
    pub fn frac_local(&self) -> f64 {
        (1.0 - self.frac_two_qubit - self.frac_t).max(0.0)
    }
}

/// The uncached body of [`AppProfile::calibrate`].
fn calibrate_uncached(bench: Benchmark) -> AppProfile {
    // Parallelism, operation mix and layout distance come from the
    // paper-default instance (Table 2 characterizes the applications at
    // scale, not at toy sizes); congestion from a mid-size instance.
    measure(
        &bench.default_circuit(),
        &bench.scaled_circuit(calibration_scale(bench)),
        bench.name().to_owned(),
        fit_scaling(bench),
    )
}

/// The measurements both calibration entry points share: parallelism,
/// operation mix and the layout distance coefficient of
/// `stats_circuit`, and the braid (Policy 6) and teleport congestion
/// multipliers of `congestion_circuit`.
fn measure(
    stats_circuit: &Circuit,
    congestion_circuit: &Circuit,
    name: String,
    scaling: LogicalScaling,
) -> AppProfile {
    let stats = analysis::analyze(stats_circuit);
    let total = stats.total_ops.max(1) as f64;
    let config = BraidConfig {
        policy: Policy::P6,
        code_distance: 5,
        ..Default::default()
    };
    let braid_congestion = schedule_circuit(congestion_circuit, &config)
        .map(|s| s.schedule_to_cp_ratio())
        .unwrap_or(1.0)
        .max(1.0);
    let graph = InteractionGraph::from_circuit(stats_circuit);
    let layout = place(&graph, LayoutStrategy::InteractionAware, None);
    let qubits = stats_circuit.num_qubits();
    let kappa = if graph.total_weight() > 0 && qubits > 1 {
        layout.avg_interaction_distance(&graph) / f64::from(qubits).sqrt()
    } else {
        0.5
    };
    AppProfile {
        name,
        parallelism: stats.parallelism_factor.max(1.0),
        frac_two_qubit: stats.two_qubit_ops as f64 / total,
        frac_t: stats.t_count as f64 / total,
        braid_congestion,
        teleport_congestion: measured_teleport_congestion(congestion_circuit),
        layout_kappa: kappa.max(0.05),
        scaling,
    }
}

/// Measures an application's teleport congestion multiplier on the
/// route-aware EPR fabric: the makespan with constrained swap lanes
/// (two per tile boundary) over the makespan with unlimited lanes,
/// same launch policy. Window and global-bandwidth effects cancel in
/// the ratio, so what remains is precisely the link contention the
/// closed-form hop model could not see — near 1.0 for serial
/// applications, measurably above it for parallel ones whose EPR
/// halves share swap lanes.
///
/// The machine is laid out with the congestion-aware placement (the
/// configuration a deployed planar machine would run), so the
/// multiplier prices the *residual* contention after the heatmap →
/// placement feedback loop has steered demand off the hot columns, not
/// the naive row-major floorplan's.
fn measured_teleport_congestion(circuit: &Circuit) -> f64 {
    let planar = calibration_config();
    let (simd, machine, outcome) = calibration_placement(circuit, &planar);
    // The placement already measured the constrained run on the final
    // floorplan (`outcome.optimized`); only the unlimited one remains.
    let free = simulate_epr_on_fabric(
        &machine.requests_for(&simd),
        planar.policy,
        &FabricEprConfig::unlimited(planar.epr),
        machine.topology,
    );
    if free.pipeline.makespan == 0 {
        return 1.0;
    }
    (outcome.optimized.makespan as f64 / free.pipeline.makespan as f64).max(1.0)
}

/// The planar machine the teleport calibration runs: JIT window 64
/// over [`CALIBRATION_LANES`] swap lanes, distance-5 hops.
fn calibration_config() -> PlanarConfig {
    PlanarConfig {
        epr: EprConfig {
            hop_cycles: hop_cycles_for_distance(5),
            ..Default::default()
        },
        policy: DistributionPolicy::JustInTime { window: 64 },
        // fabric_config() scales hop_cycles by the code distance; the
        // distance is already priced into `epr` above, and
        // hop_cycles_for_distance(1) == 1 keeps the placement's
        // profiling runs on exactly that fabric.
        code_distance: 1,
        link_capacity: CALIBRATION_LANES,
        epr_factories: None,
        ..Default::default()
    }
}

/// The demand trace of `circuit` and its congestion-aware floorplan
/// under `planar`, with what the placement measured on the way.
fn calibration_placement(
    circuit: &Circuit,
    planar: &PlanarConfig,
) -> (SimdSchedule, PlanarMachine, PlacementOutcome) {
    let dag = DependencyDag::from_circuit(circuit);
    let simd = schedule_simd(circuit, &dag, &SimdConfig::default());
    let (machine, outcome) = CongestionAwarePlacement::default()
        .place_traced(circuit.num_qubits(), planar, &simd, &FabricRun::default())
        .expect("a defect-free floorplan always places");
    (simd, machine, outcome)
}

/// Swap lanes per link for the constrained calibration runs.
const CALIBRATION_LANES: u32 = 2;

/// Instance scale used for braid-congestion calibration: large enough to
/// exhibit contention, small enough to schedule quickly.
fn calibration_scale(bench: Benchmark) -> u32 {
    match bench {
        Benchmark::Gse | Benchmark::SquareRoot => 0,
        Benchmark::Sha1 | Benchmark::IsingSemi | Benchmark::IsingFull => 1,
    }
}

/// Fits each benchmark's qubit-vs-ops law from two generated sizes.
fn fit_scaling(bench: Benchmark) -> LogicalScaling {
    match bench {
        Benchmark::SquareRoot => {
            // kq = coeff * 2^(n/2) * n^2; fit coeff at the small size.
            let c = bench.small_circuit();
            let n = f64::from((c.num_qubits() - 1) / 5);
            let coeff = c.len() as f64 / ((n / 2.0).exp2() * n * n);
            LogicalScaling::Grover { coeff }
        }
        _ => {
            // Power-law fit q = a * kq^b from two instance sizes.
            let c0 = bench.scaled_circuit(0);
            let c1 = bench.scaled_circuit(2);
            let (k0, q0) = (c0.len() as f64, f64::from(c0.num_qubits()));
            let (k1, q1) = (c1.len() as f64, f64::from(c1.num_qubits()));
            let b = (q1 / q0).ln() / (k1 / k0).ln();
            let a = q0 / k0.powf(b);
            LogicalScaling::Power { a, b, c: 0.0 }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grover_scaling_is_logarithmic() {
        let s = LogicalScaling::Grover { coeff: 1.0 };
        let q4 = s.qubits_for_ops(1e4);
        let q12 = s.qubits_for_ops(1e12);
        let q20 = s.qubits_for_ops(1e20);
        assert!(q4 < q12 && q12 < q20);
        // Doubling the decades roughly doubles n (not the qubits ratio
        // of a power law).
        assert!(q20 / q4 < 10.0, "q20/q4 = {}", q20 / q4);
    }

    #[test]
    fn power_scaling() {
        let s = LogicalScaling::Power {
            a: 2.0,
            b: 0.5,
            c: 1.0,
        };
        assert!((s.qubits_for_ops(100.0) - 21.0).abs() < 1e-9);
    }

    #[test]
    fn sha1_qubits_grow_sublinearly() {
        let s = fit_scaling(Benchmark::Sha1);
        let q3 = s.qubits_for_ops(1e3);
        let q9 = s.qubits_for_ops(1e9);
        assert!(q9 > q3);
        assert!(q9 < q3 * 1e4, "growth too fast: {q3} -> {q9}");
    }

    #[test]
    fn calibrated_profiles_are_sane() {
        for bench in [Benchmark::Gse, Benchmark::IsingFull] {
            let p = AppProfile::calibrate(bench);
            assert!(p.parallelism >= 1.0, "{}: parallelism", p.name);
            assert!(p.frac_two_qubit > 0.0 && p.frac_two_qubit < 1.0);
            assert!(p.frac_t > 0.0 && p.frac_t < 1.0);
            assert!(p.frac_local() >= 0.0);
            assert!(p.braid_congestion >= 1.0);
            assert!(
                p.teleport_congestion >= 1.0 && p.teleport_congestion < 3.0,
                "{}: teleport congestion {}",
                p.name,
                p.teleport_congestion
            );
            assert!(p.layout_kappa > 0.0 && p.layout_kappa < 3.0);
            assert!(p.logical_qubits(1e6) > p.logical_qubits(1e2));
        }
    }

    #[test]
    fn parallel_apps_have_higher_congestion() {
        let sq = AppProfile::calibrate(Benchmark::SquareRoot);
        let im = AppProfile::calibrate(Benchmark::IsingFull);
        assert!(
            im.braid_congestion > sq.braid_congestion,
            "IM {} vs SQ {}",
            im.braid_congestion,
            sq.braid_congestion
        );
        assert!(im.parallelism > 10.0 * sq.parallelism);
    }

    #[test]
    fn from_circuit_profiles_user_programs() {
        let mut b = scq_ir::Circuit::builder("user", 6);
        for i in 0..5u32 {
            b.h(i).cnot(i, i + 1).t(i + 1);
        }
        let c = b.finish();
        let p = AppProfile::from_circuit(&c, "user");
        assert_eq!(p.name, "user");
        assert!(p.parallelism >= 1.0);
        assert!(p.frac_two_qubit > 0.0);
        // Constant scaling: qubits don't extrapolate.
        assert_eq!(p.logical_qubits(1e3), p.logical_qubits(1e12));
        assert_eq!(p.logical_qubits(1e3), 6.0);
    }

    #[test]
    fn calibrate_memo_matches_the_uncached_computation() {
        // Compared as Debug text: the bytes the toolflow's golden
        // digests hash.
        let bytes = |p: AppProfile| format!("{p:?}");
        for bench in Benchmark::ALL {
            let first = bytes(AppProfile::calibrate(bench));
            let repeat = bytes(AppProfile::calibrate(bench));
            assert_eq!(first, repeat, "{}: repeated call", bench.name());
            assert_eq!(first, bytes(calibrate_uncached(bench)), "{}", bench.name());
        }
    }

    #[test]
    fn placement_outcome_is_the_constrained_rerun() {
        // measured_teleport_congestion reads the tight makespan from the
        // placement instead of re-simulating it; pin that equivalence on
        // every calibration instance.
        let planar = calibration_config();
        for bench in Benchmark::ALL {
            let circuit = bench.scaled_circuit(calibration_scale(bench));
            let (simd, machine, outcome) = calibration_placement(&circuit, &planar);
            let tight = simulate_epr_on_fabric(
                &machine.requests_for(&simd),
                planar.policy,
                &FabricEprConfig {
                    epr: planar.epr,
                    link_capacity: CALIBRATION_LANES,
                },
                machine.topology,
            );
            assert_eq!(
                outcome.optimized.makespan,
                tight.pipeline.makespan,
                "{}",
                bench.name()
            );
        }
    }

    #[test]
    fn qubit_growth_ordering() {
        // Grover qubits grow far slower than IM's sqrt law.
        let sq = AppProfile::calibrate(Benchmark::SquareRoot);
        let im = AppProfile::calibrate(Benchmark::IsingFull);
        let ratio_sq = sq.logical_qubits(1e18) / sq.logical_qubits(1e6);
        let ratio_im = im.logical_qubits(1e18) / im.logical_qubits(1e6);
        assert!(ratio_sq < ratio_im);
    }
}
