//! Defect smoke test for CI: proves the fault layer's two contract
//! halves on a fig6 subset.
//!
//! 1. **Zero defects change nothing**: at rate 0 both backends produce
//!    schedules bit-identical to the clean paths, so the defect seam
//!    cannot perturb the committed bench trajectories.
//! 2. **Two percent defects degrade gracefully**: every app either
//!    completes with a reported degradation multiplier or returns a
//!    structured unroutable diagnostic — never a panic, never a hang.
//!
//! Exits nonzero (via the failed assertion) when either half breaks.

#![warn(clippy::disallowed_methods)]

use scq_bench::{fig6_workloads, or_die, run_planar_on_defects, run_policy, run_policy_on_defects};
use scq_braid::Policy;
use scq_ir::DependencyDag;
use scq_teleport::{schedule_planar, PlanarConfig};

const CODE_DISTANCE: u32 = 5;
const DEFECT_RATE: f64 = 0.02;
const DEFECT_SEED: u64 = 20702;

fn main() {
    // The two cheapest fig6 workloads keep the smoke step fast while
    // still exercising congested braids and a multi-region SIMD trace.
    let workloads: Vec<_> = fig6_workloads().into_iter().take(2).collect();
    let mut completed = 0usize;
    for (bench, circuit) in &workloads {
        let app = bench.name();
        let dag = DependencyDag::from_circuit(circuit);

        // Half 1: the empty-map paths are bit-identical to HEAD.
        let clean_braid = run_policy(circuit, Policy::P6, CODE_DISTANCE);
        let zero_braid = or_die(
            run_policy_on_defects(circuit, Policy::P6, CODE_DISTANCE, 0.0, DEFECT_SEED),
            "rate-0 braid run must schedule cleanly",
        );
        assert_eq!(
            clean_braid, zero_braid,
            "{app}: rate-0 braid schedule diverged from the clean path"
        );
        let clean_planar = schedule_planar(
            circuit,
            &dag,
            &PlanarConfig {
                code_distance: CODE_DISTANCE,
                ..Default::default()
            },
        );
        let zero_planar = or_die(
            run_planar_on_defects(circuit, CODE_DISTANCE, 0.0, DEFECT_SEED),
            "rate-0 planar run must schedule cleanly",
        );
        assert_eq!(
            clean_planar, zero_planar,
            "{app}: rate-0 planar schedule diverged from the clean path"
        );
        println!(
            "{app}: rate 0 bit-identical (braid {} cycles, planar {} cycles)",
            clean_braid.cycles, clean_planar.cycles
        );

        // Half 2: 2% defects complete with a multiplier or report a
        // structured diagnostic.
        match run_policy_on_defects(circuit, Policy::P6, CODE_DISTANCE, DEFECT_RATE, DEFECT_SEED) {
            Ok(s) => {
                completed += 1;
                println!(
                    "{app}: braid degraded {:.2}x ({} -> {} cycles)",
                    s.cycles as f64 / clean_braid.cycles.max(1) as f64,
                    clean_braid.cycles,
                    s.cycles
                );
            }
            Err(e) => println!("{app}: braid unroutable at 2% defects: {e}"),
        }
        match run_planar_on_defects(circuit, CODE_DISTANCE, DEFECT_RATE, DEFECT_SEED) {
            Ok(s) => {
                completed += 1;
                println!(
                    "{app}: planar degraded {:.2}x ({} -> {} cycles, {} transient faults)",
                    s.cycles as f64 / clean_planar.cycles.max(1) as f64,
                    clean_planar.cycles,
                    s.cycles,
                    s.transient_faults
                );
            }
            Err(e) => println!("{app}: planar unroutable at 2% defects: {e}"),
        }
    }
    assert!(
        completed > 0,
        "every (app, backend) point came back unroutable at {DEFECT_RATE}"
    );
    println!("defect_smoke: ok — {completed} degraded points completed, rate-0 bit-identity held");
}
