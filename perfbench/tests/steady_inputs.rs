//! The benchmark's inputs and counts must repeat exactly: the same seed
//! gives byte-identical op sequences and request files, and two runs of
//! one op give identical cache computes, fabric events and braid cycles.

use std::collections::BTreeSet;

use scq_perfbench::golden::Golden;
use scq_perfbench::inputs::{batch_pass, batch_universe, pass_order, toolflow_points};
use scq_perfbench::trace::Tracer;
use scq_perfbench::workloads::{Batch, FabricScale, Toolflow, Workload};

/// The seed the golden file and the documented numbers use.
const SEED: u64 = 1;
/// A second seed, held out for checking a later performance claim.
const HELD_OUT_SEED: u64 = 2;

#[test]
fn same_seed_gives_byte_identical_inputs() {
    let universe = batch_universe();
    for pass in 0..4 {
        assert_eq!(
            batch_pass(&universe, SEED, pass),
            batch_pass(&universe, SEED, pass)
        );
        assert_eq!(pass_order(SEED, pass, 15), pass_order(SEED, pass, 15));
    }
    let (a, b) = (Toolflow::new(SEED), Toolflow::new(SEED));
    assert_eq!(a.pass(3), b.pass(3));
}

#[test]
fn held_out_seed_draws_other_inputs_over_the_same_ops() {
    let universe = batch_universe();
    // The warm-up pass is shared, so set-up does not depend on the seed.
    assert_eq!(
        batch_pass(&universe, SEED, 0),
        batch_pass(&universe, HELD_OUT_SEED, 0)
    );
    assert_eq!(pass_order(SEED, 0, 15), pass_order(HELD_OUT_SEED, 0, 15));
    for pass in 1..4 {
        let ours = batch_pass(&universe, SEED, pass);
        let held_out = batch_pass(&universe, HELD_OUT_SEED, pass);
        assert_ne!(ours, held_out);
        for files in [ours, held_out] {
            let mut seen = Vec::new();
            for f in &files {
                let distinct: BTreeSet<usize> = f.specs.iter().copied().collect();
                // About half of each file repeats its earlier lines.
                assert_eq!(f.specs.len(), 2 * distinct.len());
                seen.extend(distinct);
            }
            seen.sort_unstable();
            let all: Vec<usize> = (0..universe.len()).collect();
            assert_eq!(seen, all, "a pass requests every distinct op once");
        }
    }
    assert_ne!(pass_order(SEED, 1, 15), pass_order(HELD_OUT_SEED, 1, 15));
}

#[test]
fn batch_mix_matches_its_description() {
    let universe = batch_universe();
    assert_eq!(universe.len(), 180);
    let verified = universe.iter().filter(|s| s.verify).count();
    let defected = universe.iter().filter(|s| s.defect_seed.is_some()).count();
    assert_eq!((verified, defected), (36, 20));
    let lines: BTreeSet<String> = universe.iter().map(|s| s.line()).collect();
    assert_eq!(lines.len(), universe.len(), "every request is distinct");
}

#[test]
fn golden_file_covers_every_distinct_op() {
    let golden = Golden::committed();
    for p in toolflow_points() {
        assert!(golden.contains("toolflow", &p.key()), "{}", p.key());
    }
    for s in batch_universe() {
        assert!(golden.contains("batch", &s.key()), "{}", s.key());
    }
    let fabric = FabricScale::new(SEED);
    for op in 0..5 {
        let key = fabric.trace(op).name.replace(' ', "_");
        assert!(golden.contains("fabric", &key), "{key}");
    }
}

/// Runs `op` twice with fresh tracers and checks both against golden.
fn run_twice<W: Workload>(w: &W, op: usize) -> (Tracer, Tracer) {
    let golden = Golden::committed();
    let mut runs = Vec::new();
    for _ in 0..2 {
        let mut t = Tracer::enabled();
        let out = w.run(op, &mut t);
        for (kind, key, result) in w.results(op, &out).expect("op succeeds") {
            golden.check(kind, &key, &result).expect("matches golden");
        }
        runs.push(t);
    }
    let second = runs.pop().expect("two runs");
    (runs.pop().expect("two runs"), second)
}

#[test]
fn toolflow_braid_cycles_repeat() {
    let w = Toolflow::new(SEED);
    let op = (0..15)
        .find(|&op| w.point(op).key() == "SQ@0")
        .expect("SQ@0 is a toolflow point");
    let (a, b) = run_twice(&w, op);
    assert!(a.counter("braid.sim_cycles") > 0.0);
    assert_eq!(a.counter("braid.sim_cycles"), b.counter("braid.sim_cycles"));
    assert_eq!(a.counter("ir.ops"), b.counter("ir.ops"));
}

#[test]
fn batch_cache_computes_repeat() {
    let w = Batch::new(SEED);
    let op = w.pass(1)[0];
    let (a, b) = run_twice(&w, op);
    let distinct: BTreeSet<usize> = w.file(op).specs.iter().copied().collect();
    assert_eq!(a.counter("serve.computes"), distinct.len() as f64);
    assert_eq!(a.counter("serve.computes"), b.counter("serve.computes"));
    assert_eq!(a.counter("serve.errors"), 0.0);
}

#[test]
fn fabric_events_repeat() {
    let w = FabricScale::new(SEED);
    let op = (0..5)
        .find(|&op| w.trace(op).name.starts_with("IM-wide"))
        .expect("an IM-wide trace");
    let (a, b) = run_twice(&w, op);
    assert!(a.counter("mesh.events") > 0.0);
    assert_eq!(a.counter("mesh.events"), b.counter("mesh.events"));
}
