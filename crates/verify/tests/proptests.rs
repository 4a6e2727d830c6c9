//! Property-based completeness check: over the same random-circuit
//! corpus the engines' differential suites use, every schedule either
//! backend emits must certify clean — on pristine fabrics and on
//! sampled defect maps (where a structured scheduling error is the
//! only acceptable alternative to a clean certificate).

use proptest::prelude::*;
use scq_braid::{
    schedule_with, BraidConfig, BraidMachine, BraidTrace, EventCollector, ScheduleError,
};
use scq_ir::{Circuit, DependencyDag, Gate, InteractionGraph};
use scq_layout::{place, Layout, LayoutStrategy};
use scq_mesh::{CommError, DefectMap, Topology};
use scq_teleport::{
    schedule_planar_with, BaselinePlacement, EprTranscript, FabricRun, PlanarConfig, PlanarMachine,
    PlanarSchedule,
};
use scq_verify::{certify_braid_trace, certify_planar_schedule};

/// The braid trace of `c` on `layout`, optionally on a defected mesh.
fn braid_trace(
    c: &Circuit,
    dag: &DependencyDag,
    layout: &Layout,
    defects: Option<&DefectMap>,
) -> Result<BraidTrace, ScheduleError> {
    let mut sink = EventCollector::default();
    let schedule = schedule_with(c, dag, layout, &BraidConfig::default(), defects, &mut sink)?;
    Ok(sink.into_trace(layout, c, &schedule))
}

/// The planar schedule of `c` with its EPR transcript, optionally on a
/// defected machine (`seed` keys the transient faults).
fn planar_traced(
    c: &Circuit,
    dag: &DependencyDag,
    defects: Option<&DefectMap>,
    seed: u64,
) -> Result<(PlanarSchedule, EprTranscript), CommError> {
    let run = FabricRun {
        defects,
        fault_seed: seed,
        transcript: true,
    };
    let (schedule, transcript) =
        schedule_planar_with(c, dag, &PlanarConfig::default(), &BaselinePlacement, &run)?;
    Ok((schedule, transcript.expect("a transcript was requested")))
}

/// Arbitrary small circuit with a healthy mix of local ops, CNOTs, and
/// T gates — the same corpus shape as the engines' differential suites.
fn arb_circuit() -> impl Strategy<Value = Circuit> {
    (3u32..10)
        .prop_flat_map(|n| {
            let inst = (0usize..5, 0..n, 0..n.saturating_sub(1).max(1));
            (Just(n), proptest::collection::vec(inst, 1..60))
        })
        .prop_map(|(n, raw)| {
            let mut b = Circuit::builder("prop", n);
            for (kind, a, off) in raw {
                match kind {
                    0 => {
                        b.h(a);
                    }
                    1 => {
                        b.t(a);
                    }
                    2 => {
                        b.s(a);
                    }
                    _ => {
                        let second = (a + 1 + off) % n;
                        if second != a {
                            b.try_push(Gate::Cnot, &[a, second]).unwrap();
                        }
                    }
                }
            }
            b.finish()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn braid_traces_certify_clean(c in arb_circuit()) {
        let dag = DependencyDag::from_circuit(&c);
        let graph = InteractionGraph::from_circuit(&c);
        let layout = place(&graph, LayoutStrategy::InteractionAware);
        let trace = braid_trace(&c, &dag, &layout, None)
            .expect("clean fabrics schedule every corpus circuit");
        let findings = certify_braid_trace(&trace, &c, &dag, None);
        prop_assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn braid_traces_certify_clean_on_defects(c in arb_circuit(), seed in 0u64..500) {
        let dag = DependencyDag::from_circuit(&c);
        let graph = InteractionGraph::from_circuit(&c);
        let layout = place(&graph, LayoutStrategy::InteractionAware);
        let (mw, mh) = BraidMachine::grid_dims(c.num_qubits());
        let map = DefectMap::sample(Topology::new(mw, mh), 0.03, seed);
        // A structured scheduling error (the defects cut the machine
        // apart) is the only acceptable alternative to a clean
        // certificate — a flagged schedule is always a bug.
        if let Ok(trace) = braid_trace(&c, &dag, &layout, Some(&map)) {
            let findings = certify_braid_trace(&trace, &c, &dag, Some(&map));
            prop_assert!(findings.is_empty(), "{findings:?}");
        }
    }

    #[test]
    fn planar_schedules_certify_clean(c in arb_circuit()) {
        let dag = DependencyDag::from_circuit(&c);
        let (schedule, transcript) =
            planar_traced(&c, &dag, None, 0).expect("clean machines always schedule");
        let findings = certify_planar_schedule(&schedule, &transcript, &c, &dag, None);
        prop_assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn planar_schedules_certify_clean_on_defects(c in arb_circuit(), seed in 0u64..500) {
        let dag = DependencyDag::from_circuit(&c);
        let (gw, gh) = PlanarMachine::grid_dims(c.num_qubits());
        let map = DefectMap::sample(Topology::new(gw, gh), 0.03, seed);
        if let Ok((schedule, transcript)) = planar_traced(&c, &dag, Some(&map), seed) {
            let findings =
                certify_planar_schedule(&schedule, &transcript, &c, &dag, Some(&map));
            prop_assert!(findings.is_empty(), "{findings:?}");
        }
    }
}
