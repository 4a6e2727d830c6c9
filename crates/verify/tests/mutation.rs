//! Seeded-mutation soundness suite: the certifier is only trustworthy
//! if each invariant checker actually rejects its violation class.
//!
//! Every test takes a known-good engine-emitted artifact (asserted to
//! certify clean first), applies one surgical corruption — overlap two
//! claim intervals, issue an op before its dependency releases, route
//! through a dead link, reverse an interval, walk off the planned
//! route, overflow a swap lane, drop a demand record — and asserts the
//! certifier reports a finding *naming the violated invariant*.

use scq_braid::{schedule_with, BraidConfig, BraidTrace, EventCollector};
use scq_ir::{Circuit, DependencyDag, InteractionGraph};
use scq_layout::{place, LayoutStrategy};
use scq_mesh::{DefectMap, Path};
use scq_teleport::{
    schedule_planar_with, BaselinePlacement, EprTranscript, FabricRun, PlanarConfig, PlanarSchedule,
};
use scq_verify::{certify_braid_trace, certify_planar_schedule, Finding, Invariant};

/// A T+CNOT-chain workload wide enough that braids contend and every
/// planar teleport crosses multiple links.
fn workload(n: u32) -> (Circuit, DependencyDag) {
    let mut b = Circuit::builder("mutation", n);
    for q in 0..n {
        b.h(q);
    }
    for q in 0..n {
        b.t(q);
    }
    for q in 0..n - 1 {
        b.cnot(q, q + 1);
    }
    for q in 0..n / 2 {
        b.cnot(q, q + n / 2);
    }
    let c = b.finish();
    let dag = DependencyDag::from_circuit(&c);
    (c, dag)
}

fn braid_fixture() -> (Circuit, DependencyDag, BraidTrace) {
    let (c, dag) = workload(10);
    let graph = InteractionGraph::from_circuit(&c);
    let layout = place(&graph, LayoutStrategy::InteractionAware);
    let mut sink = EventCollector::default();
    let schedule = schedule_with(&c, &dag, &layout, &BraidConfig::default(), None, &mut sink)
        .expect("the mutation workload schedules cleanly");
    let trace = sink.into_trace(&layout, &c, &schedule);
    (c, dag, trace)
}

fn planar_fixture() -> (Circuit, DependencyDag, PlanarSchedule, EprTranscript) {
    let (c, dag) = workload(16);
    let run = FabricRun {
        transcript: true,
        ..Default::default()
    };
    let (s, t) = schedule_planar_with(&c, &dag, &PlanarConfig::default(), &BaselinePlacement, &run)
        .expect("the mutation workload schedules cleanly");
    (c, dag, s, t.expect("a transcript was requested"))
}

/// Asserts the mutant's findings include `expected`, and that the
/// finding carries the invariant's stable name (what CI output and the
/// ISSUE acceptance criteria key on).
fn assert_flags(findings: &[Finding], expected: Invariant) {
    assert!(
        findings.iter().any(|f| f.invariant == expected),
        "expected a {} finding, got: {findings:?}",
        expected.name()
    );
    let named = findings
        .iter()
        .find(|f| f.invariant == expected)
        .expect("just asserted present");
    assert!(
        named.to_string().contains(expected.name()),
        "finding display must name the invariant: {named}"
    );
}

// ---------------------------------------------------------------- braid

#[test]
fn braid_overlapping_intervals_flag_spatial_exclusivity() {
    let (c, dag, mut trace) = braid_fixture();
    assert!(certify_braid_trace(&trace, &c, &dag, None).is_empty());
    // Re-issue op 1's claim over op 0's route while op 0 still holds it.
    let mut dup = trace.events[0].clone();
    dup.op = trace.events[1].op;
    dup.leg = 1;
    dup.close_cycle = trace.events[0].close_cycle + 2;
    trace.events.push(dup);
    let findings = certify_braid_trace(&trace, &c, &dag, None);
    assert_flags(&findings, Invariant::SpatialExclusivity);
}

#[test]
fn braid_issue_before_dependency_release_flags_dependency_order() {
    let (c, dag, mut trace) = braid_fixture();
    assert!(certify_braid_trace(&trace, &c, &dag, None).is_empty());
    // Find a traced op with a traced dependency and pull its claim to
    // cycle 0 — before the dependency's release — keeping the interval
    // well-formed so only the ordering invariant is violated.
    let idx = trace
        .events
        .iter()
        .position(|ev| {
            dag.preds(ev.op as usize)
                .iter()
                .any(|&p| trace.events.iter().any(|e| e.op == p && e.close_cycle > 1))
        })
        .expect("the chain workload has dependent braids");
    trace.events[idx].open_cycle = 0;
    let findings = certify_braid_trace(&trace, &c, &dag, None);
    assert_flags(&findings, Invariant::DependencyOrder);
}

#[test]
fn braid_route_through_dead_link_flags_defect_avoidance() {
    let (c, dag, trace) = braid_fixture();
    // Mark the first link of the first event's route dead; the trace
    // (scheduled on a clean mesh) now routes straight through it.
    let ev = trace
        .events
        .iter()
        .find(|ev| ev.path.len_hops() > 0)
        .expect("some braid spans a link");
    let (a, b) = ev.path.links().next().expect("path has a link");
    let map = DefectMap::from_text(&format!(
        "dims {} {}\nlink {} {} {} {}\n",
        trace.mesh_width, trace.mesh_height, a.x, a.y, b.x, b.y
    ))
    .expect("well-formed defect map");
    assert!(certify_braid_trace(&trace, &c, &dag, None).is_empty());
    let findings = certify_braid_trace(&trace, &c, &dag, Some(&map));
    assert_flags(&findings, Invariant::DefectAvoidance);
}

#[test]
fn braid_reversed_interval_flags_time_monotonicity() {
    let (c, dag, mut trace) = braid_fixture();
    assert!(certify_braid_trace(&trace, &c, &dag, None).is_empty());
    let ev = &mut trace.events[0];
    std::mem::swap(&mut ev.open_cycle, &mut ev.close_cycle);
    let findings = certify_braid_trace(&trace, &c, &dag, None);
    assert_flags(&findings, Invariant::TimeMonotonicity);
}

#[test]
fn braid_close_past_schedule_end_flags_time_monotonicity() {
    let (c, dag, mut trace) = braid_fixture();
    assert!(certify_braid_trace(&trace, &c, &dag, None).is_empty());
    trace.events[0].close_cycle = trace.cycles + 7;
    let findings = certify_braid_trace(&trace, &c, &dag, None);
    assert_flags(&findings, Invariant::TimeMonotonicity);
}

#[test]
fn braid_self_crossing_route_flags_route_well_formed() {
    let (c, dag, mut trace) = braid_fixture();
    assert!(certify_braid_trace(&trace, &c, &dag, None).is_empty());
    // Replace a route with one that doubles back onto its own source
    // router — adjacency holds, simplicity does not.
    let src = trace.events[0].path.source();
    let next = trace.events[0]
        .path
        .nodes()
        .get(1)
        .copied()
        .unwrap_or(scq_mesh::Coord::new(src.x + 1, src.y));
    trace.events[0].path = Path::new(vec![src, next, src]);
    let findings = certify_braid_trace(&trace, &c, &dag, None);
    assert_flags(&findings, Invariant::RouteWellFormed);
}

#[test]
fn braid_phantom_op_flags_demand_consistency() {
    let (c, dag, mut trace) = braid_fixture();
    assert!(certify_braid_trace(&trace, &c, &dag, None).is_empty());
    trace.events[0].op = c.len() as u32 + 5;
    let findings = certify_braid_trace(&trace, &c, &dag, None);
    assert_flags(&findings, Invariant::DemandConsistency);
}

#[test]
fn braid_second_leg_on_single_qubit_gate_flags_demand_consistency() {
    let (c, dag, mut trace) = braid_fixture();
    assert!(certify_braid_trace(&trace, &c, &dag, None).is_empty());
    let idx = trace
        .events
        .iter()
        .position(|ev| !c.instructions()[ev.op as usize].gate().is_two_qubit())
        .expect("T braids are traced");
    trace.events[idx].leg = 2;
    let findings = certify_braid_trace(&trace, &c, &dag, None);
    assert_flags(&findings, Invariant::DemandConsistency);
}

// --------------------------------------------------------------- planar

#[test]
fn planar_lane_overflow_flags_lane_capacity() {
    let (c, dag, s, mut t) = planar_fixture();
    assert!(certify_planar_schedule(&s, &t, &c, &dag, None).is_empty());
    // Pile duplicate holds onto one link until its lanes must overflow.
    let hop = *t.hops.first().expect("at least one hop");
    for _ in 0..=t.link_capacity {
        t.hops.push(hop);
    }
    let findings = certify_planar_schedule(&s, &t, &c, &dag, None);
    assert_flags(&findings, Invariant::LaneCapacity);
}

#[test]
fn planar_swapped_issue_timesteps_flag_dependency_order() {
    let (c, dag, mut s, t) = planar_fixture();
    assert!(certify_planar_schedule(&s, &t, &c, &dag, None).is_empty());
    let (a, b) = (0..c.len())
        .flat_map(|i| dag.preds(i).iter().map(move |&p| (p as usize, i)))
        .next()
        .expect("the workload has dependencies");
    s.simd.op_timesteps.swap(a, b);
    let findings = certify_planar_schedule(&s, &t, &c, &dag, None);
    assert_flags(&findings, Invariant::DependencyOrder);
}

#[test]
fn planar_corrupted_arrival_flags_time_monotonicity() {
    let (c, dag, s, mut t) = planar_fixture();
    assert!(certify_planar_schedule(&s, &t, &c, &dag, None).is_empty());
    t.arrivals[0] += 13;
    let findings = certify_planar_schedule(&s, &t, &c, &dag, None);
    assert_flags(&findings, Invariant::TimeMonotonicity);
}

#[test]
fn planar_off_route_hop_flags_route_well_formed() {
    let (c, dag, s, mut t) = planar_fixture();
    assert!(certify_planar_schedule(&s, &t, &c, &dag, None).is_empty());
    // Reverse one hop's direction: the attempt no longer matches the
    // pending link of its message's planned route.
    let hop = t.hops.first_mut().expect("at least one hop");
    std::mem::swap(&mut hop.from, &mut hop.to);
    let findings = certify_planar_schedule(&s, &t, &c, &dag, None);
    assert_flags(&findings, Invariant::RouteWellFormed);
}

#[test]
fn planar_dropped_launch_record_flags_demand_consistency() {
    let (c, dag, s, mut t) = planar_fixture();
    assert!(certify_planar_schedule(&s, &t, &c, &dag, None).is_empty());
    t.launches.pop();
    let findings = certify_planar_schedule(&s, &t, &c, &dag, None);
    assert_flags(&findings, Invariant::DemandConsistency);
}

#[test]
fn planar_transient_fault_on_clean_fabric_flags_defect_avoidance() {
    let (c, dag, s, mut t) = planar_fixture();
    assert!(certify_planar_schedule(&s, &t, &c, &dag, None).is_empty());
    t.hops.first_mut().expect("at least one hop").failed = true;
    let findings = certify_planar_schedule(&s, &t, &c, &dag, None);
    assert_flags(&findings, Invariant::DefectAvoidance);
}

#[test]
fn planar_jump_on_a_defect_map_flags_only_route_well_formed() {
    let (c, dag, s, mut t) = planar_fixture();
    let map = DefectMap::empty(t.topology);
    assert!(certify_planar_schedule(&s, &t, &c, &dag, Some(&map)).is_empty());
    // Plan request 0 as one jump between its endpoints, both routers of
    // the map. The jump is no link of the fabric, so the defect check
    // must not ask the map about it.
    let (src, dst) = (t.requests[0].src, t.requests[0].dst);
    assert!(!src.is_adjacent(dst), "request 0 must span several links");
    t.routes[0] = Path::new_unchecked(vec![src, dst]);
    let findings = certify_planar_schedule(&s, &t, &c, &dag, Some(&map));
    assert_flags(&findings, Invariant::RouteWellFormed);
    assert!(
        findings
            .iter()
            .all(|f| f.invariant == Invariant::RouteWellFormed),
        "{findings:?}"
    );
}

// ------------------------------------------------------ reproducibility

/// Certifies twenty times over and requires the same findings in the
/// same order every time: serve's certification error quotes the first.
fn assert_one_order(certify: impl Fn() -> Vec<Finding>) {
    let first = certify();
    assert!(first.len() > 1, "the mutant must draw several findings");
    for run in 1..=20 {
        assert!(certify() == first, "run {run}: the findings changed order");
    }
}

#[test]
fn braid_findings_come_back_in_one_order() {
    let (c, dag, mut trace) = braid_fixture();
    // Every event into [0, 10): exclusivity findings on many resources
    // and dependency findings on many ops, the two checks that collect
    // through hash maps.
    for ev in &mut trace.events {
        ev.open_cycle = 0;
        ev.close_cycle = 10;
    }
    assert_one_order(|| certify_braid_trace(&trace, &c, &dag, None));
}

#[test]
fn planar_findings_come_back_in_one_order() {
    let (c, dag, s, mut t) = planar_fixture();
    // Every hop held once more than its link has lanes: a lane-capacity
    // finding on every link the transcript uses.
    let hops = t.hops.clone();
    for _ in 0..t.link_capacity {
        t.hops.extend_from_slice(&hops);
    }
    assert_one_order(|| certify_planar_schedule(&s, &t, &c, &dag, None));
}
