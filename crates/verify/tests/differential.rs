//! Differential suite for the braid certifier: the dense-index
//! certifier must return exactly the findings, messages included, of
//! the `HashMap` certifier it replaced, which this file keeps verbatim
//! as the oracle.
//!
//! The corpus is engine traces of small random circuits under every
//! policy, clean and on sampled defect maps, plus seeded mutations of
//! those traces. The mutations aim at the dense certifier's fallback
//! map (routers off the mesh, non-adjacent "links"), at its simple-path
//! stamps (revisited routers), at the op-indexed dependency tables
//! (phantom ops, legs 0 and 3) and at its counting sort (overlapping
//! duplicate events). A last test declares a `u32::MAX x u32::MAX` mesh,
//! which no table may be sized by.

use std::collections::HashMap;

use proptest::prelude::*;
use scq_braid::{
    schedule_with, BraidConfig, BraidEvent, BraidMachine, BraidTrace, EventCollector, Policy,
};
use scq_ir::{Circuit, DependencyDag, Gate, InteractionGraph};
use scq_layout::{place, LayoutStrategy};
use scq_mesh::{Coord, DefectMap, Path, Topology};
use scq_verify::{certify_braid_trace, Finding, Invariant};

// ------------------------------------------------------------- oracle
//
// The `HashMap` certifier as it stood before the dense rewrite, with
// the `sort_findings` it called. Only its entry point is renamed.

/// A spatial resource a braid can hold: a router, or the link between
/// two adjacent routers (normalized so either traversal direction maps
/// to the same key).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Resource {
    Node(Coord),
    Link(Coord, Coord),
}

fn link_key(a: Coord, b: Coord) -> Resource {
    if a <= b {
        Resource::Link(a, b)
    } else {
        Resource::Link(b, a)
    }
}

/// Puts a certifier's findings in one reproducible order — by cycle,
/// op, invariant, location, then message — whatever order the
/// `HashMap`s behind them iterated in.
fn sort_findings(findings: &mut [Finding]) {
    fn key(f: &Finding) -> impl Ord + '_ {
        let place = (f.node, f.link, f.message.as_str());
        (f.cycle, f.op, f.invariant.name(), place)
    }
    findings.sort_by(|a, b| key(a).cmp(&key(b)));
}

fn hashmap_certify(
    trace: &BraidTrace,
    circuit: &Circuit,
    dag: &DependencyDag,
    defects: Option<&DefectMap>,
) -> Vec<Finding> {
    let mut out = Vec::new();

    // Per-event structural checks.
    for ev in &trace.events {
        if (ev.op as usize) >= circuit.len() {
            out.push(
                Finding::error(
                    Invariant::DemandConsistency,
                    format!(
                        "event references op {} of a {}-op circuit",
                        ev.op,
                        circuit.len()
                    ),
                )
                .with_op(ev.op),
            );
            continue;
        }
        let gate = circuit.instructions()[ev.op as usize].gate();
        if ev.leg == 0 || ev.leg > 2 {
            out.push(
                Finding::error(
                    Invariant::DemandConsistency,
                    format!("braid leg {} is not 1 or 2", ev.leg),
                )
                .with_op(ev.op),
            );
        } else if ev.leg == 2 && !gate.is_two_qubit() {
            out.push(
                Finding::error(
                    Invariant::DemandConsistency,
                    format!("single-qubit {} traced a second braid leg", gate.mnemonic()),
                )
                .with_op(ev.op),
            );
        }
        if ev.open_cycle >= ev.close_cycle {
            out.push(
                Finding::error(
                    Invariant::TimeMonotonicity,
                    format!(
                        "braid opens at {} but closes at {}",
                        ev.open_cycle, ev.close_cycle
                    ),
                )
                .with_op(ev.op)
                .with_cycle(ev.open_cycle),
            );
        }
        if ev.close_cycle > trace.cycles {
            out.push(
                Finding::error(
                    Invariant::TimeMonotonicity,
                    format!(
                        "braid closes at {} past the schedule's {} cycles",
                        ev.close_cycle, trace.cycles
                    ),
                )
                .with_op(ev.op)
                .with_cycle(ev.close_cycle),
            );
        }
        check_path(trace, ev, &mut out);
        if let Some(map) = defects {
            check_defects(ev, map, &mut out);
        }
    }

    check_exclusivity(trace, &mut out);
    check_dependencies(trace, circuit, dag, &mut out);
    sort_findings(&mut out);
    out
}

fn check_path(trace: &BraidTrace, ev: &scq_braid::BraidEvent, out: &mut Vec<Finding>) {
    let on_mesh = |c: Coord| c.x < trace.mesh_width && c.y < trace.mesh_height;
    let nodes = ev.path.nodes();
    if nodes.is_empty() {
        out.push(
            Finding::error(Invariant::RouteWellFormed, "braid event has an empty path")
                .with_op(ev.op),
        );
        return;
    }
    let mut seen = std::collections::HashSet::with_capacity(nodes.len());
    for &n in nodes {
        if !on_mesh(n) {
            out.push(
                Finding::error(
                    Invariant::RouteWellFormed,
                    format!(
                        "path leaves the {}x{} mesh",
                        trace.mesh_width, trace.mesh_height
                    ),
                )
                .with_op(ev.op)
                .with_node(n),
            );
        }
        if !seen.insert(n) {
            out.push(
                Finding::error(Invariant::RouteWellFormed, "path revisits a router")
                    .with_op(ev.op)
                    .with_node(n),
            );
        }
    }
    for w in nodes.windows(2) {
        if !w[0].is_adjacent(w[1]) {
            out.push(
                Finding::error(
                    Invariant::RouteWellFormed,
                    format!("path jumps from {} to {}", w[0], w[1]),
                )
                .with_op(ev.op)
                .with_node(w[1]),
            );
        }
    }
}

fn check_defects(ev: &scq_braid::BraidEvent, map: &DefectMap, out: &mut Vec<Finding>) {
    for &n in ev.path.nodes() {
        if map.topology().contains(n) && map.node_dead(n) {
            out.push(
                Finding::error(
                    Invariant::DefectAvoidance,
                    "braid routed through a dead router",
                )
                .with_op(ev.op)
                .with_cycle(ev.open_cycle)
                .with_node(n),
            );
        }
    }
    for (a, b) in ev.path.links() {
        if map.topology().contains(a) && map.topology().contains(b) && map.link_dead(a, b) {
            out.push(
                Finding::error(
                    Invariant::DefectAvoidance,
                    "braid routed through a dead link",
                )
                .with_op(ev.op)
                .with_cycle(ev.open_cycle)
                .with_link(a, b),
            );
        }
    }
}

/// The interval race detector: every event holds each router and link
/// of its path for `[open, close)`; for each resource, sort the holds
/// by open cycle and flag any hold that begins before the previous
/// maximum close.
fn check_exclusivity(trace: &BraidTrace, out: &mut Vec<Finding>) {
    // (open, close, op) per resource.
    let mut holds: HashMap<Resource, Vec<(u64, u64, u32)>> = HashMap::new();
    for ev in &trace.events {
        for &n in ev.path.nodes() {
            holds.entry(Resource::Node(n)).or_default().push((
                ev.open_cycle,
                ev.close_cycle,
                ev.op,
            ));
        }
        for (a, b) in ev.path.links() {
            holds
                .entry(link_key(a, b))
                .or_default()
                .push((ev.open_cycle, ev.close_cycle, ev.op));
        }
    }
    for (resource, mut intervals) in holds {
        if intervals.len() < 2 {
            continue;
        }
        intervals.sort_unstable();
        let (mut max_close, mut owner) = (intervals[0].1, intervals[0].2);
        for &(open, close, op) in &intervals[1..] {
            if open < max_close {
                let mut f = Finding::error(
                    Invariant::SpatialExclusivity,
                    format!("ops {owner} and {op} hold the same resource at cycle {open}"),
                )
                .with_op(op)
                .with_cycle(open);
                f = match resource {
                    Resource::Node(n) => f.with_node(n),
                    Resource::Link(a, b) => f.with_link(a, b),
                };
                out.push(f);
            }
            if close > max_close {
                max_close = close;
                owner = op;
            }
        }
    }
}

/// Dependency-order preservation: with braids released before new ones
/// are issued within a cycle, a dependent op may open exactly at its
/// predecessor's close but never before it.
fn check_dependencies(
    trace: &BraidTrace,
    circuit: &Circuit,
    dag: &DependencyDag,
    out: &mut Vec<Finding>,
) {
    if dag.len() != circuit.len() {
        // Reported by the acyclicity pass; nothing sound to check here.
        return;
    }
    let mut first_open: HashMap<u32, u64> = HashMap::new();
    let mut last_close: HashMap<u32, u64> = HashMap::new();
    let mut leg_bounds: HashMap<(u32, u8), (u64, u64)> = HashMap::new();
    for ev in &trace.events {
        // Phantom ops are already a demand-consistency finding; keep
        // them out of the DAG lookups below.
        if (ev.op as usize) >= circuit.len() {
            continue;
        }
        let fo = first_open.entry(ev.op).or_insert(u64::MAX);
        *fo = (*fo).min(ev.open_cycle);
        let lc = last_close.entry(ev.op).or_insert(0);
        *lc = (*lc).max(ev.close_cycle);
        let lb = leg_bounds.entry((ev.op, ev.leg)).or_insert((u64::MAX, 0));
        lb.0 = lb.0.min(ev.open_cycle);
        lb.1 = lb.1.max(ev.close_cycle);
    }
    for (op, &open) in &first_open {
        for &p in dag.preds(*op as usize) {
            if let Some(&close) = last_close.get(&p) {
                if open < close {
                    out.push(
                        Finding::error(
                            Invariant::DependencyOrder,
                            format!(
                                "op {op} opens its braid at {open} before its dependency {p} releases at {close}"
                            ),
                        )
                        .with_op(*op)
                        .with_cycle(open),
                    );
                }
            }
        }
    }
    for (&(op, leg), &(open, _)) in &leg_bounds {
        if leg != 2 {
            continue;
        }
        if let Some(&(_, close1)) = leg_bounds.get(&(op, 1)) {
            if open < close1 {
                out.push(
                    Finding::error(
                        Invariant::DependencyOrder,
                        format!("op {op} opens leg 2 at {open} before leg 1 closes at {close1}"),
                    )
                    .with_op(op)
                    .with_cycle(open),
                );
            }
        }
    }
}

// ------------------------------------------------------------- corpus

/// Arbitrary small circuit: local ops, CNOTs and T gates, the corpus
/// shape of the certifier's completeness proptests.
fn arb_circuit() -> impl Strategy<Value = Circuit> {
    (3u32..9)
        .prop_flat_map(|n| {
            let inst = (0usize..5, 0..n, 0..n.saturating_sub(1).max(1));
            (Just(n), proptest::collection::vec(inst, 1..40))
        })
        .prop_map(|(n, raw)| {
            let mut b = Circuit::builder("differential", n);
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

/// One braid schedule of `c` under `policy` at distance 3, its trace
/// and the map it ran on; `None` when the defects cut the machine
/// apart (a structured error, not a trace).
fn engine_trace(
    c: &Circuit,
    dag: &DependencyDag,
    policy: Policy,
    defect_seed: Option<u64>,
) -> Option<(BraidTrace, Option<DefectMap>)> {
    let graph = InteractionGraph::from_circuit(c);
    let layout = place(&graph, LayoutStrategy::InteractionAware);
    let (mw, mh) = BraidMachine::grid_dims(c.num_qubits());
    let map = defect_seed.map(|seed| DefectMap::sample(Topology::new(mw, mh), 0.03, seed));
    let config = BraidConfig {
        policy,
        code_distance: 3,
        ..Default::default()
    };
    let mut sink = EventCollector::default();
    let schedule = schedule_with(c, dag, &layout, &config, map.as_ref(), &mut sink).ok()?;
    Some((sink.into_trace(&layout, &schedule), map))
}

/// Asserts the certifier and the oracle agree on `trace`, returning
/// the findings.
fn assert_agrees(
    trace: &BraidTrace,
    c: &Circuit,
    dag: &DependencyDag,
    map: Option<&DefectMap>,
    what: &str,
) -> Vec<Finding> {
    let oracle = hashmap_certify(trace, c, dag, map);
    let dense = certify_braid_trace(trace, c, dag, map);
    assert!(
        dense == oracle,
        "{what}: the dense certifier disagrees with the HashMap oracle\n\
         dense:  {dense:?}\noracle: {oracle:?}"
    );
    dense
}

fn pick(rng: &mut TestRng, n: usize) -> usize {
    (rng.next_u64() % n.max(1) as u64) as usize
}

fn coin(rng: &mut TestRng) -> bool {
    rng.next_u64() & 1 == 0
}

/// The mutation classes, each named for the check it aims at.
const MUTATIONS: [&str; 12] = [
    "off-mesh router",
    "off-mesh path far out",
    "non-adjacent jump",
    "revisited router",
    "phantom op",
    "leg 0 or 3",
    "overlapping duplicate",
    "exact duplicate",
    "empty path",
    "reversed interval",
    "issue at cycle 0",
    "one shared window",
];

/// Applies the mutation named `kind` (one of [`MUTATIONS`]) to a
/// random event of `trace`.
fn mutate(trace: &mut BraidTrace, c: &Circuit, kind: &str, rng: &mut TestRng) {
    let (w, h) = (trace.mesh_width, trace.mesh_height);
    let i = pick(rng, trace.events.len());
    let ev = &mut trace.events[i];
    let nodes = ev.path.nodes().to_vec();
    // The route the path mutations extend: an earlier mutation may have
    // emptied it.
    let mut walk = nodes.clone();
    if walk.is_empty() {
        walk.push(Coord::new(0, 0));
    }
    match kind {
        "off-mesh router" => {
            // Walk on past the mesh's east or south edge, one step at a
            // time: every step adjacent, the last routers off the mesh.
            let mut at = walk[walk.len() - 1];
            let east = coin(rng);
            while (if east { at.x } else { at.y }) <= (if east { w } else { h }) {
                at = if east {
                    Coord::new(at.x + 1, at.y)
                } else {
                    Coord::new(at.x, at.y + 1)
                };
                walk.push(at);
            }
            ev.path = Path::new_unchecked(walk);
        }
        "off-mesh path far out" => {
            // Shift the whole route off the mesh, some routes to the
            // far corner of the coordinate space.
            let (dx, dy) = if coin(rng) {
                (w, 0)
            } else {
                (u32::MAX - 2 - w, u32::MAX - 2 - h)
            };
            let moved = nodes
                .iter()
                .map(|n| Coord::new(n.x.saturating_add(dx), n.y.saturating_add(dy)));
            ev.path = Path::new_unchecked(moved.collect());
        }
        "non-adjacent jump" => {
            // Insert a jump of two or more routers, on or off the mesh.
            let at = pick(rng, walk.len());
            let from = walk[at];
            let span = 2 + (rng.next_u64() % 3) as u32;
            let to = if coin(rng) {
                Coord::new(from.x.saturating_add(span), from.y)
            } else {
                Coord::new(from.x.saturating_sub(1), from.y.saturating_add(span))
            };
            walk.insert(at + 1, to);
            ev.path = Path::new_unchecked(walk);
        }
        "revisited router" => {
            // Walk back along the route: adjacency holds, simplicity
            // does not.
            let back: Vec<Coord> = walk.iter().rev().skip(1).copied().collect();
            walk.extend(back);
            if walk.len() == 1 {
                let n = walk[0];
                let next = if n.x.saturating_add(1) < w {
                    Coord::new(n.x + 1, n.y)
                } else {
                    Coord::new(n.x.saturating_sub(1), n.y)
                };
                walk.extend([next, n]);
            }
            ev.path = Path::new_unchecked(walk);
        }
        "phantom op" => ev.op = c.len() as u32 + (rng.next_u64() % 3) as u32,
        "leg 0 or 3" => ev.leg = if coin(rng) { 0 } else { 3 },
        "overlapping duplicate" => {
            let mut dup = ev.clone();
            dup.op = (rng.next_u64() % c.len() as u64) as u32;
            let held = ev.close_cycle.saturating_sub(ev.open_cycle).max(1);
            dup.open_cycle = ev.open_cycle + rng.next_u64() % held;
            dup.close_cycle = ev.close_cycle + rng.next_u64() % 3;
            trace.events.push(dup);
        }
        "exact duplicate" => {
            let dup = ev.clone();
            trace.events.push(dup);
        }
        "empty path" => ev.path = Path::new_unchecked(Vec::new()),
        "reversed interval" => std::mem::swap(&mut ev.open_cycle, &mut ev.close_cycle),
        "issue at cycle 0" => ev.open_cycle = 0,
        "one shared window" => {
            for ev in &mut trace.events {
                ev.open_cycle = 0;
                ev.close_cycle = 10;
            }
        }
        other => unreachable!("no mutation named {other}"),
    }
}

// -------------------------------------------------------------- tests

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn engine_traces_agree_under_every_policy(c in arb_circuit(), seed in 0u64..500) {
        let dag = DependencyDag::from_circuit(&c);
        for &policy in &Policy::ALL {
            for defect_seed in [None, Some(seed)] {
                let Some((trace, map)) = engine_trace(&c, &dag, policy, defect_seed) else {
                    continue;
                };
                let what = format!("{policy} defects {defect_seed:?}");
                let findings = assert_agrees(&trace, &c, &dag, map.as_ref(), &what);
                prop_assert!(findings.is_empty(), "{what}: {findings:?}");
            }
        }
    }

    #[test]
    fn mutated_traces_agree(c in arb_circuit(), seed in 0u64..u64::MAX) {
        let dag = DependencyDag::from_circuit(&c);
        let mut rng = TestRng::seed_from_u64(seed);
        let policy = Policy::ALL[pick(&mut rng, Policy::ALL.len())];
        let defect_seed = coin(&mut rng).then_some(seed % 500);
        let Some((clean, map)) = engine_trace(&c, &dag, policy, defect_seed) else {
            return;
        };
        if clean.events.is_empty() {
            return;
        }
        // The oracle panics when asked whether a jump between two
        // routers of the map is a dead link (see
        // `a_jump_on_a_defect_map_is_only_a_route_finding`), so traces
        // with a jump certify without the map.
        let map_unless_jump = |applied: &[&str]| {
            map.as_ref().filter(|_| !applied.contains(&"non-adjacent jump"))
        };
        // Each class alone, then a few stacked on one trace.
        for kind in MUTATIONS {
            let mut trace = clean.clone();
            mutate(&mut trace, &c, kind, &mut rng);
            let findings = assert_agrees(&trace, &c, &dag, map_unless_jump(&[kind]), kind);
            // Two classes can leave a trace clean: an op with no
            // dependency may open at 0, and a lone event shares no
            // window.
            prop_assert!(
                !findings.is_empty() || ["issue at cycle 0", "one shared window"].contains(&kind),
                "{kind}: no finding"
            );
        }
        let mut trace = clean.clone();
        let mut applied = Vec::new();
        for _ in 0..4 {
            let kind = MUTATIONS[pick(&mut rng, MUTATIONS.len())];
            mutate(&mut trace, &c, kind, &mut rng);
            applied.push(kind);
        }
        let map = map_unless_jump(&applied);
        assert_agrees(&trace, &c, &dag, map, &format!("{applied:?}"));
    }
}

/// A jump between two live routers of a defect map is no link of the
/// map. The oracle asked the map whether it was dead, which panics in a
/// debug build (and reads an unrelated link in a release build); the
/// certifier leaves the jump to the route check, so on a map with
/// nothing dead it finds what the oracle finds without the map.
#[test]
fn a_jump_on_a_defect_map_is_only_a_route_finding() {
    let mut b = Circuit::builder("jump", 2);
    b.cnot(0, 1);
    let c = b.finish();
    let dag = DependencyDag::from_circuit(&c);
    let trace = BraidTrace {
        mesh_width: 5,
        mesh_height: 5,
        cycles: 10,
        events: vec![BraidEvent {
            op: 0,
            leg: 1,
            open_cycle: 0,
            close_cycle: 5,
            path: Path::new_unchecked(vec![Coord::new(0, 0), Coord::new(3, 0), Coord::new(3, 2)]),
        }],
    };
    let live = DefectMap::from_text("dims 5 5\n").expect("well-formed defect map");
    let findings = certify_braid_trace(&trace, &c, &dag, Some(&live));
    assert_eq!(findings, hashmap_certify(&trace, &c, &dag, None));
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings
        .iter()
        .all(|f| f.invariant == Invariant::RouteWellFormed));
}

/// The malformed routes the fallback map holds draw the findings their
/// class names, as both certifiers report them.
#[test]
fn fallback_resources_draw_their_findings() {
    let mut b = Circuit::builder("fallback", 4);
    b.t(0);
    b.cnot(1, 2);
    b.t(3);
    let c = b.finish();
    let dag = DependencyDag::from_circuit(&c);
    let event = |op, open, close, nodes: &[(u32, u32)]| BraidEvent {
        op,
        leg: 1,
        open_cycle: open,
        close_cycle: close,
        path: Path::new_unchecked(nodes.iter().map(|&(x, y)| Coord::new(x, y)).collect()),
    };
    let trace = BraidTrace {
        mesh_width: 4,
        mesh_height: 3,
        cycles: 20,
        events: vec![
            // Off the east edge, twice over one window: the off-mesh
            // router and link collide in the fallback map.
            event(0, 0, 5, &[(3, 0), (4, 0), (5, 0)]),
            event(1, 2, 6, &[(2, 1), (3, 1), (4, 1), (4, 0), (5, 0)]),
            // The same non-adjacent "link", held by two ops at once.
            event(2, 3, 8, &[(0, 2), (2, 2)]),
            event(1, 4, 9, &[(2, 2), (0, 2)]),
        ],
    };
    let findings = assert_agrees(&trace, &c, &dag, None, "fallback");
    let text: Vec<String> = findings.iter().map(ToString::to_string).collect();
    for expected in [
        "[route-well-formed] path leaves the 4x3 mesh (op 0, node (4, 0))",
        "[route-well-formed] path jumps from (0, 2) to (2, 2) (op 2, node (2, 2))",
        "[spatial-exclusivity] ops 0 and 1 hold the same resource at cycle 2 (op 1, cycle 2, \
         link (4, 0)-(5, 0))",
        "[spatial-exclusivity] ops 2 and 1 hold the same resource at cycle 4 (op 1, cycle 4, \
         link (0, 2)-(2, 2))",
    ] {
        assert!(
            text.iter().any(|t| t == expected),
            "{expected} not in {text:#?}"
        );
    }
}

/// A trace may declare any mesh. One declaring `u32::MAX x u32::MAX`
/// routers, with its events in the far corner, certifies to the
/// oracle's findings: no panic, no overflow, and no table sized by the
/// declared dimensions (such a table could not be allocated).
#[test]
fn a_mesh_of_u32_max_sides_certifies_like_the_oracle() {
    let mut b = Circuit::builder("huge", 2);
    b.cnot(0, 1);
    b.t(1);
    let c = b.finish();
    let dag = DependencyDag::from_circuit(&c);
    let m = u32::MAX;
    let corner = |dx: u32, dy: u32| Coord::new(m - 2 + dx, m - 2 + dy);
    let route = Path::new(vec![corner(0, 0), corner(1, 0), corner(1, 1)]);
    let trace = BraidTrace {
        mesh_width: m,
        mesh_height: m,
        cycles: 30,
        events: vec![
            BraidEvent {
                op: 0,
                leg: 1,
                open_cycle: 0,
                close_cycle: 10,
                path: route.clone(),
            },
            // Leg 2 over the same route while leg 1 still holds it, and
            // op 1 before its dependency releases: exclusivity and
            // dependency findings on the far corner.
            BraidEvent {
                op: 0,
                leg: 2,
                open_cycle: 5,
                close_cycle: 12,
                path: Path::new(vec![corner(1, 1), corner(2, 1), corner(2, 2)]),
            },
            BraidEvent {
                op: 1,
                leg: 1,
                open_cycle: 8,
                close_cycle: 14,
                path: route,
            },
        ],
    };
    let findings = assert_agrees(&trace, &c, &dag, None, "u32::MAX mesh");
    for invariant in [Invariant::SpatialExclusivity, Invariant::DependencyOrder] {
        assert!(
            findings.iter().any(|f| f.invariant == invariant),
            "{}: {findings:?}",
            invariant.name()
        );
    }
}
