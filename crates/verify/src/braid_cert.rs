//! Independent replay certification of braid schedules.
//!
//! [`certify_braid_trace`] takes the static schedule artifact a braid
//! run emits (a [`BraidTrace`]) and verifies, from the trace alone,
//! every invariant the machine's replay depends on. It shares *no* code
//! with the engine that produced the trace: rather than replaying claims
//! through [`scq_mesh::Mesh`] (the same claiming code the scheduler
//! used), it numbers routers and links itself from raw coordinates and
//! runs an interval race detector over them, so a scheduler bug that
//! corrupted the mesh's occupancy bookkeeping cannot fool it. It is the
//! one conflict checker of a braid schedule: `scq schedule` runs it on
//! every schedule it emits.
//!
//! Every table is dense: resources are indexed by [`Numbering`], holds
//! are bucketed by a counting sort, revisits are caught by generation
//! stamps and the dependency check indexes by op. Only what has no
//! dense index — a router off the declared mesh, a "link" between
//! routers that are not adjacent, or any resource of a mesh too large
//! for the table budget — goes through a small fallback map.

use std::collections::{HashMap, HashSet};

use scq_braid::{BraidEvent, BraidTrace};
use scq_ir::{Circuit, DependencyDag};
use scq_mesh::{Coord, DefectMap};

use crate::finding::{sort_findings, Finding, Invariant};

/// Table slots a trace may spend per hold, past [`SLOT_ALLOWANCE`]: the
/// dense tables stay within a few words per hold whatever mesh the
/// trace declares.
const SLOTS_PER_HOLD: u128 = 4;
/// Table slots every trace may spend, so small traces on small meshes
/// stay dense.
const SLOT_ALLOWANCE: u128 = 4096;

/// A spatial resource a braid can hold: a router, or the link between
/// two routers (normalized so either traversal direction maps to the
/// same key).
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

/// Dense indices of a `w x h` mesh's resources, from the declared
/// dimensions alone: router `(x, y)` is `y·w + x`; the horizontal link
/// from `(x, y)` to `(x + 1, y)` follows at `w·h + y·(w − 1) + x`; the
/// vertical link from `(x, y)` to `(x, y + 1)` at
/// `w·h + (w − 1)·h + y·w + x`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Numbering {
    w: u32,
    h: u32,
    /// Index of the first horizontal link (the router count).
    h_base: usize,
    /// Index of the first vertical link.
    v_base: usize,
    /// Routers plus links: the size of every table indexed by resource.
    len: usize,
}

impl Numbering {
    /// The numbering of a `w x h` mesh whose trace holds `holds`
    /// resources. A mesh with more resources than
    /// `SLOTS_PER_HOLD · holds + SLOT_ALLOWANCE` gets the empty
    /// numbering, which indexes nothing: all its holds go to the
    /// fallback map, and no table is sized by its dimensions.
    fn new(w: u32, h: u32, holds: usize) -> Self {
        let (wide, high) = (u128::from(w), u128::from(h));
        let routers = wide * high;
        let v_base = routers + wide.saturating_sub(1) * high;
        let len = v_base + wide * high.saturating_sub(1);
        if len > SLOTS_PER_HOLD * holds as u128 + SLOT_ALLOWANCE {
            return Numbering::default();
        }
        // Within the budget every count fits a `usize`: the holds are
        // in memory, at least 4 bytes each.
        Numbering {
            w,
            h,
            h_base: routers as usize,
            v_base: v_base as usize,
            len: len as usize,
        }
    }

    fn node(&self, c: Coord) -> Option<usize> {
        (c.x < self.w && c.y < self.h).then(|| c.y as usize * self.w as usize + c.x as usize)
    }

    /// The index of the link between `a` and `b`: `None` unless both
    /// are indexed routers one step apart.
    fn link(&self, a: Coord, b: Coord) -> Option<usize> {
        self.node(a)?;
        self.node(b)?;
        let w = self.w as usize;
        if a.y == b.y && a.x.abs_diff(b.x) == 1 {
            Some(self.h_base + a.y as usize * (w - 1) + a.x.min(b.x) as usize)
        } else if a.x == b.x && a.y.abs_diff(b.y) == 1 {
            Some(self.v_base + a.y.min(b.y) as usize * w + a.x as usize)
        } else {
            None
        }
    }

    /// The resource behind index `i`, keyed as the fallback map keys it.
    fn resource(&self, i: usize) -> Resource {
        let w = self.w as usize;
        let at = |x: usize, y: usize| Coord::new(x as u32, y as u32);
        if i < self.h_base {
            Resource::Node(at(i % w, i / w))
        } else if i < self.v_base {
            let (x, y) = ((i - self.h_base) % (w - 1), (i - self.h_base) / (w - 1));
            Resource::Link(at(x, y), at(x + 1, y))
        } else {
            let (x, y) = ((i - self.v_base) % w, (i - self.v_base) / w);
            Resource::Link(at(x, y), at(x, y + 1))
        }
    }

    /// Calls `f` on every router and link `nodes` holds: the dense index
    /// when there is one, else the fallback key.
    fn for_each_hold(&self, nodes: &[Coord], mut f: impl FnMut(Result<usize, Resource>)) {
        for &n in nodes {
            f(self.node(n).ok_or(Resource::Node(n)));
        }
        for w in nodes.windows(2) {
            f(self.link(w[0], w[1]).ok_or_else(|| link_key(w[0], w[1])));
        }
    }
}

/// Certifies a braid schedule trace against the circuit and DAG it was
/// scheduled from, reporting every invariant violation as a located
/// [`Finding`] (empty = certified clean), in one reproducible order.
///
/// Checks, per the invariants in [`Invariant`]:
///
/// - **route-well-formed**: every event's path is non-empty, on the
///   trace's mesh, stepwise-adjacent, and simple (no repeated router);
/// - **time-monotonicity**: opens strictly precede closes and nothing
///   closes after the schedule's total cycle count;
/// - **demand-consistency**: event op indices address the circuit, leg
///   numbers are 1 or 2, and leg 2 appears only on two-qubit gates;
/// - **spatial-exclusivity**: no two events hold the same router or
///   link at the same cycle (holds are half-open `[open, close)`
///   intervals — a release and a claim may share a cycle);
/// - **dependency-order**: for every DAG edge `a -> b` with both ops
///   traced, `b`'s first claim opens no earlier than `a`'s last
///   release, and within an op leg 2 opens no earlier than leg 1
///   closes;
/// - **defect-avoidance** (when `defects` is given): no path touches a
///   dead router or dead link.
pub fn certify_braid_trace(
    trace: &BraidTrace,
    circuit: &Circuit,
    dag: &DependencyDag,
    defects: Option<&DefectMap>,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let holds = trace
        .events
        .iter()
        .map(|ev| (2 * ev.path.nodes().len()).saturating_sub(1))
        .sum();
    let numbering = Numbering::new(trace.mesh_width, trace.mesh_height, holds);
    let mut visits = Visits::new(&numbering);

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
        check_path(trace, ev, &numbering, &mut visits, &mut out);
        if let Some(map) = defects {
            check_defects(ev, map, &mut out);
        }
    }

    check_exclusivity(trace, &numbering, &mut out);
    check_dependencies(trace, circuit, dag, &mut out);
    sort_findings(&mut out);
    out
}

/// The routers the current event has visited: a generation stamp per
/// indexed router, and a set, emptied per event, for the rest.
struct Visits {
    stamp: Vec<u32>,
    /// The current event's generation; stamps start at 0, before it.
    event: u32,
    unindexed: HashSet<Coord>,
}

impl Visits {
    fn new(numbering: &Numbering) -> Self {
        Visits {
            stamp: vec![0; numbering.h_base],
            event: 0,
            unindexed: HashSet::new(),
        }
    }

    fn next_event(&mut self) {
        self.event += 1;
        if !self.unindexed.is_empty() {
            self.unindexed.clear();
        }
    }

    /// Marks router `n` (dense index `index`) visited; `false` if the
    /// current event already visited it.
    fn insert(&mut self, index: Option<usize>, n: Coord) -> bool {
        match index {
            Some(i) => std::mem::replace(&mut self.stamp[i], self.event) != self.event,
            None => self.unindexed.insert(n),
        }
    }
}

fn check_path(
    trace: &BraidTrace,
    ev: &BraidEvent,
    numbering: &Numbering,
    visits: &mut Visits,
    out: &mut Vec<Finding>,
) {
    let on_mesh = |c: Coord| c.x < trace.mesh_width && c.y < trace.mesh_height;
    let nodes = ev.path.nodes();
    if nodes.is_empty() {
        out.push(
            Finding::error(Invariant::RouteWellFormed, "braid event has an empty path")
                .with_op(ev.op),
        );
        return;
    }
    visits.next_event();
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
        if !visits.insert(numbering.node(n), n) {
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

/// Dead routers and links on the event's path. A jump between routers
/// that are not adjacent is no link of the map, and is left to the
/// route check.
fn check_defects(ev: &BraidEvent, map: &DefectMap, out: &mut Vec<Finding>) {
    let on_map = |c: Coord| map.topology().contains(c);
    for &n in ev.path.nodes() {
        if on_map(n) && map.node_dead(n) {
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
        if a.is_adjacent(b) && on_map(a) && on_map(b) && map.link_dead(a, b) {
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
/// of its path for `[open, close)`; for each resource, sweep its holds
/// in (open, close, op) order and flag any hold that begins before the
/// previous maximum close.
///
/// Holds are bucketed by resource with a two-pass counting sort: count
/// the holds per index, then place each event's rank in the order above
/// at its index's next slot. Events are placed in that order, so every
/// bucket comes out sorted. A slot is a `u32` rank; the fallback map
/// holds the same ranks for the resources [`Numbering`] cannot index.
fn check_exclusivity(trace: &BraidTrace, numbering: &Numbering, out: &mut Vec<Finding>) {
    let mut order: Vec<(u64, u64, u32, u32)> = (0u32..)
        .zip(&trace.events)
        .map(|(i, ev)| (ev.open_cycle, ev.close_cycle, ev.op, i))
        .collect();
    order.sort_unstable();

    // Pass 1: `next[i + 1]` counts index i's holds; the prefix sum then
    // makes `next[i]` the first slot of index i's bucket.
    let mut next = vec![0usize; numbering.len + 1];
    for ev in &trace.events {
        numbering.for_each_hold(ev.path.nodes(), |r| {
            if let Ok(i) = r {
                next[i + 1] += 1;
            }
        });
    }
    for i in 1..next.len() {
        next[i] += next[i - 1];
    }

    // Pass 2: place the ranks. Afterwards `next[i]` is the end of index
    // i's bucket, which is where bucket i + 1 starts.
    let mut slots = vec![0u32; next[numbering.len]];
    let mut fallback: HashMap<Resource, Vec<u32>> = HashMap::new();
    for (rank, &(.., event)) in (0u32..).zip(&order) {
        let nodes = trace.events[event as usize].path.nodes();
        numbering.for_each_hold(nodes, |r| match r {
            Ok(i) => {
                slots[next[i]] = rank;
                next[i] += 1;
            }
            Err(resource) => fallback.entry(resource).or_default().push(rank),
        });
    }

    let mut start = 0;
    for (i, &end) in next[..numbering.len].iter().enumerate() {
        let bucket = &slots[start..end];
        start = end;
        if bucket.len() >= 2 {
            sweep(bucket, &order, numbering.resource(i), out);
        }
    }
    for (resource, bucket) in &fallback {
        sweep(bucket, &order, *resource, out);
    }
}

/// The max-close sweep over one resource's holds, given as ranks into
/// `order` in ascending order.
fn sweep(
    bucket: &[u32],
    order: &[(u64, u64, u32, u32)],
    resource: Resource,
    out: &mut Vec<Finding>,
) {
    let Some((&first, rest)) = bucket.split_first() else {
        return;
    };
    let (_, mut max_close, mut owner, _) = order[first as usize];
    for &rank in rest {
        let (open, close, op, _) = order[rank as usize];
        if open < max_close {
            let f = Finding::error(
                Invariant::SpatialExclusivity,
                format!("ops {owner} and {op} hold the same resource at cycle {open}"),
            )
            .with_op(op)
            .with_cycle(open);
            out.push(match resource {
                Resource::Node(n) => f.with_node(n),
                Resource::Link(a, b) => f.with_link(a, b),
            });
        }
        if close > max_close {
            max_close = close;
            owner = op;
        }
    }
}

/// Dependency-order preservation: with braids released before new ones
/// are issued within a cycle, a dependent op may open exactly at its
/// predecessor's close but never before it.
///
/// Four tables indexed by op: its first open and last close, leg 2's
/// first open and leg 1's last close. An op with no braid (or no braid
/// of that leg) keeps `u64::MAX` as its opens and 0 as its closes, so
/// no comparison below can flag it.
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
    let n = circuit.len();
    let (mut first_open, mut last_close) = (vec![u64::MAX; n], vec![0u64; n]);
    let (mut leg2_open, mut leg1_close) = (vec![u64::MAX; n], vec![0u64; n]);
    for ev in &trace.events {
        // Phantom ops are already a demand-consistency finding; keep
        // them out of the DAG lookups below.
        let op = ev.op as usize;
        if op >= n {
            continue;
        }
        first_open[op] = first_open[op].min(ev.open_cycle);
        last_close[op] = last_close[op].max(ev.close_cycle);
        match ev.leg {
            1 => leg1_close[op] = leg1_close[op].max(ev.close_cycle),
            2 => leg2_open[op] = leg2_open[op].min(ev.open_cycle),
            _ => {}
        }
    }
    for (op, &open) in first_open.iter().enumerate() {
        for &p in dag.preds(op) {
            let close = last_close.get(p as usize).copied().unwrap_or(0);
            if open < close {
                out.push(
                    Finding::error(
                        Invariant::DependencyOrder,
                        format!(
                            "op {op} opens its braid at {open} before its dependency {p} releases at {close}"
                        ),
                    )
                    .with_op(op as u32)
                    .with_cycle(open),
                );
            }
        }
    }
    for (op, (&open, &close1)) in leg2_open.iter().zip(&leg1_close).enumerate() {
        if open < close1 {
            out.push(
                Finding::error(
                    Invariant::DependencyOrder,
                    format!("op {op} opens leg 2 at {open} before leg 1 closes at {close1}"),
                )
                .with_op(op as u32)
                .with_cycle(open),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scq_braid::{schedule_with, BraidConfig, EventCollector};
    use scq_mesh::Path;

    fn traced(n: u32) -> (Circuit, DependencyDag, BraidTrace) {
        let mut b = Circuit::builder("cert", n);
        for q in 0..n {
            b.t(q);
        }
        for q in 0..n - 1 {
            b.cnot(q, q + 1);
        }
        let c = b.finish();
        let dag = DependencyDag::from_circuit(&c);
        let graph = scq_ir::InteractionGraph::from_circuit(&c);
        let layout = scq_layout::place(&graph, scq_layout::LayoutStrategy::InteractionAware);
        let mut sink = EventCollector::default();
        let schedule = schedule_with(&c, &dag, &layout, &BraidConfig::default(), None, &mut sink)
            .expect("schedules");
        let trace = sink.into_trace(&layout, &schedule);
        (c, dag, trace)
    }

    #[test]
    fn engine_trace_certifies_clean() {
        let (c, dag, trace) = traced(8);
        assert!(!trace.events.is_empty());
        let findings = certify_braid_trace(&trace, &c, &dag, None);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn overlap_mutation_is_caught_as_exclusivity() {
        let (c, dag, mut trace) = traced(8);
        // Clone an event onto a different op so the same route is held
        // twice over an overlapping window.
        let mut dup = trace.events[0].clone();
        dup.op = trace.events[1].op;
        dup.open_cycle = trace.events[0].open_cycle;
        dup.close_cycle = trace.events[0].close_cycle + 1;
        trace.events.push(dup);
        let findings = certify_braid_trace(&trace, &c, &dag, None);
        assert!(findings
            .iter()
            .any(|f| f.invariant == Invariant::SpatialExclusivity));
    }

    #[test]
    fn reversed_interval_is_caught_as_monotonicity() {
        let (c, dag, mut trace) = traced(6);
        let ev = &mut trace.events[0];
        std::mem::swap(&mut ev.open_cycle, &mut ev.close_cycle);
        let findings = certify_braid_trace(&trace, &c, &dag, None);
        assert!(findings
            .iter()
            .any(|f| f.invariant == Invariant::TimeMonotonicity));
    }

    #[test]
    fn holds_are_half_open() {
        let mut b = Circuit::builder("two-cnots", 4);
        b.cnot(0, 1);
        b.cnot(2, 3);
        let c = b.finish();
        let dag = DependencyDag::from_circuit(&c);
        // A hold `(op, open, close, y, x0, x1)`: op's leg 1 holds row y
        // from x0 to x1 over `[open, close)`.
        let certify = |holds: [(u32, u64, u64, u32, u32, u32); 2]| {
            let events = holds.map(|(op, open_cycle, close_cycle, y, x0, x1)| BraidEvent {
                op,
                leg: 1,
                open_cycle,
                close_cycle,
                path: Path::new((x0..=x1).map(|x| Coord::new(x, y)).collect()),
            });
            let trace = BraidTrace {
                mesh_width: 5,
                mesh_height: 5,
                cycles: 12,
                events: events.into(),
            };
            certify_braid_trace(&trace, &c, &dag, None)
        };
        // Two disjoint rows held over the same window.
        assert_eq!(certify([(0, 0, 5, 0, 0, 4), (1, 0, 5, 2, 0, 4)]), vec![]);
        // One route reopened at the cycle it closed: `[0, 5)`, `[5, 10)`.
        assert_eq!(certify([(0, 0, 5, 1, 0, 3), (1, 5, 10, 1, 0, 3)]), vec![]);
        // Overlap in space and in time, `[3, 6)`: routers (2, 1) and
        // (3, 1), and the link between them.
        let findings = certify([(0, 0, 6, 1, 0, 3), (1, 3, 8, 1, 2, 4)]);
        assert_eq!(findings.len(), 3, "{findings:?}");
        for f in &findings {
            assert_eq!(f.invariant, Invariant::SpatialExclusivity, "{f:?}");
            assert_eq!((f.op, f.cycle), (Some(1), Some(3)), "{f:?}");
        }
    }

    #[test]
    fn numbering_indexes_every_resource_once_and_decodes_it() {
        let (w, h) = (5, 3);
        let numbering = Numbering::new(w, h, 0);
        assert_eq!(numbering.len, 15 + 4 * 3 + 5 * 2);
        let mut seen = vec![false; numbering.len];
        for y in 0..h {
            for x in 0..w {
                let c = Coord::new(x, y);
                let i = numbering.node(c).expect("on the mesh");
                assert!(!std::mem::replace(&mut seen[i], true));
                assert!(numbering.resource(i) == Resource::Node(c));
                for n in [Coord::new(x + 1, y), Coord::new(x, y + 1)] {
                    let Some(i) = numbering.link(c, n) else {
                        assert!(n.x == w || n.y == h, "{c}-{n} has no index");
                        continue;
                    };
                    assert_eq!(numbering.link(n, c), Some(i));
                    assert!(!std::mem::replace(&mut seen[i], true));
                    assert!(numbering.resource(i) == Resource::Link(c, n));
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "every index names a resource");
        assert_eq!(numbering.node(Coord::new(w, 0)), None);
        assert_eq!(numbering.link(Coord::new(0, 0), Coord::new(2, 0)), None);
        assert_eq!(numbering.link(Coord::new(0, 0), Coord::new(1, 1)), None);
    }

    #[test]
    fn numbering_tables_are_bounded_by_the_holds_not_the_mesh() {
        let empty = Numbering::new(0, 0, 0);
        for (w, h, holds) in [
            (u32::MAX, u32::MAX, 5),
            (100_000, 100_000, 1_000_000),
            (1, u32::MAX, 0),
        ] {
            assert_eq!(Numbering::new(w, h, holds), empty, "{w}x{h}");
            assert!(Numbering::new(w, h, holds).node(Coord::new(0, 0)).is_none());
        }
        // A real trace's mesh is far smaller than its holds.
        let dense = Numbering::new(200, 100, 100_000);
        assert_eq!(dense.len, 200 * 100 + 199 * 100 + 200 * 99);
        assert!(dense.len as u128 <= SLOTS_PER_HOLD * 100_000 + SLOT_ALLOWANCE);
    }
}
