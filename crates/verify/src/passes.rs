//! Static checks: analyses over the circuit, its dependency DAG, and
//! the target fabric(s), run as passes of `scq-core`'s pipeline.
//!
//! These are *pre-schedule* checks — everything here is decidable from
//! the circuit, the [`DependencyDag`], a [`Topology`] and a
//! [`DefectMap`] alone, with no simulation. The checks deliberately
//! re-derive what they check (def-use chains, ASAP levels, connected
//! components) instead of calling the engines' own routines, so a bug
//! in an engine cannot hide behind the same bug in its checker: the
//! connectivity analysis below does its own flood fill over live
//! resources rather than reusing [`DefectMap::route_avoiding`].

use std::collections::HashSet;

use scq_braid::BraidMachine;
use scq_ir::{Circuit, DependencyDag};
use scq_mesh::{Coord, DefectMap, Topology};
use scq_teleport::PlanarMachine;

use crate::finding::{Finding, Invariant};

/// One communication fabric a circuit is headed for, reduced to what
/// static admission checking needs: where each qubit anchors, where the
/// factories sit, who consumes factory output, and which resources are
/// dead.
#[derive(Clone, Debug)]
pub struct FabricView<'a> {
    /// Display name of the backend ("braid" / "planar").
    pub name: &'static str,
    /// The router/tile mesh the fabric runs on.
    pub topology: Topology,
    /// Fabrication defects, if the machine has any.
    pub defects: Option<&'a DefectMap>,
    /// Anchor of qubit `q` on the fabric, indexed by qubit id.
    pub anchors: Vec<Coord>,
    /// Factory sites.
    pub factories: Vec<Coord>,
    /// Qubits that consume factory output (need a live route from some
    /// factory to their anchor).
    pub factory_users: Vec<u32>,
    /// Whether two-qubit gates communicate anchor-to-anchor on this
    /// fabric (braiding does; planar teleportation only routes
    /// factory-to-tile).
    pub pair_connectivity: bool,
}

impl<'a> FabricView<'a> {
    /// The braid backend's view of the machine the engines schedule on:
    /// qubits anchor at their tiles' routers, T-state factories at the
    /// machine's sites, and two-qubit gates braid anchor-to-anchor.
    pub fn braid(
        machine: &BraidMachine,
        circuit: &Circuit,
        defects: Option<&'a DefectMap>,
    ) -> Self {
        let mut seen = HashSet::new();
        let factory_users = circuit
            .iter()
            .filter(|inst| inst.gate().needs_magic_state())
            .map(|inst| inst.qubits()[0].raw())
            .filter(|&q| seen.insert(q))
            .collect();
        FabricView {
            name: "braid",
            topology: machine.topology,
            defects,
            anchors: machine.anchors.clone(),
            factories: machine.factories.clone(),
            factory_users,
            pair_connectivity: true,
        }
    }

    /// The planar backend's view: qubits anchor at their data tiles,
    /// EPR factories on the machine's edge rows, and *every* used qubit
    /// is a factory consumer (each teleport flies an EPR half from a
    /// factory to the consuming tile; tiles never route to each other).
    pub fn planar(
        machine: &'a PlanarMachine,
        circuit: &Circuit,
        defects: Option<&'a DefectMap>,
    ) -> Self {
        let mut seen = HashSet::new();
        let factory_users = circuit
            .iter()
            .flat_map(|inst| inst.qubits())
            .map(|q| q.raw())
            .filter(|&q| seen.insert(q))
            .collect();
        FabricView {
            name: "planar",
            topology: machine.topology,
            defects,
            anchors: machine.tiles.clone(),
            factories: machine.factories.clone(),
            factory_users,
            pair_connectivity: false,
        }
    }
}

/// The four static checks, in the order `scq check` runs them. Each
/// reports violations of the [`Invariant`] it is named after.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StaticCheck {
    /// The dependency DAG is a well-formed acyclic graph: it has one
    /// node per instruction, every edge points backwards in program
    /// order (program order being a topological order makes any forward
    /// or self edge a cycle), preds/succs mirror each other, and the
    /// precomputed ASAP levels match a fresh recomputation.
    Acyclicity,
    /// Operands and def-use chains: every operand is in range,
    /// two-qubit gates touch two distinct qubits, and the DAG's edges
    /// are exactly the circuit's last-touch chains (recomputed here
    /// from scratch). Unused qubits are reported as warnings.
    DefUse,
    /// Each fabric's anchor map: anchors and factory sites lie on the
    /// topology and are pairwise distinct (two qubits sharing one
    /// anchor would silently braid against themselves). An anchor
    /// coinciding with a factory site is reported as a warning.
    DuplicateAnchor,
    /// Static admission: decides from the topology and defect map alone
    /// — no routing, no simulation — whether the circuit's
    /// communication demand is satisfiable. Runs its own flood fill
    /// over live nodes and links ([`live_components`], never
    /// [`DefectMap::route_avoiding`]), then checks that every used
    /// anchor is alive, that two-qubit partners share a component
    /// (braid fabrics), and that every factory consumer's component
    /// contains a live factory.
    Admission,
}

impl StaticCheck {
    /// Every check, in run order.
    pub const ALL: [StaticCheck; 4] = [
        StaticCheck::Acyclicity,
        StaticCheck::DefUse,
        StaticCheck::DuplicateAnchor,
        StaticCheck::Admission,
    ];

    /// Stable display name: the name of its [`Invariant`].
    pub fn name(self) -> &'static str {
        let invariant = match self {
            StaticCheck::Acyclicity => Invariant::Acyclicity,
            StaticCheck::DefUse => Invariant::DefUse,
            StaticCheck::DuplicateAnchor => Invariant::DuplicateAnchor,
            StaticCheck::Admission => Invariant::Admission,
        };
        invariant.name()
    }

    /// Runs the check over `circuit`, its `dag` and the `fabrics` it
    /// targets (which may be empty for the IR checks), appending
    /// findings to `out`.
    pub fn run(
        self,
        circuit: &Circuit,
        dag: &DependencyDag,
        fabrics: &[FabricView<'_>],
        out: &mut Vec<Finding>,
    ) {
        match self {
            StaticCheck::Acyclicity => check_acyclicity(circuit, dag, out),
            StaticCheck::DefUse => check_def_use(circuit, dag, out),
            StaticCheck::DuplicateAnchor => check_anchors(fabrics, out),
            StaticCheck::Admission => check_admission(circuit, fabrics, out),
        }
    }
}

fn check_acyclicity(circuit: &Circuit, dag: &DependencyDag, out: &mut Vec<Finding>) {
    if dag.len() != circuit.len() {
        out.push(Finding::error(
            Invariant::Acyclicity,
            format!(
                "dag has {} nodes but the circuit has {} instructions",
                dag.len(),
                circuit.len()
            ),
        ));
        return;
    }
    for i in 0..dag.len() {
        let mut level = 0u32;
        for &p in dag.preds(i) {
            if p as usize >= i {
                out.push(
                    Finding::error(
                        Invariant::Acyclicity,
                        format!("edge {p} -> {i} does not point backwards in program order"),
                    )
                    .with_op(i as u32),
                );
                continue;
            }
            if !dag.succs(p as usize).contains(&(i as u32)) {
                out.push(
                    Finding::error(
                        Invariant::Acyclicity,
                        format!("pred edge {p} -> {i} has no mirroring succ edge"),
                    )
                    .with_op(i as u32),
                );
            }
            level = level.max(dag.asap_level(p as usize) + 1);
        }
        if dag.asap_level(i) != level {
            out.push(
                Finding::error(
                    Invariant::Acyclicity,
                    format!(
                        "asap level of op {i} is {} but its preds imply {level}",
                        dag.asap_level(i)
                    ),
                )
                .with_op(i as u32),
            );
        }
    }
}

fn check_def_use(circuit: &Circuit, dag: &DependencyDag, out: &mut Vec<Finding>) {
    let n_qubits = circuit.num_qubits() as usize;
    let mut touched = vec![false; n_qubits];
    let mut last_touch: Vec<Option<u32>> = vec![None; n_qubits];
    for (i, inst) in circuit.iter().enumerate() {
        let qs = inst.qubits();
        if qs.len() == 2 && qs[0] == qs[1] {
            out.push(
                Finding::error(
                    Invariant::DefUse,
                    format!(
                        "two-qubit {} has identical operands {}",
                        inst.gate().mnemonic(),
                        qs[0]
                    ),
                )
                .with_op(i as u32),
            );
        }
        let mut expected: Vec<u32> = Vec::with_capacity(2);
        for &q in qs {
            if q.index() >= n_qubits {
                out.push(
                    Finding::error(
                        Invariant::DefUse,
                        format!("operand {q} out of range for a {n_qubits}-qubit circuit"),
                    )
                    .with_op(i as u32),
                );
                continue;
            }
            touched[q.index()] = true;
            if let Some(p) = last_touch[q.index()] {
                if !expected.contains(&p) {
                    expected.push(p);
                }
            }
            last_touch[q.index()] = Some(i as u32);
        }
        if dag.len() == circuit.len() {
            let mut actual: Vec<u32> = dag.preds(i).to_vec();
            actual.sort_unstable();
            expected.sort_unstable();
            if actual != expected {
                out.push(
                    Finding::error(
                        Invariant::DefUse,
                        format!(
                            "dag preds of op {i} are {actual:?} but def-use chains imply {expected:?}"
                        ),
                    )
                    .with_op(i as u32),
                );
            }
        }
    }
    for (q, &used) in touched.iter().enumerate() {
        if !used && !circuit.is_empty() {
            out.push(Finding::warning(
                Invariant::DefUse,
                format!("qubit q{q} is declared but never used"),
            ));
        }
    }
}

fn check_anchors(fabrics: &[FabricView<'_>], out: &mut Vec<Finding>) {
    for fabric in fabrics {
        let mut seen: HashSet<Coord> = HashSet::new();
        for (q, &a) in fabric.anchors.iter().enumerate() {
            if !fabric.topology.contains(a) {
                out.push(
                    Finding::error(
                        Invariant::DuplicateAnchor,
                        format!("{}: anchor of q{q} is off the fabric", fabric.name),
                    )
                    .with_node(a),
                );
            }
            if !seen.insert(a) {
                out.push(
                    Finding::error(
                        Invariant::DuplicateAnchor,
                        format!(
                            "{}: two qubits anchor at the same node (q{q} collides)",
                            fabric.name
                        ),
                    )
                    .with_node(a),
                );
            }
        }
        let mut fseen: HashSet<Coord> = HashSet::new();
        for &f in &fabric.factories {
            if !fabric.topology.contains(f) {
                out.push(
                    Finding::error(
                        Invariant::DuplicateAnchor,
                        format!("{}: factory site off the fabric", fabric.name),
                    )
                    .with_node(f),
                );
            }
            if !fseen.insert(f) {
                out.push(
                    Finding::error(
                        Invariant::DuplicateAnchor,
                        format!("{}: duplicate factory site", fabric.name),
                    )
                    .with_node(f),
                );
            }
            if seen.contains(&f) {
                out.push(
                    Finding::warning(
                        Invariant::DuplicateAnchor,
                        format!(
                            "{}: factory site coincides with a qubit anchor",
                            fabric.name
                        ),
                    )
                    .with_node(f),
                );
            }
        }
    }
}

/// Connected components over the live sub-mesh, computed independently
/// of any engine routing code: nodes indexed `y * width + x`, flood
/// filled across links that are not dead.
pub fn live_components(topology: Topology, defects: Option<&DefectMap>) -> Vec<Option<u32>> {
    let (w, h) = (topology.width(), topology.height());
    let n = (w * h) as usize;
    let node_dead = |c: Coord| defects.is_some_and(|d| d.node_dead(c));
    let link_dead = |a: Coord, b: Coord| defects.is_some_and(|d| d.link_dead(a, b));
    let mut comp: Vec<Option<u32>> = vec![None; n];
    let mut next = 0u32;
    let mut stack: Vec<Coord> = Vec::new();
    for y in 0..h {
        for x in 0..w {
            let start = Coord::new(x, y);
            let idx = (y * w + x) as usize;
            if comp[idx].is_some() || node_dead(start) {
                continue;
            }
            comp[idx] = Some(next);
            stack.push(start);
            while let Some(c) = stack.pop() {
                let mut neighbors = Vec::with_capacity(4);
                if c.x > 0 {
                    neighbors.push(Coord::new(c.x - 1, c.y));
                }
                if c.x + 1 < w {
                    neighbors.push(Coord::new(c.x + 1, c.y));
                }
                if c.y > 0 {
                    neighbors.push(Coord::new(c.x, c.y - 1));
                }
                if c.y + 1 < h {
                    neighbors.push(Coord::new(c.x, c.y + 1));
                }
                for nb in neighbors {
                    let ni = (nb.y * w + nb.x) as usize;
                    if comp[ni].is_none() && !node_dead(nb) && !link_dead(c, nb) {
                        comp[ni] = Some(next);
                        stack.push(nb);
                    }
                }
            }
            next += 1;
        }
    }
    comp
}

fn check_admission(circuit: &Circuit, fabrics: &[FabricView<'_>], out: &mut Vec<Finding>) {
    for fabric in fabrics {
        let w = fabric.topology.width();
        let comp = live_components(fabric.topology, fabric.defects);
        let comp_of = |c: Coord| -> Option<u32> {
            if !fabric.topology.contains(c) {
                return None;
            }
            comp[(c.y * w + c.x) as usize]
        };
        // Which components hold a live factory.
        let factory_comps: HashSet<u32> = fabric
            .factories
            .iter()
            .filter_map(|&f| comp_of(f))
            .collect();
        if factory_comps.is_empty() && !fabric.factory_users.is_empty() {
            out.push(Finding::error(
                Invariant::Admission,
                format!(
                    "{}: every factory site is dead or off the fabric",
                    fabric.name
                ),
            ));
        }
        // Anchors of qubits the circuit actually touches must live.
        let mut used: Vec<bool> = vec![false; fabric.anchors.len()];
        for inst in circuit.iter() {
            for &q in inst.qubits() {
                if q.index() < used.len() {
                    used[q.index()] = true;
                }
            }
        }
        for (q, &is_used) in used.iter().enumerate() {
            if is_used && comp_of(fabric.anchors[q]).is_none() {
                out.push(
                    Finding::error(
                        Invariant::Admission,
                        format!("{}: anchor of q{q} sits on a dead node", fabric.name),
                    )
                    .with_node(fabric.anchors[q]),
                );
            }
        }
        // Two-qubit partners must share a component on fabrics that
        // communicate anchor-to-anchor.
        if fabric.pair_connectivity {
            for (i, inst) in circuit.iter().enumerate() {
                let qs = inst.qubits();
                if qs.len() != 2 {
                    continue;
                }
                let (a, b) = (qs[0].index(), qs[1].index());
                if a >= fabric.anchors.len() || b >= fabric.anchors.len() {
                    continue;
                }
                let (ca, cb) = (comp_of(fabric.anchors[a]), comp_of(fabric.anchors[b]));
                if let (Some(ca), Some(cb)) = (ca, cb) {
                    if ca != cb {
                        out.push(
                            Finding::error(
                                Invariant::Admission,
                                format!(
                                    "{}: {} q{a}, q{b} spans a fabric cut (no live route exists)",
                                    fabric.name,
                                    inst.gate().mnemonic()
                                ),
                            )
                            .with_op(i as u32)
                            .with_node(fabric.anchors[a]),
                        );
                    }
                }
            }
        }
        // Factory consumers must reach a live factory.
        for &q in &fabric.factory_users {
            let Some(&anchor) = fabric.anchors.get(q as usize) else {
                continue;
            };
            match comp_of(anchor) {
                Some(c) if factory_comps.contains(&c) => {}
                Some(_) => out.push(
                    Finding::error(
                        Invariant::Admission,
                        format!("{}: q{q} cannot reach any live factory", fabric.name),
                    )
                    .with_node(anchor),
                ),
                // Dead anchor already reported above.
                None => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finding::Severity;

    fn t_chain(n: u32) -> Circuit {
        let mut b = Circuit::builder("chk", n);
        for q in 0..n {
            b.t(q);
        }
        for q in 0..n.saturating_sub(1) {
            b.cnot(q, q + 1);
        }
        b.finish()
    }

    /// Every static check's findings, in check order.
    fn checked(circuit: &Circuit, dag: &DependencyDag, fabrics: &[FabricView<'_>]) -> Vec<Finding> {
        let mut out = Vec::new();
        for check in StaticCheck::ALL {
            check.run(circuit, dag, fabrics, &mut out);
        }
        out
    }

    fn errors(findings: &[Finding]) -> usize {
        findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    #[test]
    fn clean_circuit_checks_clean() {
        let c = t_chain(6);
        let dag = DependencyDag::from_circuit(&c);
        let layout = scq_layout::place(
            &scq_ir::InteractionGraph::from_circuit(&c),
            scq_layout::LayoutStrategy::InteractionAware,
        );
        let braid = BraidMachine::new(&layout, None);
        let machine = PlanarMachine::new(c.num_qubits());
        let fabrics = [
            FabricView::braid(&braid, &c, None),
            FabricView::planar(&machine, &c, None),
        ];
        let findings = checked(&c, &dag, &fabrics);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn mismatched_dag_is_flagged() {
        let c = t_chain(4);
        let other = t_chain(3);
        let dag = DependencyDag::from_circuit(&other);
        let findings = checked(&c, &dag, &[]);
        assert!(errors(&findings) > 0);
        assert!(findings
            .iter()
            .any(|f| f.invariant == Invariant::Acyclicity));
    }

    #[test]
    fn unused_qubit_is_a_warning_not_an_error() {
        let mut b = Circuit::builder("gap", 3);
        b.h(0).cnot(0, 2);
        let c = b.finish();
        let dag = DependencyDag::from_circuit(&c);
        let findings = checked(&c, &dag, &[]);
        assert_eq!(errors(&findings), 0);
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn dead_anchor_fails_admission() {
        let c = t_chain(4);
        let dag = DependencyDag::from_circuit(&c);
        let layout = scq_layout::place(
            &scq_ir::InteractionGraph::from_circuit(&c),
            scq_layout::LayoutStrategy::InteractionAware,
        );
        let machine = BraidMachine::new(&layout, None);
        let (mw, mh) = (machine.topology.width(), machine.topology.height());
        let anchor = machine.anchors[0];
        let map =
            DefectMap::from_text(&format!("dims {mw} {mh}\nnode {} {}\n", anchor.x, anchor.y))
                .unwrap();
        let fabrics = [FabricView::braid(&machine, &c, Some(&map))];
        let findings = checked(&c, &dag, &fabrics);
        assert!(findings
            .iter()
            .any(|f| f.invariant == Invariant::Admission && f.node == Some(anchor)));
    }

    #[test]
    fn fabric_cut_fails_admission_for_pairs() {
        // Isolate q0's anchor router by severing its four incident
        // links: the node stays alive, but the cnot partner is
        // unreachable — a fabric cut only admission can see.
        let c = {
            let mut b = Circuit::builder("cut", 2);
            b.cnot(0, 1);
            b.finish()
        };
        let dag = DependencyDag::from_circuit(&c);
        let layout = scq_layout::place(
            &scq_ir::InteractionGraph::from_circuit(&c),
            scq_layout::LayoutStrategy::InteractionAware,
        );
        let machine = BraidMachine::new(&layout, None);
        let (mw, mh) = (machine.topology.width(), machine.topology.height());
        let a = machine.anchors[0];
        let mut text = format!("dims {mw} {mh}\n");
        for (nx, ny) in [
            (a.x.wrapping_sub(1), a.y),
            (a.x + 1, a.y),
            (a.x, a.y.wrapping_sub(1)),
            (a.x, a.y + 1),
        ] {
            if nx < mw && ny < mh {
                text.push_str(&format!("link {} {} {nx} {ny}\n", a.x, a.y));
            }
        }
        let map = DefectMap::from_text(&text).unwrap();
        let fabrics = [FabricView::braid(&machine, &c, Some(&map))];
        let findings = checked(&c, &dag, &fabrics);
        assert!(
            findings.iter().any(|f| f.invariant == Invariant::Admission),
            "{findings:?}"
        );
    }
}
