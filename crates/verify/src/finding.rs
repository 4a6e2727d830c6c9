//! The certifier's output vocabulary: named invariants and located
//! findings.
//!
//! Every check in this crate reports violations as [`Finding`]s — a
//! named invariant plus whatever location data the check could pin down
//! (operation index, cycle, mesh node, link) — never as a bare boolean.
//! A clean artifact certifies to an empty finding list; a corrupted one
//! certifies to findings that *name* the violated invariant, which is
//! what the seeded-mutation soundness suite asserts on.

use std::fmt;

use scq_mesh::Coord;

/// The invariants the certifier and check passes verify, each with a
/// stable kebab-case name used in findings, CLI output, and tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Invariant {
    /// The dependency DAG is acyclic, edge-symmetric, and its ASAP
    /// levels are consistent.
    Acyclicity,
    /// Instruction operands are in range and distinct, and the DAG's
    /// edges equal the circuit's def-use (last-touch) chains.
    DefUse,
    /// Qubit anchors and factory sites are on the fabric and pairwise
    /// distinct.
    DuplicateAnchor,
    /// The circuit is statically admissible on the (possibly defective)
    /// fabric: anchors are alive, interacting anchors share a connected
    /// component, and consumers can reach a live factory.
    Admission,
    /// No two braids hold the same mesh node or link at the same cycle.
    SpatialExclusivity,
    /// No link ever carries more concurrent EPR halves than it has swap
    /// lanes.
    LaneCapacity,
    /// Dependent operations execute in dependency order.
    DependencyOrder,
    /// No route traverses a dead node or dead link, and no transient
    /// fault appears on a clean fabric.
    DefectAvoidance,
    /// Event times are internally consistent: opens precede closes,
    /// hops take exactly the configured latency, and nothing exceeds
    /// the schedule length.
    TimeMonotonicity,
    /// Every route is non-empty, on the fabric, stepwise-adjacent, and
    /// connects its declared endpoints.
    RouteWellFormed,
    /// The schedule's demand bookkeeping is self-consistent (request /
    /// route / launch / arrival alignment, makespan arithmetic).
    DemandConsistency,
}

impl Invariant {
    /// The stable kebab-case name of this invariant.
    pub fn name(self) -> &'static str {
        match self {
            Invariant::Acyclicity => "dag-acyclicity",
            Invariant::DefUse => "def-use",
            Invariant::DuplicateAnchor => "duplicate-anchor",
            Invariant::Admission => "static-admission",
            Invariant::SpatialExclusivity => "spatial-exclusivity",
            Invariant::LaneCapacity => "lane-capacity",
            Invariant::DependencyOrder => "dependency-order",
            Invariant::DefectAvoidance => "defect-avoidance",
            Invariant::TimeMonotonicity => "time-monotonicity",
            Invariant::RouteWellFormed => "route-well-formed",
            Invariant::DemandConsistency => "demand-consistency",
        }
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How serious a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: the artifact is still certifiable.
    Warning,
    /// The artifact violates a certified invariant.
    Error,
}

/// One located violation (or advisory) reported by a check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// The invariant this finding is about.
    pub invariant: Invariant,
    /// Error or warning.
    pub severity: Severity,
    /// Human-readable description of the violation.
    pub message: String,
    /// Instruction index involved, when known.
    pub op: Option<u32>,
    /// Cycle at which the violation occurs, when known.
    pub cycle: Option<u64>,
    /// Mesh node involved, when known.
    pub node: Option<Coord>,
    /// Mesh link involved, when known.
    pub link: Option<(Coord, Coord)>,
}

impl Finding {
    /// A new error-severity finding.
    pub fn error(invariant: Invariant, message: impl Into<String>) -> Self {
        Finding {
            invariant,
            severity: Severity::Error,
            message: message.into(),
            op: None,
            cycle: None,
            node: None,
            link: None,
        }
    }

    /// A new warning-severity finding.
    pub fn warning(invariant: Invariant, message: impl Into<String>) -> Self {
        Finding {
            severity: Severity::Warning,
            ..Finding::error(invariant, message)
        }
    }

    /// Attaches the instruction index.
    pub fn with_op(mut self, op: u32) -> Self {
        self.op = Some(op);
        self
    }

    /// Attaches the cycle.
    pub fn with_cycle(mut self, cycle: u64) -> Self {
        self.cycle = Some(cycle);
        self
    }

    /// Attaches the mesh node.
    pub fn with_node(mut self, node: Coord) -> Self {
        self.node = Some(node);
        self
    }

    /// Attaches the mesh link.
    pub fn with_link(mut self, a: Coord, b: Coord) -> Self {
        self.link = Some((a, b));
        self
    }
}

/// Puts a certifier's findings in one reproducible order — by cycle,
/// op, invariant, location, then message — whatever order the
/// `HashMap`s behind them iterated in.
pub(crate) fn sort_findings(findings: &mut [Finding]) {
    fn key(f: &Finding) -> impl Ord + '_ {
        let place = (f.node, f.link, f.message.as_str());
        (f.cycle, f.op, f.invariant.name(), place)
    }
    findings.sort_by(|a, b| key(a).cmp(&key(b)));
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self.severity {
            Severity::Error => "",
            Severity::Warning => "warning: ",
        };
        write!(f, "{tag}[{}] {}", self.invariant, self.message)?;
        let mut locs: Vec<String> = Vec::new();
        if let Some(op) = self.op {
            locs.push(format!("op {op}"));
        }
        if let Some(cycle) = self.cycle {
            locs.push(format!("cycle {cycle}"));
        }
        if let Some(node) = self.node {
            locs.push(format!("node {node}"));
        }
        if let Some((a, b)) = self.link {
            locs.push(format!("link {a}-{b}"));
        }
        if !locs.is_empty() {
            write!(f, " ({})", locs.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_and_distinct() {
        let all = [
            Invariant::Acyclicity,
            Invariant::DefUse,
            Invariant::DuplicateAnchor,
            Invariant::Admission,
            Invariant::SpatialExclusivity,
            Invariant::LaneCapacity,
            Invariant::DependencyOrder,
            Invariant::DefectAvoidance,
            Invariant::TimeMonotonicity,
            Invariant::RouteWellFormed,
            Invariant::DemandConsistency,
        ];
        let mut names: Vec<&str> = all.iter().map(|i| i.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "invariant names must be distinct");
    }

    #[test]
    fn display_includes_locations() {
        let f = Finding::error(Invariant::SpatialExclusivity, "two braids share a router")
            .with_op(3)
            .with_cycle(40)
            .with_node(Coord::new(5, 1));
        let s = f.to_string();
        assert!(s.contains("[spatial-exclusivity]"), "{s}");
        assert!(
            s.contains("op 3") && s.contains("cycle 40") && s.contains("node (5, 1)"),
            "{s}"
        );
    }

    #[test]
    fn warnings_are_tagged() {
        let f = Finding::warning(Invariant::DefUse, "qubit 7 is never used");
        assert!(f.to_string().starts_with("warning: "));
        assert!(Severity::Error > Severity::Warning);
    }
}
