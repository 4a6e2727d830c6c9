//! Data-dependency DAG over a circuit's instructions.

use crate::circuit::{Circuit, Instruction};
#[cfg(test)]
use crate::Qubit;

/// The data-dependency graph of a [`Circuit`].
///
/// Node `i` is instruction `i` of the source circuit; an edge `a -> b`
/// means instruction `b` reads or writes a qubit last touched by `a`.
/// Program order is a topological order by construction, which the
/// schedulers in `scq-braid` and `scq-teleport` rely on.
///
/// The DAG also precomputes the two quantities the paper's optimizations
/// are driven by:
///
/// - **ASAP level** of each op, giving the critical-path length
///   ([`DependencyDag::depth`]) and the *parallelism factor* (paper
///   Table 2): total ops divided by depth;
/// - **criticality** of each op (paper Policy 3: "how many future
///   operations depend on it") computed as the longest chain of dependent
///   ops below it.
///
/// # Examples
///
/// ```
/// use scq_ir::{Circuit, DependencyDag};
///
/// let mut b = Circuit::builder("chain", 2);
/// b.h(0).t(0).cnot(0, 1).meas_z(1);
/// let dag = DependencyDag::from_circuit(&b.finish());
///
/// assert_eq!(dag.depth(), 4);
/// assert_eq!(dag.criticality(0), 4); // whole chain hangs off the H
/// assert_eq!(dag.criticality(3), 1); // the final measurement
/// ```
#[derive(Clone, Debug)]
pub struct DependencyDag {
    preds: Vec<Vec<u32>>,
    succs: Vec<Vec<u32>>,
    asap: Vec<u32>,
    criticality: Vec<u32>,
}

impl DependencyDag {
    /// Builds the dependency DAG of `circuit`.
    ///
    /// Construction is `O(ops)`: each instruction depends on the previous
    /// instruction touching each of its operands.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let n = circuit.len();
        let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut last_touch: Vec<Option<u32>> = vec![None; circuit.num_qubits() as usize];

        for (i, inst) in circuit.iter().enumerate() {
            for &q in inst.qubits() {
                if let Some(p) = last_touch[q.index()] {
                    // Avoid duplicate edges when both operands were last
                    // touched by the same instruction.
                    if preds[i].last() != Some(&p) && !preds[i].contains(&p) {
                        preds[i].push(p);
                        succs[p as usize].push(i as u32);
                    }
                }
                last_touch[q.index()] = Some(i as u32);
            }
        }

        let mut asap = vec![0u32; n];
        for i in 0..n {
            asap[i] = preds[i]
                .iter()
                .map(|&p| asap[p as usize] + 1)
                .max()
                .unwrap_or(0);
        }

        let mut criticality = vec![1u32; n];
        for i in (0..n).rev() {
            criticality[i] = 1 + succs[i]
                .iter()
                .map(|&s| criticality[s as usize])
                .max()
                .unwrap_or(0);
        }

        DependencyDag {
            preds,
            succs,
            asap,
            criticality,
        }
    }

    /// Number of nodes (instructions).
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Returns `true` for the DAG of an empty circuit.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// The direct dependencies of instruction `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn preds(&self, i: usize) -> &[u32] {
        &self.preds[i]
    }

    /// The direct dependents of instruction `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn succs(&self, i: usize) -> &[u32] {
        &self.succs[i]
    }

    /// ASAP (as-soon-as-possible) level of instruction `i`: the length of
    /// the longest dependency chain strictly above it.
    pub fn asap_level(&self, i: usize) -> u32 {
        self.asap[i]
    }

    /// The ASAP levels of all instructions.
    pub fn asap_levels(&self) -> &[u32] {
        &self.asap
    }

    /// Criticality of instruction `i`: the number of ops on the longest
    /// dependency chain starting at `i` (inclusive). Sinks have
    /// criticality 1. Used by braid priority Policy 3.
    pub fn criticality(&self, i: usize) -> u32 {
        self.criticality[i]
    }

    /// Critical-path length in ops (the circuit *depth*): the minimum
    /// number of timesteps needed with unlimited hardware parallelism.
    pub fn depth(&self) -> usize {
        self.asap.iter().map(|&l| l as usize + 1).max().unwrap_or(0)
    }

    /// Number of ops at each ASAP level: the circuit's *width profile*.
    ///
    /// `level_widths()[t]` is how many ops could execute concurrently at
    /// ideal timestep `t`.
    pub fn level_widths(&self) -> Vec<usize> {
        let mut widths = vec![0usize; self.depth()];
        for &l in &self.asap {
            widths[l as usize] += 1;
        }
        widths
    }

    /// The ideal parallelism factor (paper Table 2): average number of
    /// logical ops concurrently executable with unconstrained hardware,
    /// i.e. `total ops / depth`. Empty circuits report 0.
    pub fn parallelism_factor(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.len() as f64 / self.depth() as f64
    }

    /// Critical-path length under a per-instruction latency model.
    ///
    /// `latency(i, inst)` gives the cost of instruction `i`; the result is
    /// the maximum total latency along any dependency chain. With
    /// `latency = |_, _| 1` this equals [`DependencyDag::depth`].
    pub fn weighted_critical_path<F>(&self, circuit: &Circuit, mut latency: F) -> u64
    where
        F: FnMut(usize, &Instruction) -> u64,
    {
        assert_eq!(circuit.len(), self.len(), "circuit does not match this DAG");
        let mut finish = vec![0u64; self.len()];
        let mut best = 0u64;
        for (i, inst) in circuit.iter().enumerate() {
            let start = self.preds[i]
                .iter()
                .map(|&p| finish[p as usize])
                .max()
                .unwrap_or(0);
            finish[i] = start + latency(i, inst);
            best = best.max(finish[i]);
        }
        best
    }

    /// Indices of instructions with no dependencies (the initial ready set).
    pub fn sources(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.preds[i].is_empty())
            .collect()
    }

    /// Indices of instructions with no dependents.
    pub fn sinks(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.succs[i].is_empty())
            .collect()
    }

    /// Verifies internal invariants; used by tests and debug assertions.
    ///
    /// Checks that edges are symmetric between `preds` and `succs`, point
    /// backwards in program order, and that ASAP levels are consistent.
    pub fn check_invariants(&self) -> bool {
        for i in 0..self.len() {
            for &p in &self.preds[i] {
                if p as usize >= i || !self.succs[p as usize].contains(&(i as u32)) {
                    return false;
                }
            }
            let expect = self.preds[i]
                .iter()
                .map(|&p| self.asap[p as usize] + 1)
                .max()
                .unwrap_or(0);
            if self.asap[i] != expect {
                return false;
            }
        }
        true
    }
}

/// Extracts, for each instruction, the qubit pair of a two-qubit gate.
///
/// Helper for schedulers: returns `None` for single-qubit instructions.
#[cfg(test)]
fn two_qubit_operands(inst: &Instruction) -> Option<(Qubit, Qubit)> {
    let qs = inst.qubits();
    if qs.len() == 2 {
        Some((qs[0], qs[1]))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Circuit;

    fn chain() -> Circuit {
        let mut b = Circuit::builder("chain", 1);
        b.h(0).t(0).s(0).meas_z(0);
        b.finish()
    }

    fn diamond() -> Circuit {
        // h q0; h q1; cnot q0,q1; meas both: classic fork-join.
        let mut b = Circuit::builder("diamond", 2);
        b.h(0).h(1).cnot(0, 1).meas_z(0).meas_z(1);
        b.finish()
    }

    #[test]
    fn chain_has_linear_depth() {
        let dag = DependencyDag::from_circuit(&chain());
        assert_eq!(dag.depth(), 4);
        assert_eq!(dag.parallelism_factor(), 1.0);
        assert!(dag.check_invariants());
    }

    #[test]
    fn diamond_structure() {
        let dag = DependencyDag::from_circuit(&diamond());
        assert_eq!(dag.depth(), 3);
        assert_eq!(dag.sources(), vec![0, 1]);
        assert_eq!(dag.sinks(), vec![3, 4]);
        assert_eq!(dag.preds(2), &[0, 1]);
        assert_eq!(dag.succs(2), &[3, 4]);
        assert!(dag.check_invariants());
    }

    #[test]
    fn asap_levels() {
        let dag = DependencyDag::from_circuit(&diamond());
        assert_eq!(dag.asap_levels(), &[0, 0, 1, 2, 2]);
        assert_eq!(dag.level_widths(), vec![2, 1, 2]);
    }

    #[test]
    fn criticality_counts_longest_downstream_chain() {
        let dag = DependencyDag::from_circuit(&diamond());
        // h -> cnot -> meas = 3 ops on the longest chain from each source.
        assert_eq!(dag.criticality(0), 3);
        assert_eq!(dag.criticality(1), 3);
        assert_eq!(dag.criticality(2), 2);
        assert_eq!(dag.criticality(3), 1);
    }

    #[test]
    fn parallelism_factor_of_parallel_block() {
        let mut b = Circuit::builder("wide", 8);
        for q in 0..8 {
            b.h(q);
        }
        let dag = DependencyDag::from_circuit(&b.finish());
        assert_eq!(dag.depth(), 1);
        assert_eq!(dag.parallelism_factor(), 8.0);
    }

    #[test]
    fn weighted_critical_path_uses_latencies() {
        let c = diamond();
        let dag = DependencyDag::from_circuit(&c);
        // Unit latencies reproduce depth.
        assert_eq!(dag.weighted_critical_path(&c, |_, _| 1), 3);
        // CNOT is 10x: path h(1) + cnot(10) + meas(1) = 12.
        let w = dag.weighted_critical_path(
            &c,
            |_, inst| {
                if inst.gate().is_two_qubit() {
                    10
                } else {
                    1
                }
            },
        );
        assert_eq!(w, 12);
    }

    #[test]
    fn no_duplicate_edge_for_shared_predecessor() {
        // swap q0,q1 then cnot q0,q1: the cnot depends on the swap once.
        let mut b = Circuit::builder("dup", 2);
        b.swap(0, 1).cnot(0, 1);
        let dag = DependencyDag::from_circuit(&b.finish());
        assert_eq!(dag.preds(1), &[0]);
        assert_eq!(dag.succs(0), &[1]);
    }

    #[test]
    fn empty_circuit() {
        let c = Circuit::builder("empty", 3).finish();
        let dag = DependencyDag::from_circuit(&c);
        assert!(dag.is_empty());
        assert_eq!(dag.depth(), 0);
        assert_eq!(dag.parallelism_factor(), 0.0);
        assert!(dag.check_invariants());
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn weighted_cp_rejects_mismatched_circuit() {
        let dag = DependencyDag::from_circuit(&chain());
        let other = diamond();
        let _ = dag.weighted_critical_path(&other, |_, _| 1);
    }

    #[test]
    fn two_qubit_operand_helper() {
        let c = diamond();
        assert!(two_qubit_operands(&c.instructions()[0]).is_none());
        let (a, b) = two_qubit_operands(&c.instructions()[2]).unwrap();
        assert_eq!((a.index(), b.index()), (0, 1));
    }
}
