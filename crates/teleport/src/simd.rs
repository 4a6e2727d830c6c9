//! Multi-SIMD region scheduling for the planar architecture.
//!
//! Paper Section 4.4: planar logical gates are bitwise (transversal), so
//! "many qubits undergoing the same operation are clustered in one SIMD
//! region, and multiple (reconfigurable) SIMD regions can accommodate
//! heterogeneous types of operations at any cycle" (the Multi-SIMD
//! architecture of Heckey et al. [35]). The scheduler levelizes the
//! dependency DAG under a [`SIMD_REGIONS`]-region constraint and counts
//! the teleportations needed to move qubits between regions — the
//! communication demand the EPR pipeline must satisfy.

use std::collections::BTreeMap;

use scq_ir::{Circuit, DependencyDag, Gate};

/// Reconfigurable SIMD regions operating concurrently: the four
/// locality-aware regions the paper's toolflow inherits from \[35\].
pub const SIMD_REGIONS: usize = 4;

/// The result of Multi-SIMD scheduling.
#[derive(Clone, Debug, PartialEq)]
pub struct SimdSchedule {
    /// Number of logical timesteps.
    pub timesteps: u64,
    /// Total operations scheduled.
    pub total_ops: usize,
    /// Teleportations incurred by qubit movement between regions (and
    /// from memory into regions).
    pub teleports: u64,
    /// Magic states consumed (each is delivered by one more teleport).
    pub magic_teleports: u64,
    /// For each teleport, the timestep at which it is needed — the
    /// demand trace consumed by the EPR distribution pipeline.
    pub teleport_times: Vec<u64>,
    /// For each teleport (aligned with [`SimdSchedule::teleport_times`]),
    /// the data qubit it serves — what lets the route-aware pipeline
    /// place the demand on the machine and route the EPR half to the
    /// consuming tile.
    pub teleport_qubits: Vec<u32>,
    /// For each instruction (by circuit index), the 1-based timestep it
    /// issued in — what lets an independent certifier check
    /// dependency-order preservation without re-running the scheduler.
    pub op_timesteps: Vec<u64>,
}

impl SimdSchedule {
    /// Total communication events (data teleports + magic-state
    /// deliveries).
    pub fn total_teleports(&self) -> u64 {
        self.teleports + self.magic_teleports
    }

    /// Average teleports per timestep — the EPR demand rate.
    pub fn teleport_rate(&self) -> f64 {
        if self.timesteps == 0 {
            return 0.0;
        }
        self.total_teleports() as f64 / self.timesteps as f64
    }
}

/// Schedules `circuit` onto the Multi-SIMD planar architecture.
///
/// List scheduling over the dependency DAG: each timestep packs ready
/// operations into at most [`SIMD_REGIONS`] regions, one gate type per
/// region (SIMD broadcast executes any number of same-type gates).
/// Teleports are counted when an operand qubit's current location (a
/// region, or memory) differs from the region its next operation runs
/// in; under the locality-aware mapping of \[35\] the qubit stays put
/// until a different region claims it.
///
/// # Panics
///
/// Panics if `dag` was not built from `circuit`.
pub fn schedule_simd(circuit: &Circuit, dag: &DependencyDag) -> SimdSchedule {
    assert_eq!(dag.len(), circuit.len(), "dag does not match circuit");
    let n = circuit.len();
    let mut remaining: Vec<u32> = (0..n).map(|i| dag.preds(i).len() as u32).collect();
    let mut ready: Vec<usize> = (0..n).filter(|&i| remaining[i] == 0).collect();
    let mut scheduled = 0usize;
    let mut timestep = 0u64;
    let mut teleports = 0u64;
    let mut magic_teleports = 0u64;
    let mut teleport_times = Vec::new();
    let mut teleport_qubits = Vec::new();
    let mut op_timesteps = vec![0u64; n];

    // Location of each qubit: None = memory region, Some(r) = region r.
    let mut location: Vec<Option<u32>> = vec![None; circuit.num_qubits() as usize];

    while scheduled < n {
        timestep += 1;
        // Group ready ops by gate type; assign up to SIMD_REGIONS types.
        let mut by_gate: BTreeMap<Gate, Vec<usize>> = BTreeMap::new();
        for &op in &ready {
            by_gate
                .entry(circuit.instructions()[op].gate())
                .or_default()
                .push(op);
        }
        // Largest groups first: broadcast amortizes best over big groups.
        let mut groups: Vec<(Gate, Vec<usize>)> = by_gate.into_iter().collect();
        groups.sort_by_key(|(g, ops)| (std::cmp::Reverse(ops.len()), *g));
        groups.truncate(SIMD_REGIONS);

        let mut issued: Vec<usize> = Vec::new();
        for (region, (gate, ops)) in groups.into_iter().enumerate() {
            let region = region as u32;
            for &op in &ops {
                for q in circuit.instructions()[op].qubits() {
                    let loc = &mut location[q.index()];
                    if *loc != Some(region) {
                        teleports += 1;
                        teleport_times.push(timestep);
                        teleport_qubits.push(q.raw());
                        *loc = Some(region);
                    }
                }
                if gate.needs_magic_state() {
                    magic_teleports += 1;
                    teleport_times.push(timestep);
                    teleport_qubits.push(circuit.instructions()[op].qubits()[0].raw());
                }
                op_timesteps[op] = timestep;
                issued.push(op);
            }
            let _ = gate;
        }

        // Retire issued ops and refill the ready set.
        scheduled += issued.len();
        let issued_set: std::collections::HashSet<usize> = issued.iter().copied().collect();
        ready.retain(|op| !issued_set.contains(op));
        for op in issued {
            for &s in dag.succs(op) {
                let s = s as usize;
                remaining[s] -= 1;
                if remaining[s] == 0 {
                    ready.push(s);
                }
            }
        }
        ready.sort_unstable();
    }

    SimdSchedule {
        timesteps: timestep,
        total_ops: n,
        teleports,
        magic_teleports,
        teleport_times,
        teleport_qubits,
        op_timesteps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(circuit: &Circuit) -> SimdSchedule {
        let dag = DependencyDag::from_circuit(circuit);
        schedule_simd(circuit, &dag)
    }

    fn wide_h_layer(n: u32) -> Circuit {
        let mut b = Circuit::builder("wide", n);
        for q in 0..n {
            b.h(q);
        }
        b.finish()
    }

    #[test]
    fn simd_broadcast_packs_same_gate_in_one_step() {
        let s = schedule(&wide_h_layer(32));
        assert_eq!(s.timesteps, 1);
        assert_eq!(s.total_ops, 32);
    }

    #[test]
    fn region_limit_serializes_gate_types() {
        // Four distinct gate types on distinct qubits fill the four
        // regions in one timestep; a fifth type waits for the next.
        let mut b = Circuit::builder("types", 5);
        b.h(0).x(1).s(2).z(3);
        assert_eq!(schedule(&b.clone().finish()).timesteps, 1);
        b.y(4);
        assert_eq!(schedule(&b.finish()).timesteps, 2);
    }

    #[test]
    fn dependencies_respected() {
        let mut b = Circuit::builder("chain", 1);
        b.h(0).t(0).h(0);
        let s = schedule(&b.finish());
        assert_eq!(s.timesteps, 3);
    }

    #[test]
    fn locality_reduces_teleports() {
        // Repeated ops on the same qubits: locality keeps them in
        // place, so only the first op teleports its two operands (a
        // mapping that returned them to memory would pay 20).
        let mut b = Circuit::builder("reuse", 2);
        for _ in 0..10 {
            b.cnot(0, 1);
        }
        assert_eq!(schedule(&b.finish()).teleports, 2);
    }

    #[test]
    fn magic_states_counted_per_t_gate() {
        let mut b = Circuit::builder("ts", 3);
        b.t(0).t(1).tdg(2);
        let s = schedule(&b.finish());
        assert_eq!(s.magic_teleports, 3);
        assert_eq!(s.total_teleports(), s.teleports + 3);
    }

    #[test]
    fn teleport_times_are_monotone_and_bounded() {
        let c = wide_h_layer(8);
        let s = schedule(&c);
        for w in s.teleport_times.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!(s.teleport_times.iter().all(|&t| t >= 1 && t <= s.timesteps));
    }

    #[test]
    fn teleport_qubits_align_with_times() {
        let mut b = Circuit::builder("mix", 6);
        for i in 0..5u32 {
            b.cnot(i, i + 1).t(i);
        }
        let s = schedule(&b.finish());
        assert_eq!(s.teleport_qubits.len(), s.teleport_times.len());
        assert!(s.teleport_qubits.iter().all(|&q| q < 6));
    }

    #[test]
    fn op_timesteps_cover_every_op_and_respect_dependencies() {
        let mut b = Circuit::builder("deps", 4);
        for i in 0..3u32 {
            b.cnot(i, i + 1).t(i);
        }
        let c = b.finish();
        let dag = DependencyDag::from_circuit(&c);
        let s = schedule_simd(&c, &dag);
        assert_eq!(s.op_timesteps.len(), c.len());
        assert!(s.op_timesteps.iter().all(|&t| t >= 1 && t <= s.timesteps));
        for op in 0..c.len() {
            for &p in dag.preds(op) {
                assert!(
                    s.op_timesteps[p as usize] < s.op_timesteps[op],
                    "pred {p} of op {op} issued at {} >= {}",
                    s.op_timesteps[p as usize],
                    s.op_timesteps[op]
                );
            }
        }
    }

    #[test]
    fn teleport_rate() {
        let s = schedule(&wide_h_layer(8));
        assert!(s.teleport_rate() > 0.0);
        let empty = schedule(&Circuit::builder("e", 1).finish());
        assert_eq!(empty.teleport_rate(), 0.0);
    }
}
