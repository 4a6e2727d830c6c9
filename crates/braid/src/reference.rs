//! The naive cycle-stepping scheduler, retained as a differential
//! reference.
//!
//! This is the original traced engine: it advances time one
//! EC cycle at a time, rescans every operation's state per cycle for
//! policies 3-6, and allocates a fresh route `Vec` on every routing
//! attempt. The event-driven engine in [`crate::scheduler`] must produce
//! **bit-identical** schedules to this one on every policy; the
//! equivalence suite in `scq-bench` asserts exactly that, and the
//! `perf_report` binary measures the speedup against it. Keep this
//! implementation boring and obviously correct — its value is that it
//! shares no control-flow restructuring with the fast path.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use scq_ir::{Circuit, DependencyDag};
use scq_layout::Layout;
use scq_mesh::{Mesh, Path};

use crate::machine::BraidMachine;
use crate::policy::{sort_candidates, Candidate, Policy};
use crate::scheduler::{
    op_latency_cycles, BraidConfig, BraidSchedule, OpState, ScheduleError, TGateModel,
};
use crate::trace::{BraidEvent, BraidTrace, EventCollector};

/// Naive-stepping counterpart of [`crate::schedule`]; see the module
/// docs.
///
/// # Errors
///
/// As [`crate::schedule`].
///
/// # Panics
///
/// Panics if `dag` was not built from `circuit`.
pub fn schedule_reference(
    circuit: &Circuit,
    dag: &DependencyDag,
    layout: &Layout,
    config: &BraidConfig,
) -> Result<BraidSchedule, ScheduleError> {
    schedule_traced_reference(circuit, dag, layout, config).map(|(s, _)| s)
}

/// Naive-stepping counterpart of [`crate::schedule_with`] recording
/// into an [`crate::EventCollector`]; see the module docs.
///
/// # Errors
///
/// As [`crate::schedule`].
///
/// # Panics
///
/// Panics if `dag` was not built from `circuit`.
#[allow(clippy::too_many_lines)]
pub fn schedule_traced_reference(
    circuit: &Circuit,
    dag: &DependencyDag,
    layout: &Layout,
    config: &BraidConfig,
) -> Result<(BraidSchedule, BraidTrace), ScheduleError> {
    assert_eq!(dag.len(), circuit.len(), "dag does not match circuit");
    if layout.num_qubits() < circuit.num_qubits() as usize {
        return Err(ScheduleError::LayoutMismatch {
            circuit_qubits: circuit.num_qubits(),
            layout_qubits: layout.num_qubits(),
        });
    }
    let d = config.code_distance;
    let n = circuit.len();

    let critical_path_cycles = dag.weighted_critical_path(circuit, |_, inst| {
        op_latency_cycles(inst.gate(), d, config.t_gate_model)
    });
    if n == 0 {
        let empty = BraidSchedule {
            cycles: 0,
            critical_path_cycles: 0,
            mesh_utilization: 0.0,
            total_ops: 0,
            braids_placed: 0,
            adaptive_routes: 0,
            drops: 0,
            total_braid_hops: 0,
        };
        let trace = EventCollector::default().into_trace(layout, &empty);
        return Ok((empty, trace));
    }

    let machine = BraidMachine::new(layout, config.factory_count);
    let mut mesh = Mesh::new(machine.topology.width(), machine.topology.height());
    let anchor = |q: u32| machine.anchors[q as usize];
    let factories = &machine.factories;
    let mut factory_free_at: Vec<u64> = vec![0; factories.len()];

    let mut state = vec![OpState::Blocked; n];
    let mut remaining = vec![0u32; n];
    for i in 0..n {
        remaining[i] = dag.preds(i).len() as u32;
        if remaining[i] == 0 {
            state[i] = OpState::Ready;
        }
    }
    let mut held_paths: Vec<Option<Path>> = vec![None; n];
    let mut fail_count = vec![0u32; n];
    let mut done_count = 0usize;

    // (time, op, is_final_release)
    let mut releases: BinaryHeap<Reverse<(u64, u32, bool)>> = BinaryHeap::new();
    let mut events: Vec<BraidEvent> = Vec::new();

    let mut stats = BraidSchedule {
        cycles: 0,
        critical_path_cycles,
        mesh_utilization: 0.0,
        total_ops: n,
        braids_placed: 0,
        adaptive_routes: 0,
        drops: 0,
        total_braid_hops: 0,
    };

    // Issue pointer for the in-order policies (0-2).
    let mut next_start = 0usize;
    // Criticality threshold for Policy 6's split length ordering: half
    // the maximum criticality in the program.
    let crit_threshold = (0..n)
        .map(|i| dag.criticality(i))
        .max()
        .unwrap_or(0)
        .div_ceil(2);

    let hold = u64::from(d) + 1;
    let mut t: u64 = 0;
    loop {
        if t > config.max_cycles {
            return Err(ScheduleError::CycleLimitExceeded {
                limit: config.max_cycles,
            });
        }

        // ---- Release phase: closings are timer-driven. ----
        while let Some(&Reverse((rt, op, is_final))) = releases.peek() {
            if rt > t {
                break;
            }
            releases.pop();
            let op = op as usize;
            if let Some(path) = held_paths[op].take() {
                mesh.release(&path, op as u32);
                let two_qubit = circuit.instructions()[op].gate().is_two_qubit();
                events.push(BraidEvent {
                    op: op as u32,
                    leg: if is_final && two_qubit { 2 } else { 1 },
                    open_cycle: rt - hold,
                    close_cycle: rt,
                    path,
                });
            }
            if is_final {
                state[op] = OpState::Done;
                done_count += 1;
                for &s in dag.succs(op) {
                    let s = s as usize;
                    remaining[s] -= 1;
                    if remaining[s] == 0 {
                        state[s] = OpState::Ready;
                    }
                }
            } else {
                state[op] = OpState::Leg2Ready;
            }
        }
        if done_count == n {
            stats.cycles = t;
            break;
        }

        // ---- Issue phase. ----
        let try_issue = |op: usize,
                         leg: u8,
                         mesh: &mut Mesh,
                         state: &mut [OpState],
                         fail_count: &mut [u32],
                         held_paths: &mut [Option<Path>],
                         releases: &mut BinaryHeap<Reverse<(u64, u32, bool)>>,
                         factory_free_at: &mut [u64],
                         stats: &mut BraidSchedule|
         -> bool {
            let inst = &circuit.instructions()[op];
            let gate = inst.gate();
            let local = !gate.is_two_qubit()
                && (!gate.needs_magic_state() || config.t_gate_model != TGateModel::FactoryBraids);
            if local {
                state[op] = OpState::Running;
                releases.push(Reverse((t + 1, op as u32, true)));
                return true;
            }
            // Determine endpoints.
            let (src, dst, factory_idx) = if gate.is_two_qubit() {
                let qs = inst.qubits();
                (anchor(qs[0].raw()), anchor(qs[1].raw()), None)
            } else {
                // T gate from the nearest available factory.
                let target = anchor(inst.qubits()[0].raw());
                let mut best: Option<(u32, usize)> = None;
                for (fi, &site) in factories.iter().enumerate() {
                    if factory_free_at[fi] > t {
                        continue;
                    }
                    let dist = site.manhattan(target);
                    if best.map(|(bd, _)| dist < bd).unwrap_or(true) {
                        best = Some((dist, fi));
                    }
                }
                match best {
                    Some((_, fi)) => (factories[fi], target, Some(fi)),
                    None => {
                        fail_count[op] += 1;
                        return false;
                    }
                }
            };
            // Route selection escalates with starvation.
            let attempts = fail_count[op];
            let path = if attempts <= config.route_timeout {
                Some(mesh.route_xy(src, dst))
            } else if attempts <= 2 * config.route_timeout {
                Some(mesh.route_yx(src, dst))
            } else {
                stats.adaptive_routes += 1;
                mesh.route_adaptive(src, dst)
            };
            let claimed = match path {
                Some(p) if mesh.try_claim(&p, op as u32) => Some(p),
                _ => None,
            };
            match claimed {
                Some(p) => {
                    stats.braids_placed += 1;
                    stats.total_braid_hops += p.len_hops() as u64;
                    held_paths[op] = Some(p);
                    fail_count[op] = 0;
                    if let Some(fi) = factory_idx {
                        factory_free_at[fi] = t + u64::from(config.magic_production_cycles);
                    }
                    let is_final = leg == 2 || !gate.is_two_qubit();
                    releases.push(Reverse((t + hold, op as u32, is_final)));
                    state[op] = if leg == 1 && gate.is_two_qubit() {
                        OpState::Leg1Held
                    } else {
                        OpState::Leg2Held
                    };
                    true
                }
                None => {
                    fail_count[op] += 1;
                    if fail_count[op] > config.drop_timeout {
                        // Drop and re-inject onto the last YX rung: the
                        // next attempt walks YX; only the one after can
                        // route adaptively.
                        stats.drops += 1;
                        fail_count[op] = 2 * config.route_timeout;
                    }
                    false
                }
            }
        };

        match config.policy {
            Policy::P0 => {
                // Strict program order for operations *and* events: the
                // global event sequence (op0.leg1, op0.leg2, op1.leg1,
                // ...) issues strictly in order. Braids pipeline — the
                // next event may issue while earlier braids stabilize —
                // but no event ever overtakes an earlier one.
                loop {
                    while next_start < n && state[next_start].started() {
                        // Ops whose *last* event has issued are passed;
                        // an op holding its first leg still gates the
                        // pointer (its leg-2 event is next in order).
                        match state[next_start] {
                            OpState::Running | OpState::Leg2Held | OpState::Done => next_start += 1,
                            _ => break,
                        }
                    }
                    if next_start >= n {
                        break;
                    }
                    let op = next_start;
                    let issued = match state[op] {
                        OpState::Ready => try_issue(
                            op,
                            1,
                            &mut mesh,
                            &mut state,
                            &mut fail_count,
                            &mut held_paths,
                            &mut releases,
                            &mut factory_free_at,
                            &mut stats,
                        ),
                        OpState::Leg2Ready => try_issue(
                            op,
                            2,
                            &mut mesh,
                            &mut state,
                            &mut fail_count,
                            &mut held_paths,
                            &mut releases,
                            &mut factory_free_at,
                            &mut stats,
                        ),
                        _ => false,
                    };
                    if !issued {
                        break;
                    }
                }
            }
            Policy::P1 | Policy::P2 => {
                // Events interleave: all pending second legs may open.
                for op in 0..n {
                    if state[op] == OpState::Leg2Ready {
                        let _ = try_issue(
                            op,
                            2,
                            &mut mesh,
                            &mut state,
                            &mut fail_count,
                            &mut held_paths,
                            &mut releases,
                            &mut factory_free_at,
                            &mut stats,
                        );
                    }
                }
                // Operations start in program order; stop at the first
                // blocked or unplaceable op.
                while next_start < n && state[next_start].started() {
                    next_start += 1;
                }
                let mut idx = next_start;
                while idx < n {
                    match state[idx] {
                        OpState::Blocked => break,
                        OpState::Ready => {
                            let ok = try_issue(
                                idx,
                                1,
                                &mut mesh,
                                &mut state,
                                &mut fail_count,
                                &mut held_paths,
                                &mut releases,
                                &mut factory_free_at,
                                &mut stats,
                            );
                            if !ok {
                                break;
                            }
                            idx += 1;
                        }
                        _ => idx += 1, // already in flight
                    }
                }
            }
            _ => {
                // Policies 3-6: free-for-all ordered by the priority
                // comparator; place as many braids as possible.
                let mut candidates: Vec<Candidate> = Vec::new();
                for (op, &op_state) in state.iter().enumerate() {
                    let leg = match op_state {
                        OpState::Ready => 1,
                        OpState::Leg2Ready => 2,
                        _ => continue,
                    };
                    let inst = &circuit.instructions()[op];
                    let length = if inst.gate().is_two_qubit() {
                        let qs = inst.qubits();
                        anchor(qs[0].raw()).manhattan(anchor(qs[1].raw()))
                    } else {
                        0
                    };
                    candidates.push(Candidate {
                        op: op as u32,
                        leg,
                        criticality: dag.criticality(op),
                        length,
                    });
                }
                sort_candidates(config.policy, &mut candidates, crit_threshold);
                for c in candidates {
                    let _ = try_issue(
                        c.op as usize,
                        c.leg,
                        &mut mesh,
                        &mut state,
                        &mut fail_count,
                        &mut held_paths,
                        &mut releases,
                        &mut factory_free_at,
                        &mut stats,
                    );
                }
            }
        }

        t += 1;
    }

    stats.mesh_utilization = machine.utilization(&stats, d);
    let trace = EventCollector { events }.into_trace(layout, &stats);
    Ok((stats, trace))
}
