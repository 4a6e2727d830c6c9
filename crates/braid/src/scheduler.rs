//! The braid scheduling engine: message-passing simulation of braids on
//! the circuit-switched tile mesh (paper Section 6.1).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;

use scq_ir::{Circuit, DependencyDag, Gate};
use scq_layout::Layout;
use scq_mesh::{CommError, Coord, DefectMap, Mesh, Path, RouteScratch};

use crate::machine::BraidMachine;
use crate::policy::{sort_candidates, Candidate, Policy};
use crate::trace::{BraidTrace, EventCollector, NoTrace, TraceSink};

/// How T gates obtain their magic states.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TGateModel {
    /// Magic states are braided in from edge factory tiles: each T gate
    /// opens a braid leg from the nearest available factory (paper
    /// Figure 3b: "dedicated factories supply magic states to
    /// surrounding tiles").
    #[default]
    FactoryBraids,
    /// Magic states are pre-buffered next to each data tile; T gates are
    /// local. Isolates braid-contention effects from supply effects in
    /// ablation studies.
    LocalBuffered,
}

/// Configuration of one braid-scheduling run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BraidConfig {
    /// Priority policy (paper Section 6.3).
    pub policy: Policy,
    /// Surface code distance `d`: braids hold their route for `d` cycles
    /// per leg to stabilize syndromes.
    pub code_distance: u32,
    /// Failed-claim cycles before escalating from XY to YX routing
    /// (twice this before adaptive routing).
    pub route_timeout: u32,
    /// Failed-claim cycles before the braid is dropped and re-injected.
    /// A re-injected braid resumes with `2 * route_timeout` failures, on
    /// the last Y-then-X rung: its next attempt walks the YX route once
    /// more, and the one after routes adaptively if `drop_timeout >
    /// 2 * route_timeout` (as by default), else it is dropped again.
    pub drop_timeout: u32,
    /// Number of magic-state factory sites; `None` is the
    /// [`BraidMachine`] default, one per grid column and at least two,
    /// split over a top and a bottom factory row (Figure 3b).
    pub factory_count: Option<u32>,
    /// Cycles a factory needs to produce one magic state.
    pub magic_production_cycles: u32,
    /// Magic-state supply model for T gates.
    pub t_gate_model: TGateModel,
    /// Hard cap on simulated cycles (guards against pathological runs).
    pub max_cycles: u64,
}

impl Default for BraidConfig {
    fn default() -> Self {
        BraidConfig {
            policy: Policy::P6,
            code_distance: 9,
            route_timeout: 4,
            drop_timeout: 16,
            factory_count: None,
            magic_production_cycles: 1,
            t_gate_model: TGateModel::FactoryBraids,
            max_cycles: 50_000_000,
        }
    }
}

/// Uncontended latency of one logical operation in EC cycles: the unit
/// costs of Figure 5 (two braid legs of `d + 1` cycles for two-qubit
/// ops, one leg for a factory-supplied T, one cycle for local Cliffords).
pub fn op_latency_cycles(gate: Gate, code_distance: u32, t_model: TGateModel) -> u64 {
    let d = u64::from(code_distance);
    if gate.is_two_qubit() {
        2 * (d + 1)
    } else if gate.needs_magic_state() {
        match t_model {
            TGateModel::FactoryBraids => d + 1,
            TGateModel::LocalBuffered => 1,
        }
    } else {
        1
    }
}

/// Result of a braid-scheduling run — the quantities Figure 6 plots.
#[derive(Clone, Debug, PartialEq)]
pub struct BraidSchedule {
    /// Total schedule length in EC cycles.
    pub cycles: u64,
    /// Dependency-limited lower bound (weighted critical path).
    pub critical_path_cycles: u64,
    /// Average fraction of busy mesh links (Figure 6, red curve):
    /// `total_braid_hops * (d + 1) / (cycles * num_links)`, since every
    /// placed leg holds the links of its route for `d + 1` cycles.
    pub mesh_utilization: f64,
    /// Number of operations scheduled.
    pub total_ops: usize,
    /// Braid legs successfully placed.
    pub braids_placed: u64,
    /// Adaptive routing *attempts* (claim attempts after `2 *
    /// route_timeout` failed cycles), pruned ones included: several
    /// times the legs actually routed adaptively.
    pub adaptive_routes: u64,
    /// Braids dropped and re-injected.
    pub drops: u64,
    /// Total hops over all placed braid legs.
    pub total_braid_hops: u64,
}

impl BraidSchedule {
    /// Schedule length over critical path — Figure 6's blue bars
    /// (1.0 is optimal).
    pub fn schedule_to_cp_ratio(&self) -> f64 {
        if self.critical_path_cycles == 0 {
            return 1.0;
        }
        self.cycles as f64 / self.critical_path_cycles as f64
    }

    /// Average braid leg length in hops.
    pub fn avg_braid_hops(&self) -> f64 {
        if self.braids_placed == 0 {
            return 0.0;
        }
        self.total_braid_hops as f64 / self.braids_placed as f64
    }
}

impl fmt::Display for BraidSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cycles (CP {}, ratio {:.2}), utilization {:.1}%",
            self.cycles,
            self.critical_path_cycles,
            self.schedule_to_cp_ratio(),
            self.mesh_utilization * 100.0
        )
    }
}

/// A braid-scheduling failure.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScheduleError {
    /// The run exceeded [`BraidConfig::max_cycles`].
    CycleLimitExceeded {
        /// The configured limit.
        limit: u64,
    },
    /// The layout does not cover the circuit's qubits.
    LayoutMismatch {
        /// Qubits in the circuit.
        circuit_qubits: u32,
        /// Qubits in the layout.
        layout_qubits: usize,
    },
    /// A qubit that some instruction uses sits on a tile whose anchor
    /// router is dead.
    DeadAnchor {
        /// The qubit.
        qubit: u32,
        /// The qubit's tile in the layout.
        tile: Coord,
        /// The tile's anchor router on the braid mesh.
        router: Coord,
    },
    /// Fabrication defects cut the mesh so the circuit cannot be
    /// scheduled: a required qubit pair has no defect-free route, a
    /// T-gate target is unreachable from every live factory, or every
    /// factory site died.
    Unroutable(CommError),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::CycleLimitExceeded { limit } => {
                write!(f, "braid schedule exceeded the {limit}-cycle limit")
            }
            ScheduleError::LayoutMismatch {
                circuit_qubits,
                layout_qubits,
            } => write!(
                f,
                "layout places {layout_qubits} qubits but the circuit uses {circuit_qubits}"
            ),
            ScheduleError::DeadAnchor {
                qubit,
                tile,
                router,
            } => write!(
                f,
                "anchor of q{qubit} sits on a dead node (router {router} of tile {tile})"
            ),
            ScheduleError::Unroutable(e) => write!(f, "{e}"),
        }
    }
}

impl Error for ScheduleError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ScheduleError::Unroutable(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CommError> for ScheduleError {
    fn from(e: CommError) -> Self {
        ScheduleError::Unroutable(e)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum OpState {
    /// Waiting on dependencies.
    Blocked,
    /// Dependencies met; first event not yet issued.
    Ready,
    /// Local op running (releases at a scheduled time).
    Running,
    /// First braid leg holds its route.
    Leg1Held,
    /// First leg released; second leg may open.
    Leg2Ready,
    /// Second braid leg holds its route.
    Leg2Held,
    /// Completed.
    Done,
}

impl OpState {
    pub(crate) fn started(self) -> bool {
        !matches!(self, OpState::Blocked | OpState::Ready)
    }
}

/// Schedules `circuit` on the tiled double-defect architecture.
///
/// Braids are simulated as circuit-switched messages: each braid leg
/// atomically claims a route of routers and links on the mesh, holds it
/// for `d` stabilization cycles, and releases it. Routing escalates from
/// dimension-ordered XY to YX to a fully adaptive search as a braid
/// starves, and braids that starve past [`BraidConfig::drop_timeout`]
/// are dropped and re-injected — the paper's forward-progress
/// mechanisms, which are safe precisely because the resulting schedule
/// is *static* (replayed verbatim on the machine, Section 6.1).
///
/// This entry point runs the event-driven engine on a pristine mesh
/// with the zero-cost [`NoTrace`] sink: no events are recorded and
/// route buffers are recycled, so it is the fastest way to obtain a
/// [`BraidSchedule`]. [`schedule_with`] is the same engine with a defect
/// map and a trace sink. The engine is guaranteed bit-identical to the
/// retained naive reference ([`crate::schedule_reference`]); the
/// `scq-bench` equivalence suite enforces this across every policy.
///
/// # Errors
///
/// Returns [`ScheduleError::LayoutMismatch`] if `layout` does not place
/// every circuit qubit, and [`ScheduleError::CycleLimitExceeded`] if the
/// simulation passes [`BraidConfig::max_cycles`].
///
/// # Panics
///
/// Panics if `dag` was not built from `circuit`.
pub fn schedule(
    circuit: &Circuit,
    dag: &DependencyDag,
    layout: &Layout,
    config: &BraidConfig,
) -> Result<BraidSchedule, ScheduleError> {
    schedule_with(circuit, dag, layout, config, None, &mut NoTrace)
}

impl EventCollector {
    /// Assembles the [`BraidTrace`] of a [`schedule_with`] run that
    /// recorded into this collector — the static, replayable schedule
    /// artifact with every braid leg's route and open/close cycles,
    /// which scq-verify's `certify_braid_trace` proves conflict-free.
    /// Its header is the [`BraidMachine`] mesh of `layout`.
    pub fn into_trace(self, layout: &Layout, schedule: &BraidSchedule) -> BraidTrace {
        let (mesh_width, mesh_height) = BraidMachine::layout_dims(layout);
        BraidTrace {
            mesh_width,
            mesh_height,
            cycles: schedule.cycles,
            events: self.events,
        }
    }
}

/// Mutable simulation state shared by the release and issue phases.
struct Engine {
    mesh: Mesh,
    state: Vec<OpState>,
    fail_count: Vec<u32>,
    held_paths: Vec<Option<Path>>,
    /// (time, op, is_final_release), min-ordered: the reference
    /// engine's release heap, at most one entry per in-flight op.
    releases: BinaryHeap<Reverse<(u64, u32, bool)>>,
    factory_free_at: Vec<u64>,
    stats: BraidSchedule,
    /// Recycled route buffers: refilled by the sink on release, drained
    /// by issue attempts, so steady-state routing allocates nothing.
    path_pool: Vec<Path>,
    route_scratch: RouteScratch,
}

/// Immutable per-run context for issue attempts.
struct IssueEnv<'a> {
    circuit: &'a Circuit,
    config: &'a BraidConfig,
    factories: &'a [Coord],
    /// Router anchor of each qubit's tile.
    anchors: &'a [Coord],
    /// Route hold time in cycles (`d + 1`).
    hold: u64,
    /// On a defect-laden mesh: per T-gate qubit, which live factories
    /// have a defect-free route to it (empty rows for non-T qubits;
    /// empty outer slice on a pristine mesh — no filtering).
    factory_reach: &'a [Vec<bool>],
}

impl Engine {
    /// The one failed-claim bookkeeping rule, shared by the pruned and
    /// walked failure paths — the bit-identical-to-reference guarantee
    /// depends on both paths escalating and dropping identically.
    fn record_failed_attempt(&mut self, op: usize, config: &BraidConfig) {
        self.fail_count[op] += 1;
        if self.fail_count[op] > config.drop_timeout {
            // Drop and re-inject onto the last YX rung: the next attempt
            // walks YX; only the one after can route adaptively.
            self.stats.drops += 1;
            self.fail_count[op] = 2 * config.route_timeout;
        }
    }

    /// Attempts to issue `leg` of `op` at time `t`. Semantics are
    /// bit-for-bit those of the naive reference: the same escalation
    /// ladder, the same failure accounting, the same drop rule — only
    /// the route materialization is fused and allocation-free.
    fn try_issue(
        &mut self,
        env: &IssueEnv<'_>,
        sink: &mut impl TraceSink,
        op: usize,
        leg: u8,
        t: u64,
    ) -> bool {
        let inst = &env.circuit.instructions()[op];
        let gate = inst.gate();
        let local = !gate.is_two_qubit()
            && (!gate.needs_magic_state() || env.config.t_gate_model != TGateModel::FactoryBraids);
        if local {
            self.state[op] = OpState::Running;
            self.releases.push(Reverse((t + 1, op as u32, true)));
            return true;
        }
        // Determine endpoints.
        let (src, dst, factory_idx) = if gate.is_two_qubit() {
            let qs = inst.qubits();
            (
                env.anchors[qs[0].raw() as usize],
                env.anchors[qs[1].raw() as usize],
                None,
            )
        } else {
            // T gate from the nearest available factory.
            let q = inst.qubits()[0].raw() as usize;
            let target = env.anchors[q];
            let mut best: Option<(u32, usize)> = None;
            for (fi, &site) in env.factories.iter().enumerate() {
                if self.factory_free_at[fi] > t {
                    continue;
                }
                // On a cut mesh, skip factories the defects wall off
                // from this target — claims against them can never
                // succeed.
                if !env.factory_reach.is_empty() && !env.factory_reach[q][fi] {
                    continue;
                }
                let dist = site.manhattan(target);
                if best.map(|(bd, _)| dist < bd).unwrap_or(true) {
                    best = Some((dist, fi));
                }
            }
            match best {
                Some((_, fi)) => (env.factories[fi], target, Some(fi)),
                None => {
                    self.fail_count[op] += 1;
                    return false;
                }
            }
        };
        // Route selection escalates with starvation. The fused
        // claim-walks check occupancy in place and only materialize a
        // path (into a pooled buffer) on success.
        let attempts = self.fail_count[op];
        let owner = op as u32;
        // Claim-walk pruning via the mesh occupancy bitboards: each
        // routing mode has a probe (a claimed router on the
        // dimension-ordered corridor, or no free route at all for
        // adaptive) that proves the claim below must fail for an owner
        // holding no mesh resources — which this op is: paths release
        // before ops re-enter the ready sets. The adaptive probe is
        // exact, so no adaptive search below ever fails, and the search
        // answers for this op too. The bookkeeping
        // is exactly that of a walked-and-failed claim — adaptive
        // attempts still count, the failure counter still escalates — so
        // schedules stay bit-identical to the unpruned reference; only
        // the walk or search is skipped. Under contention braids
        // commonly cross foreign corridors, so this is the common case.
        debug_assert!(
            self.held_paths[op].is_none(),
            "issuing op must hold no mesh resources"
        );
        let adaptive = attempts > 2 * env.config.route_timeout;
        let certainly_blocked = if attempts <= env.config.route_timeout {
            self.mesh.xy_certainly_blocked(src, dst)
        } else if !adaptive {
            self.mesh.yx_certainly_blocked(src, dst)
        } else {
            self.mesh
                .route_certainly_blocked(src, dst, &mut self.route_scratch)
        };
        if certainly_blocked {
            if adaptive {
                self.stats.adaptive_routes += 1;
            }
            self.record_failed_attempt(op, env.config);
            return false;
        }
        let mut path = self.path_pool.pop().unwrap_or_default();
        let claimed = if attempts <= env.config.route_timeout {
            self.mesh.claim_route_xy_into(src, dst, owner, &mut path)
        } else if !adaptive {
            self.mesh.claim_route_yx_into(src, dst, owner, &mut path)
        } else {
            self.stats.adaptive_routes += 1;
            let scratch = &mut self.route_scratch;
            let found = self
                .mesh
                .claim_route_adaptive_into(src, dst, owner, scratch, &mut path);
            if found {
                sink.searched(&path, scratch.expanded());
            }
            found
        };
        if claimed {
            self.stats.braids_placed += 1;
            self.stats.total_braid_hops += path.len_hops() as u64;
            self.held_paths[op] = Some(path);
            self.fail_count[op] = 0;
            if let Some(fi) = factory_idx {
                self.factory_free_at[fi] = t + u64::from(env.config.magic_production_cycles);
            }
            let is_final = leg == 2 || !gate.is_two_qubit();
            self.releases
                .push(Reverse((t + env.hold, op as u32, is_final)));
            self.state[op] = if leg == 1 && gate.is_two_qubit() {
                OpState::Leg1Held
            } else {
                OpState::Leg2Held
            };
            true
        } else {
            self.path_pool.push(path);
            self.record_failed_attempt(op, env.config);
            false
        }
    }
}

/// The event-driven scheduling engine: [`schedule`] with an optional
/// defect map and a caller-chosen [`TraceSink`].
///
/// With `defects`, braids route around the map's dead routers and links
/// (the mesh holds them permanently claimed), dead factory sites are
/// skipped, and T gates only consider factories with a live route to
/// their target. The map must be built on the router-resolution
/// dimensions of the layout's [`BraidMachine`]; an empty map is treated
/// as `None`, so it schedules bit-identically to the pristine mesh.
///
/// The sink decides what is recorded: [`NoTrace`] keeps the run
/// monomorphized on the zero-cost path, while an [`EventCollector`]
/// keeps every closed leg for [`EventCollector::into_trace`]. A sink
/// may also count the adaptive searches through [`TraceSink::searched`].
///
/// Four mechanisms make this the fast path while preserving
/// bit-identical schedules versus [`crate::schedule_reference`]:
///
/// 1. **Incremental ready-sets.** Operations enter the `ready` /
///    `leg2_ready` sets exactly when their state transitions (in-degree
///    hitting zero, first leg releasing), so the per-cycle issue phase
///    touches only issuable candidates instead of rescanning all `n`
///    op states. Stale entries (ops that issued) are compacted out on
///    the next use. The candidate buffer is reused across cycles.
/// 2. **Event-driven time advance.** A cycle whose issue phase made
///    *zero* attempts cannot change any scheduler state until the next
///    release fires (failure counters only advance on attempts, and no
///    ready T gate means factory availability is irrelevant), so `t`
///    jumps straight to the release heap's next wake time. Nothing else
///    advances: the mesh utilization is a closed form of the finished
///    schedule's counts ([`BraidSchedule::mesh_utilization`]). Cycles
///    with a failed attempt still step one-by-one — starvation
///    escalation is counted per cycle and is part of the schedule
///    semantics.
/// 3. **Allocation-free routing.** Dimension-ordered attempts use the
///    fused [`Mesh::claim_route_xy_into`] walks (no route object on
///    failure). Adaptive attempts, flood and search, reuse one
///    [`RouteScratch`]: the search sweeps the free-router and free-link
///    bitboards one f-level at a time, a few word operations per row,
///    and [`Mesh::claim_route_adaptive_into`] claims the route it finds
///    without a second walk, since an issuing op holds nothing the
///    route could cross. Successful routes land in pooled buffers that
///    the sink returns on release.
/// 4. **Claim-walk pruning.** Before any walk, each attempt consults
///    the mesh's bitboard congestion probe for its routing mode
///    ([`Mesh::xy_certainly_blocked`] / [`Mesh::yx_certainly_blocked`] /
///    [`Mesh::route_certainly_blocked`]): a claimed router on the
///    dimension-ordered corridor, or no free route at all, dooms the
///    claim for an owner holding nothing — which an issuing op always
///    is. The adaptive probe is exact, a bit-parallel flood of the free
///    region, so an adaptive search runs only when it will find a route.
///    Pruned attempts keep the exact bookkeeping of a walked failure —
///    no walk, same schedule.
///
/// # Errors
///
/// As [`schedule`], plus [`ScheduleError::DeadAnchor`] when a qubit some
/// instruction uses sits on a dead anchor router (unused qubits may), and
/// [`ScheduleError::Unroutable`] when the map does not fit: its
/// dimensions differ from the [`BraidMachine`] mesh
/// ([`CommError::DefectMapMismatch`]), or the defects cut the mesh: a
/// two-qubit pair has no defect-free route, a T-gate target is
/// unreachable from every live factory, or all factory sites died.
///
/// # Panics
///
/// Panics if `dag` was not built from `circuit`.
#[allow(clippy::too_many_lines)]
pub fn schedule_with(
    circuit: &Circuit,
    dag: &DependencyDag,
    layout: &Layout,
    config: &BraidConfig,
    defects: Option<&DefectMap>,
    sink: &mut impl TraceSink,
) -> Result<BraidSchedule, ScheduleError> {
    let defects = defects.filter(|m| !m.is_empty());
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
    if n == 0 {
        stats.critical_path_cycles = 0;
        return Ok(stats);
    }

    let mut machine = BraidMachine::new(layout, config.factory_count);
    let (mesh_w, mesh_h) = (machine.topology.width(), machine.topology.height());
    let anchors = &machine.anchors;

    // Defect admission: prove up front that the circuit is routable at
    // all on the cut mesh (dead anchors, disconnected pairs, dead or
    // unreachable factories), so a doomed run fails structured and fast
    // instead of starving until the cycle limit.
    let mut factory_reach: Vec<Vec<bool>> = Vec::new();
    if let Some(map) = defects {
        if map.topology() != machine.topology {
            return Err(CommError::DefectMapMismatch {
                map: (map.topology().width(), map.topology().height()),
                expected: (mesh_w, mesh_h),
            }
            .into());
        }
        // Only qubits that some instruction uses need a live anchor: an
        // unused one never opens a braid.
        let mut used = vec![false; anchors.len()];
        for inst in circuit.instructions() {
            for q in inst.qubits() {
                used[q.raw() as usize] = true;
            }
        }
        if let Some(q) = (0..anchors.len()).find(|&q| used[q] && map.node_dead(anchors[q])) {
            return Err(ScheduleError::DeadAnchor {
                qubit: q as u32,
                tile: layout.tile(q as u32),
                router: anchors[q],
            });
        }
        let full_factory_count = machine.factories.len();
        machine.factories.retain(|&f| !map.node_dead(f));
        let factories = &machine.factories;
        let wants_factory_braids = config.t_gate_model == TGateModel::FactoryBraids
            && circuit
                .instructions()
                .iter()
                .any(|i| i.gate().needs_magic_state());
        if wants_factory_braids && factories.is_empty() {
            return Err(CommError::NoLiveFactories {
                dead: full_factory_count,
            }
            .into());
        }
        let mut checked_pairs = std::collections::BTreeSet::new();
        factory_reach = vec![Vec::new(); circuit.num_qubits() as usize];
        for inst in circuit.instructions() {
            let gate = inst.gate();
            if gate.is_two_qubit() {
                let qs = inst.qubits();
                let (a, b) = (qs[0].raw(), qs[1].raw());
                if checked_pairs.insert((a.min(b), a.max(b))) {
                    let (src, dst) = (anchors[a as usize], anchors[b as usize]);
                    if map.route_avoiding(src, dst).is_none() {
                        return Err(CommError::Unroutable { src, dst }.into());
                    }
                }
            } else if gate.needs_magic_state() && wants_factory_braids {
                let q = inst.qubits()[0].raw() as usize;
                if !factory_reach[q].is_empty() {
                    continue;
                }
                let target = anchors[q];
                let reach: Vec<bool> = factories
                    .iter()
                    .map(|&f| map.route_avoiding(f, target).is_some())
                    .collect();
                if !reach.iter().any(|&r| r) {
                    let src = factories
                        .iter()
                        .copied()
                        .min_by_key(|f| f.manhattan(target))
                        .expect("live factories checked above");
                    return Err(CommError::Unroutable { src, dst: target }.into());
                }
                factory_reach[q] = reach;
            }
        }
    }

    let mut eng = Engine {
        mesh: match defects {
            Some(map) => Mesh::with_defects(mesh_w, mesh_h, map),
            None => Mesh::new(mesh_w, mesh_h),
        },
        state: vec![OpState::Blocked; n],
        fail_count: vec![0u32; n],
        held_paths: vec![None; n],
        releases: BinaryHeap::new(),
        factory_free_at: vec![0; machine.factories.len()],
        stats,
        path_pool: Vec::new(),
        route_scratch: RouteScratch::new(),
    };

    // Incremental ready-sets: ops enter on state transitions and are
    // compacted lazily, replacing the per-cycle full state scan. Policy
    // 0 walks its issue pointer directly and never consults them, so it
    // skips the bookkeeping entirely.
    let track_sets = config.policy != Policy::P0;
    let mut ready: Vec<u32> = Vec::new();
    let mut leg2_ready: Vec<u32> = Vec::new();
    let mut remaining = vec![0u32; n];
    for (i, rem) in remaining.iter_mut().enumerate() {
        *rem = dag.preds(i).len() as u32;
        if *rem == 0 {
            eng.state[i] = OpState::Ready;
            if track_sets {
                ready.push(i as u32);
            }
        }
    }
    let mut done_count = 0usize;

    // Per-op priority inputs, precomputed once (the reference recomputes
    // them per cycle; the values are identical by construction).
    let criticality: Vec<u32> = (0..n).map(|i| dag.criticality(i)).collect();
    let braid_length: Vec<u32> = circuit
        .instructions()
        .iter()
        .map(|inst| {
            if inst.gate().is_two_qubit() {
                let qs = inst.qubits();
                anchors[qs[0].raw() as usize].manhattan(anchors[qs[1].raw() as usize])
            } else {
                0
            }
        })
        .collect();

    // Issue pointer for the strict in-order policy (0).
    let mut next_start = 0usize;
    // Lowest still-blocked op index, the issue barrier of the in-order
    // interleaving policies (1-2); `n` once nothing is blocked. Every op
    // that is ever Blocked is Blocked from the start and never re-enters
    // it, so the barrier only moves forward, and resuming the
    // reference's "stop at the first blocked op" walk where it last
    // stopped is exact.
    let mut first_blocked = 0usize;
    // Criticality threshold for Policy 6's split length ordering: half
    // the maximum criticality in the program.
    let crit_threshold = criticality.iter().copied().max().unwrap_or(0).div_ceil(2);

    let env = IssueEnv {
        circuit,
        config,
        factories: &machine.factories,
        anchors,
        hold: u64::from(d) + 1,
        factory_reach: &factory_reach,
    };

    // Reusable per-cycle candidate buffer.
    let mut candidates: Vec<Candidate> = Vec::new();

    let hold = env.hold;
    let mut t: u64 = 0;
    loop {
        if t > config.max_cycles {
            return Err(ScheduleError::CycleLimitExceeded {
                limit: config.max_cycles,
            });
        }

        // ---- Release phase: closings are timer-driven. ----
        while let Some(&Reverse((rt, op, is_final))) = eng.releases.peek() {
            if rt > t {
                break;
            }
            eng.releases.pop();
            let op = op as usize;
            if let Some(path) = eng.held_paths[op].take() {
                eng.mesh.release(&path, op as u32);
                let two_qubit = circuit.instructions()[op].gate().is_two_qubit();
                let leg = if is_final && two_qubit { 2 } else { 1 };
                if let Some(buf) = sink.record(op as u32, leg, rt - hold, rt, path) {
                    eng.path_pool.push(buf);
                }
            }
            if is_final {
                eng.state[op] = OpState::Done;
                done_count += 1;
                for &s in dag.succs(op) {
                    let s = s as usize;
                    remaining[s] -= 1;
                    if remaining[s] == 0 {
                        eng.state[s] = OpState::Ready;
                        if track_sets {
                            ready.push(s as u32);
                        }
                    }
                }
            } else {
                eng.state[op] = OpState::Leg2Ready;
                if track_sets {
                    leg2_ready.push(op as u32);
                }
            }
        }
        if done_count == n {
            eng.stats.cycles = t;
            break;
        }

        // ---- Issue phase. ----
        // `attempts` counts try_issue calls: a cycle with zero attempts
        // is a provable no-op, enabling the event jump below.
        let mut attempts = 0usize;
        match config.policy {
            Policy::P0 => {
                // Strict program order for operations *and* events; the
                // pointer walk is already O(issued), no sets needed.
                loop {
                    while next_start < n && eng.state[next_start].started() {
                        // Ops whose *last* event has issued are passed;
                        // an op holding its first leg still gates the
                        // pointer (its leg-2 event is next in order).
                        match eng.state[next_start] {
                            OpState::Running | OpState::Leg2Held | OpState::Done => next_start += 1,
                            _ => break,
                        }
                    }
                    if next_start >= n {
                        break;
                    }
                    let op = next_start;
                    let issued = match eng.state[op] {
                        OpState::Ready => {
                            attempts += 1;
                            eng.try_issue(&env, sink, op, 1, t)
                        }
                        OpState::Leg2Ready => {
                            attempts += 1;
                            eng.try_issue(&env, sink, op, 2, t)
                        }
                        _ => false,
                    };
                    if !issued {
                        break;
                    }
                }
            }
            Policy::P1 | Policy::P2 => {
                // Events interleave: all pending second legs may open,
                // in program order.
                leg2_ready.retain(|&op| eng.state[op as usize] == OpState::Leg2Ready);
                leg2_ready.sort_unstable();
                for &op in &leg2_ready {
                    attempts += 1;
                    let _ = eng.try_issue(&env, sink, op as usize, 2, t);
                }
                // Operations start in program order; stop at the first
                // blocked or unplaceable op.
                while first_blocked < n && eng.state[first_blocked] != OpState::Blocked {
                    first_blocked += 1;
                }
                ready.retain(|&op| eng.state[op as usize] == OpState::Ready);
                ready.sort_unstable();
                for &op in &ready {
                    if op as usize >= first_blocked {
                        break;
                    }
                    attempts += 1;
                    if !eng.try_issue(&env, sink, op as usize, 1, t) {
                        break;
                    }
                }
            }
            _ => {
                // Policies 3-6: free-for-all ordered by the priority
                // comparator; place as many braids as possible. The
                // comparator ends in a program-order tie-break, so it is
                // a total order and the ready-sets need no pre-sorting.
                ready.retain(|&op| eng.state[op as usize] == OpState::Ready);
                leg2_ready.retain(|&op| eng.state[op as usize] == OpState::Leg2Ready);
                candidates.clear();
                for (leg, set) in [(1u8, &ready), (2u8, &leg2_ready)] {
                    for &op in set.iter() {
                        candidates.push(Candidate {
                            op,
                            leg,
                            criticality: criticality[op as usize],
                            length: braid_length[op as usize],
                        });
                    }
                }
                sort_candidates(config.policy, &mut candidates, crit_threshold);
                for c in &candidates {
                    attempts += 1;
                    let _ = eng.try_issue(&env, sink, c.op as usize, c.leg, t);
                }
            }
        }

        if attempts == 0 {
            // Nothing was issuable this cycle, so no scheduler state can
            // change before the next release fires: jump there directly
            // and account the skipped idle cycles in bulk. (When a T
            // gate is waiting on a factory it shows up as a failed
            // attempt, so factory wake times never gate this jump.)
            t = eng
                .releases
                .peek()
                .map_or(t + 1, |&Reverse((rt, _, _))| rt.max(t + 1));
        } else {
            t += 1;
        }
    }

    eng.stats.mesh_utilization = machine.utilization(&eng.stats, d);
    Ok(eng.stats)
}

/// Convenience wrapper: builds the DAG, places the qubits with the
/// layout strategy the policy pairs with, and schedules.
///
/// # Errors
///
/// As [`schedule`].
pub fn schedule_circuit(
    circuit: &Circuit,
    config: &BraidConfig,
) -> Result<BraidSchedule, ScheduleError> {
    let dag = DependencyDag::from_circuit(circuit);
    let graph = scq_ir::InteractionGraph::from_circuit(circuit);
    let layout = scq_layout::place(&graph, config.policy.layout_strategy());
    schedule(circuit, &dag, &layout, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scq_ir::InteractionGraph;
    use scq_layout::{place, LayoutStrategy};

    fn run(circuit: &Circuit, policy: Policy, d: u32) -> BraidSchedule {
        let config = BraidConfig {
            policy,
            code_distance: d,
            ..Default::default()
        };
        schedule_circuit(circuit, &config).expect("schedule succeeds")
    }

    fn single_cnot() -> Circuit {
        let mut b = Circuit::builder("one-cnot", 2);
        b.cnot(0, 1);
        b.finish()
    }

    #[test]
    fn empty_circuit_is_zero_cycles() {
        let c = Circuit::builder("empty", 4).finish();
        let s = run(&c, Policy::P6, 5);
        assert_eq!(s.cycles, 0);
        assert_eq!(s.schedule_to_cp_ratio(), 1.0);
    }

    #[test]
    fn uncontended_cnot_matches_critical_path() {
        for d in [3u32, 5, 9] {
            let s = run(&single_cnot(), Policy::P6, d);
            assert_eq!(s.critical_path_cycles, u64::from(2 * (d + 1)));
            assert_eq!(s.cycles, s.critical_path_cycles, "d={d}");
            assert_eq!(s.braids_placed, 2);
        }
    }

    #[test]
    fn local_ops_cost_one_cycle() {
        let mut b = Circuit::builder("locals", 1);
        b.h(0).s(0).z(0);
        let s = run(&b.finish(), Policy::P6, 5);
        assert_eq!(s.cycles, 3);
        assert_eq!(s.braids_placed, 0);
    }

    #[test]
    fn t_gate_braids_from_factory() {
        let mut b = Circuit::builder("t", 1);
        b.t(0);
        let s = run(&b.finish(), Policy::P6, 5);
        assert_eq!(s.braids_placed, 1);
        assert_eq!(s.critical_path_cycles, 6);
        // Uncontended: schedule equals CP.
        assert_eq!(s.cycles, 6);
    }

    #[test]
    fn buffered_t_gates_are_local() {
        let mut b = Circuit::builder("t", 1);
        b.t(0);
        let config = BraidConfig {
            code_distance: 5,
            t_gate_model: TGateModel::LocalBuffered,
            ..Default::default()
        };
        let s = schedule_circuit(&b.finish(), &config).unwrap();
        assert_eq!(s.braids_placed, 0);
        assert_eq!(s.cycles, 1);
    }

    #[test]
    fn parallel_disjoint_cnots_overlap() {
        // Two CNOTs on disjoint qubit pairs: with any interleaving
        // policy they run concurrently.
        let mut b = Circuit::builder("par", 4);
        b.cnot(0, 1).cnot(2, 3);
        let c = b.finish();
        let s = run(&c, Policy::P6, 5);
        assert_eq!(s.critical_path_cycles, 12);
        assert!(
            s.cycles <= s.critical_path_cycles + 2,
            "parallel cnots took {} cycles",
            s.cycles
        );
    }

    #[test]
    fn policy0_serializes_events() {
        let mut b = Circuit::builder("par", 4);
        b.cnot(0, 1).cnot(2, 3);
        let s = run(&b.finish(), Policy::P0, 5);
        // Strict event order: the second op's first leg cannot open
        // until the first op's second leg has opened (one leg = d+1 = 6
        // cycles), even though the pairs are disjoint. CP is 12.
        assert_eq!(s.critical_path_cycles, 12);
        assert!(
            s.cycles >= s.critical_path_cycles + 6,
            "policy 0 overlapped fully: {} cycles",
            s.cycles
        );
        // Policy 6 runs the two ops fully in parallel.
        let p6 = run(
            &{
                let mut b = Circuit::builder("par", 4);
                b.cnot(0, 1).cnot(2, 3);
                b.finish()
            },
            Policy::P6,
            5,
        );
        assert!(p6.cycles < s.cycles);
    }

    #[test]
    fn dependent_cnots_serialize_under_all_policies() {
        let mut b = Circuit::builder("chain", 3);
        b.cnot(0, 1).cnot(1, 2);
        let c = b.finish();
        for policy in Policy::ALL {
            let s = run(&c, policy, 3);
            assert!(
                s.cycles >= s.critical_path_cycles,
                "{policy}: {} < CP {}",
                s.cycles,
                s.critical_path_cycles
            );
        }
    }

    #[test]
    fn schedule_never_beats_critical_path() {
        let c = contended_circuit();
        for policy in Policy::ALL {
            let s = run(&c, policy, 3);
            assert!(s.cycles >= s.critical_path_cycles, "{policy}");
        }
    }

    /// Many braids across the same region: heavy contention.
    fn contended_circuit() -> Circuit {
        let n = 16;
        let mut b = Circuit::builder("contended", n);
        for i in 0..n / 2 {
            b.cnot(i, n - 1 - i);
        }
        for i in 0..n / 2 {
            b.cnot(i, (i + n / 2) % n);
        }
        b.finish()
    }

    #[test]
    fn better_policies_do_not_hurt_contended_runs() {
        let c = contended_circuit();
        let p0 = run(&c, Policy::P0, 3);
        let p6 = run(&c, Policy::P6, 3);
        assert!(
            p6.cycles <= p0.cycles,
            "P6 ({}) slower than P0 ({})",
            p6.cycles,
            p0.cycles
        );
    }

    #[test]
    fn utilization_is_a_fraction() {
        let s = run(&contended_circuit(), Policy::P6, 3);
        assert!(s.mesh_utilization > 0.0 && s.mesh_utilization < 1.0);
    }

    #[test]
    fn cycle_limit_is_enforced() {
        let config = BraidConfig {
            max_cycles: 3,
            ..Default::default()
        };
        let err = schedule_circuit(&contended_circuit(), &config).unwrap_err();
        assert!(matches!(
            err,
            ScheduleError::CycleLimitExceeded { limit: 3 }
        ));
        assert!(err.to_string().contains("3-cycle"));
    }

    #[test]
    fn layout_mismatch_is_detected() {
        let small = Circuit::builder("small", 2).finish();
        let g = InteractionGraph::from_circuit(&small);
        let layout = place(&g, LayoutStrategy::Linear);
        let big = single_cnot(); // 2 qubits, fits
        assert!(schedule(
            &big,
            &DependencyDag::from_circuit(&big),
            &layout,
            &BraidConfig::default()
        )
        .is_ok());
        let mut bigger = Circuit::builder("big", 5);
        bigger.cnot(0, 4);
        let bigger = bigger.finish();
        let err = schedule(
            &bigger,
            &DependencyDag::from_circuit(&bigger),
            &layout,
            &BraidConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ScheduleError::LayoutMismatch { .. }));
    }

    #[test]
    fn op_latency_model() {
        assert_eq!(
            op_latency_cycles(Gate::Cnot, 5, TGateModel::FactoryBraids),
            12
        );
        assert_eq!(op_latency_cycles(Gate::T, 5, TGateModel::FactoryBraids), 6);
        assert_eq!(op_latency_cycles(Gate::T, 5, TGateModel::LocalBuffered), 1);
        assert_eq!(op_latency_cycles(Gate::H, 5, TGateModel::FactoryBraids), 1);
        assert_eq!(
            op_latency_cycles(Gate::MeasZ, 5, TGateModel::FactoryBraids),
            1
        );
    }

    #[test]
    fn stats_display() {
        let s = run(&single_cnot(), Policy::P6, 3);
        let text = s.to_string();
        assert!(text.contains("cycles"), "{text}");
        assert!(text.contains("ratio"), "{text}");
    }

    fn layout_for(circuit: &Circuit, policy: Policy) -> Layout {
        let g = InteractionGraph::from_circuit(circuit);
        place(&g, policy.layout_strategy())
    }

    #[test]
    fn empty_defect_map_schedules_bit_identically() {
        let c = contended_circuit();
        let dag = DependencyDag::from_circuit(&c);
        let config = BraidConfig {
            code_distance: 3,
            ..Default::default()
        };
        let layout = layout_for(&c, config.policy);
        let (mw, mh) = BraidMachine::grid_dims(c.num_qubits());
        let map = DefectMap::empty(scq_mesh::Topology::new(mw, mh));
        let clean = schedule(&c, &dag, &layout, &config).unwrap();
        let defected = on_defects(&c, &dag, &layout, &config, &map).unwrap();
        assert_eq!(clean, defected);
    }

    fn on_defects(
        c: &Circuit,
        dag: &DependencyDag,
        layout: &Layout,
        config: &BraidConfig,
        map: &DefectMap,
    ) -> Result<BraidSchedule, ScheduleError> {
        schedule_with(c, dag, layout, config, Some(map), &mut NoTrace)
    }

    #[test]
    fn braids_route_around_defects_and_the_schedule_stretches() {
        let c = single_cnot();
        let dag = DependencyDag::from_circuit(&c);
        let config = BraidConfig {
            code_distance: 3,
            ..Default::default()
        };
        let layout = layout_for(&c, config.policy);
        let (mw, mh) = BraidMachine::grid_dims(c.num_qubits());
        // Kill a router on the direct corridor between the two anchors
        // (anchors sit at odd coordinates; the XY corridor runs along
        // the anchor row).
        let map = DefectMap::from_text(&format!("dims {mw} {mh}\nnode 2 1\n")).unwrap();
        let clean = schedule(&c, &dag, &layout, &config).unwrap();
        let defected = on_defects(&c, &dag, &layout, &config, &map).unwrap();
        assert_eq!(defected.total_ops, clean.total_ops);
        assert!(
            defected.cycles >= clean.cycles,
            "defected {} < clean {}",
            defected.cycles,
            clean.cycles
        );
        // The traced variant agrees and its routes avoid the dead node.
        let mut sink = EventCollector::default();
        let stats = schedule_with(&c, &dag, &layout, &config, Some(&map), &mut sink).unwrap();
        let trace = sink.into_trace(&layout, &stats);
        assert_eq!(stats, defected);
        for ev in &trace.events {
            for &n in ev.path.nodes() {
                assert!(!map.node_dead(n), "braid route crosses dead node {n}");
            }
        }
    }

    #[test]
    fn fully_cut_tile_is_unroutable_not_a_hang() {
        let c = single_cnot();
        let dag = DependencyDag::from_circuit(&c);
        let config = BraidConfig {
            code_distance: 3,
            ..Default::default()
        };
        let layout = layout_for(&c, config.policy);
        let (mw, mh) = BraidMachine::grid_dims(c.num_qubits());
        // Wall off the second qubit's anchor column entirely.
        let cut_x = 2;
        let mut text = format!("dims {mw} {mh}\n");
        for y in 0..mh {
            text.push_str(&format!("node {cut_x} {y}\n"));
        }
        let map = DefectMap::from_text(&text).unwrap();
        let err = on_defects(&c, &dag, &layout, &config, &map).unwrap_err();
        match err {
            ScheduleError::Unroutable(CommError::Unroutable { src, dst }) => {
                assert_ne!(src, dst, "a two-qubit pair cut reports both endpoints");
            }
            other => panic!("expected Unroutable, got {other:?}"),
        }
        assert!(err.to_string().contains("no defect-free route"), "{err}");
    }

    #[test]
    fn dead_anchor_of_a_used_qubit_is_reported_as_a_dead_anchor() {
        let c = single_cnot();
        let dag = DependencyDag::from_circuit(&c);
        let config = BraidConfig::default();
        let layout = layout_for(&c, config.policy);
        let (mw, mh) = BraidMachine::grid_dims(c.num_qubits());
        // Tile (0, 0) anchors at router (1, 1).
        let map = DefectMap::from_text(&format!("dims {mw} {mh}\nnode 1 1\n")).unwrap();
        let err = on_defects(&c, &dag, &layout, &config, &map).unwrap_err();
        let qubit = (0..2)
            .find(|&q| layout.tile(q) == Coord::new(0, 0))
            .unwrap();
        assert_eq!(
            err,
            ScheduleError::DeadAnchor {
                qubit,
                tile: Coord::new(0, 0),
                router: Coord::new(1, 1),
            }
        );
        assert_eq!(
            err.to_string(),
            format!("anchor of q{qubit} sits on a dead node (router (1, 1) of tile (0, 0))")
        );
    }

    #[test]
    fn dead_anchor_of_an_unused_qubit_is_harmless() {
        // Three declared qubits, and no gate touches q2.
        let mut b = Circuit::builder("unused", 3);
        b.cnot(0, 1).t(0);
        let c = b.finish();
        let dag = DependencyDag::from_circuit(&c);
        let config = BraidConfig::default();
        let layout = layout_for(&c, config.policy);
        let (mw, mh) = BraidMachine::grid_dims(c.num_qubits());
        let a = BraidMachine::new(&layout, None).anchors[2];
        let map = DefectMap::from_text(&format!("dims {mw} {mh}\nnode {} {}\n", a.x, a.y)).unwrap();
        let defected = on_defects(&c, &dag, &layout, &config, &map).unwrap();
        assert_eq!(defected.total_ops, 2);
    }

    #[test]
    fn all_dead_factories_fail_structurally_for_t_gates() {
        let mut b = Circuit::builder("t", 1);
        b.t(0);
        let c = b.finish();
        let dag = DependencyDag::from_circuit(&c);
        let config = BraidConfig::default();
        let layout = layout_for(&c, config.policy);
        let (mw, mh) = BraidMachine::grid_dims(c.num_qubits());
        // Factories sit on the top and bottom router rows: kill both.
        let mut text = format!("dims {mw} {mh}\n");
        for x in 0..mw {
            text.push_str(&format!("node {x} 0\nnode {x} {}\n", mh - 1));
        }
        let map = DefectMap::from_text(&text).unwrap();
        let err = on_defects(&c, &dag, &layout, &config, &map).unwrap_err();
        assert!(matches!(
            err,
            ScheduleError::Unroutable(CommError::NoLiveFactories { .. })
        ));
        // The same cut is harmless to a circuit without T gates.
        let cnot = single_cnot();
        let dag2 = DependencyDag::from_circuit(&cnot);
        let layout2 = layout_for(&cnot, config.policy);
        let (mw2, mh2) = BraidMachine::grid_dims(cnot.num_qubits());
        let mut text2 = format!("dims {mw2} {mh2}\n");
        for x in 0..mw2 {
            text2.push_str(&format!("node {x} 0\nnode {x} {}\n", mh2 - 1));
        }
        let map2 = DefectMap::from_text(&text2).unwrap();
        assert!(on_defects(&cnot, &dag2, &layout2, &config, &map2).is_ok());
    }
}
