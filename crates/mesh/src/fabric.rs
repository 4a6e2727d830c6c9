//! The packet-style communication fabric: in-flight messages with
//! per-link bandwidth, driven by an event queue that jumps idle gaps.
//!
//! Where [`Mesh`](crate::Mesh) models braids — circuit-switched
//! messages that claim an entire route atomically and can never be
//! buffered — [`Fabric`] models the planar machine's EPR distribution
//! (paper Section 8.1): an EPR half is a *packet* that traverses its
//! route one link at a time through swap chains. Each link has a finite
//! number of swap lanes ([`FabricConfig::link_capacity`]); a message
//! whose next link is saturated waits at its current router in FIFO
//! order and enters when a lane frees. Crossing one link takes
//! [`FabricConfig::hop_cycles`].
//!
//! The simulation is fully event-driven: every in-flight message keeps
//! a route cursor and a pending hop-completion event;
//! [`Fabric::run_to_completion`] processes events in `(time, message)`
//! order and jumps straight across idle stretches, exactly like the
//! braid engine's `tick_n` jumps — there is no per-cycle stepping
//! anywhere.
//!
//! The event structures follow the traffic. Every launch is known
//! before the run starts, so launches wait in one list that the run
//! sorts once; only in-flight events — hop completions and retry
//! wakeups, at most one per message in transit — go through a binary
//! heap, which stays shallow. The run pops the `(time, message)`
//! minimum of the two. Routes live in one node arena: a message is an
//! offset, a length and a cursor into it, not a heap-allocated
//! [`Path`].
//!
//! # Examples
//!
//! ```
//! use scq_mesh::{Coord, Fabric, FabricConfig, Topology};
//!
//! let topo = Topology::new(8, 8);
//! let mut fabric = Fabric::new(topo, FabricConfig::default());
//! let route = topo.route_xy(Coord::new(0, 0), Coord::new(5, 0));
//! let id = fabric.inject(&route, 10);
//! fabric.run_to_completion();
//! // 5 hops at 1 cycle each, launched at t = 10.
//! assert_eq!(fabric.arrival_time(id), Some(15));
//! ```

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::coord::{Coord, Path};
use crate::defect::DefectMap;
use crate::heatmap::LinkHeatmap;
use crate::topology::Topology;

/// Identifier of an in-flight message, assigned by [`Fabric::inject`]
/// in injection order.
pub type MsgId = u32;

/// Static parameters of the packet fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FabricConfig {
    /// Cycles for a message to cross one link (swap-chain speed).
    pub hop_cycles: u64,
    /// Messages that may traverse one link concurrently (swap lanes per
    /// tile boundary). Use [`FabricConfig::UNLIMITED`] for the
    /// contention-free flow model.
    pub link_capacity: u32,
}

impl FabricConfig {
    /// Sentinel capacity that disables link contention entirely — the
    /// configuration under which the fabric must reproduce the legacy
    /// flow-level EPR model exactly.
    pub const UNLIMITED: u32 = u32::MAX;

    /// A contention-free fabric with the given hop latency.
    pub fn unlimited(hop_cycles: u64) -> Self {
        FabricConfig {
            hop_cycles,
            link_capacity: Self::UNLIMITED,
        }
    }
}

impl Default for FabricConfig {
    /// One cycle per hop, four swap lanes per link.
    fn default() -> Self {
        FabricConfig {
            hop_cycles: 1,
            link_capacity: 4,
        }
    }
}

/// One link traversal attempt, recorded by a fabric with hop recording
/// enabled ([`Fabric::record_hops`]) — the replayable transit
/// transcript an independent certifier can audit for lane-capacity and
/// timing invariants without re-running the simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HopRecord {
    /// The message that attempted the hop.
    pub msg: MsgId,
    /// Router the hop departed from.
    pub from: Coord,
    /// Router the hop attempted to reach.
    pub to: Coord,
    /// Cycle the message claimed a swap lane on the link.
    pub enter: u64,
    /// Cycle the lane was released (`enter + hop_cycles`).
    pub exit: u64,
    /// Whether the hop failed on a flaky link. A failed hop still
    /// occupied its lane for the full duration; the message retries the
    /// same link after backoff.
    pub failed: bool,
}

/// Where a message is in its journey.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MsgState {
    /// Injected; the launch has not fired yet.
    Scheduled,
    /// Crossing `link`; a completion event is pending.
    Traversing { link: usize },
    /// Queued on `link` (saturated) since cycle `since`.
    Waiting { link: usize, since: u64 },
    /// A hop on a flaky link failed; backing off before re-attempting
    /// the same link from the same router.
    RetryWait,
    /// Delivered at cycle `at`.
    Arrived { at: u64 },
}

/// One message in the fabric: where its route sits in the node arena,
/// how far along it is, and what it is currently doing.
#[derive(Clone, Copy, Debug)]
struct InFlightMessage {
    /// Arena index of the route's first node.
    start: usize,
    /// Nodes on the route (hops + 1).
    len: u32,
    /// Index into the route of the router the message last departed
    /// (while traversing link `cursor -> cursor + 1`) or sits at (while
    /// waiting).
    cursor: u32,
    state: MsgState,
}

/// Aggregate fabric statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Messages injected.
    pub injected: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Link traversals completed.
    pub hops_completed: u64,
    /// Total cycles messages spent queued at saturated links — the
    /// contention the flow-level model cannot see.
    pub link_stall_cycles: u64,
    /// Maximum simultaneously in-flight messages (launched, not yet
    /// delivered).
    pub peak_in_flight: usize,
    /// Events processed (launches, hop completions, retry wakeups) —
    /// the denominator of events/sec at scale.
    pub events_processed: u64,
    /// Maximum pending events at any point: launches that have not
    /// fired plus in-flight events (hop completions and retry wakeups).
    pub peak_event_queue: usize,
    /// Hops that failed on a flaky link and were retried after backoff
    /// (always zero without a [`DefectMap`]; see
    /// [`Fabric::with_defects`]).
    pub transient_faults: u64,
}

/// Transient-fault machinery, present only on fabrics built through
/// [`Fabric::with_defects`] over a non-empty [`DefectMap`].
#[derive(Clone, Debug)]
struct FaultState {
    /// Seeded PRNG for per-hop failure draws, consumed in deterministic
    /// `(time, MsgId)` event order.
    rng: StdRng,
    /// The defect map: per-link flaky probabilities plus the dead
    /// nodes/links that [`Fabric::inject`] asserts routes avoid.
    defects: DefectMap,
    /// Consecutive failed attempts of each message's current hop.
    retries: Vec<u32>,
}

/// See [`Fabric::MAX_HOP_RETRIES`].
const MAX_HOP_RETRIES: u32 = 8;

/// A 2D packet fabric over a [`Topology`].
///
/// See the module docs at the top of this file for the model and its
/// event structures. Determinism: events are processed in `(time,
/// MsgId)` order and link wait-queues are FIFO, so identical injection
/// sequences always produce identical timelines.
#[derive(Clone, Debug)]
pub struct Fabric {
    topo: Topology,
    config: FabricConfig,
    /// Messages currently occupying each link.
    load: Vec<u32>,
    /// Accumulated busy-cycles per link (congestion heatmap data).
    link_busy: Vec<u64>,
    /// Accumulated stall-cycles per link (cycles messages spent queued
    /// waiting for one of its lanes).
    link_stalls: Vec<u64>,
    /// Transient faults per link (failed hops on flaky links).
    link_faults: Vec<u64>,
    /// Present only on fault-injected fabrics.
    fault_state: Option<FaultState>,
    /// Hop transcript, recorded only when [`Fabric::record_hops`] was
    /// called (`None` keeps the hot path allocation-free).
    hop_log: Option<Vec<HopRecord>>,
    /// FIFO wait queue per link.
    waiters: Vec<VecDeque<MsgId>>,
    msgs: Vec<InFlightMessage>,
    /// Every injected route, node by node, in injection order.
    nodes: Vec<Coord>,
    /// `(launch, id)` of every message whose launch has not fired.
    /// [`Fabric::run_to_completion`] sorts it latest first and pops the
    /// next launch off the end.
    launches: Vec<(u64, MsgId)>,
    /// In-flight events (hop completions and retry wakeups, at most one
    /// per launched message), min-ordered by `(time, id)`.
    events: BinaryHeap<Reverse<(u64, MsgId)>>,
    now: u64,
    in_flight: usize,
    stats: FabricStats,
}

impl Fabric {
    /// Creates an idle fabric.
    ///
    /// # Panics
    ///
    /// Panics if `config.link_capacity` is zero or `config.hop_cycles`
    /// is zero.
    pub fn new(topo: Topology, config: FabricConfig) -> Self {
        assert!(config.link_capacity > 0, "link capacity must be positive");
        assert!(config.hop_cycles > 0, "hop latency must be positive");
        Fabric {
            topo,
            config,
            load: vec![0; topo.num_links()],
            link_busy: vec![0; topo.num_links()],
            link_stalls: vec![0; topo.num_links()],
            link_faults: vec![0; topo.num_links()],
            fault_state: None,
            hop_log: None,
            waiters: vec![VecDeque::new(); topo.num_links()],
            msgs: Vec::new(),
            nodes: Vec::new(),
            launches: Vec::new(),
            events: BinaryHeap::new(),
            now: 0,
            in_flight: 0,
            stats: FabricStats::default(),
        }
    }

    /// Maximum consecutive failures of one hop before the traversal is
    /// forced through — modeling escalation to a slower, fully
    /// error-corrected retransmission so delivery always terminates.
    pub const MAX_HOP_RETRIES: u32 = MAX_HOP_RETRIES;

    /// Creates a fabric that injects transient faults on the defect
    /// map's flaky links.
    ///
    /// Dead nodes and links are not modeled here — routes are planned
    /// around them upstream (see [`DefectMap::route_avoiding`]), and
    /// [`Fabric::inject`] asserts every route steers clear of them.
    /// Each hop over a flaky link fails independently with the map's
    /// per-link probability; a failed hop still occupies its swap lane
    /// for the full `hop_cycles` (the entanglement was consumed), then
    /// the message backs off at its current router for
    /// `hop_cycles << min(retries - 1, 3)` cycles and re-attempts the
    /// same link, competing for a lane like any new arrival. After
    /// [`Fabric::MAX_HOP_RETRIES`] consecutive failures the hop is
    /// forced through. Failure draws come from a PRNG seeded with
    /// `seed` and are consumed in the deterministic `(time, MsgId)`
    /// event order, so identical injection sequences reproduce
    /// identical fault timelines on any machine.
    ///
    /// With an empty defect map this is exactly [`Fabric::new`]: no
    /// fault state is attached and no draws are made.
    ///
    /// # Panics
    ///
    /// Panics if the map's topology differs from `topo`, or on the same
    /// conditions as [`Fabric::new`].
    pub fn with_defects(
        topo: Topology,
        config: FabricConfig,
        defects: &DefectMap,
        seed: u64,
    ) -> Self {
        assert!(
            defects.topology() == topo,
            "defect map is {}x{} but the fabric is {}x{}",
            defects.topology().width(),
            defects.topology().height(),
            topo.width(),
            topo.height()
        );
        let mut fabric = Fabric::new(topo, config);
        if !defects.is_empty() {
            fabric.fault_state = Some(FaultState {
                rng: StdRng::seed_from_u64(seed),
                defects: defects.clone(),
                retries: Vec::new(),
            });
        }
        fabric
    }

    /// The fabric's geometry.
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// Current simulation time (the time of the last processed event).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> FabricStats {
        self.stats
    }

    /// Busy-cycles accumulated per link (canonical [`Topology`] link
    /// indexing) — the congestion heatmap.
    pub fn link_busy_cycles(&self) -> &[u64] {
        &self.link_busy
    }

    /// Busy-cycles on the hottest link.
    pub fn hottest_link_busy_cycles(&self) -> u64 {
        self.link_busy.iter().copied().max().unwrap_or(0)
    }

    /// Snapshots the per-link busy and stall counters into a stable
    /// [`LinkHeatmap`] — the congestion data product consumed by
    /// placement optimization.
    pub fn heatmap(&self) -> LinkHeatmap {
        LinkHeatmap::with_faults(
            self.topo,
            self.link_busy.clone(),
            self.link_stalls.clone(),
            self.link_faults.clone(),
        )
    }

    /// Enables hop recording: every subsequent link traversal attempt
    /// (successful or failed) is appended to the transcript returned by
    /// [`Fabric::hop_records`]. Off by default so the hot path pays
    /// nothing; call before the run whose transit you want to audit.
    pub fn record_hops(&mut self) {
        if self.hop_log.is_none() {
            self.hop_log = Some(Vec::new());
        }
    }

    /// The recorded link traversal attempts in completion order — empty
    /// unless [`Fabric::record_hops`] was called before the run.
    pub fn hop_records(&self) -> &[HopRecord] {
        self.hop_log.as_deref().unwrap_or(&[])
    }

    /// Reserves room for `messages` more messages whose routes hold
    /// `nodes` routers in total, so a caller that knows its traffic
    /// up front injects it without reallocating.
    pub fn reserve(&mut self, messages: usize, nodes: usize) {
        self.msgs.reserve_exact(messages);
        self.launches.reserve_exact(messages);
        self.nodes.reserve_exact(nodes);
        if let Some(f) = &mut self.fault_state {
            f.retries.reserve_exact(messages);
        }
    }

    /// Injects a message that starts traversing `route` at cycle
    /// `launch`, copying the route into the fabric. Returns its id (ids
    /// are dense and ordered by injection). Injection costs O(route
    /// length); all movement happens in [`Fabric::run_to_completion`].
    ///
    /// # Panics
    ///
    /// Panics if the route is empty or leaves the topology, if
    /// `launch` lies in the simulated past (before an already-processed
    /// event), or — on a fault-injected fabric — if the route
    /// traverses a dead node or link (routes must be planned around
    /// permanent defects; see [`DefectMap::route_avoiding`]).
    pub fn inject(&mut self, route: &Path, launch: u64) -> MsgId {
        assert!(!route.is_empty(), "cannot inject an empty route");
        for &n in route.nodes() {
            assert!(self.topo.contains(n), "route node {n} off the topology");
        }
        assert!(
            launch >= self.now,
            "launch at {launch} is before the fabric clock {}",
            self.now
        );
        if let Some(f) = &mut self.fault_state {
            assert!(
                f.defects.path_clear(route),
                "route {} -> {} traverses a defective node or link",
                route.source(),
                route.dest()
            );
            f.retries.push(0);
        }
        let id = u32::try_from(self.msgs.len()).expect("fabric message ids fit in u32");
        self.msgs.push(InFlightMessage {
            start: self.nodes.len(),
            len: u32::try_from(route.nodes().len()).expect("route lengths fit in u32"),
            cursor: 0,
            state: MsgState::Scheduled,
        });
        self.nodes.extend_from_slice(route.nodes());
        self.stats.injected += 1;
        self.launches.push((launch, id));
        self.note_queue_depth();
        id
    }

    /// Tracks the peak of pending events: unfired launches plus
    /// in-flight events.
    fn note_queue_depth(&mut self) {
        let pending = self.launches.len() + self.events.len();
        self.stats.peak_event_queue = self.stats.peak_event_queue.max(pending);
    }

    /// Schedules an in-flight event.
    fn push_event(&mut self, t: u64, id: MsgId) {
        self.events.push(Reverse((t, id)));
        self.note_queue_depth();
    }

    /// Arrival time of message `id`, if it has been delivered.
    pub fn arrival_time(&self, id: MsgId) -> Option<u64> {
        match self.msgs[id as usize].state {
            MsgState::Arrived { at } => Some(at),
            _ => None,
        }
    }

    /// The route message `id` was injected with.
    pub fn route(&self, id: MsgId) -> &[Coord] {
        let m = &self.msgs[id as usize];
        &self.nodes[m.start..m.start + m.len as usize]
    }

    /// Processes every pending event; afterwards all injected messages
    /// have arrived.
    pub fn run_to_completion(&mut self) {
        // Latest first, so the next launch is the last element. Ids are
        // unique, so `(launch, id)` orders the list totally.
        self.launches.sort_unstable_by(|a, b| b.cmp(a));
        loop {
            let launch = self.launches.last().copied();
            let event = self.events.peek().map(|&Reverse(e)| e);
            let (t, id) = match (launch, event) {
                (Some(l), Some(e)) if e < l => {
                    self.events.pop();
                    e
                }
                (Some(l), _) => {
                    self.launches.pop();
                    l
                }
                (None, Some(e)) => {
                    self.events.pop();
                    e
                }
                (None, None) => break,
            };
            self.process_event(t, id);
        }
        debug_assert_eq!(self.in_flight, 0);
    }

    fn process_event(&mut self, t: u64, id: MsgId) {
        debug_assert!(t >= self.now, "events must be processed in order");
        self.now = t;
        self.stats.events_processed += 1;
        let state = self.msgs[id as usize].state;
        match state {
            MsgState::Scheduled => {
                // The message enters the fabric now, not at injection
                // time — injection may happen arbitrarily early, and
                // peak_in_flight must measure concurrent *transit*.
                self.in_flight += 1;
                self.stats.peak_in_flight = self.stats.peak_in_flight.max(self.in_flight);
                self.try_advance(t, id);
            }
            MsgState::Traversing { link } => {
                // Hop attempt over: free the lane, wake the FIFO head.
                self.load[link] -= 1;
                self.link_busy[link] += self.config.hop_cycles;
                if let Some(w) = self.waiters[link].pop_front() {
                    let since = match self.msgs[w as usize].state {
                        MsgState::Waiting { since, .. } => since,
                        ref other => unreachable!("waiter in state {other:?}"),
                    };
                    self.stats.link_stall_cycles += t - since;
                    self.link_stalls[link] += t - since;
                    self.enter_link(t, w, link);
                }
                // On a flaky link the hop may have failed; the message
                // then backs off at its current router and re-attempts
                // the same link. After MAX_HOP_RETRIES consecutive
                // failures the hop is forced through, bounding the
                // worst case.
                let failed = match &mut self.fault_state {
                    Some(f) => {
                        let p = f.defects.flaky_probs()[link];
                        p > 0.0
                            && f.retries[id as usize] < MAX_HOP_RETRIES
                            && f.rng.gen_range(0.0..1.0f64) < p
                    }
                    None => false,
                };
                if let Some(log) = &mut self.hop_log {
                    let m = &self.msgs[id as usize];
                    let here = m.start + m.cursor as usize;
                    log.push(HopRecord {
                        msg: id,
                        from: self.nodes[here],
                        to: self.nodes[here + 1],
                        enter: t - self.config.hop_cycles,
                        exit: t,
                        failed,
                    });
                }
                if failed {
                    let f = self.fault_state.as_mut().expect("fault state present");
                    f.retries[id as usize] += 1;
                    let backoff = self.config.hop_cycles << (f.retries[id as usize] - 1).min(3);
                    self.stats.transient_faults += 1;
                    self.link_faults[link] += 1;
                    self.msgs[id as usize].state = MsgState::RetryWait;
                    self.push_event(t + backoff, id);
                } else {
                    if let Some(f) = &mut self.fault_state {
                        f.retries[id as usize] = 0;
                    }
                    self.stats.hops_completed += 1;
                    self.msgs[id as usize].cursor += 1;
                    self.try_advance(t, id);
                }
            }
            MsgState::RetryWait => {
                // Backoff elapsed: re-attempt the current hop, queueing
                // behind other traffic like any new arrival.
                self.try_advance(t, id);
            }
            MsgState::Waiting { .. } | MsgState::Arrived { .. } => {
                unreachable!("no events are scheduled for waiting or arrived messages")
            }
        }
    }

    /// At time `t`, message `id` sits at `route[cursor]`: deliver it or
    /// move it onto its next link (queueing if the link is saturated).
    fn try_advance(&mut self, t: u64, id: MsgId) {
        let msg = &self.msgs[id as usize];
        if msg.cursor + 1 == msg.len {
            self.msgs[id as usize].state = MsgState::Arrived { at: t };
            self.in_flight -= 1;
            self.stats.delivered += 1;
            return;
        }
        let here = msg.start + msg.cursor as usize;
        let link = self.topo.link_index(self.nodes[here], self.nodes[here + 1]);
        if self.load[link] < self.config.link_capacity {
            self.enter_link(t, id, link);
        } else {
            self.waiters[link].push_back(id);
            self.msgs[id as usize].state = MsgState::Waiting { link, since: t };
        }
    }

    fn enter_link(&mut self, t: u64, id: MsgId, link: usize) {
        self.load[link] += 1;
        self.msgs[id as usize].state = MsgState::Traversing { link };
        self.push_event(t + self.config.hop_cycles, id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::Coord;

    fn row_route(topo: Topology, y: u32, x0: u32, x1: u32) -> Path {
        topo.route_xy(Coord::new(x0, y), Coord::new(x1, y))
    }

    #[test]
    fn uncontended_message_arrives_after_hops_times_latency() {
        let topo = Topology::new(10, 3);
        for hop in [1u64, 3, 7] {
            let mut f = Fabric::new(topo, FabricConfig::unlimited(hop));
            let id = f.inject(&row_route(topo, 0, 0, 6), 5);
            f.run_to_completion();
            assert_eq!(f.arrival_time(id), Some(5 + 6 * hop));
            assert_eq!(f.stats().link_stall_cycles, 0);
        }
    }

    #[test]
    fn single_node_route_arrives_at_launch() {
        let topo = Topology::new(3, 3);
        let mut f = Fabric::new(topo, FabricConfig::default());
        let id = f.inject(&Path::new(vec![Coord::new(1, 1)]), 9);
        f.run_to_completion();
        assert_eq!(f.arrival_time(id), Some(9));
        assert_eq!(f.stats().hops_completed, 0);
    }

    #[test]
    fn capacity_one_serializes_a_shared_link() {
        let topo = Topology::new(4, 1);
        let cfg = FabricConfig {
            hop_cycles: 2,
            link_capacity: 1,
        };
        let mut f = Fabric::new(topo, cfg);
        // Two messages over the same 3-link row, launched together.
        let a = f.inject(&row_route(topo, 0, 0, 3), 0);
        let b = f.inject(&row_route(topo, 0, 0, 3), 0);
        f.run_to_completion();
        // a proceeds unimpeded: 3 hops x 2 cycles.
        assert_eq!(f.arrival_time(a), Some(6));
        // b waits 2 cycles behind a at every... only at the first link —
        // after that the pipeline spacing is established.
        assert_eq!(f.arrival_time(b), Some(8));
        assert_eq!(f.stats().link_stall_cycles, 2);
    }

    #[test]
    fn unlimited_capacity_never_stalls() {
        let topo = Topology::new(8, 8);
        let mut f = Fabric::new(topo, FabricConfig::unlimited(1));
        let ids: Vec<MsgId> = (0..32)
            .map(|i| f.inject(&row_route(topo, 0, 0, 7), i % 3))
            .collect();
        f.run_to_completion();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(f.arrival_time(*id), Some((i as u64 % 3) + 7));
        }
        assert_eq!(f.stats().link_stall_cycles, 0);
        assert_eq!(f.stats().delivered, 32);
    }

    #[test]
    fn fifo_wake_order_is_deterministic() {
        let topo = Topology::new(3, 1);
        let cfg = FabricConfig {
            hop_cycles: 5,
            link_capacity: 1,
        };
        let mut f = Fabric::new(topo, cfg);
        let a = f.inject(&row_route(topo, 0, 0, 2), 0);
        let b = f.inject(&row_route(topo, 0, 0, 2), 1);
        let c = f.inject(&row_route(topo, 0, 0, 2), 2);
        f.run_to_completion();
        // a: enters link0 at 0, link1 at 5, arrives 10.
        // b: queued on link0 at 1, enters at 5, link1 at 10, arrives 15.
        // c: queued at 2, enters link0 at 10, link1 at 15, arrives 20.
        assert_eq!(f.arrival_time(a), Some(10));
        assert_eq!(f.arrival_time(b), Some(15));
        assert_eq!(f.arrival_time(c), Some(20));
        // Stalls: b waited 4 on link0 + 0 on link1; c waited 8 on link0.
        assert_eq!(f.stats().link_stall_cycles, 12);
    }

    #[test]
    fn launches_are_served_in_launch_then_id_order() {
        let topo = Topology::new(3, 1);
        let cfg = FabricConfig {
            hop_cycles: 2,
            link_capacity: 1,
        };
        let mut f = Fabric::new(topo, cfg);
        // Injected out of time order, with two pairs of equal launches.
        let ids: Vec<MsgId> = [6u64, 2, 6, 2, 0]
            .into_iter()
            .map(|launch| f.inject(&row_route(topo, 0, 0, 2), launch))
            .collect();
        f.run_to_completion();
        // One lane per link, so the messages leave in (launch, id)
        // order, 4 -> 1 -> 3 -> 0 -> 2, each one hop behind the last.
        let arrivals: Vec<Option<u64>> = ids.iter().map(|&id| f.arrival_time(id)).collect();
        assert_eq!(
            arrivals,
            [Some(10), Some(6), Some(12), Some(8), Some(4)].to_vec()
        );
        // Message 3 and message 2 each queued one hop behind a leader.
        assert_eq!(f.stats().link_stall_cycles, 4);
    }

    #[test]
    fn peak_event_queue_counts_unlaunched_launches() {
        let topo = Topology::new(4, 1);
        let mut f = Fabric::new(topo, FabricConfig::default());
        for _ in 0..3 {
            f.inject(&row_route(topo, 0, 0, 3), 100);
        }
        assert_eq!(f.stats().peak_event_queue, 3);
        f.run_to_completion();
        // Each launch that fires leaves one hop completion pending.
        assert_eq!(f.stats().peak_event_queue, 3);
        assert_eq!(f.stats().delivered, 3);
    }

    #[test]
    fn link_busy_accounting_tracks_traversals() {
        let topo = Topology::new(4, 1);
        let mut f = Fabric::new(
            topo,
            FabricConfig {
                hop_cycles: 3,
                link_capacity: 2,
            },
        );
        for _ in 0..4 {
            f.inject(&row_route(topo, 0, 0, 3), 0);
        }
        f.run_to_completion();
        // 4 messages x 3 links x 3 cycles.
        assert_eq!(f.link_busy_cycles().iter().sum::<u64>(), 36);
        assert_eq!(f.hottest_link_busy_cycles(), 12);
        assert_eq!(f.stats().peak_in_flight, 4);
    }

    #[test]
    fn heatmap_splits_busy_and_stall_per_link() {
        let topo = Topology::new(4, 1);
        let cfg = FabricConfig {
            hop_cycles: 2,
            link_capacity: 1,
        };
        let mut f = Fabric::new(topo, cfg);
        f.inject(&row_route(topo, 0, 0, 3), 0);
        f.inject(&row_route(topo, 0, 0, 3), 0);
        f.run_to_completion();
        let h = f.heatmap();
        assert_eq!(h.topology(), topo);
        // Both messages crossed every link: 2 x 2 cycles busy each.
        assert_eq!(h.busy_cycles(), &[4, 4, 4]);
        // All queueing happened behind the leader at the first link.
        assert_eq!(h.total_stall_cycles(), f.stats().link_stall_cycles);
        assert_eq!(h.stall_cycles()[0], f.stats().link_stall_cycles);
        assert_eq!(h.stall_cycles()[1], 0);
        // The snapshot is detached from the live fabric.
        let before = h.clone();
        f.inject(&row_route(topo, 0, 0, 3), f.now());
        f.run_to_completion();
        assert_eq!(h, before);
        assert_ne!(f.heatmap(), before);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Fabric::new(
            Topology::new(2, 2),
            FabricConfig {
                hop_cycles: 1,
                link_capacity: 0,
            },
        );
    }

    #[test]
    #[should_panic(expected = "before the fabric clock")]
    fn injection_into_the_past_rejected() {
        let topo = Topology::new(4, 1);
        let mut f = Fabric::new(topo, FabricConfig::default());
        f.inject(&row_route(topo, 0, 0, 2), 10);
        f.run_to_completion();
        let _ = f.inject(&row_route(topo, 0, 0, 2), 3);
    }

    #[test]
    fn empty_defect_map_behaves_like_a_plain_fabric() {
        use crate::defect::DefectMap;
        let topo = Topology::new(4, 1);
        let map = DefectMap::empty(topo);
        let mut clean = Fabric::new(topo, FabricConfig::default());
        let mut faulty = Fabric::with_defects(topo, FabricConfig::default(), &map, 42);
        for launch in [0u64, 0, 3] {
            clean.inject(&row_route(topo, 0, 0, 3), launch);
            faulty.inject(&row_route(topo, 0, 0, 3), launch);
        }
        clean.run_to_completion();
        faulty.run_to_completion();
        assert_eq!(clean.stats(), faulty.stats());
        assert_eq!(clean.heatmap(), faulty.heatmap());
        for id in 0..3 {
            assert_eq!(clean.arrival_time(id), faulty.arrival_time(id));
        }
    }

    #[test]
    fn certain_flaky_link_retries_to_the_bound_then_forces_through() {
        use crate::defect::DefectMap;
        let topo = Topology::new(4, 1);
        let map = DefectMap::from_text("dims 4 1\nflaky 1 0 2 0 1.0\n").unwrap();
        let mut f = Fabric::with_defects(topo, FabricConfig::unlimited(1), &map, 7);
        let id = f.inject(&row_route(topo, 0, 0, 3), 0);
        f.run_to_completion();
        // The hop over the flaky link fails exactly MAX_HOP_RETRIES
        // times, then is forced through; the message still arrives.
        let at = f.arrival_time(id).expect("delivery terminates");
        assert!(at > 3, "faults must delay delivery past the clean 3 hops");
        assert_eq!(
            f.stats().transient_faults,
            u64::from(Fabric::MAX_HOP_RETRIES)
        );
        // hops_completed counts only successful traversals.
        assert_eq!(f.stats().hops_completed, 3);
        // The heatmap pins every fault on the flaky link.
        let h = f.heatmap();
        let flaky = topo.link_index(Coord::new(1, 0), Coord::new(2, 0));
        assert_eq!(h.fault_counts()[flaky], u64::from(Fabric::MAX_HOP_RETRIES));
        assert_eq!(h.total_transient_faults(), f.stats().transient_faults);
    }

    #[test]
    fn fault_draws_are_seed_deterministic() {
        use crate::defect::DefectMap;
        let topo = Topology::new(6, 1);
        let map = DefectMap::from_text("dims 6 1\nflaky 2 0 3 0 0.5\n").unwrap();
        let run = |seed: u64| {
            let mut f = Fabric::with_defects(topo, FabricConfig::default(), &map, seed);
            let ids: Vec<MsgId> = (0..8)
                .map(|i| f.inject(&row_route(topo, 0, 0, 5), i))
                .collect();
            f.run_to_completion();
            let arrivals: Vec<Option<u64>> = ids.iter().map(|&i| f.arrival_time(i)).collect();
            (arrivals, f.stats())
        };
        assert_eq!(run(11), run(11));
        // Some hop of 8 messages over a p = 0.5 link fails for any
        // reasonable seed, so faults are actually being exercised.
        assert!(run(11).1.transient_faults > 0);
    }

    #[test]
    #[should_panic(expected = "traverses a defective")]
    fn injecting_across_a_dead_node_rejected() {
        use crate::defect::DefectMap;
        let topo = Topology::new(4, 1);
        let map = DefectMap::from_text("dims 4 1\nnode 2 0\n").unwrap();
        let mut f = Fabric::with_defects(topo, FabricConfig::default(), &map, 1);
        let _ = f.inject(&row_route(topo, 0, 0, 3), 0);
    }
}
