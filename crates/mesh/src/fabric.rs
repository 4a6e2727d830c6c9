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
//! order and jumps straight across idle stretches, as the braid engine
//! jumps to its next release — there is no per-cycle stepping
//! anywhere.
//!
//! The event structures follow the traffic, and together they pop
//! exactly the `(time, message)` order one priority queue would:
//!
//! - **Launches** are all known before the run starts, so they wait in
//!   one list that the run sorts once and fires from the front. The
//!   fired launches stay in it, ascending, for
//!   [`Fabric::launch_cycles`]: a caller that needs them sorted reads
//!   them there instead of sorting them again.
//! - **Hop completions and first retries** fall due exactly
//!   [`FabricConfig::hop_cycles`] after the cycle that schedules them.
//!   That cycle never goes back, so these events sit in a FIFO in push
//!   order, their due times never decreasing.
//! - **Longer retry backoffs** (a hop's second and later failures) are
//!   the only events due at other offsets; they alone go through a
//!   binary heap.
//!
//! The run visits only cycles at which some event is due. Nothing
//! processed at a cycle falls due at that same cycle, so its FIFO and
//! heap events are all queued when the cycle starts: the run sorts
//! their ids in one reused buffer and merges them with the cycle's
//! launches. A busy cycle of the scale traces holds 5–25 events on
//! average; on SHA-1 ×16 (1.49M events) this loop takes 50–66 ms where
//! one heap of every in-flight event took 76–117 ms (2-vCPU VM).
//!
//! Routes are resolved once, at [`Fabric::inject`], into one `u32`
//! link index per hop in a single arena, so no event computes a link
//! from two routers. A message is then a 12-byte record: the arena
//! index of its next link, the end of its route and its state. The
//! cycle a waiter started waiting rides in its link's wait queue, and
//! arrival cycles sit in their own array ([`Fabric::arrivals`]). Router
//! coordinates are copied only for a hop transcript
//! ([`Fabric::record_hops`]). On SHA-1 ×16 (239,600 messages, 1.25M
//! hops) that is 2.9 MB of records and 5.0 MB of links, where 40-byte
//! records and 8-byte routers took 9.6 and 11.9 MB.
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
    /// Crossing its current link; a completion event is pending.
    Traversing,
    /// Queued on its current link (saturated); the link's wait queue
    /// holds the cycle it started waiting.
    Waiting,
    /// A hop on a flaky link failed; backing off before re-attempting
    /// the same link from the same router.
    RetryWait,
    /// Delivered; the cycle is in [`Fabric::arrivals`].
    Arrived,
}

/// One message in the fabric: where its route's links sit in the link
/// arena, how far along it is, and what it is currently doing.
#[derive(Clone, Copy, Debug)]
struct InFlightMessage {
    /// Arena index of the link the message is crossing, waiting for or
    /// about to enter; `end` once it has arrived.
    next: u32,
    /// One past the arena index of the route's last link.
    end: u32,
    state: MsgState,
}

// One record per message, touched by every event of the run.
const _: () = assert!(std::mem::size_of::<InFlightMessage>() <= 20);

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

/// The hop transcript of a fabric with [`Fabric::record_hops`] on, and
/// the router coordinates it needs: the event loop itself reads only
/// link indices.
#[derive(Clone, Debug, Default)]
struct HopLog {
    /// Every injected route, router by router, in injection order. A
    /// route has one router more than it has links, so the router at
    /// link-arena index `i` of message `id` sits at `i + id` here.
    nodes: Vec<Coord>,
    /// Link traversal attempts in completion order.
    records: Vec<HopRecord>,
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
    /// Present only after [`Fabric::record_hops`] (`None` keeps the hot
    /// path free of coordinates and allocation).
    hop_log: Option<HopLog>,
    /// FIFO wait queue per link: `(id, since)` of every message queued
    /// on it, `since` being the cycle it started waiting.
    waiters: Vec<VecDeque<(MsgId, u64)>>,
    msgs: Vec<InFlightMessage>,
    /// Every injected route as its canonical [`Topology`] link indices,
    /// one per hop, in injection order.
    links: Vec<u32>,
    /// Arrival cycle of each message, set when it is delivered.
    arrivals: Vec<u64>,
    /// `(launch, id)` of every injected message. The first `fired` have
    /// launched, in `(launch, id)` order; [`Fabric::run_to_completion`]
    /// sorts the rest ascending and fires them from the front.
    launches: Vec<(u64, MsgId)>,
    /// Launches already fired.
    fired: usize,
    /// `(due, id)` of in-flight events due `hop_cycles` after the cycle
    /// that pushed them (hop completions and first retries), in push
    /// order, so `due` never decreases front to back.
    hops: VecDeque<(u64, MsgId)>,
    /// Retry wakeups after a longer backoff, min-ordered by `(time, id)`.
    retries: BinaryHeap<Reverse<(u64, MsgId)>>,
    /// Ids of the current cycle's due in-flight events, sorted; one
    /// buffer reused across cycles.
    due: Vec<MsgId>,
    /// Events of the current cycle not yet processed (they left the
    /// FIFO and the heap but still count as pending).
    due_pending: usize,
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
        assert!(
            u32::try_from(topo.num_links()).is_ok(),
            "link indices fit in u32"
        );
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
            links: Vec::new(),
            arrivals: Vec::new(),
            launches: Vec::new(),
            fired: 0,
            hops: VecDeque::new(),
            retries: BinaryHeap::new(),
            due: Vec::new(),
            due_pending: 0,
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

    /// Enables hop recording: every link traversal attempt (successful
    /// or failed) is appended to the transcript returned by
    /// [`Fabric::hop_records`], and [`Fabric::inject`] keeps a copy of
    /// each route's routers for it. Off by default so the hot path pays
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if a message was already injected: the transcript covers
    /// every message or none.
    pub fn record_hops(&mut self) {
        assert!(
            self.msgs.is_empty(),
            "record hops before the first message is injected"
        );
        self.hop_log.get_or_insert_with(HopLog::default);
    }

    /// The recorded link traversal attempts in completion order — empty
    /// unless [`Fabric::record_hops`] was called before the run.
    pub fn hop_records(&self) -> &[HopRecord] {
        self.hop_log.as_ref().map_or(&[], |log| &log.records)
    }

    /// Reserves room for `messages` more messages whose routes hold
    /// `hops` links in total, so a caller that knows its traffic up
    /// front injects it without reallocating.
    pub fn reserve(&mut self, messages: usize, hops: usize) {
        self.msgs.reserve_exact(messages);
        self.launches.reserve_exact(messages);
        self.arrivals.reserve_exact(messages);
        self.links.reserve_exact(hops);
        if let Some(log) = &mut self.hop_log {
            log.nodes.reserve_exact(hops + messages);
        }
        if let Some(f) = &mut self.fault_state {
            f.retries.reserve_exact(messages);
        }
    }

    /// Injects a message that starts traversing `route` at cycle
    /// `launch`. The route is resolved once, here, into one link index
    /// per hop; the run reads only those. Returns the message's id (ids
    /// are dense and ordered by injection). Injection costs O(route
    /// length); all movement happens in [`Fabric::run_to_completion`].
    ///
    /// # Panics
    ///
    /// Panics if the route is empty, leaves the topology or steps
    /// between two routers that are not adjacent (naming both), if
    /// `launch` lies in the simulated past (before an already-processed
    /// event), or — on a fault-injected fabric — if the route
    /// traverses a dead node or link (routes must be planned around
    /// permanent defects; see [`DefectMap::route_avoiding`]).
    pub fn inject(&mut self, route: &Path, launch: u64) -> MsgId {
        let nodes = route.nodes();
        assert!(!nodes.is_empty(), "cannot inject an empty route");
        for &n in nodes {
            assert!(self.topo.contains(n), "route node {n} off the topology");
        }
        for pair in nodes.windows(2) {
            assert!(
                pair[0].is_adjacent(pair[1]),
                "route steps from {} to {}, which are not adjacent",
                pair[0],
                pair[1]
            );
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
        let next = self.links.len();
        let topo = self.topo;
        // `Fabric::new` checked that every link index fits in u32.
        self.links
            .extend(nodes.windows(2).map(|p| topo.link_index(p[0], p[1]) as u32));
        let end = u32::try_from(self.links.len()).expect("the link arena fits u32 indices");
        self.msgs.push(InFlightMessage {
            next: next as u32,
            end,
            state: MsgState::Scheduled,
        });
        if let Some(log) = &mut self.hop_log {
            log.nodes.extend_from_slice(nodes);
        }
        self.arrivals.push(0);
        self.stats.injected += 1;
        self.launches.push((launch, id));
        self.note_queue_depth();
        id
    }

    /// Tracks the peak of pending events: unfired launches plus
    /// in-flight events, the current cycle's unprocessed ones included.
    fn note_queue_depth(&mut self) {
        let pending = self.launches.len() - self.fired
            + self.hops.len()
            + self.retries.len()
            + self.due_pending;
        self.stats.peak_event_queue = self.stats.peak_event_queue.max(pending);
    }

    /// Schedules an in-flight event for message `id`, `delay` cycles
    /// from now: on the FIFO when it is due one hop from now, else on
    /// the retry heap.
    fn push_event(&mut self, delay: u64, id: MsgId) {
        let due = self.now + delay;
        if delay == self.config.hop_cycles {
            debug_assert!(self.hops.back().is_none_or(|&(last, _)| last <= due));
            self.hops.push_back((due, id));
        } else {
            self.retries.push(Reverse((due, id)));
        }
        self.note_queue_depth();
    }

    /// Arrival time of message `id`, if it has been delivered.
    pub fn arrival_time(&self, id: MsgId) -> Option<u64> {
        (self.msgs[id as usize].state == MsgState::Arrived).then(|| self.arrivals[id as usize])
    }

    /// The arrival cycle of every message, indexed by [`MsgId`].
    ///
    /// # Panics
    ///
    /// Panics if a message has not arrived yet; every message has once
    /// [`Fabric::run_to_completion`] returns.
    pub fn arrivals(&self) -> &[u64] {
        assert_eq!(
            self.stats.delivered, self.stats.injected,
            "arrivals are read once every message has arrived"
        );
        &self.arrivals
    }

    /// The launch cycles of the messages launched so far, ascending: the
    /// order the run fired them in. After [`Fabric::run_to_completion`]
    /// that is every message's launch, sorted once for the whole run.
    pub fn launch_cycles(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.launches[..self.fired]
            .iter()
            .map(|&(launch, _)| launch)
    }

    /// Processes every pending event; afterwards all injected messages
    /// have arrived.
    pub fn run_to_completion(&mut self) {
        // Every fired launch lies at or before the clock and every new
        // one at or after it, so sorting the unfired tail keeps the
        // whole list in `(launch, id)` order. Ids are unique, so the
        // order is total.
        self.launches[self.fired..].sort_unstable();
        let mut due = std::mem::take(&mut self.due);
        while let Some(t) = self.next_cycle() {
            // Every event processed at `t` schedules its successor at
            // least one hop later, so the cycle's in-flight events are
            // all queued already.
            due.clear();
            while let Some(&(at, id)) = self.hops.front() {
                if at != t {
                    break;
                }
                self.hops.pop_front();
                due.push(id);
            }
            while let Some(&Reverse((at, id))) = self.retries.peek() {
                if at != t {
                    break;
                }
                self.retries.pop();
                due.push(id);
            }
            due.sort_unstable();
            // Merge with the cycle's launches (sorted by id too).
            let mut next = 0;
            loop {
                let launch = match self.launches.get(self.fired) {
                    Some(&(at, id)) if at == t => Some(id),
                    _ => None,
                };
                let id = match (launch, due.get(next)) {
                    (Some(l), Some(&e)) if e < l => {
                        next += 1;
                        e
                    }
                    (Some(l), _) => {
                        self.fired += 1;
                        l
                    }
                    (None, Some(&e)) => {
                        next += 1;
                        e
                    }
                    (None, None) => break,
                };
                self.due_pending = due.len() - next;
                self.process_event(t, id);
            }
        }
        self.due = due;
        debug_assert_eq!(self.in_flight, 0);
    }

    /// The cycle of the earliest pending event, if any.
    fn next_cycle(&self) -> Option<u64> {
        let launch = self.launches.get(self.fired).map(|&(t, _)| t);
        let hop = self.hops.front().map(|&(t, _)| t);
        let retry = self.retries.peek().map(|&Reverse((t, _))| t);
        [launch, hop, retry].into_iter().flatten().min()
    }

    fn process_event(&mut self, t: u64, id: MsgId) {
        debug_assert!(t >= self.now, "events must be processed in order");
        self.now = t;
        self.stats.events_processed += 1;
        let i = id as usize;
        match self.msgs[i].state {
            MsgState::Scheduled => {
                // The message enters the fabric now, not at injection
                // time — injection may happen arbitrarily early, and
                // peak_in_flight must measure concurrent *transit*.
                self.in_flight += 1;
                self.stats.peak_in_flight = self.stats.peak_in_flight.max(self.in_flight);
                self.try_advance(t, id);
            }
            MsgState::Traversing => {
                // Hop attempt over: free the lane, wake the FIFO head.
                let at = self.msgs[i].next as usize;
                let link = self.links[at] as usize;
                self.load[link] -= 1;
                self.link_busy[link] += self.config.hop_cycles;
                if let Some((w, since)) = self.waiters[link].pop_front() {
                    debug_assert_eq!(self.msgs[w as usize].state, MsgState::Waiting);
                    self.stats.link_stall_cycles += t - since;
                    self.link_stalls[link] += t - since;
                    self.enter_link(w, link);
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
                            && f.retries[i] < MAX_HOP_RETRIES
                            && f.rng.gen_range(0.0..1.0f64) < p
                    }
                    None => false,
                };
                if let Some(log) = &mut self.hop_log {
                    let here = at + i;
                    log.records.push(HopRecord {
                        msg: id,
                        from: log.nodes[here],
                        to: log.nodes[here + 1],
                        enter: t - self.config.hop_cycles,
                        exit: t,
                        failed,
                    });
                }
                if failed {
                    let f = self.fault_state.as_mut().expect("fault state present");
                    f.retries[i] += 1;
                    let backoff = self.config.hop_cycles << (f.retries[i] - 1).min(3);
                    self.stats.transient_faults += 1;
                    self.link_faults[link] += 1;
                    self.msgs[i].state = MsgState::RetryWait;
                    self.push_event(backoff, id);
                } else {
                    if let Some(f) = &mut self.fault_state {
                        f.retries[i] = 0;
                    }
                    self.stats.hops_completed += 1;
                    self.msgs[i].next += 1;
                    self.try_advance(t, id);
                }
            }
            MsgState::RetryWait => {
                // Backoff elapsed: re-attempt the current hop, queueing
                // behind other traffic like any new arrival.
                self.try_advance(t, id);
            }
            MsgState::Waiting | MsgState::Arrived => {
                unreachable!("no events are scheduled for waiting or arrived messages")
            }
        }
    }

    /// At time `t`, message `id` sits at the router before its `next`
    /// link: deliver it or move it onto that link (queueing if the link
    /// is saturated).
    fn try_advance(&mut self, t: u64, id: MsgId) {
        let msg = &mut self.msgs[id as usize];
        if msg.next == msg.end {
            msg.state = MsgState::Arrived;
            self.arrivals[id as usize] = t;
            self.in_flight -= 1;
            self.stats.delivered += 1;
            return;
        }
        let link = self.links[msg.next as usize] as usize;
        if self.load[link] < self.config.link_capacity {
            self.enter_link(id, link);
        } else {
            msg.state = MsgState::Waiting;
            self.waiters[link].push_back((id, t));
        }
    }

    fn enter_link(&mut self, id: MsgId, link: usize) {
        self.load[link] += 1;
        self.msgs[id as usize].state = MsgState::Traversing;
        self.push_event(self.config.hop_cycles, id);
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
        // The launches come back in firing order, the arrivals by id.
        assert_eq!(f.launch_cycles().collect::<Vec<_>>(), [0, 2, 2, 6, 6]);
        assert_eq!(f.arrivals(), [10, 6, 12, 8, 4]);
        // A later launch joins the sorted list behind the fired ones.
        let late = f.inject(&row_route(topo, 0, 0, 2), 20);
        f.run_to_completion();
        assert_eq!(f.launch_cycles().collect::<Vec<_>>(), [0, 2, 2, 6, 6, 20]);
        assert_eq!(f.arrival_time(late), Some(24));
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
        let h = f.heatmap();
        assert_eq!(h.busy_cycles().iter().sum::<u64>(), 36);
        assert_eq!(h.hottest_link_busy_cycles(), 12);
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
    fn a_cycle_of_every_event_kind_is_served_in_id_order() {
        use crate::defect::DefectMap;
        // One lane per link, one cycle per hop, and a flaky link
        // (3,0)-(4,0) that fails every attempt until the retry bound.
        let topo = Topology::new(5, 1);
        let map = DefectMap::from_text("dims 5 1\nflaky 3 0 4 0 1.0\n").unwrap();
        let cfg = FabricConfig {
            hop_cycles: 1,
            link_capacity: 1,
        };
        let mut f = Fabric::with_defects(topo, cfg, &map, 3);
        f.record_hops();
        // At cycle 10 four messages want the flaky link, each through a
        // different kind of event, pushed in the reverse of id order:
        // - 3: its launch, queued at injection;
        // - 1: a later retry (on the heap since cycle 8), after failing
        //   at 6 and at 8;
        // - 2: a first retry, pushed at 9 after failing there;
        // - 0: a hop completion, pushed at 9 after id 2's retry, when
        //   id 4 arrived and freed the lane that 0 queued for.
        let b = f.inject(&row_route(topo, 0, 2, 4), 9);
        let d = f.inject(&row_route(topo, 0, 3, 4), 5);
        let c = f.inject(&row_route(topo, 0, 3, 4), 8);
        let a = f.inject(&row_route(topo, 0, 3, 4), 10);
        let x = f.inject(&row_route(topo, 0, 2, 3), 8);
        f.run_to_completion();
        let hops = f.hop_records();
        let hop = |msg, x0, enter, failed| HopRecord {
            msg,
            from: Coord::new(x0, 0),
            to: Coord::new(x0 + 1, 0),
            enter,
            exit: enter + 1,
            failed,
        };
        assert_eq!(
            hops[..5],
            [
                hop(d, 3, 5, true),
                hop(d, 3, 7, true),
                hop(c, 3, 8, true),
                hop(x, 2, 8, false),
                hop(b, 2, 9, false),
            ]
        );
        // The lane goes to the four in id order, one hop apart.
        let mut granted: Vec<(u64, MsgId)> = hops
            .iter()
            .filter(|h| h.from == Coord::new(3, 0) && h.enter >= 10)
            .map(|h| (h.enter, h.msg))
            .collect();
        granted.sort_unstable();
        assert_eq!(granted[..4], [(10, b), (11, d), (12, c), (13, a)]);
        // The transcript is in (completion, id) order throughout.
        assert!(hops
            .windows(2)
            .all(|w| (w[0].exit, w[0].msg) < (w[1].exit, w[1].msg)));
        // Each of the four fails MAX_HOP_RETRIES times and keeps its
        // place in the lane's rotation: the forced hops land in id order
        // of the rotation's survivors, 1, 2, 0, 3.
        assert_eq!(f.stats().transient_faults, 4 * u64::from(MAX_HOP_RETRIES));
        let arrivals = [b, d, c, a, x].map(|id| f.arrival_time(id));
        assert_eq!(arrivals, [Some(69), Some(63), Some(66), Some(70), Some(9)]);
        for (id, at) in [b, d, c, a, x].into_iter().zip(arrivals) {
            let last = hops.iter().rev().find(|h| h.msg == id).unwrap();
            assert_eq!((Some(last.exit), last.failed), (at, false));
        }
    }

    #[test]
    #[should_panic(expected = "route steps from (0, 0) to (2, 0), which are not adjacent")]
    fn a_route_that_jumps_a_router_is_rejected() {
        let topo = Topology::new(4, 1);
        let mut f = Fabric::new(topo, FabricConfig::default());
        let jump = Path::new_unchecked(vec![Coord::new(0, 0), Coord::new(2, 0)]);
        let _ = f.inject(&jump, 0);
    }

    #[test]
    #[should_panic(expected = "arrivals are read once every message has arrived")]
    fn arrivals_are_not_read_before_the_run() {
        let topo = Topology::new(4, 1);
        let mut f = Fabric::new(topo, FabricConfig::default());
        f.inject(&row_route(topo, 0, 0, 3), 0);
        let _ = f.arrivals();
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
