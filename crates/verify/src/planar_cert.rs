//! Independent replay certification of planar (Multi-SIMD) schedules.
//!
//! [`certify_planar_schedule`] audits a [`PlanarSchedule`] together
//! with the [`EprTranscript`] its traced run emitted: the located
//! demand, every planned route, and every link traversal attempt on
//! the fabric. All invariants are re-derived from the transcript alone
//! — lane occupancy is counted by an independent sweep line over the
//! hop intervals, never by re-running the fabric — so a bookkeeping
//! bug in the simulator cannot certify its own output.

use std::collections::HashMap;

use scq_ir::{Circuit, DependencyDag};
use scq_mesh::{Coord, DefectMap, FabricConfig, HopRecord};
use scq_teleport::{EprTranscript, PlanarSchedule};

use crate::finding::{sort_findings, Finding, Invariant};

/// Certifies a planar schedule and its EPR transcript against the
/// circuit and DAG they were scheduled from, reporting every invariant
/// violation as a located [`Finding`] (empty = certified clean), in one
/// reproducible order.
///
/// Checks, per the invariants in [`Invariant`]:
///
/// - **demand-consistency**: the transcript's requests, routes,
///   launches and arrivals align with each other and with the SIMD
///   demand trace (times, destination tiles, factory sources, teleport
///   count, makespan arithmetic);
/// - **route-well-formed**: each route connects its request's
///   endpoints over adjacent on-fabric steps without revisiting a
///   node;
/// - **time-monotonicity**: every hop takes exactly `hop_cycles`, no
///   message hops before its launch or overlaps its own hops, and each
///   arrival equals its last successful hop's exit (or the launch for
///   co-located requests);
/// - **lane-capacity**: an independent sweep line over all hop
///   intervals (failed attempts hold their lane too) never exceeds the
///   transcript's swap lanes per link;
/// - **dependency-order**: the SIMD issue timesteps cover every
///   instruction and strictly increase along DAG edges;
/// - **defect-avoidance**: no route touches a dead node or link, and a
///   clean run (no `defects`) records no transient hop failures.
pub fn certify_planar_schedule(
    schedule: &PlanarSchedule,
    transcript: &EprTranscript,
    circuit: &Circuit,
    dag: &DependencyDag,
    defects: Option<&DefectMap>,
) -> Vec<Finding> {
    let mut out = Vec::new();
    check_demand(schedule, transcript, &mut out);
    let n = transcript.requests.len();
    let aligned = transcript.routes.len() == n
        && transcript.launches.len() == n
        && transcript.arrivals.len() == n;
    check_routes(transcript, defects, &mut out);
    // The per-message replay indexes routes/launches/arrivals by
    // request id; a misaligned transcript is already a
    // demand-consistency finding and cannot be replayed soundly.
    if aligned {
        check_hops(transcript, defects, schedule, &mut out);
    }
    check_lanes(transcript, &mut out);
    check_dependencies(schedule, circuit, dag, &mut out);
    sort_findings(&mut out);
    out
}

fn check_demand(schedule: &PlanarSchedule, transcript: &EprTranscript, out: &mut Vec<Finding>) {
    let n = transcript.requests.len();
    if transcript.routes.len() != n
        || transcript.launches.len() != n
        || transcript.arrivals.len() != n
    {
        out.push(Finding::error(
            Invariant::DemandConsistency,
            format!(
                "transcript misaligned: {n} requests, {} routes, {} launches, {} arrivals",
                transcript.routes.len(),
                transcript.launches.len(),
                transcript.arrivals.len()
            ),
        ));
        return;
    }
    let simd = &schedule.simd;
    if simd.teleport_times.len() != n {
        out.push(Finding::error(
            Invariant::DemandConsistency,
            format!(
                "SIMD demand has {} teleports but the transcript carries {n}",
                simd.teleport_times.len()
            ),
        ));
    }
    for (i, r) in transcript.requests.iter().enumerate() {
        if i > 0 && transcript.requests[i - 1].time > r.time {
            out.push(
                Finding::error(
                    Invariant::DemandConsistency,
                    format!("request {i} is earlier than its predecessor"),
                )
                .with_cycle(r.time),
            );
        }
        if let (Some(&t), Some(&q)) = (simd.teleport_times.get(i), simd.teleport_qubits.get(i)) {
            if r.time != t {
                out.push(
                    Finding::error(
                        Invariant::DemandConsistency,
                        format!(
                            "request {i} fires at {} but SIMD demands timestep {t}",
                            r.time
                        ),
                    )
                    .with_cycle(r.time),
                );
            }
            match schedule.machine.tiles.get(q as usize) {
                Some(&tile) if tile == r.dst => {}
                _ => out.push(
                    Finding::error(
                        Invariant::DemandConsistency,
                        format!("request {i} targets {} but q{q}'s tile differs", r.dst),
                    )
                    .with_node(r.dst),
                ),
            }
        }
        if !schedule.machine.factories.contains(&r.src) {
            out.push(
                Finding::error(
                    Invariant::DemandConsistency,
                    format!("request {i} launches from {} which is not a factory", r.src),
                )
                .with_node(r.src),
            );
        }
    }
    if schedule.epr.teleports != n {
        out.push(Finding::error(
            Invariant::DemandConsistency,
            format!(
                "pipeline served {} teleports but the transcript carries {n}",
                schedule.epr.teleports
            ),
        ));
    }
    let expect = schedule.timesteps.max(schedule.epr.makespan);
    if schedule.cycles != expect {
        out.push(
            Finding::error(
                Invariant::DemandConsistency,
                format!(
                    "schedule reports {} cycles but max(timesteps, makespan) is {expect}",
                    schedule.cycles
                ),
            )
            .with_cycle(schedule.cycles),
        );
    }
}

fn check_routes(transcript: &EprTranscript, defects: Option<&DefectMap>, out: &mut Vec<Finding>) {
    for (i, (r, route)) in transcript
        .requests
        .iter()
        .zip(&transcript.routes)
        .enumerate()
    {
        let nodes = route.nodes();
        if nodes.is_empty() {
            out.push(Finding::error(
                Invariant::RouteWellFormed,
                format!("request {i} has an empty route"),
            ));
            continue;
        }
        if nodes[0] != r.src || nodes[nodes.len() - 1] != r.dst {
            out.push(
                Finding::error(
                    Invariant::RouteWellFormed,
                    format!(
                        "route {i} runs {} -> {} but the request demands {} -> {}",
                        nodes[0],
                        nodes[nodes.len() - 1],
                        r.src,
                        r.dst
                    ),
                )
                .with_node(nodes[0]),
            );
        }
        let mut seen = std::collections::HashSet::with_capacity(nodes.len());
        for &n in nodes {
            if !transcript.topology.contains(n) {
                out.push(
                    Finding::error(
                        Invariant::RouteWellFormed,
                        format!("route {i} leaves the fabric"),
                    )
                    .with_node(n),
                );
            }
            if !seen.insert(n) {
                out.push(
                    Finding::error(
                        Invariant::RouteWellFormed,
                        format!("route {i} revisits a node"),
                    )
                    .with_node(n),
                );
            }
        }
        for w in nodes.windows(2) {
            if !w[0].is_adjacent(w[1]) {
                out.push(
                    Finding::error(
                        Invariant::RouteWellFormed,
                        format!("route {i} jumps from {} to {}", w[0], w[1]),
                    )
                    .with_node(w[1]),
                );
            }
        }
        if let Some(map) = defects {
            for &n in nodes {
                if map.topology().contains(n) && map.node_dead(n) {
                    out.push(
                        Finding::error(
                            Invariant::DefectAvoidance,
                            format!("route {i} passes through a dead node"),
                        )
                        .with_node(n),
                    );
                }
            }
            // A jump is no link (already a route finding above), so the
            // map is asked only about adjacent pairs.
            for (a, b) in route.links() {
                if a.is_adjacent(b)
                    && map.topology().contains(a)
                    && map.topology().contains(b)
                    && map.link_dead(a, b)
                {
                    out.push(
                        Finding::error(
                            Invariant::DefectAvoidance,
                            format!("route {i} crosses a dead link"),
                        )
                        .with_link(a, b),
                    );
                }
            }
        }
    }
}

/// Per-message hop audit: attempts must walk the planned route in
/// order (failed attempts re-try the pending link), obey the hop
/// latency, never overlap, never precede the launch, and end exactly
/// at the recorded arrival.
fn check_hops(
    transcript: &EprTranscript,
    defects: Option<&DefectMap>,
    schedule: &PlanarSchedule,
    out: &mut Vec<Finding>,
) {
    let n = transcript.requests.len();
    let mut per_msg: Vec<Vec<&HopRecord>> = vec![Vec::new(); n];
    let mut failed_hops = 0u64;
    for hop in &transcript.hops {
        if hop.failed {
            failed_hops += 1;
            if defects.is_none() {
                out.push(
                    Finding::error(
                        Invariant::DefectAvoidance,
                        "transient hop failure recorded on a clean fabric",
                    )
                    .with_cycle(hop.enter)
                    .with_link(hop.from, hop.to),
                );
            }
        }
        match per_msg.get_mut(hop.msg as usize) {
            Some(hops) => hops.push(hop),
            None => out.push(
                Finding::error(
                    Invariant::DemandConsistency,
                    format!("hop references message {} of {n}", hop.msg),
                )
                .with_cycle(hop.enter),
            ),
        }
    }
    if schedule.transient_faults != failed_hops {
        out.push(Finding::error(
            Invariant::DemandConsistency,
            format!(
                "schedule counts {} transient faults but the transcript records {failed_hops}",
                schedule.transient_faults
            ),
        ));
    }
    for (i, hops) in per_msg.iter().enumerate() {
        let route = &transcript.routes[i];
        let links: Vec<(Coord, Coord)> = route.links().collect();
        let launch = transcript.launches[i];
        let arrival = transcript.arrivals[i];
        let mut cursor = 0usize;
        let mut prev_exit: Option<u64> = None;
        for hop in hops {
            if hop.exit != hop.enter + transcript.hop_cycles {
                out.push(
                    Finding::error(
                        Invariant::TimeMonotonicity,
                        format!(
                            "hop of message {i} spans {}..{} instead of the {}-cycle latency",
                            hop.enter, hop.exit, transcript.hop_cycles
                        ),
                    )
                    .with_cycle(hop.enter)
                    .with_link(hop.from, hop.to),
                );
            }
            if hop.enter < launch {
                out.push(
                    Finding::error(
                        Invariant::TimeMonotonicity,
                        format!(
                            "message {i} hops at {} before its launch at {launch}",
                            hop.enter
                        ),
                    )
                    .with_cycle(hop.enter),
                );
            }
            if let Some(pe) = prev_exit {
                if hop.enter < pe {
                    out.push(
                        Finding::error(
                            Invariant::TimeMonotonicity,
                            format!("message {i} re-enters a link before leaving the last"),
                        )
                        .with_cycle(hop.enter),
                    );
                }
            }
            prev_exit = Some(hop.exit);
            match links.get(cursor) {
                Some(&(a, b)) if (hop.from, hop.to) == (a, b) => {
                    if !hop.failed {
                        cursor += 1;
                    }
                }
                _ => out.push(
                    Finding::error(
                        Invariant::RouteWellFormed,
                        format!(
                            "message {i} hopped {} -> {} off its planned route",
                            hop.from, hop.to
                        ),
                    )
                    .with_cycle(hop.enter)
                    .with_link(hop.from, hop.to),
                ),
            }
        }
        if cursor != links.len() {
            out.push(Finding::error(
                Invariant::RouteWellFormed,
                format!(
                    "message {i} completed {cursor} of its {} route links",
                    links.len()
                ),
            ));
        }
        let expected_arrival = match hops.iter().rev().find(|h| !h.failed) {
            Some(last) => last.exit,
            None => launch,
        };
        if arrival != expected_arrival {
            out.push(
                Finding::error(
                    Invariant::TimeMonotonicity,
                    format!(
                        "message {i} records arrival {arrival} but its transit ends at {expected_arrival}"
                    ),
                )
                .with_cycle(arrival),
            );
        }
    }
}

/// Independent lane-occupancy sweep: every hop attempt (failed or not)
/// holds one swap lane on its link for `[enter, exit)`; at no instant
/// may a link's concurrent holds exceed the configured capacity.
fn check_lanes(transcript: &EprTranscript, out: &mut Vec<Finding>) {
    if transcript.link_capacity == FabricConfig::UNLIMITED {
        return;
    }
    let mut per_link: HashMap<(Coord, Coord), Vec<(u64, i64)>> = HashMap::new();
    for hop in &transcript.hops {
        let key = if hop.from <= hop.to {
            (hop.from, hop.to)
        } else {
            (hop.to, hop.from)
        };
        let events = per_link.entry(key).or_default();
        events.push((hop.enter, 1));
        events.push((hop.exit, -1));
    }
    for ((a, b), mut events) in per_link {
        // Sort exits before enters at equal times: a lane freed at t is
        // available to a message entering at t.
        events.sort_unstable();
        let mut live = 0i64;
        let mut flagged = false;
        for (t, delta) in events {
            live += delta;
            if live > i64::from(transcript.link_capacity) && !flagged {
                out.push(
                    Finding::error(
                        Invariant::LaneCapacity,
                        format!(
                            "{live} concurrent EPR halves on a {}-lane link",
                            transcript.link_capacity
                        ),
                    )
                    .with_cycle(t)
                    .with_link(a, b),
                );
                flagged = true;
            }
        }
    }
}

/// The SIMD issue order must respect the dependency DAG: an op can
/// only issue strictly after every op it depends on.
fn check_dependencies(
    schedule: &PlanarSchedule,
    circuit: &Circuit,
    dag: &DependencyDag,
    out: &mut Vec<Finding>,
) {
    let ts = &schedule.simd.op_timesteps;
    if ts.len() != circuit.len() || dag.len() != circuit.len() {
        out.push(Finding::error(
            Invariant::DependencyOrder,
            format!(
                "issue map covers {} ops, dag {}, circuit {}",
                ts.len(),
                dag.len(),
                circuit.len()
            ),
        ));
        return;
    }
    for (i, &t) in ts.iter().enumerate() {
        if t == 0 || t > schedule.timesteps {
            out.push(
                Finding::error(
                    Invariant::DependencyOrder,
                    format!(
                        "op {i} issues at timestep {t} outside 1..={}",
                        schedule.timesteps
                    ),
                )
                .with_op(i as u32),
            );
        }
        for &p in dag.preds(i) {
            if ts[p as usize] >= t {
                out.push(
                    Finding::error(
                        Invariant::DependencyOrder,
                        format!(
                            "op {i} issues at {t}, not after its dependency {p} at {}",
                            ts[p as usize]
                        ),
                    )
                    .with_op(i as u32)
                    .with_cycle(t),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scq_teleport::{schedule_planar_with, BaselinePlacement, FabricRun, PlanarConfig};

    fn traced(n: u32) -> (Circuit, DependencyDag, PlanarSchedule, EprTranscript) {
        let mut b = Circuit::builder("cert", n);
        for q in 0..n {
            b.h(q);
        }
        for q in 0..n / 2 {
            b.cnot(q, q + n / 2);
        }
        for q in 0..n {
            b.t(q);
        }
        let c = b.finish();
        let dag = DependencyDag::from_circuit(&c);
        let run = FabricRun {
            transcript: true,
            ..Default::default()
        };
        let (s, t) =
            schedule_planar_with(&c, &dag, &PlanarConfig::default(), &BaselinePlacement, &run)
                .expect("schedules");
        (c, dag, s, t.expect("transcript requested"))
    }

    #[test]
    fn engine_schedule_certifies_clean() {
        let (c, dag, s, t) = traced(16);
        assert!(!t.requests.is_empty());
        assert!(!t.hops.is_empty());
        let findings = certify_planar_schedule(&s, &t, &c, &dag, None);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn lane_overflow_mutation_is_caught() {
        let (c, dag, s, mut t) = traced(16);
        // Pile duplicate copies of one hop onto its link until the lane
        // count must overflow.
        let hop = *t.hops.first().expect("at least one hop");
        for _ in 0..=t.link_capacity {
            t.hops.push(hop);
        }
        let findings = certify_planar_schedule(&s, &t, &c, &dag, None);
        assert!(findings
            .iter()
            .any(|f| f.invariant == Invariant::LaneCapacity));
    }

    #[test]
    fn issue_order_mutation_is_caught() {
        let (c, dag, mut s, t) = traced(16);
        // Find a dependent pair and swap their issue timesteps.
        let (a, b) = (0..c.len())
            .flat_map(|i| dag.preds(i).iter().map(move |&p| (p as usize, i)))
            .next()
            .expect("the circuit has dependencies");
        s.simd.op_timesteps.swap(a, b);
        let findings = certify_planar_schedule(&s, &t, &c, &dag, None);
        assert!(findings
            .iter()
            .any(|f| f.invariant == Invariant::DependencyOrder));
    }
}
