//! Pipelined EPR distribution (paper Section 8.1).
//!
//! Teleportation's expensive step — physically moving EPR halves through
//! swap channels — is *prefetchable*: "because of the delay-tolerant
//! nature of the distribution of EPRs ... they can be prefetched at
//! arbitrary points in time." The goal is *just-in-time* distribution:
//! launch each EPR pair early enough not to stall its teleport, late
//! enough not to flood the machine with live EPR qubits.
//!
//! This module is a flow-level simulator of that pipeline: every teleport
//! demand has an ideal use time and a distribution distance; the policy
//! decides launch times subject to a lookahead window and channel
//! bandwidth. Outputs are the two §8.1 metrics: peak live EPR pairs
//! (qubit cost) and added latency.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use scq_surface::TELEPORT_CYCLES;

/// When EPR pairs are launched relative to their use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DistributionPolicy {
    /// Launch as early as possible (program start), the naive baseline:
    /// no stalls, but every EPR sits live until its teleport consumes it.
    EagerPrefetch,
    /// Launch with just enough lead time, with at most `window` EPR
    /// pairs outstanding (launched but unconsumed) at any moment.
    JustInTime {
        /// Maximum outstanding EPR pairs.
        window: usize,
    },
}

/// Static parameters of the distribution fabric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EprConfig {
    /// Cycles for an EPR half to cross one tile (swap-chain speed).
    pub hop_cycles: u64,
    /// Maximum EPR pairs concurrently *in flight* (swap-lane bandwidth).
    pub bandwidth: usize,
    /// Extra lead time added to just-in-time launches — the "appropriate
    /// lead time" of Section 8.1 that absorbs queueing jitter at the
    /// swap lanes.
    pub lead_slack_cycles: u64,
}

impl Default for EprConfig {
    /// One cycle per hop, 256 concurrent pairs (roughly one swap lane
    /// per tile column on a mid-size machine — the fabric is provisioned
    /// for steady-state demand so the *window* is the binding knob, as
    /// in Section 8.1).
    fn default() -> Self {
        EprConfig {
            hop_cycles: 1,
            bandwidth: 256,
            lead_slack_cycles: 8,
        }
    }
}

/// One teleport's communication demand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EprDemand {
    /// Ideal timestep at which the teleport wants to fire (from the
    /// Multi-SIMD schedule).
    pub time: u64,
    /// Distribution distance in tile hops.
    pub distance: u32,
}

/// Result of one distribution simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EprPipelineResult {
    /// Schedule length including distribution stalls.
    pub makespan: u64,
    /// Schedule length had every EPR been in place on time.
    pub ideal_makespan: u64,
    /// Maximum simultaneously-live EPR pairs (launched, not yet
    /// consumed) — the §8.1 qubit cost.
    pub peak_live_eprs: usize,
    /// Total cycles teleports waited for late EPR pairs.
    pub total_stall_cycles: u64,
    /// Number of teleports served.
    pub teleports: usize,
}

impl EprPipelineResult {
    /// Fractional latency overhead versus the ideal schedule
    /// (§8.1 reports "a maximum of ~4%" for good window sizes).
    pub fn latency_overhead(&self) -> f64 {
        if self.ideal_makespan == 0 {
            return 0.0;
        }
        self.makespan as f64 / self.ideal_makespan as f64 - 1.0
    }
}

/// Flow-level launch planning: the §8.1 recurrence deciding when each
/// EPR pair is launched, given each demand's ideal use time and its
/// *uncontended* travel time, streamed in demand order. Returns each
/// demand's launch cycle; its predicted arrival is that plus its
/// travel.
///
/// This is the planning half of the legacy flow model, factored out so
/// the route-aware fabric simulator launches with exactly the same
/// policy decisions: the just-in-time target, the lookahead-window gate
/// (demand `j` may not launch before demand `j - window` was consumed),
/// and the global swap-lane bandwidth cap all live here. The gate reads
/// only the consume time `window` demands back, so the planner keeps
/// the last `window` of them in a ring, not one per demand.
///
/// # Panics
///
/// Panics if demand times are unsorted, the bandwidth is zero, or a
/// `JustInTime` window is zero.
pub(crate) fn plan_launches(
    demands: impl IntoIterator<Item = (u64, u64)>, // (ideal use time, uncontended travel cycles)
    policy: DistributionPolicy,
    bandwidth: usize,
    lead_slack_cycles: u64,
) -> Vec<u64> {
    assert!(bandwidth > 0, "bandwidth must be positive");
    let window = match policy {
        DistributionPolicy::EagerPrefetch => None,
        DistributionPolicy::JustInTime { window } => {
            assert!(window > 0, "lookahead window must be positive");
            Some(window)
        }
    };
    let demands = demands.into_iter();
    let mut launches: Vec<u64> = Vec::with_capacity(demands.size_hint().0);
    let mut slip: u64 = 0;
    let mut last_time: u64 = 0;
    // Arrival times of the pairs in flight: at most `bandwidth` of
    // them, so a binary heap stays shallow.
    let mut in_flight: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
    // Consume times of the last `window` demands, oldest first.
    let mut recent: VecDeque<u64> = VecDeque::new();

    for (time, travel) in demands {
        assert!(time >= last_time, "demands must be sorted by time");
        last_time = time;
        let need = time + slip;
        let (target, window_gate) = match window {
            None => (0, 0),
            // Window constraint: demand j may not launch before demand
            // j - window has been consumed, the ring's front once the
            // ring is full.
            Some(window) => (
                need.saturating_sub(travel + lead_slack_cycles),
                if recent.len() == window {
                    recent.pop_front().unwrap_or(0)
                } else {
                    0
                },
            ),
        };
        // Bandwidth constraint: wait for a free swap lane.
        let mut launch = target.max(window_gate);
        loop {
            while let Some(&Reverse(a)) = in_flight.peek() {
                if a <= launch {
                    in_flight.pop();
                } else {
                    break;
                }
            }
            if in_flight.len() < bandwidth {
                break;
            }
            let Some(&Reverse(earliest)) = in_flight.peek() else {
                break;
            };
            launch = launch.max(earliest);
        }
        let arrive = launch + travel;
        in_flight.push(Reverse(arrive));

        let stall = arrive.saturating_sub(need);
        slip += stall;
        if window.is_some() {
            recent.push_back(need + stall); // = max(need, arrive)
        }
        launches.push(launch);
    }
    launches
}

/// Accounting half of the EPR pipeline: given each demand's ideal use
/// time and its (predicted or measured) arrival time, in demand order,
/// and every launch cycle in ascending order, runs the serialized-slip
/// consume recurrence and sweeps the two §8.1 metrics; each teleport
/// takes [`TELEPORT_CYCLES`] once its pair is in place. Fed predicted
/// arrivals this reproduces the legacy flow model; fed measured fabric
/// arrivals it prices real link contention.
///
/// Demand times are sorted and slip only grows, so consume times never
/// decrease: peak live EPR pairs is a merge of the sorted launch times
/// against them, with no sort here at all.
pub(crate) fn account_arrivals(
    demands: impl IntoIterator<Item = (u64, u64)>, // (ideal use time, arrival)
    sorted_launches: impl ExactSizeIterator<Item = u64>,
) -> EprPipelineResult {
    let mut launches = sorted_launches.peekable();
    let mut teleports = 0usize;
    let mut slip: u64 = 0;
    let mut total_stall = 0u64;
    let mut last_consume = 0u64;
    let mut ideal_last = 0u64;
    let mut prev_consume = 0u64;
    let mut prev_launch = 0u64;
    let mut live = 0i64;
    let mut peak = 0i64;

    for (time, arrive) in demands {
        teleports += 1;
        let need = time + slip;
        let stall = arrive.saturating_sub(need);
        total_stall += stall;
        slip += stall;
        let consume = need + stall; // = max(need, arrive)
        debug_assert!(consume >= prev_consume, "consume times never decrease");
        prev_consume = consume;
        // Launches before this consume go live first; at equal times
        // the consume goes first (an EPR freed this cycle can be
        // recycled).
        while let Some(launch) = launches.next_if(|&l| l < consume) {
            debug_assert!(launch >= prev_launch, "launches come sorted");
            prev_launch = launch;
            live += 1;
            peak = peak.max(live);
        }
        live -= 1;
        last_consume = last_consume.max(consume + TELEPORT_CYCLES);
        ideal_last = ideal_last.max(time + TELEPORT_CYCLES);
    }
    debug_assert_eq!(live + launches.len() as i64, 0, "one launch per demand");
    // Launches after the last consume only add to the live count.
    peak = peak.max(live + launches.len() as i64);

    EprPipelineResult {
        makespan: last_consume,
        ideal_makespan: ideal_last,
        peak_live_eprs: peak as usize,
        total_stall_cycles: total_stall,
        teleports,
    }
}

/// Simulates EPR distribution for a teleport demand trace at the flow
/// level: arrivals are the analytic `launch + distance x hop` — no link
/// ever saturates. Retained as the differential oracle for the
/// route-aware fabric simulator
/// ([`simulate_epr_on_fabric`](crate::simulate_epr_on_fabric)), which
/// must reproduce these numbers exactly under unlimited link capacity.
///
/// Demands must be sorted by [`EprDemand::time`] (the natural order a
/// schedule produces). Each stall pushes all later demands back, so the
/// output `makespan` is a conservative (fully serialized slip) estimate.
///
/// # Panics
///
/// Panics if demands are unsorted, the bandwidth is zero, or a
/// `JustInTime` window is zero.
pub fn simulate_epr_distribution(
    demands: &[EprDemand],
    policy: DistributionPolicy,
    config: &EprConfig,
) -> EprPipelineResult {
    let travel = |d: &EprDemand| u64::from(d.distance) * config.hop_cycles;
    let launches = plan_launches(
        demands.iter().map(|d| (d.time, travel(d))),
        policy,
        config.bandwidth,
        config.lead_slack_cycles,
    );
    let mut sorted = launches.clone();
    sorted.sort_unstable();
    account_arrivals(
        demands
            .iter()
            .zip(&launches)
            .map(|(d, &launch)| (d.time, launch + travel(d))),
        sorted.into_iter(),
    )
}

/// Sweeps lookahead windows and returns `(window, result)` pairs — the
/// §8.1 window-size study ("smaller window sizes cap qubit usage at the
/// expense of starving data qubits ... large windows release more EPRs
/// into the network than necessary").
pub fn window_sweep(
    demands: &[EprDemand],
    windows: &[usize],
    config: &EprConfig,
) -> Vec<(usize, EprPipelineResult)> {
    windows
        .iter()
        .map(|&w| {
            (
                w,
                simulate_epr_distribution(
                    demands,
                    DistributionPolicy::JustInTime { window: w },
                    config,
                ),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::TestRng;

    /// Oracle of [`account_arrivals`]: the same recurrence, with peak
    /// live EPR pairs swept by sorting every `(launch, +1)` and
    /// `(consume, -1)` pair (consumes first at equal times) and taking
    /// the running maximum.
    fn account_arrivals_by_sort(
        times: &[u64],
        launches_arrivals: &[(u64, u64)],
        teleport_cycles: u64,
    ) -> EprPipelineResult {
        let mut slip: u64 = 0;
        let mut total_stall = 0u64;
        let mut last_consume = 0u64;
        let mut ideal_last = 0u64;
        let mut live_events: Vec<(u64, i64)> = Vec::with_capacity(2 * times.len());
        for (&time, &(launch, arrive)) in times.iter().zip(launches_arrivals) {
            let need = time + slip;
            let stall = arrive.saturating_sub(need);
            total_stall += stall;
            slip += stall;
            let consume = need + stall;
            live_events.push((launch, 1));
            live_events.push((consume, -1));
            last_consume = last_consume.max(consume + teleport_cycles);
            ideal_last = ideal_last.max(time + teleport_cycles);
        }
        live_events.sort_unstable();
        let mut live = 0i64;
        let mut peak = 0i64;
        for (_, delta) in live_events {
            live += delta;
            peak = peak.max(live);
        }
        EprPipelineResult {
            makespan: last_consume,
            ideal_makespan: ideal_last,
            peak_live_eprs: peak as usize,
            total_stall_cycles: total_stall,
            teleports: times.len(),
        }
    }

    #[test]
    fn merged_peak_matches_the_sorted_sweep() {
        let mut rng = TestRng::seed_from_u64(0xacc0);
        let below = |rng: &mut TestRng, n: u64| rng.next_u64() % n;
        let (mut ties, mut zero_travel, mut same_cycle) = (0, 0, 0);
        for case in 0..2000 {
            // Short horizons and small travel make ties common.
            let n = below(&mut rng, 24) as usize;
            let mut times: Vec<u64> = (0..n).map(|_| below(&mut rng, 40)).collect();
            times.sort_unstable();
            let launches_arrivals: Vec<(u64, u64)> = times
                .iter()
                .map(|&t| {
                    let launch = below(&mut rng, t + 4);
                    (launch, launch + below(&mut rng, 4))
                })
                .collect();
            let mut sorted: Vec<u64> = launches_arrivals.iter().map(|&(l, _)| l).collect();
            sorted.sort_unstable();
            let arrivals = launches_arrivals.iter().map(|&(_, a)| a);
            assert_eq!(
                account_arrivals(times.iter().copied().zip(arrivals), sorted.into_iter()),
                account_arrivals_by_sort(&times, &launches_arrivals, TELEPORT_CYCLES),
                "case {case}: times {times:?}, launches/arrivals {launches_arrivals:?}"
            );

            ties += usize::from(times.windows(2).any(|w| w[0] == w[1]));
            zero_travel += usize::from(launches_arrivals.iter().any(|&(l, a)| l == a));
            let mut slip = 0;
            let consumes: Vec<u64> = times
                .iter()
                .zip(&launches_arrivals)
                .map(|(&t, &(_, arrive))| {
                    let consume = (t + slip).max(arrive);
                    slip = consume - t;
                    consume
                })
                .collect();
            same_cycle += usize::from(launches_arrivals.iter().any(|(l, _)| consumes.contains(l)));
        }
        assert!(
            ties > 100 && zero_travel > 100 && same_cycle > 100,
            "ties {ties}, zero travel {zero_travel}, same-cycle launch and consume {same_cycle}"
        );
    }

    /// How often each constraint of [`plan_launches_full`] set a launch.
    #[derive(Default)]
    struct Binding {
        /// Launches the window gate held past their target.
        window_gate: usize,
        /// Launches that waited past target and gate for a swap lane.
        bandwidth: usize,
    }

    /// Oracle of [`plan_launches`]: the planner as it was before it
    /// streamed, with one consume time per demand and `(launch,
    /// predicted arrival)` pairs, counting which constraint bound each
    /// launch.
    fn plan_launches_full(
        demands: &[(u64, u64)],
        policy: DistributionPolicy,
        bandwidth: usize,
        lead_slack_cycles: u64,
        binding: &mut Binding,
    ) -> Vec<(u64, u64)> {
        let mut slip: u64 = 0;
        let mut in_flight: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
        let mut consume_times: Vec<u64> = Vec::with_capacity(demands.len());
        let mut plan: Vec<(u64, u64)> = Vec::with_capacity(demands.len());

        for (j, &(time, travel)) in demands.iter().enumerate() {
            let need = time + slip;
            let target = match policy {
                DistributionPolicy::EagerPrefetch => 0,
                DistributionPolicy::JustInTime { .. } => {
                    need.saturating_sub(travel + lead_slack_cycles)
                }
            };
            let window_gate = match policy {
                DistributionPolicy::JustInTime { window } if j >= window => {
                    consume_times[j - window]
                }
                _ => 0,
            };
            let mut launch = target.max(window_gate);
            loop {
                while let Some(&Reverse(a)) = in_flight.peek() {
                    if a <= launch {
                        in_flight.pop();
                    } else {
                        break;
                    }
                }
                if in_flight.len() < bandwidth {
                    break;
                }
                let Some(&Reverse(earliest)) = in_flight.peek() else {
                    break;
                };
                launch = launch.max(earliest);
            }
            binding.window_gate += usize::from(window_gate > target);
            binding.bandwidth += usize::from(launch > target.max(window_gate));
            let arrive = launch + travel;
            in_flight.push(Reverse(arrive));

            let stall = arrive.saturating_sub(need);
            slip += stall;
            consume_times.push(need + stall);
            plan.push((launch, arrive));
        }
        plan
    }

    #[test]
    fn streaming_planner_matches_the_full_recurrence() {
        let mut rng = TestRng::seed_from_u64(0x91a2);
        let below = |rng: &mut TestRng, n: u64| rng.next_u64() % n;
        let mut binding = Binding::default();
        for case in 0..2000 {
            // Dense demand and long travel, so windows and lanes bind.
            let n = below(&mut rng, 40) as usize;
            let mut times: Vec<u64> = (0..n).map(|_| below(&mut rng, 60)).collect();
            times.sort_unstable();
            let demands: Vec<(u64, u64)> =
                times.iter().map(|&t| (t, below(&mut rng, 12))).collect();
            let slack = below(&mut rng, 4);
            let policies = [
                DistributionPolicy::EagerPrefetch,
                DistributionPolicy::JustInTime { window: 1 },
                DistributionPolicy::JustInTime { window: 2 },
                DistributionPolicy::JustInTime { window: 64 },
                DistributionPolicy::JustInTime { window: n + 1 },
            ];
            for policy in policies {
                for bandwidth in [1, 3, 256] {
                    let full = plan_launches_full(&demands, policy, bandwidth, slack, &mut binding);
                    let launches: Vec<u64> = full.iter().map(|&(l, _)| l).collect();
                    assert_eq!(
                        plan_launches(demands.iter().copied(), policy, bandwidth, slack),
                        launches,
                        "case {case}: {policy:?}, bandwidth {bandwidth}, slack {slack}, \
                         demands {demands:?}"
                    );
                }
            }
        }
        assert!(
            binding.window_gate > 10_000 && binding.bandwidth > 10_000,
            "window gate bound {} launches, bandwidth {}",
            binding.window_gate,
            binding.bandwidth
        );
    }

    fn uniform_demands(n: u64, spacing: u64, distance: u32) -> Vec<EprDemand> {
        (0..n)
            .map(|i| EprDemand {
                time: 10 + i * spacing,
                distance,
            })
            .collect()
    }

    #[test]
    fn empty_trace() {
        let r = simulate_epr_distribution(
            &[],
            DistributionPolicy::EagerPrefetch,
            &EprConfig::default(),
        );
        assert_eq!(r.makespan, 0);
        assert_eq!(r.peak_live_eprs, 0);
        assert_eq!(r.latency_overhead(), 0.0);
    }

    #[test]
    fn jit_with_ample_window_has_no_stalls() {
        let demands = uniform_demands(100, 5, 3);
        let r = simulate_epr_distribution(
            &demands,
            DistributionPolicy::JustInTime { window: 64 },
            &EprConfig::default(),
        );
        assert_eq!(r.total_stall_cycles, 0);
        assert_eq!(r.makespan, r.ideal_makespan);
        // Just-in-time: only a handful of EPRs live at once.
        assert!(r.peak_live_eprs <= 4, "peak {}", r.peak_live_eprs);
    }

    #[test]
    fn eager_prefetch_floods_the_machine() {
        let demands = uniform_demands(100, 5, 3);
        let eager = simulate_epr_distribution(
            &demands,
            DistributionPolicy::EagerPrefetch,
            &EprConfig::default(),
        );
        // Everything is launched long before use: nearly all 100 pairs
        // are live simultaneously.
        assert!(eager.peak_live_eprs > 90, "peak {}", eager.peak_live_eprs);
        assert_eq!(eager.total_stall_cycles, 0);
    }

    #[test]
    fn jit_saves_qubits_at_small_latency() {
        // The §8.1 tradeoff in miniature.
        let demands = uniform_demands(500, 2, 4);
        let eager = simulate_epr_distribution(
            &demands,
            DistributionPolicy::EagerPrefetch,
            &EprConfig::default(),
        );
        let jit = simulate_epr_distribution(
            &demands,
            DistributionPolicy::JustInTime { window: 16 },
            &EprConfig::default(),
        );
        let savings = eager.peak_live_eprs as f64 / jit.peak_live_eprs as f64;
        assert!(savings > 10.0, "savings only {savings:.1}x");
        assert!(
            jit.latency_overhead() < 0.05,
            "overhead {:.2}%",
            jit.latency_overhead() * 100.0
        );
    }

    #[test]
    fn tiny_window_starves() {
        // Dense demand with long distances: window 1 cannot hide travel.
        let demands = uniform_demands(50, 1, 20);
        let r = simulate_epr_distribution(
            &demands,
            DistributionPolicy::JustInTime { window: 1 },
            &EprConfig::default(),
        );
        assert!(r.total_stall_cycles > 0);
        assert!(r.makespan > r.ideal_makespan);
        assert!(r.peak_live_eprs <= 2);
    }

    #[test]
    fn bandwidth_limits_throughput() {
        // 100 simultaneous demands, bandwidth 4: launches serialize.
        let demands: Vec<EprDemand> = (0..100)
            .map(|_| EprDemand {
                time: 10,
                distance: 8,
            })
            .collect();
        let tight = simulate_epr_distribution(
            &demands,
            DistributionPolicy::JustInTime { window: 1000 },
            &EprConfig {
                bandwidth: 4,
                ..Default::default()
            },
        );
        let wide = simulate_epr_distribution(
            &demands,
            DistributionPolicy::JustInTime { window: 1000 },
            &EprConfig {
                bandwidth: 1000,
                ..Default::default()
            },
        );
        assert!(tight.total_stall_cycles > wide.total_stall_cycles);
        assert!(tight.makespan > wide.makespan);
    }

    #[test]
    fn window_sweep_is_monotone_in_peak() {
        let demands = uniform_demands(200, 2, 6);
        let sweep = window_sweep(&demands, &[1, 4, 16, 64, 256], &EprConfig::default());
        for w in sweep.windows(2) {
            assert!(
                w[0].1.peak_live_eprs <= w[1].1.peak_live_eprs,
                "peak not monotone: {:?} vs {:?}",
                w[0],
                w[1]
            );
            assert!(w[0].1.total_stall_cycles >= w[1].1.total_stall_cycles);
        }
    }

    #[test]
    #[should_panic(expected = "sorted by time")]
    fn unsorted_demands_rejected() {
        let demands = vec![
            EprDemand {
                time: 5,
                distance: 1,
            },
            EprDemand {
                time: 2,
                distance: 1,
            },
        ];
        let _ = simulate_epr_distribution(
            &demands,
            DistributionPolicy::EagerPrefetch,
            &EprConfig::default(),
        );
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let _ = simulate_epr_distribution(
            &[],
            DistributionPolicy::JustInTime { window: 0 },
            &EprConfig::default(),
        );
    }
}
