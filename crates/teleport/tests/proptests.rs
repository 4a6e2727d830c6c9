//! Property-based tests: the SIMD scheduler and EPR pipeline must
//! respect conservation laws and monotone tradeoffs on arbitrary inputs.

use proptest::prelude::*;
use scq_ir::{Circuit, DependencyDag, Gate};
use scq_teleport::{
    schedule_simd, simulate_epr_distribution, DistributionPolicy, EprConfig, EprDemand,
};

fn arb_circuit() -> impl Strategy<Value = Circuit> {
    (2u32..10)
        .prop_flat_map(|n| {
            let inst = (0usize..4, 0..n, 0..n.saturating_sub(1).max(1));
            (Just(n), proptest::collection::vec(inst, 1..80))
        })
        .prop_map(|(n, raw)| {
            let mut b = Circuit::builder("prop", n);
            for (kind, a, off) in raw {
                match kind {
                    0 => {
                        b.h(a);
                    }
                    1 => {
                        b.t(a);
                    }
                    _ => {
                        let second = (a + 1 + off) % n;
                        if second != a {
                            b.try_push(Gate::Cnot, &[a, second]).unwrap();
                        }
                    }
                }
            }
            b.finish()
        })
}

fn arb_demands() -> impl Strategy<Value = Vec<EprDemand>> {
    // Demand times start past the longest possible travel (12 hops at
    // the default 1 cycle/hop), so an eager launch at t = 0 can always
    // arrive on time.
    proptest::collection::vec((50u64..250, 1u32..12), 1..120).prop_map(|mut raw| {
        raw.sort_by_key(|&(t, _)| t);
        raw.into_iter()
            .map(|(time, distance)| EprDemand { time, distance })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn simd_schedules_every_op(c in arb_circuit()) {
        let dag = DependencyDag::from_circuit(&c);
        let s = schedule_simd(&c, &dag);
        prop_assert_eq!(s.total_ops, c.len());
        prop_assert!(s.timesteps as usize >= dag.depth());
        prop_assert_eq!(s.magic_teleports as usize, c.t_count());
        prop_assert_eq!(s.teleport_times.len() as u64, s.total_teleports());
    }

    #[test]
    fn epr_conservation_and_bounds(demands in arb_demands()) {
        let config = EprConfig::default();
        let r = simulate_epr_distribution(
            &demands,
            DistributionPolicy::JustInTime { window: 16 },
            &config,
        );
        prop_assert_eq!(r.teleports, demands.len());
        prop_assert!(r.peak_live_eprs <= demands.len());
        prop_assert!(r.peak_live_eprs >= 1);
        prop_assert!(r.makespan >= r.ideal_makespan);
    }

    #[test]
    fn window_monotonicity(demands in arb_demands()) {
        let config = EprConfig::default();
        let mut prev_peak = 0usize;
        let mut prev_stall = u64::MAX;
        for window in [1usize, 4, 16, 64] {
            let r = simulate_epr_distribution(
                &demands,
                DistributionPolicy::JustInTime { window },
                &config,
            );
            prop_assert!(r.peak_live_eprs >= prev_peak, "peak not monotone in window");
            prop_assert!(r.total_stall_cycles <= prev_stall, "stalls not antitone");
            prev_peak = r.peak_live_eprs;
            prev_stall = r.total_stall_cycles;
        }
    }

    #[test]
    fn eager_never_stalls_with_ample_bandwidth(demands in arb_demands()) {
        let config = EprConfig {
            bandwidth: 10_000,
            ..Default::default()
        };
        let r = simulate_epr_distribution(&demands, DistributionPolicy::EagerPrefetch, &config);
        prop_assert_eq!(r.total_stall_cycles, 0);
        prop_assert_eq!(r.makespan, r.ideal_makespan);
    }
}
