//! Differential certification of the blocked-op queue swap: the
//! in-order policies' issue barrier (lowest still-blocked op index,
//! found by lazy deletion) must compute the same wake order on the
//! shared [`CalendarQueue`] event core as on the
//! `BinaryHeap<Reverse<u32>>` it replaced.
//!
//! Two layers:
//!
//! - a queue-level twin simulation driving both containers through the
//!   engine's exact lazy-deletion pattern on random unblock schedules,
//!   asserting the barrier sequences are identical, and
//! - an engine-level run of a fig6 application under the policies that
//!   consult the queue (P1/P2), differentially against the retained
//!   naive-stepping reference engine (which derives the barrier by a
//!   full state scan and never touches the queue).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use scq_apps::Benchmark;
use scq_braid::{schedule_traced_reference, schedule_with, BraidConfig, EventCollector, Policy};
use scq_ir::{DependencyDag, InteractionGraph};
use scq_layout::place;
use scq_mesh::{CalendarQueue, EventQueue};

/// The engine's barrier computation on the legacy binary heap.
fn heap_barrier(heap: &mut BinaryHeap<Reverse<u32>>, blocked: &[bool], n: u32) -> u32 {
    loop {
        match heap.peek() {
            Some(&Reverse(i)) if !blocked[i as usize] => {
                heap.pop();
            }
            Some(&Reverse(i)) => break i,
            None => break n,
        }
    }
}

/// The engine's barrier computation on the shared event core.
fn queue_barrier(queue: &mut CalendarQueue<()>, blocked: &[bool], n: u32) -> u32 {
    loop {
        match queue.peek() {
            Some((i, ())) if !blocked[i as usize] => {
                queue.pop();
            }
            Some((i, ())) => break i as u32,
            None => break n,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lazy_deletion_barriers_agree_on_random_unblock_schedules(
        n in 1usize..200,
        initially_ready in proptest::collection::vec(0u8..2, 1..200),
        unblock_order in proptest::collection::vec(0u16..10_000, 1..64),
    ) {
        // Init mirrors the engine: every op with unresolved
        // dependencies enters both containers once; ready ops never do.
        let mut blocked = vec![false; n];
        let mut heap: BinaryHeap<Reverse<u32>> = BinaryHeap::new();
        let mut queue: CalendarQueue<()> = CalendarQueue::new();
        for (i, b) in blocked.iter_mut().enumerate() {
            if initially_ready.get(i).copied().unwrap_or(1) != 0 {
                *b = true;
                heap.push(Reverse(i as u32));
                queue.push(i as u64, ());
            }
        }
        // Interleave barrier queries with arbitrary unblocks (ops never
        // re-enter Blocked, exactly as in the engine).
        for &pick in &unblock_order {
            let a = heap_barrier(&mut heap, &blocked, n as u32);
            let b = queue_barrier(&mut queue, &blocked, n as u32);
            prop_assert_eq!(a, b, "barrier diverged mid-schedule");
            blocked[pick as usize % n] = false;
        }
        // Drain to quiescence: with everything unblocked both sides
        // must agree the barrier is the end of the program.
        blocked.iter_mut().for_each(|b| *b = false);
        let a = heap_barrier(&mut heap, &blocked, n as u32);
        let b = queue_barrier(&mut queue, &blocked, n as u32);
        prop_assert_eq!(a, b);
        prop_assert_eq!(a, n as u32);
        prop_assert!(heap.is_empty() && queue.is_empty());
    }
}

#[test]
fn in_order_policies_match_the_reference_engine_on_a_fig6_app() {
    // P1/P2 are the only policies that consult the blocked queue; the
    // reference engine computes the same barrier by scanning op states
    // directly, so stats + trace equality here certifies the wake
    // order end to end on a real fig6 workload.
    let circuit = Benchmark::Gse.small_circuit();
    let dag = DependencyDag::from_circuit(&circuit);
    for policy in [Policy::P1, Policy::P2] {
        let config = BraidConfig {
            policy,
            code_distance: 5,
            ..Default::default()
        };
        let graph = InteractionGraph::from_circuit(&circuit);
        let layout = place(&graph, policy.layout_strategy(), None);
        let mut sink = EventCollector::default();
        let fast_stats =
            schedule_with(&circuit, &dag, &layout, &config, None, &mut sink).expect("fast engine");
        let fast_trace = sink.into_trace(&layout, &circuit, &fast_stats);
        let (ref_stats, ref_trace) =
            schedule_traced_reference(&circuit, &dag, &layout, &config).expect("reference engine");
        assert_eq!(fast_stats, ref_stats, "{policy} stats diverged");
        assert_eq!(fast_trace, ref_trace, "{policy} trace diverged");
    }
}
