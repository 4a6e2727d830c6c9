//! Property-based tests: the partitioner must produce valid, balanced
//! partitions on arbitrary graphs.

use proptest::prelude::*;
use scq_partition::{bisect, cut_weight, Graph, EPSILON};

/// Strategy generating an arbitrary connected-ish weighted graph.
fn arb_graph(max_n: u32, max_extra_edges: usize) -> impl Strategy<Value = Graph> {
    (2..=max_n)
        .prop_flat_map(move |n| {
            let extra = proptest::collection::vec(
                (0..n, 0..n.saturating_sub(1).max(1), 1u64..10),
                0..max_extra_edges,
            );
            (Just(n), extra)
        })
        .prop_map(|(n, extra)| {
            // A spine path guarantees no isolated vertices dominate.
            let mut edges: Vec<(u32, u32, u64)> = (0..n - 1).map(|i| (i, i + 1, 1)).collect();
            for (a, off, w) in extra {
                let b = (a + 1 + off) % n;
                if a != b {
                    edges.push((a.min(b), a.max(b), w));
                }
            }
            Graph::from_edges(n, &edges).expect("generated edges are valid")
        })
}

proptest! {
    #[test]
    fn bisection_assignment_is_total_and_binary(g in arb_graph(40, 60)) {
        let b = bisect(&g, 0.5);
        prop_assert_eq!(b.assignment.len(), g.num_vertices());
        prop_assert!(b.assignment.iter().all(|&s| s <= 1));
    }

    #[test]
    fn bisection_weights_are_consistent(g in arb_graph(40, 60)) {
        let b = bisect(&g, 0.5);
        prop_assert_eq!(b.left_weight + b.right_weight, g.total_vertex_weight());
        prop_assert_eq!(b.cut, cut_weight(&g, &b.assignment));
    }

    #[test]
    fn bisection_respects_balance_tolerance(g in arb_graph(60, 80)) {
        let b = bisect(&g, 0.5);
        let total = g.total_vertex_weight() as f64;
        let frac = b.left_weight as f64 / total;
        // Tolerance plus one-vertex granularity slack.
        let slack = EPSILON + 1.5 / total;
        prop_assert!(
            (frac - 0.5).abs() <= slack,
            "left fraction {} outside +/-{}", frac, slack
        );
    }

    #[test]
    fn cut_never_exceeds_total_edge_weight(g in arb_graph(40, 60)) {
        let b = bisect(&g, 0.5);
        prop_assert!(b.cut <= g.total_edge_weight());
    }

    #[test]
    fn bisection_is_deterministic(g in arb_graph(30, 40)) {
        prop_assert_eq!(bisect(&g, 0.5), bisect(&g, 0.5));
    }

    #[test]
    fn multilevel_is_competitive_with_naive_split(g in arb_graph(40, 60)) {
        // The multilevel heuristic should be at least competitive with a
        // naive first-half / second-half split on spine-structured
        // graphs (small tolerance: FM is a heuristic, not an oracle).
        let b = bisect(&g, 0.5);
        let n = g.num_vertices();
        let naive: Vec<u8> = (0..n).map(|v| u8::from(v >= n / 2)).collect();
        let bound = cut_weight(&g, &naive) * 5 / 4 + 2;
        prop_assert!(
            b.cut <= bound,
            "cut {} far worse than naive {}", b.cut, cut_weight(&g, &naive)
        );
    }
}
