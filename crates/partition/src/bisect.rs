//! Multilevel two-way partitioning: heavy-edge coarsening, greedy initial
//! bisection, and Fiduccia–Mattheyses refinement with rollback.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::graph::{cut_weight, Graph};

// The partitioner's constants mirror a conventional METIS-style
// configuration.

/// Allowed imbalance `epsilon`: each side may weigh up to
/// `(1 + EPSILON)` times its proportional target.
pub const EPSILON: f64 = 0.1;
/// Seed for all randomized tie-breaking, so every result is
/// deterministic.
const SEED: u64 = 42;
/// Coarsening stops when the graph has at most this many vertices.
const COARSEST_SIZE: usize = 24;
/// Maximum FM refinement passes per level.
const FM_PASSES: usize = 4;

/// The result of a two-way partition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bisection {
    /// Side (0 or 1) of each vertex.
    pub assignment: Vec<u8>,
    /// Total weight of crossing edges.
    pub cut: u64,
    /// Total vertex weight on side 0.
    pub left_weight: u64,
    /// Total vertex weight on side 1.
    pub right_weight: u64,
}

impl Bisection {
    fn from_assignment(graph: &Graph, assignment: Vec<u8>) -> Self {
        let cut = cut_weight(graph, &assignment);
        let mut left = 0;
        let mut right = 0;
        for (v, &side) in assignment.iter().enumerate() {
            if side == 0 {
                left += graph.vertex_weight(v as u32);
            } else {
                right += graph.vertex_weight(v as u32);
            }
        }
        Bisection {
            assignment,
            cut,
            left_weight: left,
            right_weight: right,
        }
    }
}

/// One level of the coarsening hierarchy.
struct CoarseLevel {
    /// Maps each fine vertex to its coarse vertex.
    fine_to_coarse: Vec<u32>,
    graph: Graph,
}

/// Partitions `graph` into two sides using the multilevel scheme,
/// targeting `target_left_fraction` of the total vertex weight for
/// side 0 (0.5 for an even split; `scq_layout::place`'s recursive
/// bisection uses other fractions).
///
/// This is the crate's METIS-equivalent entry point: coarsen by
/// heavy-edge matching, bisect the coarsest graph greedily, then project
/// back up with FM refinement at every level.
///
/// # Examples
///
/// ```
/// use scq_partition::{bisect, Graph};
///
/// // Two triangles joined by one bridge edge: the optimal cut is 1.
/// let g = Graph::from_edges(
///     6,
///     &[(0, 1, 1), (1, 2, 1), (2, 0, 1), (3, 4, 1), (4, 5, 1), (5, 3, 1), (2, 3, 1)],
/// )
/// .unwrap();
/// let b = bisect(&g, 0.5);
/// assert_eq!(b.cut, 1);
/// ```
pub fn bisect(graph: &Graph, target_left_fraction: f64) -> Bisection {
    let n = graph.num_vertices();
    if n == 0 {
        return Bisection {
            assignment: Vec::new(),
            cut: 0,
            left_weight: 0,
            right_weight: 0,
        };
    }
    if n == 1 {
        return Bisection::from_assignment(graph, vec![0]);
    }

    // Coarsening phase.
    let mut levels: Vec<CoarseLevel> = Vec::new();
    let mut current = graph.clone();
    let mut rng = StdRng::seed_from_u64(SEED);
    while current.num_vertices() > COARSEST_SIZE {
        let level = coarsen_once(&current, &mut rng);
        let shrink = level.graph.num_vertices() as f64 / current.num_vertices() as f64;
        let coarse = level.graph.clone();
        levels.push(level);
        current = coarse;
        if shrink > 0.95 {
            break; // matching stalled (e.g. star graphs); stop early
        }
    }

    // Initial partition on the coarsest graph.
    let mut assignment = initial_bisection(&current, target_left_fraction, &mut rng);
    fm_refine(&current, &mut assignment, target_left_fraction);

    // Uncoarsening with refinement at each level. The fine graph of
    // level `i` is the coarse graph of level `i - 1` (or the input graph
    // at the bottom).
    for i in (0..levels.len()).rev() {
        let level = &levels[i];
        let fine_graph: &Graph = if i == 0 { graph } else { &levels[i - 1].graph };
        let fine_n = level.fine_to_coarse.len();
        let mut fine_assignment = vec![0u8; fine_n];
        for v in 0..fine_n {
            fine_assignment[v] = assignment[level.fine_to_coarse[v] as usize];
        }
        fm_refine(fine_graph, &mut fine_assignment, target_left_fraction);
        assignment = fine_assignment;
    }

    Bisection::from_assignment(graph, assignment)
}

/// One round of heavy-edge matching contraction.
fn coarsen_once(graph: &Graph, rng: &mut StdRng) -> CoarseLevel {
    let n = graph.num_vertices();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);

    const UNMATCHED: u32 = u32::MAX;
    let mut mate = vec![UNMATCHED; n];
    for &v in &order {
        if mate[v as usize] != UNMATCHED {
            continue;
        }
        // Heaviest unmatched neighbor; ties broken by smaller id.
        let mut best: Option<(u64, Reverse<u32>)> = None;
        let mut best_u = v;
        for (u, w) in graph.neighbors(v) {
            if mate[u as usize] == UNMATCHED && u != v {
                let key = (w, Reverse(u));
                if best.map(|b| key > b).unwrap_or(true) {
                    best = Some(key);
                    best_u = u;
                }
            }
        }
        mate[v as usize] = best_u;
        mate[best_u as usize] = v;
    }

    // Assign coarse ids.
    let mut fine_to_coarse = vec![UNMATCHED; n];
    let mut next = 0u32;
    for v in 0..n as u32 {
        if fine_to_coarse[v as usize] != UNMATCHED {
            continue;
        }
        fine_to_coarse[v as usize] = next;
        let m = mate[v as usize];
        if m != v {
            fine_to_coarse[m as usize] = next;
        }
        next += 1;
    }

    // Build the coarse graph.
    let coarse_n = next;
    let mut vwgt = vec![0u64; coarse_n as usize];
    for v in 0..n as u32 {
        vwgt[fine_to_coarse[v as usize] as usize] += graph.vertex_weight(v);
    }
    let mut edges: Vec<(u32, u32, u64)> = Vec::new();
    for v in 0..n as u32 {
        let cv = fine_to_coarse[v as usize];
        for (u, w) in graph.neighbors(v) {
            let cu = fine_to_coarse[u as usize];
            if cv < cu {
                edges.push((cv, cu, w));
            }
        }
    }
    let coarse = Graph::from_edges_weighted(coarse_n, &edges, &vwgt)
        .expect("coarse graph construction cannot fail on a valid fine graph");
    CoarseLevel {
        fine_to_coarse,
        graph: coarse,
    }
}

/// Greedy region-growing initial bisection; best of several starts.
fn initial_bisection(graph: &Graph, target_left_fraction: f64, rng: &mut StdRng) -> Vec<u8> {
    let n = graph.num_vertices();
    let total = graph.total_vertex_weight();
    let target_left = (total as f64 * target_left_fraction).round() as u64;

    let mut best: Option<(u64, Vec<u8>)> = None;
    let tries = 4.min(n);
    for _ in 0..tries.max(1) {
        let start = rng.gen_range(0..n) as u32;
        let mut assignment = vec![1u8; n];
        let mut left_weight = 0u64;
        // Max-connection frontier with lazy invalidation.
        let mut conn = vec![0u64; n];
        let mut heap: BinaryHeap<(u64, u32)> = BinaryHeap::new();
        heap.push((0, start));
        let mut grown = 0usize;
        // No vertex below `ungrown` is still ungrown. Vertices only
        // leave the ungrown side, so the lowest ungrown index only grows.
        let mut ungrown = 0usize;
        while left_weight < target_left && grown < n {
            let v = loop {
                match heap.pop() {
                    Some((c, v)) => {
                        if assignment[v as usize] == 0 || c < conn[v as usize] {
                            continue; // already grown or stale entry
                        }
                        break Some(v);
                    }
                    None => break None,
                }
            };
            let v = match v {
                Some(v) => v,
                // Disconnected graph: seed a new region from the lowest
                // ungrown vertex.
                None => match assignment[ungrown..].iter().position(|&s| s == 1) {
                    Some(offset) => {
                        ungrown += offset;
                        ungrown as u32
                    }
                    None => break,
                },
            };
            assignment[v as usize] = 0;
            left_weight += graph.vertex_weight(v);
            grown += 1;
            for (u, w) in graph.neighbors(v) {
                if assignment[u as usize] == 1 {
                    conn[u as usize] += w;
                    heap.push((conn[u as usize], u));
                }
            }
        }
        let cut = cut_weight(graph, &assignment);
        if best.as_ref().map(|(c, _)| cut < *c).unwrap_or(true) {
            best = Some((cut, assignment));
        }
    }
    best.expect("at least one growing attempt").1
}

/// In-place FM refinement with rollback to the best observed prefix.
fn fm_refine(graph: &Graph, assignment: &mut [u8], target_left_fraction: f64) {
    let n = graph.num_vertices();
    if n < 2 {
        return;
    }
    let total = graph.total_vertex_weight();
    let target_left = total as f64 * target_left_fraction;
    let max_left = (target_left * (1.0 + EPSILON)).round() as u64;
    let min_left = (target_left * (1.0 - EPSILON)).round() as u64;

    for _pass in 0..FM_PASSES {
        let mut left_weight: u64 = (0..n as u32)
            .filter(|&v| assignment[v as usize] == 0)
            .map(|v| graph.vertex_weight(v))
            .sum();

        // gain[v] = external - internal connection weight.
        let mut gain = vec![0i64; n];
        for v in 0..n as u32 {
            let mut g = 0i64;
            for (u, w) in graph.neighbors(v) {
                if assignment[u as usize] != assignment[v as usize] {
                    g += w as i64;
                } else {
                    g -= w as i64;
                }
            }
            gain[v as usize] = g;
        }

        let mut heap: BinaryHeap<(i64, u32)> =
            (0..n as u32).map(|v| (gain[v as usize], v)).collect();
        let mut locked = vec![false; n];
        let mut cur_cut = cut_weight(graph, assignment) as i64;
        let mut best_cut = cur_cut;
        let mut moves: Vec<u32> = Vec::new();
        let mut best_prefix = 0usize;

        while let Some((g, v)) = heap.pop() {
            if locked[v as usize] || g != gain[v as usize] {
                continue; // stale heap entry
            }
            let vw = graph.vertex_weight(v);
            let new_left = if assignment[v as usize] == 0 {
                left_weight - vw
            } else {
                left_weight + vw
            };
            // Admissible when the result stays inside the balance band,
            // or the move strictly improves balance.
            let old_dist = (left_weight as f64 - target_left).abs();
            let new_dist = (new_left as f64 - target_left).abs();
            let in_band = new_left >= min_left && new_left <= max_left;
            if !in_band && new_dist >= old_dist {
                continue;
            }
            // Apply the move.
            assignment[v as usize] ^= 1;
            left_weight = new_left;
            locked[v as usize] = true;
            cur_cut -= g;
            moves.push(v);
            for (u, w) in graph.neighbors(v) {
                if locked[u as usize] {
                    continue;
                }
                if assignment[u as usize] == assignment[v as usize] {
                    gain[u as usize] -= 2 * w as i64;
                } else {
                    gain[u as usize] += 2 * w as i64;
                }
                heap.push((gain[u as usize], u));
            }
            if cur_cut < best_cut {
                best_cut = cur_cut;
                best_prefix = moves.len();
            }
        }

        // Roll back past the best prefix.
        for &v in moves.iter().skip(best_prefix) {
            assignment[v as usize] ^= 1;
        }
        if best_prefix == 0 {
            break; // no improvement this pass
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: u32) -> Graph {
        let edges: Vec<(u32, u32, u64)> = (0..n - 1).map(|i| (i, i + 1, 1)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    fn two_cliques(k: u32) -> Graph {
        let mut edges = Vec::new();
        for side in 0..2u32 {
            let base = side * k;
            for a in 0..k {
                for b in (a + 1)..k {
                    edges.push((base + a, base + b, 1));
                }
            }
        }
        edges.push((k - 1, k, 1)); // bridge
        Graph::from_edges(2 * k, &edges).unwrap()
    }

    #[test]
    fn path_splits_with_unit_cut() {
        let b = bisect(&path(16), 0.5);
        assert_eq!(b.cut, 1);
        assert_eq!(b.left_weight, 8);
        assert_eq!(b.right_weight, 8);
    }

    #[test]
    fn bridge_between_cliques_is_found() {
        let b = bisect(&two_cliques(8), 0.5);
        assert_eq!(b.cut, 1, "assignment: {:?}", b.assignment);
        assert_eq!(b.left_weight, 8);
    }

    #[test]
    fn large_path_stays_balanced() {
        let g = path(501);
        let b = bisect(&g, 0.5);
        let total = g.total_vertex_weight() as f64;
        let frac = b.left_weight as f64 / total;
        assert!((frac - 0.5).abs() <= EPSILON + 0.01, "left fraction {frac}");
        assert!(b.cut <= 3, "cut = {}", b.cut);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = two_cliques(10);
        let a = bisect(&g, 0.5);
        let b = bisect(&g, 0.5);
        assert_eq!(a, b);
    }

    #[test]
    fn respects_target_fraction() {
        let g = path(100);
        let b = bisect(&g, 0.25);
        let frac = b.left_weight as f64 / g.total_vertex_weight() as f64;
        assert!((frac - 0.25).abs() < 0.1, "left fraction {frac}");
    }

    #[test]
    fn handles_trivial_graphs() {
        let empty = Graph::from_edges(0, &[]).unwrap();
        assert_eq!(bisect(&empty, 0.5).assignment.len(), 0);

        let single = Graph::from_edges(1, &[]).unwrap();
        let b = bisect(&single, 0.5);
        assert_eq!(b.assignment, vec![0]);
        assert_eq!(b.cut, 0);

        let pair = Graph::from_edges(2, &[(0, 1, 5)]).unwrap();
        let b = bisect(&pair, 0.5);
        assert_eq!(b.cut, 5); // unavoidable
        assert_ne!(b.assignment[0], b.assignment[1]);
    }

    #[test]
    fn disconnected_graph_partitions_cleanly() {
        // Two disjoint triangles: cut 0 is achievable.
        let g = Graph::from_edges(
            6,
            &[
                (0, 1, 1),
                (1, 2, 1),
                (2, 0, 1),
                (3, 4, 1),
                (4, 5, 1),
                (5, 3, 1),
            ],
        )
        .unwrap();
        let b = bisect(&g, 0.5);
        assert_eq!(b.cut, 0);
        assert_eq!(b.left_weight, 3);
    }

    #[test]
    fn weighted_vertices_balance_by_weight() {
        // One heavy vertex should sit alone against four light ones.
        let g = Graph::from_edges_weighted(
            5,
            &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)],
            &[4, 1, 1, 1, 1],
        )
        .unwrap();
        let b = bisect(&g, 0.5);
        let frac = b.left_weight as f64 / 8.0;
        assert!((frac - 0.5).abs() <= 0.15, "left fraction {frac}");
    }
}
