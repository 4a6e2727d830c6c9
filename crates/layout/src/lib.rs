//! Interaction-aware placement of logical qubits on 2D tile grids.
//!
//! Paper Section 6.2 ("Optimizing Qubit Arrangement"): "the optimized
//! arrangement of qubit tiles attempts to minimize the sum of Manhattan
//! distances between pairs of tiles involved in non-local, braiding
//! operations ... through iterative calls to a graph partitioning
//! library." This crate implements that optimization by recursive
//! bisection of the interaction graph over recursive halves of the grid,
//! plus the naive baselines the paper compares against.
//!
//! Two placement layers live here:
//!
//! - **Static** ([`place`]): minimize weighted Manhattan distance from
//!   the interaction graph alone — no simulation in the loop.
//! - **Congestion-aware** ([`optimize_placement`]): iteratively refine
//!   a tile assignment against a *measured* per-link
//!   [`LinkHeatmap`](scq_mesh::LinkHeatmap) from a fabric profiling
//!   pass, relocating high-demand tiles out of hot columns and
//!   accepting only moves that strictly improve the measured
//!   [`PlacementCost`]. The planar teleport machine injects its EPR
//!   fabric simulator as the profiling oracle (`scq-teleport`'s
//!   `CongestionAwarePlacement`).
//!
//! # Examples
//!
//! ```
//! use scq_ir::{Circuit, InteractionGraph};
//! use scq_layout::{place, LayoutStrategy};
//!
//! let mut b = Circuit::builder("ring", 8);
//! for i in 0..8 {
//!     b.cnot(i, (i + 1) % 8);
//! }
//! let g = InteractionGraph::from_circuit(&b.finish());
//! let optimized = place(&g, LayoutStrategy::InteractionAware);
//! let naive = place(&g, LayoutStrategy::Linear);
//! assert!(optimized.weighted_distance(&g) <= naive.weighted_distance(&g));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod congestion;

pub use congestion::{optimize_placement, PlacementCost, PlacementOutcome};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use scq_ir::InteractionGraph;
use scq_mesh::Coord;
use scq_partition::{bisect, Graph};

/// Placement strategies for mapping logical qubits to grid tiles.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LayoutStrategy {
    /// Program order, row-major — the paper's "naive arrangement".
    Linear,
    /// Uniformly random placement with the given seed (a worst-case-ish
    /// baseline for ablations).
    Random(u64),
    /// Recursive-bisection placement minimizing weighted Manhattan
    /// distance (the paper's optimization).
    InteractionAware,
}

/// An assignment of every logical qubit to a distinct tile of a
/// `grid_width x grid_height` grid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Layout {
    grid_width: u32,
    grid_height: u32,
    tile_of: Vec<Coord>,
}

impl Layout {
    /// Grid width in tiles.
    pub fn grid_width(&self) -> u32 {
        self.grid_width
    }

    /// Grid height in tiles.
    pub fn grid_height(&self) -> u32 {
        self.grid_height
    }

    /// Number of placed logical qubits.
    pub fn num_qubits(&self) -> usize {
        self.tile_of.len()
    }

    /// Tile of logical qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn tile(&self, q: u32) -> Coord {
        self.tile_of[q as usize]
    }

    /// All tiles in qubit order.
    pub fn tiles(&self) -> &[Coord] {
        &self.tile_of
    }

    /// Sum over interacting pairs of `weight * manhattan_distance` — the
    /// objective Section 6.2 minimizes.
    pub fn weighted_distance(&self, graph: &InteractionGraph) -> u64 {
        graph
            .iter()
            .map(|(a, b, w)| w * u64::from(self.tile(a).manhattan(self.tile(b))))
            .sum()
    }

    /// Average tile distance per interaction (0 for interaction-free
    /// circuits).
    pub fn avg_interaction_distance(&self, graph: &InteractionGraph) -> f64 {
        let total = graph.total_weight();
        if total == 0 {
            return 0.0;
        }
        self.weighted_distance(graph) as f64 / total as f64
    }

    /// Verifies that every qubit sits on a distinct in-bounds tile.
    pub fn check_invariants(&self) -> bool {
        let mut seen = std::collections::HashSet::new();
        self.tile_of
            .iter()
            .all(|&t| t.x < self.grid_width && t.y < self.grid_height && seen.insert((t.x, t.y)))
    }
}

/// Chooses a near-square grid with at least `n` tiles.
pub fn default_grid(n: u32) -> (u32, u32) {
    if n == 0 {
        return (1, 1);
    }
    let w = (f64::from(n)).sqrt().ceil() as u32;
    let h = n.div_ceil(w);
    (w, h)
}

/// Places the qubits of `graph` on the near-square grid of
/// [`default_grid`].
pub fn place(graph: &InteractionGraph, strategy: LayoutStrategy) -> Layout {
    let n = graph.num_qubits();
    let (w, h) = default_grid(n);
    let tile_of = match strategy {
        LayoutStrategy::Linear => (0..n).map(|q| Coord::new(q % w, q / w)).collect(),
        LayoutStrategy::Random(seed) => {
            let mut cells: Vec<Coord> = (0..h)
                .flat_map(|y| (0..w).map(move |x| Coord::new(x, y)))
                .collect();
            let mut rng = StdRng::seed_from_u64(seed);
            cells.shuffle(&mut rng);
            cells.truncate(n as usize);
            cells
        }
        LayoutStrategy::InteractionAware => interaction_aware(graph, w, h),
    };
    let mut layout = Layout {
        grid_width: w,
        grid_height: h,
        tile_of,
    };
    if strategy == LayoutStrategy::InteractionAware {
        refine_swaps(&mut layout, graph, 4);
    }
    debug_assert!(layout.check_invariants());
    layout
}

/// Greedy local-swap refinement: repeatedly swaps nearby tile contents
/// (qubit-qubit or qubit-empty) when doing so lowers the weighted
/// Manhattan distance, until a pass makes no progress or `max_passes`
/// is reached.
///
/// [`place`] runs this automatically for
/// [`LayoutStrategy::InteractionAware`]; it is public so ablation
/// studies can apply it to other baselines.
pub fn refine_swaps(layout: &mut Layout, graph: &InteractionGraph, max_passes: usize) {
    let n = layout.num_qubits();
    let (w, h) = (layout.grid_width, layout.grid_height);
    let mut adj: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
    for (a, b, weight) in graph.iter() {
        adj[a as usize].push((b, weight));
        adj[b as usize].push((a, weight));
    }
    let idx = |c: Coord| (c.y * w + c.x) as usize;
    let mut occupant: Vec<Option<u32>> = vec![None; (w * h) as usize];
    for q in 0..n {
        occupant[idx(layout.tile_of[q])] = Some(q as u32);
    }

    // Candidate swap partners: forward-only offsets so each unordered
    // pair is examined once per pass.
    const OFFSETS: [(i64, i64); 6] = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 0), (0, 2)];

    let dist = |a: Coord, b: Coord| u64::from(a.manhattan(b));
    for _pass in 0..max_passes {
        let mut improved = false;
        for y in 0..h {
            for x in 0..w {
                let t1 = Coord::new(x, y);
                for (dx, dy) in OFFSETS {
                    let nx = i64::from(x) + dx;
                    let ny = i64::from(y) + dy;
                    if nx < 0 || ny < 0 || nx >= i64::from(w) || ny >= i64::from(h) {
                        continue;
                    }
                    let t2 = Coord::new(nx as u32, ny as u32);
                    let q1 = occupant[idx(t1)];
                    let q2 = occupant[idx(t2)];
                    if q1.is_none() && q2.is_none() {
                        continue;
                    }
                    let mut delta: i64 = 0;
                    if let Some(q1) = q1 {
                        for &(nb, wgt) in &adj[q1 as usize] {
                            if Some(nb) == q2 {
                                continue; // pair distance unchanged by swap
                            }
                            let tn = layout.tile_of[nb as usize];
                            delta += wgt as i64 * (dist(t2, tn) as i64 - dist(t1, tn) as i64);
                        }
                    }
                    if let Some(q2) = q2 {
                        for &(nb, wgt) in &adj[q2 as usize] {
                            if Some(nb) == q1 {
                                continue;
                            }
                            let tn = layout.tile_of[nb as usize];
                            delta += wgt as i64 * (dist(t1, tn) as i64 - dist(t2, tn) as i64);
                        }
                    }
                    if delta < 0 {
                        if let Some(q1) = q1 {
                            layout.tile_of[q1 as usize] = t2;
                        }
                        if let Some(q2) = q2 {
                            layout.tile_of[q2 as usize] = t1;
                        }
                        occupant.swap(idx(t1), idx(t2));
                        improved = true;
                    }
                }
            }
        }
        if !improved {
            break;
        }
    }
}

/// Recursive-bisection placement.
fn interaction_aware(graph: &InteractionGraph, w: u32, h: u32) -> Vec<Coord> {
    let n = graph.num_qubits();
    let mut tile_of = vec![Coord::new(0, 0); n as usize];
    if n == 0 {
        return tile_of;
    }
    let pgraph = to_partition_graph(graph);
    let all: Vec<u32> = (0..n).collect();
    let mut local_of = vec![u32::MAX; n as usize];
    assign_region(
        &pgraph,
        &all,
        Region { x: 0, y: 0, w, h },
        &mut tile_of,
        &mut local_of,
    );
    tile_of
}

#[derive(Clone, Copy, Debug)]
struct Region {
    x: u32,
    y: u32,
    w: u32,
    h: u32,
}

impl Region {
    fn cells(self) -> u64 {
        u64::from(self.w) * u64::from(self.h)
    }
}

fn to_partition_graph(graph: &InteractionGraph) -> Graph {
    let edges: Vec<(u32, u32, u64)> = graph.iter().collect();
    Graph::from_edges(graph.num_qubits(), &edges)
        .expect("interaction graphs are valid partition inputs")
}

/// Places `qubits` inside `region`, bisecting recursively. `local_of`
/// is [`induced_subgraph`]'s scratch table, one for the whole recursion.
fn assign_region(
    graph: &Graph,
    qubits: &[u32],
    region: Region,
    tile_of: &mut [Coord],
    local_of: &mut [u32],
) {
    debug_assert!(region.cells() >= qubits.len() as u64);
    if qubits.is_empty() {
        return;
    }
    if qubits.len() == 1 || region.cells() == 1 {
        // Fill the region row-major.
        let mut it = qubits.iter();
        'outer: for y in region.y..region.y + region.h {
            for x in region.x..region.x + region.w {
                match it.next() {
                    Some(&q) => tile_of[q as usize] = Coord::new(x, y),
                    None => break 'outer,
                }
            }
        }
        return;
    }

    // Split the region along its longer axis.
    let (left, right) = if region.w >= region.h {
        let wl = region.w / 2;
        (
            Region { w: wl, ..region },
            Region {
                x: region.x + wl,
                w: region.w - wl,
                ..region
            },
        )
    } else {
        let hl = region.h / 2;
        (
            Region { h: hl, ..region },
            Region {
                y: region.y + hl,
                h: region.h - hl,
                ..region
            },
        )
    };

    // Partition the qubits proportionally to the sub-region capacities.
    let sub = induced_subgraph(graph, qubits, local_of);
    let frac = left.cells() as f64 / region.cells() as f64;
    let bi = bisect(&sub, frac);

    let mut left_qubits: Vec<u32> = Vec::new();
    let mut right_qubits: Vec<u32> = Vec::new();
    for (i, &q) in qubits.iter().enumerate() {
        if bi.assignment[i] == 0 {
            left_qubits.push(q);
        } else {
            right_qubits.push(q);
        }
    }
    // Capacity fix-up: the partitioner balances by weight within a
    // tolerance; tiles are hard capacities. Spill overflow (arbitrary
    // tail vertices — rare and small by construction).
    while left_qubits.len() as u64 > left.cells() {
        right_qubits.push(left_qubits.pop().expect("non-empty overflow"));
    }
    while right_qubits.len() as u64 > right.cells() {
        left_qubits.push(right_qubits.pop().expect("non-empty overflow"));
    }
    assign_region(graph, &left_qubits, left, tile_of, local_of);
    assign_region(graph, &right_qubits, right, tile_of, local_of);
}

/// The subgraph of `graph` on `vertices`, renumbered in their order.
/// `local_of` maps each vertex of `graph` to its local index; it must
/// hold `u32::MAX` everywhere on entry, and does again on return.
fn induced_subgraph(graph: &Graph, vertices: &[u32], local_of: &mut [u32]) -> Graph {
    for (i, &v) in vertices.iter().enumerate() {
        local_of[v as usize] = i as u32;
    }
    let mut edges = Vec::new();
    for (i, &v) in vertices.iter().enumerate() {
        for (u, w) in graph.neighbors(v) {
            let lu = local_of[u as usize];
            if lu != u32::MAX && lu > i as u32 {
                edges.push((i as u32, lu, w));
            }
        }
    }
    for &v in vertices {
        local_of[v as usize] = u32::MAX;
    }
    Graph::from_edges(vertices.len() as u32, &edges)
        .expect("induced subgraph construction cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;
    use scq_ir::Circuit;

    fn ring_graph(n: u32) -> InteractionGraph {
        let mut b = Circuit::builder("ring", n);
        for i in 0..n {
            b.cnot(i, (i + 1) % n);
        }
        InteractionGraph::from_circuit(&b.finish())
    }

    fn clustered_graph() -> InteractionGraph {
        // Four clusters of four qubits, heavy inside, light across.
        // Qubit ids are scrambled so program order carries no placement
        // hint (as in real compiled code).
        const PERM: [u32; 16] = [9, 2, 14, 5, 0, 11, 7, 12, 3, 15, 1, 8, 10, 4, 13, 6];
        let mut b = Circuit::builder("clusters", 16);
        for c in 0..4usize {
            let base = 4 * c;
            for _ in 0..10 {
                b.cnot(PERM[base], PERM[base + 1]);
                b.cnot(PERM[base + 2], PERM[base + 3]);
                b.cnot(PERM[base + 1], PERM[base + 2]);
            }
        }
        b.cnot(PERM[0], PERM[5])
            .cnot(PERM[7], PERM[9])
            .cnot(PERM[11], PERM[14]);
        InteractionGraph::from_circuit(&b.finish())
    }

    #[test]
    fn default_grid_is_near_square() {
        assert_eq!(default_grid(0), (1, 1));
        assert_eq!(default_grid(1), (1, 1));
        assert_eq!(default_grid(16), (4, 4));
        let (w, h) = default_grid(17);
        assert!(u64::from(w) * u64::from(h) >= 17);
        assert!(w.abs_diff(h) <= 1);
    }

    #[test]
    fn all_strategies_produce_valid_layouts() {
        let g = clustered_graph();
        for strategy in [
            LayoutStrategy::Linear,
            LayoutStrategy::Random(7),
            LayoutStrategy::InteractionAware,
        ] {
            let l = place(&g, strategy);
            assert!(l.check_invariants(), "{strategy:?}");
            assert_eq!(l.num_qubits(), 16);
        }
    }

    #[test]
    fn interaction_aware_beats_baselines_on_clusters() {
        let g = clustered_graph();
        let opt = place(&g, LayoutStrategy::InteractionAware).weighted_distance(&g);
        let lin = place(&g, LayoutStrategy::Linear).weighted_distance(&g);
        let rnd = place(&g, LayoutStrategy::Random(3)).weighted_distance(&g);
        assert!(opt < lin, "optimized {opt} vs linear {lin}");
        assert!(opt < rnd, "optimized {opt} vs random {rnd}");
    }

    #[test]
    fn interaction_aware_shortens_rings() {
        let g = ring_graph(36);
        let opt = place(&g, LayoutStrategy::InteractionAware);
        let rnd = place(&g, LayoutStrategy::Random(1));
        assert!(opt.avg_interaction_distance(&g) < rnd.avg_interaction_distance(&g));
        // A ring on a 6x6 grid can keep most neighbors adjacent.
        assert!(opt.avg_interaction_distance(&g) < 2.5);
    }

    #[test]
    fn linear_layout_is_row_major() {
        let g = ring_graph(6);
        let l = place(&g, LayoutStrategy::Linear);
        assert_eq!(l.tile(0), Coord::new(0, 0));
        assert_eq!(l.tile(2), Coord::new(2, 0));
        assert_eq!(l.tile(3), Coord::new(0, 1));
    }

    #[test]
    fn random_layout_is_deterministic_per_seed() {
        let g = ring_graph(10);
        let a = place(&g, LayoutStrategy::Random(5));
        let b = place(&g, LayoutStrategy::Random(5));
        let c = place(&g, LayoutStrategy::Random(6));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn empty_graph_places_nothing() {
        let g = InteractionGraph::from_circuit(&Circuit::builder("e", 0).finish());
        let l = place(&g, LayoutStrategy::InteractionAware);
        assert_eq!(l.num_qubits(), 0);
        assert_eq!(l.weighted_distance(&g), 0);
    }

    #[test]
    fn refine_never_worsens() {
        let g = clustered_graph();
        for seed in 0..5u64 {
            let mut l = place(&g, LayoutStrategy::Random(seed));
            let before = l.weighted_distance(&g);
            refine_swaps(&mut l, &g, 8);
            let after = l.weighted_distance(&g);
            assert!(after <= before, "seed {seed}: {after} > {before}");
            assert!(l.check_invariants());
        }
    }

    #[test]
    fn refine_fixes_an_obvious_swap() {
        // Two heavily-interacting qubits placed at opposite corners.
        let mut b = Circuit::builder("pair", 4);
        for _ in 0..5 {
            b.cnot(0, 3);
        }
        let g = InteractionGraph::from_circuit(&b.finish());
        let mut l = place(&g, LayoutStrategy::Linear);
        assert_eq!(l.weighted_distance(&g), 10);
        refine_swaps(&mut l, &g, 4);
        assert_eq!(l.weighted_distance(&g), 5, "tiles: {:?}", l.tiles());
    }

    #[test]
    fn weighted_distance_matches_manual_count() {
        let mut b = Circuit::builder("pair", 4);
        b.cnot(0, 3).cnot(0, 3).cnot(1, 2);
        let g = InteractionGraph::from_circuit(&b.finish());
        let l = Layout {
            grid_width: 4,
            grid_height: 1,
            tile_of: (0..4).map(|x| Coord::new(x, 0)).collect(),
        };
        // q0 at x0, q3 at x3 (dist 3, weight 2); q1-q2 dist 1 weight 1.
        assert_eq!(l.weighted_distance(&g), 7);
        assert!((l.avg_interaction_distance(&g) - 7.0 / 3.0).abs() < 1e-12);
    }
}
