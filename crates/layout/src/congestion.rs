//! Congestion-aware placement refinement over fabric heatmaps.
//!
//! The interaction-aware placement in the crate root minimizes a static
//! objective (weighted Manhattan distance). This module closes the
//! *dynamic* loop the ROADMAP called for: a measured
//! [`LinkHeatmap`] from a fabric profiling pass feeds back into tile
//! positions, steering communication demand away from hot columns.
//!
//! The engine is deliberately simulator-agnostic: the caller supplies
//! an `evaluate` oracle that prices a candidate tile assignment (for
//! the planar machine, one EPR-fabric simulation) and returns its
//! [`PlacementCost`] plus the heatmap that explains it. The engine owns
//! only the search: propose heatmap-guided moves (relocate a
//! high-demand tile out of the hottest column into a cold one, or swap
//! it with a low-demand tile there), accept a move only when it
//! strictly improves the cost, re-profile, and repeat until no proposal
//! helps or the iteration cap is hit. Because every accepted move must
//! improve on the incumbent, the result is never worse than the
//! starting placement — the property `perf_report` checks on every
//! placement row it writes.
//!
//! Determinism: proposals are ranked with total orders (load, demand,
//! then position), so the same heatmap always yields the same moves and
//! the same final placement.

use std::collections::BTreeMap;

use scq_mesh::{Coord, LinkHeatmap};

/// What a candidate placement costs, as measured by the caller's
/// profiling oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlacementCost {
    /// Schedule makespan under the placement (primary objective).
    pub makespan: u64,
    /// Cycles messages spent queued at saturated links (the congestion
    /// the placement exists to reduce).
    pub lane_stalls: u64,
}

impl PlacementCost {
    /// Strict Pareto improvement: neither metric worsens and at least
    /// one strictly improves. A move is only accepted when this
    /// returns `true`, so optimization can never worsen the makespan
    /// *or* the lane stalls — the non-regression invariant
    /// `perf_report` checks holds for both metrics by construction.
    pub fn improves_on(&self, other: &PlacementCost) -> bool {
        self.makespan <= other.makespan
            && self.lane_stalls <= other.lane_stalls
            && (self.makespan < other.makespan || self.lane_stalls < other.lane_stalls)
    }
}

// The search budget: eight iterations, six candidates per iteration,
// sourcing from the two hottest columns — enough to drain the contended
// fig6 points while keeping the profiling budget to a few dozen
// simulations.

/// Maximum improve iterations (each accepted move re-profiles and
/// starts a new iteration).
const MAX_ITERATIONS: usize = 8;
/// Maximum candidate moves evaluated per iteration before declaring
/// convergence.
const CANDIDATE_MOVES: usize = 6;
/// How many of the hottest columns contribute move sources.
const HOT_COLUMNS: usize = 2;

/// What one [`optimize_placement`] run did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlacementOutcome {
    /// Cost of the starting placement.
    pub baseline: PlacementCost,
    /// Cost of the final placement (never worse than `baseline`).
    pub optimized: PlacementCost,
    /// Improve iterations run (accepted moves plus the final
    /// convergence check).
    pub iterations: usize,
    /// Moves accepted.
    pub moves_accepted: usize,
    /// Profiling-oracle invocations (the dominant cost of the loop).
    pub evaluations: usize,
}

/// One proposed tile move.
#[derive(Clone, Copy, Debug)]
enum Move {
    /// Move qubit `q` to the free cell `to`.
    Relocate { q: u32, to: Coord },
    /// Exchange the tiles of qubits `a` and `b`.
    Swap { a: u32, b: u32 },
}

fn apply(tiles: &mut [Coord], mv: Move) {
    match mv {
        Move::Relocate { q, to } => tiles[q as usize] = to,
        Move::Swap { a, b } => tiles.swap(a as usize, b as usize),
    }
}

/// Iteratively improves `tiles` (the per-qubit tile assignment) against
/// the caller's profiling oracle.
///
/// * `tiles` — current position of each qubit; mutated in place to the
///   optimized placement.
/// * `cells` — every cell a data tile may legally occupy (relocation
///   targets are drawn from the free ones).
/// * `demand` — per-qubit communication demand (e.g. teleport counts);
///   hot columns shed their highest-demand qubits first.
/// * `evaluate` — prices an assignment: runs the fabric profiling pass
///   and returns the measured [`PlacementCost`] and [`LinkHeatmap`].
///
/// Returns the [`PlacementOutcome`]; `outcome.optimized` never
/// regresses `outcome.baseline` because only strictly improving moves
/// are accepted. Deterministic for a deterministic oracle.
///
/// # Panics
///
/// Panics if `demand` and `tiles` lengths differ, or a tile lies
/// outside `cells`.
pub fn optimize_placement(
    tiles: &mut Vec<Coord>,
    cells: &[Coord],
    demand: &[u64],
    evaluate: &mut dyn FnMut(&[Coord]) -> (PlacementCost, LinkHeatmap),
) -> PlacementOutcome {
    assert_eq!(demand.len(), tiles.len(), "one demand entry per qubit");
    let cell_set: std::collections::BTreeSet<Coord> = cells.iter().copied().collect();
    for t in tiles.iter() {
        assert!(cell_set.contains(t), "tile {t} outside the legal cells");
    }

    let (mut cost, mut heat) = evaluate(tiles);
    let mut outcome = PlacementOutcome {
        baseline: cost,
        optimized: cost,
        iterations: 0,
        moves_accepted: 0,
        evaluations: 1,
    };
    'improve: while outcome.iterations < MAX_ITERATIONS && cost.lane_stalls > 0 {
        outcome.iterations += 1;
        let moves = propose_moves(tiles, cells, demand, &heat);
        for mv in moves {
            let mut trial = tiles.clone();
            apply(&mut trial, mv);
            let (trial_cost, trial_heat) = evaluate(&trial);
            outcome.evaluations += 1;
            if trial_cost.improves_on(&cost) {
                *tiles = trial;
                cost = trial_cost;
                heat = trial_heat;
                outcome.moves_accepted += 1;
                continue 'improve;
            }
        }
        break; // no candidate improved: converged
    }
    outcome.optimized = cost;
    outcome
}

/// Heatmap-guided move proposals, hottest sources to coldest targets.
fn propose_moves(
    tiles: &[Coord],
    cells: &[Coord],
    demand: &[u64],
    heat: &LinkHeatmap,
) -> Vec<Move> {
    let occupant: BTreeMap<Coord, u32> = tiles
        .iter()
        .enumerate()
        .map(|(q, &t)| (t, q as u32))
        .collect();
    let by_load = heat.columns_by_load_desc();
    let load = |x: u32| heat.column_load(x);

    // Sources: the highest-demand qubits sitting in the hottest
    // loaded columns.
    let mut sources: Vec<u32> = Vec::new();
    for &hx in by_load.iter().take(HOT_COLUMNS) {
        if load(hx) == 0 {
            break;
        }
        let mut here: Vec<u32> = (0..tiles.len() as u32)
            .filter(|&q| tiles[q as usize].x == hx && demand[q as usize] > 0)
            .collect();
        here.sort_by_key(|&q| (std::cmp::Reverse(demand[q as usize]), q));
        sources.extend(here.into_iter().take(2));
    }

    // Targets: coldest columns first.
    let mut cold = by_load;
    cold.reverse();

    let mut moves = Vec::new();
    for &q in &sources {
        let from = tiles[q as usize];
        for &cx in &cold {
            if moves.len() >= CANDIDATE_MOVES {
                return moves;
            }
            if load(cx) >= load(from.x) {
                continue; // not actually colder than the source column
            }
            // Prefer a free cell in the cold column, nearest the
            // qubit's current row (shortest vertical displacement).
            let free = cells
                .iter()
                .filter(|c| c.x == cx && !occupant.contains_key(c))
                .min_by_key(|c| (c.y.abs_diff(from.y), c.y));
            if let Some(&to) = free {
                moves.push(Move::Relocate { q, to });
                continue;
            }
            // Otherwise swap with the lowest-demand occupant there.
            let partner = occupant
                .iter()
                .filter(|(c, &b)| c.x == cx && b != q)
                .min_by_key(|(c, &b)| (demand[b as usize], c.y))
                .map(|(_, &b)| b);
            if let Some(b) = partner {
                if demand[b as usize] < demand[q as usize] {
                    moves.push(Move::Swap { a: q, b });
                }
            }
        }
    }
    moves
}

#[cfg(test)]
mod tests {
    use super::*;
    use scq_mesh::Topology;

    /// A toy oracle on a `w x h` grid: every qubit's demand flows down
    /// its column from row 0, so a column's load is the demand placed
    /// on it and the "makespan" is the hottest column's load (a crisp
    /// stand-in for lane saturation). Stalls are total load above an
    /// even share.
    fn toy_oracle(
        w: u32,
        h: u32,
        demand: Vec<u64>,
    ) -> impl FnMut(&[Coord]) -> (PlacementCost, LinkHeatmap) {
        move |tiles: &[Coord]| {
            let topo = Topology::new(w, h);
            let mut col = vec![0u64; w as usize];
            for (q, t) in tiles.iter().enumerate() {
                col[t.x as usize] += demand[q];
            }
            let hottest = col.iter().copied().max().unwrap_or(0);
            let fair = demand.iter().sum::<u64>().div_ceil(u64::from(w));
            let stalls: u64 = col.iter().map(|&c| c.saturating_sub(fair)).sum();
            // Paint each column's load onto its first vertical link.
            let mut busy = vec![0u64; topo.num_links()];
            for x in 0..w {
                busy[topo.num_h_links() + x as usize] = col[x as usize];
            }
            (
                PlacementCost {
                    makespan: hottest,
                    lane_stalls: stalls,
                },
                LinkHeatmap::new(topo, busy, vec![0; topo.num_links()]),
            )
        }
    }

    fn grid_cells(w: u32, h: u32) -> Vec<Coord> {
        (0..h)
            .flat_map(|y| (0..w).map(move |x| Coord::new(x, y)))
            .collect()
    }

    #[test]
    fn cost_order_is_strict_pareto_improvement() {
        let a = PlacementCost {
            makespan: 10,
            lane_stalls: 5,
        };
        for (makespan, lane_stalls, better) in [
            (9, 5, true),   // makespan improves, stalls hold
            (10, 4, true),  // stalls improve, makespan holds
            (9, 4, true),   // both improve
            (10, 5, false), // identical
            (9, 99, false), // makespan traded for stalls — rejected
            (11, 0, false), // stalls traded for makespan — rejected
        ] {
            assert_eq!(
                PlacementCost {
                    makespan,
                    lane_stalls
                }
                .improves_on(&a),
                better,
                "({makespan}, {lane_stalls}) vs (10, 5)"
            );
        }
    }

    #[test]
    fn spreads_demand_off_the_hot_column() {
        // Four heavy qubits stacked on column 0 of a 4x4 grid.
        let demand = vec![8u64, 8, 8, 8];
        let mut tiles: Vec<Coord> = (0..4).map(|q| Coord::new(0, q)).collect();
        let cells = grid_cells(4, 4);
        let mut oracle = toy_oracle(4, 4, demand.clone());
        let outcome = optimize_placement(&mut tiles, &cells, &demand, &mut oracle);
        assert!(outcome.optimized.improves_on(&outcome.baseline));
        assert!(outcome.moves_accepted >= 2, "{outcome:?}");
        // Perfect spread: one heavy qubit per column.
        let mut cols: Vec<u32> = tiles.iter().map(|t| t.x).collect();
        cols.sort_unstable();
        assert_eq!(cols, vec![0, 1, 2, 3]);
        assert_eq!(outcome.optimized.makespan, 8);
        assert_eq!(outcome.optimized.lane_stalls, 0);
    }

    #[test]
    fn same_heatmap_same_placement() {
        let demand = vec![9u64, 7, 5, 3, 1, 1];
        let cells = grid_cells(3, 4);
        let start: Vec<Coord> = (0..6).map(|q| Coord::new(q % 2, q / 2)).collect();
        let run = || {
            let mut tiles = start.clone();
            let mut oracle = toy_oracle(3, 4, demand.clone());
            let outcome = optimize_placement(&mut tiles, &cells, &demand, &mut oracle);
            (tiles, outcome)
        };
        let (tiles_a, outcome_a) = run();
        let (tiles_b, outcome_b) = run();
        assert_eq!(tiles_a, tiles_b);
        assert_eq!(outcome_a, outcome_b);
    }

    #[test]
    fn stall_free_baseline_converges_immediately() {
        let demand = vec![1u64, 1, 1, 1];
        let mut tiles: Vec<Coord> = (0..4).map(|q| Coord::new(q, 0)).collect();
        let cells = grid_cells(4, 2);
        let mut calls = 0usize;
        let mut inner = toy_oracle(4, 2, demand.clone());
        let mut oracle = |t: &[Coord]| {
            calls += 1;
            inner(t)
        };
        let before = tiles.clone();
        let outcome = optimize_placement(&mut tiles, &cells, &demand, &mut oracle);
        assert_eq!(calls, 1, "no stalls -> single profiling pass");
        assert_eq!(tiles, before);
        assert_eq!(outcome.baseline, outcome.optimized);
        assert_eq!(outcome.moves_accepted, 0);
    }

    #[test]
    fn never_regresses_even_when_no_move_helps() {
        // Demand already perfectly spread: no move can improve, so the
        // loop must converge without accepting anything.
        let demand = vec![5u64, 5, 5];
        let mut tiles: Vec<Coord> = (0..3).map(|q| Coord::new(q, 0)).collect();
        let cells = grid_cells(3, 2);
        let mut oracle = toy_oracle(3, 2, demand.clone());
        let before = tiles.clone();
        let outcome = optimize_placement(&mut tiles, &cells, &demand, &mut oracle);
        assert_eq!(outcome.baseline, outcome.optimized);
        assert_eq!(outcome.moves_accepted, 0);
        assert_eq!(tiles, before);
    }

    #[test]
    #[should_panic(expected = "outside the legal cells")]
    fn tiles_off_the_cell_set_rejected() {
        let mut tiles = vec![Coord::new(9, 9)];
        let demand = vec![1u64];
        let cells = grid_cells(2, 2);
        let mut oracle = toy_oracle(2, 2, demand.clone());
        let _ = optimize_placement(&mut tiles, &cells, &demand, &mut oracle);
    }
}
