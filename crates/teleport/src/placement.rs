//! Injectable data-tile placement for the planar machine.
//!
//! PR 4 made the fabric *measure* per-link congestion; this module
//! closes the loop by letting the measurement decide *where the data
//! tiles go*. [`schedule_planar_with`](crate::schedule_planar_with)
//! takes any [`PlacementStrategy`]:
//!
//! - [`BaselinePlacement`] reproduces the historical hard-coded
//!   floorplan ([`PlanarMachine::new`]) bit for bit — the control arm
//!   of every placement ablation.
//! - [`CongestionAwarePlacement`] runs the profile-then-place loop:
//!   simulate the EPR fabric on the current floorplan, read the
//!   per-link [`LinkHeatmap`](scq_mesh::LinkHeatmap), ask the
//!   `scq-layout` engine ([`optimize_placement`]) to relocate
//!   high-demand tiles out of the hottest columns, and repeat until no
//!   move improves the measured `(makespan, lane stalls)` cost or the
//!   iteration cap is reached. Dimension-ordered routing makes columns
//!   the natural steering axis: an EPR half crosses its factory row
//!   horizontally, then descends the destination tile's column.
//!
//! Only strictly improving moves are accepted, so the optimized
//! placement never has a longer makespan or more lane stalls than the
//! baseline — the invariant `perf_report` checks on every row of the
//! `BENCH_epr.json` it writes.

use scq_layout::{optimize_placement, PlacementCost, PlacementOutcome};
use scq_mesh::{CommError, Coord, LinkHeatmap};

use crate::fabric_pipeline::{simulate_epr_on_fabric_with, FabricRun};
use crate::planar::{PlanarConfig, PlanarMachine};
use crate::simd::SimdSchedule;

/// A policy for laying out the planar machine's data tiles.
///
/// The strategy receives the SIMD schedule (whose per-teleport qubits
/// are the communication demand), the full planar configuration, and
/// the [`FabricRun`] describing the machine's defects, and returns the
/// machine the EPR fabric will run on.
pub trait PlacementStrategy {
    /// Human-readable strategy name (for reports and ablations).
    fn name(&self) -> &'static str;

    /// Lays out a machine for `num_qubits` data qubits under `config`,
    /// given the demand trace in `simd`, keeping data tiles and
    /// factories off the dead tiles of `run.defects`.
    ///
    /// # Errors
    ///
    /// A structured [`CommError`] when the defects leave no buildable
    /// (or, for strategies that profile the fabric, no routable)
    /// floorplan.
    fn place(
        &self,
        num_qubits: u32,
        config: &PlanarConfig,
        simd: &SimdSchedule,
        run: &FabricRun,
    ) -> Result<PlanarMachine, CommError>;
}

/// The historical floorplan: row-major data tiles in a near-square
/// block, factories on the edge rows — exactly [`PlanarMachine::new`],
/// or [`PlanarMachine::with_defects`] on a defect-laden machine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BaselinePlacement;

impl PlacementStrategy for BaselinePlacement {
    fn name(&self) -> &'static str {
        "baseline"
    }

    fn place(
        &self,
        num_qubits: u32,
        config: &PlanarConfig,
        _simd: &SimdSchedule,
        run: &FabricRun,
    ) -> Result<PlanarMachine, CommError> {
        match run.defects {
            Some(defects) => PlanarMachine::with_defects(num_qubits, config.epr_factories, defects),
            None => Ok(PlanarMachine::new(num_qubits, config.epr_factories)),
        }
    }
}

/// Profile-then-place: start from the baseline floorplan, simulate the
/// EPR fabric, and steer high-demand data tiles away from the measured
/// hot columns (see the module docs at the top of this file).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CongestionAwarePlacement;

impl CongestionAwarePlacement {
    /// Like [`PlacementStrategy::place`], also returning what the
    /// optimizer did — baseline vs optimized cost, moves accepted,
    /// profiling simulations spent. Ablations and the perf report use
    /// this to emit the placement section of `BENCH_epr.json`.
    ///
    /// On a defect-laden machine the starting floorplan avoids dead
    /// tiles ([`PlanarMachine::with_defects`]), dead cells are excluded
    /// from the legal move set, and candidates the defects cut off
    /// price as infinite cost — the strict-Pareto acceptance can never
    /// choose them, so defective columns are effectively infinite-cost.
    /// Profiling runs draw transient faults from `run.fault_seed`; the
    /// transcript flag is ignored.
    ///
    /// # Errors
    ///
    /// A structured [`CommError`] when even the starting floorplan
    /// cannot be built or routed on the cut machine (never on a clean
    /// one).
    pub fn place_traced(
        &self,
        num_qubits: u32,
        config: &PlanarConfig,
        simd: &SimdSchedule,
        run: &FabricRun,
    ) -> Result<(PlanarMachine, PlacementOutcome), CommError> {
        let run = FabricRun {
            transcript: false,
            ..run.normalized()
        };
        let mut machine = BaselinePlacement.place(num_qubits, config, simd, &run)?;
        let mut cells = data_cells(&machine);
        if let Some(defects) = run.defects {
            // Prove the baseline routable up front: every later
            // candidate either routes or prices as infinite and is
            // rejected, so the returned machine is always schedulable.
            machine.requests_for_avoiding(simd, Some(defects))?;
            cells.retain(|&c| !defects.node_dead(c));
        }
        let demand = per_qubit_demand(num_qubits, simd);
        let fabric = config.fabric_config();
        let policy = config.policy;
        let profile_machine = machine.clone();
        let mut evaluate = |tiles: &[Coord]| {
            let mut candidate = profile_machine.clone();
            candidate.tiles = tiles.to_vec();
            let topo = candidate.topology;
            let priced = candidate
                .requests_for_avoiding(simd, run.defects)
                .and_then(|reqs| simulate_epr_on_fabric_with(&reqs, policy, &fabric, topo, &run));
            match priced {
                Ok((result, _)) => (
                    PlacementCost {
                        makespan: result.pipeline.makespan,
                        lane_stalls: result.link_stall_cycles,
                    },
                    result.heatmap,
                ),
                Err(_) => {
                    let idle = vec![0; topo.num_links()];
                    let cost = PlacementCost {
                        makespan: u64::MAX,
                        lane_stalls: u64::MAX,
                    };
                    (cost, LinkHeatmap::new(topo, idle.clone(), idle))
                }
            }
        };
        let mut tiles = machine.tiles.clone();
        let outcome = optimize_placement(&mut tiles, &cells, &demand, &mut evaluate);
        machine.tiles = tiles;
        Ok((machine, outcome))
    }
}

impl PlacementStrategy for CongestionAwarePlacement {
    fn name(&self) -> &'static str {
        "congestion-aware"
    }

    fn place(
        &self,
        num_qubits: u32,
        config: &PlanarConfig,
        simd: &SimdSchedule,
        run: &FabricRun,
    ) -> Result<PlanarMachine, CommError> {
        Ok(self.place_traced(num_qubits, config, simd, run)?.0)
    }
}

/// Teleport demand per data qubit — how often each qubit's tile is the
/// destination of an EPR half.
fn per_qubit_demand(num_qubits: u32, simd: &SimdSchedule) -> Vec<u64> {
    // Sized to the machine's tile list (exactly `num_qubits` entries,
    // even zero) so the optimizer's demand/tiles alignment holds.
    let mut demand = vec![0u64; num_qubits as usize];
    for &q in &simd.teleport_qubits {
        demand[q as usize] += 1;
    }
    demand
}

/// Every cell a data tile may occupy: the block between the two factory
/// rows.
fn data_cells(machine: &PlanarMachine) -> Vec<Coord> {
    let topo = machine.topology;
    (1..topo.height() - 1)
        .flat_map(|y| (0..topo.width()).map(move |x| Coord::new(x, y)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric_pipeline::simulate_epr_on_fabric;
    use crate::pipeline::{DistributionPolicy, EprConfig};
    use crate::simd::{schedule_simd, SimdConfig};
    use scq_ir::{Circuit, DependencyDag};
    use scq_mesh::DefectMap;

    fn simd_for(circuit: &Circuit) -> SimdSchedule {
        let dag = DependencyDag::from_circuit(circuit);
        schedule_simd(circuit, &dag, &SimdConfig::default())
    }

    fn baseline(n: u32, config: &PlanarConfig, simd: &SimdSchedule) -> PlanarMachine {
        BaselinePlacement
            .place(n, config, simd, &FabricRun::default())
            .unwrap()
    }

    fn optimized(
        n: u32,
        config: &PlanarConfig,
        simd: &SimdSchedule,
        run: &FabricRun,
    ) -> (PlanarMachine, PlacementOutcome) {
        CongestionAwarePlacement
            .place_traced(n, config, simd, run)
            .unwrap()
    }

    /// A circuit whose teleport demand piles onto one grid column:
    /// with row-major baseline placement on a `w`-wide grid, qubits
    /// `0, w, 2w, ...` all land in column 0, and heavy repeated CNOT/T
    /// traffic on exactly those qubits saturates its swap lanes.
    fn hot_column_circuit(n: u32, w: u32, layers: u32) -> Circuit {
        let hot: Vec<u32> = (0..n).step_by(w as usize).collect();
        let mut b = Circuit::builder("hot-column", n);
        for q in 0..n {
            b.h(q);
        }
        for _ in 0..layers {
            for (i, &q) in hot.iter().enumerate() {
                b.cnot(q, hot[(i + 1) % hot.len()]);
                b.t(q);
            }
        }
        b.finish()
    }

    fn contended_config() -> PlanarConfig {
        PlanarConfig {
            policy: DistributionPolicy::JustInTime { window: 64 },
            code_distance: 5,
            link_capacity: 1,
            epr_factories: Some(2),
            epr: EprConfig::default(),
            simd: SimdConfig::default(),
        }
    }

    #[test]
    fn baseline_reproduces_the_hard_coded_floorplan() {
        let c = hot_column_circuit(30, 6, 4);
        let simd = simd_for(&c);
        for factories in [None, Some(2), Some(5)] {
            let config = PlanarConfig {
                epr_factories: factories,
                ..PlanarConfig::default()
            };
            assert_eq!(
                baseline(30, &config, &simd),
                PlanarMachine::new(30, factories)
            );
        }
    }

    #[test]
    fn congestion_aware_beats_baseline_on_a_hot_column() {
        // All traffic converges on a handful of qubits that the
        // row-major baseline stacks into the low columns; one swap lane
        // per link makes those columns saturate.
        let c = hot_column_circuit(36, 6, 12);
        let simd = simd_for(&c);
        let config = contended_config();
        let fabric = config.fabric_config();

        let base_machine = baseline(36, &config, &simd);
        let base = simulate_epr_on_fabric(
            &base_machine.requests_for(&simd),
            config.policy,
            &fabric,
            base_machine.topology,
        );
        assert!(base.link_stall_cycles > 0, "scenario must be contended");

        let (opt_machine, outcome) = optimized(36, &config, &simd, &FabricRun::default());
        let opt = simulate_epr_on_fabric(
            &opt_machine.requests_for(&simd),
            config.policy,
            &fabric,
            opt_machine.topology,
        );
        assert!(outcome.moves_accepted > 0, "{outcome:?}");
        assert!(
            opt.link_stall_cycles < base.link_stall_cycles,
            "stalls {} !< {}",
            opt.link_stall_cycles,
            base.link_stall_cycles
        );
        assert!(opt.pipeline.makespan <= base.pipeline.makespan);
        // The outcome reports exactly the measured costs.
        assert_eq!(outcome.baseline.makespan, base.pipeline.makespan);
        assert_eq!(outcome.baseline.lane_stalls, base.link_stall_cycles);
        assert_eq!(outcome.optimized.makespan, opt.pipeline.makespan);
        assert_eq!(outcome.optimized.lane_stalls, opt.link_stall_cycles);
    }

    #[test]
    fn placement_is_deterministic() {
        let c = hot_column_circuit(36, 6, 12);
        let simd = simd_for(&c);
        let config = contended_config();
        let (m1, o1) = optimized(36, &config, &simd, &FabricRun::default());
        let (m2, o2) = optimized(36, &config, &simd, &FabricRun::default());
        assert_eq!(m1, m2);
        assert_eq!(o1, o2);
    }

    #[test]
    fn optimized_tiles_stay_on_legal_distinct_cells() {
        let c = hot_column_circuit(36, 6, 12);
        let simd = simd_for(&c);
        let (m, _) = optimized(36, &contended_config(), &simd, &FabricRun::default());
        let mut seen = std::collections::HashSet::new();
        for t in &m.tiles {
            assert!(
                t.y >= 1 && t.y < m.topology.height() - 1,
                "tile {t} in a factory row"
            );
            assert!(t.x < m.topology.width());
            assert!(seen.insert(*t), "tile {t} double-occupied");
        }
    }

    #[test]
    fn zero_qubit_circuit_places_cleanly() {
        let c = Circuit::builder("empty", 0).finish();
        let simd = simd_for(&c);
        let (m, outcome) = optimized(0, &contended_config(), &simd, &FabricRun::default());
        assert!(m.tiles.is_empty());
        assert_eq!(outcome.moves_accepted, 0);
        // And the schedule path matches the baseline exactly.
        let dag = DependencyDag::from_circuit(&c);
        let (opt, _) = crate::planar::schedule_planar_with(
            &c,
            &dag,
            &contended_config(),
            &CongestionAwarePlacement,
            &FabricRun::default(),
        )
        .unwrap();
        let base = crate::planar::schedule_planar(&c, &dag, &contended_config());
        assert_eq!(opt, base);
    }

    #[test]
    fn defect_aware_placement_keeps_tiles_off_dead_cells() {
        // 28 qubits on a 6x5 data block leave two spare cells, so two
        // dead data cells remain placeable.
        let c = hot_column_circuit(28, 6, 12);
        let simd = simd_for(&c);
        let config = contended_config();
        let (gw, gh) = PlanarMachine::grid_dims(28);
        let map = DefectMap::from_text(&format!(
            "dims {gw} {gh}\nnode 0 1\nnode 3 2\nflaky 1 1 1 2 0.25\n"
        ))
        .unwrap();
        let run = FabricRun {
            defects: Some(&map),
            fault_seed: 17,
            transcript: false,
        };
        let (m, outcome) = optimized(28, &config, &simd, &run);
        let mut seen = std::collections::HashSet::new();
        for t in &m.tiles {
            assert!(!map.node_dead(*t), "tile {t} on a dead cell");
            assert!(t.y >= 1 && t.y < m.topology.height() - 1);
            assert!(seen.insert(*t), "tile {t} double-occupied");
        }
        assert!(outcome.evaluations >= 1);
        // Still deterministic.
        let (m2, o2) = optimized(28, &config, &simd, &run);
        assert_eq!(m, m2);
        assert_eq!(outcome, o2);
    }

    #[test]
    fn placement_with_empty_map_matches_the_clean_run() {
        let c = hot_column_circuit(36, 6, 12);
        let simd = simd_for(&c);
        let config = contended_config();
        let (gw, gh) = PlanarMachine::grid_dims(36);
        let map = DefectMap::empty(scq_mesh::Topology::new(gw, gh));
        let clean = optimized(36, &config, &simd, &FabricRun::default());
        let defected = optimized(
            36,
            &config,
            &simd,
            &FabricRun {
                defects: Some(&map),
                ..Default::default()
            },
        );
        assert_eq!(clean, defected);
    }

    #[test]
    fn uncontended_runs_skip_optimization() {
        let c = hot_column_circuit(16, 4, 2);
        let simd = simd_for(&c);
        let config = PlanarConfig {
            link_capacity: scq_mesh::FabricConfig::UNLIMITED,
            ..PlanarConfig::default()
        };
        let (m, outcome) = optimized(16, &config, &simd, &FabricRun::default());
        assert_eq!(outcome.evaluations, 1, "stall-free: one profiling pass");
        assert_eq!(m, PlanarMachine::new(16, None));
    }
}
