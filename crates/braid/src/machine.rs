//! The double-defect braid machine of the paper's Figure 3b, decided in
//! one place: its router mesh, each qubit's anchor router and the
//! magic-state factory sites.

use scq_layout::{default_grid, Layout};
use scq_mesh::{Coord, Topology};

use crate::scheduler::BraidSchedule;

/// The braid machine a layout runs on.
///
/// Three rules fix it, and every consumer reads them here:
///
/// * **Mesh.** The router mesh has twice the tile grid's resolution,
///   `2w+1 x 2h+1` routers for the [`default_grid`] of `w x h` tiles:
///   even rows and columns are the braid channels between tiles.
/// * **Anchors.** Tile `(x, y)` anchors at router `(2x+1, 2y+1)`.
/// * **Factories.** Magic-state factories sit on the top and bottom
///   router rows ([`scq_surface::edge_factory_sites`]); by default one
///   per grid column, and at least two.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BraidMachine {
    /// The router mesh braids route on.
    pub topology: Topology,
    /// Anchor router of each qubit's tile, indexed by qubit id.
    pub anchors: Vec<Coord>,
    /// Magic-state factory sites on the edge router rows. Duplicate
    /// positions collapse, so there may be fewer than asked for.
    pub factories: Vec<Coord>,
}

impl BraidMachine {
    /// The router-mesh dimensions of a machine for `num_qubits` qubits
    /// — build braid-resolution [`DefectMap`](scq_mesh::DefectMap)s on
    /// exactly these.
    pub fn grid_dims(num_qubits: u32) -> (u32, u32) {
        let (w, h) = default_grid(num_qubits);
        (2 * w + 1, 2 * h + 1)
    }

    /// The machine `layout` places its qubits on, with `factory_count`
    /// factory sites (`None` is one per grid column, at least two).
    pub fn new(layout: &Layout, factory_count: Option<u32>) -> Self {
        let (mesh_w, mesh_h) = Self::layout_dims(layout);
        let anchors = layout
            .tiles()
            .iter()
            .map(|t| Coord::new(2 * t.x + 1, 2 * t.y + 1))
            .collect();
        let count = factory_count.unwrap_or_else(|| layout.grid_width().max(2));
        let factories = scq_surface::edge_factory_sites(mesh_w, mesh_h, count)
            .into_iter()
            .map(|(x, y)| Coord::new(x, y))
            .collect();
        BraidMachine {
            topology: Topology::new(mesh_w, mesh_h),
            anchors,
            factories,
        }
    }

    /// [`BraidMachine::grid_dims`] of the qubits `layout` places.
    pub(crate) fn layout_dims(layout: &Layout) -> (u32, u32) {
        let n = u32::try_from(layout.num_qubits()).expect("a layout places a u32 count of qubits");
        Self::grid_dims(n)
    }

    /// Figure 6's average mesh utilization of a finished `schedule` at
    /// `code_distance` on this machine: every placed leg holds the links
    /// of its route for `d + 1` cycles, so the busy link-cycles are
    /// `total_braid_hops * (d + 1)` of the run's `cycles * num_links`.
    pub(crate) fn utilization(&self, schedule: &BraidSchedule, code_distance: u32) -> f64 {
        let links = self.topology.num_links();
        if schedule.cycles == 0 || links == 0 {
            return 0.0;
        }
        let busy = schedule.total_braid_hops * (u64::from(code_distance) + 1);
        busy as f64 / (schedule.cycles as f64 * links as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scq_ir::{Circuit, InteractionGraph};
    use scq_layout::{place, LayoutStrategy};

    fn layout(n: u32) -> Layout {
        let c = Circuit::builder("idle", n).finish();
        place(&InteractionGraph::from_circuit(&c), LayoutStrategy::Linear)
    }

    #[test]
    fn tiles_anchor_at_odd_routers_and_factories_sit_on_the_edge_rows() {
        // 10 qubits: a 4x3 tile grid on a 9x7 router mesh.
        let l = layout(10);
        let m = BraidMachine::new(&l, None);
        assert_eq!(m.topology, Topology::new(9, 7));
        for (q, &a) in m.anchors.iter().enumerate() {
            let t = l.tile(q as u32);
            assert_eq!(a, Coord::new(2 * t.x + 1, 2 * t.y + 1));
        }
        assert_eq!(m.factories.len(), 4, "one per grid column");
        for f in &m.factories {
            assert!(f.y == 0 || f.y == 6, "factory {f} off the edge rows");
        }
        // A one-column grid still gets two factories; a count is kept.
        assert_eq!(BraidMachine::new(&layout(1), None).factories.len(), 2);
        assert_eq!(BraidMachine::new(&l, Some(1)).factories.len(), 1);
    }

    #[test]
    fn utilization_is_held_link_cycles_over_mesh_link_cycles() {
        // One CNOT between the two tiles of a 2x1 grid at d = 5: two legs
        // of 2 hops each hold their links for 6 cycles, out of 12 cycles
        // of a 5x3 mesh's 22 links.
        let mut b = Circuit::builder("one-cnot", 2);
        b.cnot(0, 1);
        let config = crate::BraidConfig {
            code_distance: 5,
            ..Default::default()
        };
        let s = crate::schedule_circuit(&b.finish(), &config).unwrap();
        assert_eq!((s.cycles, s.total_braid_hops), (12, 4));
        assert_eq!(s.mesh_utilization, 24.0 / (12.0 * 22.0));
    }
}
