//! Per-link congestion snapshots of a [`Fabric`](crate::Fabric) run.
//!
//! A [`LinkHeatmap`] is the stable, geometry-aware export of what the
//! fabric measured: for every link of the [`Topology`], the cycles the
//! link spent busy carrying messages and the cycles messages spent
//! queued waiting for one of its lanes. It is the data product the
//! congestion-aware placement loop consumes — hot columns attract EPR
//! route demand, and the optimizer steers data tiles away from them.

use crate::topology::Topology;

/// Snapshot of per-link busy and stall cycles over a fabric run.
///
/// Links use the canonical [`Topology`] indexing (horizontal block
/// first, then vertical). The snapshot is immutable: taking one from a
/// running [`Fabric`](crate::Fabric) copies the counters, so later
/// simulation does not mutate it under the consumer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkHeatmap {
    topo: Topology,
    /// Busy cycles per link (time spent carrying traversing messages).
    busy: Vec<u64>,
    /// Stall cycles per link (time messages queued for a free lane).
    stalls: Vec<u64>,
    /// Transient faults per link (hops that failed on a flaky link and
    /// were retried after backoff).
    faults: Vec<u64>,
}

impl LinkHeatmap {
    /// Builds a snapshot from raw per-link counters, with no recorded
    /// transient faults (a defect-free run).
    ///
    /// # Panics
    ///
    /// Panics if either slice length differs from `topo.num_links()`.
    pub fn new(topo: Topology, busy: Vec<u64>, stalls: Vec<u64>) -> Self {
        let faults = vec![0; topo.num_links()];
        Self::with_faults(topo, busy, stalls, faults)
    }

    /// Builds a snapshot that also carries per-link transient-fault
    /// counts from a fault-injected fabric run.
    ///
    /// # Panics
    ///
    /// Panics if any slice length differs from `topo.num_links()`.
    pub fn with_faults(topo: Topology, busy: Vec<u64>, stalls: Vec<u64>, faults: Vec<u64>) -> Self {
        assert_eq!(busy.len(), topo.num_links(), "busy counters per link");
        assert_eq!(stalls.len(), topo.num_links(), "stall counters per link");
        assert_eq!(faults.len(), topo.num_links(), "fault counters per link");
        LinkHeatmap {
            topo,
            busy,
            stalls,
            faults,
        }
    }

    /// The geometry the link indices refer to.
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// Busy cycles per link, canonical link order.
    pub fn busy_cycles(&self) -> &[u64] {
        &self.busy
    }

    /// Stall cycles per link, canonical link order.
    pub fn stall_cycles(&self) -> &[u64] {
        &self.stalls
    }

    /// Transient faults per link, canonical link order.
    pub fn fault_counts(&self) -> &[u64] {
        &self.faults
    }

    /// Total transient faults over all links.
    pub fn total_transient_faults(&self) -> u64 {
        self.faults.iter().sum()
    }

    /// Total stall cycles over all links.
    pub fn total_stall_cycles(&self) -> u64 {
        self.stalls.iter().sum()
    }

    /// Busy cycles on the hottest link.
    pub fn hottest_link_busy_cycles(&self) -> u64 {
        self.busy.iter().copied().max().unwrap_or(0)
    }

    /// Combined busy + stall load over the vertical links of column `x`
    /// — the congestion an EPR half pays descending that column under
    /// dimension-ordered (X then Y) routing, which makes per-column
    /// load the natural placement signal.
    ///
    /// # Panics
    ///
    /// Panics if `x` is outside the topology.
    pub fn column_load(&self, x: u32) -> u64 {
        assert!(x < self.topo.width(), "column {x} off the topology");
        let h_links = self.topo.num_h_links();
        (0..self.topo.height().saturating_sub(1))
            .map(|y| {
                let i = h_links + self.topo.v_index(x, y);
                self.busy[i] + self.stalls[i]
            })
            .sum()
    }

    /// Columns ranked hottest-first by [`LinkHeatmap::column_load`],
    /// ties broken toward the lower column index (deterministic).
    pub fn columns_by_load_desc(&self) -> Vec<u32> {
        let mut cols: Vec<u32> = (0..self.topo.width()).collect();
        cols.sort_by_key(|&x| (std::cmp::Reverse(self.column_load(x)), x));
        cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heatmap_3x3() -> LinkHeatmap {
        // 3x3: 6 horizontal links then 6 vertical links.
        let topo = Topology::new(3, 3);
        let mut busy = vec![0u64; topo.num_links()];
        let mut stalls = vec![0u64; topo.num_links()];
        // Vertical links of column 1: (1,0)->(1,1) and (1,1)->(1,2).
        busy[6 + 1] = 10;
        stalls[6 + 1] = 4;
        busy[6 + 4] = 7;
        // One horizontal link on row 0: (0,0)->(1,0).
        busy[0] = 3;
        LinkHeatmap::new(topo, busy, stalls)
    }

    #[test]
    fn column_loads_aggregate_links() {
        let h = heatmap_3x3();
        assert_eq!(h.column_load(1), 10 + 4 + 7);
        assert_eq!(h.column_load(0), 0);
        assert_eq!(h.total_stall_cycles(), 4);
        assert_eq!(h.hottest_link_busy_cycles(), 10);
    }

    #[test]
    fn columns_rank_hottest_first_with_deterministic_ties() {
        let h = heatmap_3x3();
        assert_eq!(h.columns_by_load_desc(), vec![1, 0, 2]);
    }

    #[test]
    #[should_panic(expected = "per link")]
    fn mismatched_counter_length_rejected() {
        let topo = Topology::new(3, 3);
        let _ = LinkHeatmap::new(topo, vec![0; 3], vec![0; topo.num_links()]);
    }

    #[test]
    fn fault_counters_ride_along() {
        let topo = Topology::new(3, 3);
        let zero = vec![0u64; topo.num_links()];
        let mut faults = zero.clone();
        faults[2] = 5;
        let h = LinkHeatmap::with_faults(topo, zero.clone(), zero.clone(), faults);
        assert_eq!(h.total_transient_faults(), 5);
        assert_eq!(h.fault_counts()[2], 5);
        // The defect-free constructor reports zero faults.
        let clean = LinkHeatmap::new(topo, zero.clone(), zero);
        assert_eq!(clean.total_transient_faults(), 0);
    }

    #[test]
    #[should_panic(expected = "fault counters per link")]
    fn mismatched_fault_length_rejected() {
        let topo = Topology::new(3, 3);
        let zero = vec![0u64; topo.num_links()];
        let _ = LinkHeatmap::with_faults(topo, zero.clone(), zero, vec![0; 2]);
    }
}
