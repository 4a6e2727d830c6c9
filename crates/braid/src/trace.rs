//! Braid schedule traces: the static schedule artifact and congestion
//! visualization.
//!
//! The paper's scalability argument rests on one property: the dynamic
//! network simulation only needs to find *a* conflict-free schedule at
//! compile time, because "we replay the dynamic schedule as a static one
//! at execution time on the quantum computer" (Section 6.1). The
//! [`BraidTrace`] is that replayable artifact — every braid leg with its
//! route and its open/close cycles. scq-verify's `certify_braid_trace`
//! proves the replay conflict-free (no two braids ever hold a router or
//! link at the same time) without sharing the engine's claiming code.

use std::collections::HashMap;

use scq_mesh::{Coord, Path};

/// Receiver for braid-leg events as the scheduler closes them, and for
/// the work of each adaptive route search it runs.
///
/// The scheduling engine is generic over its sink so that the untraced
/// entry point ([`schedule`](crate::schedule), which every benchmark
/// binary uses) pays *zero* tracing cost: with [`NoTrace`] the event
/// arguments are discarded and the closed leg's [`Path`] buffer is
/// handed back to the engine for reuse, so no event is pushed and no
/// path is cloned or dropped. [`EventCollector`] is the recording sink
/// to pass to [`schedule_with`](crate::schedule_with) for a
/// [`BraidTrace`].
pub trait TraceSink {
    /// Records one closed braid leg.
    ///
    /// Returns the path buffer back to the caller when the sink did not
    /// keep it, so hot loops can recycle the allocation.
    fn record(
        &mut self,
        op: u32,
        leg: u8,
        open_cycle: u64,
        close_cycle: u64,
        path: Path,
    ) -> Option<Path>;

    /// Notes one adaptive route search: the `route` it found and the
    /// `words` of bitboard rows its f-level sweeps touched
    /// ([`RouteScratch::expanded`](scq_mesh::RouteScratch::expanded)).
    /// Every search the engine runs finds its route, because the exact
    /// flood ([`Mesh::route_certainly_blocked`](scq_mesh::Mesh::route_certainly_blocked))
    /// prunes the rest first. The default ignores it, so [`NoTrace`] and
    /// [`EventCollector`] compile the call to nothing.
    #[inline]
    fn searched(&mut self, _route: &Path, _words: u32) {}
}

/// The zero-cost sink: drops every event and recycles path buffers.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoTrace;

impl TraceSink for NoTrace {
    #[inline]
    fn record(&mut self, _op: u32, _leg: u8, _open: u64, _close: u64, path: Path) -> Option<Path> {
        Some(path)
    }
}

/// Sink that retains every braid leg as a [`BraidEvent`].
#[derive(Clone, Debug, Default)]
pub struct EventCollector {
    /// The recorded legs, in close-cycle order.
    pub events: Vec<BraidEvent>,
}

impl TraceSink for EventCollector {
    fn record(
        &mut self,
        op: u32,
        leg: u8,
        open_cycle: u64,
        close_cycle: u64,
        path: Path,
    ) -> Option<Path> {
        self.events.push(BraidEvent {
            op,
            leg,
            open_cycle,
            close_cycle,
            path,
        });
        None
    }
}

/// One braid leg in the static schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BraidEvent {
    /// Instruction index of the owning operation.
    pub op: u32,
    /// Leg number (1 or 2; single-leg T braids use 1).
    pub leg: u8,
    /// Cycle at which the braid opened (claimed its route).
    pub open_cycle: u64,
    /// Cycle at which the braid closed (released its route).
    pub close_cycle: u64,
    /// The claimed route.
    pub path: Path,
}

impl BraidEvent {
    /// Cycles the route was held.
    pub fn duration(&self) -> u64 {
        self.close_cycle - self.open_cycle
    }
}

/// The complete static braid schedule produced by one scheduling run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BraidTrace {
    /// Router-mesh width the schedule was computed for.
    pub mesh_width: u32,
    /// Router-mesh height.
    pub mesh_height: u32,
    /// Total schedule length in cycles.
    pub cycles: u64,
    /// Every braid leg, in close-cycle order.
    pub events: Vec<BraidEvent>,
}

impl BraidTrace {
    /// Total busy cycles per link, keyed on the link's canonical
    /// `(from, to)` coordinates — the congestion heatmap data.
    pub fn link_heatmap(&self) -> HashMap<(Coord, Coord), u64> {
        let mut heat = HashMap::new();
        for e in &self.events {
            for (a, b) in e.path.links() {
                let key = if (a.x, a.y) <= (b.x, b.y) {
                    (a, b)
                } else {
                    (b, a)
                };
                *heat.entry(key).or_insert(0) += e.duration();
            }
        }
        heat
    }

    /// Renders the link congestion as an ASCII grid: routers are `+`,
    /// links are digits 0-9 scaled to the hottest link (`.` for idle).
    ///
    /// Useful for eyeballing where braid traffic concentrates.
    pub fn render_heatmap(&self) -> String {
        let heat = self.link_heatmap();
        let max = heat.values().copied().max().unwrap_or(0);
        let scale = |v: u64| -> char {
            if v == 0 || max == 0 {
                '.'
            } else {
                char::from_digit((v * 9 / max).min(9) as u32, 10).unwrap_or('9')
            }
        };
        let link = |a: Coord, b: Coord| -> u64 {
            let key = if (a.x, a.y) <= (b.x, b.y) {
                (a, b)
            } else {
                (b, a)
            };
            heat.get(&key).copied().unwrap_or(0)
        };
        let mut out = String::new();
        for y in 0..self.mesh_height {
            // Router row with horizontal links.
            for x in 0..self.mesh_width {
                out.push('+');
                if x + 1 < self.mesh_width {
                    out.push(scale(link(Coord::new(x, y), Coord::new(x + 1, y))));
                }
            }
            out.push('\n');
            // Vertical link row.
            if y + 1 < self.mesh_height {
                for x in 0..self.mesh_width {
                    out.push(scale(link(Coord::new(x, y), Coord::new(x, y + 1))));
                    if x + 1 < self.mesh_width {
                        out.push(' ');
                    }
                }
                out.push('\n');
            }
        }
        out
    }

    /// Maximum number of braids simultaneously holding routes.
    pub fn peak_concurrent_braids(&self) -> usize {
        let mut deltas: Vec<(u64, i64)> = Vec::with_capacity(2 * self.events.len());
        for e in &self.events {
            deltas.push((e.open_cycle, 1));
            deltas.push((e.close_cycle, -1));
        }
        deltas.sort();
        let mut live = 0i64;
        let mut peak = 0i64;
        for (_, d) in deltas {
            live += d;
            peak = peak.max(live);
        }
        peak as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(op: u32, open: u64, close: u64, nodes: Vec<Coord>) -> BraidEvent {
        BraidEvent {
            op,
            leg: 1,
            open_cycle: open,
            close_cycle: close,
            path: Path::new(nodes),
        }
    }

    fn row(y: u32, x0: u32, x1: u32) -> Vec<Coord> {
        (x0..=x1).map(|x| Coord::new(x, y)).collect()
    }

    #[test]
    fn heatmap_counts_busy_cycles() {
        let trace = BraidTrace {
            mesh_width: 3,
            mesh_height: 2,
            cycles: 4,
            events: vec![event(0, 0, 4, row(0, 0, 2))],
        };
        let heat = trace.link_heatmap();
        assert_eq!(heat.len(), 2);
        assert!(heat.values().all(|&v| v == 4));
    }

    #[test]
    fn render_has_expected_dimensions() {
        let trace = BraidTrace {
            mesh_width: 4,
            mesh_height: 3,
            cycles: 4,
            events: vec![event(0, 0, 4, row(0, 0, 3))],
        };
        let art = trace.render_heatmap();
        // 3 router rows + 2 vertical-link rows.
        assert_eq!(art.lines().count(), 5);
        // The busy top row renders as hot links.
        assert!(art.lines().next().unwrap().contains('9'));
    }

    #[test]
    fn peak_concurrency() {
        let trace = BraidTrace {
            mesh_width: 8,
            mesh_height: 8,
            cycles: 10,
            events: vec![
                event(0, 0, 6, row(0, 0, 2)),
                event(1, 2, 8, row(2, 0, 2)),
                event(2, 7, 9, row(4, 0, 2)),
            ],
        };
        assert_eq!(trace.peak_concurrent_braids(), 2);
    }

    #[test]
    fn empty_trace_renders_with_no_peak() {
        let trace = BraidTrace {
            mesh_width: 2,
            mesh_height: 2,
            cycles: 0,
            events: vec![],
        };
        assert_eq!(trace.peak_concurrent_braids(), 0);
        assert!(trace.render_heatmap().contains('+'));
    }
}
