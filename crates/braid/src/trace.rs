//! Braid schedule traces: the static schedule artifact, its validation,
//! and congestion visualization.
//!
//! The paper's scalability argument rests on one property: the dynamic
//! network simulation only needs to find *a* conflict-free schedule at
//! compile time, because "we replay the dynamic schedule as a static one
//! at execution time on the quantum computer" (Section 6.1). The
//! [`BraidTrace`] is that replayable artifact — every braid leg with its
//! route and its open/close cycles — and [`BraidTrace::validate`] is the
//! machine-checkable proof that the replay is conflict-free: no two
//! braids ever hold a router or link at the same time.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use scq_mesh::{Coord, Mesh, Path};

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

    /// Notes one adaptive route search, which expanded `expanded`
    /// routers ([`RouteScratch::expanded`](scq_mesh::RouteScratch::expanded)).
    /// The default ignores it, so [`NoTrace`] and [`EventCollector`]
    /// compile the call to nothing.
    #[inline]
    fn searched(&mut self, _expanded: u32) {}
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

/// A conflict found while replaying a trace: two braids held the same
/// resource simultaneously. This never occurs for traces produced by the
/// scheduler; it exists to *prove* that.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceConflict {
    /// Cycle at which the conflicting claim was attempted.
    pub cycle: u64,
    /// The operation whose claim failed.
    pub op: u32,
}

impl fmt::Display for TraceConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "braid of op {} could not re-claim its route at cycle {} during replay",
            self.op, self.cycle
        )
    }
}

impl Error for TraceConflict {}

impl BraidTrace {
    /// Replays the static schedule on a fresh mesh and verifies that
    /// every braid can claim its recorded route at its recorded cycle —
    /// i.e. the schedule is conflict-free and executable as-is.
    ///
    /// Closes are processed before opens within a cycle, matching the
    /// scheduler's release-then-issue order.
    ///
    /// # Errors
    ///
    /// Returns the first [`TraceConflict`] encountered; `Ok(())` means
    /// the schedule replays cleanly.
    pub fn validate(&self) -> Result<(), TraceConflict> {
        let mut mesh = Mesh::new(self.mesh_width, self.mesh_height);
        // (cycle, is_open, event index); closes sort before opens.
        let mut moments: Vec<(u64, bool, usize)> = Vec::with_capacity(2 * self.events.len());
        for (i, e) in self.events.iter().enumerate() {
            moments.push((e.open_cycle, true, i));
            moments.push((e.close_cycle, false, i));
        }
        moments.sort_by_key(|&(t, is_open, _)| (t, is_open));
        for (t, is_open, i) in moments {
            let e = &self.events[i];
            if is_open {
                if !mesh.try_claim(&e.path, e.op) {
                    return Err(TraceConflict { cycle: t, op: e.op });
                }
            } else {
                mesh.release(&e.path, e.op);
            }
        }
        Ok(())
    }

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
    fn disjoint_events_validate() {
        let trace = BraidTrace {
            mesh_width: 5,
            mesh_height: 5,
            cycles: 10,
            events: vec![event(0, 0, 5, row(0, 0, 4)), event(1, 0, 5, row(2, 0, 4))],
        };
        assert!(trace.validate().is_ok());
    }

    #[test]
    fn time_separated_overlapping_routes_validate() {
        let trace = BraidTrace {
            mesh_width: 5,
            mesh_height: 5,
            cycles: 12,
            events: vec![
                event(0, 0, 5, row(1, 0, 3)),
                event(1, 5, 10, row(1, 0, 3)), // same route, opens as 0 closes
            ],
        };
        assert!(trace.validate().is_ok());
    }

    #[test]
    fn conflicting_events_are_caught() {
        let trace = BraidTrace {
            mesh_width: 5,
            mesh_height: 5,
            cycles: 10,
            events: vec![
                event(0, 0, 6, row(1, 0, 3)),
                event(1, 3, 8, row(1, 2, 4)), // overlaps in space and time
            ],
        };
        let err = trace.validate().unwrap_err();
        assert_eq!(err.op, 1);
        assert_eq!(err.cycle, 3);
        assert!(err.to_string().contains("op 1"));
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
    fn empty_trace_validates() {
        let trace = BraidTrace {
            mesh_width: 2,
            mesh_height: 2,
            cycles: 0,
            events: vec![],
        };
        assert!(trace.validate().is_ok());
        assert_eq!(trace.peak_concurrent_braids(), 0);
        assert!(trace.render_heatmap().contains('+'));
    }
}
