//! Fabrication-defect maps: dead tiles, dead links, flaky links.
//!
//! Real superconducting devices ship with defective qubits and
//! couplers; the pristine rectangular lattice every schedule assumed so
//! far does not exist at scale. A [`DefectMap`] records, per
//! [`Topology`] node and link, whether the resource is *dead*
//! (permanently unusable — the router and placer must avoid it) or
//! *flaky* (usable, but each traversal fails with some probability —
//! the packet fabric retries with backoff). Maps are loadable from a
//! small text format or sampled at a defect rate from a seeded PRNG, so
//! every benchmark point is reproducible.
//!
//! The map is pure data: [`Mesh::with_defects`](crate::Mesh::with_defects)
//! turns dead resources into permanently-claimed ones, and
//! [`Fabric::with_defects`](crate::Fabric::with_defects) draws per-hop
//! transient faults on flaky links. [`DefectMap::route_avoiding`] is
//! the defect-aware routing entry point: it degrades from the
//! dimension-ordered L-routes to a BFS detour, and reports a hard cut
//! as `None` so callers can surface a structured [`CommError`] instead
//! of panicking or hanging.

use std::error::Error;
use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::coord::{Coord, Path};
use crate::topology::{DimOrder, Topology};

/// Per-hop failure probability assigned to a link that the sampler
/// marks flaky. Kept deliberately high so flaky links are *visible* in
/// small benchmark runs; file-loaded maps can choose any probability.
pub const FLAKY_FAILURE_PROB: f64 = 0.25;

/// A structured communication failure on defective hardware.
///
/// Returned (never panicked) by every defect-aware entry point so the
/// toolflow can exit nonzero with a diagnostic instead of crashing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CommError {
    /// No defect-free route exists between the two endpoints — the
    /// defect map cuts the fabric between them.
    Unroutable {
        /// One side of the offending cut.
        src: Coord,
        /// The other side of the offending cut.
        dst: Coord,
    },
    /// The machine does not have enough live cells to place its data
    /// tiles.
    Unplaceable {
        /// Tiles that needed a cell.
        needed: usize,
        /// Live cells available.
        available: usize,
    },
    /// Every ancilla-factory site landed on a dead tile.
    NoLiveFactories {
        /// Factory sites lost to defects.
        dead: usize,
    },
    /// A defect map built for one mesh shape was applied to a machine
    /// of a different shape.
    DefectMapMismatch {
        /// Dimensions the map was built for.
        map: (u32, u32),
        /// Dimensions of the machine it was applied to.
        expected: (u32, u32),
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Unroutable { src, dst } => {
                write!(f, "no defect-free route between {src} and {dst}")
            }
            CommError::Unplaceable { needed, available } => write!(
                f,
                "cannot place {needed} data tiles on {available} live cells"
            ),
            CommError::NoLiveFactories { dead } => {
                write!(f, "all {dead} factory sites fell on dead tiles")
            }
            CommError::DefectMapMismatch { map, expected } => write!(
                f,
                "defect map is {}x{} but the machine is {}x{}",
                map.0, map.1, expected.0, expected.1
            ),
        }
    }
}

impl Error for CommError {}

/// A malformed defect-map file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DefectParseError {
    /// 1-based line of the offending entry (0 for whole-file problems).
    pub line: usize,
    message: String,
}

impl DefectParseError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        DefectParseError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for DefectParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "defect map line {}: {}", self.line, self.message)
    }
}

impl Error for DefectParseError {}

/// Dead and flaky resources of one [`Topology`], in its canonical node
/// and link index spaces.
#[derive(Clone, Debug, PartialEq)]
pub struct DefectMap {
    topo: Topology,
    dead_nodes: Vec<bool>,
    dead_links: Vec<bool>,
    /// Per-hop transient failure probability; 0.0 = reliable.
    flaky: Vec<f64>,
}

impl DefectMap {
    /// A defect-free map — the pristine lattice. Every defect-aware
    /// entry point delegates to the historical code path when handed
    /// one, so the empty map is bit-identical to no map at all.
    pub fn empty(topo: Topology) -> Self {
        DefectMap {
            topo,
            dead_nodes: vec![false; topo.num_nodes()],
            dead_links: vec![false; topo.num_links()],
            flaky: vec![0.0; topo.num_links()],
        }
    }

    /// Samples a map at `rate` from the seeded PRNG: each node is dead
    /// with probability `rate`, each link is dead with probability
    /// `rate`, and each surviving link is flaky (at
    /// [`FLAKY_FAILURE_PROB`] per hop) with probability `rate`. Draw
    /// order is fixed (nodes by index, then links by canonical index),
    /// so a `(topology, rate, seed)` triple names exactly one map on
    /// every machine.
    pub fn sample(topo: Topology, rate: f64, seed: u64) -> Self {
        let mut map = DefectMap::empty(topo);
        if rate <= 0.0 {
            return map;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for dead in map.dead_nodes.iter_mut() {
            *dead = rng.gen_range(0.0..1.0f64) < rate;
        }
        for i in 0..map.dead_links.len() {
            map.dead_links[i] = rng.gen_range(0.0..1.0f64) < rate;
            if !map.dead_links[i] && rng.gen_range(0.0..1.0f64) < rate {
                map.flaky[i] = FLAKY_FAILURE_PROB;
            }
        }
        map
    }

    /// Parses the text defect-map format:
    ///
    /// ```text
    /// # comments and blank lines are ignored
    /// dims  W H                 # mandatory header: topology size
    /// node  X Y                 # dead router
    /// link  X1 Y1 X2 Y2         # dead link (endpoints adjacent)
    /// flaky X1 Y1 X2 Y2 P       # flaky link, per-hop failure prob P
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a [`DefectParseError`] naming the offending line on any
    /// malformed entry, out-of-bounds coordinate, non-adjacent link, or
    /// probability outside `[0, 1]`.
    pub fn from_text(text: &str) -> Result<Self, DefectParseError> {
        let mut map: Option<DefectMap> = None;
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = trimmed.split_whitespace().collect();
            let parse_u32 = |s: &str| {
                s.parse::<u32>()
                    .map_err(|_| DefectParseError::new(line, format!("bad number `{s}`")))
            };
            match (fields[0], map.as_mut()) {
                ("dims", None) => {
                    if fields.len() != 3 {
                        return Err(DefectParseError::new(line, "dims needs `dims W H`"));
                    }
                    let w = parse_u32(fields[1])?;
                    let h = parse_u32(fields[2])?;
                    if w == 0 || h == 0 {
                        return Err(DefectParseError::new(line, "dims must be positive"));
                    }
                    map = Some(DefectMap::empty(Topology::new(w, h)));
                }
                ("dims", Some(_)) => {
                    return Err(DefectParseError::new(line, "duplicate dims header"));
                }
                (_, None) => {
                    return Err(DefectParseError::new(
                        line,
                        "first entry must be the `dims W H` header",
                    ));
                }
                ("node", Some(m)) => {
                    if fields.len() != 3 {
                        return Err(DefectParseError::new(line, "node needs `node X Y`"));
                    }
                    let c = Coord::new(parse_u32(fields[1])?, parse_u32(fields[2])?);
                    if !m.topo.contains(c) {
                        return Err(DefectParseError::new(
                            line,
                            format!("node {c} off the mesh"),
                        ));
                    }
                    m.dead_nodes[m.topo.node_index(c)] = true;
                }
                ("link", Some(m)) => {
                    if fields.len() != 5 {
                        return Err(DefectParseError::new(line, "link needs `link X1 Y1 X2 Y2`"));
                    }
                    let i = m.parse_link_endpoints(&fields[1..5], line, parse_u32)?;
                    m.dead_links[i] = true;
                }
                ("flaky", Some(m)) => {
                    if fields.len() != 6 {
                        return Err(DefectParseError::new(
                            line,
                            "flaky needs `flaky X1 Y1 X2 Y2 P`",
                        ));
                    }
                    let i = m.parse_link_endpoints(&fields[1..5], line, parse_u32)?;
                    let p: f64 = fields[5].parse().map_err(|_| {
                        DefectParseError::new(line, format!("bad probability `{}`", fields[5]))
                    })?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(DefectParseError::new(
                            line,
                            format!("probability {p} outside [0, 1]"),
                        ));
                    }
                    m.flaky[i] = p;
                }
                (other, Some(_)) => {
                    return Err(DefectParseError::new(
                        line,
                        format!("unknown directive `{other}`"),
                    ));
                }
            }
        }
        map.ok_or_else(|| DefectParseError::new(0, "missing `dims W H` header"))
    }

    fn parse_link_endpoints(
        &self,
        fields: &[&str],
        line: usize,
        parse_u32: impl Fn(&str) -> Result<u32, DefectParseError>,
    ) -> Result<usize, DefectParseError> {
        let a = Coord::new(parse_u32(fields[0])?, parse_u32(fields[1])?);
        let b = Coord::new(parse_u32(fields[2])?, parse_u32(fields[3])?);
        if !self.topo.contains(a) || !self.topo.contains(b) {
            return Err(DefectParseError::new(
                line,
                format!("link {a} - {b} off the mesh"),
            ));
        }
        if !a.is_adjacent(b) {
            return Err(DefectParseError::new(
                line,
                format!("link endpoints {a} and {b} are not adjacent"),
            ));
        }
        Ok(self.topo.link_index(a, b))
    }

    /// The topology whose index spaces this map annotates.
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// `true` when the map marks nothing — the pristine lattice.
    pub fn is_empty(&self) -> bool {
        !self.dead_nodes.iter().any(|&d| d)
            && !self.dead_links.iter().any(|&d| d)
            && !self.has_transient_faults()
    }

    /// `true` when any link has a nonzero per-hop failure probability.
    pub fn has_transient_faults(&self) -> bool {
        self.flaky.iter().any(|&p| p > 0.0)
    }

    /// Is router `c` dead?
    ///
    /// # Panics
    ///
    /// Panics if `c` is off the topology.
    pub fn node_dead(&self, c: Coord) -> bool {
        assert!(self.topo.contains(c), "node {c} off the topology");
        self.dead_nodes[self.topo.node_index(c)]
    }

    /// Is the link between adjacent routers `a` and `b` dead?
    ///
    /// # Panics
    ///
    /// Panics if the routers are off the topology or not adjacent.
    pub fn link_dead(&self, a: Coord, b: Coord) -> bool {
        assert!(
            self.topo.contains(a) && self.topo.contains(b),
            "link endpoints must be on the topology"
        );
        self.dead_links[self.topo.link_index(a, b)]
    }

    /// Per-hop transient failure probability of the link between
    /// adjacent routers `a` and `b` (0.0 = reliable).
    ///
    /// # Panics
    ///
    /// As [`DefectMap::link_dead`].
    pub fn link_flaky_prob(&self, a: Coord, b: Coord) -> f64 {
        assert!(
            self.topo.contains(a) && self.topo.contains(b),
            "link endpoints must be on the topology"
        );
        self.flaky[self.topo.link_index(a, b)]
    }

    /// Number of dead routers.
    pub fn dead_node_count(&self) -> usize {
        self.dead_nodes.iter().filter(|&&d| d).count()
    }

    /// Number of dead links.
    pub fn dead_link_count(&self) -> usize {
        self.dead_links.iter().filter(|&&d| d).count()
    }

    /// Number of flaky (but live) links.
    pub fn flaky_link_count(&self) -> usize {
        self.flaky.iter().filter(|&&p| p > 0.0).count()
    }

    /// `true` if `path` traverses no dead node or dead link.
    pub fn path_clear(&self, path: &Path) -> bool {
        path.nodes().iter().all(|&n| !self.node_dead(n))
            && path.links().all(|(a, b)| !self.link_dead(a, b))
    }

    pub(crate) fn node_dead_idx(&self, i: usize) -> bool {
        self.dead_nodes[i]
    }

    pub(crate) fn link_dead_idx(&self, i: usize) -> bool {
        self.dead_links[i]
    }

    pub(crate) fn flaky_probs(&self) -> &[f64] {
        &self.flaky
    }

    /// Walks the dimension-ordered route and reports whether it stays
    /// clear of dead resources, accumulating nodes into `out`.
    fn try_dim_ordered(&self, src: Coord, dst: Coord, order: DimOrder) -> Option<Path> {
        let mut nodes = Vec::with_capacity(src.manhattan(dst) as usize + 1);
        let mut prev: Option<Coord> = None;
        let clean = Topology::walk_dim_ordered(src, dst, order, |c| {
            if self.node_dead(c) {
                return false;
            }
            if let Some(p) = prev {
                if self.link_dead(p, c) {
                    return false;
                }
            }
            prev = Some(c);
            nodes.push(c);
            true
        });
        clean.then(|| Path::new(nodes))
    }

    /// Shortest defect-free route from `src` to `dst`, degrading
    /// gracefully: the X-then-Y L-route if it is clear (so on an empty
    /// map this is exactly [`Topology::route_xy`]), else the Y-then-X
    /// mirror, else a BFS detour over live resources. Returns `None`
    /// when the defects cut the fabric between the endpoints — the
    /// caller's [`CommError::Unroutable`] signal.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is off the topology.
    pub fn route_avoiding(&self, src: Coord, dst: Coord) -> Option<Path> {
        assert!(
            self.topo.contains(src) && self.topo.contains(dst),
            "endpoints must be on the topology"
        );
        if self.node_dead(src) || self.node_dead(dst) {
            return None;
        }
        if let Some(p) = self.try_dim_ordered(src, dst, DimOrder::XThenY) {
            return Some(p);
        }
        if let Some(p) = self.try_dim_ordered(src, dst, DimOrder::YThenX) {
            return Some(p);
        }
        self.route_bfs(src, dst)
    }

    /// BFS over live nodes/links, east/west/south/north neighbor order
    /// (matching the mesh's adaptive router), flat parent array.
    fn route_bfs(&self, src: Coord, dst: Coord) -> Option<Path> {
        let topo = self.topo;
        let w = topo.width();
        let h = topo.height();
        let src_i = topo.node_index(src);
        let dst_i = topo.node_index(dst);
        let mut parent: Vec<u32> = vec![u32::MAX; topo.num_nodes()];
        parent[src_i] = src_i as u32;
        let mut frontier: Vec<u32> = vec![src_i as u32];
        let mut next: Vec<u32> = Vec::new();
        while !frontier.is_empty() && parent[dst_i] == u32::MAX {
            for &ni in &frontier {
                let x = ni % w;
                let y = ni / w;
                let cur = Coord::new(x, y);
                let mut visit = |nb: Coord| {
                    let nb_i = topo.node_index(nb);
                    if parent[nb_i] != u32::MAX
                        || self.dead_nodes[nb_i]
                        || self.dead_links[topo.link_index(cur, nb)]
                    {
                        return;
                    }
                    parent[nb_i] = ni;
                    next.push(nb_i as u32);
                };
                if x + 1 < w {
                    visit(Coord::new(x + 1, y));
                }
                if x > 0 {
                    visit(Coord::new(x - 1, y));
                }
                if y + 1 < h {
                    visit(Coord::new(x, y + 1));
                }
                if y > 0 {
                    visit(Coord::new(x, y - 1));
                }
            }
            frontier.clear();
            std::mem::swap(&mut frontier, &mut next);
        }
        if parent[dst_i] == u32::MAX {
            return None;
        }
        let mut nodes = Vec::new();
        let mut cur = dst_i as u32;
        loop {
            nodes.push(Coord::new(cur % w, cur / w));
            if cur as usize == src_i {
                break;
            }
            cur = parent[cur as usize];
        }
        nodes.reverse();
        Some(Path::new(nodes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_map_is_empty_and_routes_like_xy() {
        let topo = Topology::new(6, 5);
        let map = DefectMap::empty(topo);
        assert!(map.is_empty());
        assert!(!map.has_transient_faults());
        let src = Coord::new(0, 4);
        let dst = Coord::new(5, 0);
        assert_eq!(map.route_avoiding(src, dst), Some(topo.route_xy(src, dst)));
    }

    #[test]
    fn sampling_is_deterministic_and_rate_zero_is_empty() {
        let topo = Topology::new(10, 10);
        let a = DefectMap::sample(topo, 0.1, 42);
        let b = DefectMap::sample(topo, 0.1, 42);
        assert_eq!(a, b);
        let c = DefectMap::sample(topo, 0.1, 43);
        assert_ne!(a, c, "different seeds should differ on a 10x10 mesh");
        assert!(DefectMap::sample(topo, 0.0, 42).is_empty());
    }

    #[test]
    fn sampling_at_high_rate_marks_defects() {
        let map = DefectMap::sample(Topology::new(8, 8), 0.5, 7);
        assert!(map.dead_node_count() > 0);
        assert!(map.dead_link_count() > 0);
        assert!(map.flaky_link_count() > 0);
        assert!(map.has_transient_faults());
    }

    #[test]
    fn parses_the_text_format() {
        let text = "# comment\n\ndims 4 3\nnode 1 1\nlink 0 0 1 0\nflaky 2 0 3 0 0.5\n";
        let map = DefectMap::from_text(text).unwrap();
        assert_eq!(map.topology(), Topology::new(4, 3));
        assert!(map.node_dead(Coord::new(1, 1)));
        assert!(map.link_dead(Coord::new(0, 0), Coord::new(1, 0)));
        assert_eq!(map.link_flaky_prob(Coord::new(2, 0), Coord::new(3, 0)), 0.5);
        assert_eq!(map.dead_node_count(), 1);
        assert_eq!(map.dead_link_count(), 1);
        assert_eq!(map.flaky_link_count(), 1);
    }

    #[test]
    fn parse_errors_name_the_line() {
        for (text, line) in [
            ("node 0 0\n", 1),
            ("dims 4 3\nnode 9 9\n", 2),
            ("dims 4 3\nlink 0 0 2 0\n", 2),
            ("dims 4 3\nflaky 0 0 1 0 1.5\n", 2),
            ("dims 4 3\nwhat 1 2\n", 2),
            ("dims 0 3\n", 1),
        ] {
            let err = DefectMap::from_text(text).unwrap_err();
            assert_eq!(err.line, line, "{text:?}: {err}");
        }
        assert_eq!(DefectMap::from_text("# nothing\n").unwrap_err().line, 0);
    }

    #[test]
    fn route_avoiding_detours_around_a_blocked_row() {
        let mut text = String::from("dims 5 3\n");
        // Kill the whole middle of row 0 so the XY route 0,0 -> 4,0 must
        // dip into row 1 and come back.
        text.push_str("node 2 0\n");
        let map = DefectMap::from_text(&text).unwrap();
        let route = map
            .route_avoiding(Coord::new(0, 0), Coord::new(4, 0))
            .unwrap();
        assert_eq!(route.source(), Coord::new(0, 0));
        assert_eq!(route.dest(), Coord::new(4, 0));
        assert!(map.path_clear(&route));
        assert_eq!(route.len_hops(), 6, "shortest detour adds two hops");
    }

    #[test]
    fn route_avoiding_prefers_the_yx_mirror_before_bfs() {
        let topo = Topology::new(4, 4);
        let mut map = DefectMap::empty(topo);
        // Break the XY route 0,0 -> 3,3 at its first horizontal link.
        let i = topo.link_index(Coord::new(0, 0), Coord::new(1, 0));
        map.dead_links[i] = true;
        let route = map
            .route_avoiding(Coord::new(0, 0), Coord::new(3, 3))
            .unwrap();
        assert_eq!(route, topo.route_yx(Coord::new(0, 0), Coord::new(3, 3)));
    }

    #[test]
    fn cut_fabric_is_unroutable() {
        // A full dead column cuts the mesh in two.
        let mut text = String::from("dims 5 3\n");
        for y in 0..3 {
            text.push_str(&format!("node 2 {y}\n"));
        }
        let map = DefectMap::from_text(&text).unwrap();
        assert_eq!(map.route_avoiding(Coord::new(0, 1), Coord::new(4, 1)), None);
        // Dead endpoints are unroutable too.
        assert_eq!(map.route_avoiding(Coord::new(2, 0), Coord::new(0, 0)), None);
        // But both sides stay internally routable.
        assert!(map
            .route_avoiding(Coord::new(0, 0), Coord::new(1, 2))
            .is_some());
    }

    #[test]
    fn comm_error_displays_the_cut() {
        let e = CommError::Unroutable {
            src: Coord::new(1, 2),
            dst: Coord::new(3, 4),
        };
        assert!(e.to_string().contains("(1, 2)"));
        assert!(e.to_string().contains("(3, 4)"));
        let u = CommError::Unplaceable {
            needed: 9,
            available: 4,
        };
        assert!(u.to_string().contains('9'));
        let nf = CommError::NoLiveFactories { dead: 3 };
        assert!(nf.to_string().contains('3'));
    }
}
