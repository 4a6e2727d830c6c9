//! Mesh coordinates and routes.

use std::fmt;

/// A router position on the 2D mesh (tile corners in the paper's tiled
/// architecture, Figure 5: "the tile corners are routers").
///
/// # Examples
///
/// ```
/// use scq_mesh::Coord;
/// let a = Coord::new(1, 2);
/// let b = Coord::new(4, 0);
/// assert_eq!(a.manhattan(b), 5);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Coord {
    /// Column.
    pub x: u32,
    /// Row.
    pub y: u32,
}

impl Coord {
    /// Creates a coordinate.
    pub fn new(x: u32, y: u32) -> Self {
        Coord { x, y }
    }

    /// Manhattan distance to `other` — the minimum hop count of any
    /// route between the two routers.
    pub fn manhattan(self, other: Coord) -> u32 {
        self.x.abs_diff(other.x) + self.y.abs_diff(other.y)
    }

    /// Returns `true` if `other` is one hop away.
    pub fn is_adjacent(self, other: Coord) -> bool {
        self.manhattan(other) == 1
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// A route through the mesh: a sequence of adjacent router coordinates.
///
/// Construct with [`Path::new`], which validates contiguity, or via the
/// routing functions on [`Mesh`](crate::Mesh).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Path {
    nodes: Vec<Coord>,
}

impl Path {
    /// Creates a path from a node sequence.
    ///
    /// # Panics
    ///
    /// Panics if the sequence is empty or any consecutive pair is not
    /// adjacent.
    pub fn new(nodes: Vec<Coord>) -> Self {
        assert!(!nodes.is_empty(), "a path needs at least one node");
        for pair in nodes.windows(2) {
            assert!(
                pair[0].is_adjacent(pair[1]),
                "non-adjacent path step {} -> {}",
                pair[0],
                pair[1]
            );
        }
        Path { nodes }
    }

    /// Creates a path from a node sequence without checking it: the
    /// sequence may be empty, leave any mesh, jump between non-adjacent
    /// routers or revisit one.
    ///
    /// No router emits such a path. It exists so the malformed routes a
    /// buggy router *could* emit can be built for an independent
    /// certifier to reject; a mesh must never claim one.
    pub fn new_unchecked(nodes: Vec<Coord>) -> Self {
        Path { nodes }
    }

    /// Creates an empty scratch path for the `*_into` routing APIs on
    /// [`Mesh`](crate::Mesh), which overwrite it with a valid route.
    ///
    /// An empty path is a *buffer*, not a route: [`Path::source`] and
    /// [`Path::dest`] panic on it, and it must not be claimed. It exists
    /// so hot loops can recycle the backing allocation across routing
    /// attempts instead of allocating a fresh `Vec` per attempt.
    pub fn empty() -> Path {
        Path { nodes: Vec::new() }
    }

    /// Returns `true` for a scratch path that holds no route yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Mutable access to the backing node storage for the in-crate
    /// routing writers.
    pub(crate) fn nodes_mut(&mut self) -> &mut Vec<Coord> {
        &mut self.nodes
    }

    /// The node sequence.
    pub fn nodes(&self) -> &[Coord] {
        &self.nodes
    }

    /// First node.
    pub fn source(&self) -> Coord {
        self.nodes[0]
    }

    /// Last node.
    pub fn dest(&self) -> Coord {
        *self.nodes.last().expect("paths are non-empty")
    }

    /// Number of links the path occupies (0 for a scratch path).
    pub fn len_hops(&self) -> usize {
        self.nodes.len().saturating_sub(1)
    }

    /// Iterates over the links as `(from, to)` coordinate pairs.
    pub fn links(&self) -> impl Iterator<Item = (Coord, Coord)> + '_ {
        self.nodes.windows(2).map(|w| (w[0], w[1]))
    }

    /// Number of direction changes along the path (braid "turns", which
    /// cost extra lattice area in hand-optimized layouts; tracked for
    /// statistics).
    pub fn turns(&self) -> usize {
        self.nodes
            .windows(3)
            .filter(|w| {
                let d1 = (w[1].x as i64 - w[0].x as i64, w[1].y as i64 - w[0].y as i64);
                let d2 = (w[2].x as i64 - w[1].x as i64, w[2].y as i64 - w[1].y as i64);
                d1 != d2
            })
            .count()
    }
}

impl Default for Path {
    /// An empty scratch path; see [`Path::empty`].
    fn default() -> Self {
        Path::empty()
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {} ({} hops)",
            self.source(),
            self.dest(),
            self.len_hops()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_distance() {
        assert_eq!(Coord::new(0, 0).manhattan(Coord::new(3, 4)), 7);
        assert_eq!(Coord::new(5, 5).manhattan(Coord::new(5, 5)), 0);
    }

    #[test]
    fn adjacency() {
        let c = Coord::new(2, 2);
        assert!(c.is_adjacent(Coord::new(1, 2)));
        assert!(c.is_adjacent(Coord::new(2, 3)));
        assert!(!c.is_adjacent(Coord::new(3, 3)));
        assert!(!c.is_adjacent(c));
    }

    #[test]
    fn path_accessors() {
        let p = Path::new(vec![
            Coord::new(0, 0),
            Coord::new(1, 0),
            Coord::new(1, 1),
            Coord::new(1, 2),
        ]);
        assert_eq!(p.len_hops(), 3);
        assert_eq!(p.source(), Coord::new(0, 0));
        assert_eq!(p.dest(), Coord::new(1, 2));
        assert_eq!(p.links().count(), 3);
        assert_eq!(p.turns(), 1);
    }

    #[test]
    fn single_node_path() {
        let p = Path::new(vec![Coord::new(4, 4)]);
        assert_eq!(p.len_hops(), 0);
        assert_eq!(p.turns(), 0);
        assert_eq!(p.links().count(), 0);
    }

    #[test]
    #[should_panic(expected = "non-adjacent")]
    fn rejects_gaps() {
        let _ = Path::new(vec![Coord::new(0, 0), Coord::new(2, 0)]);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn rejects_empty() {
        let _ = Path::new(vec![]);
    }

    #[test]
    fn empty_scratch_path() {
        let p = Path::empty();
        assert!(p.is_empty());
        assert_eq!(p.len_hops(), 0);
        assert_eq!(p.links().count(), 0);
        assert!(Path::default().is_empty());
    }

    #[test]
    fn zigzag_turn_count() {
        let p = Path::new(vec![
            Coord::new(0, 0),
            Coord::new(1, 0),
            Coord::new(1, 1),
            Coord::new(2, 1),
            Coord::new(2, 2),
        ]);
        assert_eq!(p.turns(), 3);
    }
}
