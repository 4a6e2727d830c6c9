//! Mesh geometry shared by the circuit-switched and packet layers.
//!
//! A [`Topology`] is the pure shape of a 2D router mesh: dimensions,
//! node/link index spaces, and the deterministic dimension-ordered
//! routes. It owns no occupancy state, which is what lets two very
//! different communication disciplines share it:
//!
//! - [`Mesh`](crate::Mesh) layers *circuit-switched* occupancy on top
//!   (braids atomically claim whole routes),
//! - [`Fabric`](crate::Fabric) layers *packet-style* occupancy on top
//!   (EPR halves traverse the same links hop by hop with per-link
//!   bandwidth).

use crate::coord::{Coord, Path};

/// The two dimension orders a deterministic route can walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DimOrder {
    XThenY,
    YThenX,
}

/// The shape of a 2D router mesh: dimensions plus the node and link
/// index spaces every occupancy layer addresses into.
///
/// Links are indexed canonically: the `(width-1) * height` horizontal
/// links first (link `(x, y)` connects `(x, y)` and `(x+1, y)`), then
/// the `width * (height-1)` vertical links (link `(x, y)` connects
/// `(x, y)` and `(x, y+1)`).
///
/// # Examples
///
/// ```
/// use scq_mesh::{Coord, Topology};
///
/// let topo = Topology::new(4, 3);
/// assert_eq!(topo.num_links(), 17);
/// let route = topo.route_xy(Coord::new(0, 0), Coord::new(3, 2));
/// assert_eq!(route.len_hops(), 5);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Topology {
    width: u32,
    height: u32,
}

impl Topology {
    /// Creates a `width x height` router topology.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be positive");
        Topology { width, height }
    }

    /// Width in routers.
    pub fn width(self) -> u32 {
        self.width
    }

    /// Height in routers.
    pub fn height(self) -> u32 {
        self.height
    }

    /// Total number of routers.
    pub fn num_nodes(self) -> usize {
        (self.width * self.height) as usize
    }

    /// Number of horizontal links.
    pub fn num_h_links(self) -> usize {
        ((self.width - 1) * self.height) as usize
    }

    /// Number of vertical links.
    pub fn num_v_links(self) -> usize {
        (self.width * (self.height - 1)) as usize
    }

    /// Total number of links.
    pub fn num_links(self) -> usize {
        self.num_h_links() + self.num_v_links()
    }

    /// Returns `true` if `c` lies on the mesh.
    pub fn contains(self, c: Coord) -> bool {
        c.x < self.width && c.y < self.height
    }

    /// Index of the horizontal link from `(x, y)` to `(x+1, y)` within
    /// the horizontal-link block.
    pub(crate) fn h_index(self, x: u32, y: u32) -> usize {
        (y * (self.width - 1) + x) as usize
    }

    /// Index of the vertical link from `(x, y)` to `(x, y+1)` within
    /// the vertical-link block.
    pub(crate) fn v_index(self, x: u32, y: u32) -> usize {
        (y * self.width + x) as usize
    }

    /// Index of router `c` in the node space.
    pub(crate) fn node_index(self, c: Coord) -> usize {
        (c.y * self.width + c.x) as usize
    }

    /// Canonical index of the link between adjacent routers `a` and `b`
    /// in the combined link space (horizontal block first).
    pub(crate) fn link_index(self, a: Coord, b: Coord) -> usize {
        debug_assert!(a.is_adjacent(b), "link endpoints must be adjacent");
        if a.y == b.y {
            self.h_index(a.x.min(b.x), a.y)
        } else {
            self.num_h_links() + self.v_index(a.x, a.y.min(b.y))
        }
    }

    /// Walks the dimension-ordered route `src -> dst`, invoking `f` on
    /// every node in order. `f` returning `false` aborts the walk; the
    /// return value reports whether the walk completed.
    pub(crate) fn walk_dim_ordered(
        src: Coord,
        dst: Coord,
        order: DimOrder,
        mut f: impl FnMut(Coord) -> bool,
    ) -> bool {
        let mut cur = src;
        if !f(cur) {
            return false;
        }
        let step_x = |cur: &mut Coord| {
            cur.x = if dst.x > cur.x { cur.x + 1 } else { cur.x - 1 };
        };
        let step_y = |cur: &mut Coord| {
            cur.y = if dst.y > cur.y { cur.y + 1 } else { cur.y - 1 };
        };
        match order {
            DimOrder::XThenY => {
                while cur.x != dst.x {
                    step_x(&mut cur);
                    if !f(cur) {
                        return false;
                    }
                }
                while cur.y != dst.y {
                    step_y(&mut cur);
                    if !f(cur) {
                        return false;
                    }
                }
            }
            DimOrder::YThenX => {
                while cur.y != dst.y {
                    step_y(&mut cur);
                    if !f(cur) {
                        return false;
                    }
                }
                while cur.x != dst.x {
                    step_x(&mut cur);
                    if !f(cur) {
                        return false;
                    }
                }
            }
        }
        true
    }

    pub(crate) fn route_dim_ordered_into(
        self,
        src: Coord,
        dst: Coord,
        order: DimOrder,
        out: &mut Path,
    ) {
        assert!(
            self.contains(src) && self.contains(dst),
            "endpoints must be on the mesh"
        );
        let nodes = out.nodes_mut();
        nodes.clear();
        Self::walk_dim_ordered(src, dst, order, |c| {
            nodes.push(c);
            true
        });
    }

    /// Dimension-ordered (X then Y) route between two routers.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is off the mesh.
    pub fn route_xy(self, src: Coord, dst: Coord) -> Path {
        let mut out = Path::empty();
        self.route_xy_into(src, dst, &mut out);
        out
    }

    /// Like [`Topology::route_xy`], writing into `out` instead of
    /// allocating.
    ///
    /// # Panics
    ///
    /// As [`Topology::route_xy`].
    pub fn route_xy_into(self, src: Coord, dst: Coord, out: &mut Path) {
        self.route_dim_ordered_into(src, dst, DimOrder::XThenY, out);
    }

    /// Dimension-ordered (Y then X) route between two routers.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is off the mesh.
    pub fn route_yx(self, src: Coord, dst: Coord) -> Path {
        let mut out = Path::empty();
        self.route_yx_into(src, dst, &mut out);
        out
    }

    /// Like [`Topology::route_yx`], writing into `out` instead of
    /// allocating.
    ///
    /// # Panics
    ///
    /// As [`Topology::route_yx`].
    pub fn route_yx_into(self, src: Coord, dst: Coord, out: &mut Path) {
        self.route_dim_ordered_into(src, dst, DimOrder::YThenX, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_counts() {
        let t = Topology::new(4, 3);
        assert_eq!(t.num_h_links(), 9);
        assert_eq!(t.num_v_links(), 8);
        assert_eq!(t.num_links(), 17);
        assert_eq!(t.num_nodes(), 12);
    }

    #[test]
    fn link_indices_are_unique_and_dense() {
        let t = Topology::new(5, 4);
        let mut seen = vec![false; t.num_links()];
        for y in 0..4u32 {
            for x in 0..4u32 {
                let i = t.link_index(Coord::new(x, y), Coord::new(x + 1, y));
                assert!(!seen[i], "duplicate h index {i}");
                seen[i] = true;
            }
        }
        for y in 0..3u32 {
            for x in 0..5u32 {
                let i = t.link_index(Coord::new(x, y), Coord::new(x, y + 1));
                assert!(!seen[i], "duplicate v index {i}");
                seen[i] = true;
            }
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn link_index_is_symmetric() {
        let t = Topology::new(3, 3);
        let a = Coord::new(1, 1);
        for b in [Coord::new(2, 1), Coord::new(1, 2), Coord::new(0, 1)] {
            assert_eq!(t.link_index(a, b), t.link_index(b, a));
        }
    }

    #[test]
    fn routes_match_both_orders() {
        let t = Topology::new(5, 5);
        let xy = t.route_xy(Coord::new(0, 0), Coord::new(3, 2));
        assert_eq!(xy.len_hops(), 5);
        assert_eq!(xy.nodes()[1], Coord::new(1, 0));
        let yx = t.route_yx(Coord::new(0, 0), Coord::new(3, 2));
        assert_eq!(yx.len_hops(), 5);
        assert_eq!(yx.nodes()[1], Coord::new(0, 1));
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimension_rejected() {
        let _ = Topology::new(3, 0);
    }
}
