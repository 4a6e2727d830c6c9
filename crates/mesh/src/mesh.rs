//! The circuit-switched mesh: atomic path claims and routing.

use crate::coord::{Coord, Path};
use crate::defect::DefectMap;
use crate::topology::{DimOrder, Topology};

/// Identifier of a path owner (one braid or message).
pub type ClaimId = u32;

const FREE: ClaimId = ClaimId::MAX;

/// Reserved owner marking fabrication defects ([`Mesh::with_defects`]):
/// dead routers and links are claimed by this sentinel forever, so every
/// claim walk, probe, and adaptive search treats them as permanently
/// occupied without any defect-specific logic.
const DEFECT: ClaimId = ClaimId::MAX - 1;

/// Reusable buffers for [`Mesh::route_adaptive_into`] and
/// [`Mesh::route_certainly_blocked`].
///
/// The adaptive search keeps a band of bitboard rows per f-level and a
/// bitboard of the routers some level holds, and the blocked-route
/// flood a row of reach bits and a dirty flag per mesh row; allocating
/// them per call dominates the cost of short searches and floods. One
/// `RouteScratch` amortizes those allocations across every adaptive
/// routing attempt of a scheduling run. A search clears only the rows
/// it sweeps.
#[derive(Clone, Debug, Default)]
pub struct RouteScratch {
    /// The search's f-levels, one after another, each the rows of its
    /// [`Band`] laid out like the free-router bitboard.
    levels: Vec<u64>,
    /// Where each level's rows sit, f = |src - dst| first.
    bands: Vec<Band>,
    /// Routers some level holds, laid out like the free-router
    /// bitboard; only the rows a level of the current search spans are
    /// current.
    labelled: Vec<u64>,
    /// Per word of a row, the columns at most `src.x` and those at
    /// least `src.x`: where a sweep's fills carry bits east and west.
    toward: Vec<[u64; 2]>,
    /// A row of zeros, the level's row swept before the first.
    zeros: Vec<u64>,
    /// Row words the last search's sweeps touched.
    expanded: u32,
    /// The flood's reach bits, laid out like the free-router bitboard.
    reach: Vec<u64>,
    /// The flood's rows whose reach grew since they last spread.
    dirty: Vec<bool>,
}

/// The router rows `lo..=hi` that one f-level of an adaptive search
/// swept, stored from word `at` of [`RouteScratch::levels`].
#[derive(Clone, Copy, Debug)]
struct Band {
    lo: usize,
    hi: usize,
    at: usize,
}

impl RouteScratch {
    /// Creates an empty scratch; buffers grow to the mesh size on first
    /// use.
    pub fn new() -> Self {
        RouteScratch::default()
    }

    /// The last search's work: the row words its f-level sweeps
    /// touched, every word of each row they closed. A search refused at
    /// its endpoints touches none.
    pub fn expanded(&self) -> u32 {
        self.expanded
    }
}

/// Panics unless `owner` may hold resources: `ClaimId::MAX` marks free
/// slots and `ClaimId::MAX - 1` defects.
fn assert_owner(owner: ClaimId) {
    assert!(
        owner < DEFECT,
        "ClaimId::MAX is reserved (and ClaimId::MAX - 1 marks defects)"
    );
}

/// The bits of word `i` that fall within the first `len` bits of a line.
fn line_mask(i: usize, len: u32) -> u64 {
    match len.saturating_sub(64 * i as u32) {
        0 => 0,
        n if n >= 64 => u64::MAX,
        n => (1 << n) - 1,
    }
}

/// `lines` lines of `words` words each, the first `len` bits of each set.
fn full_lines(len: u32, words: usize, lines: u32) -> Vec<u64> {
    let line: Vec<u64> = (0..words).map(|i| line_mask(i, len)).collect();
    line.repeat(lines as usize)
}

/// Sets bit `i` of the line that starts at word `line` to `on`.
fn set_bit(words: &mut [u64], line: usize, i: u32, on: bool) {
    let (word, bit) = (line + (i / 64) as usize, 1u64 << (i % 64));
    words[word] = words[word] & !bit | if on { bit } else { 0 };
}

/// Row `r` of a bitboard of `rw` words a row.
fn row_of(bits: &[u64], r: usize, rw: usize) -> &[u64] {
    &bits[r * rw..][..rw]
}

fn bit(words: &[u64], i: u32) -> bool {
    words[(i / 64) as usize] >> (i % 64) & 1 == 1
}

/// `true` if bits `lo..=hi` of `words` are all set.
fn all_set(words: &[u64], lo: u32, hi: u32) -> bool {
    let (first, last) = ((lo / 64) as usize, (hi / 64) as usize);
    (first..=last).all(|i| {
        let from = if i == first { lo % 64 } else { 0 };
        let to = if i == last { hi % 64 } else { 63 };
        let mask = (u64::MAX >> (63 - (to - from))) << from;
        words[i] & mask == mask
    })
}

/// Occluded fill toward higher bits: spreads `reach` into each bit of
/// `enter` (the bits that can be entered from the bit below) that a run
/// of `enter` bits joins to it. Adding `reach` to the runs of
/// `enter | reach` carries through exactly the bits it fills.
fn fill_up(reach: u64, enter: u64) -> u64 {
    let runs = enter | reach;
    reach | (runs ^ runs.wrapping_add(reach)) & runs
}

/// [`fill_up`] toward lower bits: `enter` holds the bits that can be
/// entered from the bit above.
fn fill_down(mut reach: u64, mut enter: u64) -> u64 {
    for s in [1, 2, 4, 8, 16, 32] {
        reach |= enter & (reach >> s);
        enter &= enter >> s;
    }
    reach
}

/// A 2D circuit-switched mesh of routers and links.
///
/// This models the braid fabric of the paper's Section 6.1: a braid is a
/// *message* that claims an entire route — every link **and** every
/// router on it — atomically in one cycle, holds it while syndrome
/// measurements stabilize, and releases it when it closes. Because two
/// defects cannot coexist nearby, there are no buffers and no virtual
/// channels: a route is either entirely free or unusable
/// ("braids differ from conventional messages": (a)-(d) in the paper).
///
/// # Examples
///
/// ```
/// use scq_mesh::{Coord, Mesh};
///
/// let mut mesh = Mesh::new(4, 4);
/// let path = mesh.route_xy(Coord::new(0, 0), Coord::new(3, 2));
/// assert!(mesh.try_claim(&path, 7));
/// // The same corridor is now unavailable to a second braid.
/// assert!(!mesh.try_claim(&path, 8));
/// mesh.release(&path, 7);
/// assert!(mesh.try_claim(&path, 8));
/// ```
#[derive(Clone, Debug)]
pub struct Mesh {
    topo: Topology,
    /// Horizontal link (x, y) connects (x, y) and (x+1, y); `(width-1) * height`.
    h_links: Vec<ClaimId>,
    /// Vertical link (x, y) connects (x, y) and (x, y+1); `width * (height-1)`.
    v_links: Vec<ClaimId>,
    /// Router occupancy.
    nodes: Vec<ClaimId>,
    busy_links: usize,
    /// Occupancy bitboards, a set bit marking a free resource, written
    /// together with the owner arrays above. Every row of bits takes
    /// `row_words` words (`ceil(width / 64)`).
    row_words: usize,
    /// Free routers, row by row: bit `x` of row `y` is router `(x, y)`.
    free_nodes: Vec<u64>,
    /// Free horizontal links, row by row: bit `x` of row `y` is the link
    /// from `(x, y)` to `(x + 1, y)`.
    free_h: Vec<u64>,
    /// Free vertical links, a row of bits per pair of adjacent router
    /// rows: bit `x` of row `y` is the link from `(x, y)` to `(x, y + 1)`.
    free_v: Vec<u64>,
    /// Words per column of `free_cols` (`ceil(height / 64)`).
    col_words: usize,
    /// Free routers, column by column: bit `y` of column `x` is router
    /// `(x, y)`.
    free_cols: Vec<u64>,
}

impl Mesh {
    /// Creates an idle `width x height` router mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        let topo = Topology::new(width, height);
        let (row_words, col_words) = (width.div_ceil(64) as usize, height.div_ceil(64) as usize);
        Mesh {
            topo,
            h_links: vec![FREE; topo.num_h_links()],
            v_links: vec![FREE; topo.num_v_links()],
            nodes: vec![FREE; topo.num_nodes()],
            busy_links: 0,
            row_words,
            free_nodes: full_lines(width, row_words, height),
            free_h: full_lines(width - 1, row_words, height),
            free_v: full_lines(width, row_words, height - 1),
            col_words,
            free_cols: full_lines(height, col_words, width),
        }
    }

    /// Creates a `width x height` router mesh whose defective resources
    /// (per `defects`) are permanently claimed by the reserved `DEFECT`
    /// sentinel. Claims, probes, and adaptive routing all treat them as
    /// occupied forever; they are never released, and they do not count
    /// toward [`Mesh::busy_links`], which stays traffic-only. With an
    /// empty map this is exactly [`Mesh::new`].
    ///
    /// Flaky links are a transient-fault concept of the packet
    /// [`Fabric`](crate::Fabric); the circuit-switched mesh ignores
    /// them (a braid holds its route for a full error-correction cycle,
    /// which absorbs transient link faults by construction).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the map's topology is not
    /// `width x height`.
    pub fn with_defects(width: u32, height: u32, defects: &DefectMap) -> Self {
        let mut mesh = Mesh::new(width, height);
        let map_topo = defects.topology();
        assert!(
            map_topo.width() == width && map_topo.height() == height,
            "defect map is {}x{} but the mesh is {width}x{height}",
            map_topo.width(),
            map_topo.height()
        );
        for y in 0..height {
            for x in 0..width {
                let c = Coord::new(x, y);
                if defects.node_dead_idx(mesh.node_index(c)) {
                    mesh.write_node(c, DEFECT);
                }
                for n in [Coord::new(x + 1, y), Coord::new(x, y + 1)] {
                    if mesh.contains(n) && defects.link_dead_idx(mesh.topo.link_index(c, n)) {
                        mesh.write_link(c, n, DEFECT);
                    }
                }
            }
        }
        mesh
    }

    /// The underlying geometry, shared with the packet-style
    /// [`Fabric`](crate::Fabric) layer.
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// Mesh width in routers.
    pub fn width(&self) -> u32 {
        self.topo.width()
    }

    /// Mesh height in routers.
    pub fn height(&self) -> u32 {
        self.topo.height()
    }

    /// Total number of links.
    pub fn num_links(&self) -> usize {
        self.topo.num_links()
    }

    /// Number of currently claimed links.
    pub fn busy_links(&self) -> usize {
        self.busy_links
    }

    /// Returns `true` if `c` lies on the mesh.
    pub fn contains(&self, c: Coord) -> bool {
        self.topo.contains(c)
    }

    fn h_index(&self, x: u32, y: u32) -> usize {
        self.topo.h_index(x, y)
    }

    fn v_index(&self, x: u32, y: u32) -> usize {
        self.topo.v_index(x, y)
    }

    fn node_index(&self, c: Coord) -> usize {
        self.topo.node_index(c)
    }

    /// Free-router bits of row `y`.
    fn node_row(&self, y: u32) -> &[u64] {
        &self.free_nodes[y as usize * self.row_words..][..self.row_words]
    }

    /// Free-router bits of column `x`.
    fn node_col(&self, x: u32) -> &[u64] {
        &self.free_cols[x as usize * self.col_words..][..self.col_words]
    }

    fn link_owner(&self, a: Coord, b: Coord) -> ClaimId {
        if a.y == b.y {
            self.h_links[self.h_index(a.x.min(b.x), a.y)]
        } else {
            self.v_links[self.v_index(a.x, a.y.min(b.y))]
        }
    }

    /// Sets the owner of the link between adjacent `a` and `b` and its
    /// bitboard bit; returns the previous owner.
    fn write_link(&mut self, a: Coord, b: Coord, owner: ClaimId) -> ClaimId {
        debug_assert!(a.is_adjacent(b), "link endpoints must be adjacent");
        let row_words = self.row_words;
        let (slot, bits, x, y) = if a.y == b.y {
            let (x, y) = (a.x.min(b.x), a.y);
            let i = self.h_index(x, y);
            (&mut self.h_links[i], &mut self.free_h, x, y)
        } else {
            let (x, y) = (a.x, a.y.min(b.y));
            let i = self.v_index(x, y);
            (&mut self.v_links[i], &mut self.free_v, x, y)
        };
        set_bit(bits, y as usize * row_words, x, owner == FREE);
        std::mem::replace(slot, owner)
    }

    /// Sets the owner of router `c` and its bits in both node
    /// bitboards; returns the previous owner.
    fn write_node(&mut self, c: Coord, owner: ClaimId) -> ClaimId {
        let (row, col) = (c.y as usize * self.row_words, c.x as usize * self.col_words);
        set_bit(&mut self.free_nodes, row, c.x, owner == FREE);
        set_bit(&mut self.free_cols, col, c.y, owner == FREE);
        let i = self.node_index(c);
        std::mem::replace(&mut self.nodes[i], owner)
    }

    /// Claims every router and link of the route `nodes` for `owner`,
    /// each checked free or already `owner`'s (an idempotent re-claim);
    /// only newly claimed links count as busy.
    fn claim_free(&mut self, nodes: &[Coord], owner: ClaimId) {
        for &n in nodes {
            let old = self.write_node(n, owner);
            debug_assert!(old == FREE || old == owner, "claim over a foreign node");
        }
        for pair in nodes.windows(2) {
            if self.write_link(pair[0], pair[1], owner) == FREE {
                self.busy_links += 1;
            }
        }
    }

    /// Returns `true` if every node and link of `path` is unclaimed (or
    /// already claimed by `owner`, making re-claims idempotent).
    ///
    /// # Panics
    ///
    /// Panics if the path leaves the mesh.
    pub fn is_path_free(&self, path: &Path, owner: ClaimId) -> bool {
        for &n in path.nodes() {
            assert!(
                self.contains(n),
                "path node {n} outside {}x{} mesh",
                self.width(),
                self.height()
            );
            let o = self.nodes[self.node_index(n)];
            if o != FREE && o != owner {
                return false;
            }
        }
        for (a, b) in path.links() {
            let o = self.link_owner(a, b);
            if o != FREE && o != owner {
                return false;
            }
        }
        true
    }

    /// Atomically claims every node and link of `path` for `owner`.
    ///
    /// Returns `false` (claiming nothing) if any resource is held by a
    /// different owner — the braid cannot open this cycle.
    ///
    /// # Panics
    ///
    /// Panics if the path leaves the mesh or `owner` is one of the
    /// reserved sentinels (`ClaimId::MAX` is reserved for free slots,
    /// `ClaimId::MAX - 1` marks defects).
    pub fn try_claim(&mut self, path: &Path, owner: ClaimId) -> bool {
        assert_owner(owner);
        if !self.is_path_free(path, owner) {
            return false;
        }
        self.claim_free(path.nodes(), owner);
        true
    }

    /// Releases a previously claimed path.
    ///
    /// # Panics
    ///
    /// Panics if any resource on the path is not held by `owner` —
    /// releasing someone else's braid is always a scheduler bug.
    pub fn release(&mut self, path: &Path, owner: ClaimId) {
        for &n in path.nodes() {
            let old = self.write_node(n, FREE);
            assert_eq!(old, owner, "node {n} not owned by {owner}");
        }
        for (a, b) in path.links() {
            let old = self.write_link(a, b, FREE);
            assert_eq!(old, owner, "link not owned by {owner}");
            self.busy_links -= 1;
        }
    }

    /// Returns `true` if the router at `c` is currently claimed.
    ///
    /// # Panics
    ///
    /// Panics if `c` is off the mesh.
    pub fn node_claimed(&self, c: Coord) -> bool {
        assert!(
            self.contains(c),
            "node {c} outside {}x{} mesh",
            self.width(),
            self.height()
        );
        self.nodes[self.node_index(c)] != FREE
    }

    /// Congestion probe: `true` proves the dimension-ordered X-then-Y
    /// walk `src -> dst` cannot be claimed *by a claimant that currently
    /// holds no mesh resources* — some router on the walk is claimed.
    ///
    /// The probe tests the walk's routers (row `src.y`, then column
    /// `dst.x`) against the occupancy bitboards a word at a time. It
    /// never reports a claimable walk as blocked; on a defect-free mesh
    /// it is exact — it returns `true` precisely when
    /// [`Mesh::claim_route_xy_into`] would return `false` for such a
    /// claimant — because a claimed link always comes with its claimed
    /// endpoint routers. A dead link between live routers is the one
    /// failure it cannot see.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is off the mesh.
    pub fn xy_certainly_blocked(&self, src: Coord, dst: Coord) -> bool {
        assert!(
            self.contains(src) && self.contains(dst),
            "endpoints must be on the mesh"
        );
        let (x_lo, x_hi) = (src.x.min(dst.x), src.x.max(dst.x));
        let (y_lo, y_hi) = (src.y.min(dst.y), src.y.max(dst.y));
        !all_set(self.node_row(src.y), x_lo, x_hi) || !all_set(self.node_col(dst.x), y_lo, y_hi)
    }

    /// Y-then-X counterpart of [`Mesh::xy_certainly_blocked`]: probes
    /// column `src.x` and row `dst.y`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is off the mesh.
    pub fn yx_certainly_blocked(&self, src: Coord, dst: Coord) -> bool {
        // The Y-then-X walk src -> dst traverses column src.x then row
        // dst.y — exactly the X-then-Y walk dst -> src.
        self.xy_certainly_blocked(dst, src)
    }

    /// Exact unroutability probe for *any* route: `true` precisely when
    /// no path whatsoever — dimension-ordered or adaptive — connects
    /// `src` and `dst` for a claimant that currently holds no mesh
    /// resources, i.e. when [`Mesh::route_adaptive`] returns `None`.
    ///
    /// Past the endpoint checks, a bit-parallel flood over the occupancy
    /// bitboards decides reachability: within a row, reach spreads along
    /// runs of free routers joined by free links; between rows, it
    /// crosses free vertical links; rows are swept down and up until
    /// nothing changes or `dst` is reached. The flood costs a few word
    /// operations per row and sweep instead of a search step per router.
    ///
    /// The flood's buffers come from `scratch`, which the caller reuses
    /// across calls as for [`Mesh::route_adaptive_into`].
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is off the mesh.
    pub fn route_certainly_blocked(
        &self,
        src: Coord,
        dst: Coord,
        scratch: &mut RouteScratch,
    ) -> bool {
        self.node_claimed(src)
            || self.node_claimed(dst)
            || !self.free_region_reaches(src, dst, scratch)
    }

    /// The flood behind [`Mesh::route_certainly_blocked`], from the free
    /// router `src`. Rows gain reach bits and turn dirty; each sweep
    /// visits its dirty rows in order, spreads them and pushes into both
    /// neighbour rows. A neighbour ahead of the sweep is visited in the
    /// same sweep, one behind it in the next, which runs the other way.
    fn free_region_reaches(&self, src: Coord, dst: Coord, scratch: &mut RouteScratch) -> bool {
        let (h, rw) = (self.height() as usize, self.row_words);
        let RouteScratch { reach, dirty, .. } = scratch;
        reach.clear();
        reach.resize(h * rw, 0);
        dirty.clear();
        dirty.resize(h, false);
        set_bit(reach, src.y as usize * rw, src.x, true);
        dirty[src.y as usize] = true;
        // Dirty rows of the coming sweep lie in `lo..=hi`.
        let (mut lo, mut hi, mut down) = (src.y as usize, src.y as usize, true);
        loop {
            let (mut next_lo, mut next_hi) = (usize::MAX, 0);
            let mut y = if down { lo } else { hi };
            while (lo..=hi).contains(&y) {
                if std::mem::take(&mut dirty[y]) {
                    self.spread_row(y, &mut reach[y * rw..][..rw]);
                    if y == dst.y as usize && bit(&reach[y * rw..], dst.x) {
                        return true;
                    }
                    for (ny, link_row) in [(y + 1, y), (y.wrapping_sub(1), y.wrapping_sub(1))] {
                        if ny >= h || !self.push_reach(reach, y, ny, link_row) {
                            continue;
                        }
                        dirty[ny] = true;
                        if (ny > y) == down {
                            (lo, hi) = (lo.min(ny), hi.max(ny));
                        } else {
                            (next_lo, next_hi) = (next_lo.min(ny), next_hi.max(ny));
                        }
                    }
                }
                y = if down { y + 1 } else { y.wrapping_sub(1) };
            }
            if next_lo > next_hi {
                return false;
            }
            (lo, hi, down) = (next_lo, next_hi, !down);
        }
    }

    /// Spreads `reach`, the reach bits of row `y`, along the row's runs
    /// of free routers joined by free links: east through the words,
    /// then west, carrying across word boundaries.
    fn spread_row(&self, y: usize, reach: &mut [u64]) {
        let rw = self.row_words;
        let nodes = &self.free_nodes[y * rw..][..rw];
        let links = &self.free_h[y * rw..][..rw];
        // East: router x can be entered from x - 1 over link x - 1.
        let (mut link_in, mut reach_in) = (0, 0);
        for k in 0..rw {
            let enter = (links[k] << 1 | link_in) & nodes[k];
            reach[k] = fill_up(reach[k] | (reach_in & enter), enter);
            (link_in, reach_in) = (links[k] >> 63, reach[k] >> 63);
        }
        // West: router x can be entered from x + 1 over link x.
        let mut reach_in = 0;
        for k in (0..rw).rev() {
            let enter = links[k] & nodes[k];
            reach[k] = fill_down(reach[k] | (reach_in & enter), enter);
            reach_in = reach[k] << 63;
        }
    }

    /// Adds to row `to`'s reach the routers of row `from`'s reach whose
    /// vertical link (in link row `link_row`) and router in `to` are
    /// free. Returns whether any bit was new.
    fn push_reach(&self, reach: &mut [u64], from: usize, to: usize, link_row: usize) -> bool {
        let rw = self.row_words;
        let mut grew = false;
        for k in 0..rw {
            let add = reach[from * rw + k]
                & self.free_v[link_row * rw + k]
                & self.free_nodes[to * rw + k]
                & !reach[to * rw + k];
            reach[to * rw + k] |= add;
            grew |= add != 0;
        }
        grew
    }

    /// Dimension-ordered (X then Y) route between two routers.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is off the mesh.
    pub fn route_xy(&self, src: Coord, dst: Coord) -> Path {
        let mut out = Path::empty();
        self.route_xy_into(src, dst, &mut out);
        out
    }

    /// Like [`Mesh::route_xy`], writing the route into `out` instead of
    /// allocating — the scratch-buffer variant for hot loops.
    ///
    /// # Panics
    ///
    /// As [`Mesh::route_xy`].
    pub fn route_xy_into(&self, src: Coord, dst: Coord, out: &mut Path) {
        self.topo
            .route_dim_ordered_into(src, dst, DimOrder::XThenY, out);
    }

    /// Dimension-ordered (Y then X) route between two routers.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is off the mesh.
    pub fn route_yx(&self, src: Coord, dst: Coord) -> Path {
        let mut out = Path::empty();
        self.route_yx_into(src, dst, &mut out);
        out
    }

    /// Like [`Mesh::route_yx`], writing the route into `out` instead of
    /// allocating.
    ///
    /// # Panics
    ///
    /// As [`Mesh::route_yx`].
    pub fn route_yx_into(&self, src: Coord, dst: Coord, out: &mut Path) {
        self.topo
            .route_dim_ordered_into(src, dst, DimOrder::YThenX, out);
    }

    fn claim_route_dim_ordered_into(
        &mut self,
        src: Coord,
        dst: Coord,
        order: DimOrder,
        owner: ClaimId,
        out: &mut Path,
    ) -> bool {
        assert!(
            self.contains(src) && self.contains(dst),
            "endpoints must be on the mesh"
        );
        assert_owner(owner);
        // Pass 1: availability check in place, touching nothing.
        let mut last: Option<Coord> = None;
        let free = Topology::walk_dim_ordered(src, dst, order, |c| {
            let node_owner = self.nodes[self.node_index(c)];
            if node_owner != FREE && node_owner != owner {
                return false;
            }
            if let Some(prev) = last {
                let link_owner = self.link_owner(prev, c);
                if link_owner != FREE && link_owner != owner {
                    return false;
                }
            }
            last = Some(c);
            true
        });
        if !free {
            return false;
        }
        // Pass 2: materialize the route and claim it.
        self.topo.route_dim_ordered_into(src, dst, order, out);
        self.claim_free(out.nodes(), owner);
        true
    }

    /// Fused route-and-claim along the dimension-ordered X-then-Y walk:
    /// checks every router and link of the route in place and claims the
    /// whole route atomically, writing it into `out`, without ever
    /// materializing a rejected route.
    ///
    /// Exactly equivalent to `route_xy` followed by [`Mesh::try_claim`],
    /// but allocation-free on the (common, under contention) failure
    /// path. Returns `false` and claims nothing if any resource is held
    /// by a different owner; `out` is unspecified in that case.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is off the mesh or `owner` is the
    /// reserved sentinel `ClaimId::MAX`.
    pub fn claim_route_xy_into(
        &mut self,
        src: Coord,
        dst: Coord,
        owner: ClaimId,
        out: &mut Path,
    ) -> bool {
        self.claim_route_dim_ordered_into(src, dst, DimOrder::XThenY, owner, out)
    }

    /// Fused route-and-claim along the Y-then-X walk; see
    /// [`Mesh::claim_route_xy_into`].
    ///
    /// # Panics
    ///
    /// As [`Mesh::claim_route_xy_into`].
    pub fn claim_route_yx_into(
        &mut self,
        src: Coord,
        dst: Coord,
        owner: ClaimId,
        out: &mut Path,
    ) -> bool {
        self.claim_route_dim_ordered_into(src, dst, DimOrder::YThenX, owner, out)
    }

    /// Shortest route from `src` to `dst` over currently-free resources,
    /// for a claimant that holds no mesh resources: the adaptive escape
    /// route of Section 6.1's "route adaptivity ... after certain
    /// timeouts". Returns `None` when the congestion leaves no free
    /// corridor, exactly when [`Mesh::route_certainly_blocked`] says so.
    ///
    /// Among the shortest free routes it returns the one whose moves
    /// from `src`, read as a sequence, are lexicographically smallest
    /// under east < west < south < north, so every route is
    /// reproducible.
    ///
    /// # Examples
    ///
    /// ```
    /// use scq_mesh::{Coord, Mesh};
    ///
    /// let mesh = Mesh::new(4, 3);
    /// let (src, dst) = (Coord::new(0, 0), Coord::new(3, 2));
    /// // East before south: the route runs along row 0, then down.
    /// let hops = [(0, 0), (1, 0), (2, 0), (3, 0), (3, 1), (3, 2)];
    /// let route = mesh.route_adaptive(src, dst).expect("an open mesh routes");
    /// assert_eq!(route.nodes(), hops.map(|(x, y)| Coord::new(x, y)));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is off the mesh.
    pub fn route_adaptive(&self, src: Coord, dst: Coord) -> Option<Path> {
        let mut scratch = RouteScratch::new();
        let mut out = Path::empty();
        self.route_adaptive_into(src, dst, &mut scratch, &mut out)
            .then_some(out)
    }

    /// Like [`Mesh::route_adaptive`], reusing the caller's search
    /// buffers and writing the route into `out` — the allocation-free
    /// variant for hot scheduling loops. Returns `false` (leaving `out`
    /// unspecified) when no free corridor exists.
    ///
    /// The search reads the occupancy bitboards a row of words at a
    /// time. For a router v, let g be its free-route distance to `dst`
    /// and h = |v - src|: a step toward `src` keeps f = g + h and a step
    /// away raises it by 2. The search labels one f-level after another
    /// as bitboard rows, from `dst`'s level f = |src - dst| up to the
    /// level that holds `src`, whose f is the route's length L, so it
    /// sweeps only rows with |y - src.y| + |y - dst.y| <= L. A walk from
    /// `src` then reads the route off the levels.
    ///
    /// # Panics
    ///
    /// As [`Mesh::route_adaptive`].
    pub fn route_adaptive_into(
        &self,
        src: Coord,
        dst: Coord,
        scratch: &mut RouteScratch,
        out: &mut Path,
    ) -> bool {
        assert!(
            self.contains(src) && self.contains(dst),
            "endpoints must be on the mesh"
        );
        scratch.expanded = 0;
        let free = |c: Coord| self.nodes[self.node_index(c)] == FREE;
        if !free(src) || !free(dst) {
            return false;
        }
        let Some(len) = self.sweep_levels(src, dst, scratch) else {
            return false;
        };
        self.walk_levels(src, dst, len, scratch, out);
        true
    }

    /// Fused search-and-claim: [`Mesh::route_adaptive_into`], then the
    /// route claimed for `owner`, written into `out`. The search counts
    /// what `owner` holds as taken, so its route is free by
    /// construction and is claimed without a second walk. Returns
    /// `false` and claims nothing when no free corridor exists.
    ///
    /// # Panics
    ///
    /// As [`Mesh::claim_route_xy_into`].
    pub fn claim_route_adaptive_into(
        &mut self,
        src: Coord,
        dst: Coord,
        owner: ClaimId,
        scratch: &mut RouteScratch,
        out: &mut Path,
    ) -> bool {
        assert_owner(owner);
        let found = self.route_adaptive_into(src, dst, scratch, out);
        if found {
            self.claim_free(out.nodes(), owner);
        }
        found
    }

    /// The f-level sweeps of [`Mesh::route_adaptive_into`] between two
    /// free routers: the f of the first level that holds `src`, which is
    /// the route's length, or `None` once a level comes out empty.
    ///
    /// Level f is the closure of its seeds under steps toward `src`:
    /// `dst` seeds the first level, and the free routers one free link
    /// from level f that no level holds yet seed level f + 2. Steps
    /// toward `src` run toward row `src.y` and, along a row, toward
    /// column `src.x`, so one sweep closes a level: the rows above
    /// `src.y` downward, the rows below it upward, then row `src.y`. A
    /// level's band spans `src.y` and the rows next to the previous
    /// level's bits, where its seeds lie. Past the seeds, a sweep stops
    /// at the first row it leaves empty: nothing reaches the rows after.
    fn sweep_levels(&self, src: Coord, dst: Coord, scratch: &mut RouteScratch) -> Option<u32> {
        let (rw, sy) = (self.row_words, src.y as usize);
        let last_row = self.height() as usize - 1;
        let RouteScratch {
            levels,
            bands,
            labelled,
            toward,
            zeros,
            expanded,
            ..
        } = scratch;
        levels.clear();
        bands.clear();
        labelled.resize(labelled.len().max(self.free_nodes.len()), 0);
        let sx = src.x;
        toward.clear();
        toward.extend((0..rw).map(|k| [line_mask(k, sx + 1), !line_mask(k, sx)]));
        zeros.resize(rw, 0);
        // The rows of the last level that hold routers.
        let (mut first, mut last) = (dst.y as usize, dst.y as usize);
        let (mut lo, mut hi) = (sy.min(first), sy.max(last));
        // The rows of `labelled` this search has cleared.
        let (mut clear_lo, mut clear_hi) = (lo, hi);
        labelled[lo * rw..(hi + 1) * rw].fill(0);
        let mut f = src.manhattan(dst);
        loop {
            let at = levels.len();
            levels.resize(at + (hi - lo + 1) * rw, 0);
            let band = Band { lo, hi, at };
            let (done, cur) = levels.split_at_mut(at);
            // Rows that may hold seeds.
            let (seed_lo, seed_hi) = match bands.last() {
                None => {
                    set_bit(cur, (dst.y as usize - lo) * rw, dst.x, true);
                    (first, last)
                }
                Some(&prev) => {
                    let from = &done[prev.at + (first - prev.lo) * rw..][..(last - first + 1) * rw];
                    self.seed_level(band, cur, (first, from), labelled);
                    (first.saturating_sub(1), (last + 1).min(last_row))
                }
            };
            let (mut swept, mut any_lo, mut any_hi) = (0, usize::MAX, 0);
            let mut close = |y: usize| {
                swept += 1;
                let any = self.close_row(y, sy, band, cur, labelled, (toward, zeros));
                if any {
                    (any_lo, any_hi) = (any_lo.min(y), any_hi.max(y));
                }
                any
            };
            for y in lo..sy {
                if !close(y) && y >= seed_hi {
                    break;
                }
            }
            for y in (sy + 1..=hi).rev() {
                if !close(y) && y <= seed_lo {
                    break;
                }
            }
            close(sy);
            bands.push(band);
            *expanded = expanded.saturating_add((swept * rw) as u32);
            if bit(&cur[(sy - lo) * rw..], src.x) {
                return Some(f);
            }
            if any_lo > any_hi {
                return None;
            }
            (first, last) = (any_lo, any_hi);
            lo = first.saturating_sub(1).min(sy);
            hi = (last + 1).min(last_row).max(sy);
            if lo < clear_lo {
                labelled[lo * rw..clear_lo * rw].fill(0);
                clear_lo = lo;
            }
            if hi > clear_hi {
                labelled[(clear_hi + 1) * rw..(hi + 1) * rw].fill(0);
                clear_hi = hi;
            }
            f += 2;
        }
    }

    /// Seeds the level whose rows `band` are `cur` from the previous
    /// level's rows `first..` (`from`): with the free routers one free
    /// link from them that no level holds yet. A row's words run on
    /// into the next row's, and no free link leaves a row's last word
    /// eastward, so each step shifts all rows' words at once.
    fn seed_level(
        &self,
        band: Band,
        cur: &mut [u64],
        (first, from): (usize, &[u64]),
        labelled: &[u64],
    ) {
        let rw = self.row_words;
        let (start, end) = (first * rw, first * rw + from.len());
        // Word `a` of the mesh's bitboards is word `a - base` of `cur`.
        let base = band.lo * rw;
        let h_links = &self.free_h[start..end];
        let here = &mut cur[start - base..end - base];
        // East into x over link x - 1, then west into x over link x.
        let mut carry = 0;
        for ((bits, &f), &l) in here.iter_mut().zip(from).zip(h_links) {
            *bits |= (f & l) << 1 | carry;
            carry = (f & l) >> 63;
        }
        let mut carry = 0;
        for ((bits, &f), &l) in here.iter_mut().zip(from).zip(h_links).rev() {
            *bits |= (f >> 1 | carry) & l;
            carry = f << 63;
        }
        // South over the links below the rows; the last row has none.
        let south_end = end.min(self.free_v.len());
        let v_links = &self.free_v[start..south_end];
        let below = &mut cur[start + rw - base..south_end + rw - base];
        for ((bits, &f), &l) in below.iter_mut().zip(from).zip(v_links) {
            *bits |= f & l;
        }
        // North over the links above the rows; row 0 has none.
        let north_start = start.max(rw);
        let v_links = &self.free_v[north_start - rw..end - rw];
        let above = &mut cur[north_start - rw - base..end - rw - base];
        let from_north = &from[north_start - start..];
        for ((bits, &f), &l) in above.iter_mut().zip(from_north).zip(v_links) {
            *bits |= f & l;
        }
        let (lo, hi) = (
            start.saturating_sub(rw),
            (end + rw).min(self.free_nodes.len()),
        );
        let seeds = cur[lo - base..hi - base].iter_mut();
        for ((bits, &free), &known) in seeds.zip(&self.free_nodes[lo..hi]).zip(&labelled[lo..hi]) {
            *bits &= free & !known;
        }
    }

    /// Closes row `y` of the level whose rows `band` are `cur` under
    /// steps toward `src`, and returns whether the row holds any
    /// router. The row gains the free routers one step toward row `sy`
    /// from the level's row swept before it that no level holds; its
    /// runs of free routers joined by free links then carry its bits
    /// toward column `src.x` (the `toward` masks), across words as
    /// [`Mesh::spread_row`] does, and the row's bits are labelled.
    fn close_row(
        &self,
        y: usize,
        sy: usize,
        band: Band,
        cur: &mut [u64],
        labelled: &mut [u64],
        (toward, zeros): (&[[u64; 2]], &[u64]),
    ) -> bool {
        let rw = self.row_words;
        let (toward, zeros) = (&toward[..rw], &zeros[..rw]);
        let nodes = row_of(&self.free_nodes, y, rw);
        let links = row_of(&self.free_h, y, rw);
        let known = &mut labelled[y * rw..][..rw];
        let (before, rest) = cur.split_at_mut((y - band.lo) * rw);
        let (bits, after) = rest.split_at_mut(rw);
        // The rows swept before this one, north and south, with the
        // vertical links between.
        let (north, north_links) = if y <= sy && y > band.lo {
            (
                &before[before.len() - rw..],
                row_of(&self.free_v, y - 1, rw),
            )
        } else {
            (zeros, zeros)
        };
        let (south, south_links) = if y >= sy && y < band.hi {
            (&after[..rw], row_of(&self.free_v, y, rw))
        } else {
            (zeros, zeros)
        };
        // East toward src.x: router x <= src.x is entered from x - 1.
        let (mut link_in, mut reach_in, mut any, mut east) = (0, 0, 0, 0);
        for k in 0..rw {
            let open = nodes[k] & !known[k];
            let seeds = bits[k] | (north[k] & north_links[k] | south[k] & south_links[k]) & open;
            let enter = (links[k] << 1 | link_in) & open & toward[k][0];
            bits[k] = fill_up(seeds | (reach_in & enter), enter);
            (link_in, reach_in) = (links[k] >> 63, bits[k] >> 63);
            any |= bits[k];
            east |= bits[k] & !toward[k][0];
        }
        if any == 0 {
            return false;
        }
        // West toward src.x, from routers east of it: router x >= src.x
        // is entered from x + 1.
        let mut reach_in = 0;
        for k in (0..rw).rev() {
            if east != 0 {
                let enter = links[k] & nodes[k] & !known[k] & toward[k][1];
                bits[k] = fill_down(bits[k] | (reach_in & enter), enter);
                reach_in = bits[k] << 63;
            }
            known[k] |= bits[k];
        }
        true
    }

    /// The walk of [`Mesh::route_adaptive_into`] from `src`, `len` hops
    /// from `dst`, over the swept levels. Each step goes to the first
    /// neighbor in east, west, south, north order that a free link
    /// reaches and that lies in level g - 1 + h, for g the hops left
    /// before the step and h the neighbor's distance to `src`: exactly
    /// the neighbors one hop nearer `dst`. A step away from `src` keeps
    /// the level, one toward it drops a level. Of the shortest routes,
    /// the walk takes the one whose moves are lexicographically
    /// smallest.
    fn walk_levels(
        &self,
        src: Coord,
        dst: Coord,
        len: u32,
        scratch: &RouteScratch,
        out: &mut Path,
    ) {
        let rw = self.row_words;
        let free = |links: &[u64], x: u32, y: u32| bit(&links[y as usize * rw..], x);
        // Whether level `i` (none below the first) holds `n`.
        let holds = |i: usize, n: Coord| {
            scratch.bands.get(i).is_some_and(|b| {
                let y = n.y as usize;
                (b.lo..=b.hi).contains(&y) && bit(&scratch.levels[b.at + (y - b.lo) * rw..], n.x)
            })
        };
        let (w, h) = (self.width(), self.height());
        let nodes = out.nodes_mut();
        nodes.clear();
        nodes.push(src);
        let (mut at, mut level) = (src, (len - src.manhattan(dst)) as usize / 2);
        while at != dst {
            let (x, y) = (at.x, at.y);
            let step = |away: bool| if away { level } else { level.wrapping_sub(1) };
            let (east, west) = (step(x >= src.x), step(x <= src.x));
            let (south, north) = (step(y >= src.y), step(y <= src.y));
            (at, level) = if x + 1 < w
                && free(&self.free_h, x, y)
                && holds(east, Coord::new(x + 1, y))
            {
                (Coord::new(x + 1, y), east)
            } else if x > 0 && free(&self.free_h, x - 1, y) && holds(west, Coord::new(x - 1, y)) {
                (Coord::new(x - 1, y), west)
            } else if y + 1 < h && free(&self.free_v, x, y) && holds(south, Coord::new(x, y + 1)) {
                (Coord::new(x, y + 1), south)
            } else {
                debug_assert!(y > 0 && free(&self.free_v, x, y - 1));
                debug_assert!(holds(north, Coord::new(x, y - 1)), "a next hop");
                (Coord::new(x, y - 1), north)
            };
            nodes.push(at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_count() {
        let m = Mesh::new(4, 3);
        // Horizontal: 3*3 = 9; vertical: 4*2 = 8.
        assert_eq!(m.num_links(), 17);
    }

    #[test]
    fn xy_and_yx_routes() {
        let m = Mesh::new(5, 5);
        let xy = m.route_xy(Coord::new(0, 0), Coord::new(3, 2));
        assert_eq!(xy.len_hops(), 5);
        assert_eq!(xy.nodes()[1], Coord::new(1, 0));
        let yx = m.route_yx(Coord::new(0, 0), Coord::new(3, 2));
        assert_eq!(yx.len_hops(), 5);
        assert_eq!(yx.nodes()[1], Coord::new(0, 1));
    }

    #[test]
    fn claims_are_atomic() {
        let mut m = Mesh::new(4, 4);
        let p1 = m.route_xy(Coord::new(0, 0), Coord::new(3, 0));
        assert!(m.try_claim(&p1, 1));
        // A crossing path shares node (2,0): claim must fail and leave
        // no partial claims.
        let p2 = m.route_xy(Coord::new(2, 0), Coord::new(2, 3));
        let busy_before = m.busy_links();
        assert!(!m.try_claim(&p2, 2));
        assert_eq!(m.busy_links(), busy_before);
        // A disjoint path succeeds.
        let p3 = m.route_xy(Coord::new(0, 2), Coord::new(3, 2));
        assert!(m.try_claim(&p3, 2));
    }

    #[test]
    fn braids_cannot_cross() {
        let mut m = Mesh::new(5, 5);
        let horizontal = m.route_xy(Coord::new(0, 2), Coord::new(4, 2));
        assert!(m.try_claim(&horizontal, 1));
        // Any vertical path through the occupied row is blocked...
        let vertical = m.route_xy(Coord::new(2, 0), Coord::new(2, 4));
        assert!(!m.try_claim(&vertical, 2));
        // ...and there is no adaptive way around a full-width wall.
        assert!(m
            .route_adaptive(Coord::new(2, 0), Coord::new(2, 4))
            .is_none());
    }

    #[test]
    fn adaptive_routing_detours() {
        let mut m = Mesh::new(5, 5);
        // Block the middle of the direct row.
        let wall = m.route_xy(Coord::new(2, 2), Coord::new(2, 3));
        assert!(m.try_claim(&wall, 9));
        let p = m
            .route_adaptive(Coord::new(0, 2), Coord::new(4, 2))
            .expect("detour exists");
        assert_eq!(p.source(), Coord::new(0, 2));
        assert_eq!(p.dest(), Coord::new(4, 2));
        assert!(p.len_hops() >= 6, "must detour, got {} hops", p.len_hops());
        assert!(m.try_claim(&p, 1));
    }

    #[test]
    fn adaptive_prefers_shortest_free() {
        let m = Mesh::new(6, 6);
        let p = m
            .route_adaptive(Coord::new(1, 1), Coord::new(4, 3))
            .unwrap();
        assert_eq!(
            p.len_hops() as u32,
            Coord::new(1, 1).manhattan(Coord::new(4, 3))
        );
    }

    #[test]
    fn release_frees_resources() {
        let mut m = Mesh::new(4, 4);
        let p = m.route_xy(Coord::new(0, 0), Coord::new(3, 3));
        assert!(m.try_claim(&p, 5));
        assert_eq!(m.busy_links(), 6);
        m.release(&p, 5);
        assert_eq!(m.busy_links(), 0);
        assert!(m.try_claim(&p, 6));
    }

    #[test]
    #[should_panic(expected = "not owned")]
    fn release_by_wrong_owner_panics() {
        let mut m = Mesh::new(3, 3);
        let p = m.route_xy(Coord::new(0, 0), Coord::new(2, 0));
        assert!(m.try_claim(&p, 1));
        m.release(&p, 2);
    }

    #[test]
    fn reclaim_by_same_owner_is_idempotent() {
        let mut m = Mesh::new(3, 3);
        let p = m.route_xy(Coord::new(0, 0), Coord::new(2, 0));
        assert!(m.try_claim(&p, 1));
        assert!(m.try_claim(&p, 1));
        assert_eq!(m.busy_links(), 2);
        m.release(&p, 1);
        assert_eq!(m.busy_links(), 0);
    }

    #[test]
    fn zero_hop_path_claims_single_node() {
        let mut m = Mesh::new(3, 3);
        let p = Path::new(vec![Coord::new(1, 1)]);
        assert!(m.try_claim(&p, 1));
        assert_eq!(m.busy_links(), 0);
        // Another braid cannot use that router.
        let crossing = m.route_xy(Coord::new(1, 0), Coord::new(1, 2));
        assert!(!m.try_claim(&crossing, 2));
        m.release(&p, 1);
        assert!(m.try_claim(&crossing, 2));
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_size_mesh_rejected() {
        let _ = Mesh::new(0, 3);
    }

    #[test]
    fn claim_route_matches_route_then_claim() {
        // Exhaustively compare the fused walk against the two-step
        // route+claim on a congested mesh, for both dimension orders.
        let mut reference = Mesh::new(6, 6);
        let mut fused = Mesh::new(6, 6);
        let wall = reference.route_xy(Coord::new(2, 1), Coord::new(2, 4));
        assert!(reference.try_claim(&wall, 99));
        assert!(fused.try_claim(&wall, 99));
        let mut out = Path::empty();
        for sx in 0..6u32 {
            for sy in 0..6u32 {
                for dx in 0..6u32 {
                    let (src, dst) = (Coord::new(sx, sy), Coord::new(dx, (sx + dx) % 6));
                    let owner = sx * 36 + sy * 6 + dx + 1000;
                    // X-then-Y.
                    let p = reference.route_xy(src, dst);
                    let expect = reference.try_claim(&p, owner);
                    let got = fused.claim_route_xy_into(src, dst, owner, &mut out);
                    assert_eq!(got, expect, "xy {src}->{dst}");
                    if expect {
                        assert_eq!(out.nodes(), p.nodes());
                        reference.release(&p, owner);
                        fused.release(&out, owner);
                    }
                    // Y-then-X.
                    let p = reference.route_yx(src, dst);
                    let expect = reference.try_claim(&p, owner);
                    let got = fused.claim_route_yx_into(src, dst, owner, &mut out);
                    assert_eq!(got, expect, "yx {src}->{dst}");
                    if expect {
                        assert_eq!(out.nodes(), p.nodes());
                        reference.release(&p, owner);
                        fused.release(&out, owner);
                    }
                    assert_eq!(reference.busy_links(), fused.busy_links());
                }
            }
        }
    }

    #[test]
    fn claim_route_failure_claims_nothing() {
        let mut m = Mesh::new(5, 5);
        let wall = m.route_xy(Coord::new(2, 0), Coord::new(2, 4));
        assert!(m.try_claim(&wall, 1));
        let busy = m.busy_links();
        let mut out = Path::empty();
        assert!(!m.claim_route_xy_into(Coord::new(0, 2), Coord::new(4, 2), 2, &mut out));
        assert_eq!(m.busy_links(), busy);
        // The wall itself is untouched and still releasable.
        m.release(&wall, 1);
        assert_eq!(m.busy_links(), 0);
    }

    #[test]
    fn route_into_variants_match_allocating_routes() {
        let m = Mesh::new(7, 5);
        let mut out = Path::empty();
        for (src, dst) in [
            (Coord::new(0, 0), Coord::new(6, 4)),
            (Coord::new(3, 3), Coord::new(3, 3)),
            (Coord::new(6, 0), Coord::new(0, 4)),
        ] {
            m.route_xy_into(src, dst, &mut out);
            assert_eq!(out.nodes(), m.route_xy(src, dst).nodes());
            m.route_yx_into(src, dst, &mut out);
            assert_eq!(out.nodes(), m.route_yx(src, dst).nodes());
        }
    }

    #[test]
    fn adaptive_into_reuses_scratch_across_searches() {
        let mut m = Mesh::new(8, 8);
        let wall = m.route_xy(Coord::new(3, 2), Coord::new(3, 5));
        assert!(m.try_claim(&wall, 50));
        let mut scratch = RouteScratch::new();
        let mut out = Path::empty();
        for trial in 0..10u32 {
            let src = Coord::new(0, trial % 8);
            let dst = Coord::new(7, (trial * 3) % 8);
            let expected = m.route_adaptive(src, dst);
            let got = m.route_adaptive_into(src, dst, &mut scratch, &mut out);
            match expected {
                Some(p) => {
                    assert!(got);
                    assert_eq!(out.nodes(), p.nodes(), "trial {trial}");
                }
                None => assert!(!got),
            }
        }
    }

    #[test]
    fn adaptive_into_blocked_endpoint_fails() {
        let mut m = Mesh::new(4, 4);
        assert!(m.try_claim(&Path::new(vec![Coord::new(0, 0)]), 9));
        let mut scratch = RouteScratch::new();
        let mut out = Path::empty();
        assert!(m.route_adaptive_into(Coord::new(1, 1), Coord::new(3, 3), &mut scratch, &mut out));
        assert!(scratch.expanded() > 0);
        assert!(!m.route_adaptive_into(Coord::new(0, 0), Coord::new(3, 3), &mut scratch, &mut out));
        // A search refused at its endpoints expands nothing.
        assert_eq!(scratch.expanded(), 0);
    }

    #[test]
    fn node_claimed_tracks_claims() {
        let mut m = Mesh::new(4, 4);
        let p = m.route_xy(Coord::new(0, 0), Coord::new(2, 0));
        assert!(!m.node_claimed(Coord::new(1, 0)));
        assert!(m.try_claim(&p, 7));
        assert!(m.node_claimed(Coord::new(1, 0)));
        assert!(!m.node_claimed(Coord::new(3, 3)));
        m.release(&p, 7);
        assert!(!m.node_claimed(Coord::new(1, 0)));
    }

    #[test]
    fn topology_accessor_matches_dimensions() {
        let m = Mesh::new(6, 4);
        let t = m.topology();
        assert_eq!((t.width(), t.height()), (6, 4));
        assert_eq!(t.num_links(), m.num_links());
    }

    #[test]
    fn certainly_blocked_probes_are_conservative() {
        // Exhaustive check on a congested mesh: whenever a corridor
        // probe says "blocked", the corresponding claim must fail for a
        // fresh owner holding nothing, and the route probe must agree
        // with the adaptive search exactly.
        let mut m = Mesh::new(7, 7);
        let mut s = RouteScratch::new();
        let wall_v = m.route_xy(Coord::new(3, 1), Coord::new(3, 5));
        assert!(m.try_claim(&wall_v, 90));
        let wall_h = m.route_xy(Coord::new(0, 6), Coord::new(6, 6));
        assert!(m.try_claim(&wall_h, 91));
        for sx in 0..7u32 {
            for sy in 0..7u32 {
                for dx in 0..7u32 {
                    for dy in 0..7u32 {
                        let (src, dst) = (Coord::new(sx, sy), Coord::new(dx, dy));
                        if m.xy_certainly_blocked(src, dst) {
                            let mut probe = m.clone();
                            assert!(
                                !probe.claim_route_xy_into(src, dst, 7, &mut Path::empty()),
                                "xy probe lied for {src}->{dst}"
                            );
                        }
                        if m.yx_certainly_blocked(src, dst) {
                            let mut probe = m.clone();
                            assert!(
                                !probe.claim_route_yx_into(src, dst, 7, &mut Path::empty()),
                                "yx probe lied for {src}->{dst}"
                            );
                        }
                        assert_eq!(
                            m.route_certainly_blocked(src, dst, &mut s),
                            m.route_adaptive(src, dst).is_none(),
                            "route probe inexact for {src}->{dst}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn full_wall_blocks_all_routes() {
        let mut m = Mesh::new(5, 5);
        let mut s = RouteScratch::new();
        let wall = m.route_xy(Coord::new(0, 2), Coord::new(4, 2));
        assert!(m.try_claim(&wall, 1));
        // Row 2 is fully claimed: anything crossing it is provably
        // unroutable, even adaptively.
        assert!(m.route_certainly_blocked(Coord::new(2, 0), Coord::new(2, 4), &mut s));
        assert!(m.xy_certainly_blocked(Coord::new(2, 0), Coord::new(2, 4)));
        assert!(m.yx_certainly_blocked(Coord::new(2, 0), Coord::new(2, 4)));
        // Endpoints on the same side are not separated by it.
        assert!(!m.route_certainly_blocked(Coord::new(0, 0), Coord::new(4, 1), &mut s));
        // Releasing the wall clears every verdict.
        m.release(&wall, 1);
        assert!(!m.route_certainly_blocked(Coord::new(2, 0), Coord::new(2, 4), &mut s));
        assert!(!m.xy_certainly_blocked(Coord::new(2, 0), Coord::new(2, 4)));
    }

    #[test]
    fn enclosed_endpoint_blocks_all_routes() {
        let mut m = Mesh::new(5, 5);
        let mut s = RouteScratch::new();
        // Wall the corner router (0, 0) in with its two neighbors.
        assert!(m.try_claim(&Path::new(vec![Coord::new(1, 0)]), 1));
        assert!(m.try_claim(&Path::new(vec![Coord::new(0, 1)]), 2));
        assert!(m.route_certainly_blocked(Coord::new(0, 0), Coord::new(4, 4), &mut s));
        assert!(m
            .route_adaptive(Coord::new(0, 0), Coord::new(4, 4))
            .is_none());
        // The zero-hop route to the enclosed-but-free router itself is
        // fine, so enclosure must not fire on src == dst.
        assert!(!m.route_certainly_blocked(Coord::new(0, 0), Coord::new(0, 0), &mut s));
        // Freeing one exit clears the verdict.
        m.release(&Path::new(vec![Coord::new(1, 0)]), 1);
        assert!(!m.route_certainly_blocked(Coord::new(0, 0), Coord::new(4, 4), &mut s));
    }

    #[test]
    fn claimed_endpoint_blocks_everything() {
        let mut m = Mesh::new(4, 4);
        let mut s = RouteScratch::new();
        assert!(m.try_claim(&Path::new(vec![Coord::new(1, 1)]), 5));
        assert!(m.node_claimed(Coord::new(1, 1)));
        assert!(!m.node_claimed(Coord::new(0, 0)));
        assert!(m.xy_certainly_blocked(Coord::new(1, 1), Coord::new(3, 3)));
        assert!(m.yx_certainly_blocked(Coord::new(0, 0), Coord::new(1, 1)));
        assert!(m.route_certainly_blocked(Coord::new(1, 1), Coord::new(3, 3), &mut s));
    }

    #[test]
    fn corridor_probe_tracks_releases() {
        let mut m = Mesh::new(8, 8);
        // Three single-node claims on row 3 at x = 1, 4, 6.
        for x in [1u32, 4, 6] {
            assert!(m.try_claim(&Path::new(vec![Coord::new(x, 3)]), 10 + x));
        }
        // Span [0, 0] holds nothing; [5, 7] certainly holds x=6.
        assert!(!m.xy_certainly_blocked(Coord::new(0, 3), Coord::new(0, 3)));
        assert!(m.xy_certainly_blocked(Coord::new(5, 3), Coord::new(7, 3)));
        // Releasing x=6 frees the span [5, 7]...
        m.release(&Path::new(vec![Coord::new(6, 3)]), 16);
        assert!(!m.xy_certainly_blocked(Coord::new(5, 3), Coord::new(7, 3)));
        // ...while x=1 still blocks [0, 2].
        assert!(m.xy_certainly_blocked(Coord::new(0, 3), Coord::new(2, 3)));
        m.release(&Path::new(vec![Coord::new(1, 3)]), 11);
        assert!(!m.xy_certainly_blocked(Coord::new(0, 3), Coord::new(2, 3)));
    }

    /// Checks every word of the four bitboards against the owner
    /// arrays: a set bit is exactly a free resource, and the bits past
    /// the end of each line stay clear.
    fn assert_bitboards_match_owners(m: &Mesh) {
        let (w, h) = (m.width(), m.height());
        let line = |len: u32, words: usize, free: &dyn Fn(u32) -> bool| -> Vec<u64> {
            let mut bits = vec![0u64; words];
            for i in (0..len).filter(|&i| free(i)) {
                set_bit(&mut bits, 0, i, true);
            }
            bits
        };
        let (rw, cw) = (m.row_words, m.col_words);
        for y in 0..h {
            let at = |words: &[u64]| words[y as usize * rw..][..rw].to_vec();
            let node = |x: u32| m.nodes[m.node_index(Coord::new(x, y))] == FREE;
            assert_eq!(at(&m.free_nodes), line(w, rw, &node), "routers of row {y}");
            let east = |x: u32| m.h_links[m.h_index(x, y)] == FREE;
            assert_eq!(at(&m.free_h), line(w - 1, rw, &east), "links of row {y}");
            if y + 1 < h {
                let south = |x: u32| m.v_links[m.v_index(x, y)] == FREE;
                assert_eq!(at(&m.free_v), line(w, rw, &south), "links below row {y}");
            }
        }
        for x in 0..w {
            let col = m.free_cols[x as usize * cw..][..cw].to_vec();
            let node = |y: u32| m.nodes[m.node_index(Coord::new(x, y))] == FREE;
            assert_eq!(col, line(h, cw, &node), "routers of column {x}");
        }
    }

    #[test]
    fn bitboards_match_the_owners_across_word_seams() {
        // 70 x 67 routers: rows and columns take two words each, and the
        // claims cross both word seams.
        let mut m = Mesh::new(70, 67);
        let claims = [
            (Coord::new(0, 0), Coord::new(69, 0)),
            (Coord::new(62, 2), Coord::new(66, 66)),
            (Coord::new(4, 63), Coord::new(64, 64)),
            (Coord::new(63, 10), Coord::new(63, 10)),
        ];
        let paths: Vec<Path> = claims
            .iter()
            .zip(1..)
            .map(|(&(a, b), owner)| {
                let mut p = Path::empty();
                assert!(
                    m.claim_route_xy_into(a, b, owner, &mut p),
                    "disjoint claims"
                );
                p
            })
            .collect();
        assert_bitboards_match_owners(&m);
        m.release(&paths[2], 3);
        assert_bitboards_match_owners(&m);
        m.release(&paths[0], 1);
        assert_bitboards_match_owners(&m);
    }

    #[test]
    fn defected_bitboards_match_the_owners() {
        use crate::defect::DefectMap;
        // Dead routers and dead links are claimed by the defect owner.
        let text = "dims 66 5\nnode 0 1\nnode 64 1\nnode 65 4\nlink 63 2 64 2\n";
        let map = DefectMap::from_text(text).unwrap();
        let mut m = Mesh::with_defects(66, 5, &map);
        assert_bitboards_match_owners(&m);
        let mut p = Path::empty();
        assert!(m.claim_route_xy_into(Coord::new(1, 3), Coord::new(65, 3), 3, &mut p));
        assert_bitboards_match_owners(&m);
        m.release(&p, 3);
        assert_bitboards_match_owners(&m);
    }

    #[test]
    fn defect_free_map_matches_plain_mesh() {
        use crate::defect::DefectMap;
        let topo = Topology::new(5, 4);
        let mut a = Mesh::new(5, 4);
        let mut b = Mesh::with_defects(5, 4, &DefectMap::empty(topo));
        let p = a.route_xy(Coord::new(0, 0), Coord::new(4, 3));
        assert_eq!(a.try_claim(&p, 1), b.try_claim(&p, 1));
        assert_eq!(a.busy_links(), b.busy_links());
        assert!(!b.node_claimed(Coord::new(2, 2)));
    }

    #[test]
    fn defective_resources_block_claims_and_adaptive_routes() {
        use crate::defect::DefectMap;
        let text = "dims 5 5\nnode 2 0\nlink 2 2 3 2\n";
        let map = DefectMap::from_text(text).unwrap();
        let mut m = Mesh::with_defects(5, 5, &map);
        assert!(map.node_dead(Coord::new(2, 0)) && m.node_claimed(Coord::new(2, 0)));
        // Defects do not count as traffic.
        assert_eq!(m.busy_links(), 0);
        // A route through the dead node cannot be claimed...
        let p = m.route_xy(Coord::new(0, 0), Coord::new(4, 0));
        assert!(!m.try_claim(&p, 1));
        // ...the fused walks refuse it too...
        let mut out = Path::empty();
        assert!(!m.claim_route_xy_into(Coord::new(0, 0), Coord::new(4, 0), 1, &mut out));
        // ...and the adaptive router detours around both defects.
        let detour = m
            .route_adaptive(Coord::new(0, 0), Coord::new(4, 0))
            .expect("live detour exists");
        assert!(detour.nodes().iter().all(|&n| !map.node_dead(n)));
        assert!(detour
            .links()
            .all(|(a, b)| !(a == Coord::new(2, 2) && b == Coord::new(3, 2)
                || a == Coord::new(3, 2) && b == Coord::new(2, 2))));
        assert!(m.try_claim(&detour, 1));
    }

    #[test]
    fn probes_stay_sound_with_defects() {
        use crate::defect::DefectMap;
        // A fully dead row separates the mesh; the probes must prove it
        // and must never contradict the claims.
        let mut text = String::from("dims 5 5\n");
        for x in 0..5 {
            text.push_str(&format!("node {x} 2\n"));
        }
        let map = DefectMap::from_text(&text).unwrap();
        let mut m = Mesh::with_defects(5, 5, &map);
        let mut s = RouteScratch::new();
        assert!(m.route_certainly_blocked(Coord::new(2, 0), Coord::new(2, 4), &mut s));
        assert!(m
            .route_adaptive(Coord::new(2, 0), Coord::new(2, 4))
            .is_none());
        assert!(m.xy_certainly_blocked(Coord::new(2, 0), Coord::new(2, 4)));
        // Same-side traffic is unaffected.
        let p = m.route_xy(Coord::new(0, 0), Coord::new(4, 0));
        assert!(m.try_claim(&p, 1));
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn defect_sentinel_is_not_a_legal_owner() {
        let mut m = Mesh::new(3, 3);
        let p = m.route_xy(Coord::new(0, 0), Coord::new(2, 0));
        let _ = m.try_claim(&p, ClaimId::MAX - 1);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn defect_sentinel_is_not_a_legal_search_owner() {
        // A route claimed for the sentinel would turn dead forever.
        let mut m = Mesh::new(3, 3);
        let (mut scratch, mut out) = (RouteScratch::new(), Path::empty());
        let (src, dst) = (Coord::new(0, 0), Coord::new(2, 0));
        let _ = m.claim_route_adaptive_into(src, dst, ClaimId::MAX - 1, &mut scratch, &mut out);
    }

    #[test]
    #[should_panic(expected = "defect map is")]
    fn mismatched_defect_map_dims_rejected() {
        use crate::defect::DefectMap;
        let map = DefectMap::empty(Topology::new(4, 4));
        let _ = Mesh::with_defects(5, 5, &map);
    }
}
