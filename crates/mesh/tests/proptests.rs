//! Property-based tests: mesh claims must be atomic, exclusive, and
//! fully reversible; routes must be valid, shortest where promised, and
//! node for node those of a `VecDeque` BFS oracle; the congestion
//! probes must agree with the walks and the search they stand in for;
//! and defect maps must be avoided by their routes and sampled
//! deterministically.

use std::collections::VecDeque;

use proptest::prelude::*;
use scq_mesh::{ClaimId, Coord, DefectMap, Mesh, Path, RouteScratch, Topology};

fn arb_mesh_and_endpoints() -> impl Strategy<Value = (u32, u32, Coord, Coord)> {
    (2u32..12, 2u32..12).prop_flat_map(|(w, h)| {
        ((0..w), (0..h), (0..w), (0..h))
            .prop_map(move |(x1, y1, x2, y2)| (w, h, Coord::new(x1, y1), Coord::new(x2, y2)))
    })
}

/// Mesh sides where the bitboards' word seams sit, drawn as often as a
/// uniform side in `1..=140`.
const SEAM_SIDES: [u32; 6] = [1, 63, 64, 65, 128, 129];

fn arb_side() -> impl Strategy<Value = u32> {
    (0usize..12, 1u32..141).prop_map(|(i, side)| SEAM_SIDES.get(i).copied().unwrap_or(side))
}

/// Which routers and links are free, read through the public API:
/// `is_path_free`, for an owner holding nothing, on a one-router path
/// and on each one-link path.
struct FreeMap {
    w: u32,
    node: Vec<bool>,
    /// Link from router `i` east to `i + 1` (with both routers).
    east: Vec<bool>,
    /// Link from router `i` south to `i + w` (with both routers).
    south: Vec<bool>,
}

impl FreeMap {
    fn new(mesh: &Mesh) -> Self {
        let (w, h) = (mesh.width(), mesh.height());
        // `congested_mesh` claims for owners 1..=4 only.
        let free = |nodes: Vec<Coord>| mesh.is_path_free(&Path::new(nodes), 0);
        let coords = || (0..h).flat_map(move |y| (0..w).map(move |x| Coord::new(x, y)));
        FreeMap {
            w,
            node: coords().map(|c| free(vec![c])).collect(),
            east: coords()
                .map(|c| c.x + 1 < w && free(vec![c, Coord::new(c.x + 1, c.y)]))
                .collect(),
            south: coords()
                .map(|c| c.y + 1 < h && free(vec![c, Coord::new(c.x, c.y + 1)]))
                .collect(),
        }
    }

    fn index(&self, c: Coord) -> usize {
        (c.y * self.w + c.x) as usize
    }

    /// The adaptive search as first written, kept as the oracle of the
    /// f-level sweeps: a `VecDeque` BFS over free routers and links that
    /// tries neighbors east, west, south, north and stops when `dst` is
    /// first discovered, which returns the shortest route whose moves
    /// are lexicographically smallest. `None` when no route exists.
    fn route(&self, src: Coord, dst: Coord) -> Option<Vec<Coord>> {
        if !self.node[self.index(src)] || !self.node[self.index(dst)] {
            return None;
        }
        let mut prev = vec![usize::MAX; self.node.len()];
        let mut seen = vec![false; self.node.len()];
        let mut queue = VecDeque::new();
        seen[self.index(src)] = true;
        queue.push_back(src);
        'bfs: while let Some(cur) = queue.pop_front() {
            let i = self.index(cur);
            let neighbors = [
                (self.east[i]).then(|| Coord::new(cur.x + 1, cur.y)),
                (cur.x > 0 && self.east[i - 1]).then(|| Coord::new(cur.x - 1, cur.y)),
                (self.south[i]).then(|| Coord::new(cur.x, cur.y + 1)),
                (cur.y > 0 && self.south[i - self.w as usize])
                    .then(|| Coord::new(cur.x, cur.y - 1)),
            ];
            for n in neighbors.into_iter().flatten() {
                let j = self.index(n);
                if seen[j] {
                    continue;
                }
                seen[j] = true;
                prev[j] = i;
                if n == dst {
                    break 'bfs;
                }
                queue.push_back(n);
            }
        }
        if !seen[self.index(dst)] {
            return None;
        }
        let mut path = vec![dst];
        let mut cur = self.index(dst);
        while cur != self.index(src) {
            cur = prev[cur];
            path.push(Coord::new(cur as u32 % self.w, cur as u32 / self.w));
        }
        path.reverse();
        Some(path)
    }
}

/// A `w x h` mesh, dead routers and links sampled at `defect_rate`,
/// congested by `claims` short dimension-ordered braids from owners
/// 1..=4 (those that find every resource free), some of them released
/// again. Returns the mesh and every path still held, with its owner.
fn congested_mesh(
    w: u32,
    h: u32,
    defect_rate: f64,
    claims: usize,
    rng: &mut TestRng,
) -> (Mesh, Vec<(Path, ClaimId)>) {
    let map = DefectMap::sample(Topology::new(w, h), defect_rate, rng.next_u64());
    let mut mesh = Mesh::with_defects(w, h, &map);
    let mut held = Vec::new();
    let mut pick = |bound: u32| (rng.next_u64() % u64::from(bound)) as u32;
    for _ in 0..claims {
        let a = Coord::new(pick(w), pick(h));
        let b = Coord::new((a.x + pick(12)).min(w - 1), (a.y + pick(12)).min(h - 1));
        let path = if pick(2) == 0 {
            mesh.route_xy(a, b)
        } else {
            mesh.route_yx(b, a)
        };
        // Owner 0 holds nothing, so a claim never overlaps its own
        // owner's earlier paths and every path releases cleanly.
        let owner = 1 + pick(4);
        if mesh.is_path_free(&path, 0) && mesh.try_claim(&path, owner) {
            held.push((path, owner));
        }
        if pick(5) == 0 && !held.is_empty() {
            let (path, owner) = held.swap_remove(pick(held.len() as u32) as usize);
            mesh.release(&path, owner);
        }
    }
    (mesh, held)
}

fn random_coord(mesh: &Mesh, rng: &mut TestRng) -> Coord {
    Coord::new(
        (rng.next_u64() % u64::from(mesh.width())) as u32,
        (rng.next_u64() % u64::from(mesh.height())) as u32,
    )
}

/// The geometry bound on an adaptive search's work: the row words
/// (`ceil(width / 64)` a row) of every f-level from |src - dst| to the
/// route's length `len`, each over the rows y with
/// |y - src.y| + |y - dst.y| <= len.
fn words_bound(mesh: &Mesh, src: Coord, dst: Coord, len: u32) -> usize {
    let row_words = mesh.width().div_ceil(64) as usize;
    let levels = ((len - src.manhattan(dst)) / 2 + 1) as usize;
    let rows = (0..mesh.height())
        .filter(|&y| y.abs_diff(src.y) + y.abs_diff(dst.y) <= len)
        .count();
    row_words * levels * rows
}

/// Runs the adaptive search between every two of `points` and checks
/// it against the oracle node for node, and its work against
/// [`words_bound`].
fn assert_routes_match_the_oracle(mesh: &Mesh, points: &[Coord]) {
    let (w, h) = (mesh.width(), mesh.height());
    let free = FreeMap::new(mesh);
    let mut scratch = RouteScratch::new();
    let mut out = Path::empty();
    for &src in points {
        for &dst in points {
            let expect = free.route(src, dst);
            let found = mesh.route_adaptive_into(src, dst, &mut scratch, &mut out);
            assert_eq!(found, expect.is_some(), "{w}x{h} {src} -> {dst}");
            if let Some(expect) = expect {
                assert_eq!(out.nodes(), &expect[..], "{w}x{h} {src} -> {dst}");
                let bound = words_bound(mesh, src, dst, out.len_hops() as u32);
                assert!(
                    scratch.expanded() as usize <= bound,
                    "{w}x{h} {src} -> {dst}: {} words touched, bound {bound}",
                    scratch.expanded()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn adaptive_routes_match_the_vecdeque_oracle_node_for_node(
        sides in (arb_side(), arb_side(), arb_side(), arb_side()),
        rate in (0u32..3).prop_map(|k| if k == 0 { 0.03 } else { 0.0 }),
        seed in 0u64..u64::MAX,
    ) {
        // Two meshes of different sizes share one scratch, and each is
        // queried 18 times against the free map of an owner holding
        // nothing.
        let mut rng = TestRng::seed_from_u64(seed);
        let mut scratch = RouteScratch::new();
        let mut out = Path::empty();
        for (w, h) in [(sides.0, sides.1), (sides.2, sides.3)] {
            let claims = (w * h / 12) as usize;
            let (mesh, _) = congested_mesh(w, h, rate, claims, &mut rng);
            let free = FreeMap::new(&mesh);
            for _ in 0..18 {
                let (src, dst) = (random_coord(&mesh, &mut rng), random_coord(&mesh, &mut rng));
                let expect = free.route(src, dst);
                let found = mesh.route_adaptive_into(src, dst, &mut scratch, &mut out);
                prop_assert_eq!(found, expect.is_some(), "{}x{} {} -> {}", w, h, src, dst);
                if let Some(expect) = expect {
                    prop_assert_eq!(out.nodes(), &expect[..], "{}x{} {} -> {}", w, h, src, dst);
                    let bound = words_bound(&mesh, src, dst, out.len_hops() as u32);
                    prop_assert!(
                        scratch.expanded() as usize <= bound,
                        "{}x{} {} -> {}: {} words touched, bound {}",
                        w, h, src, dst, scratch.expanded(), bound
                    );
                }
            }
        }
    }

    #[test]
    fn congestion_probes_are_exact_where_promised(
        (w, h) in (arb_side(), arb_side()).prop_map(|(w, h)| (w.min(80), h.min(80))),
        rate in (0u32..2).prop_map(|k| if k == 0 { 0.05 } else { 0.0 }),
        seed in 0u64..u64::MAX,
    ) {
        // The route probe equals a failed adaptive search for an owner
        // holding nothing; the corridor probes never call a claimable
        // walk blocked, and without defects they match the walk exactly.
        let mut rng = TestRng::seed_from_u64(seed);
        let (mesh, _) = congested_mesh(w, h, rate, (w * h / 8) as usize, &mut rng);
        let mut scratch = RouteScratch::new();
        for _ in 0..40 {
            let (src, dst) = (random_coord(&mesh, &mut rng), random_coord(&mesh, &mut rng));
            prop_assert_eq!(
                mesh.route_certainly_blocked(src, dst, &mut scratch),
                mesh.route_adaptive(src, dst).is_none(),
                "route probe {} -> {} on {}x{}", src, dst, w, h
            );
            let xy_walks = mesh.clone().claim_route_xy_into(src, dst, 99, &mut Path::empty());
            let yx_walks = mesh.clone().claim_route_yx_into(src, dst, 99, &mut Path::empty());
            prop_assert!(!(xy_walks && mesh.xy_certainly_blocked(src, dst)), "xy {} -> {}", src, dst);
            prop_assert!(!(yx_walks && mesh.yx_certainly_blocked(src, dst)), "yx {} -> {}", src, dst);
            if rate == 0.0 {
                prop_assert_eq!(mesh.xy_certainly_blocked(src, dst), !xy_walks, "xy {} -> {}", src, dst);
                prop_assert_eq!(mesh.yx_certainly_blocked(src, dst), !yx_walks, "yx {} -> {}", src, dst);
            }
        }
    }
}

proptest! {
    #[test]
    fn dimension_ordered_routes_are_shortest((w, h, a, b) in arb_mesh_and_endpoints()) {
        let mesh = Mesh::new(w, h);
        let xy = mesh.route_xy(a, b);
        let yx = mesh.route_yx(a, b);
        prop_assert_eq!(xy.len_hops() as u32, a.manhattan(b));
        prop_assert_eq!(yx.len_hops() as u32, a.manhattan(b));
        prop_assert_eq!(xy.source(), a);
        prop_assert_eq!(xy.dest(), b);
        // Dimension-ordered routes have at most one turn.
        prop_assert!(xy.turns() <= 1);
        prop_assert!(yx.turns() <= 1);
    }

    #[test]
    fn adaptive_on_empty_mesh_is_shortest((w, h, a, b) in arb_mesh_and_endpoints()) {
        let mesh = Mesh::new(w, h);
        let p = mesh.route_adaptive(a, b).expect("empty mesh always routes");
        prop_assert_eq!(p.len_hops() as u32, a.manhattan(b));
    }

    #[test]
    fn claim_release_restores_idle_state((w, h, a, b) in arb_mesh_and_endpoints()) {
        let mut mesh = Mesh::new(w, h);
        let p = mesh.route_xy(a, b);
        prop_assert!(mesh.try_claim(&p, 7));
        prop_assert_eq!(mesh.busy_links(), p.len_hops());
        mesh.release(&p, 7);
        prop_assert_eq!(mesh.busy_links(), 0);
        // The same path can be claimed again by anyone.
        prop_assert!(mesh.try_claim(&p, 8));
    }

    #[test]
    fn failed_claims_leave_no_partial_state(
        (w, h, a, b) in arb_mesh_and_endpoints(),
        (x, y) in (0u32..12, 0u32..12),
    ) {
        let mut mesh = Mesh::new(w, h);
        let blocker = Coord::new(x % w, y % h);
        let single = Path::new(vec![blocker]);
        prop_assert!(mesh.try_claim(&single, 1));
        let busy_before = mesh.busy_links();
        let p = mesh.route_xy(a, b);
        let claimed = mesh.try_claim(&p, 2);
        if claimed {
            // Claim succeeded: the blocker was not on the route.
            prop_assert!(p.nodes().iter().all(|&n| n != blocker));
            mesh.release(&p, 2);
        }
        prop_assert_eq!(mesh.busy_links(), busy_before);
    }

    #[test]
    fn adaptive_routes_avoid_claimed_resources(
        (w, h, a, b) in arb_mesh_and_endpoints(),
    ) {
        let mut mesh = Mesh::new(w, h);
        // Claim a random-ish wall in the middle row (partial, so a
        // detour may exist).
        let wall_y = h / 2;
        let wall = mesh.route_xy(Coord::new(0, wall_y), Coord::new((w - 1) / 2, wall_y));
        prop_assert!(mesh.try_claim(&wall, 99));
        if let Some(p) = mesh.route_adaptive(a, b) {
            // The route never touches the wall's resources.
            for &n in p.nodes() {
                prop_assert!(
                    !wall.nodes().contains(&n),
                    "adaptive route crossed the wall at {}", n
                );
            }
            prop_assert!(mesh.try_claim(&p, 1), "adaptive route must be claimable");
        }
    }

    #[test]
    fn defect_avoiding_routes_never_touch_defects(
        (w, h, a, b) in arb_mesh_and_endpoints(),
        rate in 0.0f64..0.4,
        seed in 0u64..1000,
    ) {
        let map = DefectMap::sample(Topology::new(w, h), rate, seed);
        if let Some(p) = map.route_avoiding(a, b) {
            prop_assert_eq!(p.source(), a);
            prop_assert_eq!(p.dest(), b);
            prop_assert!(map.path_clear(&p), "route traverses a defective resource");
            // The route is claimable on the matching defective mesh —
            // defects are modeled as permanent claims, so clearance and
            // claimability must agree.
            let mut mesh = Mesh::with_defects(w, h, &map);
            prop_assert!(mesh.try_claim(&p, 1), "defect-clear route must be claimable");
        } else {
            // No route: either an endpoint is dead or every detour is
            // blocked; the adaptive mesh router must agree there is no
            // defect-free path.
            let mesh = Mesh::with_defects(w, h, &map);
            prop_assert!(
                map.node_dead(a) || map.node_dead(b) || mesh.route_adaptive(a, b).is_none(),
                "DefectMap found no route but the mesh router did"
            );
        }
    }

    #[test]
    fn sampled_maps_are_seed_deterministic(
        (w, h) in (2u32..12, 2u32..12),
        rate in 0.0f64..0.4,
        seed in 0u64..1000,
    ) {
        let a = DefectMap::sample(Topology::new(w, h), rate, seed);
        let b = DefectMap::sample(Topology::new(w, h), rate, seed);
        prop_assert_eq!(a.dead_node_count(), b.dead_node_count());
        prop_assert_eq!(a.dead_link_count(), b.dead_link_count());
        prop_assert_eq!(a.flaky_link_count(), b.flaky_link_count());
    }
}

#[test]
fn adaptive_routes_match_the_oracle_at_word_shift_edges() {
    // Endpoints in columns 0, 62, 63, 64 and w - 1, on meshes one to
    // five routers tall, idle and congested: fill masks that shift a
    // word by 64 show here first.
    let mut rng = TestRng::seed_from_u64(64);
    for w in [63, 64, 65, 128] {
        for h in [1, 2, 5] {
            let columns = [0, 62, 63, 64, w - 1].into_iter().filter(|&x| x < w);
            let points: Vec<Coord> = columns
                .flat_map(|x| [Coord::new(x, 0), Coord::new(x, h - 1)])
                .collect();
            let (congested, _) = congested_mesh(w, h, 0.0, (w * h / 6) as usize, &mut rng);
            for mesh in [Mesh::new(w, h), congested] {
                assert_routes_match_the_oracle(&mesh, &points);
            }
        }
    }
}

#[test]
fn adaptive_routes_match_the_oracle_on_one_router_wide_meshes() {
    // A column of routers: every row is one word with one bit.
    let mut rng = TestRng::seed_from_u64(1);
    for h in [1, 2, 63, 64, 65, 128] {
        let rows = [0, 1, 62, 63, 64, h - 1].into_iter().filter(|&y| y < h);
        let points: Vec<Coord> = rows.map(|y| Coord::new(0, y)).collect();
        let (congested, _) = congested_mesh(1, h, 0.0, (h / 16) as usize, &mut rng);
        for mesh in [Mesh::new(1, h), congested] {
            assert_routes_match_the_oracle(&mesh, &points);
        }
    }
}

#[test]
fn adaptive_search_refuses_a_claimed_or_a_dead_endpoint() {
    // Router (63, 1) is claimed and (64, 1), across the word seam, dead.
    let map = DefectMap::from_text("dims 70 3\nnode 64 1\n").expect("a valid map");
    let mut mesh = Mesh::with_defects(70, 3, &map);
    assert!(mesh.try_claim(&Path::new(vec![Coord::new(63, 1)]), 1));
    let (claimed, dead, open) = (Coord::new(63, 1), Coord::new(64, 1), Coord::new(0, 0));
    let mut scratch = RouteScratch::new();
    let mut out = Path::empty();
    for (src, dst) in [
        (claimed, open),
        (open, claimed),
        (claimed, claimed),
        (dead, open),
        (open, dead),
        (dead, dead),
    ] {
        assert!(!mesh.route_adaptive_into(src, dst, &mut scratch, &mut out));
        assert_eq!(scratch.expanded(), 0, "{src} -> {dst} touched no word");
        assert!(mesh.route_certainly_blocked(src, dst, &mut scratch));
    }
    let around = [
        Coord::new(62, 1),
        Coord::new(65, 1),
        open,
        Coord::new(69, 2),
    ];
    assert_routes_match_the_oracle(&mesh, &around);
}
