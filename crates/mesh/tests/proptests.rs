//! Property-based tests: mesh claims must be atomic, exclusive, and
//! fully reversible; routes must be valid and shortest where promised;
//! and the calendar-queue event core must be indistinguishable from
//! its `BinaryHeap` differential twin on every stream.

use std::collections::VecDeque;

use proptest::prelude::*;
use scq_mesh::{
    CalendarQueue, ClaimId, Coord, DefectMap, EventQueue, HeapQueue, Mesh, Path, RouteScratch,
    Topology,
};

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

/// Who may use each router and link, for one owner, read through the
/// public API: `is_path_free` on a one-router path and on each
/// one-link path.
struct FreeMap {
    w: u32,
    node: Vec<bool>,
    /// Link from router `i` east to `i + 1` (with both routers).
    east: Vec<bool>,
    /// Link from router `i` south to `i + w` (with both routers).
    south: Vec<bool>,
}

impl FreeMap {
    fn new(mesh: &Mesh, owner: ClaimId) -> Self {
        let (w, h) = (mesh.width(), mesh.height());
        let free = |nodes: Vec<Coord>| mesh.is_path_free(&Path::new(nodes), owner);
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
    /// A* search: a `VecDeque` BFS over free routers and links that
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

/// Checks every line read of the bitboards against a `node_claimed`
/// scan.
fn assert_line_reads_match_scan(mesh: &Mesh) {
    let span = |claimed: &[u32]| claimed.first().map(|&lo| (lo, claimed[claimed.len() - 1]));
    for y in 0..mesh.height() {
        let claimed: Vec<u32> = (0..mesh.width())
            .filter(|&x| mesh.node_claimed(Coord::new(x, y)))
            .collect();
        assert_eq!(mesh.row_claimed_count(y), claimed.len() as u32, "row {y}");
        assert_eq!(mesh.row_claimed_interval(y), span(&claimed), "row {y}");
    }
    for x in 0..mesh.width() {
        let claimed: Vec<u32> = (0..mesh.height())
            .filter(|&y| mesh.node_claimed(Coord::new(x, y)))
            .collect();
        assert_eq!(
            mesh.col_claimed_count(x),
            claimed.len() as u32,
            "column {x}"
        );
        assert_eq!(mesh.col_claimed_interval(x), span(&claimed), "column {x}");
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
        // queried for owner 1 (which may hold resources that count as
        // free for it), owner 3 and an owner holding nothing.
        let mut rng = TestRng::seed_from_u64(seed);
        let mut scratch = RouteScratch::new();
        let mut out = Path::empty();
        for (w, h) in [(sides.0, sides.1), (sides.2, sides.3)] {
            let claims = (w * h / 12) as usize;
            let (mesh, _) = congested_mesh(w, h, rate, claims, &mut rng);
            for owner in [1, 3, 77] {
                let free = FreeMap::new(&mesh, owner);
                for _ in 0..6 {
                    let (src, dst) = (random_coord(&mesh, &mut rng), random_coord(&mesh, &mut rng));
                    let expect = free.route(src, dst);
                    let found = mesh.route_adaptive_into(src, dst, owner, &mut scratch, &mut out);
                    prop_assert_eq!(found, expect.is_some(), "{}x{} {} -> {} owner {}", w, h, src, dst, owner);
                    if let Some(expect) = expect {
                        prop_assert_eq!(out.nodes(), &expect[..], "{}x{} {} -> {} owner {}", w, h, src, dst, owner);
                        // Only free routers that a route of this length
                        // could pass, |v - src| + |v - dst| <= L, expand.
                        let len = out.len_hops() as u32;
                        let within = (0..w * h)
                            .map(|i| Coord::new(i % w, i / w))
                            .filter(|&v| {
                                free.node[free.index(v)] && v.manhattan(src) + v.manhattan(dst) <= len
                            })
                            .count();
                        prop_assert!(
                            scratch.expanded() as usize <= within,
                            "{}x{} {} -> {} owner {}: {} expanded, {} within reach",
                            w, h, src, dst, owner, scratch.expanded(), within
                        );
                    }
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
        for _ in 0..40 {
            let (src, dst) = (random_coord(&mesh, &mut rng), random_coord(&mesh, &mut rng));
            prop_assert_eq!(
                mesh.route_certainly_blocked(src, dst),
                mesh.route_adaptive(src, dst, 99).is_none(),
                "route probe {} -> {} on {}x{}", src, dst, w, h
            );
            let xy_walks = mesh.clone().claim_route_xy(src, dst, 99).is_some();
            let yx_walks = mesh.clone().claim_route_yx(src, dst, 99).is_some();
            prop_assert!(!(xy_walks && mesh.xy_certainly_blocked(src, dst)), "xy {} -> {}", src, dst);
            prop_assert!(!(yx_walks && mesh.yx_certainly_blocked(src, dst)), "yx {} -> {}", src, dst);
            if rate == 0.0 {
                prop_assert_eq!(mesh.xy_certainly_blocked(src, dst), !xy_walks, "xy {} -> {}", src, dst);
                prop_assert_eq!(mesh.yx_certainly_blocked(src, dst), !yx_walks, "yx {} -> {}", src, dst);
            }
        }
    }

    #[test]
    fn bitboard_line_reads_match_a_scan_after_claims_and_releases(
        (w, h) in (arb_side(), arb_side()).prop_map(|(w, h)| (w.min(100), h.min(100))),
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = TestRng::seed_from_u64(seed);
        let (mut mesh, mut held) = congested_mesh(w, h, 0.02, (w * h / 10) as usize, &mut rng);
        assert_line_reads_match_scan(&mesh);
        // Release everything in a shuffled order, checking as we go.
        while !held.is_empty() {
            let (path, owner) = held.swap_remove((rng.next_u64() % held.len() as u64) as usize);
            mesh.release(&path, owner);
            if held.len() % 4 == 0 {
                assert_line_reads_match_scan(&mesh);
            }
        }
        prop_assert_eq!(mesh.busy_links(), 0);
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
        let p = mesh.route_adaptive(a, b, 1).expect("empty mesh always routes");
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
        if let Some(p) = mesh.route_adaptive(a, b, 1) {
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
                map.node_dead(a) || map.node_dead(b) || mesh.route_adaptive(a, b, 1).is_none(),
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

    #[test]
    fn calendar_queue_matches_its_heap_twin_on_arbitrary_streams(
        ops in proptest::collection::vec((0u64..50_000, 0u32..4, 0u32..3), 1..300),
    ) {
        // Pushes interleaved with peeks and pops, every push at or
        // after the last popped time (the engines' contract). A peek
        // may walk the cursor past quiet windows, so a later push
        // between the last pop and the cursor takes the cursor-clamp
        // path. After every step the two cores must agree on length,
        // the peeked minimum, and every popped (time, payload).
        let mut cal: CalendarQueue<u32> = CalendarQueue::new();
        let mut heap: HeapQueue<u32> = HeapQueue::new();
        let mut last_pop = 0u64;
        for (delay, p, step) in ops {
            cal.push(last_pop + delay, p);
            heap.push(last_pop + delay, p);
            if step == 1 {
                prop_assert_eq!(cal.peek(), heap.peek());
            } else if step == 2 {
                let popped = cal.pop();
                prop_assert_eq!(popped, heap.pop());
                last_pop = popped.map_or(last_pop, |(t, _)| t);
            }
            prop_assert_eq!(cal.len(), heap.len());
        }
        while let Some(expect) = heap.pop() {
            prop_assert_eq!(cal.pop(), Some(expect));
        }
        prop_assert!(cal.is_empty());
        prop_assert_eq!(cal.pop(), None);
    }

    #[test]
    fn calendar_queue_orders_ties_and_far_future_outliers_like_the_heap(
        ties in proptest::collection::vec((0u64..50, 0u32..3), 1..80),
        outliers in proptest::collection::vec((u64::MAX - 1_000_000)..=u64::MAX, 0..20),
    ) {
        // Dense duplicate (time, payload) pairs force the tie-breaking
        // path; outliers near u64::MAX land beyond any calendar horizon
        // and must ride the overflow heap without reordering — the two
        // regimes the fig6-scale traces never mix this aggressively.
        // Every push precedes the first pop, and peeks interleave.
        let mut cal: CalendarQueue<u32> = CalendarQueue::new();
        let mut heap: HeapQueue<u32> = HeapQueue::new();
        for &(t, p) in &ties {
            for _ in 0..2 {
                cal.push(t, p);
                heap.push(t, p);
            }
            prop_assert_eq!(cal.peek(), heap.peek());
        }
        for &t in &outliers {
            cal.push(t, 9);
            heap.push(t, 9);
        }
        prop_assert_eq!(cal.len(), heap.len());
        let mut last = None;
        while let Some(expect) = heap.pop() {
            prop_assert!(last <= Some(expect));
            prop_assert_eq!(cal.pop(), Some(expect));
            last = Some(expect);
        }
        prop_assert!(cal.is_empty());
    }

    #[test]
    fn strict_calendar_queue_survives_monotone_event_loops(
        delays in proptest::collection::vec((1u64..64, 0u32..2), 1..200),
    ) {
        // The braid usage pattern: every push is now + delay for a
        // popped now — the queue's debug-asserted contract. The drain
        // order must be globally sorted.
        let mut cal: CalendarQueue<u32> = CalendarQueue::new();
        let mut heap: HeapQueue<u32> = HeapQueue::new();
        cal.push(0, 0);
        heap.push(0, 0);
        let mut reinjections = delays.into_iter();
        while let Some((now, p)) = cal.pop() {
            prop_assert_eq!(heap.pop(), Some((now, p)));
            if let Some((delay, q)) = reinjections.next() {
                cal.push(now + delay, q);
                heap.push(now + delay, q);
            }
        }
        prop_assert!(heap.is_empty());
    }

    #[test]
    fn utilization_is_bounded((w, h, a, b) in arb_mesh_and_endpoints()) {
        let mut mesh = Mesh::new(w, h);
        let p = mesh.route_xy(a, b);
        let _ = mesh.try_claim(&p, 1);
        for _ in 0..5 {
            mesh.tick();
        }
        prop_assert!(mesh.utilization() >= 0.0);
        prop_assert!(mesh.utilization() <= 1.0);
    }
}
