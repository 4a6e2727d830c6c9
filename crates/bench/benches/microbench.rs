//! Criterion microbenchmarks of the toolflow's hot kernels.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use scq_apps::{ising, Benchmark, IsingParams};
use scq_braid::{BraidConfig, Policy};
use scq_ir::{DependencyDag, InteractionGraph};
use scq_layout::{place, LayoutStrategy};
use scq_partition::{bisect, Graph};

fn bench_dag_construction(c: &mut Criterion) {
    let circuit = Benchmark::IsingFull.default_circuit();
    c.bench_function("dag/ising-default", |b| {
        b.iter(|| DependencyDag::from_circuit(std::hint::black_box(&circuit)))
    });
}

fn bench_partitioner(c: &mut Criterion) {
    let mut edges = Vec::new();
    let (w, h) = (24u32, 24u32);
    for y in 0..h {
        for x in 0..w {
            let id = y * w + x;
            if x + 1 < w {
                edges.push((id, id + 1, 1));
            }
            if y + 1 < h {
                edges.push((id, id + w, 1));
            }
        }
    }
    let graph = Graph::from_edges(w * h, &edges).unwrap();
    c.bench_function("partition/bisect-grid-576", |b| {
        b.iter(|| bisect(std::hint::black_box(&graph), 0.5))
    });
}

fn bench_layout(c: &mut Criterion) {
    let circuit = ising(&IsingParams {
        spins: 64,
        trotter_steps: 2,
        ..Default::default()
    });
    let graph = InteractionGraph::from_circuit(&circuit);
    c.bench_function("layout/interaction-aware-64", |b| {
        b.iter(|| {
            place(
                std::hint::black_box(&graph),
                LayoutStrategy::InteractionAware,
            )
        })
    });
}

fn bench_braid_scheduler(c: &mut Criterion) {
    let circuit = ising(&IsingParams {
        spins: 32,
        trotter_steps: 2,
        ..Default::default()
    });
    let config = BraidConfig {
        policy: Policy::P6,
        code_distance: 3,
        ..Default::default()
    };
    c.bench_function("braid/p6-ising-32x2", |b| {
        b.iter_batched(
            || circuit.clone(),
            |circ| scq_braid::schedule_circuit(&circ, &config).unwrap(),
            BatchSize::SmallInput,
        )
    });
}

/// Fused claim walk vs the two-step route-then-claim it replaced, on a
/// half-congested mesh (the scheduler's common case under contention:
/// most claims fail).
fn bench_claim_route(c: &mut Criterion) {
    use scq_mesh::{Coord, Mesh, Path};
    let mut base = Mesh::new(41, 41);
    // Claim every fourth row to create realistic partial congestion.
    for y in (0..41u32).step_by(4) {
        let wall = base.route_xy(Coord::new(4, y), Coord::new(36, y));
        assert!(base.try_claim(&wall, 100_000 + y));
    }
    let endpoints: Vec<(Coord, Coord)> = (0..64u32)
        .map(|i| {
            (
                Coord::new(i % 41, (i * 7) % 41),
                Coord::new((i * 13) % 41, (i * 3) % 41),
            )
        })
        .collect();
    c.bench_function("mesh/route-then-claim-64", |b| {
        b.iter_batched(
            || base.clone(),
            |mut mesh| {
                let mut placed = 0u32;
                for (i, &(src, dst)) in endpoints.iter().enumerate() {
                    let p = mesh.route_xy(src, dst);
                    if mesh.try_claim(&p, i as u32) {
                        placed += 1;
                    }
                }
                placed
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("mesh/claim-route-fused-64", |b| {
        b.iter_batched(
            || (base.clone(), Path::empty()),
            |(mut mesh, mut out)| {
                let mut placed = 0u32;
                for (i, &(src, dst)) in endpoints.iter().enumerate() {
                    if mesh.claim_route_xy_into(src, dst, i as u32, &mut out) {
                        placed += 1;
                    }
                }
                placed
            },
            BatchSize::SmallInput,
        )
    });
}

/// Conflict-free claim/release churn: the owner arrays plus the
/// occupancy bitboards every claim and release keeps in step.
fn bench_claim_release(c: &mut Criterion) {
    use scq_mesh::{Coord, Mesh, Path};
    let base = Mesh::new(41, 41);
    // Disjoint rows: every claim succeeds.
    let routes: Vec<Path> = (0..41u32)
        .map(|y| base.route_xy(Coord::new(0, y), Coord::new(40, y)))
        .collect();
    c.bench_function("mesh/claim-release", |b| {
        b.iter_batched(
            || base.clone(),
            |mut mesh| {
                for _ in 0..8 {
                    for (i, r) in routes.iter().enumerate() {
                        assert!(mesh.try_claim(r, i as u32 + 1));
                    }
                    for (i, r) in routes.iter().enumerate() {
                        mesh.release(r, i as u32 + 1);
                    }
                }
                mesh.busy_links()
            },
            BatchSize::SmallInput,
        )
    });
}

/// Adaptive routing on SHA-1's braid mesh at d = 3 (51 x 49 routers),
/// congested by seeded short XY braids and cut in two by a staircase
/// wall that claims no full row or column. Successful searches run the
/// f-level bitboard sweeps and their route walk; pairs split by the
/// wall run the exact unroutability probe's flood over the whole free
/// region on one side.
fn bench_adaptive_routing(c: &mut Criterion) {
    use scq_mesh::{Coord, Mesh, Path, RouteScratch};
    let (w, h) = (51u32, 49u32);
    let mut mesh = Mesh::new(w, h);
    // Row 20 up to x = 25, down column 25, then row 28 to the east edge:
    // every router above row 20 is cut off from every one below row 28.
    let mut path = Path::empty();
    assert!(mesh.claim_route_xy_into(Coord::new(0, 20), Coord::new(25, 28), 1, &mut path));
    assert!(mesh.claim_route_xy_into(Coord::new(26, 28), Coord::new(50, 28), 2, &mut path));
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = |bound: u32| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % u64::from(bound)) as u32
    };
    for owner in 3..400u32 {
        let a = Coord::new(next(w), next(h));
        let b = Coord::new((a.x + next(9)).min(w - 1), (a.y + next(9)).min(h - 1));
        let _ = mesh.claim_route_xy_into(a, b, owner, &mut path);
    }
    let (mut found, mut cut) = (Vec::new(), Vec::new());
    for _ in 0..100_000 {
        if found.len() >= 64 && cut.len() >= 64 {
            break;
        }
        let (a, b) = (Coord::new(next(w), next(h)), Coord::new(next(w), next(h)));
        if mesh.node_claimed(a) || mesh.node_claimed(b) {
            continue;
        }
        if mesh.route_adaptive(a, b).is_some() {
            found.push((a, b));
        } else if a.y < 20 && b.y > 28 {
            cut.push((a, b));
        }
    }
    found.truncate(64);
    cut.truncate(64);
    assert_eq!((found.len(), cut.len()), (64, 64), "too few endpoint pairs");
    let mut scratch = RouteScratch::new();
    assert!(cut
        .iter()
        .all(|&(a, b)| mesh.route_certainly_blocked(a, b, &mut scratch)));
    let mut out = Path::empty();
    c.bench_function("mesh/route-adaptive-found", |b| {
        b.iter(|| {
            found
                .iter()
                .map(|&(src, dst)| {
                    assert!(mesh.route_adaptive_into(src, dst, &mut scratch, &mut out));
                    out.len_hops()
                })
                .sum::<usize>()
        })
    });
    c.bench_function("mesh/route-certainly-blocked-cut", |b| {
        b.iter(|| {
            cut.iter()
                .filter(|&&(src, dst)| mesh.route_certainly_blocked(src, dst, &mut scratch))
                .count()
        })
    });
}

/// Event-driven engine (incremental ready-sets + time jumps) vs the
/// naive cycle-stepping full-rescan reference, same workload, same
/// bit-identical schedule.
fn bench_ready_sets_vs_rescan(c: &mut Criterion) {
    let circuit = ising(&IsingParams {
        spins: 32,
        trotter_steps: 2,
        ..Default::default()
    });
    let dag = DependencyDag::from_circuit(&circuit);
    let graph = InteractionGraph::from_circuit(&circuit);
    let layout = place(&graph, LayoutStrategy::InteractionAware);
    let config = BraidConfig {
        policy: Policy::P6,
        code_distance: 3,
        ..Default::default()
    };
    c.bench_function("braid/event-driven-ising-32x2", |b| {
        b.iter(|| scq_braid::schedule(&circuit, &dag, &layout, &config).unwrap())
    });
    c.bench_function("braid/naive-rescan-ising-32x2", |b| {
        b.iter(|| scq_braid::schedule_reference(&circuit, &dag, &layout, &config).unwrap())
    });
}

/// Untraced scheduling (NoTrace sink: zero event pushes, pooled route
/// buffers) vs traced scheduling (full event collection).
fn bench_traced_vs_untraced(c: &mut Criterion) {
    let circuit = ising(&IsingParams {
        spins: 32,
        trotter_steps: 2,
        ..Default::default()
    });
    let dag = DependencyDag::from_circuit(&circuit);
    let graph = InteractionGraph::from_circuit(&circuit);
    let layout = place(&graph, LayoutStrategy::InteractionAware);
    let config = BraidConfig {
        policy: Policy::P6,
        code_distance: 3,
        ..Default::default()
    };
    c.bench_function("braid/untraced-ising-32x2", |b| {
        b.iter(|| scq_braid::schedule(&circuit, &dag, &layout, &config).unwrap())
    });
    c.bench_function("braid/traced-ising-32x2", |b| {
        b.iter(|| {
            let mut sink = scq_braid::EventCollector::default();
            let s = scq_braid::schedule_with(&circuit, &dag, &layout, &config, None, &mut sink)
                .unwrap();
            sink.into_trace(&layout, &s)
        })
    });
}

fn bench_epr_pipeline(c: &mut Criterion) {
    use scq_teleport::{simulate_epr_distribution, DistributionPolicy, EprConfig, EprDemand};
    let demands: Vec<EprDemand> = (0..20_000)
        .map(|i| EprDemand {
            time: 10 + i / 4,
            distance: 6,
        })
        .collect();
    c.bench_function("epr/jit-20k-teleports", |b| {
        b.iter(|| {
            simulate_epr_distribution(
                std::hint::black_box(&demands),
                DistributionPolicy::JustInTime { window: 256 },
                &EprConfig::default(),
            )
        })
    });
}

/// Fabric inject + event-driven advance throughput as the in-flight
/// population grows: the packet layer's hot loop is the hop FIFO, the
/// per-cycle merge and the per-link load/waiter bookkeeping.
fn bench_fabric_throughput(c: &mut Criterion) {
    use scq_mesh::{Coord, Fabric, FabricConfig, Topology};
    let topo = Topology::new(32, 32);
    for &msgs in &[256usize, 2_048, 16_384] {
        let routes: Vec<_> = (0..msgs)
            .map(|i| {
                let y = (i as u32) % 32;
                topo.route_xy(Coord::new(0, y), Coord::new(31, (y + 7) % 32))
            })
            .collect();
        c.bench_function(&format!("fabric/inject-run-{msgs}"), |b| {
            b.iter(|| {
                let mut f = Fabric::new(
                    topo,
                    FabricConfig {
                        hop_cycles: 1,
                        link_capacity: 4,
                    },
                );
                for (i, route) in routes.iter().enumerate() {
                    f.inject(route, (i / 8) as u64);
                }
                f.run_to_completion();
                f.stats().delivered
            })
        });
    }
}

criterion_group!(
    benches,
    bench_dag_construction,
    bench_partitioner,
    bench_layout,
    bench_braid_scheduler,
    bench_claim_route,
    bench_claim_release,
    bench_adaptive_routing,
    bench_ready_sets_vs_rescan,
    bench_traced_vs_untraced,
    bench_epr_pipeline,
    bench_fabric_throughput
);
criterion_main!(benches);
