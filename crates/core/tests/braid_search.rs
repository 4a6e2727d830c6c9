//! The adaptive braid search's work, counted through a [`TraceSink`]
//! that sees every search the engine runs, on two points: the
//! `toolflow` benchmark's heaviest, SHA-1 at scale 2 under Policy 6 at
//! its derived code distance, and a seeded 1,100-qubit circuit whose
//! 69-router-wide braid mesh takes two words a bitboard row.

use scq_apps::Benchmark;
use scq_braid::{schedule_with, BraidConfig, BraidMachine, BraidSchedule, Policy, TraceSink};
use scq_core::{ArtifactContext, PipelineRunner, ToolflowConfig};
use scq_ir::{circuit_to_qasm, Circuit};
use scq_mesh::Path;

/// Counts adaptive searches and the row words their sweeps touched,
/// and holds each search to the geometry bound: the row words of every
/// f-level from |src - dst| to the route's length L, each over the mesh
/// rows y with |y - src.y| + |y - dst.y| <= L.
struct SearchCounter {
    height: u32,
    row_words: u32,
    searches: u64,
    words: u64,
}

impl TraceSink for SearchCounter {
    fn record(&mut self, _op: u32, _leg: u8, _open: u64, _close: u64, path: Path) -> Option<Path> {
        Some(path)
    }

    fn searched(&mut self, route: &Path, words: u32) {
        let (src, dst, len) = (route.source(), route.dest(), route.len_hops() as u32);
        let levels = (len - src.manhattan(dst)) / 2 + 1;
        let rows = (0..self.height)
            .filter(|&y| y.abs_diff(src.y) + y.abs_diff(dst.y) <= len)
            .count() as u32;
        let bound = self.row_words * levels * rows;
        assert!(
            words <= bound,
            "{src} -> {dst} in {len} hops touched {words} words, bound {bound}"
        );
        self.searches += 1;
        self.words += u64::from(words);
    }
}

/// Schedules `circuit` as `scq schedule` does, on the layout and
/// dependency graph of the analysis passes, counting its searches.
fn schedule_counted(
    circuit: &Circuit,
    benchmark: Benchmark,
    config: ToolflowConfig,
) -> (BraidSchedule, SearchCounter) {
    let mut cx = ArtifactContext::new(benchmark, circuit, config);
    PipelineRunner::analysis()
        .run(&mut cx)
        .expect("the circuit analyzes");
    let braid_config = BraidConfig {
        policy: config.policy,
        code_distance: cx.code_distance().expect("code-distance ran"),
        ..Default::default()
    };
    let layout = cx.layout().expect("layout ran");
    let (width, height) = BraidMachine::grid_dims(circuit.num_qubits());
    let mut counter = SearchCounter {
        height,
        row_words: width.div_ceil(64),
        searches: 0,
        words: 0,
    };
    let dag = cx.dag().expect("normalize-ir ran");
    let braid = schedule_with(circuit, dag, layout, &braid_config, None, &mut counter)
        .expect("the circuit schedules");
    (braid, counter)
}

#[test]
fn sha1_scale_2_searches_stay_within_their_geometry() {
    let circuit = Benchmark::Sha1.scaled_circuit(2);
    let config = ToolflowConfig {
        scale: Some(2),
        ..Default::default()
    };
    assert_eq!(config.policy, Policy::P6);
    let (braid, counter) = schedule_counted(&circuit, Benchmark::Sha1, config);
    // Attempts count pruned ones too; the exact flood prunes every
    // attempt whose search would fail, so each search finds a route.
    assert_eq!(braid.adaptive_routes, 62_380);
    assert_eq!(counter.searches, 12_159);
    assert_eq!(counter.row_words, 1);
}

/// SplitMix64, the generator of [`wide_circuit`].
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `examples/wide_mesh.qasm`: 1,100 qubits, so a 34 x 33 tile grid and
/// a 69 x 67-router braid mesh, and 1,500 gates drawn by SplitMix64
/// from seed 1,100: a T gate one time in eight, else a CNOT between two
/// distinct qubits. Random pairs cross the mesh, and its word seam, in
/// every direction.
fn wide_circuit() -> Circuit {
    const QUBITS: u32 = 1100;
    let mut state = 1100;
    let mut draw = |bound: u32| (splitmix(&mut state) % u64::from(bound)) as u32;
    let mut b = Circuit::builder("wide_mesh", QUBITS);
    for _ in 0..1500 {
        let a = draw(QUBITS);
        if draw(8) == 0 {
            b.t(a);
        } else {
            b.cnot(a, (a + 1 + draw(QUBITS - 1)) % QUBITS);
        }
    }
    b.finish()
}

#[test]
fn two_word_rows_schedule_as_they_did_under_the_a_star_search() {
    let circuit = wide_circuit();
    let committed = include_str!("../../../examples/wide_mesh.qasm");
    assert_eq!(
        circuit_to_qasm(&circuit),
        committed,
        "examples/wide_mesh.qasm drifted"
    );
    // Cycles, adaptive attempts, drops, legs and hops under P3 and P6
    // at d = 3, as the A* search that the f-level sweeps replaced
    // scheduled them.
    for (policy, pinned) in [
        (Policy::P3, [260, 19_295, 1_859, 2_800, 74_830]),
        (Policy::P6, [271, 17_511, 1_674, 2_800, 74_582]),
    ] {
        let config = ToolflowConfig::pinned(policy, 3);
        let (braid, counter) = schedule_counted(&circuit, Benchmark::Gse, config);
        let got = [
            braid.cycles,
            braid.adaptive_routes,
            braid.drops,
            braid.braids_placed,
            braid.total_braid_hops,
        ];
        assert_eq!(got, pinned, "{policy}");
        assert_eq!(counter.row_words, 2);
        assert!(counter.searches > 0, "{policy} ran no adaptive search");
    }
}
