//! Cross-crate integration: compositions that span module boundaries
//! without going through the top-level toolflow.

use scq::apps::{gse, Benchmark, GseParams};
use scq::braid::{schedule, schedule_circuit, BraidConfig, Policy};
use scq::ir::{circuit_from_qasm, circuit_to_qasm, Circuit, DependencyDag, InteractionGraph};
use scq::layout::{place, LayoutStrategy};
use scq::partition::{bisect, Graph};
use scq::surface::{required_distance_for_ops, Encoding, Technology, TileGeometry};
use scq::teleport::{schedule_planar, PlanarConfig};

/// QASM text -> parse -> layout -> braid schedule: the external-program
/// ingestion path.
#[test]
fn qasm_to_braid_schedule() {
    let text = "\
# circuit external
qubits 6
h q0
cnot q0, q1
cnot q1, q2
cnot q2, q3
cnot q3, q4
cnot q4, q5
t q5
measz q5
";
    let circuit = circuit_from_qasm(text).unwrap();
    let result = schedule_circuit(&circuit, &BraidConfig::default()).unwrap();
    assert!(result.cycles >= result.critical_path_cycles);
    assert_eq!(result.total_ops, 8);
    // Round-trip stability.
    let again = circuit_from_qasm(&circuit_to_qasm(&circuit)).unwrap();
    assert_eq!(again, circuit);
}

/// The interaction graph of a generated benchmark feeds the partitioner
/// directly.
#[test]
fn interaction_graph_partitions_cleanly() {
    let circuit = gse(&GseParams {
        molecule_size: 12,
        precision_bits: 4,
    });
    let graph = InteractionGraph::from_circuit(&circuit);
    let edges: Vec<(u32, u32, u64)> = graph.iter().collect();
    let pgraph = Graph::from_edges(graph.num_qubits(), &edges).unwrap();
    let result = bisect(&pgraph, 0.5);
    assert_eq!(result.assignment.len(), 13);
    let total = result.left_weight + result.right_weight;
    assert_eq!(total, 13);
    // Balanced within the tolerance.
    assert!(result.left_weight >= 5 && result.left_weight <= 8);
}

/// Optimized layout reduces braid route lengths versus a random layout
/// on the same circuit and policy.
#[test]
fn optimized_layout_shortens_braids() {
    let circuit = Benchmark::Gse.small_circuit();
    let dag = DependencyDag::from_circuit(&circuit);
    let graph = InteractionGraph::from_circuit(&circuit);
    let config = BraidConfig {
        policy: Policy::P6,
        code_distance: 3,
        ..Default::default()
    };
    let run = |strategy: LayoutStrategy| {
        let layout = place(&graph, strategy);
        schedule(&circuit, &dag, &layout, &config).unwrap()
    };
    let optimized = run(LayoutStrategy::InteractionAware);
    let random = run(LayoutStrategy::Random(11));
    assert!(
        optimized.avg_braid_hops() <= random.avg_braid_hops(),
        "optimized hops {:.2} > random hops {:.2}",
        optimized.avg_braid_hops(),
        random.avg_braid_hops()
    );
}

/// Both backends agree on the instruction count and respect the same
/// dependency structure.
#[test]
fn backends_share_the_dag() {
    let circuit = Benchmark::IsingSemi.small_circuit();
    let dag = DependencyDag::from_circuit(&circuit);
    let graph = InteractionGraph::from_circuit(&circuit);
    let layout = place(&graph, LayoutStrategy::InteractionAware);
    let braid = schedule(
        &circuit,
        &dag,
        &layout,
        &BraidConfig {
            code_distance: 3,
            ..Default::default()
        },
    )
    .unwrap();
    let planar = schedule_planar(&circuit, &dag, &PlanarConfig::default());
    assert_eq!(braid.total_ops, circuit.len());
    assert_eq!(planar.simd.total_ops, circuit.len());
    // The planar SIMD schedule can be no shorter than the DAG depth.
    assert!(planar.timesteps as usize >= dag.depth());
}

/// Code-distance selection composes with tile geometry: a full manual
/// space estimate path.
#[test]
fn distance_to_geometry_pipeline() {
    let tech = Technology::superconducting_current();
    let circuit = Benchmark::Gse.small_circuit();
    let d = required_distance_for_ops(tech.p_physical, circuit.len() as f64).unwrap();
    let planar = TileGeometry::new(Encoding::Planar, d);
    let dd = TileGeometry::new(Encoding::DoubleDefect, d);
    let q = u64::from(circuit.num_qubits());
    let planar_total = q * planar.physical_qubits();
    let dd_total = q * dd.physical_qubits();
    assert!(planar_total < dd_total);
    // Paper Figure 7b: modest instances need on the order of 1e3-1e5
    // physical qubits.
    assert!(planar_total > 100 && planar_total < 1_000_000);
}

/// The braid mesh honors layout dimensions end to end: every placed
/// braid endpoint maps inside the mesh.
#[test]
fn layout_and_mesh_dimensions_agree() {
    let mut b = Circuit::builder("corners", 9);
    // Interactions across all four corners of a 3x3 grid.
    b.cnot(0, 8).cnot(2, 6).cnot(0, 2).cnot(6, 8);
    let circuit = b.finish();
    let dag = DependencyDag::from_circuit(&circuit);
    let graph = InteractionGraph::from_circuit(&circuit);
    let layout = place(&graph, LayoutStrategy::Linear);
    let result = schedule(
        &circuit,
        &dag,
        &layout,
        &BraidConfig {
            code_distance: 3,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(result.braids_placed, 8);
    assert!(result.total_braid_hops >= 8);
}
