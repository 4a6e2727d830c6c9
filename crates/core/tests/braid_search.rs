//! The adaptive braid search's work on the `toolflow` benchmark's
//! heaviest point, SHA-1 at scale 2 under Policy 6 at its derived code
//! distance, counted through a [`TraceSink`] that sees every search the
//! engine runs.

use scq_apps::Benchmark;
use scq_braid::{schedule_with, BraidConfig, Policy, TraceSink};
use scq_core::{ArtifactContext, PipelineRunner, ToolflowConfig};
use scq_mesh::Path;

/// Counts adaptive searches and the routers they expanded.
#[derive(Default)]
struct SearchCounter {
    searches: u64,
    expanded: u64,
}

impl TraceSink for SearchCounter {
    fn record(&mut self, _op: u32, _leg: u8, _open: u64, _close: u64, path: Path) -> Option<Path> {
        Some(path)
    }

    fn searched(&mut self, expanded: u32) {
        self.searches += 1;
        self.expanded += u64::from(expanded);
    }
}

#[test]
fn sha1_scale_2_searches_expand_at_most_250_routers_each() {
    let circuit = Benchmark::Sha1.scaled_circuit(2);
    let config = ToolflowConfig {
        scale: Some(2),
        ..Default::default()
    };
    assert_eq!(config.policy, Policy::P6);
    let mut cx = ArtifactContext::new(Benchmark::Sha1, &circuit, config);
    PipelineRunner::analysis()
        .run(&mut cx)
        .expect("SHA-1@2 analyzes");
    let braid_config = BraidConfig {
        policy: Policy::P6,
        code_distance: cx.code_distance().expect("code-distance ran"),
        ..Default::default()
    };
    assert_eq!(braid_config.code_distance, 3);
    let mut counter = SearchCounter::default();
    let braid = schedule_with(
        &circuit,
        cx.dag().expect("normalize-ir ran"),
        cx.layout().expect("layout ran"),
        &braid_config,
        None,
        &mut counter,
    )
    .expect("SHA-1@2 schedules");
    // Attempts count pruned ones too; the exact flood prunes every
    // attempt whose search would fail, so each search finds a route.
    assert_eq!(braid.adaptive_routes, 62_380);
    assert_eq!(counter.searches, 12_159);
    assert!(
        counter.expanded <= 250 * counter.searches,
        "{} routers expanded over {} searches",
        counter.expanded,
        counter.searches
    );
}
