//! # scq — Optimized Surface Code Communication
//!
//! A from-scratch Rust reproduction of *"Optimized Surface Code
//! Communication in Superconducting Quantum Computers"* (Javadi-Abhari
//! et al., MICRO-50, 2017): an end-to-end toolflow comparing the two
//! main surface-code variants — **planar** (teleportation-based
//! communication) and **double-defect** (braid-based communication) —
//! across applications, computation sizes, and physical error rates.
//!
//! ## Crate map
//!
//! | Module | Crate | Role |
//! |--------|-------|------|
//! | [`ir`] | `scq-ir` | Logical Clifford+T IR, dependency DAG, analysis |
//! | [`apps`] | `scq-apps` | GSE / SQ / SHA-1 / Ising benchmark generators |
//! | [`partition`] | `scq-partition` | Multilevel graph partitioner (METIS substitute) |
//! | [`layout`] | `scq-layout` | Interaction-aware qubit placement |
//! | [`surface`] | `scq-surface` | Code distance, tile geometry, factories |
//! | [`mesh`] | `scq-mesh` | Circuit-switched braid mesh |
//! | [`braid`] | `scq-braid` | Braid scheduler, priority policies 0-6 |
//! | [`teleport`] | `scq-teleport` | Multi-SIMD scheduling, JIT EPR pipeline |
//! | [`estimate`] | `scq-estimate` | Calibrated space-time estimation |
//! | [`explore`] | `scq-explore` | Crossover sweeps (Figures 7-9) |
//! | [`core`] | `scq-core` | The end-to-end toolflow |
//! | [`verify`] | `scq-verify` | Independent schedule certifier |
//! | [`serve`] | `scq-serve` | Batch scheduling service: cached, work-stealing |
//!
//! ## Quickstart
//!
//! ```
//! use scq::core::{run_toolflow, ToolflowConfig};
//! use scq::apps::Benchmark;
//!
//! let report = run_toolflow(Benchmark::Gse, &ToolflowConfig::default()).unwrap();
//! println!("{report}");
//! assert!(report.braid.cycles >= report.braid.critical_path_cycles);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use scq_apps as apps;
pub use scq_braid as braid;
pub use scq_core as core;
pub use scq_estimate as estimate;
pub use scq_explore as explore;
pub use scq_ir as ir;
pub use scq_layout as layout;
pub use scq_mesh as mesh;
pub use scq_partition as partition;
pub use scq_serve as serve;
pub use scq_surface as surface;
pub use scq_teleport as teleport;
pub use scq_verify as verify;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use scq_apps::Benchmark;
    pub use scq_braid::{schedule_circuit, BraidConfig, BraidSchedule, Policy};
    pub use scq_core::{run_toolflow, ToolflowConfig, ToolflowReport};
    pub use scq_estimate::{estimate, estimate_both, AppProfile, EstimateConfig};
    pub use scq_explore::{crossover_size, favorability_boundary, log_spaced, ratio_sweep};
    pub use scq_ir::{analysis, Circuit, DependencyDag, Gate, InteractionGraph, Qubit};
    pub use scq_layout::{place, Layout, LayoutStrategy};
    pub use scq_serve::{BatchRunner, ScheduleRequest, ScheduleResponse};
    pub use scq_surface::{CodeDistanceModel, Encoding, Technology, TileGeometry};
    pub use scq_teleport::{schedule_planar, DistributionPolicy, PlanarConfig};
}
