//! The Multi-SIMD planar architecture: teleportation-based communication
//! with just-in-time EPR distribution.
//!
//! Planar surface-code qubits communicate by teleportation (paper
//! Section 4.4): EPR pairs are produced in factories, their halves are
//! physically swapped to the communication endpoints, and the teleport
//! itself is a constant-latency local operation. The expensive step is
//! prefetchable — the property that distinguishes planar from
//! double-defect machines under congestion.
//!
//! Five layers:
//!
//! - [`schedule_simd`]: the Multi-SIMD region scheduler (one gate type
//!   per region per timestep over [`SIMD_REGIONS`] regions, teleports
//!   on region changes),
//! - [`PlacementStrategy`]: where the data tiles go —
//!   [`BaselinePlacement`] is the historical row-major floorplan,
//!   [`CongestionAwarePlacement`] profiles the fabric and steers
//!   high-demand tiles away from measured hot columns,
//! - [`simulate_epr_on_fabric`]: the route-aware EPR pipeline — halves
//!   fly real routes from factory tiles over the shared `scq-mesh`
//!   fabric, with per-link swap-lane contention,
//! - [`simulate_epr_distribution`]: the legacy flow-level pipeline of
//!   Section 8.1, retained as the differential oracle the fabric must
//!   match exactly under unlimited link capacity,
//! - [`schedule_planar`]: the combined machine timeline in EC cycles,
//!   with teleports consuming measured fabric arrival events. A run is
//!   its [`PlanarConfig`]: a code distance, which prices one EPR hop,
//!   and the swap lanes per link; every run launches under
//!   [`PLANAR_POLICY`].
//!
//! Each engine has one clean entry point and one `_with` entry point
//! taking a [`FabricRun`] — the machine's defect map, the seed of its
//! transient faults, and whether to record an [`EprTranscript`] for
//! certification: [`simulate_epr_on_fabric_with`] and
//! [`schedule_planar_with`] (which also takes the placement strategy).
//!
//! # Examples
//!
//! ```
//! use scq_ir::{Circuit, DependencyDag};
//! use scq_teleport::{schedule_planar, PlanarConfig};
//!
//! let mut b = Circuit::builder("demo", 8);
//! for q in 0..8 {
//!     b.h(q);
//! }
//! for q in 0..4 {
//!     b.cnot(q, q + 4);
//! }
//! let c = b.finish();
//! let dag = DependencyDag::from_circuit(&c);
//! let s = schedule_planar(&c, &dag, &PlanarConfig::default());
//! assert!(s.cycles >= s.timesteps);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fabric_pipeline;
mod pipeline;
mod placement;
mod planar;
mod simd;

pub use fabric_pipeline::{
    simulate_epr_on_fabric, simulate_epr_on_fabric_with, EprRequest, EprTranscript,
    FabricEprConfig, FabricEprResult, FabricRun,
};
pub use pipeline::{
    simulate_epr_distribution, DistributionPolicy, EprConfig, EprDemand, EprPipelineResult,
};
pub use placement::{BaselinePlacement, CongestionAwarePlacement, PlacementStrategy};
pub use planar::{
    hop_cycles_for_distance, schedule_planar, schedule_planar_with, PlanarConfig, PlanarMachine,
    PlanarSchedule, PLANAR_POLICY,
};
pub use simd::{schedule_simd, SimdSchedule, SIMD_REGIONS};
