//! Surface-code error-correction math for the communication study.
//!
//! Everything the backend needs to turn *logical* schedules into
//! *physical* space-time costs (paper Sections 2.2-2.4):
//!
//! - [`Technology`]: the superconducting hardware model (error rate, gate
//!   latencies, error-correction cycle time),
//! - [`CodeDistanceModel`]: the Fowler logical-error scaling law and the
//!   solver choosing the smallest adequate code distance,
//! - [`Encoding`] / [`TileGeometry`]: planar vs double-defect tile
//!   footprints,
//! - [`FactoryConfig`]: magic-state and EPR ancilla-factory sizing
//!   (Section 4.3),
//! - [`CommMethod`] / [`comm_tradeoff_table`]: the Table 1 communication
//!   tradeoffs,
//! - [`surgery`]: lattice-surgery geometry and unit costs (Section 8.2,
//!   modeled but deliberately unscheduled, as in the paper).
//!
//! # Examples
//!
//! Choosing a code distance for a billion-op computation on current
//! hardware, and sizing its tiles:
//!
//! ```
//! use scq_surface::{CodeDistanceModel, Encoding, Technology, TileGeometry};
//!
//! let tech = Technology::superconducting_current();
//! let model = CodeDistanceModel::default();
//! let d = model.required_distance_for_ops(tech.p_physical, 1e9).unwrap();
//! let tile = TileGeometry::new(Encoding::Planar, d);
//! assert!(tile.physical_qubits() > 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod comm;
mod distance;
mod factory;
pub mod surgery;
mod technology;
mod tile;

pub use comm::{comm_tradeoff_table, CommMethod, CostLevel};
pub use distance::{CodeDistanceModel, ThresholdExceeded};
pub use factory::{edge_factory_sites, FactoryConfig, FactoryProvision};
pub use technology::Technology;
pub use tile::{Encoding, TileGeometry};
