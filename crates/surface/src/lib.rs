//! Surface-code error-correction math for the communication study.
//!
//! Everything the backend needs to turn *logical* schedules into
//! *physical* space-time costs (paper Sections 2.2-2.4):
//!
//! - [`Technology`]: the superconducting hardware model (error rate, gate
//!   latencies, error-correction cycle time),
//! - [`required_distance_for_ops`]: the Fowler logical-error scaling law
//!   ([`FOWLER_COEFFICIENT`], [`P_THRESHOLD`]) and the solver choosing
//!   the smallest adequate code distance, at most [`MAX_DISTANCE`],
//! - [`Encoding`] / [`TileGeometry`]: planar vs double-defect tile
//!   footprints,
//! - [`FactoryConfig`]: magic-state and EPR ancilla-factory sizing
//!   (Section 4.3),
//! - [`CommMethod`] / [`comm_tradeoff_table`]: the Table 1 communication
//!   tradeoffs, and [`TELEPORT_CYCLES`], the latency of one teleport,
//! - [`surgery`]: lattice-surgery geometry and unit costs (Section 8.2,
//!   modeled but deliberately unscheduled, as in the paper).
//!
//! # Examples
//!
//! Choosing a code distance for a billion-op computation on current
//! hardware, and sizing its tiles:
//!
//! ```
//! use scq_surface::{required_distance_for_ops, Encoding, Technology, TileGeometry};
//!
//! let tech = Technology::superconducting_current();
//! let d = required_distance_for_ops(tech.p_physical, 1e9).unwrap();
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

pub use comm::{comm_tradeoff_table, CommMethod, CostLevel, TELEPORT_CYCLES};
pub use distance::{
    logical_error_rate, required_distance, required_distance_for_ops, ThresholdExceeded,
    FOWLER_COEFFICIENT, MAX_DISTANCE, P_THRESHOLD,
};
pub use factory::{edge_factory_sites, FactoryConfig, FactoryProvision};
pub use technology::Technology;
pub use tile::{Encoding, TileGeometry};
