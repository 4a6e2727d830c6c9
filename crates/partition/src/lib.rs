//! Multilevel graph partitioning for qubit interaction graphs.
//!
//! The paper reduces braid congestion by placing frequently-interacting
//! logical qubits close together, "through iterative calls to a graph
//! partitioning library, METIS" (Section 6.2). This crate is that
//! substrate, built from scratch: a multilevel two-way partitioner
//! ([`bisect`]) in the same algorithm family as METIS — heavy-edge
//! matching coarsening, greedy initial bisection, Fiduccia–Mattheyses
//! refinement with rollback. `scq_layout::place` runs it recursively
//! to place qubits on the mesh.
//!
//! All operations are deterministic: randomized tie-breaking draws from
//! one fixed seed.
//!
//! # Examples
//!
//! ```
//! use scq_partition::{bisect, Graph};
//!
//! // A 16-vertex path: the minimum balanced cut is a single edge.
//! let edges: Vec<(u32, u32, u64)> = (0..15).map(|i| (i, i + 1, 1)).collect();
//! let g = Graph::from_edges(16, &edges).unwrap();
//! let result = bisect(&g, 0.5);
//! assert_eq!(result.cut, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bisect;
mod graph;

pub use bisect::{bisect, Bisection, EPSILON};
pub use graph::{cut_weight, Graph, GraphError};
