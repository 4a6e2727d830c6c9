//! End-to-end and per-layer benchmark of the scq toolflow.
//!
//! Three closed-loop workloads drive the program's public entry points
//! from one process: `toolflow` (`scq_core::run_toolflow`), `batch`
//! (request files served by `scq_serve::BatchRunner`) and
//! `fabric_scale` (`scq_teleport::simulate_epr_on_fabric`). The binary
//! in `main.rs` times them; see `NOTES.md` for the metrics and what
//! each should move.

pub mod golden;
pub mod inputs;
pub mod stats;
pub mod trace;
pub mod workloads;
