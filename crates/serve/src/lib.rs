//! scq-serve — the batch scheduling service.
//!
//! The toolflow crates answer "schedule *this* circuit"; this crate
//! answers "schedule *these ten thousand* requests, most of which
//! you've seen before". Three layers (see ARCHITECTURE.md, "Serving
//! layer"):
//!
//! 1. **Request model** ([`request`]): [`ScheduleRequest`] names a
//!    circuit source, backend, policy/distance, defect spec, and verify
//!    flag; normalization resolves the source and derives a
//!    content-addressed key over what the request's run reads
//!    (normalized IR + backend + braid policy + distance + defects +
//!    verify), never over names or paths.
//! 2. **Content-addressed cache** ([`cache`]): [`ScheduleCache`]
//!    memoizes schedule outcomes under single-flight discipline — N
//!    concurrent requesters of one key cost one compute — with LRU
//!    eviction and full hit/miss/dedup/eviction counters.
//! 3. **Fan-out** ([`pool`]): [`parallel_map`] runs a batch on one
//!    scoped worker per core, each claiming the next request from one
//!    shared atomic cursor, and returns the results in request order.
//!    The bench binaries fan their sweep grids out through it too.
//!
//! [`BatchRunner`] composes the three: requests in, order-preserved
//! [`ScheduleResponse`]s (with cache provenance and timing) out. The
//! `scq batch <requests.txt>` subcommand and the `serve_throughput`
//! bench bin are thin shells over it.

pub mod batch;
pub mod cache;
pub mod error;
pub mod pool;
pub mod request;

pub use batch::{BatchRunner, ScheduleOutcome, ScheduleResponse};
pub use cache::{CacheStats, Provenance, ScheduleCache};
pub use error::ServeError;
pub use pool::parallel_map;
pub use request::{
    load_request_file, parse_distance, parse_policy, parse_request_line, parse_request_text,
    NormalizedRequest, RequestSource, ScheduleRequest,
};
/// A request's backend and defect spec: the pipeline's own inputs.
pub use scq_core::{BackendKind, DefectSpec};

/// Re-exported braid priority policy — the one knob request files spell
/// numerically (`policy=0..6`).
pub use scq_braid::Policy;
