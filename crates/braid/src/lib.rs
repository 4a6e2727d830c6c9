//! Braid scheduling and simulation for double-defect surface codes.
//!
//! This crate implements the paper's central contribution (Section 6):
//! reducing the 3D topological braid-compaction problem to 2D static
//! routing on a circuit-switched mesh, "simulating a mesh network, with
//! braids as messages". Braids claim entire routes atomically (they
//! stretch any distance in one cycle), hold them for `d` stabilization
//! cycles, cannot cross, cannot be buffered, and cannot be prefetched —
//! all four ways braids differ from classical messages.
//!
//! The scheduler maintains a ready queue of dependency-met operations and
//! places as many braids as possible each cycle, ordered by one of the
//! seven prioritization [`Policy`]s of Section 6.3. Routing escalates
//! from dimension-ordered to adaptive, with drop/re-inject on starvation;
//! because the result replays as a *static* schedule, deadlock freedom at
//! runtime is free.
//!
//! # Engine architecture
//!
//! Both engines run on the one [`BraidMachine`] of their layout (its
//! mesh, anchors and factory sites) and produce provably identical
//! schedules:
//!
//! * **The event-driven fast path** — incremental ready/leg2-ready sets
//!   maintained on state transitions (no per-cycle O(n) rescan),
//!   event-driven time advance that jumps idle stretches straight to the
//!   next release, allocation-free fused route+claim
//!   walks with pooled route buffers, and tracing that is generic over a
//!   [`TraceSink`] so untraced runs pay no event or clone cost. It has
//!   two entry points: [`schedule`] (pristine mesh, [`NoTrace`]) and
//!   [`schedule_with`], which adds an optional [`scq_mesh::DefectMap`]
//!   and a caller-chosen sink — an [`EventCollector`] turns into the
//!   replayable [`BraidTrace`] via [`EventCollector::into_trace`].
//! * **The naive-stepping reference** ([`schedule_reference`],
//!   [`schedule_traced_reference`]) — the original one-cycle-at-a-time,
//!   full-rescan engine, retained as the differential oracle.
//!
//! Equivalence is enforced by randomized differential tests in this
//! crate and by the `scq-bench` suite over the full Figure 6
//! (workload × policy) grid; `perf_report` (in `scq-bench`) records the
//! measured speedup (aggregate ~6x, geometric mean ~8x over that grid,
//! up to ~60-70x on serial workloads under policies 3-6) in
//! `BENCH_sched.json`.
//!
//! # Examples
//!
//! ```
//! use scq_braid::{schedule_circuit, BraidConfig, Policy};
//! use scq_ir::Circuit;
//!
//! let mut b = Circuit::builder("ladder", 6);
//! for i in 0..5 {
//!     b.cnot(i, i + 1);
//! }
//! let config = BraidConfig {
//!     policy: Policy::P6,
//!     code_distance: 5,
//!     ..Default::default()
//! };
//! let result = schedule_circuit(&b.finish(), &config).unwrap();
//! assert!(result.cycles >= result.critical_path_cycles);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod machine;
mod policy;
mod reference;
mod scheduler;
mod trace;

pub use machine::BraidMachine;
pub use policy::Policy;
pub use reference::{schedule_reference, schedule_traced_reference};
pub use scheduler::{
    op_latency_cycles, schedule, schedule_circuit, schedule_with, BraidConfig, BraidSchedule,
    ScheduleError, TGateModel,
};
pub use trace::{BraidEvent, BraidTrace, EventCollector, NoTrace, TraceSink};
