//! Independent certification of scq schedules and circuit IR.
//!
//! `scq-verify` is the adversary-in-residence for the toolflow: it
//! re-derives every invariant the schedulers are supposed to uphold
//! from first principles and **deliberately shares no routing,
//! claiming, or simulation code** with the engines it checks. The
//! braid engine's mesh claims are audited by an interval race detector
//! over router and link indices it computes from raw coordinates; the
//! EPR fabric's lane bookkeeping is audited by an independent sweep
//! line over the hop transcript; static admission runs its own flood
//! fill over the defect map. A bug in `scq-mesh` or the schedulers
//! therefore cannot certify its own output.
//!
//! Two layers, both run as passes of `scq-core`'s pipeline (the crate
//! holds the checks, not a runner):
//!
//! - **Static checks** ([`StaticCheck`]): analyses over a circuit, its
//!   dependency DAG, and the fabric(s) it is destined for — DAG
//!   acyclicity, def-use consistency, duplicate anchors, and static
//!   admission (is the circuit routable at all on this
//!   possibly-defective fabric?).
//! - **Schedule certifiers** ([`certify_braid_trace`],
//!   [`certify_planar_schedule`]): replay validators over an emitted
//!   [`scq_braid::BraidTrace`] or a [`scq_teleport::PlanarSchedule`]
//!   plus its [`scq_teleport::EprTranscript`], verifying spatial
//!   exclusivity, lane capacity, dependency order, defect avoidance,
//!   and event-time monotonicity.
//!
//! All violations are reported as located [`Finding`]s naming the
//! violated [`Invariant`] — never as bare booleans — so the
//! seeded-mutation soundness suite can assert that each corruption is
//! flagged for the right reason.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod braid_cert;
mod finding;
mod passes;
mod planar_cert;

pub use braid_cert::certify_braid_trace;
pub use finding::{Finding, Invariant, Severity};
pub use passes::{live_components, FabricView, StaticCheck};
pub use planar_cert::certify_planar_schedule;
