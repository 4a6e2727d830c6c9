//! The unified communication-backend abstraction.
//!
//! The paper's whole comparison is "same program, two communication
//! fabrics": double-defect braiding versus planar teleportation. This
//! module makes that comparison a first-class interface — one
//! [`CommBackend`] trait both engines implement, so callers (the
//! toolflow, the bench binaries, design-space sweeps) schedule a
//! circuit on *a* backend without caring which mesh discipline runs
//! underneath:
//!
//! ```text
//!                 CommBackend::schedule(circuit, dag)
//!                    /                          \
//!        BraidBackend                         TeleportBackend
//!        scq-braid scheduler                  scq-teleport Multi-SIMD
//!        circuit-switched Mesh claims         + route-aware EPR Fabric
//!        (double-defect encoding)             (planar encoding)
//!                    \                          /
//!                 CommReport (cycles, bound, events)
//! ```
//!
//! Both backends ultimately run on the same `scq-mesh` substrate — the
//! braid engine claims whole routes on a [`scq_mesh::Mesh`], the
//! teleport engine flies EPR halves through a [`scq_mesh::Fabric`] —
//! which is what makes their cycle counts comparable.

use scq_braid::{schedule_circuit, BraidConfig, BraidSchedule};
use scq_ir::{Circuit, DependencyDag};
use scq_surface::Encoding;
use scq_teleport::{
    schedule_planar, schedule_planar_with, CongestionAwarePlacement, FabricRun, PlanarConfig,
    PlanarSchedule,
};

use crate::ToolflowError;

/// Backend-agnostic outcome of scheduling one circuit.
#[derive(Clone, Debug)]
pub struct CommReport {
    /// The encoding that produced this schedule.
    pub encoding: Encoding,
    /// Total schedule length in EC cycles.
    pub cycles: u64,
    /// The backend's dependency-limited lower bound (weighted critical
    /// path for braids, SIMD timesteps for teleportation).
    pub lower_bound_cycles: u64,
    /// Communication events issued (braid legs placed, or teleports).
    pub comm_events: u64,
    /// The full backend-specific schedule.
    pub detail: CommDetail,
}

impl CommReport {
    /// Schedule length over the backend's lower bound (1.0 = no
    /// communication overhead).
    pub fn overhead_ratio(&self) -> f64 {
        if self.lower_bound_cycles == 0 {
            return 1.0;
        }
        self.cycles as f64 / self.lower_bound_cycles as f64
    }
}

/// The backend-specific schedule behind a [`CommReport`].
#[derive(Clone, Debug)]
pub enum CommDetail {
    /// Double-defect braid schedule.
    Braid(BraidSchedule),
    /// Planar Multi-SIMD + EPR-fabric schedule.
    Teleport(PlanarSchedule),
}

impl CommDetail {
    /// The braid schedule, if this report came from the braid backend.
    pub fn as_braid(&self) -> Option<&BraidSchedule> {
        match self {
            CommDetail::Braid(s) => Some(s),
            CommDetail::Teleport(_) => None,
        }
    }

    /// The planar schedule, if this report came from the teleport
    /// backend.
    pub fn as_teleport(&self) -> Option<&PlanarSchedule> {
        match self {
            CommDetail::Teleport(s) => Some(s),
            CommDetail::Braid(_) => None,
        }
    }
}

/// A communication engine that can schedule any circuit on its fabric.
pub trait CommBackend {
    /// Human-readable backend name.
    fn name(&self) -> &'static str;

    /// The surface-code encoding this backend models.
    fn encoding(&self) -> Encoding;

    /// Schedules `circuit` on this backend's fabric.
    ///
    /// # Errors
    ///
    /// Backend-specific scheduling failures (e.g. the braid engine's
    /// cycle limit), mapped into [`ToolflowError`].
    fn schedule(&self, circuit: &Circuit, dag: &DependencyDag)
        -> Result<CommReport, ToolflowError>;

    /// Profile-then-place: schedules `circuit` after a backend-specific
    /// placement-optimization pass, when the backend has one.
    ///
    /// The default is plain [`CommBackend::schedule`] — the braid
    /// backend's layout is already interaction-optimized at placement
    /// time. The teleport backend overrides this to profile the EPR
    /// fabric on the baseline floorplan and re-place data tiles away
    /// from the measured hot columns
    /// ([`scq_teleport::CongestionAwarePlacement`]); the result is
    /// never worse than [`CommBackend::schedule`]'s, because only
    /// strictly improving placement moves are accepted.
    ///
    /// # Errors
    ///
    /// As [`CommBackend::schedule`].
    fn schedule_optimized(
        &self,
        circuit: &Circuit,
        dag: &DependencyDag,
    ) -> Result<CommReport, ToolflowError> {
        self.schedule(circuit, dag)
    }
}

/// The double-defect braid engine behind the [`CommBackend`] interface.
///
/// Places qubits with the layout strategy its policy pairs with, then
/// runs the event-driven braid scheduler.
#[derive(Clone, Copy, Debug, Default)]
pub struct BraidBackend {
    /// Braid scheduling parameters.
    pub config: BraidConfig,
}

impl BraidBackend {
    /// A braid backend with the given configuration.
    pub fn new(config: BraidConfig) -> Self {
        BraidBackend { config }
    }
}

impl CommBackend for BraidBackend {
    fn name(&self) -> &'static str {
        "double-defect (braids)"
    }

    fn encoding(&self) -> Encoding {
        Encoding::DoubleDefect
    }

    /// Places and schedules through [`schedule_circuit`], which derives
    /// its own DAG from `circuit`.
    fn schedule(
        &self,
        circuit: &Circuit,
        _dag: &DependencyDag,
    ) -> Result<CommReport, ToolflowError> {
        let s = schedule_circuit(circuit, &self.config)?;
        Ok(CommReport {
            encoding: Encoding::DoubleDefect,
            cycles: s.cycles,
            lower_bound_cycles: s.critical_path_cycles,
            comm_events: s.braids_placed,
            detail: CommDetail::Braid(s),
        })
    }
}

/// The planar teleportation engine behind the [`CommBackend`] interface.
#[derive(Clone, Copy, Debug, Default)]
pub struct TeleportBackend {
    /// Planar scheduling parameters.
    pub config: PlanarConfig,
}

impl TeleportBackend {
    /// A teleport backend with the given configuration.
    pub fn new(config: PlanarConfig) -> Self {
        TeleportBackend { config }
    }
}

impl CommBackend for TeleportBackend {
    fn name(&self) -> &'static str {
        "planar (teleportation)"
    }

    fn encoding(&self) -> Encoding {
        Encoding::Planar
    }

    fn schedule(
        &self,
        circuit: &Circuit,
        dag: &DependencyDag,
    ) -> Result<CommReport, ToolflowError> {
        Ok(planar_report(schedule_planar(circuit, dag, &self.config)))
    }

    fn schedule_optimized(
        &self,
        circuit: &Circuit,
        dag: &DependencyDag,
    ) -> Result<CommReport, ToolflowError> {
        let (s, _) = schedule_planar_with(
            circuit,
            dag,
            &self.config,
            &CongestionAwarePlacement::default(),
            &FabricRun::default(),
        )?;
        Ok(planar_report(s))
    }
}

/// The backend-agnostic view of a planar schedule.
fn planar_report(s: PlanarSchedule) -> CommReport {
    CommReport {
        encoding: Encoding::Planar,
        cycles: s.cycles,
        lower_bound_cycles: s.timesteps,
        comm_events: s.simd.total_teleports(),
        detail: CommDetail::Teleport(s),
    }
}

/// Both backends at their default configurations for a code distance —
/// the pair every encoding comparison schedules.
pub fn default_backends(code_distance: u32) -> Vec<Box<dyn CommBackend>> {
    vec![
        Box::new(BraidBackend::new(BraidConfig {
            code_distance,
            ..Default::default()
        })),
        Box::new(TeleportBackend::new(PlanarConfig {
            code_distance,
            ..Default::default()
        })),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn circuit() -> Circuit {
        let mut b = Circuit::builder("backend-test", 6);
        for i in 0..5u32 {
            b.h(i).cnot(i, i + 1).t(i + 1);
        }
        b.finish()
    }

    #[test]
    fn both_backends_schedule_through_the_trait() {
        let c = circuit();
        let dag = DependencyDag::from_circuit(&c);
        for backend in default_backends(5) {
            let report = backend.schedule(&c, &dag).unwrap();
            assert_eq!(report.encoding, backend.encoding());
            assert!(report.cycles >= report.lower_bound_cycles);
            assert!(report.overhead_ratio() >= 1.0);
            assert!(report.comm_events > 0, "{}", backend.name());
        }
    }

    #[test]
    fn details_match_encodings() {
        let c = circuit();
        let dag = DependencyDag::from_circuit(&c);
        let braid = BraidBackend::default().schedule(&c, &dag).unwrap();
        assert!(braid.detail.as_braid().is_some());
        assert!(braid.detail.as_teleport().is_none());
        let tele = TeleportBackend::default().schedule(&c, &dag).unwrap();
        assert!(tele.detail.as_teleport().is_some());
        assert!(tele.detail.as_braid().is_none());
    }

    #[test]
    fn schedule_optimized_never_regresses() {
        // A column-stacked hot spot under one swap lane per link: the
        // teleport backend's profile-then-place pass must not produce a
        // longer schedule than the baseline (and the braid backend's
        // default passthrough must match its plain schedule).
        let mut b = Circuit::builder("hot", 16);
        for q in 0..16u32 {
            b.h(q);
        }
        for _ in 0..8 {
            for q in [0u32, 4, 8, 12] {
                b.cnot(q, (q + 4) % 16).t(q);
            }
        }
        let c = b.finish();
        let dag = DependencyDag::from_circuit(&c);
        let backend = TeleportBackend::new(PlanarConfig {
            link_capacity: 1,
            ..Default::default()
        });
        let plain = backend.schedule(&c, &dag).unwrap();
        let optimized = backend.schedule_optimized(&c, &dag).unwrap();
        assert!(optimized.cycles <= plain.cycles);
        let plain_stalls = plain.detail.as_teleport().unwrap().link_stall_cycles;
        let opt_stalls = optimized.detail.as_teleport().unwrap().link_stall_cycles;
        assert!(opt_stalls <= plain_stalls);

        let braid = BraidBackend::default();
        let a = braid.schedule(&c, &dag).unwrap();
        let b = braid.schedule_optimized(&c, &dag).unwrap();
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    fn braid_errors_surface_through_the_trait() {
        let backend = BraidBackend::new(BraidConfig {
            max_cycles: 1,
            ..Default::default()
        });
        let c = circuit();
        let dag = DependencyDag::from_circuit(&c);
        let err = backend.schedule(&c, &dag).unwrap_err();
        assert!(matches!(err, ToolflowError::Braid(_)));
    }
}
