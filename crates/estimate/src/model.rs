//! The space-time resource model for both encodings.

use std::fmt;

use scq_surface::{
    required_distance_for_ops, Encoding, FactoryConfig, Technology, ThresholdExceeded,
    TileGeometry, TELEPORT_CYCLES,
};
use scq_teleport::hop_cycles_for_distance;

use crate::profile::AppProfile;

/// Distribution cycles fully hidden by even a minimal prefetch window:
/// swap chains shorter than this never stall a teleport.
const PREFETCH_HIDE_CYCLES: f64 = 4.0;

/// Parameters of the resource estimator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EstimateConfig {
    /// Physical technology (error rate, cycle time).
    pub technology: Technology,
    /// Ancilla factory sizing.
    pub factory: FactoryConfig,
    /// Exposure coefficient `omega`: the fraction of EPR swap-chain
    /// latency that just-in-time pipelining fails to hide is
    /// `1 / (1 + omega * parallelism)`. Parallel applications overlap
    /// distribution with independent work; serial ones mostly cannot.
    pub exposure_omega: f64,
}

impl Default for EstimateConfig {
    fn default() -> Self {
        EstimateConfig {
            technology: Technology::superconducting_optimistic(),
            factory: FactoryConfig::default(),
            exposure_omega: 1.0,
        }
    }
}

/// Space-time resource estimate of one application at one computation
/// size on one encoding — a single point of Figure 7.
#[derive(Clone, Debug, PartialEq)]
pub struct ResourceEstimate {
    /// The evaluated encoding.
    pub encoding: Encoding,
    /// Code distance chosen for the target logical error rate.
    pub code_distance: u32,
    /// Logical data qubits.
    pub logical_qubits: f64,
    /// Total physical qubits (data tiles + channels + factories + live
    /// communication ancillas).
    pub physical_qubits: f64,
    /// Execution time in error-correction cycles.
    pub cycles: f64,
    /// Execution time in seconds.
    pub seconds: f64,
}

impl ResourceEstimate {
    /// The space-time product `qubits x seconds` the paper uses for the
    /// favorability comparison.
    pub fn space_time(&self) -> f64 {
        self.physical_qubits * self.seconds
    }
}

impl fmt::Display for ResourceEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: d={}, {:.2e} physical qubits, {:.2e} s",
            self.encoding, self.code_distance, self.physical_qubits, self.seconds
        )
    }
}

/// Estimates the space-time resources of running `profile` at
/// computation size `kq` (logical operations) on `encoding`.
///
/// The model:
///
/// - **Double-defect**: two-qubit ops are braids of `2(d+1)` cycles, T
///   gates one leg of `d+1`; the whole schedule is inflated by the
///   simulator-calibrated braid congestion factor. Space is `8d^2` per
///   tile, 25% channel overhead, plus magic-state factories.
/// - **Planar**: communication ops cost [`TELEPORT_CYCLES`] plus the
///   *exposed* fraction of the EPR swap-chain distance (mean distance
///   `0.5 * sqrt(1.4 Q)` tiles, set by the machine radius rather than
///   the profile's `layout_kappa`, and `(2d-1)/8` cycles per tile);
///   space is `(2d-1)^2` per tile, 12.5% lane overhead, factories, and
///   the live-EPR pool given by Little's law.
///
/// The code distance is [`required_distance_for_ops`] of `kq` at
/// `config.technology`'s error rate.
///
/// # Errors
///
/// Returns [`ThresholdExceeded`] when the physical error rate cannot
/// support the required logical error rate.
pub fn estimate(
    profile: &AppProfile,
    kq: f64,
    encoding: Encoding,
    config: &EstimateConfig,
) -> Result<ResourceEstimate, ThresholdExceeded> {
    assert!(kq >= 1.0, "computation size must be at least one op");
    let d = required_distance_for_ops(config.technology.p_physical, kq)?;
    let df = f64::from(d);
    let q = profile.logical_qubits(kq);
    let depth = kq / profile.parallelism;
    let tile = TileGeometry::new(encoding, d);
    let tile_qubits = tile.physical_qubits() as f64;

    let (cycles, physical_qubits) = match encoding {
        Encoding::DoubleDefect => {
            let per_op = profile.frac_two_qubit * (2.0 * (df + 1.0))
                + profile.frac_t * (df + 1.0)
                + profile.frac_local() * 1.0;
            let cycles = depth * per_op * profile.braid_congestion;
            let provision = config.factory.provision(q.ceil() as u64, false);
            let tiles = q * (1.0 + tile.channel_overhead()) + provision.total_tiles as f64;
            (cycles, tiles * tile_qubits)
        }
        Encoding::Planar => {
            // Multi-SIMD teleports move qubits between regions and
            // memory: the distance is set by the machine radius, not by
            // interaction-graph locality (which only the tiled braid
            // architecture exploits).
            let dist_tiles = 0.5 * (1.4 * q).sqrt();
            let hop = hop_cycles_for_distance(d) as f64;
            let exposure = 1.0 / (1.0 + config.exposure_omega * profile.parallelism);
            let exposed_cycles = (dist_tiles * hop - PREFETCH_HIDE_CYCLES).max(0.0) * exposure;
            let comm_cost = TELEPORT_CYCLES as f64 + exposed_cycles;
            let per_op =
                (profile.frac_two_qubit + profile.frac_t) * comm_cost + profile.frac_local() * 1.0;
            // Residual JIT latency: the per-app multiplier measured on
            // the route-aware EPR fabric (makespan over ideal), not a
            // closed-form constant.
            let cycles = depth * per_op * profile.teleport_congestion.max(1.0);
            // Little's law: live EPR pairs = launch rate x time in flight.
            let comm_rate = (profile.frac_two_qubit + profile.frac_t) * kq / cycles.max(1.0);
            let live_pairs = comm_rate * dist_tiles * hop;
            let provision = config.factory.provision(q.ceil() as u64, true);
            let tiles = q * (1.0 + tile.channel_overhead())
                + provision.total_tiles as f64
                + 2.0 * live_pairs;
            (cycles, tiles * tile_qubits)
        }
    };

    Ok(ResourceEstimate {
        encoding,
        code_distance: d,
        logical_qubits: q,
        physical_qubits,
        cycles,
        seconds: cycles * config.technology.ec_cycle_seconds(),
    })
}

/// Estimates both encodings and returns `(planar, double_defect)`.
///
/// # Errors
///
/// As [`estimate`].
pub fn estimate_both(
    profile: &AppProfile,
    kq: f64,
    config: &EstimateConfig,
) -> Result<(ResourceEstimate, ResourceEstimate), ThresholdExceeded> {
    Ok((
        estimate(profile, kq, Encoding::Planar, config)?,
        estimate(profile, kq, Encoding::DoubleDefect, config)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::LogicalScaling;

    fn serial_profile() -> AppProfile {
        AppProfile {
            name: "serial".into(),
            parallelism: 1.5,
            frac_two_qubit: 0.3,
            frac_t: 0.25,
            braid_congestion: 1.03,
            teleport_congestion: 1.04,
            layout_kappa: 0.7,
            scaling: LogicalScaling::Grover { coeff: 1.0 },
        }
    }

    fn parallel_profile() -> AppProfile {
        AppProfile {
            name: "parallel".into(),
            parallelism: 66.0,
            frac_two_qubit: 0.35,
            frac_t: 0.3,
            braid_congestion: 2.2,
            teleport_congestion: 1.04,
            layout_kappa: 0.7,
            scaling: LogicalScaling::Power {
                a: 1.0,
                b: 0.5,
                c: 1.0,
            },
        }
    }

    #[test]
    fn estimates_are_positive_and_scale() {
        let cfg = EstimateConfig::default();
        let p = serial_profile();
        let small = estimate(&p, 1e4, Encoding::Planar, &cfg).unwrap();
        let large = estimate(&p, 1e12, Encoding::Planar, &cfg).unwrap();
        assert!(small.physical_qubits > 0.0 && small.seconds > 0.0);
        assert!(large.seconds > small.seconds);
        assert!(large.physical_qubits > small.physical_qubits);
        assert!(large.code_distance >= small.code_distance);
    }

    #[test]
    fn planar_tiles_are_smaller() {
        let cfg = EstimateConfig::default();
        let p = serial_profile();
        let (planar, dd) = estimate_both(&p, 1e6, &cfg).unwrap();
        assert!(planar.physical_qubits < dd.physical_qubits);
    }

    #[test]
    fn planar_wins_time_at_small_sizes() {
        let cfg = EstimateConfig::default();
        let p = serial_profile();
        let (planar, dd) = estimate_both(&p, 1e2, &cfg).unwrap();
        assert!(
            planar.seconds < dd.seconds,
            "planar {} vs dd {}",
            planar.seconds,
            dd.seconds
        );
    }

    #[test]
    fn double_defect_wins_time_at_large_serial_sizes() {
        let cfg = EstimateConfig::default();
        let p = serial_profile();
        let (planar, dd) = estimate_both(&p, 1e20, &cfg).unwrap();
        assert!(
            dd.seconds < planar.seconds,
            "dd {} vs planar {}",
            dd.seconds,
            planar.seconds
        );
    }

    #[test]
    fn parallel_apps_keep_planar_favorable_longer() {
        let cfg = EstimateConfig::default();
        let serial = serial_profile();
        let parallel = parallel_profile();
        // At a mid sweep point the serial app has crossed to
        // double-defect but the parallel one has not.
        let ratio = |p: &AppProfile, kq: f64| {
            let (planar, dd) = estimate_both(p, kq, &cfg).unwrap();
            dd.space_time() / planar.space_time()
        };
        // Ratios decline with size for both.
        assert!(ratio(&serial, 1e4) > ratio(&serial, 1e20));
        assert!(ratio(&parallel, 1e4) > ratio(&parallel, 1e20));
    }

    #[test]
    fn above_threshold_errors_out() {
        let mut cfg = EstimateConfig::default();
        cfg.technology = cfg.technology.with_error_rate(0.5);
        let err = estimate(&serial_profile(), 1e6, Encoding::Planar, &cfg).unwrap_err();
        assert!(err.to_string().contains("threshold"));
    }

    #[test]
    fn space_time_product() {
        let cfg = EstimateConfig::default();
        let e = estimate(&serial_profile(), 1e6, Encoding::Planar, &cfg).unwrap();
        assert!((e.space_time() - e.physical_qubits * e.seconds).abs() < 1e-9);
        assert!(e.to_string().contains("planar"));
    }

    #[test]
    #[should_panic(expected = "at least one op")]
    fn zero_size_rejected() {
        let _ = estimate(
            &serial_profile(),
            0.0,
            Encoding::Planar,
            &EstimateConfig::default(),
        );
    }
}
