//! Code-distance selection from error-rate requirements.

use std::error::Error;
use std::fmt;

/// The physical error rate is at or above the code threshold, so no code
/// distance can reach the target logical error rate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ThresholdExceeded {
    /// The offending physical error rate.
    pub p_physical: f64,
    /// The model's threshold.
    pub p_threshold: f64,
}

impl fmt::Display for ThresholdExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "physical error rate {:.2e} is not below the surface code threshold {:.2e}",
            self.p_physical, self.p_threshold
        )
    }
}

impl Error for ThresholdExceeded {}

/// Leading coefficient `A` of the Fowler scaling law
/// `pL(d) = A * (p/p_th)^((d+1)/2)` (Fowler et al. [27, 29], the scaling
/// the paper's Section 5.3 relies on to choose `d`).
pub const FOWLER_COEFFICIENT: f64 = 0.03;

/// Per-operation threshold error rate `p_th` of the surface code on a
/// square lattice.
pub const P_THRESHOLD: f64 = 1e-2;

/// Largest distance [`required_distance`] returns; guards against
/// searching unboundedly when the target is unreachable in practice.
pub const MAX_DISTANCE: u32 = 1001;

/// Logical error rate per logical operation at code distance `d` with
/// physical error rate `p_physical`, by the Fowler law.
///
/// # Examples
///
/// ```
/// use scq_surface::logical_error_rate;
///
/// // Stronger codes are exponentially better below threshold.
/// let p3 = logical_error_rate(3, 1e-4);
/// let p7 = logical_error_rate(7, 1e-4);
/// assert!(p7 < p3 * 1e-3);
/// ```
///
/// # Panics
///
/// Panics if `d` is even or zero (surface code distances are odd).
pub fn logical_error_rate(d: u32, p_physical: f64) -> f64 {
    assert!(d % 2 == 1, "surface code distance must be odd, got {d}");
    let exponent = f64::from(d.div_ceil(2));
    FOWLER_COEFFICIENT * (p_physical / P_THRESHOLD).powf(exponent)
}

/// Smallest odd distance `d >= 3` with
/// `logical_error_rate(d) <= p_logical_target`.
///
/// # Errors
///
/// Returns [`ThresholdExceeded`] when `p_physical >= P_THRESHOLD`
/// (no distance helps above threshold) or when even
/// [`MAX_DISTANCE`] cannot reach the target.
pub fn required_distance(p_physical: f64, p_logical_target: f64) -> Result<u32, ThresholdExceeded> {
    if p_physical >= P_THRESHOLD {
        return Err(ThresholdExceeded {
            p_physical,
            p_threshold: P_THRESHOLD,
        });
    }
    let mut d = 3;
    while d <= MAX_DISTANCE {
        if logical_error_rate(d, p_physical) <= p_logical_target {
            return Ok(d);
        }
        d += 2;
    }
    Err(ThresholdExceeded {
        p_physical,
        p_threshold: P_THRESHOLD,
    })
}

/// Distance required to run `logical_ops` operations with >= 50%
/// overall success (the paper's correctness target): target
/// `pL = 0.5 / logical_ops`.
///
/// # Errors
///
/// As [`required_distance`].
pub fn required_distance_for_ops(
    p_physical: f64,
    logical_ops: f64,
) -> Result<u32, ThresholdExceeded> {
    let target = 0.5 / logical_ops.max(1.0);
    required_distance(p_physical, target)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_rate_decreases_with_distance() {
        let mut prev = f64::INFINITY;
        for d in [3, 5, 7, 9, 11] {
            let pl = logical_error_rate(d, 1e-4);
            assert!(pl < prev, "d={d}: {pl} !< {prev}");
            prev = pl;
        }
    }

    #[test]
    fn distance_grows_with_computation_size() {
        let p = 1e-5;
        let d_small = required_distance_for_ops(p, 1e3).unwrap();
        let d_large = required_distance_for_ops(p, 1e12).unwrap();
        assert!(d_small < d_large, "{d_small} !< {d_large}");
    }

    #[test]
    fn distance_grows_with_error_rate() {
        let d_good = required_distance_for_ops(1e-8, 1e9).unwrap();
        let d_bad = required_distance_for_ops(1e-3, 1e9).unwrap();
        assert!(d_good < d_bad, "{d_good} !< {d_bad}");
    }

    #[test]
    fn returned_distance_meets_target_and_is_minimal() {
        for p in [1e-7, 1e-5, 1e-3] {
            for target in [1e-6, 1e-12, 1e-18] {
                let d = required_distance(p, target).unwrap();
                assert!(d >= 3 && d % 2 == 1);
                assert!(logical_error_rate(d, p) <= target);
                if d > 3 {
                    assert!(logical_error_rate(d - 2, p) > target);
                }
            }
        }
    }

    #[test]
    fn above_threshold_errors() {
        let err = required_distance(2e-2, 1e-9).unwrap_err();
        assert!(err.to_string().contains("threshold"));
    }

    #[test]
    fn paper_scale_distances_are_plausible() {
        // At p = 1e-3 and ~1e12 ops the literature expects d in the
        // twenties-to-thirties; sanity-check our constants.
        let d = required_distance_for_ops(1e-3, 1e12).unwrap();
        assert!((21..=41).contains(&d), "d = {d}");
    }

    #[test]
    #[should_panic(expected = "must be odd")]
    fn even_distance_rejected() {
        let _ = logical_error_rate(4, 1e-4);
    }
}
