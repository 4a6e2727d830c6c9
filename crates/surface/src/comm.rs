//! Communication-method properties (the paper's Table 1).

use std::fmt;

use crate::tile::Encoding;

/// Logical latency, in EC cycles, of one teleport once its EPR pair is
/// in place: the Bell measurement and Pauli correction (Section 4.4).
/// The EPR pipeline's accounting and the space-time estimate both
/// charge it.
pub const TELEPORT_CYCLES: u64 = 3;

/// Qualitative cost level used in the paper's Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CostLevel {
    /// Low cost.
    Low,
    /// High cost.
    High,
}

impl fmt::Display for CostLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CostLevel::Low => "Low",
            CostLevel::High => "High",
        })
    }
}

/// The two long-range communication mechanisms of Section 4.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CommMethod {
    /// EPR-mediated teleportation (planar encoding).
    Teleportation,
    /// Defect braiding (double-defect encoding).
    Braiding,
}

impl CommMethod {
    /// The communication method each encoding uses.
    pub fn for_encoding(encoding: Encoding) -> Self {
        match encoding {
            Encoding::Planar => CommMethod::Teleportation,
            Encoding::DoubleDefect => CommMethod::Braiding,
        }
    }

    /// Space cost in ancilla qubits (Table 1): teleportation is low
    /// (EPR pairs are consumed and recycled), braiding is high (channel
    /// area must be reserved everywhere a braid may pass).
    pub fn space_cost(self) -> CostLevel {
        match self {
            CommMethod::Teleportation => CostLevel::Low,
            CommMethod::Braiding => CostLevel::High,
        }
    }

    /// Time cost per communication (Table 1): a braid stretches any
    /// distance in one cycle; teleportation needs EPR halves physically
    /// swapped into place first.
    pub fn time_cost(self) -> CostLevel {
        match self {
            CommMethod::Teleportation => CostLevel::High,
            CommMethod::Braiding => CostLevel::Low,
        }
    }

    /// Whether the expensive step can be performed ahead of the point of
    /// use (Table 1) — the property the paper's whole argument turns on.
    pub fn is_prefetchable(self) -> bool {
        match self {
            CommMethod::Teleportation => true,
            CommMethod::Braiding => false,
        }
    }

    /// Name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            CommMethod::Teleportation => "Teleportation",
            CommMethod::Braiding => "Braiding",
        }
    }
}

impl fmt::Display for CommMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Renders the paper's Table 1 ("Summary of tradeoffs in communication
/// efficiency among the two main flavors of the surface code").
///
/// # Examples
///
/// ```
/// let t = scq_surface::comm_tradeoff_table();
/// assert!(t.contains("Braiding"));
/// assert!(t.contains("Prefetchable"));
/// ```
pub fn comm_tradeoff_table() -> String {
    let mut out = String::new();
    out.push_str(
        "Encoding       | Method        | Space (Qubits) | Time (Latency) | Prefetchable?\n",
    );
    out.push_str(
        "---------------|---------------|----------------|----------------|--------------\n",
    );
    for encoding in Encoding::ALL {
        let m = CommMethod::for_encoding(encoding);
        out.push_str(&format!(
            "{:<14} | {:<13} | {:<14} | {:<14} | {}\n",
            encoding.name(),
            m.name(),
            m.space_cost().to_string(),
            m.time_cost().to_string(),
            if m.is_prefetchable() { "Yes" } else { "No" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_assignments() {
        // Paper Table 1, verbatim.
        let tele = CommMethod::Teleportation;
        assert_eq!(tele.space_cost(), CostLevel::Low);
        assert_eq!(tele.time_cost(), CostLevel::High);
        assert!(tele.is_prefetchable());

        let braid = CommMethod::Braiding;
        assert_eq!(braid.space_cost(), CostLevel::High);
        assert_eq!(braid.time_cost(), CostLevel::Low);
        assert!(!braid.is_prefetchable());
    }

    #[test]
    fn encodings_map_to_methods() {
        assert_eq!(
            CommMethod::for_encoding(Encoding::Planar),
            CommMethod::Teleportation
        );
        assert_eq!(
            CommMethod::for_encoding(Encoding::DoubleDefect),
            CommMethod::Braiding
        );
    }

    #[test]
    fn table_renders_both_rows() {
        let t = comm_tradeoff_table();
        assert!(t.contains("planar"));
        assert!(t.contains("double-defect"));
        assert!(t.contains("Yes") && t.contains("No"));
        assert_eq!(t.lines().count(), 4);
    }
}
