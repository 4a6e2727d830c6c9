//! The braid prioritization policies of Section 6.3.

use std::fmt;

use scq_layout::LayoutStrategy;

/// The seven braid scheduling policies the paper evaluates (Figure 6).
///
/// Each policy adds one ingredient:
///
/// | Policy | Ingredients |
/// |--------|-------------|
/// | 0 | everything in program order |
/// | 1 | events may interleave; operations stay in program order |
/// | 2 | policy 1 + interaction-aware initial layout |
/// | 3 | policy 2 + highest-criticality first |
/// | 4 | policy 2 + longest braid first |
/// | 5 | policy 2 + closing (second-leg) events first |
/// | 6 | all of the above, with the paper's combined tie-breaks |
///
/// # Examples
///
/// ```
/// use scq_braid::Policy;
///
/// assert_eq!(Policy::from_index(6), Some(Policy::P6));
/// assert_eq!(Policy::P3.index(), 3);
/// assert!(Policy::P2.uses_optimized_layout());
/// assert!(!Policy::P0.uses_optimized_layout());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Policy {
    /// No optimization: operations and events in program order.
    P0,
    /// Interleave: events interleave; operation issue stays in program
    /// order.
    P1,
    /// Interleave + optimized qubit layout.
    P2,
    /// Interleave + layout + criticality-first issue.
    P3,
    /// Interleave + layout + longest-braid-first issue.
    P4,
    /// Interleave + layout + closing-braids-first issue.
    P5,
    /// All metrics combined (the paper's best policy).
    P6,
}

impl Policy {
    /// All policies, in evaluation order.
    pub const ALL: [Policy; 7] = [
        Policy::P0,
        Policy::P1,
        Policy::P2,
        Policy::P3,
        Policy::P4,
        Policy::P5,
        Policy::P6,
    ];

    /// Numeric index (0-6).
    pub fn index(self) -> usize {
        match self {
            Policy::P0 => 0,
            Policy::P1 => 1,
            Policy::P2 => 2,
            Policy::P3 => 3,
            Policy::P4 => 4,
            Policy::P5 => 5,
            Policy::P6 => 6,
        }
    }

    /// Policy from its numeric index.
    pub fn from_index(i: usize) -> Option<Policy> {
        Policy::ALL.get(i).copied()
    }

    /// Whether this policy places qubits with the interaction-aware
    /// optimizer (policies 2+) or the naive program-order layout.
    pub fn uses_optimized_layout(self) -> bool {
        self.index() >= 2
    }

    /// The layout strategy this policy pairs with in the paper's
    /// evaluation.
    pub fn layout_strategy(self) -> LayoutStrategy {
        if self.uses_optimized_layout() {
            LayoutStrategy::InteractionAware
        } else {
            LayoutStrategy::Linear
        }
    }

    /// Whether second-leg (closing) events outrank first-leg (opening)
    /// events (policies 5 and 6).
    pub fn closing_first(self) -> bool {
        matches!(self, Policy::P5 | Policy::P6)
    }

    /// Whether candidates sort by criticality (policies 3 and 6).
    pub fn sorts_by_criticality(self) -> bool {
        matches!(self, Policy::P3 | Policy::P6)
    }

    /// Whether candidates sort by braid length (policies 4 and 6).
    pub fn sorts_by_length(self) -> bool {
        matches!(self, Policy::P4 | Policy::P6)
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Policy {}", self.index())
    }
}

/// A schedulable event: opening the first or second braid leg of an
/// operation (closings are timer-driven, not scheduled).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Candidate {
    /// Instruction index in the program.
    pub op: u32,
    /// Which leg this event opens (1 or 2; single-leg ops use 1).
    pub leg: u8,
    /// Criticality of the op (longest dependent chain).
    pub criticality: u32,
    /// Manhattan length of the braid route (0 for local ops).
    pub length: u32,
}

/// Sorts candidates in descending priority for the given policy.
pub(crate) fn sort_candidates(policy: Policy, candidates: &mut [Candidate], crit_threshold: u32) {
    candidates.sort_by(|a, b| {
        use std::cmp::Ordering;
        if policy.closing_first() {
            // Leg 2 (closing the braid pair) outranks leg 1.
            match b.leg.cmp(&a.leg) {
                Ordering::Equal => {}
                other => return other,
            }
        }
        if policy.sorts_by_criticality() {
            match b.criticality.cmp(&a.criticality) {
                Ordering::Equal => {}
                other => return other,
            }
        }
        if policy.sorts_by_length() {
            let order = if policy == Policy::P6 {
                // Paper: short-to-long for the most critical braids,
                // long-to-short for the rest.
                if a.criticality >= crit_threshold {
                    a.length.cmp(&b.length)
                } else {
                    b.length.cmp(&a.length)
                }
            } else {
                b.length.cmp(&a.length) // longest first
            };
            match order {
                Ordering::Equal => {}
                other => return other,
            }
        }
        a.op.cmp(&b.op) // stable fallback: program order
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(op: u32, leg: u8, criticality: u32, length: u32) -> Candidate {
        Candidate {
            op,
            leg,
            criticality,
            length,
        }
    }

    #[test]
    fn index_roundtrip() {
        for p in Policy::ALL {
            assert_eq!(Policy::from_index(p.index()), Some(p));
        }
        assert_eq!(Policy::from_index(7), None);
    }

    #[test]
    fn layout_pairing() {
        assert_eq!(Policy::P0.layout_strategy(), LayoutStrategy::Linear);
        assert_eq!(Policy::P1.layout_strategy(), LayoutStrategy::Linear);
        for p in &Policy::ALL[2..] {
            assert_eq!(p.layout_strategy(), LayoutStrategy::InteractionAware);
        }
    }

    #[test]
    fn p1_sorts_by_program_order_only() {
        let mut c = vec![cand(5, 1, 9, 9), cand(2, 2, 1, 1), cand(8, 1, 5, 5)];
        sort_candidates(Policy::P1, &mut c, 0);
        let ops: Vec<u32> = c.iter().map(|x| x.op).collect();
        assert_eq!(ops, vec![2, 5, 8]);
    }

    #[test]
    fn p3_prefers_critical() {
        let mut c = vec![cand(1, 1, 2, 0), cand(2, 1, 9, 0), cand(3, 1, 5, 0)];
        sort_candidates(Policy::P3, &mut c, 0);
        assert_eq!(c[0].op, 2);
        assert_eq!(c[1].op, 3);
    }

    #[test]
    fn p4_prefers_long() {
        let mut c = vec![cand(1, 1, 0, 2), cand(2, 1, 0, 9), cand(3, 1, 0, 5)];
        sort_candidates(Policy::P4, &mut c, 0);
        assert_eq!(c[0].op, 2);
    }

    #[test]
    fn p5_prefers_closing_legs() {
        let mut c = vec![cand(1, 1, 9, 9), cand(7, 2, 0, 0)];
        sort_candidates(Policy::P5, &mut c, 0);
        assert_eq!(c[0].op, 7);
    }

    #[test]
    fn p6_combines_all_metrics() {
        // Closing first, then criticality, then split length ordering.
        let mut c = vec![
            cand(1, 1, 10, 7), // high criticality, long
            cand(2, 1, 10, 2), // high criticality, short -> before op 1
            cand(3, 1, 3, 2),  // low criticality, short
            cand(4, 1, 3, 7),  // low criticality, long -> before op 3
            cand(5, 2, 1, 1),  // closing leg -> first overall
        ];
        sort_candidates(Policy::P6, &mut c, 5);
        let ops: Vec<u32> = c.iter().map(|x| x.op).collect();
        assert_eq!(ops, vec![5, 2, 1, 4, 3]);
    }

    #[test]
    fn ties_fall_back_to_program_order() {
        let mut c = vec![cand(9, 1, 5, 5), cand(3, 1, 5, 5), cand(6, 1, 5, 5)];
        sort_candidates(Policy::P6, &mut c, 0);
        let ops: Vec<u32> = c.iter().map(|x| x.op).collect();
        assert_eq!(ops, vec![3, 6, 9]);
    }

    #[test]
    fn display_names() {
        assert_eq!(Policy::P0.to_string(), "Policy 0");
        assert_eq!(Policy::P6.to_string(), "Policy 6");
    }
}
