//! Plain-text QASM-style serialization of circuits.
//!
//! The format is a line-oriented assembly matching the paper's
//! "logical assembly" interchange (Figure 4): a header naming the circuit
//! and its width, then one instruction per line, e.g.
//!
//! ```text
//! # circuit bell
//! qubits 2
//! h q0
//! cnot q0, q1
//! measz q0
//! measz q1
//! ```

use crate::circuit::Circuit;
use crate::error::QasmParseError;
use crate::gate::Gate;

/// The widest `qubits N` header [`circuit_from_qasm`] accepts. Every
/// pass downstream sizes its tables by the declared width, whatever
/// the gates touch: a 2-gate circuit of this width schedules in a few
/// seconds, while a 4-billion-qubit header would ask the dependency
/// DAG for 32 GB.
const MAX_QUBITS: u32 = 1 << 16;

/// Serializes a circuit to the textual QASM dump.
///
/// The output round-trips through [`circuit_from_qasm`].
///
/// # Examples
///
/// ```
/// use scq_ir::{circuit_from_qasm, circuit_to_qasm, Circuit};
///
/// let mut b = Circuit::builder("bell", 2);
/// b.h(0).cnot(0, 1);
/// let c = b.finish();
/// let text = circuit_to_qasm(&c);
/// let back = circuit_from_qasm(&text).unwrap();
/// assert_eq!(back, c);
/// ```
pub fn circuit_to_qasm(circuit: &Circuit) -> String {
    let mut out = String::new();
    out.push_str(&format!("# circuit {}\n", circuit.name()));
    out.push_str(&format!("qubits {}\n", circuit.num_qubits()));
    for inst in circuit {
        let qs = inst.qubits();
        match qs.len() {
            1 => out.push_str(&format!("{} q{}\n", inst.gate(), qs[0].raw())),
            2 => out.push_str(&format!(
                "{} q{}, q{}\n",
                inst.gate(),
                qs[0].raw(),
                qs[1].raw()
            )),
            _ => unreachable!("gates have arity 1 or 2"),
        }
    }
    out
}

/// Parses a QASM dump produced by [`circuit_to_qasm`].
///
/// # Errors
///
/// Returns [`QasmParseError`] with a line number when the header is
/// missing or malformed or declares more than 65,536 qubits, a gate
/// mnemonic is unknown, an operand is not of the form `qN`, or an
/// instruction violates circuit invariants (operand out of range,
/// duplicate operands, wrong arity).
pub fn circuit_from_qasm(text: &str) -> Result<Circuit, QasmParseError> {
    let mut name = String::from("unnamed");
    let mut builder = None;
    for (idx, raw_line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw_line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            if let Some(n) = rest.trim().strip_prefix("circuit ") {
                name = n.trim().to_owned();
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("qubits ") {
            let n: u32 = rest
                .trim()
                .parse()
                .map_err(|_| QasmParseError::new(lineno, "invalid qubit count"))?;
            if n > MAX_QUBITS {
                return Err(QasmParseError::new(
                    lineno,
                    format!("{n} qubits exceed the limit of {MAX_QUBITS}"),
                ));
            }
            builder = Some(Circuit::builder(name.clone(), n));
            continue;
        }
        let b = builder
            .as_mut()
            .ok_or_else(|| QasmParseError::new(lineno, "instruction before `qubits` header"))?;
        let (mnemonic, operands) = match line.split_once(' ') {
            Some((m, o)) => (m, o),
            None => return Err(QasmParseError::new(lineno, "missing operands")),
        };
        let gate: Gate = mnemonic
            .parse()
            .map_err(|e| QasmParseError::new(lineno, format!("{e}")))?;
        let mut qubits = Vec::with_capacity(2);
        for op in operands.split(',') {
            let op = op.trim();
            let idx_str = op
                .strip_prefix('q')
                .ok_or_else(|| QasmParseError::new(lineno, format!("bad operand `{op}`")))?;
            let q: u32 = idx_str
                .parse()
                .map_err(|_| QasmParseError::new(lineno, format!("bad operand `{op}`")))?;
            qubits.push(q);
        }
        b.try_push(gate, &qubits)
            .map_err(|e| QasmParseError::new(lineno, format!("{e}")))?;
    }
    match builder {
        Some(b) => Ok(b.finish()),
        None => Err(QasmParseError::new(
            text.lines().count().max(1),
            "missing `qubits` header",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Circuit;

    fn sample() -> Circuit {
        let mut b = Circuit::builder("sample", 3);
        b.prep_z(0).h(0).cnot(0, 1).t(2).swap(1, 2).meas_x(0);
        b.finish()
    }

    #[test]
    fn roundtrip_preserves_circuit() {
        let c = sample();
        let text = circuit_to_qasm(&c);
        let back = circuit_from_qasm(&text).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn dump_format_is_stable() {
        let text = circuit_to_qasm(&sample());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "# circuit sample");
        assert_eq!(lines[1], "qubits 3");
        assert_eq!(lines[2], "prepz q0");
        assert_eq!(lines[4], "cnot q0, q1");
    }

    #[test]
    fn parse_tolerates_blank_lines_and_comments() {
        let text = "# circuit c\n\n# a comment\nqubits 1\n\nh q0\n";
        let c = circuit_from_qasm(text).unwrap();
        assert_eq!(c.name(), "c");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn parse_rejects_unknown_gate() {
        let err = circuit_from_qasm("qubits 1\nfredkin q0\n").unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.message().contains("fredkin"));
    }

    #[test]
    fn parse_rejects_missing_header() {
        let err = circuit_from_qasm("h q0\n").unwrap_err();
        assert!(err.message().contains("before"));
    }

    #[test]
    fn parse_rejects_bad_operand() {
        let err = circuit_from_qasm("qubits 2\ncnot q0, r1\n").unwrap_err();
        assert!(err.message().contains("r1"));
    }

    #[test]
    fn parse_rejects_out_of_range_operand() {
        let err = circuit_from_qasm("qubits 1\nh q5\n").unwrap_err();
        assert!(err.message().contains("out of range"));
    }

    #[test]
    fn parse_caps_the_declared_width() {
        let at_cap = circuit_from_qasm(&format!("qubits {MAX_QUBITS}\nh q0\n")).unwrap();
        assert_eq!(at_cap.num_qubits(), MAX_QUBITS);
        let text = format!("# circuit wide\nqubits {}\nh q0\n", MAX_QUBITS + 1);
        let err = circuit_from_qasm(&text).unwrap_err();
        assert_eq!(err.line(), 2);
        assert_eq!(err.message(), "65537 qubits exceed the limit of 65536");
    }

    #[test]
    fn parse_empty_input_fails() {
        assert!(circuit_from_qasm("").is_err());
    }
}
