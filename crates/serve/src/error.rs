//! Structured serving-layer errors.

use std::error::Error;
use std::fmt;

use scq_core::ToolflowError;

/// A failure serving one schedule request.
///
/// `Clone` is load-bearing: the single-flight cache shares one
/// computation among every concurrent requester of the same key, so a
/// leader's failure must be cloneable to each waiter. Underlying errors
/// (scheduler, fabric, parser) are therefore carried rendered rather
/// than boxed.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// The request itself was malformed (bad token, missing source,
    /// out-of-range parameter).
    BadRequest(String),
    /// The request was well-formed but its inputs were unusable
    /// (unparsable QASM or defect map, dimension mismatch).
    Invalid(String),
    /// The backend failed to schedule the circuit (cycle budget,
    /// unroutable defects, ...).
    Schedule(String),
    /// The schedule was produced but failed independent certification.
    Certification(String),
    /// The serving layer itself misbehaved (e.g. a compute panicked
    /// under the single-flight lock).
    Internal(String),
}

impl ServeError {
    /// Shorthand for a malformed-request complaint.
    pub fn bad_request(msg: impl Into<String>) -> Self {
        ServeError::BadRequest(msg.into())
    }

    /// Shorthand for an unusable-input complaint.
    pub fn invalid(msg: impl Into<String>) -> Self {
        ServeError::Invalid(msg.into())
    }

    /// Shorthand for a backend scheduling failure.
    pub fn schedule(err: impl fmt::Display) -> Self {
        ServeError::Schedule(err.to_string())
    }

    /// Shorthand for a certification failure.
    pub fn certification(msg: impl Into<String>) -> Self {
        ServeError::Certification(msg.into())
    }

    /// Shorthand for a serving-layer invariant violation.
    pub fn internal(msg: impl Into<String>) -> Self {
        ServeError::Internal(msg.into())
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServeError::Invalid(m) => write!(f, "invalid input: {m}"),
            ServeError::Schedule(m) => write!(f, "scheduling failed: {m}"),
            ServeError::Certification(m) => write!(f, "certification failed: {m}"),
            ServeError::Internal(m) => write!(f, "serving layer error: {m}"),
        }
    }
}

impl Error for ServeError {}

/// A pipeline failure: an unusable defect spec is an input error, any
/// other failure a scheduling one.
impl From<ToolflowError> for ServeError {
    fn from(e: ToolflowError) -> Self {
        match e {
            ToolflowError::Defects(e) => ServeError::invalid(e.to_string()),
            e => ServeError::schedule(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_with_category_prefixes() {
        assert_eq!(ServeError::bad_request("x").to_string(), "bad request: x");
        assert!(ServeError::schedule("boom").to_string().contains("boom"));
        assert!(ServeError::internal("p")
            .to_string()
            .contains("serving layer"));
    }

    #[test]
    fn clones_compare_equal() {
        let e = ServeError::invalid("dims");
        assert_eq!(e.clone(), e);
    }
}
