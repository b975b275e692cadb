//! Errors for the Nepal query system.

use std::fmt;

use nepal_rpe::RpeError;
use nepal_schema::SchemaError;

/// Errors raised while parsing, planning, or executing Nepal queries.
#[derive(Debug)]
pub enum NepalError {
    /// Syntax error in the query text.
    Parse { pos: usize, msg: String },
    /// A range variable is used but never declared in FROM.
    UnknownVariable(String),
    /// A range variable has no MATCHES predicate (§3.4: "each pathway
    /// variable must have a MATCHES predicate").
    NoMatches(String),
    /// RPE-level error.
    Rpe(RpeError),
    /// Schema-level error.
    Schema(SchemaError),
    /// Field reference could not be resolved.
    UnknownField { class: String, field: String },
    /// The requested backend is not registered.
    UnknownBackend(String),
    /// Backend-specific failure.
    Backend(String),
    /// The feature is not supported by the chosen backend.
    Unsupported(String),
    /// The query's deadline passed; evaluation was abandoned at a
    /// cancellation checkpoint and partial work discarded.
    DeadlineExceeded,
    /// The query was cancelled (REPL `:cancel`, server drain, client
    /// disconnect) at a cancellation checkpoint.
    Cancelled,
}

impl fmt::Display for NepalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NepalError::Parse { pos, msg } => write!(f, "query parse error at byte {pos}: {msg}"),
            NepalError::UnknownVariable(v) => write!(f, "unknown pathway variable `{v}`"),
            NepalError::NoMatches(v) => {
                write!(f, "pathway variable `{v}` has no MATCHES predicate")
            }
            NepalError::Rpe(e) => write!(f, "{e}"),
            NepalError::Schema(e) => write!(f, "{e}"),
            NepalError::UnknownField { class, field } => {
                write!(f, "class `{class}` has no field `{field}`")
            }
            NepalError::UnknownBackend(b) => write!(f, "unknown backend `{b}`"),
            NepalError::Backend(m) => write!(f, "backend error: {m}"),
            NepalError::Unsupported(m) => write!(f, "unsupported: {m}"),
            NepalError::DeadlineExceeded => write!(f, "query deadline exceeded"),
            NepalError::Cancelled => write!(f, "query cancelled"),
        }
    }
}

impl std::error::Error for NepalError {}

impl From<RpeError> for NepalError {
    fn from(e: RpeError) -> Self {
        // Cancellation is a serving condition, not an RPE defect: keep it
        // typed at the top level so servers can map it to overload/timeout
        // responses without string matching.
        match e {
            RpeError::DeadlineExceeded => NepalError::DeadlineExceeded,
            RpeError::Cancelled => NepalError::Cancelled,
            other => NepalError::Rpe(other),
        }
    }
}

impl From<SchemaError> for NepalError {
    fn from(e: SchemaError) -> Self {
        NepalError::Schema(e)
    }
}

/// Result alias for the query system.
pub type Result<T> = std::result::Result<T, NepalError>;
