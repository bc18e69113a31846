//! Engine error types.
//!
//! Hand-rolled (`thiserror` is not in the approved dependency set); every
//! variant carries enough context to be actionable in a test failure.

use crate::value::FieldType;
use std::fmt;

/// Convenience alias used across the engine.
pub type Result<T, E = EngineError> = std::result::Result<T, E>;

/// Errors raised while building or executing a query.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A schema declared the same field name twice.
    DuplicateField(String),
    /// A referenced field does not exist in the schema.
    UnknownField(String),
    /// A row had the wrong number of values for its schema.
    ArityMismatch {
        /// Fields the schema declares.
        expected: usize,
        /// Values the row carried.
        got: usize,
    },
    /// A non-null value had the wrong type for its field.
    TypeMismatch {
        /// Offending field.
        field: String,
        /// Declared type.
        expected: FieldType,
        /// Observed type.
        got: FieldType,
    },
    /// A window specification was invalid (zero length, slide > length, ...).
    InvalidWindow(String),
    /// An aggregate was configured with invalid parameters.
    InvalidAggregate(String),
    /// An executor or session configuration was invalid (zero shards, an
    /// unknown query id, a missing window, ...).
    InvalidPipeline(String),
    /// A shard thread of the parallel executor panicked.
    ExecutorFailure(String),
    /// A strategy spec or query text did not parse (`quill_core::dsl`).
    InvalidSpec(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::DuplicateField(name) => write!(f, "duplicate field `{name}` in schema"),
            EngineError::UnknownField(name) => write!(f, "unknown field `{name}`"),
            EngineError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "row arity mismatch: schema has {expected} fields, row has {got}"
                )
            }
            EngineError::TypeMismatch {
                field,
                expected,
                got,
            } => {
                write!(
                    f,
                    "type mismatch in field `{field}`: expected {expected}, got {got}"
                )
            }
            EngineError::InvalidWindow(msg) => write!(f, "invalid window: {msg}"),
            EngineError::InvalidAggregate(msg) => write!(f, "invalid aggregate: {msg}"),
            EngineError::InvalidPipeline(msg) => write!(f, "invalid pipeline: {msg}"),
            EngineError::ExecutorFailure(msg) => write!(f, "executor failure: {msg}"),
            EngineError::InvalidSpec(msg) => write!(f, "invalid spec: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = EngineError::TypeMismatch {
            field: "price".into(),
            expected: FieldType::Float,
            got: FieldType::Str,
        };
        let s = e.to_string();
        assert!(s.contains("price") && s.contains("float") && s.contains("str"));
    }

    #[test]
    fn implements_error_trait() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&EngineError::UnknownField("x".into()));
    }
}
