//! The daemon's error type: engine errors, transport errors and protocol /
//! configuration violations under one roof.

use quill_engine::error::EngineError;
use std::fmt;
use std::io;

/// Anything that can go wrong serving streams.
#[derive(Debug)]
pub enum ServeError {
    /// An unusable request or setting outside the plan text: an unknown
    /// query id, an unreachable address. (Strategy and query text that does
    /// not parse is [`EngineError::InvalidSpec`].)
    Config(String),
    /// A malformed wire frame or HTTP request.
    Protocol(String),
    /// An engine-level refusal (invalid query, denied plan, unknown id).
    Engine(EngineError),
    /// Transport failure.
    Io(io::Error),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Config(m) => write!(f, "config error: {m}"),
            ServeError::Protocol(m) => write!(f, "protocol error: {m}"),
            ServeError::Engine(e) => write!(f, "engine error: {e}"),
            ServeError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> ServeError {
        ServeError::Engine(e)
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

/// Shorthand result type.
pub type ServeResult<T> = Result<T, ServeError>;
