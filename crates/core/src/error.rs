//! The workspace-wide typed error surface.
//!
//! Every fallible public entry point of the framework returns
//! [`UniNetError`]: per-crate error types (graph I/O, embedding I/O, update
//! stream parsing) convert into it via `From`, so `?` composes across crate
//! boundaries and callers get one enum to match on — no `Result<_, String>`
//! anywhere in the public API.

use uninet_dyngraph::StreamError;
use uninet_embedding::io::EmbeddingIoError;
use uninet_graph::GraphError;
use uninet_persist::PersistError;

/// Everything that can go wrong when building or driving an
/// [`Engine`](crate::Engine).
#[derive(Debug)]
pub enum UniNetError {
    /// A configuration value failed builder validation.
    InvalidConfig {
        /// The offending field (e.g. `walk.num_walks`).
        field: &'static str,
        /// Why the value was rejected.
        reason: String,
    },
    /// A command-line argument could not be interpreted.
    InvalidArgument {
        /// The flag (without the leading `--`).
        flag: String,
        /// Why the value was rejected.
        reason: String,
    },
    /// The engine is already running a streaming session or another
    /// exclusive operation.
    EngineBusy {
        /// The operation that was refused.
        operation: &'static str,
    },
    /// A past streaming session panicked and the engine's graph state was
    /// lost with it; the engine can still serve queries but can no longer
    /// train or stream.
    EnginePoisoned {
        /// The operation that was refused.
        operation: &'static str,
    },
    /// A streaming session thread panicked.
    StreamPanicked,
    /// Graph construction or graph I/O failed.
    Graph(GraphError),
    /// Embedding I/O failed.
    EmbeddingIo(EmbeddingIoError),
    /// Update-stream reading or parsing failed.
    Stream(StreamError),
    /// The durability plane failed: WAL, snapshot or recovery.
    Persist(PersistError),
    /// A bare I/O error outside the structured loaders.
    Io(std::io::Error),
}

impl UniNetError {
    /// Shorthand constructor for builder validation failures.
    pub fn invalid_config(field: &'static str, reason: impl Into<String>) -> Self {
        UniNetError::InvalidConfig {
            field,
            reason: reason.into(),
        }
    }

    /// Shorthand constructor for CLI argument failures.
    pub fn invalid_argument(flag: impl Into<String>, reason: impl Into<String>) -> Self {
        UniNetError::InvalidArgument {
            flag: flag.into(),
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for UniNetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UniNetError::InvalidConfig { field, reason } => {
                write!(f, "invalid configuration: {field}: {reason}")
            }
            UniNetError::InvalidArgument { flag, reason } => {
                write!(f, "invalid argument --{flag}: {reason}")
            }
            UniNetError::EngineBusy { operation } => {
                write!(
                    f,
                    "engine is busy with another exclusive operation (an active streaming \
                     session or batch run): cannot {operation}"
                )
            }
            UniNetError::EnginePoisoned { operation } => {
                write!(
                    f,
                    "a previous streaming session panicked and the engine state was lost: \
                     cannot {operation}"
                )
            }
            UniNetError::StreamPanicked => write!(f, "streaming session thread panicked"),
            UniNetError::Graph(e) => write!(f, "{e}"),
            UniNetError::EmbeddingIo(e) => write!(f, "{e}"),
            UniNetError::Stream(e) => write!(f, "{e}"),
            UniNetError::Persist(e) => write!(f, "{e}"),
            UniNetError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for UniNetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            UniNetError::Graph(e) => Some(e),
            UniNetError::EmbeddingIo(e) => Some(e),
            UniNetError::Stream(e) => Some(e),
            UniNetError::Persist(e) => Some(e),
            UniNetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for UniNetError {
    fn from(e: GraphError) -> Self {
        UniNetError::Graph(e)
    }
}

impl From<EmbeddingIoError> for UniNetError {
    fn from(e: EmbeddingIoError) -> Self {
        UniNetError::EmbeddingIo(e)
    }
}

impl From<StreamError> for UniNetError {
    fn from(e: StreamError) -> Self {
        UniNetError::Stream(e)
    }
}

impl From<PersistError> for UniNetError {
    fn from(e: PersistError) -> Self {
        UniNetError::Persist(e)
    }
}

impl From<std::io::Error> for UniNetError {
    fn from(e: std::io::Error) -> Self {
        UniNetError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        let e = UniNetError::invalid_config("embedding.dim", "must be positive (got 0)");
        assert_eq!(
            format!("{e}"),
            "invalid configuration: embedding.dim: must be positive (got 0)"
        );
        let e = UniNetError::invalid_argument("epochs", "expected an integer, got \"two\"");
        assert!(format!("{e}").contains("--epochs"));
        let e = UniNetError::EngineBusy { operation: "train" };
        assert!(format!("{e}").contains("busy"));
    }

    #[test]
    fn from_impls_preserve_sources() {
        use std::error::Error;
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: UniNetError = io.into();
        assert!(e.source().is_some());

        let stream_err =
            uninet_dyngraph::read_update_stream_validated("nonsense 0 1\n".as_bytes(), 2)
                .unwrap_err();
        let e: UniNetError = stream_err.into();
        assert!(matches!(e, UniNetError::Stream(_)));
        assert!(e.source().is_some());

        let graph_err = GraphError::MissingTypes("node type");
        let e: UniNetError = graph_err.into();
        assert!(format!("{e}").contains("node type"));
    }
}
