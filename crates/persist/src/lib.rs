//! # uninet-persist — the durability plane
//!
//! A production embedding service cannot rebuild graph, sampler and
//! embedding state from scratch on every boot. This crate gives the engine a
//! durable footprint on disk, built from two halves:
//!
//! * **[`wal`]** — a write-ahead log of [`uninet_dyngraph::UpdateBatch`]es.
//!   Every batch the streaming pipeline applies is first appended as a
//!   length-prefixed, CRC-32-checksummed record, under a configurable
//!   [`FsyncPolicy`].
//! * **[`snapshot`]** — periodic binary snapshots of the full state: the
//!   compacted CSR graph, the last published embedding matrix, the sampler
//!   configuration (strategy + seed; M-H chains are rebuilt
//!   deterministically on recovery) and, as an opaque trailing section, the
//!   graph of the HNSW index that was serving that matrix — the one derived
//!   structure that costs more to rebuild than to read back.
//!
//! **[`recovery`]** ties them together: load the newest snapshot that
//! validates, truncate any torn WAL tail, replay the WAL suffix through the
//! same [`uninet_dyngraph::DynamicGraph`] apply semantics the live path
//! uses, and hand back a [`RecoveredState`]. The crate's property tests pin
//! the contract down: recovering after a crash at an arbitrary byte offset
//! yields exactly the state of an uninterrupted run over the durable prefix
//! (`restart == no-restart`).
//!
//! Everything on disk uses the hand-rolled little-endian codec in [`codec`]
//! — the workspace is vendored offline, so there is no serde.

use std::fmt;
use std::path::PathBuf;

pub mod codec;
pub mod recovery;
pub mod snapshot;
pub mod wal;

pub use recovery::{recover, RecoveredState};
pub use snapshot::{
    latest_valid_snapshot, list_snapshots, read_snapshot, write_snapshot,
    write_snapshot_with_index, LoadedSnapshot, SamplerState, Snapshot,
};
pub use wal::{read_wal, wal_path, FsyncPolicy, WalScan, WalWriter, WAL_FILE};

/// Errors of the durability plane.
#[derive(Debug)]
pub enum PersistError {
    /// An I/O operation on a WAL or snapshot file failed.
    Io {
        /// File the operation targeted.
        path: PathBuf,
        /// Underlying OS error.
        source: std::io::Error,
    },
    /// A file's contents are damaged beyond what a torn write explains.
    Corrupt {
        /// Damaged file.
        path: PathBuf,
        /// Byte offset where validation failed.
        offset: u64,
        /// What failed to validate.
        reason: String,
    },
    /// The directory holds no valid snapshot to recover from.
    NoState {
        /// Directory that was searched.
        dir: PathBuf,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { path, source } => {
                write!(f, "I/O error on {}: {source}", path.display())
            }
            PersistError::Corrupt {
                path,
                offset,
                reason,
            } => write!(
                f,
                "corrupt persist file {} at byte {offset}: {reason}",
                path.display()
            ),
            PersistError::NoState { dir } => write!(
                f,
                "no valid snapshot found in {} — nothing to recover",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}
