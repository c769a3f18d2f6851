//! **ingrass-store** — durable persistence for the inGRASS serving
//! engine: a versioned, checksummed write-ahead log of update batches
//! plus periodic schema-versioned snapshots of the complete serving
//! state, with crash recovery = newest readable snapshot + WAL-tail
//! replay.
//!
//! The crate splits into three layers:
//!
//! * [`codec`] — bit-exact little-endian encoding of the payload types
//!   (update batches, the exported [`ingrass::state::ServingState`]);
//! * [`wal`] / [`snapshot`] — the on-disk containers: length-prefixed,
//!   FNV-checksummed WAL frames in rotating segments (torn tails
//!   truncated, mid-log damage fatal), and atomically written snapshot
//!   files with a schema-migration hook;
//! * [`PersistentEngine`] — the public facade: write-ahead
//!   `apply_batch`, checkpoint cadence and compaction per
//!   [`StorePolicy`], and [`PersistentEngine::open`] recovery that
//!   reproduces the pre-crash engine bit-for-bit (the recovery parity
//!   suite pins `recover(crash_at_k) == run_straight(k)` at every batch
//!   prefix).

#![deny(missing_docs)]

pub mod codec;
mod engine;
pub mod snapshot;
pub mod wal;

pub use engine::{PersistentEngine, RecoveryReport, StorePolicy};

use std::path::{Path, PathBuf};

/// FNV-1a offset basis — the checksum seed used across WAL frames and
/// snapshot payloads (matching the in-memory snapshot checksum).
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, continuing from `h`.
pub(crate) fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Fsyncs a directory, so that entries created or renamed in it survive a
/// crash.
pub(crate) fn sync_dir(dir: &Path) -> std::io::Result<()> {
    std::fs::File::open(dir)?.sync_all()
}

/// Errors from the persistence layer.
#[derive(Debug)]
pub enum StoreError {
    /// A filesystem operation failed.
    Io(std::io::Error),
    /// On-disk bytes that should never exist given the write protocol:
    /// damage outside the last WAL segment's tail, missing WAL coverage,
    /// an unreadable store, or a replay that diverged.
    Corrupt {
        /// The offending file (or store directory).
        file: PathBuf,
        /// What was wrong with it.
        detail: String,
    },
    /// A snapshot carries a payload schema this build cannot migrate.
    Schema {
        /// Schema version found in the file.
        found: u32,
        /// Newest schema this build reads.
        supported: u32,
    },
    /// A [`StorePolicy`] or store-directory precondition failed.
    Config(String),
    /// The wrapped engine failed (setup, batch application, restore).
    Engine(ingrass::InGrassError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o: {e}"),
            StoreError::Corrupt { file, detail } => {
                write!(f, "corrupt store ({}): {detail}", file.display())
            }
            StoreError::Schema { found, supported } => write!(
                f,
                "snapshot schema {found} is not readable by this build (supports ≤ {supported})"
            ),
            StoreError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            StoreError::Engine(e) => write!(f, "engine: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<ingrass::InGrassError> for StoreError {
    fn from(e: ingrass::InGrassError) -> Self {
        StoreError::Engine(e)
    }
}

/// Folds persistence errors into the workspace-level error (the impl
/// lives here, next to [`StoreError`], because of the orphan rule — see
/// [`ingrass::IngrassError`]).
impl From<StoreError> for ingrass::IngrassError {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Engine(inner) => ingrass::IngrassError::Engine(inner),
            other => ingrass::IngrassError::Store(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_error_folds_into_the_workspace_error() {
        let e: ingrass::IngrassError = StoreError::Config("bad".into()).into();
        assert!(matches!(e, ingrass::IngrassError::Store(_)));
        assert!(e.to_string().contains("store"));
        let e: ingrass::IngrassError =
            StoreError::Engine(ingrass::InGrassError::InvalidConfig("x".into())).into();
        assert!(
            matches!(e, ingrass::IngrassError::Engine(_)),
            "engine errors keep their structure through the store layer"
        );
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // FNV-1a 64-bit reference values.
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x85944171f73967e8);
    }
}
