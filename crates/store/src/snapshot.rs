//! Durable snapshot files: the serving layer's complete exported state,
//! schema-versioned and checksummed, written atomically.
//!
//! # On-disk format
//!
//! One file per snapshot, named `snap-<sequence>.bin` (the serving
//! layer's publish sequence, zero-padded):
//!
//! ```text
//! [magic: 8 bytes "INGSNAP1"] [schema: u32 LE] [payload_len: u64 LE]
//! [crc: u64 LE]  [payload: payload_len bytes]
//! payload = [wal_seq: u64 LE] [serving state: codec::encode_serving]
//! ```
//!
//! `crc` is FNV-1a over the payload. `wal_seq` is the last WAL sequence
//! number the state already reflects — recovery replays strictly later
//! records on top. Writes go through a temporary file plus rename, so a
//! crash mid-snapshot leaves the previous snapshot intact and at worst a
//! stray `*.tmp` that the next write overwrites.
//!
//! # Schema evolution
//!
//! `schema` is [`SCHEMA_VERSION`]. [`migrate_payload`] is the upgrade
//! hook: given an older on-disk schema it must rewrite the payload into
//! the current shape (today there is only version 1, so it is the
//! identity for current files and a loud [`StoreError::Schema`] for
//! anything else — newer *or* unknown older versions never decode as
//! garbage).

use crate::codec::{decode_serving, encode_serving};
use crate::{fnv1a, sync_dir, StoreError, FNV_OFFSET};
use ingrass::state::ServingState;
use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Snapshot-file magic.
pub const SNAP_MAGIC: [u8; 8] = *b"INGSNAP1";

/// Current snapshot payload schema.
pub const SCHEMA_VERSION: u32 = 1;

/// A snapshot loaded from disk.
#[derive(Debug)]
pub struct LoadedSnapshot {
    /// The serving-layer state the file carried.
    pub state: ServingState,
    /// Last WAL sequence number the state reflects.
    pub wal_seq: u64,
    /// The file it came from.
    pub path: PathBuf,
}

pub(crate) fn snapshot_path(dir: &Path, sequence: u64) -> PathBuf {
    dir.join(format!("snap-{sequence:020}.bin"))
}

/// The schema-migration hook: rewrites a payload written under an older
/// schema into the current shape.
///
/// # Errors
/// [`StoreError::Schema`] for schemas this build cannot read — future
/// versions, and past versions whose migration has not been written.
pub fn migrate_payload(schema: u32, payload: Vec<u8>) -> Result<Vec<u8>, StoreError> {
    match schema {
        SCHEMA_VERSION => Ok(payload),
        other => Err(StoreError::Schema {
            found: other,
            supported: SCHEMA_VERSION,
        }),
    }
}

/// Writes `state` as the snapshot for its own publish sequence,
/// atomically (tmp + rename), recording `wal_seq` as the WAL position it
/// reflects. With `sync`, both the file and the directory entry are
/// fsynced before this returns; failing to open or fsync either is a
/// [`StoreError::Io`].
///
/// Returns the final path.
pub fn write_snapshot(
    dir: &Path,
    state: &ServingState,
    wal_seq: u64,
    sync: bool,
) -> Result<PathBuf, StoreError> {
    fs::create_dir_all(dir)?;
    let mut payload = Vec::new();
    payload.extend_from_slice(&wal_seq.to_le_bytes());
    payload.extend_from_slice(&encode_serving(state));
    let crc = fnv1a(FNV_OFFSET, &payload);

    let mut bytes = Vec::with_capacity(28 + payload.len());
    bytes.extend_from_slice(&SNAP_MAGIC);
    bytes.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes.extend_from_slice(&payload);

    let path = snapshot_path(dir, state.sequence);
    let tmp = path.with_extension("tmp");
    {
        let mut f = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(&tmp)?;
        f.write_all(&bytes)?;
        if sync {
            f.sync_all()?;
        }
    }
    fs::rename(&tmp, &path)?;
    if sync {
        // Persist the rename itself.
        sync_dir(dir)?;
    }
    Ok(path)
}

/// Parses one snapshot file.
fn read_snapshot(path: &Path) -> Result<(ServingState, u64), StoreError> {
    let bytes = fs::read(path)?;
    let corrupt = |detail: String| StoreError::Corrupt {
        file: path.to_path_buf(),
        detail,
    };
    if bytes.len() < 28 || bytes[..8] != SNAP_MAGIC {
        return Err(corrupt("bad or missing snapshot magic".into()));
    }
    let schema = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    let payload_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    let crc = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
    let payload = bytes[28..].to_vec();
    if payload.len() as u64 != payload_len {
        return Err(corrupt(format!(
            "payload is {} bytes, header says {payload_len}",
            payload.len()
        )));
    }
    if fnv1a(FNV_OFFSET, &payload) != crc {
        return Err(corrupt("payload checksum mismatch".into()));
    }
    let payload = migrate_payload(schema, payload)?;
    if payload.len() < 8 {
        return Err(corrupt("payload too short for a WAL position".into()));
    }
    let wal_seq = u64::from_le_bytes(payload[..8].try_into().unwrap());
    let state = decode_serving(&payload[8..]).map_err(|e| corrupt(e.to_string()))?;
    Ok((state, wal_seq))
}

/// Lists snapshot files as `(sequence, path)`, ascending.
pub fn list_snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let mut snaps = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(num) = name
            .strip_prefix("snap-")
            .and_then(|s| s.strip_suffix(".bin"))
        {
            if let Ok(seq) = num.parse::<u64>() {
                snaps.push((seq, entry.path()));
            }
        }
    }
    snaps.sort_unstable();
    Ok(snaps)
}

/// Loads the newest *readable* snapshot: candidates are tried newest
/// first, and an unreadable one (schema this build cannot migrate, torn
/// or corrupt file) falls back to the next older — the WAL still covers
/// the difference as long as its segments survive, which
/// [`crate::wal::WalDir::open`] verifies. `Ok(None)` if the directory
/// holds no snapshot at all.
///
/// # Errors
/// Only filesystem failures; per-file damage is skipped, not fatal (the
/// fallback is the recovery, and a missing WAL tail will fail loudly at
/// replay).
pub fn load_latest(dir: &Path) -> Result<Option<LoadedSnapshot>, StoreError> {
    let mut snaps = list_snapshots(dir)?;
    snaps.reverse();
    for (_, path) in snaps {
        match read_snapshot(&path) {
            Ok((state, wal_seq)) => {
                return Ok(Some(LoadedSnapshot {
                    state,
                    wal_seq,
                    path,
                }))
            }
            Err(StoreError::Io(e)) => return Err(StoreError::Io(e)),
            Err(_) => continue,
        }
    }
    Ok(None)
}

/// Deletes every snapshot older than the newest `keep` (at least 1).
/// Returns the number removed.
pub fn prune_snapshots(dir: &Path, keep: usize) -> Result<usize, StoreError> {
    let snaps = list_snapshots(dir)?;
    let keep = keep.max(1);
    let mut removed = 0;
    if snaps.len() > keep {
        for (_, path) in &snaps[..snaps.len() - keep] {
            fs::remove_file(path)?;
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ingrass::{SetupConfig, SnapshotEngine};
    use ingrass_graph::Graph;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ingrass-snap-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_state() -> ServingState {
        let h0 = Graph::from_edges(
            6,
            &[
                (0, 1, 1.0),
                (1, 2, 2.0),
                (2, 3, 1.0),
                (3, 4, 0.5),
                (4, 5, 1.5),
                (5, 0, 1.0),
                (0, 3, 0.25),
            ],
        )
        .unwrap();
        SnapshotEngine::setup(&h0, &SetupConfig::default())
            .unwrap()
            .export_state()
    }

    #[test]
    fn snapshot_round_trips_bit_exactly() {
        let dir = tmpdir("roundtrip");
        let state = small_state();
        write_snapshot(&dir, &state, 17, false).unwrap();
        let loaded = load_latest(&dir).unwrap().expect("snapshot present");
        assert_eq!(loaded.wal_seq, 17);
        assert_eq!(loaded.state, state);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn newest_readable_snapshot_wins_and_corrupt_ones_fall_back() {
        let dir = tmpdir("fallback");
        let mut old_state = small_state();
        old_state.sequence = 1;
        write_snapshot(&dir, &old_state, 3, false).unwrap();
        let mut new_state = small_state();
        new_state.sequence = 2;
        let new_path = write_snapshot(&dir, &new_state, 9, false).unwrap();
        // Newest wins while intact…
        assert_eq!(load_latest(&dir).unwrap().unwrap().wal_seq, 9);
        // …and falls back to the older one when damaged.
        let mut bytes = fs::read(&new_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&new_path, &bytes).unwrap();
        let loaded = load_latest(&dir).unwrap().unwrap();
        assert_eq!(loaded.wal_seq, 3);
        assert_eq!(loaded.state, old_state);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_schema_is_refused_by_the_migration_hook() {
        let dir = tmpdir("schema");
        let state = small_state();
        let path = write_snapshot(&dir, &state, 1, false).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[8] = 0xEE; // schema field
        fs::write(&path, &bytes).unwrap();
        // load_latest skips it (no older snapshot → none at all)…
        assert!(load_latest(&dir).unwrap().is_none());
        // …and the hook itself reports the mismatch loudly.
        match migrate_payload(0xEE, vec![]) {
            Err(StoreError::Schema { found, supported }) => {
                assert_eq!(found, 0xEE);
                assert_eq!(supported, SCHEMA_VERSION);
            }
            other => panic!("expected schema error, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_keeps_the_newest() {
        let dir = tmpdir("prune");
        for seq in 1..=4 {
            let mut state = small_state();
            state.sequence = seq;
            write_snapshot(&dir, &state, seq, false).unwrap();
        }
        let removed = prune_snapshots(&dir, 2).unwrap();
        assert_eq!(removed, 2);
        let left: Vec<u64> = list_snapshots(&dir)
            .unwrap()
            .iter()
            .map(|(s, _)| *s)
            .collect();
        assert_eq!(left, vec![3, 4]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
