//! [`PersistentEngine`]: the durable serving engine.
//!
//! Wraps an [`ingrass::SnapshotEngine`] with write-ahead durability:
//! every state-changing call appends its operations to the
//! [WAL](crate::wal) *before* applying them, and the complete serving
//! state is periodically checkpointed as a [snapshot](crate::snapshot)
//! file. Recovery ([`PersistentEngine::open`]) loads the newest readable
//! snapshot and replays the WAL tail through the very same
//! `apply_batch`/`resetup` code paths that produced it — which, because
//! the engine is deterministic and snapshots are bit-exact state
//! captures, reproduces the pre-crash engine exactly (sparsifier edges,
//! factor values, ledger sums and all; only the process-unique
//! `instance_id` differs, by design).

use crate::snapshot::{load_latest, prune_snapshots, write_snapshot};
use crate::wal::{write_frame, WalDir, WalRecord};
use crate::StoreError;
use ingrass::{
    validate_batch, BatchPublishReport, PublishReport, SetupConfig, SnapshotEngine, SnapshotReader,
    UpdateConfig, UpdateOp,
};
use ingrass_graph::Graph;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Durability and checkpoint policy for a [`PersistentEngine`] —
/// the persistence-layer mirror of [`ingrass::FactorPolicy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorePolicy {
    /// Fsync every WAL append and snapshot write before returning
    /// (default `true`). `false` trades crash durability of the newest
    /// records for throughput — recovery then restores some clean prefix
    /// of the history instead of all of it.
    pub fsync: bool,
    /// Rotate to a fresh WAL segment once the active one reaches this many
    /// bytes (default 1 MiB). Smaller segments mean finer-grained
    /// compaction; each carries a fixed 8-byte header.
    pub segment_bytes: u64,
    /// Write a snapshot automatically after this many logged batches
    /// (default 64; 0 disables automatic snapshots — only
    /// [`PersistentEngine::snapshot_now`] checkpoints). The trade-off is
    /// recovery time against checkpoint cost: snapshots are `O(state)`,
    /// while every batch since the last snapshot is replayed on open.
    pub snapshot_every: u64,
    /// After a successful snapshot, delete WAL segments it fully covers
    /// and all but the newest two snapshot files (default `true`).
    pub compact_on_snapshot: bool,
}

impl Default for StorePolicy {
    fn default() -> Self {
        StorePolicy {
            fsync: true,
            segment_bytes: 1 << 20,
            snapshot_every: 64,
            compact_on_snapshot: true,
        }
    }
}

impl StorePolicy {
    /// Checks every field is inside its domain.
    ///
    /// # Errors
    /// [`StoreError::Config`] if `segment_bytes` is smaller than one
    /// segment header (9 bytes — nothing could ever be appended).
    pub fn validate(&self) -> Result<(), StoreError> {
        if self.segment_bytes < 9 {
            return Err(StoreError::Config(format!(
                "segment_bytes must be at least 9 (one header + one byte), got {}",
                self.segment_bytes
            )));
        }
        Ok(())
    }

    /// Returns the policy with [`StorePolicy::fsync`] replaced.
    pub fn with_fsync(mut self, fsync: bool) -> Self {
        self.fsync = fsync;
        self
    }

    /// Returns the policy with [`StorePolicy::segment_bytes`] replaced.
    pub fn with_segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes;
        self
    }

    /// Returns the policy with [`StorePolicy::snapshot_every`] replaced.
    pub fn with_snapshot_every(mut self, batches: u64) -> Self {
        self.snapshot_every = batches;
        self
    }
}

/// What [`PersistentEngine::open`] did to get back to the pre-crash
/// state.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Publish sequence of the snapshot recovery started from (0 if the
    /// store held no snapshot and recovery failed — never observed on a
    /// store created by [`PersistentEngine::create`]).
    pub snapshot_sequence: u64,
    /// WAL sequence number the snapshot already covered.
    pub snapshot_wal_seq: u64,
    /// Update batches replayed from the WAL tail.
    pub replayed_batches: u64,
    /// Explicit re-setup markers replayed.
    pub replayed_resetups: u64,
    /// Torn-tail bytes truncated from the last WAL segment.
    pub truncated_bytes: u64,
    /// Last WAL sequence number after recovery.
    pub wal_seq: u64,
    /// Wall seconds the whole recovery took (snapshot decode + replay).
    pub recover_seconds: f64,
}

/// A durable [`SnapshotEngine`]: WAL-logged updates, periodic snapshot
/// checkpoints, crash recovery on open.
///
/// # Write-ahead contract
///
/// [`PersistentEngine::apply_batch`] appends the batch to the WAL (fsync
/// per [`StorePolicy::fsync`]) **before** touching the engine, so every
/// state the in-memory engine ever reaches is reconstructible from disk.
/// Replay determinism is what makes the log sufficient: given the same
/// starting state and the same `(config, ops)` sequence, the engine makes
/// the same include/merge/redistribute decisions, journals the same
/// deltas, and patches the factor to the same bits — drift-triggered
/// re-setups included (they fire from replayed ledger sums and therefore
/// need no log record of their own; explicitly requested
/// [`PersistentEngine::resetup`] calls do get a marker).
///
/// # Example
///
/// ```no_run
/// use ingrass::{IngrassError, SetupConfig, UpdateConfig, UpdateOp};
/// use ingrass_graph::Graph;
/// use ingrass_store::{PersistentEngine, StorePolicy};
///
/// # fn main() -> Result<(), IngrassError> {
/// let h0 = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])?;
/// let dir = std::path::Path::new("/tmp/ingrass-demo-store");
/// let mut engine =
///     PersistentEngine::create(dir, &h0, &SetupConfig::default(), StorePolicy::default())?;
/// engine.apply_batch(&[UpdateOp::Insert { u: 0, v: 2, weight: 0.5 }], &UpdateConfig::default())?;
/// drop(engine); // …process dies…
///
/// let (recovered, report) = PersistentEngine::open(dir, StorePolicy::default())?;
/// assert_eq!(report.replayed_batches, 1);
/// assert_eq!(recovered.engine().engine().updates_applied(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PersistentEngine {
    dir: PathBuf,
    policy: StorePolicy,
    wal: WalDir,
    engine: SnapshotEngine,
    /// Batches logged since the last snapshot (drives
    /// [`StorePolicy::snapshot_every`]).
    batches_since_snapshot: u64,
    /// Automatic checkpoints that failed since this handle was made.
    checkpoint_failures: u64,
}

impl PersistentEngine {
    /// Runs engine setup on `h0` and initializes a fresh store in `dir`:
    /// an initial snapshot of the set-up state plus an empty WAL.
    ///
    /// # Errors
    /// [`StoreError::Config`] if `dir` already holds a store (open it
    /// instead — creating over history would orphan it) or the policy is
    /// invalid; engine setup and I/O errors as usual.
    pub fn create(
        dir: &Path,
        h0: &Graph,
        cfg: &SetupConfig,
        policy: StorePolicy,
    ) -> Result<Self, StoreError> {
        Self::create_from(dir, SnapshotEngine::setup(h0, cfg)?, policy)
    }

    /// Initializes a fresh store in `dir` around an engine the caller
    /// already configured (factor policy, pre-applied batches, …). The
    /// engine's current state becomes the initial snapshot; nothing
    /// applied before this call is in the WAL.
    ///
    /// # Errors
    /// As for [`PersistentEngine::create`].
    pub fn create_from(
        dir: &Path,
        engine: SnapshotEngine,
        policy: StorePolicy,
    ) -> Result<Self, StoreError> {
        policy.validate()?;
        std::fs::create_dir_all(dir)?;
        if !crate::snapshot::list_snapshots(dir)?.is_empty() {
            return Err(StoreError::Config(format!(
                "{} already holds a store — open it instead of creating over it",
                dir.display()
            )));
        }
        let (wal, load) = WalDir::open(dir, 0)?;
        if load.last_seq != 0 {
            return Err(StoreError::Config(format!(
                "{} already holds WAL records — open it instead of creating over it",
                dir.display()
            )));
        }
        write_snapshot(dir, &engine.export_state(), 0, policy.fsync)?;
        Ok(PersistentEngine {
            dir: dir.to_path_buf(),
            policy,
            wal,
            engine,
            batches_since_snapshot: 0,
            checkpoint_failures: 0,
        })
    }

    /// Recovers the engine from the store in `dir`: loads the newest
    /// readable snapshot, replays the WAL tail through the ordinary
    /// update path, and reports what happened.
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] if no snapshot is readable, if WAL records
    /// between the snapshot and the tail are missing or damaged (only the
    /// *final* segment's tail may be torn — that is the one a crash can
    /// tear), or if a replayed batch fails against the restored state;
    /// [`StoreError::Config`] for an invalid policy.
    pub fn open(dir: &Path, policy: StorePolicy) -> Result<(Self, RecoveryReport), StoreError> {
        let started = Instant::now();
        policy.validate()?;
        let snap = load_latest(dir)?.ok_or_else(|| StoreError::Corrupt {
            file: dir.to_path_buf(),
            detail: "no readable snapshot in store directory".into(),
        })?;
        let snapshot_sequence = snap.state.sequence;
        let snapshot_wal_seq = snap.wal_seq;
        let mut engine = SnapshotEngine::from_state(snap.state)?;
        let (wal, load) = WalDir::open(dir, snap.wal_seq)?;
        let mut replayed_batches = 0u64;
        let mut replayed_resetups = 0u64;
        for (seq, record) in &load.records {
            match record {
                WalRecord::Batch { cfg, ops } => {
                    engine
                        .apply_batch(ops, cfg)
                        .map_err(|e| StoreError::Corrupt {
                            file: dir.to_path_buf(),
                            detail: format!("replay of WAL record {seq} failed: {e}"),
                        })?;
                    replayed_batches += 1;
                }
                WalRecord::Resetup => {
                    engine.resetup().map_err(|e| StoreError::Corrupt {
                        file: dir.to_path_buf(),
                        detail: format!("replay of re-setup marker {seq} failed: {e}"),
                    })?;
                    replayed_resetups += 1;
                }
            }
        }
        let report = RecoveryReport {
            snapshot_sequence,
            snapshot_wal_seq,
            replayed_batches,
            replayed_resetups,
            truncated_bytes: load.truncated_bytes,
            wal_seq: load.last_seq,
            recover_seconds: started.elapsed().as_secs_f64(),
        };
        Ok((
            PersistentEngine {
                dir: dir.to_path_buf(),
                policy,
                wal,
                engine,
                batches_since_snapshot: replayed_batches + replayed_resetups,
                checkpoint_failures: 0,
            },
            report,
        ))
    }

    /// Logs the batch to the WAL, then applies it through the wrapped
    /// [`SnapshotEngine`] (publishing a fresh in-memory snapshot if state
    /// changed), then checkpoints if [`StorePolicy::snapshot_every`] is
    /// due.
    ///
    /// Empty batches are not logged — they cannot change state, so replay
    /// without them is identical.
    ///
    /// # Errors
    /// A batch the engine would refuse ([`ingrass::validate_batch`]: an
    /// out-of-range id, a self-loop, a weight that is not finite and
    /// positive, `target_condition < 2`) returns [`StoreError::Engine`]
    /// before anything is logged, so it never reaches replay. An I/O
    /// error while logging leaves the engine untouched (the write is
    /// ahead of the apply). `Ok` means the batch is logged and applied,
    /// so an `Err` is always safe to retry. A failed automatic
    /// checkpoint does not fail the call: it counts in
    /// [`PersistentEngine::checkpoint_failures`], and when the snapshot
    /// itself was not written the checkpoint stays due, so the next
    /// logged record tries it again.
    pub fn apply_batch(
        &mut self,
        ops: &[UpdateOp],
        cfg: &UpdateConfig,
    ) -> Result<BatchPublishReport, StoreError> {
        self.apply_batch_with(ops, cfg, write_frame)
    }

    /// [`PersistentEngine::apply_batch`] with the WAL's frame write
    /// factored out, so tests can inject I/O faults.
    fn apply_batch_with<W>(
        &mut self,
        ops: &[UpdateOp],
        cfg: &UpdateConfig,
        write: W,
    ) -> Result<BatchPublishReport, StoreError>
    where
        W: FnOnce(&mut File, &[u8], bool) -> std::io::Result<()>,
    {
        validate_batch(ops, cfg, self.engine.engine().sparsifier().num_nodes())?;
        if ops.is_empty() {
            return Ok(self.engine.apply_batch(ops, cfg)?);
        }
        self.wal.append_with(
            &WalRecord::Batch {
                cfg: cfg.clone(),
                ops: ops.to_vec(),
            },
            self.policy.segment_bytes,
            self.policy.fsync,
            write,
        )?;
        let report = self.engine.apply_batch(ops, cfg)?;
        self.note_logged();
        Ok(report)
    }

    /// Logs an explicit re-setup marker, then re-runs engine setup from
    /// the live sparsifier (drift-*triggered* re-setups inside
    /// [`PersistentEngine::apply_batch`] need no marker — replay re-fires
    /// them from the ledger).
    ///
    /// # Errors
    /// As for [`ingrass::SnapshotEngine::resetup`], plus I/O while
    /// logging. A failed automatic checkpoint is counted, not returned, as
    /// for [`PersistentEngine::apply_batch`].
    pub fn resetup(&mut self) -> Result<PublishReport, StoreError> {
        self.wal.append(
            &WalRecord::Resetup,
            self.policy.segment_bytes,
            self.policy.fsync,
        )?;
        let report = self.engine.resetup()?;
        self.note_logged();
        Ok(report)
    }

    /// Bookkeeping after a logged and applied record: counts toward the
    /// snapshot cadence and checkpoints when due. The record is durable in
    /// the WAL either way, so a failed checkpoint is counted rather than
    /// returned; a failed snapshot write leaves the cadence counter as it
    /// is, so the next logged record retries it.
    fn note_logged(&mut self) {
        self.batches_since_snapshot += 1;
        if self.policy.snapshot_every > 0
            && self.batches_since_snapshot >= self.policy.snapshot_every
            && self.snapshot_now().is_err()
        {
            self.checkpoint_failures += 1;
        }
    }

    /// Checkpoints the current serving state as a durable snapshot and —
    /// per [`StorePolicy::compact_on_snapshot`] — compacts WAL segments
    /// the snapshot covers and prunes old snapshot files (the newest two
    /// are kept so a torn checkpoint always has a fallback).
    ///
    /// Returns the snapshot file path.
    ///
    /// # Errors
    /// I/O errors of the snapshot write, the WAL compaction or the
    /// snapshot pruning.
    pub fn snapshot_now(&mut self) -> Result<PathBuf, StoreError> {
        let path = write_snapshot(
            &self.dir,
            &self.engine.export_state(),
            self.wal.last_seq(),
            self.policy.fsync,
        )?;
        self.batches_since_snapshot = 0;
        if self.policy.compact_on_snapshot {
            self.wal.compact(self.wal.last_seq())?;
            prune_snapshots(&self.dir, 2)?;
        }
        Ok(path)
    }

    /// A reader subscription to the wrapped engine's published snapshots
    /// (in-memory [`ingrass::SparsifierSnapshot`]s, not snapshot files).
    pub fn reader(&self) -> SnapshotReader {
        self.engine.reader()
    }

    /// Read access to the wrapped serving engine. Intentionally no
    /// `engine_mut`: every mutation must flow through
    /// [`PersistentEngine::apply_batch`] / [`PersistentEngine::resetup`]
    /// so no state change can escape the log.
    pub fn engine(&self) -> &SnapshotEngine {
        &self.engine
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The policy in effect.
    pub fn policy(&self) -> StorePolicy {
        self.policy
    }

    /// Last WAL sequence number appended.
    pub fn wal_seq(&self) -> u64 {
        self.wal.last_seq()
    }

    /// Automatic checkpoints (the ones [`StorePolicy::snapshot_every`]
    /// makes due) that failed since this handle was created or opened.
    /// The records they would have covered stay recoverable from the WAL,
    /// and a checkpoint whose snapshot was not written stays due.
    pub fn checkpoint_failures(&self) -> u64 {
        self.checkpoint_failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{list_snapshots, snapshot_path};
    use crate::wal::tests::{injected_fault, torn_rotation};

    fn insert(u: usize, v: usize, weight: f64) -> UpdateOp {
        UpdateOp::Insert { u, v, weight }
    }

    #[test]
    fn recovery_after_a_failed_append_matches_the_live_engine() {
        let n = 24;
        let edges: Vec<(usize, usize, f64)> = (0..n)
            .map(|i| (i, (i + 1) % n, 1.0 + (i % 3) as f64))
            .collect();
        let h0 = Graph::from_edges(n, &edges).unwrap();
        let ucfg = UpdateConfig::default();
        for whole_frame in [false, true] {
            let dir = std::env::temp_dir().join(format!(
                "ingrass-engine-fault-{whole_frame}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            // No automatic checkpoints: recovery must replay every record.
            let policy = StorePolicy::default().with_snapshot_every(0);
            let mut live =
                PersistentEngine::create(&dir, &h0, &SetupConfig::default(), policy).unwrap();
            live.apply_batch(&[insert(0, 5, 1.5)], &ucfg).unwrap();
            let version = live.engine().engine().version();
            let failed =
                live.apply_batch_with(&[insert(1, 9, 2.0)], &ucfg, injected_fault(whole_frame));
            assert!(matches!(failed, Err(StoreError::Io(_))));
            assert_eq!(
                live.engine().engine().version(),
                version,
                "a batch that was not logged is not applied"
            );
            live.apply_batch(&[insert(2, 14, 0.5)], &ucfg).unwrap();
            live.apply_batch(&[UpdateOp::Delete { u: 0, v: 5 }], &ucfg)
                .unwrap();
            let (wal_seq, state) = (live.wal_seq(), live.engine().export_state());
            drop(live);

            let (recovered, report) = PersistentEngine::open(&dir, policy).unwrap();
            assert_eq!(report.wal_seq, wal_seq, "whole_frame {whole_frame}");
            assert_eq!(report.replayed_batches, 3);
            assert_eq!(report.truncated_bytes, 0);
            assert_eq!(recovered.engine().export_state(), state);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn a_rejected_batch_is_not_logged_and_the_store_reopens() {
        let n = 36;
        let edges: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect();
        let h0 = Graph::from_edges(n, &edges).unwrap();
        let ucfg = UpdateConfig::default();
        let policy = StorePolicy::default().with_snapshot_every(0);
        let dir =
            std::env::temp_dir().join(format!("ingrass-engine-reject-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut live =
            PersistentEngine::create(&dir, &h0, &SetupConfig::default(), policy).unwrap();
        live.apply_batch(&[insert(0, 5, 1.5)], &ucfg).unwrap();
        let wal_seq = live.wal_seq();
        let rejected = live.apply_batch(&[insert(2, 41, 1.0)], &ucfg);
        assert!(matches!(
            rejected,
            Err(StoreError::Engine(ingrass::InGrassError::Graph(_)))
        ));
        assert_eq!(live.wal_seq(), wal_seq, "a refused batch is not logged");
        live.apply_batch(&[insert(3, 17, 1.0)], &ucfg).unwrap();
        let (wal_seq, state) = (live.wal_seq(), live.engine().export_state());
        drop(live);

        let (recovered, report) = PersistentEngine::open(&dir, policy).unwrap();
        assert_eq!(report.wal_seq, wal_seq);
        assert_eq!(report.replayed_batches, 2);
        assert_eq!(recovered.engine().export_state(), state);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_torn_rotation_header_does_not_refuse_the_store() {
        let n = 24;
        let edges: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect();
        let h0 = Graph::from_edges(n, &edges).unwrap();
        let ucfg = UpdateConfig::default();
        let policy = StorePolicy::default().with_snapshot_every(0);
        for len in [0, 3] {
            let dir = std::env::temp_dir().join(format!(
                "ingrass-engine-tornmagic-{len}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let mut live =
                PersistentEngine::create(&dir, &h0, &SetupConfig::default(), policy).unwrap();
            live.apply_batch(&[insert(0, 5, 1.5)], &ucfg).unwrap();
            live.apply_batch(&[insert(2, 14, 0.5)], &ucfg).unwrap();
            let (wal_seq, state) = (live.wal_seq(), live.engine().export_state());
            drop(live);
            torn_rotation(&dir, wal_seq + 1, len);

            let (mut recovered, report) = PersistentEngine::open(&dir, policy).unwrap();
            assert_eq!(report.wal_seq, wal_seq, "{len}-byte torn header");
            assert_eq!(report.replayed_batches, 2);
            assert_eq!(recovered.engine().export_state(), state);
            recovered.apply_batch(&[insert(3, 17, 1.0)], &ucfg).unwrap();
            let state = recovered.engine().export_state();
            drop(recovered);
            let (reopened, report) = PersistentEngine::open(&dir, policy).unwrap();
            assert_eq!(report.replayed_batches, 3);
            assert_eq!(reopened.engine().export_state(), state);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn a_failed_checkpoint_keeps_the_batch_and_retries() {
        let n = 24;
        let edges: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect();
        let h0 = Graph::from_edges(n, &edges).unwrap();
        let ucfg = UpdateConfig::default();
        let policy = StorePolicy::default().with_snapshot_every(2);
        let dir =
            std::env::temp_dir().join(format!("ingrass-engine-ckpt-fail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut live =
            PersistentEngine::create(&dir, &h0, &SetupConfig::default(), policy).unwrap();
        live.apply_batch(&[insert(0, 5, 1.5)], &ucfg).unwrap();
        // The second batch publishes sequence `publishes() + 1` and makes
        // its snapshot due; a directory squatting on that snapshot's
        // temporary file makes the write fail.
        let blocker = snapshot_path(&dir, live.engine().publishes() + 1).with_extension("tmp");
        std::fs::create_dir(&blocker).unwrap();
        let wal_seq = live.wal_seq();
        live.apply_batch(&[insert(2, 14, 0.5)], &ucfg)
            .expect("a logged and applied batch reports success");
        assert_eq!(live.wal_seq(), wal_seq + 1);
        assert_eq!(live.checkpoint_failures(), 1);

        std::fs::remove_dir(&blocker).unwrap();
        live.apply_batch(&[insert(3, 17, 1.0)], &ucfg).unwrap();
        assert_eq!(live.checkpoint_failures(), 1);
        assert!(
            snapshot_path(&dir, live.engine().publishes()).exists(),
            "the checkpoint still due retries after the next record"
        );
        let state = live.engine().export_state();
        drop(live);

        let (recovered, report) = PersistentEngine::open(&dir, policy).unwrap();
        assert_eq!(report.replayed_batches, 0);
        assert_eq!(recovered.engine().export_state(), state);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Setup durations export as zero, so two runs of one history write
    /// the same files: every snapshot and every WAL segment.
    #[test]
    fn one_history_writes_byte_identical_stores() {
        let h0 = ingrass_gen::grid_2d(
            12,
            12,
            ingrass_gen::WeightModel::Uniform { lo: 0.5, hi: 2.0 },
            7,
        );
        let batches: Vec<Vec<UpdateOp>> = (0..6usize)
            .map(|k| {
                let mut ops = vec![insert(k, 100 + 7 * k, 1.0 + k as f64 * 0.25)];
                if k >= 3 {
                    ops.push(UpdateOp::Delete {
                        u: k - 3,
                        v: 79 + 7 * k,
                    });
                }
                ops
            })
            .collect();
        let policy = StorePolicy::default()
            .with_fsync(false)
            .with_snapshot_every(2);
        let write = |tag: &str| {
            let dir = std::env::temp_dir()
                .join(format!("ingrass-engine-bytes-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let mut store =
                PersistentEngine::create(&dir, &h0, &SetupConfig::default(), policy).unwrap();
            for (k, ops) in batches.iter().enumerate() {
                store.apply_batch(ops, &UpdateConfig::default()).unwrap();
                if k == 2 {
                    store.resetup().unwrap();
                }
            }
            assert!(list_snapshots(&dir).unwrap().len() >= 2);
            let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|entry| {
                    let path = entry.unwrap().path();
                    let name = path.file_name().unwrap().to_string_lossy().into_owned();
                    (name, std::fs::read(&path).unwrap())
                })
                .collect();
            files.sort();
            std::fs::remove_dir_all(&dir).unwrap();
            files
        };
        let (a, b) = (write("a"), write("b"));
        assert_eq!(a.len(), b.len());
        for ((name, x), (other, y)) in a.iter().zip(&b) {
            assert_eq!(name, other);
            assert!(x == y, "{name} differs between two runs of one history");
        }
    }
}
