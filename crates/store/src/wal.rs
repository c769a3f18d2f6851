//! The write-ahead log: checksummed, length-prefixed record frames in
//! rotating segment files.
//!
//! # On-disk format
//!
//! Each segment file is named `wal-<start-seq>.log` (zero-padded so
//! lexical and numeric order agree) and starts with the 8-byte magic
//! `INGWAL01` — the trailing `01` is the format version. After the header
//! come frames, each:
//!
//! ```text
//! [len: u32 LE] [crc: u64 LE] [body: len bytes]
//! body = [seq: u64 LE] [kind: u8] [payload]
//! ```
//!
//! `crc` is FNV-1a over the body. `seq` numbers records contiguously from
//! 1 across all segments; a segment's first record carries the sequence
//! number in its file name. `kind` is [`WalRecord::Batch`] (payload =
//! [`crate::codec::encode_batch`]) or [`WalRecord::Resetup`] (empty
//! payload — an explicitly requested re-setup; *drift-triggered* re-setups
//! are not logged because replaying the batches reproduces them
//! deterministically).
//!
//! # Corruption policy
//!
//! A crash can tear only the tail of the *last* segment (frames are
//! appended and synced in order), so on open:
//!
//! * a malformed frame in the last segment — short header, length past
//!   end-of-file, checksum mismatch, or a non-contiguous sequence number —
//!   marks the **torn tail**: everything before it is served, the tail is
//!   truncated away on the next append;
//! * the same damage in any *earlier* segment cannot be a crash artifact
//!   and fails loudly with [`StoreError::Corrupt`] instead — silently
//!   dropping records from the middle of the log would replay a different
//!   history than the one that ran;
//! * a last segment shorter than the magic, whose bytes are a prefix of
//!   it, is a rotation torn before its header was whole: no record ever
//!   reached it, so the header is rewritten and appends continue there.

use crate::{fnv1a, sync_dir, StoreError, FNV_OFFSET};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Segment-file magic: `INGWAL` + 2-digit format version.
pub const WAL_MAGIC: [u8; 8] = *b"INGWAL01";

/// One recovered WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// An update batch: the config it ran under plus its operations.
    Batch {
        /// The batch's update configuration.
        cfg: ingrass::UpdateConfig,
        /// The batch's operations, in application order.
        ops: Vec<ingrass::UpdateOp>,
    },
    /// An explicitly requested re-setup
    /// ([`crate::PersistentEngine::resetup`]).
    Resetup,
}

const KIND_BATCH: u8 = 0;
const KIND_RESETUP: u8 = 1;

/// What [`WalDir::open`] recovered.
#[derive(Debug)]
pub struct WalLoad {
    /// Records with sequence numbers strictly greater than the requested
    /// floor, in order.
    pub records: Vec<(u64, WalRecord)>,
    /// The last sequence number present in the log (0 if empty).
    pub last_seq: u64,
    /// Bytes of torn tail dropped from the last segment (0 for a clean
    /// log).
    pub truncated_bytes: u64,
}

/// A WAL directory: the set of `wal-*.log` segments plus the append
/// position.
#[derive(Debug)]
pub struct WalDir {
    dir: PathBuf,
    /// Open handle to the active (last) segment.
    active: File,
    active_path: PathBuf,
    /// Byte length of the valid prefix of the active segment.
    active_len: u64,
    /// Last sequence number in the log.
    last_seq: u64,
    /// Set when a failed append could not be rolled back: the active
    /// segment may end in bytes no acknowledged record owns, so every
    /// later append is refused rather than written behind them.
    failed: bool,
}

fn segment_path(dir: &Path, start_seq: u64) -> PathBuf {
    dir.join(format!("wal-{start_seq:020}.log"))
}

/// Creates (or empties) the segment file `path` in `dir` and writes its
/// magic, synced together with `dir`'s entry for it, so records later
/// acknowledged into the segment cannot lose their file in a crash. A
/// crash inside this call leaves a last segment whose bytes are a prefix
/// of the magic, which [`WalDir::open`] finishes.
fn create_segment(dir: &Path, path: &Path) -> io::Result<File> {
    let mut file = OpenOptions::new()
        .create(true)
        .truncate(true)
        .read(true)
        .write(true)
        .open(path)?;
    file.write_all(&WAL_MAGIC)?;
    file.sync_all()?;
    sync_dir(dir)?;
    Ok(file)
}

/// Lists segment files as `(start_seq, path)`, ascending.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let mut segs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(num) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".log"))
        {
            if let Ok(seq) = num.parse::<u64>() {
                segs.push((seq, entry.path()));
            }
        }
    }
    segs.sort_unstable();
    Ok(segs)
}

/// A parsed frame: `(seq, kind, payload, end_offset)`.
struct Frame {
    seq: u64,
    kind: u8,
    payload: Vec<u8>,
    end: usize,
}

/// Parses the frame starting at `pos`; `None` means the bytes from `pos`
/// on do not form a whole, checksummed frame (torn or corrupt).
fn parse_frame(bytes: &[u8], pos: usize) -> Option<Frame> {
    let header_end = pos.checked_add(12)?;
    if header_end > bytes.len() {
        return None;
    }
    let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
    let crc = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap());
    let end = header_end.checked_add(len)?;
    if len < 9 || end > bytes.len() {
        return None;
    }
    let body = &bytes[header_end..end];
    if fnv1a(FNV_OFFSET, body) != crc {
        return None;
    }
    Some(Frame {
        seq: u64::from_le_bytes(body[..8].try_into().unwrap()),
        kind: body[8],
        payload: body[9..].to_vec(),
        end,
    })
}

fn decode_record(kind: u8, payload: &[u8]) -> Result<WalRecord, String> {
    match kind {
        KIND_BATCH => {
            let (cfg, ops) = crate::codec::decode_batch(payload).map_err(|e| e.to_string())?;
            Ok(WalRecord::Batch { cfg, ops })
        }
        KIND_RESETUP => {
            if payload.is_empty() {
                Ok(WalRecord::Resetup)
            } else {
                Err("re-setup marker carries a payload".into())
            }
        }
        k => Err(format!("unknown record kind {k}")),
    }
}

impl WalDir {
    /// Opens (creating if needed) the WAL in `dir`, scanning every segment
    /// and recovering the records after `after_seq` — the sequence number
    /// the caller's snapshot already covers.
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] for damage anywhere but the last segment's
    /// tail (see the module docs for the policy), a bad magic, or a
    /// sequence discontinuity between segments; [`StoreError::Io`] for
    /// filesystem failures.
    pub fn open(dir: &Path, after_seq: u64) -> Result<(Self, WalLoad), StoreError> {
        fs::create_dir_all(dir)?;
        let segs = list_segments(dir)?;
        let mut records = Vec::new();
        let mut last_seq = 0u64;
        let mut truncated_bytes = 0u64;
        let mut active = None;
        for (i, (start_seq, path)) in segs.iter().enumerate() {
            let is_last = i + 1 == segs.len();
            let bytes = fs::read(path)?;
            let corrupt = |detail: String| StoreError::Corrupt {
                file: path.clone(),
                detail,
            };
            let torn_header =
                is_last && bytes.len() < WAL_MAGIC.len() && WAL_MAGIC.starts_with(&bytes);
            if !torn_header && !bytes.starts_with(&WAL_MAGIC) {
                return Err(corrupt("bad or missing segment magic".into()));
            }
            let mut pos = WAL_MAGIC.len();
            let mut expected = *start_seq;
            if last_seq != 0 && *start_seq != last_seq + 1 {
                return Err(corrupt(format!(
                    "segment starts at seq {start_seq}, previous segment ended at {last_seq}"
                )));
            }
            // Compaction only ever deletes segments fully covered by the
            // snapshot, so the oldest surviving segment must start at or
            // before the first record to replay; starting later means
            // records are missing, not compacted.
            if i == 0 && *start_seq > after_seq + 1 {
                return Err(corrupt(format!(
                    "oldest segment starts at seq {start_seq} but replay needs seq {}",
                    after_seq + 1
                )));
            }
            while pos < bytes.len() {
                let frame = parse_frame(&bytes, pos).filter(|f| f.seq == expected);
                let Some(frame) = frame else {
                    if is_last {
                        // Torn tail: keep the valid prefix, drop the rest.
                        truncated_bytes = (bytes.len() - pos) as u64;
                        break;
                    }
                    return Err(corrupt(format!(
                        "corrupt frame at byte {pos} in a non-final segment"
                    )));
                };
                // A frame that checksums clean but does not decode was
                // written by a buggy or newer producer, not torn by a
                // crash — always loud.
                let record = decode_record(frame.kind, &frame.payload)
                    .map_err(|detail| corrupt(format!("record seq {expected}: {detail}")))?;
                if frame.seq > after_seq {
                    records.push((frame.seq, record));
                }
                last_seq = frame.seq;
                expected += 1;
                pos = frame.end;
            }
            if torn_header {
                active = Some((
                    create_segment(dir, path)?,
                    path.clone(),
                    WAL_MAGIC.len() as u64,
                ));
            } else if is_last {
                let valid_len = (bytes.len() as u64) - truncated_bytes;
                let mut file = OpenOptions::new().read(true).write(true).open(path)?;
                if truncated_bytes > 0 {
                    file.set_len(valid_len)?;
                    file.sync_all()?;
                }
                file.seek(SeekFrom::Start(valid_len))?;
                active = Some((file, path.clone(), valid_len));
            }
        }
        let (active, active_path, active_len) = match active {
            Some(a) => a,
            None => {
                // Empty log: start the first segment at seq 1.
                let path = segment_path(dir, after_seq + 1);
                (create_segment(dir, &path)?, path, WAL_MAGIC.len() as u64)
            }
        };
        let wal = WalDir {
            dir: dir.to_path_buf(),
            active,
            active_path,
            active_len,
            last_seq: last_seq.max(after_seq),
            failed: false,
        };
        let load = WalLoad {
            records,
            last_seq: wal.last_seq,
            truncated_bytes,
        };
        Ok((wal, load))
    }

    /// The last sequence number in the log.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Appends one record, assigning it the next sequence number. With
    /// `sync`, the frame is fsynced before this returns (write-ahead
    /// durability); without, the OS flushes at its leisure.
    ///
    /// Rotates to a fresh segment first when the active one has reached
    /// `segment_bytes`.
    ///
    /// # Errors
    /// [`StoreError::Io`] if the write or the fsync fails. The record is
    /// then not in the log: the bytes it already wrote are truncated away,
    /// and the next append takes the same sequence number at the same
    /// offset. If that rollback fails too, this and every later append on
    /// this `WalDir` fail without writing; reopening the directory drops
    /// the unacknowledged tail as a torn one.
    pub fn append(
        &mut self,
        record: &WalRecord,
        segment_bytes: u64,
        sync: bool,
    ) -> Result<u64, StoreError> {
        self.append_with(record, segment_bytes, sync, write_frame)
    }

    /// [`WalDir::append`] with the frame write factored out, so tests can
    /// inject short writes and fsync errors.
    pub(crate) fn append_with<W>(
        &mut self,
        record: &WalRecord,
        segment_bytes: u64,
        sync: bool,
        write: W,
    ) -> Result<u64, StoreError>
    where
        W: FnOnce(&mut File, &[u8], bool) -> io::Result<()>,
    {
        if self.failed {
            return Err(StoreError::Io(io::Error::other(
                "WAL refuses appends after a failed write it could not roll back",
            )));
        }
        if self.active_len >= segment_bytes.max(WAL_MAGIC.len() as u64 + 1) {
            self.rotate()?;
        }
        let seq = self.last_seq + 1;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&seq.to_le_bytes());
        match record {
            WalRecord::Batch { cfg, ops } => {
                bytes.push(KIND_BATCH);
                bytes.extend_from_slice(&crate::codec::encode_batch(cfg, ops));
            }
            WalRecord::Resetup => bytes.push(KIND_RESETUP),
        }
        let crc = fnv1a(FNV_OFFSET, &bytes);
        let mut frame = Vec::with_capacity(12 + bytes.len());
        frame.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc.to_le_bytes());
        frame.extend_from_slice(&bytes);
        if let Err(e) = write(&mut self.active, &frame, sync) {
            // Some of the frame may be on disk; cut it off so the next
            // record lands right after the last acknowledged one.
            let len = self.active_len;
            let rolled_back = self
                .active
                .set_len(len)
                .and_then(|()| self.active.seek(SeekFrom::Start(len)));
            self.failed = rolled_back.is_err();
            return Err(e.into());
        }
        self.active_len += frame.len() as u64;
        self.last_seq = seq;
        Ok(seq)
    }

    /// Closes the active segment and opens a fresh one starting at the
    /// next sequence number.
    fn rotate(&mut self) -> Result<(), StoreError> {
        self.active.sync_all()?;
        let path = segment_path(&self.dir, self.last_seq + 1);
        self.active = create_segment(&self.dir, &path)?;
        self.active_path = path;
        self.active_len = WAL_MAGIC.len() as u64;
        Ok(())
    }

    /// Deletes every segment whose records are all covered by a snapshot
    /// at `through_seq` — i.e. segments whose *successor's* start is still
    /// ≤ `through_seq + 1`. The active segment is never deleted. Returns
    /// the number of segments removed.
    pub fn compact(&mut self, through_seq: u64) -> Result<usize, StoreError> {
        let segs = list_segments(&self.dir)?;
        let mut removed = 0;
        for window in segs.windows(2) {
            let (_, path) = &window[0];
            let (next_start, _) = window[1];
            if next_start <= through_seq + 1 && *path != self.active_path {
                fs::remove_file(path)?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Number of segment files currently on disk.
    pub fn segment_count(&self) -> Result<usize, StoreError> {
        Ok(list_segments(&self.dir)?.len())
    }
}

/// The production frame write of [`WalDir::append`]: the whole frame, then
/// an fsync of its data when `sync` is set.
pub(crate) fn write_frame(file: &mut File, frame: &[u8], sync: bool) -> io::Result<()> {
    file.write_all(frame)?;
    if sync {
        file.sync_data()?;
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ingrass::{UpdateConfig, UpdateOp};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ingrass-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn batch(u: usize, v: usize) -> WalRecord {
        WalRecord::Batch {
            cfg: UpdateConfig::default(),
            ops: vec![UpdateOp::Insert { u, v, weight: 1.0 }],
        }
    }

    /// A frame write that fails after putting part of the frame on disk:
    /// half of it (a short write), or all of it (an fsync error).
    pub(crate) fn injected_fault(
        whole_frame: bool,
    ) -> impl FnOnce(&mut File, &[u8], bool) -> io::Result<()> {
        move |file, frame, _| {
            let written = if whole_frame {
                frame.len()
            } else {
                frame.len() / 2
            };
            file.write_all(&frame[..written])?;
            Err(io::Error::other("injected I/O fault"))
        }
    }

    #[test]
    fn failed_append_is_rolled_back_before_the_next_record() {
        // A 64-byte segment budget rotates after every record, so the
        // damage a failed write leaves behind would sit in a non-final
        // segment, where open refuses the whole store.
        for segment_bytes in [u64::MAX, 64] {
            for whole_frame in [false, true] {
                let dir = tmpdir(&format!("fault-{whole_frame}-{segment_bytes}"));
                let (mut wal, _) = WalDir::open(&dir, 0).unwrap();
                wal.append(&batch(0, 1), segment_bytes, true).unwrap();
                let failed = wal.append_with(
                    &batch(7, 8),
                    segment_bytes,
                    true,
                    injected_fault(whole_frame),
                );
                assert!(matches!(failed, Err(StoreError::Io(_))));
                assert_eq!(
                    wal.last_seq(),
                    1,
                    "a failed append takes no sequence number"
                );
                for k in 2..6 {
                    let seq = wal.append(&batch(k, k + 1), segment_bytes, true).unwrap();
                    assert_eq!(seq, k as u64);
                }
                drop(wal);
                let (_, load) = WalDir::open(&dir, 0).unwrap();
                let want: Vec<(u64, WalRecord)> = [(0, 1), (2, 3), (3, 4), (4, 5), (5, 6)]
                    .into_iter()
                    .enumerate()
                    .map(|(i, (u, v))| (i as u64 + 1, batch(u, v)))
                    .collect();
                assert_eq!(
                    load.records, want,
                    "whole_frame {whole_frame}, segment_bytes {segment_bytes}"
                );
                assert_eq!(load.truncated_bytes, 0);
                fs::remove_dir_all(&dir).unwrap();
            }
        }
    }

    #[test]
    fn append_after_a_failed_rollback_is_refused() {
        let dir = tmpdir("norollback");
        let (mut wal, _) = WalDir::open(&dir, 0).unwrap();
        wal.append(&batch(0, 1), u64::MAX, true).unwrap();
        let path = wal.active_path.clone();
        // The fault also leaves a read-only handle behind, so the
        // truncation that would undo the half-written frame fails too.
        let failed = wal.append_with(&batch(7, 8), u64::MAX, true, |file, frame, _| {
            file.write_all(&frame[..frame.len() / 2])?;
            *file = File::open(&path)?;
            Err(io::Error::other("injected I/O fault"))
        });
        assert!(failed.is_err());
        assert!(matches!(
            wal.append(&batch(2, 3), u64::MAX, true),
            Err(StoreError::Io(_))
        ));
        assert_eq!(wal.last_seq(), 1);
        drop(wal);
        // Reopening drops the unacknowledged half frame as a torn tail,
        // and appends resume after the last acknowledged record.
        let (mut wal, load) = WalDir::open(&dir, 0).unwrap();
        assert_eq!(load.records, vec![(1, batch(0, 1))]);
        assert!(load.truncated_bytes > 0);
        assert_eq!(wal.append(&batch(2, 3), u64::MAX, true).unwrap(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_reopen_replays_in_order() {
        let dir = tmpdir("replay");
        let (mut wal, load) = WalDir::open(&dir, 0).unwrap();
        assert_eq!(load.last_seq, 0);
        for k in 0..5 {
            let seq = wal.append(&batch(k, k + 1), u64::MAX, false).unwrap();
            assert_eq!(seq, k as u64 + 1);
        }
        drop(wal);
        let (_, load) = WalDir::open(&dir, 0).unwrap();
        assert_eq!(load.last_seq, 5);
        assert_eq!(load.truncated_bytes, 0);
        let seqs: Vec<u64> = load.records.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
        // Replay floor: only records after the snapshot's seq come back.
        let (_, load) = WalDir::open(&dir, 3).unwrap();
        let seqs: Vec<u64> = load.records.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![4, 5]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_splits_segments_and_replay_spans_them() {
        let dir = tmpdir("rotate");
        let (mut wal, _) = WalDir::open(&dir, 0).unwrap();
        // Tiny segment budget: every append lands in a fresh segment.
        for k in 0..6 {
            wal.append(&batch(k, k + 2), 16, false).unwrap();
        }
        assert!(wal.segment_count().unwrap() >= 3);
        drop(wal);
        let (_, load) = WalDir::open(&dir, 0).unwrap();
        assert_eq!(load.records.len(), 6);
        assert_eq!(load.last_seq, 6);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_resume() {
        let dir = tmpdir("torn");
        let (mut wal, _) = WalDir::open(&dir, 0).unwrap();
        for k in 0..3 {
            wal.append(&batch(k, k + 1), u64::MAX, false).unwrap();
        }
        let path = wal.active_path.clone();
        drop(wal);
        // Chop the last 5 bytes: record 3 is torn.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let (mut wal, load) = WalDir::open(&dir, 0).unwrap();
        assert_eq!(load.records.len(), 2);
        assert_eq!(load.last_seq, 2);
        assert!(load.truncated_bytes > 0);
        // The log keeps going from the truncation point.
        let seq = wal.append(&batch(9, 10), u64::MAX, false).unwrap();
        assert_eq!(seq, 3);
        drop(wal);
        let (_, load) = WalDir::open(&dir, 0).unwrap();
        assert_eq!(load.records.len(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Writes the segment starting at `next_seq` with only `len` bytes of
    /// its magic, as a rotation that crashed mid-header leaves it.
    pub(crate) fn torn_rotation(dir: &Path, next_seq: u64, len: usize) {
        fs::write(segment_path(dir, next_seq), &WAL_MAGIC[..len]).unwrap();
    }

    #[test]
    fn torn_rotation_header_is_finished_and_appends_resume() {
        for len in [0, 3] {
            let dir = tmpdir(&format!("tornmagic-{len}"));
            let (mut wal, _) = WalDir::open(&dir, 0).unwrap();
            wal.append(&batch(0, 1), u64::MAX, true).unwrap();
            wal.append(&batch(1, 2), u64::MAX, true).unwrap();
            drop(wal);
            torn_rotation(&dir, 3, len);
            let (mut wal, load) = WalDir::open(&dir, 0).unwrap();
            assert_eq!(load.records, vec![(1, batch(0, 1)), (2, batch(1, 2))]);
            assert_eq!(load.last_seq, 2);
            assert_eq!(wal.segment_count().unwrap(), 2);
            assert_eq!(wal.append(&batch(2, 3), u64::MAX, true).unwrap(), 3);
            drop(wal);
            let (_, load) = WalDir::open(&dir, 0).unwrap();
            let seqs: Vec<u64> = load.records.iter().map(|(s, _)| *s).collect();
            assert_eq!(seqs, vec![1, 2, 3], "{len}-byte torn header");
            assert_eq!(load.truncated_bytes, 0);
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn short_or_foreign_segment_headers_stay_corrupt() {
        // A short header before the last segment, a wrong prefix in the
        // last one, and a torn last segment that does not continue the
        // sequence are not what a torn rotation leaves.
        let cases: [(&str, &[u8], u64, bool); 3] = [
            ("nonfinal", &WAL_MAGIC[..3], 3, true),
            ("foreign", b"INGX", 3, false),
            ("gap", &WAL_MAGIC[..3], 4, false),
        ];
        for (tag, header, start, then_more) in cases {
            let dir = tmpdir(&format!("badmagic-{tag}"));
            let (mut wal, _) = WalDir::open(&dir, 0).unwrap();
            wal.append(&batch(0, 1), u64::MAX, true).unwrap();
            wal.append(&batch(1, 2), u64::MAX, true).unwrap();
            drop(wal);
            fs::write(segment_path(&dir, start), header).unwrap();
            if then_more {
                fs::write(segment_path(&dir, start + 1), WAL_MAGIC).unwrap();
            }
            match WalDir::open(&dir, 0) {
                Err(StoreError::Corrupt { .. }) => {}
                other => panic!("{tag}: expected Corrupt, got {other:?}"),
            }
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn corruption_in_a_non_final_segment_fails_loudly() {
        let dir = tmpdir("midcorrupt");
        let (mut wal, _) = WalDir::open(&dir, 0).unwrap();
        for k in 0..4 {
            wal.append(&batch(k, k + 1), 16, false).unwrap();
        }
        drop(wal);
        let segs = list_segments(&dir).unwrap();
        assert!(segs.len() >= 3);
        // Flip a payload byte in the middle segment.
        let (_, mid) = &segs[1];
        let mut bytes = fs::read(mid).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(mid, &bytes).unwrap();
        match WalDir::open(&dir, 0) {
            Err(StoreError::Corrupt { .. }) => {}
            other => panic!("mid-log corruption must fail loudly, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_drops_only_fully_covered_segments() {
        let dir = tmpdir("compact");
        let (mut wal, _) = WalDir::open(&dir, 0).unwrap();
        for k in 0..6 {
            wal.append(&batch(k, k + 1), 16, false).unwrap();
        }
        let before = wal.segment_count().unwrap();
        assert!(before >= 3);
        // Snapshot covers through seq 3: segments whose records are all
        // ≤ 3 go; later ones (and the active segment) stay.
        wal.compact(3).unwrap();
        let after = wal.segment_count().unwrap();
        assert!(after < before);
        drop(wal);
        let (_, load) = WalDir::open(&dir, 3).unwrap();
        let seqs: Vec<u64> = load.records.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![4, 5, 6], "post-snapshot records must survive");
        fs::remove_dir_all(&dir).unwrap();
    }
}
