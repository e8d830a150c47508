//! The write-ahead log: an append-only file of checksummed `UpdateBatch`es.
//!
//! # File layout
//!
//! ```text
//! header   := "UNWL" u32:version
//! record   := u32:payload_len  u64:seq  u32:crc32(seq_le ++ payload)  payload
//! payload  := u32:count  mutation*
//! mutation := u8:op(0=add 1=remove 2=reweight)  u32:src  u32:dst  [f32:weight]
//!           | u8:op(3=addnode 4=rmnode)  u32:node
//! ```
//!
//! Version history: v1 carried edge ops only (opcodes 0–2); v2 added the
//! open-world node ops (opcodes 3–4). Readers accept both versions — a v1 log
//! written by an older build replays unchanged — while fresh logs are always
//! written at the current version.
//!
//! Sequence numbers start at 1 and are contiguous; a gap means the file was
//! tampered with. Two failure modes are deliberately distinguished:
//!
//! * **Torn tail** — the *final* frame is incomplete or fails its checksum
//!   (the classic power-loss signature). The tail is truncated and the log is
//!   otherwise usable.
//! * **Corrupted record** — a frame fails its checksum (or decodes to
//!   garbage) while *further frames follow it*. That cannot be a torn write,
//!   so the log is rejected with [`PersistError::Corrupt`] instead of
//!   silently dropping acknowledged data.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use uninet_dyngraph::{GraphMutation, UpdateBatch};

use crate::codec::{Crc32, Dec, DecodeError, Enc};
use crate::PersistError;

/// File name of the log inside a WAL directory.
pub const WAL_FILE: &str = "wal.log";

const WAL_MAGIC: [u8; 4] = *b"UNWL";
const WAL_VERSION: u32 = 2;
/// Oldest on-disk version [`read_wal`] still decodes.
const WAL_MIN_VERSION: u32 = 1;
const HEADER_LEN: u64 = 8;
/// Frame header: u32 len + u64 seq + u32 crc.
const FRAME_HEADER_LEN: usize = 16;
/// Sanity cap on a single record's payload (a batch of ~20M mutations).
const MAX_PAYLOAD_BYTES: u32 = 256 << 20;

/// When the log file is flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fsync` after every append — maximum durability, slowest.
    #[default]
    Always,
    /// `fsync` every N appends (and on close); a crash can lose < N batches.
    EveryN(u32),
    /// Never `fsync` explicitly; durability is whatever the OS page cache
    /// provides. Fastest, only for benchmarks and tests.
    Never,
}

/// Path of the log file inside `dir`.
pub fn wal_path(dir: &Path) -> PathBuf {
    dir.join(WAL_FILE)
}

fn io_err(path: &Path, source: std::io::Error) -> PersistError {
    PersistError::Io {
        path: path.to_path_buf(),
        source,
    }
}

fn corrupt(path: &Path, offset: u64, reason: impl Into<String>) -> PersistError {
    PersistError::Corrupt {
        path: path.to_path_buf(),
        offset,
        reason: reason.into(),
    }
}

/// Encodes one batch as a WAL record payload (without the frame header).
pub fn encode_batch(batch: &UpdateBatch) -> Vec<u8> {
    let mut e = Enc::with_capacity(4 + batch.len() * 13);
    e.u32(batch.len() as u32);
    for m in batch.mutations() {
        match *m {
            GraphMutation::AddEdge { src, dst, weight } => {
                e.u8(0);
                e.u32(src);
                e.u32(dst);
                e.f32(weight);
            }
            GraphMutation::RemoveEdge { src, dst } => {
                e.u8(1);
                e.u32(src);
                e.u32(dst);
            }
            GraphMutation::UpdateWeight { src, dst, weight } => {
                e.u8(2);
                e.u32(src);
                e.u32(dst);
                e.f32(weight);
            }
            GraphMutation::AddNode { node } => {
                e.u8(3);
                e.u32(node);
            }
            GraphMutation::RemoveNode { node } => {
                e.u8(4);
                e.u32(node);
            }
        }
    }
    e.into_bytes()
}

/// Decodes a WAL record payload back into a batch.
pub fn decode_batch(payload: &[u8]) -> Result<UpdateBatch, DecodeError> {
    let mut d = Dec::new(payload);
    let count = d.u32()? as usize;
    let mut mutations = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let op = d.u8()?;
        let m = match op {
            0 => {
                let src = d.u32()?;
                let dst = d.u32()?;
                GraphMutation::AddEdge {
                    src,
                    dst,
                    weight: d.f32()?,
                }
            }
            1 => GraphMutation::RemoveEdge {
                src: d.u32()?,
                dst: d.u32()?,
            },
            2 => {
                let src = d.u32()?;
                let dst = d.u32()?;
                GraphMutation::UpdateWeight {
                    src,
                    dst,
                    weight: d.f32()?,
                }
            }
            3 => GraphMutation::AddNode { node: d.u32()? },
            4 => GraphMutation::RemoveNode { node: d.u32()? },
            other => {
                return Err(DecodeError {
                    offset: d.offset(),
                    reason: format!("unknown mutation opcode {other}"),
                })
            }
        };
        mutations.push(m);
    }
    d.finish()?;
    Ok(UpdateBatch::from_mutations(mutations))
}

/// A frame's checksum: `crc32(seq_le ++ payload)`, without building that
/// concatenation.
fn frame_crc(seq: u64, payload: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(&seq.to_le_bytes());
    crc.update(payload);
    crc.finish()
}

/// Result of scanning a log file.
#[derive(Debug, Default)]
pub struct WalScan {
    /// Valid records in append order, as `(seq, batch)`.
    pub records: Vec<(u64, UpdateBatch)>,
    /// Sequence number of the last valid record (0 when the log is empty).
    pub last_seq: u64,
    /// Byte length of the valid prefix (header + intact frames).
    pub valid_len: u64,
    /// Bytes of torn tail found past the valid prefix (0 when the file ended
    /// cleanly on a frame boundary).
    pub torn_bytes: u64,
}

/// Reads and validates a log file.
///
/// A missing file yields an empty scan; a torn tail is reported (not an
/// error); mid-file corruption is rejected with [`PersistError::Corrupt`].
pub fn read_wal(path: &Path) -> Result<WalScan, PersistError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(WalScan::default()),
        Err(e) => return Err(io_err(path, e)),
    };
    if bytes.len() < HEADER_LEN as usize {
        return Err(corrupt(path, 0, "file shorter than the WAL header"));
    }
    if bytes[..4] != WAL_MAGIC {
        return Err(corrupt(path, 0, "bad magic (not a UniNet WAL)"));
    }
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if !(WAL_MIN_VERSION..=WAL_VERSION).contains(&version) {
        return Err(corrupt(
            path,
            4,
            format!("unsupported WAL version {version}"),
        ));
    }

    let mut scan = WalScan {
        valid_len: HEADER_LEN,
        ..WalScan::default()
    };
    let mut pos = HEADER_LEN as usize;
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if remaining < FRAME_HEADER_LEN {
            // Partial frame header: torn tail.
            break;
        }
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]]);
        let seq = u64::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
            bytes[pos + 8],
            bytes[pos + 9],
            bytes[pos + 10],
            bytes[pos + 11],
        ]);
        let crc = u32::from_le_bytes([
            bytes[pos + 12],
            bytes[pos + 13],
            bytes[pos + 14],
            bytes[pos + 15],
        ]);
        let frame_end = pos + FRAME_HEADER_LEN + len as usize;
        if len > MAX_PAYLOAD_BYTES || frame_end > bytes.len() {
            // The frame claims more bytes than the file holds: torn tail.
            break;
        }
        let payload = &bytes[pos + FRAME_HEADER_LEN..frame_end];
        if frame_crc(seq, payload) != crc {
            if frame_end == bytes.len() {
                // Checksum failure on the final frame: torn write.
                break;
            }
            return Err(corrupt(
                path,
                pos as u64,
                format!("record seq {seq} fails its checksum with records following it"),
            ));
        }
        if seq != scan.last_seq + 1 {
            return Err(corrupt(
                path,
                pos as u64,
                format!("sequence gap: expected {}, found {seq}", scan.last_seq + 1),
            ));
        }
        let batch = decode_batch(payload).map_err(|e| {
            corrupt(
                path,
                pos as u64 + FRAME_HEADER_LEN as u64 + e.offset as u64,
                e.reason,
            )
        })?;
        scan.records.push((seq, batch));
        scan.last_seq = seq;
        pos = frame_end;
        scan.valid_len = pos as u64;
    }
    scan.torn_bytes = bytes.len() as u64 - scan.valid_len;
    Ok(scan)
}

/// Appending handle over a WAL directory's log file.
///
/// Opening scans the existing log (if any), truncates a torn tail, and
/// continues the sequence where the valid prefix left off.
pub struct WalWriter {
    file: File,
    path: PathBuf,
    next_seq: u64,
    policy: FsyncPolicy,
    unsynced: u32,
    bytes_written: u64,
    truncated_tail: u64,
}

impl std::fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalWriter")
            .field("path", &self.path)
            .field("next_seq", &self.next_seq)
            .field("policy", &self.policy)
            .finish()
    }
}

impl WalWriter {
    /// Opens (or creates) the log inside `dir` for appending.
    pub fn open(dir: &Path, policy: FsyncPolicy) -> Result<Self, PersistError> {
        let path = wal_path(dir);
        let fresh = !path.exists();
        let (next_seq, truncated_tail) = if fresh {
            (1, 0)
        } else {
            let scan = read_wal(&path)?;
            if scan.torn_bytes > 0 {
                let f = OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| io_err(&path, e))?;
                f.set_len(scan.valid_len).map_err(|e| io_err(&path, e))?;
                f.sync_all().map_err(|e| io_err(&path, e))?;
            }
            (scan.last_seq + 1, scan.torn_bytes)
        };
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err(&path, e))?;
        if fresh {
            let mut header = Vec::with_capacity(HEADER_LEN as usize);
            header.extend_from_slice(&WAL_MAGIC);
            header.extend_from_slice(&WAL_VERSION.to_le_bytes());
            file.write_all(&header).map_err(|e| io_err(&path, e))?;
            file.sync_all().map_err(|e| io_err(&path, e))?;
        }
        let bytes_written = file.metadata().map_err(|e| io_err(&path, e))?.len();
        Ok(WalWriter {
            file,
            path,
            next_seq,
            policy,
            unsynced: 0,
            bytes_written,
            truncated_tail,
        })
    }

    /// Appends one batch, returning its sequence number.
    pub fn append(&mut self, batch: &UpdateBatch) -> Result<u64, PersistError> {
        let seq = self.next_seq;
        let payload = encode_batch(batch);
        let crc = frame_crc(seq, &payload);
        let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.extend_from_slice(&crc.to_le_bytes());
        frame.extend_from_slice(&payload);
        self.file
            .write_all(&frame)
            .map_err(|e| io_err(&self.path, e))?;
        self.bytes_written += frame.len() as u64;
        self.next_seq += 1;
        self.unsynced += 1;
        match self.policy {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::EveryN(n) => {
                if self.unsynced >= n.max(1) {
                    self.sync()?;
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(seq)
    }

    /// Forces buffered appends to stable storage.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        self.file.sync_all().map_err(|e| io_err(&self.path, e))?;
        self.unsynced = 0;
        Ok(())
    }

    /// Sequence number of the last appended (or recovered) record; 0 when the
    /// log is empty.
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Current size of the log file in bytes.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Bytes of torn tail discarded when the log was opened.
    pub fn truncated_tail(&self) -> u64 {
        self.truncated_tail
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(tag: u32) -> UpdateBatch {
        let mut b = UpdateBatch::new();
        b.add_edge(tag, tag + 1, tag as f32 * 0.5)
            .update_weight(tag + 1, tag, 2.0)
            .remove_edge(tag, tag + 2);
        b
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("uninet-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn batch_payload_round_trips() {
        let b = batch(7);
        let payload = encode_batch(&b);
        let back = decode_batch(&payload).unwrap();
        assert_eq!(back.mutations(), b.mutations());
    }

    #[test]
    fn node_ops_round_trip_through_the_log() {
        let mut b = UpdateBatch::new();
        b.add_node(12);
        b.add_edge(12, 3, 1.5);
        b.remove_node(7);
        let back = decode_batch(&encode_batch(&b)).unwrap();
        assert_eq!(back.mutations(), b.mutations());

        let dir = tmp_dir("node-ops");
        let mut w = WalWriter::open(&dir, FsyncPolicy::Always).unwrap();
        w.append(&b).unwrap();
        drop(w);
        let scan = read_wal(&wal_path(&dir)).unwrap();
        assert_eq!(scan.last_seq, 1);
        assert_eq!(scan.records[0].1.mutations(), b.mutations());
    }

    #[test]
    fn v1_logs_still_decode() {
        // Hand-assemble a version-1 log (edge opcodes only, as an old build
        // would have written) and check the current reader replays it.
        let dir = tmp_dir("v1-compat");
        let path = wal_path(&dir);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WAL_MAGIC);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        for (seq, tag) in [(1u64, 0u32), (2, 10)] {
            let payload = encode_batch(&batch(tag));
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&seq.to_le_bytes());
            bytes.extend_from_slice(&frame_crc(seq, &payload).to_le_bytes());
            bytes.extend_from_slice(&payload);
        }
        std::fs::write(&path, &bytes).unwrap();
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.last_seq, 2);
        assert_eq!(scan.torn_bytes, 0);
        assert_eq!(scan.records[1].1.mutations(), batch(10).mutations());
        // And the writer continues appending to it in place.
        let mut w = WalWriter::open(&dir, FsyncPolicy::Always).unwrap();
        assert_eq!(w.append(&batch(20)).unwrap(), 3);
        drop(w);
        assert_eq!(read_wal(&path).unwrap().last_seq, 3);

        // A version from the future is still rejected.
        let mut future = bytes.clone();
        future[4..8].copy_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &future).unwrap();
        assert!(matches!(read_wal(&path), Err(PersistError::Corrupt { .. })));
    }

    #[test]
    fn the_writer_produces_the_pinned_bytes() {
        // One frame of every opcode, as the writer with the byte-at-a-time
        // CRC over a `seq_le ++ payload` copy wrote it (commit 4e4941c).
        const GOLDEN: &str = concat!(
            "554e574c0200000031000000010000000000000003e011a60500000003030000",
            "000003000000000000000000a03f020000000001000000000000400101000000",
            "020000000402000000",
        );
        let golden: Vec<u8> = (0..GOLDEN.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&GOLDEN[i..i + 2], 16).unwrap())
            .collect();
        let dir = tmp_dir("golden");
        let mut b = UpdateBatch::new();
        b.add_node(3);
        b.add_edge(3, 0, 1.25)
            .update_weight(0, 1, 2.0)
            .remove_edge(1, 2);
        b.remove_node(2);
        let mut w = WalWriter::open(&dir, FsyncPolicy::Never).unwrap();
        w.append(&b).unwrap();
        drop(w);
        assert_eq!(std::fs::read(wal_path(&dir)).unwrap(), golden);
        let scan = read_wal(&wal_path(&dir)).unwrap();
        assert_eq!(scan.records[0].1.mutations(), b.mutations());
    }

    #[test]
    fn append_reopen_replay() {
        let dir = tmp_dir("reopen");
        let mut w = WalWriter::open(&dir, FsyncPolicy::Always).unwrap();
        assert_eq!(w.append(&batch(0)).unwrap(), 1);
        assert_eq!(w.append(&batch(10)).unwrap(), 2);
        drop(w);
        // Reopen continues the sequence.
        let mut w = WalWriter::open(&dir, FsyncPolicy::EveryN(8)).unwrap();
        assert_eq!(w.last_seq(), 2);
        assert_eq!(w.append(&batch(20)).unwrap(), 3);
        w.sync().unwrap();
        drop(w);
        let scan = read_wal(&wal_path(&dir)).unwrap();
        assert_eq!(scan.last_seq, 3);
        assert_eq!(scan.torn_bytes, 0);
        let seqs: Vec<u64> = scan.records.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        assert_eq!(scan.records[1].1.mutations(), batch(10).mutations());
    }

    #[test]
    fn torn_tail_is_truncated_on_reopen() {
        let dir = tmp_dir("torn");
        let mut w = WalWriter::open(&dir, FsyncPolicy::Never).unwrap();
        for i in 0..4 {
            w.append(&batch(i)).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let path = wal_path(&dir);
        // Chop the final record mid-payload: a torn write.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.last_seq, 3, "final record dropped as torn");
        assert!(scan.torn_bytes > 0);
        // Reopening truncates and keeps appending from seq 4.
        let mut w = WalWriter::open(&dir, FsyncPolicy::Always).unwrap();
        assert!(w.truncated_tail() > 0);
        assert_eq!(w.append(&batch(99)).unwrap(), 4);
        drop(w);
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.last_seq, 4);
        assert_eq!(scan.torn_bytes, 0);
        assert_eq!(scan.records[3].1.mutations(), batch(99).mutations());
    }

    #[test]
    fn corrupted_torn_checksum_on_final_record_is_torn_not_error() {
        let dir = tmp_dir("tail-crc");
        let mut w = WalWriter::open(&dir, FsyncPolicy::Always).unwrap();
        w.append(&batch(0)).unwrap();
        w.append(&batch(1)).unwrap();
        drop(w);
        let path = wal_path(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a bit in the final payload byte.
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.last_seq, 1, "damaged final record treated as torn");
        assert!(scan.torn_bytes > 0);
    }

    #[test]
    fn mid_file_corruption_is_rejected() {
        let dir = tmp_dir("midfile");
        let mut w = WalWriter::open(&dir, FsyncPolicy::Always).unwrap();
        for i in 0..3 {
            w.append(&batch(i)).unwrap();
        }
        drop(w);
        let path = wal_path(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload bit of the FIRST record (well before the tail).
        bytes[HEADER_LEN as usize + FRAME_HEADER_LEN + 2] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = read_wal(&path).unwrap_err();
        match err {
            PersistError::Corrupt { offset, .. } => assert_eq!(offset, HEADER_LEN),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn non_wal_file_is_rejected() {
        let dir = tmp_dir("magic");
        let path = wal_path(&dir);
        std::fs::write(&path, b"definitely not a wal").unwrap();
        assert!(matches!(read_wal(&path), Err(PersistError::Corrupt { .. })));
    }
}
