//! The append-only operation log. Every mutation the server applies to
//! the index is first written here as a length-prefixed, crc-checksummed,
//! sequence-numbered record; recovery replays the records past the newest
//! checkpoint's `last_seq`.
//!
//! Torn-tail semantics: a crash mid-append leaves a prefix of the final
//! record on disk. [`read_wal`] detects that — a record extending past
//! EOF, or a checksum mismatch on the *final* record — and drops it,
//! reporting the dropped byte count. A checksum mismatch with more records
//! *after* it is different: durable history is corrupt, and that is a
//! typed [`StoreError::Checksum`], never a partial replay.
//!
//! Retry semantics: [`Wal::append`] may fail leaving a torn tail. The
//! writer remembers the durable length and repairs (truncates) the tail
//! before the next append, so a bounded retry loop in the server is safe —
//! records never interleave with torn garbage.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::codec::{Reader, Writer};
use crate::crc::crc32;
use crate::error::StoreError;
use crate::storage::Storage;

/// File name of the operation log inside a durability directory.
pub const WAL_FILE: &str = "wal.log";

const OP_INSERT: u8 = 1;
const OP_REMOVE: u8 = 2;

/// One logged index mutation. Inserts carry the embedding row, so replay
/// never needs the model.
#[derive(Clone, Debug, PartialEq)]
pub enum WalOp {
    /// Insert (or upsert) `id` with embedding `row`.
    Insert { id: u64, row: Vec<f32> },
    /// Remove `id` if present.
    Remove { id: u64 },
}

/// The result of reading a log: the decoded operations in order, plus how
/// many trailing bytes were a torn (dropped) tail.
#[derive(Debug)]
pub struct WalReplay {
    /// `(seq, op)` pairs, sequence numbers contiguous.
    pub ops: Vec<(u64, WalOp)>,
    /// Bytes of torn tail dropped from the end (0 for a clean log).
    pub torn_bytes: usize,
    /// Total bytes in the file (durable prefix = `bytes - torn_bytes`).
    pub bytes: usize,
}

impl WalReplay {
    /// The sequence number the next appended op should carry (1 for an
    /// empty log).
    pub fn next_seq(&self) -> u64 {
        self.ops.last().map(|(seq, _)| seq + 1).unwrap_or(1)
    }
}

fn encode_record(seq: u64, op: &WalOp) -> Vec<u8> {
    let mut payload = Writer::new();
    payload.u64(seq);
    match op {
        WalOp::Insert { id, row } => {
            payload.u8(OP_INSERT);
            payload.u64(*id);
            payload.u32(row.len() as u32);
            payload.f32_slice(row);
        }
        WalOp::Remove { id } => {
            payload.u8(OP_REMOVE);
            payload.u64(*id);
        }
    }
    let payload = payload.into_bytes();
    let mut rec = Writer::new();
    rec.u32(payload.len() as u32);
    rec.u32(crc32(&payload));
    rec.bytes(&payload);
    rec.into_bytes()
}

fn decode_payload(payload: &[u8]) -> Result<(u64, WalOp), StoreError> {
    let mut r = Reader::new(payload);
    let seq = r.u64("wal record seq")?;
    let tag = r.u8("wal record op tag")?;
    let id = r.u64("wal record id")?;
    let op = match tag {
        OP_INSERT => {
            let n = r.u32("wal insert row len")? as usize;
            WalOp::Insert {
                id,
                row: r.f32_vec(n, "wal insert row")?,
            }
        }
        OP_REMOVE => WalOp::Remove { id },
        other => {
            return Err(StoreError::Malformed {
                what: format!("wal record op tag {other}"),
            })
        }
    };
    if r.remaining() != 0 {
        return Err(StoreError::Malformed {
            what: format!("wal record has {} trailing bytes", r.remaining()),
        });
    }
    Ok((seq, op))
}

/// Reads and verifies the log at `path`. A missing file is an empty log.
/// Trailing bytes that do not form a complete, checksum-valid record are
/// a torn tail: dropped and counted, not an error. Anything wrong
/// *before* the tail — a mid-log checksum mismatch, an undecodable
/// payload, a sequence discontinuity — is a typed error.
pub fn read_wal(storage: &dyn Storage, path: &Path) -> Result<WalReplay, StoreError> {
    let bytes = if storage.exists(path) {
        storage.read(path)?
    } else {
        Vec::new()
    };
    let total = bytes.len();
    let mut ops: Vec<(u64, WalOp)> = Vec::new();
    let mut pos = 0usize;
    while pos < total {
        let start = pos;
        if total - pos < 8 {
            // partial record header: torn tail
            return Ok(WalReplay {
                ops,
                torn_bytes: total - start,
                bytes: total,
            });
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let want_crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        pos += 8;
        if len > total - pos {
            // record extends past EOF: torn tail
            return Ok(WalReplay {
                ops,
                torn_bytes: total - start,
                bytes: total,
            });
        }
        let payload = &bytes[pos..pos + len];
        pos += len;
        if crc32(payload) != want_crc {
            if pos == total {
                // checksum failure on the final record: torn tail
                return Ok(WalReplay {
                    ops,
                    torn_bytes: total - start,
                    bytes: total,
                });
            }
            return Err(StoreError::Checksum {
                what: format!("wal record at byte {start}"),
            });
        }
        let (seq, op) = decode_payload(payload)?;
        if let Some((prev, _)) = ops.last() {
            if seq != prev + 1 {
                return Err(StoreError::SeqGap {
                    expected: prev + 1,
                    found: seq,
                });
            }
        }
        ops.push((seq, op));
    }
    Ok(WalReplay {
        ops,
        torn_bytes: 0,
        bytes: total,
    })
}

/// A point-in-time description of the writer, surfaced through
/// `ServerReport` so a clean shutdown (everything synced) is
/// distinguishable from a dirty one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalState {
    /// Records appended through this writer.
    pub appended: u64,
    /// Sequence number the next append will carry.
    pub next_seq: u64,
    /// Records appended but not yet fsynced (0 = clean).
    pub unsynced: u64,
    /// Whether every append is followed by an fsync.
    pub fsync_each: bool,
    /// Append attempts that failed (each repaired before the next write).
    pub append_failures: u64,
    /// Cumulative wall time spent inside [`Wal::append`], microseconds
    /// (encode + storage write + any tail repair; fsync time is counted
    /// under [`sync_us`](Self::sync_us) even when `fsync_each` triggers
    /// it from inside an append).
    pub append_us: u64,
    /// Cumulative wall time spent inside [`Wal::sync`], microseconds.
    pub sync_us: u64,
}

/// The append side of the log. One writer owns a log file; the server's
/// mutation path tees every insert/remove through [`Wal::append`] before
/// touching the index (write-ahead: no op takes effect unless it is in
/// the log).
pub struct Wal {
    storage: Arc<dyn Storage>,
    path: PathBuf,
    fsync_each: bool,
    next_seq: u64,
    appended: u64,
    unsynced: u64,
    /// Length of the verified-good prefix; everything past it is torn.
    durable_len: u64,
    /// True when the last append may have left a torn tail.
    dirty: bool,
    append_failures: u64,
    /// Cumulative microseconds inside `append` (excluding fsync).
    append_us: u64,
    /// Cumulative microseconds inside `sync`.
    sync_us: u64,
}

impl Wal {
    /// Starts a fresh, empty log at `path` (atomically truncating any
    /// previous one — done right after a checkpoint compacts the log).
    pub fn create(
        storage: Arc<dyn Storage>,
        path: PathBuf,
        fsync_each: bool,
        next_seq: u64,
    ) -> Result<Wal, StoreError> {
        storage.write_atomic(&path, &[])?;
        Ok(Wal {
            storage,
            path,
            fsync_each,
            next_seq,
            appended: 0,
            unsynced: 0,
            durable_len: 0,
            dirty: false,
            append_failures: 0,
            append_us: 0,
            sync_us: 0,
        })
    }

    /// Resumes writing an existing log (or starts one if absent): reads
    /// and verifies it, truncates any torn tail, and positions the writer
    /// after the last valid record. Returns the replay so recovery does
    /// not read the log twice. `min_next_seq` floors the next sequence
    /// number (pass `checkpoint.last_seq + 1` so a log compacted after the
    /// checkpoint continues the numbering).
    pub fn resume(
        storage: Arc<dyn Storage>,
        path: PathBuf,
        fsync_each: bool,
        min_next_seq: u64,
    ) -> Result<(Wal, WalReplay), StoreError> {
        let replay = read_wal(storage.as_ref(), &path)?;
        let durable_len = (replay.bytes - replay.torn_bytes) as u64;
        if replay.torn_bytes > 0 {
            storage.truncate(&path, durable_len)?;
        } else if !storage.exists(&path) {
            storage.write_atomic(&path, &[])?;
        }
        let wal = Wal {
            storage,
            path,
            fsync_each,
            next_seq: replay.next_seq().max(min_next_seq),
            appended: 0,
            unsynced: 0,
            durable_len,
            dirty: false,
            append_failures: 0,
            append_us: 0,
            sync_us: 0,
        };
        Ok((wal, replay))
    }

    /// Appends `op` as the next record, repairing any torn tail a failed
    /// previous append left. Returns the record's sequence number. On
    /// error nothing logical changed (a torn tail may exist on disk; it
    /// is repaired before the next record) — safe to retry.
    pub fn append(&mut self, op: &WalOp) -> Result<u64, StoreError> {
        let start = std::time::Instant::now();
        let result = self.append_record(op);
        self.append_us += start.elapsed().as_micros() as u64;
        if result.is_ok() && self.fsync_each {
            self.sync()?;
        }
        result
    }

    /// The write half of [`append`](Self::append): tail repair + encode +
    /// storage append, timed as append work (fsync is timed separately).
    fn append_record(&mut self, op: &WalOp) -> Result<u64, StoreError> {
        if self.dirty {
            // a failed append may have persisted a prefix; cut it off
            if let Err(e) = self.storage.truncate(&self.path, self.durable_len) {
                self.append_failures += 1;
                return Err(e.into());
            }
            self.dirty = false;
        }
        let seq = self.next_seq;
        let rec = encode_record(seq, op);
        if let Err(e) = self.storage.append(&self.path, &rec) {
            self.append_failures += 1;
            self.dirty = true;
            return Err(e.into());
        }
        self.durable_len += rec.len() as u64;
        self.next_seq += 1;
        self.appended += 1;
        self.unsynced += 1;
        Ok(seq)
    }

    /// Flushes appended records to durable media.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        let start = std::time::Instant::now();
        let result = self.storage.sync(&self.path);
        self.sync_us += start.elapsed().as_micros() as u64;
        result?;
        self.unsynced = 0;
        Ok(())
    }

    /// The writer's current state (for `ServerReport`).
    pub fn state(&self) -> WalState {
        WalState {
            appended: self.appended,
            next_seq: self.next_seq,
            unsynced: self.unsynced,
            fsync_each: self.fsync_each,
            append_failures: self.append_failures,
            append_us: self.append_us,
            sync_us: self.sync_us,
        }
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{FaultPlan, FaultStorage, MemStorage};

    fn ops(n: u64) -> Vec<WalOp> {
        (0..n)
            .map(|i| {
                if i % 3 == 2 {
                    WalOp::Remove { id: i }
                } else {
                    WalOp::Insert {
                        id: i,
                        row: vec![i as f32, -1.0, 0.5 * i as f32],
                    }
                }
            })
            .collect()
    }

    #[test]
    fn append_then_read_roundtrips_in_order() {
        let storage = Arc::new(MemStorage::new());
        let path = PathBuf::from("/d/wal.log");
        let mut wal = Wal::create(
            Arc::clone(&storage) as Arc<dyn Storage>,
            path.clone(),
            false,
            1,
        )
        .unwrap();
        for op in ops(7) {
            wal.append(&op).unwrap();
        }
        assert_eq!(wal.state().appended, 7);
        assert_eq!(wal.state().next_seq, 8);
        assert_eq!(wal.state().unsynced, 7, "no fsync requested yet");
        wal.sync().unwrap();
        assert_eq!(wal.state().unsynced, 0);

        let replay = read_wal(storage.as_ref(), &path).unwrap();
        assert_eq!(replay.torn_bytes, 0);
        assert_eq!(
            replay.ops.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            (1..=7).collect::<Vec<_>>()
        );
        assert_eq!(
            replay
                .ops
                .iter()
                .map(|(_, op)| op.clone())
                .collect::<Vec<_>>(),
            ops(7)
        );
        assert_eq!(replay.next_seq(), 8);
    }

    #[test]
    fn missing_file_is_an_empty_log() {
        let storage = MemStorage::new();
        let replay = read_wal(&storage, Path::new("/d/wal.log")).unwrap();
        assert!(replay.ops.is_empty());
        assert_eq!(replay.next_seq(), 1);
        assert_eq!((replay.bytes, replay.torn_bytes), (0, 0));
    }

    #[test]
    fn torn_tails_are_dropped_and_counted_at_every_cut() {
        let storage = Arc::new(MemStorage::new());
        let path = PathBuf::from("/d/wal.log");
        let mut wal = Wal::create(
            Arc::clone(&storage) as Arc<dyn Storage>,
            path.clone(),
            false,
            1,
        )
        .unwrap();
        for op in ops(3) {
            wal.append(&op).unwrap();
        }
        let full = storage.read(&path).unwrap();
        let two = {
            let r = read_wal(storage.as_ref(), &path).unwrap();
            r.bytes - encode_record(3, &r.ops[2].1).len()
        };
        // cut the file at every length that clips the final record
        for cut in two + 1..full.len() {
            storage.write_atomic(&path, &full[..cut]).unwrap();
            let replay = read_wal(storage.as_ref(), &path).unwrap();
            assert_eq!(replay.ops.len(), 2, "cut at {cut}: 2 whole records survive");
            assert_eq!(replay.torn_bytes, cut - two, "cut at {cut}");
            assert_eq!(replay.next_seq(), 3);
        }
    }

    #[test]
    fn final_record_bitflip_is_a_torn_tail_but_midlog_is_corruption() {
        let storage = Arc::new(MemStorage::new());
        let path = PathBuf::from("/d/wal.log");
        let mut wal = Wal::create(
            Arc::clone(&storage) as Arc<dyn Storage>,
            path.clone(),
            false,
            1,
        )
        .unwrap();
        for op in ops(3) {
            wal.append(&op).unwrap();
        }
        let full = storage.read(&path).unwrap();

        // flip a payload bit in the FINAL record: recoverable torn tail
        let mut tail_flip = full.clone();
        let n = tail_flip.len();
        tail_flip[n - 1] ^= 0x10;
        storage.write_atomic(&path, &tail_flip).unwrap();
        let replay = read_wal(storage.as_ref(), &path).unwrap();
        assert_eq!(replay.ops.len(), 2);
        assert!(replay.torn_bytes > 0);

        // flip a payload bit in the FIRST record: durable history corrupt
        let mut head_flip = full.clone();
        head_flip[10] ^= 0x01; // inside record 1's payload
        storage.write_atomic(&path, &head_flip).unwrap();
        let err = read_wal(storage.as_ref(), &path).unwrap_err();
        assert!(matches!(err, StoreError::Checksum { .. }), "got {err}");
        assert!(err.is_corruption());
    }

    #[test]
    fn sequence_gaps_are_detected() {
        let storage = MemStorage::new();
        let path = Path::new("/d/wal.log");
        let mut bytes = encode_record(1, &WalOp::Remove { id: 1 });
        bytes.extend(encode_record(3, &WalOp::Remove { id: 3 })); // 2 is missing
        storage.write_atomic(path, &bytes).unwrap();
        let err = read_wal(&storage, path).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::SeqGap {
                    expected: 2,
                    found: 3
                }
            ),
            "got {err}"
        );
    }

    #[test]
    fn failed_append_repairs_the_tail_so_retry_is_safe() {
        let inner = Arc::new(MemStorage::new());
        let faulty = Arc::new(FaultStorage::new(Arc::clone(&inner) as Arc<dyn Storage>));
        let path = PathBuf::from("/d/wal.log");
        let mut wal = Wal::create(
            Arc::clone(&faulty) as Arc<dyn Storage>,
            path.clone(),
            false,
            1,
        )
        .unwrap();
        wal.append(&WalOp::Remove { id: 10 }).unwrap();

        // next append tears: 5 junk bytes land, call errors
        faulty.set_plan(FaultPlan {
            short_append: Some((1, 5)),
            ..Default::default()
        });
        let err = wal.append(&WalOp::Remove { id: 11 }).unwrap_err();
        assert!(matches!(err, StoreError::Io(_)));
        assert_eq!(wal.state().append_failures, 1);
        let torn = read_wal(inner.as_ref(), &path).unwrap();
        assert_eq!((torn.ops.len(), torn.torn_bytes), (1, 5));

        // retry: the writer truncates the torn bytes, then appends cleanly
        let seq = wal.append(&WalOp::Remove { id: 11 }).unwrap();
        assert_eq!(seq, 2, "retry reuses the failed record's seq");
        let replay = read_wal(inner.as_ref(), &path).unwrap();
        assert_eq!(replay.torn_bytes, 0);
        assert_eq!(
            replay.ops,
            vec![(1, WalOp::Remove { id: 10 }), (2, WalOp::Remove { id: 11 })]
        );
    }

    #[test]
    fn resume_truncates_torn_tail_and_continues_numbering() {
        let storage = Arc::new(MemStorage::new());
        let path = PathBuf::from("/d/wal.log");
        let mut wal = Wal::create(
            Arc::clone(&storage) as Arc<dyn Storage>,
            path.clone(),
            true,
            1,
        )
        .unwrap();
        for op in ops(4) {
            wal.append(&op).unwrap();
        }
        assert_eq!(wal.state().unsynced, 0, "fsync_each keeps the log clean");
        // crash leaves 3 junk bytes
        storage.append(&path, &[9, 9, 9]).unwrap();

        let (wal2, replay) = Wal::resume(
            Arc::clone(&storage) as Arc<dyn Storage>,
            path.clone(),
            true,
            1,
        )
        .unwrap();
        assert_eq!(replay.ops.len(), 4);
        assert_eq!(replay.torn_bytes, 3);
        assert_eq!(wal2.state().next_seq, 5);
        // the torn bytes are gone from disk
        let reread = read_wal(storage.as_ref(), &path).unwrap();
        assert_eq!((reread.ops.len(), reread.torn_bytes), (4, 0));

        // min_next_seq floors numbering after compaction
        storage.remove(&path).unwrap();
        let (wal3, replay3) =
            Wal::resume(Arc::clone(&storage) as Arc<dyn Storage>, path, true, 42).unwrap();
        assert!(replay3.ops.is_empty());
        assert_eq!(wal3.state().next_seq, 42);
    }
}
