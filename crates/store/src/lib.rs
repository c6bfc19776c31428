//! # gbm-store
//!
//! The crash-safe persistence layer under the serving stack: the pieces a
//! [`ShardedIndex`](../gbm_serve/index/struct.ShardedIndex.html) needs to
//! survive a process death and come back serving the *exact same rankings*.
//! The crate is deliberately dependency-free — it speaks bytes, and
//! `gbm-serve`'s `persist` module owns the conversion to and from live
//! index/model/tokenizer types. The index image itself is the v2 artifact
//! (`gbm-artifact`, which builds on this crate's codec, crc and
//! [`Storage`]); this crate holds what every durable file shares.
//!
//! Three pieces:
//!
//! * [`Storage`] — file I/O as an injected capability, mirroring the
//!   serving layer's injected `Clock`: [`FileStorage`] in production,
//!   [`MemStorage`] for hermetic tests, and [`FaultStorage`] wrapping
//!   either to inject deterministic failures (clean append failures, short
//!   writes that tear a WAL tail, torn atomic writes, bit flips on read)
//!   so every recovery path is exercised by tests, not hoped about.
//!   [`Storage::write_atomic`] is the workspace's one atomic-replace
//!   implementation: checkpoints and published artifacts both land
//!   through it.
//! * [`codec`] + [`crc32`] — the bounds-checked little-endian byte codec
//!   and checksum the WAL and the artifact format are written in.
//! * [`Wal`] + [`read_wal`] — an append-only operation log of
//!   length-prefixed, crc-checksummed, sequence-numbered records
//!   ([`WalOp::Insert`] carries the embedding row, so replay needs no
//!   model). A torn tail — the bytes a crash mid-append leaves behind — is
//!   detected and dropped (reported, not silently swallowed); corruption
//!   *before* the tail is a typed error, never a wrong replay. Sequence
//!   numbers are contiguous, so a checkpoint taken at `last_seq = S` makes
//!   replay resumable (`seq > S`) and any gap between a checkpoint and its
//!   log is detected instead of served.
//!
//! Recovery (orchestrated by `gbm_serve::persist::recover`) is: load the
//! newest checkpoint generation that verifies, replay the WAL records past
//! its `last_seq`, stop at the torn tail. The contract, enforced by
//! fault-injection tests here and equivalence tests in `gbm-serve`: the
//! recovered index is rank-identical to a never-crashed replay of the same
//! durable op prefix, or recovery fails with a typed error — never a
//! silent wrong answer.

#![forbid(unsafe_code)]

pub mod codec;
pub mod crc;
pub mod error;
pub mod storage;
pub mod wal;

pub use crc::crc32;
pub use error::StoreError;
pub use storage::{FaultPlan, FaultStorage, FileStorage, MemStorage, Storage};
pub use wal::{read_wal, Wal, WalOp, WalReplay, WalState, WAL_FILE};
