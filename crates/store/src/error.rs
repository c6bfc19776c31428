//! The typed failure vocabulary of the persistence layer. Every corrupt,
//! torn, or missing byte a recovery can encounter maps to one of these —
//! the crash-safety contract is "a typed error or the exact ranking",
//! never a silently wrong index.

use std::fmt;

/// Everything that can go wrong persisting or recovering serving state.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying storage failed (disk full, permission, injected
    /// fault, ...).
    Io(std::io::Error),
    /// Fewer bytes than the structure requires (a truncated section or
    /// header — distinct from a WAL torn *tail*, which is recoverable and
    /// reported via [`WalReplay::torn_bytes`](crate::WalReplay)).
    Truncated { what: &'static str },
    /// A section or record whose crc32 does not match its payload.
    Checksum { what: String },
    /// Bytes that pass their checksum but decode to an impossible
    /// structure (internal inconsistency — e.g. a row matrix whose length
    /// is not `ids × hidden`).
    Malformed { what: String },
    /// WAL sequence numbers are not contiguous — operations are missing
    /// between a checkpoint and its log (e.g. the newest checkpoint was
    /// lost after the WAL had been compacted past an older one).
    SeqGap { expected: u64, found: u64 },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "storage I/O error: {e}"),
            StoreError::Truncated { what } => write!(f, "truncated data: {what}"),
            StoreError::Checksum { what } => write!(f, "checksum mismatch: {what}"),
            StoreError::Malformed { what } => write!(f, "malformed data: {what}"),
            StoreError::SeqGap { expected, found } => write!(
                f,
                "WAL sequence gap: expected op {expected}, found {found} — \
                 operations are missing and the state cannot be reconstructed"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

impl StoreError {
    /// True for errors meaning "the bytes on disk are wrong" (vs. I/O
    /// failures reaching them) — what fault-injection tests assert when a
    /// corruption must be *detected*.
    pub fn is_corruption(&self) -> bool {
        matches!(
            self,
            StoreError::Truncated { .. }
                | StoreError::Checksum { .. }
                | StoreError::Malformed { .. }
                | StoreError::SeqGap { .. }
        )
    }
}
