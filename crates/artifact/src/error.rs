//! Typed failures for artifact encoding, mapping, and parsing. Corrupt or
//! foreign bytes must fail loudly and gracefully — a reader process polling
//! a publish directory sees half-written files as errors, never as panics
//! or silently wrong rankings.

use std::fmt;

/// Everything that can go wrong opening or validating an artifact.
#[derive(Debug)]
pub enum ArtifactError {
    /// Filesystem-level failure (open, read, map).
    Io(std::io::Error),
    /// The buffer ends before a required structure.
    Truncated {
        /// What was being read.
        what: &'static str,
    },
    /// Structurally invalid bytes (bad magic, inconsistent lengths,
    /// out-of-range indices).
    Malformed {
        /// What failed validation.
        what: String,
    },
    /// A crc32 mismatch in the header, TOC, or a payload section.
    Checksum {
        /// Which checksum failed.
        what: String,
    },
    /// A format version this reader does not speak.
    Version {
        /// The version the file claims.
        found: u32,
    },
    /// The file was written on a host with a different byte order; the
    /// zero-copy layout is native-endian by design and refuses to guess.
    Endian,
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact io error: {e}"),
            ArtifactError::Truncated { what } => write!(f, "artifact truncated reading {what}"),
            ArtifactError::Malformed { what } => write!(f, "malformed artifact: {what}"),
            ArtifactError::Checksum { what } => write!(f, "artifact checksum mismatch: {what}"),
            ArtifactError::Version { found } => {
                write!(f, "unsupported artifact version {found}")
            }
            ArtifactError::Endian => write!(f, "artifact byte order does not match this host"),
        }
    }
}

impl ArtifactError {
    /// True when the bytes are wrong (vs. I/O failing to reach them).
    pub fn is_corruption(&self) -> bool {
        !matches!(self, ArtifactError::Io(_))
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> ArtifactError {
        ArtifactError::Io(e)
    }
}
