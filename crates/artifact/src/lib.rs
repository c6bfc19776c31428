//! # gbm-artifact
//!
//! The v2 zero-copy index artifact, the workspace's one on-disk index
//! format: the serving state of a sharded index — f32 row matrices, int8
//! code mirrors, IVF cell tables, and optionally the tokenizer and model
//! that feed it — laid out in a single file whose payload sections are
//! page-aligned, length-prefixed, and byte-for-byte in the layout the scan
//! kernels consume. Durable servers checkpoint to it and recover from it.
//! A reader `mmap`s the file (or falls back to a heap read behind the same
//! [`ArtifactMap`] trait) and serves queries directly out of the mapping:
//! no decode, no copy, cold start bounded by page faults rather than
//! deserialization work.
//!
//! Three layers, bottom up:
//!
//! * [`map`]: how bytes enter the address space — a raw `mmap(2)` binding
//!   on unix, a portable aligned heap read everywhere, both behind
//!   [`ArtifactMap`] so serving code is strategy-blind.
//! * [`layout`]: the format itself — checksummed header + TOC,
//!   [`encode_artifact`] on the writer side, [`ArtifactView`] /
//!   [`resolve_shard`] for in-place typed access on the reader side.
//!   Opening checksums only the header and TOC; full payload verification
//!   is an explicit [`ArtifactView::verify`] pass.
//! * [`publish`]: the single-writer / multi-reader generation protocol —
//!   `artifact-<seq>.gbm` and then a `CURRENT` pointer file, each through
//!   `gbm_store::Storage::write_atomic` (tmp→fsync→rename), so readers
//!   polling the directory only ever observe complete generations.
//!
//! The crate is deliberately index-agnostic: it moves validated slices,
//! not index types. `gbm_serve::ReadOnlyIndex` owns the mapping and runs
//! the actual scans.

mod cast;

pub mod error;
pub mod layout;
pub mod map;
pub mod publish;

pub use error::ArtifactError;
pub use layout::{
    encode_artifact, resolve_shard, ArtifactIvf, ArtifactMeta, ArtifactQuant, ArtifactShard,
    ArtifactView, ModelData, PrecisionTag, Section, SectionKind, TokenizerData, ARTIFACT_MAGIC,
    ARTIFACT_VERSION, HEADER_LEN, PAGE_ALIGN,
};
#[cfg(unix)]
pub use map::MmapMap;
pub use map::{open_map, ArtifactMap, HeapMap, MapKind};
pub use publish::{
    artifact_file_name, parse_artifact_seq, publish_artifact, read_current, reap_artifacts,
    ARTIFACT_EXT, CURRENT_FILE,
};
