//! # gbm-serve
//!
//! The serving layer: everything between "a trained model and a graph pool"
//! and "answer top-K queries under load". Contrastively-trained models rank
//! by plain embedding dot product ([`RankBy::Cosine`] in `gbm-eval`), so the
//! hot retrieval path needs no match head at all — serving reduces to an
//! embedding-index scan, the shape of XLIR's IR-embedding search:
//!
//! * [`ShardedIndex`] — the candidate pool partitioned across S shards by a
//!   stable hash of graph id. Each shard owns a dense row-major embedding
//!   matrix built through the batched encoder, supports incremental
//!   `insert`/`remove` (inserts queue into a pending batch that re-encodes
//!   through **one** disjoint-union forward), and answers queries with a
//!   blocked top-K dot-product scan ([`gbm_tensor::top_k`]). Shards scan in
//!   parallel (rayon) and their sorted partial results k-way merge.
//! * [`ScanPrecision`] / [`QuantizedShard`] — the int8 scan path: each
//!   shard shadows its f32 rows with a `gbm-quant` per-row symmetric code
//!   matrix (~4× smaller scan footprint), coarse-scans it for a widened
//!   top-K′ candidate set, and re-scores exactly those candidates against
//!   the retained f32 rows — final rankings equal the f32 scan (ids,
//!   scores, tie order) whenever the widened set covers the true top-K.
//! * [`ScanPrecision::Ivf`] — the approximate tier above int8: each shard
//!   past a training threshold keeps a seeded-k-means inverted-file index
//!   ([`gbm_quant::IvfCells`]) over its rows, maintained incrementally
//!   through insert/remove churn with amortized doubling retrains. A query
//!   scores the `≈√n` coarse centroids, visits only the `nprobe` nearest
//!   cells over the int8 mirror, and exactly re-ranks the `k·widen`
//!   survivors against f32 — sub-linear scan work in exchange for a
//!   *recall* contract (measured and CI-gated at ≥0.95 recall@10 on the
//!   clustered bench pool) instead of the exact tiers' rank identity.
//!   Untrained shards fall back to the exact int8 path, so toy pools and
//!   cold starts stay bit-identical. `GBM_SCAN_NPROBE` / `GBM_IVF_CELLS`
//!   tune probing from the environment ([`IndexConfig::with_env`]).
//! * [`EncodeCoalescer`] — the request-side batcher: incoming encode
//!   requests queue until `max_batch` graphs are waiting or the driver
//!   goes idle (work-conserving: no flush deadline), then one
//!   [`GraphBatch`] forward encodes the whole flush and every caller picks
//!   up its own row by ticket.
//! * [`Clock`] / [`VirtualClock`] — time is injected, never read from the
//!   OS, so recorded queueing waits and trace stages are exactly
//!   reproducible in tests and load probes.
//! * [`Server`] — the concurrent front-end tying it together: one encode
//!   worker drives the coalescer's two-phase flush (the batched forward
//!   runs off-lock, overlapping scans), N shard-pinned scan workers answer
//!   query fan-outs via [`ShardedIndex::query_shards`], and callers k-way
//!   merge the sorted partials — bit-identical to the single-threaded
//!   query. Submissions resolve through oneshot handles, never polling.
//!   `GBM_SERVE_WORKERS` tunes the topology from the environment
//!   ([`ServerConfig::with_env`]).
//! * [`persist`] — crash-safe persistence: [`checkpoint`] writes the index
//!   (plus tokenizer and model) as a v2 artifact generation, and an
//!   append-only op WAL carries every insert/remove the durable server
//!   applies after it. [`recover`] rebuilds serving state from the newest
//!   generation whose checksums verify plus a WAL tail replay,
//!   rank-identical to a never-crashed replay of the durable ops — every
//!   corruption surfaces as a typed error, never a wrong ranking.
//!   Storage is injected ([`gbm_store::Storage`]) so crashes, torn writes,
//!   and bit rot are deterministically testable, mirroring the injected
//!   [`Clock`]. `GBM_SNAPSHOT_DIR` / `GBM_WAL_FSYNC` tune durability from
//!   the environment ([`DurabilityConfig::with_env`]).
//! * [`artifact`] — multi-process serving from a published v2 artifact
//!   (`gbm-artifact`'s page-aligned zero-copy format, the one on-disk
//!   index format, checkpoints included): a writer
//!   [`publish_index_artifact`]s generations (tmp → fsync → rename, then a
//!   `CURRENT` pointer swing), reader processes `mmap` them and serve
//!   through [`ReadOnlyIndex`] — the same query surface as
//!   [`ShardedIndex`], rank-identical at the exact tiers because both run
//!   the *same* scan kernels over borrowed shard views — and
//!   [`ArtifactReader`] polls `CURRENT` to swap generations without
//!   dropping in-flight queries. `GBM_ARTIFACT_DIR` / `GBM_ARTIFACT_MMAP`
//!   tune the reader from the environment ([`ArtifactConfig::with_env`]).
//!
//! Rankings are *exact*: a sharded top-K scan returns the same candidates in
//! the same order as a full monolithic
//! [`EmbeddingStore`](gbm_nn::EmbeddingStore) scan (equality asserted in
//! tests here and in `gbm-eval`, which wires this index into its retrieval
//! API). `RankBy::Cosine` is documented in `gbm_eval::retrieval`.

#![forbid(unsafe_code)]

pub mod artifact;
pub mod coalesce;
mod env;
pub mod index;
mod metrics;
pub mod persist;
pub mod quantized;
mod scan;
pub mod server;
pub mod snapshot;
#[cfg(any(test, feature = "test-fixtures"))]
pub mod testfix;

pub use artifact::{
    encode_index_artifact, publish_index_artifact, ArtifactConfig, ArtifactReader, ReadOnlyIndex,
};
pub use gbm_artifact::{ArtifactError, MapKind};
pub use gbm_obs::{
    Clock, MetricsRegistry, MetricsSnapshot, ObsConfig, TraceSpan, TraceStage, VirtualClock,
    WallClock,
};

pub use coalesce::{
    CoalescerConfig, CoalescerStats, EncodeCoalescer, FlushBatch, FlushTrigger, Ticket,
};
pub use index::{shard_of, GraphId, IndexConfig, ScanStats, ShardedIndex};
pub use persist::{checkpoint, recover, DurabilityConfig, PersistError, Recovery, RecoveryStats};
pub use quantized::{QuantizedShard, ScanPrecision};
pub use server::{
    EncodeHandle, InsertHandle, RemoveHandle, ServeError, Server, ServerConfig, ServerReport,
};
pub use snapshot::{decode_generation, load_newest_generation, Snapshot};
