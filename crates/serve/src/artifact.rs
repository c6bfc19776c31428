//! Zero-copy serving from a published v2 artifact: the writer side
//! ([`encode_index_artifact`] / [`publish_index_artifact`]) and the reader
//! side ([`ReadOnlyIndex`], [`ArtifactReader`]).
//!
//! ```text
//!  writer process                      reader processes (N)
//!  ──────────────                      ────────────────────
//!  ShardedIndex (live, mutable)        ArtifactReader::open(dir)
//!    │ publish_index_artifact(seq)       │ mmap artifact-<seq>.gbm
//!    ▼                                   ▼
//!  artifact-<seq>.gbm ──CURRENT──►     ReadOnlyIndex::query
//!  (tmp → fsync → rename)              (scans the mapping in place)
//!                                        │ poll(): CURRENT moved?
//!                                        ▼ map new gen, swap Arc
//! ```
//!
//! The contract, asserted by `tests/artifact_equiv.rs` and the
//! multi-process `probe_artifact` drill:
//!
//! * **Rank identity.** [`ReadOnlyIndex::query`] over the mapped bytes is
//!   bit-identical to [`ShardedIndex::query`] on the index that published
//!   them — ids, scores, tie order — at F32 and Int8, and *also* at Ivf
//!   (the artifact serializes the trained cell tables instead of
//!   retraining, so even the approximate tier's candidate sets match).
//!   This holds by construction: both indexes drive the same
//!   [`ShardView`](crate::scan) scan kernels; the artifact only changes
//!   where the slices point.
//! * **Cold start is a map, not a decode.** Opening checksums the header
//!   and TOC (O(sections)) and validates each shard's structure once;
//!   payload bytes are touched by page faults as queries reach them.
//! * **Readers never observe a torn generation.** Publishing is
//!   tmp→fsync→rename twice ([`gbm_artifact::publish_artifact`]); a
//!   writer killed mid-publish leaves `CURRENT` on the previous complete
//!   generation, and [`ArtifactReader`] checksums every payload of a
//!   generation before swapping onto it — any open, validation or
//!   checksum failure leaves the reader serving its current map.
//!
//! The same file is the durable server's checkpoint: `persist::checkpoint`
//! writes a generation (plus tokenizer and model sections) into its
//! directory, so a reader can serve a checkpoint directory directly.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

use gbm_artifact::{
    encode_artifact, open_map, publish_artifact, read_current, resolve_shard, ArtifactError,
    ArtifactIvf, ArtifactMap, ArtifactMeta, ArtifactQuant, ArtifactShard, ArtifactView, MapKind,
    PrecisionTag, Section, SectionKind,
};
use gbm_nn::ModelSpec;
use gbm_obs::{names, Counter, Histogram, MetricsRegistry};
use gbm_quant::{IvfCellsView, QuantizedMatrixView};
use gbm_store::FileStorage;
use gbm_tokenizer::Tokenizer;
use rayon::prelude::*;

use crate::index::{GraphId, IndexConfig, ScanStats, ShardedIndex};
use crate::persist::{model_data, tokenizer_data};
use crate::quantized::ScanPrecision;
use crate::scan::{prepare_query, scan_shard, IvfRef, QuantView, ShardView};

/// Where artifacts are published and how readers map them.
#[derive(Clone, Debug)]
pub struct ArtifactConfig {
    /// Directory holding `artifact-<seq>.gbm` generations and `CURRENT`.
    pub dir: PathBuf,
    /// `mmap` the artifact (the zero-copy path). `false` — or an mmap
    /// failure at open — reads the file into an aligned heap buffer
    /// behind the same interface.
    pub mmap: bool,
}

impl ArtifactConfig {
    /// Serving from `dir`, mapping by default.
    pub fn new(dir: impl Into<PathBuf>) -> ArtifactConfig {
        ArtifactConfig {
            dir: dir.into(),
            mmap: true,
        }
    }

    /// Applies the artifact environment knobs on top of this config:
    /// `GBM_ARTIFACT_DIR` (the publish/poll directory) and
    /// `GBM_ARTIFACT_MMAP` (`true`/`false`: map vs heap-read). Invalid
    /// values warn on stderr and leave the built-in defaults in force,
    /// like every other `GBM_*` knob.
    pub fn with_env(mut self) -> ArtifactConfig {
        if let Some(dir) =
            crate::env::env_knob::<PathBuf>("GBM_ARTIFACT_DIR", "an artifact directory path")
        {
            self.dir = dir;
        }
        if let Some(mmap) =
            crate::env::env_knob::<bool>("GBM_ARTIFACT_MMAP", "true or false (mmap the artifact)")
        {
            self.mmap = mmap;
        }
        self
    }
}

/// The header image of an index configuration (the IVF cell count rides
/// the precision tag; it is meaningless, and 0, for the exact tiers).
fn precision_tag(cfg: &IndexConfig) -> PrecisionTag {
    match cfg.precision {
        ScanPrecision::F32 => PrecisionTag::F32,
        ScanPrecision::Int8 { widen } => PrecisionTag::Int8 {
            widen: widen as u32,
        },
        ScanPrecision::Ivf { nprobe, widen } => PrecisionTag::Ivf {
            nprobe: nprobe as u32,
            widen: widen as u32,
            cells: cfg.ivf_cells as u32,
        },
    }
}

/// The index configuration an artifact header records.
pub(crate) fn index_config(meta: &ArtifactMeta) -> IndexConfig {
    let (precision, ivf_cells) = match meta.precision {
        PrecisionTag::F32 => (ScanPrecision::F32, 0),
        PrecisionTag::Int8 { widen } => {
            let widen = widen as usize;
            (ScanPrecision::Int8 { widen }, 0)
        }
        PrecisionTag::Ivf {
            nprobe,
            widen,
            cells,
        } => {
            let (nprobe, widen) = (nprobe as usize, widen as usize);
            (ScanPrecision::Ivf { nprobe, widen }, cells as usize)
        }
    };
    IndexConfig {
        num_shards: meta.num_shards,
        encode_batch: meta.encode_batch,
        precision,
        ivf_cells,
    }
}

/// Encodes `index`'s full scannable state (ids, f32 rows, int8 mirrors,
/// trained IVF cell tables), and optionally the tokenizer and model that
/// feed it, into v2 artifact bytes stamped `last_seq`. Pending (unflushed)
/// inserts are not imaged, exactly as they are invisible to
/// [`ShardedIndex::query`].
pub fn encode_index_artifact(
    index: &ShardedIndex,
    last_seq: u64,
    tokenizer: Option<&Tokenizer>,
    model: Option<&ModelSpec>,
) -> Vec<u8> {
    let cfg = index.config();
    let meta = ArtifactMeta {
        num_shards: cfg.num_shards,
        encode_batch: cfg.encode_batch,
        hidden: index.hidden(),
        precision: precision_tag(&cfg),
        last_seq,
    };
    // trained cell tables flatten to CSR once, up front: ArtifactShard
    // borrows, so the flattened vectors must outlive the shard structs
    struct IvfAux {
        offsets: Vec<u32>,
        members: Vec<u32>,
    }
    let aux: Vec<Option<IvfAux>> = (0..cfg.num_shards)
        .map(|s| {
            index
                .shard_ivf(s)
                .filter(|ivf| ivf.is_trained())
                .map(|ivf| {
                    let mut offsets = vec![0u32];
                    let mut members = Vec::new();
                    for c in 0..ivf.num_cells() {
                        members.extend_from_slice(ivf.cell(c));
                        offsets.push(members.len() as u32);
                    }
                    IvfAux { offsets, members }
                })
        })
        .collect();
    let shards: Vec<ArtifactShard<'_>> = (0..cfg.num_shards)
        .map(|s| {
            let quant = index.shard_quant(s);
            ArtifactShard {
                ids: index.shard_ids(s),
                rows: index.shard_rows(s),
                // a shard emptied by removals keeps a 0-row mirror
                // allocated; its image is "no mirror" (what a fresh
                // rebuild produces)
                quant: quant
                    .and_then(|q| q.matrix())
                    .filter(|m| m.rows() > 0)
                    .map(|m| {
                        let q = quant.expect("matrix implies mirror");
                        ArtifactQuant {
                            codes: m.codes(),
                            scales: m.scales(),
                            block_scale: q.block_scale(),
                            block_l1: q.block_l1(),
                        }
                    }),
                ivf: aux[s].as_ref().map(|a| {
                    let ivf = index.shard_ivf(s).expect("aux implies cell index");
                    ArtifactIvf {
                        centroids: ivf.centroids(),
                        sqnorms: ivf.cent_sqnorms(),
                        offsets: &a.offsets,
                        members: &a.members,
                        cell_of: ivf.cell_of(),
                    }
                }),
            }
        })
        .collect();
    encode_artifact(
        &meta,
        &shards,
        tokenizer.map(tokenizer_data).as_ref(),
        model.map(model_data).as_ref(),
    )
}

/// Encodes and atomically publishes `index` as generation `seq` under
/// `dir` (artifact file lands, then `CURRENT` swings to it). Returns the
/// published path.
pub fn publish_index_artifact(index: &ShardedIndex, dir: &Path, seq: u64) -> io::Result<PathBuf> {
    let bytes = encode_index_artifact(index, seq, None, None);
    publish_artifact(&FileStorage::new(), dir, seq, &bytes)
}

/// A sharded index served directly out of a mapped artifact: the same
/// `query` / `query_stats` / `query_shards` surface as [`ShardedIndex`],
/// rank-identical at the exact tiers and recall-identical at Ivf, with no
/// mutation API — readers swap whole generations instead.
///
/// Opening validates the header, TOC, and every shard's structural
/// invariants once; queries then re-slice the mapping with cheap
/// already-validated casts. Payload checksums are *not* verified at open
/// (that would fault in every page and defeat the zero-copy cold start) —
/// [`verify`](Self::verify) runs the full pass on demand.
pub struct ReadOnlyIndex {
    map: Box<dyn ArtifactMap>,
    meta: ArtifactMeta,
    sections: Vec<Section>,
    cfg: IndexConfig,
    num_encoded: usize,
    fell_back: bool,
}

impl ReadOnlyIndex {
    /// Maps (or heap-reads, per `prefer_mmap` and platform) the artifact
    /// at `path` and validates it for serving.
    pub fn open(path: &Path, prefer_mmap: bool) -> Result<ReadOnlyIndex, ArtifactError> {
        let (map, fell_back) = open_map(path, prefer_mmap)?;
        let mut index = ReadOnlyIndex::from_map(map)?;
        index.fell_back = fell_back;
        Ok(index)
    }

    /// Serves from an already-mapped artifact (any [`ArtifactMap`]).
    /// Parses and checksums the header + TOC and deep-validates every
    /// shard's structure; payload bytes stay untouched.
    pub fn from_map(map: Box<dyn ArtifactMap>) -> Result<ReadOnlyIndex, ArtifactError> {
        let (meta, sections) = {
            let view = ArtifactView::parse(map.bytes())?;
            for s in 0..view.meta().num_shards {
                view.shard(s)?;
            }
            view.into_parts()
        };
        let cfg = index_config(&meta);
        let num_encoded = sections
            .iter()
            .filter(|e| e.kind == SectionKind::Ids)
            .map(|e| e.len / std::mem::size_of::<GraphId>())
            .sum();
        Ok(ReadOnlyIndex {
            map,
            meta,
            sections,
            cfg,
            num_encoded,
            fell_back: false,
        })
    }

    /// Shard `s` as the borrowed [`ShardView`] the scan kernels read —
    /// slices straight into the mapping. Structure was validated at open,
    /// so the per-query resolve cannot fail on a map that has not been
    /// yanked out from under us.
    fn shard_view(&self, s: usize) -> ShardView<'_> {
        let shard = resolve_shard(self.map.bytes(), &self.meta, &self.sections, s)
            .expect("artifact shards were validated at open");
        let hidden = self.meta.hidden;
        ShardView {
            ids: shard.ids,
            rows: shard.rows,
            quant: shard.quant.map(|q| QuantView {
                mat: QuantizedMatrixView::new(q.codes, q.scales, hidden),
                block_scale: q.block_scale,
                block_l1: q.block_l1,
            }),
            ivf: shard.ivf.map(|i| {
                IvfRef::Mapped(IvfCellsView::new(
                    i.centroids,
                    i.sqnorms,
                    i.offsets,
                    i.members,
                    i.cell_of,
                    hidden,
                ))
            }),
        }
    }

    /// Exact top-K cosine neighbours out of the mapping — bit-identical to
    /// [`ShardedIndex::query`] on the published index.
    pub fn query(&self, query: &[f32], k: usize) -> Vec<(GraphId, f32)> {
        self.query_stats(query, k).0
    }

    /// [`query`](Self::query) plus the scan's [`ScanStats`] — same
    /// accounting model as the live index.
    pub fn query_stats(&self, query: &[f32], k: usize) -> (Vec<(GraphId, f32)>, ScanStats) {
        if k == 0 || self.num_encoded == 0 {
            return (Vec::new(), ScanStats::default());
        }
        assert_eq!(
            query.len(),
            self.hidden(),
            "query embedding width must match the index"
        );
        let hidden = self.hidden();
        let precision = self.cfg.precision;
        let quant_query = prepare_query(precision, query);
        let views: Vec<ShardView<'_>> =
            (0..self.num_shards()).map(|s| self.shard_view(s)).collect();
        let per_shard: Vec<(Vec<(GraphId, f32)>, ScanStats)> = views
            .par_iter()
            .with_min_len(1)
            .map(|v| {
                let mut stats = ScanStats::default();
                let ranked = scan_shard(v, query, &quant_query, k, precision, hidden, &mut stats);
                (ranked, stats)
            })
            .collect();
        let mut stats = ScanStats::default();
        let mut partials = Vec::with_capacity(per_shard.len());
        for (ranked, s) in per_shard {
            stats.merge(&s);
            partials.push(ranked);
        }
        (gbm_tensor::merge_ranked(&partials, k), stats)
    }

    /// The fan-out half of [`query`](Self::query), mirroring
    /// [`ShardedIndex::query_shards`]: scans only `shards`, sequentially,
    /// and returns their merged sorted partial.
    pub fn query_shards(
        &self,
        shards: std::ops::Range<usize>,
        query: &[f32],
        k: usize,
    ) -> Vec<(GraphId, f32)> {
        self.query_shards_stats(shards, query, k).0
    }

    /// [`query_shards`](Self::query_shards) plus the partial's
    /// [`ScanStats`].
    pub fn query_shards_stats(
        &self,
        shards: std::ops::Range<usize>,
        query: &[f32],
        k: usize,
    ) -> (Vec<(GraphId, f32)>, ScanStats) {
        assert!(shards.end <= self.num_shards(), "shard range out of bounds");
        let views: Vec<ShardView<'_>> = shards.map(|s| self.shard_view(s)).collect();
        if k == 0 || views.iter().all(|v| v.ids.is_empty()) {
            return (Vec::new(), ScanStats::default());
        }
        assert_eq!(
            query.len(),
            self.hidden(),
            "query embedding width must match the index"
        );
        let hidden = self.hidden();
        let precision = self.cfg.precision;
        let quant_query = prepare_query(precision, query);
        let mut stats = ScanStats::default();
        let per_shard: Vec<Vec<(GraphId, f32)>> = views
            .iter()
            .map(|v| scan_shard(v, query, &quant_query, k, precision, hidden, &mut stats))
            .collect();
        (gbm_tensor::merge_ranked(&per_shard, k), stats)
    }

    /// Full payload-checksum verification — the explicit integrity pass
    /// (every page faulted in), not part of `open`.
    pub fn verify(&self) -> Result<(), ArtifactError> {
        ArtifactView::parse(self.map.bytes())?.verify()
    }

    /// Encoded (searchable) rows across all shards.
    pub fn num_encoded(&self) -> usize {
        self.num_encoded
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.meta.num_shards
    }

    /// Embedding width.
    pub fn hidden(&self) -> usize {
        self.meta.hidden
    }

    /// The index configuration the artifact was published with
    /// (`num_shards`/`precision`/`ivf_cells` round-trip exactly).
    pub fn config(&self) -> IndexConfig {
        self.cfg
    }

    /// WAL sequence this artifact is consistent with — the publish
    /// generation.
    pub fn last_seq(&self) -> u64 {
        self.meta.last_seq
    }

    /// How the bytes entered the address space.
    pub fn map_kind(&self) -> MapKind {
        self.map.kind()
    }

    /// True when `mmap` was requested but the open fell back to a heap
    /// read (readers keep serving; the `artifact.map_fallbacks` counter
    /// ticks).
    pub fn fell_back(&self) -> bool {
        self.fell_back
    }

    /// Bytes one full scan pass touches under the artifact's precision —
    /// same accounting as [`ShardedIndex::scan_bytes`].
    pub fn scan_bytes(&self) -> usize {
        (0..self.num_shards())
            .map(|s| {
                let v = self.shard_view(s);
                match self.cfg.precision {
                    ScanPrecision::F32 => std::mem::size_of_val(v.rows),
                    ScanPrecision::Int8 { .. } => v.quant.as_ref().map_or(0, QuantView::scan_bytes),
                    ScanPrecision::Ivf { .. } => {
                        v.quant.as_ref().map_or(0, QuantView::scan_bytes)
                            + v.ivf.as_ref().map_or(0, IvfRef::scan_bytes)
                    }
                }
            })
            .sum()
    }
}

/// The cached lock-free handles for the `artifact.*` metrics (names in
/// [`gbm_obs::names`] — they cross process boundaries in the drill).
struct ArtifactMetrics {
    maps: Arc<Counter>,
    remaps: Arc<Counter>,
    map_fallbacks: Arc<Counter>,
    open_errors: Arc<Counter>,
    cold_load_us: Arc<Histogram>,
}

impl ArtifactMetrics {
    fn register(reg: &MetricsRegistry) -> ArtifactMetrics {
        ArtifactMetrics {
            maps: reg.counter(names::ARTIFACT_MAPS),
            remaps: reg.counter(names::ARTIFACT_REMAPS),
            map_fallbacks: reg.counter(names::ARTIFACT_MAP_FALLBACKS),
            open_errors: reg.counter(names::ARTIFACT_OPEN_ERRORS),
            cold_load_us: reg.histogram(names::ARTIFACT_COLD_LOAD_US),
        }
    }
}

/// A polling reader over a published artifact directory: maps the current
/// generation at open, then [`poll`](Self::poll) swings to newer
/// generations without dropping in-flight queries — callers hold an
/// `Arc<ReadOnlyIndex>` from [`current`](Self::current), and a swap only
/// replaces the slot, never invalidates a clone already handed out (the
/// old mapping unmaps when its last query finishes).
pub struct ArtifactReader {
    cfg: ArtifactConfig,
    slot: RwLock<Arc<ReadOnlyIndex>>,
    generation: AtomicU64,
    metrics: Option<ArtifactMetrics>,
}

impl ArtifactReader {
    /// Opens the generation `CURRENT` names. Errors when nothing has been
    /// published yet (readers should retry until a writer appears) or the
    /// live artifact fails validation.
    pub fn open(cfg: ArtifactConfig) -> Result<ArtifactReader, ArtifactError> {
        ArtifactReader::with_metrics(cfg, None)
    }

    /// [`open`](Self::open) recording `artifact.*` metrics into `registry`.
    pub fn with_metrics(
        cfg: ArtifactConfig,
        registry: Option<&MetricsRegistry>,
    ) -> Result<ArtifactReader, ArtifactError> {
        let metrics = registry.map(ArtifactMetrics::register);
        let Some((seq, path)) = read_current(&cfg.dir)? else {
            return Err(ArtifactError::Io(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no published generation in {}", cfg.dir.display()),
            )));
        };
        let index = ArtifactReader::load(&cfg, &path, metrics.as_ref())?;
        Ok(ArtifactReader {
            cfg,
            slot: RwLock::new(Arc::new(index)),
            generation: AtomicU64::new(seq),
            metrics,
        })
    }

    /// Maps a generation and runs the full payload-checksum pass before
    /// anything serves from it — the reader's one-off integrity check, off
    /// the cold-open path [`ReadOnlyIndex::open`] keeps lazy.
    fn load(
        cfg: &ArtifactConfig,
        path: &Path,
        metrics: Option<&ArtifactMetrics>,
    ) -> Result<ReadOnlyIndex, ArtifactError> {
        let t0 = Instant::now();
        let loaded = ReadOnlyIndex::open(path, cfg.mmap).and_then(|index| {
            index.verify()?;
            Ok(index)
        });
        match loaded {
            Ok(index) => {
                if let Some(m) = metrics {
                    m.maps.inc();
                    if index.fell_back() {
                        m.map_fallbacks.inc();
                    }
                    m.cold_load_us.record(t0.elapsed().as_micros() as u64);
                }
                Ok(index)
            }
            Err(e) => {
                if let Some(m) = metrics {
                    m.open_errors.inc();
                }
                Err(e)
            }
        }
    }

    /// The live generation's index. Cheap (one `Arc` clone under a read
    /// lock); hold the `Arc` for the duration of a query and it survives
    /// any concurrent [`poll`](Self::poll) swap.
    pub fn current(&self) -> Arc<ReadOnlyIndex> {
        Arc::clone(&self.slot.read().expect("artifact slot poisoned"))
    }

    /// The sequence number currently served.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Re-reads `CURRENT` and swaps onto a newer generation when one has
    /// been published. Returns whether a swap happened. Any failure —
    /// unreadable pointer, artifact mid-reap, validation or checksum
    /// error — leaves the reader serving its current generation (callers
    /// poll again later), with `artifact.open_errors` ticked.
    pub fn poll(&self) -> Result<bool, ArtifactError> {
        let Some((seq, path)) = read_current(&self.cfg.dir)? else {
            return Ok(false);
        };
        if seq <= self.generation() {
            return Ok(false);
        }
        let index = ArtifactReader::load(&self.cfg, &path, self.metrics.as_ref())?;
        if let Some(m) = &self.metrics {
            m.remaps.inc();
        }
        *self.slot.write().expect("artifact slot poisoned") = Arc::new(index);
        self.generation.store(seq, Ordering::Release);
        Ok(true)
    }
}
