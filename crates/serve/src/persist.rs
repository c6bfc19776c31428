//! Crash-safe persistence for the serving stack: conversion between live
//! serving types ([`ShardedIndex`], [`Tokenizer`], [`ModelSpec`]) and their
//! one on-disk image, a v2 artifact generation (`gbm-artifact`), plus the
//! WAL-backed recovery orchestration.
//!
//! ```text
//!  running server ──append──► wal.log          (every insert/remove, seq N)
//!       └─checkpoint()──────► artifact-{N}.gbm (atomic write + CURRENT swing,
//!                                               then the WAL restarts at N+1)
//!  crash ▼
//!  recover(): newest generation whose  ──►  replay WAL ops with seq > N
//!             payloads all verify            (torn tail dropped+counted,
//!             (bad ones skipped, listed)      gaps = typed SeqGap error)
//! ```
//!
//! A checkpoint is an ordinary generation: a reader can map it with
//! [`ReadOnlyIndex::open`](crate::ReadOnlyIndex::open) and serve it,
//! rank-identical to the index [`recover`] rebuilds from it. Decoding a
//! generation back into serving state, and choosing the newest one that
//! verifies, is [`crate::snapshot`].
//!
//! The recovery contract, enforced by the tests below and the proptest
//! suite in `tests/persist_prop.rs`: the recovered index is
//! **rank-identical** — ids, scores, tie order — to a never-crashed index
//! that applied the same durable operation prefix, or recovery fails with
//! a typed error. Never a silently wrong ranking.
//!
//! Two properties make the equivalence exact rather than approximate:
//!
//! * WAL inserts carry the embedding row, so replay is pure index
//!   arithmetic — no model, no re-encode drift.
//! * Replay is resumable by sequence number: a checkpoint at `last_seq = N`
//!   skips ops `≤ N` instead of re-applying them. Re-applying would be
//!   *score*-safe but would perturb per-shard row order — the exact-tie
//!   order — so idempotent replay is deliberately not the mechanism.
//!
//! Recovery rebuilds an owned index from the stored rows. Quantization is
//! deterministic, so the requantized mirror must be bit-equal to the
//! stored one; any difference is a typed [`PersistError::QuantMismatch`].
//! IVF cells retrain from the rows (seeded k-means over the stored order).

use std::path::PathBuf;
use std::sync::Arc;

use gbm_artifact::{parse_artifact_seq, publish_artifact, ArtifactError, ModelData, TokenizerData};
use gbm_nn::ModelSpec;
use gbm_store::{Storage, StoreError, Wal, WalOp, WAL_FILE};
use gbm_tokenizer::Tokenizer;

use crate::artifact::encode_index_artifact;
use crate::index::{GraphId, IndexConfig, ShardedIndex};
use crate::snapshot::load_newest_generation;

/// Where and how durably serving state persists.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Directory holding the checkpoint generations and the WAL.
    pub dir: PathBuf,
    /// Fsync the WAL after every append (durable to the op, slower) rather
    /// than at sync points (shutdown, checkpoint).
    pub fsync_each: bool,
}

impl DurabilityConfig {
    /// Persistence under `dir`, syncing at sync points only.
    pub fn new(dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig {
            dir: dir.into(),
            fsync_each: false,
        }
    }

    /// Applies the persistence environment knobs on top of this config:
    /// `GBM_SNAPSHOT_DIR` (the durability directory: checkpoints + WAL)
    /// and `GBM_WAL_FSYNC` (`true`/`false`: fsync every WAL append).
    /// Invalid values warn on stderr and leave the built-in defaults in
    /// force, like every other `GBM_*` knob.
    pub fn with_env(mut self) -> DurabilityConfig {
        if let Some(dir) =
            crate::env::env_knob::<PathBuf>("GBM_SNAPSHOT_DIR", "a checkpoint directory path")
        {
            self.dir = dir;
        }
        if let Some(fsync) =
            crate::env::env_knob::<bool>("GBM_WAL_FSYNC", "true or false (fsync per WAL append)")
        {
            self.fsync_each = fsync;
        }
        self
    }
}

/// Everything that can go wrong converting persisted data back into live
/// serving state — the serving-layer extension of [`StoreError`] and
/// [`ArtifactError`].
#[derive(Debug)]
pub enum PersistError {
    /// The storage layer failed or the WAL bytes are corrupt.
    Store(StoreError),
    /// A checkpoint generation is malformed.
    Artifact(ArtifactError),
    /// A stored row is filed under a shard its id does not hash to.
    ShardMismatch {
        /// The misfiled id.
        id: GraphId,
        /// Shard the id hashes to.
        expected: usize,
        /// Shard the generation filed it under.
        found: usize,
    },
    /// A shard's stored int8 codes, scales or block bounds are not the
    /// deterministic requantization of its stored f32 rows.
    QuantMismatch {
        /// The inconsistent shard.
        shard: usize,
    },
    /// Row widths disagree (generation vs index vs WAL op).
    WidthMismatch {
        /// What disagreed.
        what: String,
    },
    /// The model section cannot be rebuilt (unknown tags, weight-count
    /// mismatch).
    Model(String),
    /// The tokenizer section cannot be rebuilt (id collisions, bad
    /// vocabulary).
    Tokenizer(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Store(e) => write!(f, "{e}"),
            PersistError::Artifact(e) => write!(f, "{e}"),
            PersistError::ShardMismatch {
                id,
                expected,
                found,
            } => write!(
                f,
                "checkpoint files id {id} under shard {found}, but it hashes to shard {expected}"
            ),
            PersistError::QuantMismatch { shard } => write!(
                f,
                "shard {shard}: stored int8 mirror is not the requantization of the stored rows"
            ),
            PersistError::WidthMismatch { what } => write!(f, "row width mismatch: {what}"),
            PersistError::Model(e) => write!(f, "cannot rebuild model: {e}"),
            PersistError::Tokenizer(e) => write!(f, "cannot rebuild tokenizer: {e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Store(e) => Some(e),
            PersistError::Artifact(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for PersistError {
    fn from(e: StoreError) -> PersistError {
        PersistError::Store(e)
    }
}

impl From<ArtifactError> for PersistError {
    fn from(e: ArtifactError) -> PersistError {
        PersistError::Artifact(e)
    }
}

impl PersistError {
    /// True when the persisted bytes are wrong (vs. I/O reaching them).
    pub fn is_corruption(&self) -> bool {
        match self {
            PersistError::Store(e) => e.is_corruption(),
            PersistError::Artifact(e) => e.is_corruption(),
            _ => true,
        }
    }
}

/// The persistence image of a tokenizer.
pub fn tokenizer_data(tok: &Tokenizer) -> TokenizerData {
    TokenizerData {
        seq_len: tok.seq_len() as u32,
        normalize_vars: tok.normalize_vars(),
        entries: tok.vocab_entries(),
    }
}

/// The persistence image of a model spec.
pub fn model_data(spec: &ModelSpec) -> ModelData {
    ModelData {
        config: spec.config_words(),
        weights: spec.weights.clone(),
    }
}

/// A recovered serving state: the index at the durable frontier, the WAL
/// positioned to continue from it, and what recovery had to do to get
/// there.
pub struct Recovery {
    /// The index, rank-identical to a never-crashed replay of the durable
    /// op prefix.
    pub index: ShardedIndex,
    /// The WAL, torn tail repaired, numbering continuous with the
    /// recovered state — hand it to `Server::durable`.
    pub wal: Wal,
    /// `last_seq` of the checkpoint recovery started from (0 = none found).
    pub snapshot_seq: u64,
    /// WAL ops replayed on top of the checkpoint.
    pub replayed_ops: usize,
    /// Wall time the WAL replay took, microseconds (checkpoint load
    /// excluded) — the recovery cost `probe_artifact`'s crash drill
    /// reports.
    pub replay_us: u64,
    /// Torn-tail bytes dropped from the WAL (a crash mid-append).
    pub torn_bytes: usize,
    /// Generations that failed verification, newest first — surfaced
    /// because a skipped generation means a longer WAL replay than
    /// intended.
    pub skipped_generations: Vec<(String, ArtifactError)>,
    /// The tokenizer captured in the checkpoint, when present.
    pub tokenizer: Option<Tokenizer>,
    /// The model captured in the checkpoint, when present.
    pub model: Option<ModelSpec>,
}

/// The `Copy` summary of what a [`Recovery`] did — detachable from the
/// moved-out `index`/`wal`, so a server boot can capture it before handing
/// those to [`Server::durable`](crate::Server::durable) and seed the
/// `recover.*` metrics afterwards
/// ([`Server::record_recovery`](crate::Server::record_recovery)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// `last_seq` of the checkpoint recovery started from (0 = none found).
    pub snapshot_seq: u64,
    /// WAL ops replayed on top of the checkpoint.
    pub replayed_ops: usize,
    /// Wall time the WAL replay took, microseconds.
    pub replay_us: u64,
    /// Torn-tail bytes dropped from the WAL.
    pub torn_bytes: usize,
}

impl Recovery {
    /// The detachable summary of this recovery.
    pub fn stats(&self) -> RecoveryStats {
        RecoveryStats {
            snapshot_seq: self.snapshot_seq,
            replayed_ops: self.replayed_ops,
            replay_us: self.replay_us,
            torn_bytes: self.torn_bytes,
        }
    }
}

impl std::fmt::Debug for Recovery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recovery")
            .field("rows", &self.index.num_encoded())
            .field("snapshot_seq", &self.snapshot_seq)
            .field("replayed_ops", &self.replayed_ops)
            .field("torn_bytes", &self.torn_bytes)
            .field("skipped_generations", &self.skipped_generations)
            .field("tokenizer", &self.tokenizer.is_some())
            .field("model", &self.model.is_some())
            .finish_non_exhaustive()
    }
}

/// Recovers serving state from `cfg.dir`: rebuilds the index from the
/// newest generation whose every payload checksum verifies (an empty
/// directory recovers to a fresh index under `fallback`), replays the WAL
/// ops past its `last_seq`, repairs the torn tail, and detects every gap a
/// lost generation or compacted log could open. Returns a typed error
/// rather than ever serving a wrong ranking.
pub fn recover(
    storage: Arc<dyn Storage>,
    cfg: &DurabilityConfig,
    fallback: IndexConfig,
) -> Result<Recovery, PersistError> {
    let (base, skipped) = load_newest_generation(storage.as_ref(), &cfg.dir)?;
    let (mut index, tokenizer, model, snapshot_seq) = match base {
        Some(s) => (s.index, s.tokenizer, s.model, s.last_seq),
        None => (ShardedIndex::new(fallback), None, None, 0),
    };
    let (wal, replay) = Wal::resume(
        Arc::clone(&storage),
        cfg.dir.join(WAL_FILE),
        cfg.fsync_each,
        snapshot_seq + 1,
    )?;
    // ops ≤ snapshot_seq are already folded into the checkpoint (a crash
    // between checkpoint write and WAL compaction leaves them behind); the
    // remainder must continue exactly at snapshot_seq + 1
    let replay_start = std::time::Instant::now();
    let mut replayed = 0usize;
    for (seq, op) in &replay.ops {
        if *seq <= snapshot_seq {
            continue;
        }
        if *seq != snapshot_seq + 1 + replayed as u64 {
            return Err(StoreError::SeqGap {
                expected: snapshot_seq + 1 + replayed as u64,
                found: *seq,
            }
            .into());
        }
        match op {
            WalOp::Insert { id, row } => {
                if index.hidden() != 0 && row.len() != index.hidden() {
                    return Err(PersistError::WidthMismatch {
                        what: format!(
                            "WAL op {seq} inserts a {}-wide row into a {}-wide index",
                            row.len(),
                            index.hidden()
                        ),
                    });
                }
                index.insert_row(*id, row);
            }
            WalOp::Remove { id } => {
                index.remove(*id);
            }
        }
        replayed += 1;
    }
    let replay_us = replay_start.elapsed().as_micros() as u64;
    // a skipped (corrupt) generation newer than everything recovered means
    // ops were compacted away that nothing can reproduce — data loss,
    // which must surface as an error, not a silently shorter index
    let covered = wal.state().next_seq - 1;
    if let Some(lost) = skipped
        .iter()
        .filter_map(|(name, _)| parse_artifact_seq(name))
        .find(|&seq| seq > covered)
    {
        return Err(StoreError::SeqGap {
            expected: covered + 1,
            found: lost,
        }
        .into());
    }
    Ok(Recovery {
        index,
        wal,
        snapshot_seq,
        replayed_ops: replayed,
        replay_us,
        torn_bytes: replay.torn_bytes,
        skipped_generations: skipped,
        tokenizer,
        model,
    })
}

/// Checkpoints the serving state: writes a generation
/// (`artifact-<seq>.gbm`, every op the WAL has logged folded in) and
/// swings `CURRENT` to it through `storage`, then restarts (compacts) the
/// WAL at the next sequence number. Returns the generation's path, which a
/// reader can map directly. Crash-ordering is safe at every point — before
/// the generation lands the old WAL still covers everything; between
/// generation and compaction, replay skips the ops it already folded in.
pub fn checkpoint(
    storage: Arc<dyn Storage>,
    cfg: &DurabilityConfig,
    index: &ShardedIndex,
    tokenizer: Option<&Tokenizer>,
    model: Option<&ModelSpec>,
    wal: &mut Wal,
) -> Result<PathBuf, PersistError> {
    let last_seq = wal.state().next_seq - 1;
    let bytes = encode_index_artifact(index, last_seq, tokenizer, model);
    let path =
        publish_artifact(storage.as_ref(), &cfg.dir, last_seq, &bytes).map_err(StoreError::from)?;
    *wal = Wal::create(
        storage,
        cfg.dir.join(WAL_FILE),
        wal.state().fsync_each,
        last_seq + 1,
    )?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantized::ScanPrecision;
    use crate::snapshot::decode_generation;
    use gbm_artifact::{
        artifact_file_name, encode_artifact, ArtifactMap, ArtifactMeta, ArtifactQuant,
        ArtifactShard, ArtifactView, HeapMap, PrecisionTag,
    };
    use gbm_store::{FaultPlan, FaultStorage, MemStorage};
    use std::path::Path;

    fn synth_rows(n: usize, hidden: usize, seed: u64) -> Vec<f32> {
        let mut state = seed;
        (0..n * hidden)
            .map(|_| {
                state = state
                    .wrapping_add(0x9E37_79B9_7F4A_7C15)
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9);
                ((state >> 40) % 2000) as f32 / 1000.0 - 1.0
            })
            .collect()
    }

    fn image(index: &ShardedIndex, last_seq: u64) -> Vec<u8> {
        encode_index_artifact(index, last_seq, None, None)
    }

    /// The restore half of recovery over raw generation bytes.
    fn restore_bytes(bytes: &[u8]) -> Result<ShardedIndex, PersistError> {
        decode_generation(bytes).map(|s| s.index)
    }

    /// Writes generation `seq` without compacting the WAL — what a crash
    /// between a checkpoint and its compaction leaves behind.
    fn write_generation(storage: &dyn Storage, dir: &Path, index: &ShardedIndex, seq: u64) {
        publish_artifact(storage, dir, seq, &image(index, seq)).unwrap();
    }

    /// Flips a byte in the middle of generation `seq`'s largest payload —
    /// inside a checksummed section, never in alignment padding.
    fn flip_payload_byte(storage: &dyn Storage, dir: &Path, seq: u64) {
        let path = dir.join(artifact_file_name(seq));
        let mut bytes = storage.read(&path).unwrap();
        let view = ArtifactView::parse(&bytes).unwrap();
        let e = view.sections().iter().max_by_key(|e| e.len).unwrap();
        let at = e.offset + e.len / 2;
        bytes[at] ^= 0x40;
        storage.write_atomic(&path, &bytes).unwrap();
    }

    fn assert_rank_identical(a: &ShardedIndex, b: &ShardedIndex, queries: &[Vec<f32>]) {
        assert_eq!(a.ids(), b.ids());
        for q in queries {
            for k in [1usize, 5, 64] {
                assert_eq!(a.query(q, k), b.query(q, k), "k={k}");
            }
        }
    }

    /// Generation bytes → restore is bit-exact: rows, row order, quant
    /// codes, and therefore rankings, across shard counts and precisions
    /// (including empty shards and an entirely empty index).
    #[test]
    fn snapshot_restore_roundtrips_across_shapes() {
        let hidden = 6;
        let rows = synth_rows(40, hidden, 7);
        for shards in [1usize, 2, 7] {
            for precision in [
                ScanPrecision::F32,
                ScanPrecision::Int8 { widen: 2 },
                // 40 rows is below the IVF training threshold: the scan
                // falls back to the exact int8 path, so rank identity holds
                ScanPrecision::Ivf {
                    nprobe: 2,
                    widen: 2,
                },
            ] {
                let cfg = IndexConfig {
                    num_shards: shards,
                    encode_batch: 8,
                    precision,
                    ..Default::default()
                };
                let mut index = ShardedIndex::from_rows(&rows, hidden, cfg);
                index.remove(3); // perturb row order via swap-fill
                let restored = restore_bytes(&image(&index, 17)).unwrap();
                assert_eq!(restored.hidden(), index.hidden());
                for s in 0..shards {
                    assert_eq!(restored.shard_ids(s), index.shard_ids(s), "row order");
                    assert_eq!(restored.shard_rows(s), index.shard_rows(s), "bit-exact");
                }
                let queries = [rows[..hidden].to_vec(), rows[hidden..2 * hidden].to_vec()];
                assert_rank_identical(&restored, &index, &queries);
            }
        }
        // the empty index
        let empty = ShardedIndex::new(IndexConfig::default());
        let restored = restore_bytes(&image(&empty, 0)).unwrap();
        assert_eq!(restored.num_encoded(), 0);
        assert_eq!(restored.query(&[], 3), vec![]);
    }

    /// The configured IVF cell count rides the precision tag through a
    /// generation, and an IVF index trained past the threshold restores to
    /// identical cell structures (seeded k-means is a deterministic
    /// function of the stored row order).
    #[test]
    fn ivf_config_and_cells_survive_a_roundtrip() {
        let hidden = 8;
        let rows = synth_rows(300, hidden, 11);
        let cfg = IndexConfig {
            num_shards: 1,
            encode_batch: 8,
            precision: ScanPrecision::Ivf {
                nprobe: 3,
                widen: 2,
            },
            ivf_cells: 13,
        };
        let index = ShardedIndex::from_rows(&rows, hidden, cfg);
        let restored = restore_bytes(&image(&index, 5)).unwrap();
        assert_eq!(restored.config().precision, cfg.precision);
        assert_eq!(restored.config().ivf_cells, 13);
        let (a, b) = (index.shard_ivf(0).unwrap(), restored.shard_ivf(0).unwrap());
        assert!(a.is_trained() && b.is_trained());
        assert_eq!(a.centroids(), b.centroids());
        assert_eq!(a.cell_of(), b.cell_of());
        let queries = [rows[..hidden].to_vec(), rows[hidden..2 * hidden].to_vec()];
        assert_rank_identical(&restored, &index, &queries);
    }

    /// Structural inconsistencies a checksum cannot catch are typed
    /// errors: misfiled or repeated ids, tampered quant codes or block
    /// bounds, a mirror missing or extra, rows under width zero.
    #[test]
    fn restore_rejects_inconsistent_snapshots() {
        let hidden = 4;
        let rows = synth_rows(12, hidden, 9);
        let index = ShardedIndex::from_rows(
            &rows,
            hidden,
            IndexConfig {
                num_shards: 3,
                encode_batch: 4,
                precision: ScanPrecision::Int8 { widen: 2 },
                ..Default::default()
            },
        );
        let good = image(&index, 1);
        restore_bytes(&good).unwrap();
        let map = HeapMap::from_bytes(&good);
        let view = ArtifactView::parse(map.bytes()).unwrap();
        let meta = *view.meta();
        let shards: Vec<ArtifactShard> = (0..3).map(|s| view.shard(s).unwrap()).collect();
        let rewrite = |meta: &ArtifactMeta, shards: &[ArtifactShard]| {
            restore_bytes(&encode_artifact(meta, shards, None, None))
        };
        let populated = shards.iter().position(|s| s.ids.len() >= 2).unwrap();

        // swap two shards' contents: ids no longer hash where they are filed
        let mut misfiled = shards.clone();
        misfiled.swap(0, 1);
        assert!(matches!(
            rewrite(&meta, &misfiled),
            Err(PersistError::ShardMismatch { .. })
        ));

        // a repeated id: recovery would keep one row where a mapped reader
        // serves two
        let mut ids = shards[populated].ids.to_vec();
        ids[1] = ids[0];
        let mut repeated = shards.clone();
        repeated[populated].ids = &ids;
        assert!(matches!(
            rewrite(&meta, &repeated),
            Err(PersistError::Artifact(ArtifactError::Malformed { .. }))
        ));

        // tamper one quant code, then one block bound: requantization no
        // longer matches
        let q = shards[populated].quant.unwrap();
        let mut codes = q.codes.to_vec();
        codes[0] = codes[0].wrapping_add(1);
        let mut l1 = q.block_l1.to_vec();
        l1[0] += 1.0;
        for tampered in [
            ArtifactQuant { codes: &codes, ..q },
            ArtifactQuant { block_l1: &l1, ..q },
        ] {
            let mut t = shards.clone();
            t[populated].quant = Some(tampered);
            assert!(matches!(
                rewrite(&meta, &t),
                Err(PersistError::QuantMismatch { .. })
            ));
        }

        // a populated int8 shard without its mirror is refused by the
        // format itself; a mirror on an f32 index is not a requantization
        let mut missing = shards.clone();
        missing[populated].quant = None;
        assert!(matches!(
            rewrite(&meta, &missing),
            Err(PersistError::Artifact(ArtifactError::Malformed { .. }))
        ));
        let f32_meta = ArtifactMeta {
            precision: PrecisionTag::F32,
            ..meta
        };
        assert!(matches!(
            rewrite(&f32_meta, &shards),
            Err(PersistError::QuantMismatch { .. })
        ));

        // rows claimed under width 0 (header patched, its crc re-sealed)
        let mut zero = good.clone();
        zero[24..28].copy_from_slice(&0u32.to_le_bytes());
        let crc = gbm_store::crc32(&zero[..56]);
        zero[56..60].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            restore_bytes(&zero),
            Err(PersistError::WidthMismatch { .. })
        ));
    }

    /// The headline equivalence: churn an index while logging to the WAL,
    /// checkpoint part-way, crash with a torn tail — recovery is
    /// rank-identical (ids, scores, tie order) to a never-crashed index
    /// that applied the durable ops, including a mid-compaction crash
    /// (generation written, WAL never truncated).
    #[test]
    fn recover_is_rank_identical_to_never_crashed_replay() {
        let hidden = 5;
        let rows = synth_rows(64, hidden, 21);
        let row = |i: usize| rows[i * hidden..(i + 1) * hidden].to_vec();
        // a churn script: inserts, removes, re-inserts (so swap-fill
        // perturbs row order — the tie-break recovery must reproduce)
        let ops: Vec<WalOp> = (0..48)
            .map(|i| match i % 7 {
                3 => WalOp::Remove { id: (i as u64) / 2 },
                5 => WalOp::Remove { id: 9999 }, // remove of an absent id
                _ => WalOp::Insert {
                    id: (i as u64) % 40,
                    row: row(i % 64),
                },
            })
            .collect();
        let icfg = IndexConfig {
            num_shards: 3,
            encode_batch: 8,
            precision: ScanPrecision::Int8 { widen: 2 },
            ..Default::default()
        };
        let apply = |index: &mut ShardedIndex, op: &WalOp| match op {
            WalOp::Insert { id, row } => index.insert_row(*id, row),
            WalOp::Remove { id } => {
                index.remove(*id);
            }
        };
        for compact_wal in [true, false] {
            let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
            let dcfg = DurabilityConfig::new("/d");
            let mut live = ShardedIndex::new(icfg);
            let mut wal =
                Wal::create(Arc::clone(&storage), dcfg.dir.join(WAL_FILE), false, 1).unwrap();
            for (i, op) in ops.iter().enumerate() {
                wal.append(op).unwrap();
                apply(&mut live, op);
                if i == 29 {
                    if compact_wal {
                        checkpoint(Arc::clone(&storage), &dcfg, &live, None, None, &mut wal)
                            .unwrap();
                    } else {
                        // mid-compaction crash: the generation lands, the WAL
                        // does not get truncated — replay must skip the overlap
                        let seq = wal.state().next_seq - 1;
                        write_generation(storage.as_ref(), &dcfg.dir, &live, seq);
                    }
                }
            }
            // crash mid-append: torn junk after the last durable record
            storage
                .append(&dcfg.dir.join(WAL_FILE), &[7, 7, 7, 7, 7])
                .unwrap();

            let rec = recover(Arc::clone(&storage), &dcfg, icfg).unwrap();
            assert_eq!(rec.snapshot_seq, 30);
            assert_eq!(rec.replayed_ops, ops.len() - 30);
            assert_eq!(rec.torn_bytes, 5);
            assert!(rec.skipped_generations.is_empty());
            assert_eq!(rec.wal.state().next_seq, ops.len() as u64 + 1);
            let queries: Vec<Vec<f32>> = vec![row(0), row(17), row(63)];
            assert_rank_identical(&rec.index, &live, &queries);
            // recovered shards are byte-identical, not just rank-identical
            for s in 0..icfg.num_shards {
                assert_eq!(rec.index.shard_ids(s), live.shard_ids(s));
                assert_eq!(rec.index.shard_rows(s), live.shard_rows(s));
            }
        }
    }

    #[test]
    fn empty_dir_recovers_to_a_fresh_index() {
        let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
        let dcfg = DurabilityConfig::new("/fresh");
        let rec = recover(Arc::clone(&storage), &dcfg, IndexConfig::default()).unwrap();
        assert_eq!(rec.index.num_encoded(), 0);
        assert_eq!(
            (rec.snapshot_seq, rec.replayed_ops, rec.torn_bytes),
            (0, 0, 0)
        );
        assert_eq!(rec.wal.state().next_seq, 1);
        assert!(rec.tokenizer.is_none() && rec.model.is_none());
    }

    /// A corrupt newest generation falls back to the previous one as long
    /// as the WAL still covers the gap; once the WAL has been compacted
    /// past it, the same corruption is unrecoverable and must be a typed
    /// error.
    #[test]
    fn corrupt_newest_snapshot_falls_back_or_fails_loudly() {
        let hidden = 4;
        let rows = synth_rows(20, hidden, 33);
        let icfg = IndexConfig {
            num_shards: 2,
            encode_batch: 4,
            precision: ScanPrecision::F32,
            ..Default::default()
        };
        let build = |compact: bool| {
            let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
            let dcfg = DurabilityConfig::new("/d");
            let mut live = ShardedIndex::new(icfg);
            let mut wal =
                Wal::create(Arc::clone(&storage), dcfg.dir.join(WAL_FILE), false, 1).unwrap();
            for i in 0..16usize {
                let op = WalOp::Insert {
                    id: i as u64,
                    row: rows[i * hidden..(i + 1) * hidden].to_vec(),
                };
                wal.append(&op).unwrap();
                live.insert_row(i as u64, &rows[i * hidden..(i + 1) * hidden]);
                if i == 7 {
                    // older generation at seq 8, WAL keeps running
                    write_generation(storage.as_ref(), &dcfg.dir, &live, 8);
                }
            }
            if compact {
                checkpoint(Arc::clone(&storage), &dcfg, &live, None, None, &mut wal).unwrap();
            } else {
                write_generation(storage.as_ref(), &dcfg.dir, &live, 16);
            }
            // corrupt the newest generation (seq 16) on disk
            flip_payload_byte(storage.as_ref(), &dcfg.dir, 16);
            (storage, dcfg, live)
        };

        // WAL intact: fall back to seq 8, replay 9..16, same rankings
        let (storage, dcfg, live) = build(false);
        let rec = recover(Arc::clone(&storage), &dcfg, icfg).unwrap();
        assert_eq!(rec.snapshot_seq, 8);
        assert_eq!(rec.replayed_ops, 8);
        assert_eq!(rec.skipped_generations.len(), 1);
        assert_eq!(rec.skipped_generations[0].0, artifact_file_name(16));
        assert!(rec.skipped_generations[0].1.is_corruption());
        assert_rank_identical(&rec.index, &live, &[rows[..hidden].to_vec()]);

        // WAL compacted at 16: ops 9..16 exist nowhere — typed error
        let (storage, dcfg, _) = build(true);
        let err = recover(storage, &dcfg, icfg).unwrap_err();
        assert!(
            matches!(
                err,
                PersistError::Store(StoreError::SeqGap {
                    expected: 9,
                    found: 16
                })
            ),
            "got {err}"
        );
    }

    /// Every fault the injectable storage can produce ends in a typed
    /// error or an exact ranking — never a silently wrong one.
    #[test]
    fn injected_faults_never_yield_wrong_rankings() {
        let hidden = 4;
        let rows = synth_rows(10, hidden, 55);
        let icfg = IndexConfig {
            num_shards: 2,
            encode_batch: 4,
            precision: ScanPrecision::F32,
            ..Default::default()
        };
        let inner = Arc::new(MemStorage::new());
        let faulty = Arc::new(FaultStorage::new(Arc::clone(&inner) as Arc<dyn Storage>));
        let storage: Arc<dyn Storage> = Arc::clone(&faulty) as Arc<dyn Storage>;
        let dcfg = DurabilityConfig::new("/d");
        let mut live = ShardedIndex::new(icfg);
        let mut wal = Wal::create(Arc::clone(&storage), dcfg.dir.join(WAL_FILE), false, 1).unwrap();
        for i in 0..10usize {
            wal.append(&WalOp::Insert {
                id: i as u64,
                row: rows[i * hidden..(i + 1) * hidden].to_vec(),
            })
            .unwrap();
            live.insert_row(i as u64, &rows[i * hidden..(i + 1) * hidden]);
        }
        checkpoint(Arc::clone(&storage), &dcfg, &live, None, None, &mut wal).unwrap();
        wal.append(&WalOp::Remove { id: 3 }).unwrap();
        live.remove(3);
        let queries = [rows[..hidden].to_vec()];

        // bit flip on every generation read: none verifies, and the WAL
        // alone cannot reproduce the compacted ops — typed error
        faulty.set_plan(FaultPlan {
            flip_on_read: Some(("artifact-".into(), 30, 0x04)),
            ..Default::default()
        });
        let err = recover(Arc::clone(&storage), &dcfg, icfg).unwrap_err();
        assert!(err.is_corruption(), "got {err}");

        // faults cleared: the same directory recovers exactly
        faulty.set_plan(FaultPlan::default());
        let rec = recover(Arc::clone(&storage), &dcfg, icfg).unwrap();
        assert_eq!(rec.replayed_ops, 1);
        assert_rank_identical(&rec.index, &live, &queries);

        // mid-log WAL corruption: append a second record so the corrupt
        // one is not the (repairable) tail, flip a payload byte in the
        // first — typed error, never a partially-replayed index
        wal.append(&WalOp::Remove { id: 4 }).unwrap();
        let wal_path = dcfg.dir.join(WAL_FILE);
        let mut bytes = inner.read(&wal_path).unwrap();
        bytes[10] ^= 0x01;
        inner.write_atomic(&wal_path, &bytes).unwrap();
        let err = recover(Arc::clone(&inner) as Arc<dyn Storage>, &dcfg, icfg).unwrap_err();
        assert!(err.is_corruption(), "got {err}");
    }

    /// `GBM_SNAPSHOT_DIR` / `GBM_WAL_FSYNC` apply when valid and fall back
    /// loudly when not — one test, because env vars are process-wide.
    #[test]
    fn persistence_env_knobs_apply_and_fall_back() {
        std::env::remove_var("GBM_SNAPSHOT_DIR");
        std::env::remove_var("GBM_WAL_FSYNC");
        let base = DurabilityConfig::new("/default");
        let cfg = base.clone().with_env();
        assert_eq!(cfg.dir, PathBuf::from("/default"));
        assert!(!cfg.fsync_each);

        std::env::set_var("GBM_SNAPSHOT_DIR", "/from-env");
        std::env::set_var("GBM_WAL_FSYNC", "true");
        let cfg = base.clone().with_env();
        assert_eq!(cfg.dir, PathBuf::from("/from-env"));
        assert!(cfg.fsync_each);

        // an unparsable bool warns and keeps the default
        std::env::set_var("GBM_WAL_FSYNC", "yes please");
        let cfg = base.clone().with_env();
        assert!(!cfg.fsync_each);

        std::env::remove_var("GBM_SNAPSHOT_DIR");
        std::env::remove_var("GBM_WAL_FSYNC");
    }

    /// Tokenizer and model ride the checkpoint and come back functionally
    /// identical (same encodings, bit-identical weights).
    #[test]
    fn tokenizer_and_model_roundtrip_through_recovery() {
        use gbm_tokenizer::TokenizerConfig;
        let corpus = ["add i64 %1 %2", "mul i64 %3 %1", "ret i64 %3"];
        let tok = Tokenizer::train(corpus.iter().copied(), TokenizerConfig::default());
        let spec = {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(3);
            let model = gbm_nn::GraphBinMatch::new(
                gbm_nn::GraphBinMatchConfig::small(tok.vocab_size()),
                &mut rng,
            );
            ModelSpec::capture(&model)
        };
        let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
        let dcfg = DurabilityConfig::new("/d");
        let index = ShardedIndex::new(IndexConfig::default());
        let mut wal = Wal::create(Arc::clone(&storage), dcfg.dir.join(WAL_FILE), false, 1).unwrap();
        checkpoint(
            Arc::clone(&storage),
            &dcfg,
            &index,
            Some(&tok),
            Some(&spec),
            &mut wal,
        )
        .unwrap();
        let rec = recover(storage, &dcfg, IndexConfig::default()).unwrap();
        let rtok = rec.tokenizer.expect("tokenizer captured");
        for text in &corpus {
            assert_eq!(rtok.encode(text), tok.encode(text));
        }
        let rspec = rec.model.expect("model captured");
        assert_eq!(rspec, spec, "config and weights bit-identical");
    }

    /// A filesystem that tears the "atomic" write of the newest checkpoint
    /// never leaves a loadable partial: recovery skips and lists the torn
    /// generation, starts from the previous one, and the WAL covers the
    /// rest.
    #[test]
    fn torn_checkpoint_never_leaves_a_loadable_partial() {
        let hidden = 4;
        let rows = synth_rows(6, hidden, 61);
        let faulty = Arc::new(FaultStorage::new(Arc::new(MemStorage::new())));
        let storage: Arc<dyn Storage> = Arc::clone(&faulty) as Arc<dyn Storage>;
        let dcfg = DurabilityConfig::new("/d");
        let mut live = ShardedIndex::new(IndexConfig::default());
        let mut wal = Wal::create(Arc::clone(&storage), dcfg.dir.join(WAL_FILE), false, 1).unwrap();
        for i in 0..6usize {
            let row = rows[i * hidden..(i + 1) * hidden].to_vec();
            live.insert_row(i as u64, &row);
            wal.append(&WalOp::Insert { id: i as u64, row }).unwrap();
            if i == 2 {
                write_generation(storage.as_ref(), &dcfg.dir, &live, 3);
                // the next artifact write is torn at 100 bytes
                faulty.set_plan(FaultPlan {
                    torn_write_atomic: Some((1, 100)),
                    ..Default::default()
                });
            }
        }
        write_generation(storage.as_ref(), &dcfg.dir, &live, 6);
        let rec = recover(storage, &dcfg, IndexConfig::default()).unwrap();
        assert_eq!(rec.snapshot_seq, 3, "fell back past the torn file");
        assert_eq!(rec.replayed_ops, 3);
        assert_eq!(rec.skipped_generations.len(), 1);
        assert!(rec.skipped_generations[0].1.is_corruption());
        assert_rank_identical(&rec.index, &live, &[rows[..hidden].to_vec()]);
    }
}
