//! The serving state one checkpoint generation images — the owned index,
//! the tokenizer and model captured with it, and the WAL frontier it folds
//! in — and the way back from generation bytes to that state. The write
//! side is [`encode_index_artifact`](crate::encode_index_artifact);
//! [`persist::checkpoint`](crate::persist::checkpoint) publishes it.
//!
//! Decoding is the full integrity path: header and TOC parse, every
//! payload checksum and padding byte ([`ArtifactView::verify`]), then the
//! structural invariants no checksum can see (ids filed under the shard
//! they hash to, no repeated id, the int8 mirror bit-equal to a
//! requantization of the stored rows). Anything else is a typed error.
//! [`load_newest_generation`] is the directory-level half recovery starts
//! from: the newest generation that passes, plus every newer one that did
//! not and why.

use std::path::Path;

use gbm_artifact::{
    parse_artifact_seq, ArtifactError, ArtifactMap, ArtifactView, HeapMap, SectionKind,
};
use gbm_nn::ModelSpec;
use gbm_store::{Storage, StoreError};
use gbm_tokenizer::Tokenizer;

use crate::artifact::index_config;
use crate::index::{shard_of, ShardedIndex};
use crate::persist::PersistError;

/// The owned serving state decoded from one generation.
pub struct Snapshot {
    /// The index, rows in their stored (tie-break) order.
    pub index: ShardedIndex,
    /// The tokenizer captured with the index, when present.
    pub tokenizer: Option<Tokenizer>,
    /// The model captured with the index, when present.
    pub model: Option<ModelSpec>,
    /// The last WAL sequence number folded into the generation.
    pub last_seq: u64,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("rows", &self.index.num_encoded())
            .field("tokenizer", &self.tokenizer.is_some())
            .field("model", &self.model.is_some())
            .field("last_seq", &self.last_seq)
            .finish_non_exhaustive()
    }
}

/// Generation file names that failed verification, newest first, each
/// with the reason.
pub type SkippedGenerations = Vec<(String, ArtifactError)>;

/// Decodes generation bytes through the full integrity path.
pub fn decode_generation(bytes: &[u8]) -> Result<Snapshot, PersistError> {
    let map = HeapMap::from_bytes(bytes);
    let view = ArtifactView::parse(map.bytes())?;
    view.verify()?;
    from_view(&view)
}

/// Loads the newest generation in `dir` that passes the full integrity
/// pass and whose header sequence number matches its file name. Newer
/// generations that fail are returned newest first, with their error: a
/// skipped generation means a longer WAL replay than intended. A missing
/// or empty directory is `Ok((None, []))`. A generation that verifies but
/// fails a structural check is an error, not a fallback.
pub fn load_newest_generation(
    storage: &dyn Storage,
    dir: &Path,
) -> Result<(Option<Snapshot>, SkippedGenerations), PersistError> {
    let mut generations: Vec<(u64, String)> = storage
        .list(dir)
        .map_err(StoreError::from)?
        .into_iter()
        .filter_map(|name| parse_artifact_seq(&name).map(|seq| (seq, name)))
        .collect();
    generations.sort_unstable();
    let mut skipped = Vec::new();
    for (seq, name) in generations.into_iter().rev() {
        match read_verified(storage, &dir.join(&name), seq) {
            Ok(map) => {
                let snapshot = from_view(&ArtifactView::parse(map.bytes())?)?;
                return Ok((Some(snapshot), skipped));
            }
            Err(e) => skipped.push((name, e)),
        }
    }
    Ok((None, skipped))
}

/// Reads generation `seq` and runs the full integrity pass: header and
/// TOC parse, every payload checksum, and the file name agreeing with the
/// sequence number the header carries.
fn read_verified(storage: &dyn Storage, path: &Path, seq: u64) -> Result<HeapMap, ArtifactError> {
    let map = HeapMap::from_bytes(&storage.read(path)?);
    let view = ArtifactView::parse(map.bytes())?;
    view.verify()?;
    if view.meta().last_seq != seq {
        return Err(ArtifactError::Malformed {
            what: format!("generation {seq} carries last_seq {}", view.meta().last_seq),
        });
    }
    Ok(map)
}

fn from_view(view: &ArtifactView) -> Result<Snapshot, PersistError> {
    let tokenizer = view.tokenizer()?.map(|t| {
        Tokenizer::from_parts(t.entries, t.seq_len as usize, t.normalize_vars)
            .map_err(PersistError::Tokenizer)
    });
    let model = view
        .model()?
        .map(|m| ModelSpec::from_words(&m.config, m.weights).map_err(PersistError::Model));
    Ok(Snapshot {
        index: restore(view)?,
        tokenizer: tokenizer.transpose()?,
        model: model.transpose()?,
        last_seq: view.meta().last_seq,
    })
}

/// Rebuilds the owned, mutable index a verified generation images,
/// checking every structural invariant the checksums cannot see: ids hash
/// to the shards they are filed under, and (for int8 tiers) the stored
/// mirror is bit-equal to a deterministic requantization of the stored
/// rows. Row order is preserved exactly — it is the ranking tie-break.
fn restore(view: &ArtifactView) -> Result<ShardedIndex, PersistError> {
    let meta = view.meta();
    let hidden = meta.hidden;
    if hidden == 0
        && view
            .sections()
            .iter()
            .any(|e| e.kind == SectionKind::Ids && e.len > 0)
    {
        return Err(PersistError::WidthMismatch {
            what: "the generation files rows under width 0".into(),
        });
    }
    let mut index = ShardedIndex::new(index_config(meta));
    if hidden > 0 {
        index.set_hidden(hidden);
    }
    for s in 0..meta.num_shards {
        let shard = view.shard(s)?;
        for (r, &id) in shard.ids.iter().enumerate() {
            let expected = shard_of(id, meta.num_shards);
            if expected != s {
                return Err(PersistError::ShardMismatch {
                    id,
                    expected,
                    found: s,
                });
            }
            index.insert_row(id, &shard.rows[r * hidden..(r + 1) * hidden]);
        }
        // a repeated id replaces its earlier row, which a mapped reader of
        // the same file would not do
        if index.shard_ids(s) != shard.ids {
            let what = format!("shard {s} repeats an id");
            return Err(ArtifactError::Malformed { what }.into());
        }
        // ids hash to this shard and arrived in row order, so the rebuilt
        // shard's ids/rows are the stored ones; verify the quant mirror
        // (0-row mirrors normalize to "absent" on both sides)
        let rebuilt = index.shard_quant(s).filter(|q| q.rows() > 0);
        let same = match (shard.quant, rebuilt) {
            (None, None) => true,
            (Some(stored), Some(q)) => {
                q.matrix()
                    .is_some_and(|m| stored.codes == m.codes() && stored.scales == m.scales())
                    && stored.block_scale == q.block_scale()
                    && stored.block_l1 == q.block_l1()
            }
            _ => false,
        };
        if !same {
            return Err(PersistError::QuantMismatch { shard: s });
        }
    }
    Ok(index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode_index_artifact;
    use crate::index::IndexConfig;
    use crate::quantized::ScanPrecision;
    use gbm_artifact::{artifact_file_name, publish_artifact, HEADER_LEN};
    use gbm_nn::GraphBinMatchConfig;
    use gbm_store::{FaultPlan, FaultStorage, MemStorage};
    use std::sync::Arc;

    /// Two int8 shards (one row holds -0.0), a tokenizer with a non-ASCII
    /// token, and a model whose weights end in -0.0.
    fn sample_parts(precision: ScanPrecision) -> (ShardedIndex, Tokenizer, ModelSpec) {
        let mut index = ShardedIndex::new(IndexConfig {
            num_shards: 2,
            encode_batch: 8,
            precision,
            ivf_cells: 0,
        });
        let rows: [[f32; 3]; 4] = [
            [1.0, -2.0, 0.5],
            [0.0, -0.0, 3.25],
            [9.0, 8.0, 7.0],
            [-0.5, 0.25, -4.0],
        ];
        for (id, row) in [4u64, 10, 7, 21].into_iter().zip(rows) {
            index.insert_row(id, &row);
        }
        // the first id past the four specials ([PAD] [UNK] [VAR] [LABEL])
        let first = Tokenizer::LABEL + 1;
        let tokenizer = Tokenizer::from_parts(
            vec![("mov".into(), first), ("añadir".into(), first + 1)],
            16,
            true,
        )
        .unwrap();
        let model = ModelSpec {
            cfg: GraphBinMatchConfig::small(first as usize + 2),
            weights: vec![0.1, -0.2, 0.3, -0.0],
        };
        (index, tokenizer, model)
    }

    fn sample(last_seq: u64) -> Vec<u8> {
        let (index, tokenizer, model) = sample_parts(ScanPrecision::Int8 { widen: 4 });
        encode_index_artifact(&index, last_seq, Some(&tokenizer), Some(&model))
    }

    fn config_fields(c: IndexConfig) -> (usize, usize, ScanPrecision, usize) {
        (c.num_shards, c.encode_batch, c.precision, c.ivf_cells)
    }

    fn assert_same_index(a: &ShardedIndex, b: &ShardedIndex) {
        assert_eq!(config_fields(a.config()), config_fields(b.config()));
        assert_eq!(a.hidden(), b.hidden());
        for s in 0..a.num_shards() {
            assert_eq!(a.shard_ids(s), b.shard_ids(s), "row order");
            let bits = |rows: &[f32]| rows.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a.shard_rows(s)), bits(b.shard_rows(s)), "bit-exact");
            let codes = |i: &ShardedIndex| {
                i.shard_quant(s)
                    .and_then(|q| q.matrix())
                    .map(|m| (m.codes().to_vec(), m.scales().to_vec()))
            };
            assert_eq!(codes(a), codes(b), "quant mirror");
        }
    }

    /// Flips a byte in the middle of generation `seq`'s largest payload.
    fn flip_payload_byte(storage: &dyn Storage, dir: &Path, seq: u64) {
        let path = dir.join(artifact_file_name(seq));
        let mut bytes = storage.read(&path).unwrap();
        let at = largest_payload_middle(&bytes);
        bytes[at] ^= 0xFF;
        storage.write_atomic(&path, &bytes).unwrap();
    }

    fn largest_payload_middle(bytes: &[u8]) -> usize {
        let map = HeapMap::from_bytes(bytes);
        let view = ArtifactView::parse(map.bytes()).unwrap();
        let e = view.sections().iter().max_by_key(|e| e.len).unwrap();
        e.offset + e.len / 2
    }

    #[test]
    fn encode_decode_roundtrips_bit_exactly() {
        let (index, tokenizer, model) = sample_parts(ScanPrecision::Int8 { widen: 4 });
        let decoded = decode_generation(&sample(42)).unwrap();
        assert_eq!(decoded.last_seq, 42);
        assert_same_index(&decoded.index, &index);
        let tok = decoded.tokenizer.expect("tokenizer section");
        assert_eq!(tok.vocab_entries(), tokenizer.vocab_entries());
        assert_eq!(tok.seq_len(), 16);
        assert!(tok.normalize_vars());
        let spec = decoded.model.expect("model section");
        assert_eq!(spec, model);
        // -0.0 survives as -0.0, in rows and in weights
        let s = shard_of(10, 2);
        let r = decoded
            .index
            .shard_ids(s)
            .iter()
            .position(|&id| id == 10)
            .unwrap();
        assert!(decoded.index.shard_rows(s)[r * 3 + 1].is_sign_negative());
        assert!(spec.weights[3].is_sign_negative());
    }

    #[test]
    fn minimal_snapshots_roundtrip() {
        // empty index, no quant, no tokenizer, no model
        let cfg = IndexConfig {
            num_shards: 1,
            encode_batch: 1,
            precision: ScanPrecision::F32,
            ivf_cells: 0,
        };
        let empty = ShardedIndex::new(cfg);
        let decoded = decode_generation(&encode_index_artifact(&empty, 0, None, None)).unwrap();
        assert_eq!(decoded.last_seq, 0);
        assert_eq!(config_fields(decoded.index.config()), config_fields(cfg));
        assert_eq!(decoded.index.num_encoded(), 0);
        assert!(decoded.tokenizer.is_none() && decoded.model.is_none());
    }

    #[test]
    fn ivf_precision_tag_roundtrips() {
        let precision = ScanPrecision::Ivf {
            nprobe: 6,
            widen: 3,
        };
        let (index, tokenizer, model) = sample_parts(precision);
        let bytes = encode_index_artifact(&index, 9, Some(&tokenizer), Some(&model));
        let decoded = decode_generation(&bytes).unwrap();
        assert_eq!(decoded.last_seq, 9);
        assert_eq!(decoded.index.config().precision, precision);
        assert_eq!(decoded.index.config().ivf_cells, 0);
        assert_same_index(&decoded.index, &index);
    }

    #[test]
    fn every_bit_flip_is_detected() {
        // header, TOC, payloads and padding alike
        let bytes = sample(1);
        let mut flipped = bytes.clone();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                flipped[byte] ^= 1 << bit;
                match decode_generation(&flipped) {
                    Err(e) => assert!(e.is_corruption(), "byte {byte} bit {bit}: {e}"),
                    Ok(_) => panic!("flip at byte {byte} bit {bit} decoded successfully"),
                }
                flipped[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn truncations_are_typed_errors() {
        let bytes = sample(1);
        for cut in 0..bytes.len() {
            let err = decode_generation(&bytes[..cut]).unwrap_err();
            assert!(err.is_corruption(), "cut at {cut}: {err}");
        }
        // trailing garbage is also rejected
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_generation(&long).unwrap_err().is_corruption());
    }

    #[test]
    fn file_names_order_by_seq_and_parse_back() {
        let storage = MemStorage::new();
        let dir = Path::new("/d");
        // 9 → 10 crosses a digit boundary: newest is picked numerically
        publish_artifact(&storage, dir, 9, &sample(9)).unwrap();
        publish_artifact(&storage, dir, 10, &sample(10)).unwrap();
        // foreign names are not generations, whatever they hold
        storage
            .write_atomic(&dir.join("artifact-11.gbm"), &sample(11))
            .unwrap();
        let tmp = format!("{}.tmp", artifact_file_name(12));
        storage.write_atomic(&dir.join(tmp), &sample(12)).unwrap();
        let (loaded, skipped) = load_newest_generation(&storage, dir).unwrap();
        assert_eq!(loaded.unwrap().last_seq, 10);
        assert!(skipped.is_empty(), "{skipped:?}");

        // a generation whose header seq disagrees with its name is skipped,
        // and the reported name parses back to the seq it claims
        storage
            .write_atomic(&dir.join(artifact_file_name(13)), &sample(3))
            .unwrap();
        let (loaded, skipped) = load_newest_generation(&storage, dir).unwrap();
        assert_eq!(loaded.unwrap().last_seq, 10);
        assert_eq!(skipped.len(), 1);
        assert_eq!(parse_artifact_seq(&skipped[0].0), Some(13));
        assert!(matches!(skipped[0].1, ArtifactError::Malformed { .. }));
    }

    #[test]
    fn newest_valid_snapshot_wins_and_corrupt_ones_are_reported() {
        let storage = MemStorage::new();
        let dir = Path::new("/d");
        publish_artifact(&storage, dir, 5, &sample(5)).unwrap();
        publish_artifact(&storage, dir, 9, &sample(9)).unwrap();
        storage
            .append(dir.join(gbm_store::WAL_FILE).as_path(), b"not a snapshot")
            .unwrap();

        let (loaded, skipped) = load_newest_generation(&storage, dir).unwrap();
        assert_eq!(loaded.unwrap().last_seq, 9);
        assert!(skipped.is_empty());

        // corrupt the newest: loader falls back to seq 5 and reports it
        flip_payload_byte(&storage, dir, 9);
        let (loaded, skipped) = load_newest_generation(&storage, dir).unwrap();
        assert_eq!(loaded.unwrap().last_seq, 5);
        assert_eq!(skipped.len(), 1);
        assert!(skipped[0].0.contains("09.gbm") && skipped[0].1.is_corruption());

        // empty / missing dir: no snapshot, no error
        let (loaded, skipped) = load_newest_generation(&storage, Path::new("/empty")).unwrap();
        assert!(loaded.is_none() && skipped.is_empty());
    }

    #[test]
    fn bit_flip_on_read_surfaces_as_checksum_error() {
        let inner = Arc::new(MemStorage::new());
        let faulty = FaultStorage::new(Arc::clone(&inner) as Arc<dyn Storage>);
        let dir = Path::new("/d");
        let bytes = sample(3);
        publish_artifact(&faulty, dir, 3, &bytes).unwrap();
        for (at, header) in [
            (largest_payload_middle(&bytes), false),
            (HEADER_LEN - 12, true),
        ] {
            faulty.set_plan(FaultPlan {
                flip_on_read: Some(("artifact-".into(), at, 0x08)),
                ..Default::default()
            });
            let (loaded, skipped) = load_newest_generation(&faulty, dir).unwrap();
            assert!(loaded.is_none(), "flipped read at {at} must not verify");
            assert_eq!(skipped.len(), 1);
            assert!(
                matches!(skipped[0].1, ArtifactError::Checksum { .. }),
                "header {header}: {}",
                skipped[0].1
            );
        }
        // the bytes at rest were never touched
        faulty.set_plan(FaultPlan::default());
        let (loaded, _) = load_newest_generation(&faulty, dir).unwrap();
        assert_eq!(loaded.unwrap().last_seq, 3);
    }
}
