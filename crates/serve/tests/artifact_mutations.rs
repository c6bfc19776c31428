//! Mutation suite over v2 checkpoint bytes. A checkpoint generation — three
//! int8 shards plus the index-level tokenizer and model sections — is
//! flipped, truncated, extended and misaligned at every section payload,
//! every TOC entry and every header byte. Each mutant must
//!
//! * fail with a typed `ArtifactError` from `parse`, `verify`, `shard`,
//!   `tokenizer` or `model`;
//! * make `recover()` fall back to the older generation — rank-identical to
//!   the live index — or fail with a typed error, never panic;
//! * when the lazy `ReadOnlyIndex::from_map` still accepts it, answer
//!   queries without panicking.
//!
//! The last point, together with the two hand-built files at the end, shows
//! that the int8 and IVF scans' "requires the quantized mirror" `expect`s
//! cannot be reached from any file that parses: a populated shard of a
//! quantized index without its mirror is refused at open.

use std::sync::Arc;

use gbm_artifact::{
    artifact_file_name, encode_artifact, publish_artifact, ArtifactError, ArtifactIvf, ArtifactMap,
    ArtifactMeta, ArtifactShard, ArtifactView, HeapMap, PrecisionTag, HEADER_LEN, PAGE_ALIGN,
};
use gbm_nn::{GraphBinMatch, GraphBinMatchConfig, ModelSpec};
use gbm_serve::{
    encode_index_artifact, recover, DurabilityConfig, IndexConfig, ReadOnlyIndex, ScanPrecision,
    ShardedIndex,
};
use gbm_store::{crc32, MemStorage, Storage, Wal, WalOp, WAL_FILE};
use gbm_tokenizer::{Tokenizer, TokenizerConfig};
use rand::SeedableRng;

const HIDDEN: usize = 4;
const OPS: u64 = 10;
const OLDER: u64 = 5;

fn row(i: u64) -> Vec<f32> {
    (0..HIDDEN)
        .map(|d| ((i * 7 + d as u64 * 3) % 11) as f32 / 5.0 - 1.0)
        .collect()
}

struct Fixture {
    storage: Arc<dyn Storage>,
    dcfg: DurabilityConfig,
    live: ShardedIndex,
    /// The newest generation's pristine bytes.
    newest: Vec<u8>,
}

/// A WAL of `OPS` inserts with two generations that were never compacted
/// away (seq `OLDER` and the newest, `OPS`), so a corrupt newest one can
/// always fall back.
fn fixture() -> Fixture {
    let tok = Tokenizer::train(
        ["add i64 %1 %2", "ret i64 %1"].into_iter(),
        TokenizerConfig::default(),
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let model = ModelSpec::capture(&GraphBinMatch::new(
        GraphBinMatchConfig::tiny(tok.vocab_size()),
        &mut rng,
    ));
    let icfg = IndexConfig {
        num_shards: 3,
        precision: ScanPrecision::Int8 { widen: 2 },
        ..Default::default()
    };
    let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
    let dcfg = DurabilityConfig::new("/d");
    let mut wal = Wal::create(Arc::clone(&storage), dcfg.dir.join(WAL_FILE), false, 1).unwrap();
    let mut live = ShardedIndex::new(icfg);
    let mut newest = Vec::new();
    for id in 0..OPS {
        wal.append(&WalOp::Insert { id, row: row(id) }).unwrap();
        live.insert_row(id, &row(id));
        let seq = id + 1;
        if seq == OLDER || seq == OPS {
            newest = encode_index_artifact(&live, seq, Some(&tok), Some(&model));
            publish_artifact(storage.as_ref(), &dcfg.dir, seq, &newest).unwrap();
        }
    }
    Fixture {
        storage,
        dcfg,
        live,
        newest,
    }
}

/// The first typed error the full reader surface reports, if any.
fn first_error(bytes: &[u8]) -> Option<ArtifactError> {
    let map = HeapMap::from_bytes(bytes);
    let check = || -> Result<(), ArtifactError> {
        let view = ArtifactView::parse(map.bytes())?;
        view.verify()?;
        for s in 0..view.meta().num_shards {
            view.shard(s)?;
        }
        view.tokenizer()?;
        view.model()?;
        Ok(())
    };
    check().err()
}

/// Re-seals the TOC checksum, so a mutation reaches the structural checks
/// behind it instead of stopping at the crc.
fn reseal_toc(bytes: &mut [u8]) {
    let count = u32::from_le_bytes(bytes[44..48].try_into().unwrap()) as usize;
    let end = HEADER_LEN + count * 32;
    let crc = crc32(&bytes[HEADER_LEN..end]);
    bytes[end..end + 4].copy_from_slice(&crc.to_le_bytes());
}

fn patch_u64(bytes: &mut [u8], at: usize, f: impl Fn(u64) -> u64) {
    let v = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    bytes[at..at + 8].copy_from_slice(&f(v).to_le_bytes());
}

/// Every mutant of `good`, labelled.
fn mutants(good: &[u8]) -> Vec<(String, Vec<u8>)> {
    let sections = ArtifactView::parse(good).unwrap().sections().to_vec();
    let mut out = Vec::new();
    let mut push = |what: String, f: &dyn Fn(&mut Vec<u8>)| {
        let mut b = good.to_vec();
        f(&mut b);
        out.push((what, b));
    };
    for at in 0..HEADER_LEN {
        push(format!("flip header byte {at}"), &|b| b[at] ^= 0x01);
    }
    for (i, e) in sections.iter().enumerate() {
        let entry = HEADER_LEN + i * 32;
        let tag = format!("{:?} shard {}", e.kind, e.shard);
        for at in entry..entry + 32 {
            push(format!("flip toc byte {at} ({tag})"), &|b| b[at] ^= 0x80);
        }
        for delta in [1, 8, PAGE_ALIGN as u64] {
            push(format!("misalign {tag} by {delta}"), &|b| {
                patch_u64(b, entry + 8, |o| o + delta);
                reseal_toc(b);
            });
        }
        push(format!("extend {tag} length"), &|b| {
            patch_u64(b, entry + 16, |l| l + 4);
            reseal_toc(b);
        });
        push(format!("insert a byte before {tag}"), &|b| {
            b.insert(e.offset, 0)
        });
        push(format!("truncate at {tag}"), &|b| b.truncate(e.offset));
        if e.len == 0 {
            continue;
        }
        push(format!("truncate inside {tag}"), &|b| {
            b.truncate(e.offset + e.len / 2)
        });
        for at in [e.offset, e.offset + e.len / 2, e.offset + e.len - 1] {
            push(format!("flip {tag} payload byte {at}"), &|b| b[at] ^= 0x10);
        }
    }
    push("append a byte".into(), &|b| b.push(0));
    push("append a page".into(), &|b| b.extend([0; PAGE_ALIGN]));
    out
}

#[test]
fn every_mutant_is_a_typed_error_and_recovery_falls_back() {
    let fx = fixture();
    assert!(first_error(&fx.newest).is_none(), "the pristine file reads");
    let path = fx.dcfg.dir.join(artifact_file_name(OPS));
    let queries: Vec<Vec<f32>> = (0..OPS).step_by(3).map(row).collect();
    let cases = mutants(&fx.newest);
    assert!(cases.len() > 500, "{} mutants", cases.len());
    for (what, bytes) in &cases {
        let err = first_error(bytes);
        assert!(err.is_some(), "{what}: mutant read cleanly");

        // the lazy open may accept a payload flip; serving it never panics
        if let Ok(ro) = ReadOnlyIndex::from_map(Box::new(HeapMap::from_bytes(bytes))) {
            for q in &queries {
                for k in [1, 64] {
                    ro.query(q, k);
                }
            }
        }

        fx.storage.write_atomic(&path, bytes).unwrap();
        let rec = recover(Arc::clone(&fx.storage), &fx.dcfg, IndexConfig::default())
            .unwrap_or_else(|e| panic!("{what}: the older generation is intact, got {e}"));
        assert_eq!(rec.snapshot_seq, OLDER, "{what}");
        assert_eq!(rec.replayed_ops as u64, OPS - OLDER, "{what}");
        assert_eq!(rec.skipped_generations.len(), 1, "{what}");
        assert!(rec.tokenizer.is_some() && rec.model.is_some(), "{what}");
        for q in &queries {
            assert_eq!(rec.index.query(q, 5), fx.live.query(q, 5), "{what}");
        }
    }
    fx.storage.write_atomic(&path, &fx.newest).unwrap();
    let rec = recover(fx.storage, &fx.dcfg, IndexConfig::default()).unwrap();
    assert_eq!(rec.snapshot_seq, OPS, "the pristine newest generation wins");
}

/// A populated shard of an int8 or IVF index without its mirror is refused
/// when the file is opened, so the scans' mirror `expect`s are unreachable.
#[test]
fn a_quantized_index_without_its_mirror_does_not_open() {
    let fx = fixture();
    let map = HeapMap::from_bytes(&fx.newest);
    let view = ArtifactView::parse(map.bytes()).unwrap();
    let mut shards: Vec<ArtifactShard> = (0..3).map(|s| view.shard(s).unwrap()).collect();
    shards.iter_mut().for_each(|s| s.quant = None);
    let int8 = *view.meta();
    assert_mirror_refused(&encode_artifact(&int8, &shards, None, None));

    // an IVF index whose shard 0 has a trained one-cell table but no mirror
    let n = shards[0].ids.len();
    assert!(n > 0);
    let members: Vec<u32> = (0..n as u32).collect();
    let (cell_of, offsets, centroids) = (vec![0u32; n], [0, n as u32], [0.0f32; HIDDEN]);
    shards[0].ivf = Some(ArtifactIvf {
        centroids: &centroids,
        sqnorms: &[0.0],
        offsets: &offsets,
        members: &members,
        cell_of: &cell_of,
    });
    let ivf = ArtifactMeta {
        precision: PrecisionTag::Ivf {
            nprobe: 1,
            widen: 2,
            cells: 1,
        },
        ..int8
    };
    assert_mirror_refused(&encode_artifact(&ivf, &shards, None, None));
}

fn assert_mirror_refused(bytes: &[u8]) {
    assert!(matches!(
        ReadOnlyIndex::from_map(Box::new(HeapMap::from_bytes(bytes))),
        Err(ArtifactError::Malformed { .. })
    ));
    assert!(matches!(
        first_error(bytes),
        Some(ArtifactError::Malformed { .. })
    ));
}
