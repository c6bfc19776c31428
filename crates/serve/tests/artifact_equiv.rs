//! The v2 artifact acceptance suite: a [`ReadOnlyIndex`] serving straight
//! out of a mapped artifact answers **bit-identically** to the
//! [`ShardedIndex`] that published it — ids, scores, tie order, and scan
//! accounting — at F32 and Int8 across shard counts, and identically at
//! Ivf too (the artifact serializes the trained cell tables instead of
//! retraining). Plus: the publish/poll generation protocol, metrics, a
//! checkpoint served as a mapped generation, and the degenerate-index
//! round-trips both ways out of an artifact — mapped in place, and
//! restored into an owned index by recovery.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use gbm_serve::{
    checkpoint, encode_index_artifact, publish_index_artifact, recover, ArtifactConfig,
    ArtifactReader, DurabilityConfig, IndexConfig, MapKind, MetricsRegistry, ReadOnlyIndex,
    ScanPrecision, ShardedIndex,
};
use gbm_store::{FileStorage, MemStorage, Storage, Wal, WAL_FILE};

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic pseudo-random rows in `[-1, 1)`.
fn synth_matrix(n: usize, hidden: usize, mut state: u64) -> Vec<f32> {
    let mut rows = Vec::with_capacity(n * hidden);
    for _ in 0..n * hidden {
        state = splitmix64(state);
        rows.push((state % 2000) as f32 / 1000.0 - 1.0);
    }
    rows
}

/// `k` tight, well-separated clusters — the regime IVF trains well on.
fn clustered_matrix(n: usize, hidden: usize, k: usize, mut state: u64) -> Vec<f32> {
    let mut rows = Vec::with_capacity(n * hidden);
    for i in 0..n {
        let c = i % k;
        for d in 0..hidden {
            state = splitmix64(state);
            let jitter = (state % 1000) as f32 / 10_000.0 - 0.05;
            rows.push(if d % k == c { 3.0 + jitter } else { jitter });
        }
    }
    rows
}

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gbm-serve-artifact-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes `index`'s artifact to a scratch file and opens it both ways
/// (mmap-preferred and heap), returning the readers.
fn round_trip(index: &ShardedIndex, tag: &str) -> Vec<ReadOnlyIndex> {
    let dir = temp_dir(tag);
    let path = publish_index_artifact(index, &dir, 1).expect("publish");
    let mapped = ReadOnlyIndex::open(&path, true).expect("open mapped");
    let heap = ReadOnlyIndex::open(&path, false).expect("open heap");
    assert_eq!(heap.map_kind(), MapKind::Heap);
    assert!(!heap.fell_back(), "heap was asked for, not fallen back to");
    #[cfg(unix)]
    assert_eq!(mapped.map_kind(), MapKind::Mmap, "unix serves from a map");
    vec![mapped, heap]
}

/// The owned index recovery rebuilds from `index`'s checkpoint: the v2 →
/// owned-index restore, through in-memory storage.
fn restore_via_checkpoint(index: &ShardedIndex) -> ShardedIndex {
    let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
    let dcfg = DurabilityConfig::new("/d");
    let mut wal = Wal::create(Arc::clone(&storage), dcfg.dir.join(WAL_FILE), false, 1).unwrap();
    checkpoint(Arc::clone(&storage), &dcfg, index, None, None, &mut wal).expect("checkpoint");
    recover(storage, &dcfg, IndexConfig::default())
        .expect("own checkpoint recovers")
        .index
}

/// Full-surface equality: `query`, `query_stats` (answers *and*
/// accounting), and every contiguous 2-way `query_shards` split.
fn assert_rank_identical(ro: &ReadOnlyIndex, index: &ShardedIndex, query: &[f32], ctx: &str) {
    assert_eq!(ro.num_encoded(), index.num_encoded(), "{ctx}");
    assert_eq!(ro.hidden(), index.hidden(), "{ctx}");
    assert_eq!(ro.scan_bytes(), index.scan_bytes(), "{ctx}");
    let shards = index.num_shards();
    for k in [1usize, 3, 10, index.num_encoded() + 5] {
        let (want, want_stats) = index.query_stats(query, k);
        let (got, got_stats) = ro.query_stats(query, k);
        assert_eq!(got, want, "{ctx} k={k}: mapped ranking must be identical");
        assert_eq!(got_stats, want_stats, "{ctx} k={k}: scan accounting too");
        for mid in 0..=shards {
            let partials = vec![
                ro.query_shards(0..mid, query, k),
                ro.query_shards(mid..shards, query, k),
            ];
            assert_eq!(
                gbm_tensor::merge_ranked(&partials, k),
                want,
                "{ctx} k={k} split={mid}: mapped partials merge to the answer"
            );
            // each half's partial — answer AND accounting — equals the
            // live index's partial for the same range (including the
            // all-empty-range early-out, which skips accounting)
            for range in [0..mid, mid..shards] {
                assert_eq!(
                    ro.query_shards_stats(range.clone(), query, k),
                    index.query_shards_stats(range.clone(), query, k),
                    "{ctx} k={k} range={range:?}: partial vs live partial"
                );
            }
        }
    }
}

/// The tentpole acceptance criterion: F32 and Int8, 1/2/7 shards, both map
/// kinds — every ranking, tie, score bit, and stats counter equal.
#[test]
fn mapped_rankings_bit_identical_at_exact_tiers() {
    let hidden = 8;
    let n = 120;
    let rows = synth_matrix(n, hidden, 42);
    let queries = [
        rows[..hidden].to_vec(),
        rows[57 * hidden..58 * hidden].to_vec(),
        synth_matrix(1, hidden, 999),
    ];
    for shards in [1usize, 2, 7] {
        for precision in [ScanPrecision::F32, ScanPrecision::Int8 { widen: 3 }] {
            let index = ShardedIndex::from_rows(
                &rows,
                hidden,
                IndexConfig {
                    num_shards: shards,
                    precision,
                    ..Default::default()
                },
            );
            for ro in round_trip(&index, "exact") {
                let cfg = ro.config();
                assert_eq!(cfg.num_shards, shards, "config round-trips");
                assert_eq!(cfg.precision, index.config().precision);
                assert_eq!(ro.last_seq(), 1);
                ro.verify().expect("payload checksums hold");
                for query in &queries {
                    assert_rank_identical(
                        &ro,
                        &index,
                        query,
                        &format!("shards={shards} precision={precision:?}"),
                    );
                }
            }
        }
    }
}

/// Ivf identity: the artifact serializes the *trained* cell tables, so the
/// approximate tier's candidate sets — and therefore its exact-re-ranked
/// answers — match the live index bit-for-bit, not just within recall.
#[test]
fn mapped_ivf_rankings_identical_because_cells_are_serialized() {
    let hidden = 16;
    let n = 3 * gbm_quant::IVF_MIN_TRAIN_ROWS;
    let rows = clustered_matrix(n, hidden, 8, 11);
    let index = ShardedIndex::from_rows(
        &rows,
        hidden,
        IndexConfig {
            num_shards: 2,
            precision: ScanPrecision::Ivf {
                nprobe: 2,
                widen: 4,
            },
            ..Default::default()
        },
    );
    for s in 0..2 {
        assert!(index.shard_ivf(s).unwrap().is_trained(), "pool trains");
    }
    for ro in round_trip(&index, "ivf") {
        for qi in [0usize, 3, 101] {
            let query = &rows[qi * hidden..(qi + 1) * hidden];
            assert_rank_identical(&ro, &index, query, &format!("ivf q={qi}"));
        }
    }
}

/// The generation protocol: readers open `CURRENT`, poll to newer
/// generations, and an in-flight `Arc` keeps answering from the old
/// mapping across a swap.
#[test]
fn reader_polls_generations_without_dropping_in_flight_queries() {
    let hidden = 6;
    let dir = temp_dir("poll");
    let rows1 = synth_matrix(40, hidden, 7);
    let rows2 = synth_matrix(80, hidden, 8);
    let cfg = IndexConfig {
        num_shards: 3,
        precision: ScanPrecision::Int8 { widen: 2 },
        ..Default::default()
    };
    let gen1 = ShardedIndex::from_rows(&rows1, hidden, cfg);
    let gen2 = ShardedIndex::from_rows(&rows2, hidden, cfg);
    let query = synth_matrix(1, hidden, 101);

    // nothing published yet: open refuses, the caller retries later
    assert!(ArtifactReader::open(ArtifactConfig::new(&dir)).is_err());

    publish_index_artifact(&gen1, &dir, 1).unwrap();
    let registry = MetricsRegistry::new();
    let reader = ArtifactReader::with_metrics(ArtifactConfig::new(&dir), Some(&registry)).unwrap();
    assert_eq!(reader.generation(), 1);
    let in_flight = reader.current();
    assert_eq!(in_flight.query(&query, 5), gen1.query(&query, 5));

    // no newer generation: poll is a cheap no-op
    assert!(!reader.poll().unwrap());
    assert_eq!(reader.generation(), 1);

    publish_index_artifact(&gen2, &dir, 2).unwrap();
    assert!(reader.poll().unwrap(), "newer CURRENT observed");
    assert_eq!(reader.generation(), 2);
    assert_eq!(reader.current().query(&query, 5), gen2.query(&query, 5));
    // the Arc held across the swap still serves generation 1
    assert_eq!(in_flight.last_seq(), 1);
    assert_eq!(in_flight.query(&query, 5), gen1.query(&query, 5));

    // a stale (same-or-lower-seq) CURRENT never swaps backwards
    publish_index_artifact(&gen1, &dir, 2).ok();
    assert!(!reader.poll().unwrap());

    let snap = registry.snapshot();
    assert_eq!(snap.counter(gbm_obs::names::ARTIFACT_MAPS), Some(2));
    assert_eq!(snap.counter(gbm_obs::names::ARTIFACT_REMAPS), Some(1));
    assert_eq!(snap.counter(gbm_obs::names::ARTIFACT_OPEN_ERRORS), Some(0));
    assert_eq!(
        snap.histogram(gbm_obs::names::ARTIFACT_COLD_LOAD_US)
            .map(|h| h.count()),
        Some(2),
        "both maps timed their cold load"
    );
}

/// A corrupted payload byte: parse (header+TOC) may pass, `verify` must
/// fail, and a fresh `ReadOnlyIndex::open` refuses it when the corruption
/// breaks structure — never a silent wrong ranking.
#[test]
fn corrupted_payload_is_caught_by_verify() {
    let hidden = 4;
    let rows = synth_matrix(30, hidden, 5);
    let index = ShardedIndex::from_rows(&rows, hidden, IndexConfig::default());
    let mut bytes = encode_index_artifact(&index, 9, None, None);
    let ro = ReadOnlyIndex::from_map(Box::new(gbm_artifact::HeapMap::from_bytes(&bytes)))
        .expect("clean bytes open");
    ro.verify().expect("clean bytes verify");
    assert_eq!(ro.last_seq(), 9);
    // flip one byte inside the first section's payload (a byte past the
    // end of the last section would sit in alignment padding no checksum
    // covers)
    let (_, sections) = gbm_artifact::ArtifactView::parse(&bytes)
        .expect("parse for section table")
        .into_parts();
    let target = sections[0].offset + 1;
    bytes[target] ^= 0x40;
    let ro = ReadOnlyIndex::from_map(Box::new(gbm_artifact::HeapMap::from_bytes(&bytes)));
    if let Ok(ro) = ro {
        ro.verify().expect_err("payload corruption must not verify");
    }
}

/// Degenerate indexes round-trip through both ways out of an artifact — a
/// recovered owned index and the mapped reader — and keep answering
/// exactly: zero-row shards (more shards than rows), an all-shards-empty
/// index, and a shard sitting exactly at the IVF training threshold.
#[test]
fn degenerate_indexes_round_trip_both_formats() {
    let hidden = 8;

    // (a) 3 rows over 7 shards: most shards have zero rows
    let rows = synth_matrix(3, hidden, 31);
    for precision in [ScanPrecision::F32, ScanPrecision::Int8 { widen: 2 }] {
        let index = ShardedIndex::from_rows(
            &rows,
            hidden,
            IndexConfig {
                num_shards: 7,
                precision,
                ..Default::default()
            },
        );
        assert!(index.shard_sizes().contains(&0));
        let query = rows[..hidden].to_vec();
        let restored = restore_via_checkpoint(&index);
        assert_eq!(restored.query(&query, 10), index.query(&query, 10));
        for ro in round_trip(&index, "sparse") {
            assert_rank_identical(&ro, &index, &query, "zero-row shards");
        }
    }

    // (b) an all-shards-empty index (width pinned, no rows at all)
    let empty = ShardedIndex::from_rows(
        &[],
        hidden,
        IndexConfig {
            num_shards: 4,
            precision: ScanPrecision::Ivf {
                nprobe: 2,
                widen: 2,
            },
            ..Default::default()
        },
    );
    assert_eq!(empty.num_encoded(), 0);
    let restored = restore_via_checkpoint(&empty);
    assert_eq!(restored.num_encoded(), 0);
    assert_eq!(restored.hidden(), hidden, "width survives emptiness");
    for ro in round_trip(&empty, "empty") {
        assert_eq!(ro.num_encoded(), 0);
        assert_eq!(ro.hidden(), hidden);
        assert_eq!(ro.query(&vec![0.5; hidden], 5), vec![]);
        assert_eq!(ro.scan_bytes(), 0);
    }

    // (c) exactly IVF_MIN_TRAIN_ROWS in one shard: the training boundary.
    // Recovery retrains deterministically; the mapped reader serves the
    // serialized tables — both must answer exactly like the original.
    let n = gbm_quant::IVF_MIN_TRAIN_ROWS;
    let rows = synth_matrix(n, hidden, 67);
    let index = ShardedIndex::from_rows(
        &rows,
        hidden,
        IndexConfig {
            num_shards: 1,
            precision: ScanPrecision::Ivf {
                nprobe: 3,
                widen: 4,
            },
            ..Default::default()
        },
    );
    assert!(
        index.shard_ivf(0).unwrap().is_trained(),
        "exactly at the threshold trains"
    );
    let query = rows[hidden..2 * hidden].to_vec();
    let restored = restore_via_checkpoint(&index);
    assert!(restored.shard_ivf(0).unwrap().is_trained());
    for k in [1usize, 10, n] {
        assert_eq!(restored.query(&query, k), index.query(&query, k));
    }
    for ro in round_trip(&index, "boundary") {
        assert_rank_identical(&ro, &index, &query, "IVF_MIN_TRAIN_ROWS boundary");
    }

    // (c′) one row *below* the threshold: untrained owned IVF serializes
    // no cell sections, and the mapped scan falls back to exact int8 —
    // still bit-identical
    let rows = synth_matrix(n - 1, hidden, 68);
    let index = ShardedIndex::from_rows(
        &rows,
        hidden,
        IndexConfig {
            num_shards: 1,
            precision: ScanPrecision::Ivf {
                nprobe: 3,
                widen: 4,
            },
            ..Default::default()
        },
    );
    assert!(!index.shard_ivf(0).unwrap().is_trained());
    for ro in round_trip(&index, "untrained") {
        assert_rank_identical(&ro, &index, &query, "below the training threshold");
    }
}

/// A reader checksums a generation's payloads before it swaps onto it: one
/// flipped payload byte in the newer generation ticks
/// `artifact.open_errors`, and the reader keeps serving the old one.
#[test]
fn reader_refuses_a_generation_whose_payload_fails_verify() {
    let hidden = 6;
    let dir = temp_dir("verify");
    let gen1 =
        ShardedIndex::from_rows(&synth_matrix(30, hidden, 3), hidden, IndexConfig::default());
    let gen2 =
        ShardedIndex::from_rows(&synth_matrix(50, hidden, 4), hidden, IndexConfig::default());
    let query = synth_matrix(1, hidden, 5);
    publish_index_artifact(&gen1, &dir, 1).unwrap();
    let registry = MetricsRegistry::new();
    let reader = ArtifactReader::with_metrics(ArtifactConfig::new(&dir), Some(&registry)).unwrap();

    let path = publish_index_artifact(&gen2, &dir, 2).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let (_, sections) = gbm_artifact::ArtifactView::parse(&bytes)
        .unwrap()
        .into_parts();
    bytes[sections[1].offset + 3] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    ReadOnlyIndex::open(&path, true).expect("the lazy open does not read payloads");

    assert!(
        reader.poll().is_err(),
        "a payload that fails verify is refused"
    );
    assert_eq!(reader.generation(), 1);
    assert_eq!(reader.current().query(&query, 5), gen1.query(&query, 5));
    let snap = registry.snapshot();
    assert_eq!(snap.counter(gbm_obs::names::ARTIFACT_OPEN_ERRORS), Some(1));
    assert_eq!(snap.counter(gbm_obs::names::ARTIFACT_REMAPS), Some(0));
    assert!(ArtifactReader::open(ArtifactConfig::new(&dir)).is_err());
}

/// The path `checkpoint` returns is an ordinary generation: a reader maps
/// it with `ReadOnlyIndex::open` and answers exactly like the owned index
/// `recover` rebuilds from the same file — after churn, at the int8 tier,
/// with the tokenizer and model sections riding along.
#[test]
fn checkpoint_path_opens_mapped_and_serves_like_recover() {
    let hidden = 8;
    let rows = synth_matrix(90, hidden, 17);
    let icfg = IndexConfig {
        num_shards: 3,
        precision: ScanPrecision::Int8 { widen: 2 },
        ..Default::default()
    };
    let mut index = ShardedIndex::from_rows(&rows, hidden, icfg);
    for id in (0..90).step_by(4) {
        index.remove(id);
    }
    let tok = gbm_tokenizer::Tokenizer::train(
        ["add i64 %1 %2", "ret i64 %1"].into_iter(),
        gbm_tokenizer::TokenizerConfig::default(),
    );
    let storage: Arc<dyn Storage> = Arc::new(FileStorage::new());
    let dcfg = DurabilityConfig::new(temp_dir("checkpoint"));
    let mut wal = Wal::create(Arc::clone(&storage), dcfg.dir.join(WAL_FILE), false, 8).unwrap();
    let path = checkpoint(
        Arc::clone(&storage),
        &dcfg,
        &index,
        Some(&tok),
        None,
        &mut wal,
    )
    .unwrap();
    let rec = recover(storage, &dcfg, IndexConfig::default()).unwrap();
    assert_eq!(rec.snapshot_seq, 7);
    assert!(rec.tokenizer.is_some());
    let reader = ArtifactReader::open(ArtifactConfig::new(&dcfg.dir)).expect("CURRENT swung");
    assert_eq!(reader.generation(), 7);
    for ro in [
        ReadOnlyIndex::open(&path, true).unwrap(),
        ReadOnlyIndex::open(&path, false).unwrap(),
    ] {
        ro.verify().unwrap();
        assert_eq!(ro.config().precision, rec.index.config().precision);
        for qi in [1usize, 40, 89] {
            let query = &rows[qi * hidden..(qi + 1) * hidden];
            for k in [1usize, 10, 90] {
                assert_eq!(
                    ro.query(query, k),
                    rec.index.query(query, k),
                    "q={qi} k={k}"
                );
            }
        }
        assert_rank_identical(&ro, &rec.index, &rows[..hidden], "checkpoint");
    }
}
