//! Property tests for the checkpoint round trip: an arbitrary index imaged
//! through the *full byte-level pipeline* — `checkpoint` encodes a v2
//! artifact generation and writes it through the injected storage,
//! `recover` reads the bytes back, verifies every checksum and rebuilds
//! the owned index — comes back bit-identical (ids, rows, row order, int8
//! codes and scales) and rank-identical (ids, scores, tie order) for every
//! query, across shard counts and scan precisions, including empty shards,
//! an entirely empty index, and `k` far beyond the pool size.

use std::sync::Arc;

use proptest::prelude::*;

use gbm_serve::{checkpoint, recover, DurabilityConfig};
use gbm_serve::{GraphId, IndexConfig, ScanPrecision, ShardedIndex};
use gbm_store::{MemStorage, Storage, Wal, WAL_FILE};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The full byte round trip is the identity on the index, bit for bit
    /// and rank for rank.
    #[test]
    fn snapshot_byte_roundtrip_is_identity(
        num_shards in prop_oneof![Just(1usize), Just(2usize), Just(7usize)],
        widen in 0usize..5, // 0 → F32, 1..=3 → Int8 { widen }, 4 → Ivf
        hidden in 1usize..6,
        // ids drawn from a small space so collisions (replacements) and
        // removals actually hit, scrambling swap-fill row order
        ids in proptest::collection::vec(0u64..24, 0..40),
        seeds in proptest::collection::vec(-2.0f32..2.0, 40),
        removals in proptest::collection::vec(0u64..24, 0..8),
    ) {
        let precision = match widen {
            0 => ScanPrecision::F32,
            // these pools stay below the IVF training threshold, so the
            // Ivf scan falls back to the exact int8 path and stays
            // rank-identical through the round trip
            4 => ScanPrecision::Ivf { nprobe: 2, widen: 2 },
            w => ScanPrecision::Int8 { widen: w },
        };
        let cfg = IndexConfig {
            num_shards,
            encode_batch: 4,
            precision,
            ..Default::default()
        };
        let mut index = ShardedIndex::new(cfg);
        let mut query = vec![0.0f32; hidden];
        for (i, &id) in ids.iter().enumerate() {
            let row: Vec<f32> = (0..hidden)
                .map(|d| seeds[i] + d as f32 * 0.25 - i as f32 * 0.125)
                .collect();
            if i == 0 {
                query.copy_from_slice(&row);
            }
            index.insert_row(id as GraphId, &row);
        }
        for &id in &removals {
            index.remove(id as GraphId);
        }

        let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
        let dcfg = DurabilityConfig::new("/d");
        let mut wal = Wal::create(Arc::clone(&storage), dcfg.dir.join(WAL_FILE), false, 43)
            .expect("in-memory WAL");
        checkpoint(Arc::clone(&storage), &dcfg, &index, None, None, &mut wal)
            .expect("own generation writes");
        let rec = recover(storage, &dcfg, IndexConfig::default()).expect("own generation recovers");
        prop_assert_eq!(rec.snapshot_seq, 42);
        prop_assert_eq!(rec.replayed_ops, 0);
        let restored = rec.index;

        // bit-identical storage, including row order (the ranking
        // tie-break) and the quantized mirror where one exists
        prop_assert_eq!(restored.hidden(), index.hidden());
        for s in 0..num_shards {
            prop_assert_eq!(restored.shard_ids(s), index.shard_ids(s));
            prop_assert_eq!(restored.shard_rows(s), index.shard_rows(s));
            // a live shard emptied by removals keeps a 0-row mirror; its
            // image (and rebuild) is "no mirror" — normalize both sides
            let (a, b) = (
                index.shard_quant(s).and_then(|q| q.matrix()).filter(|m| m.rows() > 0),
                restored.shard_quant(s).and_then(|q| q.matrix()).filter(|m| m.rows() > 0),
            );
            match (a, b) {
                (Some(a), Some(b)) => {
                    prop_assert_eq!(a.codes(), b.codes());
                    prop_assert_eq!(a.scales(), b.scales());
                }
                (None, None) => {}
                _ => prop_assert!(false, "quant mirror presence diverged"),
            }
        }

        // rank-identical queries, k below, at, and far beyond the pool
        // (a never-written index has width 0 and takes the empty query)
        let q = &query[..index.hidden()];
        let pool = index.num_encoded();
        for k in [1usize, pool.max(1), pool + 9] {
            prop_assert_eq!(restored.query(q, k), index.query(q, k));
        }
    }
}
