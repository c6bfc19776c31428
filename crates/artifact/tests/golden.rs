//! Golden-file test pinning the v2 artifact byte format in both
//! directions.
//!
//! `tests/data/golden_v2.gbm` is a committed encoding of a fixed index
//! state, tokenizer and model — every section kind the format has. It is
//! the workspace's one golden file: the artifact is the only on-disk index
//! format. The test fails the moment `encode_artifact` produces different
//! bytes for the same data, or the moment the committed bytes parse,
//! verify, or resolve differently — i.e. the moment an innocent-looking
//! change breaks every already-published artifact in the field. A
//! deliberate format change must bump `ARTIFACT_VERSION` (old files then
//! fail typed, not misparse) and re-bless:
//!
//! ```text
//! GBM_BLESS_GOLDEN=1 cargo test -p gbm-artifact --test golden
//! ```

use std::path::PathBuf;

use gbm_artifact::{
    encode_artifact, ArtifactIvf, ArtifactMap, ArtifactMeta, ArtifactQuant, ArtifactShard,
    ArtifactView, HeapMap, ModelData, PrecisionTag, SectionKind, TokenizerData, PAGE_ALIGN,
};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/golden_v2.gbm")
}

struct GoldenData {
    meta: ArtifactMeta,
    ids0: Vec<u64>,
    rows0: Vec<f32>,
    codes0: Vec<i8>,
    scales0: Vec<f32>,
    block_scale0: Vec<f32>,
    block_l10: Vec<f32>,
    centroids0: Vec<f32>,
    sqnorms0: Vec<f32>,
    offsets0: Vec<u32>,
    members0: Vec<u32>,
    cell_of0: Vec<u32>,
    ids2: Vec<u64>,
    rows2: Vec<f32>,
    codes2: Vec<i8>,
    scales2: Vec<f32>,
    block_scale2: Vec<f32>,
    block_l12: Vec<f32>,
    tokenizer: TokenizerData,
    model: ModelData,
}

/// A fixed three-shard index exercising every section kind and edge: a
/// shard with quant + trained IVF, a completely empty shard, and a
/// quant-only shard; negative floats, -0.0, and full-range codes included;
/// then the index-level tokenizer (a non-ASCII token) and model sections.
fn golden_data() -> GoldenData {
    GoldenData {
        meta: ArtifactMeta {
            num_shards: 3,
            encode_batch: 8,
            hidden: 4,
            precision: PrecisionTag::Ivf {
                nprobe: 2,
                widen: 3,
                cells: 0,
            },
            last_seq: 77,
        },
        ids0: vec![2, 40, 7, 900],
        rows0: vec![
            0.5, -1.25, 0.0, 1.0, 2.5, -0.75, 0.125, -0.0, -2.0, 0.25, 1.5, -0.5, 0.0, 0.0, 0.0,
            0.0,
        ],
        codes0: vec![
            51, -127, 0, 102, 127, -38, 6, 0, -127, 16, 95, -32, 0, 0, 0, 0,
        ],
        scales0: vec![0.009_842_52, 0.019_685_04, 0.015_748_03, 0.0],
        block_scale0: vec![0.019_685_04],
        block_l10: vec![4.1],
        centroids0: vec![0.5, -1.0, 0.25, 0.75, -0.25, 1.0, -0.5, 0.0],
        sqnorms0: vec![1.937_5, 1.3125],
        offsets0: vec![0, 3, 4],
        members0: vec![0, 2, 3, 1],
        cell_of0: vec![0, 1, 0, 0],
        ids2: vec![11],
        rows2: vec![1.0, -1.0, 0.5, 0.25],
        codes2: vec![127, -127, 64, 32],
        scales2: vec![0.007_874_016],
        block_scale2: vec![0.007_874_016],
        block_l12: vec![2.75],
        tokenizer: TokenizerData {
            seq_len: 16,
            normalize_vars: true,
            entries: vec![("<pad>".into(), 0), ("mov".into(), 4), ("añadir".into(), 5)],
        },
        model: ModelData {
            config: vec![64, 32, 3, 2, 0x3F00_0000, 7],
            weights: vec![0.1, -0.2, 0.3, -0.0],
        },
    }
}

fn encode(d: &GoldenData) -> Vec<u8> {
    let shards = [
        ArtifactShard {
            ids: &d.ids0,
            rows: &d.rows0,
            quant: Some(ArtifactQuant {
                codes: &d.codes0,
                scales: &d.scales0,
                block_scale: &d.block_scale0,
                block_l1: &d.block_l10,
            }),
            ivf: Some(ArtifactIvf {
                centroids: &d.centroids0,
                sqnorms: &d.sqnorms0,
                offsets: &d.offsets0,
                members: &d.members0,
                cell_of: &d.cell_of0,
            }),
        },
        ArtifactShard {
            ids: &[],
            rows: &[],
            quant: None,
            ivf: None,
        },
        ArtifactShard {
            ids: &d.ids2,
            rows: &d.rows2,
            quant: Some(ArtifactQuant {
                codes: &d.codes2,
                scales: &d.scales2,
                block_scale: &d.block_scale2,
                block_l1: &d.block_l12,
            }),
            ivf: None,
        },
    ];
    encode_artifact(&d.meta, &shards, Some(&d.tokenizer), Some(&d.model))
}

#[test]
fn golden_v2_bytes_are_stable_in_both_directions() {
    let data = golden_data();
    let bytes = encode(&data);
    let path = golden_path();
    if std::env::var("GBM_BLESS_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &bytes).unwrap();
    }
    let golden = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); bless it with GBM_BLESS_GOLDEN=1",
            path.display()
        )
    });
    // encode direction: today's encoder reproduces the committed bytes
    assert_eq!(
        bytes, golden,
        "artifact encoding changed — a deliberate format change must bump \
         ARTIFACT_VERSION and re-bless the golden file"
    );

    // decode direction: the committed bytes parse, fully verify, and
    // resolve back to the fixed data, in place
    let map = HeapMap::from_bytes(&golden);
    let view = ArtifactView::parse(map.bytes()).expect("committed golden artifact parses");
    view.verify().expect("committed golden artifact verifies");
    assert_eq!(*view.meta(), data.meta);
    for e in view.sections() {
        assert_eq!(e.offset % PAGE_ALIGN, 0, "{:?} is page-aligned", e.kind);
    }

    let s0 = view.shard(0).expect("shard 0 resolves");
    assert_eq!(s0.ids, &data.ids0[..]);
    assert_eq!(s0.rows, &data.rows0[..]);
    assert!(
        s0.rows[7] == 0.0 && s0.rows[7].is_sign_negative(),
        "-0.0 survives bit-exactly"
    );
    let q0 = s0.quant.expect("shard 0 quant");
    assert_eq!(q0.codes, &data.codes0[..]);
    assert_eq!(q0.scales, &data.scales0[..]);
    assert_eq!(q0.block_scale, &data.block_scale0[..]);
    assert_eq!(q0.block_l1, &data.block_l10[..]);
    let ivf0 = s0.ivf.expect("shard 0 ivf");
    assert_eq!(ivf0.centroids, &data.centroids0[..]);
    assert_eq!(ivf0.sqnorms, &data.sqnorms0[..]);
    assert_eq!(ivf0.offsets, &data.offsets0[..]);
    assert_eq!(ivf0.members, &data.members0[..]);
    assert_eq!(ivf0.cell_of, &data.cell_of0[..]);

    let s1 = view.shard(1).expect("empty shard resolves");
    assert!(s1.ids.is_empty() && s1.rows.is_empty());
    assert!(s1.quant.is_none() && s1.ivf.is_none());

    let s2 = view.shard(2).expect("shard 2 resolves");
    assert_eq!(s2.ids, &data.ids2[..]);
    assert_eq!(s2.rows, &data.rows2[..]);
    assert_eq!(s2.quant.expect("shard 2 quant").codes, &data.codes2[..]);
    assert!(s2.ivf.is_none());

    let last = &view.sections()[view.sections().len() - 2..];
    assert_eq!(
        last.iter().map(|e| (e.kind, e.shard)).collect::<Vec<_>>(),
        [(SectionKind::Tokenizer, 0), (SectionKind::Model, 0)],
        "index-level sections close the file, filed under shard 0"
    );
    assert_eq!(view.tokenizer().unwrap(), Some(data.tokenizer));
    let model = view.model().unwrap().expect("model section");
    assert_eq!(model, data.model);
    assert!(model.weights[3].is_sign_negative(), "-0.0 survives");
}
