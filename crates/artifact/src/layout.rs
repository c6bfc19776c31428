//! The v2 index artifact format: a fixed header, a checksummed table of
//! contents, and page-aligned, length-prefixed payload sections that are
//! the *serving* layout — row matrices, int8 code mirrors, and IVF cell
//! tables land in the file exactly as the scan kernels consume them, so a
//! reader maps the file and queries it with no decode and no copy.
//!
//! ```text
//! offset 0    magic "GBMART2\0" · version · endian mark · index meta
//!             · section count · last WAL seq · header crc32
//! offset 64   TOC: one 32-byte entry per section
//!             (kind, shard, offset, len, payload crc32) · TOC crc32
//! page edge   section 0 payload   (page-aligned, zero-padded to page)
//! page edge   section 1 payload
//! ...         per-shard sections, then the optional index-level
//!             TOKENIZER and MODEL sections (filed under shard 0)
//! ```
//!
//! The same file is the serving image a reader maps and the checkpoint a
//! durable server recovers from: the tokenizer and model sections are
//! decoded (they are small and owned by the model stack), everything else
//! is served in place.
//!
//! Opening an artifact checksums only the header and TOC — O(sections),
//! independent of pool size — so cold start is bounded by page faults, not
//! deserialization. Full verification ([`ArtifactView::verify`]: every
//! payload checksum, every padding byte zero) is a separate, explicit pass
//! for writers, recovery and CI golden tests. The layout is
//! native-little-endian by construction; a byte-order mark turns foreign
//! files into a typed [`ArtifactError::Endian`] instead of silent garbage.

use crate::cast::cast_slice;
use crate::error::ArtifactError;
use gbm_store::codec::{Reader, Writer};
use gbm_store::{crc32, StoreError};

/// Leading magic: "GBMART2\0".
pub const ARTIFACT_MAGIC: [u8; 8] = *b"GBMART2\0";

/// Format version. Version 1 was a decode-style snapshot format that no
/// longer exists; the page-aligned zero-copy layout is 2. The index-level
/// section kinds are additive: a reader that predates them refuses them as
/// an unknown kind, a typed error.
pub const ARTIFACT_VERSION: u32 = 2;

/// Byte-order mark, read back with native endianness: a big-endian reader
/// sees `0x04030201` and refuses the file.
pub const ENDIAN_MARK: u32 = 0x0102_0304;

/// Payload section alignment: one page, so mapped sections start on page
/// boundaries and every in-place cast is trivially aligned.
pub const PAGE_ALIGN: usize = 4096;

/// Fixed header size; the TOC starts here.
pub const HEADER_LEN: usize = 64;

/// TOC entry size.
pub const TOC_ENTRY_LEN: usize = 32;

/// Section kinds. Per shard, `Ids`/`Rows` are always present (possibly
/// empty); the quant quadruple appears iff the shard carries an int8
/// mirror; the IVF quintuple iff its cell index is trained. `Tokenizer` and
/// `Model` are index-level: at most one each, filed under shard 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u32)]
pub enum SectionKind {
    /// Graph ids, `u64` per row.
    Ids = 1,
    /// Dense row-major `[n × hidden]` f32 embedding matrix.
    Rows = 2,
    /// Row-major `[n × hidden]` int8 code mirror.
    QuantCodes = 3,
    /// Per-row dequantization scales, f32.
    QuantScales = 4,
    /// Per-block max dequantization scale, f32 (the margin-cut bounds).
    QuantBlockScale = 5,
    /// Per-block max row L1 norm, f32.
    QuantBlockL1 = 6,
    /// Dense `[ncells × hidden]` f32 centroid matrix.
    IvfCentroids = 7,
    /// `‖centroid‖²` per cell, f32.
    IvfSqnorms = 8,
    /// CSR cell offsets, `ncells + 1` u32s.
    IvfOffsets = 9,
    /// CSR member row indices, u32 per row.
    IvfMembers = 10,
    /// Cell id per row, u32.
    IvfCellOf = 11,
    /// The tokenizer vocabulary ([`TokenizerData`]).
    Tokenizer = 12,
    /// The model config words and weights ([`ModelData`]).
    Model = 13,
}

impl SectionKind {
    fn from_u32(v: u32) -> Option<SectionKind> {
        Some(match v {
            1 => SectionKind::Ids,
            2 => SectionKind::Rows,
            3 => SectionKind::QuantCodes,
            4 => SectionKind::QuantScales,
            5 => SectionKind::QuantBlockScale,
            6 => SectionKind::QuantBlockL1,
            7 => SectionKind::IvfCentroids,
            8 => SectionKind::IvfSqnorms,
            9 => SectionKind::IvfOffsets,
            10 => SectionKind::IvfMembers,
            11 => SectionKind::IvfCellOf,
            12 => SectionKind::Tokenizer,
            13 => SectionKind::Model,
            _ => return None,
        })
    }
}

/// Scan precision recorded in the header, mirroring the serving layer's
/// `ScanPrecision` without depending on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrecisionTag {
    /// Exact f32 scans.
    F32,
    /// Int8 coarse scan with widened exact re-rank.
    Int8 {
        /// Re-rank widening factor.
        widen: u32,
    },
    /// IVF approximate scan: probe `nprobe` coarse cells over the int8
    /// mirror, exact-re-rank `widen · k` survivors. `cells` is the
    /// configured per-shard cell count (0 = auto).
    Ivf {
        /// Probed cells per shard per query.
        nprobe: u32,
        /// Re-rank widening factor.
        widen: u32,
        /// Configured cells per shard (0 = auto `≈√rows`).
        cells: u32,
    },
}

/// Tokenizer vocabulary as plain data (the [`SectionKind::Tokenizer`]
/// payload).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TokenizerData {
    /// Fixed token-sequence length.
    pub seq_len: u32,
    /// Whether variable names are normalized to a shared token.
    pub normalize_vars: bool,
    /// `(token, id)` pairs, sorted by id.
    pub entries: Vec<(String, u32)>,
}

/// Model hyperparameters and flat weights as plain data (the
/// [`SectionKind::Model`] payload). The serving layer owns the meaning of
/// the config words; the format only promises to return them
/// bit-identically.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelData {
    /// Opaque config words (hyperparameters, enum tags, float bits).
    pub config: Vec<u64>,
    /// Flat parameter snapshot.
    pub weights: Vec<f32>,
}

/// Index-level metadata carried in the fixed header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArtifactMeta {
    /// Shard count; sections are tagged `0..num_shards`.
    pub num_shards: usize,
    /// The index's configured encode batch (round-tripped for config
    /// fidelity, not used by reads).
    pub encode_batch: usize,
    /// Row width shared by every shard (0 only for an index that never
    /// held a row).
    pub hidden: usize,
    /// Scan precision the index was configured with.
    pub precision: PrecisionTag,
    /// WAL sequence the artifact is consistent with (the publish
    /// generation).
    pub last_seq: u64,
}

/// One parsed TOC entry: where a section's payload lives in the file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Section {
    /// What the payload is.
    pub kind: SectionKind,
    /// Which shard it belongs to.
    pub shard: u32,
    /// Byte offset of the payload (a multiple of [`PAGE_ALIGN`]).
    pub offset: usize,
    /// Exact payload length in bytes (the length prefix; padding to the
    /// next page edge is not included).
    pub len: usize,
    /// crc32 of the payload bytes.
    pub crc: u32,
}

/// A shard's quantized mirror, as borrowed slices — the encoder's input
/// and, symmetrically, what a mapped artifact resolves back to.
#[derive(Clone, Copy, Debug)]
pub struct ArtifactQuant<'a> {
    /// Row-major `[n × hidden]` int8 codes.
    pub codes: &'a [i8],
    /// Per-row scales.
    pub scales: &'a [f32],
    /// Per-block max scale (margin-cut bound input).
    pub block_scale: &'a [f32],
    /// Per-block max row L1 norm.
    pub block_l1: &'a [f32],
}

/// A shard's trained IVF cell index in CSR form, as borrowed slices.
#[derive(Clone, Copy, Debug)]
pub struct ArtifactIvf<'a> {
    /// Dense `[ncells × hidden]` centroid matrix.
    pub centroids: &'a [f32],
    /// `‖centroid‖²` per cell.
    pub sqnorms: &'a [f32],
    /// CSR offsets, `ncells + 1` entries starting at 0.
    pub offsets: &'a [u32],
    /// CSR member row indices (cell `c` owns `members[offsets[c]..offsets[c+1]]`).
    pub members: &'a [u32],
    /// Cell id per row.
    pub cell_of: &'a [u32],
}

/// One shard's full serving state, as borrowed slices.
#[derive(Clone, Copy, Debug)]
pub struct ArtifactShard<'a> {
    /// Graph ids, one per row.
    pub ids: &'a [u64],
    /// Dense row-major `[n × hidden]` f32 rows.
    pub rows: &'a [f32],
    /// Int8 mirror, when the shard keeps one.
    pub quant: Option<ArtifactQuant<'a>>,
    /// Trained cell index, when present.
    pub ivf: Option<ArtifactIvf<'a>>,
}

fn align_up(v: usize, align: usize) -> usize {
    v.div_ceil(align) * align
}

fn precision_fields(p: PrecisionTag) -> (u32, u32, u32, u32) {
    match p {
        PrecisionTag::F32 => (0, 0, 0, 0),
        PrecisionTag::Int8 { widen } => (1, widen, 0, 0),
        PrecisionTag::Ivf {
            nprobe,
            widen,
            cells,
        } => (2, widen, nprobe, cells),
    }
}

fn precision_from_fields(
    tag: u32,
    widen: u32,
    nprobe: u32,
    cells: u32,
) -> Result<PrecisionTag, ArtifactError> {
    Ok(match tag {
        0 => PrecisionTag::F32,
        1 => PrecisionTag::Int8 { widen },
        2 => PrecisionTag::Ivf {
            nprobe,
            widen,
            cells,
        },
        _ => {
            return Err(ArtifactError::Malformed {
                what: format!("unknown precision tag {tag}"),
            })
        }
    })
}

/// The little-endian payload bytes `fill` writes (the writer-side copy;
/// readers never copy).
fn payload(fill: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::new();
    fill(&mut w);
    w.into_bytes()
}

fn tokenizer_bytes(t: &TokenizerData) -> Vec<u8> {
    payload(|w| {
        w.u32(t.seq_len);
        w.u8(t.normalize_vars as u8);
        w.u32(t.entries.len() as u32);
        for (token, id) in &t.entries {
            w.str(token);
            w.u32(*id);
        }
    })
}

fn model_bytes(m: &ModelData) -> Vec<u8> {
    payload(|w| {
        w.u64(m.config.len() as u64);
        w.u64_slice(&m.config);
        w.f32_slice(&m.weights);
    })
}

/// Encodes an index — plus, optionally, the tokenizer and model that feed
/// it — into v2 artifact bytes. Panics on internally inconsistent inputs
/// (wrong matrix sizes) — the writer owns its data and a mismatch is a
/// bug, not an IO condition.
pub fn encode_artifact(
    meta: &ArtifactMeta,
    shards: &[ArtifactShard],
    tokenizer: Option<&TokenizerData>,
    model: Option<&ModelData>,
) -> Vec<u8> {
    assert_eq!(shards.len(), meta.num_shards, "one entry per shard");
    assert!(meta.num_shards > 0, "at least one shard");
    assert!(meta.num_shards <= u32::MAX as usize, "shard count fits u32");

    // materialize every section's payload bytes in file order
    let mut payloads: Vec<(SectionKind, u32, Vec<u8>)> = Vec::new();
    for (s, shard) in shards.iter().enumerate() {
        let n = shard.ids.len();
        assert!(meta.hidden > 0 || n == 0, "shard {s}: rows need a width");
        assert_eq!(
            shard.rows.len(),
            n * meta.hidden,
            "shard {s}: rows must be a whole [n x hidden] matrix"
        );
        let mut push = |kind, fill: &dyn Fn(&mut Writer)| {
            payloads.push((kind, s as u32, payload(fill)));
        };
        push(SectionKind::Ids, &|w| w.u64_slice(shard.ids));
        push(SectionKind::Rows, &|w| w.f32_slice(shard.rows));
        if let Some(q) = &shard.quant {
            assert_eq!(q.codes.len(), n * meta.hidden, "shard {s}: quant codes");
            assert_eq!(q.scales.len(), n, "shard {s}: quant scales");
            assert_eq!(
                q.block_scale.len(),
                q.block_l1.len(),
                "shard {s}: block bound arrays"
            );
            push(SectionKind::QuantCodes, &|w| w.i8_slice(q.codes));
            push(SectionKind::QuantScales, &|w| w.f32_slice(q.scales));
            push(SectionKind::QuantBlockScale, &|w| {
                w.f32_slice(q.block_scale)
            });
            push(SectionKind::QuantBlockL1, &|w| w.f32_slice(q.block_l1));
        }
        if let Some(ivf) = &shard.ivf {
            let ncells = ivf.sqnorms.len();
            assert!(ncells > 0, "shard {s}: trained ivf has cells");
            assert_eq!(
                ivf.centroids.len(),
                ncells * meta.hidden,
                "shard {s}: centroid matrix"
            );
            assert_eq!(ivf.offsets.len(), ncells + 1, "shard {s}: csr offsets");
            assert_eq!(
                *ivf.offsets.last().unwrap() as usize,
                ivf.members.len(),
                "shard {s}: csr terminates at member count"
            );
            assert_eq!(ivf.members.len(), n, "shard {s}: every row in a cell");
            assert_eq!(ivf.cell_of.len(), n, "shard {s}: cell_of per row");
            push(SectionKind::IvfCentroids, &|w| w.f32_slice(ivf.centroids));
            push(SectionKind::IvfSqnorms, &|w| w.f32_slice(ivf.sqnorms));
            push(SectionKind::IvfOffsets, &|w| w.u32_slice(ivf.offsets));
            push(SectionKind::IvfMembers, &|w| w.u32_slice(ivf.members));
            push(SectionKind::IvfCellOf, &|w| w.u32_slice(ivf.cell_of));
        }
    }
    if let Some(t) = tokenizer {
        payloads.push((SectionKind::Tokenizer, 0, tokenizer_bytes(t)));
    }
    if let Some(m) = model {
        payloads.push((SectionKind::Model, 0, model_bytes(m)));
    }

    // lay out: header · TOC · TOC crc, then each payload at a page edge
    let toc_end = HEADER_LEN + payloads.len() * TOC_ENTRY_LEN + 4;
    let mut offsets = Vec::with_capacity(payloads.len());
    let mut cursor = align_up(toc_end, PAGE_ALIGN);
    for (_, _, bytes) in &payloads {
        offsets.push(cursor);
        cursor = align_up(cursor + bytes.len(), PAGE_ALIGN);
    }

    let mut w = Writer::new();
    w.bytes(&ARTIFACT_MAGIC);
    w.u32(ARTIFACT_VERSION);
    w.u32(ENDIAN_MARK);
    w.u32(meta.num_shards as u32);
    w.u32(meta.encode_batch as u32);
    w.u32(meta.hidden as u32);
    let (tag, widen, nprobe, cells) = precision_fields(meta.precision);
    w.u32(tag);
    w.u32(widen);
    w.u32(nprobe);
    w.u32(cells);
    w.u32(payloads.len() as u32);
    w.u64(meta.last_seq);
    debug_assert_eq!(w.len(), 56);
    w.u32(0); // header crc, patched once the bytes are final
    w.u32(0); // reserved
    debug_assert_eq!(w.len(), HEADER_LEN);
    for (i, (kind, shard, bytes)) in payloads.iter().enumerate() {
        w.u32(*kind as u32);
        w.u32(*shard);
        w.u64(offsets[i] as u64);
        w.u64(bytes.len() as u64);
        w.u32(crc32(bytes));
        w.u32(0); // reserved
    }
    w.u32(0); // toc crc, patched once the bytes are final
    w.pad_to(PAGE_ALIGN);
    for (i, (_, _, bytes)) in payloads.iter().enumerate() {
        debug_assert_eq!(w.len(), offsets[i]);
        w.bytes(bytes);
        w.pad_to(PAGE_ALIGN);
    }

    let mut out = w.into_bytes();
    // patch the two structural crcs now that their input bytes are final
    let hc = crc32(&out[..56]);
    out[56..60].copy_from_slice(&hc.to_le_bytes());
    let tc = crc32(&out[HEADER_LEN..toc_end - 4]);
    out[toc_end - 4..toc_end].copy_from_slice(&tc.to_le_bytes());
    out
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// A parsed, structurally validated artifact over borrowed bytes. Parsing
/// checksums the header and TOC only; [`verify`](ArtifactView::verify)
/// checksums payloads on demand.
pub struct ArtifactView<'a> {
    bytes: &'a [u8],
    meta: ArtifactMeta,
    sections: Vec<Section>,
}

impl<'a> ArtifactView<'a> {
    /// Parses and validates the header and TOC.
    pub fn parse(bytes: &'a [u8]) -> Result<ArtifactView<'a>, ArtifactError> {
        if bytes.len() < HEADER_LEN {
            return Err(ArtifactError::Truncated { what: "header" });
        }
        if bytes[..8] != ARTIFACT_MAGIC {
            return Err(ArtifactError::Malformed {
                what: "bad magic (not a gbm artifact)".to_string(),
            });
        }
        let version = read_u32(bytes, 8);
        if version != ARTIFACT_VERSION {
            return Err(ArtifactError::Version { found: version });
        }
        // the one native-endian read: a foreign-order file (or host) fails
        // here before any payload is reinterpreted
        let endian = u32::from_ne_bytes(bytes[12..16].try_into().unwrap());
        if endian != ENDIAN_MARK {
            return Err(ArtifactError::Endian);
        }
        let header_crc = read_u32(bytes, 56);
        if crc32(&bytes[..56]) != header_crc {
            return Err(ArtifactError::Checksum {
                what: "header".to_string(),
            });
        }
        // the reserved word sits outside the header crc: pin it instead
        if read_u32(bytes, 60) != 0 {
            return Err(ArtifactError::Malformed {
                what: "reserved header word is not zero".to_string(),
            });
        }
        let num_shards = read_u32(bytes, 16) as usize;
        let encode_batch = read_u32(bytes, 20) as usize;
        let hidden = read_u32(bytes, 24) as usize;
        let precision = precision_from_fields(
            read_u32(bytes, 28),
            read_u32(bytes, 32),
            read_u32(bytes, 36),
            read_u32(bytes, 40),
        )?;
        let section_count = read_u32(bytes, 44) as usize;
        let last_seq = read_u64(bytes, 48);
        if num_shards == 0 {
            return Err(ArtifactError::Malformed {
                what: "degenerate header: 0 shards".to_string(),
            });
        }
        let toc_end = HEADER_LEN
            .checked_add(section_count.checked_mul(TOC_ENTRY_LEN).ok_or(
                ArtifactError::Malformed {
                    what: "section count overflows".to_string(),
                },
            )?)
            .and_then(|v| v.checked_add(4))
            .ok_or(ArtifactError::Malformed {
                what: "section count overflows".to_string(),
            })?;
        if bytes.len() < toc_end {
            return Err(ArtifactError::Truncated { what: "toc" });
        }
        let toc_crc = read_u32(bytes, toc_end - 4);
        if crc32(&bytes[HEADER_LEN..toc_end - 4]) != toc_crc {
            return Err(ArtifactError::Checksum {
                what: "toc".to_string(),
            });
        }
        let data_start = align_up(toc_end, PAGE_ALIGN);
        let mut file_end = data_start;
        let mut sections = Vec::with_capacity(section_count);
        for i in 0..section_count {
            let at = HEADER_LEN + i * TOC_ENTRY_LEN;
            let kind_raw = read_u32(bytes, at);
            let kind = SectionKind::from_u32(kind_raw).ok_or_else(|| ArtifactError::Malformed {
                what: format!("toc entry {i}: unknown section kind {kind_raw}"),
            })?;
            let shard = read_u32(bytes, at + 4);
            let offset = read_u64(bytes, at + 8) as usize;
            let len = read_u64(bytes, at + 16) as usize;
            let crc = read_u32(bytes, at + 24);
            let index_level = matches!(kind, SectionKind::Tokenizer | SectionKind::Model);
            if shard as usize >= num_shards || (index_level && shard != 0) {
                return Err(ArtifactError::Malformed {
                    what: format!("toc entry {i}: shard {shard} out of range for {kind:?}"),
                });
            }
            if !offset.is_multiple_of(PAGE_ALIGN) || offset < data_start {
                return Err(ArtifactError::Malformed {
                    what: format!("toc entry {i}: offset {offset} is not a payload page edge"),
                });
            }
            let end = offset
                .checked_add(len)
                .ok_or_else(|| ArtifactError::Malformed {
                    what: format!("toc entry {i}: section extent overflows"),
                })?;
            if end > bytes.len() {
                return Err(ArtifactError::Truncated {
                    what: "section payload",
                });
            }
            if sections
                .iter()
                .any(|e: &Section| e.kind == kind && e.shard == shard)
            {
                return Err(ArtifactError::Malformed {
                    what: format!("duplicate section {kind:?} for shard {shard}"),
                });
            }
            file_end = file_end.max(align_up(end, PAGE_ALIGN));
            sections.push(Section {
                kind,
                shard,
                offset,
                len,
                crc,
            });
        }
        // the writer pads the last payload to a page edge and stops: any
        // other length is a file grown or cut after the fact
        if bytes.len() != file_end {
            return Err(ArtifactError::Malformed {
                what: format!("{} bytes, but the sections end at {file_end}", bytes.len()),
            });
        }
        Ok(ArtifactView {
            bytes,
            meta: ArtifactMeta {
                num_shards,
                encode_batch,
                hidden,
                precision,
                last_seq,
            },
            sections,
        })
    }

    /// The header metadata.
    pub fn meta(&self) -> &ArtifactMeta {
        &self.meta
    }

    /// The parsed TOC.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Consumes the view into its owned parse products, for holders that
    /// own the byte mapping separately (see
    /// [`resolve_shard`]).
    pub fn into_parts(self) -> (ArtifactMeta, Vec<Section>) {
        (self.meta, self.sections)
    }

    /// Checksums every payload section and checks that every byte no
    /// section claims (the TOC's tail to the first page edge, each
    /// payload's tail to its page edge) is still the zero the writer
    /// wrote, so a file that verifies is byte-for-byte one the writer
    /// produced — the explicit full-integrity pass (writers after publish,
    /// recovery, golden tests, drills). Not run on open, so cold start
    /// stays O(sections) + page faults.
    pub fn verify(&self) -> Result<(), ArtifactError> {
        for e in &self.sections {
            let payload = &self.bytes[e.offset..e.offset + e.len];
            if crc32(payload) != e.crc {
                return Err(ArtifactError::Checksum {
                    what: format!("section {:?} shard {}", e.kind, e.shard),
                });
            }
        }
        let mut claimed: Vec<(usize, usize)> = self
            .sections
            .iter()
            .map(|e| (e.offset, e.offset + e.len))
            .collect();
        claimed.sort_unstable();
        let end = self.bytes.len();
        let mut cursor = HEADER_LEN + self.sections.len() * TOC_ENTRY_LEN + 4;
        for (start, stop) in claimed.into_iter().chain([(end, end)]) {
            if self.bytes[cursor.min(start)..start].iter().any(|&b| b != 0) {
                return Err(ArtifactError::Malformed {
                    what: format!("non-zero padding between bytes {cursor} and {start}"),
                });
            }
            cursor = cursor.max(stop);
        }
        Ok(())
    }

    /// Resolves shard `s` to typed in-place slices, with full structural
    /// validation (lengths, CSR shape, member ranges).
    pub fn shard(&self, s: usize) -> Result<ArtifactShard<'a>, ArtifactError> {
        resolve_shard(self.bytes, &self.meta, &self.sections, s)
    }

    /// Decodes the tokenizer section, `None` when the artifact has none.
    pub fn tokenizer(&self) -> Result<Option<TokenizerData>, ArtifactError> {
        section_bytes(self.bytes, &self.sections, SectionKind::Tokenizer, 0)
            .map(|payload| decode_tokenizer(payload).map_err(codec_error))
            .transpose()
    }

    /// Decodes the model section, `None` when the artifact has none.
    pub fn model(&self) -> Result<Option<ModelData>, ArtifactError> {
        section_bytes(self.bytes, &self.sections, SectionKind::Model, 0)
            .map(|payload| decode_model(payload).map_err(codec_error))
            .transpose()
    }
}

/// A decode failure inside an index-level payload, in the artifact's
/// error vocabulary.
fn codec_error(e: StoreError) -> ArtifactError {
    match e {
        StoreError::Truncated { what } => ArtifactError::Truncated { what },
        other => ArtifactError::Malformed {
            what: other.to_string(),
        },
    }
}

fn no_trailing_bytes(r: &Reader, what: &str) -> Result<(), StoreError> {
    match r.remaining() {
        0 => Ok(()),
        n => Err(StoreError::Malformed {
            what: format!("{what} section has {n} trailing bytes"),
        }),
    }
}

fn decode_tokenizer(payload: &[u8]) -> Result<TokenizerData, StoreError> {
    let mut r = Reader::new(payload);
    let seq_len = r.u32("tokenizer seq_len")?;
    let normalize_vars = match r.u8("tokenizer normalize flag")? {
        0 => false,
        1 => true,
        other => {
            return Err(StoreError::Malformed {
                what: format!("tokenizer normalize flag {other}"),
            })
        }
    };
    let n = r.u32("tokenizer entry count")?;
    let entries = (0..n)
        .map(|_| Ok((r.str("tokenizer token")?, r.u32("tokenizer token id")?)))
        .collect::<Result<Vec<_>, StoreError>>()?;
    no_trailing_bytes(&r, "tokenizer")?;
    Ok(TokenizerData {
        seq_len,
        normalize_vars,
        entries,
    })
}

fn decode_model(payload: &[u8]) -> Result<ModelData, StoreError> {
    let mut r = Reader::new(payload);
    let n_config = r.u64("model config word count")?;
    let config = r.u64_vec(n_config as usize, "model config words")?;
    let weights = r.f32_vec(r.remaining() / 4, "model weights")?;
    no_trailing_bytes(&r, "model")?;
    Ok(ModelData { config, weights })
}

fn section_bytes<'a>(
    bytes: &'a [u8],
    sections: &[Section],
    kind: SectionKind,
    shard: usize,
) -> Option<&'a [u8]> {
    sections
        .iter()
        .find(|e| e.kind == kind && e.shard as usize == shard)
        .map(|e| &bytes[e.offset..e.offset + e.len])
}

/// Resolves one shard of a parsed artifact to borrowed typed slices,
/// validating every structural invariant the scan kernels rely on. The
/// free-function form lets an owner of the mapping hold `(meta, sections)`
/// without a self-referential view.
pub fn resolve_shard<'a>(
    bytes: &'a [u8],
    meta: &ArtifactMeta,
    sections: &[Section],
    s: usize,
) -> Result<ArtifactShard<'a>, ArtifactError> {
    if s >= meta.num_shards {
        return Err(ArtifactError::Malformed {
            what: format!("shard {s} out of range ({} shards)", meta.num_shards),
        });
    }
    let ids_raw =
        section_bytes(bytes, sections, SectionKind::Ids, s).ok_or(ArtifactError::Truncated {
            what: "ids section",
        })?;
    let rows_raw =
        section_bytes(bytes, sections, SectionKind::Rows, s).ok_or(ArtifactError::Truncated {
            what: "rows section",
        })?;
    let ids: &[u64] = cast_slice(ids_raw, "ids")?;
    let rows: &[f32] = cast_slice(rows_raw, "rows")?;
    let n = ids.len();
    if rows.len() != n * meta.hidden || (meta.hidden == 0 && n > 0) {
        return Err(ArtifactError::Malformed {
            what: format!(
                "shard {s}: {} row f32s for {n} ids at hidden {}",
                rows.len(),
                meta.hidden
            ),
        });
    }

    let quant = match section_bytes(bytes, sections, SectionKind::QuantCodes, s) {
        None => None,
        Some(codes_raw) => {
            let take = |kind, what: &'static str| {
                section_bytes(bytes, sections, kind, s).ok_or(ArtifactError::Truncated { what })
            };
            let codes: &[i8] = cast_slice(codes_raw, "quant codes")?;
            let scales: &[f32] = cast_slice(
                take(SectionKind::QuantScales, "quant scales")?,
                "quant scales",
            )?;
            let block_scale: &[f32] = cast_slice(
                take(SectionKind::QuantBlockScale, "quant block scales")?,
                "quant block scales",
            )?;
            let block_l1: &[f32] = cast_slice(
                take(SectionKind::QuantBlockL1, "quant block l1s")?,
                "quant block l1s",
            )?;
            if codes.len() != n * meta.hidden || scales.len() != n {
                return Err(ArtifactError::Malformed {
                    what: format!("shard {s}: quant mirror does not cover its {n} rows"),
                });
            }
            if block_scale.len() != block_l1.len() {
                return Err(ArtifactError::Malformed {
                    what: format!("shard {s}: block bound arrays disagree"),
                });
            }
            Some(ArtifactQuant {
                codes,
                scales,
                block_scale,
                block_l1,
            })
        }
    };

    // the int8 and IVF scan kernels read the mirror unconditionally: a
    // populated shard of a quantized index must carry one
    if quant.is_none() && n > 0 && meta.precision != PrecisionTag::F32 {
        return Err(ArtifactError::Malformed {
            what: format!(
                "shard {s}: {n} rows at {:?} but no int8 mirror",
                meta.precision
            ),
        });
    }

    let ivf = match section_bytes(bytes, sections, SectionKind::IvfCentroids, s) {
        None => None,
        Some(cent_raw) => {
            let take = |kind, what: &'static str| {
                section_bytes(bytes, sections, kind, s).ok_or(ArtifactError::Truncated { what })
            };
            let centroids: &[f32] = cast_slice(cent_raw, "ivf centroids")?;
            let sqnorms: &[f32] =
                cast_slice(take(SectionKind::IvfSqnorms, "ivf sqnorms")?, "ivf sqnorms")?;
            let offsets: &[u32] =
                cast_slice(take(SectionKind::IvfOffsets, "ivf offsets")?, "ivf offsets")?;
            let members: &[u32] =
                cast_slice(take(SectionKind::IvfMembers, "ivf members")?, "ivf members")?;
            let cell_of: &[u32] =
                cast_slice(take(SectionKind::IvfCellOf, "ivf cell_of")?, "ivf cell_of")?;
            let ncells = sqnorms.len();
            let shape_ok = ncells > 0
                && centroids.len() == ncells * meta.hidden
                && offsets.len() == ncells + 1
                && offsets[0] == 0
                && offsets.windows(2).all(|w| w[0] <= w[1])
                && *offsets.last().unwrap() as usize == members.len()
                && members.len() == n
                && cell_of.len() == n;
            if !shape_ok {
                return Err(ArtifactError::Malformed {
                    what: format!("shard {s}: ivf csr shape is inconsistent"),
                });
            }
            if members.iter().any(|&m| m as usize >= n)
                || cell_of.iter().any(|&c| c as usize >= ncells)
            {
                return Err(ArtifactError::Malformed {
                    what: format!("shard {s}: ivf indices out of range"),
                });
            }
            Some(ArtifactIvf {
                centroids,
                sqnorms,
                offsets,
                members,
                cell_of,
            })
        }
    };

    Ok(ArtifactShard {
        ids,
        rows,
        quant,
        ivf,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::{ArtifactMap, HeapMap};

    fn sample_meta() -> ArtifactMeta {
        ArtifactMeta {
            num_shards: 2,
            encode_batch: 8,
            hidden: 3,
            precision: PrecisionTag::Ivf {
                nprobe: 2,
                widen: 3,
                cells: 0,
            },
            last_seq: 41,
        }
    }

    fn sample_tokenizer() -> TokenizerData {
        TokenizerData {
            seq_len: 16,
            normalize_vars: true,
            entries: vec![("<pad>".into(), 0), ("mov".into(), 4), ("añadir".into(), 5)],
        }
    }

    fn sample_model() -> ModelData {
        ModelData {
            config: vec![64, 32, 3, 2, 0x3F00_0000, 7],
            weights: vec![0.1, -0.2, 0.3, -0.0],
        }
    }

    /// Two shards — one with quant + ivf, one with quant only — plus the
    /// index-level tokenizer and model sections.
    fn sample_bytes() -> Vec<u8> {
        let meta = sample_meta();
        let ids0: Vec<u64> = vec![10, 11, 12];
        let rows0: Vec<f32> = (0..9).map(|i| i as f32 * 0.5 - 2.0).collect();
        let codes0: Vec<i8> = (0..9).map(|i| (i * 13 % 255) as i8).collect();
        let scales0 = vec![0.1f32, 0.2, 0.3];
        let block_scale0 = vec![0.3f32];
        let block_l10 = vec![6.0f32];
        let centroids0: Vec<f32> = (0..6).map(|i| i as f32).collect();
        let sqnorms0 = vec![5.0f32, 50.0];
        let offsets0 = vec![0u32, 2, 3];
        let members0 = vec![0u32, 2, 1];
        let cell_of0 = vec![0u32, 1, 0];
        let ids1: Vec<u64> = vec![99];
        let rows1 = vec![1.0f32, -1.0, 0.5];
        let codes1: Vec<i8> = vec![127, -127, 64];
        let scale1 = vec![0.007_874_016f32];
        let l11 = vec![2.5f32];
        let shards = [
            ArtifactShard {
                ids: &ids0,
                rows: &rows0,
                quant: Some(ArtifactQuant {
                    codes: &codes0,
                    scales: &scales0,
                    block_scale: &block_scale0,
                    block_l1: &block_l10,
                }),
                ivf: Some(ArtifactIvf {
                    centroids: &centroids0,
                    sqnorms: &sqnorms0,
                    offsets: &offsets0,
                    members: &members0,
                    cell_of: &cell_of0,
                }),
            },
            ArtifactShard {
                ids: &ids1,
                rows: &rows1,
                quant: Some(ArtifactQuant {
                    codes: &codes1,
                    scales: &scale1,
                    block_scale: &scale1,
                    block_l1: &l11,
                }),
                ivf: None,
            },
        ];
        encode_artifact(
            &meta,
            &shards,
            Some(&sample_tokenizer()),
            Some(&sample_model()),
        )
    }

    #[test]
    fn encode_parse_round_trips_meta_and_sections() {
        let bytes = sample_bytes();
        assert_eq!(bytes.len() % PAGE_ALIGN, 0, "file is page-padded");
        let map = HeapMap::from_bytes(&bytes);
        let view = ArtifactView::parse(map.bytes()).unwrap();
        assert_eq!(*view.meta(), sample_meta());
        view.verify().unwrap();
        // every section sits on a page edge
        for e in view.sections() {
            assert_eq!(e.offset % PAGE_ALIGN, 0, "{:?}", e.kind);
        }
        let s0 = view.shard(0).unwrap();
        assert_eq!(s0.ids, &[10, 11, 12]);
        assert_eq!(s0.rows.len(), 9);
        assert_eq!(s0.rows[3], -0.5);
        let q = s0.quant.unwrap();
        assert_eq!(q.scales, &[0.1, 0.2, 0.3]);
        assert_eq!(q.block_l1, &[6.0]);
        let ivf = s0.ivf.unwrap();
        assert_eq!(ivf.offsets, &[0, 2, 3]);
        assert_eq!(ivf.members, &[0, 2, 1]);
        let s1 = view.shard(1).unwrap();
        assert_eq!(s1.ids, &[99]);
        assert!(s1.quant.is_some() && s1.ivf.is_none());
        assert!(view.shard(2).is_err(), "shard index is range-checked");
        assert_eq!(view.tokenizer().unwrap(), Some(sample_tokenizer()));
        let model = view.model().unwrap().unwrap();
        assert_eq!(model, sample_model());
        assert!(model.weights[3].is_sign_negative(), "-0.0 is bit-exact");
    }

    #[test]
    fn empty_shards_round_trip_as_zero_length_sections() {
        let meta = ArtifactMeta {
            num_shards: 2,
            encode_batch: 4,
            hidden: 5,
            precision: PrecisionTag::F32,
            last_seq: 0,
        };
        let shards = [
            ArtifactShard {
                ids: &[],
                rows: &[],
                quant: None,
                ivf: None,
            },
            ArtifactShard {
                ids: &[7],
                rows: &[0.0, 1.0, 2.0, 3.0, 4.0],
                quant: None,
                ivf: None,
            },
        ];
        let bytes = encode_artifact(&meta, &shards, None, None);
        let map = HeapMap::from_bytes(&bytes);
        let view = ArtifactView::parse(map.bytes()).unwrap();
        view.verify().unwrap();
        assert!(view.tokenizer().unwrap().is_none() && view.model().unwrap().is_none());
        let s0 = view.shard(0).unwrap();
        assert!(s0.ids.is_empty() && s0.rows.is_empty());
        let s1 = view.shard(1).unwrap();
        assert_eq!(s1.ids, &[7]);
    }

    #[test]
    fn corruption_is_detected_where_it_matters() {
        let good = sample_bytes();
        // magic
        let mut b = good.clone();
        b[0] ^= 1;
        assert!(matches!(
            ArtifactView::parse(HeapMap::from_bytes(&b).bytes()),
            Err(ArtifactError::Malformed { .. })
        ));
        // version
        let mut b = good.clone();
        b[8] = 9;
        // header crc covers the version field, so either error is fine —
        // but the version check runs first by design
        assert!(matches!(
            ArtifactView::parse(HeapMap::from_bytes(&b).bytes()),
            Err(ArtifactError::Version { found: 9 })
        ));
        // endian mark
        let mut b = good.clone();
        b[12..16].copy_from_slice(&ENDIAN_MARK.to_be_bytes());
        assert!(matches!(
            ArtifactView::parse(HeapMap::from_bytes(&b).bytes()),
            Err(ArtifactError::Endian)
        ));
        // header field flip → header crc
        let mut b = good.clone();
        b[20] ^= 0x40;
        assert!(matches!(
            ArtifactView::parse(HeapMap::from_bytes(&b).bytes()),
            Err(ArtifactError::Checksum { .. })
        ));
        // toc flip → toc crc
        let mut b = good.clone();
        b[HEADER_LEN + 9] ^= 1;
        assert!(matches!(
            ArtifactView::parse(HeapMap::from_bytes(&b).bytes()),
            Err(ArtifactError::Checksum { .. })
        ));
        // payload flip → parse succeeds (lazy), verify() catches it
        let map = HeapMap::from_bytes(&good);
        let view = ArtifactView::parse(map.bytes()).unwrap();
        for e in view.sections().to_vec() {
            if e.len == 0 {
                continue;
            }
            let mut b = good.clone();
            b[e.offset] ^= 0x10;
            let m = HeapMap::from_bytes(&b);
            let v = ArtifactView::parse(m.bytes()).unwrap();
            assert!(
                matches!(v.verify(), Err(ArtifactError::Checksum { .. })),
                "flip in {:?} shard {} undetected",
                e.kind,
                e.shard
            );
        }
        // padding flip (TOC tail, then the last payload's tail) → parse
        // succeeds, verify() catches it
        for at in [
            HEADER_LEN + view.sections().len() * TOC_ENTRY_LEN + 4,
            good.len() - 1,
        ] {
            let mut b = good.clone();
            b[at] ^= 0x01;
            let m = HeapMap::from_bytes(&b);
            let v = ArtifactView::parse(m.bytes()).unwrap();
            assert!(
                matches!(v.verify(), Err(ArtifactError::Malformed { .. })),
                "padding flip at {at} undetected"
            );
        }
        // truncation mid-payload
        let m = HeapMap::from_bytes(&good[..good.len() - PAGE_ALIGN]);
        assert!(ArtifactView::parse(m.bytes()).is_err());
    }

    #[test]
    fn inconsistent_ivf_indices_are_malformed_not_panics() {
        let meta = ArtifactMeta {
            num_shards: 1,
            encode_batch: 1,
            hidden: 2,
            precision: PrecisionTag::F32,
            last_seq: 0,
        };
        let ids = [1u64, 2];
        let rows = [0.0f32, 1.0, 2.0, 3.0];
        // member index 9 is out of range for a 2-row shard
        let shards = [ArtifactShard {
            ids: &ids,
            rows: &rows,
            quant: None,
            ivf: Some(ArtifactIvf {
                centroids: &[0.0, 0.0],
                sqnorms: &[0.0],
                offsets: &[0, 2],
                members: &[0, 9],
                cell_of: &[0, 0],
            }),
        }];
        let bytes = encode_artifact(&meta, &shards, None, None);
        let map = HeapMap::from_bytes(&bytes);
        let view = ArtifactView::parse(map.bytes()).unwrap();
        assert!(matches!(
            view.shard(0),
            Err(ArtifactError::Malformed { .. })
        ));
    }
}
