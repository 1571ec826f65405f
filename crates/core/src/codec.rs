//! Block-structured posting-list codec — the on-disk storage format of
//! long inverted lists.
//!
//! # Storage format
//!
//! A long list is stored in one of two layouts, selected per-index by
//! [`CodecKind`] (`IndexConfig::codec`, SQL `OPTIONS (codec = ...)`):
//!
//! * **`Legacy`** — the flat formats of [`svr_text::postings`], byte for
//!   byte: one undelimited run of postings with no framing. This is the
//!   format every index built before the block codec existed uses, and it
//!   remains the default; stores are *never* silently re-encoded (offline
//!   merges rewrite lists with the index's own codec, so a legacy index
//!   stays legacy until it is dropped and rebuilt).
//!
//! * **`Bitpacked`** — postings grouped into fixed-size blocks
//!   ([`BLOCK_POSTINGS`] per block), each block prefixed with skip
//!   metadata. The encoded list is:
//!
//!   ```text
//!   list header:  [magic 0xB7] [codec tag] [flags] [varint total postings]
//!   block*:       [varint count] [varint payload len]
//!                 [varint max doc] [varint max tscore]
//!                 [f64 max score]            (Score-format lists only)
//!                 payload (count postings, format-specific)
//!   ```
//!
//!   `flags` carries the list format (bits 1–2: 0 = Id, 1 = Chunked,
//!   2 = Score) and whether postings carry term scores (bit 0), so a
//!   decoder can verify the store configuration against what is actually
//!   on disk. An **empty list encodes to zero bytes** in both codecs.
//!
//!   Each block is self-contained: delta coding restarts at every block
//!   boundary and chunked lists re-emit a `[cid][count]` group header for
//!   a chunk group that continues across a block boundary. A reader can
//!   therefore (a) decode any block knowing only the list header, which is
//!   what makes suspended cursors cheap to resume mid-list, and (b) *skip*
//!   a whole block — `payload len` bytes — without decoding it when the
//!   block's `max doc` / `max tscore` / `max score` metadata proves it
//!   cannot contain a qualifying posting. The per-block maxima are exactly
//!   the block-max bounds WAND-style multi-term pruning needs.
//!
//! ## Block payloads
//!
//! | format  | payload                                                  |
//! |---------|----------------------------------------------------------|
//! | Id      | first doc + FOR-packed Δdocs (+ packed ts)               |
//! | Chunked | per group: `[varint cid][varint n]` + packed Δdocs (+ ts) |
//! | Score   | `f64`s, then bit-packed docs (+ packed ts)               |
//!
//! Delta coding matches the legacy convention: the first doc id of a block
//! (or of a chunk group) is stored raw, every later one as
//! `doc - prev - 1`. Frame-of-reference bit packing stores a per-block
//! (per-group for chunked lists) bit width followed by the values packed
//! LSB-first; a run of consecutive doc ids packs to **zero** payload bits.
//! Scores (`f64`) are kept bit-exact — rankings must not change with the
//! codec.
//!
//! ## Codec versioning rules
//!
//! * The codec of a store is fixed at index build time, persisted in the
//!   engine's index catalog record (`INDEX_RECORD_V2` carries the codec
//!   tag; V1 records decode as `Legacy`), and applies to *every* list in
//!   the store, fancy lists included. There is no per-list sniffing — a
//!   legacy list may legitimately begin with the magic byte.
//! * Tags 1 and 2 belonged to the retired `uncompressed` and `varint`
//!   block codecs, which `bitpacked` beat on space for every list format.
//!   They stay reserved and are never reused: reading one is a clean
//!   [`CoreError::Unsupported`] naming the retired codec. New codecs get
//!   new tags; any other unknown tag is a [`CoreError::Storage`] corruption
//!   error, never a misread.
//! * Hostile input (truncated blocks, garbage headers, overflowing
//!   varints, absurd counts) must produce clean errors: every decode path
//!   here bounds its allocations and uses checked arithmetic.

use svr_storage::codec::{read_varint, write_varint};
use svr_text::postings::{ChunkGroup, PostingsBuilder, TermScoredPosting};

use crate::error::{CoreError, Result};
use crate::long_list::{ListFormat, LongPosting};
use crate::short_list::PostingPos;
use crate::types::DocId;

/// Posting-list codec of one long-list store (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodecKind {
    /// Flat `svr_text::postings` layout, no blocks (pre-upgrade stores).
    Legacy,
    /// Block-structured, frame-of-reference bit-packed deltas.
    Bitpacked,
}

/// Retired block codecs as `(tag, name, refusal)`. Their tags stay
/// reserved: never reuse one for a new codec.
const RETIRED: [(u8, &str, &str); 2] = [
    (
        1,
        "uncompressed",
        "the uncompressed codec was retired (tag 1 stays reserved)",
    ),
    (
        2,
        "varint",
        "the varint codec was retired (tag 2 stays reserved)",
    ),
];

impl CodecKind {
    /// Stable on-disk / catalog tag.
    pub fn tag(self) -> u8 {
        match self {
            CodecKind::Legacy => 0,
            CodecKind::Bitpacked => 3,
        }
    }

    /// Inverse of [`CodecKind::tag`]. A retired codec's tag is
    /// [`CoreError::Unsupported`] naming it; any other unknown tag is a
    /// corruption error.
    pub fn from_tag(tag: u8) -> Result<CodecKind> {
        match tag {
            0 => Ok(CodecKind::Legacy),
            3 => Ok(CodecKind::Bitpacked),
            _ => Err(RETIRED
                .iter()
                .find(|&&(retired, _, _)| retired == tag)
                .map_or(corrupt("unknown codec tag"), |&(_, _, why)| {
                    CoreError::Unsupported(why)
                })),
        }
    }

    /// Lowercase name (SQL `OPTIONS (codec = ...)`, EXPLAIN).
    pub fn name(self) -> &'static str {
        match self {
            CodecKind::Legacy => "legacy",
            CodecKind::Bitpacked => "bitpacked",
        }
    }

    /// Inverse of [`CodecKind::name`] (case-insensitive). A retired codec's
    /// name is [`CoreError::Unsupported`] naming it; any other unknown name
    /// is [`CoreError::InvalidConfig`].
    pub fn from_name(name: &str) -> Result<CodecKind> {
        let name = name.to_ascii_lowercase();
        match name.as_str() {
            "legacy" => Ok(CodecKind::Legacy),
            "bitpacked" => Ok(CodecKind::Bitpacked),
            _ => Err(RETIRED
                .iter()
                .find(|&&(_, retired, _)| retired == name)
                .map_or(CoreError::InvalidConfig("unknown codec"), |&(_, _, why)| {
                    CoreError::Unsupported(why)
                })),
        }
    }

    /// Every codec.
    pub const ALL: [CodecKind; 2] = [CodecKind::Legacy, CodecKind::Bitpacked];
}

/// Postings per block. Small enough that a suspended cursor re-decodes at
/// most this many postings on resume, large enough that the per-block
/// header (~6–10 bytes) is noise.
pub const BLOCK_POSTINGS: usize = 128;

/// Magic first byte of a block-structured list.
pub const LIST_MAGIC: u8 = 0xB7;

/// Decode-side sanity bounds: a corrupt header must not drive a huge
/// allocation before the payload read fails.
const MAX_BLOCK_COUNT: u64 = 1 << 20;
const MAX_BLOCK_PAYLOAD: u64 = 1 << 26;

fn corrupt(msg: &'static str) -> CoreError {
    CoreError::Storage(svr_storage::StorageError::Corrupt(msg))
}

fn format_tag(format: ListFormat) -> u8 {
    match format {
        ListFormat::Id { .. } => 0,
        ListFormat::Chunked { .. } => 1,
        ListFormat::Score { .. } => 2,
    }
}

fn format_with_scores(format: ListFormat) -> bool {
    match format {
        ListFormat::Id { with_scores }
        | ListFormat::Chunked { with_scores }
        | ListFormat::Score { with_scores } => with_scores,
    }
}

/// Flags byte of the list header.
fn flags_for(format: ListFormat) -> u8 {
    (format_with_scores(format) as u8) | (format_tag(format) << 1)
}

/// Fixed-width bytes per posting of a format — the baseline the
/// compression-ratio diagnostics compare physical bytes against.
pub fn fixed_posting_width(format: ListFormat) -> u64 {
    let ts = if format_with_scores(format) { 2 } else { 0 };
    match format {
        ListFormat::Id { .. } | ListFormat::Chunked { .. } => 4 + ts,
        ListFormat::Score { .. } => 12 + ts,
    }
}

/// Skip metadata of one block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockMeta {
    /// Postings in the block.
    pub count: u64,
    /// Encoded payload bytes following the header.
    pub payload_len: u64,
    /// Largest doc id in the block.
    pub max_doc: u32,
    /// Largest quantized term score in the block (0 without term scores).
    pub max_tscore: u16,
    /// Largest SVR score in the block (Score-format lists; 0.0 otherwise).
    pub max_score: f64,
}

/// Validate a parsed block-list header against the store's format.
pub(crate) fn check_header(format: ListFormat, magic: u8, tag: u8, flags: u8) -> Result<()> {
    if magic != LIST_MAGIC {
        return Err(corrupt("bad long-list magic"));
    }
    if tag != CodecKind::Bitpacked.tag() {
        return Err(corrupt("long-list codec does not match store codec"));
    }
    if flags != flags_for(format) {
        return Err(corrupt("long-list flags do not match store format"));
    }
    Ok(())
}

pub(crate) fn check_block_meta(meta: &BlockMeta) -> Result<()> {
    if meta.count == 0 || meta.count > MAX_BLOCK_COUNT {
        return Err(corrupt("implausible block posting count"));
    }
    if meta.payload_len > MAX_BLOCK_PAYLOAD {
        return Err(corrupt("implausible block payload length"));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Bit packing (frame of reference)
// ---------------------------------------------------------------------------

fn bits_needed(v: u32) -> u8 {
    (32 - v.leading_zeros()) as u8
}

/// Pack `values` LSB-first at `bits` bits each. `bits == 0` packs nothing
/// (all values are zero).
fn pack_bits(values: &[u32], bits: u8, out: &mut Vec<u8>) {
    if bits == 0 {
        return;
    }
    debug_assert!(bits <= 32);
    let mut acc: u64 = 0;
    let mut nbits: u32 = 0;
    for &v in values {
        acc |= u64::from(v) << nbits;
        nbits += u32::from(bits);
        while nbits >= 8 {
            out.push(acc as u8);
            acc >>= 8;
            nbits -= 8;
        }
    }
    if nbits > 0 {
        out.push(acc as u8);
    }
}

/// Unpack `count` values of `bits` bits each from `buf` at `*pos`.
fn unpack_bits(
    buf: &[u8],
    pos: &mut usize,
    bits: u8,
    count: usize,
    out: &mut Vec<u32>,
) -> Result<()> {
    if bits > 32 {
        return Err(corrupt("bit width exceeds 32"));
    }
    if bits == 0 {
        out.extend(std::iter::repeat_n(0, count));
        return Ok(());
    }
    let mask = if bits == 32 {
        u32::MAX
    } else {
        (1u32 << bits) - 1
    };
    let mut acc: u64 = 0;
    let mut nbits: u32 = 0;
    for _ in 0..count {
        while nbits < u32::from(bits) {
            let byte = *buf
                .get(*pos)
                .ok_or_else(|| corrupt("truncated bit-packed frame"))?;
            *pos += 1;
            acc |= u64::from(byte) << nbits;
            nbits += 8;
        }
        out.push((acc as u32) & mask);
        acc >>= bits;
        nbits -= u32::from(bits);
    }
    Ok(())
}

/// One frame: `[bit width]` then `values` packed at that width.
fn write_frame(values: &[u32], out: &mut Vec<u8>) {
    let bits = values.iter().copied().map(bits_needed).max().unwrap_or(0);
    out.push(bits);
    pack_bits(values, bits, out);
}

/// Read one frame of `count` values written by [`write_frame`].
fn read_frame(buf: &[u8], pos: &mut usize, count: usize) -> Result<Vec<u32>> {
    let bits = *buf.get(*pos).ok_or_else(|| corrupt("truncated posting"))?;
    *pos += 1;
    let mut values = Vec::with_capacity(count);
    unpack_bits(buf, pos, bits, count, &mut values)?;
    Ok(values)
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn write_list_header(format: ListFormat, total: u64, out: &mut Vec<u8>) {
    out.push(LIST_MAGIC);
    out.push(CodecKind::Bitpacked.tag());
    out.push(flags_for(format));
    write_varint(out, total);
}

/// One (cid, posting) pair flattened out of a chunked list; `cid` is 0 for
/// Id and Score formats.
#[derive(Clone, Copy)]
struct Wire {
    cid: u32,
    doc: DocId,
    tscore: u16,
    score: f64,
}

fn write_block(format: ListFormat, block: &[Wire], out: &mut Vec<u8>) {
    let with_scores = format_with_scores(format);
    let mut payload = Vec::with_capacity(block.len() * 4);
    match format {
        ListFormat::Id { .. } => encode_doc_run(block, with_scores, &mut payload),
        ListFormat::Chunked { .. } => encode_chunked_payload(block, with_scores, &mut payload),
        ListFormat::Score { .. } => encode_score_payload(block, with_scores, &mut payload),
    }
    let max_doc = block.iter().map(|w| w.doc.0).max().unwrap_or(0);
    let max_tscore = block.iter().map(|w| w.tscore).max().unwrap_or(0);
    write_varint(out, block.len() as u64);
    write_varint(out, payload.len() as u64);
    write_varint(out, u64::from(max_doc));
    write_varint(out, u64::from(max_tscore));
    if matches!(format, ListFormat::Score { .. }) {
        let max_score = block
            .iter()
            .map(|w| w.score)
            .fold(f64::NEG_INFINITY, f64::max);
        out.extend_from_slice(&max_score.to_le_bytes());
    }
    out.extend_from_slice(&payload);
}

fn encode_blocks(format: ListFormat, wires: &[Wire], out: &mut Vec<u8>) {
    if wires.is_empty() {
        return;
    }
    write_list_header(format, wires.len() as u64, out);
    for block in wires.chunks(BLOCK_POSTINGS) {
        write_block(format, block, out);
    }
}

/// A run of ascending docs (a whole Id block, or one chunk group): the
/// first doc raw, one frame of `doc - prev - 1` deltas, then (with term
/// scores) one frame of term scores.
fn encode_doc_run(run: &[Wire], with_scores: bool, out: &mut Vec<u8>) {
    let deltas: Vec<u32> = run
        .windows(2)
        .map(|w| w[1].doc.0 - w[0].doc.0 - 1)
        .collect();
    write_varint(out, u64::from(run[0].doc.0));
    write_frame(&deltas, out);
    if with_scores {
        let ts: Vec<u32> = run.iter().map(|w| u32::from(w.tscore)).collect();
        write_frame(&ts, out);
    }
}

fn encode_chunked_payload(block: &[Wire], with_scores: bool, out: &mut Vec<u8>) {
    // Split the block into runs of equal cid; every run re-emits a group
    // header, so groups continuing from the previous block decode cleanly.
    for group in block.chunk_by(|a, b| a.cid == b.cid) {
        write_varint(out, u64::from(group[0].cid));
        write_varint(out, group.len() as u64);
        encode_doc_run(group, with_scores, out);
    }
}

fn encode_score_payload(block: &[Wire], with_scores: bool, out: &mut Vec<u8>) {
    for w in block {
        out.extend_from_slice(&w.score.to_le_bytes());
    }
    let docs: Vec<u32> = block.iter().map(|w| w.doc.0).collect();
    write_frame(&docs, out);
    if with_scores {
        let ts: Vec<u32> = block.iter().map(|w| u32::from(w.tscore)).collect();
        write_frame(&ts, out);
    }
}

/// Encode an Id-format list (ascending by doc). With `CodecKind::Legacy`
/// this produces exactly the bytes of
/// [`PostingsBuilder::encode_id_list`] / `encode_id_term_list`.
pub fn encode_id_list(
    codec: CodecKind,
    postings: &[TermScoredPosting],
    with_scores: bool,
    out: &mut Vec<u8>,
) {
    if codec == CodecKind::Legacy {
        if with_scores {
            PostingsBuilder::encode_id_term_list(postings, out);
        } else {
            let ids: Vec<DocId> = postings.iter().map(|p| p.doc).collect();
            PostingsBuilder::encode_id_list(&ids, out);
        }
        return;
    }
    let wires: Vec<Wire> = postings
        .iter()
        .map(|p| Wire {
            cid: 0,
            doc: p.doc,
            tscore: if with_scores { p.tscore } else { 0 },
            score: 0.0,
        })
        .collect();
    encode_blocks(ListFormat::Id { with_scores }, &wires, out);
}

/// Encode a chunked list (groups descending by cid, docs ascending within).
pub fn encode_chunked_list(
    codec: CodecKind,
    groups: &[ChunkGroup],
    with_scores: bool,
    out: &mut Vec<u8>,
) {
    if codec == CodecKind::Legacy {
        PostingsBuilder::encode_chunked_list(groups, with_scores, out);
        return;
    }
    let wires: Vec<Wire> = groups
        .iter()
        .flat_map(|g| {
            g.postings.iter().map(move |p| Wire {
                cid: g.cid,
                doc: p.doc,
                tscore: if with_scores { p.tscore } else { 0 },
                score: 0.0,
            })
        })
        .collect();
    encode_blocks(ListFormat::Chunked { with_scores }, &wires, out);
}

/// Encode a score-ordered list (score descending, doc ascending on ties).
pub fn encode_score_list(
    codec: CodecKind,
    rows: &[(f64, DocId, u16)],
    with_scores: bool,
    out: &mut Vec<u8>,
) {
    if codec == CodecKind::Legacy {
        PostingsBuilder::encode_score_list(rows, with_scores, out);
        return;
    }
    let wires: Vec<Wire> = rows
        .iter()
        .map(|&(score, doc, tscore)| Wire {
            cid: 0,
            doc,
            tscore: if with_scores { tscore } else { 0 },
            score,
        })
        .collect();
    encode_blocks(ListFormat::Score { with_scores }, &wires, out);
}

// ---------------------------------------------------------------------------
// Decoding (slice level; the streaming cursor reuses decode_block)
// ---------------------------------------------------------------------------

fn read_varint_or(buf: &[u8], pos: &mut usize, msg: &'static str) -> Result<u64> {
    read_varint(buf, pos).ok_or_else(|| corrupt(msg))
}

/// Parse a block-list header from a slice; returns the posting total.
fn read_list_header_slice(format: ListFormat, buf: &[u8], pos: &mut usize) -> Result<u64> {
    let need = |b: &[u8], p: &mut usize| -> Result<u8> {
        let v = *b.get(*p).ok_or_else(|| corrupt("truncated list header"))?;
        *p += 1;
        Ok(v)
    };
    let magic = need(buf, pos)?;
    let tag = need(buf, pos)?;
    let flags = need(buf, pos)?;
    check_header(format, magic, tag, flags)?;
    read_varint_or(buf, pos, "truncated list header")
}

/// Parse one block's skip metadata from a slice.
fn read_block_meta_slice(format: ListFormat, buf: &[u8], pos: &mut usize) -> Result<BlockMeta> {
    let count = read_varint_or(buf, pos, "truncated block header")?;
    let payload_len = read_varint_or(buf, pos, "truncated block header")?;
    let max_doc = read_varint_or(buf, pos, "truncated block header")?;
    let max_tscore = read_varint_or(buf, pos, "truncated block header")?;
    let max_score = if matches!(format, ListFormat::Score { .. }) {
        let bytes = buf
            .get(*pos..)
            .and_then(<[u8]>::first_chunk)
            .ok_or_else(|| corrupt("truncated block header"))?;
        *pos += 8;
        f64::from_le_bytes(*bytes)
    } else {
        0.0
    };
    let meta = BlockMeta {
        count,
        payload_len,
        max_doc: u32::try_from(max_doc).map_err(|_| corrupt("block max doc out of range"))?,
        max_tscore: u16::try_from(max_tscore)
            .map_err(|_| corrupt("block max term score out of range"))?,
        max_score,
    };
    check_block_meta(&meta)?;
    Ok(meta)
}

/// Decode one block payload into postings. `payload` must be exactly
/// `meta.payload_len` bytes; `meta.count` postings are produced or an error
/// is returned — never a panic, whatever the bytes.
pub fn decode_block(
    format: ListFormat,
    meta: &BlockMeta,
    payload: &[u8],
    out: &mut Vec<LongPosting>,
) -> Result<()> {
    let with_scores = format_with_scores(format);
    let count = usize::try_from(meta.count).map_err(|_| corrupt("block count out of range"))?;
    let mut pos = 0usize;
    match format {
        ListFormat::Id { .. } => {
            decode_doc_run(payload, &mut pos, count, with_scores, PostingPos::Id, out)?
        }
        ListFormat::Chunked { .. } => {
            decode_chunked_payload(payload, &mut pos, count, with_scores, out)?
        }
        ListFormat::Score { .. } => {
            decode_score_payload(payload, &mut pos, count, with_scores, out)?
        }
    }
    if pos != payload.len() {
        return Err(corrupt("trailing bytes in block payload"));
    }
    Ok(())
}

fn read_f64_at(buf: &[u8], pos: &mut usize) -> Result<f64> {
    let b = buf
        .get(*pos..)
        .and_then(<[u8]>::first_chunk)
        .ok_or_else(|| corrupt("truncated posting"))?;
    *pos += 8;
    Ok(f64::from_le_bytes(*b))
}

/// Read the optional term-score frame of `count` postings (zeros without).
fn read_tscores(buf: &[u8], pos: &mut usize, count: usize, with_scores: bool) -> Result<Vec<u32>> {
    if with_scores {
        read_frame(buf, pos, count)
    } else {
        Ok(vec![0; count])
    }
}

fn tscore_of(ts: u32) -> Result<u16> {
    u16::try_from(ts).map_err(|_| corrupt("term score out of range"))
}

/// Inverse of [`encode_doc_run`]: `count` (≥ 1) postings at `at`.
fn decode_doc_run(
    buf: &[u8],
    pos: &mut usize,
    count: usize,
    with_scores: bool,
    at: PostingPos,
    out: &mut Vec<LongPosting>,
) -> Result<()> {
    let first = read_varint_or(buf, pos, "truncated posting")?;
    let first = u32::try_from(first).map_err(|_| corrupt("doc id out of range"))?;
    let deltas = read_frame(buf, pos, count - 1)?;
    let mut docs = Vec::with_capacity(count);
    docs.push(first);
    let mut prev = first;
    for d in deltas {
        prev = prev
            .checked_add(d)
            .and_then(|v| v.checked_add(1))
            .ok_or_else(|| corrupt("doc id overflow"))?;
        docs.push(prev);
    }
    let tscores = read_tscores(buf, pos, count, with_scores)?;
    for (doc, ts) in docs.into_iter().zip(tscores) {
        out.push(LongPosting {
            pos: at,
            doc: DocId(doc),
            tscore: tscore_of(ts)?,
        });
    }
    Ok(())
}

fn decode_chunked_payload(
    buf: &[u8],
    pos: &mut usize,
    count: usize,
    with_scores: bool,
    out: &mut Vec<LongPosting>,
) -> Result<()> {
    let mut decoded = 0usize;
    while decoded < count {
        let cid = read_varint_or(buf, pos, "truncated group header")?;
        let cid = u32::try_from(cid).map_err(|_| corrupt("chunk id out of range"))?;
        let n = read_varint_or(buf, pos, "truncated group header")?;
        let n = usize::try_from(n).map_err(|_| corrupt("group count out of range"))?;
        if n == 0 || n > count - decoded {
            return Err(corrupt("group count exceeds block count"));
        }
        decode_doc_run(buf, pos, n, with_scores, PostingPos::ByChunk(cid), out)?;
        decoded += n;
    }
    Ok(())
}

fn decode_score_payload(
    buf: &[u8],
    pos: &mut usize,
    count: usize,
    with_scores: bool,
    out: &mut Vec<LongPosting>,
) -> Result<()> {
    let mut scores = Vec::with_capacity(count);
    for _ in 0..count {
        scores.push(read_f64_at(buf, pos)?);
    }
    let docs = read_frame(buf, pos, count)?;
    let tscores = read_tscores(buf, pos, count, with_scores)?;
    for ((score, doc), ts) in scores.into_iter().zip(docs).zip(tscores) {
        out.push(LongPosting {
            pos: PostingPos::ByScore(score),
            doc: DocId(doc),
            tscore: tscore_of(ts)?,
        });
    }
    Ok(())
}

/// Decode a whole encoded list from a slice (tests, diagnostics, hostile
/// input validation). For `Legacy` this runs the flat `svr_text` decoders;
/// for `Bitpacked` it validates the list header, every block header, every
/// payload, and that the posting count matches the header total.
pub fn decode_list(codec: CodecKind, format: ListFormat, buf: &[u8]) -> Result<Vec<LongPosting>> {
    let with_scores = format_with_scores(format);
    if codec == CodecKind::Legacy {
        return Ok(match format {
            ListFormat::Id { .. } => svr_text::postings::IdPostingsIter::new(buf, with_scores)
                .map(|p| LongPosting {
                    pos: PostingPos::Id,
                    doc: p.doc,
                    tscore: p.tscore,
                })
                .collect(),
            ListFormat::Chunked { .. } => {
                svr_text::postings::ChunkedPostingsIter::new(buf, with_scores)
                    .map(|(cid, p)| LongPosting {
                        pos: PostingPos::ByChunk(cid),
                        doc: p.doc,
                        tscore: p.tscore,
                    })
                    .collect()
            }
            ListFormat::Score { .. } => {
                svr_text::postings::ScorePostingsIter::new(buf, with_scores)
                    .map(|(score, doc, tscore)| LongPosting {
                        pos: PostingPos::ByScore(score),
                        doc,
                        tscore,
                    })
                    .collect()
            }
        });
    }
    if buf.is_empty() {
        return Ok(Vec::new());
    }
    let mut pos = 0usize;
    let total_postings = read_list_header_slice(format, buf, &mut pos)?;
    let mut out = Vec::new();
    while pos < buf.len() {
        let meta = read_block_meta_slice(format, buf, &mut pos)?;
        let payload_len =
            usize::try_from(meta.payload_len).map_err(|_| corrupt("payload length"))?;
        let end = pos
            .checked_add(payload_len)
            .ok_or_else(|| corrupt("truncated block"))?;
        let payload = buf
            .get(pos..end)
            .ok_or_else(|| corrupt("truncated block"))?;
        pos = end;
        decode_block(format, &meta, payload, &mut out)?;
    }
    if out.len() as u64 != total_postings {
        return Err(corrupt("list posting count does not match header"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tsp(doc: u32, tscore: u16) -> TermScoredPosting {
        TermScoredPosting {
            doc: DocId(doc),
            tscore,
        }
    }

    #[test]
    fn bit_packing_roundtrip() {
        for bits in [0u8, 1, 3, 8, 13, 17, 32] {
            let mask = if bits == 0 {
                0
            } else if bits == 32 {
                u32::MAX
            } else {
                (1u32 << bits) - 1
            };
            let values: Vec<u32> = (0..77u32)
                .map(|i| (i.wrapping_mul(0x9E37_79B9)) & mask)
                .collect();
            let mut buf = Vec::new();
            pack_bits(&values, bits, &mut buf);
            let mut pos = 0;
            let mut out = Vec::new();
            unpack_bits(&buf, &mut pos, bits, values.len(), &mut out).unwrap();
            assert_eq!(out, values, "bits={bits}");
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn id_list_roundtrips_every_codec() {
        let postings: Vec<TermScoredPosting> = (0..1000u32)
            .map(|i| tsp(i * 3 + (i % 7), (i % 300) as u16))
            .collect();
        let mut postings = postings;
        postings.sort_by_key(|p| p.doc);
        postings.dedup_by_key(|p| p.doc);
        for codec in CodecKind::ALL {
            for with_scores in [false, true] {
                let mut buf = Vec::new();
                encode_id_list(codec, &postings, with_scores, &mut buf);
                let decoded = decode_list(codec, ListFormat::Id { with_scores }, &buf).unwrap();
                assert_eq!(decoded.len(), postings.len(), "{codec:?}");
                for (d, p) in decoded.iter().zip(&postings) {
                    assert_eq!(d.doc, p.doc, "{codec:?}");
                    assert_eq!(d.tscore, if with_scores { p.tscore } else { 0 });
                }
            }
        }
    }

    #[test]
    fn chunked_list_roundtrips_every_codec() {
        // A group large enough to straddle several blocks plus tiny ones.
        let groups = vec![
            ChunkGroup {
                cid: 9,
                postings: (0..400u32).map(|i| tsp(i * 2, i as u16)).collect(),
            },
            ChunkGroup {
                cid: 4,
                postings: vec![tsp(7, 65535)],
            },
            ChunkGroup {
                cid: 1,
                postings: (0..130u32).map(|i| tsp(i + 3, 9)).collect(),
            },
        ];
        let want: Vec<(u32, u32)> = groups
            .iter()
            .flat_map(|g| g.postings.iter().map(move |p| (g.cid, p.doc.0)))
            .collect();
        for codec in CodecKind::ALL {
            for with_scores in [false, true] {
                let mut buf = Vec::new();
                encode_chunked_list(codec, &groups, with_scores, &mut buf);
                let decoded =
                    decode_list(codec, ListFormat::Chunked { with_scores }, &buf).unwrap();
                let got: Vec<(u32, u32)> = decoded
                    .iter()
                    .map(|p| match p.pos {
                        PostingPos::ByChunk(cid) => (cid, p.doc.0),
                        _ => panic!("wrong pos kind"),
                    })
                    .collect();
                assert_eq!(got, want, "{codec:?} with_scores={with_scores}");
            }
        }
    }

    #[test]
    fn score_list_roundtrips_every_codec() {
        let mut rows: Vec<(f64, DocId, u16)> = (0..300u32)
            .map(|i| {
                (
                    1e6 / f64::from(i + 1),
                    DocId(i * 17 % 1000),
                    (i % 70) as u16,
                )
            })
            .collect();
        rows.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        rows.dedup_by_key(|r| (r.0.to_bits(), r.1));
        for codec in CodecKind::ALL {
            for with_scores in [false, true] {
                let mut buf = Vec::new();
                encode_score_list(codec, &rows, with_scores, &mut buf);
                let decoded = decode_list(codec, ListFormat::Score { with_scores }, &buf).unwrap();
                assert_eq!(decoded.len(), rows.len());
                for (d, r) in decoded.iter().zip(&rows) {
                    assert_eq!(d.pos, PostingPos::ByScore(r.0), "{codec:?}");
                    assert_eq!(d.doc, r.1);
                    assert_eq!(d.tscore, if with_scores { r.2 } else { 0 });
                }
            }
        }
    }

    #[test]
    fn bitpacked_beats_legacy_on_consecutive_ids() {
        let postings: Vec<TermScoredPosting> = (0..10_000u32).map(|i| tsp(i, 0)).collect();
        let mut legacy = Vec::new();
        encode_id_list(CodecKind::Legacy, &postings, false, &mut legacy);
        let mut packed = Vec::new();
        encode_id_list(CodecKind::Bitpacked, &postings, false, &mut packed);
        assert!(
            packed.len() < legacy.len(),
            "bitpacking must beat legacy delta-varint on consecutive ids: {} vs {}",
            packed.len(),
            legacy.len()
        );
    }

    #[test]
    fn empty_lists_encode_to_nothing() {
        for codec in CodecKind::ALL {
            let mut buf = Vec::new();
            encode_id_list(codec, &[], false, &mut buf);
            assert!(buf.is_empty(), "{codec:?}");
            assert!(
                decode_list(codec, ListFormat::Id { with_scores: false }, &buf)
                    .unwrap()
                    .is_empty()
            );
        }
    }

    #[test]
    fn truncations_and_garbage_decode_to_clean_errors() {
        let postings: Vec<TermScoredPosting> = (0..500u32).map(|i| tsp(i * 5, i as u16)).collect();
        let codec = CodecKind::Bitpacked;
        let mut buf = Vec::new();
        encode_id_list(codec, &postings, true, &mut buf);
        let format = ListFormat::Id { with_scores: true };
        // Every proper prefix must fail cleanly (truncation is either a
        // header/payload error or a count-mismatch error), never panic.
        for cut in 1..buf.len() {
            assert!(
                decode_list(codec, format, &buf[..cut]).is_err(),
                "cut={cut}"
            );
        }
        // Flipped header bytes must be rejected.
        let mut bad = buf.clone();
        bad[0] ^= 0xff;
        assert!(decode_list(codec, format, &bad).is_err());
        let mut bad = buf.clone();
        bad[1] ^= 0x01;
        assert!(decode_list(codec, format, &bad).is_err());
        // Pure garbage with a valid-looking header prefix.
        let mut garbage = vec![LIST_MAGIC, codec.tag(), 0b0000_0001];
        garbage.extend_from_slice(&[0xfe; 64]);
        assert!(decode_list(codec, format, &garbage).is_err());
    }

    #[test]
    fn codec_tags_and_names_roundtrip() {
        for codec in CodecKind::ALL {
            assert_eq!(CodecKind::from_tag(codec.tag()), Ok(codec));
            assert_eq!(CodecKind::from_name(codec.name()), Ok(codec));
        }
        // Retired codecs are refused by tag and by name, naming the codec;
        // their tags are never reinterpreted.
        for (tag, name) in [(1, "uncompressed"), (2, "VarInt")] {
            for err in [CodecKind::from_tag(tag), CodecKind::from_name(name)] {
                match err {
                    Err(CoreError::Unsupported(what)) => assert!(
                        what.contains(&name.to_ascii_lowercase()) && what.contains("retired"),
                        "{what}"
                    ),
                    other => panic!("{name}: {other:?}"),
                }
            }
        }
        assert!(matches!(
            CodecKind::from_tag(99),
            Err(CoreError::Storage(_))
        ));
        assert!(matches!(
            CodecKind::from_name("zstd"),
            Err(CoreError::InvalidConfig(_))
        ));
    }
}
