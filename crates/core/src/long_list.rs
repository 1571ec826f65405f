//! Long (immutable) inverted lists in the blob store, plus streaming
//! cursors.
//!
//! Lists are stored in the codec configured per store ([`CodecKind`]): the
//! flat legacy `svr_text::postings` layouts, or the block-structured codec
//! of [`crate::codec`] whose per-block skip metadata lets cursors skip
//! whole blocks without decoding them. Either way they are decoded
//! *incrementally*, page by page, so early-terminating queries only pay for
//! the prefix of the list they actually visit.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use svr_storage::codec::{read_array, read_u32_be};
use svr_storage::{BlobHandle, BlobStore, Store};
use svr_text::postings::{ChunkGroup, TermScoredPosting};
use svr_text::{normalized_tf, quantize_term_score};

use crate::byte_stream::{ByteStream, StreamPos};
use crate::codec::{self, BlockMeta, CodecKind};
use crate::error::{CoreError, Result};
use crate::short_list::PostingPos;
use crate::types::{DocId, TermId};

fn corrupt(msg: &'static str) -> CoreError {
    CoreError::Storage(svr_storage::StorageError::Corrupt(msg))
}

/// Long-list layout used by a method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ListFormat {
    /// Doc-id order (ID, ID-TermScore; also fancy lists).
    Id { with_scores: bool },
    /// Chunk groups descending, doc ids ascending within (Chunk, Chunk-TS).
    Chunked { with_scores: bool },
    /// `(score, doc)` pairs, score descending (Score-Threshold).
    Score { with_scores: bool },
}

/// One decoded long-list posting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LongPosting {
    pub pos: PostingPos,
    pub doc: DocId,
    pub tscore: u16,
}

/// Directory entry of one stored list.
#[derive(Debug, Clone, Copy)]
struct DirEntry {
    handle: BlobHandle,
    /// Postings in the list (drives the bytes-per-posting diagnostics).
    postings: u64,
}

/// Immutable per-term lists in one blob store with an in-memory directory.
///
/// The hot directory (term -> blob handle) is held in memory to keep the
/// I/O counters focused on what the paper measures (the lists themselves);
/// a **durable** list store additionally mirrors the directory into a small
/// B+-tree in the same store (written only when lists are replaced — build
/// and offline-merge time, never on the query or score-update path), so a
/// reopened store finds its page chains again.
pub struct LongListStore {
    blobs: BlobStore,
    format: ListFormat,
    codec: CodecKind,
    directory: RwLock<HashMap<TermId, DirEntry>>,
    /// Durable mirror of `directory` (None for in-memory stores).
    dir_tree: Option<svr_storage::BTree>,
    total_bytes: AtomicU64,
    total_postings: AtomicU64,
    /// Structural epoch: bumped whenever a list is replaced (offline merge).
    /// A suspended cursor's positions belong to one epoch; the index
    /// restarts the cursor's streams instead of resuming them once it moved.
    epoch: AtomicU64,
}

/// Encode a directory row: `first_page + 1` (0 = empty blob), len, pages,
/// posting count.
fn encode_entry(e: &DirEntry) -> [u8; 32] {
    let mut v = [0u8; 32];
    v[..8].copy_from_slice(&e.handle.first_page.map_or(0, |p| p + 1).to_le_bytes());
    v[8..16].copy_from_slice(&e.handle.len.to_le_bytes());
    v[16..24].copy_from_slice(&e.handle.pages.to_le_bytes());
    v[24..32].copy_from_slice(&e.postings.to_le_bytes());
    v
}

/// Decode a directory row. Rows written before posting counts existed are
/// 24 bytes; they decode with `postings == 0` (the gauge self-heals at the
/// next offline merge).
fn decode_entry(raw: &[u8]) -> Result<DirEntry> {
    if raw.len() < 24 {
        return Err(corrupt("long-list directory row"));
    }
    let first = u64::from_le_bytes(read_array(raw, 0));
    let postings = if raw.len() >= 32 {
        u64::from_le_bytes(read_array(raw, 24))
    } else {
        0
    };
    Ok(DirEntry {
        handle: BlobHandle {
            first_page: first.checked_sub(1),
            len: u64::from_le_bytes(read_array(raw, 8)),
            pages: u64::from_le_bytes(read_array(raw, 16)),
        },
        postings,
    })
}

impl LongListStore {
    /// Create an empty list store.
    pub fn new(store: Arc<Store>, format: ListFormat, codec: CodecKind) -> LongListStore {
        LongListStore {
            blobs: BlobStore::new(store),
            format,
            codec,
            directory: RwLock::new(HashMap::new()),
            dir_tree: None,
            total_bytes: AtomicU64::new(0),
            total_postings: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
        }
    }

    /// [`LongListStore::new`] or [`LongListStore::create_durable`] by flag.
    pub fn create_in(
        store: Arc<Store>,
        format: ListFormat,
        codec: CodecKind,
        durable: bool,
    ) -> Result<LongListStore> {
        if durable {
            LongListStore::create_durable(store, format, codec)
        } else {
            Ok(LongListStore::new(store, format, codec))
        }
    }

    /// Create an empty **durable** list store: the directory tree's
    /// metadata occupies the store's first pages, so
    /// [`LongListStore::open`] can reattach from nothing but the store.
    pub fn create_durable(
        store: Arc<Store>,
        format: ListFormat,
        codec: CodecKind,
    ) -> Result<LongListStore> {
        let dir_tree = crate::durable::create_tree(store.clone(), true)?;
        Ok(LongListStore {
            blobs: BlobStore::new(store),
            format,
            codec,
            directory: RwLock::new(HashMap::new()),
            dir_tree: Some(dir_tree),
            total_bytes: AtomicU64::new(0),
            total_postings: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
        })
    }

    /// Reattach a durable list store, reloading the directory (and the
    /// size gauges) from its persisted mirror. `codec` must be the codec
    /// the store was created with — it is recorded in the engine's index
    /// catalog, never sniffed from list bytes.
    pub fn open(store: Arc<Store>, format: ListFormat, codec: CodecKind) -> Result<LongListStore> {
        let dir_tree = crate::durable::open_tree(store.clone())?;
        let mut directory = HashMap::new();
        let mut total = 0u64;
        let mut postings = 0u64;
        {
            let mut cursor = dir_tree.cursor(&[])?;
            while let Some((k, v)) = cursor.next_entry()? {
                if k.len() < 4 {
                    return Err(corrupt("long-list directory key"));
                }
                let term = TermId(read_u32_be(&k, 0));
                let entry = decode_entry(&v)?;
                total += entry.handle.len;
                postings += entry.postings;
                directory.insert(term, entry);
            }
        }
        Ok(LongListStore {
            blobs: BlobStore::new(store),
            format,
            codec,
            directory: RwLock::new(directory),
            dir_tree: Some(dir_tree),
            total_bytes: AtomicU64::new(total),
            total_postings: AtomicU64::new(postings),
            epoch: AtomicU64::new(0),
        })
    }

    /// Layout of the stored lists.
    pub fn format(&self) -> ListFormat {
        self.format
    }

    /// Codec of the stored lists.
    pub fn codec(&self) -> CodecKind {
        self.codec
    }

    /// Structural epoch of the store. A position captured by a suspended
    /// cursor is only valid while this is unchanged.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Store (replacing any previous) the encoded list for `term`.
    /// `postings` is the number of postings in `encoded`; callers should
    /// prefer the typed `put_*_list` builders, which encode with the
    /// store's codec and count for you.
    pub fn set_list(&self, term: TermId, encoded: &[u8], postings: u64) -> Result<()> {
        let handle = self.blobs.put(encoded)?;
        let entry = DirEntry { handle, postings };
        if let Some(tree) = &self.dir_tree {
            tree.put(&term.0.to_be_bytes(), &encode_entry(&entry))?;
        }
        let mut dir = self.directory.write();
        if let Some(old) = dir.insert(term, entry) {
            self.blobs.free(old.handle)?;
            self.total_bytes
                .fetch_sub(old.handle.len, Ordering::Relaxed);
            self.total_postings
                .fetch_sub(old.postings, Ordering::Relaxed);
        }
        self.total_bytes
            .fetch_add(encoded.len() as u64, Ordering::Relaxed);
        self.total_postings.fetch_add(postings, Ordering::Relaxed);
        self.epoch.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// Encode and store an Id-format list with the store's codec.
    pub fn put_id_list(&self, term: TermId, postings: &[TermScoredPosting]) -> Result<()> {
        let ListFormat::Id { with_scores } = self.format else {
            return Err(CoreError::Unsupported(
                "put_id_list on a non-id long-list store",
            ));
        };
        let mut buf = Vec::new();
        codec::encode_id_list(self.codec, postings, with_scores, &mut buf);
        self.set_list(term, &buf, postings.len() as u64)
    }

    /// Encode and store a chunked list with the store's codec.
    pub fn put_chunked_list(&self, term: TermId, groups: &[ChunkGroup]) -> Result<()> {
        let ListFormat::Chunked { with_scores } = self.format else {
            return Err(CoreError::Unsupported(
                "put_chunked_list on a non-chunked long-list store",
            ));
        };
        let mut buf = Vec::new();
        codec::encode_chunked_list(self.codec, groups, with_scores, &mut buf);
        let count = groups.iter().map(|g| g.postings.len() as u64).sum();
        self.set_list(term, &buf, count)
    }

    /// Encode and store a score-ordered list with the store's codec.
    pub fn put_score_list(&self, term: TermId, rows: &[(f64, DocId, u16)]) -> Result<()> {
        let ListFormat::Score { with_scores } = self.format else {
            return Err(CoreError::Unsupported(
                "put_score_list on a non-score long-list store",
            ));
        };
        let mut buf = Vec::new();
        codec::encode_score_list(self.codec, rows, with_scores, &mut buf);
        self.set_list(term, &buf, rows.len() as u64)
    }

    /// Drop a term's list (stores an empty one).
    pub fn clear_list(&self, term: TermId) -> Result<()> {
        self.set_list(term, &[], 0)
    }

    /// Raw bytes of a term's list (offline merge / tests).
    pub fn raw_list(&self, term: TermId) -> Result<Option<Vec<u8>>> {
        let handle = self.directory.read().get(&term).map(|e| e.handle);
        match handle {
            Some(h) => Ok(Some(self.blobs.read_all(h)?)),
            None => Ok(None),
        }
    }

    /// Streaming cursor over a term's list (empty cursor for unknown terms).
    pub fn cursor(&self, term: TermId) -> LongCursor<'_> {
        let handle = self.directory.read().get(&term).map(|e| e.handle);
        match handle {
            None => LongCursor::empty(),
            Some(h) => self.cursor_from(ByteStream::new(self.blobs.reader(h)), None),
        }
    }

    fn cursor_from<'a>(
        &self,
        stream: ByteStream<'a>,
        decode: Option<DecodeState>,
    ) -> LongCursor<'a> {
        if self.codec != CodecKind::Legacy {
            let (skip, header_read) = match decode {
                Some(DecodeState::Block { skip, header_read }) => (skip as usize, header_read),
                _ => (0, false),
            };
            let block_start = stream.position();
            return LongCursor {
                inner: CursorInner::Block(Box::new(BlockCursorState {
                    stream,
                    format: self.format,
                    header_read,
                    block_start,
                    decoded: Vec::new(),
                    idx: 0,
                    pending_skip: skip,
                    block_buf: Vec::new(),
                    meta: None,
                    expect_remaining: None,
                    blocks_skipped: 0,
                    blocks_decoded: 0,
                })),
            };
        }
        let inner = match self.format {
            ListFormat::Id { with_scores } => {
                let prev = match decode {
                    Some(DecodeState::Id { prev }) => prev,
                    _ => None,
                };
                CursorInner::Id(IdCursorState {
                    stream,
                    with_scores,
                    prev,
                })
            }
            ListFormat::Chunked { with_scores } => {
                let (current_cid, remaining, prev) = match decode {
                    Some(DecodeState::Chunked {
                        cid,
                        remaining,
                        prev,
                    }) => (cid, remaining, prev),
                    _ => (0, 0, None),
                };
                CursorInner::Chunked(ChunkCursorState {
                    stream,
                    with_scores,
                    current_cid,
                    remaining,
                    prev,
                })
            }
            ListFormat::Score { with_scores } => CursorInner::Score(ScoreCursorState {
                stream,
                with_scores,
            }),
        };
        LongCursor { inner }
    }

    /// Reopen a suspended cursor exactly where it stopped: the incremental
    /// cost is at most re-fetching one (usually cached) page, plus
    /// re-decoding the current block for the block codec. `resume` must
    /// come from a cursor of this store in the current
    /// [`epoch`](LongListStore::epoch) — the index restarts cursors whose
    /// lists were rebuilt instead of resuming them.
    pub(crate) fn resume_cursor(
        &self,
        term: TermId,
        resume: &LongResume,
    ) -> Result<LongCursor<'_>> {
        match *resume {
            LongResume::Fresh => Ok(self.cursor(term)),
            LongResume::Done => Ok(LongCursor::empty()),
            LongResume::At { pos, decode } => {
                let stream = ByteStream::resume(&self.blobs, pos)?;
                Ok(self.cursor_from(stream, Some(decode)))
            }
        }
    }

    /// Total encoded (physical, post-compression) bytes across every term
    /// (the paper's Table 1 metric).
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes.load(Ordering::Relaxed)
    }

    /// Total postings across every term. Together with
    /// [`total_bytes`](LongListStore::total_bytes) this gives the
    /// bytes-per-posting / compression-ratio diagnostics.
    pub fn total_postings(&self) -> u64 {
        self.total_postings.load(Ordering::Relaxed)
    }

    /// Number of terms with lists.
    pub fn num_terms(&self) -> usize {
        self.directory.read().len()
    }

    /// Terms with stored lists (unsorted).
    pub fn terms(&self) -> Vec<TermId> {
        self.directory.read().keys().copied().collect()
    }

    /// Pages occupied by a term's list (I/O cost of a full scan). Physical
    /// pages of the *encoded* list, so compression shows up directly here.
    pub fn pages_of(&self, term: TermId) -> u64 {
        self.directory
            .read()
            .get(&term)
            .map_or(0, |e| e.handle.pages)
    }
}

/// Decoder-internal state captured when a cursor suspends, sufficient to
/// continue decoding mid-list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum DecodeState {
    Id {
        prev: Option<u32>,
    },
    Chunked {
        cid: u32,
        remaining: u64,
        prev: Option<u32>,
    },
    Score,
    /// Block codecs: `pos` points at a block header (or the list header when
    /// `header_read` is false); `skip` postings of that block were already
    /// delivered before suspension and are re-decoded and dropped on resume.
    Block {
        skip: u32,
        header_read: bool,
    },
}

/// Owned suspension state of a [`LongCursor`] — everything needed to
/// continue the scan in a later call without holding any borrow of the
/// store. Produced by `LongCursor::suspend`, consumed by
/// `LongListStore::resume_cursor`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum LongResume {
    /// Never opened: resume = plain [`LongListStore::cursor`].
    Fresh,
    /// The scan reached the end of the list.
    Done,
    /// Mid-list: byte position + decoder state.
    At { pos: StreamPos, decode: DecodeState },
}

/// Streaming decoder over one term's long list.
pub struct LongCursor<'a> {
    inner: CursorInner<'a>,
}

enum CursorInner<'a> {
    Empty,
    Id(IdCursorState<'a>),
    Chunked(ChunkCursorState<'a>),
    Score(ScoreCursorState<'a>),
    Block(Box<BlockCursorState<'a>>),
}

pub struct IdCursorState<'a> {
    stream: ByteStream<'a>,
    with_scores: bool,
    prev: Option<u32>,
}

pub struct ChunkCursorState<'a> {
    stream: ByteStream<'a>,
    with_scores: bool,
    current_cid: u32,
    remaining: u64,
    prev: Option<u32>,
}

pub struct ScoreCursorState<'a> {
    stream: ByteStream<'a>,
    with_scores: bool,
}

/// Cursor state over a block-structured list: decodes one block at a time
/// into a reused posting buffer, reading each payload through a reused byte
/// buffer (no per-block allocation on the steady state).
struct BlockCursorState<'a> {
    stream: ByteStream<'a>,
    format: ListFormat,
    /// Whether the list header has been consumed from the stream.
    header_read: bool,
    /// Stream position of the current block's header (suspension anchor).
    block_start: StreamPos,
    /// Decoded postings of the current block.
    decoded: Vec<LongPosting>,
    /// Next undelivered posting in `decoded`.
    idx: usize,
    /// Postings of the *next decoded* block to drop (resume mid-block).
    pending_skip: usize,
    /// Reused payload read buffer.
    block_buf: Vec<u8>,
    /// Skip metadata of the current block.
    meta: Option<BlockMeta>,
    /// Postings still expected from the stream (fresh scans only) — lets a
    /// full scan detect a truncated list instead of stopping silently.
    expect_remaining: Option<u64>,
    /// Blocks skipped undecoded via [`LongCursor::skip_to_doc`].
    blocks_skipped: u64,
    /// Blocks whose payload was decoded by this cursor.
    blocks_decoded: u64,
}

fn read_list_header_stream(stream: &mut ByteStream<'_>, format: ListFormat) -> Result<u64> {
    let magic = stream.read_u8()?;
    let tag = stream.read_u8()?;
    let flags = stream.read_u8()?;
    codec::check_header(format, magic, tag, flags)?;
    stream.read_varint()
}

fn read_block_meta_stream(stream: &mut ByteStream<'_>, format: ListFormat) -> Result<BlockMeta> {
    let count = stream.read_varint()?;
    let payload_len = stream.read_varint()?;
    let max_doc = stream.read_varint()?;
    let max_tscore = stream.read_varint()?;
    let max_score = if matches!(format, ListFormat::Score { .. }) {
        stream.read_f64_le()?
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
    codec::check_block_meta(&meta)?;
    Ok(meta)
}

impl BlockCursorState<'_> {
    /// Position the stream at the next block header, consuming the list
    /// header first if needed. Returns false (cleanly) at end of list.
    fn at_next_block(&mut self) -> Result<bool> {
        if !self.header_read {
            if self.stream.is_eof()? {
                return Ok(false); // empty list: zero bytes
            }
            let total = read_list_header_stream(&mut self.stream, self.format)?;
            self.expect_remaining = Some(total);
            self.header_read = true;
        }
        self.block_start = self.stream.position();
        if self.stream.is_eof()? {
            if self.expect_remaining.is_some_and(|rem| rem != 0) {
                return Err(corrupt("long list truncated before header total"));
            }
            return Ok(false);
        }
        Ok(true)
    }

    /// Decode the block at the stream position into `decoded`.
    fn load_block(&mut self, meta: BlockMeta) -> Result<()> {
        let payload_len =
            usize::try_from(meta.payload_len).map_err(|_| corrupt("block payload length"))?;
        self.stream.read_into(payload_len, &mut self.block_buf)?;
        self.decoded.clear();
        codec::decode_block(self.format, &meta, &self.block_buf, &mut self.decoded)?;
        if let Some(rem) = &mut self.expect_remaining {
            *rem = rem
                .checked_sub(meta.count)
                .ok_or_else(|| corrupt("long list holds more postings than header"))?;
        }
        self.idx = self.pending_skip.min(self.decoded.len());
        self.pending_skip = 0;
        self.meta = Some(meta);
        self.blocks_decoded += 1;
        Ok(())
    }

    /// Advance to the next decoded, undelivered block. False at end of list.
    fn next_block(&mut self) -> Result<bool> {
        if !self.at_next_block()? {
            return Ok(false);
        }
        let meta = read_block_meta_stream(&mut self.stream, self.format)?;
        self.load_block(meta)?;
        Ok(true)
    }
}

impl LongCursor<'_> {
    /// A cursor over nothing (unknown terms; methods without long lists).
    pub fn empty() -> LongCursor<'static> {
        LongCursor {
            inner: CursorInner::Empty,
        }
    }

    /// Capture this cursor's suspension state.
    pub(crate) fn suspend(&self) -> LongResume {
        match &self.inner {
            CursorInner::Empty => LongResume::Done,
            CursorInner::Id(s) => LongResume::At {
                pos: s.stream.position(),
                decode: DecodeState::Id { prev: s.prev },
            },
            CursorInner::Chunked(s) => LongResume::At {
                pos: s.stream.position(),
                decode: DecodeState::Chunked {
                    cid: s.current_cid,
                    remaining: s.remaining,
                    prev: s.prev,
                },
            },
            CursorInner::Score(s) => LongResume::At {
                pos: s.stream.position(),
                decode: DecodeState::Score,
            },
            CursorInner::Block(s) => {
                if s.idx < s.decoded.len() || s.pending_skip > 0 {
                    // Mid-block: anchor at the block header and re-decode
                    // the one block on resume, dropping what was delivered.
                    LongResume::At {
                        pos: s.block_start,
                        decode: DecodeState::Block {
                            skip: (s.idx + s.pending_skip) as u32,
                            header_read: true,
                        },
                    }
                } else {
                    // Between blocks: the next unread byte is a block header
                    // (or the list header / EOF).
                    LongResume::At {
                        pos: s.stream.position(),
                        decode: DecodeState::Block {
                            skip: 0,
                            header_read: s.header_read,
                        },
                    }
                }
            }
        }
    }

    /// Skip metadata of the block the cursor is currently positioned in
    /// (block codec, after the first posting). This is the block-max hook
    /// for WAND-style multi-term pruning.
    pub fn block_meta(&self) -> Option<BlockMeta> {
        match &self.inner {
            CursorInner::Block(s) => s.meta,
            _ => None,
        }
    }

    /// Blocks this cursor skipped without decoding (diagnostics).
    pub fn blocks_skipped(&self) -> u64 {
        match &self.inner {
            CursorInner::Block(s) => s.blocks_skipped,
            _ => 0,
        }
    }

    /// Blocks this cursor decoded (diagnostics; 0 for legacy lists).
    pub fn blocks_decoded(&self) -> u64 {
        match &self.inner {
            CursorInner::Block(s) => s.blocks_decoded,
            _ => 0,
        }
    }

    /// Consume postings up to and including the first with `doc >= target`
    /// and return it, or `None` when the list holds no such posting.
    ///
    /// Only meaningful for doc-ordered (Id-format) lists. Block cursors use
    /// the per-block max-doc metadata to *skip* whole blocks — their
    /// payloads are never copied or decoded; legacy cursors (and non-Id
    /// layouts, where doc ids are not globally ascending) degrade to a
    /// linear scan.
    pub fn skip_to_doc(&mut self, target: DocId) -> Result<Option<LongPosting>> {
        if let CursorInner::Block(s) = &mut self.inner {
            if matches!(s.format, ListFormat::Id { .. }) && s.pending_skip == 0 {
                loop {
                    while s.idx < s.decoded.len() {
                        let p = s.decoded[s.idx];
                        s.idx += 1;
                        if p.doc >= target {
                            return Ok(Some(p));
                        }
                    }
                    if !s.at_next_block()? {
                        return Ok(None);
                    }
                    let meta = read_block_meta_stream(&mut s.stream, s.format)?;
                    if meta.max_doc < target.0 {
                        let payload_len = usize::try_from(meta.payload_len)
                            .map_err(|_| corrupt("block payload length"))?;
                        s.stream.skip(payload_len)?;
                        if let Some(rem) = &mut s.expect_remaining {
                            *rem = rem.checked_sub(meta.count).ok_or_else(|| {
                                corrupt("long list holds more postings than header")
                            })?;
                        }
                        s.meta = Some(meta);
                        s.blocks_skipped += 1;
                        continue;
                    }
                    s.load_block(meta)?;
                }
            }
        }
        while let Some(p) = self.next_posting()? {
            if p.doc >= target {
                return Ok(Some(p));
            }
        }
        Ok(None)
    }

    /// Next posting in list order, or `None` at the end.
    pub fn next_posting(&mut self) -> Result<Option<LongPosting>> {
        match &mut self.inner {
            CursorInner::Empty => Ok(None),
            CursorInner::Id(state) => {
                if state.stream.is_eof()? {
                    return Ok(None);
                }
                let delta = state.stream.read_varint()? as u32;
                let doc = match state.prev {
                    None => delta,
                    Some(prev) => prev + delta + 1,
                };
                state.prev = Some(doc);
                let tscore = if state.with_scores {
                    state.stream.read_u16_le()?
                } else {
                    0
                };
                Ok(Some(LongPosting {
                    pos: PostingPos::Id,
                    doc: DocId(doc),
                    tscore,
                }))
            }
            CursorInner::Chunked(state) => {
                while state.remaining == 0 {
                    if state.stream.is_eof()? {
                        return Ok(None);
                    }
                    state.current_cid = state.stream.read_varint()? as u32;
                    state.remaining = state.stream.read_varint()?;
                    state.prev = None;
                }
                state.remaining -= 1;
                let delta = state.stream.read_varint()? as u32;
                let doc = match state.prev {
                    None => delta,
                    Some(prev) => prev + delta + 1,
                };
                state.prev = Some(doc);
                let tscore = if state.with_scores {
                    state.stream.read_u16_le()?
                } else {
                    0
                };
                Ok(Some(LongPosting {
                    pos: PostingPos::ByChunk(state.current_cid),
                    doc: DocId(doc),
                    tscore,
                }))
            }
            CursorInner::Score(state) => {
                if state.stream.is_eof()? {
                    return Ok(None);
                }
                let score = state.stream.read_f64_le()?;
                let doc = state.stream.read_u32_le()?;
                let tscore = if state.with_scores {
                    state.stream.read_u16_le()?
                } else {
                    0
                };
                Ok(Some(LongPosting {
                    pos: PostingPos::ByScore(score),
                    doc: DocId(doc),
                    tscore,
                }))
            }
            CursorInner::Block(state) => loop {
                if state.idx < state.decoded.len() {
                    let p = state.decoded[state.idx];
                    state.idx += 1;
                    return Ok(Some(p));
                }
                if !state.next_block()? {
                    return Ok(None);
                }
            },
        }
    }
}

/// Quantized term score for a `(tf, max_tf)` pair.
#[inline]
pub fn posting_term_score(tf: u32, max_tf: u32) -> u16 {
    quantize_term_score(normalized_tf(tf, max_tf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use svr_storage::MemDisk;
    use svr_text::postings::PostingsBuilder;

    fn store() -> Arc<Store> {
        Arc::new(Store::new(Arc::new(MemDisk::new(128)), 8))
    }

    #[test]
    fn id_cursor_streams_pages() {
        let lls = LongListStore::new(
            store(),
            ListFormat::Id { with_scores: false },
            CodecKind::Legacy,
        );
        let docs: Vec<DocId> = (0..500u32).map(|i| DocId(i * 3)).collect();
        let mut buf = Vec::new();
        PostingsBuilder::encode_id_list(&docs, &mut buf);
        lls.set_list(TermId(1), &buf, docs.len() as u64).unwrap();
        let mut cursor = lls.cursor(TermId(1));
        for &d in &docs {
            let p = cursor.next_posting().unwrap().unwrap();
            assert_eq!(p.doc, d);
            assert_eq!(p.pos, PostingPos::Id);
        }
        assert!(cursor.next_posting().unwrap().is_none());
        assert!(lls.pages_of(TermId(1)) > 1, "list must span pages");
    }

    #[test]
    fn chunked_cursor_streams() {
        let lls = LongListStore::new(
            store(),
            ListFormat::Chunked { with_scores: true },
            CodecKind::Legacy,
        );
        let groups = vec![
            ChunkGroup {
                cid: 5,
                postings: (0..100u32)
                    .map(|i| TermScoredPosting {
                        doc: DocId(i * 2),
                        tscore: i as u16,
                    })
                    .collect(),
            },
            ChunkGroup {
                cid: 1,
                postings: vec![TermScoredPosting {
                    doc: DocId(7),
                    tscore: 999,
                }],
            },
        ];
        lls.put_chunked_list(TermId(2), &groups).unwrap();
        let mut cursor = lls.cursor(TermId(2));
        let mut seen = Vec::new();
        while let Some(p) = cursor.next_posting().unwrap() {
            seen.push(p);
        }
        assert_eq!(seen.len(), 101);
        assert_eq!(seen[0].pos, PostingPos::ByChunk(5));
        assert_eq!(seen[100].pos, PostingPos::ByChunk(1));
        assert_eq!(seen[100].doc, DocId(7));
        assert_eq!(seen[100].tscore, 999);
        assert_eq!(lls.total_postings(), 101);
    }

    #[test]
    fn score_cursor_streams() {
        let lls = LongListStore::new(
            store(),
            ListFormat::Score { with_scores: false },
            CodecKind::Legacy,
        );
        let postings = vec![
            (124.2, DocId(9), 0u16),
            (87.13, DocId(2), 0),
            (3.0, DocId(5), 0),
        ];
        lls.put_score_list(TermId(3), &postings).unwrap();
        let mut cursor = lls.cursor(TermId(3));
        let p = cursor.next_posting().unwrap().unwrap();
        assert_eq!(p.pos, PostingPos::ByScore(124.2));
        assert_eq!(p.doc, DocId(9));
    }

    #[test]
    fn unknown_term_is_empty_cursor() {
        let lls = LongListStore::new(
            store(),
            ListFormat::Id { with_scores: false },
            CodecKind::Legacy,
        );
        assert!(lls.cursor(TermId(99)).next_posting().unwrap().is_none());
        assert_eq!(lls.total_bytes(), 0);
    }

    #[test]
    fn replacing_a_list_updates_bytes_and_postings() {
        let lls = LongListStore::new(
            store(),
            ListFormat::Id { with_scores: false },
            CodecKind::Legacy,
        );
        lls.set_list(TermId(1), &[1, 2, 3, 4], 4).unwrap();
        assert_eq!(lls.total_bytes(), 4);
        assert_eq!(lls.total_postings(), 4);
        lls.set_list(TermId(1), &[1, 2], 2).unwrap();
        assert_eq!(lls.total_bytes(), 2);
        assert_eq!(lls.total_postings(), 2);
        assert_eq!(lls.num_terms(), 1);
    }

    #[test]
    fn directory_rows_without_posting_counts_still_decode() {
        // Rows persisted before the codec upgrade are 24 bytes (no posting
        // count); they must decode with postings == 0, not error.
        let entry = DirEntry {
            handle: BlobHandle {
                first_page: Some(7),
                len: 123,
                pages: 2,
            },
            postings: 55,
        };
        let full = encode_entry(&entry);
        let old = decode_entry(&full[..24]).unwrap();
        assert_eq!(old.handle.first_page, Some(7));
        assert_eq!(old.handle.len, 123);
        assert_eq!(old.handle.pages, 2);
        assert_eq!(old.postings, 0);
        let new = decode_entry(&full).unwrap();
        assert_eq!(new.postings, 55);
        assert!(decode_entry(&full[..20]).is_err());
    }

    #[test]
    fn block_cursor_streams_every_codec_and_format() {
        // Strictly ascending docs with varying deltas (base step 5 dominates
        // the ±2 jitter) so delta codecs see a non-uniform gap pattern.
        let postings: Vec<TermScoredPosting> = (0..700u32)
            .map(|i| TermScoredPosting {
                doc: DocId(i * 5 + (i % 3)),
                tscore: (i % 400) as u16,
            })
            .collect();
        let codec = CodecKind::Bitpacked;
        for with_scores in [false, true] {
            let lls = LongListStore::new(store(), ListFormat::Id { with_scores }, codec);
            lls.put_id_list(TermId(1), &postings).unwrap();
            let mut cursor = lls.cursor(TermId(1));
            for p in &postings {
                let got = cursor.next_posting().unwrap().unwrap();
                assert_eq!(got.doc, p.doc);
                assert_eq!(got.tscore, if with_scores { p.tscore } else { 0 });
            }
            assert!(cursor.next_posting().unwrap().is_none());
            assert_eq!(lls.total_postings(), postings.len() as u64);
        }
    }

    #[test]
    fn block_cursor_suspends_and_resumes_at_every_posting() {
        let postings: Vec<TermScoredPosting> = (0..300u32)
            .map(|i| TermScoredPosting {
                doc: DocId(i * 7),
                tscore: i as u16,
            })
            .collect();
        let codec = CodecKind::Bitpacked;
        let lls = LongListStore::new(store(), ListFormat::Id { with_scores: true }, codec);
        lls.put_id_list(TermId(1), &postings).unwrap();
        // Suspend after every single posting and resume.
        let mut resume = LongResume::Fresh;
        for p in &postings {
            let mut cursor = lls.resume_cursor(TermId(1), &resume).unwrap();
            let got = cursor.next_posting().unwrap().unwrap();
            assert_eq!(got.doc, p.doc);
            assert_eq!(got.tscore, p.tscore);
            resume = cursor.suspend();
        }
        let mut cursor = lls.resume_cursor(TermId(1), &resume).unwrap();
        assert!(cursor.next_posting().unwrap().is_none());
    }

    #[test]
    fn skip_to_doc_skips_whole_blocks_undecoded() {
        let postings: Vec<TermScoredPosting> = (0..4000u32)
            .map(|i| TermScoredPosting {
                doc: DocId(i * 2),
                tscore: 0,
            })
            .collect();
        let codec = CodecKind::Bitpacked;
        let lls = LongListStore::new(store(), ListFormat::Id { with_scores: false }, codec);
        lls.put_id_list(TermId(1), &postings).unwrap();
        let mut cursor = lls.cursor(TermId(1));
        let p = cursor.skip_to_doc(DocId(6000)).unwrap().unwrap();
        assert!(
            cursor.blocks_skipped() >= 20,
            "skipped only {} blocks",
            cursor.blocks_skipped()
        );
        assert_eq!(p.doc, DocId(6000));
        // Block metadata is exposed for block-max pruning.
        let meta = cursor.block_meta().unwrap();
        assert!(meta.max_doc >= 6000);
        // Seeking past the end drains cleanly.
        assert!(cursor.skip_to_doc(DocId(u32::MAX)).unwrap().is_none());
        assert!(cursor.next_posting().unwrap().is_none());
        // Legacy cursors answer the same question by linear scan.
        let lls = LongListStore::new(
            store(),
            ListFormat::Id { with_scores: false },
            CodecKind::Legacy,
        );
        lls.put_id_list(TermId(1), &postings).unwrap();
        let mut cursor = lls.cursor(TermId(1));
        let p = cursor.skip_to_doc(DocId(6001)).unwrap().unwrap();
        assert_eq!(cursor.blocks_skipped(), 0);
        assert_eq!(p.doc, DocId(6002));
    }

    #[test]
    fn truncated_block_list_errors_cleanly() {
        let postings: Vec<TermScoredPosting> = (0..600u32)
            .map(|i| TermScoredPosting {
                doc: DocId(i),
                tscore: 0,
            })
            .collect();
        let codec = CodecKind::Bitpacked;
        let mut buf = Vec::new();
        codec::encode_id_list(codec, &postings, false, &mut buf);
        // Cut at a block boundary: the stream ends cleanly but the list
        // header promises more postings.
        let lls = LongListStore::new(store(), ListFormat::Id { with_scores: false }, codec);
        lls.set_list(TermId(1), &buf[..buf.len() / 2], 0).unwrap();
        let mut cursor = lls.cursor(TermId(1));
        let mut result = Ok(());
        loop {
            match cursor.next_posting() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        assert!(result.is_err(), "truncation must surface");
    }
}
