//! The Chunk method (§4.3.2) — the paper's headline index.
//!
//! Documents are partitioned into chunks by their build-time scores; long
//! lists store postings in (chunk desc, doc asc) order with **no scores**,
//! so they are nearly as compact as ID lists. A document's short-list
//! postings move only when its score climbs *two or more chunks*
//! (`thresholdValueOf(cid) = cid + 1`), and queries scan to the end of one
//! extra chunk before stopping.

use std::collections::{HashMap, HashSet};

use parking_lot::RwLock;
use svr_text::postings::{ChunkGroup, TermScoredPosting};

use crate::aux_table::{ListChunkEntry, ListChunkTable};
use crate::chunk_map::ChunkMap;
use crate::config::IndexConfig;
use crate::cursor::CursorBackend;
use crate::error::Result;
use crate::long_list::{invert_corpus, ListFormat, LongListStore};
use crate::merge::{Candidate, UnionCursor, UnionResume};
use crate::methods::base::{MethodBase, ShardContext};
use crate::methods::{store_names, Method, MethodKind, ScoreMap};
use crate::short_list::{Op, PostingPos, ShortLists, ShortOrder};
use crate::types::{ChunkId, DocId, Document, Score, TermId};

/// The Chunk method.
pub(crate) struct ChunkMethod {
    base: MethodBase,
    config: IndexConfig,
    long: LongListStore,
    short: ShortLists,
    list_chunk: ListChunkTable,
    /// Rebuilt by the offline merge; immutable between merges.
    chunk_map: RwLock<ChunkMap>,
    /// Durable shard metadata: the chunk boundaries are persisted here at
    /// build and merge time, so a reopen sees the exact map the long lists
    /// were laid out by (re-deriving it from the *current* scores would
    /// misalign it against the stored chunk groups).
    meta: crate::durable::MetaTable,
}

/// Group per-term postings by a chunk map, descending chunk, ascending doc.
pub(crate) fn group_by_chunk(
    postings: &[TermScoredPosting],
    chunk_of: impl Fn(DocId) -> ChunkId,
) -> Vec<ChunkGroup> {
    let mut by_chunk: HashMap<ChunkId, Vec<TermScoredPosting>> = HashMap::new();
    for p in postings {
        by_chunk.entry(chunk_of(p.doc)).or_default().push(*p);
    }
    let mut groups: Vec<ChunkGroup> = by_chunk
        .into_iter()
        .map(|(cid, mut postings)| {
            postings.sort_by_key(|p| p.doc);
            ChunkGroup { cid, postings }
        })
        .collect();
    groups.sort_by_key(|g| std::cmp::Reverse(g.cid));
    groups
}

impl ChunkMethod {
    /// The document's list chunk and short-list flag (Algorithm 1 adapted:
    /// an absent ListChunk entry means "never updated", in which case the
    /// current score is still the build score and locates the long posting).
    fn list_state(&self, doc: DocId, current_score: Score) -> Result<ListChunkEntry> {
        match self.list_chunk.get(doc)? {
            Some(entry) => Ok(entry),
            None => Ok(ListChunkEntry {
                l_chunk: self.chunk_map.read().chunk_of(current_score),
                in_short_list: false,
            }),
        }
    }
}

impl CursorBackend for ChunkMethod {
    fn base(&self) -> &MethodBase {
        &self.base
    }

    fn long_epoch(&self) -> u64 {
        self.long.epoch()
    }

    fn stream(&self, term: TermId, resume: &UnionResume) -> Result<UnionCursor<'_>> {
        Ok(UnionCursor::resume(
            self.long.resume_cursor(term, resume.long_resume())?,
            self.short.cursor_after(term, resume.short_resume_key())?,
            resume,
        ))
    }

    fn resolve(&self, candidate: &Candidate, _idfs: &[f64]) -> Result<Option<Score>> {
        if candidate.all_short() {
            return Ok(Some(self.base.score_table.score_of(candidate.doc)?));
        }
        match self.list_chunk.get(candidate.doc)? {
            // Superseded by the short-list occurrence.
            Some(entry) if entry.in_short_list => Ok(None),
            // Long lists carry no scores: always consult the Score table
            // (it is small and stays cached).
            _ => Ok(Some(self.base.score_table.score_of(candidate.doc)?)),
        }
    }

    /// A document whose posting sits in chunk `<= c` moved to the short
    /// lists only after crossing *two* boundaries, so its current score is
    /// below the lower bound of chunk `c + 2`.
    fn svr_bound(&self, pos: Option<PostingPos>) -> Score {
        match pos {
            Some(PostingPos::ByChunk(c)) => self.chunk_map.read().max_possible_score(c),
            Some(_) => f64::INFINITY,
            None => f64::NEG_INFINITY,
        }
    }
}

impl Method for ChunkMethod {
    const KIND: MethodKind = MethodKind::Chunk;
    const STORES: &'static [&'static str] = &[
        store_names::SCORE,
        store_names::DOCS,
        store_names::LONG,
        store_names::SHORT,
        store_names::AUX,
        store_names::META,
    ];

    /// Build inside an existing shard context (shared environment and
    /// corpus statistics). A shard's chunk map covers its own documents'
    /// score distribution — chunk ids are never compared across shards.
    fn build_in(
        ctx: ShardContext,
        docs: &[Document],
        scores: &ScoreMap,
        config: &IndexConfig,
    ) -> Result<ChunkMethod> {
        let base = MethodBase::with_context(ctx, config)?;
        base.bulk_load(docs, scores)?;
        let long_store = base.create_store(store_names::LONG, config.long_cache_pages);
        let short_store = base.create_store(store_names::SHORT, config.small_cache_pages);
        let aux_store = base.create_store(store_names::AUX, config.small_cache_pages);
        let meta_store = base.create_store(store_names::META, config.small_cache_pages);
        let long = LongListStore::create_in(
            long_store,
            ListFormat::Chunked { with_scores: false },
            config.codec,
            base.durable,
        )?;
        let short = ShortLists::create_in(short_store, ShortOrder::ByChunkDesc, base.durable)?;
        let list_chunk = ListChunkTable::create_in(aux_store, base.durable)?;
        let meta = crate::durable::MetaTable::create(meta_store, base.durable)?;

        let all_scores: Vec<Score> = docs
            .iter()
            .map(|d| MethodBase::initial_score(scores, d.id))
            .collect();
        let chunk_map =
            ChunkMap::from_scores(&all_scores, config.chunk_ratio, config.min_chunk_docs);
        meta.put_chunk_map(chunk_map.boundaries())?;
        for (term, postings) in invert_corpus(docs) {
            let groups = group_by_chunk(&postings, |doc| {
                chunk_map.chunk_of(MethodBase::initial_score(scores, doc))
            });
            long.put_chunked_list(term, &groups)?;
        }
        Ok(ChunkMethod {
            base,
            config: config.clone(),
            long,
            short,
            list_chunk,
            chunk_map: RwLock::new(chunk_map),
            meta,
        })
    }

    /// Reattach a durable shard from its recovered stores (see
    /// [`crate::open_index_at`]): structures reopen, the chunk map reloads
    /// from the shard metadata.
    fn open_in(ctx: ShardContext, config: &IndexConfig) -> Result<ChunkMethod> {
        let base = MethodBase::open_with_context(ctx, config)?;
        let long = LongListStore::open(
            base.create_store(store_names::LONG, config.long_cache_pages),
            ListFormat::Chunked { with_scores: false },
            config.codec,
        )?;
        let short = ShortLists::open(
            base.create_store(store_names::SHORT, config.small_cache_pages),
            ShortOrder::ByChunkDesc,
        )?;
        let list_chunk =
            ListChunkTable::open(base.create_store(store_names::AUX, config.small_cache_pages))?;
        let meta = crate::durable::MetaTable::open(
            base.create_store(store_names::META, config.small_cache_pages),
        )?;
        let chunk_map = meta
            .chunk_map()?
            .and_then(ChunkMap::from_boundaries)
            .ok_or(crate::error::CoreError::Storage(
                svr_storage::StorageError::Corrupt("missing or invalid persisted chunk map"),
            ))?;
        Ok(ChunkMethod {
            base,
            config: config.clone(),
            long,
            short,
            list_chunk,
            chunk_map: RwLock::new(chunk_map),
            meta,
        })
    }

    fn list_sizes(&self) -> (u64, u64, u64) {
        (
            self.long.total_bytes(),
            self.long.total_postings(),
            self.short.len(),
        )
    }

    /// Algorithm 1, with chunk ids in place of scores and
    /// `thresholdValueOf(c) = c + 1`.
    fn update_score(&self, doc: DocId, new_score: Score) -> Result<()> {
        let old_score = self.base.current_score(doc)?;
        self.base.score_table.set(doc, new_score)?;
        let entry = self.list_state(doc, old_score)?;
        if self.list_chunk.get(doc)?.is_none() {
            self.list_chunk.put(
                doc,
                ListChunkEntry {
                    l_chunk: entry.l_chunk,
                    in_short_list: false,
                },
            )?;
        }
        let new_chunk = self.chunk_map.read().chunk_of(new_score);
        // Move only when the score crosses *two* chunk boundaries.
        if new_chunk > entry.l_chunk + 1 {
            let terms = self.base.doc_store.get(doc)?.unwrap_or_default();
            for (term, _) in terms {
                if entry.in_short_list {
                    self.short
                        .delete(term, PostingPos::ByChunk(entry.l_chunk), doc)?;
                }
                self.short
                    .put(term, PostingPos::ByChunk(new_chunk), doc, Op::Add, 0)?;
            }
            self.list_chunk.put(
                doc,
                ListChunkEntry {
                    l_chunk: new_chunk,
                    in_short_list: true,
                },
            )?;
        }
        Ok(())
    }

    /// Appendix A.2: an insertion is short-list ADD postings at the score's
    /// chunk.
    fn insert_document(&self, doc: &Document, score: Score) -> Result<()> {
        self.base.register_insert(doc, score)?;
        let chunk = self.chunk_map.read().chunk_of(score);
        for term in doc.term_ids() {
            self.short
                .put(term, PostingPos::ByChunk(chunk), doc.id, Op::Add, 0)?;
        }
        self.list_chunk.put(
            doc.id,
            ListChunkEntry {
                l_chunk: chunk,
                in_short_list: true,
            },
        )?;
        Ok(())
    }

    fn uninsert_document(&self, doc: DocId) -> Result<()> {
        // No ListChunk entry means the offline merge already folded the
        // insert's postings into the long lists (merges clear ListChunk):
        // the helper's merged-document fallback handles both that and an
        // entry relocated off the short lists.
        let (pos, in_short_list) = match self.list_chunk.get(doc)? {
            Some(entry) => (PostingPos::ByChunk(entry.l_chunk), entry.in_short_list),
            None => (PostingPos::ByChunk(0), false),
        };
        if self
            .base
            .uninsert_postings_at(&self.short, doc, pos, in_short_list)?
        {
            self.list_chunk.delete(doc)?;
        }
        Ok(())
    }

    /// Appendix A.1: ADD/REM postings co-located with the document's live
    /// postings.
    fn update_content(&self, doc: &Document) -> Result<()> {
        let current = self.base.current_score(doc.id)?;
        let entry = self.list_state(doc.id, current)?;
        let (old, new) = self.base.register_content(doc)?;
        let old_terms: HashSet<TermId> = old.iter().map(|&(t, _)| t).collect();
        let new_terms: HashSet<TermId> = new.iter().map(|&(t, _)| t).collect();
        let pos = PostingPos::ByChunk(entry.l_chunk);
        for &term in new_terms.difference(&old_terms) {
            self.short.put(term, pos, doc.id, Op::Add, 0)?;
        }
        for &term in old_terms.difference(&new_terms) {
            if entry.in_short_list {
                self.short.delete(term, pos, doc.id)?;
            } else {
                self.short.put(term, pos, doc.id, Op::Rem, 0)?;
            }
        }
        Ok(())
    }

    /// Offline merge: rebuild the chunk map from the live score distribution
    /// and regenerate the long lists; clear short lists and ListChunk.
    fn merge_short_lists(&self) -> Result<()> {
        let new_map = crate::maintenance::rebuild_chunked_lists(
            &self.base,
            &self.long,
            self.config.chunk_ratio,
            self.config.min_chunk_docs,
            self.chunk_map.read().clone(),
        )?;
        self.meta.put_chunk_map(new_map.boundaries())?;
        *self.chunk_map.write() = new_map;
        self.short.clear()?;
        self.list_chunk.clear()
    }
}
