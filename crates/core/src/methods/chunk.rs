//! The Chunk method (§4.3.2) — the paper's headline index — and its
//! term-scored form, Chunk-TermScore (§4.3.3, Algorithm 3).
//!
//! Documents are partitioned into chunks by their build-time scores; long
//! lists store postings in (chunk desc, doc asc) order with **no SVR
//! scores**, so they are nearly as compact as ID lists. A document's
//! short-list postings move only when its score climbs *two or more chunks*
//! (`thresholdValueOf(cid) = cid + 1`), and queries scan to the end of one
//! extra chunk before stopping.
//!
//! Chunk-TermScore is "the Chunk method extended with term scores and fancy
//! lists": `ChunkMethod<true>` stores a quantized term score in every
//! posting, keeps the per-term [`FancyLists`], and ranks by the combined
//! function `f(svr, ts) = svr + w·Σ idf(t)·ts(d,t)`, answering conjunctive
//! and disjunctive queries with early termination. Its score updates are
//! "the same as the Chunk method", with the document's term scores
//! replicated into the short postings.

use parking_lot::RwLock;

use crate::aux_table::{ListChunkEntry, ListChunkTable};
use crate::chunk_map::ChunkMap;
use crate::config::IndexConfig;
use crate::cursor::{CursorBackend, MergeState};
use crate::durable::MetaTable;
use crate::error::{CoreError, Result};
use crate::long_list::{ListFormat, LongListStore};
use crate::maintenance::{write_chunked_lists, Inversion};
use crate::merge::{Candidate, UnionCursor, UnionResume};
use crate::methods::base::{term_scores, MethodBase, ShardContext};
use crate::methods::fancy::FancyLists;
use crate::methods::{store_names, Method, MethodKind, ScoreMap};
use crate::short_list::{Op, PostingPos, ShortLists, ShortOrder};
use crate::types::{DocId, Document, Query, Score, TermId};

/// The Chunk method (`TERM_SCORES = false`) and Chunk-TermScore (`true`).
pub(crate) struct ChunkMethod<const TERM_SCORES: bool> {
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
    /// misalign it against the stored chunk groups). The term-scored form
    /// also keeps its fancy-list metadata here.
    meta: MetaTable,
    /// The term-scored form's fancy lists; `None` without term scores.
    fancy: Option<FancyLists>,
}

impl<const TERM_SCORES: bool> ChunkMethod<TERM_SCORES> {
    const FORMAT: ListFormat = ListFormat::Chunked {
        with_scores: TERM_SCORES,
    };

    /// The list state of a never-updated document (no ListChunk entry): its
    /// current score is still the build score and locates the long posting.
    fn long_entry(&self, current_score: Score) -> ListChunkEntry {
        ListChunkEntry {
            l_chunk: self.chunk_map.read().chunk_of(current_score),
            in_short_list: false,
        }
    }

    fn widen(&self, term: TermId, ts: u16) {
        if let Some(fancy) = &self.fancy {
            fancy.widen(term, ts);
        }
    }
}

impl<const TERM_SCORES: bool> CursorBackend for ChunkMethod<TERM_SCORES> {
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

    /// SVR resolution (plus, term-scored, the matched term-score
    /// contributions — phase 2 of Algorithm 3).
    fn resolve(&self, candidate: &Candidate, idfs: &[f64]) -> Result<Option<Score>> {
        // A long occurrence is superseded once the document moved to the
        // short lists.
        if !candidate.all_short()
            && self
                .list_chunk
                .get(candidate.doc)
                .is_some_and(|entry| entry.in_short_list)
        {
            return Ok(None);
        }
        // Long lists carry no SVR scores: always consult the Score table.
        // Both probes are in-memory map lookups (see `crate::doc_table`).
        let svr = self.base.score_table.score_of(candidate.doc)?;
        Ok(Some(if TERM_SCORES {
            self.base.combine_matches(svr, candidate, idfs)
        } else {
            svr
        }))
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

    fn term_fancy_bound(&self, term: TermId) -> f64 {
        self.fancy.as_ref().map_or(0.0, |fancy| fancy.bound(term))
    }

    fn combine(&self, svr: Score, ts_sum: f64) -> Score {
        if TERM_SCORES {
            self.base.combine(svr, ts_sum)
        } else {
            svr
        }
    }
}

impl<const TERM_SCORES: bool> Method for ChunkMethod<TERM_SCORES> {
    const KIND: MethodKind = if TERM_SCORES {
        MethodKind::ChunkTermScore
    } else {
        MethodKind::Chunk
    };
    const STORES: &'static [&'static str] = if TERM_SCORES {
        &[
            store_names::SCORE,
            store_names::DOCS,
            store_names::LONG,
            store_names::SHORT,
            store_names::AUX,
            store_names::FANCY,
            store_names::META,
        ]
    } else {
        &[
            store_names::SCORE,
            store_names::DOCS,
            store_names::LONG,
            store_names::SHORT,
            store_names::AUX,
            store_names::META,
        ]
    };

    /// Build inside an existing shard context (shared environment and
    /// corpus statistics). A shard's chunk map covers its own documents'
    /// score distribution — chunk ids are never compared across shards.
    fn build_in(
        ctx: ShardContext,
        docs: &[Document],
        scores: &ScoreMap,
        config: &IndexConfig,
    ) -> Result<Self> {
        let base = MethodBase::with_context(ctx, config)?;
        base.bulk_load(docs, scores)?;
        let long_store = base.create_store(store_names::LONG, config.long_cache_pages);
        let short_store = base.create_store(store_names::SHORT, config.small_cache_pages);
        let aux_store = base.create_store(store_names::AUX, config.small_cache_pages);
        let fancy = if TERM_SCORES {
            Some(FancyLists::create(&base, config)?)
        } else {
            None
        };
        let meta_store = base.create_store(store_names::META, config.small_cache_pages);
        let long = LongListStore::create_in(long_store, Self::FORMAT, config.codec, base.durable)?;
        let short = ShortLists::create_in(short_store, ShortOrder::ByChunkDesc, base.durable)?;
        let list_chunk = ListChunkTable::create_in(aux_store, base.durable)?;
        let meta = MetaTable::create(meta_store, base.durable)?;

        let inv = Inversion::of_corpus(docs, scores)?;
        let chunk_map = inv.chunk_map(config);
        meta.put_chunk_map(chunk_map.boundaries())?;
        write_chunked_lists(&long, &inv, &chunk_map)?;
        if let Some(fancy) = &fancy {
            fancy.write(&inv, config.fancy_size, &meta)?;
        }
        Ok(ChunkMethod {
            base,
            config: config.clone(),
            long,
            short,
            list_chunk,
            chunk_map: RwLock::new(chunk_map),
            meta,
            fancy,
        })
    }

    /// Reattach a durable shard from its recovered stores (see
    /// [`crate::open_index_at`]): structures reopen, the chunk map (and the
    /// fancy-list state) reload from the shard metadata.
    fn open_in(ctx: ShardContext, config: &IndexConfig) -> Result<Self> {
        let base = MethodBase::open_with_context(ctx, config)?;
        let long = LongListStore::open(
            base.create_store(store_names::LONG, config.long_cache_pages),
            Self::FORMAT,
            config.codec,
        )?;
        let short = ShortLists::open(
            base.create_store(store_names::SHORT, config.small_cache_pages),
            ShortOrder::ByChunkDesc,
        )?;
        let (list_chunk, _) =
            ListChunkTable::open(base.create_store(store_names::AUX, config.small_cache_pages))?;
        let meta = MetaTable::open(base.create_store(store_names::META, config.small_cache_pages))?;
        let chunk_map = meta
            .chunk_map()?
            .and_then(ChunkMap::from_boundaries)
            .ok_or(CoreError::Storage(svr_storage::StorageError::Corrupt(
                "missing or invalid persisted chunk map",
            )))?;
        let fancy = if TERM_SCORES {
            Some(FancyLists::open(&base, config, &meta, &short)?)
        } else {
            None
        };
        Ok(ChunkMethod {
            base,
            config: config.clone(),
            long,
            short,
            list_chunk,
            chunk_map: RwLock::new(chunk_map),
            meta,
            fancy,
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
    /// `thresholdValueOf(c) = c + 1`. One ListChunk read, at most one write.
    fn update_score(&self, doc: DocId, new_score: Score) -> Result<()> {
        let Some((old_score, new_score)) = self.base.replace_score(doc, new_score)? else {
            return Ok(());
        };
        let row = self.list_chunk.get(doc);
        let entry = row.unwrap_or_else(|| self.long_entry(old_score));
        let new_chunk = self.chunk_map.read().chunk_of(new_score);
        // Move only when the score crosses *two* chunk boundaries.
        if new_chunk > entry.l_chunk + 1 {
            let terms = self.base.doc_store.get(doc)?.unwrap_or_default();
            for (term, ts) in term_scores::<TERM_SCORES>(&terms) {
                if entry.in_short_list {
                    self.short
                        .delete(term, PostingPos::ByChunk(entry.l_chunk), doc)?;
                }
                self.short
                    .put(term, PostingPos::ByChunk(new_chunk), doc, Op::Add, ts)?;
            }
            self.list_chunk.put(
                doc,
                ListChunkEntry {
                    l_chunk: new_chunk,
                    in_short_list: true,
                },
            )?;
        } else if row.is_none() {
            // First-ever update: remember the long posting's chunk.
            self.list_chunk.put(doc, entry)?;
        }
        Ok(())
    }

    fn open_cursor(&self, query: &Query) -> Result<MergeState> {
        match &self.fancy {
            Some(fancy) => fancy.open_cursor(&self.base, query),
            None => Ok(MergeState::new(query.terms.len(), Vec::new())),
        }
    }

    /// Appendix A.2: an insertion is short-list ADD postings at the score's
    /// chunk.
    fn insert_document(&self, doc: &Document, score: Score) -> Result<()> {
        let score = self.base.register_insert(doc, score)?;
        let chunk = self.chunk_map.read().chunk_of(score);
        for (term, ts) in term_scores::<TERM_SCORES>(&doc.terms) {
            self.short
                .put(term, PostingPos::ByChunk(chunk), doc.id, Op::Add, ts)?;
            self.widen(term, ts);
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
        // entry relocated off the short lists. Fancy bounds widened by the
        // insertion stay widened: they are upper bounds, looser but never
        // wrong.
        let (pos, in_short_list) = match self.list_chunk.get(doc) {
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
        let entry = self
            .list_chunk
            .get(doc.id)
            .unwrap_or_else(|| self.long_entry(current));
        self.base.replace_content::<TERM_SCORES>(
            &self.short,
            doc,
            PostingPos::ByChunk(entry.l_chunk),
            entry.in_short_list,
            |term, ts| self.widen(term, ts),
        )?;
        match &self.fancy {
            Some(fancy) => fancy.mark_dirty(&self.meta, doc.id),
            None => Ok(()),
        }
    }

    /// Offline merge: rebuild the chunk map from the live score distribution
    /// and regenerate the long (and fancy) lists; clear short lists and
    /// ListChunk.
    fn merge_short_lists(&self) -> Result<()> {
        let inv = Inversion::of_live(&self.base)?;
        let new_map = if inv.scores.is_empty() {
            self.chunk_map.read().clone()
        } else {
            inv.chunk_map(&self.config)
        };
        write_chunked_lists(&self.long, &inv, &new_map)?;
        self.meta.put_chunk_map(new_map.boundaries())?;
        if let Some(fancy) = &self.fancy {
            fancy.rebuild(&inv, self.config.fancy_size, &self.meta)?;
        }
        *self.chunk_map.write() = new_map;
        self.short.clear()?;
        self.list_chunk.clear()
    }
}
