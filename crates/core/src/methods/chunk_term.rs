//! The Chunk-TermScore method (§4.3.3, Algorithm 3): the Chunk method
//! extended with per-posting term scores and per-term *fancy lists* (Long &
//! Suel) so it can rank by the combined function
//! `f(svr, ts) = svr + w·Σ idf(t)·ts(d,t)` and answer both conjunctive and
//! disjunctive queries with early termination.
//!
//! Query processing:
//! 1. merge the fancy lists; docs present in *all* of them become exact
//!    tentative results; docs present in *some* go to the `remainList`;
//! 2. merge short ∪ long lists chunk by chunk as in the Chunk method,
//!    removing encountered docs from the remainList;
//! 3. at each chunk boundary, prune the remainList with the combined upper
//!    bound and stop once it is empty and no unseen document can beat the
//!    secured top-k.

use std::collections::{HashMap, HashSet};

use parking_lot::RwLock;
use svr_text::postings::TermScoredPosting;
use svr_text::unquantize_term_score;

use crate::aux_table::{ListChunkEntry, ListChunkTable};
use crate::chunk_map::ChunkMap;
use crate::config::IndexConfig;
use crate::cursor::{CursorBackend, MergeState};
use crate::error::Result;
use crate::long_list::{invert_corpus, posting_term_score, ListFormat, LongListStore};
use crate::merge::{Candidate, UnionCursor, UnionResume};
use crate::methods::base::{MethodBase, ShardContext};
use crate::methods::chunk::group_by_chunk;
use crate::methods::{store_names, Method, MethodKind, ScoreMap};
use crate::short_list::{Op, PostingPos, ShortLists, ShortOrder};
use crate::types::{DocId, Document, Query, Score, TermId};

/// Per-term fancy-list metadata.
#[derive(Debug, Clone, Copy, Default)]
struct FancyMeta {
    /// Minimum quantized term score among fancy postings (`minF`).
    min_ts: u16,
    /// True when the fancy list holds the term's *entire* posting list, so
    /// any non-fancy doc has term score 0 for it.
    complete: bool,
    /// Max quantized term score among postings added since the last offline
    /// merge (insertions / content updates can exceed `minF` and must widen
    /// the stopping bound).
    inserted_max: u16,
}

impl FancyMeta {
    /// Effective upper bound on the term score of any doc outside the fancy
    /// list.
    fn bound(&self) -> u16 {
        let base = if self.complete { 0 } else { self.min_ts };
        base.max(self.inserted_max)
    }
}

/// The Chunk-TermScore method.
pub(crate) struct ChunkTermMethod {
    base: MethodBase,
    config: IndexConfig,
    long: LongListStore,
    short: ShortLists,
    fancy: LongListStore,
    list_chunk: ListChunkTable,
    chunk_map: RwLock<ChunkMap>,
    fancy_meta: RwLock<HashMap<TermId, FancyMeta>>,
    /// Docs whose content changed since the last offline merge: their fancy
    /// postings may list terms they no longer contain (or stale term
    /// scores), so phase 1 must not trust them. Their live postings are
    /// found in phase 2, and `widen_fancy_bound` keeps the stopping bound
    /// sound for their new term scores.
    content_dirty: RwLock<HashSet<DocId>>,
    /// Durable shard metadata: chunk boundaries + per-term `(min_ts,
    /// complete)` (build/merge time) and content-dirty markers (content
    /// updates), so a reopen reconstructs the exact query behavior. The
    /// insert-time `inserted_max` widening is re-derived from the short
    /// lists at open instead of being written per insert.
    meta: crate::durable::MetaTable,
}

/// Select the fancy list: the `fancy_size` postings with the highest term
/// scores (ties by doc id), returned in doc-id order together with metadata.
fn build_fancy(
    postings: &[TermScoredPosting],
    fancy_size: usize,
) -> (Vec<TermScoredPosting>, FancyMeta) {
    let mut ranked: Vec<TermScoredPosting> = postings.to_vec();
    ranked.sort_by(|a, b| b.tscore.cmp(&a.tscore).then_with(|| a.doc.cmp(&b.doc)));
    ranked.truncate(fancy_size);
    let complete = ranked.len() == postings.len();
    let min_ts = ranked.iter().map(|p| p.tscore).min().unwrap_or(0);
    ranked.sort_by_key(|p| p.doc);
    (
        ranked,
        FancyMeta {
            min_ts,
            complete,
            inserted_max: 0,
        },
    )
}

impl ChunkTermMethod {
    fn list_state(&self, doc: DocId, current_score: Score) -> Result<ListChunkEntry> {
        match self.list_chunk.get(doc)? {
            Some(entry) => Ok(entry),
            None => Ok(ListChunkEntry {
                l_chunk: self.chunk_map.read().chunk_of(current_score),
                in_short_list: false,
            }),
        }
    }

    /// Record that a posting with `ts` entered the index outside the fancy
    /// lists (insertion / content update): the stopping bound must cover it.
    fn widen_fancy_bound(&self, term: TermId, ts: u16) {
        let mut meta = self.fancy_meta.write();
        let m = meta.entry(term).or_default();
        m.inserted_max = m.inserted_max.max(ts);
    }

    /// Per-term upper bound on term scores of docs outside the fancy list.
    fn fancy_bound(&self, term: TermId) -> f64 {
        let meta = self.fancy_meta.read();
        unquantize_term_score(meta.get(&term).map(|m| m.bound()).unwrap_or(0))
    }
}

impl CursorBackend for ChunkTermMethod {
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

    /// Phase-2 scoring of Algorithm 3: SVR resolution as in the Chunk
    /// method plus the matched term-score contributions.
    fn resolve(&self, candidate: &Candidate, idfs: &[f64]) -> Result<Option<Score>> {
        let svr = if candidate.all_short() {
            self.base.score_table.score_of(candidate.doc)?
        } else {
            match self.list_chunk.get(candidate.doc)? {
                Some(entry) if entry.in_short_list => return Ok(None), // superseded
                _ => self.base.score_table.score_of(candidate.doc)?,
            }
        };
        let mut ts_sum = 0.0;
        for (i, matched) in candidate.matches.iter().enumerate() {
            if let Some(mt) = matched {
                ts_sum += idfs[i] * unquantize_term_score(mt.tscore);
            }
        }
        Ok(Some(self.base.combine(svr, ts_sum)))
    }

    fn svr_bound(&self, pos: Option<PostingPos>) -> Score {
        match pos {
            Some(PostingPos::ByChunk(c)) => self.chunk_map.read().max_possible_score(c),
            Some(_) => f64::INFINITY,
            None => f64::NEG_INFINITY,
        }
    }

    fn term_fancy_bound(&self, term: TermId) -> f64 {
        self.fancy_bound(term)
    }

    fn combine(&self, svr: Score, ts_sum: f64) -> Score {
        self.base.combine(svr, ts_sum)
    }
}

impl Method for ChunkTermMethod {
    const KIND: MethodKind = MethodKind::ChunkTermScore;
    const STORES: &'static [&'static str] = &[
        store_names::SCORE,
        store_names::DOCS,
        store_names::LONG,
        store_names::SHORT,
        store_names::AUX,
        store_names::FANCY,
        store_names::META,
    ];

    fn build_in(
        ctx: ShardContext,
        docs: &[Document],
        scores: &ScoreMap,
        config: &IndexConfig,
    ) -> Result<ChunkTermMethod> {
        let base = MethodBase::with_context(ctx, config)?;
        base.bulk_load(docs, scores)?;
        let long_store = base.create_store(store_names::LONG, config.long_cache_pages);
        let short_store = base.create_store(store_names::SHORT, config.small_cache_pages);
        let aux_store = base.create_store(store_names::AUX, config.small_cache_pages);
        let fancy_store = base.create_store(store_names::FANCY, config.small_cache_pages);
        let meta_store = base.create_store(store_names::META, config.small_cache_pages);
        let long = LongListStore::create_in(
            long_store,
            ListFormat::Chunked { with_scores: true },
            config.codec,
            base.durable,
        )?;
        let short = ShortLists::create_in(short_store, ShortOrder::ByChunkDesc, base.durable)?;
        let fancy = LongListStore::create_in(
            fancy_store,
            ListFormat::Id { with_scores: true },
            config.codec,
            base.durable,
        )?;
        let list_chunk = ListChunkTable::create_in(aux_store, base.durable)?;
        let meta_table = crate::durable::MetaTable::create(meta_store, base.durable)?;

        let all_scores: Vec<Score> = docs
            .iter()
            .map(|d| MethodBase::initial_score(scores, d.id))
            .collect();
        let chunk_map =
            ChunkMap::from_scores(&all_scores, config.chunk_ratio, config.min_chunk_docs);
        let mut fancy_meta = HashMap::new();
        for (term, postings) in invert_corpus(docs) {
            let groups = group_by_chunk(&postings, |doc| {
                chunk_map.chunk_of(MethodBase::initial_score(scores, doc))
            });
            long.put_chunked_list(term, &groups)?;

            let (fancy_postings, meta) = build_fancy(&postings, config.fancy_size);
            fancy.put_id_list(term, &fancy_postings)?;
            fancy_meta.insert(term, meta);
        }
        meta_table.put_chunk_map(chunk_map.boundaries())?;
        meta_table.put_fancy_meta(fancy_meta.iter().map(|(&t, m)| (t, (m.min_ts, m.complete))))?;
        Ok(ChunkTermMethod {
            base,
            config: config.clone(),
            long,
            short,
            fancy,
            list_chunk,
            chunk_map: RwLock::new(chunk_map),
            fancy_meta: RwLock::new(fancy_meta),
            content_dirty: RwLock::new(HashSet::new()),
            meta: meta_table,
        })
    }

    /// Reattach a durable shard from its recovered stores (see
    /// [`crate::open_index_at`]): structures reopen; the chunk map, fancy
    /// metadata and content-dirty set reload from the shard metadata; the
    /// fancy bounds' insert-time widening is re-derived from the short
    /// lists' surviving `Add` postings (an over-approximation is sound —
    /// bounds only get looser).
    fn open_in(ctx: ShardContext, config: &IndexConfig) -> Result<ChunkTermMethod> {
        let base = MethodBase::open_with_context(ctx, config)?;
        let long = LongListStore::open(
            base.create_store(store_names::LONG, config.long_cache_pages),
            ListFormat::Chunked { with_scores: true },
            config.codec,
        )?;
        let short = ShortLists::open(
            base.create_store(store_names::SHORT, config.small_cache_pages),
            ShortOrder::ByChunkDesc,
        )?;
        let fancy = LongListStore::open(
            base.create_store(store_names::FANCY, config.small_cache_pages),
            ListFormat::Id { with_scores: true },
            config.codec,
        )?;
        let list_chunk =
            ListChunkTable::open(base.create_store(store_names::AUX, config.small_cache_pages))?;
        let meta_table = crate::durable::MetaTable::open(
            base.create_store(store_names::META, config.small_cache_pages),
        )?;
        let chunk_map = meta_table
            .chunk_map()?
            .and_then(ChunkMap::from_boundaries)
            .ok_or(crate::error::CoreError::Storage(
                svr_storage::StorageError::Corrupt("missing or invalid persisted chunk map"),
            ))?;
        let mut fancy_meta: HashMap<TermId, FancyMeta> = meta_table
            .fancy_meta()?
            .into_iter()
            .map(|(t, (min_ts, complete))| {
                (
                    t,
                    FancyMeta {
                        min_ts,
                        complete,
                        inserted_max: 0,
                    },
                )
            })
            .collect();
        for (term, max_ts) in short.max_add_tscores()? {
            let m = fancy_meta.entry(term).or_default();
            m.inserted_max = m.inserted_max.max(max_ts);
        }
        let content_dirty = meta_table.dirty_docs()?;
        Ok(ChunkTermMethod {
            base,
            config: config.clone(),
            long,
            short,
            fancy,
            list_chunk,
            chunk_map: RwLock::new(chunk_map),
            fancy_meta: RwLock::new(fancy_meta),
            content_dirty: RwLock::new(content_dirty),
            meta: meta_table,
        })
    }

    fn list_sizes(&self) -> (u64, u64, u64) {
        (
            self.long.total_bytes(),
            self.long.total_postings(),
            self.short.len(),
        )
    }

    /// "The score update algorithm for the Chunk-TermScore method is the
    /// same as the Chunk method" — with the document's stored term scores
    /// replicated into the short postings.
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
        if new_chunk > entry.l_chunk + 1 {
            let terms = self.base.doc_store.get(doc)?.unwrap_or_default();
            let max_tf = terms.iter().map(|&(_, tf)| tf).max().unwrap_or(0);
            for (term, tf) in terms {
                if entry.in_short_list {
                    self.short
                        .delete(term, PostingPos::ByChunk(entry.l_chunk), doc)?;
                }
                let ts = posting_term_score(tf, max_tf);
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
        }
        Ok(())
    }

    /// Algorithm 3 as an any-k enumeration: phase 1 (fancy-list merge,
    /// lines 8-9) runs at open time and pre-fills the cursor's pool and
    /// `remainList`; phase 2 is the suspendable chunk-by-chunk merge driven
    /// by [`crate::cursor`].
    fn open_cursor(&self, query: &Query) -> Result<MergeState> {
        let m = query.terms.len();
        let idfs: Vec<f64> = query.terms.iter().map(|&t| self.base.idf(t)).collect();
        let mut state = MergeState::new(m, idfs);

        let mut fancy_docs: HashMap<DocId, Vec<Option<f64>>> = HashMap::new();
        for (i, &term) in query.terms.iter().enumerate() {
            let mut cursor = self.fancy.cursor(term);
            while let Some(p) = cursor.next_posting()? {
                fancy_docs.entry(p.doc).or_insert_with(|| vec![None; m])[i] =
                    Some(state.idfs[i] * unquantize_term_score(p.tscore));
            }
        }
        let content_dirty = self.content_dirty.read();
        for (doc, known) in fancy_docs {
            if self.base.is_deleted(doc) || content_dirty.contains(&doc) {
                continue;
            }
            if known.iter().all(Option::is_some) {
                // In every fancy list: an exact (SVR from the Score table,
                // term scores from the fancy postings) result.
                let svr = self.base.score_table.score_of(doc)?;
                let ts_sum: f64 = known.iter().flatten().sum();
                state.admit(doc, self.base.combine(svr, ts_sum));
            } else {
                state.remain.insert(doc, known);
            }
        }
        drop(content_dirty);
        Ok(state)
    }

    fn insert_document(&self, doc: &Document, score: Score) -> Result<()> {
        self.base.register_insert(doc, score)?;
        let chunk = self.chunk_map.read().chunk_of(score);
        let max_tf = doc.max_tf();
        for &(term, tf) in &doc.terms {
            let ts = posting_term_score(tf, max_tf);
            self.short
                .put(term, PostingPos::ByChunk(chunk), doc.id, Op::Add, ts)?;
            self.widen_fancy_bound(term, ts);
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
        // Fancy bounds widened by the insertion stay widened: they are
        // upper bounds, looser but never wrong. A missing ListChunk entry
        // means a concurrent merge folded the insert away (merges clear
        // ListChunk) — the helper's fallback covers it.
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

    fn update_content(&self, doc: &Document) -> Result<()> {
        let current = self.base.current_score(doc.id)?;
        let entry = self.list_state(doc.id, current)?;
        let (old, new) = self.base.register_content(doc)?;
        let old_terms: HashSet<TermId> = old.iter().map(|&(t, _)| t).collect();
        let new_terms: HashSet<TermId> = new.iter().map(|&(t, _)| t).collect();
        let pos = PostingPos::ByChunk(entry.l_chunk);
        let max_tf = doc.max_tf();
        // New or re-weighted terms get ADD postings at the live position.
        for &(term, tf) in &new {
            let ts = posting_term_score(tf, max_tf);
            self.short.put(term, pos, doc.id, Op::Add, ts)?;
            self.widen_fancy_bound(term, ts);
        }
        for &term in old_terms.difference(&new_terms) {
            if entry.in_short_list {
                self.short.delete(term, pos, doc.id)?;
            } else {
                self.short.put(term, pos, doc.id, Op::Rem, 0)?;
            }
        }
        self.meta.mark_dirty(doc.id)?;
        self.content_dirty.write().insert(doc.id);
        Ok(())
    }

    fn merge_short_lists(&self) -> Result<()> {
        let (new_map, new_meta) = crate::maintenance::rebuild_chunk_term_lists(
            &self.base,
            &self.long,
            &self.fancy,
            self.config.fancy_size,
            self.config.chunk_ratio,
            self.config.min_chunk_docs,
            self.chunk_map.read().clone(),
        )?;
        self.meta.put_chunk_map(new_map.boundaries())?;
        self.meta
            .put_fancy_meta(new_meta.iter().map(|(&t, &m)| (t, m)))?;
        self.meta.clear_dirty()?;
        *self.chunk_map.write() = new_map;
        *self.fancy_meta.write() = new_meta
            .into_iter()
            .map(|(t, (min_ts, complete))| {
                (
                    t,
                    FancyMeta {
                        min_ts,
                        complete,
                        inserted_max: 0,
                    },
                )
            })
            .collect();
        self.content_dirty.write().clear();
        self.short.clear()?;
        self.list_chunk.clear()
    }
}
