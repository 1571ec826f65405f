//! Score-Threshold (§4.3.1), Chunk (§4.3.2) and their term-scored forms:
//! one body over a [`Placement`] — the list score or the chunk id a
//! posting sits at.
//!
//! Long lists are immutable; a short list per term takes the postings of
//! documents whose score moved far enough, and a ListScore / ListChunk row
//! ([`crate::aux_table`]) records where an updated document's postings
//! sit. Algorithm 1 moves them only when the new score passes
//! `thresholdValueOf` of that position; Algorithm 2 scans on past the
//! first k results until the positions' bounded staleness cannot change
//! the answer, and reports scores from the Score table. [`ByScore`] lists
//! postings by score with `thresholdValueOf(s) = t · s`. [`ByChunk`] lists
//! them by (chunk desc, doc asc) with **no SVR scores**, nearly as compact
//! as ID lists, and `thresholdValueOf(cid) = cid + 1`: postings move only
//! on a climb of *two or more chunks*, and queries scan one extra chunk.
//!
//! `TERM_SCORES = true` gives Chunk-TermScore (§4.3.3, Algorithm 3) and
//! Score-Threshold-TermScore (the §4.3.3 remark that "the generalization
//! for the Score-Threshold method is similar"; not built in the paper).
//! Postings carry quantized term scores, [`FancyLists`] run phase 1 of
//! Algorithm 3, queries rank by `f(svr, ts) = svr + w·Σ idf(t)·ts(d,t)`
//! and stop once `f(svr bound, termScoreBound) ≤ resultHeap.minScore(k)`.

use parking_lot::RwLock;
use svr_storage::StorageError;

use crate::aux_table::{ListEntry, ListPos, ListTable};
use crate::chunk_map::ChunkMap;
use crate::config::IndexConfig;
use crate::cursor::{CursorBackend, MergeState};
use crate::durable::MetaTable;
use crate::error::{CoreError, Result};
use crate::long_list::{ListFormat, LongListStore};
use crate::maintenance::{write_chunked_lists, write_score_lists, Inversion};
use crate::merge::{Candidate, UnionCursor, UnionResume};
use crate::methods::base::{term_scores, MethodBase, ShardContext};
use crate::methods::fancy::FancyLists;
use crate::methods::store_names::{AUX, DOCS, FANCY, LONG, META, SCORE, SHORT};
use crate::methods::{Method, MethodKind, ScoreMap};
use crate::short_list::{Op, PostingPos, ShortLists, ShortOrder};
use crate::types::{ChunkId, DocId, Document, Query, Score, TermId};

/// What a threshold method's list position is: everything Score-Threshold
/// and Chunk do differently. A type parameter, so each method runs its own
/// placement's code with no dispatch.
pub(crate) trait Placement: Send + Sync + Sized + 'static {
    /// A posting's position: a list score or a chunk id.
    type Pos: ListPos;
    /// The SVR-only and the term-scored method.
    const KINDS: [MethodKind; 2];
    /// True when the placement persists layout state in the shard's `meta`
    /// store (which the term-scored forms always have).
    const KEEPS_META: bool;
    /// Short-list order.
    const ORDER: ShortOrder;

    /// Long-list format.
    fn format(with_scores: bool) -> ListFormat;

    fn posting(pos: Self::Pos) -> PostingPos;

    /// Where a document with `score` is placed in the current layout.
    fn pos_of(&self, score: Score) -> Self::Pos;

    /// Algorithm 1's move rule: must postings listed at `listed` move to
    /// `new` (`new > thresholdValueOf(listed)`)?
    fn moves(&self, config: &IndexConfig, new: Self::Pos, listed: Self::Pos) -> bool;

    /// The SVR stopping bound: no document listed at or past `pos` can
    /// currently score above it (`+inf` at a position of another layout).
    fn svr_bound(&self, config: &IndexConfig, pos: PostingPos) -> Score;

    /// The score of a never-updated document listed at `pos`, when the
    /// position is one (a chunk id is not: always consult the Score table).
    fn exact_score(_pos: PostingPos) -> Option<Score> {
        None
    }

    /// A new shard's placement, before its long lists are written.
    fn new(config: &IndexConfig) -> Self;

    /// Reattach from the layout state persisted in `meta`.
    fn open(meta: Option<&MetaTable>) -> Result<Self>;

    /// Write the long lists from `inv` (build and merge) and persist the
    /// layout state they were written by to `meta`.
    fn write_lists(
        &self,
        long: &LongListStore,
        inv: &Inversion,
        config: &IndexConfig,
        meta: Option<&MetaTable>,
    ) -> Result<()>;
}

/// Score-Threshold: a posting sits at its list score.
pub(crate) struct ByScore;

impl Placement for ByScore {
    type Pos = Score;
    const KINDS: [MethodKind; 2] = [
        MethodKind::ScoreThreshold,
        MethodKind::ScoreThresholdTermScore,
    ];
    const KEEPS_META: bool = false;
    const ORDER: ShortOrder = ShortOrder::ByScoreDesc;

    fn format(with_scores: bool) -> ListFormat {
        ListFormat::Score { with_scores }
    }

    fn posting(pos: Score) -> PostingPos {
        PostingPos::ByScore(pos)
    }

    fn pos_of(&self, score: Score) -> Score {
        score
    }

    fn moves(&self, config: &IndexConfig, new: Score, listed: Score) -> bool {
        new > config.threshold_value_of(listed)
    }

    /// Lemma 1.2: `thresholdValueOf(s)` at list score `s`.
    fn svr_bound(&self, config: &IndexConfig, pos: PostingPos) -> Score {
        match pos {
            PostingPos::ByScore(s) => config.threshold_value_of(s),
            _ => f64::INFINITY,
        }
    }

    fn exact_score(pos: PostingPos) -> Option<Score> {
        match pos {
            PostingPos::ByScore(s) => Some(s),
            _ => None,
        }
    }

    fn new(_: &IndexConfig) -> ByScore {
        ByScore
    }

    fn open(_: Option<&MetaTable>) -> Result<ByScore> {
        Ok(ByScore)
    }

    fn write_lists(
        &self,
        long: &LongListStore,
        inv: &Inversion,
        _: &IndexConfig,
        _: Option<&MetaTable>,
    ) -> Result<()> {
        write_score_lists(long, inv)
    }
}

/// Chunk: a posting sits at its chunk id.
///
/// The chunk map is rebuilt by the offline merge and immutable between
/// merges. It is persisted in `meta` at build and merge time, so a reopen
/// sees the exact map the long lists were laid out by (re-deriving it from
/// the *current* scores would misalign it against the stored chunk groups).
/// A shard's map covers its own documents' score distribution — chunk ids
/// are never compared across shards.
pub(crate) struct ByChunk(RwLock<ChunkMap>);

impl Placement for ByChunk {
    type Pos = ChunkId;
    const KINDS: [MethodKind; 2] = [MethodKind::Chunk, MethodKind::ChunkTermScore];
    const KEEPS_META: bool = true;
    const ORDER: ShortOrder = ShortOrder::ByChunkDesc;

    fn format(with_scores: bool) -> ListFormat {
        ListFormat::Chunked { with_scores }
    }

    fn posting(pos: ChunkId) -> PostingPos {
        PostingPos::ByChunk(pos)
    }

    fn pos_of(&self, score: Score) -> ChunkId {
        self.0.read().chunk_of(score)
    }

    /// `thresholdValueOf(c) = c + 1`: a climb of two or more chunks.
    fn moves(&self, _: &IndexConfig, new: ChunkId, listed: ChunkId) -> bool {
        new > listed + 1
    }

    /// A document whose posting sits in chunk `<= c` moved to the short
    /// lists only after crossing *two* boundaries, so its current score is
    /// below the lower bound of chunk `c + 2`.
    fn svr_bound(&self, _: &IndexConfig, pos: PostingPos) -> Score {
        match pos {
            PostingPos::ByChunk(c) => self.0.read().max_possible_score(c),
            _ => f64::INFINITY,
        }
    }

    fn new(config: &IndexConfig) -> ByChunk {
        let empty = ChunkMap::from_scores(&[], config.chunk_ratio, config.min_chunk_docs);
        ByChunk(RwLock::new(empty))
    }

    fn open(meta: Option<&MetaTable>) -> Result<ByChunk> {
        let boundaries = meta.map(MetaTable::chunk_map).transpose()?.flatten();
        let map = boundaries
            .and_then(ChunkMap::from_boundaries)
            .ok_or(CoreError::Storage(StorageError::Corrupt(
                "missing or invalid persisted chunk map",
            )))?;
        Ok(ByChunk(RwLock::new(map)))
    }

    /// Lay the lists out by a chunk map of `inv`'s score distribution (an
    /// empty shard keeps its map).
    fn write_lists(
        &self,
        long: &LongListStore,
        inv: &Inversion,
        config: &IndexConfig,
        meta: Option<&MetaTable>,
    ) -> Result<()> {
        let map = if inv.scores.is_empty() {
            self.0.read().clone()
        } else {
            inv.chunk_map(config)
        };
        write_chunked_lists(long, inv, &map)?;
        if let Some(meta) = meta {
            meta.put_chunk_map(map.boundaries())?;
        }
        *self.0.write() = map;
        Ok(())
    }
}

/// Score-Threshold (`ThresholdMethod<ByScore, _>`) and Chunk
/// (`ThresholdMethod<ByChunk, _>`), each SVR-only (`TERM_SCORES = false`)
/// or term-scored (`true`).
pub(crate) struct ThresholdMethod<P: Placement, const TERM_SCORES: bool> {
    base: MethodBase,
    config: IndexConfig,
    place: P,
    long: LongListStore,
    short: ShortLists,
    /// The ListScore / ListChunk table.
    list: ListTable<P::Pos>,
    /// Durable shard metadata: the placement's layout state and the
    /// term-scored form's fancy-list metadata; `None` when there is
    /// neither.
    meta: Option<MetaTable>,
    /// The term-scored form's fancy lists; `None` without term scores.
    fancy: Option<FancyLists>,
}

impl<P: Placement, const TERM_SCORES: bool> ThresholdMethod<P, TERM_SCORES> {
    const HAS_META: bool = TERM_SCORES || P::KEEPS_META;

    /// The list state of a never-updated document (no ListScore /
    /// ListChunk row): its current score is still the build score and
    /// locates the long posting.
    fn long_entry(&self, current_score: Score) -> ListEntry<P::Pos> {
        ListEntry {
            l_pos: self.place.pos_of(current_score),
            in_short_list: false,
        }
    }

    fn widen(&self, term: TermId, ts: u16) {
        if let Some(fancy) = &self.fancy {
            fancy.widen(term, ts);
        }
    }

    fn fancy_and_meta(&self) -> Option<(&FancyLists, &MetaTable)> {
        self.fancy.as_ref().zip(self.meta.as_ref())
    }

    /// Write the long (and fancy) lists from `inv`: build and merge.
    fn write_lists(&self, inv: &Inversion) -> Result<()> {
        let meta = self.meta.as_ref();
        self.place
            .write_lists(&self.long, inv, &self.config, meta)?;
        match self.fancy_and_meta() {
            Some((fancy, meta)) => fancy.write(inv, self.config.fancy_size, meta),
            None => Ok(()),
        }
    }
}

impl<P: Placement, const TERM_SCORES: bool> CursorBackend for ThresholdMethod<P, TERM_SCORES> {
    fn base(&self) -> &MethodBase {
        &self.base
    }

    fn stream(&self, term: TermId, resume: &UnionResume) -> Result<UnionCursor<'_>> {
        Ok(UnionCursor::resume(
            self.long.resume_cursor(term, resume.long_resume())?,
            self.short.cursor_after(term, resume.short_resume_key())?,
            resume,
        ))
    }

    /// Algorithm 2 lines 12-21: score resolution per occurrence (plus,
    /// term-scored, the matched term-score contributions — phase 2 of
    /// Algorithm 3). Both probes are in-memory map lookups (see
    /// `crate::doc_table`).
    fn resolve(&self, candidate: &Candidate, idfs: &[f64]) -> Result<Option<Score>> {
        let exact = if candidate.all_short() {
            // Short postings may lag the Score table.
            None
        } else {
            match self.list.get(candidate.doc) {
                // In the short lists: this stale long posting is
                // superseded by the short occurrence.
                Some(entry) if entry.in_short_list => return Ok(None),
                Some(_) => None,
                // Never updated: a list score is still current.
                None => P::exact_score(candidate.pos),
            }
        };
        let svr = match exact {
            Some(score) => score,
            None => self.base.score_table.score_of(candidate.doc)?,
        };
        Ok(Some(if TERM_SCORES {
            self.base.combine_matches(svr, candidate, idfs)
        } else {
            svr
        }))
    }

    fn svr_bound(&self, pos: Option<PostingPos>) -> Score {
        pos.map_or(f64::NEG_INFINITY, |pos| {
            self.place.svr_bound(&self.config, pos)
        })
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

impl<P: Placement, const TERM_SCORES: bool> Method for ThresholdMethod<P, TERM_SCORES> {
    const KIND: MethodKind = P::KINDS[TERM_SCORES as usize];
    const STORES: &'static [&'static str] = if TERM_SCORES {
        &[SCORE, DOCS, LONG, SHORT, AUX, FANCY, META]
    } else if P::KEEPS_META {
        &[SCORE, DOCS, LONG, SHORT, AUX, META]
    } else {
        &[SCORE, DOCS, LONG, SHORT, AUX]
    };

    fn build_in(
        ctx: ShardContext,
        docs: &[Document],
        scores: &ScoreMap,
        config: &IndexConfig,
    ) -> Result<Self> {
        let base = MethodBase::with_context(ctx, config)?;
        base.bulk_load(docs, scores)?;
        let long_store = base.create_store(LONG, config.long_cache_pages);
        let short_store = base.create_store(SHORT, config.small_cache_pages);
        let aux_store = base.create_store(AUX, config.small_cache_pages);
        let format = P::format(TERM_SCORES);
        let long = LongListStore::create_in(long_store, format, config.codec, base.durable)?;
        let short = ShortLists::create_in(short_store, P::ORDER, base.durable)?;
        let list = ListTable::create_in(aux_store, base.durable)?;
        let fancy = TERM_SCORES
            .then(|| FancyLists::create(&base, config))
            .transpose()?;
        let meta = Self::HAS_META
            .then(|| {
                MetaTable::create(
                    base.create_store(META, config.small_cache_pages),
                    base.durable,
                )
            })
            .transpose()?;

        let method = ThresholdMethod {
            base,
            config: config.clone(),
            place: P::new(config),
            long,
            short,
            list,
            meta,
            fancy,
        };
        method.write_lists(&Inversion::of_corpus(docs, scores)?)?;
        Ok(method)
    }

    /// Reattach a durable shard from its recovered stores (see
    /// [`crate::open_index_at`]): structures reopen, the placement's layout
    /// state (and the fancy-list state) reload from the shard metadata.
    fn open_in(ctx: ShardContext, config: &IndexConfig) -> Result<Self> {
        let base = MethodBase::open_with_context(ctx, config)?;
        let long_store = base.create_store(LONG, config.long_cache_pages);
        let long = LongListStore::open(long_store, P::format(TERM_SCORES), config.codec)?;
        let short = ShortLists::open(base.create_store(SHORT, config.small_cache_pages), P::ORDER)?;
        let (list, _) = ListTable::open(base.create_store(AUX, config.small_cache_pages))?;
        let meta = Self::HAS_META
            .then(|| MetaTable::open(base.create_store(META, config.small_cache_pages)))
            .transpose()?;
        let place = P::open(meta.as_ref())?;
        let fancy = match &meta {
            Some(meta) if TERM_SCORES => Some(FancyLists::open(&base, config, meta, &short)?),
            _ => None,
        };
        Ok(ThresholdMethod {
            base,
            config: config.clone(),
            place,
            long,
            short,
            list,
            meta,
            fancy,
        })
    }

    fn long_epoch(&self) -> u64 {
        self.long.epoch()
    }

    fn list_sizes(&self) -> (u64, u64, u64) {
        (
            self.long.total_bytes(),
            self.long.total_postings(),
            self.short.len(),
        )
    }

    /// Algorithm 1. One ListScore / ListChunk read, at most one write.
    fn update_score(&self, doc: DocId, new_score: Score) -> Result<()> {
        let Some((old_score, new_score)) = self.base.replace_score(doc, new_score)? else {
            return Ok(());
        };
        let row = self.list.get(doc);
        let entry = row.unwrap_or_else(|| self.long_entry(old_score));
        let new_pos = self.place.pos_of(new_score);
        if self.place.moves(&self.config, new_pos, entry.l_pos) {
            let terms = self.base.doc_store.get(doc)?.unwrap_or_default();
            for (term, ts) in term_scores::<TERM_SCORES>(&terms) {
                if entry.in_short_list {
                    // Relocate the existing short posting.
                    self.short.delete(term, P::posting(entry.l_pos), doc)?;
                }
                self.short
                    .put(term, P::posting(new_pos), doc, Op::Add, ts)?;
            }
            self.list.put(
                doc,
                ListEntry {
                    l_pos: new_pos,
                    in_short_list: true,
                },
            )?;
        } else if row.is_none() {
            // First-ever update: remember the long posting's position.
            self.list.put(doc, entry)?;
        }
        Ok(())
    }

    fn open_cursor(&self, query: &Query) -> Result<MergeState> {
        match &self.fancy {
            Some(fancy) => fancy.open_cursor(&self.base, query),
            None => Ok(MergeState::new(query.terms.len(), Vec::new())),
        }
    }

    /// Appendix A.2: an insertion is short-list ADD postings at the
    /// score's position.
    fn insert_document(&self, doc: &Document, score: Score) -> Result<()> {
        let score = self.base.register_insert(doc, score)?;
        let pos = self.place.pos_of(score);
        for (term, ts) in term_scores::<TERM_SCORES>(&doc.terms) {
            self.short.put(term, P::posting(pos), doc.id, Op::Add, ts)?;
            self.widen(term, ts);
        }
        self.list.put(
            doc.id,
            ListEntry {
                l_pos: pos,
                in_short_list: true,
            },
        )?;
        Ok(())
    }

    fn uninsert_document(&self, doc: DocId) -> Result<()> {
        // No row: a merge folded the insert into the long lists (merges
        // clear the table), which the helper's fallback handles. Widened
        // fancy bounds stay widened: looser upper bounds, never wrong.
        let entry = self.list.get(doc).unwrap_or_default();
        if self.base.uninsert_postings_at(
            &self.short,
            doc,
            P::posting(entry.l_pos),
            entry.in_short_list,
        )? {
            self.list.delete(doc)?;
        }
        Ok(())
    }

    /// Appendix A.1: ADD/REM postings co-located with the document's live
    /// postings.
    fn update_content(&self, doc: &Document) -> Result<()> {
        let current = self.base.current_score(doc.id)?;
        let entry = self
            .list
            .get(doc.id)
            .unwrap_or_else(|| self.long_entry(current));
        self.base.replace_content::<TERM_SCORES>(
            &self.short,
            doc,
            P::posting(entry.l_pos),
            entry.in_short_list,
            |term, ts| self.widen(term, ts),
        )?;
        match self.fancy_and_meta() {
            Some((fancy, meta)) => fancy.mark_dirty(meta, doc.id),
            None => Ok(()),
        }
    }

    /// Offline merge: regenerate the long (and fancy) lists from the live
    /// scores — the Chunk placement rebuilds its chunk map first — and
    /// clear the short lists and the ListScore / ListChunk table.
    fn merge_short_lists(&self) -> Result<()> {
        self.write_lists(&Inversion::of_live(&self.base)?)?;
        self.short.clear()?;
        self.list.clear()
    }
}
