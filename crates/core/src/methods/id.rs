//! The ID method (§4.2.1): postings in doc-id order, scores in the Score
//! table.
//!
//! Score updates touch only the Score table (the fastest possible update),
//! but every query must scan the *entire* inverted list of each query term
//! and probe the Score table per candidate — "the main disadvantage of this
//! method is that we need to scan all the postings ... even if the user only
//! wants the top-k results".

use crate::config::IndexConfig;
use crate::cursor::CursorBackend;
use crate::error::Result;
use crate::long_list::{invert_corpus, ListFormat, LongListStore};
use crate::merge::{Candidate, UnionCursor, UnionResume};
use crate::methods::base::{MethodBase, ShardContext};
use crate::methods::{store_names, Method, MethodKind, ScoreMap};
use crate::multiterm::{wand_topk, SeekCounters, SeekStats};
use crate::short_list::{Op, PostingPos, ShortLists, ShortOrder};
use crate::types::{DocId, Document, Query, Score, SearchHit, TermId};

/// The ID method.
pub(crate) struct IdMethod {
    base: MethodBase,
    long: LongListStore,
    short: ShortLists,
    counters: SeekCounters,
}

impl CursorBackend for IdMethod {
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
        // Score table probe for every candidate — the ID method's cost.
        let Some(entry) = self.base.score_table.get(candidate.doc)? else {
            return Ok(None);
        };
        if entry.deleted {
            return Ok(None);
        }
        Ok(Some(entry.score))
    }

    fn svr_bound(&self, pos: Option<PostingPos>) -> Score {
        // ID lists are unordered by score: nothing can be emitted until the
        // scan completes ("we need to scan all the postings").
        match pos {
            Some(_) => f64::INFINITY,
            None => f64::NEG_INFINITY,
        }
    }

    fn doc_ordered(&self) -> bool {
        true
    }

    fn record_stats(&self, stats: SeekStats) {
        self.counters.record(stats);
    }

    fn seek_stats(&self) -> SeekStats {
        self.counters.snapshot()
    }
}

impl Method for IdMethod {
    const KIND: MethodKind = MethodKind::Id;
    const STORES: &'static [&'static str] = &[
        store_names::SCORE,
        store_names::DOCS,
        store_names::LONG,
        store_names::SHORT,
    ];

    fn build_in(
        ctx: ShardContext,
        docs: &[Document],
        scores: &ScoreMap,
        config: &IndexConfig,
    ) -> Result<IdMethod> {
        let base = MethodBase::with_context(ctx, config)?;
        base.bulk_load(docs, scores)?;
        let long_store = base.create_store(store_names::LONG, config.long_cache_pages);
        let short_store = base.create_store(store_names::SHORT, config.small_cache_pages);
        let long = LongListStore::create_in(
            long_store,
            ListFormat::Id { with_scores: false },
            config.codec,
            base.durable,
        )?;
        let short = ShortLists::create_in(short_store, ShortOrder::ById, base.durable)?;
        for (term, postings) in invert_corpus(docs) {
            long.put_id_list(term, &postings)?;
        }
        Ok(IdMethod {
            base,
            long,
            short,
            counters: SeekCounters::default(),
        })
    }

    fn open_in(ctx: ShardContext, config: &IndexConfig) -> Result<IdMethod> {
        let base = MethodBase::open_with_context(ctx, config)?;
        let long = LongListStore::open(
            base.create_store(store_names::LONG, config.long_cache_pages),
            ListFormat::Id { with_scores: false },
            config.codec,
        )?;
        let short = ShortLists::open(
            base.create_store(store_names::SHORT, config.small_cache_pages),
            ShortOrder::ById,
        )?;
        Ok(IdMethod {
            base,
            long,
            short,
            counters: SeekCounters::default(),
        })
    }

    fn list_sizes(&self) -> (u64, u64, u64) {
        (
            self.long.total_bytes(),
            self.long.total_postings(),
            self.short.len(),
        )
    }

    fn update_score(&self, doc: DocId, new_score: Score) -> Result<()> {
        // The whole update: one Score-table write.
        self.base.current_score(doc)?;
        self.base.score_table.set(doc, new_score)?;
        Ok(())
    }

    fn query(&self, query: &Query) -> Result<Vec<SearchHit>> {
        // One-shot queries know `k` up front, so they run the block-max
        // WAND executor instead of a cursor drain. The ID method carries no
        // term scores (IDF weights are zero), so score-based skipping never
        // fires — but conjunctive leapfrogging still skips whole blocks via
        // the max-doc skip metadata.
        if query.terms.is_empty() {
            return Ok(Vec::new());
        }
        let streams = query
            .terms
            .iter()
            .map(|&t| self.stream(t, &UnionResume::fresh()))
            .collect::<Result<Vec<_>>>()?;
        let zeros = vec![0.0; query.terms.len()];
        let svr_ub = self.base.score_table.max_score_bound();
        let (hits, _) = wand_topk(self, streams, query, &zeros, &zeros, svr_ub)?;
        Ok(hits)
    }

    fn insert_document(&self, doc: &Document, score: Score) -> Result<()> {
        self.base.register_insert(doc, score)?;
        for term in doc.term_ids() {
            self.short.put(term, PostingPos::Id, doc.id, Op::Add, 0)?;
        }
        Ok(())
    }

    fn uninsert_document(&self, doc: DocId) -> Result<()> {
        // ID lists keep no per-doc list state; postings a concurrent merge
        // moved to the long lists dangle harmlessly (resolve skips docs
        // with no Score-table row) and vanish at the next merge.
        self.base
            .uninsert_postings_at(&self.short, doc, PostingPos::Id, true)?;
        Ok(())
    }

    fn update_content(&self, doc: &Document) -> Result<()> {
        let (old, new) = self.base.register_content(doc)?;
        let old_terms: std::collections::HashSet<TermId> = old.iter().map(|&(t, _)| t).collect();
        let new_terms: std::collections::HashSet<TermId> = new.iter().map(|&(t, _)| t).collect();
        for &term in new_terms.difference(&old_terms) {
            self.short.put(term, PostingPos::Id, doc.id, Op::Add, 0)?;
        }
        for &term in old_terms.difference(&new_terms) {
            self.short.put(term, PostingPos::Id, doc.id, Op::Rem, 0)?;
        }
        Ok(())
    }

    fn merge_short_lists(&self) -> Result<()> {
        crate::maintenance::rebuild_id_lists(&self.base, &self.long)?;
        self.short.clear()
    }
}
