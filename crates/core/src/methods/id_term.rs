//! The ID-TermScore method (§5.2): the ID method "extended to additionally
//! store term-based scores" in the postings, used as the baseline for the
//! combined-score experiments (Fig. 9 / Fig. 10).
//!
//! Ranking uses `f(svr, Σ ts) = svr + w·Σ idf(t)·ts(d,t)`. Like the ID
//! method, queries must scan every posting: with an unbounded, frequently
//! changing SVR component, no term-score-only early termination is sound.

use std::collections::HashSet;

use svr_text::unquantize_term_score;

use crate::config::IndexConfig;
use crate::cursor::{CursorBackend, MergeState};
use crate::error::Result;
use crate::long_list::{invert_corpus, posting_term_score, ListFormat, LongListStore};
use crate::merge::{Candidate, UnionCursor, UnionResume};
use crate::methods::base::{MethodBase, ShardContext};
use crate::methods::{store_names, Method, MethodKind, ScoreMap};
use crate::multiterm::{wand_topk, SeekCounters, SeekStats};
use crate::short_list::{Op, PostingPos, ShortLists, ShortOrder};
use crate::types::{DocId, Document, Query, Score, SearchHit, TermId};

/// The ID-TermScore baseline.
pub(crate) struct IdTermMethod {
    base: MethodBase,
    long: LongListStore,
    short: ShortLists,
    counters: SeekCounters,
}

impl CursorBackend for IdTermMethod {
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

    fn resolve(&self, candidate: &Candidate, idfs: &[f64]) -> Result<Option<Score>> {
        let Some(entry) = self.base.score_table.get(candidate.doc)? else {
            return Ok(None);
        };
        if entry.deleted {
            return Ok(None);
        }
        let mut ts_sum = 0.0;
        for (i, m) in candidate.matches.iter().enumerate() {
            if let Some(m) = m {
                ts_sum += idfs[i] * unquantize_term_score(m.tscore);
            }
        }
        Ok(Some(self.base.combine(entry.score, ts_sum)))
    }

    fn svr_bound(&self, pos: Option<PostingPos>) -> Score {
        // Like the ID method: no term-score-only early termination is
        // sound, so nothing is emitted until the scan completes.
        match pos {
            Some(_) => f64::INFINITY,
            None => f64::NEG_INFINITY,
        }
    }

    fn combine(&self, svr: Score, ts_sum: f64) -> Score {
        self.base.combine(svr, ts_sum)
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

impl Method for IdTermMethod {
    const KIND: MethodKind = MethodKind::IdTermScore;
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
    ) -> Result<IdTermMethod> {
        let base = MethodBase::with_context(ctx, config)?;
        base.bulk_load(docs, scores)?;
        let long_store = base.create_store(store_names::LONG, config.long_cache_pages);
        let short_store = base.create_store(store_names::SHORT, config.small_cache_pages);
        let long = LongListStore::create_in(
            long_store,
            ListFormat::Id { with_scores: true },
            config.codec,
            base.durable,
        )?;
        let short = ShortLists::create_in(short_store, ShortOrder::ById, base.durable)?;
        for (term, postings) in invert_corpus(docs) {
            long.put_id_list(term, &postings)?;
        }
        Ok(IdTermMethod {
            base,
            long,
            short,
            counters: SeekCounters::default(),
        })
    }

    fn open_in(ctx: ShardContext, config: &IndexConfig) -> Result<IdTermMethod> {
        let base = MethodBase::open_with_context(ctx, config)?;
        let long = LongListStore::open(
            base.create_store(store_names::LONG, config.long_cache_pages),
            ListFormat::Id { with_scores: true },
            config.codec,
        )?;
        let short = ShortLists::open(
            base.create_store(store_names::SHORT, config.small_cache_pages),
            ShortOrder::ById,
        )?;
        Ok(IdTermMethod {
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
        self.base.current_score(doc)?;
        self.base.score_table.set(doc, new_score)?;
        Ok(())
    }

    fn open_cursor(&self, query: &Query) -> Result<MergeState> {
        let idfs: Vec<f64> = query.terms.iter().map(|&t| self.base.idf(t)).collect();
        Ok(MergeState::new(query.terms.len(), idfs))
    }

    fn query(&self, query: &Query) -> Result<Vec<SearchHit>> {
        // One-shot queries run the block-max WAND executor: per-block
        // `(max doc, max tscore)` metadata bounds the term-score part,
        // the Score table's monotone maximum bounds the SVR part, and
        // windows that cannot beat the k-th score are skipped undecoded.
        if query.terms.is_empty() {
            return Ok(Vec::new());
        }
        let idfs: Vec<f64> = query.terms.iter().map(|&t| self.base.idf(t)).collect();
        let short_bounds: Vec<f64> = query
            .terms
            .iter()
            .map(|&t| self.short.max_add_tscore(t).map(unquantize_term_score))
            .collect::<Result<_>>()?;
        let streams = query
            .terms
            .iter()
            .map(|&t| self.stream(t, &UnionResume::fresh()))
            .collect::<Result<Vec<_>>>()?;
        let svr_ub = self.base.score_table.max_score_bound();
        let (hits, _) = wand_topk(self, streams, query, &idfs, &short_bounds, svr_ub)?;
        Ok(hits)
    }

    fn insert_document(&self, doc: &Document, score: Score) -> Result<()> {
        self.base.register_insert(doc, score)?;
        let max_tf = doc.max_tf();
        for &(term, tf) in &doc.terms {
            let ts = posting_term_score(tf, max_tf);
            self.short.put(term, PostingPos::Id, doc.id, Op::Add, ts)?;
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
        let old_terms: HashSet<TermId> = old.iter().map(|&(t, _)| t).collect();
        let max_tf = doc.max_tf();
        // New or changed terms: ADD postings override the long posting at
        // the same (term, doc) position.
        for &(term, tf) in &new {
            self.short.put(
                term,
                PostingPos::Id,
                doc.id,
                Op::Add,
                posting_term_score(tf, max_tf),
            )?;
        }
        let new_terms: HashSet<TermId> = new.iter().map(|&(t, _)| t).collect();
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
