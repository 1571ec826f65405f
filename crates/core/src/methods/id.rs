//! The ID method (§4.2.1) and its term-scored form, ID-TermScore (§5.2):
//! postings in doc-id order, scores in the Score table.
//!
//! Score updates touch only the Score table (the fastest possible update),
//! but every query must scan the *entire* inverted list of each query term
//! and probe the Score table per candidate — "the main disadvantage of this
//! method is that we need to scan all the postings ... even if the user only
//! wants the top-k results".
//!
//! ID-TermScore is the ID method "extended to additionally store term-based
//! scores" in the postings — the baseline of the combined-score experiments
//! (Fig. 9 / Fig. 10). It ranks by `f(svr, Σ ts) = svr + w·Σ idf(t)·ts(d,t)`.
//! Like the ID method, a cursor must scan every posting: with an unbounded,
//! frequently changing SVR component, no term-score-only early termination
//! is sound.

use svr_text::unquantize_term_score;

use crate::config::IndexConfig;
use crate::cursor::{CursorBackend, MergeState};
use crate::error::Result;
use crate::long_list::{ListFormat, LongListStore};
use crate::maintenance::{write_id_lists, Inversion};
use crate::merge::{Candidate, UnionCursor, UnionResume};
use crate::methods::base::{term_scores, MethodBase, ShardContext};
use crate::methods::{store_names, Method, MethodKind, ScoreMap};
use crate::multiterm::{wand_topk, SeekCounters, SeekStats};
use crate::short_list::{Op, PostingPos, ShortLists, ShortOrder};
use crate::types::{DocId, Document, Query, Score, SearchHit, TermId};

/// The ID method (`TERM_SCORES = false`) and ID-TermScore (`true`).
pub(crate) struct IdMethod<const TERM_SCORES: bool> {
    base: MethodBase,
    long: LongListStore,
    short: ShortLists,
    counters: SeekCounters,
}

impl<const TERM_SCORES: bool> IdMethod<TERM_SCORES> {
    const FORMAT: ListFormat = ListFormat::Id {
        with_scores: TERM_SCORES,
    };
}

impl<const TERM_SCORES: bool> CursorBackend for IdMethod<TERM_SCORES> {
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

    fn resolve(&self, candidate: &Candidate, idfs: &[f64]) -> Result<Option<Score>> {
        // Score table probe for every candidate — the ID method's cost in
        // the paper. Here the probe is an in-memory map lookup (see
        // `crate::doc_table`), so what remains is the full list scan.
        let Some(entry) = self.base.score_table.get(candidate.doc) else {
            return Ok(None);
        };
        if entry.deleted {
            return Ok(None);
        }
        Ok(Some(if TERM_SCORES {
            self.base.combine_matches(entry.score, candidate, idfs)
        } else {
            entry.score
        }))
    }

    fn svr_bound(&self, pos: Option<PostingPos>) -> Score {
        // ID lists are unordered by score: nothing can be emitted until the
        // scan completes ("we need to scan all the postings").
        match pos {
            Some(_) => f64::INFINITY,
            None => f64::NEG_INFINITY,
        }
    }

    fn combine(&self, svr: Score, ts_sum: f64) -> Score {
        if TERM_SCORES {
            self.base.combine(svr, ts_sum)
        } else {
            svr
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

impl<const TERM_SCORES: bool> Method for IdMethod<TERM_SCORES> {
    const KIND: MethodKind = if TERM_SCORES {
        MethodKind::IdTermScore
    } else {
        MethodKind::Id
    };
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
    ) -> Result<Self> {
        let base = MethodBase::with_context(ctx, config)?;
        base.bulk_load(docs, scores)?;
        let long_store = base.create_store(store_names::LONG, config.long_cache_pages);
        let short_store = base.create_store(store_names::SHORT, config.small_cache_pages);
        let long = LongListStore::create_in(long_store, Self::FORMAT, config.codec, base.durable)?;
        let short = ShortLists::create_in(short_store, ShortOrder::ById, base.durable)?;
        write_id_lists(&long, &Inversion::of_corpus(docs, scores)?)?;
        Ok(IdMethod {
            base,
            long,
            short,
            counters: SeekCounters::default(),
        })
    }

    fn open_in(ctx: ShardContext, config: &IndexConfig) -> Result<Self> {
        let base = MethodBase::open_with_context(ctx, config)?;
        let long = LongListStore::open(
            base.create_store(store_names::LONG, config.long_cache_pages),
            Self::FORMAT,
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

    fn update_score(&self, doc: DocId, new_score: Score) -> Result<()> {
        // The whole update: at most one Score-table write.
        self.base.replace_score(doc, new_score)?;
        Ok(())
    }

    fn open_cursor(&self, query: &Query) -> Result<MergeState> {
        // Term-scored candidates resolve with the query's IDF weights.
        let idfs = if TERM_SCORES {
            self.base.idfs(&query.terms)
        } else {
            Vec::new()
        };
        Ok(MergeState::new(query.terms.len(), idfs))
    }

    fn query(&self, query: &Query) -> Result<Vec<SearchHit>> {
        // One-shot queries know `k` up front, so they run the block-max
        // WAND executor instead of a cursor drain: per-block `(max doc, max
        // tscore)` metadata bounds the term-score part, the Score table's
        // monotone maximum bounds the SVR part, and windows that cannot beat
        // the k-th score are skipped undecoded. Without term scores the IDF
        // weights are zero, so score-based skipping never fires — but
        // conjunctive leapfrogging still skips whole blocks via the max-doc
        // skip metadata.
        if query.terms.is_empty() {
            return Ok(Vec::new());
        }
        let (idfs, short_bounds) = if TERM_SCORES {
            let short_bounds: Vec<f64> = query
                .terms
                .iter()
                .map(|&t| self.short.max_add_tscore(t).map(unquantize_term_score))
                .collect::<Result<_>>()?;
            (self.base.idfs(&query.terms), short_bounds)
        } else {
            let zeros = vec![0.0; query.terms.len()];
            (zeros.clone(), zeros)
        };
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
        for (term, ts) in term_scores::<TERM_SCORES>(&doc.terms) {
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

    /// ADD postings override the long posting at the same (term, doc)
    /// position; REM postings tombstone removed terms.
    fn update_content(&self, doc: &Document) -> Result<()> {
        self.base
            .replace_content::<TERM_SCORES>(&self.short, doc, PostingPos::Id, false, |_, _| {})
    }

    fn merge_short_lists(&self) -> Result<()> {
        write_id_lists(&self.long, &Inversion::of_live(&self.base)?)?;
        self.short.clear()
    }
}
