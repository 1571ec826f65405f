//! The Score-Threshold method (§4.3.1) and its term-scored form,
//! Score-Threshold-TermScore.
//!
//! An immutable, score-ordered long list plus a score-ordered short list per
//! term. A score update touches the inverted lists only when the new score
//! exceeds `thresholdValueOf(listScore) = t · listScore` (Algorithm 1); the
//! query algorithm (Algorithm 2) keeps scanning past the first k results
//! until the bounded staleness of list scores can no longer change the
//! answer, and always reports scores from the Score table.
//!
//! Score-Threshold-TermScore realizes the §4.3.3 remark that "the
//! generalization for the Score-Threshold method is similar" (the paper
//! never builds it). It is to Score-Threshold what Chunk-TermScore is to
//! Chunk: `ScoreThresholdMethod<true>` stores a quantized term score in
//! every posting and keeps the per-term [`FancyLists`], so queries rank by
//! `f(svr, ts) = svr + w·Σ idf(t)·ts(d,t)`. Query processing is
//! Algorithm 3 with the chunk-boundary SVR upper bound replaced by this
//! method's: at merge position `listScore` no unseen document's current SVR
//! score can exceed `thresholdValueOf(listScore)` (Lemma 1.2), so the
//! stopping rule becomes
//! `f(thresholdValueOf(listScore), termScoreBound) ≤ resultHeap.minScore(k)`.

use crate::aux_table::{ListScoreEntry, ListScoreTable};
use crate::config::IndexConfig;
use crate::cursor::{CursorBackend, MergeState};
use crate::durable::MetaTable;
use crate::error::Result;
use crate::long_list::{ListFormat, LongListStore};
use crate::maintenance::{write_score_lists, Inversion};
use crate::merge::{Candidate, UnionCursor, UnionResume};
use crate::methods::base::{term_scores, MethodBase, ShardContext};
use crate::methods::fancy::FancyLists;
use crate::methods::{store_names, Method, MethodKind, ScoreMap};
use crate::short_list::{Op, PostingPos, ShortLists, ShortOrder};
use crate::types::{DocId, Document, Query, Score, TermId};

/// The Score-Threshold method (`TERM_SCORES = false`) and
/// Score-Threshold-TermScore (`true`).
pub(crate) struct ScoreThresholdMethod<const TERM_SCORES: bool> {
    base: MethodBase,
    config: IndexConfig,
    long: LongListStore,
    short: ShortLists,
    list_score: ListScoreTable,
    /// The term-scored form's fancy lists and the durable shard metadata
    /// persisting their bounds and content-dirty markers; `None` without
    /// term scores.
    fancy: Option<(FancyLists, MetaTable)>,
}

impl<const TERM_SCORES: bool> ScoreThresholdMethod<TERM_SCORES> {
    const FORMAT: ListFormat = ListFormat::Score {
        with_scores: TERM_SCORES,
    };

    /// The list state of a never-updated document (no ListScore entry): its
    /// long posting sits at its current (= build) score.
    fn long_entry(current_score: Score) -> ListScoreEntry {
        ListScoreEntry {
            l_score: current_score,
            in_short_list: false,
        }
    }

    fn widen(&self, term: TermId, ts: u16) {
        if let Some((fancy, _)) = &self.fancy {
            fancy.widen(term, ts);
        }
    }
}

impl<const TERM_SCORES: bool> CursorBackend for ScoreThresholdMethod<TERM_SCORES> {
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

    /// Algorithm 2 lines 12-21: score resolution per occurrence (plus,
    /// term-scored, the matched term-score contributions).
    fn resolve(&self, candidate: &Candidate, idfs: &[f64]) -> Result<Option<Score>> {
        let PostingPos::ByScore(list_score) = candidate.pos else {
            unreachable!("score-threshold candidates are score-ordered");
        };
        let svr = if candidate.all_short() {
            // Short-list result; scores in the short list may lag the
            // Score table.
            self.base.score_table.score_of(candidate.doc)?
        } else {
            // Long-list (or mixed) result.
            match self.list_score.get(candidate.doc) {
                // Never updated: the list score is current.
                None => list_score,
                Some(entry) if !entry.in_short_list => {
                    self.base.score_table.score_of(candidate.doc)?
                }
                // In the short list: this (stale) long posting is superseded
                // by the short occurrence.
                Some(_) => return Ok(None),
            }
        };
        Ok(Some(if TERM_SCORES {
            self.base.combine_matches(svr, candidate, idfs)
        } else {
            svr
        }))
    }

    /// Lemma 1.2: no document at or past list position `s` can currently
    /// score above `thresholdValueOf(s)`.
    fn svr_bound(&self, pos: Option<PostingPos>) -> Score {
        match pos {
            Some(PostingPos::ByScore(s)) => self.config.threshold_value_of(s),
            Some(_) => f64::INFINITY,
            None => f64::NEG_INFINITY,
        }
    }

    fn term_fancy_bound(&self, term: TermId) -> f64 {
        self.fancy
            .as_ref()
            .map_or(0.0, |(fancy, _)| fancy.bound(term))
    }

    fn combine(&self, svr: Score, ts_sum: f64) -> Score {
        if TERM_SCORES {
            self.base.combine(svr, ts_sum)
        } else {
            svr
        }
    }
}

impl<const TERM_SCORES: bool> Method for ScoreThresholdMethod<TERM_SCORES> {
    const KIND: MethodKind = if TERM_SCORES {
        MethodKind::ScoreThresholdTermScore
    } else {
        MethodKind::ScoreThreshold
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
        ]
    };

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
        let long = LongListStore::create_in(long_store, Self::FORMAT, config.codec, base.durable)?;
        let short = ShortLists::create_in(short_store, ShortOrder::ByScoreDesc, base.durable)?;
        let list_score = ListScoreTable::create_in(aux_store, base.durable)?;
        let fancy = if TERM_SCORES {
            let lists = FancyLists::create(&base, config)?;
            let meta_store = base.create_store(store_names::META, config.small_cache_pages);
            Some((lists, MetaTable::create(meta_store, base.durable)?))
        } else {
            None
        };

        let inv = Inversion::of_corpus(docs, scores)?;
        write_score_lists(&long, &inv)?;
        if let Some((fancy, meta)) = &fancy {
            fancy.write(&inv, config.fancy_size, meta)?;
        }
        Ok(ScoreThresholdMethod {
            base,
            config: config.clone(),
            long,
            short,
            list_score,
            fancy,
        })
    }

    /// Reattach a durable shard from its recovered stores (see
    /// [`crate::open_index_at`]); the term-scored form reloads its fancy-list
    /// state from the shard metadata.
    fn open_in(ctx: ShardContext, config: &IndexConfig) -> Result<Self> {
        let base = MethodBase::open_with_context(ctx, config)?;
        let long = LongListStore::open(
            base.create_store(store_names::LONG, config.long_cache_pages),
            Self::FORMAT,
            config.codec,
        )?;
        let short = ShortLists::open(
            base.create_store(store_names::SHORT, config.small_cache_pages),
            ShortOrder::ByScoreDesc,
        )?;
        let (list_score, _) =
            ListScoreTable::open(base.create_store(store_names::AUX, config.small_cache_pages))?;
        let fancy = if TERM_SCORES {
            let meta =
                MetaTable::open(base.create_store(store_names::META, config.small_cache_pages))?;
            Some((FancyLists::open(&base, config, &meta, &short)?, meta))
        } else {
            None
        };
        Ok(ScoreThresholdMethod {
            base,
            config: config.clone(),
            long,
            short,
            list_score,
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

    /// Algorithm 1. One ListScore read, at most one write.
    fn update_score(&self, doc: DocId, new_score: Score) -> Result<()> {
        let Some((old_score, new_score)) = self.base.replace_score(doc, new_score)? else {
            return Ok(());
        };
        let row = self.list_score.get(doc);
        let entry = row.unwrap_or(Self::long_entry(old_score));
        if new_score > self.config.threshold_value_of(entry.l_score) {
            let terms = self.base.doc_store.get(doc)?.unwrap_or_default();
            for (term, ts) in term_scores::<TERM_SCORES>(&terms) {
                if entry.in_short_list {
                    // Relocate the existing short posting.
                    self.short
                        .delete(term, PostingPos::ByScore(entry.l_score), doc)?;
                }
                self.short
                    .put(term, PostingPos::ByScore(new_score), doc, Op::Add, ts)?;
            }
            self.list_score.put(
                doc,
                ListScoreEntry {
                    l_score: new_score,
                    in_short_list: true,
                },
            )?;
        } else if row.is_none() {
            // First-ever update: remember the (long) list score.
            self.list_score.put(doc, entry)?;
        }
        Ok(())
    }

    fn open_cursor(&self, query: &Query) -> Result<MergeState> {
        match &self.fancy {
            Some((fancy, _)) => fancy.open_cursor(&self.base, query),
            None => Ok(MergeState::new(query.terms.len(), Vec::new())),
        }
    }

    fn insert_document(&self, doc: &Document, score: Score) -> Result<()> {
        let score = self.base.register_insert(doc, score)?;
        for (term, ts) in term_scores::<TERM_SCORES>(&doc.terms) {
            self.short
                .put(term, PostingPos::ByScore(score), doc.id, Op::Add, ts)?;
            self.widen(term, ts);
        }
        self.list_score.put(
            doc.id,
            ListScoreEntry {
                l_score: score,
                in_short_list: true,
            },
        )?;
        Ok(())
    }

    fn uninsert_document(&self, doc: DocId) -> Result<()> {
        // No ListScore entry means the offline merge already folded the
        // insert's postings into the long lists (merges clear ListScore) —
        // the helper's merged-document fallback covers it. Fancy bounds
        // widened by the insertion stay widened: they are upper bounds,
        // looser but never wrong.
        let (pos, in_short_list) = match self.list_score.get(doc) {
            Some(entry) => (PostingPos::ByScore(entry.l_score), entry.in_short_list),
            None => (PostingPos::ByScore(0.0), false),
        };
        if self
            .base
            .uninsert_postings_at(&self.short, doc, pos, in_short_list)?
        {
            self.list_score.delete(doc)?;
        }
        Ok(())
    }

    fn update_content(&self, doc: &Document) -> Result<()> {
        let current = self.base.current_score(doc.id)?;
        let entry = self
            .list_score
            .get(doc.id)
            .unwrap_or(Self::long_entry(current));
        self.base.replace_content::<TERM_SCORES>(
            &self.short,
            doc,
            PostingPos::ByScore(entry.l_score),
            entry.in_short_list,
            |term, ts| self.widen(term, ts),
        )?;
        match &self.fancy {
            Some((fancy, meta)) => fancy.mark_dirty(meta, doc.id),
            None => Ok(()),
        }
    }

    fn merge_short_lists(&self) -> Result<()> {
        let inv = Inversion::of_live(&self.base)?;
        write_score_lists(&self.long, &inv)?;
        if let Some((fancy, meta)) = &self.fancy {
            fancy.rebuild(&inv, self.config.fancy_size, meta)?;
        }
        self.short.clear()?;
        self.list_score.clear()
    }
}
