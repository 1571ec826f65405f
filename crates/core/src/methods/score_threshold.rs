//! The Score-Threshold method (§4.3.1).
//!
//! An immutable, score-ordered long list plus a score-ordered short list per
//! term. A score update touches the inverted lists only when the new score
//! exceeds `thresholdValueOf(listScore) = t · listScore` (Algorithm 1); the
//! query algorithm (Algorithm 2) keeps scanning past the first k results
//! until the bounded staleness of list scores can no longer change the
//! answer, and always reports scores from the Score table.

use std::collections::HashSet;

use crate::aux_table::{ListScoreEntry, ListScoreTable};
use crate::config::IndexConfig;
use crate::cursor::CursorBackend;
use crate::error::Result;
use crate::long_list::{invert_corpus, ListFormat, LongListStore};
use crate::merge::{Candidate, UnionCursor, UnionResume};
use crate::methods::base::{MethodBase, ShardContext};
use crate::methods::{store_names, Method, MethodKind, ScoreMap};
use crate::short_list::{Op, PostingPos, ShortLists, ShortOrder};
use crate::types::{DocId, Document, Score, TermId};

/// The Score-Threshold method.
pub(crate) struct ScoreThresholdMethod {
    base: MethodBase,
    config: IndexConfig,
    long: LongListStore,
    short: ShortLists,
    list_score: ListScoreTable,
}

impl ScoreThresholdMethod {
    /// The document's list score and whether its postings are in the short
    /// lists (Algorithm 1 lines 9-17).
    fn list_state(&self, doc: DocId, fallback_score: Score) -> Result<ListScoreEntry> {
        match self.list_score.get(doc)? {
            Some(entry) => Ok(entry),
            None => Ok(ListScoreEntry {
                l_score: fallback_score,
                in_short_list: false,
            }),
        }
    }
}

impl CursorBackend for ScoreThresholdMethod {
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

    /// Algorithm 2 lines 12-21: score resolution per occurrence.
    fn resolve(&self, candidate: &Candidate, _idfs: &[f64]) -> Result<Option<Score>> {
        let PostingPos::ByScore(list_score) = candidate.pos else {
            unreachable!("score-threshold candidates are score-ordered");
        };
        if candidate.all_short() {
            // Short-list result; scores in the short list may lag the
            // Score table.
            return Ok(Some(self.base.score_table.score_of(candidate.doc)?));
        }
        // Long-list (or mixed) result.
        match self.list_score.get(candidate.doc)? {
            // Never updated: the list score is current.
            None => Ok(Some(list_score)),
            Some(entry) if !entry.in_short_list => {
                Ok(Some(self.base.score_table.score_of(candidate.doc)?))
            }
            // In the short list: this (stale) long posting is superseded by
            // the short occurrence.
            Some(_) => Ok(None),
        }
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
}

impl Method for ScoreThresholdMethod {
    const KIND: MethodKind = MethodKind::ScoreThreshold;
    const STORES: &'static [&'static str] = &[
        store_names::SCORE,
        store_names::DOCS,
        store_names::LONG,
        store_names::SHORT,
        store_names::AUX,
    ];

    fn build_in(
        ctx: ShardContext,
        docs: &[Document],
        scores: &ScoreMap,
        config: &IndexConfig,
    ) -> Result<ScoreThresholdMethod> {
        let base = MethodBase::with_context(ctx, config)?;
        base.bulk_load(docs, scores)?;
        let long_store = base.create_store(store_names::LONG, config.long_cache_pages);
        let short_store = base.create_store(store_names::SHORT, config.small_cache_pages);
        let aux_store = base.create_store(store_names::AUX, config.small_cache_pages);
        let long = LongListStore::create_in(
            long_store,
            ListFormat::Score { with_scores: false },
            config.codec,
            base.durable,
        )?;
        let short = ShortLists::create_in(short_store, ShortOrder::ByScoreDesc, base.durable)?;
        let list_score = ListScoreTable::create_in(aux_store, base.durable)?;

        for (term, mut postings) in invert_corpus(docs) {
            // (score desc, doc asc) order.
            let mut rows: Vec<(f64, DocId, u16)> = postings
                .drain(..)
                .map(|p| (MethodBase::initial_score(scores, p.doc), p.doc, p.tscore))
                .collect();
            rows.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
            long.put_score_list(term, &rows)?;
        }
        Ok(ScoreThresholdMethod {
            base,
            config: config.clone(),
            long,
            short,
            list_score,
        })
    }

    fn open_in(ctx: ShardContext, config: &IndexConfig) -> Result<ScoreThresholdMethod> {
        let base = MethodBase::open_with_context(ctx, config)?;
        let long = LongListStore::open(
            base.create_store(store_names::LONG, config.long_cache_pages),
            ListFormat::Score { with_scores: false },
            config.codec,
        )?;
        let short = ShortLists::open(
            base.create_store(store_names::SHORT, config.small_cache_pages),
            ShortOrder::ByScoreDesc,
        )?;
        let list_score =
            ListScoreTable::open(base.create_store(store_names::AUX, config.small_cache_pages))?;
        Ok(ScoreThresholdMethod {
            base,
            config: config.clone(),
            long,
            short,
            list_score,
        })
    }

    fn list_sizes(&self) -> (u64, u64, u64) {
        (
            self.long.total_bytes(),
            self.long.total_postings(),
            self.short.len(),
        )
    }

    /// Algorithm 1.
    fn update_score(&self, doc: DocId, new_score: Score) -> Result<()> {
        let old_score = self.base.current_score(doc)?;
        self.base.score_table.set(doc, new_score)?;
        let entry = self.list_state(doc, old_score)?;
        if self.list_score.get(doc)?.is_none() {
            // First-ever update: remember the (long) list score.
            self.list_score.put(
                doc,
                ListScoreEntry {
                    l_score: old_score,
                    in_short_list: false,
                },
            )?;
        }
        if new_score > self.config.threshold_value_of(entry.l_score) {
            let terms = self.base.doc_store.get(doc)?.unwrap_or_default();
            for (term, _) in terms {
                if entry.in_short_list {
                    // Relocate the existing short posting.
                    self.short
                        .delete(term, PostingPos::ByScore(entry.l_score), doc)?;
                }
                self.short
                    .put(term, PostingPos::ByScore(new_score), doc, Op::Add, 0)?;
            }
            self.list_score.put(
                doc,
                ListScoreEntry {
                    l_score: new_score,
                    in_short_list: true,
                },
            )?;
        }
        Ok(())
    }

    fn insert_document(&self, doc: &Document, score: Score) -> Result<()> {
        self.base.register_insert(doc, score)?;
        for term in doc.term_ids() {
            self.short
                .put(term, PostingPos::ByScore(score), doc.id, Op::Add, 0)?;
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
        // the helper's merged-document fallback covers it.
        let (pos, in_short_list) = match self.list_score.get(doc)? {
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
        let entry = self.list_state(doc.id, current)?;
        let (old, new) = self.base.register_content(doc)?;
        let old_terms: HashSet<TermId> = old.iter().map(|&(t, _)| t).collect();
        let new_terms: HashSet<TermId> = new.iter().map(|&(t, _)| t).collect();
        let pos = PostingPos::ByScore(entry.l_score);
        for &term in new_terms.difference(&old_terms) {
            self.short.put(term, pos, doc.id, Op::Add, 0)?;
        }
        for &term in old_terms.difference(&new_terms) {
            if entry.in_short_list {
                // The live posting is a short one: drop it directly.
                self.short.delete(term, pos, doc.id)?;
            } else {
                // Tombstone the long posting at its list position.
                self.short.put(term, pos, doc.id, Op::Rem, 0)?;
            }
        }
        Ok(())
    }

    fn merge_short_lists(&self) -> Result<()> {
        crate::maintenance::rebuild_score_lists(&self.base, &self.long)?;
        self.short.clear()?;
        self.list_score.clear()
    }
}
