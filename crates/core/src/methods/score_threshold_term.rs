//! The Score-Threshold-TermScore method: the §4.3.3 generalization the
//! paper sketches in one sentence ("the generalization for the
//! Score-Threshold method is similar") but never builds.
//!
//! It is to Score-Threshold what Chunk-TermScore is to Chunk: the long
//! lists stay in (score desc, doc asc) order but additionally carry a
//! quantized term score per posting, and each term gains a *fancy list*
//! (Long & Suel) of its highest-term-score postings, so queries rank by the
//! combined function `f(svr, ts) = svr + w·Σ idf(t)·ts(d,t)` and support
//! both conjunctive and disjunctive modes.
//!
//! Query processing is Algorithm 3 with the chunk-boundary SVR upper bound
//! replaced by the Score-Threshold bound: at merge position `listScore`,
//! no unseen document's current SVR score can exceed
//! `thresholdValueOf(listScore)` (Lemma 1.2), so the stopping rule becomes
//! `f(thresholdValueOf(listScore), termScoreBound) ≤ resultHeap.minScore(k)`.

use std::collections::{HashMap, HashSet};

use parking_lot::RwLock;
use svr_text::postings::TermScoredPosting;
use svr_text::unquantize_term_score;

use crate::aux_table::{ListScoreEntry, ListScoreTable};
use crate::config::IndexConfig;
use crate::cursor::{CursorBackend, MergeState};
use crate::error::Result;
use crate::long_list::{invert_corpus, posting_term_score, ListFormat, LongListStore};
use crate::merge::{Candidate, UnionCursor, UnionResume};
use crate::methods::base::{MethodBase, ShardContext};
use crate::methods::{store_names, Method, MethodKind, ScoreMap};
use crate::short_list::{Op, PostingPos, ShortLists, ShortOrder};
use crate::types::{DocId, Document, Query, Score, TermId};

/// Per-term fancy-list metadata (same role as in Chunk-TermScore).
#[derive(Debug, Clone, Copy, Default)]
struct FancyMeta {
    min_ts: u16,
    complete: bool,
    inserted_max: u16,
}

impl FancyMeta {
    fn bound(&self) -> u16 {
        let base = if self.complete { 0 } else { self.min_ts };
        base.max(self.inserted_max)
    }
}

/// The Score-Threshold-TermScore method.
pub(crate) struct ScoreThresholdTermMethod {
    base: MethodBase,
    config: IndexConfig,
    long: LongListStore,
    short: ShortLists,
    fancy: LongListStore,
    list_score: ListScoreTable,
    fancy_meta: RwLock<HashMap<TermId, FancyMeta>>,
    /// Docs whose content changed since the last offline merge; their fancy
    /// postings cannot be trusted in phase 1 (see Chunk-TermScore).
    content_dirty: RwLock<HashSet<DocId>>,
    /// Durable shard metadata: per-term `(min_ts, complete)` at build/merge
    /// time and content-dirty markers, mirroring Chunk-TermScore.
    meta: crate::durable::MetaTable,
}

/// Select the fancy list exactly as Chunk-TermScore does.
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

impl ScoreThresholdTermMethod {
    fn list_state(&self, doc: DocId, fallback_score: Score) -> Result<ListScoreEntry> {
        match self.list_score.get(doc)? {
            Some(entry) => Ok(entry),
            None => Ok(ListScoreEntry {
                l_score: fallback_score,
                in_short_list: false,
            }),
        }
    }

    fn widen_fancy_bound(&self, term: TermId, ts: u16) {
        let mut meta = self.fancy_meta.write();
        let m = meta.entry(term).or_default();
        m.inserted_max = m.inserted_max.max(ts);
    }

    fn fancy_bound(&self, term: TermId) -> f64 {
        let meta = self.fancy_meta.read();
        unquantize_term_score(meta.get(&term).map(|m| m.bound()).unwrap_or(0))
    }
}

impl CursorBackend for ScoreThresholdTermMethod {
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

    /// SVR score resolution exactly as in Score-Threshold, plus the
    /// matched term-score contributions.
    fn resolve(&self, candidate: &Candidate, idfs: &[f64]) -> Result<Option<Score>> {
        let PostingPos::ByScore(list_score) = candidate.pos else {
            unreachable!("score-threshold-term candidates are score-ordered");
        };
        let svr = if candidate.all_short() {
            self.base.score_table.score_of(candidate.doc)?
        } else {
            match self.list_score.get(candidate.doc)? {
                None => list_score,
                Some(entry) if !entry.in_short_list => {
                    self.base.score_table.score_of(candidate.doc)?
                }
                Some(_) => return Ok(None), // superseded by a short occurrence
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

    /// Lemma 1.2: `thresholdValueOf(listScore)` bounds any unresolved
    /// doc's current SVR score.
    fn svr_bound(&self, pos: Option<PostingPos>) -> Score {
        match pos {
            Some(PostingPos::ByScore(s)) => self.config.threshold_value_of(s),
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

impl Method for ScoreThresholdTermMethod {
    const KIND: MethodKind = MethodKind::ScoreThresholdTermScore;
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
    ) -> Result<ScoreThresholdTermMethod> {
        let base = MethodBase::with_context(ctx, config)?;
        base.bulk_load(docs, scores)?;
        let long_store = base.create_store(store_names::LONG, config.long_cache_pages);
        let short_store = base.create_store(store_names::SHORT, config.small_cache_pages);
        let aux_store = base.create_store(store_names::AUX, config.small_cache_pages);
        let fancy_store = base.create_store(store_names::FANCY, config.small_cache_pages);
        let meta_store = base.create_store(store_names::META, config.small_cache_pages);
        let long = LongListStore::create_in(
            long_store,
            ListFormat::Score { with_scores: true },
            config.codec,
            base.durable,
        )?;
        let short = ShortLists::create_in(short_store, ShortOrder::ByScoreDesc, base.durable)?;
        let fancy = LongListStore::create_in(
            fancy_store,
            ListFormat::Id { with_scores: true },
            config.codec,
            base.durable,
        )?;
        let list_score = ListScoreTable::create_in(aux_store, base.durable)?;
        let meta_table = crate::durable::MetaTable::create(meta_store, base.durable)?;

        let mut fancy_meta = HashMap::new();
        for (term, postings) in invert_corpus(docs) {
            let mut rows: Vec<(f64, DocId, u16)> = postings
                .iter()
                .map(|p| (MethodBase::initial_score(scores, p.doc), p.doc, p.tscore))
                .collect();
            rows.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
            long.put_score_list(term, &rows)?;

            let (fancy_postings, meta) = build_fancy(&postings, config.fancy_size);
            fancy.put_id_list(term, &fancy_postings)?;
            fancy_meta.insert(term, meta);
        }
        meta_table.put_fancy_meta(fancy_meta.iter().map(|(&t, m)| (t, (m.min_ts, m.complete))))?;
        Ok(ScoreThresholdTermMethod {
            base,
            config: config.clone(),
            long,
            short,
            fancy,
            list_score,
            fancy_meta: RwLock::new(fancy_meta),
            content_dirty: RwLock::new(HashSet::new()),
            meta: meta_table,
        })
    }

    /// Reattach a durable shard from its recovered stores (see
    /// [`crate::open_index_at`]) — structures reopen, fancy metadata and
    /// content-dirty markers reload, and the insert-time bound widening is
    /// re-derived from the short lists (soundly looser, never wrong).
    fn open_in(ctx: ShardContext, config: &IndexConfig) -> Result<ScoreThresholdTermMethod> {
        let base = MethodBase::open_with_context(ctx, config)?;
        let long = LongListStore::open(
            base.create_store(store_names::LONG, config.long_cache_pages),
            ListFormat::Score { with_scores: true },
            config.codec,
        )?;
        let short = ShortLists::open(
            base.create_store(store_names::SHORT, config.small_cache_pages),
            ShortOrder::ByScoreDesc,
        )?;
        let fancy = LongListStore::open(
            base.create_store(store_names::FANCY, config.small_cache_pages),
            ListFormat::Id { with_scores: true },
            config.codec,
        )?;
        let list_score =
            ListScoreTable::open(base.create_store(store_names::AUX, config.small_cache_pages))?;
        let meta_table = crate::durable::MetaTable::open(
            base.create_store(store_names::META, config.small_cache_pages),
        )?;
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
        Ok(ScoreThresholdTermMethod {
            base,
            config: config.clone(),
            long,
            short,
            fancy,
            list_score,
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

    /// Algorithm 1, with the document's stored term scores replicated into
    /// the short postings (as for Chunk-TermScore).
    fn update_score(&self, doc: DocId, new_score: Score) -> Result<()> {
        let old_score = self.base.current_score(doc)?;
        self.base.score_table.set(doc, new_score)?;
        let entry = self.list_state(doc, old_score)?;
        if self.list_score.get(doc)?.is_none() {
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
            let max_tf = terms.iter().map(|&(_, tf)| tf).max().unwrap_or(0);
            for (term, tf) in terms {
                if entry.in_short_list {
                    self.short
                        .delete(term, PostingPos::ByScore(entry.l_score), doc)?;
                }
                let ts = posting_term_score(tf, max_tf);
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
        }
        Ok(())
    }

    /// Algorithm 3 over score-ordered lists, as an any-k enumeration:
    /// phase 1 (fancy-list merge) runs at open time; phase 2 is the
    /// suspendable score-ordered merge driven by [`crate::cursor`].
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
        let max_tf = doc.max_tf();
        for &(term, tf) in &doc.terms {
            let ts = posting_term_score(tf, max_tf);
            self.short
                .put(term, PostingPos::ByScore(score), doc.id, Op::Add, ts)?;
            self.widen_fancy_bound(term, ts);
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
        // Fancy bounds widened by the insertion stay widened: they are
        // upper bounds, looser but never wrong. A missing ListScore entry
        // means a concurrent merge folded the insert away (merges clear
        // ListScore) — the helper's fallback covers it.
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
        let new_meta = crate::maintenance::rebuild_score_term_lists(
            &self.base,
            &self.long,
            &self.fancy,
            self.config.fancy_size,
        )?;
        self.meta
            .put_fancy_meta(new_meta.iter().map(|(&t, &m)| (t, m)))?;
        self.meta.clear_dirty()?;
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
        self.list_score.clear()
    }
}
