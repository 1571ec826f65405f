//! The Score method (§4.2.2): postings ordered by decreasing score.
//!
//! Queries terminate as soon as the top-k is secure (the inverted lists are
//! already in result order), but a score update must rewrite the postings of
//! *every distinct term of the document* — "likely to be very expensive
//! because documents usually have hundreds to thousands of terms".
//!
//! Because its long list is updated in place, it is stored as a clustered
//! B+-tree (as in the paper's BerkeleyDB implementation), not as an
//! immutable blob — which is also why its Table 1 footprint is the largest.

use crate::config::IndexConfig;
use crate::cursor::CursorBackend;
use crate::error::Result;
use crate::long_list::LongCursor;
use crate::maintenance::Inversion;
use crate::merge::{Candidate, UnionCursor, UnionResume};
use crate::methods::base::{MethodBase, ShardContext};
use crate::methods::{store_names, Method, MethodKind, ScoreMap};
use crate::short_list::{Op, PostingPos, ShortLists, ShortOrder};
use crate::types::{DocId, Document, Score, TermId};

/// The Score method.
pub(crate) struct ScoreMethod {
    base: MethodBase,
    /// The clustered, score-ordered long list: key `(term, score desc, doc)`.
    /// Structurally identical to a score-ordered short list, so the type is
    /// reused; every posting is an `Add`.
    list: ShortLists,
}

impl CursorBackend for ScoreMethod {
    fn base(&self) -> &MethodBase {
        &self.base
    }

    fn stream(&self, term: TermId, resume: &UnionResume) -> Result<UnionCursor<'_>> {
        Ok(UnionCursor::resume(
            LongCursor::empty(),
            self.list.cursor_after(term, resume.short_resume_key())?,
            resume,
        ))
    }

    fn resolve(&self, candidate: &Candidate, _idfs: &[f64]) -> Result<Option<Score>> {
        let PostingPos::ByScore(score) = candidate.pos else {
            unreachable!("score method produces score-ordered candidates");
        };
        // The list scores are always current: the position is the score.
        Ok(Some(score))
    }

    fn svr_bound(&self, pos: Option<PostingPos>) -> Score {
        // Candidates arrive in descending current-score order.
        match pos {
            Some(PostingPos::ByScore(s)) => s,
            Some(_) => f64::INFINITY,
            None => f64::NEG_INFINITY,
        }
    }
}

impl Method for ScoreMethod {
    const KIND: MethodKind = MethodKind::Score;
    const STORES: &'static [&'static str] =
        &[store_names::SCORE, store_names::DOCS, store_names::LONG];

    fn build_in(
        ctx: ShardContext,
        docs: &[Document],
        scores: &ScoreMap,
        config: &IndexConfig,
    ) -> Result<ScoreMethod> {
        let base = MethodBase::with_context(ctx, config)?;
        base.bulk_load(docs, scores)?;
        let long_store = base.create_store(store_names::LONG, config.long_cache_pages);
        let list = ShortLists::create_in(long_store, ShortOrder::ByScoreDesc, base.durable)?;
        for (term, postings) in Inversion::of_corpus(docs, scores)?.lists {
            for p in postings {
                let score = MethodBase::initial_score(scores, p.doc);
                list.put(term, PostingPos::ByScore(score), p.doc, Op::Add, p.tscore)?;
            }
        }
        Ok(ScoreMethod { base, list })
    }

    /// Reattach a durable shard from its recovered stores (see
    /// [`crate::open_index_at`]). The clustered list is a single B+-tree,
    /// so reopening it is the whole job.
    fn open_in(ctx: ShardContext, config: &IndexConfig) -> Result<ScoreMethod> {
        let base = MethodBase::open_with_context(ctx, config)?;
        let list = ShortLists::open(
            base.create_store(store_names::LONG, config.long_cache_pages),
            ShortOrder::ByScoreDesc,
        )?;
        Ok(ScoreMethod { base, list })
    }

    fn long_epoch(&self) -> u64 {
        // The clustered list is a B+-tree resumed by key; there is no page
        // chain to invalidate.
        0
    }

    fn list_sizes(&self) -> (u64, u64, u64) {
        // The clustered tree's disk footprint, including B+-tree overhead —
        // the paper's Table 1 charges the Score method for exactly this. It
        // is not posting-addressed and has no short lists.
        let bytes = self
            .base
            .store(store_names::LONG)
            .map(|s| s.disk().num_pages() * s.page_size() as u64)
            .unwrap_or(0);
        (bytes, 0, 0)
    }

    fn update_score(&self, doc: DocId, new_score: Score) -> Result<()> {
        let Some((old, new_score)) = self.base.replace_score(doc, new_score)? else {
            return Ok(());
        };
        // Rewrite the posting of every distinct term of the document.
        let terms = self.base.doc_store.get(doc)?.unwrap_or_default();
        for (term, _) in terms {
            if let Some((op, tscore)) = self.list.get(term, PostingPos::ByScore(old), doc)? {
                self.list.delete(term, PostingPos::ByScore(old), doc)?;
                self.list
                    .put(term, PostingPos::ByScore(new_score), doc, op, tscore)?;
            }
        }
        Ok(())
    }

    fn insert_document(&self, doc: &Document, score: Score) -> Result<()> {
        let score = self.base.register_insert(doc, score)?;
        let max_tf = doc.max_tf();
        for &(term, tf) in &doc.terms {
            let ts = crate::long_list::posting_term_score(tf, max_tf);
            self.list
                .put(term, PostingPos::ByScore(score), doc.id, Op::Add, ts)?;
        }
        Ok(())
    }

    fn delete_document(&self, doc: DocId) -> Result<()> {
        // Remove the postings eagerly: the Score method's list is mutable
        // anyway, and tombstone checks would erode its only advantage.
        let score = self.base.current_score(doc)?;
        let terms = self.base.doc_store.get(doc)?.unwrap_or_default();
        for (term, _) in terms {
            self.list.delete(term, PostingPos::ByScore(score), doc)?;
        }
        self.base.register_delete(doc)
    }

    fn uninsert_document(&self, doc: DocId) -> Result<()> {
        let score = self.base.current_score(doc)?;
        let terms = self.base.unregister_insert(doc)?;
        for (term, _) in terms {
            self.list.delete(term, PostingPos::ByScore(score), doc)?;
        }
        Ok(())
    }

    fn undelete_document(&self, doc: DocId) -> Result<()> {
        // Deletion removed the postings eagerly: re-add them at the revived
        // score, exactly as the insertion path lays them out.
        let score = self.base.register_undelete(doc)?;
        let terms = self.base.doc_store.get(doc)?.unwrap_or_default();
        let max_tf = terms.iter().map(|&(_, tf)| tf).max().unwrap_or(1);
        for &(term, tf) in &terms {
            let ts = crate::long_list::posting_term_score(tf, max_tf);
            self.list
                .put(term, PostingPos::ByScore(score), doc, Op::Add, ts)?;
        }
        Ok(())
    }

    fn update_content(&self, doc: &Document) -> Result<()> {
        let score = self.base.current_score(doc.id)?;
        let (old, new) = self.base.register_content(doc)?;
        for (term, _) in &old {
            self.list
                .delete(*term, PostingPos::ByScore(score), doc.id)?;
        }
        let max_tf = doc.max_tf();
        let _ = new;
        for &(term, tf) in &doc.terms {
            let ts = crate::long_list::posting_term_score(tf, max_tf);
            self.list
                .put(term, PostingPos::ByScore(score), doc.id, Op::Add, ts)?;
        }
        Ok(())
    }

    fn merge_short_lists(&self) -> Result<()> {
        // The Score method has no short lists; nothing to merge.
        Ok(())
    }

    fn clear_long_cache(&self) -> Result<()> {
        // Both the page cache and the decoded-node cache must go: the
        // clustered long list is a B+-tree.
        self.list.clear_caches()
    }
}
