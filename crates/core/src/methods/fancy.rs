//! Fancy lists (Long & Suel): the term-score half of Algorithm 3, shared by
//! the two term-scored threshold methods — Chunk-TermScore (§4.3.3) and its
//! Score-Threshold generalization.
//!
//! Each term keeps, beside its long list, a doc-ordered *fancy list* of its
//! `fancy_size` highest-term-score postings plus `(minF, complete)`
//! metadata, so the term score of any document *outside* the fancy list is
//! bounded. Query processing:
//! 1. merge the fancy lists: documents present in *all* of them become
//!    exact tentative results, documents present in *some* go to the
//!    `remainList` ([`FancyLists::open_cursor`]);
//! 2. merge short ∪ long lists as the base method does, removing
//!    encountered documents from the `remainList`;
//! 3. at each stopping check, prune the `remainList` with the combined upper
//!    bound `f(svr bound, Σ idf·fancy bound)` and stop once it is empty and
//!    no unseen document can beat the secured top k (driven by
//!    [`crate::cursor`], with [`FancyLists::bound`] as the term-score part).

use std::collections::{HashMap, HashSet};

use parking_lot::RwLock;
use svr_text::postings::TermScoredPosting;
use svr_text::unquantize_term_score;

use crate::config::IndexConfig;
use crate::cursor::MergeState;
use crate::durable::MetaTable;
use crate::error::Result;
use crate::long_list::{ListFormat, LongListStore};
use crate::maintenance::{write_fancy_lists, Inversion};
use crate::methods::base::MethodBase;
use crate::methods::store_names;
use crate::short_list::ShortLists;
use crate::types::{DocId, Query, TermId};

/// Fancy lists are doc-ordered and carry term scores.
const FORMAT: ListFormat = ListFormat::Id { with_scores: true };

/// Per-term fancy-list metadata.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FancyMeta {
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

/// Select the fancy list: the `fancy_size` postings with the highest term
/// scores (ties by doc id), returned in doc-id order together with metadata.
pub(crate) fn build_fancy(
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

/// One shard's fancy lists and the in-memory state bounding them. The
/// durable half — per-term `(minF, complete)` and content-dirty markers —
/// lives in the owning method's [`MetaTable`], passed in where it is read
/// or written.
pub(crate) struct FancyLists {
    lists: LongListStore,
    meta: RwLock<HashMap<TermId, FancyMeta>>,
    /// Docs whose content changed since the last offline merge: their fancy
    /// postings may list terms they no longer contain (or stale term
    /// scores), so phase 1 must not trust them. Their live postings are
    /// found in phase 2, and [`FancyLists::widen`] keeps the stopping bound
    /// sound for their new term scores.
    content_dirty: RwLock<HashSet<DocId>>,
}

impl FancyLists {
    /// Create a new shard's (empty) fancy store.
    pub fn create(base: &MethodBase, config: &IndexConfig) -> Result<FancyLists> {
        let store = base.create_store(store_names::FANCY, config.small_cache_pages);
        Ok(FancyLists {
            lists: LongListStore::create_in(store, FORMAT, config.codec, base.durable)?,
            meta: RwLock::new(HashMap::new()),
            content_dirty: RwLock::new(HashSet::new()),
        })
    }

    /// Reattach a durable shard's fancy lists: the metadata and the
    /// content-dirty set reload from `meta`; the insert-time widening is
    /// re-derived from the short lists' surviving `Add` postings (an
    /// over-approximation is sound — bounds only get looser).
    pub fn open(
        base: &MethodBase,
        config: &IndexConfig,
        meta: &MetaTable,
        short: &ShortLists,
    ) -> Result<FancyLists> {
        let lists = LongListStore::open(
            base.create_store(store_names::FANCY, config.small_cache_pages),
            FORMAT,
            config.codec,
        )?;
        let mut fancy_meta: HashMap<TermId, FancyMeta> = meta
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
        Ok(FancyLists {
            lists,
            meta: RwLock::new(fancy_meta),
            content_dirty: RwLock::new(meta.dirty_docs()?),
        })
    }

    /// Write every term's fancy list from `inv` and persist its `(minF,
    /// complete)` to `meta` (build and merge). Every document's fancy
    /// postings are current again, and the insert-time widening is cleared.
    pub fn write(&self, inv: &Inversion, fancy_size: usize, meta: &MetaTable) -> Result<()> {
        let fresh = write_fancy_lists(&self.lists, inv, fancy_size)?;
        meta.put_fancy_meta(fresh.iter().map(|(&t, m)| (t, (m.min_ts, m.complete))))?;
        meta.clear_dirty()?;
        *self.meta.write() = fresh;
        self.content_dirty.write().clear();
        Ok(())
    }

    /// Record that a posting with term score `ts` entered the index outside
    /// the fancy lists (insertion / content update): the stopping bound must
    /// cover it.
    pub fn widen(&self, term: TermId, ts: u16) {
        let mut meta = self.meta.write();
        let m = meta.entry(term).or_default();
        m.inserted_max = m.inserted_max.max(ts);
    }

    /// Upper bound on the term score of any doc outside `term`'s fancy list.
    pub fn bound(&self, term: TermId) -> f64 {
        let meta = self.meta.read();
        unquantize_term_score(meta.get(&term).map(|m| m.bound()).unwrap_or(0))
    }

    /// A content update: `doc`'s fancy postings are untrustworthy until the
    /// next merge.
    pub fn mark_dirty(&self, meta: &MetaTable, doc: DocId) -> Result<()> {
        meta.mark_dirty(doc)?;
        self.content_dirty.write().insert(doc);
        Ok(())
    }

    /// Algorithm 3 as an any-k enumeration: phase 1 (fancy-list merge, lines
    /// 8-9) runs here, at open time, and pre-fills the cursor's pool and
    /// `remainList`; phase 2 is the base method's suspendable merge.
    pub fn open_cursor(&self, base: &MethodBase, query: &Query) -> Result<MergeState> {
        let m = query.terms.len();
        let mut state = MergeState::new(m, base.idfs(&query.terms));

        let mut fancy_docs: HashMap<DocId, Vec<Option<f64>>> = HashMap::new();
        for (i, &term) in query.terms.iter().enumerate() {
            let mut cursor = self.lists.cursor(term);
            while let Some(p) = cursor.next_posting()? {
                fancy_docs.entry(p.doc).or_insert_with(|| vec![None; m])[i] =
                    Some(state.idfs[i] * unquantize_term_score(p.tscore));
            }
        }
        let content_dirty = self.content_dirty.read();
        for (doc, known) in fancy_docs {
            if base.is_deleted(doc) || content_dirty.contains(&doc) {
                continue;
            }
            if known.iter().all(Option::is_some) {
                // In every fancy list: an exact (SVR from the Score table,
                // term scores from the fancy postings) result.
                let svr = base.score_table.score_of(doc)?;
                let ts_sum: f64 = known.iter().flatten().sum();
                state.admit(doc, base.combine(svr, ts_sum));
            } else {
                state.remain.insert(doc, known);
            }
        }
        drop(content_dirty);
        Ok(state)
    }
}
