//! Shared state and bookkeeping for every index method: the Score table
//! (which also holds the deletion tombstones), the forward doc store and
//! live document-frequency statistics (for the term-score methods).
//!
//! A method instance is always **one shard** of an index (see
//! [`crate::methods::index`]); the paper's single-partition layout is the
//! one-shard case. Shards share one [`StorageEnv`] (store names are
//! prefixed per shard when there is more than one) and one [`CorpusStats`]
//! — document frequencies and the live document count are collection-wide
//! so the term-score methods compute the same IDF weights at any shard
//! count — while the Score table, forward index and tombstones are per
//! shard, so score writes in different shards never contend.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use svr_storage::{StorageEnv, Store};
use svr_text::{idf, unquantize_term_score};

use crate::config::IndexConfig;
use crate::doc_store::DocStore;
use crate::error::{check_score, CoreError, Result};
use crate::long_list::posting_term_score;
use crate::merge::Candidate;
use crate::methods::{store_names, IndexLocation};
use crate::score_table::ScoreTable;
use crate::short_list::{Op, PostingPos, ShortLists};
use crate::types::{DocId, Document, Score, TermId};

/// `(term, tscore)` of a document's `(term, tf)` rows: the quantized
/// normalized TF for term-scored lists, `0` without term scores (and then
/// no max-TF pass).
pub(crate) fn term_scores<const TERM_SCORES: bool>(
    terms: &[(TermId, u32)],
) -> impl Iterator<Item = (TermId, u16)> + '_ {
    let max_tf = if TERM_SCORES {
        terms.iter().map(|&(_, tf)| tf).max().unwrap_or(0)
    } else {
        0
    };
    terms.iter().map(move |&(term, tf)| {
        let ts = if TERM_SCORES {
            posting_term_score(tf, max_tf)
        } else {
            0
        };
        (term, ts)
    })
}

/// Collection-wide statistics shared by every shard of one index: live
/// document frequencies and the live document count, from which the
/// term-score methods compute IDF. Internally synchronized — shards update
/// it concurrently under their own writer locks.
#[derive(Default)]
pub(crate) struct CorpusStats {
    df: RwLock<HashMap<TermId, u64>>,
    num_docs: AtomicU64,
}

impl CorpusStats {
    /// Snapshot of the collection-wide `(term, df)` statistics, sorted by
    /// term id.
    pub fn term_dfs(&self) -> Vec<(TermId, u64)> {
        let df = self.df.read();
        let mut out: Vec<(TermId, u64)> = df.iter().map(|(&t, &c)| (t, c)).collect();
        out.sort_unstable_by_key(|&(t, _)| t);
        out
    }

    /// The collection-wide live document count.
    pub fn num_docs(&self) -> u64 {
        self.num_docs.load(Ordering::Relaxed)
    }
}

/// Where a method instance lives: its storage environment, the shared
/// corpus statistics, the store-name prefix carving out this shard's
/// region of the environment, and whether its structures are **durable**
/// (reopenable after a crash or restart via the method's `open_in` path).
pub(crate) struct ShardContext {
    pub env: Arc<StorageEnv>,
    pub stats: Arc<CorpusStats>,
    pub prefix: String,
    pub durable: bool,
}

impl ShardContext {
    /// Context for shard `shard` of the `num_shards`-way index located at
    /// `loc`, sharing `stats`. A one-shard index names its stores directly
    /// under `loc.prefix` (`<prefix>score` — the paper's single-partition
    /// layout, and what existing unsharded databases hold on disk); shard
    /// `s` of a partitioned index lives under `<prefix>shard-<s>/`.
    pub fn shard(
        loc: &IndexLocation,
        stats: &Arc<CorpusStats>,
        shard: usize,
        num_shards: usize,
        durable: bool,
    ) -> ShardContext {
        let prefix = if num_shards == 1 {
            loc.prefix.clone()
        } else {
            format!("{}{}{shard}/", loc.prefix, store_names::SHARD_PREFIX)
        };
        ShardContext {
            env: loc.env.clone(),
            stats: stats.clone(),
            prefix,
            durable,
        }
    }
}

/// Common per-shard state.
pub(crate) struct MethodBase {
    env: Arc<StorageEnv>,
    /// Store-name prefix of this shard's region in `env`.
    prefix: String,
    /// True when this shard's structures are reopenable (created through
    /// the durable create paths; see [`crate::durable`]).
    pub durable: bool,
    pub score_table: ScoreTable,
    pub doc_store: DocStore,
    /// Collection-wide df / doc-count statistics (shared across shards).
    stats: Arc<CorpusStats>,
    /// Live documents in *this* shard (diagnostics; the IDF denominator is
    /// the shared collection-wide count).
    local_docs: AtomicU64,
    pub term_weight: f64,
    /// Candidate-pool cap for cursors opened on this shard
    /// (`IndexConfig::cursor_pool_cap`; 0 = unbounded).
    pub pool_cap: usize,
}

impl MethodBase {
    /// Create the shared structures of one shard inside its context.
    pub fn with_context(ctx: ShardContext, config: &IndexConfig) -> Result<MethodBase> {
        let ShardContext {
            env,
            stats,
            prefix,
            durable,
        } = ctx;
        let score_store = env.create_store(
            &format!("{prefix}{}", store_names::SCORE),
            config.small_cache_pages,
        );
        let docs_store = env.create_store(
            &format!("{prefix}{}", store_names::DOCS),
            config.small_cache_pages,
        );
        Ok(MethodBase {
            env,
            prefix,
            durable,
            score_table: ScoreTable::create_in(score_store, durable)?,
            doc_store: DocStore::create_in(docs_store, durable)?,
            stats,
            local_docs: AtomicU64::new(0),
            term_weight: config.term_weight,
            pool_cap: config.cursor_pool_cap,
        })
    }

    /// Reattach a durable shard: reopen the Score table (one scan of its
    /// tree loads every row, tombstones included, and seeds the max-score
    /// bound) and the forward index from their recovered stores, then
    /// rebuild the in-memory counts from the loaded Score rows — the
    /// live-document count, and the shard's contribution to the shared
    /// collection-wide df / num_docs statistics from the forward index.
    /// No base row is touched and nothing is re-tokenized.
    pub fn open_with_context(ctx: ShardContext, config: &IndexConfig) -> Result<MethodBase> {
        let ShardContext {
            env,
            stats,
            prefix,
            durable: _,
        } = ctx;
        let score_store = env.create_store(
            &format!("{prefix}{}", store_names::SCORE),
            config.small_cache_pages,
        );
        let docs_store = env.create_store(
            &format!("{prefix}{}", store_names::DOCS),
            config.small_cache_pages,
        );
        let (score_table, rows) = ScoreTable::open(score_store)?;
        let doc_store = DocStore::open(docs_store)?;
        let mut live = 0u64;
        {
            let mut df = stats.df.write();
            for (doc, entry) in rows {
                if entry.deleted {
                    continue;
                }
                live += 1;
                if let Some(terms) = doc_store.get(doc)? {
                    for (term, _) in terms {
                        *df.entry(term).or_insert(0) += 1;
                    }
                }
            }
        }
        stats.num_docs.fetch_add(live, Ordering::Relaxed);
        Ok(MethodBase {
            env,
            prefix,
            durable: true,
            score_table,
            doc_store,
            stats,
            local_docs: AtomicU64::new(live),
            term_weight: config.term_weight,
            pool_cap: config.cursor_pool_cap,
        })
    }

    /// Create (or fetch) a store in this shard's region of the environment.
    pub fn create_store(&self, name: &str, cache_pages: usize) -> Arc<Store> {
        self.env
            .create_store(&format!("{}{name}", self.prefix), cache_pages)
    }

    /// Fetch a previously created store of this shard's region.
    pub fn store(&self, name: &str) -> Option<Arc<Store>> {
        self.env.store(&format!("{}{name}", self.prefix))
    }

    /// Bulk-load documents and scores at build time.
    pub fn bulk_load(&self, docs: &[Document], scores: &HashMap<DocId, Score>) -> Result<()> {
        let mut df = self.stats.df.write();
        for doc in docs {
            self.score_table
                .set(doc.id, Self::initial_score(scores, doc.id))?;
            self.doc_store.put(doc)?;
            for term in doc.term_ids() {
                *df.entry(term).or_insert(0) += 1;
            }
        }
        // Accumulate (not store): sibling shards load into the same shared
        // counter.
        self.stats
            .num_docs
            .fetch_add(docs.len() as u64, Ordering::Relaxed);
        self.local_docs.store(docs.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Score for `doc` stored in the score map at build time, in the form
    /// the Score table stores it ([`check_score`]; the build's
    /// [`MethodBase::bulk_load`] rejects an invalid one first).
    pub fn initial_score(scores: &HashMap<DocId, Score>, doc: DocId) -> Score {
        let score = scores.get(&doc).copied().unwrap_or(0.0);
        check_score(score).unwrap_or(score)
    }

    /// True if the document is tombstoned.
    pub fn is_deleted(&self, doc: DocId) -> bool {
        self.score_table.is_deleted(doc)
    }

    /// Live documents in this shard.
    pub fn live_docs(&self) -> u64 {
        self.local_docs.load(Ordering::Relaxed)
    }

    /// IDF weight of a term under the live collection-wide df statistics.
    pub fn idf(&self, term: TermId) -> f64 {
        let df_count = self.stats.df.read().get(&term).copied().unwrap_or(0);
        idf(self.stats.num_docs.load(Ordering::Relaxed), df_count)
    }

    /// IDF weights of a query's terms.
    pub fn idfs(&self, terms: &[TermId]) -> Vec<f64> {
        terms.iter().map(|&t| self.idf(t)).collect()
    }

    /// The combined scoring function `f(svr, Σ term scores)` of §4.3.3.
    #[inline]
    pub fn combine(&self, svr: Score, ts_sum: f64) -> Score {
        svr + self.term_weight * ts_sum
    }

    /// `f(svr, Σ idf·ts)` over a candidate's matched postings: the ranking
    /// score of a term-scored method.
    pub fn combine_matches(&self, svr: Score, candidate: &Candidate, idfs: &[f64]) -> Score {
        let mut ts_sum = 0.0;
        for (i, matched) in candidate.matches.iter().enumerate() {
            if let Some(mt) = matched {
                ts_sum += idfs[i] * unquantize_term_score(mt.tscore);
            }
        }
        self.combine(svr, ts_sum)
    }

    /// Validate and register a brand-new document; returns an error if the
    /// id is already in use by a live or deleted document, else the
    /// validated score (see [`check_score`]) the caller must place the
    /// document by.
    pub fn register_insert(&self, doc: &Document, score: Score) -> Result<Score> {
        let score = check_score(score)?;
        if self.score_table.get(doc.id).is_some() {
            return Err(CoreError::DuplicateDocument(doc.id));
        }
        self.score_table.set(doc.id, score)?;
        self.doc_store.put(doc)?;
        let mut df = self.stats.df.write();
        for term in doc.term_ids() {
            *df.entry(term).or_insert(0) += 1;
        }
        self.stats.num_docs.fetch_add(1, Ordering::Relaxed);
        self.local_docs.fetch_add(1, Ordering::Relaxed);
        Ok(score)
    }

    /// Tombstone a document.
    pub fn register_delete(&self, doc: DocId) -> Result<()> {
        if self.is_deleted(doc) {
            return Err(CoreError::UnknownDocument(doc));
        }
        self.score_table.mark_deleted(doc)?;
        let terms = self.doc_store.term_ids(doc)?;
        let mut df = self.stats.df.write();
        for term in terms {
            if let Some(count) = df.get_mut(&term) {
                *count = count.saturating_sub(1);
            }
        }
        self.stats.num_docs.fetch_sub(1, Ordering::Relaxed);
        self.local_docs.fetch_sub(1, Ordering::Relaxed);
        Ok(())
    }

    /// Exact inverse of [`MethodBase::register_delete`] for batch rollback:
    /// revive a tombstoned document. Tombstoning keeps the Score-table row
    /// (with its last live score), the forward entry and — for the
    /// tombstone-based methods — the postings, so reviving is pure
    /// bookkeeping: clear the flag and re-count the document. Returns the
    /// revived score.
    pub fn register_undelete(&self, doc: DocId) -> Result<Score> {
        if !self.is_deleted(doc) {
            return Err(CoreError::UnknownDocument(doc));
        }
        let entry = self
            .score_table
            .get(doc)
            .ok_or(CoreError::UnknownDocument(doc))?;
        // `set` stores the row live (deleted flag cleared).
        self.score_table.set(doc, entry.score)?;
        let terms = self.doc_store.term_ids(doc)?;
        {
            let mut df = self.stats.df.write();
            for term in terms {
                *df.entry(term).or_insert(0) += 1;
            }
        }
        self.stats.num_docs.fetch_add(1, Ordering::Relaxed);
        self.local_docs.fetch_add(1, Ordering::Relaxed);
        Ok(entry.score)
    }

    /// Exact inverse of [`MethodBase::register_insert`] for batch rollback:
    /// remove the document's bookkeeping entirely (unlike a deletion, which
    /// tombstones and keeps the id reserved — a rolled-back insert must
    /// leave the id free for re-use). Returns the stored `(term, tf)` rows
    /// so the caller can remove the postings its insertion added. Only
    /// sound while those postings are exactly the ones `insert_document`
    /// added; the engine's reverse-order undo replay guarantees that.
    pub fn unregister_insert(&self, doc: DocId) -> Result<Vec<(TermId, u32)>> {
        if self.is_deleted(doc) {
            return Err(CoreError::UnknownDocument(doc));
        }
        let terms = self
            .doc_store
            .get(doc)?
            .ok_or(CoreError::UnknownDocument(doc))?;
        self.score_table.remove(doc)?;
        self.doc_store.delete(doc)?;
        {
            let mut df = self.stats.df.write();
            for &(term, _) in &terms {
                if let Some(count) = df.get_mut(&term) {
                    *count = count.saturating_sub(1);
                }
            }
        }
        self.stats.num_docs.fetch_sub(1, Ordering::Relaxed);
        self.local_docs.fetch_sub(1, Ordering::Relaxed);
        Ok(terms)
    }

    /// Shared body of `SearchIndex::uninsert_document` for the short-list
    /// methods: remove the document's bookkeeping and the short postings
    /// its insertion added at `pos`. Returns `true` when fully uninserted
    /// (the caller should drop its list-state entry for the doc).
    ///
    /// When `in_short_list` is false the insert's postings were already
    /// merged into the long lists by concurrent maintenance (the offline
    /// merge deliberately takes no table lock, so it can land between an
    /// in-flight transaction's insert and its rollback). Long postings
    /// cannot be surgically removed, so the rollback degrades to the
    /// tombstoning delete — queries still see no trace of the document,
    /// only the id stays reserved like any deleted id — and returns
    /// `false` (the caller must keep its list-state entry: the tombstoned
    /// doc's long postings still resolve through it).
    pub fn uninsert_postings_at(
        &self,
        short: &crate::short_list::ShortLists,
        doc: DocId,
        pos: crate::short_list::PostingPos,
        in_short_list: bool,
    ) -> Result<bool> {
        if !in_short_list {
            self.register_delete(doc)?;
            return Ok(false);
        }
        let terms = self.unregister_insert(doc)?;
        for (term, _) in terms {
            short.delete(term, pos, doc)?;
        }
        Ok(true)
    }

    /// Replace a document's stored content; returns `(old_terms, new_terms)`
    /// as `(term, tf)` lists for the caller's posting maintenance.
    #[allow(clippy::type_complexity)]
    pub fn register_content(
        &self,
        doc: &Document,
    ) -> Result<(Vec<(TermId, u32)>, Vec<(TermId, u32)>)> {
        if self.is_deleted(doc.id) {
            return Err(CoreError::UnknownDocument(doc.id));
        }
        let old = self
            .doc_store
            .get(doc.id)?
            .ok_or(CoreError::UnknownDocument(doc.id))?;
        self.doc_store.put(doc)?;
        let old_set: HashSet<TermId> = old.iter().map(|&(t, _)| t).collect();
        let new_set: HashSet<TermId> = doc.term_ids().collect();
        let mut df = self.stats.df.write();
        for term in new_set.difference(&old_set) {
            *df.entry(*term).or_insert(0) += 1;
        }
        for term in old_set.difference(&new_set) {
            if let Some(count) = df.get_mut(term) {
                *count = count.saturating_sub(1);
            }
        }
        Ok((old, doc.terms.clone()))
    }

    /// Appendix A.1 for the short-list methods: replace `doc`'s content and
    /// post the difference to `short` at the document's live list position
    /// `pos`. New terms get ADD postings — term-scored lists re-add *every*
    /// term, since its term score may have changed; `on_add` sees each
    /// `(term, tscore)` added. A removed term's live short posting is
    /// deleted when `in_short_list`, otherwise a REM posting tombstones the
    /// long one.
    pub fn replace_content<const TERM_SCORES: bool>(
        &self,
        short: &ShortLists,
        doc: &Document,
        pos: PostingPos,
        in_short_list: bool,
        mut on_add: impl FnMut(TermId, u16),
    ) -> Result<()> {
        let (old, new) = self.register_content(doc)?;
        let old_terms: HashSet<TermId> = old.iter().map(|&(t, _)| t).collect();
        let new_terms: HashSet<TermId> = new.iter().map(|&(t, _)| t).collect();
        for (term, ts) in term_scores::<TERM_SCORES>(&new) {
            if TERM_SCORES || !old_terms.contains(&term) {
                short.put(term, pos, doc.id, Op::Add, ts)?;
                on_add(term, ts);
            }
        }
        for &(term, _) in old.iter().filter(|(t, _)| !new_terms.contains(t)) {
            if in_short_list {
                short.delete(term, pos, doc.id)?;
            } else {
                short.put(term, pos, doc.id, Op::Rem, 0)?;
            }
        }
        Ok(())
    }

    /// Current (live) score of a doc.
    pub fn current_score(&self, doc: DocId) -> Result<Score> {
        self.score_table.score_of(doc)
    }

    /// The first step of every method's `update_score`: set a live doc's
    /// Score-table row to `new` and return `(old, new)` with `new`
    /// validated (see [`check_score`]), or return `None` and write nothing
    /// when `new` is already the stored score (an insert's own refresh, a
    /// peer's refresh that landed first).
    pub fn replace_score(&self, doc: DocId, new: Score) -> Result<Option<(Score, Score)>> {
        let old = self.current_score(doc)?;
        let new = check_score(new)?;
        if old.to_bits() == new.to_bits() {
            return Ok(None);
        }
        self.score_table.set(doc, new)?;
        Ok(Some((old, new)))
    }
}
