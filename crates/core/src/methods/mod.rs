//! The seven index methods behind one trait, one index body.
//!
//! | Method                    | Long-list order      | Score updates | Top-k queries |
//! |---------------------------|----------------------|---------------|---------------|
//! | ID                        | doc id               | O(1)          | full scan     |
//! | Score                     | score (clustered)    | very costly   | early stop    |
//! | Score-Threshold           | score + short lists  | thresholded   | bounded scan  |
//! | Chunk                     | chunk/doc + short    | thresholded   | bounded scan  |
//! | ID-TermScore              | doc id + term scores | O(1)          | full scan     |
//! | Chunk-TermScore           | chunk + fancy lists  | thresholded   | bounded scan  |
//! | Score-Threshold-TermScore | score + fancy lists  | thresholded   | bounded scan  |
//!
//! The first six are the paper's; the seventh realizes the §4.3.3 remark
//! that "the generalization for the Score-Threshold method is similar".
//!
//! ## Layout
//!
//! The methods differ in three things — the long-list layout, the bound on
//! an unseen document's score, and what a score update touches — and,
//! independently, in whether postings carry term scores. One file per
//! layout:
//!
//! * `id.rs` — doc-id order, full scans (ID);
//! * `threshold.rs` — a long list plus thresholded short lists, one body
//!   over a `Placement`: the list score (`ByScore`, Score-Threshold) or the
//!   chunk id (`ByChunk`, Chunk) a posting sits at;
//! * `score.rs` — the Score method's clustered B+-tree, updated in place.
//!
//! `IdMethod` and `ThresholdMethod` take a `const TERM_SCORES: bool`.
//! `false` is the base method; `true` is its term-scored form
//! (ID-TermScore, Score-Threshold-TermScore, Chunk-TermScore) — the same
//! body with a term score in every posting and the combined ranking
//! `f(svr, ts)`. The threshold forms add the fancy lists of `fancy.rs`
//! (`FancyLists`: phase 1 of Algorithm 3, its term-score bounds and their
//! durable metadata). The flag and the placement are type parameters, so
//! each instantiation carries only its own work.
//!
//! Each struct implements `CursorBackend` (stream, resolve, bound) and the
//! crate-private `Method` trait (build, open, and the Algorithm 1/2/3
//! bodies). Build and offline merge write lists through the same
//! per-layout writers in [`crate::maintenance`]. Everything a method does
//! *not* decide is written once in `index.rs`: `Index<M>` is a vector of
//! `N >= 1` shards — a method instance, its reader/writer lock and its
//! group-commit refresh queue — and is the crate's only [`SearchIndex`]
//! implementation. Locking, shard routing, the k-way cursor merge,
//! statistics, checkpoint gating and the cold-cache protocol live there;
//! the paper's single-partition deployment is simply `N = 1`.
//! [`build_index`], [`build_index_at`] and [`open_index_at`] map a
//! [`MethodKind`] to its method type at one dispatch site.
//!
//! ## Adding an eighth method
//!
//! A term-scored form of an existing layout is a `TERM_SCORES` branch, not
//! a new file. A new thresholded layout — a list position other than a
//! score or a chunk id — is a new `Placement` impl in `threshold.rs`
//! (position type, move rule, stopping bound, list writer). Any other
//! layout is a new struct — generic over `TERM_SCORES` if it supports term
//! scores, reusing `FancyLists` if it stops early on them — with a list
//! writer in [`crate::maintenance`] shared by its build and merge.
//! Implement `Method` (and its supertrait `CursorBackend`) for it and add
//! one dispatch arm per [`MethodKind`] it serves. Required items:
//!
//! * `KIND` — the new [`MethodKind`] variant (also add it to `ALL_EXTENDED`
//!   and `name`);
//! * `STORES` — the [`store_names`] the method creates in its shard region
//!   (drives checkpoint gating and pins the on-disk layout);
//! * `build_in` / `open_in` — create the structures from a corpus, or
//!   reattach them from recovered stores;
//! * `long_epoch` — the long-list store's structural epoch (0 without
//!   blob long lists), which tells the index when to restart a cursor;
//! * `list_sizes` — long-list bytes, long postings, short postings;
//! * `update_score`, `insert_document`, `uninsert_document`,
//!   `update_content`, `merge_short_lists` — the write-side algorithms;
//! * from `CursorBackend`: `base`, `stream`, `resolve`, `svr_bound` (plus
//!   `term_fancy_bound` / `combine` when ranking uses term scores).
//!
//! `open_cursor`, `query`, `delete_document`, `undelete_document` and
//! `clear_long_cache` have defaults that fit every tombstoning,
//! blob-long-list method.

pub(crate) mod base;
pub(crate) mod fancy;
mod id;
pub(crate) mod index;
mod score;
mod threshold;

pub use index::shard_of_doc;

use std::collections::HashMap;
use std::sync::Arc;

use svr_storage::StorageEnv;

use crate::config::IndexConfig;
use crate::cursor::{CursorBackend, MergeState, MethodCursor};
use crate::error::Result;
use crate::types::{DocId, Document, Query, Score, SearchHit, TermId};

use base::ShardContext;
use index::Index;

/// Store names used by every method inside its [`StorageEnv`], so benchmarks
/// can inspect / cold-start individual components.
pub mod store_names {
    /// Long inverted lists (blobs, or the Score method's clustered tree).
    pub const LONG: &str = "long";
    /// Short inverted lists.
    pub const SHORT: &str = "short";
    /// The Score table.
    pub const SCORE: &str = "score";
    /// Forward index (document contents).
    pub const DOCS: &str = "docs";
    /// ListScore / ListChunk table.
    pub const AUX: &str = "aux";
    /// Fancy lists (Chunk-TermScore, Score-Threshold-TermScore).
    pub const FANCY: &str = "fancy";
    /// Per-shard durable metadata (chunk boundaries, fancy-list metadata,
    /// content-dirty markers) — what a reopen reads instead of rebuilding.
    pub const META: &str = "meta";
    /// Prefix of a write shard's region: shard `s` of a partitioned index
    /// names its stores `shard-<s>/<name>` inside the shared environment.
    pub const SHARD_PREFIX: &str = "shard-";
}

/// Which index method to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodKind {
    Id,
    Score,
    ScoreThreshold,
    Chunk,
    IdTermScore,
    ChunkTermScore,
    /// The §4.3.3 generalization of Score-Threshold to combined scoring
    /// (not evaluated in the paper).
    ScoreThresholdTermScore,
}

impl MethodKind {
    /// The paper's six methods, in its presentation order.
    pub const ALL: [MethodKind; 6] = [
        MethodKind::Id,
        MethodKind::Score,
        MethodKind::ScoreThreshold,
        MethodKind::Chunk,
        MethodKind::IdTermScore,
        MethodKind::ChunkTermScore,
    ];

    /// Every implemented method, including the Score-Threshold-TermScore
    /// extension.
    pub const ALL_EXTENDED: [MethodKind; 7] = [
        MethodKind::Id,
        MethodKind::Score,
        MethodKind::ScoreThreshold,
        MethodKind::Chunk,
        MethodKind::IdTermScore,
        MethodKind::ChunkTermScore,
        MethodKind::ScoreThresholdTermScore,
    ];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            MethodKind::Id => "ID",
            MethodKind::Score => "Score",
            MethodKind::ScoreThreshold => "Score-Threshold",
            MethodKind::Chunk => "Chunk",
            MethodKind::IdTermScore => "ID-TermScore",
            MethodKind::ChunkTermScore => "Chunk-TermScore",
            MethodKind::ScoreThresholdTermScore => "Score-Threshold-TermScore",
        }
    }

    /// True for the methods that rank by SVR + term scores.
    pub fn uses_term_scores(&self) -> bool {
        matches!(
            self,
            MethodKind::IdTermScore
                | MethodKind::ChunkTermScore
                | MethodKind::ScoreThresholdTermScore
        )
    }
}

impl std::fmt::Display for MethodKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Initial `doc -> score` assignment for a build.
pub type ScoreMap = HashMap<DocId, Score>;

/// Per-shard list statistics (`EXPLAIN`, monitoring). An unsharded index
/// reports exactly one entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index (0-based).
    pub shard: usize,
    /// Live documents owned by the shard.
    pub docs: u64,
    /// Bytes of the shard's long inverted lists.
    pub long_list_bytes: u64,
    /// Postings stored in the shard's long inverted lists (`0` for the
    /// Score method, whose clustered tree is not posting-addressed) — with
    /// `long_list_bytes`, yields bytes-per-posting and the compression
    /// ratio `EXPLAIN` reports.
    pub long_postings: u64,
    /// Postings currently parked in the shard's short lists (merged away by
    /// maintenance).
    pub short_postings: u64,
}

/// Engine-wide sequence number of a score change: a later change of one
/// document carries a larger number (see [`SearchIndex::refresh_scores`]).
pub type Seq = u64;

/// Contention counters of the group-commit refresh queues, summed across
/// shards. All zeros while group-commit draining is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RefreshGroupStats {
    /// Refresh batches that went through the queue.
    pub enqueued: u64,
    /// Refresh batches applied under some lock hold (own + piggybacked).
    pub applied: u64,
    /// Write-lock holds that drained at least one batch. `applied -
    /// drain_holds` batches rode along on another writer's lock hold.
    pub drain_holds: u64,
    /// Deepest the queue ever got.
    pub max_depth: u64,
    /// Batches queued right now.
    pub depth: u64,
}

impl RefreshGroupStats {
    /// Element-wise sum (shard aggregation).
    pub fn merge(&mut self, other: &RefreshGroupStats) {
        self.enqueued += other.enqueued;
        self.applied += other.applied;
        self.drain_holds += other.drain_holds;
        self.max_depth = self.max_depth.max(other.max_depth);
        self.depth += other.depth;
    }
}

/// The common interface of all seven index methods.
///
/// All operations take `&self`: mutations serialize on the owning shard's
/// writer lock, queries share its read lock, so one index serves many
/// concurrent readers and one writer per shard.
pub trait SearchIndex: Send + Sync {
    /// Which method this is.
    fn kind(&self) -> MethodKind;

    /// Apply a document score update (the paper's Algorithm 1 for the
    /// threshold-based methods). Routed to the owning shard: updates of
    /// documents in different shards take different locks and proceed in
    /// parallel. Setting the score a document already has writes nothing.
    fn update_score(&self, doc: DocId, new_score: Score) -> Result<()>;

    /// Apply score changes, each `(doc, score, seq)`: `doc`'s score became
    /// `score` at sequence number `seq`.
    ///
    /// Each shard remembers, in memory, the last `seq` it applied per
    /// document and skips a change older than that, so when writers race
    /// on one document the newest score lands last whatever order the
    /// changes arrive in. Documents unknown to the index (deleted or never
    /// inserted) are skipped: the row vanished between commit and refresh.
    ///
    /// Changes are grouped by shard and the groups applied in parallel, one
    /// thread per touched shard, each under its own shard lock.
    fn refresh_scores(&self, refreshes: &[(DocId, Score, Seq)]) -> Result<()>;

    /// Open a resumable ranked enumeration for `query` (see
    /// [`crate::cursor`]). The cursor is bound to this index instance: any
    /// other index — even one of the same method and shard count — rejects
    /// it in [`SearchIndex::next_batch`].
    fn open_cursor(&self, query: &Query) -> Result<MethodCursor>;

    /// Emit the next `n` results in exact rank order, resuming the
    /// suspended traversal. Returns fewer than `n` hits only when the
    /// enumeration is exhausted. A shard whose long lists were rebuilt
    /// since the last batch (an offline merge) restarts its slice of the
    /// cursor on the new lists, re-scanning their prefix once; documents
    /// already emitted are not emitted again, and with no score change in
    /// between the sequence equals a never-suspended drain. Fails with
    /// [`CoreError::Unsupported`](crate::CoreError::Unsupported) on a
    /// cursor another index opened.
    fn next_batch(&self, cursor: &mut MethodCursor, n: usize) -> Result<Vec<SearchHit>>;

    /// Evaluate a top-k query against the *latest* scores (Algorithms 2/3).
    fn query(&self, query: &Query) -> Result<Vec<SearchHit>>;

    /// Insert a new document with its initial score (Appendix A.2).
    fn insert_document(&self, doc: &Document, score: Score) -> Result<()>;

    /// Delete a document (Appendix A.2).
    fn delete_document(&self, doc: DocId) -> Result<()>;

    /// Batch-rollback inverse of [`SearchIndex::insert_document`]: remove
    /// the document's bookkeeping *and* the postings the insertion added,
    /// leaving the id free for re-use (unlike [`delete_document`], which
    /// tombstones and reserves it).
    ///
    /// Only sound while the document's postings are exactly the ones its
    /// insertion added — i.e. when every later operation on the document
    /// has already been undone. An undo log replayed in reverse order
    /// guarantees that; this is not a general-purpose "hard delete".
    /// Term-score fancy bounds widened by the insertion may stay widened
    /// (they are upper bounds: looser, never wrong).
    ///
    /// If concurrent offline maintenance merged the fresh postings into
    /// the long lists before the rollback ran (merges take no table lock),
    /// the uninsert degrades to the tombstoning [`delete_document`]
    /// semantics: the document stays invisible to every query, only its id
    /// remains reserved (see `MethodBase::uninsert_postings_at`).
    ///
    /// [`delete_document`]: SearchIndex::delete_document
    fn uninsert_document(&self, doc: DocId) -> Result<()>;

    /// Batch-rollback inverse of [`SearchIndex::delete_document`]: revive
    /// the tombstoned document with the score it carried when deleted.
    /// Methods that tombstone (everything except Score) kept the postings,
    /// so reviving is pure bookkeeping; the Score method re-adds the
    /// postings its deletion removed.
    fn undelete_document(&self, doc: DocId) -> Result<()>;

    /// Replace a document's content, keeping its score (Appendix A.1).
    fn update_content(&self, doc: &Document) -> Result<()>;

    /// Offline maintenance: merge short lists into the long lists and reset
    /// the auxiliary tables ("this is done offline and does not impact the
    /// performance of the operational system", §5.1). Every shard merges on
    /// its own thread under its own writer lock.
    fn merge_short_lists(&self) -> Result<()>;

    /// Number of write shards (1 unless the index was built with
    /// `num_shards > 1`).
    fn num_shards(&self) -> usize;

    /// Merge one shard's short lists, leaving the other shards' writers
    /// undisturbed — the scheduling granule for incremental maintenance.
    fn merge_shard(&self, shard: usize) -> Result<()>;

    /// Per-shard list statistics (one entry per shard).
    fn shard_stats(&self) -> Vec<ShardStats>;

    /// Total bytes of the long inverted lists (Table 1).
    fn long_list_bytes(&self) -> u64;

    /// Drop cached long-list pages, reproducing the paper's cold-cache query
    /// protocol. Small structures (Score table, short lists) stay warm.
    fn clear_long_cache(&self) -> Result<()>;

    /// The index's storage environment (I/O statistics, store inspection).
    fn env(&self) -> &Arc<StorageEnv>;

    /// Current score of a live document.
    fn current_score(&self, doc: DocId) -> Result<Score>;

    /// Snapshot of the collection-wide live document frequencies (sorted by
    /// term id) — shared across every shard of one index, exposed for
    /// restart-equivalence checks and diagnostics.
    fn term_dfs(&self) -> Vec<(TermId, u64)>;

    /// The collection-wide live document count backing IDF.
    fn corpus_num_docs(&self) -> u64;

    /// Toggle group-commit draining of deferred score refreshes: when on,
    /// a [`SearchIndex::refresh_scores`] caller that wins a shard's writer
    /// lock applies the refresh batches *other* writers queued while they
    /// waited, before releasing — under write skew one lock hold retires
    /// many writers' propagation work.
    ///
    /// Each queued batch carries its own values and sequence numbers, so
    /// the drainer applies them exactly as their owners would have.
    fn set_group_refresh(&self, enabled: bool);

    /// True when group-commit refresh draining is on.
    fn group_refresh_enabled(&self) -> bool;

    /// Contention counters of the group-commit refresh queues (all zeros
    /// when draining was never enabled).
    fn refresh_group_stats(&self) -> RefreshGroupStats;

    /// Cumulative long-list block skip/decode counters across every query
    /// and cursor batch this index has served (summed over shards). All
    /// zeros for methods without block-structured long lists.
    fn seek_stats(&self) -> crate::multiterm::SeekStats;
}

/// What one index method decides, for one shard: its stores, how to build
/// and reopen them, and the paper's algorithm bodies. Everything else —
/// locking, routing, merging shards, statistics, checkpoints — is
/// [`Index`]'s. Implementations are called with the shard's lock already
/// held (write for mutations, read for queries) and never lock themselves.
pub(crate) trait Method: CursorBackend + Send + Sync + Sized + 'static {
    /// Which method this is.
    const KIND: MethodKind;

    /// The [`store_names`] this method creates in its shard's region of
    /// the environment: every write's WAL batch and checkpoint gating walk
    /// them, and together with the shard prefix they *are* the on-disk
    /// layout.
    const STORES: &'static [&'static str];

    /// Build one shard over `docs` (the shard's partition of the corpus)
    /// inside `ctx`.
    fn build_in(
        ctx: ShardContext,
        docs: &[Document],
        scores: &ScoreMap,
        config: &IndexConfig,
    ) -> Result<Self>;

    /// Reattach one durable shard from its recovered stores (see
    /// [`open_index_at`]).
    fn open_in(ctx: ShardContext, config: &IndexConfig) -> Result<Self>;

    /// Structural epoch of the shard's long-list store (0 when the method
    /// keeps no blob long lists): a suspended cursor's stream positions
    /// are valid only within the epoch they were captured in.
    fn long_epoch(&self) -> u64;

    /// `(long-list bytes, long-list postings, short-list postings)` of
    /// this shard.
    fn list_sizes(&self) -> (u64, u64, u64);

    /// Algorithm 1 (or the method's degenerate form of it).
    fn update_score(&self, doc: DocId, new_score: Score) -> Result<()>;

    /// Open this shard's slice of a ranked enumeration. The fancy-list
    /// methods run phase 1 of Algorithm 3 here; the rest start empty.
    fn open_cursor(&self, query: &Query) -> Result<MergeState> {
        Ok(MergeState::new(query.terms.len(), Vec::new()))
    }

    /// One-shot top-k: an opened cursor drained once for `query.k`
    /// results, unless the method has a faster fixed-k executor.
    fn query(&self, query: &Query) -> Result<Vec<SearchHit>> {
        let mut state = self.open_cursor(query)?;
        crate::cursor::run(self, query, &mut state, query.k)
    }

    /// Appendix A.2 insertion.
    fn insert_document(&self, doc: &Document, score: Score) -> Result<()>;

    /// Appendix A.2 deletion: tombstone, keep the postings.
    fn delete_document(&self, doc: DocId) -> Result<()> {
        self.base().register_delete(doc)
    }

    /// Rollback inverse of [`Method::insert_document`].
    fn uninsert_document(&self, doc: DocId) -> Result<()>;

    /// Rollback inverse of [`Method::delete_document`]: tombstoning kept
    /// the postings, so reviving is pure bookkeeping.
    fn undelete_document(&self, doc: DocId) -> Result<()> {
        self.base().register_undelete(doc)?;
        Ok(())
    }

    /// Appendix A.1 content update.
    fn update_content(&self, doc: &Document) -> Result<()>;

    /// Offline merge of this shard's short lists into its long lists.
    fn merge_short_lists(&self) -> Result<()>;

    /// Drop this shard's cached long-list (and fancy-list) pages.
    fn clear_long_cache(&self) -> Result<()> {
        for name in [store_names::LONG, store_names::FANCY] {
            if let Some(store) = self.base().store(name) {
                store.clear_cache()?;
            }
        }
        Ok(())
    }
}

/// Where an index's stores live inside a caller-owned [`StorageEnv`]: the
/// environment plus a store-name prefix (e.g. `idx/movie_idx/`) carving out
/// the index's region. Durability follows the environment: indexes located
/// in a durable environment create reopenable structures and can be
/// reattached with [`open_index_at`].
#[derive(Clone)]
pub struct IndexLocation {
    pub env: Arc<StorageEnv>,
    pub prefix: String,
}

impl IndexLocation {
    /// Locate an index at `prefix` inside `env`.
    pub fn new(env: Arc<StorageEnv>, prefix: impl Into<String>) -> IndexLocation {
        IndexLocation {
            env,
            prefix: prefix.into(),
        }
    }
}

/// Build an index of the requested kind over `docs` with initial `scores`,
/// in a fresh in-memory environment.
///
/// The collection is hash-partitioned by document id into
/// `config.num_shards` shards (default 1 — the paper's single-partition
/// layout), each behind an independent writer lock, so writers of documents
/// in different shards proceed in parallel and every shard serves many
/// concurrent readers; rankings are identical at any shard count.
pub fn build_index(
    kind: MethodKind,
    docs: &[Document],
    scores: &ScoreMap,
    config: &IndexConfig,
) -> Result<Box<dyn SearchIndex>> {
    attach(None, kind, Some((docs, scores)), config)
}

/// [`build_index`] into a caller-owned environment at a store-name prefix —
/// the engine's durable build path. Identical semantics otherwise.
pub fn build_index_at(
    loc: &IndexLocation,
    kind: MethodKind,
    docs: &[Document],
    scores: &ScoreMap,
    config: &IndexConfig,
) -> Result<Box<dyn SearchIndex>> {
    attach(Some(loc), kind, Some((docs, scores)), config)
}

/// Reattach an index previously built with [`build_index_at`] in a durable
/// environment: every shard's structures reopen from their recovered
/// stores, the in-memory mirrors (tombstones, chunk maps, fancy bounds,
/// corpus df / num_docs statistics) are rebuilt from the index's own
/// durable state, and **no base row is read or re-tokenized**. The caller
/// supplies the same `kind` and `config` the index was built with (the
/// engine persists both in its catalog).
pub fn open_index_at(
    loc: &IndexLocation,
    kind: MethodKind,
    config: &IndexConfig,
) -> Result<Box<dyn SearchIndex>> {
    attach(Some(loc), kind, None, config)
}

/// The one `MethodKind` → method-type dispatch: validate the configuration,
/// then build over `corpus` or (`None`) reopen from the stores at `loc`
/// (`None` = a fresh in-memory environment).
fn attach(
    loc: Option<&IndexLocation>,
    kind: MethodKind,
    corpus: Option<(&[Document], &ScoreMap)>,
    config: &IndexConfig,
) -> Result<Box<dyn SearchIndex>> {
    fn boxed<M: Method>(
        loc: &IndexLocation,
        corpus: Option<(&[Document], &ScoreMap)>,
        config: &IndexConfig,
    ) -> Result<Box<dyn SearchIndex>> {
        Ok(Box::new(Index::<M>::attach(loc, corpus, config)?))
    }
    config.validate()?;
    let fresh;
    let loc = match loc {
        Some(loc) => loc,
        None => {
            fresh = IndexLocation::new(Arc::new(StorageEnv::new(config.page_size)), "");
            &fresh
        }
    };
    use id::IdMethod;
    use threshold::{ByChunk, ByScore, ThresholdMethod};
    match kind {
        MethodKind::Id => boxed::<IdMethod<false>>(loc, corpus, config),
        MethodKind::Score => boxed::<score::ScoreMethod>(loc, corpus, config),
        MethodKind::ScoreThreshold => boxed::<ThresholdMethod<ByScore, false>>(loc, corpus, config),
        MethodKind::Chunk => boxed::<ThresholdMethod<ByChunk, false>>(loc, corpus, config),
        MethodKind::IdTermScore => boxed::<IdMethod<true>>(loc, corpus, config),
        MethodKind::ChunkTermScore => boxed::<ThresholdMethod<ByChunk, true>>(loc, corpus, config),
        MethodKind::ScoreThresholdTermScore => {
            boxed::<ThresholdMethod<ByScore, true>>(loc, corpus, config)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_match_paper() {
        assert_eq!(MethodKind::Chunk.name(), "Chunk");
        assert_eq!(MethodKind::ChunkTermScore.to_string(), "Chunk-TermScore");
        assert_eq!(MethodKind::ALL.len(), 6);
        assert!(MethodKind::IdTermScore.uses_term_scores());
        assert!(!MethodKind::Chunk.uses_term_scores());
    }
}
