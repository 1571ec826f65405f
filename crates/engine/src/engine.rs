//! The integrated SVR engine: the architecture of the paper's Figure 2.
//!
//! [`SvrEngine`] owns the relational [`Database`], the text vocabulary and
//! one [`SearchIndex`] per indexed text column. Structured-data mutations
//! flow through the materialized Score view into the index's score
//! updates before the mutating call returns; text mutations flow through
//! the Appendix-A content operations. Keyword queries return ranked rows.
//!
//! ## Concurrency model: the lock-rank table
//!
//! The engine is a cheap cloneable handle (`Clone` = `Arc` bump) over
//! shared, internally synchronized state. Every lock the write path can
//! hold belongs to a **ranked class** ([`svr_storage::sync::LockClass`]),
//! and a thread may only acquire a lock whose rank is **≥** the highest
//! rank it already holds:
//!
//! | rank | class        | guards                                         |
//! |------|--------------|------------------------------------------------|
//! | 0    | `Table`      | the per-table writer lock (tier 1)             |
//! | 1    | `Shard`      | a shard's index refresh lock (tier 2)          |
//! | 2    | `Checkpoint` | a store's checkpoint section                   |
//! | 3    | `Wal`        | a WAL's append/commit mutex                    |
//!
//! Rank order `Table → Shard → Checkpoint → Wal` is *descending
//! generality*: the coarse outer sections acquire the fine inner ones,
//! never the reverse, so no cycle between classes can form. Equal-rank
//! acquisitions are legal and ordered deterministically instead
//! ([`SvrEngine::apply`] sorts its table locks by name; batch refreshes
//! walk shards in ascending order).
//!
//! The table is **enforced three ways**, not promised in prose:
//!
//! 1. **at runtime in debug builds** — every guard pushes its rank onto a
//!    thread-local stack and panics on an out-of-rank acquisition
//!    (`cargo test` runs with `debug_assertions`, so the whole stress and
//!    proptest suite doubles as a lock-order validator);
//! 2. **statically** — `svr-lint`'s `lock-order` rule flags any source
//!    line that takes a tier-1 table lock while a shard refresh guard is
//!    live (see `crates/lint`);
//! 3. **observably in release builds** — every class counts acquisitions,
//!    contended acquisitions, wait and hold nanoseconds
//!    ([`SvrEngine::contention_stats`], the server `Info` payload, the
//!    `locks:` line of SQL `EXPLAIN`, and the bench artifacts).
//!
//! Writes go through **two of those lock tiers** so that same-table
//! writers overlap on the expensive part of the write path:
//!
//! * **tier 1 — the per-table writer lock** is held only for the row/view
//!   mutation: the base-table write, materialized-view maintenance, and
//!   any *structural* index operation of the same row (document insert,
//!   delete, content update — these must stay ordered with the row they
//!   describe). Score-change notifications raised by the view are only
//!   *recorded*, not applied; view listeners run synchronously on the
//!   mutating thread, so the record is a thread-local capture private to
//!   the call — no other writer can take over (or race) this call's
//!   refresh work.
//! * **tier 2 — the per-shard index locks**: after the table lock is
//!   released, the call's recorded keys are refreshed through
//!   [`SearchIndex::refresh_scores`], which groups them by index shard and
//!   applies each group under that shard's writer lock only (in parallel
//!   for batches). The refresh *re-reads* the view score under the shard
//!   lock, so when two writers race on one document the last applier
//!   always writes a value at least as fresh as every committed change —
//!   deferred propagation cannot resurrect a stale score.
//!
//! Consequences:
//!
//! * **reads scale** — [`SvrEngine::search`], [`SvrEngine::open_query`],
//!   [`SvrEngine::score_of`], [`SvrEngine::index`],
//!   [`SvrEngine::text_index_on`] and the plain relational reads all take
//!   `&self` and run concurrently from any number of threads;
//! * **reads resume** — the read path is cursor-based:
//!   [`SvrEngine::open_query`] returns a [`SearchCursor`] whose batches
//!   each run under one shard read lock and whose suspended state holds no
//!   lock at all, so a paginating client never blocks writers between
//!   pages and never re-pays the traversal of earlier pages
//!   ([`SvrEngine::search`] is an opened cursor drained once). Each index
//!   keeps a write epoch; a cursor compares it against the value captured
//!   at open to report cross-batch staleness ([`SearchCursor::staleness`]);
//! * **same-table writers overlap** — two [`SvrEngine::update_row`] calls
//!   on one table serialize only through the short tier-1 section; their
//!   index score maintenance (the hot part under the paper's
//!   update-intensive workloads) runs concurrently whenever the touched
//!   documents hash to different shards (`IndexConfig::num_shards`);
//! * **writers of different tables** never share a tier-1 lock and proceed
//!   in parallel end-to-end;
//! * **score propagation completes before the call returns** — a query
//!   issued the moment a mutation returns sees the new ranking;
//! * **batches coalesce and fan out** — [`SvrEngine::apply`] /
//!   [`SvrEngine::insert_rows`] buffer view notifications, record one
//!   refresh per touched document, and apply the refreshes grouped by
//!   shard in parallel;
//! * **writes are all-or-nothing** — every write path runs as a
//!   transaction: each applied piece records its inverse (captured
//!   pre-image row for updates/deletes, primary key for inserts, old
//!   content / revival entries for the index structural ops) into an undo
//!   log, and an error replays the log in reverse under the still-held
//!   table locks while the score views restore their captured pre-batch
//!   state — a failed [`SvrEngine::apply`] leaves no observable trace in
//!   tables, views or rankings. The WAL commits of the involved table
//!   stores are bracketed into one recoverable batch per transaction, so
//!   a *crash* mid-batch also recovers to the pre-batch state;
//! * **maintenance is per shard** — [`SvrEngine::run_maintenance`] no
//!   longer takes the table lock at all: each shard's merge excludes only
//!   that shard's writers ([`SvrEngine::run_shard_maintenance`] merges a
//!   single shard).
//!
//! The refresh tier takes shard locks only: nothing acquires a table lock
//! (rank 0) while holding a shard lock (rank 1), which is exactly the
//! rank rule above — a violation panics in debug builds and fails
//! `svr-lint` statically. [`SvrEngine::apply`] takes its table locks in
//! sorted order so equal-rank acquisitions cannot deadlock either.
//!
//! DDL is coarser: `create_text_index` blocks the indexed table's writers
//! for the whole build. `DROP TABLE` retires the table's tier-1 lock
//! entry under the lock itself, and every acquisition re-validates that
//! the lock it got is still the registered one — so a writer racing a
//! drop + re-create can never mutate the new incarnation under the old
//! lock (it re-acquires the current lock, or errors on the missing
//! table).
//!
//! ## Durability & recovery
//!
//! An engine has two lifecycles. [`SvrEngine::new`] is the in-memory
//! special case: nothing survives the process. [`SvrEngine::create`]
//! bootstraps a **durable** engine inside a durable
//! [`StorageEnv`] (`StorageEnv::new_durable` under the repository's
//! whole-process crash model, `StorageEnv::open_dir` /
//! [`SvrEngine::open_path`] over real files), and [`SvrEngine::open`]
//! recovers the complete engine from that environment after a crash or
//! restart:
//!
//! * **every store is write-ahead logged** — tables (since PR 4) *and* the
//!   per-shard index stores, system catalogs and vocabulary. A crash loses
//!   exactly the buffer pools; recovery replays each log's committed
//!   batches. Each index write a transaction triggers (insert, delete,
//!   content update, score refresh) is one batch per index shard store it
//!   changes, and a call's vocabulary growth is one batch too: at the
//!   default sync interval, one fsync per store changed, not per posting.
//! * **catalog mutations write through**: `create_table` /
//!   `create_text_index` / the drops persist versioned records into
//!   `sys/catalog` (schemas, score-view definitions — owned by the
//!   relational layer) and [`SYS_INDEXES_STORE`] (text-index wiring:
//!   table, analyzed column, method, full [`IndexConfig`] including the
//!   shard count). Records land *after* the object they describe, so a
//!   crash mid-DDL recovers to "object absent" (orphaned stores are
//!   reclaimed on the next create of the name) — never to a cataloged
//!   object with half-built structures; `open` also garbage-collects
//!   score views whose index record never landed.
//! * **vocabulary growth is logged incrementally**: interning a new term
//!   appends one `(id, term)` record to [`SYS_VOCAB_STORE`] (term ids are
//!   dense, so the persisted high-water mark identifies the increment —
//!   no rewrite per term). `open` re-interns the records in id order and
//!   restores every id.
//! * **indexes reattach, they do not rebuild**: `open` reopens each
//!   shard's Score table, forward index, long/short lists, aux tables and
//!   shard metadata (chunk boundaries, fancy-list bounds, content-dirty
//!   markers) from the recovered stores, and re-derives only the
//!   in-memory state (the Score and ListScore/ListChunk rows, each loaded
//!   by one scan of its tree, and the shared df / num_docs statistics)
//!   from the index's *own* durable state — zero base rows are
//!   read for indexing and nothing is re-tokenized.
//! * **score views re-materialize** from the recovered base rows (the
//!   deterministic fold of view creation), and listeners are rewired, so
//!   the first post-recovery mutation propagates exactly like any other.
//! * **logs stay bounded**: any store whose log outgrows
//!   [`EngineConfig::wal_checkpoint_bytes`] (default 1 MiB) is
//!   checkpointed at the next safe opportunity — tables at op/transaction
//!   boundaries, index shards after score refreshes and merges (under the
//!   shard lock) — and `open` finishes with a full checkpoint so recovery
//!   cost does not compound across restarts.
//!
//! Reopened state is **bit-identical** where it matters: rankings,
//! `score_of`, df / num_docs and per-shard EXPLAIN stats are proptested to
//! match the crashed instance exactly (`tests/restart_equivalence.rs`).
//! The one caveat is float view aggregates: a re-fold can differ from the
//! incrementally maintained sum by an ulp when the aggregate arithmetic is
//! inexact; integer-valued inputs (and every ranking, which lives in the
//! index's own durable scores) are exact.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use svr_core::types::{DocId, Document, Query, QueryMode, SearchHit, TermId};
use svr_core::{
    build_index, build_index_at, open_index_at, CodecKind, IndexConfig, IndexLocation,
    MethodCursor, MethodKind, SearchIndex, ShardStats,
};
use svr_relation::{Database, RowChange, Schema, SvrSpec, Value};
use svr_storage::codec::{
    begin_record, read_string, read_varint, record_version, write_string, write_varint,
};
use svr_storage::sync::{LockClass, OrderedMutex};
use svr_storage::{BTree, StorageEnv, WalBatch};
use svr_text::Vocabulary;

use crate::error::{Result, SvrError};

/// Name of the engine's text-index catalog store inside a durable
/// environment (the relational catalog is `sys/catalog`, owned by
/// [`Database`]).
pub const SYS_INDEXES_STORE: &str = "sys/indexes";
/// Name of the durable vocabulary store: one `(term id, term)` record per
/// interned term, appended incrementally as the vocabulary grows.
pub const SYS_VOCAB_STORE: &str = "sys/vocab";

/// Store-name prefix of one text index's region in the engine environment.
fn index_prefix(name: &str) -> String {
    format!("idx/{name}/")
}

/// Engine-lifecycle tunables (see [`SvrEngine::create_with`]).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Log bytes past which any store (table, index shard, system catalog)
    /// is checkpointed at the next safe opportunity. Default 1 MiB;
    /// `u64::MAX` disables automatic checkpointing.
    pub wal_checkpoint_bytes: u64,
    /// WAL group-sync interval: `0` (the default) fsyncs every commit
    /// marker of a file-backed engine; a positive value fsyncs at most
    /// once per this many milliseconds, amortizing the fsync across the
    /// commits of the interval. A crash can then lose *acknowledged*
    /// transactions: each store recovers to a clean prefix of its own
    /// commits (its log is append-only), but stores keep separate sync
    /// clocks and sync only when they commit, so neither an engine-wide
    /// prefix nor a one-interval bound is guaranteed (see the crate docs).
    pub wal_sync_interval_ms: u64,
    /// Group-commit drain of deferred score refreshes: a writer winning a
    /// shard's refresh lock applies the batches other writers queued
    /// while they waited, before releasing (see
    /// [`SearchIndex::set_group_refresh`]). Off by default.
    pub group_refresh: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            wal_checkpoint_bytes: 1 << 20,
            wal_sync_interval_ms: 0,
            group_refresh: false,
        }
    }
}

/// Engine-wide serving/contention counters (see
/// [`SvrEngine::contention_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ContentionStats {
    /// Aggregate WAL counters across every store (commit-sync policy
    /// counters included).
    pub wal: svr_storage::WalStats,
    /// Group-commit refresh-queue counters summed over every index.
    pub refresh: svr_core::RefreshGroupStats,
    /// Per-lock-class acquisition/contention/wait/hold counters from the
    /// instrumented sync layer ([`svr_storage::sync`]). Process-wide and
    /// monotone: diff two snapshots ([`svr_storage::LockStats::delta_since`])
    /// to attribute activity to a window.
    pub locks: svr_storage::LockStats,
}

/// A ranked search result: the matching row and its latest SVR score.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedRow {
    pub row: Vec<Value>,
    pub score: f64,
}

/// One DML operation inside a [`WriteBatch`].
#[derive(Debug, Clone, PartialEq)]
pub enum WriteOp {
    Insert {
        table: String,
        row: Vec<Value>,
    },
    Update {
        table: String,
        pk: Value,
        sets: Vec<(String, Value)>,
    },
    Delete {
        table: String,
        pk: Value,
    },
}

impl WriteOp {
    fn table(&self) -> &str {
        match self {
            WriteOp::Insert { table, .. }
            | WriteOp::Update { table, .. }
            | WriteOp::Delete { table, .. } => table,
        }
    }
}

/// A batch of row mutations applied with one writer-lock acquisition per
/// involved table and coalesced score propagation; build with the helpers
/// and hand to [`SvrEngine::apply`].
///
/// ```
/// # use svr_engine::WriteBatch;
/// # use svr_relation::Value;
/// let mut batch = WriteBatch::new();
/// batch.insert("stats", vec![Value::Int(1), Value::Int(10)]);
/// batch.update("stats", Value::Int(1), vec![("nvisit".into(), Value::Int(500))]);
/// assert_eq!(batch.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WriteBatch {
    ops: Vec<WriteOp>,
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> WriteBatch {
        WriteBatch::default()
    }

    /// Queue a row insert.
    pub fn insert(&mut self, table: &str, row: Vec<Value>) -> &mut Self {
        self.ops.push(WriteOp::Insert {
            table: table.to_string(),
            row,
        });
        self
    }

    /// Queue a column update of the row with primary key `pk`.
    pub fn update(&mut self, table: &str, pk: Value, sets: Vec<(String, Value)>) -> &mut Self {
        self.ops.push(WriteOp::Update {
            table: table.to_string(),
            pk,
            sets,
        });
        self
    }

    /// Queue a row deletion.
    pub fn delete(&mut self, table: &str, pk: Value) -> &mut Self {
        self.ops.push(WriteOp::Delete {
            table: table.to_string(),
            pk,
        });
        self
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// One text index: immutable wiring plus the shared index structure.
struct TextIndex {
    table: String,
    text_col: usize,
    pk_col: usize,
    view: String,
    index: Arc<dyn SearchIndex>,
    /// The build configuration the index runs under (from the catalog on
    /// reopen) — `EXPLAIN` reports its codec alongside the list sizes.
    config: IndexConfig,
    /// Write epoch: bumped on every mutation that can shift this index's
    /// ranking (score refreshes, document inserts/deletes/content updates,
    /// offline merges). Open cursors compare it against the value they
    /// captured to report staleness ([`SearchCursor::staleness`]).
    epoch: AtomicU64,
}

impl TextIndex {
    fn bump(&self) {
        self.epoch.fetch_add(1, Ordering::Release);
    }

    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

/// A keyword query against one text index, built fluently and handed to
/// [`SvrEngine::open_query`] (resumable cursor) or [`SvrEngine::query`]
/// (one-shot top-k).
///
/// ```
/// # use svr_engine::QueryRequest;
/// let req = QueryRequest::new("movie_idx", "golden gate").k(25).disjunctive();
/// assert_eq!(req.index(), "movie_idx");
/// assert_eq!(req.fetch_k(), 25);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRequest {
    index: String,
    keywords: String,
    k: usize,
    mode: QueryMode,
}

impl QueryRequest {
    /// A conjunctive top-10 request (override with the builder methods).
    pub fn new(index: impl Into<String>, keywords: impl Into<String>) -> QueryRequest {
        QueryRequest {
            index: index.into(),
            keywords: keywords.into(),
            k: 10,
            mode: QueryMode::Conjunctive,
        }
    }

    /// Number of results a one-shot [`SvrEngine::query`] returns (cursors
    /// may be drained past it).
    pub fn k(mut self, k: usize) -> QueryRequest {
        self.k = k;
        self
    }

    /// Set the keyword-combination mode.
    pub fn mode(mut self, mode: QueryMode) -> QueryRequest {
        self.mode = mode;
        self
    }

    /// Match documents containing *any* keyword.
    pub fn disjunctive(self) -> QueryRequest {
        self.mode(QueryMode::Disjunctive)
    }

    /// Match documents containing *all* keywords (the default).
    pub fn conjunctive(self) -> QueryRequest {
        self.mode(QueryMode::Conjunctive)
    }

    /// Target index name.
    pub fn index(&self) -> &str {
        &self.index
    }

    /// Raw keywords.
    pub fn keywords(&self) -> &str {
        &self.keywords
    }

    /// The one-shot result count.
    pub fn fetch_k(&self) -> usize {
        self.k
    }

    /// The keyword-combination mode.
    pub fn query_mode(&self) -> QueryMode {
        self.mode
    }
}

/// A resumable ranked search over one text index, opened with
/// [`SvrEngine::open_query`]: each [`SearchCursor::next_batch`] call emits
/// the next batch of rows in rank order, paying only the incremental list
/// traversal — fetching ranks `k+1..2k` does *not* re-run the first k.
///
/// ## Consistency semantics
///
/// Every batch reads the index under the owning shard's read lock, so one
/// batch is internally consistent. Between batches writers proceed;
/// concurrent score churn never corrupts or aborts the cursor, it only
/// makes the *cross-batch* ordering best-effort: results already buffered
/// keep the score observed when they were resolved, later batches observe
/// current scores, and no row is emitted twice. [`SearchCursor::staleness`]
/// counts the index write epochs since the cursor opened — callers that
/// need a fresh total order re-open the query when it grows.
///
/// Rows deleted between scoring and fetching are skipped silently (a fresh
/// query would not return them); use [`SearchCursor::is_exhausted`] rather
/// than a short batch to detect the end of the enumeration.
pub struct SearchCursor {
    engine: SvrEngine,
    entry: Arc<TextIndex>,
    /// `None` when the request can match nothing (unknown conjunctive
    /// keyword or an empty term list): the cursor is born exhausted.
    cursor: Option<MethodCursor>,
    opened_epoch: u64,
}

impl SearchCursor {
    /// Next `n` ranked hits (doc id + score), resuming where the previous
    /// batch stopped. Returns fewer than `n` only at exhaustion.
    pub fn next_hits(&mut self, n: usize) -> Result<Vec<SearchHit>> {
        match &mut self.cursor {
            None => Ok(Vec::new()),
            Some(cursor) => Ok(self.entry.index.next_batch(cursor, n)?),
        }
    }

    /// Next `n` ranked rows. Rows whose base-table entry vanished since
    /// scoring are skipped, so a shorter batch does not imply exhaustion.
    pub fn next_batch(&mut self, n: usize) -> Result<Vec<RankedRow>> {
        let hits = self.next_hits(n)?;
        let table = self.engine.shared.db.table(&self.entry.table)?;
        let mut rows = Vec::with_capacity(hits.len());
        let mut key = Vec::with_capacity(9);
        for hit in hits {
            Value::Int(hit.doc.0 as i64).encode_key_into(&mut key);
            if let Some(row) = table.get_raw(&key)? {
                rows.push(RankedRow {
                    row,
                    score: hit.score,
                });
            }
        }
        Ok(rows)
    }

    /// True once every result has been emitted.
    pub fn is_exhausted(&self) -> bool {
        self.cursor.as_ref().is_none_or(|c| c.is_exhausted())
    }

    /// Index write epochs since this cursor opened: 0 means every batch so
    /// far observed the same index the cursor started from; a growing value
    /// means concurrent churn and best-effort cross-batch ordering.
    pub fn staleness(&self) -> u64 {
        self.entry.epoch().saturating_sub(self.opened_epoch)
    }

    /// Convenience: `staleness() > 0`.
    pub fn is_stale(&self) -> bool {
        self.staleness() > 0
    }

    /// Long-list block counters (skipped vs decoded) accumulated over every
    /// batch this cursor has run — how EXPLAIN observes seek-based skipping.
    pub fn stats(&self) -> svr_core::SeekStats {
        self.cursor.as_ref().map(|c| c.stats()).unwrap_or_default()
    }

    /// The index this cursor enumerates.
    pub fn index_name(&self) -> &str {
        &self.entry.view
    }
}

/// One recorded inverse in a write transaction's undo log. Entries are
/// pushed as each forward operation commits its piece and replayed in
/// **reverse** on error, under the still-held table locks — so by the time
/// an entry runs, every later operation on the same row/document has
/// already been undone (the soundness condition of the core
/// `uninsert_document` entry point).
enum UndoEntry {
    /// Inverse of a row insert: remove the row (no view routing — view
    /// state rolls back from its own captured pre-images).
    RetractRow { table: String, pk: Value },
    /// Inverse of a row update or delete: put the captured pre-image back.
    RestoreRow { table: String, row: Vec<Value> },
    /// Inverse of `insert_document`.
    Uninsert { ti: Arc<TextIndex>, doc: DocId },
    /// Inverse of `delete_document`: revive the tombstoned document.
    Undelete { ti: Arc<TextIndex>, doc: DocId },
    /// Inverse of `update_content`: replay the captured old content.
    RestoreContent { ti: Arc<TextIndex>, old: Document },
}

std::thread_local! {
    /// `(view name, target pk)` score changes raised by the mutation
    /// in flight **on this thread**. View listeners run synchronously on
    /// the mutating thread, so recording here (instead of in a shared
    /// queue) gives each mutating call exactly its own refresh set: no
    /// other writer can steal a key and return before it is applied, and
    /// refresh errors surface on the call that caused them.
    static TOUCHED_SCORES: std::cell::RefCell<Vec<(Arc<str>, i64)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Durable-lifecycle state of an engine created with [`SvrEngine::create`]
/// or recovered with [`SvrEngine::open`].
struct DurableEngine {
    env: Arc<StorageEnv>,
    /// Text-index catalog: `name -> versioned index record`.
    indexes_tree: BTree,
    /// Vocabulary log: `term id (BE) -> term string`, appended per newly
    /// interned term.
    vocab_tree: BTree,
    /// Terms already persisted (ids are dense, so this is a high-water
    /// mark; everything past it is the increment to log).
    persisted_terms: Mutex<usize>,
    /// Auto-checkpoint threshold (see [`EngineConfig`]).
    checkpoint_bytes: u64,
}

/// The shared, internally synchronized engine state.
struct EngineShared {
    db: Database,
    /// Term dictionary shared by every index: interning happens under the
    /// write lock on mutation paths, query-side lookups take read locks.
    vocab: RwLock<Vocabulary>,
    /// Read-mostly index registry.
    indexes: RwLock<HashMap<String, Arc<TextIndex>>>,
    /// Tier-1 per-table writer locks (see the [module docs](self)).
    /// Writers of different tables run in parallel; entries are removed
    /// when their table is dropped.
    write_locks: Mutex<HashMap<String, Arc<OrderedMutex<()>>>>,
    /// `Some` for durable engines; `None` for plain in-memory ones.
    durable: Option<DurableEngine>,
    /// Group-commit refresh draining, applied to every index at
    /// creation/open and toggled engine-wide at runtime
    /// ([`SvrEngine::set_group_refresh`]).
    group_refresh: std::sync::atomic::AtomicBool,
}

/// The integrated engine. Cloning is cheap (`Arc` bump) and every clone
/// addresses the same shared state, so one engine can serve queries from
/// many threads while writers mutate it — see the `engine` module docs for
/// the locking rules and `examples/flash_crowd.rs` for the pattern in
/// action.
#[derive(Clone)]
pub struct SvrEngine {
    shared: Arc<EngineShared>,
}

impl Default for SvrEngine {
    fn default() -> Self {
        SvrEngine::new()
    }
}

impl SvrEngine {
    /// Create an empty **in-memory** engine: the process-lifetime special
    /// case of the durable lifecycle. Nothing survives a restart; use
    /// [`SvrEngine::create`] / [`SvrEngine::open`] for an engine that
    /// does.
    pub fn new() -> SvrEngine {
        SvrEngine {
            shared: Arc::new(EngineShared {
                db: Database::new(),
                vocab: RwLock::new(Vocabulary::new()),
                indexes: RwLock::new(HashMap::new()),
                write_locks: Mutex::new(HashMap::new()),
                durable: None,
                group_refresh: std::sync::atomic::AtomicBool::new(false),
            }),
        }
    }

    /// Bootstrap an empty **durable** engine inside `env` (from
    /// [`StorageEnv::new_durable`] for crash-model durability, or
    /// [`StorageEnv::open_dir`] for file-backed durability): system stores
    /// are created and every catalog mutation — `create_table`,
    /// `create_text_index`, drops, vocabulary growth — writes through to
    /// them, so [`SvrEngine::open`] on the same environment recovers the
    /// complete engine.
    pub fn create(env: Arc<StorageEnv>) -> Result<SvrEngine> {
        SvrEngine::create_with(env, EngineConfig::default())
    }

    /// [`SvrEngine::create`] with explicit [`EngineConfig`] tunables.
    pub fn create_with(env: Arc<StorageEnv>, config: EngineConfig) -> Result<SvrEngine> {
        if !env.is_durable() {
            return Err(SvrError::Engine(
                "SvrEngine::create requires a durable environment \
                 (StorageEnv::new_durable or StorageEnv::open_dir)"
                    .into(),
            ));
        }
        if env.store_exists(svr_relation::SYS_CATALOG_STORE) {
            return Err(SvrError::Engine(
                "environment already holds an engine (use SvrEngine::open)".into(),
            ));
        }
        env.set_wal_sync_interval_ms(config.wal_sync_interval_ms);
        let db = Database::with_env(env.clone())?;
        db.set_wal_checkpoint_bytes(config.wal_checkpoint_bytes);
        let indexes_tree = BTree::create_durable(env.create_logged_store(SYS_INDEXES_STORE, 64))
            .map_err(|e| SvrError::Engine(format!("index catalog: {e}")))?;
        let vocab_tree = BTree::create_durable(env.create_logged_store(SYS_VOCAB_STORE, 64))
            .map_err(|e| SvrError::Engine(format!("vocabulary store: {e}")))?;
        Ok(SvrEngine {
            shared: Arc::new(EngineShared {
                db,
                vocab: RwLock::new(Vocabulary::new()),
                indexes: RwLock::new(HashMap::new()),
                write_locks: Mutex::new(HashMap::new()),
                durable: Some(DurableEngine {
                    env,
                    indexes_tree,
                    vocab_tree,
                    persisted_terms: Mutex::new(0),
                    checkpoint_bytes: config.wal_checkpoint_bytes,
                }),
                group_refresh: std::sync::atomic::AtomicBool::new(config.group_refresh),
            }),
        })
    }

    /// Recover a complete engine from a durable environment: replay every
    /// store's write-ahead log, read the system catalogs (table schemas,
    /// score-view definitions, text-index configurations, vocabulary),
    /// reattach each table and index shard to its recovered store, and
    /// re-materialize the score views — all **without touching a single
    /// base row for indexing**: postings, document contents, scores, chunk
    /// maps and fancy metadata reopen from the index's own durable
    /// structures. Finishes with a checkpoint, so the cost of this
    /// recovery is not paid again at the next open.
    pub fn open(env: Arc<StorageEnv>) -> Result<SvrEngine> {
        SvrEngine::open_with(env, EngineConfig::default())
    }

    /// [`SvrEngine::open`] with explicit [`EngineConfig`] tunables.
    pub fn open_with(env: Arc<StorageEnv>, config: EngineConfig) -> Result<SvrEngine> {
        env.recover_all()
            .map_err(|e| SvrError::Engine(format!("recovery failed: {e}")))?;
        env.set_wal_sync_interval_ms(config.wal_sync_interval_ms);
        let db = Database::open_env(env.clone())?;
        db.set_wal_checkpoint_bytes(config.wal_checkpoint_bytes);

        // Vocabulary: records are keyed by term id (big-endian), so the
        // scan yields terms in id order and re-interning restores every id.
        let vocab_store = env.create_logged_store(SYS_VOCAB_STORE, 64);
        vocab_store
            .recover()
            .map_err(|e| SvrError::Engine(format!("vocabulary recovery: {e}")))?;
        let vocab_tree = BTree::reopen(vocab_store, 0)
            .map_err(|e| SvrError::Engine(format!("vocabulary store: {e}")))?;
        let mut terms = Vec::new();
        {
            let mut cursor = vocab_tree
                .cursor(&[])
                .map_err(|e| SvrError::Engine(format!("vocabulary scan: {e}")))?;
            while let Some((_, v)) = cursor
                .next_entry()
                .map_err(|e| SvrError::Engine(format!("vocabulary scan: {e}")))?
            {
                terms.push(String::from_utf8(v).map_err(|_| {
                    SvrError::Engine("vocabulary store holds a non-UTF-8 term".into())
                })?);
            }
        }
        let persisted = terms.len();
        let mut vocab = Vocabulary::from_terms(terms)
            .ok_or_else(|| SvrError::Engine("vocabulary store holds duplicate terms".into()))?;

        // Text indexes: open each cataloged index from its recovered
        // stores and rewire its view listener.
        let indexes_store = env.create_logged_store(SYS_INDEXES_STORE, 64);
        indexes_store
            .recover()
            .map_err(|e| SvrError::Engine(format!("index catalog recovery: {e}")))?;
        let indexes_tree = BTree::reopen(indexes_store, 0)
            .map_err(|e| SvrError::Engine(format!("index catalog: {e}")))?;
        let mut records = Vec::new();
        {
            let mut cursor = indexes_tree
                .cursor(&[])
                .map_err(|e| SvrError::Engine(format!("index catalog scan: {e}")))?;
            while let Some((k, v)) = cursor
                .next_entry()
                .map_err(|e| SvrError::Engine(format!("index catalog scan: {e}")))?
            {
                let name = String::from_utf8(k)
                    .map_err(|_| SvrError::Engine("index catalog key is not UTF-8".into()))?;
                records.push((name, decode_index_record(&v)?));
            }
        }

        let engine = SvrEngine {
            shared: Arc::new(EngineShared {
                db,
                vocab: RwLock::new(Vocabulary::new()), // installed below
                indexes: RwLock::new(HashMap::new()),
                write_locks: Mutex::new(HashMap::new()),
                durable: Some(DurableEngine {
                    env: env.clone(),
                    indexes_tree,
                    vocab_tree,
                    persisted_terms: Mutex::new(persisted),
                    checkpoint_bytes: config.wal_checkpoint_bytes,
                }),
                group_refresh: std::sync::atomic::AtomicBool::new(config.group_refresh),
            }),
        };

        // Garbage-collect views orphaned by a crash mid-`create_text_index`
        // (the view record lands before the index record; recovery must see
        // either both or neither, and "neither" keeps the name reusable).
        let cataloged: std::collections::HashSet<&str> =
            records.iter().map(|(n, _)| n.as_str()).collect();
        for view in engine.shared.db.view_names() {
            if !cataloged.contains(view.as_str()) {
                let _ = engine.shared.db.drop_score_view(&view);
            }
        }

        for (name, record) in records {
            let table_ref = engine.shared.db.table(&record.table)?;
            let schema = table_ref.schema();
            let text_idx = schema.column_index(&record.text_col)?;
            let pk_idx = schema.pk;
            let loc = IndexLocation::new(env.clone(), index_prefix(&name));
            let index: Arc<dyn SearchIndex> =
                Arc::from(open_index_at(&loc, record.method, &record.config)?);
            index.set_group_refresh(config.group_refresh);
            // The vocabulary's frequency gauge is re-derived from the
            // reopened corpus statistics (it only feeds workload
            // generators, not ranking, and was never exact to begin with).
            for (term, df) in index.term_dfs() {
                vocab.add_doc_freq(term, df);
            }
            engine.install_index_entry(
                &name,
                &record.table,
                text_idx,
                pk_idx,
                index,
                record.config.clone(),
            )?;
        }
        *engine.shared.vocab.write() = vocab;

        // Recovery replayed logs onto the disks; checkpoint so the next
        // open starts from the replayed baseline instead of replaying the
        // same log again on top of it.
        env.checkpoint_all()
            .map_err(|e| SvrError::Engine(format!("post-recovery checkpoint: {e}")))?;
        Ok(engine)
    }

    /// Convenience: open (or bootstrap, when the directory holds no
    /// engine) a **file-backed** engine at `path` — real durability across
    /// process restarts, every store in `<path>/<name>.pages` with its log
    /// in `<path>/<name>.wal`.
    pub fn open_path(path: impl Into<std::path::PathBuf>) -> Result<SvrEngine> {
        SvrEngine::open_path_with(path, EngineConfig::default())
    }

    /// [`SvrEngine::open_path`] with explicit [`EngineConfig`] tunables —
    /// how a serving deployment opts into the group-commit amortizations
    /// (`wal_sync_interval_ms`, `group_refresh`).
    pub fn open_path_with(
        path: impl Into<std::path::PathBuf>,
        config: EngineConfig,
    ) -> Result<SvrEngine> {
        let env = Arc::new(
            StorageEnv::open_dir(path, svr_storage::DEFAULT_PAGE_SIZE)
                .map_err(|e| SvrError::Engine(format!("open environment: {e}")))?,
        );
        if env.store_exists(svr_relation::SYS_CATALOG_STORE) {
            SvrEngine::open_with(env, config)
        } else {
            SvrEngine::create_with(env, config)
        }
    }

    /// Toggle group-commit refresh draining engine-wide, on every live
    /// index and every index created later (see
    /// [`EngineConfig::group_refresh`]).
    pub fn set_group_refresh(&self, enabled: bool) {
        self.shared
            .group_refresh
            .store(enabled, std::sync::atomic::Ordering::Relaxed);
        for entry in self.shared.indexes.read().values() {
            entry.index.set_group_refresh(enabled);
        }
    }

    /// True when group-commit refresh draining is on.
    pub fn group_refresh_enabled(&self) -> bool {
        self.shared
            .group_refresh
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Set the WAL group-sync interval of a durable engine at runtime
    /// (`0` = fsync every commit; see [`EngineConfig::wal_sync_interval_ms`]).
    /// No-op for in-memory engines.
    pub fn set_wal_sync_interval_ms(&self, ms: u64) {
        if let Some(durable) = &self.shared.durable {
            durable.env.set_wal_sync_interval_ms(ms);
        }
    }

    /// Engine-wide contention counters: aggregate WAL statistics (commit
    /// syncs and group-sync deferrals included), the group-commit
    /// refresh-queue counters summed over every index, and the per-class
    /// lock acquisition/contention counters from the instrumented sync
    /// layer — the payload of the serving front end's `Info` command.
    pub fn contention_stats(&self) -> ContentionStats {
        let wal = match &self.shared.durable {
            Some(durable) => durable.env.total_wal_stats(),
            None => svr_storage::WalStats::default(),
        };
        let mut refresh = svr_core::RefreshGroupStats::default();
        for entry in self.shared.indexes.read().values() {
            refresh.merge(&entry.index.refresh_group_stats());
        }
        ContentionStats {
            wal,
            refresh,
            locks: svr_storage::lock_stats(),
        }
    }

    /// Long-list block skip/decode counters summed over every text index —
    /// the WAND-pruning-effectiveness payload of the serving front end's
    /// `Info` command.
    pub fn seek_stats(&self) -> svr_core::SeekStats {
        self.shared
            .indexes
            .read()
            .values()
            .map(|entry| entry.index.seek_stats())
            .fold(svr_core::SeekStats::default(), |acc, s| acc + s)
    }

    /// The engine's durable environment, when it has one.
    pub fn env(&self) -> Option<&Arc<StorageEnv>> {
        self.shared.durable.as_ref().map(|d| &d.env)
    }

    /// True when this engine persists its state ([`SvrEngine::create`] /
    /// [`SvrEngine::open`]).
    pub fn is_durable(&self) -> bool {
        self.shared.durable.is_some()
    }

    /// Flush every store and truncate every log — an explicit full
    /// checkpoint (automatic checkpointing is governed by
    /// [`EngineConfig::wal_checkpoint_bytes`]).
    pub fn checkpoint(&self) -> Result<()> {
        if let Some(durable) = &self.shared.durable {
            durable
                .env
                .checkpoint_all()
                .map_err(|e| SvrError::Engine(format!("checkpoint: {e}")))?;
        }
        Ok(())
    }

    /// Persist vocabulary growth: append one record per term interned past
    /// the persisted high-water mark. Called right after every interning
    /// site, so a crash can lose at most terms whose postings were not yet
    /// committed either.
    fn persist_new_terms(&self) -> Result<()> {
        let Some(durable) = &self.shared.durable else {
            return Ok(());
        };
        let vocab = self.shared.vocab.read();
        let mut persisted = durable.persisted_terms.lock();
        if vocab.len() <= *persisted {
            return Ok(());
        }
        let persist_error = |e| SvrError::Engine(format!("vocabulary persist: {e}"));
        // One batch: a call's new terms seal (and fsync) once, not once each.
        let batch = WalBatch::begin([durable.vocab_tree.store().clone()]);
        for (offset, term) in vocab.terms_since(*persisted).iter().enumerate() {
            let id = (*persisted + offset) as u32;
            durable
                .vocab_tree
                .put(&id.to_be_bytes(), term.as_bytes())
                .map_err(persist_error)?;
        }
        batch.finish().map_err(persist_error)?;
        *persisted = vocab.len();
        let _ = durable
            .vocab_tree
            .store()
            .maybe_checkpoint(durable.checkpoint_bytes);
        Ok(())
    }

    /// Write (or replace) a text index's catalog record.
    fn persist_index_record(&self, name: &str, record: &IndexRecord) -> Result<()> {
        if let Some(durable) = &self.shared.durable {
            durable
                .indexes_tree
                .put(name.as_bytes(), &encode_index_record(record))
                .map_err(|e| SvrError::Engine(format!("index catalog persist: {e}")))?;
        }
        Ok(())
    }

    /// Register an opened/built index in the in-memory registry.
    fn install_index_entry(
        &self,
        name: &str,
        table: &str,
        text_idx: usize,
        pk_idx: usize,
        index: Arc<dyn SearchIndex>,
        config: IndexConfig,
    ) -> Result<()> {
        let view_tag: Arc<str> = Arc::from(name);
        self.shared.db.set_score_listener(
            name,
            Box::new(move |pk, _score| {
                TOUCHED_SCORES.with(|t| t.borrow_mut().push((view_tag.clone(), pk)));
            }),
        )?;
        self.shared.indexes.write().insert(
            name.to_string(),
            Arc::new(TextIndex {
                table: table.to_string(),
                text_col: text_idx,
                pk_col: pk_idx,
                view: name.to_string(),
                index,
                config,
                epoch: AtomicU64::new(0),
            }),
        );
        Ok(())
    }

    /// The underlying relational database (read access).
    pub fn db(&self) -> &Database {
        &self.shared.db
    }

    /// The writer lock for `table` (created on first use).
    fn write_lock(&self, table: &str) -> Arc<OrderedMutex<()>> {
        self.shared
            .write_locks
            .lock()
            .entry(table.to_string())
            .or_insert_with(|| Arc::new(OrderedMutex::new(LockClass::Table, ())))
            .clone()
    }

    /// Run `f` under `table`'s tier-1 writer lock, re-acquiring if the lock
    /// was retired (the table dropped) between fetching and acquiring it —
    /// a writer that loses the race against `DROP TABLE` + re-`CREATE`
    /// must not mutate the new incarnation under the old lock.
    fn with_table_lock<R>(&self, table: &str, f: impl FnOnce() -> R) -> R {
        let mut f = Some(f);
        loop {
            let lock = self.write_lock(table);
            let table_guard = lock.lock();
            let current = self
                .shared
                .write_locks
                .lock()
                .get(table)
                .is_some_and(|registered| Arc::ptr_eq(registered, &lock));
            if current {
                let result = (f.take().expect("validated lock runs f exactly once"))(); // svr-lint: allow(no-unwrap): `f` is consumed exactly once on the validated path
                drop(table_guard);
                return result;
            }
        }
    }

    /// [`SvrEngine::with_table_lock`] over several tables at once, acquired
    /// in the caller's (sorted) order so concurrent batches cannot
    /// deadlock.
    fn with_table_locks<R>(&self, tables: &[String], f: impl FnOnce() -> R) -> R {
        let mut f = Some(f);
        loop {
            let locks: Vec<_> = tables.iter().map(|t| self.write_lock(t)).collect();
            let table_guards: Vec<_> = locks.iter().map(|l| l.lock()).collect();
            let all_current = {
                let registered = self.shared.write_locks.lock();
                tables
                    .iter()
                    .zip(&locks)
                    .all(|(t, l)| registered.get(t).is_some_and(|cur| Arc::ptr_eq(cur, l)))
            };
            if all_current {
                let result = (f.take().expect("validated locks run f exactly once"))(); // svr-lint: allow(no-unwrap): `f` is consumed exactly once on the validated path
                drop(table_guards);
                return result;
            }
        }
    }

    /// Tier 2: drain this thread's recorded score changes and refresh the
    /// affected indexes. Called after the tier-1 lock is released — each
    /// index groups its documents by shard and re-reads the authoritative
    /// view score under the shard's writer lock, so refreshes of documents
    /// in different shards proceed in parallel and stale captured values
    /// cannot win (see the [module docs](self)).
    ///
    /// Every affected index is refreshed even if an earlier one fails; the
    /// first error is returned.
    fn refresh_touched(&self) -> Result<()> {
        let raw = TOUCHED_SCORES.with(|t| std::mem::take(&mut *t.borrow_mut()));
        if raw.is_empty() {
            return Ok(());
        }
        let mut by_view: HashMap<Arc<str>, Vec<i64>> = HashMap::new();
        for (view, pk) in raw {
            by_view.entry(view).or_default().push(pk);
        }
        let mut first_error: Option<SvrError> = None;
        for (view, mut pks) in by_view {
            let Some(ti) = self.shared.indexes.read().get(&*view).cloned() else {
                // Index dropped between the mutation and this refresh.
                continue;
            };
            pks.sort_unstable();
            pks.dedup();
            // Refresh every convertible key even when one is out of the
            // document-id range — the bad key is reported, the rest must
            // not go stale over it.
            let mut docs = Vec::with_capacity(pks.len());
            for pk in pks {
                match doc_id(pk) {
                    Ok(doc) => docs.push(doc),
                    Err(e) => {
                        first_error.get_or_insert(SvrError::Engine(format!(
                            "score propagation failed: index '{}': {e}",
                            ti.view
                        )));
                    }
                }
            }
            let db = &self.shared.db;
            let read = |doc: DocId| -> svr_core::Result<Option<f64>> {
                // The row (or the whole view) may have vanished between the
                // commit and this refresh; that is a skip, not an error.
                Ok(db.score_of(&ti.view, i64::from(doc.0)).ok())
            };
            if let Err(e) = ti.index.refresh_scores(&docs, &read) {
                first_error.get_or_insert(SvrError::Engine(format!(
                    "score propagation failed: index '{}': {e}",
                    ti.view
                )));
            }
            ti.bump();
            // Durable index stores log every page write; bound the logs at
            // the same threshold the table stores use. (O(1) log-size
            // checks per store; an actual checkpoint only past threshold.)
            if let Some(durable) = &self.shared.durable {
                if let Err(e) = ti.index.maybe_checkpoint(durable.checkpoint_bytes) {
                    first_error.get_or_insert(SvrError::Engine(format!(
                        "index checkpoint failed: index '{}': {e}",
                        ti.view
                    )));
                }
            }
        }
        match first_error {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Create a table.
    pub fn create_table(&self, schema: Schema) -> Result<()> {
        Ok(self.shared.db.create_table(schema)?)
    }

    /// Drop a table. Fails while a text index (or raw score view) depends
    /// on it: drop the index first.
    pub fn drop_table(&self, table: &str) -> Result<()> {
        if let Some(index) = self
            .shared
            .indexes
            .read()
            .iter()
            .find_map(|(name, ti)| (ti.table == table).then(|| name.clone()))
        {
            return Err(SvrError::Engine(format!(
                "cannot drop table '{table}': text index '{index}' is built on it \
                 (DROP TEXT INDEX {index} first)"
            )));
        }
        self.with_table_lock(table, || -> Result<()> {
            self.shared.db.drop_table(table)?;
            // Retire the writer-lock entry *while still holding the lock*:
            // the map may not grow unbounded across create/drop cycles, and
            // a writer still queued on the old Arc wakes to find it
            // unregistered and re-acquires the current one (see
            // `with_table_lock`), so a re-created table can never be
            // mutated under the retired lock.
            self.shared.write_locks.lock().remove(table);
            Ok(())
        })
    }

    /// Create a text index with SVR ranking on `table.text_col`.
    ///
    /// This is the engine form of the paper's "create text index ... with
    /// score specification": it materializes the Score view for `spec`,
    /// builds the chosen inverted-list `method` over the existing rows, and
    /// wires view notifications *synchronously* into index score updates.
    pub fn create_text_index(
        &self,
        name: &str,
        table: &str,
        text_col: &str,
        spec: SvrSpec,
        method: MethodKind,
        config: IndexConfig,
    ) -> Result<()> {
        if self.shared.indexes.read().contains_key(name) {
            return Err(SvrError::Engine(format!(
                "text index '{name}' already exists"
            )));
        }
        let table_ref = self.shared.db.table(table)?;
        let schema = table_ref.schema();
        let text_idx = schema.column_index(text_col)?;
        let pk_idx = schema.pk;

        // Block writers of the indexed table while the view + index are
        // built and wired, so no row slips between the scan and the wiring.
        self.with_table_lock(table, || {
            self.create_text_index_locked(
                name,
                table_ref.as_ref(),
                text_idx,
                pk_idx,
                spec,
                method,
                config,
            )
        })
    }

    /// [`SvrEngine::create_text_index`] body, with the caller holding the
    /// indexed table's writer lock.
    #[allow(clippy::too_many_arguments)]
    fn create_text_index_locked(
        &self,
        name: &str,
        table_ref: &svr_relation::Table,
        text_idx: usize,
        pk_idx: usize,
        spec: SvrSpec,
        method: MethodKind,
        config: IndexConfig,
    ) -> Result<()> {
        let table = &table_ref.schema().name;
        let text_col = table_ref.schema().columns[text_idx].0.clone();
        self.shared.db.create_score_view(name, table, spec)?;
        let index = match self.build_text_index(name, table_ref, text_idx, pk_idx, method, &config)
        {
            Ok(index) => index,
            Err(e) => {
                // Nothing references the view yet (a rejected option, a
                // non-integer key, a storage error): drop it so a retry of
                // the same name starts clean.
                let _ = self.shared.db.drop_score_view(name);
                return Err(e);
            }
        };
        index.set_group_refresh(
            self.shared
                .group_refresh
                .load(std::sync::atomic::Ordering::Relaxed),
        );

        {
            let mut indexes = self.shared.indexes.write();
            if indexes.contains_key(name) {
                let _ = self.shared.db.drop_score_view(name);
                return Err(SvrError::Engine(format!(
                    "text index '{name}' already exists"
                )));
            }
            // Tier-1 recording: the view listener only notes *which* target
            // key changed, in the mutating thread's local capture (listeners
            // run synchronously on that thread). The mutating call drains
            // its own capture after commit and refreshes the index under
            // shard locks, re-reading the view for the authoritative score
            // (see the module docs).
            let view_tag: Arc<str> = Arc::from(name);
            self.shared.db.set_score_listener(
                name,
                Box::new(move |pk, _score| {
                    TOUCHED_SCORES.with(|t| t.borrow_mut().push((view_tag.clone(), pk)));
                }),
            )?;
            indexes.insert(
                name.to_string(),
                Arc::new(TextIndex {
                    table: table.to_string(),
                    text_col: text_idx,
                    pk_col: pk_idx,
                    view: name.to_string(),
                    index,
                    config: config.clone(),
                    epoch: AtomicU64::new(0),
                }),
            );
        }
        // Catalog record last: a crash anywhere above recovers to "no
        // index" (plus reclaimable orphan stores) — never to a cataloged
        // index with half-built structures.
        self.persist_index_record(
            name,
            &IndexRecord {
                table: table.clone(),
                text_col,
                method,
                config,
            },
        )?;
        Ok(())
    }

    /// Tokenize `table_ref`'s existing rows and build the index structures
    /// over them with the scores of the (already created) view `name`.
    fn build_text_index(
        &self,
        name: &str,
        table_ref: &svr_relation::Table,
        text_idx: usize,
        pk_idx: usize,
        method: MethodKind,
        config: &IndexConfig,
    ) -> Result<Arc<dyn SearchIndex>> {
        // Tokenize the existing rows.
        let rows = table_ref.scan()?;
        let mut docs = Vec::with_capacity(rows.len());
        {
            let mut vocab = self.shared.vocab.write();
            for row in &rows {
                let pk = row[pk_idx]
                    .as_i64()
                    .ok_or_else(|| SvrError::Engine("text index requires integer keys".into()))?;
                let text = row[text_idx].as_text().unwrap_or("");
                docs.push(Document::from_text(doc_id(pk)?, text, &mut vocab));
            }
        }
        // Log the vocabulary growth before the postings referencing it.
        self.persist_new_terms()?;
        let scores: svr_core::ScoreMap = self
            .shared
            .db
            .all_scores(name)?
            .into_iter()
            .map(|(pk, s)| Ok((doc_id(pk)?, s)))
            .collect::<Result<_>>()?;

        Ok(match &self.shared.durable {
            None => Arc::from(build_index(method, &docs, &scores, config)?),
            Some(durable) => {
                // A crash between a drop's catalog delete and its store
                // removal (or mid-build) can leave orphaned index stores;
                // clear them so the build starts from empty stores with
                // the metadata pages where `open` expects them.
                durable.env.remove_prefix(&index_prefix(name));
                let loc = IndexLocation::new(durable.env.clone(), index_prefix(name));
                Arc::from(build_index_at(&loc, method, &docs, &scores, config)?)
            }
        })
    }

    /// Drop a text index: its backing score view, its catalog record and
    /// its backing stores — a reopen cannot resurrect it, and re-creating
    /// the name starts from empty stores.
    pub fn drop_text_index(&self, name: &str) -> Result<()> {
        let removed = self
            .shared
            .indexes
            .write()
            .remove(name)
            .ok_or_else(|| SvrError::Engine(format!("unknown text index '{name}'")))?;
        self.with_table_lock(&removed.table, || -> Result<()> {
            if let Some(durable) = &self.shared.durable {
                // The index catalog record goes first: a crash anywhere
                // after it leaves at worst orphaned stores (reclaimed by
                // the next create of this name) and a view without an
                // index record (garbage-collected by `open`). The reverse
                // order could leave an index record whose view is gone —
                // a state `open` cannot recover from.
                durable
                    .indexes_tree
                    .delete(name.as_bytes())
                    .map_err(|e| SvrError::Engine(format!("index catalog delete: {e}")))?;
                durable.env.remove_prefix(&index_prefix(name));
            }
            self.shared.db.drop_score_view(&removed.view)?;
            Ok(())
        })
    }

    /// Look up a text index entry.
    fn entry(&self, name: &str) -> Result<Arc<TextIndex>> {
        self.shared
            .indexes
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| SvrError::Engine(format!("unknown text index '{name}'")))
    }

    /// The indexes covering `table`, if any.
    fn entries_on(&self, table: &str) -> Vec<Arc<TextIndex>> {
        self.shared
            .indexes
            .read()
            .values()
            .filter(|ti| ti.table == table)
            .cloned()
            .collect()
    }

    /// Run `f` as an **all-or-nothing write transaction** over `tables`
    /// (sorted, deduped): table locks are taken, the WAL commits of the
    /// involved stores are bracketed into one recoverable batch, view
    /// notifications are buffered, and view undo capture is armed. `f`
    /// appends the inverse of everything it applies to the undo log it is
    /// handed; on error the log replays in reverse under the still-held
    /// locks and the views roll back to their captured pre-images, so no
    /// observable trace of the transaction remains. Score refreshes run
    /// after the locks are released, as always — including after a
    /// rollback, where they converge the indexes to the rolled-back truth.
    fn with_write_txn(
        &self,
        tables: &[String],
        f: impl FnOnce(&mut Vec<UndoEntry>) -> Result<()>,
    ) -> Result<()> {
        let mutated = self.with_table_locks(tables, || {
            // One commit-marker bracket per involved store: a crash
            // mid-transaction recovers every table to its pre-transaction
            // state (the closing marker seals mutations + undo images).
            let wal_batch = self.shared.db.wal_batch(tables)?;
            // Both brackets are scoped to the views this transaction's
            // tables can reach — the hot path (one-table score update)
            // touches one view's mutex, not every view in the engine.
            let bracket = self.shared.db.buffer_score_notifications_for(tables);
            let view_undo = self.shared.db.begin_view_undo(tables);
            let mut undo = Vec::new();
            let result = match f(&mut undo) {
                Ok(()) => {
                    view_undo.commit();
                    Ok(())
                }
                Err(e) => {
                    let rolled_back = self.rollback_ops(undo);
                    view_undo.rollback();
                    match rolled_back {
                        Ok(()) => Err(e),
                        Err(re) => Err(SvrError::Engine(format!(
                            "write transaction failed ({e}); rollback incomplete: {re}"
                        ))),
                    }
                }
            };
            // Flush coalesced notifications into this thread's capture,
            // then seal the WAL batch (in that order: the capture is
            // in-memory, the marker makes the storage state recoverable).
            // A seal that fails fails the write: recovery would roll it back.
            drop(bracket);
            let sealed = wal_batch.finish();
            result.and(sealed.map_err(|e| SvrError::Relation(e.into())))
        });
        // Refresh even after a failed transaction: the rollback's view
        // notifications re-point the indexes at the restored scores. The
        // mutation's error wins.
        let refreshed = self.refresh_touched();
        mutated?;
        refreshed
    }

    /// Replay a transaction's undo log in reverse. Keeps going past an
    /// entry that fails (restoring as much as possible) and reports the
    /// first error.
    fn rollback_ops(&self, undo: Vec<UndoEntry>) -> Result<()> {
        let mut first_error: Option<SvrError> = None;
        for entry in undo.into_iter().rev() {
            let result: Result<()> = match entry {
                UndoEntry::RetractRow { table, pk } => self
                    .shared
                    .db
                    .retract_row(&table, &pk)
                    .map_err(SvrError::from),
                UndoEntry::RestoreRow { table, row } => self
                    .shared
                    .db
                    .restore_row(&table, row)
                    .map_err(SvrError::from),
                UndoEntry::Uninsert { ti, doc } => {
                    let result = ti.index.uninsert_document(doc);
                    ti.bump();
                    result.map_err(SvrError::from)
                }
                UndoEntry::Undelete { ti, doc } => {
                    let result = ti.index.undelete_document(doc);
                    ti.bump();
                    result.map_err(SvrError::from)
                }
                UndoEntry::RestoreContent { ti, old } => {
                    let result = ti.index.update_content(&old);
                    ti.bump();
                    result.map_err(SvrError::from)
                }
            };
            if let Err(e) = result {
                first_error.get_or_insert(e);
            }
        }
        match first_error {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Insert a row, maintaining views and text indexes. All-or-nothing:
    /// on error the row, views and index postings are rolled back.
    pub fn insert_row(&self, table: &str, row: Vec<Value>) -> Result<()> {
        self.with_write_txn(std::slice::from_ref(&table.to_string()), |undo| {
            self.insert_row_locked(table, row, undo)
        })
    }

    /// [`SvrEngine::insert_row`] tier-1 body, with the caller holding the
    /// table's writer lock: row + view mutation and the structural
    /// `insert_document`, each pushing its inverse onto `undo`. The caller
    /// drains and applies score refreshes.
    fn insert_row_locked(
        &self,
        table: &str,
        row: Vec<Value>,
        undo: &mut Vec<UndoEntry>,
    ) -> Result<()> {
        // Extract what the text indexes need *before* the row moves into
        // the database — no full-row clone.
        let entries = self.entries_on(table);
        let mut inserts = Vec::with_capacity(entries.len());
        for ti in &entries {
            let pk = row
                .get(ti.pk_col)
                .and_then(Value::as_i64)
                .ok_or_else(|| SvrError::Engine("integer key required".into()))?;
            let text = row
                .get(ti.text_col)
                .and_then(|v| v.as_text())
                .unwrap_or("")
                .to_string();
            inserts.push((ti.clone(), pk, text));
        }
        let pk_idx = self.shared.db.table(table)?.schema().pk;
        let change = self.shared.db.insert_row(table, row)?;
        if let RowChange::Inserted { new } = &change {
            undo.push(UndoEntry::RetractRow {
                table: table.to_string(),
                pk: new[pk_idx].clone(),
            });
        }
        for (ti, pk, text) in inserts {
            let doc = Document::from_text(doc_id(pk)?, &text, &mut self.shared.vocab.write());
            // Vocabulary growth is logged incrementally, before the
            // postings that reference the new ids.
            self.persist_new_terms()?;
            let score = self.shared.db.score_of(&ti.view, pk).unwrap_or(0.0);
            ti.index.insert_document(&doc, score)?;
            ti.bump();
            undo.push(UndoEntry::Uninsert { ti, doc: doc.id });
        }
        Ok(())
    }

    /// Insert many rows into one table under a single writer-lock
    /// acquisition, with coalesced score propagation — the bulk-load path.
    /// All-or-nothing: a failing row rolls back every earlier row of the
    /// call.
    pub fn insert_rows(&self, table: &str, rows: Vec<Vec<Value>>) -> Result<usize> {
        let inserted = rows.len();
        self.with_write_txn(std::slice::from_ref(&table.to_string()), |undo| {
            for row in rows {
                self.insert_row_locked(table, row, undo)?;
            }
            Ok(())
        })?;
        Ok(inserted)
    }

    /// Apply a [`WriteBatch`] **atomically**: one writer-lock acquisition
    /// per involved table (taken in sorted order, so concurrent batches
    /// cannot deadlock), coalesced view notifications, one WAL commit
    /// marker per involved store, and one score refresh per touched
    /// document — grouped by index shard and applied with the shards in
    /// parallel after the table locks are released. Returns the number of
    /// operations the batch applied.
    ///
    /// The batch is **all-or-nothing**: if any operation fails, every
    /// operation already applied is rolled back — tables, views, index
    /// postings and rankings are left as if the batch had never run — and
    /// the error is returned. A crash mid-batch likewise recovers the
    /// table stores to the pre-batch state (the WAL marker that seals the
    /// batch is only appended when it completes or finishes rolling back).
    pub fn apply(&self, batch: WriteBatch) -> Result<usize> {
        let mut tables: Vec<String> = batch.ops.iter().map(|op| op.table().to_string()).collect();
        tables.sort_unstable();
        tables.dedup();
        let applied = batch.ops.len();
        self.with_write_txn(&tables, |undo| {
            for op in batch.ops {
                match op {
                    WriteOp::Insert { table, row } => self.insert_row_locked(&table, row, undo)?,
                    WriteOp::Update { table, pk, sets } => {
                        self.update_row_locked(&table, pk, &sets, undo)?
                    }
                    WriteOp::Delete { table, pk } => self.delete_row_locked(&table, pk, undo)?,
                }
            }
            Ok(())
        })?;
        Ok(applied)
    }

    /// Update a row, maintaining views and text indexes (text-column changes
    /// become Appendix-A content updates). Pure score updates — the
    /// update-intensive hot path — hold the table lock only for the
    /// row/view mutation; the index refresh runs under shard locks.
    /// All-or-nothing: on error the row, views and content are rolled back.
    pub fn update_row(&self, table: &str, pk: Value, updates: &[(String, Value)]) -> Result<()> {
        self.with_write_txn(std::slice::from_ref(&table.to_string()), |undo| {
            self.update_row_locked(table, pk, updates, undo)
        })
    }

    fn update_row_locked(
        &self,
        table: &str,
        pk: Value,
        updates: &[(String, Value)],
        undo: &mut Vec<UndoEntry>,
    ) -> Result<()> {
        let change = self.shared.db.update_row(table, pk.clone(), updates)?;
        let RowChange::Updated { old, .. } = &change else {
            return Err(SvrError::Engine(
                "update reported a non-update change".into(),
            ));
        };
        undo.push(UndoEntry::RestoreRow {
            table: table.to_string(),
            row: old.clone(),
        });
        let entries = self.entries_on(table);
        if !entries.is_empty() {
            let schema = self.shared.db.table(table)?.schema().clone();
            for ti in entries {
                let text_col_name = &schema.columns[ti.text_col].0;
                if let Some((_, new_text)) = updates.iter().find(|(c, _)| c == text_col_name) {
                    let pk_int = pk
                        .as_i64()
                        .ok_or_else(|| SvrError::Engine("integer key required".into()))?;
                    let old_text = old.get(ti.text_col).and_then(|v| v.as_text()).unwrap_or("");
                    let (doc, old_doc) = {
                        let mut vocab = self.shared.vocab.write();
                        (
                            Document::from_text(
                                doc_id(pk_int)?,
                                new_text.as_text().unwrap_or(""),
                                &mut vocab,
                            ),
                            Document::from_text(doc_id(pk_int)?, old_text, &mut vocab),
                        )
                    };
                    self.persist_new_terms()?;
                    // Structural: stays in tier 1 so concurrent content
                    // updates of one document cannot apply out of order.
                    ti.index.update_content(&doc)?;
                    ti.bump();
                    undo.push(UndoEntry::RestoreContent { ti, old: old_doc });
                }
            }
        }
        Ok(())
    }

    /// Delete a row, maintaining views and text indexes. All-or-nothing:
    /// on error the row, views and index state are rolled back.
    pub fn delete_row(&self, table: &str, pk: Value) -> Result<()> {
        self.with_write_txn(std::slice::from_ref(&table.to_string()), |undo| {
            self.delete_row_locked(table, pk, undo)
        })
    }

    fn delete_row_locked(&self, table: &str, pk: Value, undo: &mut Vec<UndoEntry>) -> Result<()> {
        let change = self.shared.db.delete_row(table, pk.clone())?;
        let RowChange::Deleted { old } = &change else {
            return Err(SvrError::Engine(
                "delete reported a non-delete change".into(),
            ));
        };
        undo.push(UndoEntry::RestoreRow {
            table: table.to_string(),
            row: old.clone(),
        });
        for ti in self.entries_on(table) {
            let pk_int = pk
                .as_i64()
                .ok_or_else(|| SvrError::Engine("integer key required".into()))?;
            let doc = doc_id(pk_int)?;
            ti.index.delete_document(doc)?;
            ti.bump();
            undo.push(UndoEntry::Undelete { ti, doc });
        }
        Ok(())
    }

    /// Resolve raw keywords against the shared vocabulary: the interned
    /// term ids plus the number of tokens the vocabulary does not know.
    /// This is the single tokenize-and-resolve step behind
    /// [`SvrEngine::search`], [`SvrEngine::open_query`] and the SQL layer's
    /// `EXPLAIN` (which surfaces the counts without running the query).
    pub fn resolve_keywords(&self, keywords: &str) -> (Vec<TermId>, usize) {
        let vocab = self.shared.vocab.read();
        let mut terms = Vec::new();
        let mut unknown = 0usize;
        for token in svr_text::tokenize(keywords) {
            match vocab.get(&token) {
                Some(t) => terms.push(t),
                None => unknown += 1,
            }
        }
        (terms, unknown)
    }

    /// The index-layer [`Query`] for a request, or `None` when it can match
    /// nothing (a vocabulary-unknown keyword under conjunctive semantics —
    /// disjunctive queries simply ignore unknown keywords — or no usable
    /// keywords at all).
    fn plan_query(&self, keywords: &str, k: usize, mode: QueryMode) -> Option<Query> {
        let (terms, unknown) = self.resolve_keywords(keywords);
        if (unknown > 0 && mode == QueryMode::Conjunctive) || terms.is_empty() {
            return None;
        }
        Some(Query::new(terms, k, mode))
    }

    /// Open a resumable ranked search — see [`SearchCursor`] for batch and
    /// staleness semantics. Takes `&self`: cursors can be opened and
    /// advanced from any number of threads while writers run.
    pub fn open_query(&self, request: &QueryRequest) -> Result<SearchCursor> {
        let ti = self.entry(&request.index)?;
        // Capture the epoch *before* opening: a write landing while the
        // cursor opens (phase-1 fancy merges resolve scores right here)
        // must surface as staleness, not be silently folded in.
        let opened_epoch = ti.epoch();
        let cursor = match self.plan_query(&request.keywords, request.k, request.mode) {
            None => None,
            Some(query) => Some(ti.index.open_cursor(&query)?),
        };
        Ok(SearchCursor {
            engine: self.clone(),
            opened_epoch,
            entry: ti,
            cursor,
        })
    }

    /// One-shot form of [`SvrEngine::open_query`]: the top
    /// [`QueryRequest::fetch_k`] rows.
    pub fn query(&self, request: &QueryRequest) -> Result<Vec<RankedRow>> {
        self.search(&request.index, &request.keywords, request.k, request.mode)
    }

    /// Keyword-search the indexed text column, returning the top-k rows
    /// ranked by the *latest* SVR scores — the engine form of the paper's
    /// `SELECT * FROM Movies ORDER BY score(desc, "golden gate") FETCH TOP
    /// k`. Implemented as an opened cursor drained once. Unlike cursor
    /// batches, a hit whose base row is missing is an error here: the
    /// one-shot API keeps its historical strict behavior so index/table
    /// wiring bugs surface loudly — though the same benign race cursor
    /// batches absorb (a row deleted between the index drain and the row
    /// fetch below) also trips it; callers racing deletes should prefer
    /// [`SvrEngine::open_query`]. Takes `&self`: any number of threads can
    /// search one shared engine while writers run.
    pub fn search(
        &self,
        index: &str,
        keywords: &str,
        k: usize,
        mode: QueryMode,
    ) -> Result<Vec<RankedRow>> {
        let ti = self.entry(index)?;
        let Some(query) = self.plan_query(keywords, k, mode) else {
            return Ok(Vec::new());
        };
        let hits = ti.index.query(&query)?;
        let table = self.shared.db.table(&ti.table)?;
        let mut rows = Vec::with_capacity(hits.len());
        let mut key = Vec::with_capacity(9);
        for hit in hits {
            // One reused key buffer instead of a Value + Vec per hit.
            Value::Int(hit.doc.0 as i64).encode_key_into(&mut key);
            let row = table.get_raw(&key)?.ok_or_else(|| {
                SvrError::Engine(format!("index points at missing row {}", hit.doc))
            })?;
            rows.push(RankedRow {
                row,
                score: hit.score,
            });
        }
        Ok(rows)
    }

    /// Name of the text index covering `table.text_col`, if one exists.
    /// This is how a `SELECT ... ORDER BY score(m.desc, "...")` query finds
    /// the index to use.
    pub fn text_index_on(&self, table: &str, text_col: &str) -> Option<String> {
        // Resolve the column to its index once — no schema clone per call.
        let table_ref = self.shared.db.table(table).ok()?;
        let col = table_ref.schema().column_index(text_col).ok()?;
        self.shared
            .indexes
            .read()
            .iter()
            .find_map(|(name, ti)| (ti.table == table && ti.text_col == col).then(|| name.clone()))
    }

    /// Names of all text indexes (unordered).
    pub fn index_names(&self) -> Vec<String> {
        self.shared.indexes.read().keys().cloned().collect()
    }

    /// Direct access to an index (statistics, maintenance).
    pub fn index(&self, name: &str) -> Result<Arc<dyn SearchIndex>> {
        Ok(self.entry(name)?.index.clone())
    }

    /// Run the offline short-list merge on an index, shard by shard. No
    /// table lock is taken: each shard's merge holds that shard's writer
    /// lock only, so writers of documents in other shards keep running
    /// while the merge restructures this one (sharded indexes merge their
    /// shards in parallel).
    pub fn run_maintenance(&self, name: &str) -> Result<()> {
        let ti = self.entry(name)?;
        ti.index.merge_short_lists()?;
        ti.bump();
        if let Some(durable) = &self.shared.durable {
            ti.index.maybe_checkpoint(durable.checkpoint_bytes)?;
        }
        Ok(())
    }

    /// Merge a single shard of an index — the scheduling granule for
    /// incremental maintenance under sustained write load: a maintainer can
    /// walk the shards round-robin, never stalling more than `1/num_shards`
    /// of the table's writers at a time.
    pub fn run_shard_maintenance(&self, name: &str, shard: usize) -> Result<()> {
        let ti = self.entry(name)?;
        ti.index.merge_shard(shard)?;
        ti.bump();
        if let Some(durable) = &self.shared.durable {
            ti.index.maybe_checkpoint(durable.checkpoint_bytes)?;
        }
        Ok(())
    }

    /// Per-shard list statistics of an index (shard count, long-list bytes,
    /// parked short-list postings) — surfaced by `EXPLAIN` in the SQL
    /// layer.
    pub fn index_shard_stats(&self, name: &str) -> Result<Vec<ShardStats>> {
        Ok(self.entry(name)?.index.shard_stats())
    }

    /// The build configuration a text index runs under (codec included).
    pub fn index_config(&self, name: &str) -> Result<IndexConfig> {
        Ok(self.entry(name)?.config.clone())
    }

    /// The materialized view's score for a row (for assertions and demos).
    pub fn score_of(&self, index: &str, pk: i64) -> Result<f64> {
        let ti = self.entry(index)?;
        Ok(self.shared.db.score_of(&ti.view, pk)?)
    }
}

/// One text index's persisted configuration: everything `open` needs to
/// reattach the index — where it is wired (table, analyzed column), which
/// method it runs, and the full build configuration (shard count included,
/// which determines the per-shard store layout).
struct IndexRecord {
    table: String,
    text_col: String,
    method: MethodKind,
    config: IndexConfig,
}

const INDEX_RECORD_V1: u8 = 1;
/// V2 appends the long-list codec tag; V1 records (written before codecs
/// existed) decode with [`CodecKind::Legacy`], the format they were built
/// with, so pre-upgrade stores reopen unchanged.
const INDEX_RECORD_V2: u8 = 2;

fn method_tag(kind: MethodKind) -> u8 {
    match kind {
        MethodKind::Id => 0,
        MethodKind::Score => 1,
        MethodKind::ScoreThreshold => 2,
        MethodKind::Chunk => 3,
        MethodKind::IdTermScore => 4,
        MethodKind::ChunkTermScore => 5,
        MethodKind::ScoreThresholdTermScore => 6,
    }
}

fn method_from_tag(tag: u8) -> Result<MethodKind> {
    Ok(match tag {
        0 => MethodKind::Id,
        1 => MethodKind::Score,
        2 => MethodKind::ScoreThreshold,
        3 => MethodKind::Chunk,
        4 => MethodKind::IdTermScore,
        5 => MethodKind::ChunkTermScore,
        6 => MethodKind::ScoreThresholdTermScore,
        _ => return Err(SvrError::Engine("unknown method tag in catalog".into())),
    })
}

fn encode_index_record(record: &IndexRecord) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    begin_record(&mut buf, INDEX_RECORD_V2);
    write_string(&mut buf, &record.table);
    write_string(&mut buf, &record.text_col);
    buf.push(method_tag(record.method));
    let c = &record.config;
    buf.extend_from_slice(&c.threshold_ratio.to_le_bytes());
    buf.extend_from_slice(&c.chunk_ratio.to_le_bytes());
    write_varint(&mut buf, c.min_chunk_docs as u64);
    write_varint(&mut buf, c.fancy_size as u64);
    buf.extend_from_slice(&c.term_weight.to_le_bytes());
    write_varint(&mut buf, c.page_size as u64);
    write_varint(&mut buf, c.long_cache_pages as u64);
    write_varint(&mut buf, c.small_cache_pages as u64);
    write_varint(&mut buf, c.num_shards as u64);
    write_varint(&mut buf, c.cursor_pool_cap as u64);
    buf.push(c.codec.tag());
    buf
}

fn decode_index_record(raw: &[u8]) -> Result<IndexRecord> {
    let corrupt = || SvrError::Engine("corrupt index catalog record".into());
    let mut pos = 0;
    let version = match record_version(raw, &mut pos) {
        Some(v @ (INDEX_RECORD_V1 | INDEX_RECORD_V2)) => v,
        _ => return Err(corrupt()),
    };
    let table = read_string(raw, &mut pos).ok_or_else(corrupt)?;
    let text_col = read_string(raw, &mut pos).ok_or_else(corrupt)?;
    let method = method_from_tag(*raw.get(pos).ok_or_else(corrupt)?)?;
    pos += 1;
    let f64_at = |pos: &mut usize| -> Result<f64> {
        let end = *pos + 8;
        let bytes = raw.get(*pos..end).ok_or_else(corrupt)?;
        *pos = end;
        Ok(f64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    };
    let threshold_ratio = f64_at(&mut pos)?;
    let chunk_ratio = f64_at(&mut pos)?;
    let min_chunk_docs = read_varint(raw, &mut pos).ok_or_else(corrupt)? as usize;
    let fancy_size = read_varint(raw, &mut pos).ok_or_else(corrupt)? as usize;
    let term_weight = f64_at(&mut pos)?;
    let page_size = read_varint(raw, &mut pos).ok_or_else(corrupt)? as usize;
    let long_cache_pages = read_varint(raw, &mut pos).ok_or_else(corrupt)? as usize;
    let small_cache_pages = read_varint(raw, &mut pos).ok_or_else(corrupt)? as usize;
    let num_shards = read_varint(raw, &mut pos).ok_or_else(corrupt)? as usize;
    let cursor_pool_cap = read_varint(raw, &mut pos).ok_or_else(corrupt)? as usize;
    let codec = if version >= INDEX_RECORD_V2 {
        CodecKind::from_tag(*raw.get(pos).ok_or_else(corrupt)?)?
    } else {
        CodecKind::Legacy
    };
    Ok(IndexRecord {
        table,
        text_col,
        method,
        config: IndexConfig {
            threshold_ratio,
            chunk_ratio,
            min_chunk_docs,
            fancy_size,
            term_weight,
            page_size,
            long_cache_pages,
            small_cache_pages,
            cursor_pool_cap,
            num_shards,
            codec,
        },
    })
}

fn doc_id(pk: i64) -> Result<DocId> {
    u32::try_from(pk)
        .map(DocId)
        .map_err(|_| SvrError::Engine(format!("primary key {pk} out of document-id range")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use svr_relation::schema::ColumnType;

    fn schema(name: &str) -> Schema {
        Schema::new(name, &[("id", ColumnType::Int), ("v", ColumnType::Int)], 0)
    }

    /// `DROP TABLE` must retire the table's writer-lock entry: the map may
    /// not grow across create/drop cycles, and a re-created table gets a
    /// fresh lock.
    #[test]
    fn drop_table_retires_writer_lock_entry() {
        let engine = SvrEngine::new();
        for round in 0..5 {
            engine.create_table(schema("churn")).unwrap();
            engine
                .insert_row("churn", vec![Value::Int(round), Value::Int(1)])
                .unwrap();
            assert!(engine.shared.write_locks.lock().contains_key("churn"));
            engine.drop_table("churn").unwrap();
            assert!(
                !engine.shared.write_locks.lock().contains_key("churn"),
                "stale writer-lock entry after drop (round {round})"
            );
        }
        assert_eq!(engine.shared.write_locks.lock().len(), 0);
    }

    /// A V1 catalog record (written before list codecs existed) must decode
    /// with the Legacy codec — the format those stores were built with.
    #[test]
    fn v1_index_record_decodes_with_legacy_codec() {
        let config = IndexConfig::default();
        let mut raw = Vec::new();
        begin_record(&mut raw, INDEX_RECORD_V1);
        write_string(&mut raw, "movies");
        write_string(&mut raw, "title");
        raw.push(method_tag(MethodKind::Chunk));
        raw.extend_from_slice(&config.threshold_ratio.to_le_bytes());
        raw.extend_from_slice(&config.chunk_ratio.to_le_bytes());
        write_varint(&mut raw, config.min_chunk_docs as u64);
        write_varint(&mut raw, config.fancy_size as u64);
        raw.extend_from_slice(&config.term_weight.to_le_bytes());
        write_varint(&mut raw, config.page_size as u64);
        write_varint(&mut raw, config.long_cache_pages as u64);
        write_varint(&mut raw, config.small_cache_pages as u64);
        write_varint(&mut raw, config.num_shards as u64);
        write_varint(&mut raw, config.cursor_pool_cap as u64);
        // No codec byte: V1 records end here.
        let record = decode_index_record(&raw).unwrap();
        assert_eq!(record.table, "movies");
        assert_eq!(record.method, MethodKind::Chunk);
        assert_eq!(record.config.codec, CodecKind::Legacy);
    }

    /// The current encoder round-trips every codec through the V2 record;
    /// a record carrying a retired codec's tag is refused by name, and an
    /// unknown tag is corruption.
    #[test]
    fn v2_index_record_roundtrips_codec() {
        for codec in CodecKind::ALL {
            let record = IndexRecord {
                table: "movies".into(),
                text_col: "title".into(),
                method: MethodKind::Id,
                config: IndexConfig {
                    codec,
                    ..IndexConfig::default()
                },
            };
            let mut raw = encode_index_record(&record);
            let decoded = decode_index_record(&raw).unwrap();
            assert_eq!(decoded.config.codec, codec);
            *raw.last_mut().unwrap() = 2;
            let Err(err) = decode_index_record(&raw) else {
                panic!("retired codec tag 2 must be refused")
            };
            let err = err.to_string();
            assert!(err.contains("varint") && err.contains("retired"), "{err}");
            *raw.last_mut().unwrap() = 9;
            let Err(err) = decode_index_record(&raw) else {
                panic!("unknown codec tag 9 must be refused")
            };
            assert!(err.to_string().contains("corrupt"), "{err}");
        }
    }
}
