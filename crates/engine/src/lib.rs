//! # svr-engine
//!
//! The integration layer of the SVR reproduction — the architecture of the
//! paper's Figure 2. [`SvrEngine`] owns the relational
//! [`Database`](svr_relation::Database), the text vocabulary and one
//! [`SearchIndex`](svr_core::SearchIndex) per indexed text column:
//!
//! * structured-data mutations flow through the incrementally maintained
//!   materialized Score view, whose change notifications drive the index's
//!   score updates synchronously (paper §3.2/§4.1);
//! * text mutations flow through the Appendix-A content operations;
//! * keyword queries return rows ranked by the *latest* SVR scores.
//!
//! The engine is built for the paper's deployment shape — scores churn
//! constantly while queries keep coming — so it is **shareable**: a
//! [`SvrEngine`] handle is a cheap clone over internally synchronized
//! state, reads take `&self` and scale across threads, and writes go
//! through two lock tiers (a short per-table lock for the row/view
//! mutation, then per-shard index locks for score maintenance) so that
//! same-table writers overlap when the index is sharded
//! (`IndexConfig::num_shards`). Bulk mutations go through [`WriteBatch`] /
//! [`SvrEngine::apply`] with coalesced score propagation applied shard by
//! shard in parallel. The full locking rules live in the module docs of
//! `engine.rs`.
//!
//! ```
//! use svr_engine::SvrEngine;
//! use svr_core::{IndexConfig, MethodKind};
//! use svr_core::types::QueryMode;
//! use svr_relation::schema::{ColumnType, Schema};
//! use svr_relation::{ScoreComponent, SvrSpec, Value};
//!
//! let engine = SvrEngine::new();
//! engine.create_table(Schema::new("movies",
//!     &[("mid", ColumnType::Int), ("desc", ColumnType::Text)], 0)).unwrap();
//! engine.create_table(Schema::new("stats",
//!     &[("mid", ColumnType::Int), ("nvisit", ColumnType::Int)], 0)).unwrap();
//! engine.insert_row("movies", vec![Value::Int(1),
//!     Value::Text("golden gate footage".into())]).unwrap();
//!
//! let spec = SvrSpec::single(ScoreComponent::ColumnOf {
//!     table: "stats".into(), key_col: "mid".into(), val_col: "nvisit".into() });
//! engine.create_text_index("idx", "movies", "desc", spec,
//!     MethodKind::Chunk, IndexConfig::default()).unwrap();
//! engine.insert_row("stats", vec![Value::Int(1), Value::Int(50)]).unwrap();
//!
//! // Queries take &self: clone the handle into any number of threads.
//! let reader = engine.clone();
//! let hits = std::thread::spawn(move || {
//!     reader.search("idx", "golden gate", 10, QueryMode::Conjunctive).unwrap()
//! }).join().unwrap();
//! assert_eq!(hits[0].score, 50.0);
//! ```
//!
//! # Serving
//!
//! Under a network front end (the `svr_server` crate) the engine is one
//! shared handle facing many concurrent writers, and the per-write
//! durability and maintenance costs dominate. Two [`EngineConfig`]
//! knobs amortize them, both group-commit shaped:
//!
//! * [`EngineConfig::wal_sync_interval_ms`] — **interval group-sync of
//!   WAL commit markers.** `0` (the default) fsyncs every commit marker:
//!   an acknowledged transaction is on disk. A positive interval fsyncs
//!   at most once per interval; the markers in between are acknowledged
//!   once *logged*, so one fsync absorbs every commit in the window.
//!   The durability window this opens is well-formed **per store**: each
//!   store's log is append-only, so recovery lands every store on a
//!   *prefix* of its own acknowledged commits — never a torn or reordered
//!   state (proptested in `tests/group_sync_crash.rs`, which syncs every
//!   log at the cut). It is not an engine-wide prefix: every store keeps
//!   its own sync clock, so a crash can cut a table and an index shard at
//!   different transactions. Nor is it bounded in time: a store syncs
//!   only when it commits, so "at most the last interval" holds only
//!   while commits keep arriving; [`SvrEngine::checkpoint`] or a zero
//!   interval closes the window.
//! * [`EngineConfig::group_refresh`] — **group-commit drain of queued
//!   score refreshes.** Concurrent writers queue their index refresh
//!   batches; whichever writer wins the shard's writer lock drains the
//!   whole queue under that one hold before releasing. Writers block
//!   until their batch is applied (acknowledged writes are always
//!   visible), but N writers pay one lock hold instead of N.
//!
//! [`SvrEngine::contention_stats`] exposes the counters behind both
//! (fsyncs paid vs skipped, refresh batches drained); the server's
//! `Info` command forwards them over the wire, and the wall-clock
//! benchmark's `serving_mixed` workload reports the throughput they buy.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod engine;
mod error;

pub use engine::{
    ContentionStats, EngineConfig, QueryRequest, RankedRow, SearchCursor, SvrEngine, WriteBatch,
    WriteOp, SYS_INDEXES_STORE, SYS_VOCAB_STORE,
};
pub use error::{Result, SvrError};
pub use svr_storage::{lock_stats, LockClass, LockClassStats, LockStats};
