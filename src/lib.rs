//! # svr
//!
//! A full reproduction of *"Efficient Inverted Lists and Query Algorithms
//! for Structured Value Ranking in Update-Intensive Relational Databases"*
//! (Guo, Shanmugasundaram, Beyer, Shekita — ICDE 2005).
//!
//! **Structured Value Ranking (SVR)** scores keyword-search results over a
//! text column using *structured data values* (review averages, visit
//! counts, bids...) instead of — or combined with — classic TF-IDF. Because
//! those values change constantly, the indexes must absorb frequent score
//! updates while still answering top-k queries fast; the paper's Chunk
//! method (and friends) is that index family, implemented in [`svr_core`].
//!
//! This crate is the integration layer (the paper's Figure 2): a relational
//! [`Database`](svr_relation::Database) with materialized score views wired
//! to the inverted-list indexes behind [`SvrEngine`].
//!
//! ```
//! use svr::{SvrEngine, MethodKind, IndexConfig, QueryMode};
//! use svr_relation::schema::{ColumnType, Schema};
//! use svr_relation::{AggExpr, ScoreComponent, SvrSpec, Value};
//!
//! let mut engine = SvrEngine::new();
//! engine.create_table(Schema::new("movies",
//!     &[("mid", ColumnType::Int), ("desc", ColumnType::Text)], 0)).unwrap();
//! engine.create_table(Schema::new("stats",
//!     &[("mid", ColumnType::Int), ("nvisit", ColumnType::Int)], 0)).unwrap();
//!
//! engine.insert_row("movies", vec![Value::Int(1),
//!     Value::Text("footage of the golden gate bridge".into())]).unwrap();
//! engine.insert_row("movies", vec![Value::Int(2),
//!     Value::Text("a golden gate documentary".into())]).unwrap();
//!
//! // Rank by visit count: Agg(s1) = s1.
//! let spec = SvrSpec::single(ScoreComponent::ColumnOf {
//!     table: "stats".into(), key_col: "mid".into(), val_col: "nvisit".into() });
//! engine.create_text_index("movie_search", "movies", "desc", spec,
//!     MethodKind::Chunk, IndexConfig::default()).unwrap();
//!
//! engine.insert_row("stats", vec![Value::Int(1), Value::Int(50)]).unwrap();
//! engine.insert_row("stats", vec![Value::Int(2), Value::Int(9000)]).unwrap();
//!
//! let hits = engine.search("movie_search", "golden gate", 2, QueryMode::Conjunctive).unwrap();
//! assert_eq!(hits[0].row[0], Value::Int(2)); // the popular one wins
//! # let _ = AggExpr::parse("s1"); // silence unused import in doctest
//! ```
//!
//! ## Serving
//!
//! [`server`] (`svr_server`) puts a network front end over a shared
//! engine: a non-blocking TCP server speaking a length-prefixed frame
//! protocol (`Query`/`Exec`/`Fetch`/transactions/`Info`) that multiplexes
//! connections onto per-connection SQL sessions with named-cursor state,
//! admission control and `Busy` load shedding. The serving deployment
//! pairs it with the engine's group-commit amortizations
//! ([`EngineConfig::wal_sync_interval_ms`] and
//! [`EngineConfig::group_refresh`]); see `examples/serving.rs` and the
//! `svr-serve` binary.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub use svr_engine::{
    EngineConfig, QueryRequest, RankedRow, Result, SearchCursor, SvrEngine, SvrError, WriteBatch,
};
pub use svr_sql::{SqlResult, SqlSession};

// Re-export the sub-crates so downstream users need only one dependency.
pub use svr_core::{
    self as core, build_index, IndexConfig, MethodKind, Query, QueryMode, ScoreMap, SearchIndex,
};
pub use svr_engine as engine;
pub use svr_relation as relation;
pub use svr_server as server;
pub use svr_sql as sql;
pub use svr_storage as storage;
pub use svr_text as text;
pub use svr_workload as workload;
