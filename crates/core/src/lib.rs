//! # svr-core
//!
//! The primary contribution of *"Efficient Inverted Lists and Query
//! Algorithms for Structured Value Ranking in Update-Intensive Relational
//! Databases"* (Guo, Shanmugasundaram, Beyer, Shekita — ICDE 2005): a family
//! of inverted-list indexes and top-k query algorithms that stay fast when
//! document scores change frequently.
//!
//! The methods (one [`MethodKind`] each, all behind the [`SearchIndex`]
//! trait object [`build_index`] returns):
//!
//! * [`MethodKind::Id`] — classic ID-ordered lists; O(1) score updates,
//!   full-scan queries;
//! * [`MethodKind::Score`] — score-ordered lists; early-terminating
//!   queries, ruinous updates;
//! * [`MethodKind::ScoreThreshold`] — score-ordered long + short lists
//!   with a threshold ratio trading update for query time (Algorithms 1-2);
//! * [`MethodKind::Chunk`] — the paper's headline index: chunked,
//!   score-free long lists with a chunk-ratio knob;
//! * [`MethodKind::IdTermScore`] / [`MethodKind::ChunkTermScore`] — the
//!   combined SVR + term-score variants (Algorithm 3, fancy lists), plus
//!   the [`MethodKind::ScoreThresholdTermScore`] extension.
//!
//! See the [`methods`] module docs for how the method files and the one
//! shared index body fit together.
//!
//! ```
//! use std::collections::HashMap;
//! use svr_core::{build_index, IndexConfig, MethodKind, Query};
//! use svr_core::types::{DocId, Document, TermId};
//!
//! let docs = vec![
//!     Document::from_term_freqs(DocId(1), [(TermId(1), 1), (TermId(2), 1)]),
//!     Document::from_term_freqs(DocId(2), [(TermId(1), 2)]),
//! ];
//! let scores = HashMap::from([(DocId(1), 10.0), (DocId(2), 90.0)]);
//! let index = build_index(MethodKind::Chunk, &docs, &scores, &IndexConfig::default()).unwrap();
//!
//! // Doc 2 wins on its structured-value score...
//! let hits = index.query(&Query::conjunctive([TermId(1)], 1)).unwrap();
//! assert_eq!(hits[0].doc, DocId(2));
//!
//! // ...until doc 1's popularity explodes.
//! index.update_score(DocId(1), 5000.0).unwrap();
//! let hits = index.query(&Query::conjunctive([TermId(1)], 1)).unwrap();
//! assert_eq!(hits[0].doc, DocId(1));
//! ```
//!
//! ## Storage format
//!
//! Long inverted lists are stored per-index in one of two codecs
//! ([`CodecKind`], selected via `IndexConfig::codec` / SQL
//! `OPTIONS (codec = ...)`): the flat `legacy` layout, or the
//! block-structured `bitpacked` codec, which groups postings into
//! fixed-size blocks carrying skip metadata (max doc id, max term score,
//! max SVR score, posting count). See the [`codec`]
//! module docs for the byte-level layout, the skip-metadata contract, and
//! the codec-versioning rules.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod aux_table;
pub mod byte_stream;
pub mod chunk_map;
pub mod codec;
pub mod config;
pub mod cursor;
pub mod doc_store;
pub(crate) mod doc_table;
pub(crate) mod durable;
pub mod error;
pub mod heap;
pub mod long_list;
pub mod maintenance;
pub mod merge;
pub mod methods;
pub mod multiterm;
pub mod oracle;
pub mod score_table;
pub mod short_list;
pub mod types;

pub use chunk_map::ChunkMap;
pub use codec::CodecKind;
pub use config::IndexConfig;
pub use cursor::MethodCursor;
pub use error::{CoreError, Result};
pub use methods::{
    build_index, build_index_at, open_index_at, shard_of_doc, store_names, IndexLocation,
    MethodKind, RefreshGroupStats, ScoreMap, SearchIndex, Seq, ShardStats,
};
pub use multiterm::SeekStats;
pub use oracle::Oracle;
pub use types::{Query, QueryMode, SearchHit};
