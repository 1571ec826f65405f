//! # svr-text
//!
//! Text-management substrate for the SVR reproduction: tokenization,
//! vocabulary interning, document representation, posting-list codecs and
//! term scoring (normalized TF × IDF). This is the plumbing the paper's
//! "text management component" (extender / cartridge / data blade) needs
//! underneath the index structures of `svr-core`.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod document;
pub mod postings;
pub mod termscore;
pub mod tokenizer;
pub mod vocabulary;

pub use document::{DocId, Document};
pub use postings::{
    ChunkGroup, ChunkedPostingsIter, IdPostingsIter, PostingsBuilder, TermScoredPosting,
};
pub use termscore::{idf, normalized_tf, quantize_term_score, unquantize_term_score};
pub use tokenizer::tokenize;
pub use vocabulary::{TermId, Vocabulary};
