//! # svr-sql
//!
//! A SQL front end for the SVR engine, implementing the paper's SQL-based
//! framework for specifying Structured Value Ranking (§3.1) and the SQL/MM
//! query form of its Figure 1.
//!
//! The dialect supports:
//!
//! * `CREATE TABLE` / `INSERT` / `UPDATE` / `DELETE` over the relational
//!   substrate;
//! * `CREATE FUNCTION S1 (id INT) RETURNS FLOAT RETURN SELECT AVG(r.rating)
//!   FROM reviews r WHERE r.mid = id` — SQL-bodied scoring components;
//! * `CREATE FUNCTION agg (s1 FLOAT, ...) RETURNS FLOAT RETURN (s1*100 +
//!   s2/2 + s3)` — the `Agg` combinator;
//! * `CREATE TEXT INDEX idx ON movies(description) SCORE WITH (S1, S2, S3
//!   [, TFIDF()]) AGGREGATE WITH agg [USING METHOD CHUNK] [OPTIONS (...)]`;
//! * `SELECT * FROM movies m [WHERE CONTAINS(desc, 'kw', ANY)] ORDER BY
//!   SCORE(m.desc, "golden gate") FETCH TOP 10 RESULTS ONLY` — ranked
//!   keyword search over the latest structured-data scores;
//! * multi-term predicates and ranking: infix `WHERE desc CONTAINS ALL
//!   ('golden', 'gate')` / `CONTAINS ANY ('city', 'bridge')` and
//!   multi-keyword `RANK BY desc ('golden', 'gate', 'bridge') [DESC]`
//!   (disjunctive: unknown keywords are dropped; `CONTAINS ALL` with an
//!   unknown keyword matches nothing, without error). Multi-term queries
//!   run the block-max WAND executor on doc-ordered methods — whole
//!   posting blocks are skipped undecoded when they cannot beat the
//!   current top-k threshold (`EXPLAIN` shows `blocks: N skipped, M
//!   decoded`) — and paginate through the same any-k cursors as
//!   single-term queries;
//! * pagination over the ranked path: `LIMIT k OFFSET m`, `OFFSET m ROWS
//!   FETCH NEXT k ROWS ONLY` (the offset plans onto a resumable cursor —
//!   the prefix is traversed once, not recomputed), and named cursors
//!   `DECLARE c CURSOR FOR SELECT ... ORDER BY SCORE(...)` /
//!   `FETCH [NEXT] n FROM c` / `CLOSE c` whose suspended state lives in
//!   the session, so consecutive fetches never re-pay earlier pages;
//! * `MERGE TEXT INDEX idx` — the offline short-list merge;
//! * transactions: `BEGIN [TRANSACTION]` accumulates the session's
//!   `INSERT`/`UPDATE`/`DELETE` statements, `COMMIT` applies them as one
//!   **atomic** engine [`WriteBatch`](svr_engine::WriteBatch) (a failing
//!   operation rolls the whole batch back, leaving no observable trace),
//!   and `ROLLBACK` discards them. Visibility is *deferred*: queued DML is
//!   invisible to every read — including this session's own — until
//!   `COMMIT` (no reads-your-own-writes). DDL inside a transaction is
//!   rejected. Named cursors are capped per session
//!   ([`session::DEFAULT_CURSOR_LIMIT`], see
//!   [`SqlSession::set_cursor_limit`]); `CLOSE ALL` drops every cursor,
//!   and an optional idle TTL ([`SqlSession::set_cursor_ttl`], off by
//!   default) expires cursors a client forgot: expired cursors are swept
//!   on session activity and a later `FETCH` reports a clean expiry error
//!   instead of "unknown cursor".
//!
//! ## Durability
//!
//! A session is a front end over whatever engine it wraps. Wrap a
//! **durable** engine (`SvrEngine::create` / `SvrEngine::open` /
//! `SvrEngine::open_path`) and every DDL statement above writes through to
//! the engine's system catalogs: after a crash, `SvrEngine::open` recovers
//! tables, scoring functions' effects (the score views), text indexes and
//! the vocabulary, and a fresh `SqlSession::with_engine` attaches to the
//! recovered engine unchanged — same rankings, same `score_of`, no
//! re-indexing. `DROP TABLE` / `DROP TEXT INDEX` also delete the persisted
//! records and backing stores, so a reopen cannot resurrect dropped
//! objects. (Session-scoped state — `CREATE FUNCTION` definitions, named
//! cursors, open transactions — lives with the session, not the engine:
//! re-issue `CREATE FUNCTION`s in new sessions; indexes already built from
//! them are self-contained.)
//!
//! ```
//! use svr_sql::SqlSession;
//!
//! let mut session = SqlSession::new();
//! session.execute_script(r#"
//!     CREATE TABLE movies (mid INT PRIMARY KEY, name TEXT, description TEXT);
//!     CREATE TABLE reviews (rid INT PRIMARY KEY, mid INT, rating FLOAT);
//!
//!     CREATE FUNCTION avg_rating (id INT) RETURNS FLOAT
//!         RETURN SELECT AVG(r.rating) FROM reviews r WHERE r.mid = id;
//!     CREATE FUNCTION weigh (s1 FLOAT) RETURNS FLOAT RETURN s1 * 100;
//!
//!     CREATE TEXT INDEX movie_idx ON movies(description)
//!         SCORE WITH (avg_rating) AGGREGATE WITH weigh USING METHOD CHUNK;
//!
//!     INSERT INTO movies VALUES
//!         (1, 'American Thrift', 'classic golden gate commute footage'),
//!         (2, 'Amateur Film',    'amateur golden gate shots');
//!     INSERT INTO reviews VALUES (100, 1, 4.5), (101, 1, 5.0), (102, 2, 1.0);
//! "#).unwrap();
//!
//! let top = session.execute(
//!     r#"SELECT name FROM movies ORDER BY SCORE(description, "golden gate")
//!        FETCH TOP 1 RESULTS ONLY"#).unwrap();
//! // American Thrift: avg rating 4.75 → score 475.
//! assert_eq!(top.row_count(), 1);
//! ```

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod session;

pub use error::{Result, SqlError};
pub use parser::{parse_script, parse_statement};
pub use session::{SqlResult, SqlSession, DEFAULT_CURSOR_LIMIT};
