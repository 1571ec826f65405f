//! # svr-server
//!
//! Network serving front end for the SVR engine: the update-intensive
//! workloads the paper targets (stock tickers, auction houses, web
//! archives) are *served* workloads — many concurrent clients issuing
//! short ranked queries against data that never stops changing. This
//! crate puts that serving layer over
//! [`SvrEngine`](svr_engine::SvrEngine):
//!
//! * **[`Server`]** — a non-blocking readiness loop (no async runtime;
//!   see [`poll`]) multiplexing thousands of TCP connections onto one
//!   shared engine, with a per-connection
//!   [`SqlSession`](svr_sql::SqlSession) carrying named cursors and the
//!   open transaction, a worker pool for SQL execution, admission
//!   control, and `Busy` load-shedding — every overload answer is an
//!   explicit frame, never a silent drop.
//! * **[`frame`] / [`protocol`]** — a length-prefixed binary frame
//!   protocol with JSON bodies: `Query`, `Exec`, `Fetch` (resumable
//!   ranked enumeration over server-side cursors), `Begin`/`Commit`/
//!   `Rollback`, `Ping`, `Info` (contention counters) and `Close`.
//! * **[`Client`]** — a blocking client with explicit `send`/`recv`
//!   halves for pipelining.
//!
//! The serving pressure this front end generates is what the engine's
//! group-commit write amortizations are for: the WAL's interval
//! group-sync (`EngineConfig::wal_sync_interval_ms`) acknowledges many
//! commits per fsync, and group-commit refresh draining
//! (`EngineConfig::group_refresh`) lets the writer holding a shard's
//! refresh lock apply the score-refresh batches other writers queued
//! behind it. The `Info` command exposes both amortizations' counters.
//!
//! ```no_run
//! use svr_engine::SvrEngine;
//! use svr_server::{Client, Server, ServerConfig};
//!
//! let handle = Server::start(SvrEngine::new(), ServerConfig::default()).unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! client.exec("CREATE TABLE t (id INT, label TEXT)").unwrap();
//! client.exec("INSERT INTO t VALUES (1, 'hello')").unwrap();
//! let rows = client.query("SELECT label FROM t").unwrap();
//! assert_eq!(rows.rows.len(), 1);
//! ```

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod client;
pub mod error;
pub mod frame;
pub mod json;
#[allow(unsafe_code)]
pub mod poll;
pub mod protocol;
pub mod server;

pub use client::{Client, ResultSet};
pub use error::{Result, ServerError};
pub use frame::{Frame, FrameError, MAX_FRAME_BODY};
pub use json::Json;
pub use protocol::{Request, Response};
pub use server::{Server, ServerConfig, ServerHandle, ServerStats};
