//! The system under test as one workload configures it: a file-backed
//! engine in a directory under `benchmark/out/`, built from generated SQL,
//! plus the crash → reopen step and the counter snapshots the trace pass
//! takes deltas of.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use svr_core::ShardStats;
use svr_engine::{EngineConfig, SvrEngine};
use svr_relation::Value;
use svr_sql::{SqlResult, SqlSession};
use svr_storage::{StorageEnv, Store, WalStats};

use crate::corpus::{Corpus, QueryKind, QueryOp, Shape};
use crate::oracle::Ranking;

pub const INDEX: &str = "idx";

/// Group-sync interval while bulk loading: the load is one transaction and
/// one index build, so nothing is acknowledged before the final checkpoint;
/// the workload's own flush policy is switched on after it.
const BULK_LOAD_SYNC_MS: u64 = 1_000;

/// One workload's fixed configuration. Sizes are recorded in
/// `BENCHMARK.json`'s `why` lines and printed with every run.
/// What a workload's measured window is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// Half the corpus in unmerged updates, then reads with an update
    /// trickle.
    ReadsOverDebt,
    /// Reads whose working set exceeds the pool, with an update trickle.
    ColdReads,
    /// Updates with maintenance inside the window, and a share of reads.
    Writes,
    /// Two connections to a server, 4 updates : 1 ranked query each.
    Serving,
    /// Acknowledged writes → crash → timed reopen → verification.
    CrashCycles,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub window: Window,
    pub shape: Shape,
    pub queries: QueryKind,
    /// SQL method name of `CREATE TEXT INDEX ... USING METHOD`.
    pub method: &'static str,
    /// `OPTIONS (...)` body: codec, shards, pool sizes.
    pub index_options: &'static str,
    /// Weight of `TFIDF()` in the aggregate; 0 = pure structured ranking.
    pub term_weight: f64,
    /// Flush policy: WAL group-sync interval (0 = fsync every commit).
    pub wal_sync_interval_ms: u64,
    pub group_refresh: bool,
    /// Closed-loop client threads (and connections).
    pub clients: usize,
}

impl Spec {
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            wal_sync_interval_ms: self.wal_sync_interval_ms,
            group_refresh: self.group_refresh,
            ..EngineConfig::default()
        }
    }

    pub fn flush_policy(&self) -> String {
        format!(
            "wal_sync_interval_ms={} wal_checkpoint_bytes={} group_refresh={}",
            self.wal_sync_interval_ms,
            EngineConfig::default().wal_checkpoint_bytes,
            self.group_refresh
        )
    }
}

pub struct System {
    pub dir: PathBuf,
    pub engine: SvrEngine,
    pub session: SqlSession,
}

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl System {
    /// Load `corpus` through SQL into a fresh engine at `dir` and build the
    /// text index; ends checkpointed, under the workload's flush policy.
    /// `plain_twin` also loads `plain`, an unindexed copy of `stats` that
    /// only the ladder's relational rung touches.
    pub fn build(
        spec: &Spec,
        corpus: &Corpus,
        dir: &Path,
        plain_twin: bool,
    ) -> Result<System, String> {
        let _ = std::fs::remove_dir_all(dir);
        let engine = SvrEngine::open_path_with(
            dir,
            EngineConfig {
                wal_sync_interval_ms: BULK_LOAD_SYNC_MS,
                ..spec.engine_config()
            },
        )
        .map_err(text)?;
        let session = SqlSession::with_engine(engine.clone());
        let run = |sql: &str| session.execute(sql).map_err(|e| format!("{sql:.80}: {e}"));
        run("CREATE TABLE docs (id INT PRIMARY KEY, body TEXT)")?;
        run("CREATE TABLE stats (id INT PRIMARY KEY, nvisit INT)")?;
        if plain_twin {
            run("CREATE TABLE plain (id INT PRIMARY KEY, nvisit INT)")?;
        }
        run("CREATE FUNCTION S (id INT) RETURNS FLOAT \
             RETURN SELECT st.nvisit FROM stats st WHERE st.id = id")?;
        run("BEGIN")?;
        for (id, terms) in corpus.docs.iter().enumerate() {
            let (id, score) = (id as u32, corpus.scores[id]);
            run(&Corpus::insert_doc_sql(id, terms))?;
            run(&Corpus::insert_stats_sql(id, score))?;
            if plain_twin {
                run(&format!("INSERT INTO plain VALUES ({id}, {score})"))?;
            }
        }
        run("COMMIT")?;
        let score_with = if spec.term_weight > 0.0 {
            run(&format!(
                "CREATE FUNCTION agg (s1 FLOAT, s2 FLOAT) RETURNS FLOAT \
                 RETURN (s1 + {} * s2)",
                spec.term_weight
            ))?;
            "(S, TFIDF()) AGGREGATE WITH agg"
        } else {
            "(S)"
        };
        run(&format!(
            "CREATE TEXT INDEX {INDEX} ON docs(body) SCORE WITH {score_with} \
             USING METHOD {} OPTIONS ({})",
            spec.method, spec.index_options
        ))?;
        engine.checkpoint().map_err(text)?;
        engine.set_wal_sync_interval_ms(spec.wal_sync_interval_ms);
        Ok(System {
            dir: dir.to_path_buf(),
            engine,
            session,
        })
    }

    pub fn env(&self) -> Arc<StorageEnv> {
        self.engine
            .env()
            .expect("file-backed engine has an environment")
            .clone()
    }

    /// Run a ranked statement in-process: `(id, score)` rows.
    pub fn ranked(&self, query: &QueryOp) -> Result<Ranking, String> {
        ranking_of(self.session.execute(&query.sql).map_err(text)?)
    }

    /// Crash, then time `SvrEngine::open_path_with` plus `first` (the first
    /// ranked answer). Under a positive group-sync interval the logs are
    /// synced first: the acknowledged writes the caller then checks are the
    /// ones the policy promises. `crash_unsynced` drops every buffer pool,
    /// so pages that were only in memory are discarded by the test itself
    /// (the process stays alive, which would otherwise keep them).
    pub fn crash_and_reopen(
        self,
        spec: &Spec,
        first: &QueryOp,
    ) -> Result<(System, f64, Ranking), String> {
        let System {
            dir,
            engine,
            session,
        } = self;
        let env = engine
            .env()
            .expect("file-backed engine has an environment")
            .clone();
        if spec.wal_sync_interval_ms > 0 {
            env.sync_all_wals().map_err(text)?;
        }
        env.crash_unsynced();
        drop(session);
        drop(engine);
        drop(env);
        let start = Instant::now();
        let engine = SvrEngine::open_path_with(&dir, spec.engine_config()).map_err(text)?;
        let session = SqlSession::with_engine(engine.clone());
        let system = System {
            dir,
            engine,
            session,
        };
        let answer = system.ranked(first)?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        Ok((system, ms, answer))
    }

    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.engine
            .index_shard_stats(INDEX)
            .expect("the benchmark index exists")
    }

    /// Long-list bytes per long posting — the space side of the
    /// read/write/space triangle.
    pub fn index_bytes_per_posting(&self) -> f64 {
        let stats = self.shard_stats();
        let bytes: u64 = stats.iter().map(|s| s.long_list_bytes).sum();
        let postings: u64 = stats.iter().map(|s| s.long_postings).sum();
        bytes as f64 / postings.max(1) as f64
    }

    /// `(pages the long lists occupy, pool pages available to them)`.
    pub fn long_pages_vs_pool(&self) -> (u64, u64) {
        let config = self
            .engine
            .index_config(INDEX)
            .expect("the benchmark index exists");
        let bytes: u64 = self.shard_stats().iter().map(|s| s.long_list_bytes).sum();
        let pages = bytes.div_ceil(self.env().page_size() as u64);
        (
            pages,
            (config.long_cache_pages * config.num_shards.max(1)) as u64,
        )
    }
}

pub fn ranking_of(result: SqlResult) -> Result<Ranking, String> {
    let SqlResult::Ranked { rows, .. } = result else {
        return Err("ranked statement returned a non-ranked result".into());
    };
    rows.iter()
        .map(|r| match r.row.first() {
            Some(Value::Int(id)) => Ok((*id, r.score)),
            other => Err(format!("ranked row without an integer id: {other:?}")),
        })
        .collect()
}

fn is_long_store(name: &str) -> bool {
    name.starts_with("idx/") && name.ends_with(svr_core::store_names::LONG)
}

/// Monotone counters of one engine lifetime, read through existing public
/// snapshots. (Lock counters are process-wide and read separately.)
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub fsyncs: u64,
    pub fsync_skips: u64,
    pub refresh_applied: u64,
    pub refresh_drain_holds: u64,
    pub blocks_skipped: u64,
    pub blocks_decoded: u64,
    pub pages_written: u64,
    pub long_pages_read: u64,
    pub long_hits: u64,
    pub long_misses: u64,
    pub small_hits: u64,
    pub small_misses: u64,
}

impl Counters {
    pub fn read(system: &System) -> Counters {
        let contention = system.engine.contention_stats();
        let seek = system.engine.seek_stats();
        let mut c = Counters {
            fsyncs: contention.wal.syncs,
            fsync_skips: contention.wal.sync_skips,
            refresh_applied: contention.refresh.applied,
            refresh_drain_holds: contention.refresh.drain_holds,
            blocks_skipped: seek.blocks_skipped,
            blocks_decoded: seek.blocks_decoded,
            ..Counters::default()
        };
        let env = system.env();
        for name in env.store_names() {
            let Some(store) = env.store(&name) else {
                continue;
            };
            let (io, cache) = (store.io_stats(), store.cache_stats());
            c.pages_written += io.pages_written;
            if is_long_store(&name) {
                c.long_pages_read += io.pages_read;
                c.long_hits += cache.hits;
                c.long_misses += cache.misses;
            } else {
                c.small_hits += cache.hits;
                c.small_misses += cache.misses;
            }
        }
        c
    }

    /// `self + (now - base)`, field by field.
    fn plus_delta(&self, now: &Counters, base: &Counters) -> Counters {
        let f = |acc: u64, now: u64, base: u64| acc + now.saturating_sub(base);
        Counters {
            fsyncs: f(self.fsyncs, now.fsyncs, base.fsyncs),
            fsync_skips: f(self.fsync_skips, now.fsync_skips, base.fsync_skips),
            refresh_applied: f(
                self.refresh_applied,
                now.refresh_applied,
                base.refresh_applied,
            ),
            refresh_drain_holds: f(
                self.refresh_drain_holds,
                now.refresh_drain_holds,
                base.refresh_drain_holds,
            ),
            blocks_skipped: f(self.blocks_skipped, now.blocks_skipped, base.blocks_skipped),
            blocks_decoded: f(self.blocks_decoded, now.blocks_decoded, base.blocks_decoded),
            pages_written: f(self.pages_written, now.pages_written, base.pages_written),
            long_pages_read: f(
                self.long_pages_read,
                now.long_pages_read,
                base.long_pages_read,
            ),
            long_hits: f(self.long_hits, now.long_hits, base.long_hits),
            long_misses: f(self.long_misses, now.long_misses, base.long_misses),
            small_hits: f(self.small_hits, now.small_hits, base.small_hits),
            small_misses: f(self.small_misses, now.small_misses, base.small_misses),
        }
    }
}

/// What the logs gained, metered by polling (see [`Probes`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct WalGain {
    pub bytes: u64,
    pub records: u64,
    pub checkpoints: u64,
}

/// Counter bookkeeping of the traced pass. The counters above restart with
/// every engine lifetime, so a window that crashes and reopens folds each
/// lifetime's delta into a running total.
///
/// `WalStats::bytes/records` describe the *current* log and fall back to
/// zero at every checkpoint, so what the logs gained is metered by polling
/// each store's log between operations: a log that shrank was truncated by
/// a checkpoint (counted), and what it holds now was appended since.
pub struct Probes {
    base: Counters,
    total: Counters,
    logs: Vec<(Arc<Store>, WalStats)>,
    wal: WalGain,
}

fn logs_of(system: &System) -> Vec<(Arc<Store>, WalStats)> {
    let env = system.env();
    env.store_names()
        .iter()
        .filter_map(|n| env.store(n))
        .filter_map(|s| {
            let stats = s.wal()?.stats();
            Some((s, stats))
        })
        .collect()
}

impl Probes {
    pub fn start(system: &System) -> Probes {
        Probes {
            base: Counters::read(system),
            total: Counters::default(),
            logs: logs_of(system),
            wal: WalGain::default(),
        }
    }

    /// Fold in what every log gained since the previous poll.
    pub fn poll_wal(&mut self) {
        for (store, last) in &mut self.logs {
            let Some(wal) = store.wal() else { continue };
            let now = wal.stats();
            if now.bytes >= last.bytes {
                self.wal.bytes += now.bytes - last.bytes;
                self.wal.records += now.records - last.records;
            } else {
                self.wal.checkpoints += 1;
                self.wal.bytes += now.bytes;
                self.wal.records += now.records;
            }
            *last = now;
        }
    }

    /// Close the current engine lifetime (before a crash, or at the end).
    pub fn fold(&mut self, system: &System) {
        self.poll_wal();
        let now = Counters::read(system);
        self.total = self.total.plus_delta(&now, &self.base);
        self.base = now;
    }

    /// Follow the system into its next lifetime.
    pub fn rebase(&mut self, system: &System) {
        self.base = Counters::read(system);
        self.logs = logs_of(system);
    }

    pub fn finish(mut self, system: &System) -> (Counters, WalGain) {
        self.fold(system);
        (self.total, self.wal)
    }
}
