//! The traced pass (`--trace 1`): per-layer metrics measured from outside.
//!
//! Three parts share the window:
//!
//! 1. the workload's own loop, untraced then traced — `trace.overhead_share`
//!    is the difference of their medians, and the counter metrics are
//!    deltas of existing public snapshots over the traced loop;
//! 2. the *subtractive ladder*: the same statement stream issued at
//!    successive public entry points (`Client` → `SqlSession` → `SvrEngine`
//!    → `SearchIndex` / `Database`), each rung a span whose parent is the
//!    rung above, so an upper rung's self time is its duration minus the
//!    rungs below it;
//! 3. storage rungs called directly (`Store::read_page`, `BlobStore`,
//!    `sync_all_wals`, `checkpoint`, recovery, `open_index_at`).
//!
//! Limits, stated once: self time by subtraction ignores overlap and cache
//! warming between rungs (rung order rotates per operation to spread it);
//! counters compare two versions of the program, they are not speeds.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use svr_core::types::{DocId, Document, Query, TermId};
use svr_core::{build_index_at, open_index_at, IndexLocation, ScoreMap, SearchIndex};
use svr_engine::QueryRequest;
use svr_relation::Value;
use svr_server::protocol::{encode_request, parse_request, result_to_json};
use svr_server::{frame, Client, Request, Response, Server, ServerConfig};
use svr_sql::parse_statement;
use svr_storage::{lock_stats, BlobStore, LockClass, StorageEnv};

use crate::corpus::{QueryOp, UpdateOp, TOP_K};
use crate::report::Metric;
use crate::system::{Probes, Window, INDEX};
use crate::trace::{median, Trace};
use crate::workloads::{Budget, Run, RunConfig};

/// Shares of `--seconds`: the untraced loop, the traced loop, the query
/// ladder and the update ladder.
const UNTRACED_SHARE: f64 = 0.2;
const TRACED_SHARE: f64 = 0.2;
const QUERY_LADDER_SHARE: f64 = 0.35;
const UPDATE_LADDER_SHARE: f64 = 0.25;

/// Store-name prefix of the index-only twin the `update_score` rung writes.
const TWIN_PREFIX: &str = "twin/";
const BLOB_BYTES: usize = 1 << 20;
/// Updates between the last checkpoint and the crash of the recovery rung.
const RECOVERY_WRITES: usize = 200;

/// Median duration of the spans called `rung`, in microseconds times
/// `scale`.
fn rung_median(trace: &Trace, metric: &str, unit: &'static str, rung: &str, scale: f64) -> Metric {
    let mut d = trace.durations_us(rung);
    Metric::of(metric, unit, median(&mut d) * scale, d.len())
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Pool hit rate; a pool nothing read from missed nothing (the B+-trees'
/// decoded-node cache sits in front of the small stores' pools).
fn hit_rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        1.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Medians of the workload loop, for the overhead comparison.
fn loop_medians(run: &mut Run) -> (f64, usize, f64, usize) {
    let (q, u) = (&mut run.out.query_ms, &mut run.out.update_ms);
    (median(q), q.len(), median(u), u.len())
}

fn clear_samples(run: &mut Run) {
    let out = &mut run.out;
    for v in [
        &mut out.query_ms,
        &mut out.update_ms,
        &mut out.reopen_ms,
        &mut out.merge_ms,
    ] {
        v.clear();
    }
    (out.query_phase_s, out.update_phase_s) = (0.0, 0.0);
}

pub fn traced_run(run: &mut Run, cfg: &RunConfig, out: &Path) -> Result<Vec<Metric>, String> {
    let mut m: Vec<Metric> = Vec::new();
    let share = |s: f64| RunConfig {
        seconds: cfg.seconds * s,
        ops: cfg.ops.map(|n| ((n as f64 * s) as u64).max(1)),
        ..cfg.clone()
    };

    // 1a. The workload's loop, untraced.
    run.window(&share(UNTRACED_SHARE));
    let (q_plain, _, u_plain, _) = loop_medians(run);
    clear_samples(run);
    // Start the traced loop from the same merged state the untraced one had.
    run.sys()
        .engine
        .run_maintenance(INDEX)
        .map_err(|e| e.to_string())?;

    // 1b. The same loop with a span per operation and the counters read
    // around it.
    run.trace = Some(Trace::new());
    run.probes = Some(Probes::start(run.sys()));
    let locks_before = lock_stats();
    let window_start = Instant::now();
    run.window(&share(TRACED_SHARE));
    let window_s = window_start.elapsed().as_secs_f64();
    let locks = lock_stats().delta_since(&locks_before);
    let probes = run.probes.take().expect("set above");
    let (counters, wal) = probes.finish(run.sys());
    let (q_traced, queries, u_traced, updates) = loop_medians(run);
    let (queries, updates) = (queries as u64, updates as u64);
    // Overhead on the operation the loop issued most.
    let overhead = if queries >= updates {
        (q_traced - q_plain) / q_plain
    } else {
        (u_traced - u_plain) / u_plain
    };
    m.push(Metric::new("trace.overhead_share", "ratio", overhead));

    for class in LockClass::ALL {
        let c = locks.class(class);
        m.push(Metric::new(
            &format!("lock.{}.wait_us", class.name()),
            "us",
            c.wait_nanos as f64 / 1e3,
        ));
    }
    for class in [LockClass::Table, LockClass::Shard] {
        m.push(Metric::new(
            &format!("lock.{}.contended", class.name()),
            "count",
            locks.class(class).contended as f64,
        ));
    }
    m.push(Metric::new(
        "svr_engine.refresh_drained_share",
        "ratio",
        ratio(
            counters
                .refresh_applied
                .saturating_sub(counters.refresh_drain_holds),
            counters.refresh_applied,
        ),
    ));
    m.push(Metric::new(
        "svr_core.blocks_decoded_per_query",
        "count",
        ratio(counters.blocks_decoded, queries),
    ));
    m.push(Metric::new(
        "svr_core.blocks_skipped_per_query",
        "count",
        ratio(counters.blocks_skipped, queries),
    ));
    m.push(Metric::new(
        "svr_core.skip_ratio",
        "ratio",
        ratio(
            counters.blocks_skipped,
            counters.blocks_skipped + counters.blocks_decoded,
        ),
    ));
    m.push(Metric::new(
        "svr_storage.pool_hit_rate",
        "ratio",
        hit_rate(counters.long_hits, counters.long_misses),
    ));
    m.push(Metric::new(
        "svr_storage.pool_hit_rate_small",
        "ratio",
        hit_rate(counters.small_hits, counters.small_misses),
    ));
    m.push(Metric::new(
        "svr_storage.pages_read_per_query",
        "count",
        ratio(counters.long_pages_read, queries),
    ));
    for (name, unit, total) in [
        ("svr_storage.wal_bytes_per_update", "B", wal.bytes),
        ("svr_storage.wal_records_per_update", "count", wal.records),
        ("svr_storage.fsyncs_per_update", "count", counters.fsyncs),
        (
            "svr_storage.fsync_skips_per_update",
            "count",
            counters.fsync_skips,
        ),
        (
            "svr_storage.pages_written_per_update",
            "count",
            counters.pages_written,
        ),
    ] {
        m.push(Metric::new(name, unit, ratio(total, updates)));
    }
    m.push(Metric::new(
        "svr_storage.checkpoints",
        "count",
        wal.checkpoints as f64,
    ));
    let short: u64 = run
        .sys()
        .shard_stats()
        .iter()
        .map(|s| s.short_postings)
        .sum();
    m.push(Metric::new(
        "svr_core.short_postings",
        "count",
        short as f64,
    ));

    // Merges inside the window (score_update), else one merge of the debt
    // the window left.
    let merge_share = run.out.merge_ms.iter().fold(0.0, |a, ms| a + ms) / 1e3 / window_s;
    if run.out.merge_ms.is_empty() {
        let start = Instant::now();
        run.sys()
            .engine
            .run_maintenance(INDEX)
            .map_err(|e| e.to_string())?;
        run.out.merge_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    m.push(Metric::of(
        "svr_core.merge_ms",
        "ms",
        median(&mut run.out.merge_ms),
        run.out.merge_ms.len(),
    ));
    m.push(Metric::new("svr_core.merge_share", "ratio", merge_share));

    // 2. The ladder, over a one-connection server on the same engine.
    let mut trace = run.trace.take().expect("set above");
    let mut handle = Server::start(run.sys().engine.clone(), ServerConfig::default())
        .map_err(|e| e.to_string())?;
    let mut client = Client::connect(handle.addr()).map_err(|e| e.to_string())?;
    let ladder = query_ladder(
        run,
        &mut client,
        &mut trace,
        share(QUERY_LADDER_SHARE).budget(1.0),
    );
    let twin = build_twin(run)?;
    let updates = update_ladder(
        run,
        &mut client,
        twin.as_ref(),
        &mut trace,
        share(UPDATE_LADDER_SHARE).budget(1.0),
    );
    let _ = client.close();
    let stats = handle.stats();
    handle.shutdown();
    drop(handle);
    ladder?;
    updates?;
    // The serving workload reports its own window's server counters.
    let (requests, shed) = if run.spec.window == Window::Serving {
        (run.out.server_requests, run.out.server_shed)
    } else {
        (stats.requests, stats.shed)
    };
    m.push(Metric::new("svr_server.requests", "count", requests as f64));
    m.push(Metric::new("svr_server.shed", "count", shed as f64));

    for (metric, rung) in [
        ("svr_server.roundtrip_self_us", "wire.query"),
        ("svr_sql.session_self_us", "sql.execute"),
        ("svr_engine.query_self_us", "engine.query"),
    ] {
        m.push(Metric::of(
            metric,
            "us",
            trace.self_median_us(rung),
            trace.durations_us(rung).len(),
        ));
    }
    for (metric, rung) in [
        ("svr_sql.parse_query_us", "sql.parse"),
        ("svr_sql.parse_update_us", "sql.parse_update"),
        ("svr_engine.resolve_keywords_us", "engine.resolve"),
        ("svr_relation.row_fetch_us", "relation.row_fetch"),
        ("svr_core.query_us", "core.query"),
        ("svr_core.cursor_page_us", "core.cursor_page"),
        ("svr_engine.update_row_us", "engine.update_row"),
        ("svr_relation.update_row_us", "relation.update_row"),
        ("svr_core.update_score_us", "core.update_score"),
    ] {
        m.push(rung_median(&trace, metric, "us", rung, 1.0));
    }
    m.push(rung_median(
        &trace,
        "svr_text.tokenize_ns",
        "ns",
        "text.tokenize",
        1e3,
    ));
    m.push(rung_median(
        &trace,
        "svr_server.frame_codec_ns",
        "ns",
        "server.frame_codec",
        1e3,
    ));
    // For the operator: how the ladder compares with the untraced loop.
    println!(
        "  ladder: wire {:.1} us = roundtrip_self {:.1} + session_self {:.1} + parse {:.1} + \
         engine_self {:.1} + core.query {:.1}; untraced loop query median {:.1} us",
        median(&mut trace.durations_us("wire.query")),
        trace.self_median_us("wire.query"),
        trace.self_median_us("sql.execute"),
        median(&mut trace.durations_us("sql.parse")),
        trace.self_median_us("engine.query"),
        median(&mut trace.durations_us("core.query")),
        q_plain * 1e3,
    );

    // 3. Storage rungs.
    storage_rungs(run, &mut trace, &mut m)?;
    run.final_checks();
    m.push(Metric::new(
        "svr_core.bytes_per_posting",
        "B",
        run.sys().index_bytes_per_posting(),
    ));
    m.push(Metric::new(
        "svr_storage.disk_bytes",
        "B",
        run.sys().env().total_disk_bytes() as f64,
    ));
    drop(twin);
    reopen_rungs(run, &mut trace, &mut m)?;

    let path = out.join(format!("trace-{}.json", run.spec.name));
    std::fs::write(&path, trace.to_json(run.spec.name).to_string())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "  {} spans written to {}",
        trace.spans.len(),
        path.display()
    );
    Ok(m)
}

/// The engine's term ids of a query's keywords, in statement order.
fn engine_query(run: &Run, q: &QueryOp) -> Query {
    let (terms, _) = run.sys().engine.resolve_keywords(&q.keywords());
    Query::new(terms, TOP_K, q.mode)
}

/// Each ranked statement at every read entry point. The four nested rungs
/// run in a rotating order so that no rung always finds the pool warmed by
/// the one before it.
fn query_ladder(
    run: &mut Run,
    client: &mut Client,
    trace: &mut Trace,
    budget: Budget,
) -> Result<(), String> {
    let index = run.sys().engine.index(INDEX).map_err(|e| e.to_string())?;
    let docs = run
        .sys()
        .engine
        .db()
        .table("docs")
        .map_err(|e| e.to_string())?;
    let mut n = 0u64;
    while !budget.done(n) {
        let op = 1_000_000 + n;
        let q = run.take_query();
        let keywords = q.keywords();
        let request = QueryRequest::new(INDEX, keywords.as_str())
            .k(TOP_K)
            .mode(q.mode);
        let query = engine_query(run, &q);
        let sys = run.sys();

        let mut rung = [0usize; 4];
        let mut failure = None;
        let mut sql_result = None;
        let mut hits = Vec::new();
        for step in 0..4 {
            let which = (step + n as usize) % 4;
            rung[which] = match which {
                0 => {
                    let (r, id) = trace.span("wire.query", None, op, || client.query(&q.sql));
                    failure = failure.or(r.err().map(|e| e.to_string()));
                    id
                }
                1 => {
                    let (r, id) =
                        trace.span("sql.execute", None, op, || sys.session.execute(&q.sql));
                    match r {
                        Ok(r) => sql_result = Some(r),
                        Err(e) => failure = failure.or(Some(e.to_string())),
                    }
                    id
                }
                2 => {
                    let (r, id) =
                        trace.span("engine.query", None, op, || sys.engine.query(&request));
                    failure = failure.or(r.err().map(|e| e.to_string()));
                    id
                }
                _ => {
                    let (r, id) = trace.span("core.query", None, op, || index.query(&query));
                    match r {
                        Ok(h) => hits = h,
                        Err(e) => failure = failure.or(Some(e.to_string())),
                    }
                    id
                }
            };
        }
        let [wire, execute, engine, core] = rung;
        trace.spans[execute].parent = Some(wire);
        trace.spans[engine].parent = Some(execute);
        trace.spans[core].parent = Some(engine);

        trace.span("sql.parse", Some(execute), op, || {
            std::hint::black_box(parse_statement(&q.sql).is_ok())
        });
        trace.span("engine.resolve", None, op, || {
            std::hint::black_box(sys.engine.resolve_keywords(&keywords))
        });
        trace.span("text.tokenize", None, op, || {
            std::hint::black_box(svr_text::tokenize(&keywords))
        });
        trace.span("relation.row_fetch", None, op, || {
            for hit in &hits {
                std::hint::black_box(docs.get(&Value::Int(i64::from(hit.doc.0))).is_ok());
            }
        });
        // One page of an open any-k cursor.
        match index.open_cursor(&query) {
            Ok(mut cursor) => {
                let (r, _) = trace.span("core.cursor_page", None, op, || {
                    index.next_batch(&mut cursor, TOP_K)
                });
                failure = failure.or(r.err().map(|e| e.to_string()));
            }
            Err(e) => failure = failure.or(Some(e.to_string())),
        }
        if let Some(result) = &sql_result {
            trace.span("server.frame_codec", None, op, || {
                let bytes = encode_request(&Request::Query { sql: q.sql.clone() }).encode();
                let request = frame::decode(&bytes)
                    .ok()
                    .flatten()
                    .map(|(f, _)| parse_request(&f).is_ok());
                let bytes = Response::Ok(result_to_json(result)).encode().encode();
                let response = frame::decode(&bytes)
                    .ok()
                    .flatten()
                    .map(|(f, _)| Response::decode(&f).is_ok());
                std::hint::black_box((request, response))
            });
        }
        run.out.attempted += 1;
        if let Some(e) = failure {
            run.out.failed += 1;
            run.out.failures.push(format!("ladder {:?}: {e}", q.sql));
        }
        n += 1;
    }
    Ok(())
}

/// An index-only twin of the workload's index: same method, configuration
/// and corpus, built straight through `svr_core` in the same environment,
/// so `update_score` can be timed with no table or view above it.
fn build_twin(run: &Run) -> Result<Box<dyn SearchIndex>, String> {
    let kind = svr_sql::plan::parse_method(run.spec.method).map_err(|e| e.to_string())?;
    let config = run
        .sys()
        .engine
        .index_config(INDEX)
        .map_err(|e| e.to_string())?;
    let docs: Vec<Document> = run
        .corpus
        .docs
        .iter()
        .enumerate()
        .map(|(id, terms)| {
            Document::from_term_freqs(DocId(id as u32), terms.iter().map(|&(t, f)| (TermId(t), f)))
        })
        .collect();
    let scores: ScoreMap = run
        .corpus
        .scores
        .iter()
        .enumerate()
        .map(|(id, &s)| (DocId(id as u32), s as f64))
        .collect();
    let loc = IndexLocation::new(run.sys().env(), TWIN_PREFIX);
    build_index_at(&loc, kind, &docs, &scores, &config).map_err(|e| e.to_string())
}

/// The update stream dealt round-robin over the write entry points (an
/// update cannot be replayed: the second application of a score is a
/// different, cheaper operation), so rungs are compared by their medians.
fn update_ladder(
    run: &mut Run,
    client: &mut Client,
    twin: &dyn SearchIndex,
    trace: &mut Trace,
    budget: Budget,
) -> Result<(), String> {
    let column = "nvisit".to_string();
    let mut n = 0u64;
    while !budget.done(n) {
        let op = 2_000_000 + n;
        let update: UpdateOp = run.updates[0].next_op();
        let sql = update.sql();
        let set = [(column.clone(), Value::Int(update.score))];
        let pk = Value::Int(i64::from(update.doc));
        let sys = run.sys();
        trace.span("sql.parse_update", None, op, || {
            std::hint::black_box(parse_statement(&sql).is_ok())
        });
        // The first three rungs write the real tables; the oracle follows.
        let (result, mirrored) = match n % 5 {
            0 => {
                let (r, _) = trace.span("wire.update", None, op, || client.exec(&sql));
                (r.map(|_| ()).map_err(|e| e.to_string()), true)
            }
            1 => {
                let (r, _) = trace.span("sql.update", None, op, || sys.session.execute(&sql));
                (r.map(|_| ()).map_err(|e| e.to_string()), true)
            }
            2 => {
                let (r, _) = trace.span("engine.update_row", None, op, || {
                    sys.engine.update_row("stats", pk.clone(), &set)
                });
                (r.map_err(|e| e.to_string()), true)
            }
            3 => {
                let (r, _) = trace.span("relation.update_row", None, op, || {
                    sys.engine.db().update_row("plain", pk.clone(), &set)
                });
                (r.map(|_| ()).map_err(|e| e.to_string()), false)
            }
            _ => {
                let (r, _) = trace.span("core.update_score", None, op, || {
                    twin.update_score(DocId(update.doc), update.score as f64)
                });
                (r.map_err(|e| e.to_string()), false)
            }
        };
        run.out.attempted += 1;
        match result {
            Ok(()) if mirrored => run.oracle.apply(&update),
            Ok(()) => {}
            Err(e) => {
                run.out.failed += 1;
                run.out.failures.push(format!("ladder {sql}: {e}"));
            }
        }
        n += 1;
    }
    Ok(())
}

/// `Store::read_page` warm and cold, a blob scan, log sync, checkpoint.
fn storage_rungs(run: &mut Run, trace: &mut Trace, m: &mut Vec<Metric>) -> Result<(), String> {
    let env = run.sys().env();
    let mut long_names: Vec<String> = env
        .store_names()
        .into_iter()
        .filter(|n| n.starts_with("idx/") && n.ends_with(svr_core::store_names::LONG))
        .collect();
    long_names.sort();
    let long = long_names
        .first()
        .and_then(|n| env.store(n))
        .ok_or("the index has no long-list store")?;
    let (pages, pool) = (
        long.disk().num_pages(),
        run.out.pool_pages / long_names.len() as u64,
    );
    // A page-id sample that fits the pool, so the warm pass only hits.
    let sample: Vec<u64> = (0..pages.min(pool / 2).clamp(1, 256))
        .map(|i| i * pages / pages.min(pool / 2).clamp(1, 256))
        .collect();
    let mut read_all = |name: &str| -> Result<f64, String> {
        let start = Instant::now();
        for &page in &sample {
            std::hint::black_box(long.read_page(page).map_err(|e| e.to_string())?);
        }
        let end = Instant::now();
        trace.record(name, None, 3_000_000, start, end);
        Ok((end - start).as_nanos() as f64 / sample.len() as f64)
    };
    long.clear_cache().map_err(|e| e.to_string())?;
    let miss = read_all("storage.pool_read_miss")?;
    let hit = read_all("storage.pool_read_hit")?;
    m.push(Metric::of(
        "svr_storage.pool_read_hit_ns",
        "ns",
        hit,
        sample.len(),
    ));
    m.push(Metric::of(
        "svr_storage.pool_read_miss_ns",
        "ns",
        miss,
        sample.len(),
    ));

    // A blob as long as a long posting list gets, behind a pool of the
    // workload's long-list size: scanned warm where the lists fit, cold
    // where they do not.
    let blobs = BlobStore::new(env.create_store("bench/blob", pool as usize));
    let data: Vec<u8> = (0..BLOB_BYTES).map(|i| (i % 251) as u8).collect();
    let handle = blobs.put(&data).map_err(|e| e.to_string())?;
    let mut rates = Vec::new();
    for _ in 0..5 {
        let (bytes, id) = trace.span("storage.blob_scan", None, 3_000_001, || {
            let mut reader = blobs.reader(handle);
            let mut total = 0usize;
            while let Ok(Some(chunk)) = reader.next_chunk() {
                total += chunk.len();
            }
            total
        });
        if bytes != BLOB_BYTES {
            return Err(format!("blob scan returned {bytes} of {BLOB_BYTES} bytes"));
        }
        rates.push(bytes as f64 / 1e6 / (trace.spans[id].duration_ns() as f64 / 1e9));
    }
    m.push(Metric::of(
        "svr_storage.blob_scan_mb_per_s",
        "MB/s",
        median(&mut rates),
        rates.len(),
    ));

    // Log sync and checkpoint, each with fresh writes to act on.
    for round in 0..12 {
        for _ in 0..8 {
            let update = run.updates[0].next_op();
            run.out.attempted += 1;
            match run.sys().session.execute(&update.sql()) {
                Ok(_) => run.oracle.apply(&update),
                Err(e) => {
                    run.out.failed += 1;
                    run.out.failures.push(format!("storage rung update: {e}"));
                }
            }
        }
        let sys = run.sys();
        trace
            .span("storage.wal_sync", None, 3_000_002, || env.sync_all_wals())
            .0
            .map_err(|e| e.to_string())?;
        if round % 4 == 3 {
            trace
                .span("storage.checkpoint", None, 3_000_003, || {
                    sys.engine.checkpoint()
                })
                .0
                .map_err(|e| e.to_string())?;
        }
    }
    let mut sync = trace.durations_us("storage.wal_sync");
    m.push(Metric::of(
        "svr_storage.wal_sync_us",
        "us",
        median(&mut sync),
        sync.len(),
    ));
    let mut ckpt: Vec<f64> = trace
        .durations_us("storage.checkpoint")
        .iter()
        .map(|us| us / 1e3)
        .collect();
    m.push(Metric::of(
        "svr_storage.checkpoint_ms",
        "ms",
        median(&mut ckpt),
        ckpt.len(),
    ));
    Ok(())
}

/// Crash, then the two halves of a reopen on their own: attach and recover
/// every store (`StorageEnv::open_dir` + `recover_all`), then
/// `open_index_at`. Consumes the system.
fn reopen_rungs(run: &mut Run, trace: &mut Trace, m: &mut Vec<Metric>) -> Result<(), String> {
    let sys = run.sys.take().expect("no phase owns the system");
    let kind = svr_sql::plan::parse_method(run.spec.method).map_err(|e| e.to_string())?;
    let config = sys.engine.index_config(INDEX).map_err(|e| e.to_string())?;
    // Acknowledged writes since the last checkpoint, so recovery has logs
    // to replay.
    for _ in 0..RECOVERY_WRITES {
        let update = run.updates[0].next_op();
        run.out.attempted += 1;
        if let Err(e) = sys.session.execute(&update.sql()) {
            run.out.failed += 1;
            run.out.failures.push(format!("pre-crash update: {e}"));
        }
    }
    let (dir, env) = (sys.dir.clone(), sys.env());
    let page_size = env.page_size();
    env.sync_all_wals().map_err(|e| e.to_string())?;
    env.crash_unsynced();
    drop(sys);
    drop(env);

    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .map_err(|e| e.to_string())?
        .flatten()
        .filter_map(|entry| {
            let file = entry.file_name();
            svr_storage::unsanitize_store_name(file.to_str()?.strip_suffix(".pages")?)
        })
        .collect();
    names.sort();
    let (env, id) = trace.span("storage.recover", None, 3_000_004, || {
        let env = StorageEnv::open_dir(&dir, page_size)?;
        for name in &names {
            // Attaching a store left by the previous lifetime replays its log.
            env.try_create_store(name, 64)?;
        }
        env.recover_all()?;
        Ok::<_, svr_storage::StorageError>(env)
    });
    let env = Arc::new(env.map_err(|e| e.to_string())?);
    m.push(Metric::new(
        "svr_storage.recover_ms",
        "ms",
        trace.spans[id].duration_ns() as f64 / 1e6,
    ));
    let loc = IndexLocation::new(env, format!("idx/{INDEX}/"));
    let (index, id) = trace.span("core.open_index", None, 3_000_005, || {
        open_index_at(&loc, kind, &config)
    });
    let index = index.map_err(|e| e.to_string())?;
    m.push(Metric::new(
        "svr_core.open_index_ms",
        "ms",
        trace.spans[id].duration_ns() as f64 / 1e6,
    ));
    // The reopened index must still know every document.
    run.out.attempted += 1;
    if index.corpus_num_docs() != run.oracle.num_docs() as u64 {
        run.out.failed += 1;
        run.out.failures.push(format!(
            "reopened index holds {} documents, oracle {}",
            index.corpus_num_docs(),
            run.oracle.num_docs()
        ));
    }
    Ok(())
}
