//! Multi-threaded engine stress: N reader threads issue top-k searches
//! against one shared [`SvrEngine`] while a writer thread applies score and
//! content updates. Asserts the run terminates (no deadlock), every
//! mid-flight result is internally consistent, and the post-quiesce
//! rankings agree with the materialized view — the oracle for "no stale
//! scores survive".

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use svr::{IndexConfig, MethodKind, QueryMode, QueryRequest, SqlSession, SvrEngine, WriteBatch};
use svr_relation::schema::{ColumnType, Schema};
use svr_relation::{ScoreComponent, SvrSpec, Value};

const DOCS: i64 = 120;

fn movies_schema() -> Schema {
    Schema::new(
        "movies",
        &[("mid", ColumnType::Int), ("desc", ColumnType::Text)],
        0,
    )
}

fn stats_schema() -> Schema {
    Schema::new(
        "stats",
        &[("mid", ColumnType::Int), ("nvisit", ColumnType::Int)],
        0,
    )
}

fn visits_spec() -> SvrSpec {
    SvrSpec::single(ScoreComponent::ColumnOf {
        table: "stats".into(),
        key_col: "mid".into(),
        val_col: "nvisit".into(),
    })
}

/// Words that appear in every document (plus a unique one per doc).
fn description(mid: i64, generation: u64) -> String {
    format!("golden gate footage reel r{mid} generation g{generation}")
}

fn build_engine(method: MethodKind) -> SvrEngine {
    build_engine_sharded(method, 1)
}

fn build_engine_sharded(method: MethodKind, num_shards: usize) -> SvrEngine {
    let engine = SvrEngine::new();
    engine.create_table(movies_schema()).unwrap();
    engine.create_table(stats_schema()).unwrap();
    engine
        .insert_rows(
            "movies",
            (0..DOCS)
                .map(|i| vec![Value::Int(i), Value::Text(description(i, 0))])
                .collect(),
        )
        .unwrap();
    engine
        .insert_rows(
            "stats",
            (0..DOCS)
                .map(|i| vec![Value::Int(i), Value::Int(i * 10)])
                .collect(),
        )
        .unwrap();
    engine
        .create_text_index(
            "idx",
            "movies",
            "desc",
            visits_spec(),
            method,
            IndexConfig {
                chunk_ratio: 2.0,
                min_chunk_docs: 8,
                num_shards,
                ..IndexConfig::default()
            },
        )
        .unwrap();
    engine
}

/// The oracle ranking: every live movie matches "golden", ordered by the
/// materialized view's score (ties broken by doc id like the index does).
fn oracle_top(engine: &SvrEngine, k: usize) -> Vec<(i64, f64)> {
    let mut rows: Vec<(i64, f64)> = (0..DOCS)
        .filter_map(|mid| engine.score_of("idx", mid).ok().map(|s| (mid, s)))
        .collect();
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    rows.truncate(k);
    rows
}

fn run_stress(method: MethodKind, readers: usize) {
    let engine = build_engine(method);
    let stop = AtomicBool::new(false);
    let searches = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        // Readers: shared handles, &self search.
        for seed in 0..readers {
            let reader = engine.clone();
            let stop = &stop;
            let searches = &searches;
            scope.spawn(move || {
                let mut i = seed as i64;
                while !stop.load(Ordering::Relaxed) {
                    let keywords = if i % 3 == 0 {
                        "golden gate"
                    } else {
                        "footage reel"
                    };
                    let hits = reader
                        .search("idx", keywords, 10, QueryMode::Conjunctive)
                        .unwrap();
                    assert!(hits.len() <= 10);
                    for w in hits.windows(2) {
                        assert!(
                            w[0].score >= w[1].score,
                            "{method}: ranked output must be sorted"
                        );
                    }
                    for hit in &hits {
                        assert!(hit.score.is_finite() && hit.score >= 0.0);
                        let mid = hit.row[0].as_i64().unwrap();
                        assert!((0..DOCS).contains(&mid));
                    }
                    searches.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }

        // Writer: score churn (single updates + batches) and content churn.
        let writer = engine.clone();
        let stop_writer = &stop;
        scope.spawn(move || {
            let mut state = 0x5EEDu64;
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 33
            };
            for round in 0..400u64 {
                match round % 4 {
                    // Point score update.
                    0 => {
                        let mid = (next() % DOCS as u64) as i64;
                        writer
                            .update_row(
                                "stats",
                                Value::Int(mid),
                                &[("nvisit".into(), Value::Int((next() % 100_000) as i64))],
                            )
                            .unwrap();
                    }
                    // Batched score storm: many updates, coalesced.
                    1 => {
                        let mut batch = WriteBatch::new();
                        for _ in 0..16 {
                            let mid = (next() % DOCS as u64) as i64;
                            batch.update(
                                "stats",
                                Value::Int(mid),
                                vec![("nvisit".into(), Value::Int((next() % 100_000) as i64))],
                            );
                        }
                        writer.apply(batch).unwrap();
                    }
                    // Content update (Appendix-A path).
                    2 => {
                        let mid = (next() % DOCS as u64) as i64;
                        writer
                            .update_row(
                                "movies",
                                Value::Int(mid),
                                &[("desc".into(), Value::Text(description(mid, round)))],
                            )
                            .unwrap();
                    }
                    // Occasional maintenance merge in the middle of it all.
                    _ => {
                        if round % 40 == 3 {
                            writer.run_maintenance("idx").unwrap();
                        }
                    }
                }
            }
            stop_writer.store(true, Ordering::Relaxed);
        });
    });

    assert!(
        searches.load(Ordering::Relaxed) > 0,
        "readers must have made progress during the update storm"
    );

    // Quiesced: the index ranking must agree with the view (the oracle).
    let hits = engine
        .search("idx", "golden gate", 10, QueryMode::Conjunctive)
        .unwrap();
    let oracle = oracle_top(&engine, 10);
    assert_eq!(hits.len(), oracle.len());
    for (hit, (mid, score)) in hits.iter().zip(&oracle) {
        assert_eq!(hit.score, *score, "{method}: stale score after quiesce");
        assert_eq!(
            hit.row[0],
            Value::Int(*mid),
            "{method}: wrong ranking after quiesce"
        );
    }
}

#[test]
fn four_readers_one_writer_chunk() {
    run_stress(MethodKind::Chunk, 4);
}

#[test]
fn four_readers_one_writer_score_threshold() {
    run_stress(MethodKind::ScoreThreshold, 4);
}

#[test]
fn four_readers_one_writer_id() {
    run_stress(MethodKind::Id, 4);
}

/// The tentpole scenario: several writers storm the *same* table of one
/// engine with score updates through the two-tier (table lock → shard
/// lock) write path, while readers search and maintenance merges shards
/// mid-storm. Each writer owns a disjoint set of rows, so the expected
/// final state is a deterministic serial replay; after quiescing, both
/// `score_of` (the view) and the index ranking must agree with it exactly.
fn run_multi_writer_stress(method: MethodKind, writers: i64, num_shards: usize) {
    const ROUNDS: i64 = 250;
    assert_eq!(DOCS % writers, 0, "row partition must be exact");
    let engine = build_engine_sharded(method, num_shards);
    let stop = AtomicBool::new(false);
    let searches = AtomicUsize::new(0);

    // Deterministic per-writer scripts over disjoint rows.
    let script = |writer: i64| -> Vec<(i64, i64)> {
        let mut state = 0xACE5_u64.wrapping_add(writer as u64);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        (0..ROUNDS)
            .map(|_| {
                let mid = (next() % (DOCS / writers) as u64) as i64 * writers + writer;
                let visits = (next() % 1_000_000) as i64;
                (mid, visits)
            })
            .collect()
    };

    std::thread::scope(|scope| {
        for _ in 0..3usize {
            let reader = engine.clone();
            let stop = &stop;
            let searches = &searches;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let hits = reader
                        .search("idx", "golden gate", 10, QueryMode::Conjunctive)
                        .unwrap();
                    for w in hits.windows(2) {
                        assert!(w[0].score >= w[1].score, "{method}: sorted output");
                    }
                    searches.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // A maintainer walking the shards mid-storm: merges must not lose
        // updates or deadlock against the two-tier writers.
        let maintainer = engine.clone();
        let stop_m = &stop;
        scope.spawn(move || {
            let mut shard = 0usize;
            while !stop_m.load(Ordering::Relaxed) {
                maintainer.run_shard_maintenance("idx", shard).unwrap();
                shard = (shard + 1) % num_shards;
                std::thread::yield_now();
            }
        });

        let writer_handles: Vec<_> = (0..writers)
            .map(|w| {
                let writer = engine.clone();
                let ops = script(w);
                scope.spawn(move || {
                    for (mid, visits) in ops {
                        writer
                            .update_row(
                                "stats",
                                Value::Int(mid),
                                &[("nvisit".into(), Value::Int(visits))],
                            )
                            .unwrap();
                    }
                })
            })
            .collect();
        for handle in writer_handles {
            handle.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert!(searches.load(Ordering::Relaxed) > 0);

    // Serial replay: last write per row wins (rows are writer-disjoint).
    let mut expected: std::collections::HashMap<i64, i64> =
        (0..DOCS).map(|mid| (mid, mid * 10)).collect();
    for w in 0..writers {
        for (mid, visits) in script(w) {
            expected.insert(mid, visits);
        }
    }
    for (mid, visits) in &expected {
        assert_eq!(
            engine.score_of("idx", *mid).unwrap(),
            *visits as f64,
            "{method}: view diverged on row {mid}"
        );
    }
    let hits = engine
        .search("idx", "golden gate", 10, QueryMode::Conjunctive)
        .unwrap();
    let oracle = oracle_top(&engine, 10);
    assert_eq!(hits.len(), oracle.len());
    for (hit, (mid, score)) in hits.iter().zip(&oracle) {
        assert_eq!(hit.score, *score, "{method}: stale score after quiesce");
        assert_eq!(hit.row[0], Value::Int(*mid), "{method}: wrong ranking");
    }
}

#[test]
fn four_writers_one_table_chunk_sharded() {
    run_multi_writer_stress(MethodKind::Chunk, 4, 8);
}

#[test]
fn four_writers_one_table_score_threshold_sharded() {
    run_multi_writer_stress(MethodKind::ScoreThreshold, 4, 4);
}

#[test]
fn six_writers_one_table_chunk_single_shard() {
    // Degenerate shard count: writers fully serialize at tier 2 but must
    // still lose nothing.
    run_multi_writer_stress(MethodKind::Chunk, 6, 1);
}

/// Writers of different tables proceed in parallel while readers search;
/// every row and score lands. The `movies` writer inserts documents while
/// the `stats` writer sets their scores: the two hold different table locks
/// and race on the same keys, so the index must still end at the view's
/// score for every one of them.
#[test]
fn parallel_table_writers() {
    let engine = build_engine(MethodKind::Chunk);
    for round in 0..5 {
        let first = DOCS + round * 40;
        parallel_table_writers_round(&engine, first..first + 40);
    }
}

fn parallel_table_writers_round(engine: &SvrEngine, keys: std::ops::Range<i64>) {
    std::thread::scope(|scope| {
        let movies = engine.clone();
        let movie_keys = keys.clone();
        scope.spawn(move || {
            for i in movie_keys {
                movies
                    .insert_row(
                        "movies",
                        vec![Value::Int(i), Value::Text(description(i, 1))],
                    )
                    .unwrap();
            }
        });
        let stats = engine.clone();
        let stat_keys = keys.clone();
        scope.spawn(move || {
            for i in stat_keys {
                stats
                    .insert_row("stats", vec![Value::Int(i), Value::Int(1_000_000 + i)])
                    .unwrap();
            }
        });
        let reader = engine.clone();
        scope.spawn(move || {
            for _ in 0..50 {
                let _ = reader
                    .search("idx", "golden", 5, QueryMode::Conjunctive)
                    .unwrap();
            }
        });
    });
    let index = engine.index("idx").unwrap();
    for i in keys.clone() {
        let score = engine.score_of("idx", i).unwrap();
        assert_eq!(score, (1_000_000 + i) as f64, "doc {i}: view");
        let doc = svr::core::types::DocId(u32::try_from(i).unwrap());
        assert_eq!(index.current_score(doc).unwrap(), score, "doc {i}: index");
    }
    let top = engine
        .search("idx", "golden gate", 1, QueryMode::Conjunctive)
        .unwrap();
    assert_eq!(top[0].row[0], Value::Int(keys.end - 1), "new top doc wins");
}

/// N sessions over one engine: SQL reads from many threads while SQL
/// writes run — the "Ranked Enumeration for Database Queries" serving
/// pattern.
#[test]
fn shared_sql_sessions_serve_concurrent_queries() {
    let engine = build_engine(MethodKind::Chunk);
    let session = SqlSession::with_shared(Arc::new(engine));
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let reader = session.clone();
            scope.spawn(move || {
                for _ in 0..40 {
                    let result = reader
                        .execute(
                            r#"SELECT mid FROM movies ORDER BY SCORE(desc, "golden gate")
                               FETCH TOP 5 RESULTS ONLY"#,
                        )
                        .unwrap();
                    assert!(result.row_count() <= 5);
                }
            });
        }
        let writer = session.clone();
        scope.spawn(move || {
            for i in 0..60 {
                writer
                    .execute(&format!(
                        "UPDATE stats SET nvisit = {} WHERE mid = {}",
                        200_000 + i,
                        i % DOCS
                    ))
                    .unwrap();
            }
        });
    });
    // Last write wins and is visible through a fresh clone.
    let check = session.clone();
    let top = check
        .execute(
            r#"SELECT mid FROM movies ORDER BY SCORE(desc, "golden") FETCH TOP 1 RESULTS ONLY"#,
        )
        .unwrap();
    assert_eq!(top.row_count(), 1);
}

/// Cursors open *during* a writer storm: each reader pages one
/// [`svr::QueryRequest`] cursor to exhaustion while score/content churn
/// and shard maintenance run underneath. Asserts graceful degradation —
/// no duplicates, no panics, valid rows, staleness visible — and exact
/// cursor/one-shot agreement once quiesced.
#[test]
fn cursors_paginate_during_writer_storm() {
    use svr::QueryRequest;

    let engine = build_engine_sharded(MethodKind::Chunk, 4);
    let stop = AtomicBool::new(false);
    let pages = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for seed in 0..3usize {
            let reader = engine.clone();
            let stop = &stop;
            let pages = &pages;
            scope.spawn(move || {
                let mut round = seed;
                while !stop.load(Ordering::Relaxed) {
                    let request = QueryRequest::new("idx", "golden gate");
                    let mut cursor = reader.open_query(&request).unwrap();
                    let mut emitted = std::collections::HashSet::new();
                    loop {
                        let batch = cursor.next_batch(2 + round % 3).unwrap();
                        for row in &batch {
                            let mid = row.row[0].as_i64().unwrap();
                            assert!(
                                emitted.insert(mid),
                                "cursor emitted row {mid} twice under churn"
                            );
                            assert!(row.score.is_finite() && row.score >= 0.0);
                        }
                        pages.fetch_add(1, Ordering::Relaxed);
                        if cursor.is_exhausted() {
                            break;
                        }
                    }
                    // Staleness is observable, never an error.
                    let _ = cursor.staleness();
                    round += 1;
                }
            });
        }

        let writer = engine.clone();
        let stop_writer = &stop;
        scope.spawn(move || {
            let mut state = 0xABCDu64;
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 33
            };
            for round in 0..300u64 {
                let mid = (next() % DOCS as u64) as i64;
                match round % 5 {
                    4 => {
                        if round % 60 == 4 {
                            writer.run_maintenance("idx").unwrap();
                        }
                    }
                    3 => writer
                        .update_row(
                            "movies",
                            Value::Int(mid),
                            &[("desc".into(), Value::Text(description(mid, round)))],
                        )
                        .unwrap(),
                    _ => writer
                        .update_row(
                            "stats",
                            Value::Int(mid),
                            &[("nvisit".into(), Value::Int((next() % 90_000) as i64))],
                        )
                        .unwrap(),
                }
            }
            stop_writer.store(true, Ordering::Relaxed);
        });
    });
    assert!(pages.load(Ordering::Relaxed) > 0);

    // Quiesced: pagination must agree exactly with one-shot queries.
    let one_shot = engine
        .search("idx", "golden gate", 20, QueryMode::Conjunctive)
        .unwrap();
    let mut cursor = engine
        .open_query(&svr::QueryRequest::new("idx", "golden gate"))
        .unwrap();
    assert!(!cursor.is_stale());
    let mut paged = Vec::new();
    for _ in 0..5 {
        paged.extend(cursor.next_batch(4).unwrap());
    }
    assert_eq!(one_shot.len(), paged.len());
    for (a, b) in one_shot.iter().zip(&paged) {
        assert_eq!(a.row[0], b.row[0], "quiesced cursor order != one-shot");
        assert_eq!(a.score, b.score);
    }
}

/// The staleness epoch: a cursor notices concurrent writes to its index
/// and keeps serving batches per the documented degraded semantics.
#[test]
fn cursor_staleness_epoch_reports_churn() {
    let engine = build_engine(MethodKind::ScoreThreshold);
    let mut cursor = engine
        .open_query(&svr::QueryRequest::new("idx", "golden gate"))
        .unwrap();
    let first = cursor.next_batch(3).unwrap();
    assert_eq!(first.len(), 3);
    assert!(!cursor.is_stale(), "no writes yet");

    // A merge rebuilds the lists but moves no score: the cursor crosses it
    // with its order exact, so it is not churn.
    engine.run_maintenance("idx").unwrap();
    assert!(!cursor.is_stale(), "an offline merge is not staleness");

    engine
        .update_row(
            "stats",
            Value::Int(1),
            &[("nvisit".into(), Value::Int(999_999))],
        )
        .unwrap();
    assert!(cursor.is_stale(), "score churn must bump the epoch");
    assert!(cursor.staleness() >= 1);

    // Batches keep flowing; a fresh cursor sees the new top.
    let rest = cursor.next_batch(200).unwrap();
    assert!(!rest.is_empty());
    let fresh = engine
        .search("idx", "golden gate", 1, QueryMode::Conjunctive)
        .unwrap();
    assert_eq!(fresh[0].row[0], Value::Int(1), "updated row ranks first");
}

/// Atomicity under concurrency: a writer applies batches — each inserting
/// a *generation* of documents tagged with a unique keyword, some batches
/// poisoned so they fail and roll back — while readers continuously query.
/// Readers must never error, never observe more documents of a generation
/// than its batch holds, and once the storm settles every generation is
/// either fully visible (its batch committed) or completely absent (its
/// batch rolled back) — the none-or-all property per settled index epoch.
#[test]
fn concurrent_readers_see_none_or_all_of_each_batch() {
    const GENERATIONS: u64 = 24;
    const PER_BATCH: i64 = 5;

    let engine = build_engine_sharded(MethodKind::Chunk, 4);
    let stop = AtomicBool::new(false);
    let committed: Vec<AtomicBool> = (0..GENERATIONS).map(|_| AtomicBool::new(false)).collect();

    std::thread::scope(|scope| {
        for seed in 0..3usize {
            let reader = engine.clone();
            let (stop, committed) = (&stop, &committed);
            scope.spawn(move || {
                let mut g = seed as u64;
                while !stop.load(Ordering::Relaxed) {
                    g = (g + 1) % GENERATIONS;
                    // Sample the flag *before* searching: a generation
                    // committed before the query began stays fully visible
                    // (checking after would race with a mid-search commit).
                    let was_committed = committed[g as usize].load(Ordering::Acquire);
                    // Cursor path, not one-shot `search`: a reader racing a
                    // rollback can catch an index hit whose row was already
                    // retracted, which the strict one-shot API turns into
                    // an error while cursor batches absorb it silently.
                    let request = QueryRequest::new("idx", format!("batchgen{g}")).k(32);
                    let hits = reader.open_query(&request).unwrap().next_batch(32).unwrap();
                    assert!(
                        hits.len() <= PER_BATCH as usize,
                        "generation {g}: more hits than its batch inserted"
                    );
                    if was_committed {
                        assert_eq!(
                            hits.len(),
                            PER_BATCH as usize,
                            "generation {g} committed but partially visible"
                        );
                    }
                }
            });
        }

        let writer = engine.clone();
        let (stop, committed) = (&stop, &committed);
        scope.spawn(move || {
            for g in 0..GENERATIONS {
                let poisoned = g % 3 == 2;
                let mut batch = WriteBatch::new();
                let base = DOCS + (g as i64) * PER_BATCH;
                for i in 0..PER_BATCH {
                    let mid = base + i;
                    batch.insert(
                        "movies",
                        vec![
                            Value::Int(mid),
                            Value::Text(format!("batchgen{g} golden entry e{mid}")),
                        ],
                    );
                    batch.insert("stats", vec![Value::Int(mid), Value::Int(mid * 3)]);
                }
                if poisoned {
                    // Fails at the end: every insert above must roll back.
                    batch.delete("movies", Value::Int(999_999));
                }
                let result = writer.apply(batch);
                assert_eq!(result.is_err(), poisoned, "generation {g}");
                if !poisoned {
                    committed[g as usize].store(true, Ordering::Release);
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
    });

    // Settled: none-or-all per generation, exactly as the batch outcomes
    // dictate — and the rolled-back generations left no rows behind.
    for g in 0..GENERATIONS {
        let hits = engine
            .search("idx", &format!("batchgen{g}"), 32, QueryMode::Conjunctive)
            .unwrap();
        if g % 3 == 2 {
            assert!(hits.is_empty(), "rolled-back generation {g} left a trace");
            let base = DOCS + (g as i64) * PER_BATCH;
            for i in 0..PER_BATCH {
                assert!(engine
                    .db()
                    .table("movies")
                    .unwrap()
                    .get(&Value::Int(base + i))
                    .unwrap()
                    .is_none());
            }
        } else {
            assert_eq!(hits.len(), PER_BATCH as usize, "generation {g} incomplete");
        }
    }
}
