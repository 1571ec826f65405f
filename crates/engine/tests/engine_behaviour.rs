//! Engine-level behaviours not covered by the cross-crate integration
//! suite: index discovery, listener plumbing under interleaved mutations,
//! and identifier/key edge cases.

use std::collections::BTreeMap;

use svr_core::types::{DocId, QueryMode};
use svr_core::{IndexConfig, MethodKind};
use svr_engine::SvrEngine;
use svr_relation::schema::{ColumnType, Schema};
use svr_relation::{ScoreComponent, SvrSpec, Value};

fn docs_schema() -> Schema {
    Schema::new(
        "docs",
        &[("id", ColumnType::Int), ("body", ColumnType::Text)],
        0,
    )
}

fn pop_schema() -> Schema {
    Schema::new(
        "pop",
        &[("id", ColumnType::Int), ("hits", ColumnType::Int)],
        0,
    )
}

fn pop_spec() -> SvrSpec {
    SvrSpec::single(ScoreComponent::ColumnOf {
        table: "pop".into(),
        key_col: "id".into(),
        val_col: "hits".into(),
    })
}

fn engine_with_index(method: MethodKind) -> SvrEngine {
    let engine = SvrEngine::new();
    engine.create_table(docs_schema()).unwrap();
    engine.create_table(pop_schema()).unwrap();
    engine
        .create_text_index(
            "idx",
            "docs",
            "body",
            pop_spec(),
            method,
            IndexConfig::default(),
        )
        .unwrap();
    engine
}

#[test]
fn text_index_discovery() {
    let engine = engine_with_index(MethodKind::Chunk);
    assert_eq!(
        engine.text_index_on("docs", "body"),
        Some("idx".to_string())
    );
    assert_eq!(engine.text_index_on("docs", "id"), None);
    assert_eq!(engine.text_index_on("pop", "hits"), None);
    assert_eq!(engine.index_names(), vec!["idx"]);
    assert_eq!(engine.index("idx").unwrap().kind(), MethodKind::Chunk);
}

#[test]
fn duplicate_index_name_is_rejected() {
    let engine = engine_with_index(MethodKind::Id);
    let err = engine
        .create_text_index(
            "idx",
            "docs",
            "body",
            pop_spec(),
            MethodKind::Id,
            IndexConfig::default(),
        )
        .unwrap_err();
    assert!(err.to_string().contains("already exists"), "{err}");
}

#[test]
fn index_over_prepopulated_table_sees_existing_rows() {
    let engine = SvrEngine::new();
    engine.create_table(docs_schema()).unwrap();
    engine.create_table(pop_schema()).unwrap();
    // Rows (and scores) exist *before* the index is created.
    for i in 0..20 {
        engine
            .insert_row(
                "docs",
                vec![Value::Int(i), Value::Text(format!("common token{i}"))],
            )
            .unwrap();
        engine
            .insert_row("pop", vec![Value::Int(i), Value::Int(100 * i)])
            .unwrap();
    }

    engine
        .create_text_index(
            "idx",
            "docs",
            "body",
            pop_spec(),
            MethodKind::Chunk,
            IndexConfig::default(),
        )
        .unwrap();
    let hits = engine
        .search("idx", "common", 3, QueryMode::Conjunctive)
        .unwrap();
    assert_eq!(hits.len(), 3);
    assert_eq!(hits[0].row[0], Value::Int(19));
    assert_eq!(hits[0].score, 1900.0);
}

/// `CREATE TEXT INDEX` while a writer updates every row of the view's
/// source table once, each to a distinct value: whether an update lands
/// before, during or after the build, the view and the index both end at
/// it.
#[test]
fn create_text_index_races_source_table_writer() {
    const ROWS: i64 = 3_000;
    let engine = SvrEngine::new();
    engine.create_table(docs_schema()).unwrap();
    engine.create_table(pop_schema()).unwrap();
    engine
        .insert_rows(
            "docs",
            (0..ROWS)
                .map(|i| vec![Value::Int(i), Value::Text(format!("common token{i}"))])
                .collect(),
        )
        .unwrap();
    engine
        .insert_rows(
            "pop",
            (0..ROWS)
                .map(|i| vec![Value::Int(i), Value::Int(i)])
                .collect(),
        )
        .unwrap();
    std::thread::scope(|scope| {
        let writer = engine.clone();
        scope.spawn(move || {
            for i in 0..ROWS {
                writer
                    .update_row(
                        "pop",
                        Value::Int(i),
                        &[("hits".into(), Value::Int(ROWS + i))],
                    )
                    .unwrap();
            }
        });
        engine
            .create_text_index(
                "idx",
                "docs",
                "body",
                pop_spec(),
                MethodKind::Chunk,
                IndexConfig::default(),
            )
            .unwrap();
    });
    let index = engine.index("idx").unwrap();
    for i in 0..ROWS {
        let score = engine.score_of("idx", i).unwrap();
        assert_eq!(score, (ROWS + i) as f64, "row {i}: view");
        let doc = DocId(u32::try_from(i).unwrap());
        assert_eq!(index.current_score(doc).unwrap(), score, "row {i}: index");
    }
}

#[test]
fn score_updates_before_first_search_are_not_lost() {
    let engine = engine_with_index(MethodKind::ScoreThreshold);
    engine
        .insert_row(
            "docs",
            vec![Value::Int(1), Value::Text("alpha beta".into())],
        )
        .unwrap();
    engine
        .insert_row(
            "docs",
            vec![Value::Int(2), Value::Text("alpha gamma".into())],
        )
        .unwrap();
    // Burst of structured updates with no search in between: every score
    // change propagates to the index synchronously inside the mutation, so
    // the next search sees them all.
    for round in 0..50 {
        engine
            .insert_row("pop", vec![Value::Int(100 + round), Value::Int(0)])
            .ok(); // unrelated rows
    }
    engine
        .insert_row("pop", vec![Value::Int(1), Value::Int(10)])
        .unwrap();
    engine
        .update_row("pop", Value::Int(1), &[("hits".into(), Value::Int(999))])
        .unwrap();
    engine
        .insert_row("pop", vec![Value::Int(2), Value::Int(500)])
        .unwrap();
    let hits = engine
        .search("idx", "alpha", 2, QueryMode::Conjunctive)
        .unwrap();
    assert_eq!(hits[0].row[0], Value::Int(1));
    assert_eq!(hits[0].score, 999.0);
    assert_eq!(hits[1].score, 500.0);
}

#[test]
fn non_integer_primary_keys_are_rejected_for_indexed_tables() {
    let engine = SvrEngine::new();
    engine
        .create_table(Schema::new(
            "texts",
            &[("name", ColumnType::Text), ("body", ColumnType::Text)],
            0,
        ))
        .unwrap();
    engine.create_table(pop_schema()).unwrap();
    engine
        .create_text_index(
            "t",
            "texts",
            "body",
            SvrSpec::single(ScoreComponent::Const(1.0)),
            MethodKind::Id,
            IndexConfig::default(),
        )
        .unwrap();
    let err = engine
        .insert_row(
            "texts",
            vec![Value::Text("key".into()), Value::Text("words".into())],
        )
        .unwrap_err();
    assert!(err.to_string().contains("integer key"), "{err}");
}

#[test]
fn negative_primary_key_is_out_of_document_range() {
    let engine = engine_with_index(MethodKind::Id);
    let err = engine
        .insert_row("docs", vec![Value::Int(-3), Value::Text("words".into())])
        .unwrap_err();
    assert!(
        err.to_string().contains("out of document-id range"),
        "{err}"
    );
}

#[test]
fn indexes_on_two_tables_update_independently() {
    let engine = SvrEngine::new();
    engine.create_table(docs_schema()).unwrap();
    engine.create_table(pop_schema()).unwrap();
    engine
        .create_table(Schema::new(
            "notes",
            &[("id", ColumnType::Int), ("text", ColumnType::Text)],
            0,
        ))
        .unwrap();
    engine
        .create_text_index(
            "d",
            "docs",
            "body",
            pop_spec(),
            MethodKind::Chunk,
            IndexConfig::default(),
        )
        .unwrap();
    engine
        .create_text_index(
            "n",
            "notes",
            "text",
            SvrSpec::single(ScoreComponent::CountOf {
                table: "pop".into(),
                fk_col: "id".into(),
            }),
            MethodKind::Id,
            IndexConfig::default(),
        )
        .unwrap();
    engine
        .insert_row(
            "docs",
            vec![Value::Int(1), Value::Text("shared words".into())],
        )
        .unwrap();
    engine
        .insert_row(
            "notes",
            vec![Value::Int(1), Value::Text("shared words".into())],
        )
        .unwrap();
    engine
        .insert_row("pop", vec![Value::Int(1), Value::Int(42)])
        .unwrap();

    let d = engine
        .search("d", "shared", 10, QueryMode::Conjunctive)
        .unwrap();
    let n = engine
        .search("n", "shared", 10, QueryMode::Conjunctive)
        .unwrap();
    assert_eq!(d[0].score, 42.0, "ColumnOf spec");
    assert_eq!(n[0].score, 1.0, "CountOf spec");
}

#[test]
fn deleting_then_reinserting_a_row_errors_on_id_reuse() {
    // Document ids map to primary keys; the Score table tombstones deleted
    // ids, so re-inserting the same pk is reported rather than silently
    // corrupting postings (the paper's Appendix A.2 discusses id reuse).
    let engine = engine_with_index(MethodKind::Chunk);
    engine
        .insert_row("docs", vec![Value::Int(7), Value::Text("ephemeral".into())])
        .unwrap();
    engine.delete_row("docs", Value::Int(7)).unwrap();
    let result = engine.insert_row("docs", vec![Value::Int(7), Value::Text("reborn".into())]);
    assert!(
        result.is_err(),
        "id reuse after delete must surface, not corrupt"
    );
}

#[test]
fn score_of_tracks_the_view() {
    let engine = engine_with_index(MethodKind::Chunk);
    engine
        .insert_row("docs", vec![Value::Int(1), Value::Text("x".into())])
        .unwrap();
    assert_eq!(engine.score_of("idx", 1).unwrap(), 0.0);
    engine
        .insert_row("pop", vec![Value::Int(1), Value::Int(77)])
        .unwrap();
    assert_eq!(engine.score_of("idx", 1).unwrap(), 77.0);
    assert!(engine.score_of("nope", 1).is_err());
}

#[test]
fn write_batch_applies_and_coalesces() {
    let engine = engine_with_index(MethodKind::Chunk);
    let mut batch = svr_engine::WriteBatch::new();
    assert!(batch.is_empty());
    batch.insert(
        "docs",
        vec![Value::Int(1), Value::Text("alpha beta".into())],
    );
    batch.insert(
        "docs",
        vec![Value::Int(2), Value::Text("alpha gamma".into())],
    );
    batch.insert("pop", vec![Value::Int(1), Value::Int(10)]);
    batch.insert("pop", vec![Value::Int(2), Value::Int(5)]);
    // Hammer one doc's score repeatedly: only the final value matters.
    for step in 0..20 {
        batch.update(
            "pop",
            Value::Int(2),
            vec![("hits".into(), Value::Int(step * 100))],
        );
    }
    batch.delete("docs", Value::Int(1));
    assert_eq!(batch.len(), 25);
    assert_eq!(engine.apply(batch).unwrap(), 25);

    assert_eq!(engine.score_of("idx", 2).unwrap(), 1900.0);
    let hits = engine
        .search("idx", "alpha", 10, QueryMode::Conjunctive)
        .unwrap();
    assert_eq!(hits.len(), 1, "doc 1 was deleted in the same batch");
    assert_eq!(hits[0].row[0], Value::Int(2));
    assert_eq!(hits[0].score, 1900.0, "index saw the batch's final score");

    // A failing op aborts the rest but reports the error.
    let mut bad = svr_engine::WriteBatch::new();
    bad.insert("nope", vec![Value::Int(1)]);
    assert!(engine.apply(bad).is_err());
}

#[test]
fn insert_rows_bulk_load_matches_row_at_a_time() {
    let engine = engine_with_index(MethodKind::Chunk);
    let inserted = engine
        .insert_rows(
            "docs",
            (0..40)
                .map(|i| vec![Value::Int(i), Value::Text(format!("bulk doc{i}"))])
                .collect(),
        )
        .unwrap();
    assert_eq!(inserted, 40);
    engine
        .insert_rows(
            "pop",
            (0..40)
                .map(|i| vec![Value::Int(i), Value::Int(i * 2)])
                .collect(),
        )
        .unwrap();
    let hits = engine
        .search("idx", "bulk", 3, QueryMode::Conjunctive)
        .unwrap();
    assert_eq!(hits[0].row[0], Value::Int(39));
    assert_eq!(hits[0].score, 78.0);
}

#[test]
fn drop_text_index_then_table() {
    let engine = engine_with_index(MethodKind::Chunk);
    engine
        .insert_row("docs", vec![Value::Int(1), Value::Text("words".into())])
        .unwrap();

    // The indexed table cannot be dropped while the index exists.
    let err = engine.drop_table("docs").unwrap_err();
    assert!(err.to_string().contains("DROP TEXT INDEX"), "{err}");

    engine.drop_text_index("idx").unwrap();
    assert!(engine
        .search("idx", "words", 10, QueryMode::Conjunctive)
        .is_err());
    assert!(engine.index_names().is_empty());
    assert!(engine.drop_text_index("idx").is_err(), "double drop");

    engine.drop_table("docs").unwrap();
    assert!(engine.db().table("docs").is_err());

    // The namespace is free again: recreate both.
    engine.create_table(docs_schema()).unwrap();
    engine
        .create_text_index(
            "idx",
            "docs",
            "body",
            pop_spec(),
            MethodKind::Id,
            IndexConfig::default(),
        )
        .unwrap();
    engine
        .insert_row(
            "docs",
            vec![Value::Int(5), Value::Text("reborn words".into())],
        )
        .unwrap();
    let hits = engine
        .search("idx", "reborn", 10, QueryMode::Conjunctive)
        .unwrap();
    assert_eq!(hits.len(), 1);
}

#[test]
fn mutations_after_a_dropped_index_stop_feeding_it() {
    let engine = engine_with_index(MethodKind::Chunk);
    engine
        .insert_row("docs", vec![Value::Int(1), Value::Text("x".into())])
        .unwrap();
    engine.drop_text_index("idx").unwrap();
    // No listener, no index: plain relational writes still work.
    engine
        .insert_row("docs", vec![Value::Int(2), Value::Text("y".into())])
        .unwrap();
    engine
        .insert_row("pop", vec![Value::Int(1), Value::Int(9)])
        .unwrap();
    assert_eq!(engine.db().table("docs").unwrap().len(), 2);
}

/// The QueryRequest builder + SearchCursor pagination contract: top-k then
/// k more equals one-shot top-2k, for every method; unknown keywords yield
/// an exhausted cursor; `query(req)` equals `search(...)`.
#[test]
fn open_query_pagination_matches_one_shot() {
    use svr_engine::QueryRequest;

    for method in MethodKind::ALL_EXTENDED {
        let engine = engine_with_index(method);
        for i in 0..30i64 {
            engine
                .insert_row(
                    "docs",
                    vec![Value::Int(i), Value::Text(format!("shared words tag{i}"))],
                )
                .unwrap();
            engine
                .insert_row("pop", vec![Value::Int(i), Value::Int((i * 37) % 100)])
                .unwrap();
        }

        let one_shot = engine
            .search("idx", "shared words", 20, QueryMode::Conjunctive)
            .unwrap();
        assert_eq!(one_shot.len(), 20);

        let request = QueryRequest::new("idx", "shared words").k(20);
        assert_eq!(engine.query(&request).unwrap(), one_shot, "{method}");

        let mut cursor = engine.open_query(&request).unwrap();
        let mut paged = cursor.next_batch(10).unwrap();
        paged.extend(cursor.next_batch(10).unwrap());
        assert_eq!(paged, one_shot, "{method}: paged != one-shot");
        assert!(!cursor.is_exhausted(), "{method}: 10 docs remain");

        // Drain the rest: exactly the 30 distinct docs in total.
        let rest = cursor.next_batch(100).unwrap();
        assert_eq!(rest.len(), 10, "{method}");
        assert!(cursor.is_exhausted(), "{method}");
        assert!(cursor.next_batch(5).unwrap().is_empty(), "{method}");

        // Unknown conjunctive keyword: born exhausted, not an error.
        let mut empty = engine
            .open_query(&QueryRequest::new("idx", "shared nosuchword"))
            .unwrap();
        assert!(empty.is_exhausted());
        assert!(empty.next_batch(3).unwrap().is_empty());
        // Disjunctive: unknown words are ignored.
        let mut disj = engine
            .open_query(&QueryRequest::new("idx", "shared nosuchword").disjunctive())
            .unwrap();
        assert_eq!(disj.next_batch(5).unwrap().len(), 5);
    }
}

/// A CHUNK index over 300 documents on a file-backed engine at `dir`,
/// loaded under a long group-sync interval. `body(id)` is document `id`'s
/// text; its `pop` hits put it in one of three chunks of 200, 50 and 50
/// documents.
fn chunk_engine_on_file(dir: &std::path::Path, body: impl Fn(i64) -> String) -> SvrEngine {
    let _ = std::fs::remove_dir_all(dir);
    let engine = SvrEngine::open_path_with(
        dir,
        svr_engine::EngineConfig {
            wal_sync_interval_ms: 60_000,
            ..svr_engine::EngineConfig::default()
        },
    )
    .unwrap();
    engine.create_table(docs_schema()).unwrap();
    engine.create_table(pop_schema()).unwrap();
    let docs = (0..300)
        .map(|id| vec![Value::Int(id), Value::Text(body(id))])
        .collect();
    engine.insert_rows("docs", docs).unwrap();
    let pops = (0..300)
        .map(|id| {
            let hits = match id {
                0..200 => 1,
                200..250 => 100,
                _ => 1_000 + id,
            };
            vec![Value::Int(id), Value::Int(hits)]
        })
        .collect();
    engine.insert_rows("pop", pops).unwrap();
    engine
        .create_text_index(
            "idx",
            "docs",
            "body",
            pop_spec(),
            MethodKind::Chunk,
            IndexConfig {
                min_chunk_docs: 4,
                ..IndexConfig::default()
            },
        )
        .unwrap();
    engine
}

fn short_postings(engine: &SvrEngine) -> u64 {
    engine.index_shard_stats("idx").unwrap()[0].short_postings
}

/// Per logged store, its commit-path fsyncs so far.
fn syncs_per_store(engine: &SvrEngine) -> BTreeMap<String, u64> {
    let env = engine.env().expect("a file-backed engine");
    env.store_names()
        .into_iter()
        .filter_map(|name| {
            let syncs = env.store(&name)?.wal()?.stats().syncs;
            Some((name, syncs))
        })
        .collect()
}

/// The stores that fsynced since `before`, and how often.
fn synced_since(engine: &SvrEngine, before: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    syncs_per_store(engine)
        .into_iter()
        .map(|(name, syncs)| {
            let since = syncs - before.get(&name).copied().unwrap_or(0);
            (name, since)
        })
        .filter(|&(_, since)| since > 0)
        .collect()
}

/// An offline merge is one WAL batch per store: at fsync-every-commit, one
/// `run_maintenance` of a one-shard CHUNK index syncs each of the shard's
/// six logged stores at most once, however many lists it rewrites and
/// short-list keys it clears. (Per-key commits cost thousands.)
#[test]
fn a_merge_syncs_each_store_at_most_once() {
    let dir = std::env::temp_dir().join(format!("svr-merge-syncs-{}", std::process::id()));
    // Set-up runs under a long group-sync interval; the merge at 0.
    let engine = chunk_engine_on_file(&dir, |id| {
        format!("common w{} w{} w{}", id % 7, id % 11, id % 13)
    });
    // 250 score jumps past the top chunk: each of the 200 from the bottom
    // chunk parks the document's postings on the short lists.
    for id in 0..250 {
        engine
            .update_row(
                "pop",
                Value::Int(id),
                &[("hits".into(), Value::Int(10_000 + id))],
            )
            .unwrap();
    }
    let debt = short_postings(&engine);
    assert!(debt >= 400, "unmerged debt: {debt} short postings");

    engine.set_wal_sync_interval_ms(0);
    let syncs_before = engine.contention_stats().wal.syncs;
    engine.run_maintenance("idx").unwrap();
    let merge_syncs = engine.contention_stats().wal.syncs - syncs_before;
    assert_eq!(short_postings(&engine), 0, "the merge folded the debt");
    assert!(merge_syncs <= 6, "{merge_syncs} fsyncs for one merge");
    let hits = engine
        .search("idx", "common", 1, QueryMode::Conjunctive)
        .unwrap();
    assert_eq!(hits[0].score, 10_249.0);
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An index write is one WAL batch per store: at fsync-every-commit, a
/// CHUNK score update that moves a six-term document across two chunk
/// boundaries fsyncs the `pop` table, the Score table, the short lists and
/// the ListChunk table once each (one fsync per moved posting before), and
/// an insert fsyncs each store it writes once.
#[test]
fn a_score_update_syncs_each_store_at_most_once() {
    let dir = std::env::temp_dir().join(format!("svr-update-syncs-{}", std::process::id()));
    let engine = chunk_engine_on_file(&dir, |id| {
        format!(
            "common a{} b{} c{} d{} e{}",
            id % 7,
            id % 11,
            id % 13,
            id % 5,
            id % 3
        )
    });
    engine.set_wal_sync_interval_ms(0);
    assert_eq!(short_postings(&engine), 0);

    // Document 0 sits in the bottom chunk; 10 000 hits is past the top one.
    let before = syncs_per_store(&engine);
    engine
        .update_row("pop", Value::Int(0), &[("hits".into(), Value::Int(10_000))])
        .unwrap();
    let update = synced_since(&engine, &before);
    assert_eq!(short_postings(&engine), 6, "all six postings moved");
    assert!(update.values().all(|&n| n == 1), "{update:?}");
    assert!(update.len() <= 4, "{update:?}");

    let before = syncs_per_store(&engine);
    engine
        .insert_row(
            "docs",
            vec![
                Value::Int(300),
                Value::Text("common fresh words arrive here".into()),
            ],
        )
        .unwrap();
    let insert = synced_since(&engine, &before);
    assert!(insert.len() >= 3, "table, vocabulary and index: {insert:?}");
    assert!(insert.values().all(|&n| n == 1), "{insert:?}");
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The instrumented sync layer's per-class counters surface through
/// `contention_stats().locks`: mutations acquire the tier-1 table lock and
/// the tier-2 shard lock, and the counters are monotone so window deltas
/// are non-negative.
#[test]
fn contention_stats_report_lock_activity() {
    let engine = engine_with_index(MethodKind::Chunk);
    let before = engine.contention_stats().locks;
    for id in 0..20 {
        engine
            .insert_row(
                "docs",
                vec![Value::Int(id), Value::Text(format!("golden doc {id}"))],
            )
            .unwrap();
        engine
            .insert_row("pop", vec![Value::Int(id), Value::Int(id * 3)])
            .unwrap();
    }
    let delta = engine.contention_stats().locks.delta_since(&before);
    let table = delta.class(svr_engine::LockClass::Table);
    let shard = delta.class(svr_engine::LockClass::Shard);
    assert!(table.acquisitions >= 40, "each insert takes its table lock");
    assert!(shard.acquisitions >= 20, "indexed inserts take shard locks");
    assert!(
        table.hold_nanos > 0,
        "guard drops record hold time: {table:?}"
    );
    // Counters are process-wide and monotone: a later snapshot never runs
    // backwards.
    let later = engine.contention_stats().locks;
    for class in svr_engine::LockClass::ALL {
        assert!(later.class(class).acquisitions >= before.class(class).acquisitions);
    }
}
