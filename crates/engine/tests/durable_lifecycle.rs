//! Engine lifecycle: `SvrEngine::create` → populate → crash →
//! `SvrEngine::open` recovers catalog, vocabulary, views and indexes.

use std::sync::Arc;

use svr_core::types::QueryMode;
use svr_core::{IndexConfig, MethodKind};
use svr_engine::{EngineConfig, SvrEngine};
use svr_relation::schema::{ColumnType, Schema};
use svr_relation::{ScoreComponent, SvrSpec, Value};
use svr_storage::StorageEnv;

fn populate(engine: &SvrEngine, method: MethodKind, num_shards: usize) {
    engine
        .create_table(Schema::new(
            "movies",
            &[("mid", ColumnType::Int), ("desc", ColumnType::Text)],
            0,
        ))
        .unwrap();
    engine
        .create_table(Schema::new(
            "stats",
            &[("mid", ColumnType::Int), ("nvisit", ColumnType::Int)],
            0,
        ))
        .unwrap();
    let texts = [
        "golden gate bridge footage",
        "golden retriever puppy",
        "bridge engineering documentary",
        "gate repair tutorial",
        "san francisco golden gate sunset",
    ];
    for (i, text) in texts.iter().enumerate() {
        engine
            .insert_row(
                "movies",
                vec![Value::Int(i as i64 + 1), Value::Text((*text).into())],
            )
            .unwrap();
    }
    let spec = SvrSpec::single(ScoreComponent::ColumnOf {
        table: "stats".into(),
        key_col: "mid".into(),
        val_col: "nvisit".into(),
    });
    engine
        .create_text_index(
            "movie_idx",
            "movies",
            "desc",
            spec,
            method,
            IndexConfig {
                num_shards,
                min_chunk_docs: 2,
                ..IndexConfig::default()
            },
        )
        .unwrap();
    for (i, visits) in [500i64, 120, 980, 40, 770].iter().enumerate() {
        engine
            .insert_row("stats", vec![Value::Int(i as i64 + 1), Value::Int(*visits)])
            .unwrap();
    }
    // Post-index churn: new row, score updates, a content update, a delete.
    engine
        .insert_row(
            "movies",
            vec![Value::Int(6), Value::Text("late golden addition".into())],
        )
        .unwrap();
    engine
        .insert_row("stats", vec![Value::Int(6), Value::Int(610)])
        .unwrap();
    engine
        .update_row(
            "stats",
            Value::Int(2),
            &[("nvisit".to_string(), Value::Int(1500))],
        )
        .unwrap();
    engine
        .update_row(
            "movies",
            Value::Int(4),
            &[(
                "desc".to_string(),
                Value::Text("golden gate drone shots".into()),
            )],
        )
        .unwrap();
    engine.delete_row("movies", Value::Int(3)).unwrap();
}

fn snapshot(engine: &SvrEngine) -> (Vec<(i64, f64)>, Vec<f64>, String) {
    let hits = engine
        .search("movie_idx", "golden gate", 10, QueryMode::Disjunctive)
        .unwrap()
        .into_iter()
        .map(|r| (r.row[0].as_i64().unwrap(), r.score))
        .collect();
    let scores = [1, 2, 4, 5, 6]
        .iter()
        .map(|&pk| engine.score_of("movie_idx", pk).unwrap())
        .collect();
    let stats = format!("{:?}", engine.index_shard_stats("movie_idx").unwrap());
    (hits, scores, stats)
}

fn lifecycle_roundtrip(method: MethodKind, num_shards: usize) {
    let env = Arc::new(StorageEnv::new_durable(svr_storage::DEFAULT_PAGE_SIZE));
    let engine = SvrEngine::create(env.clone()).unwrap();
    populate(&engine, method, num_shards);
    let expected = snapshot(&engine);
    assert!(!expected.0.is_empty());
    drop(engine);

    env.crash();
    let reopened = SvrEngine::open(env).unwrap();
    let got = snapshot(&reopened);
    assert_eq!(expected, got, "{method} x{num_shards}");

    // The reopened engine keeps serving the full write path.
    reopened
        .update_row(
            "stats",
            Value::Int(5),
            &[("nvisit".to_string(), Value::Int(50_000))],
        )
        .unwrap();
    let top = reopened
        .search("movie_idx", "golden", 1, QueryMode::Conjunctive)
        .unwrap();
    assert_eq!(top[0].row[0], Value::Int(5), "{method} x{num_shards}");
    // Unknown keywords (vocabulary recovery) resolve exactly as before.
    assert!(reopened
        .search("movie_idx", "nonexistent", 5, QueryMode::Conjunctive)
        .unwrap()
        .is_empty());
}

#[test]
fn lifecycle_roundtrip_all_methods() {
    for method in MethodKind::ALL_EXTENDED {
        lifecycle_roundtrip(method, 1);
    }
}

#[test]
fn lifecycle_roundtrip_sharded() {
    for method in [
        MethodKind::Chunk,
        MethodKind::ChunkTermScore,
        MethodKind::Id,
    ] {
        lifecycle_roundtrip(method, 4);
    }
}

#[test]
fn create_rejects_non_durable_env_and_double_create() {
    let env = Arc::new(StorageEnv::new(svr_storage::DEFAULT_PAGE_SIZE));
    assert!(SvrEngine::create(env).is_err(), "non-durable env rejected");
    let env = Arc::new(StorageEnv::new_durable(svr_storage::DEFAULT_PAGE_SIZE));
    let _engine = SvrEngine::create(env.clone()).unwrap();
    assert!(
        SvrEngine::create(env).is_err(),
        "second create on one environment rejected"
    );
}

#[test]
fn drop_then_reopen_cannot_resurrect_and_name_is_reusable() {
    let env = Arc::new(StorageEnv::new_durable(svr_storage::DEFAULT_PAGE_SIZE));
    let engine = SvrEngine::create(env.clone()).unwrap();
    populate(&engine, MethodKind::Chunk, 2);
    engine.drop_text_index("movie_idx").unwrap();
    drop(engine);
    env.crash();

    let reopened = SvrEngine::open(env.clone()).unwrap();
    assert!(
        reopened.index_names().is_empty(),
        "dropped index must not come back"
    );
    assert!(reopened.score_of("movie_idx", 1).is_err());
    // Same name, different method: must build fresh (and survive another
    // crash+reopen).
    let spec = SvrSpec::single(ScoreComponent::ColumnOf {
        table: "stats".into(),
        key_col: "mid".into(),
        val_col: "nvisit".into(),
    });
    reopened
        .create_text_index(
            "movie_idx",
            "movies",
            "desc",
            spec,
            MethodKind::ScoreThreshold,
            IndexConfig::default(),
        )
        .unwrap();
    let before = snapshot(&reopened);
    drop(reopened);
    env.crash();
    let again = SvrEngine::open(env).unwrap();
    assert_eq!(before, snapshot(&again));

    // Dropping the table after its index works and survives reopen too.
    again.drop_text_index("movie_idx").unwrap();
    again.drop_table("movies").unwrap();
    assert!(again.db().table("movies").is_err());
}

/// The stores of `env` whose write-ahead log holds more than `threshold`
/// bytes, as `(store name, log bytes)`, sorted by name.
fn oversized_logs(env: &StorageEnv, threshold: u64) -> Vec<(String, u64)> {
    let mut over: Vec<(String, u64)> = env
        .store_names()
        .into_iter()
        .filter_map(|name| {
            let bytes = env.store(&name)?.wal()?.stats().bytes;
            (bytes > threshold).then_some((name, bytes))
        })
        .collect();
    over.sort();
    over
}

/// Every store checkpoints itself once a seal leaves its log over the
/// environment's threshold, so after any call (a row write, an index
/// build, a score update, a merge) no log holds more than the threshold.
#[test]
fn logs_stay_under_the_checkpoint_threshold_after_every_call() {
    const THRESHOLD: u64 = 8 << 10;
    let env = Arc::new(StorageEnv::new_durable(svr_storage::DEFAULT_PAGE_SIZE));
    let config = EngineConfig {
        wal_checkpoint_bytes: THRESHOLD,
        ..EngineConfig::default()
    };
    let engine = SvrEngine::create_with(env.clone(), config).unwrap();
    let check = |step: &str| {
        let over = oversized_logs(&env, THRESHOLD);
        assert!(
            over.is_empty(),
            "after {step}: logs over {THRESHOLD} bytes: {over:?}"
        );
    };
    engine
        .create_table(Schema::new(
            "docs",
            &[("id", ColumnType::Int), ("body", ColumnType::Text)],
            0,
        ))
        .unwrap();
    engine
        .create_table(Schema::new(
            "pop",
            &[("id", ColumnType::Int), ("visits", ColumnType::Int)],
            0,
        ))
        .unwrap();
    const WORDS: [&str; 12] = [
        "golden", "gate", "bridge", "river", "city", "night", "harbor", "fog", "hill", "tram",
        "pier", "bay",
    ];
    const DOCS: i64 = 400;
    for id in 0..DOCS {
        let body: Vec<&str> = (0..12)
            .map(|w| WORDS[((id * 7 + w * w * 5 + id / 3) % 12) as usize])
            .collect();
        engine
            .insert_row("docs", vec![Value::Int(id), Value::Text(body.join(" "))])
            .unwrap();
        engine
            .insert_row("pop", vec![Value::Int(id), Value::Int(id * 13 % 1000)])
            .unwrap();
        check("a row insert");
    }
    let spec = SvrSpec::single(ScoreComponent::ColumnOf {
        table: "pop".into(),
        key_col: "id".into(),
        val_col: "visits".into(),
    });
    engine
        .create_text_index(
            "docs_idx",
            "docs",
            "body",
            spec,
            MethodKind::Chunk,
            IndexConfig::default(),
        )
        .unwrap();
    check("the index build");
    for i in 0..300 {
        engine
            .update_row(
                "pop",
                Value::Int(i * 17 % DOCS),
                &[("visits".to_string(), Value::Int(1000 + i))],
            )
            .unwrap();
        check("a score update");
    }
    engine.run_maintenance("docs_idx").unwrap();
    check("the merge");
    // The checkpoints moved the recovery baseline, not the data.
    let before = engine
        .search("docs_idx", "golden gate", 10, QueryMode::Conjunctive)
        .unwrap();
    drop(engine);
    env.crash();
    let reopened = SvrEngine::open(env.clone()).unwrap();
    let after = reopened
        .search("docs_idx", "golden gate", 10, QueryMode::Conjunctive)
        .unwrap();
    assert!(!before.is_empty());
    assert_eq!(
        before.iter().map(|r| (&r.row, r.score)).collect::<Vec<_>>(),
        after.iter().map(|r| (&r.row, r.score)).collect::<Vec<_>>()
    );
}
