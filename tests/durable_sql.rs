//! The acceptance path of the durable lifecycle: a **file-backed** engine
//! populated entirely through SQL (tables + text indexes + updates) is
//! dropped — no flush, no checkpoint, only the write-ahead log files
//! survive on disk — reopened with `SvrEngine::open_path`, and must serve
//! identical top-k rankings and `score_of` values with zero re-indexing
//! from base rows (the persisted list structures are reattached, verified
//! through the EXPLAIN-level shard stats staying bit-identical instead of
//! collapsing to a freshly-built layout).

use svr::{QueryMode, SqlSession, SvrEngine};
use svr_relation::Value;

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("svr-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn populate_via_sql(session: &SqlSession) {
    session
        .execute_script(
            r#"
            CREATE TABLE movies (mid INT PRIMARY KEY, name TEXT, description TEXT);
            CREATE TABLE statistics (mid INT PRIMARY KEY, nvisit INT, ndownload INT);
            CREATE FUNCTION visits (id INT) RETURNS FLOAT
                RETURN SELECT s.nvisit FROM statistics s WHERE s.mid = id;
            CREATE FUNCTION downloads (id INT) RETURNS FLOAT
                RETURN SELECT s.ndownload FROM statistics s WHERE s.mid = id;
            CREATE FUNCTION agg (a FLOAT, b FLOAT) RETURNS FLOAT
                RETURN (a/2 + b);
            CREATE TEXT INDEX movie_idx ON movies(description)
                SCORE WITH (visits, downloads) AGGREGATE WITH agg
                USING METHOD CHUNK
                OPTIONS (min_chunk_docs = 2, chunk_ratio = 2.0, shards = 2);
            INSERT INTO movies VALUES
                (1, 'American Thrift', 'classic golden gate commute footage'),
                (2, 'Amateur Film',    'amateur shots around the golden gate bridge'),
                (3, 'City Symphony',   'city life and bridges'),
                (4, 'Fog Rolls In',    'fog over the golden gate at dawn');
            INSERT INTO statistics VALUES
                (1, 5000, 120), (2, 12, 3), (3, 880, 40), (4, 2400, 900);
            UPDATE statistics SET nvisit = 9000 WHERE mid = 2;
            DELETE FROM movies WHERE mid = 3;
            INSERT INTO movies VALUES
                (5, 'Night Crossing', 'golden gate crossing by night');
            INSERT INTO statistics VALUES (5, 640, 64);
        "#,
        )
        .unwrap();
}

type SqlSnapshot = (Vec<(i64, u64)>, Vec<(i64, u64)>, String);

fn snapshot(engine: &SvrEngine) -> SqlSnapshot {
    let ranked = engine
        .search("movie_idx", "golden gate", 10, QueryMode::Conjunctive)
        .unwrap()
        .into_iter()
        .map(|r| (r.row[0].as_i64().unwrap(), r.score.to_bits()))
        .collect();
    let scores = [1i64, 2, 4, 5]
        .iter()
        .map(|&pk| (pk, engine.score_of("movie_idx", pk).unwrap().to_bits()))
        .collect();
    let stats = format!("{:?}", engine.index_shard_stats("movie_idx").unwrap());
    (ranked, scores, stats)
}

#[test]
fn file_backed_engine_populated_via_sql_survives_process_style_restart() {
    let dir = tempdir("sql-restart");
    let expected = {
        let engine = SvrEngine::open_path(&dir).unwrap();
        let session = SqlSession::with_engine(engine.clone());
        populate_via_sql(&session);
        // Engine and session drop here with dirty buffer pools: only the
        // page files and log files persist.
        snapshot(&engine)
    };

    // "New process": nothing shared but the directory.
    let engine = SvrEngine::open_path(&dir).unwrap();
    let got = snapshot(&engine);
    assert_eq!(expected, got, "rankings/scores/stats across restart");

    // SQL sessions attach to the reopened engine unchanged.
    let session = SqlSession::with_engine(engine.clone());
    let result = session
        .execute(
            r#"SELECT name FROM movies ORDER BY SCORE(description, "golden gate")
               FETCH TOP 3 RESULTS ONLY"#,
        )
        .unwrap();
    assert_eq!(result.row_count(), 3);
    session
        .execute("UPDATE statistics SET nvisit = 99999 WHERE mid = 5")
        .unwrap();
    let top = engine
        .search("movie_idx", "golden", 1, QueryMode::Conjunctive)
        .unwrap();
    assert_eq!(top[0].row[0], Value::Int(5), "post-restart writes rank");

    // A second restart carries the post-restart write too.
    drop(session);
    drop(engine);
    let engine = SvrEngine::open_path(&dir).unwrap();
    assert_eq!(
        engine
            .search("movie_idx", "golden", 1, QueryMode::Conjunctive)
            .unwrap()[0]
            .row[0],
        Value::Int(5)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dropped_objects_stay_dropped_across_file_restart() {
    let dir = tempdir("sql-drop");
    {
        let engine = SvrEngine::open_path(&dir).unwrap();
        let session = SqlSession::with_engine(engine);
        populate_via_sql(&session);
        session.execute("DROP TEXT INDEX movie_idx").unwrap();
        session.execute("DROP TABLE statistics").unwrap();
    }
    let engine = SvrEngine::open_path(&dir).unwrap();
    assert!(engine.index_names().is_empty());
    assert!(engine.db().table("statistics").is_err());
    assert!(engine.db().table("movies").is_ok());
    // Both names are reusable with fresh state.
    let session = SqlSession::with_engine(engine.clone());
    session
        .execute_script(
            r#"
            CREATE TABLE statistics (mid INT PRIMARY KEY, nvisit INT, ndownload INT);
            CREATE FUNCTION visits (id INT) RETURNS FLOAT
                RETURN SELECT s.nvisit FROM statistics s WHERE s.mid = id;
            CREATE TEXT INDEX movie_idx ON movies(description)
                SCORE WITH (visits) USING METHOD ID;
            INSERT INTO statistics VALUES (1, 7, 0);
        "#,
        )
        .unwrap();
    assert_eq!(engine.score_of("movie_idx", 1).unwrap(), 7.0);
    let _ = std::fs::remove_dir_all(&dir);
}
