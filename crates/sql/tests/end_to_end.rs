//! End-to-end SQL tests: the paper's running example (Figure 1 + §3.1)
//! executed through the SQL front end, including score updates that reorder
//! results, the TFIDF variant, every index method, and maintenance.

use svr_relation::Value;
use svr_sql::{SqlResult, SqlSession};

/// The paper's Internet Archive schema: Movies, Reviews, Statistics, and the
/// §3.1 scoring functions S1 (avg rating), S2 (visits), S3 (downloads) with
/// Agg(s1,s2,s3) = s1*100 + s2/2 + s3.
fn setup(method: &str) -> SqlSession {
    let session = SqlSession::new();
    session
        .execute_script(&format!(
            r#"
            CREATE TABLE movies (mid INT PRIMARY KEY, name TEXT, description TEXT);
            CREATE TABLE reviews (rid INT PRIMARY KEY, mid INT, rating FLOAT);
            CREATE TABLE statistics (mid INT PRIMARY KEY, nvisit INT, ndownload INT);

            CREATE FUNCTION S1 (id INTEGER) RETURNS FLOAT
                RETURN SELECT avg(R.rating) FROM reviews R WHERE R.mid = id;
            CREATE FUNCTION S2 (id INTEGER) RETURNS FLOAT
                RETURN SELECT S.nvisit FROM statistics S WHERE S.mid = id;
            CREATE FUNCTION S3 (id INTEGER) RETURNS FLOAT
                RETURN SELECT S.ndownload FROM statistics S WHERE S.mid = id;
            CREATE FUNCTION Agg (s1 FLOAT, s2 FLOAT, s3 FLOAT) RETURNS FLOAT
                RETURN (s1*100 + s2/2 + s3);

            CREATE TEXT INDEX movie_search ON movies(description)
                SCORE WITH (S1, S2, S3) AGGREGATE WITH Agg
                USING METHOD {method}
                OPTIONS (min_chunk_docs = 2, chunk_ratio = 2.0, threshold_ratio = 1.5);

            INSERT INTO movies VALUES
                (1, 'American Thrift', 'a classic production about golden gate thrift'),
                (2, 'Amateur Film',    'amateur footage of the golden gate bridge'),
                (3, 'City Symphony',   'a film about city life and bridges');

            INSERT INTO reviews VALUES
                (100, 1, 4.5), (101, 1, 5.0), (102, 2, 2.0), (103, 3, 3.0);
            INSERT INTO statistics VALUES
                (1, 5000, 120), (2, 40, 3), (3, 900, 50);
            "#,
        ))
        .unwrap();
    session
}

fn top_names(result: &SqlResult) -> Vec<String> {
    match result {
        SqlResult::Ranked { rows, .. } => rows
            .iter()
            .map(|r| r.row[0].as_text().unwrap().to_string())
            .collect(),
        other => panic!("expected ranked result, got {other:?}"),
    }
}

const FIGURE1_QUERY: &str = r#"SELECT name FROM movies m
    ORDER BY score(m.description, "golden gate")
    FETCH TOP 10 RESULTS ONLY"#;

#[test]
fn figure1_query_ranks_by_structured_values() {
    for method in ["ID", "SCORE", "SCORE_THRESHOLD", "CHUNK"] {
        let session = setup(method);
        let result = session.execute(FIGURE1_QUERY).unwrap();
        // Only movies 1 and 2 contain both "golden" and "gate".
        // Scores: movie 1 = 4.75*100 + 5000/2 + 120 = 3095;
        //         movie 2 = 2*100 + 40/2 + 3 = 223.
        assert_eq!(
            top_names(&result),
            vec!["American Thrift", "Amateur Film"],
            "method {method}"
        );
        let SqlResult::Ranked { rows, .. } = &result else {
            unreachable!()
        };
        assert!(
            (rows[0].score - 3095.0).abs() < 1e-9,
            "method {method}: {}",
            rows[0].score
        );
        assert!((rows[1].score - 223.0).abs() < 1e-9, "method {method}");
    }
}

#[test]
fn structured_updates_reorder_results() {
    let session = setup("CHUNK");
    // A flash crowd hits Amateur Film: visits explode.
    session
        .execute("UPDATE statistics SET nvisit = 1000000 WHERE mid = 2")
        .unwrap();
    let result = session.execute(FIGURE1_QUERY).unwrap();
    assert_eq!(top_names(&result), vec!["Amateur Film", "American Thrift"]);
    let SqlResult::Ranked { rows, .. } = &result else {
        unreachable!()
    };
    // 2*100 + 1000000/2 + 3 = 500203.
    assert!((rows[0].score - 500_203.0).abs() < 1e-9);

    // New reviews shift the average rating; ranking must track the view.
    session
        .execute("INSERT INTO reviews VALUES (104, 2, 1.0), (105, 2, 1.0)")
        .unwrap();
    let result = session.execute(FIGURE1_QUERY).unwrap();
    let SqlResult::Ranked { rows, .. } = &result else {
        unreachable!()
    };
    // avg(2,1,1) = 4/3 → 133.33 + 500000 + 3.
    assert!((rows[0].score - (4.0 / 3.0 * 100.0 + 500_000.0 + 3.0)).abs() < 1e-6);
}

#[test]
fn deleting_source_rows_lowers_scores() {
    let session = setup("SCORE_THRESHOLD");
    session
        .execute("DELETE FROM reviews WHERE rid = 101")
        .unwrap();
    let result = session.execute(FIGURE1_QUERY).unwrap();
    let SqlResult::Ranked { rows, .. } = &result else {
        unreachable!()
    };
    // Movie 1's avg drops to 4.5: 450 + 2500 + 120 = 3070.
    assert!((rows[0].score - 3070.0).abs() < 1e-9);
}

#[test]
fn deleting_a_movie_removes_it_from_results() {
    let session = setup("CHUNK");
    session.execute("DELETE FROM movies WHERE mid = 1").unwrap();
    let result = session.execute(FIGURE1_QUERY).unwrap();
    assert_eq!(top_names(&result), vec!["Amateur Film"]);
}

#[test]
fn content_updates_change_matching() {
    let session = setup("CHUNK");
    // Movie 3's description gains the keywords.
    session
        .execute(
            "UPDATE movies SET description = 'golden gate panorama of city life' WHERE mid = 3",
        )
        .unwrap();
    let result = session.execute(FIGURE1_QUERY).unwrap();
    assert_eq!(
        top_names(&result),
        vec!["American Thrift", "City Symphony", "Amateur Film"]
    );
    // And movie 2 loses them.
    session
        .execute("UPDATE movies SET description = 'footage of a bridge' WHERE mid = 2")
        .unwrap();
    let result = session.execute(FIGURE1_QUERY).unwrap();
    assert_eq!(top_names(&result), vec!["American Thrift", "City Symphony"]);
}

#[test]
fn disjunctive_contains_any() {
    let session = setup("CHUNK");
    let result = session
        .execute(
            "SELECT name FROM movies WHERE CONTAINS(description, 'city gate', ANY)
             ORDER BY SCORE(description, 'city gate') FETCH TOP 10 RESULTS ONLY",
        )
        .unwrap();
    // All three match at least one keyword; ranked by SVR score.
    assert_eq!(
        top_names(&result),
        vec!["American Thrift", "City Symphony", "Amateur Film"]
    );
}

#[test]
fn merge_text_index_preserves_answers() {
    let session = setup("CHUNK");
    session
        .execute("UPDATE statistics SET nvisit = 999999 WHERE mid = 2")
        .unwrap();
    let before = top_names(&session.execute(FIGURE1_QUERY).unwrap());
    session.execute("MERGE TEXT INDEX movie_search").unwrap();
    let after = top_names(&session.execute(FIGURE1_QUERY).unwrap());
    assert_eq!(before, after);
}

#[test]
fn tfidf_combination_through_sql() {
    let session = SqlSession::new();
    session
        .execute_script(
            r#"
            CREATE TABLE docs (id INT PRIMARY KEY, body TEXT);
            CREATE TABLE pop (id INT PRIMARY KEY, hits INT);
            CREATE FUNCTION hits_of (d INT) RETURNS FLOAT
                RETURN SELECT p.hits FROM pop p WHERE p.id = d;
            CREATE FUNCTION mix (s1 FLOAT, s4 FLOAT) RETURNS FLOAT
                RETURN s1 + s4 * 50;
            CREATE TEXT INDEX doc_idx ON docs(body)
                SCORE WITH (hits_of, TFIDF()) AGGREGATE WITH mix
                USING METHOD CHUNK_TERMSCORE
                OPTIONS (min_chunk_docs = 2, fancy_size = 4);
            INSERT INTO docs VALUES
                (1, 'ranking ranking ranking ranking'),
                (2, 'ranking diluted diluted diluted diluted diluted diluted');
            INSERT INTO pop VALUES (1, 10), (2, 11);
            "#,
        )
        .unwrap();
    let result = session
        .execute("SELECT id FROM docs ORDER BY SCORE(body, 'ranking') FETCH TOP 2 RESULTS ONLY")
        .unwrap();
    let SqlResult::Ranked { rows, .. } = &result else {
        panic!()
    };
    // Doc 1 has the maximal normalized TF for "ranking"; with weight 50 the
    // term score dominates the 1-hit popularity difference.
    assert_eq!(rows[0].row[0], Value::Int(1));
    assert_eq!(rows.len(), 2);
}

#[test]
fn tfidf_without_term_method_is_rejected() {
    let session = SqlSession::new();
    session
        .execute_script(
            "CREATE TABLE d (id INT PRIMARY KEY, b TEXT);
             CREATE FUNCTION one (x INT) RETURNS FLOAT RETURN SELECT p.v FROM q p WHERE p.id = x;",
        )
        .unwrap();
    let err = session
        .execute("CREATE TEXT INDEX i ON d(b) SCORE WITH (one, TFIDF()) USING METHOD CHUNK")
        .unwrap_err();
    assert!(err.to_string().contains("cannot evaluate TFIDF"), "{err}");
}

#[test]
fn nonlinear_tfidf_aggregate_is_rejected() {
    let session = SqlSession::new();
    session
        .execute_script(
            "CREATE TABLE d (id INT PRIMARY KEY, b TEXT);
             CREATE TABLE p (id INT PRIMARY KEY, v INT);
             CREATE FUNCTION c (x INT) RETURNS FLOAT
                 RETURN SELECT p.v FROM p WHERE p.id = x;
             CREATE FUNCTION bad (s1 FLOAT, s4 FLOAT) RETURNS FLOAT RETURN s1 * s4;",
        )
        .unwrap();
    let err = session
        .execute("CREATE TEXT INDEX i ON d(b) SCORE WITH (c, TFIDF()) AGGREGATE WITH bad")
        .unwrap_err();
    assert!(err.to_string().contains("linear"), "{err}");
}

#[test]
fn plain_selects_and_projection() {
    let session = setup("ID");
    let result = session
        .execute("SELECT name FROM movies WHERE mid = 2")
        .unwrap();
    assert_eq!(
        result,
        SqlResult::Rows {
            columns: vec!["name".into()],
            rows: vec![vec![Value::Text("Amateur Film".into())]],
        }
    );
    let all = session
        .execute("SELECT mid, name FROM movies LIMIT 2")
        .unwrap();
    assert_eq!(all.row_count(), 2);
}

#[test]
fn reviews_fk_scan_matches() {
    let session = setup("ID");
    let scan = session
        .execute("SELECT rid FROM reviews WHERE mid = 1")
        .unwrap();
    assert_eq!(scan.row_count(), 2);
}

#[test]
fn errors_are_informative() {
    let session = SqlSession::new();
    // Unknown table.
    assert!(session.execute("SELECT * FROM nope").is_err());
    // Unknown scoring function.
    session
        .execute("CREATE TABLE t (a INT PRIMARY KEY, b TEXT)")
        .unwrap();
    let err = session
        .execute("CREATE TEXT INDEX i ON t(b) SCORE WITH (mystery)")
        .unwrap_err();
    assert!(
        err.to_string().contains("unknown scoring function"),
        "{err}"
    );
    // Ranked query without an index.
    let err = session
        .execute("SELECT * FROM t ORDER BY SCORE(b, 'x') FETCH TOP 1 RESULTS ONLY")
        .unwrap_err();
    assert!(err.to_string().contains("no text index"), "{err}");
    // Duplicate function.
    session
        .execute("CREATE FUNCTION f (a FLOAT) RETURNS FLOAT RETURN a")
        .unwrap();
    assert!(session
        .execute("CREATE FUNCTION f (a FLOAT) RETURNS FLOAT RETURN a")
        .is_err());
}

#[test]
fn update_requires_pk_predicate() {
    let session = setup("ID");
    let err = session
        .execute("UPDATE statistics SET nvisit = 1 WHERE nvisit = 40")
        .unwrap_err();
    assert!(err.to_string().contains("primary-key"), "{err}");
}

/// `OPTIONS (shards = N)` partitions the write path without changing any
/// ranking: the Figure 1 example must behave identically, and `EXPLAIN`
/// must report the shard layout.
#[test]
fn sharded_index_ranks_identically_and_explains_shards() {
    let session = SqlSession::new();
    session
        .execute_script(
            r#"
            CREATE TABLE movies (mid INT PRIMARY KEY, name TEXT, description TEXT);
            CREATE TABLE statistics (mid INT PRIMARY KEY, nvisit INT, ndownload INT);
            CREATE FUNCTION S2 (id INTEGER) RETURNS FLOAT
                RETURN SELECT S.nvisit FROM statistics S WHERE S.mid = id;
            CREATE TEXT INDEX movie_search ON movies(description)
                SCORE WITH (S2)
                USING METHOD CHUNK
                OPTIONS (min_chunk_docs = 2, chunk_ratio = 2.0, shards = 4);
            INSERT INTO movies VALUES
                (1, 'American Thrift', 'a classic production about golden gate thrift'),
                (2, 'Amateur Film',    'amateur footage of the golden gate bridge'),
                (3, 'City Symphony',   'a film about city life and bridges');
            INSERT INTO statistics VALUES (1, 5000, 120), (2, 40, 3), (3, 900, 50);
            "#,
        )
        .unwrap();
    let result = session.execute(FIGURE1_QUERY).unwrap();
    assert_eq!(
        top_names(&result),
        vec!["American Thrift", "Amateur Film"],
        "sharded ranking must match the unsharded one"
    );

    // A score update routed through the sharded write path reorders.
    session
        .execute("UPDATE statistics SET nvisit = 1000000 WHERE mid = 2")
        .unwrap();
    let result = session.execute(FIGURE1_QUERY).unwrap();
    assert_eq!(top_names(&result), vec!["Amateur Film", "American Thrift"]);

    let plan = session
        .execute(&format!("EXPLAIN {FIGURE1_QUERY}"))
        .unwrap();
    let SqlResult::Plan(lines) = &plan else {
        panic!("expected plan, got {plan:?}")
    };
    let text = lines.join("\n");
    assert!(text.contains("shards: 4"), "{text}");
    for shard in 0..4 {
        assert!(text.contains(&format!("shard {shard}: docs=")), "{text}");
    }

    // Bogus shard counts are rejected at planning time.
    for bad in ["shards = 0", "shards = 2.5"] {
        let err = session
            .execute(&format!(
                "CREATE TEXT INDEX bad ON movies(name) SCORE WITH (S2) OPTIONS ({bad})"
            ))
            .unwrap_err();
        assert!(err.to_string().contains("shards"), "{err}");
    }
}

#[test]
fn result_display_renders_tables() {
    let session = setup("CHUNK");
    let shown = format!("{}", session.execute(FIGURE1_QUERY).unwrap());
    assert!(shown.contains("American Thrift"));
    assert!(shown.contains("score"));
    assert!(shown.contains("3095"));
}

#[test]
fn explain_describes_access_paths() {
    let session = setup("CHUNK");
    let plan = session
        .execute(&format!("EXPLAIN {FIGURE1_QUERY}"))
        .unwrap();
    let SqlResult::Plan(lines) = &plan else {
        panic!("expected plan, got {plan:?}")
    };
    let text = lines.join("\n");
    assert!(text.contains("RankedKeywordSearch"), "{text}");
    assert!(text.contains("method=Chunk"), "{text}");
    assert!(text.contains("k=10"), "{text}");
    assert!(text.contains("golden gate"), "{text}");
    assert!(text.contains("shards: 1"), "{text}");
    assert!(text.contains("shard 0: docs=3"), "{text}");
    assert!(text.contains("storage: codec=legacy"), "{text}");
    // The bounded execution reports its lock activity per class; a ranked
    // search takes at least one shard read lock.
    assert!(text.contains("locks: "), "{text}");
    assert!(text.contains("shard="), "{text}");

    let plan = session
        .execute("EXPLAIN SELECT name FROM movies WHERE mid = 1")
        .unwrap();
    let SqlResult::Plan(lines) = &plan else {
        panic!()
    };
    assert!(lines[0].contains("PointLookup"), "{lines:?}");

    let plan = session
        .execute("EXPLAIN SELECT rid FROM reviews WHERE mid = 1")
        .unwrap();
    let SqlResult::Plan(lines) = &plan else {
        panic!()
    };
    assert!(lines[0].contains("TableScan"), "{lines:?}");

    // EXPLAIN must not execute anything.
    assert!(session
        .execute("EXPLAIN DELETE FROM movies WHERE mid = 1")
        .is_err());
    assert_eq!(
        session
            .execute("SELECT * FROM movies WHERE mid = 1")
            .unwrap()
            .row_count(),
        1,
        "row must still exist"
    );
}

/// `OPTIONS (codec = ...)` selects the long-list block codec per index;
/// rankings are codec-independent and EXPLAIN reports the physical
/// storage (codec, bytes, bytes/posting) once the merge fills long lists.
#[test]
fn codec_option_selects_storage_and_preserves_rankings() {
    let mut baseline: Option<Vec<String>> = None;
    for codec in ["legacy", "bitpacked"] {
        let session = SqlSession::new();
        session
            .execute_script(&format!(
                r#"
                CREATE TABLE movies (mid INT PRIMARY KEY, description TEXT);
                CREATE TABLE stats (mid INT PRIMARY KEY, nvisit INT);
                CREATE FUNCTION S (id INTEGER) RETURNS FLOAT
                    RETURN SELECT t.nvisit FROM stats t WHERE t.mid = id;
                CREATE TEXT INDEX cx ON movies(description)
                    SCORE WITH (S)
                    USING METHOD CHUNK
                    OPTIONS (min_chunk_docs = 2, codec = {codec});
                "#,
            ))
            .unwrap();
        for i in 0..30 {
            let word = ["golden", "gate", "bridge"][i % 3];
            session
                .execute(&format!(
                    "INSERT INTO movies VALUES ({i}, 'the {word} clip {i}')"
                ))
                .unwrap();
            session
                .execute(&format!("INSERT INTO stats VALUES ({i}, {})", i * 31 % 400))
                .unwrap();
        }
        session.execute("MERGE TEXT INDEX cx").unwrap();
        let result = session
            .execute(
                r#"SELECT mid FROM movies m
                   ORDER BY score(m.description, "golden")
                   FETCH TOP 10 RESULTS ONLY"#,
            )
            .unwrap();
        let SqlResult::Ranked { rows, .. } = &result else {
            panic!("expected ranked result, got {result:?}")
        };
        let got: Vec<String> = rows
            .iter()
            .map(|r| format!("{:?}@{}", r.row[0], r.score))
            .collect();
        match &baseline {
            None => baseline = Some(got),
            Some(want) => assert_eq!(&got, want, "codec {codec} changed the ranking"),
        }

        let plan = session
            .execute(
                r#"EXPLAIN SELECT mid FROM movies m
                   ORDER BY score(m.description, "golden")
                   FETCH TOP 10 RESULTS ONLY"#,
            )
            .unwrap();
        let SqlResult::Plan(lines) = &plan else {
            panic!()
        };
        let text = lines.join("\n");
        assert!(text.contains(&format!("storage: codec={codec}")), "{text}");
        assert!(text.contains("B/posting"), "{text}");
    }

    // Unknown codec names fail cleanly at CREATE time.
    let session = SqlSession::new();
    session
        .execute_script(
            r#"
            CREATE TABLE t (id INT PRIMARY KEY, d TEXT);
            CREATE TABLE s (id INT PRIMARY KEY, v INT);
            CREATE FUNCTION SV (id INTEGER) RETURNS FLOAT
                RETURN SELECT x.v FROM s x WHERE x.id = id;
            "#,
        )
        .unwrap();
    let err = session
        .execute(
            "CREATE TEXT INDEX bad ON t(d) SCORE WITH (SV) \
             USING METHOD ID OPTIONS (codec = lz77)",
        )
        .unwrap_err();
    assert!(format!("{err}").contains("codec"), "{err}");
}

#[test]
fn drop_function_unregisters() {
    let session = SqlSession::new();
    session
        .execute("CREATE FUNCTION f (a FLOAT) RETURNS FLOAT RETURN a * 2")
        .unwrap();
    session.execute("DROP FUNCTION f").unwrap();
    // Now the name is free again.
    session
        .execute("CREATE FUNCTION f (a FLOAT) RETURNS FLOAT RETURN a * 3")
        .unwrap();
    // Dropping twice errors.
    session.execute("DROP FUNCTION f").unwrap();
    assert!(session.execute("DROP FUNCTION f").is_err());
}

#[test]
fn every_method_name_is_accepted_by_ddl() {
    for method in [
        "ID",
        "SCORE",
        "SCORE_THRESHOLD",
        "CHUNK",
        "ID_TERMSCORE",
        "CHUNK_TERMSCORE",
        "SCORE_THRESHOLD_TERMSCORE",
    ] {
        let session = setup(method);
        let result = session.execute(FIGURE1_QUERY).unwrap();
        assert_eq!(top_names(&result)[0], "American Thrift", "method {method}");
    }
}

#[test]
fn drop_text_index_and_table_tear_down_state() {
    let session = setup("CHUNK");
    // The indexed table refuses to drop while the index exists.
    let err = session.execute("DROP TABLE movies").unwrap_err();
    assert!(err.to_string().contains("movie_search"), "{err}");

    assert_eq!(
        session.execute("DROP TEXT INDEX movie_search").unwrap(),
        SqlResult::None
    );
    // Ranked queries now fail with a planning error...
    let err = session
        .execute(r#"SELECT name FROM movies ORDER BY SCORE(description, "golden gate")"#)
        .unwrap_err();
    assert!(err.to_string().contains("no text index"), "{err}");
    // ...but plain relational access still works.
    assert_eq!(
        session
            .execute("SELECT name FROM movies")
            .unwrap()
            .row_count(),
        3
    );

    // Source tables still feed nothing; drop them all.
    for table in ["movies", "reviews", "statistics"] {
        assert_eq!(
            session.execute(&format!("DROP TABLE {table}")).unwrap(),
            SqlResult::None,
            "{table}"
        );
    }
    assert!(session.execute("SELECT * FROM movies").is_err());
    assert!(session.execute("DROP TABLE movies").is_err(), "double drop");
    assert!(
        session.execute("DROP TEXT INDEX movie_search").is_err(),
        "double index drop"
    );

    // The namespace is reusable: rebuild a fresh index in the same session.
    session
        .execute_script(
            r#"
            CREATE TABLE movies (mid INT PRIMARY KEY, name TEXT, description TEXT);
            CREATE TABLE statistics (mid INT PRIMARY KEY, nvisit INT, ndownload INT);
            CREATE TEXT INDEX movie_search ON movies(description)
                SCORE WITH (S2) USING METHOD ID;
            INSERT INTO movies VALUES (9, 'Rebuilt', 'golden gate again');
            INSERT INTO statistics VALUES (9, 70, 0);
            "#,
        )
        .unwrap();
    let result = session
        .execute(r#"SELECT name FROM movies ORDER BY SCORE(description, "golden gate")"#)
        .unwrap();
    assert_eq!(top_names(&result), vec!["Rebuilt"]);
}

#[test]
fn cloned_sessions_share_engine_and_functions() {
    let session = setup("CHUNK");
    let clone = session.clone();
    // DDL through one handle is visible through the other.
    clone
        .execute("INSERT INTO movies VALUES (4, 'Fourth', 'golden gate redux')")
        .unwrap();
    clone
        .execute("INSERT INTO statistics VALUES (4, 1000000, 0)")
        .unwrap();
    let result = session
        .execute(
            r#"SELECT name FROM movies ORDER BY SCORE(description, "golden gate")
               FETCH TOP 1 RESULTS ONLY"#,
        )
        .unwrap();
    assert_eq!(top_names(&result), vec!["Fourth"]);
    // Functions registered before the clone exist in both; dropping through
    // the clone removes it for everyone.
    clone.execute("DROP FUNCTION S3").unwrap();
    assert!(session.execute("DROP FUNCTION S3").is_err());
}

/// `LIMIT k OFFSET m` / `OFFSET ... FETCH NEXT` paginate the ranked path:
/// every page equals the matching slice of a deep one-shot query.
#[test]
fn ranked_offset_pagination_matches_one_shot_slices() {
    let session = setup("CHUNK");
    // More movies so there are several pages.
    session
        .execute(
            "INSERT INTO movies VALUES
                (4, 'Gate Repairs', 'the golden gate maintenance crew'),
                (5, 'Fog City',     'fog rolling over the golden gate at dawn'),
                (6, 'Bridge Walk',  'walking the golden gate span')",
        )
        .unwrap();
    session
        .execute("INSERT INTO statistics VALUES (4, 700, 9), (5, 80, 2), (6, 3000, 77)")
        .unwrap();

    let all = top_names(
        &session
            .execute(
                r#"SELECT name FROM movies ORDER BY SCORE(description, "golden gate") LIMIT 6"#,
            )
            .unwrap(),
    );
    // Movies 1, 2, 4, 5, 6 contain both keywords; movie 3 contains neither.
    assert_eq!(all.len(), 5);
    for (page, offset) in [(2usize, 0usize), (2, 2), (1, 4)] {
        let rows = top_names(
            &session
                .execute(&format!(
                    r#"SELECT name FROM movies ORDER BY SCORE(description, "golden gate")
                       LIMIT {page} OFFSET {offset}"#
                ))
                .unwrap(),
        );
        assert_eq!(rows, all[offset..offset + page].to_vec(), "offset {offset}");
    }
    // SQL-standard spelling: OFFSET m ROWS FETCH NEXT k ROWS ONLY.
    let rows = top_names(
        &session
            .execute(
                r#"SELECT name FROM movies ORDER BY SCORE(description, "golden gate")
                   OFFSET 3 ROWS FETCH NEXT 2 ROWS ONLY"#,
            )
            .unwrap(),
    );
    assert_eq!(rows, all[3..5].to_vec());
    // Past the end: empty page, not an error.
    let rows = top_names(
        &session
            .execute(
                r#"SELECT name FROM movies ORDER BY SCORE(description, "golden gate")
                   LIMIT 5 OFFSET 40"#,
            )
            .unwrap(),
    );
    assert!(rows.is_empty());
}

/// OFFSET also applies to plain (unranked) scans.
#[test]
fn plain_scan_offset() {
    let session = setup("ID");
    let SqlResult::Rows { rows, .. } = session
        .execute("SELECT mid FROM movies LIMIT 2 OFFSET 1")
        .unwrap()
    else {
        panic!("expected rows");
    };
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0][0], Value::Int(2));
}

/// DECLARE / FETCH / CLOSE: paginated SQL that never recomputes a prefix,
/// with the cursor surviving (and reflecting) interleaved score updates.
#[test]
fn named_cursor_lifecycle() {
    let session = setup("SCORE_THRESHOLD");
    session
        .execute(
            r#"DECLARE page CURSOR FOR SELECT name FROM movies
               ORDER BY SCORE(description, "golden gate")"#,
        )
        .unwrap();
    let first = top_names(&session.execute("FETCH 1 FROM page").unwrap());
    assert_eq!(first, vec!["American Thrift".to_string()]);
    let second = top_names(&session.execute("FETCH NEXT 1 FROM page").unwrap());
    assert_eq!(second, vec!["Amateur Film".to_string()]);
    // Exhausted: conjunctive "golden gate" matches only movies 1 and 2.
    assert_eq!(session.execute("FETCH 5 FROM page").unwrap().row_count(), 0);
    session.execute("CLOSE page").unwrap();
    assert!(session.execute("FETCH 1 FROM page").is_err(), "closed");
    assert!(session.execute("CLOSE page").is_err(), "already closed");

    // Duplicate names and non-ranked declarations are rejected.
    session
        .execute(
            r#"DECLARE c2 CURSOR FOR SELECT * FROM movies WHERE CONTAINS(description, 'golden')"#,
        )
        .unwrap();
    assert!(session
        .execute(
            r#"DECLARE c2 CURSOR FOR SELECT * FROM movies WHERE CONTAINS(description, 'golden')"#
        )
        .is_err());
    assert!(
        session
            .execute("DECLARE c3 CURSOR FOR SELECT * FROM movies")
            .is_err(),
        "plain scans are not cursorable"
    );
    assert!(
        session
            .execute(
                r#"DECLARE c4 CURSOR FOR SELECT * FROM movies
                        ORDER BY SCORE(description, "golden") LIMIT 3"#
            )
            .is_err(),
        "page size belongs to FETCH, not the declaration"
    );
    session.execute("CLOSE c2").unwrap();
}

/// A declared cursor with OFFSET starts at that rank; clones of the
/// session share the cursor registry (it is session-cluster state).
#[test]
fn named_cursor_offset_via_clone() {
    let session = setup("CHUNK");
    session
        .execute(
            r#"DECLARE deep CURSOR FOR SELECT name FROM movies
               ORDER BY SCORE(description, "golden gate") OFFSET 1"#,
        )
        .unwrap();
    // Fetch through a *clone* of the session: shared registry.
    let clone = session.clone();
    let rows = top_names(&clone.execute("FETCH 2 FROM deep").unwrap());
    assert_eq!(rows, vec!["Amateur Film".to_string()]);
    session.execute("CLOSE deep").unwrap();
}

/// EXPLAIN surfaces the shared keyword-resolution step and the cursor
/// plan for OFFSET queries.
#[test]
fn explain_shows_terms_and_cursor_skip() {
    let session = setup("CHUNK");
    let SqlResult::Plan(lines) = session
        .execute(
            r#"EXPLAIN SELECT name FROM movies
               ORDER BY SCORE(description, "golden gate unknownword") LIMIT 3 OFFSET 7"#,
        )
        .unwrap()
    else {
        panic!("expected plan");
    };
    let text = lines.join("\n");
    assert!(text.contains("terms: 2 resolved, 1 unknown"), "{text}");
    assert!(text.contains("matches nothing"), "{text}");
    assert!(text.contains("offset: 7"), "{text}");
    assert!(text.contains("blocks:"), "{text}");
}

/// The multi-term surface: infix `CONTAINS ALL|ANY (...)` and
/// `RANK BY col (...)` are exact spellings of the legacy function forms.
#[test]
fn infix_contains_and_rank_by_match_legacy_forms() {
    for method in ["ID", "ID_TERMSCORE", "CHUNK"] {
        let session = setup(method);
        let legacy = top_names(
            &session
                .execute(
                    r#"SELECT name FROM movies WHERE CONTAINS(description, 'golden gate', ALL)
                       ORDER BY SCORE(description, 'golden gate') FETCH TOP 10 RESULTS ONLY"#,
                )
                .unwrap(),
        );
        let infix = top_names(
            &session
                .execute(
                    r#"SELECT name FROM movies
                       WHERE description CONTAINS ALL ('golden', 'gate')
                       RANK BY description ('golden', 'gate') FETCH TOP 10 RESULTS ONLY"#,
                )
                .unwrap(),
        );
        assert_eq!(legacy, infix, "method {method}");
        assert_eq!(
            legacy,
            vec!["American Thrift".to_string(), "Amateur Film".into()]
        );

        // ANY ranks every document matching either term.
        let any = top_names(
            &session
                .execute(
                    r#"SELECT name FROM movies
                       WHERE description CONTAINS ANY ('city', 'gate')
                       FETCH TOP 10 RESULTS ONLY"#,
                )
                .unwrap(),
        );
        assert_eq!(any.len(), 3, "method {method}");
    }
}

/// Unknown-term semantics: conjunctive queries with an out-of-vocabulary
/// keyword match nothing (without error); disjunctive forms drop the
/// unknown term and rank on the rest.
#[test]
fn unknown_terms_empty_conjunctive_dropped_disjunctive() {
    let session = setup("CHUNK");
    let empty = top_names(
        &session
            .execute(
                r#"SELECT name FROM movies
                   WHERE description CONTAINS ALL ('golden', 'zzzoov')
                   FETCH TOP 10 RESULTS ONLY"#,
            )
            .unwrap(),
    );
    assert!(empty.is_empty(), "conjunctive OOV matches nothing");

    let any = top_names(
        &session
            .execute(
                r#"SELECT name FROM movies
                   WHERE description CONTAINS ANY ('golden', 'zzzoov')
                   FETCH TOP 10 RESULTS ONLY"#,
            )
            .unwrap(),
    );
    assert_eq!(any.len(), 2, "ANY drops the unknown term");

    let ranked = top_names(
        &session
            .execute(
                r#"SELECT name FROM movies RANK BY description ('golden', 'zzzoov')
                   FETCH TOP 10 RESULTS ONLY"#,
            )
            .unwrap(),
    );
    assert_eq!(ranked, any, "RANK BY drops the unknown term the same way");

    // EXPLAIN keeps the resolved/unknown counts accurate for each form.
    let SqlResult::Plan(lines) = session
        .execute(
            r#"EXPLAIN SELECT name FROM movies RANK BY description ('golden', 'zzzoov')
               FETCH TOP 10 RESULTS ONLY"#,
        )
        .unwrap()
    else {
        panic!("expected plan");
    };
    let text = lines.join("\n");
    assert!(text.contains("mode=disjunctive"), "{text}");
    assert!(text.contains("terms: 1 resolved, 1 unknown"), "{text}");
    assert!(!text.contains("matches nothing"), "{text}");
    let SqlResult::Plan(lines) = session
        .execute(
            r#"EXPLAIN SELECT name FROM movies
               WHERE description CONTAINS ALL ('golden', 'zzzoov')"#,
        )
        .unwrap()
    else {
        panic!("expected plan");
    };
    let text = lines.join("\n");
    assert!(text.contains("mode=conjunctive"), "{text}");
    assert!(text.contains("terms: 1 resolved, 1 unknown"), "{text}");
    assert!(text.contains("matches nothing"), "{text}");
}

/// BEGIN/COMMIT: DML queues invisibly (deferred visibility) and applies
/// atomically at COMMIT, reordering rankings in one step.
#[test]
fn transaction_commit_applies_atomically() {
    let session = setup("CHUNK");
    session.execute("BEGIN").unwrap();
    assert!(session.in_transaction());
    session
        .execute("UPDATE statistics SET nvisit = 200000 WHERE mid = 2")
        .unwrap();
    session
        .execute("INSERT INTO movies VALUES (4, 'Gate Redux', 'golden gate again')")
        .unwrap();
    // Deferred visibility: reads (even our own) see none of it yet.
    let names = top_names(&session.execute(FIGURE1_QUERY).unwrap());
    assert_eq!(
        names[0], "American Thrift",
        "queued DML invisible pre-COMMIT"
    );
    assert_eq!(
        session
            .execute("SELECT * FROM movies WHERE mid = 4")
            .unwrap()
            .row_count(),
        0
    );

    let result = session.execute("COMMIT TRANSACTION").unwrap();
    assert_eq!(result, SqlResult::Committed(2));
    assert!(!session.in_transaction());
    let names = top_names(&session.execute(FIGURE1_QUERY).unwrap());
    assert_eq!(
        names[0], "Amateur Film",
        "the visit spike ranks movie 2 first"
    );
    assert_eq!(
        session
            .execute("SELECT * FROM movies WHERE mid = 4")
            .unwrap()
            .row_count(),
        1
    );
}

/// ROLLBACK discards the queued batch; a failing COMMIT leaves no trace.
#[test]
fn transaction_rollback_and_failed_commit_leave_no_trace() {
    let session = setup("CHUNK");
    let before = top_names(&session.execute(FIGURE1_QUERY).unwrap());

    session.execute("BEGIN WORK").unwrap();
    session
        .execute("UPDATE statistics SET nvisit = 999999 WHERE mid = 3")
        .unwrap();
    session.execute("ROLLBACK").unwrap();
    assert_eq!(top_names(&session.execute(FIGURE1_QUERY).unwrap()), before);

    // A transaction whose LAST op fails (duplicate key) must roll the
    // earlier ops back too — no partial application.
    session.execute("BEGIN").unwrap();
    session
        .execute("UPDATE statistics SET nvisit = 999999 WHERE mid = 3")
        .unwrap();
    session
        .execute("INSERT INTO movies VALUES (1, 'Dup', 'golden gate dup')")
        .unwrap();
    let err = session.execute("COMMIT").unwrap_err();
    assert!(err.to_string().contains("duplicate"), "{err}");
    assert!(
        !session.in_transaction(),
        "a failed COMMIT ends the transaction"
    );
    assert_eq!(
        top_names(&session.execute(FIGURE1_QUERY).unwrap()),
        before,
        "the rolled-back update must not leak into rankings"
    );
    assert_eq!(
        session.engine().score_of("movie_search", 3).unwrap(),
        3.0 * 100.0 + 900.0 / 2.0 + 50.0,
        "view score of movie 3 untouched"
    );
    // And the transaction is retryable without the poison op.
    session.execute("BEGIN").unwrap();
    session
        .execute("UPDATE statistics SET nvisit = 999999 WHERE mid = 3")
        .unwrap();
    assert_eq!(session.execute("COMMIT").unwrap(), SqlResult::Committed(1));
    assert_eq!(
        session.engine().score_of("movie_search", 3).unwrap(),
        3.0 * 100.0 + 999_999.0 / 2.0 + 50.0,
        "the retried transaction applied"
    );
}

/// Transaction statement misuse and DDL rejection.
#[test]
fn transaction_statement_rules() {
    let session = setup("CHUNK");
    assert!(session.execute("COMMIT").is_err(), "COMMIT outside txn");
    assert!(session.execute("ROLLBACK").is_err(), "ROLLBACK outside txn");
    session.execute("BEGIN").unwrap();
    assert!(session.execute("BEGIN").is_err(), "no nesting");
    assert!(
        session
            .execute("CREATE TABLE t2 (a INT PRIMARY KEY)")
            .is_err(),
        "DDL rejected inside a transaction"
    );
    assert!(session.execute("DROP TABLE movies").is_err());
    // Clones share the transaction (session-cluster state).
    let clone = session.clone();
    assert!(clone.in_transaction());
    clone.execute("ROLLBACK").unwrap();
    assert!(!session.in_transaction());
}

/// The per-session cursor cap errors cleanly and CLOSE ALL frees it.
#[test]
fn cursor_cap_and_close_all() {
    let session = setup("CHUNK");
    session.set_cursor_limit(2);
    for name in ["c1", "c2"] {
        session
            .execute(&format!(
                r#"DECLARE {name} CURSOR FOR SELECT name FROM movies
                   ORDER BY SCORE(description, "golden gate")"#
            ))
            .unwrap();
    }
    let err = session
        .execute(
            r#"DECLARE c3 CURSOR FOR SELECT name FROM movies
               ORDER BY SCORE(description, "golden gate")"#,
        )
        .unwrap_err();
    assert!(err.to_string().contains("cursor limit"), "{err}");
    session.execute("CLOSE ALL").unwrap();
    session
        .execute(
            r#"DECLARE c3 CURSOR FOR SELECT name FROM movies
               ORDER BY SCORE(description, "golden gate")"#,
        )
        .unwrap();
    assert_eq!(session.execute("FETCH 1 FROM c3").unwrap().row_count(), 1);
    assert!(
        session.execute("FETCH 1 FROM c1").is_err(),
        "closed by CLOSE ALL"
    );
}

#[test]
fn cursor_idle_ttl_expires_and_reports_cleanly() {
    let session = setup("CHUNK");
    // TTL off by default: an idle cursor lives until CLOSE.
    session
        .execute(
            r#"DECLARE forever CURSOR FOR SELECT name FROM movies
               ORDER BY SCORE(description, "golden gate")"#,
        )
        .unwrap();
    assert_eq!(session.sweep_expired_cursors(), 0, "TTL off: no sweep");

    session.set_cursor_ttl(Some(std::time::Duration::from_millis(60)));
    session
        .execute(
            r#"DECLARE ephemeral CURSOR FOR SELECT name FROM movies
               ORDER BY SCORE(description, "golden gate")"#,
        )
        .unwrap();
    // Touching a cursor resets its idle clock.
    std::thread::sleep(std::time::Duration::from_millis(25));
    assert_eq!(
        session
            .execute("FETCH 1 FROM ephemeral")
            .unwrap()
            .row_count(),
        1
    );
    std::thread::sleep(std::time::Duration::from_millis(25));
    // Still under TTL since the fetch: survives this session activity...
    assert_eq!(
        session
            .execute("FETCH 1 FROM ephemeral")
            .unwrap()
            .row_count(),
        1
    );
    std::thread::sleep(std::time::Duration::from_millis(100));
    // ...but past it, any session activity sweeps, and FETCH reports a
    // clean expiry (not "unknown cursor").
    let err = session.execute("FETCH 1 FROM ephemeral").unwrap_err();
    assert!(err.to_string().contains("expired"), "{err}");
    let err = session.execute("FETCH 1 FROM forever").unwrap_err();
    assert!(err.to_string().contains("expired"), "{err}");
    // Re-declaring the name restarts the enumeration from rank 1.
    session
        .execute(
            r#"DECLARE ephemeral CURSOR FOR SELECT name FROM movies
               ORDER BY SCORE(description, "golden gate")"#,
        )
        .unwrap();
    assert_eq!(
        session
            .execute("FETCH 2 FROM ephemeral")
            .unwrap()
            .row_count(),
        2
    );
    // A name never declared still reports "unknown", not "expired".
    let err = session.execute("FETCH 1 FROM nothere").unwrap_err();
    assert!(err.to_string().contains("unknown cursor"), "{err}");
}

/// The single-statement entry point drives its arity check off `pop()`
/// itself (no unwrap): empty input and multi-statement input are clean
/// parse errors, one statement parses.
#[test]
fn parse_statement_arity_is_an_error_not_a_panic() {
    use svr_sql::parser::parse_statement;
    assert!(parse_statement("").is_err());
    assert!(parse_statement("   ;  ;").is_err());
    assert!(parse_statement("SELECT a FROM t; SELECT b FROM t").is_err());
    assert!(parse_statement("SELECT a FROM t").is_ok());
}

/// Out-of-range `OPTIONS (...)` values arrive from outside: each must be an
/// execution error (not a panic), and must leave nothing behind — the same
/// index name is creatable with valid options right after.
#[test]
fn out_of_range_index_options_are_errors_and_leave_no_orphan_view() {
    let session = SqlSession::new();
    session
        .execute_script(
            "CREATE TABLE d (id INT PRIMARY KEY, b TEXT);
             CREATE TABLE p (id INT PRIMARY KEY, v INT);
             CREATE FUNCTION c (x INT) RETURNS FLOAT
                 RETURN SELECT p.v FROM p WHERE p.id = x;
             INSERT INTO d VALUES (1, 'golden gate'), (2, 'golden bridge');
             INSERT INTO p VALUES (1, 10), (2, 20);",
        )
        .unwrap();
    for (option, needles) in [
        (
            "chunk_ratio = 0.5",
            ["invalid index configuration", "chunk ratio"],
        ),
        (
            "page_size = 16",
            ["invalid index configuration", "page size"],
        ),
        (
            "fancy_size = 0",
            ["invalid index configuration", "fancy list size"],
        ),
        (
            "threshold_ratio = 1",
            ["invalid index configuration", "threshold ratio"],
        ),
        // A retired codec is refused by name before any object is created.
        (
            "codec = varint",
            ["varint codec was retired", "legacy or bitpacked"],
        ),
    ] {
        let err = session
            .execute(&format!(
                "CREATE TEXT INDEX i ON d(b) SCORE WITH (c) USING METHOD CHUNK OPTIONS ({option})"
            ))
            .unwrap_err();
        let message = err.to_string();
        assert!(
            needles.iter().all(|needle| message.contains(needle)),
            "{option}: {message}"
        );
    }
    session
        .execute(
            "CREATE TEXT INDEX i ON d(b) SCORE WITH (c) USING METHOD CHUNK
             OPTIONS (chunk_ratio = 2.0, min_chunk_docs = 1)",
        )
        .unwrap();
    let result = session
        .execute("SELECT id FROM d ORDER BY SCORE(b, 'golden') FETCH TOP 2 RESULTS ONLY")
        .unwrap();
    let SqlResult::Ranked { rows, .. } = &result else {
        panic!("expected ranked result, got {result:?}")
    };
    assert_eq!(rows[0].row[0], Value::Int(2));
    assert_eq!(rows.len(), 2);
}
