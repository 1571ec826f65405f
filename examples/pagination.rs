//! Pagination: resumable ranked search through the cursor API.
//!
//! A newspaper front end serves an "infinite scroll" of articles ranked by
//! live popularity. The one-shot `search` API would re-run the whole top-k
//! query for every page; [`svr::SvrEngine::open_query`] returns a
//! [`svr::SearchCursor`] that *resumes* instead — each page costs only the
//! incremental inverted-list traversal, both through the Rust API and
//! through SQL's `DECLARE`/`FETCH`/`CLOSE` and `LIMIT k OFFSET m`.
//!
//! Run with: `cargo run --release --example pagination`

use svr::{IndexConfig, MethodKind, QueryRequest, SqlSession, SvrEngine};
use svr_relation::schema::{ColumnType, Schema};
use svr_relation::{ScoreComponent, SvrSpec, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let engine = SvrEngine::new();

    engine.create_table(Schema::new(
        "articles",
        &[("aid", ColumnType::Int), ("body", ColumnType::Text)],
        0,
    ))?;
    engine.create_table(Schema::new(
        "clicks",
        &[("aid", ColumnType::Int), ("count", ColumnType::Int)],
        0,
    ))?;

    // 300 articles about the harbor bridge, ranked by click count.
    engine.insert_rows(
        "articles",
        (0..300)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Text(format!("harbor bridge report issue {i}")),
                ]
            })
            .collect(),
    )?;
    engine.create_text_index(
        "article_search",
        "articles",
        "body",
        SvrSpec::single(ScoreComponent::ColumnOf {
            table: "clicks".into(),
            key_col: "aid".into(),
            val_col: "count".into(),
        }),
        MethodKind::Chunk,
        IndexConfig {
            // Document-partitioned write shards: clicks stream in from
            // many threads while readers scroll.
            num_shards: 4,
            min_chunk_docs: 16,
            ..IndexConfig::default()
        },
    )?;
    engine.insert_rows(
        "clicks",
        (0..300)
            .map(|i| vec![Value::Int(i), Value::Int((i * 131) % 10_000)])
            .collect(),
    )?;

    // ---- Infinite scroll through the Rust API -------------------------
    println!("== scrolling 'harbor bridge' by popularity ==");
    let request = QueryRequest::new("article_search", "harbor bridge");
    let mut cursor = engine.open_query(&request)?;
    for page in 1..=3 {
        // Each batch resumes the suspended traversal: ranks 11..20 do not
        // re-pay ranks 1..10.
        let rows = cursor.next_batch(10)?;
        let first = rows.first().map(|r| r.score).unwrap_or(0.0);
        let last = rows.last().map(|r| r.score).unwrap_or(0.0);
        println!(
            "page {page}: {} rows, scores {first:.0} … {last:.0}",
            rows.len()
        );
    }

    // ---- Scrolling across offline maintenance --------------------------
    // The offline merge rebuilds the inverted lists under an open cursor.
    // Each shard's slice of the cursor notices, restarts on the new lists
    // and keeps what it already returned: with no score change in between,
    // no article is lost or repeated and the order holds.
    let mut scroll = engine.open_query(&request)?;
    let mut scrolled = scroll.next_batch(25)?;
    engine.run_maintenance("article_search")?;
    while !scroll.is_exhausted() {
        scrolled.extend(scroll.next_batch(25)?);
    }
    assert!(
        scrolled.windows(2).all(|w| w[0].score >= w[1].score),
        "scores must not increase down the scroll"
    );
    let mut aids: Vec<i64> = scrolled.iter().filter_map(|r| r.row[0].as_i64()).collect();
    aids.sort_unstable();
    assert_eq!(
        aids,
        (0..300).collect::<Vec<i64>>(),
        "every article exactly once across the merge"
    );
    println!(
        "scrolled all {} articles across run_maintenance: each once, in score order",
        scrolled.len()
    );

    // Writers churn scores while the cursor is open: batches keep flowing
    // (each one snapshot-consistent), and the cursor reports how many
    // write epochs it is behind so the caller can re-open when it matters.
    engine.update_row(
        "clicks",
        Value::Int(7),
        &[("count".into(), Value::Int(999_999))],
    )?;
    println!(
        "after a click storm: cursor staleness = {} epoch(s); page 4 still flows",
        cursor.staleness()
    );
    let page4 = cursor.next_batch(10)?;
    println!("page 4: {} rows (stale-but-graceful ordering)", page4.len());

    // A fresh cursor observes the new ranking immediately.
    let fresh = engine.open_query(&request)?.next_batch(1)?;
    println!(
        "fresh cursor top hit: article {:?} (the click-storm winner)\n",
        fresh[0].row[0]
    );

    // ---- The same, in SQL ---------------------------------------------
    let session = SqlSession::with_engine(engine);
    println!("== the same through SQL ==");
    // Page 2 without a cursor: OFFSET plans onto one, skipping rank 1..10
    // in a single traversal.
    let page2 = session.execute(
        r#"SELECT aid FROM articles ORDER BY SCORE(body, "harbor bridge") LIMIT 10 OFFSET 10"#,
    )?;
    println!("LIMIT 10 OFFSET 10 -> {} rows", page2.row_count());

    // Named cursor: the session keeps the suspended enumeration between
    // statements, so no FETCH recomputes the pages before it.
    session.execute(r#"DECLARE scroll CURSOR FOR SELECT aid FROM articles ORDER BY SCORE(body, "harbor bridge")"#)?;
    for page in 1..=3 {
        let rows = session.execute("FETCH 10 FROM scroll")?;
        println!(
            "FETCH 10 FROM scroll (page {page}) -> {} rows",
            rows.row_count()
        );
    }
    session.execute("CLOSE scroll")?;
    println!("CLOSE scroll -> done");
    Ok(())
}
