//! Multi-term search: `CONTAINS ALL/ANY`, multi-keyword `RANK BY`, and
//! block-max WAND skipping.
//!
//! A trail-guide site ranks hiking trails by visitor clicks. Searches are
//! rarely one keyword: "granite vista ridge" should require all three
//! (`CONTAINS ALL` / conjunctive `RANK BY`), or any of them (`CONTAINS
//! ANY`), and still rank by the live structured score. On the doc-ordered
//! methods these queries run the block-max WAND executor: whole 128-posting
//! blocks whose `(max doc, max tscore)` metadata cannot beat the current
//! top-k threshold are skipped without being decoded — `EXPLAIN` shows the
//! per-query block counts. Unknown keywords are forgiving: `CONTAINS ALL`
//! with a term nobody ever wrote matches nothing (no error), while `ANY`
//! and `RANK BY` simply drop it.
//!
//! Run with: `cargo run --release --example multiterm`

use svr::{SqlResult, SqlSession};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let session = SqlSession::new();
    session.execute_script(
        r#"
        CREATE TABLE trails (tid INT PRIMARY KEY, description TEXT);
        CREATE TABLE clicks (tid INT, hits FLOAT);

        CREATE FUNCTION popularity (id INT) RETURNS FLOAT
            RETURN SELECT AVG(c.hits) FROM clicks c WHERE c.tid = id;
    "#,
    )?;

    // 2000 trail descriptions. Everything is a "trail"; "ridge" and "vista"
    // are common (their posting lists span many 128-posting blocks);
    // "granite" appears only in occasional bursts, so a 3-term conjunction
    // leapfrogs whole blocks of the dense lists without decoding them.
    for tid in 0..2000 {
        let mut words = vec!["trail", "loop"];
        if tid % 2 == 0 {
            words.push("ridge");
        }
        if tid % 3 == 0 {
            words.push("vista");
        }
        if (tid / 32) % 16 == 0 {
            words.push("granite");
        }
        let description = words.join(" ");
        session.execute(&format!(
            "INSERT INTO trails VALUES ({tid}, '{description}')"
        ))?;
        session.execute(&format!(
            "INSERT INTO clicks VALUES ({tid}, {})",
            (tid * 37) % 5000
        ))?;
    }

    // TFIDF() adds per-term scores, which is what gives the WAND executor a
    // term-score upper bound to prune with; the bitpacked block codec gives
    // the long lists per-block skip metadata.
    session.execute(
        "CREATE TEXT INDEX trail_search ON trails(description)
             SCORE WITH (popularity, TFIDF())
             USING METHOD ID_TERMSCORE
             OPTIONS (codec = bitpacked)",
    )?;

    // ---- Multi-keyword ranking ---------------------------------------
    println!("== RANK BY: all three keywords, ranked by clicks ==");
    let top = session.execute(
        r#"SELECT tid FROM trails
               WHERE description CONTAINS ALL ('granite', 'vista', 'ridge')
               RANK BY description ('granite', 'vista', 'ridge')
               FETCH TOP 5 RESULTS ONLY"#,
    )?;
    println!("{top}");

    println!("== CONTAINS ANY: any of the three ==");
    let any = session.execute(
        r#"SELECT tid FROM trails
               WHERE description CONTAINS ANY ('granite', 'vista', 'ridge')
               RANK BY description ('granite', 'vista', 'ridge')
               LIMIT 5"#,
    )?;
    println!("{any}");

    // ---- What the executor actually did ------------------------------
    println!("== EXPLAIN: the block-max WAND evaluation ==");
    let plan = session.execute(
        r#"EXPLAIN SELECT tid FROM trails
               WHERE description CONTAINS ALL ('granite', 'vista', 'ridge')
               RANK BY description ('granite', 'vista', 'ridge')
               FETCH TOP 5 RESULTS ONLY"#,
    )?;
    if let SqlResult::Plan(lines) = &plan {
        for line in lines {
            println!("{line}");
        }
    }

    // ---- Unknown keywords --------------------------------------------
    let none = session.execute(
        r#"SELECT tid FROM trails
               WHERE description CONTAINS ALL ('granite', 'yeti') LIMIT 5"#,
    )?;
    let dropped = session.execute(
        r#"SELECT tid FROM trails
               RANK BY description ('granite', 'yeti') LIMIT 5"#,
    )?;
    println!(
        "CONTAINS ALL with unknown 'yeti' -> {} rows; RANK BY drops it -> {} rows",
        none.row_count(),
        dropped.row_count()
    );

    // ---- Multi-term queries paginate like single-term ones ------------
    println!("\n== paging a 3-term query through a named cursor ==");
    session.execute(
        r#"DECLARE scroll CURSOR FOR SELECT tid FROM trails
               WHERE description CONTAINS ALL ('granite', 'vista', 'ridge')
               RANK BY description ('granite', 'vista', 'ridge')"#,
    )?;
    for page in 1..=3 {
        let rows = session.execute("FETCH 4 FROM scroll")?;
        println!(
            "FETCH 4 FROM scroll (page {page}) -> {} rows",
            rows.row_count()
        );
    }
    session.execute("CLOSE scroll")?;
    Ok(())
}
