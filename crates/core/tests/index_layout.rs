//! What the one index body pins down: the on-disk store names of every
//! method at one and several shards (an existing database must reopen), and
//! the errors a cursor gets when fed to an index that did not open it.

use std::collections::BTreeSet;
use std::sync::Arc;

use svr_core::types::{DocId, Document, Query, TermId};
use svr_core::{
    build_index, build_index_at, open_index_at, CoreError, IndexConfig, IndexLocation, MethodKind,
    ScoreMap, SearchIndex,
};
use svr_storage::StorageEnv;

fn corpus(n: u32) -> (Vec<Document>, ScoreMap) {
    let docs = (1..=n)
        .map(|i| {
            Document::from_term_freqs(DocId(i), [(TermId(1), 1 + i % 3), (TermId(2 + i % 5), 1)])
        })
        .collect();
    let scores = (1..=n)
        .map(|i| (DocId(i), f64::from(i % 89) * 7.0 + 1.0))
        .collect();
    (docs, scores)
}

fn config(num_shards: usize) -> IndexConfig {
    IndexConfig {
        num_shards,
        min_chunk_docs: 4,
        ..IndexConfig::default()
    }
}

/// The stores each method keeps per shard, by name.
fn stores_of(kind: MethodKind) -> &'static [&'static str] {
    match kind {
        MethodKind::Score => &["score", "docs", "long"],
        MethodKind::Id | MethodKind::IdTermScore => &["score", "docs", "long", "short"],
        MethodKind::ScoreThreshold => &["score", "docs", "long", "short", "aux"],
        MethodKind::Chunk => &["score", "docs", "long", "short", "aux", "meta"],
        MethodKind::ChunkTermScore | MethodKind::ScoreThresholdTermScore => {
            &["score", "docs", "long", "short", "aux", "fancy", "meta"]
        }
    }
}

fn ranking(index: &dyn SearchIndex) -> Vec<(DocId, f64)> {
    index
        .query(&Query::disjunctive([TermId(1), TermId(3)], 20))
        .unwrap()
        .into_iter()
        .map(|h| (h.doc, h.score))
        .collect()
}

/// Golden layout: one shard names its stores directly under the index
/// prefix (`idx/t/score`), several shards under `idx/t/shard-<s>/` — and a
/// database laid out that way reopens to the same ranking.
#[test]
fn store_names_are_pinned_for_one_and_three_shards() {
    let (docs, scores) = corpus(80);
    for kind in MethodKind::ALL_EXTENDED {
        for num_shards in [1usize, 3] {
            let env = Arc::new(StorageEnv::new_durable(4096));
            let loc = IndexLocation::new(env.clone(), "idx/t/");
            let config = config(num_shards);
            let built = build_index_at(&loc, kind, &docs, &scores, &config).unwrap();

            let expected: BTreeSet<String> = if num_shards == 1 {
                stores_of(kind)
                    .iter()
                    .map(|name| format!("idx/t/{name}"))
                    .collect()
            } else {
                (0..num_shards)
                    .flat_map(|s| {
                        stores_of(kind)
                            .iter()
                            .map(move |name| format!("idx/t/shard-{s}/{name}"))
                    })
                    .collect()
            };
            let actual: BTreeSet<String> = env.store_names().into_iter().collect();
            assert_eq!(actual, expected, "{kind} x{num_shards}: store names");

            built.update_score(DocId(7), 5_000.0).unwrap();
            let before = ranking(built.as_ref());
            drop(built);
            env.crash();
            env.recover_all().unwrap();
            let reopened = open_index_at(&loc, kind, &config).unwrap();
            assert_eq!(reopened.num_shards(), num_shards);
            assert_eq!(
                ranking(reopened.as_ref()),
                before,
                "{kind} x{num_shards}: ranking after reopen"
            );
        }
    }
}

/// A cursor is bound to the index that opened it: a different method or a
/// different shard count (one shard included) is an error, never a panic,
/// and the cursor still works on its own index afterwards.
#[test]
fn foreign_cursor_is_an_error_not_a_panic() {
    let (docs, scores) = corpus(60);
    let build = |kind, num_shards| build_index(kind, &docs, &scores, &config(num_shards)).unwrap();
    let chunk_2 = build(MethodKind::Chunk, 2);
    let query = Query::disjunctive([TermId(1)], 5);
    let mut cursor = chunk_2.open_cursor(&query).unwrap();

    let other_method = build(MethodKind::ScoreThreshold, 2);
    assert_eq!(
        other_method.next_batch(&mut cursor, 5),
        Err(CoreError::Unsupported(
            "cursor was opened by a different index"
        ))
    );
    for num_shards in [3, 1] {
        let other_count = build(MethodKind::Chunk, num_shards);
        assert_eq!(
            other_count.next_batch(&mut cursor, 5),
            Err(CoreError::Unsupported(
                "cursor was opened by a different index"
            )),
            "Chunk x2 cursor on Chunk x{num_shards}"
        );
        // ...and the mirror image.
        let mut theirs = other_count.open_cursor(&query).unwrap();
        assert!(matches!(
            chunk_2.next_batch(&mut theirs, 5),
            Err(CoreError::Unsupported(_))
        ));
    }

    // The rejected cursor is untouched: its own index still drains it.
    assert_eq!(
        chunk_2.next_batch(&mut cursor, 5).unwrap(),
        chunk_2.query(&query).unwrap()
    );
}
