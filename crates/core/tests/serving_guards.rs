//! Guards that make indexes safe to expose to a serving front end:
//! bounded cursor candidate pools ([`IndexConfig::cursor_pool_cap`]) and
//! group-commit draining of deferred score refreshes
//! ([`SearchIndex::set_group_refresh`]).

use std::sync::Arc;

use svr_core::types::{DocId, Document, Query, QueryMode, TermId};
use svr_core::{build_index, CoreError, IndexConfig, MethodKind, ScoreMap, SearchIndex};

fn corpus(num_docs: u32) -> (Vec<Document>, ScoreMap) {
    let mut docs = Vec::new();
    let mut scores = ScoreMap::new();
    for id in 0..num_docs {
        // Every document matches term 0, so a one-term query scans them all.
        docs.push(Document::from_term_freqs(
            DocId(id),
            [(TermId(0), 1u32), (TermId(1 + id % 3), 2u32)],
        ));
        scores.insert(DocId(id), f64::from(id % 97) + 1.0);
    }
    (docs, scores)
}

fn config(shards: usize, pool_cap: usize) -> IndexConfig {
    IndexConfig {
        chunk_ratio: 2.0,
        threshold_ratio: 1.5,
        min_chunk_docs: 4,
        fancy_size: 8,
        cursor_pool_cap: pool_cap,
        num_shards: shards,
        ..IndexConfig::default()
    }
}

#[test]
fn full_scan_cursor_overflows_small_pool_cap() {
    let (docs, scores) = corpus(200);
    // The ID method resolves every match into the pool on the first batch:
    // the canonical unbounded-pool hazard the cap exists for.
    let index = build_index(MethodKind::Id, &docs, &scores, &config(1, 16)).unwrap();
    let query = Query::new(vec![TermId(0)], 5, QueryMode::Conjunctive);
    let mut cursor = index.open_cursor(&query).unwrap();
    let err = index.next_batch(&mut cursor, 5).unwrap_err();
    assert_eq!(err, CoreError::CursorEvicted { cap: 16 });
}

#[test]
fn ample_pool_cap_does_not_change_rankings() {
    let (docs, scores) = corpus(120);
    for shards in [1usize, 3] {
        let capped = build_index(MethodKind::Chunk, &docs, &scores, &config(shards, 4096)).unwrap();
        let unbounded = build_index(MethodKind::Chunk, &docs, &scores, &config(shards, 0)).unwrap();
        let query = Query::new(vec![TermId(0)], 40, QueryMode::Conjunctive);
        let a = capped.query(&query).unwrap();
        let b = unbounded.query(&query).unwrap();
        assert_eq!(a, b, "cap must be invisible below the limit");
    }
}

#[test]
fn early_terminating_method_stays_under_tight_cap() {
    let (docs, scores) = corpus(300);
    // Chunk stops scanning at the chunk bound, so its pool tops out around
    // one chunk's worth of docs — under a cap that evicts a full-scan
    // method, which would pool all 300 matches.
    let index = build_index(MethodKind::Chunk, &docs, &scores, &config(1, 256)).unwrap();
    let query = Query::new(vec![TermId(0)], 10, QueryMode::Conjunctive);
    let hits = index.query(&query).unwrap();
    assert_eq!(hits.len(), 10);
}

#[test]
fn group_refresh_applies_every_writers_batch() {
    let (docs, scores) = corpus(256);
    for shards in [1usize, 4] {
        let index: Arc<Box<dyn SearchIndex>> = Arc::new(
            build_index(
                MethodKind::ScoreThreshold,
                &docs,
                &scores,
                &config(shards, 0),
            )
            .unwrap(),
        );
        index.set_group_refresh(true);
        assert!(index.group_refresh_enabled());

        // Each document gets four versions, one per round, each from a
        // different writer. Rounds submit versions newest first, so the
        // highest-sequence score usually arrives before the older ones and
        // must still be the one that stays.
        let version = |doc: u32, v: u32| {
            let score = f64::from(doc) * 2.0 + 1.0 + f64::from(v) * 1_000.0;
            (DocId(doc), score, u64::from(v) * 256 + u64::from(doc))
        };
        let writers = 8;
        std::thread::scope(|scope| {
            for w in 0..writers {
                let index = Arc::clone(&index);
                scope.spawn(move || {
                    for round in 0..4u32 {
                        let batch: Vec<_> = (0..256u32)
                            .filter(|d| (d + round) % writers == w)
                            .map(|d| version(d, 3 - round))
                            .collect();
                        index.refresh_scores(&batch).unwrap();
                    }
                });
            }
        });

        for id in 0..256u32 {
            assert_eq!(
                index.current_score(DocId(id)).unwrap(),
                version(id, 3).1,
                "doc {id} (shards={shards})"
            );
        }
        let stats = index.refresh_group_stats();
        assert_eq!(stats.depth, 0, "queue drained at quiescence");
        assert_eq!(stats.enqueued, stats.applied, "every batch applied once");
        assert!(stats.enqueued >= u64::from(writers * 4));
        assert!(stats.drain_holds <= stats.applied);

        // Toggling off restores the direct path (and rankings still move).
        index.set_group_refresh(false);
        index.refresh_scores(&[(DocId(0), 123.5, 4 * 256)]).unwrap();
        assert_eq!(index.current_score(DocId(0)).unwrap(), 123.5);
    }
}

/// Two changes of one document applied in reverse sequence order, in two
/// calls and inside one batch: the newer score wins either way, for every
/// method, sharded or not, on the direct and the group-commit path.
#[test]
fn refresh_keeps_the_newest_sequence() {
    let (docs, scores) = corpus(64);
    for kind in MethodKind::ALL_EXTENDED {
        for (shards, grouped) in [(1usize, false), (3, false), (3, true)] {
            let index = build_index(kind, &docs, &scores, &config(shards, 0)).unwrap();
            index.set_group_refresh(grouped);
            let label = format!("{kind} shards={shards} grouped={grouped}");
            index.refresh_scores(&[(DocId(7), 500.0, 2)]).unwrap();
            index.refresh_scores(&[(DocId(7), 400.0, 1)]).unwrap();
            assert_eq!(index.current_score(DocId(7)).unwrap(), 500.0, "{label}");
            index
                .refresh_scores(&[(DocId(9), 900.0, 4), (DocId(9), 800.0, 3)])
                .unwrap();
            assert_eq!(index.current_score(DocId(9)).unwrap(), 900.0, "{label}");
        }
    }
}
