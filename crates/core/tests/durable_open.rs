//! Build-at / crash / open-at equivalence at the index layer: a durable
//! index reattached with `open_index_at` must serve the exact rankings,
//! statistics and EXPLAIN numbers the crashed instance would have — with
//! zero re-indexing (the open path never sees the documents).

use std::collections::HashMap;
use std::sync::Arc;

use svr_core::types::{DocId, Document, Query, TermId};
use svr_core::{
    build_index_at, open_index_at, IndexConfig, IndexLocation, MethodKind, SearchIndex,
};
use svr_storage::StorageEnv;

fn corpus(n: u32) -> (Vec<Document>, HashMap<DocId, f64>) {
    let mut docs = Vec::new();
    let mut scores = HashMap::new();
    for i in 1..=n {
        // 3 terms per doc from a pool of 10, deterministic.
        let terms = [
            (TermId(i % 10), 1 + i % 3),
            (TermId((i * 3 + 1) % 10), 1),
            (TermId((i * 7 + 2) % 10), 2),
        ];
        docs.push(Document::from_term_freqs(DocId(i), terms));
        scores.insert(DocId(i), f64::from(i % 97) * 4.0 + 1.0);
    }
    (docs, scores)
}

fn churn(index: &dyn SearchIndex, n: u32) {
    // Score updates, an insert, a delete, a content update — the full
    // Appendix-A surface, so every durable structure carries post-build
    // state when the crash hits.
    for i in (1..=n).step_by(3) {
        index
            .update_score(DocId(i), f64::from((i * 13) % 211) * 5.0 + 2.0)
            .unwrap();
    }
    let fresh = Document::from_term_freqs(DocId(n + 7), [(TermId(1), 4), (TermId(9), 1)]);
    index.insert_document(&fresh, 321.0).unwrap();
    index.delete_document(DocId(2)).unwrap();
    let edited = Document::from_term_freqs(DocId(5), [(TermId(0), 1), (TermId(4), 6)]);
    index.update_content(&edited).unwrap();
}

type IndexSnapshot = (Vec<Vec<(DocId, f64)>>, Vec<(TermId, u64)>, u64, String);

fn snapshot(index: &dyn SearchIndex) -> IndexSnapshot {
    let mut rankings = Vec::new();
    for t in 0..10u32 {
        let hits = index
            .query(&Query::disjunctive([TermId(t)], 25))
            .unwrap()
            .into_iter()
            .map(|h| (h.doc, h.score))
            .collect();
        rankings.push(hits);
    }
    let conj = index
        .query(&Query::conjunctive([TermId(1), TermId(9)], 10))
        .unwrap()
        .into_iter()
        .map(|h| (h.doc, h.score))
        .collect();
    rankings.push(conj);
    let stats = format!("{:?}", index.shard_stats());
    (rankings, index.term_dfs(), index.corpus_num_docs(), stats)
}

fn roundtrip(kind: MethodKind, num_shards: usize, merge_before_crash: bool) {
    let env = Arc::new(StorageEnv::new_durable(4096));
    let loc = IndexLocation::new(env.clone(), "idx/t/");
    let config = IndexConfig {
        num_shards,
        min_chunk_docs: 4,
        ..IndexConfig::default()
    };
    let (docs, scores) = corpus(60);
    let built = build_index_at(&loc, kind, &docs, &scores, &config).unwrap();
    if merge_before_crash {
        built.merge_short_lists().unwrap();
    }
    churn(built.as_ref(), 60);
    let expected = snapshot(built.as_ref());
    drop(built);

    env.crash();
    env.recover_all().unwrap();
    let reopened = open_index_at(&loc, kind, &config).unwrap();
    let got = snapshot(reopened.as_ref());
    assert_eq!(expected.0, got.0, "{kind} x{num_shards}: rankings");
    assert_eq!(expected.1, got.1, "{kind} x{num_shards}: term dfs");
    assert_eq!(expected.2, got.2, "{kind} x{num_shards}: num_docs");
    assert_eq!(expected.3, got.3, "{kind} x{num_shards}: shard stats");

    // The reopened index keeps serving writes.
    reopened.update_score(DocId(3), 9_999.0).unwrap();
    let top = reopened.query(&Query::disjunctive([TermId(3)], 1)).unwrap();
    assert_eq!(
        top[0].doc,
        DocId(3),
        "{kind} x{num_shards}: post-open write"
    );
}

#[test]
fn all_methods_roundtrip_unsharded() {
    for kind in MethodKind::ALL_EXTENDED {
        roundtrip(kind, 1, false);
    }
}

#[test]
fn all_methods_roundtrip_sharded() {
    for kind in MethodKind::ALL_EXTENDED {
        roundtrip(kind, 4, false);
    }
}

#[test]
fn all_methods_roundtrip_after_merge() {
    for kind in MethodKind::ALL_EXTENDED {
        roundtrip(kind, 1, true);
        roundtrip(kind, 4, true);
    }
}

/// A merge commits once per store. Tearing that one commit marker off
/// every shard store rolls the whole merge back — rankings, long-list
/// sizes and short-list debt reopen exactly as before it; with the markers
/// intact the merged state reopens.
fn merge_then_crash(num_shards: usize, tear: bool) {
    let env = Arc::new(StorageEnv::new_durable(4096));
    let loc = IndexLocation::new(env.clone(), "idx/t/");
    let config = IndexConfig {
        num_shards,
        min_chunk_docs: 4,
        ..IndexConfig::default()
    };
    let (docs, scores) = corpus(60);
    let built = build_index_at(&loc, MethodKind::Chunk, &docs, &scores, &config).unwrap();
    churn(built.as_ref(), 60);
    let debt: u64 = built.shard_stats().iter().map(|s| s.short_postings).sum();
    assert!(debt > 0, "the merge must have short-list debt to fold");
    let unmerged = snapshot(built.as_ref());
    // The pages the merge frees and rewrites start out on disk, not only
    // in the log.
    env.checkpoint_all().unwrap();
    for shard in 0..num_shards {
        built.merge_shard(shard).unwrap();
    }
    let merged = snapshot(built.as_ref());
    drop(built);
    if tear {
        for name in env.store_names() {
            let wal = env.store(&name).unwrap().wal().unwrap().clone();
            // 13 bytes: one commit marker.
            wal.simulate_torn_tail(13).unwrap();
        }
    }

    env.crash();
    env.recover_all().unwrap();
    let reopened = open_index_at(&loc, MethodKind::Chunk, &config).unwrap();
    let expected = if tear { &unmerged } else { &merged };
    let got = snapshot(reopened.as_ref());
    assert_eq!(expected.0, got.0, "x{num_shards} torn={tear}: rankings");
    assert_eq!(expected.3, got.3, "x{num_shards} torn={tear}: shard stats");

    // The rolled-back pages are the index's again: merging once more
    // reaches the same merged state.
    reopened.merge_short_lists().unwrap();
    assert_eq!(
        merged,
        snapshot(reopened.as_ref()),
        "x{num_shards}: re-merge"
    );
}

#[test]
fn torn_merge_rolls_back_every_store() {
    merge_then_crash(1, true);
    merge_then_crash(4, true);
}

#[test]
fn sealed_merge_reopens_merged() {
    merge_then_crash(1, false);
    merge_then_crash(4, false);
}

/// Every document's current score, the shard stats, and 20 rankings.
type AcknowledgedState = (Vec<Option<f64>>, String, Vec<Vec<(DocId, f64)>>);

fn acknowledged_state(index: &dyn SearchIndex, docs: u32) -> AcknowledgedState {
    let scores = (1..=docs)
        .map(|i| index.current_score(DocId(i)).ok())
        .collect();
    let mut rankings = Vec::new();
    for t in 0..10u32 {
        for query in [
            Query::disjunctive([TermId(t)], 25),
            Query::conjunctive([TermId(t), TermId((t + 3) % 10)], 10),
        ] {
            let hits = index.query(&query).unwrap();
            rankings.push(hits.into_iter().map(|h| (h.doc, h.score)).collect());
        }
    }
    (scores, format!("{:?}", index.shard_stats()), rankings)
}

/// One file-backed round of [`acknowledged_index_writes_survive_a_crash`].
fn acknowledged_writes_survive(
    dir: &std::path::Path,
    kind: MethodKind,
    num_shards: usize,
    grouped: bool,
) {
    let label = format!("{kind} x{num_shards} group refresh {grouped}");
    let _ = std::fs::remove_dir_all(dir);
    let env = Arc::new(StorageEnv::open_dir(dir, 4096).unwrap());
    let loc = IndexLocation::new(env.clone(), "idx/t/");
    let config = IndexConfig {
        num_shards,
        min_chunk_docs: 4,
        ..IndexConfig::default()
    };
    let (docs, scores) = corpus(60);
    // Build under a long group-sync interval, make it the baseline, then
    // fsync every commit.
    env.set_wal_sync_interval_ms(60_000);
    let index = build_index_at(&loc, kind, &docs, &scores, &config).unwrap();
    env.checkpoint_all().unwrap();
    env.set_wal_sync_interval_ms(0);
    index.set_group_refresh(grouped);

    // Documents 1..=8 score 5..33, in the bottom chunks; 1 000 and more
    // is past the top one. Half move directly, half through the refresh
    // path.
    for i in 1..=4u32 {
        index
            .update_score(DocId(i), 1_000.0 + f64::from(i))
            .unwrap();
    }
    let moved: Vec<_> = (5..=8u32)
        .map(|i| (DocId(i), 2_000.0 + f64::from(i), 0))
        .collect();
    index.refresh_scores(&moved).unwrap();
    let fresh = Document::from_term_freqs(DocId(61), [(TermId(1), 4), (TermId(9), 1)]);
    index.insert_document(&fresh, 321.0).unwrap();
    let edited = Document::from_term_freqs(DocId(10), [(TermId(0), 1), (TermId(4), 6)]);
    index.update_content(&edited).unwrap();
    index.delete_document(DocId(12)).unwrap();
    let expected = acknowledged_state(index.as_ref(), 61);
    drop(index);

    assert_eq!(
        env.crash_unsynced(),
        0,
        "{label}: an acknowledged write was left unsynced"
    );
    env.recover_all().unwrap();
    let reopened = open_index_at(&loc, kind, &config).unwrap();
    assert_eq!(
        expected,
        acknowledged_state(reopened.as_ref(), 61),
        "{label}"
    );
}

/// Acknowledged index writes survive a crash: on a file-backed environment
/// that fsyncs every commit, score moves across two chunk boundaries
/// (direct and through the refresh path), an insert, a content update and
/// a delete reopen exactly, for every method at one and three shards, with
/// group refresh off and on.
#[test]
fn acknowledged_index_writes_survive_a_crash() {
    let dir = std::env::temp_dir().join(format!("svr-acked-index-writes-{}", std::process::id()));
    for kind in MethodKind::ALL_EXTENDED {
        for num_shards in [1, 3] {
            for grouped in [false, true] {
                acknowledged_writes_survive(&dir, kind, num_shards, grouped);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
