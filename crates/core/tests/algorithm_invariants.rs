//! Targeted scenarios for the algorithmic fine print: the Score-Threshold
//! stopping rule (Theorem 1), the Chunk method's two-boundary move rule and
//! one-extra-chunk scan, early-termination efficiency, and the fancy-list
//! bound of Algorithm 3.

use std::collections::HashMap;
use std::sync::Arc;

use svr_core::types::{DocId, Document, Query, TermId};
use svr_core::{
    build_index, store_names, ChunkMap, IndexConfig, MethodKind, Oracle, ScoreMap, SearchIndex,
};

const T: TermId = TermId(1);

/// `n` docs all containing term 1, scores `100 * (i + 1)` (doc 0 lowest).
fn linear_corpus(n: u32) -> (Vec<Document>, ScoreMap) {
    let docs: Vec<Document> = (0..n)
        .map(|i| Document::from_term_freqs(DocId(i), [(T, 1), (TermId(2 + i % 3), 1)]))
        .collect();
    let scores: ScoreMap = (0..n)
        .map(|i| (DocId(i), 100.0 * f64::from(i + 1)))
        .collect();
    (docs, scores)
}

fn cfg() -> IndexConfig {
    IndexConfig {
        threshold_ratio: 2.0,
        chunk_ratio: 2.0,
        min_chunk_docs: 4,
        fancy_size: 4,
        page_size: 512,
        ..IndexConfig::default()
    }
}

/// The chunk map a Chunk index lays its long lists out by at build and merge
/// time: a pure function of the score distribution and the two chunk knobs.
fn chunk_map_of(scores: &ScoreMap) -> ChunkMap {
    let all: Vec<f64> = scores.values().copied().collect();
    ChunkMap::from_scores(&all, cfg().chunk_ratio, cfg().min_chunk_docs)
}

/// Postings currently parked in the index's short lists.
fn short_list_len(index: &dyn SearchIndex) -> u64 {
    index.shard_stats().iter().map(|s| s.short_postings).sum()
}

/// The scenario from §4.3.1: a document's score rises beyond the threshold
/// in two steps — the first leaves the lists alone, the second relocates
/// the postings. Results must be exact at every step.
#[test]
fn score_threshold_walkthrough_example() {
    let (docs, scores) = linear_corpus(64);
    let index = build_index(MethodKind::ScoreThreshold, &docs, &scores, &cfg()).unwrap();
    let mut oracle = Oracle::build(&docs, &scores, 0.0);

    // Doc 10's list score is 1100; thresholdValueOf = 2200.
    // Step 1: update to 1500 (below threshold — Score table only).
    index.update_score(DocId(10), 1500.0).unwrap();
    oracle.update_score(DocId(10), 1500.0).unwrap();
    let q = Query::conjunctive([T], 5);
    oracle.assert_topk_valid(&q, &index.query(&q).unwrap(), 1e-9);

    // Step 2: update to 25000 (beyond threshold — short-list postings).
    index.update_score(DocId(10), 25_000.0).unwrap();
    oracle.update_score(DocId(10), 25_000.0).unwrap();
    let hits = index.query(&q).unwrap();
    assert_eq!(hits[0].doc, DocId(10), "relocated doc must rank first");
    assert_eq!(hits[0].score, 25_000.0, "reported score must be current");
    oracle.assert_topk_valid(&q, &hits, 1e-9);

    // Step 3: crash back down; the stale short posting must not inflate it.
    index.update_score(DocId(10), 50.0).unwrap();
    oracle.update_score(DocId(10), 50.0).unwrap();
    let hits = index.query(&Query::conjunctive([T], 64)).unwrap();
    oracle.assert_topk_valid(&Query::conjunctive([T], 64), &hits, 1e-9);
    let doc10 = hits.iter().find(|h| h.doc == DocId(10)).unwrap();
    assert_eq!(doc10.score, 50.0);
}

/// The Chunk method's corner-case rule: a small score bump that crosses one
/// boundary must NOT touch the short lists; crossing two must.
#[test]
fn chunk_two_boundary_rule() {
    let (docs, scores) = linear_corpus(64);
    let index = build_index(MethodKind::Chunk, &docs, &scores, &cfg()).unwrap();
    let map = chunk_map_of(&scores);

    // Pick a low-scored doc and nudge it just over the next boundary.
    let doc = DocId(4); // score 500
    let old_chunk = map.chunk_of(500.0);
    assert!(
        old_chunk + 2 <= map.num_chunks(),
        "test needs headroom above chunk {old_chunk}"
    );
    let one_up = map.lower_bound(old_chunk + 1).expect("next chunk") + 1.0;
    index.update_score(doc, one_up).unwrap();
    assert_eq!(
        short_list_len(index.as_ref()),
        0,
        "one-boundary move must not touch short lists"
    );

    // Now jump two boundaries.
    let two_up = map.lower_bound(old_chunk + 2).expect("chunk + 2") + 1.0;
    index.update_score(doc, two_up).unwrap();
    assert_eq!(
        short_list_len(index.as_ref()),
        docs[doc.0 as usize].num_distinct_terms() as u64,
        "two-boundary move writes one short posting per distinct term"
    );

    // Queries remain exact either way.
    let mut oracle = Oracle::build(&docs, &scores, 0.0);
    oracle.update_score(doc, two_up).unwrap();
    let q = Query::conjunctive([T], 10);
    oracle.assert_topk_valid(&q, &index.query(&q).unwrap(), 1e-9);
}

/// Early termination must actually save I/O: a top-1 query on the Chunk
/// method reads a strict prefix of the pages an exhaustive ID scan reads.
/// Scores spread geometrically so chunks have comparable populations (the
/// geometry the chunk-ratio rule is designed for).
#[test]
fn chunk_early_termination_saves_pages() {
    let (docs, _) = linear_corpus(2_000);
    let scores: ScoreMap = (0..2_000u32)
        .map(|i| (DocId(i), 100.0 * 1.03f64.powi(i as i32)))
        .collect();
    let chunk = build_index(MethodKind::Chunk, &docs, &scores, &cfg()).unwrap();
    let id = build_index(MethodKind::Id, &docs, &scores, &cfg()).unwrap();

    let pages_for = |index: &dyn SearchIndex, k: usize| {
        index.clear_long_cache().unwrap();
        let store = index.env().store(store_names::LONG).unwrap();
        let before = store.io_stats();
        index.query(&Query::conjunctive([T], k)).unwrap();
        store.io_stats().since(&before).pages_read
    };

    let chunk_top1 = pages_for(chunk.as_ref(), 1);
    let chunk_all = pages_for(chunk.as_ref(), 2_000);
    let id_top1 = pages_for(id.as_ref(), 1);
    assert!(
        chunk_top1 * 3 <= chunk_all,
        "top-1 ({chunk_top1} pages) must read far less than a full scan ({chunk_all})"
    );
    assert!(
        chunk_top1 < id_top1,
        "chunk top-1 ({chunk_top1}) must beat the ID full scan ({id_top1})"
    );
}

/// After a burst of updates that invalidates most of the ordering, the
/// Chunk method must still return exact answers (the paper's flash-crowd
/// robustness claim), even when every updated doc moved into the top chunk.
#[test]
fn chunk_survives_mass_inversion() {
    let (docs, scores) = linear_corpus(256);
    let index = build_index(MethodKind::Chunk, &docs, &scores, &cfg()).unwrap();
    let mut oracle = Oracle::build(&docs, &scores, 0.0);
    // Invert the entire collection: the lowest-scored docs become the top.
    for i in 0..256u32 {
        let new_score = 100.0 * f64::from(256 - i);
        index.update_score(DocId(i), new_score).unwrap();
        oracle.update_score(DocId(i), new_score).unwrap();
    }
    for k in [1, 10, 100] {
        let q = Query::conjunctive([T], k);
        oracle.assert_topk_valid(&q, &index.query(&q).unwrap(), 1e-9);
    }
}

/// Algorithm 3's stopping bound must stay sound when insertions add
/// postings with term scores above every fancy-list minimum.
#[test]
fn chunk_term_fancy_bound_widens_on_insert() {
    let mut rng_docs: Vec<Document> = Vec::new();
    let mut scores = ScoreMap::new();
    // Base corpus: 40 docs, term 1 with LOW tf relative to a filler term, so
    // normalized term scores for term 1 are small and fancy minima are low.
    for i in 0..40u32 {
        rng_docs.push(Document::from_term_freqs(
            DocId(i),
            [(T, 1), (TermId(50), 10)],
        ));
        scores.insert(DocId(i), 1000.0 + f64::from(i));
    }
    let config = IndexConfig {
        term_weight: 10_000.0,
        ..cfg()
    };
    let index = build_index(MethodKind::ChunkTermScore, &rng_docs, &scores, &config).unwrap();
    let mut oracle = Oracle::build(&rng_docs, &scores, config.term_weight);

    // Insert a doc with a MAXIMAL term-1 score but a low SVR score: only the
    // widened fancy bound keeps it from being pruned out of the top-k.
    let hot = Document::from_term_freqs(DocId(100), [(T, 5)]);
    index.insert_document(&hot, 900.0).unwrap();
    oracle.insert_document(&hot, 900.0).unwrap();

    let q = Query::disjunctive([T], 3);
    let hits = index.query(&q).unwrap();
    oracle.assert_topk_valid(&q, &hits, 1e-6);
    assert!(
        hits.iter().any(|h| h.doc == DocId(100)),
        "the inserted high-term-score doc must be found: {hits:?}"
    );
}

/// Offline merge rebuilds the chunk map from the *current* distribution, so
/// a post-merge index behaves like a fresh build.
#[test]
fn merge_recomputes_chunks() {
    let (docs, scores) = linear_corpus(128);
    let index = build_index(MethodKind::Chunk, &docs, &scores, &cfg()).unwrap();
    // Blow up a few scores, merge, and compare against a fresh build on the
    // final score assignment.
    let mut final_scores = scores.clone();
    for i in [3u32, 60, 100] {
        index
            .update_score(DocId(i), 1_000_000.0 + f64::from(i))
            .unwrap();
        final_scores.insert(DocId(i), 1_000_000.0 + f64::from(i));
    }
    index.merge_short_lists().unwrap();
    assert_eq!(
        short_list_len(index.as_ref()),
        0,
        "merge must clear short lists"
    );

    let fresh = build_index(MethodKind::Chunk, &docs, &final_scores, &cfg()).unwrap();
    for k in [1, 5, 50] {
        let q = Query::conjunctive([T], k);
        assert_eq!(
            index.query(&q).unwrap(),
            fresh.query(&q).unwrap(),
            "merged index must answer like a fresh build (k = {k})"
        );
    }
    // The spiked docs live in the rebuilt map's top chunk.
    let map = chunk_map_of(&final_scores);
    assert_eq!(map.chunk_of(1_000_050.0), map.num_chunks());
}

/// Locked indexes must be shareable across threads as trait objects.
#[test]
fn boxed_index_is_send_sync() {
    fn assert_send_sync<T: Send + Sync>(_: &T) {}
    let (docs, scores) = linear_corpus(16);
    let index: Arc<dyn SearchIndex> =
        Arc::from(build_index(MethodKind::Chunk, &docs, &scores, &cfg()).unwrap());
    assert_send_sync(&index);
    let handle = {
        let index = index.clone();
        std::thread::spawn(move || index.query(&Query::conjunctive([T], 3)).unwrap())
    };
    let hits = handle.join().unwrap();
    assert_eq!(hits.len(), 3);
    let _ = HashMap::from([(1, 2)]);
}

/// The build writes lists in ascending term order, so the Score method's
/// clustered tree — whose page count depends on insertion order — has the
/// same footprint every time it is built from the same corpus (Table 1).
#[test]
fn score_build_footprint_is_deterministic() {
    let docs: Vec<Document> = (0..1500u32)
        .map(|i| {
            let terms = (0..12u32).map(|j| (TermId((i * 7 + j * j * 13 + j) % 400), 1 + j % 3));
            Document::from_term_freqs(DocId(i), terms)
        })
        .collect();
    let scores: ScoreMap = (0..1500u32)
        .map(|i| (DocId(i), f64::from((i * 7919) % 1000) + 0.25))
        .collect();
    let bytes = || {
        build_index(MethodKind::Score, &docs, &scores, &cfg())
            .unwrap()
            .long_list_bytes()
    };
    let first = bytes();
    for _ in 0..3 {
        assert_eq!(bytes(), first);
    }
}

/// Algorithm 1 bookkeeping costs one ListScore/ListChunk row write: a
/// never-updated document's first update that moves its postings to the
/// short lists commits the `aux` store exactly once.
#[test]
fn first_moving_update_commits_aux_once() {
    use svr_core::{build_index_at, IndexLocation};
    use svr_storage::StorageEnv;

    let (docs, scores) = linear_corpus(64);
    for kind in [
        MethodKind::ScoreThreshold,
        MethodKind::Chunk,
        MethodKind::ScoreThresholdTermScore,
        MethodKind::ChunkTermScore,
    ] {
        let env = Arc::new(StorageEnv::new_durable(512));
        let loc = IndexLocation::new(env.clone(), "");
        let index = build_index_at(&loc, kind, &docs, &scores, &cfg()).unwrap();
        let aux = env.store(store_names::AUX).unwrap();
        let commits = || {
            let s = aux.wal().unwrap().stats();
            s.syncs + s.sync_skips
        };
        let before = commits();
        // Doc 3 (score 400) jumps far past every threshold and chunk.
        index.update_score(DocId(3), 1.0e6).unwrap();
        assert!(short_list_len(&*index) > 0, "{kind}: the update moved");
        assert_eq!(commits() - before, 1, "{kind}");
        // A non-moving first update writes the `{old, false}` row once too.
        let before = commits();
        index.update_score(DocId(5), 601.0).unwrap();
        assert_eq!(commits() - before, 1, "{kind}");
    }
}

/// Setting the score a document already has logs nothing, whether it comes
/// as a direct update or as a refresh.
#[test]
fn an_update_to_the_current_score_writes_nothing() {
    use svr_core::{build_index_at, IndexLocation};
    use svr_storage::StorageEnv;

    let (docs, scores) = linear_corpus(64);
    for kind in MethodKind::ALL_EXTENDED {
        let env = Arc::new(StorageEnv::new_durable(512));
        let loc = IndexLocation::new(env.clone(), "");
        let index = build_index_at(&loc, kind, &docs, &scores, &cfg()).unwrap();
        let logged = || {
            env.store_names()
                .iter()
                .filter_map(|name| env.store(name)?.wal().map(|wal| wal.stats()))
                .map(|s| (s.records, s.syncs + s.sync_skips))
                .fold((0, 0), |(r, c), (dr, dc)| (r + dr, c + dc))
        };
        let before = logged();
        // Doc 5's score is 600.
        index.update_score(DocId(5), 600.0).unwrap();
        index.refresh_scores(&[(DocId(5), 600.0, 0)]).unwrap();
        assert_eq!(logged(), before, "{kind}");
        index.update_score(DocId(5), 601.0).unwrap();
        assert_ne!(logged(), before, "{kind}: a changed score is logged");
        assert_eq!(index.current_score(DocId(5)).unwrap(), 601.0, "{kind}");
    }
}

/// Doc ids are user primary keys: the lowest and (nearly) the highest id
/// insert, resolve, update, merge and resolve again on a Chunk index. Any
/// per-candidate lookup structure sized by the largest id would not fit.
#[test]
fn chunk_resolves_the_extreme_doc_ids() {
    let (docs, scores) = linear_corpus(32);
    let docs: Vec<Document> = docs
        .into_iter()
        .map(|d| Document::from_term_freqs(DocId(d.id.0 + 1), d.terms))
        .collect();
    let scores: ScoreMap = scores
        .into_iter()
        .map(|(d, s)| (DocId(d.0 + 1), s))
        .collect();
    let index = build_index(MethodKind::Chunk, &docs, &scores, &cfg()).unwrap();
    let mut oracle = Oracle::build(&docs, &scores, 0.0);
    let (low, high) = (DocId(0), DocId(u32::MAX - 1));
    for (doc, score) in [(low, 50_000.0), (high, 40_000.0)] {
        let d = Document::from_term_freqs(doc, [(T, 1)]);
        index.insert_document(&d, score).unwrap();
        oracle.insert_document(&d, score).unwrap();
    }
    let query = Query::conjunctive([T], 5);
    let check = |oracle: &Oracle, label: &str| {
        let hits = index.query(&query).unwrap();
        oracle.assert_topk_valid(&query, &hits, 1e-9);
        for doc in [low, high] {
            assert_eq!(
                index.current_score(doc).unwrap(),
                oracle.score_of(doc).unwrap(),
                "{label}: {doc:?}"
            );
        }
    };
    check(&oracle, "inserted");
    assert_eq!(index.query(&query).unwrap()[0].doc, low);
    // A long-list resolve (after the merge) and a short-list move.
    index.merge_short_lists().unwrap();
    check(&oracle, "merged");
    for (doc, score) in [(low, 10.0), (high, 90_000.0)] {
        index.update_score(doc, score).unwrap();
        oracle.update_score(doc, score).unwrap();
    }
    check(&oracle, "updated");
    assert_eq!(index.query(&query).unwrap()[0].doc, high);
}
