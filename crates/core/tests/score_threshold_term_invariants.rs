//! Fine-print scenarios for the Score-Threshold-TermScore extension (the
//! §4.3.3 generalization the paper leaves unbuilt): threshold-gated
//! relocation with combined scores, fancy-bound widening, content-update
//! dirtiness, early termination, and merge equivalence.

use svr_core::types::{DocId, Document, Query, TermId};
use svr_core::{build_index, store_names, IndexConfig, MethodKind, Oracle, ScoreMap, SearchIndex};

const T: TermId = TermId(1);

fn cfg() -> IndexConfig {
    IndexConfig {
        threshold_ratio: 2.0,
        chunk_ratio: 2.0,
        min_chunk_docs: 4,
        fancy_size: 4,
        page_size: 512,
        term_weight: 10_000.0,
        ..IndexConfig::default()
    }
}

fn build(docs: &[Document], scores: &ScoreMap) -> Box<dyn SearchIndex> {
    build_index(MethodKind::ScoreThresholdTermScore, docs, scores, &cfg()).unwrap()
}

/// Postings currently parked in the index's short lists.
fn short_list_len(index: &dyn SearchIndex) -> u64 {
    index.shard_stats().iter().map(|s| s.short_postings).sum()
}

/// `n` docs all containing term 1 plus a filler term; scores `100 * (i+1)`.
fn linear_corpus(n: u32) -> (Vec<Document>, ScoreMap) {
    let docs: Vec<Document> = (0..n)
        .map(|i| Document::from_term_freqs(DocId(i), [(T, 1), (TermId(2 + i % 3), 1)]))
        .collect();
    let scores: ScoreMap = (0..n)
        .map(|i| (DocId(i), 100.0 * f64::from(i + 1)))
        .collect();
    (docs, scores)
}

/// The §4.3.1 walkthrough, now with combined scoring: a below-threshold
/// update touches nothing, an above-threshold one relocates postings, and
/// a crash back down must not leave an inflated result.
#[test]
fn threshold_gated_relocation_with_term_scores() {
    let (docs, scores) = linear_corpus(64);
    let index = build(&docs, &scores);
    let mut oracle = Oracle::build(&docs, &scores, cfg().term_weight);

    // Below threshold: no short-list postings.
    index.update_score(DocId(10), 1500.0).unwrap();
    oracle.update_score(DocId(10), 1500.0).unwrap();
    assert_eq!(
        short_list_len(index.as_ref()),
        0,
        "sub-threshold update must not touch lists"
    );
    let q = Query::conjunctive([T], 5);
    oracle.assert_topk_valid(&q, &index.query(&q).unwrap(), 1e-6);

    // Beyond threshold: one short posting per distinct term.
    index.update_score(DocId(10), 25_000.0).unwrap();
    oracle.update_score(DocId(10), 25_000.0).unwrap();
    assert_eq!(
        short_list_len(index.as_ref()),
        docs[10].num_distinct_terms() as u64,
        "relocation writes every distinct term"
    );
    let hits = index.query(&q).unwrap();
    assert_eq!(hits[0].doc, DocId(10));
    oracle.assert_topk_valid(&q, &hits, 1e-6);

    // Crash down: the stale short posting must not inflate the doc.
    index.update_score(DocId(10), 50.0).unwrap();
    oracle.update_score(DocId(10), 50.0).unwrap();
    let q_all = Query::conjunctive([T], 64);
    oracle.assert_topk_valid(&q_all, &index.query(&q_all).unwrap(), 1e-6);
}

/// The stopping bound must stay sound when an insertion brings a term
/// score above the fancy-list minimum (the `inserted_max` widening).
#[test]
fn fancy_bound_widens_on_insert() {
    let mut docs: Vec<Document> = Vec::new();
    let mut scores = ScoreMap::new();
    // Term 1 has low normalized TF everywhere (filler term dominates).
    for i in 0..40u32 {
        docs.push(Document::from_term_freqs(
            DocId(i),
            [(T, 1), (TermId(50), 10)],
        ));
        scores.insert(DocId(i), 1000.0 + f64::from(i));
    }
    let config = cfg();
    let index = build_index(MethodKind::ScoreThresholdTermScore, &docs, &scores, &config).unwrap();
    let mut oracle = Oracle::build(&docs, &scores, config.term_weight);

    let hot = Document::from_term_freqs(DocId(100), [(T, 5)]);
    index.insert_document(&hot, 900.0).unwrap();
    oracle.insert_document(&hot, 900.0).unwrap();

    let q = Query::disjunctive([T], 3);
    let hits = index.query(&q).unwrap();
    oracle.assert_topk_valid(&q, &hits, 1e-6);
    assert!(
        hits.iter().any(|h| h.doc == DocId(100)),
        "inserted high-term-score doc must be found: {hits:?}"
    );
}

/// A content update invalidates the doc's fancy postings until the next
/// offline merge: phase 1 must not trust them (stale term scores), and the
/// answer must still be exact.
#[test]
fn content_updates_invalidate_fancy_postings() {
    let (docs, scores) = linear_corpus(32);
    let config = cfg();
    let index = build_index(MethodKind::ScoreThresholdTermScore, &docs, &scores, &config).unwrap();
    let mut oracle = Oracle::build(&docs, &scores, config.term_weight);

    // Doc 31 (highest score) loses term 1 entirely.
    let rewritten = Document::from_term_freqs(DocId(31), [(TermId(99), 3)]);
    index.update_content(&rewritten).unwrap();
    oracle.update_content(&rewritten).unwrap();
    let q = Query::conjunctive([T], 5);
    let hits = index.query(&q).unwrap();
    assert!(
        hits.iter().all(|h| h.doc != DocId(31)),
        "doc without the term must not match: {hits:?}"
    );
    oracle.assert_topk_valid(&q, &hits, 1e-6);

    // Doc 0 gains a maximal term-1 weight.
    let boosted = Document::from_term_freqs(DocId(0), [(T, 9)]);
    index.update_content(&boosted).unwrap();
    oracle.update_content(&boosted).unwrap();
    let hits = index.query(&Query::disjunctive([T], 32)).unwrap();
    oracle.assert_topk_valid(&Query::disjunctive([T], 32), &hits, 1e-6);

    // After the offline merge the fancy lists are trustworthy again.
    index.merge_short_lists().unwrap();
    let hits = index.query(&q).unwrap();
    oracle.assert_topk_valid(&q, &hits, 1e-6);
}

/// Early termination must save long-list I/O relative to the ID-TermScore
/// full scan on the same (geometrically spread) collection.
#[test]
fn early_termination_saves_pages() {
    let n = 2_000u32;
    let docs: Vec<Document> = (0..n)
        .map(|i| Document::from_term_freqs(DocId(i), [(T, 1), (TermId(2 + i % 3), 1)]))
        .collect();
    let scores: ScoreMap = (0..n)
        .map(|i| (DocId(i), 100.0 * 1.03f64.powi(i as i32)))
        .collect();
    let st_term = build_index(MethodKind::ScoreThresholdTermScore, &docs, &scores, &cfg()).unwrap();
    let id_term = build_index(MethodKind::IdTermScore, &docs, &scores, &cfg()).unwrap();

    let pages_for = |index: &dyn SearchIndex, k: usize| {
        index.clear_long_cache().unwrap();
        let store = index.env().store(store_names::LONG).unwrap();
        let before = store.io_stats();
        index.query(&Query::conjunctive([T], k)).unwrap();
        store.io_stats().since(&before).pages_read
    };

    let st_top1 = pages_for(st_term.as_ref(), 1);
    let st_all = pages_for(st_term.as_ref(), n as usize);
    assert!(
        st_top1 * 3 <= st_all,
        "top-1 ({st_top1} pages) must read far less than a full scan ({st_all})"
    );
    // Both must agree with each other on the answer.
    let q = Query::conjunctive([T], 10);
    assert_eq!(st_term.query(&q).unwrap(), id_term.query(&q).unwrap());
}

/// The offline merge must leave the index equivalent to a fresh build on
/// the final scores (exact list scores, recomputed fancy lists).
#[test]
fn merge_equals_fresh_build() {
    let (docs, scores) = linear_corpus(128);
    let index = build(&docs, &scores);
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

    let fresh = build(&docs, &final_scores);
    for k in [1, 5, 50] {
        let q = Query::conjunctive([T], k);
        assert_eq!(
            index.query(&q).unwrap(),
            fresh.query(&q).unwrap(),
            "merged index must answer like a fresh build (k = {k})"
        );
    }
}
