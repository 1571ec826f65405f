//! Multi-term query engine checks: the block-max WAND one-shot executor
//! and the leapfrog cursor path against the naive per-doc oracle, across
//! 2/4/8-term AND/OR queries × every codec × 1/4/8 shards — plus the
//! acceptance shape: a 4-term conjunctive query over block-coded long
//! lists must *skip* blocks (blocks_skipped > 0) while returning exactly
//! the exhaustive ranking, and random-batch cursor drains and
//! suspend/resume across an offline merge must reproduce one-shot
//! results bit-identically.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use svr_core::types::{DocId, Document, Query, QueryMode, TermId};
use svr_core::{
    build_index, CodecKind, IndexConfig, MethodKind, Oracle, ScoreMap, SearchHit, SearchIndex,
};

const EPS: f64 = 1e-9;
const VOCAB: u32 = 12;

/// The two doc-ordered methods that run the WAND executor. Every other
/// method keeps the existing (already multi-term) executor and is covered
/// by the method-oracle and cursor-equivalence suites.
const WAND_METHODS: [MethodKind; 2] = [MethodKind::Id, MethodKind::IdTermScore];

/// Dense corpus over a small vocabulary so 4- and 8-term conjunctions
/// still match: each document draws 8..24 tokens.
fn corpus(rng: &mut StdRng, num_docs: u32) -> (Vec<Document>, ScoreMap) {
    let mut docs = Vec::new();
    let mut scores = ScoreMap::new();
    for id in 0..num_docs {
        let n_terms = rng.gen_range(8..24);
        let terms = (0..n_terms).map(|_| {
            let r: f64 = rng.gen();
            let term = ((r * r) * VOCAB as f64) as u32;
            (TermId(term.min(VOCAB - 1)), rng.gen_range(1..6u32))
        });
        docs.push(Document::from_term_freqs(DocId(id), terms));
        let u: f64 = rng.gen();
        scores.insert(DocId(id), (u.powf(3.0) * 50_000.0 * 100.0).round() / 100.0);
    }
    (docs, scores)
}

fn config_with(kind: MethodKind, shards: usize, codec: CodecKind) -> IndexConfig {
    IndexConfig {
        chunk_ratio: 2.0,
        threshold_ratio: 1.5,
        min_chunk_docs: 4,
        fancy_size: 8,
        term_weight: if kind.uses_term_scores() {
            20_000.0
        } else {
            0.0
        },
        num_shards: shards,
        codec,
        ..IndexConfig::default()
    }
}

fn drain_in_batches(index: &dyn SearchIndex, query: &Query, batches: &[usize]) -> Vec<SearchHit> {
    let mut cursor = index.open_cursor(query).unwrap();
    let mut out = Vec::new();
    for &b in batches {
        out.extend(index.next_batch(&mut cursor, b).unwrap());
    }
    out
}

fn assert_same(label: &str, want: &[SearchHit], got: &[SearchHit]) {
    assert_eq!(want.len(), got.len(), "{label}: length mismatch");
    for (i, (a, b)) in want.iter().zip(got).enumerate() {
        assert_eq!(a.doc, b.doc, "{label}: rank {i} doc mismatch");
        assert!(
            (a.score - b.score).abs() < EPS,
            "{label}: rank {i} score mismatch ({} vs {})",
            a.score,
            b.score
        );
    }
}

fn distinct_terms(rng: &mut StdRng, n: usize) -> Vec<TermId> {
    let mut terms: Vec<u32> = (0..VOCAB).collect();
    for i in (1..terms.len()).rev() {
        terms.swap(i, rng.gen_range(0..=i));
    }
    terms.truncate(n);
    terms.into_iter().map(TermId).collect()
}

/// The full matrix: 2/4/8-term conjunctive and disjunctive queries over
/// every codec and 1/4/8 shards, WAND one-shot vs the per-doc oracle vs
/// an exhaustive cursor drain — all three must agree exactly.
#[test]
fn multiterm_matrix_matches_oracle_and_cursor_drain() {
    for kind in WAND_METHODS {
        for shards in [1usize, 4, 8] {
            for codec in CodecKind::ALL {
                let mut rng = StdRng::seed_from_u64(0x3A9D ^ (shards as u64) << 8);
                let num_docs = 150;
                let (docs, scores) = corpus(&mut rng, num_docs);
                let config = config_with(kind, shards, codec);
                let index = build_index(kind, &docs, &scores, &config).unwrap();
                let oracle = Oracle::build(&docs, &scores, config.term_weight);

                for n_terms in [2usize, 4, 8] {
                    for mode in [QueryMode::Conjunctive, QueryMode::Disjunctive] {
                        let terms = distinct_terms(&mut rng, n_terms);
                        let k = rng.gen_range(1..30usize);
                        let query = Query::new(terms, k, mode);
                        let label =
                            format!("{kind} shards={shards} {codec:?} n={n_terms} {mode:?} k={k}");
                        let wand = index.query(&query).unwrap();
                        oracle.assert_topk_valid(&query, &wand, EPS);
                        let drained = drain_in_batches(index.as_ref(), &query, &[k]);
                        assert_same(&label, &drained, &wand);
                    }
                }
            }
        }
    }
}

/// A score of `-0.0` is stored as `+0.0`: its raw bits would otherwise
/// outrank every positive score in the Score table's monotone bound, and
/// WAND would prune with an SVR bound of zero. Term weight 1 keeps the
/// structured score dominant, as in the paper.
#[test]
fn a_negative_zero_score_keeps_wand_exact() {
    for kind in WAND_METHODS {
        let mut rng = StdRng::seed_from_u64(0x0_5EED);
        let (docs, scores) = corpus(&mut rng, 150);
        let config = IndexConfig {
            term_weight: if kind.uses_term_scores() { 1.0 } else { 0.0 },
            ..config_with(kind, 1, CodecKind::Bitpacked)
        };
        let index = build_index(kind, &docs, &scores, &config).unwrap();
        let mut oracle = Oracle::build(&docs, &scores, config.term_weight);
        index.update_score(DocId(3), -0.0).unwrap();
        oracle.update_score(DocId(3), -0.0).unwrap();
        assert_eq!(index.current_score(DocId(3)).unwrap().to_bits(), 0);
        for mode in [QueryMode::Conjunctive, QueryMode::Disjunctive] {
            for n_terms in [1usize, 2, 4] {
                let query = Query::new(distinct_terms(&mut rng, n_terms), 5, mode);
                let hits = index.query(&query).unwrap();
                oracle.assert_topk_valid(&query, &hits, EPS);
            }
        }
    }
}

/// The acceptance shape: a 4-term conjunctive query over block-coded
/// long lists whose intersection is sparse must skip whole blocks
/// undecoded — and still return exactly the exhaustive ranking. Three
/// dense terms (every doc / every 2nd / every 3rd) give long multi-block
/// lists; the fourth posts only in 64-doc bursts every 512 docs, so each
/// leapfrog seek across an inter-burst gap jumps ~3 whole 128-posting
/// blocks of the dense lists without decoding them.
#[test]
fn four_term_conjunction_skips_blocks_and_stays_exact() {
    let num_docs = 4000u32;
    let in_burst = |id: u32| (id / 64).is_multiple_of(8);
    let mut docs = Vec::new();
    let mut scores = ScoreMap::new();
    for id in 0..num_docs {
        let mut doc_terms: Vec<(TermId, u32)> = vec![(TermId(0), 1)];
        if id % 2 == 0 {
            doc_terms.push((TermId(1), 2));
        }
        if id % 3 == 0 {
            doc_terms.push((TermId(2), 3));
        }
        if in_burst(id) {
            doc_terms.push((TermId(3), 4));
        }
        docs.push(Document::from_term_freqs(DocId(id), doc_terms));
        scores.insert(DocId(id), (id % 997) as f64);
    }
    for kind in WAND_METHODS {
        let codec = CodecKind::Bitpacked;
        let config = config_with(kind, 1, codec);
        let index = build_index(kind, &docs, &scores, &config).unwrap();
        let query = Query::conjunctive([TermId(0), TermId(1), TermId(2), TermId(3)], 10);

        let before = index.seek_stats();
        let wand = index.query(&query).unwrap();
        let after = index.seek_stats();
        assert!(
            after.blocks_skipped > before.blocks_skipped,
            "{kind} {codec:?}: 4-term conjunction skipped no blocks"
        );

        // Exhaustive check: matches are burst docs divisible by 6; the
        // top 10 by score must come back bit-identically.
        let mut expected: Vec<(DocId, f64)> = (0..num_docs)
            .filter(|&id| id % 6 == 0 && in_burst(id))
            .map(|id| (DocId(id), scores[&DocId(id)]))
            .collect();
        assert!(expected.len() > 10);
        expected.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        for (i, hit) in wand.iter().enumerate() {
            assert_eq!(hit.doc, expected[i].0, "{kind} {codec:?} rank {i}");
        }

        // And the cursor (leapfrog) path agrees with WAND exactly.
        let drained = drain_in_batches(index.as_ref(), &query, &[4, 3, 3]);
        assert_same(&format!("{kind} {codec:?}"), &drained, &wand);
    }
}

/// A multi-term conjunctive cursor suspended mid-enumeration survives an
/// offline merge: the combined pages equal the one-shot ranking taken
/// before the merge (the merge moves postings, never changes answers).
#[test]
fn multiterm_cursor_resumes_across_offline_merge() {
    for kind in WAND_METHODS {
        for codec in CodecKind::ALL {
            let mut rng = StdRng::seed_from_u64(0xFADE);
            let (docs, scores) = corpus(&mut rng, 160);
            let config = config_with(kind, 1, codec);
            let index = build_index(kind, &docs, &scores, &config).unwrap();
            // Updates so the short lists hold postings the merge will move.
            for extra in 0..20u32 {
                let id = DocId(160 + extra);
                let terms =
                    (0..12).map(|_| (TermId(rng.gen_range(0..VOCAB)), rng.gen_range(1..6u32)));
                let doc = Document::from_term_freqs(id, terms);
                index
                    .insert_document(&doc, rng.gen_range(0.0..60_000.0))
                    .unwrap();
            }

            let query = Query::conjunctive(distinct_terms(&mut rng, 4), 24);
            let one_shot = index.query(&query).unwrap();

            let mut cursor = index.open_cursor(&query).unwrap();
            let mut paged = index.next_batch(&mut cursor, 8).unwrap();
            index.merge_short_lists().unwrap();
            paged.extend(index.next_batch(&mut cursor, 8).unwrap());
            paged.extend(index.next_batch(&mut cursor, 8).unwrap());
            assert_same(&format!("{kind} {codec:?}"), &one_shot, &paged);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Property form: arbitrary multi-term queries and batch schedules on
    /// the WAND methods — the one-shot executor, the leapfrog cursor
    /// drain, and the oracle always agree.
    #[test]
    fn wand_matches_oracle_under_arbitrary_schedules(
        seed in 0u64..1_000,
        shards in prop_oneof![Just(1usize), Just(4), Just(8)],
        codec in prop_oneof![
            Just(CodecKind::Legacy),
            Just(CodecKind::Bitpacked),
        ],
        n_terms in prop_oneof![Just(2usize), Just(4), Just(8)],
        batches in prop::collection::vec(1usize..9, 1..8),
        conjunctive in any::<bool>(),
    ) {
        for kind in WAND_METHODS {
            let mut rng = StdRng::seed_from_u64(seed);
            let (docs, scores) = corpus(&mut rng, 100);
            let config = config_with(kind, shards, codec);
            let index = build_index(kind, &docs, &scores, &config).unwrap();
            let oracle = Oracle::build(&docs, &scores, config.term_weight);

            let terms = distinct_terms(&mut rng, n_terms);
            let mode = if conjunctive { QueryMode::Conjunctive } else { QueryMode::Disjunctive };
            let total: usize = batches.iter().sum();
            let query = Query::new(terms, total, mode);

            let wand = index.query(&query).unwrap();
            oracle.assert_topk_valid(&query, &wand, EPS);
            let drained = drain_in_batches(index.as_ref(), &query, &batches);
            prop_assert_eq!(wand.len(), drained.len());
            for (a, b) in wand.iter().zip(&drained) {
                prop_assert_eq!(a.doc, b.doc);
                prop_assert!((a.score - b.score).abs() < EPS);
            }
        }
    }
}
