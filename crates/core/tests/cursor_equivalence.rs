//! Cursor / one-shot equivalence: draining a [`SearchIndex::open_cursor`]
//! enumeration in arbitrary batch sizes must reproduce exactly the one-shot
//! top-k ranking — for every method, at every shard count, after update
//! storms — and resuming for the next k must continue the same total order
//! (fetching top-k then k more equals a one-shot top-2k query).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use svr_core::types::{DocId, Document, Query, QueryMode, TermId};
use svr_core::{build_index, CodecKind, IndexConfig, MethodKind, ScoreMap, SearchHit, SearchIndex};

const VOCAB: u32 = 40;

fn corpus(rng: &mut StdRng, num_docs: u32) -> (Vec<Document>, ScoreMap) {
    let mut docs = Vec::new();
    let mut scores = ScoreMap::new();
    for id in 0..num_docs {
        let n_terms = rng.gen_range(3..10);
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

fn config_for(kind: MethodKind, shards: usize) -> IndexConfig {
    config_with_codec(kind, shards, CodecKind::Legacy)
}

fn config_with_codec(kind: MethodKind, shards: usize, codec: CodecKind) -> IndexConfig {
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

/// Score-update storm plus a few structural operations, so short lists,
/// tombstones and relocated postings are all live when querying.
fn storm(rng: &mut StdRng, index: &dyn SearchIndex, num_docs: u32) {
    for _ in 0..(num_docs * 2) {
        let doc = DocId(rng.gen_range(0..num_docs));
        if index.current_score(doc).is_err() {
            continue; // deleted
        }
        let u: f64 = rng.gen();
        let score = (u.powf(3.0) * 80_000.0 * 100.0).round() / 100.0;
        index.update_score(doc, score).unwrap();
    }
    for _ in 0..6 {
        let doc = DocId(rng.gen_range(0..num_docs));
        if index.current_score(doc).is_ok() {
            index.delete_document(doc).unwrap();
        }
    }
    for extra in 0..8u32 {
        let id = DocId(num_docs + extra);
        let n_terms = rng.gen_range(3..10);
        let terms = (0..n_terms).map(|_| (TermId(rng.gen_range(0..VOCAB)), rng.gen_range(1..6u32)));
        let doc = Document::from_term_freqs(id, terms);
        index
            .insert_document(&doc, rng.gen_range(0.0..60_000.0))
            .unwrap();
    }
}

fn drain_in_batches(index: &dyn SearchIndex, query: &Query, batches: &[usize]) -> Vec<SearchHit> {
    let mut cursor = index.open_cursor(query).unwrap();
    let mut out = Vec::new();
    for &b in batches {
        let hits = index.next_batch(&mut cursor, b).unwrap();
        assert!(hits.len() <= b);
        out.extend(hits);
    }
    out
}

fn assert_same(label: &str, one_shot: &[SearchHit], drained: &[SearchHit]) {
    // Every caller drains exactly as many ranks as the one-shot k, so the
    // lengths must match exactly — a cursor emitting phantom trailing hits
    // must fail here, not slip past a prefix check.
    assert_eq!(one_shot.len(), drained.len(), "{label}: length mismatch");
    for (i, (a, b)) in one_shot.iter().zip(drained).enumerate() {
        assert_eq!(a.doc, b.doc, "{label}: rank {i} doc mismatch");
        assert!(
            (a.score - b.score).abs() < 1e-9,
            "{label}: rank {i} score mismatch ({} vs {})",
            a.score,
            b.score
        );
    }
}

/// The full matrix: every method × 1/4/8 shards, random batch schedules.
#[test]
fn random_batch_drains_match_one_shot_all_methods_and_shards() {
    for kind in MethodKind::ALL_EXTENDED {
        for shards in [1usize, 4, 8] {
            let mut rng = StdRng::seed_from_u64(0xC0FFEE + shards as u64);
            let num_docs = 120;
            let (docs, scores) = corpus(&mut rng, num_docs);
            let config = config_for(kind, shards);
            let index = build_index(kind, &docs, &scores, &config).unwrap();
            storm(&mut rng, index.as_ref(), num_docs);

            for round in 0..6 {
                let n_terms = rng.gen_range(1..4);
                let terms: Vec<TermId> = (0..n_terms)
                    .map(|_| TermId(rng.gen_range(0..VOCAB / 2)))
                    .collect();
                let mode = if rng.gen_bool(0.5) {
                    QueryMode::Conjunctive
                } else {
                    QueryMode::Disjunctive
                };
                let total = rng.gen_range(1..50usize);
                let one_shot = index
                    .query(&Query::new(terms.clone(), total, mode))
                    .unwrap();

                // Random batch schedule summing to >= total.
                let mut batches = Vec::new();
                let mut left = total;
                while left > 0 {
                    let b = rng.gen_range(1..=left);
                    batches.push(b);
                    left -= b;
                }
                let drained =
                    drain_in_batches(index.as_ref(), &Query::new(terms, total, mode), &batches);
                assert_same(
                    &format!("{kind} shards={shards} round={round}"),
                    &one_shot,
                    &drained,
                );
            }
        }
    }
}

/// The acceptance shape: top-k, then resume for k more, equals one-shot
/// top-2k — for every method and shard count.
#[test]
fn resume_equals_deeper_one_shot() {
    for kind in MethodKind::ALL_EXTENDED {
        for shards in [1usize, 4, 8] {
            let mut rng = StdRng::seed_from_u64(0xBEEF ^ shards as u64);
            let num_docs = 100;
            let (docs, scores) = corpus(&mut rng, num_docs);
            let config = config_for(kind, shards);
            let index = build_index(kind, &docs, &scores, &config).unwrap();
            storm(&mut rng, index.as_ref(), num_docs);

            for k in [1usize, 5, 13] {
                let terms = vec![TermId(rng.gen_range(0..6))];
                let query = Query::disjunctive(terms.clone(), k);
                let two_k = index
                    .query(&Query::disjunctive(terms.clone(), 2 * k))
                    .unwrap();
                let mut cursor = index.open_cursor(&query).unwrap();
                let mut paged = index.next_batch(&mut cursor, k).unwrap();
                paged.extend(index.next_batch(&mut cursor, k).unwrap());
                assert_same(&format!("{kind} shards={shards} k={k}"), &two_k, &paged);
            }
        }
    }
}

/// A cursor that outlives an offline merge returns exactly what a
/// never-suspended drain returns. The merge moves every short-list posting
/// into rebuilt (and, with the block codec, re-encoded) long lists, so a
/// suspended cursor's positions point into lists that no longer exist; with
/// no score change in between, the restarted cursor must still emit the
/// same `(doc, score)` sequence — nothing dropped, nothing repeated, same
/// order. Every method × codec × shard count × AND/OR × first-batch size
/// 1-7, over several seeds; all the cursors of one index cross one merge.
#[test]
fn cursor_survives_offline_merge() {
    let mut cases = 0;
    let mut failures = Vec::new();
    for seed in 0..6u64 {
        for kind in MethodKind::ALL_EXTENDED {
            for codec in CodecKind::ALL {
                for shards in [1usize, 4] {
                    let mut rng = StdRng::seed_from_u64(0xDEAD + seed);
                    let num_docs = 90;
                    let (docs, scores) = corpus(&mut rng, num_docs);
                    let config = config_with_codec(kind, shards, codec);
                    let index = build_index(kind, &docs, &scores, &config).unwrap();
                    storm(&mut rng, index.as_ref(), num_docs);

                    let terms: Vec<TermId> = (0..rng.gen_range(2..4))
                        .map(|_| TermId(rng.gen_range(0..6)))
                        .collect();
                    let mut open = Vec::new();
                    for mode in [QueryMode::Conjunctive, QueryMode::Disjunctive] {
                        let query = Query::new(terms.clone(), 10, mode);
                        let never_suspended = drain_in_batches(index.as_ref(), &query, &[1 << 20]);
                        for first in 1..=7usize {
                            let mut cursor = index.open_cursor(&query).unwrap();
                            let emitted = index.next_batch(&mut cursor, first).unwrap();
                            open.push((mode, first, cursor, emitted, never_suspended.clone()));
                        }
                    }
                    index.merge_short_lists().unwrap();
                    for (mode, first, mut cursor, mut emitted, want) in open {
                        loop {
                            let batch = index.next_batch(&mut cursor, 7).unwrap();
                            if batch.is_empty() {
                                break;
                            }
                            emitted.extend(batch);
                        }
                        cases += 1;
                        if emitted != want {
                            failures.push(format!(
                                "seed={seed} {kind} {codec:?} shards={shards} {mode:?} first={first}"
                            ));
                        }
                    }
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {cases} cursors differ from a never-suspended drain after a merge, e.g. {:?}",
        failures.len(),
        &failures[..failures.len().min(8)]
    );
}

/// The codec matrix: every method × every shard count × the block codec
/// must reproduce the Legacy ranking exactly — compression may never change
/// a result, only its size on disk.
#[test]
fn block_codecs_rank_identically_to_legacy() {
    for kind in MethodKind::ALL_EXTENDED {
        for shards in [1usize, 4, 8] {
            let mut rng = StdRng::seed_from_u64(0x5EED ^ shards as u64);
            let num_docs = 110;
            let (docs, scores) = corpus(&mut rng, num_docs);
            let queries: Vec<(Vec<TermId>, QueryMode, usize)> = (0..4)
                .map(|_| {
                    let terms: Vec<TermId> = (0..rng.gen_range(1..4))
                        .map(|_| TermId(rng.gen_range(0..VOCAB / 2)))
                        .collect();
                    let mode = if rng.gen_bool(0.5) {
                        QueryMode::Conjunctive
                    } else {
                        QueryMode::Disjunctive
                    };
                    (terms, mode, rng.gen_range(1..40usize))
                })
                .collect();

            let mut baseline: Option<Vec<Vec<SearchHit>>> = None;
            for codec in CodecKind::ALL {
                // Same storm per codec: the RNG is re-seeded so every codec
                // sees the identical update sequence.
                let mut storm_rng = StdRng::seed_from_u64(0xAB1E ^ shards as u64);
                let config = config_with_codec(kind, shards, codec);
                let index = build_index(kind, &docs, &scores, &config).unwrap();
                storm(&mut storm_rng, index.as_ref(), num_docs);
                index.merge_short_lists().unwrap();

                let results: Vec<Vec<SearchHit>> = queries
                    .iter()
                    .map(|(terms, mode, k)| {
                        // Drain through a suspendable cursor in small
                        // batches, not one-shot, so the block cursor's
                        // suspend/resume path is the thing being compared.
                        drain_in_batches(
                            index.as_ref(),
                            &Query::new(terms.clone(), *k, *mode),
                            &vec![3; k.div_ceil(3)],
                        )
                    })
                    .collect();
                match &baseline {
                    None => baseline = Some(results),
                    Some(expected) => {
                        for (q, (want, got)) in expected.iter().zip(&results).enumerate() {
                            assert_same(
                                &format!("{kind} shards={shards} {codec:?} query={q}"),
                                want,
                                got,
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Mismatched cursors are rejected, not misinterpreted — including a
/// cursor of another index with the same method and shard count, whose
/// positions point into a different store.
#[test]
fn cursor_is_bound_to_its_method_and_shape() {
    let mut rng = StdRng::seed_from_u64(7);
    let (docs, scores) = corpus(&mut rng, 40);
    let chunk = build_index(
        MethodKind::Chunk,
        &docs,
        &scores,
        &config_for(MethodKind::Chunk, 1),
    )
    .unwrap();
    let id = build_index(
        MethodKind::Id,
        &docs,
        &scores,
        &config_for(MethodKind::Id, 1),
    )
    .unwrap();
    let sharded = build_index(
        MethodKind::Chunk,
        &docs,
        &scores,
        &config_for(MethodKind::Chunk, 4),
    )
    .unwrap();

    let query = Query::disjunctive([TermId(1)], 5);
    let mut chunk_cursor = chunk.open_cursor(&query).unwrap();
    assert!(id.next_batch(&mut chunk_cursor, 5).is_err());
    assert!(sharded.next_batch(&mut chunk_cursor, 5).is_err());
    let mut sharded_cursor = sharded.open_cursor(&query).unwrap();
    assert!(chunk.next_batch(&mut sharded_cursor, 5).is_err());
    for codec in CodecKind::ALL {
        for kind in MethodKind::ALL_EXTENDED {
            let build = || build_index(kind, &docs, &scores, &config_with_codec(kind, 1, codec));
            let (ours, twin) = (build().unwrap(), build().unwrap());
            let mut cursor = ours.open_cursor(&query).unwrap();
            assert!(
                twin.next_batch(&mut cursor, 3).is_err(),
                "{kind} {codec:?}: a twin index accepted a foreign cursor"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property form: arbitrary batch schedules over the two headline
    /// methods, sharded and unsharded, always reproduce the one-shot order.
    #[test]
    fn arbitrary_batch_schedules_match(
        seed in 0u64..1_000,
        shards in prop_oneof![Just(1usize), Just(4)],
        codec in prop_oneof![
            Just(CodecKind::Legacy),
            Just(CodecKind::Bitpacked),
        ],
        batches in prop::collection::vec(1usize..9, 1..12),
        conjunctive in any::<bool>(),
    ) {
        for kind in [MethodKind::Chunk, MethodKind::ScoreThresholdTermScore] {
            let mut rng = StdRng::seed_from_u64(seed);
            let num_docs = 80;
            let (docs, scores) = corpus(&mut rng, num_docs);
            let index =
                build_index(kind, &docs, &scores, &config_with_codec(kind, shards, codec)).unwrap();
            storm(&mut rng, index.as_ref(), num_docs);

            let terms: Vec<TermId> = (0..rng.gen_range(1..3))
                .map(|_| TermId(rng.gen_range(0..8)))
                .collect();
            let mode = if conjunctive { QueryMode::Conjunctive } else { QueryMode::Disjunctive };
            let total: usize = batches.iter().sum();
            let one_shot = index.query(&Query::new(terms.clone(), total, mode)).unwrap();
            let drained = drain_in_batches(index.as_ref(), &Query::new(terms, total, mode), &batches);
            prop_assert_eq!(one_shot.len(), drained.len());
            for (a, b) in one_shot.iter().zip(&drained) {
                prop_assert_eq!(a.doc, b.doc);
                prop_assert!((a.score - b.score).abs() < 1e-9);
            }
        }
    }
}
