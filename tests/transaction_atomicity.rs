//! Atomic `WriteBatch` end to end: a batch whose Nth operation fails must
//! leave **no observable trace** — every table scan, view score, top-k
//! ranking and live-doc count identical to an engine that never saw the
//! batch (serial-replay oracle) — and a crash mid-batch must recover the
//! table stores to the pre-batch state (torn-tail failure injection across
//! the WAL batch boundary).

use proptest::prelude::*;
use svr::{IndexConfig, MethodKind, QueryMode, SvrEngine, WriteBatch};
use svr_relation::schema::{ColumnType, Schema};
use svr_relation::{ScoreComponent, SvrSpec, Value};
use svr_storage::BTree;

const WORDS: &[&str] = &["golden", "gate", "bridge", "fog", "ferry"];
const SLOTS: u8 = 10;

fn words_for(mask: u8) -> String {
    WORDS
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, w)| *w)
        .collect::<Vec<_>>()
        .join(" ")
}

fn build_engine(method: MethodKind, num_shards: usize) -> SvrEngine {
    let engine = SvrEngine::new();
    engine
        .create_table(Schema::new(
            "movies",
            &[("mid", ColumnType::Int), ("desc", ColumnType::Text)],
            0,
        ))
        .unwrap();
    engine
        .create_table(Schema::new(
            "stats",
            &[("mid", ColumnType::Int), ("nvisit", ColumnType::Int)],
            0,
        ))
        .unwrap();
    engine
        .create_text_index(
            "idx",
            "movies",
            "desc",
            SvrSpec::single(ScoreComponent::ColumnOf {
                table: "stats".into(),
                key_col: "mid".into(),
                val_col: "nvisit".into(),
            }),
            method,
            IndexConfig {
                min_chunk_docs: 2,
                chunk_ratio: 2.0,
                threshold_ratio: 1.5,
                num_shards,
                ..IndexConfig::default()
            },
        )
        .unwrap();
    engine
}

/// One generated batch operation; `slot` indexes a small pk space so
/// duplicate-insert / missing-row failures are easy to provoke on purpose.
#[derive(Debug, Clone)]
enum BatchOp {
    InsertMovie { slot: u8, mask: u8 },
    InsertStats { slot: u8, visits: u32 },
    SetVisits { slot: u8, visits: u32 },
    Redescribe { slot: u8, mask: u8 },
    DeleteMovie { slot: u8 },
    DeleteStats { slot: u8 },
}

fn op_strategy() -> impl Strategy<Value = BatchOp> {
    prop_oneof![
        (0..SLOTS, any::<u8>()).prop_map(|(slot, mask)| BatchOp::InsertMovie {
            slot,
            mask: mask | 1
        }),
        (0..SLOTS, 0u32..50_000).prop_map(|(slot, visits)| BatchOp::InsertStats { slot, visits }),
        (0..SLOTS, 0u32..50_000).prop_map(|(slot, visits)| BatchOp::SetVisits { slot, visits }),
        (0..SLOTS, any::<u8>()).prop_map(|(slot, mask)| BatchOp::Redescribe {
            slot,
            mask: mask | 1
        }),
        (0..SLOTS).prop_map(|slot| BatchOp::DeleteMovie { slot }),
        (0..SLOTS).prop_map(|slot| BatchOp::DeleteStats { slot }),
    ]
}

fn push_op(batch: &mut WriteBatch, op: &BatchOp) {
    match *op {
        BatchOp::InsertMovie { slot, mask } => {
            batch.insert(
                "movies",
                vec![Value::Int(i64::from(slot)), Value::Text(words_for(mask))],
            );
        }
        BatchOp::InsertStats { slot, visits } => {
            batch.insert(
                "stats",
                vec![Value::Int(i64::from(slot)), Value::Int(i64::from(visits))],
            );
        }
        BatchOp::SetVisits { slot, visits } => {
            batch.update(
                "stats",
                Value::Int(i64::from(slot)),
                vec![("nvisit".into(), Value::Int(i64::from(visits)))],
            );
        }
        BatchOp::Redescribe { slot, mask } => {
            batch.update(
                "movies",
                Value::Int(i64::from(slot)),
                vec![("desc".into(), Value::Text(words_for(mask)))],
            );
        }
        BatchOp::DeleteMovie { slot } => {
            batch.delete("movies", Value::Int(i64::from(slot)));
        }
        BatchOp::DeleteStats { slot } => {
            batch.delete("stats", Value::Int(i64::from(slot)));
        }
    }
}

/// Full observable-state comparison: table scans, materialized view
/// scores, top-k rankings (every word, both modes) and per-shard live-doc
/// counts.
fn assert_engines_identical(actual: &SvrEngine, oracle: &SvrEngine, context: &str) {
    for table in ["movies", "stats"] {
        assert_eq!(
            actual.db().table(table).unwrap().scan().unwrap(),
            oracle.db().table(table).unwrap().scan().unwrap(),
            "{context}: table '{table}' diverged"
        );
    }
    assert_eq!(
        actual.db().all_scores("idx").unwrap(),
        oracle.db().all_scores("idx").unwrap(),
        "{context}: view scores diverged"
    );
    for mode in [QueryMode::Conjunctive, QueryMode::Disjunctive] {
        for chunk in WORDS.chunks(2) {
            let keywords = chunk.join(" ");
            let lhs = actual.search("idx", &keywords, 20, mode).unwrap();
            let rhs = oracle.search("idx", &keywords, 20, mode).unwrap();
            assert_eq!(lhs, rhs, "{context}: ranking for '{keywords}' diverged");
        }
    }
    let docs = |e: &SvrEngine| -> Vec<u64> {
        e.index_shard_stats("idx")
            .unwrap()
            .iter()
            .map(|s| s.docs)
            .collect()
    };
    assert_eq!(
        docs(actual),
        docs(oracle),
        "{context}: live-doc counts diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The serial-replay oracle: after a shared prefix of successful
    /// batches, a batch with a failing operation somewhere in the middle
    /// is applied to one engine only — and must be invisible.
    #[test]
    fn failed_batch_leaves_no_observable_trace(
        prefix in prop::collection::vec(
            prop::collection::vec(op_strategy(), 1..5), 0..4),
        poisoned_ops in prop::collection::vec(op_strategy(), 1..6),
        poison_pos_seed in any::<u8>(),
        poison_kind in 0u8..3,
        sharded in any::<bool>(),
    ) {
        let engine = build_engine(MethodKind::Chunk, if sharded { 4 } else { 1 });
        let oracle = build_engine(MethodKind::Chunk, if sharded { 4 } else { 1 });

        // Shared prefix: batches that succeed apply to both engines;
        // batches that happen to fail must roll back on both (their
        // equality is itself part of the property).
        for ops in &prefix {
            let (mut a, mut b) = (WriteBatch::new(), WriteBatch::new());
            for op in ops {
                push_op(&mut a, op);
                push_op(&mut b, op);
            }
            let applied = engine.apply(a);
            let oracle_applied = oracle.apply(b);
            prop_assert_eq!(applied.is_ok(), oracle_applied.is_ok());
        }

        // The poisoned batch: valid-shaped ops around one that must fail.
        let mut batch = WriteBatch::new();
        let pos = usize::from(poison_pos_seed) % (poisoned_ops.len() + 1);
        for op in &poisoned_ops[..pos] {
            push_op(&mut batch, op);
        }
        match poison_kind {
            // Insert with a primary key that cannot be a document id.
            0 => { batch.insert("movies", vec![Value::Int(-7), Value::Text("golden".into())]); }
            // Update of a row that cannot exist.
            1 => {
                batch.update("stats", Value::Int(9_999),
                             vec![("nvisit".into(), Value::Int(1))]);
            }
            // Delete of a row that cannot exist.
            _ => { batch.delete("movies", Value::Int(9_999)); }
        }
        for op in &poisoned_ops[pos..] {
            push_op(&mut batch, op);
        }
        prop_assert!(engine.apply(batch).is_err(), "the poisoned batch must fail");

        assert_engines_identical(&engine, &oracle, "after poisoned batch");

        // The rolled-back engine still takes writes: replay the same ops
        // minus the poison on both sides and re-compare.
        let (mut a, mut b) = (WriteBatch::new(), WriteBatch::new());
        for op in &poisoned_ops {
            push_op(&mut a, op);
            push_op(&mut b, op);
        }
        let retry = engine.apply(a);
        let oracle_retry = oracle.apply(b);
        prop_assert_eq!(retry.is_ok(), oracle_retry.is_ok());
        assert_engines_identical(&engine, &oracle, "after retry");
    }
}

/// `apply` returns the batch's operation count once the batch is atomic.
#[test]
fn apply_returns_op_count() {
    let engine = build_engine(MethodKind::Chunk, 1);
    let mut batch = WriteBatch::new();
    batch.insert("movies", vec![Value::Int(1), Value::Text("golden".into())]);
    batch.insert("stats", vec![Value::Int(1), Value::Int(100)]);
    batch.update(
        "stats",
        Value::Int(1),
        vec![("nvisit".into(), Value::Int(250))],
    );
    assert_eq!(engine.apply(batch).unwrap(), 3);
    assert_eq!(engine.score_of("idx", 1).unwrap(), 250.0);
}

/// A multi-table batch failing on its *last* op rolls everything back —
/// including index postings for a row inserted earlier in the batch, which
/// must leave the id reusable.
#[test]
fn multi_table_rollback_frees_inserted_ids() {
    let engine = build_engine(MethodKind::Chunk, 4);
    let mut seed = WriteBatch::new();
    seed.insert("movies", vec![Value::Int(1), Value::Text("golden".into())]);
    seed.insert("stats", vec![Value::Int(1), Value::Int(10)]);
    engine.apply(seed).unwrap();

    let mut bad = WriteBatch::new();
    bad.insert(
        "movies",
        vec![Value::Int(2), Value::Text("gate fog".into())],
    );
    bad.insert("stats", vec![Value::Int(2), Value::Int(99_999)]);
    bad.delete("movies", Value::Int(777)); // fails: no such row
    assert!(engine.apply(bad).is_err());

    assert!(engine
        .search("idx", "gate", 10, QueryMode::Conjunctive)
        .unwrap()
        .is_empty());
    assert!(engine
        .db()
        .table("stats")
        .unwrap()
        .get(&Value::Int(2))
        .unwrap()
        .is_none());

    // Retry without the poison: the rolled-back insert of pk 2 must not
    // have left a tombstone blocking the id.
    let mut good = WriteBatch::new();
    good.insert(
        "movies",
        vec![Value::Int(2), Value::Text("gate fog".into())],
    );
    good.insert("stats", vec![Value::Int(2), Value::Int(99_999)]);
    engine.apply(good).unwrap();
    let hits = engine
        .search("idx", "gate", 10, QueryMode::Conjunctive)
        .unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].score, 99_999.0);
}

/// Crash recovery across the WAL batch boundary: a batch whose sealing
/// commit marker is torn off recovers to the pre-batch state; a sealed
/// batch survives.
#[test]
fn torn_tail_recovers_to_the_batch_boundary() {
    let engine = build_engine(MethodKind::Chunk, 1);

    // Batch 1: sealed by its closing marker.
    let mut first = WriteBatch::new();
    for i in 0..4 {
        first.insert("movies", vec![Value::Int(i), Value::Text("golden".into())]);
    }
    engine.apply(first).unwrap();

    let table = engine.db().table("movies").unwrap();
    let store = table.store().clone();
    let meta = table.meta_page().expect("table trees are durable");
    let wal = store.wal().expect("table stores are logged").clone();
    let sealed_after_first = wal.committed_pages().unwrap().len();

    // Batch 2: apply, then tear into its tail so the closing marker (and
    // with it the whole batch) is lost — the crash model for "the process
    // died inside / right at the end of the batch".
    let mut second = WriteBatch::new();
    for i in 4..9 {
        second.insert("movies", vec![Value::Int(i), Value::Text("gate".into())]);
    }
    engine.apply(second).unwrap();
    assert!(
        wal.committed_pages().unwrap().len() > sealed_after_first,
        "batch 2 sealed before the tear"
    );
    wal.simulate_torn_tail(3).unwrap();
    assert_eq!(
        wal.committed_pages().unwrap().len(),
        sealed_after_first,
        "tearing the marker unseals exactly batch 2"
    );

    // Crash: the buffer pool is lost; disk + log survive. Recover and
    // reopen the tree from its durable metadata page.
    store.crash();
    store.recover().unwrap();
    let tree = BTree::reopen(store.clone(), meta).unwrap();
    assert_eq!(tree.len(), 4, "batch 1 survives, batch 2 rolled back");
    for i in 0..4i64 {
        assert!(tree.get(&Value::Int(i).encode_key()).unwrap().is_some());
    }
    for i in 4..9i64 {
        assert!(tree.get(&Value::Int(i).encode_key()).unwrap().is_none());
    }
}

/// Without a tear, recovery replays both batches — the boundary only
/// matters when the crash lands inside it.
#[test]
fn clean_crash_recovers_both_batches() {
    let engine = build_engine(MethodKind::Chunk, 1);
    for range in [0..4i64, 4..9] {
        let mut batch = WriteBatch::new();
        for i in range {
            batch.insert("movies", vec![Value::Int(i), Value::Text("golden".into())]);
        }
        engine.apply(batch).unwrap();
    }
    let table = engine.db().table("movies").unwrap();
    let store = table.store().clone();
    let meta = table.meta_page().unwrap();
    store.crash();
    store.recover().unwrap();
    let tree = BTree::reopen(store.clone(), meta).unwrap();
    assert_eq!(tree.len(), 9);
}

/// A failed single-row op (not just batches) is also invisible: the
/// engine's per-op write paths run through the same transaction machinery.
#[test]
fn failed_single_ops_leave_no_trace() {
    let engine = build_engine(MethodKind::Chunk, 1);
    let oracle = build_engine(MethodKind::Chunk, 1);
    for e in [&engine, &oracle] {
        e.insert_row("movies", vec![Value::Int(1), Value::Text("golden".into())])
            .unwrap();
        e.insert_row("stats", vec![Value::Int(1), Value::Int(50)])
            .unwrap();
    }
    // Duplicate insert, bad-pk insert, missing-row update/delete.
    assert!(engine
        .insert_row("movies", vec![Value::Int(1), Value::Text("dup".into())])
        .is_err());
    assert!(engine
        .insert_row("movies", vec![Value::Int(-3), Value::Text("bad".into())])
        .is_err());
    assert!(engine
        .update_row("stats", Value::Int(42), &[("nvisit".into(), Value::Int(1))])
        .is_err());
    assert!(engine.delete_row("movies", Value::Int(42)).is_err());
    // insert_rows with a duplicate mid-way rolls back the whole call.
    assert!(engine
        .insert_rows(
            "movies",
            vec![
                vec![Value::Int(5), Value::Text("ferry".into())],
                vec![Value::Int(1), Value::Text("dup".into())],
            ],
        )
        .is_err());
    assert_engines_identical(&engine, &oracle, "after failed single ops");
}
