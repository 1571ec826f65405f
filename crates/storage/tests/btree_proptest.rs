//! Property tests: the B+-tree must behave exactly like `BTreeMap<Vec<u8>,
//! Vec<u8>>` under arbitrary interleavings of put/delete/get/scan, for every
//! page size.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use svr_storage::{BTree, MemDisk, StorageEnv, Store, WalBatch};

#[derive(Debug, Clone)]
enum Op {
    Put(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    Get(Vec<u8>),
    ScanPrefix(Vec<u8>),
    Clear,
}

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    // Small alphabet to force collisions and shared prefixes.
    prop::collection::vec(prop::num::u8::ANY.prop_map(|b| b % 8), 1..12)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        30 => (key_strategy(), prop::collection::vec(any::<u8>(), 0..24))
            .prop_map(|(k, v)| Op::Put(k, v)),
        30 => key_strategy().prop_map(Op::Delete),
        30 => key_strategy().prop_map(Op::Get),
        30 => prop::collection::vec(prop::num::u8::ANY.prop_map(|b| b % 8), 0..4)
            .prop_map(Op::ScanPrefix),
        1 => Just(Op::Clear),
    ]
}

fn run_ops(page_size: usize, ops: &[Op]) {
    let store = Arc::new(Store::new(Arc::new(MemDisk::new(page_size)), 64));
    let tree = BTree::create(store).unwrap();
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

    for op in ops {
        match op {
            Op::Put(k, v) => {
                let prev = tree.put(k, v).unwrap();
                assert_eq!(prev, model.insert(k.clone(), v.clone()), "put {k:?}");
            }
            Op::Delete(k) => {
                let removed = tree.delete(k).unwrap();
                assert_eq!(removed, model.remove(k), "delete {k:?}");
            }
            Op::Get(k) => {
                assert_eq!(tree.get(k).unwrap(), model.get(k).cloned(), "get {k:?}");
            }
            Op::ScanPrefix(prefix) => {
                let got = tree.scan_prefix(prefix).unwrap();
                let want: Vec<(Vec<u8>, Vec<u8>)> = model
                    .iter()
                    .filter(|(k, _)| k.starts_with(prefix))
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                assert_eq!(got, want, "scan_prefix {prefix:?}");
            }
            Op::Clear => {
                tree.clear().unwrap();
                model.clear();
            }
        }
        assert_eq!(tree.len(), model.len() as u64, "length diverged");
    }

    // Full-order scan must equal the model exactly.
    let mut cursor = tree.cursor(&[]).unwrap();
    let mut scanned = Vec::new();
    while let Some(entry) = cursor.next_entry().unwrap() {
        scanned.push(entry);
    }
    let want: Vec<_> = model.into_iter().collect();
    assert_eq!(scanned, want, "final full scan diverged");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn btree_matches_model_4k(ops in prop::collection::vec(op_strategy(), 1..300)) {
        run_ops(4096, &ops);
    }

    #[test]
    fn btree_matches_model_tiny_pages(ops in prop::collection::vec(op_strategy(), 1..300)) {
        // 256-byte pages force deep trees, constant splits and merges.
        run_ops(256, &ops);
    }

    #[test]
    fn blob_roundtrip(data in prop::collection::vec(any::<u8>(), 0..20_000)) {
        let store = Arc::new(Store::new(Arc::new(MemDisk::new(512)), 16));
        let blobs = svr_storage::BlobStore::new(store);
        let handle = blobs.put(&data).unwrap();
        prop_assert_eq!(blobs.read_all(handle).unwrap(), data);
    }
}

#[test]
fn btree_dense_sequential_workload() {
    // Deterministic heavy test: interleaved inserts and deletes of 20k keys.
    let store = Arc::new(Store::new(Arc::new(MemDisk::new(512)), 256));
    let tree = BTree::create(store).unwrap();
    let mut model = BTreeMap::new();
    for i in 0..20_000u64 {
        let k = (i.wrapping_mul(0x9E3779B97F4A7C15)).to_be_bytes().to_vec();
        tree.put(&k, &i.to_be_bytes()).unwrap();
        model.insert(k, i.to_be_bytes().to_vec());
        if i % 3 == 0 {
            let dk = ((i / 2).wrapping_mul(0x9E3779B97F4A7C15))
                .to_be_bytes()
                .to_vec();
            assert_eq!(tree.delete(&dk).unwrap(), model.remove(&dk));
        }
    }
    assert_eq!(tree.len(), model.len() as u64);
    for (k, v) in &model {
        assert_eq!(tree.get(k).unwrap().as_ref(), Some(v));
    }
}

/// Fill `tree` with `n` keys spread over the key space (value = key).
fn fill(tree: &BTree, n: u32) {
    for i in 0..n {
        let k = i.wrapping_mul(2_654_435_761).to_be_bytes();
        tree.put(&k, &k).unwrap();
    }
}

fn assert_filled(tree: &BTree, n: u32) {
    assert_eq!(tree.len(), u64::from(n));
    for i in 0..n {
        let k = i.wrapping_mul(2_654_435_761).to_be_bytes();
        assert_eq!(tree.get(&k).unwrap().as_deref(), Some(&k[..]), "key {i}");
    }
}

#[test]
fn clear_empties_a_deep_tree() {
    let store = Arc::new(Store::new(Arc::new(MemDisk::new(256)), 64));
    let tree = BTree::create(store).unwrap();
    fill(&tree, 3_000);
    assert!(tree.depth().unwrap() >= 3, "the test needs internal levels");
    tree.clear().unwrap();
    assert_eq!(tree.len(), 0);
    assert_eq!(tree.depth().unwrap(), 1);
    assert_eq!(tree.get(&7u32.to_be_bytes()).unwrap(), None);
    assert!(tree.cursor(&[]).unwrap().next_entry().unwrap().is_none());
    assert!(tree.scan_prefix(&[]).unwrap().is_empty());
}

#[test]
fn refill_after_clear_reuses_the_freed_pages() {
    let store = Arc::new(Store::new(Arc::new(MemDisk::new(256)), 64));
    let tree = BTree::create(store.clone()).unwrap();
    fill(&tree, 3_000);
    let pages = store.disk().num_pages();
    tree.clear().unwrap();
    fill(&tree, 3_000);
    assert_eq!(
        store.disk().num_pages(),
        pages,
        "no page past the old tree's"
    );
    assert_filled(&tree, 3_000);
}

/// A durable tree over a logged store: `3_000` keys checkpointed to disk,
/// `500` more only in the log.
fn durable_tree(env: &StorageEnv) -> (Arc<Store>, BTree) {
    let store = env.create_store("t", 16);
    let tree = BTree::create_durable(store.clone()).unwrap();
    fill(&tree, 3_000);
    env.checkpoint_all().unwrap();
    for i in 3_000..3_500u32 {
        let k = i.wrapping_mul(2_654_435_761).to_be_bytes();
        tree.put(&k, &k).unwrap();
    }
    (store, tree)
}

#[test]
fn sealed_clear_recovers_empty() {
    let env = StorageEnv::new_durable(256);
    let (store, tree) = durable_tree(&env);
    tree.clear().unwrap();
    env.crash();
    env.recover_all().unwrap();
    let reopened = BTree::reopen(store, 0).unwrap();
    assert_eq!(reopened.len(), 0);
    assert!(reopened
        .cursor(&[])
        .unwrap()
        .next_entry()
        .unwrap()
        .is_none());
}

#[test]
fn unsealed_clear_recovers_the_whole_tree() {
    let env = StorageEnv::new_durable(256);
    let (store, tree) = durable_tree(&env);
    // Clear and partly refill inside one bracket — the refill rewrites
    // freed pages — then lose the bracket's one commit marker.
    let batch = WalBatch::begin([store.clone()]);
    tree.clear().unwrap();
    fill(&tree, 200);
    batch.finish().unwrap();
    store.wal().unwrap().simulate_torn_tail(13).unwrap();
    env.crash();
    env.recover_all().unwrap();
    let reopened = BTree::reopen(store, 0).unwrap();
    assert_filled(&reopened, 3_500);
    // The pages the rolled-back clear freed are still the tree's: growing
    // it must not hand them out again.
    for i in 3_500..5_000u32 {
        let k = i.wrapping_mul(2_654_435_761).to_be_bytes();
        reopened.put(&k, &k).unwrap();
    }
    assert_filled(&reopened, 5_000);
}
