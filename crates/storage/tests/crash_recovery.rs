//! Crash-recovery tests for write-ahead-logged stores.
//!
//! The crash model: the disk and the log survive; the buffer pool (and any
//! in-process object state) is lost. `Store::crash()` drops the pool,
//! `Store::recover()` replays committed log batches, and `BTree::reopen`
//! rebuilds a tree handle from its persisted metadata page.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use svr_storage::{BTree, BlobStore, MemDisk, StorageEnv, Store, Wal};

fn logged_store(page_size: usize, cache_pages: usize) -> Arc<Store> {
    Arc::new(Store::new_logged(
        Arc::new(MemDisk::new(page_size)),
        cache_pages,
        Arc::new(Wal::new()),
    ))
}

#[test]
fn committed_puts_survive_a_crash() {
    let store = logged_store(512, 4);
    let tree = BTree::create_durable(store.clone()).unwrap();
    let meta = tree.meta_page().unwrap();
    for i in 0..200u32 {
        tree.put(&i.to_be_bytes(), format!("value-{i}").as_bytes())
            .unwrap();
    }
    // Crash with everything still dirty in the pool (no flush, no checkpoint).
    store.crash();
    store.recover().unwrap();
    let tree = BTree::reopen(store, meta).unwrap();
    assert_eq!(tree.len(), 200);
    for i in 0..200u32 {
        assert_eq!(
            tree.get(&i.to_be_bytes()).unwrap().as_deref(),
            Some(format!("value-{i}").as_bytes()),
            "key {i}"
        );
    }
}

#[test]
fn deletes_and_overwrites_survive() {
    let store = logged_store(512, 4);
    let tree = BTree::create_durable(store.clone()).unwrap();
    let meta = tree.meta_page().unwrap();
    for i in 0..100u32 {
        tree.put(&i.to_be_bytes(), b"first").unwrap();
    }
    for i in 0..50u32 {
        tree.delete(&i.to_be_bytes()).unwrap();
    }
    for i in 50..100u32 {
        tree.put(&i.to_be_bytes(), b"second").unwrap();
    }
    store.crash();
    store.recover().unwrap();
    let tree = BTree::reopen(store, meta).unwrap();
    assert_eq!(tree.len(), 50);
    assert_eq!(tree.get(&10u32.to_be_bytes()).unwrap(), None);
    assert_eq!(
        tree.get(&70u32.to_be_bytes()).unwrap().as_deref(),
        Some(&b"second"[..])
    );
}

#[test]
fn uncommitted_page_writes_are_discarded() {
    let store = logged_store(512, 2);
    // Raw page writes without a commit marker: lost on crash, even though
    // the pool was pressured (no-steal keeps uncommitted pages off disk).
    let ids: Vec<_> = (0..16).map(|_| store.allocate().unwrap()).collect();
    for &id in &ids {
        store
            .write_page(id, bytes::Bytes::from(vec![0xAB; 512]))
            .unwrap();
    }
    store.crash();
    store.recover().unwrap();
    for &id in &ids {
        assert!(
            store.read_page(id).unwrap().iter().all(|&b| b == 0),
            "uncommitted page {id} leaked to disk"
        );
    }
}

#[test]
fn torn_log_tail_loses_only_the_last_batch() {
    let store = logged_store(512, 8);
    let tree = BTree::create_durable(store.clone()).unwrap();
    let meta = tree.meta_page().unwrap();
    tree.put(b"stable", b"yes").unwrap();
    tree.put(b"victim", b"maybe").unwrap();
    // The tail of the log (part of the last batch) is torn off mid-write.
    store.wal().unwrap().simulate_torn_tail(7).unwrap();
    store.crash();
    store.recover().unwrap();
    let tree = BTree::reopen(store, meta).unwrap();
    assert_eq!(tree.get(b"stable").unwrap().as_deref(), Some(&b"yes"[..]));
    assert_eq!(
        tree.get(b"victim").unwrap(),
        None,
        "torn batch must roll back"
    );
}

/// A fresh directory for one file-backed environment.
fn temp_env_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("svr-crash-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn file_backed_torn_tail_survives_a_process_restart() {
    let dir = temp_env_dir("torn");
    let meta = {
        let env = StorageEnv::open_dir(&dir, 512).unwrap();
        let store = env.create_store("t", 8);
        let tree = BTree::create_durable(store.clone()).unwrap();
        tree.put(b"stable", b"yes").unwrap();
        tree.put(b"victim", b"maybe").unwrap();
        store.wal().unwrap().simulate_torn_tail(7).unwrap();
        tree.meta_page().unwrap()
        // Dropping the environment without a flush ends the "process".
    };
    let env = StorageEnv::open_dir(&dir, 512).unwrap();
    let tree = BTree::reopen(env.create_store("t", 8), meta).unwrap();
    assert_eq!(tree.get(b"stable").unwrap().as_deref(), Some(&b"yes"[..]));
    assert_eq!(
        tree.get(b"victim").unwrap(),
        None,
        "the tear is in the file"
    );
    drop((tree, env));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn file_backed_unsynced_tail_is_lost_across_a_process_restart() {
    let dir = temp_env_dir("unsynced");
    let meta = {
        let env = StorageEnv::open_dir(&dir, 512).unwrap();
        env.set_wal_sync_interval_ms(60_000);
        let tree = BTree::create_durable(env.create_store("t", 8)).unwrap();
        for i in 0..10u32 {
            tree.put(&i.to_be_bytes(), b"synced").unwrap();
        }
        env.sync_all_wals().unwrap();
        for i in 10..20u32 {
            tree.put(&i.to_be_bytes(), b"acknowledged").unwrap();
        }
        assert!(
            env.crash_unsynced() > 0,
            "commits after the sync were deferred"
        );
        tree.meta_page().unwrap()
    };
    let env = StorageEnv::open_dir(&dir, 512).unwrap();
    let tree = BTree::reopen(env.create_store("t", 8), meta).unwrap();
    assert_eq!(tree.len(), 10, "exactly the synced prefix survives");
    for i in 0..10u32 {
        assert_eq!(
            tree.get(&i.to_be_bytes()).unwrap().as_deref(),
            Some(&b"synced"[..])
        );
    }
    drop((tree, env));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_truncates_and_baseline_survives() {
    let store = logged_store(512, 4);
    let tree = BTree::create_durable(store.clone()).unwrap();
    let meta = tree.meta_page().unwrap();
    for i in 0..100u32 {
        tree.put(&i.to_be_bytes(), b"pre-checkpoint").unwrap();
    }
    store.checkpoint().unwrap();
    assert_eq!(
        store.wal().unwrap().stats().bytes,
        0,
        "checkpoint truncates the log"
    );
    for i in 100..150u32 {
        tree.put(&i.to_be_bytes(), b"post-checkpoint").unwrap();
    }
    store.crash();
    store.recover().unwrap();
    let tree = BTree::reopen(store, meta).unwrap();
    assert_eq!(tree.len(), 150);
    assert_eq!(
        tree.get(&25u32.to_be_bytes()).unwrap().as_deref(),
        Some(&b"pre-checkpoint"[..])
    );
    assert_eq!(
        tree.get(&125u32.to_be_bytes()).unwrap().as_deref(),
        Some(&b"post-checkpoint"[..])
    );
}

#[test]
fn recovery_is_idempotent() {
    let store = logged_store(512, 4);
    let tree = BTree::create_durable(store.clone()).unwrap();
    let meta = tree.meta_page().unwrap();
    tree.put(b"k", b"v").unwrap();
    store.crash();
    store.recover().unwrap();
    store.crash();
    store.recover().unwrap(); // second recovery over a truncated log
    let tree = BTree::reopen(store, meta).unwrap();
    assert_eq!(tree.get(b"k").unwrap().as_deref(), Some(&b"v"[..]));
}

#[test]
fn blobs_survive_crashes() {
    let store = logged_store(512, 4);
    let blobs = BlobStore::new(store.clone());
    let payload: Vec<u8> = (0..3000).map(|i| (i % 251) as u8).collect();
    let handle = blobs.put(&payload).unwrap();
    store.crash();
    store.recover().unwrap();
    let blobs = BlobStore::new(store);
    assert_eq!(blobs.read_all(handle).unwrap(), payload);
}

#[test]
fn unlogged_store_loses_dirty_pages_on_crash() {
    // Control: without a WAL the same scenario loses data — demonstrating
    // what the log actually buys.
    let store = Arc::new(Store::new(Arc::new(MemDisk::new(512)), 4));
    let id = store.allocate().unwrap();
    store
        .write_page(id, bytes::Bytes::from(vec![0x77; 512]))
        .unwrap();
    store.crash();
    store.recover().unwrap(); // no-op without a WAL
    assert!(store.read_page(id).unwrap().iter().all(|&b| b == 0));
}

/// One operation of the randomized crash workload.
#[derive(Debug, Clone)]
enum Op {
    Put(u16, u8),
    Delete(u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| Op::Put(k % 512, v)),
        1 => any::<u16>().prop_map(|k| Op::Delete(k % 512)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After any op sequence, a crash at any point (optionally with a
    /// checkpoint somewhere earlier) recovers exactly the state of the
    /// completed operations.
    #[test]
    fn recovered_tree_matches_model(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        checkpoint_at in any::<usize>(),
    ) {
        let store = logged_store(512, 4);
        let tree = BTree::create_durable(store.clone()).unwrap();
        let meta = tree.meta_page().unwrap();
        let mut model: BTreeMap<u16, u8> = BTreeMap::new();
        let checkpoint_at = checkpoint_at % (ops.len() + 1);
        for (i, op) in ops.iter().enumerate() {
            if i == checkpoint_at {
                store.checkpoint().unwrap();
            }
            match *op {
                Op::Put(k, v) => {
                    tree.put(&k.to_be_bytes(), &[v]).unwrap();
                    model.insert(k, v);
                }
                Op::Delete(k) => {
                    tree.delete(&k.to_be_bytes()).unwrap();
                    model.remove(&k);
                }
            }
        }
        store.crash();
        store.recover().unwrap();
        let tree = BTree::reopen(store, meta).unwrap();
        prop_assert_eq!(tree.len(), model.len() as u64);
        for (k, v) in &model {
            let got = tree.get(&k.to_be_bytes()).unwrap();
            prop_assert_eq!(got.as_deref(), Some(&[*v][..]));
        }
    }
}
