//! [`WalBatch`]: the one way to bracket write-ahead-log commits.
//!
//! Every structure-level mutation seals its own batch: the images of the
//! pages it wrote, then a commit marker (one fsync at the default sync
//! interval). A write made of many such mutations — a transaction, an
//! index write, an offline merge — opens a `WalBatch` over the stores it
//! may touch: their commits are held back until [`WalBatch::finish`] seals
//! each store once, logging every page the write touched once, with its
//! last bytes. A store the write left alone seals nothing: no record, no
//! fsync. A crash anywhere inside the bracket therefore recovers every
//! store to its pre-bracket state; after a clean finish, to the post-batch
//! state. The seals of different stores are appended one after another,
//! so the cross-store boundary is atomic under this repository's
//! whole-process crash model, not against a failure between the
//! individual appends.
//!
//! A clean finish is the second place a log seals (the first is
//! [`Store::log_commit`] outside a bracket), so it is also where each store
//! checkpoints itself once its log outgrew the threshold (see
//! [`StorageEnv::set_wal_checkpoint_bytes`](crate::StorageEnv::set_wal_checkpoint_bytes)).

use std::sync::Arc;

use crate::error::Result;
use crate::pool::Store;

/// An open commit bracket over a set of logged stores.
///
/// Call [`WalBatch::finish`] on the success path: it reports a failed
/// append, fsync or checkpoint. Dropping an unfinished guard (an early
/// return or an unwind) still seals every store, so no bracket outlives its
/// guard, but it checkpoints nothing and has nowhere to report a sealing
/// error.
///
/// **Caller invariant:** the bracket runs with the stores' other writers
/// shut out — a table's batch under its table lock, an index batch under
/// the shard write lock — so the checkpoint after a seal cannot flush or
/// truncate another writer's unsealed pages.
#[must_use = "dropping the guard at once seals an empty batch; call `finish` after the writes"]
pub struct WalBatch {
    stores: Vec<Arc<Store>>,
}

impl WalBatch {
    /// Open a bracket on every logged store of `stores`; unlogged stores
    /// have no commits to hold back and are left alone.
    pub fn begin(stores: impl IntoIterator<Item = Arc<Store>>) -> WalBatch {
        let stores: Vec<Arc<Store>> = stores.into_iter().collect();
        for wal in stores.iter().filter_map(|store| store.wal()) {
            wal.begin_batch();
        }
        WalBatch { stores }
    }

    /// Seal every store: the images of the pages the batch wrote there,
    /// then one commit marker; then checkpoint each store whose log
    /// outgrew its threshold. Every store is sealed even after one fails;
    /// the first error is returned. A failed checkpoint leaves the write
    /// committed (its log still replays on the older baseline) but is
    /// reported all the same.
    pub fn finish(mut self) -> Result<()> {
        self.seal(true)
    }

    fn seal(&mut self, checkpoint: bool) -> Result<()> {
        let mut sealed = Ok(());
        for store in std::mem::take(&mut self.stores) {
            let Some(wal) = store.wal() else { continue };
            let result = match wal.end_batch() {
                Ok(_) if checkpoint => store.checkpoint_if_over(),
                Ok(_) => Ok(()),
                // No checkpoint: it would flush the unsealed pages to disk.
                Err(e) => Err(e),
            };
            sealed = sealed.and(result);
        }
        sealed
    }
}

impl Drop for WalBatch {
    fn drop(&mut self) {
        // Only early-return and unwind paths get here with stores left;
        // their own error is already on its way to the caller. No
        // checkpoint: nothing could report its failure.
        let _ = self.seal(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use crate::wal::Wal;
    use crate::{BTree, StorageError};
    use bytes::Bytes;

    fn logged_store(wal: Wal) -> Arc<Store> {
        Arc::new(Store::new_logged(
            Arc::new(MemDisk::new(512)),
            16,
            Arc::new(wal),
        ))
    }

    #[test]
    fn finish_seals_every_store_with_one_marker() {
        let stores = [logged_store(Wal::new()), logged_store(Wal::new())];
        let trees: Vec<BTree> = stores
            .iter()
            .map(|s| BTree::create_durable(s.clone()).unwrap())
            .collect();
        let records_before: Vec<u64> = stores
            .iter()
            .map(|s| s.wal().unwrap().stats().records)
            .collect();
        let batch = WalBatch::begin(stores.iter().cloned());
        for tree in &trees {
            for i in 0..5u32 {
                tree.put(&i.to_be_bytes(), b"v").unwrap();
            }
        }
        for store in &stores {
            let wal = store.wal().unwrap();
            assert!(wal.in_batch());
            assert_eq!(wal.stats().uncommitted, 1, "one leaf, written five times");
        }
        batch.finish().unwrap();
        for (store, before) in stores.iter().zip(records_before) {
            let stats = store.wal().unwrap().stats();
            assert!(!store.wal().unwrap().in_batch());
            // The leaf's last image and one marker.
            assert_eq!((stats.records - before, stats.uncommitted), (2, 0));
        }
    }

    #[test]
    fn a_store_the_batch_left_alone_seals_nothing() {
        let touched = logged_store(Wal::new());
        let untouched = logged_store(Wal::new());
        let tree = BTree::create_durable(touched.clone()).unwrap();
        BTree::create_durable(untouched.clone()).unwrap();
        let (touched_before, untouched_before) = (
            touched.wal().unwrap().stats(),
            untouched.wal().unwrap().stats(),
        );
        let batch = WalBatch::begin([touched.clone(), untouched.clone()]);
        tree.put(b"k", b"v").unwrap();
        batch.finish().unwrap();
        assert_eq!(
            untouched.wal().unwrap().stats(),
            untouched_before,
            "no record and no fsync"
        );
        assert_eq!(
            touched.wal().unwrap().stats().syncs,
            touched_before.syncs + 1
        );
    }

    #[test]
    fn drop_seals_an_unfinished_bracket() {
        let store = logged_store(Wal::new());
        let tree = BTree::create_durable(store.clone()).unwrap();
        {
            let _batch = WalBatch::begin([store.clone()]);
            tree.put(b"k", b"v").unwrap();
        }
        let wal = store.wal().unwrap();
        assert!(!wal.in_batch());
        assert_eq!(wal.stats().uncommitted, 0);
    }

    #[test]
    fn finish_checkpoints_a_store_whose_log_outgrew_its_threshold() {
        let over = logged_store(Wal::new());
        let under = logged_store(Wal::new());
        let trees: Vec<BTree> = [&over, &under]
            .iter()
            .map(|s| BTree::create_durable((*s).clone()).unwrap())
            .collect();
        over.wal().unwrap().set_checkpoint_bytes(1);
        under.wal().unwrap().set_checkpoint_bytes(u64::MAX);
        let batch = WalBatch::begin([over.clone(), under.clone()]);
        for tree in &trees {
            tree.put(b"k", b"v").unwrap();
        }
        batch.finish().unwrap();
        assert_eq!(over.wal().unwrap().stats().bytes, 0, "checkpointed");
        assert!(under.wal().unwrap().stats().bytes > 0, "under threshold");
        // The checkpoint flushed the sealed pages: they survive a crash
        // with nothing left to replay.
        over.crash();
        over.recover().unwrap();
        let reopened = BTree::reopen(over.clone(), 0).unwrap();
        assert_eq!(reopened.get(b"k").unwrap().as_deref(), Some(&b"v"[..]));
    }

    #[test]
    fn no_checkpoint_inside_an_open_bracket() {
        let store = logged_store(Wal::new());
        let tree = BTree::create_durable(store.clone()).unwrap();
        let wal = store.wal().unwrap();
        tree.put(b"a", b"1").unwrap();
        let logged = wal.stats().bytes;
        // The log is over the threshold before the bracket opens.
        wal.set_checkpoint_bytes(1);
        let batch = WalBatch::begin([store.clone()]);
        tree.put(b"b", b"2").unwrap();
        assert_eq!(
            wal.stats().bytes,
            logged,
            "a held-back commit seals nothing"
        );
        batch.finish().unwrap();
        assert_eq!(wal.stats().bytes, 0, "the seal at finish checkpoints");
    }

    #[test]
    fn drop_seals_without_checkpointing() {
        let store = logged_store(Wal::new());
        let tree = BTree::create_durable(store.clone()).unwrap();
        store.wal().unwrap().set_checkpoint_bytes(1);
        {
            let _batch = WalBatch::begin([store.clone()]);
            tree.put(b"k", b"v").unwrap();
        }
        let stats = store.wal().unwrap().stats();
        assert_eq!(stats.uncommitted, 0, "sealed");
        assert!(stats.bytes > 0, "not checkpointed");
    }

    /// `/dev/full` fails every write with `ENOSPC`: the guard must say so
    /// instead of acknowledging a batch recovery would roll back.
    #[cfg(target_os = "linux")]
    #[test]
    fn finish_reports_a_failed_seal() {
        let full = logged_store(Wal::open_file(std::path::Path::new("/dev/full")).unwrap());
        let fine = logged_store(Wal::new());
        let batch = WalBatch::begin([full.clone(), fine.clone()]);
        for store in [&full, &fine] {
            let page = store.allocate().unwrap();
            store
                .write_page(page, Bytes::from_static(b"image"))
                .unwrap();
        }
        assert!(matches!(batch.finish(), Err(StorageError::Io(_))));
        let fine = fine.wal().unwrap();
        assert!(
            !fine.in_batch(),
            "a failed store does not stop the others from sealing"
        );
        assert_eq!(fine.stats().uncommitted, 0);
    }
}
