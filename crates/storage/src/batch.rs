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

use std::sync::Arc;

use crate::error::Result;
use crate::pool::Store;

/// An open commit bracket over a set of logged stores.
///
/// Call [`WalBatch::finish`] on the success path: it reports a failed
/// append or fsync. Dropping an unfinished guard (an early return or an
/// unwind) still seals every store, so no bracket outlives its guard, but
/// it has nowhere to report a sealing error.
#[must_use = "dropping the guard at once seals an empty batch; call `finish` after the writes"]
pub struct WalBatch {
    stores: Vec<Arc<Store>>,
    /// Checkpoint a store whose log outgrew this many bytes once it seals.
    checkpoint_over: Option<u64>,
}

impl WalBatch {
    /// Open a bracket on every logged store of `stores`; unlogged stores
    /// have no commits to hold back and are left alone.
    pub fn begin(stores: impl IntoIterator<Item = Arc<Store>>) -> WalBatch {
        let stores: Vec<Arc<Store>> = stores.into_iter().collect();
        for wal in stores.iter().filter_map(|store| store.wal()) {
            wal.begin_batch();
        }
        WalBatch {
            stores,
            checkpoint_over: None,
        }
    }

    /// Also checkpoint each store whose log outgrew `bytes` right after it
    /// seals — never mid-bracket, which would split the batch. A failed
    /// checkpoint only leaves an older recovery baseline, so it is not an
    /// error of the batch.
    pub fn checkpoint_over(mut self, bytes: u64) -> WalBatch {
        self.checkpoint_over = Some(bytes);
        self
    }

    /// Seal every store: the images of the pages the batch wrote there,
    /// then one commit marker. Every store is sealed even after one fails;
    /// the first error is returned.
    pub fn finish(mut self) -> Result<()> {
        self.seal()
    }

    fn seal(&mut self) -> Result<()> {
        let mut sealed = Ok(());
        for store in std::mem::take(&mut self.stores) {
            let Some(wal) = store.wal() else { continue };
            match wal.end_batch() {
                Ok(_) => {
                    if let Some(bytes) = self.checkpoint_over {
                        // Best effort: the sealed log still replays on top
                        // of the older baseline.
                        let _ = store.maybe_checkpoint(bytes);
                    }
                }
                // No checkpoint: it would flush the unsealed pages to disk.
                Err(e) => sealed = sealed.and(Err(e)),
            }
        }
        sealed
    }
}

impl Drop for WalBatch {
    fn drop(&mut self) {
        // Only early-return and unwind paths get here with stores left;
        // their own error is already on its way to the caller.
        let _ = self.seal();
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
