//! The file-backed disk must behave exactly like the in-memory disk: every
//! structure (B+-tree, blob store, WAL-logged store) runs on it unchanged,
//! and contents survive a close/reopen cycle.

use std::sync::Arc;

use svr_storage::{BTree, BlobStore, DiskBackend, FileDisk, StorageError, Store, Wal};

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("svr-filedisk-{}-{name}.pages", std::process::id()));
    p
}

#[test]
fn btree_on_file_disk_roundtrips() {
    let path = temp_path("btree");
    {
        let disk = Arc::new(FileDisk::create(&path, 512).unwrap());
        let store = Arc::new(Store::new(disk, 8));
        let tree = BTree::create(store).unwrap();
        for i in 0..500u32 {
            tree.put(&i.to_be_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        for i in (0..500u32).step_by(3) {
            tree.delete(&i.to_be_bytes()).unwrap();
        }
        for i in 0..500u32 {
            let expect = (i % 3 != 0).then(|| format!("v{i}").into_bytes());
            assert_eq!(tree.get(&i.to_be_bytes()).unwrap(), expect, "key {i}");
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn contents_survive_reopen() {
    let path = temp_path("reopen");
    let meta;
    {
        let disk = Arc::new(FileDisk::create(&path, 512).unwrap());
        let store = Arc::new(Store::new(disk.clone(), 8));
        let tree = BTree::create_durable(store.clone()).unwrap();
        meta = tree.meta_page().unwrap();
        for i in 0..200u32 {
            tree.put(&i.to_be_bytes(), b"persisted").unwrap();
        }
        store.flush().unwrap();
        disk.sync().unwrap();
    }
    {
        let disk = Arc::new(FileDisk::open(&path, 512).unwrap());
        let store = Arc::new(Store::new(disk, 8));
        let tree = BTree::reopen(store, meta).unwrap();
        assert_eq!(tree.len(), 200);
        assert_eq!(
            tree.get(&77u32.to_be_bytes()).unwrap().as_deref(),
            Some(&b"persisted"[..])
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn blobs_and_io_accounting_on_file_disk() {
    let path = temp_path("blob");
    {
        let disk = Arc::new(FileDisk::create(&path, 512).unwrap());
        let store = Arc::new(Store::new(disk.clone(), 2));
        let blobs = BlobStore::new(store.clone());
        let payload: Vec<u8> = (0..5000).map(|i| (i % 241) as u8).collect();
        let handle = blobs.put(&payload).unwrap();
        store.clear_cache().unwrap();
        let before = disk.stats();
        assert_eq!(blobs.read_all(handle).unwrap(), payload);
        let delta = disk.stats().since(&before);
        assert_eq!(
            delta.pages_read, handle.pages,
            "one read per blob page on a cold cache"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn crash_recovery_on_file_disk() {
    let path = temp_path("wal");
    {
        let disk = Arc::new(FileDisk::create(&path, 512).unwrap());
        let store = Arc::new(Store::new_logged(disk, 4, Arc::new(Wal::new())));
        let tree = BTree::create_durable(store.clone()).unwrap();
        let meta = tree.meta_page().unwrap();
        for i in 0..100u32 {
            tree.put(&i.to_be_bytes(), b"logged").unwrap();
        }
        store.crash();
        store.recover().unwrap();
        let tree = BTree::reopen(store, meta).unwrap();
        assert_eq!(tree.len(), 100);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn out_of_bounds_is_rejected() {
    let path = temp_path("oob");
    {
        let disk = FileDisk::create(&path, 512).unwrap();
        assert!(disk.read(0).is_err());
        let id = disk.allocate().unwrap();
        assert!(disk.read(id).unwrap().iter().all(|&b| b == 0));
    }
    std::fs::remove_file(&path).ok();
}

/// `/dev/full` cannot grow: allocating reports the I/O error and leaves
/// the page count where it was.
#[cfg(target_os = "linux")]
#[test]
fn allocate_on_a_full_device_fails_and_allocates_nothing() {
    let disk = FileDisk::open(std::path::Path::new("/dev/full"), 512).unwrap();
    let pages = disk.num_pages();
    assert!(matches!(disk.allocate(), Err(StorageError::Io(_))));
    assert_eq!(disk.num_pages(), pages);
}
