//! # svr-storage
//!
//! A small paged storage engine that plays the role BerkeleyDB plays in the
//! SVR paper (Guo et al., ICDE 2005): all mutable index structures (Score
//! table, ListScore/ListChunk tables, short inverted lists, the Score
//! method's clustered long list) are stored in [`BTree`]s over fixed-size
//! slotted pages behind an LRU [`BufferPool`]; immutable long inverted lists
//! are stored as page-chained blobs in a [`BlobStore`] and read a page at a
//! time.
//!
//! The "disk" is an in-memory page vector behind the [`DiskBackend`] trait
//! that counts every page read and write ([`IoStats`]). Experiments use the
//! counts to model cold-cache I/O cost (see the bench crate), and
//! [`BufferPool::clear_cache`] reproduces the paper's "cold cache for the
//! long inverted lists" measurement protocol.
//!
//! ```
//! use svr_storage::{StorageEnv, BTree};
//!
//! let env = StorageEnv::default();
//! let store = env.create_store("demo", 64);
//! let tree = BTree::create(store).unwrap();
//! tree.put(b"k1", b"v1").unwrap();
//! assert_eq!(tree.get(b"k1").unwrap().as_deref(), Some(&b"v1"[..]));
//! ```

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod batch;
pub mod blob;
pub mod btree;
pub mod codec;
pub mod disk;
pub mod error;
pub mod page;
pub mod pool;
pub mod sync;
pub mod wal;

pub use batch::WalBatch;
pub use blob::{BlobHandle, BlobReader, BlobStore};
pub use btree::{BTree, BTreeCursor};
pub use disk::{DiskBackend, FileDisk, IoStats, MemDisk};
pub use error::{Result, StorageError};
pub use page::{PageId, DEFAULT_PAGE_SIZE};
pub use pool::{BufferPool, Store};
pub use sync::{lock_stats, LockClass, LockClassStats, LockStats, OrderedMutex, OrderedRwLock};
pub use wal::{Lsn, Wal, WalStats};

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

/// Where an environment's pages live.
enum EnvBackend {
    /// In-memory page vectors (the default; crash simulation drops buffer
    /// pools while the [`MemDisk`]s and in-memory logs survive).
    Mem,
    /// One pair of files per store (`<name>.pages`, `<name>.wal`) under a
    /// directory — real durability across process restarts. The `.wal`
    /// file is the store's log; no copy of it is kept in memory.
    File { dir: PathBuf },
}

/// A named collection of [`Store`]s, mirroring a BerkeleyDB environment.
///
/// Each store is an independent (disk, buffer pool) pair so experiments can
/// keep the small mutable structures warm while cold-starting the long-list
/// store, exactly like the paper's measurement setup.
///
/// ## Durable environments
///
/// An environment created with [`StorageEnv::new_durable`] (in-memory,
/// crash-simulation durability) or [`StorageEnv::open_dir`] (file-backed,
/// real durability) logs **every** store it creates: [`StorageEnv::crash`]
/// loses exactly the buffer pools, and [`StorageEnv::recover_all`] replays
/// each store's committed log batches. File-backed environments keep each
/// log in its own file ([`wal::Wal::open_file`]) and attach transparently
/// to the files a previous process left behind, recovering them on first
/// touch.
pub struct StorageEnv {
    page_size: usize,
    backend: EnvBackend,
    /// When set, `create_store` creates logged stores too — the whole
    /// environment is recoverable, not just the explicitly logged parts.
    default_logged: bool,
    /// Group-sync interval applied to every store's write-ahead log (see
    /// [`Wal::set_sync_interval_ms`]); `0` = fsync on every commit marker.
    wal_sync_interval_ms: std::sync::atomic::AtomicU64,
    /// Auto-checkpoint threshold applied to every store's write-ahead log
    /// (see [`StorageEnv::set_wal_checkpoint_bytes`]).
    wal_checkpoint_bytes: std::sync::atomic::AtomicU64,
    stores: Mutex<HashMap<String, Arc<Store>>>,
}

impl StorageEnv {
    /// Create an in-memory environment whose stores use `page_size`-byte
    /// pages.
    pub fn new(page_size: usize) -> Self {
        assert!(page_size >= 256, "page size must be at least 256 bytes");
        StorageEnv {
            page_size,
            backend: EnvBackend::Mem,
            default_logged: false,
            wal_sync_interval_ms: std::sync::atomic::AtomicU64::new(0),
            wal_checkpoint_bytes: std::sync::atomic::AtomicU64::new(wal::DEFAULT_CHECKPOINT_BYTES),
            stores: Mutex::new(HashMap::new()),
        }
    }

    /// Create an in-memory environment in which **every** store is
    /// write-ahead logged, so the environment as a whole survives
    /// [`StorageEnv::crash`] + [`StorageEnv::recover_all`]. This is the
    /// substrate of the engine's durable lifecycle under the repository's
    /// whole-process crash model.
    pub fn new_durable(page_size: usize) -> Self {
        StorageEnv {
            default_logged: true,
            ..StorageEnv::new(page_size)
        }
    }

    /// Open (creating the directory if needed) a **file-backed** durable
    /// environment: each store's pages live in `<dir>/<name>.pages` and its
    /// write-ahead log in `<dir>/<name>.wal`. Stores left by a
    /// previous process are attached lazily by name and recovered (log
    /// replay) on first touch.
    pub fn open_dir(dir: impl Into<PathBuf>, page_size: usize) -> Result<Self> {
        assert!(page_size >= 256, "page size must be at least 256 bytes");
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| StorageError::Io(e.to_string()))?;
        Ok(StorageEnv {
            page_size,
            backend: EnvBackend::File { dir },
            default_logged: true,
            wal_sync_interval_ms: std::sync::atomic::AtomicU64::new(0),
            wal_checkpoint_bytes: std::sync::atomic::AtomicU64::new(wal::DEFAULT_CHECKPOINT_BYTES),
            stores: Mutex::new(HashMap::new()),
        })
    }

    /// Page size used by stores created from this environment.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// True when every store of this environment is write-ahead logged
    /// (created via [`StorageEnv::new_durable`] or [`StorageEnv::open_dir`]).
    pub fn is_durable(&self) -> bool {
        self.default_logged
    }

    fn file_paths(dir: &Path, name: &str) -> (PathBuf, PathBuf) {
        let san = sanitize_store_name(name);
        (
            dir.join(format!("{san}.pages")),
            dir.join(format!("{san}.wal")),
        )
    }

    /// Build (or attach, for file backends) the backing store for `name`.
    fn make_store(&self, name: &str, cache_pages: usize, logged: bool) -> Result<Arc<Store>> {
        let store = match &self.backend {
            EnvBackend::Mem => Arc::new(if logged {
                Store::new_logged(
                    Arc::new(MemDisk::new(self.page_size)),
                    cache_pages,
                    Arc::new(wal::Wal::new()),
                )
            } else {
                Store::new(Arc::new(MemDisk::new(self.page_size)), cache_pages)
            }),
            EnvBackend::File { dir } => {
                let (pages, walfile) = Self::file_paths(dir, name);
                let existed = pages.exists();
                let disk = if existed {
                    FileDisk::open(&pages, self.page_size)?
                } else {
                    FileDisk::create(&pages, self.page_size)?
                };
                let store = if logged {
                    Store::new_logged(
                        Arc::new(disk),
                        cache_pages,
                        Arc::new(wal::Wal::open_file(&walfile)?),
                    )
                } else {
                    Store::new(Arc::new(disk), cache_pages)
                };
                if existed || logged {
                    // Attaching to surviving files: replay whatever the log
                    // committed (a fresh store's empty log makes this a
                    // no-op) so the first read sees consistent pages.
                    store.recover()?;
                }
                Arc::new(store)
            }
        };
        if let Some(wal) = store.wal() {
            wal.set_sync_interval_ms(self.wal_sync_interval_ms());
            wal.set_checkpoint_bytes(self.wal_checkpoint_bytes());
        }
        Ok(store)
    }

    /// Create (or fetch, if it already exists) a store with a buffer pool of
    /// `cache_pages` pages. In a durable environment the store is logged.
    #[expect(
        clippy::expect_used,
        reason = "documented panicking convenience; use try_create_store to handle"
    )]
    pub fn create_store(&self, name: &str, cache_pages: usize) -> Arc<Store> {
        self.try_create_store(name, cache_pages)
            .expect("store creation failed")
    }

    /// Fallible form of [`StorageEnv::create_store`] (file backends can hit
    /// real I/O errors).
    pub fn try_create_store(&self, name: &str, cache_pages: usize) -> Result<Arc<Store>> {
        let logged = self.default_logged;
        let mut stores = self.stores.lock();
        if let Some(store) = stores.get(name) {
            return Ok(store.clone());
        }
        let store = self.make_store(name, cache_pages, logged)?;
        stores.insert(name.to_string(), store.clone());
        Ok(store)
    }

    /// Create (or fetch) a **write-ahead-logged** store: page writes are
    /// logged before buffering and [`Store::recover`] replays committed
    /// batches after a crash (see [`wal`]).
    #[expect(
        clippy::expect_used,
        reason = "documented panicking convenience; use try_create_store to handle"
    )]
    pub fn create_logged_store(&self, name: &str, cache_pages: usize) -> Arc<Store> {
        let mut stores = self.stores.lock();
        if let Some(store) = stores.get(name) {
            return store.clone();
        }
        let store = self
            .make_store(name, cache_pages, true)
            .expect("store creation failed");
        stores.insert(name.to_string(), store.clone());
        store
    }

    /// Fetch a previously created store.
    pub fn store(&self, name: &str) -> Option<Arc<Store>> {
        self.stores.lock().get(name).cloned()
    }

    /// True when `name` has state in this environment: an attached store,
    /// or (file backends) store files left by a previous process.
    pub fn store_exists(&self, name: &str) -> bool {
        if self.stores.lock().contains_key(name) {
            return true;
        }
        match &self.backend {
            EnvBackend::Mem => false,
            EnvBackend::File { dir } => Self::file_paths(dir, name).0.exists(),
        }
    }

    /// Remove a store from the environment, freeing its pages and buffer
    /// pool once the last outstanding handle drops (file backends delete
    /// the backing files). Returns `true` if a store with that name
    /// existed.
    ///
    /// Dropping a table or view must call this: a removed name no longer
    /// counts towards [`StorageEnv::total_io`] / disk totals, and
    /// re-creating it yields a **fresh, empty** store instead of resurrecting
    /// the dropped one's pages.
    pub fn remove_store(&self, name: &str) -> bool {
        let attached = self.stores.lock().remove(name).is_some();
        let on_disk = match &self.backend {
            EnvBackend::Mem => false,
            EnvBackend::File { dir } => {
                let (pages, walfile) = Self::file_paths(dir, name);
                let existed = pages.exists() || walfile.exists();
                let _ = std::fs::remove_file(pages);
                let _ = std::fs::remove_file(walfile);
                existed
            }
        };
        attached || on_disk
    }

    /// Remove every store whose name starts with `prefix` (attached or, for
    /// file backends, surviving on disk) — how a dropped text index frees
    /// its per-shard store family. Returns the number of removed stores.
    pub fn remove_prefix(&self, prefix: &str) -> usize {
        let names: Vec<String> = {
            let stores = self.stores.lock();
            stores
                .keys()
                .filter(|n| n.starts_with(prefix))
                .cloned()
                .collect()
        };
        let mut removed = 0;
        for name in &names {
            if self.remove_store(name) {
                removed += 1;
            }
        }
        if let EnvBackend::File { dir } = &self.backend {
            if let Ok(entries) = std::fs::read_dir(dir) {
                for entry in entries.flatten() {
                    let file = entry.file_name();
                    let Some(file) = file.to_str() else { continue };
                    let Some(san) = file.strip_suffix(".pages") else {
                        continue;
                    };
                    let Some(name) = unsanitize_store_name(san) else {
                        continue;
                    };
                    if name.starts_with(prefix) && !names.contains(&name) {
                        self.remove_store(&name);
                        removed += 1;
                    }
                }
            }
        }
        removed
    }

    /// Simulate a whole-process crash: drop every buffer pool and the page
    /// images waiting in each log for their commit. Dirty pages are lost;
    /// the disks and write-ahead logs survive. Pair with
    /// [`StorageEnv::recover_all`] (or reopen the engine, which recovers).
    pub fn crash(&self) {
        for store in self.stores.lock().values() {
            store.crash();
        }
    }

    /// Simulate a whole-process crash under the group-sync durability
    /// model: like [`StorageEnv::crash`], but every log additionally loses
    /// the bytes appended since its last commit-path sync (the tail the OS
    /// page cache had not yet flushed — see
    /// [`Wal::simulate_crash_unsynced_tail`](crate::wal::Wal::simulate_crash_unsynced_tail)).
    /// With a zero sync interval this is identical to `crash`. File-backed
    /// logs lose the tail in their files, so a reopen sees the same cut.
    /// Returns the total log bytes lost.
    ///
    /// # Panics
    ///
    /// If a log file cannot be cut: the injected crash would not happen.
    #[expect(
        clippy::expect_used,
        reason = "failure injection; a log that cannot be cut leaves no crash to test"
    )]
    pub fn crash_unsynced(&self) -> usize {
        let mut lost = 0;
        for store in self.stores.lock().values() {
            if let Some(wal) = store.wal() {
                lost += wal
                    .simulate_crash_unsynced_tail()
                    .expect("cutting the unsynced log tail");
            }
            store.crash();
        }
        lost
    }

    /// Sync every attached store's log to stable storage, closing the
    /// group-sync durability window: after this returns, everything
    /// committed so far survives [`StorageEnv::crash_unsynced`].
    pub fn sync_all_wals(&self) -> Result<()> {
        for store in self.stores.lock().values() {
            if let Some(wal) = store.wal() {
                wal.sync()?;
            }
        }
        Ok(())
    }

    /// Replay every attached store's committed log batches onto its disk —
    /// the recovery half of [`StorageEnv::crash`]. Idempotent.
    pub fn recover_all(&self) -> Result<()> {
        for store in self.stores.lock().values() {
            store.recover()?;
        }
        Ok(())
    }

    /// Checkpoint every attached store: flush dirty pages, sync the page
    /// files (file backends), then truncate the logs — bounding the replay
    /// work of the next open. Each page file is on stable storage before
    /// the log that could redo it is gone.
    pub fn checkpoint_all(&self) -> Result<()> {
        for store in self.stores.lock().values() {
            store.checkpoint_synced()?;
        }
        Ok(())
    }

    /// Set the WAL group-sync interval for **every** store of this
    /// environment — the ones already attached and the ones created later.
    /// `0` (the default) fsyncs the log file on every commit
    /// marker; a positive interval fsyncs at most once per that many
    /// milliseconds, trading a durability window for commit throughput
    /// (see [`Wal::set_sync_interval_ms`]).
    pub fn set_wal_sync_interval_ms(&self, ms: u64) {
        self.wal_sync_interval_ms
            .store(ms, std::sync::atomic::Ordering::Relaxed);
        for store in self.stores.lock().values() {
            if let Some(wal) = store.wal() {
                wal.set_sync_interval_ms(ms);
            }
        }
    }

    /// The environment-wide WAL group-sync interval in milliseconds.
    pub fn wal_sync_interval_ms(&self) -> u64 {
        self.wal_sync_interval_ms
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Set the auto-checkpoint threshold for **every** store of this
    /// environment — the ones already attached and the ones created later:
    /// a store whose log holds more than `bytes` after a seal checkpoints
    /// itself (see [`Store::log_commit`]). Smaller values bound recovery
    /// work and log size at the cost of more page flushing; the default is
    /// 1 MiB and `u64::MAX` turns automatic checkpoints off.
    pub fn set_wal_checkpoint_bytes(&self, bytes: u64) {
        self.wal_checkpoint_bytes
            .store(bytes, std::sync::atomic::Ordering::Relaxed);
        for store in self.stores.lock().values() {
            if let Some(wal) = store.wal() {
                wal.set_checkpoint_bytes(bytes);
            }
        }
    }

    /// The environment-wide auto-checkpoint threshold in log bytes.
    pub fn wal_checkpoint_bytes(&self) -> u64 {
        self.wal_checkpoint_bytes
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Aggregate write-ahead-log statistics across every logged store —
    /// commit-sync counters included (serving-side contention telemetry).
    pub fn total_wal_stats(&self) -> WalStats {
        let stores = self.stores.lock();
        let mut total = WalStats::default();
        for store in stores.values() {
            if let Some(wal) = store.wal() {
                let s = wal.stats();
                total.bytes += s.bytes;
                total.records += s.records;
                total.uncommitted += s.uncommitted;
                total.syncs += s.syncs;
                total.sync_skips += s.sync_skips;
            }
        }
        total
    }

    /// Names of all live stores (unordered; diagnostics).
    pub fn store_names(&self) -> Vec<String> {
        self.stores.lock().keys().cloned().collect()
    }

    /// Aggregate I/O statistics across every store in the environment.
    pub fn total_io(&self) -> IoStats {
        let stores = self.stores.lock();
        let mut total = IoStats::default();
        for store in stores.values() {
            total += store.io_stats();
        }
        total
    }

    /// Total bytes allocated on the underlying "disks".
    pub fn total_disk_bytes(&self) -> u64 {
        let stores = self.stores.lock();
        stores
            .values()
            .map(|s| s.disk().num_pages() * self.page_size as u64)
            .sum()
    }
}

impl Default for StorageEnv {
    fn default() -> Self {
        StorageEnv::new(DEFAULT_PAGE_SIZE)
    }
}

/// Map a store name (which freely uses `/`, `:` …) onto a flat, reversible
/// file-name-safe form: `[A-Za-z0-9._-]` pass through, everything else
/// becomes `%XX`.
pub fn sanitize_store_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for &b in name.as_bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'.' | b'_' | b'-' => out.push(b as char),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Inverse of [`sanitize_store_name`]; `None` for malformed escapes.
pub fn unsanitize_store_name(san: &str) -> Option<String> {
    let bytes = san.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = san.get(i + 1..i + 3)?;
            out.push(u8::from_str_radix(hex, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_creates_and_reuses_stores() {
        let env = StorageEnv::default();
        let a = env.create_store("a", 16);
        let a2 = env.create_store("a", 999);
        assert!(Arc::ptr_eq(&a, &a2), "same name must return the same store");
        assert!(env.store("missing").is_none());
        assert!(env.store("a").is_some());
    }

    #[test]
    fn env_total_io_aggregates() {
        let env = StorageEnv::default();
        let s = env.create_store("x", 4);
        let id = s.allocate().unwrap();
        s.write_page(id, vec![1u8; env.page_size()].into()).unwrap();
        s.flush().unwrap();
        assert!(env.total_io().pages_written >= 1);
        assert!(env.total_disk_bytes() >= env.page_size() as u64);
    }

    #[test]
    #[should_panic(expected = "page size")]
    fn tiny_page_size_rejected() {
        let _ = StorageEnv::new(16);
    }

    #[test]
    fn sanitize_roundtrips() {
        for name in ["table:movies", "idx/m/shard-3/long", "sys/catalog", "a b%c"] {
            let san = sanitize_store_name(name);
            assert!(
                san.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"._-%".contains(&b)),
                "{san}"
            );
            assert_eq!(unsanitize_store_name(&san).as_deref(), Some(name));
        }
        assert_eq!(unsanitize_store_name("bad%zz"), None);
    }

    #[test]
    fn durable_env_survives_crash_and_recovery() {
        let env = StorageEnv::new_durable(512);
        let tree = BTree::create_durable(env.create_store("t", 4)).unwrap();
        for i in 0..50u32 {
            tree.put(&i.to_be_bytes(), &[i as u8]).unwrap();
        }
        env.crash();
        env.recover_all().unwrap();
        let reopened = BTree::reopen(env.store("t").unwrap(), 0).unwrap();
        assert_eq!(reopened.len(), 50);
        assert_eq!(reopened.get(&7u32.to_be_bytes()).unwrap(), Some(vec![7]));
        env.checkpoint_all().unwrap();
        assert_eq!(env.store("t").unwrap().wal().unwrap().stats().bytes, 0);
    }

    #[test]
    fn file_backed_env_reattaches_after_process_restart() {
        let dir = std::env::temp_dir().join(format!("svr-env-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let env = StorageEnv::open_dir(&dir, 512).unwrap();
            let tree = BTree::create_durable(env.create_store("table:x", 4)).unwrap();
            for i in 0..20u32 {
                tree.put(&i.to_be_bytes(), &i.to_le_bytes()).unwrap();
            }
            // No checkpoint, no flush: only the log file survives the end
            // of this "process".
        }
        {
            let env = StorageEnv::open_dir(&dir, 512).unwrap();
            assert!(env.store_exists("table:x"));
            // Attaching recovers from the log file.
            let store = env.create_store("table:x", 4);
            let tree = BTree::reopen(store, 0).unwrap();
            assert_eq!(tree.len(), 20);
            assert_eq!(
                tree.get(&13u32.to_be_bytes()).unwrap(),
                Some(13u32.to_le_bytes().to_vec())
            );
            assert!(env.remove_store("table:x"));
            assert!(!env.store_exists("table:x"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_sync_interval_applies_to_existing_and_new_stores() {
        let env = StorageEnv::new_durable(512);
        let a = env.create_store("a", 4);
        env.set_wal_sync_interval_ms(25);
        let b = env.create_store("b", 4);
        assert_eq!(a.wal().unwrap().sync_interval_ms(), 25);
        assert_eq!(b.wal().unwrap().sync_interval_ms(), 25);
        assert_eq!(env.wal_sync_interval_ms(), 25);
        let tree = BTree::create_durable(a).unwrap();
        tree.put(b"k", b"v").unwrap();
        let stats = env.total_wal_stats();
        assert!(stats.syncs + stats.sync_skips > 0, "commit ran the policy");
    }

    #[test]
    fn wal_checkpoint_bytes_applies_to_existing_and_new_stores() {
        let env = StorageEnv::new_durable(512);
        let a = env.create_store("a", 16);
        assert_eq!(env.wal_checkpoint_bytes(), 1 << 20);
        env.set_wal_checkpoint_bytes(1);
        let b = env.create_store("b", 16);
        for store in [&a, &b] {
            assert_eq!(store.wal().unwrap().checkpoint_bytes(), 1);
            let tree = BTree::create_durable(store.clone()).unwrap();
            tree.put(b"k", b"v").unwrap();
            // Every seal leaves more than one byte: each checkpoints.
            assert_eq!(store.wal().unwrap().stats().bytes, 0);
        }
        env.set_wal_checkpoint_bytes(u64::MAX);
        let tree = BTree::create_durable(a.clone()).unwrap();
        tree.put(b"k", b"v").unwrap();
        assert!(a.wal().unwrap().stats().bytes > 0, "u64::MAX turns it off");
    }

    #[test]
    fn remove_prefix_drops_store_family() {
        let env = StorageEnv::new_durable(512);
        for name in ["idx/a/score", "idx/a/shard-0/long", "idx/b/score"] {
            env.create_store(name, 2);
        }
        assert_eq!(env.remove_prefix("idx/a/"), 2);
        assert!(env.store("idx/a/score").is_none());
        assert!(env.store("idx/b/score").is_some());
    }

    #[test]
    fn remove_store_frees_and_forgets() {
        let env = StorageEnv::default();
        let s = env.create_store("gone", 4);
        let id = s.allocate().unwrap();
        s.write_page(id, vec![7u8; env.page_size()].into()).unwrap();
        s.flush().unwrap();
        drop(s);
        assert!(env.total_disk_bytes() > 0);
        assert!(env.remove_store("gone"));
        assert!(!env.remove_store("gone"), "second removal is a no-op");
        assert!(env.store("gone").is_none());
        assert_eq!(env.total_disk_bytes(), 0, "dropped pages no longer counted");
        // Re-creating the name yields a fresh store, not the old pages.
        let fresh = env.create_store("gone", 4);
        assert_eq!(fresh.disk().num_pages(), 0);
    }
}
