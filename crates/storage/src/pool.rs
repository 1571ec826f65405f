//! LRU-ish buffer pool (clock replacement) over a [`DiskBackend`].
//!
//! The pool is the analogue of BerkeleyDB's page cache in the paper's setup
//! (§5.2: "the size of the BerkeleyDB cache was set to 100MB"). It tracks
//! hit/miss counts and supports [`BufferPool::clear_cache`] so experiments
//! can run queries against a cold long-list cache while the Score table and
//! short lists stay resident, exactly as the paper measures.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use crate::disk::{DiskBackend, IoStats};
use crate::error::Result;
use crate::page::PageId;
use crate::sync::{LockClass, OrderedMutex};

/// Cache hit/miss counters for one pool.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
}

struct Frame {
    page_id: PageId,
    data: Bytes,
    dirty: bool,
    referenced: bool,
}

struct PoolInner {
    /// page id -> slot index in `frames`.
    map: HashMap<PageId, usize>,
    frames: Vec<Frame>,
    /// Clock hand for eviction.
    hand: usize,
    capacity: usize,
}

/// A clock-replacement buffer pool.
pub struct BufferPool {
    disk: Arc<dyn DiskBackend>,
    inner: Mutex<PoolInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// No-steal policy: never evict a dirty page to disk. Required by
    /// write-ahead-logged stores, where the disk must not run ahead of the
    /// committed log (see [`crate::wal`]). The pool grows past `capacity`
    /// when every frame is dirty; a checkpoint shrinks it back.
    no_steal: bool,
}

impl BufferPool {
    /// Create a pool caching at most `capacity` pages (minimum 1).
    pub fn new(disk: Arc<dyn DiskBackend>, capacity: usize) -> Self {
        BufferPool::with_policy(disk, capacity, false)
    }

    /// Create a pool with an explicit steal policy (`no_steal = true` for
    /// logged stores).
    pub fn with_policy(disk: Arc<dyn DiskBackend>, capacity: usize, no_steal: bool) -> Self {
        BufferPool {
            disk,
            inner: Mutex::new(PoolInner {
                map: HashMap::new(),
                frames: Vec::new(),
                hand: 0,
                capacity: capacity.max(1),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            no_steal,
        }
    }

    /// Fetch a page, reading through to the disk on a miss.
    pub fn read_page(&self, id: PageId) -> Result<Bytes> {
        let mut inner = self.inner.lock();
        if let Some(&slot) = inner.map.get(&id) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            inner.frames[slot].referenced = true;
            return Ok(inner.frames[slot].data.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let data = self.disk.read(id)?;
        self.install(&mut inner, id, data.clone(), false)?;
        Ok(data)
    }

    /// Write a page into the cache (write-back: flushed on eviction or
    /// [`BufferPool::flush`]).
    pub fn write_page(&self, id: PageId, data: Bytes) -> Result<()> {
        let mut inner = self.inner.lock();
        if let Some(&slot) = inner.map.get(&id) {
            let frame = &mut inner.frames[slot];
            frame.data = data;
            frame.dirty = true;
            frame.referenced = true;
            return Ok(());
        }
        self.install(&mut inner, id, data, true)?;
        Ok(())
    }

    fn install(&self, inner: &mut PoolInner, id: PageId, data: Bytes, dirty: bool) -> Result<()> {
        if inner.frames.len() < inner.capacity {
            let slot = inner.frames.len();
            inner.frames.push(Frame {
                page_id: id,
                data,
                dirty,
                referenced: true,
            });
            inner.map.insert(id, slot);
            return Ok(());
        }
        // Clock eviction: find a frame with referenced == false, clearing
        // reference bits as we sweep. Under no-steal, dirty frames are not
        // eviction candidates; if two full sweeps find none, grow the pool
        // instead (shrunk back at the next flush/checkpoint).
        let mut swept = 0usize;
        let slot = loop {
            if self.no_steal && swept >= 2 * inner.frames.len() {
                let slot = inner.frames.len();
                inner.frames.push(Frame {
                    page_id: id,
                    data,
                    dirty,
                    referenced: true,
                });
                inner.map.insert(id, slot);
                return Ok(());
            }
            swept += 1;
            let hand = inner.hand;
            inner.hand = (inner.hand + 1) % inner.frames.len();
            if inner.frames[hand].referenced {
                inner.frames[hand].referenced = false;
            } else if self.no_steal && inner.frames[hand].dirty {
                // Not a candidate under no-steal.
            } else {
                break hand;
            }
        };
        let victim = &mut inner.frames[slot];
        if victim.dirty {
            self.disk.write(victim.page_id, victim.data.clone())?;
        }
        let old_id = victim.page_id;
        victim.page_id = id;
        victim.data = data;
        victim.dirty = dirty;
        victim.referenced = true;
        inner.map.remove(&old_id);
        inner.map.insert(id, slot);
        Ok(())
    }

    /// Write all dirty pages back to disk, keeping them cached. A pool that
    /// grew past capacity under no-steal shrinks back here.
    pub fn flush(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        for frame in inner.frames.iter_mut() {
            if frame.dirty {
                self.disk.write(frame.page_id, frame.data.clone())?;
                frame.dirty = false;
            }
        }
        if inner.frames.len() > inner.capacity {
            let capacity = inner.capacity;
            inner.frames.truncate(capacity);
            inner.hand = 0;
            let retained: HashMap<PageId, usize> = inner
                .frames
                .iter()
                .enumerate()
                .map(|(slot, f)| (f.page_id, slot))
                .collect();
            inner.map = retained;
        }
        Ok(())
    }

    /// Drop every cached page **without flushing** — the volatile half of a
    /// crash. Dirty pages are lost; only the disk and any write-ahead log
    /// survive. Pair with [`crate::Store::recover`].
    pub fn drop_cache(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.frames.clear();
        inner.hand = 0;
    }

    /// Flush and drop every cached page: the next reads all go to disk.
    ///
    /// This is how experiments reproduce the paper's cold-cache query
    /// protocol for the long inverted lists.
    pub fn clear_cache(&self) -> Result<()> {
        self.flush()?;
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.frames.clear();
        inner.hand = 0;
        Ok(())
    }

    /// Cache hit/miss counters.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of pages currently cached.
    pub fn cached_pages(&self) -> usize {
        self.inner.lock().frames.len()
    }
}

/// A (disk, buffer pool) pair: the unit every storage structure is built on.
/// Stores created with [`Store::new_logged`] additionally hand every page
/// image to a [`Wal`](crate::wal::Wal), which logs it with the commit that
/// seals it, giving the structures on top BerkeleyDB-style crash recovery.
pub struct Store {
    disk: Arc<dyn DiskBackend>,
    pool: BufferPool,
    wal: Option<Arc<crate::wal::Wal>>,
    /// Serializes checkpointers against each other (flush + truncate must
    /// be atomic with respect to other checkpoints). Class
    /// [`LockClass::Checkpoint`]: taken right after a seal, under whatever
    /// table, shard or tree lock the sealing writer holds, and before the
    /// WAL's own state lock.
    checkpoint_lock: OrderedMutex<()>,
}

impl Store {
    /// Create a store over `disk` with a pool of `cache_pages` pages.
    pub fn new(disk: Arc<dyn DiskBackend>, cache_pages: usize) -> Self {
        Store {
            pool: BufferPool::new(disk.clone(), cache_pages),
            disk,
            wal: None,
            checkpoint_lock: OrderedMutex::new(LockClass::Checkpoint, ()),
        }
    }

    /// Create a write-ahead-logged store: page writes are logged before
    /// buffering, the pool runs no-steal, and [`Store::recover`] replays
    /// committed batches after a crash.
    pub fn new_logged(
        disk: Arc<dyn DiskBackend>,
        cache_pages: usize,
        wal: Arc<crate::wal::Wal>,
    ) -> Self {
        Store {
            pool: BufferPool::with_policy(disk.clone(), cache_pages, true),
            disk,
            wal: Some(wal),
            checkpoint_lock: OrderedMutex::new(LockClass::Checkpoint, ()),
        }
    }

    /// The store's write-ahead log, if it has one.
    pub fn wal(&self) -> Option<&Arc<crate::wal::Wal>> {
        self.wal.as_ref()
    }

    /// Allocate a fresh page.
    pub fn allocate(&self) -> Result<PageId> {
        self.disk.allocate()
    }

    /// Return a page to the free list (dropping any cached copy is the
    /// caller's concern; freed pages are never read again before rewrite).
    pub fn free_page(&self, id: PageId) {
        self.disk.free(id);
    }

    /// Read a page through the buffer pool.
    pub fn read_page(&self, id: PageId) -> Result<Bytes> {
        self.pool.read_page(id)
    }

    /// Write a page through the buffer pool. A logged store also hands the
    /// image to its log, which appends it with the commit that seals it.
    pub fn write_page(&self, id: PageId, data: Bytes) -> Result<()> {
        self.pool.write_page(id, data.clone())?;
        if let Some(wal) = &self.wal {
            wal.append_page(id, data);
        }
        Ok(())
    }

    /// Seal the page writes since the previous commit into an atomically
    /// recoverable batch. The storage structures call this at the end of
    /// every completed logical mutation; a no-op for unlogged stores.
    ///
    /// Outside a [`WalBatch`](crate::WalBatch) this is one of the two
    /// places a log seals, and so one of the two places the store
    /// checkpoints itself once its log outgrew the threshold
    /// ([`StorageEnv::set_wal_checkpoint_bytes`](crate::StorageEnv::set_wal_checkpoint_bytes);
    /// the other is [`WalBatch::finish`](crate::WalBatch::finish)). Inside a
    /// bracket the commit is held back and nothing is checkpointed.
    ///
    /// **Caller invariant:** a seal runs with the store's other writers
    /// shut out — a table's writes run under its table lock, an index
    /// shard's under the shard write lock, a standalone B-tree's under the
    /// tree's state lock, and a build on one thread — so the checkpoint
    /// cannot flush or truncate another writer's unsealed pages. A
    /// checkpoint error is returned; the sealed write stays committed,
    /// because its log still replays on the older baseline.
    pub fn log_commit(&self) -> Result<()> {
        if let Some(wal) = &self.wal {
            wal.commit()?;
        }
        self.checkpoint_if_over()
    }

    /// Flush dirty pages and truncate the log: the disk image becomes the
    /// recovery baseline. The page file is not synced in between, which
    /// holds up against a process crash (the OS keeps the written pages)
    /// but not against power loss; [`Store::checkpoint_synced`] does.
    pub fn checkpoint(&self) -> Result<()> {
        self.checkpoint_with(false)
    }

    /// [`Store::checkpoint`] that syncs the page file after the flush and
    /// before the truncate, so the flushed pages are on stable storage
    /// before the log records that could redo them are gone.
    pub fn checkpoint_synced(&self) -> Result<()> {
        self.checkpoint_with(true)
    }

    fn checkpoint_with(&self, sync_pages: bool) -> Result<()> {
        let _checkpoint_guard = self.checkpoint_lock.lock();
        self.pool.flush()?;
        if sync_pages {
            self.disk.sync()?;
        }
        if let Some(wal) = &self.wal {
            wal.truncate()?;
        }
        Ok(())
    }

    /// Checkpoint when no bracket is open and the log outgrew its
    /// threshold — the auto-checkpoint rule, run right after a seal. The
    /// caller holds the seal's writer exclusion (see [`Store::log_commit`]).
    pub(crate) fn checkpoint_if_over(&self) -> Result<()> {
        match &self.wal {
            Some(wal) if !wal.in_batch() && wal.stats().bytes > wal.checkpoint_bytes() => {
                self.checkpoint()
            }
            _ => Ok(()),
        }
    }

    /// Simulate a crash: every page that was only in the buffer pool is
    /// lost, and so are the disk's in-memory free list and the page images
    /// waiting in the log for their commit; the disk's pages and the log
    /// survive.
    pub fn crash(&self) {
        self.pool.drop_cache();
        self.disk.forget_free_pages();
        if let Some(wal) = &self.wal {
            wal.forget_pending();
        }
    }

    /// Replay the committed log batches onto the disk, restoring the state
    /// as of the last committed mutation. Idempotent; truncates the log on
    /// success (the replayed disk image is the new baseline).
    pub fn recover(&self) -> Result<()> {
        self.pool.drop_cache();
        if let Some(wal) = &self.wal {
            for (page_id, data) in wal.committed_pages()? {
                self.disk.write(page_id, data)?;
            }
            wal.truncate()?;
        }
        Ok(())
    }

    /// Flush dirty pages.
    pub fn flush(&self) -> Result<()> {
        self.pool.flush()
    }

    /// Flush and empty the cache (cold-cache simulation).
    pub fn clear_cache(&self) -> Result<()> {
        self.pool.clear_cache()
    }

    /// Underlying disk.
    pub fn disk(&self) -> &Arc<dyn DiskBackend> {
        &self.disk
    }

    /// Disk-level I/O counters.
    pub fn io_stats(&self) -> IoStats {
        self.disk.stats()
    }

    /// Pool-level hit/miss counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.pool.cache_stats()
    }

    /// Page size of the underlying disk.
    pub fn page_size(&self) -> usize {
        self.disk.page_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn store(cache_pages: usize) -> Store {
        Store::new(Arc::new(MemDisk::new(256)), cache_pages)
    }

    #[test]
    fn read_after_write_hits_cache() {
        let s = store(4);
        let id = s.allocate().unwrap();
        s.write_page(id, Bytes::from(vec![9u8; 256])).unwrap();
        let before = s.io_stats();
        let page = s.read_page(id).unwrap();
        assert_eq!(page[0], 9);
        // No disk read: the page was cached.
        assert_eq!(s.io_stats().since(&before).pages_read, 0);
        assert_eq!(s.cache_stats().hits, 1);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let s = store(2);
        let ids: Vec<_> = (0..4).map(|_| s.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            s.write_page(id, Bytes::from(vec![i as u8; 256])).unwrap();
        }
        // Pool holds 2 pages; the first two must have been evicted + written.
        assert!(s.io_stats().pages_written >= 2);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(s.read_page(id).unwrap()[0], i as u8);
        }
    }

    #[test]
    fn clear_cache_forces_disk_reads() {
        let s = store(8);
        let id = s.allocate().unwrap();
        s.write_page(id, Bytes::from(vec![5u8; 256])).unwrap();
        s.clear_cache().unwrap();
        assert_eq!(s.pool.cached_pages(), 0);
        let before = s.io_stats();
        assert_eq!(s.read_page(id).unwrap()[0], 5);
        assert_eq!(s.io_stats().since(&before).pages_read, 1);
    }

    #[test]
    fn flush_persists_without_evicting() {
        let s = store(8);
        let id = s.allocate().unwrap();
        s.write_page(id, Bytes::from(vec![3u8; 256])).unwrap();
        s.flush().unwrap();
        // Bypass the pool to check the disk copy.
        assert_eq!(s.disk().read(id).unwrap()[0], 3);
        assert_eq!(s.pool.cached_pages(), 1);
    }

    #[test]
    fn many_pages_cycle_through_small_pool() {
        let s = store(3);
        let ids: Vec<_> = (0..64).map(|_| s.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            s.write_page(id, Bytes::from(vec![(i % 251) as u8; 256]))
                .unwrap();
        }
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(s.read_page(id).unwrap()[0], (i % 251) as u8, "page {id}");
        }
        assert!(s.pool.cached_pages() <= 3);
    }

    /// A disk that records, at each sync, how many bytes the store's log
    /// still held to redo its pages.
    struct SyncProbe {
        disk: MemDisk,
        wal: Arc<crate::wal::Wal>,
        log_at_sync: Mutex<Vec<u64>>,
    }

    impl DiskBackend for SyncProbe {
        fn read(&self, id: PageId) -> Result<Bytes> {
            self.disk.read(id)
        }
        fn write(&self, id: PageId, data: Bytes) -> Result<()> {
            self.disk.write(id, data)
        }
        fn allocate(&self) -> Result<PageId> {
            self.disk.allocate()
        }
        fn free(&self, id: PageId) {
            self.disk.free(id)
        }
        fn forget_free_pages(&self) {
            self.disk.forget_free_pages()
        }
        fn num_pages(&self) -> u64 {
            self.disk.num_pages()
        }
        fn page_size(&self) -> usize {
            self.disk.page_size()
        }
        fn stats(&self) -> IoStats {
            self.disk.stats()
        }
        fn sync(&self) -> Result<()> {
            self.log_at_sync.lock().push(self.wal.stats().bytes);
            Ok(())
        }
    }

    #[test]
    fn a_synced_checkpoint_syncs_the_pages_before_it_truncates_the_log() {
        let wal = Arc::new(crate::wal::Wal::new());
        let probe = Arc::new(SyncProbe {
            disk: MemDisk::new(256),
            wal: wal.clone(),
            log_at_sync: Mutex::new(Vec::new()),
        });
        let s = Store::new_logged(probe.clone(), 4, wal.clone());
        let id = s.allocate().unwrap();
        s.write_page(id, Bytes::from(vec![1u8; 256])).unwrap();
        s.log_commit().unwrap();
        s.checkpoint_synced().unwrap();
        let log_at_sync = probe.log_at_sync.lock().clone();
        assert_eq!(log_at_sync.len(), 1, "one page-file sync");
        assert!(
            log_at_sync[0] > 0,
            "the page file synced while the log could still redo it"
        );
        assert_eq!(wal.stats().bytes, 0, "then the log was truncated");
        assert_eq!(s.disk().read(id).unwrap()[0], 1);
    }
}
