//! The simulated disk: an in-memory page array with exact I/O accounting.
//!
//! The SVR paper's performance story is entirely about *how many pages* each
//! index method touches (long-list scans vs. short-list probes vs. B+-tree
//! writes). Counting page transfers at this layer lets the benchmark harness
//! convert an in-memory run into a modeled cold-cache time that preserves the
//! paper's comparisons.

use std::ops::AddAssign;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use parking_lot::RwLock;

use crate::error::{Result, StorageError};
use crate::page::PageId;

/// Snapshot of disk-level I/O counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoStats {
    /// Pages transferred from "disk" into the buffer pool.
    pub pages_read: u64,
    /// Pages written back from the buffer pool to "disk".
    pub pages_written: u64,
    /// Pages currently allocated.
    pub pages_allocated: u64,
}

impl IoStats {
    /// Difference since an earlier snapshot (counters are monotonic except
    /// `pages_allocated`, which is a gauge and copied from `self`).
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            pages_read: self.pages_read.saturating_sub(earlier.pages_read),
            pages_written: self.pages_written.saturating_sub(earlier.pages_written),
            pages_allocated: self.pages_allocated,
        }
    }
}

impl AddAssign for IoStats {
    fn add_assign(&mut self, rhs: IoStats) {
        self.pages_read += rhs.pages_read;
        self.pages_written += rhs.pages_written;
        self.pages_allocated += rhs.pages_allocated;
    }
}

/// A page-granular storage device.
pub trait DiskBackend: Send + Sync {
    /// Read one page. Counts as one page read.
    fn read(&self, id: PageId) -> Result<Bytes>;
    /// Write one page. Counts as one page write.
    fn write(&self, id: PageId, data: Bytes) -> Result<()>;
    /// Allocate a page and return its id. A fresh page reads as zeroes; a
    /// reused one (popped off the free list) keeps its old bytes until it
    /// is rewritten, like a file. A device that cannot grow fails without
    /// allocating.
    fn allocate(&self) -> Result<PageId>;
    /// Return a page to the free list. Its bytes stay on disk: a logged
    /// batch that frees a page and never seals must recover to a state
    /// that still reads it.
    fn free(&self, id: PageId);
    /// Forget the free list, as a crash does: the list lives only in
    /// memory, so a restarted process starts without it (its pages stay
    /// allocated). A crash simulated in-process must forget it too, or a
    /// page freed by a batch that recovery rolled back would be handed out
    /// while the recovered state still uses it.
    fn forget_free_pages(&self);
    /// Number of pages ever allocated (including freed ones).
    fn num_pages(&self) -> u64;
    /// Page size in bytes.
    fn page_size(&self) -> usize;
    /// Current I/O counters.
    fn stats(&self) -> IoStats;
    /// Flush to stable storage (no-op for memory-backed disks).
    fn sync(&self) -> Result<()> {
        Ok(())
    }
}

/// In-memory [`DiskBackend`].
pub struct MemDisk {
    page_size: usize,
    pages: RwLock<MemDiskState>,
    reads: AtomicU64,
    writes: AtomicU64,
}

struct MemDiskState {
    pages: Vec<Option<Bytes>>,
    free_list: Vec<PageId>,
}

impl MemDisk {
    /// Create an empty disk with the given page size.
    pub fn new(page_size: usize) -> Self {
        MemDisk {
            page_size,
            pages: RwLock::new(MemDiskState {
                pages: Vec::new(),
                free_list: Vec::new(),
            }),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        }
    }
}

impl DiskBackend for MemDisk {
    fn read(&self, id: PageId) -> Result<Bytes> {
        let state = self.pages.read();
        let slot = state
            .pages
            .get(id as usize)
            .ok_or(StorageError::PageOutOfBounds(id))?;
        self.reads.fetch_add(1, Ordering::Relaxed);
        match slot {
            Some(data) => Ok(data.clone()),
            // Allocated but never written: behave like a zeroed page.
            None => Ok(Bytes::from(vec![0u8; self.page_size])),
        }
    }

    fn write(&self, id: PageId, data: Bytes) -> Result<()> {
        debug_assert!(data.len() <= self.page_size, "page overflow on write");
        let mut state = self.pages.write();
        let len = state.pages.len();
        let slot = state
            .pages
            .get_mut(id as usize)
            .ok_or(StorageError::PageOutOfBounds(len as PageId))?;
        *slot = Some(data);
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn allocate(&self) -> Result<PageId> {
        let mut state = self.pages.write();
        if let Some(id) = state.free_list.pop() {
            return Ok(id);
        }
        let id = state.pages.len() as PageId;
        state.pages.push(None);
        Ok(id)
    }

    fn free(&self, id: PageId) {
        let mut state = self.pages.write();
        if (id as usize) < state.pages.len() {
            state.free_list.push(id);
        }
    }

    fn forget_free_pages(&self) {
        self.pages.write().free_list.clear();
    }

    fn num_pages(&self) -> u64 {
        self.pages.read().pages.len() as u64
    }

    fn page_size(&self) -> usize {
        self.page_size
    }

    fn stats(&self) -> IoStats {
        IoStats {
            pages_read: self.reads.load(Ordering::Relaxed),
            pages_written: self.writes.load(Ordering::Relaxed),
            pages_allocated: self.num_pages(),
        }
    }
}

/// File-backed [`DiskBackend`]: pages live at `page_id * page_size` offsets
/// in one file.
///
/// This is the "real I/O" counterpart of [`MemDisk`] — experiments that
/// want actual disk behaviour (page cache effects aside) can build every
/// structure on it unchanged. Allocation metadata (page count, free list)
/// is kept in memory and rebuilt from the file length on open; the free
/// list itself is not persisted, which wastes at most the pages freed in
/// the final session — the same policy early BerkeleyDB used between
/// compactions.
pub struct FileDisk {
    file: std::fs::File,
    page_size: usize,
    state: RwLock<FileDiskState>,
    reads: AtomicU64,
    writes: AtomicU64,
}

struct FileDiskState {
    num_pages: u64,
    free_list: Vec<PageId>,
}

impl FileDisk {
    /// Create (truncating) a disk file at `path`.
    pub fn create(path: &std::path::Path, page_size: usize) -> Result<FileDisk> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| StorageError::Io(e.to_string()))?;
        Ok(FileDisk {
            file,
            page_size,
            state: RwLock::new(FileDiskState {
                num_pages: 0,
                free_list: Vec::new(),
            }),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        })
    }

    /// Open an existing disk file; the page count is derived from its
    /// length.
    pub fn open(path: &std::path::Path, page_size: usize) -> Result<FileDisk> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| StorageError::Io(e.to_string()))?;
        let len = file
            .metadata()
            .map_err(|e| StorageError::Io(e.to_string()))?
            .len();
        Ok(FileDisk {
            file,
            page_size,
            state: RwLock::new(FileDiskState {
                num_pages: len / page_size as u64,
                free_list: Vec::new(),
            }),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        })
    }

    /// Flush file contents to stable storage.
    pub fn sync(&self) -> Result<()> {
        self.file
            .sync_data()
            .map_err(|e| StorageError::Io(e.to_string()))
    }
}

impl DiskBackend for FileDisk {
    fn read(&self, id: PageId) -> Result<Bytes> {
        use std::os::unix::fs::FileExt;
        if id >= self.state.read().num_pages {
            return Err(StorageError::PageOutOfBounds(id));
        }
        let mut buf = vec![0u8; self.page_size];
        let offset = id * self.page_size as u64;
        // Short reads past EOF (allocated but never written) stay zeroed.
        let mut read_total = 0usize;
        while read_total < buf.len() {
            match self
                .file
                .read_at(&mut buf[read_total..], offset + read_total as u64)
            {
                Ok(0) => break,
                Ok(n) => read_total += n,
                Err(e) => return Err(StorageError::Io(e.to_string())),
            }
        }
        self.reads.fetch_add(1, Ordering::Relaxed);
        Ok(Bytes::from(buf))
    }

    fn write(&self, id: PageId, data: Bytes) -> Result<()> {
        use std::os::unix::fs::FileExt;
        debug_assert!(data.len() <= self.page_size, "page overflow on write");
        if id >= self.state.read().num_pages {
            return Err(StorageError::PageOutOfBounds(id));
        }
        self.file
            .write_all_at(&data, id * self.page_size as u64)
            .map_err(|e| StorageError::Io(e.to_string()))?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn allocate(&self) -> Result<PageId> {
        let mut state = self.state.write();
        if let Some(id) = state.free_list.pop() {
            return Ok(id);
        }
        let id = state.num_pages;
        // Extend the file so reads of the fresh page are in bounds; the
        // page exists only once the file does.
        self.file
            .set_len((id + 1) * self.page_size as u64)
            .map_err(|e| StorageError::Io(e.to_string()))?;
        state.num_pages = id + 1;
        Ok(id)
    }

    fn free(&self, id: PageId) {
        let mut state = self.state.write();
        if id < state.num_pages {
            state.free_list.push(id);
        }
    }

    fn forget_free_pages(&self) {
        self.state.write().free_list.clear();
    }

    fn num_pages(&self) -> u64 {
        self.state.read().num_pages
    }

    fn page_size(&self) -> usize {
        self.page_size
    }

    fn stats(&self) -> IoStats {
        IoStats {
            pages_read: self.reads.load(Ordering::Relaxed),
            pages_written: self.writes.load(Ordering::Relaxed),
            pages_allocated: self.num_pages(),
        }
    }

    fn sync(&self) -> Result<()> {
        FileDisk::sync(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_read_write_roundtrip() {
        let disk = MemDisk::new(512);
        let id = disk.allocate().unwrap();
        assert_eq!(id, 0);
        // Unwritten pages read as zeroes.
        assert!(disk.read(id).unwrap().iter().all(|&b| b == 0));
        disk.write(id, Bytes::from(vec![7u8; 512])).unwrap();
        assert_eq!(disk.read(id).unwrap()[0], 7);
        let stats = disk.stats();
        assert_eq!(stats.pages_read, 2);
        assert_eq!(stats.pages_written, 1);
        assert_eq!(stats.pages_allocated, 1);
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        let disk = MemDisk::new(512);
        assert_eq!(disk.read(3), Err(StorageError::PageOutOfBounds(3)));
        assert!(disk.write(3, Bytes::new()).is_err());
    }

    #[test]
    fn freed_pages_are_reused() {
        let disk = MemDisk::new(512);
        let a = disk.allocate().unwrap();
        let b = disk.allocate().unwrap();
        disk.free(a);
        let c = disk.allocate().unwrap();
        assert_eq!(c, a);
        assert_ne!(b, c);
        assert_eq!(disk.num_pages(), 2);
    }

    #[test]
    fn stats_since_subtracts() {
        let disk = MemDisk::new(512);
        let id = disk.allocate().unwrap();
        disk.write(id, Bytes::from(vec![0u8; 512])).unwrap();
        let before = disk.stats();
        disk.read(id).unwrap();
        let delta = disk.stats().since(&before);
        assert_eq!(delta.pages_read, 1);
        assert_eq!(delta.pages_written, 0);
    }
}
