//! Append-only blob storage for immutable long inverted lists.
//!
//! The paper stores long inverted lists "as binary objects in the database
//! since they are never updated; they were read in a page at a time during
//! query processing" (§5.2). A blob is a chain of pages:
//!
//! ```text
//! page: [next: u64][len: u16][payload ...]
//! ```
//!
//! Readers stream the chain page by page, so the buffer-pool miss count of a
//! scan equals the number of pages the list occupies — which is exactly the
//! quantity the paper's query-time comparisons hinge on.

use std::sync::Arc;

use bytes::Bytes;

use crate::codec::read_array;
use crate::error::{Result, StorageError};
use crate::page::{decode_page_link, encode_page_link, PageId};
use crate::pool::Store;

const BLOB_HEADER: usize = 8 + 2;

/// Location and length of one stored blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlobHandle {
    /// First page of the chain. `None` for the empty blob.
    pub first_page: Option<PageId>,
    /// Total payload length in bytes.
    pub len: u64,
    /// Number of pages in the chain.
    pub pages: u64,
}

impl BlobHandle {
    /// Handle for a zero-length blob.
    pub fn empty() -> BlobHandle {
        BlobHandle {
            first_page: None,
            len: 0,
            pages: 0,
        }
    }
}

/// Writes and reads page-chained blobs in a [`Store`].
pub struct BlobStore {
    store: Arc<Store>,
}

impl BlobStore {
    /// Wrap a store.
    pub fn new(store: Arc<Store>) -> BlobStore {
        BlobStore { store }
    }

    /// Underlying store.
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// Usable payload bytes per page.
    pub fn payload_per_page(&self) -> usize {
        self.store.page_size() - BLOB_HEADER
    }

    /// Store `data`, returning a handle for later streaming.
    pub fn put(&self, data: &[u8]) -> Result<BlobHandle> {
        if data.is_empty() {
            return Ok(BlobHandle::empty());
        }
        let chunk_size = self.payload_per_page();
        let chunks: Vec<&[u8]> = data.chunks(chunk_size).collect();
        let page_ids: Vec<PageId> = (0..chunks.len())
            .map(|_| self.store.allocate())
            .collect::<Result<_>>()?;
        for (i, chunk) in chunks.iter().enumerate() {
            let next = page_ids.get(i + 1).copied();
            let mut page = Vec::with_capacity(BLOB_HEADER + chunk.len());
            page.extend_from_slice(&encode_page_link(next).to_le_bytes());
            page.extend_from_slice(&(chunk.len() as u16).to_le_bytes());
            page.extend_from_slice(chunk);
            self.store.write_page(page_ids[i], Bytes::from(page))?;
        }
        self.store.log_commit()?;
        Ok(BlobHandle {
            first_page: Some(page_ids[0]),
            len: data.len() as u64,
            pages: page_ids.len() as u64,
        })
    }

    /// Open a streaming reader over a blob.
    pub fn reader(&self, handle: BlobHandle) -> BlobReader<'_> {
        BlobReader {
            blobs: self,
            next_page: handle.first_page,
            remaining: handle.len,
            buf: Bytes::new(),
            buf_pos: 0,
        }
    }

    /// Open a reader that continues a previously suspended scan from `page`
    /// (`None` resumes at end-of-blob). The caller is responsible for the
    /// page still belonging to the same blob — pair this with a store-level
    /// generation check when blobs can be freed and rebuilt.
    pub fn reader_from(&self, page: Option<PageId>) -> BlobReader<'_> {
        BlobReader {
            blobs: self,
            next_page: page,
            remaining: 0,
            buf: Bytes::new(),
            buf_pos: 0,
        }
    }

    /// Read a whole blob into memory (convenience; tests and rebuilds).
    pub fn read_all(&self, handle: BlobHandle) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(handle.len as usize);
        let mut reader = self.reader(handle);
        while let Some(chunk) = reader.next_chunk()? {
            out.extend_from_slice(&chunk);
        }
        Ok(out)
    }

    /// Free every page of a blob (used when long lists are rebuilt by the
    /// offline merge).
    pub fn free(&self, handle: BlobHandle) -> Result<()> {
        let mut next = handle.first_page;
        while let Some(page_id) = next {
            let page = self.store.read_page(page_id)?;
            if page.len() < BLOB_HEADER {
                return Err(StorageError::Corrupt("short blob page"));
            }
            next = decode_page_link(u64::from_le_bytes(read_array(&page, 0)));
            self.store.free_page(page_id);
        }
        self.store.log_commit()?;
        Ok(())
    }
}

/// Streaming reader over one blob. Pages are fetched lazily through the
/// buffer pool, one at a time.
pub struct BlobReader<'a> {
    blobs: &'a BlobStore,
    next_page: Option<PageId>,
    remaining: u64,
    buf: Bytes,
    buf_pos: usize,
}

impl<'a> BlobReader<'a> {
    /// Page the next [`BlobReader::next_chunk`] call will fetch (`None` at
    /// the end of the chain) — the suspension point of a resumable scan.
    pub fn next_page_id(&self) -> Option<PageId> {
        self.next_page
    }

    /// Fetch the next page's payload, or `None` at the end.
    pub fn next_chunk(&mut self) -> Result<Option<Bytes>> {
        let Some(page_id) = self.next_page else {
            return Ok(None);
        };
        let page = self.blobs.store.read_page(page_id)?;
        if page.len() < BLOB_HEADER {
            return Err(StorageError::Corrupt("short blob page"));
        }
        self.next_page = decode_page_link(u64::from_le_bytes(read_array(&page, 0)));
        let len = u16::from_le_bytes(read_array(&page, 8)) as usize;
        if page.len() < BLOB_HEADER + len {
            return Err(StorageError::Corrupt("blob payload overruns page"));
        }
        let chunk = page.slice(BLOB_HEADER..BLOB_HEADER + len);
        self.remaining = self.remaining.saturating_sub(len as u64);
        Ok(Some(chunk))
    }

    /// Fill `out` with up to `out.len()` bytes; returns bytes read (0 = EOF).
    pub fn read(&mut self, out: &mut [u8]) -> Result<usize> {
        let mut written = 0;
        while written < out.len() {
            if self.buf_pos >= self.buf.len() {
                match self.next_chunk()? {
                    Some(chunk) => {
                        self.buf = chunk;
                        self.buf_pos = 0;
                    }
                    None => break,
                }
            }
            let take = (out.len() - written).min(self.buf.len() - self.buf_pos);
            out[written..written + take]
                .copy_from_slice(&self.buf[self.buf_pos..self.buf_pos + take]);
            self.buf_pos += take;
            written += take;
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn blob_store() -> BlobStore {
        BlobStore::new(Arc::new(Store::new(Arc::new(MemDisk::new(256)), 8)))
    }

    #[test]
    fn empty_blob() {
        let bs = blob_store();
        let h = bs.put(&[]).unwrap();
        assert_eq!(h, BlobHandle::empty());
        assert!(bs.read_all(h).unwrap().is_empty());
    }

    #[test]
    fn single_page_roundtrip() {
        let bs = blob_store();
        let data = b"hello world".to_vec();
        let h = bs.put(&data).unwrap();
        assert_eq!(h.pages, 1);
        assert_eq!(bs.read_all(h).unwrap(), data);
    }

    #[test]
    fn multi_page_roundtrip() {
        let bs = blob_store();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let h = bs.put(&data).unwrap();
        assert!(h.pages > 1);
        assert_eq!(h.len, data.len() as u64);
        assert_eq!(bs.read_all(h).unwrap(), data);
    }

    #[test]
    fn page_count_matches_scan_cost() {
        let bs = blob_store();
        let payload = bs.payload_per_page();
        let data = vec![7u8; payload * 5 + 1];
        let h = bs.put(&data).unwrap();
        assert_eq!(h.pages, 6);
        bs.store().clear_cache().unwrap();
        let before = bs.store().io_stats();
        bs.read_all(h).unwrap();
        assert_eq!(
            bs.store().io_stats().since(&before).pages_read,
            6,
            "a cold scan must read exactly one page per chain link"
        );
    }

    #[test]
    fn partial_reads() {
        let bs = blob_store();
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 256) as u8).collect();
        let h = bs.put(&data).unwrap();
        let mut reader = bs.reader(h);
        let mut out = Vec::new();
        let mut chunk = [0u8; 37];
        loop {
            let n = reader.read(&mut chunk).unwrap();
            if n == 0 {
                break;
            }
            out.extend_from_slice(&chunk[..n]);
        }
        assert_eq!(out, data);
    }

    #[test]
    fn reader_resumes_mid_chain() {
        let bs = blob_store();
        let data: Vec<u8> = (0..2000u32).map(|i| (i % 256) as u8).collect();
        let h = bs.put(&data).unwrap();
        assert!(h.pages > 2);
        // Consume one chunk, suspend, resume from the recorded page.
        let mut reader = bs.reader(h);
        let first = reader.next_chunk().unwrap().unwrap();
        let resume_at = reader.next_page_id();
        let mut rest = Vec::new();
        let mut resumed = bs.reader_from(resume_at);
        while let Some(chunk) = resumed.next_chunk().unwrap() {
            rest.extend_from_slice(&chunk);
        }
        assert_eq!(first.len() + rest.len(), data.len());
        assert_eq!(&data[first.len()..], &rest[..]);
        // Resuming at end-of-chain yields nothing.
        assert!(bs.reader_from(None).next_chunk().unwrap().is_none());
    }

    #[test]
    fn free_recycles_pages() {
        let bs = blob_store();
        let data = vec![1u8; 2000];
        let h = bs.put(&data).unwrap();
        let pages_before = bs.store().disk().num_pages();
        bs.free(h).unwrap();
        let h2 = bs.put(&data).unwrap();
        assert_eq!(
            bs.store().disk().num_pages(),
            pages_before,
            "freed pages must be reused"
        );
        assert_eq!(bs.read_all(h2).unwrap(), data);
    }
}
