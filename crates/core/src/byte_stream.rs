//! Buffered byte stream over a page-chained blob.
//!
//! Long inverted lists are "read in a page at a time during query
//! processing" (§5.2). This wrapper turns a [`BlobReader`] into a byte
//! stream with varint / fixed-width primitives, pulling pages lazily so a
//! query that terminates early never touches the rest of the list.

use bytes::Bytes;
use svr_storage::{BlobReader, BlobStore, PageId, StorageError};

use crate::error::{CoreError, Result};

/// A suspension point inside a page-chained blob: the page holding the next
/// unread byte plus the byte's offset within that page's payload. `page ==
/// None` means the stream is exhausted. Captured with
/// [`ByteStream::position`], reopened with [`ByteStream::resume`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamPos {
    pub page: Option<PageId>,
    pub offset: usize,
}

/// Lazily-buffered reader over a blob.
pub struct ByteStream<'a> {
    reader: BlobReader<'a>,
    buf: Bytes,
    pos: usize,
    /// Page that produced `buf` (None before the first refill).
    buf_page: Option<PageId>,
}

impl<'a> ByteStream<'a> {
    /// Wrap a blob reader.
    pub fn new(reader: BlobReader<'a>) -> ByteStream<'a> {
        ByteStream {
            reader,
            buf: Bytes::new(),
            pos: 0,
            buf_page: None,
        }
    }

    /// Continue a suspended stream: start at `pos.page`, skipping
    /// `pos.offset` payload bytes of it. The caller must guarantee the page
    /// still belongs to the same blob: long-list positions are resumed only
    /// within the `LongListStore` epoch they were captured in, and the
    /// index restarts a cursor whose epoch moved instead.
    pub fn resume(blobs: &'a BlobStore, pos: StreamPos) -> Result<ByteStream<'a>> {
        let mut stream = ByteStream::new(blobs.reader_from(pos.page));
        if pos.offset > 0 {
            if !stream.refill()? || pos.offset > stream.buf.len() {
                return Err(CoreError::Storage(StorageError::Corrupt(
                    "stale stream resume offset",
                )));
            }
            stream.pos = pos.offset;
        }
        Ok(stream)
    }

    /// The stream's current suspension point: where the next unread byte
    /// lives. When the current page is fully consumed this is the head of
    /// the next page (offset 0).
    pub fn position(&self) -> StreamPos {
        if self.pos < self.buf.len() {
            StreamPos {
                page: self.buf_page,
                offset: self.pos,
            }
        } else {
            StreamPos {
                page: self.reader.next_page_id(),
                offset: 0,
            }
        }
    }

    /// Ensure at least one unread byte is buffered; false at end of blob.
    fn refill(&mut self) -> Result<bool> {
        while self.pos >= self.buf.len() {
            let page = self.reader.next_page_id();
            match self.reader.next_chunk()? {
                Some(chunk) => {
                    self.buf = chunk;
                    self.pos = 0;
                    self.buf_page = page;
                }
                None => return Ok(false),
            }
        }
        Ok(true)
    }

    /// True when the stream is exhausted.
    pub fn is_eof(&mut self) -> Result<bool> {
        Ok(!self.refill()?)
    }

    /// Next byte; errors at EOF.
    pub fn read_u8(&mut self) -> Result<u8> {
        if !self.refill()? {
            return Err(CoreError::Storage(StorageError::Corrupt(
                "unexpected end of list",
            )));
        }
        let b = self.buf[self.pos];
        self.pos += 1;
        Ok(b)
    }

    /// Fill `out` exactly; errors if the stream ends first.
    pub fn read_exact(&mut self, out: &mut [u8]) -> Result<()> {
        let mut written = 0;
        while written < out.len() {
            if !self.refill()? {
                return Err(CoreError::Storage(StorageError::Corrupt(
                    "unexpected end of list",
                )));
            }
            let take = (out.len() - written).min(self.buf.len() - self.pos);
            out[written..written + take].copy_from_slice(&self.buf[self.pos..self.pos + take]);
            self.pos += take;
            written += take;
        }
        Ok(())
    }

    /// Skip exactly `n` bytes; errors if the stream ends first. Skipped
    /// pages still have to be walked (blob pages are chained), but their
    /// payload is never copied or decoded — this is what block-level
    /// skipping buys.
    pub fn skip(&mut self, mut n: usize) -> Result<()> {
        while n > 0 {
            if !self.refill()? {
                return Err(CoreError::Storage(StorageError::Corrupt(
                    "unexpected end of list",
                )));
            }
            let take = n.min(self.buf.len() - self.pos);
            self.pos += take;
            n -= take;
        }
        Ok(())
    }

    /// Read exactly `n` bytes into `out`, reusing its capacity. Block
    /// cursors call this with one long-lived buffer per cursor so decoding
    /// never allocates per block.
    pub fn read_into(&mut self, n: usize, out: &mut Vec<u8>) -> Result<()> {
        out.clear();
        out.resize(n, 0);
        self.read_exact(&mut out[..])
    }

    /// LEB128 varint, possibly spanning page boundaries.
    pub fn read_varint(&mut self) -> Result<u64> {
        // Fast path: the whole varint sits in the buffered page — decode it
        // straight off the slice instead of byte-at-a-time refill checks.
        if self.pos < self.buf.len() {
            let mut p = self.pos;
            if let Some(v) = svr_storage::codec::read_varint(&self.buf, &mut p) {
                self.pos = p;
                return Ok(v);
            }
        }
        let mut result = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.read_u8()?;
            result |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(result);
            }
            shift += 7;
            if shift >= 64 {
                return Err(CoreError::Storage(StorageError::Corrupt("varint overflow")));
            }
        }
    }

    /// Little-endian u16.
    pub fn read_u16_le(&mut self) -> Result<u16> {
        let mut b = [0u8; 2];
        self.read_exact(&mut b)?;
        Ok(u16::from_le_bytes(b))
    }

    /// Little-endian u32.
    pub fn read_u32_le(&mut self) -> Result<u32> {
        let mut b = [0u8; 4];
        self.read_exact(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Little-endian f64.
    pub fn read_f64_le(&mut self) -> Result<f64> {
        let mut b = [0u8; 8];
        self.read_exact(&mut b)?;
        Ok(f64::from_le_bytes(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use svr_storage::codec::write_varint;
    use svr_storage::{BlobStore, MemDisk, Store};

    fn blob_store() -> BlobStore {
        // Tiny pages so multi-page boundaries are exercised constantly.
        BlobStore::new(Arc::new(Store::new(Arc::new(MemDisk::new(64)), 8)))
    }

    #[test]
    fn varints_across_page_boundaries() {
        let bs = blob_store();
        let values: Vec<u64> = (0..500).map(|i| i * 37 + (i << 9)).collect();
        let mut data = Vec::new();
        for &v in &values {
            write_varint(&mut data, v);
        }
        let handle = bs.put(&data).unwrap();
        assert!(handle.pages > 5, "must span many pages");
        let mut stream = ByteStream::new(bs.reader(handle));
        for &v in &values {
            assert_eq!(stream.read_varint().unwrap(), v);
        }
        assert!(stream.is_eof().unwrap());
    }

    #[test]
    fn fixed_width_reads_across_boundaries() {
        let bs = blob_store();
        let mut data = Vec::new();
        for i in 0..100u32 {
            data.extend_from_slice(&(i as f64 * 1.5).to_le_bytes());
            data.extend_from_slice(&i.to_le_bytes());
            data.extend_from_slice(&(i as u16).to_le_bytes());
        }
        let handle = bs.put(&data).unwrap();
        let mut stream = ByteStream::new(bs.reader(handle));
        for i in 0..100u32 {
            assert_eq!(stream.read_f64_le().unwrap(), i as f64 * 1.5);
            assert_eq!(stream.read_u32_le().unwrap(), i);
            assert_eq!(stream.read_u16_le().unwrap(), i as u16);
        }
        assert!(stream.is_eof().unwrap());
    }

    #[test]
    fn position_roundtrip_resumes_exactly() {
        let bs = blob_store();
        let values: Vec<u64> = (0..400).map(|i| i * 91 + 7).collect();
        let mut data = Vec::new();
        for &v in &values {
            write_varint(&mut data, v);
        }
        let handle = bs.put(&data).unwrap();
        // Suspend after every read and resume from the captured position.
        let mut pos = ByteStream::new(bs.reader(handle)).position();
        for &v in &values {
            let mut stream = ByteStream::resume(&bs, pos).unwrap();
            assert_eq!(stream.read_varint().unwrap(), v);
            pos = stream.position();
        }
        let mut stream = ByteStream::resume(&bs, pos).unwrap();
        assert!(stream.is_eof().unwrap());
        assert_eq!(stream.position().page, None);
    }

    #[test]
    fn eof_is_an_error_for_reads() {
        let bs = blob_store();
        let handle = bs.put(&[0x80]).unwrap(); // truncated varint
        let mut stream = ByteStream::new(bs.reader(handle));
        assert!(stream.read_varint().is_err());
        let empty = bs.put(&[]).unwrap();
        let mut stream = ByteStream::new(bs.reader(empty));
        assert!(stream.is_eof().unwrap());
        assert!(stream.read_u8().is_err());
    }
}
