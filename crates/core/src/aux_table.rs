//! The ListScore / ListChunk tables.
//!
//! "A ListScore table contains an entry for each document whose score has
//! been updated. Each entry contains the ID of the document, its score in
//! the (short or long) inverted list, and an inShortList field" (§4.3.1).
//! The Chunk method's ListChunk table is the same structure with a chunk id
//! in place of the score (§4.3.2).

use std::sync::Arc;

use svr_storage::{BTree, Store};

use crate::error::{CoreError, Result};
use crate::types::{ChunkId, DocId, Score};

/// A ListScore row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ListScoreEntry {
    /// The document's score as recorded in the (short or long) inverted
    /// list — *not* necessarily its current score.
    pub l_score: Score,
    /// True when the document's postings live in the short lists.
    pub in_short_list: bool,
}

/// B+-tree-backed ListScore table (Score-Threshold method).
pub struct ListScoreTable {
    tree: BTree,
}

impl ListScoreTable {
    pub fn create(store: Arc<Store>) -> Result<ListScoreTable> {
        ListScoreTable::create_in(store, false)
    }

    /// Create, durable (reopenable) when requested.
    pub fn create_in(store: Arc<Store>, durable: bool) -> Result<ListScoreTable> {
        Ok(ListScoreTable {
            tree: crate::durable::create_tree(store, durable)?,
        })
    }

    /// Reattach a durable table.
    pub fn open(store: Arc<Store>) -> Result<ListScoreTable> {
        Ok(ListScoreTable {
            tree: crate::durable::open_tree(store)?,
        })
    }

    pub fn get(&self, doc: DocId) -> Result<Option<ListScoreEntry>> {
        match self.tree.get(&doc.0.to_be_bytes())? {
            Some(raw) => {
                let l_score = f64::from_le_bytes(raw[..8].try_into().map_err(|_| {
                    CoreError::Storage(svr_storage::StorageError::Corrupt("listscore row"))
                })?);
                Ok(Some(ListScoreEntry {
                    l_score,
                    in_short_list: raw.get(8) == Some(&1),
                }))
            }
            None => Ok(None),
        }
    }

    pub fn put(&self, doc: DocId, entry: ListScoreEntry) -> Result<()> {
        let mut v = [0u8; 9];
        v[..8].copy_from_slice(&entry.l_score.to_le_bytes());
        v[8] = entry.in_short_list as u8;
        self.tree.put(&doc.0.to_be_bytes(), &v)?;
        Ok(())
    }

    pub fn delete(&self, doc: DocId) -> Result<()> {
        self.tree.delete(&doc.0.to_be_bytes())?;
        Ok(())
    }

    pub fn len(&self) -> u64 {
        self.tree.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Remove every row (after an offline merge).
    pub fn clear(&self) -> Result<()> {
        Ok(self.tree.clear()?)
    }
}

/// A ListChunk row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListChunkEntry {
    /// Chunk where the document's postings currently live.
    pub l_chunk: ChunkId,
    pub in_short_list: bool,
}

/// B+-tree-backed ListChunk table (Chunk methods).
pub struct ListChunkTable {
    tree: BTree,
}

impl ListChunkTable {
    pub fn create(store: Arc<Store>) -> Result<ListChunkTable> {
        ListChunkTable::create_in(store, false)
    }

    /// Create, durable (reopenable) when requested.
    pub fn create_in(store: Arc<Store>, durable: bool) -> Result<ListChunkTable> {
        Ok(ListChunkTable {
            tree: crate::durable::create_tree(store, durable)?,
        })
    }

    /// Reattach a durable table.
    pub fn open(store: Arc<Store>) -> Result<ListChunkTable> {
        Ok(ListChunkTable {
            tree: crate::durable::open_tree(store)?,
        })
    }

    pub fn get(&self, doc: DocId) -> Result<Option<ListChunkEntry>> {
        match self.tree.get(&doc.0.to_be_bytes())? {
            Some(raw) => {
                let l_chunk = u32::from_le_bytes(raw[..4].try_into().map_err(|_| {
                    CoreError::Storage(svr_storage::StorageError::Corrupt("listchunk row"))
                })?);
                Ok(Some(ListChunkEntry {
                    l_chunk,
                    in_short_list: raw.get(4) == Some(&1),
                }))
            }
            None => Ok(None),
        }
    }

    pub fn put(&self, doc: DocId, entry: ListChunkEntry) -> Result<()> {
        let mut v = [0u8; 5];
        v[..4].copy_from_slice(&entry.l_chunk.to_le_bytes());
        v[4] = entry.in_short_list as u8;
        self.tree.put(&doc.0.to_be_bytes(), &v)?;
        Ok(())
    }

    pub fn delete(&self, doc: DocId) -> Result<()> {
        self.tree.delete(&doc.0.to_be_bytes())?;
        Ok(())
    }

    pub fn len(&self) -> u64 {
        self.tree.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Remove every row (after an offline merge).
    pub fn clear(&self) -> Result<()> {
        Ok(self.tree.clear()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svr_storage::MemDisk;

    fn store() -> Arc<Store> {
        Arc::new(Store::new(Arc::new(MemDisk::new(4096)), 64))
    }

    #[test]
    fn list_score_roundtrip() {
        let t = ListScoreTable::create(store()).unwrap();
        assert_eq!(t.get(DocId(15)).unwrap(), None);
        t.put(
            DocId(15),
            ListScoreEntry {
                l_score: 87.13,
                in_short_list: false,
            },
        )
        .unwrap();
        assert_eq!(
            t.get(DocId(15)).unwrap(),
            Some(ListScoreEntry {
                l_score: 87.13,
                in_short_list: false
            })
        );
        t.put(
            DocId(15),
            ListScoreEntry {
                l_score: 124.2,
                in_short_list: true,
            },
        )
        .unwrap();
        let e = t.get(DocId(15)).unwrap().unwrap();
        assert_eq!(e.l_score, 124.2);
        assert!(e.in_short_list);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn list_chunk_roundtrip_and_clear() {
        let t = ListChunkTable::create(store()).unwrap();
        for d in 0..50u32 {
            t.put(
                DocId(d),
                ListChunkEntry {
                    l_chunk: d % 7,
                    in_short_list: d % 2 == 0,
                },
            )
            .unwrap();
        }
        assert_eq!(
            t.get(DocId(6)).unwrap(),
            Some(ListChunkEntry {
                l_chunk: 6,
                in_short_list: true
            })
        );
        t.delete(DocId(6)).unwrap();
        assert_eq!(t.get(DocId(6)).unwrap(), None);
        t.clear().unwrap();
        assert!(t.is_empty());
    }
}
