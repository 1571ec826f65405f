//! Durable-structure plumbing shared by the index methods.
//!
//! Every reopenable structure in a store follows one convention: **its
//! B+-tree metadata page is the store's first allocation (page 0)**, so a
//! structure can be reattached from nothing but its store. This module
//! holds the create/open helpers enforcing that, plus [`MetaTable`] — the
//! small per-shard record store where a method persists the state it would
//! otherwise keep only in memory (chunk boundaries, fancy-list metadata,
//! content-dirty markers), written at build/merge/content-update time, read
//! once at open.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use svr_storage::codec::{read_array, read_u32_be, read_varint, write_varint};
use svr_storage::{BTree, Store};

use crate::error::{CoreError, Result};
use crate::types::{DocId, Score, TermId};

/// Create a structure's backing tree: durable (reopenable; meta page first)
/// when `durable`, plain otherwise.
pub(crate) fn create_tree(store: Arc<Store>, durable: bool) -> Result<BTree> {
    if durable {
        BTree::create_durable(store).map_err(CoreError::Storage)
    } else {
        BTree::create(store).map_err(CoreError::Storage)
    }
}

/// Reattach a durable structure's tree from its store (metadata at page 0,
/// per the module convention).
pub(crate) fn open_tree(store: Arc<Store>) -> Result<BTree> {
    BTree::reopen(store, 0).map_err(CoreError::Storage)
}

/// Record-key prefixes inside a [`MetaTable`].
const KEY_CHUNK_MAP: u8 = b'c';
const KEY_FANCY: u8 = b'f';
const KEY_DIRTY: u8 = b'd';

/// Per-shard durable metadata records.
pub(crate) struct MetaTable {
    tree: BTree,
}

impl MetaTable {
    /// Create an empty table (durable when the shard is).
    pub fn create(store: Arc<Store>, durable: bool) -> Result<MetaTable> {
        Ok(MetaTable {
            tree: create_tree(store, durable)?,
        })
    }

    /// Reattach an existing table.
    pub fn open(store: Arc<Store>) -> Result<MetaTable> {
        Ok(MetaTable {
            tree: open_tree(store)?,
        })
    }

    fn clear_prefix(&self, prefix: u8) -> Result<()> {
        let keys: Vec<Vec<u8>> = self
            .tree
            .scan_prefix(&[prefix])?
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        for k in keys {
            self.tree.delete(&k)?;
        }
        Ok(())
    }

    /// Persist the chunk boundary list (replacing any previous one). Long
    /// lists are laid out by these boundaries, so they must reopen exactly;
    /// the list is split across records to respect the tree's entry-size
    /// cap.
    pub fn put_chunk_map(&self, boundaries: &[Score]) -> Result<()> {
        self.clear_prefix(KEY_CHUNK_MAP)?;
        let per = ((self.tree.max_entry_size() - 16) / 8).max(1);
        for (seq, chunk) in boundaries.chunks(per).enumerate() {
            let mut key = vec![KEY_CHUNK_MAP];
            key.extend_from_slice(&(seq as u32).to_be_bytes());
            let mut val = Vec::with_capacity(2 + chunk.len() * 8);
            write_varint(&mut val, chunk.len() as u64);
            for &b in chunk {
                val.extend_from_slice(&b.to_le_bytes());
            }
            self.tree.put(&key, &val)?;
        }
        Ok(())
    }

    /// The persisted chunk boundaries, or `None` when never written.
    pub fn chunk_map(&self) -> Result<Option<Vec<Score>>> {
        let rows = self.tree.scan_prefix(&[KEY_CHUNK_MAP])?;
        if rows.is_empty() {
            return Ok(None);
        }
        let corrupt = || CoreError::Storage(svr_storage::StorageError::Corrupt("chunk-map record"));
        let mut out = Vec::new();
        for (_, val) in rows {
            let mut pos = 0;
            let n = read_varint(&val, &mut pos).ok_or_else(corrupt)? as usize;
            for _ in 0..n {
                let bytes = val
                    .get(pos..)
                    .and_then(<[u8]>::first_chunk)
                    .ok_or_else(corrupt)?;
                out.push(f64::from_le_bytes(*bytes));
                pos += 8;
            }
        }
        Ok(Some(out))
    }

    /// Replace the persisted per-term fancy-list metadata
    /// (`term -> (min_ts, complete)`), written at build and merge time.
    /// The insert-time `inserted_max` widening is *not* stored here — it is
    /// re-derived from the short lists at open.
    pub fn put_fancy_meta<'a>(
        &self,
        entries: impl Iterator<Item = (TermId, (u16, bool))> + 'a,
    ) -> Result<()> {
        self.clear_prefix(KEY_FANCY)?;
        for (term, (min_ts, complete)) in entries {
            let mut key = vec![KEY_FANCY];
            key.extend_from_slice(&term.0.to_be_bytes());
            let mut val = [0u8; 3];
            val[..2].copy_from_slice(&min_ts.to_le_bytes());
            val[2] = complete as u8;
            self.tree.put(&key, &val)?;
        }
        Ok(())
    }

    /// The persisted fancy-list metadata.
    pub fn fancy_meta(&self) -> Result<HashMap<TermId, (u16, bool)>> {
        let mut out = HashMap::new();
        for (key, val) in self.tree.scan_prefix(&[KEY_FANCY])? {
            if key.len() < 5 || val.len() < 3 {
                return Err(CoreError::Storage(svr_storage::StorageError::Corrupt(
                    "fancy-meta record",
                )));
            }
            let term = TermId(read_u32_be(&key, 1));
            let min_ts = u16::from_le_bytes(read_array(&val, 0));
            out.insert(term, (min_ts, val[2] != 0));
        }
        Ok(out)
    }

    /// Mark a document content-dirty (fancy postings untrustworthy until
    /// the next merge).
    pub fn mark_dirty(&self, doc: DocId) -> Result<()> {
        let mut key = vec![KEY_DIRTY];
        key.extend_from_slice(&doc.0.to_be_bytes());
        self.tree.put(&key, &[])?;
        Ok(())
    }

    /// Drop every content-dirty marker (after a merge).
    pub fn clear_dirty(&self) -> Result<()> {
        self.clear_prefix(KEY_DIRTY)
    }

    /// The persisted content-dirty set.
    pub fn dirty_docs(&self) -> Result<HashSet<DocId>> {
        let mut out = HashSet::new();
        for (key, _) in self.tree.scan_prefix(&[KEY_DIRTY])? {
            if key.len() < 5 {
                return Err(CoreError::Storage(svr_storage::StorageError::Corrupt(
                    "dirty record",
                )));
            }
            out.insert(DocId(read_u32_be(&key, 1)));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svr_storage::MemDisk;

    fn table() -> MetaTable {
        let store = Arc::new(Store::new(Arc::new(MemDisk::new(512)), 64));
        MetaTable::create(store, true).unwrap()
    }

    #[test]
    fn chunk_map_roundtrip_spans_records() {
        let t = table();
        assert_eq!(t.chunk_map().unwrap(), None);
        // 200 boundaries far exceed one 512-byte page entry.
        let bounds: Vec<f64> = (0..200).map(|i| i as f64 * 1.5).collect();
        t.put_chunk_map(&bounds).unwrap();
        assert_eq!(t.chunk_map().unwrap().unwrap(), bounds);
        // Replacement drops the old records entirely.
        t.put_chunk_map(&[0.0, 7.0]).unwrap();
        assert_eq!(t.chunk_map().unwrap().unwrap(), vec![0.0, 7.0]);
    }

    #[test]
    fn fancy_meta_and_dirty_roundtrip() {
        let t = table();
        let mut meta = HashMap::new();
        meta.insert(TermId(3), (9u16, true));
        meta.insert(TermId(77), (0u16, false));
        t.put_fancy_meta(meta.iter().map(|(&k, &v)| (k, v)))
            .unwrap();
        assert_eq!(t.fancy_meta().unwrap(), meta);
        t.mark_dirty(DocId(5)).unwrap();
        t.mark_dirty(DocId(6)).unwrap();
        assert_eq!(t.dirty_docs().unwrap().len(), 2);
        t.clear_dirty().unwrap();
        assert!(t.dirty_docs().unwrap().is_empty());
    }
}
