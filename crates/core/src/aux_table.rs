//! The ListScore / ListChunk tables.
//!
//! "A ListScore table contains an entry for each document whose score has
//! been updated. Each entry contains the ID of the document, its score in
//! the (short or long) inverted list, and an inShortList field" (§4.3.1).
//! The Chunk method's ListChunk table is the same structure with a chunk id
//! in place of the score (§4.3.2). Queries check the row of every long
//! candidate, so both are [`DocTable`]s: B+-trees written through on every
//! change and read only at open, with every row served from memory. Both
//! are small — the offline merge clears them.

use crate::doc_table::{DocTable, Row};
use crate::types::{ChunkId, Score};

/// A ListScore row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ListScoreEntry {
    /// The document's score as recorded in the (short or long) inverted
    /// list — *not* necessarily its current score.
    pub l_score: Score,
    /// True when the document's postings live in the short lists.
    pub in_short_list: bool,
}

impl Row for ListScoreEntry {
    type Raw = [u8; 9];

    fn encode(self) -> [u8; 9] {
        let mut v = [0u8; 9];
        v[..8].copy_from_slice(&self.l_score.to_le_bytes());
        v[8] = self.in_short_list as u8;
        v
    }

    fn decode(raw: &[u8]) -> Option<ListScoreEntry> {
        Some(ListScoreEntry {
            l_score: f64::from_le_bytes(raw.get(..8)?.try_into().ok()?),
            in_short_list: raw.get(8) == Some(&1),
        })
    }
}

/// The ListScore table (Score-Threshold methods).
pub(crate) type ListScoreTable = DocTable<ListScoreEntry>;

/// A ListChunk row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListChunkEntry {
    /// Chunk where the document's postings currently live.
    pub l_chunk: ChunkId,
    pub in_short_list: bool,
}

impl Row for ListChunkEntry {
    type Raw = [u8; 5];

    fn encode(self) -> [u8; 5] {
        let mut v = [0u8; 5];
        v[..4].copy_from_slice(&self.l_chunk.to_le_bytes());
        v[4] = self.in_short_list as u8;
        v
    }

    fn decode(raw: &[u8]) -> Option<ListChunkEntry> {
        Some(ListChunkEntry {
            l_chunk: u32::from_le_bytes(raw.get(..4)?.try_into().ok()?),
            in_short_list: raw.get(4) == Some(&1),
        })
    }
}

/// The ListChunk table (Chunk methods).
pub(crate) type ListChunkTable = DocTable<ListChunkEntry>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DocId;
    use std::sync::Arc;
    use svr_storage::{MemDisk, Store};

    fn store() -> Arc<Store> {
        Arc::new(Store::new(Arc::new(MemDisk::new(4096)), 64))
    }

    #[test]
    fn list_score_roundtrip() {
        let t = ListScoreTable::create_in(store(), false).unwrap();
        assert_eq!(t.get(DocId(15)), None);
        t.put(
            DocId(15),
            ListScoreEntry {
                l_score: 87.13,
                in_short_list: false,
            },
        )
        .unwrap();
        assert_eq!(
            t.get(DocId(15)),
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
        let e = t.get(DocId(15)).unwrap();
        assert_eq!(e.l_score, 124.2);
        assert!(e.in_short_list);
        assert_eq!(t.rows().len(), 1);
        assert_eq!(t.rows(), t.tree_rows());
    }

    #[test]
    fn list_chunk_roundtrip_and_clear() {
        let t = ListChunkTable::create_in(store(), false).unwrap();
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
            t.get(DocId(6)),
            Some(ListChunkEntry {
                l_chunk: 6,
                in_short_list: true
            })
        );
        t.delete(DocId(6)).unwrap();
        assert_eq!(t.get(DocId(6)), None);
        assert_eq!(t.rows(), t.tree_rows());
        t.clear().unwrap();
        assert!(t.rows().is_empty());
        assert!(t.tree_rows().is_empty());
    }
}
