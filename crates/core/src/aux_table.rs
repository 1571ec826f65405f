//! The ListScore / ListChunk tables: one row type over a list position.
//!
//! "A ListScore table contains an entry for each document whose score has
//! been updated. Each entry contains the ID of the document, its score in
//! the (short or long) inverted list, and an inShortList field" (§4.3.1).
//! ListChunk is "the same structure" with a chunk id in place of the score
//! (§4.3.2): [`ListEntry<Score>`] and [`ListEntry<ChunkId>`], stored as the
//! position's little-endian bytes and a flag byte (9 and 5 bytes). Queries
//! check the row of every long candidate, so both are doc tables (see
//! `crate::doc_table`): B+-trees written through on every change and read
//! only at open, every row served from memory. The offline merge clears
//! them.

use crate::doc_table::{DocTable, Row};
use crate::types::{ChunkId, Score};

/// A position a list row can record, with its fixed-width encoding.
pub(crate) trait ListPos: Copy + Default + Send + Sync + 'static {
    /// A row's bytes: the position's, then one flag byte.
    type Raw: AsRef<[u8]> + AsMut<[u8]> + Default;
    /// Write the position's little-endian bytes into `out` (its full width).
    fn write_le(self, out: &mut [u8]);
    /// Read a position back from exactly its width of bytes.
    fn read_le(raw: &[u8]) -> Option<Self>;
}

impl ListPos for Score {
    type Raw = [u8; 9];

    fn write_le(self, out: &mut [u8]) {
        out.copy_from_slice(&self.to_le_bytes());
    }

    fn read_le(raw: &[u8]) -> Option<Score> {
        Some(f64::from_le_bytes(raw.try_into().ok()?))
    }
}

impl ListPos for ChunkId {
    type Raw = [u8; 5];

    fn write_le(self, out: &mut [u8]) {
        out.copy_from_slice(&self.to_le_bytes());
    }

    fn read_le(raw: &[u8]) -> Option<ChunkId> {
        Some(u32::from_le_bytes(raw.try_into().ok()?))
    }
}

/// A ListScore (`ListEntry<Score>`) or ListChunk (`ListEntry<ChunkId>`) row.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ListEntry<P> {
    /// Where the document's postings sit in the (short or long) inverted
    /// lists — *not* necessarily where its current score would place them.
    pub l_pos: P,
    /// True when the document's postings live in the short lists.
    pub in_short_list: bool,
}

impl<P: ListPos> Row for ListEntry<P> {
    type Raw = P::Raw;

    fn encode(self) -> P::Raw {
        let mut raw = P::Raw::default();
        if let Some((flag, pos)) = raw.as_mut().split_last_mut() {
            self.l_pos.write_le(pos);
            *flag = self.in_short_list as u8;
        }
        raw
    }

    fn decode(raw: &[u8]) -> Option<ListEntry<P>> {
        let width = std::mem::size_of::<P::Raw>() - 1;
        Some(ListEntry {
            l_pos: P::read_le(raw.get(..width)?)?,
            in_short_list: raw.get(width) == Some(&1),
        })
    }
}

/// The ListScore or ListChunk table.
pub(crate) type ListTable<P> = DocTable<ListEntry<P>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DocId;
    use std::sync::Arc;
    use svr_storage::{MemDisk, Store};

    fn store() -> Arc<Store> {
        Arc::new(Store::new(Arc::new(MemDisk::new(4096)), 64))
    }

    /// The row bytes durable indexes hold on disk: a position's
    /// little-endian bytes, then the `in_short_list` flag.
    #[test]
    fn row_bytes_are_pinned() {
        let chunk = ListEntry::<ChunkId> {
            l_pos: 7,
            in_short_list: true,
        };
        assert_eq!(chunk.encode(), [7, 0, 0, 0, 1]);
        let score = ListEntry::<Score> {
            l_pos: 2.5,
            in_short_list: false,
        };
        assert_eq!(score.encode(), [0, 0, 0, 0, 0, 0, 4, 64, 0]);
        assert_eq!(ListEntry::<ChunkId>::decode(&[7, 0, 0, 0, 1]), Some(chunk));
        assert_eq!(ListEntry::<Score>::decode(&score.encode()), Some(score));
        assert_eq!(ListEntry::<ChunkId>::decode(&[7, 0, 0]), None);
    }

    #[test]
    fn list_score_roundtrip() {
        let t = ListTable::<Score>::create_in(store(), false).unwrap();
        assert_eq!(t.get(DocId(15)), None);
        t.put(
            DocId(15),
            ListEntry {
                l_pos: 87.13,
                in_short_list: false,
            },
        )
        .unwrap();
        assert_eq!(
            t.get(DocId(15)),
            Some(ListEntry {
                l_pos: 87.13,
                in_short_list: false
            })
        );
        t.put(
            DocId(15),
            ListEntry {
                l_pos: 124.2,
                in_short_list: true,
            },
        )
        .unwrap();
        let e = t.get(DocId(15)).unwrap();
        assert_eq!(e.l_pos, 124.2);
        assert!(e.in_short_list);
        assert_eq!(t.rows().len(), 1);
        assert_eq!(t.rows(), t.tree_rows());
    }

    #[test]
    fn list_chunk_roundtrip_and_clear() {
        let t = ListTable::<ChunkId>::create_in(store(), false).unwrap();
        for d in 0..50u32 {
            t.put(
                DocId(d),
                ListEntry {
                    l_pos: d % 7,
                    in_short_list: d % 2 == 0,
                },
            )
            .unwrap();
        }
        assert_eq!(
            t.get(DocId(6)),
            Some(ListEntry {
                l_pos: 6,
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
