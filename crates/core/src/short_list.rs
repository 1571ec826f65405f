//! Short (mutable) inverted lists on a B+-tree.
//!
//! Each method that maintains short lists stores them in one B+-tree whose
//! key layout makes the tree's ordering the query algorithm's merge order:
//!
//! ```text
//! ById:        [term BE][doc BE]                    (ID method content ops)
//! ByScoreDesc: [term BE][score desc][doc BE]        (Score-Threshold, Score)
//! ByChunkDesc: [term BE][chunk desc][doc BE]        (Chunk, Chunk-TermScore)
//! ```
//!
//! The value is `[op][tscore u16]`: `op` distinguishes score-update/insert
//! postings (`Add`) from content-removal tombstones (`Rem`, Appendix A.1).

use std::sync::Arc;

use svr_storage::codec::{
    push_f64_desc, push_u32_be, push_u32_desc, read_f64_desc, read_u32_be, read_u32_desc,
};
use svr_storage::{BTree, BTreeCursor, Store};

use crate::error::{CoreError, Result};
use crate::types::{ChunkId, DocId, Score, TermId};

/// Posting operation flag (Appendix A.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A live posting (score update, insertion, or content addition).
    Add,
    /// The term was removed from the document; cancels the long-list posting
    /// it is co-located with.
    Rem,
}

/// Merge-order position of a posting. `rank()` maps each variant onto an
/// ascending `u64` so that B+-tree key order, long-list order and the merge
/// comparator all agree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PostingPos {
    /// ID-ordered lists: all postings share one rank; doc id breaks ties.
    Id,
    /// Score-ordered lists, descending.
    ByScore(Score),
    /// Chunk-ordered lists, descending.
    ByChunk(ChunkId),
}

impl PostingPos {
    /// Ascending merge rank (smaller = earlier in the scan).
    #[inline]
    pub fn rank(&self) -> u64 {
        match *self {
            PostingPos::Id => 0,
            PostingPos::ByScore(s) => !svr_storage::codec::f64_order_bits(s),
            PostingPos::ByChunk(c) => u64::from(!c),
        }
    }
}

/// Key layout selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShortOrder {
    ById,
    ByScoreDesc,
    ByChunkDesc,
}

/// A decoded short-list posting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShortPosting {
    pub pos: PostingPos,
    pub doc: DocId,
    pub op: Op,
    pub tscore: u16,
}

/// Short lists for every term, in one tree.
pub struct ShortLists {
    tree: BTree,
    order: ShortOrder,
}

impl ShortLists {
    /// Create an empty short-list tree.
    pub fn create(store: Arc<Store>, order: ShortOrder) -> Result<ShortLists> {
        ShortLists::create_in(store, order, false)
    }

    /// Create an empty tree, durable (reopenable via [`ShortLists::open`])
    /// when requested.
    pub fn create_in(store: Arc<Store>, order: ShortOrder, durable: bool) -> Result<ShortLists> {
        Ok(ShortLists {
            tree: crate::durable::create_tree(store, durable)?,
            order,
        })
    }

    /// Reattach a durable tree (the key layout is not stored — the caller
    /// supplies the same `order` the tree was created with).
    pub fn open(store: Arc<Store>, order: ShortOrder) -> Result<ShortLists> {
        Ok(ShortLists {
            tree: crate::durable::open_tree(store)?,
            order,
        })
    }

    /// Per-term maximum `tscore` over the live `Add` postings — how a
    /// reopened term-score shard re-derives the `inserted_max` widening of
    /// its fancy bounds. (Score-update moves are included; that can only
    /// make the bound looser, never unsound.)
    pub fn max_add_tscores(&self) -> Result<std::collections::HashMap<TermId, u16>> {
        let mut out = std::collections::HashMap::new();
        let mut cursor = self.tree.cursor(&[])?;
        while let Some((k, v)) = cursor.next_entry()? {
            let (op, tscore) = Self::decode_value(&v)?;
            if op == Op::Add {
                let term = TermId(read_u32_be(&k, 0));
                let entry = out.entry(term).or_insert(0u16);
                *entry = (*entry).max(tscore);
            }
        }
        Ok(out)
    }

    /// Maximum `tscore` over one term's live `Add` postings — the short-
    /// list side of a WAND term-score upper bound. Short lists are bounded
    /// small between offline merges, so the per-term scan is cheap.
    pub fn max_add_tscore(&self, term: TermId) -> Result<u16> {
        let mut cursor = self.cursor(term)?;
        let mut max = 0u16;
        while let Some(p) = cursor.next_posting()? {
            if p.op == Op::Add {
                max = max.max(p.tscore);
            }
        }
        Ok(max)
    }

    /// Number of postings across all terms.
    pub fn len(&self) -> u64 {
        self.tree.len()
    }

    /// True when no postings exist.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    #[expect(
        clippy::panic,
        reason = "type-state misuse by a caller, not a data error"
    )]
    fn key(&self, term: TermId, pos: PostingPos, doc: DocId) -> Vec<u8> {
        let mut key = Vec::with_capacity(16);
        push_u32_be(&mut key, term.0);
        match (self.order, pos) {
            (ShortOrder::ById, PostingPos::Id) => {}
            (ShortOrder::ByScoreDesc, PostingPos::ByScore(s)) => push_f64_desc(&mut key, s),
            (ShortOrder::ByChunkDesc, PostingPos::ByChunk(c)) => push_u32_desc(&mut key, c),
            _ => panic!("posting position does not match short-list order"),
        }
        push_u32_be(&mut key, doc.0);
        key
    }

    fn value(op: Op, tscore: u16) -> [u8; 3] {
        let mut v = [0u8; 3];
        v[0] = match op {
            Op::Add => 1,
            Op::Rem => 2,
        };
        v[1..3].copy_from_slice(&tscore.to_le_bytes());
        v
    }

    fn decode_value(raw: &[u8]) -> Result<(Op, u16)> {
        let op = match raw.first() {
            Some(1) => Op::Add,
            Some(2) => Op::Rem,
            _ => {
                return Err(CoreError::Storage(svr_storage::StorageError::Corrupt(
                    "short op",
                )))
            }
        };
        let tscore = u16::from_le_bytes(
            raw[1..3]
                .try_into()
                .map_err(|_| CoreError::Storage(svr_storage::StorageError::Corrupt("short ts")))?,
        );
        Ok((op, tscore))
    }

    /// Insert or replace a posting.
    pub fn put(
        &self,
        term: TermId,
        pos: PostingPos,
        doc: DocId,
        op: Op,
        tscore: u16,
    ) -> Result<()> {
        self.tree
            .put(&self.key(term, pos, doc), &Self::value(op, tscore))?;
        Ok(())
    }

    /// Remove a posting; true if it existed.
    pub fn delete(&self, term: TermId, pos: PostingPos, doc: DocId) -> Result<bool> {
        Ok(self.tree.delete(&self.key(term, pos, doc))?.is_some())
    }

    /// Fetch one posting's `(op, tscore)`.
    pub fn get(&self, term: TermId, pos: PostingPos, doc: DocId) -> Result<Option<(Op, u16)>> {
        match self.tree.get(&self.key(term, pos, doc))? {
            Some(v) => Ok(Some(Self::decode_value(&v)?)),
            None => Ok(None),
        }
    }

    /// Streaming cursor over one term's short list, in merge order.
    pub fn cursor(&self, term: TermId) -> Result<ShortCursor<'_>> {
        self.cursor_after(term, None)
    }

    /// Cursor over one term's short list starting strictly *after* the
    /// posting at `(pos, doc)` — how a suspended scan resumes. Because the
    /// tree is seeked by key (not by page), this stays correct under
    /// arbitrary concurrent inserts/deletes between suspension and resume:
    /// the scan continues from the first surviving posting past the
    /// recorded position.
    pub fn cursor_after(
        &self,
        term: TermId,
        after: Option<(PostingPos, DocId)>,
    ) -> Result<ShortCursor<'_>> {
        let start = match after {
            None => {
                let mut prefix = Vec::with_capacity(4);
                push_u32_be(&mut prefix, term.0);
                prefix
            }
            Some((pos, doc)) => {
                // The successor of a fixed-length key under bytewise order:
                // the key extended by one zero byte.
                let mut key = self.key(term, pos, doc);
                key.push(0);
                key
            }
        };
        let cursor = self.tree.cursor(&start)?;
        Ok(ShortCursor {
            lists_order: self.order,
            term,
            cursor,
        })
    }

    /// Materialize one term's short list (offline merge, tests).
    pub fn postings_for(&self, term: TermId) -> Result<Vec<ShortPosting>> {
        let mut cursor = self.cursor(term)?;
        let mut out = Vec::new();
        while let Some(p) = cursor.next_posting()? {
            out.push(p);
        }
        Ok(out)
    }

    /// Every term that currently has short postings.
    pub fn terms(&self) -> Result<Vec<TermId>> {
        let mut cursor = self.tree.cursor(&[])?;
        let mut out: Vec<TermId> = Vec::new();
        while let Some((k, _)) = cursor.next_entry()? {
            let term = TermId(read_u32_be(&k, 0));
            if out.last() != Some(&term) {
                out.push(term);
            }
        }
        Ok(out)
    }

    /// Drop page and decoded-node caches (cold-cache protocol when this
    /// tree serves as the Score method's clustered long list).
    pub fn clear_caches(&self) -> Result<()> {
        Ok(self.tree.clear_caches()?)
    }

    /// Drop every posting (after an offline merge into the long lists).
    pub fn clear(&self) -> Result<()> {
        Ok(self.tree.clear()?)
    }
}

/// Decode a short-list key for the given layout.
fn decode_short_key(order: ShortOrder, key: &[u8]) -> (TermId, PostingPos, DocId) {
    let term = TermId(read_u32_be(key, 0));
    match order {
        ShortOrder::ById => (term, PostingPos::Id, DocId(read_u32_be(key, 4))),
        ShortOrder::ByScoreDesc => (
            term,
            PostingPos::ByScore(read_f64_desc(key, 4)),
            DocId(read_u32_be(key, 12)),
        ),
        ShortOrder::ByChunkDesc => (
            term,
            PostingPos::ByChunk(read_u32_desc(key, 4)),
            DocId(read_u32_be(key, 8)),
        ),
    }
}

/// Streaming short-list cursor for one term.
pub struct ShortCursor<'t> {
    lists_order: ShortOrder,
    term: TermId,
    cursor: BTreeCursor<'t>,
}

impl ShortCursor<'_> {
    /// Next posting of this term, or `None` when the term's range ends.
    pub fn next_posting(&mut self) -> Result<Option<ShortPosting>> {
        // Stop without consuming entries of the next term: peek first.
        match self.cursor.peek_key()? {
            Some(key) if read_u32_be(key, 0) == self.term.0 => {}
            _ => return Ok(None),
        }
        let Some((key, value)) = self.cursor.next_entry()? else {
            // Unreachable: the peek above saw this entry.
            return Ok(None);
        };
        let (_, pos, doc) = decode_short_key(self.lists_order, &key);
        let (op, tscore) = ShortLists::decode_value(&value)?;
        Ok(Some(ShortPosting {
            pos,
            doc,
            op,
            tscore,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svr_storage::MemDisk;

    fn lists(order: ShortOrder) -> ShortLists {
        let store = Arc::new(Store::new(Arc::new(MemDisk::new(4096)), 64));
        ShortLists::create(store, order).unwrap()
    }

    #[test]
    fn id_order_roundtrip() {
        let s = lists(ShortOrder::ById);
        s.put(TermId(7), PostingPos::Id, DocId(30), Op::Add, 9)
            .unwrap();
        s.put(TermId(7), PostingPos::Id, DocId(2), Op::Rem, 0)
            .unwrap();
        s.put(TermId(8), PostingPos::Id, DocId(1), Op::Add, 0)
            .unwrap();
        let postings = s.postings_for(TermId(7)).unwrap();
        assert_eq!(postings.len(), 2);
        assert_eq!(postings[0].doc, DocId(2));
        assert_eq!(postings[0].op, Op::Rem);
        assert_eq!(postings[1].doc, DocId(30));
        assert_eq!(postings[1].tscore, 9);
        assert_eq!(s.terms().unwrap(), vec![TermId(7), TermId(8)]);
    }

    #[test]
    fn score_desc_ordering() {
        let s = lists(ShortOrder::ByScoreDesc);
        s.put(TermId(1), PostingPos::ByScore(87.13), DocId(15), Op::Add, 0)
            .unwrap();
        s.put(TermId(1), PostingPos::ByScore(124.2), DocId(9), Op::Add, 0)
            .unwrap();
        s.put(TermId(1), PostingPos::ByScore(87.13), DocId(3), Op::Add, 0)
            .unwrap();
        let postings = s.postings_for(TermId(1)).unwrap();
        let order: Vec<(f64, u32)> = postings
            .iter()
            .map(|p| match p.pos {
                PostingPos::ByScore(s) => (s, p.doc.0),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![(124.2, 9), (87.13, 3), (87.13, 15)]);
    }

    #[test]
    fn chunk_desc_ordering() {
        let s = lists(ShortOrder::ByChunkDesc);
        s.put(TermId(1), PostingPos::ByChunk(2), DocId(5), Op::Add, 0)
            .unwrap();
        s.put(TermId(1), PostingPos::ByChunk(9), DocId(7), Op::Add, 0)
            .unwrap();
        s.put(TermId(1), PostingPos::ByChunk(9), DocId(1), Op::Add, 0)
            .unwrap();
        let postings = s.postings_for(TermId(1)).unwrap();
        let order: Vec<(u32, u32)> = postings
            .iter()
            .map(|p| match p.pos {
                PostingPos::ByChunk(c) => (c, p.doc.0),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![(9, 1), (9, 7), (2, 5)]);
    }

    #[test]
    fn cursor_after_resumes_past_key() {
        let s = lists(ShortOrder::ByScoreDesc);
        for (score, doc) in [(90.0, 1u32), (80.0, 2), (80.0, 5), (70.0, 9)] {
            s.put(
                TermId(3),
                PostingPos::ByScore(score),
                DocId(doc),
                Op::Add,
                0,
            )
            .unwrap();
        }
        let mut c = s
            .cursor_after(TermId(3), Some((PostingPos::ByScore(80.0), DocId(2))))
            .unwrap();
        let mut docs = Vec::new();
        while let Some(p) = c.next_posting().unwrap() {
            docs.push(p.doc.0);
        }
        assert_eq!(docs, vec![5, 9]);
        // Resume past the last key of the term: empty, even when a later
        // term has postings.
        s.put(TermId(4), PostingPos::ByScore(99.0), DocId(1), Op::Add, 0)
            .unwrap();
        let mut c = s
            .cursor_after(TermId(3), Some((PostingPos::ByScore(70.0), DocId(9))))
            .unwrap();
        assert!(c.next_posting().unwrap().is_none());
    }

    #[test]
    fn put_delete_get() {
        let s = lists(ShortOrder::ByChunkDesc);
        let pos = PostingPos::ByChunk(4);
        s.put(TermId(1), pos, DocId(10), Op::Add, 77).unwrap();
        assert_eq!(
            s.get(TermId(1), pos, DocId(10)).unwrap(),
            Some((Op::Add, 77))
        );
        assert!(s.delete(TermId(1), pos, DocId(10)).unwrap());
        assert_eq!(s.get(TermId(1), pos, DocId(10)).unwrap(), None);
        assert!(!s.delete(TermId(1), pos, DocId(10)).unwrap());
    }

    #[test]
    fn clear_empties_everything() {
        let s = lists(ShortOrder::ById);
        for t in 0..20u32 {
            for d in 0..20u32 {
                s.put(TermId(t), PostingPos::Id, DocId(d), Op::Add, 0)
                    .unwrap();
            }
        }
        assert_eq!(s.len(), 400);
        s.clear().unwrap();
        assert!(s.is_empty());
        assert!(s.terms().unwrap().is_empty());
    }

    #[test]
    fn posting_pos_rank_ordering() {
        // Higher scores/chunks must rank earlier (smaller).
        assert!(PostingPos::ByScore(124.2).rank() < PostingPos::ByScore(87.13).rank());
        assert!(PostingPos::ByChunk(9).rank() < PostingPos::ByChunk(2).rank());
        assert_eq!(PostingPos::Id.rank(), 0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn mismatched_pos_panics() {
        let s = lists(ShortOrder::ById);
        let _ = s.put(TermId(1), PostingPos::ByChunk(1), DocId(1), Op::Add, 0);
    }
}
