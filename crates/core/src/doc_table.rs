//! Doc-keyed tables served from memory: the Score, ListScore and ListChunk
//! tables' shared body.
//!
//! Each of these tables is probed once per query candidate, so a lookup
//! must not walk a B+-tree. A [`DocTable`] keeps its rows twice:
//!
//! * a durable B+-tree keyed by the big-endian doc id — written through by
//!   every mutation (same pages, log records and syncs as a plain tree) and
//!   **read only by [`DocTable::open`]**, which scans it once;
//! * a sparse `HashMap<DocId, R>` that answers every read. Doc ids are user
//!   primary keys up to `u32::MAX`, so nothing is sized by the largest id.
//!
//! The tree is a private field, so every mutation goes through the
//! write-through methods below: the tree first, then the map (a failed
//! tree write fails the caller's write and leaves the map as it was). So
//! the map always equals what a tree read would return — the storage layer
//! has no in-memory page rollback to diverge from. After a crash the map
//! is rebuilt by `open`, exactly like the tree's own decoded-node cache.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;
use svr_storage::{BTree, StorageError, Store};

use crate::error::{CoreError, Result};
use crate::types::DocId;

/// The row type of a [`DocTable`] and its on-page encoding.
pub(crate) trait Row: Copy {
    /// The encoded value bytes.
    type Raw: AsRef<[u8]>;
    fn encode(self) -> Self::Raw;
    /// `None` when `raw` is too short to hold a row.
    fn decode(raw: &[u8]) -> Option<Self>;
}

/// A table's rows in doc-id order.
pub(crate) type Rows<R> = Vec<(DocId, R)>;

/// A B+-tree table keyed by doc id, with every row mirrored in memory.
pub(crate) struct DocTable<R> {
    tree: BTree,
    rows: RwLock<HashMap<DocId, R>>,
}

fn key(doc: DocId) -> [u8; 4] {
    doc.0.to_be_bytes()
}

fn corrupt() -> CoreError {
    CoreError::Storage(StorageError::Corrupt("doc table row"))
}

impl<R: Row> DocTable<R> {
    /// Create an empty table, durable (reopenable via [`DocTable::open`])
    /// when requested.
    pub fn create_in(store: Arc<Store>, durable: bool) -> Result<DocTable<R>> {
        Ok(DocTable {
            tree: crate::durable::create_tree(store, durable)?,
            rows: RwLock::default(),
        })
    }

    /// Reattach a durable table: one tree scan loads every row into the
    /// map. The scanned rows come back too, in doc-id order, for callers
    /// that rebuild state of their own from them.
    pub fn open(store: Arc<Store>) -> Result<(DocTable<R>, Rows<R>)> {
        let tree = crate::durable::open_tree(store)?;
        let scanned = scan(&tree)?;
        let rows = RwLock::new(scanned.iter().copied().collect());
        Ok((DocTable { tree, rows }, scanned))
    }

    /// The row of `doc`, if any.
    pub fn get(&self, doc: DocId) -> Option<R> {
        self.rows.read().get(&doc).copied()
    }

    /// Insert or overwrite a row; returns the previous one.
    pub fn put(&self, doc: DocId, row: R) -> Result<Option<R>> {
        self.tree.put(&key(doc), row.encode().as_ref())?;
        Ok(self.rows.write().insert(doc, row))
    }

    /// Remove a row (absent rows are fine).
    pub fn delete(&self, doc: DocId) -> Result<()> {
        self.tree.delete(&key(doc))?;
        self.rows.write().remove(&doc);
        Ok(())
    }

    /// Remove every row (after an offline merge).
    pub fn clear(&self) -> Result<()> {
        self.tree.clear()?;
        self.rows.write().clear();
        Ok(())
    }

    /// Every row, in doc-id order.
    pub fn rows(&self) -> Rows<R> {
        let mut out: Rows<R> = self.rows.read().iter().map(|(&d, &r)| (d, r)).collect();
        out.sort_unstable_by_key(|&(doc, _)| doc);
        out
    }

    /// Every row as a fresh read of the B+-tree returns it, in doc-id
    /// order: what the map must equal.
    #[cfg(test)]
    pub fn tree_rows(&self) -> Rows<R> {
        scan(&self.tree).unwrap()
    }
}

/// Every row of `tree`, decoded, in key (= doc-id) order.
fn scan<R: Row>(tree: &BTree) -> Result<Rows<R>> {
    let mut out = Vec::with_capacity(tree.len() as usize);
    let mut cursor = tree.cursor(&[])?;
    while let Some((k, v)) = cursor.next_entry()? {
        let doc = DocId(u32::from_be_bytes(
            k.as_slice().try_into().map_err(|_| corrupt())?,
        ));
        out.push((doc, R::decode(&v).ok_or_else(corrupt)?));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;
    use svr_storage::StorageEnv;

    use crate::aux_table::{ListChunkEntry, ListChunkTable};
    use crate::score_table::{ScoreEntry, ScoreTable};
    use crate::types::DocId;

    #[derive(Debug, Clone)]
    enum Step {
        Set(u32, f64),
        MarkDeleted(u32),
        Remove(u32),
        ChunkPut(u32, u32, bool),
        ChunkDelete(u32),
        ChunkClear,
        Crash,
    }

    /// A few small ids plus the top of the id space: a layout dense by id
    /// would have to size itself by `u32::MAX`.
    fn doc() -> impl Strategy<Value = u32> {
        prop_oneof![4 => 0u32..12, 1 => (u32::MAX - 3)..=u32::MAX]
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            4 => (doc(), 0u32..400).prop_map(|(d, s)| Step::Set(d, s as f64 / 4.0)),
            2 => doc().prop_map(Step::MarkDeleted),
            1 => doc().prop_map(Step::Remove),
            3 => (doc(), 0u32..6, any::<bool>()).prop_map(|(d, c, s)| Step::ChunkPut(d, c, s)),
            1 => doc().prop_map(Step::ChunkDelete),
            1 => Just(Step::ChunkClear),
            1 => Just(Step::Crash),
        ]
    }

    fn open(env: &StorageEnv) -> (ScoreTable, ListChunkTable) {
        (
            ScoreTable::open(env.store("score").unwrap()).unwrap().0,
            ListChunkTable::open(env.store("aux").unwrap()).unwrap().0,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// After every write, and after every crash + reopen, each table's
        /// map equals a fresh read of its B+-tree and the model.
        #[test]
        fn maps_equal_their_trees_and_the_model(
            steps in prop::collection::vec(step(), 1..60),
        ) {
            let env = StorageEnv::new_durable(512);
            let mut score =
                ScoreTable::create_in(env.create_store("score", 8), true).unwrap();
            let mut chunk =
                ListChunkTable::create_in(env.create_store("aux", 8), true).unwrap();
            let mut score_model: BTreeMap<DocId, ScoreEntry> = BTreeMap::new();
            let mut chunk_model: BTreeMap<DocId, ListChunkEntry> = BTreeMap::new();
            for step in steps {
                match step {
                    Step::Set(d, s) => {
                        let prev = score.set(DocId(d), s).unwrap();
                        let row = ScoreEntry { score: s, deleted: false };
                        prop_assert_eq!(prev, score_model.insert(DocId(d), row));
                    }
                    Step::MarkDeleted(d) => {
                        let done = score.mark_deleted(DocId(d));
                        match score_model.get_mut(&DocId(d)) {
                            Some(row) => {
                                done.unwrap();
                                row.deleted = true;
                            }
                            None => prop_assert!(done.is_err()),
                        }
                    }
                    Step::Remove(d) => {
                        score.remove(DocId(d)).unwrap();
                        score_model.remove(&DocId(d));
                    }
                    Step::ChunkPut(d, c, s) => {
                        let row = ListChunkEntry { l_chunk: c, in_short_list: s };
                        chunk.put(DocId(d), row).unwrap();
                        chunk_model.insert(DocId(d), row);
                    }
                    Step::ChunkDelete(d) => {
                        chunk.delete(DocId(d)).unwrap();
                        chunk_model.remove(&DocId(d));
                    }
                    Step::ChunkClear => {
                        chunk.clear().unwrap();
                        chunk_model.clear();
                    }
                    Step::Crash => {
                        drop((score, chunk));
                        env.crash();
                        env.recover_all().unwrap();
                        (score, chunk) = open(&env);
                    }
                }
                let want: Vec<_> = score_model.iter().map(|(&d, &r)| (d, r)).collect();
                prop_assert_eq!(&score.rows(), &want);
                prop_assert_eq!(&score.tree_rows(), &want);
                let want: Vec<_> = chunk_model.iter().map(|(&d, &r)| (d, r)).collect();
                prop_assert_eq!(&chunk.rows(), &want);
                prop_assert_eq!(&chunk.tree_rows(), &want);
                for (&d, row) in &score_model {
                    prop_assert_eq!(score.get(d), Some(*row));
                    prop_assert_eq!(score.is_deleted(d), row.deleted);
                }
            }
        }
    }
}
