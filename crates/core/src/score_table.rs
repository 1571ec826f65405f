//! The Score table: `doc id -> (current score, deleted flag)`.
//!
//! "A Score table is used to store the ID and score of each document (there
//! is only one such Score table for the entire collection)... An index is
//! built on the ID column of the Score table so that score lookups by ID are
//! efficient" (§4.2.1). Appendix A.2 adds the deleted flag. Every ranked
//! query resolves each candidate's score here, so the table is a doc table
//! (`crate::doc_table`): a B+-tree keyed by doc id, written through on
//! every change and read only at open, every row served from memory.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use svr_storage::Store;

use crate::doc_table::{DocTable, Row, Rows};
use crate::error::{check_score, CoreError, Result};
use crate::types::{DocId, Score};

/// One row of the Score table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreEntry {
    pub score: Score,
    pub deleted: bool,
}

impl Row for ScoreEntry {
    type Raw = [u8; 9];

    fn encode(self) -> [u8; 9] {
        let mut v = [0u8; 9];
        v[..8].copy_from_slice(&self.score.to_le_bytes());
        v[8] = self.deleted as u8;
        v
    }

    fn decode(raw: &[u8]) -> Option<ScoreEntry> {
        Some(ScoreEntry {
            score: f64::from_le_bytes(raw.get(..8)?.try_into().ok()?),
            deleted: raw.get(8).copied().unwrap_or(0) != 0,
        })
    }
}

/// The per-shard Score table.
pub(crate) struct ScoreTable {
    table: DocTable<ScoreEntry>,
    /// Monotone upper bound on every score ever written (f64 bits; valid
    /// because [`check_score`] rejects negatives and turns `-0.0` into
    /// `+0.0`, so the IEEE-754 bit pattern of a stored score orders like
    /// the value). Never lowered on score decreases — loose but sound for
    /// WAND pruning. Seeded at open from every row, tombstoned included
    /// (undelete revives the stored score).
    max_bound: AtomicU64,
}

impl ScoreTable {
    /// Create an empty table, durable (reopenable via [`ScoreTable::open`])
    /// when requested.
    pub fn create_in(store: Arc<Store>, durable: bool) -> Result<ScoreTable> {
        Ok(ScoreTable {
            table: DocTable::create_in(store, durable)?,
            max_bound: AtomicU64::new(0),
        })
    }

    /// Reattach a durable table: one tree scan loads every row and seeds
    /// the max-score bound. Returns the rows too — live and tombstoned, in
    /// doc-id order — which a reopened shard rebuilds its live count and
    /// df statistics from.
    pub fn open(store: Arc<Store>) -> Result<(ScoreTable, Rows<ScoreEntry>)> {
        let (table, rows) = DocTable::open(store)?;
        let table = ScoreTable {
            table,
            max_bound: AtomicU64::new(0),
        };
        for (_, entry) in &rows {
            table.note_score(entry.score);
        }
        Ok((table, rows))
    }

    /// Fetch a row.
    pub fn get(&self, doc: DocId) -> Option<ScoreEntry> {
        self.table.get(doc)
    }

    /// Current score of a live document; errors on unknown or deleted docs.
    pub fn score_of(&self, doc: DocId) -> Result<Score> {
        match self.get(doc) {
            Some(entry) if !entry.deleted => Ok(entry.score),
            _ => Err(CoreError::UnknownDocument(doc)),
        }
    }

    /// True when `doc` has a tombstoned row.
    pub fn is_deleted(&self, doc: DocId) -> bool {
        self.get(doc).is_some_and(|entry| entry.deleted)
    }

    /// Fold a score into the monotone upper bound.
    fn note_score(&self, score: Score) {
        self.max_bound.fetch_max(score.to_bits(), Ordering::Relaxed);
    }

    /// Monotone upper bound on every score ever written to this table
    /// (never lowered when scores decrease; `0.0` for an empty table).
    pub fn max_score_bound(&self) -> Score {
        f64::from_bits(self.max_bound.load(Ordering::Relaxed))
    }

    /// Insert or overwrite a row; validates the score.
    pub fn set(&self, doc: DocId, score: Score) -> Result<Option<ScoreEntry>> {
        let score = check_score(score)?;
        self.note_score(score);
        self.table.put(
            doc,
            ScoreEntry {
                score,
                deleted: false,
            },
        )
    }

    /// Mark a document deleted (Appendix A.2: "add a new field in the Score
    /// table that indicates whether a document with a given ID is deleted").
    pub fn mark_deleted(&self, doc: DocId) -> Result<()> {
        let entry = self.get(doc).ok_or(CoreError::UnknownDocument(doc))?;
        self.table.put(
            doc,
            ScoreEntry {
                deleted: true,
                ..entry
            },
        )?;
        Ok(())
    }

    /// Remove a row entirely — the batch-rollback inverse of the insert
    /// path. Regular deletion *tombstones* via
    /// [`ScoreTable::mark_deleted`] so the id stays reserved; removal is
    /// only sound when undoing an insert that the same batch performed.
    pub fn remove(&self, doc: DocId) -> Result<()> {
        self.table.delete(doc)
    }

    /// All live `(doc, score)` rows in doc-id order (the merge's
    /// inversion).
    pub fn live_scores(&self) -> Vec<(DocId, Score)> {
        self.table
            .rows()
            .into_iter()
            .filter(|(_, entry)| !entry.deleted)
            .map(|(doc, entry)| (doc, entry.score))
            .collect()
    }
}

#[cfg(test)]
impl ScoreTable {
    /// Every row the map serves, in doc-id order.
    pub fn rows(&self) -> Rows<ScoreEntry> {
        self.table.rows()
    }

    /// The rows a fresh read of the B+-tree returns.
    pub fn tree_rows(&self) -> Rows<ScoreEntry> {
        self.table.tree_rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svr_storage::{MemDisk, StorageEnv, Store};

    fn table() -> ScoreTable {
        let store = Arc::new(Store::new(Arc::new(MemDisk::new(4096)), 64));
        ScoreTable::create_in(store, false).unwrap()
    }

    #[test]
    fn set_get_roundtrip() {
        let t = table();
        assert_eq!(t.set(DocId(15), 87.13).unwrap(), None);
        assert_eq!(t.score_of(DocId(15)).unwrap(), 87.13);
        let prev = t.set(DocId(15), 124.2).unwrap().unwrap();
        assert_eq!(prev.score, 87.13);
        assert_eq!(t.score_of(DocId(15)).unwrap(), 124.2);
        assert_eq!(t.rows().len(), 1);
    }

    #[test]
    fn unknown_doc_errors() {
        let t = table();
        assert_eq!(
            t.score_of(DocId(1)),
            Err(CoreError::UnknownDocument(DocId(1)))
        );
        assert!(t.mark_deleted(DocId(1)).is_err());
        assert!(!t.is_deleted(DocId(1)));
    }

    #[test]
    fn deleted_docs_hidden_from_score_of_and_live_scores() {
        let t = table();
        t.set(DocId(1), 10.0).unwrap();
        t.set(DocId(2), 20.0).unwrap();
        t.mark_deleted(DocId(1)).unwrap();
        assert!(t.score_of(DocId(1)).is_err());
        assert!(t.get(DocId(1)).unwrap().deleted);
        assert!(t.is_deleted(DocId(1)));
        assert!(!t.is_deleted(DocId(2)));
        assert_eq!(t.live_scores(), vec![(DocId(2), 20.0)]);
    }

    #[test]
    fn invalid_scores_rejected() {
        let t = table();
        assert!(t.set(DocId(1), -3.0).is_err());
        assert!(t.set(DocId(1), f64::NAN).is_err());
    }

    #[test]
    fn max_score_bound_is_monotone() {
        let t = table();
        assert_eq!(t.max_score_bound(), 0.0);
        t.set(DocId(1), 10.0).unwrap();
        t.set(DocId(2), 90.0).unwrap();
        assert_eq!(t.max_score_bound(), 90.0);
        // Lowering a score never lowers the bound (loose but sound).
        t.set(DocId(2), 5.0).unwrap();
        assert_eq!(t.max_score_bound(), 90.0);
        t.note_score(250.0);
        assert_eq!(t.max_score_bound(), 250.0);
    }

    #[test]
    fn negative_zero_does_not_poison_the_bound() {
        // The sign bit of -0.0 outranks every positive score as raw bits.
        let t = table();
        t.set(DocId(1), -0.0).unwrap();
        t.set(DocId(2), 90.0).unwrap();
        assert_eq!(t.max_score_bound().to_bits(), 90.0f64.to_bits());
        assert_eq!(t.score_of(DocId(1)).unwrap().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn open_loads_rows_and_seeds_the_bound_from_tombstones_too() {
        let env = StorageEnv::new_durable(4096);
        let t = ScoreTable::create_in(env.create_store("score", 16), true).unwrap();
        t.set(DocId(1), 10.0).unwrap();
        t.set(DocId(2), 70.0).unwrap();
        t.set(DocId(3), 30.0).unwrap();
        t.mark_deleted(DocId(2)).unwrap();
        t.set(DocId(3), 20.0).unwrap();
        drop(t);
        env.crash();
        env.recover_all().unwrap();
        let (t, rows) = ScoreTable::open(env.store("score").unwrap()).unwrap();
        assert_eq!(t.live_scores(), vec![(DocId(1), 10.0), (DocId(3), 20.0)]);
        assert!(t.is_deleted(DocId(2)));
        assert_eq!(t.max_score_bound(), 70.0);
        assert_eq!(rows, t.tree_rows());
    }

    #[test]
    fn reinsert_after_delete_revives() {
        let t = table();
        t.set(DocId(1), 10.0).unwrap();
        t.mark_deleted(DocId(1)).unwrap();
        t.set(DocId(1), 30.0).unwrap();
        assert_eq!(t.score_of(DocId(1)).unwrap(), 30.0);
    }
}
