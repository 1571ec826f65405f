//! The incrementally maintained materialized Score view (§3.2).
//!
//! ```sql
//! create materialized view Score as
//!   SELECT R.Ck, Agg(S1(R.Ck), ..., Sm(R.Ck)) FROM R
//! ```
//!
//! The view keeps per-component aggregate state `(sum, count)` per target
//! key, so a base-table row change updates the affected keys in O(1) per
//! component and the new aggregate score is pushed to the registered
//! listener — "the index structures are notified whenever the score of a
//! document is updated in the materialized view" (§4.1).

use std::collections::{HashMap, HashSet};

use crate::aggexpr::AggExpr;
use crate::functions::ScoreComponent;
use crate::schema::Schema;
use crate::table::RowChange;
use crate::value::Value;

/// Callback invoked with `(target_pk, new_score)` on every score change.
///
/// The listener runs *synchronously* inside the mutating call, while the
/// view's lock is held — the paper's "the index structures are notified
/// whenever the score of a document is updated in the materialized view"
/// (§4.1) with no buffering in between. It must therefore be cheap-ish and
/// must not call back into the relational layer. It is `Fn + Send + Sync`
/// so a view shared behind a lock can notify from any writer thread.
pub type ScoreListener = Box<dyn Fn(i64, f64) + Send + Sync>;

/// An SVR score specification: components `S1..Sm` plus the `Agg` function.
#[derive(Debug, Clone, PartialEq)]
pub struct SvrSpec {
    pub components: Vec<ScoreComponent>,
    pub agg: AggExpr,
}

impl SvrSpec {
    /// Build a specification.
    pub fn new(components: Vec<ScoreComponent>, agg: AggExpr) -> SvrSpec {
        SvrSpec { components, agg }
    }

    /// A single-component spec: `Agg(s1) = s1`.
    pub fn single(component: ScoreComponent) -> SvrSpec {
        SvrSpec {
            components: vec![component],
            agg: AggExpr::Component(0),
        }
    }
}

/// The materialized view.
pub struct ScoreView {
    /// Table whose text column is being scored (its pk values are the
    /// document ids).
    pub target_table: String,
    pub spec: SvrSpec,
    /// Aggregate state per component: `pk -> (sum, count)`.
    state: Vec<HashMap<i64, (f64, u64)>>,
    /// Live target keys.
    target_pks: HashSet<i64>,
    /// Materialized scores.
    scores: HashMap<i64, f64>,
    listener: Option<ScoreListener>,
    /// Per-thread undo capture (see [`ScoreView::begin_undo`]): the
    /// first-touched pre-image of every state entry this thread's batch
    /// modifies, so a rollback restores the view **bit-exactly** —
    /// replaying logical inverses through floating-point aggregate state
    /// could drift by an ulp, a captured pre-image cannot.
    undo: HashMap<std::thread::ThreadId, ViewUndo>,
}

/// Pre-images captured for one thread's batch (first write wins).
#[derive(Default)]
struct ViewUndo {
    /// Per component: pk -> pre-batch `(sum, count)` entry (`None` =
    /// absent).
    state: Vec<HashMap<i64, Option<(f64, u64)>>>,
    /// pk -> was the key a live target before the batch?
    targets: HashMap<i64, bool>,
    /// Keys whose materialized score (or presence) the batch changed.
    scores: HashMap<i64, Option<f64>>,
}

impl ScoreView {
    /// Create an empty view.
    pub fn new(target_table: &str, spec: SvrSpec) -> ScoreView {
        let n = spec.components.len();
        ScoreView {
            target_table: target_table.to_string(),
            spec,
            state: vec![HashMap::new(); n],
            target_pks: HashSet::new(),
            scores: HashMap::new(),
            listener: None,
            undo: HashMap::new(),
        }
    }

    /// True when a change to any of `tables` can reach this view — the
    /// same target/source test change routing applies, used to scope
    /// write-transaction brackets to the views that can actually move.
    pub fn depends_on_any(&self, tables: &[String]) -> bool {
        tables.contains(&self.target_table)
            || self.spec.components.iter().any(|c| {
                c.source_table()
                    .is_some_and(|s| tables.iter().any(|t| t == s))
            })
    }

    /// Register the score-change listener (the text index).
    pub fn set_listener(&mut self, listener: ScoreListener) {
        self.listener = Some(listener);
    }

    /// Fire the listener with `pk`'s current score, if it has one — how a
    /// writer that just added `pk`'s document to the index re-announces a
    /// score change the index dropped while the document was absent.
    pub fn notify(&self, pk: i64) {
        if let (Some(listener), Some(&score)) = (&self.listener, self.scores.get(&pk)) {
            listener(pk, score);
        }
    }

    /// Start capturing undo pre-images **for the calling thread**: until
    /// [`ScoreView::commit_undo`] or [`ScoreView::rollback_undo`] on the
    /// same thread, the first modification of each state entry, target
    /// membership and materialized score by this thread records its
    /// pre-image. Capture is thread-scoped: a concurrent writer of an
    /// *unlocked* source table must neither pollute this batch's capture
    /// nor be clobbered by its rollback.
    pub fn begin_undo(&mut self) {
        let n = self.spec.components.len();
        self.undo
            .entry(std::thread::current().id())
            .or_insert_with(|| ViewUndo {
                state: vec![HashMap::new(); n],
                ..ViewUndo::default()
            });
    }

    /// Discard the calling thread's undo capture (the batch committed).
    pub fn commit_undo(&mut self) {
        self.undo.remove(&std::thread::current().id());
    }

    /// Restore every entry the calling thread's batch touched to its
    /// captured pre-image, then re-derive the touched materialized scores
    /// from the restored component state. Re-deriving (rather than
    /// restoring score bytes) is what makes rollback correct under
    /// concurrency: a concurrent writer may have legitimately changed
    /// *another* component of the same key mid-batch, and the recomputed
    /// score folds that in; absent concurrent writers the same
    /// deterministic aggregate over the same restored state reproduces the
    /// pre-batch score bit-exactly. Changed scores notify the listener as
    /// usual, so deferred index refreshes converge to the rolled-back
    /// truth.
    pub fn rollback_undo(&mut self) {
        let me = std::thread::current().id();
        let Some(undo) = self.undo.remove(&me) else {
            return;
        };
        for (i, entries) in undo.state.into_iter().enumerate() {
            for (pk, old) in entries {
                match old {
                    Some(entry) => {
                        self.state[i].insert(pk, entry);
                    }
                    None => {
                        self.state[i].remove(&pk);
                    }
                }
            }
        }
        for (&pk, &was_live) in &undo.targets {
            if was_live {
                self.target_pks.insert(pk);
            } else {
                self.target_pks.remove(&pk);
            }
        }
        for &pk in undo.scores.keys() {
            if self.target_pks.contains(&pk) {
                // The capture for `me` is gone: recompute restores without
                // re-capturing, and notifies if the mid-batch value differs.
                self.recompute(pk);
            } else {
                self.scores.remove(&pk);
            }
        }
    }

    fn capture_state(&mut self, comp_idx: usize, pk: i64) {
        let me = std::thread::current().id();
        if !self.undo.contains_key(&me) {
            return;
        }
        let old = self.state[comp_idx].get(&pk).copied();
        if let Some(undo) = self.undo.get_mut(&me) {
            undo.state[comp_idx].entry(pk).or_insert(old);
        }
    }

    fn capture_target(&mut self, pk: i64) {
        let me = std::thread::current().id();
        if !self.undo.contains_key(&me) {
            return;
        }
        let was_live = self.target_pks.contains(&pk);
        if let Some(undo) = self.undo.get_mut(&me) {
            undo.targets.entry(pk).or_insert(was_live);
        }
    }

    fn capture_score(&mut self, pk: i64) {
        let me = std::thread::current().id();
        if !self.undo.contains_key(&me) {
            return;
        }
        let old = self.scores.get(&pk).copied();
        if let Some(undo) = self.undo.get_mut(&me) {
            undo.scores.entry(pk).or_insert(old);
        }
    }

    /// Current score of a target key.
    pub fn score_of(&self, pk: i64) -> Option<f64> {
        self.scores.get(&pk).copied()
    }

    /// All materialized `(pk, score)` rows.
    pub fn all_scores(&self) -> Vec<(i64, f64)> {
        let mut rows: Vec<(i64, f64)> = self.scores.iter().map(|(&k, &v)| (k, v)).collect();
        rows.sort_by_key(|&(k, _)| k);
        rows
    }

    /// Number of materialized rows.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// True when no rows are materialized.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    fn recompute(&mut self, pk: i64) {
        if !self.target_pks.contains(&pk) {
            return;
        }
        let values: Vec<f64> = self
            .spec
            .components
            .iter()
            .enumerate()
            .map(|(i, comp)| {
                let (sum, count) = self.state[i].get(&pk).copied().unwrap_or((0.0, 0));
                comp.value_from_state(sum, count)
            })
            .collect();
        let score = self.spec.agg.eval(&values).max(0.0);
        self.capture_score(pk);
        let changed = self.scores.insert(pk, score) != Some(score);
        if changed {
            if let Some(listener) = &self.listener {
                listener(pk, score);
            }
        }
    }

    /// Handle a change to the *target* table (documents appearing or
    /// disappearing).
    pub fn apply_target_change(&mut self, schema: &Schema, change: &RowChange) {
        let pk_of = |row: &[Value]| row[schema.pk].as_i64();
        match change {
            RowChange::Inserted { new } => {
                if let Some(pk) = pk_of(new) {
                    self.capture_target(pk);
                    self.target_pks.insert(pk);
                    self.recompute(pk);
                }
            }
            RowChange::Deleted { old } => {
                if let Some(pk) = pk_of(old) {
                    self.capture_target(pk);
                    self.capture_score(pk);
                    self.target_pks.remove(&pk);
                    self.scores.remove(&pk);
                }
            }
            RowChange::Updated { .. } => {
                // Structured columns of the target table itself can be used
                // via ColumnOf components, which route through
                // apply_source_change; a plain update changes no keys.
            }
        }
    }

    /// Handle a change to a *source* table feeding component `comp_idx`.
    pub fn apply_source_change(
        &mut self,
        comp_idx: usize,
        schema: &Schema,
        change: &RowChange,
    ) -> crate::error::Result<()> {
        let comp = self.spec.components[comp_idx].clone();
        let (removed, added) = match change {
            RowChange::Inserted { new } => (None, comp.extract(schema, new)?),
            RowChange::Updated { old, new } => {
                (comp.extract(schema, old)?, comp.extract(schema, new)?)
            }
            RowChange::Deleted { old } => (comp.extract(schema, old)?, None),
        };
        let mut touched = Vec::new();
        if let Some((pk, val)) = removed {
            self.capture_state(comp_idx, pk);
            let entry = self.state[comp_idx].entry(pk).or_insert((0.0, 0));
            entry.0 -= val;
            entry.1 = entry.1.saturating_sub(1);
            touched.push(pk);
        }
        if let Some((pk, val)) = added {
            self.capture_state(comp_idx, pk);
            let entry = self.state[comp_idx].entry(pk).or_insert((0.0, 0));
            entry.0 += val;
            entry.1 += 1;
            touched.push(pk);
        }
        touched.dedup();
        for pk in touched {
            self.recompute(pk);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn movies_schema() -> Schema {
        Schema::new(
            "movies",
            &[("mid", ColumnType::Int), ("desc", ColumnType::Text)],
            0,
        )
    }

    fn reviews_schema() -> Schema {
        Schema::new(
            "reviews",
            &[
                ("rid", ColumnType::Int),
                ("mid", ColumnType::Int),
                ("rating", ColumnType::Float),
            ],
            0,
        )
    }

    fn avg_spec() -> SvrSpec {
        SvrSpec::new(
            vec![ScoreComponent::AvgOf {
                table: "reviews".into(),
                fk_col: "mid".into(),
                val_col: "rating".into(),
            }],
            AggExpr::parse("s1 * 100").unwrap(),
        )
    }

    fn movie_row(mid: i64) -> RowChange {
        RowChange::Inserted {
            new: vec![Value::Int(mid), Value::Text("d".into())],
        }
    }

    fn review_row(rid: i64, mid: i64, rating: f64) -> Vec<Value> {
        vec![Value::Int(rid), Value::Int(mid), Value::Float(rating)]
    }

    #[test]
    fn incremental_average() {
        let mut view = ScoreView::new("movies", avg_spec());
        view.apply_target_change(&movies_schema(), &movie_row(1));
        assert_eq!(view.score_of(1), Some(0.0));

        let rs = reviews_schema();
        view.apply_source_change(
            0,
            &rs,
            &RowChange::Inserted {
                new: review_row(10, 1, 4.0),
            },
        )
        .unwrap();
        assert_eq!(view.score_of(1), Some(400.0));
        view.apply_source_change(
            0,
            &rs,
            &RowChange::Inserted {
                new: review_row(11, 1, 2.0),
            },
        )
        .unwrap();
        assert_eq!(view.score_of(1), Some(300.0));
        // Update a review.
        view.apply_source_change(
            0,
            &rs,
            &RowChange::Updated {
                old: review_row(11, 1, 2.0),
                new: review_row(11, 1, 4.0),
            },
        )
        .unwrap();
        assert_eq!(view.score_of(1), Some(400.0));
        // Delete one.
        view.apply_source_change(
            0,
            &rs,
            &RowChange::Deleted {
                old: review_row(10, 1, 4.0),
            },
        )
        .unwrap();
        assert_eq!(view.score_of(1), Some(400.0));
    }

    #[test]
    fn listener_fires_on_change_only() {
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = count.clone();
        let mut view = ScoreView::new("movies", avg_spec());
        view.set_listener(Box::new(move |_pk, _score| {
            c2.fetch_add(1, Ordering::SeqCst);
        }));
        view.apply_target_change(&movies_schema(), &movie_row(1));
        let after_insert = count.load(Ordering::SeqCst); // initial 0-score fires once
        let rs = reviews_schema();
        view.apply_source_change(
            0,
            &rs,
            &RowChange::Inserted {
                new: review_row(10, 1, 4.0),
            },
        )
        .unwrap();
        assert_eq!(count.load(Ordering::SeqCst), after_insert + 1);
        // A no-op change (same rating) must not fire.
        view.apply_source_change(
            0,
            &rs,
            &RowChange::Updated {
                old: review_row(10, 1, 4.0),
                new: review_row(10, 1, 4.0),
            },
        )
        .unwrap();
        assert_eq!(count.load(Ordering::SeqCst), after_insert + 1);
    }

    #[test]
    fn reviews_for_unknown_movies_ignored() {
        let mut view = ScoreView::new("movies", avg_spec());
        let rs = reviews_schema();
        view.apply_source_change(
            0,
            &rs,
            &RowChange::Inserted {
                new: review_row(10, 99, 4.0),
            },
        )
        .unwrap();
        assert_eq!(view.score_of(99), None);
        // The state is kept: if movie 99 appears later, its reviews count.
        view.apply_target_change(&movies_schema(), &movie_row(99));
        assert_eq!(view.score_of(99), Some(400.0));
    }

    #[test]
    fn deleting_target_drops_score() {
        let mut view = ScoreView::new("movies", avg_spec());
        view.apply_target_change(&movies_schema(), &movie_row(1));
        view.apply_target_change(
            &movies_schema(),
            &RowChange::Deleted {
                old: vec![Value::Int(1), Value::Text("d".into())],
            },
        );
        assert_eq!(view.score_of(1), None);
        assert!(view.is_empty());
    }

    #[test]
    fn undo_rollback_restores_exact_state() {
        let mut view = ScoreView::new("movies", avg_spec());
        let (ms, rs) = (movies_schema(), reviews_schema());
        view.apply_target_change(&ms, &movie_row(1));
        view.apply_source_change(
            0,
            &rs,
            &RowChange::Inserted {
                new: review_row(10, 1, 4.0),
            },
        )
        .unwrap();
        assert_eq!(view.score_of(1), Some(400.0));

        view.begin_undo();
        // A batch that touches existing state, adds a target, and deletes
        // one — then rolls back.
        view.apply_source_change(
            0,
            &rs,
            &RowChange::Updated {
                old: review_row(10, 1, 4.0),
                new: review_row(10, 1, 1.0),
            },
        )
        .unwrap();
        view.apply_target_change(&ms, &movie_row(2));
        view.apply_source_change(
            0,
            &rs,
            &RowChange::Inserted {
                new: review_row(11, 2, 3.0),
            },
        )
        .unwrap();
        view.apply_target_change(
            &ms,
            &RowChange::Deleted {
                old: vec![Value::Int(1), Value::Text("d".into())],
            },
        );
        assert_eq!(view.score_of(1), None);
        assert_eq!(view.score_of(2), Some(300.0));
        view.rollback_undo();

        assert_eq!(view.score_of(1), Some(400.0), "movie 1 restored exactly");
        assert_eq!(view.score_of(2), None, "movie 2 never existed");
        assert_eq!(view.len(), 1);
        // Rolled-back state keeps evolving correctly.
        view.apply_source_change(
            0,
            &rs,
            &RowChange::Inserted {
                new: review_row(12, 1, 2.0),
            },
        )
        .unwrap();
        assert_eq!(view.score_of(1), Some(300.0));
    }

    #[test]
    fn undo_commit_discards_capture() {
        let mut view = ScoreView::new("movies", avg_spec());
        view.apply_target_change(&movies_schema(), &movie_row(1));
        view.begin_undo();
        view.apply_source_change(
            0,
            &reviews_schema(),
            &RowChange::Inserted {
                new: review_row(10, 1, 5.0),
            },
        )
        .unwrap();
        view.commit_undo();
        // A rollback after commit is a no-op: the batch stays applied.
        view.rollback_undo();
        assert_eq!(view.score_of(1), Some(500.0));
    }

    #[test]
    fn rollback_recompute_notifies_changed_keys() {
        let last = Arc::new(std::sync::atomic::AtomicI64::new(-1));
        let l2 = last.clone();
        let mut view = ScoreView::new("movies", avg_spec());
        view.apply_target_change(&movies_schema(), &movie_row(1));
        view.apply_source_change(
            0,
            &reviews_schema(),
            &RowChange::Inserted {
                new: review_row(10, 1, 4.0),
            },
        )
        .unwrap();
        view.set_listener(Box::new(move |_pk, score| {
            l2.store(score as i64, Ordering::SeqCst);
        }));
        view.begin_undo();
        view.apply_source_change(
            0,
            &reviews_schema(),
            &RowChange::Updated {
                old: review_row(10, 1, 4.0),
                new: review_row(10, 1, 1.0),
            },
        )
        .unwrap();
        assert_eq!(last.load(Ordering::SeqCst), 100);
        view.rollback_undo();
        // The rollback's recompute re-notified with the restored score, so
        // a deferred index refresh converges to the rolled-back truth.
        assert_eq!(last.load(Ordering::SeqCst), 400);
    }

    #[test]
    fn negative_aggregates_clamp_to_zero() {
        let spec = SvrSpec::new(
            vec![ScoreComponent::SumOf {
                table: "reviews".into(),
                fk_col: "mid".into(),
                val_col: "rating".into(),
            }],
            AggExpr::parse("s1 - 1000").unwrap(),
        );
        let mut view = ScoreView::new("movies", spec);
        view.apply_target_change(&movies_schema(), &movie_row(1));
        assert_eq!(view.score_of(1), Some(0.0), "scores must stay non-negative");
    }
}
