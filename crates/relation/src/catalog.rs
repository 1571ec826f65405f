//! The database catalog: tables, score views, and change routing.
//!
//! [`Database`] is the thin relational engine of the paper's Figure 2: it
//! owns the tables, routes every row change through the materialized score
//! views, and exposes the scores (and their change notifications) that the
//! text-index layer consumes.
//!
//! ## Concurrency
//!
//! Every method takes `&self`; a `Database` can be shared across threads
//! (behind an `Arc` or inside a larger shared engine). Internally the
//! catalog maps are behind `RwLock`s, each table carries a writer lock
//! serializing same-table mutations (the storage B+-trees are themselves
//! internally latched, the writer lock makes *check-then-write* sequences
//! like duplicate-key detection atomic), and each view sits behind a
//! `Mutex` so change routing from concurrent writers of *different* tables
//! still updates view state one change at a time. Reads (`table`, `get`,
//! `scan`, `score_of`) never take a writer lock and run concurrently with
//! each other and with writers.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use svr_storage::{BTree, StorageEnv, WalBatch};

use crate::codec;
use crate::error::{RelationError, Result};
use crate::schema::Schema;
use crate::table::{RowChange, Table};
use crate::value::Value;
use crate::view::{ScoreListener, ScoreView, SvrSpec};

/// Name of the system catalog store inside a durable environment.
pub const SYS_CATALOG_STORE: &str = "sys/catalog";

/// Catalog-key prefixes: table schemas and score-view definitions.
const KEY_TABLE: u8 = b't';
const KEY_VIEW: u8 = b'v';

fn catalog_key(prefix: u8, name: &str) -> Vec<u8> {
    let mut k = Vec::with_capacity(2 + name.len());
    k.push(prefix);
    k.push(b'/');
    k.extend_from_slice(name.as_bytes());
    k
}

/// One table plus the writer lock serializing its mutations.
struct TableSlot {
    table: Arc<Table>,
    write_lock: Mutex<()>,
}

/// A small relational database with materialized SVR score views.
///
/// A database can be **durable**: created with [`Database::with_env`] over
/// a durable [`StorageEnv`], it writes every DDL change (table schemas,
/// score-view definitions) through to a versioned system catalog in the
/// same environment, and [`Database::open_env`] recovers the complete
/// relational state — tables reattach to their recovered stores, views are
/// re-materialized from the recovered base rows — after a crash or
/// process restart.
pub struct Database {
    env: Arc<StorageEnv>,
    tables: RwLock<HashMap<String, Arc<TableSlot>>>,
    views: RwLock<HashMap<String, Arc<Mutex<ScoreView>>>>,
    /// The system catalog tree (None for a plain in-memory database).
    catalog: Option<BTree>,
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

impl Database {
    /// Create an empty database.
    pub fn new() -> Database {
        Database {
            env: Arc::new(StorageEnv::default()),
            tables: RwLock::new(HashMap::new()),
            views: RwLock::new(HashMap::new()),
            catalog: None,
        }
    }

    /// Bootstrap an empty **durable** database inside `env` (which should
    /// come from [`StorageEnv::new_durable`] or [`StorageEnv::open_dir`]):
    /// the system catalog store is created and every later DDL change
    /// writes through to it.
    pub fn with_env(env: Arc<StorageEnv>) -> Result<Database> {
        let store = env.create_logged_store(SYS_CATALOG_STORE, 64);
        let catalog = BTree::create_durable(store)?;
        Ok(Database {
            env,
            tables: RwLock::new(HashMap::new()),
            views: RwLock::new(HashMap::new()),
            catalog: Some(catalog),
        })
    }

    /// Recover a durable database from `env`: replay the catalog store's
    /// log, reattach every cataloged table to its recovered store, and
    /// re-materialize every cataloged score view from the recovered base
    /// rows (the view fold is deterministic, so recomputed aggregates
    /// match the crashed instance whenever their arithmetic is exact).
    pub fn open_env(env: Arc<StorageEnv>) -> Result<Database> {
        if !env.store_exists(SYS_CATALOG_STORE) {
            return Err(RelationError::Storage(svr_storage::StorageError::Corrupt(
                "no system catalog in environment (not created with Database::with_env?)",
            )));
        }
        let store = env.create_logged_store(SYS_CATALOG_STORE, 64);
        store.recover()?;
        let catalog = BTree::reopen(store, 0)?;
        // Snapshot both record families before the catalog moves into the
        // struct (the records are owned, so no borrow outlives the move).
        let table_records = catalog.scan_prefix(&[KEY_TABLE, b'/'])?;
        let view_records = catalog.scan_prefix(&[KEY_VIEW, b'/'])?;

        let db = Database {
            env,
            tables: RwLock::new(HashMap::new()),
            views: RwLock::new(HashMap::new()),
            catalog: Some(catalog),
        };
        // Tables first (views validate their tables).
        for (_, raw) in table_records {
            let schema = codec::decode_schema(&raw)?;
            let store = db
                .env
                .create_logged_store(&format!("table:{}", schema.name), 1024);
            store.recover()?;
            let name = schema.name.clone();
            let slot = TableSlot {
                table: Arc::new(Table::open(schema, store)?),
                write_lock: Mutex::new(()),
            };
            db.tables.write().insert(name, Arc::new(slot));
        }
        for (key, raw) in view_records {
            let name = std::str::from_utf8(&key[2..])
                .map_err(|_| {
                    RelationError::Storage(svr_storage::StorageError::Corrupt("view key"))
                })?
                .to_string();
            let (target, spec) = codec::decode_view(&raw)?;
            db.materialize_view(&name, &target, spec)?;
        }
        Ok(db)
    }

    /// True when this database persists its catalog (built by
    /// [`Database::with_env`] / [`Database::open_env`]).
    pub fn is_durable(&self) -> bool {
        self.catalog.is_some()
    }

    /// Write a catalog record (no-op for in-memory databases). Each put is
    /// sealed by its own commit marker, so a crash mid-DDL leaves either
    /// the old record set or the new one — never a torn record.
    fn persist_catalog(&self, key: Vec<u8>, value: &[u8]) -> Result<()> {
        if let Some(catalog) = &self.catalog {
            catalog.put(&key, value)?;
        }
        Ok(())
    }

    fn remove_catalog(&self, key: Vec<u8>) -> Result<()> {
        if let Some(catalog) = &self.catalog {
            catalog.delete(&key)?;
        }
        Ok(())
    }

    /// Storage environment (I/O statistics).
    pub fn env(&self) -> &Arc<StorageEnv> {
        &self.env
    }

    /// Create a table. Table stores are **write-ahead-logged**: every page
    /// write is logged before buffering, and the engine brackets each write
    /// transaction's commits into one recoverable batch (see
    /// [`Database::wal_batch`]).
    pub fn create_table(&self, schema: Schema) -> Result<()> {
        let mut tables = self.tables.write();
        if tables.contains_key(&schema.name) {
            return Err(RelationError::DuplicateTable(schema.name));
        }
        // A crash between a drop's catalog delete and its store removal can
        // leave an orphaned store; creating over it would mislocate the new
        // table's metadata page. The catalog has no record, so it is dead
        // weight — clear it.
        self.env.remove_store(&format!("table:{}", schema.name));
        let store = self
            .env
            .create_logged_store(&format!("table:{}", schema.name), 1024);
        let name = schema.name.clone();
        let record = codec::encode_schema(&schema);
        let slot = TableSlot {
            table: Arc::new(Table::create(schema, store)?),
            write_lock: Mutex::new(()),
        };
        tables.insert(name.clone(), Arc::new(slot));
        // Record last: a crash mid-create recovers to "no table" (the
        // orphaned store is reclaimed by a later create of the same name).
        self.persist_catalog(catalog_key(KEY_TABLE, &name), &record)?;
        Ok(())
    }

    /// Drop a table, freeing its backing store. Fails while any score view
    /// targets or sources it (drop the dependent view — in the engine, the
    /// text index — first).
    pub fn drop_table(&self, name: &str) -> Result<()> {
        for (view_name, view) in self.views.read().iter() {
            let view = view.lock();
            let depends = view.target_table == name
                || view
                    .spec
                    .components
                    .iter()
                    .any(|c| c.source_table() == Some(name));
            if depends {
                return Err(RelationError::TableInUse {
                    table: name.to_string(),
                    view: view_name.clone(),
                });
            }
        }
        self.tables
            .write()
            .remove(name)
            .ok_or_else(|| RelationError::UnknownTable(name.to_string()))?;
        // Delete the catalog record first: if we crash between the two
        // steps, recovery sees no record and ignores the orphaned store
        // (which a later create of the same name truncates) — the reverse
        // order could resurrect a dropped table from its surviving store.
        self.remove_catalog(catalog_key(KEY_TABLE, name))?;
        // Free the dropped table's pages: without this the environment
        // retains every store ever created, and re-creating the table would
        // silently reattach to the old one.
        self.env.remove_store(&format!("table:{name}"));
        Ok(())
    }

    fn slot(&self, name: &str) -> Result<Arc<TableSlot>> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| RelationError::UnknownTable(name.to_string()))
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        Ok(self.slot(name)?.table.clone())
    }

    /// Names of all tables (unordered).
    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().keys().cloned().collect()
    }

    /// Create a materialized score view over `target_table`. Existing rows
    /// are folded in immediately.
    pub fn create_score_view(&self, name: &str, target_table: &str, spec: SvrSpec) -> Result<()> {
        if self.views.read().contains_key(name) {
            return Err(RelationError::DuplicateView(name.to_string()));
        }
        let record = codec::encode_view(target_table, &spec);
        self.materialize_view(name, target_table, spec)?;
        // Record last: a crash mid-create recovers to "no view".
        self.persist_catalog(catalog_key(KEY_VIEW, name), &record)?;
        Ok(())
    }

    /// Validate, populate and register a view — the shared body of
    /// [`Database::create_score_view`] and catalog recovery (which must
    /// not re-persist the record it just read).
    fn materialize_view(&self, name: &str, target_table: &str, spec: SvrSpec) -> Result<()> {
        // Validate all referenced tables up front.
        self.table(target_table)?;
        for comp in &spec.components {
            if let Some(t) = comp.source_table() {
                self.table(t)?;
            }
        }
        let mut view = ScoreView::new(target_table, spec.clone());
        // Initial population: target keys first, then component sources.
        let target = self.table(target_table)?;
        for row in target.scan()? {
            view.apply_target_change(target.schema(), &RowChange::Inserted { new: row });
        }
        for (i, comp) in spec.components.iter().enumerate() {
            if let Some(source) = comp.source_table() {
                let table = self.table(source)?;
                for row in table.scan()? {
                    view.apply_source_change(i, table.schema(), &RowChange::Inserted { new: row })?;
                }
            }
        }
        let mut views = self.views.write();
        if views.contains_key(name) {
            return Err(RelationError::DuplicateView(name.to_string()));
        }
        views.insert(name.to_string(), Arc::new(Mutex::new(view)));
        Ok(())
    }

    /// Drop a score view.
    pub fn drop_score_view(&self, name: &str) -> Result<()> {
        self.views
            .write()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| RelationError::UnknownView(name.to_string()))?;
        self.remove_catalog(catalog_key(KEY_VIEW, name))?;
        Ok(())
    }

    /// Names of all score views (unordered).
    pub fn view_names(&self) -> Vec<String> {
        self.views.read().keys().cloned().collect()
    }

    fn view(&self, name: &str) -> Result<Arc<Mutex<ScoreView>>> {
        self.views
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| RelationError::UnknownView(name.to_string()))
    }

    /// Register the score-change listener of a view (the text index). The
    /// listener fires synchronously inside mutating calls; see
    /// [`ScoreListener`].
    pub fn set_score_listener(&self, view: &str, listener: ScoreListener) -> Result<()> {
        self.view(view)?.lock().set_listener(listener);
        Ok(())
    }

    /// Fire `view`'s listener once more with `pk`'s current score (see
    /// [`ScoreView::notify`]).
    pub fn notify_score(&self, view: &str, pk: i64) -> Result<()> {
        self.view(view)?.lock().notify(pk);
        Ok(())
    }

    /// Current score of a target key in a view.
    pub fn score_of(&self, view: &str, pk: i64) -> Result<f64> {
        self.view(view)?
            .lock()
            .score_of(pk)
            .ok_or_else(|| RelationError::MissingRow(pk.to_string()))
    }

    /// All `(pk, score)` rows of a view.
    pub fn all_scores(&self, view: &str) -> Result<Vec<(i64, f64)>> {
        Ok(self.view(view)?.lock().all_scores())
    }

    /// Route one committed change through every dependent view.
    fn route_change(&self, table: &Table, change: &RowChange) -> Result<()> {
        let schema = table.schema();
        for view in self.views.read().values() {
            let mut view = view.lock();
            if view.target_table == schema.name {
                view.apply_target_change(schema, change);
            }
            for i in 0..view.spec.components.len() {
                if view.spec.components[i].source_table() == Some(schema.name.as_str()) {
                    view.apply_source_change(i, schema, change)?;
                }
            }
        }
        Ok(())
    }

    /// Insert a row, maintaining every dependent view. Returns the change
    /// with the inserted row — the pre-image capture hook transactional
    /// callers build their undo log from.
    pub fn insert_row(&self, table: &str, row: Vec<Value>) -> Result<RowChange> {
        let slot = self.slot(table)?;
        let _write = slot.write_lock.lock();
        let change = slot.table.insert(row)?;
        self.route_change(&slot.table, &change)?;
        Ok(change)
    }

    /// Update named columns of a row, maintaining every dependent view.
    /// Returns the change carrying the captured pre-image row.
    pub fn update_row(
        &self,
        table: &str,
        pk: Value,
        updates: &[(String, Value)],
    ) -> Result<RowChange> {
        let slot = self.slot(table)?;
        let _write = slot.write_lock.lock();
        let change = slot.table.update(&pk, updates)?;
        self.route_change(&slot.table, &change)?;
        Ok(change)
    }

    /// Delete a row, maintaining every dependent view. Returns the change
    /// carrying the captured pre-image row.
    pub fn delete_row(&self, table: &str, pk: Value) -> Result<RowChange> {
        let slot = self.slot(table)?;
        let _write = slot.write_lock.lock();
        let change = slot.table.delete(&pk)?;
        self.route_change(&slot.table, &change)?;
        Ok(change)
    }

    /// Batch-rollback restore of a captured pre-image row: the inverse of
    /// an update or delete. Bypasses view routing — view state rolls back
    /// from its own captured pre-images ([`Database::begin_view_undo`]),
    /// so routing the restore would double-apply it.
    pub fn restore_row(&self, table: &str, row: Vec<Value>) -> Result<()> {
        let slot = self.slot(table)?;
        let _write = slot.write_lock.lock();
        slot.table.restore(row)
    }

    /// Batch-rollback inverse of an insert: remove the inserted row without
    /// view routing (see [`Database::restore_row`]).
    pub fn retract_row(&self, table: &str, pk: &Value) -> Result<()> {
        let slot = self.slot(table)?;
        let _write = slot.write_lock.lock();
        slot.table.retract(pk)
    }

    /// Begin undo capture **for the calling thread** on every view a write
    /// over `tables` can reach (see [`ScoreView::begin_undo`]). Call
    /// [`ViewUndoBracket::rollback`] to restore those views to their
    /// captured pre-batch state, or [`ViewUndoBracket::commit`] (or just
    /// drop the bracket) to discard the capture. Consume the bracket on
    /// the thread that created it.
    ///
    /// The bracket is `#[must_use]`: discarding it would end the capture
    /// before the batch runs, so the workspace denies that at compile time.
    ///
    /// ```compile_fail
    /// #![deny(unused_must_use)]
    /// let db = svr_relation::Database::new();
    /// db.begin_view_undo(&["t".to_string()]);
    /// ```
    pub fn begin_view_undo(&self, tables: &[String]) -> ViewUndoBracket {
        let views = self.views_touching(tables);
        for view in &views {
            view.lock().begin_undo();
        }
        ViewUndoBracket { views }
    }

    /// The views whose state a change to any of `tables` can move — the
    /// same target/source dependency test [`Database::route_change`]
    /// applies per change.
    fn views_touching(&self, tables: &[String]) -> Vec<Arc<Mutex<ScoreView>>> {
        self.views
            .read()
            .values()
            .filter(|v| v.lock().depends_on_any(tables))
            .cloned()
            .collect()
    }

    /// Bracket the write-ahead-log commits of `tables`' stores (see
    /// [`WalBatch`]): until [`WalBatch::finish`], every structure-level
    /// commit of those stores is held back, and finishing seals all of it —
    /// mutations *and* any undo images a rollback appended — under one
    /// commit marker per store. A crash anywhere inside the bracket
    /// therefore recovers every table to its pre-bracket state. Finishing
    /// also checkpoints each store whose log outgrew the environment's
    /// auto-checkpoint threshold ([`WalBatch::finish`]); the caller holds
    /// the tables' writer locks for the whole bracket.
    pub fn wal_batch(&self, tables: &[String]) -> Result<WalBatch> {
        let stores = tables
            .iter()
            .map(|name| Ok(self.slot(name)?.table.store().clone()))
            .collect::<Result<Vec<_>>>()?;
        Ok(WalBatch::begin(stores))
    }
}

/// Undo capture across every view of a database for one thread's write
/// batch (see [`Database::begin_view_undo`]). Dropping without calling
/// [`ViewUndoBracket::rollback`] commits (discards the capture).
#[must_use = "dropping the bracket at once commits an empty capture"]
pub struct ViewUndoBracket {
    views: Vec<Arc<Mutex<ScoreView>>>,
}

impl ViewUndoBracket {
    /// Discard the capture — the batch committed. (Equivalent to dropping
    /// the bracket; spelled out so call sites read transactionally.)
    pub fn commit(self) {}

    /// Restore every bracketed view to its captured pre-batch state (see
    /// [`ScoreView::rollback_undo`] for the exactness and concurrency
    /// semantics).
    pub fn rollback(mut self) {
        for view in std::mem::take(&mut self.views) {
            view.lock().rollback_undo();
        }
    }
}

impl Drop for ViewUndoBracket {
    fn drop(&mut self) {
        for view in &self.views {
            view.lock().commit_undo();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggexpr::AggExpr;
    use crate::functions::ScoreComponent;
    use crate::schema::ColumnType;
    use std::sync::atomic::{AtomicI64, Ordering};

    /// Build the paper's example database: Movies, Reviews, Statistics with
    /// Agg = s1*100 + s2/2 + s3.
    fn paper_db() -> Database {
        let db = Database::new();
        db.create_table(Schema::new(
            "movies",
            &[("mid", ColumnType::Int), ("desc", ColumnType::Text)],
            0,
        ))
        .unwrap();
        db.create_table(Schema::new(
            "reviews",
            &[
                ("rid", ColumnType::Int),
                ("mid", ColumnType::Int),
                ("rating", ColumnType::Float),
            ],
            0,
        ))
        .unwrap();
        db.create_table(Schema::new(
            "statistics",
            &[
                ("mid", ColumnType::Int),
                ("nvisit", ColumnType::Int),
                ("ndownload", ColumnType::Int),
            ],
            0,
        ))
        .unwrap();
        let spec = SvrSpec::new(
            vec![
                ScoreComponent::AvgOf {
                    table: "reviews".into(),
                    fk_col: "mid".into(),
                    val_col: "rating".into(),
                },
                ScoreComponent::ColumnOf {
                    table: "statistics".into(),
                    key_col: "mid".into(),
                    val_col: "nvisit".into(),
                },
                ScoreComponent::ColumnOf {
                    table: "statistics".into(),
                    key_col: "mid".into(),
                    val_col: "ndownload".into(),
                },
            ],
            AggExpr::parse("s1*100 + s2/2 + s3").unwrap(),
        );
        db.create_score_view("scores", "movies", spec).unwrap();
        db
    }

    #[test]
    fn paper_example_end_to_end() {
        let db = paper_db();
        db.insert_row(
            "movies",
            vec![Value::Int(1), Value::Text("american thrift".into())],
        )
        .unwrap();
        db.insert_row(
            "reviews",
            vec![Value::Int(100), Value::Int(1), Value::Float(4.5)],
        )
        .unwrap();
        db.insert_row(
            "reviews",
            vec![Value::Int(101), Value::Int(1), Value::Float(3.5)],
        )
        .unwrap();
        db.insert_row(
            "statistics",
            vec![Value::Int(1), Value::Int(2000), Value::Int(300)],
        )
        .unwrap();
        // Agg = avg(4.5, 3.5)*100 + 2000/2 + 300 = 400 + 1000 + 300.
        assert_eq!(db.score_of("scores", 1).unwrap(), 1700.0);

        // A flash crowd: visits spike.
        db.update_row(
            "statistics",
            Value::Int(1),
            &[("nvisit".to_string(), Value::Int(100_000))],
        )
        .unwrap();
        assert_eq!(db.score_of("scores", 1).unwrap(), 400.0 + 50_000.0 + 300.0);
    }

    #[test]
    fn listener_receives_updates() {
        let db = paper_db();
        db.insert_row("movies", vec![Value::Int(1), Value::Text("m".into())])
            .unwrap();
        let last = std::sync::Arc::new(AtomicI64::new(-1));
        let l2 = last.clone();
        db.set_score_listener(
            "scores",
            Box::new(move |pk, score| {
                l2.store((pk * 1_000_000) + score as i64, Ordering::SeqCst);
            }),
        )
        .unwrap();
        db.insert_row(
            "statistics",
            vec![Value::Int(1), Value::Int(500), Value::Int(0)],
        )
        .unwrap();
        assert_eq!(last.load(Ordering::SeqCst), 1_000_000 + 250);
    }

    #[test]
    fn view_populates_from_existing_rows() {
        let db = paper_db();
        db.insert_row("movies", vec![Value::Int(7), Value::Text("late".into())])
            .unwrap();
        db.insert_row(
            "reviews",
            vec![Value::Int(1), Value::Int(7), Value::Float(5.0)],
        )
        .unwrap();
        // A second view created after the data exists sees it all.
        let spec = SvrSpec::single(ScoreComponent::AvgOf {
            table: "reviews".into(),
            fk_col: "mid".into(),
            val_col: "rating".into(),
        });
        db.create_score_view("v2", "movies", spec).unwrap();
        assert_eq!(db.score_of("v2", 7).unwrap(), 5.0);
    }

    #[test]
    fn errors_for_unknown_objects() {
        let db = paper_db();
        assert!(db.insert_row("nope", vec![]).is_err());
        assert!(db.score_of("nope", 1).is_err());
        assert!(db
            .create_score_view(
                "bad",
                "movies",
                SvrSpec::single(ScoreComponent::CountOf {
                    table: "missing".into(),
                    fk_col: "x".into(),
                }),
            )
            .is_err());
        // Duplicate view name.
        assert!(db
            .create_score_view(
                "scores",
                "movies",
                SvrSpec::single(ScoreComponent::Const(1.0))
            )
            .is_err());
    }

    #[test]
    fn deleting_reviews_lowers_score() {
        let db = paper_db();
        db.insert_row("movies", vec![Value::Int(1), Value::Text("m".into())])
            .unwrap();
        db.insert_row(
            "reviews",
            vec![Value::Int(100), Value::Int(1), Value::Float(5.0)],
        )
        .unwrap();
        db.insert_row(
            "reviews",
            vec![Value::Int(101), Value::Int(1), Value::Float(1.0)],
        )
        .unwrap();
        assert_eq!(db.score_of("scores", 1).unwrap(), 300.0);
        db.delete_row("reviews", Value::Int(101)).unwrap();
        assert_eq!(db.score_of("scores", 1).unwrap(), 500.0);
    }

    #[test]
    fn drop_table_requires_no_dependents() {
        let db = paper_db();
        // All three tables feed the "scores" view: the target directly, the
        // other two as component sources.
        for t in ["movies", "reviews", "statistics"] {
            assert!(
                matches!(db.drop_table(t), Err(RelationError::TableInUse { .. })),
                "{t}"
            );
        }
        db.drop_score_view("scores").unwrap();
        db.drop_table("reviews").unwrap();
        assert!(db.table("reviews").is_err());
        assert!(db.drop_table("reviews").is_err(), "double drop");
        assert!(db.drop_score_view("scores").is_err(), "double view drop");
    }

    #[test]
    fn drop_table_frees_backing_store() {
        let db = paper_db();
        db.drop_score_view("scores").unwrap();
        for i in 0..32 {
            db.insert_row(
                "reviews",
                vec![Value::Int(i), Value::Int(i), Value::Float(1.0)],
            )
            .unwrap();
        }
        assert!(db.env().store("table:reviews").is_some());
        db.drop_table("reviews").unwrap();
        assert!(
            db.env().store("table:reviews").is_none(),
            "dropped table's store must be freed"
        );
        // Re-creating the table starts from an empty store.
        db.create_table(Schema::new(
            "reviews",
            &[("rid", ColumnType::Int), ("rating", ColumnType::Float)],
            0,
        ))
        .unwrap();
        assert!(db.table("reviews").unwrap().scan().unwrap().is_empty());
    }

    #[test]
    fn restore_and_retract_bypass_views() {
        let db = paper_db();
        db.insert_row("movies", vec![Value::Int(1), Value::Text("m".into())])
            .unwrap();
        db.insert_row(
            "statistics",
            vec![Value::Int(1), Value::Int(100), Value::Int(0)],
        )
        .unwrap();
        let score = db.score_of("scores", 1).unwrap();

        // Retract the statistics row directly: the table loses it but the
        // view keeps its state (view rollback is a separate mechanism).
        db.retract_row("statistics", &Value::Int(1)).unwrap();
        assert!(db
            .table("statistics")
            .unwrap()
            .get(&Value::Int(1))
            .unwrap()
            .is_none());
        assert_eq!(db.score_of("scores", 1).unwrap(), score);

        // Restore puts the pre-image back, again without view routing.
        db.restore_row(
            "statistics",
            vec![Value::Int(1), Value::Int(100), Value::Int(0)],
        )
        .unwrap();
        assert_eq!(
            db.table("statistics").unwrap().get(&Value::Int(1)).unwrap(),
            Some(vec![Value::Int(1), Value::Int(100), Value::Int(0)])
        );
    }

    #[test]
    fn view_undo_bracket_rolls_back_all_views() {
        let db = paper_db();
        db.insert_row("movies", vec![Value::Int(1), Value::Text("m".into())])
            .unwrap();
        db.insert_row(
            "statistics",
            vec![Value::Int(1), Value::Int(100), Value::Int(0)],
        )
        .unwrap();
        assert_eq!(db.score_of("scores", 1).unwrap(), 50.0);

        let undo = db.begin_view_undo(&["statistics".to_string()]);
        db.update_row(
            "statistics",
            Value::Int(1),
            &[("nvisit".to_string(), Value::Int(9_000))],
        )
        .unwrap();
        assert_eq!(db.score_of("scores", 1).unwrap(), 4_500.0);
        undo.rollback();
        assert_eq!(db.score_of("scores", 1).unwrap(), 50.0);
        // But the *table* still holds the new row: view rollback restores
        // view state only; callers pair it with restore_row/retract_row.
        assert_eq!(
            db.table("statistics").unwrap().get(&Value::Int(1)).unwrap(),
            Some(vec![Value::Int(1), Value::Int(9_000), Value::Int(0)])
        );
    }

    #[test]
    fn view_undo_brackets_scope_to_dependent_views() {
        let db = paper_db();
        db.insert_row("movies", vec![Value::Int(1), Value::Text("m".into())])
            .unwrap();
        db.insert_row(
            "statistics",
            vec![Value::Int(1), Value::Int(100), Value::Int(0)],
        )
        .unwrap();
        // A table no existing view depends on: a bracket scoped to it must
        // not capture (and so not roll back) the "scores" view.
        db.create_table(Schema::new(
            "other",
            &[("id", ColumnType::Int), ("v", ColumnType::Int)],
            0,
        ))
        .unwrap();
        let unrelated = db.begin_view_undo(&["other".to_string()]);
        db.update_row(
            "statistics",
            Value::Int(1),
            &[("nvisit".to_string(), Value::Int(9_000))],
        )
        .unwrap();
        unrelated.rollback();
        assert_eq!(
            db.score_of("scores", 1).unwrap(),
            4_500.0,
            "the scores view is outside the bracket's scope"
        );
        // A *source* table of the view is in scope, like its target.
        let sourced = db.begin_view_undo(&["statistics".to_string()]);
        db.update_row(
            "statistics",
            Value::Int(1),
            &[("nvisit".to_string(), Value::Int(100))],
        )
        .unwrap();
        sourced.rollback();
        assert_eq!(db.score_of("scores", 1).unwrap(), 4_500.0, "rolled back");
    }

    #[test]
    fn wal_batch_groups_table_commits() {
        let db = paper_db();
        let movies = db.table("movies").unwrap();
        let wal = movies.store().wal().expect("table stores are logged");
        let sealed_before = wal.committed_pages().unwrap().len();
        let batch = db.wal_batch(&["movies".to_string()]).unwrap();
        db.insert_row("movies", vec![Value::Int(1), Value::Text("a".into())])
            .unwrap();
        db.insert_row("movies", vec![Value::Int(2), Value::Text("b".into())])
            .unwrap();
        assert!(wal.stats().uncommitted > 0, "the inserts' markers are held");
        assert_eq!(
            wal.committed_pages().unwrap().len(),
            sealed_before,
            "nothing new is sealed mid-bracket"
        );
        batch.finish().unwrap();
        assert_eq!(wal.stats().uncommitted, 0);
        assert!(
            wal.committed_pages().unwrap().len() > sealed_before,
            "closing the bracket seals the batch"
        );
    }

    #[test]
    fn durable_database_recovers_catalog_tables_and_views() {
        let env = Arc::new(StorageEnv::new_durable(svr_storage::DEFAULT_PAGE_SIZE));
        {
            let db = Database::with_env(env.clone()).unwrap();
            db.create_table(Schema::new(
                "movies",
                &[("mid", ColumnType::Int), ("desc", ColumnType::Text)],
                0,
            ))
            .unwrap();
            db.create_table(Schema::new(
                "statistics",
                &[("mid", ColumnType::Int), ("nvisit", ColumnType::Int)],
                0,
            ))
            .unwrap();
            db.create_score_view(
                "scores",
                "movies",
                SvrSpec::new(
                    vec![ScoreComponent::ColumnOf {
                        table: "statistics".into(),
                        key_col: "mid".into(),
                        val_col: "nvisit".into(),
                    }],
                    AggExpr::parse("s1/2").unwrap(),
                ),
            )
            .unwrap();
            db.insert_row("movies", vec![Value::Int(1), Value::Text("m".into())])
                .unwrap();
            db.insert_row("statistics", vec![Value::Int(1), Value::Int(500)])
                .unwrap();
            assert_eq!(db.score_of("scores", 1).unwrap(), 250.0);
        }
        env.crash();
        let db = Database::open_env(env.clone()).unwrap();
        let mut names = db.table_names();
        names.sort();
        assert_eq!(names, vec!["movies", "statistics"]);
        assert_eq!(
            db.table("movies").unwrap().get(&Value::Int(1)).unwrap(),
            Some(vec![Value::Int(1), Value::Text("m".into())])
        );
        // The view re-materialized from the recovered rows.
        assert_eq!(db.score_of("scores", 1).unwrap(), 250.0);
        // And keeps maintaining itself.
        db.update_row(
            "statistics",
            Value::Int(1),
            &[("nvisit".to_string(), Value::Int(900))],
        )
        .unwrap();
        assert_eq!(db.score_of("scores", 1).unwrap(), 450.0);
        // Dropped objects stay dropped across another crash + reopen.
        db.drop_score_view("scores").unwrap();
        db.drop_table("statistics").unwrap();
        env.crash();
        let db = Database::open_env(env).unwrap();
        assert_eq!(db.table_names(), vec!["movies"]);
        assert!(db.score_of("scores", 1).is_err());
        // Re-creating the dropped table starts empty.
        db.create_table(Schema::new(
            "statistics",
            &[("mid", ColumnType::Int), ("nvisit", ColumnType::Int)],
            0,
        ))
        .unwrap();
        assert!(db.table("statistics").unwrap().scan().unwrap().is_empty());
    }

    #[test]
    fn checkpoint_threshold_is_configurable() {
        let db = paper_db();
        assert_eq!(db.env().wal_checkpoint_bytes(), 1 << 20);
        db.env().set_wal_checkpoint_bytes(1);
        let movies = db.table("movies").unwrap();
        let wal = movies.store().wal().unwrap().clone();
        db.insert_row("movies", vec![Value::Int(1), Value::Text("a".into())])
            .unwrap();
        // With a 1-byte threshold every op boundary checkpoints: the log is
        // truncated right after the insert committed.
        assert_eq!(wal.stats().bytes, 0, "checkpointed at op boundary");
    }

    #[test]
    fn concurrent_writers_keep_views_consistent() {
        let db = std::sync::Arc::new(paper_db());
        for i in 0..8 {
            db.insert_row("movies", vec![Value::Int(i), Value::Text(format!("m{i}"))])
                .unwrap();
        }
        std::thread::scope(|scope| {
            let stats_db = db.clone();
            scope.spawn(move || {
                for i in 0..8 {
                    stats_db
                        .insert_row(
                            "statistics",
                            vec![Value::Int(i), Value::Int(1000), Value::Int(0)],
                        )
                        .unwrap();
                }
            });
            let reviews_db = db.clone();
            scope.spawn(move || {
                for i in 0..8 {
                    reviews_db
                        .insert_row(
                            "reviews",
                            vec![Value::Int(100 + i), Value::Int(i), Value::Float(4.0)],
                        )
                        .unwrap();
                }
            });
        });
        for i in 0..8 {
            // avg(4.0)*100 + 1000/2 + 0.
            assert_eq!(db.score_of("scores", i).unwrap(), 400.0 + 500.0);
        }
    }
}
