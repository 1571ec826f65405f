//! # svr-relation
//!
//! The relational substrate for SVR score specification (§3 of the paper):
//! typed tables on the storage engine, SQL-bodied **scoring components**
//! (`S1..Sm`), an **`Agg` expression** parser, and the **incrementally
//! maintained materialized Score view** that recomputes a document's score
//! when related structured data changes and notifies the text index.
//!
//! The paper's example (§3.1) looks like this here:
//!
//! ```
//! use svr_relation::{AggExpr, Database, ScoreComponent, SvrSpec, Value};
//! use svr_relation::schema::{ColumnType, Schema};
//!
//! let mut db = Database::new();
//! db.create_table(Schema::new("movies", &[("mid", ColumnType::Int),
//!     ("desc", ColumnType::Text)], 0)).unwrap();
//! db.create_table(Schema::new("reviews", &[("rid", ColumnType::Int),
//!     ("mid", ColumnType::Int), ("rating", ColumnType::Float)], 0)).unwrap();
//!
//! let spec = SvrSpec::new(
//!     vec![ScoreComponent::AvgOf {
//!         table: "reviews".into(), fk_col: "mid".into(), val_col: "rating".into(),
//!     }],
//!     AggExpr::parse("s1 * 100").unwrap(),
//! );
//! db.create_score_view("movie_scores", "movies", spec).unwrap();
//!
//! db.insert_row("movies", vec![Value::Int(1), Value::Text("golden gate".into())]).unwrap();
//! db.insert_row("reviews", vec![Value::Int(10), Value::Int(1), Value::Float(4.5)]).unwrap();
//! assert_eq!(db.score_of("movie_scores", 1).unwrap(), 450.0);
//! ```

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod aggexpr;
pub mod catalog;
pub mod codec;
pub mod error;
pub mod functions;
pub mod schema;
pub mod table;
pub mod value;
pub mod view;

pub use aggexpr::AggExpr;
pub use catalog::{Database, ViewUndoBracket, SYS_CATALOG_STORE};
pub use error::{RelationError, Result};
pub use functions::ScoreComponent;
pub use schema::Schema;
pub use table::{RowChange, Table};
pub use value::Value;
pub use view::{ScoreListener, SvrSpec};
