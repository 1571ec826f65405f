//! Abstract syntax for the SQL dialect.
//!
//! The dialect covers exactly what the paper needs (§3.1 and the SQL/MM
//! query of Figure 1): table DDL and DML, SQL-bodied scoring functions,
//! `CREATE TEXT INDEX ... SCORE WITH ... AGGREGATE WITH`, and ranked
//! keyword-search `SELECT`s with `ORDER BY score(col, "keywords")` and
//! `FETCH TOP k RESULTS ONLY`.

use svr_relation::schema::ColumnType;
use svr_relation::Value;

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    CreateTable(CreateTable),
    Insert(Insert),
    Update(Update),
    Delete(Delete),
    CreateFunction(CreateFunction),
    CreateTextIndex(CreateTextIndex),
    Select(Select),
    /// `MERGE TEXT INDEX name` — the offline short-list merge (§5.1).
    MergeTextIndex(String),
    /// `EXPLAIN SELECT ...` — describe the access path without running it.
    Explain(Box<Statement>),
    /// `DROP FUNCTION name` — unregister a scoring/aggregate function.
    DropFunction(String),
    /// `DROP TEXT INDEX name` — tear down a text index and its score view.
    DropTextIndex(String),
    /// `DROP TABLE name` — drop a table (fails while indexed).
    DropTable(String),
    /// `DECLARE name CURSOR FOR SELECT ...` — open a named resumable
    /// ranked-search cursor in the session.
    DeclareCursor {
        name: String,
        select: Select,
    },
    /// `FETCH [NEXT] n FROM name` — the next `n` rows of a named cursor.
    FetchCursor {
        name: String,
        n: usize,
    },
    /// `CLOSE name` — discard a named cursor.
    CloseCursor(String),
    /// `CLOSE ALL` — discard every named cursor of the session.
    CloseAllCursors,
    /// `BEGIN [TRANSACTION | WORK]` — start accumulating DML into a
    /// session write transaction.
    Begin,
    /// `COMMIT [TRANSACTION | WORK]` — apply the accumulated DML as one
    /// atomic [`svr_engine::WriteBatch`].
    Commit,
    /// `ROLLBACK [TRANSACTION | WORK]` — discard the accumulated DML.
    Rollback,
}

/// `CREATE TABLE name (col TYPE [PRIMARY KEY], ...)`
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTable {
    pub name: String,
    pub columns: Vec<(String, ColumnType)>,
    /// Index of the column declared `PRIMARY KEY` (first column if none).
    pub pk: usize,
}

/// `INSERT INTO name VALUES (...), (...)`
#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    pub table: String,
    pub rows: Vec<Vec<Value>>,
}

/// `UPDATE name SET col = lit, ... WHERE pkcol = lit`
#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    pub table: String,
    pub sets: Vec<(String, Value)>,
    pub key_column: String,
    pub key: Value,
}

/// `DELETE FROM name WHERE pkcol = lit`
#[derive(Debug, Clone, PartialEq)]
pub struct Delete {
    pub table: String,
    pub key_column: String,
    pub key: Value,
}

/// An arithmetic expression over named parameters (the body of an `Agg`
/// function).
#[derive(Debug, Clone, PartialEq)]
pub enum Arith {
    Param(String),
    Literal(f64),
    Neg(Box<Arith>),
    Add(Box<Arith>, Box<Arith>),
    Sub(Box<Arith>, Box<Arith>),
    Mul(Box<Arith>, Box<Arith>),
    Div(Box<Arith>, Box<Arith>),
}

/// The aggregate applied by a scoring-component body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComponentAgg {
    Avg,
    Sum,
    Count,
    /// Bare column lookup (`SELECT S.nVisit FROM Statistics S WHERE ...`).
    Column,
}

/// The body of a `CREATE FUNCTION`.
#[derive(Debug, Clone, PartialEq)]
pub enum FunctionBody {
    /// `RETURN SELECT AVG(r.rating) FROM reviews r WHERE r.mid = id` —
    /// a scoring component (§3.1's `S1..Sm`).
    Component {
        agg: ComponentAgg,
        /// Aggregated column (`None` for `COUNT(*)`).
        value_column: Option<String>,
        table: String,
        /// Column equated with the function parameter.
        key_column: String,
        /// The parameter name used in the WHERE clause.
        param: String,
    },
    /// `RETURN (s1*100 + s2/2 + s3)` — an `Agg` combinator.
    Arith(Arith),
}

/// `CREATE FUNCTION name (p TYPE, ...) RETURNS FLOAT RETURN body`
#[derive(Debug, Clone, PartialEq)]
pub struct CreateFunction {
    pub name: String,
    pub params: Vec<String>,
    pub body: FunctionBody,
}

/// One entry of a text index's `SCORE WITH (...)` list.
#[derive(Debug, Clone, PartialEq)]
pub enum ScoreListEntry {
    /// A named scoring function.
    Function(String),
    /// The built-in `TFIDF()` term-score slot.
    Tfidf,
}

/// One `OPTIONS (...)` value: numeric knobs (`chunk_ratio = 6.12`) or named
/// settings (`codec = bitpacked`).
#[derive(Debug, Clone, PartialEq)]
pub enum OptionValue {
    Number(f64),
    Name(String),
}

/// `CREATE TEXT INDEX name ON table(col) SCORE WITH (S1, ..., [TFIDF()])
///  AGGREGATE WITH agg [USING METHOD kind] [OPTIONS (k = v, ...)]`
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTextIndex {
    pub name: String,
    pub table: String,
    pub column: String,
    pub score_with: Vec<ScoreListEntry>,
    /// Name of the `Agg` function (identity over one component if omitted).
    pub aggregate_with: Option<String>,
    /// Index method name (`CHUNK`, `SCORE_THRESHOLD`, ... ) if given.
    pub method: Option<String>,
    /// `OPTIONS (chunk_ratio = 6.12, codec = bitpacked, ...)` knob overrides.
    pub options: Vec<(String, OptionValue)>,
}

/// Keyword-match mode of a `CONTAINS` predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchMode {
    All,
    Any,
}

/// WHERE clause forms.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `CONTAINS(col, 'keywords' [, ALL|ANY])` (one keyword string,
    /// whitespace-tokenized) or the multi-term infix form
    /// `col CONTAINS ALL|ANY ('kw1', 'kw2', ...)`.
    Contains {
        column: String,
        keywords: Vec<String>,
        mode: MatchMode,
    },
    /// `col = literal`
    Equals { column: String, value: Value },
}

/// `ORDER BY score(col, "keywords") [DESC]` or the multi-keyword ranking
/// clause `RANK BY col ('kw1', 'kw2', ...)`.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderByScore {
    pub column: String,
    pub keywords: Vec<String>,
    /// `None` for legacy `ORDER BY SCORE(...)` (defaults to ALL when it
    /// stands alone); `Some(Any)` for `RANK BY`, which ranks documents
    /// matching any keyword and drops unknown terms instead of returning
    /// an empty set.
    pub mode: Option<MatchMode>,
}

/// `SELECT projection FROM table [alias] [WHERE p] [ORDER BY score(...)]
///  [OFFSET m ROWS] [FETCH TOP k RESULTS ONLY | LIMIT k [OFFSET m]]`
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// `None` means `*`.
    pub projection: Option<Vec<String>>,
    pub table: String,
    pub alias: Option<String>,
    pub predicate: Option<Predicate>,
    pub order_by_score: Option<OrderByScore>,
    /// `FETCH TOP k RESULTS ONLY` / `FETCH FIRST|NEXT k ROWS ONLY` /
    /// `LIMIT k`.
    pub fetch: Option<usize>,
    /// `OFFSET m [ROWS]` (before FETCH, SQL standard) or `LIMIT k OFFSET m`
    /// — ranked queries plan it as a cursor skip, so the prefix is
    /// traversed once, not recomputed per page.
    pub offset: Option<usize>,
}
