//! Recursive-descent parser for the SVR SQL dialect.
//!
//! Keywords are case-insensitive. `parse_script` splits on `;` and returns
//! one [`Statement`] per non-empty statement.

use svr_relation::schema::ColumnType;
use svr_relation::Value;

use crate::ast::*;
use crate::error::{Result, SqlError};
use crate::lexer::{tokenize, Token, TokenKind};

/// Parse a single statement (a trailing `;` is allowed).
pub fn parse_statement(input: &str) -> Result<Statement> {
    let mut statements = parse_script(input)?;
    match statements.pop() {
        None => Err(SqlError::Parse(0, "empty statement".into())),
        Some(stmt) if statements.is_empty() => Ok(stmt),
        Some(_) => Err(SqlError::Parse(
            0,
            "multiple statements given; use parse_script".into(),
        )),
    }
}

/// Parse a `;`-separated script.
pub fn parse_script(input: &str) -> Result<Vec<Statement>> {
    let tokens = tokenize(input)?;
    let mut parser = Parser { tokens, pos: 0 };
    let mut out = Vec::new();
    loop {
        while parser.eat_kind(&TokenKind::Semi) {}
        if parser.at_end() {
            break;
        }
        out.push(parser.statement()?);
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn here(&self) -> usize {
        self.peek()
            .map_or_else(|| self.tokens.last().map_or(0, |t| t.pos + 1), |t| t.pos)
    }

    fn error(&self, msg: impl Into<String>) -> SqlError {
        SqlError::Parse(self.here(), msg.into())
    }

    fn next(&mut self) -> Result<Token> {
        let token = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| self.error("unexpected end of input"))?;
        self.pos += 1;
        Ok(token)
    }

    /// Consume the next token if it equals `kind`.
    fn eat_kind(&mut self, kind: &TokenKind) -> bool {
        if self.peek().map(|t| &t.kind) == Some(kind) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Consume an optional `TRANSACTION` / `WORK` after BEGIN / COMMIT /
    /// ROLLBACK (both standard spellings, both meaningless here).
    fn eat_transaction_noise(&mut self) {
        let _ = self.eat_keyword("TRANSACTION") || self.eat_keyword("WORK");
    }

    /// Consume the next token if it is the given (case-insensitive) keyword.
    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self
            .peek()
            .and_then(|t| t.kind.keyword())
            .is_some_and(|k| k == kw)
        {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(format!(
                "expected {kw}, found {}",
                self.peek()
                    .map_or_else(|| "end of input".to_string(), |t| t.kind.to_string())
            )))
        }
    }

    fn expect_kind(&mut self, kind: &TokenKind) -> Result<()> {
        if self.eat_kind(kind) {
            Ok(())
        } else {
            Err(self.error(format!(
                "expected {kind}, found {}",
                self.peek()
                    .map_or_else(|| "end of input".to_string(), |t| t.kind.to_string())
            )))
        }
    }

    fn identifier(&mut self) -> Result<String> {
        match self.next()?.kind {
            TokenKind::Ident(s) => Ok(s),
            other => Err(self.error(format!("expected identifier, found {other}"))),
        }
    }

    fn number(&mut self) -> Result<f64> {
        match self.next()?.kind {
            TokenKind::Number(n) => Ok(n),
            other => Err(self.error(format!("expected number, found {other}"))),
        }
    }

    fn string(&mut self) -> Result<String> {
        match self.next()?.kind {
            TokenKind::Str(s) => Ok(s),
            other => Err(self.error(format!("expected string literal, found {other}"))),
        }
    }

    /// A possibly table-qualified column name; the qualifier is discarded
    /// (the dialect has single-table scope everywhere it appears).
    fn column_ref(&mut self) -> Result<String> {
        let first = self.identifier()?;
        if self.eat_kind(&TokenKind::Dot) {
            self.identifier()
        } else {
            Ok(first)
        }
    }

    fn literal(&mut self) -> Result<Value> {
        match self.peek().map(|t| t.kind.clone()) {
            Some(TokenKind::Minus) => {
                self.pos += 1;
                match self.next()?.kind {
                    TokenKind::Number(n) => Ok(number_value(-n)),
                    other => Err(self.error(format!("expected number after '-', found {other}"))),
                }
            }
            Some(TokenKind::Number(n)) => {
                self.pos += 1;
                Ok(number_value(n))
            }
            Some(TokenKind::Str(s)) => {
                self.pos += 1;
                Ok(Value::Text(s))
            }
            Some(TokenKind::Ident(s)) if s.eq_ignore_ascii_case("null") => {
                self.pos += 1;
                Ok(Value::Null)
            }
            _ => Err(self.error("expected literal")),
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        let kw = self
            .peek()
            .and_then(|t| t.kind.keyword())
            .ok_or_else(|| self.error("expected statement keyword"))?;
        match kw.as_str() {
            "CREATE" => self.create(),
            "INSERT" => self.insert(),
            "UPDATE" => self.update(),
            "DELETE" => self.delete(),
            "SELECT" => self.select(),
            "MERGE" => self.merge(),
            "DECLARE" => self.declare_cursor(),
            "FETCH" => self.fetch_cursor(),
            "CLOSE" => {
                self.pos += 1;
                if self.eat_keyword("ALL") {
                    Ok(Statement::CloseAllCursors)
                } else {
                    Ok(Statement::CloseCursor(self.identifier()?))
                }
            }
            "BEGIN" => {
                self.pos += 1;
                self.eat_transaction_noise();
                Ok(Statement::Begin)
            }
            "COMMIT" => {
                self.pos += 1;
                self.eat_transaction_noise();
                Ok(Statement::Commit)
            }
            "ROLLBACK" => {
                self.pos += 1;
                self.eat_transaction_noise();
                Ok(Statement::Rollback)
            }
            "EXPLAIN" => {
                self.pos += 1;
                Ok(Statement::Explain(Box::new(self.statement()?)))
            }
            "DROP" => {
                self.pos += 1;
                if self.eat_keyword("FUNCTION") {
                    Ok(Statement::DropFunction(self.identifier()?))
                } else if self.eat_keyword("TABLE") {
                    Ok(Statement::DropTable(self.identifier()?))
                } else if self.eat_keyword("TEXT") {
                    self.expect_keyword("INDEX")?;
                    Ok(Statement::DropTextIndex(self.identifier()?))
                } else {
                    Err(self.error("expected FUNCTION, TABLE or TEXT INDEX after DROP"))
                }
            }
            other => Err(self.error(format!("unknown statement '{other}'"))),
        }
    }

    // -- CREATE ------------------------------------------------------------

    fn create(&mut self) -> Result<Statement> {
        self.expect_keyword("CREATE")?;
        if self.eat_keyword("TABLE") {
            return self.create_table();
        }
        if self.eat_keyword("FUNCTION") {
            return self.create_function();
        }
        if self.eat_keyword("TEXT") {
            self.expect_keyword("INDEX")?;
            return self.create_text_index();
        }
        Err(self.error("expected TABLE, FUNCTION or TEXT INDEX after CREATE"))
    }

    fn column_type(&mut self) -> Result<ColumnType> {
        let name = self.identifier()?.to_ascii_uppercase();
        let ty = match name.as_str() {
            "INT" | "INTEGER" | "BIGINT" | "SMALLINT" => ColumnType::Int,
            "FLOAT" | "REAL" | "DOUBLE" | "DECIMAL" | "NUMERIC" => ColumnType::Float,
            "TEXT" | "VARCHAR" | "CHAR" | "CLOB" | "STRING" => ColumnType::Text,
            other => return Err(self.error(format!("unknown type '{other}'"))),
        };
        // Optional length, e.g. VARCHAR(255).
        if self.eat_kind(&TokenKind::LParen) {
            self.number()?;
            self.expect_kind(&TokenKind::RParen)?;
        }
        Ok(ty)
    }

    fn create_table(&mut self) -> Result<Statement> {
        let name = self.identifier()?;
        self.expect_kind(&TokenKind::LParen)?;
        let mut columns = Vec::new();
        let mut pk = None;
        loop {
            let col = self.identifier()?;
            let ty = self.column_type()?;
            if self.eat_keyword("PRIMARY") {
                self.expect_keyword("KEY")?;
                if pk.replace(columns.len()).is_some() {
                    return Err(self.error("multiple PRIMARY KEY columns"));
                }
            }
            columns.push((col, ty));
            if !self.eat_kind(&TokenKind::Comma) {
                break;
            }
        }
        self.expect_kind(&TokenKind::RParen)?;
        Ok(Statement::CreateTable(CreateTable {
            name,
            pk: pk.unwrap_or(0),
            columns,
        }))
    }

    fn create_function(&mut self) -> Result<Statement> {
        let name = self.identifier()?;
        self.expect_kind(&TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.eat_kind(&TokenKind::RParen) {
            loop {
                let pname = self.identifier()?;
                // Optional `name: type` or `name type` annotation.
                if !matches!(
                    self.peek().map(|t| &t.kind),
                    Some(TokenKind::Comma) | Some(TokenKind::RParen)
                ) {
                    self.column_type()?;
                }
                params.push(pname);
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect_kind(&TokenKind::RParen)?;
        }
        self.expect_keyword("RETURNS")?;
        self.column_type()?;
        self.expect_keyword("RETURN")?;
        let body = if self
            .peek()
            .and_then(|t| t.kind.keyword())
            .is_some_and(|k| k == "SELECT")
        {
            self.component_body(&params)?
        } else {
            FunctionBody::Arith(self.arith(0)?)
        };
        Ok(Statement::CreateFunction(CreateFunction {
            name,
            params,
            body,
        }))
    }

    /// `SELECT AVG(r.rating) FROM reviews r WHERE r.mid = id`
    fn component_body(&mut self, params: &[String]) -> Result<FunctionBody> {
        self.expect_keyword("SELECT")?;
        let (agg, value_column) = {
            let kw = self
                .peek()
                .and_then(|t| t.kind.keyword())
                .unwrap_or_default();
            match kw.as_str() {
                "AVG" | "SUM" => {
                    self.pos += 1;
                    self.expect_kind(&TokenKind::LParen)?;
                    let col = self.column_ref()?;
                    self.expect_kind(&TokenKind::RParen)?;
                    (
                        if kw == "AVG" {
                            ComponentAgg::Avg
                        } else {
                            ComponentAgg::Sum
                        },
                        Some(col),
                    )
                }
                "COUNT" => {
                    self.pos += 1;
                    self.expect_kind(&TokenKind::LParen)?;
                    if !self.eat_kind(&TokenKind::Star) {
                        self.column_ref()?; // COUNT(col) behaves as COUNT(*)
                    }
                    self.expect_kind(&TokenKind::RParen)?;
                    (ComponentAgg::Count, None)
                }
                _ => (ComponentAgg::Column, Some(self.column_ref()?)),
            }
        };
        self.expect_keyword("FROM")?;
        let table = self.identifier()?;
        // Optional table alias (not WHERE).
        if self
            .peek()
            .and_then(|t| t.kind.keyword())
            .is_some_and(|k| k != "WHERE")
            && matches!(self.peek().map(|t| &t.kind), Some(TokenKind::Ident(_)))
        {
            self.identifier()?;
        }
        self.expect_keyword("WHERE")?;
        let key_column = self.column_ref()?;
        self.expect_kind(&TokenKind::Eq)?;
        let param = self.identifier()?;
        if !params.iter().any(|p| p.eq_ignore_ascii_case(&param)) {
            return Err(self.error(format!(
                "WHERE clause references '{param}', which is not a function parameter"
            )));
        }
        Ok(FunctionBody::Component {
            agg,
            value_column,
            table,
            key_column,
            param,
        })
    }

    /// Pratt parser for `Agg` arithmetic bodies.
    fn arith(&mut self, min_bp: u8) -> Result<Arith> {
        let mut lhs = self.arith_atom()?;
        loop {
            let (op, bp) = match self.peek().map(|t| &t.kind) {
                Some(TokenKind::Plus) => ('+', 1),
                Some(TokenKind::Minus) => ('-', 1),
                Some(TokenKind::Star) => ('*', 2),
                Some(TokenKind::Slash) => ('/', 2),
                _ => break,
            };
            if bp < min_bp {
                break;
            }
            self.pos += 1;
            let rhs = self.arith(bp + 1)?;
            lhs = match op {
                '+' => Arith::Add(Box::new(lhs), Box::new(rhs)),
                '-' => Arith::Sub(Box::new(lhs), Box::new(rhs)),
                '*' => Arith::Mul(Box::new(lhs), Box::new(rhs)),
                _ => Arith::Div(Box::new(lhs), Box::new(rhs)),
            };
        }
        Ok(lhs)
    }

    fn arith_atom(&mut self) -> Result<Arith> {
        match self.peek().map(|t| t.kind.clone()) {
            Some(TokenKind::LParen) => {
                self.pos += 1;
                let inner = self.arith(0)?;
                self.expect_kind(&TokenKind::RParen)?;
                Ok(inner)
            }
            Some(TokenKind::Minus) => {
                self.pos += 1;
                Ok(Arith::Neg(Box::new(self.arith_atom()?)))
            }
            Some(TokenKind::Number(n)) => {
                self.pos += 1;
                Ok(Arith::Literal(n))
            }
            Some(TokenKind::Ident(name)) => {
                self.pos += 1;
                Ok(Arith::Param(name))
            }
            _ => Err(self.error("expected arithmetic expression")),
        }
    }

    fn create_text_index(&mut self) -> Result<Statement> {
        let name = self.identifier()?;
        self.expect_keyword("ON")?;
        let table = self.identifier()?;
        self.expect_kind(&TokenKind::LParen)?;
        let column = self.identifier()?;
        self.expect_kind(&TokenKind::RParen)?;
        self.expect_keyword("SCORE")?;
        self.expect_keyword("WITH")?;
        self.expect_kind(&TokenKind::LParen)?;
        let mut score_with = Vec::new();
        loop {
            let entry = self.identifier()?;
            if entry.eq_ignore_ascii_case("tfidf") {
                // Optional `()`.
                if self.eat_kind(&TokenKind::LParen) {
                    self.expect_kind(&TokenKind::RParen)?;
                }
                score_with.push(ScoreListEntry::Tfidf);
            } else {
                score_with.push(ScoreListEntry::Function(entry));
            }
            if !self.eat_kind(&TokenKind::Comma) {
                break;
            }
        }
        self.expect_kind(&TokenKind::RParen)?;
        let mut aggregate_with = None;
        if self.eat_keyword("AGGREGATE") {
            self.expect_keyword("WITH")?;
            aggregate_with = Some(self.identifier()?);
        }
        let mut method = None;
        if self.eat_keyword("USING") {
            self.expect_keyword("METHOD")?;
            method = Some(self.identifier()?);
        }
        let mut options = Vec::new();
        if self.eat_keyword("OPTIONS") {
            self.expect_kind(&TokenKind::LParen)?;
            loop {
                let key = self.identifier()?;
                self.expect_kind(&TokenKind::Eq)?;
                let value = match self.next()?.kind {
                    TokenKind::Number(n) => OptionValue::Number(n),
                    TokenKind::Ident(s) => OptionValue::Name(s),
                    other => {
                        return Err(self.error(format!(
                            "expected number or name as option value, found {other}"
                        )))
                    }
                };
                options.push((key.to_ascii_lowercase(), value));
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect_kind(&TokenKind::RParen)?;
        }
        Ok(Statement::CreateTextIndex(CreateTextIndex {
            name,
            table,
            column,
            score_with,
            aggregate_with,
            method,
            options,
        }))
    }

    // -- DML ----------------------------------------------------------------

    fn insert(&mut self) -> Result<Statement> {
        self.expect_keyword("INSERT")?;
        self.expect_keyword("INTO")?;
        let table = self.identifier()?;
        self.expect_keyword("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_kind(&TokenKind::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.literal()?);
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect_kind(&TokenKind::RParen)?;
            rows.push(row);
            if !self.eat_kind(&TokenKind::Comma) {
                break;
            }
        }
        Ok(Statement::Insert(Insert { table, rows }))
    }

    fn update(&mut self) -> Result<Statement> {
        self.expect_keyword("UPDATE")?;
        let table = self.identifier()?;
        self.expect_keyword("SET")?;
        let mut sets = Vec::new();
        loop {
            let col = self.column_ref()?;
            self.expect_kind(&TokenKind::Eq)?;
            sets.push((col, self.literal()?));
            if !self.eat_kind(&TokenKind::Comma) {
                break;
            }
        }
        self.expect_keyword("WHERE")?;
        let key_column = self.column_ref()?;
        self.expect_kind(&TokenKind::Eq)?;
        let key = self.literal()?;
        Ok(Statement::Update(Update {
            table,
            sets,
            key_column,
            key,
        }))
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_keyword("DELETE")?;
        self.expect_keyword("FROM")?;
        let table = self.identifier()?;
        self.expect_keyword("WHERE")?;
        let key_column = self.column_ref()?;
        self.expect_kind(&TokenKind::Eq)?;
        let key = self.literal()?;
        Ok(Statement::Delete(Delete {
            table,
            key_column,
            key,
        }))
    }

    // -- SELECT ---------------------------------------------------------------

    fn select(&mut self) -> Result<Statement> {
        self.expect_keyword("SELECT")?;
        let projection = if self.eat_kind(&TokenKind::Star) {
            None
        } else {
            let mut cols = Vec::new();
            loop {
                cols.push(self.column_ref()?);
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
            Some(cols)
        };
        self.expect_keyword("FROM")?;
        let table = self.identifier()?;
        // Optional alias — any identifier that is not a clause keyword.
        let alias = match self.peek().and_then(|t| t.kind.keyword()) {
            Some(kw)
                if !matches!(
                    kw.as_str(),
                    "WHERE" | "ORDER" | "RANK" | "FETCH" | "LIMIT" | "OFFSET"
                ) =>
            {
                Some(self.identifier()?)
            }
            _ => None,
        };
        let mut predicate = None;
        if self.eat_keyword("WHERE") {
            predicate = Some(self.predicate()?);
        }
        let mut order_by_score = None;
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            self.expect_keyword("SCORE")?;
            self.expect_kind(&TokenKind::LParen)?;
            let column = self.column_ref()?;
            self.expect_kind(&TokenKind::Comma)?;
            let keywords = vec![self.string()?];
            self.expect_kind(&TokenKind::RParen)?;
            // DESC is the only supported (and default) direction: ranking
            // is always best-first.
            let _ = self.eat_keyword("DESC");
            order_by_score = Some(OrderByScore {
                column,
                keywords,
                mode: None,
            });
        } else if self.eat_keyword("RANK") {
            // `RANK BY col ('kw1', 'kw2', ...)` — multi-keyword ranking.
            // Disjunctive by default (a document matching any keyword
            // ranks; unknown terms are dropped); combine with a
            // `CONTAINS ALL` predicate for conjunctive semantics.
            self.expect_keyword("BY")?;
            let column = self.column_ref()?;
            self.expect_kind(&TokenKind::LParen)?;
            let keywords = self.string_list()?;
            self.expect_kind(&TokenKind::RParen)?;
            let _ = self.eat_keyword("DESC");
            order_by_score = Some(OrderByScore {
                column,
                keywords,
                mode: Some(MatchMode::Any),
            });
        }
        let mut fetch = None;
        let mut offset = None;
        // SQL-standard position: OFFSET m [ROWS] before the FETCH clause.
        if self.eat_keyword("OFFSET") {
            offset = Some(self.count()?);
            if !self.eat_keyword("ROWS") {
                let _ = self.eat_keyword("ROW");
            }
        }
        if self.eat_keyword("FETCH") {
            // FETCH TOP k RESULTS ONLY (the paper) or FETCH FIRST|NEXT k
            // ROWS ONLY (SQL standard — NEXT pairs with OFFSET pagination).
            let style = self
                .peek()
                .and_then(|t| t.kind.keyword())
                .unwrap_or_default();
            match style.as_str() {
                "TOP" => {
                    self.pos += 1;
                    fetch = Some(self.count()?);
                    self.expect_keyword("RESULTS")?;
                    self.expect_keyword("ONLY")?;
                }
                "FIRST" | "NEXT" => {
                    self.pos += 1;
                    fetch = Some(self.count()?);
                    if !self.eat_keyword("ROWS") {
                        self.expect_keyword("ROW")?;
                    }
                    self.expect_keyword("ONLY")?;
                }
                _ => return Err(self.error("expected TOP, FIRST or NEXT after FETCH")),
            }
        } else if self.eat_keyword("LIMIT") {
            fetch = Some(self.count()?);
            // MySQL/PostgreSQL style: LIMIT k OFFSET m.
            if offset.is_none() && self.eat_keyword("OFFSET") {
                offset = Some(self.count()?);
            }
        }
        Ok(Statement::Select(Select {
            projection,
            table,
            alias,
            predicate,
            order_by_score,
            fetch,
            offset,
        }))
    }

    fn count(&mut self) -> Result<usize> {
        let n = self.number()?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err(self.error("expected a non-negative integer count"));
        }
        Ok(n as usize)
    }

    /// A parenthesized body's comma-separated string literals (at least
    /// one): the keyword lists of `CONTAINS ALL|ANY (...)` and `RANK BY`.
    fn string_list(&mut self) -> Result<Vec<String>> {
        let mut strings = vec![self.string()?];
        while self.eat_kind(&TokenKind::Comma) {
            strings.push(self.string()?);
        }
        Ok(strings)
    }

    fn predicate(&mut self) -> Result<Predicate> {
        if self.eat_keyword("CONTAINS") {
            // Function form: `CONTAINS(col, 'keywords' [, ALL|ANY])`.
            self.expect_kind(&TokenKind::LParen)?;
            let column = self.column_ref()?;
            self.expect_kind(&TokenKind::Comma)?;
            let keywords = vec![self.string()?];
            let mode = if self.eat_kind(&TokenKind::Comma) {
                let kw = self.identifier()?.to_ascii_uppercase();
                match kw.as_str() {
                    "ALL" => MatchMode::All,
                    "ANY" => MatchMode::Any,
                    other => {
                        return Err(self.error(format!("expected ALL or ANY, found '{other}'")))
                    }
                }
            } else {
                MatchMode::All
            };
            self.expect_kind(&TokenKind::RParen)?;
            Ok(Predicate::Contains {
                column,
                keywords,
                mode,
            })
        } else {
            let column = self.column_ref()?;
            if self.eat_keyword("CONTAINS") {
                // Infix form: `col CONTAINS ALL|ANY ('kw1', 'kw2', ...)`.
                let mode = if self.eat_keyword("ALL") {
                    MatchMode::All
                } else if self.eat_keyword("ANY") {
                    MatchMode::Any
                } else {
                    return Err(self.error("expected ALL or ANY after CONTAINS"));
                };
                self.expect_kind(&TokenKind::LParen)?;
                let keywords = self.string_list()?;
                self.expect_kind(&TokenKind::RParen)?;
                Ok(Predicate::Contains {
                    column,
                    keywords,
                    mode,
                })
            } else {
                self.expect_kind(&TokenKind::Eq)?;
                Ok(Predicate::Equals {
                    column,
                    value: self.literal()?,
                })
            }
        }
    }

    fn merge(&mut self) -> Result<Statement> {
        self.expect_keyword("MERGE")?;
        self.expect_keyword("TEXT")?;
        self.expect_keyword("INDEX")?;
        Ok(Statement::MergeTextIndex(self.identifier()?))
    }

    // -- cursors --------------------------------------------------------------

    /// `DECLARE name CURSOR FOR SELECT ...`
    fn declare_cursor(&mut self) -> Result<Statement> {
        self.expect_keyword("DECLARE")?;
        let name = self.identifier()?;
        self.expect_keyword("CURSOR")?;
        self.expect_keyword("FOR")?;
        let Statement::Select(select) = self.select()? else {
            unreachable!("select() parses a SELECT");
        };
        Ok(Statement::DeclareCursor { name, select })
    }

    /// `FETCH [NEXT] n FROM name`
    fn fetch_cursor(&mut self) -> Result<Statement> {
        self.expect_keyword("FETCH")?;
        let _ = self.eat_keyword("NEXT");
        let n = self.count()?;
        self.expect_keyword("FROM")?;
        let name = self.identifier()?;
        Ok(Statement::FetchCursor { name, n })
    }
}

/// Integral numbers become `Value::Int`, everything else `Value::Float`.
fn number_value(n: f64) -> Value {
    if n.fract() == 0.0 && n.abs() < i64::MAX as f64 {
        Value::Int(n as i64)
    } else {
        Value::Float(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_create_table() {
        let s = parse_statement("CREATE TABLE movies (mid INT PRIMARY KEY, name TEXT, len FLOAT)")
            .unwrap();
        let Statement::CreateTable(ct) = s else {
            panic!("wrong statement")
        };
        assert_eq!(ct.name, "movies");
        assert_eq!(ct.pk, 0);
        assert_eq!(ct.columns.len(), 3);
        assert_eq!(ct.columns[1], ("name".into(), ColumnType::Text));
    }

    #[test]
    fn pk_defaults_to_first_column() {
        let Statement::CreateTable(ct) = parse_statement("create table t (a int, b text)").unwrap()
        else {
            panic!()
        };
        assert_eq!(ct.pk, 0);
    }

    #[test]
    fn parses_insert_multirow() {
        let Statement::Insert(ins) = parse_statement(
            "INSERT INTO movies VALUES (1, 'American Thrift', 2.5), (2, 'Amateur Film', NULL)",
        )
        .unwrap() else {
            panic!()
        };
        assert_eq!(ins.rows.len(), 2);
        assert_eq!(ins.rows[0][1], Value::Text("American Thrift".into()));
        assert_eq!(ins.rows[1][2], Value::Null);
    }

    #[test]
    fn parses_update_and_delete() {
        let Statement::Update(u) =
            parse_statement("UPDATE stats SET nvisit = 100, ndownload = 7 WHERE mid = 3").unwrap()
        else {
            panic!()
        };
        assert_eq!(u.sets.len(), 2);
        assert_eq!(u.key, Value::Int(3));
        let Statement::Delete(d) = parse_statement("DELETE FROM movies WHERE mid = 9").unwrap()
        else {
            panic!()
        };
        assert_eq!(d.table, "movies");
    }

    #[test]
    fn parses_the_papers_scoring_function() {
        // §3.1 verbatim modulo type syntax.
        let Statement::CreateFunction(f) = parse_statement(
            "create function S1 (id INTEGER) returns float
             return SELECT avg(R.rating) FROM Reviews R WHERE R.mID = id",
        )
        .unwrap() else {
            panic!()
        };
        assert_eq!(f.name, "S1");
        assert_eq!(
            f.body,
            FunctionBody::Component {
                agg: ComponentAgg::Avg,
                value_column: Some("rating".into()),
                table: "Reviews".into(),
                key_column: "mID".into(),
                param: "id".into(),
            }
        );
    }

    #[test]
    fn parses_the_papers_agg_function() {
        let Statement::CreateFunction(f) = parse_statement(
            "create function Agg(s1 float, s2 float, s3 float) returns float
             return (s1*100 + s2/2 + s3)",
        )
        .unwrap() else {
            panic!()
        };
        assert_eq!(f.params, vec!["s1", "s2", "s3"]);
        assert!(matches!(f.body, FunctionBody::Arith(_)));
    }

    #[test]
    fn component_where_must_use_a_parameter() {
        assert!(parse_statement(
            "create function S (id INT) returns float
             return SELECT avg(r.x) FROM t r WHERE r.y = other",
        )
        .is_err());
    }

    #[test]
    fn parses_bare_column_component() {
        let Statement::CreateFunction(f) = parse_statement(
            "create function S2 (id INT) returns float
             return SELECT S.nVisit FROM Statistics S WHERE S.mID = id",
        )
        .unwrap() else {
            panic!()
        };
        assert_eq!(
            f.body,
            FunctionBody::Component {
                agg: ComponentAgg::Column,
                value_column: Some("nVisit".into()),
                table: "Statistics".into(),
                key_column: "mID".into(),
                param: "id".into(),
            }
        );
    }

    #[test]
    fn parses_create_text_index() {
        let Statement::CreateTextIndex(ix) = parse_statement(
            "CREATE TEXT INDEX idx ON movies(description)
             SCORE WITH (S1, S2, S3, TFIDF())
             AGGREGATE WITH Agg
             USING METHOD CHUNK_TERMSCORE
             OPTIONS (chunk_ratio = 6.12, fancy_size = 64, codec = bitpacked)",
        )
        .unwrap() else {
            panic!()
        };
        assert_eq!(ix.score_with.len(), 4);
        assert_eq!(ix.score_with[3], ScoreListEntry::Tfidf);
        assert_eq!(ix.aggregate_with.as_deref(), Some("Agg"));
        assert_eq!(ix.method.as_deref(), Some("CHUNK_TERMSCORE"));
        assert_eq!(
            ix.options[0],
            ("chunk_ratio".into(), OptionValue::Number(6.12))
        );
        assert_eq!(
            ix.options[2],
            ("codec".into(), OptionValue::Name("bitpacked".into()))
        );
    }

    #[test]
    fn parses_the_papers_figure1_query() {
        let Statement::Select(sel) = parse_statement(
            r#"SELECT * FROM Movies m ORDER BY score(m.desc, "golden gate")
               FETCH TOP 10 RESULTS ONLY"#,
        )
        .unwrap() else {
            panic!()
        };
        assert_eq!(sel.table, "Movies");
        assert_eq!(sel.alias.as_deref(), Some("m"));
        let obs = sel.order_by_score.unwrap();
        assert_eq!(obs.column, "desc");
        assert_eq!(obs.keywords, vec!["golden gate".to_string()]);
        assert_eq!(obs.mode, None);
        assert_eq!(sel.fetch, Some(10));
    }

    #[test]
    fn parses_rank_by_multi_keyword() {
        let Statement::Select(sel) = parse_statement(
            "SELECT name FROM movies m RANK BY m.description ('golden', 'gate', 'bridge')
             FETCH TOP 10 RESULTS ONLY",
        )
        .unwrap() else {
            panic!()
        };
        assert_eq!(sel.alias.as_deref(), Some("m"));
        let obs = sel.order_by_score.unwrap();
        assert_eq!(obs.column, "description");
        assert_eq!(
            obs.keywords,
            vec!["golden".to_string(), "gate".into(), "bridge".into()]
        );
        assert_eq!(obs.mode, Some(MatchMode::Any));
        assert_eq!(sel.fetch, Some(10));
        // RANK is a clause keyword, not an alias.
        let Statement::Select(sel) =
            parse_statement("SELECT * FROM movies RANK BY description ('x')").unwrap()
        else {
            panic!()
        };
        assert_eq!(sel.alias, None);
        assert!(sel.order_by_score.is_some());
    }

    #[test]
    fn parses_infix_contains() {
        let Statement::Select(sel) = parse_statement(
            "SELECT name FROM movies WHERE description CONTAINS ALL ('golden', 'gate')
             RANK BY description ('golden', 'gate') LIMIT 5",
        )
        .unwrap() else {
            panic!()
        };
        assert_eq!(
            sel.predicate,
            Some(Predicate::Contains {
                column: "description".into(),
                keywords: vec!["golden".to_string(), "gate".into()],
                mode: MatchMode::All,
            })
        );
        assert!(sel.order_by_score.is_some());
        let Statement::Select(sel) =
            parse_statement("SELECT * FROM t WHERE c CONTAINS ANY ('a', 'b', 'c')").unwrap()
        else {
            panic!()
        };
        assert_eq!(
            sel.predicate,
            Some(Predicate::Contains {
                column: "c".into(),
                keywords: vec!["a".to_string(), "b".into(), "c".into()],
                mode: MatchMode::Any,
            })
        );
        // The mode is mandatory in the infix form.
        assert!(parse_statement("SELECT * FROM t WHERE c CONTAINS ('a')").is_err());
    }

    #[test]
    fn parses_contains_with_mode() {
        let Statement::Select(sel) = parse_statement(
            "SELECT name FROM movies WHERE CONTAINS(description, 'golden gate', ANY)
             ORDER BY SCORE(description, 'golden gate') DESC LIMIT 5",
        )
        .unwrap() else {
            panic!()
        };
        assert_eq!(
            sel.predicate,
            Some(Predicate::Contains {
                column: "description".into(),
                keywords: vec!["golden gate".to_string()],
                mode: MatchMode::Any,
            })
        );
        assert_eq!(sel.fetch, Some(5));
        assert_eq!(sel.projection, Some(vec!["name".to_string()]));
    }

    #[test]
    fn parses_point_select() {
        let Statement::Select(sel) = parse_statement("SELECT * FROM movies WHERE mid = 7").unwrap()
        else {
            panic!()
        };
        assert_eq!(
            sel.predicate,
            Some(Predicate::Equals {
                column: "mid".into(),
                value: Value::Int(7)
            })
        );
        assert!(sel.order_by_score.is_none());
    }

    #[test]
    fn parses_fetch_first_rows_only() {
        let Statement::Select(sel) =
            parse_statement("SELECT * FROM t ORDER BY SCORE(c, 'x') FETCH FIRST 3 ROWS ONLY")
                .unwrap()
        else {
            panic!()
        };
        assert_eq!(sel.fetch, Some(3));
    }

    #[test]
    fn parses_limit_offset_and_fetch_next() {
        let Statement::Select(sel) =
            parse_statement("SELECT * FROM t ORDER BY SCORE(c, 'x') LIMIT 10 OFFSET 30").unwrap()
        else {
            panic!()
        };
        assert_eq!(sel.fetch, Some(10));
        assert_eq!(sel.offset, Some(30));
        let Statement::Select(sel) = parse_statement(
            "SELECT * FROM t ORDER BY SCORE(c, 'x') OFFSET 5 ROWS FETCH NEXT 20 ROWS ONLY",
        )
        .unwrap() else {
            panic!()
        };
        assert_eq!(sel.fetch, Some(20));
        assert_eq!(sel.offset, Some(5));
        // OFFSET alone, and no offset at all.
        let Statement::Select(sel) =
            parse_statement("SELECT * FROM t ORDER BY SCORE(c, 'x') OFFSET 7").unwrap()
        else {
            panic!()
        };
        assert_eq!(sel.fetch, None);
        assert_eq!(sel.offset, Some(7));
        let Statement::Select(sel) = parse_statement("SELECT * FROM t LIMIT 3").unwrap() else {
            panic!()
        };
        assert_eq!(sel.offset, None);
    }

    #[test]
    fn parses_cursor_statements() {
        let Statement::DeclareCursor { name, select } = parse_statement(
            r#"DECLARE page CURSOR FOR SELECT name FROM movies
               ORDER BY SCORE(description, "golden gate")"#,
        )
        .unwrap() else {
            panic!()
        };
        assert_eq!(name, "page");
        assert!(select.order_by_score.is_some());
        assert_eq!(
            parse_statement("FETCH 10 FROM page").unwrap(),
            Statement::FetchCursor {
                name: "page".into(),
                n: 10
            }
        );
        assert_eq!(
            parse_statement("FETCH NEXT 5 FROM page").unwrap(),
            Statement::FetchCursor {
                name: "page".into(),
                n: 5
            }
        );
        assert_eq!(
            parse_statement("CLOSE page").unwrap(),
            Statement::CloseCursor("page".into())
        );
        assert!(parse_statement("DECLARE page FOR SELECT * FROM t").is_err());
        assert!(parse_statement("FETCH FROM page").is_err());
    }

    #[test]
    fn parses_merge_text_index() {
        assert_eq!(
            parse_statement("MERGE TEXT INDEX idx").unwrap(),
            Statement::MergeTextIndex("idx".into())
        );
    }

    #[test]
    fn parses_explain_and_drop() {
        let Statement::Explain(inner) =
            parse_statement("EXPLAIN SELECT * FROM t WHERE a = 1").unwrap()
        else {
            panic!()
        };
        assert!(matches!(*inner, Statement::Select(_)));
        assert_eq!(
            parse_statement("DROP FUNCTION s1").unwrap(),
            Statement::DropFunction("s1".into())
        );
        assert_eq!(
            parse_statement("DROP TABLE t").unwrap(),
            Statement::DropTable("t".into())
        );
        assert_eq!(
            parse_statement("DROP TEXT INDEX movie_idx").unwrap(),
            Statement::DropTextIndex("movie_idx".into())
        );
        assert!(
            parse_statement("DROP INDEX x").is_err(),
            "TEXT INDEX is the only index kind"
        );
        assert!(parse_statement("DROP").is_err());
    }

    #[test]
    fn script_splits_statements() {
        let script =
            parse_script("CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t;")
                .unwrap();
        assert_eq!(script.len(), 3);
    }

    #[test]
    fn garbage_errors_with_position() {
        match parse_statement("SELECT FROM WHERE") {
            Err(SqlError::Parse(pos, _)) => assert!(pos > 0),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn negative_literals() {
        let Statement::Insert(ins) = parse_statement("INSERT INTO t VALUES (-5, -2.5)").unwrap()
        else {
            panic!()
        };
        assert_eq!(ins.rows[0][0], Value::Int(-5));
        assert_eq!(ins.rows[0][1], Value::Float(-2.5));
    }
}
