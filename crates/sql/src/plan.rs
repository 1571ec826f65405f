//! Lowering from SQL AST to engine concepts.
//!
//! * `CREATE FUNCTION ... RETURN SELECT ...` bodies become
//!   [`ScoreComponent`]s;
//! * `Agg` arithmetic bodies become [`AggExpr`]s with parameters resolved
//!   to component slots;
//! * a `TFIDF()` entry in `SCORE WITH` is decomposed out of the aggregate
//!   as the linear term weight the index methods apply at query time
//!   (`f(svr, ts) = svr + w·ts`, §4.3.3) — non-linear uses are rejected;
//! * method names map to [`MethodKind`]s.

use svr_core::types::QueryMode;
use svr_core::{CodecKind, IndexConfig, MethodKind};
use svr_relation::{AggExpr, ScoreComponent};

use crate::ast::{Arith, ComponentAgg, FunctionBody, MatchMode, OptionValue, Predicate, Select};
use crate::error::{Result, SqlError};

/// The resolved ranked access path of a `SELECT`: which text column to
/// search, for what, and how keywords combine. `ORDER BY SCORE(...)` and
/// `CONTAINS(...)` both map onto it, and when a query uses both they must
/// agree — the single place that reconciliation happens, shared by
/// execution ([`crate::SqlSession::execute`]) and `EXPLAIN`.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedPath {
    pub column: String,
    pub keywords: String,
    pub mode: MatchMode,
}

impl RankedPath {
    /// The index-layer query mode.
    pub fn query_mode(&self) -> QueryMode {
        match self.mode {
            MatchMode::All => QueryMode::Conjunctive,
            MatchMode::Any => QueryMode::Disjunctive,
        }
    }
}

/// Resolve a `SELECT`'s ranked path, if it has one.
///
/// * `ORDER BY SCORE(col, kw)` alone ranks conjunctively; `RANK BY
///   col (kw, ...)` alone ranks disjunctively (its parsed mode);
/// * `CONTAINS(...)` / `col CONTAINS ALL|ANY (...)` alone ranks with the
///   predicate's mode;
/// * both together must name the same column and keywords, and take the
///   `CONTAINS` mode.
///
/// Keyword lists are joined with spaces: the engine tokenizes on
/// whitespace, so `('golden', 'gate')` and `('golden gate')` resolve to
/// the same terms.
pub fn resolve_ranked_path(sel: &Select) -> Result<Option<RankedPath>> {
    let contains = match &sel.predicate {
        Some(Predicate::Contains {
            column,
            keywords,
            mode,
        }) => Some((column.as_str(), keywords.join(" "), *mode)),
        _ => None,
    };
    Ok(match (&sel.order_by_score, contains) {
        (Some(obs), Some((c_col, c_kw, c_mode))) => {
            if !obs.column.eq_ignore_ascii_case(c_col) {
                return Err(SqlError::Plan(
                    "CONTAINS and ORDER BY SCORE / RANK BY must reference the same column".into(),
                ));
            }
            if obs.keywords.join(" ") != c_kw {
                return Err(SqlError::Plan(
                    "CONTAINS and ORDER BY SCORE / RANK BY must use the same keywords".into(),
                ));
            }
            Some(RankedPath {
                column: obs.column.clone(),
                keywords: c_kw,
                mode: c_mode,
            })
        }
        (Some(obs), None) => Some(RankedPath {
            column: obs.column.clone(),
            keywords: obs.keywords.join(" "),
            mode: obs.mode.unwrap_or(MatchMode::All),
        }),
        (None, Some((column, keywords, mode))) => Some(RankedPath {
            column: column.to_string(),
            keywords,
            mode,
        }),
        (None, None) => None,
    })
}

/// A registered `CREATE FUNCTION`.
#[derive(Debug, Clone, PartialEq)]
pub enum FunctionDef {
    /// A scoring component (`S1..Sm`).
    Component(ScoreComponent),
    /// An `Agg` combinator with named parameters.
    Agg { params: Vec<String>, body: Arith },
}

/// Lower a parsed function body into a [`FunctionDef`].
pub fn lower_function(params: &[String], body: &FunctionBody) -> Result<FunctionDef> {
    match body {
        FunctionBody::Arith(expr) => {
            // Every identifier must be a parameter.
            check_params(expr, params)?;
            Ok(FunctionDef::Agg {
                params: params.to_vec(),
                body: expr.clone(),
            })
        }
        FunctionBody::Component {
            agg,
            value_column,
            table,
            key_column,
            ..
        } => {
            let component = match agg {
                ComponentAgg::Avg => ScoreComponent::AvgOf {
                    table: table.clone(),
                    fk_col: key_column.clone(),
                    val_col: value_column
                        .clone()
                        .ok_or_else(|| SqlError::Plan("AVG requires a value column".into()))?,
                },
                ComponentAgg::Sum => ScoreComponent::SumOf {
                    table: table.clone(),
                    fk_col: key_column.clone(),
                    val_col: value_column
                        .clone()
                        .ok_or_else(|| SqlError::Plan("SUM requires a value column".into()))?,
                },
                ComponentAgg::Count => ScoreComponent::CountOf {
                    table: table.clone(),
                    fk_col: key_column.clone(),
                },
                ComponentAgg::Column => ScoreComponent::ColumnOf {
                    table: table.clone(),
                    key_col: key_column.clone(),
                    val_col: value_column.clone().ok_or_else(|| {
                        SqlError::Plan("column lookup requires a value column".into())
                    })?,
                },
            };
            Ok(FunctionDef::Component(component))
        }
    }
}

fn check_params(expr: &Arith, params: &[String]) -> Result<()> {
    match expr {
        Arith::Param(name) => {
            if params.iter().any(|p| p.eq_ignore_ascii_case(name)) {
                Ok(())
            } else {
                Err(SqlError::Plan(format!(
                    "'{name}' is not a parameter of this function"
                )))
            }
        }
        Arith::Literal(_) => Ok(()),
        Arith::Neg(e) => check_params(e, params),
        Arith::Add(a, b) | Arith::Sub(a, b) | Arith::Mul(a, b) | Arith::Div(a, b) => {
            check_params(a, params)?;
            check_params(b, params)
        }
    }
}

/// Resolve an `Agg` body to an [`AggExpr`]: parameter `params[i]` becomes
/// component slot `slots[i]`.
pub fn resolve_arith(expr: &Arith, params: &[String], slots: &[usize]) -> Result<AggExpr> {
    Ok(match expr {
        Arith::Param(name) => {
            let i = params
                .iter()
                .position(|p| p.eq_ignore_ascii_case(name))
                .ok_or_else(|| {
                    SqlError::Plan(format!("'{name}' is not a parameter of the Agg function"))
                })?;
            AggExpr::Component(slots[i])
        }
        Arith::Literal(v) => AggExpr::Literal(*v),
        Arith::Neg(e) => AggExpr::Neg(Box::new(resolve_arith(e, params, slots)?)),
        Arith::Add(a, b) => AggExpr::Add(
            Box::new(resolve_arith(a, params, slots)?),
            Box::new(resolve_arith(b, params, slots)?),
        ),
        Arith::Sub(a, b) => AggExpr::Sub(
            Box::new(resolve_arith(a, params, slots)?),
            Box::new(resolve_arith(b, params, slots)?),
        ),
        Arith::Mul(a, b) => AggExpr::Mul(
            Box::new(resolve_arith(a, params, slots)?),
            Box::new(resolve_arith(b, params, slots)?),
        ),
        Arith::Div(a, b) => AggExpr::Div(
            Box::new(resolve_arith(a, params, slots)?),
            Box::new(resolve_arith(b, params, slots)?),
        ),
    })
}

/// Extract the TFIDF term weight from an aggregate expression whose TFIDF
/// parameter occupies component slot `tfidf_slot` (one past the structured
/// components). The index methods combine scores as `svr + w·ts`, so the
/// aggregate must be *linear* in the TFIDF slot; the weight is recovered by
/// finite differencing and verified on probe points.
pub fn tfidf_weight(expr: &AggExpr, tfidf_slot: usize) -> Result<f64> {
    let eval = |components: &[f64], t: f64| -> f64 {
        let mut values = components.to_vec();
        values.resize(tfidf_slot, 0.0);
        values.push(t);
        expr.eval(&values)
    };
    let zeros = vec![0.0; tfidf_slot];
    let weight = eval(&zeros, 1.0) - eval(&zeros, 0.0);
    // Probe for linearity: f(r, t) must equal f(r, 0) + w·t everywhere the
    // combination function is used. A handful of deterministic probes
    // catches every practical violation (t², s·t, t in a divisor...).
    let probes: [f64; 3] = [0.5, 2.0, 17.0];
    let mut r = Vec::with_capacity(tfidf_slot);
    for i in 0..tfidf_slot {
        r.push(1.0 + i as f64 * 3.7);
    }
    for &t in &probes {
        for base in [&zeros, &r] {
            let expect = eval(base, 0.0) + weight * t;
            let got = eval(base, t);
            if (got - expect).abs() > 1e-9 * (1.0 + expect.abs()) {
                return Err(SqlError::Plan(
                    "TFIDF() must appear as a linear additive term in the aggregate \
                     (e.g. `... + tfidf/2`); the index combination function is \
                     f(svr, ts) = svr + w*ts (§4.3.3)"
                        .into(),
                ));
            }
        }
    }
    if weight < 0.0 {
        return Err(SqlError::Plan(
            "TFIDF() weight must be non-negative for the combination function to stay monotonic"
                .into(),
        ));
    }
    Ok(weight)
}

/// Parse a `USING METHOD` name.
pub fn parse_method(name: &str) -> Result<MethodKind> {
    let canon = name.to_ascii_uppercase().replace('-', "_");
    Ok(match canon.as_str() {
        "ID" => MethodKind::Id,
        "SCORE" => MethodKind::Score,
        "SCORE_THRESHOLD" => MethodKind::ScoreThreshold,
        "CHUNK" => MethodKind::Chunk,
        "ID_TERMSCORE" => MethodKind::IdTermScore,
        "CHUNK_TERMSCORE" => MethodKind::ChunkTermScore,
        "SCORE_THRESHOLD_TERMSCORE" => MethodKind::ScoreThresholdTermScore,
        other => {
            return Err(SqlError::Plan(format!(
                "unknown index method '{other}'; expected one of ID, SCORE, SCORE_THRESHOLD, \
                 CHUNK, ID_TERMSCORE, CHUNK_TERMSCORE, SCORE_THRESHOLD_TERMSCORE"
            )))
        }
    })
}

/// Apply `OPTIONS (...)` overrides to an [`IndexConfig`].
pub fn apply_options(config: &mut IndexConfig, options: &[(String, OptionValue)]) -> Result<()> {
    for (key, value) in options {
        // `codec` is the one named option; everything else is numeric.
        if key == "codec" {
            let OptionValue::Name(name) = value else {
                return Err(SqlError::Plan(
                    "codec takes a name: legacy or bitpacked".into(),
                ));
            };
            config.codec = CodecKind::from_name(name).map_err(|e| {
                SqlError::Plan(format!("codec '{name}': {e}; expected legacy or bitpacked"))
            })?;
            continue;
        }
        let OptionValue::Number(value) = value else {
            return Err(SqlError::Plan(format!(
                "option '{key}' takes a numeric value"
            )));
        };
        match key.as_str() {
            "chunk_ratio" => config.chunk_ratio = *value,
            "threshold_ratio" => config.threshold_ratio = *value,
            "min_chunk_docs" => config.min_chunk_docs = *value as usize,
            "fancy_size" => config.fancy_size = *value as usize,
            "term_weight" => config.term_weight = *value,
            "page_size" => config.page_size = *value as usize,
            "long_cache_pages" => config.long_cache_pages = *value as usize,
            "small_cache_pages" => config.small_cache_pages = *value as usize,
            // Write sharding: `OPTIONS (shards = 8)` partitions the index
            // by document so same-table writers proceed in parallel. Each
            // shard is a complete method instance, so an absurd count would
            // let one statement allocate unbounded stores — cap it.
            "shards" => {
                if *value < 1.0 || *value > 1024.0 || value.fract() != 0.0 {
                    return Err(SqlError::Plan(format!(
                        "shards must be an integer in 1..=1024, got {value}"
                    )));
                }
                config.num_shards = *value as usize;
            }
            other => return Err(SqlError::Plan(format!("unknown index option '{other}'"))),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn param_names(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn lowers_avg_component() {
        let body = FunctionBody::Component {
            agg: ComponentAgg::Avg,
            value_column: Some("rating".into()),
            table: "reviews".into(),
            key_column: "mid".into(),
            param: "id".into(),
        };
        let def = lower_function(&param_names(&["id"]), &body).unwrap();
        assert_eq!(
            def,
            FunctionDef::Component(ScoreComponent::AvgOf {
                table: "reviews".into(),
                fk_col: "mid".into(),
                val_col: "rating".into(),
            })
        );
    }

    #[test]
    fn agg_body_rejects_unknown_identifiers() {
        let body = FunctionBody::Arith(Arith::Param("mystery".into()));
        assert!(lower_function(&param_names(&["s1"]), &body).is_err());
    }

    #[test]
    fn resolves_params_to_slots() {
        // Agg(a, b) = a*2 + b, with a -> slot 1, b -> slot 0.
        let expr = Arith::Add(
            Box::new(Arith::Mul(
                Box::new(Arith::Param("a".into())),
                Box::new(Arith::Literal(2.0)),
            )),
            Box::new(Arith::Param("b".into())),
        );
        let agg = resolve_arith(&expr, &param_names(&["a", "b"]), &[1, 0]).unwrap();
        // components[0] = b-value, components[1] = a-value.
        assert_eq!(agg.eval(&[10.0, 3.0]), 3.0 * 2.0 + 10.0);
    }

    #[test]
    fn tfidf_weight_recovers_linear_coefficient() {
        // f(s1, t) = s1*100 + t/2; tfidf slot is 1.
        let expr = AggExpr::Add(
            Box::new(AggExpr::Mul(
                Box::new(AggExpr::Component(0)),
                Box::new(AggExpr::Literal(100.0)),
            )),
            Box::new(AggExpr::Div(
                Box::new(AggExpr::Component(1)),
                Box::new(AggExpr::Literal(2.0)),
            )),
        );
        assert_eq!(tfidf_weight(&expr, 1).unwrap(), 0.5);
    }

    #[test]
    fn tfidf_weight_rejects_nonlinear_use() {
        // f(t) = t*t.
        let expr = AggExpr::Mul(
            Box::new(AggExpr::Component(0)),
            Box::new(AggExpr::Component(0)),
        );
        assert!(tfidf_weight(&expr, 0).is_err());
        // f(s1, t) = s1*t — bilinear, still not additive.
        let expr = AggExpr::Mul(
            Box::new(AggExpr::Component(0)),
            Box::new(AggExpr::Component(1)),
        );
        assert!(tfidf_weight(&expr, 1).is_err());
    }

    #[test]
    fn tfidf_weight_rejects_negative_weight() {
        let expr = AggExpr::Sub(
            Box::new(AggExpr::Component(0)),
            Box::new(AggExpr::Component(1)),
        );
        assert!(tfidf_weight(&expr, 1).is_err());
    }

    #[test]
    fn method_names_parse() {
        assert_eq!(parse_method("chunk").unwrap(), MethodKind::Chunk);
        assert_eq!(
            parse_method("Score-Threshold").unwrap(),
            MethodKind::ScoreThreshold
        );
        assert_eq!(
            parse_method("SCORE_THRESHOLD_TERMSCORE").unwrap(),
            MethodKind::ScoreThresholdTermScore
        );
        assert!(parse_method("btree").is_err());
    }

    fn select_with(
        order_by: Option<(&str, &str)>,
        contains: Option<(&str, &str, MatchMode)>,
    ) -> Select {
        Select {
            projection: None,
            table: "movies".into(),
            alias: None,
            predicate: contains.map(|(c, k, m)| Predicate::Contains {
                column: c.into(),
                keywords: vec![k.to_string()],
                mode: m,
            }),
            order_by_score: order_by.map(|(c, k)| crate::ast::OrderByScore {
                column: c.into(),
                keywords: vec![k.to_string()],
                mode: None,
            }),
            fetch: None,
            offset: None,
        }
    }

    #[test]
    fn ranked_path_resolution() {
        // Plain scan: no ranked path.
        assert_eq!(resolve_ranked_path(&select_with(None, None)).unwrap(), None);
        // ORDER BY SCORE alone: conjunctive.
        let p = resolve_ranked_path(&select_with(Some(("desc", "golden gate")), None))
            .unwrap()
            .unwrap();
        assert_eq!(p.mode, MatchMode::All);
        assert_eq!(p.query_mode(), QueryMode::Conjunctive);
        assert_eq!(p.keywords, "golden gate");
        // CONTAINS alone keeps its mode.
        let p = resolve_ranked_path(&select_with(None, Some(("desc", "gate", MatchMode::Any))))
            .unwrap()
            .unwrap();
        assert_eq!(p.query_mode(), QueryMode::Disjunctive);
        // Both: must agree on column (case-insensitively) and keywords.
        let p = resolve_ranked_path(&select_with(
            Some(("DESC", "gate")),
            Some(("desc", "gate", MatchMode::Any)),
        ))
        .unwrap()
        .unwrap();
        assert_eq!(p.mode, MatchMode::Any, "CONTAINS mode wins");
        assert!(resolve_ranked_path(&select_with(
            Some(("name", "gate")),
            Some(("desc", "gate", MatchMode::All)),
        ))
        .is_err());
        assert!(resolve_ranked_path(&select_with(
            Some(("desc", "golden")),
            Some(("desc", "gate", MatchMode::All)),
        ))
        .is_err());
    }

    #[test]
    fn ranked_path_joins_keyword_lists() {
        // RANK BY parses with an explicit mode and a keyword vector.
        let mut sel = select_with(None, None);
        sel.order_by_score = Some(crate::ast::OrderByScore {
            column: "desc".into(),
            keywords: vec!["golden".to_string(), "gate".into(), "bridge".into()],
            mode: Some(MatchMode::Any),
        });
        let p = resolve_ranked_path(&sel).unwrap().unwrap();
        assert_eq!(p.keywords, "golden gate bridge");
        assert_eq!(p.query_mode(), QueryMode::Disjunctive);
        // A CONTAINS ALL predicate on the same keywords flips it
        // conjunctive (CONTAINS mode wins) — split vs joined keyword
        // lists reconcile through the joined form.
        sel.predicate = Some(Predicate::Contains {
            column: "desc".into(),
            keywords: vec!["golden gate".to_string(), "bridge".into()],
            mode: MatchMode::All,
        });
        let p = resolve_ranked_path(&sel).unwrap().unwrap();
        assert_eq!(p.keywords, "golden gate bridge");
        assert_eq!(p.query_mode(), QueryMode::Conjunctive);
    }

    #[test]
    fn options_apply() {
        let mut config = IndexConfig::default();
        apply_options(
            &mut config,
            &[
                ("chunk_ratio".into(), OptionValue::Number(3.0)),
                ("fancy_size".into(), OptionValue::Number(16.0)),
                ("codec".into(), OptionValue::Name("bitpacked".into())),
            ],
        )
        .unwrap();
        assert_eq!(config.chunk_ratio, 3.0);
        assert_eq!(config.fancy_size, 16);
        assert_eq!(config.codec, CodecKind::Bitpacked);
        assert!(apply_options(&mut config, &[("bogus".into(), OptionValue::Number(1.0))]).is_err());
        // Kind mismatches fail cleanly in both directions.
        assert!(apply_options(&mut config, &[("codec".into(), OptionValue::Number(2.0))]).is_err());
        assert!(apply_options(
            &mut config,
            &[("chunk_ratio".into(), OptionValue::Name("bitpacked".into()))]
        )
        .is_err());
        assert!(apply_options(
            &mut config,
            &[("codec".into(), OptionValue::Name("lz4".into()))]
        )
        .is_err());
    }
}
