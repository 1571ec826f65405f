//! Seed → inputs. Everything the program under test receives is a SQL
//! statement (or, on the lower ladder rungs, the same operation as typed
//! values) generated here; the seed itself never crosses into the engine.
//!
//! The corpus is `svr_workload::SynthConfig` with its term ids rendered as
//! words (`w17`), the query streams come from `QueryWorkload`, and the
//! score-update streams from `UpdateWorkload` (documents with higher scores
//! are updated more often; random-walk step).

use svr_core::types::{DocId, QueryMode, TermId};
use svr_workload::{QueryClass, QueryWorkload, SynthConfig, UpdateConfig, UpdateWorkload};

/// Corpus shape of one workload (the seed is supplied per run).
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub num_docs: usize,
    pub vocab_size: usize,
    pub tokens_per_doc: usize,
    pub term_zipf: f64,
}

/// The benchmark's own copy of the documents and their initial scores.
pub struct Corpus {
    /// `docs[id]` = `(term, tf)` ascending by term.
    pub docs: Vec<Vec<(u32, u32)>>,
    /// `scores[id]` = initial `nvisit`.
    pub scores: Vec<i64>,
    /// Terms by descending document frequency.
    pub ranked_terms: Vec<u32>,
}

/// SplitMix64: derives independent sub-seeds from the run seed and drives
/// the few choices the workload generators do not make themselves.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Sub-seed `lane` of run seed `seed` (corpus, queries, updates, ... each
/// get their own so adding a stream never shifts another).
pub fn sub_seed(seed: u64, lane: u64) -> u64 {
    SplitMix(seed ^ lane.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

pub fn word(term: u32) -> String {
    format!("w{term}")
}

impl Corpus {
    pub fn generate(shape: Shape, seed: u64) -> Corpus {
        let ds = SynthConfig {
            num_docs: shape.num_docs,
            vocab_size: shape.vocab_size,
            tokens_per_doc: shape.tokens_per_doc,
            term_zipf: shape.term_zipf,
            seed: sub_seed(seed, 1),
            ..SynthConfig::default()
        }
        .generate();
        let ranked_terms = ds.terms_by_frequency().into_iter().map(|t| t.0).collect();
        let docs: Vec<Vec<(u32, u32)>> = ds
            .docs
            .iter()
            .map(|d| d.terms.iter().map(|&(t, f)| (t.0, f)).collect())
            .collect();
        let scores = (0..docs.len() as u32)
            .map(|id| ds.scores[&DocId(id)].round() as i64)
            .collect();
        Corpus {
            docs,
            scores,
            ranked_terms,
        }
    }

    /// The text of document `id`: every term repeated `tf` times.
    pub fn body(terms: &[(u32, u32)]) -> String {
        let mut body = String::new();
        for &(term, tf) in terms {
            for _ in 0..tf {
                if !body.is_empty() {
                    body.push(' ');
                }
                body.push_str(&word(term));
            }
        }
        body
    }

    pub fn insert_doc_sql(id: u32, terms: &[(u32, u32)]) -> String {
        format!("INSERT INTO docs VALUES ({id}, '{}')", Corpus::body(terms))
    }

    pub fn insert_stats_sql(id: u32, score: i64) -> String {
        format!("INSERT INTO stats VALUES ({id}, {score})")
    }

    fn ranked_term_ids(&self) -> Vec<TermId> {
        self.ranked_terms.iter().map(|&t| TermId(t)).collect()
    }
}

/// One ranked top-10 query: its SQL text plus the typed form the lower
/// ladder rungs and the oracle use.
#[derive(Debug, Clone)]
pub struct QueryOp {
    pub sql: String,
    /// Keywords in statement order.
    pub terms: Vec<u32>,
    pub mode: QueryMode,
}

impl QueryOp {
    pub fn keywords(&self) -> String {
        let words: Vec<String> = self.terms.iter().map(|&t| word(t)).collect();
        words.join(" ")
    }
}

pub const TOP_K: usize = 10;

/// Which ranked statements a workload issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// `ORDER BY SCORE(body, 'a b')`: 2-keyword conjunctive, keywords from
    /// the medium-selectivity pool (the paper's default query).
    Pair,
    /// A cycle of four over the most frequent terms: 4-keyword `CONTAINS
    /// ALL`, 2-keyword `RANK BY` (OR), 4-keyword `CONTAINS ALL` again, and a
    /// `CONTAINS ALL` of one *rare* keyword with three frequent ones — the
    /// only kind whose leapfrog can skip whole blocks of the dense lists.
    /// Half the statements being of one kind keeps the median inside that
    /// kind's latencies instead of in the gap between two kinds.
    MultiTerm,
}

/// Keywords of `Pair` queries come from this many most frequent terms
/// (medium selectivity: a conjunction of two still matches tens of
/// documents), those of `MultiTerm` queries from far fewer (long lists).
const PAIR_POOL: usize = 150;
const MULTI_POOL: usize = 24;

/// A `QueryWorkload` whose keyword pool is the `pool` most frequent terms.
/// Its selectivity classes are fixed fractions of the term list it is
/// given, so the list is cut to the length whose `Rare` fraction is `pool`.
fn workload_over(
    corpus: &Corpus,
    pool: usize,
    terms_per_query: usize,
    mode: QueryMode,
    seed: u64,
) -> QueryWorkload {
    let mut ranked = corpus.ranked_term_ids();
    let mut len = ranked.len();
    while len > pool && QueryClass::Rare.pool_size(len - 1) >= pool {
        len -= 1;
    }
    ranked.truncate(len);
    QueryWorkload::new(ranked, QueryClass::Rare, terms_per_query, mode, seed)
}

/// `n` ranked statements (cycled by the runs).
pub fn query_stream(corpus: &Corpus, kind: QueryKind, n: usize, seed: u64) -> Vec<QueryOp> {
    match kind {
        QueryKind::Pair => {
            let mut gen = workload_over(
                corpus,
                PAIR_POOL,
                2,
                QueryMode::Conjunctive,
                sub_seed(seed, 2),
            );
            (0..n)
                .map(|_| {
                    let terms = ids(gen.next_query(TOP_K));
                    let kw: Vec<String> = terms.iter().map(|&t| word(t)).collect();
                    QueryOp {
                        sql: format!(
                            "SELECT id FROM docs ORDER BY SCORE(body, '{}') \
                             FETCH TOP {TOP_K} RESULTS ONLY",
                            kw.join(" ")
                        ),
                        terms,
                        mode: QueryMode::Conjunctive,
                    }
                })
                .collect()
        }
        QueryKind::MultiTerm => {
            let frequent = |terms, mode, lane| {
                workload_over(corpus, MULTI_POOL, terms, mode, sub_seed(seed, lane))
            };
            let mut all = frequent(4, QueryMode::Conjunctive, 3);
            let mut any = frequent(2, QueryMode::Disjunctive, 4);
            let mut three = frequent(3, QueryMode::Conjunctive, 6);
            let mut pick = SplitMix(sub_seed(seed, 7));
            // Rare keywords: the third quarter of the frequency ranking.
            let (band, width) = (corpus.ranked_terms.len() / 2, corpus.ranked_terms.len() / 4);
            (0..n)
                .map(|i| {
                    let (mut terms, mode): (Vec<u32>, _) = match i % 4 {
                        1 => (ids(any.next_query(TOP_K)), QueryMode::Disjunctive),
                        3 => (ids(three.next_query(TOP_K)), QueryMode::Conjunctive),
                        _ => (ids(all.next_query(TOP_K)), QueryMode::Conjunctive),
                    };
                    if i % 4 == 3 {
                        terms.insert(0, corpus.ranked_terms[band + pick.below(width.max(1))]);
                    }
                    let list: Vec<String> =
                        terms.iter().map(|&t| format!("'{}'", word(t))).collect();
                    let list = list.join(", ");
                    let sql = match mode {
                        QueryMode::Conjunctive => format!(
                            "SELECT id FROM docs WHERE body CONTAINS ALL ({list}) \
                             RANK BY body ({list}) FETCH TOP {TOP_K} RESULTS ONLY"
                        ),
                        QueryMode::Disjunctive => format!(
                            "SELECT id FROM docs RANK BY body ({list}) \
                             FETCH TOP {TOP_K} RESULTS ONLY"
                        ),
                    };
                    QueryOp { sql, terms, mode }
                })
                .collect()
        }
    }
}

fn ids(query: svr_core::types::Query) -> Vec<u32> {
    query.terms.iter().map(|t| t.0).collect()
}

/// One single-row score update.
#[derive(Debug, Clone)]
pub struct UpdateOp {
    pub doc: u32,
    pub score: i64,
}

impl UpdateOp {
    pub fn sql(&self) -> String {
        format!(
            "UPDATE stats SET nvisit = {} WHERE id = {}",
            self.score, self.doc
        )
    }
}

/// An endless score-update stream over the documents `d` with
/// `d % parts == part` (each serving client owns one part, so the last
/// acknowledged write of every document is unambiguous).
pub struct UpdateStream {
    inner: UpdateWorkload,
}

impl UpdateStream {
    pub fn new(corpus: &Corpus, part: usize, parts: usize, seed: u64) -> UpdateStream {
        let mut mine: Vec<u32> = (0..corpus.docs.len() as u32)
            .filter(|d| *d as usize % parts == part)
            .collect();
        // Descending initial score, ties by id: the order UpdateWorkload's
        // Zipf pick expects.
        mine.sort_by(|a, b| {
            corpus.scores[*b as usize]
                .cmp(&corpus.scores[*a as usize])
                .then(a.cmp(b))
        });
        let scores = mine
            .iter()
            .map(|&d| (DocId(d), corpus.scores[d as usize] as f64))
            .collect();
        let config = UpdateConfig {
            seed: sub_seed(seed, 16 + part as u64),
            ..UpdateConfig::default()
        };
        UpdateStream {
            inner: UpdateWorkload::new(mine.into_iter().map(DocId).collect(), scores, config),
        }
    }

    pub fn next_op(&mut self) -> UpdateOp {
        let (doc, score) = self.inner.next_update();
        UpdateOp {
            doc: doc.0,
            score: score.round() as i64,
        }
    }
}

/// FNV-1a over a statement stream: the determinism tests compare it across
/// runs of one seed and between seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamHash(pub u64);

impl Default for StreamHash {
    fn default() -> Self {
        StreamHash(0xCBF2_9CE4_8422_2325)
    }
}

impl StreamHash {
    pub fn feed(&mut self, statement: &str) {
        for &b in statement.as_bytes().iter().chain(b"\n") {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: Shape = Shape {
        num_docs: 300,
        vocab_size: 400,
        tokens_per_doc: 20,
        term_zipf: 1.0,
    };

    fn stream_hash(seed: u64) -> StreamHash {
        let corpus = Corpus::generate(SHAPE, seed);
        let mut hash = StreamHash::default();
        for (id, terms) in corpus.docs.iter().enumerate() {
            hash.feed(&Corpus::insert_doc_sql(id as u32, terms));
            hash.feed(&Corpus::insert_stats_sql(id as u32, corpus.scores[id]));
        }
        for kind in [QueryKind::Pair, QueryKind::MultiTerm] {
            for q in query_stream(&corpus, kind, 50, seed) {
                hash.feed(&q.sql);
            }
        }
        let mut updates = UpdateStream::new(&corpus, 0, 1, seed);
        for _ in 0..200 {
            hash.feed(&updates.next_op().sql());
        }
        hash
    }

    #[test]
    fn same_seed_same_statements_other_seed_other_statements() {
        assert_eq!(stream_hash(11), stream_hash(11));
        assert_ne!(stream_hash(11), stream_hash(12));
    }

    #[test]
    fn update_parts_are_disjoint() {
        let corpus = Corpus::generate(SHAPE, 5);
        for part in 0..2 {
            let mut s = UpdateStream::new(&corpus, part, 2, 5);
            for _ in 0..200 {
                assert_eq!(s.next_op().doc as usize % 2, part);
            }
        }
    }

    #[test]
    fn multiterm_cycles_its_four_kinds() {
        let corpus = Corpus::generate(SHAPE, 5);
        let qs = query_stream(&corpus, QueryKind::MultiTerm, 4, 5);
        assert!(qs[0].sql.contains("CONTAINS ALL") && qs[0].terms.len() == 4);
        assert!(!qs[1].sql.contains("CONTAINS") && qs[1].terms.len() == 2);
        assert_eq!(qs[1].mode, QueryMode::Disjunctive);
        assert!(qs[2].sql.contains("CONTAINS ALL") && qs[2].terms.len() == 4);
        // The driver keyword leads and is not one of the frequent terms.
        let rank = |t| corpus.ranked_terms.iter().position(|&r| r == t).unwrap();
        assert!(rank(qs[3].terms[0]) >= corpus.ranked_terms.len() / 2);
        assert!(qs[3].terms[1..].iter().all(|&t| rank(t) < 24));
    }
}
