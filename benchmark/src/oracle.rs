//! The benchmark's own reference: a naive top-k over its own copy of the
//! documents and scores. It shares no code with the engine's executors
//! (only the term-score arithmetic primitives of `svr_text`, which define
//! what a TF-IDF score *is*), and scans every document per query.

use svr_core::types::QueryMode;

use crate::corpus::{Corpus, QueryOp, UpdateOp, TOP_K};

/// Ranked answer: `(document id, score)`, best first.
pub type Ranking = Vec<(i64, f64)>;

pub struct Oracle {
    docs: Vec<Vec<(u32, u32)>>,
    scores: Vec<i64>,
    /// Document frequency per term id (for IDF on the term-score method).
    df: Vec<u64>,
    /// `f(svr, ts) = svr + term_weight * ts`; 0 for the pure-SVR methods.
    term_weight: f64,
}

impl Oracle {
    pub fn new(corpus: &Corpus, term_weight: f64) -> Oracle {
        let mut oracle = Oracle {
            docs: Vec::new(),
            scores: Vec::new(),
            df: Vec::new(),
            term_weight,
        };
        for (terms, &score) in corpus.docs.iter().zip(&corpus.scores) {
            oracle.insert(terms.clone(), score);
        }
        oracle
    }

    pub fn num_docs(&self) -> usize {
        self.docs.len()
    }

    pub fn score(&self, doc: u32) -> i64 {
        self.scores[doc as usize]
    }

    pub fn apply(&mut self, op: &UpdateOp) {
        self.scores[op.doc as usize] = op.score;
    }

    /// Append a document; its id is the previous document count.
    pub fn insert(&mut self, terms: Vec<(u32, u32)>, score: i64) {
        for &(term, _) in &terms {
            if self.df.len() <= term as usize {
                self.df.resize(term as usize + 1, 0);
            }
            self.df[term as usize] += 1;
        }
        self.docs.push(terms);
        self.scores.push(score);
    }

    fn tf(&self, doc: usize, term: u32) -> u32 {
        let terms = &self.docs[doc];
        terms
            .binary_search_by_key(&term, |&(t, _)| t)
            .map_or(0, |i| terms[i].1)
    }

    /// The score `doc` must be reported with for `query`, or `None` when it
    /// does not qualify.
    fn query_score(&self, query: &QueryOp, doc: usize) -> Option<f64> {
        let matched = query.terms.iter().filter(|&&t| self.tf(doc, t) > 0).count();
        let qualifies = match query.mode {
            QueryMode::Conjunctive => matched == query.terms.len(),
            QueryMode::Disjunctive => matched > 0,
        };
        if !qualifies {
            return None;
        }
        let svr = self.scores[doc] as f64;
        if self.term_weight == 0.0 {
            return Some(svr);
        }
        // Quantized normalized TF times IDF, summed in keyword order.
        let max_tf = self.docs[doc].iter().map(|&(_, f)| f).max().unwrap_or(0);
        let mut ts = 0.0;
        for &t in &query.terms {
            let tf = self.tf(doc, t);
            if tf > 0 {
                let q = svr_text::quantize_term_score(svr_text::normalized_tf(tf, max_tf));
                let idf = svr_text::idf(self.docs.len() as u64, self.df[t as usize]);
                ts += idf * svr_text::unquantize_term_score(q);
            }
        }
        Some(svr + self.term_weight * ts)
    }

    /// Ground-truth top-10: score descending, ties by ascending id.
    pub fn top_k(&self, query: &QueryOp) -> Ranking {
        let mut hits: Ranking = (0..self.docs.len())
            .filter_map(|d| self.query_score(query, d).map(|s| (d as i64, s)))
            .collect();
        hits.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        hits.truncate(TOP_K);
        hits
    }

    /// Bit-for-bit comparison (quiesced system).
    pub fn matches(&self, query: &QueryOp, got: &Ranking) -> bool {
        let want = self.top_k(query);
        want.len() == got.len()
            && want
                .iter()
                .zip(got)
                .all(|(w, g)| w.0 == g.0 && w.1.to_bits() == g.1.to_bits())
    }

    /// What must hold of any answer even while other clients write: at most
    /// k rows, scores non-increasing, every row a known document that
    /// contains the keywords.
    pub fn invariants_hold(&self, query: &QueryOp, got: &Ranking) -> bool {
        got.len() <= TOP_K
            && got.windows(2).all(|w| w[0].1 >= w[1].1)
            && got.iter().all(|&(id, _)| {
                let Ok(doc) = usize::try_from(id) else {
                    return false;
                };
                if doc >= self.docs.len() {
                    return false;
                }
                let matched = query.terms.iter().filter(|&&t| self.tf(doc, t) > 0).count();
                match query.mode {
                    QueryMode::Conjunctive => matched == query.terms.len(),
                    QueryMode::Disjunctive => matched > 0,
                }
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Corpus {
        Corpus {
            docs: vec![
                vec![(1, 1), (2, 1)],
                vec![(1, 2)],
                vec![(2, 1), (3, 1)],
                vec![(1, 1), (2, 3)],
            ],
            scores: vec![50, 90, 70, 50],
            ranked_terms: vec![1, 2, 3],
        }
    }

    fn q(terms: &[u32], mode: QueryMode) -> QueryOp {
        QueryOp {
            sql: String::new(),
            terms: terms.to_vec(),
            mode,
        }
    }

    #[test]
    fn conjunctive_ties_break_by_id() {
        let o = Oracle::new(&corpus(), 0.0);
        assert_eq!(
            o.top_k(&q(&[1, 2], QueryMode::Conjunctive)),
            vec![(0, 50.0), (3, 50.0)]
        );
    }

    #[test]
    fn updates_and_inserts_are_seen() {
        let mut o = Oracle::new(&corpus(), 0.0);
        o.apply(&UpdateOp { doc: 3, score: 500 });
        o.insert(vec![(1, 1)], 1000);
        let top = o.top_k(&q(&[1], QueryMode::Disjunctive));
        assert_eq!(top[0], (4, 1000.0));
        assert_eq!(top[1], (3, 500.0));
    }

    #[test]
    fn term_scores_rank_the_denser_document_first() {
        let o = Oracle::new(&corpus(), 1000.0);
        let top = o.top_k(&q(&[2], QueryMode::Disjunctive));
        // Doc 3 has tf 3 of max 3 for term 2; doc 0 has tf 1 of max 1; doc 2
        // outranks both on its higher base score only if the weight is small.
        assert!(top.iter().any(|&(d, _)| d == 3));
        assert!(o.matches(&q(&[2], QueryMode::Disjunctive), &top));
    }

    #[test]
    fn invariants_reject_a_row_without_the_keyword() {
        let o = Oracle::new(&corpus(), 0.0);
        let query = q(&[3], QueryMode::Conjunctive);
        assert!(o.invariants_hold(&query, &vec![(2, 70.0)]));
        assert!(!o.invariants_hold(&query, &vec![(1, 90.0)]));
        assert!(!o.invariants_hold(&query, &vec![(2, 10.0), (2, 70.0)]));
    }
}
