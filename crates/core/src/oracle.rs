//! Brute-force reference implementation used by tests.
//!
//! The oracle keeps the whole collection in memory and answers queries by
//! scanning every document. Every index method must agree with it after any
//! sequence of score updates, insertions, deletions and content updates —
//! this is the executable form of the paper's Theorems 1 and 2.

use std::collections::HashMap;

use svr_text::{quantize_term_score, unquantize_term_score};

use crate::error::{CoreError, Result};
use crate::heap::ranks_above;
use crate::types::{DocId, Document, Query, QueryMode, Score, SearchHit, TermId};

/// In-memory model of the collection.
pub struct Oracle {
    docs: HashMap<DocId, Document>,
    scores: HashMap<DocId, Score>,
    deleted: HashMap<DocId, bool>,
    df: HashMap<TermId, u64>,
    num_docs: u64,
    /// Weight of the term-score component; 0 disables term scoring (pure
    /// SVR methods).
    pub term_weight: f64,
}

impl Oracle {
    /// Build from the same corpus/scores as the index under test.
    #[expect(
        clippy::expect_used,
        reason = "the oracle's contract is to panic on divergence"
    )]
    pub fn build(docs: &[Document], scores: &HashMap<DocId, Score>, term_weight: f64) -> Oracle {
        let mut oracle = Oracle {
            docs: HashMap::new(),
            scores: HashMap::new(),
            deleted: HashMap::new(),
            df: HashMap::new(),
            num_docs: 0,
            term_weight,
        };
        for doc in docs {
            let score = scores.get(&doc.id).copied().unwrap_or(0.0);
            oracle
                .insert_document(doc, score)
                .expect("oracle build must not fail");
        }
        oracle
    }

    /// Mirror of [`crate::methods::SearchIndex::update_score`].
    pub fn update_score(&mut self, doc: DocId, new_score: Score) -> Result<()> {
        if !self.is_live(doc) {
            return Err(CoreError::UnknownDocument(doc));
        }
        self.scores.insert(doc, new_score);
        Ok(())
    }

    /// Mirror of `insert_document`.
    pub fn insert_document(&mut self, doc: &Document, score: Score) -> Result<()> {
        if self.docs.contains_key(&doc.id) {
            return Err(CoreError::DuplicateDocument(doc.id));
        }
        self.docs.insert(doc.id, doc.clone());
        self.scores.insert(doc.id, score);
        self.deleted.insert(doc.id, false);
        for term in doc.term_ids() {
            *self.df.entry(term).or_insert(0) += 1;
        }
        self.num_docs += 1;
        Ok(())
    }

    /// Mirror of `delete_document`.
    pub fn delete_document(&mut self, doc: DocId) -> Result<()> {
        if !self.is_live(doc) {
            return Err(CoreError::UnknownDocument(doc));
        }
        self.deleted.insert(doc, true);
        let terms: Vec<TermId> = self.docs[&doc].term_ids().collect();
        for term in terms {
            if let Some(c) = self.df.get_mut(&term) {
                *c = c.saturating_sub(1);
            }
        }
        self.num_docs -= 1;
        Ok(())
    }

    /// Mirror of `update_content`.
    pub fn update_content(&mut self, doc: &Document) -> Result<()> {
        if !self.is_live(doc.id) {
            return Err(CoreError::UnknownDocument(doc.id));
        }
        let old: Vec<TermId> = self.docs[&doc.id].term_ids().collect();
        for term in old {
            if let Some(c) = self.df.get_mut(&term) {
                *c = c.saturating_sub(1);
            }
        }
        for term in doc.term_ids() {
            *self.df.entry(term).or_insert(0) += 1;
        }
        self.docs.insert(doc.id, doc.clone());
        Ok(())
    }

    /// True for a known, non-deleted doc.
    pub fn is_live(&self, doc: DocId) -> bool {
        self.docs.contains_key(&doc) && !self.deleted.get(&doc).copied().unwrap_or(true)
    }

    /// Current score of a live doc.
    pub fn score_of(&self, doc: DocId) -> Option<Score> {
        if self.is_live(doc) {
            self.scores.get(&doc).copied()
        } else {
            None
        }
    }

    /// Live document ids.
    pub fn live_docs(&self) -> Vec<DocId> {
        let mut out: Vec<DocId> = self
            .docs
            .keys()
            .copied()
            .filter(|&d| self.is_live(d))
            .collect();
        out.sort();
        out
    }

    fn idf(&self, term: TermId) -> f64 {
        svr_text::idf(self.num_docs, self.df.get(&term).copied().unwrap_or(0))
    }

    /// The combined score an index should report for `doc` on this query,
    /// or `None` if the doc does not qualify.
    pub fn query_score(&self, query: &Query, doc: DocId) -> Option<Score> {
        if !self.is_live(doc) {
            return None;
        }
        let d = self.docs.get(&doc)?;
        let matched = query.terms.iter().filter(|&&t| d.contains(t)).count();
        let qualifies = match query.mode {
            QueryMode::Conjunctive => matched == query.terms.len(),
            QueryMode::Disjunctive => matched >= 1,
        };
        if !qualifies || query.terms.is_empty() {
            return None;
        }
        let svr = self.scores.get(&doc).copied().unwrap_or(0.0);
        if self.term_weight == 0.0 {
            return Some(svr);
        }
        // Mirror the index arithmetic exactly: quantized normalized TF,
        // unquantized, times IDF, summed in query-term order.
        let max_tf = d.max_tf();
        let mut ts_sum = 0.0;
        for &t in &query.terms {
            let tf = d.tf(t);
            if tf > 0 {
                let q = quantize_term_score(svr_text::normalized_tf(tf, max_tf));
                ts_sum += self.idf(t) * unquantize_term_score(q);
            }
        }
        Some(svr + self.term_weight * ts_sum)
    }

    /// Ground-truth top-k.
    pub fn query(&self, query: &Query) -> Vec<SearchHit> {
        let mut hits: Vec<SearchHit> = self
            .docs
            .keys()
            .filter_map(|&doc| {
                self.query_score(query, doc)
                    .map(|score| SearchHit { doc, score })
            })
            .collect();
        hits.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| a.doc.0.cmp(&b.doc.0))
        });
        hits.truncate(query.k);
        hits
    }

    /// Assert that `hits` is a correct top-k answer for `query`.
    ///
    /// Verifies: (1) each returned doc qualifies and its score matches the
    /// ground truth within `eps`; (2) results are ranked; (3) no missing doc
    /// ranks strictly above a returned one (beyond `eps`); (4) the result
    /// count equals `min(k, qualifying docs)`.
    #[expect(
        clippy::panic,
        reason = "the oracle's contract is to panic on divergence"
    )]
    pub fn assert_topk_valid(&self, query: &Query, hits: &[SearchHit], eps: f64) {
        let truth = self.query(query);
        assert_eq!(
            hits.len(),
            truth.len(),
            "result count mismatch for {query:?}: got {hits:?}, want {truth:?}"
        );
        for w in hits.windows(2) {
            assert!(
                ranks_above(&w[0], &w[1]),
                "results not ranked: {:?} before {:?}",
                w[0],
                w[1]
            );
        }
        for hit in hits {
            let want = self
                .query_score(query, hit.doc)
                .unwrap_or_else(|| panic!("doc {} does not qualify for {query:?}", hit.doc));
            assert!(
                (hit.score - want).abs() <= eps,
                "score mismatch for doc {}: got {}, want {want}",
                hit.doc,
                hit.score
            );
        }
        // No non-returned doc may beat the worst returned doc.
        if let Some(worst) = hits.last() {
            let returned: std::collections::HashSet<DocId> = hits.iter().map(|h| h.doc).collect();
            for &doc in self.docs.keys() {
                if returned.contains(&doc) {
                    continue;
                }
                if let Some(score) = self.query_score(query, doc) {
                    let contender = SearchHit {
                        doc,
                        score: score - eps,
                    };
                    assert!(
                        !ranks_above(&contender, worst),
                        "doc {doc} (score {score}) should have beaten {worst:?} in {query:?}"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(id: u32, terms: &[u32]) -> Document {
        Document::from_term_freqs(DocId(id), terms.iter().map(|&t| (TermId(t), 1)))
    }

    fn setup() -> Oracle {
        let docs = vec![doc(1, &[10, 20]), doc(2, &[10]), doc(3, &[20, 30])];
        let scores = HashMap::from([(DocId(1), 100.0), (DocId(2), 50.0), (DocId(3), 200.0)]);
        Oracle::build(&docs, &scores, 0.0)
    }

    #[test]
    fn conjunctive_filtering() {
        let o = setup();
        let hits = o.query(&Query::conjunctive([TermId(10), TermId(20)], 10));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].doc, DocId(1));
    }

    #[test]
    fn disjunctive_ranking() {
        let o = setup();
        let hits = o.query(&Query::disjunctive([TermId(10), TermId(20)], 10));
        assert_eq!(
            hits.iter().map(|h| h.doc.0).collect::<Vec<_>>(),
            vec![3, 1, 2]
        );
    }

    #[test]
    fn updates_and_deletes_respected() {
        let mut o = setup();
        o.update_score(DocId(2), 1000.0).unwrap();
        o.delete_document(DocId(3)).unwrap();
        let hits = o.query(&Query::disjunctive([TermId(10), TermId(20)], 10));
        assert_eq!(hits[0].doc, DocId(2));
        assert!(hits.iter().all(|h| h.doc != DocId(3)));
        assert!(o.update_score(DocId(3), 5.0).is_err());
    }

    #[test]
    fn assert_topk_valid_accepts_truth() {
        let o = setup();
        let q = Query::disjunctive([TermId(10), TermId(20), TermId(30)], 2);
        let truth = o.query(&q);
        o.assert_topk_valid(&q, &truth, 1e-9);
    }

    #[test]
    #[should_panic(expected = "should have beaten")]
    fn assert_topk_valid_rejects_wrong_answer() {
        let o = setup();
        let q = Query::disjunctive([TermId(10), TermId(20)], 1);
        let wrong = vec![SearchHit {
            doc: DocId(2),
            score: 50.0,
        }];
        o.assert_topk_valid(&q, &wrong, 1e-9);
    }

    #[test]
    fn term_scores_affect_ranking() {
        let d1 = Document::from_term_freqs(DocId(1), [(TermId(1), 10)]);
        let d2 = Document::from_term_freqs(DocId(2), [(TermId(1), 1), (TermId(2), 10)]);
        let scores = HashMap::from([(DocId(1), 10.0), (DocId(2), 10.0)]);
        let o = Oracle::build(&[d1, d2], &scores, 100.0);
        let hits = o.query(&Query::disjunctive([TermId(1)], 2));
        // Doc 1 has the maximal normalized TF for term 1; doc 2's is low.
        assert_eq!(hits[0].doc, DocId(1));
        assert!(hits[0].score > hits[1].score);
    }
}
