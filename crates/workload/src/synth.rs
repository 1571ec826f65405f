//! The paper's synthetic data set (§5.1, Figure 6).
//!
//! "The total number of distinct terms in the data set was 200000... Each
//! text document contains 2000 terms (possibly duplicates) and the term
//! frequency follows the Zipf's law with parameter 0.1... The value of
//! Score ranged from 0 to 100,000, and the scores were generated using the
//! Zipf distribution with default parameter 0.75."
//!
//! [`SynthConfig::paper`] carries those exact parameters;
//! [`SynthConfig::default`] is a laptop-scale configuration that preserves
//! every distributional property (see DESIGN.md §4).

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::SeedableRng;
use svr_core::types::{DocId, Document, TermId};
use svr_core::ScoreMap;

use crate::zipf::Zipf;

/// Synthetic corpus parameters.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Number of documents.
    pub num_docs: usize,
    /// Distinct terms in the vocabulary.
    pub vocab_size: usize,
    /// Tokens per document (duplicates allowed).
    pub tokens_per_doc: usize,
    /// Zipf parameter of the term distribution.
    pub term_zipf: f64,
    /// Maximum score value.
    pub max_score: f64,
    /// Zipf parameter of the score distribution.
    pub score_zipf: f64,
    /// Shape exponent mapping the Zipf rank onto the score range:
    /// `score = max_score * (rank / 1000)^score_shape`. Values > 1 thin the
    /// high-score tail so that truly popular documents are rare — the
    /// profile behind the paper's flash-crowd narrative (high scores are
    /// exceptional, most items are obscure).
    pub score_shape: f64,
    /// RNG seed (generation is fully deterministic).
    pub seed: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            num_docs: 2_000,
            vocab_size: 20_000,
            tokens_per_doc: 200,
            term_zipf: 0.1,
            max_score: 100_000.0,
            score_zipf: 0.75,
            score_shape: 3.0,
            seed: 0x5EED,
        }
    }
}

impl SynthConfig {
    /// The paper's full-scale parameters (Figure 6 defaults). Building this
    /// takes minutes and several GB; experiments default to the scaled
    /// configuration.
    pub fn paper() -> SynthConfig {
        SynthConfig {
            num_docs: 50_000,
            vocab_size: 200_000,
            tokens_per_doc: 2_000,
            term_zipf: 0.1,
            max_score: 100_000.0,
            score_zipf: 0.75,
            score_shape: 3.0,
            seed: 0x5EED,
        }
    }

    /// Generate the data set.
    pub fn generate(&self) -> SynthDataset {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let term_dist = Zipf::new(self.vocab_size, self.term_zipf);
        let score_dist = Zipf::new(1001, self.score_zipf);

        let mut docs = Vec::with_capacity(self.num_docs);
        let mut scores = ScoreMap::with_capacity(self.num_docs);
        for id in 0..self.num_docs as u32 {
            let mut freqs: HashMap<TermId, u32> = HashMap::new();
            for _ in 0..self.tokens_per_doc {
                let term = TermId(term_dist.sample(&mut rng) as u32);
                *freqs.entry(term).or_insert(0) += 1;
            }
            docs.push(Document::from_term_freqs(DocId(id), freqs));
            // Zipf-distributed score rank mapped onto [0, max_score]: rank 0
            // (most likely) is the lowest score band, so a few documents get
            // very high scores — the skew the paper observed on the real
            // Internet Archive data.
            let rank = score_dist.sample(&mut rng);
            let score = self.max_score * (rank as f64 / 1000.0).powf(self.score_shape);
            scores.insert(DocId(id), score);
        }
        SynthDataset { docs, scores }
    }
}

/// A generated corpus plus its initial scores.
pub struct SynthDataset {
    pub docs: Vec<Document>,
    pub scores: ScoreMap,
}

impl SynthDataset {
    /// Term ids ordered by descending document frequency (for query
    /// workload selectivity classes).
    pub fn terms_by_frequency(&self) -> Vec<TermId> {
        let mut df: HashMap<TermId, u64> = HashMap::new();
        for doc in &self.docs {
            for term in doc.term_ids() {
                *df.entry(term).or_insert(0) += 1;
            }
        }
        let mut terms: Vec<(TermId, u64)> = df.into_iter().collect();
        terms.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        terms.into_iter().map(|(t, _)| t).collect()
    }

    /// Documents ordered by descending score (for the update workload's
    /// "documents with higher scores were updated more frequently").
    pub fn docs_by_score(&self) -> Vec<DocId> {
        let mut by_score: Vec<(DocId, f64)> = self.scores.iter().map(|(&d, &s)| (d, s)).collect();
        by_score.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        by_score.into_iter().map(|(d, _)| d).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SynthConfig {
        SynthConfig {
            num_docs: 200,
            vocab_size: 500,
            tokens_per_doc: 50,
            ..SynthConfig::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small().generate();
        let b = small().generate();
        assert_eq!(a.docs, b.docs);
        assert_eq!(a.scores.len(), b.scores.len());
        for (doc, score) in &a.scores {
            assert_eq!(b.scores[doc], *score);
        }
    }

    #[test]
    fn shape_matches_config() {
        let ds = small().generate();
        assert_eq!(ds.docs.len(), 200);
        for doc in &ds.docs {
            assert_eq!(doc.len_tokens(), 50);
            assert!(doc.term_ids().all(|t| t.0 < 500));
        }
        for score in ds.scores.values() {
            assert!(*score >= 0.0 && *score <= 100_000.0);
        }
    }

    #[test]
    fn term_distribution_is_skewed() {
        let ds = SynthConfig {
            term_zipf: 1.0,
            ..small()
        }
        .generate();
        let by_freq = ds.terms_by_frequency();
        // The most frequent term must be far more common than the median.
        let df = |t: TermId| ds.docs.iter().filter(|d| d.contains(t)).count();
        assert!(df(by_freq[0]) > df(by_freq[by_freq.len() / 2]) * 2);
    }

    #[test]
    fn docs_by_score_descending() {
        let ds = small().generate();
        let docs = ds.docs_by_score();
        for w in docs.windows(2) {
            assert!(ds.scores[&w[0]] >= ds.scores[&w[1]]);
        }
    }

    #[test]
    fn paper_config_matches_figure6() {
        let p = SynthConfig::paper();
        assert_eq!(p.vocab_size, 200_000);
        assert_eq!(p.tokens_per_doc, 2_000);
        assert_eq!(p.term_zipf, 0.1);
        assert_eq!(p.score_zipf, 0.75);
        assert_eq!(p.max_score, 100_000.0);
    }
}
