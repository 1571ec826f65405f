//! Document representation: a document is its id plus a bag of terms.

use std::collections::BTreeMap;

use crate::tokenizer::tokenize;
use crate::vocabulary::{TermId, Vocabulary};

/// Identifier of a document (the primary key of the indexed row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(pub u32);

impl std::fmt::Display for DocId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A tokenized document: distinct terms with their in-document frequencies,
/// kept sorted by term id for deterministic iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    pub id: DocId,
    /// `(term, frequency)` for each distinct term, ascending by term id.
    pub terms: Vec<(TermId, u32)>,
}

impl Document {
    /// Tokenize `text` against `vocab` (interning new terms) and bump
    /// document frequencies.
    pub fn from_text(id: DocId, text: &str, vocab: &mut Vocabulary) -> Document {
        let mut freqs: BTreeMap<TermId, u32> = BTreeMap::new();
        for token in tokenize(text) {
            *freqs.entry(vocab.intern(&token)).or_insert(0) += 1;
        }
        for &term in freqs.keys() {
            vocab.bump_doc_freq(term);
        }
        Document {
            id,
            terms: freqs.into_iter().collect(),
        }
    }

    /// Build directly from `(term, frequency)` pairs (synthetic workloads).
    /// Pairs are sorted and duplicate terms merged; document frequencies in
    /// `vocab` are **not** touched (the caller owns that bookkeeping).
    pub fn from_term_freqs(id: DocId, pairs: impl IntoIterator<Item = (TermId, u32)>) -> Document {
        let mut freqs: BTreeMap<TermId, u32> = BTreeMap::new();
        for (t, f) in pairs {
            *freqs.entry(t).or_insert(0) += f;
        }
        Document {
            id,
            terms: freqs.into_iter().collect(),
        }
    }

    /// Number of distinct terms.
    pub fn num_distinct_terms(&self) -> usize {
        self.terms.len()
    }

    /// Total token count (sum of frequencies).
    pub fn len_tokens(&self) -> u64 {
        self.terms.iter().map(|&(_, f)| u64::from(f)).sum()
    }

    /// Largest single-term frequency (used by TF normalization). Zero for an
    /// empty document.
    pub fn max_tf(&self) -> u32 {
        self.terms.iter().map(|&(_, f)| f).max().unwrap_or(0)
    }

    /// Frequency of `term` in this document (0 when absent).
    pub fn tf(&self, term: TermId) -> u32 {
        self.terms
            .binary_search_by_key(&term, |&(t, _)| t)
            .map(|i| self.terms[i].1)
            .unwrap_or(0)
    }

    /// True if the document contains `term`.
    pub fn contains(&self, term: TermId) -> bool {
        self.tf(term) > 0
    }

    /// Distinct term ids, ascending.
    pub fn term_ids(&self) -> impl Iterator<Item = TermId> + '_ {
        self.terms.iter().map(|&(t, _)| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_text_counts_frequencies() {
        let mut vocab = Vocabulary::new();
        let doc = Document::from_text(DocId(1), "golden gate golden bridge", &mut vocab);
        let golden = vocab.get("golden").unwrap();
        let gate = vocab.get("gate").unwrap();
        assert_eq!(doc.tf(golden), 2);
        assert_eq!(doc.tf(gate), 1);
        assert_eq!(doc.num_distinct_terms(), 3);
        assert_eq!(doc.len_tokens(), 4);
        assert_eq!(doc.max_tf(), 2);
        assert_eq!(vocab.doc_freq(golden), 1, "df counts documents, not tokens");
    }

    #[test]
    fn terms_sorted_by_id() {
        let doc =
            Document::from_term_freqs(DocId(2), [(TermId(9), 1), (TermId(3), 2), (TermId(9), 3)]);
        assert_eq!(doc.terms, vec![(TermId(3), 2), (TermId(9), 4)]);
        assert!(doc.contains(TermId(3)));
        assert!(!doc.contains(TermId(4)));
    }

    #[test]
    fn empty_document() {
        let mut vocab = Vocabulary::new();
        let doc = Document::from_text(DocId(3), "", &mut vocab);
        assert_eq!(doc.num_distinct_terms(), 0);
        assert_eq!(doc.max_tf(), 0);
    }
}
